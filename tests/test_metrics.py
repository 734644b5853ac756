"""Nearest-neighbor search, cloud metrics, and voxel utilities."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reconbench import metrics
from reconbench.errors import InvalidInputError
from reconbench.geometry import PointCloud
from reconbench.metrics import (
    _BRUTE_WIDTH,
    KdTree,
    VoxelFilterConfig,
    _brute_nearest_sq,
    _voxel_groups,
    chamfer_hausdorff,
    nearest_distances,
    voxel_downsample,
    voxel_filter,
)


def brute_nearest(query: np.ndarray, reference: np.ndarray) -> tuple[int, float]:
    """Linear-scan oracle; np.argmin picks the lowest index on ties."""
    d = np.linalg.norm(reference - query, axis=1)
    idx = int(np.argmin(d))
    return idx, float(d[idx])


class TestKdTree:
    def test_matches_linear_scan_on_random_clouds(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 200))
            ref = rng.uniform(-1, 1, size=(n, 3))
            tree = KdTree(ref)
            for q in rng.uniform(-1.2, 1.2, size=(5, 3)):
                idx, dist = tree.nearest(q)
                bidx, bdist = brute_nearest(q, ref)
                assert idx == bidx
                assert dist == pytest.approx(bdist, abs=1e-12)

    def test_tie_breaks_to_lowest_index(self):
        ref = np.array([[1.0, 0, 0], [-1.0, 0, 0], [1.0, 0, 0]])
        tree = KdTree(ref)
        idx, dist = tree.nearest(np.zeros(3))
        assert idx == 0
        assert dist == 1.0

    def test_ties_among_duplicates(self, rng):
        base = rng.uniform(-1, 1, size=(5, 3))
        ref = np.repeat(base, 40, axis=0)
        perm = rng.permutation(ref.shape[0])
        ref = ref[perm]
        tree = KdTree(ref)
        for q in base:
            idx, dist = tree.nearest(q)
            assert dist == 0.0
            assert idx == brute_nearest(q, ref)[0]

    def test_single_point_tree(self):
        tree = KdTree(np.array([[1.0, 2.0, 3.0]]))
        idx, dist = tree.nearest(np.array([1.0, 2.0, 7.0]))
        assert (idx, dist) == (0, 4.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            KdTree(np.zeros((0, 3)))

    def test_nearest_many_matches_single(self, rng):
        ref = rng.normal(size=(300, 3))
        tree = KdTree(ref)
        queries = rng.normal(size=(40, 3))
        idx, dist = tree.nearest_many(queries)
        for k, q in enumerate(queries):
            si, sd = tree.nearest(q)
            assert idx[k] == si
            assert dist[k] == sd


class TestNearestDistances:
    def test_accepts_point_clouds(self, rng):
        a = PointCloud.from_points(rng.normal(size=(10, 3)))
        b = PointCloud.from_points(rng.normal(size=(15, 3)))
        d = nearest_distances(a, b)
        assert d.shape == (10,)

    def test_empty_raises(self):
        with pytest.raises(InvalidInputError):
            nearest_distances(np.zeros((0, 3)), np.ones((5, 3)))

    def test_brute_and_tree_agree_on_large_inputs(self, rng):
        a = rng.uniform(-1, 1, size=(3000, 3))
        b = rng.uniform(-1, 1, size=(2000, 3))
        fast = nearest_distances(a, b)
        _, tree_d = KdTree(b).nearest_many(a)
        # both take the least difference-form value
        assert np.array_equal(fast, tree_d)

    def test_self_distance_is_zero(self, rng):
        pts = rng.normal(size=(100, 3))
        assert np.array_equal(nearest_distances(pts, pts), np.zeros(100))


def difference_form_nearest_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All-pairs difference-form scan, in blocks of about 1M pairs (the
    values do not depend on the blocking)."""
    out = np.empty(a.shape[0])
    block = max(1, 1_000_000 // b.shape[0])
    for s in range(0, a.shape[0], block):
        diff = a[s : s + block, None, :] - b[None, :, :]
        out[s : s + block] = np.einsum("nmk,nmk->nm", diff, diff).min(axis=1)
    return out


@pytest.mark.parametrize(
    "n, m",
    [(77, 333), (1000, 2000), (3000, 1000), (10_000, 2_500), (2_500, 10_000), (200, 100_000),
     (3000, 3000), (5000, 2500), (2049, 4099), (30, 140_000)],
)
def test_small_blocks_match_large_blocks(rng, n, m):
    # past 8192 reference points the scan slices the reference cloud, the
    # last slice taking the remainder; 30 query rows fill less than a block
    a = rng.normal(size=(n, 3))
    b = rng.normal(size=(m, 3))
    assert np.array_equal(_brute_nearest_sq(a, b), difference_form_nearest_sq(a, b))


def _lattice(k: int) -> np.ndarray:
    axis = np.arange(k, dtype=np.float64)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)


def _adversarial_case(name: str, rng) -> tuple[np.ndarray, np.ndarray]:
    # 9261 lattice points: the ties also fall in the second reference slice
    grid = _lattice(21) * 0.1
    picks = grid[rng.choice(len(grid), size=1500, replace=False)]
    if name == "lattice_own_points":
        return picks, grid
    if name == "lattice_cell_centres":
        # up to eight reference points tie exactly for each query
        return picks + 0.05, grid
    if name == "lattice_face_centres":
        return picks + [0.05, 0.05, 0.0], grid
    if name == "duplicated_reference":
        base = rng.normal(size=(300, 3))
        return rng.normal(size=(500, 3)), base[rng.integers(0, 300, size=3000)]
    if name == "offset_cancellation":
        # |a|^2 is ~1e8 times the squared gaps between the points
        a = 7.0 + 1e-4 * rng.normal(size=(2000, 3))
        return a, 7.0 + 1e-4 * rng.normal(size=(2500, 3))
    if name == "offset_1e30":
        # squares of the raw coordinates overflow float32
        return (1e30 + 1e16 * rng.normal(size=(1500, 3)),
                1e30 + 1e16 * rng.normal(size=(2500, 3)))
    if name == "scale_1e30":
        return 1e30 * rng.normal(size=(1500, 3)), 1e30 * rng.normal(size=(2500, 3))
    if name == "gaps_1e-30":
        # products of the raw coordinates underflow float32
        return 1e-30 * rng.normal(size=(1500, 3)), 1e-30 * rng.normal(size=(2500, 3))
    if name == "subnormal_products":
        # one far query sets the frame; the rest meet the reference in
        # float32 products below the normal range
        a = np.concatenate([1e-21 * rng.normal(size=(1500, 3)), [[1.0, 1.0, 1.0]]])
        return a, 1e-21 * rng.normal(size=(2500, 3))
    if name == "far_apart":
        return rng.normal(size=(1500, 3)), 1e3 + rng.normal(size=(2500, 3))
    if name == "one_query":
        return rng.normal(size=(1, 3)), rng.normal(size=(20_000, 3))
    assert name == "one_reference"
    return rng.normal(size=(3000, 3)), rng.normal(size=(1, 3))


@pytest.mark.parametrize(
    "name",
    ["lattice_own_points", "lattice_cell_centres", "lattice_face_centres",
     "duplicated_reference", "offset_cancellation", "offset_1e30", "scale_1e30",
     "gaps_1e-30", "subnormal_products", "far_apart", "one_query", "one_reference"],
)
def test_exact_on_adversarial_clouds(rng, name):
    a, b = _adversarial_case(name, rng)
    assert np.array_equal(_brute_nearest_sq(a, b), difference_form_nearest_sq(a, b))


def _settle_case(name: str, rng) -> tuple[np.ndarray, np.ndarray]:
    # queries 10 apart, each with its own reference points at radius
    # about 0.5: radii 1e-9 apart are equal in float32 and distinct in
    # float64, and the float64-nearest point always has the highest
    # index, so a pick by the float32 product alone would be wrong
    a = 10.0 * _lattice(5)
    ex, ey, _ = np.eye(3)
    grow = 1.0 + 1e-9
    far = 1e3 + rng.normal(size=(_BRUTE_WIDTH, 3))
    if name == "two_candidates":
        return a, np.concatenate([a + 0.5 * grow * ex, a + 0.5 * ey])
    if name == "one_candidate_per_slice":
        # the runner-up sits in another reference slice than the least
        first = np.concatenate([a + 0.5 * grow * ex, far[len(a):]])
        return a, np.concatenate([first, a + 0.5 * ey])
    if name == "three_or_more_candidates":
        return a, np.concatenate([a + 0.5 * grow**3 * ex, a - 0.5 * grow**2 * ex,
                                  a + 0.5 * grow * ey, a - 0.5 * ey])
    if name == "duplicates_across_slices":
        base = a + 0.5 * rng.normal(size=a.shape)
        first = np.concatenate([base, base, base, far[3 * len(a):]])
        return a, np.concatenate([first, base])
    assert name == "one_point_last_slice"
    # 8193 reference points: the last slice holds one, the nearest
    first = np.concatenate([a + 0.5 * grow * ex, far[len(a):]])
    return a, np.concatenate([first, a[:1] + 0.5 * ey])


@pytest.mark.parametrize(
    "name",
    ["two_candidates", "one_candidate_per_slice", "three_or_more_candidates",
     "duplicates_across_slices", "one_point_last_slice"],
)
def test_near_ties_settle_exactly(rng, monkeypatch, name):
    a, b = _settle_case(name, rng)
    settled = []
    settle = metrics._settle_near_ties

    def spy(*args):
        settled.append(True)
        return settle(*args)

    monkeypatch.setattr(metrics, "_settle_near_ties", spy)
    assert np.array_equal(_brute_nearest_sq(a, b), difference_form_nearest_sq(a, b))
    assert settled


@pytest.mark.parametrize("n", [3000, 10_000])
def test_self_distance_is_exactly_zero(rng, n):
    pts = rng.normal(size=(n, 3))
    assert np.array_equal(nearest_distances(pts, pts), np.zeros(n))


def test_memory_stays_flat_on_a_large_reference(rng):
    a = rng.normal(size=(100, 3))
    b = rng.normal(size=(1_000_000, 3))
    tracemalloc.start()
    try:
        nearest_distances(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12_000_000


class TestChamferHausdorff:
    def test_hand_computed_values(self):
        a = np.array([[0.0, 0.0, 0.0]])
        b = np.array([[1.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        # directed means: a->b is 1, b->a is (1+3)/2 = 2
        d_c, d_h = chamfer_hausdorff(a, b)
        assert d_c == pytest.approx(1.5, abs=1e-12)
        assert d_h == pytest.approx(3.0, abs=1e-12)

    def test_matches_quadratic_reference(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 200))
            m = int(rng.integers(1, 200))
            a = rng.uniform(-1, 1, size=(n, 3))
            b = rng.uniform(-1, 1, size=(m, 3))
            d_ab = np.linalg.norm(a[:, None] - b[None, :], axis=-1).min(axis=1)
            d_ba = np.linalg.norm(b[:, None] - a[None, :], axis=-1).min(axis=1)
            ref_c = 0.5 * (d_ab.mean() + d_ba.mean())
            ref_h = max(d_ab.max(), d_ba.max())
            got_c, got_h = chamfer_hausdorff(a, b)
            assert got_c == pytest.approx(ref_c, abs=1e-12)
            assert got_h == pytest.approx(ref_h, abs=1e-12)

    def test_identity_is_zero(self, rng):
        pts = rng.normal(size=(200, 3))
        assert chamfer_hausdorff(pts, pts) == (0.0, 0.0)

    def test_identity_is_zero_on_a_large_cloud(self, rng):
        pts = rng.normal(size=(5000, 3))
        assert chamfer_hausdorff(pts, pts) == (0.0, 0.0)

    def test_symmetry(self, rng):
        a = rng.normal(size=(50, 3))
        b = rng.normal(size=(70, 3))
        assert chamfer_hausdorff(a, b) == chamfer_hausdorff(b, a)

    def test_hausdorff_dominates_chamfer(self, rng):
        for _ in range(200):
            a = rng.normal(size=(int(rng.integers(1, 50)), 3))
            b = rng.normal(size=(int(rng.integers(1, 50)), 3))
            d_c, d_h = chamfer_hausdorff(a, b)
            assert d_c <= d_h

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rigid_motion_invariance(self, random_rotation, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(30, 3))
        b = rng.normal(size=(40, 3))
        rotation = random_rotation(rng)
        shift = rng.normal(size=3)
        before = chamfer_hausdorff(a, b)
        after = chamfer_hausdorff(a @ rotation.T + shift, b @ rotation.T + shift)
        assert np.allclose(before, after, atol=1e-9)


class TestVoxelFilter:
    def test_config_validation(self):
        with pytest.raises(InvalidInputError):
            VoxelFilterConfig(voxel_size=0.0, min_points_per_voxel=1)
        with pytest.raises(InvalidInputError):
            VoxelFilterConfig(voxel_size=0.1, min_points_per_voxel=0)

    def test_lonely_points_dropped(self):
        cloud = PointCloud.from_points(
            [[0.1, 0.1, 0.1], [0.2, 0.2, 0.2], [5.0, 5.0, 5.0]]
        )
        out = voxel_filter(cloud, VoxelFilterConfig(1.0, 2))
        assert np.allclose(out.points, cloud.points[:2])

    def test_order_and_tags_preserved(self, rng):
        pts = np.vstack([rng.uniform(0, 1, size=(30, 3)), [[9.0, 9.0, 9.0]]])
        tags = np.array(["observed", "generated"] * 15 + ["observed"])
        cloud = PointCloud(pts, tags)
        out = voxel_filter(cloud, VoxelFilterConfig(2.0, 2))
        assert np.array_equal(out.points, pts[:30])
        assert np.array_equal(out.tags, tags[:30])

    def test_min_one_passes_everything(self, rng):
        cloud = PointCloud.from_points(rng.normal(size=(40, 3)))
        out = voxel_filter(cloud, VoxelFilterConfig(0.1, 1))
        assert np.array_equal(out.points, cloud.points)

    def test_negative_coordinates_bin_separately(self):
        cloud = PointCloud.from_points([[-0.05, 0, 0], [0.05, 0, 0]])
        out = voxel_filter(cloud, VoxelFilterConfig(1.0, 2))
        # floor puts them in voxels -1 and 0: both lonely
        assert len(out) == 0

    def test_empty_cloud(self):
        out = voxel_filter(PointCloud.empty(), VoxelFilterConfig(1.0, 2))
        assert len(out) == 0


@pytest.mark.parametrize(
    "n, spread", [(1, 5), (2000, 3), (2000, 40), (30_000, 1000)]
)
def test_voxel_groups_match_unique_rows(rng, n, spread):
    keys = rng.integers(-spread, spread, size=(n, 3))
    want = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )[1:]
    for got, expected in zip(_voxel_groups(keys), want):
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


class TestVoxelDownsample:
    def test_centroid_per_voxel(self):
        cloud = PointCloud.from_points([[0.2, 0, 0], [0.4, 0, 0], [3.5, 0, 0]])
        out = voxel_downsample(cloud, 1.0)
        assert np.allclose(out.points, [[0.3, 0.0, 0.0], [3.5, 0.0, 0.0]])

    def test_first_occurrence_order_and_tag(self):
        pts = [[2.5, 0, 0], [0.5, 0, 0], [2.6, 0, 0]]
        cloud = PointCloud(
            np.asarray(pts), np.array(["generated", "observed", "observed"])
        )
        out = voxel_downsample(cloud, 1.0)
        # voxel of the first point comes first and keeps its tag
        assert np.allclose(out.points[0], [2.55, 0, 0])
        assert out.tags.tolist() == ["generated", "observed"]

    def test_idempotent(self, rng):
        cloud = PointCloud.from_points(rng.uniform(-2, 2, size=(500, 3)))
        once = voxel_downsample(cloud, 0.3)
        twice = voxel_downsample(once, 0.3)
        assert np.array_equal(once.points, twice.points)
        assert np.array_equal(once.tags, twice.tags)

    def test_invalid_size(self, rng):
        with pytest.raises(InvalidInputError):
            voxel_downsample(PointCloud.from_points(rng.normal(size=(3, 3))), 0.0)
