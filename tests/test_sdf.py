"""Signed distance queries, training-sample generation, and iso-surface
extraction."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from reconbench import sdf
from reconbench.bench import CATEGORIES, _build_instance
from reconbench.errors import InvalidInputError
from reconbench.geometry import TriangleMesh
from reconbench.sdf import (
    GRID_RADIUS,
    SamplingConfig,
    SdfSamples,
    default_iso_epsilon,
    evaluate_on_grid,
    extract_surface_points,
    grid_axis,
    inside_mask,
    newton_step,
    numeric_gradient,
    sample_training_set,
    signed_distances,
    unsigned_distances,
)
from reconbench.shapes import box_mesh, icosphere


def box_sdf(points: np.ndarray, half: float = 0.5) -> np.ndarray:
    """Analytic signed distance of an axis-aligned cube."""
    q = np.abs(points) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(q.max(axis=-1), 0.0)
    return outside + inside


def box_gradient(points: np.ndarray, half: float = 0.5) -> np.ndarray:
    """Analytic gradient of ``box_sdf``: the unit direction from the
    nearest boundary point outside, the nearest face's normal inside."""
    q = np.abs(points) - half
    out = np.maximum(q, 0.0)
    norm = np.linalg.norm(out, axis=1, keepdims=True)
    face = np.zeros_like(points)
    face[np.arange(len(points)), q.argmax(axis=1)] = 1.0
    g = np.where(norm > 0, out / np.where(norm > 0, norm, 1.0), face)
    return g * np.sign(points)


class TestPointTriangleDistance:
    # one triangle in the xy plane; every query targets a distinct
    # closest-point region and the expected value is derived by hand
    TRI = TriangleMesh(
        np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
        np.array([[0, 1, 2]]),
    )

    @pytest.mark.parametrize(
        "point,expected",
        [
            ((0.25, 0.25, 1.0), 1.0),  # face interior
            ((2.0, 0.0, 0.0), 1.0),  # vertex B
            ((0.5, -1.0, 0.0), 1.0),  # edge AB interior
            ((1.0, 1.0, 0.0), np.sqrt(0.5)),  # edge BC interior
            ((-1.0, -1.0, 0.0), np.sqrt(2.0)),  # vertex A
            ((0.25, 0.25, 0.0), 0.0),  # on the face
        ],
    )
    def test_hand_solved_regions(self, point, expected):
        d = unsigned_distances(np.asarray(point)[None, :], self.TRI)
        assert np.isclose(d[0], expected, atol=1e-12)

    def test_vertices_are_zero(self, unit_sphere):
        d = unsigned_distances(unit_sphere.vertices[:50], unit_sphere)
        assert np.max(d) <= 1e-12


def all_pairs_distances(points, mesh: TriangleMesh) -> np.ndarray:
    """Oracle: the pair kernel on every (point, triangle) pair, unpruned."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    a, b, c = mesh.corners()
    m = len(mesh)
    out = np.empty(len(pts))
    chunk = max(1, 200_000 // m)
    for s in range(0, len(pts), chunk):
        p = pts[s:s + chunk]
        sq = sdf._point_triangle_sqdist(
            np.repeat(p, m, axis=0),
            np.tile(a, (len(p), 1)),
            np.tile(b, (len(p), 1)),
            np.tile(c, (len(p), 1)),
        )
        out[s:s + chunk] = np.sqrt(sq.reshape(len(p), m).min(axis=1))
    return out


def category_mesh(category: str) -> TriangleMesh:
    return _build_instance([0, CATEGORIES.index(category), 0])[1]


# triangle soups for the property test: coordinates on a coarse lattice
# make exact ties, shared vertices and touching triangles likely
_soup_coords = st.integers(-8, 8).map(lambda i: i / 4.0) | st.floats(-2.0, 2.0)


class TestPrunedPass:
    """The bound-and-prune pass must equal the unpruned kernel bit for bit."""

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_categories_on_sampler_points(self, category):
        mesh = category_mesh(category)
        pts = sample_training_set(mesh, SamplingConfig(total_count=400, seed=5)).points
        assert np.array_equal(unsigned_distances(pts, mesh), all_pairs_distances(pts, mesh))

    @pytest.mark.parametrize(
        "mesh", [box_mesh((0.5, 0.5, 0.5)), icosphere(subdivisions=1)], ids=["box", "sphere"]
    )
    def test_grid_points(self, mesh):
        pts, _ = evaluate_on_grid(lambda p: np.zeros(p.shape[0]), 32)
        assert np.array_equal(unsigned_distances(pts, mesh), all_pairs_distances(pts, mesh))

    def test_points_far_outside_the_ball(self, unit_sphere, rng):
        dirs = rng.normal(size=(300, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dirs * rng.uniform(100.0, 1000.0, size=(300, 1))
        got = unsigned_distances(pts, unit_sphere)
        assert np.array_equal(got, all_pairs_distances(pts, unit_sphere))

    @pytest.mark.parametrize("which", ["sphere", "jar"])
    def test_vertices_and_edge_midpoints(self, which, unit_sphere):
        mesh = unit_sphere if which == "sphere" else category_mesh("jar")
        a, b, c = (corner[:100] for corner in mesh.corners())
        pts = np.concatenate([mesh.vertices, (a + b) / 2, (b + c) / 2, (c + a) / 2])
        got = unsigned_distances(pts, mesh)
        assert np.array_equal(got, all_pairs_distances(pts, mesh))
        assert np.max(got) <= 1e-12

    def test_box_centre_ties_every_face(self, unit_box):
        got = unsigned_distances(np.zeros((1, 3)), unit_box)
        assert np.array_equal(got, all_pairs_distances(np.zeros((1, 3)), unit_box))
        assert got[0] == 0.5

    def test_one_triangle_mesh(self, rng):
        mesh = TestPointTriangleDistance.TRI
        pts = rng.uniform(-2.0, 2.0, size=(500, 3))
        assert np.array_equal(unsigned_distances(pts, mesh), all_pairs_distances(pts, mesh))

    def test_rounding_margin_keeps_a_near_touching_triangle(self):
        # the query sits on a vertex of the first triangle, so its vertex
        # bound is 0, but the kernel rounds that triangle's distance up
        # to 1e-17; the second triangle's box starts 5e-18 away and must
        # still be scanned
        mesh = TriangleMesh(
            np.array([[1.0, 0, 0], [1, 1, 0], [1e-17, 0, 0], [1.5e-17, 0, 0], [1, -1, 0], [1, 0, 1]]),
            np.array([[0, 1, 2], [3, 4, 5]]),
        )
        p = np.array([[1e-17, 0.0, 0.0]])
        got = unsigned_distances(p, mesh)
        assert np.array_equal(got, all_pairs_distances(p, mesh))
        assert got[0] < 1e-17

    def test_unused_vertices_do_not_bound(self):
        # a vertex no triangle uses is not on the surface
        tri = TestPointTriangleDistance.TRI
        mesh = TriangleMesh(np.vstack([tri.vertices, [[5.0, 5.0, 5.0]]]), tri.triangles)
        p = np.array([[5.0, 5.0, 5.1]])
        assert np.array_equal(unsigned_distances(p, mesh), all_pairs_distances(p, mesh))

    def test_no_points(self, unit_sphere):
        got = unsigned_distances(np.zeros((0, 3)), unit_sphere)
        assert got.shape == (0,)
        assert np.array_equal(got, all_pairs_distances(np.zeros((0, 3)), unit_sphere))

    @settings(deadline=None, max_examples=25)
    @given(
        corners=arrays(
            np.float64, st.tuples(st.integers(1, 50), st.just(3), st.just(3)), elements=_soup_coords
        ),
        points=arrays(np.float64, st.tuples(st.integers(1, 40), st.just(3)), elements=_soup_coords),
        on_vertices=st.booleans(),
    )
    def test_random_triangle_soups(self, corners, points, on_vertices):
        # the kernel needs non-degenerate triangles
        a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
        corners = corners[np.linalg.norm(np.cross(b - a, c - a), axis=1) >= 1e-2]
        assume(len(corners) > 0)
        t = corners.shape[0]
        mesh = TriangleMesh(corners.reshape(-1, 3), np.arange(3 * t).reshape(t, 3))
        if on_vertices:
            points = np.concatenate([points, mesh.vertices])
        assert np.array_equal(unsigned_distances(points, mesh), all_pairs_distances(points, mesh))

    def test_memory_stays_within_the_pair_budget(self, unit_sphere, rng, monkeypatch):
        # near-surface points keep few pairs; points at the centre keep
        # every triangle, so their blocks fill the budget exactly
        near = unit_sphere.sample_surface(19_800, rng) + rng.normal(0.0, 0.02, size=(19_800, 3))
        centre = rng.uniform(-0.05, 0.05, size=(200, 3))
        pts = np.concatenate([near, centre])
        sizes = []
        kernel, bounds = sdf._point_triangle_sqdist, sdf._box_sqdist

        def counted_kernel(p, a, b, c):
            sizes.append(p.shape[0])
            return kernel(p, a, b, c)

        def counted_bounds(p, lo, hi):
            out = bounds(p, lo, hi)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(sdf, "_point_triangle_sqdist", counted_kernel)
        monkeypatch.setattr(sdf, "_box_sqdist", counted_bounds)
        tracemalloc.start()
        try:
            unsigned_distances(pts, unit_sphere)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(sizes) <= sdf._PAIR_BUDGET
        # each kernel temporary is one float64 column of at most the
        # budget; a few dozen of them are alive at once
        assert peak <= 64 * sdf._PAIR_BUDGET * 8


class TestSignedDistance:
    def test_exact_at_axis_vertex(self, unit_sphere):
        # the subdivided icosahedron owns a vertex exactly at (1,0,0)
        got = signed_distances([[1.5, 0.0, 0.0]], unit_sphere)
        assert got[0] == pytest.approx(0.5, abs=1e-12)

    def test_center_depth_equals_inradius(self, unit_sphere):
        # independent oracle: the inradius is the smallest distance from
        # the origin to any face plane
        a, b, c = unit_sphere.corners()
        n = np.cross(b - a, c - a)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        inradius = np.min(np.abs(np.einsum("ij,ij->i", n, a)))
        got = signed_distances([[0.0, 0.0, 0.0]], unit_sphere)
        assert got[0] == pytest.approx(-inradius, abs=1e-12)

    def test_box_matches_analytic_everywhere(self, unit_box, rng):
        pts = rng.uniform(-1.0, 1.0, size=(300, 3))
        got = signed_distances(pts, unit_box)
        assert np.allclose(got, box_sdf(pts), atol=1e-9)

    def test_signs_tight_against_box_faces(self, unit_box, rng):
        lateral = rng.uniform(-0.4, 0.4, size=(100, 2))
        for eps in (1e-6, 1e-9):
            outside = np.column_stack([np.full(100, 0.5 + eps), lateral])
            inside = np.column_stack([np.full(100, 0.5 - eps), lateral])
            assert not inside_mask(outside, unit_box).any()
            assert inside_mask(inside, unit_box).all()

    def test_inside_mask_matches_analytic_box(self, unit_box, rng):
        pts = rng.uniform(-0.8, 0.8, size=(1000, 3))
        got = inside_mask(pts, unit_box)
        expect = np.abs(pts).max(axis=1) < 0.5
        assert np.array_equal(got, expect)

    def test_parity_robust_on_vertex_aligned_rays(self, unit_sphere):
        # queries straight above vertices push rays through vertices and
        # edges, the degenerate cases the retry table exists for
        pts = unit_sphere.vertices[:40] * 1.5
        assert not inside_mask(pts, unit_sphere).any()
        pts = unit_sphere.vertices[:40] * 0.5
        assert inside_mask(pts, unit_sphere).all()


class TestSampling:
    def test_deterministic(self, unit_sphere):
        cfg = SamplingConfig(total_count=500, seed=11)
        a = sample_training_set(unit_sphere, cfg)
        b = sample_training_set(unit_sphere, cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.sdf, b.sdf)

    def test_seed_changes_samples(self, unit_sphere):
        a = sample_training_set(unit_sphere, SamplingConfig(total_count=500, seed=1))
        b = sample_training_set(unit_sphere, SamplingConfig(total_count=500, seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_counts_and_split(self, unit_sphere):
        cfg = SamplingConfig(total_count=1000, seed=3)
        s = sample_training_set(unit_sphere, cfg)
        assert len(s) == 1000
        # the uniform tail stays inside the sampling ball while the
        # near-surface share hugs the unit sphere
        radii = np.linalg.norm(s.points, axis=1)
        near = radii[:900]
        assert np.all(np.abs(near - 1.0) <= 0.02 * 6)
        assert np.all(radii[900:] <= GRID_RADIUS + 1e-12)

    def test_zero_count(self, unit_sphere):
        s = sample_training_set(unit_sphere, SamplingConfig(total_count=0))
        assert len(s) == 0

    def test_values_are_exact_signed_distances(self, unit_sphere):
        cfg = SamplingConfig(total_count=100, seed=9)
        s = sample_training_set(unit_sphere, cfg)
        assert np.array_equal(s.sdf, signed_distances(s.points, unit_sphere))

    def test_samples_validation(self):
        with pytest.raises(InvalidInputError):
            SdfSamples(np.zeros((3, 3)), np.zeros(2))
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="non-finite"):
                SdfSamples(np.zeros((2, 3)), np.array([0.0, bad]))


class TestGrid:
    def test_axis_spans_radius(self):
        ax = grid_axis(5)
        assert np.allclose(ax, [-1.1, -0.55, 0.0, 0.55, 1.1])

    def test_default_band_width(self):
        assert default_iso_epsilon(64) == pytest.approx(2.0 * 2.2 / 64)

    def test_grid_order_z_fastest(self):
        pts, _ = evaluate_on_grid(lambda p: np.zeros(p.shape[0]), 4)
        assert pts.shape == (64, 3)
        step = 2.0 * GRID_RADIUS / 3.0
        assert np.allclose(pts[1] - pts[0], [0.0, 0.0, step])
        assert np.allclose(pts[4] - pts[0], [0.0, step, 0.0])
        assert np.allclose(pts[16] - pts[0], [step, 0.0, 0.0])

    @pytest.mark.parametrize("res", [2, 7, 64])
    def test_points_equal_the_meshgrid_stack(self, res):
        pts, _ = evaluate_on_grid(lambda p: np.zeros(p.shape[0]), res)
        gx, gy, gz = np.meshgrid(*[grid_axis(res)] * 3, indexing="ij")
        assert np.array_equal(pts, np.stack([gx.ravel(), gy.ravel(), gz.ravel()], axis=1))

    @pytest.mark.parametrize("res", [2, 7, 64])
    def test_masked_rows_equal_the_whole_grid_rows(self, res):
        pts, vals = evaluate_on_grid(box_sdf, res)
        rng = np.random.default_rng(res)
        for live in (rng.random(res**3) < 0.3, np.ones(res**3, bool), np.zeros(res**3, bool)):
            masked_pts, masked_vals = evaluate_on_grid(box_sdf, res, live)
            assert masked_pts.shape == (live.sum(), 3)
            assert np.array_equal(masked_pts, pts[live])
            assert np.array_equal(masked_vals, vals[live])

    def test_grid_values_match_field(self, unit_box):
        pts, vals = evaluate_on_grid(lambda p: signed_distances(p, unit_box), 8)
        assert np.array_equal(vals, signed_distances(pts, unit_box))

    def test_numeric_gradient_of_linear_field(self):
        n = np.array([0.6, -0.8, 0.0])
        grad = numeric_gradient(lambda p: p @ n, np.random.default_rng(0).normal(size=(10, 3)))
        assert np.allclose(grad, n, atol=1e-9)


class TestExtraction:
    def test_plane_field_projects_exactly(self):
        n = np.array([1.0, 2.0, -1.5])
        n /= np.linalg.norm(n)
        offset = 0.2

        def field(p):
            return p @ n - offset

        pts = extract_surface_points(field, 16)
        assert pts.shape[0] > 0
        assert np.max(np.abs(field(pts))) <= 1e-9

    def test_sphere_extraction_accuracy(self):
        def field(p):
            return np.linalg.norm(p, axis=1) - 0.7

        pts = extract_surface_points(field, 24)
        radii = np.linalg.norm(pts, axis=1)
        assert np.max(np.abs(radii - 0.7)) <= 1e-6

    def test_surface_count_scales_with_area(self):
        # doubling the resolution narrows the band but quadruples the
        # in-band grid density, so candidate counts scale ~4x
        def field(p):
            return np.linalg.norm(p, axis=1) - 0.8

        n_lo = extract_surface_points(field, 24).shape[0]
        n_hi = extract_surface_points(field, 48).shape[0]
        assert 3.0 <= n_hi / n_lo <= 5.0

    def test_flat_zero_field_keeps_grid(self):
        pts = extract_surface_points(lambda p: np.zeros(p.shape[0]), 6)
        grid, _ = evaluate_on_grid(lambda p: np.zeros(p.shape[0]), 6)
        assert np.array_equal(pts, grid)

    def test_far_field_returns_empty(self):
        pts = extract_surface_points(lambda p: np.full(p.shape[0], 5.0), 6)
        assert pts.shape == (0, 3)

    def test_step_length_capped_for_bad_gradients(self):
        # tiny but nonzero gradient would fling points away without the
        # cap; everything must stay close to the evaluation grid
        eps = default_iso_epsilon(8)

        def field(p):
            return 1e-7 * p[:, 0] + 0.01

        pts = extract_surface_points(field, 8)
        assert pts.shape[0] > 0
        assert np.max(np.linalg.norm(pts, axis=1)) <= np.sqrt(3) * GRID_RADIUS + eps

    def test_gradient_fn_replaces_central_differences(self, monkeypatch):
        def field(p):
            return np.linalg.norm(p, axis=1) - 0.7

        central = extract_surface_points(field, 24)
        monkeypatch.setattr(
            "reconbench.sdf.numeric_gradient",
            lambda *a, **k: pytest.fail("central differences used"),
        )
        exact = extract_surface_points(
            field, 24, gradient_fn=lambda p: p / np.linalg.norm(p, axis=1)[:, None]
        )
        assert exact.shape == central.shape
        assert np.max(np.abs(np.linalg.norm(exact, axis=1) - 0.7)) <= 1e-12
        assert np.max(np.abs(exact - central)) <= 1e-6

    @pytest.mark.parametrize("analytic", [False, True])
    def test_live_mask_skips_points_outside_the_band(self, analytic):
        # the field sees the live points only, in grid order, and gives
        # them the whole grid's values; stepping the live band gives the
        # whole grid's surface, with either gradient
        grid, values = evaluate_on_grid(box_sdf, 16)
        live = np.abs(values) <= default_iso_epsilon(16) + 0.05
        assert 0 < live.sum() < 0.5 * len(grid)
        seen = []

        def field(p):
            seen.append(p.copy())
            return box_sdf(p)

        pts, live_values = evaluate_on_grid(field, 16, live)
        assert np.array_equal(seen[0], grid[live]) and np.array_equal(pts, grid[live])
        assert np.array_equal(live_values, values[live])

        gradient_fn = box_gradient if analytic else None
        iso_epsilon = default_iso_epsilon(16)
        band = np.abs(live_values) <= iso_epsilon
        cand = pts[band]
        grads = box_gradient(cand) if analytic else numeric_gradient(box_sdf, cand)
        stepped = newton_step(cand, live_values[band], grads, iso_epsilon)
        whole = extract_surface_points(box_sdf, 16, gradient_fn=gradient_fn)
        assert np.array_equal(stepped, whole)

    def test_mesh_field_end_to_end(self, unit_sphere):
        pts = extract_surface_points(lambda p: signed_distances(p, unit_sphere), 32)
        d = unsigned_distances(pts, unit_sphere)
        # one Newton step from a band two cells wide lands on the surface
        assert np.quantile(d, 0.99) <= 5e-3
