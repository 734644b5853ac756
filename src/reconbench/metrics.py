"""Point-cloud comparison metrics and voxel-grid utilities.

Distances are exact: the KD-tree returns the same neighbor as an
exhaustive scan (ties broken toward the lowest point index), and
nearest distances, so chamfer and hausdorff, equal the quadratic
difference-form scan (the least ``|a - b|^2`` summed over coordinates)
bit for bit at every size.  One kernel serves every size: a float32
BLAS product, in a frame centred on the two clouds, picks each query's
nearest point, the float64 difference form gives its value, and
queries whose two least products lie within a proven rounding margin
settle among their candidates (see ``_brute_nearest_sq``).  The
KD-tree is the exact reference that kernel is checked against; it is
slower than the kernel at every size measured, up to 600 million
pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import PointCloud, as_points

_LEAF_SIZE = 16
# pairs per brute-force block: small enough for the block's temporaries
# to stay in cache
_BRUTE_CHUNK = 131_072
# widest reference slice; keeps a block at 16 query rows or more, so the
# per-slice (4, width) operand stays a quarter of the block's products
_BRUTE_WIDTH = _BRUTE_CHUNK // 16


def _cloud_points(cloud) -> np.ndarray:
    if isinstance(cloud, PointCloud):
        return cloud.points
    return as_points(cloud)


class KdTree:
    """Static KD-tree over 3D points.

    Nodes split at the median along the widest axis of their extent.
    Queries are exact; equal distances resolve to the lowest index so
    results are reproducible and match a linear scan.
    """

    def __init__(self, points):
        pts = _cloud_points(points)
        if pts.shape[0] == 0:
            raise InvalidInputError("cannot build a KD-tree over no points")
        self.points = pts
        self.order = np.arange(pts.shape[0])
        self.node_axis: list[int] = []
        self.node_split: list[float] = []
        self.node_children: list[tuple[int, int]] = []
        self.node_range: list[tuple[int, int]] = []
        self._build(0, pts.shape[0])

    def __len__(self) -> int:
        return self.points.shape[0]

    def _build(self, start: int, end: int) -> int:
        idx = len(self.node_axis)
        self.node_axis.append(-1)
        self.node_split.append(0.0)
        self.node_children.append((-1, -1))
        self.node_range.append((start, end))
        if end - start > _LEAF_SIZE:
            sub = self.order[start:end]
            coords = self.points[sub]
            axis = int(np.argmax(coords.max(axis=0) - coords.min(axis=0)))
            local = np.argsort(coords[:, axis], kind="stable")
            self.order[start:end] = sub[local]
            mid = start + (end - start) // 2
            split = float(self.points[self.order[mid], axis])
            left = self._build(start, mid)
            right = self._build(mid, end)
            self.node_axis[idx] = axis
            self.node_split[idx] = split
            self.node_children[idx] = (left, right)
        return idx

    def nearest(self, query) -> tuple[int, float]:
        """Index and distance of the closest stored point."""
        q = np.asarray(query, dtype=np.float64)
        if q.shape != (3,):
            raise InvalidInputError("query must be a single 3D point")
        best_sq = np.inf
        best_idx = -1
        stack = [(0, 0.0)]
        while stack:
            node, gap_sq = stack.pop()
            if gap_sq > best_sq:
                continue
            left, right = self.node_children[node]
            if left < 0:
                s, e = self.node_range[node]
                cand = self.order[s:e]
                diff = self.points[cand] - q
                sq = np.einsum("nk,nk->n", diff, diff)
                d = float(sq.min())
                if d < best_sq:
                    best_sq = d
                    best_idx = int(cand[sq == d].min())
                elif d == best_sq and best_idx >= 0:
                    # ties go to the lowest index, across leaves too
                    i = int(cand[sq == d].min())
                    if i < best_idx:
                        best_idx = i
                continue
            axis = self.node_axis[node]
            diff = q[axis] - self.node_split[node]
            near, far = (left, right) if diff < 0 else (right, left)
            # equality must still visit the far side: an equally distant
            # point with a lower index may live there
            stack.append((far, diff * diff))
            stack.append((near, gap_sq))
        return best_idx, float(np.sqrt(best_sq))

    def nearest_many(self, queries) -> tuple[np.ndarray, np.ndarray]:
        qs = _cloud_points(queries)
        idx = np.empty(qs.shape[0], dtype=np.int64)
        dist = np.empty(qs.shape[0])
        for k in range(qs.shape[0]):
            idx[k], dist[k] = self.nearest(qs[k])
        return idx, dist


def _frame(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Centre of the two clouds' joint bounding box, and the exponent
    ``k`` with ``|x - centre| <= 2**k`` for every coordinate of either."""
    # one column at a time: an axis-0 reduction over an (n, 3) array
    # runs about ten times slower
    lo = np.array([min(a[:, d].min(), b[:, d].min()) for d in range(3)])
    hi = np.array([max(a[:, d].max(), b[:, d].max()) for d in range(3)])
    # halves first: the sum and difference of the corners may overflow
    half = float(np.max(hi / 2 - lo / 2))
    return lo / 2 + hi / 2, int(np.frexp(half)[1]) if half > 0 else 0


def _augmented_reference(
    b: np.ndarray, lo: int, hi: int, centre: np.ndarray, k: int
) -> np.ndarray:
    """The float32 (4, hi - lo) operand [-2 b^T; |b|^2] of one reference
    slice, in the frame ``(x - centre) * 2**-k``."""
    part = np.ldexp(b[lo:hi] - centre, -k).astype(np.float32)
    op = np.empty((4, hi - lo), dtype=np.float32)
    np.multiply(part.T, -2.0, out=op[:3])
    np.einsum("mk,mk->m", part, part, out=op[3])
    return op


def _brute_nearest_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min squared distance from each point of a to the set b.

    The result equals the difference-form scan,
    ``min_j einsum("k,k->", a_i - b_j, a_i - b_j)``, bit for bit.  A
    float32 product only picks the pair; the float64 difference form
    gives its value:

    1. Both clouds move to the frame ``A = (a - c) * 2**-k``, with ``c``
       the centre of their joint bounding box and ``2**k`` the first
       power of two above its half-width (``_frame``), so every
       coordinate lies in [-1, 1] and no float32 operand overflows.
       ``b`` moves one reference slice of at most ``_BRUTE_WIDTH``
       points at a time, which keeps the memory flat.
    2. Per block of at most ``_BRUTE_CHUNK`` pairs, one float32 product
       ``[A, 1] @ [-2 B^T; |B|^2]`` gives ``S_ij = |B_j|^2 - 2 A_i.B_j``,
       which is ``|A_i - B_j|^2 - |A_i|^2``.  The first slice sets each
       query's least ``S`` (``best``), its index (``arg``) and its
       least ``S`` over the other indices (``second``); later slices
       merge theirs in.  Either way ``best`` is the least ``S`` over
       all of ``b`` and ``second`` the least over every index but
       ``arg``.
    3. The value is the difference form on the chosen pair, taken on
       the original float64 coordinates.
    4. A query is a near tie when ``second <= limit_i = best +
       tol_i``, with ``tol_i = 64 eps32 (|A_i| + max_j |B_j|)^2 + 64 t``
       and ``t = 2**-149 + 2**(-1074 - 2k)`` the underflow allowance.
       Near ties settle in ``_settle_near_ties``.

    The margin: let ``u = eps32 / 2``, ``B = |A_i| + max_j |B_j|`` and
    ``D_ij = |A_i - B_j|^2 = 4**-k |a_i - b_j|^2``, with ``T_ij = D_ij -
    |A_i|^2`` the exact value that ``S_ij`` approximates.  The frame
    rounds each coordinate twice (float64 subtraction, float32
    conversion; the power-of-two scaling is exact), and the resulting
    coordinate errors move ``S`` by at most ``(2 + 4u) u B^2``.  The
    product is a 4-term dot product whose terms sum to at most
    ``2 |A||B| + |B|^2 <= B^2`` in absolute value, plus the rounding of
    ``|B|^2``: at most ``(4 + 3) u B^2`` more, so any float32 product
    of this form, whatever its blocking, has ``|S_ij - T_ij| <= e1 =
    9.1 u B^2``.  The difference form rounds each coordinate
    difference, its square and the 3-term sum in float64, relative to
    the distance itself, so it is off ``4**k D_ij`` by at most ``e2 =
    5 u64 B^2`` in the frame.  Let ``j*`` minimise the difference form.
    For any ``j`` and any two such products ``S`` and ``S'``, chaining
    the bounds through the exact ``T`` gives ``S'_ij* <= S_ij + 2 (e1 +
    e2) < S_ij + 10 eps32 B^2``; the factor 64 leaves room for the
    rounding of the threshold itself.  Results below the normal range
    err by at most ``2**-150`` absolute per float32 operation and
    ``2**-1075`` per float64 one, which is ``2**(-1075 - 2k)`` once a
    squared distance is taken to the frame: the chain picks up at most
    58 of the first and 6 of the second, which ``64 t`` covers.  So
    ``S'_ij* <= limit_i`` for every product ``S'`` (take ``j = arg``).

    Why the result is exact:

    - A query that is no near tie has ``S_ij > limit_i`` for every
      ``j != arg``, so ``j* = arg`` (or ties it in the difference
      form), and step 3 gives its value.
    - A near tie's candidates under the settle's own product ``S'``,
      ``C = {j : S'_ij <= limit_i}``, hold ``j*``.  The settle adds to
      a set every index it evaluates; per slice it adds the two least
      ``S'`` and, unless the third least exceeds ``limit_i``, every
      further index within ``limit_i``.  So the set holds each slice's
      part of ``C``, and with it ``j*``.  Each evaluated index is a
      point of ``b``, so its difference form is at least the one at
      ``j*``: the least over the set is the difference-form minimum.
    """
    n, m = a.shape[0], b.shape[0]
    width = min(m, _BRUTE_WIDTH)
    rows = max(1, _BRUTE_CHUNK // width)
    slices = [(lo, min(m, lo + width)) for lo in range(0, m, width)]
    centre, k = _frame(a, b)
    a1 = np.empty((n, 4), dtype=np.float32)
    a1[:, :3] = np.ldexp(a - centre, -k)
    a1[:, 3] = 1.0
    best = np.empty(n, dtype=np.float32)
    second = np.empty(n, dtype=np.float32)
    arg = np.empty(n, dtype=np.int64)
    bb_max = 0.0
    for lo, hi in slices:
        op = _augmented_reference(b, lo, hi, centre, k)
        bb_max = max(bb_max, float(op[3].max()))
        # flat offset of each block row's start
        starts = np.arange(rows) * (hi - lo)
        for s in range(0, n, rows):
            e = min(n, s + rows)
            prod = a1[s:e] @ op
            flat = prod.reshape(-1)
            start = starts[: e - s]
            if lo == 0:
                pos = prod.argmin(axis=1, out=arg[s:e]) + start
                flat.take(pos, out=best[s:e])
                flat[pos] = np.inf
                pos = prod.argmin(axis=1)
                pos += start
                flat.take(pos, out=second[s:e])
                continue
            j = prod.argmin(axis=1)
            pos = j + start
            least = flat[pos]
            flat[pos] = np.inf
            pos = prod.argmin(axis=1)
            pos += start
            runner_up = flat[pos]
            prev = best[s:e]
            won = least < prev
            second[s:e] = np.where(
                won, np.minimum(prev, runner_up), np.minimum(second[s:e], least)
            )
            best[s:e] = np.where(won, least, prev)
            arg[s:e] = np.where(won, j + lo, arg[s:e])
    diff = a - b[arg]
    out = np.einsum("pk,pk->p", diff, diff)

    coords = a1[:, :3].astype(np.float64)
    norm_a = np.sqrt(np.einsum("nk,nk->n", coords, coords))
    tiny = 64.0 * (2.0**-149 + np.ldexp(1.0, -1074 - 2 * k))
    eps = float(np.finfo(np.float32).eps)
    limit = best + (64.0 * eps * (norm_a + np.sqrt(bb_max)) ** 2 + tiny)
    near = np.flatnonzero(second <= limit)
    if near.size:
        out[near] = _settle_near_ties(
            a[near], a1[near], limit[near], b, slices, centre, k, rows
        )
    return out


def _settle_near_ties(
    a: np.ndarray, a1: np.ndarray, limit: np.ndarray, b: np.ndarray,
    slices: list, centre: np.ndarray, k: int, rows: int,
) -> np.ndarray:
    """Least difference form from each near-tie query of ``a`` (with
    frame rows ``a1``) over a set of ``b``'s indices that holds every
    candidate ``S_ij <= limit_i`` of one fresh product (see
    ``_brute_nearest_sq``): per slice its two least ``S``, and where
    the third least is within the limit too, every further candidate."""
    n = a.shape[0]
    pick = np.empty((n, 2 * len(slices)), dtype=np.int64)
    more_q, more_j = [], []
    for t, (lo, hi) in enumerate(slices):
        op = _augmented_reference(b, lo, hi, centre, k)
        starts = np.arange(rows) * (hi - lo)
        for s in range(0, n, rows):
            e = min(n, s + rows)
            prod = a1[s:e] @ op
            flat = prod.reshape(-1)
            start = starts[: e - s]
            for c in (2 * t, 2 * t + 1):
                pos = prod.argmin(axis=1)
                pick[s:e, c] = pos + lo
                pos += start
                flat[pos] = np.inf
            pos = prod.argmin(axis=1)
            pos += start
            many = np.flatnonzero(flat[pos] <= limit[s:e])
            if many.size:
                # three or more candidates in this slice: the rest of them
                ii, jj = np.nonzero(prod[many] <= limit[s + many, None])
                more_q.append(s + many[ii])
                more_j.append(lo + jj)
    diff = np.repeat(a, pick.shape[1], axis=0) - b[pick.reshape(-1)]
    value = np.einsum("pk,pk->p", diff, diff).reshape(pick.shape).min(axis=1)
    if more_q:
        q = np.concatenate(more_q)
        diff = a[q] - b[np.concatenate(more_j)]
        np.minimum.at(value, q, np.einsum("pk,pk->p", diff, diff))
    return value


def nearest_distances(queries, reference) -> np.ndarray:
    """Distance from every query point to its nearest reference point."""
    a = _cloud_points(queries)
    b = _cloud_points(reference)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidInputError("nearest distances need non-empty clouds")
    return np.sqrt(_brute_nearest_sq(a, b))


def chamfer_hausdorff(cloud_a, cloud_b) -> tuple[float, float]:
    """``(d_c, d_h)``, both symmetric, from one pair of nearest-neighbor passes.

    Chamfer ``d_c`` averages the two directed mean nearest-neighbor
    distances, unsquared, in the clouds' units; Hausdorff ``d_h`` is the
    worst nearest-neighbor gap in either direction.
    """
    d_ab = nearest_distances(cloud_a, cloud_b)
    d_ba = nearest_distances(cloud_b, cloud_a)
    d_c = 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
    d_h = max(float(d_ab.max()), float(d_ba.max()))
    return d_c, d_h


# ---------------------------------------------------------------------------
# voxel utilities


@dataclass(frozen=True)
class VoxelFilterConfig:
    """Occupancy threshold for sparse-point removal."""

    voxel_size: float
    min_points_per_voxel: int

    def __post_init__(self):
        if self.voxel_size <= 0:
            raise InvalidInputError("voxel_size must be positive")
        if self.min_points_per_voxel < 1:
            raise InvalidInputError("min_points_per_voxel must be at least 1")


def _voxel_keys(points: np.ndarray, voxel_size: float) -> np.ndarray:
    # grid anchored at the origin; floor handles negative coordinates
    return np.floor(points / voxel_size).astype(np.int64)


def _voxel_groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(first, inverse, counts)`` of the distinct rows of ``keys``.

    Equal to ``np.unique(keys, axis=0, return_index=True,
    return_inverse=True, return_counts=True)[1:]``: groups come in
    lexicographic row order and ``first`` is each group's lowest index,
    but one stable lexsort replaces the structured-dtype row sort.
    """
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    ordered = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    inverse = np.empty(len(keys), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    first = order[starts]
    counts = np.diff(np.append(np.flatnonzero(starts), len(keys)))
    return first, inverse, counts


def voxel_filter(cloud: PointCloud, cfg: VoxelFilterConfig) -> PointCloud:
    """Drop points whose voxel holds fewer than the required count.

    Survivors keep their order and tags.  With min_points_per_voxel of
    1 the cloud passes through unchanged.
    """
    if len(cloud) == 0:
        return cloud
    keys = _voxel_keys(cloud.points, cfg.voxel_size)
    _, inverse, counts = _voxel_groups(keys)
    keep = counts[inverse] >= cfg.min_points_per_voxel
    return PointCloud(cloud.points[keep], cloud.tags[keep])


def voxel_downsample(cloud: PointCloud, voxel_size: float) -> PointCloud:
    """Replace each occupied voxel's points with their centroid.

    Output order follows the first appearance of each voxel, and each
    centroid inherits the tag of the first point that fell in its
    voxel.  Re-binning the result at the same size puts one point in
    each occupied voxel, which makes the operation idempotent.
    """
    if voxel_size <= 0:
        raise InvalidInputError("voxel_size must be positive")
    if len(cloud) == 0:
        return cloud
    keys = _voxel_keys(cloud.points, voxel_size)
    first, inverse, counts = _voxel_groups(keys)
    # bincount adds each voxel's points in input order, as np.add.at does
    sums = np.stack([np.bincount(inverse, weights=cloud.points[:, k], minlength=counts.shape[0])
                     for k in range(3)], axis=1)
    centroids = sums / counts[:, None]
    order = np.argsort(first, kind="stable")
    return PointCloud(centroids[order], cloud.tags[first[order]])
