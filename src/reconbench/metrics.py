"""Point-cloud comparison metrics and voxel-grid utilities.

Distances are exact: the KD-tree returns the same neighbor as an
exhaustive scan (ties broken toward the lowest point index), and the
chamfer/hausdorff implementations agree with the quadratic brute-force
definition to floating-point rounding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import PointCloud, as_points

_LEAF_SIZE = 16
# above this many query*reference pairs the tree beats chunked brute force
_BRUTE_FORCE_PAIRS = 500_000_000
# small workloads use the cancellation-free difference form
_EXACT_BRUTE_PAIRS = 4_000_000
# pairs per brute-force block: small enough for the block's temporaries
# to stay in cache; the row floor keeps BLAS on its matrix-matrix path,
# whose rounding matches any larger block's
_BRUTE_CHUNK = 131_072
_BRUTE_MIN_ROWS = 64
# past _BRUTE_CHUNK / _BRUTE_MIN_ROWS reference points, the matrix-product
# form also splits the reference axis, into slices of this many points
# with the last one taking the remainder: in OpenBLAS, slices narrower
# than ~200 points, or not a multiple of 8 wide, round differently from
# the full-width product.  The difference form needs no slices, since its
# whole scan fits in _EXACT_BRUTE_PAIRS
_BRUTE_SLICE = _BRUTE_CHUNK // (2 * _BRUTE_MIN_ROWS)


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


def _brute_nearest_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min squared distance from each point of a to the set b.

    Small workloads subtract coordinates directly.  Larger ones expand
    |a-b|^2 = |a|^2 - 2 a.b + |b|^2 so the cross term is one matrix
    product per chunk; cancellation can leave tiny negatives, which
    clamp to zero.
    """
    m = b.shape[0]
    out = np.empty(a.shape[0])
    block = max(_BRUTE_MIN_ROWS, _BRUTE_CHUNK // m)
    exact = a.shape[0] * m <= _EXACT_BRUTE_PAIRS
    if not exact:
        bb = np.einsum("mk,mk->m", b, b)
        width = _BRUTE_SLICE if _BRUTE_MIN_ROWS * m > _BRUTE_CHUNK else m
        edges = [*range(0, m - width + 1, width), m]
    for s in range(0, a.shape[0], block):
        e = min(a.shape[0], s + block)
        chunk = a[s:e]
        if exact:
            diff = chunk[:, None, :] - b[None, :, :]
            sq = np.einsum("nmk,nmk->nm", diff, diff)
            out[s:e] = sq.min(axis=1)
        else:
            aa = np.einsum("nk,nk->n", chunk, chunk)[:, None]
            best = np.full(e - s, np.inf)
            for lo, hi in zip(edges, edges[1:]):
                sq = chunk @ b[lo:hi].T
                sq *= -2.0
                sq += bb[None, lo:hi]
                sq += aa
                np.minimum(best, sq.min(axis=1), out=best)
            out[s:e] = np.maximum(best, 0.0)
    return out


def nearest_distances(queries, reference) -> np.ndarray:
    """Distance from every query point to its nearest reference point."""
    a = _cloud_points(queries)
    b = _cloud_points(reference)
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise InvalidInputError("nearest distances need non-empty clouds")
    if a.shape[0] * b.shape[0] <= _BRUTE_FORCE_PAIRS:
        return np.sqrt(_brute_nearest_sq(a, b))
    _, dist = KdTree(b).nearest_many(a)
    return dist


def chamfer_hausdorff(cloud_a, cloud_b) -> tuple[float, float]:
    """Both symmetric metrics from one pair of nearest-neighbor passes."""
    d_ab = nearest_distances(cloud_a, cloud_b)
    d_ba = nearest_distances(cloud_b, cloud_a)
    d_c = 0.5 * (float(d_ab.mean()) + float(d_ba.mean()))
    d_h = max(float(d_ab.max()), float(d_ba.max()))
    return d_c, d_h


def chamfer(cloud_a, cloud_b) -> float:
    """Symmetric mean nearest-neighbor distance, in the clouds' units.

    Average of the two directed means, unsquared.
    """
    return chamfer_hausdorff(cloud_a, cloud_b)[0]


def hausdorff(cloud_a, cloud_b) -> float:
    """Symmetric Hausdorff distance: worst nearest-neighbor gap."""
    return chamfer_hausdorff(cloud_a, cloud_b)[1]


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


def voxel_filter(cloud: PointCloud, cfg: VoxelFilterConfig) -> PointCloud:
    """Drop points whose voxel holds fewer than the required count.

    Survivors keep their order and tags.  With min_points_per_voxel of
    1 the cloud passes through unchanged.
    """
    if len(cloud) == 0:
        return cloud
    keys = _voxel_keys(cloud.points, cfg.voxel_size)
    _, inverse, counts = np.unique(
        keys, axis=0, return_inverse=True, return_counts=True
    )
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
    _, first, inverse, counts = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    sums = np.zeros((counts.shape[0], 3))
    np.add.at(sums, inverse, cloud.points)
    centroids = sums / counts[:, None]
    order = np.argsort(first, kind="stable")
    return PointCloud(centroids[order], cloud.tags[first[order]])
