"""Signed distances to triangle meshes and SDF training-set generation.

The magnitude of the signed distance is the exact minimum distance to
any triangle, found for each block of points in three passes:

- bound: a point's squared distance to its nearest mesh vertex is an
  upper bound on its squared distance to the surface, since every
  vertex a triangle uses lies on that surface;
- prune: a (point, triangle) pair is kept only when the squared
  distance from the point to the triangle's axis-aligned box is within
  that bound, widened by a rounding allowance;
- exact: the closest-point kernel runs on the kept pairs alone, and
  each point takes the minimum over them.

A dropped triangle is farther away than the nearest vertex, so it
cannot hold the minimum: the result equals the kernel's minimum over
every triangle, bit for bit.

The sign comes from ray-crossing parity, which only assumes a closed
surface, not consistent winding: a point is inside when a ray from it
crosses the surface an odd number of times.  Rays that graze an edge
or vertex are retried along a different direction.

An "SDF field" in this package is any callable mapping an (N, 3) array
of points to an (N,) array of signed distances; a mesh's field is
``lambda p: signed_distances(p, mesh)``.  ``GRID_RADIUS`` is the
half-width of the decode grid's cube and the radius of the ball that
training samples and inference's free-space samples fill.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .geometry import TriangleMesh, as_points
from .raycast import crossing_parity

SdfField = Callable[[np.ndarray], np.ndarray]
# maps (N, 3) points to the field's (N, 3) gradient there
SdfGradient = Callable[[np.ndarray], np.ndarray]

GRID_RADIUS = 1.1
# the share of training samples drawn near the surface, and the sigma
# of the Gaussian noise that moves them off it
NEAR_SURFACE_FRACTION = 0.9
SURFACE_NOISE_SIGMA = 0.02
GRADIENT_STEP = 1e-4
GRADIENT_MIN_NORM = 1e-8

# (point, triangle) pairs per block of the bound pass: each (n, m)
# bound array stays cache-sized
_PAIR_BUDGET = 65_536
# widens the vertex bound, relative to the vertex distance and to the
# mesh's coordinate scale: the kernel rounds a distance by a few ulps
# of both, and a triangle that rounding puts nearest must not be dropped
_BOUND_SLACK = 1e-9
# grid points per field call in evaluate_on_grid; bounds the memory one
# call's points and outputs take
_GRID_CHUNK = 65536

# fixed retry directions for the parity test, longest axis first
_PARITY_DIRECTIONS = np.random.default_rng(74210423).normal(size=(16, 3))
_PARITY_DIRECTIONS /= np.linalg.norm(_PARITY_DIRECTIONS, axis=1, keepdims=True)


def _point_triangle_sqdist(p: np.ndarray, a, b, c) -> np.ndarray:
    """Squared distance from each point to the triangle on its row, shape (P,).

    ``p`` and the corners ``a``, ``b``, ``c`` are gathered (P, 3) arrays.
    Region-based closest-point computation (vertex, edge, or interior;
    Ericson 2004, section 5.1.5), fully vectorized.
    """
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("pk,pk->p", ab, ap)
    d2 = np.einsum("pk,pk->p", ac, ap)
    bp = p - b
    d3 = np.einsum("pk,pk->p", ab, bp)
    d4 = np.einsum("pk,pk->p", ac, bp)
    cp = p - c
    d5 = np.einsum("pk,pk->p", ab, cp)
    d6 = np.einsum("pk,pk->p", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = d1 / (d1 - d3)
        t_ac = d2 / (d2 - d6)
        t_bc = (d4 - d3) / ((d4 - d3) + (d5 - d6))
        denom = va + vb + vc
        v_face = vb / denom
        w_face = vc / denom

    in_a = (d1 <= 0) & (d2 <= 0)
    in_b = (d3 >= 0) & (d4 <= d3)
    in_c = (d6 >= 0) & (d5 <= d6)
    on_ab = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    on_ac = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    on_bc = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)

    v = np.where(in_a, 0.0, np.nan)
    w = np.where(in_a, 0.0, np.nan)
    v = np.where(~in_a & in_b, 1.0, v)
    w = np.where(~in_a & in_b, 0.0, w)
    picked = in_a | in_b
    v = np.where(~picked & in_c, 0.0, v)
    w = np.where(~picked & in_c, 1.0, w)
    picked |= in_c
    v = np.where(~picked & on_ab, t_ab, v)
    w = np.where(~picked & on_ab, 0.0, w)
    picked |= on_ab
    v = np.where(~picked & on_ac, 0.0, v)
    w = np.where(~picked & on_ac, t_ac, w)
    picked |= on_ac
    v = np.where(~picked & on_bc, 1.0 - t_bc, v)
    w = np.where(~picked & on_bc, t_bc, w)
    picked |= on_bc
    v = np.where(picked, v, v_face)
    w = np.where(picked, w, w_face)

    closest = a + v[:, None] * ab + w[:, None] * ac
    diff = p - closest
    return np.einsum("pk,pk->p", diff, diff)


def _box_sqdist(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Squared distance from each point to each box, shape (n, m).

    ``lo`` and ``hi`` are (3, m) box corners; a box with ``lo == hi`` is
    a single vertex.  Built one axis at a time in place, with no
    (n, m, 3) temporary.
    """
    total = np.zeros((p.shape[0], lo.shape[1]))
    gap = np.empty_like(total)
    for k in range(3):
        col = p[:, k, None]
        # the box's nearest coordinate, minus the point's
        np.maximum(lo[k], col, out=gap)
        np.minimum(gap, hi[k], out=gap)
        gap -= col
        gap *= gap
        total += gap
    return total


def unsigned_distances(points, mesh: TriangleMesh) -> np.ndarray:
    """Minimum distance from each point to the mesh surface."""
    pts = as_points(points)
    if len(mesh) == 0:
        raise InvalidInputError("mesh has no triangles")
    a, b, c = mesh.corners()
    # box corners and vertices as (3, m) and (3, V): one contiguous row
    # per axis; only vertices that some triangle uses lie on the surface
    lo = np.minimum(np.minimum(a, b), c).T.copy()
    hi = np.maximum(np.maximum(a, b), c).T.copy()
    verts = mesh.vertices[np.unique(mesh.triangles)].T.copy()
    margin = _BOUND_SLACK * np.abs(verts).max()
    n = pts.shape[0]
    out = np.empty(n)
    block = max(1, _PAIR_BUDGET // max(len(mesh), verts.shape[1]))
    for s in range(0, n, block):
        p = pts[s:s + block]
        upper = _box_sqdist(p, verts, verts).min(axis=1)
        reach = np.sqrt(upper) * (1.0 + _BOUND_SLACK) + margin
        rows, tris = np.nonzero(_box_sqdist(p, lo, hi) <= (reach * reach)[:, None])
        sq = _point_triangle_sqdist(p[rows], a[tris], b[tris], c[tris])
        # the triangles around a point's nearest vertex always pass, so
        # every row owns a run of the row-sorted pairs
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[s:s + block] = np.sqrt(np.minimum.reduceat(sq, starts))
    return out


def inside_mask(points, mesh: TriangleMesh) -> np.ndarray:
    """Parity-based inside test, retrying grazing rays.

    Directions come from a fixed table so results are reproducible; a
    point still unresolved after every retry keeps its last parity.
    """
    pts = as_points(points)
    n = pts.shape[0]
    parity = np.zeros(n, dtype=np.int64)
    pending = np.arange(n)
    for direction in _PARITY_DIRECTIONS:
        if pending.size == 0:
            break
        dirs = np.broadcast_to(direction, (pending.size, 3))
        par, suspect = crossing_parity(pts[pending], dirs, mesh)
        parity[pending] = par
        pending = pending[suspect]
    return parity == 1


def signed_distances(points, mesh: TriangleMesh) -> np.ndarray:
    """Signed distance for a batch of points; negative inside.

    A closed (watertight) mesh is assumed for the sign to be
    meaningful; winding order does not matter.
    """
    dist = unsigned_distances(points, mesh)
    sign = np.where(inside_mask(points, mesh), -1.0, 1.0)
    return sign * dist


# ---------------------------------------------------------------------------
# training-set generation


@dataclass(frozen=True)
class SamplingConfig:
    """Controls for drawing SDF training samples around one object."""

    total_count: int = 50_000
    seed: int = 0

    def __post_init__(self):
        if self.total_count < 0:
            raise InvalidInputError("total_count must be non-negative")


@dataclass(frozen=True)
class SdfSamples:
    """Batch of (point, signed distance) training records."""

    points: np.ndarray
    sdf: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        vals = np.asarray(self.sdf, dtype=np.float64)
        if vals.shape != (pts.shape[0],):
            raise InvalidInputError("sdf values must match points one to one")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "sdf", vals)

    def __len__(self) -> int:
        return self.points.shape[0]

    @classmethod
    def empty(cls) -> "SdfSamples":
        return cls(np.zeros((0, 3)), np.zeros(0))


def sample_training_set(mesh: TriangleMesh, cfg: SamplingConfig) -> SdfSamples:
    """Draw SDF supervision samples around a mesh in its canonical frame.

    A ``NEAR_SURFACE_FRACTION`` share of the budget is surface points
    perturbed by isotropic Gaussian noise of ``SURFACE_NOISE_SIGMA``;
    the rest is uniform in the ball of radius ``GRID_RADIUS``.  Every
    sample stores the exact signed distance.
    The output is deterministic given the config (the seed lives there).
    """
    if cfg.total_count == 0:
        return SdfSamples.empty()
    rng = np.random.default_rng(cfg.seed)
    n_near = int(round(cfg.total_count * NEAR_SURFACE_FRACTION))
    n_far = cfg.total_count - n_near
    parts = []
    if n_near:
        surface = mesh.sample_surface(n_near, rng)
        noise = rng.normal(0.0, SURFACE_NOISE_SIGMA, size=(n_near, 3))
        parts.append(surface + noise)
    if n_far:
        dirs = rng.normal(size=(n_far, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = GRID_RADIUS * np.cbrt(rng.random(n_far))
        parts.append(dirs * radii[:, None])
    pts = np.concatenate(parts) if parts else np.zeros((0, 3))
    return SdfSamples(pts, signed_distances(pts, mesh))


# ---------------------------------------------------------------------------
# iso-surface extraction


def _check_resolution(resolution: int) -> None:
    if resolution < 2:
        raise InvalidInputError(f"grid resolution must be at least 2, got {resolution}")


def grid_axis(resolution: int) -> np.ndarray:
    """Coordinates of the decode grid along each axis, spanning
    [-GRID_RADIUS, GRID_RADIUS]."""
    _check_resolution(resolution)
    return np.linspace(-GRID_RADIUS, GRID_RADIUS, resolution)


def default_iso_epsilon(resolution: int) -> float:
    """Twice the nominal cell size; a band wide enough to catch the
    surface between grid planes."""
    _check_resolution(resolution)
    return 2.0 * (2.0 * GRID_RADIUS / resolution)


def evaluate_on_grid(sdf_fn: SdfField, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a field on the decode grid; returns (points, values).

    Points are ordered lexicographically by (ix, iy, iz), which fixes
    the output order of everything built on top.
    """
    axis = grid_axis(resolution)
    pts = np.empty((resolution, resolution, resolution, 3))
    pts[..., 0] = axis[:, None, None]
    pts[..., 1] = axis[:, None]
    pts[..., 2] = axis
    pts = pts.reshape(-1, 3)
    vals = np.empty(pts.shape[0])
    for s in range(0, pts.shape[0], _GRID_CHUNK):
        e = min(pts.shape[0], s + _GRID_CHUNK)
        vals[s:e] = np.asarray(sdf_fn(pts[s:e]), dtype=np.float64)
    return pts, vals


def numeric_gradient(sdf_fn: SdfField, points: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the field at each point."""
    pts = as_points(points)
    grad = np.empty_like(pts)
    for axis in range(3):
        offset = np.zeros(3)
        offset[axis] = GRADIENT_STEP
        hi = np.asarray(sdf_fn(pts + offset), dtype=np.float64)
        lo = np.asarray(sdf_fn(pts - offset), dtype=np.float64)
        grad[:, axis] = (hi - lo) / (2.0 * GRADIENT_STEP)
    return grad


def extract_surface_points(
    sdf_fn: SdfField,
    resolution: int,
    gradient_fn: SdfGradient | None = None,
    screen: tuple[SdfField, float] | None = None,
) -> np.ndarray:
    """Grid points near the zero level set, refined one Newton step.

    Grid points with |sdf| <= iso_epsilon, ``default_iso_epsilon(resolution)``,
    are candidates; each moves by p <- p - sdf(p) * g / |g|^2 using as g
    the field's analytic gradient when ``gradient_fn`` is given, else
    central differences.
    The step is skipped where the gradient is numerically zero (flat
    fields stay put rather than shooting off), and its length is capped
    at iso_epsilon: a unit-gradient field never needs more, so longer
    steps only ever come from unreliable gradients.

    ``screen``, when given, is a cheaper field and a margin that bounds
    its distance from ``sdf_fn`` at every grid point.  The screen is
    evaluated on the whole grid, and ``sdf_fn`` is called once, on the
    points in grid order whose screen value lies within iso_epsilon plus
    the margin or is not finite.  A dropped point has |sdf| > iso_epsilon,
    so the result is the one the whole grid would give.
    """
    iso_epsilon = default_iso_epsilon(resolution)
    if screen is None:
        pts, vals = evaluate_on_grid(sdf_fn, resolution)
    else:
        screen_fn, margin = screen
        pts, rough = evaluate_on_grid(screen_fn, resolution)
        kept = ~np.isfinite(rough) | (np.abs(rough) <= iso_epsilon + margin)
        pts = pts[kept]
        vals = np.asarray(sdf_fn(pts), dtype=np.float64)
    keep = np.abs(vals) <= iso_epsilon
    cand = pts[keep]
    if cand.shape[0] == 0:
        return np.zeros((0, 3))
    values = vals[keep]
    if gradient_fn is None:
        grad = numeric_gradient(sdf_fn, cand)
    else:
        grad = np.asarray(gradient_fn(cand), dtype=np.float64)
    norm_sq = np.einsum("nk,nk->n", grad, grad)
    movable = np.sqrt(norm_sq) >= GRADIENT_MIN_NORM
    scale = np.where(movable, values / np.where(movable, norm_sq, 1.0), 0.0)
    step = -scale[:, None] * grad
    length = np.sqrt(np.einsum("nk,nk->n", step, step))
    over = length > iso_epsilon
    if np.any(over):
        step[over] *= (iso_epsilon / length[over])[:, None]
    return cand + step
