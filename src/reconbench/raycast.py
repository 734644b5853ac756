"""Ray/triangle intersection kernels.

Both queries run one vectorized Moller-Trumbore kernel.  When every ray
shares one origin (``first_hits``, a pinhole render) or one direction
(``crossing_parity``, the inside test), the rays and triangles are first
projected to 2D, through the shared origin or along the shared
direction, and a ray is tested only against the triangles whose padded
2D bounding box holds the ray's 2D position.  Triangles the projection
cannot bound (a vertex behind the origin, a near-zero or ill-conditioned
determinant) are tested against every ray, as is every triangle when
the rays share neither.  That brute pass is the reference: the binned
pass returns the same floats, because each pair is computed by the same
operations and the boxes are padded past the kernel's rounding error.

Rays carry unnormalized directions; the returned parameter t satisfies
``hit = origin + t * direction``.
"""
from __future__ import annotations

import numpy as np

from .errors import InvalidInputError
from .geometry import TriangleMesh

PARALLEL_EPS = 1e-12
BARY_EPS = 1e-9
T_EPS = 1e-9

# cap on rays*triangles handled per vectorized block
_CHUNK_PAIRS = 4_000_000

# relative rounding bound, generous: no kernel or projection quantity
# goes through more than a dozen roundings
_ROUNDING = 64 * np.finfo(np.float64).eps
# a triangle whose barycentric error bound reaches this is tested against
# every ray rather than bounded by a box
_MAX_BARY_ERROR = 1e-3


def _mt(origins, dirs, a, e1, e2):
    """Moller-Trumbore for rays (origins, dirs) against triangles
    (a, a + e1, a + e2), all broadcast-compatible (..., 3) arrays.

    Returns (t, u, v, nondegenerate) in the broadcast shape.  Entries
    with a near-zero determinant are flagged degenerate and get t = +inf.
    Each element takes the same operations whatever the broadcast, so a
    gathered pair gives the same floats as inside a rays x triangles block.
    """
    pvec = np.cross(dirs, e2)
    det = np.einsum("...k,...k->...", e1, pvec)
    ok = np.abs(det) > PARALLEL_EPS
    inv_det = np.where(ok, det, 1.0)
    inv_det = 1.0 / inv_det
    tvec = origins - a
    u = np.einsum("...k,...k->...", tvec, pvec) * inv_det
    qvec = np.cross(tvec, e1)
    v = np.einsum("...k,...k->...", dirs, qvec) * inv_det
    t = np.einsum("...k,...k->...", e2, qvec) * inv_det
    t = np.where(ok, t, np.inf)
    return t, u, v, ok


def _hit_t(t, u, v, ok):
    """t where the ray hits the triangle, +inf elsewhere."""
    inside = ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > T_EPS)
    return np.where(inside, t, np.inf)


def _contacts(t, u, v, ok):
    """(strict crossing, grazing contact) flags.

    A contact is grazing when the loose test passes but the strict one
    does not: within BARY_EPS of an edge, at near-zero t, or with a
    near-degenerate determinant (whose unscaled u, v, t can pass the
    loose test anywhere).
    """
    strict = (
        ok
        & (u > BARY_EPS)
        & (v > BARY_EPS)
        & (u + v < 1.0 - BARY_EPS)
        & (t > T_EPS)
    )
    loose = (
        (u > -BARY_EPS)
        & (v > -BARY_EPS)
        & (u + v < 1.0 + BARY_EPS)
        & (t > -T_EPS)
    )
    return strict, loose & ~strict


def _triangles(mesh: TriangleMesh):
    """Corner a and the edges b - a, c - a of every triangle."""
    a, b, c = mesh.corners()
    return a, b - a, c - a


def _ray_blocks(n_rays: int, n_tris: int):
    block = max(1, _CHUNK_PAIRS // max(1, n_tris))
    for start in range(0, n_rays, block):
        yield start, min(n_rays, start + block)


def _brute_first_hits(origins, dirs, a, e1, e2) -> np.ndarray:
    """First hit of every ray against every given triangle."""
    out = np.empty(origins.shape[0])
    for s, e in _ray_blocks(out.size, len(a)):
        t = _hit_t(*_mt(origins[s:e, None], dirs[s:e, None], a, e1, e2))
        out[s:e] = t.min(axis=1, initial=np.inf)
    return out


def _brute_crossings(origins, dirs, a, e1, e2) -> tuple[np.ndarray, np.ndarray]:
    """Strict crossing count and any-grazing flag of every ray against
    every given triangle."""
    n = origins.shape[0]
    count = np.empty(n, dtype=np.int64)
    suspect = np.empty(n, dtype=bool)
    for s, e in _ray_blocks(n, len(a)):
        strict, grazing = _contacts(*_mt(origins[s:e, None], dirs[s:e, None], a, e1, e2))
        count[s:e] = strict.sum(axis=1)
        suspect[s:e] = grazing.any(axis=1)
    return count, suspect


# ---------------------------------------------------------------------------
# screen-space binning


def _frame(axis: np.ndarray) -> np.ndarray:
    """Orthonormal basis as columns, the last one the unit vector axis."""
    helper = np.zeros(3)
    helper[np.argmin(np.abs(axis))] = 1.0
    side = np.cross(axis, helper)
    side /= np.linalg.norm(side)
    return np.stack([side, np.cross(axis, side), axis], axis=1)


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("...k,...k->...", x, x))


def _central_boxes(origins, dirs, a, e1, e2):
    """Rays and triangles projected through a shared ray origin onto a
    plane normal to the mean ray direction.

    Returns (ray_xy, corner_xy, pad, usable), or None when the origins
    differ or some ray does not point ahead of the plane.
    """
    origin = origins[0]
    if not np.all(origins == origin):
        return None
    axis = dirs.mean(axis=0)
    length = np.linalg.norm(axis)
    if not np.isfinite(length) or length == 0.0:
        return None
    basis = _frame(axis / length)
    local = dirs @ basis
    if not np.all(local[:, 2] > 0.0):
        return None
    ray_xy = local[:, :2] / local[:, 2:]
    if not np.all(np.isfinite(ray_xy)):
        return None

    rel = np.stack([a, a + e1, a + e2]) - origin  # (3, T, 3)
    depth = rel @ basis[:, 2]
    dist = _norms(rel)
    tvec = origin - a
    # bound on the kernel's barycentric error for any ray near the
    # triangle: |det| >= |d| |tvec . n| / |hit - origin|, with the hit
    # at most twice the farthest vertex away
    edges = _norms(e1) + _norms(e2)
    size = _norms(tvec) + edges
    height = np.abs(np.einsum("tk,tk->t", tvec, np.cross(e1, e2)))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bary = _ROUNDING * size**2 * 2.0 * dist.max(axis=0) / height
        # hits the kernel may accept lie within this 3D distance of the
        # triangle; a ball of that radius around a vertex at depth s and
        # distance r projects within 4 * slack * r / s^2 of its image
        slack = 4.0 * bary * edges
        usable = (bary < _MAX_BARY_ERROR) & (2.0 * slack < depth.min(axis=0))
        xy = (rel @ basis[:, :2]) / depth[..., None]
        pad = (4.0 * slack * dist / depth**2).max(axis=0) + _ROUNDING * (
            (dist / depth).max(axis=0) + (_norms(dirs) / local[:, 2]).max()
        )
    return ray_xy, xy, pad, usable


def _parallel_boxes(origins, dirs, a, e1, e2):
    """Ray origins and triangles projected along a shared ray direction.

    Returns (ray_xy, corner_xy, pad, usable), or None when the
    directions differ.
    """
    d = dirs[0]
    if not np.all(dirs == d):
        return None
    length = np.linalg.norm(d)
    if not np.isfinite(length) or length == 0.0:
        return None
    plane = _frame(d / length)[:, :2]
    ray_xy = origins @ plane
    if not np.all(np.isfinite(ray_xy)):
        return None

    corners = np.stack([a, a + e1, a + e2])  # (3, T, 3)
    # the kernel's own determinant for this direction: the loose test of
    # a triangle at or below PARALLEL_EPS can pass for any ray
    det = np.einsum("...k,...k->...", e1, np.cross(d, e2))
    everything = np.concatenate([origins, corners.reshape(-1, 3)])
    # one column at a time: an axis-0 reduction over an (n, 3) array
    # runs about ten times slower
    reach = np.linalg.norm(
        [everything[:, k].max() - everything[:, k].min() for k in range(3)]
    )
    edges = _norms(e1) + _norms(e2)
    # bound on the kernel's barycentric error (|tvec| <= reach) plus the
    # loose test's margin; contacts the kernel may report lie within
    # slack of the triangle in 3D, so within slack of it in projection
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        bary = _ROUNDING * (reach + edges) ** 2 * length / np.abs(det) + BARY_EPS
        slack = 4.0 * bary * edges
    usable = (np.abs(det) > PARALLEL_EPS) & (bary < _MAX_BARY_ERROR)
    pad = slack + _ROUNDING * _norms(everything).max()
    return ray_xy, corners @ plane, pad, usable


def _box_pairs(ray_xy, lo, hi, tris):
    """Blocks of (ray, triangle) index pairs, the ray's 2D position
    inside the triangle's box, for the given triangles.

    Rays are binned on a uniform grid of about one ray per cell, sorted
    by cell; each box then reads one contiguous run of rays per grid row
    it overlaps.  A block holds at most _CHUNK_PAIRS candidates (a single
    run may exceed it) before the exact box test.
    """
    n = ray_xy.shape[0]
    side = max(1, int(np.sqrt(n)))
    # one column at a time, as in _parallel_boxes
    low = np.array([ray_xy[:, 0].min(), ray_xy[:, 1].min()])
    high = np.array([ray_xy[:, 0].max(), ray_xy[:, 1].max()])
    span = high - low
    scale = side / np.where(span > 0.0, span, 1.0)

    def cells(xy):
        # monotone in xy, so a box's cell range covers its rays' cells
        return np.clip((xy - low) * scale, 0, side - 1).astype(np.int64)

    cell = cells(ray_xy)
    key = cell[:, 1] * side + cell[:, 0]
    order = np.argsort(key, kind="stable")
    start = np.zeros(side * side + 1, dtype=np.int64)
    np.cumsum(np.bincount(key, minlength=side * side), out=start[1:])

    tris = tris[np.all((hi[tris] >= low) & (lo[tris] <= high), axis=1)]
    first = cells(lo[tris])
    last = cells(hi[tris])
    rows = last[:, 1] - first[:, 1] + 1
    owner = np.repeat(np.arange(tris.size), rows)
    row = first[owner, 1] + np.arange(owner.size) - np.repeat(np.cumsum(rows) - rows, rows)
    run_start = start[row * side + first[owner, 0]]
    run_len = start[row * side + last[owner, 0] + 1] - run_start
    total = np.zeros(run_len.size + 1, dtype=np.int64)
    np.cumsum(run_len, out=total[1:])

    i = 0
    while i < run_len.size:
        j = max(i + 1, int(np.searchsorted(total, total[i] + _CHUNK_PAIRS, side="right")) - 1)
        length = run_len[i:j]
        pos = np.repeat(run_start[i:j] - total[i:j] + total[i], length) + np.arange(
            total[j] - total[i]
        )
        ray = order[pos]
        tri = tris[np.repeat(owner[i:j], length)]
        xy = ray_xy[ray]
        keep = np.all((xy >= lo[tri]) & (xy <= hi[tri]), axis=1)
        yield ray[keep], tri[keep]
        i = j


def _split(origins, dirs, a, e1, e2, project):
    """Mask of the triangles to test against every ray, and blocks of
    candidate (ray, triangle) pairs for the others.

    ``project`` maps the rays to 2D points and the triangle corners to
    (3, T, 2) points, with a pad per triangle that covers the kernel's
    and the projection's rounding, and a mask of the triangles it can
    bound at all; it returns None when it does not apply to the rays.
    """
    projected = project(origins, dirs, a, e1, e2)
    if projected is None:
        return np.ones(len(a), dtype=bool), ()
    ray_xy, corner_xy, pad, usable = projected
    lo = corner_xy.min(axis=0) - pad[:, None]
    hi = corner_xy.max(axis=0) + pad[:, None]
    every = ~(usable & np.isfinite(lo).all(axis=1) & np.isfinite(hi).all(axis=1))
    return every, _box_pairs(ray_xy, lo, hi, np.flatnonzero(~every))


def _rays(origins, dirs):
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if origins.shape != dirs.shape or origins.ndim != 2 or origins.shape[1] != 3:
        raise InvalidInputError("origins and dirs must both be (N, 3)")
    return origins, dirs


def first_hits(origins, dirs, mesh: TriangleMesh) -> np.ndarray:
    """Smallest positive hit parameter per ray, +inf when nothing is hit."""
    origins, dirs = _rays(origins, dirs)
    n = origins.shape[0]
    if len(mesh) == 0 or n == 0:
        return np.full(n, np.inf)
    a, e1, e2 = _triangles(mesh)
    every, pairs = _split(origins, dirs, a, e1, e2, _central_boxes)
    out = _brute_first_hits(origins, dirs, a[every], e1[every], e2[every])
    for ray, tri in pairs:
        t = _hit_t(*_mt(origins[ray], dirs[ray], a[tri], e1[tri], e2[tri]))
        np.minimum.at(out, ray, t)
    return out


def crossing_parity(origins, dirs, mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Parity of surface crossings per ray, plus a reliability flag.

    A ray is suspect when some triangle is hit within BARY_EPS of an
    edge, at near-zero t, or with a near-degenerate determinant; such
    grazing contacts can be double-counted or missed, so callers should
    retry suspect rays with a different direction.
    """
    origins, dirs = _rays(origins, dirs)
    n = origins.shape[0]
    if len(mesh) == 0 or n == 0:
        return np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)
    a, e1, e2 = _triangles(mesh)
    every, pairs = _split(origins, dirs, a, e1, e2, _parallel_boxes)
    count, suspect = _brute_crossings(origins, dirs, a[every], e1[every], e2[every])
    for ray, tri in pairs:
        strict, grazing = _contacts(*_mt(origins[ray], dirs[ray], a[tri], e1[tri], e2[tri]))
        count += np.bincount(ray[strict], minlength=n)
        suspect |= np.bincount(ray[grazing], minlength=n) > 0
    return count & 1, suspect
