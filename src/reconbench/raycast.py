"""Ray/triangle intersection kernels.

Both queries run one brute-force vectorized Moller-Trumbore kernel
over blocks of rays against every triangle.

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


def _mt_block(origins, dirs, a, b, c):
    """Moller-Trumbore for a block of rays against all triangles.

    Returns (t, u, v, nondegenerate) arrays of shape (n_rays, n_tris).
    Entries with a near-zero determinant are flagged degenerate and get
    t = +inf.
    """
    e1 = b - a
    e2 = c - a
    pvec = np.cross(dirs[:, None, :], e2[None, :, :])
    det = np.einsum("tk,ntk->nt", e1, pvec)
    ok = np.abs(det) > PARALLEL_EPS
    inv_det = np.where(ok, det, 1.0)
    inv_det = 1.0 / inv_det
    tvec = origins[:, None, :] - a[None, :, :]
    u = np.einsum("ntk,ntk->nt", tvec, pvec) * inv_det
    qvec = np.cross(tvec, e1[None, :, :])
    v = np.einsum("nk,ntk->nt", dirs, qvec) * inv_det
    t = np.einsum("tk,ntk->nt", e2, qvec) * inv_det
    t = np.where(ok, t, np.inf)
    return t, u, v, ok


def _ray_blocks(n_rays: int, n_tris: int):
    block = max(1, _CHUNK_PAIRS // max(1, n_tris))
    for start in range(0, n_rays, block):
        yield start, min(n_rays, start + block)


def first_hits(origins, dirs, mesh: TriangleMesh) -> np.ndarray:
    """Smallest positive hit parameter per ray, +inf when nothing is hit."""
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    if origins.shape != dirs.shape or origins.ndim != 2 or origins.shape[1] != 3:
        raise InvalidInputError("origins and dirs must both be (N, 3)")
    n = origins.shape[0]
    out = np.full(n, np.inf)
    if len(mesh) == 0 or n == 0:
        return out
    a, b, c = mesh.corners()
    for s, e in _ray_blocks(n, len(mesh)):
        t, u, v, ok = _mt_block(origins[s:e], dirs[s:e], a, b, c)
        inside = ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > T_EPS)
        t = np.where(inside, t, np.inf)
        out[s:e] = t.min(axis=1)
    return out


def crossing_parity(origins, dirs, mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Parity of surface crossings per ray, plus a reliability flag.

    A ray is suspect when some triangle is hit within BARY_EPS of an
    edge, at near-zero t, or with a near-degenerate determinant; such
    grazing contacts can be double-counted or missed, so callers should
    retry suspect rays with a different direction.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n = origins.shape[0]
    parity = np.zeros(n, dtype=np.int64)
    suspect = np.zeros(n, dtype=bool)
    if len(mesh) == 0 or n == 0:
        return parity, suspect
    a, b, c = mesh.corners()
    for s, e in _ray_blocks(n, len(mesh)):
        t, u, v, ok = _mt_block(origins[s:e], dirs[s:e], a, b, c)
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
        grazing = loose & ~strict
        parity[s:e] = strict.sum(axis=1) & 1
        suspect[s:e] = (grazing & ok).any(axis=1) | (~ok & loose).any(axis=1)
    return parity, suspect
