"""Geometric primitives shared by every other module.

Conventions, fixed once for the whole package:

* Points are float64 arrays of shape (3,), batches are (N, 3).
* Meshes are vertex/triangle index pairs, triangles wound arbitrarily
  (nothing downstream relies on consistent winding).
* RigidTransform is a camera pose: it maps camera coordinates to world
  coordinates as ``x_world = R @ x_cam + t``.  Nothing else moves
  geometry rigidly, so the package has no transform algebra.
* Cameras use the pinhole model with x right, y down, z forward in the
  camera frame.  Pixel (u, v) covers [u, u+1) x [v, v+1); its center has
  image coordinates (u + 0.5, v + 0.5).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidInputError

TAG_OBSERVED = "observed"
TAG_GENERATED = "generated"
_VALID_TAGS = (TAG_OBSERVED, TAG_GENERATED)

# largest orthonormality and determinant error a camera's rotation may carry
ORTHONORMAL_TOL = 1e-6
DEGENERATE_AREA = 1e-12
UP_FALLBACK_TOL = 1e-6


def as_points(a, name: str = "points") -> np.ndarray:
    """Coerce to a finite (N, 3) float64 array, raising on bad input."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim == 1 and arr.shape == (3,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise InvalidInputError(f"{name} must have shape (N, 3), got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise InvalidInputError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class PointCloud:
    """Unordered 3D points, each labelled with its provenance tag.

    Tags distinguish points that were measured (back-projected from an
    observed depth image) from points a completion step synthesized.
    """

    points: np.ndarray
    tags: np.ndarray

    def __post_init__(self):
        pts = as_points(self.points)
        tags = np.asarray(self.tags)
        if tags.shape != (pts.shape[0],):
            raise InvalidInputError(
                f"tags shape {tags.shape} does not match {pts.shape[0]} points"
            )
        bad = ~np.isin(tags, _VALID_TAGS)
        if bad.any():
            raise InvalidInputError(f"unknown source tag {tags[bad][0]!r}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "tags", tags.astype("U9"))

    @classmethod
    def from_points(cls, points, tag: str = TAG_OBSERVED) -> "PointCloud":
        pts = as_points(points)
        return cls(pts, np.full(pts.shape[0], tag, dtype="U9"))

    @classmethod
    def empty(cls) -> "PointCloud":
        return cls(np.zeros((0, 3)), np.zeros(0, dtype="U9"))

    def __len__(self) -> int:
        return self.points.shape[0]

    def count(self, tag: str) -> int:
        return int(np.sum(self.tags == tag))


def merge_clouds(clouds: Iterable[PointCloud]) -> PointCloud:
    clouds = list(clouds)
    if not clouds:
        return PointCloud.empty()
    pts = np.concatenate([c.points for c in clouds], axis=0)
    tags = np.concatenate([c.tags for c in clouds], axis=0)
    return PointCloud(pts, tags)


@dataclass(frozen=True)
class TriangleMesh:
    """Indexed triangle soup; watertightness is a property, not a promise."""

    vertices: np.ndarray
    triangles: np.ndarray

    def __post_init__(self):
        verts = as_points(self.vertices, "vertices")
        tris = np.asarray(self.triangles, dtype=np.int64)
        if tris.size == 0:
            tris = tris.reshape(0, 3)
        if tris.ndim != 2 or tris.shape[1] != 3:
            raise InvalidInputError(f"triangles must have shape (T, 3), got {tris.shape}")
        if tris.size and (tris.min() < 0 or tris.max() >= verts.shape[0]):
            raise InvalidInputError("triangle indices out of range")
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "triangles", tris)

    def __len__(self) -> int:
        return self.triangles.shape[0]

    def corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-triangle vertex arrays (A, B, C), each (T, 3)."""
        t = self.triangles
        v = self.vertices
        return v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]

    def triangle_areas(self) -> np.ndarray:
        a, b, c = self.corners()
        return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)

    def validate(self) -> None:
        """Raise if any triangle is degenerate (area <= 1e-12)."""
        if len(self) and self.triangle_areas().min() <= DEGENERATE_AREA:
            raise InvalidInputError("mesh contains a degenerate triangle")

    def is_watertight(self) -> bool:
        """True when every undirected edge borders exactly two triangles.

        Holds independently per connected component, so a union of
        disjoint closed surfaces also counts as watertight.
        """
        if len(self) == 0:
            return False
        t = self.triangles
        edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]], axis=0)
        edges = np.sort(edges, axis=1)
        _, counts = np.unique(edges, axis=0, return_counts=True)
        return bool(np.all(counts == 2))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.vertices.shape[0] == 0:
            raise InvalidInputError("mesh has no vertices")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def bounding_sphere(self) -> tuple[np.ndarray, float]:
        """Center of the bounding box and the max vertex distance from it."""
        lo, hi = self.bounding_box()
        center = 0.5 * (lo + hi)
        radius = float(np.linalg.norm(self.vertices - center, axis=1).max())
        return center, radius

    def sample_surface(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Area-weighted uniform surface samples, shape (count, 3)."""
        if count < 0:
            raise InvalidInputError("count must be non-negative")
        if count == 0:
            return np.zeros((0, 3))
        areas = self.triangle_areas()
        total = areas.sum()
        if total <= 0.0:
            raise InvalidInputError("mesh has no area to sample")
        idx = rng.choice(len(self), size=count, p=areas / total)
        a, b, c = self.corners()
        r1 = np.sqrt(rng.random(count))
        r2 = rng.random(count)
        w0 = 1.0 - r1
        w1 = r1 * (1.0 - r2)
        w2 = r1 * r2
        return (
            w0[:, None] * a[idx] + w1[:, None] * b[idx] + w2[:, None] * c[idx]
        )


@dataclass(frozen=True)
class RigidTransform:
    """Rotation plus translation; maps local coordinates into world."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64)
        if r.shape != (3, 3) or t.shape != (3,):
            raise InvalidInputError("rotation must be (3, 3) and translation (3,)")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(t))):
            raise InvalidInputError("transform contains non-finite values")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def validate(self) -> None:
        r = self.rotation
        if np.abs(r.T @ r - np.eye(3)).max() > ORTHONORMAL_TOL:
            raise InvalidInputError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
            raise InvalidInputError("rotation determinant is not +1")


def normalize_to_unit_sphere(
    mesh: TriangleMesh,
) -> tuple[TriangleMesh, float, np.ndarray]:
    """Center a mesh on its bounding-box center and scale it to unit size.

    Returns ``(normalized, scale, center)`` with
    ``normalized.vertices == (vertices - center) * scale`` and the max
    vertex norm of the result exactly 1 (to rounding).  The original is
    recovered as ``normalized.vertices / scale + center``.
    """
    if mesh.vertices.shape[0] == 0:
        raise InvalidInputError("cannot normalize an empty mesh")
    lo, hi = mesh.bounding_box()
    center = 0.5 * (lo + hi)
    shifted = mesh.vertices - center
    max_norm = float(np.linalg.norm(shifted, axis=1).max())
    if max_norm <= 0.0:
        raise InvalidInputError("mesh collapses to a single point")
    scale = 1.0 / max_norm
    return TriangleMesh(shifted * scale, mesh.triangles), scale, center


def look_at_rotation(eye, target) -> np.ndarray:
    """Camera-to-world rotation for a camera at eye looking at target.

    The camera z axis points at the target and its x axis is
    perpendicular to world up (0,0,1).  When the view direction lies
    within 1e-6 (Euclidean) of +-(0,0,1), (0,1,0) stands in for up so
    the frame stays well defined.
    """
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm == 0.0:
        raise InvalidInputError("eye and target coincide")
    forward = forward / norm
    up = np.array([0.0, 0.0, 1.0])
    if min(np.linalg.norm(forward - up), np.linalg.norm(forward + up)) < UP_FALLBACK_TOL:
        up = np.array([0.0, 1.0, 0.0])
    right = np.cross(forward, up)
    right = right / np.linalg.norm(right)
    down = np.cross(forward, right)
    return np.column_stack([right, down, forward])


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus a camera-to-world pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: RigidTransform

    def __post_init__(self):
        if not np.all(np.isfinite([self.fx, self.fy, self.cx, self.cy])):
            raise InvalidInputError("intrinsics must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidInputError("focal lengths must be positive")
        if self.width <= 0 or self.height <= 0:
            raise InvalidInputError("image dimensions must be positive")
        self.pose.validate()

    @property
    def position(self) -> np.ndarray:
        return self.translation

    @property
    def translation(self) -> np.ndarray:
        return self.pose.translation

    def pixel_directions(self) -> np.ndarray:
        """World-frame ray directions through every pixel center.

        Shape (H, W, 3).  Directions are unnormalized with unit z in the
        camera frame, so a ray parameter of t corresponds to depth t.
        """
        u = (np.arange(self.width) + 0.5 - self.cx) / self.fx
        v = (np.arange(self.height) + 0.5 - self.cy) / self.fy
        uu, vv = np.meshgrid(u, v)
        d_cam = np.stack([uu, vv, np.ones_like(uu)], axis=-1)
        return d_cam @ self.pose.rotation.T


def camera_looking_at(
    eye,
    target,
    width: int = 64,
    height: int = 64,
    vertical_fov_deg: float = 60.0,
) -> CameraModel:
    """Square-pixel camera at ``eye`` aimed at ``target``.

    The focal length follows from the vertical field of view; the
    principal point sits at the image center.
    """
    if not 0.0 < vertical_fov_deg < 180.0:
        raise InvalidInputError(
            f"vertical_fov_deg must lie in (0, 180), got {vertical_fov_deg}"
        )
    fy = (height / 2.0) / np.tan(np.deg2rad(vertical_fov_deg) / 2.0)
    rot = look_at_rotation(eye, target)
    pose = RigidTransform(rot, np.asarray(eye, dtype=np.float64))
    return CameraModel(
        fx=fy, fy=fy, cx=width / 2.0, cy=height / 2.0,
        width=width, height=height, pose=pose,
    )
