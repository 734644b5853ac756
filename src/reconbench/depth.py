"""Depth image rendering, back-projection, and point splatting.

Depth values are distances along the camera z axis (not along the ray).
0.0 marks an invalid pixel.  Rendering is deterministic: it is a single
vectorized pass of the brute-force first-hit kernel.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .geometry import (
    TAG_OBSERVED,
    CameraModel,
    PointCloud,
    TriangleMesh,
)
from .raycast import first_hits

INVALID_DEPTH = 0.0


@dataclass(frozen=True)
class DepthImage:
    """Per-pixel z depth with 0.0 as the invalid sentinel."""

    depth: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.depth, dtype=np.float64)
        if d.ndim != 2:
            raise InvalidInputError(f"depth must be 2D, got shape {d.shape}")
        if d.size and not np.all(np.isfinite(d)):
            raise InvalidInputError("depth contains non-finite values")
        if d.size and d.min() < 0.0:
            raise InvalidInputError("depth values must be zero or positive")
        object.__setattr__(self, "depth", d)

    @property
    def height(self) -> int:
        return self.depth.shape[0]

    @property
    def width(self) -> int:
        return self.depth.shape[1]

    @property
    def valid_mask(self) -> np.ndarray:
        return self.depth > 0.0

    def valid_count(self) -> int:
        return int(np.count_nonzero(self.valid_mask))


def _check_camera_outside(mesh: TriangleMesh, cam: CameraModel) -> None:
    center, radius = mesh.bounding_sphere()
    if np.linalg.norm(cam.position - center) <= radius:
        raise ConfigurationError(
            "camera sits inside the mesh bounding sphere; depth is undefined"
        )


def render_depth(mesh: TriangleMesh, cam: CameraModel) -> DepthImage:
    """Render the first-hit depth of a mesh from a pinhole camera.

    Rays pass through pixel centers.  An empty mesh produces an
    all-invalid image.
    """
    if len(mesh) == 0:
        return DepthImage(np.zeros((cam.height, cam.width)))
    _check_camera_outside(mesh, cam)
    dirs = cam.pixel_directions().reshape(-1, 3)
    origins = np.broadcast_to(cam.position, dirs.shape)
    t = first_hits(origins, dirs, mesh)
    # ray directions have unit z in the camera frame, so t is the z depth
    depth = np.where(np.isfinite(t), t, INVALID_DEPTH)
    return DepthImage(depth.reshape(cam.height, cam.width))


def back_project(image: DepthImage, cam: CameraModel) -> PointCloud:
    """Lift every valid pixel to a world-frame point, tagged observed.

    Points are emitted in row-major pixel order, which keeps the output
    deterministic and lets callers correlate points with pixels.
    """
    if image.height != cam.height or image.width != cam.width:
        raise InvalidInputError("image size does not match camera")
    mask = image.valid_mask
    if not mask.any():
        return PointCloud.empty()
    vv, uu = np.nonzero(mask)
    z = image.depth[vv, uu]
    x = (uu + 0.5 - cam.cx) / cam.fx * z
    y = (vv + 0.5 - cam.cy) / cam.fy * z
    p_cam = np.stack([x, y, z], axis=1)
    world = p_cam @ cam.pose.rotation.T + cam.position
    return PointCloud.from_points(world, TAG_OBSERVED)


def splat_cloud(cloud: PointCloud, cam: CameraModel) -> DepthImage:
    """Project points into the image, keeping the nearest depth per pixel.

    Points behind the camera or outside the frame are dropped.  An empty
    cloud gives an all-invalid image.
    """
    depth = np.full((cam.height, cam.width), np.inf)
    if len(cloud):
        p_cam = (cloud.points - cam.position) @ cam.pose.rotation
        z = p_cam[:, 2]
        front = z > 0.0
        p_cam = p_cam[front]
        z = z[front]
        u = np.floor(cam.fx * p_cam[:, 0] / z + cam.cx).astype(np.int64)
        v = np.floor(cam.fy * p_cam[:, 1] / z + cam.cy).astype(np.int64)
        inside = (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
        np.minimum.at(depth, (v[inside], u[inside]), z[inside])
    depth[~np.isfinite(depth)] = INVALID_DEPTH
    return DepthImage(depth)
