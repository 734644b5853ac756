"""The binned ray queries against the brute-force reference pass.

``first_hits`` and ``crossing_parity`` test a ray only against the
triangles whose projected box covers it; every case here must give
exactly (``np.array_equal``) what testing every triangle gives.
"""
from dataclasses import replace

import numpy as np
import pytest

from reconbench import raycast
from reconbench.bench import ring_camera
from reconbench.config import BenchConfig
from reconbench.geometry import camera_looking_at, normalize_to_unit_sphere
from reconbench.mirror import mirror_pose
from reconbench.shapes import CATEGORIES, build_mesh, sample_spec

_CFG = replace(BenchConfig(), image_width=32, image_height=32)


def _category_mesh(category):
    spec = sample_spec(category, np.random.default_rng(CATEGORIES.index(category)))
    return normalize_to_unit_sphere(build_mesh(spec))[0]


def _camera_rays(cam):
    dirs = cam.pixel_directions().reshape(-1, 3)
    return np.broadcast_to(cam.position, dirs.shape), dirs


def _assert_first_hits_exact(origins, dirs, mesh):
    got = raycast.first_hits(origins, dirs, mesh)
    want = raycast._brute_first_hits(origins, dirs, *raycast._triangles(mesh))
    assert np.array_equal(got, want)
    return got


def _assert_parity_exact(origins, dirs, mesh):
    parity, suspect = raycast.crossing_parity(origins, dirs, mesh)
    count, want_suspect = raycast._brute_crossings(origins, dirs, *raycast._triangles(mesh))
    assert np.array_equal(parity, count & 1)
    assert np.array_equal(suspect, want_suspect)
    return parity, suspect


def _binning(origins, dirs, mesh, project):
    """Mask of the triangles left to the brute pass, and the number of
    (ray, triangle) pairs the binned pass tests."""
    every, pairs = raycast._split(origins, dirs, *raycast._triangles(mesh), project)
    return every, sum(len(ray) for ray, _ in pairs)


@pytest.mark.parametrize("category", CATEGORIES)
def test_renders_match_brute_force(category):
    mesh = _category_mesh(category)
    rng = np.random.default_rng(7)
    for _ in range(2):
        cam = ring_camera(rng, _CFG)
        for view in (cam, mirror_pose(cam, (0.0, 0.0, 0.0))):
            t = _assert_first_hits_exact(*_camera_rays(view), mesh)
            assert np.isfinite(t).any()


def test_renders_test_few_pairs():
    mesh = _category_mesh("jar")
    origins, dirs = _camera_rays(ring_camera(np.random.default_rng(3), _CFG))
    every, pairs = _binning(origins, dirs, mesh, raycast._central_boxes)
    assert not every.any()
    assert pairs < 0.05 * len(dirs) * len(mesh)


def test_camera_close_enough_to_straddle_the_projection_plane(unit_sphere, unit_box):
    # near the sphere, and inside the box: some triangles have a vertex
    # behind the camera and must be tested against every ray
    for mesh, eye, target in (
        (unit_sphere, (0.0, 0.3, 0.9), (1.0, 0.0, -1.0)),
        (unit_box, (0.2, 0.1, 0.0), (1.0, 0.0, 0.0)),
    ):
        cam = camera_looking_at(eye, target, 48, 40, 120.0)
        origins, dirs = _camera_rays(cam)
        every, pairs = _binning(origins, dirs, mesh, raycast._central_boxes)
        assert every.any() and not every.all() and pairs > 0
        _assert_first_hits_exact(origins, dirs, mesh)


@pytest.mark.parametrize("category", CATEGORIES)
def test_parity_matches_brute_force_on_vertices_and_edges(category):
    mesh = _category_mesh(category)
    rng = np.random.default_rng(11)
    edges = mesh.vertices[mesh.triangles[:, [0, 1]]].mean(axis=1)
    points = np.concatenate([rng.uniform(-1.1, 1.1, (400, 3)), mesh.vertices, edges])
    for direction in rng.normal(size=(2, 3)):
        direction /= np.linalg.norm(direction)
        dirs = np.broadcast_to(direction, points.shape)
        _, suspect = _assert_parity_exact(points, dirs, mesh)
        # rays from vertices and edge midpoints graze the surface
        assert suspect.any()


def test_parity_direction_parallel_to_box_faces(unit_box, rng):
    points = np.concatenate([rng.uniform(-0.7, 0.7, (500, 3)), unit_box.vertices])
    dirs = np.broadcast_to([1.0, 0.0, 0.0], points.shape)
    every, pairs = _binning(points, dirs, unit_box, raycast._parallel_boxes)
    a, e1, e2 = raycast._triangles(unit_box)
    det = np.einsum("tk,tk->t", e1, np.cross(dirs[0], e2))
    # the +-y and +-z faces are parallel to the ray: |det| is zero there
    assert np.array_equal(every, np.abs(det) <= raycast.PARALLEL_EPS)
    assert every.sum() == 8 and pairs > 0
    _assert_parity_exact(points, dirs, unit_box)


def test_rays_sharing_neither_origin_nor_direction(unit_sphere, rng):
    origins = rng.uniform(-2.0, 2.0, (300, 3))
    dirs = rng.normal(size=(300, 3))
    for project in (raycast._central_boxes, raycast._parallel_boxes):
        every, pairs = _binning(origins, dirs, unit_sphere, project)
        assert every.all() and pairs == 0
    t = _assert_first_hits_exact(origins, dirs, unit_sphere)
    assert np.isfinite(t).any()
    _assert_parity_exact(origins, dirs, unit_sphere)
