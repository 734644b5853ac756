"""Depth rendering, back-projection, splatting, and the image formats."""
import numpy as np
import pytest

from reconbench.depth import (
    INVALID_DEPTH,
    DepthImage,
    back_project,
    render_depth,
    splat_cloud,
)
from reconbench.errors import ConfigurationError, InvalidInputError
from reconbench.fileio import load_camera, load_pfm, save_camera, save_pfm
from reconbench.geometry import PointCloud, TriangleMesh, camera_looking_at
from reconbench.sdf import unsigned_distances


class TestDepthImage:
    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(InvalidInputError):
            DepthImage(np.array([[-1.0]]))
        with pytest.raises(InvalidInputError):
            DepthImage(np.array([[np.inf]]))

    def test_valid_mask(self):
        img = DepthImage(np.array([[0.0, 1.5], [2.0, 0.0]]))
        assert img.valid_count() == 2
        assert np.array_equal(img.valid_mask, [[False, True], [True, False]])


class TestRender:
    def test_box_front_face_depth_is_planar(self, unit_box, front_camera):
        # z-depth convention: the whole face at z=0.5 reads exactly 1.5,
        # unlike euclidean distance which would grow off-center
        image = render_depth(unit_box, front_camera)
        cam = front_camera
        u = np.arange(64) + 0.5
        dx = (u - cam.cx) / cam.fx
        # rays well inside the face silhouette (|x| < 0.5 at z=0.5)
        hit = np.abs(dx) < 0.30 / 1.5
        face = image.depth[np.ix_(hit, hit)]
        assert np.allclose(face, 1.5, atol=1e-9)

    def test_sphere_depth_brackets(self, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        d = image.depth[image.valid_mask]
        # camera at distance 2 from a unit sphere: depth in [1, 2], and
        # the center pixels come within the chord error of 1
        assert d.min() >= 1.0 - 1e-9
        assert d.max() <= 2.0
        assert abs(image.depth[32, 32] - 1.0) < 0.01

    def test_empty_mesh_renders_invalid(self, front_camera):
        empty = TriangleMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))
        image = render_depth(empty, front_camera)
        assert image.valid_count() == 0

    def test_camera_inside_mesh_rejected(self, unit_sphere):
        cam = camera_looking_at((0.0, 0.1, 0.2), (0.0, 0.0, -1.0))
        with pytest.raises(ConfigurationError):
            render_depth(unit_sphere, cam)

    def test_render_deterministic(self, unit_sphere, front_camera):
        a = render_depth(unit_sphere, front_camera)
        b = render_depth(unit_sphere, front_camera)
        assert np.array_equal(a.depth, b.depth)


class TestBackProject:
    def test_known_pixel_coordinates(self):
        cam = camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), width=2, height=2)
        depth = np.array([[1.0, 0.0], [0.0, 2.0]])
        cloud = back_project(DepthImage(depth), cam)
        assert len(cloud) == 2
        # pixel (0,0): direction ((0.5-1)/fx, (0.5-1)/fy, 1) in camera
        # frame, scaled by depth 1, then mapped through the pose
        fx = cam.fx
        d0 = np.array([-0.5 / fx, -0.5 / fx, 1.0])
        r = cam.pose.rotation
        expect0 = r @ d0 * 1.0 + cam.position
        expect1 = r @ np.array([0.5 / fx, 0.5 / fx, 1.0]) * 2.0 + cam.position
        assert np.allclose(cloud.points[0], expect0, atol=1e-12)
        assert np.allclose(cloud.points[1], expect1, atol=1e-12)

    def test_points_lie_on_mesh(self, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        cloud = back_project(image, front_camera)
        assert len(cloud) == image.valid_count()
        dist = unsigned_distances(cloud.points, unit_sphere)
        # ray hit points sit on triangles up to rounding
        assert np.quantile(dist, 0.99) <= 1e-3
        assert dist.max() <= 1e-6

    def test_empty_image(self, front_camera):
        cloud = back_project(DepthImage(np.zeros((64, 64))), front_camera)
        assert len(cloud) == 0

    def test_size_mismatch_rejected(self, front_camera):
        with pytest.raises(InvalidInputError):
            back_project(DepthImage(np.zeros((8, 8))), front_camera)


class TestSplat:
    def test_round_trip_is_exact(self, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        cloud = back_project(image, front_camera)
        again = splat_cloud(cloud, front_camera)
        assert np.max(np.abs(again.depth - image.depth)) <= 1e-9

    def test_round_trip_from_oblique_view(self, unit_sphere):
        cam = camera_looking_at((1.2, -0.9, 1.3), (0.0, 0.0, 0.0))
        image = render_depth(unit_sphere, cam)
        cloud = back_project(image, cam)
        again = splat_cloud(cloud, cam)
        assert np.max(np.abs(again.depth - image.depth)) <= 1e-9

    def test_nearest_depth_wins(self, front_camera):
        # two points behind each other on the optical axis
        cloud = PointCloud.from_points([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
        image = splat_cloud(cloud, front_camera)
        assert np.isclose(image.depth[32, 32], 1.5)
        assert image.valid_count() == 1

    def test_behind_camera_and_out_of_frame_dropped(self, front_camera):
        cloud = PointCloud.from_points(
            [[0.0, 0.0, 5.0], [50.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        image = splat_cloud(cloud, front_camera)
        # first point is behind the camera looking down -z; second far
        # outside the frustum; third projects to the center
        assert image.valid_count() == 1
        assert np.isclose(image.depth[32, 32], 2.0)

    def test_empty_cloud(self, front_camera):
        image = splat_cloud(PointCloud.empty(), front_camera)
        assert image.valid_count() == 0
        assert np.all(image.depth == INVALID_DEPTH)


class TestImageFiles:
    def test_pfm_round_trip(self, tmp_path, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        path = tmp_path / "depth.pfm"
        save_pfm(path, image.depth)
        loaded = load_pfm(path)
        # storage is 32-bit; re-saving what was loaded is lossless
        assert np.allclose(loaded, image.depth, atol=1e-5)
        save_pfm(path, loaded)
        assert np.array_equal(load_pfm(path), loaded)

    def test_pfm_layout_is_bottom_up_little_endian(self, tmp_path):
        arr = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "tiny.pfm"
        save_pfm(path, arr)
        raw = path.read_bytes()
        header, dims, scale, body = raw.split(b"\n", 3)
        assert header == b"Pf"
        assert dims == b"2 2"
        assert float(scale) == -1.0
        values = np.frombuffer(body, dtype="<f4")
        # bottom row first
        assert np.array_equal(values, [3.0, 4.0, 1.0, 2.0])

    def test_camera_round_trip_exact(self, tmp_path):
        cam = camera_looking_at((0.7, -1.3, 1.9), (0.05, -0.02, 0.01))
        path = tmp_path / "view.cam"
        save_camera(path, cam)
        loaded = load_camera(path)
        assert loaded.width == cam.width and loaded.height == cam.height
        assert loaded.fx == cam.fx and loaded.fy == cam.fy
        assert loaded.cx == cam.cx and loaded.cy == cam.cy
        assert np.array_equal(loaded.pose.rotation, cam.pose.rotation)
        assert np.array_equal(loaded.pose.translation, cam.pose.translation)
