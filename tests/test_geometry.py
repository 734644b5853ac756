"""Meshes, camera poses, cameras, and their file formats."""
import numpy as np
import pytest

from reconbench.errors import InvalidInputError
from reconbench.fileio import load_obj, save_obj
from reconbench.geometry import (
    TAG_GENERATED,
    TAG_OBSERVED,
    CameraModel,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    as_points,
    camera_looking_at,
    look_at_rotation,
    merge_clouds,
    normalize_to_unit_sphere,
)
from reconbench.shapes import box_mesh, icosphere


@pytest.fixture
def moved_sphere(rng, random_rotation) -> TriangleMesh:
    """An icosphere under a random rotation and a translation of a few
    units."""
    mesh = icosphere(2)
    rotation = random_rotation(rng)
    vertices = mesh.vertices @ rotation.T + 5.0 * rng.normal(size=3)
    return TriangleMesh(vertices, mesh.triangles)


class TestPointCloud:
    def test_tags_validated(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((2, 3)), np.array(["observed", "bogus"]))

    def test_counts_by_tag(self):
        cloud = merge_clouds(
            [
                PointCloud.from_points(np.zeros((3, 3)), TAG_OBSERVED),
                PointCloud.from_points(np.ones((2, 3)), TAG_GENERATED),
            ]
        )
        assert len(cloud) == 5
        assert cloud.count(TAG_OBSERVED) == 3
        assert cloud.count(TAG_GENERATED) == 2

    def test_as_points_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            as_points([[0.0, np.nan, 0.0]])


class TestMesh:
    def test_box_area(self, unit_box):
        # cube with edge 1: six unit faces
        assert np.isclose(unit_box.triangle_areas().sum(), 6.0)

    def test_watertight_detection(self, unit_box, unit_sphere):
        assert unit_box.is_watertight()
        assert unit_sphere.is_watertight()
        opened = unit_box.__class__(unit_box.vertices, unit_box.triangles[1:])
        assert not opened.is_watertight()

    def test_degenerate_triangle_rejected(self):
        verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        mesh = box_mesh((1, 1, 1)).__class__(verts, np.array([[0, 1, 2]]))
        with pytest.raises(InvalidInputError):
            mesh.validate()

    def test_bounding_sphere_contains_vertices(self, moved_sphere):
        center, radius = moved_sphere.bounding_sphere()
        dist = np.linalg.norm(moved_sphere.vertices - center, axis=1)
        assert np.all(dist <= radius + 1e-12)

    def test_surface_samples_lie_on_box(self, unit_box, rng):
        pts = unit_box.sample_surface(500, rng)
        assert pts.shape == (500, 3)
        assert np.all(np.abs(pts) <= 0.5 + 1e-12)
        # every sample sits on some face plane
        assert np.allclose(np.abs(pts).max(axis=1), 0.5)


class TestNormalize:
    def test_box_normalization_values(self):
        mesh = box_mesh((1.0, 1.0, 1.0), center=(2.0, 2.0, 2.0))
        normed, scale, center = normalize_to_unit_sphere(mesh)
        assert np.allclose(center, [2.0, 2.0, 2.0])
        assert np.isclose(scale, 1.0 / np.sqrt(3.0))
        assert np.isclose(np.linalg.norm(normed.vertices, axis=1).max(), 1.0)
        # corner lands at -1/sqrt(3) per axis
        corner = normed.vertices[np.argmin(normed.vertices.sum(axis=1))]
        assert np.allclose(corner, -0.5773502691896258)

    def test_idempotent(self, moved_sphere):
        once, _, _ = normalize_to_unit_sphere(moved_sphere)
        twice, scale2, center2 = normalize_to_unit_sphere(once)
        assert np.allclose(twice.vertices, once.vertices, atol=1e-9)
        assert np.isclose(scale2, 1.0, atol=1e-9)
        assert np.allclose(center2, 0.0, atol=1e-9)

    def test_round_trip_restores_vertices(self, moved_sphere):
        normed, scale, center = normalize_to_unit_sphere(moved_sphere)
        restored = normed.vertices / scale + center
        assert np.allclose(restored, moved_sphere.vertices, atol=1e-9)


class TestRigidTransform:
    def test_validate_rejects_scaling(self):
        with pytest.raises(InvalidInputError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3)).validate()


class TestLookAt:
    def test_forward_axis_points_at_target(self):
        eye = np.array([1.0, -2.0, 0.5])
        target = np.array([0.0, 0.0, 0.0])
        r = look_at_rotation(eye, target)
        forward = (target - eye) / np.linalg.norm(target - eye)
        assert np.allclose(r[:, 2], forward, atol=1e-12)
        assert np.isclose(np.abs(np.linalg.det(r)), 1.0)

    def test_down_alignment_with_world_up(self):
        r = look_at_rotation((2.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        # y axis (image down) must have no component along world x or y
        # beyond rounding, i.e. it tilts only in the up direction
        assert r[2, 1] < 0.0  # image down points away from world up

    def test_straight_down_view_uses_fallback_up(self):
        r = look_at_rotation((0.0, 0.0, 2.0), (0.0, 0.0, 0.0))
        assert np.allclose(r[:, 2], [0.0, 0.0, -1.0], atol=1e-12)
        assert np.isclose(np.abs(np.linalg.det(r)), 1.0)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)

    def test_camera_position_and_shape(self):
        cam = camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0))
        assert isinstance(cam, CameraModel)
        assert np.allclose(cam.position, [0.0, 0.0, 2.0])
        assert cam.width == 64 and cam.height == 64
        # square pixels, principal point at the image center
        assert np.isclose(cam.fx, cam.fy)
        assert np.isclose(cam.cx, 32.0) and np.isclose(cam.cy, 32.0)
        # 60 degree vertical field of view: fy = (h/2) / tan(30 deg)
        assert np.isclose(cam.fy, 32.0 / np.tan(np.deg2rad(30.0)))

    def test_pixel_directions_have_unit_forward_component(self):
        cam = camera_looking_at((0.5, -1.0, 1.5), (0.0, 0.0, 0.0))
        dirs = cam.pixel_directions()
        assert dirs.shape == (64, 64, 3)
        forward = cam.pose.rotation[:, 2]
        z_comp = dirs @ forward
        assert np.allclose(z_comp, 1.0, atol=1e-12)

    @pytest.mark.parametrize("fov", [0.0, -5.0, 180.0, np.nan, np.inf])
    def test_field_of_view_outside_open_interval_rejected(self, fov):
        # 0 would give an infinite focal length and 180 a near-zero one
        with pytest.raises(InvalidInputError, match="vertical_fov_deg"):
            camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), vertical_fov_deg=fov)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_intrinsics_rejected(self, field, value):
        intrinsics = {"fx": 50.0, "fy": 50.0, "cx": 32.0, "cy": 32.0, field: value}
        with pytest.raises(InvalidInputError, match="finite"):
            CameraModel(
                **intrinsics, width=64, height=64,
                pose=RigidTransform(np.eye(3), np.zeros(3)),
            )


class TestMeshFiles:
    def test_obj_round_trip_exact(self, tmp_path, moved_sphere):
        path = tmp_path / "moved_sphere.obj"
        save_obj(path, moved_sphere)
        loaded = load_obj(path)
        assert np.array_equal(loaded.vertices, moved_sphere.vertices)
        assert np.array_equal(loaded.triangles, moved_sphere.triangles)

    def test_obj_quad_fan_triangulation(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n" "f 1 2 3 4\n"
        )
        mesh = load_obj(path)
        assert np.array_equal(mesh.triangles, [[0, 1, 2], [0, 2, 3]])

    def test_obj_negative_and_slashed_indices(self, tmp_path):
        path = tmp_path / "neg.obj"
        path.write_text(
            "v 0 0 0\nv 1 0 0\nv 0 1 0\n" "f -3/1 -2/2 -1/3\n"
        )
        mesh = load_obj(path)
        assert np.array_equal(mesh.triangles, [[0, 1, 2]])

    def test_obj_bad_index_raises(self, tmp_path):
        path = tmp_path / "bad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
        with pytest.raises(InvalidInputError):
            load_obj(path)
