"""Desk-scale acceptance gate: one test per release criterion.

Every test is self-contained, runs on frozen seeds, and pins the
tolerance it must meet.  The terminal summary prints one PASS/FAIL
line per criterion (see conftest).  Criteria 7, 8 and 11 train their
networks from scratch and take a few minutes each.
"""
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reconbench
from reconbench.autodecoder import (
    DecoderParams,
    TrainConfig,
    decoder_forward,
    decoder_output_gradients,
    infer_latent,
    init_decoder,
    reconstruct,
    train_autodecoder,
    view_samples_for_inference,
)
from reconbench.bench import parse_report_csv, read_results, time_methods
from reconbench.config import BenchConfig
from reconbench.depth import back_project, render_depth, splat_cloud
from reconbench.geometry import (
    TAG_GENERATED,
    TAG_OBSERVED,
    PointCloud,
    camera_looking_at,
    merge_clouds,
)
from reconbench.metrics import (
    KdTree,
    VoxelFilterConfig,
    chamfer_hausdorff,
    voxel_downsample,
    voxel_filter,
)
from reconbench.mirror import (
    MirrorModelParams,
    MirrorTrainConfig,
    init_mirror_model,
    make_training_pair,
    mirror_forward,
    mirror_pose,
    oracle_completion,
    reconstruct_view_dependent,
    splat_into_view,
    train_mirror_model,
    training_loss_gradients,
)
from reconbench.sdf import SamplingConfig, sample_training_set, signed_distances
from reconbench.shapes import box_mesh, ellipsoid, icosphere


def brute_metrics(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Quadratic chamfer/hausdorff written without the library code."""
    d_ab = np.array([np.sqrt(((b - p) ** 2).sum(axis=1)).min() for p in a])
    d_ba = np.array([np.sqrt(((a - q) ** 2).sum(axis=1)).min() for q in b])
    return 0.5 * (float(d_ab.mean()) + float(d_ba.mean())), max(
        float(d_ab.max()), float(d_ba.max())
    )


def ring_eye(azimuth: float, elevation: float, distance: float) -> np.ndarray:
    return distance * np.array(
        [
            np.cos(elevation) * np.cos(azimuth),
            np.cos(elevation) * np.sin(azimuth),
            np.sin(elevation),
        ]
    )


def sphere_points(radius: float, count: int = 10_000, seed: int = 0) -> PointCloud:
    g = np.random.default_rng(seed).normal(size=(count, 3))
    return PointCloud.from_points(radius * g / np.linalg.norm(g, axis=1)[:, None])


def test_criterion_01_metrics_match_brute_force():
    """Tree-backed metrics equal the quadratic oracle within 1e-12."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, m = rng.integers(1, 201, size=2)
        a = rng.uniform(-1.5, 1.5, size=(int(n), 3))
        b = rng.uniform(-1.5, 1.5, size=(int(m), 3))
        want_c, want_h = brute_metrics(a, b)
        got_c, got_h = chamfer_hausdorff(
            PointCloud.from_points(a), PointCloud.from_points(b)
        )
        assert abs(got_c - want_c) <= 1e-12
        assert abs(got_h - want_h) <= 1e-12
        # the spatial index must give the same answers as well
        _, d_ab = KdTree(b).nearest_many(a)
        _, d_ba = KdTree(a).nearest_many(b)
        assert abs(0.5 * (d_ab.mean() + d_ba.mean()) - want_c) <= 1e-12
        assert abs(max(d_ab.max(), d_ba.max()) - want_h) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_02_hausdorff_dominates_chamfer():
    """A worst gap can never fall below a mean gap: zero violations."""
    rng = np.random.default_rng(11)
    violations = 0
    for _ in range(1000):
        n, m = rng.integers(1, 51, size=2)
        a = rng.normal(scale=rng.uniform(0.1, 3.0), size=(int(n), 3))
        b = rng.normal(scale=rng.uniform(0.1, 3.0), size=(int(m), 3))
        d_c, d_h = chamfer_hausdorff(
            PointCloud.from_points(a), PointCloud.from_points(b)
        )
        violations += d_h < d_c
    assert violations == 0


def analytic_box_distance(points: np.ndarray, half: np.ndarray) -> np.ndarray:
    q = np.abs(points) - half
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return outside + inside


def test_criterion_03_signed_distance_matches_analytic_fields():
    """Mesh signed distance vs closed forms, within 2x the facet gap."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)

    sphere = icosphere(4)
    # largest gap between the faceted surface and the true sphere
    a, b, c = (sphere.vertices[sphere.triangles[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    chordal = 1.0 - np.abs(np.einsum("ij,ij->i", normals, a)).min()
    band = 2.0 * chordal

    pts = rng.uniform(-1.4, 1.4, size=(10_000, 3))
    got = signed_distances(pts, sphere)
    want = np.linalg.norm(pts, axis=1) - 1.0
    assert np.abs(got - want).max() <= band
    far = np.abs(want) > band
    assert np.array_equal(np.sign(got[far]), np.sign(want[far]))

    box = box_mesh((0.5, 0.5, 0.5))
    pts = rng.uniform(-1.2, 1.2, size=(10_000, 3))
    got = signed_distances(pts, box)
    want = analytic_box_distance(pts, np.array([0.5, 0.5, 0.5]))
    # planar faces have no facet gap; 1e-9 absorbs float round-off
    assert np.abs(got - want).max() <= 1e-9
    far = np.abs(want) > 1e-9
    assert np.array_equal(np.sign(got[far]), np.sign(want[far]))

    assert time.perf_counter() - start < 60.0


def test_criterion_04_render_back_project_round_trip():
    """Rendered sphere pixels land on the surface; splat inverts exactly."""
    cam = camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), 64, 64, 60.0)
    image = render_depth(icosphere(5), cam)
    cloud = back_project(image, cam)
    radial_gap = np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0)
    assert (radial_gap <= 1e-3).mean() >= 0.99

    again = splat_cloud(cloud, cam)
    assert np.array_equal(again.valid_mask, image.valid_mask)
    assert np.abs(again.depth - image.depth).max() <= 1e-9


def test_criterion_05_mirror_oracle_symmetry_and_involution():
    """Sphere back view is the flipped front view; double mirror undoes."""
    cam = camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), 64, 64, 60.0)
    mesh = icosphere(3)
    front = render_depth(mesh, cam)
    virtual = mirror_pose(cam, (0.0, 0.0, 0.0))
    mirrored = render_depth(mesh, virtual)
    assert np.array_equal(mirrored.valid_mask, np.fliplr(front.valid_mask))
    assert np.abs(mirrored.depth - np.fliplr(front.depth)).max() <= 1e-9

    center = (0.05, -0.02, 0.1)
    cam = camera_looking_at((1.3, -0.7, 0.9), center, 32, 32, 55.0)
    back = mirror_pose(mirror_pose(cam, center), center)
    assert np.linalg.norm(back.position - cam.position) <= 1e-12
    # camera-frame +z maps to the world viewing direction
    fwd, fwd_back = cam.pose.rotation[:, 2], back.pose.rotation[:, 2]
    assert np.linalg.norm(fwd_back - fwd) <= 1e-9


def fd_close(analytic: float, fd: float) -> bool:
    # 5e-9 floor absorbs round-off when the true derivative is zero
    return abs(analytic - fd) <= max(1e-4 * (abs(analytic) + abs(fd)), 5e-9)


def decoder_output(params: DecoderParams, z: np.ndarray, point: np.ndarray) -> float:
    return float(decoder_forward(params, z, point[None, :])[0])


def test_criterion_06_gradients_match_finite_differences():
    """Backprop vs central differences, 100 random setups per network."""
    h = 1e-6

    cfg = TrainConfig(latent_dim=4, hidden=(8, 8), seed=0)
    rng = np.random.default_rng(21)
    for _ in range(100):
        params = init_decoder(cfg, rng)
        z = rng.normal(scale=0.5, size=cfg.latent_dim)
        point = rng.uniform(-1.0, 1.0, size=3)
        gw, gb, gz = decoder_output_gradients(params, z, point)
        for li in range(len(params.weights)):
            wi = tuple(int(rng.integers(s)) for s in params.weights[li].shape)
            plus, minus = params.copy(), params.copy()
            plus.weights[li][wi] += h
            minus.weights[li][wi] -= h
            fd = (decoder_output(plus, z, point) - decoder_output(minus, z, point)) / (2 * h)
            assert fd_close(float(gw[li][wi]), fd)

            bi = int(rng.integers(params.biases[li].shape[0]))
            plus, minus = params.copy(), params.copy()
            plus.biases[li][bi] += h
            minus.biases[li][bi] -= h
            fd = (decoder_output(plus, z, point) - decoder_output(minus, z, point)) / (2 * h)
            assert fd_close(float(gb[li][bi]), fd)

        zi = int(rng.integers(cfg.latent_dim))
        zp, zm = z.copy(), z.copy()
        zp[zi] += h
        zm[zi] -= h
        fd = (decoder_output(params, zp, point) - decoder_output(params, zm, point)) / (2 * h)
        assert fd_close(float(gz[zi]), fd)

    rng = np.random.default_rng(22)
    checked = 0
    attempts = 0
    while checked < 100:
        attempts += 1
        assert attempts <= 500
        params = init_mirror_model(
            MirrorTrainConfig(channels=(3, 1), seed=int(rng.integers(2**31)))
        )
        inputs = rng.uniform(0.5, 2.0, size=(1, 2, 5, 5))
        targets = rng.uniform(0.5, 2.0, size=(1, 5, 5))
        out = mirror_forward(params, inputs[0, 0], inputs[0, 1])
        # central differences are invalid across the L1 kink
        if np.min(np.abs(out - targets[0])) < 1e-3:
            continue
        _, gw, gb = training_loss_gradients(params, inputs, targets)
        for li in range(len(params.weights)):
            wi = tuple(int(rng.integers(s)) for s in params.weights[li].shape)
            wp = [w.copy() for w in params.weights]
            wm = [w.copy() for w in params.weights]
            wp[li][wi] += h
            wm[li][wi] -= h
            lp, _, _ = training_loss_gradients(
                MirrorModelParams(tuple(wp), params.biases), inputs, targets
            )
            lm, _, _ = training_loss_gradients(
                MirrorModelParams(tuple(wm), params.biases), inputs, targets
            )
            assert fd_close(float(gw[li][wi]), (lp - lm) / (2 * h))

            bi = int(rng.integers(params.biases[li].shape[0]))
            bp = [x.copy() for x in params.biases]
            bm = [x.copy() for x in params.biases]
            bp[li][bi] += h
            bm[li][bi] -= h
            lp, _, _ = training_loss_gradients(
                MirrorModelParams(params.weights, tuple(bp)), inputs, targets
            )
            lm, _, _ = training_loss_gradients(
                MirrorModelParams(params.weights, tuple(bm)), inputs, targets
            )
            assert fd_close(float(gb[li][bi]), (lp - lm) / (2 * h))
        checked += 1
    assert checked == 100


def infer_config(clamp_delta: float, steps: int) -> TrainConfig:
    return TrainConfig(
        latent_dim=4,
        hidden=(32, 32),
        code_learning_rate=1e-3,
        epochs=steps,
        clamp_delta=clamp_delta,
        code_prior_weight=1e-4,
        momentum=0.9,
        seed=0,
    )


def test_criterion_07_single_view_latent_reconstruction():
    """Latent fit from one view of a held-out sphere: chamfer <= 0.05."""
    start = time.perf_counter()
    radii = np.linspace(0.3, 0.9, 10)
    samples = [
        sample_training_set(
            icosphere(3, float(r)), SamplingConfig(total_count=4000, seed=100 + i)
        )
        for i, r in enumerate(radii)
    ]
    cfg = TrainConfig(
        latent_dim=4,
        hidden=(32, 32),
        learning_rate=1e-3,
        code_learning_rate=1e-3,
        epochs=400,
        batch_size=256,
        clamp_delta=0.1,
        code_prior_weight=1e-4,
        momentum=0.9,
        seed=0,
    )
    decoder = train_autodecoder(samples, cfg).params

    held_out = [
        (0.45, (0.0, 0.0, 2.0)),
        (0.62, (1.3, -1.1, 0.9)),
        (0.78, (0.0, 2.0, 0.0)),
    ]
    for radius, eye in held_out:
        cam = camera_looking_at(eye, (0.0, 0.0, 0.0), 64, 64, 60.0)
        view = render_depth(icosphere(4, radius), cam)
        # wide clamp first so far-off codes still see a gradient, then
        # a narrow pass refines near the surface
        wide = view_samples_for_inference(view, cam, spacing=0.05, value_cap=0.5, seed=0)
        narrow = view_samples_for_inference(view, cam, spacing=0.05, value_cap=0.1, seed=0)
        z = infer_latent(decoder, wide, infer_config(0.5, 150))
        z = infer_latent(decoder, narrow, infer_config(0.1, 300), init=z)
        cloud = reconstruct(decoder, z, 64)
        d_c, _ = chamfer_hausdorff(voxel_downsample(cloud, 0.02), sphere_points(radius))
        assert d_c <= 0.05
    assert time.perf_counter() - start <= 600.0


def test_criterion_08_mirrored_depth_completion():
    """Oracle fusion d_H <= 0.1; learned completion masked MAE <= 0.05."""
    start = time.perf_counter()

    rng = np.random.default_rng(42)
    instances = [icosphere(2, float(rng.uniform(0.2, 0.3))) for _ in range(5)]
    for _ in range(5):
        rx, ry, rz = rng.uniform(0.2, 0.3, size=3)
        instances.append(ellipsoid(float(rx), float(ry), float(rz), subdivisions=2))
    for i, mesh in enumerate(instances):
        eye = ring_eye(rng.uniform(0, 2 * np.pi), rng.uniform(-1.0, 1.0), 2.0)
        cam = camera_looking_at(eye, (0.0, 0.0, 0.0), 256, 256, 60.0)
        cloud = reconstruct_view_dependent(
            render_depth(mesh, cam), cam, oracle_completion(mesh)
        )
        truth = PointCloud.from_points(
            mesh.sample_surface(10_000, np.random.default_rng(1000 + i))
        )
        _, d_h = chamfer_hausdorff(cloud, truth)
        assert d_h <= 0.1

    train_cam = camera_looking_at((0.0, 0.0, 4.0), (0.0, 0.0, 0.0), 32, 32, 30.0)
    pairs = [
        make_training_pair(icosphere(3, float(r)), train_cam)[0]
        for r in np.linspace(0.3, 0.9, 12)
    ]
    net = train_mirror_model(
        pairs,
        MirrorTrainConfig(
            channels=(8, 8, 1),
            learning_rate=0.005,
            epochs=6000,
            momentum=0.9,
            lr_decay=0.9995,
            seed=1,
        ),
    ).params

    errors = []
    eval_rng = np.random.default_rng(99)
    for radius in (0.55, 0.65, 0.75, 0.85):
        mesh = icosphere(3, radius)
        eye = ring_eye(eval_rng.uniform(0, 2 * np.pi), eval_rng.uniform(-1.0, 1.0), 4.0)
        cam = camera_looking_at(eye, (0.0, 0.0, 0.0), 32, 32, 30.0)
        observed = render_depth(mesh, cam)
        virtual = mirror_pose(cam, (0.0, 0.0, 0.0))
        splat, mask = splat_into_view(observed, cam, virtual)
        target = render_depth(mesh, virtual)
        out = mirror_forward(net, splat.depth, mask.depth)
        errors.append(np.abs(out - target.depth)[target.valid_mask])
    assert float(np.concatenate(errors).mean()) <= 0.05
    assert time.perf_counter() - start <= 600.0


def test_criterion_09_voxel_filter_outlier_removal():
    """Sparse injected points vanish; the dense surface survives."""
    rng = np.random.default_rng(12)
    g = rng.normal(size=(50_000, 3))
    surface = g / np.linalg.norm(g, axis=1)[:, None]
    injected: list[np.ndarray] = []
    while len(injected) < 100:
        p = rng.uniform(-1.9, 1.9, size=3)
        if not 1.25 <= np.linalg.norm(p) <= 1.9:
            continue
        # spread the outliers out so none pair up inside one voxel
        if injected and np.min(np.linalg.norm(np.array(injected) - p, axis=1)) < 0.25:
            continue
        injected.append(p)
    cloud = merge_clouds(
        [
            PointCloud.from_points(surface, TAG_OBSERVED),
            PointCloud.from_points(np.array(injected), TAG_GENERATED),
        ]
    )
    kept = voxel_filter(cloud, VoxelFilterConfig(voxel_size=0.1, min_points_per_voxel=3))
    assert kept.count(TAG_OBSERVED) / 50_000 >= 0.99
    assert kept.count(TAG_GENERATED) / 100 <= 0.05


def test_criterion_10_completion_beats_grid_decoding_on_time():
    """Median completion+fusion at least 5x faster than grid decoding."""
    cfg = BenchConfig()
    decoder = init_decoder(cfg.decoder_config(0), np.random.default_rng(0))
    net = init_mirror_model(cfg.mirror_config(0))
    cam = camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0), 64, 64, 60.0)
    result = time_methods(
        render_depth(icosphere(3, 0.8), cam),
        cam,
        decoder,
        net,
        np.zeros(cfg.latent_dim),
        grid_resolution=64,
        repetitions=3,
    )
    assert result.ratio >= 5.0


def test_criterion_11_end_to_end_micro_benchmark(tmp_path):
    """Full command-line pipeline on a tiny dataset: clean exit, sane rows."""
    start = time.perf_counter()
    cfg_file = tmp_path / "micro.cfg"
    cfg_file.write_text(
        "image_width = 32\n"
        "image_height = 32\n"
        "views_per_train_instance = 2\n"
        "views_per_test_instance = 2\n"
        "sdf_total_count = 4000\n"
        "latent_dim = 8\n"
        "decoder_hidden = 32,32\n"
        "decoder_epochs = 30\n"
        "infer_steps = 60\n"
        "infer_coarse_steps = 30\n"
        "infer_max_samples = 4000\n"
        "grid_resolution = 32\n"
        "mirror_channels = 8,1\n"
        "mirror_epochs = 150\n"
        "gt_surface_samples = 2000\n"
    )
    out = tmp_path / "ws"
    base = ["--out", str(out), "--config", str(cfg_file), "--seed", "0"]
    # the subprocess imports the same package as this test, installed or not
    package_root = str(Path(reconbench.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}

    def run(*stage_args: str) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [sys.executable, "-m", "reconbench", *stage_args, *base],
            capture_output=True,
            text=True,
            timeout=1500,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    run("gen-data", "--categories", "bottle,mug", "--train-count", "5", "--test-count", "2")
    run("train-sdf")
    run("train-mirror")
    run("evaluate")
    run("report")

    records = read_results(out / "results.csv")
    # 2 categories x 2 test instances x 2 views x 3 methods
    assert len(records) == 24
    assert all(r.d_c <= r.d_h for r in records)
    table = parse_report_csv((out / "report.csv").read_text())
    for method in table.methods:
        for cat in table.categories:
            assert table.means[("d_c", method, cat)] <= table.means[("d_h", method, cat)]
    assert time.perf_counter() - start <= 1800.0
