"""Procedural shapes, dataset generation, results plumbing, and the CLI."""
import itertools
import json
import shutil
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from reconbench import bench
from reconbench.bench import (
    METHODS,
    RESULTS_HEADER,
    EvalRecord,
    TimingResult,
    generate_dataset,
    parse_report_csv,
    read_manifest,
    read_results,
    load_view,
    report,
    ring_camera,
    run_evaluation,
    time_methods,
    write_results,
)
from reconbench.cli import main
from reconbench.autodecoder import load_decoder, reconstruct
from reconbench.config import BenchConfig, load_config
from reconbench.depth import render_depth
from reconbench.errors import InvalidInputError, MissingArtifactError
from reconbench.fileio import load_obj, load_pfm, save_pfm
from reconbench.metrics import VoxelFilterConfig
from reconbench.mirror import load_mirror_model
from reconbench.sdf import GRID_RADIUS, NEAR_SURFACE_FRACTION, SURFACE_NOISE_SIGMA
from reconbench.shapes import (
    CATEGORIES,
    build_mesh,
    merge_meshes,
    parameter_ranges,
    sample_spec,
)


# ---------------------------------------------------------------------------
# procedural shape families


class TestShapes:
    @pytest.mark.parametrize("category", CATEGORIES)
    def test_instances_are_watertight(self, category):
        for seed in range(5):
            spec = sample_spec(category, np.random.default_rng(seed))
            mesh = build_mesh(spec)
            mesh.validate()
            assert mesh.is_watertight()

    @pytest.mark.parametrize("category", CATEGORIES)
    def test_params_respect_documented_ranges(self, category):
        ranges = parameter_ranges(category)
        for seed in range(10):
            spec = sample_spec(category, np.random.default_rng(seed))
            assert set(spec.params) == set(ranges)
            for name, value in spec.params.items():
                lo, hi = ranges[name]
                assert lo <= value <= hi

    def test_sampling_is_deterministic(self):
        a = sample_spec("mug", np.random.default_rng(3))
        b = sample_spec("mug", np.random.default_rng(3))
        assert a == b

    def test_distinct_seeds_vary_parameters(self):
        a = sample_spec("bottle", np.random.default_rng(0))
        b = sample_spec("bottle", np.random.default_rng(1))
        assert a.params != b.params

    def test_unknown_category_rejected(self):
        with pytest.raises(InvalidInputError):
            sample_spec("teapot", np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            parameter_ranges("teapot")

    def test_merge_offsets_triangle_indices(self):
        spec = sample_spec("can", np.random.default_rng(0))
        part = build_mesh(spec)
        merged = merge_meshes([part, part])
        n = part.vertices.shape[0]
        assert merged.vertices.shape[0] == 2 * n
        assert np.array_equal(merged.triangles[len(part.triangles):], part.triangles + n)


# ---------------------------------------------------------------------------
# viewpoints


class TestRingCamera:
    def test_positions_stay_on_the_ring(self):
        cfg = BenchConfig()
        rng = np.random.default_rng(0)
        radius = bench._CAMERA_RADIUS
        max_z = radius * np.sin(np.deg2rad(bench._CAMERA_MAX_ELEVATION_DEG))
        for _ in range(200):
            cam = ring_camera(rng, cfg)
            assert np.linalg.norm(cam.position) == pytest.approx(radius)
            assert abs(cam.position[2]) <= max_z + 1e-12

    def test_viewpoints_vary(self):
        cfg = BenchConfig()
        rng = np.random.default_rng(1)
        positions = np.array([ring_camera(rng, cfg).position for _ in range(8)])
        assert np.unique(positions, axis=0).shape[0] == 8

    def test_intrinsics_follow_config(self):
        cfg = replace(BenchConfig(), image_width=32, image_height=48)
        cam = ring_camera(np.random.default_rng(0), cfg)
        assert cam.width == 32
        assert cam.height == 48


# ---------------------------------------------------------------------------
# dataset generation

_TINY = {
    "views_per_train_instance": 2,
    "views_per_test_instance": 1,
    "image_width": 16,
    "image_height": 16,
}


def _tiny_cfg() -> BenchConfig:
    return replace(BenchConfig(), **_TINY)


class TestDatasetGeneration:
    def test_layout_and_manifest(self, tmp_path):
        manifest = generate_dataset(tmp_path, ["mug"], 2, 1, 5, _tiny_cfg())
        assert manifest == read_manifest(tmp_path)
        assert manifest["categories"] == ["mug"]
        assert manifest["train_count"] == 2
        assert manifest["seed"] == 5
        inst = tmp_path / "mug" / "train" / "001"
        assert (inst / "mesh.obj").exists()
        assert (inst / "meta.json").exists()
        assert (inst / "views" / "view_01.pfm").exists()
        assert (inst / "views" / "view_01.cam").exists()
        assert not (inst / "views" / "view_02.pfm").exists()
        test_views = tmp_path / "mug" / "test" / "000" / "views"
        assert (test_views / "view_00.pfm").exists()
        assert not (test_views / "view_01.pfm").exists()

    def test_meshes_load_back_watertight_and_normalized(self, tmp_path):
        generate_dataset(tmp_path, ["helmet"], 1, 0, 0, _tiny_cfg())
        mesh = load_obj(tmp_path / "helmet" / "train" / "000" / "mesh.obj")
        mesh.validate()
        radii = np.linalg.norm(mesh.vertices, axis=1)
        assert radii.max() == pytest.approx(1.0, abs=1e-9)

    def test_rendered_views_contain_the_object(self, tmp_path):
        generate_dataset(tmp_path, ["can"], 1, 0, 2, _tiny_cfg())
        depth = load_pfm(tmp_path / "can" / "train" / "000" / "views" / "view_00.pfm")
        hit = depth > 0
        assert hit.any()
        # unit-sphere object seen from radius 2: depth within [1, 3]
        assert depth[hit].min() >= 1.0 - 1e-6
        assert depth[hit].max() <= 3.0 + 1e-6

    def test_meta_params_round_trip_as_floats(self, tmp_path):
        generate_dataset(tmp_path, ["bottle"], 1, 0, 9, _tiny_cfg())
        meta = json.loads(
            (tmp_path / "bottle" / "train" / "000" / "meta.json").read_text()
        )
        ranges = parameter_ranges("bottle")
        for name, text in meta["params"].items():
            lo, hi = ranges[name]
            assert lo <= float(text) <= hi
        assert float(meta["normalize_scale"]) > 0
        assert len(meta["normalize_center"]) == 3

    def test_regeneration_is_bit_identical(self, tmp_path):
        cfg = _tiny_cfg()
        generate_dataset(tmp_path / "a", ["jar"], 1, 1, 3, cfg)
        generate_dataset(tmp_path / "b", ["jar"], 1, 1, 3, cfg)
        files_a = sorted(p for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert [p.relative_to(tmp_path / "a") for p in files_a] == [
            p.relative_to(tmp_path / "b") for p in files_b
        ]
        for pa, pb in zip(files_a, files_b):
            assert pa.read_bytes() == pb.read_bytes(), pa.name

    def test_seed_changes_the_shapes(self, tmp_path):
        cfg = _tiny_cfg()
        generate_dataset(tmp_path / "a", ["laptop"], 1, 0, 0, cfg)
        generate_dataset(tmp_path / "b", ["laptop"], 1, 0, 1, cfg)
        obj_a = (tmp_path / "a" / "laptop" / "train" / "000" / "mesh.obj").read_bytes()
        obj_b = (tmp_path / "b" / "laptop" / "train" / "000" / "mesh.obj").read_bytes()
        assert obj_a != obj_b

    def test_train_and_test_instances_differ(self, tmp_path):
        generate_dataset(tmp_path, ["can"], 1, 1, 4, _tiny_cfg())
        train = (tmp_path / "can" / "train" / "000" / "mesh.obj").read_bytes()
        test = (tmp_path / "can" / "test" / "000" / "mesh.obj").read_bytes()
        assert train != test

    def test_bad_inputs_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            generate_dataset(tmp_path, ["teapot"], 1, 1, 0, _tiny_cfg())
        with pytest.raises(InvalidInputError):
            generate_dataset(tmp_path, ["mug"], -1, 1, 0, _tiny_cfg())
        # the manifest reader rejects an empty category list
        with pytest.raises(InvalidInputError):
            generate_dataset(tmp_path, [], 1, 1, 0, _tiny_cfg())

    def test_repeated_category_rejected(self, tmp_path):
        # one directory would be written twice and counted as two
        with pytest.raises(InvalidInputError, match="named twice"):
            generate_dataset(tmp_path, ["mug", "mug"], 1, 0, 0, _tiny_cfg())
        assert not (tmp_path / "dataset.json").exists()

    def test_manifest_with_a_repeated_category_rejected(self, tmp_path):
        generate_dataset(tmp_path, ["mug"], 0, 1, 0, _tiny_cfg())
        (tmp_path / "dataset.json").write_text('{"categories": ["mug", "mug"]}')
        with pytest.raises(InvalidInputError, match="distinct strings"):
            read_manifest(tmp_path)

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            read_manifest(tmp_path)


# ---------------------------------------------------------------------------
# evaluation records and results files


class TestResults:
    def test_record_validation(self):
        good = EvalRecord("deepsdf", "mug", "000", 0, 0.1, 0.2, 3.5, 1000)
        assert good.point_count == 1000
        with pytest.raises(InvalidInputError):
            EvalRecord("voxnet", "mug", "000", 0, 0.1, 0.2, 3.5, 1000)
        with pytest.raises(InvalidInputError, match="unknown category 'foo'"):
            EvalRecord("deepsdf", "foo", "000", 0, 0.1, 0.2, 3.5, 1000)
        with pytest.raises(InvalidInputError):
            EvalRecord("deepsdf", "mug", "000", 0, -0.1, 0.2, 3.5, 1000)
        with pytest.raises(InvalidInputError):
            EvalRecord("deepsdf", "mug", "000", 0, 0.1, 0.2, 0.0, 1000)
        with pytest.raises(InvalidInputError):
            EvalRecord("deepsdf", "mug", "000", 0, 0.1, 0.2, 3.5, -1)

    @pytest.mark.parametrize("field", ["d_c", "d_h", "inference_ms"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_record_rejects_non_finite_values(self, field, value):
        good = EvalRecord("deepsdf", "mug", "000", 0, 0.1, 0.2, 3.5, 1000)
        with pytest.raises(InvalidInputError, match=field):
            replace(good, **{field: value})

    def test_write_read_round_trip(self, tmp_path):
        records = [
            EvalRecord("mirror_oracle", "mug", "003", 2, 0.1 + 0.2, 1e-17, 0.25, 7),
            EvalRecord("deepsdf", "bottle", "000", 0, 0.0, 0.0, 12.125, 0),
        ]
        path = tmp_path / "results.csv"
        write_results(path, records)
        text = path.read_text()
        assert text.splitlines()[0] == RESULTS_HEADER
        assert read_results(path) == records

    def test_read_rejects_bad_files(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            read_results(tmp_path / "absent.csv")
        bad_header = tmp_path / "h.csv"
        bad_header.write_text("method,who,knows\n")
        with pytest.raises(InvalidInputError):
            read_results(bad_header)
        bad_row = tmp_path / "r.csv"
        bad_row.write_text(RESULTS_HEADER + "\ndeepsdf,mug,000,0,0.1\n")
        with pytest.raises(InvalidInputError):
            read_results(bad_row)

    @pytest.mark.parametrize("d_c", ["abc", "nan"])
    def test_read_rejects_a_bad_distance(self, tmp_path, d_c):
        path = tmp_path / "results.csv"
        row = f"deepsdf,mug,000,0,{d_c},0.2,3.5,1000"
        path.write_text(f"{RESULTS_HEADER}\nmirror_oracle,mug,000,0,0.1,0.2,3.5,10\n{row}\n")
        with pytest.raises(InvalidInputError, match=row):
            read_results(path)

    def test_report_rejects_an_unknown_category(self, tmp_path, capsys):
        # a row report() would leave out of every column
        ws = tmp_path / "ws"
        ws.mkdir()
        row = "deepsdf,foo,000,0,0.1,0.2,3.5,1000"
        (ws / "results.csv").write_text(f"{RESULTS_HEADER}\n{row}\n")
        with pytest.raises(InvalidInputError, match=row):
            read_results(ws / "results.csv")
        assert main(["report", "--out", str(ws)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and row in err
        assert not (ws / "report.txt").exists()


def _toy_records():
    rows = [
        ("deepsdf", "bottle", 0.1, 0.5),
        ("deepsdf", "bottle", 0.3, 0.7),
        ("deepsdf", "mug", 0.2, 0.4),
        ("mirror_oracle", "bottle", 0.05, 0.2),
        ("mirror_oracle", "bottle", 0.15, 0.4),
        # no mirror_oracle rows for mug: the report must show a gap
    ]
    return [
        EvalRecord(m, c, "000", i, dc, dh, 1.0, 10)
        for i, (m, c, dc, dh) in enumerate(rows)
    ]


class TestReport:
    def test_means_and_winners(self):
        rep = report(_toy_records())
        assert rep.categories == ("bottle", "mug")
        assert rep.methods == ("mirror_oracle", "deepsdf")
        assert rep.means[("d_c", "deepsdf", "bottle")] == pytest.approx(0.2)
        assert rep.means[("d_c", "mirror_oracle", "bottle")] == pytest.approx(0.1)
        assert rep.means[("d_h", "deepsdf", "mug")] == pytest.approx(0.4)
        assert ("d_c", "mirror_oracle", "mug") not in rep.means
        winners = rep.winners()
        assert winners[("d_c", "bottle")] == "mirror_oracle"
        assert winners[("d_h", "bottle")] == "mirror_oracle"
        assert winners[("d_c", "mug")] == "deepsdf"

    def test_text_table_marks_winners_and_gaps(self):
        text = report(_toy_records()).to_text()
        lines = text.splitlines()
        assert lines[0].split() == ["metric", "method", "bottle", "mug"]
        oracle_dc = next(
            ln for ln in lines if ln.startswith("d_c") and "mirror_oracle" in ln
        )
        assert "*0.1000" in oracle_dc
        assert oracle_dc.rstrip().endswith("-")
        deepsdf_dc = next(
            ln for ln in lines if ln.startswith("d_c") and "deepsdf" in ln
        )
        assert "*" not in deepsdf_dc.split()[2]
        assert "*0.2000" in deepsdf_dc

    def test_csv_round_trip_preserves_means(self):
        rep = report(_toy_records())
        back = parse_report_csv(rep.to_csv())
        assert back.categories == rep.categories
        assert back.methods == rep.methods
        assert back.metrics == rep.metrics
        assert back.means == rep.means

    def test_empty_records_rejected(self):
        with pytest.raises(InvalidInputError):
            report([])
        with pytest.raises(InvalidInputError):
            parse_report_csv("")


# ---------------------------------------------------------------------------
# configuration


class TestConfig:
    def test_defaults_without_file(self):
        assert load_config(None) == BenchConfig()

    def test_file_values_comments_and_types(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text(
            "# speed settings\n"
            "grid_resolution = 24\n"
            "decoder_hidden = 8, 8\n"
            "decoder_learning_rate = 0.005  # faster start\n"
            "code_learning_rate = 0.002\n"
            "\n"
        )
        cfg = load_config(path)
        assert cfg.grid_resolution == 24
        assert cfg.decoder_hidden == (8, 8)
        assert cfg.decoder_learning_rate == pytest.approx(0.005)
        assert cfg.code_learning_rate == pytest.approx(0.002)

    def test_zero_count_is_accepted(self):
        # zero coarse steps is how the coarse inference pass is turned off
        assert load_config(overrides={"infer_coarse_steps": 0}).infer_coarse_steps == 0

    @pytest.mark.parametrize("res", [0, 1])
    def test_grid_resolution_below_two_rejected(self, res):
        with pytest.raises(InvalidInputError, match="grid_resolution must be at least 2"):
            load_config(overrides={"grid_resolution": res})
        assert load_config(overrides={"grid_resolution": 2}).grid_resolution == 2

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("mirror_channels", "8,0,1"),
            ("decoder_hidden", ","),
            ("latent_dim", "0"),
            ("decoder_learning_rate", "-0.001"),
            ("code_learning_rate", "0.0"),
            ("decoder_lr_decay", "1.5"),
            ("sdf_total_count", "0"),
            ("gt_surface_samples", "0"),
            ("infer_max_samples", "0"),
            ("bench_repetitions", "0"),
            ("image_width", "0"),
            ("image_height", "0"),
        ],
    )
    def test_value_a_stage_rejects_fails_at_load(self, key, raw):
        # each of these used to fail only once a stage had started work
        with pytest.raises(InvalidInputError, match=key):
            load_config(overrides={key: raw})

    def test_overrides_take_precedence(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("latent_dim = 8\n")
        cfg = load_config(path, overrides={"latent_dim": 4})
        assert cfg.latent_dim == 4

    def test_bad_files_fail_loudly(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(MissingArtifactError):
            load_config(missing)
        bad_key = tmp_path / "k.cfg"
        bad_key.write_text("grid_resolutoin = 24\n")
        with pytest.raises(InvalidInputError):
            load_config(bad_key)
        bad_value = tmp_path / "v.cfg"
        bad_value.write_text("grid_resolution = tiny\n")
        with pytest.raises(InvalidInputError):
            load_config(bad_value)
        bad_line = tmp_path / "l.cfg"
        bad_line.write_text("grid_resolution\n")
        with pytest.raises(InvalidInputError):
            load_config(bad_line)

    def test_derived_configs_carry_fields(self):
        cfg = replace(
            BenchConfig(),
            decoder_lr_decay=0.99,
            latent_dim=4,
            decoder_hidden=(8,),
        )
        dec = cfg.decoder_config(7, epochs=11)
        assert dec.latent_dim == 4
        assert dec.hidden == (8,)
        assert dec.epochs == 11
        assert dec.lr_decay == pytest.approx(0.99)
        assert dec.seed == 7
        mir = cfg.mirror_config(9)
        assert mir.channels == cfg.mirror_channels
        assert mir.seed == 9
        samp = cfg.sampling_config(3)
        assert samp.total_count == cfg.sdf_total_count
        assert samp.seed == 3
        # fixed values without a config key still reach the sub-configs
        assert dec.momentum == 0.9
        assert dec.batch_size == 256
        assert dec.clamp_delta == 0.1
        assert dec.code_prior_weight == 1e-4
        assert mir.learning_rate == 0.01
        assert mir.momentum == 0.9
        assert mir.lr_decay == 1.0
        assert NEAR_SURFACE_FRACTION == 0.9
        assert SURFACE_NOISE_SIGMA == 0.02
        assert GRID_RADIUS == 1.1
        cam = ring_camera(np.random.default_rng(0), cfg)
        assert cam.fy == pytest.approx(cfg.image_height / 2 / np.tan(np.deg2rad(30.0)))
        assert bench._EVAL_FILTER == VoxelFilterConfig(voxel_size=0.1, min_points_per_voxel=2)

    def test_removed_keys_are_unknown(self):
        for key in (
            "vertical_fov_deg",
            "sdf_near_surface_fraction",
            "sdf_ball_radius",
            "decoder_momentum",
            "infer_coarse_delta",
            "infer_spacing",
            "mirror_learning_rate",
            "mirror_momentum",
            "eval_downsample_voxel",
            "mirror_train_image",
            "camera_radius",
            "camera_max_elevation_deg",
            "sdf_noise_sigma",
            "sdf_negative_floor_tau",
            "decoder_batch_size",
            "clamp_delta",
            "code_prior_weight",
            "mirror_lr_decay",
            "eval_filter_voxel",
            "eval_filter_min_points",
            "preset",
        ):
            with pytest.raises(InvalidInputError, match="unknown config key"):
                load_config(overrides={key: "0.5"})

    @pytest.mark.parametrize(
        "key", [f.name for f in fields(BenchConfig) if f.type.startswith("float")]
    )
    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    def test_non_finite_floats_rejected(self, key, raw):
        with pytest.raises(InvalidInputError, match=key):
            load_config(overrides={key: raw})


# ---------------------------------------------------------------------------
# timing


class TestTiming:
    def test_ratio(self):
        assert TimingResult(mirror_ms=2.0, sdf_ms=10.0, sdf_points=7).ratio == pytest.approx(5.0)

    def test_repetitions_must_be_positive(self, unit_sphere, front_camera):
        from reconbench.autodecoder import TrainConfig, init_decoder
        from reconbench.mirror import MirrorTrainConfig, init_mirror_model

        dec = init_decoder(
            TrainConfig(latent_dim=2, hidden=(4,)), np.random.default_rng(0)
        )
        mir = init_mirror_model(MirrorTrainConfig(channels=(1,)))
        with pytest.raises(InvalidInputError):
            time_methods(
                render_depth(unit_sphere, front_camera),
                front_camera,
                dec,
                mir,
                np.zeros(2),
                grid_resolution=8,
                repetitions=0,
            )

    def test_medians_are_positive(self, unit_sphere, front_camera):
        from reconbench.autodecoder import TrainConfig, init_decoder
        from reconbench.mirror import MirrorTrainConfig, init_mirror_model

        dec = init_decoder(
            TrainConfig(latent_dim=2, hidden=(4,)), np.random.default_rng(0)
        )
        mir = init_mirror_model(MirrorTrainConfig(channels=(1,)))
        result = time_methods(
            render_depth(unit_sphere, front_camera),
            front_camera,
            dec,
            mir,
            np.zeros(2),
            grid_resolution=8,
            repetitions=2,
        )
        assert result.mirror_ms > 0
        assert result.sdf_ms > 0

    @pytest.mark.parametrize("coarse_steps", [3, 0])
    def test_inference_samples_equal_one_draw_per_cap(
        self, unit_sphere, front_camera, monkeypatch, coarse_steps
    ):
        from reconbench import autodecoder

        cfg = replace(BenchConfig(), infer_coarse_steps=coarse_steps, infer_max_samples=500)
        decoder_cfg = cfg.decoder_config(0, epochs=2)
        params = autodecoder.init_decoder(decoder_cfg)
        observed = render_depth(unit_sphere, front_camera)
        seen = []

        def infer(p, obs, c, init=None):
            seen.append((obs, c.epochs))
            return np.zeros(p.latent_dim)

        monkeypatch.setattr(autodecoder, "infer_latent", infer)
        monkeypatch.setattr(autodecoder, "reconstruct", lambda *args: None)
        bench._infer_and_decode(observed, front_camera, cfg, params, decoder_cfg)
        # the coarse pass always runs; with zero steps it returns its zero start
        assert [epochs for _, epochs in seen] == [coarse_steps, decoder_cfg.epochs]
        caps = [bench._INFER_COARSE_DELTA, decoder_cfg.clamp_delta]
        for (obs, _), cap in zip(seen, caps):
            want = autodecoder.view_samples_for_inference(
                observed, front_camera, value_cap=cap, max_count=500
            )
            assert np.array_equal(obs.points, want.points)
            assert np.array_equal(obs.sdf, want.sdf)
        # thinned, and the wide cap reaches values the narrow one clips
        assert len(seen[0][0]) == 500
        assert np.max(seen[0][0].sdf) > decoder_cfg.clamp_delta

    def test_one_clock_reading_per_timed_region(self, trained_ws, monkeypatch, capsys):
        # a clock that advances one second per reading: each timed
        # region reads it exactly twice, so every time is 1000 ms
        ws, cfg_path = trained_ws
        ticks = itertools.count()
        monkeypatch.setattr(time, "perf_counter", lambda: float(next(ticks)))
        records = run_evaluation(ws, ["can"], METHODS, load_config(cfg_path))
        write_results(ws / "results.csv", records)
        rows = read_results(ws / "results.csv")
        assert {r.method for r in rows} == set(METHODS)
        assert all(r.inference_ms == 1000.0 for r in rows)
        observed, cam = load_view(ws / "can" / "test" / "000", 0)
        decoder, _ = load_decoder(ws / "models" / "decoder.rbsd")
        result = time_methods(
            observed,
            cam,
            decoder,
            load_mirror_model(ws / "models" / "mirror.rbmr"),
            np.zeros(decoder.latent_dim),
            grid_resolution=8,
            repetitions=3,
        )
        assert result.mirror_ms == 1000.0
        assert result.sdf_ms == 1000.0


# ---------------------------------------------------------------------------
# command line


def _write_speed_cfg(path: Path) -> Path:
    path.write_text(
        "image_width = 16\n"
        "image_height = 16\n"
        "views_per_train_instance = 1\n"
        "views_per_test_instance = 1\n"
        "sdf_total_count = 500\n"
        "latent_dim = 2\n"
        "decoder_hidden = 8\n"
        "decoder_epochs = 3\n"
        "infer_steps = 3\n"
        "infer_max_samples = 500\n"
        "grid_resolution = 12\n"
        "mirror_channels = 1\n"
        "mirror_epochs = 2\n"
        "gt_surface_samples = 500\n"
        "bench_repetitions = 1\n"
    )
    return path


def _edited_cfg(cfg: Path, dest: Path, **values) -> Path:
    """A copy of the config file ``cfg`` at ``dest`` whose lines for the
    keys in ``values`` carry those values instead (a file sets a key
    once)."""
    kept = [
        line for line in cfg.read_text().splitlines()
        if line.partition("=")[0].strip() not in values
    ]
    kept += [f"{key} = {value}" for key, value in values.items()]
    dest.write_text("\n".join(kept) + "\n")
    return dest


@pytest.fixture(scope="module")
def trained_ws(tmp_path_factory):
    """A generated and trained workspace (one can to train on, one to
    test); returns (workspace, config path).  Tests that change it work
    on a copy."""
    root = tmp_path_factory.mktemp("trained")
    cfg = _write_speed_cfg(root / "speed.cfg")
    base = ["--out", str(root / "ws"), "--config", str(cfg), "--seed", "3"]
    gen = ["gen-data", "--categories", "can", "--train-count", "1", "--test-count", "1"]
    for argv in (gen, ["train-sdf"], ["train-mirror"]):
        assert main(argv + base) == 0
    return root / "ws", cfg


class TestCli:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["--bogus"]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["gen-data", "--wat", "3"]) == 1
        # the repetition count comes from the bench_repetitions key only
        assert main(["bench-time", "--repetitions", "2"]) == 1
        capsys.readouterr()

    def test_bad_seed_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "ws")
        assert main(["gen-data", "--out", out, "--seed", "-1"]) == 1
        capsys.readouterr()

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(
            [
                "gen-data",
                "--out",
                str(tmp_path / "ws"),
                "--config",
                str(tmp_path / "absent.cfg"),
            ]
        )
        assert code == 2
        capsys.readouterr()

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        # a typo, and a key that no longer exists
        for line in ("grib_resolution = 3\n", "vertical_fov_deg = 0\n"):
            cfg.write_text(line)
            code = main(
                ["gen-data", "--out", str(tmp_path / "ws"), "--config", str(cfg)]
            )
            assert code == 1
            assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    def test_none_is_a_bad_value_for_a_required_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for line in ("image_width = none\n", "decoder_learning_rate = none\n"):
            cfg.write_text(line)
            code = main(["gen-data", "--out", str(tmp_path / "ws"), "--config", str(cfg)])
            assert code == 1
            key = line.split()[0]
            assert f"error: bad value for {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    def test_zero_image_size_fails_before_any_write(self, tmp_path, capsys):
        # a zero size must fail before gen-data writes a mesh or views/
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("image_width = 0\n")
        assert main(["gen-data", "--out", str(tmp_path / "ws"), "--config", str(cfg)]) == 1
        assert "image_width must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("key", ["views_per_test_instance", "infer_coarse_steps"])
    def test_negative_count_is_a_bad_value(self, tmp_path, capsys, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = -1\n")
        code = main(["gen-data", "--out", str(tmp_path / "ws"), "--config", str(cfg)])
        assert code == 1
        assert f"error: bad value for {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize("name", ["dataset.json", "can/test/000/meta.json"])
    def test_undecodable_json_is_an_input_error(self, tmp_path, capsys, name):
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = tmp_path / "ws"
        base = ["--out", str(out), "--config", cfg]
        gen = ["gen-data", "--categories", "can", "--train-count", "0", "--test-count", "1"]
        assert main(gen + base) == 0
        capsys.readouterr()
        (out / name).write_text("{bad")
        assert main(["evaluate", "--methods", "mirror_oracle"] + base) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name.split("/")[-1] in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("value", [np.nan, -1.0])
    def test_bad_depth_view_names_its_file(self, tmp_path, capsys, value):
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = tmp_path / "ws"
        base = ["--out", str(out), "--config", cfg]
        gen = ["gen-data", "--categories", "can", "--train-count", "0", "--test-count", "1"]
        assert main(gen + base) == 0
        capsys.readouterr()
        path = out / "can" / "test" / "000" / "views" / "view_00.pfm"
        depth = load_pfm(path)
        depth[0, 0] = value
        save_pfm(path, depth)
        assert main(["evaluate", "--methods", "mirror_oracle"] + base) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "view_00.pfm" in err
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize(
        "name, text, command, expect",
        [
            ("dataset.json", "{}", "evaluate", "misses the field 'categories'"),
            ("dataset.json", '{"categories": "laptop"}', "bench-time",
             "field 'categories'"),
            ("can/test/000/meta.json", "[]", "evaluate", "must hold a JSON object"),
            ("can/test/000/meta.json", '{"category": "can", "seed_entropy": [1], '
             '"views": "3"}', "evaluate", "field 'views'"),
        ],
    )
    def test_malformed_json_field_is_an_input_error(
        self, tmp_path, capsys, name, text, command, expect
    ):
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = tmp_path / "ws"
        base = ["--out", str(out), "--config", cfg]
        gen = ["gen-data", "--categories", "can", "--train-count", "0", "--test-count", "1"]
        assert main(gen + base) == 0
        capsys.readouterr()
        (out / name).write_text(text)
        argv = [command] + (["--methods", "mirror_oracle"] if command == "evaluate" else [])
        assert main(argv + base) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name.split("/")[-1] in err and expect in err
        assert not (out / "results.csv").exists()

    def test_bench_time_reads_no_mesh(self, trained_ws, tmp_path, capsys):
        ws, cfg = trained_ws
        out = tmp_path / "ws"
        shutil.copytree(ws, out)
        (out / "can" / "test" / "000" / "mesh.obj").unlink()
        assert main(["bench-time", "--out", str(out), "--config", str(cfg)]) == 0
        assert "ratio (sdf / mirror):" in capsys.readouterr().out

    def test_bench_time_prints_the_decoded_point_count(self, trained_ws, capsys):
        ws, cfg = trained_ws
        assert main(["bench-time", "--out", str(ws), "--config", str(cfg)]) == 0
        params, _ = load_decoder(ws / "models" / "decoder.rbsd")
        grid = load_config(cfg).grid_resolution
        count = len(reconstruct(params, np.zeros(params.latent_dim), grid))
        lines = capsys.readouterr().out.splitlines()
        assert f"sdf grid-{grid} reconstruction points: {count}" in lines

    def test_oversized_decoder_header_is_an_input_error(self, trained_ws, tmp_path, capsys):
        ws, cfg = trained_ws
        out = tmp_path / "ws"
        shutil.copytree(ws, out)
        (out / "models" / "decoder.rbsd").write_bytes(
            b"RBSD1\n1\nw 4611686018427387904\nEND\n" + bytes(64)
        )
        argv = ["evaluate", "--methods", "deepsdf", "--out", str(out), "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "decoder.rbsd" in err

    def test_non_finite_learning_rate_is_an_input_error(self, tmp_path, capsys):
        cfg = _write_speed_cfg(tmp_path / "speed.cfg")
        out = tmp_path / "ws"
        gen = ["gen-data", "--out", str(out), "--config", str(cfg), "--categories",
               "can", "--train-count", "1", "--test-count", "0"]
        assert main(gen) == 0
        capsys.readouterr()
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg.read_text() + "decoder_learning_rate = nan\n")
        assert main(["train-sdf", "--out", str(out), "--config", str(bad)]) == 1
        assert "decoder_learning_rate" in capsys.readouterr().err
        assert not (out / "models").exists()

    def test_stages_require_artifacts(self, tmp_path, capsys):
        out = str(tmp_path / "ws")
        assert main(["train-sdf", "--out", out]) == 2
        assert main(["train-mirror", "--out", out]) == 2
        assert main(["evaluate", "--out", out]) == 2
        assert main(["report", "--out", out]) == 2
        assert main(["bench-time", "--out", out]) == 2
        capsys.readouterr()

    def test_micro_pipeline(self, tmp_path, capsys):
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = str(tmp_path / "ws")
        base = ["--out", out, "--config", cfg, "--seed", "3"]
        assert (
            main(
                [
                    "gen-data",
                    "--categories",
                    "can",
                    "--train-count",
                    "1",
                    "--test-count",
                    "1",
                ]
                + base
            )
            == 0
        )
        assert main(["train-sdf"] + base) == 0
        assert main(["train-mirror"] + base) == 0
        assert main(["evaluate"] + base) == 0
        assert main(["report"] + base) == 0
        assert main(["bench-time"] + base) == 0
        captured = capsys.readouterr()
        assert "ratio (sdf / mirror):" in captured.out

        ws = Path(out)
        records = read_results(ws / "results.csv")
        # 3 methods x 1 test instance x 1 view
        assert len(records) == 3
        assert {r.method for r in records} == set(METHODS)
        rep = parse_report_csv((ws / "report.csv").read_text())
        assert rep.categories == ("can",)
        text = (ws / "report.txt").read_text()
        assert text.count("*") == len(rep.metrics)

    def test_sample_cache_follows_the_config(self, tmp_path, capsys):
        small = _write_speed_cfg(tmp_path / "small.cfg")
        large = tmp_path / "large.cfg"
        large.write_text(
            small.read_text().replace("sdf_total_count = 500", "sdf_total_count = 800")
        )
        out = str(tmp_path / "ws")
        gen = ["gen-data", "--out", out, "--config", str(small), "--categories",
               "can", "--train-count", "1", "--test-count", "1"]
        assert main(gen) == 0
        cache = Path(out) / "can" / "train" / "000" / "sdf_samples.bin"
        sizes = []
        for cfg in (small, large):
            assert main(["train-sdf", "--out", out, "--config", str(cfg)]) == 0
            sizes.append(cache.stat().st_size)
        assert sizes[0] != sizes[1]
        capsys.readouterr()

    def test_truncated_sample_cache_is_regenerated(self, tmp_path, capsys):
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = str(tmp_path / "ws")
        base = ["--out", out, "--config", cfg]
        gen = ["gen-data", "--categories", "can", "--train-count", "1", "--test-count", "1"]
        assert main(gen + base) == 0
        assert main(["train-sdf"] + base) == 0
        cache = Path(out) / "can" / "train" / "000" / "sdf_samples.bin"
        whole = cache.read_bytes()
        # what an interrupted in-place write used to leave behind
        cache.write_bytes(whole[:300])
        assert main(["train-sdf"] + base) == 0
        assert cache.read_bytes() == whole
        capsys.readouterr()

    def test_non_finite_sample_cache_is_regenerated(self, tmp_path, capsys):
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = str(tmp_path / "ws")
        base = ["--out", out, "--config", cfg]
        gen = ["gen-data", "--categories", "can", "--train-count", "1", "--test-count", "0"]
        assert main(gen + base) == 0
        assert main(["train-sdf"] + base) == 0
        cache = Path(out) / "can" / "train" / "000" / "sdf_samples.bin"
        whole = cache.read_bytes()
        # the last record's distance, a little-endian float64, made NaN
        cache.write_bytes(whole[:-8] + np.array([np.nan], "<f8").tobytes())
        assert main(["train-sdf"] + base) == 0
        assert cache.read_bytes() == whole
        params, codes = load_decoder(Path(out) / "models" / "decoder.rbsd")
        assert all(np.all(np.isfinite(t)) for t in (*params.weights, *params.biases, *codes))
        losses = json.loads((Path(out) / "models" / "decoder_losses.json").read_text())
        assert np.all(np.isfinite(losses["epoch_losses"]))
        capsys.readouterr()

    def test_training_loss_curves_are_saved(self, tmp_path, capsys, monkeypatch):
        from reconbench import autodecoder, mirror

        results = {}

        def keep(module, name):
            train = getattr(module, name)

            def wrapper(*args, **kwargs):
                results[name] = train(*args, **kwargs)
                return results[name]

            monkeypatch.setattr(module, name, wrapper)

        keep(autodecoder, "train_autodecoder")
        keep(mirror, "train_mirror_model")
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = str(tmp_path / "ws")
        base = ["--out", out, "--config", cfg]
        gen = ["gen-data", "--categories", "can", "--train-count", "1", "--test-count", "1"]
        assert main(gen + base) == 0
        assert main(["train-sdf"] + base) == 0
        assert main(["train-mirror"] + base) == 0
        models = Path(out) / "models"
        for file, name, epochs in (
            ("decoder_losses.json", "train_autodecoder", 3),
            ("mirror_losses.json", "train_mirror_model", 2),
        ):
            curve = json.loads((models / file).read_text())["epoch_losses"]
            assert len(curve) == epochs
            # the whole curve, so also its last value, the final loss
            assert curve == results[name].epoch_losses
        capsys.readouterr()

    def test_mirror_trains_on_pairs_built_in_memory(self, tmp_path, capsys):
        from reconbench import bench, mirror
        from reconbench.depth import render_depth

        cfg_path = _edited_cfg(
            _write_speed_cfg(tmp_path / "speed.cfg"),
            tmp_path / "pairs.cfg",
            views_per_train_instance=2,
            mirror_channels="4, 1",
        )
        out = tmp_path / "ws"
        base = ["--out", str(out), "--config", str(cfg_path), "--seed", "5"]
        gen = ["gen-data", "--categories", "can,mug", "--train-count", "1",
               "--test-count", "0"]
        assert main(gen + base) == 0
        assert main(["train-mirror"] + base) == 0
        capsys.readouterr()
        assert not (out / "mirror_pairs").exists()

        pairs = []
        for category in ("can", "mug"):
            inst_dir = out / category / "train" / "000"
            mesh = load_obj(inst_dir / "mesh.obj")
            for v in range(2):
                observed, cam = bench.load_view(inst_dir, v)
                virtual = mirror.mirror_pose(cam, (0.0, 0.0, 0.0))
                splat_and_mask = mirror.splat_into_view(observed, cam, virtual)
                pairs.append((splat_and_mask, render_depth(mesh, virtual)))
        result = mirror.train_mirror_model(pairs, load_config(cfg_path).mirror_config(5))
        expected = tmp_path / "expected.rbmr"
        mirror.save_mirror_model(expected, result.params)
        assert (out / "models" / "mirror.rbmr").read_bytes() == expected.read_bytes()

    def test_non_positive_layer_width_is_an_input_error(self, tmp_path, capsys):
        cfg = _write_speed_cfg(tmp_path / "speed.cfg")
        out = str(tmp_path / "ws")
        gen = ["gen-data", "--out", out, "--config", str(cfg), "--categories",
               "can", "--train-count", "1", "--test-count", "1"]
        assert main(gen) == 0
        capsys.readouterr()
        for key, value, stage in (
            ("mirror_channels", "8, 0, 1", "train-mirror"),
            ("mirror_channels", "8, -1, 1", "train-mirror"),
            ("decoder_hidden", "64, 0", "train-sdf"),
        ):
            bad = _edited_cfg(cfg, tmp_path / "bad.cfg", **{key: value})
            assert main([stage, "--out", out, "--config", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and "must be positive" in err

    @pytest.mark.parametrize("command", ["evaluate", "bench-time"])
    def test_grid_resolution_below_two_is_an_input_error(
        self, trained_ws, tmp_path, capsys, command
    ):
        # rejected when the config loads, before any latent inference
        ws, cfg = trained_ws
        bad = _edited_cfg(cfg, tmp_path / "bad.cfg", grid_resolution=0)
        argv = [command] + (["--methods", "deepsdf"] if command == "evaluate" else [])
        assert main(argv + ["--out", str(ws), "--config", str(bad)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "grid_resolution" in err

    @pytest.mark.parametrize("command", ["train-sdf", "evaluate", "bench-time"])
    def test_bad_model_or_count_value_fails_at_load(self, trained_ws, tmp_path, capsys, command):
        ws, cfg = trained_ws
        decoder = ws / "models" / "decoder.rbsd"
        before = decoder.stat().st_mtime_ns
        for key, value in (
            ("mirror_channels", "8, 0, 1"),
            ("latent_dim", "0"),
            ("gt_surface_samples", "0"),
            ("bench_repetitions", "0"),
        ):
            bad = _edited_cfg(cfg, tmp_path / "bad.cfg", **{key: value})
            assert main([command, "--out", str(ws), "--config", str(bad)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and key in err
        assert decoder.stat().st_mtime_ns == before

    def test_key_set_twice_is_an_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("image_width = 32\n# narrower\nimage_width = 16\n")
        out = tmp_path / "ws"
        assert main(["gen-data", "--out", str(out), "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}:3: 'image_width' is already set on line 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train-sdf", "train-mirror", "evaluate"])
    @pytest.mark.parametrize("names", ["foo", "can,foo", ",", ""])
    def test_categories_naming_no_category_is_an_input_error(
        self, trained_ws, capsys, command, names
    ):
        ws, cfg = trained_ws
        argv = [command, "--categories", names, "--out", str(ws), "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--categories" in err

    def test_category_missing_from_the_dataset_is_a_missing_artifact(self, trained_ws, capsys):
        # mug is a category, but this dataset holds only cans
        ws, cfg = trained_ws
        argv = ["evaluate", "--categories", "mug", "--methods", "mirror_oracle",
                "--out", str(ws), "--config", str(cfg)]
        assert main(argv) == 2
        assert "dataset misses" in capsys.readouterr().err

    def test_repeated_category_is_an_input_error(self, trained_ws, tmp_path, capsys):
        ws, cfg = trained_ws
        base = ["--out", str(tmp_path / "ws"), "--config", str(cfg)]
        gen = ["gen-data", "--categories", "mug,mug", "--train-count", "1"]
        assert main(gen + base) == 1
        assert not (tmp_path / "ws").exists()
        argv = ["evaluate", "--categories", "can,can", "--methods", "mirror_oracle",
                "--out", str(ws), "--config", str(cfg)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "twice" in err

    def test_evaluate_rejects_unknown_method(self, tmp_path, capsys):
        cfg = str(_write_speed_cfg(tmp_path / "speed.cfg"))
        out = str(tmp_path / "ws")
        base = ["--out", out, "--config", cfg]
        assert (
            main(
                [
                    "gen-data",
                    "--categories",
                    "can",
                    "--train-count",
                    "1",
                    "--test-count",
                    "1",
                ]
                + base
            )
            == 0
        )
        assert main(["evaluate", "--methods", "voxnet"] + base) == 1
        capsys.readouterr()
