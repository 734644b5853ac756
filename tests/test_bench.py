"""Procedural shapes, dataset generation, results plumbing, and the CLI."""
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from reconbench.bench import (
    METHODS,
    RESULTS_HEADER,
    EvalRecord,
    TimingResult,
    generate_dataset,
    parse_report_csv,
    read_manifest,
    read_results,
    report,
    ring_camera,
    time_methods,
    write_results,
)
from reconbench.cli import main
from reconbench.config import BenchConfig, apply_preset, load_config
from reconbench.errors import InvalidInputError, MissingArtifactError
from reconbench.fileio import load_obj, load_pfm
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
        max_z = cfg.camera_radius * np.sin(np.deg2rad(cfg.camera_max_elevation_deg))
        for _ in range(200):
            cam = ring_camera(rng, cfg)
            assert np.linalg.norm(cam.position) == pytest.approx(cfg.camera_radius)
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
        with pytest.raises(InvalidInputError):
            EvalRecord("deepsdf", "mug", "000", 0, -0.1, 0.2, 3.5, 1000)
        with pytest.raises(InvalidInputError):
            EvalRecord("deepsdf", "mug", "000", 0, 0.1, 0.2, 0.0, 1000)
        with pytest.raises(InvalidInputError):
            EvalRecord("deepsdf", "mug", "000", 0, 0.1, 0.2, 3.5, -1)

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
            "sdf_noise_sigma = 0.05  # wider band\n"
            "sdf_negative_floor_tau = 0.3\n"
            "\n"
        )
        cfg = load_config(path)
        assert cfg.grid_resolution == 24
        assert cfg.decoder_hidden == (8, 8)
        assert cfg.sdf_noise_sigma == pytest.approx(0.05)
        assert cfg.sdf_negative_floor_tau == pytest.approx(0.3)

    def test_none_clears_optional_value(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("sdf_negative_floor_tau = none\n")
        assert load_config(path).sdf_negative_floor_tau is None

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

    def test_full_preset_scales_up(self, tmp_path):
        path = tmp_path / "bench.cfg"
        path.write_text("preset = full\n")
        cfg = load_config(path)
        assert cfg.sdf_total_count == 5_000_000
        assert cfg.latent_dim == 256
        assert cfg.decoder_hidden == (512,) * 8
        # untouched fields keep their desk defaults
        assert cfg.grid_resolution == BenchConfig().grid_resolution

    def test_unknown_preset_rejected(self):
        with pytest.raises(InvalidInputError):
            apply_preset(replace(BenchConfig(), preset="huge"))

    def test_derived_configs_carry_fields(self):
        cfg = replace(
            BenchConfig(),
            decoder_lr_decay=0.99,
            mirror_lr_decay=0.98,
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
        assert mir.lr_decay == pytest.approx(0.98)
        assert mir.seed == 9
        samp = cfg.sampling_config(3)
        assert samp.total_count == cfg.sdf_total_count
        assert samp.seed == 3
        filt = cfg.filter_config()
        assert filt.voxel_size == pytest.approx(cfg.eval_filter_voxel)
        assert filt.min_points_per_voxel == cfg.eval_filter_min_points


# ---------------------------------------------------------------------------
# timing


class TestTiming:
    def test_ratio(self):
        assert TimingResult(mirror_ms=2.0, sdf_ms=10.0).ratio == pytest.approx(5.0)

    def test_repetitions_must_be_positive(self, unit_sphere, front_camera):
        from reconbench.autodecoder import TrainConfig, init_decoder
        from reconbench.mirror import MirrorTrainConfig, init_mirror_model

        dec = init_decoder(
            TrainConfig(latent_dim=2, hidden=(4,)), np.random.default_rng(0)
        )
        mir = init_mirror_model(MirrorTrainConfig(channels=(1,)))
        with pytest.raises(InvalidInputError):
            time_methods(
                unit_sphere,
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
            unit_sphere,
            front_camera,
            dec,
            mir,
            np.zeros(2),
            grid_resolution=8,
            repetitions=2,
        )
        assert result.mirror_ms > 0
        assert result.sdf_ms > 0


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
        "decoder_batch_size = 256\n"
        "infer_steps = 3\n"
        "infer_max_samples = 500\n"
        "grid_resolution = 12\n"
        "mirror_channels = 1\n"
        "mirror_epochs = 2\n"
        "gt_surface_samples = 500\n"
        "bench_repetitions = 1\n"
    )
    return path


class TestCli:
    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["--bogus"]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_a_usage_error(self, capsys):
        assert main(["gen-data", "--wat", "3"]) == 1
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
        cfg.write_text("grib_resolution = 3\n")
        code = main(
            ["gen-data", "--out", str(tmp_path / "ws"), "--config", str(cfg)]
        )
        assert code == 1
        capsys.readouterr()

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
