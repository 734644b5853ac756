"""Dataset generation, evaluation, reporting, and timing.

Dataset layout, one directory per instance::

    <out>/<category>/<train|test>/<id>/mesh.obj
    <out>/<category>/<train|test>/<id>/views/view_00.pfm (+ .cam)
    <out>/<category>/<train|test>/<id>/meta.json

Models land in ``<out>/models/``, evaluation records in
``<out>/results.csv``, and the aggregated table in ``<out>/report.csv``
and ``report.txt``.  Generation is deterministic: the same seed writes
bit-identical files.
"""
from __future__ import annotations

import dataclasses
import json
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodecoder, mirror
from .config import BenchConfig
from .depth import DepthImage, render_depth
from .errors import InvalidInputError, MissingArtifactError
from .fileio import (
    load_camera,
    load_obj,
    load_pfm,
    load_samples,
    save_camera,
    save_obj,
    save_pfm,
    save_samples,
)
from .geometry import CameraModel, PointCloud, camera_looking_at, normalize_to_unit_sphere
from .metrics import chamfer_hausdorff, voxel_downsample, voxel_filter
from .sdf import SdfSamples, sample_training_set
from .shapes import CATEGORIES, ShapeSpec, build_mesh, sample_spec

METHODS = ("mirror_oracle", "mirror_learned", "deepsdf")

RESULTS_HEADER = "method,category,instance,view,d_c,d_h,inference_ms,point_count"

# purpose codes appended to an instance's seed entropy
_SEED_SHAPE = 0
_SEED_CAMERAS = 1
_SEED_SDF = 2
_SEED_GT = 3


@dataclass(frozen=True)
class EvalRecord:
    """One method's result on one test view."""

    method: str
    category: str
    instance: str
    view: int
    d_c: float
    d_h: float
    inference_ms: float
    point_count: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if self.d_c < 0 or self.d_h < 0:
            raise InvalidInputError("distances must be non-negative")
        if self.inference_ms <= 0:
            raise InvalidInputError("inference_ms must be strictly positive")
        if self.point_count < 0:
            raise InvalidInputError("point_count must be non-negative")


def _instance_entropy(seed: int, category: str, split: str, index: int) -> list[int]:
    return [int(seed), CATEGORIES.index(category), 0 if split == "train" else 1, index]


def _rng_for(entropy: Sequence[int], purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy) + [purpose]))


def ring_camera(rng: np.random.Generator, cfg: BenchConfig) -> CameraModel:
    """Random viewpoint on the camera ring around the origin."""
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    max_el = np.deg2rad(cfg.camera_max_elevation_deg)
    elevation = rng.uniform(-max_el, max_el)
    r = cfg.camera_radius
    eye = np.array(
        [
            r * np.cos(elevation) * np.cos(azimuth),
            r * np.cos(elevation) * np.sin(azimuth),
            r * np.sin(elevation),
        ]
    )
    return camera_looking_at(
        eye, (0.0, 0.0, 0.0), cfg.image_width, cfg.image_height, cfg.vertical_fov_deg
    )


def _build_instance(entropy: list[int]) -> tuple[ShapeSpec, object, float, np.ndarray]:
    category = CATEGORIES[entropy[1]]
    rng = _rng_for(entropy, _SEED_SHAPE)
    spec = sample_spec(category, rng)
    mesh = build_mesh(spec)
    normalized, scale, center = normalize_to_unit_sphere(mesh)
    normalized.validate()
    return spec, normalized, scale, center


def generate_dataset(
    out_dir,
    categories: Sequence[str],
    train_count: int,
    test_count: int,
    seed: int,
    cfg: BenchConfig,
) -> dict:
    """Write meshes, camera rings, and rendered views for every instance.

    Returns the dataset manifest (also stored as dataset.json).
    """
    out = Path(out_dir)
    categories = list(categories)
    for cat in categories:
        if cat not in CATEGORIES:
            raise InvalidInputError(f"unknown category {cat!r}")
    if train_count < 0 or test_count < 0:
        raise InvalidInputError("instance counts must be non-negative")
    out.mkdir(parents=True, exist_ok=True)
    for category in categories:
        for split, count, n_views in (
            ("train", train_count, cfg.views_per_train_instance),
            ("test", test_count, cfg.views_per_test_instance),
        ):
            for index in range(count):
                entropy = _instance_entropy(seed, category, split, index)
                spec, mesh, scale, center = _build_instance(entropy)
                inst_dir = out / category / split / f"{index:03d}"
                views_dir = inst_dir / "views"
                views_dir.mkdir(parents=True, exist_ok=True)
                save_obj(inst_dir / "mesh.obj", mesh)
                cam_rng = _rng_for(entropy, _SEED_CAMERAS)
                for v in range(n_views):
                    cam = ring_camera(cam_rng, cfg)
                    image = render_depth(mesh, cam)
                    save_pfm(views_dir / f"view_{v:02d}.pfm", image.depth)
                    save_camera(views_dir / f"view_{v:02d}.cam", cam)
                meta = {
                    "category": category,
                    "split": split,
                    "index": index,
                    "seed_entropy": entropy,
                    "params": {
                        k: repr(float(v)) for k, v in sorted(spec.params.items())
                    },
                    "normalize_scale": repr(float(scale)),
                    "normalize_center": [repr(float(x)) for x in center],
                    "views": n_views,
                }
                (inst_dir / "meta.json").write_text(
                    json.dumps(meta, sort_keys=True, indent=1) + "\n"
                )
    manifest = {
        "categories": categories,
        "train_count": train_count,
        "test_count": test_count,
        "seed": seed,
        "views_per_train_instance": cfg.views_per_train_instance,
        "views_per_test_instance": cfg.views_per_test_instance,
    }
    (out / "dataset.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    )
    return manifest


def read_manifest(data_dir) -> dict:
    path = Path(data_dir) / "dataset.json"
    if not path.exists():
        raise MissingArtifactError(f"no dataset manifest at {path}")
    return json.loads(path.read_text())


def _instance_dirs(data_dir, categories, split) -> list[Path]:
    dirs = []
    for category in categories:
        base = Path(data_dir) / category / split
        if not base.exists():
            raise MissingArtifactError(f"dataset misses {base}")
        dirs.extend(sorted(p for p in base.iterdir() if p.is_dir()))
    return dirs


def _load_meta(inst_dir: Path) -> dict:
    path = inst_dir / "meta.json"
    if not path.exists():
        raise MissingArtifactError(f"missing instance metadata {path}")
    return json.loads(path.read_text())


def load_view(inst_dir: Path, view: int) -> tuple[DepthImage, CameraModel]:
    stem = inst_dir / "views" / f"view_{view:02d}"
    image = DepthImage(load_pfm(stem.with_suffix(".pfm")))
    cam = load_camera(stem.with_suffix(".cam"))
    return image, cam


# ---------------------------------------------------------------------------
# training entry points


def _instance_samples(inst_dir: Path, cfg: BenchConfig) -> SdfSamples:
    """SDF samples for one instance, cached beside the mesh.

    The cache is reused only when its stored header equals the one the
    current config would write; otherwise the samples are regenerated.
    """
    meta = _load_meta(inst_dir)
    sample_seed = int(
        _rng_for(meta["seed_entropy"], _SEED_SDF).integers(0, 2**63 - 1)
    )
    scfg = cfg.sampling_config(sample_seed)
    # string values, as load_samples returns them
    header = {
        "seed": str(sample_seed),
        "total_count": str(scfg.total_count),
        "near_surface_fraction": repr(scfg.near_surface_fraction),
        "surface_noise_sigma": repr(scfg.surface_noise_sigma),
        "ball_radius": repr(scfg.ball_radius),
        "negative_floor_tau": repr(scfg.negative_floor_tau),
    }
    cache = inst_dir / "sdf_samples.bin"
    if cache.exists():
        points, sdf_vals, stored = load_samples(cache)
        if stored == header:
            return SdfSamples(points, sdf_vals)
    samples = sample_training_set(load_obj(inst_dir / "mesh.obj"), scfg)
    save_samples(cache, samples.points, samples.sdf, header)
    return samples


def train_sdf_backend(data_dir, categories, seed: int, cfg: BenchConfig) -> Path:
    """Train the auto-decoder on every training instance; returns the
    model path (<out>/models/decoder.rbsd)."""
    dirs = _instance_dirs(data_dir, categories, "train")
    if not dirs:
        raise MissingArtifactError("no training instances found")
    samples = [_instance_samples(d, cfg) for d in dirs]
    tcfg = cfg.decoder_config(seed)
    result = autodecoder.train_autodecoder(samples, tcfg)
    models = Path(data_dir) / "models"
    models.mkdir(exist_ok=True)
    out_path = models / "decoder.rbsd"
    autodecoder.save_decoder(out_path, result.params, result.codes)
    return out_path


def train_mirror_backend(data_dir, categories, seed: int, cfg: BenchConfig) -> Path:
    """Build (front, splat, target) pairs from the training views, store
    them as PFM triples, and fit the completion network on the reloaded
    pairs.  Returns the model path (<out>/models/mirror.rbmr)."""
    dirs = _instance_dirs(data_dir, categories, "train")
    if not dirs:
        raise MissingArtifactError("no training instances found")
    examples = []
    for inst_dir in dirs:
        meta = _load_meta(inst_dir)
        mesh = load_obj(inst_dir / "mesh.obj")
        for v in range(int(meta["views"])):
            observed, cam = load_view(inst_dir, v)
            virtual = mirror.mirror_pose(cam, (0.0, 0.0, 0.0))
            splat, _ = mirror.splat_into_view(observed, cam, virtual)
            target = render_depth(mesh, virtual)
            examples.append((observed, splat, target))
    pairs_dir = Path(data_dir) / "mirror_pairs"
    mirror.save_training_pairs(pairs_dir, examples)
    pairs, _ = mirror.load_training_pairs(pairs_dir)
    result = mirror.train_mirror_model(pairs, cfg.mirror_config(seed))
    models = Path(data_dir) / "models"
    models.mkdir(exist_ok=True)
    out_path = models / "mirror.rbmr"
    mirror.save_mirror_model(out_path, result.params)
    return out_path


# ---------------------------------------------------------------------------
# evaluation


def _ground_truth_cloud(inst_dir: Path, cfg: BenchConfig) -> PointCloud:
    meta = _load_meta(inst_dir)
    mesh = load_obj(inst_dir / "mesh.obj")
    rng = _rng_for(meta["seed_entropy"], _SEED_GT)
    return PointCloud.from_points(mesh.sample_surface(cfg.gt_surface_samples, rng))


def _evaluate_view(
    inst_dir: Path,
    category: str,
    view: int,
    methods: Sequence[str],
    cfg: BenchConfig,
    decoder_params,
    decoder_cfg,
    mirror_params,
    gt_down: PointCloud,
    mesh,
) -> list[EvalRecord]:
    observed, cam = load_view(inst_dir, view)
    records = []
    for method in METHODS:
        if method not in methods:
            continue
        if method == "deepsdf":
            start = time.perf_counter()
            z = None
            if cfg.infer_coarse_steps > 0:
                # wide-band pass first: with a narrow clamp the loss has
                # no gradient wherever the current field is further than
                # clamp_delta from the observations
                wide = autodecoder.view_samples_for_inference(
                    observed,
                    cam,
                    spacing=cfg.infer_spacing,
                    value_cap=cfg.infer_coarse_delta,
                    max_count=cfg.infer_max_samples,
                )
                coarse_cfg = dataclasses.replace(
                    decoder_cfg,
                    clamp_delta=cfg.infer_coarse_delta,
                    epochs=cfg.infer_coarse_steps,
                )
                z = autodecoder.infer_latent(decoder_params, wide, coarse_cfg)
            obs = autodecoder.view_samples_for_inference(
                observed,
                cam,
                spacing=cfg.infer_spacing,
                value_cap=cfg.clamp_delta,
                max_count=cfg.infer_max_samples,
            )
            z = autodecoder.infer_latent(decoder_params, obs, decoder_cfg, init=z)
            cloud, _ = autodecoder.reconstruct(
                decoder_params, z, cfg.grid_resolution
            )
            elapsed = time.perf_counter() - start
        else:
            if method == "mirror_oracle":
                completion = mirror.oracle_completion(mesh)
            else:
                completion = mirror.learned_completion(mirror_params)
            cloud, elapsed = mirror.reconstruct_view_dependent(
                observed, cam, completion, (0.0, 0.0, 0.0)
            )
            cloud = voxel_filter(cloud, cfg.filter_config())
        if len(cloud) == 0:
            raise InvalidInputError(
                f"{method} produced no points on {inst_dir.name} view {view}"
            )
        pred_down = voxel_downsample(cloud, cfg.eval_downsample_voxel)
        d_c, d_h = chamfer_hausdorff(pred_down, gt_down)
        records.append(
            EvalRecord(
                method=method,
                category=category,
                instance=inst_dir.name,
                view=view,
                d_c=d_c,
                d_h=d_h,
                inference_ms=max(elapsed * 1e3, 1e-6),
                point_count=len(cloud),
            )
        )
    return records


def run_evaluation(
    data_dir,
    categories: Sequence[str],
    methods: Sequence[str],
    cfg: BenchConfig,
) -> list[EvalRecord]:
    """Reconstruct every test view with every requested method.

    Results come back sorted by (method, category, instance, view).
    """
    for m in methods:
        if m not in METHODS:
            raise InvalidInputError(f"unknown method {m!r}")
    manifest = read_manifest(data_dir)
    categories = list(categories) if categories else list(manifest["categories"])
    models = Path(data_dir) / "models"
    decoder_params = None
    decoder_cfg = None
    mirror_params = None
    if "deepsdf" in methods:
        decoder_params, _ = autodecoder.load_decoder(models / "decoder.rbsd")
        decoder_cfg = cfg.decoder_config(0, epochs=cfg.infer_steps)
    if "mirror_learned" in methods:
        mirror_params = mirror.load_mirror_model(models / "mirror.rbmr")

    records = []
    for inst_dir in _instance_dirs(data_dir, categories, "test"):
        meta = _load_meta(inst_dir)
        mesh = load_obj(inst_dir / "mesh.obj")
        gt_down = voxel_downsample(
            _ground_truth_cloud(inst_dir, cfg), cfg.eval_downsample_voxel
        )
        n_views = min(int(meta["views"]), cfg.views_per_test_instance)
        for view in range(n_views):
            records += _evaluate_view(
                inst_dir,
                meta["category"],
                view,
                methods,
                cfg,
                decoder_params,
                decoder_cfg,
                mirror_params,
                gt_down,
                mesh,
            )
    records.sort(
        key=lambda r: (METHODS.index(r.method), r.category, r.instance, r.view)
    )
    return records


def write_results(path, records: Sequence[EvalRecord]) -> None:
    lines = [RESULTS_HEADER]
    for r in records:
        lines.append(
            f"{r.method},{r.category},{r.instance},{r.view},"
            f"{r.d_c!r},{r.d_h!r},{r.inference_ms!r},{r.point_count}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_results(path) -> list[EvalRecord]:
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"no results file at {path}")
    lines = path.read_text().splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        raise InvalidInputError(f"unexpected results header in {path}")
    records = []
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 8:
            raise InvalidInputError(f"malformed results row: {line!r}")
        records.append(
            EvalRecord(
                method=parts[0],
                category=parts[1],
                instance=parts[2],
                view=int(parts[3]),
                d_c=float(parts[4]),
                d_h=float(parts[5]),
                inference_ms=float(parts[6]),
                point_count=int(parts[7]),
            )
        )
    return records


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class Report:
    """Per-category means, one row per (metric, method)."""

    categories: tuple[str, ...]
    methods: tuple[str, ...]
    metrics: tuple[str, ...]
    means: dict  # (metric, method, category) -> float

    def winners(self) -> dict:
        """(metric, category) -> winning method (lowest mean)."""
        best: dict = {}
        for metric in self.metrics:
            for cat in self.categories:
                candidates = [
                    (self.means[(metric, m, cat)], m)
                    for m in self.methods
                    if (metric, m, cat) in self.means
                ]
                if candidates:
                    best[(metric, cat)] = min(candidates)[1]
        return best

    def to_csv(self) -> str:
        lines = ["metric,method," + ",".join(self.categories)]
        for metric in self.metrics:
            for method in self.methods:
                cells = []
                for cat in self.categories:
                    value = self.means.get((metric, method, cat))
                    cells.append("" if value is None else repr(value))
                lines.append(f"{metric},{method}," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Aligned table; the best method per column gets a * marker."""
        best = self.winners()
        width = 12
        name_w = max(
            [len("metric  method")]
            + [len(f"{m}  {meth}") for m in self.metrics for meth in self.methods]
        )
        header = "metric  method".ljust(name_w) + "".join(
            c.rjust(width) for c in self.categories
        )
        lines = [header]
        for metric in self.metrics:
            for method in self.methods:
                row = f"{metric}  {method}".ljust(name_w)
                for cat in self.categories:
                    value = self.means.get((metric, method, cat))
                    if value is None:
                        cell = "-"
                    else:
                        cell = f"{value:.4f}"
                        if best.get((metric, cat)) == method:
                            cell = "*" + cell
                    row += cell.rjust(width)
                lines.append(row)
        return "\n".join(lines) + "\n"


def report(records: Sequence[EvalRecord]) -> Report:
    """Aggregate evaluation records into the benchmark table."""
    if not records:
        raise InvalidInputError("no records to report on")
    categories = tuple(c for c in CATEGORIES if any(r.category == c for r in records))
    methods = tuple(m for m in METHODS if any(r.method == m for r in records))
    means: dict = {}
    for metric, getter in (("d_c", lambda r: r.d_c), ("d_h", lambda r: r.d_h)):
        for method in methods:
            for cat in categories:
                values = [
                    getter(r)
                    for r in records
                    if r.method == method and r.category == cat
                ]
                if values:
                    means[(metric, method, cat)] = float(np.mean(values))
    return Report(categories, methods, ("d_c", "d_h"), means)


def parse_report_csv(text: str) -> Report:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidInputError("empty report")
    header = lines[0].split(",")
    if header[:2] != ["metric", "method"]:
        raise InvalidInputError("unexpected report header")
    categories = tuple(header[2:])
    means: dict = {}
    metrics = []
    methods = []
    for line in lines[1:]:
        parts = line.split(",")
        metric, method = parts[0], parts[1]
        if metric not in metrics:
            metrics.append(metric)
        if method not in methods:
            methods.append(method)
        for cat, cell in zip(categories, parts[2:]):
            if cell:
                means[(metric, method, cat)] = float(cell)
    return Report(categories, tuple(methods), tuple(metrics), means)


# ---------------------------------------------------------------------------
# timing


@dataclass(frozen=True)
class TimingResult:
    mirror_ms: float
    sdf_ms: float

    @property
    def ratio(self) -> float:
        return self.sdf_ms / self.mirror_ms


def time_methods(
    mesh,
    cam: CameraModel,
    decoder_params: autodecoder.DecoderParams,
    mirror_params: mirror.MirrorModelParams,
    latent: np.ndarray,
    grid_resolution: int = 64,
    repetitions: int = 5,
) -> TimingResult:
    """Median single-threaded wall time per object for both methods.

    Mirror time covers learned completion plus fusion; SDF time covers
    one grid reconstruction with the latent held fixed.  Disk access
    stays outside the clocks.
    """
    if repetitions < 1:
        raise InvalidInputError("repetitions must be at least 1")
    observed = render_depth(mesh, cam)
    completion = mirror.learned_completion(mirror_params)
    mirror_times = []
    sdf_times = []
    for _ in range(repetitions):
        _, secs = mirror.reconstruct_view_dependent(
            observed, cam, completion, (0.0, 0.0, 0.0)
        )
        mirror_times.append(secs * 1e3)
        _, secs = autodecoder.reconstruct(decoder_params, latent, grid_resolution)
        sdf_times.append(secs * 1e3)
    return TimingResult(
        mirror_ms=statistics.median(mirror_times),
        sdf_ms=statistics.median(sdf_times),
    )
