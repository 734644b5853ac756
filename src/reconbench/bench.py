"""Dataset generation, evaluation, reporting, and timing.

Dataset layout, one directory per instance::

    <out>/<category>/<train|test>/<id>/mesh.obj
    <out>/<category>/<train|test>/<id>/views/view_00.pfm (+ .cam)
    <out>/<category>/<train|test>/<id>/meta.json

Models land in ``<out>/models/`` beside their per-epoch training loss
curves (``decoder_losses.json``, ``mirror_losses.json``), evaluation
records in ``<out>/results.csv``, and the aggregated table in
``<out>/report.csv`` and ``report.txt``.  Generation is deterministic: the same seed writes
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
    write_atomic,
)
from .geometry import CameraModel, PointCloud, camera_looking_at, normalize_to_unit_sphere
from .metrics import VoxelFilterConfig, chamfer_hausdorff, voxel_downsample, voxel_filter
from .sdf import (
    GRID_RADIUS,
    NEAR_SURFACE_FRACTION,
    SURFACE_NOISE_SIGMA,
    SdfSamples,
    sample_training_set,
)
from .shapes import CATEGORIES, ShapeSpec, build_mesh, sample_spec

METHODS = ("mirror_oracle", "mirror_learned", "deepsdf")

RESULTS_HEADER = "method,category,instance,view,d_c,d_h,inference_ms,point_count"

# purpose codes appended to an instance's seed entropy
_SEED_SHAPE = 0
_SEED_CAMERAS = 1
_SEED_SDF = 2
_SEED_GT = 3

# clamp of latent inference's coarse wide-band pass, which keeps code
# gradients alive when the initial field is far from the observed surface
_INFER_COARSE_DELTA = 0.5
# voxel size both clouds are thinned to before chamfer and hausdorff
_EVAL_DOWNSAMPLE_VOXEL = 0.02
# drops the sparse stray points of a mirror reconstruction before scoring
_EVAL_FILTER = VoxelFilterConfig(voxel_size=0.1, min_points_per_voxel=2)
# the ring every view is rendered from: distance to the origin and the
# largest elevation above or below the equator
_CAMERA_RADIUS = 2.0
_CAMERA_MAX_ELEVATION_DEG = 60.0


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
        if self.category not in CATEGORIES:
            raise InvalidInputError(f"unknown category {self.category!r}")
        # chained comparisons are false for nan, so they also reject it
        if not (0 <= self.d_c < np.inf and 0 <= self.d_h < np.inf):
            raise InvalidInputError("d_c and d_h must be finite and non-negative")
        if not 0 < self.inference_ms < np.inf:
            raise InvalidInputError("inference_ms must be finite and strictly positive")
        if self.point_count < 0:
            raise InvalidInputError("point_count must be non-negative")


def _instance_entropy(seed: int, category: str, split: str, index: int) -> list[int]:
    return [int(seed), CATEGORIES.index(category), 0 if split == "train" else 1, index]


def _rng_for(entropy: Sequence[int], purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(entropy) + [purpose]))


def ring_camera(rng: np.random.Generator, cfg: BenchConfig) -> CameraModel:
    """Random viewpoint on the camera ring around the origin."""
    azimuth = rng.uniform(0.0, 2.0 * np.pi)
    max_el = np.deg2rad(_CAMERA_MAX_ELEVATION_DEG)
    elevation = rng.uniform(-max_el, max_el)
    r = _CAMERA_RADIUS
    eye = np.array(
        [
            r * np.cos(elevation) * np.cos(azimuth),
            r * np.cos(elevation) * np.sin(azimuth),
            r * np.sin(elevation),
        ]
    )
    return camera_looking_at(eye, (0.0, 0.0, 0.0), cfg.image_width, cfg.image_height)


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
    if not categories:
        raise InvalidInputError("need at least one category")
    if len(set(categories)) < len(categories):
        raise InvalidInputError(f"a category is named twice: {categories}")
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
                write_atomic(
                    inst_dir / "meta.json",
                    (json.dumps(meta, sort_keys=True, indent=1) + "\n").encode(),
                )
    manifest = {
        "categories": categories,
        "train_count": train_count,
        "test_count": test_count,
        "seed": seed,
        "views_per_train_instance": cfg.views_per_train_instance,
        "views_per_test_instance": cfg.views_per_test_instance,
    }
    write_atomic(
        out / "dataset.json",
        (json.dumps(manifest, sort_keys=True, indent=1) + "\n").encode(),
    )
    return manifest


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _is_names(value) -> bool:
    return (
        isinstance(value, list)
        and bool(value)
        and all(isinstance(v, str) for v in value)
        and len(set(value)) == len(value)
    )


# the fields the pipeline reads from each JSON file: check and description
_MANIFEST_FIELDS = {"categories": (_is_names, "a non-empty list of distinct strings")}
_META_FIELDS = {
    "category": (lambda v: isinstance(v, str), "a string"),
    "seed_entropy": (
        lambda v: isinstance(v, list) and all(_is_count(x) for x in v),
        "a list of non-negative integers",
    ),
    "views": (_is_count, "a non-negative integer"),
}


def _read_json(path: Path, fields: dict) -> dict:
    """The JSON object in ``path``, whose ``fields`` each pass their check."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise InvalidInputError(f"unreadable JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidInputError(f"{path} must hold a JSON object")
    for key, (valid, kind) in fields.items():
        if key not in doc:
            raise InvalidInputError(f"{path} misses the field {key!r}")
        if not valid(doc[key]):
            raise InvalidInputError(f"field {key!r} in {path} must be {kind}")
    return doc


def read_manifest(data_dir) -> dict:
    path = Path(data_dir) / "dataset.json"
    if not path.exists():
        raise MissingArtifactError(f"no dataset manifest at {path}")
    return _read_json(path, _MANIFEST_FIELDS)


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
    return _read_json(path, _META_FIELDS)


def load_view(inst_dir: Path, view: int) -> tuple[DepthImage, CameraModel]:
    stem = inst_dir / "views" / f"view_{view:02d}"
    depth = load_pfm(stem.with_suffix(".pfm"))
    try:
        image = DepthImage(depth)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{exc} in {stem.with_suffix('.pfm')}") from None
    cam = load_camera(stem.with_suffix(".cam"))
    return image, cam


# ---------------------------------------------------------------------------
# training entry points


def _instance_samples(inst_dir: Path, cfg: BenchConfig) -> SdfSamples:
    """SDF samples for one instance, cached beside the mesh.

    The cache is reused only when it loads, its stored header equals the
    one the current config would write and its records are valid
    ``SdfSamples``; otherwise the samples are regenerated.
    """
    meta = _load_meta(inst_dir)
    sample_seed = int(
        _rng_for(meta["seed_entropy"], _SEED_SDF).integers(0, 2**63 - 1)
    )
    scfg = cfg.sampling_config(sample_seed)
    # string values, as load_samples returns them; the fixed sampling
    # values stay in the header, so a cache written under other values
    # is regenerated
    header = {
        "seed": str(sample_seed),
        "total_count": str(scfg.total_count),
        "near_surface_fraction": repr(NEAR_SURFACE_FRACTION),
        "surface_noise_sigma": repr(SURFACE_NOISE_SIGMA),
        "ball_radius": repr(GRID_RADIUS),
    }
    cache = inst_dir / "sdf_samples.bin"
    if cache.exists():
        try:
            points, sdf_vals, stored = load_samples(cache)
            if stored == header:
                return SdfSamples(points, sdf_vals)
        except InvalidInputError:
            pass
    samples = sample_training_set(load_obj(inst_dir / "mesh.obj"), scfg)
    save_samples(cache, samples.points, samples.sdf, header)
    return samples


def _save_losses(path: Path, epoch_losses: Sequence[float]) -> None:
    """The training loss curve, one mean loss per epoch, beside its model."""
    write_atomic(path, json.dumps({"epoch_losses": list(epoch_losses)}).encode("ascii"))


def train_sdf_backend(data_dir, categories, seed: int, cfg: BenchConfig) -> Path:
    """Train the auto-decoder on every training instance; returns the
    model path (<out>/models/decoder.rbsd).  The loss curve goes to
    <out>/models/decoder_losses.json."""
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
    _save_losses(models / "decoder_losses.json", result.epoch_losses)
    return out_path


def train_mirror_backend(data_dir, categories, seed: int, cfg: BenchConfig) -> Path:
    """Fit the completion network on ((splat, mask), target) pairs built
    in memory from the training views.  Returns the model path
    (<out>/models/mirror.rbmr); the loss curve goes to
    <out>/models/mirror_losses.json."""
    dirs = _instance_dirs(data_dir, categories, "train")
    if not dirs:
        raise MissingArtifactError("no training instances found")
    pairs = []
    for inst_dir in dirs:
        meta = _load_meta(inst_dir)
        mesh = load_obj(inst_dir / "mesh.obj")
        for v in range(meta["views"]):
            observed, cam = load_view(inst_dir, v)
            virtual = mirror.mirror_pose(cam, (0.0, 0.0, 0.0))
            splat_and_mask = mirror.splat_into_view(observed, cam, virtual)
            pairs.append((splat_and_mask, render_depth(mesh, virtual)))
    result = mirror.train_mirror_model(pairs, cfg.mirror_config(seed))
    models = Path(data_dir) / "models"
    models.mkdir(exist_ok=True)
    out_path = models / "mirror.rbmr"
    mirror.save_mirror_model(out_path, result.params)
    _save_losses(models / "mirror_losses.json", result.epoch_losses)
    return out_path


# ---------------------------------------------------------------------------
# evaluation


def _ground_truth_cloud(mesh, meta: dict, cfg: BenchConfig) -> PointCloud:
    rng = _rng_for(meta["seed_entropy"], _SEED_GT)
    return PointCloud.from_points(mesh.sample_surface(cfg.gt_surface_samples, rng))


def _timed(fn, *args):
    """``(fn(*args), wall ms)``: the package's one clock, read for both
    ``evaluate``'s ``inference_ms`` and ``bench-time``'s medians."""
    start = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - start) * 1e3


def _infer_and_decode(
    observed: DepthImage, cam: CameraModel, cfg: BenchConfig, decoder_params, decoder_cfg
) -> PointCloud:
    """deepsdf on one view: latent inference, then grid decoding."""
    wide = autodecoder.view_samples_for_inference(
        observed, cam, value_cap=_INFER_COARSE_DELTA, max_count=cfg.infer_max_samples
    )
    # wide-band pass first: with a narrow clamp the loss has no gradient
    # wherever the field is further than clamp_delta from the observations;
    # zero steps return the zero code, where the narrow pass would start
    coarse_cfg = dataclasses.replace(
        decoder_cfg, clamp_delta=_INFER_COARSE_DELTA, epochs=cfg.infer_coarse_steps
    )
    z = autodecoder.infer_latent(decoder_params, wide, coarse_cfg)
    # the same points and thinning draw with the narrow cap: a value is
    # its ray gap capped, and clamp_delta < _INFER_COARSE_DELTA
    obs = SdfSamples(wide.points, np.minimum(wide.sdf, decoder_cfg.clamp_delta))
    z = autodecoder.infer_latent(decoder_params, obs, decoder_cfg, init=z)
    return autodecoder.reconstruct(decoder_params, z, cfg.grid_resolution)


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
            cloud, ms = _timed(
                _infer_and_decode, observed, cam, cfg, decoder_params, decoder_cfg
            )
        else:
            if method == "mirror_oracle":
                completion = mirror.oracle_completion(mesh)
            else:
                completion = mirror.learned_completion(mirror_params)
            cloud, ms = _timed(
                mirror.reconstruct_view_dependent, observed, cam, completion
            )
            cloud = voxel_filter(cloud, _EVAL_FILTER)
        if len(cloud) == 0:
            raise InvalidInputError(
                f"{method} produced no points on {inst_dir.name} view {view}"
            )
        pred_down = voxel_downsample(cloud, _EVAL_DOWNSAMPLE_VOXEL)
        d_c, d_h = chamfer_hausdorff(pred_down, gt_down)
        records.append(
            EvalRecord(
                method=method,
                category=category,
                instance=inst_dir.name,
                view=view,
                d_c=d_c,
                d_h=d_h,
                inference_ms=max(ms, 1e-6),
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
            _ground_truth_cloud(mesh, meta, cfg), _EVAL_DOWNSAMPLE_VOXEL
        )
        n_views = min(meta["views"], cfg.views_per_test_instance)
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
    write_atomic(path, ("\n".join(lines) + "\n").encode())


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
        try:
            numbers = (int(parts[3]), *map(float, parts[4:7]), int(parts[7]))
            records.append(EvalRecord(*parts[:3], *numbers))
        except ValueError as exc:
            raise InvalidInputError(f"malformed results row {line!r}: {exc}") from None
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
    # points in the timed grid reconstruction
    sdf_points: int

    @property
    def ratio(self) -> float:
        return self.sdf_ms / self.mirror_ms


def time_methods(
    observed: DepthImage,
    cam: CameraModel,
    decoder_params: autodecoder.DecoderParams,
    mirror_params: mirror.MirrorModelParams,
    latent: np.ndarray,
    grid_resolution: int = 64,
    repetitions: int = 5,
) -> TimingResult:
    """Median wall time per object for both methods on the depth image
    ``observed``, taken by camera ``cam``, with numpy's BLAS on as many
    threads as the environment gives it (the CLI does not pin them).

    Mirror time covers learned completion plus fusion; SDF time covers
    one grid reconstruction with the latent held fixed, whose point
    count the result also holds.  Nothing is read or rendered here, so
    no disk access or rendering is timed.
    """
    if repetitions < 1:
        raise InvalidInputError("repetitions must be at least 1")
    completion = mirror.learned_completion(mirror_params)
    mirror_times = []
    sdf_times = []
    for _ in range(repetitions):
        _, ms = _timed(mirror.reconstruct_view_dependent, observed, cam, completion)
        mirror_times.append(ms)
        cloud, ms = _timed(autodecoder.reconstruct, decoder_params, latent, grid_resolution)
        sdf_times.append(ms)
    return TimingResult(
        mirror_ms=statistics.median(mirror_times),
        sdf_ms=statistics.median(sdf_times),
        sdf_points=len(cloud),
    )
