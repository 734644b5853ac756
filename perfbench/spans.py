"""In-memory span recorder that wraps reconbench's public functions.

A traced call records a span ``(name, start, end, parent, run)``; the
parent is the enclosing traced call, ``run`` the benchmark repetition.
Spans stay in a list until the run ends.  Wrapping happens from outside
the package: every module namespace that holds the original function
object gets the wrapper instead, so intra-package callers that looked a
name up with ``from .x import f`` are traced too.  ``uninstall`` puts
every original back.
"""
from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


# (module, function, span name or None for "<module>.<function>")
TRACED = [
    ("raycast", "first_hits", None),
    ("raycast", "crossing_parity", None),
    ("sdf", "unsigned_distances", None),
    ("sdf", "inside_mask", None),
    ("sdf", "signed_distances", None),
    ("sdf", "sample_training_set", None),
    ("sdf", "evaluate_on_grid", None),
    ("sdf", "numeric_gradient", None),
    ("sdf", "extract_surface_points", None),
    ("depth", "render_depth", None),
    ("depth", "splat_cloud", None),
    ("depth", "back_project", None),
    ("autodecoder", "train_autodecoder", None),
    ("autodecoder", "infer_latent", None),
    ("autodecoder", "view_samples_for_inference", None),
    ("autodecoder", "reconstruct", None),
    ("mirror", "train_mirror_model", None),
    ("mirror", "training_loss_gradients", None),
    ("mirror", "conv2d", None),
    ("mirror", "save_training_pairs", None),
    ("mirror", "load_training_pairs", None),
    ("mirror", "mirror_forward", None),
    ("mirror", "complete_view_learned", None),
    ("mirror", "complete_view_oracle", None),
    ("mirror", "reconstruct_view_dependent", None),
    ("metrics", "chamfer_hausdorff", None),
    ("metrics", "nearest_distances", None),
    ("metrics", "voxel_downsample", None),
    ("metrics", "voxel_filter", None),
    ("fileio", "load_obj", "fileio.read"),
    ("fileio", "load_pfm", "fileio.read"),
    ("fileio", "load_camera", "fileio.read"),
    ("fileio", "load_samples", "fileio.read"),
    ("fileio", "load_tensors", "fileio.read"),
    ("fileio", "save_obj", "fileio.write"),
    ("fileio", "save_pfm", "fileio.write"),
    ("fileio", "save_camera", "fileio.write"),
    ("fileio", "save_samples", "fileio.write"),
    ("fileio", "save_tensors", "fileio.write"),
    ("bench", "generate_dataset", None),
    ("bench", "train_sdf_backend", None),
    ("bench", "train_mirror_backend", None),
    ("bench", "run_evaluation", None),
    ("bench", "write_results", None),
    ("bench", "read_results", None),
    ("bench", "report", None),
    ("bench", "time_methods", None),
]


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _ray_tri_pairs(args, kwargs, result):
    rays = len(_arg(args, kwargs, 0, "origins"))
    return {"ray_tri_pairs": rays * len(_arg(args, kwargs, 2, "mesh")), "rays": rays}


def _point_tri_pairs(args, kwargs, result):
    pts = np.asarray(_arg(args, kwargs, 0, "points")).reshape(-1, 3)
    return {"point_tri_pairs": len(pts) * len(_arg(args, kwargs, 1, "mesh"))}


def _inside_points(args, kwargs, result):
    return {"points": len(result)}


def _valid_pixels(args, kwargs, result):
    return {"valid_pixels": result.valid_count(), "pixels": result.depth.size}


def _candidates(args, kwargs, result):
    res = _arg(args, kwargs, 1, "resolution")
    return {"returned": len(result), "grid_points": res**3}


def _decoder_steps(args, kwargs, result):
    samples, cfg = _arg(args, kwargs, 0, "samples_per_object"), _arg(args, kwargs, 1, "cfg")
    n = sum(len(s) for s in samples)
    return {"steps": cfg.epochs * -(-n // cfg.batch_size)}


def _infer_steps(args, kwargs, result):
    return {"steps": _arg(args, kwargs, 2, "cfg").epochs}


def _nn_pairs(args, kwargs, result):
    a, b = (_arg(args, kwargs, 0, "queries"), _arg(args, kwargs, 1, "reference"))
    return {"pairs": len(a) * len(b)}


COUNTERS: dict[str, Callable] = {
    "raycast.first_hits": _ray_tri_pairs,
    "raycast.crossing_parity": _ray_tri_pairs,
    "sdf.unsigned_distances": _point_tri_pairs,
    "sdf.inside_mask": _inside_points,
    "depth.render_depth": _valid_pixels,
    "sdf.extract_surface_points": _candidates,
    "autodecoder.train_autodecoder": _decoder_steps,
    "autodecoder.infer_latent": _infer_steps,
    "metrics.nearest_distances": _nn_pairs,
    "fileio.read": _file_bytes,
    "fileio.write": _file_bytes,
}


class Tracer:
    """Records spans and counters for the wrapped functions of one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[(name, key)] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every traced function for its wrapper, in every
        reconbench module that refers to it by name."""
        modules = [
            m for key, m in sys.modules.items()
            if key == "reconbench" or key.startswith("reconbench.")
        ]
        for module_name, fn_name, span_name in TRACED:
            home = sys.modules[f"reconbench.{module_name}"]
            original = getattr(home, fn_name)
            wrapper = self._wrap(original, span_name or f"{module_name}.{fn_name}")
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    self._patched.append((module, fn_name, original))
                    setattr(module, fn_name, wrapper)

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._patched):
            setattr(module, fn_name, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        The program is single-threaded, so sibling spans never overlap
        and the covered time is the sum of the children's durations.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own


# per-layer metrics reported by a traced run: (name, unit); a name is
# "<span>.<stat>" for a span statistic, or a ratio/count defined below
_SPAN_STATS = {
    "calls": "count", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms",
}
LAYER_METRICS = [
    ("raycast.first_hits", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("raycast.crossing_parity", ("calls", "self_s", "p50_ms")),
    ("sdf.unsigned_distances", ("calls", "self_s", "p50_ms")),
    ("sdf.inside_mask", ("self_s",)),
    ("sdf.evaluate_on_grid", ("calls", "self_s", "p50_ms")),
    ("sdf.numeric_gradient", ("calls", "self_s", "p50_ms")),
    ("sdf.extract_surface_points", ("self_s",)),
    ("depth.render_depth", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("depth.splat_cloud", ("self_s",)),
    ("depth.back_project", ("self_s",)),
    ("autodecoder.train_autodecoder", ("self_s",)),
    ("autodecoder.infer_latent", ("calls", "self_s")),
    ("autodecoder.view_samples_for_inference", ("self_s",)),
    ("autodecoder.reconstruct", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("mirror.training_loss_gradients", ("calls", "self_s", "p50_ms")),
    ("mirror.conv2d", ("calls", "self_s", "p50_ms")),
    ("mirror.save_training_pairs", ("self_s",)),
    ("mirror.load_training_pairs", ("self_s",)),
    ("mirror.mirror_forward", ("p50_ms",)),
    ("mirror.complete_view_learned", ("p50_ms",)),
    ("mirror.complete_view_oracle", ("p50_ms",)),
    ("mirror.reconstruct_view_dependent", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("metrics.chamfer_hausdorff", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("metrics.voxel_downsample", ("self_s",)),
    ("metrics.voxel_filter", ("self_s",)),
    ("fileio.read", ("calls", "self_s")),
    ("fileio.write", ("calls", "self_s")),
    ("bench.generate_dataset", ("self_s",)),
    ("bench.train_sdf_backend", ("self_s",)),
    ("bench.train_mirror_backend", ("self_s",)),
    ("bench.run_evaluation", ("self_s",)),
    ("bench.report", ("self_s",)),
    ("bench.time_methods", ("self_s",)),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tail(durations: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten calls beyond it (its
    value in ms and its label); the maximum below twenty calls."""
    n = len(durations)
    for pct in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return float(np.percentile(durations, pct)) * 1e3, f"p{pct:g}"
    return (max(durations) * 1e3 if durations else 0.0), "max"


def _by_name(tracer: Tracer):
    durations: dict[str, list[float]] = defaultdict(list)
    own: dict[str, float] = defaultdict(float)
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        durations[span.name].append(span.end - span.start)
        own[span.name] += self_s
    return durations, own


def layer_metrics(tracer: Tracer, runs: int) -> tuple[dict, dict]:
    """Per-layer metrics (counts and self times per repetition) plus
    the percentile each ``tail_ms`` stands for."""
    durations, own = _by_name(tracer)
    count = lambda span, key: tracer.counts[(span, key)] / runs  # noqa: E731
    out: dict = {}
    tails: dict = {}
    for span, stats in LAYER_METRICS:
        d = durations.get(span, [])
        for stat in stats:
            if stat == "calls":
                value = len(d) / runs
            elif stat == "self_s":
                value = own.get(span, 0.0) / runs
            elif stat == "p50_ms":
                value = float(np.median(d)) * 1e3 if d else 0.0
            else:
                value, tails[span] = _tail(d)
            out[f"{span}.{stat}"] = {"value": value, "unit": _SPAN_STATS[stat]}
    derived = {
        "raycast.first_hits.ray_tri_pairs":
            (count("raycast.first_hits", "ray_tri_pairs"), "count"),
        "sdf.unsigned_distances.point_tri_pairs":
            (count("sdf.unsigned_distances", "point_tri_pairs"), "count"),
        "sdf.inside_mask.retry_frac": (_ratio(
            count("raycast.crossing_parity", "rays") - count("sdf.inside_mask", "points"),
            count("sdf.inside_mask", "points")), "frac"),
        "depth.valid_pixel_frac": (_ratio(
            count("depth.render_depth", "valid_pixels"),
            count("depth.render_depth", "pixels")), "frac"),
        "sdf.extract_surface_points.candidate_frac": (_ratio(
            count("sdf.extract_surface_points", "returned"),
            count("sdf.extract_surface_points", "grid_points")), "frac"),
        "autodecoder.train_autodecoder.step_ms": (_ratio(
            own.get("autodecoder.train_autodecoder", 0.0) * 1e3,
            tracer.counts[("autodecoder.train_autodecoder", "steps")]), "ms"),
        "autodecoder.infer_latent.step_ms": (_ratio(
            own.get("autodecoder.infer_latent", 0.0) * 1e3,
            tracer.counts[("autodecoder.infer_latent", "steps")]), "ms"),
        "metrics.nearest_distances.pairs":
            (count("metrics.nearest_distances", "pairs"), "count"),
        "fileio.read.bytes": (count("fileio.read", "bytes"), "B"),
        "fileio.write.bytes": (count("fileio.write", "bytes"), "B"),
    }
    for name, (value, unit) in derived.items():
        out[name] = {"value": value, "unit": unit}
    return out, tails


def profile(tracer: Tracer, runs: int) -> list[dict]:
    """Every span name with calls, total and self seconds per
    repetition, largest self time first."""
    durations, own = _by_name(tracer)
    rows = [
        {"span": name, "calls": len(d) / runs, "total_s": sum(d) / runs,
         "self_s": own[name] / runs}
        for name, d in durations.items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])
