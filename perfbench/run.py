#!/usr/bin/env python3
"""reconbench's benchmark: the CLI pipeline in-process, timed and checked.

    python3 perfbench/run.py --workload train --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test micro-seed2

A run sets up ``DATASETS`` cold datasets from ``--seed`` (the set-up:
``gen-data`` plus the fixture models) and runs *rounds* on them in turn
while the next one still fits in ``--seconds``.  A round starts from an
empty training workspace and runs ``train-sdf``, ``train-mirror``,
``evaluate --methods <m> --categories <c>`` once per method and
category, ``report`` and ``bench-time`` through ``reconbench.cli.main``.
Every command is timed between two runs of the speed probe
(``probe.py``), which turns its wall time into reference seconds.  A
time metric is the mean over the datasets of its median over each
dataset's rounds; losses and quality means pool the first round on each
dataset, so they depend on the seed only.  Evaluation and
``bench-time`` use the checked-in fixture models, so training never
reaches the evaluation numbers.  See ``perfbench/README.md`` for the
metrics and why they are taken this way.

With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics.  With ``--trace 1`` every round runs twice, untraced
then traced on a freshly set-up copy of its dataset, the two must
produce identical models and results, and the line holds the per-layer
metrics of the traced rounds.  The line before it holds the machine,
the set-up and round times and, when traced, the profile.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# one BLAS thread: no slower than two on the 2-core reference machine,
# and it keeps stage times independent of what else the machine runs;
# set before anything imports numpy
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

from probe import Clock  # noqa: E402
from spans import Tracer, layer_metrics, profile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
FIXTURES = HERE / "fixtures"
FIXTURE_MODELS = ("decoder.rbsd", "mirror.rbmr")
METHODS = ("mirror_oracle", "mirror_learned", "deepsdf")
TRAIN_STAGES = ("train-sdf", "train-mirror")
OPS = (*TRAIN_STAGES, *(f"evaluate.{m}" for m in METHODS), "report", "bench-time")
# datasets per run; losses and quality pool one round on each
DATASETS = 3
# dataset k of seed s is generated with seed s + k * stride
DATA_SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class Workload:
    """Dataset and settings of one benchmark workload.

    ``train_data``/``eval_data`` are the ``gen-data`` arguments of the
    training and the evaluation workspace.  With ``eval_data`` None the
    evaluation runs in the training workspace on the freshly trained
    models instead of the fixtures (the failure self-tests need that).
    ``deepsdf_views``, when set, limits ``deepsdf`` to the first views
    of each test instance; the mirror methods evaluate them all.
    """

    train_data: tuple[str, ...]
    train_cfg: dict
    eval_data: tuple[str, ...] | None = None
    eval_cfg: dict = field(default_factory=dict)
    deepsdf_views: int | None = None


# latent inference shortened to fit many rounds into a run; every
# other evaluation setting not named below is the product default.
# The mirror methods evaluate three views of each test instance,
# deepsdf (ten times the cost per view) the first: with one view each,
# d_c/d_h of mirror_learned spread across ten seeds by up to 0.22,
# with three by up to 0.12.
_INFER_CFG = {"infer_steps": 40, "infer_coarse_steps": 20, "infer_max_samples": 1000}
_ALL = ("--categories", "laptop,mug,jar")

WORKLOADS = {
    # training heavy: 64 px views over 24 / 304 / 1280 triangles;
    # evaluation light: 32 px views, grid 32
    "train": Workload(
        train_data=(*_ALL, "--train-count", "1", "--test-count", "0"),
        # two views per instance: with one, final_loss.mirror spread
        # across ten seeds by up to 0.24, with two by up to 0.12
        train_cfg={"views_per_train_instance": 2, "sdf_total_count": 1000,
                   "decoder_epochs": 20, "mirror_epochs": 30},
        eval_data=(*_ALL, "--train-count", "0", "--test-count", "1"),
        eval_cfg={**_INFER_CFG, "image_width": 32, "image_height": 32,
                  "views_per_test_instance": 3, "grid_resolution": 32,
                  "gt_surface_samples": 2000, "bench_repetitions": 2},
        deepsdf_views=1,
    ),
    # evaluation heavy: 64 px views, grid 64, the fixture decoder at the
    # product-default size; training light: 32 px views, but all three
    # categories and two views each, which keeps final_loss.mirror
    # steady across seeds (laptop and mug alone spread it 2-3x wider)
    "evaluate": Workload(
        train_data=(*_ALL, "--train-count", "1", "--test-count", "0"),
        train_cfg={"image_width": 32, "image_height": 32,
                   "views_per_train_instance": 2, "sdf_total_count": 1000,
                   "decoder_epochs": 20, "mirror_epochs": 30},
        eval_data=(*_ALL, "--train-count", "0", "--test-count", "1"),
        eval_cfg={**_INFER_CFG, "views_per_test_instance": 3,
                  "grid_resolution": 64, "gt_surface_samples": 3000,
                  "bench_repetitions": 1},
        deepsdf_views=1,
    ),
}

# configs known to trip the empty-reconstruction defect: deepsdf's
# evaluate stage must fail and the benchmark must report it, not crash
_MICRO_CFG = {
    "image_width": 32, "image_height": 32,
    "views_per_train_instance": 2, "views_per_test_instance": 2,
    "sdf_total_count": 4000, "latent_dim": 8, "decoder_hidden": "32,32",
    "decoder_epochs": 30, "infer_steps": 60, "infer_coarse_steps": 30,
    "infer_max_samples": 4000, "grid_resolution": 32,
    "mirror_channels": "8,1", "mirror_epochs": 150, "gt_surface_samples": 2000,
}
SELF_TESTS = {
    # acceptance criterion 11's settings at seed 2
    "micro-seed2": (2, Workload(
        train_data=("--categories", "bottle,mug", "--train-count", "5",
                    "--test-count", "2"),
        train_cfg=_MICRO_CFG,
    )),
    # the ROADMAP baseline profile with an under-trained decoder
    "roadmap-epochs10": (0, Workload(
        train_data=("--categories", "mug,laptop", "--train-count", "4",
                    "--test-count", "2"),
        train_cfg={"decoder_epochs": 10, "sdf_total_count": 20000,
                   "mirror_epochs": 100},
    )),
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _import_program():
    src = ROOT / "src"
    if not (src / "reconbench" / "__init__.py").is_file():
        raise BenchmarkError(f"no reconbench sources under {src}")
    sys.path.insert(0, str(src))
    from reconbench import bench, cli

    return bench, cli


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def verify_fixtures() -> None:
    """Check the fixture bytes against the sha256 in their recipe."""
    recipe_path = FIXTURES / "recipe.json"
    if not recipe_path.is_file():
        raise BenchmarkError(f"missing {recipe_path}")
    recipe = json.loads(recipe_path.read_text())
    for name in FIXTURE_MODELS:
        path = FIXTURES / name
        if not path.is_file():
            raise BenchmarkError(f"missing fixture {path}")
        if _sha256(path) != recipe["sha256"][name]:
            raise BenchmarkError(f"fixture {name} does not match its recorded sha256")


def _write_cfg(path: Path, values: dict) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


@contextlib.contextmanager
def capture_returns(modules: dict, found: dict):
    """Record the return value of ``module.name`` for each
    ``(module, name)`` key of ``modules`` into ``found[label]``."""
    saved = []
    for (module, name), label in modules.items():
        original = getattr(module, name)

        def capturing(*args, _original=original, _label=label, **kwargs):
            found[_label] = result = _original(*args, **kwargs)
            return result

        saved.append((module, name, original))
        setattr(module, name, capturing)
    try:
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


@dataclass
class Dataset:
    """One set-up workspace pair and what setting it up took, in wall
    and in reference seconds."""

    index: int
    train_args: list
    eval_args: list
    # evaluate arguments per method; deepsdf may have its own config
    method_args: dict
    setup_s: float
    setup_ref_s: float
    # views evaluated per method
    views: dict

    @property
    def train_ws(self) -> Path:
        return Path(self.train_args[1])

    @property
    def eval_ws(self) -> Path:
        return Path(self.eval_args[1])


@dataclass
class Round:
    """Everything one round measured and produced; stage times in wall
    (``stage_s``) and in reference seconds (``ref_s``)."""

    dataset: int
    views: dict
    traced: bool = False
    stage_s: dict = field(default_factory=dict)
    ref_s: dict = field(default_factory=dict)
    wall_s: float = 0.0
    failed_stages: list = field(default_factory=list)
    losses: dict = field(default_factory=dict)
    model_sha: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def outputs(self):
        """What neither tracing nor repeating a round may change."""
        return (self.failed_stages, self.losses, self.model_sha, self.rows)


def make_cold(ds: Dataset) -> None:
    """Remove what an earlier round left: trained models, training
    pairs, cached SDF samples and evaluation outputs."""
    for name in ("models", "mirror_pairs"):
        shutil.rmtree(ds.train_ws / name, ignore_errors=True)
    for path in ds.train_ws.rglob("sdf_samples.bin"):
        path.unlink()
    if ds.eval_ws != ds.train_ws:
        for pattern in ("results*.csv", "report.*"):
            for path in ds.eval_ws.glob(pattern):
                path.unlink()


class Runner:
    def __init__(self, bench, cli, workload: Workload, seed: int):
        self.bench = bench
        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.clock = Clock()

    def _call(self, name: str, argv: list, tracer=None) -> int:
        """Run one CLI command in-process; returns its exit code."""
        try:
            with contextlib.redirect_stdout(sys.stderr):
                span = tracer.span(f"cli.{name}") if tracer else contextlib.nullcontext()
                with span:
                    code = self.cli.main(argv)
        except Exception:  # a stage that raises is a failed stage, not a crash
            traceback.print_exc()
            code = 1
        if code != 0:
            print(f"stage {name} failed with exit code {code}", file=sys.stderr)
        return code

    def setup(self, index: int, ws_dir: Path, tracer=None) -> Dataset:
        """Generate dataset ``index`` of the seed into ``ws_dir``."""
        wl = self.workload
        shutil.rmtree(ws_dir, ignore_errors=True)
        ws_dir.mkdir(parents=True)
        common = ["--seed", str(self.seed + DATA_SEED_STRIDE * index)]
        train_args = ["--out", str(ws_dir / "train"), "--config",
                      str(_write_cfg(ws_dir / "train.cfg", wl.train_cfg)), *common]
        eval_args = train_args
        if wl.eval_data is not None:
            eval_args = ["--out", str(ws_dir / "eval"), "--config",
                         str(_write_cfg(ws_dir / "eval.cfg", wl.eval_cfg)), *common]
        method_args = dict.fromkeys(METHODS, eval_args)
        if wl.deepsdf_views is not None:
            cfg = {**wl.eval_cfg, "views_per_test_instance": wl.deepsdf_views}
            method_args["deepsdf"] = [*eval_args[:3],
                                      str(_write_cfg(ws_dir / "deepsdf.cfg", cfg)),
                                      *common]

        def generate():
            if self._call("gen-data", ["gen-data", *wl.train_data, *train_args], tracer):
                raise BenchmarkError("gen-data failed for the training workspace")
            if wl.eval_data is None:
                return
            if self._call("gen-data-eval", ["gen-data", *wl.eval_data, *eval_args],
                          tracer):
                raise BenchmarkError("gen-data failed for the evaluation workspace")
            models = Path(eval_args[1]) / "models"
            models.mkdir()
            for name in FIXTURE_MODELS:
                shutil.copyfile(FIXTURES / name, models / name)

        _, setup_s, setup_ref_s = self.clock.measure(generate)
        manifest = self.bench.read_manifest(Path(eval_args[1]))
        instances = len(manifest["categories"]) * manifest["test_count"]
        per_instance = manifest["views_per_test_instance"]
        views = {m: instances * per_instance for m in METHODS}
        if wl.deepsdf_views is not None:
            views["deepsdf"] = instances * min(per_instance, wl.deepsdf_views)
        return Dataset(index, train_args, eval_args, method_args, setup_s,
                       setup_ref_s, views)

    def round(self, ds: Dataset, tracer=None) -> Round:
        """The timed stages once on ``ds``, from a cold training workspace."""
        rnd = Round(dataset=ds.index, views=ds.views, traced=tracer is not None)
        make_cold(ds)
        # the sample cache is keyed by path only: a leftover file would
        # turn train-sdf into a file read
        stale = sorted(ds.train_ws.rglob("sdf_samples.bin"))
        if stale:
            raise BenchmarkError(f"training workspace is not cold: {stale[0]}")
        start = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            self._timed(rnd, ds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        rnd.wall_s = time.perf_counter() - start
        self._collect(rnd, ds)
        return rnd

    def _run_stage(self, rnd: Round, name: str, argvs: list, tracer,
                   after=None) -> bool:
        """Run the commands of one stage, each timed on its own, and
        ``after()`` after each; the stage fails at the first that fails."""
        rnd.stage_s[name] = rnd.ref_s[name] = 0.0
        for argv in argvs:
            code, wall, ref = self.clock.measure(lambda: self._call(name, argv, tracer))
            rnd.stage_s[name] += wall
            rnd.ref_s[name] += ref
            if code:
                rnd.failed_stages.append(name)
                return False
            if after:
                after()
        return True

    def _timed(self, rnd: Round, ds: Dataset, tracer) -> None:
        from reconbench import autodecoder, mirror

        captured: dict = {}
        targets = {(autodecoder, "train_autodecoder"): "sdf",
                   (mirror, "train_mirror_model"): "mirror"}
        with capture_returns(targets, captured):
            for name in TRAIN_STAGES:
                self._run_stage(rnd, name, [[name, *ds.train_args]], tracer)
        for label, result in captured.items():
            rnd.losses[label] = float(result.epoch_losses[-1])

        # one evaluate per (method, category): the clock's probes then
        # sit at most one category's work apart
        categories = self.bench.read_manifest(ds.eval_ws)["categories"]
        results = ds.eval_ws / "results.csv"
        merged = [self.bench.RESULTS_HEADER]
        for method in METHODS:
            rows: list = []
            argvs = [["evaluate", "--methods", method, "--categories", category,
                      *ds.method_args[method]] for category in categories]
            if self._run_stage(rnd, f"evaluate.{method}", argvs, tracer,
                               lambda: rows.extend(results.read_text().splitlines()[1:])):
                merged += rows
        results.write_text("\n".join(merged) + "\n")
        for name in ("report", "bench-time"):
            self._run_stage(rnd, name, [[name, *ds.eval_args]], tracer)

    def _collect(self, rnd: Round, ds: Dataset) -> None:
        for name in FIXTURE_MODELS:
            path = ds.train_ws / "models" / name
            if path.is_file():
                rnd.model_sha[name] = _sha256(path)
        records = self.bench.read_results(ds.eval_ws / "results.csv")
        rnd.rows = [(r.method, r.category, r.instance, r.view, r.d_c, r.d_h,
                     r.point_count) for r in records]
        rnd.problems = check_outputs(self.bench, rnd, records, ds.eval_ws)


def check_outputs(bench, rnd: Round, records, eval_ws: Path) -> list[str]:
    """Output checks of one round; returns the problems found."""
    problems = []
    expected_rows = sum(rnd.views[m] for m in METHODS
                        if f"evaluate.{m}" not in rnd.failed_stages)
    if len(records) != expected_rows:
        problems.append(f"{len(records)} result rows, expected {expected_rows}: "
                        f"views per method {rnd.views}, failed {rnd.failed_stages}")
    for r in records:
        values = (r.d_c, r.d_h, r.inference_ms, r.point_count)
        if not all(math.isfinite(v) for v in values):
            problems.append(f"non-finite value in {r}")
        if not r.d_c <= r.d_h:
            problems.append(f"d_c > d_h in {r}")
    for label, loss in rnd.losses.items():
        if not math.isfinite(loss):
            problems.append(f"non-finite final {label} loss")
    if records and "report" not in rnd.failed_stages:
        table = bench.parse_report_csv((eval_ws / "report.csv").read_text())
        for (metric, method, category), mean in table.means.items():
            values = [getattr(r, metric) for r in records
                      if r.method == method and r.category == category]
            if not values or not math.isclose(mean, statistics.fmean(values),
                                               rel_tol=1e-12):
                problems.append(f"report.csv mean of {metric} {method} {category} "
                                "does not match results.csv")
        expected = {(r.method, r.category) for r in records}
        if {(method, cat) for _, method, cat in table.means} != expected:
            problems.append("report.csv covers other (method, category) pairs "
                            "than results.csv")
    return problems


def check_repeatable(plain: list[Round], traced: list[Round]) -> list[str]:
    """Every round on a dataset, traced or not, must reproduce the
    models, losses and results of the first untraced round on it."""
    first: dict[int, Round] = {}
    for rnd in plain:
        first.setdefault(rnd.dataset, rnd)
    problems = []
    for rnd in plain + traced:
        if rnd.outputs() != first[rnd.dataset].outputs():
            kind = "a traced" if rnd.traced else "a repeated"
            problems.append(f"{kind} round on dataset {rnd.dataset} produced other "
                            "models, losses or results than its first round")
    return problems


def check_declared(metrics: dict, kind: str) -> list[str]:
    """The metrics must be exactly those BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if {m["name"]: m["unit"] for m in declared} != {
        name: m["unit"] for name, m in metrics.items()
    }:
        return [f"metrics differ from the {kind} list of BENCHMARK.json"]
    return []


def machine_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _dataset_mean(pairs):
    """Mean over datasets of the median of each dataset's values, from
    ``(dataset, value)`` pairs; None without pairs.  Every dataset of
    the seed weighs the same however many rounds fit in a run: stage
    costs differ between datasets by up to a third."""
    by_dataset: dict = {}
    for dataset, value in pairs:
        by_dataset.setdefault(dataset, []).append(value)
    if not by_dataset:
        return None
    return statistics.fmean(statistics.median(v) for v in by_dataset.values())


def end_to_end(datasets: list[Dataset], rounds: list[Round]) -> dict:
    """The end-to-end metrics: times in reference seconds, each the
    mean over datasets of its median over that dataset's rounds; losses
    and quality means pooled over the first round on each dataset.  A
    metric whose stage failed everywhere is None."""
    pooled = list({r.dataset: r for r in reversed(rounds)}.values())

    def ok(rnd, stage):
        return stage not in rnd.failed_stages

    def med_time(stage):
        return _dataset_mean((r.dataset, r.ref_s[stage]) for r in rounds if ok(r, stage))

    metrics = {"setup_s": _metric(
        statistics.median(d.setup_ref_s for d in datasets), "s")}
    for name in TRAIN_STAGES:
        metrics[name.replace("-", "_") + "_s"] = _metric(med_time(name), "s")
    for label in ("sdf", "mirror"):
        losses = [r.losses[label] for r in pooled if label in r.losses]
        metrics[f"final_loss.{label}"] = _metric(
            statistics.fmean(losses) if losses else None, "loss")
    for method in METHODS:
        stage = f"evaluate.{method}"
        metrics[f"views_per_s.{method}"] = _metric(_dataset_mean(
            (r.dataset, r.views[method] / r.ref_s[stage]) for r in rounds if ok(r, stage)),
            "1/s")
    metrics["bench_time_s"] = _metric(med_time("bench-time"), "s")
    for column, stat in ((4, "d_c"), (5, "d_h")):
        for method in METHODS:
            values = [row[column] for r in pooled for row in r.rows if row[0] == method]
            metrics[f"{stat}.{method}"] = _metric(
                statistics.fmean(values) if values else None, "dist")
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def run_benchmark(bench, cli, workload: Workload, seed: int, seconds: float,
                  trace: bool, min_rounds: int) -> tuple[dict, dict]:
    """Run rounds over the datasets of ``seed`` in turn, setting each
    up on first use, for at least ``min_rounds`` rounds and as long as
    the next one still ends within ``seconds``; returns (result, info)."""
    runner = Runner(bench, cli, workload, seed)
    work = WORK / f"{os.getpid()}"
    datasets: list[Dataset] = []
    plain: list[Round] = []
    traced: list[Round] = []
    steps: list[float] = []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    try:
        while len(plain) < min_rounds or (
                time.perf_counter() - start + statistics.median(steps) <= seconds):
            k = len(plain) % DATASETS
            if k == len(datasets):
                datasets.append(runner.setup(k, work / f"data{k}"))
            # a later step sets up no dataset: leave set-up out of its estimate
            step_start = time.perf_counter()
            plain.append(runner.round(datasets[k]))
            if tracer:
                tracer.run = len(traced)
                tracer.install()
                try:
                    copy = runner.setup(k, work / "traced", tracer)
                finally:
                    tracer.uninstall()
                traced.append(runner.round(copy, tracer))
            steps.append(time.perf_counter() - step_start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    rounds = plain + traced
    problems = [p for r in rounds for p in r.problems]
    problems += check_repeatable(plain, traced)
    attempted = failed = 0
    for r in rounds:
        for op in OPS:
            n = r.views[op.split(".")[1]] if op.startswith("evaluate.") else 1
            attempted += n
            failed += n if op in r.failed_stages else 0

    info = {
        "machine": machine_block(),
        "seed": seed,
        "problems": problems,
        "probe_s": runner.clock.probes,
        "setup_s": [d.setup_s for d in datasets],
        "setup_ref_s": [d.setup_ref_s for d in datasets],
        "rounds": [
            {"dataset": r.dataset, "traced": r.traced, "wall_s": r.wall_s,
             "stage_s": r.stage_s, "ref_s": r.ref_s, "views": r.views,
             "failed_stages": r.failed_stages}
            for r in rounds
        ],
    }
    if tracer:
        overhead = (statistics.median(r.wall_s for r in traced)
                    / statistics.median(r.wall_s for r in plain[:len(traced)]) - 1.0)
        metrics, info["tail_percentiles"] = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_frac"] = _metric(overhead, "frac")
        info["profile"] = profile(tracer, len(traced))
    else:
        metrics = end_to_end(datasets, plain)
    problems += check_declared(metrics, "per_layer" if trace else "end_to_end")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, info


def self_test(bench, cli, name: str) -> int:
    """Run a config that trips the empty-reconstruction defect and check
    that the benchmark finishes and reports deepsdf's ops as failed."""
    seed, workload = SELF_TESTS[name]
    result, info = run_benchmark(bench, cli, workload, seed, 0.0, trace=False,
                                 min_rounds=1)
    print(json.dumps(info))
    print(json.dumps(result))
    (rnd,) = info["rounds"]
    expect_failed = ["evaluate.deepsdf"]
    if rnd["failed_stages"] != expect_failed:
        print(f"self-test {name}: expected only {expect_failed} to fail, "
              f"got {rnd['failed_stages']}", file=sys.stderr)
        return 1
    if result["failed"] != rnd["views"]["deepsdf"] or not result["correct"]:
        print(f"self-test {name}: failures not accounted for", file=sys.stderr)
        return 1
    print(f"self-test {name}: ok, {result['failed']} of {result['attempted']} "
          "ops reported failed", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", choices=sorted(SELF_TESTS))
    args = parser.parse_args(argv)
    if (args.workload is None) == (args.self_test is None):
        parser.error("give exactly one of --workload and --self-test")
    try:
        bench, cli = _import_program()
        if args.self_test:
            return self_test(bench, cli, args.self_test)
        verify_fixtures()
        # losses and quality pool one round per dataset; a traced run
        # reports neither
        result, info = run_benchmark(bench, cli, WORKLOADS[args.workload],
                                     args.seed, args.seconds, bool(args.trace),
                                     min_rounds=1 if args.trace else DATASETS)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"workload": args.workload, **info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
