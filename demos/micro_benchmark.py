#!/usr/bin/env python3
"""Drive the full benchmark pipeline on a small dataset.

Runs every stage the command-line tool exposes, in order, inside a
scratch directory: dataset generation, both trainings, evaluation of
all methods on every held-out view, the aggregated table, and the
timing comparison. Settings are scaled down so the whole thing
finishes in a couple of minutes.
"""
import argparse
import tempfile
from pathlib import Path

from reconbench.cli import main as run_cli


def stage(*args: str) -> None:
    print(f"$ reconbench {' '.join(args)}")
    code = run_cli(list(args))
    if code != 0:
        raise SystemExit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=Path, default=None,
                        help="keep artifacts here instead of a temp dir")
    args = parser.parse_args()

    if args.workdir is None:
        scratch = tempfile.TemporaryDirectory(prefix="reconbench_")
        workdir = Path(scratch.name)
    else:
        workdir = args.workdir
        workdir.mkdir(parents=True, exist_ok=True)

    cfg = workdir / "micro.cfg"
    cfg.write_text(
        "image_width = 32\n"
        "image_height = 32\n"
        "views_per_train_instance = 2\n"
        "views_per_test_instance = 1\n"
        "sdf_total_count = 3000\n"
        "latent_dim = 4\n"
        "decoder_hidden = 24,24\n"
        "decoder_epochs = 25\n"
        "infer_steps = 50\n"
        "infer_coarse_steps = 25\n"
        "infer_max_samples = 3000\n"
        "grid_resolution = 24\n"
        "mirror_channels = 8,1\n"
        "mirror_epochs = 100\n"
        "gt_surface_samples = 2000\n"
        "bench_repetitions = 3\n"
    )
    out = workdir / "ws"
    base = ("--out", str(out), "--config", str(cfg), "--seed", "0")

    stage("gen-data", "--categories", "can,mug", "--train-count", "3",
          "--test-count", "1", *base)
    stage("train-sdf", *base)
    stage("train-mirror", *base)
    stage("evaluate", *base)
    stage("report", *base)
    stage("bench-time", *base)
    print(f"\nartifacts under {out}")


if __name__ == "__main__":
    main()
