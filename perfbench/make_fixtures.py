#!/usr/bin/env python3
"""Rebuild the fixed models that the `evaluate` workload decodes with.

The decoder and the completion network under ``perfbench/fixtures/``
are trained once by the recipe below and checked in, so that
training-side changes (and any float drift they cause) never reach the
evaluation numbers.  ``recipe.json`` records the recipe together with
the sha256 of each model file; ``run.py`` refuses fixtures whose bytes
no longer match it.

    python3 perfbench/make_fixtures.py

Regenerating rewrites both models and the recipe.  The bytes depend on
the BLAS build, so a rebuilt fixture is a new baseline, not a check.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # as in run.py

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
MODELS = ("decoder.rbsd", "mirror.rbmr")

RECIPE = {
    "seed": 0,
    "categories": ["laptop", "mug", "jar"],
    # product-default network sizes; a larger, decaying step than the
    # default so the decoder fits a thin shell, not a blurred blob
    "config": {
        "sdf_total_count": 20000,
        "views_per_train_instance": 5,
        "decoder_learning_rate": 0.01,
        "code_learning_rate": 0.01,
        "decoder_lr_decay": 0.98,
    },
    "commands": [
        ["gen-data", "--categories", "laptop,mug,jar",
         "--train-count", "4", "--test-count", "0"],
        ["train-sdf"],
        ["train-mirror"],
    ],
}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from reconbench.cli import main as run_cli

    FIXTURES.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        ws = Path(tmp) / "ws"
        cfg = Path(tmp) / "fixture.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in RECIPE["config"].items()))
        common = ["--out", str(ws), "--config", str(cfg), "--seed", str(RECIPE["seed"])]
        for command in RECIPE["commands"]:
            print("$ reconbench", " ".join(command), flush=True)
            if run_cli([*command, *common]) != 0:
                print(f"fixture recipe failed at {command[0]}", file=sys.stderr)
                return 1
        for name in MODELS:
            shutil.copyfile(ws / "models" / name, FIXTURES / name)
    recipe = dict(RECIPE, sha256={name: sha256(FIXTURES / name) for name in MODELS})
    (FIXTURES / "recipe.json").write_text(json.dumps(recipe, indent=1) + "\n")
    print(json.dumps(recipe["sha256"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
