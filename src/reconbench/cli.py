"""Command-line entry point.

Subcommands cover the full benchmark pipeline::

    reconbench gen-data    --out runs/demo --categories bottle,mug
    reconbench train-sdf   --out runs/demo
    reconbench train-mirror --out runs/demo
    reconbench evaluate    --out runs/demo --methods mirror_learned,deepsdf
    reconbench report      --out runs/demo
    reconbench bench-time  --out runs/demo

Exit codes: 0 on success, 1 for invalid input or configuration
(including usage errors), 2 for missing artifacts such as an absent
dataset or model file.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import autodecoder, bench, mirror
from .config import BenchConfig, load_config
from .errors import ConfigurationError, InvalidInputError, MissingArtifactError
from .fileio import write_atomic
from .shapes import CATEGORIES


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for
    missing artifacts, so remap usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _split_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="master RNG seed")
    common.add_argument(
        "--out", type=Path, default=Path("bench_out"), help="workspace directory"
    )
    common.add_argument(
        "--config", type=Path, default=None, help="key=value configuration file"
    )

    parser = _Parser(prog="reconbench", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", parents=[common], help="generate the dataset")
    p.add_argument(
        "--categories",
        default=",".join(CATEGORIES),
        help="comma-separated category names",
    )
    p.add_argument("--train-count", type=int, default=30)
    p.add_argument("--test-count", type=int, default=10)

    p = sub.add_parser(
        "train-sdf", parents=[common], help="fit the latent-code surface decoder"
    )
    p.add_argument("--categories", default=None)

    p = sub.add_parser(
        "train-mirror", parents=[common], help="fit the view completion network"
    )
    p.add_argument("--categories", default=None)

    p = sub.add_parser(
        "evaluate", parents=[common], help="reconstruct all test views"
    )
    p.add_argument("--categories", default=None)
    p.add_argument(
        "--methods",
        default=",".join(bench.METHODS),
        help="comma-separated subset of " + ",".join(bench.METHODS),
    )

    sub.add_parser("report", parents=[common], help="aggregate results.csv")

    sub.add_parser(
        "bench-time", parents=[common], help="compare per-object inference time"
    )

    return parser


def _load_cfg(args) -> BenchConfig:
    if args.seed < 0:
        raise InvalidInputError("--seed must be non-negative")
    return load_config(args.config)


def _categories(args, default=CATEGORIES) -> list[str]:
    """The ``--categories`` names, or ``default`` when the flag is absent.

    A name that is no category, or a list naming none or one twice, is
    an input error; a category the dataset lacks is the stage's to find.
    """
    if args.categories is None:
        return list(default)
    names = _split_list(args.categories)
    if not names:
        raise InvalidInputError("--categories must name at least one category")
    if len(set(names)) < len(names):
        raise InvalidInputError(f"--categories names a category twice: {args.categories}")
    for name in names:
        if name not in CATEGORIES:
            raise InvalidInputError(
                f"unknown category {name!r} in --categories; "
                f"choose from {','.join(CATEGORIES)}"
            )
    return names


def _cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    manifest = bench.generate_dataset(
        args.out,
        _categories(args),
        args.train_count,
        args.test_count,
        args.seed,
        cfg,
    )
    total = (args.train_count + args.test_count) * len(manifest["categories"])
    print(f"wrote {total} instances under {args.out}")
    return 0


def _cmd_train_sdf(args) -> int:
    cfg = _load_cfg(args)
    manifest = bench.read_manifest(args.out)
    cats = _categories(args, manifest["categories"])
    path = bench.train_sdf_backend(args.out, cats, args.seed, cfg)
    print(f"saved decoder to {path}")
    return 0


def _cmd_train_mirror(args) -> int:
    cfg = _load_cfg(args)
    manifest = bench.read_manifest(args.out)
    cats = _categories(args, manifest["categories"])
    path = bench.train_mirror_backend(args.out, cats, args.seed, cfg)
    print(f"saved completion model to {path}")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _load_cfg(args)
    manifest = bench.read_manifest(args.out)
    cats = _categories(args, manifest["categories"])
    methods = _split_list(args.methods)
    if not methods:
        raise InvalidInputError("--methods must name at least one method")
    records = bench.run_evaluation(args.out, cats, methods, cfg)
    out_path = Path(args.out) / "results.csv"
    bench.write_results(out_path, records)
    print(f"wrote {len(records)} records to {out_path}")
    return 0


def _cmd_report(args) -> int:
    _load_cfg(args)
    records = bench.read_results(Path(args.out) / "results.csv")
    rep = bench.report(records)
    write_atomic(Path(args.out) / "report.csv", rep.to_csv().encode())
    text = rep.to_text()
    write_atomic(Path(args.out) / "report.txt", text.encode())
    print(text, end="")
    return 0


def _cmd_bench_time(args) -> int:
    cfg = _load_cfg(args)
    manifest = bench.read_manifest(args.out)
    models = Path(args.out) / "models"
    decoder_params, _ = autodecoder.load_decoder(models / "decoder.rbsd")
    mirror_params = mirror.load_mirror_model(models / "mirror.rbmr")
    category = manifest["categories"][0]
    inst_dir = Path(args.out) / category / "test" / "000"
    if not inst_dir.exists():
        raise MissingArtifactError(f"no test instance at {inst_dir}")
    observed, cam = bench.load_view(inst_dir, 0)
    latent = np.zeros(decoder_params.latent_dim)
    result = bench.time_methods(
        observed,
        cam,
        decoder_params,
        mirror_params,
        latent,
        cfg.grid_resolution,
        cfg.bench_repetitions,
    )
    print(f"mirror completion+fusion median: {result.mirror_ms:.3f} ms")
    print(f"sdf grid-{cfg.grid_resolution} reconstruction median: {result.sdf_ms:.3f} ms")
    print(f"sdf grid-{cfg.grid_resolution} reconstruction points: {result.sdf_points}")
    print(f"ratio (sdf / mirror): {result.ratio:.2f}x")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train-sdf": _cmd_train_sdf,
    "train-mirror": _cmd_train_mirror,
    "evaluate": _cmd_evaluate,
    "report": _cmd_report,
    "bench-time": _cmd_bench_time,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except (InvalidInputError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
