"""Benchmark configuration: one home per setting.

A setting a caller may change lives here as a ``BenchConfig`` field; a
fixed value lives beside the code that uses it, as a named constant or
as the default of the library parameter it feeds, so that no value is
stored twice.

Config files are plain ``key = value`` text (# starts a comment).
Values are parsed according to the field's default type; integer lists
such as hidden layer widths are comma separated.  Negative integers,
non-finite floats (``nan``, ``inf``), unknown keys and a key set twice
in one file are rejected so mistakes fail loudly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .autodecoder import TrainConfig
from .errors import InvalidInputError, MissingArtifactError
from .mirror import MirrorTrainConfig
from .sdf import SamplingConfig


# heavy-ball momentum of decoder training and latent inference
_DECODER_MOMENTUM = 0.9

# counts that zero would only reject once a stage has started work
_AT_LEAST_ONE = (
    "image_width", "image_height", "sdf_total_count", "gt_surface_samples",
    "infer_max_samples", "bench_repetitions",
)
# the keys decoder_config feeds whose values TrainConfig can reject
_DECODER_KEYS = (
    "latent_dim, decoder_hidden, decoder_learning_rate, code_learning_rate or "
    "decoder_lr_decay"
)


@dataclass(frozen=True)
class BenchConfig:
    """Desk-scale defaults for the full pipeline, overridable key by key."""

    # rendering
    image_width: int = 64
    image_height: int = 64
    views_per_train_instance: int = 5
    views_per_test_instance: int = 5

    # SDF sampling
    sdf_total_count: int = 50_000

    # auto-decoder
    latent_dim: int = 16
    decoder_hidden: tuple[int, ...] = (64, 64, 64)
    decoder_learning_rate: float = 1e-3
    code_learning_rate: float = 1e-3
    decoder_epochs: int = 200
    decoder_lr_decay: float = 1.0

    # latent inference from one view; a coarse wide-band pass of
    # infer_coarse_steps runs first (zero disables it)
    infer_steps: int = 300
    infer_coarse_steps: int = 100
    infer_max_samples: int = 20_000

    # surface extraction
    grid_resolution: int = 64

    # mirror completion network
    mirror_channels: tuple[int, ...] = (8, 8, 1)
    mirror_epochs: int = 200

    # evaluation
    gt_surface_samples: int = 10_000

    # timing benchmark
    bench_repetitions: int = 5

    def __post_init__(self):
        # every check runs when the config loads, so a bad value fails
        # before any stage starts work
        if self.grid_resolution < 2:  # two decode grid points per axis
            raise InvalidInputError(
                f"grid_resolution must be at least 2, got {self.grid_resolution}"
            )
        for key in _AT_LEAST_ONE:
            if getattr(self, key) < 1:
                raise InvalidInputError(f"{key} must be at least 1, got {getattr(self, key)}")
        for keys, build in (
            (_DECODER_KEYS, self.decoder_config),
            ("mirror_channels", self.mirror_config),
        ):
            try:
                build(0)
            except InvalidInputError as exc:
                raise InvalidInputError(f"bad {keys}: {exc}") from exc

    def sampling_config(self, seed: int) -> SamplingConfig:
        return SamplingConfig(total_count=self.sdf_total_count, seed=seed)

    def decoder_config(self, seed: int, epochs: int | None = None) -> TrainConfig:
        return TrainConfig(
            latent_dim=self.latent_dim,
            hidden=self.decoder_hidden,
            learning_rate=self.decoder_learning_rate,
            code_learning_rate=self.code_learning_rate,
            epochs=self.decoder_epochs if epochs is None else epochs,
            momentum=_DECODER_MOMENTUM,
            lr_decay=self.decoder_lr_decay,
            seed=seed,
        )

    def mirror_config(self, seed: int) -> MirrorTrainConfig:
        return MirrorTrainConfig(
            channels=self.mirror_channels,
            epochs=self.mirror_epochs,
            seed=seed,
        )


def _parse_value(raw: str, default):
    raw = raw.strip()
    if isinstance(default, int):
        value = int(raw)
        # every integer setting is a count or a size
        if value < 0:
            raise ValueError("negative count")
        return value
    if isinstance(default, float):
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        return value
    return tuple(int(x) for x in raw.replace(",", " ").split())


def load_config(path=None, overrides: dict | None = None) -> BenchConfig:
    """Build a config from defaults, an optional file, and overrides.

    A key may appear once per file; an override replaces the file's value.
    """
    values: dict = {}
    seen: dict = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise MissingArtifactError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text().splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected key = value, got {line!r}"
                )
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if key in seen:
                raise InvalidInputError(
                    f"{path}:{lineno}: {key!r} is already set on line {seen[key]}"
                )
            seen[key] = lineno
            values[key] = raw
    if overrides:
        values.update({k: str(v) for k, v in overrides.items()})

    known = {f.name: f for f in fields(BenchConfig)}
    defaults = BenchConfig()
    parsed: dict = {}
    for key, raw in values.items():
        if key not in known:
            raise InvalidInputError(f"unknown config key {key!r}")
        try:
            parsed[key] = _parse_value(str(raw), getattr(defaults, key))
        except ValueError as exc:
            raise InvalidInputError(f"bad value for {key!r}: {raw!r}") from exc
    return BenchConfig(**parsed)
