"""Benchmark configuration: one home per setting.

A setting a caller may change lives here as a ``BenchConfig`` field; a
fixed value lives beside the code that uses it, as a named constant or
as the default of the library parameter it feeds, so that no value is
stored twice.

Config files are plain ``key = value`` text (# starts a comment).
Values are parsed according to the field's default type; integer lists
such as hidden layer widths are comma separated, and ``none`` clears an
optional value.  Non-finite floats (``nan``, ``inf``) and unknown keys
are rejected so mistakes fail loudly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .autodecoder import TrainConfig
from .errors import InvalidInputError, MissingArtifactError
from .metrics import VoxelFilterConfig
from .mirror import MirrorTrainConfig
from .sdf import SamplingConfig


# heavy-ball momentum of decoder training and latent inference
_DECODER_MOMENTUM = 0.9


@dataclass(frozen=True)
class BenchConfig:
    """Desk-scale defaults for the full pipeline.

    The published-scale settings (millions of SDF samples, a 512-wide
    8-layer decoder) are available through ``preset = full``; everything
    else stays overridable key by key.
    """

    # rendering
    image_width: int = 64
    image_height: int = 64
    camera_radius: float = 2.0
    camera_max_elevation_deg: float = 60.0
    views_per_train_instance: int = 5
    views_per_test_instance: int = 5

    # SDF sampling
    sdf_total_count: int = 50_000
    sdf_noise_sigma: float = 0.02
    sdf_negative_floor_tau: float | None = None

    # auto-decoder
    latent_dim: int = 16
    decoder_hidden: tuple[int, ...] = (64, 64, 64)
    decoder_learning_rate: float = 1e-3
    code_learning_rate: float = 1e-3
    decoder_epochs: int = 200
    decoder_batch_size: int = 256
    clamp_delta: float = 0.1
    code_prior_weight: float = 1e-4
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
    mirror_lr_decay: float = 1.0

    # evaluation
    eval_filter_voxel: float = 0.1
    eval_filter_min_points: int = 2
    gt_surface_samples: int = 10_000

    # timing benchmark
    bench_repetitions: int = 5

    preset: str = "desk"

    def sampling_config(self, seed: int) -> SamplingConfig:
        return SamplingConfig(
            total_count=self.sdf_total_count,
            surface_noise_sigma=self.sdf_noise_sigma,
            negative_floor_tau=self.sdf_negative_floor_tau,
            seed=seed,
        )

    def decoder_config(self, seed: int, epochs: int | None = None) -> TrainConfig:
        return TrainConfig(
            latent_dim=self.latent_dim,
            hidden=self.decoder_hidden,
            learning_rate=self.decoder_learning_rate,
            code_learning_rate=self.code_learning_rate,
            epochs=self.decoder_epochs if epochs is None else epochs,
            batch_size=self.decoder_batch_size,
            clamp_delta=self.clamp_delta,
            code_prior_weight=self.code_prior_weight,
            momentum=_DECODER_MOMENTUM,
            lr_decay=self.decoder_lr_decay,
            seed=seed,
        )

    def mirror_config(self, seed: int) -> MirrorTrainConfig:
        return MirrorTrainConfig(
            channels=self.mirror_channels,
            epochs=self.mirror_epochs,
            lr_decay=self.mirror_lr_decay,
            seed=seed,
        )

    def filter_config(self) -> VoxelFilterConfig:
        return VoxelFilterConfig(
            voxel_size=self.eval_filter_voxel,
            min_points_per_voxel=self.eval_filter_min_points,
        )


_FULL_PRESET = {
    "sdf_total_count": 5_000_000,
    "latent_dim": 256,
    "decoder_hidden": (512,) * 8,
}


def apply_preset(cfg: BenchConfig) -> BenchConfig:
    if cfg.preset == "desk":
        return cfg
    if cfg.preset == "full":
        return replace(cfg, **_FULL_PRESET)
    raise InvalidInputError(f"unknown preset {cfg.preset!r}")


def _parse_value(raw: str, default):
    raw = raw.strip()
    if raw.lower() in ("none", "null"):
        if default is not None:
            raise ValueError("only an optional value can be cleared")
        return None
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float) or default is None:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError("not a finite number")
        return value
    if isinstance(default, tuple):
        return tuple(int(x) for x in raw.replace(",", " ").split())
    return raw


def load_config(path=None, overrides: dict | None = None) -> BenchConfig:
    """Build a config from defaults, an optional file, and overrides."""
    values: dict = {}
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
            values[key.strip()] = raw
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
    return apply_preset(BenchConfig(**parsed))
