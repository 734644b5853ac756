"""Latent-code auto-decoder over signed distance samples.

One small fully connected network represents a whole shape family: it
maps a per-object latent code concatenated with a query point to a
signed distance.  Training jointly optimizes network weights and the
codes; describing a new observation means optimizing a fresh code with
the weights frozen.  Losses clamp both prediction and target to a band
around the surface so supervision concentrates where it matters.

Everything is plain numpy with hand-written backpropagation; gradients
are validated against finite differences in the test suite.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .depth import DepthImage, back_project
from .errors import InvalidInputError
from .fileio import DECODER_MAGIC, load_tensors, save_tensors
from .geometry import TAG_GENERATED, CameraModel, PointCloud
from .sdf import (
    GRID_RADIUS,
    SdfField,
    SdfSamples,
    extract_surface_points,
)

LatentCode = np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for decoder training and latent inference.

    ``epochs`` doubles as the step count when optimizing a single code.
    Plain gradient descent with a fixed step; set ``momentum`` to 0.9
    for the heavy-ball variant.
    """

    latent_dim: int = 16
    hidden: tuple[int, ...] = (64, 64, 64)
    learning_rate: float = 1e-3
    code_learning_rate: float = 1e-3
    epochs: int = 200
    batch_size: int = 256
    clamp_delta: float = 0.1
    code_prior_weight: float = 1e-4
    momentum: float = 0.0
    # per-epoch step-size multiplier; the L1-style objective keeps its
    # gradient magnitude near the optimum, so decay settles the end state
    lr_decay: float = 1.0
    code_init_sigma: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1 or not self.hidden:
            raise InvalidInputError("latent_dim and hidden sizes must be positive")
        if self.learning_rate <= 0 or self.code_learning_rate <= 0:
            raise InvalidInputError("learning rates must be positive")
        if self.epochs < 0 or self.batch_size < 1:
            raise InvalidInputError("bad epoch or batch settings")
        if self.clamp_delta <= 0:
            raise InvalidInputError("clamp_delta must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInputError("momentum must lie in [0, 1)")
        if not 0.0 < self.lr_decay <= 1.0:
            raise InvalidInputError("lr_decay must lie in (0, 1]")


@dataclass(frozen=True)
class DecoderParams:
    """Weights and biases, one pair per layer; hidden layers use tanh."""

    latent_dim: int
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise InvalidInputError("weights and biases must pair up")
        expect = self.latent_dim + 3
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise InvalidInputError("malformed layer tensors")
            if w.shape[1] != expect:
                raise InvalidInputError("layer input size mismatch")
            expect = w.shape[0]
        if expect != 1:
            raise InvalidInputError("decoder must end in a single output")

    def copy(self) -> "DecoderParams":
        return DecoderParams(
            self.latent_dim,
            tuple(w.copy() for w in self.weights),
            tuple(b.copy() for b in self.biases),
        )


def init_decoder(cfg: TrainConfig, rng: np.random.Generator | None = None) -> DecoderParams:
    """Glorot-uniform initialization of all layers."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    sizes = (cfg.latent_dim + 3, *cfg.hidden, 1)
    weights = []
    biases = []
    for n_in, n_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_out, n_in)))
        biases.append(np.zeros(n_out))
    return DecoderParams(cfg.latent_dim, tuple(weights), tuple(biases))


def _forward_acts(params: DecoderParams, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = acts[-1] @ w.T + b
        acts.append(pre if i == last else np.tanh(pre))
    return acts


def _backward(params: DecoderParams, acts: list[np.ndarray], dout: np.ndarray):
    """Gradients of a scalar objective given d(objective)/d(output).

    Returns per-layer weight and bias gradients plus the gradient with
    respect to the network input.
    """
    gw = [np.empty(0)] * len(params.weights)
    gb = [np.empty(0)] * len(params.weights)
    grad = dout
    for i in range(len(params.weights) - 1, -1, -1):
        gw[i] = grad.T @ acts[i]
        gb[i] = grad.sum(axis=0)
        grad = grad @ params.weights[i]
        if i > 0:
            grad = grad * (1.0 - acts[i] ** 2)
    return gw, gb, grad


def _stack_input(z: np.ndarray, points: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidInputError("points must be (N, 3)")
    if z.ndim != 1:
        raise InvalidInputError("latent code must be a vector")
    return np.concatenate([np.broadcast_to(z, (pts.shape[0], z.shape[0])), pts], axis=1)


def decoder_forward(params: DecoderParams, z: LatentCode, points) -> np.ndarray:
    """Predicted signed distance at each point under code z."""
    x = _stack_input(z, np.atleast_2d(np.asarray(points, dtype=np.float64)))
    return _forward_acts(params, x)[-1][:, 0]


def decoder_output_gradients(params: DecoderParams, z: LatentCode, point):
    """Exact gradients of the scalar output at one point.

    Returns (weight_grads, bias_grads, z_grad); used by the
    finite-difference validation.
    """
    x = _stack_input(z, np.asarray(point, dtype=np.float64)[None, :])
    acts = _forward_acts(params, x)
    gw, gb, gx = _backward(params, acts, np.ones((1, 1)))
    return gw, gb, gx[0, : params.latent_dim]


def decoder_field(params: DecoderParams, z: LatentCode) -> SdfField:
    def field(points: np.ndarray) -> np.ndarray:
        return decoder_forward(params, z, points)

    return field


def _clamp(a: np.ndarray, delta: float) -> np.ndarray:
    return np.clip(a, -delta, delta)


def _loss_terms(pred, target, codes_rows, cfg: TrainConfig):
    """Clamped-L1 data term with a per-sample code prior.

    Returns the mean loss and d(loss)/d(pred).  The prior contributes
    lambda * |z|^2 per sample, so its gradient flows through the code
    of the sample's object.
    """
    r = _clamp(pred, cfg.clamp_delta) - _clamp(target, cfg.clamp_delta)
    n = pred.shape[0]
    data = np.abs(r).mean()
    prior = cfg.code_prior_weight * np.einsum("nk,nk->n", codes_rows, codes_rows).mean()
    dpred = np.sign(r) * (np.abs(pred) < cfg.clamp_delta) / n
    return data + prior, dpred


@dataclass
class AutoDecoderResult:
    params: DecoderParams
    codes: list[LatentCode]
    epoch_losses: list[float] = field(default_factory=list)


def train_autodecoder(
    samples_per_object: Sequence[SdfSamples], cfg: TrainConfig
) -> AutoDecoderResult:
    """Jointly fit decoder weights and one latent code per object.

    Codes start as small Gaussian draws; epochs iterate seeded-shuffled
    minibatches.  The run is deterministic: a fixed config (including
    its seed) reproduces parameters bit for bit.
    """
    if not samples_per_object:
        raise InvalidInputError("need at least one object to train on")
    if any(len(s) == 0 for s in samples_per_object):
        raise InvalidInputError("every object needs at least one sample")
    rng = np.random.default_rng(cfg.seed)
    params = init_decoder(cfg, rng)
    n_obj = len(samples_per_object)
    codes = rng.normal(0.0, cfg.code_init_sigma, size=(n_obj, cfg.latent_dim))

    points = np.concatenate([s.points for s in samples_per_object])
    target = np.concatenate([s.sdf for s in samples_per_object])
    owner = np.concatenate(
        [np.full(len(s), i, dtype=np.int64) for i, s in enumerate(samples_per_object)]
    )
    n = points.shape[0]

    vel_w = [np.zeros_like(w) for w in params.weights]
    vel_b = [np.zeros_like(b) for b in params.biases]
    vel_z = np.zeros_like(codes)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    losses: list[float] = []

    lr = cfg.learning_rate
    code_lr = cfg.code_learning_rate
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for s in range(0, n, cfg.batch_size):
            batch = perm[s : s + cfg.batch_size]
            obj = owner[batch]
            z_rows = codes[obj]
            x = np.concatenate([z_rows, points[batch]], axis=1)
            live = DecoderParams(cfg.latent_dim, tuple(weights), tuple(biases))
            acts = _forward_acts(live, x)
            pred = acts[-1][:, 0]
            loss, dpred = _loss_terms(pred, target[batch], z_rows, cfg)
            epoch_loss += loss * batch.shape[0]
            gw, gb, gx = _backward(live, acts, dpred[:, None])
            gz = np.zeros_like(codes)
            np.add.at(gz, obj, gx[:, : cfg.latent_dim])
            # prior gradient: 2 lambda z per sample, averaged over the batch
            np.add.at(
                gz,
                obj,
                (2.0 * cfg.code_prior_weight / batch.shape[0]) * z_rows,
            )
            for i in range(len(weights)):
                vel_w[i] = cfg.momentum * vel_w[i] - lr * gw[i]
                vel_b[i] = cfg.momentum * vel_b[i] - lr * gb[i]
                weights[i] = weights[i] + vel_w[i]
                biases[i] = biases[i] + vel_b[i]
            vel_z = cfg.momentum * vel_z - code_lr * gz
            codes = codes + vel_z
        losses.append(epoch_loss / n)
        lr *= cfg.lr_decay
        code_lr *= cfg.lr_decay

    final = DecoderParams(cfg.latent_dim, tuple(weights), tuple(biases))
    return AutoDecoderResult(final, [codes[i].copy() for i in range(n_obj)], losses)


def infer_latent(
    params: DecoderParams,
    observation: SdfSamples,
    cfg: TrainConfig,
    init: LatentCode | None = None,
) -> LatentCode:
    """Optimize a latent code for frozen weights.

    Runs ``cfg.epochs`` full-batch descent steps on the same clamped
    objective used in training, starting from ``init`` (zero when not
    given); zero steps returns the start unchanged.  A wide
    ``cfg.clamp_delta`` keeps gradients alive when the current field is
    far from the observations, so a coarse wide-band pass followed by a
    narrow refinement pass warm-started from its result escapes the
    clamp's dead zone.
    """
    if len(observation) == 0:
        raise InvalidInputError("cannot infer a code from no samples")
    if init is None:
        z = np.zeros(params.latent_dim)
    else:
        z = np.asarray(init, dtype=np.float64).copy()
        if z.shape != (params.latent_dim,):
            raise InvalidInputError("init shape must match the latent size")
    vel = np.zeros_like(z)
    code_lr = cfg.code_learning_rate
    for _ in range(cfg.epochs):
        x = _stack_input(z, observation.points)
        acts = _forward_acts(params, x)
        pred = acts[-1][:, 0]
        _, dpred = _loss_terms(pred, observation.sdf, z[None, :], cfg)
        _, _, gx = _backward(params, acts, dpred[:, None])
        gz = gx[:, : params.latent_dim].sum(axis=0)
        gz = gz + 2.0 * cfg.code_prior_weight * z
        vel = cfg.momentum * vel - code_lr * gz
        z = z + vel
        code_lr *= cfg.lr_decay
    return z


def latent_inference_loss(
    params: DecoderParams, observation: SdfSamples, z: LatentCode, cfg: TrainConfig
) -> float:
    pred = decoder_forward(params, z, observation.points)
    loss, _ = _loss_terms(pred, observation.sdf, np.atleast_2d(z), cfg)
    return float(loss)


def reconstruct(
    params: DecoderParams,
    z: LatentCode,
    grid_resolution: int = 64,
    iso_epsilon: float | None = None,
) -> tuple[PointCloud, float]:
    """Surface points of the decoded field, plus the wall-clock seconds
    the extraction took (for the timing comparison)."""
    field_fn = decoder_field(params, z)
    start = time.perf_counter()
    pts = extract_surface_points(field_fn, grid_resolution, iso_epsilon)
    elapsed = time.perf_counter() - start
    return PointCloud.from_points(pts, TAG_GENERATED), elapsed


# ---------------------------------------------------------------------------
# observation samples from a single depth view


def view_samples_for_inference(
    image: DepthImage,
    cam: CameraModel,
    spacing: float = 0.05,
    value_cap: float = 0.1,
    ball_radius: float = GRID_RADIUS,
    max_count: int = 20_000,
    seed: int = 0,
) -> SdfSamples:
    """Turn one depth image into SDF supervision for latent inference.

    Back-projected surface points contribute zeros.  Along each pixel
    ray, points between where the ray enters the reconstruction ball
    and the observed surface are free space: they get a positive value,
    the distance to the surface along the ray, capped at ``value_cap``.
    Nothing behind the surface is sampled since a single view says
    nothing about it.  Oversized sets are thinned by a seeded choice.
    """
    if spacing <= 0 or value_cap <= 0:
        raise InvalidInputError("spacing and value_cap must be positive")
    cloud = back_project(image, cam)
    if len(cloud) == 0:
        raise InvalidInputError("depth image has no valid pixels")
    origin = cam.position
    offsets = cloud.points - origin
    t_surf = np.linalg.norm(offsets, axis=1)
    dirs = offsets / t_surf[:, None]

    # ray parameter where each ray enters the sampling ball
    oo = float(origin @ origin)
    b = dirs @ origin
    disc = b * b - (oo - ball_radius * ball_radius)
    disc = np.maximum(disc, 0.0)
    t_enter = np.maximum(-b - np.sqrt(disc), 0.0)

    span = t_surf - t_enter
    steps = np.maximum(np.floor(span / spacing).astype(np.int64), 0)
    ray_idx = np.repeat(np.arange(len(cloud)), steps)
    if ray_idx.size:
        k = np.concatenate([np.arange(1, s + 1) for s in steps if s > 0])
        gap = k * spacing
        free_pts = cloud.points[ray_idx] - dirs[ray_idx] * gap[:, None]
        free_val = np.minimum(gap, value_cap)
    else:
        free_pts = np.zeros((0, 3))
        free_val = np.zeros(0)

    pts = np.concatenate([cloud.points, free_pts])
    vals = np.concatenate([np.zeros(len(cloud)), free_val])
    if pts.shape[0] > max_count:
        rng = np.random.default_rng(seed)
        pick = np.sort(rng.choice(pts.shape[0], size=max_count, replace=False))
        pts, vals = pts[pick], vals[pick]
    return SdfSamples(pts, vals)


# ---------------------------------------------------------------------------
# persistence


def save_decoder(path, params: DecoderParams,
                 codes: Sequence[LatentCode] | None = None) -> None:
    tensors: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        tensors[f"layer{i}.weight"] = w
        tensors[f"layer{i}.bias"] = b
    if codes is not None:
        tensors["codes"] = np.stack([np.asarray(c, dtype=np.float64) for c in codes])
    save_tensors(path, DECODER_MAGIC, tensors)


def load_decoder(path) -> tuple[DecoderParams, list[LatentCode] | None]:
    tensors = load_tensors(path, DECODER_MAGIC)
    weights = []
    biases = []
    i = 0
    while f"layer{i}.weight" in tensors:
        weights.append(tensors[f"layer{i}.weight"])
        biases.append(tensors[f"layer{i}.bias"])
        i += 1
    if not weights:
        raise InvalidInputError(f"no decoder layers found in {path}")
    latent_dim = weights[0].shape[1] - 3
    params = DecoderParams(latent_dim, tuple(weights), tuple(biases))
    codes = None
    if "codes" in tensors:
        codes = [row.copy() for row in tensors["codes"]]
    return params, codes
