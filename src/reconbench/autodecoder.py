"""Latent-code auto-decoder over signed distance samples.

One small fully connected network represents a whole shape family: it
maps a per-object latent code concatenated with a query point to a
signed distance.  Training jointly optimizes network weights and the
codes; describing a new observation means optimizing a fresh code with
the weights frozen.  Losses clamp both prediction and target to a band
around the surface so supervision concentrates where it matters.

Everything is plain numpy with hand-written backpropagation; gradients
are validated against finite differences in the test suite.  Every
pass runs one layer stack, ``_Layers``, whose first layer is a 3-column
point product plus each row's code half, ``W0[:, :L] @ z + b0``.
Training gathers that half per row from one row per object; every pass
with a fixed code (``decoder_forward``, ``decoder_gradient``, grid
decoding and latent inference) holds one, in ``_FixedCode``.
Grid decoding screens the grid in float32 and computes float64 values,
and the Newton step's gradients from the same pass, only where a proven
error margin cannot rule a point out, so its output is the all-float64
one bit for bit (see ``reconstruct``): there float32 only decides which
points get float64 values.  Latent inference runs in float32, as the
reference implementation does; its float32 values are the gradient
itself, so its code differs from a float64 loop's by rounding (a test
bounds the distance on the trained benchmark decoder).  Training steps
in float32 too, with float64 master weights and codes, so its decoder
differs from a float64 loop's by rounding (a test bounds the distance
on the benchmark's training samples).  ``decoder_forward``,
``decoder_gradient`` and ``decoder_output_gradients`` run in float64.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .depth import DepthImage, back_project
from .errors import InvalidInputError
from .fileio import DECODER_MAGIC, load_layers, save_layers
from .geometry import TAG_GENERATED, CameraModel, PointCloud
from .sdf import (
    GRID_RADIUS,
    SdfField,
    SdfGradient,
    SdfSamples,
    default_iso_epsilon,
    extract_surface_points,
)

LatentCode = np.ndarray

# Decoder evaluation runs in row blocks of at most about this many rows
# so every layer's activations stay in cache.  Blocks start at multiples
# of _ROW_ALIGN and hold hundreds of rows.  A row in a whole _ROW_ALIGN
# group of its block rounds the same in any such block; very small
# blocks, or blocks that cut a matrix-vector kernel's row group, round
# differently, so _FixedCode.evaluate pads every block to whole groups.
_ROW_BLOCK = 1024
_ROW_ALIGN = 64

# The error assumed for numpy's tanh, per dtype:
# |tanh(x) computed - tanh(x)| <= _TANH_ERR * |tanh(x)|.  The float32
# figure is about twice the worst case measured (1.83 * 2**-24 with
# numpy 2.4); a test sweeps every float32 input where the error can
# reach it.  The float64 figure only needs to stay far below the
# float32 terms of the screen's margin.
_TANH_ERR = {np.float32: 2.0**-22, np.float64: 2.0**-40}

# standard deviation of the Gaussian draws that start each training code
_CODE_INIT_SIGMA = 0.01


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
    seed: int = 0

    def __post_init__(self):
        if self.latent_dim < 1 or not self.hidden or min(self.hidden) < 1:
            raise InvalidInputError(
                f"latent_dim and hidden sizes must be positive: "
                f"{self.latent_dim}, {self.hidden}"
            )
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


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Near-equal (start, end) blocks of at most about ``_ROW_BLOCK`` rows,
    each starting at a multiple of ``_ROW_ALIGN``."""
    count = max(1, -(-n // _ROW_BLOCK))
    edges = [i * n // count // _ROW_ALIGN * _ROW_ALIGN for i in range(count)] + [n]
    return list(zip(edges[:-1], edges[1:]))


def _check_code(params: DecoderParams, z: LatentCode) -> np.ndarray:
    """``z`` as a float64 vector of the decoder's latent size."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (params.latent_dim,):
        raise InvalidInputError(
            f"latent code has shape {z.shape}; the decoder takes {params.latent_dim} entries"
        )
    return z


class _Layers:
    """The decoder's layers in ``dtype`` over one block of rows: the one
    forward pass of every decoder pass, training included.

    Layer 0 splits in two.  Each point costs a 3-column product with a
    contiguous copy of ``W0[:, L:]``; the code half plus the bias,
    ``W0[:, :L] @ z + b0``, is one row per code (``code_rows``), formed
    in float64 and rounded once to ``dtype``, which the caller adds per
    row.  Every later bias is added from a row tile of it, which gives
    the bits of a broadcast add at about half the cost.  The tiles and
    the layer buffers grow to the largest block seen and serve every
    later one, so a pass allocates no block-sized array.

    The weights are copied in ``dtype`` when the stack is built and by
    ``load``, which training calls once per step; the parameters stay
    float64.
    """

    def __init__(self, params: DecoderParams, dtype=np.float64):
        self.params = params
        self.dtype = dtype
        latent = params.latent_dim
        w0 = params.weights[0]
        self.code_weights = w0[:, :latent]
        self.point = np.empty((w0.shape[0], 3), dtype)
        self.weights = [np.empty(w.shape, dtype) for w in params.weights[1:]]
        self.biases = [np.empty(b.shape, dtype) for b in params.biases[1:]]
        self.tiles = [np.empty((0, b.shape[0]), dtype) for b in self.biases]
        self.outs = [np.empty((0, b.shape[0]), dtype) for b in params.biases]
        self.load()

    def load(self) -> None:
        """Copy the parameters' current weights, rounded to ``dtype``."""
        self.point[...] = self.params.weights[0][:, self.params.latent_dim :]
        for dst, src in zip(self.weights, self.params.weights[1:]):
            dst[...] = src
        for dst, tile, src in zip(self.biases, self.tiles, self.params.biases[1:]):
            dst[...] = src
            tile[...] = src

    def code_rows(self, codes: np.ndarray) -> np.ndarray:
        """``W0[:, :L] @ z + b0`` for each row ``z`` of ``codes``, formed in
        float64 and rounded once to ``dtype``."""
        return (codes @ self.code_weights.T + self.params.biases[0]).astype(self.dtype)

    def _grow(self, arrays: list[np.ndarray], m: int) -> list[np.ndarray]:
        if not arrays or arrays[0].shape[0] >= m:
            return arrays
        return [np.empty((m, a.shape[1]), self.dtype) for a in arrays]

    def layers(self, first: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
        """Every layer's output for one block, given the block's layer-0
        point product ``first`` and each row's code half ``rows``; the
        outputs are views of the layer buffers, good until the next
        call."""
        m = first.shape[0]
        if self.tiles and self.tiles[0].shape[0] < m:
            self.tiles = [np.tile(b, (m, 1)) for b in self.biases]
        self.outs = self._grow(self.outs, m)
        h = np.add(first, rows, out=self.outs[0][:m])
        acts = [h]
        for w, tile, out in zip(self.weights, self.tiles, self.outs[1:]):
            np.tanh(h, out=h)
            h = np.matmul(h, w.T, out=out[:m])
            np.add(h, tile[:m], out=h)
            acts.append(h)
        return acts

    def forward(self, points: np.ndarray, rows: np.ndarray) -> list[np.ndarray]:
        """Every layer's output for one block of points, as ``layers``."""
        m = points.shape[0]
        self.outs = self._grow(self.outs, m)
        return self.layers(np.matmul(points, self.point.T, out=self.outs[0][:m]), rows)


class _FixedCode(_Layers):
    """The decoder with its latent code held fixed, evaluated in ``dtype``:
    the one forward pass of ``decoder_forward``, ``decoder_gradient``,
    the float32 screen, the kept pass and latent inference.

    The code's half of layer 0, ``W0[:, :L] @ z + b0``, is one constant,
    formed in float64 and rounded once to ``dtype``, and added from a row
    tile of it (``code_tile``).

    A row's value does not depend on the block's size or on the row's
    place in it, as long as the row sits in a whole ``_ROW_ALIGN`` group
    of the block; ``evaluate`` pads to whole groups, so there a row's
    value and gradient do not depend on the call.

    ``decoder_forward``, ``decoder_gradient`` and the kept pass run in
    float64; the grid screen and latent inference in float32.
    ``code_grad`` returns its sum in ``dtype`` for the caller to
    accumulate.
    """

    def __init__(self, params: DecoderParams, z: LatentCode, dtype=np.float64):
        z = _check_code(params, z)
        super().__init__(params, dtype)
        self.tile = np.empty((0, self.point.shape[0]), dtype)
        # the gathered live rows of each hidden layer, for code_grad
        self.gathered = [np.empty((0, b.shape[0]), dtype) for b in params.biases[:-1]]
        self.set_code(z)

    def set_code(self, z: np.ndarray) -> None:
        """Hold code ``z`` from now on."""
        self.code = (self.code_weights @ z + self.params.biases[0]).astype(self.dtype)
        self.tile[...] = self.code

    def code_tile(self, m: int) -> np.ndarray:
        """The held code's half of layer 0 for ``m`` rows."""
        if self.tile.shape[0] < m:
            self.tile = np.tile(self.code, (m, 1))
        return self.tile[:m]

    def point_grads(self, acts: list[np.ndarray]) -> np.ndarray:
        """Gradient of the output with respect to the query point, (m, 3),
        from one block's activations, which it overwrites.

        The output's gradient times the last layer is a product over one
        column, formed as a broadcast multiply, and the last contraction
        runs over the point columns of layer 0 only.
        """
        last = len(acts) - 1
        if last == 0:
            return np.broadcast_to(self.point, (acts[0].shape[0], 3))
        grad = None
        for i in range(last - 1, -1, -1):
            np.square(acts[i], out=acts[i])
            np.subtract(1.0, acts[i], out=acts[i])
            if grad is None:
                grad = acts[i]
                grad *= self.weights[-1]
            else:
                grad = grad @ self.weights[i]
                grad *= acts[i]
        return grad @ self.point

    def code_grad(self, acts: list[np.ndarray], dpred: np.ndarray) -> np.ndarray | None:
        """The sum over one block's rows of d(objective)/d(layer 0's
        pre-activation), given d(objective)/d(output) per row and the
        block's activations, which it overwrites; None when every row's
        ``dpred`` is zero.

        Only the live rows, those with a nonzero ``dpred``, are carried
        back: a dead row's gradient is exactly zero, and the rows sum in
        order, so leaving it out changes no bit.  A lone live row takes a
        dead one along, which keeps the products on the matrix kernel the
        whole block would use (one row goes to a matrix-vector kernel
        that rounds differently).
        """
        live = np.flatnonzero(dpred)
        if live.size == 0:
            return None
        if live.size == 1 and dpred.shape[0] > 1:
            live = np.array([live[0], (live[0] + 1) % dpred.shape[0]])
        k = live.size
        self.gathered = self._grow(self.gathered, k)
        grad = dpred[live, None]
        last = len(acts) - 1
        for i in range(last - 1, -1, -1):
            # layer i's activations, once gathered, leave its buffer free
            # for the product carried into it
            rows = np.take(acts[i], live, axis=0, out=self.gathered[i][:k], mode="clip")
            product = np.multiply if i == last - 1 else np.matmul
            grad = product(grad, self.weights[i], out=acts[i][:k])
            np.square(rows, out=rows)
            np.subtract(1.0, rows, out=rows)
            rows *= grad
            grad = rows
        return grad.sum(axis=0)

    def evaluate(self, points, with_grads: bool = False):
        """Values at ``points`` in ``_row_blocks``, and with ``with_grads``
        their point gradients from the same pass; (values, grads or None).
        A block that ends in a partial row group is padded with zero rows
        to a whole one, whose outputs are dropped."""
        pts = np.atleast_2d(np.asarray(points, dtype=self.dtype))
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError("points must be (N, 3)")
        n = pts.shape[0]
        vals = np.empty(n, dtype=self.dtype)
        grads = np.empty((n, 3), dtype=self.dtype) if with_grads else None
        for s, e in _row_blocks(n):
            m = e - s
            block = pts[s:e]
            if m % _ROW_ALIGN:
                block = np.concatenate([block, np.zeros((-m % _ROW_ALIGN, 3), self.dtype)])
            acts = self.forward(block, self.code_tile(block.shape[0]))
            vals[s:e] = acts[-1][:m, 0]
            if with_grads:
                grads[s:e] = self.point_grads(acts)[:m]
        return vals, grads


def decoder_forward(params: DecoderParams, z: LatentCode, points) -> np.ndarray:
    """Predicted signed distance at each point under code z."""
    return _FixedCode(params, z).evaluate(points)[0]


def decoder_gradient(params: DecoderParams, z: LatentCode, points) -> np.ndarray:
    """Exact gradient of the predicted signed distance with respect to
    each query point under code z, shape (N, 3)."""
    return _FixedCode(params, z).evaluate(points, with_grads=True)[1]


def decoder_output_gradients(params: DecoderParams, z: LatentCode, point):
    """Exact gradients of the scalar output at one point.

    Returns (weight_grads, bias_grads, z_grad): the training backward
    (``_batch_backward``) in float64 on one row with d(output) = 1; used
    by the finite-difference validation.
    """
    codes = _check_code(params, z)[None, :]
    pts = np.asarray(point, dtype=np.float64).reshape(1, 3)
    layers = _Layers(params)
    acts = layers.forward(pts, layers.code_rows(codes))
    gw, gb, sums = _batch_backward(layers, acts, pts, codes, np.zeros(1, np.int64), np.ones(1))
    return gw, gb, (sums @ layers.code_weights)[0]


def _clamp(a: np.ndarray, delta: float) -> np.ndarray:
    return np.clip(a, -delta, delta)


def _clamped_l1_grad(r, pred, delta: float, n: int) -> np.ndarray:
    """d(sum |r| / n)/d(pred) for the clamped residual ``r``, written over
    ``r``: sign(r) / n where ``|pred| < delta``, else zero."""
    np.sign(r, out=r)
    r *= np.abs(pred) < delta
    r /= n
    return r


def _batch_backward(layers: _Layers, acts, points, codes, obj, dpred):
    """Weight and bias gradients of a batch, given d(objective)/d(output)
    per row; (weight grads, bias grads, per-object sums), all float64.

    Row ``r`` holds point ``points[r]`` of object ``obj[r]``, whose code
    is ``codes[obj[r]]``.  The backward runs in the layers' dtype, down
    to layer 0's pre-activation, and overwrites ``acts``.  The code half
    of layer 0 sees each object's code, not each row, so its gradients
    need only the per-object sums of the rows' layer-0 gradients,
    ``S``, one product with the one-hot (objects x rows) matrix:
    ``dW0[:, :L] = S^T codes`` and the bias gradient is the sum of ``S``.
    Each code's own gradient is its row of ``S @ W0[:, :L]``.
    """
    last = len(acts) - 1
    gw: list[np.ndarray] = [np.empty(0)] * (last + 1)
    gb: list[np.ndarray] = [np.empty(0)] * (last + 1)
    grad = dpred[:, None]
    for i in range(last, 0, -1):
        gw[i] = (grad.T @ acts[i - 1]).astype(np.float64)
        gb[i] = grad.sum(axis=0).astype(np.float64)
        # a product over one column is one rounding per entry: the
        # broadcast multiply gives the same bits at half the cost
        w = layers.weights[i - 1]
        grad = grad * w if i == last else grad @ w
        slope = acts[i - 1]
        np.square(slope, out=slope)
        np.subtract(1.0, slope, out=slope)
        grad *= slope
    onehot = (np.arange(codes.shape[0])[:, None] == obj).astype(layers.dtype)
    sums = (onehot @ grad).astype(np.float64)
    gw[0] = np.concatenate([sums.T @ codes, (grad.T @ points).astype(np.float64)], axis=1)
    gb[0] = sums.sum(axis=0)
    return gw, gb, sums


def _batch_loss_gradients(
    params: DecoderParams, codes, points, target, obj, cfg: TrainConfig, layers: _Layers
):
    """Mean loss of one batch and its gradients; (loss, weight grads,
    bias grads, code grads), all float64.

    The loss is the clamped-L1 data term plus the code prior
    ``lambda |z|^2`` per row, whose gradient flows to the row's code.
    Rows are as ``_batch_backward``'s; each object's code half of layer
    0 is formed once and gathered per row.  The step computes in
    ``points.dtype``, which ``layers`` must have, on its copy of
    ``params``' current weights, reloaded here; the loss sums in
    float64.
    """
    layers.load()
    m = points.shape[0]
    acts = layers.forward(points, layers.code_rows(codes)[obj])
    pred = acts[-1][:, 0]
    r = _clamp(pred, cfg.clamp_delta) - _clamp(target, cfg.clamp_delta)
    counts = np.bincount(obj, minlength=codes.shape[0])
    prior = cfg.code_prior_weight * float(counts @ np.einsum("ok,ok->o", codes, codes))
    loss = (float(np.abs(r).sum(dtype=np.float64)) + prior) / m
    gw, gb, sums = _batch_backward(
        layers, acts, points, codes, obj, _clamped_l1_grad(r, pred, cfg.clamp_delta, m)
    )
    gz = sums @ layers.code_weights + (2.0 * cfg.code_prior_weight / m) * counts[:, None] * codes
    return loss, gw, gb, gz


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
    minibatches.  Each step computes in float32 on a float32 copy of the
    weights (``_batch_loss_gradients``); the weights, codes, their
    velocities and the update stay float64 (mixed-precision training,
    Micikevicius et al. 2018).  The run is deterministic: a fixed config
    (including its seed) reproduces parameters bit for bit.
    """
    if not samples_per_object:
        raise InvalidInputError("need at least one object to train on")
    if any(len(s) == 0 for s in samples_per_object):
        raise InvalidInputError("every object needs at least one sample")
    rng = np.random.default_rng(cfg.seed)
    params = init_decoder(cfg, rng)
    n_obj = len(samples_per_object)
    codes = rng.normal(0.0, _CODE_INIT_SIGMA, size=(n_obj, cfg.latent_dim))

    # the one place that sets the training step's dtype
    points = np.concatenate([s.points for s in samples_per_object], dtype=np.float32)
    target = np.concatenate([s.sdf for s in samples_per_object], dtype=np.float32)
    owner = np.concatenate(
        [np.full(len(s), i, dtype=np.int64) for i, s in enumerate(samples_per_object)]
    )
    n = points.shape[0]

    # every weight and bias is a view of one flat array, so a step's
    # update is a few calls whatever the depth
    tensors = params.weights + params.biases
    flat = np.concatenate([t.ravel() for t in tensors])
    views = np.split(flat, np.cumsum([t.size for t in tensors])[:-1])
    views = [v.reshape(t.shape) for v, t in zip(views, tensors)]
    depth = len(params.weights)
    params = DecoderParams(cfg.latent_dim, tuple(views[:depth]), tuple(views[depth:]))
    layers = _Layers(params, points.dtype)
    velocity = np.zeros_like(flat)
    vel_z = np.zeros_like(codes)
    losses: list[float] = []

    lr = cfg.learning_rate
    code_lr = cfg.code_learning_rate
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        for s in range(0, n, cfg.batch_size):
            batch = perm[s : s + cfg.batch_size]
            loss, gw, gb, gz = _batch_loss_gradients(
                params, codes, points[batch], target[batch], owner[batch], cfg, layers
            )
            epoch_loss += loss * batch.shape[0]
            velocity *= cfg.momentum
            velocity -= lr * np.concatenate([g.ravel() for g in gw + gb])
            flat += velocity
            vel_z *= cfg.momentum
            vel_z -= code_lr * gz
            codes += vel_z
        losses.append(epoch_loss / n)
        lr *= cfg.lr_decay
        code_lr *= cfg.lr_decay

    return AutoDecoderResult(params, [codes[i].copy() for i in range(n_obj)], losses)


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

    Each step runs ``_FixedCode``'s forward over ``_row_blocks`` of the
    samples; a block's layer-0 point product is formed once per call,
    and a step adds the code's constant to it.  The backward stops at
    layer 0's pre-activation and runs on the rows the clamp leaves a
    gradient only, and the code's gradient is the sum of those rows
    times ``W0[:, :L]``, plus the prior's.

    The network runs in float32: points, targets, predictions and
    residuals, and each block's sum of rows.  The sums add into a
    float64 total, and the code, its velocity, the prior and
    ``total @ W0[:, :L]`` stay float64, so the steps accumulate in
    float64.  The result differs from a float64 loop's by rounding
    only: on the benchmark's fixture decoder and settings, by at most
    about 1.5e-7 of the code's norm.
    """
    if len(observation) == 0:
        raise InvalidInputError("cannot infer a code from no samples")
    if init is None:
        z = np.zeros(params.latent_dim)
    else:
        z = _check_code(params, init).copy()
    vel = np.zeros_like(z)
    code_lr = cfg.code_learning_rate
    fixed = _FixedCode(params, z, np.float32)
    pts = observation.points.astype(np.float32)
    n = pts.shape[0]
    blocks = _row_blocks(n)
    # each block's layer-0 point product serves every step
    firsts = [pts[s:e] @ fixed.point.T for s, e in blocks]
    target = _clamp(observation.sdf.astype(np.float32), cfg.clamp_delta)
    for _ in range(cfg.epochs):
        fixed.set_code(z)
        total = np.zeros(params.weights[0].shape[0])
        for (s, e), first in zip(blocks, firsts):
            acts = fixed.layers(first, fixed.code_tile(e - s))
            pred = acts[-1][:, 0]
            # the training loss's d(loss)/d(pred); inference needs no loss value
            r = _clamp(pred, cfg.clamp_delta) - target[s:e]
            block = fixed.code_grad(acts, _clamped_l1_grad(r, pred, cfg.clamp_delta, n))
            if block is not None:
                total += block
        gz = total @ fixed.code_weights + 2.0 * cfg.code_prior_weight * z
        vel = cfg.momentum * vel - code_lr * gz
        z = z + vel
        code_lr *= cfg.lr_decay
    return z


def _forward_error_bound(params: DecoderParams, z: LatentCode, dtype) -> float:
    """Bound on |computed - exact| for the decoder output at any point of
    the grid cube, when the pass runs in ``dtype``.

    The model, with unit roundoff ``u`` and ``gamma_n = n u / (1 - n u)``:
    inputs, weights and biases are rounded to ``dtype`` (relative error
    ``u`` each); each layer is a dot product plus bias, ``n`` terms
    summed in any order with or without fused multiply-adds, so its
    rounding is at most ``gamma_n`` times the sum of the terms'
    magnitudes; tanh is 1-Lipschitz and adds ``_TANH_ERR``.  Carried
    per unit, with ``h`` the exact input of a layer, ``|h| <= m`` and
    ``|h_computed - h| <= e``:

        e' = |W| e + u (|W| (m + e) + |b|) + gamma_n (1 + u) (|W| (m + e) + |b|)

    then ``e' + _TANH_ERR`` and ``m' = min(1, |W| m + |b|)`` after tanh.
    The first layer's inputs are the code and the point, with
    ``|p_k| <= GRID_RADIUS``.  The screen computes that layer's code
    half in float64 and rounds it once, which errs less than the model's
    ``gamma_{L+4}`` on those terms.  Underflow adds at most about 1e-45
    per float32 operation, far inside the factor 2 ``_screen_margin``
    applies.  Returns inf when the bound overflows.
    """
    unit = float(np.finfo(dtype).eps) / 2.0
    mag = np.concatenate([np.abs(z), np.full(3, GRID_RADIUS)])
    err = unit * mag
    last = len(params.weights) - 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            aw, ab = np.abs(w), np.abs(b)
            n = w.shape[1] + 1
            gamma = n * unit / (1.0 - n * unit)
            terms = aw @ (mag + err) + ab
            err = aw @ err + (unit + gamma * (1.0 + unit)) * terms
            if i == last:
                break
            err = err + _TANH_ERR[dtype]
            mag = np.minimum(1.0, aw @ mag + ab)
    bound = float(err[0])
    return bound if np.isfinite(bound) else np.inf


def _screen_margin(params: DecoderParams, z: LatentCode) -> float:
    """Twice the largest distance the float32 screen's value can have
    from ``decoder_forward``'s at a grid point: both lie within their
    forward-error bound of the exact value."""
    return 2.0 * (
        _forward_error_bound(params, z, np.float32)
        + _forward_error_bound(params, z, np.float64)
    )


def _screen_field(params: DecoderParams, z: LatentCode) -> SdfField:
    """The decoder in float32, for screening grid points."""
    fixed = _FixedCode(params, z, np.float32)
    return lambda p: fixed.evaluate(p)[0]


def _kept_pass(
    params: DecoderParams, z: LatentCode, iso_epsilon: float
) -> tuple[SdfField, SdfGradient]:
    """``decoder_forward`` on the grid points the screen keeps, and
    ``decoder_gradient`` on the candidates among them, those with
    ``|value| <= iso_epsilon``, from one float64 pass.  A row's value and
    gradient do not depend on the call (see ``_FixedCode.evaluate``), so
    both equal the whole-grid pass's bit for bit."""
    fixed = _FixedCode(params, z)
    kept: dict[str, np.ndarray] = {}

    def field(points: np.ndarray) -> np.ndarray:
        kept["values"], kept["grads"] = fixed.evaluate(points, with_grads=True)
        return kept["values"]

    def gradient(cand: np.ndarray) -> np.ndarray:
        return kept["grads"][np.abs(kept["values"]) <= iso_epsilon]

    return field, gradient


def reconstruct(
    params: DecoderParams, z: LatentCode, grid_resolution: int = 64
) -> PointCloud:
    """Surface points of the decoded field, tagged generated.

    Equal bit for bit to ``extract_surface_points`` on
    ``decoder_forward`` with ``decoder_gradient`` as its
    ``gradient_fn``, at a fraction of its cost: a float32 pass
    (``_screen_field``) screens the grid, and only points whose float32
    value lies within the extraction band widened by ``_screen_margin``
    get float64 values.  The margin bounds the two passes' distance at
    any grid point, so a point the screen drops has a float64 value
    outside the band.  Both passes are ``_FixedCode``'s forward, in float32 and in
    float64.  The float64 pass runs once per kept point
    (``_kept_pass``): the Newton step's gradients come from the same
    pass's activations, exact because the point backward contracts over
    the point columns only.  A code of the wrong length raises
    ``InvalidInputError``.
    """
    z = np.asarray(z, dtype=np.float64)
    field, gradient = _kept_pass(params, z, default_iso_epsilon(grid_resolution))
    pts = extract_surface_points(
        field,
        grid_resolution,
        gradient_fn=gradient,
        screen=(_screen_field(params, z), _screen_margin(params, z)),
    )
    return PointCloud.from_points(pts, TAG_GENERATED)


# ---------------------------------------------------------------------------
# observation samples from a single depth view


def _step_numbers(steps: np.ndarray) -> np.ndarray:
    """1, 2, ..., steps[i] for each ray i in turn, as one array."""
    return np.arange(steps.sum()) - np.repeat(np.cumsum(steps) - steps, steps) + 1


def view_samples_for_inference(
    image: DepthImage,
    cam: CameraModel,
    spacing: float = 0.05,
    value_cap: float = 0.1,
    max_count: int = 20_000,
    seed: int = 0,
) -> SdfSamples:
    """Turn one depth image into SDF supervision for latent inference.

    Back-projected surface points contribute zeros.  Along each pixel
    ray, points between where the ray enters the ball of radius
    ``GRID_RADIUS`` and the observed surface are free space: they get a
    positive value, the distance to the surface along the ray, capped
    at ``value_cap``.
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
    disc = b * b - (oo - GRID_RADIUS * GRID_RADIUS)
    disc = np.maximum(disc, 0.0)
    t_enter = np.maximum(-b - np.sqrt(disc), 0.0)

    span = t_surf - t_enter
    steps = np.maximum(np.floor(span / spacing).astype(np.int64), 0)
    ray_idx = np.repeat(np.arange(len(cloud)), steps)
    if ray_idx.size:
        gap = _step_numbers(steps) * spacing
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
    save_layers(path, DECODER_MAGIC, "layer", params.weights, params.biases, codes)


def load_decoder(path) -> tuple[DecoderParams, list[LatentCode] | None]:
    weights, biases, codes = load_layers(path, DECODER_MAGIC, "layer")
    if not weights:
        raise InvalidInputError(f"no decoder layers found in {path}")
    params = DecoderParams(weights[0].shape[1] - 3, weights, biases)
    if codes is not None:
        codes = [row.copy() for row in codes]
    return params, codes
