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
point product plus each row's code half, ``W0[:, :L] @ z + b0``, and
whose one backward gives training's weight gradients, latent
inference's code gradient and the Newton step's point gradients.
Training gathers that half per row from one row per object; every pass
with a fixed code (``decoder_forward``, ``decoder_gradient``, grid
decoding and latent inference) holds one, in ``_FixedCode``.
Grid decoding first drops whole boxes of grid points whose range bound
(affine arithmetic over each box, in float32, rechecked in float64
where float32's rounding allowance may decide) lies beyond the band, at
grid 64 and above; it screens the rest in float32 and computes float64
values, and the Newton step's gradients from the same pass, only where
a proven error margin cannot rule a point out, so its output is the
all-float64 one bit for bit (see ``reconstruct``): there the bound and
float32 only decide which points get float64 values.  Latent inference
runs in float32, as the reference implementation does; its float32
values are the gradient itself, so its code differs from a float64
loop's by rounding (a test bounds the distance on the trained benchmark
decoder).  Training steps in float32 too, with float64 master weights
and codes, so its decoder differs from a float64 loop's by rounding (a
test bounds the distance on the benchmark's training samples).
``decoder_forward``, ``decoder_gradient`` and
``decoder_output_gradients`` run in float64.
"""
from __future__ import annotations

import math
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
    grid_axis,
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

# The error assumed for numpy's tanh and arctanh, per dtype:
# |tanh(x) computed - tanh(x)| <= _TANH_ERR * |tanh(x)|, and the same
# for arctanh.  The float32 figure is about twice the worst cases
# measured (1.83 * 2**-24 for tanh, 2.32 * 2**-24 for arctanh, numpy
# 2.4); tests sweep every float32 input where the errors can reach it.
# The float64 figure only needs to stay far below the float32 terms of
# the screen's margin.
_TANH_ERR = {np.float32: 2.0**-22, np.float64: 2.0**-40}
# unit roundoff, per dtype
_UNIT = {np.float32: 2.0**-24, np.float64: 2.0**-53}

# standard deviation of the Gaussian draws that start each training code
_CODE_INIT_SIGMA = 0.01

# The grid decode's range pass splits the grid into _RANGE_BOXES boxes
# per axis and runs where a box spans at least _RANGE_MIN_SPAN grid
# points per axis (grid 64 and above); with smaller boxes it keeps most
# of the grid, or costs more than the screen it saves.
_RANGE_BOXES = 16
_RANGE_MIN_SPAN = 4
# boxes per block of the range pass: each block's arrays stay cache-sized
_RANGE_CHUNK = 256
# a tanh enclosure whose secant slope lies below this takes slope 0, so
# the interior extremes it evaluates are well conditioned in float32 too
_RANGE_MIN_SLOPE = 2.0**-20


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
    forward and backward pass of every decoder pass, training included.

    Layer 0 splits in two.  Each point costs a 3-column product with a
    contiguous copy of ``W0[:, L:]``; the code half plus the bias,
    ``W0[:, :L] @ z + b0``, is one row per code (``code_rows``), formed
    in float64 and rounded once to ``dtype``, which the caller adds per
    row.  Every later bias is added from a row tile of it, which gives
    the bits of a broadcast add at about half the cost.  The tiles and
    the layer buffers grow to the largest block seen and serve every
    later one, so a forward pass allocates no block-sized array.

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

    def backward(self, acts, grad: np.ndarray, weight_grads=None, spare=None) -> np.ndarray:
        """d(objective)/d(layer 0's pre-activation) per row, from
        d(objective)/d(output), ``grad``, per row (m, 1) or shared (1, 1),
        and the rows' hidden-layer outputs ``acts`` (as ``layers``), which
        it overwrites.  With a pair of per-layer lists and a per-row
        ``grad``, it also sets entries 1 and up to those layers' weight
        and bias gradients in float64 (layer 0's need its inputs).  Each
        carried product goes to a fresh array, or to the caller's free
        buffer in ``spare``, which keeps it in cache."""
        last = len(self.weights)
        for i in range(last, 0, -1):
            slope = acts[i - 1]
            if weight_grads is not None:
                weight_grads[0][i] = (grad.T @ slope).astype(np.float64)
                weight_grads[1][i] = grad.sum(axis=0).astype(np.float64)
            # a product over one column is one rounding per entry: the
            # broadcast multiply gives the same bits at half the cost
            product = np.multiply if i == last else np.matmul
            np.square(slope, out=slope)
            np.subtract(1.0, slope, out=slope)
            out = None if spare is None else spare[i - 1][: grad.shape[0]]
            slope *= product(grad, self.weights[i - 1], out=out)
            grad = slope
        return grad


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
        """Gradient of the output with respect to the query point, (m, 3)
        (one row all rows share if the decoder has no hidden layer), from
        one block's activations, which it overwrites: the backward from
        d(output) = 1 times layer 0's point columns."""
        return self.backward(acts, np.ones((1, 1), self.dtype)) @ self.point

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
        rows = [np.take(a, live, axis=0, out=g[:k], mode="clip")
                for a, g in zip(acts, self.gathered)]
        # the block's own buffers are free once gathered
        return self.backward(rows, dpred[live, None], spare=acts).sum(axis=0)

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
    gw: list[np.ndarray] = [np.empty(0)] * len(acts)
    gb: list[np.ndarray] = [np.empty(0)] * len(acts)
    grad = layers.backward(acts, dpred[:, None], (gw, gb))
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
    unit = _UNIT[dtype]
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


def _shaped(flat: np.ndarray, *shape: int) -> np.ndarray:
    """The leading entries of the work array ``flat`` as a C-contiguous
    array of ``shape``."""
    return flat[: math.prod(shape)].reshape(shape)


def _abs_sum(planes: np.ndarray, out: np.ndarray, part: np.ndarray) -> np.ndarray:
    """The sum of the planes' magnitudes, in plane order, into ``out``;
    ``part`` is scratch."""
    np.abs(planes[0], out=out)
    for plane in planes[1:]:
        out += np.abs(plane, out=part)
    return out


def _affine_bounds(aff, radius, lo, hi, reach):
    """Bounds ``lo`` and ``hi`` on the affine forms ``aff`` (centres,
    then one coefficient per axis) with ``radius``, rounded outward, and
    ``reach``, the centre's magnitude plus the spread, with ``max(|lo|,
    |hi|) <= (1 + 10u) reach``; written into the arrays given.  The
    spread widens by ``8u reach``, which covers its own rounding and
    each end's, with ``u`` the unit roundoff of their dtype."""
    spread = _abs_sum(aff[1:], hi, lo)
    spread += radius
    np.abs(aff[0], out=reach)
    reach += spread
    spread += np.multiply(reach, 8.0 * _UNIT[aff.dtype.type], out=lo)
    np.subtract(aff[0], spread, out=lo)
    np.add(aff[0], spread, out=hi)
    return lo, hi, reach


def _affine_linear(w, b, aff, radius, out, radius_out, work) -> None:
    """A linear layer on affine forms, into ``out`` and ``radius_out``:
    exact on centres and coefficients, through ``|W|`` on the radius,
    which also takes the layer's rounding (see ``_box_ranges``); ``w``,
    ``b`` and ``work``, two arrays shaped like ``radius``, have the
    forms' dtype."""
    g = 4.0 * (w.shape[1] + 8) * _UNIT[aff.dtype.type]
    mag = _abs_sum(aff, work[0], work[1])
    mag += radius
    mag *= g
    mag += radius
    np.matmul(mag, np.abs(w).T, out=radius_out)
    radius_out += g * np.abs(b)
    np.matmul(aff, w.T, out=out)
    out[0] += b


def _affine_tanh(aff, radius, work) -> None:
    """tanh on affine forms by its Chebyshev linear enclosure over each
    form's range (see ``_box_ranges``), in place; ``work`` holds twelve
    arrays shaped like ``radius``."""
    lo, hi, reach, t_lo, t_hi, slope, root, crit, g, g_max, g_min, x = work
    _affine_bounds(aff, radius, lo, hi, reach)
    np.tanh(lo, out=t_lo)
    np.tanh(hi, out=t_hi)
    np.subtract(t_hi, t_lo, out=slope)
    slope /= np.subtract(hi, lo, out=x)
    # any slope in [0, 1] is sound: 0/0 takes 1, and a slope too small
    # for a well-conditioned crit takes 0
    np.fmin(slope, 1.0, out=slope)
    slope *= slope >= _RANGE_MIN_SLOPE
    # g(x) = tanh(x) - slope x over [lo, hi]: its maximum lies at an end
    # or at +crit, its minimum at an end or at -crit, where tanh is
    # +-root; tanh of a point clipped to [lo, hi] is its tanh clipped to
    # [tanh(lo), tanh(hi)]
    np.subtract(1.0, slope, out=root)
    np.sqrt(root, out=root)
    np.arctanh(root, out=crit)
    np.subtract(t_lo, np.multiply(slope, lo, out=x), out=g)
    np.subtract(t_hi, np.multiply(slope, hi, out=x), out=g_min)
    np.maximum(g, g_min, out=g_max)
    np.minimum(g, g_min, out=g_min)
    for extreme, best in ((g_max, np.maximum), (g_min, np.minimum)):
        if extreme is g_min:
            np.negative(crit, out=crit)
            np.negative(root, out=root)
        np.maximum(crit, lo, out=x)
        np.minimum(x, hi, out=x)
        x *= slope
        np.maximum(root, t_lo, out=g)
        np.minimum(g, t_hi, out=g)
        g -= x
        best(extreme, g, out=extreme)
    aff *= slope
    aff[0] += np.multiply(np.add(g_max, g_min, out=x), 0.5, out=x)
    g_max -= g_min
    g_max *= 0.5
    radius *= slope
    radius += g_max
    # the rounding allowance, with each unit's largest reach
    dtype = aff.dtype.type
    radius += 20.0 * _TANH_ERR[dtype] + 32.0 * _UNIT[dtype] * (1.0 + reach.max(axis=0))


def _box_ranges(
    params: DecoderParams, z: LatentCode, lo: np.ndarray, hi: np.ndarray, dtype
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds (low, high), each (B,) and float64, on the exact decoder
    output under code ``z`` at every point ``lo[i] <= p <= hi[i]`` of
    each box; ``lo`` and ``hi`` are (B, 3).  Affine-arithmetic range
    analysis (Sharp and Jacobson 2022) computed in ``dtype``, float32 or
    float64; in both, "exact" is the network's real-arithmetic value
    with its float64 parameters.  An overflow or a NaN on the way gives
    a bound that is not finite.

    Each unit holds an affine form over one noise symbol per axis,
    ``e`` in [-1, 1]^3: a centre ``c``, coefficients ``a_k`` and a radius
    ``r >= 0``, such that the unit's exact value at every point ``p`` of
    the box lies within ``r`` of ``c + a.e(p)``, with ``e(p)`` the same
    for every unit.  ``aff`` stacks centres and coefficients, (4, B, n).

    - Layer 0 is exact: with the box's centre ``m`` and half widths
      ``h``, ``p = m + h e``, so ``c = W0p m + W0[:, :L] z + b0`` and
      ``a_k = h_k W0p[:, k]`` (``W0p`` the point columns).
    - A linear layer maps centres and coefficients exactly and the
      radius through ``|W|``.
    - tanh on the form's range [lo, hi] takes the Chebyshev (min-max)
      linear enclosure: with ``s`` the secant slope, tanh(x) = s x +
      g(x), and g, odd, rises on [-x*, x*] and falls outside, x* =
      atanh(sqrt(1 - s)); so its maximum over [lo, hi] lies at an end or
      at x*, its minimum at an end or at -x*, and the form becomes
      ``s c + (g_max + g_min) / 2``, ``s a_k``, ``s r + (g_max - g_min) /
      2``.  Any ``s`` in [0, 1] gives a valid enclosure with its own g;
      below ``_RANGE_MIN_SLOPE`` it is 0 and the range [tanh(lo),
      tanh(hi)].

    Rounding goes into the radius.  With ``u`` the dtype's unit roundoff
    (``_UNIT``: 2**-24 in float32, 2**-53 in float64) and ``gamma_n = n
    u / (1 - n u)``: ``n`` products plus a bias, summed in any order
    with or without fused multiply-adds, err by at most ``gamma_{n+1}``
    times the sum of the terms' magnitudes, and a computed sum of
    nonnegative terms is at least ``1 - gamma`` of the exact one.  The
    pass reads the weights and biases, the code half ``W0[:, :L] z +
    b0`` and the box's centre and half widths, the last two formed in
    float64, each rounded once to ``dtype``: a relative error of at most
    ``u`` each, which the allowances below take in, so the forms bound
    the float64 network in float32 too.  Every constant below holds for
    any ``u <= 2**-24``.

    - Layer 0, fan-in ``n = L + 3``: the centre (code half included) and
      the coefficients err by at most ``(gamma_{n+1} + u) T0``, ``T0 =
      |W0[:, :L]| |z| + |b0| + |W0p| P`` with ``P`` the box's largest
      |coordinate| per axis, the weights' and code half's rounding
      included; the rounded ``m`` and ``h`` cover the box but for ``2 u
      P`` per axis, which ``|W0p|`` maps to at most ``2 u T0``.  The
      radius ``4 (n + 8) u T0``, formed from rounded terms, covers both
      twice over.
    - A linear layer of fan-in ``n``: the centres and, as ``|e| <= 1``,
      the coefficients err by at most ``(gamma_{n+1} + u) T``, ``T =
      |W| M + |b|`` with ``M = |c| + sum_k |a_k| + r``, the weights'
      rounding included.  The radius is formed as ``|W| (r + g M) + g
      |b|``, ``g = 4 (n + 8) u``, from the rounded weights: nonnegative
      terms whose computed sum is at least ``(1 - gamma_{n+8}) (|W| r +
      g T) >= |W| r + (gamma_{n+1} + u) T + g T / 2``, since ``|W| r <=
      T``.
    - tanh: [lo, hi] is rounded outward (``_affine_bounds``), and ``X
      = max(|lo|, |hi|)``, so ``|g| <= 1 + s X`` there.  An end's g errs
      by at most ``_TANH_ERR + 2.01 u (1 + s X)``.  At x* the pass takes
      tanh(x*) = sqrt(1 - s) clipped to the ends' tanh, less s times x*
      clipped to [lo, hi].  When x* lies in [lo, hi], the first errs by
      at most ``_TANH_ERR``, as tanh(x*) lies between the ends' exact
      tanh and the square root errs by at most ``2 u <= _TANH_ERR``.
      For ``s >= 2**-20`` the computed x* lies within ``4 u / s + 8
      _TANH_ERR`` of x*.  This is where ``_RANGE_MIN_SLOPE`` keeps the
      step well conditioned: within ``2 u`` of sqrt(1 - s), ``1 - y**2
      >= s - 4 u - 4 u**2 >= s / 2`` for ``s >= 8 u``, which 2**-20 =
      16 u is in float32, so atanh's slope there is at most ``2 / s``,
      and its value is at most 8; atanh itself is within ``_TANH_ERR``
      of exact (tests sweep every float32 input it can take here, 0 or
      [2**-12, 1), and sample float64 ones).  So that g value errs by
      at most ``9 _TANH_ERR + 6.01 u (1 + s X)``, and where x* lies
      outside, the value is one more point's g (or an end's), which
      only widens the range.  The midpoint, the half width, ``s c`` and
      ``s a_k`` err by ``6.01 u (1 + s X)`` more.  The radius adds ``20
      _TANH_ERR + 32 u (1 + R)``, ``R`` the unit's largest ``reach``
      over the boxes (``X <= (1 + 10u) R``), which covers these and its
      own rounding.

    Underflow adds at most 2**-149 per float32 operation and 2**-1074
    per float64 one (numpy keeps subnormals).  That is far inside the
    ``20 _TANH_ERR`` each tanh step adds, and a linear layer's spare
    half of ``g T`` covers it unless ``T < 2**-100`` in float32 or
    ``T < 2**-1000`` in float64; at the last layer such a ``T`` leaves
    the range far inside the band, where no box is dropped.
    """
    z = _check_code(params, z)
    latent = params.latent_dim
    w0, b0 = params.weights[0], params.biases[0]
    point = w0[:, latent:].astype(dtype)
    weights = [w.astype(dtype) for w in params.weights[1:]]
    biases = [b.astype(dtype) for b in params.biases[1:]]
    # float64 bounds: a comparison with a float64 threshold is then exact
    low, high = np.empty(lo.shape[0]), np.empty(lo.shape[0])
    # every work array is allocated once (block-sized temporaries made
    # per operation cost up to half as much again in page faults); each
    # layer reads one of the two forms and radii and writes the other
    width = max(w.shape[0] for w in params.weights)
    flat = [np.empty(_RANGE_CHUNK * width, dtype) for _ in range(12)]
    flat_radii = [np.empty(_RANGE_CHUNK * width, dtype) for _ in range(2)]
    flat_forms = [np.empty(4 * _RANGE_CHUNK * width, dtype) for _ in range(2)]
    with np.errstate(all="ignore"):
        code = (w0[:, :latent] @ z + b0).astype(dtype)
        code_terms = (np.abs(w0[:, :latent]) @ np.abs(z) + np.abs(b0)).astype(dtype)
        for s in range(0, lo.shape[0], _RANGE_CHUNK):
            box_lo, box_hi = lo[s:s + _RANGE_CHUNK], hi[s:s + _RANGE_CHUNK]
            m, n = box_lo.shape[0], w0.shape[0]
            aff, radius = _shaped(flat_forms[0], 4, m, n), _shaped(flat_radii[0], m, n)
            np.matmul(((box_lo + box_hi) / 2.0).astype(dtype), point.T, out=aff[0])
            aff[0] += code
            half = ((box_hi - box_lo) / 2.0).astype(dtype)
            np.multiply(half.T[:, :, None], point.T[:, None, :], out=aff[1:])
            far = np.maximum(np.abs(box_lo), np.abs(box_hi)).astype(dtype)
            np.matmul(far, np.abs(point).T, out=radius)
            radius += code_terms
            radius *= 4.0 * (w0.shape[1] + 8) * _UNIT[dtype]
            for i, (w, b) in enumerate(zip(weights, biases)):
                work = [_shaped(f, m, aff.shape[2]) for f in flat]
                _affine_tanh(aff, radius, work)
                out = _shaped(flat_forms[(i + 1) % 2], 4, m, w.shape[0])
                radius_out = _shaped(flat_radii[(i + 1) % 2], m, w.shape[0])
                _affine_linear(w, b, aff, radius, out, radius_out, work)
                aff, radius = out, radius_out
            ends = _affine_bounds(aff, radius, *(_shaped(f, m, 1) for f in flat[:3]))
            low[s:s + m], high[s:s + m] = ends[0][:, 0], ends[1][:, 0]
    return low, high


def _range_allowance(params: DecoderParams, z: LatentCode, dtype) -> float:
    """An estimate from above of the part of ``_box_ranges``' output
    radius, in ``dtype``, that is rounding allowance, for any box in the
    grid cube: each step's allowance carried through ``|W|`` with every
    tanh slope taken as 1 and each form after tanh within 1 plus its
    allowance, in the style of ``_forward_error_bound``.  It only picks the boxes
    ``_live_grid_points`` rechecks in float64, never a box to drop.
    Not finite when the sum overflows or meets a NaN."""
    unit, tanh_err = _UNIT[dtype], _TANH_ERR[dtype]
    w0, b0 = params.weights[0], params.biases[0]
    with np.errstate(all="ignore"):
        # each unit's largest term magnitude, and the allowance of layer 0
        terms = np.abs(w0) @ np.concatenate([np.abs(z), np.full(3, GRID_RADIUS)]) + np.abs(b0)
        allow = 4.0 * (w0.shape[1] + 8) * unit * terms
        for w, b in zip(params.weights[1:], params.biases[1:]):
            # tanh: slope 1, plus its allowance at the unit's reach
            allow = allow + 20.0 * tanh_err + 32.0 * unit * (1.0 + terms + allow)
            # a form after tanh reaches at most 1 beyond its allowance
            mag = 1.0 + allow
            g = 4.0 * (w.shape[1] + 8) * unit
            aw, ab = np.abs(w), np.abs(b)
            allow = aw @ (allow + g * mag) + g * ab
            terms = aw @ mag + ab
        # the output bounds' widening
        return float(allow[0] + 8.0 * unit * (terms[0] + allow[0]))


def _beyond(low: np.ndarray, high: np.ndarray, threshold: float) -> np.ndarray:
    """Where the bounds are finite and lie wholly above ``threshold`` or
    below ``-threshold``."""
    return np.isfinite(low) & np.isfinite(high) & ((low > threshold) | (high < -threshold))


def _live_grid_points(
    params: DecoderParams, z: LatentCode, resolution: int, threshold: float
) -> np.ndarray:
    """A mask over the decode grid, in grid order, that is false only
    on points whose exact decoder output provably lies beyond
    ``threshold`` in magnitude.

    The grid splits into ``_RANGE_BOXES`` boxes of near-equal point
    counts per axis.  ``_box_ranges`` runs in float32 on every box, and
    again in float64 on the boxes it keeps whose float32 bounds are not
    finite or miss the threshold by less than ``_range_allowance(..,
    float32)``, as the float64 pass, with its far smaller allowance, may
    drop them.  A box is dropped where either pass's bounds lie beyond
    the threshold (``_beyond``); each pass is sound on its own.
    """
    axis = grid_axis(resolution)
    edges = np.arange(_RANGE_BOXES + 1) * resolution // _RANGE_BOXES
    first, last = axis[edges[:-1]], axis[edges[1:] - 1]
    corners = [np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1).reshape(-1, 3)
               for c in (first, last)]
    low, high = _box_ranges(params, z, *corners, np.float32)
    dropped = _beyond(low, high, threshold)
    unsure = ~(np.isfinite(low) & np.isfinite(high))
    unsure |= _beyond(low, high, threshold - _range_allowance(params, z, np.float32))
    near = np.flatnonzero(unsure & ~dropped)
    if near.size:
        low, high = _box_ranges(params, z, corners[0][near], corners[1][near], np.float64)
        dropped[near] = _beyond(low, high, threshold)
    owner = np.repeat(np.arange(_RANGE_BOXES), np.diff(edges))
    boxes = ~dropped.reshape((_RANGE_BOXES,) * 3)
    return boxes[np.ix_(owner, owner, owner)].ravel()


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
    ``gradient_fn``, at a fraction of its cost.  Where a range-pass box
    spans at least ``_RANGE_MIN_SPAN`` grid points per axis (grid 64 and
    above), a range pass (``_live_grid_points``: float32 on every box,
    float64 on the few it keeps by less than its rounding allowance)
    first drops the boxes whose finite bounds on the exact output lie
    beyond ``t``, ``iso_epsilon + margin`` rounded up, with ``margin``
    the screen's ``_screen_margin``.  On the benchmark's decoder it
    rechecks 100-200 of 4096 boxes at grid 64 and drops the same boxes
    as a float64 pass over all of them, in a little over half its time.
    At every point of a dropped box the float64 pass's value lies within
    ``E64 = _forward_error_bound(.., float64)`` of the exact one, hence
    beyond ``t - E64 >= iso_epsilon`` as ``margin >= E64``: no dropped
    point is a candidate.  A float32 pass
    (``_screen_field``) then screens the remaining points, and only
    points whose float32 value lies within the extraction band widened
    by the margin get float64 values.  The margin bounds the two passes'
    distance at any grid point, so a point the screen drops has a
    float64 value outside the band.  Both passes are ``_FixedCode``'s
    forward, in float32 and in float64, on points in grid order.  The
    float64 pass runs once per kept point (``_kept_pass``): the Newton
    step's gradients come from the same pass's activations, exact
    because the point backward contracts over the point columns only.
    A code of the wrong length raises ``InvalidInputError`` before any
    pass runs.
    """
    z = _check_code(params, z)
    iso_epsilon = default_iso_epsilon(grid_resolution)
    margin = _screen_margin(params, z)
    live = None
    if grid_resolution // _RANGE_BOXES >= _RANGE_MIN_SPAN:
        live = _live_grid_points(
            params, z, grid_resolution, np.nextafter(iso_epsilon + margin, np.inf)
        )
    field, gradient = _kept_pass(params, z, iso_epsilon)
    pts = extract_surface_points(
        field,
        grid_resolution,
        gradient_fn=gradient,
        screen=(_screen_field(params, z), margin),
        live=live,
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
