"""View-dependent reconstruction via a point-mirrored virtual camera.

A single depth view fixes the front of an object.  Reflecting the
camera through the object center gives a virtual viewpoint whose depth
image an oracle can render directly from the mesh, or a small
convolutional network can predict from the observed points splatted
into that virtual view.  Fusing both views' back-projections yields the
reconstruction, with per-point provenance kept intact.

Convolutions are written out by hand, matching the package's
no-framework training style.  The network runs one image at a time on a
flat, zero-ringed layout (``_Flat``): each layer is one matrix product
of its weights with that image's im2col columns, built by nine
contiguous slice copies, and training reuses the forward pass's columns
for the weight gradients.  The kernels run in the dtype of the data
they get.  Evaluation runs in float64; training stacks its batch as
float32 and keeps float64 master weights, velocities and gradient sums
(mixed-precision training, Micikevicius et al. 2018), at about half the
cost of a float64 step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from pathlib import Path

from .depth import DepthImage, back_project, render_depth, splat_cloud
from .errors import InvalidInputError, MissingArtifactError
from .fileio import MIRROR_MAGIC, load_layers, load_pfm, save_layers, save_pfm
from .geometry import (
    TAG_GENERATED,
    CameraModel,
    PointCloud,
    RigidTransform,
    TriangleMesh,
    look_at_rotation,
    merge_clouds,
)

CompletionFn = Callable[[DepthImage, CameraModel, CameraModel], DepthImage]

KERNEL = 3
PAD = 1


def mirror_pose(cam: CameraModel, object_center) -> CameraModel:
    """Virtual camera at the point reflection of the real one.

    The position reflects through ``object_center``; the orientation is
    rebuilt to look at the center with world up (0,0,1), falling back
    to (0,1,0) for straight-down or straight-up views.  Intrinsics copy
    over unchanged.  Applying the reflection twice restores the
    original position exactly and the original viewing direction up to
    rounding.
    """
    center = np.asarray(object_center, dtype=np.float64)
    if center.shape != (3,):
        raise InvalidInputError("object_center must be a 3D point")
    position = 2.0 * center - cam.position
    rotation = look_at_rotation(position, center)
    return CameraModel(
        fx=cam.fx, fy=cam.fy, cx=cam.cx, cy=cam.cy,
        width=cam.width, height=cam.height,
        pose=RigidTransform(rotation, position),
    )


def complete_view_oracle(
    mesh: TriangleMesh, virtual_cam: CameraModel
) -> DepthImage:
    """Ground-truth completion: render the mesh from the virtual view."""
    return render_depth(mesh, virtual_cam)


def oracle_completion(mesh: TriangleMesh) -> CompletionFn:
    def completion(observed, cam, virtual_cam):
        return complete_view_oracle(mesh, virtual_cam)

    return completion


# ---------------------------------------------------------------------------
# learned completion network


@dataclass(frozen=True)
class MirrorModelParams:
    """Stacked 3x3 convolutions; rectifiers between layers, linear out.

    Input is two channels: the observed points splatted into the
    virtual view, and that splat's validity mask.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or not self.weights:
            raise InvalidInputError("weights and biases must pair up")
        expect = 2
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 4 or w.shape[2:] != (KERNEL, KERNEL):
                raise InvalidInputError("conv weights must be (out, in, 3, 3)")
            if w.shape[1] != expect or b.shape != (w.shape[0],):
                raise InvalidInputError("conv layer size mismatch")
            expect = w.shape[0]
        if expect != 1:
            raise InvalidInputError("network must end in a single channel")


@dataclass(frozen=True)
class MirrorTrainConfig:
    channels: tuple[int, ...] = (8, 8, 1)
    learning_rate: float = 0.01
    epochs: int = 200
    momentum: float = 0.9
    # multiplied onto the step size every epoch; L1 gradients do not
    # shrink near the optimum, so decay is what settles the loss
    lr_decay: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not self.channels or self.channels[-1] != 1:
            raise InvalidInputError("channels must end with a single output")
        if min(self.channels) < 1:
            raise InvalidInputError(f"layer widths must be positive: {self.channels}")
        if self.learning_rate <= 0 or self.epochs < 0:
            raise InvalidInputError("bad optimizer settings")
        if not 0.0 <= self.momentum < 1.0:
            raise InvalidInputError("momentum must lie in [0, 1)")
        if not 0.0 < self.lr_decay <= 1.0:
            raise InvalidInputError("lr_decay must lie in (0, 1]")


def init_mirror_model(
    cfg: MirrorTrainConfig, rng: np.random.Generator | None = None
) -> MirrorModelParams:
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    weights = []
    biases = []
    c_in = 2
    for c_out in cfg.channels:
        std = np.sqrt(2.0 / (c_in * KERNEL * KERNEL))
        weights.append(rng.normal(0.0, std, size=(c_out, c_in, KERNEL, KERNEL)))
        biases.append(np.zeros(c_out))
        c_in = c_out
    return MirrorModelParams(tuple(weights), tuple(biases))


class _Flat:
    """Flat layout of one H x W image's channels: zero ring, zero margins.

    Channel ``c`` is row ``c`` of a ``(C, m + (H+2)(W+2) + m)`` array:
    the zero-padded image in raster order between ``m = W + 3`` zeros on
    each side.  Tap ``(ky, kx)`` of the 3x3 kernel at every padded
    position is then one contiguous slice, shifted by
    ``(ky - 1)(W + 2) + (kx - 1)``, which the margins keep in bounds.
    Values computed at ring positions are meaningless until the ring is
    zeroed again.
    """

    def __init__(self, h: int, w: int):
        self.h, self.w = h, w
        row = w + 2 * PAD
        self.size = (h + 2 * PAD) * row
        margin = PAD * row + PAD
        self.length = self.size + 2 * margin
        self.body = slice(margin, margin + self.size)
        self.taps = [
            margin + (ky - PAD) * row + (kx - PAD)
            for ky in range(KERNEL)
            for kx in range(KERNEL)
        ]

    def zeros(self, channels: int, dtype=np.float64) -> np.ndarray:
        return np.zeros((channels, self.length), dtype)

    def columns(self, channels: int, dtype=np.float64) -> np.ndarray:
        return np.empty((channels * KERNEL * KERNEL, self.size), dtype)

    def padded(self, flat: np.ndarray) -> np.ndarray:
        """(C, H+2, W+2) view of the padded image."""
        return flat[:, self.body].reshape(-1, self.h + 2 * PAD, self.w + 2 * PAD)

    def interior(self, flat: np.ndarray) -> np.ndarray:
        """(C, H, W) view of the image itself."""
        return self.padded(flat)[:, PAD:-PAD, PAD:-PAD]

    def zero_ring(self, flat: np.ndarray) -> None:
        padded = self.padded(flat)
        padded[:, :PAD] = 0.0
        padded[:, -PAD:] = 0.0
        padded[:, :, :PAD] = 0.0
        padded[:, :, -PAD:] = 0.0

    def im2col(self, flat: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Fill ``cols`` with the columns of ``flat`` at every padded
        position: row ``(c*3 + ky)*3 + kx`` is channel ``c`` shifted by
        ``(ky - 1, kx - 1)``, lining up with ``w.reshape(out, -1)``."""
        taps = cols.reshape(flat.shape[0], KERNEL * KERNEL, self.size)
        for k, start in enumerate(self.taps):
            taps[:, k] = flat[:, start : start + self.size]
        return cols


def _conv_flat(layout: _Flat, src, cols, w, b, dst) -> np.ndarray:
    """One 3x3 layer from flat ``src`` into the body of flat ``dst``.

    ``src``'s ring must be zero; ``cols`` is left holding its columns.
    Returns the (O, (H+2)(W+2)) body, whose ring is not yet zeroed.
    """
    out = dst[:, layout.body]
    np.matmul(w.reshape(w.shape[0], -1), layout.im2col(src, cols), out=out)
    out += b[:, None]
    return out


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-size 3x3 convolution of a (N, C, H, W) batch, image by image."""
    n, c, h, wd = x.shape
    layout = _Flat(h, wd)
    src, dst = layout.zeros(c), layout.zeros(w.shape[0])
    cols = layout.columns(c)
    out = np.empty((n, w.shape[0], h, wd))
    for image, result in zip(x, out):
        layout.interior(src)[...] = image
        _conv_flat(layout, src, cols, w, b, dst)
        result[...] = layout.interior(dst)
    return out


def _net_buffers(weights, layout: _Flat, dtype=np.float64):
    """Flat input and layer outputs, plus every layer's input columns.

    One image's columns are small enough to hold from the forward pass
    to the backward pass (5.6 MB at 64 x 64 for widths (8, 8, 1) in
    float64, 2.8 MB in float32).
    """
    acts = [layout.zeros(2, dtype)] + [layout.zeros(w.shape[0], dtype) for w in weights]
    cols = [layout.columns(w.shape[1], dtype) for w in weights]
    return acts, cols


def _net_forward(weights, biases, layout: _Flat, acts, cols) -> None:
    """Run the network on the image in ``acts[0]``.

    Fills ``acts[i + 1]`` with layer ``i``'s output and ``cols[i]`` with
    its input columns.  Hidden outputs are rectified and their ring is
    zeroed, so it pads the next layer.  The weights must have the
    buffers' dtype.
    """
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        out = _conv_flat(layout, acts[i], cols[i], w, b, acts[i + 1])
        if i < last:
            np.maximum(out, 0.0, out=out)
            layout.zero_ring(acts[i + 1])


def mirror_forward(params: MirrorModelParams, splat: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """Raw network output for one splat/mask pair, shape (H, W)."""
    splat, mask = np.asarray(splat), np.asarray(mask)
    if splat.ndim != 2 or splat.shape != mask.shape:
        raise InvalidInputError(
            f"splat {splat.shape} and mask {mask.shape} must be images of one shape"
        )
    layout = _Flat(*splat.shape)
    acts, cols = _net_buffers(params.weights, layout)
    layout.interior(acts[0])[...] = (splat, mask)
    _net_forward(params.weights, params.biases, layout, acts, cols)
    return layout.interior(acts[-1])[0].copy()


class _TrainBuffers:
    """Everything one training step writes, for one image size and the
    dtype the step computes in.

    Held for a whole training run: each step overwrites what it reads,
    the flat margins are never written, and the accumulated gradients
    are zeroed at the start of the step.  The weights are copied in
    that dtype once per step; the accumulated gradients stay float64
    whatever it is.
    """

    def __init__(self, params: MirrorModelParams, h: int, w: int, dtype):
        self.layout = _Flat(h, w)
        self.weights = [np.empty(k.shape, dtype) for k in params.weights]
        self.biases = [np.empty(b.shape, dtype) for b in params.biases]
        self.acts, self.cols = _net_buffers(params.weights, self.layout, dtype)
        # the columns of layer i's output gradient go into cols[i + 1],
        # which has as many channels and is spent by then
        self.cols.append(self.layout.columns(1, dtype))
        # d loss / d each layer's output, flat
        self.grads = [self.layout.zeros(k.shape[0], dtype) for k in params.weights]
        # each kernel transposed over channels and flipped in space
        self.flipped = [
            np.empty((k.shape[1], k.shape[0] * KERNEL * KERNEL), dtype)
            for k in params.weights
        ]
        self.gw = [np.zeros(k.shape) for k in params.weights]
        self.gb = [np.zeros(b.shape) for b in params.biases]


def training_loss_gradients(
    params: MirrorModelParams,
    inputs: np.ndarray,
    targets: np.ndarray,
    buffers: _TrainBuffers | None = None,
):
    """Masked L1 loss of a batch and its full parameter gradients.

    ``inputs`` is (N, 2, H, W); ``targets`` is (N, H, W).  The loss is
    the mean absolute error over the pixels whose target is positive;
    the others contribute nothing, so the network is free there.  The
    valid pixels of the whole batch are counted first; then each image
    runs forward, keeping its columns, and straight back.  A layer's
    weight gradient is its input columns times its output gradient.
    Its input gradient is the same-size convolution of the output
    gradient with the kernel transposed over channels and flipped in
    space, whose ring the rectifier mask of the layer below then
    zeroes.  Layer 0's is not formed.

    The step computes in ``inputs.dtype`` on a copy of the weights in
    that dtype; the loss and the gradients are summed over the batch in
    float64.
    ``buffers``, when given, are reused and must have that dtype, and
    the returned gradients are theirs.  Exposed for the
    finite-difference gradient validation.
    """
    n, _, h, wd = inputs.shape
    valid = targets > 0.0
    count = int(valid.sum())
    if count == 0:
        raise InvalidInputError("no valid pixels in any target")
    if buffers is None:
        buffers = _TrainBuffers(params, h, wd, inputs.dtype)
    layout, acts, cols, grads = buffers.layout, buffers.acts, buffers.cols, buffers.grads
    weights, biases, gw, gb = buffers.weights, buffers.biases, buffers.gw, buffers.gb
    for w, b, w_step, b_step, flip in zip(
        params.weights, params.biases, weights, biases, buffers.flipped
    ):
        w_step[...] = w
        b_step[...] = b
        flip.reshape(w.shape[1], w.shape[0], KERNEL, KERNEL)[...] = (
            w_step[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        )
    for g in gw + gb:
        g.fill(0.0)
    diff = np.empty(targets.shape, inputs.dtype)
    last = len(weights) - 1
    for k in range(n):
        layout.interior(acts[0])[...] = inputs[k]
        _net_forward(weights, biases, layout, acts, cols)
        diff[k] = (layout.interior(acts[-1])[0] - targets[k]) * valid[k]
        layout.interior(grads[last])[0] = np.sign(diff[k]) / count
        for i in range(last, -1, -1):
            grad = grads[i][:, layout.body]
            if i < last:
                grad *= acts[i + 1][:, layout.body] > 0.0
            # (C*9, O): the faster orientation of the product in float32
            gw[i] += (cols[i] @ grad.T).T.reshape(gw[i].shape)
            gb[i] += grad.sum(axis=1)
            if i > 0:
                np.matmul(
                    buffers.flipped[i],
                    layout.im2col(grads[i], cols[i + 1]),
                    out=grads[i - 1][:, layout.body],
                )
    return float(np.abs(diff).sum(dtype=np.float64) / count), gw, gb


@dataclass
class MirrorTrainResult:
    params: MirrorModelParams
    epoch_losses: list[float]


TrainingPair = tuple[tuple[DepthImage, DepthImage], DepthImage]


def _batch_from_pairs(pairs: Sequence[TrainingPair]):
    if not pairs:
        raise InvalidInputError("need at least one training pair")
    shape = pairs[0][0][0].depth.shape
    for i, ((splat, mask), target) in enumerate(pairs):
        shapes = (splat.depth.shape, mask.depth.shape, target.depth.shape)
        if any(s != shape for s in shapes):
            raise InvalidInputError(
                f"training pair {i} has splat/mask/target shapes {shapes}; "
                f"pair 0's splat is {shape}"
            )
    # the one place that sets the training step's dtype
    inputs = np.stack(
        [np.stack([inp[0].depth, inp[1].depth]) for inp, _ in pairs], dtype=np.float32
    )
    targets = np.stack([target.depth for _, target in pairs], dtype=np.float32)
    return inputs, targets


def train_mirror_model(
    pairs: Sequence[TrainingPair], cfg: MirrorTrainConfig
) -> MirrorTrainResult:
    """Fit the completion network on (input pair, target) examples.

    Full-batch gradient descent; each epoch is one step, updating the
    parameters in place, on one set of step buffers for the run.  The
    step computes in float32; the parameters, their velocities and the
    update stay float64.  Zero epochs returns the freshly initialized
    parameters untouched.  Fixed seeds reproduce parameters exactly.
    """
    inputs, targets = _batch_from_pairs(pairs)
    params = init_mirror_model(cfg)
    buffers = _TrainBuffers(params, *targets.shape[1:], inputs.dtype)
    tensors = params.weights + params.biases
    velocities = [np.zeros_like(t) for t in tensors]
    losses: list[float] = []
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        loss, gw, gb = training_loss_gradients(params, inputs, targets, buffers)
        losses.append(loss)
        for t, v, g in zip(tensors, velocities, gw + gb):
            v *= cfg.momentum
            v -= lr * g
            t += v
        lr *= cfg.lr_decay
    return MirrorTrainResult(params, losses)


# ---------------------------------------------------------------------------
# completion and fusion


def splat_into_view(
    observed: DepthImage, cam: CameraModel, virtual_cam: CameraModel
) -> tuple[DepthImage, DepthImage]:
    """Observed points re-projected into the virtual view, plus the
    validity mask of the result (1.0 where a point landed)."""
    cloud = back_project(observed, cam)
    splat = splat_cloud(cloud, virtual_cam)
    mask = DepthImage((splat.depth > 0.0).astype(np.float64))
    return splat, mask


def complete_view_learned(
    params: MirrorModelParams,
    observed: DepthImage,
    cam: CameraModel,
    virtual_cam: CameraModel,
) -> DepthImage:
    """Network-predicted depth at the virtual view.

    Output pixels at or below zero are declared invalid, so an
    untrained all-zero network predicts an empty view rather than
    garbage geometry.
    """
    splat, mask = splat_into_view(observed, cam, virtual_cam)
    raw = mirror_forward(params, splat.depth, mask.depth)
    return DepthImage(np.where(raw > 0.0, raw, 0.0))


def learned_completion(params: MirrorModelParams) -> CompletionFn:
    def completion(observed, cam, virtual_cam):
        return complete_view_learned(params, observed, cam, virtual_cam)

    return completion


def make_training_pair(
    mesh: TriangleMesh, cam: CameraModel
) -> tuple[TrainingPair, DepthImage]:
    """Render one supervised example: ((splat, mask), target) plus the
    front view it came from.  The mirror view reflects ``cam`` through
    the origin, as in ``reconstruct_view_dependent``."""
    observed = render_depth(mesh, cam)
    virtual = mirror_pose(cam, (0.0, 0.0, 0.0))
    splat, mask = splat_into_view(observed, cam, virtual)
    target = render_depth(mesh, virtual)
    return ((splat, mask), target), observed


def reconstruct_view_dependent(
    observed: DepthImage, cam: CameraModel, completion: CompletionFn
) -> PointCloud:
    """Fuse the observed view with its completed mirror view.

    The mirror view reflects ``cam`` through the origin, where every
    normalized object is centred.  Observed pixels become points tagged
    observed; completed pixels become points tagged generated.
    """
    virtual = mirror_pose(cam, (0.0, 0.0, 0.0))
    completed = completion(observed, cam, virtual)
    front = back_project(observed, cam)
    back = back_project(completed, virtual)
    generated = PointCloud.from_points(back.points, TAG_GENERATED)
    return merge_clouds([front, generated])


# ---------------------------------------------------------------------------
# persistence


def save_mirror_model(path, params: MirrorModelParams) -> None:
    save_layers(path, MIRROR_MAGIC, "conv", params.weights, params.biases)


def load_mirror_model(path) -> MirrorModelParams:
    weights, biases, _ = load_layers(path, MIRROR_MAGIC, "conv")
    if not weights:
        raise InvalidInputError(f"no conv layers found in {path}")
    return MirrorModelParams(weights, biases)


def save_training_pairs(
    directory, examples: Sequence[tuple[DepthImage, DepthImage, DepthImage]]
) -> None:
    """Write (front, splat, target) depth triples as PFM files.

    The manifest lists one triple per line; loaders only consult the
    manifest, so extra files in the directory are harmless.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, (front, splat, target) in enumerate(examples):
        names = (f"front_{i:04d}.pfm", f"splat_{i:04d}.pfm", f"target_{i:04d}.pfm")
        for name, image in zip(names, (front, splat, target)):
            save_pfm(directory / name, image.depth)
        lines.append(" ".join(names))
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_training_pairs(directory) -> tuple[list[TrainingPair], list[DepthImage]]:
    """Read pairs back; masks are rebuilt from splat validity.

    Returns (training pairs, front views).
    """
    directory = Path(directory)
    manifest = directory / "manifest.txt"
    if not manifest.exists():
        raise MissingArtifactError(f"no manifest in {directory}")
    pairs: list[TrainingPair] = []
    fronts: list[DepthImage] = []
    for line in manifest.read_text().splitlines():
        names = line.split()
        if not names:
            continue
        if len(names) != 3:
            raise InvalidInputError(f"manifest line must list three files: {line!r}")
        front = DepthImage(load_pfm(directory / names[0]))
        splat = DepthImage(load_pfm(directory / names[1]))
        target = DepthImage(load_pfm(directory / names[2]))
        mask = DepthImage((splat.depth > 0.0).astype(np.float64))
        pairs.append(((splat, mask), target))
        fronts.append(front)
    return pairs, fronts
