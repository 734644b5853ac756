"""View-dependent reconstruction via a point-mirrored virtual camera.

A single depth view fixes the front of an object.  Reflecting the
camera through the object center gives a virtual viewpoint whose depth
image an oracle can render directly from the mesh, or a small
convolutional network can predict from the observed points splatted
into that virtual view.  Fusing both views' back-projections yields the
reconstruction, with per-point provenance kept intact.

Convolutions are written out by hand, matching the package's
no-framework training style: each layer is one matrix product of its
weights with im2col columns that span the whole batch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pathlib import Path

from .depth import DepthImage, back_project, render_depth, splat_cloud
from .errors import InvalidInputError, MissingArtifactError
from .fileio import MIRROR_MAGIC, load_pfm, load_tensors, save_pfm, save_tensors
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

    def copy(self) -> "MirrorModelParams":
        return MirrorModelParams(
            tuple(w.copy() for w in self.weights),
            tuple(b.copy() for b in self.biases),
        )


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


def _im2col(x: np.ndarray) -> np.ndarray:
    """(C, N, H, W) -> (C*9, N*H*W) patches under zero padding.

    Row ``(c*3 + ky)*3 + kx`` holds channel ``c`` shifted by
    ``(ky - 1, kx - 1)``, so the rows line up with the columns of
    ``w.reshape(out, -1)``; column ``(n*H + y)*W + x`` is pixel
    ``(y, x)`` of image ``n``.  One copy out of a strided window view.
    """
    c, n, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    windows = sliding_window_view(xp, (KERNEL, KERNEL), axis=(2, 3))
    return windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * KERNEL * KERNEL, n * h * w)


def conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Same-size 3x3 convolution of a (N, C, H, W) batch.

    One matrix product of the flattened kernel with the columns of the
    whole batch.  The result is a (N, O, H, W) view of a contiguous
    (O, N, H, W) array, so the next layer's ``_im2col`` reads it
    without a copy.
    """
    n, _, h, wd = x.shape
    out = w.reshape(w.shape[0], -1) @ _im2col(x.transpose(1, 0, 2, 3))
    out += b[:, None]
    return out.reshape(-1, n, h, wd).transpose(1, 0, 2, 3)


def _net_forward(params: MirrorModelParams, x: np.ndarray):
    """Returns (output (N, H, W), every layer's input and output).

    Only activations are kept, not columns: columns are nine times
    larger per channel, and holding them made every call fault in
    fresh memory.
    """
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        out = conv2d(acts[-1], w, b)
        if i < last:
            np.maximum(out, 0.0, out=out)
        acts.append(out)
    return acts[-1][:, 0], acts


def _net_backward(params: MirrorModelParams, acts, dout: np.ndarray):
    """Weight and bias gradients from ``_net_forward``'s activations.

    Gradients are (C, N*H*W) and each layer rebuilds its input's
    columns.  A layer's input gradient is the same-size convolution of
    its output gradient with the kernel transposed over channels and
    flipped in space, so it too is one product with ``_im2col``
    columns.  Layer 0's is not formed.
    """
    n, h, wd = dout.shape
    grad = dout.reshape(1, -1)
    last = len(params.weights) - 1
    gw = [np.empty(0)] * len(params.weights)
    gb = [np.empty(0)] * len(params.weights)
    for i in range(last, -1, -1):
        w = params.weights[i]
        if i < last:
            grad *= acts[i + 1].transpose(1, 0, 2, 3).reshape(grad.shape) > 0.0
        gw[i] = (grad @ _im2col(acts[i].transpose(1, 0, 2, 3)).T).reshape(w.shape)
        gb[i] = grad.sum(axis=1)
        if i > 0:
            flipped = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(w.shape[1], -1)
            grad = flipped @ _im2col(grad.reshape(-1, n, h, wd))
    return gw, gb


def mirror_forward(params: MirrorModelParams, splat: np.ndarray,
                   mask: np.ndarray) -> np.ndarray:
    """Raw network output for one splat/mask pair, shape (H, W)."""
    x = np.stack([splat, mask])[None]
    out, _ = _net_forward(params, x)
    return out[0]


def masked_l1_loss(outputs: np.ndarray, targets: np.ndarray):
    """Mean absolute error over target-valid pixels.

    Returns (loss, d loss/d outputs).  Pixels the target marks invalid
    contribute nothing, so the network is free there.
    """
    mask = targets > 0.0
    count = int(mask.sum())
    if count == 0:
        raise InvalidInputError("no valid pixels in any target")
    diff = (outputs - targets) * mask
    loss = np.abs(diff).sum() / count
    dout = np.sign(diff) / count
    return float(loss), dout


def training_loss_gradients(
    params: MirrorModelParams, inputs: np.ndarray, targets: np.ndarray
):
    """Loss and full parameter gradients for a batch.

    ``inputs`` is (N, 2, H, W); ``targets`` is (N, H, W).  Exposed for
    the finite-difference gradient validation.
    """
    out, acts = _net_forward(params, inputs)
    loss, dout = masked_l1_loss(out, targets)
    gw, gb = _net_backward(params, acts, dout)
    return loss, gw, gb


@dataclass
class MirrorTrainResult:
    params: MirrorModelParams
    epoch_losses: list[float]


TrainingPair = tuple[tuple[DepthImage, DepthImage], DepthImage]


def _batch_from_pairs(pairs: Sequence[TrainingPair]):
    if not pairs:
        raise InvalidInputError("need at least one training pair")
    inputs = np.stack(
        [np.stack([inp[0].depth, inp[1].depth]) for inp, _ in pairs]
    )
    targets = np.stack([target.depth for _, target in pairs])
    return inputs, targets


def train_mirror_model(
    pairs: Sequence[TrainingPair], cfg: MirrorTrainConfig
) -> MirrorTrainResult:
    """Fit the completion network on (input pair, target) examples.

    Full-batch gradient descent; each epoch is one step.  Zero epochs
    returns the freshly initialized parameters untouched.  Fixed seeds
    reproduce parameters exactly.
    """
    inputs, targets = _batch_from_pairs(pairs)
    params = init_mirror_model(cfg)
    weights = [w.copy() for w in params.weights]
    biases = [b.copy() for b in params.biases]
    vel_w = [np.zeros_like(w) for w in weights]
    vel_b = [np.zeros_like(b) for b in biases]
    losses: list[float] = []
    lr = cfg.learning_rate
    for _ in range(cfg.epochs):
        live = MirrorModelParams(tuple(weights), tuple(biases))
        loss, gw, gb = training_loss_gradients(live, inputs, targets)
        losses.append(loss)
        for i in range(len(weights)):
            vel_w[i] = cfg.momentum * vel_w[i] - lr * gw[i]
            vel_b[i] = cfg.momentum * vel_b[i] - lr * gb[i]
            weights[i] = weights[i] + vel_w[i]
            biases[i] = biases[i] + vel_b[i]
        lr *= cfg.lr_decay
    return MirrorTrainResult(MirrorModelParams(tuple(weights), tuple(biases)), losses)


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
    mesh: TriangleMesh, cam: CameraModel, object_center=(0.0, 0.0, 0.0)
) -> tuple[TrainingPair, DepthImage]:
    """Render one supervised example: ((splat, mask), target) plus the
    front view it came from."""
    observed = render_depth(mesh, cam)
    virtual = mirror_pose(cam, object_center)
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
    tensors: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        tensors[f"conv{i}.weight"] = w
        tensors[f"conv{i}.bias"] = b
    save_tensors(path, MIRROR_MAGIC, tensors)


def load_mirror_model(path) -> MirrorModelParams:
    tensors = load_tensors(path, MIRROR_MAGIC)
    weights = []
    biases = []
    i = 0
    while f"conv{i}.weight" in tensors:
        weights.append(tensors[f"conv{i}.weight"])
        biases.append(tensors[f"conv{i}.bias"])
        i += 1
    if not weights:
        raise InvalidInputError(f"no conv layers found in {path}")
    return MirrorModelParams(tuple(weights), tuple(biases))


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
