"""Mirrored-view completion: virtual poses, the convolution network, its
gradients, training, fusion, and persistence."""
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from reconbench.depth import DepthImage, render_depth
from reconbench.errors import InvalidInputError, MissingArtifactError
from reconbench.geometry import (
    TAG_GENERATED,
    TAG_OBSERVED,
    camera_looking_at,
)
from reconbench import bench, mirror
from reconbench.config import load_config
from reconbench.mirror import (
    KERNEL,
    PAD,
    MirrorModelParams,
    MirrorTrainConfig,
    complete_view_learned,
    complete_view_oracle,
    conv2d,
    init_mirror_model,
    learned_completion,
    load_mirror_model,
    load_training_pairs,
    make_training_pair,
    mirror_forward,
    mirror_pose,
    oracle_completion,
    reconstruct_view_dependent,
    save_mirror_model,
    save_training_pairs,
    splat_into_view,
    train_mirror_model,
    training_loss_gradients,
)
from reconbench.shapes import box_mesh, icosphere, merge_meshes


def conv2d_reference(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-pixel loop convolution of one (C, H, W) image; the oracle the
    batched path must match."""
    c_out, c_in, _, _ = w.shape
    c, h, wd = x.shape
    assert c == c_in
    out = np.zeros((c_out, h, wd))
    for co in range(c_out):
        for y in range(h):
            for xx in range(wd):
                acc = b[co]
                for ci in range(c_in):
                    for ky in range(KERNEL):
                        for kx in range(KERNEL):
                            yy = y + ky - PAD
                            xs = xx + kx - PAD
                            if 0 <= yy < h and 0 <= xs < wd:
                                acc += w[co, ci, ky, kx] * x[ci, yy, xs]
                out[co, y, xx] = acc
    return out


def _einsum_im2col(x):
    """(N, C, H, W) -> (N, C*9, H*W): the per-image column layout the
    batched kernels replaced."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    cols = np.empty((n, c, KERNEL * KERNEL, h, w))
    k = 0
    for ky in range(KERNEL):
        for kx in range(KERNEL):
            cols[:, :, k] = xp[:, :, ky : ky + h, kx : kx + w]
            k += 1
    return cols.reshape(n, c * KERNEL * KERNEL, h * w)


def _einsum_col2im(dcols, shape):
    n, c, h, w = shape
    dxp = np.zeros((n, c, h + 2 * PAD, w + 2 * PAD))
    dcols = dcols.reshape(n, c, KERNEL * KERNEL, h, w)
    k = 0
    for ky in range(KERNEL):
        for kx in range(KERNEL):
            dxp[:, :, ky : ky + h, kx : kx + w] += dcols[:, :, k]
            k += 1
    return dxp[:, :, PAD : PAD + h, PAD : PAD + w]


def masked_l1_loss(outputs: np.ndarray, targets: np.ndarray):
    """Mean absolute error over target-valid pixels and its gradient
    with respect to ``outputs``: the loss the training kernel forms
    inline."""
    mask = targets > 0.0
    count = int(mask.sum())
    if count == 0:
        raise InvalidInputError("no valid pixels in any target")
    diff = (outputs - targets) * mask
    return float(np.abs(diff).sum() / count), np.sign(diff) / count


def einsum_loss_gradients(params, inputs, targets):
    """Loss and gradients through per-image einsum products: a copy of
    the kernels the batched matrix products replaced."""
    acts, pres = [inputs], []
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        n, _, h, wd = acts[-1].shape
        flat = w.reshape(w.shape[0], -1)
        pre = np.einsum("of,nfp->nop", flat, _einsum_im2col(acts[-1]))
        pre = (pre + b[None, :, None]).reshape(n, w.shape[0], h, wd)
        pres.append(pre)
        acts.append(pre if i == last else np.maximum(pre, 0.0))
    loss, dout = masked_l1_loss(acts[-1][:, 0], targets)
    grad = dout[:, None]
    gw, gb = [None] * len(params.weights), [None] * len(params.weights)
    for i in range(last, -1, -1):
        if i < last:
            grad = grad * (pres[i] > 0.0)
        n, c, h, wd = acts[i].shape
        gflat = grad.reshape(n, grad.shape[1], h * wd)
        cols = _einsum_im2col(acts[i])
        gw[i] = np.einsum("nop,nfp->of", gflat, cols).reshape(params.weights[i].shape)
        gb[i] = gflat.sum(axis=(0, 2))
        flat = params.weights[i].reshape(params.weights[i].shape[0], -1)
        grad = _einsum_col2im(np.einsum("of,nop->nfp", flat, gflat), (n, c, h, wd))
    return loss, gw, gb


def batch_conv2d(x, w, b):
    """The batch-wide convolution the per-image kernel replaced, kept as
    an oracle: one product of the kernel with (C*9, N*H*W) columns cut
    from a padded copy of the whole batch."""
    n, c, h, wd = x.shape
    xp = np.pad(x.transpose(1, 0, 2, 3), ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    windows = sliding_window_view(xp, (KERNEL, KERNEL), axis=(2, 3))
    cols = windows.transpose(0, 4, 5, 1, 2, 3).reshape(c * KERNEL * KERNEL, n * h * wd)
    out = w.reshape(w.shape[0], -1) @ cols
    out += b[:, None]
    return out.reshape(-1, n, h, wd).transpose(1, 0, 2, 3)


def batch_forward(params, x):
    """Network output (N, H, W) through ``batch_conv2d``."""
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        x = batch_conv2d(x, w, b)
        if i < last:
            x = np.maximum(x, 0.0)
    return x[:, 0]


def float64_steps(monkeypatch) -> None:
    """Make ``train_mirror_model`` step through the float64 kernel: the
    training loss and gradients get float64 copies of its float32 batch
    and fresh float64 buffers."""
    kernel = mirror.training_loss_gradients
    monkeypatch.setattr(
        mirror, "training_loss_gradients",
        lambda params, inputs, targets, buffers: kernel(
            params, inputs.astype(np.float64), targets.astype(np.float64)
        ),
    )


def odd_batch(rng, n=5, h=7, w=13):
    """Splat-like inputs with holes and targets with invalid pixels."""
    splat = rng.uniform(0.5, 2.0, size=(n, h, w)) * (rng.random((n, h, w)) > 0.3)
    inputs = np.stack([splat, (splat > 0.0).astype(np.float64)], axis=1)
    targets = rng.uniform(0.5, 2.0, size=(n, h, w)) * (rng.random((n, h, w)) > 0.2)
    return inputs, targets


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def tiny_net(channels=(4, 1), seed=0) -> MirrorModelParams:
    return init_mirror_model(MirrorTrainConfig(channels=channels, seed=seed))


def zero_net(channels=(4, 1)) -> MirrorModelParams:
    init = tiny_net(channels)
    return MirrorModelParams(
        tuple(np.zeros_like(w) for w in init.weights),
        tuple(np.zeros_like(b) for b in init.biases),
    )


class TestMirrorPose:
    def test_point_reflection_of_position(self, front_camera):
        virtual = mirror_pose(front_camera, (0.0, 0.0, 0.0))
        assert np.allclose(virtual.position, [0.0, 0.0, -2.0], atol=1e-12)
        assert virtual.fx == front_camera.fx
        assert virtual.width == front_camera.width

    def test_reflection_through_off_center_pivot(self):
        cam = camera_looking_at((1.0, 2.0, 3.0), (0.5, 0.5, 0.5))
        virtual = mirror_pose(cam, (0.5, 0.5, 0.5))
        assert np.allclose(virtual.position, [0.0, -1.0, -2.0], atol=1e-12)

    def test_applying_twice_is_identity(self):
        cam = camera_looking_at((0.9, -1.4, 1.1), (0.0, 0.0, 0.0))
        back = mirror_pose(mirror_pose(cam, (0.0, 0.0, 0.0)), (0.0, 0.0, 0.0))
        assert np.allclose(back.position, cam.position, atol=1e-12)
        forward = cam.pose.rotation[:, 2]
        forward_back = back.pose.rotation[:, 2]
        assert np.allclose(forward, forward_back, atol=1e-9)

    def test_virtual_camera_faces_the_pivot(self):
        cam = camera_looking_at((2.0, 0.5, 0.8), (0.0, 0.0, 0.0))
        virtual = mirror_pose(cam, (0.0, 0.0, 0.0))
        to_center = -virtual.position / np.linalg.norm(virtual.position)
        assert np.allclose(virtual.pose.rotation[:, 2], to_center, atol=1e-12)

    def test_bad_center_rejected(self, front_camera):
        with pytest.raises(InvalidInputError):
            mirror_pose(front_camera, (0.0, 0.0))


class TestOracleSymmetry:
    def test_sphere_back_view_is_front_flipped(self, unit_sphere, front_camera):
        # for a shape symmetric about the camera axis the mirrored view
        # is the left-right flip of the front view
        front = render_depth(unit_sphere, front_camera)
        virtual = mirror_pose(front_camera, (0.0, 0.0, 0.0))
        back = complete_view_oracle(unit_sphere, virtual)
        assert np.max(np.abs(back.depth - np.fliplr(front.depth))) <= 1e-9

    def test_asymmetric_shape_breaks_the_flip(self, front_camera):
        # an L of two boxes: its far side is not the mirrored near side
        shape = merge_meshes(
            [
                box_mesh((0.5, 0.1, 0.1)),
                box_mesh((0.1, 0.1, 0.3), center=(-0.4, 0.0, 0.4)),
            ]
        )
        front = render_depth(shape, front_camera)
        virtual = mirror_pose(front_camera, (0.0, 0.0, 0.0))
        back = complete_view_oracle(shape, virtual)
        assert np.max(np.abs(back.depth - np.fliplr(front.depth))) > 1e-3


class TestConvolution:
    def test_fast_path_matches_reference(self, rng):
        for _ in range(5):
            c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            x = rng.normal(size=(c_in, 6, 7))
            w = rng.normal(size=(c_out, c_in, 3, 3))
            b = rng.normal(size=c_out)
            fast = conv2d(x[None], w, b)[0]
            slow = conv2d_reference(x, w, b)
            assert np.max(np.abs(fast - slow)) <= 1e-12

    def test_batched_layout_matches_reference(self, rng):
        # several images, unequal sides and wide layers: every axis of
        # the flat layout and its columns is exercised
        for c_in, c_out in ((8, 8), (2, 8), (8, 1), (3, 5)):
            x = rng.normal(size=(3, c_in, 9, 11))
            w = rng.normal(size=(c_out, c_in, 3, 3))
            b = rng.normal(size=c_out)
            fast = conv2d(x, w, b)
            assert fast.shape == (3, c_out, 9, 11)
            for image, out in zip(x, fast):
                assert np.max(np.abs(out - conv2d_reference(image, w, b))) <= 1e-12

    @pytest.mark.parametrize("shape", [(64, 64), (32, 32), (48, 40)])
    @pytest.mark.parametrize("n", [1, 3])
    def test_bit_identical_to_batch_columns(self, rng, shape, n):
        for c_in, c_out in ((2, 8), (8, 8), (8, 1), (3, 5)):
            x = rng.normal(size=(n, c_in, *shape))
            w = rng.normal(size=(c_out, c_in, 3, 3))
            b = rng.normal(size=c_out)
            assert np.array_equal(conv2d(x, w, b), batch_conv2d(x, w, b))

    @pytest.mark.parametrize("shape", [(64, 64), (32, 32), (48, 40)])
    def test_forward_bit_identical_to_batch_columns(self, shape):
        rng = np.random.default_rng(sum(shape))
        inputs, _ = odd_batch(rng, n=3, h=shape[0], w=shape[1])
        for channels in ((8, 8, 1), (3, 5, 1)):
            params = tiny_net(channels=channels, seed=len(channels))
            expect = batch_forward(params, inputs)
            for image, want in zip(inputs, expect):
                assert np.array_equal(mirror_forward(params, image[0], image[1]), want)

    @pytest.mark.parametrize("n", [1, 3])
    def test_odd_sizes_match_batch_columns_and_ignore_the_batch(self, rng, n):
        # with an odd pixel count the batch product's last few columns
        # went through BLAS's narrow edge kernels, so those pixels came
        # out differently rounded than when the same image ran alone;
        # image by image, every output pixel is independent of the batch
        for c_in, c_out in ((2, 8), (8, 8), (8, 1), (3, 5)):
            x = rng.normal(size=(n, c_in, 9, 11))
            w = rng.normal(size=(c_out, c_in, 3, 3))
            b = rng.normal(size=c_out)
            got = conv2d(x, w, b)
            want = batch_conv2d(x, w, b)
            assert np.allclose(got, want, rtol=0.0, atol=1e-14 * np.abs(want).max())
            for i in range(n):
                assert np.array_equal(conv2d(x[i : i + 1], w, b)[0], got[i])

    def test_identity_kernel(self, rng):
        x = rng.normal(size=(1, 1, 5, 5))
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        out = conv2d(x, w, np.zeros(1))
        assert np.allclose(out, x, atol=1e-15)

    def test_zero_padding_at_borders(self):
        x = np.ones((1, 1, 3, 3))
        w = np.ones((1, 1, 3, 3))
        out = conv2d(x, w, np.zeros(1))[0, 0]
        # interior pixel sees all nine ones, corner only four
        assert out[1, 1] == 9.0
        assert out[0, 0] == 4.0


def output_gradients(outputs, targets):
    """Training loss of a network whose output is ``outputs``, and the
    loss's gradient with respect to each output pixel.

    The one-layer network passes channel 0 through its centre tap;
    channel 1 is one at a single pixel and zero elsewhere, so the
    gradient of its (zero) centre tap is that pixel's output gradient.
    """
    w = np.zeros((1, 2, KERNEL, KERNEL))
    w[0, 0, PAD, PAD] = 1.0
    params = MirrorModelParams((w,), (np.zeros(1),))
    dout = np.empty(outputs.shape)
    for pixel in np.ndindex(outputs.shape):
        inputs = np.stack([outputs, np.zeros(outputs.shape)], axis=1)
        inputs[pixel[0], 1][pixel[1:]] = 1.0
        loss, gw, _ = training_loss_gradients(params, inputs, targets)
        dout[pixel] = gw[0][0, 1, PAD, PAD]
    return loss, dout


class TestLossAndGradients:
    def test_masked_l1_ignores_invalid_target_pixels(self):
        out = np.array([[[1.0, 5.0], [2.0, 7.0]]])
        target = np.array([[[2.0, 0.0], [1.0, 0.0]]])
        loss, dout = output_gradients(out, target)
        assert loss == pytest.approx(1.0)
        assert dout[0, 0, 1] == 0.0 and dout[0, 1, 1] == 0.0
        assert dout[0, 0, 0] == pytest.approx(-0.5)

    def test_all_invalid_target_rejected(self):
        with pytest.raises(InvalidInputError):
            training_loss_gradients(tiny_net(), np.ones((1, 2, 2, 2)), np.zeros((1, 2, 2)))

    def test_parameter_gradients_match_finite_differences(self):
        assert self.finite_difference_checks((3, 1)) >= 20

    def test_three_layer_gradients_match_finite_differences(self):
        # the middle layer's gradient passes through a rectifier mask
        # and through the flipped-kernel product with the columns of the
        # last layer's output gradient
        assert self.finite_difference_checks((4, 3, 1)) >= 20

    def test_matches_per_image_einsum_kernels(self):
        rng = np.random.default_rng(21)
        inputs, targets = odd_batch(rng)
        for seed in (0, 1):
            params = tiny_net(channels=(8, 8, 1), seed=seed)
            loss, gw, gb = training_loss_gradients(params, inputs, targets)
            ref_loss, ref_gw, ref_gb = einsum_loss_gradients(params, inputs, targets)
            assert loss == pytest.approx(ref_loss, rel=1e-12)
            for got, ref in zip(gw + gb, ref_gw + ref_gb):
                assert got.shape == ref.shape
                assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_image_without_valid_target_pixels(self):
        # the valid pixels are counted over the whole batch first, so an
        # image whose target is blank adds no gradient and leaves the
        # other images' scale as it was
        rng = np.random.default_rng(8)
        inputs, targets = odd_batch(rng, n=4, h=9, w=10)
        targets[2] = 0.0
        params = tiny_net(channels=(8, 8, 1), seed=3)
        loss, gw, gb = training_loss_gradients(params, inputs, targets)
        ref_loss, ref_gw, ref_gb = einsum_loss_gradients(params, inputs, targets)
        assert loss == pytest.approx(ref_loss, rel=1e-12)
        for got, ref in zip(gw + gb, ref_gw + ref_gb):
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())

    def test_peak_memory_below_one_batch_column_array(self):
        # batch-wide columns of one 8-channel layer over six 64 x 64
        # images took 72 rows x 24,576 pixels x 8 B = 14.2 MB; one step
        # over twelve such images must peak below that in all.  A float32
        # step peaks at half a float64 one, 4.2 MB against 8.1 MB: one
        # whose buffers or columns fell back to float64 would pass 7 MB
        rng = np.random.default_rng(12)
        batch = odd_batch(rng, n=12, h=64, w=64)
        params = tiny_net(channels=(8, 8, 1), seed=0)
        for dtype, bound in ((np.float64, 14e6), (np.float32, 7e6)):
            inputs, targets = (a.astype(dtype) for a in batch)
            tracemalloc.start()
            try:
                training_loss_gradients(params, inputs, targets)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < bound, dtype

    @staticmethod
    def finite_difference_checks(channels) -> int:
        h = 1e-6
        checked = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            params = tiny_net(channels=channels, seed=seed)
            inputs = rng.uniform(0.5, 2.0, size=(2, 2, 5, 5))
            targets = rng.uniform(0.5, 2.0, size=(2, 5, 5))
            loss, gw, gb = training_loss_gradients(params, inputs, targets)
            pres, cur = [], inputs
            for w, b in zip(params.weights, params.biases):
                pres.append(conv2d(cur, w, b))
                cur = np.maximum(pres[-1], 0.0)
            # stay away from the L1 and rectifier kinks
            if np.min(np.abs(pres[-1][:, 0] - targets)) < 1e-3:
                continue
            if any(np.min(np.abs(pre)) < 1e-4 for pre in pres[:-1]):
                continue
            for li in range(len(params.weights)):
                w = params.weights[li]
                for _ in range(4):
                    idx = tuple(int(rng.integers(s)) for s in w.shape)
                    wp = [x.copy() for x in params.weights]
                    wm = [x.copy() for x in params.weights]
                    wp[li][idx] += h
                    wm[li][idx] -= h
                    lp, _, _ = training_loss_gradients(
                        MirrorModelParams(tuple(wp), params.biases), inputs, targets
                    )
                    lm, _, _ = training_loss_gradients(
                        MirrorModelParams(tuple(wm), params.biases), inputs, targets
                    )
                    fd = (lp - lm) / (2 * h)
                    assert rel_err(float(gw[li][idx]), fd) <= 1e-4
                    checked += 1
                bi = int(rng.integers(params.biases[li].shape[0]))
                bp = [x.copy() for x in params.biases]
                bm = [x.copy() for x in params.biases]
                bp[li][bi] += h
                bm[li][bi] -= h
                lp, _, _ = training_loss_gradients(
                    MirrorModelParams(params.weights, tuple(bp)), inputs, targets
                )
                lm, _, _ = training_loss_gradients(
                    MirrorModelParams(params.weights, tuple(bm)), inputs, targets
                )
                fd = (lp - lm) / (2 * h)
                assert rel_err(float(gb[li][bi]), fd) <= 1e-4
                checked += 1
        return checked


class TestTraining:
    def test_zero_epochs_keeps_initialization(self):
        rng = np.random.default_rng(1)
        splat = DepthImage(rng.uniform(0.5, 1.5, size=(8, 8)))
        mask = DepthImage(np.ones((8, 8)))
        target = DepthImage(rng.uniform(0.5, 1.5, size=(8, 8)))
        cfg = MirrorTrainConfig(channels=(4, 1), epochs=0, seed=3)
        result = train_mirror_model([((splat, mask), target)], cfg)
        expect = init_mirror_model(cfg)
        assert all(
            np.array_equal(a, b) for a, b in zip(result.params.weights, expect.weights)
        )
        assert result.epoch_losses == []

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        pairs = [
            (
                (
                    DepthImage(rng.uniform(0.5, 1.5, size=(8, 8))),
                    DepthImage(np.ones((8, 8))),
                ),
                DepthImage(rng.uniform(0.5, 1.5, size=(8, 8))),
            )
            for _ in range(3)
        ]
        cfg = MirrorTrainConfig(channels=(4, 1), epochs=10, seed=5)
        a = train_mirror_model(pairs, cfg)
        b = train_mirror_model(pairs, cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.params.weights, b.params.weights))
        assert a.epoch_losses == b.epoch_losses

    def test_identity_task_is_learnable(self):
        # target equals the splat channel: loss should fall well below
        # the initial error
        rng = np.random.default_rng(7)
        pairs = []
        for _ in range(4):
            img = rng.uniform(1.0, 2.0, size=(16, 16))
            splat = DepthImage(img)
            mask = DepthImage(np.ones((16, 16)))
            pairs.append(((splat, mask), DepthImage(img)))
        cfg = MirrorTrainConfig(
            channels=(8, 1), epochs=1500, learning_rate=0.03, lr_decay=0.997, seed=0
        )
        result = train_mirror_model(pairs, cfg)
        assert result.epoch_losses[-1] <= 0.02
        assert result.epoch_losses[-1] < 0.05 * result.epoch_losses[0]

    def test_decay_settles_lower_than_fixed_step(self):
        # single linear layer keeps the objective convex, so the only
        # obstacle is the constant-magnitude L1 step orbiting the optimum
        rng = np.random.default_rng(11)
        img = rng.uniform(1.0, 2.0, size=(12, 12))
        pairs = [((DepthImage(img), DepthImage(np.ones((12, 12)))), DepthImage(img))]
        for seed in (0, 1, 2):
            fixed = train_mirror_model(
                pairs,
                MirrorTrainConfig(
                    channels=(1,), epochs=600, learning_rate=0.02, seed=seed
                ),
            )
            decayed = train_mirror_model(
                pairs,
                MirrorTrainConfig(
                    channels=(1,),
                    epochs=600,
                    learning_rate=0.02,
                    lr_decay=0.99,
                    seed=seed,
                ),
            )
            assert decayed.epoch_losses[-1] <= 0.01
            assert decayed.epoch_losses[-1] < 0.1 * fixed.epoch_losses[-1]

    def test_losses_follow_per_image_einsum_training(self, monkeypatch):
        # the float64 kernel against the float64 reference, both on the
        # float32 batch training stacks; TestFloat32Training bounds the
        # float32 kernel against the float64 one
        rng = np.random.default_rng(4)
        inputs, targets = odd_batch(rng, n=4, h=11, w=9)
        pairs = [
            ((DepthImage(inp[0]), DepthImage(inp[1])), DepthImage(target))
            for inp, target in zip(inputs, targets)
        ]
        cfg = MirrorTrainConfig(channels=(8, 8, 1), epochs=20, lr_decay=0.99, seed=2)
        float64_steps(monkeypatch)
        result = train_mirror_model(pairs, cfg)
        # training hands its step buffers along; the reference has none
        monkeypatch.setattr(
            mirror, "training_loss_gradients",
            lambda params, inputs, targets, buffers: einsum_loss_gradients(
                params, inputs.astype(np.float64), targets.astype(np.float64)
            ),
        )
        ref = train_mirror_model(pairs, cfg)
        assert len(result.epoch_losses) == 20
        assert np.allclose(result.epoch_losses, ref.epoch_losses, rtol=1e-9, atol=0.0)
        assert result.epoch_losses[-1] < result.epoch_losses[0]
        for got, want in zip(result.params.weights, ref.params.weights):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_reused_buffers_change_no_bit(self, monkeypatch):
        rng = np.random.default_rng(5)
        inputs, targets = odd_batch(rng, n=3, h=10, w=7)
        pairs = [
            ((DepthImage(inp[0]), DepthImage(inp[1])), DepthImage(target))
            for inp, target in zip(inputs, targets)
        ]
        cfg = MirrorTrainConfig(channels=(8, 8, 1), epochs=12, lr_decay=0.95, seed=3)
        result = train_mirror_model(pairs, cfg)
        fresh = mirror.training_loss_gradients
        # every step on freshly allocated buffers
        monkeypatch.setattr(
            mirror, "training_loss_gradients",
            lambda params, inputs, targets, buffers: fresh(params, inputs, targets),
        )
        ref = train_mirror_model(pairs, cfg)
        assert result.epoch_losses == ref.epoch_losses
        for got, want in zip(result.params.weights + result.params.biases,
                             ref.params.weights + ref.params.biases):
            assert np.array_equal(got, want)

    def test_non_positive_widths_rejected(self):
        for channels in ((8, 0, 1), (8, -1, 1), (0, 1)):
            with pytest.raises(InvalidInputError):
                MirrorTrainConfig(channels=channels)

    def test_empty_pairs_rejected(self):
        with pytest.raises(InvalidInputError):
            train_mirror_model([], MirrorTrainConfig())

    def test_unequal_pair_shapes_rejected(self):
        def pair(shape, target_shape=None):
            image = DepthImage(np.ones(shape))
            return (image, image), DepthImage(np.ones(target_shape or shape))

        cfg = MirrorTrainConfig(channels=(2, 1), epochs=1)
        with pytest.raises(InvalidInputError, match=r"pair 1 .*\(6, 8\)"):
            train_mirror_model([pair((8, 8)), pair((6, 8))], cfg)
        with pytest.raises(InvalidInputError, match=r"pair 2 .*\(8, 9\)"):
            train_mirror_model([pair((8, 8)), pair((8, 8)), pair((8, 8), (8, 9))], cfg)


def train_workload_pairs() -> list:
    """The training pairs of the benchmark's ``train`` workload at seed
    0, built in memory: one laptop, mug and jar, two 64 px views each."""
    cfg = load_config(overrides=dict(views_per_train_instance=2))
    pairs = []
    for category in ("laptop", "mug", "jar"):
        entropy = bench._instance_entropy(0, category, "train", 0)
        _, mesh, _, _ = bench._build_instance(entropy)
        cam_rng = bench._rng_for(entropy, bench._SEED_CAMERAS)
        for _ in range(cfg.views_per_train_instance):
            pairs.append(make_training_pair(mesh, bench.ring_camera(cam_rng, cfg))[0])
    return pairs


EPS32 = float(np.finfo(np.float32).eps)


class TestFloat32Training:
    @pytest.fixture(scope="class")
    def pairs(self):
        pairs = train_workload_pairs()
        assert len(pairs) == 6 and pairs[0][1].depth.shape == (64, 64)
        return pairs

    @staticmethod
    def against_float64(pairs, epochs, monkeypatch):
        cfg = MirrorTrainConfig(epochs=epochs, seed=0)
        result = train_mirror_model(pairs, cfg)
        with monkeypatch.context() as patch:
            float64_steps(patch)
            ref = train_mirror_model(pairs, cfg)
        return result, ref

    def test_tracks_the_float64_loop_for_30_epochs(self, pairs, monkeypatch):
        # the benchmark's mirror_epochs; measured: weights 8.6e-8, losses
        # 5.2e-7 relative at worst
        result, ref = self.against_float64(pairs, 30, monkeypatch)
        got = np.concatenate([t.ravel() for t in result.params.weights + result.params.biases])
        want = np.concatenate([t.ravel() for t in ref.params.weights + ref.params.biases])
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
        assert np.allclose(result.epoch_losses, ref.epoch_losses, rtol=1e-5, atol=0.0)
        assert all(t.dtype == np.float64 for t in result.params.weights + result.params.biases)

    def test_tracks_the_float64_loop_for_200_epochs(self, pairs, monkeypatch):
        # the product default; measured: losses 2.2e-5 relative at worst
        result, ref = self.against_float64(pairs, 200, monkeypatch)
        assert np.allclose(result.epoch_losses, ref.epoch_losses, rtol=1e-3, atol=0.0)

    def test_training_steps_in_float32(self, pairs, monkeypatch):
        kernel = mirror.training_loss_gradients
        seen = []

        def recorded(params, inputs, targets, buffers):
            seen.append((inputs.dtype, targets.dtype))
            return kernel(params, inputs, targets, buffers)

        monkeypatch.setattr(mirror, "training_loss_gradients", recorded)
        train_mirror_model(pairs[:2], MirrorTrainConfig(epochs=3, seed=0))
        assert seen == [(np.float32, np.float32)] * 3

    @pytest.mark.parametrize("shape", [(5, 7, 13), (4, 16, 20)])
    def test_kernel_matches_einsum_on_rounded_inputs(self, shape):
        # the float64 reference on the same float32-rounded batch.  The
        # kernel also rounds the weights, so every pre-activation moves
        # by up to about 1e-6; one that close to a kink could flip its
        # rectifier or L1 sign, which no rounding bound covers, and
        # these batches have none.  Away from kinks the float32 sums
        # stay within one or two roundings: measured 0.24 EPS32 on the
        # loss and 1.25 EPS32 of the largest gradient entry
        rng = np.random.default_rng(21)
        inputs, targets = (a.astype(np.float32) for a in odd_batch(rng, *shape))
        inputs64, targets64 = inputs.astype(np.float64), targets.astype(np.float64)
        for seed in (0, 1):
            params = tiny_net(channels=(8, 8, 1), seed=seed)
            pres, cur = [], inputs64
            for w, b in zip(params.weights, params.biases):
                pres.append(conv2d(cur, w, b))
                cur = np.maximum(pres[-1], 0.0)
            gaps = np.abs(pres[-1][:, 0] - targets64)[targets64 > 0.0]
            assert min(gaps.min(), *(np.abs(pre).min() for pre in pres[:-1])) > 1e-5
            loss, gw, gb = training_loss_gradients(params, inputs, targets)
            ref_loss, ref_gw, ref_gb = einsum_loss_gradients(params, inputs64, targets64)
            assert loss == pytest.approx(ref_loss, rel=2 * EPS32)
            for got, ref in zip(gw + gb, ref_gw + ref_gb):
                assert got.dtype == np.float64 and got.shape == ref.shape
                assert np.allclose(got, ref, rtol=0.0, atol=8 * EPS32 * np.abs(ref).max())


class TestCompletionAndFusion:
    def test_zero_network_gives_all_invalid(self, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        virtual = mirror_pose(front_camera, (0.0, 0.0, 0.0))
        completed = complete_view_learned(zero_net(), image, front_camera, virtual)
        assert completed.valid_count() == 0

    def test_negative_outputs_marked_invalid(self):
        # a bias-only network with a negative bias outputs below zero
        params = MirrorModelParams(
            (np.zeros((1, 2, 3, 3)),), (np.array([-0.5]),)
        )
        raw = mirror_forward(params, np.ones((4, 4)), np.ones((4, 4)))
        assert np.all(raw < 0.0)

    def test_forward_rejects_unequal_splat_and_mask(self):
        with pytest.raises(InvalidInputError, match=r"\(4, 4\).*\(4, 5\)"):
            mirror_forward(tiny_net(), np.ones((4, 4)), np.ones((4, 5)))

    def test_fusion_tags_points_by_origin(self, unit_sphere, front_camera):
        observed = render_depth(unit_sphere, front_camera)
        cloud = reconstruct_view_dependent(
            observed, front_camera, oracle_completion(unit_sphere)
        )
        virtual = mirror_pose(front_camera, (0.0, 0.0, 0.0))
        n_back = complete_view_oracle(unit_sphere, virtual).valid_count()
        assert cloud.count(TAG_OBSERVED) == observed.valid_count()
        assert cloud.count(TAG_GENERATED) == n_back
        assert len(cloud) == observed.valid_count() + n_back

    def test_learned_factory_matches_direct_call(self, unit_sphere, front_camera):
        params = tiny_net()
        observed = render_depth(unit_sphere, front_camera)
        virtual = mirror_pose(front_camera, (0.0, 0.0, 0.0))
        via_factory = learned_completion(params)(observed, front_camera, virtual)
        direct = complete_view_learned(params, observed, front_camera, virtual)
        assert np.array_equal(via_factory.depth, direct.depth)

    def test_splat_into_view_round_trip_mask(self, unit_sphere, front_camera):
        observed = render_depth(unit_sphere, front_camera)
        splat, mask = splat_into_view(observed, front_camera, front_camera)
        assert np.array_equal(mask.depth > 0, splat.depth > 0)
        assert np.max(np.abs(splat.depth - observed.depth)) <= 1e-9


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        params = tiny_net(channels=(4, 2, 1), seed=9)
        path = tmp_path / "net.rbmr"
        save_mirror_model(path, params)
        loaded = load_mirror_model(path)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, params.biases))

    def test_pairs_directory_round_trip(self, tmp_path, unit_sphere):
        cams = [
            camera_looking_at((0.0, 2.0, 0.5), (0.0, 0.0, 0.0)),
            camera_looking_at((1.5, -1.0, 0.8), (0.0, 0.0, 0.0)),
        ]
        examples = []
        for cam in cams:
            (pair, front) = make_training_pair(unit_sphere, cam)
            (splat, _mask), target = pair
            examples.append((front, splat, target))
        save_training_pairs(tmp_path / "pairs", examples)
        pairs, fronts = load_training_pairs(tmp_path / "pairs")
        assert len(pairs) == 2 and len(fronts) == 2
        for (front, splat, target), ((l_splat, l_mask), l_target), l_front in zip(
            examples, pairs, fronts
        ):
            # storage is 32-bit float
            assert np.allclose(l_front.depth, front.depth, atol=1e-5)
            assert np.allclose(l_splat.depth, splat.depth, atol=1e-5)
            assert np.allclose(l_target.depth, target.depth, atol=1e-5)
            assert np.array_equal(l_mask.depth, (l_splat.depth > 0).astype(float))

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(MissingArtifactError):
            load_training_pairs(tmp_path / "nowhere")
