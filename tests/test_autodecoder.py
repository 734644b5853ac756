"""Latent-code decoder: forward math, gradients, training, inference,
and persistence."""
import decimal
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from reconbench import autodecoder, bench
from reconbench.autodecoder import (
    _CODE_INIT_SIGMA,
    _RANGE_BOXES,
    _ROW_ALIGN,
    _ROW_BLOCK,
    _TANH_ERR,
    DecoderParams,
    TrainConfig,
    _clamp,
    _clamped_l1_grad,
    _FixedCode,
    _affine_linear,
    _affine_tanh,
    _beyond,
    _box_ranges,
    _live_grid_points,
    _range_allowance,
    _row_blocks,
    _screen_field,
    _screen_margin,
    _step_numbers,
    decoder_forward,
    decoder_gradient,
    decoder_output_gradients,
    infer_latent,
    init_decoder,
    load_decoder,
    reconstruct,
    save_decoder,
    train_autodecoder,
    view_samples_for_inference,
)
from reconbench.config import load_config
from reconbench.depth import render_depth
from reconbench.errors import InvalidInputError
from reconbench.fileio import load_obj
from reconbench.geometry import TAG_GENERATED
from reconbench.metrics import chamfer_hausdorff, voxel_downsample
from reconbench.sdf import (
    GRID_RADIUS,
    SamplingConfig,
    SdfSamples,
    default_iso_epsilon,
    evaluate_on_grid,
    extract_surface_points,
    grid_axis,
    numeric_gradient,
    sample_training_set,
    signed_distances,
)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(1e-8, abs(a) + abs(b))


def tiny_config(**kw) -> TrainConfig:
    base = dict(latent_dim=4, hidden=(8, 8), epochs=5, batch_size=64, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def loss_terms(pred, target, codes_rows, cfg: TrainConfig):
    """The training loss as first written, per batch: the clamped-L1 data
    term plus the code prior lambda |z|^2 per row; the mean loss and
    d(loss)/d(pred)."""
    r = _clamp(pred, cfg.clamp_delta) - _clamp(target, cfg.clamp_delta)
    data = np.abs(r).mean()
    prior = cfg.code_prior_weight * np.einsum("nk,nk->n", codes_rows, codes_rows).mean()
    return data + prior, _clamped_l1_grad(r, pred, cfg.clamp_delta, pred.shape[0])


def inference_loss(params, observation, z, cfg) -> float:
    """The objective latent inference descends at code z: the clamped-L1
    data term plus the code prior."""
    pred = decoder_forward(params, z, observation.points)
    return float(loss_terms(pred, observation.sdf, np.atleast_2d(z), cfg)[0])


def forward_acts(params: DecoderParams, x: np.ndarray) -> list[np.ndarray]:
    """The stacked network on code and point together, as training first
    ran it: the input and every layer's output."""
    acts = [x]
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = acts[-1] @ w.T
        pre += b
        acts.append(pre if i == last else np.tanh(pre, out=pre))
    return acts


def backward(params: DecoderParams, acts: list[np.ndarray], dout: np.ndarray):
    """``forward_acts``' backward pass: per-layer weight and bias
    gradients and the gradient with respect to the stacked input, given
    d(objective)/d(output)."""
    gw = [np.empty(0)] * len(params.weights)
    gb = [np.empty(0)] * len(params.weights)
    last = len(params.weights) - 1
    grad = dout
    for i in range(last, -1, -1):
        gw[i] = grad.T @ acts[i]
        gb[i] = grad.sum(axis=0)
        grad = grad * params.weights[i] if i == last else grad @ params.weights[i]
        if i > 0:
            grad = grad * (1.0 - acts[i] ** 2)
    return gw, gb, grad


def zero_params(cfg: TrainConfig) -> DecoderParams:
    init = init_decoder(cfg)
    return DecoderParams(
        cfg.latent_dim,
        tuple(np.zeros_like(w) for w in init.weights),
        tuple(np.zeros_like(b) for b in init.biases),
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(latent_dim=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(momentum=1.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(clamp_delta=0.0)

    def test_non_positive_hidden_width_rejected(self):
        for hidden in ((64, 0), (-1,), (8, 8, -3)):
            with pytest.raises(InvalidInputError):
                TrainConfig(hidden=hidden)


class TestInit:
    def test_layer_shapes(self):
        cfg = tiny_config()
        params = init_decoder(cfg)
        assert [w.shape for w in params.weights] == [(8, 7), (8, 8), (1, 8)]
        assert all(np.all(b == 0.0) for b in params.biases)

    def test_seeded_determinism(self):
        cfg = tiny_config(seed=3)
        a = init_decoder(cfg)
        b = init_decoder(cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_params_validation(self):
        with pytest.raises(InvalidInputError):
            DecoderParams(4, (np.zeros((8, 9)),), (np.zeros(8),))
        with pytest.raises(InvalidInputError):
            DecoderParams(4, (np.zeros((2, 7)),), (np.zeros(2),))


class TestForward:
    def test_zero_network_outputs_zero(self, rng):
        cfg = tiny_config()
        params = zero_params(cfg)
        pts = rng.normal(size=(10, 3))
        assert np.array_equal(decoder_forward(params, np.zeros(4), pts), np.zeros(10))

    def test_hand_computed_single_unit(self):
        # one unit per layer: f(z, p) = 2 tanh(z) + 0.5, independent of p
        params = DecoderParams(
            1,
            (np.array([[1.0, 0.0, 0.0, 0.0]]), np.array([[2.0]])),
            (np.zeros(1), np.array([0.5])),
        )
        z = np.array([0.3])
        out = decoder_forward(params, z, np.array([[0.4, -0.2, 0.9]]))
        assert out[0] == pytest.approx(2.0 * np.tanh(0.3) + 0.5, abs=1e-15)

    def test_wrong_length_code_names_both_lengths(self):
        params, code = product_decoder()
        pts = np.zeros((4, 3))
        obs = SdfSamples(pts, np.zeros(4))
        calls = (
            lambda: decoder_forward(params, code[:15], pts),
            lambda: decoder_gradient(params, code[:15], pts),
            lambda: reconstruct(params, code[:15], grid_resolution=8),
            lambda: reconstruct(params, code[:15], grid_resolution=64),
            lambda: decoder_output_gradients(params, code[:15], pts[0]),
            lambda: infer_latent(params, obs, TrainConfig(), init=code[:15]),
        )
        for call in calls:
            with pytest.raises(InvalidInputError, match=r"shape \(15,\).* 16 entries"):
                call()

    def test_single_layer_decoder_is_linear(self, rng):
        w = np.array([[0.5, -1.0, 2.0, 0.25]])
        params = DecoderParams(1, (w,), (np.array([0.1]),))
        z = np.array([0.3])
        pts = rng.normal(size=(5, 3))
        assert np.allclose(decoder_forward(params, z, pts), 0.15 + pts @ w[0, 1:] + 0.1)
        assert np.array_equal(decoder_gradient(params, z, pts), np.tile(w[0, 1:], (5, 1)))
        # the loss pulls the output down by d(loss)/d(pred) = 1 / n per row
        obs = SdfSamples(pts, np.full(5, -100.0))
        cfg = TrainConfig(latent_dim=1, hidden=(1,), epochs=1, clamp_delta=1000.0,
                          code_learning_rate=0.1, code_prior_weight=0.0)
        assert np.allclose(infer_latent(params, obs, cfg, init=z), z - 0.1 * 0.5)


class TestGradients:
    def test_output_gradients_match_finite_differences(self):
        h = 1e-5
        for seed in range(10):
            rng = np.random.default_rng(seed)
            cfg = tiny_config(seed=seed)
            params = init_decoder(cfg, rng)
            z = rng.normal(size=cfg.latent_dim) * 0.5
            point = rng.normal(size=3) * 0.5
            gw, gb, gz = decoder_output_gradients(params, z, point)

            def out(p=params, zz=None):
                code = z if zz is None else zz
                return float(decoder_forward(p, code, point[None, :])[0])

            # a few weight entries per layer
            for li in range(len(params.weights)):
                w = params.weights[li]
                for _ in range(3):
                    i = int(rng.integers(w.shape[0]))
                    j = int(rng.integers(w.shape[1]))
                    wp = [x.copy() for x in params.weights]
                    wm = [x.copy() for x in params.weights]
                    wp[li][i, j] += h
                    wm[li][i, j] -= h
                    fp = out(DecoderParams(cfg.latent_dim, tuple(wp), params.biases))
                    fm = out(DecoderParams(cfg.latent_dim, tuple(wm), params.biases))
                    fd = (fp - fm) / (2 * h)
                    assert rel_err(float(gw[li][i, j]), fd) <= 1e-4
                i = int(rng.integers(params.biases[li].shape[0]))
                bp = [x.copy() for x in params.biases]
                bm = [x.copy() for x in params.biases]
                bp[li][i] += h
                bm[li][i] -= h
                fd = (
                    out(DecoderParams(cfg.latent_dim, params.weights, tuple(bp)))
                    - out(DecoderParams(cfg.latent_dim, params.weights, tuple(bm)))
                ) / (2 * h)
                assert rel_err(float(gb[li][i]), fd) <= 1e-4
            # latent entries
            for k in range(cfg.latent_dim):
                zp = z.copy()
                zm = z.copy()
                zp[k] += h
                zm[k] -= h
                fd = (out(zz=zp) - out(zz=zm)) / (2 * h)
                assert rel_err(float(gz[k]), fd) <= 1e-4

    def test_inference_loss_gradient_matches_finite_differences(self):
        # targets sit a fixed 0.03 below the prediction so the residual
        # and the clamp stay away from their kinks
        rng = np.random.default_rng(42)
        cfg = tiny_config(code_prior_weight=1e-3)
        params = init_decoder(cfg, rng)
        scaled = DecoderParams(
            cfg.latent_dim,
            tuple(w * 0.1 for w in params.weights),
            params.biases,
        )
        pts = rng.normal(size=(50, 3)) * 0.5
        z0 = rng.normal(size=cfg.latent_dim) * 0.1
        pred = decoder_forward(scaled, z0, pts)
        assert np.all(np.abs(pred) < cfg.clamp_delta - 0.02)
        obs = SdfSamples(pts, pred - 0.03)

        # recover the analytic gradient from one plain descent step
        step_cfg = tiny_config(
            code_prior_weight=1e-3, epochs=1, code_learning_rate=1e-6, momentum=0.0
        )
        # start from z0 by shifting the observation problem: instead run
        # the finite-difference check at z = 0 where inference starts
        z_zero = np.zeros(cfg.latent_dim)
        z_after = infer_latent(scaled, obs, step_cfg)
        analytic = (z_zero - z_after) / step_cfg.code_learning_rate

        h = 1e-5
        for k in range(cfg.latent_dim):
            zp = z_zero.copy()
            zm = z_zero.copy()
            zp[k] += h
            zm[k] -= h
            fd = (
                inference_loss(scaled, obs, zp, step_cfg)
                - inference_loss(scaled, obs, zm, step_cfg)
            ) / (2 * h)
            assert rel_err(float(analytic[k]), fd) <= 1e-4


@pytest.fixture(scope="module")
def sphere_samples(unit_sphere):
    return sample_training_set(unit_sphere, SamplingConfig(total_count=400, seed=1))


def float64_steps(monkeypatch) -> None:
    """Make ``train_autodecoder`` step through the float64 kernel: each
    step gets float64 copies of its float32 batch and a fresh float64
    layer stack."""
    kernel = autodecoder._batch_loss_gradients
    monkeypatch.setattr(
        autodecoder, "_batch_loss_gradients",
        lambda params, codes, points, target, obj, cfg, layers: kernel(
            params, codes, points.astype(np.float64), target.astype(np.float64), obj, cfg,
            autodecoder._Layers(params),
        ),
    )


def frozen_train_autodecoder(samples_per_object, cfg):
    """The training loop as first written, all in float64: the stacked
    network on code and point together (``forward_acts``/``backward``), a
    fresh validated ``DecoderParams`` per batch, two ``np.add.at`` calls
    for the code gradients, and momentum updates that rebind every
    array."""
    rng = np.random.default_rng(cfg.seed)
    params = init_decoder(cfg, rng)
    n_obj = len(samples_per_object)
    codes = rng.normal(0.0, _CODE_INIT_SIGMA, size=(n_obj, cfg.latent_dim))
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
    losses = []
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
            acts = forward_acts(live, x)
            loss, dpred = loss_terms(acts[-1][:, 0], target[batch], z_rows, cfg)
            epoch_loss += loss * batch.shape[0]
            gw, gb, gx = backward(live, acts, dpred[:, None])
            gz = np.zeros_like(codes)
            np.add.at(gz, obj, gx[:, : cfg.latent_dim])
            np.add.at(gz, obj, (2.0 * cfg.code_prior_weight / batch.shape[0]) * z_rows)
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
    return weights, biases, codes, losses


class TestTraining:

    def test_loss_decreases(self, sphere_samples):
        cfg = tiny_config(epochs=40, learning_rate=5e-3, code_learning_rate=5e-3)
        result = train_autodecoder([sphere_samples], cfg)
        assert len(result.epoch_losses) == 40
        assert result.epoch_losses[-1] < result.epoch_losses[0]

    def test_bit_identical_reruns(self, sphere_samples):
        cfg = tiny_config(epochs=3)
        a = train_autodecoder([sphere_samples], cfg)
        b = train_autodecoder([sphere_samples], cfg)
        assert all(np.array_equal(x, y) for x, y in zip(a.params.weights, b.params.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.codes, b.codes))
        assert a.epoch_losses == b.epoch_losses

    def test_float64_kernel_tracks_the_frozen_loop(self, rng, monkeypatch):
        # two objects with unequal sample counts, a batch size that does
        # not divide the total, momentum and a decaying step, on values
        # float32 holds exactly, so the float32 batch rounds nothing.
        # The split layer 0 and the per-object sums reorder float64 sums:
        # measured at most 3.1e-16 on every tensor and on the losses
        samples = [
            SdfSamples(*(a.astype(np.float32).astype(np.float64) for a in (
                rng.normal(size=(n, 3)), rng.uniform(-0.2, 0.2, size=n))))
            for n in (130, 57)
        ]
        cfg = tiny_config(
            epochs=6, batch_size=40, momentum=0.9, lr_decay=0.9,
            learning_rate=5e-3, code_learning_rate=5e-3, code_prior_weight=1e-2,
        )
        float64_steps(monkeypatch)
        result = train_autodecoder(samples, cfg)
        weights, biases, codes, losses = frozen_train_autodecoder(samples, cfg)
        for got, want in zip(
            (*result.params.weights, *result.params.biases, np.array(result.codes)),
            (*weights, *biases, codes),
        ):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        np.testing.assert_allclose(result.epoch_losses, losses, rtol=1e-12, atol=0.0)
        assert not np.array_equal(result.codes[0], result.codes[1])

    def test_zero_epochs_returns_initialization(self, sphere_samples):
        cfg = tiny_config(epochs=0, seed=9)
        result = train_autodecoder([sphere_samples], cfg)
        expect = init_decoder(cfg, np.random.default_rng(9))
        assert all(
            np.array_equal(a, b) for a, b in zip(result.params.weights, expect.weights)
        )
        assert result.epoch_losses == []

    def test_strong_prior_crushes_codes(self, sphere_samples):
        weak = train_autodecoder(
            [sphere_samples], tiny_config(epochs=20, code_prior_weight=0.0)
        )
        strong = train_autodecoder(
            [sphere_samples], tiny_config(epochs=20, code_prior_weight=100.0)
        )
        weak_norm = np.linalg.norm(weak.codes[0])
        strong_norm = np.linalg.norm(strong.codes[0])
        assert strong_norm < 0.01
        assert strong_norm < 0.1 * weak_norm

    def test_identical_objects_keep_similar_codes(self, sphere_samples):
        cfg = tiny_config(epochs=10)
        result = train_autodecoder([sphere_samples, sphere_samples], cfg)
        rng = np.random.default_rng(cfg.seed)
        init_decoder(cfg, rng)
        init_codes = rng.normal(0.0, _CODE_INIT_SIGMA, size=(2, cfg.latent_dim))
        baseline = np.linalg.norm(init_codes[0] - init_codes[1])
        final = np.linalg.norm(result.codes[0] - result.codes[1])
        # identical supervision must not drive the codes apart
        assert final <= 10.0 * baseline

    def test_clamp_makes_far_targets_equivalent(self, rng):
        cfg = tiny_config()
        params = init_decoder(cfg)
        pts = rng.normal(size=(30, 3))
        z = np.zeros(cfg.latent_dim)
        far = SdfSamples(pts, np.full(30, 0.7))
        at_delta = SdfSamples(pts, np.full(30, cfg.clamp_delta))
        assert inference_loss(params, far, z, cfg) == inference_loss(
            params, at_delta, z, cfg
        )

    def test_empty_object_rejected(self):
        with pytest.raises(InvalidInputError):
            train_autodecoder([SdfSamples.empty()], tiny_config())
        with pytest.raises(InvalidInputError):
            train_autodecoder([], tiny_config())


class TestInference:
    def test_zero_steps_gives_zero_code(self, rng):
        cfg = tiny_config(epochs=0)
        params = init_decoder(cfg)
        obs = SdfSamples(rng.normal(size=(10, 3)), np.zeros(10))
        assert np.array_equal(infer_latent(params, obs, cfg), np.zeros(4))

    def test_zero_steps_keeps_warm_start(self, rng):
        cfg = tiny_config(epochs=0)
        params = init_decoder(cfg)
        obs = SdfSamples(rng.normal(size=(10, 3)), np.zeros(10))
        start = np.array([0.5, -0.25, 0.0, 1.0])
        out = infer_latent(params, obs, cfg, init=start)
        assert np.array_equal(out, start)
        assert out is not start

    def test_bad_warm_start_shape_rejected(self, rng):
        cfg = tiny_config()
        params = init_decoder(cfg)
        obs = SdfSamples(rng.normal(size=(10, 3)), np.zeros(10))
        with pytest.raises(InvalidInputError):
            infer_latent(params, obs, cfg, init=np.zeros(3))

    def test_descent_reduces_loss(self, unit_sphere):
        samples = sample_training_set(
            unit_sphere, SamplingConfig(total_count=300, seed=2)
        )
        cfg = tiny_config(epochs=50, code_learning_rate=0.05, momentum=0.9)
        trained = train_autodecoder(
            [samples], tiny_config(epochs=60, learning_rate=5e-3, code_learning_rate=5e-3)
        )
        z = infer_latent(trained.params, samples, cfg)
        before = inference_loss(trained.params, samples, np.zeros(4), cfg)
        after = inference_loss(trained.params, samples, z, cfg)
        assert after <= before

    def test_empty_observation_rejected(self):
        cfg = tiny_config()
        with pytest.raises(InvalidInputError):
            infer_latent(init_decoder(cfg), SdfSamples.empty(), cfg)


class TestReconstruct:
    def test_zero_network_fills_the_grid(self):
        cfg = tiny_config()
        params = zero_params(cfg)
        cloud = reconstruct(params, np.zeros(4), grid_resolution=8)
        assert len(cloud) == 8**3
        assert cloud.count(TAG_GENERATED) == len(cloud)

    @pytest.mark.parametrize("res", [0, 1])
    def test_grid_below_two_points_per_axis_rejected(self, res):
        params = init_decoder(tiny_config())
        with pytest.raises(InvalidInputError, match="at least 2"):
            reconstruct(params, np.zeros(4), grid_resolution=res)
        with pytest.raises(InvalidInputError, match="at least 2"):
            default_iso_epsilon(res)


def product_decoder() -> tuple[DecoderParams, np.ndarray]:
    """A decoder of the benchmark's size (latent 16, hidden 64x3)."""
    params = init_decoder(TrainConfig(latent_dim=16, hidden=(64, 64, 64)))
    return params, np.random.default_rng(7).normal(0.0, 0.1, size=16)


def stacked(z, points) -> np.ndarray:
    """The training path's network input: the code beside each point."""
    return np.concatenate([np.broadcast_to(z, (len(points), len(z))), points], axis=1)


def infer_latent_full_backward(params, observation, cfg) -> np.ndarray:
    """Latent inference as written with the full backward pass, which
    also computes the weight and bias gradients."""
    z = np.zeros(params.latent_dim)
    vel = np.zeros_like(z)
    code_lr = cfg.code_learning_rate
    for _ in range(cfg.epochs):
        acts = forward_acts(params, stacked(z, observation.points))
        _, dpred = loss_terms(acts[-1][:, 0], observation.sdf, z[None, :], cfg)
        _, _, gx = backward(params, acts, dpred[:, None])
        gz = gx[:, : params.latent_dim].sum(axis=0) + 2.0 * cfg.code_prior_weight * z
        vel = cfg.momentum * vel - code_lr * gz
        z = z + vel
        code_lr *= cfg.lr_decay
    return z


def frozen_split_inference(params, observation, cfg, init=None, dtype=np.float32) -> np.ndarray:
    """Latent inference on the split layer 0 as first written: broadcast
    bias adds, every row of every row block carried back to layer 0's
    pre-activation, and ``gz = (sum of those rows) @ W0[:, :L]``.

    The network runs in ``dtype``: points, weights, targets and
    residuals, with the code's constant formed in float64 and rounded
    once.  The rows' sums, ``z`` and the velocity stay float64."""
    latent = params.latent_dim
    w0 = params.weights[0]
    point = np.ascontiguousarray(w0[:, latent:], dtype=dtype)
    weights = [w.astype(dtype) for w in params.weights[1:]]
    biases = [b.astype(dtype) for b in params.biases[1:]]
    points = observation.points.astype(dtype)
    z = np.zeros(latent) if init is None else np.array(init, dtype=np.float64)
    vel = np.zeros_like(z)
    code_lr = cfg.code_learning_rate
    n = len(observation)
    target = np.clip(observation.sdf.astype(dtype), -cfg.clamp_delta, cfg.clamp_delta)
    for _ in range(cfg.epochs):
        total = np.zeros(w0.shape[0])
        constant = (w0[:, :latent] @ z + params.biases[0]).astype(dtype)
        for s, e in _row_blocks(n):
            acts = [np.tanh(points[s:e] @ point.T + constant)]
            for w, b in zip(weights[:-1], biases[:-1]):
                acts.append(np.tanh(acts[-1] @ w.T + b))
            pred = (acts[-1] @ weights[-1].T + biases[-1])[:, 0]
            r = np.clip(pred, -cfg.clamp_delta, cfg.clamp_delta) - target[s:e]
            grad = (np.sign(r) * (np.abs(pred) < cfg.clamp_delta) / n)[:, None]
            grad = grad * weights[-1]
            for i in range(len(acts) - 1, -1, -1):
                grad = grad * (1.0 - acts[i] ** 2)
                if i > 0:
                    grad = grad @ weights[i - 1]
            total += grad.sum(axis=0)
        gz = total @ w0[:, :latent] + 2.0 * cfg.code_prior_weight * z
        vel = cfg.momentum * vel - code_lr * gz
        z = z + vel
        code_lr *= cfg.lr_decay
    return z


class TestBlockedKernels:
    @pytest.mark.parametrize("size", [2049, 4099, "grid32", "grid64"])
    def test_blocked_forward_equals_one_whole_call(self, size, rng):
        params, z = product_decoder()
        if isinstance(size, str):
            pts, _ = evaluate_on_grid(lambda p: np.zeros(len(p)), int(size[4:]))
        else:
            pts = rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(size, 3))
        # one call over the points padded to whole row groups
        padded = np.concatenate([pts, np.zeros((-len(pts) % _ROW_ALIGN, 3))])
        fixed = _FixedCode(params, z)
        whole = fixed.forward(padded, fixed.code_tile(len(padded)))[-1][: len(pts), 0]
        assert np.array_equal(decoder_forward(params, z, pts), whole)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 63, 65, 2049, 4099])
    def test_a_row_does_not_depend_on_its_call(self, n, dtype, rng):
        # the same bits alone, in a random subset and permuted
        params, z = product_decoder()
        fixed = _FixedCode(params, z, dtype)
        pts = rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(n, 3))
        vals, grads = (a.copy() for a in fixed.evaluate(pts, with_grads=True))
        for i in np.unique(np.linspace(0, n - 1, 24).astype(int)):
            alone = fixed.evaluate(pts[i : i + 1], with_grads=True)
            assert alone[0][0] == vals[i] and np.array_equal(alone[1][0], grads[i])
        subset = np.sort(rng.choice(n, size=max(1, n // 3), replace=False))
        for rows in (subset, rng.permutation(n)):
            got_vals, got_grads = fixed.evaluate(pts[rows], with_grads=True)
            assert np.array_equal(got_vals, vals[rows])
            assert np.array_equal(got_grads, grads[rows])

    @pytest.mark.parametrize("block", [64, 128, 192, 512, 832, 1024, 2048])
    def test_point_grads_equal_for_every_block_size(self, block, rng):
        params, z = product_decoder()
        fixed = _FixedCode(params, z)
        pts = rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(4096, 3))
        whole = fixed.point_grads(fixed.forward(pts, fixed.code_tile(len(pts))))
        for s in range(0, len(pts), block):
            part = pts[s : s + block]
            rows = fixed.point_grads(fixed.forward(part, fixed.code_tile(len(part))))
            assert np.array_equal(rows, whole[s : s + block])
        # and the gradient of the full backward pass, to rounding
        acts = forward_acts(params, stacked(z, pts[:500]))
        full = backward(params, acts, np.ones((500, 1)))[2][:, params.latent_dim:]
        np.testing.assert_allclose(whole[:500], full, rtol=1e-12, atol=1e-15)

    def test_analytic_gradient_matches_central_differences(self, rng):
        params, z = product_decoder()
        pts = rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(3000, 3))
        np.testing.assert_allclose(
            decoder_gradient(params, z, pts),
            numeric_gradient(lambda p: decoder_forward(params, z, p), pts),
            rtol=1e-6,
            atol=1e-8,
        )

    def test_inference_unchanged_by_input_only_backward(self, unit_sphere):
        params, _ = product_decoder()
        obs = sample_training_set(unit_sphere, SamplingConfig(total_count=600, seed=3))
        cfg = TrainConfig(
            latent_dim=16, hidden=(64, 64, 64), epochs=25, code_learning_rate=0.05,
            momentum=0.9, lr_decay=0.97, clamp_delta=0.5,
        )
        z = infer_latent(params, obs, cfg)
        assert np.any(z != 0.0)
        assert np.array_equal(z, frozen_split_inference(params, obs, cfg))
        # the float64 reference loop, to rounding
        np.testing.assert_allclose(
            frozen_split_inference(params, obs, cfg, dtype=np.float64),
            infer_latent_full_backward(params, obs, cfg),
            rtol=1e-12,
        )

    def test_dead_rows_only_move_the_code_by_the_prior(self, rng):
        # no prediction lies inside a clamp band this narrow
        params, code = product_decoder()
        obs = SdfSamples(rng.uniform(-1.0, 1.0, size=(300, 3)), np.zeros(300))
        cfg = TrainConfig(epochs=1, code_learning_rate=0.05, clamp_delta=1e-9)
        assert np.all(np.abs(decoder_forward(params, code, obs.points)) >= cfg.clamp_delta)
        z = infer_latent(params, obs, cfg, init=code)
        prior_only = code - cfg.code_learning_rate * (2.0 * cfg.code_prior_weight * code)
        assert np.array_equal(z, prior_only)
        assert np.array_equal(z, frozen_split_inference(params, obs, cfg, init=code))

    @pytest.mark.parametrize("row", [0, 150, 299])
    def test_one_live_row_equals_all_rows(self, row, rng, monkeypatch):
        # every other target equals its float32 prediction in the same
        # unpadded 300-row block, so its residual is 0
        params, code = product_decoder()
        pts = rng.uniform(-1.0, 1.0, size=(300, 3))
        cfg = TrainConfig(epochs=1, code_learning_rate=0.05, clamp_delta=1.0)
        fixed = _FixedCode(params, code, np.float32)
        target = fixed.forward(pts.astype(np.float32), fixed.code_tile(300))[-1][:, 0]
        target = target.astype(np.float64)
        target[row] += 0.05
        obs = SdfSamples(pts, target)
        live = []
        code_grad = _FixedCode.code_grad

        def counted(self, acts, dpred):
            live.append(np.flatnonzero(dpred).tolist())
            return code_grad(self, acts, dpred)

        monkeypatch.setattr(_FixedCode, "code_grad", counted)
        z = infer_latent(params, obs, cfg, init=code)
        assert live == [[row]]
        assert np.array_equal(z, frozen_split_inference(params, obs, cfg, init=code))
        prior_only = code - cfg.code_learning_rate * (2.0 * cfg.code_prior_weight * code)
        assert not np.array_equal(z, prior_only)

    def test_live_rows_over_many_blocks_equal_all_rows(self, rng):
        params, _ = product_decoder()
        n = 2 * _ROW_BLOCK + 500
        obs = SdfSamples(rng.uniform(-1.0, 1.0, size=(n, 3)), rng.uniform(-0.1, 0.1, size=n))
        cfg = TrainConfig(
            epochs=8, code_learning_rate=0.05, momentum=0.9, lr_decay=0.97, clamp_delta=0.05
        )
        live = np.abs(decoder_forward(params, np.zeros(16), obs.points)) < cfg.clamp_delta
        assert 0.05 < live.mean() < 0.95
        assert len(_row_blocks(n)) == 3
        z = infer_latent(params, obs, cfg)
        assert np.any(z != 0.0)
        assert np.array_equal(z, frozen_split_inference(params, obs, cfg))

    def test_extraction_with_analytic_gradient(self):
        params, z = product_decoder()

        def field(p):
            return decoder_forward(params, z, p)

        central = extract_surface_points(field, 32)
        exact = extract_surface_points(
            field, 32, gradient_fn=lambda p: decoder_gradient(params, z, p)
        )
        # same candidates in the same order, each refined to within 1e-8
        assert exact.shape == central.shape and len(exact) > 0
        assert np.max(np.abs(exact - central)) <= 1e-8
        cloud = reconstruct(params, z, grid_resolution=32)
        assert np.array_equal(cloud.points, exact)


def assert_close(got, want, rel: float = 1e-12) -> None:
    """``got`` within ``rel`` of ``want``'s largest magnitude, entrywise."""
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestSharedBackward:
    """``_Layers.backward``, which training, latent inference and the
    Newton step share, against the reference ``backward`` on the stacked
    network, in float64."""

    @pytest.mark.parametrize("rows", ["all live", "live subset", "dpred one"])
    def test_matches_the_reference_backward(self, rows, rng):
        params, z = product_decoder()
        n, latent = 200, params.latent_dim
        pts = rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(n, 3))
        dpred = np.ones(n) if rows == "dpred one" else rng.normal(size=n)
        if rows == "live subset":
            dpred[rng.random(n) < 0.7] = 0.0
        x = stacked(z, pts)
        ref_acts = forward_acts(params, x)
        ref_w, ref_b, ref_x = backward(params, ref_acts, dpred[:, None])
        # a one-row backward's layer-0 bias gradient is that row's
        # d(objective)/d(layer 0's pre-activation)
        ref_rows = np.stack([
            backward(params, [a[r : r + 1] for a in ref_acts], dpred[r : r + 1, None])[1][0]
            for r in range(n)
        ])

        fixed = _FixedCode(params, z)
        got_w, got_b = [None] * len(params.weights), [None] * len(params.biases)
        acts = fixed.forward(pts, fixed.code_tile(n))
        got_rows = fixed.backward(acts, dpred[:, None], (got_w, got_b))
        assert_close(got_rows, ref_rows)
        got_w[0], got_b[0] = got_rows.T @ x, got_rows.sum(axis=0)
        for got, want in zip(got_w + got_b, ref_w + ref_b):
            assert got.dtype == np.float64
            assert_close(got, want)

        # the two callers with a fixed code: the live rows' sum, and the
        # point gradients
        code_sum = fixed.code_grad(fixed.forward(pts, fixed.code_tile(n)), dpred)
        assert_close(code_sum, ref_b[0])
        if rows == "dpred one":
            grads = fixed.point_grads(fixed.forward(pts, fixed.code_tile(n)))
            assert_close(grads, ref_x[:, latent:])


# the trained decoder the benchmark's evaluate workload decodes with
FIXTURE_DECODER = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures" / "decoder.rbsd"


class TestFloat32Inference:
    def test_tracks_the_float64_loop_on_the_trained_fixture(self, tmp_path, monkeypatch):
        # the benchmark's inference settings on rendered 64 px test views:
        # 20 coarse and 40 fine steps on at most 1000 samples
        params, _ = autodecoder.load_decoder(FIXTURE_DECODER)
        cfg = load_config(overrides=dict(
            infer_steps=40, infer_coarse_steps=20, infer_max_samples=1000,
            views_per_test_instance=2, grid_resolution=32, gt_surface_samples=3000,
        ))
        bench.generate_dataset(tmp_path, ["laptop", "mug", "jar"], 0, 1, 0, cfg)
        decoder_cfg = cfg.decoder_config(0, epochs=cfg.infer_steps)
        codes: list[np.ndarray] = []

        def recorded(infer):
            def run(params, observation, cfg, init=None):
                codes.append(infer(params, observation, cfg, init=init))
                return codes[-1]
            return run

        def float64_loop(params, observation, cfg, init=None):
            return frozen_split_inference(params, observation, cfg, init, dtype=np.float64)

        for inst_dir in sorted(tmp_path.glob("*/test/000")):
            mesh = load_obj(inst_dir / "mesh.obj")
            gt = voxel_downsample(
                bench._ground_truth_cloud(mesh, bench._load_meta(inst_dir), cfg),
                bench._EVAL_DOWNSAMPLE_VOXEL,
            )
            for view in range(cfg.views_per_test_instance):
                observed, cam = bench.load_view(inst_dir, view)
                clouds, d_c = [], []
                for infer in (infer_latent, float64_loop):
                    monkeypatch.setattr(autodecoder, "infer_latent", recorded(infer))
                    clouds.append(
                        bench._infer_and_decode(observed, cam, cfg, params, decoder_cfg)
                    )
                    pred = voxel_downsample(clouds[-1], bench._EVAL_DOWNSAMPLE_VOXEL)
                    d_c.append(chamfer_hausdorff(pred, gt)[0])
                # coarse then fine code, float32 then float64
                z32, z64 = codes[-3], codes[-1]
                assert np.linalg.norm(z32 - z64) <= 1e-6 * np.linalg.norm(z64)
                assert len(clouds[0]) == len(clouds[1]) > 0
                assert np.max(np.abs(clouds[0].points - clouds[1].points)) <= 1e-6
                assert abs(d_c[0] - d_c[1]) <= 1e-6 * d_c[1]
        assert len(codes) == 2 * 2 * 6


def train_workload_samples() -> list[SdfSamples]:
    """The SDF samples of the benchmark's ``train`` workload at seed 0,
    built in memory: one laptop, mug and jar, 1000 samples each."""
    cfg = load_config(overrides=dict(sdf_total_count=1000))
    samples = []
    for category in ("laptop", "mug", "jar"):
        entropy = bench._instance_entropy(0, category, "train", 0)
        _, mesh, _, _ = bench._build_instance(entropy)
        seed = int(bench._rng_for(entropy, bench._SEED_SDF).integers(0, 2**63 - 1))
        samples.append(sample_training_set(mesh, cfg.sampling_config(seed)))
    return samples


class TestFloat32Training:
    @pytest.fixture(scope="class")
    def samples(self):
        return train_workload_samples()

    def test_tracks_the_float64_kernel_on_the_train_workload(self, samples, monkeypatch):
        # the benchmark's decoder settings, 20 epochs; measured: weights
        # 9.8e-10 and codes 2.7e-8 relative in norm, losses 5.5e-8
        # relative at worst
        cfg = load_config().decoder_config(0, epochs=20)
        result = train_autodecoder(samples, cfg)
        with monkeypatch.context() as patch:
            float64_steps(patch)
            ref = train_autodecoder(samples, cfg)
        got = np.concatenate([t.ravel() for t in result.params.weights + result.params.biases])
        want = np.concatenate([t.ravel() for t in ref.params.weights + ref.params.biases])
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        got_codes, want_codes = np.array(result.codes), np.array(ref.codes)
        assert np.linalg.norm(got_codes - want_codes) <= 3e-7 * np.linalg.norm(want_codes)
        np.testing.assert_allclose(result.epoch_losses, ref.epoch_losses, rtol=5e-7, atol=0.0)
        assert all(t.dtype == np.float64 for t in result.params.weights + result.params.biases)

    def test_training_steps_in_float32(self, samples, monkeypatch):
        kernel = autodecoder._batch_loss_gradients
        seen = []

        def recorded(params, codes, points, target, obj, cfg, layers):
            seen.append((codes.dtype, points.dtype, target.dtype, layers.dtype))
            return kernel(params, codes, points, target, obj, cfg, layers)

        monkeypatch.setattr(autodecoder, "_batch_loss_gradients", recorded)
        train_autodecoder(samples[:1], tiny_config(epochs=2, batch_size=400))
        assert seen == [(np.float64, np.float32, np.float32, np.float32)] * 6


def scaled_decoder(seed: int, factor: float) -> DecoderParams:
    """A product-size decoder whose weights are scaled by ``factor``."""
    params = init_decoder(TrainConfig(latent_dim=16, hidden=(64, 64, 64), seed=seed))
    return DecoderParams(16, tuple(w * factor for w in params.weights), params.biases)


def spread_decoder() -> DecoderParams:
    """A product-size decoder whose output spans well beyond the
    extraction band, so the screen drops most grid points."""
    params, _ = product_decoder()
    return DecoderParams(16, (*params.weights[:-1], params.weights[-1] * 20.0), params.biases)


def unscreened(params, z, res) -> np.ndarray:
    return extract_surface_points(
        lambda p: decoder_forward(params, z, p),
        res,
        gradient_fn=lambda p: decoder_gradient(params, z, p),
    )


def forward_rows(monkeypatch, dtype=np.float64) -> list[np.ndarray]:
    """The points of every ``_FixedCode.forward`` block in ``dtype``
    from now on, padding included."""
    rows = []
    forward = _FixedCode.forward

    def counted(fixed, points, code_rows):
        if fixed.dtype == dtype:
            rows.append(points.copy())
        return forward(fixed, points, code_rows)

    monkeypatch.setattr(_FixedCode, "forward", counted)
    return rows


class TestScreen:
    def test_float32_tanh_within_assumed_error(self):
        # every float32 in +-[2**-12, 16): below, tanh(x) rounds to x or
        # its neighbour; above, to 1
        bits = np.float32([2.0**-12, 16.0]).view(np.uint32)
        worst = 0.0
        for s in range(int(bits[0]), int(bits[1]), 1 << 22):
            x = np.arange(s, min(int(bits[1]), s + (1 << 22)), dtype=np.uint32).view(np.float32)
            for sx in (x, -x):
                exact = np.tanh(sx.astype(np.float64))
                err = np.abs(np.tanh(sx).astype(np.float64) - exact) / np.abs(exact)
                worst = max(worst, float(err.max()))
        assert worst <= _TANH_ERR[np.float32]
        # a stride through the rest of the finite float32 range
        rest = np.arange(0, 0x7F800000, 4099, dtype=np.uint32).view(np.float32)
        rest = rest[(rest < 2.0**-12) | (rest >= 16.0)]
        exact = np.tanh(rest.astype(np.float64))
        err = np.abs(np.tanh(rest).astype(np.float64) - exact)
        assert np.all(err <= _TANH_ERR[np.float32] * np.abs(exact))

    def test_float64_tanh_within_assumed_error(self, rng):
        x = rng.uniform(-20.0, 20.0, size=20_000)
        exact = np.array([math.tanh(v) for v in x])
        assert np.all(np.abs(np.tanh(x) - exact) <= _TANH_ERR[np.float64] * np.abs(exact))

    def test_float32_arctanh_within_assumed_error(self):
        # every float32 in [2**-12, 1): the range pass takes arctanh of
        # sqrt(1 - s) for a float32 s in [0, 1], which is 0 or at least
        # sqrt(2**-24); arctanh is odd, so the negative inputs match
        bits = np.float32([2.0**-12, 1.0]).view(np.uint32)
        worst = 0.0
        for s in range(int(bits[0]), int(bits[1]), 1 << 22):
            x = np.arange(s, min(int(bits[1]), s + (1 << 22)), dtype=np.uint32).view(np.float32)
            exact = np.arctanh(x.astype(np.float64))
            worst = max(worst, float(np.max(np.abs(np.arctanh(x) - exact) / exact)))
        assert worst <= _TANH_ERR[np.float32]
        assert np.arctanh(np.float32(0.0)) == 0.0

    def test_float64_arctanh_within_assumed_error(self, rng):
        # against 40-digit decimal logarithms, over (0, 1) and down to 2**-27
        x = np.concatenate([rng.uniform(0.0, 1.0, size=2_000),
                            2.0 ** rng.uniform(-27.0, 0.0, size=2_000)])
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            exact = np.array([float(((1 + decimal.Decimal(v)) / (1 - decimal.Decimal(v))).ln() / 2)
                              for v in x])
        assert np.all(np.abs(np.arctanh(x) - exact) <= _TANH_ERR[np.float64] * exact)

    @pytest.mark.parametrize("factor", [1.0, 10.0, 100.0])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_margin_bounds_the_float32_distance(self, factor, seed, rng):
        params = scaled_decoder(seed, factor)
        for z in (np.zeros(16), rng.normal(0.0, 0.1, size=16)):
            _, rough = evaluate_on_grid(_screen_field(params, z), 32)
            _, exact = evaluate_on_grid(lambda p: decoder_forward(params, z, p), 32)
            assert np.all(np.abs(rough - exact) <= _screen_margin(params, z))

    def test_margin_is_far_inside_the_band(self):
        params, z = product_decoder()
        assert 0.0 < _screen_margin(params, z) < 0.1 * default_iso_epsilon(64)

    def test_margin_beyond_the_band_keeps_every_point(self, monkeypatch):
        params = scaled_decoder(0, 1e4)
        z = np.zeros(16)
        assert _screen_margin(params, z) > 2.0 * GRID_RADIUS
        rows = forward_rows(monkeypatch)
        cloud = reconstruct(params, z, grid_resolution=16)
        monkeypatch.undo()
        assert sum(len(r) for r in rows) == 16**3
        assert np.array_equal(cloud.points, unscreened(params, z, 16))

    def test_screen_passes_band_and_non_finite_points(self, monkeypatch):
        # a NaN or inf screen value keeps its point; the float64 pass sees
        # the band and the non-finite points only, in grid order, padded
        # with zero rows to a whole row group, and the cloud is unchanged
        params = spread_decoder()
        _, z = product_decoder()
        screen = autodecoder._screen_field

        def poisoned(params, z):
            field = screen(params, z)

            def rough(p):
                out = field(p)
                out[::7] = np.nan
                out[3::11] = np.inf
                return out

            return rough

        monkeypatch.setattr(autodecoder, "_screen_field", poisoned)
        rows = forward_rows(monkeypatch)
        cloud = reconstruct(params, z, grid_resolution=32)
        monkeypatch.undo()
        grid, clean = evaluate_on_grid(_screen_field(params, z), 32)
        _, values = evaluate_on_grid(poisoned(params, z), 32)
        limit = default_iso_epsilon(32) + _screen_margin(params, z)
        kept = ~np.isfinite(values) | (np.abs(values) <= limit)
        # poisoned points the clean screen would drop
        assert np.any(~np.isfinite(values) & (np.abs(clean) > limit))
        assert kept.sum() < 0.6 * len(grid)
        seen = np.concatenate(rows)
        k = int(kept.sum())
        assert len(seen) == -(-k // _ROW_ALIGN) * _ROW_ALIGN
        assert np.array_equal(seen[:k], grid[kept]) and not np.any(seen[k:])
        assert np.array_equal(cloud.points, unscreened(params, z, 32))

    @pytest.mark.parametrize("res", [16, 32, 64])
    def test_kept_values_equal_the_whole_grid_pass(self, res):
        params = spread_decoder()
        _, z = product_decoder()
        pts, exact = evaluate_on_grid(lambda p: decoder_forward(params, z, p), res)
        _, rough = evaluate_on_grid(_screen_field(params, z), res)
        kept = np.abs(rough) <= default_iso_epsilon(res) + _screen_margin(params, z)
        assert 0 < kept.sum() < 0.5 * len(pts)
        values = _FixedCode(params, z).evaluate(pts[kept])[0]
        assert np.array_equal(values, exact[kept])

    @pytest.mark.parametrize("res", [33, 64])
    def test_one_float64_forward_per_kept_point(self, res, monkeypatch):
        # at most the kept rows and their padding to a whole row group
        params, z = product_decoder()
        rows = forward_rows(monkeypatch)
        cloud = reconstruct(params, z, grid_resolution=res)
        monkeypatch.undo()
        _, rough = evaluate_on_grid(_screen_field(params, z), res)
        kept = int(np.sum(
            ~np.isfinite(rough)
            | (np.abs(rough) <= default_iso_epsilon(res) + _screen_margin(params, z))
        ))
        assert 0 < len(cloud) <= kept < res**3 // 2
        assert sum(len(r) for r in rows) <= kept + _ROW_ALIGN - 1

    @pytest.mark.parametrize("res", [32, 64])
    def test_field_beyond_the_band_decodes_to_no_points(self, res, monkeypatch):
        # the fixture decoder lifted by 5 never reaches the band, so no
        # row reaches the float64 pass; at grid 64 the range pass drops
        # every box, and none reaches the screen either
        params, _ = load_decoder(FIXTURE_DECODER)
        biases = (*params.biases[:-1], params.biases[-1] + 5.0)
        params = DecoderParams(params.latent_dim, params.weights, biases)
        z = np.zeros(16)
        screened = forward_rows(monkeypatch, np.float32)
        rows = forward_rows(monkeypatch)
        cloud = reconstruct(params, z, grid_resolution=res)
        monkeypatch.undo()
        assert cloud.points.shape == (0, 3) and cloud.points.dtype == np.float64
        assert sum(len(r) for r in rows) == 0
        assert sum(len(r) for r in screened) == (0 if res == 64 else res**3)
        assert unscreened(params, z, res).shape == (0, 3)

    @pytest.mark.parametrize("res", [5, 7, 9, 16, 32, 33, 64, 65, 80])
    def test_reconstruct_equals_the_unscreened_pass(self, res, rng):
        spread = spread_decoder()
        product, code = product_decoder()
        cases = [(product, np.zeros(16)), (product, code), (spread, np.zeros(16)),
                 (spread, code), (spread, rng.normal(0.0, 0.3, size=16))]
        # past grid 64, one case per decoder keeps the test quick
        for params, z in cases if res <= 64 else cases[1::3]:
            cloud = reconstruct(params, z, grid_resolution=res)
            assert np.array_equal(cloud.points, unscreened(params, z, res))


def box_samples(lo, hi, rng, interior: int) -> np.ndarray:
    """Each box's eight corners and ``interior`` uniform points inside
    it, (B, 8 + interior, 3)."""
    bits = np.array(list(itertools.product((0, 1), repeat=3)), dtype=bool)
    corners = np.where(bits[None], hi[:, None], lo[:, None])
    inner = lo[:, None] + (hi - lo)[:, None] * rng.random((len(lo), interior, 3))
    return np.concatenate([corners, inner], axis=1)


def faulty_decoder(fault: str) -> DecoderParams:
    """The product decoder with one fault the range pass must survive."""
    params, _ = product_decoder()
    weights, biases = list(params.weights), list(params.biases)
    if fault == "nan_bias":
        biases[2] = biases[2].copy()
        biases[2][5] = np.nan
    elif fault == "huge_weight":
        weights[1] = weights[1].copy()
        weights[1][3, 7] *= 1e300
    else:
        # a row whose sum of magnitudes overflows
        weights[1] = weights[1].copy()
        weights[1][3] = 1e308
    return DecoderParams(16, tuple(weights), tuple(biases))


def outcome(run):
    """A call's points, or its error's type and message."""
    try:
        with np.errstate(all="ignore"):
            return run()
    except Exception as err:  # compared with the other call, not handled
        return type(err), str(err)


class TestRangePass:
    @pytest.mark.parametrize("which", ["product", "spread", "x10", "x100"])
    def test_sampled_values_lie_in_the_range(self, which, rng):
        params = {
            "product": product_decoder()[0],
            "spread": spread_decoder(),
            "x10": scaled_decoder(0, 10.0),
            "x100": scaled_decoder(1, 100.0),
        }[which]
        for dtype, z in itertools.product(
            (np.float32, np.float64), (np.zeros(16), rng.normal(0.0, 0.1, size=16))
        ):
            lo = rng.uniform(-GRID_RADIUS, GRID_RADIUS, size=(200, 3))
            hi = np.minimum(lo + rng.uniform(0.0, 0.4, size=(200, 3)), GRID_RADIUS)
            # points and segments among the boxes
            hi[:10] = lo[:10]
            hi[10:20, :2] = lo[10:20, :2]
            low, high = _box_ranges(params, z, lo, hi, dtype)
            assert np.all(np.isfinite(low)) and np.all(low <= high)
            pts = box_samples(lo, hi, rng, 24)
            values = decoder_forward(params, z, pts.reshape(-1, 3)).reshape(len(lo), -1)
            assert np.all(low[:, None] <= values) and np.all(values <= high[:, None])

    @pytest.mark.parametrize("step", ["tanh", "linear"])
    def test_each_step_encloses_its_exact_values(self, step, rng):
        # forms of 40 boxes over 8 units, in each dtype; every sampled
        # point of a box (one noise value per axis, one radius draw per
        # unit) must map into the step's output form at the same noise
        # values.  The exact values are float64 on the forms as given,
        # and a linear step's are those of the float64 weights it rounds.
        # The first ten forms are points, where only the step's rounding
        # allowance covers its rounding
        boxes, units = 40, 8
        for dtype in (np.float32, np.float64):
            aff = np.empty((4, boxes, units), dtype)
            aff[0] = rng.uniform(-3.0, 3.0, size=(boxes, units))
            aff[1:] = rng.uniform(-0.4, 0.4, size=(3, boxes, units))
            radius = rng.uniform(0.0, 0.05, size=(boxes, units)).astype(dtype)
            aff[1:, :10] = 0.0
            radius[:10] = 0.0
            w, b = rng.normal(size=(6, units)), rng.normal(size=6)
            e = rng.uniform(-1.0, 1.0, size=(500, 1, 3))
            e[:8] = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))[:, None]
            x = aff[0] + np.einsum("sbk,kbn->sbn", e, aff[1:].astype(np.float64))
            x += radius * rng.uniform(-1.0, 1.0, size=(500, boxes, units))
            work = [np.empty((boxes, units), dtype) for _ in range(12)]
            if step == "tanh":
                exact = np.tanh(x)
                # a point form's slope can reach 0, whose x* is infinite
                with np.errstate(divide="ignore"):
                    _affine_tanh(aff, radius, work)
                out, r = aff, radius
            else:
                exact = x @ w.T + b
                out, r = np.empty((4, boxes, 6), dtype), np.empty((boxes, 6), dtype)
                _affine_linear(w.astype(dtype), b.astype(dtype), aff, radius, out, r, work)
            centre = out[0] + np.einsum("sbk,kbn->sbn", e, out[1:].astype(np.float64))
            assert np.all(np.abs(exact - centre) <= r)

    def test_screen_visits_under_two_fifths_of_the_grid(self, monkeypatch):
        params, z = product_decoder()
        rows = {np.float32: 0, np.float64: 0}
        forward = _FixedCode.forward

        def counted(fixed, points, code_rows):
            rows[fixed.dtype] += len(points)
            return forward(fixed, points, code_rows)

        monkeypatch.setattr(_FixedCode, "forward", counted)
        reconstruct(params, z, grid_resolution=64)
        assert 0 < rows[np.float64] < rows[np.float32] <= 0.4 * 64**3

    @pytest.mark.parametrize("res,runs", [(32, 0), (63, 0), (64, 1)])
    def test_runs_from_grid_64(self, res, runs, monkeypatch):
        # at grid 64, one float32 pass over every box, then one float64
        # pass over exactly the boxes it keeps within the allowance of
        # the threshold; below grid 64, no pass
        calls = []
        box_ranges = autodecoder._box_ranges

        def counted(params, z, lo, hi, dtype):
            bounds = box_ranges(params, z, lo, hi, dtype)
            calls.append((dtype, lo, bounds))
            return bounds

        monkeypatch.setattr(autodecoder, "_box_ranges", counted)
        params, z = product_decoder()
        reconstruct(params, z, grid_resolution=res)
        if not runs:
            assert calls == []
            return
        (first, lo, (low, high)), (second, near_lo, _) = calls
        assert (first, len(lo), second) == (np.float32, _RANGE_BOXES**3, np.float64)
        threshold = np.nextafter(
            default_iso_epsilon(64) + _screen_margin(params, z), np.inf
        )
        slack = _range_allowance(params, z, np.float32)
        near = ~_beyond(low, high, threshold) & (
            (low > threshold - slack) | (high < slack - threshold)
        )
        assert 0 < near.sum() < 0.1 * len(lo)
        assert np.array_equal(near_lo, lo[near])

    def test_boxes_with_non_finite_bounds_are_kept(self, monkeypatch):
        # every box lies beyond the threshold in float32 but the first
        # eight: four with bounds that are not finite, four just inside
        # it.  The float64 pass sees those eight; a box it finds beyond
        # the threshold is dropped, one with a bound that is not finite
        # or inside the threshold is kept
        boxes = _RANGE_BOXES**3
        low32, high32 = np.full(boxes, 5.0), np.full(boxes, 6.0)
        low32[:8] = [np.inf, -np.inf, 5.0, np.nan, 1.0, 1.0, 1.0, 1.0]
        high32[:8] = [np.inf, -np.inf, np.inf, np.nan, 6.0, 6.0, 6.0, 6.0]
        low64 = np.array([5.0, np.nan, 5.0, -6.0, np.inf, 5.0, 1.0, -np.inf])
        high64 = np.array([6.0, np.nan, np.inf, -5.0, np.inf, 6.0, 6.0, -5.0])
        seen = []

        def stub(params, z, lo, hi, dtype):
            seen.append((dtype, lo.copy()))
            return (low32, high32) if dtype == np.float32 else (low64, high64)

        monkeypatch.setattr(autodecoder, "_box_ranges", stub)
        params, z = product_decoder()
        live = _live_grid_points(params, z, 64, 1.0).reshape(64, 64, 64)
        assert [dtype for dtype, _ in seen] == [np.float32, np.float64]
        assert np.array_equal(seen[1][1], seen[0][1][:8])
        expect = np.zeros((64, 64, 64), dtype=bool)
        for box in (1, 2, 4, 6, 7):
            expect[:4, :4, 4 * box:4 * box + 4] = True
        assert np.array_equal(live, expect)

    @pytest.mark.parametrize("code", ["zero", "training"])
    def test_trained_decoder_drops_no_band_point(self, code):
        # the benchmark's decoder at grid 64: every point the mask drops
        # lies outside the band, and the mask is the float64 pass's alone
        params, codes = load_decoder(FIXTURE_DECODER)
        z = np.zeros(16) if code == "zero" else codes[11]
        iso_epsilon = default_iso_epsilon(64)
        threshold = np.nextafter(iso_epsilon + _screen_margin(params, z), np.inf)
        live = _live_grid_points(params, z, 64, threshold)
        assert 0.2 < live.mean() < 0.5
        pts, _ = evaluate_on_grid(lambda p: np.zeros(len(p)), 64)
        assert np.all(np.abs(decoder_forward(params, z, pts[~live])) > iso_epsilon)
        axis = grid_axis(64)
        first, last = axis[0::4], axis[3::4]
        corners = [np.stack(np.meshgrid(c, c, c, indexing="ij"), axis=-1).reshape(-1, 3)
                   for c in (first, last)]
        dropped = _beyond(*_box_ranges(params, z, *corners, np.float64), threshold)
        assert np.array_equal(live.reshape(64, 64, 64)[::4, ::4, ::4].ravel(), ~dropped)

    @pytest.mark.parametrize("fault", ["nan_bias", "huge_weight", "overflow"])
    def test_faulty_decoders_match_the_unscreened_pass(self, fault):
        params = faulty_decoder(fault)
        _, z = product_decoder()
        if fault != "huge_weight":
            corners = np.full((1, 3), -GRID_RADIUS), np.full((1, 3), GRID_RADIUS)
            for dtype in (np.float32, np.float64):
                bounds = outcome(lambda: _box_ranges(params, z, *corners, dtype))
                assert not np.isfinite(bounds[0][0])
        got = outcome(lambda: reconstruct(params, z, grid_resolution=64).points)
        want = outcome(lambda: unscreened(params, z, 64))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert np.array_equal(got, want)


class TestViewSamples:
    def test_structure_of_view_supervision(self, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        obs = view_samples_for_inference(image, front_camera, max_count=10**9)
        n_surface = image.valid_count()
        # surface points carry zeros, free-space points positive values
        assert np.array_equal(obs.sdf[:n_surface], np.zeros(n_surface))
        free = obs.sdf[n_surface:]
        assert free.size > 0
        assert np.all(free > 0.0)
        assert np.all(free <= 0.1 + 1e-12)
        # free values are ray-marched multiples of the spacing
        multiples = np.round(free / 0.05) * 0.05
        capped = np.isclose(free, 0.1)
        assert np.all(capped | np.isclose(free, multiples, atol=1e-9))
        # everything stays inside the sampling ball
        assert np.all(np.linalg.norm(obs.points, axis=1) <= 1.1 + 1e-9)

    def test_free_space_points_are_outside_the_mesh(self, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        obs = view_samples_for_inference(image, front_camera, max_count=10**9)
        n_surface = image.valid_count()
        free_pts = obs.points[n_surface:][::37]
        assert np.all(signed_distances(free_pts, unit_sphere) >= -1e-9)

    def test_step_numbers_equal_the_per_ray_loop(self, rng):
        cases = [rng.integers(0, 9, size=500), np.array([0, 3, 0, 0, 1, 0]), np.array([7])]
        for steps in cases:
            loop = np.concatenate([np.arange(1, s + 1) for s in steps if s > 0])
            assert np.array_equal(_step_numbers(steps), loop)

    def test_thinning_is_deterministic(self, unit_sphere, front_camera):
        image = render_depth(unit_sphere, front_camera)
        a = view_samples_for_inference(image, front_camera, max_count=500)
        b = view_samples_for_inference(image, front_camera, max_count=500)
        assert len(a) == 500
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.sdf, b.sdf)

    def test_empty_view_rejected(self, front_camera):
        from reconbench.depth import DepthImage

        with pytest.raises(InvalidInputError):
            view_samples_for_inference(DepthImage(np.zeros((64, 64))), front_camera)


class TestPersistence:
    def test_round_trip_with_codes(self, tmp_path, rng):
        cfg = tiny_config(seed=5)
        params = init_decoder(cfg)
        codes = [rng.normal(size=4), rng.normal(size=4)]
        path = tmp_path / "decoder.rbsd"
        save_decoder(path, params, codes)
        loaded, loaded_codes = load_decoder(path)
        assert loaded.latent_dim == 4
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))
        assert all(np.array_equal(a, b) for a, b in zip(loaded.biases, params.biases))
        assert all(np.array_equal(a, b) for a, b in zip(loaded_codes, codes))

    def test_round_trip_without_codes(self, tmp_path):
        cfg = tiny_config()
        params = init_decoder(cfg)
        path = tmp_path / "weights.rbsd"
        save_decoder(path, params)
        loaded, codes = load_decoder(path)
        assert codes is None
        assert all(np.array_equal(a, b) for a, b in zip(loaded.weights, params.weights))

    def test_wrong_container_magic_rejected(self, tmp_path):
        from reconbench.fileio import MIRROR_MAGIC, save_tensors

        path = tmp_path / "wrong.bin"
        save_tensors(path, MIRROR_MAGIC, {"layer0.weight": np.zeros((1, 7))})
        with pytest.raises(InvalidInputError):
            load_decoder(path)
