#!/usr/bin/env python3
"""Fit a tiny latent-code decoder on spheres and reconstruct a new one.

A three-shape training run is enough to show the whole loop: shared
decoder weights plus one code per shape, then code-only optimization
against a single depth view of a radius the decoder never saw, then
surface extraction from the decoded field.

The inference runs twice on purpose. The first pass uses a wide
clamping band so the code receives gradients even while the decoded
field is still far from the observations; the second pass refines with
the narrow training band, warm-started from the first.
"""
import time

import numpy as np

from reconbench.autodecoder import (
    TrainConfig,
    infer_latent,
    reconstruct,
    train_autodecoder,
    view_samples_for_inference,
)
from reconbench.depth import render_depth
from reconbench.geometry import PointCloud, camera_looking_at
from reconbench.metrics import chamfer_hausdorff
from reconbench.sdf import SamplingConfig, sample_training_set
from reconbench.shapes import icosphere

TRAIN_RADII = np.linspace(0.3, 0.9, 10)
HELD_OUT = 0.7


def main() -> None:
    start = time.perf_counter()
    samples = [
        sample_training_set(icosphere(3, float(r)), SamplingConfig(total_count=4000, seed=10 + i))
        for i, r in enumerate(TRAIN_RADII)
    ]
    cfg = TrainConfig(latent_dim=4, hidden=(32, 32), epochs=400, batch_size=256,
                      momentum=0.9, seed=0)
    result = train_autodecoder(samples, cfg)
    print(f"trained on 10 radii in [0.3, 0.9] in {time.perf_counter() - start:.1f}s, "
          f"loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f}")
    for r, z in zip(TRAIN_RADII[::3], result.codes[::3]):
        print(f"  radius {r:.1f}: code {np.array2string(z, precision=3)}")

    cam = camera_looking_at((0.0, 1.4, 1.4), (0.0, 0.0, 0.0), 64, 64, 60.0)
    view = render_depth(icosphere(4, HELD_OUT), cam)
    wide = view_samples_for_inference(view, cam, value_cap=0.5, seed=0)
    narrow = view_samples_for_inference(view, cam, value_cap=0.1, seed=0)

    def stage(steps, delta):
        return TrainConfig(latent_dim=4, hidden=(32, 32), epochs=steps,
                           clamp_delta=delta, momentum=0.9, seed=0)

    z = infer_latent(result.params, wide, stage(150, 0.5))
    z = infer_latent(result.params, narrow, stage(300, 0.1), init=z)
    print(f"held-out radius {HELD_OUT}: inferred code {np.array2string(z, precision=3)}")

    start = time.perf_counter()
    cloud = reconstruct(result.params, z, grid_resolution=48)
    seconds = time.perf_counter() - start
    g = np.random.default_rng(0).normal(size=(5000, 3))
    truth = PointCloud.from_points(HELD_OUT * g / np.linalg.norm(g, axis=1)[:, None])
    d_c, _ = chamfer_hausdorff(cloud, truth)
    print(f"reconstructed {len(cloud)} points in {seconds:.2f}s, "
          f"chamfer to the true sphere {d_c:.4f}")


if __name__ == "__main__":
    main()
