#!/usr/bin/env python3
"""Complete the unseen back side of an object from one depth view.

Two completions side by side. The oracle renders the mesh from the
virtual camera at the point reflection of the real one, which is the
upper bound any learned completion chases. The small conv net is
trained on a family of spheres and then asked about a radius it never
saw, from a viewpoint it never saw.

The oracle part runs on two sphere sizes to show a real limitation:
with a finite camera distance, the front view covers less than a
hemisphere and so does the mirrored view, so an equatorial band is
observed by neither. The band, and with it the worst-case error,
grows with the object's angular size.
"""
import time

import numpy as np

from reconbench.depth import render_depth
from reconbench.geometry import PointCloud, camera_looking_at
from reconbench.metrics import chamfer_hausdorff
from reconbench.mirror import (
    MirrorTrainConfig,
    make_training_pair,
    mirror_forward,
    mirror_pose,
    oracle_completion,
    reconstruct_view_dependent,
    splat_into_view,
    train_mirror_model,
)
from reconbench.shapes import icosphere


def main() -> None:
    for radius in (0.25, 0.8):
        mesh = icosphere(3, radius)
        cam = camera_looking_at((0.0, 1.3, 1.5), (0.0, 0.0, 0.0), 96, 96, 60.0)
        observed = render_depth(mesh, cam)
        start = time.perf_counter()
        fused = reconstruct_view_dependent(observed, cam, oracle_completion(mesh))
        seconds = time.perf_counter() - start
        truth = PointCloud.from_points(mesh.sample_surface(8000, np.random.default_rng(3)))
        distance = np.linalg.norm(cam.position)
        blind = np.degrees(np.pi - 2 * np.arccos(radius / distance))
        _, d_h = chamfer_hausdorff(fused, truth)
        print(f"oracle fusion, radius {radius}: {len(fused)} points in "
              f"{seconds * 1000:.0f} ms, hausdorff {d_h:.4f} "
              f"(unobserved band spans {blind:.0f} deg)")

    start = time.perf_counter()
    train_cam = camera_looking_at((0.0, 0.0, 4.0), (0.0, 0.0, 0.0), 32, 32, 30.0)
    pairs = [
        make_training_pair(icosphere(3, float(r)), train_cam)[0]
        for r in np.linspace(0.3, 0.9, 8)
    ]
    cfg = MirrorTrainConfig(channels=(8, 8, 1), learning_rate=0.005, epochs=2500,
                            momentum=0.9, lr_decay=0.9995, seed=1)
    result = train_mirror_model(pairs, cfg)
    print(f"trained completion net in {time.perf_counter() - start:.1f}s, "
          f"loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f}")

    held_out = icosphere(3, 0.66)
    # The net regresses absolute depth, so the eval camera must keep the
    # training distance; only the direction is new.
    eye = np.array([2.2, 2.8, 1.7])
    eye *= 4.0 / np.linalg.norm(eye)
    view_cam = camera_looking_at(eye, (0.0, 0.0, 0.0), 32, 32, 30.0)
    front = render_depth(held_out, view_cam)
    virtual = mirror_pose(view_cam, (0.0, 0.0, 0.0))
    splat, mask = splat_into_view(front, view_cam, virtual)
    target = render_depth(held_out, virtual)
    predicted = mirror_forward(result.params, splat.depth, mask.depth)
    err = np.abs(predicted - target.depth)[target.valid_mask]
    print(f"held-out radius 0.66: masked depth error mean {err.mean():.4f}, "
          f"worst {err.max():.4f}")


if __name__ == "__main__":
    main()
