#!/usr/bin/env python3
"""Render a depth image, lift it to a point cloud, and splat it back.

Walks the geometry stack end to end on a unit sphere: every valid pixel
should land on the surface, and re-projecting the cloud into the same
camera should reproduce the image exactly.
"""
import argparse
from pathlib import Path

import numpy as np

from reconbench.depth import back_project, render_depth, splat_cloud
from reconbench.fileio import save_pfm
from reconbench.geometry import camera_looking_at
from reconbench.shapes import icosphere


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("demo_out"))
    parser.add_argument("--size", type=int, default=96, help="image side in pixels")
    args = parser.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    mesh = icosphere(4)
    cam = camera_looking_at((0.0, 0.6, 1.9), (0.0, 0.0, 0.0), args.size, args.size, 60.0)
    image = render_depth(mesh, cam)
    print(f"rendered {image.width}x{image.height}, {image.valid_count()} pixels hit")
    print(f"depth range on hits: [{image.depth[image.valid_mask].min():.4f}, "
          f"{image.depth[image.valid_mask].max():.4f}]")

    cloud = back_project(image, cam)
    radial = np.linalg.norm(cloud.points, axis=1)
    print(f"back-projected {len(cloud)} points, |p| in [{radial.min():.6f}, {radial.max():.6f}]")
    print(f"worst distance from the unit sphere: {np.abs(radial - 1.0).max():.2e}")

    again = splat_cloud(cloud, cam)
    gap = np.abs(again.depth - image.depth).max()
    print(f"splat of the cloud reproduces the image within {gap:.2e}")

    save_pfm(args.out / "sphere_depth.pfm", image.depth)
    print(f"wrote {args.out / 'sphere_depth.pfm'}")


if __name__ == "__main__":
    main()
