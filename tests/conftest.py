"""Shared fixtures plus the acceptance-criteria summary table."""
import re

import numpy as np
import pytest

from reconbench.geometry import TriangleMesh, camera_looking_at
from reconbench.shapes import box_mesh, icosphere

_CRITERION = re.compile(r"test_criterion_(\d+)")

_CRITERION_LABELS = {
    1: "distance metrics match the quadratic oracle",
    2: "hausdorff never falls below chamfer",
    3: "mesh signed distances track the analytic fields",
    4: "depth render and back-projection round trip",
    5: "mirrored-view oracle symmetry and pose involution",
    6: "analytic gradients match central finite differences",
    7: "single-view latent reconstruction of held-out spheres",
    8: "mirrored-depth completion accuracy",
    9: "voxel filter removes injected outliers, keeps the surface",
    10: "view completion at least 5x faster than grid decoding",
    11: "end-to-end command-line benchmark",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion that ran."""
    outcomes: dict[int, str] = {}
    for key in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(key, []):
            match = _CRITERION.search(getattr(report, "nodeid", ""))
            if match is None:
                continue
            num = int(match.group(1))
            if key == "passed":
                outcomes.setdefault(num, "PASS")
            else:
                outcomes[num] = "FAIL"
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(outcomes):
        label = _CRITERION_LABELS.get(num, "")
        terminalreporter.write_line(f"criterion {num:02d} {outcomes[num]} - {label}")


@pytest.fixture(scope="session")
def unit_sphere() -> TriangleMesh:
    return icosphere(subdivisions=3)


@pytest.fixture(scope="session")
def unit_box() -> TriangleMesh:
    # half extents 0.5: faces at +-0.5 on every axis
    return box_mesh((0.5, 0.5, 0.5))


@pytest.fixture
def front_camera():
    return camera_looking_at((0.0, 0.0, 2.0), (0.0, 0.0, 0.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240917)


def _random_rotation(rng: np.random.Generator) -> np.ndarray:
    """QR of a Gaussian matrix, column signs fixed so the result has
    det +1."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


@pytest.fixture(scope="session")
def random_rotation():
    """Draws a proper 3D rotation from a generator."""
    return _random_rotation
