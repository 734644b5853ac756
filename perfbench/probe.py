"""Machine-speed probe and the clock that uses it.

The benchmark shares a few cores of a host with other tenants, and the
host's speed drifts by a fifth or more over spells of seconds to
minutes, longer than the gaps between the stages of a run.  Raw stage
times therefore move from run to run by more than any bound worth
setting.  The probe is a fixed ~50 ms workload of the kinds reconbench
runs (broadcast distance tables, small dense layers, an interpreted
loop) that calls no reconbench code, so a change to the program cannot
change it.  ``Clock`` runs it before and after every timed call and
scales the call's wall time by ``REFERENCE_S`` over the mean of the two
probe times: the result is the call's time at the reference machine's
speed, in seconds.  Raw wall times are reported beside it.
"""
from __future__ import annotations

import statistics
import time
from typing import Callable

import numpy as np

# median probe time on the reference machine: 2-core x86-64 VM, Intel
# Xeon at 2.1 GHz, CPython 3.11, numpy 2.4, one OpenBLAS thread
REFERENCE_S = 0.05


class SpeedProbe:
    """Times one pass of the fixed workload; inputs are built once."""

    def __init__(self, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.queries = rng.random((200, 3))
        self.points = rng.random((1500, 3))
        self.layers = [rng.standard_normal((64, 64)) * 0.1 for _ in range(3)]
        self.batch = rng.standard_normal((4096, 64))
        self()  # first-use costs stay out of every timed pass

    def _work(self) -> float:
        total = 0.0
        for _ in range(2):
            diff = self.queries[:, None, :] - self.points[None, :, :]
            total += float((diff * diff).sum(axis=-1).min(axis=1).sum())
        for _ in range(4):
            h = self.batch
            for w in self.layers:
                h = np.maximum(h @ w, 0.0)
            total += float(h[0, 0])
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        return total + acc

    def __call__(self) -> float:
        """Wall seconds of one pass."""
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start


class Clock:
    """Times calls in wall seconds and in reference seconds."""

    def __init__(self):
        self.probe = SpeedProbe()
        self.probes = [self.probe()]

    def measure(self, fn: Callable):
        """Call ``fn()``; return its result, its wall seconds and its
        seconds at the reference speed, from the probes either side."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        self.probes.append(self.probe())
        speed = REFERENCE_S / statistics.fmean(self.probes[-2:])
        return result, wall, wall * speed
