"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts by up to 2x over
tens of seconds, as co-tenants come and go. Sampling this kernel through a
run, and scaling the gated times by ``NOMINAL_S / median(samples)``, cancels
that drift. Over 15 s windows it cut the spread of a toy training step's
median from 14% to 3.4%. The kernel is the bench's own code and never calls
hdlm, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

from spans import median

# Uncontended time of one sample on the machine the bench was written on
# (2-vCPU x86-64 VM with AVX-512, numpy 2.4.6, OpenBLAS 0.3.31, one thread).
NOMINAL_S = 0.0074


class Reference:
    """Samples of the reference kernel, grouped by the phase they fell in."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # one paper-scale matmul plus a loop of toy-scale ops
        self.a = rng.random((784, 512))
        self.b = rng.random((512, 512))
        self.x = rng.random((16, 96))
        self.w = rng.random((96, 96))
        self.samples: dict[str, list[float]] = {}

    def sample(self, phase: str) -> None:
        t0 = time.perf_counter()
        self.a @ self.b
        for _ in range(100):
            np.tanh(self.x @ self.w)
        self.samples.setdefault(phase, []).append(time.perf_counter() - t0)

    def factor(self, phase: str) -> float:
        """Scale that brings times measured in ``phase`` to nominal speed."""
        return NOMINAL_S / median(self.samples[phase])
