"""A fixed reference kernel that gauges how fast the host runs right now.

The reference machine is a shared host whose speed drifts by up to a
third within a minute, in every job alike.  The benchmark runs this kernel
between jobs and divides the workload's times by the kernel's, so the
drift cancels and a change in the program does not.  The kernel mixes
what the package spends its time on: small complex matvecs driven from a
Python loop, one d = 401 matvec in ten, and dictionary accumulation.  It
never imports tsense, so no change to the program moves it.

Import this module only after the BLAS thread settings are in place.
"""
from __future__ import annotations

import time

import numpy as np

# seconds the kernel takes at the reference speed: its median on the
# reference machine (2 vCPUs, Intel Xeon at 2.1 GHz) in a quiet spell.
# Times divided by the kernel's and multiplied by this read in seconds.
NOMINAL_S = 0.010

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_LARGE = _rng.standard_normal((401, 401)) + 1j * _rng.standard_normal((401, 401))
_V_SMALL = _rng.standard_normal(16) + 0j
_V_LARGE = _rng.standard_normal(401) + 0j
STEPS = 500


def kernel() -> float:
    """Seconds one run of the kernel takes."""
    t0 = time.perf_counter()
    small, large = _V_SMALL, _V_LARGE
    acc: dict[int, float] = {}
    for i in range(STEPS):
        small = _SMALL @ small
        small = small / np.linalg.norm(small)
        if i % 10 == 0:
            large = _LARGE @ large
            large = large / np.linalg.norm(large)
        key = i % 31
        acc[key] = acc.get(key, 0.0) + abs(small[i % 16]) ** 2 + abs(large[i % 401]) ** 2
    return time.perf_counter() - t0
