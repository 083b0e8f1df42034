"""Machine-speed calibration: a fixed probe timed after every job of a pass.

The virtual machines this benchmark runs on change speed by a quarter or
more, in CPU time as well as in wall time, in phases of seconds and in
regimes of minutes (a co-tenant on the same physical core, say), so two sets
of runs of the same code can differ by more than any useful bound.  ``probe``
does a fixed amount of work, 7 to 9 ms, that resembles the package's own
mix and shares no code with it: a pure-Python loop, a loop of small-array
numpy calls (the optimizer's 16 x 16 grids) and a sort of a large array (the
Monte Carlo ranking).  Timed after every job, the probes sample the machine's
speed over the same seconds as the jobs; they slow down with the machine,
and not with the package.  A pass's times are reported scaled by
``factor``: seconds at the speed at which a probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

# Median probe time on the machine of the first baseline (perfbench/README.md).
REFERENCE_S = 0.007

_rng = np.random.default_rng(20150608)
_SMALL = _rng.random((16, 16)) + 0.5
_LARGE = _rng.random(100_000)


def probe() -> float:
    """Seconds the fixed calibration work takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(22_000):
        acc = (acc * 31 + i) % 1_000_003
    w = _SMALL
    for _ in range(100):
        w = np.exp(0.5 * np.log(w))
        w = w / w.sum(axis=1, keepdims=True) * 16.0
        np.cumsum(np.cumsum(w, axis=0), axis=1)
    np.argsort(_LARGE)
    return time.perf_counter() - t0


def factor(probe_s: list[float]) -> float:
    """Scale for times measured while these probe times were taken."""
    return REFERENCE_S * len(probe_s) / sum(probe_s)
