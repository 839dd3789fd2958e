"""Host-speed calibration: a fixed probe timed between the measured calls.

The benchmark runs on shared hosts whose speed drifts by up to 50 % over
seconds to minutes, in CPU time as well as wall time.  A probe of fixed
work that does not touch dsmin is timed before and after every measured
call; each call's wall time is scaled by ``PROBE_NOMINAL_S`` over the
median probe time around it.  A scaled time reads as seconds on a host
running at the reference speed, so a change in dsmin moves it and a change
in the host's speed mostly does not.
"""

from __future__ import annotations

import gc
import math
import statistics
import time

import numpy as np

# Median probe time on the reference host (2-vCPU x86 VM, Python 3.11,
# numpy 2.4), measured while the host was quiet.  A constant: it only sets
# the unit of the scaled times.
PROBE_NOMINAL_S = 0.0040
# Probes on each side of a call whose median gives its local speed.
WINDOW = 2

_rng = np.random.default_rng(12345)
_A = _rng.random(48)
_B = _rng.random(48)
_M = _rng.random((8, 8)) + 8.0 * np.eye(8)
_KEYS = [frozenset(_rng.choice(48, 12, replace=False).tolist()) for _ in range(96)]


def _work(reps: int = 20) -> float:
    """A mix of what dsmin spends its time on: frozenset hashing and dict
    memo lookups, Python arithmetic and sorting, small numpy vector ops."""
    memo = {k: float(len(k)) for k in _KEYS}
    s = 0.0
    for rep in range(reps):
        for k in _KEYS:
            u = k | {rep}
            v = memo.get(u)
            if v is None:
                v = math.sqrt(sum(u))
                memo[u] = v
            s += v
        order = np.argsort(_A + rep)
        s += float(np.cumsum(_B[order])[-1])
        x = np.linalg.solve(_M, _B[:8])
        s += float(x @ x) + float(_A @ _B)
        s += sorted(range(48), key=lambda i: _A[i] * rep - _B[i])[0]
    return s


def probe() -> float:
    """Wall time of one probe, with the cyclic garbage collector paused so
    that a collection of the caller's heap is not charged to the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(walls: list[float], probes: list[float]) -> list[float]:
    """Scale each call's wall time to the reference speed.

    ``probes[i]`` ran just before call ``i`` and ``probes[i + 1]`` just
    after it; the call's local speed is the median of the probes within
    ``WINDOW`` calls of it.
    """
    assert len(probes) == len(walls) + 1
    return [w * PROBE_NOMINAL_S / statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 2])
            for i, w in enumerate(walls)]
