"""The machine's current speed, from a fixed reference computation.

On a shared host the speed one process sees drifts by a third over
minutes, and it moves the program's times with it.  ``reference`` is a
fixed mix of the work the program's inner loops do: interpreter steps,
scalar math, and numpy calls on arrays of 8 to 64 elements.  It is the
benchmark's own code, so no change to the program changes it.  A job time
is scaled by ``NOMINAL_S`` over the reference's median time in the same
round of the run: it is in seconds at the speed at which the reference
takes ``NOMINAL_S``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# median time of one reference() on the machine the workloads were sized on
# (2-vCPU Intel Xeon at 2.1 GHz)
NOMINAL_S = 2.8e-3
STEPS = 150

_X = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
_K = np.arange(1.0, 10.0)
_M = np.eye(8) + 0.01


def reference() -> float:
    acc = 0.0
    v = np.ones(8)
    for i in range(STEPS):
        t = 0.01 * i
        acc += float(np.cos(_K * t) @ _K) + math.sin(t) + float(np.sum(np.sin(_X + t)))
        v = _M @ v
        v /= np.linalg.norm(v)
    return acc + float(v[0])


def sample() -> float:
    """Seconds of one reference() call."""
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scale(samples) -> float:
    """The factor that turns wall seconds into nominal seconds."""
    return NOMINAL_S / statistics.median(samples)
