"""A fixed calibration kernel, timed between operations.

The cores the benchmark runs on are shared, and their speed drifts by tens of
percent within seconds.  The kernel mixes the kinds of work dupin does (a
pure-Python loop, small-matrix numpy calls, matrix exponentials through
scipy, vectorised einsums and string formatting) but calls no dupin code, so
a change to the program does not change it.  Its time, taken just before and
after an operation, measures how fast the machine ran at that moment.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg import expm

# About what calibrate() takes inside a workload process on a 2-core shared
# Intel Xeon host with numpy 2.4 and scipy 1.17.  It only sets the unit:
# rescaled times read as seconds on a core where the kernel takes this long.
REFERENCE_S = 0.060

_RNG = np.random.default_rng(12345)
_SMALL = _RNG.standard_normal((64, 4, 4)) * 0.3
_GRID = _RNG.standard_normal((48, 48, 5, 5))
_VEC = _RNG.standard_normal((48, 48, 5))
_ROWS = _RNG.standard_normal((400, 3))


def _kernel():
    acc = 0.0
    for i in range(6000):
        acc += (i % 7) * 0.5 - (i % 3)
    for M in _SMALL:
        E = expm(M)
        acc += float(np.linalg.norm(E @ M.T))
    for _ in range(4):
        W = np.einsum("ijab,ijbc,ijc->ija", _GRID, _GRID, _VEC)
        acc += float(np.abs(W).max())
    text = "".join("v %.17g %.17g %.17g\n" % tuple(r) for r in _ROWS)
    return acc + len(text)


def calibrate(repeat=8):
    """Seconds ``repeat`` runs of the kernel take now."""
    t0 = time.perf_counter()
    for _ in range(repeat):
        _kernel()
    return time.perf_counter() - t0
