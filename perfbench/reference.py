"""Fixed computations that measure how fast the machine runs right now.

The benchmark's machine is a share of a host whose other tenants change
its speed from one few-second spell to the next: the same pvkit operation
takes up to twice as long while they are busy, and a spell can outlast a
whole run.  So every timed operation is bracketed by runs of a reference
of the same kind of work, and its time is scaled by the reference's
nominal time over the mean time of the two reference runs around it,
which gives the operation's time at the machine's reference speed.

Two references: ``kernel`` for work inside one interpreter (interpreted
float arithmetic and calls, small numpy calls, ``Fraction`` arithmetic,
the kinds of work pvkit's operations are made of), which the timed loop in
``worker.py`` runs between operations whenever ``KERNEL_EVERY_S`` seconds
have passed since its last run; and ``start``, for the work that starts an
interpreter and imports pvkit: the ``cli`` calls (between them, likewise
with ``START_EVERY_S``) and the set-up samples (around each one).  Such
work both loads code, as a fresh interpreter that imports numpy does, and
interprets it, as the kernel does, and the host's tenants slow the two
differently (README.md), so ``start`` takes the geometric mean of the two.
Nothing here imports pvkit, so a change to pvkit moves the scaled times
and leaves the references alone.
"""
from __future__ import annotations

import math
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

# the references' times on this machine with the host quiet, about the
# least of many runs (README.md); scaled times are times at that speed
KERNEL_NOMINAL_S = 0.0008
IMPORT_NOMINAL_S = 0.1
START_NOMINAL_S = math.sqrt(KERNEL_NOMINAL_S * IMPORT_NOMINAL_S)
# the timed loop runs a reference when this long has passed since its last
# run: ``start`` costs about as much as a cli call, so it runs before every
# other call
KERNEL_EVERY_S = 0.02
START_EVERY_S = 0.5


def _horner(coeffs, t: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * t + c
    return acc


def kernel() -> float:
    coeffs = (0.25, -0.5, 1.0, 0.125)
    x = 0.0
    for k in range(500):
        x += _horner(coeffs, k * 1e-3) * math.exp(-k * 1e-3)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(60):
        a = np.polyval([1.0, -0.5, 0.25], a) * 0.5
    f = Fraction(0)
    for k in range(1, 120):
        f += Fraction(1, k)
    return x + float(a[0]) + float(f)


def timed_kernel() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def timed_start(env: dict | None = None) -> float:
    """Geometric mean of the wall times of a fresh interpreter that imports
    numpy and of one kernel run, in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True,
                   capture_output=True)
    return math.sqrt((time.perf_counter() - t0) * timed_kernel())
