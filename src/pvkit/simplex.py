"""Exact phase-1 simplex: a feasible point or a Farkas certificate.

:func:`phase_one` decides whether ``A x = b, x >= 0`` has a solution, for
``b >= 0``, by minimizing the sum of one artificial variable per row.
Every pivot is carried out in ``fractions.Fraction`` arithmetic, so the
verdict is exact -- there is no feasibility tolerance to tune.  Bland's
rule (lowest eligible index for both the entering column and the leaving
basic variable) makes the run deterministic and cycle-free.

The reduced costs are a row of the tableau, kept current by every pivot.
At the optimum they are ``c - y [A | I]`` for the phase-1 costs ``c``, so
the artificial block gives the duals: ``y_i = 1 - z_{n+i}``.  When the
optimum is positive those duals satisfy ``y A <= 0 < y b`` (reduced costs
nonnegative, objective ``y b`` positive), which proves that no solution
exists.
"""
from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

_ZERO = Fraction(0)
_ONE = Fraction(1)
_PIVOT_CAP = 20000


class PhaseOne(NamedTuple):
    """``x`` solves ``A x = b, x >= 0`` when ``feasible``; otherwise ``y``
    satisfies ``y A <= 0 < y b``."""

    feasible: bool
    x: list[Fraction]
    y: list[Fraction]


def phase_one(A, b) -> PhaseOne:
    """Exact feasibility of ``A x = b, x >= 0``; requires b >= 0 rowwise."""
    m, n = len(A), len(A[0])
    if any(bi < 0 for bi in b):
        raise ValueError("phase_one expects b >= 0 (flip rows beforehand)")
    T = [
        [Fraction(v) for v in A[i]]
        + [_ONE if k == i else _ZERO for k in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    # reduced costs of min sum(artificials) in the artificial basis, and
    # minus the objective in the last column
    z = [-sum(col) for col in zip(*T)]
    z[n:n + m] = [_ZERO] * m
    T.append(z)
    basis = [n + i for i in range(m)]
    for _ in range(_PIVOT_CAP):
        col = next((j for j, r in enumerate(z[:-1]) if r < 0), None)
        if col is None:
            break
        # the phase-1 objective is bounded below by 0, so some entry is positive
        _, _, row = min((T[r][-1] / T[r][col], basis[r], r)
                        for r in range(m) if T[r][col] > 0)
        piv = T[row][col]
        T[row] = [v / piv for v in T[row]]
        for r in range(m + 1):
            factor = T[r][col]
            if r != row and factor != 0:
                T[r] = [a - factor * p for a, p in zip(T[r], T[row])]
        z = T[m]
        basis[row] = col
    else:
        raise RuntimeError("simplex did not terminate within the pivot cap")
    if z[-1] < 0:
        return PhaseOne(False, [], [_ONE - zi for zi in z[n:n + m]])
    x = [_ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[r][-1]
    return PhaseOne(True, x, [])
