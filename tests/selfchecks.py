"""Randomized self-checks of the no-arbitrage axioms, used as test oracles.

:func:`closure_probe` checks that the equal-value relation of an
arbitrage-free quote set is closed under combination, negation and
scaling; :func:`verify_na_positivity` checks that a two-weight pricing
rule is positive, linear and prices the unit payment at time 0 to 1.
Both are seeded, so a failure reproduces.  :func:`eager_echelon` is the
fraction-free elimination that rescales every row at every step, the
oracle for the checker's lazily scaled one.  :func:`solve_lp` is the
dense two-phase simplex over exact rationals that the checker once ran on
every quote set with a null space of two or more dimensions; it is the
independent oracle for the checker's verdicts and for its phase-1 solver.
The module is not collected (its name does not start with ``test_``); the
tests and ``scripts/counterexample_demo.py`` import it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from pvkit import (Arbitrage, CashFlow, DomainError, DualFunctional, QuoteSet, check,
                   dirac, dual_price)
from pvkit.measures import add, scale
from pvkit.sampling import random_cashflow


@dataclass(frozen=True)
class ClosureReport:
    trials: int
    combination_failures: int
    inversion_failures: int
    scaling_failures: int

    @property
    def ok(self) -> bool:
        return (
            self.combination_failures == 0
            and self.inversion_failures == 0
            and self.scaling_failures == 0
        )


def _implied_value(grid, prices, flow: CashFlow) -> float:
    table = dict(zip(grid, prices))
    return float(sum(a.amount * table[a.time] for a in flow.atoms))


def closure_probe(quote_set: QuoteSet, trials: int = 200,
                  seed: int = 0) -> ClosureReport:
    """Randomized consistency check of the equal-value relation.

    Requires an arbitrage-free quote set.  Draws random integer
    combinations of quotes, rebuilds both sides through the measure
    algebra, and verifies the implied prices still agree; also checks
    behavior under negation and scalar multiples.  Slack is 1e-9 scaled
    by the position size.
    """
    verdict = check(quote_set)
    if isinstance(verdict, Arbitrage):
        raise DomainError("closure probe needs an arbitrage-free quote set")
    grid, prices = verdict.grid, verdict.implied
    rng = np.random.default_rng(seed)
    comb = inv = scl = 0
    quotes = quote_set.quotes
    for _ in range(trials):
        if quotes:
            coeffs = rng.integers(-3, 4, size=len(quotes))
            left = CashFlow()
            right = CashFlow()
            for w, q in zip(coeffs, quotes):
                left = add(left, scale(q.left, float(w)))
                right = add(right, scale(q.right, float(w)))
            size = 1.0 + sum(abs(a.amount) for a in (left + right).atoms)
            tol = 1e-9 * size * max(prices)
            if abs(_implied_value(grid, prices, left) - _implied_value(grid, prices, right)) > tol:
                comb += 1
            if abs(_implied_value(grid, prices, -left) + _implied_value(grid, prices, left)) > tol:
                inv += 1
            k = float(rng.uniform(-3.0, 3.0))
            if abs(
                _implied_value(grid, prices, scale(left, k))
                - k * _implied_value(grid, prices, left)
            ) > tol * (1.0 + abs(k)):
                scl += 1
    return ClosureReport(trials, comb, inv, scl)


@dataclass(frozen=True)
class PositivityReport:
    trials: int
    positivity_failures: int
    linearity_failures: int
    unit_price_gap: float

    @property
    def ok(self) -> bool:
        return (
            self.positivity_failures == 0
            and self.linearity_failures == 0
            and self.unit_price_gap <= 1e-12
        )


def verify_na_positivity(functional: DualFunctional, trials: int = 1000,
                         seed: int = 0) -> PositivityReport:
    """Random evidence that the dual rule is a positive linear unit-price rule.

    Draws nonnegative nonzero flows and checks that the certified lower
    price bound stays strictly positive; draws signed pairs and checks
    linearity within a tolerance-scaled slack; checks the unit payment at
    time 0 prices to 1.
    """
    if trials < 1:
        raise DomainError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    horizon = 0.9 * functional.horizon
    pos_failures = 0
    lin_failures = 0
    for _ in range(trials):
        flow = random_cashflow(rng, horizon=min(30.0, horizon), nonnegative=True)
        if dual_price(functional, flow).lower <= 0.0:
            pos_failures += 1
        a = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(-2.0, 2.0))
        alpha = random_cashflow(rng, horizon=min(30.0, horizon))
        beta = random_cashflow(rng, horizon=min(30.0, horizon))
        combo = add(scale(alpha, a), scale(beta, b))
        tol = 1e-9 * (1.0 + abs(a) + abs(b))
        gap = abs(
            dual_price(functional, combo, tol).value
            - a * dual_price(functional, alpha, tol).value
            - b * dual_price(functional, beta, tol).value
        )
        if gap > 4.0 * tol * (1.0 + abs(a) + abs(b)):
            lin_failures += 1
    unit_gap = abs(dual_price(functional, dirac(0.0)).value - 1.0)
    return PositivityReport(trials, pos_failures, lin_failures, unit_gap)


def eager_echelon(rows, width):
    """Forward-only fraction-free (Bareiss) elimination of integer rows.

    Pivots are searched in the first ``width`` columns, the first nonzero
    entry from the top; later columns are carried along.  Returns the
    nonzero rows of the echelon form and their pivot columns.  After each
    step every entry is a minor of the input (Sylvester's identity), so
    the division by the previous pivot is exact.
    """
    rows = [list(r) for r in rows]
    pivots = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r][c + 1:]
        p = rows[r][c]
        for row in rows[r + 1:]:
            a = row[c]
            row[c] = 0
            row[c + 1:] = [(p * x - a * y) // prev
                           for x, y in zip(row[c + 1:], top)]
        prev = p
        pivots.append(c)
    return rows[:len(pivots)], pivots


# --- the general exact simplex, an oracle for pvkit.arbitrage ---------------
#
# Solves ``min c.x  s.t.  A x = b, x >= 0`` with every pivot carried out in
# ``fractions.Fraction`` arithmetic, so optimality, feasibility and the
# reported duals are exact.  Bland's rule (lowest eligible index for both
# the entering column and the leaving basic variable) makes the run
# deterministic and cycle-free.  Artificial columns are kept in the tableau
# after phase 1 (banned from re-entering), which leaves the basis inverse
# sitting in the artificial block: the dual vector ``y = c_B B^-1`` is read
# off directly.  Redundant rows (an artificial stuck basic with an all-zero
# row) are deleted; their duals are reported as 0.

_ZERO = Fraction(0)
_ONE = Fraction(1)
_PIVOT_CAP = 20000


@dataclass
class LPResult:
    status: str  # 'optimal' | 'infeasible' | 'unbounded'
    x: list[Fraction]
    duals: list[Fraction]
    objective: Fraction | None


def _pivot(T, basis, row, col):
    piv = T[row][col]
    T[row] = [v / piv for v in T[row]]
    for r in range(len(T)):
        if r != row and T[r][col] != 0:
            factor = T[r][col]
            T[r] = [a - factor * b for a, b in zip(T[r], T[row])]
    basis[row] = col


def _optimize(T, basis, costs, banned) -> str:
    n_cols = len(T[0]) - 1
    for _ in range(_PIVOT_CAP):
        # reduced costs from scratch: sizes are tiny, simplicity wins
        y = [costs[basis[r]] for r in range(len(T))]
        entering = -1
        for j in range(n_cols):
            if j in banned or j in basis:
                continue
            rc = costs[j] - sum(y[r] * T[r][j] for r in range(len(T)))
            if rc < 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leave = -1
        best = None
        for r in range(len(T)):
            a = T[r][entering]
            if a > 0:
                ratio = T[r][-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[r] < basis[leave]
                ):
                    best = ratio
                    leave = r
        if leave < 0:
            return "unbounded"
        _pivot(T, basis, leave, entering)
    raise RuntimeError("simplex did not terminate within the pivot cap")


def solve_lp(A, b, c) -> LPResult:
    """Exact ``min c.x  s.t.  A x = b, x >= 0``; requires b >= 0 rowwise."""
    m = len(A)
    n = len(c)
    costs = [Fraction(v) for v in c]
    for bi in b:
        if Fraction(bi) < 0:
            raise ValueError("solve_lp expects b >= 0 (flip rows beforehand)")
    T = [
        [Fraction(v) for v in A[i]]
        + [_ONE if k == i else _ZERO for k in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    basis = [n + i for i in range(m)]

    phase1 = [_ZERO] * n + [_ONE] * m
    _optimize(T, basis, phase1, banned=frozenset())
    infeasibility = sum(
        T[r][-1] for r in range(len(T)) if basis[r] >= n
    )
    if infeasibility > 0:
        return LPResult("infeasible", [], [], None)

    # drive leftover zero-level artificials out; delete truly redundant rows
    r = 0
    while r < len(T):
        if basis[r] >= n:
            col = next((j for j in range(n) if T[r][j] != 0), -1)
            if col >= 0:
                _pivot(T, basis, r, col)
            else:
                del T[r], basis[r]
                continue
        r += 1

    full_costs = costs + [_ZERO] * m
    banned = frozenset(range(n, n + m))
    status = _optimize(T, basis, full_costs, banned)
    if status != "optimal":
        return LPResult(status, [], [], None)

    x = [_ZERO] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[r][-1]
    # the artificial block holds the row-transform matrix M with
    # tableau = M * [A | I | b], so y = c_B * M is a dual for the full
    # original row set, deleted redundant rows included
    duals = [
        sum(full_costs[basis[r]] * T[r][n + i0] for r in range(len(T)))
        for i0 in range(m)
    ]
    objective = sum(full_costs[basis[r]] * T[r][-1] for r in range(len(T)))
    return LPResult("optimal", x, duals, objective)
