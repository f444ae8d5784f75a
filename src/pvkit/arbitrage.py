"""Arbitrage screening of finitely many equal-value quotes on a time grid.

A :class:`Quote` asserts that two discrete cash flows trade at the same
price.  Given quotes whose atoms live on a common finite grid containing
time 0, exactly one of the following holds:

* some strictly positive price vector ``p`` over the grid reprices every
  quote (``D p = 0`` where each row of ``D`` is right-minus-left), or
* some linear combination ``y^T D`` of the quote differences is a
  nonnegative, nonzero flow -- an arbitrage: a costless position with a
  free lunch.

:func:`reduce_quotes` builds each row of ``D`` as integers, straight from
the amounts' ``float.as_integer_ratio()`` and scaled by the least power of
two that makes it integral, and brings it to row echelon form by
fraction-free elimination (Bareiss, *Math. Comp.* 1968): every entry is a
minor of the scaled ``D``, so the arithmetic is exact and the integers stay
as short as the minors.  Its columns are eliminated latest time first.  A
flow's last payment is its maturity, so a bond ladder's ``D`` is
triangular in that order and most rows are 0 in each pivot column.  Such
a row would only be multiplied by the ratio of two pivots; the
elimination defers that scaling until the row is next updated or chosen as
a pivot, and the echelon is the same as the eager one.  The dimension ``k``
of the null space of ``D`` then decides :func:`check`:

* ``k = 1``, spanned by ``v``: the quotes are arbitrage-free exactly when
  ``v`` or ``-v`` is strictly positive, and ``v / v_0`` is the price
  vector.  Otherwise a nonnegative ``w`` orthogonal to ``v`` lies in the
  row space: ``e_z`` for the first ``v_z = 0``, or ``|v_j| e_i + v_i e_j``
  for the first ``v_i > 0`` and the first ``v_j < 0``;
* ``k = 0``: only ``p = 0`` reprices, and ``w = e_0`` is a free payment
  at time 0;
* ``k >= 2``, spanned by ``N_1..N_k``: an exact phase-1 simplex
  (:mod:`pvkit.simplex`) looks for ``w >= 0`` with ``sum(w) = 1`` and
  ``N_i . w = 0``, a system of ``k + 1`` rows.  Such a ``w`` lies in the
  row space.  If there is none, the phase-1 duals ``y`` satisfy
  ``sum_i y_i N_i + y_{k+1} <= 0 < y_{k+1}`` entrywise, so
  ``p = -sum_i y_i N_i`` is a strictly positive price vector.

At every ``k`` an arbitrage certificate solves ``y^T D = w`` by the same
elimination of ``D^T``.  Every price vector and certificate is replayed
in exact arithmetic before it is returned.  :func:`implied_curve`
additionally demands that the repricing vector is unique up to scale
(``k = 1``) and returns it as a discount curve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .errors import DomainError
from .measures import Atom, CashFlow
from .simplex import phase_one

if TYPE_CHECKING:
    from .curves import SpotGridCurve

_ZERO = Fraction(0)


@dataclass(frozen=True)
class Quote:
    """Two discrete flows asserted to trade at the same price."""

    left: CashFlow
    right: CashFlow

    def __post_init__(self):
        for side, flow in (("left", self.left), ("right", self.right)):
            if flow.pieces:
                raise DomainError(f"quote {side} side must be atoms-only")


@dataclass(frozen=True)
class QuoteSet:
    """Quotes over a sorted finite grid of times that includes 0."""

    grid: tuple[float, ...]
    quotes: tuple[Quote, ...]

    def __post_init__(self):
        g = tuple(float(t) for t in self.grid)
        if not g or g[0] != 0.0:
            raise DomainError("grid must start at time 0")
        if any(not b > a for a, b in zip(g, g[1:])):
            raise DomainError("grid times must be strictly increasing")
        allowed = set(g)
        for k, q in enumerate(self.quotes):
            for side in (q.left, q.right):
                for atom in side.atoms:
                    if atom.time not in allowed:
                        raise DomainError(
                            f"quote {k} has an atom at t={atom.time}, not on the grid"
                        )
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "quotes", tuple(self.quotes))

    def difference_matrix(self) -> list[list[Fraction]]:
        """Rows of right-minus-left grid coordinates, exact rationals."""
        index = {t: j for j, t in enumerate(self.grid)}
        rows = []
        for q in self.quotes:
            row = [_ZERO] * len(self.grid)
            for atom in q.right.atoms:
                row[index[atom.time]] += Fraction(atom.amount)
            for atom in q.left.atoms:
                row[index[atom.time]] -= Fraction(atom.amount)
            rows.append(row)
        return rows


@dataclass(frozen=True)
class ArbitrageFree:
    """A strictly positive repricing vector, normalized to price 1 at t=0."""

    grid: tuple[float, ...]
    implied: tuple[float, ...]


@dataclass(frozen=True)
class Arbitrage:
    """Per-quote weights whose difference combination is >= 0 and nonzero.

    ``coefficients`` are the floats of ``exact_coefficients``, the rational
    weights scaled so that the largest is 1 in magnitude; ``portfolio`` is
    their combination of the quote differences, rounded once per atom.
    """

    coefficients: tuple[float, ...]
    portfolio: CashFlow
    exact_coefficients: tuple[Fraction, ...] = field(repr=False)


class Reduction(NamedTuple):
    """The difference matrix of a quote set in exact fraction-free echelon form.

    ``rows[i]`` is row ``i`` of ``D`` times the power of two ``scales[i]``,
    an integer vector in grid order.  ``echelon`` holds the nonzero rows of
    a Bareiss row echelon form of ``rows`` with the columns reversed, latest
    time first: its column ``j`` is grid column ``len(grid) - 1 - j``, and
    ``pivots`` are its pivot columns in that order.  A named tuple, because
    its class is built in a fifth of a dataclass's time and every CLI call
    imports it.
    """

    grid: tuple[float, ...]
    rows: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]
    echelon: tuple[tuple[int, ...], ...]
    pivots: tuple[int, ...]

    @property
    def free(self) -> tuple[int, ...]:
        """The grid columns that are not pivots, in grid order; one
        null-space direction each."""
        g = len(self.grid)
        pivots = set(self.pivots)
        return tuple(g - 1 - j for j in reversed(range(g)) if j not in pivots)

    @property
    def null_dim(self) -> int:
        return len(self.grid) - len(self.pivots)

    @property
    def max_bits(self) -> int:
        """The largest bit length among the integer rows and the echelon."""
        return max((abs(a).bit_length() for row in self.rows + self.echelon
                    for a in row), default=0)

    def null_vector(self, col: int) -> list[int]:
        """The null vector of ``D`` over the grid that is 1 at free column
        ``col`` and 0 at the other free columns, times the last pivot."""
        g = len(self.grid)
        return _null_vector(self.echelon, self.pivots, g, g - 1 - col)[::-1]


def _echelon(rows, width):
    """Forward-only fraction-free (Bareiss) elimination of integer rows.

    Pivots are searched in the first ``width`` columns, the first nonzero
    entry from the top; later columns are carried along.  Returns the
    nonzero rows of the echelon form and their pivot columns.  After each
    step every entry is a minor of the input (Sylvester's identity), so
    the division by the previous pivot is exact.

    A row that is 0 in the pivot column would only be multiplied by the
    pivot over the previous pivot, so it is left as it is.  ``stamps[i]``
    is the pivot at which row ``i`` was last current: its current values
    are its stored ones times ``prev / stamps[i]``.  A stale row chosen as
    the pivot row is brought current by that exact division; a stale row
    that is updated divides by its stamp instead of ``prev``, which gives
    the same integers.  The result is that of the eager elimination.
    """
    rows = [list(r) for r in rows]
    stamps = [1] * len(rows)
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
        stamps[r], stamps[piv] = stamps[piv], stamps[r]
        if stamps[r] != prev:
            rows[r][c:] = [x * prev // stamps[r] for x in rows[r][c:]]
        top = rows[r][c + 1:]
        p = rows[r][c]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            a = row[c]
            if a:
                s = stamps[i]
                row[c] = 0
                row[c + 1:] = [(p * x - a * y) // s
                               for x, y in zip(row[c + 1:], top)]
                stamps[i] = p
        prev = p
        pivots.append(c)
    return rows[:len(pivots)], pivots


def _back_substitute(echelon, pivots, x, rhs):
    """The solution of ``echelon @ x == rhs`` whose non-pivot entries are
    those of ``x``, times the last pivot ``d``.

    Scaled by ``d``, every entry is an integer, a minor of the input by
    Cramer's rule, so every division is exact.
    """
    d = echelon[-1][pivots[-1]] if pivots else 1
    x = [d * xj for xj in x]
    for row, c, b in zip(reversed(echelon), reversed(pivots), reversed(rhs)):
        x[c] = (d * b - sum(a * xj for a, xj in zip(row[c + 1:], x[c + 1:]))) // row[c]
    return x


def _null_vector(echelon, pivots, width, col):
    """The null vector of an echelon form that is 1 at its free column
    ``col`` and 0 at the others, times the last pivot."""
    x = [0] * width
    x[col] = 1
    return _back_substitute(echelon, pivots, x, [0] * len(pivots))


def _integers(values) -> tuple[list[int], int]:
    """Rationals times their common denominator, and that denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _scaled_row(quote: Quote, index: dict, width: int) -> tuple[tuple[int, ...], int]:
    """The row of ``D`` for ``quote`` times the least power of two that
    makes it integral, and that power (1 for a zero row)."""
    terms = []
    for sign, side in ((1, quote.right), (-1, quote.left)):
        for atom in side.atoms:
            n, d = atom.amount.as_integer_ratio()
            terms.append((index[atom.time], sign * n, d))
    den = max((d for _, _, d in terms), default=1)
    row = [0] * width
    for j, n, d in terms:
        row[j] += n * (den // d)
    # den is a power of two, so den // common is the least common
    # denominator of the row's reduced entries
    common = math.gcd(den, *row)
    return tuple(x // common for x in row), den // common


def reduce_quotes(quote_set: QuoteSet) -> Reduction:
    """Scale ``D`` row by row to integers and reduce it to echelon form,
    latest time first."""
    g = len(quote_set.grid)
    index = {t: j for j, t in enumerate(quote_set.grid)}
    scaled = [_scaled_row(q, index, g) for q in quote_set.quotes]
    rows = tuple(row for row, _ in scaled)
    echelon, pivots = _echelon([row[::-1] for row in rows], g)
    return Reduction(quote_set.grid, rows, tuple(s for _, s in scaled),
                     tuple(map(tuple, echelon)), tuple(pivots))


def check(quote_set: QuoteSet) -> ArbitrageFree | Arbitrage:
    """Decide arbitrage-freeness of the quotes, with a certificate either way.

    With no quotes at all, any price vector works: the all-equal vector is
    returned by convention.  Otherwise the null space of ``D`` decides
    (see the module docstring).  When it has one dimension the verdict
    follows from the signs of its basis vector, and when it has none the
    certificate pays at time 0.  When it has two or more, an exact
    phase-1 simplex in null-space coordinates either finds a nonnegative,
    nonzero flow in the row space of ``D``, which the certificate then
    reaches, or proves that none exists, and its duals give the positive
    vector.
    """
    return _decide(reduce_quotes(quote_set))


def _decide(red: Reduction) -> ArbitrageFree | Arbitrage:
    g = len(red.grid)
    if not red.rows:
        return ArbitrageFree(red.grid, tuple(1.0 for _ in range(g)))
    free = red.free
    w = [0] * g
    if not free:
        w[0] = 1
    elif len(free) == 1:
        v = red.null_vector(free[0])
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            return _repricing(red, v)
        zero = next((k for k, x in enumerate(v) if x == 0), None)
        if zero is not None:
            w[zero] = 1
        else:
            i = next(k for k, x in enumerate(v) if x > 0)
            j = next(k for k, x in enumerate(v) if x < 0)
            w[i], w[j] = -v[j], v[i]
    else:
        # w >= 0, sum(w) = 1, orthogonal to the null space: w is in D's row space
        null = [red.null_vector(c) for c in free]
        lp = phase_one(null + [[1] * g], [0] * len(null) + [1])
        if not lp.feasible:
            # with y_k the dual of the sum row, y_k + sum_i y_i N_i <= 0 < y_k
            return _repricing(red, _integers(
                [-sum(yi * v[j] for yi, v in zip(lp.y, null)) for j in range(g)])[0])
        w = _integers(lp.x)[0]
    # y^T D = w: reduce D^T with w as its last column
    m = len(red.rows)
    echelon, pivots = _echelon(
        [[row[j] for row in red.rows] + [w[j]] for j in range(g)], m)
    return _certificate(red, _back_substitute(
        echelon, pivots, [0] * m, [row[m] for row in echelon]))


def _repricing(red: Reduction, x: list[int]) -> ArbitrageFree:
    """``x / x_0`` as the verdict, once ``D x = 0`` and ``x``'s strict sign
    are checked exactly."""
    if any(sum(a * xj for a, xj in zip(row, x)) for row in red.rows):
        raise RuntimeError("price vector does not reprice the quotes")
    if not (all(xj > 0 for xj in x) or all(xj < 0 for xj in x)):
        raise RuntimeError("price vector is not strictly positive")
    return ArbitrageFree(red.grid, tuple(xj / x[0] for xj in x))


def _certificate(red: Reduction, y: list[int]) -> Arbitrage:
    """The weights ``y`` on the integer rows (or their negation) as the
    verdict, once their combination is checked exactly to be a nonnegative,
    nonzero flow."""
    combo = [sum(yi * row[j] for yi, row in zip(y, red.rows))
             for j in range(len(red.grid))]
    if not _free_lunch(combo):
        y = [-yi for yi in y]
        combo = [-v for v in combo]
    if not _free_lunch(combo):
        raise RuntimeError("certificate replay failed")
    # weight on D's row i, in the common scale of combo
    weights = [s * yi for s, yi in zip(red.scales, y)]
    unit = max(abs(wi) for wi in weights)
    portfolio = CashFlow(tuple(
        Atom(t, v / unit) for t, v in zip(red.grid, combo) if v != 0))
    return Arbitrage(tuple(wi / unit for wi in weights), portfolio,
                     tuple(Fraction(wi, unit) for wi in weights))


def _free_lunch(flow) -> bool:
    return all(v >= 0 for v in flow) and any(v > 0 for v in flow)


class NonUniqueImpliedPricesError(DomainError):
    """Quotes pin prices only up to extra degrees of freedom."""

    def __init__(self, free_directions):
        self.free_directions = tuple(tuple(v) for v in free_directions)
        super().__init__(
            "implied prices are not unique; free directions over the grid: "
            + "; ".join(str(v) for v in self.free_directions)
        )


def implied_curve(quote_set: QuoteSet) -> SpotGridCurve:
    """The unique implied discount curve through the grid prices.

    Requires an arbitrage-free quote set whose repricing vector is unique
    up to scale (difference matrix rank = grid size - 1).  Raises
    :class:`NonUniqueImpliedPricesError` listing the residual degrees of
    freedom otherwise; the reported directions keep the t=0 price fixed.
    The verdict comes from one reduction of ``D``, latest time first.  The
    directions are those of the leftmost free columns, from a second
    reduction in grid order that runs only when they are reported.
    """
    red = reduce_quotes(quote_set)
    verdict = _decide(red)
    if isinstance(verdict, Arbitrage):
        raise DomainError("quotes admit arbitrage; no implied curve exists")
    if red.null_dim > 1:
        # the directions of the leftmost free columns: the grid-order echelon's
        g = len(red.grid)
        echelon, pivots = _echelon(red.rows, g)
        p = [Fraction(v) for v in verdict.implied]
        free = []
        for col in sorted(set(range(g)) - set(pivots)):
            x = _null_vector(echelon, pivots, g, col)
            v = [Fraction(xj, x[col]) for xj in x]
            adj = [vj - (v[0] / p[0]) * pj for vj, pj in zip(v, p)]
            if any(a != 0 for a in adj):
                free.append([float(a) for a in adj])
        if free:
            raise NonUniqueImpliedPricesError(free)
    # curves (and numpy) load here, so that check alone stays numpy-free
    from .curves import DEFAULT_HORIZON, SpotGridCurve

    knots = tuple(zip(quote_set.grid, verdict.implied))
    horizon = max(DEFAULT_HORIZON, quote_set.grid[-1])
    return SpotGridCurve(knots, horizon=horizon)

