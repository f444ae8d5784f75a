"""Cash flows as finite signed measures on the nonnegative time axis.

A :class:`CashFlow` is a finite signed Borel measure with two layers:

* point payments (atoms): a signed mass at a time ``t >= 0``;
* payment streams: piecewise-polynomial densities on half-open
  intervals ``[start, end)``, polynomial degree <= 8, each in powers of
  ``t - origin`` for its own ``origin`` (0 unless given).

Interval endpoints of density pieces carry no mass, so the half-open
convention is a pure bookkeeping choice; only atoms can sit on a boundary
in a way that matters.  All values are plain floats and every operation
returns a new, normalized object: zero atoms and zero pieces are dropped,
atoms at bitwise-equal times are merged, pieces are sorted and adjacent
pieces with identical coefficients and origins are fused.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

from . import poly
from .errors import DomainError

CLOSURES = ("[]", "[)", "(]", "()")


def _check_finite(x: float, what: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{what} must be finite, got {x!r}")
    return x


@dataclass(frozen=True, slots=True)
class Atom:
    """A point payment: signed amount at time >= 0."""

    time: float
    amount: float

    def __post_init__(self):
        t = _check_finite(self.time, "atom time")
        if t < 0.0:
            raise DomainError(f"atom time must be >= 0, got {t}")
        object.__setattr__(self, "time", t)
        object.__setattr__(self, "amount", _check_finite(self.amount, "atom amount"))


@dataclass(frozen=True, slots=True)
class DensityPiece:
    """A polynomial payment rate on [start, end): ``coeffs``, constant
    first, in powers of ``t - origin``, coefficients stored trimmed (no
    trailing zeros; the zero density is ``()``)."""

    start: float
    end: float
    coeffs: tuple[float, ...]
    origin: float = 0.0

    def __post_init__(self):
        a = _check_finite(self.start, "piece start")
        b = _check_finite(self.end, "piece end")
        if a < 0.0:
            raise DomainError(f"piece start must be >= 0, got {a}")
        if not a < b:
            raise DomainError(f"piece needs start < end, got [{a}, {b})")
        c = poly.trim(_check_finite(x, "piece coefficient") for x in self.coeffs)
        if len(c) > poly.MAX_DEGREE + 1:
            raise DomainError(f"density degree is capped at {poly.MAX_DEGREE}")
        object.__setattr__(self, "start", a)
        object.__setattr__(self, "end", b)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "origin", _check_finite(self.origin, "piece origin"))

    def mass(self) -> float:
        o = self.origin
        return poly.definite_integral(self.coeffs, self.start - o, self.end - o)


def _normalize_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    """Sorted by time, with zero amounts dropped; atoms that share a time
    are merged into a new atom, and an atom alone at its time is kept."""
    merged: dict[float, float] = {}
    alone: dict[float, Atom | None] = {}
    for a in atoms:
        merged[a.time] = merged.get(a.time, 0.0) + a.amount
        alone[a.time] = None if a.time in alone else a
    return tuple(
        alone[t] or Atom(t, c) for t, c in sorted(merged.items()) if c != 0.0
    )


def _normalize_pieces(pieces: Iterable[DensityPiece]) -> tuple[DensityPiece, ...]:
    kept = [p for p in pieces if p.coeffs]
    kept.sort(key=lambda p: p.start)
    for prev, nxt in zip(kept, kept[1:]):
        if nxt.start < prev.end:
            raise DomainError(
                f"density pieces overlap: [{prev.start}, {prev.end}) and "
                f"[{nxt.start}, {nxt.end})"
            )
    out: list[DensityPiece] = []
    for p in kept:
        if (out and out[-1].end == p.start and out[-1].coeffs == p.coeffs
                and out[-1].origin == p.origin):
            out[-1] = DensityPiece(out[-1].start, p.end, p.coeffs, p.origin)
        else:
            out.append(p)
    return tuple(out)


@dataclass(frozen=True)
class CashFlow:
    atoms: tuple[Atom, ...] = ()
    pieces: tuple[DensityPiece, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", _normalize_atoms(self.atoms))
        object.__setattr__(self, "pieces", _normalize_pieces(self.pieces))

    @property
    def is_null(self) -> bool:
        return not self.atoms and not self.pieces

    @functools.cached_property
    def _units(self) -> tuple:
        """The flow's one sign split (``poly.sign_units``), made on first use
        and kept, as the flow is immutable; eq, hash, repr and pickle read
        only the fields."""
        return tuple(poly.sign_units([(p.start, p.end, p.coeffs, p.origin)
                                      for p in self.pieces]))

    def __getstate__(self):
        return {"atoms": self.atoms, "pieces": self.pieces}

    def support_bounds(self) -> tuple[float, float] | None:
        """(inf, sup) of the support, or None for the null flow."""
        if self.is_null:
            return None
        times = [a.time for a in self.atoms]
        los = times + [p.start for p in self.pieces]
        his = times + [p.end for p in self.pieces]
        return (min(los), max(his))

    def __neg__(self) -> "CashFlow":
        return scale(self, -1.0)

    def __add__(self, other: "CashFlow") -> "CashFlow":
        return add(self, other)

    def __sub__(self, other: "CashFlow") -> "CashFlow":
        return add(self, scale(other, -1.0))

    def __rmul__(self, k: float) -> "CashFlow":
        return scale(self, k)


def dirac(time: float, amount: float = 1.0) -> CashFlow:
    """A single point payment."""
    return CashFlow(atoms=(Atom(time, amount),))


def density(start: float, end: float, coeffs=(1.0,)) -> CashFlow:
    """A single polynomial-rate stream on [start, end)."""
    return CashFlow(pieces=(DensityPiece(start, end, tuple(coeffs)),))


NULL = CashFlow()


def add(a: CashFlow, b: CashFlow) -> CashFlow:
    atoms = a.atoms + b.atoms
    if not a.pieces or not b.pieces:
        return CashFlow(atoms, a.pieces + b.pieces)
    # split both density layers on the union of their breakpoints, then
    # sum coefficients segment by segment, about the first covering piece's
    # origin (a piece about another origin is Taylor-shifted to it)
    cuts = sorted(
        {p.start for p in a.pieces + b.pieces} | {p.end for p in a.pieces + b.pieces}
    )
    out: list[DensityPiece] = []
    for lo, hi in zip(cuts, cuts[1:]):
        c: tuple[float, ...] = ()
        o = None
        for p in a.pieces + b.pieces:
            if p.start <= lo and hi <= p.end:
                if o is None:
                    o = p.origin
                c = poly.add(c, p.coeffs if p.origin == o
                             else poly.taylor_shift(p.coeffs, o - p.origin))
        if c:
            out.append(DensityPiece(lo, hi, c, o))
    return CashFlow(atoms, tuple(out))


def scale(a: CashFlow, k: float) -> CashFlow:
    k = _check_finite(k, "scalar")
    if k == 0.0:
        return NULL
    return CashFlow(
        tuple(Atom(x.time, k * x.amount) for x in a.atoms),
        tuple(DensityPiece(p.start, p.end, poly.scale(p.coeffs, k), p.origin)
              for p in a.pieces),
    )


def translate(a: CashFlow, offset: float) -> CashFlow:
    """Shift the whole flow in time; the result must stay on t >= 0.

    Each piece keeps its coefficients and moves its origin with its ends,
    so nothing is rounded but the shifted times: where those sums are
    exact (as on a binary grid), translating back gives the flow itself.
    Raises DomainError when a piece would collapse to an empty interval.
    """
    offset = _check_finite(offset, "offset")
    pieces = []
    for p in a.pieces:
        start, end = p.start + offset, p.end + offset
        if not start < end:
            raise DomainError(
                f"translating by {offset!r} collapses the piece [{p.start!r}, {p.end!r})")
        pieces.append(DensityPiece(start, end, p.coeffs, p.origin + offset))
    return CashFlow(tuple(Atom(x.time + offset, x.amount) for x in a.atoms), tuple(pieces))


@dataclass(frozen=True)
class JordanDecomposition:
    """Mutually singular nonnegative parts with a = positive - negative."""

    positive: CashFlow
    negative: CashFlow


def jordan(a: CashFlow) -> JordanDecomposition:
    units = a._units
    return JordanDecomposition(
        CashFlow(tuple(x for x in a.atoms if x.amount > 0),
                 tuple(DensityPiece(lo, hi, c, o) for lo, hi, c, s, o in units if s > 0)),
        CashFlow(tuple(Atom(x.time, -x.amount) for x in a.atoms if x.amount < 0),
                 tuple(DensityPiece(lo, hi, poly.negate(c), o)
                       for lo, hi, c, s, o in units if s < 0)),
    )


@dataclass(frozen=True)
class LebesgueDecomposition:
    """a = absolutely_continuous + singular w.r.t. Lebesgue measure."""

    absolutely_continuous: CashFlow
    singular: CashFlow


def lebesgue(a: CashFlow) -> LebesgueDecomposition:
    ac = CashFlow((), a.pieces)
    if "_units" in vars(a):  # ac holds a's pieces: it shares a split made
        vars(ac)["_units"] = a._units
    return LebesgueDecomposition(ac, CashFlow(a.atoms, ()))


def _check_interval(start: float, end: float, closure: str):
    if closure not in CLOSURES:
        raise DomainError(f"closure must be one of {CLOSURES}, got {closure!r}")
    start = float(start)
    end = float(end)
    if math.isnan(start) or math.isnan(end):
        raise DomainError("interval ends must not be NaN")
    if start > end:
        raise DomainError(f"interval needs start <= end, got [{start}, {end}]")
    return start, end


def trace(a: CashFlow, start: float, end: float, closure: str = "[]") -> CashFlow:
    """Restriction of the flow to an interval with the given end convention.

    ``closure`` is one of ``"[]"``, ``"[)"``, ``"(]"``, ``"()"``.  Density
    pieces are clipped to the open interior either way (their endpoints
    carry no mass); the convention decides which boundary atoms survive.
    """
    start, end = _check_interval(start, end, closure)
    left_closed = closure[0] == "["
    right_closed = closure[1] == "]"
    atoms = tuple(
        x
        for x in a.atoms
        if (start < x.time or (left_closed and x.time == start))
        and (x.time < end or (right_closed and x.time == end))
    )
    pieces = []
    for p in a.pieces:
        lo = max(p.start, start)
        hi = min(p.end, end)
        if lo < hi:
            pieces.append(DensityPiece(lo, hi, p.coeffs, p.origin))
    return CashFlow(atoms, tuple(pieces))


def finite_sum(values) -> float:
    """``math.fsum(values)``, with a DomainError where the sum is not finite:
    where it leaves the float range, or a term already has."""
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # ValueError: inf and -inf among the terms
        total = math.inf
    if not math.isfinite(total):
        raise DomainError("the flow's sum exceeds the float range")
    return total


def total_mass(a: CashFlow) -> float:
    """Signed total a(R+): atom amounts plus exact density integrals."""
    return finite_sum([x.amount for x in a.atoms] + [p.mass() for p in a.pieces])


def mass(a: CashFlow, start: float, end: float, closure: str = "[]") -> float:
    """Signed mass of an interval under the given end convention."""
    return total_mass(trace(a, start, end, closure))


def distribution(a: CashFlow, t: float) -> float:
    """F(t) = mass of [0, t]; F(0) is the atom mass at zero."""
    if t < 0.0:
        return 0.0
    return mass(a, 0.0, t, "[]")


def total_variation(a: CashFlow) -> float:
    """``a+(R+) + a-(R+)``, each part summed as ``total_mass`` sums jordan's."""
    units = a._units
    pos = [x.amount for x in a.atoms if x.amount > 0] + [
        poly.definite_integral(c, lo - o, hi - o) for lo, hi, c, s, o in units if s > 0]
    neg = [-x.amount for x in a.atoms if x.amount < 0] + [
        -poly.definite_integral(c, lo - o, hi - o) for lo, hi, c, s, o in units if s < 0]
    return finite_sum([finite_sum(pos), finite_sum(neg)])


def is_nonnegative(a: CashFlow) -> bool:
    """True when the flow is a nonnegative measure."""
    return all(x.amount > 0 for x in a.atoms) and all(u[3] > 0 for u in a._units)

