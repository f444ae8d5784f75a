"""Bracketed integration against cash-flow measures.

Computes ``integral f d(measure)`` together with a certified enclosure,
for a measure of atoms (a correctly rounded sum of amounts times ``f``)
and piecewise-polynomial densities.  Per subinterval of a density the
integrand is split as ``rho * phat + rho * (f - phat)`` where ``phat`` is
a Chebyshev-node interpolant of ``f``:

* ``integral rho * phat`` is a polynomial integral, evaluated exactly by
  an 8-point Gauss-Legendre rule;
* the residual ``r = f - phat`` is enclosed by a sampled min/max sandwich
  (padded by its own observed range, plus a roundoff allowance), so with
  ``m = integral rho`` (``rho`` of one sign) the remainder lies between
  ``m*rmin`` and ``m*rmax``.

The subinterval's point value is the same 8-point rule applied to
``rho * f`` itself, clamped into its enclosure.

Signed densities are first cut at their sign changes into sign-definite
units (``poly.sign_units``, the package's one sign split, one pass over
each piece's trimmed coefficients, which a ``CashFlow`` makes once and
keeps, and which the Jordan decomposition also reads).  Subintervals are
refined worst-first, in rounds, until the total enclosure width drops
below the requested tolerance.  For smooth ``f`` the residual shrinks
spectrally, so a round cuts its subintervals as many levels deep (up to 3)
as the observed decay of the widths predicts the tolerance needs, and
tolerances near 1e-12 cost only a few rounds; cutting the units at the
integrand's kink points (``prepare``'s ``breakpoints``) keeps each work
item inside a smooth span.

The split, the layout (:func:`prepare`) and the refinement (:func:`enclose`)
are separate steps, and :func:`enclose` is the only way in: pricing lays
out the split the flow keeps, and integrating against a sequence of
integrands lays out once and refines each from the partition the last one
ended with (:func:`fixed_nodes` estimates on a partition without
certifying).
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import poly
from .errors import DomainError
from .measures import finite_sum

# 8-point Gauss-Legendre rule on [-1, 1]; exact for polynomials of degree
# <= 15, so for a density of degree <= 8 times the degree-6 model.  It is
# also the rule of an item's point value and of fixed_nodes.
_GL8 = (
    (-0.9602898564975363, 0.10122853629037626),
    (-0.7966664774136267, 0.22238103445337448),
    (-0.525532409916329, 0.31370664587788727),
    (-0.1834346424956498, 0.362683783378362),
    (0.1834346424956498, 0.362683783378362),
    (0.525532409916329, 0.31370664587788727),
    (0.7966664774136267, 0.22238103445337448),
    (0.9602898564975363, 0.10122853629037626),
)

_MODEL_NODES = 7  # Chebyshev nodes -> degree-6 interpolant of f
_RESIDUAL_SAMPLES = 33
_MAX_INTERVALS = 20000
# Refinement depth (see _depth).  An item's width goes as its length to
# the 8th power, so a level of halving takes 7 bits off the total width;
# the first split assumes that, later ones use the decay they measured.
# Below _GATE_BITS a level, as near the integrand's noise floor, deeper
# cuts only add items, and a split bisects once.  No cut goes deeper than
# _MAX_DEPTH levels.
_WIDTH_DECAY = 7.0
_GATE_BITS = 5.5
_MAX_DEPTH = 3

# Positions on [-1, 1] (an item [a, b] maps them to mid + half * x) of the
# 48 points where an item evaluates f: the model nodes, the residual
# samples, whose middle one (x = 0) is the item's midpoint, then the GL8
# nodes, where the density is evaluated too.
_CHEB = poly.chebyshev_nodes(_MODEL_NODES)
_SAMPLES = tuple(-1.0 + 2.0 * j / (_RESIDUAL_SAMPLES - 1) for j in range(_RESIDUAL_SAMPLES))
_F_POINTS = _CHEB + _SAMPLES + tuple(x for x, _ in _GL8)
_N_CHEB = len(_CHEB)
_N_SAMPLED = _N_CHEB + _RESIDUAL_SAMPLES
_MID = _N_CHEB + _RESIDUAL_SAMPLES // 2


def _lagrange_rows(points) -> tuple:
    """Values at ``points`` of the Lagrange basis on the model nodes.

    Row ``s`` maps the model-node values of f to the interpolant's value
    at ``s``.  Built from the node formula, one ratio per factor; every row
    sums to 1 within 2 ulp.
    """
    return tuple(
        tuple(
            math.prod((s - xj) / (xk - xj) for j, xj in enumerate(_CHEB) if j != k)
            for k, xk in enumerate(_CHEB)
        )
        for s in points
    )


@functools.cache
def _tables():
    """Points, node-to-sample matrix and weights as arrays, built on first use.

    Returns the 48 positions on [-1, 1] where an item evaluates f (the
    last 8, the GL8 nodes, are where it evaluates the density), the 7 x 41
    matrix from model-node values to the model's values at the residual
    samples and the GL8 nodes, and the GL8 weights.
    """
    return (
        np.array(_F_POINTS),
        np.array(_lagrange_rows(_F_POINTS[_N_CHEB:])).T,
        np.array([w for _, w in _GL8]),
    )


@dataclass(frozen=True)
class Bracket:
    """A certified enclosure ``[lower, upper]`` of an integral or a price.

    ``atom_part`` is the finite sum over the measure's atoms and
    ``density_part`` the quadrature estimate over its densities; the
    enclosure's width comes from the density part alone.  ``value`` is
    their sum, clamped into the enclosure: ``lower <= value <= upper``.
    ``+`` adds brackets field by field and ``*``, ``/`` scale every field by
    a positive float: the one place where certified values combine.
    """

    lower: float
    upper: float
    atom_part: float
    density_part: float

    @property
    def value(self) -> float:
        return min(max(self.atom_part + self.density_part, self.lower), self.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def __add__(self, other: "Bracket") -> "Bracket":
        return Bracket(self.lower + other.lower, self.upper + other.upper,
                       self.atom_part + other.atom_part, self.density_part + other.density_part)

    def __mul__(self, k: float) -> "Bracket":
        return Bracket(self.lower * k, self.upper * k, self.atom_part * k, self.density_part * k)

    def __truediv__(self, k: float) -> "Bracket":
        return Bracket(self.lower / k, self.upper / k, self.atom_part / k, self.density_part / k)


def density_at(rows, ts):
    """Row ``i``'s density at the times ``ts[i]``, rows as :func:`prepare` lays them out."""
    return poly.evaluate(rows[:, :-1].T[:, :, None], ts - rows[:, -1:])


# a non-finite f, or a sum past the float range, ends in the DomainError at
# the end, not in a numpy warning on the way
@np.errstate(over="ignore", invalid="ignore")
def _evaluate_items(fn, a, b, rows):
    """Enclosures of ``integral_a^b rho f`` for a batch of items.

    ``a``, ``b`` are arrays of item ends and row ``i`` of ``rows`` holds
    item ``i``'s sign-definite density as :func:`prepare` lays it out.
    Returns an array with one row ``(a, b, value, lower, upper)`` per item,
    ``value`` the GL8 sum of ``rho f`` clamped into ``[lower, upper]``.
    One ``fn`` call covers every point of every item, and an item's row
    is the same bits whatever other items share its batch.
    """
    points, lagrange, w8 = _tables()
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    ts = mid[:, None] + half[:, None] * points
    f = fn(ts.ravel()).reshape(ts.shape)
    f_mid = f[:, _MID:_MID + 1]
    # centred on f(mid): the interpolant is f(mid) + L (f_c - f(mid)), so a
    # row-sum error of L never multiplies the full size of f.  einsum sums
    # each row in node order, where a BLAS matmul's order depends on the rows
    model = np.einsum("ij,jk->ik", f[:, :_N_CHEB] - f_mid, lagrange)
    resid = (f[:, _N_CHEB:_N_SAMPLED] - f_mid) - model[:, :_RESIDUAL_SAMPLES]
    rmin = resid.min(axis=1)
    rmax = resid.max(axis=1)
    pad = 0.5 * (rmax - rmin) + 1e-15 * np.abs(f[:, _N_CHEB:_N_SAMPLED]).max(axis=1)
    rho = density_at(rows, ts[:, _N_SAMPLED:])  # at the GL8 nodes
    mass = half * np.einsum("ij,j->i", rho, w8)
    exact = half * np.einsum("ij,j->i", rho * (model[:, _RESIDUAL_SAMPLES:] + f_mid), w8)
    value = half * np.einsum("ij,j->i", rho * f[:, _N_SAMPLED:], w8)  # the same rule on rho * f
    # the remainder integral of rho * r lies between mass * (rmin - pad)
    # and mass * (rmax + pad), in either order as rho has either sign
    low = mass * (rmin - pad)
    high = mass * (rmax + pad)
    out = np.empty((len(a), 5))
    out[:, 0], out[:, 1] = a, b
    lower = np.add(exact, np.minimum(low, high), out=out[:, 3])
    upper = np.add(exact, np.maximum(low, high), out=out[:, 4])
    np.minimum(np.maximum(value, lower), upper, out=out[:, 2])
    if not np.isfinite(upper - lower).all():
        if np.isfinite(f).all():
            raise DomainError("the flow's sum exceeds the float range")
        raise DomainError("integrand is not finite on the density's support")
    return out


def _depth(excess, decay, cap) -> int:
    """Levels of halving that a split goes down at once.

    For an error ``excess`` times what it may be, which loses ``decay``
    bits per level of halving: ``ceil(log2(excess) / decay)``, at least 1
    and at most ``cap`` and ``_MAX_DEPTH``; 1 where ``decay`` is below
    ``_GATE_BITS`` (nan included).
    """
    if not decay >= _GATE_BITS:
        return 1
    return max(1, min(cap, math.ceil(min(_MAX_DEPTH, math.log2(max(excess, 1.0)) / decay))))


def _split(a, b, depth):
    """Children of the items ``[a[i], b[i])``, item ``i`` cut ``depth[i]``
    levels deep by repeated midpoint halving (the partition successive
    bisections would give).

    ``depth`` is an int array; an item that has a float midpoint but would
    leave an empty child deeper down is bisected once, and its entry set to
    1.  Returns the children's ends and the index of each child's item.
    """
    while True:
        depths = sorted(set(depth.tolist()))
        parts = []
        for d in depths:
            item = np.flatnonzero(depth == d) if len(depths) > 1 else np.arange(len(a))
            lo, hi, up = a[item], b[item], item
            for _ in range(d):
                mid = 0.5 * (lo + hi)
                lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
                up = np.concatenate((up, up))
            parts.append((lo, hi, up))
        ca, cb, parent = parts[0] if len(parts) == 1 else (np.concatenate(x) for x in zip(*parts))
        if depths[-1] == 1 or (ca < cb).all():
            return ca, cb, parent
        depth[parent[ca >= cb]] = 1


def prepare(units, breakpoints=(), atoms=(), origin: float = 0.0) -> tuple:
    """``(times, amounts, rows, partition)``, a measure laid out for
    :func:`enclose` with time ``s`` measured from ``origin``.  Only the
    ends, coefficients and origin of each of the ``units`` are read,
    ``(start, end, coeffs, *_, origin)``, so sign units and the FX fit's
    ``(start, end, coeffs, origin)`` pieces both lay out.  Arrays of the
    ``atoms``' ``time`` and ``amount``; row ``u`` holding unit ``u``'s
    coefficients as stored, padded with zeros, then as its last entry the
    unit's own origin on that scale, so that the row's density is in
    powers of ``s`` minus that entry; and as partition ``(a, b, unit)`` the
    units cut at the ``breakpoints`` inside them (item ``k`` spans ``[a[k],
    b[k])`` with the density of row ``unit[k]``).  Every unit comes from a
    ``DensityPiece``, whose degree is capped when it is built, or from a
    degree-8 FX fit.
    """
    size = max((len(c) for _, _, c, *_ in units), default=0)
    rows = np.zeros((len(units), size + 1))
    marks = sorted(set(breakpoints))
    a, b, unit = [], [], []
    for u, (start, end, c, *_, o) in enumerate(units):
        rows[u, :len(c)] = c
        rows[u, -1] = o - origin
        start, end = start - origin, end - origin
        cuts = [start] + [m for m in marks if start < m < end] + [end]
        a += cuts[:-1]
        b += cuts[1:]
        unit += [u] * (len(cuts) - 1)
    return (np.array([x.time for x in atoms]) - origin, np.array([x.amount for x in atoms]),
            rows, (np.array(a, dtype=float), np.array(b, dtype=float), np.array(unit, dtype=int)))


def enclose(fn, measure, tol: float) -> tuple[Bracket, tuple]:
    """Enclose ``integral fn d(measure)`` within ``tol`` for a measure as
    :func:`prepare` returns it.

    ``fn`` is vectorised: it maps a 1-D float64 array of times to the array
    of its values, and must be continuous and bounded on the measure's
    densities (kinks are fine where ``prepare`` cut the units at them).
    The atom part is a correctly rounded sum of amounts times ``fn``.  For
    the density part, item ``k`` of the partition spans ``[a[k], b[k])``
    and carries the density of row ``unit[k]``.

    Every item gets a degree-6 model of ``fn`` through 7 Chebyshev nodes,
    33 evenly spaced residual samples and the 8 nodes of the
    Gauss-Legendre rule that integrates the density times the model: 48
    points, the density evaluated at the last 8.  The item's point value
    is the same rule's sum of density times ``fn``, clamped into the item's
    enclosure.  Items are built in batches, and one ``fn`` call evaluates
    every point of a batch; a fixed matrix maps node values to the model's
    values at the samples and the Gauss-Legendre nodes.  The first batch is
    every item of the partition.  Each later round takes the widest items
    until their widths cover ``total - tol`` and cuts them all, as one
    batch, to one depth by repeated midpoint halving.  The depth is
    ``ceil(log2(excess) / decay)``, at most 3, where the excess is the
    picked items' width over what the other items leave of ``tol``, and
    the decay is the bits of width a level of halving removes: 7 in the
    first split (an item's width goes as its length to the 8th power), then
    what the previous round measured.  Below a decay of 5.5 bits a level,
    as near the noise floor of ``fn``, a round bisects once.

    The residual at a sample ``s`` is centred on the item's midpoint value,
    ``(f_s - f(mid)) - L (f_c - f(mid))`` for node values ``f_c``, so the
    2-ulp row-sum error of the Lagrange matrix ``L`` multiplies only the
    variation of ``f`` over the item, far inside the allowance of ``1e-15 *
    max|f|`` (about 4.5 ulp of ``f``) added to each pad.

    Returns the bracket and the final partition, every item that ended the
    refinement, as ``(a, b, unit, lower, upper)``: the same ``(a, b,
    unit)`` form, which :func:`enclose` and :func:`fixed_nodes` take back,
    followed by each item's enclosure.  With no items the partition is
    returned as given.

    Raises DomainError when the tolerance cannot be met: when a round's
    children are together no narrower than their parents (refinement has
    stalled at the noise floor of ``fn``) or when bisecting would exceed
    the 20,000-interval budget (a deeper cut is clipped to the budget
    left), both naming the tolerance and the width attained; also when
    ``fn`` is not finite on a density or a sum passes the float range.
    The tolerance is not checked here: its callers pass a positive one
    (``price`` refuses any other).

    Certification is relative to sampled values: features of ``fn`` that
    vanish at every node of an item's 33-point sample are invisible to the
    enclosure, so integrands needing resolution finer than 1/32 of a unit
    should have ``prepare`` cut the units at interior markers.  Discount
    curves, which are the intended integrands, vary on year scales.
    """
    times, amounts, rows, partition = measure
    # the products as Python floats: one past the float range is inf, with no
    # numpy warning, and finite_sum refuses the total
    atom = finite_sum(map(operator.mul, amounts.tolist(), fn(times).tolist()))
    a, b, unit, *_ = partition
    if not len(a):
        return Bracket(atom, atom, atom, 0.0), partition
    items = _evaluate_items(fn, a, b, rows[unit])
    done, done_unit = [], []  # rows and units of items too narrow to halve
    built = len(items)
    decay = _WIDTH_DECAY
    while True:
        lower = finite_sum(items[:, 3].tolist() + [r[3] for r in done])
        upper = finite_sum(items[:, 4].tolist() + [r[4] for r in done])
        total = upper - lower
        if total <= tol:
            break
        if not len(items):
            raise DomainError(f"tolerance {tol:.3g} not achievable: attained width {total:.3g}")
        width = items[:, 4] - items[:, 3]
        order = np.argsort(-width, kind="stable")
        covered = np.cumsum(width[order])
        last = int(np.searchsorted(covered, total - tol))
        pick = order[:last + 1]
        a, b = items[pick, 0], items[pick, 1]
        mid = 0.5 * (a + b)
        if not ((a < mid) & (mid < b)).all():
            narrow = pick[(a >= mid) | (mid >= b)]
            done += items[narrow].tolist()
            done_unit += unit[narrow].tolist()
            items, unit = np.delete(items, narrow, axis=0), np.delete(unit, narrow)
            continue
        if built + 2 * len(pick) > _MAX_INTERVALS:
            raise DomainError(
                f"tolerance {tol:.3g} not achievable within the {_MAX_INTERVALS}-interval "
                f"budget: attained width {total:.3g}")
        # the picked items must narrow to what the others leave of tol, or
        # to tol where roundoff has the others' widths add up to more
        picked = float(covered[len(pick) - 1])
        others = float(covered[-1]) - picked
        unspent = tol - others if others < tol else tol
        # the deepest cut whose children all fit in the budget
        cap = ((_MAX_INTERVALS - built) // len(pick)).bit_length() - 1
        depth = _depth(picked / unspent, decay, cap)
        a, b, parent = _split(a, b, np.full(len(pick), depth))
        built += len(a)
        cu = unit[pick][parent]
        children = _evaluate_items(fn, a, b, rows[cu])
        narrowed = float((children[:, 4] - children[:, 3]).sum())
        if not narrowed < picked:
            raise DomainError(
                f"tolerance {tol:.3g} not achievable: refinement stalled at "
                f"attained width {total:.3g}")
        decay = math.log2(picked / narrowed) / depth if narrowed > 0.0 else math.inf
        keep = np.ones(len(items), dtype=bool)
        keep[pick] = False
        items = np.concatenate((items[keep], children))
        unit = np.concatenate((unit[keep], cu))
    # each item's value lies in its enclosure, so the correctly rounded sum
    # lies in [lower, upper]
    value = finite_sum(items[:, 2].tolist() + [r[2] for r in done])
    if done:
        items = np.concatenate((items, done))
        unit = np.concatenate((unit, done_unit))
    return (Bracket(atom + lower, atom + upper, atom, value),
            (items[:, 0], items[:, 1], unit, items[:, 3], items[:, 4]))


def fixed_nodes(measure) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights, for a measure as :func:`prepare` lays it out, of
    the estimate ``sum(weights * f(nodes))`` of ``integral f d(measure)``:
    the atom times weighted by their amounts, then every item's GL8 nodes
    weighted ``half * w8 * rho(node)``, the rule of every item's point
    value in :func:`enclose`.  No enclosure; with no items the sum is
    :func:`enclose`'s atom sum, bit for bit.
    """
    times, amounts, rows, (a, b, unit, *_) = measure
    points, _, w8 = _tables()
    half = 0.5 * (b - a)[:, None]
    ts = 0.5 * (a + b)[:, None] + half * points[_N_SAMPLED:]
    w = half * w8 * density_at(rows[unit], ts)
    return np.concatenate((times, ts.ravel())), np.concatenate((amounts, w.ravel()))
