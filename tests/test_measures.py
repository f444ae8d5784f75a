"""Cash flows as finite signed measures: algebra, decompositions, traces.

The hypothesis suites draw random atom+density flows from seeded numpy
generators so every failure is reproducible from the printed seed.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pvkit import (
    NULL,
    Atom,
    CashFlow,
    DensityPiece,
    DomainError,
    density,
    dirac,
    distribution,
    is_nonnegative,
    jordan,
    lebesgue,
    mass,
    total_mass,
    total_variation,
    trace,
    translate,
)
from pvkit import poly
from pvkit.sampling import random_cashflow

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _flow(seed):
    return random_cashflow(np.random.default_rng(seed))


# --- construction and normalization --------------------------------------


def test_atoms_merge_and_sort():
    a = CashFlow(atoms=(Atom(2.0, 1.0), Atom(1.0, 3.0), Atom(2.0, -0.25)))
    assert [at.time for at in a.atoms] == [1.0, 2.0]
    assert a.atoms[1].amount == 0.75


def test_atoms_alone_at_their_time_are_kept_as_given():
    given = (Atom(3.0, 1.5), Atom(1.0, 2.0), Atom(3.0, -1.5), Atom(2.0, 0.1),
             Atom(2.0, 0.2), Atom(4.0, 0.0), Atom(5.0, -4.0))
    a = CashFlow(atoms=given)
    # 3.0 sums to zero and 4.0 is zero: both dropped; 2.0 is a new merged atom
    assert [(x.time, x.amount) for x in a.atoms] == [(1.0, 2.0), (2.0, 0.1 + 0.2),
                                                     (5.0, -4.0)]
    assert a.atoms[0] is given[1]
    assert a.atoms[2] is given[6]
    assert a.atoms[1] is not given[3] and a.atoms[1] is not given[4]


def test_zero_amounts_drop():
    assert CashFlow(atoms=(Atom(1.0, 0.0),)).is_null
    assert density(0.0, 1.0, (0.0,)).is_null
    assert (dirac(1.0) - dirac(1.0)).is_null


def test_adjacent_equal_pieces_fuse():
    a = CashFlow(pieces=(DensityPiece(0.0, 1.0, (2.0,)),
                         DensityPiece(1.0, 3.0, (2.0,))))
    assert len(a.pieces) == 1
    assert (a.pieces[0].start, a.pieces[0].end) == (0.0, 3.0)


def test_overlapping_pieces_rejected():
    with pytest.raises(DomainError):
        CashFlow(pieces=(DensityPiece(0.0, 2.0, (1.0,)),
                         DensityPiece(1.0, 3.0, (1.0,))))


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        Atom(-0.5, 1.0)
    with pytest.raises(DomainError):
        DensityPiece(-1.0, 1.0, (1.0,))


def test_degree_cap():
    with pytest.raises(DomainError):
        DensityPiece(0.0, 1.0, tuple(range(10)))  # degree 9


def test_piece_coefficients_are_stored_trimmed():
    # trailing zeros of either sign are dropped, so a degree-9 tuple with a
    # zero top coefficient is within the cap, and the zero density is ()
    assert DensityPiece(0.0, 1.0, (1.0, 2.0, 0.0, -0.0)).coeffs == (1.0, 2.0)
    assert DensityPiece(0.0, 1.0, tuple(range(9)) + (-0.0,)).coeffs == tuple(
        map(float, range(9)))
    assert DensityPiece(0.0, 1.0, (0.0, -0.0)).coeffs == ()
    assert DensityPiece(0.0, 1.0, (-0.0, 1.0, -0.0)).coeffs == (-0.0, 1.0)


def test_add_splits_at_boundaries():
    a = density(0.0, 2.0, (1.0,))
    b = density(1.0, 3.0, (1.0,))
    s = a + b
    assert [(p.start, p.end) for p in s.pieces] == [(0.0, 1.0), (1.0, 2.0),
                                                    (2.0, 3.0)]
    assert s.pieces[1].coeffs == (2.0,)


def test_scale_and_neg():
    a = dirac(1.0, 2.0) + density(0.0, 1.0, (1.0, 1.0))
    assert total_mass(2.0 * a) == pytest.approx(2.0 * total_mass(a))
    assert (a + (-a)).is_null


def test_translate_shifts_support():
    a = dirac(1.0, 3.0) + density(0.0, 2.0, (0.0, 1.0))  # density t on [0,2)
    b = translate(a, 5.0)
    assert b.atoms[0].time == 6.0
    assert (b.pieces[0].start, b.pieces[0].end) == (5.0, 7.0)
    # density must still evaluate to (t - 5) at the new location
    assert total_mass(b) == pytest.approx(total_mass(a))
    assert mass(b, 5.0, 6.0, "[)") == pytest.approx(0.5)
    with pytest.raises(DomainError):
        translate(a, -1.0)  # would cross zero


def test_translate_moves_origins_and_keeps_coefficients():
    a = (dirac(1.5, 3.0) + density(0.25, 2.0, (0.5, -1.0, 0.75))
         + CashFlow((), (DensityPiece(3.0, 4.5, (1.0, 2.0), 3.75),)))
    b = translate(a, 26.125)
    assert [p.coeffs for p in b.pieces] == [p.coeffs for p in a.pieces]
    assert [p.origin for p in b.pieces] == [26.125, 29.875]
    # every time above is on a binary grid where the sums are exact
    assert translate(b, -26.125) == a
    assert total_mass(b) == total_mass(a)


@given(seeds)
def test_translate_round_trip_is_exact_on_a_binary_grid(seed):
    # times and offsets that are multiples of 2^-10 below 2^20 add exactly
    rng = np.random.default_rng(seed)
    grid = lambda x: math.ldexp(round(math.ldexp(float(x), 10)), -10)
    flow = CashFlow(
        tuple(Atom(grid(rng.uniform(0.0, 30.0)), float(rng.normal())) for _ in range(2)),
        (DensityPiece(grid(rng.uniform(0.0, 10.0)), grid(rng.uniform(11.0, 30.0)),
                      tuple(rng.normal(size=4)), grid(rng.uniform(-5.0, 5.0))),))
    offset = grid(rng.uniform(0.0, 50.0))
    assert translate(translate(flow, offset), -offset) == flow


def test_translate_that_collapses_a_piece_names_it():
    with pytest.raises(DomainError, match=r"translating by 1\.0 collapses the piece "
                                          r"\[1e-300, 2e-300\)"):
        translate(density(1e-300, 2e-300), 1.0)


def test_pieces_fuse_only_with_equal_origins():
    same = CashFlow((), (DensityPiece(0.0, 1.0, (1.0, 2.0), 0.5),
                         DensityPiece(1.0, 2.0, (1.0, 2.0), 0.5)))
    assert same.pieces == (DensityPiece(0.0, 2.0, (1.0, 2.0), 0.5),)
    apart = CashFlow((), (DensityPiece(0.0, 1.0, (1.0, 2.0), 0.5),
                          DensityPiece(1.0, 2.0, (1.0, 2.0), 1.5)))
    assert len(apart.pieces) == 2


def test_add_shifts_a_piece_about_another_origin():
    # 1 + 2 (t - 4) and 3 - (t - 2) on [4, 5): their sum about origin 4 is
    # 1 + 2u + 3 - (u + 2) = 2 + u
    a = CashFlow((), (DensityPiece(4.0, 5.0, (1.0, 2.0), 4.0),))
    b = CashFlow((), (DensityPiece(3.0, 5.0, (3.0, -1.0), 2.0),))
    s = a + b
    assert s.pieces == (DensityPiece(3.0, 4.0, (3.0, -1.0), 2.0),
                        DensityPiece(4.0, 5.0, (2.0, 1.0), 4.0))
    assert total_mass(s) == total_mass(a) + total_mass(b)


def test_sign_span_narrower_than_the_time_spacing_is_dropped():
    # about origin 64.5 the density u + 0.5 - 3e-15 changes sign 3e-15
    # after the piece's start, less than an ulp of 64: the negative sliver
    # has no time of its own, and the split keeps only the positive span
    flow = CashFlow((), (DensityPiece(64.0, 65.0, (0.5 - 3e-15, 1.0), 64.5),))
    assert poly._sign_spans(flow.pieces[0].coeffs, -0.5, 0.5)[0][2] == -1
    j = jordan(flow)
    assert j.negative.is_null and j.positive == flow
    assert total_variation(flow) == total_mass(flow)


@pytest.mark.parametrize("piece, message", [
    ((5.0, 1.0, (1.0,)), "piece needs start < end, got [5.0, 1.0)"),
    ((math.nan, 1.0, (1.0,)), "piece start must be finite, got nan"),
    ((0.0, math.inf, (1.0,)), "piece end must be finite, got inf"),
    ((0.0, 1.0, (1.0, math.nan)), "piece coefficient must be finite, got nan"),
    ((0.0, 1.0, (1.0,) * 10), "density degree is capped at 8"),
], ids=["reversed", "nan-start", "infinite-end", "nan-coefficient", "degree-9"])
def test_density_piece_refusals_keep_their_messages(piece, message):
    with pytest.raises(DomainError) as err:
        DensityPiece(*piece)
    assert str(err.value) == message


def test_piece_origin_must_be_finite():
    with pytest.raises(DomainError, match="piece origin"):
        DensityPiece(0.0, 1.0, (1.0,), math.inf)


# --- masses, traces, distribution -----------------------------------------


def test_total_mass_and_variation():
    a = dirac(1.0, -2.0) + density(0.0, 1.0, (1.0,))
    assert total_mass(a) == pytest.approx(-1.0)
    assert total_variation(a) == pytest.approx(3.0)
    assert not is_nonnegative(a)
    assert is_nonnegative(dirac(0.0, 1.0))


@pytest.mark.parametrize("lo, hi, power, exact", [
    (25.0, 25.0078125, 2, Fraction(1, 128) ** 5 / 30),
    (19.5, 20.5, 4, Fraction(1, 630)),
])
def test_narrow_and_late_densities_keep_their_mass(lo, hi, power, exact):
    # (t - lo)^power (t - hi)^power, expanded exactly in global monomials:
    # the antiderivative's values at lo and hi cancel to below their own
    # rounding error, so the masses must come from exact arithmetic
    coeffs = (1.0,)
    for root in (lo,) * power + (hi,) * power:
        coeffs = poly.multiply(coeffs, (-root, 1.0))
    flow = density(lo, hi, coeffs)
    assert flow.pieces[0].mass() == float(exact)
    assert total_mass(flow) == float(exact)
    assert total_variation(flow) == float(exact)


def test_trace_closures_at_atom_boundaries():
    a = dirac(1.0, 5.0) + dirac(2.0, 7.0)
    assert total_mass(trace(a, 1.0, 2.0, "[]")) == pytest.approx(12.0)
    assert total_mass(trace(a, 1.0, 2.0, "[)")) == pytest.approx(5.0)
    assert total_mass(trace(a, 1.0, 2.0, "(]")) == pytest.approx(7.0)
    assert total_mass(trace(a, 1.0, 2.0, "()")) == pytest.approx(0.0)


def test_trace_clips_density():
    a = density(0.0, 4.0, (0.0, 1.0))  # rho(t) = t
    piece = trace(a, 1.0, 3.0, "[]").pieces[0]
    assert (piece.start, piece.end) == (1.0, 3.0)
    assert mass(a, 1.0, 3.0) == pytest.approx(4.0)


@pytest.mark.parametrize("start, end, closure, message", [
    (1.0, 2.0, "[x", r"closure must be one of \('\[\]', '\[\)', '\(\]', '\(\)'\), got '\[x'"),
    (math.nan, 2.0, "[]", r"interval ends must not be NaN"),
    (1.0, math.nan, "()", r"interval ends must not be NaN"),
    (3.0, 2.0, "[)", r"interval needs start <= end, got \[3.0, 2.0\]"),
])
def test_trace_and_mass_refuse_bad_intervals(start, end, closure, message):
    a = dirac(1.0, 5.0) + density(0.0, 4.0)
    for restrict in (trace, mass):
        with pytest.raises(DomainError, match=f"^{message}$"):
            restrict(a, start, end, closure)


def test_distribution_is_right_continuous_jump():
    a = dirac(1.0, 2.0)
    assert distribution(a, 1.0) == pytest.approx(2.0)  # includes the atom at t
    assert distribution(a, 0.999999) == 0.0


def test_distribution_is_zero_before_time_zero():
    assert distribution(dirac(1.0), -1.0) == 0.0


@given(seeds)
def test_sigma_additivity_over_partition(seed):
    a = _flow(seed)
    rng = np.random.default_rng(seed + 1)
    cuts = np.sort(rng.uniform(0.0, 35.0, size=4))
    pts = [0.0, *cuts, 40.0]
    parts = [mass(a, lo, hi, "[)") for lo, hi in zip(pts, pts[1:])]
    assert math.fsum(parts) == pytest.approx(
        mass(a, 0.0, 40.0, "[)"), abs=1e-9 * (1 + total_variation(a))
    )


@given(seeds)
def test_trace_pieces_reassemble(seed):
    a = _flow(seed)
    mid = 15.0
    left = trace(a, 0.0, mid, "[)")
    right = trace(a, mid, 40.0, "[)")
    assert total_mass(left) + total_mass(right) == pytest.approx(
        total_mass(a), abs=1e-9 * (1 + total_variation(a))
    )


# --- vector-space axioms ---------------------------------------------------


@given(seeds, seeds)
def test_addition_commutes(s1, s2):
    a, b = _flow(s1), _flow(s2)
    assert (a + b) == (b + a)


@given(seeds)
def test_null_is_identity(seed):
    a = _flow(seed)
    assert a + NULL == a
    assert a - a == NULL


@given(seeds, st.floats(min_value=-4, max_value=4, allow_nan=False))
def test_scaling_distributes_over_mass(seed, k):
    a = _flow(seed)
    assert total_mass(k * a) == pytest.approx(
        k * total_mass(a), abs=1e-9 * (1 + abs(k)) * (1 + total_variation(a))
    )


# --- decompositions --------------------------------------------------------


def test_jordan_of_signed_density():
    a = density(0.0, 2.0, (-1.0, 1.0))  # rho = t - 1, crosses at t = 1
    j = jordan(a)
    assert total_mass(j.positive) == pytest.approx(0.5, abs=1e-12)
    assert total_mass(j.negative) == pytest.approx(0.5, abs=1e-12)
    assert is_nonnegative(j.positive) and is_nonnegative(j.negative)


@given(seeds)
def test_jordan_reconstructs_and_is_minimal(seed):
    a = _flow(seed)
    j = jordan(a)
    diff = (j.positive - j.negative) - a
    assert total_variation(diff) <= 1e-9 * (1 + total_variation(a))
    # minimality: |a| = a+ + a-
    assert total_mass(j.positive) + total_mass(j.negative) == pytest.approx(
        total_variation(a), abs=1e-9 * (1 + total_variation(a))
    )
    # total_variation and is_nonnegative read the split jordan builds from
    assert total_variation(a) == total_mass(j.positive) + total_mass(j.negative)
    assert is_nonnegative(a) == j.negative.is_null


@given(seeds)
def test_lebesgue_reconstructs_with_disjoint_parts(seed):
    a = _flow(seed)
    d = lebesgue(a)
    assert d.absolutely_continuous.atoms == ()
    assert d.singular.pieces == ()
    assert (d.absolutely_continuous + d.singular) == a

