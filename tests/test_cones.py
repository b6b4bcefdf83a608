"""Unit-orbit reduction and exact progression counting.

The frozen counts in this file were measured with redundantly enlarged
enumeration boxes (2x and 3x agree bit for bit), so they pin the exact
lattice counts rather than floating-point behaviour.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral.cones import (count_progression, min_norm_coset, prime_above,
                            reduce_to_domain, reducer_for, torsion_norm_bound,
                            verify_count_bound)
from lcentral.fields import NumberFieldData, nf_load
from lcentral.rayclass import PrimeContext, rcg_build

Q = nf_load("rationals")
K = nf_load("quadratic-sqrt2")

CTX5 = prime_above(Q, 5)
CTX7 = prime_above(K, 7)


def _coords(x):
    return tuple(int(c) for c in x.coords)


# ---------------------------------------------------------------------------
# fundamental-domain reduction
# ---------------------------------------------------------------------------

def test_reduce_spot_values():
    # unit powers collapse to 1; unit multiples of sqrt(2) collapse to sqrt(2)
    for coords, expect in [((3, 2), (1, 0)), ((99, 70), (1, 0)),
                           ((2, 1), (0, 1)), ((24, 17), (0, 1)),
                           ((-2, -1), (0, 1))]:
        assert _coords(reduce_to_domain(K.element(coords))) == expect


def test_reduce_rationals_is_absolute_value():
    assert _coords(reduce_to_domain(Q.element_from_int(-5))) == (5,)
    assert _coords(reduce_to_domain(Q.element_from_int(17))) == (17,)


def test_reduce_zero_raises():
    with pytest.raises(ValueError):
        reduce_to_domain(K.zero)


def test_reduce_unit_invariance_and_idempotence():
    red = reducer_for(K)
    rng = random.Random(41)
    units = [red.eps, red.eps * red.eps, red.eps_inv, -red.eps, -K.one]
    for _ in range(500):
        x = K.element([rng.randint(-60, 60), rng.randint(-60, 60)])
        if x == K.zero:
            continue
        y = red.reduce(x)
        assert red.contains(y)
        assert red.reduce(y) == y
        assert red.reduce(-x) == y
        for u in units:
            assert red.reduce(u * x) == y


def test_window_membership_matrix():
    red = reducer_for(K)
    inside = [K.one, K.element([0, 1]), K.element_from_int(3)]
    outside = [red.eps, K.element([2, 1]), K.element([3, 2])]
    for x in inside:
        assert red.contains(x)
        assert not red.contains(x, window="shifted")
    for x in outside:
        assert not red.contains(x)
    # the slope-1 elements land inside the shifted window instead
    assert red.contains(red.eps, window="shifted")
    assert red.contains(K.element([2, 1]), window="shifted")


def test_each_window_holds_one_representative_per_orbit():
    red = reducer_for(K)
    rng = random.Random(7)
    for _ in range(300):
        x = K.element([rng.randint(-40, 40), rng.randint(-40, 40)])
        if x == K.zero:
            continue
        for window in ("standard", "shifted"):
            hits = 0
            y = x
            for _ in range(4):
                y = y * red.eps_inv
            for _ in range(9):
                hits += red.contains(y, window=window)
                hits += red.contains(-y, window=window)
                y = y * red.eps
            assert hits == 1


CUBIC_DOC = {
    "label": "cyclic-cubic-81",
    "min_poly": [-1, -3, 0, 1],
    "integral_basis": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "discriminant": 81,
    "unit_gens": [[0, 1, 0], [1, 1, 0]],
    "different_gen": [-3, 0, 3],
}

GAUSSIAN_DOC = {
    "label": "gaussian-integers",
    "min_poly": [1, 0, 1],
    "integral_basis": [[1, 0], [0, 1]],
    "discriminant": -4,
    "unit_gens": [[0, 1]],
    "different_gen": [0, 2],
}


def test_unsupported_fields_are_rejected():
    with pytest.raises(ValueError, match="degree 3"):
        reducer_for(NumberFieldData(CUBIC_DOC))
    with pytest.raises(ValueError, match=r"signature \(0, 1\)"):
        reducer_for(NumberFieldData(GAUSSIAN_DOC))


# ---------------------------------------------------------------------------
# deterministic prime selection
# ---------------------------------------------------------------------------

def test_prime_above_is_deterministic():
    assert _coords(prime_above(K, 7).pi) == (3, 1)
    assert _coords(prime_above(K, 17).pi) == (5, 2)
    assert _coords(prime_above(K, 23).pi) == (5, 1)
    assert _coords(prime_above(K, 41).pi) == (7, 2)
    # and it builds the same ideal as spelling the generator out by hand
    hand = PrimeContext(K, 7, K.element([3, 1]))
    assert prime_above(K, 7).prime_ideal.hnf == hand.prime_ideal.hnf


def test_prime_above_rationals_and_inert_error():
    assert int(prime_above(Q, 5).pi.coords[0]) == 5
    with pytest.raises(ValueError, match="inert"):
        prime_above(K, 5)  # 2 is not a square mod 5


# ---------------------------------------------------------------------------
# progression counts
# ---------------------------------------------------------------------------

def test_count_progression_rationals():
    assert count_progression(1, CTX5, 1, 100).count == 20
    assert count_progression(2, CTX5, 1, 100).count == 10
    assert count_progression(1, CTX5, 1, 1).count == 1
    wit = count_progression(1, CTX5, 1, 100, witnesses=True).witnesses
    assert [_coords(w)[0] for w in wit[:4]] == [1, 6, 11, 16]


def test_count_progression_rationals_doubling():
    # in the large-x regime over Q the count is essentially linear in x
    for x in (1000, 2000, 4000):
        u1 = count_progression(1, CTX5, 1, x).count
        u2 = count_progression(1, CTX5, 1, 2 * x).count
        assert abs(u2 - 2 * u1) <= 1


SQRT2_COUNTS = {
    (1, 1): 1, (1, 50): 6, (1, 500): 48, (1, 5000): 449,
    (2, 50): 2, (2, 500): 8, (2, 5000): 68,
}

SQRT2_SHIFTED = {
    (1, 1): 0, (1, 50): 4, (1, 500): 49, (1, 5000): 450,
    (2, 50): 0, (2, 500): 6, (2, 5000): 65,
}


def test_count_progression_sqrt2_frozen():
    for (n, x), expect in SQRT2_COUNTS.items():
        assert count_progression(1, CTX7, n, x).count == expect


def test_count_progression_box_oracle():
    # inflating the enumeration box must never change an exact count
    for (n, x) in ((1, 500), (2, 500), (1, 5000)):
        base = count_progression(1, CTX7, n, x).count
        assert count_progression(1, CTX7, n, x, box_factor=2.0).count == base
        assert count_progression(1, CTX7, n, x, box_factor=3.0).count == base


def test_count_progression_threads_merge_exactly():
    for threads in (2, 3, 7):
        assert count_progression(1, CTX7, 1, 5000, threads=threads).count == 449
    r = count_progression(1, CTX7, 1, 500, threads=4, witnesses=True)
    assert r.count == 48 and _coords(r.witnesses[0]) == (1, 0)


def test_count_progression_window_shift_is_boundary_sized():
    for (n, x), expect in SQRT2_SHIFTED.items():
        got = count_progression(1, CTX7, n, x, window="shifted").count
        assert got == expect
        base = SQRT2_COUNTS[(n, x)]
        assert abs(got - base) <= 3
        if base >= 40:
            assert abs(got - base) / base < 0.05


def test_count_progression_nontrivial_alpha_sqrt2():
    alpha = K.element([0, 1])
    assert count_progression(alpha, CTX7, 1, 500).count == 23
    # alpha itself is in the window with |N(alpha)| = 2, so U >= 1 from x = 2
    assert count_progression(alpha, CTX7, 1, 2).count >= 1


def test_count_progression_monotone_in_x():
    prev = 0
    for x in (1, 50, 500, 5000):
        cur = count_progression(1, CTX7, 1, x).count
        assert cur >= prev
        prev = cur


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=200))
@settings(max_examples=40, deadline=None)
def test_count_monotone_rationals(x, dx):
    assert (count_progression(1, CTX5, 1, x + dx).count
            >= count_progression(1, CTX5, 1, x).count)


def test_count_progression_argument_errors():
    with pytest.raises(ValueError, match="window"):
        count_progression(1, CTX5, 1, 10, window="sideways")
    with pytest.raises(ValueError, match="n >= 1"):
        count_progression(1, CTX5, 0, 10)
    with pytest.raises(ValueError, match="x >= 1"):
        count_progression(1, CTX5, 1, 0.5)
    with pytest.raises(ValueError, match="coprime"):
        count_progression(5, CTX5, 1, 10)
    with pytest.raises(ValueError, match="coprime"):
        count_progression(K.element([3, 1]), CTX7, 1, 10)
    with pytest.raises(TypeError, match="PrimeContext"):
        count_progression(1, CTX5.prime_ideal, 1, 10)
    for ctx, n in ((CTX5, 10), (CTX7, 8)):
        with pytest.raises(ValueError, match="residue tables"):
            count_progression(1, ctx, n, 10)


def test_enumeration_box_cap():
    with pytest.raises(ValueError, match="desk-scale cap"):
        count_progression(1, CTX7, 1, 1e12)


# ---------------------------------------------------------------------------
# norm minima
# ---------------------------------------------------------------------------

def test_min_norm_coset_rationals():
    assert [min_norm_coset(CTX5, n) for n in (1, 2, 3, 4)] == [4, 24, 124, 624]
    assert [min_norm_coset(prime_above(Q, 3), n) for n in (1, 2, 3)] == [2, 8, 26]
    value, wit = min_norm_coset(CTX5, 2, with_witness=True)
    assert value == 24 and _coords(wit) == (24,)


def test_min_norm_coset_past_the_residue_cap_refused():
    # 5^10 and 7^8 residues: refused before the unit-residue set is built
    for ctx, n in ((CTX5, 10), (CTX7, 8)):
        with pytest.raises(ValueError, match="residue tables"):
            min_norm_coset(ctx, n)


def test_min_norm_coset_sqrt2():
    # the unit residues generate everything mod 7 and mod 49, so the
    # minimum is realised by the orbit of sqrt(2) at both levels
    for n in (1, 2):
        value, wit = min_norm_coset(CTX7, n, with_witness=True)
        assert value == 2
        assert _coords(wit) == (0, 1)
    assert min_norm_coset(CTX7, 2) >= min_norm_coset(CTX7, 1)


def test_min_norm_monotone_in_n():
    prev = 0
    for n in (1, 2, 3, 4):
        cur = min_norm_coset(CTX5, n)
        assert cur >= prev
        prev = cur


# ---------------------------------------------------------------------------
# bound reports
# ---------------------------------------------------------------------------

def test_verify_count_bound_rationals():
    rep = verify_count_bound(CTX5, [1, 2, 3], [1, 10, 100, 1000, 5000])
    assert rep.row_sups == (1.0, 1.0, 1.0)
    assert rep.stable and rep.sup_ratio == 1.0
    assert len(rep.rows) == 15


def test_verify_count_bound_sqrt2():
    rep = verify_count_bound(CTX7, [1, 2], [1, 50, 500, 5000])
    assert rep.row_sups[0] == pytest.approx(1.0)
    assert rep.row_sups[1] == pytest.approx(1.96)
    assert rep.stable


def test_verify_count_bound_flags_drift():
    # a single small x makes the n=2 spike stand alone and trips the check
    with pytest.raises(ArithmeticError, match="drifts"):
        verify_count_bound(CTX7, [1, 2], [50])


def test_torsion_norm_bound_rationals():
    expected = {1: (2, 0.8944271909999159), 2: (7, 1.4), 3: (57, 5.09823498869952)}
    for n, (norm, ratio) in expected.items():
        rep = torsion_norm_bound(rcg_build(Q, CTX5, n))
        assert rep.delta_order == 2 and not rep.vacuous
        assert len(rep.rows) == 1
        assert rep.rows[0][1] == norm
        assert rep.rows[0][2] == pytest.approx(ratio)
        assert rep.passed


def test_torsion_norm_bound_vacuous():
    ctx3 = prime_above(Q, 3)
    for n in (1, 2):
        rep = torsion_norm_bound(rcg_build(Q, ctx3, n))
        assert rep.vacuous and rep.passed and rep.rows == ()


def test_torsion_norm_bound_sqrt2():
    # mod (7 + 2 sqrt(2)) the unit residues only cover a fifth of the
    # residue classes, leaving a genuine C4 of prime-to-41 torsion
    ctx41 = prime_above(K, 41)
    rep = torsion_norm_bound(rcg_build(K, ctx41, 1))
    assert rep.delta_order == 4
    assert [row[1] for row in rep.rows] == [2, 4, 8]
    assert rep.constant == pytest.approx(2 / 41 ** 0.25)
    assert rep.passed


def test_torsion_norm_bound_level_mismatch():
    rcg = rcg_build(Q, CTX5, 2)
    with pytest.raises(ValueError, match="level"):
        torsion_norm_bound(rcg, 3)
