"""Unit-orbit reduction and exact progression counting.

The frozen counts in this file were measured with redundantly enlarged
enumeration boxes (2x and 3x agree bit for bit), so they pin the exact
lattice counts rather than floating-point behaviour.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral import cones
from lcentral.cones import (_below, _coord_arrays, _enumerate_coset,
                            _principal_rows, _window_mask, count_progression,
                            fundamental_unit, min_norm_coset, prime_above,
                            sign_plus, torsion_norm_bound, verify_count_bound)
from lcentral.fields import NumberFieldData, nf_load
from lcentral.rayclass import PrimeContext, rcg_build
from lcentral.tau import primes_up_to

Q = nf_load("rationals")
K = nf_load("quadratic-sqrt2")

CTX5 = prime_above(Q, 5)
CTX7 = prime_above(K, 7)


def _coords(x):
    return tuple(int(c) for c in x.coords)


# ---------------------------------------------------------------------------
# fundamental-domain reduction
# ---------------------------------------------------------------------------

def _contains(x, window="standard"):
    """Exact membership of the single element x in the window."""
    return bool(_window_mask(*_coord_arrays(x), x.nf, window)[0])


def _reduce(x):
    """The canonical associate of x in the standard window: |x| over Q;
    over Q(sqrt(m)) a float guess for the unit power, then exact steps across
    the window's edges."""
    if x.is_zero():
        raise ValueError("cannot reduce zero")
    if x.nf.degree == 1:
        return x.nf.element([abs(x.coords[0])])
    eps = fundamental_unit(x.nf)
    y = x if sign_plus(x) > 0 else -x
    s1, s2 = y.nf.embed_element(y)
    log_eps = math.log(y.nf.embed_element(eps)[0])
    y = y * eps ** -math.floor((math.log(abs(s1)) - math.log(abs(s2))) / (2.0 * log_eps))
    for _ in range(8):
        if _contains(y):
            return y
        # a*b < 0 is tau < 0: climb; otherwise tau >= 1: descend
        y = y * (eps if y.coords[0] * y.coords[1] < 0 else eps.inverse())
    raise ArithmeticError(f"unit reduction did not settle for {x!r}")


def test_reduce_spot_values():
    # unit powers collapse to 1; unit multiples of sqrt(2) collapse to sqrt(2)
    for coords, expect in [((3, 2), (1, 0)), ((99, 70), (1, 0)),
                           ((2, 1), (0, 1)), ((24, 17), (0, 1)),
                           ((-2, -1), (0, 1))]:
        assert _coords(_reduce(K.element(coords))) == expect


def test_reduce_rationals_is_absolute_value():
    assert _coords(_reduce(Q.element_from_int(-5))) == (5,)
    assert _coords(_reduce(Q.element_from_int(17))) == (17,)


def test_reduce_zero_raises():
    with pytest.raises(ValueError):
        _reduce(K.zero)


def test_reduce_unit_invariance_and_idempotence():
    eps = fundamental_unit(K)
    rng = random.Random(41)
    units = [eps, eps * eps, eps.inverse(), -eps, -K.one]
    for _ in range(500):
        x = K.element([rng.randint(-60, 60), rng.randint(-60, 60)])
        if x == K.zero:
            continue
        y = _reduce(x)
        assert _contains(y)
        assert _reduce(y) == y
        assert _reduce(-x) == y
        for u in units:
            assert _reduce(u * x) == y


def test_window_membership_matrix():
    eps = fundamental_unit(K)
    inside = [K.one, K.element([0, 1]), K.element_from_int(3)]
    outside = [eps, K.element([2, 1]), K.element([3, 2])]
    for x in inside:
        assert _contains(x)
        assert not _contains(x, window="shifted")
    for x in outside:
        assert not _contains(x)
    # the slope-1 elements land inside the shifted window instead
    assert _contains(eps, window="shifted")
    assert _contains(K.element([2, 1]), window="shifted")


def test_each_window_holds_one_representative_per_orbit():
    eps = fundamental_unit(K)
    rng = random.Random(7)
    for _ in range(300):
        x = K.element([rng.randint(-40, 40), rng.randint(-40, 40)])
        if x == K.zero:
            continue
        for window in ("standard", "shifted"):
            hits = 0
            y = x
            for _ in range(4):
                y = y * eps.inverse()
            for _ in range(9):
                hits += _contains(y, window=window)
                hits += _contains(-y, window=window)
                y = y * eps
            assert hits == 1


def test_window_edge_rule_matches_the_slope():
    # _below(j) is tau < j/2, alike on int64 enumeration arrays and on the
    # object arrays of single elements
    rng = np.random.default_rng(11)
    u, v = rng.integers(-10**4, 10**4, size=(2, 4000))
    keep = (u != 0) | (v != 0)
    u, v = u[keep], v[keep]
    flip = np.where(u + v * math.sqrt(2) > 0, 1, -1)   # sigma_plus > 0
    u, v = u * flip, v * flip
    log_eps = math.log(K.embed_element(fundamental_unit(K))[0])
    tau = (np.log(np.abs(u + v * math.sqrt(2)))
           - np.log(np.abs(u - v * math.sqrt(2)))) / (2.0 * log_eps)
    for j in range(5):
        far = np.abs(tau - j / 2) > 1e-9
        want = tau[far] < j / 2
        assert np.array_equal(_below(u[far], v[far], K, j), want)
        assert np.array_equal(_below(u[far].astype(object), v[far].astype(object),
                                     K, j), want)
    # on the edges themselves: eps^k and eps^k*sqrt(2) have tau = k exactly
    eps = fundamental_unit(K)
    for k in range(-2, 3):
        for x in (eps ** k, eps ** k * K.element([0, 1])):
            ints = tuple(np.array([c], dtype=np.int64) for c in _coords(x))
            for j in range(5):
                assert bool(_below(*ints, K, j)[0]) == (2 * k < j)
                assert bool(_below(*_coord_arrays(x), K, j)[0]) == (2 * k < j)


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


# x^2 - 4 is squarefree with two real roots but defines no field: the
# exact sign test would meet a + 2b = 0 at nonzero (a, b)
SPLIT_DOC = {
    "label": "split-x2-4",
    "min_poly": [-4, 0, 1],
    "integral_basis": [[1, 0], [0, 1]],
    "discriminant": 16,
    "unit_gens": [[-1, 0]],
    "different_gen": [0, 2],
}


# Q(sqrt(5)) given by x^2 - x - 1, and on the basis (1, (1 + sqrt(5))/2)
GOLDEN_DOC = {
    "label": "golden-x2-x-1",
    "min_poly": [-1, -1, 1],
    "integral_basis": [[1, 0], [0, 1]],
    "discriminant": 5,
    "unit_gens": [[-1, 0], [0, 1]],
    "different_gen": [-1, 2],
}

GOLDEN_BASIS_DOC = {
    "label": "sqrt5-golden-basis",
    "min_poly": [-5, 0, 1],
    "integral_basis": [[1, 0], ["1/2", "1/2"]],
    "discriminant": 5,
    "unit_gens": [[-1, 0], [0, 1]],
    "different_gen": [-1, 2],
}


def test_unsupported_fields_are_rejected():
    with pytest.raises(ValueError, match="degree 3"):
        NumberFieldData(CUBIC_DOC)
    with pytest.raises(ValueError, match=r"signature \(0, 1\)"):
        NumberFieldData(GAUSSIAN_DOC)
    with pytest.raises(ArithmeticError, match="rational"):
        NumberFieldData(SPLIT_DOC)
    with pytest.raises(ValueError, match=r"x\^2 - m"):
        nf_load(GOLDEN_DOC)
    with pytest.raises(ValueError, match="integral basis"):
        nf_load(GOLDEN_BASIS_DOC)


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
    assert _principal_rows(prime_above(K, 7).pi) == _principal_rows(hand.pi)


def _prime_above_by_box(nf, p):
    """The (u, v) prime_above picks, by trying every (a, b) in [0, p]^2 and
    their sign variants; None for an inert p."""
    a, b = np.meshgrid(np.arange(p + 1), np.arange(p + 1), indexing="ij")
    best = None
    for a, b in np.argwhere(np.abs(a * a - nf.m * b * b) == p).tolist():
        for u, v in ((a, b), (a, -b), (-a, b), (-a, -b)):
            key = (abs(v), abs(u), v < 0, u < 0)
            if sign_plus(nf.element([u, v])) > 0 and (best is None or key < best[0]):
                best = (key, (u, v))
    return None if best is None else best[1]


def test_prime_above_matches_the_box_search():
    for p in primes_up_to(700)[1:]:
        want = _prime_above_by_box(K, p)
        if want is None:
            with pytest.raises(ValueError, match="inert"):
                prime_above(K, p)
        else:
            assert _coords(prime_above(K, p).pi) == want


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
    # -3(1 + 5Z) meets the positive axis at 12, 27, 42, ... in either window
    for window in ("standard", "shifted"):
        r = count_progression(-3, CTX5, 1, 500, witnesses=True, window=window)
        assert r.count == 33
        assert [_coords(w)[0] for w in r.witnesses[:4]] == [12, 27, 42, 57]


@pytest.mark.parametrize("box_factor", [1.0, 2.0])
def test_count_progression_rationals_is_the_positive_progression(box_factor):
    # over Q the count is the positive integers u <= x with u = alpha mod
    # alpha 5^n, witnesses the least of them, at any box_factor
    for alpha, n, x in ((1, 1, 1), (1, 1, 100), (2, 1, 99.5), (-3, 1, 500),
                        (7, 2, 10 ** 4), (-1, 3, 3000.9), (4, 1, 12345)):
        r = count_progression(alpha, CTX5, n, x, witnesses=True,
                              box_factor=box_factor)
        want = [u for u in range(1, math.floor(x) + 1)
                if (u - alpha) % (alpha * 5 ** n) == 0]
        assert r.count == len(want), (alpha, n, x)
        assert [_coords(w) for w in r.witnesses] == [(u,) for u in want[:len(r.witnesses)]]
        assert len(r.witnesses) == min(len(want), cones.WITNESS_LIMIT)


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


def test_count_progression_slabs_join_exactly(monkeypatch):
    # slabs of one row, of a few rows, and of a whole box must give the same
    # (u, v, |N|) arrays, in the same order, and so the same counts and witnesses
    def run(ctx, n, x, slab):
        monkeypatch.setattr(cones, "SLAB_CANDIDATES", slab)
        rows = _principal_rows(ctx.pi ** n)
        arrays = _enumerate_coset(ctx, rows, ctx.nf.one, x, "standard", 1.0)
        return arrays, count_progression(1, ctx, n, x, witnesses=True)

    for ctx, n, x in ((CTX7, 1, 500), (CTX7, 1, 5000), (CTX7, 2, 5000),
                      (CTX5, 1, 5000), (CTX5, 2, 5000)):
        whole, count = run(ctx, n, x, cones.BOX_CANDIDATE_CAP)
        for slab in (1, 7, 64):
            arrays, sliced = run(ctx, n, x, slab)
            assert all(np.array_equal(a, b) for a, b in zip(arrays, whole))
            assert sliced == count


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
        count_progression(1, CTX5.pi, 1, 10)
    for ctx, n in ((CTX5, 10), (CTX7, 8)):
        with pytest.raises(ValueError, match="residue tables"):
            count_progression(1, ctx, n, 10)


def test_enumeration_box_cap():
    with pytest.raises(ValueError, match="desk-scale cap"):
        count_progression(1, CTX7, 1, 1e12)
    # over Q too: 2e11 candidate multiples are refused, not allocated
    with pytest.raises(ValueError, match="desk-scale cap"):
        count_progression(1, CTX5, 1, 1e12)


# ---------------------------------------------------------------------------
# norm minima
# ---------------------------------------------------------------------------

def _unit_residues(ctx, n):
    """Subgroup of (O/P^n)* generated by the global unit residues, by a
    breadth-first walk from 1."""
    mod = ctx.modulus(n)
    gens = {mod - 1}                            # residue of -1
    for ug in ctx.nf.unit_gens:
        gens.add(ctx.residue(ug, n) % mod)
    seen = {1}
    frontier = [1]
    while frontier:
        r = frontier.pop()
        for g in gens:
            s = (r * g) % mod
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return seen


@pytest.mark.parametrize("nf, primes, levels", [
    (Q, (3, 5, 7), (1, 2, 3, 4)),
    (K, (7, 31, 41), (1, 2, 3)),
], ids=["rationals", "sqrt2"])
def test_trivial_ray_class_is_the_unit_residue_subgroup(nf, primes, levels):
    # min_norm_coset keeps the residues of class 0: they must be exactly the
    # residues of global units
    for p in primes:
        ctx = prime_above(nf, p)
        for n in levels:
            rcg = rcg_build(ctx, n)
            trivial = {r for r in range(ctx.modulus(n))
                       if r % p and rcg.class_of(r) == 0}
            assert _unit_residues(ctx, n) == trivial


def _least_coset_point(ctx, n):
    # min_norm_coset's search, read with the point that attains the minimum
    value, u, v = cones._least_norms(rcg_build(ctx, n), (0,), float(ctx.modulus(n)),
                                     12, min_norm=2)[0]
    assert value == min_norm_coset(ctx, n)
    return value, cones._point(ctx.nf, u, v)


def test_min_norm_coset_rationals():
    assert [min_norm_coset(CTX5, n) for n in (1, 2, 3, 4)] == [4, 24, 124, 624]
    assert [min_norm_coset(prime_above(Q, 3), n) for n in (1, 2, 3)] == [2, 8, 26]
    value, wit = _least_coset_point(CTX5, 2)
    assert value == 24 and _coords(wit) == (24,)
    assert [min_norm_coset(prime_above(Q, 7), n) for n in (1, 2, 3, 4)] == [6, 48, 342, 2400]


def test_min_norm_coset_past_the_residue_cap_refused():
    # 5^10 and 7^8 residues: refused before the unit-residue set is built
    for ctx, n in ((CTX5, 10), (CTX7, 8)):
        with pytest.raises(ValueError, match="residue tables"):
            min_norm_coset(ctx, n)


def test_min_norm_coset_sqrt2():
    # the unit residues generate everything mod 7 and mod 49, so the
    # minimum is realised by the orbit of sqrt(2) at both levels
    for n in (1, 2):
        value, wit = _least_coset_point(CTX7, n)
        assert value == 2
        assert _coords(wit) == (0, 1)
    assert min_norm_coset(CTX7, 2) >= min_norm_coset(CTX7, 1)
    # 1 + sqrt(2) is 31-adically degenerate: past level 1 the least norm
    # leaves the orbit of sqrt(2)
    for n in (2, 3):
        value, wit = _least_coset_point(prime_above(K, 31), n)
        assert value == 82 and _coords(wit) == (10, 3)


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
    assert rep.sup_ratio == 1.0
    assert len(rep.rows) == 15


def test_verify_count_bound_sqrt2():
    rep = verify_count_bound(CTX7, [1, 2], [1, 50, 500, 5000])
    assert rep.row_sups[0] == pytest.approx(1.0)
    assert rep.row_sups[1] == pytest.approx(1.96)


def test_verify_count_bound_flags_drift():
    # a single small x makes the n=2 spike stand alone and trips the check
    with pytest.raises(ArithmeticError, match="drifts"):
        verify_count_bound(CTX7, [1, 2], [50])


def test_torsion_norm_bound_rationals():
    expected = {1: (2, 0.8944271909999159), 2: (7, 1.4), 3: (57, 5.09823498869952)}
    for n, (norm, ratio) in expected.items():
        rep = torsion_norm_bound(rcg_build(CTX5, n))
        assert rep.delta_order == 2 and rep.rows != ()
        assert len(rep.rows) == 1
        assert rep.rows[0][1] == norm
        assert rep.rows[0][2] == pytest.approx(ratio)
        assert rep.passed


def test_torsion_norm_bound_vacuous():
    ctx3 = prime_above(Q, 3)
    for n in (1, 2):
        rep = torsion_norm_bound(rcg_build(ctx3, n))
        assert rep.passed and rep.rows == ()


def test_torsion_norm_bound_sqrt2():
    # mod (7 + 2 sqrt(2)) the unit residues only cover a fifth of the
    # residue classes, leaving a genuine C4 of prime-to-41 torsion
    ctx41 = prime_above(K, 41)
    rep = torsion_norm_bound(rcg_build(ctx41, 1))
    assert rep.delta_order == 4
    assert [row[1] for row in rep.rows] == [2, 4, 8]
    assert rep.constant == pytest.approx(2 / 41 ** 0.25)
    assert rep.passed


@pytest.mark.parametrize("nf, p, n, norms, passed", [
    (Q, 7, 1, [3, 2], True),
    (Q, 7, 2, [18, 19], True),
    (Q, 7, 3, [18, 19], True),
    (Q, 11, 1, [2, 4, 3, 5], True),
    # the class h/2 holds only +-i with i^2 = -1 mod 13^5, so its least
    # norm is far past N(P)^(n/|Delta|) = 13^(5/6)
    (Q, 13, 5, [119056, 150432, 143044, 150433, 109193], True),
    (K, 41, 2, [2, 4, 8], False),
], ids=["Q-p7-n1", "Q-p7-n2", "Q-p7-n3", "Q-p11-n1", "Q-p13-n5", "sqrt2-p41-n2"])
def test_torsion_norm_bound_several_classes(nf, p, n, norms, passed):
    # rows follow torsion_classes() order and name each class by its least
    # residue; over Q that residue is itself the least norm
    rcg = rcg_build(prime_above(nf, p), n)
    rep = torsion_norm_bound(rcg)
    assert [row[1] for row in rep.rows] == norms
    assert [row[0] for row in rep.rows] == [rcg.min_residue_of_class(b)
                                            for b in rcg.torsion_classes()[1:]]
    if nf is Q:
        assert [row[0] for row in rep.rows] == norms
    assert rep.passed is passed

