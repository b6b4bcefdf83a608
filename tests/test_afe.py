"""Two-sided smoothed sums: oracle equivalence, reflection residuals, orbit
averages, and the guard rails around cutoff configuration."""

import gc
import math
import weakref
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from lcentral.afe import (AFEConfig, afe_lvalue, averaged_coefficient_lvalue,
                          character_value_table, choose_cutoffs, direct_series,
                          exponent_window, functional_equation_residual,
                          lambda_completed, orbit_average_lvalue,
                          parity_and_constant)
from lcentral.charsums import CoefficientFieldContext, galois_orbit
from lcentral.fields import nf_load
from lcentral.newforms import builtin_newform
from lcentral.rayclass import PrimeContext, rcg_build

Q = nf_load("rationals")
K = nf_load("quadratic-sqrt2")
CTX5 = CoefficientFieldContext(p=5, n0=0)


@pytest.fixture(scope="module")
def delta():
    # enough coefficients for every direct-series comparison in this file
    return builtin_newform("delta", limit=100000)


@pytest.fixture(scope="module")
def rcg25():
    return rcg_build(Q, PrimeContext(Q, 5, Q.element_from_int(5)), 2)


def order5_chars(rcg):
    chars = [rcg.character_by_index(i) for i in range(rcg.order)]
    return [c for c in chars if c.order == 5 and c.is_primitive()]


# -- archimedean constant ----------------------------------------------------

def test_constant_and_parity_rationals():
    for type_j in ((), (0,)):
        c, ok = parity_and_constant(Q, type_j, (12,))
        assert c == -1
        assert ok


def test_constant_parallel_weight_sqrt2():
    c, ok = parity_and_constant(K, (0, 1), (12, 12))
    assert c == 1
    assert ok
    # one twisted and one plain real place: the quarter-phases cancel
    c, ok = parity_and_constant(K, (0,), (12, 12))
    assert c == 1
    assert ok


def test_parity_imaginary_quadratic_shape():
    # only the signature enters; any even weight at the one complex place
    fake = SimpleNamespace(signature=(0, 1), label="imag-quad-stub")
    for k in (2, 4, 12):
        _, ok = parity_and_constant(fake, (), (k,))
        assert ok


def test_constant_validation():
    with pytest.raises(ValueError):
        parity_and_constant(Q, (1,), (12,))       # no real place index 1
    with pytest.raises(ValueError):
        parity_and_constant(Q, (), (12, 10))      # too many weight entries
    with pytest.raises(ValueError):
        parity_and_constant(K, (), (12, 10))      # non-parallel real weights


def test_exponent_window_values():
    assert exponent_window(0, 2) == (Fraction(1), Fraction(3))
    assert exponent_window(Fraction(1, 4), 2) == (Fraction(4, 3), Fraction(2))
    with pytest.raises(ValueError):
        exponent_window(Fraction(1, 2), 2)
    with pytest.raises(ValueError):
        exponent_window(-1, 2)
    with pytest.raises(ValueError):
        exponent_window(0, 0)


# -- oracle equivalence ------------------------------------------------------

def test_untwisted_matches_direct_series(delta):
    res = afe_lvalue(delta, None, s=8.0)
    direct, _ = direct_series(delta, None, s=8.0, terms=100000)
    assert abs(res.value - direct) / abs(direct) < 1e-8
    # frozen regression pin for the two-sided assembly itself
    assert abs(res.value - 0.9307070302981278) < 1e-10
    assert res.character_label == "trivial"


def test_twisted_matches_direct_series(delta, rcg25):
    for chi in order5_chars(rcg25)[:2]:
        res = afe_lvalue(delta, chi, s=8.0)
        direct, _ = direct_series(delta, chi, s=8.0, terms=100000)
        assert abs(res.value - direct) / abs(direct) < 1e-8
        assert res.character_label == chi.label


def test_y_invariance_at_center(delta, rcg25):
    chi = order5_chars(rcg25)[0]
    y0 = math.sqrt(625.0)
    base = afe_lvalue(delta, chi, s=6.0, y=y0).value
    for fac in (0.5, 2.0):
        moved = afe_lvalue(delta, chi, s=6.0, y=fac * y0).value
        assert abs(moved - base) / abs(base) < 1e-8


def test_direct_series_precondition(delta):
    with pytest.raises(ValueError, match="direct summation needs"):
        direct_series(delta, None, s=6.0)
    value, tail = direct_series(delta, None, s=8.0, terms=50000)
    assert tail > 0
    # the majorant is monotone in the truncation point
    _, tail_less = direct_series(delta, None, s=8.0, terms=10000)
    assert tail < tail_less


def test_divisor_count_majorant():
    # d(n) <= sqrt(3 n) backs every tail bound; the peak sits at n = 12
    counts = np.zeros(20001)
    for i in range(1, 20001):
        counts[i::i] += 1
    ratios = counts[1:] ** 2 / np.arange(1, 20001)
    assert ratios.max() <= 3.0000001
    assert int(np.argmax(ratios)) + 1 == 12


# -- reflection identity -----------------------------------------------------

def test_reflection_residual_untwisted(delta):
    for s in (5.5, 6.5):
        assert functional_equation_residual(delta, None, s=s) < 1e-6


def test_reflection_residual_twisted(delta, rcg25):
    chi = order5_chars(rcg25)[0]
    for s in (5.5, 6.5):
        assert functional_equation_residual(delta, chi, s=s) < 1e-6


def test_completed_value_consistency(delta):
    # Lam(s) = Gamma_F(s) Med^(s/2) L(s) on the untwisted diagonal
    from lcentral.afe import gamma_factor_for
    lam = lambda_completed(delta, None, 6.0)
    res = afe_lvalue(delta, None, s=6.0)
    gam = gamma_factor_for(Q, delta.gamma_shifts)
    assert abs(lam - gam.value(6.0) * res.value) < 1e-12 * abs(lam)


# -- orbit averages ----------------------------------------------------------

def test_orbit_routes_agree(delta, rcg25):
    chi = order5_chars(rcg25)[0]
    mean_a, results = orbit_average_lvalue(delta, chi, CTX5, y=25.0)
    mean_b, info = averaged_coefficient_lvalue(delta, chi, CTX5, y=25.0)
    assert info["orbit_size"] == 4
    assert len(results) == 4
    assert abs(mean_a - mean_b) / abs(mean_a) < 1e-7
    # frozen level-one average (both routes land here)
    assert abs(mean_a - 1.1328540440214652) < 1e-9
    assert abs(info["main_term"] - 1) < 1e-4


def test_orbit_seed_invariance(delta, rcg25):
    # any member of the orbit is an equally good seed
    chi = order5_chars(rcg25)[0]
    base, _ = orbit_average_lvalue(delta, chi, CTX5, y=25.0)
    for alt in galois_orbit(chi, CTX5)[1:]:
        again, _ = orbit_average_lvalue(delta, alt, CTX5, y=25.0)
        assert abs(again - base) < 1e-13  # same set, summation order aside


def test_trivial_orbit_degenerates_to_untwisted(delta, rcg25):
    trivial = next(rcg25.character_by_index(i) for i in range(rcg25.order)
                   if rcg25.character_by_index(i).is_trivial())
    mean, results = orbit_average_lvalue(delta, trivial, CTX5)
    untwisted = afe_lvalue(delta, None).value
    assert mean == untwisted
    assert len(results) == 1
    mean_b, info = averaged_coefficient_lvalue(delta, trivial, CTX5)
    assert mean_b == untwisted
    assert info["orbit_size"] == 1


def test_error_estimate_dominates_y_motion(delta, rcg25):
    chi = order5_chars(rcg25)[0]
    at_y = afe_lvalue(delta, chi, s=6.0, y=25.0)
    at_2y = afe_lvalue(delta, chi, s=6.0, y=50.0)
    assert abs(at_y.value - at_2y.value) <= at_y.error_estimate


# -- configuration guard rails -----------------------------------------------

def test_insufficient_cutoffs_raise(delta):
    bad = AFEConfig(y=25.0, cutoff_main=40, cutoff_dual=40, tol=1e-9)
    chi = None
    with pytest.raises(ValueError, match="cannot meet tolerance"):
        afe_lvalue(delta, chi, s=6.0, cfg=bad)


def test_short_form_raises():
    stub = builtin_newform("delta", limit=100)
    with pytest.raises(ValueError, match="reload the form"):
        afe_lvalue(stub, None, s=6.0, y=30.0)


@pytest.mark.parametrize("p, n, a, need", [
    (13, 3, 1.34, 716799), (13, 3, 1.4, 1137379), (149, 1, 1.98, 585036)])
def test_cutoffs_are_chosen_from_the_form_header(p, n, a, need):
    # the rows a fixed padding on p^demand undersized; the helper gives the
    # longest sum from the header of a 16-coefficient probe, no table needed
    probe = builtin_newform("delta", limit=16)
    cfg = choose_cutoffs(probe, Q, p ** (n + 1), y=float(p) ** (a * n))
    assert max(cfg.cutoff_main, cfg.cutoff_dual) == need


def test_imprimitive_twist_rejected(delta):
    rcg3 = rcg_build(Q, PrimeContext(Q, 5, Q.element_from_int(5)), 3)
    imprim = next(rcg3.character_by_index(i) for i in range(rcg3.order)
                  if not rcg3.character_by_index(i).is_trivial()
                  and not rcg3.character_by_index(i).is_primitive())
    with pytest.raises(ValueError, match="primitive"):
        afe_lvalue(delta, imprim, s=8.0)


# -- character tables --------------------------------------------------------

def test_character_table_structure(rcg25):
    chi = order5_chars(rcg25)[0]
    tab = character_value_table(chi)
    assert len(tab) == 25
    assert all(tab[r] == 0 for r in range(0, 25, 5))
    for a in (2, 3, 7, 11):
        for b in (2, 3, 7, 11):
            assert abs(tab[a * b % 25] - tab[a] * tab[b]) < 1e-12
    mags = np.abs(tab[[r for r in range(25) if r % 5]])
    assert np.max(np.abs(mags - 1)) < 1e-12


# -- memory ------------------------------------------------------------------

def test_afe_keeps_no_twist_or_form_alive():
    # afe memoises only value-keyed objects and keeps coefficient arrays on
    # the form, so after an orbit average at conductor 625 dropping the form
    # and the characters frees both.  Every character of the level holds its
    # ray class group, so a freed group means no orbit member survived.
    form = builtin_newform("delta", limit=11921)
    rcg = rcg_build(Q, PrimeContext(Q, 5, Q.element_from_int(5)), 4)
    seed = next(c for c in map(rcg.character_by_index, range(rcg.order))
                if c.order == 125 and c.is_primitive())
    _, results = orbit_average_lvalue(form, seed, CTX5)
    assert len(results) == 100 and results[0].terms_dual == 11921
    refs = [weakref.ref(form), weakref.ref(rcg)]
    del form, rcg, seed
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
