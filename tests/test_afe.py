"""Two-sided smoothed sums: oracle equivalence, reflection residuals, orbit
averages, and the guard rails around cutoff configuration."""

import dataclasses
import gc
import itertools
import math
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from lcentral import afe, charsums, tau
from lcentral.afe import (AFEConfig, afe_lvalue, archimedean_constant,
                          averaged_coefficient_lvalue, character_value_table,
                          choose_cutoffs, direct_series, exponent_window,
                          functional_equation_residual, load_for_sums,
                          orbit_average_lvalue)
from lcentral.charsums import galois_orbit
from lcentral.experiment import ExperimentConfig, _Setup
from lcentral.fields import nf_load
from lcentral.newforms import builtin_newform, newform_load
from lcentral.rayclass import (HeckeCharacter, PrimeContext, rcg_build,
                              seed_character)
from oracles import traced

Q = nf_load("rationals")
K = nf_load("quadratic-sqrt2")


@pytest.fixture(scope="module")
def delta():
    # enough coefficients for every direct-series comparison in this file
    return builtin_newform("delta", limit=100000)


@pytest.fixture(scope="module")
def rcg25():
    return rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 2)


def order5_chars(rcg):
    chars = [rcg.character_by_index(i) for i in range(rcg.order)]
    return [c for c in chars if c.order == 5 and c.is_primitive()]


# -- archimedean constant ----------------------------------------------------

def parity_and_constant(nf, type_j, weights):
    """The general constant with its parity certificate, for signature
    (r1, r2) and any weight vector: the oracle of `archimedean_constant`.

        C = (-1)^(r1 + sum over complex places (k_sigma - 1)) * e(q),
        q = sum_{real, not in J} k_sigma/4 - sum_{real, in J} k_sigma/4

    The certificate checks, in exact Fraction arithmetic, that
    (-1)^(r1 (k - 2)) C^2 = 1 for the parallel weight k.
    """
    r1, r2 = nf.signature
    weights = tuple(int(w) for w in weights)
    if len(weights) != r1 + r2:
        raise ValueError("need one weight entry per archimedean place")
    jset = frozenset(type_j)
    if not jset <= set(range(r1)):
        raise ValueError("twisted places must index real embeddings (0-based)")

    q = Fraction(0)
    for i in range(r1):
        q += Fraction(-weights[i], 4) if i in jset else Fraction(weights[i], 4)
    sign_exp = r1 + sum(weights[r1 + i] - 1 for i in range(r2))

    phase = q % 1
    quarter_table = {
        Fraction(0): 1 + 0j,
        Fraction(1, 4): 1j,
        Fraction(1, 2): -1 + 0j,
        Fraction(3, 4): -1j,
    }
    root = quarter_table.get(phase)
    if root is None:
        root = complex(math.cos(2 * math.pi * phase), math.sin(2 * math.pi * phase))
    c = root if sign_exp % 2 == 0 else -root

    if r1 > 0:
        if len(set(weights[:r1])) != 1:
            raise ValueError("parity certificate needs a parallel weight over the real places")
        k = weights[0]
        parity_ok = (Fraction(r1 * (k - 2), 2) + 2 * q) % 1 == 0
    else:
        parity_ok = (2 * q) % 1 == 0
    return c, parity_ok


def test_constant_matches_the_general_oracle():
    # every loadable header: r1 in {1, 2}, J any subset of the places, and
    # parallel k = 1..40; the closed form must equal the general constant
    # and the certificate must hold, so no admitted header loses a check
    cases = 0
    for nf in (Q, K):
        r1 = nf.signature[0]
        for size in range(r1 + 1):
            for type_j in itertools.combinations(range(r1), size):
                for k in range(1, 41):
                    want, parity_ok = parity_and_constant(nf, type_j, (k,) * r1)
                    assert parity_ok
                    assert archimedean_constant(nf, type_j, k) == want
                    cases += 1
    assert cases == 240


def test_constant_and_parity_rationals():
    for type_j in ((), (0,)):
        assert archimedean_constant(Q, type_j, 12) == -1
        assert parity_and_constant(Q, type_j, (12,)) == (-1, True)


def test_constant_parallel_weight_sqrt2():
    assert archimedean_constant(K, (0, 1), 12) == 1
    # one twisted and one plain real place: the quarter-phases cancel
    assert archimedean_constant(K, (0,), 12) == 1


def test_constant_validation():
    # the header checks the constant relies on are made once, by the loader
    base = {"label": "t", "atkin_lehner": -1, "prime_eigenvalues": {"2": -24}}
    with pytest.raises(ValueError, match="type_J"):
        newform_load(dict(base, weight_vector=[12], type_J=[1]), limit=2)
    with pytest.raises(ValueError, match="weight_vector"):
        newform_load(dict(base, weight_vector=[12, 10]), limit=2)
    with pytest.raises(ValueError, match="weight_vector"):
        newform_load(dict(base, field_label="quadratic-sqrt2",
                          weight_vector=[12, 10]), limit=2)


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
    direct, _ = direct_series(delta, None, s=8.0)
    assert abs(res.value - direct) / abs(direct) < 1e-8
    # frozen regression pin for the two-sided assembly itself
    assert abs(res.value - 0.9307070302981278) < 1e-10
    assert res.character_label == "trivial"


def test_twisted_matches_direct_series(delta, rcg25):
    for chi in order5_chars(rcg25)[:2]:
        res = afe_lvalue(delta, chi, s=8.0)
        direct, _ = direct_series(delta, chi, s=8.0)
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
    # the series runs to the form's last coefficient
    value, tail = direct_series(builtin_newform("delta", limit=50000), None, s=8.0)
    assert tail > 0
    # the majorant is monotone in the truncation point
    _, tail_less = direct_series(builtin_newform("delta", limit=10000), None, s=8.0)
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


def test_reflection_residual_refuses_a_vanishing_completed_value(delta):
    # with eta = +1 the sign C W eta is -1, so at the central point and the
    # balanced y the two half-sums cancel exactly: the relative residual is
    # refused there, and off the balance point it is still a number
    flipped = dataclasses.replace(delta, eta=1)
    with pytest.raises(ValueError, match="vanishes at s = 6 for the twist trivial: "
                                         "the relative residual is undefined"):
        functional_equation_residual(flipped, None, s=6.0)
    assert math.isfinite(functional_equation_residual(flipped, None, s=6.0, y=2.0))


def test_a_field_read_from_a_path_is_loaded_once(delta, tmp_path):
    # the engine reads the field off the form; a field document at a path is
    # read once, so a second evaluation builds no kernel or prefab array
    path = tmp_path / "rationals.json"
    path.write_text((Path(afe.__file__).parent / "fielddata" / "rationals.json").read_text())
    form = dataclasses.replace(delta, field_label=str(path))
    first = afe_lvalue(form, None, s=6.0, y=30.0)
    kept = set(form._derived)
    again = afe_lvalue(form, None, s=6.0, y=30.0)
    assert set(form._derived) == kept and again == first
    assert first.value == afe_lvalue(delta, None, s=6.0, y=30.0).value


def test_completed_value_consistency(delta):
    # Lam(s) = Gamma_F(s) Med^(s/2) L(s) on the untwisted diagonal
    from lcentral.afe import gamma_factor_for
    lam = afe._completed(delta, None, 6.0, None)[0]
    res = afe_lvalue(delta, None, s=6.0)
    gam = gamma_factor_for(Q, delta.gamma_shifts)
    assert abs(lam - gam.value(6.0) * res.value) < 1e-12 * abs(lam)


# -- orbit averages ----------------------------------------------------------

def test_orbit_routes_agree(delta, rcg25):
    chi = order5_chars(rcg25)[0]
    mean_a, res = orbit_average_lvalue(delta, chi, y=25.0)
    mean_b, info = averaged_coefficient_lvalue(delta, chi, y=25.0)
    assert len(res.value) == len(res.dual_term) == 4
    assert abs(mean_a - mean_b) / abs(mean_a) < 1e-7
    # frozen level-one average (both routes land here)
    assert abs(mean_a - 1.1328540440214652) < 1e-9
    assert abs(info["main_term"] - 1) < 1e-4


def test_orbit_seed_invariance(delta, rcg25):
    # any member of the orbit is an equally good seed
    chi = order5_chars(rcg25)[0]
    base, _ = orbit_average_lvalue(delta, chi, y=25.0)
    for alt in galois_orbit(chi, 0)[1:]:
        again, _ = orbit_average_lvalue(delta, alt, y=25.0)
        assert abs(again - base) < 1e-13  # same set, summation order aside


@pytest.mark.parametrize("route", [orbit_average_lvalue, averaged_coefficient_lvalue],
                         ids=["route-one", "route-two"])
@pytest.mark.parametrize("kind", ["trivial", "imprimitive"])
def test_orbit_routes_refuse_a_seed_that_is_not_primitive(delta, route, kind):
    # the trivial character is never primitive at a level >= 1; its value is
    # afe_lvalue's untwisted one, not an orbit average
    rcg = rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 3)
    seed = next(c for c in map(rcg.character_by_index, range(rcg.order))
                if c.is_trivial() == (kind == "trivial") and not c.is_primitive())
    with pytest.raises(ValueError, match="seed twist must be primitive at its level"):
        route(delta, seed)


# (n0, n) rows at p = 5, y = 5^(1.15 n); n0 = 2 at n = 3 would need 9.2M
# coefficients, and stays out of the suite
DEEP_ROWS = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


@pytest.fixture(scope="module")
def deep_delta():
    # Delta to the longest cutoff of DEEP_ROWS (2,353,798, at n0 = 2, n = 2)
    return load_for_sums("delta", builtin_newform("delta", limit=16), [
        (5 ** (n + n0 + 1), 5.0 ** (1.15 * n)) for n0, n in DEEP_ROWS])


@pytest.mark.parametrize("n0, n", DEEP_ROWS)
def test_orbit_routes_agree_at_depth(deep_delta, n0, n):
    # a coefficient field with p-power roots of unity to depth n0: both
    # routes read n0 from the form, and the seed of conductor 5^(n + n0 + 1)
    # has an orbit of 5^n members, t = 1 mod 5^n0
    form = dataclasses.replace(deep_delta, n0=n0)
    seed = seed_character(rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), n + n0 + 1))
    y = 5.0 ** (1.15 * n)
    mean_a, res = orbit_average_lvalue(form, seed, y=y)
    mean_b, _ = averaged_coefficient_lvalue(form, seed, y=y)
    assert len(res.value) == 5 ** n
    assert abs(mean_a - mean_b) <= 1e-12


@pytest.fixture(scope="module")
def tower():
    # the inputs of lav-scan --p 5 --n-lo 1 --n-hi 3 --a 2; its table also
    # covers n = 4 at a = 1.25
    return _Setup(ExperimentConfig(n_lo=1, n_hi=3))


@pytest.mark.parametrize("n, a, step", [(1, 2.0, 1), (2, 2.0, 1), (3, 2.0, 1),
                                        (4, 1.25, 25)])
def test_orbit_members_match_per_character_values(tower, n, a, step):
    # route one's folded half-sums and one-FFT root numbers against the
    # per-character oracle, member by member
    seed = tower.seed_character(n + 1)
    y = 5.0 ** (a * n)
    mean, res = orbit_average_lvalue(tower.form, seed, y=y)
    orbit = galois_orbit(seed, 0)
    assert len(res.value) == len(res.dual_term) == len(orbit)
    assert res.character_label == seed.label
    for i in range(0, len(orbit), step):
        want = afe_lvalue(tower.form, orbit[i], y=y)
        assert abs(res.value[i] - want.value) < 1e-12
        assert abs(res.dual_term[i] - want.dual_term) < 1e-12
    # the fields every member shares, compared once
    assert res.main_term == want.main_term
    assert res.error_estimate == want.error_estimate
    assert (res.y, res.terms_main, res.terms_dual) == (want.y, want.terms_main,
                                                        want.terms_dual)
    assert mean == sum(res.value.tolist()) / len(orbit)


def test_orbit_route_calls_no_per_character_path(tower, monkeypatch):
    calls = []

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(afe, "afe_lvalue")
    counted(afe, "character_value_table")
    counted(charsums, "gauss_sum")
    _, res = orbit_average_lvalue(tower.form, tower.seed_character(4), y=5.0 ** 6)
    assert len(res.value) == 100
    assert calls == []


def test_orbit_route_builds_one_record_not_one_per_member(tower, monkeypatch):
    # route one labels its result with the seed, so the orbit of 100 at
    # conductor 625 builds no more characters than the orbit of 20 at 125.
    # Each call runs once first, so a warm cache does not tell them apart.
    seeds = {n: tower.seed_character(n + 1) for n in (2, 3)}
    for n, seed in seeds.items():
        orbit_average_lvalue(tower.form, seed, y=5.0 ** (2 * n))
    built = []
    init = HeckeCharacter.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(HeckeCharacter, "__init__", counted)
    counts = []
    for n, seed in seeds.items():
        before = len(built)
        orbit_average_lvalue(tower.form, seed, y=5.0 ** (2 * n))
        counts.append(len(built) - before)
    assert counts[0] == counts[1]


def test_route_two_builds_the_orbit_once():
    # route two reads the substitutions of its orbit in its character table,
    # its root numbers and its root-weighted table: at conductor 5^7 (an
    # orbit of 12,500) they are built once.  The coefficients do not matter
    # here, so a table of a(1) alone serves.
    seed = seed_character(rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 7))
    probe = builtin_newform("delta", limit=16)
    cfg = choose_cutoffs(probe, seed.conductor_norm)
    need = max(cfg.cutoff_main, cfg.cutoff_dual)
    table = np.zeros(need + 1)
    table[1] = 1.0
    form = dataclasses.replace(probe, table=table)
    charsums._substitution_array.cache_clear()
    averaged_coefficient_lvalue(form, seed)
    builds = charsums._substitution_array.cache_info()
    assert (builds.misses, builds.hits, builds.currsize) == (1, 2, 1)
    assert len(charsums.substitutions(seed, form.n0)) == 12500


def test_error_estimate_dominates_y_motion(delta, rcg25):
    chi = order5_chars(rcg25)[0]
    at_y = afe_lvalue(delta, chi, s=6.0, y=25.0)
    at_2y = afe_lvalue(delta, chi, s=6.0, y=50.0)
    assert abs(at_y.value - at_2y.value) <= at_y.error_estimate


# -- decay majorants -----------------------------------------------------------

@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("s", [4.0, 5.5, 6.0, 6.5, 8.0])
def test_decay_majorants_bound_v_past_their_grid(s, sign):
    # the kernel of each half-sum at s (sign +1 the form's own coefficients
    # at s, -1 the dual sum at k - s): every order's peak lies inside the grid
    # (else _decay_constants raises), and K_j x^(-j) bounds |V| on a denser
    # grid reaching past its top
    kern = afe._kernels(Q, (0,), 12, s)[(1 - sign) // 2]
    assert kern.s == (s if sign == 1 else 12 - s)
    consts = afe._decay_constants(kern)
    assert tuple(consts) == afe.DECAY_ORDERS
    xs = np.geomspace(1.0, 200.0, 20001)
    vals = np.abs(kern.value_tail(xs))
    for j, kj in consts.items():
        assert 0 < kj < math.inf
        assert np.all(vals * xs ** j <= kj), j


def test_central_point_shares_one_kernel_between_the_sides():
    # at s = k/2 both half-sums read V at the same spectral point, so one
    # kernel, one decay cutoff and one set of decay constants serve both
    main, dual = afe._kernels(Q, (0,), 12, 6.0)
    assert main is dual
    main, dual = afe._kernels(Q, (0,), 12, 5.5)
    assert main is not dual
    assert (main.s, dual.s) == (5.5, 6.5)


class _StubKernel:
    """A stand-in V kernel: decay cutoff 1 and the given |V|."""

    def __init__(self, v):
        self._v = v

    def decay_cutoff(self):
        return 1.0

    def value_tail(self, xs):
        return self._v(xs)


@pytest.mark.parametrize("v", [np.ones_like, lambda xs: 1e300 * np.exp(-xs)],
                         ids=["peak-at-the-top", "overflow"])
@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_decay_majorant_without_a_finite_inner_peak_raises(v):
    # a V that never decays peaks in the top cell, past which K_j x^(-j)
    # would not bound it; a product that overflows is no majorant either
    with pytest.raises(ValueError, match="no finite peak"):
        afe._decay_constants.__wrapped__(_StubKernel(v))


def test_tail_majorant_past_the_float_range_of_scale_to_the_j(delta):
    # at scale 1e10, scale^32 overflows a float; the majorant is formed from
    # (scale/m)^j and equals the same bound taken in logarithms
    kern = afe.vkernel_for(Q, (0,), 6.0)
    scale, m = 1e10, 10 ** 12
    with pytest.raises(OverflowError):
        scale ** 32
    logs = []
    for j, kj in afe._decay_constants(kern).items():
        alpha = 6.0 + j - 5.5
        logs.append(math.log(2.0 * math.sqrt(3.0) * kj / (alpha - 1.5))
                    + j * math.log(scale) + (1.5 - alpha) * math.log(m))
    got = afe._half_sum_tail(delta, kern, 6.0, scale, m)
    assert got == pytest.approx(math.exp(min(logs)), rel=1e-12)


# -- configuration guard rails -----------------------------------------------

def test_insufficient_cutoffs_raise(monkeypatch):
    # choose_cutoffs grows V's decay cutoffs until their tail majorant meets
    # TAIL_BUDGET, before any table is sized; a budget that no table under
    # the coefficient cap meets refuses the configuration
    probe = builtin_newform("delta", limit=16)
    assert choose_cutoffs(probe, 25) == AFEConfig(25.0, 245, 245)
    assert choose_cutoffs(probe, 25, s=1.0) == AFEConfig(25.0, 263, 306)
    monkeypatch.setattr(afe, "TAIL_BUDGET", 0.0)
    with pytest.raises(ValueError, match=r"cannot meet tolerance 0: tail bound"):
        choose_cutoffs(probe, 25)


def test_explicit_undersized_cutoffs_report_their_tail_majorant(delta, rcg25):
    # explicit cutoffs are summed as given, and the error estimate carries
    # their tail majorant, however far past the budget it lies
    bad = AFEConfig(y=25.0, cutoff_main=40, cutoff_dual=40)
    chi = order5_chars(rcg25)[0]
    _, res = orbit_average_lvalue(delta, chi, cfg=bad)
    eng = afe._engine(delta, chi, 6.0, None, bad)
    majorant = sum(afe._tail_majorants(delta, eng.kern, 6.0, eng.med, 25.0, 40, 40))
    majorant /= abs(eng.gamma_s)
    assert res.terms_main == res.terms_dual == 40
    assert afe.TAIL_BUDGET < majorant <= res.error_estimate


def test_short_form_raises():
    stub = builtin_newform("delta", limit=100)
    with pytest.raises(ValueError, match="carries coefficients to 100 but the sums need"):
        afe_lvalue(stub, None, s=6.0, y=30.0)


@pytest.mark.parametrize("p, n, a, need", [
    (13, 3, 1.34, 293598), (13, 3, 1.4, 465868), (149, 1, 1.98, 239628)])
def test_cutoffs_are_chosen_from_the_form_header(p, n, a, need):
    # the rows a fixed padding on p^demand undersized; the helper gives the
    # longest sum from the header of a 16-coefficient probe, no table needed
    probe = builtin_newform("delta", limit=16)
    cfg = choose_cutoffs(probe, p ** (n + 1), y=float(p) ** (a * n))
    assert max(cfg.cutoff_main, cfg.cutoff_dual) == need


def test_imprimitive_twist_rejected(delta):
    rcg3 = rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 3)
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
    form = builtin_newform("delta", limit=6104)
    rcg = rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 4)
    seed = next(c for c in map(rcg.character_by_index, range(rcg.order))
                if c.order == 125 and c.is_primitive())
    _, res = orbit_average_lvalue(form, seed)
    assert len(res.value) == 100 and res.terms_dual == 6104
    refs = [weakref.ref(form), weakref.ref(rcg)]
    del form, rcg, seed
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("p, n, a", [(5, 4, 2.0), (5, 7, 1.15)])
def test_reach_fits_under_the_coefficient_cap(p, n, a):
    # the longest sum of a scan row, from a 16-coefficient probe's header:
    # the rows the width-1 bump put past the cap now fit under it
    probe = builtin_newform("delta", limit=16)
    cfg = choose_cutoffs(probe, p ** (n + 1), y=float(p) ** (a * n))
    assert max(cfg.cutoff_main, cfg.cutoff_dual) <= tau.TAU_LIMIT_CAP


# -- prefab arrays and residue indices built in place ---------------------------

@pytest.mark.parametrize("s", [5.5, 6.0, 6.5])
@pytest.mark.parametrize("eta", [-1, 1])
def test_prefab_in_place_keeps_the_expression(delta, s, eta):
    # the array is built in the buffer of n and must equal the expression
    # a(n) n^(-s) V(n/scale) whatever eta, which multiplies the dual sum
    form = dataclasses.replace(delta, eta=eta)
    kern = afe.vkernel_for(Q, (0,), s)
    count, scale = 30000, 37.5
    ns = np.arange(1, count + 1, dtype=np.float64)
    got = afe._prefab(form, kern, scale, count)
    want = form.coefficient_array(count)[1:] * ns ** (-s) * kern.value(ns / scale)
    assert np.array_equal(got, want)
    assert not got.flags.writeable
    eng = afe._engine(form, None, s, scale)
    pre1, pre2 = afe._prefabs(form, eng)
    s1, s2, _ = afe._two_sided(form, eng, None, None)
    assert s1 == complex(np.sum(pre1)) and s2 == complex(np.sum(eta * pre2))


@pytest.mark.parametrize("count, mod", [(7, 25), (24, 25), (25, 25), (26, 25),
                                        (1, 1), (10, 1), (1000, 125), (152588, 625)])
def test_mod_index_is_n_mod_the_modulus(count, mod):
    # block by block, as _dot reads it: past the first, the blocks of 152588
    # terms start at multiples of 2^14, none a multiple of 625, so each
    # starts inside a period
    got = [afe._mod_index(lo, min(lo + afe._BLOCK, count), mod)
           for lo in range(0, count, afe._BLOCK)]
    assert all(g.dtype == np.int64 for g in got)
    assert np.array_equal(np.concatenate(got), np.arange(1, count + 1) % mod)
    # and a short block on each side of a period's end
    for lo in (mod - 1, mod, 2 * mod - 2):
        assert np.array_equal(afe._mod_index(lo, lo + 3, mod), np.arange(lo + 1, lo + 4) % mod)


@pytest.mark.parametrize("count, mod", [(7, 25), (25, 25), (26, 25), (4000, 25),
                                        (152588, 625), (152588, 3125), (152588, 7)])
def test_fold_is_the_bincount_bit_for_bit(count, mod):
    # route one's residue bins: the axis-0 sum of whole periods plus the
    # tail makes np.bincount's additions in its order, so every bit agrees
    pre = np.random.default_rng(count + mod).standard_normal(count)
    want = np.bincount(np.arange(1, count + 1) % mod, weights=pre, minlength=mod)
    got = afe._fold(pre, mod)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_row_half_sums_stay_within_a_few_blocks(tower):
    # one n = 3 row's half-sums on both routes, its prefabs built first:
    # route one folds and transforms 625 bins, route two gathers and dots
    # one block at a time, so the peak is a few blocks' arrays (measured at
    # 4.1 blocks of float64: a block's index, its gathered values and the
    # complex weights of their product), not a multiple of the count
    seed = tower.seed_character(4)
    eng = afe._engine(tower.form, seed, 6.0, 5.0 ** 6)
    pres = afe._prefabs(tower.form, eng)
    assert len(pres[0]) > 9 * afe._BLOCK   # the main side's 152588 terms
    tables = (charsums.averaged_char_table(seed, 0),
              charsums.averaged_iota_table(seed, 0))
    pctx, level = seed.prime_ctx, seed.level
    mod = pctx.modulus(level)

    def half_sums():
        return ([charsums.character_sums(pctx, level, afe._fold(pre, mod)) for pre in pres],
                [afe._dot(pre, table) for pre, table in zip(pres, tables)])
    _, _, peak = traced(half_sums, half_sums)
    assert peak <= 5 * 8 * afe._BLOCK
