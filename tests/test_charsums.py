"""Gauss sums, root numbers, and exact Galois averages."""

import cmath
import json
import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from lcentral import acceptance, charsums
from lcentral.abelian import p_adic_split
from lcentral.charsums import (EXACT_LEVEL_LIMIT, AverageResult,
                               CoefficientFieldContext, _gauss_terms, _recognize,
                               _unit_square, average_char, averaged_char_table,
                               averaged_iota_table, character_sums, galois_orbit,
                               gauss_sum, kloosterman_bound_report, orbit_float_root_numbers,
                               orbit_gauss_sums, orbit_root_numbers,
                               root_number, substitutions)
from lcentral.cli import main, parse_char_label
from lcentral.fields import nf_load
from lcentral.rayclass import (HeckeCharacter, PrimeContext, RayClassGroup,
                               residue_characters, seed_character)
from lcentral.roots import CyclotomicNumber, RootOfUnity
from oracles import kloosterman_dual_table, ramanujan_main_table, traced


def q_setup(n=2):
    Q = nf_load("rationals")
    ctx = PrimeContext(Q, 5, Q.element_from_int(5))
    return Q, ctx, RayClassGroup(ctx, n)


def sqrt2_setup():
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    return K, ctx


def order5_char(rcg):
    return [c for c in rcg.characters() if c.order == 5][0]


def power(root, t):
    """root^t, exactly."""
    return RootOfUnity(root.phase * int(t))


def gauss_sum_conjugation_defect(chi):
    """|conj(G(chi)) - chi(-1) G(conj chi)|, which should vanish."""
    g = gauss_sum(chi)
    gbar = gauss_sum(chi.conjugate())
    return abs(g.conjugate() - chi.value_on_ideal_of(-1).to_complex() * gbar)


def average_iota(chi, ctx, a):
    """Mean of W(chi^t) * conj(chi^t)(a) over the Galois orbit, one root
    number per member: the per-residue oracle of `averaged_iota_table`."""
    orbit = galois_orbit(chi, ctx)
    total = 0j
    for tw in orbit:
        v = tw.conjugate().value_on_ideal_of(a)
        if v is None:
            continue
        total += root_number(tw) * v.to_complex()
    return total / len(orbit)


def member_roots(chi, ctx):
    """orbit_root_numbers as one RootOfUnity per orbit member."""
    level, phases = orbit_root_numbers(chi, ctx)
    return [RootOfUnity(Fraction(int(w), level)) for w in phases]


def test_quadratic_gauss_sum_is_sqrt5():
    Q, ctx, _ = q_setup()
    rcg1 = RayClassGroup(ctx, 1)
    quad = [c for c in rcg1.characters() if c.order == 2][0]
    g = gauss_sum(quad)
    assert abs(g - 5 ** 0.5) < 1e-12


def test_gauss_sum_modulus_is_conductor_norm():
    Q, ctx, rcg = q_setup()
    for chi in rcg.characters():
        if chi.is_trivial():
            assert gauss_sum(chi) == 1.0
            continue
        g = gauss_sum(chi)
        assert abs(abs(g) ** 2 - chi.conductor_norm) < 1e-10


def test_gauss_sum_modulus_quadratic_field():
    K, ctx = sqrt2_setup()
    for chi in residue_characters(ctx, 2)[:12]:
        g = gauss_sum(chi)
        assert abs(abs(g) ** 2 - 49) < 1e-9


def test_shift_identity_exact():
    # G(chi, a) = G(chi) * chi((a)), as exact cyclotomics
    Q, ctx, rcg = q_setup()
    chi = order5_char(rcg)
    base = gauss_sum(chi, exact=True)
    rng = random.Random(9)
    tried = 0
    while tried < 20:
        a = rng.randrange(1, 25)
        if a % 5 == 0:
            continue
        lhs = gauss_sum(chi, shift=a, exact=True)
        rhs = base * CyclotomicNumber.from_root(chi.value_on_ideal_of(a))
        assert lhs == rhs
        tried += 1


def test_shift_identity_exact_quadratic_field():
    # a field element shifts by its class mod p^c, the integer
    # PrimeContext.residue gives
    K, ctx = sqrt2_setup()
    chi = residue_characters(ctx, 2)[0]
    base = gauss_sum(chi, exact=True)
    for coords in ([2, 1], [1, 2], [5, 0], [0, 3]):
        a = K.element(coords)
        val = chi.value_on_ideal_of(a)
        assert val is not None
        shift = ctx.residue(a, chi.conductor_exponent)
        assert gauss_sum(chi, shift=shift, exact=True) == base * CyclotomicNumber.from_root(val)


def _same_exact(x, y):
    """Equal as numbers and in every stored field."""
    return (x == y and x.level == y.level and x.den == y.den
            and np.array_equal(x.num, y.num))


def _shift_route_cases():
    Q = nf_load("rationals")
    for p in (3, 5, 7):
        ctx = PrimeContext(Q, p, Q.element_from_int(p))
        for n in (1, 2, 3):
            for chi in RayClassGroup(ctx, n).characters():
                if chi.is_primitive():
                    yield Q, chi
    K, kctx = sqrt2_setup()
    for n in (1, 2):
        for chi in residue_characters(kctx, n):
            yield K, chi


def test_integer_shifts_take_the_field_phase():
    # an integer shift a takes the phase a * efin_phase(z) mod 1 held on the
    # prime context; it must be efin_phase(a z), the phase of the field
    # element a z, and the sum must depend on a mod p^c alone, at shifts prime
    # to p, negative ones and ones = 0 mod p
    checked = 0
    for nf, chi in _shift_route_cases():
        p, q, c = chi.p, chi.conductor_norm, chi.conductor_exponent
        ctx = chi.prime_ctx
        z = (nf.different_gen * ctx.pi ** c).inverse()
        for a in (1, 2, -1, -q - 2, p, -p, 2 * p * q, 0, 10 ** 12 + 1):
            assert charsums._gauss_parts(chi, a)[0] == nf.efin_phase(nf.element_from_int(a) * z)
            assert _same_exact(gauss_sum(chi, shift=a, exact=True),
                               gauss_sum(chi, shift=a % q, exact=True)), (chi.label, a)
            assert gauss_sum(chi, shift=a) == gauss_sum(chi, shift=a % q)
            checked += 1
    # 203 primitive rational characters, 5 + 36 primitive residue characters
    assert checked == 9 * (203 + 5 + 36)


def test_gauss_sum_shift_is_an_integer():
    # an integer of any type is that integer; anything else raises instead
    # of being truncated (2.7 once gave G(chi, 2)), a field element too
    Q, ctx, rcg = q_setup()
    chi = rcg.character_by_index(2)
    want = gauss_sum(chi, shift=2, exact=True)
    for two in (np.int64(2), np.int32(2)):
        assert _same_exact(gauss_sum(chi, shift=two, exact=True), want)
        assert gauss_sum(chi, shift=two) == gauss_sum(chi, shift=2)
    for bad in (2.7, 2.0, Fraction(5, 2), Q.element_from_int(2)):
        with pytest.raises(TypeError):
            gauss_sum(chi, shift=bad)
        with pytest.raises(TypeError):
            gauss_sum(chi, shift=bad, exact=True)


def test_conjugation_law():
    # conj(G(chi)) = chi(-1) G(conj chi)
    Q, ctx, rcg = q_setup()
    for chi in rcg.characters():
        assert gauss_sum_conjugation_defect(chi) < 1e-12
    K, kctx = sqrt2_setup()
    for chi in residue_characters(kctx, 2)[:8]:
        assert gauss_sum_conjugation_defect(chi) < 1e-11


def test_product_with_conjugate_is_norm():
    Q, ctx, rcg = q_setup()
    chi = order5_char(rcg)
    prod = gauss_sum(chi.conjugate(), exact=True) * gauss_sum(chi, exact=True)
    assert prod.is_rational() == Fraction(25)


def test_root_number_matches_classical_formula():
    # over the rationals the twist root number reduces to g(psi)^2 / q for the
    # attached even Dirichlet character psi
    Q, ctx, rcg = q_setup()
    for chi in rcg.characters():
        if chi.is_trivial():
            continue
        q = chi.conductor_norm
        g_cl = sum(chi.value_on_ideal_of(x).to_complex()
                   * cmath.exp(2j * cmath.pi * x / q)
                   for x in range(1, q) if x % 5)
        w = root_number(chi)
        assert abs(w - g_cl ** 2 / q) < 1e-10
        assert abs(abs(w) - 1) < 1e-12


def test_root_number_trivial_and_quadratic():
    Q, ctx, rcg = q_setup()
    triv = [c for c in rcg.characters() if c.is_trivial()][0]
    assert root_number(triv) == 1.0
    rcg1 = RayClassGroup(ctx, 1)
    quad = [c for c in rcg1.characters() if c.order == 2][0]
    assert abs(root_number(quad) - 1) < 1e-12


def test_root_number_unit_modulus_quadratic_field():
    K, ctx = sqrt2_setup()
    for chi in residue_characters(ctx, 2)[:10]:
        assert abs(abs(root_number(chi)) - 1) < 1e-12


def test_orbit_sizes():
    Q, ctx, rcg = q_setup()
    chi = order5_char(rcg)
    assert len(galois_orbit(chi, CoefficientFieldContext(p=5, n0=0))) == 4
    # depth-1 coefficient field fixes mod-p phases: orbit of an order-25
    # character collapses to the classes of t = 1 mod 5
    rcg3 = RayClassGroup(ctx, 3)
    chi25 = [c for c in rcg3.characters() if c.order == 25][0]
    assert len(galois_orbit(chi25, CoefficientFieldContext(p=5, n0=1))) == 5
    assert len(galois_orbit(chi25, CoefficientFieldContext(p=5, n0=0))) == 20
    with pytest.raises(ValueError, match="p-power"):
        quadish = [c for c in rcg.characters() if c.order == 2][0]
        galois_orbit(quadish, CoefficientFieldContext(p=5, n0=0))


def test_average_char_frozen_values():
    Q, ctx, rcg = q_setup()
    chi = order5_char(rcg)
    cfc = CoefficientFieldContext(p=5, n0=0)
    # chi(6) is a primitive 5th root; the orbit mean is -1/(p-1)
    res = average_char(chi, cfc, 6)
    assert res.coeff == Fraction(-1, 4)
    assert res.root == RootOfUnity(0)
    assert abs(res.value - (-0.25)) < 1e-14
    # the class of 24 = -1 is trivial, so the average is 1
    assert average_char(chi, cfc, 24).coeff == Fraction(1)
    # ideals meeting the modulus average to zero
    assert average_char(chi, cfc, 5).is_zero()


def test_average_char_depth_one():
    Q, ctx, _ = q_setup()
    rcg3 = RayClassGroup(ctx, 3)
    chi25 = [c for c in rcg3.characters() if c.order == 25][0]
    cfc = CoefficientFieldContext(p=5, n0=1)
    # value of exact order 25 averages to zero across t = 1 mod 5
    a_deep = next(a for a in (2, 3, 7) if chi25.value_on_ideal_of(a).order == 25)
    assert average_char(chi25, cfc, a_deep).is_zero()
    # value of order dividing 5 is fixed by the whole orbit
    a_shallow = next(a for a in range(2, 125)
                     if a % 5 and chi25.value_on_ideal_of(a).order == 5)
    res = average_char(chi25, cfc, a_shallow)
    assert res.coeff == Fraction(1)
    assert res.root == chi25.value_on_ideal_of(a_shallow)


def test_average_recognition_always_lands():
    # the exact mean must always match the closed form: 0, a rational, or the
    # seed value itself
    Q, ctx, rcg = q_setup()
    cfc = CoefficientFieldContext(p=5, n0=0)
    for chi in rcg.characters():
        if chi.is_trivial() or p_adic_split(chi.order, 5)[0] != 1:
            continue
        for a in (2, 3, 6, 7, 11, 24):
            res = average_char(chi, cfc, a)
            assert res.coeff is not None


def test_average_support_variants():
    # chi(a) of order 5^j: the paper's support rule is j <= n0, the relaxed
    # one j <= n0 + 1; at n0 = 0 the true average at a 5th root is -1/4,
    # nonzero, so the stricter rule misses it and the relaxed one keeps it
    Q, ctx, rcg = q_setup()
    chi = order5_char(rcg)
    cfc = CoefficientFieldContext(p=5, n0=0)
    _, j = chi.value_on_ideal_of(6).order_p_part(5)
    assert j == 1 and not j <= cfc.n0 and j <= cfc.n0 + 1
    assert average_char(chi, cfc, 6).coeff == Fraction(-1, 4)
    _, j = chi.value_on_ideal_of(24).order_p_part(5)
    assert j == 0 and j <= cfc.n0
    assert not average_char(chi, cfc, 24).is_zero()


def test_average_support_depth_one_discrepancy():
    # at n0 = 1 the relaxed rule overshoots: order-25 values really do
    # average to zero even though j = n0 + 1 claims support
    Q, ctx, _ = q_setup()
    rcg3 = RayClassGroup(ctx, 3)
    chi25 = [c for c in rcg3.characters() if c.order == 25][0]
    cfc = CoefficientFieldContext(p=5, n0=1)
    a_deep = next(a for a in (2, 3, 7) if chi25.value_on_ideal_of(a).order == 25)
    assert chi25.value_on_ideal_of(a_deep).order_p_part(5)[1] == cfc.n0 + 1
    assert average_char(chi25, cfc, a_deep).is_zero()


def test_average_iota_and_kloosterman_report():
    Q, ctx, rcg = q_setup()
    chi = order5_char(rcg)
    cfc = CoefficientFieldContext(p=5, n0=0)
    v = average_iota(chi, cfc, 6)
    assert abs(v) <= 1 + 1e-12
    rep = kloosterman_bound_report(chi, cfc)
    assert rep["level"] == 1
    assert rep["orbit_size"] == 4
    assert rep["conductor_norm"] == 25
    assert abs(rep["scale"] - 5 ** -0.5) < 1e-15
    assert abs(rep["max_abs"] - 0.8147693455315839) < 1e-9
    # every averaged value is a mean of unit-modulus terms
    assert rep["max_abs"] <= 1 + 1e-12
    assert rep["constant"] == pytest.approx(rep["max_abs"] / rep["scale"])


def test_kloosterman_argmax_is_the_smallest_tied_residue():
    # at n0 = 1 every unit residue of this report has modulus 5^(-1/2); the
    # smallest residue is reported, whatever the rounding of the table
    Q, ctx, _ = q_setup()
    chi = seed_character(RayClassGroup(ctx, 3))
    rep = kloosterman_bound_report(chi, CoefficientFieldContext(p=5, n0=1))
    assert rep["max_abs"] == pytest.approx(5 ** -0.5, rel=1e-12)
    assert rep["argmax_residue"] == 1
    # without a tie the argmax is the plain maximum
    rep = kloosterman_bound_report(chi, CoefficientFieldContext(p=5, n0=0))
    assert rep["argmax_residue"] == 17


@pytest.mark.parametrize("p,level", [(3, 2), (3, 4), (5, 2), (5, 3), (5, 4), (7, 3)])
def test_kloosterman_constant_over_sqrt_p_obeys_salie(p, level):
    # at n0 = 0, |averaged iota| <= sqrt(p) p^(-n/2) (README, Salie's lemma)
    rep = kloosterman_bound_report(_rational_seed(p, level), CoefficientFieldContext(p=p, n0=0))
    assert rep["constant_over_sqrt_p"] == rep["constant"] / p ** 0.5
    assert 0.5 < rep["constant_over_sqrt_p"] <= 1


def _trivial_character():
    _, _, rcg = q_setup()
    chi = rcg.character_by_index(0)
    assert chi.conductor_exponent == 0
    return chi, CoefficientFieldContext(p=5, n0=0)


def test_orbit_gauss_sums_refuse_the_trivial_character():
    # no route reaches a trivial seed: one would give zeros, not G := 1
    with pytest.raises(ValueError, match="rationals.p5.m2.chi0 is trivial"):
        orbit_gauss_sums(*_trivial_character())


def test_orbit_float_root_numbers_refuse_the_trivial_character():
    with pytest.raises(ValueError, match="is trivial"):
        orbit_float_root_numbers(*_trivial_character())


def test_orbit_root_numbers_refuse_the_trivial_character():
    # its empty Gauss sum squares to 0, not q times a root of unity
    with pytest.raises(ArithmeticError, match="not a root of unity at rationals.p5.m2.chi0"):
        orbit_root_numbers(*_trivial_character())


def test_exact_gauss_sum_matches_float():
    Q, ctx, rcg = q_setup()
    chi = order5_char(rcg)
    assert abs(gauss_sum(chi, exact=True).to_complex() - gauss_sum(chi)) < 1e-12


@pytest.mark.parametrize("n,n0", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0)])
def test_galois_action_gauss_sums_match_per_character(n, n0):
    # G(chi^t) = conj(chi^t((t))) * sigma_t(G(chi)): the Galois action on one exact
    # sum, transported by the shift identity, against each member's own sum
    Q, ctx, _ = q_setup()
    chi = seed_character(RayClassGroup(ctx, n))
    cfc = CoefficientFieldContext(p=5, n0=n0)
    g = gauss_sum(chi, exact=True)
    pairs = list(zip(substitutions(chi, cfc), galois_orbit(chi, cfc)))
    if n == 4:
        pairs = pairs[::23]                     # a sample of the 100 members
    for t, tw in pairs:
        moved = CyclotomicNumber.from_root(tw.value_on_ideal_of(t).conjugate()) * g.galois(t)
        assert moved == gauss_sum(tw, exact=True)


@pytest.mark.parametrize("p,n,n0", [(5, 2, 0), (5, 2, 1), (5, 3, 0), (5, 3, 1),
                                    (3, 3, 0), (7, 3, 0)])
def test_orbit_root_numbers_match_per_character(p, n, n0):
    # at p = 3 mod 4 and odd conductor exponent G^2 / q carries a sign, so
    # sigma_t on it is not the plain power by an even t
    Q = nf_load("rationals")
    ctx = PrimeContext(Q, p, Q.element_from_int(p))
    chi = seed_character(RayClassGroup(ctx, n))
    cfc = CoefficientFieldContext(p=p, n0=n0)
    q = chi.conductor_norm
    orbit = galois_orbit(chi, cfc)
    roots = member_roots(chi, cfc)
    assert len(roots) == len(orbit)
    for k, (w, tw) in enumerate(zip(roots, orbit)):
        assert abs(w.to_complex() - root_number(tw)) < 1e-12
        if k % 7 == 0:
            # exactly: q W(chi^t) = chi^t(-1) G(conj chi^t)^2, chi^t(-1) = 1 here
            g = gauss_sum(tw.conjugate(), exact=True)
            assert CyclotomicNumber.from_root(w, coeff=q) == g * g


def test_orbit_root_numbers_past_the_exact_level_limit():
    # conductor 149^2 = 22,201 lies above EXACT_LEVEL_LIMIT: the exact
    # cyclotomic Gauss sum refuses it, route two's histogram does not
    Q = nf_load("rationals")
    ctx = PrimeContext(Q, 149, Q.element_from_int(149))
    chi = seed_character(RayClassGroup(ctx, 2))
    assert chi.conductor_norm > EXACT_LEVEL_LIMIT
    with pytest.raises(ValueError, match="cyclotomic level"):
        gauss_sum(chi.conjugate(), exact=True)
    cfc = CoefficientFieldContext(p=149, n0=0)
    orbit = galois_orbit(chi, cfc)
    roots = member_roots(chi, cfc)
    assert len(roots) == len(orbit) == 148
    for w, tw in list(zip(roots, orbit))[::21]:
        assert abs(w.to_complex() - root_number(tw)) < 1e-12
    assert abs(averaged_iota_table(chi, cfc)[2] - average_iota(chi, cfc, 2)) < 1e-14


def test_orbit_root_numbers_quadratic_field():
    K, ctx = sqrt2_setup()
    chi = next(c for c in residue_characters(ctx, 2) if c.order == 7)
    cfc = CoefficientFieldContext(p=7, n0=0)
    for w, tw in zip(member_roots(chi, cfc), galois_orbit(chi, cfc)):
        assert abs(w.to_complex() - root_number(tw)) < 1e-12


def _per_member_root_numbers(chi, ctx):
    """W(chi^t) the slow way: every member built as a character, and
    chi^t((-1)) chi^t((t))^2 sigma_t(eps) multiplied out in RootOfUnity
    arithmetic, from the same one exact square eps = G(conj chi)^2 / q."""
    subs = substitutions(chi, ctx)
    if chi.conductor_exponent == 0:
        return [RootOfUnity(0)] * len(subs)
    den, exps, pref = _gauss_terms(chi.conjugate(), 1)
    eps = _unit_square(np.bincount(exps, minlength=den), chi.conductor_norm,
                       chi.label) * pref * pref
    level = lcm(den, pref.order)
    out = []
    for t, tw in zip(subs, galois_orbit(chi, ctx)):
        rho = tw.value_on_ideal_of(t)
        # sigma_t acts on a root of unity as its t-th power
        sigma_eps = power(eps, t if t % 2 else t + level)
        out.append(tw.value_on_ideal_of(-1).conjugate() * rho * rho * sigma_eps)
    return out


@pytest.mark.parametrize("label", [
    *(f"rationals.p5.m{n}.chi4" for n in range(2, 7)),
    "rationals.p3.m3.chi2", "rationals.p3.m4.chi2",
    "rationals.p7.m2.chi6", "rationals.p7.m3.chi6",
    "quadratic-sqrt2.p7.res2.chi6",     # a residue character of order 7
    "quadratic-sqrt2.p31.m2.chi1",      # the different is not 1
])
@pytest.mark.parametrize("n0", [0, 1])
def test_orbit_root_phases_equal_the_per_member_loop(label, n0):
    chi = parse_char_label(label)
    cfc = CoefficientFieldContext(p=chi.p, n0=n0)
    assert member_roots(chi, cfc) == _per_member_root_numbers(chi, cfc)


@pytest.mark.parametrize("label", [
    "rationals.p5.m2.chi4", "rationals.p5.m3.chi4", "rationals.p5.m4.chi4",
    "rationals.p7.m2.chi6", "rationals.p7.m3.chi6",
    "quadratic-sqrt2.p31.m2.chi1",      # the different is not 1: pref^t matters
    "quadratic-sqrt2.p7.res2.chi6",     # order 7
])
@pytest.mark.parametrize("n0", [0, 1])
def test_orbit_gauss_sums_match_per_character(label, n0):
    # route one's one-FFT Gauss sums against each member's own sum
    chi = parse_char_label(label)
    assert chi.is_primitive()
    cfc = CoefficientFieldContext(p=chi.p, n0=n0)
    orbit = galois_orbit(chi, cfc)
    got = orbit_gauss_sums(chi, cfc)
    assert len(got) == len(orbit)
    q = chi.conductor_norm
    for g, tw in zip(got, orbit):
        assert abs(g - gauss_sum(tw.conjugate())) < 1e-12 * q ** 0.5
    roots = orbit_float_root_numbers(chi, cfc)
    for w, tw in list(zip(roots, orbit))[::7]:
        assert abs(w - root_number(tw)) < 1e-12


@pytest.mark.parametrize("n,n0", [(2, 0), (2, 1), (3, 0), (3, 1)])
def test_per_value_tables_match_per_residue_averages(n, n0):
    Q, ctx, _ = q_setup()
    chi = seed_character(RayClassGroup(ctx, n))
    cfc = CoefficientFieldContext(p=5, n0=n0)
    direct = averaged_char_table(chi, cfc)
    reflect = averaged_iota_table(chi, cfc)
    mod = 5 ** n
    assert direct.shape == reflect.shape == (mod,)
    for r in range(mod):
        if r % 5 == 0:
            assert direct[r] == 0 and reflect[r] == 0
            continue
        assert abs(direct[r] - average_char(chi, cfc, r).value) < 1e-14
        assert abs(reflect[r] - average_iota(chi, cfc, r)) < 1e-14


# ---------------------------------------------------------------------------
# average_char from the seed value: the per-member evaluation is the oracle

def _per_member_average_char(chi, ctx, a):
    """The orbit mean the slow way: every member chi^t built and evaluated
    at a, the mean taken at the least common level of the values."""
    orbit = galois_orbit(chi, ctx)
    vals = [tw.value_on_ideal_of(a) for tw in orbit]
    n = len(orbit)
    if any(v is None for v in vals):
        zero = CyclotomicNumber(1)
        return AverageResult(cyclotomic=zero, orbit_size=n, coeff=Fraction(0), root=RootOfUnity(0))
    level = lcm(*(v.order for v in vals))
    exps = [int(v.phase * level) for v in vals]
    g = gcd(level, *exps)
    acc = {}
    for x in exps:
        acc[x // g] = acc.get(x // g, 0) + 1
    mean = CyclotomicNumber(level // g, {e: Fraction(k, n) for e, k in acc.items()})
    coeff, root = _recognize(mean, chi.value_on_ideal_of(a))
    return AverageResult(cyclotomic=mean, orbit_size=n, coeff=coeff, root=root)


def test_average_char_takes_numpy_integers():
    # an integer residue is an integer whatever its type: the mean at 6 of the
    # order-5 character rationals.p5.m2.chi4 over its full orbit is -1/4
    Q, ctx, rcg = q_setup()
    chi = rcg.character_by_index(4)
    cfc = CoefficientFieldContext(p=5, n0=0)
    for six in (6, np.int64(6), np.int32(6)):
        res = average_char(chi, cfc, six)
        assert res.coeff == Fraction(-1, 4) and abs(res.value + 0.25) < 1e-15
    with pytest.raises(TypeError):
        average_char(chi, cfc, 6.0)


def _rational_seed(p, n):
    Q = nf_load("rationals")
    return seed_character(RayClassGroup(PrimeContext(Q, p, Q.element_from_int(p)), n))


def _assert_matches_reference(chi, cfc, mod):
    for a in range(mod):
        got = average_char(chi, cfc, a)
        ref = _per_member_average_char(chi, cfc, a)
        assert got.cyclotomic == ref.cyclotomic
        assert repr(got.cyclotomic) == repr(ref.cyclotomic)
        assert (got.orbit_size, got.coeff, got.root) == (ref.orbit_size, ref.coeff, ref.root)
        assert got.value == ref.value


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2), (7, 3)])
@pytest.mark.parametrize("n0", [0, 1])
def test_average_char_matches_per_member_reference(p, n, n0):
    _assert_matches_reference(_rational_seed(p, n), CoefficientFieldContext(p=p, n0=n0), p ** n)


def test_average_char_matches_per_member_reference_residue_characters():
    K, ctx = sqrt2_setup()
    chi = next(c for c in residue_characters(ctx, 2) if c.order == 7)
    _assert_matches_reference(chi, CoefficientFieldContext(p=7, n0=0), 49)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("n0", [0, 1])
def test_orbit_values_are_seed_powers(n, n0):
    # what average_char relies on: chi^t(a) = chi(a)^t for every member, on
    # the seeds criterion 3 sweeps, at units and non-units alike
    Q = nf_load("rationals")
    chi = seed_character(acceptance.rcg_build(acceptance.prime_above(Q, 5), n))
    cfc = CoefficientFieldContext(p=5, n0=n0)
    members = list(zip(substitutions(chi, cfc), galois_orbit(chi, cfc)))
    for a in range(5 ** n):
        seed = chi.value_on_ideal_of(a)
        for t, tw in members:
            got = tw.value_on_ideal_of(a)
            assert got == (None if seed is None else power(seed, t))


def _counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def test_average_char_evaluates_the_seed_once(monkeypatch):
    Q, ctx, _ = q_setup()
    chi = seed_character(RayClassGroup(ctx, 4))
    assert chi.order == 125
    evaluations = _counting(monkeypatch, HeckeCharacter, "value_on_ideal_of")
    orbits = _counting(monkeypatch, charsums, "galois_orbit")
    res = average_char(chi, CoefficientFieldContext(p=5, n0=0), 2)
    assert res.orbit_size == 100
    assert len(evaluations) == 1
    assert not orbits


def test_criterion_3_recognizes_once_per_value(monkeypatch):
    # the criterion's levels 2, 3 and 4 at n0 = 0 and 1, every unit residue
    Q = nf_load("rationals")
    ctx = acceptance.prime_above(Q, 5)
    triples = set()
    for n0 in (0, 1):
        for n in (2, 3, 4):
            chi = seed_character(acceptance.rcg_build(ctx, n))
            triples |= {(n, n0, chi.value_on_ideal_of(a)) for a in range(1, 5 ** n) if a % 5}
    charsums._value_mean.cache_clear()
    recognitions = _counting(monkeypatch, charsums, "_recognize")
    orbits = _counting(monkeypatch, charsums, "galois_orbit")
    acceptance._c03_average_support()
    assert 0 < len(recognitions) <= len(triples) < 1240
    assert not orbits


def test_one_reduction_per_mean_and_none_for_the_tables(monkeypatch):
    # route two's table takes the exact means only; average_char reduces each
    # distinct mean once, whatever the number of residues sharing its value
    Q, ctx, _ = q_setup()
    chi = seed_character(RayClassGroup(ctx, 3))
    for n0 in (0, 1):
        cfc = CoefficientFieldContext(p=5, n0=n0)
        charsums._value_mean.cache_clear()
        recognitions = _counting(monkeypatch, charsums, "_recognize")
        reductions = _counting(monkeypatch, CyclotomicNumber, "reduced")
        averaged_char_table(chi, cfc)
        assert not recognitions and not reductions
        values = {chi.value_on_ideal_of(a) for a in range(1, 125) if a % 5}
        for a in range(125):
            average_char(chi, cfc, a)
        assert len(recognitions) == len(reductions) == len(values)
        monkeypatch.undo()


def test_residue_label_averages_take_values_on_classes():
    # a residue character's Galois averages are taken on classes, e(-K dlog(r)
    # / phi) for "res" label K; with the conjugate values e(K dlog(r) / phi)
    # the mean is conjugated, and at n0 = 0, where the orbit is closed under
    # t -> -t, unchanged.  The averaged iota at r is the one at r^-1 taken
    # with the conjugate values.
    K, kctx = sqrt2_setup()
    Q = nf_load("rationals")
    for ctx, level in ((kctx, 2), (PrimeContext(Q, 5, Q.element_from_int(5)), 3)):
        p, mod = ctx.p, ctx.p ** level
        for chi in residue_characters(ctx, level):
            if p_adic_split(chi.order, p)[0] != 1:
                continue
            for n0 in (0, 1):
                cfc = CoefficientFieldContext(p=p, n0=n0)
                subs = substitutions(chi, cfc)
                roots = member_roots(chi, cfc)
                for a in (2, 3, mod - 1):
                    conj_powers = [power(chi.value_on_ideal_of(a).conjugate(), t)
                                   for t in subs]
                    want = sum(v.to_complex() for v in conj_powers) / len(subs)
                    got = average_char(chi, cfc, a)
                    assert abs(got.value - want.conjugate()) < 1e-14
                    if n0 == 0:
                        assert abs(got.value - want) < 1e-14
                    inv = pow(a, -1, mod)
                    with_conj = sum(w.to_complex() * power(chi.value_on_ideal_of(inv), t)
                                    .to_complex() for w, t in zip(roots, subs))
                    assert abs(average_iota(chi, cfc, a) - with_conj / len(subs)) < 1e-12


def test_residue_label_outputs_pinned(capsys):
    # a one-member orbit at n0 = 1: the value on the class of 3, the
    # conjugate of e(6 dlog(3) / 42) = 0.6234898018587336 + 0.7818314824680298i
    assert main(["galois-average", "--char", "quadratic-sqrt2.p7.res2.chi6",
                 "--residue", "3", "--n0", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit_size"] == 1 and doc["rational_coeff"] == "1"
    assert doc["value_re"] == pytest.approx(0.6234898018587336, abs=1e-15)
    assert doc["value_im"] == pytest.approx(-0.7818314824680298, abs=1e-15)
    # the same maximum, now reached first at residue 17 instead of 4
    assert main(["kloosterman-report", "--char", "rationals.p5.res3.chi4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["max_abs"] == pytest.approx(0.43844029965146447, abs=1e-14)
    assert doc["argmax_residue"] == 17


@pytest.mark.parametrize("p,level", [(3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3),
                                     (5, 4), (7, 2), (7, 3), (11, 2)])
def test_averaged_tables_match_their_closed_forms(p, level):
    # at n0 = 0 the orbit is every character of order p^n, n = level - 1:
    # the main side is a Ramanujan sum, the dual side a sum of Kloosterman
    # sums, and the lemma max |avg iota| <= p^((1 - n) / 2) follows by Salie
    chi = _rational_seed(p, level)
    cfc = CoefficientFieldContext(p=p, n0=0)
    q = p ** level
    main_side = averaged_char_table(chi, cfc)
    dual_side = averaged_iota_table(chi, cfc)
    assert np.abs(main_side - ramanujan_main_table(p, q)).max() <= 1e-14
    assert np.abs(dual_side - kloosterman_dual_table(p, q)).max() <= 1e-14
    assert np.abs(dual_side).max() <= p ** ((2 - level) / 2)


def test_character_sums_read_the_held_discrete_logs():
    # the dual generator's exponent table is the level's held discrete-log
    # array, so a second call forms, beside the transform's input and output
    # (complex arrays of phi entries), less than one p^level int64 table;
    # the sums are the scatter by discrete log and one FFT, bit for bit
    _, ctx, _ = q_setup()
    level, mod = 6, 5 ** 6
    values = np.random.default_rng(6).standard_normal(mod) + 1j
    got, _, peak = traced(lambda: character_sums(ctx, level, values),
                          lambda: character_sums(ctx, level, values))
    assert peak - 2 * got.nbytes < 8 * mod
    dlog = ctx.dlog_array(level)
    by_log = np.zeros(ctx.unit_group_order(level), dtype=np.complex128)
    by_log[dlog[dlog >= 0]] = values[dlog >= 0]
    assert got.tolist() == np.fft.ifft(by_log, norm="forward").tolist()
