import cmath
import math
import random
import tracemalloc
from math import lcm
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral.charsums import _gauss_terms
from lcentral.fields import nf_load
from lcentral.rayclass import PrimeContext, RayClassGroup, seed_character
from lcentral.roots import (CyclotomicNumber, RootOfUnity, cyclotomic_polynomial,
                           unit_circle_array, vanishes)

phases = st.fractions(min_value=0, max_value=1, max_denominator=60)


@given(phases, phases)
def test_root_group_law(a, b):
    x, y = RootOfUnity(a), RootOfUnity(b)
    assert (x * y).phase == (a + b) % 1
    assert x * x.conjugate() == RootOfUnity(0)


@given(phases, st.integers(min_value=-20, max_value=20))
def test_root_powers(a, k):
    # a power is a product of |k| factors, conjugated when k < 0
    x = RootOfUnity(a)
    factor = x if k >= 0 else x.conjugate()
    power = RootOfUnity(0)
    for _ in range(abs(k)):
        power = power * factor
    assert power.phase == (a * k) % 1
    z = x.to_complex() ** k
    assert abs(z - power.to_complex()) < 1e-9


def test_order_p_part():
    x = RootOfUnity(Fraction(1, 75))  # order 75 = 3 * 5^2
    assert x.order == 75
    assert x.order_p_part(5) == (3, 2)
    assert x.order_p_part(3) == (25, 1)


def test_cyclotomic_polynomial_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    # Phi_25 = x^20 + x^15 + x^10 + x^5 + 1
    phi25 = cyclotomic_polynomial(25)
    assert len(phi25) == 21
    assert [i for i, c in enumerate(phi25) if c] == [0, 5, 10, 15, 20]


def test_full_root_sums_vanish():
    for p in (5, 7):
        total = CyclotomicNumber(p)
        for i in range(p):
            total = total + CyclotomicNumber(p, {i: Fraction(1)})
        assert total.is_zero()


def test_ramanujan_sum_prime_square():
    # sum over primitive 25th roots of unity is mu(25) = 0
    total = CyclotomicNumber(25)
    for i in range(25):
        if i % 5 != 0:
            total = total + CyclotomicNumber(25, {i: Fraction(1)})
    assert total.is_zero()
    # and over all 25th roots it is 0 as well, but dropping one breaks it
    partial = total + CyclotomicNumber(25, {1: Fraction(-1)})
    assert not partial.is_zero()


def test_reduction_preserves_value():
    x = CyclotomicNumber(25, {24: Fraction(3), 20: Fraction(-2), 7: Fraction(1, 3)})
    red = x.reduced()
    assert abs(x.to_complex() - red.to_complex()) < 1e-12
    assert all(e < 20 for e in red.coeffs)
    # same check through the generic Phi_N path at a composite level
    y = CyclotomicNumber(12, {11: Fraction(5), 9: Fraction(1)})
    assert abs(y.to_complex() - y.reduced().to_complex()) < 1e-12


def test_galois_twist():
    z = CyclotomicNumber(25, {1: Fraction(1)})
    tw = z.galois(7)
    assert tw.coeffs == {7: Fraction(1)}
    assert abs(tw.to_complex() - cmath.exp(2j * math.pi * 7 / 25)) < 1e-12


@given(st.integers(min_value=0, max_value=24), st.integers(min_value=0, max_value=24))
@settings(max_examples=40)
def test_cyclotomic_product_matches_complex(e1, e2):
    a = CyclotomicNumber(25, {e1: Fraction(2)})
    b = CyclotomicNumber(25, {e2: Fraction(1, 2)})
    prod = a * b
    assert abs(prod.to_complex() - a.to_complex() * b.to_complex()) < 1e-10


def test_is_rational():
    assert CyclotomicNumber(1, {0: Fraction(3, 4)}).is_rational() == Fraction(3, 4)
    z = CyclotomicNumber(5, {1: Fraction(1), 2: Fraction(1), 3: Fraction(1), 4: Fraction(1)})
    assert z.is_rational() == Fraction(-1)
    assert CyclotomicNumber(5, {1: Fraction(1)}).is_rational() is None
    # 3/2 + (zeta + zeta^2 + zeta^3 + zeta^4) / 2 = 1: the numerator
    # [3, 1, 1, 1, 1] / 2 is in lowest terms, its rewrite [2, 0, 0, 0, 0] / 2 is not
    one = CyclotomicNumber(5, {0: Fraction(3, 2), 1: Fraction(1, 2), 2: Fraction(1, 2),
                               3: Fraction(1, 2), 4: Fraction(1, 2)})
    assert one.is_rational() == 1
    assert one.reduced().coeffs == {0: 1}


def test_tensor_reduction_matches_dense_oracle():
    import random

    rng = random.Random(4)
    for level in (2, 3, 4, 6, 12, 18, 36, 45, 50, 105, 210):
        phi_n = sum(1 for e in range(level) if math.gcd(e, level) == 1)
        for _ in range(8):
            z = CyclotomicNumber(
                level,
                {rng.randrange(level): Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                 for _ in range(rng.randrange(1, 8))},
            )
            a, b = z.reduced(), z.reduced_dense()
            # same number in both canonical forms, certified by the dense route
            assert not (a - b).reduced_dense().coeffs
            assert abs(a.to_complex() - z.to_complex()) < 1e-9 * (1 + abs(z.to_complex()))
            assert len(a.coeffs) <= phi_n
            assert a.reduced().coeffs == a.coeffs


def test_reduction_kills_minimal_polynomial_multiples():
    import random

    rng = random.Random(11)
    for level in (4, 6, 12, 45, 50):
        phi_poly = CyclotomicNumber(
            level, {i: c for i, c in enumerate(cyclotomic_polynomial(level)) if c})
        for _ in range(5):
            z = CyclotomicNumber(
                level, {rng.randrange(level): rng.randrange(-4, 5) for _ in range(4)})
            prod = z * phi_poly
            assert prod.is_zero()
            assert not prod.reduced_dense().coeffs


def test_reduction_at_composite_character_level():
    # level 1029 = 3 * 7^3 shows up when order-147 character sums meet
    # trace phases with denominator 343; the dense route is impractical there
    big = 1029
    one = CyclotomicNumber(big, {0: 1})
    z = CyclotomicNumber(big, {17: 1})
    assert (z * CyclotomicNumber(big, {big - 17: 1}) - one).is_zero()
    full = CyclotomicNumber(big, {e: 1 for e in range(big) if math.gcd(e, big) == 1})
    assert full.is_rational() == 0  # Moebius of 1029 vanishes


def test_dense_zero_test_matches_the_dense_oracle():
    # multiples of Phi_N vanish; one coefficient moved off such a multiple
    # does not; the polynomial-division route decides every case
    import random

    rng = random.Random(12)
    for level in (1, 2, 3, 4, 6, 12, 18, 25, 36, 45, 50, 105, 210):
        phi_poly = CyclotomicNumber(
            level, {i: c for i, c in enumerate(cyclotomic_polynomial(level)) if c})
        for k in range(6):
            z = CyclotomicNumber(
                level, {rng.randrange(level): rng.randrange(-4, 5) for _ in range(4)})
            prod = z * phi_poly
            dense = np.zeros(level, dtype=np.int64)
            for e, c in prod.coeffs.items():
                dense[e] = int(c)
            if k % 2:
                dense[rng.randrange(level)] += rng.choice((-1, 1, 3))
            want = not CyclotomicNumber(
                level, {e: int(c) for e, c in enumerate(dense) if c}).reduced_dense().coeffs
            assert vanishes(level, dense) == want
            assert want or k % 2


def test_unit_circle_array_is_read_only_with_root_bits():
    for den in (1, 5, 125, 250):
        circle = unit_circle_array(den)
        assert circle is unit_circle_array(den)
        assert [RootOfUnity(Fraction(k, den)).to_complex() for k in range(den)] == circle.tolist()
        with pytest.raises(ValueError):
            circle[0] = 0



# ---------------------------------------------------------------------------
# the int64 format against the dense oracle and the complex rendering

def _rendered(level, coeffs):
    """sum c e(e / level) from a coefficient map, independently of the format."""
    return sum((float(c) * cmath.exp(2j * math.pi * e / level) for e, c in coeffs.items()), 0j)


def _dict_sum(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return out


def _dict_product(x, y, level):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            e = (e1 + e2) % level
            out[e] = out.get(e, 0) + c1 * c2
    return out


@st.composite
def _operands(draw):
    level = draw(st.sampled_from((1, 12, 25, 210, 1029)))
    sparse = st.dictionaries(st.integers(0, level - 1),
                             st.fractions(min_value=-6, max_value=6, max_denominator=6),
                             max_size=6)
    t = draw(st.integers(1, 2 * level + 1).filter(lambda t: math.gcd(t, level) == 1))
    return level, draw(sparse), draw(sparse), t


@given(_operands())
@settings(max_examples=40, deadline=None)
def test_format_agrees_with_the_dense_oracle_and_the_complex_values(case):
    level, xd, yd, t = case
    x, y = CyclotomicNumber(level, xd), CyclotomicNumber(level, yd)
    negated = {e: -c for e, c in yd.items()}
    expected = [
        (x + y, _dict_sum(xd, yd)),
        (x - y, _dict_sum(xd, negated)),
        (x * y, _dict_product(xd, yd, level)),
        (x.galois(t), {e * t % level: c for e, c in xd.items()}),
        (x - x, {}),
    ]
    for got, want in expected:
        assert got.level == level
        oracle = CyclotomicNumber(level, want).reduced_dense().coeffs
        assert got.reduced_dense().coeffs == oracle
        # the tensor rewrite names the same number, and decides zero and
        # rationality as the power-basis remainder does
        assert not (got.reduced() - got).reduced_dense().coeffs
        assert got.is_zero() == (not oracle)
        assert got.is_rational() == (oracle.get(0, 0) if set(oracle) <= {0} else None)
        assert got == CyclotomicNumber(level, want)
        value = _rendered(level, want)
        assert abs(got.to_complex() - value) < 1e-9 * (1 + abs(value))
        assert abs(got.reduced().to_complex() - value) < 1e-9 * (1 + abs(value))
    phi = CyclotomicNumber(level, dict(enumerate(cyclotomic_polynomial(level))))
    assert (x * phi).is_zero()


def test_results_past_int64_raise_instead_of_wrapping():
    big = CyclotomicNumber(7, {0: 2 ** 40, 3: -(2 ** 40)})
    with pytest.raises(ArithmeticError, match="product could pass int64"):
        big * big
    edge = CyclotomicNumber(7, {0: 2 ** 62})
    with pytest.raises(ArithmeticError, match="sum could pass int64"):
        edge + edge
    with pytest.raises(ArithmeticError, match="reduction could pass int64"):
        edge.is_zero()
    with pytest.raises(ArithmeticError, match="coefficient could pass int64"):
        CyclotomicNumber(5, {0: 2 ** 63})
    lowest = np.array([np.iinfo(np.int64).min, 0, 0], dtype=np.int64)   # -x wraps
    with pytest.raises(ArithmeticError, match="coefficient could pass int64"):
        CyclotomicNumber.from_array(3, lowest)
    with pytest.raises(ArithmeticError, match="reduction could pass int64"):
        vanishes(3, lowest)
    with pytest.raises(ArithmeticError, match="sum could pass int64"):
        CyclotomicNumber(5, {0: Fraction(2 ** 61, 3)}) + CyclotomicNumber(5, {1: Fraction(1, 5)})
    monomial = CyclotomicNumber(7, {2: 2 ** 30})     # a product by it is a rotation
    with pytest.raises(ArithmeticError, match="product could pass int64"):
        big * monomial
    assert (CyclotomicNumber(7, {0: Fraction(1, 2), 6: -1}) * monomial).coeffs == {
        2: 2 ** 29, 1: -(2 ** 30)}
    # up to the bound the product is exact: 2^31 squared is 2^62
    half = CyclotomicNumber(7, {0: 2 ** 31, 4: 1})
    assert (half * half).coeffs == {0: 2 ** 62, 4: 2 ** 32, 1: 1}


# ---------------------------------------------------------------------------
# the integer-cost paths: phases, single roots, one-term products, equality

@pytest.mark.parametrize("x", [Fraction(-7, 4), Fraction(5, 4), Fraction(3, 4), Fraction(0),
                               Fraction(-1, 3), Fraction(7, 1), 0, 3, -1, -12,
                               np.int64(-5), np.int32(4)])
def test_root_phase_is_the_fraction_mod_one(x):
    phase = RootOfUnity(x).phase
    assert phase == Fraction(int(x) if isinstance(x, np.integer) else x) % 1
    assert type(phase) is Fraction and 0 <= phase < 1
    assert type(phase.numerator) is int and type(phase.denominator) is int
    assert RootOfUnity(x) == RootOfUnity(phase)
    assert hash(RootOfUnity(x)) == hash(RootOfUnity(phase))


def test_root_keeps_a_reduced_phase_and_refuses_floats():
    q = Fraction(3, 4)
    assert RootOfUnity(q).phase is q
    with pytest.raises(AttributeError):     # a float has no exact phase
        RootOfUnity(0.25)


def _same_number(x, y):
    return (x.level == y.level and x.den == y.den and np.array_equal(x.num, y.num))


def test_from_root_equals_the_dict_constructor():
    for phase in (Fraction(0), Fraction(1, 5), Fraction(4, 25), Fraction(5, 12), Fraction(-2, 7)):
        root = RootOfUnity(phase)
        for coeff in (1, -1, 3, 0, Fraction(2, 3), Fraction(-5, 4), Fraction(6, 3), np.int64(-2)):
            n = root.order
            want = CyclotomicNumber(n, {int(root.phase * n): Fraction(int(coeff))
                                        if isinstance(coeff, np.integer) else coeff})
            got = CyclotomicNumber.from_root(root, coeff=coeff)
            assert _same_number(got, want), (phase, coeff)


def test_from_root_refuses_past_int64():
    for c in (2 ** 63, -(2 ** 63), Fraction(2 ** 64, 3)):
        with pytest.raises(ArithmeticError, match="coefficient could pass int64"):
            CyclotomicNumber.from_root(RootOfUnity(Fraction(1, 5)), coeff=c)


def test_one_term_products_match_the_dense_oracle():
    import random

    rng = random.Random(31)
    for level in (1, 2, 12, 25, 49, 210, 1029):
        for _ in range(12):
            xd = {rng.randrange(level): Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
                  for _ in range(rng.randrange(0, 7))}
            e = rng.randrange(level)
            c = rng.choice((1, -1, 0, 2, -3, Fraction(1, 2), Fraction(-7, 3)))
            x, mono = CyclotomicNumber(level, xd), CyclotomicNumber(level, {e: c})
            want = CyclotomicNumber(level, _dict_product(xd, {e: c}, level)).reduced_dense()
            for got in (x * mono, mono * x):
                assert got.reduced_dense().coeffs == want.coeffs
                assert _same_number(got, CyclotomicNumber(level, _dict_product(xd, {e: c}, level)))
        # a root of unity at a smaller level is lifted before it rotates
        root = RootOfUnity(Fraction(rng.randrange(level), level))
        x = CyclotomicNumber(level, {1: 3, 0: Fraction(-1, 2)})
        lifted = CyclotomicNumber(level, {int(root.phase * level): 1})
        assert _same_number(x * CyclotomicNumber.from_root(root), x * lifted)


def test_same_level_equality_agrees_with_the_difference():
    import random

    rng = random.Random(32)
    for level in (1, 5, 12, 25, 45, 210, 1029):
        phi = CyclotomicNumber(level, dict(enumerate(cyclotomic_polynomial(level))))
        for k in range(16):
            xd = {rng.randrange(level): rng.randrange(-4, 5) for _ in range(rng.randrange(1, 6))}
            x = CyclotomicNumber(level, xd)
            if k % 4 == 0:      # the same number on another representative
                y = x + phi * CyclotomicNumber(level, {rng.randrange(level): rng.randrange(1, 4)})
            elif k % 4 == 1:    # one coefficient moved off it
                y = x + CyclotomicNumber(level, {rng.randrange(level): rng.choice((-1, 2))})
            elif k % 4 == 2:    # another denominator: the general route
                y = CyclotomicNumber(level, {e: Fraction(c, 2) for e, c in xd.items()})
            else:
                y = CyclotomicNumber(level, {rng.randrange(level): rng.randrange(-4, 5)
                                             for _ in range(3)})
            assert (x == y) == (x - y).is_zero() == (y == x)
            assert (x == y) == (not (x - y).reduced_dense().coeffs)
            if k % 4 == 0:
                assert x == y
    # known zero sums against zero at their level
    for p in (3, 5, 7):
        full = CyclotomicNumber(p, {e: 1 for e in range(p)})
        assert full == CyclotomicNumber(p)
    primitive25 = CyclotomicNumber(25, {e: 1 for e in range(25) if e % 5})
    assert primitive25 == CyclotomicNumber(25)
    assert CyclotomicNumber(25, {e: 1 for e in range(1, 25)}) == CyclotomicNumber(25, {0: -1})


def test_same_level_equality_refuses_past_int64():
    a = CyclotomicNumber(7, {0: 2 ** 62, 3: 1})
    b = CyclotomicNumber(7, {0: -(2 ** 62), 3: 1})
    with pytest.raises(ArithmeticError, match="sum could pass int64"):
        a == b
    # the difference fits, its reduction might not
    c = CyclotomicNumber(7, {0: 2 ** 61 + 2 ** 60, 3: 1})
    d = CyclotomicNumber(7, {0: -(2 ** 60), 3: 1})
    with pytest.raises(ArithmeticError, match="reduction could pass int64"):
        c == d


# ---------------------------------------------------------------------------
# the product as a sum of rotations

def _random_terms(rng, level, count):
    return {rng.randrange(level): Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
            for _ in range(count)}


def _lifted_terms(terms, level, n):
    return {e * (n // level): c for e, c in terms.items()}


@pytest.mark.parametrize("la,lb", [(12, 12), (25, 25), (49, 7), (12, 18), (45, 6),
                                   (1, 35), (210, 210)])
def test_rotation_products_match_the_dense_oracle(la, lb):
    # sparse x dense, dense x sparse, dense x dense and a number times
    # itself, at composite levels and unequal operand levels: the cyclic
    # product by the dictionary loop, bit for bit, and the same number as
    # the power-basis remainder
    rng = random.Random(la * 1000 + lb)
    n = lcm(la, lb)
    for ta, tb in [(2, lb), (la, 3), (la, lb), (4, 4)]:
        xd, yd = _random_terms(rng, la, ta), _random_terms(rng, lb, tb)
        x, y = CyclotomicNumber(la, xd), CyclotomicNumber(lb, yd)
        xn, yn = _lifted_terms(xd, la, n), _lifted_terms(yd, lb, n)
        for got, want in [(x * y, _dict_product(xn, yn, n)), (y * x, _dict_product(yn, xn, n)),
                          (x * x, _dict_product(xd, xd, la))]:
            exact = CyclotomicNumber(got.level, want)
            assert _same_number(got, exact)
            assert got.reduced_dense().coeffs == exact.reduced_dense().coeffs


def test_zero_and_one_term_operands_in_either_order():
    x = CyclotomicNumber(12, {1: 3, 5: Fraction(-1, 2), 7: 2})
    for zero in (CyclotomicNumber(12), CyclotomicNumber(4), CyclotomicNumber(1)):
        for got in (x * zero, zero * x):
            assert got.level == 12 and not got.num.any() and got.den == 1
    assert (CyclotomicNumber(6) * CyclotomicNumber(4)).level == 12
    for mono in (CyclotomicNumber(12, {4: -3}), CyclotomicNumber(3, {2: Fraction(5, 7)}),
                 CyclotomicNumber(1, {0: Fraction(-2, 3)})):
        want = CyclotomicNumber(12, _dict_product(x.coeffs, _lifted_terms(
            mono.coeffs, mono.level, 12), 12))
        for got in (x * mono, mono * x):
            assert _same_number(got, want)
    assert _same_number(mono * mono, CyclotomicNumber(1, {0: Fraction(4, 9)}))


def test_the_product_bound_is_checked_before_the_product_is_formed():
    # (sum |c| of the sparser operand) x (largest |c| of the other) past
    # int64 raises, with no level-sized vector formed: the operands share
    # the level, so nothing is lifted either
    n = 1 << 20
    sparse = CyclotomicNumber(n, {0: 2 ** 31, 9: -1})
    other = CyclotomicNumber(n, {3: 2 ** 32, 7: 5, 11: -(2 ** 31)})
    tracemalloc.start()
    try:
        with pytest.raises(ArithmeticError, match="product could pass int64"):
            sparse * other
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n // 16
    # (2^31 + 1) 2^31 is below 2^63: this one is formed, exactly
    half = CyclotomicNumber(n, {3: 2 ** 31, 7: 5, 11: -(2 ** 31)})
    got = sparse * half
    assert got.coeffs == _dict_product(sparse.coeffs, half.coeffs, n)


@pytest.mark.parametrize("p,level", [(3, n) for n in range(2, 10)] + [(5, n) for n in range(2, 8)]
                         + [(7, n) for n in range(2, 6)])
def test_reduced_seed_gauss_sums_have_at_most_p_minus_1_terms(p, level):
    # the square in charsums._unit_square is fast because of this: by
    # stationary phase G is p^(c/2) times a root of unity, or p^((c-1)/2)
    # times a root of unity and a quadratic Gauss sum mod p
    Q = nf_load("rationals")
    chi = seed_character(RayClassGroup(PrimeContext(Q, p, Q.element_from_int(p)), level))
    den, exps, _ = _gauss_terms(chi.conjugate(), 1)
    reduced = CyclotomicNumber.from_array(den, np.bincount(exps, minlength=den)).reduced()
    assert 1 <= np.count_nonzero(reduced.num) <= p - 1
