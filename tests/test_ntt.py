"""The coefficient table's transform: sizes, round trips and the short square;
and the exact unit square against an np.convolve fold."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral.charsums import _gauss_terms, _unit_square
from lcentral.fields import nf_load
from lcentral.ntt import NTT_PRIMES, Transform, _square_plan, short_square, transform_size
from lcentral.rayclass import PrimeContext, RayClassGroup, seed_character
from lcentral.roots import CyclotomicNumber
from oracles import transform_product

# 1, 2, 3, 4, 6, 8, 12, ..., 3 * 2^10, 2^11
SIZES = sorted([1 << k for k in range(12)] + [3 << k for k in range(11)])


def test_transform_size_is_the_smallest_of_either_family():
    assert [transform_size(m) for m in (1, 2, 3, 4, 5, 7, 9, 13, 17, 25)] == \
        [1, 2, 3, 4, 6, 8, 12, 16, 24, 32]
    assert transform_size(2 * 337564 - 1) == 3 << 18


def test_sizes_outside_the_families_are_refused():
    p, g = NTT_PRIMES[0]
    for n in (5, 9, 10, 1 << 26):
        with pytest.raises(ValueError):
            Transform(n, p, g)


@pytest.mark.parametrize("p,g", NTT_PRIMES)
def test_forward_inverse_round_trip(p, g):
    rng = np.random.default_rng(p)
    for n in SIZES:
        t = Transform(n, p, g)
        x = rng.integers(0, p, n)
        spec, spare = t._forward(x.copy(), np.empty(n, dtype=np.int64))
        assert spec.min() >= 0 and spec.max() < p
        assert t._inverse(spec, spare, n).tolist() == x.tolist(), n


@pytest.mark.parametrize("p,g", NTT_PRIMES)
def test_cyclic_self_convolution_matches_exact_fold(p, g):
    # signed entries below 2^20 keep np.convolve exact in int64, while their
    # residues (s or p - s) span the whole range [0, p)
    rng = np.random.default_rng(p + 1)
    for n in SIZES:
        s = rng.integers(-(1 << 20), 1 << 20, n)
        full = np.convolve(s, s)
        cyclic = full[:n].copy()
        cyclic[:n - 1] += full[n:]
        x = s % p
        assert transform_product(Transform(n, p, g), x, x, n).tolist() == (cyclic % p).tolist(), n


@pytest.mark.parametrize("p,g", NTT_PRIMES)
def test_product_of_two_operands_is_linear(p, g):
    rng = np.random.default_rng(p + 2)
    for n in SIZES[1:]:
        a = rng.integers(-(1 << 20), 1 << 20, rng.integers(1, n + 1))
        b = rng.integers(-(1 << 20), 1 << 20, n + 1 - a.shape[0])
        want = np.convolve(a, b) % p
        got = transform_product(Transform(n, p, g), a % p, b % p, want.shape[0])
        assert got.tolist() == want.tolist(), n


def _plan_switches(top):
    """The lengths up to `top` at which `_square_plan`'s (k, n') changes,
    each with the length before it."""
    plans = [_square_plan(length) for length in range(1, top + 1)]
    return sorted({length for i in range(1, len(plans)) if plans[i] != plans[i - 1]
                   for length in (i, i + 1)})


PLAN_SWITCHES = _plan_switches(20001)


def _low_square(a, length, p, g):
    # the first `length` terms of the full square, at twice the points
    return transform_product(Transform(transform_size(2 * len(a) - 1), p, g), a, a, length)


def test_the_plan_splits_the_workloads_tables_finer():
    # k pieces of ceil(length / k) terms: fewer transform points than the
    # two halves at tower-a2's table and at the acceptance sweep's 100,000
    assert _square_plan(152587) == (5, 1 << 16)
    assert _square_plan(99999) == (7, 1 << 15)
    assert _square_plan(8441195) == (3, 3 << 21)
    # the cap's square still fits the primes' 2^25-point transforms
    assert _square_plan((1 << 25) - 1) == (2, 1 << 25)
    for length in (1, 2, 5, 100, 20001):
        k, n = _square_plan(length)
        assert 2 <= k <= 8 and n == transform_size(2 * -(-length // k) - 1)


@pytest.mark.parametrize("p,g", NTT_PRIMES)
def test_short_square_is_the_low_half_of_the_square(p, g):
    # on either side of every change of the plan up to 20,001 terms; the
    # all-(p - 1) operand, the largest residues, squares to coefficients
    # (j + 1) (p - 1)^2 = j + 1 mod p
    rng = np.random.default_rng(p + 3)
    for length in [1, 2, 3, 4] + PLAN_SWITCHES:
        a = rng.integers(0, p, length).astype(np.int32)
        want = _low_square(a, length, p, g).tolist()
        assert short_square(a, p, g) is None and a.tolist() == want, length
        got = np.full(length, p - 1, dtype=np.int32)
        short_square(got, p, g)
        assert got.tolist() == list(range(1, length + 1)), length


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=20000), st.sampled_from(NTT_PRIMES),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_short_square_matches_the_product_at_random_lengths(length, prime, seed):
    p, g = prime
    a = np.random.default_rng(seed).integers(0, p, length)
    want = _low_square(a, length, p, g).tolist()
    short_square(a, p, g)           # in place
    assert a.tolist() == want


def _np_convolve_fold(hist):
    n = len(hist)
    full = np.convolve(hist, hist)
    square = full[:n].copy()
    square[:n - 1] += full[n:]
    return square


def _level_characters(level):
    Q = nf_load("rationals")
    rcg = RayClassGroup(PrimeContext(Q, 5, Q.element_from_int(5)), level)
    if level == 1:                  # no seed character: every nontrivial one
        return [c for c in rcg.characters() if not c.is_trivial()]
    return [seed_character(rcg)]


@pytest.mark.parametrize("level", range(1, 7))
def test_unit_square_matches_the_np_convolve_fold(level):
    # the exact square the np.convolve fold gives certifies the same eps
    for chi in _level_characters(level):
        den, exps, _ = _gauss_terms(chi.conjugate(), 1)
        hist = np.bincount(exps, minlength=den)
        q = chi.conductor_norm
        eps = _unit_square(hist, q, chi.label)
        square = _np_convolve_fold(hist)
        n = len(hist)
        sq = CyclotomicNumber(n, {e: c for e, c in enumerate(square.tolist()) if c})
        assert sq == CyclotomicNumber.from_root(eps, coeff=q)
        with pytest.raises(ArithmeticError, match="not a root of unity"):
            _unit_square(hist, q + 1, chi.label)
