import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral import tau as tau_module
from lcentral.newforms import _verify_full_table
from lcentral.ntt import (NTT_PRIMES, garner, garner_digits, mixed_radix_float,
                          transform_size)
from lcentral.tau import (_SMALL_TAU, TAU_LIMIT_CAP, _crt_primes, _DivisorIndex,
                          tau_exact, tau_table, tau_table_bigint)

TABLE = tau_exact(5000)


def hecke_eigenvalue_defect(table: list[int], m: int, n: int) -> int:
    """tau(m n) - tau(m) tau(n) for coprime m, n; zero iff multiplicative."""
    if math.gcd(m, n) != 1:
        raise ValueError("defect is defined for coprime arguments")
    return table[m * n] - table[m] * table[n]


def test_small_values_frozen():
    # direct expansion of the eta product to O(q^14)
    assert TABLE[1:14] == [1, -24, 252, -1472, 4830, -6048, -16744, 84480,
                           -113643, -115920, 534612, -370944, -577738]


def test_tau_691_frozen():
    assert TABLE[691] == -2747313442193908


def test_ntt_route_matches_bigint_route():
    assert TABLE == tau_table_bigint(5000)


def test_691_congruence():
    # tau(n) = sigma_11(n) mod 691.  tau_table's identity gives this almost
    # directly (691 * 252 = 174132 and 756 = 65 mod 691), so here the
    # independent check is the equality with tau_table_bigint above
    for n in range(1, 2000):
        sigma11 = sum(d ** 11 for d in range(1, n + 1) if n % d == 0)
        assert (TABLE[n] - sigma11) % 691 == 0


def test_hecke_multiplicativity():
    for m, n in [(2, 3), (3, 4), (5, 7), (8, 9), (25, 49), (11, 13)]:
        assert math.gcd(m, n) == 1
        assert TABLE[m * n] == TABLE[m] * TABLE[n]
        assert hecke_eigenvalue_defect(TABLE, m, n) == 0


def test_hecke_prime_square_recursion():
    for p in (2, 3, 5, 7, 11, 13, 17):
        assert TABLE[p * p] == TABLE[p] ** 2 - p ** 11


def test_hecke_defect_requires_coprimality():
    with pytest.raises(ValueError):
        hecke_eigenvalue_defect(TABLE, 4, 6)


def test_deligne_bound_at_primes():
    # |tau(p)| <= 2 p^(11/2), exact integer comparison via squaring
    for p in range(2, 5001):
        if any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            continue
        assert TABLE[p] ** 2 <= 4 * p ** 11, p


def test_table_guards():
    with pytest.raises(ValueError):
        tau_table(0)
    with pytest.raises(ValueError):
        tau_exact(0)
    with pytest.raises(ValueError):
        tau_table_bigint(30000)  # reference route is capped by design


def test_routes_agree_on_tiny_tables():
    # limit 1 has no convolution sum, limit 2 a one-term one
    for limit in range(1, 14):
        table = tau_exact(limit)
        assert table == tau_table_bigint(limit)
        assert table[1:] == [_SMALL_TAU[n] for n in range(1, limit + 1)]
        assert tau_table(limit).tolist() == [float(c) for c in table]


def test_divisor_sums_match_the_naive_sums_mod_every_prime():
    m = 3000
    divisors = [[] for _ in range(m + 1)]
    for d in range(1, m + 1):
        for n in range(d, m + 1, d):
            divisors[n].append(d)
    index = _DivisorIndex(m)
    for k in (5, 11):
        exact = [0] + [sum(d ** k for d in divisors[n]) for n in range(1, m + 1)]
        for p, _ in _crt_primes(337564):
            assert index.sigma(k, p).tolist() == [s % p for s in exact], (k, p)


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=20001))
def test_ntt_route_matches_bigint_route_at_random_limits(limit):
    assert tau_exact(limit) == tau_table_bigint(limit)


@pytest.mark.parametrize("limit,size", [(6144, 3 << 12), (6145, 1 << 14),
                                        (8192, 1 << 14), (8193, 3 << 13)])
def test_routes_agree_where_the_transform_size_switches(limit, size):
    # a product of limit-term operands, 2 limit - 1 points, just below and
    # above 3 * 2^12 and 2^14
    assert transform_size(2 * limit - 1) == size
    assert tau_exact(limit) == tau_table_bigint(limit)


@pytest.mark.parametrize("limit,size", [(6145, 3 << 12), (6146, 1 << 14),
                                        (8193, 1 << 14), (8194, 3 << 13)])
def test_routes_agree_where_the_squaring_size_switches(limit, size):
    # the sigma_5 operand has limit - 1 terms, so its square takes 2 limit - 3
    # points: these limits square on either side of a switch between 2^k and
    # 3 * 2^k points
    assert transform_size(2 * limit - 3) == size
    assert tau_exact(limit) == tau_table_bigint(limit)


@pytest.fixture(scope="module")
def table_100k():
    return tau_exact(100000)


def test_table_100k_frozen(table_100k):
    # SHA-256 of the comma-joined table as the earlier radix-2 route built it
    digest = hashlib.sha256(",".join(map(str, table_100k)).encode()).hexdigest()
    assert digest == "1b40302cfe622b682eee3f69ffeb05b8aa39a0532147998c7f45d15d7c0a3c9b"


def test_table_past_the_oracle_satisfies_the_hecke_identities(table_100k):
    # 100,000 is the first tested size that needs a fourth CRT prime; past
    # the bigint oracle's cap the table is held to multiplicativity, the
    # prime-power recursion and Deligne's bound at every prime instead
    assert len(_crt_primes(100000)) == 4 and len(_crt_primes(20001)) == 3
    assert len(_crt_primes(337564)) == 4
    _verify_full_table(table_100k, 12, Fraction(0))
    assert table_100k[:5001] == TABLE


def test_a_short_crt_range_is_caught_at_the_top_of_the_table(monkeypatch):
    # one prime fewer than 4 limit^6 needs: the largest entries wrap modulo
    # the product, and the Hecke checks at the top of the table see it
    primes = _crt_primes(100000)
    monkeypatch.setattr(tau_module, "_crt_primes", lambda limit: primes[:-1])
    with pytest.raises(ArithmeticError):
        tau_table(100000)
    with pytest.raises(ArithmeticError):
        tau_exact(100000)


def test_negative_values_past_the_oracle(table_100k):
    # tau(2q) = tau(2) tau(q) = -24 tau(q) for odd primes q: with tau(q) > 0
    # from the oracle this is negative and past 2^63 in size, so the CRT sign
    # step is checked exactly
    oracle = tau_table_bigint(12000)
    primes = [q for q in range(11000, 12001)
              if all(q % d for d in range(2, math.isqrt(q) + 1))]
    positive = [q for q in primes if oracle[q] > 0]
    assert len(positive) > 10
    for q in positive:
        assert table_100k[2 * q] == -24 * oracle[q] < -2 ** 63


def test_garner_round_trip_for_every_prime_count():
    rng = random.Random(5)
    for k in range(1, len(NTT_PRIMES) + 1):
        primes = [p for p, _ in NTT_PRIMES[:k]]
        modulus = math.prod(primes)
        values = [modulus // 2, -(modulus // 2) + (modulus % 2 == 0), 0, -1, 1]
        values += [rng.randrange(-(modulus // 2), modulus // 2) for _ in range(40)]
        residues = [np.array([v % p for v in values], dtype=np.int64)
                    for p in primes]
        assert garner(residues, primes).tolist() == values


@pytest.mark.parametrize("k", range(1, len(NTT_PRIMES) + 1))
def test_float_readout_rounds_as_float_of_the_int(k):
    # random signed values, +-M/2, and +-(2^e + delta) around the rounding
    # points of 2^e: at 2^e itself, half an ulp above it (a tie, to even:
    # down), three halves of an ulp above it (a tie: up) and a quarter ulp
    # below it, each with small offsets either side
    rng = random.Random(k)
    primes = [p for p, _ in NTT_PRIMES[:k]]
    half = math.prod(primes) // 2
    values = [half, -half, 0, 1, -1]
    values += [rng.randrange(-half, half + 1) for _ in range(500)]
    for e in range(54, 151):
        for base in ((1 << e), (1 << e) + (1 << (e - 53)),
                     (1 << e) + 3 * (1 << (e - 53)), (1 << e) - (1 << (e - 54))):
            for delta in range(-2, 3):
                if abs(base + delta) <= half:
                    values += [base + delta, -(base + delta)]
    residues = [np.array([v % p for v in values], dtype=np.int64) for p in primes]
    got = mixed_radix_float(garner_digits(residues, primes), primes)
    assert got.tolist() == [float(v) for v in values]


@pytest.mark.parametrize("limit", [20001, 152588, 337564])
def test_float_table_is_the_rounded_exact_table(limit):
    table = tau_table(limit)
    assert not table.flags.writeable and table.dtype == np.float64
    assert table.tolist() == [float(c) for c in tau_exact(limit)]


def test_float_table_stays_in_its_memory_budget():
    # the float table is built from int64 digits with no Python-int list or
    # object array on the way: at most 150 bytes per coefficient at the peak
    # (235 with object arrays), and nothing kept but the 8-byte entries
    limit = 100000
    tracemalloc.start()
    try:
        table = tau_table(limit)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 150 * limit
    assert kept - table.nbytes < 4096


def test_prime_product_covers_the_cap():
    # the signed CRT needs a product past 4 limit^6 at the largest table
    assert math.prod(p for p, _ in NTT_PRIMES) > 4 * TAU_LIMIT_CAP ** 6
    assert len(_crt_primes(TAU_LIMIT_CAP)) <= 5


def _factor(n):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def test_prime_set_supports_2_24_point_transforms():
    # largest first, so that a table's prefix of primes is as short as it can be
    assert [p for p, _ in NTT_PRIMES] == sorted((p for p, _ in NTT_PRIMES), reverse=True)
    for p, g in NTT_PRIMES:
        assert p < 2 ** 31
        assert (p - 1) % (1 << 24) == 0
        assert (p - 1) % (3 << 25) == 0
        # g^(p-1) = 1 and g^((p-1)/q) != 1 for each prime q | p - 1, read off
        # p - 1 = c 2^e with c odd: g has order p - 1, so g is a primitive
        # root and p is prime (Lucas)
        e = ((p - 1) & -(p - 1)).bit_length() - 1
        c = (p - 1) >> e
        assert c % 2 == 1 and e >= 24
        for q in set(_factor(c)) | {2}:
            assert pow(g, (p - 1) // q, p) != 1
        assert pow(g, p - 1, p) == 1


def test_limits_past_the_cap_are_refused_before_any_work():
    assert 2 * TAU_LIMIT_CAP - 1 < 1 << 24
    with pytest.raises(ValueError, match="cap"):
        tau_table(TAU_LIMIT_CAP + 1)
    with pytest.raises(ValueError, match="cap"):
        tau_table(10 ** 12)
    with pytest.raises(ValueError, match="cap"):
        tau_exact(TAU_LIMIT_CAP + 1)
