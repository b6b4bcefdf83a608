import concurrent.futures
import hashlib
import math
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral import afe
from lcentral import tau as tau_module
from lcentral.fields import nf_load
from lcentral.newforms import _verify_full_table, builtin_newform
from lcentral.ntt import (NTT_PRIMES, _square_plan, garner_digits,
                          mixed_radix_float, mixed_radix_residue, mixed_radix_value,
                          transform_size)
from lcentral.tau import (_C, _C_FACTORS, _CONGRUENCE_FACTORS, _SMALL_TAU,
                          TAU_LIMIT_CAP, _congruence_residues, _DivisorIndex,
                          _lift, _multiple, _ramanujan_residues, _transformed_count,
                          primes_up_to, tau_exact, tau_table, tau_table_bigint)
from oracles import traced

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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
    exact = {k: [0] + [sum(d ** k for d in divisors[n]) for n in range(1, m + 1)]
             for k in (5, 11)}
    for p, _ in NTT_PRIMES:
        # one column alone, and both from one walk, as the identity takes them
        assert index.sigma(p, 5)[0].tolist() == [s % p for s in exact[5]], p
        for k, got in zip((5, 11), index.sigma(p, 5, 11)):
            assert got.dtype == np.int32, (k, p)
            assert got.tolist() == [s % p for s in exact[k]], (k, p)


def test_divisor_index_groups_by_dyadic_range():
    # n / P(n) <= n / 2, so a block within the range [2^j, 2^(j+1)) reads
    # only the chains and the blocks below it; the index holds P(n) alone
    for m in (1, 6, 63, 64, 65, 3000, 152588):
        index = _DivisorIndex(m)
        assert index.power.dtype == np.int32 and index.power.shape == (m + 1,)
        is_power = np.zeros(m + 1, dtype=bool)
        for c, _, _ in index.chains:
            is_power[c] = True
        others = np.flatnonzero(~is_power)[2:]      # past 0 and 1
        assert (index.power[is_power] == np.flatnonzero(is_power)).all(), m
        groups = list(index.groups())
        assert [n for c, _, _ in groups for n in c.tolist()] == others.tolist(), m
        bits = [int(c[0]).bit_length() - 1 for c, _, _ in groups]
        assert bits == sorted(bits) and set(bits) == set(range(2, 2 + len(set(bits)))), m
        for (c, a, b), j in zip(groups, bits):
            assert c.shape[0] <= tau_module._BLOCK, m
            assert (c >> j == 1).all() and (a * b == c).all() and (np.gcd(a, b) == 1).all()
            assert (index.power[c] == a).all() and is_power[a].all(), m
            assert ((b > 1) & (is_power[b] | (b < 1 << j))).all(), m


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=1, max_value=20001))
def test_ntt_route_matches_bigint_route_at_random_limits(oracle_20001, limit):
    assert tau_exact(limit) == oracle_20001[:limit + 1]


@pytest.mark.parametrize("limit,size", [(6144, 3 << 12), (6145, 1 << 14),
                                        (8192, 1 << 14), (8193, 3 << 13)])
def test_routes_agree_where_the_transform_size_switches(limit, size, oracle_20001):
    # a product of limit-term operands, 2 limit - 1 points, just below and
    # above 3 * 2^12 and 2^14
    assert transform_size(2 * limit - 1) == size
    assert tau_exact(limit) == oracle_20001[:limit + 1]


@pytest.mark.parametrize("limit,size", [(6145, 3 << 12), (6146, 1 << 14),
                                        (8193, 1 << 14), (8194, 3 << 13)])
def test_routes_agree_where_the_squaring_size_switches(limit, size, oracle_20001):
    # the sigma_5 operand has limit - 1 terms, so its full square takes
    # 2 limit - 3 points: these limits sat on either side of a switch between
    # 2^k and 3 * 2^k points
    assert transform_size(2 * limit - 3) == size
    assert tau_exact(limit) == oracle_20001[:limit + 1]


@pytest.mark.parametrize("limit,size", [(12289, 3 << 12), (12290, 1 << 14),
                                        (16385, 1 << 14), (16386, 3 << 13)])
def test_routes_agree_where_the_short_square_size_switches(limit, size, oracle_20001):
    # a single-piece short square of the limit - 1 term sigma_5 column would
    # run at transform_size(limit - 1) points, switching between 3 * 2^k and
    # 2^k points at these limits; the split short square's plan
    # (k, n') = _square_plan(limit - 1) changes at each of them as well
    assert transform_size(limit - 1) == size
    assert _square_plan(limit - 2) != _square_plan(limit - 1) or \
        _square_plan(limit - 1) != _square_plan(limit)
    assert tau_exact(limit) == oracle_20001[:limit + 1]


def test_routes_agree_wherever_the_square_plan_changes(oracle_20001):
    # the short square of the limit - 1 term sigma_5 column runs in k pieces
    # at n' points, (k, n') = _square_plan(limit - 1): every limit up to
    # 20,001 on either side of a change of the plan, among them the two
    # halves' switches between 3 * 2^k and 2^k points
    plans = {limit: _square_plan(limit - 1) for limit in range(2, 20002)}
    limits = sorted({m for limit in range(3, 20002) if plans[limit] != plans[limit - 1]
                     for m in (limit - 1, limit)})
    assert len(limits) == 58 and limits[-2:] == [18433, 18434]
    assert {12289, 12290, 16385, 16386} <= set(limits)
    for limit in limits:
        assert tau_exact(limit) == oracle_20001[:limit + 1], limit


@pytest.fixture(scope="module")
def table_100k():
    return tau_exact(100000)


def test_table_100k_frozen(table_100k):
    # SHA-256 of the comma-joined table as the earlier radix-2 route built it
    digest = hashlib.sha256(",".join(map(str, table_100k)).encode()).hexdigest()
    assert digest == "1b40302cfe622b682eee3f69ffeb05b8aa39a0532147998c7f45d15d7c0a3c9b"


def test_table_past_the_oracle_satisfies_the_hecke_identities(table_100k):
    # at 100,000 the entries pass the product M of the two transformed
    # primes, so the lift's K is read out; past the bigint oracle's cap the
    # table is held to multiplicativity, the prime-power recursion and
    # Deligne's bound at every prime instead
    assert _transformed_count(100000) == 2
    assert max(map(abs, table_100k)) > 2 ** 30 * math.prod(p for p, _ in NTT_PRIMES[:2])
    _verify_full_table(table_100k, 12, Fraction(0))
    assert table_100k[:5001] == TABLE


def test_a_short_crt_range_is_caught_at_the_top_of_the_table(monkeypatch):
    # the range of the transformed primes alone, with no lift: t holds the
    # digits' value x read signed, in (-M/2, M/2], and K is read back from
    # it, so the largest entries wrap modulo M, and the Hecke checks at the
    # top of the table see it
    def signed(index, digits, moduli):
        return mixed_radix_float(digits, moduli)
    monkeypatch.setattr(tau_module, "_lift", signed)
    with pytest.raises(ArithmeticError, match="!="):
        tau_table(100000)
    with pytest.raises(ArithmeticError, match="!="):
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


# 691 and C's two factors, which the lift reads, and 33 * 2^25 + 1, a prime
# below 2^31 outside the set
_RESIDUE_MODULI = (691, 4837, 186624000, 1107296257)


def test_garner_round_trip_for_every_prime_count():
    rng = random.Random(5)
    for k in range(1, len(NTT_PRIMES) + 1):
        primes = [p for p, _ in NTT_PRIMES[:k]]
        modulus = math.prod(primes)
        values = [modulus // 2, -(modulus // 2) + (modulus % 2 == 0), 0, -1, 1]
        values += [rng.randrange(-(modulus // 2), modulus // 2) for _ in range(40)]
        residues = [np.array([v % p for v in values], dtype=np.int64)
                    for p in primes]
        digits = garner_digits(residues, primes)
        assert mixed_radix_value(digits, primes).tolist() == values
        # with no top digit the residue read-out reads the unsigned value
        for m in _RESIDUE_MODULI:
            assert mixed_radix_residue(digits, primes, m).tolist() == [
                v % modulus % m for v in values]


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


@pytest.mark.parametrize("k", range(1, len(NTT_PRIMES) + 1))
def test_readouts_with_a_signed_top_digit(k):
    # x + K M for the digits' value x in [0, M) and an int64 K past them, as
    # the lift hands the table over: exact, and as the correctly rounded
    # float, for K of either sign up to 2^62 and values around the rounding
    # points of 2^e as above, up to the cap's 2^152
    rng = random.Random(10 + k)
    primes = [p for p, _ in NTT_PRIMES[:k]]
    modulus = math.prod(primes)
    top = modulus << 62
    values = [0, 1, -1, modulus, -modulus, modulus - 1, -modulus + 1, top - 1, -top]
    values += [rng.randrange(-top, top) for _ in range(500)]
    values += [rng.randrange(-modulus << 47, modulus << 47) for _ in range(500)]
    for e in range(54, 153):
        for base in ((1 << e), (1 << e) + (1 << (e - 53)),
                     (1 << e) + 3 * (1 << (e - 53)), (1 << e) - (1 << (e - 54))):
            for delta in range(-2, 3):
                if abs(base + delta) < top:
                    values += [base + delta, -(base + delta)]
    residues = [np.array([v % p for v in values], dtype=np.int64) for p in primes]
    digits = garner_digits(residues, primes)
    digits.append(np.array([v // modulus for v in values], dtype=np.int64))
    assert mixed_radix_value(digits, primes).tolist() == values
    assert mixed_radix_float(digits, primes).tolist() == [float(v) for v in values]
    for m in _RESIDUE_MODULI:
        assert mixed_radix_residue(digits, primes, m).tolist() == [v % m for v in values]


@pytest.mark.parametrize("limit,digest", [
    (152588, "4112b49976ccdfdd89e5bb989cb6e3b4646b6d35280c1849877575aa29eb7c09"),
    (337564, "2476ea0727a82a81d44d9bd5fb9eb43e95aad513d1a26911a59add582da5e804")])
def test_float_table_frozen(limit, digest):
    # SHA-256 of the float64 bytes at tower-a2's size (two transformed
    # primes) and at three transformed primes, as the table was built when
    # its temporaries were count-length int64 arrays
    assert hashlib.sha256(tau_table(limit).tobytes()).hexdigest() == digest


@pytest.mark.parametrize("limit", [20001, 152588, 337564])
def test_float_table_is_the_rounded_exact_table(limit):
    table = tau_table(limit)
    assert not table.flags.writeable and table.dtype == np.float64
    assert table.tolist() == [float(c) for c in tau_exact(limit)]


@pytest.mark.parametrize("limit", [20001, 337564])
def test_table_does_not_depend_on_the_thread_count(limit):
    assert np.array_equal(tau_table(limit, threads=2), tau_table(limit, threads=1))


def test_a_pool_starts_only_past_one_thread(monkeypatch):
    # one worker runs the transformed primes in turn; more start one pool,
    # with at most one worker per transformed prime, imported only then
    pools = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    assert tau_table(1000, threads=1)[691] == float(TABLE[691])
    assert pools == []
    # one transformed prime at 1000: nothing to share
    assert _transformed_count(1000) == 1
    assert tau_table(1000, threads=8)[691] == float(TABLE[691])
    assert pools == []
    assert np.array_equal(tau_table(20001, threads=8), tau_table(20001))
    assert pools == [_transformed_count(20001)] == [2]


def test_importing_the_package_starts_no_pool_machinery():
    code = ("import sys, lcentral.cli; "
            "print('concurrent.futures' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": _SRC})
    assert out.stdout.strip() == "False"


def test_float_table_stays_in_its_memory_budget():
    # the table is held at rest in int32 (the index's P(n), the residues
    # and Garner's digits over them) and in the float t(n) it is read out
    # over; int64 lives only in a block or in a transform of n' points.
    # Per phase, in bytes per coefficient: the index build 9; each short
    # square about 18 over the index (4.8), the column it writes over (4)
    # and the earlier primes' residues (4): its int32 spectra, two n'-entry
    # int64 work arrays and the int32 twiddle matrix; Garner 15; the lift
    # 28-29, t beside the digits, the index and sigma_11 mod 691; the
    # read-out 22-25.  The second prime's square sets the peak, measured at
    # 30.6 at 100,000 and 31.3 at 152,588 (51 and 52 with count-length
    # int64 temporaries, 150 with the full square and int64 digits, 235
    # with object arrays), and nothing is kept but the 8-byte entries.
    # One table is built first, so numpy's cache of small freed buffers is
    # warm and the kept count does not depend on the tests that ran before
    for limit in (100000, 152588):
        table, kept, peak = traced(lambda: tau_table(limit), lambda: tau_table(limit))
        assert peak <= 32 * limit, limit
        assert kept - table.nbytes < 4096, limit


def test_two_workers_stay_in_their_memory_budget():
    # two workers square the two transformed primes at once, each over its
    # own column: the shared index and two squares' worth of the budget
    # above, measured at 48.6 bytes per coefficient (81.4 when each square
    # held count-length int64 columns and output)
    limit = 100000
    table, kept, peak = traced(lambda: tau_table(limit, threads=2),
                               lambda: tau_table(limit, threads=2))
    assert peak <= 60 * limit
    assert kept - table.nbytes < 4096


def test_prefab_stays_in_its_memory_budget():
    # a prefab array is built one block at a time into the 8-byte result,
    # which is all that is kept.  Within a block n, n/scale, the argument of
    # Q and the buffers of Q's finite sum are alive: measured at 6.0 blocks
    # of float64 past the result.  One array is built first, so the kernel,
    # its gamma value and numpy's cache of small buffers are warm
    limit = 152588
    form = builtin_newform("delta", limit=limit)
    kern = afe.vkernel_for(nf_load("rationals"), (0,), 6.0)
    arr, kept, peak = traced(lambda: afe._prefab(form, kern, 100.0, limit, False),
                             lambda: afe._prefab(form, kern, 200.0, limit, True))
    assert peak <= 8 * limit + 7 * 8 * afe._BLOCK
    assert kept - arr.nbytes < 4096


def test_prime_product_covers_the_cap():
    # at the largest table the transformed primes' product M meets both
    # inequalities of the lift: (1) at primes, 16 limit^11 < (C - 1)^2 M^2,
    # and (2) for the float products, 3 limit^6 < 2^47 M; and the read-out
    # x + K M reaches Deligne's 2 limit^6 with K an int64 top digit
    limit = TAU_LIMIT_CAP
    assert _transformed_count(limit) == len(NTT_PRIMES)     # and no prime sits unused
    modulus = math.prod(p for p, _ in NTT_PRIMES[:_transformed_count(limit)])
    assert 16 * limit ** 11 < ((_C - 1) * modulus) ** 2
    assert 3 * limit ** 6 < modulus << 47
    assert 2 * limit ** 6 // modulus + 1 < 2 ** 47
    # one prime fewer meets neither
    short = modulus // NTT_PRIMES[_transformed_count(limit) - 1][0]
    assert 16 * limit ** 11 >= ((_C - 1) * short) ** 2
    assert 3 * limit ** 6 >= short << 47


def _factor(n):
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def test_prime_set_supports_2_25_point_transforms():
    # largest first, so that a table's prefix of primes is as short as it can be
    assert [p for p, _ in NTT_PRIMES] == sorted((p for p, _ in NTT_PRIMES), reverse=True)
    for p, g in NTT_PRIMES:
        assert p < 2 ** 31
        assert (p - 1) % (1 << 25) == 0
        assert (p - 1) % (3 << 25) == 0
        # g^(p-1) = 1 and g^((p-1)/q) != 1 for each prime q | p - 1, read off
        # p - 1 = c 2^e with c odd: g has order p - 1, so g is a primitive
        # root and p is prime (Lucas)
        e = ((p - 1) & -(p - 1)).bit_length() - 1
        c = (p - 1) >> e
        assert c % 2 == 1 and e >= 25
        for q in set(_factor(c)) | {2}:
            assert pow(g, (p - 1) // q, p) != 1
        assert pow(g, p - 1, p) == 1


def test_limits_past_the_cap_are_refused_before_any_work():
    # the short square at the cap runs at a size every prime supports
    size = transform_size(TAU_LIMIT_CAP - 1)
    assert size == 1 << 25
    assert all((p - 1) % size == 0 for p, _ in NTT_PRIMES)
    with pytest.raises(ValueError, match=f"coefficient cap {1 << 25} "):
        tau_table(TAU_LIMIT_CAP + 1)
    with pytest.raises(ValueError, match="cap"):
        tau_table(10 ** 12)
    with pytest.raises(ValueError, match="cap"):
        tau_exact(TAU_LIMIT_CAP + 1)


# ---------------------------------------------------------------------------
# the lift: residues of the primes past the first k_t, without a transform
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def oracle_20001():
    return tau_table_bigint(20001)


def test_ramanujan_congruences_at_every_prime(oracle_20001):
    # Swinnerton-Dyer's congruences, written out with Python ints, against
    # the independent eta-product route at every prime 7 < q <= 20001
    primes = [q for q in primes_up_to(20001) if q > 7]
    assert len(primes) == 2258
    for q in primes:
        tau_q = oracle_20001[q]
        c = {1: 1, 3: 1217, 5: 1537, 7: 705}[q % 8]
        assert (tau_q - c * (1 + q ** 11)) % 2 ** 11 == 0, q
        assert (tau_q - pow(q, -610, 3 ** 6) * (1 + q ** 1231)) % 3 ** 6 == 0, q
        assert (tau_q - pow(q, -30, 5 ** 3) * (1 + q ** 71)) % 5 ** 3 == 0, q
        assert (tau_q - q * (1 + q ** 9)) % 7 == 0, q
        assert (tau_q - (1 + q ** 11)) % 691 == 0, q
    got = _congruence_residues(np.array(primes, dtype=np.int64))
    for factor, residues in zip(_C_FACTORS, got):
        assert residues.tolist() == [oracle_20001[q] % factor for q in primes]


def test_lift_constants_stay_in_int64():
    # C's factors are coprime to every NTT prime, so M is invertible mod C
    assert _C_FACTORS == (186624000, 4837) and _C == 2 ** 11 * 3 ** 6 * 5 ** 3 * 7 * 691
    assert tuple(math.prod(f) for f in _CONGRUENCE_FACTORS) == _C_FACTORS
    for p, _ in NTT_PRIMES:
        assert all(math.gcd(p, f) == 1 for f in _C_FACTORS)
    # every int64 product of the lift, at its largest operands
    top = 2 ** 63
    digit = max(p for p, _ in NTT_PRIMES)           # digits and residues below it
    for m in _C_FACTORS + tuple(p for p, _ in NTT_PRIMES):
        assert (digit - 1) * (m - 1) + m < top      # digit times weight mod m, plus acc
        assert (m - 1) * (m - 1) < top              # (K mod p)(M mod p), (t - r) M^-1
    c1, c2 = _C_FACTORS
    for factor, modulus in zip(_CONGRUENCE_FACTORS, _C_FACTORS):
        assert sum(m - 1 for m in factor) * modulus < top   # residue times CRT weight
    assert c1 - 1 + c1 * (c2 - 1) < 2 ** 40                 # K's CRT, before centring
    assert _C // 2 < 2 ** 53                                # K exact in float64


@pytest.mark.parametrize("limit,count", [(5750, 1), (5751, 2), (241757, 2),
                                         (241758, 3), (8441195, 3), (8441196, 4),
                                         (TAU_LIMIT_CAP, 4)])
def test_transformed_count_on_each_side_of_each_switch(limit, count):
    assert _transformed_count(limit) == count


def _lifted_and_transformed(limit, count):
    # (x + K M) mod p from the lift over the first `count` primes, and the
    # residues of each further prime's own transform
    index = _DivisorIndex(limit)
    moduli = [p for p, _ in NTT_PRIMES[:count]]
    digits = garner_digits([_ramanujan_residues(index, limit, *prime)
                            for prime in NTT_PRIMES[:count]], moduli)
    multiple = _multiple(_lift(index, digits, moduli), digits, moduli)
    lifted = [mixed_radix_residue(digits + [multiple], moduli, p)
              for p, _ in NTT_PRIMES[count:]]
    return lifted, [_ramanujan_residues(index, limit, *prime) for prime in NTT_PRIMES[count:]]


@pytest.mark.parametrize("limit", [5750, 5751, 20001, 241757, 241758])
def test_lifted_residues_are_the_transformed_ones(limit):
    # on either side of the first two switches, the lifted table's residues
    # mod each further NTT prime equal the ones its own transform gives
    lifted, transformed = _lifted_and_transformed(limit, _transformed_count(limit))
    assert lifted and len(lifted) == len(transformed)
    for a, b in zip(lifted, transformed):
        assert np.array_equal(a, b)


def test_one_transformed_prime_short_of_the_rule_lifts_a_wrong_table():
    # at 337,564 two transformed primes break inequality (1): primes past
    # about 282,721 lift to the wrong representative mod M C
    limit = 337564
    assert _transformed_count(limit) == 3
    lifted, transformed = _lifted_and_transformed(limit, 2)
    wrong = np.flatnonzero(lifted[0] != transformed[0])
    assert wrong.size and wrong[0] > 282721


def test_two_transforms_at_both_workloads_limits(monkeypatch):
    calls = []
    original = tau_module._ramanujan_residues

    def counted(index, limit, p, g):
        calls.append(p)
        return original(index, limit, p, g)
    monkeypatch.setattr(tau_module, "_ramanujan_residues", counted)
    for limit, count in [(100000, 2), (152588, 2), (337564, 3)]:
        calls.clear()
        tau_table(limit)
        assert calls == [p for p, _ in NTT_PRIMES[:count]], limit


def _corrupted_at(monkeypatch, n, offset):
    original = tau_module._ramanujan_residues

    def corrupted(index, limit, p, g):
        out = original(index, limit, p, g)
        if p == NTT_PRIMES[0][0]:
            out[n] = (int(out[n]) + offset) % p
        return out
    monkeypatch.setattr(tau_module, "_ramanujan_residues", corrupted)


@pytest.mark.parametrize("n", [99991, 2 * 3 * 5 * 7 * 11 * 13, 3 ** 10, 2 ** 16])
def test_a_corrupted_transform_residue_is_caught(monkeypatch, n):
    # a prime (Deligne's bound), a composite and two prime powers (the
    # float products): one residue off by p // 2 in the first prime's
    # transform, which moves r by about 2^60.9 mod M
    _corrupted_at(monkeypatch, n, NTT_PRIMES[0][0] // 2)
    with pytest.raises(ArithmeticError, match=f"tau\\({n}\\)"):
        tau_table(100000)


def test_a_residue_one_off_is_caught_by_the_691_congruence(monkeypatch):
    # an offset of 1 moves r by only about 2^35, under the float products'
    # tolerance once |tau(n)| passes about 2^83, as |tau(3^10)| does; tau(n)
    # = sigma_11(n) mod 691 sees it
    n = 3 ** 10
    assert abs(tau_exact(n)[n]) > 2 ** 83
    _corrupted_at(monkeypatch, n, 1)
    with pytest.raises(ArithmeticError, match=f"tau\\({n}\\).*691"):
        tau_table(100000)
