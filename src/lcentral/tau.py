"""Coefficient tables of the weight-12 level-1 cusp form Delta.

Production route (`tau_table` and `tau_exact`): Ramanujan's identity ("On certain
arithmetical functions", 1916), which follows from
E_6^2 = E_12 - (762048/691) Delta in the two-dimensional space M_12:

    756 tau(n) = 65 sigma_11(n) + 691 sigma_5(n)
                 - 174132 sum_{k=1}^{n-1} sigma_5(k) sigma_5(n - k).

- The primes are the shortest prefix of `ntt.NTT_PRIMES` whose product
  exceeds 4 limit^6, the range the signed CRT needs under Deligne's bound.
  The five multiply to about 2^153.4, past 4 (2^25)^6 = 2^152 at the cap.
- `_DivisorIndex`, built once and independent of the prime, holds the
  prime-power chains and, for every other n, the full power P(n) of its
  smallest prime factor and the cofactor n / P(n), grouped by that prime,
  largest first, so that sigma(n) = sigma(P(n)) sigma(n / P(n)) only reads
  entries already filled.  Its index arrays are int32.
- Per prime p: sigma_5 and sigma_11 mod p through that structure, the
  low limit - 1 terms of the square of the sigma_5 column by one short
  square (`ntt.Transform.short_square`, at transform_size(limit - 1)
  points, 2^k or 3 * 2^k) for the convolution sum, and the identity
  solved for tau mod p.  The int64 sigma columns are freed before the
  transforms (the operand enters them as int32), and each prime keeps only
  its int32 residues; `threads` workers take that many primes at once,
  the package's one thread pool (numpy releases the GIL in the
  butterflies).
- int64 bounds: every prime is below 2^31 and sigma values are kept in
  [0, p), so a product of two of them is below 2^62;
  65 sigma_11 + 691 sigma_5 is below 756 * 2^31 and 174132 times a reduced
  sum below 2^49.  Arrays that live from one prime to the next (the
  residues, Garner's digits, the index) are int32 and are widened to int64
  inside each arithmetic pass.
- Memory: the tracemalloc peak of `tau_table(152603)` is about 77 bytes
  per coefficient, set by the fourth prime's short square (three n-entry
  int64 arrays and the twiddle matrix, next to the index and the earlier
  primes' residues).
- Garner's mixed-radix digits (`ntt.garner_digits`, int32)
  are read out two ways.  `tau_table`, the table the sums read, is
  `ntt.mixed_radix_float`: each entry is the correctly rounded float(tau(n))
  (to nearest, ties to even), assembled over 32-bit limbs in uint64 and
  rounded once, with no Python int formed.  `tau_exact` is
  `ntt.mixed_radix_value`: exact Python ints, for the places that compare
  integers (the acceptance sweep's bound scan, documents, tests).
- Self-checks, each raising ArithmeticError, on exact values read from the
  digits at the few indices they need, before either read-out: tau(n) for
  n <= 13, and at the top of the table, where the values are largest and a
  short CRT range would show first, tau(ab) = tau(a) tau(b) at the largest
  index that splits as a coprime product and tau(q^2) = tau(q)^2 - q^11 at
  the largest prime q with q^2 <= limit.

Oracle route (`tau_table_bigint`): the eta product q prod(1-q^n)^24 as the
eighth power of Jacobi's sparse series prod(1-q^n)^3 =
sum (-1)^k (2k+1) q^{k(k+1)/2}, squared three times by packing coefficients
into Python big integers (Kronecker substitution).  It shares neither
arithmetic nor identity with the production route, so the tests that hold the
two equal coefficient for coefficient check each against an independent
construction.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from math import isqrt

import numpy as np

from .ntt import (Transform, crt_primes, garner_digits, mixed_radix_float,
                  mixed_radix_value, transform_size)

# Largest table: the short square of the 2^25 - 1 term sigma_5 column runs at
# transform_size(2^25 - 1) = 2^25 points, which divides every p - 1 of the
# prime set (it supports up to 3 * 2^25 points); the five primes multiply
# past 4 (2^25)^6, the CRT range the table needs.
TAU_LIMIT_CAP = 1 << 25

_SMALL_TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048,
              7: -16744, 8: 84480, 9: -113643, 10: -115920,
              11: 534612, 12: -370944, 13: -577738}


# The package's one prime sieve; newforms.py imports this module, so the
# sieve lives here rather than there.
def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[m] for m = 0..n as int32 (0 at 0 and 1); the primes are the m
    with spf[m] == m."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    spf[:2] = 0
    return spf


def primes_up_to(n: int) -> list[int]:
    spf = smallest_prime_factors(n)[2:]
    return (np.flatnonzero(spf == np.arange(2, n + 1)) + 2).tolist()


def cube_series_terms(limit: int) -> list[tuple[int, int]]:
    """Sparse (exponent, coefficient) pairs of prod(1-q^n)^3 below `limit`."""
    out = []
    k = 0
    while k * (k + 1) // 2 < limit:
        out.append((k * (k + 1) // 2, (2 * k + 1) * (-1 if k & 1 else 1)))
        k += 1
    return out


# ---------------------------------------------------------------------------
# divisor-sum route
# ---------------------------------------------------------------------------

def _power_mod(x: np.ndarray, k: int, p: int) -> np.ndarray:
    """x^k mod p as int64, for entries of x in [0, p), p < 2^31."""
    out = np.ones(x.shape, dtype=np.int64)
    base = x.astype(np.int64)
    while k:
        if k & 1:
            out = out * base % p
        k >>= 1
        if k:
            base = base * base % p
    return out


class _DivisorIndex:
    """The multiplicative structure of 1..m that the divisor sums read; it
    does not depend on the prime, held in int32 index arrays.

    `chains[e - 1]` is (q^e, q^(e-1), q) over the prime powers q^e <= m;
    `groups` is (n, P(n), n / P(n)) over the n that are not prime powers,
    P(n) the full power of the smallest prime factor q of n, one group per q
    from the largest q down: n / P(n) has only prime factors above q, so its
    sum is filled in by an earlier group or chain.  `split` is (P(n), n / P(n))
    at the largest such n and `root_prime` the largest prime q with q^2 <= m,
    each None when there is none: the points of the table's top self-check.
    """

    def __init__(self, m: int):
        self.m = m
        spf = smallest_prime_factors(m)
        n = np.arange(m + 1, dtype=np.int32)
        primes = n[2:][spf[2:] == n[2:]]
        small = primes[:np.searchsorted(primes, isqrt(m), side="right")]
        power = spf.copy()          # raised to q^e on the multiples of q^e
        for q in small.tolist():    # whose smallest prime factor is q
            qe = q * q
            while qe <= m:
                at = power[qe::qe]
                at[spf[qe::qe] == q] = qe
                qe *= q
        cofactor = n // np.maximum(power, 1)
        self.chains = []
        q = qe = primes
        while q.size:
            self.chains.append((qe, qe // q, q))
            keep = q <= m // qe         # q^(e+1) <= m, with no product past m
            q = q[keep]
            qe = qe[keep] * q
        composite = np.flatnonzero(cofactor > 1).astype(np.int32)
        # a composite's q is at most sqrt(m) < 2^15: int16 keys sort by radix
        order = np.argsort(-spf[composite].astype(np.int16), kind="stable")
        cuts = np.flatnonzero(np.diff(spf[composite[order]])) + 1
        self.groups = [(c, power[c], cofactor[c])
                       for c in np.split(composite[order], cuts)]
        top = int(composite[-1]) if composite.size else 0
        self.split = (int(power[top]), int(cofactor[top])) if top else None
        self.root_prime = int(small[-1]) if small.size else None

    def sigma(self, k: int, p: int) -> np.ndarray:
        """sigma_k(n) = sum of d^k over the divisors d of n, mod p, at index n
        for 0 <= n <= m (entry 0 is 0)."""
        s = np.zeros(self.m + 1, dtype=np.int64)
        s[1] = 1
        for c, prev, q in self.chains:      # sigma(q^e) = 1 + q^k sigma(q^(e-1))
            s[c] = (_power_mod(q, k, p) * s[prev] + 1) % p
        for c, a, b in self.groups:
            s[c] = np.take(s, a) * np.take(s, b) % p
        return s


def _ramanujan_residues(index: _DivisorIndex, limit: int, p: int,
                        g: int) -> np.ndarray:
    """tau(n) mod p at index n for 0 <= n <= limit (entry 0 is 0), from
    Ramanujan's identity, as int32."""
    s5 = index.sigma(5, p)
    out = ((65 * index.sigma(11, p) + 691 * s5) % p).astype(np.int32)
    if limit > 1:
        # sum_{k=1}^{n-1} sigma_5(k) sigma_5(n-k) for n = 2..limit: the low
        # limit - 1 terms of the square of the sigma_5 column, which enters
        # the transforms as int32 with the int64 sigma columns freed
        col = s5[1:limit].astype(np.int32)
        del s5
        conv = Transform(transform_size(limit - 1), p, g).short_square(col, limit - 1)
        conv *= -174132
        conv += out[2:]
        out[2:] = conv % p
    return (out.astype(np.int64) * pow(756, -1, p) % p).astype(np.int32)


def _crt_primes(limit: int) -> tuple[tuple[int, int], ...]:
    """The primes whose product exceeds 4 limit^6: Deligne's bound
    |tau(n)| <= d(n) n^(11/2), with d(n) <= 2 sqrt(n), keeps every entry
    within 2 limit^6."""
    return crt_primes(2 * limit ** 6)


def _check_table(digits: list[np.ndarray], primes: list[int],
                 split: tuple[int, int] | None, root_prime: int | None) -> None:
    """The self-checks of the module docstring, on exact values read from
    the digits at the indices they need; ArithmeticError on failure."""
    limit = digits[0].shape[0] - 1
    points = {n for n in _SMALL_TAU if n <= limit}
    if split is not None:
        a, b = split
        points |= {a, b, a * b}
    if root_prime is not None:
        points |= {root_prime, root_prime ** 2}
    at = sorted(points)
    tau = dict(zip(at, mixed_radix_value([d[at] for d in digits], primes).tolist()))
    for n, v in _SMALL_TAU.items():
        if n <= limit and tau[n] != v:
            raise ArithmeticError(f"tau({n}) reproduced as {tau[n]}, not {v}")
    if split is not None:
        if tau[a * b] != tau[a] * tau[b]:
            raise ArithmeticError(f"tau({a * b}) != tau({a}) tau({b})")
    if root_prime is not None:
        q = root_prime
        if tau[q * q] != tau[q] ** 2 - q ** 11:
            raise ArithmeticError(f"tau({q}^2) != tau({q})^2 - {q}^11")


def _tau_digits(limit: int, threads: int = 1) -> tuple[list[np.ndarray], list[int]]:
    """Garner's digits of tau(n) at index n for 0 <= n <= limit, and their
    primes, once the self-checks have passed.  At threads = 1 the primes run
    in turn on the calling thread and no thread is started."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > TAU_LIMIT_CAP:
        raise ValueError(
            f"limit {limit} is past the coefficient cap {TAU_LIMIT_CAP} "
            f"(the largest table whose short square fits a 2^25-point transform)")
    primes = _crt_primes(limit)
    index = _DivisorIndex(limit)
    def residues_mod(prime):
        return _ramanujan_residues(index, limit, *prime)
    if threads == 1:
        residues = list(map(residues_mod, primes))
    else:
        with ThreadPoolExecutor(min(threads, len(primes))) as pool:
            residues = list(pool.map(residues_mod, primes))
    checks = index.split, index.root_prime
    del index
    moduli = [p for p, _ in primes]
    digits = garner_digits(residues, moduli)
    del residues
    _check_table(digits, moduli, *checks)
    return digits, moduli


def tau_table(limit: int, threads: int = 1) -> np.ndarray:
    """float(tau(n)) at index n for 0 <= n <= limit, each correctly rounded
    (to nearest, ties to even), as a read-only float64 array; entry 0 is 0.

    This is the table the sums read; no Python int is formed on the way.
    The table does not depend on `threads`, the workers over the primes.
    """
    out = mixed_radix_float(*_tau_digits(limit, threads))
    out.setflags(write=False)
    return out


def tau_exact(limit: int) -> list[int]:
    """tau(n) at index n for 0 <= n <= limit, exactly; entry 0 is 0.

    The same digits as `tau_table`, read out as Python ints, for the places
    that compare integers: the bound scan of the acceptance sweep, documents
    and tests.
    """
    return mixed_radix_value(*_tau_digits(limit)).tolist()


# ---------------------------------------------------------------------------
# big-integer oracle route
# ---------------------------------------------------------------------------

_SLOT_BYTES = 16  # 128-bit slots; ample for every coefficient below the cap
_ORACLE_CAP = 20001


def _pack(coeffs: list[int]) -> int:
    return int.from_bytes(
        b"".join(c.to_bytes(_SLOT_BYTES, "little") for c in coeffs), "little")


def _unpack(x: int, count: int) -> list[int]:
    raw = x.to_bytes(count * _SLOT_BYTES, "little")
    return [int.from_bytes(raw[i * _SLOT_BYTES:(i + 1) * _SLOT_BYTES], "little")
            for i in range(count)]


def _square_bigint(coeffs: list[int], out_len: int) -> list[int]:
    """Exact polynomial square via packed integer multiplication.

    Signed input is split into nonnegative parts; (P - N)^2 is reassembled
    from the three nonnegative products so digit extraction never sees a
    negative limb.
    """
    pos = [c if c > 0 else 0 for c in coeffs]
    neg = [-c if c < 0 else 0 for c in coeffs]
    P, N = _pack(pos), _pack(neg)
    n = len(coeffs)
    pp = _unpack(P * P, 2 * n)
    nn = _unpack(N * N, 2 * n)
    pn = _unpack(P * N, 2 * n)
    return [pp[i] + nn[i] - 2 * pn[i] for i in range(out_len)]


def tau_table_bigint(limit: int) -> list[int]:
    """Slow exact route for cross-checking tau_exact; capped by design."""
    if not 1 <= limit <= _ORACLE_CAP:
        raise ValueError(f"oracle route is limited to {_ORACLE_CAP} coefficients")
    coeffs = [0] * limit
    for e, c in cube_series_terms(limit):
        coeffs[e] = c
    for _ in range(3):
        coeffs = _square_bigint(coeffs, limit)
    return [0] + coeffs

