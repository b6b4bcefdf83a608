"""Coefficient tables of the weight-12 level-1 cusp form Delta.

Production route (`tau_table` and `tau_exact`): Ramanujan's identity ("On certain
arithmetical functions", 1916), which follows from
E_6^2 = E_12 - (762048/691) Delta in the two-dimensional space M_12:

    756 tau(n) = 65 sigma_11(n) + 691 sigma_5(n)
                 - 174132 sum_{k=1}^{n-1} sigma_5(k) sigma_5(n - k).

- The first k_t primes of `ntt.NTT_PRIMES` (`_transformed_count`) take a
  transform: one up to 5,750 coefficients, two up to 241,757, three up to
  8,441,195, all four up to the cap.  No other prime is needed: the lift
  below finds every entry exactly from their residues.
- `_DivisorIndex`, built once and independent of the prime, holds the
  prime-power chains and P(n), the full power of the smallest prime factor
  of n, as one int32 array.  Its walk (`groups`) derives the other n and
  their cofactors n / P(n) a block at a time, each block within the dyadic
  range [2^j, 2^(j+1)) that holds it, lowest first: n / P(n) <= n / 2, so
  sigma(n) = sigma(P(n)) sigma(n / P(n)) only reads entries already filled.
- Per transformed prime p: sigma_5 mod p through that structure, as an
  int32 column; the low limit - 1 terms of its square by one short square
  written over it (`ntt.short_square`, in k pieces at n' points, both fixed
  by limit - 1 alone) for the convolution sum; then sigma_5 and sigma_11
  again, from one walk, and the identity solved for tau mod p a block at a
  time into the same column, which the prime keeps as its int32 residues.
  `threads` workers take that many transformed primes at once, the
  package's one thread pool (numpy releases the GIL in the butterflies),
  imported only when it starts.
- The lift (`_lift`).  With M = p_1 ... p_(k_t) and r = tau(n) mod M,
  signed, from Garner's digits of the transformed residues, each
  tau(n) = r + K M is found exactly by walking `_DivisorIndex` in its
  order, and kept as the float t(n):
  - primes q <= 7: K = 0;
  - primes q > 7: Swinnerton-Dyer's congruences ("On l-adic
    representations and congruences for coefficients of modular forms",
    LNM 350, 1973) give tau(q) mod C = 2^11 3^6 5^3 7 691 as a closed form
    in q (`_congruence_residues`), in two factors below 2^31, 186,624,000
    and 4,837; the CRT with r fixes K in [-C/2, C/2);
  - prime powers: F = tau(q) tau(q^(e-1)) - q^11 tau(q^(e-2)), and
    composites: F = tau(P(n)) tau(n / P(n)), each in float64 from the
    floats kept for the entries already lifted; K = rint((F - r) / M).
  Both are exact while k_t meets its two inequalities,
  16 limit^11 < (C - 1)^2 M^2 at the primes and 3 limit^6 < 2^47 M for
  the floats (proved in `_transformed_count`).  No K is kept: against the
  digits' unsigned value x, so that tau(n) = x + K M, `_multiple` reads it
  back from t(n) and the top digit, a block at a time, as int64, below
  2^47 in size by the second inequality (exact by the same proof).
- int64 bounds: every prime is below 2^31 and sigma values are kept in
  [0, p), so a product of two of them is below 2^62;
  65 sigma_11 + 691 sigma_5 is below 756 * 2^31 and 174132 times a reduced
  sum below 2^49.  Reductions mod a prime go through floor division
  (`ntt.reduce_mod`).  Arrays that live from one step to the next (the
  index's P(n), the sigma columns, the residues and the digits written over
  them) are int32; int64 exists only inside a block of 2^12 entries (2^13
  in ntt.py) or in a transform of n' points.
- Memory, in bytes per coefficient at 152,588 (tracemalloc): the index
  holds 4.8 (P(n) 4, the chains the rest), each prime's column 4.  The
  second prime's short square sets the peak at 31.3 (30.6 at 100,000):
  its int32 spectra, two n'-entry int64 work arrays and the int32 twiddle
  matrix, about 18, next to the index, its column and the first prime's
  residues.  The lift holds t(n) (8) and sigma_11(n) mod 691 (int16, 2)
  next to the digits and the index, and peaks at 28; the read-out holds t
  and the digits (16) and one block's limbs.  t is the table's one lasting
  array, taken before the lift's temporaries, so that none of them is held
  resident below it.
- The transformed primes' Garner digits (`ntt.garner_digits`, written over
  the residues) and K as a signed top digit past them are read out two
  ways.  `tau_table`, the table the sums read, is `ntt.mixed_radix_float`
  written over t a block at a time: each entry is the correctly rounded
  float(x + K M) (to nearest, ties to even), assembled over 32-bit limbs
  in uint64 and rounded once, with no Python int formed.
  `tau_exact` is `ntt.mixed_radix_value`: exact Python ints, for the
  places that compare integers (the acceptance sweep's bound scan,
  documents, tests).
- Checks, each raising ArithmeticError.  On every entry, in the lift: at
  each prime, |tau(q)| <= 2 q^(11/2) (Deligne); at each prime power and
  composite, the lifted value lies within 2^-48 S of F, S the sum of the
  magnitudes of F's terms, which the float error never reaches.  Each
  tests the transforms' residue at that index against the congruences or
  multiplicativity, and sees an error that moves r by more than that
  tolerance mod M.  An error that moves r by less (a residue one off mod
  p_1 moves it by about 2^35) is seen by Ramanujan's congruence
  tau(n) = sigma_11(n) mod 691, checked on every lifted value but for one
  such error in 691; at primes the congruences hold it by construction and
  Deligne's bound covers them.  On exact values read from the digits and
  K at the few indices they need, before either read-out: tau(n) for
  n <= 13, and at the top of the table tau(ab) = tau(a) tau(b) at the
  largest index that splits as a coprime product and
  tau(q^2) = tau(q)^2 - q^11 at the largest prime q with q^2 <= limit
  (true by construction when the lift is right; they see a read-out whose
  range is too short, such as the digits' signed value without K).

Oracle route (`tau_table_bigint`): the eta product q prod(1-q^n)^24 as the
eighth power of Jacobi's sparse series prod(1-q^n)^3 =
sum (-1)^k (2k+1) q^{k(k+1)/2}, squared three times by packing coefficients
into Python big integers (Kronecker substitution).  It shares neither
arithmetic nor identity with the production route, so the tests that hold the
two equal coefficient for coefficient check each against an independent
construction.
"""

from __future__ import annotations

from math import isqrt, prod

import numpy as np

from .ntt import (NTT_PRIMES, garner_digits, mixed_radix_float, mixed_radix_residue,
                  mixed_radix_value, reduce_mod, short_square)

# Largest table: the short square of the 2^25 - 1 term sigma_5 column runs in
# two pieces at 2^25 points, which divides every p - 1 of the prime set (it
# supports up to 3 * 2^25 points); four transformed primes meet both
# inequalities of the lift there (`_transformed_count`).
TAU_LIMIT_CAP = 1 << 25

# entries per pass of the divisor walks, the identity and the lift
# (cache-sized)
_BLOCK = 1 << 12

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
    does not depend on the prime.

    `power[n]` is P(n), the full power of the smallest prime factor of n,
    as one int32 array (0 at 0 and 1); n is a prime power exactly where
    P(n) = n.  `chains[e - 1]` is (q^e, q^(e-1), q) over the prime powers
    q^e <= m, in int32.  Nothing else is held: `groups()` derives the n
    that are not prime powers and their n / P(n) from P alone, a block at a
    time, on every walk.  `split` is (P(n), n / P(n)) at the largest n that
    is not a prime power and `root_prime` the largest prime q with
    q^2 <= m, each None when there is none: the points of the table's top
    self-check.
    """

    def __init__(self, m: int):
        self.m = m
        # raised in place, below, to q^e on the multiples of q^e whose
        # smallest prime factor is q
        power = smallest_prime_factors(m)
        primes = (np.flatnonzero(power[2:] == np.arange(2, m + 1, dtype=np.int32))
                  + 2).astype(np.int32)
        small = primes[:np.searchsorted(primes, isqrt(m), side="right")]
        for q in small.tolist():
            qe = q * q
            while qe <= m:      # those multiples hold q^(e-1) from the pass before
                at = power[qe::qe]
                at[at == qe // q] = qe
                qe *= q
        self.power = power
        self.chains = []
        q = qe = primes
        while q.size:
            self.chains.append((qe, qe // q, q))
            keep = q <= m // qe         # q^(e+1) <= m, with no product past m
            q = q[keep]
            qe = qe[keep] * q
        # prime powers are sparse: a few steps down from m find the top
        top = next((n for n in range(m, 5, -1) if power[n] != n), None)
        self.split = (int(power[top]), top // int(power[top])) if top else None
        self.root_prime = int(small[-1]) if small.size else None

    def groups(self):
        """(n, P(n), n / P(n)) over the n <= m that are not prime powers, in
        increasing n, a block of at most `_BLOCK` at a time (int64 n and
        n / P(n), int32 P(n)), each block within one dyadic range
        [2^j, 2^(j+1)): n / P(n) <= n / 2 lies below the range of n, so a
        walk in this order reads only entries it has already filled."""
        for j in range(2, self.m.bit_length()):
            end = min(2 << j, self.m + 1)
            for lo in range(1 << j, end, _BLOCK):
                hi = min(lo + _BLOCK, end)
                power = self.power[lo:hi]
                at = np.flatnonzero(power != np.arange(lo, hi, dtype=np.int32))
                if at.size:
                    n = at + lo
                    a = power[at]
                    # a divides n: the float quotient is exact, and quicker
                    yield n, a, (n / a).astype(np.int64)

    def sigma(self, p: int, *ks: int) -> list[np.ndarray]:
        """sigma_k(n) = sum of d^k over the divisors d of n, mod p, at index n
        for 0 <= n <= m (entry 0 is 0), one int32 column per k, all filled
        in one walk."""
        cols = [np.zeros(self.m + 1, dtype=np.int32) for _ in ks]
        for s, k in zip(cols, ks):
            s[1] = 1
            # each chain's q is a prefix of the first's, the primes
            qk = _power_mod(self.chains[0][2], k, p) if self.chains else None
            for c, prev, q in self.chains:  # sigma(q^e) = 1 + q^k sigma(q^(e-1))
                s[c] = (qk[:q.shape[0]] * s[prev] + 1) % p
        for c, a, b in self.groups():
            scratch = np.empty(c.shape[0], dtype=np.int64)
            for s in cols:
                f = np.multiply(np.take(s, a), np.take(s, b), dtype=np.int64)
                reduce_mod(f, p, scratch, f)
                s[c] = f
        return cols


def _ramanujan_residues(index: _DivisorIndex, limit: int, p: int,
                        g: int) -> np.ndarray:
    """tau(n) mod p at index n for 0 <= n <= limit (entry 0 is 0), from
    Ramanujan's identity, as int32.  The sigma_5 column, which the square
    overwrites, is the only count-length array of the prime while it is
    squared; sigma_5 and sigma_11 are formed again after the square."""
    tau, = index.sigma(p, 5)
    # sum_{k=1}^{n-1} sigma_5(k) sigma_5(n-k) for n = 2..limit: the low
    # limit - 1 terms of the square of the sigma_5 column, written over it
    # at index n - 1 and moved up to index n
    if limit > 1:
        short_square(tau[1:limit], p, g)
    tau[2:] = tau[1:limit]
    tau[1] = 0
    s5, s11 = index.sigma(p, 5, 11)
    scratch = np.empty(_BLOCK, dtype=np.int64)
    inverse = pow(756, -1, p)
    for start in range(0, limit + 1, _BLOCK):
        at = slice(start, start + _BLOCK)
        # 756 tau = 65 sigma_11 + 691 sigma_5 - 174132 (the sum), above -2^49
        f = np.multiply(tau[at], -174132, dtype=np.int64)
        f += np.multiply(s11[at], 65, dtype=np.int64)
        f += np.multiply(s5[at], 691, dtype=np.int64)
        part = scratch[:f.shape[0]]
        reduce_mod(f, p, part, f)
        f *= inverse
        reduce_mod(f, p, part, f)
        tau[at] = f
    return tau


# Swinnerton-Dyer's congruences for tau at primes q > 7, modulo
# 2^11 3^6 5^3 7 691 = C, grouped into two factors below 2^31
_CONGRUENCE_FACTORS = ((2048, 729, 125), (7, 691))
_C_FACTORS = tuple(prod(f) for f in _CONGRUENCE_FACTORS)     # 186624000, 4837
_C = prod(_C_FACTORS)
_LIFT_TOLERANCE = 2.0 ** -48        # 32 u, u = 2^-53 the unit roundoff


def _transformed_count(limit: int) -> int:
    """k_t, the number of CRT primes whose residues come from a transform
    (module docstring).  It is the least k_t for
    which M = p_1 ... p_(k_t) satisfies

        (1) 16 limit^11 < (C - 1)^2 M^2     and     (2) 3 limit^6 < 2^47 M.

    Proof that these make the lift exact.  r = tau(n) mod M is signed,
    in (-M/2, M/2].

    (1) For a prime q > 7 the lift is r + K M with K in [-C/2, C/2) the
    solution of r + K M = tau(q) mod C: these values are C M consecutive
    integers, from above -(C + 1) M / 2 up to (C - 1) M / 2.  Deligne's
    |tau(q)| <= 2 q^(11/2) < 2 limit^(11/2) puts tau(q) among them when
    4 limit^(11/2) < (C - 1) M, which is (1) squared.

    (2) Write u = 2^-53 and t(n) = fl(fl(r) + fl(K M)) for the float kept
    at a lifted n, fl(r) correctly rounded.  If K = 0 then t(n) = fl(r);
    otherwise |tau(n)| >= M/2, so |r| <= |tau(n)| and |K M| <= 2 |tau(n)|,
    and either way |t(n) - tau(n)| <= 7 u |tau(n)|.  Products of two such
    floats are then within 16 u of their value, and with q^11 rounded once,
    F = tau(q) tau(q^(e-1)) - q^11 tau(q^(e-2)) in floats is within
    18 u S of tau(q^e), S = |tau(q) tau(q^(e-1))| + |q^11 tau(q^(e-2))|;
    for a composite n, F = tau(P) tau(n/P) and S = |tau(n)|.  Then
    fl(fl(F - fl(r)) / fl(M)) is within 3.01 u |K| + (18 u S + u M/2) / M
    (1 + 3.01 u) <= 21.1 u S / M + 2.1 u of K, as |K| <= S / M + 1/2.
    Every S is at most 3 n^6: d(n) <= 2 sqrt(n) for composites, and
    (3 e - 1) n^(11/2) <= 3 n^6 for n = q^e.  So (2), S < 2^47 M, keeps the
    quotient within 0.34 of K, and rint finds K.

    K read back (`_multiple`).  No K is kept: with tau(n) = x + K M for x
    the digits' value in [0, M), K is rint(fl(fl(t(n) - fl(d W)) / fl(M))),
    d the top digit and W the product of the primes below it.  Every t(n),
    lifted or not, is within 7 u |tau(n)| of tau(n), and
    |tau(n)| <= 2 n^6 <= 3 limit^6 < 2^47 M by (2), so
    |t(n) - tau(n)| < 7 u 2^47 M < 0.11 M; |x - fl(d W)| < W + 2.01 u M
    with W <= M / 2^30, every prime being above 2^30; and the subtraction
    and the division add at most 3.01 u (2^47 + 2) < 0.05 to the quotient.
    So it is within 0.17 of K, and rint finds K.  A wrong residue does not
    change this: t(n) is then within 3 u |t(n)| of x + K M for the K the
    lift chose, and that K is the one read back, so the checks see the
    values they would see with K kept.

    Neither bound may be loosened: a count one short of them lifts a
    self-consistent but wrong table that no check sees.
    """
    modulus = 1
    for count, (p, _) in enumerate(NTT_PRIMES, 1):
        modulus *= p
        if (16 * limit ** 11 < ((_C - 1) * modulus) ** 2
                and 3 * limit ** 6 < modulus << 47):
            return count
    raise ValueError("limit too large for the configured prime set")


def _congruence_tables() -> dict[int, np.ndarray]:
    """tau(q) modulo each modulus m of C, for primes q > 7, tabulated over
    q mod m in [0, m): Swinnerton-Dyer's congruences with
    sigma_k(q) = 1 + q^k,

        tau(q) = c sigma_11(q)               mod 2^11, c = 1, 1217, 1537, 705
                                             for q = 1, 3, 5, 7 mod 8,
        tau(q) = q^-610 sigma_1231(q)        mod 3^6,
        tau(q) = q^-30 sigma_71(q)           mod 5^3,
        tau(q) = q sigma_9(q)                mod 7,
        tau(q) = sigma_11(q)                 mod 691,

    each right side depending on q mod m alone, exponents reduced mod
    phi(3^6) = 486 and phi(5^3) = 100 (the tables are read only at units)."""
    def power(k, m):
        return _power_mod(np.arange(m), k, m)

    def sigma(k, m):
        return (1 + power(k, m)) % m
    c = np.array([1, 1217, 1537, 705])[np.arange(2048) % 8 >> 1]
    return {2048: c * sigma(11, 2048) % 2048,
            729: power(-610 % 486, 729) * sigma(1231 % 486, 729) % 729,
            125: power(-30 % 100, 125) * sigma(71 % 100, 125) % 125,
            7: power(1, 7) * sigma(9, 7) % 7,
            691: sigma(11, 691)}


# they depend on nothing, so they are built once, at import
_CONGRUENCE_TABLES = _congruence_tables()


def _congruence_residues(q: np.ndarray) -> list[np.ndarray]:
    """tau(q) modulo each factor of C, for primes q > 7 (int64 array): the
    congruences of `_CONGRUENCE_TABLES` joined by the CRT within each
    factor."""
    out = []
    for factor, modulus in zip(_CONGRUENCE_FACTORS, _C_FACTORS):
        acc = np.zeros(q.shape, dtype=np.int64)
        for m in factor:        # a residue below 2^11 times a weight below C_f
            rest = modulus // m
            acc += _CONGRUENCE_TABLES[m][q % m] * (rest * pow(rest, -1, m))
        out.append(acc % modulus)
    return out


def _multiple(t: np.ndarray, digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """K with tau(n) = x + K M, as int64, for x the value of the digits
    (entries alike indexed) and M the product of the primes, read back from
    the lifted floats t: rint((t - d W) / M), d the top digit and W the
    product of the primes below it (exact while `_transformed_count`
    holds)."""
    weight = float(prod(primes[:-1]))
    return np.rint((t - digits[-1] * weight) / float(prod(primes))).astype(np.int64)


def _lift(index: _DivisorIndex, digits: list[np.ndarray], transformed: list[int]) -> np.ndarray:
    """t(n) at index n for 0 <= n <= m, float64: tau(n) found exactly from
    the Garner digits over the transformed primes (module docstring; exact
    while `_transformed_count` holds) and kept as a float, from which
    `_multiple` reads K; checked, ArithmeticError on failure."""
    # t holds the correctly rounded r until n is lifted, then t(n); taken
    # first, so that the lift's temporaries lie above it in the heap
    t = mixed_radix_float(digits, transformed)
    # for the closing check, below 691 (int16 while the lift runs)
    sigma = index.sigma(691, 11)[0].astype(np.int16)
    modulus = prod(transformed)
    mf = float(modulus)

    primes = index.chains[0][2] if index.chains else np.zeros(0, dtype=np.int32)
    c1, c2 = _C_FACTORS
    for start in range(0, primes.shape[0], _BLOCK):
        q = primes[start:start + _BLOCK]
        # tau(q) = r for q <= 7, as |tau(q)| <= 16744 < M/2
        large = q[q > 7]
        # r = x + K M with K = -1 where r = x - M is negative
        at = [d[large] for d in digits] + [-(t[large] < 0).astype(np.int64)]
        k1, k2 = ((target - mixed_radix_residue(at, transformed, f))
                  % f * pow(modulus, -1, f) % f
                  for f, target in zip(_C_FACTORS, _congruence_residues(large.astype(np.int64))))
        k = k1 + c1 * ((k2 - k1) % c2 * pow(c1, -1, c2) % c2)    # in [0, C), below 2^40
        k[k >= _C // 2] -= _C
        t[large] += k * mf
        qf = q.astype(np.float64)
        # the slack covers the rounding of t(q) (7 u) and of the bound
        over = np.abs(np.take(t, q)) > 2 * qf ** 5 * np.sqrt(qf) * (1 + 2.0 ** -40)
        if over.any():
            raise ArithmeticError(f"tau({q[over][0]}) lifted past Deligne's bound")

    def lift(c, f, size):
        rf = np.take(t, c)
        k = np.rint((f - rf) / mf)
        value = rf + k * mf
        off = np.abs(value - f) > size * _LIFT_TOLERANCE
        if off.any():
            raise ArithmeticError(
                f"tau({c[off][0]}) from the transforms breaks the Hecke relations")
        t[c] = value

    for c, prev, q in index.chains[1:]:  # tau(q^e) = tau(q) tau(q^(e-1)) - q^11 tau(q^(e-2))
        a = np.take(t, q) * np.take(t, prev)
        b = np.array([float(v ** 11) for v in q.tolist()]) * np.take(t, prev // q)
        lift(c, a - b, np.abs(a) + np.abs(b))
    for c, a, b in index.groups():      # tau(n) = tau(P(n)) tau(n / P(n))
        f = np.take(t, a) * np.take(t, b)
        lift(c, f, np.abs(f))
    # Ramanujan's tau(n) = sigma_11(n) mod 691 on every entry: it sees the
    # residue errors that move r by less than the tolerance above, all but
    # one in 691 of them
    for start in range(0, sigma.shape[0], _BLOCK):
        at = slice(start, start + _BLOCK)
        block = [d[at] for d in digits]
        block.append(_multiple(t[at], block, transformed))
        off = np.flatnonzero(sigma[at] != mixed_radix_residue(block, transformed, 691))
        if off.size:
            raise ArithmeticError(f"tau({start + off[0]}) from the transforms "
                                  f"breaks tau = sigma_11 mod 691")
    return t


def _check_table(t: np.ndarray, digits: list[np.ndarray], primes: list[int],
                 split: tuple[int, int] | None, root_prime: int | None) -> None:
    """The self-checks of the module docstring, on exact values read from
    the digits and K at the indices they need; ArithmeticError on failure."""
    limit = t.shape[0] - 1
    points = {n for n in _SMALL_TAU if n <= limit}
    if split is not None:
        a, b = split
        points |= {a, b, a * b}
    if root_prime is not None:
        points |= {root_prime, root_prime ** 2}
    at = sorted(points)
    block = [d[at] for d in digits]
    block.append(_multiple(t[at], block, primes))
    tau = dict(zip(at, mixed_radix_value(block, primes).tolist()))
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


def _tau_digits(limit: int, threads: int = 1) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """(t, digits, primes) once the self-checks have passed: the lifted
    floats t(n), Garner's digits of tau(n) at index n for 0 <= n <= limit
    over the first `_transformed_count(limit)` primes (the lift's K is read
    back from both by `_multiple`), and those primes.  Each prime takes a
    transform, `threads` of them at once; with one worker they run in turn
    on the calling thread and no thread is started."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > TAU_LIMIT_CAP:
        raise ValueError(
            f"limit {limit} is past the coefficient cap {TAU_LIMIT_CAP} "
            f"(the largest table whose short square fits a 2^25-point transform)")
    primes = NTT_PRIMES[:_transformed_count(limit)]
    index = _DivisorIndex(limit)
    def residues_mod(prime):
        return _ramanujan_residues(index, limit, *prime)
    workers = min(threads, len(primes))
    if workers == 1:
        residues = list(map(residues_mod, primes))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers) as pool:
            residues = list(pool.map(residues_mod, primes))
    moduli = [p for p, _ in primes]
    digits = garner_digits(residues, moduli)
    del residues
    t = _lift(index, digits, moduli)
    checks = index.split, index.root_prime
    del index
    _check_table(t, digits, moduli, *checks)
    return t, digits, moduli


def tau_table(limit: int, threads: int = 1) -> np.ndarray:
    """float(tau(n)) at index n for 0 <= n <= limit, each correctly rounded
    (to nearest, ties to even), as a read-only float64 array; entry 0 is 0.

    This is the table the sums read; no Python int is formed on the way.
    It is read out over the lifted floats, a block at a time.  The table
    does not depend on `threads`, the workers over the primes.
    """
    out, digits, moduli = _tau_digits(limit, threads)
    for start in range(0, out.shape[0], _BLOCK):
        at = slice(start, start + _BLOCK)
        block = [d[at] for d in digits]
        block.append(_multiple(out[at], block, moduli))
        out[at] = mixed_radix_float(block, moduli)
    out.setflags(write=False)
    return out


def tau_exact(limit: int) -> list[int]:
    """tau(n) at index n for 0 <= n <= limit, exactly; entry 0 is 0.

    The same digits and K as `tau_table`, read out as Python ints, for the
    places that compare integers: the bound scan of the acceptance sweep,
    documents and tests.
    """
    t, digits, moduli = _tau_digits(limit)
    return mixed_radix_value(digits + [_multiple(t, digits, moduli)], moduli).tolist()


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

