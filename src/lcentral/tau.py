"""Coefficient tables of the weight-12 level-1 cusp form Delta.

Production route (`tau_table` and `tau_exact`): Ramanujan's identity ("On certain
arithmetical functions", 1916), which follows from
E_6^2 = E_12 - (762048/691) Delta in the two-dimensional space M_12:

    756 tau(n) = 65 sigma_11(n) + 691 sigma_5(n)
                 - 174132 sum_{k=1}^{n-1} sigma_5(k) sigma_5(n - k).

- The first k_t primes of `ntt.NTT_PRIMES` (`_transformed_count`) take a
  transform: one up to 5,750 coefficients, two up to 241,757, three up to
  8,441,195, four up to the cap.  No other prime is needed: the lift below
  finds every entry exactly from their residues.
- `_DivisorIndex`, built once and independent of the prime, holds the
  prime-power chains and, for every other n, the full power P(n) of its
  smallest prime factor and the cofactor n / P(n), grouped by the dyadic
  range [2^j, 2^(j+1)) that holds n, lowest first: n / P(n) <= n / 2, so
  sigma(n) = sigma(P(n)) sigma(n / P(n)) only reads entries already filled.
  Its index arrays are int32.
- Per transformed prime p: sigma_5 and sigma_11 mod p through that
  structure, the low limit - 1 terms of the square of the sigma_5 column
  by one short square (`ntt.short_square`, in k pieces at n' points, both
  fixed by limit - 1 alone) for the convolution sum, and the identity
  solved for tau mod p.  The int64 sigma columns are freed before the
  transforms (the operand enters them as int32), and each prime keeps only
  its int32 residues; `threads` workers take that many transformed primes
  at once, the package's one thread pool (numpy releases the GIL in the
  butterflies), imported only when it starts.
- The lift (`_lift`).  With M = p_1 ... p_(k_t) and r = tau(n) mod M,
  signed, from Garner's digits of the transformed residues, each
  tau(n) = r + K M is found exactly by walking `_DivisorIndex` in its
  order (K is kept against the digits' unsigned value x, so that
  tau(n) = x + K M):
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
  the floats (proved in `_transformed_count`).  K is int64, below 2^47 in
  size by the second.
- int64 bounds: every prime is below 2^31 and sigma values are kept in
  [0, p), so a product of two of them is below 2^62;
  65 sigma_11 + 691 sigma_5 is below 756 * 2^31 and 174132 times a reduced
  sum below 2^49.  Reductions mod a prime go through floor division
  (`ntt.reduce_mod`).  Arrays that live from one prime to the next (the
  residues, Garner's digits, the index) are int32 and are widened to int64
  inside each arithmetic pass.
- Memory: the tracemalloc peak of `tau_table(152588)` is about 52 bytes
  per coefficient, and 51 at 100,000, set by the second prime's short
  square (its int32 spectra, two n'-entry int64 arrays, the twiddle matrix
  and its output, next to the index and the first prime's residues); the
  lift, which holds one float64 t(n), one int64 K and one int16
  sigma_11(n) mod 691 per entry next to the transformed primes' digits and
  works 2^14 entries at a time, stays just below it.
- The transformed primes' Garner digits (`ntt.garner_digits`, int32) and K
  as a signed top digit past them are read out two ways.  `tau_table`, the
  table the sums read, is `ntt.mixed_radix_float`: each entry is the
  correctly rounded float(x + K M) (to nearest, ties to even), assembled
  over 32-bit limbs in uint64 and rounded once, with no Python int formed.
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
    P(n) the full power of the smallest prime factor of n, one group per
    dyadic range [2^j, 2^(j+1)) that holds such an n, in increasing j:
    n / P(n) <= n / 2 lies below the range of n, so its sum is filled in by
    a chain or an earlier group.  `split` is
    (P(n), n / P(n)) at the largest such n and `root_prime` the largest prime
    q with q^2 <= m, each None when there is none: the points of the table's
    top self-check.
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
        edges = np.searchsorted(composite, 1 << np.arange(3, m.bit_length()))
        self.groups = [(c, power[c], cofactor[c])
                       for c in np.split(composite, edges) if c.size]
        top = int(composite[-1]) if composite.size else 0
        self.split = (int(power[top]), int(cofactor[top])) if top else None
        self.root_prime = int(small[-1]) if small.size else None

    def sigma(self, k: int, p: int) -> np.ndarray:
        """sigma_k(n) = sum of d^k over the divisors d of n, mod p, at index n
        for 0 <= n <= m (entry 0 is 0)."""
        s = np.zeros(self.m + 1, dtype=np.int64)
        s[1] = 1
        # each chain's q is a prefix of the first's, the primes
        qk = _power_mod(self.chains[0][2], k, p) if self.chains else None
        for c, prev, q in self.chains:      # sigma(q^e) = 1 + q^k sigma(q^(e-1))
            s[c] = (qk[:q.shape[0]] * s[prev] + 1) % p
        for c, a, b in self.groups:
            f = np.take(s, a)
            scratch = np.take(s, b)
            f *= scratch
            reduce_mod(f, p, scratch, f)
            s[c] = f
        return s


def _ramanujan_residues(index: _DivisorIndex, limit: int, p: int,
                        g: int) -> np.ndarray:
    """tau(n) mod p at index n for 0 <= n <= limit (entry 0 is 0), from
    Ramanujan's identity, as int32."""
    s5 = index.sigma(5, p)
    # sum_{k=1}^{n-1} sigma_5(k) sigma_5(n-k) for n = 2..limit: the low
    # limit - 1 terms of the square of the sigma_5 column, which enters the
    # transform as int32 with the int64 sigma columns freed
    col = s5[1:limit].astype(np.int32)
    s5 *= 691
    sigmas = index.sigma(11, p)
    sigmas *= 65
    sigmas += s5                                     # below 756 p
    reduce_mod(sigmas, p, s5, sigmas)
    del s5
    sigmas = sigmas.astype(np.int32)
    square = short_square(col, p, g) if col.size else col
    del col
    tau = np.zeros(limit + 1, dtype=np.int64)
    tau[2:] = square
    del square
    tau *= -174132
    tau += sigmas                                    # above -2^49
    del sigmas
    scratch = np.empty_like(tau)
    reduce_mod(tau, p, scratch, tau)
    tau *= pow(756, -1, p)
    reduce_mod(tau, p, scratch, tau)
    return tau.astype(np.int32)


# Swinnerton-Dyer's congruences for tau at primes q > 7, modulo
# 2^11 3^6 5^3 7 691 = C, grouped into two factors below 2^31
_CONGRUENCE_FACTORS = ((2048, 729, 125), (7, 691))
_C_FACTORS = tuple(prod(f) for f in _CONGRUENCE_FACTORS)     # 186624000, 4837
_C = prod(_C_FACTORS)
_LIFT_TOLERANCE = 2.0 ** -48        # 32 u, u = 2^-53 the unit roundoff
_LIFT_BLOCK = 1 << 14               # entries per pass of the lift (cache-sized)


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


def _lift(index: _DivisorIndex, digits: list[np.ndarray], transformed: list[int]) -> np.ndarray:
    """K at index n for 0 <= n <= m, int64, with tau(n) = x + K M for x the
    value in [0, M) of Garner's digits over the transformed primes and M
    their product: each tau(n) is found exactly (module docstring; exact
    while `_transformed_count` holds), and checked; ArithmeticError on
    failure."""
    # for the closing check, below 691 (int16 while the lift runs)
    sigma = index.sigma(11, 691).astype(np.int16)
    modulus = prod(transformed)
    mf = float(modulus)
    # t holds the correctly rounded r until n is lifted, then t(n)
    t = mixed_radix_float(digits, transformed)
    # tau(n) = x + multiple M, x the unsigned value of the digits: -1 where
    # r = x - M is negative, until K is added
    multiple = np.where(t < 0, -1, 0)

    primes = index.chains[0][2] if index.chains else np.zeros(0, dtype=np.int32)
    # tau(q) = r for q <= 7, as |tau(q)| <= 16744 < M/2
    large = primes[primes > 7]
    at_large = [d[large] for d in digits] + [multiple[large]]
    c1, c2 = _C_FACTORS
    k1, k2 = ((target - mixed_radix_residue(at_large, transformed, f))
              % f * pow(modulus, -1, f) % f
              for f, target in zip(_C_FACTORS, _congruence_residues(large.astype(np.int64))))
    del at_large
    k = k1 + c1 * ((k2 - k1) % c2 * pow(c1, -1, c2) % c2)    # in [0, C), below 2^40
    k[k >= _C // 2] -= _C
    t[large] += k * mf
    multiple[large] += k
    qf = primes.astype(np.float64)
    # the slack covers the rounding of t(q) (7 u) and of the bound
    over = np.abs(np.take(t, primes)) > 2 * qf ** 5 * np.sqrt(qf) * (1 + 2.0 ** -40)
    if over.any():
        raise ArithmeticError(f"tau({primes[over][0]}) lifted past Deligne's bound")

    def lift(c, f, size):
        rf = np.take(t, c)
        k = np.rint((f - rf) / mf)
        value = rf + k * mf
        off = np.abs(value - f) > size * _LIFT_TOLERANCE
        if off.any():
            raise ArithmeticError(
                f"tau({c[off][0]}) from the transforms breaks the Hecke relations")
        t[c] = value
        multiple[c] += k.astype(np.int64)

    for c, prev, q in index.chains[1:]:  # tau(q^e) = tau(q) tau(q^(e-1)) - q^11 tau(q^(e-2))
        a = np.take(t, q) * np.take(t, prev)
        b = np.array([float(v ** 11) for v in q.tolist()]) * np.take(t, prev // q)
        lift(c, a - b, np.abs(a) + np.abs(b))
    for group in index.groups:          # tau(n) = tau(P(n)) tau(n / P(n))
        for start in range(0, group[0].shape[0], _LIFT_BLOCK):
            c, a, b = (x[start:start + _LIFT_BLOCK] for x in group)
            f = np.take(t, a) * np.take(t, b)
            lift(c, f, np.abs(f))
    del t
    # Ramanujan's tau(n) = sigma_11(n) mod 691 on every entry: it sees the
    # residue errors that move r by less than the tolerance above, all but
    # one in 691 of them
    for start in range(0, sigma.shape[0], _LIFT_BLOCK):
        at = slice(start, start + _LIFT_BLOCK)
        off = np.flatnonzero(sigma[at] != mixed_radix_residue(
            [d[at] for d in digits] + [multiple[at]], transformed, 691))
        if off.size:
            raise ArithmeticError(f"tau({start + off[0]}) from the transforms "
                                  f"breaks tau = sigma_11 mod 691")
    return multiple


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
    """Garner's digits of tau(n) at index n for 0 <= n <= limit over the
    first `_transformed_count(limit)` primes, with the lift's K as a signed
    top digit, and those primes, once the self-checks have passed.  Each
    prime takes a transform, `threads` of them at once; with one worker they
    run in turn on the calling thread and no thread is started."""
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
    digits.append(_lift(index, digits, moduli))
    checks = index.split, index.root_prime
    del index
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

