"""Exact coefficient table of the weight-12 level-1 cusp form.

The product q*prod(1-q^n)^24 is built as the eighth power of Jacobi's sparse
series prod(1-q^n)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}.

Production route (`tau_table`):

- The first square, prod(1-q^n)^6, is formed exactly in int64 from the pairs
  of the about sqrt(2 limit) nonzero cube terms, one row of pairs at a time.
- The remaining two squarings are number-theoretic transforms modulo the
  shortest prefix of `NTT_PRIMES` whose product exceeds 4 limit^6, the
  range the signed CRT needs.  The forward transform is decimation in
  frequency (natural order in, bit-reversed order out) and the inverse is
  decimation in time (bit-reversed in, natural out); the pointwise square
  does not care about order, so no bit-reversal permutation is ever formed.
- Every prime is below 2^31 and residues are kept in [0, p): a product is
  of two values of magnitude below p, so below 2^62, and a sum or
  difference below 2p; no int64 intermediate comes near 2^63.
- The residues are recombined by Garner's mixed-radix CRT on whole int64
  arrays; only the final weighted sum of the digits is formed in Python
  ints, to give the exact signed values.

Oracle route (`tau_table_bigint`): the same three squarings done by packing
coefficients into Python big integers (Kronecker substitution), sharing no
arithmetic with the NTT path.  The two must agree coefficient for
coefficient; tests hold them to that.
"""

from __future__ import annotations

from math import prod

import numpy as np

# p = c * 2^e + 1 with primitive root g; every p supports transforms of
# 2^24 points.  Listed largest first: a table takes the shortest prefix
# whose product covers its CRT range.
NTT_PRIMES: tuple[tuple[int, int], ...] = (
    (2013265921, 31),   # 15 * 2^27 + 1
    (2113929217, 5),    # 63 * 2^25 + 1
    (469762049, 3),     # 7 * 2^26 + 1
    (167772161, 3),     # 5 * 2^25 + 1
    (754974721, 11),    # 45 * 2^24 + 1
)

_PRODUCT = prod(p for p, _ in NTT_PRIMES)

# Largest table: squaring 2^23 coefficients needs 2^24 - 1 output terms,
# which is the largest transform every prime above supports.
TAU_LIMIT_CAP = 1 << 23

_SMALL_TAU = {1: 1, 2: -24, 3: 252, 4: -1472, 5: 4830, 6: -6048,
              7: -16744, 8: 84480, 9: -113643, 10: -115920,
              11: 534612, 12: -370944, 13: -577738}


def cube_series_terms(limit: int) -> list[tuple[int, int]]:
    """Sparse (exponent, coefficient) pairs of prod(1-q^n)^3 below `limit`."""
    out = []
    k = 0
    while k * (k + 1) // 2 < limit:
        out.append((k * (k + 1) // 2, (2 * k + 1) * (-1 if k & 1 else 1)))
        k += 1
    return out


# ---------------------------------------------------------------------------
# NTT route
# ---------------------------------------------------------------------------

def _sixth_power_series(limit: int) -> np.ndarray:
    """prod(1-q^n)^6 below q^limit, exact, from the sparse cube terms.

    With K cube terms, K(K - 1)/2 < limit, every coefficient is at most
    (sum of |2k+1| over the terms)^2 = K^4, about 4 limit^2: below 2^49 at
    TAU_LIMIT_CAP.
    """
    terms = cube_series_terms(limit)
    exps = np.array([e for e, _ in terms], dtype=np.int64)
    coeffs = np.array([c for _, c in terms], dtype=np.int64)
    out = np.zeros(limit, dtype=np.int64)
    for e, c in zip(exps.tolist(), coeffs.tolist()):
        m = int(np.searchsorted(exps, limit - e))
        out[e + exps[:m]] += c * coeffs[:m]    # distinct targets within a row
    return out


def _root_powers(root: int, n: int, p: int) -> np.ndarray:
    t = np.ones(n, dtype=np.int64)
    cur = root % p
    k = 1
    while k < n:
        m = min(2 * k, n)
        t[k:m] = t[:m - k] * cur % p
        cur = cur * cur % p
        k *= 2
    return t


def _reduce(x: np.ndarray, p: int, scratch: np.ndarray, out: np.ndarray) -> None:
    """out = x mod p, through floor division (numpy divides by a scalar with
    a multiply and shift, and has no such path for the remainder)."""
    np.floor_divide(x, p, out=scratch)
    scratch *= p
    np.subtract(x, scratch, out=out)


def _fold(x: np.ndarray, shift: int, scratch: np.ndarray, out: np.ndarray) -> None:
    """out = whichever of x and x + shift lies in [0, p), for x in [0, 2p)
    with shift = -p or x in (-p, p) with shift = p: read as unsigned, the
    other one is negative (so huge) or larger."""
    np.add(x, shift, out=scratch)
    np.minimum(x.view(np.uint64), scratch.view(np.uint64), out=out.view(np.uint64))


def _forward_dif(a: np.ndarray, p: int, powers: np.ndarray) -> None:
    """In-place forward transform: natural order in, bit-reversed order out.

    powers[j] = w^j for the n-th root w, j < n/2.  Entries stay in [0, p).
    """
    n = a.shape[0]
    buf = np.empty((2, n // 2), dtype=np.int64)
    length = n
    while length >= 2:
        half = length >> 1
        blk = a.reshape(-1, length)
        lo, hi = blk[:, :half], blk[:, half:]
        t, q = (b.reshape(-1, half) for b in buf)
        np.subtract(lo, hi, out=t)             # (-p, p)
        lo += hi                               # [0, 2p)
        _fold(lo, -p, q, lo)
        t *= powers[::n // length]             # |t| < (p - 1)^2 < 2^62
        _reduce(t, p, q, hi)
        length = half


def _inverse_dit(a: np.ndarray, p: int, powers: np.ndarray) -> None:
    """In-place inverse transform (up to the factor n): bit-reversed order
    in, natural order out.  powers[j] = w^(-j), j < n/2."""
    n = a.shape[0]
    buf = np.empty((2, n // 2), dtype=np.int64)
    length = 2
    while length <= n:
        half = length >> 1
        blk = a.reshape(-1, length)
        lo, hi = blk[:, :half], blk[:, half:]
        t, q = (b.reshape(-1, half) for b in buf)
        np.multiply(hi, powers[::n // length], out=t)
        _reduce(t, p, q, t)
        np.subtract(lo, t, out=hi)             # (-p, p)
        _fold(hi, p, q, hi)
        lo += t                                # [0, 2p)
        _fold(lo, -p, q, lo)
        length <<= 1


def _tau_residues(sixth: np.ndarray, p: int, g: int) -> np.ndarray:
    """prod(1-q^n)^24 mod p below q^limit: two squarings of the sixth power."""
    limit = sixth.shape[0]
    n = 1 << (2 * limit - 2).bit_length()     # smallest 2^e >= 2 limit - 1
    if (p - 1) % n:
        raise ValueError(f"transform size {n} unsupported by prime {p}")
    root = pow(g, (p - 1) // n, p)
    forward = _root_powers(root, n // 2, p)
    inverse = _root_powers(pow(root, p - 2, p), n // 2, p)
    n_inv = pow(n, p - 2, p)
    arr = sixth % p
    for _ in range(2):
        fa = np.zeros(n, dtype=np.int64)
        fa[:limit] = arr
        _forward_dif(fa, p, forward)
        fa *= fa
        fa %= p
        _inverse_dit(fa, p, inverse)
        arr = fa[:limit] * n_inv % p
    return arr


def _crt_primes(limit: int) -> tuple[tuple[int, int], ...]:
    """Shortest prefix of NTT_PRIMES whose product exceeds 4 limit^6."""
    need = 4 * limit ** 6
    modulus = 1
    for i, (p, _) in enumerate(NTT_PRIMES):
        modulus *= p
        if modulus > need:
            return NTT_PRIMES[:i + 1]
    raise ValueError("limit too large for the configured prime set")


def _garner(residues: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """Signed CRT of the residues as an object array of exact ints in
    (-M/2, M/2], M the product of the primes.

    Garner's digits d_k in [0, p_k) satisfy x = sum d_k * (p_0 ... p_(k-1));
    each is a few int64 passes, since d_j * c < 2^62 for d_j, c below 2^31.
    """
    digits: list[np.ndarray] = []
    for r, p in zip(residues, primes):
        acc = np.zeros_like(r)
        weight = 1
        for d, q in zip(digits, primes):
            acc = (acc + d * weight) % p
            weight = weight * q % p
        digits.append((r - acc) % p * pow(weight, -1, p) % p)
    # adjacent digits pair up exactly in int64, d_k + d_(k+1) p_k < 2^62,
    # which halves the passes over Python ints
    limbs = [(digits[k] + digits[k + 1] * primes[k], primes[k] * primes[k + 1])
             if k + 1 < len(digits) else (digits[k], primes[k])
             for k in range(0, len(digits), 2)]
    value = limbs[-1][0].astype(object)
    for limb, radix in limbs[-2::-1]:
        value = value * radix + limb
    modulus = prod(primes)
    negative = value > modulus // 2
    value[negative] -= modulus
    return value


def tau_table(limit: int) -> list[int]:
    """tau(n) for 1 <= n <= limit, exact; index n of the returned list.

    limit is the number of coefficients; entry 0 is a placeholder zero.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > TAU_LIMIT_CAP:
        raise ValueError(
            f"limit {limit} is past the coefficient cap {TAU_LIMIT_CAP} "
            f"(the largest table a 2^24-point transform can square)")
    # coefficient magnitudes stay far inside the CRT range: |tau(n)| grows
    # like n^(11/2) times a divisor count, and five primes give ~148 bits
    if 4 * limit ** 6 >= _PRODUCT:
        raise ValueError("limit too large for the configured prime set")
    primes = _crt_primes(limit)
    sixth = _sixth_power_series(limit)
    residues = [_tau_residues(sixth, p, g) for p, g in primes]
    out = [0] + _garner(residues, [p for p, _ in primes]).tolist()
    for n, v in _SMALL_TAU.items():
        if n <= limit and out[n] != v:
            raise ArithmeticError(f"tau({n}) reproduced as {out[n]}, not {v}")
    return out


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
    """Slow exact route for cross-checking tau_table; capped by design."""
    if not 1 <= limit <= _ORACLE_CAP:
        raise ValueError(f"oracle route is limited to {_ORACLE_CAP} coefficients")
    coeffs = [0] * limit
    for e, c in cube_series_terms(limit):
        coeffs[e] = c
    for _ in range(3):
        coeffs = _square_bigint(coeffs, limit)
    return [0] + coeffs


def hecke_eigenvalue_defect(table: list[int], m: int, n: int) -> int:
    """tau(m n) - tau(m) tau(n) for coprime m, n; zero iff multiplicative."""
    from math import gcd
    if gcd(m, n) != 1:
        raise ValueError("defect is defined for coprime arguments")
    return table[m * n] - table[m] * table[n]
