"""Exact coefficient table of the weight-12 level-1 cusp form.

The product q*prod(1-q^n)^24 is built as the eighth power of Jacobi's sparse
series prod(1-q^n)^3 = sum (-1)^k (2k+1) q^{k(k+1)/2}.

Production route (`tau_table`):

- The first square, prod(1-q^n)^6, is formed exactly in int64 from the pairs
  of the about sqrt(2 limit) nonzero cube terms, one row of pairs at a time.
- The remaining two squarings are number-theoretic transforms (`ntt.py`:
  four-step layout, 2^k or 3 * 2^k points, int64 arithmetic below 2^63)
  modulo the shortest prefix of `ntt.NTT_PRIMES` whose product exceeds
  4 limit^6, the range the signed CRT needs.  The primes are listed largest
  first and the five multiply to about 2^153.4, far past 4 (2^23)^6 = 2^140.
- The residues are recombined by Garner's mixed-radix CRT on whole int64
  arrays (`ntt.garner`); only the final weighted sum of the digits is formed
  in Python ints, to give the exact signed values.

Oracle route (`tau_table_bigint`): the same three squarings done by packing
coefficients into Python big integers (Kronecker substitution), sharing no
arithmetic with the NTT path.  The two must agree coefficient for
coefficient; tests hold them to that.
"""

from __future__ import annotations

import numpy as np

from .ntt import Transform, crt_primes, garner, transform_size

# Largest table: squaring 2^23 coefficients needs 2^24 - 1 output terms, so
# 2^24-point transforms (the prime set supports up to 3 * 2^25 points).
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


def _tau_residues(sixth: np.ndarray, p: int, g: int) -> np.ndarray:
    """prod(1-q^n)^24 mod p below q^limit: two squarings of the sixth power."""
    limit = sixth.shape[0]
    transform = Transform(transform_size(2 * limit - 1), p, g)
    arr = sixth % p
    for _ in range(2):
        arr = transform.product(arr, arr, limit)
    return arr


def _crt_primes(limit: int) -> tuple[tuple[int, int], ...]:
    """The primes whose product exceeds 4 limit^6: Deligne's bound
    |tau(n)| <= d(n) n^(11/2), with d(n) <= 2 sqrt(n), keeps every entry
    within 2 limit^6."""
    return crt_primes(2 * limit ** 6)


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
    primes = _crt_primes(limit)
    sixth = _sixth_power_series(limit)
    residues = [_tau_residues(sixth, p, g) for p, g in primes]
    out = [0] + garner(residues, [p for p, _ in primes]).tolist()
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
