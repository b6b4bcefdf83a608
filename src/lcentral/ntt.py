"""Exact integer convolution by number-theoretic transforms.

`convolve_exact(a, b, bound)` returns the linear convolution of two integer
arrays exactly: it convolves modulo the shortest prefix of `NTT_PRIMES` whose
product exceeds 2 bound, and recombines the residues by Garner's CRT.
`Transform.product` is the one-prime step, for callers (tau.py) that
combine a product with other residues before recombining.

CRT.  `garner_digits` gives Garner's mixed-radix digits as int64 arrays;
`mixed_radix_value` reads them out exactly (int64 for up to two primes,
Python ints for more) and `mixed_radix_float` as float64, each entry the
correctly rounded float of the exact value (to nearest, ties to even),
computed over 32-bit limbs in uint64 from the leading 64 bits and a sticky
bit, with no Python int formed.  `garner` is the exact read-out of the
digits.

Sizes.  A transform has n = 2^k or 3 * 2^k points, the smallest such n that
holds the product (`transform_size`); every prime has 3 * 2^25 | p - 1, so
every n up to 3 * 2^25 is supported.

Layout (the four-step arrangement of Bailey, "FFTs in external or
hierarchical memory", 1990).  Write n = R' C with R' = 3^e R, e in {0, 1},
and R, C powers of two with C the larger when they differ.  The input is
read as a contiguous R' x C array x[r, c] = x[r C + c], and the transform is

1. for e = 1, one 3-point step across the three contiguous blocks of R rows,
   each block then multiplied by its column of twiddles w_{R'}^(t r);
2. radix-2 decimation-in-frequency stages along axis 0 (length R);
3. one pass of the twiddles w^(c k1), k1 the row's frequency;
4. one blocked transpose to a contiguous C x R' array;
5. radix-2 decimation-in-frequency stages along axis 0 (length C).

Every butterfly therefore combines whole rows (length C or R', about
sqrt n) with one twiddle per row, broadcast from a contiguous column vector.
The spectrum comes out in a scrambled order; pointwise products do not care,
and the inverse walks the same steps backwards in decimation-in-time form
with the *same* twiddles, so no bit-reversal permutation is formed and one
twiddle set serves both directions.  Undoing the forward transform with the
forward root yields n x[-j mod n]; the read-out reverses the index and
scales by 1/n on the entries it returns.

int64 bounds.  Every prime is below 2^31 and residues are kept in [0, p)
between steps.  A product of two residues is below 2^62; a butterfly's sum
or difference lies in (-p, 2p).  The 3-point step's outputs lie in
(-2p, 3p); the two blocks it then multiplies by twiddles lie in (-2p, 2p),
so those products stay below 2p * p < 2^63 in magnitude.
Reductions go through floor division (`_reduce`), which returns [0, p) for
negative input as well.

Memory.  A product holds one n-entry work array, one n-entry scratch array
(used as a pair of halves by the butterflies), the R' x C twiddle matrix and
a few column vectors of about sqrt n entries; a second operand that is not
the first adds one more n-entry array.
"""

from __future__ import annotations

from math import prod

import numpy as np

# p = c * 2^e + 1 with primitive root g, largest first; every p has
# 3 * 2^25 | p - 1.  The five multiply to about 2^153.4.
NTT_PRIMES: tuple[tuple[int, int], ...] = (
    (2113929217, 5),    # 63 * 2^25 + 1
    (2013265921, 31),   # 15 * 2^27 + 1
    (1811939329, 13),   # 27 * 2^26 + 1
    (1711276033, 29),   # 51 * 2^25 + 1
    (1107296257, 10),   # 33 * 2^25 + 1
)

_TRANSPOSE_BLOCK = 64     # rows per slab of the blocked transpose


def transform_size(length: int) -> int:
    """Smallest n in {2^k, 3 * 2^k} with n >= length (length >= 1)."""
    return min(1 << (length - 1).bit_length(),
               3 << ((length + 2) // 3 - 1).bit_length())


def crt_primes(bound: int) -> tuple[tuple[int, int], ...]:
    """Shortest prefix of NTT_PRIMES whose product exceeds 2 bound, so that
    the signed CRT recovers every integer of magnitude at most `bound`."""
    modulus = 1
    for i, (p, _) in enumerate(NTT_PRIMES):
        modulus *= p
        if modulus > 2 * bound:
            return NTT_PRIMES[:i + 1]
    raise ValueError("limit too large for the configured prime set")


def root_powers(root: int, n: int, p: int) -> np.ndarray:
    """root^j mod p for j < n (int64 products: p below 2^31)."""
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


def _transpose(src: np.ndarray, dst: np.ndarray) -> None:
    """dst = src.T for contiguous 2-d arrays, one slab of rows at a time, so
    that each slab's reads and writes stay in cache."""
    for i in range(0, src.shape[0], _TRANSPOSE_BLOCK):
        dst[:, i:i + _TRANSPOSE_BLOCK] = src[i:i + _TRANSPOSE_BLOCK].T


def _stage_twiddles(root: int, length: int, p: int) -> list[tuple[int, np.ndarray]]:
    """(L, w_L^j for j < L/2 as a column) for the radix-2 stages L = length,
    length/2, ..., 2 of a transform of `length` points with root `root`."""
    powers = root_powers(root, length // 2, p)
    out = []
    size = length
    while size >= 2:
        out.append((size, powers[::length // size].reshape(-1, 1).copy()))
        size //= 2
    return out


class Transform:
    """The n-point transform modulo the prime p with primitive root g, for
    n = 2^k or 3 * 2^k dividing p - 1 (layout in the module docstring)."""

    def __init__(self, n: int, p: int, g: int):
        if (p - 1) % n:
            raise ValueError(f"transform size {n} unsupported by prime {p}")
        k = (n & -n).bit_length() - 1
        if n >> k not in (1, 3):
            raise ValueError(f"transform size {n} is not 2^k or 3 * 2^k")
        self.n, self.p = n, p
        self.three = n >> k == 3
        self.cols = 1 << (k + 1) // 2
        self.rows = n // self.cols                   # R' = 3^e R
        radix2_rows = self.rows // 3 if self.three else self.rows
        w = pow(g, (p - 1) // n, p)
        self._row_stages = _stage_twiddles(pow(w, n // radix2_rows, p), radix2_rows, p)
        self._col_stages = _stage_twiddles(pow(w, self.rows, p), self.cols, p)
        # the row index r of the R' axis carries frequency k1 = perm[r] after
        # the row steps: bit reversal within each block of R rows, and block
        # t of the 3-point step holds the frequencies k1 = t mod 3
        perm = np.zeros(1, dtype=np.int64)
        while perm.shape[0] < radix2_rows:
            perm = np.concatenate([2 * perm, 2 * perm + 1])
        if self.three:
            perm = np.concatenate([3 * perm + t for t in range(3)])
            w_rows = pow(w, self.cols, p)            # primitive R'-th root
            self._omega = pow(w, 2 * n // 3, p)     # w3^2, w3 = w^(n/3)
            self._tri = [root_powers(pow(w_rows, t, p), radix2_rows, p).reshape(-1, 1)
                         for t in (1, 2)]
        self._matrix = np.empty((self.rows, self.cols), dtype=np.int64)
        self._matrix[:, 0] = 1
        cur = root_powers(w, self.rows, p)[perm]
        j = 1
        while j < self.cols:
            m = min(2 * j, self.cols)
            block = self._matrix[:, j:m]
            np.multiply(self._matrix[:, :m - j], cur[:, None], out=block)
            block %= p
            cur = cur * cur % p
            j *= 2
        self._n_inv = pow(n, p - 2, p)

    # -- steps ----------------------------------------------------------------

    def _radix2(self, x: np.ndarray, scratch: np.ndarray,
                stages: list[tuple[int, np.ndarray]], inverse: bool) -> None:
        """Radix-2 stages along axis 0 of the contiguous 2-d array x, in place:
        decimation in frequency (natural in, bit-reversed out) or, inverse,
        decimation in time (bit-reversed in, natural out) with the same
        twiddles.  Entries stay in [0, p)."""
        p = self.p
        width = x.shape[1]
        half_size = x.size // 2
        t_flat, q_flat = scratch[:half_size], scratch[half_size:2 * half_size]
        for length, tw in (reversed(stages) if inverse else stages):
            half = length // 2
            blk = x.reshape(-1, length, width)
            lo, hi = blk[:, :half], blk[:, half:]
            t = t_flat.reshape(-1, half, width)
            q = q_flat.reshape(-1, half, width)
            if inverse:
                np.multiply(hi, tw, out=t)
                _reduce(t, p, q, t)
                np.subtract(lo, t, out=hi)           # (-p, p)
                _fold(hi, p, q, hi)
                lo += t                              # [0, 2p)
                _fold(lo, -p, q, lo)
            else:
                np.subtract(lo, hi, out=t)           # (-p, p)
                lo += hi                             # [0, 2p)
                _fold(lo, -p, q, lo)
                t *= tw                              # |t| < p^2 < 2^62
                _reduce(t, p, q, hi)

    def _radix3(self, x: np.ndarray, scratch: np.ndarray) -> None:
        """Block t of x (three blocks of rows) becomes sum_s w3^(s t) x_s, in
        place, with w3 = w^(n/3); the outputs lie in (-2p, 3p).

        With omega = w3^2 and u = omega (x1 - x2), 1 + omega + omega^2 = 0
        gives x0 + omega x1 + omega^2 x2 = x0 - x2 + u (block 2) and
        x0 + omega^2 x1 + omega x2 = x0 - x1 - u (block 1)."""
        p = self.p
        x0, x1, x2 = x.reshape(3, -1)
        size = x0.shape[0]
        t, q = scratch[:size], scratch[size:2 * size]
        np.subtract(x1, x2, out=t)
        t *= self._omega
        _reduce(t, p, q, t)                          # u in [0, p)
        np.add(x1, x2, out=q)
        np.subtract(x0, x2, out=x2)
        x2 += t
        np.subtract(x0, x1, out=x1)
        x1 -= t
        x0 += q

    def _twiddle_blocks(self, x: np.ndarray, scratch: np.ndarray) -> None:
        """Multiply block t of the 3-point step by w_{R'}^(t r), reducing."""
        blocks = x.reshape(3, -1, x.shape[1])
        size = blocks[0].size
        for blk, tw in zip(blocks[1:], self._tri):
            blk *= tw                                # |blk| < 2p * p < 2^63
            _reduce(blk, self.p, scratch[:size].reshape(blk.shape), blk)

    def _forward(self, a: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spectrum of a (n entries in [0, p)), overwriting both arrays;
        returns (spectrum, the other array)."""
        p = self.p
        x = a.reshape(self.rows, self.cols)
        if self.three:
            self._radix3(x, spare)
            self._twiddle_blocks(x, spare)
            x0 = x[:self.rows // 3]
            _reduce(x0, p, spare[:x0.size].reshape(x0.shape), x0)
        self._radix2(x, spare, self._row_stages, inverse=False)
        x *= self._matrix
        _reduce(x, p, spare.reshape(x.shape), x)
        y = spare.reshape(self.cols, self.rows)
        _transpose(x, y)
        self._radix2(y, a, self._col_stages, inverse=False)
        return spare, a

    def _inverse(self, spec: np.ndarray, spare: np.ndarray, length: int) -> np.ndarray:
        """First `length` entries of the sequence whose spectrum is `spec`,
        overwriting both arrays.  The steps of `_forward` run backwards with
        the same root, which gives n x[-j mod n]; the read-out reverses the
        index and scales by 1/n."""
        p = self.p
        y = spec.reshape(self.cols, self.rows)
        self._radix2(y, spare, self._col_stages, inverse=True)
        x = spare.reshape(self.rows, self.cols)
        _transpose(y, x)
        x *= self._matrix
        _reduce(x, p, spec.reshape(x.shape), x)
        self._radix2(x, spec, self._row_stages, inverse=True)
        if self.three:
            self._twiddle_blocks(x, spec)
            self._radix3(x, spec)                    # (-2p, 3p), reduced below
        out = np.empty(length, dtype=np.int64)
        out[0] = spare[0]
        out[1:] = spare[:self.n - length:-1]
        scratch = spec[:length]
        _reduce(out, p, scratch, out)
        out *= self._n_inv
        _reduce(out, p, scratch, out)
        return out

    def product(self, a: np.ndarray, b: np.ndarray, length: int) -> np.ndarray:
        """First `length` coefficients of a * b mod p, for a and b with
        entries in [0, p) and len(a) + len(b) - 1 <= n, so that no term of
        the linear product wraps.  Pass the same array twice to square it
        with one forward transform."""
        n = self.n
        work = np.zeros(n, dtype=np.int64)
        work[:a.shape[0]] = a
        spec, spare = self._forward(work, np.empty(n, dtype=np.int64))
        if b is a:
            spec *= spec
        else:
            other = np.zeros(n, dtype=np.int64)
            other[:b.shape[0]] = b
            spec *= self._forward(other, spare)[0]
        _reduce(spec, self.p, spare, spec)
        return self._inverse(spec, spare, length)


def garner_digits(residues: list[np.ndarray], primes: list[int]) -> list[np.ndarray]:
    """Garner's mixed-radix digits of the residues, as int64 arrays: d_k in
    [0, p_k) with x = sum d_k * (p_0 ... p_(k-1)) the value in [0, M), M the
    product of the primes.  Each digit is a few int64 passes, since
    d_j * c < 2^62 for d_j, c below 2^31."""
    digits: list[np.ndarray] = []
    for r, p in zip(residues, primes):
        acc = np.zeros_like(r)
        weight = 1
        for d, q in zip(digits, primes):
            acc = (acc + d * weight) % p
            weight = weight * q % p
        digits.append((r - acc) % p * pow(weight, -1, p) % p)
    return digits


def mixed_radix_value(digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """The signed values of the digits, in (-M/2, M/2], exactly: int64 for
    one or two primes (M < 2^62), an object array of Python ints for more."""
    # adjacent digits pair up exactly in int64, d_k + d_(k+1) p_k < 2^62,
    # which halves the passes over Python ints
    limbs = [(digits[k] + digits[k + 1] * primes[k], primes[k] * primes[k + 1])
             if k + 1 < len(digits) else (digits[k], primes[k])
             for k in range(0, len(digits), 2)]
    modulus = prod(primes)
    value = limbs[-1][0]
    if len(limbs) > 1:
        value = value.astype(object)
        for limb, radix in limbs[-2::-1]:
            value = value * radix + limb
    value[value > modulus // 2] -= modulus
    return value


_MASK = np.uint64((1 << 32) - 1)
_CHUNK = 1 << 15          # entries per pass of the float read-out


def _limbs(x: int, count: int) -> list[int]:
    """x >= 0 as `count` 32-bit limbs, least significant first."""
    return [(x >> 32 * i) & 0xFFFFFFFF for i in range(count)]


def _subtract(a: list, b: list) -> tuple[list, np.ndarray]:
    """a - b over 32-bit limbs (uint64 arrays or ints), and the borrow out
    (1 where a < b)."""
    out, borrow = [], np.uint64(0)
    for x, y in zip(a, b):
        t = (x + (1 << 32)) - y - borrow         # in [1, 2^33): no wrap
        out.append(t & _MASK)
        borrow = 1 - (t >> 32)
    return out, borrow


def _round_block(digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """`mixed_radix_float` on one block of entries."""
    modulus = prod(primes)
    count = len(primes)                          # M < 2^(31 count)
    # Horner from the top digit: x = x p_k + d_k, carried over 32-bit limbs;
    # a limb times p_k plus a carry stays below 2^63
    x = [digits[-1].astype(np.uint64)]
    for d, p in zip(digits[-2::-1], primes[-2::-1]):
        carry = d.astype(np.uint64)
        for i, limb in enumerate(x):
            t = limb * np.uint64(p) + carry
            x[i] = t & _MASK
            carry = t >> 32
        x.append(carry)
    # the signed lift: x >= (M + 1)/2 (M is odd) reads as x - M
    negative = _subtract(x, _limbs(modulus // 2 + 1, count))[1] == 0
    flipped = _subtract(_limbs(modulus, count), x)[0]
    # two zero limbs below, so every nonzero value's top limb has two below it
    mag = np.stack([np.zeros_like(x[0])] * 2
                   + [np.where(negative, f, v) for f, v in zip(flipped, x)])
    top = np.full(mag.shape[1], 2)
    sticky = np.zeros(mag.shape[1], dtype=bool)
    for i in range(2, mag.shape[0]):
        top[mag[i] != 0] = i
    for i in range(mag.shape[0]):
        sticky |= (mag[i] != 0) & (i < top - 2)
    hi, mid, lo = (np.take_along_axis(mag, (top - j)[None], 0)[0] for j in range(3))
    # bits of the top limb, exact through float64 below 2^32 (0 for x = 0)
    bits = np.frexp(hi.astype(np.float64))[1].astype(np.uint64)
    # the 64 bits from the leading one down, with a sticky low bit for any
    # one below them: converting that to float64 rounds once, to nearest
    # even, exactly as the whole value would
    window = ((hi << (np.uint64(64) - bits)) | (mid << (np.uint64(32) - bits))
              | (lo >> bits))
    sticky |= (lo & ((np.uint64(1) << bits) - np.uint64(1))) != 0
    window |= sticky.astype(np.uint64)
    value = np.ldexp(window.astype(np.float64), 32 * top + bits.astype(np.int64) - 128)
    return np.where(negative, -value, value)


def mixed_radix_float(digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """The signed values of the digits as float64, each the correctly
    rounded float(x) of `mixed_radix_value`'s x (round to nearest, ties to
    even); no Python int is formed.

    The value is assembled over 32-bit limbs in uint64, a block of entries
    at a time, and rounded once from its leading 64 bits and a sticky bit.
    """
    out = np.empty(digits[0].shape[0])
    for start in range(0, out.shape[0], _CHUNK):
        out[start:start + _CHUNK] = _round_block(
            [d[start:start + _CHUNK] for d in digits], primes)
    return out


def garner(residues: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """Signed CRT of the residues: the values in (-M/2, M/2], M the product
    of the primes, as `mixed_radix_value` reads them out."""
    return mixed_radix_value(garner_digits(residues, primes), primes)


def convolve_exact(a, b, bound: int) -> np.ndarray:
    """The linear convolution of the integer arrays a and b, exactly, for a
    product whose every coefficient has magnitude at most `bound`; the
    dtype is `garner`'s (int64 while two primes suffice)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if not (a.size and b.size):
        raise ValueError("convolve_exact needs two nonempty operands")
    length = a.shape[0] + b.shape[0] - 1
    n = transform_size(length)
    primes = crt_primes(bound)
    residues = []
    for p, g in primes:
        ra = a % p
        rb = ra if b is a else b % p
        residues.append(Transform(n, p, g).product(ra, rb, length))
    return garner(residues, [p for p, _ in primes])
