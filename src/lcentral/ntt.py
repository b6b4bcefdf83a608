"""The coefficient table's number-theoretic transform and its CRT.

tau.py squares a series modulo each prime of `NTT_PRIMES` and recombines the
residues by Garner's CRT.  `short_square` gives the low terms of a square
from transforms of a fraction of the length (Hanrot and Zimmermann's short
product in k pieces); `Transform` is its one-prime, n-point transform.

CRT.  `garner_digits` writes Garner's mixed-radix digits over the residues
(int32 in tau.py, widened to int64 inside each block) for the value x in
[0, M), M the product of the primes; a signed int64 K past the top digit
stands for x + K M (tau.py finds each entry's K without a transform).
Three read-outs take them: `mixed_radix_value` exactly, x signed, in
(-M/2, M/2], or x + K M; `mixed_radix_float` as float64, correctly rounded
(to nearest, ties to even): numpy converts the int64 value for one or two
primes and no K, else it is rounded once from its leading 64 bits and a
sticky bit, over 32-bit limbs in uint64 with no Python int formed;
`mixed_radix_residue` mod m below 2^31, x or x + K M, which `garner_digits`
takes for the earlier digits mod each new prime.

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
or difference lies in (-p, 2p), and the length-2 stage, whose twiddles are
all 1, folds both back to [0, p) with no product to reduce.  The 3-point
step's outputs lie in (-2p, 3p); the two blocks it then multiplies by
twiddles lie in (-2p, 2p), so those products stay below 2p * p < 2^63 in
magnitude.  Reductions go through floor division (`reduce_mod`), which
returns [0, p) for negative input as well.

The short square.  `_square_plan` picks the number of pieces k in 2..8 from
the length L alone: pieces of t = ceil(L / k) terms, transforms of
n' = transform_size(2 t - 1) points, and the k of least cost, 2 k
transforms (k forward, k inverse) of n' + 2^11 each plus a tenth of n' per
spectral product (about k^2 / 4 of them), ties to the smaller k.
Tower-a2's 152,587 terms take k = 5 at 2^16 points (655,360 transform
points, against 786,432 for the two halves at 3 * 2^16), and 99,999 terms
k = 7 at 2^15 (458,752 against 524,288); every length up to 4,096, where
numpy's calls cost about as much as the points, takes k = 2.  The
square writes its output over its operand and holds the k spectra as
int32 (4 k n' bytes), two n'-entry int64 work arrays and the n'-entry
int32 twiddle matrix: a traced peak of 2.8 MB past the operand at 152,587
terms (4.3 MB with an L-entry int64 output and an int64 matrix, 6.9 MB for
the two halves), and 202 MB at 8,441,195 (294 and 436 MB; k = 3 at
3 * 2^21 points).

Garner and the read-outs work 2^13 entries at a time, so their int64 and
uint64 temporaries stay in cache.
"""

from __future__ import annotations

from math import prod

import numpy as np

# p = c * 2^e + 1 with primitive root g, largest first; every p has
# 3 * 2^25 | p - 1.  All four (about 2^123.3) serve the table at its cap.
NTT_PRIMES: tuple[tuple[int, int], ...] = (
    (2113929217, 5),    # 63 * 2^25 + 1
    (2013265921, 31),   # 15 * 2^27 + 1
    (1811939329, 13),   # 27 * 2^26 + 1
    (1711276033, 29),   # 51 * 2^25 + 1
)

_TRANSPOSE_BLOCK = 64     # rows per slab of the blocked transpose
_CHUNK = 1 << 13          # entries per pass of Garner and the read-outs (cache-sized)


def transform_size(length: int) -> int:
    """Smallest n in {2^k, 3 * 2^k} with n >= length (length >= 1)."""
    return min(1 << (length - 1).bit_length(),
               3 << ((length + 2) // 3 - 1).bit_length())


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


def reduce_mod(x: np.ndarray, p: int, scratch: np.ndarray, out: np.ndarray) -> None:
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
        # held as int32 (entries in [0, p)) and widened by the multiply
        self._matrix = np.empty((self.rows, self.cols), dtype=np.int32)
        self._matrix[:, 0] = 1
        cur = root_powers(w, self.rows, p)[perm]
        j = 1
        while j < self.cols:
            m = min(2 * j, self.cols)
            block = np.multiply(self._matrix[:, :m - j], cur[:, None], dtype=np.int64)
            block %= p
            self._matrix[:, j:m] = block
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
            if length == 2:                          # twiddle 1 either way
                np.subtract(lo, hi, out=t)           # (-p, p)
                lo += hi                             # [0, 2p)
                _fold(lo, -p, q, lo)
                _fold(t, p, q, hi)
            elif inverse:
                np.multiply(hi, tw, out=t)
                reduce_mod(t, p, q, t)
                np.subtract(lo, t, out=hi)           # (-p, p)
                _fold(hi, p, q, hi)
                lo += t                              # [0, 2p)
                _fold(lo, -p, q, lo)
            else:
                np.subtract(lo, hi, out=t)           # (-p, p)
                lo += hi                             # [0, 2p)
                _fold(lo, -p, q, lo)
                t *= tw                              # |t| < p^2 < 2^62
                reduce_mod(t, p, q, hi)

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
        reduce_mod(t, p, q, t)                       # u in [0, p)
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
            reduce_mod(blk, self.p, scratch[:size].reshape(blk.shape), blk)

    def _forward(self, a: np.ndarray, spare: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spectrum of a (n entries in [0, p)), overwriting both arrays;
        returns (spectrum, the other array)."""
        p = self.p
        x = a.reshape(self.rows, self.cols)
        if self.three:
            self._radix3(x, spare)
            self._twiddle_blocks(x, spare)
            x0 = x[:self.rows // 3]
            reduce_mod(x0, p, spare[:x0.size].reshape(x0.shape), x0)
        self._radix2(x, spare, self._row_stages, inverse=False)
        x *= self._matrix
        reduce_mod(x, p, spare.reshape(x.shape), x)
        y = spare.reshape(self.cols, self.rows)
        _transpose(x, y)
        self._radix2(y, a, self._col_stages, inverse=False)
        return spare, a

    def _inverse(self, spec: np.ndarray, spare: np.ndarray, length: int) -> np.ndarray:
        """First `length` entries of the sequence whose spectrum is `spec`, as
        a view of `spec`, overwriting both arrays.  The steps of `_forward`
        run backwards with the same root, which gives n x[-j mod n] in
        `spare`; the read-out reverses the index and scales by 1/n."""
        p = self.p
        y = spec.reshape(self.cols, self.rows)
        self._radix2(y, spare, self._col_stages, inverse=True)
        x = spare.reshape(self.rows, self.cols)
        _transpose(y, x)
        x *= self._matrix
        reduce_mod(x, p, spec.reshape(x.shape), x)
        self._radix2(x, spec, self._row_stages, inverse=True)
        if self.three:
            self._twiddle_blocks(x, spec)
            self._radix3(x, spec)                    # (-2p, 3p), reduced below
        out = spec[:length]
        out[0] = spare[0]
        out[1:] = spare[:self.n - length:-1]
        scratch = spare[:length]
        reduce_mod(out, p, scratch, out)
        out *= self._n_inv
        reduce_mod(out, p, scratch, out)
        return out


# The short square's plan, in units of one point of one transform: a
# transform of n points costs about n + 2^11 (numpy's calls cost about as
# much as 2^11 points), and a spectral product (multiply, reduce, add) about
# a tenth of a transform of the same size (measured at 2^10 to 3 * 2^16).
_TRANSFORM_OVERHEAD = 1 << 11
_PRODUCT_COST = 0.1
_MAX_PIECES = 8


def _square_plan(length: int) -> tuple[int, int]:
    """(k, n') for `short_square` of `length` terms: k in 2..8 pieces of
    t = ceil(length / k) terms at n' = transform_size(2 t - 1) points, the k
    of least cost 2 k (n' + 2^11) + (products) n' / 10, ties to the smaller
    k."""
    best = None
    for k in range(2, _MAX_PIECES + 1):
        t = -(-length // k)
        pieces = -(-length // t)
        n = transform_size(2 * t - 1)
        products = sum(s // 2 + 1 for s in range(pieces))
        cost = 2 * pieces * (n + _TRANSFORM_OVERHEAD) + _PRODUCT_COST * products * n
        if best is None or cost < best[0]:
            best = cost, k, n
    return best[1:]


def short_square(a: np.ndarray, p: int, g: int) -> None:
    """Overwrite a, with entries in [0, p), by the first len(a) coefficients
    of a^2 mod p: Hanrot and Zimmermann's short product ("A long note on
    Mulders' short product", 2004) in k pieces.  With (k, n') =
    `_square_plan`, t = ceil(len(a) / k) and a = sum_i x^(i t) A_i, each A_i
    of t terms,

        a^2 mod x^len(a) = sum_s x^(s t) G_s,  G_s = sum_{i+j=s} A_i A_j,

    over the s with s t < len(a); each G_s has 2 t - 1 terms, so it fits in
    n' points without wrapping.  The pieces are forwarded once and kept as
    int32 spectra, each G_s is formed in the spectrum (a cross term i < j
    twice, a square once) and inverted, and the offset G_s are added: k
    forward transforms, k inverses and about k^2 / 4 spectral products, in
    two n'-entry int64 work arrays.  Every piece is forwarded before a is
    written, and G_s's t - 1 high terms wait in a, at the place of the
    terms they belong to, until G_(s+1) is added to them."""
    length = a.shape[0]
    k, n = _square_plan(length)
    t = -(-length // k)
    pieces = -(-length // t)
    tr = Transform(n, p, g)
    acc, prod = (np.empty(n, dtype=np.int64) for _ in range(2))
    spectra = np.empty((pieces, n), dtype=np.int32)
    for i in range(pieces):
        piece = a[i * t:(i + 1) * t]
        acc[:piece.shape[0]] = piece
        acc[piece.shape[0]:] = 0
        spectra[i] = tr._forward(acc, prod)[0]
    for s in range(pieces):
        # the terms A_i A_(s-i), i <= s - i, reduced as they are summed; a
        # cross term (i < s - i) counts twice, below 2 (p - 1)^2 < 2^63 - p,
        # so adding it to a sum in [0, p) does not overflow
        for i in range(s // 2 + 1):
            term = prod if i else acc
            np.multiply(spectra[i], spectra[s - i], out=term, dtype=np.int64)
            if 2 * i < s:
                term <<= 1
            if i:
                acc += prod
            reduce_mod(acc, p, prod, acc)
        lo = s * t
        group = tr._inverse(acc, prod, min(2 * t - 1, length - lo))
        if s:                                        # G_(s-1)'s high terms
            held = group[:t - 1]
            held += a[lo:lo + held.shape[0]]         # [0, 2p)
            _fold(held, -p, prod[:held.shape[0]], held)
        a[lo:lo + group.shape[0]] = group


def garner_digits(residues: list[np.ndarray], primes: list[int]) -> list[np.ndarray]:
    """Garner's mixed-radix digits of the residues (integer arrays in
    [0, p), int32 in tau.py), written over them a block of entries at a
    time, and returned: d_k in [0, p_k) with x = sum d_k * W_k the value in
    [0, M), M the product of the primes, W_k = p_0 ... p_(k-1); d_k is r_k
    less the earlier digits' value, over W_k, mod p_k, widened to int64
    within the block."""
    for start in range(0, residues[0].shape[0], _CHUNK):
        digits = [r[start:start + _CHUNK] for r in residues]
        for k, p in enumerate(primes[1:], 1):
            acc = mixed_radix_residue(digits[:k], primes[:k], p)
            np.subtract(digits[k], acc, out=acc)     # (-p, p)
            acc *= pow(prod(primes[:k]), -1, p)      # below p^2 < 2^62 in size
            reduce_mod(acc, p, np.empty_like(acc), acc)
            digits[k][:] = acc
    return residues


def _signed_top(digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """The top digit of the signed lift into (-M/2, M/2] as int64: -1 where
    the value x of the digits passes (M - 1)/2, else 0.  With every prime
    odd, (M - 1)/2 has the digits (p_k - 1)/2, so x is compared with it
    digit by digit from the top."""
    above = np.zeros(digits[0].shape, dtype=bool)
    decided = np.zeros(digits[0].shape, dtype=bool)
    for d, p in zip(digits[::-1], primes[::-1]):
        above |= ~decided & (d > (p - 1) // 2)
        decided |= d != (p - 1) // 2
    return -above.astype(np.int64)


def mixed_radix_value(digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """The values of the digits, exactly.  With one digit per prime, x (the
    value in [0, M)) read signed, in (-M/2, M/2]: int64 for one or two
    primes (M < 2^62), an object array of Python ints for more.  With one
    digit more, that last is a signed int64 top digit K, and the values are
    x + K M, as Python ints."""
    count = len(primes)
    given_top = len(digits) > count
    # adjacent digits pair up exactly in int64, d_k + d_(k+1) p_k < 2^62,
    # which halves the passes over Python ints; the int32 digits are widened
    # before the product
    limbs = [(digits[k] + np.multiply(digits[k + 1], primes[k], dtype=np.int64),
              primes[k] * primes[k + 1])
             if k + 1 < count else (digits[k].astype(np.int64), primes[k])
             for k in range(0, count, 2)]
    top = digits[count] if given_top else _signed_top(digits, primes)
    value = top.astype(object if given_top or count > 2 else np.int64)
    for limb, radix in limbs[::-1]:                  # x + K M, by Horner
        value *= radix
        value += limb
    return value


def mixed_radix_residue(digits: list[np.ndarray], primes: list[int], m: int) -> np.ndarray:
    """The values of the digits mod m, as int64 in [0, m), for m below 2^31:
    with one digit per prime, x mod m for x the value in [0, M); with one
    digit more, a signed int64 top digit K, (x + K M) mod m.  Each product
    of a digit, or of K mod m, and a weight mod m is below 2^62."""
    acc = np.zeros(digits[0].shape, dtype=np.int64)
    scratch = np.empty_like(acc)
    for k, d in enumerate(digits):
        if k == len(primes):                         # K, reduced before its product
            reduce_mod(d, m, scratch, scratch)
            d = scratch
        acc += np.multiply(d, prod(primes[:k]) % m, out=scratch, dtype=np.int64)
        reduce_mod(acc, m, scratch, acc)
    return acc


_MASK = np.uint64((1 << 32) - 1)


def _round_block(digits: list[np.ndarray], primes: list[int]) -> np.ndarray:
    """`mixed_radix_float` on one block of entries."""
    count = len(primes)
    multiple = digits[count] if len(digits) > count else _signed_top(digits, primes)
    # |x + K M|: K M + x for K >= 0, and (-K - 1) M + (M - x) for K < 0,
    # where M - x has the digits p_k - 1 - d_k with one more on the lowest
    negative = multiple < 0
    digits = [np.where(negative, p - 1 - d, d) for d, p in zip(digits[:count], primes)]
    digits[0] += negative
    size = np.where(negative, -1 - multiple, multiple).astype(np.uint64)
    # Horner from the top digit, x = x p_k + d_k, carried over 32-bit limbs;
    # a limb times p_k plus a carry stays below 2^63
    x = [size & _MASK, size >> np.uint64(32)]
    for d, p in zip(digits[::-1], primes[::-1]):
        carry = d.astype(np.uint64)
        for i, limb in enumerate(x):
            t = limb * np.uint64(p) + carry
            x[i] = t & _MASK
            carry = t >> np.uint64(32)
        x.append(carry)
    # two zero limbs below, so every nonzero value's top limb has two below it
    mag = np.stack([np.zeros_like(x[0])] * 2 + x)
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
    """The values of the digits as float64, each the correctly rounded
    float of `mixed_radix_value`'s value (round to nearest, ties to even),
    with or without a signed top digit; no Python int is formed.

    The digits are read a block of entries at a time.  For one or two
    primes and no top digit a block's value is int64 (M < 2^62), which numpy
    converts correctly rounded; otherwise it is assembled over 32-bit limbs
    in uint64 and rounded once from its leading 64 bits and a sticky bit.
    """
    exact = len(digits) == len(primes) <= 2
    out = np.empty(digits[0].shape[0])
    for start in range(0, out.shape[0], _CHUNK):
        block = [d[start:start + _CHUNK] for d in digits]
        out[start:start + _CHUNK] = (mixed_radix_value(block, primes) if exact
                                     else _round_block(block, primes))
    return out
