"""Exact roots of unity and cyclotomic numbers.

`RootOfUnity` is a single root e(q) with q a rational phase mod 1; products,
powers, and Galois twists stay exact.  `CyclotomicNumber` is an element of
Q(zeta_N) in one format: an int64 coefficient vector over Z/N and one
positive integer denominator.  A product is a sum of rotations of one
operand's nonzero terms, one per nonzero term of the other, so it costs the
product of their counts (a Gauss sum reduced onto the tensor basis has at
most p - 1).  One rewrite onto the tensor basis of Q(zeta_N) over its
prime-power parts (`_rewrite`) serves `reduced`, `is_zero`, `is_rational`
and `==`.  Every operation bounds its result first and raises
ArithmeticError where int64 could overflow; nothing wraps.  Complex
renderings are float64 conveniences on top of the exact data, not the other
way around.
"""

from __future__ import annotations

import cmath
import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, pi
from types import MappingProxyType

import numpy as np

from .abelian import factorize, p_adic_split


class RootOfUnity:
    """The complex number e(phase) = exp(2*pi*i*phase), phase rational mod 1."""

    __slots__ = ("phase",)

    def __init__(self, phase: Fraction | int = 0):
        """From a rational phase (a Fraction or an integer), taken mod 1: a
        Fraction already in [0, 1) is kept, anything else costs one Fraction."""
        num, den = phase.numerator, phase.denominator
        if not (isinstance(phase, Fraction) and 0 <= num < den):
            num, den = operator.index(num), operator.index(den)
            phase = Fraction(num % den, den)
        self.phase = phase

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.phase + other.phase)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(-self.phase)

    @property
    def order(self) -> int:
        return self.phase.denominator

    def order_p_part(self, p: int) -> tuple[int, int]:
        """Split order = a * p^m with p not dividing a; returns (a, m)."""
        return p_adic_split(self.order, p)

    def to_complex(self) -> complex:
        return cmath.exp(2j * pi * float(self.phase))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootOfUnity) and self.phase == other.phase

    def __hash__(self) -> int:
        return hash(("RootOfUnity", self.phase.numerator, self.phase.denominator))

    def __repr__(self) -> str:
        return f"e({self.phase})"


@lru_cache(maxsize=4)
def unit_circle_array(den: int) -> np.ndarray:
    """e(k / den) for k = 0..den-1 as a read-only complex128 array, each the
    bits RootOfUnity.to_complex gives."""
    got = np.array([cmath.exp(2j * pi * (k / den)) for k in range(den)])
    got.setflags(write=False)
    return got


def _monic_divmod(num: list[int], den: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials (ascending order) by a
    monic divisor, in exact Python ints."""
    num = list(num)
    d = len(den) - 1
    terms = [(j, c) for j, c in enumerate(den) if c]
    quot = [0] * max(0, len(num) - d)
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i]
        if c:
            quot[i - d] = c
            for j, dj in terms:
                num[i - d + j] -= c * dj
    return quot, num[:d]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _monic_divmod(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1")
    return tuple(poly)


INT64_MAX = int(np.iinfo(np.int64).max)

# Terms per np.dot: OpenBLAS threads a dot past 10,000 elements, so that its
# bits follow OPENBLAS_NUM_THREADS and it pays ~1,000x its work in wake-ups
DOT_BLOCK = 1 << 13


def _fits(bound: int | float, what: str) -> None:
    """Refuse a result whose coefficients are bounded only past int64."""
    if bound > INT64_MAX:
        raise ArithmeticError(f"{what} could pass int64 (coefficient bound {bound:.3g})")


def _peak(num: np.ndarray) -> int:
    """max |num| as a Python int, 0 when num is empty: np.abs wraps -2^63 to
    itself, which reads as 2^63 unsigned."""
    return int(np.abs(num).view(np.uint64).max(initial=0))


class CyclotomicNumber:
    """Element sum_e num[e] zeta_N^e / den of Q(zeta_N), N = level: an int64
    vector over Z/N (read-only) and a positive integer denominator, kept in
    lowest terms."""

    __slots__ = ("level", "num", "den")

    def __init__(self, level: int, coeffs: dict[int, Fraction | int] | None = None):
        """From a sparse map exponent -> rational coefficient (exponents mod N)."""
        items = [(e % level, Fraction(c)) for e, c in (coeffs or {}).items()]
        den = lcm(*(c.denominator for _, c in items))
        ints = [c.numerator * (den // c.denominator) for _, c in items]
        _fits(sum(map(abs, ints)), "a coefficient")
        num = np.zeros(level, dtype=np.int64)
        if items:
            np.add.at(num, [e for e, _ in items], ints)
        self._set(level, num, den)

    def _set(self, level: int, num: np.ndarray, den: int) -> None:
        if den != 1:
            g = gcd(den, int(np.gcd.reduce(num)))
            if g > 1:
                num, den = num // g, den // g
        num.setflags(write=False)
        self.level, self.num, self.den = level, num, den

    @classmethod
    def _made(cls, level: int, num: np.ndarray, den: int) -> "CyclotomicNumber":
        """num / den for an int64 vector this module made, bounded and owns."""
        out = cls.__new__(cls)
        out._set(level, num, den)
        return out

    @classmethod
    def from_array(cls, level: int, num, den: int = 1) -> "CyclotomicNumber":
        """sum_e num[e] zeta_level^e / den for an integer array of `level`
        entries, such as a histogram of exponents."""
        num = np.array(num, dtype=np.int64)
        if num.shape != (level,) or den < 1:
            raise ValueError(f"need {level} coefficients and a positive denominator")
        _fits(_peak(num), "a coefficient")
        return cls._made(level, num, int(den))

    @classmethod
    def from_root(cls, root: RootOfUnity, coeff: Fraction | int = 1) -> "CyclotomicNumber":
        """coeff * root at the root's order: one coefficient written into a
        zero vector."""
        n = root.order
        c, den = operator.index(coeff.numerator), operator.index(coeff.denominator)
        _fits(abs(c), "a coefficient")
        num = np.zeros(n, dtype=np.int64)
        num[root.phase.numerator] = c
        return cls._made(n, num, den)

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only sparse view: exponent -> nonzero rational coefficient."""
        return MappingProxyType({int(e): Fraction(int(self.num[e]), self.den)
                                 for e in np.flatnonzero(self.num)})

    def _lifted(self, n: int) -> np.ndarray:
        """The numerator vector at level n, a multiple of the level."""
        if n == self.level:
            return self.num
        out = np.zeros(n, dtype=np.int64)
        out[::n // self.level] = self.num
        return out

    def __add__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        n, den = lcm(self.level, other.level), lcm(self.den, other.den)
        ka, kb = den // self.den, den // other.den
        a, b = self._lifted(n), other._lifted(n)
        _fits(_peak(a) * ka + _peak(b) * kb, "a sum")
        return CyclotomicNumber._made(n, a * ka + b * kb, den)

    def __neg__(self) -> "CyclotomicNumber":
        return CyclotomicNumber.from_array(self.level, -self.num, self.den)

    def __sub__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        return self + (-other)

    def __mul__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        """The product as a sum of rotations: each nonzero term c zeta^e of
        the operand with fewer terms adds c times the other's nonzero terms,
        rotated by e.  Every partial sum is bounded by (sum of the |c|) times
        the other's largest |coefficient|, checked before anything is
        formed.  The cost is the product of the two counts of nonzero terms."""
        n = lcm(self.level, other.level)
        a = self._lifted(n)
        b = a if other is self else other._lifted(n)
        (sparse,), (dense,) = a.nonzero(), b.nonzero()
        if len(dense) < len(sparse):
            a, b, sparse, dense = b, a, dense, sparse
        scale, coeffs = a[sparse].tolist(), b[dense]
        _fits(sum(map(abs, scale)) * _peak(coeffs), "a product")
        out = np.zeros(n, dtype=np.int64)
        for e, c in zip(sparse.tolist(), scale):
            out[(dense + e) % n] += c * coeffs
        return CyclotomicNumber._made(n, out, self.den * other.den)

    def galois(self, t: int) -> "CyclotomicNumber":
        n = self.level
        if gcd(t, n) != 1:
            raise ValueError("galois twist needs t coprime to the level")
        out = np.empty(n, dtype=np.int64)
        out[np.arange(n) * (t % n) % n] = self.num
        return CyclotomicNumber._made(n, out, self.den)

    def reduced(self) -> "CyclotomicNumber":
        """The same number on the tensor basis of Q(zeta_N) (see `_rewrite`);
        zero reduces to the zero vector."""
        return CyclotomicNumber._made(self.level, _rewrite(self.level, self.num), self.den)

    def reduced_dense(self) -> "CyclotomicNumber":
        """Reference reduction by polynomial division against Phi_N, in
        Python ints.

        Quadratic in N, so only usable at small levels; kept as an independent
        oracle for the tensor rewrite.
        """
        n = self.level
        _, rem = _monic_divmod(self.num.tolist(), cyclotomic_polynomial(n))
        return CyclotomicNumber(n, {e: Fraction(c, self.den) for e, c in enumerate(rem) if c})

    def is_zero(self) -> bool:
        return vanishes(self.level, self.num)

    def is_rational(self) -> Fraction | None:
        red = self.reduced()
        if red.num[1:].any():
            return None
        return Fraction(int(red.num[0]), red.den)

    def __eq__(self, other: object) -> bool:
        """Exact equality; at one level and denominator, whether the
        difference of the numerators vanishes."""
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        if self.level != other.level or self.den != other.den:
            return (self - other).is_zero()
        _fits(_peak(self.num) + _peak(other.num), "a sum")
        return vanishes(self.level, self.num - other.num)

    def __hash__(self):
        raise TypeError("CyclotomicNumber is unhashable; compare with ==")

    def to_complex(self) -> complex:
        nz = np.flatnonzero(self.num)
        dots = [complex(np.dot(np.exp(2j * pi * block / self.level), self.num[block] / self.den))
                for block in np.split(nz, range(DOT_BLOCK, len(nz), DOT_BLOCK))]
        return sum(dots[1:], dots[0])

    def __repr__(self) -> str:
        if not self.num.any():
            return "Cyc(0)"
        terms = ", ".join(f"{c}*e({e}/{self.level})" for e, c in self.coeffs.items())
        return f"Cyc[{terms}]"


def _rewrite(level: int, num: np.ndarray) -> np.ndarray:
    """sum_e num[e] zeta_level^e rewritten on the tensor basis, as a new
    int64 vector over the same exponents.

    Q(zeta_N) = (x) Q(zeta_q) over the prime powers q = p^m || N, with basis
    prod zeta_q^{j_q}, 0 <= j_q < phi(q).  Exponents move to CRT coordinates
    j_q = e * ((N/q)^-1 mod q) mod q (at a prime power, the exponent itself).
    Each prime-power axis, split as j = l p^(m-1) + r with l < p, has its slab
    l = p - 1 subtracted from the slabs l < p - 1 (zeta_q^{phi(q)+r} =
    -sum_l zeta_q^{l p^(m-1) + r}) and cleared.  A coefficient at most doubles
    per axis, which bounds the result.
    """
    factors = _tensor_basis_data(level)
    _fits(_peak(num) << len(factors), "a reduction")
    if not factors:
        return num.copy()
    coords = ((slice(None),) if len(factors) == 1 else
              tuple(np.arange(level) * u % q for q, _p, _step, u in factors))
    shape = tuple(q for q, *_ in factors)
    tensor = np.empty(shape, dtype=np.int64)
    tensor[coords] = num
    for axis, (_q, p, step, _u) in enumerate(factors):
        # splitting one axis of a C-contiguous array is a view: writes go through
        slabs = tensor.reshape(shape[:axis] + (p, step) + shape[axis + 1:])
        head = (slice(None),) * axis
        slabs[head + (slice(p - 1),)] -= slabs[head + (slice(p - 1, p),)]
        slabs[head + (p - 1,)] = 0
    return tensor[coords]


def vanishes(level: int, coeffs: np.ndarray) -> bool:
    """Whether sum_e coeffs[e] zeta_level^e is zero, for an int64 array of
    `level` coefficients, exactly: its tensor-basis rewrite is all zero."""
    return not _rewrite(level, coeffs).any()


@lru_cache(maxsize=None)
def _tensor_basis_data(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """Per prime power q = p^m exactly dividing n: (q, p, p^{m-1}, (n/q)^-1 mod q)."""
    data = []
    for p, m in factorize(n).items():
        q = p ** m
        data.append((q, p, q // p, pow(n // q, -1, q)))
    return tuple(data)
