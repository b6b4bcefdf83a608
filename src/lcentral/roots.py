"""Exact roots of unity and sparse cyclotomic integers.

`RootOfUnity` is a single root e(q) with q a rational phase mod 1; products,
powers, and Galois twists stay exact.  `CyclotomicNumber` is a rational linear
combination of roots of a fixed level N, reduced modulo the N-th cyclotomic
polynomial for zero tests.  Complex renderings are float64 conveniences on
top of the exact data, not the other way around.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, pi

import numpy as np

from .abelian import factorize, p_adic_split


class RootOfUnity:
    """The complex number e(phase) = exp(2*pi*i*phase), phase rational mod 1."""

    __slots__ = ("phase",)

    def __init__(self, phase: Fraction | int = 0):
        self.phase = Fraction(phase) % 1

    @classmethod
    def e(cls, numerator: int, denominator: int) -> "RootOfUnity":
        return cls(Fraction(numerator, denominator))

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        return RootOfUnity(self.phase + other.phase)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.phase * k)

    def conjugate(self) -> "RootOfUnity":
        return RootOfUnity(-self.phase)

    def galois(self, t: int) -> "RootOfUnity":
        """Image under zeta -> zeta^t; a field automorphism when gcd(t, order) = 1."""
        return RootOfUnity(self.phase * t)

    @property
    def order(self) -> int:
        return self.phase.denominator

    def order_p_part(self, p: int) -> tuple[int, int]:
        """Split order = a * p^m with p not dividing a; returns (a, m)."""
        return p_adic_split(self.order, p)

    def is_one(self) -> bool:
        return self.phase == 0

    def to_complex(self) -> complex:
        return cmath.exp(2j * pi * float(self.phase))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RootOfUnity) and self.phase == other.phase

    def __hash__(self) -> int:
        return hash(("RootOfUnity", self.phase))

    def __repr__(self) -> str:
        return f"e({self.phase})"


ONE = RootOfUnity(0)
MINUS_ONE = RootOfUnity(Fraction(1, 2))


@lru_cache(maxsize=4)
def unit_circle(den: int) -> tuple[complex, ...]:
    """e(k / den) for k = 0..den-1, each the bits RootOfUnity.to_complex gives."""
    return tuple(cmath.exp(2j * pi * (k / den)) for k in range(den))


@lru_cache(maxsize=4)
def unit_circle_array(den: int) -> np.ndarray:
    """unit_circle(den) as a read-only complex128 array, the same bits."""
    got = np.array(unit_circle(den), dtype=np.complex128)
    got.setflags(write=False)
    return got


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    """Drop the zero leading coefficients of p (ascending order), in place."""
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod(num: list[Fraction], den: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and trimmed remainder of rational polynomials (ascending order)."""
    num = [Fraction(x) for x in num]
    q = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    inv_lead = 1 / den[-1]
    for i in range(len(num) - len(den), -1, -1):
        coef = num[i + len(den) - 1] * inv_lead
        if coef:
            q[i] = coef
            for j, dj in enumerate(den):
                num[i + j] -= coef * dj
    return q, poly_trim(num)


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, ascending degree."""
    if n == 1:
        return (-1, 1)
    poly = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = poly_divmod(poly, [Fraction(c) for c in cyclotomic_polynomial(d)])
            if rem:
                raise ArithmeticError(f"Phi_{d} does not divide x^{n} - 1")
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError(f"Phi_{n} came out with non-integer coefficients")
    return tuple(c.numerator for c in poly)


class CyclotomicNumber:
    """Element of Q(zeta_N) as a sparse map exponent -> rational coefficient."""

    __slots__ = ("level", "coeffs")

    def __init__(self, level: int, coeffs: dict[int, Fraction] | None = None):
        self.level = level
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[e % level] = self.coeffs.get(e % level, Fraction(0)) + c
            self.coeffs = {e: c for e, c in self.coeffs.items() if c}

    @classmethod
    def zero(cls, level: int = 1) -> "CyclotomicNumber":
        return cls(level)

    @classmethod
    def from_rational(cls, q: Fraction | int, level: int = 1) -> "CyclotomicNumber":
        return cls(level, {0: Fraction(q)})

    @classmethod
    def from_root(cls, root: RootOfUnity, coeff: Fraction | int = 1,
                  level: int | None = None) -> "CyclotomicNumber":
        n = root.order if level is None else lcm(level, root.order)
        e = int(root.phase * n)
        return cls(n, {e: Fraction(coeff)})

    def _promoted(self, n: int) -> dict[int, Fraction]:
        if n == self.level:
            return dict(self.coeffs)
        k = n // self.level
        return {e * k: c for e, c in self.coeffs.items()}

    def __add__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        n = lcm(self.level, other.level)
        out = self._promoted(n)
        for e, c in other._promoted(n).items():
            out[e] = out.get(e, Fraction(0)) + c
        return CyclotomicNumber(n, out)

    def __sub__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        return self + other.scale(-1)

    def scale(self, q: Fraction | int) -> "CyclotomicNumber":
        q = Fraction(q)
        return CyclotomicNumber(self.level, {e: c * q for e, c in self.coeffs.items()})

    def __mul__(self, other: "CyclotomicNumber") -> "CyclotomicNumber":
        n = lcm(self.level, other.level)
        a = self._promoted(n)
        b = other._promoted(n)
        out: dict[int, Fraction] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = (e1 + e2) % n
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return CyclotomicNumber(n, out)

    def conjugate(self) -> "CyclotomicNumber":
        return CyclotomicNumber(self.level, {(-e) % self.level: c for e, c in self.coeffs.items()})

    def galois(self, t: int) -> "CyclotomicNumber":
        if gcd(t, self.level) != 1:
            raise ValueError("galois twist needs t coprime to the level")
        return CyclotomicNumber(self.level, {(e * t) % self.level: c for e, c in self.coeffs.items()})

    def reduced(self) -> "CyclotomicNumber":
        """Rewrite on the tensor basis of Q(zeta_N) over its prime-power parts.

        Q(zeta_N) = (x) Q(zeta_q) over the prime powers q || N, with basis
        prod zeta_q^{j_q}, 0 <= j_q < phi(q).  An exponent e splits into CRT
        coordinates j_q = e * ((N/q)^-1 mod q) mod q, and each coordinate with
        j_q >= phi(q) rewrites in one pass via
        zeta_q^{phi(q)+r} = -sum_{l<p-1} zeta_q^{l p^{m-1} + r}.
        The zero element reduces to an empty coefficient map, so this also
        serves as the exact zero test.
        """
        n = self.level
        if n == 1:
            return CyclotomicNumber(1, dict(self.coeffs))
        factors = _tensor_basis_data(n)
        work: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.coeffs.items():
            key = tuple((e * u) % q for (q, _p, _phi, _step, u) in factors)
            work[key] = work.get(key, Fraction(0)) + c
        for axis, (q, p, phi_q, step, _u) in enumerate(factors):
            nxt: dict[tuple[int, ...], Fraction] = {}
            for key, c in work.items():
                if not c:
                    continue
                j = key[axis]
                if j < phi_q:
                    nxt[key] = nxt.get(key, Fraction(0)) + c
                    continue
                r = j - phi_q
                for l in range(p - 1):
                    k2 = key[:axis] + (l * step + r,) + key[axis + 1:]
                    nxt[k2] = nxt.get(k2, Fraction(0)) - c
            work = nxt
        out: dict[int, Fraction] = {}
        for key, c in work.items():
            if not c:
                continue
            e = sum(j * (n // q) for j, (q, _p, _phi, _step, _u) in zip(key, factors)) % n
            out[e] = c
        return CyclotomicNumber(n, out)

    def reduced_dense(self) -> "CyclotomicNumber":
        """Reference reduction by polynomial division against Phi_N.

        Quadratic in N, so only usable at small levels; kept as an independent
        oracle for the tensor rewrite above.
        """
        n = self.level
        if n == 1:
            return CyclotomicNumber(1, dict(self.coeffs))
        phi = cyclotomic_polynomial(n)
        dense = [Fraction(0)] * n
        for e, c in self.coeffs.items():
            dense[e] += c
        _, rem = poly_divmod(dense, [Fraction(c) for c in phi])
        return CyclotomicNumber(n, {i: c for i, c in enumerate(rem) if c})

    def is_zero(self) -> bool:
        return not self.reduced().coeffs

    def is_rational(self) -> Fraction | None:
        red = self.reduced()
        if not red.coeffs:
            return Fraction(0)
        if set(red.coeffs) == {0}:
            return red.coeffs[0]
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CyclotomicNumber):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("CyclotomicNumber is unhashable; compare with ==")

    def to_complex(self) -> complex:
        return sum((cmath.exp(2j * pi * e / self.level) * float(c)
                    for e, c in self.coeffs.items()), 0j)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Cyc(0)"
        terms = ", ".join(f"{c}*e({e}/{self.level})" for e, c in sorted(self.coeffs.items()))
        return f"Cyc[{terms}]"


def vanishes(level: int, coeffs: np.ndarray) -> bool:
    """Whether sum_e coeffs[e] zeta_level^e is zero, for an int64 array of
    `level` coefficients, exactly.

    The rewrite of `CyclotomicNumber.reduced` on a dense array: exponents
    move to CRT coordinates, and along each prime-power axis the slab
    j = phi(q) + r is subtracted from the slabs j = l p^(m-1) + r, l < p - 1,
    and cleared.  A coefficient at most doubles per axis, so int64 is exact
    far past any histogram of unit residues.
    """
    if level == 1:
        return not coeffs[0]
    factors = _tensor_basis_data(level)
    e = np.arange(level)
    tensor = np.empty(tuple(q for q, *_ in factors), dtype=np.int64)
    tensor[tuple(e * u % q for q, _p, _phi, _step, u in factors)] = coeffs
    for axis, (_q, p, phi_q, step, _u) in enumerate(factors):
        along = np.moveaxis(tensor, axis, 0)         # a view: writes go through
        for l in range(p - 1):
            along[l * step:(l + 1) * step] -= along[phi_q:]
        along[phi_q:] = 0
    return not tensor.any()


@lru_cache(maxsize=None)
def _tensor_basis_data(n: int) -> tuple[tuple[int, int, int, int, int], ...]:
    """Per prime power q = p^m dividing n: (q, p, phi(q), p^{m-1}, (n/q)^-1 mod q)."""
    data = []
    for p, m in factorize(n).items():
        q, step = p ** m, p ** (m - 1)
        data.append((q, p, (p - 1) * step, step, pow(n // q, -1, q)))
    return tuple(data)
