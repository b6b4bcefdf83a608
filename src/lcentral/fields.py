"""Number field arithmetic over an explicit integral basis.

A field is loaded from a JSON document carrying a monic defining polynomial,
an integral basis in power-basis coordinates, discriminant, class data, unit
generators, and a generator of the different.  All element arithmetic is done
in exact rationals over the integral basis; ideals are integer row lattices
in Hermite normal form.  Embeddings are produced on demand as rational
approximations to a requested bit precision.

The loader cross-checks every stored invariant it can recompute (trace form
determinant against the discriminant, unit norms, signature against the real
root count of the defining polynomial, multiplicative closure of the integral
basis) and rejects documents that fail any of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

from .roots import poly_divmod, poly_trim

Q = Fraction


def _q(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        return Fraction(v)
    raise ValueError(f"expected an exact integer/rational encoding, got {v!r}")


# ---------------------------------------------------------------------------
# dense rational polynomial helpers (ascending coefficients)
# ---------------------------------------------------------------------------

def _pmul(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    out = [Q(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return poly_trim(out)


def _pderiv(p: Sequence[Fraction]) -> list[Fraction]:
    return [p[i] * i for i in range(1, len(p))]


def _peval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _sturm_chain(p: list[Fraction]) -> list[list[Fraction]]:
    chain = [list(p), _pderiv(p)]
    while poly_trim(list(chain[-1])):
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(vals: Iterable[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in vals if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _sturm_count(chain: list[list[Fraction]], a: Fraction, b: Fraction) -> int:
    """Number of real roots in (a, b]."""
    va = _sign_changes(_peval(p, a) for p in chain)
    vb = _sign_changes(_peval(p, b) for p in chain)
    return va - vb


def count_real_roots(poly: Sequence[Fraction]) -> int:
    chain = _sturm_chain(list(poly))
    bound = Q(1) + max(abs(c) for c in poly[:-1]) / abs(poly[-1]) if len(poly) > 1 else Q(1)
    return _sturm_count(chain, -bound, bound)


def _isolate_real_roots(poly: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    chain = _sturm_chain(poly)
    bound = Q(1) + max(abs(c) for c in poly[:-1]) / abs(poly[-1])
    out: list[tuple[Fraction, Fraction]] = []

    def rec(a: Fraction, b: Fraction, n: int) -> None:
        if n == 0:
            return
        if n == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        while _peval(poly, mid) == 0:
            mid = (a + mid) / 2
        rec(a, mid, _sturm_count(chain, a, mid))
        rec(mid, b, _sturm_count(chain, mid, b))

    rec(-bound, bound, _sturm_count(chain, -bound, bound))
    return sorted(out)


def _round_frac(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(round(x * scale), scale)


def _refine_real_root(poly: list[Fraction], lo: Fraction, hi: Fraction, bits: int) -> Fraction:
    """Bisect to a safe width, then Newton with rounded rationals."""
    deriv = _pderiv(poly)
    flo = _peval(poly, lo)
    for _ in range(8):
        mid = (lo + hi) / 2
        fm = _peval(poly, mid)
        if fm == 0:
            return mid
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    x = (lo + hi) / 2
    target = Fraction(1, 1 << (bits + 8))
    for _ in range(bits.bit_length() + 12):
        fx = _peval(poly, x)
        dfx = _peval(deriv, x)
        if dfx == 0:
            break
        step = fx / dfx
        x = _round_frac(x - step, bits + 16)
        if abs(step) < target:
            break
    return x


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element of the ambient field, coordinates over the integral basis."""

    __slots__ = ("nf", "coords")

    def __init__(self, nf: "NumberFieldData", coords: Sequence[Fraction]):
        self.nf = nf
        self.coords = tuple(Fraction(c) for c in coords)
        if len(self.coords) != nf.degree:
            raise ValueError("coordinate length does not match the field degree")

    def _check(self, other: "FieldElement") -> None:
        if self.nf is not other.nf:
            raise ValueError("elements belong to different fields")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.nf, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.nf, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.nf, [-a for a in self.coords])

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.nf, [a * other for a in self.coords])
        self._check(other)
        mt = self.nf.mult_table
        d = self.nf.degree
        out = [Q(0)] * d
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if not b:
                    continue
                ab = a * b
                row = mt[i][j]
                for k in range(d):
                    if row[k]:
                        out[k] += ab * row[k]
        return FieldElement(self.nf, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        out = self.nf.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def mult_matrix(self) -> list[list[Fraction]]:
        """Matrix of y -> self*y on the integral basis (column convention)."""
        d = self.nf.degree
        mt = self.nf.mult_table
        m = [[Q(0)] * d for _ in range(d)]
        for j in range(d):
            # self * b_j
            for i, a in enumerate(self.coords):
                if not a:
                    continue
                row = mt[i][j]
                for k in range(d):
                    if row[k]:
                        m[k][j] += a * row[k]
        return m

    def norm(self) -> Fraction:
        return _frac_det(self.mult_matrix())

    def trace(self) -> Fraction:
        m = self.mult_matrix()
        return sum(m[i][i] for i in range(self.nf.degree))

    def inverse(self) -> "FieldElement":
        m = self.mult_matrix()
        # solve M x = coords(1); the basis need not start with 1
        rhs = list(self.nf.one.coords)
        sol = _frac_solve(m, rhs)
        if sol is None:
            raise ZeroDivisionError("element is zero")
        return FieldElement(self.nf, sol)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def power_coords(self) -> list[Fraction]:
        """Coordinates on the power basis 1, theta, ..., theta^(d-1)."""
        bt = self.nf._basis_rows
        d = self.nf.degree
        out = [Q(0)] * d
        for i, c in enumerate(self.coords):
            if c:
                for j in range(d):
                    out[j] += c * bt[i][j]
        return out

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldElement) and self.nf is other.nf
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((id(self.nf), self.coords))

    def __repr__(self) -> str:
        names = self.nf._coord_names
        parts = [f"{c}*{n}" if n != "1" else f"{c}" for c, n in zip(self.coords, names) if c]
        return " + ".join(parts) if parts else "0"


def _frac_det(m: Sequence[Sequence[Fraction]]) -> Fraction:
    n = len(m)
    a = [list(row) for row in m]
    det = Q(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Q(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def _frac_solve(m: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]) -> list[Fraction] | None:
    n = len(m)
    a = [list(row) + [rhs[i]] for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

def _hnf(rows: list[list[int]], width: int) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice spanned by `rows`.

    Returns `width` rows, upper triangular, positive diagonal, entries above
    each pivot reduced into [0, pivot).  Raises if the lattice has rank < width.
    """
    work = [row[:] for row in rows if any(row)]
    basis: list[list[int]] = []
    for col in range(width):
        pivot: list[int] | None = None
        rest: list[list[int]] = []
        for r in work:
            if r[col] == 0:
                if any(r):
                    rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            a, b = pivot, r
            while b[col] != 0:
                q = a[col] // b[col]
                if q:
                    a = [x - q * y for x, y in zip(a, b)]
                a, b = b, a
            pivot = a
            if any(b):
                rest.append(b)
        if pivot is None:
            raise ValueError("generators do not span a full-rank lattice")
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        basis.append(pivot)
        work = rest
    if any(any(r) for r in work):
        raise AssertionError("leftover rows after HNF elimination")
    for i in range(width - 2, -1, -1):
        for j in range(i + 1, width):
            q = basis[i][j] // basis[j][j]
            if q:
                basis[i] = [x - q * y for x, y in zip(basis[i], basis[j])]
    return basis


class IntegralIdeal:
    """Nonzero integral ideal as a Z-lattice in HNF over the integral basis."""

    __slots__ = ("nf", "hnf", "_norm")

    def __init__(self, nf: "NumberFieldData", hnf_rows: list[list[int]]):
        self.nf = nf
        self.hnf = hnf_rows
        n = 1
        for i in range(nf.degree):
            n *= hnf_rows[i][i]
        self._norm = n

    @classmethod
    def from_z_generators(cls, nf: "NumberFieldData", rows: list[list[int]]) -> "IntegralIdeal":
        return cls(nf, _hnf(rows, nf.degree))

    @classmethod
    def from_generators(cls, nf: "NumberFieldData", gens: Sequence[FieldElement]) -> "IntegralIdeal":
        rows = []
        for g in gens:
            for b in nf.basis_elements:
                prod = g * b
                if not prod.is_integral():
                    raise ValueError("ideal generators must be integral")
                rows.append([int(c) for c in prod.coords])
        return cls.from_z_generators(nf, rows)

    @classmethod
    def principal(cls, nf: "NumberFieldData", x: FieldElement) -> "IntegralIdeal":
        return cls.from_generators(nf, [x])

    @property
    def norm(self) -> int:
        return self._norm

    def __mul__(self, other: "IntegralIdeal") -> "IntegralIdeal":
        nf = self.nf
        gens_a = [FieldElement(nf, row) for row in self.hnf]
        gens_b = [FieldElement(nf, row) for row in other.hnf]
        rows = []
        for a in gens_a:
            for b in gens_b:
                prod = a * b
                rows.append([int(c) for c in prod.coords])
        return IntegralIdeal.from_z_generators(nf, rows)

    def __pow__(self, e: int) -> "IntegralIdeal":
        if e < 0:
            raise ValueError("only nonnegative ideal powers")
        out = IntegralIdeal.principal(self.nf, self.nf.one)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def contains(self, x: FieldElement) -> bool:
        if not x.is_integral():
            return False
        coords = [int(c) for c in x.coords]
        d = self.nf.degree
        # peel off rows in column order; row i is the only remaining row with
        # support at column i once earlier rows are subtracted
        for i in range(d):
            piv = self.hnf[i][i]
            q, rem = divmod(coords[i], piv)
            if rem:
                return False
            if q:
                coords = [c - q * h for c, h in zip(coords, self.hnf[i])]
        return all(c == 0 for c in coords)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, IntegralIdeal) and self.nf is other.nf
                and self.hnf == other.hnf)

    def __hash__(self) -> int:
        return hash((id(self.nf), tuple(tuple(r) for r in self.hnf)))

    def __repr__(self) -> str:
        return f"Ideal(norm={self._norm}, hnf={self.hnf})"


# ---------------------------------------------------------------------------
# local splitting at a degree-one prime
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalIso:
    """Reduction O_F -> Z/p^m at a degree-one prime above p.

    `root` is the image of the power-basis generator; residues of elements are
    computed by evaluating their power-basis coordinates at the root, with
    denominators inverted mod p^m (they must be prime to p).
    """

    nf: "NumberFieldData"
    p: int
    level: int
    root: int
    basis_images: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.p ** self.level

    def residue(self, x: FieldElement) -> int:
        mod = self.modulus
        acc = 0
        for c, img in zip(x.coords, self.basis_images):
            if c == 0:
                continue
            den = c.denominator
            if den % self.p == 0:
                raise ValueError("element is not integral at the prime")
            acc += c.numerator * pow(den, -1, mod) * img
        return acc % mod

    def lift(self, r: int) -> FieldElement:
        """A global integral lift of the residue r (a rational integer works
        because the residue field extension is trivial)."""
        return self.nf.element_from_int(r % self.modulus)


def split_local_iso(nf: "NumberFieldData", p: int, pi: FieldElement, level: int) -> LocalIso:
    """Build the mod-p^level splitting attached to the prime (pi) above p.

    The defining polynomial must have a simple root mod p that lands in (pi);
    the root is Hensel-lifted to the requested level.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    poly = nf.min_poly
    prime_ideal = IntegralIdeal.principal(nf, pi)
    if prime_ideal.norm != p:
        raise ValueError(f"(pi) has norm {prime_ideal.norm}, expected the rational prime {p}")
    chosen = None
    for r0 in range(p):
        if _peval(poly, Q(r0)) % p == 0:
            theta_minus = nf.gen - nf.element_from_int(r0)
            if prime_ideal.contains(theta_minus):
                chosen = r0
                break
    if chosen is None:
        raise ValueError(f"defining polynomial has no root mod {p} inside the given prime")
    dpoly = _pderiv(poly)
    dval = int(_peval(dpoly, Q(chosen))) % p
    if dval == 0:
        raise ValueError(f"{p} is ramified or the root mod {p} is not simple")
    # Hensel: double the exactness level until it covers the request
    r = chosen
    k = 1
    while k < level:
        k = min(2 * k, level)
        mod = p ** k
        fr = int(_peval(poly, Q(r))) % mod
        dr = int(_peval(dpoly, Q(r)))
        r = (r - fr * pow(dr, -1, mod)) % mod
    mod = p ** level
    assert int(_peval(poly, Q(r))) % mod == 0
    images = []
    for b in nf.basis_elements:
        pc = b.power_coords()
        acc = 0
        for j, c in enumerate(pc):
            if c:
                assert c.denominator == 1
                acc += c.numerator * pow(r, j, mod)
        images.append(acc % mod)
    return LocalIso(nf=nf, p=p, level=level, root=r, basis_images=tuple(images))


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class NumberFieldData:
    def __init__(self, doc: dict):
        self.label: str = doc.get("label", "unnamed-field")
        self.min_poly: list[Fraction] = [_q(c) for c in doc["min_poly"]]
        if self.min_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if any(c.denominator != 1 for c in self.min_poly):
            raise ValueError("defining polynomial must have integer coefficients")
        self.degree: int = len(self.min_poly) - 1
        if self.degree < 1:
            raise ValueError("defining polynomial must be nonconstant")

        gcd_chain = _sturm_chain(list(self.min_poly))
        if len(poly_trim(list(gcd_chain[-1]))) > 1:
            raise ValueError("defining polynomial is not squarefree")

        self._basis_rows: list[list[Fraction]] = [
            [_q(c) for c in row] for row in doc["integral_basis"]]
        if len(self._basis_rows) != self.degree or any(
                len(r) != self.degree for r in self._basis_rows):
            raise ValueError("integral basis must be a square matrix of size degree")

        self._coord_names = [f"b{i}" for i in range(self.degree)]

        # power coords = B^T . integral coords, so B must be invertible
        if _frac_det(self._basis_rows) == 0:
            raise ValueError("integral basis rows are linearly dependent")

        mt = self._derive_mult_table()
        if "mult_table" in doc and doc["mult_table"] is not None:
            given = [[[_q(c) for c in cell] for cell in row] for row in doc["mult_table"]]
            if given != mt:
                raise ValueError("stored mult_table disagrees with the derived one")
        self.mult_table: list[list[list[Fraction]]] = mt

        self.basis_elements = [
            FieldElement(self, [Q(1) if j == i else Q(0) for j in range(self.degree)])
            for i in range(self.degree)]
        self.one = self.element_from_int(1)
        self.zero = FieldElement(self, [Q(0)] * self.degree)
        if self.degree > 1:
            self.gen = self._power_element(1)
        else:
            # linear defining polynomial x - a: the generator is a itself
            self.gen = self.element_from_rational(-self.min_poly[0])

        r1 = count_real_roots(self.min_poly)
        r2 = (self.degree - r1) // 2
        if r1 + 2 * r2 != self.degree:
            raise ValueError("real root count is inconsistent with the degree")
        self.signature = (r1, r2)
        if "signature" in doc and tuple(int(x) for x in doc["signature"]) != self.signature:
            raise ValueError("stored signature disagrees with the real root count")

        self.discriminant = int(_q(doc["discriminant"]))
        gram = self._trace_gram()
        if _frac_det(gram) != self.discriminant:
            raise ValueError("trace form determinant disagrees with the stored discriminant")

        self.class_number = int(_q(doc.get("class_number", 1)))
        reps = doc.get("class_reps", [[["1"] + ["0"] * (self.degree - 1)]])
        self.class_reps: list[IntegralIdeal] = []
        for rep in reps:
            gens = [self.element([_q(c) for c in g]) for g in rep]
            self.class_reps.append(IntegralIdeal.from_generators(self, gens))
        if len(self.class_reps) != self.class_number:
            raise ValueError("number of class representatives disagrees with class_number")

        self.unit_gens: list[FieldElement] = [
            self.element([_q(c) for c in row]) for row in doc["unit_gens"]]
        for u in self.unit_gens:
            if not u.is_integral() or abs(u.norm()) != 1:
                raise ValueError(f"unit generator {u!r} does not have norm +-1")

        self.different_gen = self.element([_q(c) for c in doc["different_gen"]])
        if not self.different_gen.is_integral():
            raise ValueError("different generator must be integral")
        if abs(self.different_gen.norm()) != abs(self.discriminant):
            raise ValueError("different generator norm disagrees with the discriminant")

        self._embedding_cache: dict[int, list[complex]] = {}

    # -- construction helpers ------------------------------------------------

    def element(self, coords: Sequence) -> FieldElement:
        return FieldElement(self, [_q(c) for c in coords])

    def element_from_int(self, n: int) -> FieldElement:
        # n in power coords is (n, 0, ..., 0); convert to integral coords
        power = [Q(n)] + [Q(0)] * (self.degree - 1)
        return self._from_power(power)

    def element_from_rational(self, q: Fraction) -> FieldElement:
        power = [Q(q)] + [Q(0)] * (self.degree - 1)
        return self._from_power(power)

    def _power_element(self, k: int) -> FieldElement:
        power = [Q(0)] * self.degree
        power[k] = Q(1)
        return self._from_power(power)

    def _from_power(self, power: list[Fraction]) -> FieldElement:
        m = [[self._basis_rows[i][j] for i in range(self.degree)] for j in range(self.degree)]
        sol = _frac_solve(m, power)
        assert sol is not None
        return FieldElement(self, sol)

    def _derive_mult_table(self) -> list[list[list[Fraction]]]:
        d = self.degree
        table: list[list[list[Fraction]]] = []
        for i in range(d):
            row_i = []
            for j in range(d):
                prod_power = _pmul(self._basis_rows[i], self._basis_rows[j])
                _, prod_power = poly_divmod(prod_power, self.min_poly)
                prod_power = prod_power + [Q(0)] * (d - len(prod_power))
                coords = list(self._from_power(prod_power).coords)
                if any(c.denominator != 1 for c in coords):
                    raise ValueError("integral basis is not closed under multiplication")
                row_i.append(coords)
            table.append(row_i)
        return table

    def _trace_gram(self) -> list[list[Fraction]]:
        d = self.degree
        basis_traces = [b.trace() for b in self.basis_elements]
        gram = [[Q(0)] * d for _ in range(d)]
        for i in range(d):
            for j in range(d):
                gram[i][j] = sum(self.mult_table[i][j][k] * basis_traces[k] for k in range(d))
        return gram

    # -- embeddings -----------------------------------------------------------

    def roots(self, bits: int = 128) -> list[complex]:
        """All d roots of the defining polynomial, real ones first (exactly
        refined to the requested bit precision, rendered as complex)."""
        if bits in self._embedding_cache:
            return self._embedding_cache[bits]
        poly = list(self.min_poly)
        real: list[complex] = []
        for lo, hi in _isolate_real_roots(poly):
            r = _refine_real_root(poly, lo, hi, bits)
            real.append(complex(float(r), 0.0))
        ncomplex = self.degree - len(real)
        cplx: list[complex] = []
        if ncomplex:
            import numpy as np
            allroots = np.roots([float(c) for c in reversed(poly)])
            cand = sorted((z for z in allroots if abs(z.imag) > 1e-9), key=lambda z: (z.real, z.imag))
            # Newton-polish in float domain; callers needing exact quadratic
            # data should work with the defining polynomial directly
            for z in cand:
                for _ in range(60):
                    f = sum(float(c) * z ** k for k, c in enumerate(poly))
                    df = sum(float(c) * k * z ** (k - 1) for k, c in enumerate(poly) if k)
                    if df == 0:
                        break
                    z = z - f / df
                cplx.append(z)
        out = real + cplx
        if len(out) != self.degree:
            raise ValueError("failed to separate the roots of the defining polynomial")
        self._embedding_cache[bits] = out
        return out

    def embedding_matrix(self, bits: int = 128) -> list[list[complex]]:
        """emb[s][i] = value of integral-basis element i under embedding s."""
        rts = self.roots(bits)
        out = []
        for z in rts:
            row = []
            for b in self._basis_rows:
                row.append(sum(float(c) * z ** k for k, c in enumerate(b)))
            out.append(row)
        return out

    def embed_element(self, x: FieldElement, bits: int = 128) -> list[complex]:
        emb = self.embedding_matrix(bits)
        return [sum(complex(row[i]) * float(c) for i, c in enumerate(x.coords))
                for row in emb]

    # -- additive character ----------------------------------------------------

    def efin_phase(self, x: FieldElement) -> Fraction:
        """Phase of the finite additive character at x: e(-Tr(x)) as a
        fraction of a turn in [0, 1)."""
        return (-x.trace()) % 1

    def __repr__(self) -> str:
        return f"NumberField({self.label}, degree={self.degree}, disc={self.discriminant})"


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

_BUILTIN_FILES = {
    "rationals": "rationals.json",
    "Q": "rationals.json",
    "quadratic-sqrt2": "quadratic_sqrt2.json",
    "Qsqrt2": "quadratic_sqrt2.json",
}


@lru_cache(maxsize=None)
def _builtin_field(filename: str) -> NumberFieldData:
    """One field object per builtin file, whichever alias names it."""
    text = resources.files("lcentral.fielddata").joinpath(filename).read_text()
    return NumberFieldData(json.loads(text))


def nf_load(source) -> NumberFieldData:
    """Load and validate a field from a dict, a JSON path, or a builtin name."""
    if isinstance(source, NumberFieldData):
        return source
    if isinstance(source, dict):
        return NumberFieldData(source)
    if isinstance(source, (str, Path)):
        key = str(source)
        if key in _BUILTIN_FILES:
            return _builtin_field(_BUILTIN_FILES[key])
        path = Path(source)
        if path.exists():
            return NumberFieldData(json.loads(path.read_text()))
        raise ValueError(f"unknown field source {source!r}")
    raise ValueError(f"cannot load a field from {type(source).__name__}")
