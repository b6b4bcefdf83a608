"""Finite abelian groups presented by integer relation matrices.

Exact integer linear algebra at desk scale: Smith normal form with unimodular
transforms, canonical coordinates for elements, dual (character) enumeration,
and multiplicative orders and primitive roots in (Z/m)^*.  Matrices are lists
of lists of Python ints; nothing here needs floating point.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_inv_unimodular(v: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of an integer matrix with det +-1 (exact, integral)."""
    n = len(v)
    aug = [[Fraction(v[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pivval = aug[col][col]
        aug[col] = [x / pivval for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            q = aug[i][n + j]
            if q.denominator != 1:
                raise ValueError("matrix is not unimodular")
            row.append(q.numerator)
        out.append(row)
    return out


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (U, D, V) with U*a*V = D, U and V unimodular, D in Smith form.

    D is diagonal with nonnegative entries and d_k | d_{k+1}.  The transforms
    are returned so callers can convert exponent vectors between the original
    generators and the invariant-factor generators.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(map(int, row)) for row in a]
    u = identity_matrix(rows)
    v = identity_matrix(cols)

    def row_sub(i: int, j: int, q: int) -> None:
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_sub(i: int, j: int, q: int) -> None:
        for r in range(rows):
            d[r][i] -= q * d[r][j]
        for r in range(cols):
            v[r][i] -= q * v[r][j]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for r in range(rows):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    k = 0
    while k < min(rows, cols):
        piv = None
        for i in range(k, rows):
            for j in range(k, cols):
                if d[i][j] != 0 and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != k:
            row_swap(k, piv[0])
        if piv[1] != k:
            col_swap(k, piv[1])

        while True:
            # clear the pivot column, re-pivoting on any remainder
            dirty = False
            for i in range(k + 1, rows):
                if d[i][k] == 0:
                    continue
                q = d[i][k] // d[k][k]
                row_sub(i, k, q)
                if d[i][k] != 0:
                    row_swap(k, i)
                    dirty = True
            for j in range(k + 1, cols):
                if d[k][j] == 0:
                    continue
                q = d[k][j] // d[k][k]
                col_sub(j, k, q)
                if d[k][j] != 0:
                    col_swap(k, j)
                    dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing block by the pivot
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if d[i][j] % d[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(k, offender, -1)
        k += 1

    for i in range(min(rows, cols)):
        if d[i][i] < 0:
            for j in range(cols):
                d[i][j] = -d[i][j]
            # flip the corresponding column of V to keep U*a*V = D
            for r in range(cols):
                v[r][i] = -v[r][i]
    return u, d, v


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale inputs)."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def p_adic_split(n: int, p: int) -> tuple[int, int]:
    """Split a nonzero n as a * p^m with p not dividing a; returns (a, m)."""
    m = 0
    while n % p == 0:
        n //= p
        m += 1
    return n, m


def multiplicative_order(a: int, modulus: int, group_order: int) -> int:
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not a unit mod {modulus}")
    e = group_order
    for q in factorize(group_order):
        while e % q == 0 and pow(a, e // q, modulus) == 1:
            e //= q
    if pow(a, e, modulus) != 1:
        raise ValueError("group_order is not a multiple of the element order")
    return e


def primitive_root(p: int, n: int) -> int:
    """Smallest positive generator of (Z/p^n)^* for an odd prime p."""
    if p == 2:
        raise ValueError("(Z/2^n)^* is not cyclic for n >= 3")
    modulus = p ** n
    phi = (p - 1) * p ** (n - 1)
    for g in range(2, modulus):
        if g % p == 0:
            continue
        if multiplicative_order(g, modulus, phi) == phi:
            return g
    raise ValueError(f"no generator found mod {modulus}")


class FiniteAbelianGroup:
    """Quotient of Z^m by the row span of an integer relation matrix.

    Elements are tuples of canonical coordinates on the invariant-factor
    generators (trivial factors dropped).  `from_exponents` converts an
    exponent vector on the original presentation generators.
    """

    def __init__(self, relations: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        if not relations or not relations[0]:
            raise ValueError("need a nonempty relation matrix")
        self.ngens = len(relations[0])
        self.labels = list(labels) if labels is not None else [f"g{i}" for i in range(self.ngens)]
        u, d, v = smith_normal_form(relations)
        orders_full = []
        for i in range(self.ngens):
            di = d[i][i] if i < len(d) and i < len(d[i]) else 0
            if di == 0:
                raise ValueError("relations do not present a finite group")
            orders_full.append(di)
        self._vinv = mat_inv_unimodular(v)
        self._orders_full = orders_full
        self._kept = [i for i, di in enumerate(orders_full) if di > 1]
        self.invariants = tuple(orders_full[i] for i in self._kept)
        self.order = 1
        for di in self.invariants:
            self.order *= di

    # -- element plumbing ---------------------------------------------------

    @property
    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.invariants)

    def from_exponents(self, exps: Sequence[int]) -> tuple[int, ...]:
        if len(exps) != self.ngens:
            raise ValueError("exponent vector length mismatch")
        full = []
        for i in range(self.ngens):
            acc = sum(self._vinv[i][j] * exps[j] for j in range(self.ngens))
            full.append(acc % self._orders_full[i])
        return tuple(full[i] for i in self._kept)

    def mul(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.invariants))

    def inv(self, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((-x) % d for x, d in zip(a, self.invariants))

    def pow(self, a: Sequence[int], e: int) -> tuple[int, ...]:
        return tuple((x * e) % d for x, d in zip(a, self.invariants))

    def order_of(self, a: Sequence[int]) -> int:
        o = 1
        for x, d in zip(a, self.invariants):
            o = o * (d // gcd(x, d)) // gcd(o, d // gcd(x, d))
        return o

    def elements(self) -> Iterator[tuple[int, ...]]:
        def rec(prefix: tuple[int, ...], dims: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
            if not dims:
                yield prefix
                return
            for x in range(dims[0]):
                yield from rec(prefix + (x,), dims[1:])
        yield from rec((), self.invariants)

    def subgroup_generated(self, gens: Sequence[Sequence[int]]) -> set[tuple[int, ...]]:
        seen = {self.identity}
        frontier = [self.identity]
        gens = [tuple(g) for g in gens]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.mul(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    # -- dual group ---------------------------------------------------------

    def characters(self) -> Iterator[tuple[int, ...]]:
        """Exponent vectors of the dual group, in lexicographic order."""
        yield from self.elements()

    def char_index(self, chi: Sequence[int]) -> int:
        """Position of chi in the enumeration order of `characters`."""
        index = 0
        for c, d in zip(chi, self.invariants):
            index = index * d + c
        return index

    def char_at(self, index: int) -> tuple[int, ...]:
        """The character at position `index` of `characters` (inverse of char_index)."""
        if not 0 <= index < self.order:
            raise IndexError(f"character index {index} out of range for order {self.order}")
        out = []
        for d in reversed(self.invariants):
            index, c = divmod(index, d)
            out.append(c)
        return tuple(reversed(out))

    def char_phase(self, chi: Sequence[int], elt: Sequence[int]) -> Fraction:
        """Phase in [0,1) of the character value chi(elt) as e(phase)."""
        acc = Fraction(0)
        for c, x, d in zip(chi, elt, self.invariants):
            acc += Fraction(c * x, d)
        return acc % 1

    def char_order(self, chi: Sequence[int]) -> int:
        return self.order_of(chi)
