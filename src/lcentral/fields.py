"""Exact arithmetic in Q and in real quadratic fields Q(sqrt(m)).

These are the fields every consumer serves: the cones' fundamental window,
the archimedean kernels' tail route and the class-number-one ray class
groups.  A field is loaded from a JSON document carrying a monic defining
polynomial (x - a, or x^2 - m with m > 1 squarefree and m = 2, 3 mod 4),
its integral basis in power-basis coordinates ((1), or (1, sqrt(m)), which
is one only for such m), discriminant, class data, unit generators, and a
generator of the different.  The loader is the one place that knows which
fields are supported: any other document is refused there.

An element is u or u + v*sqrt(m) with exact rational coordinates, and its
arithmetic is in closed form: (a + b*sqrt(m))(c + d*sqrt(m)) =
(ac + m*bd) + (ad + bc)*sqrt(m), the norm is u or u^2 - m*v^2, the trace
is degree * u, the inverse is the conjugate over the norm, and the real
embeddings are u +/- v*sqrt(m), the plus place first.

The loader cross-checks every stored invariant it can recompute (the
discriminant of the trace form, unit norms, the signature, a stored
multiplication table, the norm of the different) and rejects documents
that fail any of them.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Sequence


def _q(v) -> Fraction:
    if isinstance(v, (Fraction, int, str)):
        return Fraction(v)
    raise ValueError(f"expected an exact integer/rational encoding, got {v!r}")


def _exact(doc: dict, key: str, depth: int, default=None):
    """doc[key] read by `_q`: exact numbers in JSON arrays nested `depth`
    deep, or one at depth 0; any other shape, or a missing key without a
    default, is refused with the key named."""
    if key not in doc and default is None:
        raise ValueError(f"field document is missing {key!r}")

    def read(v, d):
        if d and not isinstance(v, list):
            raise ValueError
        return [read(x, d - 1) for x in v] if d else _q(v)
    try:
        return read(doc.get(key, default), depth)
    except (ValueError, ZeroDivisionError):
        shape = " of ".join(["an array"] + ["arrays"] * (depth - 1) + ["numbers"])
        raise ValueError(f"field document key {key!r} must be "
                         f"{shape if depth else 'a number'}") from None


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

class FieldElement:
    """An element u (over Q) or u + v*sqrt(m), coordinates over the integral
    basis (1) or (1, sqrt(m))."""

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
        if self.nf.degree == 1:
            return FieldElement(self.nf, [self.coords[0] * other.coords[0]])
        (a, b), (c, d) = self.coords, other.coords
        return FieldElement(self.nf, [a * c + self.nf.m * b * d, a * d + b * c])

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

    def norm(self) -> Fraction:
        if self.nf.degree == 1:
            return self.coords[0]
        u, v = self.coords
        return u * u - self.nf.m * v * v

    def trace(self) -> Fraction:
        return self.nf.degree * self.coords[0]

    def inverse(self) -> "FieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("element is zero")
        if self.nf.degree == 1:
            return FieldElement(self.nf, [1 / n])
        u, v = self.coords
        return FieldElement(self.nf, [u / n, -v / n])

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldElement) and self.nf is other.nf
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((id(self.nf), self.coords))

    def __repr__(self) -> str:
        parts = [f"{c}*b{i}" for i, c in enumerate(self.coords) if c]
        return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# the field itself
# ---------------------------------------------------------------------------

class NumberFieldData:
    """Q or a real quadratic field Q(sqrt(m)), validated from its document.

    `m` is 0 over Q, so every element is u + v*sqrt(m) with v = 0 there.
    """

    def __init__(self, doc: dict):
        if not isinstance(doc, dict):
            raise ValueError(f"a field document is a JSON object, not {type(doc).__name__}")
        self.label: str = doc.get("label", "unnamed-field")
        min_poly = _exact(doc, "min_poly", 1)
        if not min_poly or min_poly[-1] != 1:
            raise ValueError("defining polynomial must be monic")
        if any(c.denominator != 1 for c in min_poly):
            raise ValueError("defining polynomial must have integer coefficients")
        self.degree: int = len(min_poly) - 1
        if self.degree < 1:
            raise ValueError("defining polynomial must be nonconstant")
        if self.degree > 2:
            raise ValueError(
                f"only Q and real quadratic fields x^2 - m are supported; "
                f"{self.label} has degree {self.degree}")
        self.m = 0
        if self.degree == 2:
            if min_poly[1] != 0:
                raise ValueError(
                    f"a quadratic field must be given by x^2 - m; {self.label} is not")
            self.m = int(-min_poly[0])
            if self.m < 0:
                raise ValueError(
                    f"only Q and real quadratic fields x^2 - m are supported; "
                    f"{self.label} has signature (0, 1)")
            if self.m == 0:
                raise ValueError("defining polynomial is not squarefree")
            # the exact sign tests need a + b*sqrt(m) = 0 only at a = b = 0
            if math.isqrt(self.m) ** 2 == self.m:
                raise ArithmeticError(f"sqrt({self.m}) is rational; bad field data")

        identity = [[int(i == j) for j in range(self.degree)] for i in range(self.degree)]
        if _exact(doc, "integral_basis", 2) != identity:
            raise ValueError("the integral basis must be (1) over Q or (1, sqrt(m))")
        square = next((q for q in range(2, math.isqrt(self.m) + 1) if self.m % (q * q) == 0), 0)
        if self.degree == 2 and (square or self.m % 4 == 1):
            why = f"{square}^2 divides {self.m}" if square else f"{self.m} is 1 mod 4"
            raise ValueError(f"(1, sqrt({self.m})) is not an integral basis, as {why}: "
                             f"it spans the order Z[sqrt({self.m})], not the ring of integers")
        mult_table = ([[[1]]] if self.degree == 1
                      else [[[1, 0], [0, 1]], [[0, 1], [self.m, 0]]])
        if doc.get("mult_table") is not None and _exact(doc, "mult_table", 3) != mult_table:
            raise ValueError("stored mult_table disagrees with the closed form")

        self.basis_elements = [FieldElement(self, row) for row in identity]
        self.one = self.basis_elements[0]
        self.zero = FieldElement(self, [0] * self.degree)
        # over Q the generator is the root a of x - a
        self.gen = self.basis_elements[1] if self.degree == 2 else self.element([-min_poly[0]])

        self.signature = (self.degree, 0)
        if "signature" in doc and tuple(_exact(doc, "signature", 1)) != self.signature:
            raise ValueError(f"stored signature disagrees with {self.signature}")

        self.discriminant = int(_exact(doc, "discriminant", 0))
        if self.discriminant != (1 if self.degree == 1 else 4 * self.m):
            raise ValueError("trace form determinant disagrees with the stored discriminant")

        self.class_number = int(_exact(doc, "class_number", 0, default=1))
        reps = _exact(doc, "class_reps", 3, default=[[["1"] + ["0"] * (self.degree - 1)]])
        for gen in (self.element(g) for rep in reps for g in rep):
            if gen.is_zero() or not gen.is_integral():
                raise ValueError(f"class representative generator {gen!r} is not "
                                 f"a nonzero integral element")
        if len(reps) != self.class_number:
            raise ValueError("number of class representatives disagrees with class_number")

        self.unit_gens: list[FieldElement] = [
            self.element(row) for row in _exact(doc, "unit_gens", 2)]
        for u in self.unit_gens:
            if not u.is_integral() or abs(u.norm()) != 1:
                raise ValueError(f"unit generator {u!r} does not have norm +-1")

        self.different_gen = self.element(_exact(doc, "different_gen", 1))
        if not self.different_gen.is_integral():
            raise ValueError("different generator must be integral")
        if abs(self.different_gen.norm()) != abs(self.discriminant):
            raise ValueError("different generator norm disagrees with the discriminant")

    # -- construction helpers ------------------------------------------------

    def element(self, coords: Sequence) -> FieldElement:
        return FieldElement(self, [_q(c) for c in coords])

    def element_from_int(self, n: int) -> FieldElement:
        return FieldElement(self, [n] + [0] * (self.degree - 1))

    # -- embeddings -----------------------------------------------------------

    def embed_element(self, x: FieldElement) -> tuple[float, ...]:
        """The real embeddings of x as floats: (u,) over Q, else the plus
        place first, (u + v*sqrt(m), u - v*sqrt(m))."""
        if self.degree == 1:
            return (float(x.coords[0]),)
        u, v = float(x.coords[0]), float(x.coords[1])
        root = math.sqrt(self.m)
        return (u + root * v, u - root * v)

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
    """Load and validate a field from a dict, a JSON path, or a builtin name.

    Only Q (x - a, basis (1)) and real quadratic fields (x^2 - m, m > 1
    squarefree and 2, 3 mod 4, basis (1, sqrt(m))) load; any other document
    raises ValueError, or ArithmeticError for a square m.
    """
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
