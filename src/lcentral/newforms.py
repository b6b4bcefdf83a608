"""Newform coefficient data: the builtin weight-12 form and document loading.

A form carries arithmetically normalized coefficients indexed by ideal norm
(norms and ideals are in bijection for the shipped experiments), the
dual-side sign eta with a_dual(n) = eta * a(n), the coefficient-field depth
n0 steering Galois orbits, and a rational progress-toward-Ramanujan exponent
theta used both for admissible-window computation and for loader rejection
of out-of-bound coefficients.

Documents supply eigenvalues at primes only; the full table is expanded
through multiplicativity and the prime-power recursion
a(p^(e+1)) = a(p) a(p^e) - p^(k-1) a(p^(e-1)) (trivial nebentypus), and
every derived coefficient is re-checked against |a(n)| <= 2 d(n) n^((k-1)/2
+ theta).  A document may instead carry a full coefficient table, in which
case the same two identities become consistency checks, so corrupting any
single entry is detected and reported by its ideal label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .abelian import factorize, p_adic_split
from .tau import primes_up_to, smallest_prime_factors, tau_table


@dataclass(frozen=True)
class NewformData:
    """A loaded form.  Frozen: the coefficient table is set once, with its
    float copy, when the form is built (`replace` makes a new form with
    another table).  `_derived` holds what the sums derive from the table
    (afe's weighted arrays), so it is dropped with the form."""

    label: str
    field_label: str
    weight: tuple[int, ...]           # one entry per archimedean place
    gamma_shifts: tuple[int, ...]     # matching shifts in the gamma factor
    level_norm: int
    nebentypus: str
    eta: int                          # dual-side sign: a_dual = eta * a
    n0: int                           # p-power root depth of the coefficient field
    theta: Fraction
    coefficients: list = field(repr=False)
    type_j: tuple[int, ...] = (0,)    # real places carrying the discrete-series twist

    def __post_init__(self):
        object.__setattr__(self, "_floats", _float_copy(self.coefficients))
        object.__setattr__(self, "_derived", {})

    @property
    def scalar_weight(self) -> int:
        if len(set(self.weight)) != 1:
            raise ValueError("no single weight for a non-parallel form")
        return self.weight[0]

    @property
    def limit(self) -> int:
        return len(self.coefficients) - 1

    def coeff_of_norm(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"coefficient {n} outside the loaded range (<= {self.limit})")
        return self.coefficients[n]

    def coeff(self, ideal_or_norm):
        if isinstance(ideal_or_norm, (int, Fraction)):
            n = ideal_or_norm
        else:
            n = ideal_or_norm.norm
            n = n() if callable(n) else n
        if isinstance(n, Fraction):
            if n.denominator != 1:
                return 0  # non-integral argument carries no Fourier coefficient
            n = n.numerator
        return self.coeff_of_norm(n)

    def coefficient_array(self, limit: int | None = None) -> np.ndarray:
        """a[0..limit] with a[0] = 0, for vectorized sums: a read-only view
        of the float copy made when the table was set."""
        limit = self.limit if limit is None else limit
        if limit > self.limit:
            raise IndexError(f"only {self.limit} coefficients loaded")
        return self._floats[:limit + 1]


def _float_copy(coefficients: list) -> np.ndarray:
    """The table as one read-only float64 array (complex128 if an entry is
    complex, which float64 conversion refuses with TypeError); each entry is
    the correctly rounded float(c)."""
    try:
        arr = np.array(coefficients, dtype=np.float64)
    except TypeError:
        arr = np.array([complex(c) for c in coefficients], dtype=np.complex128)
    arr.setflags(write=False)
    return arr


def ramanujan_violations(form: NewformData, degree: int = 1) -> list[int]:
    """Primes p in range whose coefficient breaks |a(p)| <= 2 d p^((k-1)/2+theta).

    The comparison is exact for integer coefficients: with theta = u/v it is
    a(p)^(2v) <= (2d)^(2v) p^((k-1)v + 2u).
    """
    k = form.scalar_weight
    u, v = form.theta.numerator, form.theta.denominator
    bad = []
    for p in primes_up_to(form.limit):
        a = form.coeff_of_norm(p)
        if _bound_broken(a, 2 * degree, p, k, u, v):
            bad.append(p)
    return bad


def _bound_broken(a, factor: int, n: int, k: int, u: int, v: int) -> bool:
    if isinstance(a, int):
        return a ** (2 * v) > factor ** (2 * v) * n ** ((k - 1) * v + 2 * u)
    return abs(a) > (1 + 1e-12) * factor * n ** ((k - 1) / 2 + u / v)


def _expand_from_primes(prime_a: dict[int, object], limit: int, k: int,
                        theta: Fraction) -> list:
    """Fill a(1..limit) from prime eigenvalues; check bounds along the way."""
    u, v = theta.numerator, theta.denominator
    spf = smallest_prime_factors(limit)
    a: list = [0] * (limit + 1)
    d: list = [0] * (limit + 1)  # divisor counts, for the derived-coefficient bound
    a[1], d[1] = 1, 1
    for n in range(2, limit + 1):
        p = int(spf[n])
        m, e = p_adic_split(n, p)
        if m > 1:
            a[n] = a[n // m] * a[m]
            d[n] = d[n // m] * d[m]
        elif e == 1:
            if p not in prime_a:
                raise ValueError(f"missing eigenvalue at prime ideal ({p})")
            a[n] = prime_a[p]
            d[n] = 2
        else:
            a[n] = a[p] * a[n // p] - p ** (k - 1) * a[n // (p * p)]
            d[n] = e + 1
        if _bound_broken(a[n], 2 * d[n], n, k, u, v):
            raise ValueError(f"coefficient at ideal ({n}) exceeds the Ramanujan bound")
    return a


def _verify_full_table(a: list, k: int, theta: Fraction) -> None:
    """Check a full table against its expansion from its own prime entries.

    The first index that differs names the identity it breaks: the Hecke
    recursion at a prime power, multiplicativity anywhere else.
    """
    limit = len(a) - 1
    if limit < 1 or a[1] != 1:
        raise ValueError("coefficient table must start with a(1) = 1")
    expanded = _expand_from_primes({p: a[p] for p in primes_up_to(limit)}, limit, k, theta)
    n = next((n for n in range(2, limit + 1) if a[n] != expanded[n]), None)
    if n is None:
        return
    if len(factorize(n)) == 1:
        raise ValueError(f"table breaks the Hecke recursion at ideal ({n})")
    raise ValueError(f"table is not multiplicative at ideal ({n})")


def builtin_newform(name: str, limit: int = 1000) -> NewformData:
    if name not in ("delta", "weight12-level1"):
        raise ValueError(f"no builtin form named {name!r}")
    return NewformData(
        label="delta",
        field_label="rationals",
        weight=(12,),
        gamma_shifts=(0,),
        level_norm=1,
        nebentypus="trivial",
        eta=-1,
        n0=0,
        theta=Fraction(0),
        coefficients=tau_table(limit),
    )


def _doc_get(doc: dict, *names, default=None, required=False):
    for name in names:
        if name in doc:
            return doc[name]
    if required:
        raise ValueError(f"document is missing {names[0]!r}")
    return default


def _parse_entry(value):
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        if value != int(value):
            raise ValueError("non-integer real eigenvalues must be given as [re, im]")
        return int(value)
    re, im = float(value[0]), float(value[1])
    if im == 0 and re == int(re):
        return int(re)
    return complex(re, im)


def newform_load(source, limit: int = 1000, degree: int = 1) -> NewformData:
    """Load a form from a builtin name, a JSON document path, or a dict.

    Document header: {label, field_label, weight_vector, m_vector, type_J,
    level_norm, nebentypus, n0, theta, atkin_lehner}; eigenvalue rows are a
    mapping {ideal_label: value or [re, im]} under "prime_eigenvalues",
    indexed by norm for the shipped degree-one setting.  A precomputed table
    may be supplied under "coefficients" (a(1), a(2), ... by norm); it is
    verified entry by entry instead of expanded.
    """
    if isinstance(source, NewformData):
        return source
    if isinstance(source, str) and not Path(source).exists():
        return builtin_newform(source, limit)
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source

    weight = tuple(int(w) for w in _doc_get(doc, "weight_vector", "weight", required=True))
    form = NewformData(
        label=doc.get("label", "unnamed-form"),
        field_label=_doc_get(doc, "field_label", "field", default="rationals"),
        weight=weight,
        gamma_shifts=tuple(int(m) for m in _doc_get(doc, "m_vector", "gamma_shifts",
                                                    default=[0] * len(weight))),
        level_norm=int(_doc_get(doc, "level_norm", default=1)),
        nebentypus=_doc_get(doc, "nebentypus", default="trivial"),
        eta=int(_doc_get(doc, "atkin_lehner", "eta", required=True)),
        n0=int(_doc_get(doc, "n0", default=0)),
        theta=Fraction(str(_doc_get(doc, "theta", default=0))),
        coefficients=[0, 1],
        type_j=tuple(int(j) for j in _doc_get(doc, "type_J", "type_j", default=[0])),
    )
    if form.eta not in (-1, 1):
        raise ValueError("atkin_lehner sign must be +1 or -1")
    if not 0 <= form.theta < Fraction(1, 2):
        raise ValueError("theta must lie in [0, 1/2)")
    k = form.scalar_weight

    if "coefficients" in doc:
        table = [0] + [_parse_entry(c) for c in doc["coefficients"]]
        _verify_full_table(table, k, form.theta)
    else:
        rows = _doc_get(doc, "prime_eigenvalues", required=True)
        prime_a = {}
        for key, value in rows.items():
            norm = int(str(key).strip("()"))
            prime_a[norm] = _parse_entry(value)
        table = _expand_from_primes(prime_a, limit, k, form.theta)
    form = replace(form, coefficients=table)

    bad = ramanujan_violations(form, degree)
    if bad:
        raise ValueError(f"coefficients at primes {bad[:5]} exceed the Ramanujan bound")
    return form
