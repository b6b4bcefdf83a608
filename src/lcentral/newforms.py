"""Newform coefficient data: the builtin weight-12 form and document loading.

`newform_load` is the one place that knows which forms the engine serves:
parallel integer weight k over a field `fields.nf_load` admits (so every
place is real), level norm 1, trivial central character (the twist root
numbers of charsums hold for no other), and integer coefficients.  Anything
else is refused with ValueError before a coefficient is expanded.  Level 1
is a limit of the engine, not of the documents: its twist root numbers
leave out the factor chi(N) of a level-N form, and the prime-power
recursion below is the good-prime one, which fails at p | N.

A form carries arithmetically normalized coefficients indexed by ideal norm
(norms and ideals are in bijection for the shipped experiments) as one
read-only float64 table, each entry the correctly rounded float(a(n)); the
dual-side sign eta with a_dual(n) = eta * a(n), the coefficient-field depth
n0 steering Galois orbits, and a rational progress-toward-Ramanujan exponent
theta used both for admissible-window computation and for loader rejection
of out-of-bound coefficients.

Documents supply eigenvalues at primes only, under one spelling per key;
the full table is expanded along tau's divisor index through the recursion
a(p^(e+1)) = a(p) a(p^e) - p^(k-1) a(p^(e-1)) and multiplicativity, and
every derived coefficient is re-checked against |a(n)| <= 2 d(n) n^((k-1)/2
+ theta).  A document may instead carry a full coefficient table, in which
case the same two identities become consistency checks, so corrupting any
single entry is detected and reported by its ideal label.  Exact integers
live only while a document is checked; the form keeps their floats.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .abelian import factorize
from .fields import nf_load
from .tau import TAU_LIMIT_CAP, _DivisorIndex, primes_up_to, tau_table


@dataclass(frozen=True)
class NewformData:
    """A loaded form.  Frozen: its coefficient table is set once, when the
    form is built (`replace` makes a new form with another table).
    `_derived` holds what the sums derive from the table (afe's weighted
    arrays), so it is dropped with the form."""

    label: str
    field_label: str
    weight: int                       # the parallel weight k
    gamma_shifts: tuple[int, ...]     # shifts in the gamma factor, one per place
    level_norm: int
    eta: int                          # dual-side sign: a_dual = eta * a
    n0: int                           # p-power root depth of the coefficient field
    theta: Fraction
    # float(a(n)) at index n, correctly rounded, entry 0 = 0: read-only float64
    table: np.ndarray = field(repr=False)
    type_j: tuple[int, ...] = (0,)    # real places carrying the discrete-series twist
    full_table: bool = False          # a document's whole table: no reload lengthens it

    def __post_init__(self):
        object.__setattr__(self, "_derived", {})

    @property
    def limit(self) -> int:
        return self.table.shape[0] - 1

    def coefficient_array(self, limit: int | None = None) -> np.ndarray:
        """a[0..limit] with a[0] = 0, for vectorized sums: a view of the table."""
        limit = self.limit if limit is None else limit
        if limit > self.limit:
            raise IndexError(f"only {self.limit} coefficients loaded")
        return self.table[:limit + 1]


def ramanujan_violations(coefficients: list[int], k: int, theta: Fraction) -> list[int]:
    """Primes p in range whose exact coefficient a(p) = coefficients[p] breaks
    |a(p)| <= 2 p^((k-1)/2+theta), for weight k.

    The comparison is exact: with theta = u/v it is
    a(p)^(2v) <= 2^(2v) p^((k-1)v + 2u).
    """
    u, v = theta.numerator, theta.denominator
    return [p for p in primes_up_to(len(coefficients) - 1)
            if coefficients[p] ** (2 * v) > 4 ** v * p ** ((k - 1) * v + 2 * u)]


def _expand_from_primes(prime_a: dict[int, int], limit: int, k: int,
                        theta: Fraction) -> list[int]:
    """a(0..limit) from prime eigenvalues in exact ints, along
    `tau._DivisorIndex`: the Hecke recursion up each prime's chain of powers,
    then a(n) = a(P(n)) a(n / P(n)) over the other n, a block at a time.
    The first n that is a prime without an eigenvalue or breaks
    |a(n)| <= 2 d(n) n^((k-1)/2+theta) is named; below it no a(n) reads a
    missing eigenvalue, taken as 0."""
    u, v = theta.numerator, theta.denominator
    index = _DivisorIndex(limit)
    a = np.zeros(limit + 1, dtype=object)
    d = np.zeros(limit + 1, dtype=np.int64)  # divisor counts, for the bound
    lacking = np.zeros(limit + 1, dtype=bool)
    a[1] = d[1] = 1
    for e, (qe, prev, q) in enumerate(index.chains, 1):
        if e == 1:
            lacking[qe] = [p not in prime_a for p in qe.tolist()]
            a[qe] = [prime_a.get(p, 0) for p in qe.tolist()]
        else:
            a[qe] = a[q] * a[prev] - q.astype(object) ** (k - 1) * a[prev // q]
        d[qe] = e + 1
    for n, pn, rest in index.groups():
        a[n] = a[pn] * a[rest]
        d[n] = d[pn] * d[rest]
    bound = (2 * d).astype(object) ** (2 * v) * np.arange(limit + 1, dtype=object) ** (
        (k - 1) * v + 2 * u)
    faults = np.flatnonzero(lacking | (a ** (2 * v) > bound))
    if faults.size:
        n = int(faults[0])
        raise ValueError(f"missing eigenvalue at prime ideal ({n})" if lacking[n] else
                         f"coefficient at ideal ({n}) exceeds the Ramanujan bound")
    return a.tolist()


def _verify_full_table(a: list, k: int, theta: Fraction) -> None:
    """Check a full table against its expansion from its own prime entries,
    which holds it to the coefficient bound too.

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


def builtin_newform(name: str, limit: int = 1000, threads: int = 1) -> NewformData:
    if name not in ("delta", "weight12-level1"):
        raise ValueError(f"no builtin form named {name!r}")
    return NewformData(
        label="delta",
        field_label="rationals",
        weight=12,
        gamma_shifts=(0,),
        level_norm=1,
        eta=-1,
        n0=0,
        theta=Fraction(0),
        table=tau_table(limit, threads),
    )


def _parses(read):
    """A check that a value is a JSON number or string that `read` takes."""
    def check(value) -> bool:
        try:
            return type(value) in (int, float, str) and read(value)
        except (ValueError, OverflowError):
            return False
    return check


_is_integer = _parses(lambda v: int(v) == Fraction(str(v)))
_JSON_TYPES = {"a string": lambda v: isinstance(v, str),
               "an integer": _is_integer,
               "a fraction": _parses(lambda v: Fraction(str(v)) is not None),
               "an array of integers": lambda v: isinstance(v, list) and all(map(_is_integer, v)),
               "an array": lambda v: isinstance(v, list),
               "an object": lambda v: isinstance(v, dict)}
# every key a form document may carry, each in its one spelling (README,
# `--form`), with the JSON type of its value
_DOCUMENT_KEYS = {"label": "a string", "field_label": "a string",
                  "weight_vector": "an array of integers", "m_vector": "an array of integers",
                  "type_J": "an array of integers", "level_norm": "an integer",
                  "nebentypus": "a string", "n0": "an integer", "theta": "a fraction",
                  "atkin_lehner": "an integer", "prime_eigenvalues": "an object",
                  "coefficients": "an array"}


def _doc_get(doc: dict, name: str, default=None, required=False):
    if name not in doc:
        if required:
            raise ValueError(f"document is missing {name!r}")
        return default
    if not _JSON_TYPES[_DOCUMENT_KEYS[name]](doc[name]):
        raise ValueError(f"document key {name!r} must be {_DOCUMENT_KEYS[name]}")
    return doc[name]


def _parse_entry(value) -> int:
    """An eigenvalue or table entry: an integer (integral floats included)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int):
        raise ValueError(f"coefficient {value!r} is not an integer: the sums "
                         f"read integer eigenvalues only")
    return value


def newform_load(source, limit: int = 1000, threads: int = 1) -> NewformData:
    """Load a form from a builtin name, a JSON document path, or a dict.

    Document header: {label, field_label, weight_vector, m_vector, type_J,
    level_norm, nebentypus, n0, theta, atkin_lehner}; eigenvalue rows are a
    mapping {ideal_label: integer} under "prime_eigenvalues", indexed by norm
    for the shipped degree-one setting.  A precomputed table may be supplied
    under "coefficients" (a(1), a(2), ... by norm); it is verified entry by
    entry instead of expanded.  `threads` is the number of workers that
    build a builtin form's table (`tau.tau_table`).

    Refused with ValueError: a document that is not an object, a key
    outside `_DOCUMENT_KEYS` (named, so a misspelt key never falls back to a
    default) or holding another JSON type than that key's, a level_norm
    other than 1, a nebentypus other than "trivial", a non-integer
    eigenvalue or table entry (such as [re, im]), a weight_vector that is
    not one equal weight per real place of the field named by field_label,
    type_J indices outside those places, and a
    limit below 1 or past the builtin table's cap (documents too).
    """
    if limit < 1:
        raise ValueError(f"coefficient limit {limit} is below 1")
    if limit > TAU_LIMIT_CAP:
        raise ValueError(f"coefficient limit {limit} is past the coefficient cap "
                         f"{TAU_LIMIT_CAP} of a form's table")
    if isinstance(source, NewformData):
        return source
    if isinstance(source, str) and not Path(source).exists():
        return builtin_newform(source, limit, threads)
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            doc = json.load(fh)
    else:
        doc = source
    if not isinstance(doc, dict):
        raise ValueError(f"a form document is a JSON object, not {type(doc).__name__}")
    unknown = [key for key in doc if key not in _DOCUMENT_KEYS]
    if unknown:
        raise ValueError(f"document key {unknown[0]!r} is not one the loader reads")

    level_norm = int(_doc_get(doc, "level_norm", default=1))
    if level_norm != 1:
        raise ValueError(f"level_norm {level_norm} is not supported: the twist "
                         f"root numbers leave out chi(N), and the Hecke recursion "
                         f"at primes dividing N is the good-prime one")
    nebentypus = _doc_get(doc, "nebentypus", default="trivial")
    if nebentypus != "trivial":
        raise ValueError(f"nebentypus {nebentypus!r} is not supported: the twist "
                         f"root numbers hold for trivial central character only")
    field_label = _doc_get(doc, "field_label", default="rationals")
    places = nf_load(field_label).degree
    weights = [int(w) for w in _doc_get(doc, "weight_vector", required=True)]
    if len(weights) != places or len(set(weights)) != 1:
        raise ValueError(f"weight_vector {weights} is not one parallel weight per "
                         f"real place of {field_label} ({places})")
    type_j = tuple(int(j) for j in _doc_get(doc, "type_J", default=[0]))
    if not set(type_j) <= set(range(places)):
        raise ValueError(f"type_J {list(type_j)} must index real places "
                         f"0..{places - 1} of {field_label}")
    gamma_shifts = tuple(int(m) for m in _doc_get(doc, "m_vector", default=[0] * places))
    eta = int(_doc_get(doc, "atkin_lehner", required=True))
    n0 = int(_doc_get(doc, "n0", default=0))
    theta = Fraction(str(_doc_get(doc, "theta", default=0)))
    if eta not in (-1, 1):
        raise ValueError("atkin_lehner sign must be +1 or -1")
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    if not 0 <= theta < Fraction(1, 2):
        raise ValueError("theta must lie in [0, 1/2)")
    k = weights[0]

    coefficients = _doc_get(doc, "coefficients")
    if coefficients is not None:
        table = [0] + [_parse_entry(c) for c in coefficients]
        _verify_full_table(table, k, theta)
    else:
        rows = _doc_get(doc, "prime_eigenvalues", required=True)
        prime_a = {}
        for key, value in rows.items():
            norm = int(str(key).strip("()"))
            prime_a[norm] = _parse_entry(value)
        table = _expand_from_primes(prime_a, limit, k, theta)
    bad = ramanujan_violations(table, k, theta)
    if bad:
        raise ValueError(f"coefficients at primes {bad[:5]} exceed the Ramanujan bound")
    table = np.array(table, dtype=np.float64)   # each entry the rounded float(a(n))
    table.setflags(write=False)
    return NewformData(label=_doc_get(doc, "label", default="unnamed-form"),
                       field_label=field_label, weight=k, gamma_shifts=gamma_shifts,
                       level_norm=level_norm, eta=eta, n0=n0, theta=theta, table=table,
                       type_j=type_j, full_table=coefficients is not None)
