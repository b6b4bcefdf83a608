"""A fundamental window for the units, and lattice counting in
multiplicative progressions.

Counting field elements beta in a coset alpha(1 + P^n) with |N(beta)| <= x
only makes sense once a single representative is fixed in every unit orbit,
so everything here is built around a concrete fundamental domain for the
unit action on the Minkowski space: over Q the positive axis, over a real
quadratic field the half-open slope window cut out by the fundamental unit
(first embedding positive, slope parameter in [0, 1)).  Floating point only
sizes the enumeration box; membership on the window boundary is decided by
exact integer sign tests, so counts are reproducible and the brute-force
oracle with enlarged boxes must agree bit for bit.  The translation lattice
alpha*P^n is the principal ideal (alpha*pi^n), whose Hermite normal form
has a closed form (`_principal_rows`).

Each job is done once for both degrees: one exact sign test and one window
predicate (elementwise over numpy arrays: int64 for enumerations, object
arrays of exact coordinates for single elements), and one coset enumeration
in which Q is the one-row case.  Every window edge is one rule, `_below`:
tau < j/2 exactly when (eps^j xbar - x)(eps^j xbar + x) > 0 at the plus
place, and a window [lo/2, hi/2) is not below lo and below hi.  The least
norms per ray class come from one scan that asks the prime
(`PrimeContext.residues`) for every point's residue and the ray class group
(`RayClassGroup.classes`) for their classes at once.  Q is the case m = 0,
v = 0 of u + v*sqrt(m) (`_uv` pads, `_point` drops the pad).  The degree is
read only where Q differs in substance: the window (u > 0), the
progression's lattice (one row), the enumeration box (an interval,
|N| = |u|) and a torsion class's least norm (its least residue lift).

The field loader admits only Q and real quadratic fields x^2 - m on the
basis (1, sqrt(m)) with m not a square, so m is read off the field
(`nf.m`) and the sign test never meets a + b*sqrt(m) = 0 off the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fields import FieldElement, NumberFieldData, nf_load
from .rayclass import PrimeContext, RayClassGroup, rcg_build, require_odd_prime

# Enumeration boxes beyond this many candidate points are refused: the
# counters are desk-scale tools, not analytic machinery.
BOX_CANDIDATE_CAP = 10_000_000
# A box is filtered in slabs of about this many candidate points, so that a
# slab's int64 temporaries are reused rather than mapped afresh: the 5.9M
# points of Q(sqrt 2), p = 7, n = 1, x = 6e5 took 0.2-0.25 s on a 2-core Xeon,
# against 1.4-1.6 s as one slab (2^13 to 2^16 measure within noise).
SLAB_CANDIDATES = 1 << 16

WITNESS_LIMIT = 24
# torsion_norm_bound passes when every class's least norm is this share of
# N(P)^(n/|Delta|) or more
TORSION_FLOOR_RATIO = 0.5

# each window's slope edges [lo/2, hi/2); eps^(hi/2) also sizes its box
_WINDOWS = {"standard": (0, 2), "shifted": (1, 3)}


def _sign_plus_arrays(p, q, m: int):
    """Exact sign of p + q*sqrt(m), elementwise, for nonsquare m > 0 (any m
    where q = 0) and arrays of int64, or of objects holding ints and
    Fractions."""
    s = np.sign(q)
    rational_dominates = p * p > m * q * q
    s = np.where(rational_dominates, np.sign(p), s)
    return np.where((p == 0) & (q == 0), 0, s)


def _uv(coords):
    """(u, v) of u + v*sqrt(m) from an element's coordinates; v = 0 over Q."""
    return (*coords, 0)[:2]


def _point(nf: NumberFieldData, u, v) -> FieldElement:
    """The element with coordinates (u, v); v = 0 is dropped over Q."""
    return nf.element([int(u), int(v)][:nf.degree])


def _coord_arrays(x: FieldElement):
    """x's (u, v) as one-entry object arrays: the array predicates stay
    exact for Fractions and past the int64 range."""
    u, v = _uv(x.coords)
    return np.array([u], dtype=object), np.array([v], dtype=object)


@lru_cache(maxsize=8)
def fundamental_unit(nf: NumberFieldData) -> FieldElement:
    """The fundamental unit eps of a real quadratic field F = Q(sqrt(m)),
    normalised to sigma_plus(eps) > 1, where sigma_plus is the embedding
    sending sqrt(m) to the positive root.

    The window's representative of x is the unique associate y = u*x
    (u a unit) with sigma_plus(y) > 0 and slope

        tau(y) = (log sigma_plus(y) - log |sigma_minus(y)|) / (2 log sigma_plus(eps))

    in [0, 1).  Multiplication by eps shifts tau by exactly 1 whichever sign
    the unit norm takes, so the window is a fundamental domain for the full
    unit group acting on the half-plane sigma_plus > 0.  Over Q the
    representative of x is |x|, and asking for eps raises ValueError.
    """
    # the infinite-order generator (torsion generators square to 1)
    eps = next((u for u in nf.unit_gens if u * u != nf.one), None)
    if eps is None:
        raise ValueError(f"no infinite-order unit generator found for {nf.label}")
    for cand in (eps, -eps, eps.inverse(), (-eps).inverse()):
        if sign_plus(cand) > 0 and sign_plus(cand - nf.one) > 0:
            return cand
    raise ArithmeticError("could not normalise the fundamental unit")


@lru_cache(maxsize=32)
def _unit_power_coords(nf: NumberFieldData, j: int) -> tuple[int, ...]:
    """eps^j's integer coordinates, held per field and window edge j = 0..3."""
    return tuple(int(c) for c in (fundamental_unit(nf) ** j).coords)


def sign_plus(x: FieldElement) -> int:
    """Exact sign of x at the plus place."""
    return int(_sign_plus_arrays(*_coord_arrays(x), x.nf.m)[0])


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------

def prime_above(nf, p: int) -> PrimeContext:
    """A degree-one prime context above p, chosen deterministically.

    Over Q the prime is (p).  Over a real quadratic field the generator is
    the solution a + b*sqrt(m) of |a^2 - m b^2| = p, positive at the plus
    place, with the smallest |b|, then the smallest |a| (remaining ties
    broken toward positive signs), so the same ideal comes back on every
    call.  Raises if p is not an odd prime, or is inert (no degree-one
    prime exists).
    """
    nf = nf_load(nf)
    require_odd_prime(p)
    if nf.degree == 1:
        return PrimeContext(nf, p, nf.element_from_int(p))
    m = nf.m
    # the key sorts by |b| first, so the first b with a solution decides;
    # a and b stay in [0, p], which ends the scan for an inert p
    for b in range(p + 1):
        best = None
        for t in (m * b * b + p, m * b * b - p):
            a = math.isqrt(max(t, 0))
            if a > p or a * a != t:
                continue
            for u, v in ((a, b), (a, -b), (-a, b), (-a, -b)):
                cand = nf.element([u, v])
                key = (abs(v), abs(u), v < 0, u < 0)
                if sign_plus(cand) > 0 and (best is None or key < best[0]):
                    best = (key, cand)
        if best is not None:
            return PrimeContext(nf, p, best[1])
    raise ValueError(f"{p} has no degree-one prime in {nf.label} (inert)")


@dataclass(frozen=True)
class ProgressionCount:
    """Exact count of the coset alpha(1 + P^n) inside the fundamental
    window with |N(beta)| <= x.  modulus is the generator alpha * pi^n of
    the ideal whose translates were enumerated."""

    alpha: FieldElement
    modulus: FieldElement
    n: int
    x: float
    count: int
    window: str
    witnesses: tuple | None = None


def _coerce_alpha(nf: NumberFieldData, alpha) -> FieldElement:
    if alpha is None:
        return nf.one
    if isinstance(alpha, int):
        return nf.element_from_int(alpha)
    if isinstance(alpha, FieldElement):
        return alpha
    return nf.element(alpha)


def _principal_rows(gamma: FieldElement) -> list[list[int]]:
    """Hermite normal form rows of the lattice gamma*O, gamma integral and
    nonzero: upper triangular, positive diagonal, entries above it reduced.

    Over Q it is [[|a|]].  For gamma = a + b*sqrt(m), gamma*O is spanned by
    (a, b) and gamma*sqrt(m) = (m*b, a).  With g = gcd(a, m*b) = s*a + t*m*b
    and d = |a^2 - m*b^2| / g, the rows are [[g, (s*b + t*a) mod d], [0, d]].
    """
    a, b = (int(c) for c in _uv(gamma.coords))
    if gamma.nf.degree == 1:
        return [[abs(a)]]
    mb = gamma.nf.m * b
    g = math.gcd(a, mb)
    x, y = a // g, mb // g
    # s*x + t*y = 1; when y = 0, x = +-1 is its own inverse
    s = pow(x, -1, abs(y)) if y else x
    t = (1 - s * x) // y if y else 0
    d = abs(a * a - mb * b) // g
    return [[g, (s * b + t * a) % d], [0, d]]


def _index_ranges(offset_embed, bound, embeds):
    """Integer ranges (i, j) whose lattice points can reach the embedding box."""
    m11, m12 = embeds[0][0], embeds[1][0]
    m21, m22 = embeds[0][1], embeds[1][1]
    det = m11 * m22 - m12 * m21
    # the box corners (c1, c2), c1 in {0, bound} and c2 in {-bound, bound}
    t1 = np.array([0.0, 0.0, bound, bound]) - offset_embed[0]
    t2 = np.array([-bound, bound, -bound, bound]) - offset_embed[1]
    i = (m22 / det) * t1 + (-m12 / det) * t2
    j = (-m21 / det) * t1 + (m11 / det) * t2
    pad = 2
    return (math.floor(i.min()) - pad, math.ceil(i.max()) + pad,
            math.floor(j.min()) - pad, math.ceil(j.max()) + pad)


def _below(u, v, nf: NumberFieldData, j: int):
    """Exact tau(x) < j/2, elementwise, for x = u + v*sqrt(m) (tau as in
    `fundamental_unit`): sigma_plus(x)^2 < sigma_plus(eps^j xbar)^2 factors
    into (eps^j xbar - x)(eps^j xbar + x) > 0 at the plus place, two exact
    sign tests and never a logarithm.  At j = 0 it is u*v < 0."""
    e0, e1 = _unit_power_coords(nf, j)
    # eps^j * conj(x) has coordinates (e0*u - m*e1*v, e1*u - e0*v)
    p_bar, q_bar = e0 * u - nf.m * e1 * v, e1 * u - e0 * v
    return (_sign_plus_arrays(p_bar - u, q_bar - v, nf.m)
            * _sign_plus_arrays(p_bar + u, q_bar + v, nf.m) > 0)


def _window_mask(u, v, nf: NumberFieldData, window: str):
    """Exact membership of u + v*sqrt(m) in the chosen window, elementwise.

    "standard" is tau in [0, 1); "shifted" moves the origin to tau in
    [1/2, 3/2) and exists so counting can be redone with a different
    half-open convention.  Over Q both windows are the positive axis u > 0
    (v = 0).
    """
    if nf.degree == 1:
        return u > 0
    lo, hi = _WINDOWS[window]
    return ((_sign_plus_arrays(u, v, nf.m) > 0) & ~_below(u, v, nf, lo)
            & _below(u, v, nf, hi))


def _enumerate_coset(ctx: PrimeContext, lattice_rows, offset, x: float,
                     window: str, box_factor: float):
    """Integer coordinate arrays (u, v, |N|) of coset points passing every
    exact filter: window membership and |N| <= x.  lattice_rows spans the
    translation lattice; offset is the coset representative.  Over Q the
    lattice is one row, so the points are u = offset + i step with
    0 < u <= x box_factor in increasing order, v is a zero-stride view of
    0 and |N| is u itself; the |N| <= x filter runs only when box_factor > 1.

    Over Q(sqrt m) the outer index range is filtered in consecutive slabs of
    about `SLAB_CANDIDATES` points, joined in index order: the arrays are
    those one slab over the whole box would give.  The window test, the
    costly filter, sees only the points that pass |N| <= x.
    """
    nf = ctx.nf
    off = tuple(int(c) for c in _uv(offset.coords))
    if nf.degree == 1:
        # the multiples u = offset + i*step in (0, x*box_factor]
        step, a = int(lattice_rows[0][0]), off[0]
        top = math.floor(x * box_factor)
        lo_i, hi_i = -a // step, (top - a) // step
        lo_j = hi_j = 0
    else:
        eps1 = nf.embed_element(fundamental_unit(nf))[0]
        bound = math.sqrt(x) * eps1 ** (_WINDOWS[window][1] / 2.0) * box_factor + 1e-9
        r1, r2 = ((int(r[0]), int(r[1])) for r in lattice_rows)
        embeds = [nf.embed_element(nf.element(r)) for r in (r1, r2)]
        lo_i, hi_i, lo_j, hi_j = _index_ranges(nf.embed_element(offset), bound, embeds)
    total = (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    if total > BOX_CANDIDATE_CAP:
        raise ValueError(
            f"enumeration box needs {total} candidate points; the desk-scale "
            f"cap is {BOX_CANDIDATE_CAP} (shrink x)")
    xi = math.floor(x)
    if nf.degree == 1:
        u = np.arange(a + (lo_i + 1) * step, top + 1, step, dtype=np.int64)
        if box_factor > 1:
            u = u[u <= xi]
        return u, np.broadcast_to(np.int64(0), u.shape), u

    def slab(a, b):
        ii, jj = np.meshgrid(np.arange(a, b + 1, dtype=np.int64),
                             np.arange(lo_j, hi_j + 1, dtype=np.int64),
                             indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        u = off[0] + ii * r1[0] + jj * r2[0]
        v = off[1] + ii * r1[1] + jj * r2[1]
        norm = np.abs(u * u - nf.m * v * v)
        keep = ((u != 0) | (v != 0)) & (norm <= xi)
        u, v, norm = u[keep], v[keep], norm[keep]
        keep = _window_mask(u, v, nf, window)
        return u[keep], v[keep], norm[keep]

    rows = max(1, SLAB_CANDIDATES // (hi_j - lo_j + 1))
    pieces = [slab(a, min(a + rows - 1, hi_i)) for a in range(lo_i, hi_i + 1, rows)]
    return tuple(np.concatenate(column) for column in zip(*pieces))


def count_progression(alpha, prime: PrimeContext, n: int, x: float, *,
                      witnesses: bool = False, window: str = "standard",
                      box_factor: float = 1.0) -> ProgressionCount:
    """Exact |N| <= x count of the progression alpha(1 + P^n) in the
    fundamental window.

    box_factor inflates the enumeration box without touching the exact
    filters; any value >= 1 must return the same count, which is how the
    oracle cross-checks that no boundary point is missed.
    """
    if window not in _WINDOWS:
        raise ValueError(f"unknown window {window!r}")
    if n < 1:
        raise ValueError("need n >= 1")
    if x < 1:
        raise ValueError("need x >= 1 (the counts start at the unit point)")
    if not isinstance(prime, PrimeContext):
        raise TypeError("prime must be the PrimeContext from prime_above(), "
                        "not a bare ideal")
    ctx = prime
    ctx.check_level(n)
    nf = ctx.nf
    alpha = _coerce_alpha(nf, alpha)
    if not alpha.is_integral():
        raise ValueError("alpha must be integral")
    if ctx.residue(alpha, 1) % ctx.p == 0:
        raise ValueError(f"alpha must be coprime to the prime above {ctx.p}")
    gamma = alpha * ctx.pi ** n

    u, v, norm = _enumerate_coset(ctx, _principal_rows(gamma), alpha, x, window,
                                  box_factor)
    wit = None
    if witnesses:
        order = np.lexsort((v, u, norm))[:WITNESS_LIMIT]
        wit = tuple(_point(nf, u[k], v[k]) for k in order)
    return ProgressionCount(alpha, gamma, n, x, int(u.size), window, wit)


# ---------------------------------------------------------------------------
# norm minima and bound reports
# ---------------------------------------------------------------------------

def _least_norms(rcg: RayClassGroup, classes, x: float, rounds: int,
                 min_norm: int = 1) -> dict:
    """Least (|N|, u, v) in each wanted ray class over the standard-window
    points u + v*sqrt(m) of O with |N| >= min_norm and prime to p.

    x doubles from the given start for at most `rounds` enumerations.  The
    class of a point is the group's class of its residue mod (pi)^n, which
    the prime's context reduces for all points at once.
    """
    nf = rcg.nf
    identity_rows = np.eye(nf.degree, dtype=np.int64)
    for _ in range(rounds):
        u, v, norm = _enumerate_coset(rcg.ctx, identity_rows, nf.zero, x,
                                      "standard", 1.0)
        keep = (norm >= min_norm) & (norm % rcg.p != 0)
        u, v, norm = u[keep], v[keep], norm[keep]
        order = np.lexsort((v, u, norm))
        cls = rcg.classes(rcg.ctx.residues(u, v, rcg.n))
        found, first = np.unique(cls[order], return_index=True)
        hits = dict(zip(found.tolist(), order[first].tolist()))
        if all(c in hits for c in classes):
            return {c: (int(norm[hits[c]]), int(u[hits[c]]), int(v[hits[c]]))
                    for c in classes}
        x *= 2
    raise ArithmeticError("ray classes not all represented within the search budget")


def min_norm_coset(prime: PrimeContext, n: int) -> int:
    """min |N(beta)| over beta in (1 + P^n) excluding the unit orbit of 1.

    Units congruent to 1 mod P^n (over Q(sqrt(2)) e.g. the cube of the
    totally positive fundamental unit mod P) would make the raw minimum 1,
    so the scan drops |N| = 1 and takes the smallest surviving norm.  The
    search runs over window representatives whose ray class mod P^n is
    trivial (a unit residue), which hits exactly the unit orbits meeting the
    coset.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rcg = rcg_build(prime, n)  # refuses levels past the residue cap
    return _least_norms(rcg, (0,), float(prime.modulus(n)), 12, min_norm=2)[0][0]


@dataclass(frozen=True)
class CountBoundReport:
    field_label: str
    p: int
    rows: tuple            # (n, x, count, bound, ratio)
    row_sups: tuple        # sup of ratio per n
    sup_ratio: float


def verify_count_bound(prime: PrimeContext, n_list, x_list) -> CountBoundReport:
    """Measure U_{1,n}(x) / max(x / N(P)^n, 1) over a grid.

    The counting estimate says the ratio is bounded by a constant of the
    field alone; here the per-n sups must agree within a factor of 2
    across the grid, otherwise something is off and we raise.
    """
    ctx = prime
    rows = []
    row_sups = []
    for n in n_list:
        sup_n = 0.0
        for x in x_list:
            pc = count_progression(None, ctx, n, x)
            bound = max(x / float(ctx.p) ** n, 1.0)
            ratio = pc.count / bound
            rows.append((n, x, pc.count, bound, ratio))
            sup_n = max(sup_n, ratio)
        row_sups.append(sup_n)
    sup_ratio = max(row_sups)
    if sup_ratio > 2.0 * min(row_sups):
        raise ArithmeticError(
            f"count-bound constant drifts across n: per-n sups {row_sups}")
    return CountBoundReport(ctx.nf.label, ctx.p, tuple(rows), tuple(row_sups),
                            sup_ratio)


@dataclass(frozen=True)
class TorsionNormReport:
    field_label: str
    p: int
    n: int
    delta_order: int
    rows: tuple            # (min_residue, norm, ratio) per nontrivial class
    constant: float | None     # None when rows == (): a vacuous pass
    passed: bool


def torsion_norm_bound(rcg: RayClassGroup) -> TorsionNormReport:
    """Minimal-norm integral representatives of the prime-to-p torsion classes.

    For each nontrivial class b of the prime-to-p part of the ray class
    group, finds the smallest |N| of an integral ideal in b and compares
    it against N(P)^(n/|Delta|), n the group's level.  Trivial torsion gives
    a vacuous pass.
    """
    n = rcg.n
    delta_order = rcg.delta_order
    nontrivial = rcg.torsion_classes()[1:]
    if not nontrivial:
        return TorsionNormReport(rcg.nf.label, rcg.p, n, delta_order, (), None, True)
    scale = float(rcg.ctx.p) ** (n / delta_order)

    # over Q the least lift r > 0 is the least norm of its class; it can reach
    # p^n / 2, past any doubling budget from N(P)^(n/|Delta|)
    lifts = [rcg.min_residue_of_class(b) for b in nontrivial]
    norms = lifts
    if rcg.nf.degree == 2:
        least = _least_norms(rcg, nontrivial, max(scale, 4.0), 14)
        norms = [least[b][0] for b in nontrivial]
    rows = [(r, nv, nv / scale) for r, nv in zip(lifts, norms)]

    constant = min(row[2] for row in rows)
    passed = constant >= TORSION_FLOOR_RATIO
    return TorsionNormReport(rcg.nf.label, rcg.p, n, delta_order, tuple(rows),
                             constant, passed)
