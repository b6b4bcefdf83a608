"""Unit-orbit reduction and lattice counting in multiplicative progressions.

Counting field elements beta in a coset alpha(1 + P^n) with |N(beta)| <= x
only makes sense once a single representative is fixed in every unit orbit,
so everything here is built around a concrete fundamental domain for the
unit action on the Minkowski space: over Q the positive axis, over a real
quadratic field the half-open slope window cut out by the fundamental unit
(first embedding positive, slope parameter in [0, 1)).  Floating point only
seeds the reduction; membership on the window boundary is decided by exact
integer sign tests, so counts are reproducible and the brute-force oracle
with enlarged boxes must agree bit for bit.

Shipped fields are Q and Q(sqrt(2)); anything of degree > 2 or with a
complex place is rejected up front.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import FieldElement, IntegralIdeal, NumberFieldData, nf_load
from .rayclass import PrimeContext, RayClassGroup

# Enumeration boxes beyond this many candidate points are refused: the
# counters are desk-scale tools, not analytic machinery.
BOX_CANDIDATE_CAP = 10_000_000

WITNESS_LIMIT = 24

_WINDOWS = ("standard", "shifted")


def _sign_plus(a: Fraction, b: Fraction, m: int) -> int:
    """Exact sign of a + b*sqrt(m) for rational a, b and nonsquare m > 0."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    lhs, rhs = a * a, m * b * b
    if lhs == rhs:
        # would force sqrt(m) rational
        raise ArithmeticError(f"sqrt({m}) behaves rationally; bad field data")
    if lhs > rhs:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


def _sign_plus_arrays(p, q, m: int):
    """Vectorised _sign_plus for integer arrays (p + q*sqrt(m))."""
    s = np.sign(q)
    rational_dominates = p * p > m * q * q
    s = np.where(rational_dominates, np.sign(p), s)
    return np.where((p == 0) & (q == 0), 0, s)


class DomainReducer:
    """Canonical unit-orbit representatives, decided exactly.

    Over Q the representative of x is |x|.  Over a real quadratic field
    F = Q(sqrt(m)) the representative is the unique associate y = u*x
    (u a unit) with sigma_plus(y) > 0 and slope

        tau(y) = (log sigma_plus(y) - log |sigma_minus(y)|) / (2 log sigma_plus(eps))

    in [0, 1), where eps is the fundamental unit normalised to
    sigma_plus(eps) > 1 and sigma_plus is the embedding sending sqrt(m) to
    the positive root.  Multiplication by eps shifts tau by exactly 1
    wheither sign the unit norm takes, so the window is a fundamental
    domain for the full unit group acting on the half-plane
    sigma_plus > 0.  Window membership never trusts the logarithms: the
    two slope inequalities factor into linear forms whose signs are
    integer comparisons.
    """

    def __init__(self, nf):
        nf = nf_load(nf)
        self.nf = nf
        self.degree = nf.degree
        if nf.degree == 1:
            self.m = None
            return
        if nf.degree != 2 or nf.signature != (2, 0):
            raise ValueError(
                f"unit-orbit reduction is wired up for Q and real quadratic fields "
                f"only; {nf.label} has degree {nf.degree}, signature {nf.signature}")
        if nf.min_poly[1] != 0 or nf.min_poly[2] != 1 or nf.min_poly[0] >= 0:
            raise NotImplementedError(
                "real quadratic support assumes a defining polynomial x^2 - m")
        if nf.basis_elements[0] != nf.one or nf.basis_elements[1] != nf.gen:
            raise NotImplementedError(
                "real quadratic support assumes the integral basis (1, sqrt(m))")
        self.m = int(-nf.min_poly[0])
        self.root = math.sqrt(self.m)

        # Fundamental unit: the infinite-order generator, normalised so the
        # plus embedding exceeds 1 (torsion generators square to 1).
        eps = None
        for u in nf.unit_gens:
            if u * u != nf.one:
                eps = u
                break
        if eps is None:
            raise ValueError(f"no infinite-order unit generator found for {nf.label}")
        for cand in (eps, -eps, eps.inverse(), (-eps).inverse()):
            if self.sign_plus(cand) > 0 and self.sign_plus(cand - nf.one) > 0:
                eps = cand
                break
        else:
            raise ArithmeticError("could not normalise the fundamental unit")
        self.eps = eps
        self.eps_inv = eps.inverse()
        self.eps2 = eps * eps
        self.eps3 = self.eps2 * eps
        self.log_eps = math.log(self.embed(eps)[0])
        # totally positive fundamental unit: eps itself if its minus
        # embedding is already positive, else its square
        self.eps_plus = eps if self.sign_minus(eps) > 0 else self.eps2

    # -- exact scalar sign tests ---------------------------------------------

    def sign_plus(self, x: FieldElement) -> int:
        if self.degree == 1:
            a = x.coords[0]
            return (a > 0) - (a < 0)
        return _sign_plus(x.coords[0], x.coords[1], self.m)

    def sign_minus(self, x: FieldElement) -> int:
        if self.degree == 1:
            return self.sign_plus(x)
        return _sign_plus(x.coords[0], -x.coords[1], self.m)

    def conj(self, x: FieldElement) -> FieldElement:
        return self.nf.element([x.coords[0], -x.coords[1]])

    def embed(self, x: FieldElement) -> tuple[float, float]:
        if self.degree == 1:
            v = float(x.coords[0])
            return (v, v)
        a, b = float(x.coords[0]), float(x.coords[1])
        return (a + b * self.root, a - b * self.root)

    def tau(self, x: FieldElement) -> float:
        """Slope diagnostic (float); 0 for rationals."""
        if self.degree == 1:
            return 0.0
        s1, s2 = self.embed(x)
        return (math.log(abs(s1)) - math.log(abs(s2))) / (2.0 * self.log_eps)

    # -- membership ------------------------------------------------------------

    def contains(self, x: FieldElement, window: str = "standard") -> bool:
        """Exact membership of x in the fundamental window.

        "standard" is tau in [0, 1); "shifted" moves the origin to tau in
        [1/2, 3/2) and exists so counting can be redone with a different
        half-open convention.  Over Q both windows are the positive axis.
        """
        if window not in _WINDOWS:
            raise ValueError(f"unknown window {window!r}")
        if x.is_zero():
            return False
        if self.degree == 1:
            return x.coords[0] > 0
        if self.sign_plus(x) <= 0:
            return False
        xbar = self.conj(x)
        if window == "standard":
            # tau >= 0  <=>  sigma_plus^2 >= sigma_minus^2  <=>  a*b >= 0
            if x.coords[0] * x.coords[1] < 0:
                return False
            # tau < 1  <=>  sigma_plus < sigma_plus(eps)^2 |sigma_minus|,
            # i.e. (eps^2 xbar - x)(eps^2 xbar + x) positive at the plus place
            s1 = self.sign_plus(self.eps2 * xbar - x)
            s2 = self.sign_plus(self.eps2 * xbar + x)
            return s1 * s2 > 0
        # shifted: tau >= 1/2  <=>  sigma_plus >= sigma_plus(eps) |sigma_minus|
        # <=>  (x - eps xbar)(x + eps xbar) nonnegative at the plus place
        s1 = self.sign_plus(x - self.eps * xbar)
        s2 = self.sign_plus(x + self.eps * xbar)
        if s1 * s2 < 0:
            return False
        g1 = self.sign_plus(self.eps3 * xbar - x)
        g2 = self.sign_plus(self.eps3 * xbar + x)
        return g1 * g2 > 0

    # -- reduction ---------------------------------------------------------------

    def reduce(self, x: FieldElement) -> FieldElement:
        """The canonical associate of x in the standard window."""
        if x.is_zero():
            raise ValueError("cannot reduce zero")
        if self.degree == 1:
            a = x.coords[0]
            return self.nf.element([abs(a)])
        y = x if self.sign_plus(x) > 0 else -x
        # float guess for the unit power, then exact correction
        s1, s2 = self.embed(y)
        t = (math.log(abs(s1)) - math.log(abs(s2))) / (2.0 * self.log_eps)
        k = math.floor(t)
        if k:
            y = y * (self.eps_inv ** k if k > 0 else self.eps ** (-k))
        for _ in range(8):
            if y.coords[0] * y.coords[1] < 0:
                y = y * self.eps          # tau < 0: climb
                continue
            xbar = self.conj(y)
            s1 = self.sign_plus(self.eps2 * xbar - y)
            s2 = self.sign_plus(self.eps2 * xbar + y)
            if s1 * s2 > 0:
                return y
            y = y * self.eps_inv          # tau >= 1: descend
        raise ArithmeticError(f"unit reduction did not settle for {x!r}")


_REDUCERS: dict[str, DomainReducer] = {}


def reducer_for(nf) -> DomainReducer:
    nf = nf_load(nf)
    r = _REDUCERS.get(nf.label)
    if r is None or r.nf is not nf:
        r = DomainReducer(nf)
        _REDUCERS[nf.label] = r
    return r


def reduce_to_domain(x: FieldElement, nf=None) -> FieldElement:
    return reducer_for(nf if nf is not None else x.nf).reduce(x)


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------

def prime_above(nf, p: int) -> PrimeContext:
    """A degree-one prime context above p, chosen deterministically.

    Over Q the prime is (p).  Over a real quadratic field the generator is
    the solution of |a^2 - m b^2| = p with the smallest radical coordinate
    (ties broken toward positive signs), so the same ideal comes back on
    every call.  Raises if p is inert (no degree-one prime exists).
    """
    nf = nf_load(nf)
    if nf.degree == 1:
        return PrimeContext(nf, p, nf.element_from_int(p))
    if nf.degree != 2:
        raise ValueError("prime search is wired up for degree <= 2")
    reducer = reducer_for(nf)
    m = reducer.m
    best = None
    for a in range(0, p + 1):
        for b in range(0, p + 1):
            if a == 0 and b == 0:
                continue
            if abs(a * a - m * b * b) != p:
                continue
            for u, v in ((a, b), (a, -b), (-a, b), (-a, -b)):
                cand = nf.element([u, v])
                if reducer.sign_plus(cand) <= 0:
                    continue
                key = (abs(v), abs(u), v < 0, u < 0)
                if best is None or key < best[0]:
                    best = (key, cand)
    if best is None:
        raise ValueError(f"{p} has no degree-one prime in {nf.label} (inert)")
    return PrimeContext(nf, p, best[1])


@dataclass(frozen=True)
class ProgressionCount:
    """Exact count of the coset alpha(1 + P^n) inside the fundamental
    window with |N(beta)| <= x.  modulus is the ideal alpha * P^n whose
    translates were enumerated."""

    alpha: FieldElement
    modulus: IntegralIdeal
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


def _index_ranges(rows, offset_embed, bound, embeds):
    """Integer ranges (i, j) whose lattice points can reach the embedding box."""
    m11, m12 = embeds[0][0], embeds[1][0]
    m21, m22 = embeds[0][1], embeds[1][1]
    det = m11 * m22 - m12 * m21
    inv = ((m22 / det, -m12 / det), (-m21 / det, m11 / det))
    lo_i = hi_i = lo_j = hi_j = None
    for c1 in (0.0, bound):
        for c2 in (-bound, bound):
            t1, t2 = c1 - offset_embed[0], c2 - offset_embed[1]
            i = inv[0][0] * t1 + inv[0][1] * t2
            j = inv[1][0] * t1 + inv[1][1] * t2
            lo_i = i if lo_i is None else min(lo_i, i)
            hi_i = i if hi_i is None else max(hi_i, i)
            lo_j = j if lo_j is None else min(lo_j, j)
            hi_j = j if hi_j is None else max(hi_j, j)
    pad = 2
    return (math.floor(lo_i) - pad, math.ceil(hi_i) + pad,
            math.floor(lo_j) - pad, math.ceil(hi_j) + pad)


def _window_mask(u, v, reducer: DomainReducer, window: str):
    """Exact membership of u + v*sqrt(m) in the chosen window, vectorised."""
    m = reducer.m
    s0 = _sign_plus_arrays(u, v, m) > 0
    if window == "standard":
        e0, e1 = int(reducer.eps2.coords[0]), int(reducer.eps2.coords[1])
        # eps^2 * conj(x) has coordinates (e0*u - m*e1*v, e1*u - e0*v)
        p_bar, q_bar = e0 * u - m * e1 * v, e1 * u - e0 * v
        s_minus = _sign_plus_arrays(p_bar - u, q_bar - v, m)
        s_plus = _sign_plus_arrays(p_bar + u, q_bar + v, m)
        return s0 & (u * v >= 0) & (s_minus * s_plus > 0)
    # lower edge tau >= 1/2 factors through eps itself, the upper through eps^3
    e0, e1 = int(reducer.eps.coords[0]), int(reducer.eps.coords[1])
    p_bar, q_bar = e0 * u - m * e1 * v, e1 * u - e0 * v
    s_minus = _sign_plus_arrays(u - p_bar, v - q_bar, m)
    s_plus = _sign_plus_arrays(u + p_bar, v + q_bar, m)
    f0, f1 = int(reducer.eps3.coords[0]), int(reducer.eps3.coords[1])
    g_bar_p, g_bar_q = f0 * u - m * f1 * v, f1 * u - f0 * v
    g_minus = _sign_plus_arrays(g_bar_p - u, g_bar_q - v, m)
    g_plus = _sign_plus_arrays(g_bar_p + u, g_bar_q + v, m)
    return s0 & (s_minus * s_plus >= 0) & (g_minus * g_plus > 0)


def _enumerate_coset(ctx: PrimeContext, lattice_rows, offset, x: float,
                     window: str, box_factor: float, threads: int = 1):
    """Integer coordinate arrays (u, v) of coset points passing every exact
    filter: window membership and |norm| <= x.  lattice_rows spans the
    translation lattice; offset is the coset representative.

    threads > 1 partitions the outer index range into contiguous slabs that
    are filtered independently and merged; the filters are exact integer
    predicates, so the merge is order-independent.
    """
    nf = ctx.nf
    reducer = reducer_for(nf)
    win_pow = 2 if window == "standard" else 3
    eps1 = reducer.embed(reducer.eps)[0]
    bound = math.sqrt(x) * eps1 ** (win_pow / 2.0) * box_factor + 1e-9
    r1 = (int(lattice_rows[0][0]), int(lattice_rows[0][1]))
    r2 = (int(lattice_rows[1][0]), int(lattice_rows[1][1]))
    embeds = [reducer.embed(nf.element(r)) for r in (r1, r2)]
    off = (int(offset.coords[0]), int(offset.coords[1]))
    off_embed = reducer.embed(offset)
    lo_i, hi_i, lo_j, hi_j = _index_ranges((r1, r2), off_embed, bound, embeds)
    total = (hi_i - lo_i + 1) * (hi_j - lo_j + 1)
    if total > BOX_CANDIDATE_CAP:
        raise ValueError(
            f"enumeration box needs {total} candidate points; the desk-scale "
            f"cap is {BOX_CANDIDATE_CAP} (shrink x)")
    xi = math.floor(x)
    m = reducer.m

    def slab(a, b):
        ii, jj = np.meshgrid(np.arange(a, b + 1, dtype=np.int64),
                             np.arange(lo_j, hi_j + 1, dtype=np.int64),
                             indexing="ij")
        ii, jj = ii.ravel(), jj.ravel()
        u = off[0] + ii * r1[0] + jj * r2[0]
        v = off[1] + ii * r1[1] + jj * r2[1]
        norm = np.abs(u * u - m * v * v)
        keep = ((u != 0) | (v != 0)) & (norm <= xi)
        keep &= _window_mask(u, v, reducer, window)
        return u[keep], v[keep], norm[keep]

    nslabs = max(1, min(int(threads), hi_i - lo_i + 1))
    if nslabs == 1:
        return slab(lo_i, hi_i)
    cuts = np.linspace(lo_i, hi_i + 1, nslabs + 1).astype(int)
    pieces = []
    with ThreadPoolExecutor(max_workers=nslabs) as pool:
        for part in pool.map(lambda ab: slab(*ab),
                             [(int(cuts[k]), int(cuts[k + 1]) - 1)
                              for k in range(nslabs)]):
            pieces.append(part)
    return tuple(np.concatenate([p[t] for p in pieces]) for t in range(3))


def count_progression(alpha, prime: PrimeContext, n: int, x: float, *,
                      witnesses: bool = False, window: str = "standard",
                      box_factor: float = 1.0, threads: int = 1) -> ProgressionCount:
    """Exact |N| <= x count of the progression alpha(1 + P^n) in the
    fundamental window.

    box_factor inflates the enumeration box without touching the exact
    filters; any value >= 1 must return the same count, which is how the
    oracle cross-checks that no boundary point is missed.  threads splits
    the enumeration into independently filtered slabs whose counts merge
    exactly.
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
    ideal = IntegralIdeal.principal(nf, alpha) * ctx.prime_ideal ** n

    if nf.degree == 1:
        a0 = int(alpha.coords[0])
        step = ideal.norm                      # |alpha| * p^n
        b0 = a0 % step
        if b0 == 0:                            # cannot happen with alpha coprime
            raise ArithmeticError("degenerate progression")
        xi = math.floor(x * box_factor)
        cands = np.arange(b0, xi + 1, step, dtype=np.int64)
        cands = cands[cands <= math.floor(x)]
        wit = None
        if witnesses:
            wit = tuple(nf.element_from_int(int(b)) for b in cands[:WITNESS_LIMIT])
        return ProgressionCount(alpha, ideal, n, x, int(cands.size), window, wit)

    u, v, norm = _enumerate_coset(ctx, ideal.hnf, alpha, x, window,
                                  box_factor, threads)
    wit = None
    if witnesses:
        order = np.lexsort((v, u, norm))[:WITNESS_LIMIT]
        wit = tuple(nf.element([int(u[k]), int(v[k])]) for k in order)
    return ProgressionCount(alpha, ideal, n, x, int(u.size), window, wit)


# ---------------------------------------------------------------------------
# norm minima and bound reports
# ---------------------------------------------------------------------------

def _unit_residues(ctx: PrimeContext, n: int) -> frozenset[int]:
    """Subgroup of (O/P^n)* generated by the global unit residues."""
    mod = ctx.modulus(n)
    gens = {mod - 1}                            # residue of -1
    for ug in ctx.nf.unit_gens:
        gens.add(ctx.residue(ug, n) % mod)
    seen = {1}
    frontier = [1]
    while frontier:
        r = frontier.pop()
        for g in gens:
            s = (r * g) % mod
            if s not in seen:
                seen.add(s)
                frontier.append(s)
    return frozenset(seen)


def min_norm_coset(prime: PrimeContext, n: int, *, with_witness: bool = False):
    """min |N(beta)| over beta in (1 + P^n) excluding the unit orbit of 1.

    Units congruent to 1 mod P^n (over Q(sqrt(2)) e.g. the cube of the
    totally positive fundamental unit mod P) would make the raw minimum 1,
    so the scan drops |N| = 1 and takes the smallest surviving norm.  The
    search runs over window representatives whose residue is a unit
    residue, which hits exactly the unit orbits meeting the coset.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    ctx = prime
    ctx.check_level(n)
    nf = ctx.nf
    allowed = _unit_residues(ctx, n)
    mod = ctx.modulus(n)

    if nf.degree == 1:
        x = mod
        for _ in range(12):
            for b in range(2, x + 1):
                if b % ctx.p and (b % mod) in allowed:
                    elem = nf.element_from_int(b)
                    return (b, elem) if with_witness else b
            x *= 2
        raise ArithmeticError("no coset element found; residue bookkeeping is off")

    identity_rows = ((1, 0), (0, 1))
    x = float(mod)
    for _ in range(12):
        u, v, norm = _enumerate_coset(ctx, identity_rows, nf.zero, x, "standard", 1.0)
        best = None
        for k in range(u.size):
            nv = int(norm[k])
            if nv < 2:
                continue
            if nv % ctx.p == 0:
                continue                        # not coprime to P
            key = (nv, int(u[k]), int(v[k]))
            if best is not None and key >= best:
                continue
            elem = nf.element([int(u[k]), int(v[k])])
            if ctx.residue(elem, n) in allowed:
                best = key
        if best is not None:
            value = best[0]
            if with_witness:
                return value, nf.element([best[1], best[2]])
            return value
        x *= 2
    raise ArithmeticError("no coset element found within the search budget")


@dataclass(frozen=True)
class CountBoundReport:
    field_label: str
    p: int
    rows: tuple            # (n, x, count, bound, ratio)
    row_sups: tuple        # sup of ratio per n
    sup_ratio: float
    stable: bool


def verify_count_bound(prime: PrimeContext, n_list, x_list, alpha=None) -> CountBoundReport:
    """Measure U_{alpha,n}(x) / max(x / N(P)^n, 1) over a grid.

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
            pc = count_progression(alpha, ctx, n, x)
            bound = max(x / float(ctx.p) ** n, 1.0)
            ratio = pc.count / bound
            rows.append((n, x, pc.count, bound, ratio))
            sup_n = max(sup_n, ratio)
        row_sups.append(sup_n)
    sup_ratio = max(row_sups)
    stable = sup_ratio <= 2.0 * min(row_sups)
    if not stable:
        raise ArithmeticError(
            f"count-bound constant drifts across n: per-n sups {row_sups}")
    return CountBoundReport(ctx.nf.label, ctx.p, tuple(rows), tuple(row_sups),
                            sup_ratio, stable)


@dataclass(frozen=True)
class TorsionNormReport:
    field_label: str
    p: int
    n: int
    delta_order: int
    rows: tuple            # (min_residue, norm, ratio) per nontrivial class
    constant: float | None
    vacuous: bool
    passed: bool


def torsion_norm_bound(rcg: RayClassGroup, n: int | None = None, *,
                       floor_ratio: float = 0.5) -> TorsionNormReport:
    """Minimal-norm integral representatives of the prime-to-p torsion classes.

    For each nontrivial class b of the prime-to-p part of the ray class
    group, finds the smallest |N| of an integral ideal in b and compares
    it against N(P)^(n/|Delta|).  Trivial torsion gives a vacuous pass.
    """
    if n is None:
        n = rcg.n
    elif n != rcg.n:
        raise ValueError(f"group was built at level {rcg.n}, not {n}")
    data = rcg.torsion_and_gamma()
    delta = data.delta
    identity = rcg.group.identity
    nontrivial = [b for b in delta if b != identity]
    if not nontrivial:
        return TorsionNormReport(rcg.nf.label, rcg.p, n, len(delta), (), None,
                                 True, True)
    scale = float(rcg.ctx.p) ** (n / len(delta))

    rows = []
    if rcg.nf.degree == 1:
        # ideals (m) with m > 0: the smallest residue lift is the smallest norm
        for b in nontrivial:
            r = rcg.min_residue_of_class(b)
            rows.append((r, r, r / scale))
    else:
        ctx = rcg.ctx
        nf = rcg.nf
        identity_rows = ((1, 0), (0, 1))
        remaining = {b: None for b in nontrivial}
        x = max(float(scale), 4.0)
        for _ in range(14):
            u, v, norm = _enumerate_coset(ctx, identity_rows, nf.zero, x,
                                          "standard", 1.0)
            order = np.lexsort((v, u, norm))
            for k in order:
                nv = int(norm[k])
                if nv % ctx.p == 0:
                    continue
                elem = nf.element([int(u[k]), int(v[k])])
                cls = rcg.ideal_to_element(elem)
                if cls in remaining and remaining[cls] is None:
                    remaining[cls] = (rcg.min_residue_of_class(cls), nv)
            if all(val is not None for val in remaining.values()):
                break
            x *= 2
        else:
            raise ArithmeticError("torsion classes not all represented in budget")
        for b in nontrivial:
            r, nv = remaining[b]
            rows.append((r, nv, nv / scale))

    constant = min(row[2] for row in rows)
    passed = constant >= floor_ratio
    return TorsionNormReport(rcg.nf.label, rcg.p, n, len(delta), tuple(rows),
                             constant, False, passed)
