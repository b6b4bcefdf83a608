"""Smoothed approximate functional equation for central twisted L-values.

The completed value is assembled from two smoothed half-sums,

    Lam(s) = Med^(s/2) * sum_n a(n) phi(n) n^(-s) V1(n / y)
           + C W(phi) Med^((k-s)/2) * sum_n (eta a)(n) conj(phi)(n)
                                              n^(s-k) V2(n y / Med),

where Med = (level norm) * (twist conductor norm)^2, eta*a are the
reflected coefficients, V1/V2 are the `kernels.VKernel` cutoffs at spectral
points s and k-s, W is the twist root number and C the exact archimedean
constant.  The weight is the point mass at w = 1, so each V is one
incomplete gamma (the classical Lavrik form); at the central point s = k/2
both sides share one kernel.  The reported value is the normalized

    L(s) = Lam(s) / (Gamma_F(s) Med^(s/2)).

Numeric policy: every term reads V through the tail route, one incomplete
gamma per term, with no interpolation.  The error estimate is the checked
tail majorants plus EVAL_REL_ERR times the sum of |term| on each side, which
covers the measured relative error of the incomplete gamma (a finite closed
form when 2(s - m) is an integer, a power series or continued fraction for
its fractional part otherwise) and the rounding of the sums.  Cutoffs default to the measured decay cutoff of V and are always
re-checked against an explicit majorant for the dropped tail -- the
elementary bound d(n) <= sqrt(3 n) turns Ramanujan-bounded coefficients
into a closed-form remainder -- so a configuration that cannot meet the
requested tolerance raises instead of silently under-resolving.

Orbit averages take two independent routes.  Route one is per orbit and
float: each prefab array folds into residue bins mod p^level, and one
`charsums.character_sums` FFT over the level's discrete logs gives the
half-sums and Gauss sums of every member at once, returned as arrays in
orbit order.  Route two is per orbit and exact: the averaged twist tables
of charsums, dotted with the unfolded prefab arrays.  `afe_lvalue` stays
the per-character oracle behind both.

Memory: a half-sum pass runs in blocks of `_BLOCK` terms.  Only the prefabs,
kept at 8 bytes per term, and the error estimate's transient |term| array
span the count; V's buffers, a block's residues and its gathered table
values live for one block, and route one's fold needs no index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .charsums import (CoefficientFieldContext, averaged_char_table,
                       averaged_iota_table, character_sums,
                       orbit_float_root_numbers, orbit_index, root_number,
                       scatter, substitutions)
from .fields import NumberFieldData, nf_load
from .kernels import GammaFactor, VKernel
from .newforms import NewformData, newform_load
from .rayclass import HeckeCharacter
from .roots import DOT_BLOCK, unit_circle_array

# Relative error allowed each term of a half-sum, charged on the sum of
# |term|, for arguments up to 2 pi times the decay cutoff.  It covers the
# incomplete gamma of kernels.py, the one special function behind V --
# within 8.9e-16 of the exact sum at integer a <= 12 (tests/test_kernels.py
# holds it to half this constant), 5.6e-16 of 40-digit values at a = 5.5,
# 6.5 and 4.9e-15 off the half-integer grid (a from 0.001 to 11.9); the
# degree-2 tail summed from it is within 5.1e-15 of 30-digit values up to
# its decay cutoff at s = 6 -- and the rounding of the terms and their sum.
EVAL_REL_ERR = 2e-14

# Decay orders j for the measured majorants |V(x)| <= K_j x^(-j), x >= 1.
# Small j wins for small scales, large j for conductor-sized balance points.
DECAY_ORDERS = (3, 6, 9, 12, 16, 20, 24, 28, 32)

# Terms per half-sum block: 128 KB of float64, so that each pass runs in cache
_BLOCK = 1 << 14


# ---------------------------------------------------------------------------
# archimedean constant and admissible window

# i^e for e mod 4, exact
_POWERS_OF_I = (1 + 0j, 1j, -1 + 0j, -1j)


def archimedean_constant(nf: NumberFieldData, type_j, k: int) -> complex:
    """Constant of the completed reflection identity at parallel weight k.

    Every place of a loadable field is real, so with r1 places and J the
    set carrying the twisted discrete series (`newforms.newform_load`
    checks J indexes them),

        C = (-1)^r1 * e(k (r1 - 2|J|) / 4) = (-1)^r1 * i^(k (r1 - 2|J|) mod 4),

    read from the four powers of i.  The reflected value then lands back
    in the same family: (-1)^(r1 (k - 2)) C^2 = 1 holds for every k.
    """
    r1 = nf.signature[0]
    root = _POWERS_OF_I[k * (r1 - 2 * len(set(type_j))) % 4]
    return -root if r1 % 2 else root


def exponent_window(theta, delta_size: int) -> tuple[Fraction, Fraction]:
    """Open interval of scaling exponents a (in y = Np^(a n)) for which all
    three terms of the deviation envelope decay with the level.

    Returns ((2 theta + 1/2)/(theta + 1/2), (1 + 1/|Delta|)/(theta + 1/2))
    as exact Fractions; theta = 0 with a torsion group of size 2 gives the
    window (1, 3).
    """
    theta = Fraction(theta)
    if not 0 <= theta < Fraction(1, 2):
        raise ValueError("theta must lie in [0, 1/2)")
    if delta_size < 1:
        raise ValueError("torsion size must be a positive integer")
    denom = theta + Fraction(1, 2)
    return (2 * theta + Fraction(1, 2)) / denom, (1 + Fraction(1, delta_size)) / denom


# ---------------------------------------------------------------------------
# shared plumbing.  Value-keyed, character-independent objects (gamma data,
# V kernels, decay constants) go through one memo and serve every character
# of an orbit and every level sharing s.  What is derived from a form's
# coefficients lives on the form, so it goes with it.

_memo = lru_cache(maxsize=64)
# the field is the form's own: a field document at a path is then read once,
# so its kernels and prefab arrays serve every evaluation
_field_of = _memo(nf_load)


@_memo
def gamma_factor_for(nf: NumberFieldData, shifts: tuple) -> GammaFactor:
    return GammaFactor(nf, shifts)


@_memo
def vkernel_for(nf: NumberFieldData, shifts: tuple, s: float) -> VKernel:
    return VKernel(gamma_factor_for(nf, shifts), float(s))


@_memo
def _decay_constants(kern: VKernel) -> dict[int, float]:
    """K_j of |V(x)| <= K_j x^(-j) on x >= 1, for j in DECAY_ORDERS.

    |V| decreases, so on each cell [x_i, x_(i+1)] of a grid over [1, hi]
    |V(x)| x^j <= |V(x_i)| x_(i+1)^j, and K_j is the largest of these.
    Past its one peak |V(x)| x^j decreases, so the majorant holds beyond hi
    only when that peak lies inside the grid; a peak in the top cell, or an
    overflow, raises."""
    hi = max(3.0 * kern.decay_cutoff(), 60.0)
    xs = np.geomspace(1.0, hi, 480)
    vals = np.abs(kern.value_tail(xs))
    out = {}
    for j in DECAY_ORDERS:
        weighted = vals[:-1] * xs[1:] ** j
        top = int(np.argmax(weighted))
        if top == len(weighted) - 1 or not np.isfinite(weighted[top]):
            raise ValueError(f"|V(x)| x^{j} has no finite peak inside [1, {hi:g}]: "
                             "its decay majorant would not hold")
        out[j] = float(weighted[top])
    return out


def character_value_table(chi: HeckeCharacter) -> np.ndarray:
    """chi((r)) for r = 0..mod-1 as a complex vector, 0 where r shares a
    factor with p.  The value at a principal ideal (n), n coprime to p, is
    the table entry at n mod p^m.

    The oracle's per-character table: each of the ord values e(j / ord) is
    rendered once, as RootOfUnity.to_complex renders it, and spread by j(r).
    Built per call: an orbit's tables would not fit in memory at the top
    levels, and each costs less than the half-sum it feeds.
    """
    return scatter(chi, unit_circle_array(chi.order))


def _table(chi: HeckeCharacter | None) -> np.ndarray | None:
    return None if chi is None else character_value_table(chi)


def _root_number(chi: HeckeCharacter | None) -> complex:
    return 1.0 + 0j if chi is None else root_number(chi)


def _mod_index(lo: int, hi: int, mod: int) -> np.ndarray:
    """n mod `mod` for n = lo + 1..hi (numpy's `%` is slower)."""
    ns = np.arange(lo + 1, hi + 1, dtype=np.int64)
    return ns - ns // mod * mod


def _prefab(form: NewformData, kern: VKernel, scale: float, count: int,
            reflected: bool) -> np.ndarray:
    """a(n) n^(-s) V(n/scale) for n = 1..count at the kernel's spectral
    point s, with the reflected sign when asked; the character-independent
    part of a half-sum, kept on the form.  One array serves every member of
    a Galois orbit, which is what makes orbit scans cheap.

    Built a block at a time in the buffer of its n: V(n/scale), n^(-s) in
    place, times a(n), times V, so each term is (a(n) n^(-s)) V and eta = +-1
    is exact wherever applied; each step is elementwise, so blocks change no bit.
    """
    key = ("prefab", kern, float(scale), count, reflected)
    got = form._derived.get(key)
    if got is None:
        got = np.empty(count)
        for lo in range(0, count, _BLOCK):
            hi = min(lo + _BLOCK, count)
            ns = np.arange(lo + 1, hi + 1, dtype=np.float64)
            v = kern.value(ns / scale)
            ns **= -kern.s.real
            ns *= form.coefficient_array(hi)[lo + 1:]
            ns *= v
            if reflected:
                ns *= form.eta
            got[lo:hi] = ns
        got.setflags(write=False)
        form._derived[key] = got
    return got


def _dot(weights: np.ndarray, table: np.ndarray | None) -> complex:
    """sum_n weights[n - 1] table[n mod len(table)] over n = 1..len(weights),
    gathered and dotted one block at a time; no table is the untwisted sum."""
    if table is None:
        return complex(np.sum(weights))
    total = 0j
    for lo in range(0, len(weights), DOT_BLOCK):
        hi = min(lo + DOT_BLOCK, len(weights))
        total += complex(np.dot(weights[lo:hi], table[_mod_index(lo, hi, len(table))]))
    return total


def _fold(weights: np.ndarray, mod: int) -> np.ndarray:
    """The bins sum_(n = r mod `mod`) weights[n - 1], r = 0..mod-1, by
    np.bincount's additions in its order: the whole periods as rows (column
    c holds n = c + 1) summed over axis 0, then the short tail."""
    whole = len(weights) - len(weights) % mod
    bins = np.roll(weights[:whole].reshape(-1, mod).sum(axis=0), 1)
    bins[1:len(weights) - whole + 1] += weights[whole:]
    return bins


def _normalize_twist(chi: HeckeCharacter | None) -> HeckeCharacter | None:
    if chi is None or chi.is_trivial():
        return None
    if not chi.is_primitive():
        raise ValueError("twist must be primitive (or trivial); "
                         "rebuild the character at its conductor level")
    return chi


# ---------------------------------------------------------------------------
# tail majorants

def _divisor_sum_tail(m: int, alpha: float) -> float:
    """Majorant for sum_{n > m} d(n) n^(-alpha), from d(n) <= sqrt(3 n)."""
    if alpha <= 1.5:
        return math.inf
    return math.sqrt(3.0) * m ** (1.5 - alpha) / (alpha - 1.5)


def _half_sum_tail(form: NewformData, kern: VKernel, sigma: float,
                   scale: float, m: int) -> float:
    """Bound for the dropped tail of sum_n a(n) phi(n) n^(-sigma) V(n/scale),
    n > m, optimized over the measured decay orders of V."""
    if m < scale:
        return math.inf  # the decay majorants only cover arguments >= 1
    k = form.weight
    best = math.inf
    for j, kj in _decay_constants(kern).items():
        alpha = sigma + j - (k - 1) / 2.0 - float(form.theta)
        if alpha > 1.5:
            # 2 K_j scale^j _divisor_sum_tail(m, alpha), with scale^j m^-j
            # taken as one power of scale/m <= 1 so that nothing overflows
            best = min(best, 2.0 * kj * (scale / m) ** j * math.sqrt(3.0)
                       * m ** (1.5 - alpha + j) / (alpha - 1.5))
    return best


# ---------------------------------------------------------------------------
# configuration and result containers

@dataclass(frozen=True)
class AFEConfig:
    """Resolved evaluation parameters for one completed-value computation.

    The two cutoffs are checked against the tail majorants before any sum
    is trusted.
    """
    y: float
    cutoff_main: int
    cutoff_dual: int
    tol: float = 1e-9


class LValueResult(NamedTuple):
    """One evaluation; for route one, `value` and `dual_term` are complex
    arrays in orbit order and the other fields are shared by every member."""
    value: complex | np.ndarray
    error_estimate: float
    y: float
    terms_main: int
    terms_dual: int
    character_label: str
    main_term: complex
    dual_term: complex | np.ndarray


def _kernels(nf: NumberFieldData, shifts, k: int, s: float) -> tuple[VKernel, VKernel]:
    """The V kernels of the two half-sums at spectral points s and k - s:
    one shared kernel at the central point.  Each V needs its point above
    every gamma shift, so s must lie in the open strip (max m, k - max m)."""
    top = max(shifts)
    if not top < s < k - top:
        raise ValueError(f"s = {s:g} lies outside the open strip "
                         f"({top:g}, {k - top:g}) where both kernels exist")
    return vkernel_for(nf, shifts, s), vkernel_for(nf, shifts, k - s)


def _tails(form: NewformData, kern: tuple[VKernel, VKernel], s: float,
           med: float, y: float, m1: int, m2: int) -> tuple[float, float]:
    """Majorants of the dropped tails past cutoffs (m1, m2) at balance point
    y: the main side, and the dual side weighted as it enters the value."""
    k = form.weight
    t1 = _half_sum_tail(form, kern[0], s, y, m1)
    t2 = _half_sum_tail(form, kern[1], k - s, med / y, m2)
    return t1, med ** (0.5 * (k - 2.0 * s)) * t2


def choose_cutoffs(form: NewformData, conductor_norm: int,
                   s: float | None = None, y: float | None = None,
                   tol: float = 1e-9) -> AFEConfig:
    """The cutoffs every evaluation at this twist conductor norm uses when
    none are given.

    Start from the measured decay cutoff of each V kernel (and at least the
    side's own scale), then grow whichever side's tail majorant dominates
    until the tail budget meets tol.  Reads the form's weight, gamma shifts,
    level and theta only, never its coefficients, so a probe form is enough
    to size the coefficient table ahead of the sums (`load_for_sums`).
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and above 0, got {tol!r}")
    nf = _field_of(form.field_label)
    k = form.weight
    s = 0.5 * k if s is None else float(s)
    med = float(form.level_norm) * conductor_norm * conductor_norm
    y = math.sqrt(med) if y is None else float(y)
    if not (math.isfinite(y) and y > 0):
        raise ValueError(f"the balance point y must be finite and above 0, got {y!r}")
    kern = _kernels(nf, form.gamma_shifts, k, s)
    gamma_abs = abs(gamma_factor_for(nf, form.gamma_shifts).value(s))
    m1 = max(8, math.ceil(kern[0].decay_cutoff() * y), math.ceil(y))
    m2 = max(8, math.ceil(kern[1].decay_cutoff() * med / y), math.ceil(med / y))
    for _ in range(400):
        tail1, tail2 = _tails(form, kern, s, med, y, m1, m2)
        if (tail1 + tail2) / gamma_abs <= tol:
            break
        if tail1 >= tail2:
            m1 += m1 // 4 + 8
        else:
            m2 += m2 // 4 + 8
    return AFEConfig(y=y, cutoff_main=m1, cutoff_dual=m2, tol=tol)


def load_for_sums(source, probe: NewformData, sums, s: float | None = None,
                  tol: float = 1e-9, threads: int = 1) -> NewformData:
    """`source` loaded to the longest cutoff `choose_cutoffs` picks from
    `probe` (the same form at a few coefficients) over `sums`, the (conductor
    norm, y) pairs summed at s; a shorter full-table document is refused, and
    a probe that covers the sums (a full table loads whole) is the form."""
    need = max(max(c.cutoff_main, c.cutoff_dual) for c in (
        choose_cutoffs(probe, cond, s=s, y=y, tol=tol) for cond, y in sums))
    form = probe if probe.limit >= need else newform_load(source, need, threads)
    if form.limit < need:
        raise ValueError(f"form carries coefficients to {form.limit} "
                         f"but the sums need {need}")
    return form


class _Engine(NamedTuple):
    """Everything one completed-value evaluation needs: tails vetted,
    C the archimedean constant."""
    k: int
    s: float
    med: float
    cfg: AFEConfig
    kern: tuple[VKernel, VKernel]
    gamma_s: complex
    budget: float
    c: complex


def _engine(form: NewformData, chi: HeckeCharacter | None, s: float,
            y: float | None, tol: float, cfg: AFEConfig | None = None) -> _Engine:
    nf = _field_of(form.field_label)
    k = form.weight
    s = float(s)
    cond = 1 if chi is None else chi.conductor_norm
    med = float(form.level_norm) * cond * cond
    kern = _kernels(nf, form.gamma_shifts, k, s)
    gamma_s = gamma_factor_for(nf, form.gamma_shifts).value(s)
    if cfg is None:
        cfg = choose_cutoffs(form, cond, s, y, tol)
    elif y is not None and float(y) != cfg.y:
        raise ValueError("y was given both directly and through the config")

    m1, m2 = cfg.cutoff_main, cfg.cutoff_dual
    if form.limit < max(m1, m2):
        raise ValueError(
            f"form carries coefficients to {form.limit} but the sums need {max(m1, m2)}")
    tail1, tail2 = _tails(form, kern, s, med, cfg.y, m1, m2)
    budget = (tail1 + tail2) / abs(gamma_s)
    if not budget <= cfg.tol:
        raise ValueError(
            f"cutoffs ({m1}, {m2}) cannot meet tolerance {cfg.tol:g}: "
            f"tail bound {budget:.3g}")
    return _Engine(k, s, med, cfg, kern, complex(gamma_s), budget,
                   archimedean_constant(nf, form.type_j, k))


def _prefabs(form: NewformData, eng: _Engine,
             reflected: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The main and dual prefab arrays of one evaluation.

    reflected=True swaps the coefficient sign between the two sides, which
    gives the reflected object of the reflection identity.
    """
    pre1 = _prefab(form, eng.kern[0], eng.cfg.y, eng.cfg.cutoff_main, reflected)
    pre2 = _prefab(form, eng.kern[1], eng.med / eng.cfg.y, eng.cfg.cutoff_dual,
                   not reflected)
    return pre1, pre2


def _two_sided(form: NewformData, eng: _Engine, main_table, dual_table,
               reflected: bool = False) -> tuple[complex, complex, float]:
    """The main and dual half-sums against per-residue weight tables (None:
    untwisted), and the first main-side term a(1) V(1/y)."""
    pre1, pre2 = _prefabs(form, eng, reflected)
    return _dot(pre1, main_table), _dot(pre2, dual_table), pre1[0]


def _error_estimate(form: NewformData, eng: _Engine) -> float:
    """The checked tail majorants plus the evaluation allowance, EVAL_REL_ERR
    times the sum of |term| on each side with the dual side weighted as it
    enters the value, as an absolute bound on the normalized value."""
    pre1, pre2 = _prefabs(form, eng)
    mass = (np.sum(np.abs(pre1))
            + eng.med ** (0.5 * (eng.k - 2.0 * eng.s)) * np.sum(np.abs(pre2)))
    return float(eng.budget + EVAL_REL_ERR * mass / abs(eng.gamma_s))


# ---------------------------------------------------------------------------
# completed and normalized values

def afe_lvalue(form: NewformData, chi: HeckeCharacter | None = None,
               s: float | None = None, y: float | None = None,
               tol: float = 1e-9) -> LValueResult:
    """Normalized value L(s, form x chi) by the smoothed two-sided sum.
    chi = None (or trivial) gives the untwisted value; s defaults to the
    central point k/2.

    The error estimate is absolute and combines the checked tail majorants
    with the evaluation allowance; it is conservative by design.
    """
    k = form.weight
    s = 0.5 * k if s is None else float(s)
    chi = _normalize_twist(chi)
    eng = _engine(form, chi, s, y, tol)
    m1, m2 = eng.cfg.cutoff_main, eng.cfg.cutoff_dual
    lam_ratio = eng.med ** (0.5 * (k - 2.0 * s))

    conj = None if chi is None else chi.conjugate()
    s1, s2, lead = _two_sided(form, eng, _table(chi), _table(conj))
    dual_term = eng.c * _root_number(chi) * lam_ratio * s2 / eng.gamma_s
    value = s1 / eng.gamma_s + dual_term

    return LValueResult(
        value=value,
        error_estimate=_error_estimate(form, eng),
        y=eng.cfg.y,
        terms_main=m1,
        terms_dual=m2,
        character_label="trivial" if chi is None else chi.label,
        main_term=complex(lead / eng.gamma_s),
        dual_term=dual_term,
    )


def _completed(form: NewformData, chi: HeckeCharacter | None, s: float,
               y: float | None, reflected: bool) -> tuple[complex, _Engine]:
    """Med^(s/2) Gamma_F(s) L(s, form x chi) for a normalized twist at tol
    1e-9, with the engine it used; reflected=True takes the reflected object
    (eta * a, the conjugate twist) the reflection identity compares at k - s."""
    eng = _engine(form, chi, s, y, 1e-9)
    k, s = eng.k, eng.s
    # the reflected object swaps coefficient sign and conjugates the twist
    conj = None if chi is None else chi.conjugate()
    chi1, chi2 = (conj, chi) if reflected else (chi, conj)
    s1, s2, _ = _two_sided(form, eng, _table(chi1), _table(chi2), reflected)
    lam = (eng.med ** (0.5 * s) * s1
           + eng.c * _root_number(chi1) * eng.med ** (0.5 * (k - s)) * s2)
    return lam, eng


def functional_equation_residual(form: NewformData,
                                 chi: HeckeCharacter | None = None,
                                 s: float = 5.5, y: float | None = None) -> float:
    """Relative defect |Lam(s) - C W Lam_reflected(k-s)| / |Lam(s)|.

    The reflected value is taken at the mirrored balance point Med/y, so
    the identity is exact for the true transforms; the computed residual
    measures the numeric consistency of the kernels at the two spectral
    points together with the root-number normalization.
    """
    chi = _normalize_twist(chi)
    lam, eng = _completed(form, chi, s, y, False)
    lam_ref, _ = _completed(form, chi, eng.k - eng.s, eng.med / eng.cfg.y, True)
    return abs(lam - eng.c * _root_number(chi) * lam_ref) / abs(lam)


# ---------------------------------------------------------------------------
# orbit averages: two independent routes

def orbit_average_lvalue(form: NewformData, chi: HeckeCharacter,
                         ctx: CoefficientFieldContext,
                         y: float | None = None, tol: float = 1e-9,
                         cfg: AFEConfig | None = None) -> tuple[complex, LValueResult]:
    """Route one: the plain mean of central values over the Galois orbit of
    the twist.  Returns (mean, res): one `LValueResult` for the whole orbit,
    whose `value` and `dual_term` are complex arrays in orbit order (the
    order of `charsums.substitutions`), whose `character_label` is the
    seed's, and whose other fields are the scalars every member shares.
    The seed must be primitive, so never trivial: `afe_lvalue` is the
    untwisted value.

    Per orbit and float: every member shares the conductor, so one engine,
    one error estimate and one pair of prefab arrays serve them all.  Each
    prefab folds into residue bins mod p^level, and one `character_sums`
    transform of the bins gives every member's half-sum: chi^t on the main
    side, conj(chi^t) on the dual side.  The root numbers come the same way
    from `orbit_float_root_numbers`.
    """
    if not chi.is_primitive():
        raise ValueError("seed twist must be primitive at its level")
    eng = _engine(form, chi, 0.5 * form.weight, y, tol, cfg)
    pctx, level = chi.prime_ctx, chi.level
    mod, h = pctx.modulus(level), pctx.unit_group_order(level)
    idx = orbit_index(chi, ctx)
    pre1, pre2 = _prefabs(form, eng)
    # at the central point Med^((k - 2s)/2) = 1
    dual = (eng.c * orbit_float_root_numbers(chi, ctx)
            * character_sums(pctx, level, _fold(pre2, mod))[-idx % h] / eng.gamma_s)
    res = LValueResult(
        value=character_sums(pctx, level, _fold(pre1, mod))[idx] / eng.gamma_s + dual,
        error_estimate=_error_estimate(form, eng), y=eng.cfg.y,
        terms_main=eng.cfg.cutoff_main, terms_dual=eng.cfg.cutoff_dual,
        character_label=chi.label, main_term=complex(pre1[0] / eng.gamma_s),
        dual_term=dual)
    # summed in orbit order, one member at a time
    return sum(res.value.tolist()) / len(res.value), res


def averaged_coefficient_lvalue(form: NewformData, chi: HeckeCharacter,
                                ctx: CoefficientFieldContext,
                                y: float | None = None,
                                tol: float = 1e-9) -> tuple[complex, dict]:
    """Route two: average the twist first, then run a single two-sided sum
    against the averaged values.

    The direct side uses the exact orbit mean of the twist at each unit
    residue; the reflected side uses the averaged root-number-weighted
    conjugate values, which is where the cancellation lives.  Independent
    of route one except for the shared coefficient and kernel tables.

    Per orbit and exact: the root numbers come from one exact Gauss sum by
    the Galois action, and the means for every value chi(r) are one DFT
    (charsums.averaged_char_table / averaged_iota_table).
    """
    if not chi.is_primitive():     # so never trivial: see afe_lvalue
        raise ValueError("seed twist must be primitive at its level")
    eng = _engine(form, chi, 0.5 * form.weight, y, tol)
    # averaged twist per unit residue, and the averaged reflected weights
    # (root number times conjugate values)
    s1, s2, lead = _two_sided(form, eng, averaged_char_table(chi, ctx),
                              averaged_iota_table(chi, ctx))
    value = (s1 + eng.c * s2) / eng.gamma_s
    info = {
        "orbit_size": len(substitutions(chi, ctx)),
        "main_term": complex(lead / eng.gamma_s),
        "dual_part": eng.c * s2 / eng.gamma_s,
        "terms": (eng.cfg.cutoff_main, eng.cfg.cutoff_dual),
    }
    return value, info


# ---------------------------------------------------------------------------
# direct-series oracle

def direct_series(form: NewformData, chi: HeckeCharacter | None = None,
                  s: float = 8.0) -> tuple[complex, float]:
    """Plain Dirichlet sum sum_{n <= form.limit} a(n) chi(n) n^(-s), usable only
    in the absolute-convergence range; the oracle the two-sided sum is
    checked against.

    Requires s >= (k + 2)/2 + 1/4 so the monotone majorant converges with a
    usable margin; returns (value, tail majorant).  The majorant combines
    |a(n)| <= 2 d(n) n^((k-1)/2 + theta) with d(n) <= sqrt(3 n) and is
    deliberately conservative -- the true truncation error oscillates far
    below it.
    """
    k = form.weight
    s = float(s)
    floor = (k + 2) / 2.0 + 0.25
    if s < floor:
        raise ValueError(
            f"direct summation needs s >= {floor:g} for this weight; "
            f"got s = {s:g} (use the two-sided sum instead)")
    chi = _normalize_twist(chi)
    m = form.limit
    terms = np.arange(1, m + 1, dtype=np.float64)
    terms **= -s
    terms *= form.coefficient_array(m)[1:]
    value = _dot(terms, _table(chi))
    alpha = s - (k - 1) / 2.0 - float(form.theta)
    return value, float(2.0 * _divisor_sum_tail(m, alpha))
