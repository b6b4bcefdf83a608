"""Smoothed approximate functional equation for central twisted L-values.

The completed value is assembled from two smoothed half-sums,

    Lam(s) = Med^(s/2) * sum_n a(n) phi(n) n^(-s) V1(n / y)
           + C W(phi) Med^((k-s)/2) * sum_n (eta a)(n) conj(phi)(n)
                                              n^(s-k) V2(n y / Med),

where Med = (level norm) * (twist conductor norm)^2, eta*a are the
reflected coefficients, V1/V2 are gamma-kernel transforms of the smoothing
weight taken at spectral points s and k-s, W is the twist root number and C
the exact archimedean constant.  The weight is the point mass at w = 1,
`kernels.SmoothingKernel(nodes=1)`: the identity holds for any weight whose
Mellin transform is even, entire and 1 at 0, and with kappa = 1 each V is
one incomplete gamma (the classical Lavrik form).  The reported value is
the normalized

    L(s) = Lam(s) / (Gamma_F(s) Med^(s/2)).

Numeric policy: every term reads V through the tail route, one incomplete
gamma per term, with no interpolation.  The error estimate is the checked
tail majorants plus EVAL_REL_ERR times the sum of |term| on each side, which
covers the measured relative error of `gammaincc` and the rounding of the
sums.  Cutoffs default to the measured decay cutoff of V and are always
re-checked against an explicit majorant for the dropped tail -- the
elementary bound d(n) <= sqrt(3 n) turns Ramanujan-bounded coefficients
into a closed-form remainder -- so a configuration that cannot meet the
requested tolerance raises instead of silently under-resolving.

Orbit averages take two independent routes.  Route one is per orbit and
float: each prefab array folds into residue bins mod p^level, and one
`charsums.character_sums` FFT over the level's discrete logs gives the
half-sums and Gauss sums of every member at once.  Route two is per orbit
and exact: the averaged twist tables of charsums, dotted with the unfolded
prefab arrays.  `afe_lvalue` stays the per-character oracle behind both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .charsums import (CoefficientFieldContext, averaged_char_table,
                       averaged_iota_values, character_sums,
                       orbit_float_root_numbers, orbit_index, root_number,
                       substitutions)
from .fields import NumberFieldData, nf_load
from .kernels import GammaFactor, SmoothingKernel, VKernel
from .newforms import NewformData
from .rayclass import HeckeCharacter
from .roots import unit_circle_array

# Relative error allowed each term of a half-sum, charged on the sum of
# |term|.  It covers gammaincc, at most 6.7e-15 relative at a = 6 for
# arguments up to 2 pi times the decay cutoff (tests/test_kernels.py holds
# it to half this constant), and the rounding of the terms and their sum.
EVAL_REL_ERR = 2e-14

# Decay orders j for the measured majorants |V(x)| <= K_j x^(-j), x >= 1.
# Small j wins for small scales, large j for conductor-sized balance points.
DECAY_ORDERS = (3, 6, 9, 12, 16, 20, 24, 28, 32)


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
# V kernels, decay constants, residue index arrays) go through one memo and
# serve every character of an orbit and every level sharing s.  What is
# derived from a form's coefficients lives on the form, so it goes with it.

# The smoothing weight is free (any weight whose Mellin transform is even,
# entire and 1 at 0 gives the same identity), and it sets the decay cutoff
# of V and with it the length of every sum: the point mass at w = 1 gives
# 9.77, where the bump of width 1/4 gave 12.21 and that of width 1 19.07.
_KERNEL = SmoothingKernel(nodes=1)
_memo = lru_cache(maxsize=64)


@_memo
def gamma_factor_for(nf: NumberFieldData, shifts: tuple) -> GammaFactor:
    return GammaFactor(nf, shifts)


@_memo
def vkernel_for(nf: NumberFieldData, shifts: tuple, s: float, sign: int = 1) -> VKernel:
    return VKernel(gamma_factor_for(nf, shifts), _KERNEL, float(s), sign=sign)


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


@_memo
def _mod_index(count: int, mod: int) -> np.ndarray:
    """n mod `mod` for n = 1..count."""
    got = np.arange(1, count + 1, dtype=np.int64) % mod
    got.setflags(write=False)
    return got


def _on_form(form: NewformData, key, build):
    """build(), kept on the form under key.  Built before it is published,
    so a racing thread at worst builds the same value twice."""
    got = form._derived.get(key)
    if got is None:
        got = build()
        form._derived[key] = got
    return got


def character_value_table(chi: HeckeCharacter) -> np.ndarray:
    """chi((r)) for r = 0..mod-1 as a complex vector, 0 where r shares a
    factor with p.  The value at a principal ideal (n), n coprime to p, is
    the table entry at n mod p^m.

    The oracle's per-character table: chi(r) = e(j / ord) with
    j = dlog_phase * ord * dlog(r), so each of the ord values is rendered
    once, exactly as RootOfUnity.to_complex renders it, and indexed by j.
    Built per call: an orbit's tables would not fit in memory at the top
    levels, and each costs less than the half-sum it feeds.
    """
    phase = chi.dlog_phase
    order = phase.denominator
    dlog = chi.prime_ctx.dlog_array(chi.level)
    units = dlog >= 0
    values = unit_circle_array(order)
    tab = np.zeros(len(dlog), dtype=np.complex128)
    tab[units] = values[dlog[units] * phase.numerator % order]
    return tab


def _table(chi: HeckeCharacter | None) -> np.ndarray | None:
    return None if chi is None else character_value_table(chi)


def _root_number(chi: HeckeCharacter | None) -> complex:
    return 1.0 + 0j if chi is None else root_number(chi)


def _prefab(form: NewformData, kern: VKernel, scale: float, count: int,
            reflected: bool) -> np.ndarray:
    """a(n) n^(-s) V(n/scale) for n = 1..count at the kernel's spectral
    point s, with the reflected sign when asked; the character-independent
    part of a half-sum.  One array serves every member of a Galois orbit,
    which is what makes orbit scans cheap.
    """
    def build():
        s = kern.s.real
        coeffs = form.coefficient_array(count)[1:]
        if reflected:
            coeffs = form.eta * coeffs
        ns = np.arange(1, count + 1, dtype=np.float64)
        arr = coeffs * ns ** (-s) * kern.value(ns / scale)
        arr.setflags(write=False)
        return arr
    return _on_form(form, ("prefab", kern, float(scale), count, reflected), build)


def _dot(weights: np.ndarray, table: np.ndarray | None) -> complex:
    """sum_n weights[n - 1] table[n mod len(table)] over n = 1..len(weights);
    no table is the untwisted sum."""
    if table is None:
        return complex(np.sum(weights))
    return complex(np.dot(weights, table[_mod_index(len(weights), len(table))]))


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
    value: complex
    error_estimate: float
    y: float
    terms_main: int
    terms_dual: int
    character_label: str
    main_term: complex
    dual_term: complex


def _kernels(nf: NumberFieldData, shifts, k: int, s: float) -> tuple[VKernel, VKernel]:
    """The V kernels of the two half-sums at spectral points s and k - s."""
    return vkernel_for(nf, shifts, s, 1), vkernel_for(nf, shifts, k - s, -1)


def _tails(form: NewformData, kern: tuple[VKernel, VKernel], s: float,
           med: float, y: float, m1: int, m2: int) -> tuple[float, float]:
    """Majorants of the dropped tails past cutoffs (m1, m2) at balance point
    y: the main side, and the dual side weighted as it enters the value."""
    k = form.weight
    t1 = _half_sum_tail(form, kern[0], s, y, m1)
    t2 = _half_sum_tail(form, kern[1], k - s, med / y, m2)
    return t1, med ** (0.5 * (k - 2.0 * s)) * t2


def choose_cutoffs(form: NewformData, nf, conductor_norm: int,
                   s: float | None = None, y: float | None = None,
                   tol: float = 1e-9) -> AFEConfig:
    """The cutoffs every evaluation at this twist conductor norm uses when
    none are given.

    Start from the measured decay cutoff of each V kernel (and at least the
    side's own scale), then grow whichever side's tail majorant dominates
    until the tail budget meets tol.  Reads the form's weight, gamma shifts,
    level and theta only, never its coefficients, so a probe form is enough
    to size the coefficient table ahead of the sums.
    """
    nf = nf_load(nf if nf is not None else form.field_label)
    k = form.weight
    s = 0.5 * k if s is None else float(s)
    med = float(form.level_norm) * conductor_norm * conductor_norm
    y = math.sqrt(med) if y is None else float(y)
    if y <= 0:
        raise ValueError("the balance point y must be positive")
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


def _engine(form: NewformData, nf, chi: HeckeCharacter | None, s: float,
            y: float | None, tol: float, cfg: AFEConfig | None = None) -> _Engine:
    nf = nf_load(nf if nf is not None else form.field_label)
    k = form.weight
    s = float(s)
    cond = 1 if chi is None else chi.conductor_norm
    med = float(form.level_norm) * cond * cond
    kern = _kernels(nf, form.gamma_shifts, k, s)
    gamma_s = gamma_factor_for(nf, form.gamma_shifts).value(s)
    if cfg is None:
        cfg = choose_cutoffs(form, nf, cond, s, y, tol)
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
               cfg: AFEConfig | None = None, nf=None,
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
    eng = _engine(form, nf, chi, s, y, tol, cfg)
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
               y: float | None, nf, reflected: bool,
               tol: float) -> tuple[complex, _Engine]:
    """lambda_completed for a normalized twist, with the engine it used."""
    eng = _engine(form, nf, chi, s, y, tol)
    k, s = eng.k, eng.s
    # the reflected object swaps coefficient sign and conjugates the twist
    conj = None if chi is None else chi.conjugate()
    chi1, chi2 = (conj, chi) if reflected else (chi, conj)
    s1, s2, _ = _two_sided(form, eng, _table(chi1), _table(chi2), reflected)
    lam = (eng.med ** (0.5 * s) * s1
           + eng.c * _root_number(chi1) * eng.med ** (0.5 * (k - s)) * s2)
    return lam, eng


def lambda_completed(form: NewformData, chi: HeckeCharacter | None,
                     s: float, y: float | None = None, nf=None,
                     reflected: bool = False, tol: float = 1e-9) -> complex:
    """Completed value Med^(s/2) Gamma_F(s) L(s, form x chi).

    reflected=True evaluates the reflected object instead (coefficients
    eta * a with the conjugate twist), which is what the reflection
    identity compares against at spectral point k - s.
    """
    return _completed(form, _normalize_twist(chi), s, y, nf, reflected, tol)[0]


def functional_equation_residual(form: NewformData,
                                 chi: HeckeCharacter | None = None,
                                 s: float = 5.5, y: float | None = None,
                                 nf=None) -> float:
    """Relative defect |Lam(s) - C W Lam_reflected(k-s)| / |Lam(s)|.

    The reflected value is taken at the mirrored balance point Med/y, so
    the identity is exact for the true transforms; the computed residual
    measures the numeric consistency of the kernels at the two spectral
    points together with the root-number normalization.
    """
    chi = _normalize_twist(chi)
    lam, eng = _completed(form, chi, s, y, nf, False, 1e-9)
    lam_ref, _ = _completed(form, chi, eng.k - eng.s, eng.med / eng.cfg.y, nf,
                            True, 1e-9)
    return abs(lam - eng.c * _root_number(chi) * lam_ref) / abs(lam)


# ---------------------------------------------------------------------------
# orbit averages: two independent routes

def orbit_average_lvalue(form: NewformData, chi: HeckeCharacter,
                         ctx: CoefficientFieldContext,
                         y: float | None = None, nf=None, tol: float = 1e-9,
                         cfg: AFEConfig | None = None) -> tuple[complex, list[LValueResult]]:
    """Route one: the plain mean of central values over the Galois orbit of
    the twist.  Returns (mean, per-character results in orbit order).  A
    trivial seed has a one-element orbit, so this degenerates to the
    untwisted value.

    Per orbit and float: every member shares the conductor, so one engine,
    one error estimate and one pair of prefab arrays serve them all.  Each
    prefab folds into residue bins mod p^level, and one `character_sums`
    transform of the bins gives every member's half-sum: chi^t on the main
    side, conj(chi^t) on the dual side.  The root numbers come the same way
    from `orbit_float_root_numbers`.
    """
    if chi.is_trivial():
        res = afe_lvalue(form, None, y=y, nf=nf, tol=tol, cfg=cfg)
        return res.value, [res]
    chi = _normalize_twist(chi)
    eng = _engine(form, nf, chi, 0.5 * form.weight, y, tol, cfg)
    pctx, level = chi.prime_ctx, chi.level
    mod, h = pctx.modulus(level), pctx.unit_group_order(level)
    idx = orbit_index(chi, ctx)

    def half_sums(pre: np.ndarray, at: np.ndarray) -> np.ndarray:
        bins = np.bincount(_mod_index(len(pre), mod), weights=pre, minlength=mod)
        return character_sums(pctx, level, bins)[at]

    pre1, pre2 = _prefabs(form, eng)
    s1 = half_sums(pre1, idx)
    s2 = half_sums(pre2, -idx % h)
    w = orbit_float_root_numbers(chi, ctx)
    # at the central point Med^((k - 2s)/2) = 1
    dual = eng.c * w * s2 / eng.gamma_s
    values = s1 / eng.gamma_s + dual

    err = _error_estimate(form, eng)
    main_term = complex(pre1[0] / eng.gamma_s)
    results = [
        LValueResult(value=complex(v), error_estimate=err, y=eng.cfg.y,
                     terms_main=eng.cfg.cutoff_main, terms_dual=eng.cfg.cutoff_dual,
                     character_label=chi.power(t).label, main_term=main_term,
                     dual_term=complex(d))
        for t, v, d in zip(substitutions(chi, ctx).tolist(), values, dual)]
    mean = sum(r.value for r in results) / len(results)
    return mean, results


def averaged_coefficient_lvalue(form: NewformData, chi: HeckeCharacter,
                                ctx: CoefficientFieldContext,
                                y: float | None = None, nf=None,
                                tol: float = 1e-9) -> tuple[complex, dict]:
    """Route two: average the twist first, then run a single two-sided sum
    against the averaged values.

    The direct side uses the exact orbit mean of the twist at each unit
    residue; the reflected side uses the averaged root-number-weighted
    conjugate values, which is where the cancellation lives.  Independent
    of route one except for the shared coefficient and kernel tables.

    Per orbit and exact: the root numbers come from one exact Gauss sum by
    the Galois action, and the means for every value chi(r) are one DFT
    (charsums.averaged_char_table / averaged_iota_values).
    """
    if chi.is_trivial():
        res = afe_lvalue(form, None, y=y, nf=nf, tol=tol)
        return res.value, {"orbit_size": 1, "main_term": res.main_term,
                           "dual_part": res.dual_term,
                           "terms": (res.terms_main, res.terms_dual)}
    if not chi.is_primitive():
        raise ValueError("seed twist must be primitive at its level")

    eng = _engine(form, nf, chi, 0.5 * form.weight, y, tol)
    # averaged twist per unit residue, and the averaged reflected weights
    # (root number times conjugate values)
    s1, s2, lead = _two_sided(form, eng, averaged_char_table(chi, ctx),
                              averaged_iota_values(chi, ctx))
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
                  s: float = 8.0, terms: int | None = None) -> tuple[complex, float]:
    """Plain Dirichlet sum sum_{n <= terms} a(n) chi(n) n^(-s), usable only
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
    m = form.limit if terms is None else int(terms)
    if m > form.limit:
        raise ValueError(f"only {form.limit} coefficients loaded")

    ns = np.arange(1, m + 1, dtype=np.float64)
    value = _dot(form.coefficient_array(m)[1:] * ns ** (-s), _table(chi))
    alpha = s - (k - 1) / 2.0 - float(form.theta)
    return value, float(2.0 * _divisor_sum_tail(m, alpha))
