"""Smoothed approximate functional equation for central twisted L-values.

The completed value is assembled from two smoothed half-sums,

    Lam(s) = Med^(s/2) * sum_n a(n) phi(n) n^(-s) V1(n / y)
           + C W(phi) Med^((k-s)/2) * sum_n (eta a)(n) conj(phi)(n)
                                              n^(s-k) V2(n y / Med),

where Med = (level norm) * (twist conductor norm)^2, eta*a are the
reflected coefficients, V1/V2 are gamma-kernel transforms of the smoothing
bump taken at spectral points s and k-s, W is the twist root number and C
the exact archimedean constant.  The reported value is the normalized

    L(s) = Lam(s) / (Gamma_F(s) Med^(s/2)).

Numeric policy: short sums evaluate V through the incomplete-gamma tail
route (no interpolation error at all); bulk sums go through the certified
spline.  Cutoffs default to the measured decay cutoff of V and are always
re-checked against an explicit majorant for the dropped tail -- the
elementary bound d(n) <= sqrt(3 n) turns Ramanujan-bounded coefficients
into a closed-form remainder -- so a configuration that cannot meet the
requested tolerance raises instead of silently under-resolving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .charsums import (CoefficientFieldContext, averaged_char_table,
                       averaged_iota_values, galois_orbit, root_number,
                       substitutions)
from .fields import NumberFieldData, nf_load
from .kernels import GammaFactor, SmoothingKernel, VKernel
from .newforms import NewformData
from .rayclass import HeckeCharacter
from .roots import unit_circle

# Below this many terms a half-sum evaluates V exactly through the tail
# route (no interpolation error); above it the certified spline is used
# (absolute error ~2.5e-13 measured, budgeted at 1e-12 per point).
SPLINE_MIN_TERMS = 20000
SPLINE_ABS_ERR = 1e-12

# Decay orders j for the measured majorants |V(x)| <= K_j x^(-j), x >= 1.
# Small j wins for small scales, large j for conductor-sized balance points.
DECAY_ORDERS = (3, 6, 9, 12, 16, 20)


# ---------------------------------------------------------------------------
# archimedean constant and admissible window

def parity_and_constant(nf: NumberFieldData, type_j, weights) -> tuple[complex, bool]:
    """Constant of the completed reflection identity, with a parity certificate.

    For signature (r1, r2), weight vector k_sigma and J the set of real
    places carrying the twisted discrete series,

        C = (-1)^(r1 + sum over complex places (k_sigma - 1)) * e(q),
        q = sum_{real, not in J} k_sigma/4 - sum_{real, in J} k_sigma/4

    (at a complex place the series parameter is k_sigma - 2 and it enters
    through k_sigma - 2 + 1).  The certificate checks, in exact Fraction
    arithmetic, that (-1)^(r1 (k - 2)) C^2 = 1 for the parallel weight k,
    which is what makes the reflected value land back in the same family.
    """
    r1, r2 = nf.signature
    weights = tuple(int(w) for w in weights)
    if len(weights) != r1 + r2:
        raise ValueError("need one weight entry per archimedean place")
    jset = frozenset(type_j)
    if not jset <= set(range(r1)):
        raise ValueError("twisted places must index real embeddings (0-based)")

    q = Fraction(0)
    for i in range(r1):
        q += Fraction(-weights[i], 4) if i in jset else Fraction(weights[i], 4)
    sign_exp = r1 + sum(weights[r1 + i] - 1 for i in range(r2))

    phase = q % 1
    quarter_table = {
        Fraction(0): 1 + 0j,
        Fraction(1, 4): 1j,
        Fraction(1, 2): -1 + 0j,
        Fraction(3, 4): -1j,
    }
    root = quarter_table.get(phase)
    if root is None:
        root = complex(math.cos(2 * math.pi * phase), math.sin(2 * math.pi * phase))
    c = root if sign_exp % 2 == 0 else -root

    if r1 > 0:
        if len(set(weights[:r1])) != 1:
            raise ValueError("parity certificate needs a parallel weight over the real places")
        k = weights[0]
        parity_ok = (Fraction(r1 * (k - 2), 2) + 2 * q) % 1 == 0
    else:
        parity_ok = (2 * q) % 1 == 0
    return c, parity_ok


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
# shared plumbing (cached: gamma data, V tables and coefficient prefabs are
# reused across every character of an orbit and across levels sharing s)

_BUMP = SmoothingKernel()
_GAMMA_CACHE: dict = {}
_KERNEL_CACHE: dict = {}
_DECAY_CACHE: dict = {}
_V_CACHE: dict = {}
_PREFAB_CACHE: dict = {}
_ABSWEIGHT_CACHE: dict = {}
_INDEX_CACHE: dict = {}
_CHAR_TABLE_CACHE: dict = {}


def _as_field(nf) -> NumberFieldData:
    return nf if isinstance(nf, NumberFieldData) else nf_load(nf)


def gamma_factor_for(nf: NumberFieldData, shifts) -> GammaFactor:
    key = (nf.label, tuple(shifts))
    got = _GAMMA_CACHE.get(key)
    if got is None:
        got = GammaFactor(nf, tuple(shifts))
        _GAMMA_CACHE[key] = got
    return got


def _kernel_key(nf: NumberFieldData, shifts, s: float, sign: int):
    return (nf.label, tuple(shifts), float(s).hex(), sign)


def vkernel_for(nf: NumberFieldData, shifts, s: float, sign: int = 1) -> VKernel:
    key = _kernel_key(nf, shifts, s, sign)
    got = _KERNEL_CACHE.get(key)
    if got is None:
        got = VKernel(gamma_factor_for(nf, shifts), _BUMP, float(s), sign=sign)
        _KERNEL_CACHE[key] = got
    return got


def _decay_constants(kern: VKernel, key) -> dict[int, float]:
    got = _DECAY_CACHE.get(key)
    if got is None:
        hi = max(3.0 * kern.decay_cutoff(), 60.0)
        xs = np.geomspace(1.0, hi, 480)
        vals = np.abs(kern.value_tail(xs))
        got = {j: float(np.max(vals * xs ** j)) for j in DECAY_ORDERS}
        _DECAY_CACHE[key] = got
    return got


def _v_array(kern: VKernel, key, scale: float, count: int) -> np.ndarray:
    """V(n / scale) for n = 1..count (entry 0 of the result is n = 1)."""
    ck = (key, float(scale).hex(), count)
    got = _V_CACHE.get(ck)
    if got is None:
        x = np.arange(1, count + 1, dtype=np.float64) / scale
        if count <= SPLINE_MIN_TERMS:
            got = np.asarray(kern.value_tail(x), dtype=np.float64)
        else:
            got = np.asarray(kern.value(x), dtype=np.float64)
        got.setflags(write=False)
        _V_CACHE[ck] = got
    return got


def _mod_index(count: int, mod: int) -> np.ndarray:
    ck = (count, mod)
    got = _INDEX_CACHE.get(ck)
    if got is None:
        got = np.arange(1, count + 1, dtype=np.int64) % mod
        got.setflags(write=False)
        _INDEX_CACHE[ck] = got
    return got


def character_value_table(chi: HeckeCharacter) -> np.ndarray:
    """chi((r)) for r = 0..mod-1 as a complex vector, 0 where r shares a
    factor with p.  The value at a principal ideal (n), n coprime to p, is
    the table entry at n mod p^m.

    Route one's per-character table: chi(r) = e(j / ord) with
    j = dlog_phase * ord * dlog(r), so each of the ord values is rendered
    once, exactly as RootOfUnity.to_complex renders it, and indexed by j.
    """
    got = _CHAR_TABLE_CACHE.get(chi)
    if got is None:
        phase = chi.dlog_phase
        order = phase.denominator
        dlog = chi.prime_ctx.dlog_array(chi.level)
        units = dlog >= 0
        values = np.array(unit_circle(order), dtype=np.complex128)
        got = np.zeros(len(dlog), dtype=np.complex128)
        got[units] = values[dlog[units] * phase.numerator % order]
        got.setflags(write=False)
        _CHAR_TABLE_CACHE[chi] = got
    return got


def _prefab(form: NewformData, s: float, scale: float, count: int,
            kern: VKernel, key, reflected: bool) -> np.ndarray:
    """a(n) n^(-s) V(n/scale) for n = 1..count, with the reflected sign when
    asked; the character-independent part of a half-sum.  One array serves
    every member of a Galois orbit, which is what makes orbit scans cheap.
    """
    ck = (id(form), float(s).hex(), float(scale).hex(), count, reflected, key)
    got = _PREFAB_CACHE.get(ck)
    if got is not None:
        return got[0]
    coeffs = form.coefficient_array(count)[1:]
    if reflected:
        coeffs = form.eta * coeffs
    ns = np.arange(1, count + 1, dtype=np.float64)
    arr = coeffs * ns ** (-s) * _v_array(kern, key, scale, count)
    arr.setflags(write=False)
    # the form rides along so id() keys cannot be recycled under us
    _PREFAB_CACHE[ck] = (arr, form)
    return arr


def _abs_weights(form: NewformData, s: float, count: int) -> np.ndarray:
    """|a(n)| n^(-s), the base of the spline-error allowance."""
    ck = (id(form), float(s).hex(), count)
    got = _ABSWEIGHT_CACHE.get(ck)
    if got is not None:
        return got[0]
    coeffs = np.abs(form.coefficient_array(count)[1:])
    ns = np.arange(1, count + 1, dtype=np.float64)
    arr = coeffs * ns ** (-s)
    arr.setflags(write=False)
    _ABSWEIGHT_CACHE[ck] = (arr, form)
    return arr


def _half_sum(prefab: np.ndarray, chi: HeckeCharacter | None) -> complex:
    if chi is None:
        return complex(np.sum(prefab))
    tab = character_value_table(chi)
    return complex(np.dot(prefab, tab[_mod_index(len(prefab), chi.rcg.modulus)]))


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


def _half_sum_tail(form: NewformData, kern: VKernel, key,
                   sigma: float, scale: float, m: int) -> float:
    """Bound for the dropped tail of sum_n a(n) phi(n) n^(-sigma) V(n/scale),
    n > m, optimized over the measured decay orders of V."""
    if m < scale:
        return math.inf  # the decay majorants only cover arguments >= 1
    k = form.scalar_weight
    decay = _decay_constants(kern, key)
    best = math.inf
    for j, kj in decay.items():
        alpha = sigma + j - (k - 1) / 2.0 - float(form.theta)
        best = min(best, 2.0 * kj * scale ** j * _divisor_sum_tail(m, alpha))
    return best


# ---------------------------------------------------------------------------
# configuration and result containers

@dataclass(frozen=True)
class AFEConfig:
    """Resolved evaluation parameters for one completed-value computation.

    The two cutoffs are checked against the tail majorants before any sum
    is trusted.  The contour fields record the parameters of a cross-check
    run when one was performed; the production route does not use them.
    """
    y: float
    cutoff_main: int
    cutoff_dual: int
    tol: float = 1e-9
    contour_half_height: float | None = None
    contour_step: float | None = None


class LValueResult(NamedTuple):
    value: complex
    error_estimate: float
    y: float
    terms_main: int
    terms_dual: int
    character_label: str
    main_term: complex
    dual_term: complex


class _Kernels(NamedTuple):
    """The V kernels of the two half-sums at spectral points s and k - s."""
    main: VKernel
    main_key: tuple
    dual: VKernel
    dual_key: tuple


def _kernels(nf: NumberFieldData, shifts, k: int, s: float) -> _Kernels:
    return _Kernels(vkernel_for(nf, shifts, s, 1), _kernel_key(nf, shifts, s, 1),
                    vkernel_for(nf, shifts, k - s, -1),
                    _kernel_key(nf, shifts, k - s, -1))


def _tails(form: NewformData, kern: _Kernels, s: float, med: float, y: float,
           m1: int, m2: int) -> tuple[float, float]:
    """Majorants of the dropped tails past cutoffs (m1, m2) at balance point
    y: the main side, and the dual side weighted as it enters the value."""
    k = form.scalar_weight
    t1 = _half_sum_tail(form, kern.main, kern.main_key, s, y, m1)
    t2 = _half_sum_tail(form, kern.dual, kern.dual_key, k - s, med / y, m2)
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
    nf = _as_field(nf if nf is not None else form.field_label)
    k = form.scalar_weight
    s = 0.5 * k if s is None else float(s)
    med = float(form.level_norm) * conductor_norm * conductor_norm
    y = math.sqrt(med) if y is None else float(y)
    if y <= 0:
        raise ValueError("the balance point y must be positive")
    kern = _kernels(nf, form.gamma_shifts, k, s)
    gamma_abs = abs(gamma_factor_for(nf, form.gamma_shifts).value(s))
    m1 = max(8, math.ceil(kern.main.decay_cutoff() * y), math.ceil(y))
    m2 = max(8, math.ceil(kern.dual.decay_cutoff() * med / y), math.ceil(med / y))
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
    """Everything one completed-value evaluation needs, tails already vetted."""
    nf: NumberFieldData
    k: int
    s: float
    med: float
    cfg: AFEConfig
    kern1: VKernel
    key1: tuple
    kern2: VKernel
    key2: tuple
    gamma_s: complex
    budget: float


def _engine(form: NewformData, nf, chi: HeckeCharacter | None, s: float,
            y: float | None, tol: float, cfg: AFEConfig | None = None) -> _Engine:
    nf = _as_field(nf if nf is not None else form.field_label)
    k = form.scalar_weight
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
            f"form carries coefficients to {form.limit} but the sums need "
            f"{max(m1, m2)}; reload the form with a larger limit")
    tail1, tail2 = _tails(form, kern, s, med, cfg.y, m1, m2)
    budget = (tail1 + tail2) / abs(gamma_s)
    if not budget <= cfg.tol:
        raise ValueError(
            f"cutoffs ({m1}, {m2}) cannot meet tolerance {cfg.tol:g}: "
            f"tail bound {budget:.3g}")
    return _Engine(nf, k, s, med, cfg, kern.main, kern.main_key, kern.dual,
                   kern.dual_key, complex(gamma_s), budget)


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
    with the spline allowance on bulk sums; it is conservative by design.
    """
    k = form.scalar_weight
    s = 0.5 * k if s is None else float(s)
    chi = _normalize_twist(chi)
    eng = _engine(form, nf, chi, s, y, tol, cfg)
    m1, m2 = eng.cfg.cutoff_main, eng.cfg.cutoff_dual
    scale_dual = eng.med / eng.cfg.y
    lam_ratio = eng.med ** (0.5 * (k - 2.0 * s))

    pre1 = _prefab(form, s, eng.cfg.y, m1, eng.kern1, eng.key1, reflected=False)
    pre2 = _prefab(form, k - s, scale_dual, m2, eng.kern2, eng.key2, reflected=True)
    s1 = _half_sum(pre1, chi)
    s2 = _half_sum(pre2, None if chi is None else chi.conjugate())

    w = 1.0 + 0j if chi is None else root_number(chi, form.nebentypus)
    c_const, parity_ok = parity_and_constant(eng.nf, form.type_j, form.weight)
    if not parity_ok:
        raise ValueError("weight/type data fails the reflection parity check")

    dual_term = c_const * w * lam_ratio * s2 / eng.gamma_s
    value = s1 / eng.gamma_s + dual_term

    err = eng.budget
    if m1 > SPLINE_MIN_TERMS:
        err += SPLINE_ABS_ERR * float(np.sum(_abs_weights(form, s, m1))) / abs(eng.gamma_s)
    if m2 > SPLINE_MIN_TERMS:
        err += SPLINE_ABS_ERR * lam_ratio * float(np.sum(_abs_weights(form, k - s, m2))) / abs(eng.gamma_s)

    return LValueResult(
        value=value,
        error_estimate=float(err),
        y=eng.cfg.y,
        terms_main=m1,
        terms_dual=m2,
        character_label="trivial" if chi is None else chi.label,
        main_term=complex(pre1[0] / eng.gamma_s),
        dual_term=dual_term,
    )


def lambda_completed(form: NewformData, chi: HeckeCharacter | None,
                     s: float, y: float | None = None, nf=None,
                     reflected: bool = False, tol: float = 1e-9) -> complex:
    """Completed value Med^(s/2) Gamma_F(s) L(s, form x chi).

    reflected=True evaluates the reflected object instead (coefficients
    eta * a with the conjugate twist), which is what the reflection
    identity compares against at spectral point k - s.
    """
    chi = _normalize_twist(chi)
    eng = _engine(form, nf, chi, float(s), y, tol)
    k, s = eng.k, eng.s
    m1, m2 = eng.cfg.cutoff_main, eng.cfg.cutoff_dual

    # the reflected object swaps coefficient sign and conjugates the twist
    if chi is None:
        chi1 = chi2 = None
    elif reflected:
        chi1, chi2 = chi.conjugate(), chi
    else:
        chi1, chi2 = chi, chi.conjugate()

    pre1 = _prefab(form, s, eng.cfg.y, m1, eng.kern1, eng.key1, reflected=reflected)
    pre2 = _prefab(form, k - s, eng.med / eng.cfg.y, m2, eng.kern2, eng.key2,
                   reflected=not reflected)
    s1 = _half_sum(pre1, chi1)
    s2 = _half_sum(pre2, chi2)

    w = 1.0 + 0j if chi1 is None else root_number(chi1, form.nebentypus)
    c_const, _ = parity_and_constant(eng.nf, form.type_j, form.weight)
    return (eng.med ** (0.5 * s) * s1
            + c_const * w * eng.med ** (0.5 * (k - s)) * s2)


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
    nf = _as_field(nf if nf is not None else form.field_label)
    k = form.scalar_weight
    chi = _normalize_twist(chi)
    cond = 1 if chi is None else chi.conductor_norm
    med = float(form.level_norm) * cond * cond
    y = math.sqrt(med) if y is None else float(y)

    lam = lambda_completed(form, chi, s, y=y, nf=nf)
    lam_ref = lambda_completed(form, chi, k - s, y=med / y, nf=nf, reflected=True)
    w = 1.0 + 0j if chi is None else root_number(chi, form.nebentypus)
    c_const, _ = parity_and_constant(nf, form.type_j, form.weight)
    return abs(lam - c_const * w * lam_ref) / abs(lam)


# ---------------------------------------------------------------------------
# orbit averages: two independent routes

def orbit_average_lvalue(form: NewformData, chi: HeckeCharacter,
                         ctx: CoefficientFieldContext,
                         y: float | None = None, nf=None,
                         tol: float = 1e-9) -> tuple[complex, list[LValueResult]]:
    """Route one: the plain mean of central values over the Galois orbit of
    the twist.  Returns (mean, per-character results).  A trivial seed has
    a one-element orbit, so this degenerates to the untwisted value.

    Per character and float: each member gets its own character table and
    its own float Gauss sum and root number.
    """
    orbit = galois_orbit(chi, ctx)
    results = [afe_lvalue(form, tw, y=y, nf=nf, tol=tol) for tw in orbit]
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
    the Galois action, and each mean is taken once per value chi(r)
    (charsums.averaged_char_table / averaged_iota_values).
    """
    if chi.is_trivial():
        res = afe_lvalue(form, None, y=y, nf=nf, tol=tol)
        return res.value, {"orbit_size": 1, "main_term": res.main_term,
                           "dual_part": res.dual_term,
                           "terms": (res.terms_main, res.terms_dual),
                           "tail_bound": res.error_estimate}
    if not chi.is_primitive():
        raise ValueError("seed twist must be primitive at its level")

    k = form.scalar_weight
    s = 0.5 * k
    eng = _engine(form, nf, chi, s, y, tol)
    m1, m2 = eng.cfg.cutoff_main, eng.cfg.cutoff_dual
    mod = chi.conductor_norm

    # averaged twist per unit residue (exact cyclotomic means), and the
    # averaged reflected weights (root number times conjugate values)
    direct_tab = averaged_char_table(chi, ctx)
    reflect_tab = averaged_iota_values(chi, ctx, form.nebentypus)

    pre1 = _prefab(form, s, eng.cfg.y, m1, eng.kern1, eng.key1, reflected=False)
    pre2 = _prefab(form, k - s, eng.med / eng.cfg.y, m2, eng.kern2, eng.key2,
                   reflected=True)
    s1 = complex(np.dot(pre1, direct_tab[_mod_index(m1, mod)]))
    s2 = complex(np.dot(pre2, reflect_tab[_mod_index(m2, mod)]))

    c_const, parity_ok = parity_and_constant(eng.nf, form.type_j, form.weight)
    if not parity_ok:
        raise ValueError("weight/type data fails the reflection parity check")

    value = (s1 + c_const * s2) / eng.gamma_s
    info = {
        "orbit_size": len(substitutions(chi, ctx)),
        "main_term": complex(pre1[0] / eng.gamma_s),
        "dual_part": c_const * s2 / eng.gamma_s,
        "terms": (m1, m2),
        "tail_bound": eng.budget,
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
    k = form.scalar_weight
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

    coeffs = form.coefficient_array(m)[1:]
    ns = np.arange(1, m + 1, dtype=np.float64)
    weights = coeffs * ns ** (-s)
    if chi is None:
        value = complex(np.sum(weights))
    else:
        tab = character_value_table(chi)
        value = complex(np.dot(weights, tab[_mod_index(m, chi.rcg.modulus)]))

    alpha = s - (k - 1) / 2.0 - float(form.theta)
    return value, float(2.0 * _divisor_sum_tail(m, alpha))
