"""Numbered acceptance checks behind `lcentral verify`.

Each criterion is one function returning (passed, detail); the runner times
them and renders one pass/fail line per criterion with the measured
constants inline.  A criterion that fails with an arithmetic or input error
(ValueError, ArithmeticError) gets a FAIL line; any other exception is a
programming error and crashes the sweep.

A failed line is a finding, not necessarily a bug: criterion 3 documents a
support predicate that is provably wrong at depth n0 = 1, and the check
reports the exact mismatch layer instead of hiding it.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .afe import afe_lvalue, direct_series, functional_equation_residual
from .charsums import (CoefficientFieldContext, average_char, gauss_sum,
                       kloosterman_bound_report, root_number)
from .cones import (count_progression, min_norm_coset, prime_above,
                    torsion_norm_bound, verify_count_bound)
from .experiment import NONVANISH_FLOOR, ExperimentConfig, run_lav_experiment
from .fields import nf_load
from .kernels import GammaFactor, VKernel
from .newforms import builtin_newform, newform_load
from .rayclass import rcg_build, residue_characters, seed_character
from .roots import CyclotomicNumber
from .tau import primes_up_to, tau_exact


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    @property
    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.number:2d} {self.name:<22s} {self.seconds:6.1f}s  {self.detail}"


@dataclass(frozen=True)
class AcceptanceReport:
    results: tuple[CriterionResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def lines(self) -> list[str]:
        total = sum(r.seconds for r in self.results)
        out = ["acceptance sweep"]
        out.extend(r.line for r in self.results)
        failed = [r.number for r in self.results if not r.passed]
        if failed:
            out.append(f"{len(failed)} criterion(s) failed: {failed}  "
                       f"[total {total:.1f}s]")
        else:
            out.append(f"all {len(self.results)} criteria passed  [total {total:.1f}s]")
        return out


# ---------------------------------------------------------------------------
# shared fixtures (built lazily, cached per process; nf_load keeps the fields)

@lru_cache(maxsize=None)
def _delta():
    return builtin_newform("delta", limit=100000)


def _rational_primitives(p_list, n_max):
    """Primitive ray class characters of conductor p^n over the rationals."""
    Q = nf_load("rationals")
    for p in p_list:
        ctx = prime_above(Q, p)
        for n in range(1, n_max + 1):
            rcg = rcg_build(ctx, n)
            for chi in rcg.characters():
                if chi.is_primitive():
                    yield chi


# ---------------------------------------------------------------------------
# criteria

def _c01_gauss_modulus():
    worst, n_rat = 0.0, 0
    for chi in _rational_primitives((3, 5, 7), 3):
        g = gauss_sum(chi)
        worst = max(worst, abs(abs(g) ** 2 - chi.conductor_norm))
        n_rat += 1
    K = nf_load("quadratic-sqrt2")
    ctx = prime_above(K, 7)
    sample = residue_characters(ctx, 2)[:10]
    for chi in sample:
        g = gauss_sum(chi)
        worst = max(worst, abs(abs(g) ** 2 - chi.conductor_norm))
    ok = worst < 1e-9
    return ok, (f"{n_rat} rational + {len(sample)} quadratic-field characters, "
                f"max | |G|^2 - N(cond) | = {worst:.2e}")


def _c02_gauss_identities():
    rng = random.Random(20260819)
    shifts_per_char = 50
    exact_checked = pair_worst = 0.0
    n_char = n_shift = 0
    chars = list(_rational_primitives((3, 5), 2))
    K = nf_load("quadratic-sqrt2")
    chars += residue_characters(prime_above(K, 7), 2)[:2]
    for chi in chars:
        base = gauss_sum(chi, exact=True)
        mod = chi.conductor_norm
        p = chi.p
        n_char += 1
        done = 0
        while done < shifts_per_char:
            a = rng.randrange(1, mod)
            if a % p == 0:
                continue
            lhs = gauss_sum(chi, shift=a, exact=True)
            rhs = base * CyclotomicNumber.from_root(chi.value_on_ideal_of(a))
            if lhs != rhs:
                return False, f"shift identity broken at {chi.label}, a = {a}"
            done += 1
            n_shift += 1
        pair = gauss_sum(chi.conjugate()) * gauss_sum(chi)
        sign = chi.value_on_ideal_of(-1).conjugate().to_complex()
        pair_worst = max(pair_worst, abs(pair - sign * mod))
    ok = pair_worst < 1e-9
    return ok, (f"{n_shift} exact shift identities over {n_char} characters; "
                f"max |G(conj)G - chi(-1)N(cond)| = {pair_worst:.2e}")


def _c03_average_support():
    """average_char vs. the two candidate support predicates, exhaustively.

    The relaxed predicate (nonzero iff the value order divides p^(n0+1)) is
    right at n0 = 0: the orbit there is the full unit group and the order-p
    layer averages to a nonzero rational.  At n0 = 1 the orbit is an
    additive coset 1 + p Z, so order-p^2 values average to exactly zero and
    the relaxed predicate overshoots on precisely that layer.  The check
    measures both mismatch sets and fails honestly on the n0 = 1 half.
    """
    Q = nf_load("rationals")
    ctx = prime_above(Q, 5)
    # nontrivial 5-power-order characters need modulus 25 at least; the
    # conductor cap stays at 625
    levels = (2, 3, 4)
    parts = []
    all_ok = True
    for n0 in (0, 1):
        cfc = CoefficientFieldContext(p=5, n0=n0)
        checked = 0
        corr_mism = []   # value-order exponents where corrected != actual
        paper_mism = []
        for n in levels:
            rcg = rcg_build(ctx, n)
            chi = seed_character(rcg)
            mod = 5 ** n
            for a in range(1, mod):
                if a % 5 == 0:
                    continue
                checked += 1
                # chi(a) has order 5^j: the paper's support rule is j <= n0,
                # the relaxed one j <= n0 + 1
                _, j = chi.value_on_ideal_of(a).order_p_part(5)
                actual = not average_char(chi, cfc, a).is_zero()
                if (j <= n0 + 1) != actual:
                    corr_mism.append(j)
                if (j <= n0) != actual:
                    paper_mism.append(j)
        layer = n0 + 1
        corr_exact = not corr_mism
        corr_on_layer = all(j == layer for j in corr_mism)
        paper_on_layer = all(j == layer for j in paper_mism)
        if not (corr_on_layer and paper_on_layer):
            parts.append(f"n0={n0}: mismatch OUTSIDE the order-5^{layer} layer")
            all_ok = False
            continue
        if corr_exact:
            parts.append(
                f"n0={n0}: relaxed predicate exact on {checked} residues, "
                f"strict one misses the order-5^{layer} layer ({len(paper_mism)} residues)")
        else:
            # the advertised predicate is provably wrong here; keep the red
            parts.append(
                f"n0={n0}: relaxed predicate overshoots on exactly the "
                f"order-5^{layer} layer ({len(corr_mism)} of {checked} residues) "
                f"where the orbit is an additive coset and the average is 0")
            all_ok = False
    return all_ok, "; ".join(parts)


def _c04_root_numbers():
    worst, count = 0.0, 0
    for chi in _rational_primitives((3, 5, 7), 3):
        w = root_number(chi)
        worst = max(worst, abs(abs(w) - 1.0))
        count += 1
    K = nf_load("quadratic-sqrt2")
    for chi in residue_characters(prime_above(K, 7), 2)[:10]:
        w = root_number(chi)
        worst = max(worst, abs(abs(w) - 1.0))
        count += 1
    ok = worst < 1e-9
    return ok, f"{count} root numbers, max | |W| - 1 | = {worst:.2e}"


def _c05_dual_sum_envelope():
    Q = nf_load("rationals")
    ctx = prime_above(Q, 5)
    cfc = CoefficientFieldContext(p=5, n0=0)
    ns = (1, 2, 3)
    constants = []
    for n in ns:
        rcg = rcg_build(ctx, n + 1)  # conductor exponent n + n0 + 1
        rep = kloosterman_bound_report(seed_character(rcg), cfc)
        if rep["level"] != n:
            return False, f"report level {rep['level']} != {n}"
        constants.append(rep["constant"])
    spread = max(constants) / min(constants)
    # Salie's lemma: |avg dual sum| <= sqrt(p) p^(-n/2), so C <= sqrt(p) (README)
    ok = spread < 4.0 and max(constants) <= math.sqrt(5)
    cs = ", ".join(f"{c:.4f}" for c in constants)
    return ok, (f"max |avg dual sum| <= C * 5^(-n/2) with C = [{cs}] "
                f"over n = {list(ns)}; spread x{spread:.2f} (< 4 required); "
                f"every C <= sqrt(5) = {math.sqrt(5):.4f} (Salie's lemma)")


def _c06_kernel_asymptotics():
    Q = nf_load("rationals")
    G = GammaFactor(Q, (0,))
    V = VKernel(G, 6.0)
    g = G.value(6).real
    env_margin = 0.0
    for x in (1e-2, 1e-4, 1e-6):
        dev = abs(V.value_tail(x) / g - 1.0)
        env_margin = max(env_margin, dev / math.sqrt(x))
    v10, v25, v50 = V.value_tail(np.array([10.0, 25.0, 50.0]))
    decay_ok = (0 < v50 < v25 < v10
                and v25 / v10 < (25 / 10) ** -3
                and v50 / v25 < (50 / 25) ** -3)
    halving = abs(V.value_contour(1.0, h0=0.25) - V.value_contour(1.0, h0=0.125))
    ok = env_margin < 1e-2 and decay_ok and halving < 1e-10
    return ok, (f"small-x deviation <= {env_margin:.2e} * sqrt(x); large-x ratios "
                f"{v25 / v10:.2e}, {v50 / v25:.2e} beat the cubic; "
                f"step-halving gap {halving:.1e}")


def _c07_two_sided_oracle():
    form = _delta()
    Q = nf_load("rationals")
    rcg = rcg_build(prime_above(Q, 5), 2)
    twists = [None] + [chi for chi in rcg.characters()
                       if chi.order == 5 and chi.is_primitive()][:2]
    worst = 0.0
    for chi in twists:
        res = afe_lvalue(form, chi, s=8.0)
        direct, tail = direct_series(form, chi, s=8.0)
        rel = abs(res.value - direct) / abs(direct)
        worst = max(worst, rel)
        if rel >= 1e-8:
            label = "trivial" if chi is None else chi.label
            return False, f"two-sided vs direct gap {rel:.2e} at {label}"
    chi = twists[1]
    y0 = math.sqrt(625.0)
    base = afe_lvalue(form, chi, s=6.0, y=y0).value
    y_worst = 0.0
    for fac in (0.5, 2.0):
        moved = afe_lvalue(form, chi, s=6.0, y=fac * y0).value
        y_worst = max(y_worst, abs(moved - base) / abs(base))
    ok = worst < 1e-8 and y_worst < 1e-8
    return ok, (f"3 twists at s=8 within {worst:.2e} of the direct sum; "
                f"balance-point motion {y_worst:.2e}")


def _c08_reflection_residual():
    form = _delta()
    Q = nf_load("rationals")
    rcg = rcg_build(prime_above(Q, 5), 2)
    chi = next(c for c in rcg.characters() if c.order == 5 and c.is_primitive())
    worst = 0.0
    for s in (5.5, 6.5):
        # the symmetric balance point makes the two sides share terms, so
        # also measure at y = 2 and under a twist, where they genuinely differ
        worst = max(worst,
                    functional_equation_residual(form, None, s=s),
                    functional_equation_residual(form, None, s=s, y=2.0),
                    functional_equation_residual(form, chi, s=s))
    ok = worst < 1e-6
    return ok, (f"max relative reflection residual {worst:.2e} at "
                f"s in (5.5, 6.5), y in (balanced, 2.0), twisted and not")


def _c09_coefficient_bound():
    limit = 10 ** 4
    table = tau_exact(limit)
    primes = primes_up_to(limit)
    worst_p, worst_ratio = 0, 0.0
    for p in primes:
        if table[p] ** 2 > 4 * p ** 11:          # exact integer comparison
            return False, f"|a({p})| exceeds 2 p^(11/2)"
        ratio = abs(table[p]) / (2.0 * p ** 5.5)
        if ratio > worst_ratio:
            worst_p, worst_ratio = p, ratio
    # the loader must reject a corrupted table and say where
    doc = {"label": "corrupted", "weight_vector": [12], "atkin_lehner": -1,
           "coefficients": table[1:61]}
    doc["coefficients"][12] = 10 ** 40           # a(13), stored 0-based
    try:
        newform_load(doc)
        return False, "loader accepted a corrupted coefficient table"
    except ValueError as exc:
        if "(13)" not in str(exc):
            return False, f"loader rejected the corruption but named no ideal: {exc}"
        caught = str(exc)
    return True, (f"{len(primes)} primes <= 1e4, max |a(p)| / 2p^(11/2) = "
                  f"{worst_ratio:.6f} at p = {worst_p}; corrupt entry -> {caught!r}")


def _c10_averaged_values():
    cfg = ExperimentConfig(n_lo=1, n_hi=3)
    t0 = time.perf_counter()
    report = run_lav_experiment(cfg)
    elapsed = time.perf_counter() - t0
    bad = [r.n for r in report.rows if not r.clean]
    if bad:
        return False, f"rows {bad} carry errors or sub-floor values"
    floor = min(r.min_abs_value for r in report.rows)
    gap = max(r.route_gap for r in report.rows)
    devs = {r.n: r.deviation for r in report.rows}
    noted = "approach 1 only as the conductor grows" in report.note
    ok = devs[3] < devs[1] and noted and elapsed < 600 and floor > NONVANISH_FLOOR
    bar = np.format_float_scientific(NONVANISH_FLOOR, trim="-", exp_digits=1)
    return ok, (f"min |L| = {floor:.4f} > {bar} across every orbit; route gap "
                f"{gap:.1e}; |avg - 1|: n=1 {devs[1]:.4f} -> n=3 {devs[3]:.4f} "
                f"(decreasing); limit-caveat noted")


# shipped lattice cases: (field, p, alpha, n, x, window) -> exact count
_SHIPPED_COUNTS = (
    ("rationals", 5, 1, 1, 1.0, "standard", 1),
    ("rationals", 5, 1, 1, 50.0, "standard", 10),
    ("rationals", 5, 1, 1, 500.0, "standard", 100),
    ("rationals", 5, 2, 1, 100.0, "standard", 10),
    ("rationals", 5, 1, 2, 500.0, "standard", 20),
    ("quadratic-sqrt2", 7, 1, 1, 1.0, "standard", 1),
    ("quadratic-sqrt2", 7, 1, 1, 50.0, "standard", 6),
    ("quadratic-sqrt2", 7, 1, 1, 500.0, "standard", 48),
    ("quadratic-sqrt2", 7, 1, 1, 5000.0, "standard", 449),
    ("quadratic-sqrt2", 7, 1, 2, 500.0, "standard", 8),
    ("quadratic-sqrt2", 7, 1, 2, 5000.0, "standard", 68),
    ("quadratic-sqrt2", 7, 1, 1, 500.0, "shifted", 49),
    ("quadratic-sqrt2", 7, 1, 2, 5000.0, "shifted", 65),
    ("quadratic-sqrt2", 7, (0, 1), 1, 500.0, "standard", 23),
)


def _c11_lattice_counts():
    ctxs = {}
    for field, p, alpha, n, x, window, expected in _SHIPPED_COUNTS:
        ctx = ctxs.setdefault((field, p), prime_above(nf_load(field), p))
        got = count_progression(alpha, ctx, n, x, window=window).count
        boxed = count_progression(alpha, ctx, n, x, window=window,
                                  box_factor=2.0).count
        if got != expected or boxed != expected:
            return False, (f"{field} p={p} n={n} x={x:g} {window}: "
                           f"count {got}, enlarged box {boxed}, shipped {expected}")
    ctx5, ctx7 = ctxs[("rationals", 5)], ctxs[("quadratic-sqrt2", 7)]
    sup = verify_count_bound(ctx7, (1, 2), (1.0, 50.0, 500.0, 5000.0)).sup_ratio
    # minimal norms in the coset against the modulus norm
    q_ratios = [min_norm_coset(ctx5, n) / 5 ** n for n in range(1, 5)]
    k_ratios = [min_norm_coset(ctx7, n) / 7 ** n for n in (1, 2)]
    ratio_floor = min(q_ratios + k_ratios)
    torsion_pass = True
    t_consts = []
    for n in (1, 2, 3):
        rep = torsion_norm_bound(rcg_build(ctx5, n))
        torsion_pass &= rep.passed and len(rep.rows) > 0
        t_consts.append(rep.constant)
    ok = sup < 2.0 and ratio_floor >= 0.02 and torsion_pass
    return ok, (f"{len(_SHIPPED_COUNTS)} shipped counts match the enlarged-box oracle "
                f"exactly; count/max(x/N(P)^n, 1) sup {sup:.3f}; min-norm ratio "
                f"floor {ratio_floor:.4f} (>= 0.02; the quadratic-field cosets "
                f"keep norm 2, so the ratio decays with n); torsion constants "
                f"{[f'{c:.3f}' for c in t_consts]} with |Delta| = 2")


CRITERIA = (
    (1, "gauss-modulus", _c01_gauss_modulus),
    (2, "gauss-identities", _c02_gauss_identities),
    (3, "average-support", _c03_average_support),
    (4, "root-numbers", _c04_root_numbers),
    (5, "dual-sum-envelope", _c05_dual_sum_envelope),
    (6, "kernel-asymptotics", _c06_kernel_asymptotics),
    (7, "two-sided-oracle", _c07_two_sided_oracle),
    (8, "reflection-residual", _c08_reflection_residual),
    (9, "coefficient-bound", _c09_coefficient_bound),
    (10, "averaged-values", _c10_averaged_values),
    (11, "lattice-counts", _c11_lattice_counts),
)


def run_acceptance(fast: bool = False, only=None) -> AcceptanceReport:
    """Run the numbered criteria; `only` restricts to an iterable of numbers.
    The reduced sweep is gone: `fast` is kept for callers passing False."""
    if fast:
        raise ValueError("the reduced (fast) acceptance sweep is gone")
    wanted = None if only is None else set(only)
    results = []
    for number, name, fn in CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except (ValueError, ArithmeticError) as exc:   # anything else is a bug
            passed, detail = False, f"crashed: {type(exc).__name__}: {exc}"
        results.append(CriterionResult(number, name, passed, detail,
                                       time.perf_counter() - t0))
    return AcceptanceReport(tuple(results))
