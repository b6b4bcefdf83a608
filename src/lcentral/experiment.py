"""Averaged central values along a tower of p-power conductors.

One experiment fixes a newform and a degree-one prime, then walks levels
n = lo..hi: at each level it picks the canonical primitive seed twist,
averages the central values over the twist's Galois orbit by two
independent routes, and sizes the deviation of the average from 1 against
the decay envelope that the averaging argument predicts.  Rows carry
per-character nonvanishing flags and timings; reports serialize to JSON
and round-trip losslessly.

The averaged values only drift toward 1 at desk-scale conductors.  The
report says so explicitly rather than extrapolating: the trend across the
computed levels is the deliverable, not the limit.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path

from .afe import (AFEConfig, averaged_coefficient_lvalue, choose_cutoffs,
                  exponent_window, orbit_average_lvalue)
from .charsums import CoefficientFieldContext
from .cones import prime_above
from .fields import nf_load
from .newforms import newform_load
from .rayclass import PrimeContext, rcg_build, seed_character

TREND_NOTE = ("averaged values approach 1 only as the conductor grows without "
              "bound; at these desk-scale levels the report witnesses the "
              "decreasing deviation, not the limit itself")


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one averaging scan, all deterministic.

    y follows the balance rule y = N(P)^(a*n); a must sit strictly inside
    the exponent window for the form's coefficient-growth exponent, else
    the envelope terms do not all decay and the scan refuses to start.
    """

    field: str = "rationals"
    form: str = "delta"
    p: int = 5
    pi_coords: tuple | None = None     # explicit generator; default smallest
    n_lo: int = 1
    n_hi: int = 3
    a: float = 2.0
    eps: float = 0.01
    tol: float = 1e-9
    route_tol: float = 1e-7
    nonvanish_floor: float = 1e-3
    threads: int = 1
    out: str | None = None


@dataclass(frozen=True)
class ExperimentRow:
    n: int
    conductor: int
    orbit_size: int
    seed_label: str
    y: float
    lav_re: float
    lav_im: float
    main_term_re: float
    main_term_im: float
    deviation: float                   # |L_av - 1|
    envelope: tuple                    # the three decay terms at this n
    dual_magnitude: float              # size of the reflected (dual) part
    route_gap: float                   # |route a - route b|
    min_abs_value: float
    flags: tuple                       # per-character |L| > floor, orbit order
    error_estimate: float
    seconds: float
    error: str | None = None


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    field_label: str
    form_label: str
    p: int
    pi_coords: tuple
    n0: int
    delta_order: int
    theta: float
    window: tuple                      # admissible (lo, hi) for a
    rows: tuple
    note: str = TREND_NOTE


class _Setup:
    """Validated, loaded inputs shared by every row of a scan.

    The coefficient table holds cutoff_multiple times the longest cutoff the
    sums will pick at any level of the scan (the doubled-cutoff cross-check
    asks for 2).
    """

    def __init__(self, cfg: ExperimentConfig, cutoff_multiple: int = 1):
        self.cfg = cfg
        self.nf = nf_load(cfg.field)
        if cfg.n_lo < 1 or cfg.n_hi < cfg.n_lo:
            raise ValueError("need 1 <= n_lo <= n_hi")
        if cfg.eps <= 0:
            raise ValueError("eps must be positive")
        if cfg.p % 2 == 0:
            raise ValueError("p must be odd")
        form_probe = newform_load(cfg.form, limit=16)
        self.n0 = form_probe.n0

        if cfg.pi_coords is not None:
            self.ctx = PrimeContext(self.nf, cfg.p,
                                    self.nf.element(list(cfg.pi_coords)))
        else:
            self.ctx = prime_above(self.nf, cfg.p)
        self.ctx.check_level(cfg.n_hi + self.n0 + 1)

        self.theta = float(form_probe.theta)
        blocked = (self.nf.class_number * abs(self.nf.discriminant)
                   * form_probe.level_norm)
        if blocked % cfg.p == 0:
            raise ValueError(
                f"p = {cfg.p} divides the class number, the discriminant, or "
                f"the level; the averaging argument needs it prime to all three")

        # the window is taken at theta + eps: that is precisely the condition
        # for all three envelope terms to decay with the level
        self.delta_order = rcg_build(self.nf, self.ctx, 1).delta_order
        lo, hi = exponent_window(Fraction(form_probe.theta) + Fraction(cfg.eps),
                                 self.delta_order)
        self.window = (float(lo), float(hi))
        if not (lo < Fraction(cfg.a) < hi):
            raise ValueError(
                f"a = {cfg.a} is outside the admissible window ({float(lo):.4f}, "
                f"{float(hi):.4f}) for theta = {self.theta}, eps = {cfg.eps}, "
                f"|Delta| = {self.delta_order}")
        self.coef_ctx = CoefficientFieldContext(p=cfg.p, n0=self.n0)

        # the cutoffs the rows will pick at each level's seed conductor
        # p^level; they depend on the form only through its header
        demand = max(max(c.cutoff_main, c.cutoff_dual) for c in (
            choose_cutoffs(form_probe, self.nf, cfg.p ** (n + self.n0 + 1),
                           y=_balance_point(cfg, n), tol=cfg.tol)
            for n in range(cfg.n_lo, cfg.n_hi + 1)))
        need = cutoff_multiple * demand
        self.form = newform_load(cfg.form, limit=need)
        if self.form.limit < need:
            # a full-table document carries its own length
            raise ValueError(f"form carries coefficients to {self.form.limit} "
                             f"but the scan needs {need}")

    def seed_character(self, level: int):
        return seed_character(rcg_build(self.nf, self.ctx, level))


def envelope_terms(p: int, n: int, theta: float, eps: float, a: float,
                   delta_order: int) -> tuple:
    """The three decay terms controlling |L_av - 1| at level n.

    All three are negative powers of N(P) whenever a sits inside the
    admissible window, which is exactly what the config validation pins.
    """
    q = float(p)
    e1 = (theta + eps - 0.5) / delta_order
    e2 = a * (0.5 + theta + eps) - (1.0 + 1.0 / delta_order)
    e3 = (2.0 * theta + 2.0 * eps + 0.5) - a * (theta + eps + 0.5)
    return (q ** (n * e1), q ** (n * e2), q ** (n * e3))


def _balance_point(cfg: ExperimentConfig, n: int) -> float:
    """y = N(P)^(a n), the balance rule of the scan."""
    return float(cfg.p) ** (cfg.a * n)


def _run_row(setup: _Setup, n: int) -> ExperimentRow:
    cfg = setup.cfg
    level = n + setup.n0 + 1
    y = _balance_point(cfg, n)
    t0 = time.perf_counter()
    try:
        seed = setup.seed_character(level)
        mean_a, results = orbit_average_lvalue(
            setup.form, seed, setup.coef_ctx, y=y, nf=setup.nf, tol=cfg.tol)
        mean_b, info = averaged_coefficient_lvalue(
            setup.form, seed, setup.coef_ctx, y=y, nf=setup.nf, tol=cfg.tol)
        gap = abs(mean_a - mean_b)
        if gap > cfg.route_tol * max(1.0, abs(mean_a)):
            raise ArithmeticError(
                f"independent averaging routes disagree at n={n}: gap {gap:.3g}")
        magnitudes = [abs(r.value) for r in results]
        return ExperimentRow(
            n=n,
            conductor=seed.conductor_norm,
            orbit_size=len(results),
            seed_label=seed.label,
            y=y,
            lav_re=mean_a.real,
            lav_im=mean_a.imag,
            main_term_re=info["main_term"].real,
            main_term_im=info["main_term"].imag,
            deviation=abs(mean_a - 1.0),
            envelope=envelope_terms(cfg.p, n, setup.theta, cfg.eps, cfg.a,
                                    setup.delta_order),
            dual_magnitude=abs(info["dual_part"]),
            route_gap=gap,
            min_abs_value=min(magnitudes),
            flags=tuple(m > cfg.nonvanish_floor for m in magnitudes),
            error_estimate=max(r.error_estimate for r in results),
            seconds=time.perf_counter() - t0,
        )
    except (ValueError, ArithmeticError) as exc:   # a row failure stays in the report
        return ExperimentRow(
            n=n, conductor=0, orbit_size=0, seed_label="", y=y,
            lav_re=math.nan, lav_im=math.nan, main_term_re=math.nan,
            main_term_im=math.nan, deviation=math.nan, envelope=(),
            dual_magnitude=math.nan, route_gap=math.nan,
            min_abs_value=math.nan, flags=(), error_estimate=math.nan,
            seconds=time.perf_counter() - t0,
            error=f"{type(exc).__name__}: {exc}")


def run_lav_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Scan the configured levels and assemble the report (rows in n order)."""
    setup = _Setup(cfg)
    levels = list(range(cfg.n_lo, cfg.n_hi + 1))
    if cfg.threads > 1 and len(levels) > 1:
        with ThreadPoolExecutor(max_workers=min(cfg.threads, len(levels))) as pool:
            rows = tuple(pool.map(lambda n: _run_row(setup, n), levels))
    else:
        rows = tuple(_run_row(setup, n) for n in levels)
    report = ExperimentReport(
        config=cfg,
        field_label=setup.nf.label,
        form_label=setup.form.label,
        p=cfg.p,
        pi_coords=tuple(str(c) for c in setup.ctx.pi.coords),
        n0=setup.n0,
        delta_order=setup.delta_order,
        theta=setup.theta,
        window=setup.window,
        rows=rows,
    )
    if cfg.out:
        Path(cfg.out).write_text(report_to_json(report))
    return report


def doubled_cutoff_gap(cfg: ExperimentConfig, n: int | None = None) -> tuple:
    """Re-average one level with both cutoffs doubled.

    Returns (gap, error_estimate): the change in the averaged value must
    stay below the reported error estimate, otherwise the tail majorants
    are not doing their job.
    """
    n = cfg.n_lo if n is None else n
    setup = _Setup(replace(cfg, n_lo=n, n_hi=n), cutoff_multiple=2)
    level = n + setup.n0 + 1
    seed = setup.seed_character(level)
    y = _balance_point(cfg, n)

    mean, base = orbit_average_lvalue(setup.form, seed, setup.coef_ctx, y=y,
                                      nf=setup.nf, tol=cfg.tol)
    big = AFEConfig(y=base[0].y, cutoff_main=2 * base[0].terms_main,
                    cutoff_dual=2 * base[0].terms_dual, tol=cfg.tol)
    mean_big, _ = orbit_average_lvalue(setup.form, seed, setup.coef_ctx,
                                       cfg=big, nf=setup.nf)
    return abs(mean - mean_big), max(r.error_estimate for r in base)


# ---------------------------------------------------------------------------
# lossless JSON round-trip
# ---------------------------------------------------------------------------

def report_to_json(report: ExperimentReport) -> str:
    doc = asdict(report)
    return json.dumps(doc, indent=2, allow_nan=True)


def _row_from_dict(d: dict) -> ExperimentRow:
    d = dict(d)
    d["envelope"] = tuple(d["envelope"])
    d["flags"] = tuple(d["flags"])
    return ExperimentRow(**d)


def report_from_json(text: str) -> ExperimentReport:
    doc = json.loads(text)
    cfg = dict(doc["config"])
    if cfg.get("pi_coords") is not None:
        cfg["pi_coords"] = tuple(cfg["pi_coords"])
    doc["config"] = ExperimentConfig(**cfg)
    doc["pi_coords"] = tuple(doc["pi_coords"])
    doc["window"] = tuple(doc["window"])
    doc["rows"] = tuple(_row_from_dict(r) for r in doc["rows"])
    return ExperimentReport(**doc)
