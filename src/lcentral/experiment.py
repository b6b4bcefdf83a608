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
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .afe import (AFEConfig, averaged_coefficient_lvalue, exponent_window,
                  load_for_sums, orbit_average_lvalue)
from .charsums import CoefficientFieldContext
from .cones import prime_above
from .fields import nf_load
from .newforms import newform_load
from .rayclass import (PrimeContext, rcg_build, require_odd_prime,
                       seed_character)

TREND_NOTE = ("averaged values approach 1 only as the conductor grows without "
              "bound; at these desk-scale levels the report witnesses the "
              "decreasing deviation, not the limit itself")


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one averaging scan, all deterministic.

    y follows the balance rule y = N(P)^(a*n); a must sit strictly inside
    the exponent window for the form's coefficient-growth exponent, else
    the envelope terms do not all decay and the scan refuses to start.
    threads is the number of workers that build the coefficient table, one
    transformed CRT prime each; the levels run in order, and no number
    depends on it.
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


@dataclass(frozen=True, kw_only=True)
class ExperimentRow:
    """One level of a scan; a failed level keeps the defaults and its error."""

    n: int
    conductor: int = 0
    orbit_size: int = 0
    seed_label: str = ""
    y: float
    lav_re: float = math.nan
    lav_im: float = math.nan
    main_term_re: float = math.nan
    main_term_im: float = math.nan
    deviation: float = math.nan        # |L_av - 1|
    envelope: tuple = ()               # the three decay terms at this n
    dual_magnitude: float = math.nan   # size of the reflected (dual) part
    route_gap: float = math.nan        # |route a - route b|
    min_abs_value: float = math.nan
    flags: tuple = ()                  # per-character |L| > floor, orbit order
    error_estimate: float = math.nan
    seconds: float
    error: str | None = None

    @property
    def clean(self) -> bool:
        """The row's verdict: no error, and every member's |L| above the floor."""
        return self.error is None and all(self.flags)


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

    The coefficient table holds the longest cutoff the sums will pick at any
    level of the scan.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.nf = nf_load(cfg.field)
        if cfg.n_lo < 1 or cfg.n_hi < cfg.n_lo:
            raise ValueError("need 1 <= n_lo <= n_hi")
        if not (math.isfinite(cfg.eps) and cfg.eps > 0):
            raise ValueError(f"eps must be finite and above 0, got {cfg.eps!r}")
        if not math.isfinite(cfg.a):
            raise ValueError(f"a must be finite, got {cfg.a!r}")
        for name, value in (("route_tol", cfg.route_tol),
                            ("nonvanish_floor (--floor)", cfg.nonvanish_floor)):
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and at least 0, got {value!r}")
        require_odd_prime(cfg.p)
        form_probe = newform_load(cfg.form, limit=16)
        if nf_load(form_probe.field_label).label != self.nf.label:
            raise ValueError(f"form {form_probe.label} is over "
                             f"{form_probe.field_label}, not {cfg.field}")
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
        self.delta_order = rcg_build(self.ctx, 1).delta_order
        lo, hi = exponent_window(Fraction(form_probe.theta) + Fraction(cfg.eps),
                                 self.delta_order)
        self.window = (float(lo), float(hi))
        if not (lo < Fraction(cfg.a) < hi):
            raise ValueError(
                f"a = {cfg.a} is outside the admissible window ({float(lo):.4f}, "
                f"{float(hi):.4f}) for theta = {self.theta}, eps = {cfg.eps}, "
                f"|Delta| = {self.delta_order}")
        self.coef_ctx = CoefficientFieldContext(p=cfg.p, n0=self.n0)

        # the rows sum at each level's seed conductor p^level
        self.form = load_for_sums(cfg.form, form_probe, [
            (cfg.p ** (n + self.n0 + 1), _balance_point(cfg, n))
            for n in range(cfg.n_lo, cfg.n_hi + 1)], tol=cfg.tol, threads=cfg.threads)

    def seed_character(self, level: int):
        return seed_character(rcg_build(self.ctx, level))


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
        mean_a, res = orbit_average_lvalue(setup.form, seed, setup.coef_ctx,
                                           y=y, tol=cfg.tol)
        mean_b, info = averaged_coefficient_lvalue(setup.form, seed, setup.coef_ctx,
                                                   y=y, tol=cfg.tol)
        gap = abs(mean_a - mean_b)
        if gap > cfg.route_tol * max(1.0, abs(mean_a)):
            raise ArithmeticError(
                f"independent averaging routes disagree at n={n}: gap {gap:.3g}")
        # np.abs can differ from the builtin abs by one ulp; np.hypot does not
        magnitudes = np.hypot(res.value.real, res.value.imag)
        return ExperimentRow(
            n=n,
            conductor=seed.conductor_norm,
            orbit_size=len(magnitudes),
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
            min_abs_value=float(magnitudes.min()),
            flags=tuple((magnitudes > cfg.nonvanish_floor).tolist()),
            error_estimate=res.error_estimate,
            seconds=time.perf_counter() - t0,
        )
    except (ValueError, ArithmeticError) as exc:   # a row failure stays in the report
        return ExperimentRow(n=n, y=y, seconds=time.perf_counter() - t0,
                             error=f"{type(exc).__name__}: {exc}")


def run_lav_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Scan the configured levels and assemble the report (rows in n order)."""
    setup = _Setup(cfg)
    rows = tuple(_run_row(setup, n) for n in range(cfg.n_lo, cfg.n_hi + 1))
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


def halved_cutoff_gap(cfg: ExperimentConfig, n: int | None = None) -> tuple:
    """Re-average one level with both cutoffs halved.

    Returns (gap, error_estimate): the largest change of any orbit member
    from the reported sums to the halved ones, and the halved sums' own error
    estimate, whose tail majorants must cover the terms they dropped.  The
    halved configuration is accepted at any tail budget (tol = 1), so the
    check sees an undersized majorant rather than a refusal.
    """
    n = cfg.n_lo if n is None else n
    setup = _Setup(replace(cfg, n_lo=n, n_hi=n))
    seed = setup.seed_character(n + setup.n0 + 1)

    _, full = orbit_average_lvalue(setup.form, seed, setup.coef_ctx,
                                   y=_balance_point(cfg, n), tol=cfg.tol)
    half = AFEConfig(y=full.y, cutoff_main=full.terms_main // 2,
                     cutoff_dual=full.terms_dual // 2, tol=1.0)
    _, short = orbit_average_lvalue(setup.form, seed, setup.coef_ctx, cfg=half)
    return float(np.abs(full.value - short.value).max()), short.error_estimate


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
