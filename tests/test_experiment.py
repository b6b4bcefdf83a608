"""Averaging scans: config validation, frozen level values, report plumbing."""

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lcentral
from lcentral.afe import afe_lvalue, exponent_window, orbit_average_lvalue
from lcentral.experiment import (NONVANISH_FLOOR, ExperimentConfig, ExperimentReport,
                                 ExperimentRow, _run_row, _Setup, envelope_terms,
                                 halved_cutoff_gap, report_from_json, report_to_json,
                                 run_lav_experiment)
from oracles import BumpVKernel


@pytest.fixture(scope="module")
def scan12():
    return run_lav_experiment(ExperimentConfig(n_lo=1, n_hi=2))


def test_config_rejects_bad_exponent():
    # theta = 0, eps = 0.01, |Delta| = 2: admissible window is about (1.02, 2.94)
    with pytest.raises(ValueError, match="window"):
        run_lav_experiment(ExperimentConfig(a=3.0))
    with pytest.raises(ValueError, match="window"):
        run_lav_experiment(ExperimentConfig(a=1.0))


def test_config_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match="odd"):
        run_lav_experiment(ExperimentConfig(p=2))
    with pytest.raises(ValueError, match="n_lo"):
        run_lav_experiment(ExperimentConfig(n_lo=0))
    with pytest.raises(ValueError, match="n_lo"):
        run_lav_experiment(ExperimentConfig(n_lo=2, n_hi=1))
    with pytest.raises(ValueError, match="eps"):
        run_lav_experiment(ExperimentConfig(eps=0.0))


def test_window_nonempty_at_best_known_exponent():
    lo, hi = exponent_window(Fraction(7, 64), 2)
    assert lo < hi
    assert lo == Fraction(46, 39) and hi == Fraction(96, 39)


def test_envelope_terms_decay():
    t1 = envelope_terms(5, 1, 0.0, 0.01, 2.0, 2)
    assert t1 == pytest.approx((5 ** -0.245, 5 ** -0.48, 5 ** -0.5))
    t2 = envelope_terms(5, 2, 0.0, 0.01, 2.0, 2)
    assert all(b < a < 1.0 for a, b in zip(t1, t2))


def test_scan_frozen_rows(scan12):
    r1, r2 = scan12.rows
    assert (r1.n, r1.conductor, r1.orbit_size) == (1, 25, 4)
    assert (r2.n, r2.conductor, r2.orbit_size) == (2, 125, 20)
    assert r1.lav_re == pytest.approx(1.1328540440214652, abs=1e-9)
    assert abs(r1.lav_im) < 1e-12
    assert r2.lav_re == pytest.approx(1.8737658256, abs=1e-6)
    assert r1.deviation == pytest.approx(0.132854, abs=1e-5)
    assert r2.deviation == pytest.approx(0.873766, abs=1e-5)
    for row in scan12.rows:
        assert row.error is None
        assert row.route_gap < 1e-12
        assert all(row.flags) and len(row.flags) == row.orbit_size
        assert row.min_abs_value > 1e-3
        assert row.seconds >= 0.0
        assert row.main_term_re == pytest.approx(1.0, abs=1e-3)
    assert scan12.field_label == "rationals"
    assert scan12.form_label == "delta"
    assert (scan12.n0, scan12.delta_order) == (0, 2)
    assert scan12.window == pytest.approx((1.0196078, 2.9411765))
    assert "not the limit" in scan12.note


def test_scan_threads_match_serial(scan12):
    rep = run_lav_experiment(ExperimentConfig(n_lo=1, n_hi=2, threads=2))
    for serial, threaded in zip(scan12.rows, rep.rows):
        assert dataclasses.replace(serial, seconds=0.0) == \
            dataclasses.replace(threaded, seconds=0.0)


def _scan_json(blas_threads: str) -> dict:
    src = str(Path(lcentral.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-m", "lcentral.cli", "lav-scan", "--p", "5",
         "--n-lo", "1", "--n-hi", "3", "--a", "2"],
        check=True, text=True, capture_output=True,
        env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": blas_threads})
    doc = json.loads(out.stdout)
    for row in doc["rows"]:
        del row["seconds"]
    return doc


def test_no_row_depends_on_the_blas_thread_count():
    # a dot past OpenBLAS's threading threshold sums in an order its thread
    # count sets; every np.dot of the package stays below it
    assert json.dumps(_scan_json("1")) == json.dumps(_scan_json("2"))


def test_explicit_prime_generator_matches_default(scan12):
    rep = run_lav_experiment(ExperimentConfig(n_lo=1, n_hi=1, pi_coords=(5,)))
    assert dataclasses.replace(rep.rows[0], seconds=0.0) == \
        dataclasses.replace(scan12.rows[0], seconds=0.0)


def test_report_round_trip(scan12, tmp_path):
    text = report_to_json(scan12)
    assert report_from_json(text) == scan12
    # and through a file, the way the CLI writes it
    out = tmp_path / "scan.json"
    rep = run_lav_experiment(ExperimentConfig(n_lo=1, n_hi=1, out=str(out)))
    assert report_from_json(out.read_text()) == rep
    doc = json.loads(text)
    assert [row["n"] for row in doc["rows"]] == [1, 2]


def test_failed_row_is_reported_not_raised(monkeypatch):
    import lcentral.experiment as experiment
    monkeypatch.setattr(experiment, "ROUTE_TOL", 1e-18)
    rep = run_lav_experiment(ExperimentConfig(n_lo=1, n_hi=1))
    row = rep.rows[0]
    assert row.error is not None and "routes disagree" in row.error
    assert math.isnan(row.lav_re)
    assert row.flags == ()
    # the row's JSON: every key in place, NaN and empty where nothing was computed
    doc = json.loads(report_to_json(rep))["rows"][0]
    assert list(doc) == [
        "n", "conductor", "orbit_size", "seed_label", "y", "lav_re", "lav_im",
        "main_term_re", "main_term_im", "deviation", "envelope", "dual_magnitude",
        "route_gap", "min_abs_value", "flags", "error_estimate", "seconds", "error"]
    assert (doc["n"], doc["y"]) == (1, 25.0)
    assert json.dumps({k: v for k, v in doc.items()
                       if k not in ("n", "y", "seconds", "error")}) == (
        '{"conductor": 0, "orbit_size": 0, "seed_label": "", "lav_re": NaN, '
        '"lav_im": NaN, "main_term_re": NaN, "main_term_im": NaN, "deviation": NaN, '
        '"envelope": [], "dual_magnitude": NaN, "route_gap": NaN, '
        '"min_abs_value": NaN, "flags": [], "error_estimate": NaN}')


def test_row_verdict_needs_no_error_and_every_member_above_the_floor():
    # the one rule behind lav-scan's exit status and criterion 10
    row = ExperimentRow(n=1, y=25.0, seconds=0.0, flags=(True, True))
    assert row.clean
    assert not dataclasses.replace(row, flags=(True, False)).clean
    assert not dataclasses.replace(row, error="routes disagree").clean


@pytest.mark.parametrize("n", [1, 2, 3])
def test_halved_cutoffs_stay_within_error_estimate(n):
    # the halved sums drop terms the reported ones keep, so they must move
    # every member, and by no more than their own tail majorants allow
    gap, err = halved_cutoff_gap(ExperimentConfig(n_lo=1, n_hi=3), n)
    assert 0 < gap <= err


def test_table_holds_exactly_the_longest_cutoff_of_the_scan():
    cfg = ExperimentConfig(n_lo=1, n_hi=2)
    setup = _Setup(cfg)
    used = 0
    for n in (1, 2):
        seed = setup.seed_character(n + 1)
        res = afe_lvalue(setup.form, seed, y=5.0 ** (2.0 * n))
        used = max(used, res.terms_main, res.terms_dual)
    assert setup.form.limit == used


def test_row_magnitudes_are_the_builtin_abs_of_every_member():
    # min |L| and the flags read route one's array; they must equal the
    # builtin abs of each member exactly (np.abs is one ulp off at times)
    cfg = ExperimentConfig(n_lo=1, n_hi=3)
    setup = _Setup(cfg)
    for n in (1, 2, 3):
        row = _run_row(setup, n)
        _, res = orbit_average_lvalue(setup.form, setup.seed_character(n + 1),
                                      setup.coef_ctx, y=5.0 ** (2.0 * n))
        mags = [abs(v) for v in res.value.tolist()]
        assert row.min_abs_value == min(mags)
        assert row.flags == tuple(m > NONVANISH_FLOOR for m in mags)
        assert row.orbit_size == len(mags)


def test_programming_error_in_a_row_crashes(monkeypatch):
    # only arithmetic and input failures become report rows; a TypeError is a
    # bug and must surface
    import lcentral.experiment as experiment

    def broken(*args, **kwargs):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(experiment, "orbit_average_lvalue", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_lav_experiment(ExperimentConfig(n_lo=1, n_hi=1))


def test_scan_refuses_levels_past_the_residue_cap():
    with pytest.raises(ValueError, match="residue tables"):
        run_lav_experiment(ExperimentConfig(n_lo=1, n_hi=9))


def test_scan_refuses_a_nontrivial_nebentypus(tmp_path):
    # refused as input, before any row runs: the root numbers need a trivial
    # central character
    doc = {"label": "delta-with-character", "weight_vector": [12],
           "atkin_lehner": 1, "nebentypus": "quadratic",
           "prime_eigenvalues": {"2": -24, "3": 252, "5": 4830, "7": -16744,
                                 "11": 534612, "13": -577738}}
    path = tmp_path / "form.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="nebentypus"):
        run_lav_experiment(ExperimentConfig(form=str(path), n_lo=1, n_hi=1))
    from lcentral.cli import main
    assert main(["lav-scan", "--form", str(path), "--n-hi", "1"]) == 2


def test_bump_width_leaves_the_tower_within_its_error_bars(monkeypatch):
    # the smoothed identity holds for any weight, so the averaged values of
    # the production point mass and of the width-1 bump (no V value in
    # common, and sums of different lengths) must agree within the two rows'
    # error estimates
    from lcentral import afe

    cfg = ExperimentConfig(n_lo=1, n_hi=4, a=1.25)
    point = run_lav_experiment(cfg)

    @functools.lru_cache
    def bump_kernel(nf, shifts, s):
        return BumpVKernel(afe.gamma_factor_for(nf, shifts), float(s))

    monkeypatch.setattr(afe, "vkernel_for", bump_kernel)
    wide = run_lav_experiment(cfg)
    for a, b in zip(point.rows, wide.rows):
        assert a.error is None and b.error is None
        gap = abs(complex(a.lav_re, a.lav_im) - complex(b.lav_re, b.lav_im))
        assert gap <= a.error_estimate + b.error_estimate, (a.n, gap)
