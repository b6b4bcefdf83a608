"""The acceptance gate: every numbered criterion, full tolerances, one
pass/fail line each (run with -s to see them as they land).

Criterion 3 is EXPECTED to fail: the relaxed support predicate it pins
(nonzero iff the value order divides p^(n0+1)) is provably wrong at
n0 = 1, where the Galois orbit is an additive coset and the order-p^2
layer averages to exactly zero.  The test here asserts that the failure
is precisely that layer and nothing else; a pass on criterion 3, or a
failure anywhere else in it, would both be regressions.
"""

import re

import pytest

from lcentral.acceptance import CRITERIA, run_acceptance
from lcentral.cli import main

EXPECTED_RED = {3}


@pytest.fixture(scope="module")
def sweep():
    report = run_acceptance()
    print()
    for line in report.lines:
        print(line)
    return report


def _result(report, number):
    for r in report.results:
        if r.number == number:
            return r
    raise AssertionError(f"criterion {number} missing from the sweep")


def test_sweep_covers_all_criteria(sweep):
    assert [r.number for r in sweep.results] == [n for n, _, _ in CRITERIA]
    assert len(sweep.results) == 11


def test_criterion_01_gauss_modulus(sweep):
    r = _result(sweep, 1)
    assert r.passed, r.detail
    assert r.seconds < 30.0
    assert "10 quadratic-field" in r.detail


def test_criterion_02_gauss_identities(sweep):
    r = _result(sweep, 2)
    assert r.passed, r.detail
    assert "650 exact shift identities" in r.detail


def test_criterion_03_average_support_honest_red(sweep):
    r = _result(sweep, 3)
    assert not r.passed, "the depth-one half is provably wrong; a pass is a regression"
    assert r.seconds < 60.0
    # depth zero: exact match, strict variant misses exactly the order-p layer
    assert "n0=0: relaxed predicate exact" in r.detail
    assert "order-5^1 layer" in r.detail
    # depth one: the overshoot is confined to the order-p^2 layer
    assert "n0=1: relaxed predicate overshoots on exactly the order-5^2 layer" in r.detail
    assert "OUTSIDE" not in r.detail


def test_criterion_04_root_numbers(sweep):
    r = _result(sweep, 4)
    assert r.passed, r.detail


def test_criterion_05_dual_sum_envelope(sweep):
    r = _result(sweep, 5)
    assert r.passed, r.detail
    consts = [float(c) for c in re.findall(r"\d+\.\d{4}", r.detail)[:3]]
    assert len(consts) == 3
    assert consts[0] == pytest.approx(1.8219, abs=1e-3)
    assert max(consts) / min(consts) < 4.0


def test_criterion_06_kernel_asymptotics(sweep):
    r = _result(sweep, 6)
    assert r.passed, r.detail


def test_criterion_07_two_sided_oracle(sweep):
    r = _result(sweep, 7)
    assert r.passed, r.detail


def test_criterion_08_reflection_residual(sweep):
    r = _result(sweep, 8)
    assert r.passed, r.detail
    assert "twisted" in r.detail


def test_criterion_09_coefficient_bound(sweep):
    r = _result(sweep, 9)
    assert r.passed, r.detail
    assert "p = 7589" in r.detail          # the near-extremal prime is pinned
    assert "(13)" in r.detail              # corruption is reported by ideal


def test_criterion_10_averaged_values(sweep):
    r = _result(sweep, 10)
    assert r.passed, r.detail
    assert r.seconds < 600.0
    assert "decreasing" in r.detail
    assert "limit-caveat noted" in r.detail
    # the seconds are on the line, not in the detail: equal numbers, equal text
    assert not re.search(r"\b\d+s;", r.detail)


def test_criterion_11_lattice_counts(sweep):
    r = _result(sweep, 11)
    assert r.passed, r.detail
    assert "14 shipped counts" in r.detail


def test_sweep_summary_flags_only_the_expected_red(sweep):
    failed = {r.number for r in sweep.results if not r.passed}
    assert failed == EXPECTED_RED
    assert not sweep.all_passed


def test_cli_verify_exit_code_reflects_the_red(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 1
    assert out.splitlines()[0] == "acceptance sweep"
    assert out.count("[PASS]") == 10
    assert out.count("[FAIL]") == 1


def test_the_reduced_sweep_is_gone(capsys):
    # one sweep, the full one: the option is a usage error and the keyword
    # refuses a true value
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--fast"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fast" in capsys.readouterr().err
    with pytest.raises(ValueError, match="reduced"):
        run_acceptance(fast=True)


def test_programming_error_in_a_criterion_crashes(monkeypatch):
    # arithmetic and input failures are findings and become FAIL lines; a
    # TypeError is a bug and must surface
    import lcentral.acceptance as acceptance

    def broken():
        raise TypeError("unsupported operand")

    def drifted():
        raise ArithmeticError("drifted off the unit circle")

    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "drifted", drifted),))
    (r,) = run_acceptance().results
    assert not r.passed
    assert r.detail == "crashed: ArithmeticError: drifted off the unit circle"
    monkeypatch.setattr(acceptance, "CRITERIA", ((1, "drifted", drifted), (2, "broken", broken)))
    with pytest.raises(TypeError, match="unsupported operand"):
        run_acceptance()
