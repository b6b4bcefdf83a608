"""End-to-end command-line checks, driven through main() with argv lists.

Every command emits JSON, so the assertions parse stdout rather than
pattern-match on text.  Exit codes are part of the contract: 0 success,
1 failed verification, 2 bad input.
"""

import json
import math
import os

import pytest

from lcentral.afe import afe_lvalue
from lcentral.cli import main, parse_char_label, usable_cpus
from lcentral.experiment import report_from_json
from lcentral.newforms import builtin_newform
from lcentral.rayclass import HeckeCharacter, ResidueCharacter


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_lvalue_untwisted_shape_and_value(capsys):
    code, doc = run_json(capsys, ["lvalue", "--s", "8.0"])
    assert code == 0
    for key in ("value_re", "value_im", "error_est", "terms_used", "y",
                "main_term_re"):
        assert key in doc
    assert doc["value_re"] == pytest.approx(0.9307070302981278, abs=1e-10)
    assert abs(doc["value_im"]) < 1e-12
    assert doc["s"] == 8.0
    assert len(doc["terms_used"]) == 2 and min(doc["terms_used"]) > 0


def test_lvalue_twisted_matches_library(capsys):
    label = "rationals.p5.m2.chi4"
    code, doc = run_json(capsys, ["lvalue", "--s", "6.0", "--char", label])
    assert code == 0
    chi = parse_char_label(label)
    ref = afe_lvalue(builtin_newform("delta", limit=2000), chi, s=6.0)
    assert doc["value_re"] == pytest.approx(ref.value.real, abs=1e-12)
    assert doc["value_im"] == pytest.approx(ref.value.imag, abs=1e-12)
    assert doc["character"] == label


def test_lvalue_rejects_residue_character(capsys):
    code = main(["lvalue", "--char", "quadratic-sqrt2.p7.res2.chi5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ray class" in err


def test_precision_bits_rounds_output(capsys):
    full_code, full = run_json(capsys, ["lvalue", "--s", "8.0"])
    few_code, few = run_json(capsys, ["lvalue", "--s", "8.0",
                                      "--precision-bits", "16"])
    assert full_code == few_code == 0
    digits = int(16 * math.log10(2))        # 4 significant digits
    assert few["value_re"] == float("%.{}g".format(digits) % full["value_re"])
    assert few["value_re"] != full["value_re"]


def test_precision_bits_validation(capsys):
    assert main(["lvalue", "--precision-bits", "4"]) == 2
    assert main(["lvalue", "--threads", "0"]) == 2
    capsys.readouterr()


def test_char_label_parsing():
    chi = parse_char_label("rationals.p5.m2.chi3")
    assert isinstance(chi, HeckeCharacter)
    assert chi.label == "rationals.p5.m2.chi3"
    res = parse_char_label("quadratic-sqrt2.p7.res2.chi5")
    assert isinstance(res, ResidueCharacter)
    assert res.label == "quadratic-sqrt2.p7.res2.chi5"
    for bad in ("rationals.p5.m2", "rationals.q5.m2.chi3",
                "rationals.p5.m2.chi999", "rationals.p5.res2.chi999"):
        with pytest.raises(ValueError):
            parse_char_label(bad)


def test_gauss_sum_command(capsys):
    code, doc = run_json(capsys, ["gauss-sum", "--char", "rationals.p5.m2.chi3"])
    assert code == 0
    assert doc["conductor_norm"] == 25
    assert doc["abs_value"] == pytest.approx(5.0, abs=1e-12)
    assert doc["modulus_defect"] < 1e-9


def test_galois_average_command(capsys):
    code, doc = run_json(capsys, ["galois-average", "--char",
                                  "rationals.p5.m2.chi4", "--residue", "6"])
    assert code == 0
    assert doc["orbit_size"] == 4
    # residue 6 lands on an order-5 value, whose orbit mean is -1/4
    assert doc["value_re"] == pytest.approx(-0.25, abs=1e-12)
    assert doc["rational_coeff"] == "-1/4"
    assert not doc["is_zero"]


def test_kloosterman_report_command(capsys):
    code, doc = run_json(capsys, ["kloosterman-report", "--char",
                                  "rationals.p5.m2.chi4"])
    assert code == 0
    assert doc["level"] == 1
    assert doc["max_abs"] == pytest.approx(0.8147693455315839, abs=1e-9)
    assert doc["constant"] == pytest.approx(1.8218796425916362, abs=1e-9)


def test_cone_count_command(capsys):
    code, doc = run_json(capsys, ["cone-count", "--field", "quadratic-sqrt2",
                                  "--p", "7", "--n", "1", "--x", "500",
                                  "--witnesses", "--threads", "2"])
    assert code == 0
    assert doc["count"] == 48
    assert doc["min_norm"] == 2
    assert doc["witnesses"][:2] == [[1, 0], [0, 2]]


def test_cone_count_inert_prime_is_bad_input(capsys):
    code = main(["cone-count", "--field", "quadratic-sqrt2", "--p", "5",
                 "--n", "1", "--x", "10"])
    assert code == 2
    assert "inert" in capsys.readouterr().err


def test_lav_scan_roundtrip(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = main(["lav-scan", "--n-lo", "1", "--n-hi", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    report = report_from_json(out.read_text())
    row = report.rows[0]
    assert row.conductor == 25
    assert row.lav_re == pytest.approx(1.1328540440214652, abs=1e-9)
    assert all(row.flags)


def test_lav_scan_row_failure_exits_one(tmp_path, capsys):
    out = tmp_path / "scan.json"
    code = main(["lav-scan", "--n-lo", "1", "--n-hi", "1",
                 "--route-tol", "1e-18", "--out", str(out)])
    capsys.readouterr()
    assert code == 1
    report = report_from_json(out.read_text())
    assert "routes disagree" in report.rows[0].error


def test_out_writes_file(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["gauss-sum", "--char", "rationals.p5.m2.chi3",
                 "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert json.loads(out.read_text())["conductor_norm"] == 25


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_threads_clamped_to_usable_cpus(capsys, monkeypatch):
    # the commands are stubbed, so the huge count never starts a thread
    import lcentral.cli as cli

    seen = {}

    def fake_count(alpha, ctx, n, x, witnesses, window, threads):
        seen["cone-count"] = threads
        raise ValueError("stubbed")

    def fake_scan(cfg):
        seen["lav-scan"] = cfg.threads
        raise ValueError("stubbed")

    monkeypatch.setattr(cli, "count_progression", fake_count)
    monkeypatch.setattr(cli, "run_lav_experiment", fake_scan)
    huge = "1000000"
    assert main(["cone-count", "--p", "5", "--n", "1", "--x", "10",
                 "--threads", huge]) == 2
    assert main(["lav-scan", "--threads", huge]) == 2
    assert seen == {"cone-count": usable_cpus(), "lav-scan": usable_cpus()}
    assert 1 <= usable_cpus() <= (os.cpu_count() or 1)
    assert main(["lav-scan", "--threads", "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_tables_past_the_coefficient_cap_refused(capsys):
    # 2^23 + 1 coefficients would need a 2^25-point transform; refused
    # before anything is allocated
    assert main(["lvalue", "--limit", str(2 ** 23 + 1)]) == 2
    assert main(["lav-scan", "--n-lo", "5", "--n-hi", "5"]) == 2
    err = capsys.readouterr().err
    assert err.count("coefficient cap") == 2


def test_levels_past_the_residue_cap_refused(capsys):
    # 5^40 residues would never fit; every entry point refuses before building
    assert main(["lav-scan", "--n-lo", "1", "--n-hi", "39"]) == 2
    assert main(["gauss-sum", "--char", "rationals.p5.m40.chi1"]) == 2
    assert main(["gauss-sum", "--char", "quadratic-sqrt2.p7.res40.chi1"]) == 2
    # 5^10 and 7^8 residues: refused before the enumeration or the
    # unit-residue set starts
    assert main(["cone-count", "--p", "5", "--n", "10", "--x", "10"]) == 2
    assert main(["cone-count", "--field", "quadratic-sqrt2", "--p", "7",
                 "--n", "8", "--x", "10"]) == 2
    err = capsys.readouterr().err
    assert err.count("cap") == 5
