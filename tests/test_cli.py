"""End-to-end command-line checks, driven through main() with argv lists.

Every command emits JSON, so the assertions parse stdout rather than
pattern-match on text.  Exit codes are part of the contract: 0 success,
1 failed verification, 2 bad input.
"""

import json
import math
import os
import shlex
from pathlib import Path

import pytest

from lcentral.afe import afe_lvalue
from lcentral.cli import main, parse_char_label, usable_cpus
from lcentral.experiment import report_from_json
from lcentral.newforms import builtin_newform
from lcentral.rayclass import HeckeCharacter
from lcentral.tau import primes_up_to, tau_exact


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


def test_lvalue_off_the_half_integer_grid(capsys):
    # 2(s - m) = 12.6 is not an integer: V is the off-grid incomplete gamma
    code, doc = run_json(capsys, ["lvalue", "--s", "6.3", "--char", "rationals.p5.m2.chi3"])
    assert code == 0
    assert doc["error_est"] < 1e-13
    assert abs(complex(doc["value_re"], doc["value_im"])
               - complex(1.3029324870426875, -0.11704792137944303)) <= doc["error_est"]


def test_lvalue_rejects_residue_character(capsys):
    code = main(["lvalue", "--char", "quadratic-sqrt2.p7.res2.chi5"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ray class" in err


@pytest.mark.parametrize("s", ["12", "200", "0", "-1"])
def test_lvalue_outside_the_strip_names_the_strip(capsys, s):
    # delta has weight 12 and gamma shift 0: both kernels exist only for s
    # in (0, 12), and the message names that strip, not the dual side's k - s
    code = main(["lvalue", "--char", "rationals.p5.m2.chi3", "--s", s])
    err = capsys.readouterr().err.strip()
    assert code == 2
    assert err == f"error: s = {float(s):g} lies outside the open strip (0, 12) " \
                  "where both kernels exist"


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
    assert main(["lvalue", "--precision-bits", "129"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["gauss-sum", "--char", "rationals.p5.m2.chi3", "--form", "x"],
    ["galois-average", "--char", "rationals.p5.m2.chi4", "--residue", "6", "--tol", "1e-3"],
    ["kloosterman-report", "--char", "rationals.p5.m2.chi4", "--threads", "2"],
    ["cone-count", "--p", "5", "--n", "1", "--x", "10", "--form", "x"],
    ["cone-count", "--p", "5", "--n", "1", "--x", "10", "--threads", "2"],
    ["lvalue", "--field", "quadratic-sqrt2"],
    ["lvalue", "--threads", "2"],
    ["verify", "--precision-bits", "16"],
    ["lav-scan", "--precision-bits", "16"],
    ["lvalue", "--limit", "6104"],
], ids=["gauss-sum-form", "galois-average-tol", "kloosterman-threads",
        "cone-count-form", "cone-count-threads", "lvalue-field", "lvalue-threads",
        "verify-precision", "lav-scan-precision", "lvalue-limit"])
def test_options_a_command_does_not_read_exit_two(capsys, argv):
    # each subcommand parses only its own options, so one it would ignore is
    # a usage error rather than silently dropped
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scan_over_a_field_not_the_forms_exits_two(capsys):
    # the sums read the field off the form, so a scan over another field is
    # refused by name before anything is built
    assert main(["lav-scan", "--field", "quadratic-sqrt2", "--p", "7",
                 "--n-lo", "1", "--n-hi", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: form delta is over rationals, not quadratic-sqrt2\n")


def test_char_label_parsing():
    chi = parse_char_label("rationals.p5.m2.chi3")
    assert isinstance(chi, HeckeCharacter)
    assert chi.group.unit_quotient
    assert chi.label == "rationals.p5.m2.chi3"
    res = parse_char_label("quadratic-sqrt2.p7.res2.chi5")
    assert isinstance(res, HeckeCharacter)
    assert not res.group.unit_quotient          # the full residue unit group
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
                                  "--witnesses"])
    assert code == 0
    assert doc["count"] == 48
    assert doc["min_norm"] == 2
    assert doc["witnesses"][:2] == [[1, 0], [0, 2]]


def test_cone_count_inert_prime_is_bad_input(capsys):
    code = main(["cone-count", "--field", "quadratic-sqrt2", "--p", "5",
                 "--n", "1", "--x", "10"])
    assert code == 2
    assert "inert" in capsys.readouterr().err


def test_cone_count_past_the_box_cap_refused(capsys):
    # 2e11 candidate multiples of 5 over Q: refused before the array exists
    code = main(["cone-count", "--field", "rationals", "--p", "5", "--n", "1",
                 "--x", "1e12"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and "desk-scale cap" in err[0]


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

    def fake_scan(cfg):
        seen["lav-scan"] = cfg.threads
        raise ValueError("stubbed")

    monkeypatch.setattr(cli, "run_lav_experiment", fake_scan)
    assert main(["lav-scan", "--threads", "1000000"]) == 2
    assert seen == {"lav-scan": usable_cpus()}
    assert 1 <= usable_cpus() <= (os.cpu_count() or 1)
    assert main(["lav-scan", "--threads", "0"]) == 2
    assert "positive" in capsys.readouterr().err


def test_tables_past_the_coefficient_cap_refused(capsys):
    # a balance point of 1e-6 at conductor 25 needs 7.6e9 coefficients, and
    # the n = 5 row more than 2^25: refused before anything is allocated
    assert main(["lvalue", "--char", "rationals.p5.m2.chi3", "--y", "1e-6"]) == 2
    assert main(["lav-scan", "--n-lo", "5", "--n-hi", "5"]) == 2
    err = capsys.readouterr().err
    assert err.count(f"coefficient cap {2 ** 25} ") == 2


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


def test_field_aliases_name_one_field():
    from lcentral.cones import fundamental_unit
    from lcentral.fields import nf_load
    assert nf_load("Q") is nf_load("rationals")
    assert nf_load("Qsqrt2") is nf_load("quadratic-sqrt2")
    assert fundamental_unit(nf_load("Qsqrt2")) is fundamental_unit(nf_load("quadratic-sqrt2"))
    chi = parse_char_label("Q.p5.m2.chi3")
    assert chi == parse_char_label("rationals.p5.m2.chi3")
    assert hash(chi) == hash(parse_char_label("rationals.p5.m2.chi3"))
    assert chi.label == "rationals.p5.m2.chi3"
    assert (parse_char_label("Qsqrt2.p7.res2.chi5")
            == parse_char_label("quadratic-sqrt2.p7.res2.chi5"))
    assert parse_char_label("Q.p5.m2.chi3") != parse_char_label("Q.p5.res2.chi3")


# x^2 - x - 1 and the Gaussian integers: consistent documents of fields no
# consumer serves, refused by the loader
_GOLDEN_DOC = {"label": "golden", "min_poly": [-1, -1, 1],
               "integral_basis": [[1, 0], [0, 1]], "discriminant": 5,
               "unit_gens": [[-1, 0], [0, 1]], "different_gen": [-1, 2]}
_GAUSSIAN_DOC = {"label": "gaussian-integers", "min_poly": [1, 0, 1],
                 "integral_basis": [[1, 0], [0, 1]], "discriminant": -4,
                 "unit_gens": [[0, 1]], "different_gen": [0, 2]}


@pytest.mark.parametrize("argv", [
    ["lvalue", "--form", "{nb}", "--char", "rationals.p5.m2.chi3"],
    ["cone-count", "--field", "{golden}", "--p", "11", "--n", "1", "--x", "100"],
    ["gauss-sum", "--char", "{golden}.p11.m1.chi1"],
    ["lav-scan", "--field", "{gaussian}", "--p", "5", "--pi", "2,1",
     "--n-lo", "1", "--n-hi", "1"],
    ["lav-scan", "--form", "{cx}", "--n-hi", "1"],
    ["lvalue", "--form", "{cx}"],
    ["lav-scan", "--form", "{short}", "--n-hi", "1"],
], ids=["nebentypus-lvalue", "golden-cone-count",
        "golden-gauss-sum", "gaussian-lav-scan", "complex-lav-scan",
        "complex-lvalue", "short-table-lav-scan"])
def test_unsupported_inputs_exit_two(tmp_path, capsys, argv):
    # a zero-eigenvalue form with a nontrivial nebentypus; the same with one
    # [re, im] eigenvalue; and a full table shorter than the scan's cutoffs
    nb = {"label": "nb", "weight_vector": [12], "atkin_lehner": 1,
          "nebentypus": "chi5",
          "prime_eigenvalues": {str(p): 0 for p in primes_up_to(2000)}}
    cx = dict(nb, nebentypus="trivial",
              prime_eigenvalues=dict(nb["prime_eigenvalues"], **{"2": [0, 1]}))
    short = {"label": "short", "weight_vector": [12], "atkin_lehner": -1,
             "coefficients": tau_exact(200)[1:]}
    paths = {}
    for name, doc in (("nb", nb), ("golden", _GOLDEN_DOC),
                      ("gaussian", _GAUSSIAN_DOC), ("cx", cx), ("short", short)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_short_full_table_lvalue_states_the_shortfall(tmp_path, capsys):
    # a full table carries its own length, so the message names the shortfall
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"label": "short", "weight_vector": [12],
                                "atkin_lehner": -1, "coefficients": tau_exact(200)[1:]}))
    assert main(["lvalue", "--form", str(path), "--char", "rationals.p5.m2.chi3"]) == 2
    err = capsys.readouterr().err.strip()
    assert err == "error: form carries coefficients to 200 but the sums need 245"


def test_a_full_table_document_is_verified_once(tmp_path, capsys, monkeypatch):
    # the probe of a full table is the whole table, so it serves as the form
    import lcentral.newforms as newforms
    path = tmp_path / "full6104.json"
    path.write_text(json.dumps({"label": "full6104", "weight_vector": [12],
                                "atkin_lehner": 1, "coefficients": tau_exact(6104)[1:]}))
    verified = []
    original = newforms._verify_full_table

    def counted(table, k, theta):
        verified.append(len(table) - 1)
        return original(table, k, theta)
    monkeypatch.setattr(newforms, "_verify_full_table", counted)
    code, doc = run_json(capsys, ["lvalue", "--form", str(path),
                                  "--char", "rationals.p5.m4.chi1"])
    assert code == 0 and doc["terms_used"] == [6104, 6104]
    assert verified == [6104]


@pytest.mark.parametrize("rows", ["prime_eigenvalues", "coefficients"])
def test_level_above_one_is_refused(tmp_path, capsys, rows):
    # the twist root numbers and the Hecke recursion are the level-1 ones, so
    # a level-11 document is refused before its coefficients are read, whether
    # they come as prime eigenvalues or as a full table
    doc = {"label": "level11", "weight_vector": [12], "atkin_lehner": -1,
           "level_norm": 11}
    if rows == "prime_eigenvalues":
        doc[rows] = {str(p): 0 for p in primes_up_to(2000)}
    else:
        doc[rows] = tau_exact(2000)[1:]
    path = tmp_path / "level11.json"
    path.write_text(json.dumps(doc))
    assert main(["lvalue", "--form", str(path), "--char", "rationals.p5.m2.chi3"]) == 2
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: level_norm 11 is not supported")
    assert "chi(N)" in err and "good-prime" in err


@pytest.mark.parametrize("argv, p", [
    (["lav-scan", "--p", "1"], 1),
    (["lav-scan", "--p", "2"], 2),
    (["lav-scan", "--p", "4"], 4),
    (["lav-scan", "--p", "9"], 9),
    (["cone-count", "--p", "15", "--n", "1", "--x", "50"], 15),
    (["gauss-sum", "--char", "rationals.p9.m2.chi1"], 9),
    (["cone-count", "--field", "quadratic-sqrt2", "--n", "1", "--x", "100",
      "--p", "-7"], -7),
    (["cone-count", "--field", "quadratic-sqrt2", "--n", "1", "--x", "100",
      "--p", "0"], 0),
    (["cone-count", "--field", "quadratic-sqrt2", "--n", "1", "--x", "100",
      "--p", "15"], 15),
], ids=["lav-scan-1", "lav-scan-2", "lav-scan-4", "lav-scan-9", "cone-count-15",
        "gauss-sum-9", "sqrt2-cone-count-minus-7", "sqrt2-cone-count-0", "sqrt2-cone-count-15"])
def test_p_that_is_not_an_odd_prime_refused(capsys, argv, p):
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: p = {p} is not an odd prime"]


# lvalue sizes its table from its own cutoffs; these outputs were taken with
# an explicit 6,104-coefficient table (a fixed 2,000 falls short at conductor
# 625), and the derived table must print the same bytes
_SIZED_LVALUES = {
    "m4-central": (["--char", "rationals.p5.m4.chi1"], """{
  "value_re": 0.11043081517830684,
  "value_im": -0.05927205328756868,
  "error_est": 9.728152810802196e-13,
  "terms_used": [
    6104,
    6104
  ],
  "y": 625.0,
  "main_term_re": 0.9999999999999984,
  "character": "rationals.p5.m4.chi1",
  "s": 6.0
}
"""),
    "m2-off-grid": (["--char", "rationals.p5.m2.chi3", "--s", "6.3"], """{
  "value_re": 1.3029324870426877,
  "value_im": -0.11704792137944302,
  "error_est": 9.144228561758229e-14,
  "terms_used": [
    245,
    245
  ],
  "y": 25.0,
  "main_term_re": 0.9999998945077038,
  "character": "rationals.p5.m2.chi3",
  "s": 6.3
}
"""),
}


@pytest.mark.parametrize("case", sorted(_SIZED_LVALUES))
def test_lvalue_sizes_its_table_from_its_cutoffs(capsys, case):
    argv, expected = _SIZED_LVALUES[case]
    assert main(["lvalue", *argv]) == 0
    assert capsys.readouterr().out == expected


_BAD_SETTINGS = [
    (["lav-scan", "--tol", "0"], "tol must be finite and above 0, got 0.0"),
    (["lav-scan", "--tol", "nan"], "tol must be finite and above 0, got nan"),
    (["lav-scan", "--tol", "inf"], "tol must be finite and above 0, got inf"),
    (["lvalue", "--tol", "0"], "tol must be finite and above 0, got 0.0"),
    (["lvalue", "--tol", "nan"], "tol must be finite and above 0, got nan"),
    (["lvalue", "--y", "nan"], "the balance point y must be finite and above 0, got nan"),
    (["lvalue", "--y", "0"], "the balance point y must be finite and above 0, got 0.0"),
    (["lav-scan", "--eps", "0"], "eps must be finite and above 0, got 0.0"),
    (["lav-scan", "--eps", "nan"], "eps must be finite and above 0, got nan"),
    (["lav-scan", "--a", "nan"], "a must be finite, got nan"),
    (["lav-scan", "--a", "inf"], "a must be finite, got inf"),
    (["lav-scan", "--route-tol", "-1"], "route_tol must be finite and at least 0, got -1.0"),
    (["lav-scan", "--route-tol", "nan"], "route_tol must be finite and at least 0, got nan"),
    (["lav-scan", "--floor", "-1"],
     "nonvanish_floor (--floor) must be finite and at least 0, got -1.0"),
    (["lav-scan", "--floor", "nan"],
     "nonvanish_floor (--floor) must be finite and at least 0, got nan"),
]


@pytest.mark.parametrize("argv, message", _BAD_SETTINGS,
                         ids=[" ".join(argv) for argv, _ in _BAD_SETTINGS])
def test_bad_settings_refused_up_front(capsys, monkeypatch, argv, message):
    # refused as input, naming the option, before a coefficient table exists
    import lcentral.newforms as newforms
    built = []
    original = newforms.tau_table

    def counted(limit, threads=1):
        built.append(limit)
        return original(limit, threads)
    monkeypatch.setattr(newforms, "tau_table", counted)
    assert main([*argv, "--n-hi", "1"] if argv[0] == "lav-scan" else argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert all(limit <= 16 for limit in built)


def _readme_commands():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("lcentral ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_usage_block_runs(tmp_path, capsys, argv):
    # every documented command line parses and runs, so a removed option
    # cannot linger in the docs; verify exits 1 on its designed red
    if "--out" in argv:
        at = argv.index("--out") + 1
        argv = [*argv[:at], str(tmp_path / argv[at]), *argv[at + 1:]]
    assert main(argv) == (1 if argv[0] == "verify" else 0)
    capsys.readouterr()
