import json
from fractions import Fraction

import numpy as np
import pytest

from lcentral.newforms import (_expand_from_primes, builtin_newform, newform_load,
                               ramanujan_violations)
from lcentral.tau import TAU_LIMIT_CAP, tau_exact, tau_table

DELTA = builtin_newform("delta", 2000)
EXACT = tau_exact(2000)
PRIMES = [p for p in range(2, 2001)
          if all(p % q for q in range(2, int(p ** 0.5) + 1))]


def prime_doc(**overrides):
    doc = {
        "label": "delta-from-primes",
        "field_label": "rationals",
        "weight_vector": [12],
        "m_vector": [0],
        "type_J": [0],
        "level_norm": 1,
        "nebentypus": "trivial",
        "n0": 0,
        "theta": "0",
        "atkin_lehner": -1,
        "prime_eigenvalues": {str(p): EXACT[p] for p in PRIMES},
    }
    doc.update(overrides)
    return doc


def test_builtin_delta_properties():
    assert DELTA.label == "delta"
    assert DELTA.weight == 12
    assert DELTA.gamma_shifts == (0,)
    assert DELTA.eta == -1 and DELTA.n0 == 0 and DELTA.theta == 0
    assert DELTA.level_norm == 1
    assert DELTA.limit == 2000
    assert DELTA.coefficient_array()[1] == 1.0


def test_coeff_lookup():
    assert DELTA.coefficient_array(6)[6] == -6048.0  # tau(2) tau(3) by multiplicativity
    with pytest.raises(IndexError):
        DELTA.coefficient_array(2001)


def test_coefficient_array_layout():
    arr = DELTA.coefficient_array(10)
    assert arr.shape == (11,) and arr[0] == 0.0
    assert arr[2] == -24.0
    assert not arr.flags.writeable
    assert DELTA.coefficient_array().shape == (2001,)


def test_float_copy_is_correctly_rounded():
    # entries past 2^53 and past 2^63 must round exactly as float(int) does
    form = builtin_newform("delta", 3000)
    exact = tau_exact(3000)
    assert max(abs(c) for c in exact) > 2 ** 63
    assert form.coefficient_array().tolist() == [float(c) for c in exact]
    doc = {"label": "t", "weight_vector": [12], "atkin_lehner": -1,
           "coefficients": tau_exact(100)[1:]}
    assert newform_load(doc).coefficient_array(50).tolist() == \
        [float(c) for c in tau_exact(50)]


def test_prime_expansion_reproduces_eta_product():
    form = newform_load(prime_doc(), limit=2000)
    assert _expand_from_primes({p: EXACT[p] for p in PRIMES}, 2000, 12, Fraction(0)) == EXACT
    assert form.coefficient_array().tolist() == tau_table(2000).tolist()
    assert form.type_j == (0,)


def test_loader_passthrough_and_builtin_names():
    assert newform_load(DELTA) is DELTA
    assert newform_load("weight12-level1", limit=50).coefficient_array()[2] == -24.0
    with pytest.raises(ValueError):
        newform_load("no-such-form")


def test_missing_prime_reported():
    doc = prime_doc(prime_eigenvalues={"2": -24})
    with pytest.raises(ValueError, match=r"prime ideal \(3\)"):
        newform_load(doc, limit=10)


@pytest.mark.parametrize("limit", [0, -5])
def test_coefficient_limit_below_one_refused(tmp_path, limit):
    # refused before the eigenvalues are expanded into a table
    path = tmp_path / "eigenvalues.json"
    path.write_text(json.dumps(prime_doc()))
    with pytest.raises(ValueError) as exc:
        newform_load(str(path), limit=limit)
    assert str(exc.value) == f"coefficient limit {limit} is below 1"


def test_document_limit_past_the_cap_refused():
    # an eigenvalue document expands in Python ints, so it is held to the
    # builtin table's cap too; refused before the expansion starts
    with pytest.raises(ValueError, match=f"past the coefficient cap {TAU_LIMIT_CAP} "):
        newform_load(prime_doc(), limit=TAU_LIMIT_CAP + 1)


def test_prime_bound_violation_reported():
    doc = prime_doc(prime_eigenvalues={"2": 10 ** 6, "3": 252})
    with pytest.raises(ValueError, match=r"ideal \(2\)"):
        newform_load(doc, limit=5)


def test_full_table_verification():
    good = {"label": "t", "weight_vector": [12], "atkin_lehner": -1,
            "coefficients": tau_exact(100)[1:]}
    form = newform_load(good)
    assert form.coefficient_array()[100] == tau_table(100)[100]

    broken_mult = dict(good, coefficients=[1, -24, 252, -1472, 4830, -6000])
    with pytest.raises(ValueError, match=r"not multiplicative at ideal \(6\)"):
        newform_load(broken_mult)

    broken_hecke = dict(good, coefficients=[1, -24, 252, -1400, 4830, -6048])
    with pytest.raises(ValueError, match=r"Hecke recursion at ideal \(4\)"):
        newform_load(broken_hecke)

    not_normalized = dict(good, coefficients=[2, -24, 252])
    with pytest.raises(ValueError, match=r"a\(1\)"):
        newform_load(not_normalized)


@pytest.mark.parametrize("index, value, message", [
    (8, 1, r"Hecke recursion at ideal \(8\)"),
    (12, 1, r"not multiplicative at ideal \(12\)"),
    (169, 1, r"Hecke recursion at ideal \(169\)"),
    (13, 1, r"not multiplicative at ideal \(26\)"),     # a(13) within the bound
    (13, 10 ** 40, r"coefficient at ideal \(13\) exceeds the Ramanujan bound"),
])
def test_full_table_names_the_first_broken_identity(index, value, message):
    # one corrupt entry: a prime power breaks the Hecke recursion, any other
    # composite multiplicativity, and a prime is read as an eigenvalue whose
    # first multiple then disagrees, unless it breaks the bound itself
    table = tau_exact(200)
    table[index] = value
    with pytest.raises(ValueError, match=message):
        newform_load({"label": "t", "weight_vector": [12], "atkin_lehner": -1,
                      "coefficients": table[1:]})


def test_header_validation():
    with pytest.raises(ValueError, match="atkin_lehner"):
        newform_load(prime_doc(atkin_lehner=3), limit=10)
    with pytest.raises(ValueError, match="theta"):
        newform_load(prime_doc(theta="1/2"), limit=10)
    with pytest.raises(ValueError, match="missing"):
        doc = prime_doc()
        del doc["prime_eigenvalues"]
        newform_load(doc, limit=10)


def test_loader_refuses_non_parallel_weight():
    with pytest.raises(ValueError, match="parallel"):
        newform_load(prime_doc(field_label="quadratic-sqrt2", weight_vector=[2, 4],
                               m_vector=[0, 1]), limit=10)
    # one entry per real place: Q(sqrt 2) has two
    with pytest.raises(ValueError, match="weight_vector"):
        newform_load(prime_doc(field_label="quadratic-sqrt2"), limit=10)


@pytest.mark.parametrize("overrides, message", [
    ({"nebentypus": "chi5"}, "nebentypus 'chi5'"),
    ({"prime_eigenvalues": {"2": [-24, 1], "3": 252}}, r"\[-24, 1\] is not an integer"),
    ({"prime_eigenvalues": {"2": [-24, 0], "3": 252}}, "not an integer"),
    ({"prime_eigenvalues": {"2": -24.5, "3": 252}}, "not an integer"),
    ({"type_J": [1]}, "type_J"),
    ({"field_label": "quadratic-sqrt2", "weight_vector": [12, 12], "type_J": [0, 2]},
     "type_J"),
    ({"coefficients": [1, [-24, 1], 252]}, "not an integer"),
], ids=["nebentypus", "complex-eigenvalue", "pair-eigenvalue", "fractional-eigenvalue",
        "type-j-rationals", "type-j-sqrt2", "complex-table-entry"])
def test_loader_refuses_forms_the_engine_cannot_evaluate(overrides, message):
    with pytest.raises(ValueError, match=message):
        newform_load(prime_doc(**overrides), limit=10)


def test_ramanujan_scan_clean_for_delta():
    assert ramanujan_violations(EXACT, 12, Fraction(0)) == []


def test_theta_tightens_the_bound():
    # with theta = 0 the scan is the sharp Deligne bound; a fake table whose
    # a(2) sits just above it must be flagged
    assert 2 in ramanujan_violations([0, 1, 2 * 46 ** 1 + 2896, 0], 12, Fraction(0))
