import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral.cones import prime_above
from lcentral.fields import IntegralIdeal, nf_load, split_local_iso

QQ = nf_load("rationals")
K = nf_load("Qsqrt2")

small = st.integers(min_value=-9, max_value=9)


def test_frozen_norms_and_traces():
    e = K.element([3, 1])
    assert e.norm() == 7
    assert e.trace() == 6
    assert K.element([1, 1]).norm() == -1
    assert K.element([0, 1]).trace() == 0
    assert QQ.element([-4]).norm() == -4


def test_ideal_norms():
    i5 = IntegralIdeal.principal(K, K.element_from_int(5))
    ipi = IntegralIdeal.principal(K, K.element([3, 1]))
    assert i5.norm == 25
    assert ipi.norm == 7
    assert (i5 * ipi).norm == 175
    assert (ipi ** 3).norm == 343


@given(small, small, small, small)
@settings(max_examples=80)
def test_norm_multiplicative(a, b, c, d):
    x = K.element([a, b])
    y = K.element([c, d])
    assert (x * y).norm() == x.norm() * y.norm()


@given(small, small)
@settings(max_examples=50)
def test_inverse_roundtrip(a, b):
    x = K.element([a, b])
    if x.is_zero():
        return
    assert (x * x.inverse()) == K.one


def test_ideal_membership():
    ipi = IntegralIdeal.principal(K, K.element([3, 1]))
    # sqrt2 - 4 = (sqrt2 - 2)(3 + sqrt2)
    assert ipi.contains(K.element([-4, 1]))
    assert not ipi.contains(K.one)
    assert ipi.contains(K.element([3, 1]) * K.element([2, 5]))


def test_local_iso_values():
    li = split_local_iso(K, 7, K.element([3, 1]), 2)
    assert li.root == 39
    assert li.residue(K.gen) == 39
    li1 = split_local_iso(K, 7, K.element([3, 1]), 1)
    assert li1.root == 4
    liq = split_local_iso(QQ, 5, QQ.element_from_int(5), 2)
    assert liq.residue(QQ.element([F(7, 3)])) == 19
    with pytest.raises(ValueError):
        liq.residue(QQ.element([F(1, 5)]))
    # the Hensel-lifted roots at the deterministic prime above p, n = 1..3
    for p, roots in _FROZEN_ROOTS.items():
        ctx = prime_above(K, p)
        assert tuple(ctx.iso(n).root for n in (1, 2, 3)) == roots
        if p in _FROZEN_CUBE_HNF:
            assert (ctx.prime_ideal ** 3).hnf == _FROZEN_CUBE_HNF[p]


_FROZEN_ROOTS = {7: (4, 39, 235), 17: (6, 244, 4290), 23: (18, 156, 156),
                 31: (8, 845, 2767), 41: (17, 58, 20230), 47: (40, 1732, 8359)}
_FROZEN_CUBE_HNF = {7: [[1, 54], [0, 343]], 41: [[1, 58806], [0, 68921]]}


@given(small, small, small, small)
@settings(max_examples=60)
def test_local_iso_is_ring_hom(a, b, c, d):
    li = split_local_iso(K, 7, K.element([3, 1]), 3)
    x = K.element([a, b])
    y = K.element([c, d])
    m = li.modulus
    assert li.residue(x * y) == li.residue(x) * li.residue(y) % m
    assert li.residue(x + y) == (li.residue(x) + li.residue(y)) % m


def test_efin_phases():
    assert QQ.efin_phase(QQ.element([F(1, 5)])) == F(4, 5)
    assert QQ.efin_phase(QQ.element([3])) == 0
    # Tr(sqrt2 / 2) = 0
    assert K.efin_phase(K.element([0, F(1, 2)])) == 0
    # Tr((1 + sqrt2)/5) = 2/5, so the phase is 3/5
    assert K.efin_phase(K.element([F(1, 5), F(1, 5)])) == F(3, 5)


@given(small, small, small, small)
@settings(max_examples=40)
def test_efin_is_additive(a, b, c, d):
    x = K.element([F(a, 7), F(b, 7)])
    y = K.element([F(c, 7), F(d, 7)])
    assert K.efin_phase(x + y) == (K.efin_phase(x) + K.efin_phase(y)) % 1


def test_embeddings():
    embs = K.embed_element(K.gen)
    vals = sorted(z.real for z in embs)
    assert abs(vals[0] + 2 ** 0.5) < 1e-12
    assert abs(vals[1] - 2 ** 0.5) < 1e-12
    assert K.signature == (2, 0)
    assert QQ.signature == (1, 0)


def _doc(**overrides):
    doc = {
        "label": "test-sqrt2",
        "min_poly": ["-2", "0", "1"],
        "integral_basis": [["1", "0"], ["0", "1"]],
        "signature": [2, 0],
        "discriminant": "8",
        "class_number": "1",
        "class_reps": [[["1", "0"]]],
        "unit_gens": [["-1", "0"], ["1", "1"]],
        "different_gen": ["0", "2"],
    }
    doc.update(overrides)
    return doc


def test_loader_accepts_good_doc():
    nf = nf_load(_doc())
    assert nf.discriminant == 8


def test_loader_rejects_wrong_discriminant():
    with pytest.raises(ValueError, match="discriminant"):
        nf_load(_doc(discriminant="12"))


def test_loader_rejects_non_monic():
    with pytest.raises(ValueError, match="monic"):
        nf_load(_doc(min_poly=["-2", "0", "2"]))


def test_loader_rejects_non_squarefree():
    with pytest.raises(ValueError, match="squarefree"):
        nf_load(_doc(min_poly=["0", "0", "1"], discriminant="0",
                     unit_gens=[["-1", "0"]], different_gen=["1", "0"]))


def test_loader_rejects_bad_unit():
    with pytest.raises(ValueError, match="norm"):
        nf_load(_doc(unit_gens=[["2", "0"]]))


def test_loader_rejects_bad_signature():
    with pytest.raises(ValueError, match="signature"):
        nf_load(_doc(signature=[0, 1]))


def test_loader_rejects_bad_different():
    with pytest.raises(ValueError, match="different"):
        nf_load(_doc(different_gen=["0", "1"]))


def test_loader_rejects_bad_mult_table():
    with pytest.raises(ValueError, match="mult_table"):
        nf_load(_doc(mult_table=[[["1", "0"], ["0", "1"]],
                                 [["0", "1"], ["3", "0"]]]))


def test_loader_roundtrip_from_json_path(tmp_path):
    p = tmp_path / "field.json"
    p.write_text(json.dumps(_doc()))
    nf = nf_load(str(p))
    assert nf.label == "test-sqrt2"
