import json
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lcentral.cones import _principal_rows, prime_above
from lcentral.fields import nf_load
from lcentral.rayclass import PrimeContext

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


def _reduces_to_zero(rows, x):
    """Whether x lies in the lattice of the HNF rows, peeling one pivot
    column at a time."""
    coords = [int(c) for c in x.coords]
    for i, row in enumerate(rows):
        q, rem = divmod(coords[i], row[i])
        if rem:
            return False
        coords = [c - q * h for c, h in zip(coords, row)]
    return not any(coords)


big = st.integers(min_value=-10 ** 6, max_value=10 ** 6)


@pytest.mark.parametrize("nf", [QQ, K], ids=["Q", "Qsqrt2"])
@given(big, big)
@settings(max_examples=150)
def test_principal_rows_are_the_hnf_of_gamma_o(nf, a, b):
    gamma = nf.element([a, b][:nf.degree])
    assume(not gamma.is_zero())
    rows = _principal_rows(gamma)
    d = nf.degree
    assert [len(r) for r in rows] == [d] * d
    assert all(rows[i][j] == 0 for i in range(d) for j in range(i))
    assert all(rows[i][i] > 0 for i in range(d))
    assert all(0 <= rows[i][j] < rows[j][j] for i in range(d) for j in range(i + 1, d))
    assert math.prod(rows[i][i] for i in range(d)) == abs(gamma.norm())
    # gamma*O lies in the lattice, the lattice in gamma*O, and the indices
    # agree, so the rows span exactly gamma*O
    for basis in nf.basis_elements:
        assert _reduces_to_zero(rows, gamma * basis)
    for row in rows:
        assert (nf.element(row) / gamma).is_integral()


def test_local_iso_values():
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    assert ctx.residue(K.gen, 2) == 39
    assert ctx.residue(K.gen, 1) == 4
    qctx = PrimeContext(QQ, 5, QQ.element_from_int(5))
    assert qctx.residue(QQ.element([F(7, 3)]), 2) == 19
    with pytest.raises(ValueError):
        qctx.residue(QQ.element([F(1, 5)]), 2)
    # the Hensel-lifted roots at the deterministic prime above p, n = 1..3
    for p, roots in _FROZEN_ROOTS.items():
        ctx = prime_above(K, p)
        assert tuple(ctx.residue(K.gen, n) for n in (1, 2, 3)) == roots
        if p in _FROZEN_CUBE_HNF:
            assert _principal_rows(ctx.pi ** 3) == _FROZEN_CUBE_HNF[p]


_FROZEN_ROOTS = {7: (4, 39, 235), 17: (6, 244, 4290), 23: (18, 156, 156),
                 31: (8, 845, 2767), 41: (17, 58, 20230), 47: (40, 1732, 8359)}
_FROZEN_CUBE_HNF = {7: [[1, 54], [0, 343]], 41: [[1, 58806], [0, 68921]]}
_K7 = PrimeContext(K, 7, K.element([3, 1]))


@given(small, small, small, small)
@settings(max_examples=60)
def test_local_iso_is_ring_hom(a, b, c, d):
    x = K.element([a, b])
    y = K.element([c, d])
    m = _K7.modulus(3)
    assert _K7.residue(x * y, 3) == _K7.residue(x, 3) * _K7.residue(y, 3) % m
    assert _K7.residue(x + y, 3) == (_K7.residue(x, 3) + _K7.residue(y, 3)) % m


@pytest.mark.parametrize("nf,p", [(QQ, 5), (QQ, 7), (K, 7), (K, 41)],
                         ids=["Q-5", "Q-7", "Qsqrt2-7", "Qsqrt2-41"])
def test_residues_of_arrays_match_the_residue_of_each_element(nf, p):
    ctx = prime_above(nf, p)
    rng = np.random.default_rng(p * nf.degree)
    for level in (1, 2, 3, ctx.max_level):
        u = rng.integers(-10 ** 6, 10 ** 6, size=40)
        v = rng.integers(-10 ** 6, 10 ** 6, size=40) if nf.degree == 2 else np.zeros(40, np.int64)
        got = ctx.residues(u, v, level)
        assert got.dtype == np.int64
        assert got.tolist() == [ctx.residue(nf.element([a, b][:nf.degree]), level)
                                for a, b in zip(u.tolist(), v.tolist())]
    # the root is held to max_level only
    with pytest.raises(ValueError, match="cap"):
        ctx.residues(u, v, ctx.max_level + 1)
    with pytest.raises(ValueError, match="cap"):
        ctx.residue(nf.one, ctx.max_level + 1)


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
    # the plus place first, as the cones read them
    plus, minus = K.embed_element(K.element([1, 1]))
    assert abs(plus - (1 + 2 ** 0.5)) < 1e-12
    assert abs(minus - (1 - 2 ** 0.5)) < 1e-12
    assert QQ.embed_element(QQ.element_from_int(-3)) == (-3.0,)
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


@pytest.mark.parametrize("m, reason", [
    (5, "5 is 1 mod 4"), (8, r"2\^2 divides 8"), (12, r"2\^2 divides 12")])
def test_loader_refuses_a_basis_of_a_smaller_order(m, reason):
    # (1, sqrt(m)) with discriminant 4m is a consistent document of the order
    # Z[sqrt(m)], which is not the ring of integers for these m
    doc = _doc(min_poly=[str(-m), "0", "1"], discriminant=str(4 * m),
               unit_gens=[["-1", "0"]], different_gen=["0", "2"])
    with pytest.raises(ValueError, match=reason):
        nf_load(doc)
    assert nf_load(_doc(min_poly=["-3", "0", "1"], discriminant="12",
                        unit_gens=[["-1", "0"], ["2", "1"]],
                        different_gen=["0", "2"])).m == 3


def test_loader_rejects_bad_unit():
    with pytest.raises(ValueError, match="norm"):
        nf_load(_doc(unit_gens=[["2", "0"]]))


def test_loader_rejects_bad_signature():
    with pytest.raises(ValueError, match="signature"):
        nf_load(_doc(signature=[0, 1]))


def test_loader_rejects_bad_different():
    with pytest.raises(ValueError, match="different"):
        nf_load(_doc(different_gen=["0", "1"]))


@pytest.mark.parametrize("reps, match", [
    ([[["1", "0"]], [["3", "1"]]], "class_number"),
    ([[["0", "0"]]], "nonzero integral"),
    ([[["1/2", "0"]]], "nonzero integral"),
], ids=["count", "zero", "non-integral"])
def test_loader_rejects_bad_class_reps(reps, match):
    with pytest.raises(ValueError, match=match):
        nf_load(_doc(class_reps=reps))


def test_loader_rejects_bad_mult_table():
    with pytest.raises(ValueError, match="mult_table"):
        nf_load(_doc(mult_table=[[["1", "0"], ["0", "1"]],
                                 [["0", "1"], ["3", "0"]]]))


def test_loader_roundtrip_from_json_path(tmp_path):
    p = tmp_path / "field.json"
    p.write_text(json.dumps(_doc()))
    nf = nf_load(str(p))
    assert nf.label == "test-sqrt2"
