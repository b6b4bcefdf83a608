from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcentral.abelian import (
    FiniteAbelianGroup,
    discrete_log,
    mat_det,
    mat_mul,
    multiplicative_order,
    primitive_root,
    smith_normal_form,
)

matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@given(matrices)
@settings(max_examples=150)
def test_snf_decomposition(a):
    u, d, v = smith_normal_form(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(mat_det(u)) == 1
    assert abs(mat_det(v)) == 1
    k = min(len(d), len(d[0]))
    for i in range(len(d)):
        for j in range(len(d[0])):
            if i != j:
                assert d[i][j] == 0
    diag = [d[i][i] for i in range(k)]
    assert all(x >= 0 for x in diag)
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0


def test_snf_frozen_example():
    # relations 20*g = 0 and 10*g = 0 present Z/10
    g = FiniteAbelianGroup([[20], [10]])
    assert g.invariants == (10,)
    assert g.order == 10


def test_group_canonical_coords_roundtrip():
    g = FiniteAbelianGroup([[4, 0], [0, 6]])
    assert sorted(g.invariants) == [2, 12]
    assert g.order == 24
    seen = set(g.elements())
    assert len(seen) == 24
    # re-canonicalizing a lift is the identity map
    for elt in list(g.elements())[:10]:
        assert g.from_exponents(g.to_exponents(elt)) == elt


def test_dual_orthogonality():
    g = FiniteAbelianGroup([[4, 0], [0, 6]])
    for chi in g.characters():
        total = sum(
            complex_from_phase(g.char_phase(chi, elt)) for elt in g.elements())
        if chi == g.identity:
            assert abs(total - g.order) < 1e-9
        else:
            assert abs(total) < 1e-9


def complex_from_phase(ph: Fraction) -> complex:
    import cmath
    import math
    return cmath.exp(2j * math.pi * float(ph))


@given(st.integers(min_value=0, max_value=499))
@settings(max_examples=60)
def test_discrete_log_mod_5_4(e):
    p, n = 5, 4
    modulus = p ** n
    phi = (p - 1) * p ** (n - 1)
    g = primitive_root(p, n)
    e %= phi
    target = pow(g, e, modulus)
    assert discrete_log(g, target, modulus, phi) == e


def test_primitive_roots_frozen():
    assert primitive_root(5, 1) == 2
    assert primitive_root(5, 2) == 2
    assert primitive_root(7, 2) == 3
    assert primitive_root(3, 3) == 2


def test_multiplicative_order():
    assert multiplicative_order(7, 25, 20) == 4
    assert multiplicative_order(2, 25, 20) == 20
    with pytest.raises(ValueError):
        multiplicative_order(5, 25, 20)


def test_order_of_elements():
    g = FiniteAbelianGroup([[12]])
    elt = g.from_exponents([3])
    assert g.order_of(elt) == 4
    assert g.order_of(g.identity) == 1
    sub = g.subgroup_generated([elt])
    assert len(sub) == 4


def test_char_index_on_a_non_cyclic_group():
    g = FiniteAbelianGroup([[2, 0, 0], [0, 4, 0], [0, 0, 12]])
    assert g.invariants == (2, 4, 12)
    for i, chi in enumerate(g.characters()):
        assert g.char_index(chi) == i
        assert g.char_at(i) == chi
    with pytest.raises(IndexError):
        g.char_at(g.order)
