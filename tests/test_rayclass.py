"""Ray class groups at p-power moduli and their characters."""

from fractions import Fraction

import pytest

from lcentral.fields import nf_load
from lcentral.rayclass import (RESIDUE_TABLE_CAP, HeckeCharacter,
                               PrimeContext, RayClassGroup, max_residue_level,
                               rcg_build, residue_characters)
from lcentral.roots import RootOfUnity


def q_ctx():
    Q = nf_load("rationals")
    return Q, PrimeContext(Q, 5, Q.element_from_int(5))


def test_group_orders_over_rationals():
    Q, ctx = q_ctx()
    assert RayClassGroup(Q, ctx, 1).order == 2
    assert RayClassGroup(Q, ctx, 2).order == 10
    assert RayClassGroup(Q, ctx, 3).order == 50


def test_group_orders_p3():
    Q = nf_load("rationals")
    ctx = PrimeContext(Q, 3, Q.element_from_int(3))
    rcg = RayClassGroup(Q, ctx, 2)
    assert rcg.order == 3
    st = rcg.torsion_and_gamma()
    assert rcg.group.order_of(st.gamma_generator) == 3


def test_torsion_and_gamma_structure():
    Q, ctx = q_ctx()
    for n, gamma_order, filtration in [
        (1, 1, {1: 1}),
        (2, 5, {1: 5, 2: 1}),
        (3, 25, {1: 25, 2: 5, 3: 1}),
    ]:
        st = RayClassGroup(Q, ctx, n).torsion_and_gamma()
        assert len(st.delta) == 2
        assert len(st.w_part) == 2
        g = RayClassGroup(Q, ctx, n).group
        assert g.order_of(st.gamma_generator) == gamma_order
        assert st.filtration == filtration
    # the generator lift is the smallest qualifying residue
    st2 = RayClassGroup(Q, ctx, 2).torsion_and_gamma()
    assert st2.gamma_lift == 4


def test_quadratic_field_groups_collapse():
    # the fundamental unit 1+sqrt2 generates the residue units deeply enough
    # that every ray class group at (3+sqrt2) is trivial
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    for n in (1, 2, 3):
        assert RayClassGroup(K, ctx, n).order == 1


def test_character_counts():
    Q, ctx = q_ctx()
    rcg2 = rcg_build(Q, ctx, 2)
    assert len(rcg2.characters()) == 10
    assert len([c for c in rcg2.characters() if c.is_primitive()]) == 8
    assert len(rcg2.characters(conductor_exponent=2, p_power_only=True)) == 4
    rcg3 = rcg_build(Q, ctx, 3)
    assert len(rcg3.characters(conductor_exponent=3, p_power_only=True)) == 20


def test_character_values_frozen():
    Q, ctx = q_ctx()
    rcg = rcg_build(Q, ctx, 2)
    chi = [c for c in rcg.characters() if c.order == 5][0]
    assert chi.value_on_ideal_of(6) == RootOfUnity(Fraction(3, 5))
    # ideals meeting the modulus carry no value
    assert chi.value_on_ideal_of(5) is None
    assert chi.value_on_ideal_of(Q.element_from_int(25)) is None
    # the class of -1 is trivial, so every character is even in this sense
    assert chi.value_on_ideal_of(-1).is_one()


def test_local_value_is_conjugate_of_class_value():
    Q, ctx = q_ctx()
    rcg = rcg_build(Q, ctx, 2)
    for chi in rcg.characters():
        for r in (2, 3, 7, 11):
            assert chi.local_value(r) == chi.value_at_residue(r).conjugate()


def test_conductor_matches_pairwise_oracle():
    # conductor exponent = least m with chi constant on residue classes mod p^m
    Q, ctx = q_ctx()
    rcg = rcg_build(Q, ctx, 2)
    units = [r for r in range(1, 25) if r % 5]
    for chi in rcg.characters():
        if chi.is_trivial():
            assert chi.conductor_exponent == 0
            continue
        oracle = None
        for m in (1, 2):
            pm = 5 ** m
            if all(chi.value_at_residue(r) == chi.value_at_residue(s)
                   for r in units for s in units if (r - s) % pm == 0):
                oracle = m
                break
        assert chi.conductor_exponent == oracle


def test_class_enumeration_covers_group():
    Q, ctx = q_ctx()
    rcg = rcg_build(Q, ctx, 2)
    classes = {rcg.class_of_residue(r) for r in range(1, 25) if r % 5}
    assert classes == set(rcg.group.elements())
    for elt in rcg.group.elements():
        r = rcg.min_residue_of_class(elt)
        assert rcg.class_of_residue(r) == elt


def test_ideal_to_element_accepts_pairs():
    Q, ctx = q_ctx()
    rcg = rcg_build(Q, ctx, 2)
    gamma = Q.element_from_int(7)
    assert rcg.ideal_to_element((gamma, 0)) == rcg.ideal_to_element(7)
    with pytest.raises(ValueError):
        rcg.ideal_to_element((gamma, 1))
    with pytest.raises(ValueError):
        rcg.class_of_residue(10)


def test_residue_characters_on_quadratic_field():
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    prim = residue_characters(ctx, 2)
    assert len(prim) == 36
    assert all(c.conductor_exponent == 2 for c in prim)
    assert sorted({c.order for c in prim}) == [7, 14, 21, 42]
    full = residue_characters(ctx, 2, primitive_only=False)
    assert len(full) == 42
    # conductor oracle on the imprimitive ones: value depends on residue mod 7
    for c in full:
        if 0 < c.conductor_exponent < 2:
            for r in range(1, 49):
                if r % 7 == 0:
                    continue
                assert c.local_value(r) == c.local_value(r % 7)


def test_residue_character_group_law():
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    chi = residue_characters(ctx, 2)[0]
    a, b = 5, 23
    assert chi.local_value(a * b % 49) == chi.local_value(a) * chi.local_value(b)
    assert chi.conjugate().local_value(a) == chi.local_value(a).conjugate()
    assert chi.power(3).local_value(a) == chi.local_value(a) ** 3


def test_prime_context_rejections():
    Q = nf_load("rationals")
    with pytest.raises(ValueError, match="odd prime"):
        PrimeContext(Q, 2, Q.element_from_int(2))
    K = nf_load("quadratic-sqrt2")
    with pytest.raises(ValueError, match="norm"):
        PrimeContext(K, 5, K.element_from_int(5))  # 5 is inert, norm 25


def test_character_index_is_enumeration_position():
    # the label index is read off the exponent vector arithmetically; it must
    # be the position in the dual-group enumeration that labels always used
    Q = nf_load("rationals")
    for p in (3, 5, 7):
        ctx = PrimeContext(Q, p, Q.element_from_int(p))
        for n in (1, 2, 3, 4):
            rcg = rcg_build(Q, ctx, n)
            vecs = list(rcg.group.characters())
            assert len(vecs) == rcg.order
            for i, vec in enumerate(vecs):
                assert rcg.group.char_index(vec) == i
                assert HeckeCharacter(rcg, tuple(vec)).index == i
                assert rcg.character_by_index(i).vec == tuple(vec)
            chi = rcg.character_by_index(rcg.order - 1)
            for t in (2, 3, -1):
                assert chi.power(t).index == vecs.index(rcg.group.pow(chi.vec, t))
            assert chi.conjugate().index == vecs.index(rcg.group.inv(chi.vec))
            with pytest.raises(IndexError):
                rcg.character_by_index(rcg.order)


def test_dlog_array_matches_the_generator_powers():
    Q, ctx = q_ctx()
    for level in (1, 2, 3):
        mod = 5 ** level
        g = ctx.generator_residue(level)
        arr = ctx.dlog_array(level)
        assert arr.shape == (mod,) and not arr.flags.writeable
        assert ctx.dlog_list(level) == arr.tolist()
        for r in range(mod):
            if r % 5 == 0:
                assert arr[r] == -1
            else:
                assert pow(g, int(arr[r]), mod) == r
    # character values read off the array agree with the class-group route
    rcg = rcg_build(Q, ctx, 3)
    for chi in rcg.characters():
        for r in (2, 3, 7, 49, 124):
            assert chi.value_at_residue(r) == chi.value_on_class(rcg.class_of_residue(r))


def test_residue_table_cap_refuses_before_building():
    Q = nf_load("rationals")
    assert max_residue_level(5) == 9            # 5^9 = 1953125 <= 2^21
    assert max_residue_level(RESIDUE_TABLE_CAP + 1) == 0
    ctx = PrimeContext(Q, 5, Q.element_from_int(5))
    for build in (ctx.dlog_array, ctx.generator_residue, ctx.unit_group_order):
        with pytest.raises(ValueError, match="cap"):
            build(10)
    with pytest.raises(ValueError, match="cap"):
        rcg_build(Q, ctx, 10)
    assert ctx._dlogs == {} and ctx._groots == {}
