"""Ray class groups at p-power moduli and their characters."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from lcentral.abelian import FiniteAbelianGroup, p_adic_split, primitive_root
from lcentral.cones import prime_above
from lcentral.fields import nf_load
from lcentral.rayclass import (RESIDUE_TABLE_CAP, HeckeCharacter,
                               PrimeContext, RayClassGroup, dual_generator,
                               max_residue_level, rcg_build,
                               residue_characters, seed_character)
from lcentral.roots import RootOfUnity


def q_ctx():
    Q = nf_load("rationals")
    return Q, PrimeContext(Q, 5, Q.element_from_int(5))


def _snf_oracle(nf, ctx, n):
    """The ray class group mod p^n presented by the Smith normal form of its
    relation column [[phi], [dlog(u)] for each unit generator u], built here
    from the level's dlogs rather than read off a `RayClassGroup`."""
    dlog, mod = ctx.dlog_array(n), ctx.modulus(n)
    column = [ctx.unit_group_order(n)]
    column += [int(dlog[ctx.residue(u, n) % mod]) for u in nf.unit_gens]
    return FiniteAbelianGroup([[d] for d in column])


def test_group_orders_over_rationals():
    Q, ctx = q_ctx()
    assert RayClassGroup(ctx, 1).order == 2
    assert RayClassGroup(ctx, 2).order == 10
    assert RayClassGroup(ctx, 3).order == 50


def test_group_orders_p3():
    Q = nf_load("rationals")
    ctx = PrimeContext(Q, 3, Q.element_from_int(3))
    rcg = RayClassGroup(ctx, 2)
    assert rcg.order == 3
    assert rcg.delta_order == 1 and rcg.torsion_classes() == [0]


def test_torsion_and_gamma_structure():
    # Cl(p^n) = Delta x Gamma with |Delta| = 2 at every level over Q, p = 5
    Q, ctx = q_ctx()
    for n, h in [(1, 2), (2, 10), (3, 50)]:
        rcg = RayClassGroup(ctx, n)
        assert rcg.order == h
        assert rcg.delta_order == 2
        assert rcg.torsion_classes() == [0, h // 2]


def test_quadratic_field_groups_collapse():
    # the fundamental unit 1+sqrt2 generates the residue units deeply enough
    # that every ray class group at (3+sqrt2) is trivial
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    for n in (1, 2, 3):
        assert RayClassGroup(ctx, n).order == 1


def test_character_counts():
    Q, ctx = q_ctx()
    rcg2 = rcg_build(ctx, 2)
    assert len(rcg2.characters()) == 10
    assert len([c for c in rcg2.characters() if c.is_primitive()]) == 8
    assert len([c for c in rcg2.characters() if c.conductor_exponent == 2
                and p_adic_split(c.order, 5)[0] == 1]) == 4
    rcg3 = rcg_build(ctx, 3)
    assert len([c for c in rcg3.characters() if c.conductor_exponent == 3
                and p_adic_split(c.order, 5)[0] == 1]) == 20


def test_character_values_frozen():
    Q, ctx = q_ctx()
    rcg = rcg_build(ctx, 2)
    chi = [c for c in rcg.characters() if c.order == 5][0]
    assert chi.value_on_ideal_of(6) == RootOfUnity(Fraction(3, 5))
    # ideals meeting the modulus carry no value
    assert chi.value_on_ideal_of(5) is None
    assert chi.value_on_ideal_of(Q.element_from_int(25)) is None
    # the class of -1 is trivial, so every character is even in this sense
    assert chi.value_on_ideal_of(-1) == RootOfUnity(0)


def test_value_on_ideal_of_takes_any_integer():
    # numpy integers go through operator.index like ints; a float is not an
    # ideal generator and must not read as "not prime to p"
    Q, ctx = q_ctx()
    rcg = rcg_build(ctx, 2)
    chi = rcg.character_by_index(4)
    want = RootOfUnity(Fraction(1, 5))
    for six in (6, np.int64(6), np.int32(6), np.uint8(6), Q.element_from_int(6)):
        assert rcg.class_of(six) == rcg.class_of(6)
        assert chi.value_on_ideal_of(six) == want
    assert chi.value_on_ideal_of(np.int64(10)) is None
    for bad in (6.0, np.float64(6), Fraction(6), "6"):
        with pytest.raises(TypeError):
            chi.value_on_ideal_of(bad)
        with pytest.raises(TypeError):
            rcg.class_of(bad)
    # a field element with p in a denominator is not prime to p either
    assert chi.value_on_ideal_of(Q.element([Fraction(6, 5)])) is None


def _check_scalar_against_exponent_table(chars):
    for chi in chars:
        js = chi.exponents()
        for r, j in enumerate(js.tolist()):
            want = None if j < 0 else RootOfUnity(Fraction(j, chi.order))
            assert chi.value_on_ideal_of(r) == want


def test_scalar_evaluator_matches_exponent_table():
    # value_on_ideal_of(r) = e(exponents()[r] / order) at every residue, and
    # None exactly where the exponent is -1
    Q = nf_load("rationals")
    for p in (3, 5, 7):
        ctx = PrimeContext(Q, p, Q.element_from_int(p))
        for n in (1, 2, 3):
            _check_scalar_against_exponent_table(rcg_build(ctx, n).characters())
    K = nf_load("quadratic-sqrt2")
    res = RayClassGroup(PrimeContext(K, 7, K.element([3, 1])), 2, unit_quotient=False)
    _check_scalar_against_exponent_table(res.characters())


def test_exponent_table_is_built_once_and_read_only():
    # the Gauss sums read the table once per call, so a character keeps it
    _, ctx = q_ctx()
    chi = rcg_build(ctx, 3).character_by_index(7)
    first = chi.exponents()
    assert chi.exponents() is first
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0
    dlog = ctx.dlog_array(3)
    want = np.where(dlog >= 0, dlog * chi.dlog_phase.numerator % chi.order, -1)
    assert np.array_equal(first, want)


def test_conductor_matches_pairwise_oracle():
    # conductor exponent = least m with chi constant on residue classes mod p^m
    Q, ctx = q_ctx()
    rcg = rcg_build(ctx, 2)
    units = [r for r in range(1, 25) if r % 5]
    for chi in rcg.characters():
        if chi.is_trivial():
            assert chi.conductor_exponent == 0
            continue
        oracle = None
        for m in (1, 2):
            pm = 5 ** m
            if all(chi.value_on_ideal_of(r) == chi.value_on_ideal_of(s)
                   for r in units for s in units if (r - s) % pm == 0):
                oracle = m
                break
        assert chi.conductor_exponent == oracle


def test_class_enumeration_covers_group():
    Q, ctx = q_ctx()
    rcg = rcg_build(ctx, 2)
    units = [r for r in range(1, 25) if r % 5]
    classes = {rcg.class_of(r) for r in units}
    assert classes == set(range(rcg.order))
    with pytest.raises(ValueError):
        rcg.class_of(10)
    with pytest.raises(ValueError):
        rcg.class_of(Q.element_from_int(10))
    for c in range(rcg.order):
        assert rcg.min_residue_of_class(c) == min(
            r for r in units if rcg.class_of(r) == c)


def test_residue_characters_on_quadratic_field():
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    prim = residue_characters(ctx, 2)
    assert len(prim) == 36
    assert all(c.conductor_exponent == 2 for c in prim)
    assert sorted({c.order for c in prim}) == [7, 14, 21, 42]
    full = RayClassGroup(ctx, 2, unit_quotient=False).characters()
    assert len(full) == 42
    # conductor oracle on the imprimitive ones: value depends on residue mod 7
    for c in full:
        if 0 < c.conductor_exponent < 2:
            for r in range(1, 49):
                if r % 7 == 0:
                    continue
                assert c.value_on_ideal_of(r) == c.value_on_ideal_of(r % 7)


def test_residue_character_group_law():
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    chi = residue_characters(ctx, 2)[0]
    a, b = 5, 23
    value = chi.value_on_ideal_of
    assert value(a * b % 49) == value(a) * value(b)
    assert chi.conjugate().value_on_ideal_of(a) == value(a).conjugate()
    assert chi.power(3).value_on_ideal_of(a) == value(a) ** 3


def test_prime_context_rejections():
    Q = nf_load("rationals")
    with pytest.raises(ValueError, match="odd prime"):
        PrimeContext(Q, 2, Q.element_from_int(2))
    K = nf_load("quadratic-sqrt2")
    with pytest.raises(ValueError, match="norm"):
        PrimeContext(K, 5, K.element_from_int(5))  # 5 is inert, norm 25


def test_character_index_is_enumeration_position():
    # the label index is the exponent k; it must be the position in the
    # dual-group enumeration that labels always used
    Q = nf_load("rationals")
    for p in (3, 5, 7):
        ctx = PrimeContext(Q, p, Q.element_from_int(p))
        for n in (1, 2, 3, 4):
            rcg = rcg_build(ctx, n)
            g = _snf_oracle(Q, ctx, n)
            vecs = list(g.characters())
            assert len(vecs) == rcg.order == g.order
            for i, vec in enumerate(vecs):
                assert g.char_index(vec) == i
                assert HeckeCharacter(rcg, i).k == i
                assert rcg.characters()[i].k == rcg.character_by_index(i).k == i
            chi = rcg.character_by_index(rcg.order - 1)
            vec = vecs[chi.k]
            for t in (2, 3, -1):
                assert chi.power(t).k == vecs.index(g.pow(vec, t))
            assert chi.conjugate().k == vecs.index(g.inv(vec))
            with pytest.raises(IndexError):
                rcg.character_by_index(rcg.order)


def _conductor_by_residue_classes(phases, p, n):
    """Least m such that the phase array over the residues mod p^n (-1 off the
    units) depends on a unit r only through r mod p^m."""
    units = np.flatnonzero(phases >= 0)
    for m in range(n + 1):
        # each unit against the smallest unit congruent to it mod p^m
        rep = units[np.searchsorted(units, units % p ** m + (m == 0))]
        if (phases[units] == phases[rep]).all():
            return m
    raise AssertionError("no conductor found")


def _check_against_the_dual_group(nf, ctx, levels):
    """Every character k at each level against FiniteAbelianGroup's dual
    route: chi_k is the exponent vector at position k of the enumeration, and
    its value at the class of r pairs that vector with the class, read off
    the Smith normal form of the relations."""
    p = ctx.p
    for n in levels:
        rcg = rcg_build(ctx, n)
        g, mod = _snf_oracle(nf, ctx, n), p ** n
        h = g.order
        assert rcg.order == h
        dlog = ctx.dlog_array(n).tolist()
        units = [r for r in range(mod) if r % p]
        classes = {r: g.from_exponents([dlog[r]]) for r in units}
        gen_class = g.from_exponents([1])
        # the group is cyclic: a class is (x,) or (), a character vector (c,) or ()
        x = np.full(mod, -1, dtype=np.int64)
        x[units] = [sum(classes[r]) for r in units]
        # the integer class is the SNF coordinate, at every residue
        assert (rcg.classes(np.arange(mod)) == x).all()
        assert all(rcg.class_of(r) == x[r] for r in units)
        phi = ctx.unit_group_order(n)
        logs = np.array(dlog)
        sample = units[::max(1, len(units) // 12)]
        # r = x + (r - x) with x the generator, or r itself over Q
        gen = nf.gen if nf.degree == 2 else nf.element_from_int(0)
        root = ctx.residue(gen, n)
        elements = {r: gen + nf.element_from_int(r - root) for r in sample}
        assert all(ctx.residue(x, n) == r for r, x in elements.items())
        for k, vec in enumerate(g.characters()):
            chi = rcg.character_by_index(k)
            assert chi.k == k and chi.label.endswith(f".chi{k}")
            assert chi.order == g.char_order(vec)
            assert chi.dlog_phase == g.char_phase(vec, gen_class)
            # the dual pairing at every residue, as multiples of 1/h
            num = np.where(x >= 0, sum(vec) * x % h, -1)
            assert all(g.char_phase(vec, classes[r]) == Fraction(int(num[r]), h)
                       for r in sample)
            assert chi.conductor_exponent == _conductor_by_residue_classes(num, p, n)
            assert chi.is_trivial() == (chi.conductor_exponent == 0)
            # the exponent table at every residue: chi((r)) = e(j(r) / ord)
            js = chi.exponents()
            assert (np.where(js >= 0, js * (h // chi.order), -1) == num).all()
            # and the unit index: chi((r)) = e(u dlog(r) / phi) at the units
            u = chi.unit_index
            assert 0 <= u < phi
            assert (u * logs[units] % phi * h == num[units] * phi).all()
            # and the public evaluations on a spread of residues, at an
            # integer and at a field element with that residue
            for r in sample:
                want = RootOfUnity(Fraction(int(num[r]), h))
                assert chi.value_on_ideal_of(r) == want
                assert chi.value_on_ideal_of(elements[r]) == want
                assert chi.value_on_class(sum(classes[r])) == want
            assert chi.value_on_ideal_of(p) is None
            assert chi.value_on_ideal_of(ctx.pi) is None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_exponent_arithmetic_matches_the_dual_group(p):
    Q = nf_load("rationals")
    _check_against_the_dual_group(Q, PrimeContext(Q, p, Q.element_from_int(p)),
                                  (1, 2, 3, 4))


@pytest.mark.parametrize("p, levels, order, delta", [
    (41, (1, 2, 3), 4, 4),
    (31, (2, 3), 31, 1),
], ids=["p41", "p31"])
def test_exponent_arithmetic_matches_the_dual_group_over_sqrt2(p, levels, order, delta):
    # the unit 1 + sqrt2 cuts (O/p^n)^* down to a group that is neither
    # trivial nor the whole: C4 at p = 41, C31 at p = 31
    K = nf_load("quadratic-sqrt2")
    ctx = prime_above(K, p)
    _check_against_the_dual_group(K, ctx, levels)
    for n in levels:
        rcg = rcg_build(ctx, n)
        assert (rcg.order, rcg.delta_order) == (order, delta)


def test_residue_characters_match_the_dlog_rule():
    # a "res" label's character K has value e(-K dlog(r) / phi): every
    # residue character of Q(sqrt2) at p = 7, levels 1 and 2, at every residue
    K = nf_load("quadratic-sqrt2")
    ctx = PrimeContext(K, 7, K.element([3, 1]))
    for level in (1, 2):
        mod, phi = 7 ** level, 6 * 7 ** (level - 1)
        dlog = ctx.dlog_array(level).tolist()
        group = RayClassGroup(ctx, level, unit_quotient=False)
        # the residue group is oriented with the generator residue at -1
        want = [-e % phi if e >= 0 else -1 for e in dlog]
        assert group.classes(np.arange(mod)).tolist() == want
        chars = group.characters()
        assert [c.k for c in chars] == list(range(phi))
        for chi in chars:
            assert chi.label == f"quadratic-sqrt2.p7.res{level}.chi{chi.k}"
            assert chi.order == phi // gcd(chi.k, phi)
            num = np.array([chi.k * e % phi if e >= 0 else -1 for e in dlog])
            # the values on ideals are the conjugates: exponent -K dlog(r)
            js = chi.exponents()
            values = np.where(js >= 0, js * (phi // chi.order), -1)
            assert (values == np.where(num >= 0, -num % phi, -1)).all()
            assert chi.unit_index == -chi.k % phi
            assert chi.conductor_exponent == _conductor_by_residue_classes(num, 7, level)
            for r in range(mod):
                want = None if dlog[r] < 0 else RootOfUnity(Fraction(-chi.k * dlog[r], phi))
                assert chi.value_on_ideal_of(r) == want


def test_seed_character_is_the_scanned_seed():
    # k = h / p^(level-1) against the two scans it replaces: the smallest
    # index of order p^(level-1) that is primitive, and the smallest-index
    # primitive character of maximal p-power order
    Q = nf_load("rationals")
    for p, levels in ((3, (2, 3, 4)), (5, (2, 3, 4)), (7, (2, 3, 4)), (13, (2, 3))):
        ctx = PrimeContext(Q, p, Q.element_from_int(p))
        for n in levels:
            rcg = rcg_build(ctx, n)
            chars = rcg.characters()
            want = p ** (n - 1)
            first = next(c for c in chars if c.order == want and c.is_primitive())
            best = None
            for c in chars:
                if p_adic_split(c.order, p)[0] == 1 and c.is_primitive() and (
                        best is None or c.order > best.order):
                    best = c
            seed = seed_character(rcg)
            assert seed == first == best
            assert seed.k == rcg.order // want
    with pytest.raises(ArithmeticError, match="no primitive order-1"):
        seed_character(rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 1))


def test_groups_and_characters_compare_by_value():
    Q = nf_load("rationals")
    a = rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 2)
    b = rcg_build(PrimeContext(Q, 5, Q.element_from_int(5)), 2)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.character_by_index(3) == b.character_by_index(3)
    assert hash(a.character_by_index(3)) == hash(b.character_by_index(3))
    assert a.character_by_index(3) != a.character_by_index(4)
    res = RayClassGroup(a.ctx, 2, unit_quotient=False)
    assert res != a and res.character_by_index(3) != a.character_by_index(3)
    assert a != rcg_build(a.ctx, 3)


def test_dlog_array_matches_the_generator_powers():
    Q, ctx = q_ctx()
    for level in (1, 2, 3):
        mod = 5 ** level
        g = primitive_root(5, level)
        arr = ctx.dlog_array(level)
        assert arr.shape == (mod,) and not arr.flags.writeable
        for r in range(mod):
            if r % 5 == 0:
                assert arr[r] == -1
            else:
                assert pow(g, int(arr[r]), mod) == r
    # the dual generator's exponent table is the array itself
    for level in (1, 2, 3):
        gen = dual_generator(ctx, level)
        assert gen.unit_index == 1 and gen.order == ctx.unit_group_order(level)
        assert (gen.exponents() == ctx.dlog_array(level)).all()
    # character values read off the array agree with the class-group route
    rcg = rcg_build(ctx, 3)
    for chi in rcg.characters():
        for r in (2, 3, 7, 49, 124):
            assert chi.value_on_ideal_of(r) == chi.value_on_class(rcg.class_of(r))


def test_residue_table_cap_refuses_before_building():
    Q = nf_load("rationals")
    assert max_residue_level(5) == 9            # 5^9 = 1953125 <= 2^21
    assert max_residue_level(RESIDUE_TABLE_CAP + 1) == 0
    ctx = PrimeContext(Q, 5, Q.element_from_int(5))
    for build in (ctx.dlog_array, ctx.unit_group_order):
        with pytest.raises(ValueError, match="cap"):
            build(10)
    with pytest.raises(ValueError, match="cap"):
        rcg_build(ctx, 10)
    assert ctx._dlogs == {}
