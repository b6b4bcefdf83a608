"""Ray class groups of conductor p^n at a fixed degree-one prime.

For the class-number-one fields shipped here, the ray class group mod p^n is
the unit group of O/p^n modulo the image of the global units.  The residue
ring is identified with Z/p^n through a Hensel-lifted root of the defining
polynomial (`LocalIso`), so all group structure reduces to exact arithmetic
in (Z/p^n)^*: a primitive root g0 and discrete logs.

(Z/p^n)^* is cyclic, so every group built here is Z/h with
h = gcd(phi(p^n), dlog(u) for each unit generator u), and the class of a
unit residue r is the integer dlog(r) mod h (-dlog(r) for the residue group,
see `RayClassGroup`).  A character is one exponent k mod h: its label index
is k, and order, conjugation, powers, conductor and equality are integer
arithmetic on k; its values are rational phases (roots of unity), never
floats.  Each level keeps its discrete logs as one int64 array over the
residues mod p^n (-1 off the units), so a character value is one lookup:
chi(r) = e(dlog_phase * dlog(r)).  The same class serves the full residue
unit group behind "res" labels, built with no unit relations.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .abelian import factorize, p_adic_split, primitive_root
from .fields import FieldElement, LocalIso, NumberFieldData, split_local_iso
from .ntt import root_powers
from .roots import RootOfUnity


# Largest residue table a level may need: the dlog array and every character
# table hold one entry per residue mod p^level.  Levels past it are refused
# before anything is built.
RESIDUE_TABLE_CAP = 1 << 21


def max_residue_level(p: int) -> int:
    """Largest level whose residue tables (p^level entries) fit under the cap."""
    level, size = 0, p
    while size <= RESIDUE_TABLE_CAP:
        level += 1
        size *= p
    return level


def require_odd_prime(p: int) -> None:
    """Raise ValueError unless p is an odd prime."""
    if p < 3 or factorize(p) != {p: 1}:
        raise ValueError(f"p = {p} is not an odd prime")


class PrimeContext:
    """A fixed degree-one prime (pi) above p, with cached local splittings."""

    def __init__(self, nf: NumberFieldData, p: int, pi: FieldElement):
        require_odd_prime(p)
        if not pi.is_integral() or abs(pi.norm()) != p:
            raise ValueError(f"{pi!r} is not an integral element of norm +-{p}; "
                             f"need a degree-one prime above {p}")
        self.nf = nf
        self.p = p
        self.pi = pi
        if nf.discriminant % p == 0:
            raise ValueError(f"{p} ramifies in {nf.label}")
        self.max_level = max_residue_level(p)
        self._isos: dict[int, LocalIso] = {}
        self._dlogs: dict[int, np.ndarray] = {}
        self._groots: dict[int, int] = {}

    def check_level(self, level: int) -> None:
        if level > self.max_level:
            raise ValueError(
                f"level {level} needs residue tables of {self.p}^{level} entries; "
                f"the cap is {RESIDUE_TABLE_CAP} (level <= {self.max_level} at p = {self.p})")

    def modulus(self, level: int) -> int:
        return self.p ** level

    def iso(self, level: int) -> LocalIso:
        if level not in self._isos:
            self._isos[level] = split_local_iso(self.nf, self.p, self.pi, level)
        return self._isos[level]

    def residue(self, x: FieldElement, level: int) -> int:
        return self.iso(level).residue(x)

    def generator_residue(self, level: int) -> int:
        if level not in self._groots:
            self.check_level(level)
            self._groots[level] = primitive_root(self.p, level)
        return self._groots[level]

    def dlog_array(self, level: int) -> np.ndarray:
        """Exponent of the level's primitive root at every residue mod p^level,
        -1 off the units (read-only int64)."""
        arr = self._dlogs.get(level)
        if arr is None:
            g = self.generator_residue(level)
            mod = self.modulus(level)
            phi = self.unit_group_order(level)
            arr = np.full(mod, -1, dtype=np.int64)
            arr[root_powers(g, phi, mod)] = np.arange(phi, dtype=np.int64)
            arr.setflags(write=False)
            self._dlogs[level] = arr      # published once, fully built
        return arr

    def unit_group_order(self, level: int) -> int:
        self.check_level(level)
        return (self.p - 1) * self.p ** (level - 1)


class RayClassGroup:
    """Cl(F, p^n) for a class-number-one field, as Z/h with integer classes.

    With `unit_quotient=False` it is instead the full residue unit group
    (O/p^n)^*, built without the unit relations.  Either way the group is a
    quotient of the cyclic group (Z/p^n)^*, so it is cyclic of order h, and
    the class of a unit residue r is dlog(r) times the class of the level's
    generator residue.  The residue group is oriented with that class at -1,
    so that its character k has local value e(k dlog(r) / phi), the rule
    "res" labels name.
    """

    def __init__(self, nf: NumberFieldData, ctx: PrimeContext, n: int,
                 unit_quotient: bool = True):
        if n < 1:
            raise ValueError("modulus exponent must be >= 1")
        if nf.class_number != 1:
            raise ValueError("only class number one is wired up")
        self.nf = nf
        self.ctx = ctx
        self.n = n
        self.p = ctx.p
        self.modulus = ctx.modulus(n)
        self.unit_quotient = unit_quotient
        self.label = f"{nf.label}.p{ctx.p}.{'m' if unit_quotient else 'res'}{n}"

        h = ctx.unit_group_order(n)
        self.dlog = ctx.dlog_array(n)
        if unit_quotient:
            for u in nf.unit_gens:
                h = gcd(h, int(self.dlog[ctx.residue(u, n) % self.modulus]))
        self.order = h
        # the class of the level's generator residue (0 when h = 1)
        self.generator_exponent = (1 if unit_quotient else -1) % h
        # |Delta|: the prime-to-p part of h
        self.delta_order = p_adic_split(h, self.p)[0]

    def _key(self) -> tuple:
        return (self.ctx.pi, self.n, self.unit_quotient)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RayClassGroup) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- classes of ideals ----------------------------------------------------

    def class_of_residue(self, r: int) -> int:
        r %= self.modulus
        if gcd(r, self.p) != 1:
            raise ValueError(f"residue {r} is not prime to {self.p}")
        return self.generator_exponent * int(self.dlog[r]) % self.order

    def ideal_to_element(self, x) -> int:
        """Class of the principal ideal (x), for a field element or a
        rational integer x.  Any generator works: generators differ by a
        unit and units die in the quotient.
        """
        if isinstance(x, int):
            x = self.nf.element_from_int(x)
        if isinstance(x, FieldElement):
            return self.class_of_residue(self.ctx.residue(x, self.n))
        raise ValueError(f"cannot map {x!r} to a ray class")

    def min_residue_of_class(self, c: int) -> int:
        """Smallest positive residue lift of a class (a cheap canonical name)."""
        dlog = self.dlog
        hits = np.flatnonzero((dlog >= 0)
                              & (dlog * self.generator_exponent % self.order == c))
        return int(hits[0])

    def torsion_classes(self) -> list[int]:
        """The prime-to-p torsion Delta: the multiples of h / |Delta|, from 0."""
        return list(range(0, self.order, self.order // self.delta_order))

    # -- characters -----------------------------------------------------------

    def characters(self, conductor_exponent: int | None = None,
                   p_power_only: bool = False) -> list["HeckeCharacter"]:
        out = []
        for k in range(self.order):
            chi = HeckeCharacter(self, k)
            if conductor_exponent is not None and chi.conductor_exponent != conductor_exponent:
                continue
            if p_power_only:
                a, _ = p_adic_split(chi.order, self.p)
                if a != 1:
                    continue
            out.append(chi)
        return out

    def character_by_index(self, i: int) -> "HeckeCharacter":
        if not 0 <= i < self.order:
            raise IndexError(f"character index {i} out of range for order {self.order}")
        return HeckeCharacter(self, i)

    def __repr__(self) -> str:
        return f"RayClassGroup({self.label}, order={self.order})"


def rcg_build(nf: NumberFieldData, ctx: PrimeContext, n: int) -> RayClassGroup:
    return RayClassGroup(nf, ctx, n)


def residue_characters(ctx: PrimeContext, level: int,
                       primitive_only: bool = True) -> list["HeckeCharacter"]:
    """Characters of the full residue unit group (O/p^level)^*.

    They are not ray class characters; they exist so the Gauss-sum identities
    can be exercised over fields whose ray class groups at the prime collapse
    (the real quadratic field here has trivial ones at every level).
    """
    group = RayClassGroup(ctx.nf, ctx, level, unit_quotient=False)
    return group.characters(conductor_exponent=level if primitive_only else None)


def seed_character(rcg: RayClassGroup) -> "HeckeCharacter":
    """The orbit seed at the group's level: the smallest-index primitive
    character of order p^(level-1), which is k = h / p^(level-1)."""
    want = rcg.p ** (rcg.n - 1)
    chi = HeckeCharacter(rcg, rcg.order // want)
    if rcg.order % want or not chi.is_primitive():
        raise ArithmeticError(f"no primitive order-{want} character at level {rcg.n}")
    return chi


class HeckeCharacter:
    """Character k of the cyclic group `group` of order h: its value on the
    class c is e(k c / h), and k is its label index.

    `value_on_class`/`value_on_ideal_of` evaluate the character as a function
    on ideal classes.  `local_value` is the complex-conjugate evaluation on
    residues, which is the normalization entering Gauss sums; keeping the two
    apart is what makes the sum identities and the functional equation hold
    simultaneously.
    """

    __slots__ = ("group", "k", "_conductor")

    def __init__(self, group: RayClassGroup, k: int):
        self.group = group
        self.k = k % group.order
        self._conductor: int | None = None

    @property
    def label(self) -> str:
        return f"{self.group.label}.chi{self.k}"

    @property
    def p(self) -> int:
        return self.group.p

    @property
    def prime_ctx(self) -> PrimeContext:
        return self.group.ctx

    @property
    def level(self) -> int:
        return self.group.n

    @property
    def order(self) -> int:
        return self.group.order // gcd(self.k, self.group.order)

    @property
    def dlog_phase(self) -> Fraction:
        """Phase of the value at the level's generator residue: the value on
        the class of a unit residue r is e(dlog_phase * dlog(r))."""
        return Fraction(self.k * self.group.generator_exponent, self.group.order) % 1

    @property
    def local_phase(self) -> Fraction:
        """`local_value(r)` = e(local_phase * dlog(r)): the conjugate evaluation."""
        return -self.dlog_phase % 1

    def is_trivial(self) -> bool:
        return self.k == 0

    # -- evaluations ----------------------------------------------------------

    def value_on_class(self, c: int) -> RootOfUnity:
        return RootOfUnity(Fraction(self.k * c, self.group.order))

    def value_on_ideal_of(self, x) -> RootOfUnity | None:
        """Value at the class of the principal ideal (x); None when (x) is
        not coprime to the modulus (the character vanishes there)."""
        try:
            elt = self.group.ideal_to_element(x)
        except ValueError:
            return None
        return self.value_on_class(elt)

    def value_at_residue(self, r: int) -> RootOfUnity | None:
        e = int(self.group.dlog[r % self.group.modulus])
        if e < 0:
            return None
        return RootOfUnity(self.dlog_phase * e)

    def local_value(self, x) -> RootOfUnity | None:
        """Idele-style evaluation at a local unit (residue int or element)."""
        if isinstance(x, FieldElement):
            try:
                x = self.group.ctx.residue(x, self.group.n)
            except ValueError:
                return None
        v = self.value_at_residue(int(x))
        return None if v is None else v.conjugate()

    # -- structure ------------------------------------------------------------

    @property
    def conductor_exponent(self) -> int:
        """Least m with the character trivial on 1 + p^m (0 when trivial)."""
        if self._conductor is None:
            g = self.group
            step = self.k * g.generator_exponent
            self._conductor = 0 if self.k == 0 else next(
                (m for m in range(1, g.n) if step * int(g.dlog[1 + g.p ** m]) % g.order == 0),
                g.n)
        return self._conductor

    @property
    def conductor_norm(self) -> int:
        return self.group.p ** self.conductor_exponent

    def is_primitive(self) -> bool:
        return self.conductor_exponent == self.group.n

    def conjugate(self) -> "HeckeCharacter":
        return HeckeCharacter(self.group, -self.k)

    def power(self, t: int) -> "HeckeCharacter":
        return HeckeCharacter(self.group, self.k * t)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HeckeCharacter) and self.k == other.k
                and self.group == other.group)

    def __hash__(self) -> int:
        return hash((self.group, self.k))

    def __repr__(self) -> str:
        return f"HeckeCharacter({self.label}, order={self.order}, cond=p^{self.conductor_exponent})"
