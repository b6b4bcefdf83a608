"""Ray class groups of conductor p^n at a fixed degree-one prime.

For the class-number-one fields shipped here, the ray class group mod p^n is
the unit group of O/p^n modulo the image of the global units.  The residue
ring is identified with Z/p^n through a Hensel-lifted root of the defining
polynomial (`LocalIso`), so all group structure reduces to exact arithmetic
in (Z/p^n)^*: a primitive root, discrete logs, and a Smith normal form of
the relation matrix coming from the unit images.

Characters of the quotient are enumerated exactly; their values are rational
phases (roots of unity), never floats.  Each level keeps its discrete logs as
one int64 array over the residues mod p^n (-1 off the units), so a character
value is one lookup: chi(r) = e(dlog_phase * dlog(r)).  A character's label
index is its position in the dual-group enumeration, read off its exponent
vector arithmetically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .abelian import FiniteAbelianGroup, p_adic_split, primitive_root
from .fields import FieldElement, IntegralIdeal, LocalIso, NumberFieldData, split_local_iso
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


class PrimeContext:
    """A fixed degree-one prime (pi) above p, with cached local splittings."""

    def __init__(self, nf: NumberFieldData, p: int, pi: FieldElement):
        if p == 2:
            raise ValueError("the machinery here needs an odd prime")
        self.nf = nf
        self.p = p
        self.pi = pi
        self.prime_ideal = IntegralIdeal.principal(nf, pi)
        if self.prime_ideal.norm != p:
            raise ValueError(
                f"(pi) has norm {self.prime_ideal.norm}; need a degree-one prime above {p}")
        if nf.discriminant % p == 0:
            raise ValueError(f"{p} ramifies in {nf.label}")
        self.max_level = max_residue_level(p)
        self._isos: dict[int, LocalIso] = {}
        self._dlogs: dict[int, tuple[np.ndarray, list[int]]] = {}
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

    def lift(self, r: int, level: int) -> FieldElement:
        return self.iso(level).lift(r)

    def generator_residue(self, level: int) -> int:
        if level not in self._groots:
            self.check_level(level)
            self._groots[level] = primitive_root(self.p, level)
        return self._groots[level]

    def dlog_array(self, level: int) -> np.ndarray:
        """Exponent of the level's primitive root at every residue mod p^level,
        -1 off the units (read-only int64)."""
        return self._dlog_tables(level)[0]

    def dlog_list(self, level: int) -> list[int]:
        """`dlog_array` as Python ints, for scalar lookups."""
        return self._dlog_tables(level)[1]

    def _dlog_tables(self, level: int) -> tuple[np.ndarray, list[int]]:
        got = self._dlogs.get(level)
        if got is None:
            g = self.generator_residue(level)
            mod = self.modulus(level)
            phi = self.unit_group_order(level)
            powers = [0] * phi
            cur = 1
            for i in range(phi):
                powers[i] = cur
                cur = cur * g % mod
            arr = np.full(mod, -1, dtype=np.int64)
            arr[powers] = np.arange(phi, dtype=np.int64)
            arr.setflags(write=False)
            got = (arr, arr.tolist())
            self._dlogs[level] = got      # published once, fully built
        return got

    def unit_group_order(self, level: int) -> int:
        self.check_level(level)
        return (self.p - 1) * self.p ** (level - 1)


@dataclass
class TorsionGammaData:
    """Structural pieces of a ray class group at a p-power modulus."""

    delta: list[tuple[int, ...]]           # prime-to-p torsion (plus class part)
    w_part: list[tuple[int, ...]]          # split image of the mod-p unit group
    gamma_generator: tuple[int, ...]       # generator of the pro-p direction
    gamma_lift: int                        # its smallest positive residue lift
    filtration: dict[int, int]             # j -> order of the 1 + p^j layer


class RayClassGroup:
    """Cl(F, p^n) for a class-number-one field, exactly presented."""

    def __init__(self, nf: NumberFieldData, ctx: PrimeContext, n: int):
        if n < 1:
            raise ValueError("modulus exponent must be >= 1")
        if nf.class_number != 1:
            raise ValueError("only class number one is wired up")
        self.nf = nf
        self.ctx = ctx
        self.n = n
        self.p = ctx.p
        self.modulus = ctx.modulus(n)
        self.label = f"{nf.label}.p{ctx.p}.m{n}"

        g0 = ctx.generator_residue(n)
        dlog = ctx.dlog_list(n)
        phi = ctx.unit_group_order(n)
        relations: list[list[int]] = [[phi]]
        for u in nf.unit_gens:
            relations.append([dlog[ctx.residue(u, n) % self.modulus]])
        self.group = FiniteAbelianGroup(relations, labels=[f"[{g0}]"])
        self.order = self.group.order
        # the class of g0: the class of a unit residue r is dlog(r) times it
        self.generator_class = self.group.from_exponents([1])
        self._g0 = g0
        self.dlog = dlog
        self._struct: TorsionGammaData | None = None
        self._min_residue: dict[tuple[int, ...], int] | None = None

    # -- classes of ideals ----------------------------------------------------

    def class_of_residue(self, r: int) -> tuple[int, ...]:
        r %= self.modulus
        if gcd(r, self.p) != 1:
            raise ValueError(f"residue {r} is not prime to {self.p}")
        return self.group.from_exponents([self.dlog[r]])

    def ideal_to_element(self, x) -> tuple[int, ...]:
        """Class of the principal ideal (gamma).

        Accepts a field element, a rational integer, or a pair (gamma, i)
        naming a class representative index (only the principal rep 0 exists
        at class number one).  Any generator works: generators differ by a
        unit and units die in the quotient.
        """
        if isinstance(x, tuple) and len(x) == 2:
            gamma, idx = x
            if idx != 0:
                raise ValueError("nontrivial class representative at class number one")
            return self.ideal_to_element(gamma)
        if isinstance(x, int):
            x = self.nf.element_from_int(x)
        if isinstance(x, FieldElement):
            return self.class_of_residue(self.ctx.residue(x, self.n))
        raise ValueError(f"cannot map {x!r} to a ray class")

    def min_residue_of_class(self, elt: tuple[int, ...]) -> int:
        """Smallest positive residue lift of a class (a cheap canonical name)."""
        if self._min_residue is None:
            table: dict[tuple[int, ...], int] = {}
            for r, e in enumerate(self.dlog):
                if e >= 0:
                    table.setdefault(self.group.from_exponents([e]), r)
            self._min_residue = table
        return self._min_residue[elt]

    # -- structure ------------------------------------------------------------

    def torsion_and_gamma(self) -> TorsionGammaData:
        if self._struct is not None:
            return self._struct
        g = self.group
        p = self.p
        delta = sorted(x for x in g.elements() if gcd(g.order_of(x), p) == 1)
        w_part = sorted({
            self.class_of_residue(pow(r, p ** (self.n - 1), self.modulus))
            for r in range(1, self.modulus) if r % p != 0})
        p_part_order = 1
        o = self.order
        while o % p == 0:
            p_part_order *= p
            o //= p
        gamma_gen = g.identity
        gamma_lift = 1
        if p_part_order > 1:
            for r in range(2, self.modulus):
                if r % p == 0:
                    continue
                cls = self.class_of_residue(r)
                if g.order_of(cls) == p_part_order:
                    gamma_gen, gamma_lift = cls, r
                    break
        filtration: dict[int, int] = {}
        for j in range(1, self.n + 1):
            gen = self.class_of_residue((1 + p ** j) % self.modulus)
            filtration[j] = len(g.subgroup_generated([gen]))
        self._struct = TorsionGammaData(
            delta=delta, w_part=w_part, gamma_generator=gamma_gen,
            gamma_lift=gamma_lift, filtration=filtration)
        return self._struct

    # -- characters -----------------------------------------------------------

    def characters(self, conductor_exponent: int | None = None,
                   p_power_only: bool = False) -> list["HeckeCharacter"]:
        out = []
        for i, vec in enumerate(self.group.characters()):
            chi = HeckeCharacter(self, tuple(vec), index=i)
            if conductor_exponent is not None and chi.conductor_exponent != conductor_exponent:
                continue
            if p_power_only:
                a, _ = p_adic_split(chi.order, self.p)
                if a != 1:
                    continue
            out.append(chi)
        return out

    def character_by_index(self, i: int) -> "HeckeCharacter":
        return HeckeCharacter(self, self.group.char_at(i), index=i)

    def __repr__(self) -> str:
        return f"RayClassGroup({self.label}, order={self.order})"


def rcg_build(nf: NumberFieldData, ctx: PrimeContext, n: int) -> RayClassGroup:
    return RayClassGroup(nf, ctx, n)


class HeckeCharacter:
    """Finite-order character of a ray class group at modulus p^n.

    `value_on_class`/`value_on_ideal_of` evaluate the character as a function
    on ideal classes.  `local_value` is the complex-conjugate evaluation on
    residues, which is the normalization entering Gauss sums; keeping the two
    apart is what makes the sum identities and the functional equation hold
    simultaneously.
    """

    __slots__ = ("rcg", "vec", "index", "_conductor", "_phase")

    def __init__(self, rcg: RayClassGroup, vec: tuple[int, ...], index: int | None = None):
        self.rcg = rcg
        self.vec = vec
        self.index = rcg.group.char_index(vec) if index is None else index
        self._conductor: int | None = None
        self._phase: Fraction | None = None

    @property
    def label(self) -> str:
        return f"{self.rcg.label}.chi{self.index}"

    @property
    def p(self) -> int:
        return self.rcg.p

    @property
    def prime_ctx(self) -> PrimeContext:
        return self.rcg.ctx

    @property
    def level(self) -> int:
        return self.rcg.n

    @property
    def order(self) -> int:
        return self.rcg.group.char_order(self.vec)

    @property
    def dlog_phase(self) -> Fraction:
        """Phase of the value at the level's generator residue: the value on
        the class of a unit residue r is e(dlog_phase * dlog(r))."""
        if self._phase is None:
            self._phase = self.rcg.group.char_phase(self.vec, self.rcg.generator_class)
        return self._phase

    @property
    def local_phase(self) -> Fraction:
        """`local_value(r)` = e(local_phase * dlog(r)): the conjugate evaluation."""
        return -self.dlog_phase % 1

    def is_trivial(self) -> bool:
        return all(v == 0 for v in self.vec)

    # -- evaluations ----------------------------------------------------------

    def value_on_class(self, elt: Sequence[int]) -> RootOfUnity:
        return RootOfUnity(self.rcg.group.char_phase(self.vec, elt))

    def value_on_ideal_of(self, x) -> RootOfUnity | None:
        """Value at the class of the principal ideal (x); None when (x) is
        not coprime to the modulus (the character vanishes there)."""
        try:
            elt = self.rcg.ideal_to_element(x)
        except ValueError:
            return None
        return self.value_on_class(elt)

    def value_at_residue(self, r: int) -> RootOfUnity | None:
        e = self.rcg.dlog[r % self.rcg.modulus]
        if e < 0:
            return None
        return RootOfUnity(self.dlog_phase * e)

    def local_value(self, x) -> RootOfUnity | None:
        """Idele-style evaluation at a local unit (residue int or element)."""
        if isinstance(x, FieldElement):
            try:
                r = self.rcg.ctx.residue(x, self.rcg.n)
            except ValueError:
                return None
            x = r
        v = self.value_at_residue(int(x))
        return None if v is None else v.conjugate()

    # -- structure ------------------------------------------------------------

    @property
    def conductor_exponent(self) -> int:
        if self._conductor is None:
            self._conductor = self._compute_conductor()
        return self._conductor

    def _compute_conductor(self) -> int:
        if self.is_trivial():
            return 0
        p, n = self.rcg.p, self.rcg.n
        for m in range(1, n):
            if self.value_at_residue(1 + p ** m).is_one():
                return m
        return n

    @property
    def conductor_norm(self) -> int:
        return self.rcg.p ** self.conductor_exponent

    def is_primitive(self) -> bool:
        return self.conductor_exponent == self.rcg.n

    def conjugate(self) -> "HeckeCharacter":
        return HeckeCharacter(self.rcg, self.rcg.group.inv(self.vec))

    def power(self, t: int) -> "HeckeCharacter":
        return HeckeCharacter(self.rcg, self.rcg.group.pow(self.vec, t))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, HeckeCharacter) and self.rcg is other.rcg
                and self.vec == other.vec)

    def __hash__(self) -> int:
        return hash((id(self.rcg), self.vec))

    def __repr__(self) -> str:
        return f"HeckeCharacter({self.label}, order={self.order}, cond=p^{self.conductor_exponent})"


class ResidueCharacter:
    """Character of the full residue unit group (O/p^c)^* (no unit quotient).

    These are not ray class characters; they exist so the Gauss-sum identities
    can be exercised over fields whose ray class groups at the prime collapse
    (the real quadratic field here has trivial ones at every level).  They
    expose the same local surface as HeckeCharacter: `local_value`,
    `conductor_exponent`, `conjugate`.
    """

    __slots__ = ("ctx", "level", "k", "index", "_conductor")

    def __init__(self, ctx: PrimeContext, level: int, k: int):
        self.ctx = ctx
        self.level = level
        self.k = k % ctx.unit_group_order(level)
        self.index = self.k
        self._conductor: int | None = None

    @property
    def label(self) -> str:
        return f"{self.ctx.nf.label}.p{self.ctx.p}.res{self.level}.chi{self.k}"

    @property
    def p(self) -> int:
        return self.ctx.p

    @property
    def prime_ctx(self) -> PrimeContext:
        return self.ctx

    @property
    def order(self) -> int:
        phi = self.ctx.unit_group_order(self.level)
        return phi // gcd(self.k, phi)

    @property
    def dlog_phase(self) -> Fraction:
        """`local_value(r)` = e(dlog_phase * dlog(r)); with no unit quotient the
        local evaluation is the plain dual value."""
        return Fraction(self.k, self.ctx.unit_group_order(self.level))

    local_phase = dlog_phase

    def is_trivial(self) -> bool:
        return self.k == 0

    def local_value(self, x) -> RootOfUnity | None:
        if isinstance(x, FieldElement):
            try:
                x = self.ctx.residue(x, self.level)
            except ValueError:
                return None
        e = self.ctx.dlog_list(self.level)[int(x) % self.ctx.modulus(self.level)]
        if e < 0:
            return None
        return RootOfUnity(self.dlog_phase * e)

    @property
    def conductor_exponent(self) -> int:
        if self._conductor is None:
            if self.k == 0:
                self._conductor = 0
            else:
                p, c = self.ctx.p, self.level
                self._conductor = c
                for m in range(1, c):
                    if self.local_value((1 + p ** m) % self.ctx.modulus(c)).is_one():
                        self._conductor = m
                        break
        return self._conductor

    @property
    def conductor_norm(self) -> int:
        return self.ctx.p ** self.conductor_exponent

    def is_primitive(self) -> bool:
        return self.conductor_exponent == self.level

    def conjugate(self) -> "ResidueCharacter":
        return ResidueCharacter(self.ctx, self.level, -self.k)

    def power(self, t: int) -> "ResidueCharacter":
        return ResidueCharacter(self.ctx, self.level, self.k * t)

    def __repr__(self) -> str:
        return f"ResidueCharacter({self.label}, order={self.order})"


def residue_characters(ctx: PrimeContext, level: int,
                       primitive_only: bool = True) -> list[ResidueCharacter]:
    phi = ctx.unit_group_order(level)
    out = [ResidueCharacter(ctx, level, k) for k in range(phi)]
    if primitive_only:
        out = [c for c in out if c.is_primitive()]
    return out
