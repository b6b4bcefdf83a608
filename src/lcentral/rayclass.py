"""Ray class groups of conductor p^n at a fixed degree-one prime.

For the class-number-one fields shipped here, the ray class group mod p^n is
the unit group of O/p^n modulo the image of the global units.  The residue
ring is identified with Z/p^n by sending sqrt(m) to its one Hensel-lifted
image mod p^max_level, held by the `PrimeContext` (0 over Q); its `residue`
and `residues` are the only reduction of field elements mod p^n in the
package.  So all group structure reduces to exact arithmetic in (Z/p^n)^*:
a primitive root g0 and discrete logs.

(Z/p^n)^* is cyclic, so every group built here is Z/h with
h = gcd(phi(p^n), dlog(u) for each unit generator u), and the class of a
unit residue r is the integer dlog(r) mod h (-dlog(r) for the residue group,
see `RayClassGroup`).  A character is one exponent k mod h: its label index
is k, and order, conjugation, powers, conductor and equality are integer
arithmetic on k; its values are rational phases (roots of unity), never
floats.  The same class serves the full residue unit group behind "res"
labels, built with no unit relations.  Only this module reads the level's
discrete logs (one int64 array over the residues mod p^n, -1 off the units)
and a group's orientation: other modules read a group's `classes` and a
character's `exponents` j(r), chi((r)) = e(j(r) / order), and `unit_index`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd

import numpy as np

from .abelian import factorize, p_adic_split, primitive_root
from .fields import FieldElement, NumberFieldData
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


def _hensel_sqrt(nf: NumberFieldData, pi: FieldElement, p: int, level: int) -> int:
    """The image of sqrt(m) in O / (pi)^level = Z/p^level: the root r of
    x^2 - m with sqrt(m) - r in (pi), Hensel-lifted from mod p (0 over Q,
    where elements carry no sqrt(m) coordinate).  pi = a + b sqrt(m) has
    norm +-p, so p does not divide b and sqrt(m) = -a / b mod (pi)."""
    if nf.degree == 1:
        return 0
    a, b = (int(c) for c in pi.coords)
    r = -a * pow(b, -1, p) % p if b % p else None
    if r is None or not ((nf.gen - nf.element_from_int(r)) / pi).is_integral():
        raise ArithmeticError(f"no root of x^2 - {nf.m} mod {p} lies in ({pi!r})")
    # Newton's step doubles the exactness level until it covers the request
    k = 1
    while k < level:
        k = min(2 * k, level)
        r = (r - (r * r - nf.m) * pow(2 * r, -1, p ** k)) % p ** k
    return r % p ** level


class PrimeContext:
    """A fixed degree-one prime (pi) above p: the image of sqrt(m) mod
    p^max_level, and per-level discrete logs, dual generators
    (`dual_generator`) and Gauss-sum phases."""

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
        # the root mod p^level is this one reduced mod p^level
        self._sqrt_image = _hensel_sqrt(nf, pi, p, self.max_level)
        self._gauss_phases: dict[int, Fraction] = {}
        self._dlogs: dict[int, np.ndarray] = {}
        self._duals: dict[int, HeckeCharacter] = {}

    def check_level(self, level: int) -> None:
        if level > self.max_level:
            raise ValueError(
                f"level {level} needs residue tables of {self.p}^{level} entries; "
                f"the cap is {RESIDUE_TABLE_CAP} (level <= {self.max_level} at p = {self.p})")

    def modulus(self, level: int) -> int:
        return self.p ** level

    def residue(self, x: FieldElement, level: int) -> int:
        """x mod (pi)^level in Z/p^level, denominators inverted; ValueError
        when one is divisible by p (x is not integral at the prime)."""
        self.check_level(level)
        mod = self.modulus(level)
        acc = 0
        for c, image in zip(x.coords, (1, self._sqrt_image)):
            if c.denominator % self.p == 0:
                raise ValueError("element is not integral at the prime")
            acc += c.numerator * pow(c.denominator, -1, mod) * image
        return acc % mod

    def residues(self, u: np.ndarray, v: np.ndarray, level: int) -> np.ndarray:
        """u + v*sqrt(m) mod (pi)^level for int64 coordinate arrays (v = 0
        over Q), as int64 residues in [0, p^level)."""
        self.check_level(level)
        mod = self.modulus(level)
        return (u % mod + v % mod * (self._sqrt_image % mod)) % mod

    def gauss_phase(self, c: int) -> Fraction:
        """phi = efin_phase(z) for the Gauss sums of conductor p^c, with
        z = (d pi^c)^-1 and d the different's generator.  The trace is
        Q-linear, so efin(a x z) = e(a x phi) for all integers a and x."""
        got = self._gauss_phases.get(c)
        if got is None:
            z = (self.nf.different_gen * self.pi ** c).inverse()
            got = self._gauss_phases[c] = self.nf.efin_phase(z)
        return got

    def dlog_array(self, level: int) -> np.ndarray:
        """Exponent of the level's primitive root at every residue mod p^level,
        -1 off the units (read-only int64)."""
        arr = self._dlogs.get(level)
        if arr is None:
            phi = self.unit_group_order(level)
            mod = self.modulus(level)
            arr = np.full(mod, -1, dtype=np.int64)
            arr[root_powers(primitive_root(self.p, level), phi, mod)] = np.arange(
                phi, dtype=np.int64)
            arr.setflags(write=False)
            self._dlogs[level] = arr
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
    so that its character k has value e(-k dlog(r) / phi) at r, the rule
    "res" labels name.
    """

    def __init__(self, ctx: PrimeContext, n: int, unit_quotient: bool = True):
        nf = self.nf = ctx.nf
        if n < 1:
            raise ValueError("modulus exponent must be >= 1")
        if nf.class_number != 1:
            raise ValueError("only class number one is wired up")
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
        # p does not ramify and N((d)) is the discriminant, so (d) is prime to p
        self.different_class = self.class_of(nf.different_gen)

    def _key(self) -> tuple:
        return (self.ctx.pi, self.n, self.unit_quotient)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RayClassGroup) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- classes of ideals ----------------------------------------------------

    def classes(self, residues) -> np.ndarray:
        """The class of each residue (taken mod p^n), -1 where the residue is
        not a unit: int64, an array for an array and a scalar for an int."""
        return self._classify(self.dlog[residues % self.modulus])

    def _classify(self, dlog):
        """The class at a discrete log, -1 at -1 (off the units), for an
        int64 array or a Python int alike."""
        # dlog >> 63 is -1 off the units (dlog = -1) and 0 on them
        return dlog * self.generator_exponent % self.order | dlog >> 63

    def class_of(self, x) -> int:
        """Class of the principal ideal (x), for a field element or any
        integer (through `operator.index`; other types raise TypeError).
        Any generator works: generators differ by a unit and units die in
        the quotient.  Raises ValueError when (x) is not prime to p.
        """
        r = self.ctx.residue(x, self.n) if isinstance(x, FieldElement) else operator.index(x)
        c = self._classify(int(self.dlog[r % self.modulus]))
        if c < 0:
            raise ValueError(f"({x!r}) is not prime to {self.p}")
        return c

    def min_residue_of_class(self, c: int) -> int:
        """Smallest positive residue lift of a class (a cheap canonical name)."""
        return int(np.flatnonzero(self.classes(np.arange(self.modulus)) == c)[0])

    def torsion_classes(self) -> list[int]:
        """The prime-to-p torsion Delta: the multiples of h / |Delta|, from 0."""
        return list(range(0, self.order, self.order // self.delta_order))

    # -- characters -----------------------------------------------------------

    def characters(self) -> list["HeckeCharacter"]:
        return [HeckeCharacter(self, k) for k in range(self.order)]

    def character_by_index(self, i: int) -> "HeckeCharacter":
        if not 0 <= i < self.order:
            raise IndexError(f"character index {i} out of range for order {self.order}")
        return HeckeCharacter(self, i)

    def __repr__(self) -> str:
        return f"RayClassGroup({self.label}, order={self.order})"


def rcg_build(ctx: PrimeContext, n: int) -> RayClassGroup:
    return RayClassGroup(ctx, n)


def residue_characters(ctx: PrimeContext, level: int) -> list["HeckeCharacter"]:
    """The primitive characters of the full residue unit group (O/p^level)^*.

    They are not ray class characters; they exist so the Gauss-sum identities
    can be exercised over fields whose ray class groups at the prime collapse
    (the real quadratic field here has trivial ones at every level).
    """
    chars = RayClassGroup(ctx, level, unit_quotient=False).characters()
    return [chi for chi in chars if chi.is_primitive()]


def dual_generator(ctx: PrimeContext, level: int) -> "HeckeCharacter":
    """The character r -> e(dlog(r) / phi(p^level)) of (O/p^level)^*, whose
    powers are all the level's characters: unit_index 1, exponents dlog(r).
    It is the residue group's character -1: that group's generator class is
    -1.  `ctx` holds it per level, beside the level's discrete logs."""
    chi = ctx._duals.get(level)
    if chi is None:
        chi = ctx._duals[level] = HeckeCharacter(
            RayClassGroup(ctx, level, unit_quotient=False), -1)
    return chi


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
    class c is e(k c / h), and k is its label index."""

    __slots__ = ("group", "k", "_conductor", "_exponents")

    def __init__(self, group: RayClassGroup, k: int):
        self.group = group
        self.k = k % group.order
        self._conductor: int | None = None
        self._exponents: np.ndarray | None = None

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
        h = self.group.order
        return Fraction(self.k * self.group.generator_exponent % h, h)

    def exponents(self) -> np.ndarray:
        """j(r) at every residue r mod p^level, with chi((r)) = e(j(r) / order),
        as a read-only int64 array kept from first use, -1 off the units (as
        in `RayClassGroup.classes`).  For the dual generator, j = dlog, so
        the level's held discrete logs are returned, not a copy."""
        if self._exponents is None:
            dlog = self.group.dlog
            if self.dlog_phase == Fraction(1, self.group.ctx.unit_group_order(self.level)):
                self._exponents = dlog
            else:
                self._exponents = dlog * self.dlog_phase.numerator % self.order | dlog >> 63
                self._exponents.setflags(write=False)
        return self._exponents

    @property
    def unit_index(self) -> int:
        """The u with chi((r)) = e(u dlog(r) / phi(p^level)) at the units r:
        chi as the u-th power of `dual_generator`."""
        return int(self.dlog_phase * self.group.ctx.unit_group_order(self.level))

    def is_trivial(self) -> bool:
        return self.k == 0

    # -- evaluations ----------------------------------------------------------

    def value_on_class(self, c: int) -> RootOfUnity:
        h = self.group.order
        return RootOfUnity(Fraction(self.k * c % h, h))

    def value_on_ideal_of(self, x) -> RootOfUnity | None:
        """Value at the class of the principal ideal (x), for a field element
        or an integer; None when (x) is not prime to p (the character
        vanishes there)."""
        try:
            c = self.group.class_of(x)
        except ValueError:
            return None
        return self.value_on_class(c)

    # -- structure ------------------------------------------------------------

    @property
    def conductor_exponent(self) -> int:
        """Least m with the character trivial on 1 + p^m (0 when trivial)."""
        if self._conductor is None:
            g = self.group
            self._conductor = 0 if self.k == 0 else next(
                (m for m in range(1, g.n)
                 if self.k * g.class_of(1 + g.p ** m) % g.order == 0),
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
