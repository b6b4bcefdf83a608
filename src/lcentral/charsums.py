"""Gauss sums, root numbers, and Galois averages of characters.

Every character here is a `rayclass.HeckeCharacter`: an exponent on a cyclic
ray class group, or on the full residue unit group of a "res" label.  Both
evaluate the same way, by `value_on_ideal_of`, so nothing below asks which
group a character comes from.  chi((x)) below is that value at the ideal (x).

The Gauss sum here is the shifted complete character sum

    G(chi, a) = chi((d)) * sum_x conj(chi((x))) * efin(a * x~ / (d * pi^c))

over unit residues x mod p^c, where c is the conductor exponent, pi the fixed
generator of the prime, x~ an integral lift, d a generator of the different,
and `efin` is e(-Tr(.)).  The shift identity G(chi, a) = chi((a)) G(chi), the
modulus |G|^2 = p^c, and the conjugation law conj(G(chi)) = chi((-1))
G(conj chi) all hold exactly, and over the rationals G(conj chi) coincides
with the classical Gauss sum of the attached (even) Dirichlet character.

Root numbers follow the prime-power-conductor evaluation for forms with
trivial finite central character, the only forms `newforms.newform_load`
admits: W(chi) = chi(-1) * G(conj chi)^2 / p^c, which has modulus one
identically.

A Galois orbit is its seed chi, which owns p, and the depth n0 of p-power
roots of unity in the coefficient field, which the form owns
(`NewformData.n0`): every orbit function takes (chi, n0), and the members
are the chi^t over `substitutions`, built once per (p, order, n0).

Every exact object here is a `roots.CyclotomicNumber` built straight from an
integer histogram: the exact Gauss sum from the histogram of its term
exponents, and an exact Galois mean from the histogram of k t mod ord over
the substitutions t, over the orbit size.  The orbit values are powers of
the seed value, chi^t(a) = chi(a)^t, so `average_char` evaluates the
character once, and the exact mean and its closed form (zero, a rational,
or the seed value, recognized from one reduction) are memoised per value
(`_value_mean`).

Residues reach characters only through rayclass.py's exponent tables j(r),
chi((r)) = e(j(r) / ord), and unit indices: nothing here reads a discrete log.
The averaging routes of afe.py take two separate paths through this module.
Route one is per orbit and float: `character_sums` sums a residue table
against every character of a level with one FFT over the discrete logs (the
exponents of `rayclass.dual_generator`), and `orbit_gauss_sums` reads every
member's G(conj chi^t) from one such transform of the additive phases, for
`orbit_float_root_numbers`.  `gauss_sum` and `root_number` stay the
per-character oracles.  Route two is per orbit and exact:
`orbit_root_numbers` checks one exact square eps = G(conj chi)^2 / q
(`_unit_square`: h is reduced first, where it has at most p - 1 terms, eps
is read off its float value and h h - q eps must be zero) and gets every
W(chi^t) through the Galois action,
G(chi^t) = conj(chi^t((t))) * sigma_t(G(chi)), as int64 phases over one
level read off the seed's exponent table.  The tables
`averaged_char_table` and `averaged_iota_table` are one orbit-mean DFT of
the members binned by t mod ord (weights 1, and the W phases), spread over
the residues by `scatter`, as afe's character tables are.  Route two never
calls route one's float Gauss sums, so the gap between the routes stays a
check.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, pi, sqrt

import numpy as np

from .abelian import p_adic_split
from .roots import CyclotomicNumber, RootOfUnity, unit_circle_array
from .rayclass import HeckeCharacter, PrimeContext, dual_generator

# largest cyclotomic level we are willing to reduce exactly
EXACT_LEVEL_LIMIT = 20000

# |averaged iota| values within this relative distance of the maximum count
# as tied in kloosterman_bound_report's argmax
ARGMAX_TIE_RTOL = 1e-12


def substitutions(chi: HeckeCharacter, n0: int) -> np.ndarray:
    """The exponent substitutions t of the orbit members chi^t, in orbit
    order, as a read-only int64 array shared by every orbit of its order
    and depth.

    n0 is the depth of p-power roots of unity in the coefficient field the
    character values are adjoined to.  For chi of order p^e the
    substitutions are the units t mod p^e with t = 1 mod p^min(e, n0),
    increasing ([1] at e = 0); being distinct mod the order, they give
    distinct members.
    """
    if n0 < 0:
        raise ValueError("n0 must be >= 0")
    a, e = p_adic_split(chi.order, chi.p)
    if a != 1:
        raise ValueError("Galois orbits are defined here for p-power-order characters")
    return _substitution_array(chi.p, e, n0)


@lru_cache(maxsize=None)
def _substitution_array(p: int, e: int, n0: int) -> np.ndarray:
    if e == 0:
        got = np.ones(1, dtype=np.int64)
    else:
        fixed = p ** min(e, n0)
        ts = np.arange(1, p ** e, dtype=np.int64)
        got = ts[(ts % p != 0) & (ts % fixed == 1 % fixed)]
    got.setflags(write=False)
    return got


def galois_orbit(chi: HeckeCharacter, n0: int) -> list[HeckeCharacter]:
    """The conjugates chi^t of a p-power-order character, one character per
    member: the per-member view the tests check the orbit computations
    against, which themselves work on the substitutions alone."""
    return [chi.power(t) for t in substitutions(chi, n0).tolist()]


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------

def gauss_sum(chi: HeckeCharacter, shift=1, exact: bool = False):
    """Shifted Gauss sum G(chi, shift); complex, or CyclotomicNumber if exact.

    The trivial character gets G := 1 by convention.  `shift` is an integer
    of any type `operator.index` takes (a float or a field element raises
    TypeError; `PrimeContext.residue` gives a field element's class); only
    its residue class mod p^c matters.
    """
    if chi.conductor_exponent == 0:
        return CyclotomicNumber(1, {0: 1}) if exact else 1.0 + 0j
    den, exps, pref = _gauss_terms(chi, shift)

    if exact:
        level = lcm(den, pref.order)
        if level > EXACT_LEVEL_LIMIT:
            raise ValueError(
                f"exact Gauss sum would need cyclotomic level {level}; use exact=False")
        # pref * e(x / den) = e((x level / den + f) / level), pref = e(f / level)
        shifted = (exps * (level // den) + pref.phase.numerator * (level // pref.order)) % level
        return CyclotomicNumber.from_array(level, np.bincount(shifted, minlength=level))

    total = 0j
    for term in unit_circle_array(den)[exps].tolist():
        total += term
    return total * pref.to_complex()


def _gauss_terms(chi: HeckeCharacter, shift) -> tuple[int, np.ndarray, RootOfUnity]:
    """(den, exps, pref) with G(chi, shift) = pref * sum e(exps / den), one
    exponent per unit residue x mod the conductor, x increasing."""
    add, pref = _gauss_parts(chi, shift)
    # term x is conj(chi)(x) e(x * add) = e(-j(x) / ord + x * add)
    den = lcm(chi.order, add.denominator)
    js = chi.exponents()[:chi.conductor_norm]
    units = np.flatnonzero(js >= 0)
    anum = add.numerator * (den // add.denominator)
    return den, (anum * units - den // chi.order * js[units]) % den, pref


def _gauss_parts(chi: HeckeCharacter, shift) -> tuple[Fraction, RootOfUnity]:
    """(add, pref) with G(chi, shift) = pref * sum_x conj(chi((x))) e(x * add)
    over the unit residues x mod the conductor, pref = chi((d)).  add depends on the
    conductor exponent and the shift only, not on the character: it is
    efin_phase(a z), z = (d pi^c)^-1, which for the integer shift a is
    a * efin_phase(z) mod 1."""
    phase = chi.prime_ctx.gauss_phase(chi.conductor_exponent)
    num, den = operator.index(shift) * phase.numerator, phase.denominator
    return Fraction(num % den, den), chi.value_on_class(chi.group.different_class)


def root_number(chi: HeckeCharacter) -> complex:
    """The twist root number W(chi) for a form with trivial central character.

    Unit modulus is a hard postcondition; a violation means the inputs are
    outside the supported configuration and raises.
    """
    q = chi.conductor_norm
    g = gauss_sum(chi.conjugate())
    w = chi.value_on_ideal_of(-1).conjugate().to_complex() * g * g / q
    if abs(abs(w) - 1) > 1e-9:
        raise ArithmeticError(f"root number drifted off the unit circle: |W| = {abs(w)}")
    return w


def character_sums(ctx: PrimeContext, level: int, values: np.ndarray) -> np.ndarray:
    """sum_r values[r] e(u dlog(r) / h) over the unit residues r mod p^level,
    for every u mod h = phi(p^level), as one array indexed by u.

    The character with value e(u dlog(r) / h) at r is the u-th character of
    the level's unit group, so this is the sum of `values` against all of
    them at once: regroup by discrete log, then one length-h FFT.  The units
    are columns 1..p-1 of the residues laid out in rows of p, read as views.
    """
    p = ctx.p
    by_log = np.zeros(ctx.unit_group_order(level), dtype=np.complex128)
    by_log[dual_generator(ctx, level).exponents().reshape(-1, p)[:, 1:]] = \
        values.reshape(-1, p)[:, 1:]
    return np.fft.ifft(by_log, norm="forward")


def orbit_index(chi: HeckeCharacter, n0: int) -> np.ndarray:
    """For each orbit member chi^t, in orbit order, the u with
    chi^t(r) = e(u dlog(r) / h): where `character_sums` holds its sum."""
    h = chi.prime_ctx.unit_group_order(chi.level)
    return chi.unit_index * substitutions(chi, n0) % h


def _powers(root: RootOfUnity, ts: np.ndarray) -> np.ndarray:
    """root^t for each t, reduced exactly before rendering."""
    num, den = root.phase.numerator, root.phase.denominator
    return np.exp(2j * pi * (num * ts % den) / den)


def orbit_gauss_sums(chi: HeckeCharacter, n0: int) -> np.ndarray:
    """G(conj chi^t) for the orbit members, in orbit order, as floats.

    The terms of G(conj chi^t) carry conj(conj chi^t((x))) = chi^t((x)),
    so G(conj chi^t) is its prefactor, the t-th power of that of conj(chi), times the sum of
    the additive phases e(x * add) against chi^t.  The phases are the same
    for every member, so one `character_sums` transform serves the orbit.
    """
    if chi.conductor_exponent == 0:
        raise ValueError(f"{chi.label} is trivial: its orbit has no Gauss sums")
    subs = substitutions(chi, n0)
    add, pref = _gauss_parts(chi.conjugate(), 1)
    pctx = chi.prime_ctx
    xs = np.arange(chi.conductor_norm, dtype=np.int64)
    values = np.zeros(pctx.modulus(chi.level), dtype=np.complex128)
    values[:len(xs)] = np.exp(2j * pi * (add.numerator * xs % add.denominator) / add.denominator)
    return character_sums(pctx, chi.level, values)[orbit_index(chi, n0)] * _powers(pref, subs)


def orbit_float_root_numbers(chi: HeckeCharacter, n0: int) -> np.ndarray:
    """W(chi^t) = chi^t(-1) G(conj chi^t)^2 / q for the orbit members, in
    orbit order, as floats from `orbit_gauss_sums`.  Each is held to the unit
    circle as `root_number` holds its one."""
    g = orbit_gauss_sums(chi, n0)
    subs = substitutions(chi, n0)
    w = _powers(chi.value_on_ideal_of(-1).conjugate(), subs) * g * g / chi.conductor_norm
    drift = np.abs(np.abs(w) - 1)
    if not np.all(drift <= 1e-9):
        raise ArithmeticError(
            f"root number drifted off the unit circle: |W| = {abs(w[np.argmax(drift)])}")
    return w


def orbit_root_numbers(chi: HeckeCharacter, n0: int) -> tuple[int, np.ndarray]:
    """(L, w) with W(chi^t) = e(w_t / L) exactly for the orbit members, in
    orbit order, from one exact Gauss sum.

    With psi = conj(chi), G(psi^t) = conj(psi^t((t))) * sigma_t(G(psi))
    = chi^t((t)) * sigma_t(G(psi)), so
    W(chi^t) = chi^t((-1)) chi^t((t))^2 sigma_t(eps) with eps = G(psi)^2 / q,
    checked once to be a root of unity.  chi^t((-1)) = 1, as chi has odd
    order, and with chi((r)) = e(j(r) / ord), chi^t((t))^2 = e(2 t j(t) / ord);
    sigma_t on Q(zeta_M), M = lcm(den, order of pref) odd, fixes -1, so on
    eps it is the power by the odd representative of t mod M.  G(psi) is
    held as the integer histogram of its terms, so no cyclotomic level
    limit applies.
    """
    subs = substitutions(chi, n0)
    den, exps, pref = _gauss_terms(chi.conjugate(), 1)
    eps = _unit_square(np.bincount(exps, minlength=den), chi.conductor_norm,
                       chi.label) * pref * pref
    odd = np.where(subs % 2 == 1, subs, subs + lcm(den, pref.order))
    order = chi.order
    chi_part = subs * 2 * chi.exponents()[subs] % order
    eps_part = eps.phase.numerator * odd % eps.order
    level = lcm(order, eps.order)
    return level, (chi_part * (level // order) + eps_part * (level // eps.order)) % level


def _unit_square(hist: np.ndarray, q: int, label: str) -> RootOfUnity:
    """The root of unity eps = h^2 / q for h = sum_e hist[e] e(e / n),
    n = len(hist): eps is read off the float value of h^2, and h^2 - q eps
    must vanish exactly.

    h is reduced onto the tensor basis first.  A Gauss sum of conductor
    p^c, c >= 2, is p^(c/2) times a root of unity, or p^((c-1)/2) times a
    root of unity and a quadratic Gauss sum mod p (stationary phase), so
    reduced it has at most p - 1 nonzero terms: its float value sums only
    those, and the square is a few rotations (`CyclotomicNumber.__mul__`)."""
    n = len(hist)
    h = CyclotomicNumber.from_array(n, hist).reduced()
    z = h.to_complex()
    turns = cmath.phase(z * z) / (2 * pi)
    eps = RootOfUnity(Fraction(round(turns * 2 * n), 2 * n))
    if not (h * h - CyclotomicNumber.from_root(eps, coeff=q)).is_zero():
        raise ArithmeticError(f"G^2 / N(cond) is not a root of unity at {label}")
    return eps


# ---------------------------------------------------------------------------
# Galois averages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AverageResult:
    """Exact Galois-averaged character value.

    `cyclotomic` always carries the exact mean.  When the mean matches the
    closed form (it always should), `coeff`/`root` express it as
    coeff * root with a rational coefficient and a single root of unity.
    """

    cyclotomic: CyclotomicNumber
    orbit_size: int
    coeff: Fraction | None
    root: RootOfUnity | None

    @property
    def value(self) -> complex:
        return self.cyclotomic.to_complex()

    def is_zero(self) -> bool:
        return self.coeff == 0 if self.coeff is not None else self.cyclotomic.is_zero()


def _recognize(mean: CyclotomicNumber, seed: RootOfUnity) -> tuple[Fraction | None, RootOfUnity | None]:
    """The closed form coeff * root of a mean of powers of the seed, from its
    one reduced form: zero, a rational, or the seed itself.  A mean of roots
    of unity has modulus one only when every term is the same root, so it is
    the seed exactly when its unreduced form is the seed alone."""
    rational = mean.is_rational()
    if rational is not None:
        return rational, RootOfUnity(0)
    if mean.coeffs == {seed.phase * mean.level: 1}:
        return Fraction(1), seed
    return None, None


def average_char(chi: HeckeCharacter, n0: int, a) -> AverageResult:
    """Exact mean of chi^t(a) over the Galois orbit (value on ideal classes).

    The members' values are powers of the seed value: chi^t(a) = chi(a)^t.
    So the character is evaluated once, at the seed, and the exact mean and
    its closed form come from the per-value memo `_value_mean`.
    """
    subs = substitutions(chi, n0)
    seed = chi.value_on_ideal_of(a)
    if seed is None:
        return AverageResult(cyclotomic=CyclotomicNumber(1), orbit_size=len(subs),
                             coeff=Fraction(0), root=RootOfUnity(0))
    return _value_mean(seed, chi.p, n0, chi.order)


@lru_cache(maxsize=1024)
def _value_mean(value: RootOfUnity, p: int, n0: int, order: int) -> AverageResult:
    """The exact mean of value^t over the substitutions t of the orbits of
    characters of p-power order `order` at depth n0, with its closed form.
    Shared between callers, which is why AverageResult is frozen.

    With value = e(k / ord) in lowest terms the exponents are k t mod ord at
    level ord, already the least level: t = 1 is among the substitutions.
    """
    subs = _substitution_array(p, p_adic_split(order, p)[1], n0)
    level = value.order
    hist = np.bincount(value.phase.numerator * subs % level, minlength=level)
    mean = CyclotomicNumber.from_array(level, hist, len(subs))
    coeff, root = _recognize(mean, value)
    return AverageResult(cyclotomic=mean, orbit_size=len(subs), coeff=coeff, root=root)


# ---------------------------------------------------------------------------
# per-value tables (route two): chi^t(r) = e(t j / ord) when chi(r) = e(j / ord),
# so every orbit mean depends on r only through j.  The means for all j are
# one DFT, spread over the residues by `scatter`.

def _orbit_dft(chi: HeckeCharacter, n0: int,
               weights: np.ndarray | None = None) -> np.ndarray:
    """(1 / orbit) sum_t weights_t e(-t j / ord) for every j mod ord (weights
    1 when None): bin the weights by t mod ord, then one length-ord DFT."""
    order = chi.order
    ts = substitutions(chi, n0) % order
    if weights is None:
        bins = np.bincount(ts, minlength=order)
    else:
        bins = (np.bincount(ts, weights=weights.real, minlength=order)
                + 1j * np.bincount(ts, weights=weights.imag, minlength=order))
    return np.fft.fft(bins) / len(ts)


def averaged_char_table(chi: HeckeCharacter, n0: int) -> np.ndarray:
    """average_char(chi, n0, r).value at every residue r mod p^level, 0 off
    the units: the mean at j is the conjugate of the unweighted DFT."""
    return scatter(chi, np.conj(_orbit_dft(chi, n0)))


def averaged_iota_table(chi: HeckeCharacter, n0: int) -> np.ndarray:
    """The mean over the Galois orbit of W(chi^t) conj(chi^t)(r) at every
    residue r mod p^level, 0 off the units, with the exact roots W from
    `orbit_root_numbers`, each rendered as RootOfUnity.to_complex renders it."""
    level, ws = orbit_root_numbers(chi, n0)
    distinct, member = np.unique(ws, return_inverse=True)
    phases = np.array([cmath.exp(2j * pi * (w / level)) for w in distinct.tolist()])
    return scatter(chi, _orbit_dft(chi, n0, phases[member]))


def scatter(chi: HeckeCharacter, per_value) -> np.ndarray:
    """per_value[j] at every residue r mod p^level with chi((r)) = e(j / ord),
    0 off the units: values indexed by the exponent j, spread over the
    residues through `HeckeCharacter.exponents`."""
    js = chi.exponents()
    return np.where(js >= 0, np.asarray(per_value, dtype=np.complex128)[js], 0)


def kloosterman_bound_report(chi: HeckeCharacter, n0: int) -> dict:
    """Sweep |averaged iota| over unit residues and compare to p^(-n/2).

    n is the experiment level attached to the conductor exponent c by
    c = n + n0 + 1; the report carries the sweep maximum, the implied
    constant against that scale, and the constant over sqrt(p): at n0 = 0
    Salie's evaluation of the Kloosterman sums bounds |averaged iota| by
    sqrt(p) p^(-n/2), so that ratio is at most 1 (README).
    """
    c = chi.conductor_exponent
    p = chi.p
    n = c - n0 - 1
    if n < 0:
        raise ValueError(f"conductor too small for depth n0 = {n0}")
    # the table is 0 off the units, and |z| is hypot(re, im) bit for bit
    table = averaged_iota_table(chi, n0)[:chi.conductor_norm]
    moduli = np.hypot(table.real, table.imag)
    max_abs = float(moduli.max())
    # smallest residue at the maximum: when several residues share the
    # maximal modulus (at n0 >= 1 every unit residue does), the residue
    # decides, not the rounding noise of the float table
    units = np.arange(table.size) % p != 0
    argmax = int(np.argmax(units & (moduli >= max_abs * (1 - ARGMAX_TIE_RTOL))))
    scale = p ** (-n / 2)
    return {
        "character_label": chi.label,
        "p": p,
        "level": n,
        "conductor_exponent": c,
        "conductor_norm": p ** c,
        "orbit_size": len(substitutions(chi, n0)),
        "max_abs": max_abs,
        "argmax_residue": argmax,
        "scale": scale,
        "constant": max_abs / scale,
        "constant_over_sqrt_p": max_abs / scale / sqrt(p),
    }
