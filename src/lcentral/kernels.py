"""Archimedean kernels for the approximate functional equation.

Two pieces live here:

* GammaFactor -- the completed archimedean factor of a totally real field:
  a rational constant times |disc|^z times one shifted (2 pi)^-z Gamma(z)
  per real place.
* VKernel -- the cutoff V(x) = (1/2 pi i) int GammaFactor(s + t) x^-t dt/t
  appearing on both sides of the approximate functional equation, with two
  independent evaluation routes.

The weight is the point mass at w = 1: the identity holds for any weight
whose Mellin transform is even, entire and 1 at 0, and the point mass's
transform is 1, so V is the classical Lavrik form (Dokchitser, "Computing
special values of motivic L-functions", Experiment. Math. 13, 2004).

Route design: the straight contour quadrature (Re t = 2) computes an
integral whose magnitude is set by GammaFactor(s + 2) x^-2 while the answer
decays like exp(-c x), so in double precision it loses all relative accuracy
once x is around 15.  The production route therefore writes V through the
upper incomplete gamma Q(a, x), which is stable for every x >= 0.  The
contour route is kept on the narrow strips Re t in {-1/2, 2} as an
independent cross-check.

One special function behind every V.  One real place: V(x) =
GammaFactor(s) Q(a, 2 pi x / |disc|) with a = s - m.  When 2a is an integer
-- every central point s = k/2 and every half-integer s -- Q is a finite sum
of positive terms over exp and math.erfc; for any other a the same sum
starts from Q(f, x), f in (0, 1) the fractional part of a, by a power
series or a continued fraction.  Two
real places: the Bessel K tail, a trapezoid sum of Q(a1 + a2, .) over the
integral representation of K.  GammaFactor is math.gamma on the real line
(math.lgamma where that overflows) and the recurrence plus Stirling's
series off it.  So the package needs numpy alone.
"""

import math
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi
_LOG_TWO_PI = math.log(TWO_PI)

# B_2k / (2k (2k - 1)), k = 1..7: Stirling's series for log Gamma.  At
# |w| >= 15 the first omitted term is below 1e-19.
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156)
_STIRLING_FROM = 15.0


def _erfc(x: np.ndarray) -> np.ndarray:
    """math.erfc at every point of x, bit for bit, in x's shape."""
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


# Step of the degree-2 trapezoid sum, and the e-folds of its integrand's
# decay it covers: the dropped tail is below 2 e^-40 = 8.5e-18 of the sum.
_TRAPEZOID_STEP = 0.05
_TRAPEZOID_REACH = 40.0
_TRAPEZOID_BLOCK = 1 << 16   # Q evaluations per block of the tail sum

# Most step halvings of the contour route, and the two-pass agreement ending them
_CONTOUR_HALVINGS = 12
_CONTOUR_TOL = 1e-10


def _gamma_is_negative(v: float) -> bool:
    """Sign of Gamma on the real line: negative exactly on (-1, 0), (-3, -2), ..."""
    return v < 0 and math.floor(v) % 2 == 1


def _log_gamma(w: np.ndarray) -> np.ndarray:
    """log Gamma(w) off the poles, up to a multiple of 2 pi i.

    On the real line math.lgamma, with i pi where Gamma is negative.  Off
    it the recurrence Gamma(w) = Gamma(w + n) / (w (w + 1) ... (w + n - 1))
    up to Re w >= 15, then Stirling's series, in numpy's long double: at
    |Im w| <= 400 the imaginary part reaches 2000, and Gamma comes out
    within 1.8e-13 relative of 40-digit values, against 7.3e-13 when the
    series runs in double.
    """
    out = np.empty(w.shape, dtype=complex)
    real = w.imag == 0
    out[real] = [complex(math.lgamma(v), math.pi * _gamma_is_negative(v))
                 for v in w.real[real].tolist()]
    z = w[~real].astype(np.clongdouble)
    if z.size:
        shift = max(0, math.ceil(_STIRLING_FROM - float(z.real.min())))
        zs = z + shift
        inv = 1 / zs
        inv2 = inv * inv
        series = np.zeros_like(zs)
        for c in reversed(_STIRLING):
            series = series * inv2 + c
        prod = np.ones_like(z)
        for j in range(shift):
            prod = prod * (z + j)
        out[~real] = ((zs - 0.5) * np.log(zs) - zs + 0.5 * _LOG_TWO_PI
                      + series * inv - np.log(prod))
    return out


# 1/Gamma(1 + f) - 1 = sum_k c_k f^k, c_0..c_25 (Abramowitz and Stegun 6.1.34);
# at |f| <= 1 the omitted terms sum to below 3e-18.
_RGAMMA1P_MINUS_ONE = (
    0.0, 0.5772156649015329, -0.6558780715202539, -0.04200263503409524, 0.16653861138229148,
    -0.04219773455554433, -0.009621971527876973, 0.0072189432466631, -0.0011651675918590652,
    -0.00021524167411495098, 0.0001280502823881162, -2.013485478078824e-05,
    -1.2504934821426706e-06, 1.133027231981696e-06, -2.056338416977607e-07,
    6.116095104481416e-09, 5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14, -5.348122539423018e-15, 1.2267786282382608e-15,
    -1.1812593016974588e-16)
# Below x = 1 + f <= 2 the 25th series term is under 1e-19; at x >= 1 the
# continued fraction from depth 100 on is within 3e-16 of its limit.
_SERIES_TERMS = 25
_FRACTION_DEPTH = 120


def _upper_gamma_base(f: float, x: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Q(f, x) for 0 < f < 1, given scale = x^f e^-x / Gamma(1 + f).

    Below x = 1 + f, with g = 1/Gamma(1 + f) - 1 from its Taylor series,
    Q = -expm1(f log x) - x^f (g + f (1 + g) sum_(k>=1) (-x)^k / (k! (f + k))):
    no difference of two numbers near 1 is formed, so a small f keeps its
    relative accuracy (DiDonato and Morris, ACM TOMS 12, 1986).  Above it,
    Legendre's continued fraction (DLMF 8.9.2) summed backward from a fixed
    depth.  Each point runs the same operations whatever array it comes in.
    """
    g = np.polynomial.polynomial.polyval(f, _RGAMMA1P_MINUS_ONE)
    out = np.empty_like(x)
    low = x < 1.0 + f
    xl, xh = x[low], x[~low]
    term, series = np.ones_like(xl), np.zeros_like(xl)
    for k in range(1, _SERIES_TERMS + 1):
        term = term * (-xl / k)
        series = series + term / (f + k)
    with np.errstate(divide="ignore"):  # log 0 = -inf gives Q(f, 0) = 1
        lead = np.expm1(f * np.log(xl))
    out[low] = -lead - np.power(xl, f) * (g + f * (1.0 + g) * series)
    tail = np.zeros_like(xh)
    for k in range(_FRACTION_DEPTH, 0, -1):
        tail = k * (k - f) / (xh + (2 * k + 1 - f) - tail)
    out[~low] = f * scale[~low] / (xh + (1.0 - f) - tail)
    return out


def _upper_gamma_regularized(a: float, x: np.ndarray) -> np.ndarray:
    """Q(a, x) = Gamma(a, x) / Gamma(a) for a > 0 and x >= 0 of any shape.

    Write a = f + n with 0 < f <= 1:
    Q(a, x) = Q(f, x) + e^-x x^f sum_(j<n) x^j / Gamma(f + j + 1), every term
    positive.  Q(1, x) = e^-x and Q(1/2, x) = erfc(sqrt x) cover every a
    with 2a an integer -- every central point and every half-integer s;
    any other f is _upper_gamma_base.  The sum runs in the buffers of e^-x
    and of its first term; x is only read.
    """
    n = math.ceil(a) - 1
    f = a - n
    ex = np.negative(x)
    np.exp(ex, out=ex)
    if f == 1.0:
        total, term = ex, ex * x
    elif f == 0.5:
        root = np.sqrt(x)
        total, term = _erfc(root), ex
        term *= root
        term /= math.gamma(1.5)
    else:
        term = np.power(x, f)
        term *= ex
        term /= math.gamma(1.0 + f)
        total = _upper_gamma_base(f, x, term)
    for j in range(n):
        total += term
        term *= x
        term /= f + j + 1
    return total


def totally_positive_unit_index(nf) -> int:
    """Index of the totally positive units inside the full unit group.

    Computed as the size of the image of the unit generators under the sign
    map to {+-1}^(number of real places), i.e. 2 to the GF(2)-rank of their
    sign vectors.
    """
    r1 = nf.signature[0]
    basis: list[int] = []
    for unit in nf.unit_gens:
        emb = nf.embed_element(unit)
        vec = 0
        for j in range(r1):
            if emb[j] < 0:
                vec |= 1 << j
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
    return 2 ** len(basis)


class GammaFactor:
    """Completed archimedean factor of a totally real field.

    value(x) = const * |disc|^x * prod_j (2 pi)^-(x - m_j) Gamma(x - m_j)
    at a real point x, with one shift m_j per real place and
    const = 2^(real places) / [units : totally positive units].  The
    contour route reads its logarithm at complex points, `log_value`.
    """

    def __init__(self, nf, shifts):
        r1 = nf.signature[0]
        shifts = tuple(float(m) for m in shifts)
        if len(shifts) != r1:
            raise ValueError(f"need {r1} shifts (one per real place), got {len(shifts)}")
        self.nf = nf
        self.r1 = r1
        self.shifts = shifts
        self.disc = abs(nf.discriminant)
        self.unit_index = totally_positive_unit_index(nf)
        self.const = 2 ** r1 / self.unit_index

    def log_value(self, z):
        arr = np.asarray(z, dtype=complex)
        out = math.log(self.const) + arr * math.log(self.disc)
        for m in self.shifts:
            out = out + _log_gamma(arr - m) - (arr - m) * _LOG_TWO_PI
        return out

    def value(self, x: float) -> float:
        """value(x) at a real point x off the poles: with math.gamma, and
        where that overflows or underflows, from math.lgamma and Gamma's
        sign."""
        x = float(x)
        for m in self.shifts:
            if x - m <= 0 and x - m == int(x - m):
                raise ValueError(f"gamma factor has a pole at x = {x}")
        try:
            out = self.const * self.disc ** x
            for m in self.shifts:
                out *= math.gamma(x - m) * TWO_PI ** (m - x)
            if out != 0 and math.isfinite(out):
                return out
        except OverflowError:
            pass
        negative = sum(_gamma_is_negative(x - m) for m in self.shifts) % 2
        return (-1.0) ** negative * float(np.exp(self.log_value(x).real))


class ContourEval(NamedTuple):
    value: complex
    error_estimate: float
    sigma: float
    half_height: float
    step: float


class VKernel:
    """Cutoff V(x) for the side of the functional equation at the real
    spectral point s, with the point mass as weight.

    value()        -- production route: the tail route, what afe's sums
                      read.
    value_tail()   -- stable route at any x >= 0: one incomplete gamma for
                      one real place, one Bessel tail (a sum of incomplete
                      gammas) for two.
    value_contour()-- independent quadrature on Re t = sigma in {-1/2, 2};
                      trustworthy only while |V| is within ~7 digits of
                      GammaFactor(s + sigma) x^-sigma, which is why it serves
                      as a cross-check rather than the production path.
    """

    def __init__(self, gamma: GammaFactor, s: float):
        self.gamma = gamma
        self.s = float(s)
        self._x_cut = None

    # -- stable tail route --------------------------------------------------

    def _require_real_s(self) -> float:
        if self.s <= max(self.gamma.shifts):
            raise ValueError("spectral parameter must exceed every gamma shift")
        return self.s

    def value_tail(self, x):
        """V(x) as one upper incomplete gamma (Bessel) tail, at any shape of x."""
        sp = self._require_real_s()
        xs = np.asarray(x, dtype=float)
        scalar = not xs.shape
        xs = np.atleast_1d(xs)
        if np.any(xs < 0):
            raise ValueError("V is defined for x >= 0")
        # the argument and V are each one buffer owned here; xs is only read
        if self.gamma.r1 == 1:
            a = sp - self.gamma.shifts[0]
            arg = TWO_PI * xs
            arg /= self.gamma.disc
            out = _upper_gamma_regularized(a, arg)
            out *= self.gamma.value(sp)
        else:
            a1 = sp - self.gamma.shifts[0]
            a2 = sp - self.gamma.shifts[1]
            pref = (self.gamma.const * self.gamma.disc ** sp
                    * TWO_PI ** (-(a1 + a2)))
            arg = TWO_PI ** 2 * xs
            arg /= self.gamma.disc
            out = _bessel_tail(a1, a2, arg)
            out *= pref
        return float(out[0]) if scalar else out

    # -- contour route --------------------------------------------------------

    def _integrand(self, taus: np.ndarray, x: float, sigma: float) -> np.ndarray:
        t = sigma + 1j * taus
        return np.exp(self.gamma.log_value(self.s + t) - t * math.log(x)) / t

    def _half_height(self, x: float, sigma: float) -> float:
        scale = abs(np.exp(self.gamma.log_value(self.s + sigma))) * x ** (-sigma)
        target = max(_CONTOUR_TOL * 1e-3 * scale, 1e-290)
        half = 10.0
        while half < 400.0:
            mag = (abs(np.exp(self.gamma.log_value(self.s + sigma + 1j * half)))
                   * x ** (-sigma) / abs(sigma + 1j * half))
            if mag < target:
                return half
            half += 5.0
        return half

    def contour_details(self, x, h0: float = 0.25) -> ContourEval:
        x = float(x)
        if x <= 0:
            raise ValueError("the contour route needs x > 0")
        sigma = -0.5 if x < 0.05 else 2.0
        half = self._half_height(x, sigma)
        h = float(h0)
        taus = np.arange(-half, half + h / 2, h)
        total = h * self._integrand(taus, x, sigma).sum()
        err = math.inf
        for _ in range(_CONTOUR_HALVINGS):
            mids = np.arange(-half + h / 2, half, h)
            refined = total / 2 + (h / 2) * self._integrand(mids, x, sigma).sum()
            err = abs(refined - total)
            total = refined
            h /= 2
            if err < _CONTOUR_TOL * max(1.0, abs(total)):
                break
        value = total / TWO_PI
        if sigma < 0:
            # the contour crossed the simple pole at t = 0 with residue
            # GammaFactor(s)
            value = value + complex(np.exp(self.gamma.log_value(self.s)))
        return ContourEval(value=value, error_estimate=err, sigma=sigma,
                           half_height=half, step=h)

    def value_contour(self, x, h0: float = 0.25) -> complex:
        return self.contour_details(x, h0=h0).value

    # -- production route ------------------------------------------------------

    def decay_cutoff(self) -> float:
        """x beyond which |V| is below 1e-17 of the x = 0 value."""
        if self._x_cut is None:
            scale = abs(self.value_tail(0.0))
            x = 5.0
            while abs(self.value_tail(x)) > 1e-17 * scale and x < 1e4:
                x *= 1.25
            self._x_cut = x
        return self._x_cut

    def value(self, x):
        """V(x) for the sums of afe: the tail route, with no interpolation."""
        return self.value_tail(x)


def _bessel_tail(a1: float, a2: float, v: np.ndarray) -> np.ndarray:
    """int_v^inf 2 y^((a1+a2)/2) K_(a1-a2)(2 sqrt(y)) dy/y at each v >= 0.

    This is the inverse-Mellin tail of Gamma(t + a1) Gamma(t + a2), the
    degree-2 analogue of the upper incomplete gamma function; at v = 0 it
    equals Gamma(a1) Gamma(a2).  With b = a1 + a2, nu = a1 - a2, w = 2 sqrt(v)
    and K_nu(u) = int_0^inf e^(-u cosh t) cosh(nu t) dt (DLMF 10.32.9) it is

        2^(2-b) Gamma(b) int_0^inf cosh(nu t) cosh(t)^-b Q(b, w cosh t) dt.

    The integrand is even and analytic in |Im t| < pi/2, so the trapezoidal
    rule converges exponentially (Trefethen and Weideman, SIAM Review 56,
    2014).  Q is evaluated on nodes x points blocks of at most
    `_TRAPEZOID_BLOCK` entries, and each point adds its terms in node order,
    so it gets the same sum whatever array it comes in.
    """
    b = a1 + a2
    nu = a1 - a2
    # the integrand is below 2^b e^(-(b - |nu|) t)
    reach = (_TRAPEZOID_REACH + b * math.log(2.0)) / (b - abs(nu))
    t = _TRAPEZOID_STEP * np.arange(math.ceil(reach / _TRAPEZOID_STEP) + 1)
    # 2^(2-b) cosh(nu t) / cosh(t)^b, with log(2 cosh y) = logaddexp(y, -y)
    weights = 2.0 * _TRAPEZOID_STEP * np.exp(np.logaddexp(nu * t, -nu * t)
                                            - b * np.logaddexp(t, -t))
    weights[0] /= 2.0
    w = 2.0 * np.sqrt(v)
    flat = w.reshape(-1)
    total = np.zeros_like(flat)
    stretch = np.cosh(t)[:, None]
    step = max(1, _TRAPEZOID_BLOCK // t.shape[0])
    for start in range(0, flat.shape[0], step):
        block = _upper_gamma_regularized(b, stretch * flat[start:start + step])
        block *= weights[:, None]
        acc = total[start:start + step]
        for row in block:
            acc += row
    total *= math.gamma(b)
    return total.reshape(w.shape)
