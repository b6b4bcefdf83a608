"""Archimedean kernels for the smoothed approximate functional equation.

Three pieces live here:

* SmoothingKernel -- a compactly supported multiplicative bump and its
  Mellin transform kappa, normalized so kappa(0) = 1; with one node it is
  the point mass at w = 1, kappa = 1.
* GammaFactor -- the completed archimedean factor of a totally real field:
  a rational constant times |disc|^z times one shifted (2 pi)^-z Gamma(z)
  per real place.
* VKernel -- the smoothed cutoff V(x) = (1/2 pi i) int kappa(eps t)
  GammaFactor(s + t) x^-t dt/t appearing on both sides of the approximate
  functional equation, with two independent evaluation routes.

Route design: the straight contour quadrature (Re t = 2) computes an
integral whose magnitude is set by GammaFactor(s + 2) x^-2 while the answer
decays like exp(-c x), so in double precision it loses all relative accuracy
once x is around 15; and shifting the contour far right is no better because
the quadrature of kappa itself degrades for large |Re t|.  The production
route therefore rewrites the integral as a bump-weighted average of upper
incomplete gamma tails (one per real place via the Bessel K kernel when the
degree is 2), which is stable for every x >= 0.  The contour route is kept
on the narrow strips Re t in {-1/2, 2} as an independent cross-check.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.special import gammaincc, kv, loggamma

TWO_PI = 2.0 * math.pi
_LOG_TWO_PI = math.log(TWO_PI)


class SmoothingKernel:
    """Bump w -> c exp(-1/(1 - (log(w)/delta)^2)) on [e^-delta, e^delta] and
    its transform.

    The width delta (default 1, the bump on [1/e, e]) only rescales log w:
    the Gauss-Legendre nodes in u = log w are those of the unit bump times
    delta, with the same weights, so kappa_delta(t) = kappa_1(delta t).  The
    constant c is fixed numerically so that the Mellin transform
    kappa(t) = int phi(w) w^t dw/w satisfies kappa(0) = 1.  kappa is entire,
    and because the bump is symmetric in log w it is an even function of t.
    With the default node count kappa is accurate to machine precision for
    |delta Re t| up to a few units, degrading once exp(t u) concentrates
    near the endpoints (|delta Re t| ~ 40).

    nodes = 1 is the point mass at w = 1 rather than a quadrature of the
    bump: its one node is u = 0 with weight 1, so kappa = 1 exactly and V is
    one incomplete gamma per real place.  `phi` stays the bump's density.
    """

    def __init__(self, nodes: int = 256, width: float = 1.0):
        if not width > 0:
            raise ValueError("the bump width must be positive")
        u, wts = np.polynomial.legendre.leggauss(nodes)
        bump = np.exp(-1.0 / (1.0 - u * u))
        self.nodes = nodes
        self.width = float(width)
        self._u = self.width * u
        self._raw_weights = wts * bump
        self.mass = float(np.sum(self._raw_weights))

    @property
    def log_nodes(self) -> np.ndarray:
        """Quadrature abscissas in u = log w."""
        return self._u

    @property
    def node_weights(self) -> np.ndarray:
        """Weights of the normalized measure phi(w) dw/w at the nodes."""
        return self._raw_weights / self.mass

    def kappa(self, t):
        """Mellin transform at t (scalar or array, real or complex)."""
        arr = np.asarray(t, dtype=complex)
        vals = np.exp(np.multiply.outer(arr, self._u)) @ self._raw_weights / self.mass
        return vals if arr.shape else complex(vals)

    def phi(self, w):
        """The normalized bump, vanishing outside (e^-delta, e^delta)."""
        arr = np.asarray(w, dtype=float)
        scalar = not arr.shape
        arr = np.atleast_1d(arr)
        out = np.zeros_like(arr)
        pos = arr > 0
        lw = np.log(arr[pos]) / self.width
        inside = np.abs(lw) < 1.0
        vals = np.zeros_like(lw)
        vals[inside] = np.exp(-1.0 / (1.0 - lw[inside] ** 2)) / (self.width * self.mass)
        out[pos] = vals
        return float(out[0]) if scalar else out


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
            if emb[j].real < 0:
                vec |= 1 << j
        for b in basis:
            vec = min(vec, vec ^ b)
        if vec:
            basis.append(vec)
    return 2 ** len(basis)


class GammaFactor:
    """Completed archimedean factor of a totally real field.

    value(z) = const * |disc|^z * prod_j (2 pi)^-(z - m_j) Gamma(z - m_j)
    with one shift m_j per real place and
    const = 2^(real places) / [units : totally positive units].
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
            out = out + loggamma(arr - m) - (arr - m) * _LOG_TWO_PI
        return out

    def value(self, z):
        arr = np.asarray(z, dtype=complex)
        if not arr.shape:
            for m in self.shifts:
                w = complex(arr) - m
                if w.imag == 0 and w.real <= 0 and w.real == int(w.real):
                    raise ValueError(f"gamma factor has a pole at z = {complex(arr)}")
            return complex(np.exp(self.log_value(arr)))
        return np.exp(self.log_value(arr))


class ContourEval(NamedTuple):
    value: complex
    error_estimate: float
    sigma: float
    half_height: float
    step: float


class VKernel:
    """Smoothed cutoff V(x) for one side of the functional equation.

    sign = +1 selects kappa(t) (the sum over the form's own coefficients),
    sign = -1 selects kappa(-t) (the dual sum).  Every SmoothingKernel is
    symmetric in log w, so kappa is even and the two kernels coincide; the
    sign is kept so the defining integral stays visible in the code.

    value()        -- production route: the tail route, what afe's sums
                      read.
    value_tail()   -- stable route at any x >= 0 (incomplete gamma / Bessel
                      tails, one per kernel node).
    value_contour()-- independent quadrature on Re t = sigma in {-1/2, 2};
                      trustworthy only while |V| is within ~7 digits of
                      GammaFactor(s + sigma) x^-sigma, which is why it serves
                      as a cross-check rather than the production path.
    """

    def __init__(self, gamma: GammaFactor, kernel: SmoothingKernel, s, sign: int = 1):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.gamma = gamma
        self.kernel = kernel
        self.s = complex(s)
        self.sign = sign
        self._x_cut = None

    # -- stable tail route --------------------------------------------------

    def _require_real_s(self) -> float:
        if self.s.imag != 0:
            raise ValueError("the tail route needs a real spectral parameter")
        sp = self.s.real
        if sp <= max(self.gamma.shifts):
            raise ValueError("spectral parameter must exceed every gamma shift")
        return sp

    def value_tail(self, x):
        """V(x) as a bump-weighted average of archimedean tail integrals."""
        sp = self._require_real_s()
        xs = np.asarray(x, dtype=float)
        scalar = not xs.shape
        xs = np.atleast_1d(xs)
        if np.any(xs < 0):
            raise ValueError("V is defined for x >= 0")
        # node weights of phi(w) dw/w and the per-node scaling w^(-sign)
        wfac = np.exp(-self.sign * self.kernel.log_nodes)
        if self.gamma.r1 == 1:
            a = sp - self.gamma.shifts[0]
            u0 = TWO_PI * xs / self.gamma.disc
            args = np.multiply.outer(u0, wfac)
            inner = gammaincc(a, args) @ self.kernel.node_weights
            log_pref = (math.log(self.gamma.const) + sp * math.log(self.gamma.disc)
                        - a * _LOG_TWO_PI + math.lgamma(a))
            out = math.exp(log_pref) * inner
        else:
            a1 = sp - self.gamma.shifts[0]
            a2 = sp - self.gamma.shifts[1]
            u0 = TWO_PI ** 2 * xs / self.gamma.disc
            args = np.multiply.outer(u0, wfac)
            inner = np.empty_like(args)
            flat = inner.reshape(-1)
            for i, v in enumerate(args.reshape(-1)):
                flat[i] = _bessel_tail(a1, a2, v)
            pref = (self.gamma.const * self.gamma.disc ** sp
                    * TWO_PI ** (-(a1 + a2)))
            out = pref * (inner @ self.kernel.node_weights)
        return float(out[0]) if scalar else out

    # -- contour route --------------------------------------------------------

    def _integrand(self, taus: np.ndarray, x: float, sigma: float) -> np.ndarray:
        t = sigma + 1j * taus
        kap = self.kernel.kappa(self.sign * t)
        logg = self.gamma.log_value(self.s + t)
        return kap * np.exp(logg - t * math.log(x)) / t

    def _half_height(self, x: float, sigma: float, tol: float) -> float:
        kb = abs(self.kernel.kappa(complex(abs(sigma))))
        scale = abs(np.exp(self.gamma.log_value(self.s + sigma))) * x ** (-sigma) * kb
        target = max(tol * 1e-3 * scale, 1e-290)
        half = 10.0
        while half < 400.0:
            mag = (abs(np.exp(self.gamma.log_value(self.s + sigma + 1j * half)))
                   * x ** (-sigma) * kb / abs(sigma + 1j * half))
            if mag < target:
                return half
            half += 5.0
        return half

    def contour_details(self, x, sigma=None, tol: float = 1e-10,
                        h0: float = 0.25, max_halvings: int = 12) -> ContourEval:
        x = float(x)
        if x <= 0:
            raise ValueError("the contour route needs x > 0")
        if sigma is None:
            sigma = -0.5 if x < 0.05 else 2.0
        half = self._half_height(x, sigma, tol)
        h = float(h0)
        taus = np.arange(-half, half + h / 2, h)
        total = h * self._integrand(taus, x, sigma).sum()
        err = math.inf
        for _ in range(max_halvings):
            mids = np.arange(-half + h / 2, half, h)
            refined = total / 2 + (h / 2) * self._integrand(mids, x, sigma).sum()
            err = abs(refined - total)
            total = refined
            h /= 2
            if err < tol * max(1.0, abs(total)):
                break
        value = total / TWO_PI
        if sigma < 0:
            # the contour crossed the simple pole at t = 0 with residue
            # kappa(0) GammaFactor(s) = GammaFactor(s)
            value = value + complex(np.exp(self.gamma.log_value(self.s)))
        return ContourEval(value=value, error_estimate=err, sigma=sigma,
                           half_height=half, step=h)

    def value_contour(self, x, sigma=None, tol: float = 1e-10, h0: float = 0.25) -> complex:
        return self.contour_details(x, sigma=sigma, tol=tol, h0=h0).value

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


def _bessel_tail(a1: float, a2: float, v: float) -> float:
    """int_v^inf 2 w^((a1+a2)/2) K_(a1-a2)(2 sqrt(w)) dw/w.

    This is the inverse-Mellin tail of Gamma(t + a1) Gamma(t + a2), the
    degree-2 analogue of the upper incomplete gamma function; at v = 0 it
    equals Gamma(a1) Gamma(a2).
    """
    # imported here: no other route needs scipy.integrate, and loading it
    # on every start costs more than the work the other routes do
    from scipy.integrate import quad

    nu = a1 - a2
    power = a1 + a2 - 1.0
    lo = max(math.sqrt(v), 1e-12)
    val, _ = quad(lambda r: 4.0 * r ** power * kv(nu, 2.0 * r),
                  lo, lo + 45.0, epsabs=1e-15, epsrel=1e-11, limit=300)
    return val
