"""Independent oracles the tests check production code against."""

import math
import tracemalloc

import numpy as np
from scipy.integrate import quad
from scipy.special import kv

from lcentral.kernels import VKernel
from lcentral.ntt import reduce_mod


class BumpVKernel(VKernel):
    """V for the bump w -> c exp(-1/(1 - (log(w)/width)^2)) on
    [e^-width, e^width], normalized to mass 1 in dw/w, in place of the point
    mass at w = 1.

    Every weight phi gives V_phi(x) = int V(x/w) phi(w) dw/w with V the point
    mass's, so the tail route is a weighted average of production V values
    at Gauss-Legendre nodes in u = log w.  The contour route weights its
    integrand by the bump's Mellin transform kappa(t) = int phi(w) w^t dw/w
    instead, so the two routes check each other.
    """

    def __init__(self, gamma, s, width: float = 1.0, nodes: int = 256):
        super().__init__(gamma, s)
        u, wts = np.polynomial.legendre.leggauss(nodes)
        raw = wts * np.exp(-1.0 / (1.0 - u * u))
        self.mass = float(np.sum(raw))
        self.log_nodes = width * u
        self.node_weights = raw / self.mass

    def value_tail(self, x):
        scaled = np.multiply.outer(x, np.exp(-self.log_nodes))
        return super().value_tail(scaled) @ self.node_weights

    def _integrand(self, taus, x, sigma):
        t = sigma + 1j * taus
        kappa = np.exp(np.multiply.outer(t, self.log_nodes)) @ self.node_weights
        return kappa * super()._integrand(taus, x, sigma)


def bessel_tail_quad(a1: float, a2: float, v: float) -> float:
    """int_v^inf 2 y^((a1+a2)/2) K_(a1-a2)(2 sqrt(y)) dy/y by adaptive
    quadrature of scipy's kv, in r = sqrt(y): the degree-2 tail that
    kernels._bessel_tail sums as incomplete gammas.

    The tolerance is relative only: an absolute floor would stop early
    where the tail itself is below it (past v = 1100 at a1 = a2 = 6).
    """
    nu = a1 - a2
    power = a1 + a2 - 1.0
    lo = max(math.sqrt(v), 1e-12)
    val, _ = quad(lambda r: 4.0 * r ** power * kv(nu, 2.0 * r),
                  lo, lo + 45.0, epsabs=0.0, epsrel=1e-13, limit=300)
    return val


def traced(warm, build):
    """(build(), kept bytes, peak bytes), with tracemalloc on around build()
    alone.  warm() runs first, so the kernels, the caches and numpy's cache
    of small freed buffers are warm, and the figures do not depend on the
    tests that ran before."""
    warm()
    tracemalloc.start()
    try:
        got = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return got, kept, peak


def transform_product(tr, a, b, length):
    """First `length` coefficients of a * b mod tr.p by one transform of
    tr.n points, for a and b with entries in [0, p) and
    len(a) + len(b) - 1 <= n, so that no term of the linear product wraps:
    the reference the short square and the transform are checked against.
    Pass the same array twice to square it with one forward transform."""
    n = tr.n
    spec, spare = tr._forward(_padded(a, n), np.empty(n, dtype=np.int64))
    if b is a:
        spec *= spec
    else:
        spec *= tr._forward(_padded(b, n), spare)[0]
    reduce_mod(spec, tr.p, spare, spec)
    return tr._inverse(spec, spare, length).copy()


def _padded(a, n):
    out = np.zeros(n, dtype=np.int64)
    out[:a.shape[0]] = a
    return out


def ramanujan_main_table(p, q):
    """The orbit mean of chi^t(r) at every residue r mod q = p^level, in
    closed form: Ramanujan's sum c_(p^n)(j(r)) / phi(p^n), which is 1 on the
    (p - 1)-th roots of unity mod q, -1/(p - 1) on the rest of
    mu_(p-1) (1 + p^n Z) (r^(p (p - 1)) = 1 but r^(p - 1) != 1), and 0
    elsewhere."""
    r = [pow(x, p - 1, q) for x in range(q)]
    return np.array([1.0 if a == 1 else -1 / (p - 1) if pow(a, p, q) == 1 else 0.0
                     for a in r])


def kloosterman_dual_table(p, q):
    """The orbit mean of W(chi^t) conj(chi^t)(r) at every residue r mod q,
    in closed form: (p / ((p - 1) q)) sum over zeta^(p-1) = 1 of
    K(1, r zeta; q), with each Kloosterman sum
    K(1, m; q) = sum_(x unit) e((x + m x^-1) / q) summed directly."""
    units = np.array([x for x in range(q) if x % p])
    inverses = np.array([pow(int(x), -1, q) for x in units])
    m = np.arange(q)
    kloosterman = np.exp(2j * np.pi * ((units + np.outer(m, inverses)) % q) / q).sum(axis=1)
    roots = [z for z in units.tolist() if pow(z, p - 1, q) == 1]
    total = sum(kloosterman[m * z % q] for z in roots)
    return p / ((p - 1) * q) * total
