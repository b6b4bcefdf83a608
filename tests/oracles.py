"""Independent oracles the tests check production code against."""

import math
import tracemalloc

import numpy as np
from scipy.integrate import quad
from scipy.special import kv

from lcentral.kernels import VKernel


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
