"""Independent oracles the tests check production code against."""

import numpy as np

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
