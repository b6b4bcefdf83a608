import math

import numpy as np
import pytest
from scipy.special import gammaincc

from lcentral.afe import EVAL_REL_ERR
from lcentral.fields import nf_load
from lcentral.kernels import (GammaFactor, SmoothingKernel, VKernel,
                              totally_positive_unit_index)

Q = nf_load("rationals")
K = nf_load("Qsqrt2")
KERNEL = SmoothingKernel()
GQ = GammaFactor(Q, (0,))
GK = GammaFactor(K, (0, 0))


def test_kappa_normalization_and_symmetry():
    assert abs(KERNEL.kappa(0) - 1) < 1e-14
    # symmetric bump in log w -> even transform
    assert abs(KERNEL.kappa(2 + 0.3j) - KERNEL.kappa(-2 - 0.3j)) < 1e-13
    # convergence: doubling the node count does not move kappa
    assert abs(SmoothingKernel(512).kappa(1.7) - KERNEL.kappa(1.7)) < 1e-12
    # normalization mass of the raw bump, frozen
    assert abs(KERNEL.mass - 0.4439938161680794) < 1e-13


def test_bump_support():
    assert KERNEL.phi(0.2) == 0.0
    assert KERNEL.phi(3.0) == 0.0
    assert KERNEL.phi(1.0) > 0
    w = np.array([0.1, 0.5, 1.0, 2.0, 2.9])
    vals = KERNEL.phi(w)
    assert vals[0] == 0 and vals[-1] == 0 and np.all(vals[1:4] > 0)


def test_totally_positive_unit_index():
    assert totally_positive_unit_index(Q) == 2
    assert totally_positive_unit_index(K) == 4


def test_gamma_factor_rationals():
    # over the rationals the constant collapses to 1 and the factor is the
    # classical (2 pi)^-s Gamma(s)
    assert GQ.const == 1.0
    assert abs(GQ.value(6) - 120 / (2 * math.pi) ** 6) < 1e-18
    s = 6.0
    ratio = GQ.value(s + 1) / GQ.value(s)
    assert abs(ratio - s / (2 * math.pi)) < 1e-12


def test_gamma_factor_quadratic_ratio():
    # |disc| = 8 and two real places: G(s+1)/G(s) = 8 (s/(2 pi))^2
    assert GK.const == 1.0
    s = 6.0
    ratio = GK.value(s + 1) / GK.value(s)
    assert abs(ratio - 8 * (s / (2 * math.pi)) ** 2) < 1e-11


def test_gamma_factor_poles_and_validation():
    with pytest.raises(ValueError):
        GQ.value(0)
    with pytest.raises(ValueError):
        GQ.value(-3)
    with pytest.raises(ValueError):
        GammaFactor(Q, (0, 0))  # shift count must match real places
    shifted = GammaFactor(Q, (2,))
    with pytest.raises(ValueError):
        shifted.value(2)


def test_v_at_zero_is_gamma_value():
    V = VKernel(GQ, KERNEL, 6.0)
    assert abs(V.value_tail(0.0) - GQ.value(6).real) < 1e-17
    VK2 = VKernel(GK, KERNEL, 6.0)
    assert abs(VK2.value_tail(0.0) - GK.value(6).real) < 1e-12 * abs(GK.value(6))


def test_v_frozen_value():
    V = VKernel(GQ, KERNEL, 6.0)
    assert V.value_tail(1.0) == pytest.approx(8.213446678885e-04, rel=1e-11)


def _tail_and_contour_routes_agree(kernel):
    V = VKernel(GQ, kernel, 6.0)
    scale = abs(GQ.value(6))
    for x in (1e-4, 1e-2, 0.3, 1.0, 3.0, 8.0):
        diff = abs(V.value_tail(x) - V.value_contour(x))
        assert diff < 1e-9 * scale, (x, diff)


def test_tail_and_contour_routes_agree():
    _tail_and_contour_routes_agree(KERNEL)


def test_contour_shifts_left_for_small_x():
    V = VKernel(GQ, KERNEL, 6.0)
    details = V.contour_details(1e-4)
    assert details.sigma == -0.5
    assert V.contour_details(1.0).sigma == 2.0


def test_contour_step_halving():
    V = VKernel(GQ, KERNEL, 6.0)
    a = V.value_contour(1.0, h0=0.25)
    b = V.value_contour(1.0, h0=0.125)
    assert abs(a - b) < 1e-10
    assert V.contour_details(1.0).error_estimate < 1e-10


def test_small_x_envelope():
    # near zero V(x) = Gamma_F(s) (1 + O(x^(1/2))); with the smooth bump the
    # deviation is in fact far below the half-power envelope
    V = VKernel(GQ, KERNEL, 6.0)
    g = GQ.value(6).real
    for x in (1e-2, 1e-4, 1e-6):
        dev = abs(V.value_tail(x) / g - 1)
        assert dev < 1e-2 * math.sqrt(x), (x, dev)


def test_large_x_decay_beats_cubic():
    V = VKernel(GQ, KERNEL, 6.0)
    v10, v25, v50 = V.value_tail(np.array([10.0, 25.0, 50.0]))
    assert 0 < v50 < v25 < v10
    assert v25 / v10 < (25 / 10) ** -3
    assert v50 / v25 < (50 / 25) ** -3


def test_kernel_sign_is_cosmetic_for_symmetric_bump():
    xs = np.geomspace(1e-4, 10, 25)
    v_plus = VKernel(GQ, KERNEL, 6.0, sign=1).value_tail(xs)
    v_minus = VKernel(GQ, KERNEL, 6.0, sign=-1).value_tail(xs)
    assert np.max(np.abs(v_plus - v_minus)) < 1e-15


def test_degree_two_routes_agree():
    V = VKernel(GK, KERNEL, 6.0)
    for x in (0.5, 2.0):
        diff = abs(V.value_tail(x) - V.value_contour(x))
        assert diff < 1e-8 * abs(GK.value(6)), (x, diff)


def test_tail_route_input_validation():
    V = VKernel(GQ, KERNEL, 6.0)
    with pytest.raises(ValueError):
        V.value_tail(-1.0)
    with pytest.raises(ValueError):
        VKernel(GQ, KERNEL, 6.0 + 1j).value_tail(1.0)
    with pytest.raises(ValueError):
        VKernel(GammaFactor(Q, (7,)), KERNEL, 6.0).value_tail(1.0)
    with pytest.raises(ValueError):
        VKernel(GQ, KERNEL, 6.0, sign=2)



# -- the bump width and the point mass ------------------------------------------

BUMP_WIDTH = 0.25
NARROW = SmoothingKernel(width=BUMP_WIDTH)
POINT = SmoothingKernel(nodes=1)


def test_width_rescales_the_transform_and_the_support():
    # kappa_delta(t) = kappa_1(delta t), kappa(0) = 1 at every width
    for t in (0.0, 1.7, -3.0 + 0.5j, 12.0j):
        assert abs(NARROW.kappa(t) - KERNEL.kappa(BUMP_WIDTH * t)) < 1e-14
    assert abs(NARROW.kappa(0) - 1) < 1e-14
    # phi lives on (e^-delta, e^delta) and is a probability measure in dw/w
    edge = math.exp(BUMP_WIDTH)
    assert NARROW.phi(1.0 / edge * 0.999) == 0.0 and NARROW.phi(edge * 1.001) == 0.0
    u = np.linspace(-BUMP_WIDTH, BUMP_WIDTH, 200001)
    assert abs(np.sum(NARROW.phi(np.exp(u))) * (u[1] - u[0]) - 1.0) < 1e-9
    with pytest.raises(ValueError, match="width"):
        SmoothingKernel(width=0.0)


def test_narrow_bump_shortens_the_decay_cutoff():
    assert VKernel(GQ, KERNEL, 6.0).decay_cutoff() == pytest.approx(19.073, abs=1e-3)
    assert VKernel(GQ, NARROW, 6.0).decay_cutoff() == pytest.approx(12.207, abs=1e-3)
    assert VKernel(GQ, POINT, 6.0).decay_cutoff() == pytest.approx(9.766, abs=1e-3)


def test_tail_and_contour_routes_agree_at_the_production_width():
    # the width-1/4 bump, afe's weight before the point mass
    _tail_and_contour_routes_agree(NARROW)


def test_point_mass_is_one_incomplete_gamma():
    # one Gauss node at u = 0 with weight 1: kappa = 1 and, over Q,
    # V(x) = Gamma_F(s) Q(s, 2 pi x), the regularized upper incomplete gamma
    assert POINT.log_nodes.tolist() == [0.0] and POINT.node_weights.tolist() == [1.0]
    assert POINT.kappa(3.0 - 2.0j) == 1.0
    V = VKernel(GQ, POINT, 6.0)
    xs = np.geomspace(1e-3, 9.0, 50)
    want = GQ.value(6.0).real * gammaincc(6.0, 2.0 * math.pi * xs)
    assert np.max(np.abs(V.value(xs) / want - 1.0)) < 1e-14


def test_tail_and_contour_routes_agree_for_the_point_mass():
    _tail_and_contour_routes_agree(POINT)


def _gammaincc_closed_form(a: int, x: float) -> float:
    """Q(a, x) = e^-x sum_{k < a} x^k / k! for integer a."""
    term, terms = 1.0, [1.0]
    for k in range(1, a):
        term *= x / k
        terms.append(term)
    return math.exp(-x) * math.fsum(terms)


@pytest.mark.parametrize("a", [1, 6, 8])
def test_gammaincc_stays_within_half_the_evaluation_allowance(a):
    # afe charges EVAL_REL_ERR per term; the one special function of a
    # degree-1 V must keep to half of it on a dense grid up to 2 pi times the
    # point mass's decay cutoff, the largest argument a sum reaches
    top = 2.0 * math.pi * VKernel(GQ, POINT, 6.0).decay_cutoff()
    xs = np.geomspace(1e-3, top, 4001)
    got = gammaincc(float(a), xs)
    want = np.array([_gammaincc_closed_form(a, x) for x in xs.tolist()])
    worst = float(np.max(np.abs(got / want - 1.0)))
    assert worst <= 0.5 * EVAL_REL_ERR, worst
