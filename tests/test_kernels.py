import math
import random
import sys
import threading

import numpy as np
import pytest

from lcentral.afe import BUMP_WIDTH, SPLINE_ABS_ERR
from lcentral.fields import nf_load
from lcentral.kernels import (SPLINE_POINTS, GammaFactor, SmoothingKernel, VKernel,
                              _Spline, totally_positive_unit_index)

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


def test_spline_matches_tail_route():
    V = VKernel(GQ, KERNEL, 6.0)
    rng = random.Random(3)
    scale = abs(GQ.value(6))
    for _ in range(40):
        x = 10 ** rng.uniform(-6, math.log10(15))
        assert abs(V.value(x) - V.value_tail(x)) < 1e-9 * scale
    # beyond the decay cutoff the spline route returns exactly zero
    assert V.value(V.decay_cutoff() * 2) == 0.0
    # vectorized evaluation agrees with scalars
    xs = np.array([1e-9, 1e-3, 1.0, 4.0])
    vec = V.value(xs)
    assert np.allclose(vec, [V.value(float(x)) for x in xs], rtol=0, atol=1e-18)


@pytest.mark.parametrize("s,sign", [(6.0, 1), (6.0, -1), (5.5, 1), (8.0, 1), (4.0, -1)])
def test_spline_matches_scipy_cubic_spline(s, sign):
    # the production grid of each kernel the engine builds, against scipy's
    # not-a-knot CubicSpline as the oracle, inside the knots and past both ends
    from scipy.interpolate import CubicSpline

    V = VKernel(GQ, KERNEL, s, sign)
    grid = np.geomspace(1e-8, V.decay_cutoff(), SPLINE_POINTS)
    t, vals = np.log(grid), V.value_tail(grid)
    xs = np.concatenate([t, np.linspace(t[0] - 1.0, t[-1] + 1.0, 20001)])
    gap = np.max(np.abs(_Spline(t, vals)(xs) - CubicSpline(t, vals)(xs)))
    assert gap <= 1e-15 * abs(vals[0]), gap


def test_spline_is_exact_on_cubics():
    # not-a-knot ends make the interpolant of a cubic that cubic itself
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(-3.0, 4.0, 40))

    def cubic(x):
        return ((0.7 * x - 1.3) * x + 0.4) * x - 2.0

    spline = _Spline(t, cubic(t))
    xs = np.linspace(-4.0, 5.0, 1001)
    assert np.max(np.abs(spline(xs) - cubic(xs))) < 1e-12
    # each knot but the last is the start of its piece, read off exactly
    assert np.array_equal(spline(t[:-1]), cubic(t[:-1]))
    assert spline(t[-1]) == pytest.approx(cubic(t[-1]), rel=1e-14)


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



def test_spline_is_published_whole_across_threads():
    # the first thread is paused at every line of the spline build once any
    # of its state is visible, and a second thread calls value() on the same
    # fresh kernel right then: it must find the spline complete
    kern = VKernel(GQ, KERNEL, 6.0)
    xs = np.geomspace(1e-9, 40.0, 300)
    seen = {}

    def second():
        try:
            seen["value"] = kern.value(xs)
        except Exception as exc:          # recorded, then asserted below
            seen["error"] = exc

    def on_line(frame, event, arg):
        if event == "line" and kern._spline is not None and not seen:
            th = threading.Thread(target=second)
            th.start()
            th.join()
        return on_line

    def tracer(frame, event, arg):
        return on_line if frame.f_code.co_name == "_ensure_spline" else None

    sys.settrace(tracer)
    try:
        first = kern.value(xs)
    finally:
        sys.settrace(None)
    assert "error" not in seen, seen.get("error")
    assert np.array_equal(seen["value"], first)


# -- the bump width ------------------------------------------------------------

NARROW = SmoothingKernel(width=BUMP_WIDTH)


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


def test_tail_and_contour_routes_agree_at_the_production_width():
    _tail_and_contour_routes_agree(NARROW)


@pytest.mark.parametrize("s,sign", [(6.0, 1), (6.0, -1), (8.0, 1)])
def test_production_spline_stays_within_the_allowance(s, sign):
    # the error estimate charges SPLINE_ABS_ERR per spline-evaluated term;
    # the production kernel's spline must keep well inside it
    V = VKernel(GQ, NARROW, s, sign)
    xs = np.geomspace(1e-8, V.decay_cutoff(), 20001)
    miss = np.max(np.abs(V.value(xs) - V.value_tail(xs)))
    assert miss <= 0.5 * SPLINE_ABS_ERR, miss
