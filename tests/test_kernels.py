import math

import mpmath
import numpy as np
import pytest
from scipy.special import gammaincc, loggamma

from lcentral import kernels
from lcentral.afe import EVAL_REL_ERR
from lcentral.fields import nf_load
from lcentral.kernels import (_TRAPEZOID_REACH, _TRAPEZOID_STEP, TWO_PI, GammaFactor,
                              VKernel, _bessel_tail, _log_gamma, _upper_gamma_regularized,
                              totally_positive_unit_index)
from oracles import BumpVKernel, bessel_tail_quad

Q = nf_load("rationals")
K = nf_load("Qsqrt2")
GQ = GammaFactor(Q, (0,))
GK = GammaFactor(K, (0, 0))
V = VKernel(GQ, 6.0)


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
    assert abs(V.value_tail(0.0) - GQ.value(6).real) < 1e-17
    VK2 = VKernel(GK, 6.0)
    assert abs(VK2.value_tail(0.0) - GK.value(6).real) < 1e-14 * abs(GK.value(6))


def test_point_mass_is_one_incomplete_gamma():
    # the weight is the point mass at w = 1, so over Q
    # V(x) = Gamma_F(s) Q(s, 2 pi x), the regularized upper incomplete gamma
    xs = np.geomspace(1e-3, 9.0, 50)
    want = GQ.value(6.0).real * gammaincc(6.0, 2.0 * math.pi * xs)
    assert np.max(np.abs(V.value(xs) / want - 1.0)) < 1e-14


def _tail_and_contour_routes_agree(kern):
    scale = abs(GQ.value(6))
    for x in (1e-4, 1e-2, 0.3, 1.0, 3.0, 8.0):
        diff = abs(kern.value_tail(x) - kern.value_contour(x))
        assert diff < 1e-9 * scale, (x, diff)


def test_tail_and_contour_routes_agree_for_the_point_mass():
    _tail_and_contour_routes_agree(V)


def test_contour_shifts_left_for_small_x():
    details = V.contour_details(1e-4)
    assert details.sigma == -0.5
    assert V.contour_details(1.0).sigma == 2.0


def test_contour_step_halving():
    a = V.value_contour(1.0, h0=0.25)
    b = V.value_contour(1.0, h0=0.125)
    assert abs(a - b) < 1e-10
    assert V.contour_details(1.0).error_estimate < 1e-10


def test_small_x_envelope():
    # near zero V(x) = Gamma_F(s) (1 + O(x^(1/2))); at s = 6 the deviation
    # is in fact O(x^6), far below the half-power envelope
    g = GQ.value(6).real
    for x in (1e-2, 1e-4, 1e-6):
        dev = abs(V.value_tail(x) / g - 1)
        assert dev < 1e-2 * math.sqrt(x), (x, dev)


def test_large_x_decay_beats_cubic():
    v10, v25, v50 = V.value_tail(np.array([10.0, 25.0, 50.0]))
    assert 0 < v50 < v25 < v10
    assert v25 / v10 < (25 / 10) ** -3
    assert v50 / v25 < (50 / 25) ** -3


def test_degree_two_routes_agree():
    VK2 = VKernel(GK, 6.0)
    for x in (0.5, 2.0):
        diff = abs(VK2.value_tail(x) - VK2.value_contour(x))
        assert diff < 1e-8 * abs(GK.value(6)), (x, diff)


def test_degree_two_tail_matches_the_quad_oracle():
    # on a grid up to the decay cutoff, v = (2 pi)^2 x / 8 reaches 1370
    VK2 = VKernel(GK, 6.0)
    cut = VK2.decay_cutoff()
    assert cut == pytest.approx(277.556, abs=1e-3)
    vs = TWO_PI ** 2 * np.geomspace(1e-3, cut, 200) / GK.disc
    want = np.array([bessel_tail_quad(6.0, 6.0, v) for v in vs.tolist()])
    worst = float(np.max(np.abs(_bessel_tail(6.0, 6.0, vs) / want - 1.0)))
    assert worst <= EVAL_REL_ERR, worst


@pytest.mark.parametrize("a1, a2", [(6.0, 5.0), (5.5, 5.5), (1.0, 1.0)])
def test_degree_two_tail_matches_mpmath(a1, a2):
    # the tail is the Meijer G-function G^{3,0}_{1,3}(v | 1; a1, a2, 0), the
    # inverse Mellin transform of Gamma(t + a1) Gamma(t + a2) / t
    vs = [1e-6, 0.5, 1.0, 10.0, 100.0]
    with mpmath.workdps(30):
        want = np.array([float(mpmath.meijerg([[], [1]], [[a1, a2, 0], []], v))
                         for v in vs])
    worst = float(np.max(np.abs(_bessel_tail(a1, a2, np.array(vs)) / want - 1.0)))
    assert worst <= EVAL_REL_ERR, worst


def _bessel_tail_node_by_node(a1, a2, v):
    # the trapezoid sum of _bessel_tail, one Q call per node
    b, nu = a1 + a2, a1 - a2
    reach = (_TRAPEZOID_REACH + b * math.log(2.0)) / (b - abs(nu))
    t = _TRAPEZOID_STEP * np.arange(math.ceil(reach / _TRAPEZOID_STEP) + 1)
    weights = 2.0 * _TRAPEZOID_STEP * np.exp(np.logaddexp(nu * t, -nu * t)
                                            - b * np.logaddexp(t, -t))
    weights[0] /= 2.0
    w = 2.0 * np.sqrt(v)
    total = np.zeros_like(w)
    for stretch, weight in zip(np.cosh(t).tolist(), weights.tolist()):
        total = total + weight * _upper_gamma_regularized(b, w * stretch)
    return math.gamma(b) * total


@pytest.mark.parametrize("s", [6.0, 6.3])
def test_degree_two_tail_blocks_keep_the_node_by_node_sum(s):
    # Q on nodes x points blocks, several blocks here, adds each point's
    # terms in node order: bit-equal to the per-node sum, one point or many
    vs = np.concatenate([[0.0], np.geomspace(1e-4, 2e3, 2999)])
    want = _bessel_tail_node_by_node(s, s, vs)
    assert _bessel_tail(s, s, vs).tolist() == want.tolist()
    assert [float(_bessel_tail(s, s, np.array([v]))[0]) for v in vs[::97]] == \
        want[::97].tolist()


def test_tail_route_input_validation():
    with pytest.raises(ValueError):
        V.value_tail(-1.0)
    with pytest.raises(ValueError):
        VKernel(GQ, 6.0 + 1j).value_tail(1.0)
    with pytest.raises(ValueError):
        VKernel(GammaFactor(Q, (7,)), 6.0).value_tail(1.0)


def test_tail_route_keeps_the_shape_of_its_argument():
    # the bump oracle hands value_tail a two-dimensional array
    xs = np.array([[0.5, 1.0, 2.0], [3.0, 4.0, 5.0]])
    assert V.value_tail(xs).tolist() == [[V.value_tail(x) for x in row]
                                         for row in xs.tolist()]
    VK2 = VKernel(GK, 6.0)
    pair = np.array([[0.5], [2.0]])
    assert VK2.value_tail(pair).tolist() == [[VK2.value_tail(0.5)],
                                             [VK2.value_tail(2.0)]]


# -- the smoothing bump, as an oracle in tests/oracles.py ------------------------

BUMP = BumpVKernel(GQ, 6.0)


def test_v_frozen_value():
    # the width-1 bump: normalization mass of the raw bump on [1/e, e], and V(1)
    assert abs(BUMP.mass - 0.4439938161680794) < 1e-13
    assert BUMP.value_tail(1.0) == pytest.approx(8.213446678885e-04, rel=1e-11)


def test_narrow_bump_shortens_the_decay_cutoff():
    assert BUMP.decay_cutoff() == pytest.approx(19.073, abs=1e-3)
    narrow = BumpVKernel(GQ, 6.0, width=0.25)
    assert narrow.decay_cutoff() == pytest.approx(12.207, abs=1e-3)
    assert V.decay_cutoff() == pytest.approx(9.766, abs=1e-3)


def test_tail_and_contour_routes_agree():
    # the width-1 bump: the oracle's average of point-mass values against
    # its kappa-weighted contour
    _tail_and_contour_routes_agree(BUMP)


def test_tail_and_contour_routes_agree_at_the_production_width():
    # the width-1/4 bump, afe's weight before the point mass: the oracle's
    # average of point-mass values against its kappa-weighted contour
    _tail_and_contour_routes_agree(BumpVKernel(GQ, 6.0, width=0.25))


def _gammaincc_closed_form(a: int, x: float) -> float:
    """Q(a, x) = e^-x sum_{k < a} x^k / k! for integer a."""
    term, terms = 1.0, [1.0]
    for k in range(1, a):
        term *= x / k
        terms.append(term)
    return math.exp(-x) * math.fsum(terms)


def _allowance_grid() -> np.ndarray:
    # up to 2 pi times V's decay cutoff, the largest argument a sum reaches
    return np.geomspace(1e-3, 2.0 * math.pi * V.decay_cutoff(), 4001)


@pytest.mark.parametrize("a", [1, 6, 8])
def test_gammaincc_stays_within_half_the_evaluation_allowance(a):
    # afe charges EVAL_REL_ERR per term; the one special function of a
    # degree-1 V must keep to half of it against the exact finite sum
    xs = _allowance_grid()
    got = _upper_gamma_regularized(float(a), xs)
    want = np.array([_gammaincc_closed_form(a, x) for x in xs.tolist()])
    worst = float(np.max(np.abs(got / want - 1.0)))
    assert worst <= 0.5 * EVAL_REL_ERR, worst


@pytest.mark.parametrize("a", [5.5, 6.5])
def test_half_integer_incomplete_gamma_within_the_evaluation_allowance(a):
    # the erfc closed form against scipy: the two differ by up to 1.0e-14 at
    # 6.5, mostly scipy's own error, so the bound is the whole allowance
    xs = _allowance_grid()
    got = _upper_gamma_regularized(a, xs)
    worst = float(np.max(np.abs(got / gammaincc(a, xs) - 1.0)))
    assert worst <= EVAL_REL_ERR, worst


@pytest.mark.parametrize("a", [0.001, 0.05, 0.3, 0.999, 1.7, 5.3, 6 + 1e-9, 6.3, 11.9])
def test_off_grid_incomplete_gamma_within_the_evaluation_allowance(a):
    # 2a is not an integer: the sum starts from Q(f, x), f the fractional part
    # of a, by the power series or the continued fraction; against 40-digit
    # values on every tenth point of the grid
    xs = _allowance_grid()[::10]
    with mpmath.workdps(40):
        want = np.array([float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
                         for x in xs.tolist()])
    got = _upper_gamma_regularized(a, xs)
    assert float(np.max(np.abs(got / want - 1.0))) <= EVAL_REL_ERR
    # scipy as a second oracle, granted its own measured error
    scipy_err = float(np.max(np.abs(gammaincc(a, xs) / want - 1.0)))
    assert float(np.max(np.abs(got / gammaincc(a, xs) - 1.0))) <= EVAL_REL_ERR + scipy_err


@pytest.mark.parametrize("re", [5.5, 6.0, 8.0])
@pytest.mark.parametrize("sigma", [-0.5, 0.0, 2.0])
def test_log_gamma_matches_scipy_on_the_contour_lines(re, sigma):
    # the lines the contour oracle integrates along, Re z = s + sigma
    z = (re + sigma) + 1j * np.linspace(-400.0, 400.0, 8001)
    rel = np.abs(np.expm1(_log_gamma(z) - loggamma(z)))
    assert float(np.max(rel)) < 1e-12


def test_gamma_changes_sign_at_the_negative_non_integers():
    vs = np.array([-0.5, -1.5, -2.5, -3.25, -10.5, 0.5, 2.5])
    want = np.exp(loggamma(vs + 0j)).real
    assert np.sign(want).tolist() == [-1, 1, -1, 1, -1, 1, 1]
    got = np.exp(_log_gamma(vs + 0j))
    assert np.max(np.abs(got / want - 1.0)) < 1e-14
    for v, w in zip(vs.tolist(), want.tolist()):
        # G(z) = (2 pi)^-z Gamma(z) over the rationals, real and signed
        assert GQ.value(v).real / (w * (2 * math.pi) ** -v) == pytest.approx(1.0, abs=1e-14)


def test_gamma_factor_past_the_range_of_math_gamma():
    # Gamma(200) overflows a double; the factor itself does not
    want = math.exp(float(loggamma(200.0)) - 200.0 * math.log(2 * math.pi))
    assert GQ.value(200.0).real == pytest.approx(want, rel=1e-12)


# -- in-place evaluation -------------------------------------------------------
# The kernels write each value into a buffer they own.  The oracles below are
# the expressions they replaced, one new array per operation: the results
# must be the same bits, and the argument must come back untouched.

def _old_upper_gamma(a, x):
    n = math.ceil(a) - 1
    f = a - n
    ex = np.exp(-x)
    if f == 1.0:
        total, term = ex, ex * x
    elif f == 0.5:
        root = np.sqrt(x)
        total, term = kernels._erfc(root), ex * root / math.gamma(1.5)
    else:
        term = np.power(x, f) * ex / math.gamma(1.0 + f)
        total = kernels._upper_gamma_base(f, x, term)
    for j in range(n):
        total = total + term
        term = term * x / (f + j + 1)
    return total


def _old_bessel_tail(a1, a2, v):
    b, nu = a1 + a2, a1 - a2
    reach = (_TRAPEZOID_REACH + b * math.log(2.0)) / (b - abs(nu))
    t = _TRAPEZOID_STEP * np.arange(math.ceil(reach / _TRAPEZOID_STEP) + 1)
    weights = 2.0 * _TRAPEZOID_STEP * np.exp(np.logaddexp(nu * t, -nu * t)
                                            - b * np.logaddexp(t, -t))
    weights[0] /= 2.0
    w = 2.0 * np.sqrt(v)
    flat = w.reshape(-1)
    total = np.zeros_like(flat)
    stretch = np.cosh(t)[:, None]
    step = max(1, kernels._TRAPEZOID_BLOCK // t.shape[0])
    for start in range(0, flat.shape[0], step):
        block = weights[:, None] * _old_upper_gamma(b, stretch * flat[start:start + step])
        acc = total[start:start + step]
        for row in block:
            acc += row
    return math.gamma(b) * total.reshape(w.shape)


def _old_value_tail(kern, xs):
    sp, g = kern.s.real, kern.gamma
    if g.r1 == 1:
        return g.value(sp).real * _old_upper_gamma(sp - g.shifts[0], TWO_PI * xs / g.disc)
    a1, a2 = sp - g.shifts[0], sp - g.shifts[1]
    pref = g.const * g.disc ** sp * TWO_PI ** (-(a1 + a2))
    return pref * _old_bessel_tail(a1, a2, TWO_PI ** 2 * xs / g.disc)


# the grid of the allowance tests, with 0 and a point past the cutoff
_IN_PLACE_GRID = np.concatenate([[0.0], np.geomspace(1e-4, 2e3, 4001)])


@pytest.mark.parametrize("a", [1.0, 6.0, 0.5, 5.5, 0.3, 6.3])
def test_incomplete_gamma_in_place_keeps_the_old_bits_and_its_input(a):
    # f = 1, 1/2 and 0.3, with and without terms of the finite sum
    xs = _IN_PLACE_GRID.copy()
    got = _upper_gamma_regularized(a, xs)
    assert np.array_equal(xs, _IN_PLACE_GRID)
    assert np.array_equal(got, _old_upper_gamma(a, _IN_PLACE_GRID))


@pytest.mark.parametrize("a1, a2", [(6.0, 6.0), (5.5, 5.5), (6.3, 6.3), (6.0, 5.0)])
def test_degree_two_tail_in_place_keeps_the_old_bits_and_its_input(a1, a2):
    vs = _IN_PLACE_GRID[::4].copy()
    got = _bessel_tail(a1, a2, vs)
    assert np.array_equal(vs, _IN_PLACE_GRID[::4])
    assert np.array_equal(got, _old_bessel_tail(a1, a2, _IN_PLACE_GRID[::4]))


@pytest.mark.parametrize("gamma, grid", [(GQ, _IN_PLACE_GRID), (GK, _IN_PLACE_GRID[::8])])
@pytest.mark.parametrize("s", [5.5, 6.0, 6.3, 6.5])
def test_value_tail_in_place_keeps_the_old_bits_and_its_input(gamma, grid, s):
    kern = VKernel(gamma, s)
    xs = grid.copy()
    got = kern.value_tail(xs)
    assert np.array_equal(xs, grid)
    assert np.array_equal(got, _old_value_tail(kern, grid))
    assert kern.value_tail(float(grid[7])) == float(_old_value_tail(kern, grid[7:8])[0])


def test_erfc_is_math_erfc_bit_for_bit():
    # 0, tiny x, the working range, and x past 27, where erfc underflows
    # through the subnormals to 0; 1-d, 2-d as the degree-2 tail passes it,
    # and a transposed 2-d view
    xs = np.concatenate([[0.0, 5e-324, 1e-300, 1e-17], np.linspace(0.0, 30.0, 1201),
                         [26.5, 27.2, 27.5, 40.0, 1e10]])
    want = np.array([math.erfc(x) for x in xs.tolist()])
    assert want[0] == 1.0 and 0.0 < want[-4] < 1e-320 and not want[-3:].any()
    grid = xs.reshape(10, -1)
    for x, w in ((xs, want), (grid, want.reshape(10, -1)), (grid.T, want.reshape(10, -1).T)):
        got = kernels._erfc(x)
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(got.view(np.int64), w.view(np.int64))
