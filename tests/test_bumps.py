import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import BSpline

from localradon.bumps import (
    gevrey_bump,
    hormander_sequence,
    verify_derivative_bounds,
)


def order_constants(tf, k_max, xs):
    """For each ``k <= k_max`` the least C with ``|phi^(k)| <= C^(k+1)
    rate_k`` on ``xs``, ``rate_k = N^k`` (Hörmander) or ``k!^sigma``
    (Gevrey).  A certificate C is sound on ``xs`` when no entry exceeds it,
    and minimal when one exceeds 0.999 C."""
    ks = np.arange(k_max + 1)
    rates = float(tf.param) ** ks if tf.kind == "hormander" else np.array(
        [math.factorial(k) for k in ks], dtype=float) ** tf.param
    sups = np.array([np.abs(tf.derivative_values(xs, k)).max() for k in ks])
    return (sups / rates) ** (1.0 / (ks + 1))


def mass(fn):
    val, _ = quad(fn, -1.0, 1.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    return val


def test_hormander_unit_mass_even_nonneg(phi12):
    assert mass(lambda x: float(phi12(x))) == pytest.approx(1.0, abs=1e-10)
    xs = np.linspace(-1, 1, 401)
    vals = phi12(xs)
    assert np.all(vals >= -1e-13)
    assert np.allclose(vals, phi12(-xs), atol=1e-13)


def test_hormander_frozen_center_value():
    # N = 1 is the hat convolved once with a box of width 2/3; its center
    # value is 9/8 (hand computation from the piecewise-quadratic formula)
    phi1 = hormander_sequence(1)
    assert float(phi1(0.0)) == pytest.approx(1.125, rel=1e-12)


def test_hormander_support_and_range():
    phi = hormander_sequence(6)
    assert float(phi(1.0001)) == 0.0
    assert float(phi(-1.0001)) == 0.0
    with pytest.raises(ValueError):
        hormander_sequence(0)
    with pytest.raises(ValueError):
        hormander_sequence(25)


def test_hormander_derivative_matches_fd(phi12):
    xs = np.array([-0.4, -0.1, 0.2, 0.55])
    h = 1e-6
    fd = (phi12(xs + h) - phi12(xs - h)) / (2 * h)
    assert np.allclose(phi12.derivative_values(xs, 1), fd, atol=1e-4)


@pytest.mark.parametrize("N", range(1, 25))
def test_hormander_derivatives_match_difference_formula(N):
    # two scipy references, on a grid past the support and on the knots:
    # the derivative spline BSpline.derivative builds, and d^k phi_N(x) =
    # a^(-k-1) sum_i (-1)^i C(k, i) M_{m-k}(x/a + k/2 - i), the k-th
    # difference of a lower-order B-spline, with m = N + 2 and a = 2/m
    m = N + 2
    a = 2.0 / m
    phi = hormander_sequence(N)
    xs = np.append(np.linspace(-1.05, 1.05, 4001), phi.breakpoints)
    M_m = BSpline.basis_element(np.arange(m + 1, dtype=float) - m / 2.0,
                                extrapolate=False)
    for k in range(N + 1):
        knots = np.arange(m - k + 1, dtype=float) - (m - k) / 2.0
        M = BSpline.basis_element(knots, extrapolate=False)
        diff = sum((-1) ** i * math.comb(k, i)
                   * np.nan_to_num(M(xs / a + k / 2.0 - i), nan=0.0)
                   for i in range(k + 1)) / a ** (k + 1)
        spline = np.nan_to_num(M_m.derivative(k)(xs / a), nan=0.0) \
            / a ** (k + 1)
        got = phi.derivative_values(xs, k)
        for ref in (diff, spline):
            err = np.abs(got - ref).max()
            assert err <= 1e-13 * np.abs(ref).max(), (k, err)


def test_hormander_derivative_integrates_back(phi12):
    # int_{-1}^x phi' = phi(x)
    x = 0.3
    val, _ = quad(lambda t: float(phi12.derivative_values(t, 1)), -1.0, x,
                  epsabs=1e-11, epsrel=1e-11, limit=300)
    assert val == pytest.approx(float(phi12(x)), abs=1e-9)


def test_hormander_certification(phi12):
    # sound on the knots and on a denser grid, and minimal there
    C = verify_derivative_bounds(phi12, 12)
    xs = np.append(np.cos(np.pi * (np.arange(10001) + 0.5) / 10001),
                   phi12.breakpoints)
    assert 0.999 * C < order_constants(phi12, 12, xs).max() \
        <= C * (1 + 1e-12)
    assert not hasattr(phi12, "certified_constant")


def test_hormander_certificate_reaches_the_knots():
    # phi_1' is piecewise linear and peaks at 9/4 on the knots +-1/3, which
    # the uniform grid steps over; C = max(9/8, sqrt(9/4)) = 3/2 exactly
    phi = hormander_sequence(1)
    assert float(phi.derivative_values(1.0 / 3.0, 1)) == pytest.approx(
        -2.25, rel=1e-14)
    assert verify_derivative_bounds(phi, 1) == 1.5


def test_gevrey_unit_mass_and_frozen_value(phi_gevrey2):
    assert mass(lambda x: float(phi_gevrey2(x))) == pytest.approx(1.0,
                                                                  abs=1e-9)
    assert float(phi_gevrey2(0.0)) == pytest.approx(1.3027032572600137,
                                                    rel=1e-10)


def test_gevrey_sigma_validation():
    with pytest.raises(ValueError):
        gevrey_bump(1.0)
    # exp(-4^(1/(sigma-1))) underflows, and with it the mass: phi was NaN
    for sigma in (1.1, 1.2, 1.21):
        with pytest.raises(ValueError, match="underflows"):
            gevrey_bump(sigma)
    assert np.isfinite(gevrey_bump(1.22)(0.0))


@pytest.mark.parametrize("sigma", [1.22, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0])
def test_gevrey_mass_matches_quad(sigma):
    # phi(0) = exp(-4^e) / mass; quad integrates the bump over its peak,
    # exp(4^e - w^-e), which stays in range as sigma nears 1
    e = 1.0 / (sigma - 1.0)
    half, _ = quad(lambda x: math.exp(4.0**e - ((1.0 - x * x) / 4.0)**-e),
                   0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=500)
    assert 1.0 / float(gevrey_bump(sigma)(0.0)) == pytest.approx(
        2.0 * half, rel=1e-13)


def test_gevrey_derivatives_match_fd():
    phi = gevrey_bump(2.0, derivative_order_max=6)
    xs = np.array([-0.3, 0.0, 0.45])
    h = 1e-5
    fd = (phi(xs + h) - phi(xs - h)) / (2 * h)
    assert np.allclose(phi.derivative_values(xs, 1), fd, atol=1e-5)
    # second derivative from the first, by finite differences
    fd2 = (phi.derivative_values(xs + h, 1)
           - phi.derivative_values(xs - h, 1)) / (2 * h)
    assert np.allclose(phi.derivative_values(xs, 2), fd2, atol=1e-4)


def test_gevrey_derivatives_match_pointwise_cauchy_loop():
    # an independent reference, the per-point Cauchy integral on a ring;
    # points with a ring radius under 1e-8, and points outside, give zero
    phi = gevrey_bump(2.0, derivative_order_max=6)
    norm = math.exp(-4.0) / float(phi(0.0))

    def raw(z):                         # sigma = 2
        return np.exp(-4.0 / (1.0 - z * z))

    theta = 2 * np.pi * np.arange(128) / 128
    xs = np.append(np.linspace(-0.99, 0.99, 23), [1 - 1e-9, -1.0, 1.5])
    for k in (1, 3, 6):
        ref = np.zeros(xs.size)
        for i, x0 in enumerate(xs):
            r = 0.35 * (1.0 - abs(x0))
            if r >= 1e-8:
                fz = raw(x0 + r * np.exp(1j * theta)) / norm
                coef = np.mean(fz * np.exp(-1j * k * theta))
                ref[i] = math.factorial(k) * coef.real / r**k
        got = phi.derivative_values(xs, k)
        assert np.all(got[-3:] == 0.0)
        assert np.allclose(got, ref, rtol=0.0, atol=1e-13 * np.abs(ref).max())


def test_gevrey_certification(phi_gevrey2):
    # sound and minimal on its own grid only: a denser grid finds higher
    # peaks near +-1 (1.6e-7 relative for sigma = 2, order 12)
    C = verify_derivative_bounds(phi_gevrey2, 12)
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
    assert 0.999 * C < order_constants(phi_gevrey2, 12, xs).max() \
        <= C * (1 + 1e-12)


@pytest.mark.parametrize("sigma", [1.22, 1.25, 1.3, 2.0, 3.0, 10.0])
def test_gevrey_derivatives_match_mpmath(sigma):
    # phi^(k)(x) / phi(0) against 80-digit mpmath.diff of the unnormalized
    # bump at the double x, at the argmax of |phi^(k)| inside the
    # certificate's grid and at its end points +-(1 - 1e-9).  Largest
    # relative errors measured: 5.1e-13 inside (sigma = 10, k = 12, at
    # x = 0.9995, where 1 - x*x rounds with relative error up to 1.1e-13;
    # next 1.6e-13 at sigma = 1.22, k = 1, where exp(-w^-e) has condition
    # number e w^-e ~ 2500 in w), so rtol 2e-12 is a 4x margin; 5.4e-9 at
    # the end points for sigma = 10 (k = 12; there 1 - x*x rounds with
    # relative error up to 5.5e-8), so rtol 5e-8 is a 9x margin.  For
    # sigma <= 3 the bump underflows to 0 at the end points, and so do its
    # derivatives; the reference is below 1e-300 there.
    phi = gevrey_bump(sigma)
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
    with mpmath.workdps(80):
        e = 1 / (mpmath.mpf(sigma) - 1)

        def raw(z):
            return mpmath.exp(-((1 - z * z) / 4) ** -e)

        for k in (1, 4, 12):
            d = np.abs(phi.derivative_values(xs[1:-1], k))
            for x in (xs[1 + np.argmax(d)], xs[0], xs[-1]):
                rtol = 5e-8 if abs(x) == xs[-1] else 2e-12
                got = phi.derivative_values(x, k) / phi(0.0)
                ref = mpmath.diff(raw, mpmath.mpf(x), k) / raw(0)
                if got == 0.0:
                    assert sigma <= 3.0 and abs(x) == xs[-1] \
                        and abs(ref) < 1e-300
                else:
                    assert abs(got - ref) <= rtol * abs(ref), (k, x)


def test_gevrey_derivative_overflow_is_refused():
    # the order-20 derivative of sigma = 10 at 1 - 2^-52 exceeds a double:
    # no inf, NaN or RuntimeWarning, a ValueError naming x, sigma and k
    phi = gevrey_bump(10.0)
    x = 1.0 - 2.0**-52
    assert np.isfinite(phi.derivative_values(x, 19))
    with pytest.raises(ValueError, match=r"k = 20, sigma = 10, "
                       r"x = 0\.9999999999999998$"):
        phi.derivative_values(np.array([0.5, x]), 20)


def test_gevrey_certificate_rate_in_logs():
    # 20!^50 overflows a double; the certificate takes the rate in logs
    # and agrees with the exact integer rate, taken in 60-digit mpmath
    phi = gevrey_bump(50.0)
    C = verify_derivative_bounds(phi, 20)
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
    with mpmath.workdps(60):
        ref = max((mpmath.mpf(np.abs(phi.derivative_values(xs, k)).max())
                   / mpmath.factorial(k) ** 50) ** (mpmath.mpf(1) / (k + 1))
                  for k in range(21))
    assert math.isfinite(C) and abs(C - ref) <= 1e-14 * ref


def per_order_certificate(tf, k_max):
    """``verify_derivative_bounds`` order by order: the sup of each
    order's ``derivative_values`` on the certificate's grid and knots, and
    the least constant over the orders."""
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
    if tf.breakpoints is not None:
        xs = np.append(xs, tf.breakpoints)
    out = []
    for k in range(k_max + 1):
        sup = np.abs(tf.derivative_values(xs, k)).max()
        if tf.kind == "hormander":
            out.append((sup / float(tf.param) ** k) ** (1.0 / (k + 1)))
        else:
            out.append(math.exp((math.log(sup) - tf.param
                                 * math.lgamma(k + 1)) / (k + 1)))
    return float(max(out))


@pytest.mark.parametrize("tf, k_max", [
    *[pytest.param(hormander_sequence(N), N, id=f"hormander_{N}")
      for N in range(1, 25)],
    *[pytest.param(gevrey_bump(sigma), k, id=f"gevrey_{sigma}_{k}")
      for sigma in (1.22, 1.25, 1.3, 2.0, 3.0, 10.0) for k in (12, 14, 20)],
])
def test_certificate_in_one_pass_is_order_by_order(tf, k_max):
    # every order from one pass, bit for bit the order-by-order sups
    assert verify_derivative_bounds(tf, k_max) == per_order_certificate(
        tf, k_max)


def test_certificate_refuses_the_first_order_that_overflows():
    # sigma = 10 overflows a double first at order 32 on the grid's end
    # points -+(1 - 1e-9): the one pass raises that order's ValueError
    phi = gevrey_bump(10.0, derivative_order_max=40)
    with pytest.raises(ValueError) as ref:
        per_order_certificate(phi, 40)
    assert "k = 32, sigma = 10, x = -0.999999999" in str(ref.value)
    with pytest.raises(ValueError) as got:
        verify_derivative_bounds(phi, 40)
    assert str(got.value) == str(ref.value)


def test_derivative_order_guard(phi12):
    with pytest.raises(ValueError):
        phi12.derivative_values(0.0, 13)


def test_test_functions_are_equal_only_to_themselves():
    # identity equality: no array comparison, and a test function keys a
    # dict
    phi = hormander_sequence(3)
    assert (phi == hormander_sequence(3)) is False
    assert phi == phi and gevrey_bump(2.0) != gevrey_bump(2.0)
    assert {phi: 1}[phi] == 1


def test_panel_edges_contain_every_knot():
    phi = hormander_sequence(8)
    edges = phi.panel_edges()
    assert np.all(np.isin(phi.breakpoints, edges))
    assert edges.size == 2 * phi.breakpoints.size - 1
    assert np.all(np.diff(edges) > 0)
    assert np.array_equal(gevrey_bump(2.0).panel_edges(0.1),
                          np.linspace(-0.1, 0.1, 33))
