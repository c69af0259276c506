import numpy as np
import pytest
from scipy.integrate import quad

from localradon.bumps import (
    derivative,
    dilate,
    dilated_derivative,
    gevrey_bump,
    hormander_sequence,
    verify_derivative_bounds,
)


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


def test_hormander_derivative_integrates_back(phi12):
    # int_{-1}^x phi' = phi(x)
    x = 0.3
    val, _ = quad(lambda t: float(phi12.derivative_values(t, 1)), -1.0, x,
                  epsabs=1e-11, epsrel=1e-11, limit=300)
    assert val == pytest.approx(float(phi12(x)), abs=1e-9)


def test_hormander_certification(phi12):
    rep = verify_derivative_bounds(phi12, 12)
    assert rep.ratios.max() <= 1.0 + 1e-12
    assert phi12.certified_constant == rep.certified_constant
    assert rep.certified_constant > 0


def test_gevrey_unit_mass_and_frozen_value(phi_gevrey2):
    assert mass(lambda x: float(phi_gevrey2(x))) == pytest.approx(1.0,
                                                                  abs=1e-9)
    assert float(phi_gevrey2(0.0)) == pytest.approx(1.3027032572600137,
                                                    rel=1e-10)


def test_gevrey_sigma_validation():
    with pytest.raises(ValueError):
        gevrey_bump(1.0)


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


def test_gevrey_certification(phi_gevrey2):
    rep = verify_derivative_bounds(phi_gevrey2, 12)
    assert rep.ratios.max() <= 1.0 + 1e-12


def test_derivative_order_guard(phi12):
    with pytest.raises(ValueError):
        derivative(phi12, 13)


def test_dilate_preserves_mass(phi12):
    d = dilate(phi12, 0.1)
    val, _ = quad(lambda x: float(d(x)), -0.1, 0.1,
                  epsabs=1e-12, epsrel=1e-12, limit=300)
    assert val == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        dilate(phi12, 0.0)


def test_dilated_derivative_scaling(phi12):
    s = 0.2
    g1 = dilated_derivative(phi12, s, 1)
    x = 0.07
    assert float(g1(x)) == pytest.approx(
        float(phi12.derivative_values(x / s, 1)) / s**2, rel=1e-12)


def test_panel_edges_contain_every_knot():
    phi = hormander_sequence(8)
    edges = phi.panel_edges()
    assert np.all(np.isin(phi.breakpoints, edges))
    assert edges.size == 2 * phi.breakpoints.size - 1
    assert np.all(np.diff(edges) > 0)
    assert np.array_equal(gevrey_bump(2.0).panel_edges(0.1),
                          np.linspace(-0.1, 0.1, 33))
