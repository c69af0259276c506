import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localradon.jets import Jet

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)


def test_variable_jet():
    x = Jet.variable(2.0, 4)
    assert x.derivative(0) == 2.0
    assert x.derivative(1) == 1.0
    assert x.derivative(2) == 0.0


def test_polynomial_derivatives():
    # p(x) = (x^2 + 1)^3 at x = 0.5; compare against hand derivatives
    x = Jet.variable(0.5, 3)
    q = x * x + 1.0
    p = q * q * q
    u = 0.5**2 + 1.0
    assert p.derivative(0) == pytest.approx(u**3, rel=1e-14)
    assert p.derivative(1) == pytest.approx(6 * 0.5 * u**2, rel=1e-14)
    assert p.derivative(2) == pytest.approx(6 * u**2 + 24 * 0.5**2 * u,
                                            rel=1e-14)


def test_exp_matches_series():
    x = Jet.variable(0.3, 8)
    e = (x * x).exp()
    # d^k/dx^k exp(x^2) at 0.3 via the analytic recurrence f' = 2x f
    f0 = math.exp(0.09)
    assert e.derivative(0) == pytest.approx(f0, rel=1e-14)
    assert e.derivative(1) == pytest.approx(2 * 0.3 * f0, rel=1e-13)
    assert e.derivative(2) == pytest.approx((2 + 4 * 0.09) * f0, rel=1e-13)


def test_sin_cos_consistency():
    x = Jet.variable(0.7, 6)
    s, c = (x * 2.0).sin_cos()
    assert s.derivative(0) == pytest.approx(math.sin(1.4), rel=1e-14)
    assert c.derivative(0) == pytest.approx(math.cos(1.4), rel=1e-14)
    # derivative of sin(2x) is 2 cos(2x)
    assert s.derivative(1) == pytest.approx(2 * math.cos(1.4), rel=1e-13)
    pyth = s * s + c * c
    assert pyth.derivative(0) == pytest.approx(1.0, rel=1e-14)
    assert abs(pyth.c[1:]).max() < 1e-13


def test_numpy_functions_of_a_jet():
    x = Jet.variable(0.7, 6)
    j = x * 2.0
    assert np.array_equal(np.sin(j).c, j.sin_cos()[0].c)
    assert np.array_equal(np.cos(j).c, j.sin_cos()[1].c)
    assert np.array_equal(np.exp(j).c, j.exp().c)
    # a numpy scalar on the left takes the jet's reflected operator
    two = np.float64(2.0) * j
    assert isinstance(two, Jet) and np.array_equal(two.c, 2.0 * j.c)
    assert np.array_equal((np.float64(1.0) - j).c, (1.0 - j).c)
    with pytest.raises(TypeError):
        np.tan(j)


def test_array_coefficients_broadcast():
    etas = np.array([0.0, 0.5, 1.0])
    x = Jet.variable(0.1, 3)
    j = x * etas          # f(x, eta) = x * eta
    assert j.c.shape == (4, 3)
    assert np.allclose(j.derivative(0), 0.1 * etas)
    assert np.allclose(j.derivative(1), etas)


@given(x0=st.lists(finite, min_size=1, max_size=5),
       a=finite, b=finite)
@settings(max_examples=40, deadline=None)
def test_real_power(x0, a, b):
    # J = 1 + x^2 on array base points (the scalar 1 broadcasts over them)
    x = Jet.variable(np.array(x0), 6)
    J = 1.0 + x * x
    assert J.c.shape == (7, len(x0))

    def close(lhs, rhs):
        return np.allclose(lhs.c, rhs.c, rtol=1e-12,
                           atol=1e-12 * np.abs(rhs.c).max())

    assert close(J ** 2, J * J)
    assert close(J ** a * J ** b, J ** (a + b))
    assert close(J ** -1 * J, Jet.constant(np.ones(len(x0)), 6))


@given(a=finite, b=finite)
@settings(max_examples=40, deadline=None)
def test_product_rule(a, b):
    x = Jet.variable(a, 4)
    f = x * x + b
    g = x + 2.0 * b
    lhs = (f * g).derivative(1)
    rhs = (f.derivative(1) * g.derivative(0)
           + f.derivative(0) * g.derivative(1))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@given(a=st.floats(min_value=-1.5, max_value=1.5, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_exp_chain_rule(a):
    x = Jet.variable(a, 3)
    f = (x * x * 0.5).exp()
    assert f.derivative(1) == pytest.approx(a * f.derivative(0), rel=1e-11,
                                            abs=1e-12)
