import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from localradon.weights import (
    Weight,
    _FIELD_REGISTRY,
    constant_weight,
    field_from_spec,
    gauss_nodes,
    panel_rule,
    pde_residual,
)

POINTS = [(0.2, 0.1, 0.3), (-0.3, -0.05, 0.25), (0.4, 0.12, 0.1),
          (0.0, 0.0, 0.3), (0.15, -0.1, 0.4)]


def test_field_registry_values():
    f = field_from_spec("2.5*sin_xi")
    assert float(f(0.3, 0.0)) == pytest.approx(2.5 * math.sin(0.3), rel=1e-14)
    assert float(f.jet(0.3, 0.0, 1).derivative(1)) == pytest.approx(
        2.5 * math.cos(0.3), rel=1e-13)
    with pytest.raises(ValueError):
        field_from_spec("wavelet")


@pytest.mark.parametrize("name", sorted(_FIELD_REGISTRY))
def test_field_value_vec_matches_scalar(name):
    # one expression gives the values and the xi-jets: they agree exactly
    # at order 0, and the jet's xi-derivative is the field's
    f = field_from_spec(f"-1.5*{name}")
    xi = np.array([0.1, 0.2, -0.3])
    eta = np.array([0.4, 0.5, 0.6])
    vals = f(xi, eta)
    assert vals.shape == xi.shape
    assert f.jet(0.1, eta, 1).c.shape == (2, eta.size)
    h = 1e-5
    for u, e, v in zip(xi, eta, vals):
        assert f.jet(u, e, 0).derivative(0) == v
        fd = (f(u + h, e) - f(u - h, e)) / (2 * h)
        assert f.jet(u, e, 1).derivative(1) == pytest.approx(
            fd, rel=1e-8, abs=1e-9)


def test_constant_weight_positive_only():
    m = constant_weight(2.0)
    assert m(0.3, 0.1, 0.2) == 2.0
    with pytest.raises(ValueError):
        constant_weight(-1.0)


def test_exp_weight_closed_form(m_exp):
    # a = 1, b = 0 solves the transport equation with m = exp(x xi)
    for x, xi, eta in POINTS:
        assert m_exp(x, xi, eta) == pytest.approx(math.exp(x * xi),
                                                  rel=1e-12)


def test_from_ab_satisfies_pde(m_exp):
    a = field_from_spec("one")
    b = field_from_spec("zero")
    assert pde_residual(m_exp, a, b, POINTS) < 1e-8


def test_from_ab_generic_pde():
    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")
    m = Weight(a, b)
    assert pde_residual(m, a, b, POINTS) < 1e-7
    # the Cauchy data on xi = 0 defaults to 1
    assert m(0.3, 0.0, 0.2) == pytest.approx(1.0, rel=1e-13)


def test_from_ab_b_only_closed_form():
    # a = 0, b = cos(eta): m = exp(int_0^xi cos(eta + x(xi - s)) ds)
    b = field_from_spec("cos_eta")
    m = Weight(field_from_spec("zero"), b)
    x, xi, eta = 0.25, 0.15, 0.3
    expo = (math.sin(eta + x * xi) - math.sin(eta)) / x
    assert m(x, xi, eta) == pytest.approx(math.exp(expo), rel=1e-11)


@pytest.mark.parametrize("a, b", [("0.5*sin_xi", "0.5*cos_eta"),
                                  ("2.0*exp_xi", "2.0*xi_eta")])
def test_from_ab_matches_24_point_exponent(a, b):
    # the kept 12-point exponent against 24 Gauss nodes on [0, xi]
    fa, fb = field_from_spec(a), field_from_spec(b)
    m = Weight(fa, fb)
    x, xi, eta = (v.ravel() for v in np.meshgrid(
        np.linspace(-1.5, 1.5, 13), np.linspace(-1.0, 1.0, 11),
        np.linspace(-0.35, 1.2, 5), indexing="ij"))
    t, w = gauss_nodes(24)
    s = 0.5 * xi[:, None] * (1.0 + t)
    etas = eta[:, None] + x[:, None] * (xi[:, None] - s)
    expo = 0.5 * xi * ((x[:, None] * fa(s, etas) + fb(s, etas)) @ w)
    ref = np.exp(expo)
    assert np.abs(m(x, xi, eta) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_from_ab_refuses_unresolved_exponent():
    # sin(s) over s in [0, 3] scaled by 20: the 6- and 12-point exponents
    # differ by 1.4e-10 relative, so no value is returned
    m = Weight(field_from_spec("20*sin_xi"), field_from_spec("zero"))
    with pytest.raises(ValueError, match="6- and 12-point"):
        m(1.0, 3.0, 0.3)
    assert m(1.0, 0.3, 0.3) == pytest.approx(
        math.exp(20.0 * (1.0 - math.cos(0.3))), rel=1e-13)


@pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
def test_weight_on_empty_input(m_exp, m_generic, shape):
    # the line engine and the means call the weight on no point where a
    # block of panels or rows misses the phantom
    empty = np.empty(shape)
    for m in (constant_weight(2.0), m_exp, m_generic):
        for args in ((empty, empty, 0.3), (0.2, empty, 0.3),
                     (empty, 0.1, [0.3])):
            out = m(*args)
            assert isinstance(out, np.ndarray) and out.shape == shape


def test_weight_broadcasts(m_exp):
    x = np.linspace(-0.3, 0.3, 7)
    out = m_exp(x, 0.1, 0.2)
    assert out.shape == (7,)
    assert np.allclose(out, np.exp(0.1 * x), rtol=1e-12)
    xi = np.array([[0.0], [0.1], [-0.2]])
    assert np.allclose(m_exp(x, xi, 0.2), np.exp(xi * x), rtol=1e-12)
    # the constant weight forms only the broadcast shape of its arguments
    const = constant_weight(2.0)
    assert np.array_equal(const(x, xi, 0.2), np.full((3, 7), 2.0))
    assert np.array_equal(const(0.1, xi, [[0.2]]), np.full((3, 1), 2.0))
    assert const(0.1, 0.2, 0.3) == 2.0 and isinstance(const(0.1, 0.2, 0.3),
                                                      float)
    for m in (const, m_exp):
        with pytest.raises(ValueError):
            m(x, np.zeros(3), 0.2)


@st.composite
def edge_rows(draw):
    """1 to 3 rows of 2 to 6 strictly increasing edges in [-1, 1]."""
    n_edges = draw(st.integers(min_value=2, max_value=6))
    point = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    rows = draw(st.lists(
        st.lists(point, min_size=n_edges, max_size=n_edges, unique=True),
        min_size=1, max_size=3))
    return np.sort(np.array(rows), axis=1)


@given(edges=edge_rows(), n=st.integers(min_value=1, max_value=10),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_panel_rule_exact_on_polynomials(edges, n, seed):
    # degree 2n - 1: the highest an n-point Gauss rule integrates exactly
    p = Polynomial(np.random.default_rng(seed).uniform(-1.0, 1.0, 2 * n))
    P = p.integ()
    exact = P(edges[:, -1]) - P(edges[:, 0])
    for e, want in ((edges[0], exact[0]), (edges, exact)):
        nodes, weights = panel_rule(e, n)
        shape = e.shape[:-1] + (e.shape[-1] - 1, n)
        assert nodes.shape == weights.shape == shape
        got = np.sum(weights * p(nodes), axis=(-2, -1))
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)
