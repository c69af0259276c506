import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from localradon.weights import (
    attenuation_weight,
    constant_weight,
    corrected_weight,
    field_from_spec,
    panel_rule,
    pde_residual,
    weight_from_ab,
    zero_field,
)

POINTS = [(0.2, 0.1, 0.3), (-0.3, -0.05, 0.25), (0.4, 0.12, 0.1),
          (0.0, 0.0, 0.3), (0.15, -0.1, 0.4)]


def test_field_registry_values():
    f = field_from_spec("2.5*sin_xi")
    assert float(f.value(0.3, 0.0)) == pytest.approx(2.5 * math.sin(0.3),
                                                     rel=1e-14)
    assert float(f.dxi(0.3, 0.0, 1)) == pytest.approx(2.5 * math.cos(0.3),
                                                      rel=1e-13)
    with pytest.raises(ValueError):
        field_from_spec("wavelet")


def test_field_value_vec_matches_scalar():
    f = field_from_spec("xi_eta")
    xi = np.array([0.1, 0.2, -0.3])
    eta = np.array([0.4, 0.5, 0.6])
    vec = f.value_vec(xi, eta)
    ref = np.array([float(f.value(u, e)) for u, e in zip(xi, eta)])
    assert np.allclose(vec, ref, atol=1e-14)


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
    b = zero_field()
    assert pde_residual(m_exp, a, b, POINTS) < 1e-8


def test_from_ab_generic_pde():
    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")
    m = weight_from_ab(a, b)
    assert pde_residual(m, a, b, POINTS) < 1e-7
    # the Cauchy data on xi = 0 defaults to 1
    assert m(0.3, 0.0, 0.2) == pytest.approx(1.0, rel=1e-13)


def test_from_ab_b_only_closed_form():
    # a = 0, b = cos(eta): m = exp(int_0^xi cos(eta + x(xi - s)) ds)
    b = field_from_spec("cos_eta")
    m = weight_from_ab(zero_field(), b)
    x, xi, eta = 0.25, 0.15, 0.3
    expo = (math.sin(eta + x * xi) - math.sin(eta)) / x
    assert m(x, xi, eta) == pytest.approx(math.exp(expo), rel=1e-11)


def test_attenuation_weight_monotone(f_main):
    m = attenuation_weight(f_main)
    v1 = m(-0.2, 0.0, 0.45)
    v2 = m(0.2, 0.0, 0.45)
    assert 0.0 < v1 <= v2 <= 1.0
    # no absorber left of the ray exit: weight is one
    assert m(5.0, 0.0, 0.45) == pytest.approx(1.0, abs=1e-12)


def test_corrected_weight(m_exp):
    gamma = 0.3
    mg = corrected_weight(m_exp, gamma)
    x, y = 0.2, 0.5
    # m(x, (y - gamma)/x, gamma) = exp(y - gamma)
    assert mg(x, y) == pytest.approx(math.exp(y - gamma), rel=1e-12)
    assert mg(0.0, 0.7) == pytest.approx(1.0, rel=1e-13)


def test_weight_broadcasts(m_exp):
    x = np.linspace(-0.3, 0.3, 7)
    out = m_exp(x, 0.1, 0.2)
    assert out.shape == (7,)
    assert np.allclose(out, np.exp(0.1 * x), rtol=1e-12)


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
