import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legvander
from scipy.integrate import quad

from localradon.legendre import (
    LegendreSeries,
    MomentVector,
    coefficient_bound_check,
    fl_coefficients,
    legendre_vandermonde,
    moments_to_coefficients,
    normalized_sup_bound,
    parseval_defect,
)


def normalized_legendre(n, x):
    """``P_n(x) sqrt((2n+1)/2)``, the last column of the Vandermonde."""
    return legendre_vandermonde(n, x)[..., n] * math.sqrt((2 * n + 1) / 2.0)


def poly_moments(coeffs, N):
    """Moments of a power-basis polynomial, exactly: int x^(k+j) dx."""
    out = np.zeros(N + 1)
    for k in range(N + 1):
        out[k] = math.fsum(
            c * 2.0 / (k + j + 1) for j, c in enumerate(coeffs)
            if (k + j) % 2 == 0
        )
    return MomentVector(out)


def test_known_values():
    V = legendre_vandermonde(4, np.array([0.5, 1.0, 0.0]))
    assert V[0, 2] == pytest.approx(-0.125, rel=1e-14)
    assert V[1, 3] == pytest.approx(1.0, rel=1e-14)
    assert V[2, 4] == pytest.approx(3.0 / 8.0, rel=1e-14)


def test_orthonormality():
    worst = 0.0
    for n in range(0, 31, 5):
        for p in range(n, 31, 5):
            val, _ = quad(
                lambda x: normalized_legendre(n, x) * normalized_legendre(p, x),
                -1.0, 1.0, epsabs=1e-13, epsrel=1e-13, limit=400,
            )
            worst = max(worst, abs(val - (1.0 if n == p else 0.0)))
    assert worst < 1e-12


def test_fl_roundtrip():
    def g(x):
        return np.exp(-x) * np.cos(2 * x)

    series = fl_coefficients(g, 25)
    xs = np.linspace(-0.9, 0.9, 101)
    assert np.abs(series(xs) - g(xs)).max() < 1e-10
    assert parseval_defect(g, series) < 1e-10


def test_moment_map_exact_on_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(100):
        deg = rng.integers(0, 9)
        coeffs = rng.normal(size=deg + 1)

        def g(x):
            return np.polynomial.polynomial.polyval(x, coeffs)

        m = poly_moments(coeffs, deg)
        a = moments_to_coefficients(m)
        ref = fl_coefficients(g, deg)
        assert np.allclose(a.coeffs, ref.coeffs, atol=1e-10)


def test_moment_map_cap():
    with pytest.raises(ValueError):
        moments_to_coefficients(MomentVector(np.zeros(42)))


def test_coefficient_bound():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=12)
    m = poly_moments(coeffs, 11)
    a = moments_to_coefficients(m)
    ratios = coefficient_bound_check(m, a)
    assert np.all(ratios <= 1.0 + 1e-12)
    with pytest.raises(ValueError):
        coefficient_bound_check(m, LegendreSeries(np.zeros(3)))


def test_series_eval_matches_direct():
    coeffs = np.array([0.5, -0.2, 0.1, 0.05])
    xs = np.linspace(-1, 1, 21)
    direct = sum(
        coeffs[n] * normalized_legendre(n, xs) for n in range(coeffs.size)
    )
    assert np.allclose(LegendreSeries(coeffs)(xs), direct, atol=1e-13)


def test_normalized_sup_bound():
    xs = np.linspace(-0.5, 0.5, 2001)
    for n in range(0, 51):
        sup = np.abs(normalized_legendre(n, xs)).max()
        assert sup <= normalized_sup_bound(n) + 1e-12
    assert normalized_sup_bound(0) == pytest.approx(1 / math.sqrt(2))


def test_moment_vector_validation():
    with pytest.raises(ValueError):
        MomentVector(np.array([1.0, np.inf]))
    assert MomentVector(np.zeros(5)).order == 4


@given(st.integers(min_value=0, max_value=12),
       st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_legendre_bounded_by_one(n, x):
    assert abs(legendre_vandermonde(n, x)[n]) <= 1.0 + 1e-12


@pytest.mark.parametrize("N", [0, 1, 2, 7, 40])
def test_legendre_vandermonde_matches_numpy(N):
    x = np.linspace(-1.0, 1.0, 201)
    V = legendre_vandermonde(N, x)
    assert np.allclose(V, legvander(x, N), rtol=0.0, atol=1e-13)
    assert np.array_equal(legendre_vandermonde(N, x.reshape(3, 67)),
                          V.reshape(3, 67, N + 1))
