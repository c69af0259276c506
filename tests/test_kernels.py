import math

import numpy as np
import pytest
from scipy.integrate import quad

from localradon.kernels import (
    BETA,
    apply_kernel,
    certified_constant,
    commutator_check,
    compose,
    interpolation_matrix,
    lobatto_grid,
    sjk_family,
    verify_kernel_bounds,
)
from localradon.weights import field_from_spec, zero_field

GAMMA = 0.3


def lower_triangle(fam):
    eta = fam.p.eta
    gap = eta[:, None] - eta[None, :]
    return eta, gap, gap >= 0


def test_unweighted_family_closed_form(fam_zero):
    # a = b = 0: P has kernel 1, Q vanishes, so S_{k,k} is the k-fold
    # Volterra power with kernel gap^(k-1)/(k-1)! and everything else is 0
    eta, gap, tri = lower_triangle(fam_zero)
    for k in range(1, 5):
        ref = gap[tri] ** (k - 1) / math.factorial(k - 1)
        got = fam_zero[(k, k)].values(0.17)[tri]
        assert np.abs(got - ref).max() < 1e-10
        for j in range(k):
            assert np.abs(fam_zero[(j, k)].values(0.17)).max() < 1e-12


def test_exp_weight_family_closed_form(fam_exp):
    # a = 1, b = 0: psi = exp(eta' - eta), xi-independent, so
    # S_{k,k} = gap^(k-1)/(k-1)! * exp(eta' - eta) and S_{j<k,k} = 0
    eta, gap, tri = lower_triangle(fam_exp)
    base = np.exp(-gap[tri])
    for k in range(1, 5):
        ref = gap[tri] ** (k - 1) / math.factorial(k - 1) * base
        got = fam_exp[(k, k)].values(0.1)[tri]
        assert np.abs(got - ref).max() < 1e-9
        for j in range(k):
            assert np.abs(fam_exp[(j, k)].values(0.1)).max() < 1e-10


def test_xi_field_family_closed_form():
    # a = xi, b = 0: psi = exp(xi (eta' - eta));
    # S_{1,2} = gap^2/2 * psi and S_{2,2} = gap * psi
    fam = sjk_family(field_from_spec("xi"), zero_field(), GAMMA, 2)
    eta, gap, tri = lower_triangle(fam)
    xi = 0.12
    base = np.exp(-xi * gap[tri])
    assert np.abs(fam[(1, 1)].values(xi)[tri] - base).max() < 1e-10
    assert np.abs(fam[(1, 2)].values(xi)[tri]
                  - 0.5 * gap[tri] ** 2 * base).max() < 1e-9
    assert np.abs(fam[(2, 2)].values(xi)[tri]
                  - gap[tri] * base).max() < 1e-9
    assert np.abs(fam[(0, 2)].values(xi)).max() < 1e-11


def test_families_exact_on_small_grid():
    # the spectral composition is exact to rounding already at 24 points
    fam = sjk_family(field_from_spec("xi"), zero_field(), GAMMA, 2,
                     grid_n=24)
    eta, gap, tri = lower_triangle(fam)
    xi = 0.12
    base = np.exp(-xi * gap[tri])
    assert np.abs(fam[(1, 2)].values(xi)[tri]
                  - 0.5 * gap[tri] ** 2 * base).max() < 1e-13
    assert np.abs(fam[(2, 2)].values(xi)[tri]
                  - gap[tri] * base).max() < 1e-13
    # a = 2 sin(eta): A = 2 cos(gamma) - 2 cos(eta), so
    # psi = exp(2 cos(eta) - 2 cos(eta')) and S_{k,k} = gap^(k-1)/(k-1)! psi
    fam = sjk_family(field_from_spec("2*sin_eta"), zero_field(), GAMMA, 4,
                     grid_n=24)
    psi = np.exp(2 * np.cos(eta)[:, None] - 2 * np.cos(eta)[None, :])[tri]
    for k in range(1, 5):
        ref = gap[tri] ** (k - 1) / math.factorial(k - 1) * psi
        assert np.abs(fam[(k, k)].values(xi)[tri] - ref).max() < 1e-13


def test_lobatto_integration_matrix_exact_on_polynomials():
    eta, C, _ = lobatto_grid(12, GAMMA)
    assert eta[0] == -GAMMA and eta[-1] == GAMMA and np.all(np.diff(eta) > 0)
    for d in range(12):
        got = C @ eta ** d
        ref = (eta ** (d + 1) - (-GAMMA) ** (d + 1)) / (d + 1)
        assert np.abs(got - ref).max() < 1e-15
    pts = np.array([-0.21, 0.0, 0.17])
    assert np.abs(interpolation_matrix(eta, pts) @ eta ** 11
                  - pts ** 11).max() < 1e-15


def test_constant_b_family_closed_form():
    # a = 0, b = 1: psi = 1 and the recursion gives polynomial kernels
    # S_{0,1} = -1, S_{0,2} = gap, S_{1,2} = -2 gap, S_{2,2} = gap
    fam = sjk_family(zero_field(), field_from_spec("one"), GAMMA, 2)
    eta, gap, tri = lower_triangle(fam)
    xi = 0.2
    assert np.abs(fam[(0, 1)].values(xi)[tri] + 1.0).max() < 1e-11
    assert np.abs(fam[(0, 2)].values(xi)[tri] - gap[tri]).max() < 1e-10
    assert np.abs(fam[(1, 2)].values(xi)[tri] + 2 * gap[tri]).max() < 1e-10
    assert np.abs(fam[(2, 2)].values(xi)[tri] - gap[tri]).max() < 1e-10


def test_family_index_guard(fam_zero):
    with pytest.raises(KeyError):
        fam_zero[(2, 1)]
    with pytest.raises(KeyError):
        fam_zero[(-1, 3)]


def test_compose_grid_mismatch(fam_zero):
    other = sjk_family(zero_field(), zero_field(), 0.2, 1)
    with pytest.raises(ValueError):
        compose(fam_zero.p, other.p)


def test_deriv_xi_shifts_taylor_coefficients():
    fam = sjk_family(field_from_spec("xi"), zero_field(), GAMMA, 1)
    d = fam.p.deriv_xi()
    # d_xi exp(xi (eta' - eta)) at xi = 0 equals eta' - eta
    eta = fam.p.eta
    gap = eta[:, None] - eta[None, :]
    assert np.abs(d.values(0.0) + gap).max() < 1e-12


def test_apply_kernel_closed_form(fam_zero):
    # with s = 1 (the k = 1 kernel) and g = cos, the action from -gamma
    # to eta is sin(eta) + sin(gamma)
    val = apply_kernel(fam_zero[(1, 1)], math.cos, 0.0, 0.25)
    assert val == pytest.approx(math.sin(0.25) + math.sin(GAMMA), abs=1e-11)


class MatrixOracle:
    """Independent discrete realization of the kernel recursion.

    Operators are Volterra quadrature matrices on a fine eta grid, built
    straight from the defining integrals with adaptive quadrature for the
    antiderivative; xi-derivatives are central finite differences across a
    stencil of xi samples.  Nothing here shares code with the jet-based
    implementation.
    """

    def __init__(self, a, b, gamma, xi0, h=2e-3, n=601, stencil=7):
        self.eta = np.linspace(-gamma, gamma, n)
        self.h = h
        self.xis = xi0 + h * (np.arange(stencil) - stencil // 2)
        step = self.eta[1] - self.eta[0]
        W = np.zeros((n, n))
        for i in range(1, n):
            W[i, 0] = W[i, i] = step / 2.0
            W[i, 1:i] = step
        self.levels = {}
        mats = {}
        for idx, xi in enumerate(self.xis):
            A = np.array([
                quad(lambda s: float(a.value(xi, s)), -gamma, e,
                     epsabs=1e-12, epsrel=1e-12, limit=200)[0]
                for e in self.eta
            ])
            psi = np.exp(A[None, :] - A[:, None])
            bv = np.array([float(b.value(xi, e)) for e in self.eta])
            P = psi * W
            Q = (-bv[None, :] * psi) * W
            mats[idx] = {"P": P, "Q": Q, (0, 1): Q, (1, 1): P}
        self.mats = mats

    def extend(self, k_max):
        idxs = sorted(self.mats)
        k = 1
        while k < k_max:
            for idx in idxs[1:-1]:
                m = self.mats[idx]
                lo, hi = self.mats[idx - 1], self.mats[idx + 1]
                for j in range(k + 1):
                    dS = (hi[(j, k)] - lo[(j, k)]) / (2 * self.h)
                    new = m[(j, k)] @ m["Q"] - dS @ m["P"]
                    if j >= 1:
                        new = new + m[(j - 1, k)] @ m["P"]
                    m[(j, k + 1)] = new
                m[(k + 1, k + 1)] = m[(k, k)] @ m["P"]
            idxs = idxs[1:-1]
            k += 1
        self.center = self.mats[sorted(self.mats)[len(self.mats) // 2]]

    def action(self, j, k, g, eta_val):
        gv = g(self.eta)
        vals = self.center[(j, k)] @ gv
        return float(np.interp(eta_val, self.eta, vals))


def test_generic_family_against_matrix_oracle(fam_generic):
    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")
    xi0 = 0.1
    oracle = MatrixOracle(a, b, GAMMA, xi0)
    oracle.extend(3)

    def g(eta):
        return np.cos(3.0 * np.asarray(eta)) + 0.5

    eta_val = 0.25
    for k in range(1, 4):
        for j in range(k + 1):
            ref = oracle.action(j, k, g, eta_val)
            got = apply_kernel(fam_generic[(j, k)], lambda e: g(e),
                               xi0, eta_val)
            assert got == pytest.approx(ref, rel=1e-5, abs=1e-8), (j, k)


def test_certified_constant_floor(fam_zero):
    assert certified_constant(fam_zero.p, fam_zero.q) == 1.0


def test_kernel_bounds_exp_family(fam_exp):
    rep = verify_kernel_bounds(fam_exp, 0.1, 4)
    assert rep.worst <= 1.0
    assert rep.beta == BETA


def test_kernel_bounds_generic_family(fam_generic):
    rep = verify_kernel_bounds(fam_generic, 0.1, 4)
    assert rep.worst <= 1.0
    assert rep.constant >= 1.0


def test_commutator_identity():
    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")

    def g(xi, eta):
        return math.exp(0.3 * xi) * math.cos(eta)

    points = [(0.0, 0.1), (0.1, -0.2), (-0.05, 0.25)]
    assert commutator_check(a, b, g, points) < 1e-6
