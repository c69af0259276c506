"""Acceptance suite: one test per headline capability, each asserting the
stated tolerance on independently derived references."""

import math

import numpy as np
import pytest

from localradon.bumps import gevrey_bump, hormander_sequence, \
    verify_derivative_bounds
from localradon.kernels import apply_kernel, verify_kernel_bounds
from localradon.legendre import (
    LegendreSeries,
    fl_coefficients,
    moments_to_coefficients,
    normalized_legendre,
    normalized_sup_bound,
    coefficient_bound_check,
)
from localradon.means import convergence_gap, mean_profile
from localradon.phantoms import polynomial_times_bump, smooth_bump
from localradon.stability import (
    BoundConstants,
    H_FLOOR,
    calibrate_constants,
    counterexample_experiment,
    data_norm,
    moments_from_sinogram_unweighted,
    moments_from_sinogram_weighted,
    profile_errors,
    reconstruct_mean,
    reconstruct_slice,
    stability_curve,
    truncation_order,
)
from localradon.transform import (
    Sinogram,
    check_moment_identity,
    check_transport_identity,
    synthesize_sinogram,
)
from localradon.weights import (
    constant_weight,
    field_from_spec,
    gauss_nodes,
    weight_from_ab,
    zero_field,
)

from test_kernels import MatrixOracle

EPS = 0.1
GAMMA = 0.3
NOISE_LEVELS = [1e-10, 1e-8, 1e-6, 1e-4]


def poly_phantom():
    return polynomial_times_bump([(0, 0, 1.0), (1, 0, 0.5)],
                                 center=(0.05, 0.5), width=0.3)


def test_01_identity_suite(f_main, f_sym):
    """Moment identity k <= 3 and transport identity on a 3 x 3 corpus."""
    phantoms = [f_main, f_sym, poly_phantom()]
    points = [(0.0, 0.4), (0.05, 0.35)]
    worst_mom = 0.0
    for f in phantoms:
        for k in (1, 2, 3):
            worst_mom = max(worst_mom, check_moment_identity(f, k, points))
    assert worst_mom <= 1e-3

    pairs = [
        (field_from_spec("one"), zero_field()),
        (zero_field(), field_from_spec("0.5*cos_eta")),
        (field_from_spec("0.5*sin_xi"), field_from_spec("0.5*cos_eta")),
    ]
    worst_tr = 0.0
    for f in phantoms:
        for a, b in pairs:
            m = weight_from_ab(a, b)
            worst_tr = max(
                worst_tr,
                check_transport_identity(f, m, a, b, points),
            )
    assert worst_tr <= 1e-4


def test_02_means_oracle(f_sym, m_exp, phi8, sino_sym, sino_sym_weighted,
                         fam_exp):
    """Moments from data match direct moments of the means, five windows."""
    t, w = gauss_nodes(320)

    def oracle(m, eps, gamma, N):
        prof = mean_profile(f_sym, m, phi8, eps, gamma, x_grid=t)
        return np.array([float(np.sum(w * t**k * prof.values))
                         for k in range(N + 1)])

    worst = 0.0
    pairs = [(0.1, 0.3), (0.12, 0.3), (0.1, 0.33), (0.09, 0.27), (0.08, 0.3)]
    for eps, gamma in pairs:
        ref = oracle(None, eps, gamma, 6)
        got = moments_from_sinogram_unweighted(sino_sym, phi8, eps, gamma, 6)
        rel = np.abs(got.values - ref) / np.maximum(np.abs(ref),
                                                    1e-9 * abs(ref[0]))
        worst = max(worst, rel.max())
    assert worst <= 1e-4

    ref = oracle(m_exp, EPS, GAMMA, 4)
    got = moments_from_sinogram_weighted(sino_sym_weighted, fam_exp, phi8,
                                         EPS, GAMMA, 4)
    rel = np.abs(got.values - ref) / np.maximum(np.abs(ref),
                                                1e-9 * abs(ref[0]))
    assert rel.max() <= 1e-3


def test_03_kernel_certification(fam_exp, fam_generic):
    """Recursion vs independent matrix oracle, then envelope ratios <= 1."""
    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")
    xi0 = 0.1
    oracle = MatrixOracle(a, b, GAMMA, xi0)
    oracle.extend(3)

    def g(eta):
        return np.cos(3.0 * np.asarray(eta)) + 0.5

    worst = 0.0
    for k in range(1, 4):
        for j in range(k + 1):
            ref = oracle.action(j, k, g, 0.25)
            got = apply_kernel(fam_generic[(j, k)], lambda e: g(e), xi0, 0.25)
            worst = max(worst, abs(got - ref) / max(abs(ref), 1e-8))
    assert worst <= 1e-5

    for fam in (fam_exp, fam_generic):
        rep = verify_kernel_bounds(fam, xi0, 4)
        assert rep.worst <= 1.0
        assert rep.beta == pytest.approx(1.0 + math.sqrt(3.0))


def test_04_legendre_suite():
    """Orthonormality, projection round trip, and both coefficient bounds."""
    t, w = gauss_nodes(64)
    P = np.array([normalized_legendre(n, t) for n in range(31)])
    worst = 0.0
    for n in range(31):
        for p in range(n, 31):
            v = math.fsum(w * P[n] * P[p])
            worst = max(worst, abs(v - (1.0 if n == p else 0.0)))
    assert worst <= 1e-12

    rng = np.random.default_rng(42)
    coeffs = rng.normal(size=31)
    series = LegendreSeries(coeffs)
    back = fl_coefficients(series, 30)
    assert np.abs(back.coeffs - coeffs).max() <= 1e-10

    worst_ratio = 0.0
    for _ in range(100):
        deg = int(rng.integers(0, 13))
        pc = rng.normal(size=deg + 1)
        m = np.array([
            math.fsum(c * 2.0 / (k + j + 1) for j, c in enumerate(pc)
                      if (k + j) % 2 == 0)
            for k in range(deg + 1)
        ])
        from localradon.legendre import MomentVector
        mv = MomentVector(m)
        ratios = coefficient_bound_check(mv, moments_to_coefficients(mv))
        worst_ratio = max(worst_ratio, float(ratios.max()))
    assert worst_ratio <= 1.0

    xs = np.linspace(-0.5, 0.5, 4001)
    for n in range(51):
        sup = np.abs(normalized_legendre(n, xs)).max()
        assert sup <= normalized_sup_bound(n) + 1e-12


def test_05_test_function_certification():
    """Derivative-growth envelopes for both bump families."""
    for N in range(1, 25):
        rep = verify_derivative_bounds(hormander_sequence(N), N)
        assert rep.ratios.max() <= 1.0 + 1e-12, N
    for sigma in (1.5, 2.0, 3.0):
        phi = gevrey_bump(sigma, derivative_order_max=12)
        rep = verify_derivative_bounds(phi, 12, grid_n=1501)
        assert rep.ratios.max() <= 1.0 + 1e-12, sigma


def _sweep(clean, f, m, phi, consts, mode, fam=None):
    H0 = max(data_norm(clean, EPS, GAMMA), H_FLOOR)
    N = truncation_order(H0, consts, EPS, mode)
    N = min(N, 6)
    phi_used = hormander_sequence(max(N, 1)) if phi.kind == "hormander" \
        else phi
    true_prof = mean_profile(f, m if fam is not None else None, phi_used,
                             EPS, GAMMA)
    report = stability_curve(clean, true_prof, phi, NOISE_LEVELS, EPS,
                             GAMMA, consts, mode=mode, fam=fam)
    for row in report.rows:
        assert row["l2_error"] <= row["bound"], (mode, row)
    return report


def test_06_end_to_end_analytic(f_main, phi12, sino_clean, sino_weighted,
                                m_exp, fam_exp):
    """Reconstruction error under its bound at four noise levels."""
    base = BoundConstants(c0=f_main.holder_bound, alpha=1.0)
    cal = calibrate_constants(sino_clean, phi12, EPS, GAMMA, 4, base)
    _sweep(sino_clean, f_main, None, phi12, cal, "analytic")
    cal_w = calibrate_constants(sino_weighted, phi12, EPS, GAMMA, 4, base,
                                fam=fam_exp)
    _sweep(sino_weighted, f_main, m_exp, phi12, cal_w, "analytic",
           fam=fam_exp)


def test_07_end_to_end_gevrey(f_main, phi_gevrey2, sino_clean, sino_weighted,
                              m_exp, fam_exp):
    """Same corpus under the Gevrey truncation rule and its bound."""
    base = BoundConstants(c0=f_main.holder_bound, alpha=1.0, sigma=2.0)
    cal = calibrate_constants(sino_clean, phi_gevrey2, EPS, GAMMA, 4, base,
                              mode="gevrey")
    _sweep(sino_clean, f_main, None, phi_gevrey2, cal, "gevrey")
    cal_w = calibrate_constants(sino_weighted, phi_gevrey2, EPS, GAMMA, 4,
                                base, fam=fam_exp, mode="gevrey")
    _sweep(sino_weighted, f_main, m_exp, phi_gevrey2, cal_w, "gevrey",
           fam=fam_exp)


def test_08_slice_estimate(f_main, phi12, phi_gevrey2, sino_wide):
    """Slice reconstruction under the explicit slice bound, plus the
    mean-to-slice convergence ratio."""
    base = BoundConstants(c0=f_main.holder_bound, alpha=1.0, sigma=2.0)
    for phi, mode in ((phi12, "analytic"), (phi_gevrey2, "gevrey")):
        cal = calibrate_constants(sino_wide, phi, EPS, GAMMA, 4, base,
                                  mode=mode)
        res = reconstruct_slice(sino_wide, phi, GAMMA, cal, eps0=0.28,
                                mode=mode)
        target = np.asarray(
            f_main(res.profile.x, np.full_like(res.profile.x, GAMMA)))
        from localradon.means import MeanProfile
        ref = MeanProfile(x=res.profile.x, values=target, eps=res.eps,
                          gamma=GAMMA)
        l2, _ = profile_errors(res.profile, ref)
        assert l2 <= res.bound, mode
        _, ratio = convergence_gap(f_main, None, phi12, res.eps, GAMMA)
        assert ratio <= 1.0


def test_09_counterexample():
    """Oscillatory family: bounded function norm decay, super-polynomial
    data decay."""
    # a wide, centered envelope keeps the oscillatory prefactor of the
    # data decay small enough that successive slopes steepen monotonically
    q = smooth_bump(center=(0.0, 0.5), width=0.4)
    rows, slopes = counterexample_experiment(
        q, [10.0, 20.0, 40.0, 80.0], tol=1e-9)
    products = [r["lambda"] * r["f_norm"] for r in rows]
    assert max(products) / min(products) <= 2.0
    assert all(s2 < s1 for s1, s2 in zip(slopes, slopes[1:]))
    assert slopes[-1] < -3.0


def test_10_zero_data_soundness(phi12):
    """Zero data reconstructs the zero profile exactly."""
    xi = np.linspace(-0.2, 0.2, 41)
    eta = np.linspace(-0.4, 0.4, 33)
    g = Sinogram(xi=xi, eta=eta, values=np.zeros((xi.size, eta.size)))
    assert data_norm(g, EPS, GAMMA) == 0.0
    consts = BoundConstants(c0=16.0, alpha=1.0)
    prof, N = reconstruct_mean(g, phi12, EPS, GAMMA, consts)
    assert N == 0
    assert np.all(prof.values == 0.0)


def test_11_end_to_end_generic_weight(f_main, phi12, fam_generic):
    """Reconstruction under its bound with xi-dependent fields, where no
    composition of the kernel recursion vanishes."""
    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")
    m = weight_from_ab(a, b)
    clean = synthesize_sinogram(f_main, m, np.linspace(-0.13, 0.13, 41),
                                np.linspace(-0.35, 0.35, 57), tol=1e-10)
    assert clean.failed is None
    base = BoundConstants(c0=f_main.holder_bound, alpha=1.0)
    cal = calibrate_constants(clean, phi12, EPS, GAMMA, 4, base,
                              fam=fam_generic)
    report = _sweep(clean, f_main, m, phi12, cal, "analytic", fam=fam_generic)
    assert len(report.rows) == len(NOISE_LEVELS)
