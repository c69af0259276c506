import math

import numpy as np
import pytest

from localradon.legendre import MomentVector
from localradon.means import mean_profile
from localradon.stability import (
    BoundConstants,
    H_FLOOR,
    calibrate_constants,
    counterexample_experiment,
    data_norm,
    mean_bound,
    moment_bound_audit,
    moments_from_sinogram_unweighted,
    moments_from_sinogram_weighted,
    profile_errors,
    reconstruct_mean,
    reconstruct_slice,
    slice_bound,
    truncation_order,
    with_noise,
)
from localradon.transform import Sinogram
from localradon.weights import gauss_nodes

EPS = 0.1
GAMMA = 0.3


def flat_sinogram(level):
    xi = np.linspace(-0.2, 0.2, 41)
    eta = np.linspace(-0.4, 0.4, 33)
    return Sinogram(xi=xi, eta=eta,
                    values=np.full((xi.size, eta.size), float(level)))


def moments_of_profile(f, m, phi, N):
    """Independent moment oracle: int x^k M(x) dx with the mean evaluated
    directly at Gauss nodes (no interpolation)."""
    t, w = gauss_nodes(160)
    prof = mean_profile(f, m, phi, EPS, GAMMA, x_grid=t)
    return np.array([float(np.sum(w * t**k * prof.values))
                     for k in range(N + 1)])


def test_data_norm_trivial_cases():
    assert data_norm(flat_sinogram(0.0), EPS, GAMMA) == 0.0
    # |g| = 1 integrates to the window length 2 eps
    assert data_norm(flat_sinogram(1.0), EPS, GAMMA) == \
        pytest.approx(2 * EPS, rel=1e-12)


def test_data_norm_monotone_in_eps():
    g = flat_sinogram(1.0)
    assert data_norm(g, 0.05, GAMMA) < data_norm(g, 0.15, GAMMA)


def test_data_norm_validation():
    g = flat_sinogram(1.0)
    with pytest.raises(ValueError):
        data_norm(g, -0.1, GAMMA)
    with pytest.raises(ValueError):
        data_norm(g, 0.5, GAMMA)
    with pytest.raises(ValueError):
        data_norm(g, EPS, 0.6)


def test_bound_constants_validation():
    c = BoundConstants(c0=2.0, alpha=1.0, a0=3.0)
    assert c.M == 24.0
    with pytest.raises(ValueError):
        BoundConstants(c0=-1.0, alpha=1.0)
    with pytest.raises(ValueError):
        BoundConstants(c0=1.0, alpha=1.0, rho=0.9)
    with pytest.raises(ValueError):
        _ = BoundConstants(c0=1.0, alpha=1.0).s
    assert BoundConstants(c0=1.0, alpha=1.0, sigma=2.0).s == 1.0


def test_truncation_order_plugin_values():
    c = BoundConstants(c0=1.0, alpha=1.0, c_env=math.e * 0.1)
    # log(M/H) = 20 and log(C/eps) = 1 give N = 19
    H = c.M * math.exp(-20.0)
    assert truncation_order(H, c, 0.1, "analytic") == 19
    # gevrey: y = 100 gives floor(100 / log 100) = 21
    H = c.M * math.exp(-100.0)
    assert truncation_order(H, c, 0.1, "gevrey") == 21


def test_truncation_order_noise_guards():
    c = BoundConstants(c0=1.0, alpha=1.0, c_env=math.e * 0.1)
    with pytest.raises(ValueError, match="data too noisy"):
        truncation_order(c.M * 2.0, c, 0.1)
    with pytest.raises(ValueError, match="data too noisy"):
        truncation_order(c.M * math.exp(-0.5), c, 0.1, "analytic")
    with pytest.raises(ValueError, match="data too noisy"):
        truncation_order(c.M * math.exp(-2.0), c, 0.1, "gevrey")
    with pytest.raises(ValueError):
        truncation_order(0.0, c, 0.1)
    with pytest.raises(ValueError):
        truncation_order(1e-3, c, 0.1, "fourier")


def test_bound_formulas_plugin():
    c = BoundConstants(c0=1.0, alpha=1.0, c_env=1.0)
    H = c.M * math.exp(-math.e**2)
    t = math.e**2
    assert mean_bound(H, c, 0.5, "analytic") == pytest.approx(
        4 * c.M * math.log(2.0) / t, rel=1e-12)
    assert slice_bound(H, c, "analytic") == pytest.approx(
        4 * c.M * (2.0 / t) + (2.0 / t), rel=1e-12)
    # gevrey variants carry the extra loglog factor
    assert mean_bound(H, c, 0.5, "gevrey") == pytest.approx(
        4 * c.M * math.log(2.0) * 2.0 / t, rel=1e-12)


def test_moments_match_mean_oracle(sino_clean, f_main, phi12):
    m = moments_from_sinogram_unweighted(sino_clean, phi12, EPS, GAMMA, 2)
    ref = moments_of_profile(f_main, None, phi12, 2)
    rel = np.abs(m.values - ref) / np.abs(ref)
    assert rel.max() < 1e-4


def test_weighted_moments_match_mean_oracle(sino_weighted, f_main, m_exp,
                                            fam_exp, phi12):
    m = moments_from_sinogram_weighted(sino_weighted, fam_exp, phi12,
                                       EPS, GAMMA, 2)
    ref = moments_of_profile(f_main, m_exp, phi12, 2)
    rel = np.abs(m.values - ref) / np.abs(ref)
    assert rel.max() < 1e-3


def test_weighted_degenerates_to_unweighted(sino_clean, fam_zero, phi12):
    mw = moments_from_sinogram_weighted(sino_clean, fam_zero, phi12,
                                        EPS, GAMMA, 4)
    mu = moments_from_sinogram_unweighted(sino_clean, phi12, EPS, GAMMA, 4)
    assert np.abs(mw.values - mu.values).max() < 1e-10


def test_moment_input_guards(sino_clean, phi12, fam_exp):
    with pytest.raises(ValueError):
        moments_from_sinogram_unweighted(sino_clean, phi12, EPS, GAMMA, 13)
    with pytest.raises(ValueError):
        moments_from_sinogram_unweighted(sino_clean, phi12, 2.0, 0.1, 2)
    with pytest.raises(ValueError):
        moments_from_sinogram_weighted(sino_clean, fam_exp, phi12,
                                       EPS, 0.25, 2)


def test_reconstruct_mean_zero_data(phi12):
    g = flat_sinogram(0.0)
    consts = BoundConstants(c0=16.0, alpha=1.0)
    prof, N = reconstruct_mean(g, phi12, EPS, GAMMA, consts)
    assert N == 0
    assert np.all(prof.values == 0.0)


def test_reconstruct_mean_accuracy(sino_clean, f_main, phi12):
    consts = BoundConstants(c0=f_main.holder_bound, alpha=1.0)
    consts = calibrate_constants(sino_clean, phi12, EPS, GAMMA, 4, consts)
    prof, N = reconstruct_mean(sino_clean, phi12, EPS, GAMMA, consts)
    ref = mean_profile(f_main, None, phi12, EPS, GAMMA, x_grid=prof.x)
    l2, sup = profile_errors(prof, ref)
    assert N >= 1
    assert l2 <= mean_bound(max(data_norm(sino_clean, EPS, GAMMA), H_FLOOR),
                            consts, EPS)


def test_moment_audit_ratios(sino_clean, phi12, f_main):
    consts = BoundConstants(c0=f_main.holder_bound, alpha=1.0)
    rep = moment_bound_audit(sino_clean, phi12, EPS, GAMMA, 4, consts)
    assert np.all(rep.ratios <= 1.0 + 1e-12)
    assert rep.fitted_c > 0
    assert rep.H > 0


def test_calibrate_floors(sino_clean, phi12, f_main):
    consts = BoundConstants(c0=f_main.holder_bound, alpha=1.0)
    cal = calibrate_constants(sino_clean, phi12, EPS, GAMMA, 4, consts)
    floor = math.sqrt(2.0) * phi12.certified_constant * max(2 * GAMMA, 1.0)
    assert cal.c_env >= floor - 1e-12
    assert cal.c_env >= math.e * EPS


def test_with_noise_deterministic(sino_clean):
    g1 = with_noise(sino_clean, 1e-5, 7)
    g2 = with_noise(sino_clean, 1e-5, 7)
    g3 = with_noise(sino_clean, 1e-5, 8)
    assert np.array_equal(g1.values, g2.values)
    assert not np.array_equal(g1.values, g3.values)
    assert np.array_equal(with_noise(sino_clean, 0.0, 1).values,
                          sino_clean.values)


def test_with_noise_keeps_failed_cells():
    g = flat_sinogram(0.0)
    g.failed = np.zeros(g.values.shape, dtype=bool)
    g.failed[3, 5] = True
    noisy = with_noise(g, 1e-5, 7)
    assert np.array_equal(noisy.failed, g.failed)
    assert with_noise(flat_sinogram(0.0), 1e-5, 7).failed is None


def test_profile_errors_known_difference(f_main, phi12):
    prof = mean_profile(f_main, None, phi12, EPS, GAMMA)
    shifted = mean_profile(f_main, None, phi12, EPS, GAMMA)
    shifted.values = shifted.values + 0.01
    l2, sup = profile_errors(shifted, prof)
    assert l2 == pytest.approx(0.01 * math.sqrt(2.0), rel=1e-10)
    assert sup == pytest.approx(0.01, rel=1e-12)


def test_reconstruct_slice_guard(sino_wide, phi12):
    # a tiny M makes log(M/H) nonpositive, tripping the eps-window guard
    consts = BoundConstants(c0=1e-12, alpha=1.0)
    with pytest.raises(ValueError, match="eps-selection"):
        reconstruct_slice(sino_wide, phi12, GAMMA, consts, eps0=0.28)


def test_counterexample_validation(f_main):
    with pytest.raises(ValueError):
        counterexample_experiment(f_main, [20.0, 10.0])


def test_counterexample_decay(f_main):
    xi = np.linspace(-0.5, 0.5, 11)
    eta = np.linspace(-0.1, 1.2, 15)
    rows, slopes = counterexample_experiment(
        f_main, [10.0, 20.0], xi_grid=xi, eta_grid=eta, tol=1e-8)
    # function norm halves, data norm collapses much faster
    assert rows[1]["f_norm"] == pytest.approx(rows[0]["f_norm"] / 2, rel=0.1)
    assert slopes[0] < -2.0


def test_weighted_moments_check_eta_coverage_and_gamma(sino_weighted,
                                                       fam_exp, phi8):
    keep = sino_weighted.eta >= -0.10 - 1e-12
    cut = Sinogram(xi=sino_weighted.xi, eta=sino_weighted.eta[keep],
                   values=sino_weighted.values[:, keep])
    with pytest.raises(ValueError, match="eta grid does not cover"):
        moments_from_sinogram_weighted(cut, fam_exp, phi8, EPS, GAMMA, 4)
    with pytest.raises(ValueError, match="eps\\^2/4"):
        moments_from_sinogram_weighted(sino_weighted, fam_exp, phi8, EPS,
                                       0.001, 4)


def test_reconstruct_refuses_failed_cells(sino_clean, phi12):
    g = with_noise(sino_clean, 0.0, 0)
    g.failed = np.zeros(g.values.shape, dtype=bool)
    g.failed[3, 5] = True
    consts = BoundConstants(c0=16.0, alpha=1.0)
    with pytest.raises(ValueError, match="1 failed"):
        reconstruct_mean(g, phi12, EPS, GAMMA, consts)
