import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from localradon import stability
from localradon.bumps import (
    gevrey_bump,
    hormander_sequence,
    verify_derivative_bounds,
)
from localradon.kernels import sjk_family
from localradon.legendre import MomentVector
from localradon.means import mean_profile
from localradon.phantoms import smooth_bump
from localradon.stability import (
    BoundConstants,
    H_FLOOR,
    _line_fit,
    _reconstruct_stack,
    calibrate_constants,
    counterexample_experiment,
    data_norm,
    mean_bound,
    moment_bound_audit,
    moments_from_sinogram_unweighted,
    moments_from_sinogram_weighted,
    order_cap,
    profile_errors,
    reconstruct_mean,
    reconstruct_slice,
    slice_bound,
    slice_eps,
    stability_curve,
    truncation_order,
)
from localradon.transform import Sinogram, synthesize_sinogram, with_noise
from localradon.weights import (
    constant_weight,
    field_from_spec,
    gauss_nodes,
    panel_rule,
)

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


def test_data_norm_reads_the_rows_at_gamma(f_main, m_const):
    # no grid row lies at eta = gamma, where this phantom's data is largest
    g = synthesize_sinogram(f_main, m_const, np.linspace(-0.13, 0.13, 41),
                            np.linspace(-0.35, 0.35, 30), tol=1e-10)
    assert not np.any(np.isclose(g.eta, GAMMA))
    xs, ws = (a.ravel() for a in panel_rule(np.linspace(-EPS, EPS, 9), 40))
    top = synthesize_sinogram(f_main, m_const, xs, [GAMMA], tol=1e-12)
    row_norm = float(ws @ np.abs(top.values[:, 0]))
    assert data_norm(g, EPS, GAMMA) == pytest.approx(row_norm, rel=1e-4)


def test_data_norm_validation():
    g = flat_sinogram(1.0)
    with pytest.raises(ValueError):
        data_norm(g, -0.1, GAMMA)
    with pytest.raises(ValueError):
        data_norm(g, 0.5, GAMMA)
    with pytest.raises(ValueError):
        data_norm(g, EPS, 0.6)


def test_bound_constants_validation():
    c = BoundConstants(c0=2.0, alpha=1.0)
    assert c.M == 24.0
    with pytest.raises(ValueError):
        BoundConstants(c0=-1.0, alpha=1.0)
    assert BoundConstants(c0=1.0, alpha=0.5).alpha == 0.5
    # a Hölder exponent lies in (0, 1]; a larger one would lower the bound
    for bad in ({"alpha": math.nan}, {"alpha": 0.0}, {"alpha": 1.5},
                {"alpha": 2.0}, {"alpha": math.inf}, {"c0": math.inf},
                {"c0": math.nan}, {"sigma": 1.0}, {"sigma": 0.5},
                {"sigma": math.inf}, {"sigma": math.nan}):
        with pytest.raises(ValueError):
            BoundConstants(**{"c0": 1.0, "alpha": 1.0, **bad})


def test_line_fit_matches_linregress():
    from scipy.stats import linregress
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 8))
        x, y = np.log(rng.uniform(1.0, 30.0, n)), rng.normal(size=n)
        fit = linregress(x, y)
        assert _line_fit(x, y) == (fit.slope, fit.intercept, fit.rvalue)
    slope, intercept, r = _line_fit(np.array([1.0, 2.0, 3.0]), np.full(3, .5))
    assert slope == 0.0 and intercept == 0.5 and math.isnan(r)


def test_truncation_order_plugin_values():
    c, c_env = BoundConstants(c0=1.0, alpha=1.0), math.e * 0.1
    # log(M/H) = 20 and log(C/eps) = 1 give N = 19
    H = c.M * math.exp(-20.0)
    assert truncation_order(H, c, c_env, 0.1) == 19
    # gevrey: y = 100 gives floor(100 / log 100) = 21
    H = c.M * math.exp(-100.0)
    assert truncation_order(H, replace(c, sigma=2.0), c_env, 0.1) == 21


def test_truncation_order_noise_guards():
    c, c_env = BoundConstants(c0=1.0, alpha=1.0), math.e * 0.1
    with pytest.raises(ValueError, match="data too noisy"):
        truncation_order(c.M * 2.0, c, c_env, 0.1)
    with pytest.raises(ValueError, match="data too noisy"):
        truncation_order(c.M * math.exp(-0.5), c, c_env, 0.1)
    with pytest.raises(ValueError, match="data too noisy"):
        truncation_order(c.M * math.exp(-2.0), replace(c, sigma=2.0), c_env,
                         0.1)
    with pytest.raises(ValueError):
        truncation_order(0.0, c, c_env, 0.1)


@pytest.mark.parametrize("rule", [
    lambda H, c: mean_bound(H, c, 3.0, 0.1),
    lambda H, c: mean_bound(H, replace(c, sigma=2.0), 3.0, 0.1),
    lambda H, c: slice_bound(H, c, 3.0),
    lambda H, c: slice_bound(H, replace(c, sigma=2.0), 3.0),
], ids=["mean_bound", "mean_bound_gevrey", "slice_bound",
        "slice_bound_gevrey"])
def test_bounds_refuse_data_outside_zero_to_M(rule):
    # the README bump's c0 gives M = 181.31: at 1e6 and 1.01 M the mean
    # bound would read -286.3 and -247 894, at 0 divide by zero, and a
    # slice at 2 M raise a bare math domain error; both bounds read
    # log(M/H) through truncation_order's checks
    c = BoundConstants(c0=smooth_bump((0.0, 0.45), 0.3).holder_bound)
    for H in (1e6, 1.01 * c.M, c.M, 2.0 * c.M):
        with pytest.raises(ValueError, match=r"data too noisy for method "
                                             r"\(H >= M\)"):
            rule(H, c)
    for H in (0.0, -1.0):
        with pytest.raises(ValueError, match="H must be positive"):
            rule(H, c)


def test_bound_formulas_plugin():
    c, c_env = BoundConstants(c0=1.0, alpha=1.0), 1.0
    H = c.M * math.exp(-math.e**2)
    t = math.e**2
    assert mean_bound(H, c, c_env, 0.5) == pytest.approx(
        4 * c.M * math.log(2.0) / t, rel=1e-12)
    assert slice_bound(H, c, c_env) == pytest.approx(
        4 * c.M * (2.0 / t) + (2.0 / t), rel=1e-12)
    # gevrey variants carry the extra loglog factor
    assert mean_bound(H, replace(c, sigma=2.0), c_env, 0.5) == pytest.approx(
        4 * c.M * math.log(2.0) * 2.0 / t, rel=1e-12)


def test_moments_match_mean_oracle(sino_clean, f_main, phi12):
    m = moments_from_sinogram_unweighted(sino_clean, phi12, EPS, GAMMA, 2)
    ref = moments_of_profile(f_main, constant_weight(), phi12, 2)
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


def test_moments_of_order_zero(sino_weighted, fam_exp, phi12):
    # m_0 reads no kernel: with a family, at N = 0 too, it is the m_0
    # of the unweighted extraction
    m0 = [moments_from_sinogram_weighted(sino_weighted, fam_exp, phi12, EPS,
                                         GAMMA, N).values[0] for N in (0, 2)]
    m0.append(moments_from_sinogram_unweighted(sino_weighted, phi12, EPS,
                                               GAMMA, 0).values[0])
    assert m0 == pytest.approx([m0[2]] * 3, rel=1e-14)


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
def test_moment_input_guards(sino_clean, phi12, fam_exp, weighted):
    def moments(g, eps, gamma, N):
        if weighted:
            return moments_from_sinogram_weighted(g, fam_exp, phi12, eps,
                                                  gamma, N)
        return moments_from_sinogram_unweighted(g, phi12, eps, gamma, N)

    keep = sino_clean.eta >= -0.10 - 1e-12
    cut = Sinogram(xi=sino_clean.xi, eta=sino_clean.eta[keep],
                   values=sino_clean.values[:, keep])
    # xi step 0.0195 against the 2 eps / 14 = 0.0143 that phi12 needs
    coarse = Sinogram(xi=sino_clean.xi[::3], eta=sino_clean.eta,
                      values=sino_clean.values[::3])
    # xi on [-0.046, 0.046] only: the spline would extrapolate to +-eps
    near = np.abs(sino_clean.xi) <= 0.05
    narrow = Sinogram(xi=sino_clean.xi[near], eta=sino_clean.eta,
                      values=sino_clean.values[near])
    flagged = with_noise(sino_clean, 0.0, 0)
    flagged.failed = np.zeros(flagged.values.shape, dtype=bool)
    flagged.failed[3, 5] = True
    with pytest.raises(ValueError, match="derivative order"):
        moments(sino_clean, EPS, GAMMA, 13)
    with pytest.raises(ValueError, match="eps\\^2/4"):
        moments(sino_clean, 2.0, 0.1, 2)
    with pytest.raises(ValueError, match="eta grid does not cover"):
        moments(cut, EPS, GAMMA, 2)
    with pytest.raises(ValueError, match="too coarse"):
        moments(coarse, EPS, GAMMA, 2)
    with pytest.raises(ValueError, match="xi grid does not cover"):
        moments(narrow, EPS, GAMMA, 2)
    with pytest.raises(ValueError, match="1 failed"):
        moments(flagged, EPS, GAMMA, 2)
    if weighted:
        with pytest.raises(ValueError, match="different gamma"):
            moments(sino_clean, EPS, 0.25, 2)


def test_reconstruct_mean_zero_data(phi12):
    g = flat_sinogram(0.0)
    consts = BoundConstants(c0=16.0, alpha=1.0)
    rec = reconstruct_mean(g, phi12, EPS, GAMMA, consts)
    assert rec.N == 0
    assert np.all(rec.profile.values == 0.0)


def test_reconstruct_mean_accuracy(sino_clean, f_main, phi12):
    consts = BoundConstants(c0=f_main.holder_bound, alpha=1.0)
    c_env = calibrate_constants(phi12, EPS, GAMMA,
                                order_cap(phi12, weighted=False))
    rec = reconstruct_mean(sino_clean, phi12, EPS, GAMMA, consts)
    ref = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA,
                       x_grid=rec.profile.x)
    l2, sup = profile_errors(rec.profile, ref)
    assert rec.N >= 1
    assert rec.H == max(data_norm(sino_clean, EPS, GAMMA), H_FLOOR)
    assert rec.c_env == c_env
    assert rec.bound == mean_bound(rec.H, consts, c_env, EPS)
    assert l2 <= rec.bound


def test_moment_audit_ratios(sino_clean, phi12, f_main):
    # at the fitted C every |m_k| lies under its envelope (C/eps)^(k+1)
    # env_k H, env_k = e^N (analytic) or k! (Gevrey sigma = 2), and at
    # 0.999 C some |m_k| does not: the constant is sound and minimal
    moments = moments_from_sinogram_unweighted(sino_clean, phi12, EPS,
                                               GAMMA, 4)
    m = np.abs(moments.values)
    H = data_norm(sino_clean, EPS, GAMMA)
    ks = np.arange(5)
    for sigma, env in ((None, np.full(5, math.exp(4))),
                       (2.0, np.array([1.0, 1.0, 2.0, 6.0, 24.0]))):
        consts = BoundConstants(c0=f_main.holder_bound, sigma=sigma)
        C = moment_bound_audit(moments, H, EPS, consts)
        assert np.all(m <= (C / EPS) ** (ks + 1) * env * H * (1 + 1e-12))
        assert np.any(m > (0.999 * C / EPS) ** (ks + 1) * env * H)


def test_noise_audit_stays_under_the_proof_floor(phi_gevrey2):
    # the proof floor sqrt(2) C_phi max(2 gamma, 1) bounds the moments of
    # any data: on pure noise the fitted constant (0.2 to 0.7) stays under
    # it (2.3 to 3.1), so a C_phi that certified too little would show
    xi, eta = np.linspace(-0.13, 0.13, 41), np.linspace(-0.35, 0.35, 29)
    fams = [None] + [
        sjk_family(field_from_spec(a), field_from_spec(b), GAMMA,
                   order_cap(phi_gevrey2, weighted=True), grid_n=48,
                   rows=[-1])
        for a, b in (("0.5*sin_xi", "0.5*cos_eta"),
                     ("2.0*exp_xi", "2.0*xi_eta"))]
    for phi in (hormander_sequence(4), hormander_sequence(8), phi_gevrey2):
        floor = {N: math.sqrt(2.0) * verify_derivative_bounds(phi, N)
                 * max(2 * GAMMA, 1.0)
                 for N in {order_cap(phi, w) for w in (False, True)}}
        for fam, (seed, sigma) in itertools.product(
                fams, enumerate((None, 2.0))):
            N = order_cap(phi, weighted=fam is not None)
            g = Sinogram(xi=xi, eta=eta, values=np.random.default_rng(
                seed).normal(size=(xi.size, eta.size)))
            moments = moments_from_sinogram_unweighted(
                g, phi, EPS, GAMMA, N) if fam is None else \
                moments_from_sinogram_weighted(g, fam, phi, EPS, GAMMA, N)
            H = max(data_norm(g, EPS, GAMMA), H_FLOOR)
            consts = BoundConstants(c0=1.0, sigma=sigma)
            assert moment_bound_audit(moments, H, EPS, consts) < floor[N]


def test_a_faulty_kernel_is_refused(f_main, m_generic):
    # the envelope check reads the moments the estimate uses: S_{1,1}'s top
    # row scaled by 1e6 gives a fitted C of 25.1 against c_env 2.33, where a
    # calibration on the data would have raised c_env (to 9.23) and lowered
    # N from 2 to 1 without a record
    g = synthesize_sinogram(f_main, m_generic, np.linspace(-0.13, 0.13, 21),
                            np.linspace(-0.35, 0.35, 29), tol=1e-8)
    phi = hormander_sequence(4)
    cap = order_cap(phi, weighted=True)
    consts = BoundConstants(c0=f_main.holder_bound)
    for scale in (1.0, 1e6):
        fam = sjk_family(m_generic.a, m_generic.b, GAMMA, cap, rows=[-1])
        fam[(0, cap)]            # every level composed before the fault
        fam.kernels[(1, 1)].coeffs *= scale
        if scale == 1.0:
            assert reconstruct_mean(g, phi, EPS, GAMMA, consts,
                                    fam=fam).N == 2
            continue
        with pytest.raises(ValueError, match="exceed their envelope"):
            reconstruct_mean(g, phi, EPS, GAMMA, consts, fam=fam)
        # a sweep reads the same moments, through one operator per N
        with pytest.raises(ValueError, match="exceed their envelope"):
            stability_curve(g, f_main, m_generic, phi, [1e-10, 1e-8], EPS,
                            GAMMA, consts, fam=fam)


def test_calibrate_floors(phi12):
    cal = calibrate_constants(phi12, EPS, GAMMA, 4)
    C_phi = verify_derivative_bounds(phi12, 4)
    floor = math.sqrt(2.0) * C_phi * max(2 * GAMMA, 1.0)
    assert cal >= floor - 1e-12
    assert cal >= math.e * EPS


def test_calibration_certifies_its_own_order():
    # a Gevrey bump's certified constant grows with the order (1.303 at
    # k = 0, 1.661 at k >= 1 for sigma = 2), so a certificate made earlier
    # at a lower order may not lower the proof floor of a calibration at N
    fresh = calibrate_constants(gevrey_bump(2.0, 14), EPS, GAMMA, 1)
    phi = gevrey_bump(2.0, 14)
    C_phi = verify_derivative_bounds(phi, 1)
    assert verify_derivative_bounds(phi, 0) < C_phi
    again = calibrate_constants(phi, EPS, GAMMA, 1)
    assert again == fresh
    assert fresh >= math.sqrt(2.0) * C_phi * max(2 * GAMMA, 1.0)


def test_public_rules_reproduce_an_estimates_decision(sino_wide):
    # the README example: the c_env an estimate records is the proof floor
    # at the order cap (3.0435), and the public rules at that c_env give
    # its N = 1 and bound 258.2, not the N = 2 and 226.5 of a c_env of 2.0
    f = smooth_bump(center=(0.0, 0.45), width=0.3)
    g = synthesize_sinogram(f, constant_weight(), np.linspace(-0.13, 0.13, 21),
                            np.linspace(-0.35, 0.35, 29), tol=1e-8)
    phi = hormander_sequence(8)
    base = BoundConstants(c0=f.holder_bound)
    cap = order_cap(phi, weighted=False)
    rec = reconstruct_mean(g, phi, EPS, GAMMA, base)
    assert rec.c_env == calibrate_constants(phi, EPS, GAMMA, cap)
    assert rec.c_env == pytest.approx(3.0435, abs=5e-5)
    assert min(truncation_order(rec.H, base, rec.c_env, EPS), cap) \
        == rec.N == 1
    assert mean_bound(rec.H, base, rec.c_env, EPS) == rec.bound
    assert rec.bound == pytest.approx(258.2, abs=0.05)
    # a slice calibrates at the eps that its rule picks from the data
    eps = slice_eps(sino_wide, GAMMA, base, 0.28)
    rec = reconstruct_slice(sino_wide, phi, GAMMA, base, 0.28)
    assert rec.profile.eps == eps
    assert rec.c_env == calibrate_constants(phi, eps, GAMMA, cap)
    assert min(truncation_order(rec.H, base, rec.c_env, eps), cap) == rec.N
    assert slice_bound(rec.H, base, rec.c_env) == rec.bound


def test_removed_inputs_are_refused():
    # the envelope belongs to the test function: no caller may set it, and
    # no calibration past the test function's order is silently capped
    with pytest.raises(TypeError):
        BoundConstants(c0=1.0, c_env=3.0)
    with pytest.raises(ValueError, match="derivative order limit"):
        calibrate_constants(hormander_sequence(3), EPS, GAMMA, 4)
    with pytest.raises(TypeError):
        verify_derivative_bounds(hormander_sequence(3), 3, grid_n=1501)


def test_a_sweep_certifies_C_phi_once(f_main, sino_clean, sino_weighted,
                                      m_exp, fam_exp):
    # the certificate of the one test function that a sweep's levels share
    # is evaluated once (the evaluations of more than one derivative order
    # are the certificate's)
    for g, m, fam in ((sino_clean, constant_weight(), None),
                      (sino_weighted, m_exp, fam_exp)):
        phi = hormander_sequence(12)
        orders, evaluate = [], phi._eval

        def counted(x, ks):
            orders.append(len(ks))
            return evaluate(x, ks)

        phi._eval = counted
        stability_curve(g, f_main, m, phi, [1e-10, 1e-8, 1e-6, 1e-4], EPS,
                        GAMMA, BoundConstants(c0=f_main.holder_bound),
                        fam=fam)
        cap = order_cap(phi, weighted=fam is not None)
        assert [n for n in orders if n > 1] == [cap + 1]


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["constant", "fam_exp"])
def test_a_sweep_is_its_levels_estimates(f_main, sino_clean, sino_weighted,
                                         m_exp, fam_exp, weighted,
                                         monkeypatch):
    # the stacked sweep returns the rows of one reconstruct_mean and
    # profile_errors per level, on the with_noise data of that level, and
    # builds one moment operator for the one N they pick
    g, m, fam = (sino_weighted, m_exp, fam_exp) if weighted else \
        (sino_clean, constant_weight(), None)
    phi, levels, seed = hormander_sequence(12), [1e-10, 1e-8, 1e-6, 1e-4], 3
    consts = BoundConstants(c0=f_main.holder_bound)
    built, operator = [], stability.moment_operator
    monkeypatch.setattr(stability, "moment_operator",
                        lambda *args: built.append(args[5])
                        or operator(*args))
    rows = stability_curve(g, f_main, m, phi, levels, EPS, GAMMA, consts,
                           fam=fam, seed=seed).rows
    assert len({r["N"] for r in rows}) == 1 and len(built) == 1
    for i, sigma in enumerate(sorted(levels, reverse=True)):
        rec = reconstruct_mean(with_noise(g, sigma, seed + i), phi, EPS,
                               GAMMA, consts, fam=fam)
        truth = mean_profile(f_main, m, rec.profile.test_function, EPS,
                             GAMMA, x_grid=rec.profile.x)
        l2, sup = profile_errors(rec.profile, truth)
        row = next(r for r in rows if r["sigma"] == sigma)
        assert (row["N"], row["H"]) == (rec.N, rec.H)
        for key, ref in (("l2_error", l2), ("sup_error_half", sup),
                         ("bound", rec.bound)):
            assert row[key] == pytest.approx(ref, rel=1e-12, abs=0)


def test_a_stack_groups_its_levels_by_N(sino_clean, f_main, phi12,
                                        monkeypatch):
    # levels that pick N = 1, N = 2 and (zero data) N = 0 get one moment
    # operator per nonzero N and each the estimate it gets alone
    values = sino_clean.values[None] * np.array([1.0, 0.1, 0.0])[:, None,
                                                                  None]
    consts = BoundConstants(c0=f_main.holder_bound)
    built, operator = [], stability.moment_operator
    monkeypatch.setattr(stability, "moment_operator",
                        lambda *args: built.append(args[5])
                        or operator(*args))
    recs = _reconstruct_stack(sino_clean, values, phi12, EPS, GAMMA, consts)
    assert [r.N for r in recs] == [1, 2, 0] and built == [1, 2]
    for v, rec in zip(values, recs):
        alone = reconstruct_mean(replace(sino_clean, values=v), phi12, EPS,
                                 GAMMA, consts)
        assert (alone.N, alone.H, alone.bound) == (rec.N, rec.H, rec.bound)
        assert alone.profile.test_function.param == \
            rec.profile.test_function.param
        assert np.allclose(rec.profile.values, alone.profile.values,
                           rtol=0, atol=1e-12 * np.abs(
                               alone.profile.values).max(initial=0))
    assert np.all(recs[2].profile.values == 0.0)
    values[1, 3, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        _reconstruct_stack(sino_clean, values, phi12, EPS, GAMMA, consts)


def test_a_sweep_refuses_noisy_data(sino_clean, f_main):
    # level 0 is add_noise(values, sigma_0, seed): on data synthesized with
    # noise at that seed it repeats the synthesis draw, so the row holds
    # twice the noise it reports
    noisy = with_noise(sino_clean, 1e-4, 0)
    with pytest.raises(ValueError, match="clean data"):
        stability_curve(noisy, f_main, constant_weight(),
                        hormander_sequence(12), [1e-4], EPS, GAMMA,
                        BoundConstants(c0=f_main.holder_bound))


def test_an_estimate_needs_order_one(sino_clean):
    # a test function allowing no moment past order 0 would turn nonzero
    # data into the zero-data estimate N = 0, with no record of the cap
    phi = gevrey_bump(2.0, 0)
    assert order_cap(phi, weighted=False) == 0
    for g in (sino_clean, flat_sinogram(0.0)):
        with pytest.raises(ValueError, match="order 1"):
            reconstruct_mean(g, phi, EPS, GAMMA, BoundConstants(c0=16.0))


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
    prof = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA)
    shifted = mean_profile(f_main, constant_weight(), phi12, EPS, GAMMA)
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
