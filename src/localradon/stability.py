"""Reconstruction and stability estimates: moment extraction from sinogram
data, truncation-order selection, mean/slice reconstruction, bound audits,
noise sweeps, and the oscillatory counterexample experiment.

The pipeline never differentiates data.  All derivatives land on test
functions (unweighted case) or are traded for Volterra kernel applications
(weighted case), so noise enters the moments only through integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .bumps import TestFunction, hormander_sequence, verify_derivative_bounds
from .kernels import KernelFamily, interpolation_matrix
from .legendre import (
    MOMENT_MAP_N_CAP,
    LegendreSeries,
    MomentVector,
    moments_to_coefficients,
)
from .means import MeanProfile, chebyshev_grid, mean_profile
from .phantoms import PhantomSpec, oscillatory_phantom
from .transform import Sinogram, add_noise, synthesize_sinogram
# perfbench/spans.py rebinds ``stability.with_noise``, which the sweep no
# longer calls; delete this once the benchmark stops (ROADMAP item 1)
from .transform import with_noise  # noqa: F401
from .weights import (
    Weight,
    constant_weight,
    gauss_nodes,
    panel_rule,
    spline_matrix,
)

__all__ = [
    "BoundConstants",
    "StabilityReport",
    "Reconstruction",
    "A0",
    "H_FLOOR",
    "data_norm",
    "moment_operator",
    "moments_from_sinogram_unweighted",
    "moments_from_sinogram_weighted",
    "truncation_order",
    "order_cap",
    "reconstruct_mean",
    "slice_eps",
    "reconstruct_slice",
    "mean_bound",
    "slice_bound",
    "moment_bound_audit",
    "calibrate_constants",
    "stability_curve",
    "counterexample_experiment",
    "profile_errors",
]

H_FLOOR = 1e-14
# The Jackson constant: the Legendre tail of a g with Hölder data (c0, alpha)
# is ||g - S_N[g]||_2 <= sqrt(2) A0 c0 (2/N)^alpha
A0 = 3.0
WEIGHTED_K_MAX = 6


@dataclass
class BoundConstants:
    """The a-priori class of the phantom that the estimates assume.

    ``c0``/``alpha`` are the phantom's Hölder data (``alpha`` in (0, 1], 1:
    Lipschitz) and ``sigma`` the Gevrey index of the weight fields: None
    selects the analytic rule and bound, a value in ``(1, inf)`` the Gevrey
    ones.  ``M = 4 A0 c0``.  The envelope constant belongs to the test
    function: ``calibrate_constants`` derives it.
    """

    c0: float
    alpha: float = 1.0
    sigma: Optional[float] = None

    def __post_init__(self):
        # a NaN fails every comparison, so each value must pass one
        if not 0 < self.c0 < math.inf:
            raise ValueError("constants must be finite and positive")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], not {self.alpha}")
        if self.sigma is not None and not 1 < self.sigma < math.inf:
            raise ValueError(f"sigma must be in (1, inf), not {self.sigma}")

    @property
    def M(self) -> float:
        return 4.0 * A0 * self.c0


def _check_data(g: Sinogram, eps: float, gamma: float):
    """Data the moments and ``H`` may read: positive sizes, no failed
    cell, and a grid over ``[-eps, eps] x [-gamma, gamma]``."""
    if eps <= 0 or gamma <= 0:
        raise ValueError("eps and gamma must be positive")
    if g.failed is not None and g.failed.any():
        raise ValueError(f"sinogram has {int(g.failed.sum())} failed "
                         "quadrature cells")
    if g.xi[0] > -eps or g.xi[-1] < eps:
        raise ValueError("sinogram xi grid does not cover [-eps, eps]")
    if g.eta[0] > -gamma or g.eta[-1] < gamma:
        raise ValueError("sinogram eta grid does not cover [-gamma, gamma]")


def data_norm(g: Sinogram, eps: float, gamma: float) -> float:
    """``sup over |eta| <= gamma of int |g(xi, eta)| over |xi| <= eps``, read
    from the spline the moments read: on the grid rows with ``|eta| <
    gamma`` and the rows ``eta = +-gamma``, by the Gauss panel rule."""
    return float(_data_norms(g, g.values, eps, gamma))


def _data_norms(g: Sinogram, values: np.ndarray, eps: float,
                gamma: float) -> np.ndarray:
    """``data_norm`` of every sinogram of ``values`` (``(..., n_xi,
    n_eta)``) on the grid of ``g``, whose cells they share: one ``B_xi V
    B_rows^T`` contraction for the stack."""
    _check_data(g, eps, gamma)
    # increasing and distinct, as the grid is; np.unique would import
    # numpy.ma, 35 ms of a process
    rows = np.concatenate([[-gamma], g.eta[np.abs(g.eta) < gamma], [gamma]])
    xs, ws = (a.ravel() for a in panel_rule(np.linspace(-eps, eps, 33), 10))
    spline = (spline_matrix(g.xi, xs) @ values
              @ spline_matrix(g.eta, rows).T)
    return (ws @ np.abs(spline)).max(axis=-1)


def _check_moment_inputs(g: Sinogram, phi: TestFunction, eps: float,
                         gamma: float, N: int):
    """The preconditions of every moment extraction: both public ones and
    each ``N`` of ``_reconstruct_stack``."""
    if N > phi.derivative_order_max:
        raise ValueError("derivative order of the test function exceeded")
    if gamma < eps * eps / 4.0 - 1e-12:
        raise ValueError("gamma must be at least eps^2/4")
    _check_data(g, eps, gamma)
    inside = np.abs(g.xi) <= eps + 1e-12
    if inside.sum() < 2:
        raise ValueError("sinogram xi grid does not resolve [-eps, eps]")
    dxi = np.diff(g.xi[inside]).max()
    scale = 2.0 * eps / (phi.param + 2) if phi.kind == "hormander" \
        else eps / max(4, N)
    if dxi > scale + 1e-12:
        raise ValueError(
            f"sinogram xi spacing {dxi:.3g} too coarse for the dilated "
            f"test function (need <= {scale:.3g})"
        )


def moment_operator(xi, eta, phi: TestFunction, eps: float, gamma: float,
                    N: int, fam: Optional[KernelFamily] = None) -> np.ndarray:
    """The moments as one linear map of the data: ``W`` of shape ``(N + 1,
    n_xi, n_eta)`` with ``m_k = sum(W[k] * g.values)`` for a sinogram ``g``
    on the grid ``xi`` x ``eta``, where ``m_0 = int g(xi, gamma)
    phi_eps(xi) dxi`` and ``m_k = sum_j (-1)^j iint s_{j,k}(xi, gamma, eta)
    g(xi, eta) phi_eps^(j)(xi) deta dxi``.

    ``g`` is read through its bicubic spline (``spline_matrix`` rows) on
    ``phi.panel_edges(eps)`` with a 10-point Gauss rule in xi and on 12
    panels with an 8-point rule in eta, and at ``eta = gamma`` for ``m_0``.
    With ``fam`` None (a = b = 0) only ``s_{k,k} = (gamma - eta)^(k-1) /
    (k-1)!`` is nonzero, on the eta nodes; otherwise each ``S_{j,k}``
    gives the xi-Taylor coefficients ``c[d]`` of its top row on the
    family's grid, read on the eta nodes through the grid's Chebyshev
    interpolating polynomial (``interpolation_matrix``).  So ``W[k] =
    sum_{j, d} x_{j,d} (x) e_{j,k,d}``, the outer products of the xi
    factors ``(-1)^j phi_eps^(j) xi^d`` and the eta factors ``c[d]``, each
    integrated against its axis's spline rows: one contraction over every
    ``(j, d)``.
    """
    if fam is not None and abs(fam.gamma - gamma) > 1e-12:
        raise ValueError("kernel family built for a different gamma")
    xi_n, xi_w = (a.ravel() for a in panel_rule(phi.panel_edges(eps), 10))
    eta_n, eta_w = (a.ravel()
                    for a in panel_rule(np.linspace(-gamma, gamma, 13), 8))
    # eta_f[j, k, d]: the eta factors on the grid, (N+1, N+1, d, n_eta)
    to_eta = eta_w[:, None] * spline_matrix(eta, eta_n)
    ks = np.arange(1, N + 1)
    if fam is None:
        eta_f = np.zeros((N + 1, N + 1, 1, eta.size))
        s_kk = (gamma - eta_n) ** (ks[:, None] - 1) \
            / np.array([math.factorial(k - 1) for k in ks])[:, None]
        eta_f[ks, ks, 0] = s_kk @ to_eta
    else:
        top = {(j, k): fam[(j, k)].row(-1) for k in ks for j in range(k + 1)}
        d = max((r.shape[0] for r in top.values()), default=1)
        c = np.zeros((N + 1, N + 1, d, fam.p.eta.size))
        for (j, k), r in top.items():
            c[j, k, :r.shape[0]] = r
        eta_f = c @ (interpolation_matrix(fam.p.eta, eta_n).T @ to_eta)
    eta_f[0, 0, 0] = spline_matrix(eta, [gamma])[0]
    # xi_f[j, d]: the xi factors on the grid, (N+1, d, n_xi)
    phij = np.array([(-1) ** j * phi.derivative_values(xi_n / eps, j)
                     / eps ** (j + 1) for j in range(N + 1)])
    xi_f = ((xi_w * phij)[:, None] * xi_n ** np.arange(eta_f.shape[2])[:, None]
            @ spline_matrix(xi, xi_n))
    return np.tensordot(xi_f, eta_f, axes=([0, 1], [0, 2])).transpose(1, 0, 2)


def _moments(g: Sinogram, phi: TestFunction, eps: float, gamma: float,
             N: int, fam: Optional[KernelFamily] = None) -> MomentVector:
    """The checked moments of ``g``: ``moment_operator`` applied to its
    values."""
    _check_moment_inputs(g, phi, eps, gamma, N)
    W = moment_operator(g.xi, g.eta, phi, eps, gamma, N, fam)
    return MomentVector(np.tensordot(W, g.values, 2))


def moments_from_sinogram_unweighted(
    g: Sinogram, phi: TestFunction, eps: float, gamma: float, N: int,
) -> MomentVector:
    """Moments of the mean profile directly from data: the a = b = 0 case,
    ``m_k = (-1)^k iint (gamma - eta)^(k-1)/(k-1)! g(xi, eta)
    phi_eps^(k)(xi) deta dxi``, since only ``S_{k,k}`` is nonzero; ``W
    g`` with ``W`` the ``moment_operator`` without a family."""
    return _moments(g, phi, eps, gamma, N)


def moments_from_sinogram_weighted(
    g: Sinogram, fam: KernelFamily, phi: TestFunction, eps: float,
    gamma: float, N: int,
) -> MomentVector:
    """Weighted moments ``m_k = sum_j (-1)^j int (S_{j,k} g)(xi, gamma)
    d_xi^j phi_eps(xi) dxi``, from the top rows of the family (which may
    hold that row alone); ``W g`` with ``W`` the ``moment_operator`` of
    ``fam``, which degenerates to the unweighted one when a = b = 0."""
    return _moments(g, phi, eps, gamma, N, fam)


def truncation_order(H: float, consts: BoundConstants, c_env: float,
                     eps: float) -> int:
    """The estimate-optimal Legendre cutoff for the envelope ``C = c_env``.

    Analytic rule (``consts.sigma`` None): largest N with ``N <= (log(M/H)
    - log(C/eps)) / log(C/eps)``.  Gevrey rule (``sigma > 1``): ``N =
    floor(y / log y)`` with ``y = log(M/H) / log(C/eps)``.
    """
    M = consts.M
    if H >= M:
        raise ValueError("data too noisy for method (H >= M)")
    if H <= 0:
        raise ValueError("H must be positive (floor zero data first)")
    ce = c_env / eps
    if ce <= 1.0:
        raise ValueError("envelope C/eps must exceed 1")
    if consts.sigma is None:
        N = math.floor((math.log(M / H) - math.log(ce)) / math.log(ce))
    else:
        y = math.log(M / H) / math.log(ce)
        if y <= math.e:
            raise ValueError("data too noisy for method (y <= e)")
        N = math.floor(y / math.log(y))
    if N < 1:
        raise ValueError("data too noisy for method (N < 1)")
    return N


def mean_bound(H: float, consts: BoundConstants, c_env: float,
               eps: float) -> float:
    """The reconstruction error bound for the mean profile."""
    M = consts.M
    ce = c_env / eps
    t = math.log(M / H)
    if consts.sigma is None:
        return 4.0 * M * (math.log(ce) / t) ** consts.alpha
    return 4.0 * M * (math.log(ce) * math.log(t) / t) ** consts.alpha


def slice_bound(H: float, consts: BoundConstants, c_env: float) -> float:
    """Explicit slice-estimate bound (mean bound at the selected eps plus
    the mean-to-slice convergence term)."""
    M = consts.M
    t = math.log(M / H)
    llt = math.log(t)
    if consts.sigma is None:
        return 4.0 * M * ((math.log(c_env) + llt) / t) ** consts.alpha \
            + consts.c0 * (2.0 / t) ** consts.alpha
    return 4.0 * M * (
        (math.log(c_env) + llt) * llt / t
    ) ** consts.alpha + 2.0 * M / t ** consts.alpha


def order_cap(phi: TestFunction, weighted: bool) -> int:
    """Largest moment order the pipeline may use: the moment map's
    ``MOMENT_MAP_N_CAP``, the test function's derivative order and, with a
    kernel family, ``WEIGHTED_K_MAX``."""
    cap = min(MOMENT_MAP_N_CAP, phi.derivative_order_max)
    return min(cap, WEIGHTED_K_MAX) if weighted else cap


@dataclass
class Reconstruction:
    """One estimate: the profile, the truncation order ``N``, the data norm
    ``H`` (floored at ``H_FLOOR``) that chose it, the error bound, and the
    envelope constant ``c_env`` (``calibrate_constants``) both read."""
    profile: MeanProfile
    N: int
    H: float
    bound: float
    c_env: float


def reconstruct_mean(
    g: Sinogram,
    phi: TestFunction,
    eps: float,
    gamma: float,
    consts: BoundConstants,
    fam: Optional[KernelFamily] = None,
) -> Reconstruction:
    """Estimate the mean profile from data alone.

    Pipeline: ``c_env`` from ``calibrate_constants`` at the order cap, data
    norm H, truncation order N, moments from the sinogram, exact
    moment-to-Legendre map, truncated series, and the mean bound at H.  Zero
    data yields N = 0 and the zero profile exactly.  Moments over that
    envelope (``moment_bound_audit``) are refused.  It is the estimate of
    a stack of one sinogram (``_reconstruct_stack``).
    """
    return _reconstruct_stack(g, g.values[None], phi, eps, gamma, consts,
                              fam)[0]


def _reconstruct_stack(g: Sinogram, values: np.ndarray, phi: TestFunction,
                       eps: float, gamma: float, consts: BoundConstants,
                       fam: Optional[KernelFamily] = None) -> list:
    """The ``reconstruct_mean`` of every sinogram of the stack ``values``
    (``(L, n_xi, n_eta)``) on the grid of ``g``, with its failed cells.

    One calibration serves every level; the data norms come from one
    contraction, each distinct N builds one ``moment_operator``, the
    moments of its levels are one ``tensordot`` and every level's series
    is evaluated by one matmul.  Each level keeps its own checks: finite
    values, its N (0, with the zero profile, for zero data) and the
    envelope audit of its moments.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError("sinogram contains non-finite values")
    cap = order_cap(phi, fam is not None)
    c_env = calibrate_constants(phi, eps, gamma, cap)
    x_grid = chebyshev_grid()
    H_raw = _data_norms(g, values, eps, gamma).tolist()
    H = [max(h, H_FLOOR) for h in H_raw]
    N = [min(truncation_order(h, consts, c_env, eps), cap) if raw > 0.0
         else 0 for h, raw in zip(H, H_raw)]
    phis = [phi] * len(N)
    coeffs = np.zeros((len(N), max(N) + 1))
    for n in sorted(set(N) - {0}):
        used = phi
        if phi.kind == "hormander" and phi.param != n:
            # the mollified-hat index is tied to the truncation order
            used = hormander_sequence(n)
        _check_moment_inputs(g, used, eps, gamma, n)
        W = moment_operator(g.xi, g.eta, used, eps, gamma, n, fam)
        levels = [i for i, n_i in enumerate(N) if n_i == n]
        for i, m in zip(levels, np.tensordot(values[levels], W,
                                             axes=([1, 2], [1, 2]))):
            moments = MomentVector(m)
            fitted = moment_bound_audit(moments, H[i], eps, consts)
            if fitted > c_env:
                raise ValueError(
                    f"moments exceed their envelope: fitted C {fitted:.4g} "
                    f"> c_env {c_env:.4g}")
            coeffs[i, :n + 1] = moments_to_coefficients(moments).coeffs
            phis[i] = used
    profiles = np.zeros((len(N), x_grid.size))
    live = np.flatnonzero(N)
    if live.size:
        profiles[live] = LegendreSeries(coeffs[live])(x_grid).T
    return [Reconstruction(MeanProfile(x=x_grid, values=v, eps=eps,
                                       gamma=gamma, test_function=used),
                           n, h, mean_bound(h, consts, c_env, eps), c_env)
            for v, used, n, h in zip(profiles, phis, N, H)]


def reconstruct_slice(
    g: Sinogram,
    phi: TestFunction,
    gamma: float,
    consts: BoundConstants,
    eps0: float,
    fam: Optional[KernelFamily] = None,
) -> Reconstruction:
    """Slice estimate ``f(., gamma)`` (or ``f m_gamma``): the mean at
    ``slice_eps`` (``profile.eps``) under the slice bound."""
    rec = reconstruct_mean(g, phi, slice_eps(g, gamma, consts, eps0), gamma,
                           consts, fam=fam)
    return replace(rec, bound=slice_bound(rec.H, consts, rec.c_env))


def slice_eps(g: Sinogram, gamma: float, consts: BoundConstants,
              eps0: float) -> float:
    """The eps of the slice estimate, ``1.5/log(M/H0)`` with ``H0`` the data
    norm at ``eps0``: in ``[1/log(M/H0), 2/log(M/H0)]``, with the window
    required below eps0.  Only ``consts.c0`` enters."""
    t = math.log(consts.M / max(data_norm(g, eps0, gamma), H_FLOOR))
    if t <= 0 or 2.0 / t >= eps0:
        raise ValueError("H too large for eps-selection rule")
    return 1.5 / t


def moment_bound_audit(m: MomentVector, H: float, eps: float,
                       consts: BoundConstants) -> float:
    """The smallest C (floored at 1e-30) with ``|m_k| <= (C/eps)^(k+1)
    env_k H`` for every ``k <= N = m.order``, where ``env_k = e^N``
    (analytic) or ``k!^(sigma - 1)`` (Gevrey)."""
    k = np.arange(m.order + 1)
    env = math.exp(m.order) if consts.sigma is None \
        else np.cumprod(np.maximum(k, 1.0)) ** (consts.sigma - 1.0)
    base = np.abs(m.values) / (env * H)
    return max(float(np.max(base ** (1.0 / (k + 1)))) * eps, 1e-30)


def calibrate_constants(phi: TestFunction, eps: float, gamma: float,
                        N: int) -> float:
    """The envelope constant ``c_env`` the moment-bound proof needs for
    moments up to order ``N``: ``sqrt(2) C_phi max(2 gamma, 1)`` with
    ``C_phi`` certified at order ``N`` on each call, once per estimate (the
    sqrt(2) absorbs ``k <= sqrt(2)^(k+1)``), floored at ``e * eps`` to keep
    ``log(C/eps)`` positive.  An ``N`` past ``phi.derivative_order_max`` is
    refused.  It reads no data.  The floor is a proof for ``a = b = 0``,
    for any data; weighted moments also carry ``S_{j,k}`` terms it leaves
    out, so a weighted run relies on ``reconstruct_mean``'s envelope check.
    """
    C_phi = verify_derivative_bounds(phi, N)
    return max(math.sqrt(2.0) * C_phi * max(2 * gamma, 1.0), math.e * eps)


def profile_errors(est: MeanProfile, ref: MeanProfile):
    """(L2, sup-on-|x|<=1/2) errors between two profiles on a shared grid."""
    if est.x.shape != ref.x.shape or not np.allclose(est.x, ref.x):
        raise ValueError("profiles live on different grids")
    l2, sup = _error_norms(est.x, est.values - ref.values)
    return float(l2), float(sup)


def _error_norms(x: np.ndarray, diff: np.ndarray):
    """The L2 norm (``MeanProfile.l2_norm``: of the spline through the
    samples, by 200-point Gauss) and the sup on ``|x| <= 1/2`` of each
    difference ``diff[..., :]`` sampled on ``x``."""
    t, w = gauss_nodes(200)
    l2 = np.sqrt(np.sum(w * (spline_matrix(x, t) @ diff.T).T ** 2, axis=-1))
    return l2, np.abs(diff[..., np.abs(x) <= 0.5]).max(axis=-1)


@dataclass
class StabilityReport:
    rows: list                     # dicts: sigma, H, N, l2, sup, bound
    alpha_hat: float
    fit: dict = field(default_factory=dict)


def _line_fit(x, y):
    """Slope, intercept and correlation of the least-squares line through
    ``(x, y)``, in the arithmetic of ``scipy.stats.linregress``; the
    correlation is NaN when ``y`` is constant."""
    ssx, ssxy, _, ssy = np.cov(x, y, bias=1).flat
    slope = ssxy / ssx
    r = min(max(ssxy / math.sqrt(ssx * ssy), -1.0), 1.0) if ssy > 0 \
        else math.nan
    return float(slope), float(np.mean(y) - slope * np.mean(x)), float(r)


def stability_curve(
    clean: Sinogram,
    f: PhantomSpec,
    m: Weight,
    phi: TestFunction,
    noise_levels,
    eps: float,
    gamma: float,
    consts: BoundConstants,
    fam: Optional[KernelFamily] = None,
    seed: int = 0,
) -> StabilityReport:
    """Reconstruction error versus noise, with the estimate's bound per row
    and a fitted decay exponent ``alpha_hat`` in ``error ~ const *
    log(1/H)^(-alpha_hat)``.  Each row's truth is the mean of ``f`` times
    ``m`` under the test function its reconstruction used, one object
    (and one ``mean_profile``) for every level of one N.

    Level ``i`` of the levels sorted down is ``add_noise(clean.values,
    sigma, seed + i)``, the data of ``with_noise``; the levels are
    reconstructed as one stack (``_reconstruct_stack``, so they share one
    ``moment_operator`` per N), and scored in one contraction."""
    noise_levels = sorted(noise_levels, reverse=True)
    if len(noise_levels) < 1:
        raise ValueError("need at least one noise level")
    values = np.stack([add_noise(clean.values, sigma, seed + i)
                       for i, sigma in enumerate(noise_levels)])
    recs = _reconstruct_stack(clean, values, phi, eps, gamma, consts, fam)
    used = [rec.profile.test_function for rec in recs]
    x = recs[0].profile.x
    truths = {p: mean_profile(f, m, p, eps, gamma, x_grid=x).values
              for p in dict.fromkeys(used)}
    l2, sup = _error_norms(x, np.array(
        [rec.profile.values - truths[p] for rec, p in zip(recs, used)]))
    rows = [{"sigma": sigma, "H": rec.H, "N": rec.N, "l2_error": float(e),
             "sup_error_half": float(s), "bound": rec.bound}
            for sigma, rec, e, s in zip(noise_levels, recs, l2, sup)]
    rows.sort(key=lambda r: -r["H"])
    logs = np.log([math.log(1.0 / r["H"]) for r in rows])
    errs = np.log([max(r["l2_error"], 1e-300) for r in rows])
    if len(rows) >= 2 and np.ptp(logs) > 0:
        slope, intercept, r = _line_fit(logs, errs)
        alpha_hat = -slope
        diag = {"intercept": intercept, "rvalue": r}
    else:
        alpha_hat = float("nan")
        diag = {}
    return StabilityReport(rows=rows, alpha_hat=alpha_hat, fit=diag)


def counterexample_experiment(
    q: PhantomSpec,
    lambdas,
    xi_grid=None,
    eta_grid=None,
    tol: float = 1e-10,
):
    """Decay table for the oscillatory family ``f_lambda = q cos(lambda x)
    / lambda``: the function norm decays like 1/lambda while the data norm
    decays super-polynomially, so no Hölder-type inequality between the
    two L2 norms can hold."""
    lambdas = list(lambdas)
    if any(l2 <= l1 for l1, l2 in zip(lambdas, lambdas[1:])):
        raise ValueError("lambda list must be increasing")
    if xi_grid is None:
        xi_grid = np.linspace(-0.5, 0.5, 21)
    if eta_grid is None:
        eta_grid = np.linspace(-0.1, 1.2, 27)
    m = constant_weight()
    rows = []
    for lam in lambdas:
        f = oscillatory_phantom(q, lam)
        ext = f.x_extent()
        xs = np.linspace(-ext, ext, 401)
        ys = np.linspace(0.0, q.center[1] + q.width, 401)
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(f(X, Y), dtype=float)
        f_norm = math.sqrt(np.trapezoid(np.trapezoid(vals**2, ys), xs))
        sino = synthesize_sinogram(f, m, xi_grid, eta_grid, tol=tol)
        g2 = np.trapezoid(np.trapezoid(sino.values**2, eta_grid), xi_grid)
        rows.append({"lambda": lam, "f_norm": f_norm,
                     "data_norm": math.sqrt(max(g2, 0.0))})
    slopes = []
    for r1, r2 in zip(rows[:-1], rows[1:]):
        num = math.log(max(r2["data_norm"], 1e-300) /
                       max(r1["data_norm"], 1e-300))
        slopes.append(num / math.log(r2["lambda"] / r1["lambda"]))
    return rows, slopes
