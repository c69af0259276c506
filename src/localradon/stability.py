"""Reconstruction and stability estimates: moment extraction from sinogram
data, truncation-order selection, mean/slice reconstruction, bound audits,
noise sweeps, and the oscillatory counterexample experiment.

The pipeline never differentiates data.  All derivatives land on test
functions (unweighted case) or are traded for Volterra kernel applications
(weighted case), so noise enters the moments only through integration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.stats import linregress

from .bumps import TestFunction
from .kernels import BETA, KernelFamily, interpolation_matrix
from .legendre import MOMENT_MAP_N_CAP, MomentVector, moments_to_coefficients
from .means import MeanProfile, chebyshev_grid, support_halfwidth
from .phantoms import PhantomSpec
from .transform import Sinogram, synthesize_sinogram
from .weights import Weight, constant_weight, gauss_nodes, panel_rule

__all__ = [
    "BoundConstants",
    "StabilityReport",
    "MomentAuditReport",
    "SliceResult",
    "H_FLOOR",
    "data_norm",
    "moments_from_sinogram_unweighted",
    "moments_from_sinogram_weighted",
    "truncation_order",
    "order_cap",
    "reconstruct_mean",
    "reconstruct_slice",
    "mean_bound",
    "slice_bound",
    "moment_bound_audit",
    "calibrate_constants",
    "stability_curve",
    "counterexample_experiment",
    "with_noise",
    "profile_errors",
]

H_FLOOR = 1e-14
WEIGHTED_K_MAX = 6


@dataclass
class BoundConstants:
    """Constants entering the reconstruction estimates.

    ``c0``/``alpha`` are the phantom's Hölder data, ``a0`` the Jackson
    constant, ``c_env`` the envelope constant C in the moment bound
    (fitted on calibration runs, then frozen), ``sigma`` the Gevrey index
    of the weight fields when applicable, ``rho`` the sup-estimate
    exponent (must stay below ``alpha - 1/2``).
    """

    c0: float
    alpha: float
    a0: float = 3.0
    c_env: float = 2.0
    beta: float = BETA
    sigma: Optional[float] = None
    rho: Optional[float] = None

    def __post_init__(self):
        if min(self.c0, self.alpha, self.a0, self.c_env) <= 0:
            raise ValueError("constants must be positive")
        if self.rho is not None and not (0 < self.rho < self.alpha - 0.5):
            raise ValueError("rho must lie in (0, alpha - 1/2)")

    @property
    def M(self) -> float:
        return 4.0 * self.a0 * self.c0

    @property
    def s(self) -> float:
        if self.sigma is None:
            raise ValueError("sigma not set")
        return self.sigma - 1.0


def data_norm(g: Sinogram, eps: float, gamma: float) -> float:
    """``sup over rows |eta| <= gamma of the L1 norm of g over |xi| <= eps``
    (trapezoid on the grid, endpoints interpolated)."""
    if eps <= 0 or gamma <= 0:
        raise ValueError("eps and gamma must be positive")
    if g.failed is not None and g.failed.any():
        raise ValueError(
            f"sinogram has {int(g.failed.sum())} failed quadrature cells"
        )
    if g.xi[0] > -eps or g.xi[-1] < eps or g.eta[0] > -gamma or \
            g.eta[-1] < gamma:
        raise ValueError("rectangle [-eps,eps] x [-gamma,gamma] exceeds grid")
    inside = np.abs(g.xi) < eps
    xs = np.concatenate(([-eps], g.xi[inside], [eps]))
    rows = np.abs(g.eta) <= gamma + 1e-12
    best = 0.0
    for row in g.values[:, rows].T:
        vals = np.abs(np.interp(xs, g.xi, row))
        best = max(best, float(np.trapezoid(vals, xs)))
    return best


def _check_moment_inputs(g: Sinogram, phi: TestFunction, eps: float,
                         gamma: float, N: int):
    """The preconditions shared by both moment extractions."""
    if N > phi.derivative_order_max:
        raise ValueError("derivative order of the test function exceeded")
    if gamma < eps * eps / 4.0 - 1e-12:
        raise ValueError("gamma must be at least eps^2/4")
    if g.eta[0] > -gamma or g.eta[-1] < gamma:
        raise ValueError("sinogram eta grid does not cover [-gamma, gamma]")
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


def moments_from_sinogram_unweighted(
    g: Sinogram, phi: TestFunction, eps: float, gamma: float, N: int,
) -> MomentVector:
    """Moments of the mean profile directly from data:

    ``m_0 = int g(xi, gamma) phi_eps(xi) dxi`` and for k >= 1

    ``m_k = (-1)^k iint (gamma - eta)^(k-1)/(k-1)! g(xi, eta)
    phi_eps^(k)(xi) deta dxi``.
    """
    _check_moment_inputs(g, phi, eps, gamma, N)
    sp = g.interpolant()
    xi_n, xi_w = (a.ravel() for a in panel_rule(phi.panel_edges(eps), 10))
    eta_n, eta_w = (a.ravel()
                    for a in panel_rule(np.linspace(-gamma, gamma, 13), 8))
    lattice = sp(xi_n, eta_n)                       # (n_xi, n_eta)
    moments = np.empty(N + 1)
    row_g = sp(xi_n, [gamma])[:, 0]
    moments[0] = float(np.sum(xi_w * phi(xi_n / eps) / eps * row_g))
    for k in range(1, N + 1):
        kernel = (gamma - eta_n) ** (k - 1) / math.factorial(k - 1)
        inner = lattice @ (eta_w * kernel)
        phik = phi.derivative_values(xi_n / eps, k) / eps ** (k + 1)
        moments[k] = (-1) ** k * float(np.sum(xi_w * phik * inner))
    return MomentVector(moments)


def moments_from_sinogram_weighted(
    g: Sinogram, fam: KernelFamily, phi: TestFunction, eps: float,
    gamma: float, N: int,
) -> MomentVector:
    """Weighted moments ``m_k = sum_j (-1)^j int (S_{j,k} g)(xi, gamma)
    d_xi^j phi_eps(xi) dxi``; degenerates to the unweighted formula when
    a = b = 0."""
    _check_moment_inputs(g, phi, eps, gamma, N)
    if abs(fam.gamma - gamma) > 1e-12:
        raise ValueError("kernel family built for a different gamma")
    sp = g.interpolant()
    eta = fam.p.eta
    xi_n, xi_w = (a.ravel() for a in panel_rule(phi.panel_edges(eps), 10))
    eta_n, eta_w = (a.ravel()
                    for a in panel_rule(np.linspace(eta[0], eta[-1], 13), 8))
    to_nodes = interpolation_matrix(eta, eta_n).T
    gvals = sp(xi_n, eta_n)                         # (n_xi, n_eta)
    moments = np.empty(N + 1)
    row_g = sp(xi_n, [gamma])[:, 0]
    moments[0] = float(np.sum(xi_w * phi(xi_n / eps) / eps * row_g))
    for k in range(1, N + 1):
        acc = 0.0
        for j in range(k + 1):
            S = fam[(j, k)]
            if S.is_zero():
                continue
            # top-row kernel jets s(xi, gamma, .) evaluated at all xi nodes
            top = S.coeffs[:, -1, :]                # (order+1, n)
            rows = np.zeros((xi_n.size, eta.size))
            for cd in top[::-1]:
                rows = rows * xi_n[:, None] + cd[None, :]
            sg = ((rows @ to_nodes) * gvals) @ eta_w  # (n_xi,)
            phij = phi.derivative_values(xi_n / eps, j) / eps ** (j + 1)
            acc += (-1) ** j * float(np.sum(xi_w * phij * sg))
        moments[k] = acc
    return MomentVector(moments)


def truncation_order(H: float, consts: BoundConstants, eps: float,
                     mode: str = "analytic") -> int:
    """The estimate-optimal Legendre cutoff.

    Analytic mode: largest N with ``N <= (log(M/H) - log(C/eps)) /
    log(C/eps)``.  Gevrey mode: ``N = floor(y / log y)`` with
    ``y = log(M/H) / log(C(s)/eps)``.
    """
    M = consts.M
    if H >= M:
        raise ValueError("data too noisy for method (H >= M)")
    if H <= 0:
        raise ValueError("H must be positive (floor zero data first)")
    ce = consts.c_env / eps
    if ce <= 1.0:
        raise ValueError("envelope C/eps must exceed 1")
    if mode == "analytic":
        N = math.floor((math.log(M / H) - math.log(ce)) / math.log(ce))
    elif mode == "gevrey":
        y = math.log(M / H) / math.log(ce)
        if y <= math.e:
            raise ValueError("data too noisy for method (y <= e)")
        N = math.floor(y / math.log(y))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if N < 1:
        raise ValueError("data too noisy for method (N < 1)")
    return N


def mean_bound(H: float, consts: BoundConstants, eps: float,
               mode: str = "analytic") -> float:
    """The reconstruction error bound for the mean profile."""
    M = consts.M
    ce = consts.c_env / eps
    t = math.log(M / H)
    if mode == "analytic":
        return 4.0 * M * (math.log(ce) / t) ** consts.alpha
    return 4.0 * M * (math.log(ce) * math.log(t) / t) ** consts.alpha


def slice_bound(H: float, consts: BoundConstants, mode: str = "analytic") -> float:
    """Explicit slice-estimate bound (mean bound at the selected eps plus
    the mean-to-slice convergence term)."""
    M = consts.M
    t = math.log(M / H)
    llt = math.log(t)
    if mode == "analytic":
        return 4.0 * M * ((math.log(consts.c_env) + llt) / t) ** consts.alpha \
            + consts.c0 * (2.0 / t) ** consts.alpha
    return 4.0 * M * (
        (math.log(consts.c_env) + llt) * llt / t
    ) ** consts.alpha + 2.0 * M / t ** consts.alpha


def order_cap(phi: TestFunction, weighted: bool) -> int:
    """Largest moment order the pipeline may use: the moment map's
    ``MOMENT_MAP_N_CAP``, the test function's derivative order and, with a
    kernel family, ``WEIGHTED_K_MAX``."""
    cap = min(MOMENT_MAP_N_CAP, phi.derivative_order_max)
    return min(cap, WEIGHTED_K_MAX) if weighted else cap


def _zero_profile(eps: float, gamma: float, weighted: bool, x_grid):
    return MeanProfile(x=x_grid, values=np.zeros(x_grid.size), eps=eps,
                       gamma=gamma, weighted=weighted)


def reconstruct_mean(
    g: Sinogram,
    phi: TestFunction,
    eps: float,
    gamma: float,
    consts: BoundConstants,
    mode: str = "analytic",
    fam: Optional[KernelFamily] = None,
    x_grid=None,
):
    """Estimate the mean profile from data alone.

    Pipeline: data norm H, truncation order N, moments from the sinogram,
    exact moment-to-Legendre map, truncated series.  Returns the profile
    and the N used.  Zero data yields the zero profile exactly.
    """
    if x_grid is None:
        x_grid = chebyshev_grid()
    x_grid = np.asarray(x_grid, dtype=float)
    weighted = fam is not None
    H_raw = data_norm(g, eps, gamma)
    if H_raw == 0.0:
        return _zero_profile(eps, gamma, weighted, x_grid), 0
    H = max(H_raw, H_FLOOR)
    N = min(truncation_order(H, consts, eps, mode), order_cap(phi, weighted))
    if phi.kind == "hormander" and phi.param != N:
        # the mollified-hat index is tied to the truncation order
        from .bumps import hormander_sequence
        phi = hormander_sequence(max(N, 1))
    if weighted:
        moments = moments_from_sinogram_weighted(g, fam, phi, eps, gamma, N)
    else:
        moments = moments_from_sinogram_unweighted(g, phi, eps, gamma, N)
    series = moments_to_coefficients(moments)
    prof = MeanProfile(
        x=x_grid, values=np.asarray(series(x_grid), dtype=float),
        eps=eps, gamma=gamma, weighted=weighted,
        test_function=f"{phi.kind}:{phi.param}",
    )
    return prof, N


@dataclass
class SliceResult:
    profile: MeanProfile
    eps: float
    N: int
    H: float
    bound: float


def reconstruct_slice(
    g: Sinogram,
    phi: TestFunction,
    gamma: float,
    consts: BoundConstants,
    eps0: float,
    mode: str = "analytic",
    fam: Optional[KernelFamily] = None,
    x_grid=None,
) -> SliceResult:
    """Slice estimate ``f(., gamma)`` (or ``f m_gamma``): pick eps in
    ``[1/log(M/H), 2/log(M/H)]``, require the window below eps0, then
    reconstruct the mean at that eps."""
    H0 = max(data_norm(g, eps0, gamma), H_FLOOR)
    t = math.log(consts.M / H0)
    if t <= 0 or 2.0 / t >= eps0:
        raise ValueError("H too large for eps-selection rule")
    eps = 1.5 / t
    prof, N = reconstruct_mean(g, phi, eps, gamma, consts, mode=mode,
                               fam=fam, x_grid=x_grid)
    H = max(data_norm(g, eps, gamma), H_FLOOR)
    return SliceResult(profile=prof, eps=eps, N=N, H=H,
                       bound=slice_bound(H, consts, mode))


@dataclass
class MomentAuditReport:
    fitted_c: float
    ratios: np.ndarray
    moments: MomentVector
    H: float


def moment_bound_audit(
    g: Sinogram, phi: TestFunction, eps: float, gamma: float, N: int,
    consts: BoundConstants, fam: Optional[KernelFamily] = None,
    mode: str = "analytic",
) -> MomentAuditReport:
    """Audit ``|m_k| <= (C/eps)^(k+1) env_k H`` with ``env_k = e^N``
    (analytic) or ``k!^s`` (gevrey); C is fitted as the smallest constant
    making every ratio at most one, and reported for reuse."""
    H = max(data_norm(g, eps, gamma), H_FLOOR)
    if fam is not None:
        moments = moments_from_sinogram_weighted(g, fam, phi, eps, gamma, N)
    else:
        moments = moments_from_sinogram_unweighted(g, phi, eps, gamma, N)
    ks = np.arange(N + 1)
    if mode == "analytic":
        env = np.full(N + 1, math.exp(N))
    else:
        env = np.array([math.factorial(k) for k in ks], dtype=float) ** consts.s
    base = np.abs(moments.values) / (env * H)
    fitted_c = float(max(base[k] ** (1.0 / (k + 1)) for k in ks)) * eps
    fitted_c = max(fitted_c, 1e-30)
    ratios = np.abs(moments.values) / ((fitted_c / eps) ** (ks + 1) * env * H)
    return MomentAuditReport(fitted_c=fitted_c, ratios=ratios,
                             moments=moments, H=H)


def calibrate_constants(
    g: Sinogram, phi: TestFunction, eps: float, gamma: float, N: int,
    consts: BoundConstants, fam: Optional[KernelFamily] = None,
    mode: str = "analytic",
) -> BoundConstants:
    """Fit the envelope constant on a noiseless calibration run and freeze
    it.

    The fitted constant is floored at the value the moment-bound proof
    actually needs, ``sqrt(2) C_phi max(2 gamma, 1)`` with ``C_phi`` the
    certified derivative constant of the test function (the sqrt(2)
    absorbs ``k <= sqrt(2)^(k+1)``): that floor makes the moment
    inequality hold for arbitrary data (noise included), not just for the
    calibration run.  A second floor ``e * eps`` keeps the truncation
    rule's ``log(C/eps)`` positive.
    """
    from dataclasses import replace

    from .bumps import verify_derivative_bounds

    rep = moment_bound_audit(g, phi, eps, gamma, N, consts, fam=fam, mode=mode)
    if phi.certified_constant is None:
        verify_derivative_bounds(phi, min(N, phi.derivative_order_max))
    floor = math.sqrt(2.0) * phi.certified_constant * max(2 * gamma, 1.0)
    return replace(consts, c_env=max(rep.fitted_c, floor, math.e * eps))


def with_noise(g: Sinogram, sigma: float, seed: int) -> Sinogram:
    """A copy of a clean sinogram with fresh seeded Gaussian noise."""
    rng = np.random.default_rng(seed)
    values = g.values + rng.normal(0.0, sigma, g.values.shape) \
        if sigma > 0 else g.values.copy()
    return Sinogram(xi=g.xi, eta=g.eta, values=values, noise_sigma=sigma,
                    provenance=dict(g.provenance, noise_seed=seed),
                    failed=g.failed)


def profile_errors(est: MeanProfile, ref: MeanProfile):
    """(L2, sup-on-|x|<=1/2) errors between two profiles on a shared grid."""
    if est.x.shape != ref.x.shape or not np.allclose(est.x, ref.x):
        raise ValueError("profiles live on different grids")
    diff = est.values - ref.values
    sp = CubicSpline(est.x, diff)
    t, w = gauss_nodes(200)
    l2 = float(np.sqrt(np.sum(w * sp(t) ** 2)))
    half = np.abs(est.x) <= 0.5
    sup = float(np.abs(diff[half]).max())
    return l2, sup


@dataclass
class StabilityReport:
    rows: list                     # dicts: sigma, H, N, l2, sup, bound
    alpha_hat: float
    fit: dict = field(default_factory=dict)


def stability_curve(
    clean: Sinogram,
    true_profile: MeanProfile,
    phi: TestFunction,
    noise_levels,
    eps: float,
    gamma: float,
    consts: BoundConstants,
    mode: str = "analytic",
    fam: Optional[KernelFamily] = None,
    seed: int = 0,
) -> StabilityReport:
    """Reconstruction error versus noise, with the estimate's bound per row
    and a fitted decay exponent ``alpha_hat`` in
    ``error ~ const * log(1/H)^(-alpha_hat)``."""
    noise_levels = sorted(noise_levels, reverse=True)
    if len(noise_levels) < 1:
        raise ValueError("need at least one noise level")
    rows = []
    for i, sigma in enumerate(noise_levels):
        g = with_noise(clean, sigma, seed + i)
        prof, N = reconstruct_mean(g, phi, eps, gamma, consts, mode=mode,
                                   fam=fam, x_grid=true_profile.x)
        H = max(data_norm(g, eps, gamma), H_FLOOR)
        l2, sup = profile_errors(prof, true_profile)
        rows.append({
            "sigma": sigma, "H": H, "N": N, "l2_error": l2,
            "sup_error_half": sup, "bound": mean_bound(H, consts, eps, mode),
        })
    rows.sort(key=lambda r: -r["H"])
    logs = np.log([math.log(1.0 / r["H"]) for r in rows])
    errs = np.log([max(r["l2_error"], 1e-300) for r in rows])
    if len(rows) >= 2 and np.ptp(logs) > 0:
        fit = linregress(logs, errs)
        alpha_hat = -float(fit.slope)
        diag = {"intercept": float(fit.intercept),
                "rvalue": float(fit.rvalue)}
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
    from .phantoms import oscillatory_phantom

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
