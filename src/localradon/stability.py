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
from .legendre import MOMENT_MAP_N_CAP, MomentVector, moments_to_coefficients
from .means import MeanProfile, chebyshev_grid, mean_profile
from .phantoms import PhantomSpec, oscillatory_phantom
from .transform import Sinogram, synthesize_sinogram, with_noise
from .weights import Weight, constant_weight, panel_rule

__all__ = [
    "BoundConstants",
    "StabilityReport",
    "Reconstruction",
    "A0",
    "H_FLOOR",
    "data_norm",
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
    """Constants entering the reconstruction estimates.

    ``c0``/``alpha`` are the phantom's Hölder data (``alpha`` in (0, 1], 1:
    Lipschitz), ``c_env`` the envelope constant C in the moment bound (set
    only by ``calibrate_constants``), and ``sigma`` the Gevrey index of the
    weight fields: None selects the analytic rule and bound, a value in
    ``(1, inf)`` the Gevrey ones.  ``M = 4 A0 c0``.
    """

    c0: float
    alpha: float = 1.0
    c_env: float = 2.0
    sigma: Optional[float] = None

    def __post_init__(self):
        # a NaN fails every comparison, so each value must pass one
        if not all(0 < v < math.inf for v in (self.c0, self.c_env)):
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
    _check_data(g, eps, gamma)
    # increasing and distinct, as the grid is; np.unique would import
    # numpy.ma, 35 ms of a process
    rows = np.concatenate([[-gamma], g.eta[np.abs(g.eta) < gamma], [gamma]])
    xs, ws = (a.ravel() for a in panel_rule(np.linspace(-eps, eps, 33), 10))
    return float((ws @ np.abs(g.interpolant(xs, rows))).max())


def _check_moment_inputs(g: Sinogram, phi: TestFunction, eps: float,
                         gamma: float, N: int):
    """The preconditions shared by both moment extractions."""
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


def _moments(g: Sinogram, phi: TestFunction, eps: float, gamma: float,
             N: int, fam: Optional[KernelFamily] = None) -> MomentVector:
    """``m_0 = int g(xi, gamma) phi_eps(xi) dxi`` and ``m_k = sum_j (-1)^j
    iint s_{j,k}(xi, gamma, eta) g(xi, eta) phi_eps^(j)(xi) deta dxi``.

    With ``fam`` None (a = b = 0) only ``s_{k,k} = (gamma - eta)^(k-1) /
    (k-1)!`` is nonzero, on the eta nodes; otherwise each nonzero ``S_{j,k}``
    gives the xi-Taylor coefficients ``c[d]`` of its top row on the family's
    grid, and the spline through them is read on the eta nodes.  Eta is
    contracted once, ``G = (g w_eta) I``; each term is then ``G c^T`` and a
    Horner step in xi."""
    _check_moment_inputs(g, phi, eps, gamma, N)
    if fam is not None and abs(fam.gamma - gamma) > 1e-12:
        raise ValueError("kernel family built for a different gamma")
    xi_n, xi_w = (a.ravel() for a in panel_rule(phi.panel_edges(eps), 10))
    eta_n, eta_w = (a.ravel()
                    for a in panel_rule(np.linspace(-gamma, gamma, 13), 8))
    G = g.interpolant(xi_n, eta_n) * eta_w          # (n_xi, n_eta)
    if fam is None:
        terms = [(k, k, (gamma - eta_n)[None] ** (k - 1)
                  / math.factorial(k - 1)) for k in range(1, N + 1)]
    else:
        S = {(j, k): fam[(j, k)] for k in range(1, N + 1)
             for j in range(k + 1)}
        terms = [(j, k, s.row(-1)) for (j, k), s in S.items()
                 if not s.is_zero()]
        G = G @ interpolation_matrix(fam.p.eta, eta_n)  # (n_xi, grid_n)
    moments = np.zeros(N + 1)
    row_g = g.interpolant(xi_n, [gamma])[:, 0]
    moments[0] = float(np.sum(xi_w * phi(xi_n / eps) / eps * row_g))
    phij = {}                                       # j -> phi_eps^(j) on xi_n
    for j, k, c in terms:
        if j not in phij:
            phij[j] = phi.derivative_values(xi_n / eps, j) / eps ** (j + 1)
        h = G @ c.T                                 # (n_xi, order + 1)
        sg = h[:, -1]
        for col in h[:, -2::-1].T:
            sg = sg * xi_n + col
        moments[k] += (-1) ** j * float(np.sum(xi_w * phij[j] * sg))
    return MomentVector(moments)


def moments_from_sinogram_unweighted(
    g: Sinogram, phi: TestFunction, eps: float, gamma: float, N: int,
) -> MomentVector:
    """Moments of the mean profile directly from data: the a = b = 0 case,
    ``m_k = (-1)^k iint (gamma - eta)^(k-1)/(k-1)! g(xi, eta)
    phi_eps^(k)(xi) deta dxi``, since only ``S_{k,k}`` is nonzero."""
    return _moments(g, phi, eps, gamma, N)


def moments_from_sinogram_weighted(
    g: Sinogram, fam: KernelFamily, phi: TestFunction, eps: float,
    gamma: float, N: int,
) -> MomentVector:
    """Weighted moments ``m_k = sum_j (-1)^j int (S_{j,k} g)(xi, gamma)
    d_xi^j phi_eps(xi) dxi``, from the top rows of the family (which may
    hold that row alone); degenerates to the unweighted formula when
    a = b = 0."""
    return _moments(g, phi, eps, gamma, N, fam)


def truncation_order(H: float, consts: BoundConstants, eps: float) -> int:
    """The estimate-optimal Legendre cutoff.

    Analytic rule (``consts.sigma`` None): largest N with ``N <= (log(M/H)
    - log(C/eps)) / log(C/eps)``.  Gevrey rule (``sigma > 1``): ``N =
    floor(y / log y)`` with ``y = log(M/H) / log(C/eps)``.
    """
    M = consts.M
    if H >= M:
        raise ValueError("data too noisy for method (H >= M)")
    if H <= 0:
        raise ValueError("H must be positive (floor zero data first)")
    ce = consts.c_env / eps
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


def mean_bound(H: float, consts: BoundConstants, eps: float) -> float:
    """The reconstruction error bound for the mean profile."""
    M = consts.M
    ce = consts.c_env / eps
    t = math.log(M / H)
    if consts.sigma is None:
        return 4.0 * M * (math.log(ce) / t) ** consts.alpha
    return 4.0 * M * (math.log(ce) * math.log(t) / t) ** consts.alpha


def slice_bound(H: float, consts: BoundConstants) -> float:
    """Explicit slice-estimate bound (mean bound at the selected eps plus
    the mean-to-slice convergence term)."""
    M = consts.M
    t = math.log(M / H)
    llt = math.log(t)
    if consts.sigma is None:
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


@dataclass
class Reconstruction:
    """One estimate: the profile, the truncation order ``N``, the data norm
    ``H`` (floored at ``H_FLOOR``) that chose it, and the error bound."""
    profile: MeanProfile
    N: int
    H: float
    bound: float


def reconstruct_mean(
    g: Sinogram,
    phi: TestFunction,
    eps: float,
    gamma: float,
    consts: BoundConstants,
    fam: Optional[KernelFamily] = None,
) -> Reconstruction:
    """Estimate the mean profile from data alone.

    Pipeline: data norm H, truncation order N, moments from the sinogram,
    exact moment-to-Legendre map, truncated series, and the mean bound at
    H.  Zero data yields N = 0 and the zero profile exactly.  Moments over
    the envelope ``consts.c_env`` (``moment_bound_audit``) are refused.
    """
    x_grid = chebyshev_grid()
    H_raw = data_norm(g, eps, gamma)
    H = max(H_raw, H_FLOOR)
    N, values = 0, np.zeros(x_grid.size)
    if H_raw > 0.0:
        N = min(truncation_order(H, consts, eps),
                order_cap(phi, fam is not None))
        if phi.kind == "hormander" and phi.param != N:
            # the mollified-hat index is tied to the truncation order
            phi = hormander_sequence(max(N, 1))
        moments = (moments_from_sinogram_unweighted(g, phi, eps, gamma, N)
                   if fam is None else
                   moments_from_sinogram_weighted(g, fam, phi, eps, gamma, N))
        fitted = moment_bound_audit(moments, H, eps, consts)
        if fitted > consts.c_env:
            raise ValueError(
                f"moments exceed their envelope: fitted C {fitted:.4g} > "
                f"c_env {consts.c_env:.4g}")
        values = np.asarray(moments_to_coefficients(moments)(x_grid),
                            dtype=float)
    prof = MeanProfile(x=x_grid, values=values, eps=eps, gamma=gamma,
                       test_function=phi)
    return Reconstruction(prof, N, H, mean_bound(H, consts, eps))


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
    return replace(rec, bound=slice_bound(rec.H, consts))


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


def calibrate_constants(phi: TestFunction, eps: float, gamma: float, N: int,
                        consts: BoundConstants) -> BoundConstants:
    """The envelope constant the moment-bound proof needs, ``sqrt(2) C_phi
    max(2 gamma, 1)`` with ``C_phi`` certified on every call at order
    ``min(N, derivative_order_max)`` (the sqrt(2) absorbs ``k <=
    sqrt(2)^(k+1)``), floored at ``e * eps`` to keep ``log(C/eps)``
    positive.  It reads no data.  The floor is a proof for ``a = b = 0``,
    for any data; weighted moments also carry ``S_{j,k}`` terms it leaves
    out, so a weighted run relies on ``reconstruct_mean``'s envelope check.
    """
    C_phi = verify_derivative_bounds(phi, min(N, phi.derivative_order_max))
    floor = math.sqrt(2.0) * C_phi * max(2 * gamma, 1.0)
    return replace(consts, c_env=max(floor, math.e * eps))


def profile_errors(est: MeanProfile, ref: MeanProfile):
    """(L2, sup-on-|x|<=1/2) errors between two profiles on a shared grid."""
    if est.x.shape != ref.x.shape or not np.allclose(est.x, ref.x):
        raise ValueError("profiles live on different grids")
    diff = est.values - ref.values
    l2 = replace(est, values=diff).l2_norm()
    half = np.abs(est.x) <= 0.5
    sup = float(np.abs(diff[half]).max())
    return l2, sup


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
    m: Optional[Weight],
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
    log(1/H)^(-alpha_hat)``.  Each row's truth is the mean of ``f`` (times
    ``m`` unless None) under the test function its reconstruction used."""
    noise_levels = sorted(noise_levels, reverse=True)
    if len(noise_levels) < 1:
        raise ValueError("need at least one noise level")
    rows, truths = [], {}
    for i, sigma in enumerate(noise_levels):
        rec = reconstruct_mean(with_noise(clean, sigma, seed + i), phi, eps,
                               gamma, consts, fam=fam)
        used = rec.profile.test_function
        key = (used.kind, used.param)
        if key not in truths:
            truths[key] = mean_profile(f, m, used, eps, gamma,
                                       x_grid=rec.profile.x)
        l2, sup = profile_errors(rec.profile, truths[key])
        rows.append({"sigma": sigma, "H": rec.H, "N": rec.N, "l2_error": l2,
                     "sup_error_half": sup, "bound": rec.bound})
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
