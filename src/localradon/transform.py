"""Forward and dual weighted Radon transforms on the line family
``{(x, y): y = xi*x + eta}``, sinogram synthesis, and the identity checks
that tie moments of the data to moments of the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import integrate
from scipy.interpolate import RectBivariateSpline

from .phantoms import PhantomSpec
from .weights import (
    AnalyticField,
    Weight,
    constant_weight,
    gauss_nodes,
    panel_rule,
)

__all__ = [
    "QuadratureError",
    "Sinogram",
    "radon",
    "radon_moment",
    "synthesize_sinogram",
    "dual_radon",
    "check_adjoint",
    "heaviside_convolution",
    "check_moment_identity",
    "check_transport_identity",
    "fd_weights",
]


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


@dataclass
class Sinogram:
    """Grid samples of ``R_m[f]`` on a (xi, eta) rectangle."""

    xi: np.ndarray
    eta: np.ndarray
    values: np.ndarray                   # shape (n_xi, n_eta)
    noise_sigma: float = 0.0
    provenance: dict = field(default_factory=dict)
    failed: Optional[np.ndarray] = None  # per-cell quadrature failures

    def __post_init__(self):
        self.xi = np.asarray(self.xi, dtype=float)
        self.eta = np.asarray(self.eta, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.xi) <= 0) or np.any(np.diff(self.eta) <= 0):
            raise ValueError("sinogram grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sinogram contains non-finite values")

    def interpolant(self) -> RectBivariateSpline:
        """Bicubic spline (lower degree along an axis of fewer points)."""
        return RectBivariateSpline(self.xi, self.eta, self.values,
                                   kx=min(3, len(self.xi) - 1),
                                   ky=min(3, len(self.eta) - 1))

    def row(self, eta_value: float) -> np.ndarray:
        """Values ``g(xi_grid, eta_value)`` by spline interpolation."""
        sp = self.interpolant()
        return sp(self.xi, [eta_value])[:, 0]


# The line-integral engine: every chord starts as _START_PANELS equal
# panels.  Each panel carries the embedded pair of Gauss rules with
# _NODES and 2*_NODES nodes; the finer value is kept and the difference
# of the two is the panel's error estimate.  A line whose panels number
# _MAX_PANELS or more before it converges fails.  Eight panels of 15
# nodes resolve the phantoms' bump scale, below which an embedded
# estimate can undershoot the error.
_NODES = 15
_START_PANELS = 8
_MAX_PANELS = 512
_PANEL_BLOCK = 64


def _chords(f: PhantomSpec, xi, eta):
    """x-intervals ``[lo, hi]`` where the lines y = xi x + eta meet
    {y >= c x^2} inside the phantom's x-extent; ``lo >= hi`` where a line
    misses it."""
    c = f.support_constant
    root = np.sqrt(np.maximum(xi * xi + 4.0 * c * eta, 0.0))
    ext = f.x_extent()
    return (np.maximum((xi - root) / (2.0 * c), -ext),
            np.minimum((xi + root) / (2.0 * c), ext))


def _embedded_panels(integrand, a, b, line):
    """Values and error estimates of the panels ``[a, b]`` of lines
    ``line``, evaluating ``integrand`` on the nodes of _PANEL_BLOCK panels
    at a time to bound the memory of the weight's own quadrature."""
    t1, w1 = gauss_nodes(_NODES)
    t2, w2 = gauss_nodes(2 * _NODES)
    t = np.concatenate([t1, t2])
    fine, est = np.empty(a.size), np.empty(a.size)
    for start in range(0, a.size, _PANEL_BLOCK):
        blk = slice(start, start + _PANEL_BLOCK)
        mid, half = 0.5 * (a[blk] + b[blk]), 0.5 * (b[blk] - a[blk])
        v = integrand(mid[:, None] + half[:, None] * t, line[blk, None])
        coarse = half * np.sum(w1 * v[:, :_NODES], axis=1)
        fine[blk] = half * np.sum(w2 * v[:, _NODES:], axis=1)
        est[blk] = np.abs(fine[blk] - coarse)
    return fine, est


def _line_integrals(f: PhantomSpec, m: Weight, k: int, xi, eta, tol: float):
    """``R_m[x^k f]`` on every line of the broadcast ``(xi, eta)`` arrays.

    All lines refine together: each round evaluates the phantom and the
    weight once, on the new panels of every unconverged line.  A line
    converges when its summed error estimate is at most
    ``max(tol, tol*|value|)``; until then, each of its panels whose
    estimate exceeds its length-proportional share of that limit is
    bisected.  Returns ``(values, errors, failed)``; a failed line holds
    its last value.
    """
    if k < 0:
        raise ValueError("moment order must be nonnegative")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    xi, eta = np.broadcast_arrays(np.asarray(xi, dtype=float),
                                  np.asarray(eta, dtype=float))
    shape = xi.shape
    xi, eta = xi.ravel(), eta.ravel()
    lo, hi = _chords(f, xi, eta)
    n = xi.size
    values, errors = np.zeros(n), np.zeros(n)
    failed = np.zeros(n, dtype=bool)

    def integrand(x, line):
        xl, el = xi[line], eta[line]
        return x**k * f(x, xl * x + el) * m(x, xl, el)

    live = np.flatnonzero(lo < hi)
    line = np.repeat(live, _START_PANELS)
    j = np.tile(np.arange(_START_PANELS), live.size)
    length = (hi - lo)[line]
    a = lo[line] + length * j / _START_PANELS
    b = lo[line] + length * (j + 1) / _START_PANELS
    val, est = _embedded_panels(integrand, a, b, line)
    while True:
        total = np.bincount(line, val, n)
        error = np.bincount(line, est, n)
        limit = np.maximum(tol, tol * np.abs(total))
        done = error <= limit
        count = np.bincount(line, minlength=n)
        stop = (count > 0) & (done | (count >= _MAX_PANELS))
        values[stop] = total[stop]
        errors[stop] = error[stop]
        failed[stop] = ~done[stop]
        keep = ~stop[line]
        if not keep.any():
            break
        share = limit[line] * (b - a) / (hi - lo)[line]
        split = keep & ~(est <= share)
        # rounding can leave an unconverged line with no panel over its
        # share; bisect all of its panels
        split |= keep & (np.bincount(line[split], minlength=n) == 0)[line]
        rest = keep & ~split
        mid = 0.5 * (a + b)
        new_a = np.concatenate([a[split], mid[split]])
        new_b = np.concatenate([mid[split], b[split]])
        new_line = np.tile(line[split], 2)
        new_val, new_est = _embedded_panels(integrand, new_a, new_b,
                                            new_line)
        line = np.concatenate([line[rest], new_line])
        a = np.concatenate([a[rest], new_a])
        b = np.concatenate([b[rest], new_b])
        val = np.concatenate([val[rest], new_val])
        est = np.concatenate([est[rest], new_est])
    return values.reshape(shape), errors.reshape(shape), failed.reshape(shape)


def _checked_line_integrals(f, m, k, xi, eta, tol):
    """``_line_integrals`` values; raises QuadratureError if a line failed."""
    values, errors, failed = _line_integrals(f, m, k, xi, eta, tol)
    if np.any(failed):
        worst = float(np.max(errors[failed]))
        raise QuadratureError(
            f"line quadrature reached error {worst:.2e} > tol {tol:.1e}",
            achieved=worst,
        )
    return values


def radon(f: PhantomSpec, m: Weight, xi: float, eta: float,
          tol: float = 1e-9) -> float:
    """Weighted line integral ``int f(x, xi x + eta) m(x, xi, eta) dx``."""
    return radon_moment(f, m, 0, xi, eta, tol)


def radon_moment(f: PhantomSpec, m: Weight, k: int, xi: float, eta: float,
                 tol: float = 1e-9) -> float:
    """``R_m[x^k f](xi, eta)`` by adaptive quadrature along the chord."""
    return float(_checked_line_integrals(f, m, k, xi, eta, tol))


def synthesize_sinogram(
    f: PhantomSpec,
    m: Weight,
    xi_grid,
    eta_grid,
    noise_sigma: float = 0.0,
    seed: int = 0,
    tol: float = 1e-9,
) -> Sinogram:
    """Sample ``R_m[f]`` on the grid, optionally adding seeded Gaussian noise.

    Cells where quadrature fails are set to zero and flagged.
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    eta_grid = np.asarray(eta_grid, dtype=float)
    values, _, failed = _line_integrals(f, m, 0, xi_grid[:, None],
                                        eta_grid[None, :], tol)
    values[failed] = 0.0
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, values.shape)
    return Sinogram(
        xi=xi_grid, eta=eta_grid, values=values, noise_sigma=noise_sigma,
        provenance={"phantom": f.kind, "weight": m.label, "seed": seed},
        failed=failed if failed.any() else None,
    )


def dual_radon(g: Sinogram, m: Weight, x: float, y: float) -> float:
    """``int g(xi, y - xi x) m(x, xi, y - xi x) dxi`` over the grid's xi window."""
    xi_lo, xi_hi = g.xi[0], g.xi[-1]
    eta_need_lo = min(y - xi_lo * x, y - xi_hi * x)
    eta_need_hi = max(y - xi_lo * x, y - xi_hi * x)
    if eta_need_lo < g.eta[0] - 1e-12 or eta_need_hi > g.eta[-1] + 1e-12:
        raise ValueError("integration window leaves the sinogram grid")
    sp = g.interpolant()
    xis, w = panel_rule([xi_lo, xi_hi], 64)
    etas = y - xis * x
    gv = sp(xis, etas, grid=False)
    mv = m(x, xis, etas)
    return float(np.sum(w * gv * mv))


def check_adjoint(f: PhantomSpec, m: Weight, phi_xi, phi_eta,
                  xi_window, eta_window, n_nodes: int = 48) -> float:
    """Residual ``|<R_m f, phi> - <f, R_m* phi>|`` for separable phi."""

    def window(lo, hi):
        nodes, weights = panel_rule([lo, hi], n_nodes)
        return nodes[0], weights[0]

    xis, wx = window(*xi_window)
    etas, we = window(*eta_window)

    g = _checked_line_integrals(f, m, 0, xis[:, None], etas[None, :], 1e-10)
    px = wx * phi_xi(xis)
    lhs = float(np.sum(np.outer(px, we * phi_eta(etas)) * g))

    # <f, R_m* phi>: integrate over the phantom's bounding box
    cx, cy = f.center
    xs, wxs = window(cx - f.width, cx + f.width)
    ys, wys = window(cy - f.width, cy + f.width)
    rhs = 0.0
    for x, wxv in zip(xs, wxs):
        for y, wyv in zip(ys, wys):
            fv = float(f(x, y))
            if fv == 0.0:
                continue
            line_etas = y - xis * x
            inner = np.sum(px * phi_eta(line_etas) * m(x, xis, line_etas))
            rhs += wxv * wyv * fv * inner
    return abs(lhs - rhs)


def heaviside_convolution(g: Sinogram, k: int, xi: float, eta: float) -> float:
    """``int_{eta_min}^{eta} (eta - s)^(k-1)/(k-1)! * g(xi, s) ds`` on the grid."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if eta < g.eta[0] - 1e-12 or eta > g.eta[-1] + 1e-12:
        raise ValueError("eta outside the sinogram grid")
    sp = g.interpolant()
    s, w = panel_rule(np.append(g.eta[g.eta < eta], eta), 6)
    gv = sp(np.full_like(s, xi), s, grid=False)
    fact = math.factorial(k - 1)
    return float(np.sum(w * (eta - s) ** (k - 1) / fact * gv))


def fd_weights(k: int, n_points: int, h: float):
    """Central finite-difference stencil (offsets, weights) for d^k, order >= 2."""
    half = (n_points - 1) // 2
    offsets = np.arange(-half, half + 1)
    A = np.vander(offsets * h, n_points, increasing=True).T
    rhs = np.zeros(n_points)
    rhs[k] = math.factorial(k)
    wts = np.linalg.solve(A, rhs)
    return offsets * h, wts


def _dxi_k_radon(f, m, k, xi, eta, h, n_points=11, tol=1e-10):
    offs, wts = fd_weights(k, n_points, h)
    return sum(
        wt * radon(f, m, xi + off, eta, tol) for off, wt in zip(offs, wts)
    )


def check_moment_identity(f: PhantomSpec, k: int, points,
                          h: float = 1e-2, tol: float = 1e-9) -> float:
    """Residual of ``H_k (*)_eta  d_xi^k R[f] = R[x^k f]`` for m = 1.

    The xi-derivative uses a dedicated fine stencil, never the experiment
    grid; the eta-convolution is adaptive quadrature from the dual
    parabola up to eta.
    """
    if k > 4:
        raise ValueError("finite-difference depth limited to k <= 4")
    m = constant_weight()
    fact = math.factorial(k - 1)
    worst = 0.0
    for xi, eta in points:
        eta_lo = -(xi**2 + 2 * abs(xi) * 1.0) / (4 * f.support_constant) - 0.3
        lhs, _ = integrate.quad(
            lambda s: (eta - s) ** (k - 1) / fact
            * _dxi_k_radon(f, m, k, xi, s, h),
            eta_lo, eta, epsabs=1e-8, epsrel=1e-8, limit=100,
        )
        rhs = radon_moment(f, m, k, xi, eta, tol)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_transport_identity(f: PhantomSpec, m: Weight, a: AnalyticField,
                             b: AnalyticField, points, h: float = 1e-4) -> float:
    """Residual of ``D_b R_m[f] = D_a R_m[x f]``, i.e.

    ``|d_xi R_m[f] - b R_m[f] - d_eta R_m[x f] - a R_m[x f]|`` max over points.
    """
    worst = 0.0
    for xi, eta in points:
        offs, wts = fd_weights(1, 7, h)
        d_xi = sum(w * radon(f, m, xi + o, eta, 1e-10) for o, w in zip(offs, wts))
        d_eta = sum(
            w * radon_moment(f, m, 1, xi, eta + o, 1e-10)
            for o, w in zip(offs, wts)
        )
        g0 = radon(f, m, xi, eta, 1e-10)
        g1 = radon_moment(f, m, 1, xi, eta, 1e-10)
        av = float(a.value(xi, eta))
        bv = float(b.value(xi, eta))
        worst = max(worst, abs(d_xi - bv * g0 - d_eta - av * g1))
    return worst
