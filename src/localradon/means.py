"""Vertical-interval means: local averages of ``f`` (or ``f * m_gamma``)
over ``{y: |y - gamma| <= eps*|x|}`` against a dilated test function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.interpolate import CubicSpline

from .bumps import TestFunction
from .phantoms import PhantomSpec
from .weights import Weight, corrected_weight, gauss_nodes

__all__ = [
    "MeanProfile",
    "chebyshev_grid",
    "support_halfwidth",
    "mean_profile",
    "convergence_gap",
    "holder_check_of_mean",
]


# x-rows of the profile evaluated together; bounds the size of the
# (row, panel, node) arrays, and with them the weighted profile's memory
_ROW_BLOCK = 16


def chebyshev_grid(n: int = 257) -> np.ndarray:
    """Chebyshev--Lobatto points on [-1, 1], increasing; the sine form is
    exactly symmetric, with exact endpoints and an exact 0 for odd ``n``."""
    return np.sin(0.5 * np.pi * np.arange(1 - n, n, 2) / (n - 1))


def support_halfwidth(eps: float, gamma: float, c: float = 1.0) -> float:
    """Positive solution of ``c x^2 = eps x + gamma``; the mean vanishes beyond it."""
    return (eps + np.sqrt(eps * eps + 4.0 * c * gamma)) / (2.0 * c)


def effective_gamma(eps: float, gamma: float) -> float:
    """Auto-raise gamma to eps^2/4 (with a warning) when it is too small."""
    floor = eps * eps / 4.0
    if gamma < floor:
        warnings.warn(
            f"gamma={gamma} below eps^2/4={floor}; raising it", stacklevel=2
        )
        return floor
    return gamma


@dataclass
class MeanProfile:
    """Samples of a vertical-interval mean over an x-grid on [-1, 1]."""

    x: np.ndarray
    values: np.ndarray
    eps: float
    gamma: float
    weighted: bool = False
    test_function: str = ""

    def interpolant(self) -> CubicSpline:
        return CubicSpline(self.x, self.values)

    def l2_norm(self) -> float:
        t, w = gauss_nodes(200)
        sp = self.interpolant()
        return float(np.sqrt(np.sum(w * sp(t) ** 2)))


def mean_profile(
    f: PhantomSpec,
    m: Optional[Weight],
    phi: TestFunction,
    eps: float,
    gamma: float,
    x_grid=None,
) -> MeanProfile:
    """Compute ``M_{eps,gamma}[f]`` (or ``M_{eps,gamma}[f m_gamma]``).

    For ``x != 0`` this is the y-integral of
    ``f(x, y) [m_gamma(x, y)] phi_{eps|x|}(gamma - y)`` over
    ``|y - gamma| <= eps|x|``; at ``x = 0`` the defining point value.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    gamma = effective_gamma(eps, gamma)
    if x_grid is None:
        x_grid = chebyshev_grid()
    x_grid = np.asarray(x_grid, dtype=float)
    mg = corrected_weight(m, gamma) if m is not None else None
    t, w = gauss_nodes(14)
    u_edges = phi.panel_edges()
    values = np.empty(x_grid.size)
    at_zero = np.abs(x_grid) < 1e-13
    if np.any(at_zero):
        v = float(f(0.0, gamma))
        if mg is not None:
            v *= mg(0.0, gamma)
        values[at_zero] = v
    rows = np.flatnonzero(~at_zero)
    for start in range(0, rows.size, _ROW_BLOCK):
        block = rows[start:start + _ROW_BLOCK]
        x = x_grid[block][:, None]
        half_width = eps * np.abs(x)
        edges = gamma + half_width * u_edges
        lo, hi = edges[:, :-1], edges[:, 1:]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        ys = mid[..., None] + half[..., None] * t
        xs = np.broadcast_to(x[..., None], ys.shape)
        fy = np.asarray(f(xs, ys), dtype=float)
        if mg is not None:
            fy = fy * mg(xs, ys)
        hw = half_width[..., None]
        phy = phi((gamma - ys) / hw) / hw
        panels = half * np.sum(w * fy * phy, axis=-1)
        # cumsum adds the panels left to right, one at a time: the
        # summation order the frozen profile values were computed in
        values[block] = np.cumsum(panels, axis=1)[:, -1]
    prof = MeanProfile(
        x=x_grid, values=values, eps=eps, gamma=gamma,
        weighted=m is not None,
        test_function=f"{phi.kind}:{phi.param}",
    )
    xmax = support_halfwidth(eps, gamma, f.support_constant)
    outside = np.abs(x_grid) > xmax + 1e-12
    if np.any(np.abs(values[outside]) > 1e-10):
        raise AssertionError("mean leaks outside its support interval")
    return prof


def convergence_gap(
    f: PhantomSpec,
    m: Optional[Weight],
    phi: TestFunction,
    eps: float,
    gamma: float,
    x_grid=None,
):
    """Sup of ``|M(x) - f(x, gamma)[m_gamma]|`` and its ratio to
    ``C_0 (eps |x|)^alpha``; the ratio is at most one for honest Hölder data.
    """
    prof = mean_profile(f, m, phi, eps, gamma, x_grid=x_grid)
    gamma = prof.gamma
    mg = corrected_weight(m, gamma) if m is not None else None
    target = np.asarray(f(prof.x, np.full_like(prof.x, gamma)), dtype=float)
    if mg is not None:
        target = target * mg(prof.x, np.full_like(prof.x, gamma))
    gap = np.abs(prof.values - target)
    envelope = f.holder_bound * (eps * np.abs(prof.x)) ** f.holder_alpha
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(envelope > 0, gap / envelope, 0.0)
    return float(gap.max()), float(ratios.max())


def holder_check_of_mean(prof: MeanProfile, alpha: float, c0: float,
                         n_pairs: int = 10000, seed: int = 1) -> float:
    """Empirical Hölder quotient of the mean profile over random grid pairs.

    The profile of a ``C^{0,alpha}`` function stays below ``sqrt(2)*c0``.
    """
    rng = np.random.default_rng(seed)
    n = prof.x.size
    i = rng.integers(0, n, n_pairs)
    j = rng.integers(0, n, n_pairs)
    ok = i != j
    dx = np.abs(prof.x[i[ok]] - prof.x[j[ok]])
    dv = np.abs(prof.values[i[ok]] - prof.values[j[ok]])
    return float((dv / dx**alpha).max())
