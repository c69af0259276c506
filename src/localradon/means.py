"""Vertical-interval means: local averages of ``f`` (or ``f * m_gamma``)
over ``{y: |y - gamma| <= eps*|x|}`` against a dilated test function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bumps import TestFunction
from .phantoms import PhantomSpec
from .weights import Weight, gauss_nodes, spline_matrix

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


@dataclass
class MeanProfile:
    """Samples of a vertical-interval mean over an x-grid on [-1, 1], and
    the test function the mean is taken against."""

    x: np.ndarray
    values: np.ndarray
    eps: float
    gamma: float
    test_function: Optional[TestFunction] = None

    def interpolant(self, x) -> np.ndarray:
        """The not-a-knot cubic spline through the samples, at ``x``."""
        return spline_matrix(self.x, x) @ self.values

    def l2_norm(self) -> float:
        t, w = gauss_nodes(200)
        return float(np.sqrt(np.sum(w * self.interpolant(t) ** 2)))


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
    Like the moments, it refuses ``gamma < eps^2/4``.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if gamma < eps * eps / 4.0 - 1e-12:
        raise ValueError("gamma must be at least eps^2/4")
    if x_grid is None:
        x_grid = chebyshev_grid()
    x_grid = np.asarray(x_grid, dtype=float)
    t, w = gauss_nodes(14)
    u_edges = phi.panel_edges()
    values = np.empty(x_grid.size)
    at_zero = np.abs(x_grid) < 1e-13
    if np.any(at_zero):
        v = float(f(0.0, gamma))
        if m is not None and v != 0:
            v *= m(0.0, 0.0, gamma)
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
        # f on every node, so the leak check below sees every row; the
        # weight and phi only where f is nonzero.  There each term is the
        # product it would be on every node; elsewhere it keeps f's zero
        terms = np.array(f(xs, ys), dtype=float)
        nz = terms != 0
        xn, yn = xs[nz], ys[nz]
        fm = terms[nz]
        if m is not None:
            # m_gamma(x, y) = m(x, (y - gamma)/x, gamma); no row has x = 0
            fm = fm * m(xn, (yn - gamma) / xn, gamma)
        hw = eps * np.abs(xn)
        terms[nz] = np.broadcast_to(w, ys.shape)[nz] * fm \
            * (phi((gamma - yn) / hw) / hw)
        panels = half * np.sum(terms, axis=-1)
        # cumsum adds the panels left to right, one at a time: the
        # summation order the frozen profile values were computed in
        values[block] = np.cumsum(panels, axis=1)[:, -1]
    prof = MeanProfile(x=x_grid, values=values, eps=eps, gamma=gamma,
                       test_function=phi)
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
    """Sup of ``|M(x) - f(x, gamma)[m_gamma]|`` and its ratio to the
    Lipschitz envelope ``C_0 eps |x|``; the ratio is at most one for an
    honest Lipschitz constant ``C_0``.
    """
    prof = mean_profile(f, m, phi, eps, gamma, x_grid=x_grid)
    target = np.array(f(prof.x, np.full_like(prof.x, gamma)), dtype=float)
    if m is not None:
        # on y = gamma, m_gamma(x, gamma) = m(x, 0, gamma) for every x;
        # the weight only where f is nonzero
        nz = target != 0
        target[nz] *= m(prof.x[nz], 0.0, gamma)
    gap = np.abs(prof.values - target)
    envelope = f.holder_bound * eps * np.abs(prof.x)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(envelope > 0, gap / envelope, 0.0)
    return float(gap.max()), float(ratios.max())


def holder_check_of_mean(prof: MeanProfile, alpha: float) -> float:
    """Empirical Hölder quotient of the mean profile, 10000 random pairs
    (seed 1).

    The profile of a ``C^{0,alpha}`` function with constant ``c0`` stays
    below ``sqrt(2)*c0``.
    """
    rng = np.random.default_rng(1)
    n = prof.x.size
    i = rng.integers(0, n, 10000)
    j = rng.integers(0, n, 10000)
    ok = i != j
    dx = np.abs(prof.x[i[ok]] - prof.x[j[ok]])
    dv = np.abs(prof.values[i[ok]] - prof.values[j[ok]])
    return float((dv / dx**alpha).max())
