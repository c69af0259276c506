"""The forward weighted Radon transform on the line family
``{(x, y): y = xi*x + eta}``, sinogram synthesis, and the identity checks
that tie moments of the data to moments of the function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
# numpy loads numpy.random lazily; importing it here keeps its 12-16 ms
# out of the first noise draw
from numpy.random import default_rng

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
    "with_noise",
    "add_noise",
    "check_adjoint",
    "check_moment_identity",
    "check_transport_identity",
    "fd_weights",
]


def __getattr__(name):
    # perfbench/spans.py still rebinds ``transform.integrate`` to count quad
    # calls; delete this once the benchmark stops (ROADMAP item 1)
    if name == "integrate":
        from scipy import integrate
        return integrate
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance."""


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
        grid = (self.xi.size, self.eta.size)
        for name, cells in (("values", self.values), ("failed", self.failed)):
            if cells is not None and np.shape(cells) != grid:
                raise ValueError(f"sinogram {name} have shape "
                                 f"{np.shape(cells)}, not the grid's {grid}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("sinogram contains non-finite values")


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
# relative margin past the bump's width (or the table's box) that a line
# must clear to skip quadrature: far above the rounding of its distance
# and of the nodes' coordinates
_MISS_MARGIN = 1e-9


def _chords(f: PhantomSpec, xi, eta):
    """x-intervals ``[lo, hi]`` where the lines y = xi x + eta meet
    {y >= c x^2} inside the phantom's x-extent; ``lo >= hi`` where a line
    misses it.

    A line is also empty (``hi = lo``) where it clearly misses the
    phantom: at least ``width * (1 + _MISS_MARGIN)`` from a bump's center,
    or, over its chord's part in a table's x-range, outside the table's
    y-range by ``_MISS_MARGIN * (|xi| ext + |eta| + width)``.  Every node
    of such a line lies outside the disc or the box by far more than
    rounding, so the phantom is exactly 0 there and the line's integral is
    the ``+0.0``, with error 0, that its panels would have summed to.
    """
    c = f.support_constant
    root = np.sqrt(np.maximum(xi * xi + 4.0 * c * eta, 0.0))
    ext = f.x_extent()
    lo = np.maximum((xi - root) / (2.0 * c), -ext)
    hi = np.minimum((xi + root) / (2.0 * c), ext)
    if f.grid is None:
        cx, cy = f.center
        reach = f.width * (1.0 + _MISS_MARGIN) * np.sqrt(1.0 + xi * xi)
        miss = np.abs(cy - xi * cx - eta) >= reach
    else:
        xs, ys, _ = f.grid
        # xi x at the ends of the line's chord within the box's x-range
        y = xi * np.stack([np.maximum(lo, xs[0]), np.minimum(hi, xs[-1])])
        tol = _MISS_MARGIN * (np.abs(xi) * ext + np.abs(eta) + f.width)
        miss = (y.max(0) + eta < ys[0] - tol) | (y.min(0) + eta > ys[-1] + tol)
    return lo, np.where(miss, lo, hi)


def _embedded_panels(integrand, a, b, line):
    """Values and error estimates of the panels ``[a, b]`` of lines
    ``line``, evaluating ``integrand`` on the nodes of _PANEL_BLOCK panels
    at a time to bound the memory of its temporaries."""
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
    # a constant Weight multiplies every node by its level (no node at
    # level 1), bit for bit the product on the nonzero nodes alone
    level = m.level if isinstance(m, Weight) and m.a is None else None

    def integrand(x, line):
        xl, el = xi[line], eta[line]
        v = f(x, xl * x + el)
        if k:
            v = x**k * v
        if level is not None:
            return v if level == 1.0 else v * level
        # any other weight only where x^k f is nonzero: the product is the
        # same there, and the same (signed) zero elsewhere
        nz = v != 0
        # the line of each nonzero node: x has one row per panel
        on = np.repeat(line[:, 0], np.count_nonzero(nz, axis=1))
        v[nz] *= m(x[nz], xi[on], eta[on])
        return v

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


def radon(f: PhantomSpec, m: Weight, xi: float, eta: float,
          tol: float = 1e-9) -> float:
    """Weighted line integral ``int f(x, xi x + eta) m(x, xi, eta) dx``."""
    return radon_moment(f, m, 0, xi, eta, tol)


def radon_moment(f: PhantomSpec, m: Weight, k: int, xi, eta,
                 tol: float = 1e-9):
    """``R_m[x^k f]`` on the lines of the broadcast ``(xi, eta)`` arrays (a
    float for scalar input); raises QuadratureError if a line failed."""
    values, errors, failed = _line_integrals(f, m, k, xi, eta, tol)
    if np.any(failed):
        worst = float(np.max(errors[failed]))
        raise QuadratureError(
            f"line quadrature reached error {worst:.2e} > tol {tol:.1e}")
    return values if values.shape else float(values)


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

    Cells where quadrature fails are set to zero and flagged.  The noise is
    ``add_noise``'s draw, so the result is ``with_noise`` of the clean one.
    """
    xi_grid = np.asarray(xi_grid, dtype=float)
    eta_grid = np.asarray(eta_grid, dtype=float)
    values, _, failed = _line_integrals(f, m, 0, xi_grid[:, None],
                                        eta_grid[None, :], tol)
    values[failed] = 0.0
    return Sinogram(
        xi=xi_grid, eta=eta_grid, values=add_noise(values, noise_sigma, seed),
        noise_sigma=noise_sigma,
        provenance={"phantom": f.kind, "weight": m.label, "seed": seed,
                    "noise_seed": seed},
        failed=failed if failed.any() else None,
    )


def with_noise(g: Sinogram, sigma: float, seed: int) -> Sinogram:
    """A copy of a clean sinogram with the noise of :func:`add_noise`."""
    return Sinogram(xi=g.xi, eta=g.eta,
                    values=add_noise(g.values, sigma, seed), noise_sigma=sigma,
                    provenance=dict(g.provenance, noise_seed=seed),
                    failed=g.failed)


def add_noise(values: np.ndarray, sigma: float, seed: int) -> np.ndarray:
    """``values`` plus the Gaussian noise ``default_rng(seed).normal(0,
    sigma, shape)`` (a copy when ``sigma`` is 0): the one seeded draw that
    synthesis, :func:`with_noise` and the sweeps share."""
    if sigma > 0:
        return values + default_rng(seed).normal(0.0, sigma, values.shape)
    return values.copy()


def check_adjoint(f: PhantomSpec, m: Weight, phi_xi, phi_eta,
                  xi_window, eta_window) -> float:
    """Residual ``|<R_m f, phi> - <f, R_m* phi>|`` for separable phi."""

    def window(lo, hi):
        nodes, weights = panel_rule([lo, hi], 32)
        return nodes[0], weights[0]

    xis, wx = window(*xi_window)
    etas, we = window(*eta_window)

    g = radon_moment(f, m, 0, xis[:, None], etas[None, :], 1e-10)
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


def fd_weights(k: int, n_points: int, h: float):
    """Central finite-difference stencil (offsets, weights) for d^k, order >= 2."""
    half = (n_points - 1) // 2
    offsets = np.arange(-half, half + 1)
    A = np.vander(offsets * h, n_points, increasing=True).T
    rhs = np.zeros(n_points)
    rhs[k] = math.factorial(k)
    wts = np.linalg.solve(A, rhs)
    return offsets * h, wts


def check_moment_identity(f: PhantomSpec, k: int, points) -> float:
    """Residual of ``H_k (*)_eta  d_xi^k R[f] = R[x^k f]`` for m = 1.

    The xi-derivative uses a dedicated fine stencil (step 1e-2), never the
    experiment grid; the eta-convolution is adaptive quadrature from the
    dual parabola up to eta; ``R[x^k f]`` is integrated to 1e-9.
    """
    from scipy import integrate         # the oracle alone needs scipy

    if k > 4:
        raise ValueError("finite-difference depth limited to k <= 4")
    m = constant_weight()
    fact = math.factorial(k - 1)
    offs, wts = fd_weights(k, 11, 1e-2)
    worst = 0.0
    for xi, eta in points:
        eta_lo = -(xi**2 + 2 * abs(xi) * 1.0) / (4 * f.support_constant) - 0.3
        lhs, _ = integrate.quad(
            lambda s: (eta - s) ** (k - 1) / fact
            * float(wts @ radon_moment(f, m, 0, xi + offs, s, 1e-10)),
            eta_lo, eta, epsabs=1e-8, epsrel=1e-8, limit=100,
        )
        rhs = radon_moment(f, m, k, xi, eta, 1e-9)
        worst = max(worst, abs(lhs - rhs))
    return worst


def check_transport_identity(f: PhantomSpec, m: Weight, a: AnalyticField,
                             b: AnalyticField, points) -> float:
    """Residual of ``D_b R_m[f] = D_a R_m[x f]``, i.e.

    ``|d_xi R_m[f] - b R_m[f] - d_eta R_m[x f] - a R_m[x f]|`` max over points,
    with 7-point stencils of step 1e-4.
    """
    offs, wts = fd_weights(1, 7, 1e-4)
    xi, eta = np.asarray(points, dtype=float).T[..., None]
    # one stencil along xi of R_m[f] and one along eta of R_m[x f]; their
    # centre lines (offset 0) are R_m[f] and R_m[x f] themselves
    g0 = radon_moment(f, m, 0, xi + offs, eta, 1e-10)
    g1 = radon_moment(f, m, 1, xi, eta + offs, 1e-10)
    centre = offs.size // 2
    av, bv = a(xi[:, 0], eta[:, 0]), b(xi[:, 0], eta[:, 0])
    residual = g0 @ wts - bv * g0[:, centre] - g1 @ wts - av * g1[:, centre]
    return float(np.max(np.abs(residual)))
