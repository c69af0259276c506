"""Phantoms supported inside the parabola ``{y >= c*x**2}``.

Every phantom vanishes identically below the parabola; the smooth kinds
use an exponential cutoff so that the support constraint holds exactly
while staying C-infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np
from scipy.interpolate import RegularGridInterpolator

__all__ = [
    "PhantomSpec",
    "smooth_bump",
    "polynomial_times_bump",
    "tabulated_phantom",
    "oscillatory_phantom",
    "holder_seminorm_estimate",
    "lipschitz_bound",
]


@dataclass
class PhantomSpec:
    """An evaluable function ``f(x, y)`` supported in ``{y >= c*x**2}``.

    ``holder_alpha`` and ``holder_bound`` declare the a priori regularity
    ``|f(p) - f(q)| <= holder_bound * |p - q|**holder_alpha`` that the
    stability bounds consume.
    """

    kind: str
    center: tuple[float, float] = (0.0, 0.5)
    width: float = 0.3
    amplitude: float = 1.0
    support_constant: float = 1.0
    holder_alpha: float = 1.0
    holder_bound: float = 1.0
    oscillation: float = 0.0
    poly_coeffs: tuple[float, ...] = ()
    grid: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    _interp: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (
            "smooth-bump",
            "polynomial-times-bump",
            "oscillatory",
            "tabulated",
        ):
            raise ValueError(f"unknown phantom kind {self.kind!r}")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if not (0.0 < self.holder_alpha <= 1.0):
            raise ValueError("holder_alpha must lie in (0, 1]")
        if self.holder_bound <= 0:
            raise ValueError("holder_bound must be positive")
        if self.support_constant < 1.0:
            raise ValueError("support_constant must be >= 1")
        if self.kind == "tabulated":
            if self.grid is None:
                raise ValueError("tabulated phantom needs grid data")
            xs, ys, vals = self.grid
            object.__setattr__(
                self,
                "_interp",
                RegularGridInterpolator(
                    (xs, ys), vals, bounds_error=False, fill_value=0.0
                ),
            )

    # -- evaluation -------------------------------------------------------

    def _cutoff(self, x, y):
        """exp(-1/(y - c x^2)) above the parabola, 0 at or below it."""
        gap = y - self.support_constant * x * x
        out = np.zeros_like(gap, dtype=float)
        pos = gap > 0
        with np.errstate(over="ignore"):        # subnormal gaps: exp(-inf) = 0
            out[pos] = np.exp(-1.0 / gap[pos])
        return out

    def _bump(self, x, y):
        cx, cy = self.center
        r2 = ((x - cx) ** 2 + (y - cy) ** 2) / self.width**2
        out = np.zeros_like(r2, dtype=float)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out

    def _center_norm(self) -> float:
        cx, cy = self.center
        gap = cy - self.support_constant * cx * cx
        if gap <= 0:
            raise ValueError("phantom center lies outside the parabola")
        return float(np.exp(-1.0 / gap))

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        if self.kind == "smooth-bump":
            out = self.amplitude * self._bump(x, y) * self._cutoff(x, y)
            out /= self._center_norm()
        elif self.kind == "polynomial-times-bump":
            cx, cy = self.center
            poly = np.polynomial.polynomial.polyval2d(
                x - cx, y - cy, _poly_matrix(self.poly_coeffs)
            )
            out = self.amplitude * poly * self._bump(x, y) * self._cutoff(x, y)
            out /= self._center_norm()
        elif self.kind == "oscillatory":
            lam = self.oscillation
            base = replace(self, kind="smooth-bump", oscillation=0.0)
            out = base(x, y) * np.cos(lam * x) / lam
        else:  # tabulated
            out = np.asarray(self._interp(np.stack([x, y], axis=-1)),
                             dtype=float).reshape(x.shape)
            out = np.where(y >= self.support_constant * x * x, out, 0.0)
        return out if out.shape else float(out)

    # -- geometry helpers -------------------------------------------------

    def x_extent(self) -> float:
        """Half-width of the x-interval outside which the phantom vanishes."""
        if self.kind == "tabulated":
            xs = self.grid[0]
            return float(max(abs(xs[0]), abs(xs[-1])))
        return abs(self.center[0]) + self.width


def _poly_matrix(coeffs):
    # flat (i, j, c) triples -> coefficient matrix for polyval2d
    if not coeffs:
        return np.ones((1, 1))
    triples = np.asarray(coeffs, dtype=float).reshape(-1, 3)
    ni = int(triples[:, 0].max()) + 1
    nj = int(triples[:, 1].max()) + 1
    mat = np.zeros((ni, nj))
    for i, j, c in triples:
        mat[int(i), int(j)] = c
    return mat


def smooth_bump(
    center=(0.0, 0.5),
    width=0.3,
    amplitude=1.0,
    support_constant=1.0,
    holder_alpha=1.0,
    holder_bound=None,
) -> PhantomSpec:
    """Smooth bump phantom; ``holder_bound`` defaults to a dense-grid gradient bound."""
    p = PhantomSpec(
        kind="smooth-bump",
        center=center,
        width=width,
        amplitude=amplitude,
        support_constant=support_constant,
        holder_alpha=holder_alpha,
        holder_bound=1.0,
    )
    if holder_bound is None:
        holder_bound = lipschitz_bound(p)
    return replace(p, holder_bound=holder_bound)


def polynomial_times_bump(
    poly_coeffs,
    center=(0.0, 0.5),
    width=0.3,
    amplitude=1.0,
    support_constant=1.0,
    holder_alpha=1.0,
    holder_bound=None,
) -> PhantomSpec:
    p = PhantomSpec(
        kind="polynomial-times-bump",
        center=center,
        width=width,
        amplitude=amplitude,
        support_constant=support_constant,
        holder_alpha=holder_alpha,
        holder_bound=1.0,
        poly_coeffs=tuple(np.asarray(poly_coeffs, dtype=float).ravel()),
    )
    if holder_bound is None:
        holder_bound = lipschitz_bound(p)
    return replace(p, holder_bound=holder_bound)


def tabulated_phantom(
    xs, ys, values, support_constant=1.0, holder_alpha=1.0, holder_bound=1.0
) -> PhantomSpec:
    """Phantom from grid samples with bilinear interpolation.

    Hölder metadata cannot be inferred from samples and must be supplied.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    return PhantomSpec(
        kind="tabulated",
        center=(0.5 * (xs[0] + xs[-1]), 0.5 * (ys[0] + ys[-1])),
        width=max(xs[-1] - xs[0], ys[-1] - ys[0]),
        support_constant=support_constant,
        holder_alpha=holder_alpha,
        holder_bound=holder_bound,
        grid=(xs, ys, values),
    )


def oscillatory_phantom(q: PhantomSpec, lam: float) -> PhantomSpec:
    """The counterexample family ``f_lam(x, y) = q(x, y) * cos(lam*x) / lam``.

    The declared Hölder bound is the sup of ``q`` (a Lipschitz bound for
    the whole family, uniform in ``lam``).
    """
    if lam <= 0:
        raise ValueError("oscillation parameter must be positive")
    if q.kind != "smooth-bump":
        raise ValueError("oscillatory phantoms are built from smooth bumps")
    sup_q = _grid_sup(q)
    return replace(q, kind="oscillatory", oscillation=lam, holder_bound=sup_q,
                   holder_alpha=1.0)


def _grid_sup(p: PhantomSpec, n: int = 301) -> float:
    cx, cy = p.center
    xs = np.linspace(cx - p.width, cx + p.width, n)
    ys = np.linspace(cy - p.width, cy + p.width, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return float(np.abs(p(X, Y)).max())


def lipschitz_bound(p: PhantomSpec, n: int = 401, h: float = 1e-6) -> float:
    """Dense-grid bound on ``sup |grad f|`` (central differences), padded 5%."""
    cx, cy = p.center
    xs = np.linspace(cx - 1.2 * p.width, cx + 1.2 * p.width, n)
    ys = np.linspace(cy - 1.2 * p.width, cy + 1.2 * p.width, n)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    fx = (p(X + h, Y) - p(X - h, Y)) / (2 * h)
    fy = (p(X, Y + h) - p(X, Y - h)) / (2 * h)
    return 1.05 * float(np.sqrt(fx**2 + fy**2).max())


def holder_seminorm_estimate(
    p: PhantomSpec, alpha: float, budget: int, seed: int = 0
) -> float:
    """Empirical lower bound for the Hölder seminorm from random point pairs."""
    if budget < 2:
        raise ValueError("budget must be at least 2")
    rng = np.random.default_rng(seed)
    cx, cy = p.center
    w = 1.3 * p.width
    pts = rng.uniform(
        [cx - w, cy - w], [cx + w, cy + w], size=(2, budget, 2)
    )
    a, b = pts
    fa = np.asarray(p(a[:, 0], a[:, 1]))
    fb = np.asarray(p(b[:, 0], b[:, 1]))
    dist = np.linalg.norm(a - b, axis=1)
    ok = dist > 1e-12
    if not np.any(ok):
        return 0.0
    q = np.abs(fa[ok] - fb[ok]) / dist[ok] ** alpha
    return float(q.max())
