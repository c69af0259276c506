"""Phantoms supported inside the parabola ``{y >= c*x**2}``.

A phantom is one smooth bump, ``amplitude * bump * cutoff / center_norm``,
optionally times a polynomial in ``(x - cx, y - cy)`` and times
``cos(oscillation*x)/oscillation``, or bilinear interpolation of tabulated
samples.  Every phantom vanishes identically below the parabola; the bump
uses an exponential cutoff so that the support constraint holds exactly
while staying C-infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval2d

__all__ = [
    "PhantomSpec",
    "smooth_bump",
    "tabulated_phantom",
    "oscillatory_phantom",
    "holder_seminorm_estimate",
    "lipschitz_bound",
]


@dataclass
class PhantomSpec:
    """An evaluable function ``f(x, y)`` supported in ``{y >= c*x**2}``.

    With ``grid`` set the phantom interpolates the samples ``(xs, ys,
    values)``; otherwise it is the bump, times the polynomial with flat
    ``(i, j, c)`` triples ``poly_coeffs`` when these are given, times
    ``cos(oscillation*x)/oscillation`` when ``oscillation > 0``.
    """

    center: tuple[float, float] = (0.0, 0.5)
    width: float = 0.3
    amplitude: float = 1.0
    support_constant: float = 1.0
    oscillation: float = 0.0
    poly_coeffs: tuple[float, ...] = ()
    grid: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    _interp: object = field(init=False, default=None, repr=False,
                            compare=False)
    _poly: Optional[np.ndarray] = field(init=False, default=None, repr=False,
                                        compare=False)

    def __post_init__(self):
        for name in ("center", "width", "amplitude", "support_constant",
                     "oscillation", "poly_coeffs"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.support_constant < 1.0:
            raise ValueError("support_constant must be >= 1")
        if self.oscillation < 0:
            raise ValueError("oscillation must be >= 0")
        if self.poly_coeffs:
            self._poly = _poly_matrix(self.poly_coeffs)
        if self.grid is not None:
            # only a tabulated phantom pays for scipy.interpolate's import
            from scipy.interpolate import RegularGridInterpolator

            xs, ys, vals = self.grid
            self._interp = RegularGridInterpolator(
                (xs, ys), vals, bounds_error=False, fill_value=0.0
            )

    @property
    def kind(self) -> str:
        """The label of the first factor set: grid, oscillation, polynomial."""
        if self.grid is not None:
            return "tabulated"
        if self.oscillation > 0:
            return "oscillatory"
        return "polynomial-times-bump" if self.poly_coeffs else "smooth-bump"

    @cached_property
    def holder_bound(self) -> float:
        """The Lipschitz constant ``c0`` of ``f``, ``lipschitz_bound``,
        computed when first read; a tabulated phantom has none (a declared
        ``c0`` goes to ``BoundConstants``)."""
        return lipschitz_bound(self)

    # -- evaluation -------------------------------------------------------

    def _envelope(self, x, y):
        """``(bump, cutoff)``: ``exp(1 - 1/s)`` with ``s = 1 - r^2`` and
        ``exp(-1/gap)`` with ``gap = y - c x^2``, both taken only where
        ``s > 0`` and ``gap > 0`` and 0 elsewhere, where their product is 0
        anyway."""
        cx, cy = self.center
        s = 1.0 - ((x - cx) ** 2 + (y - cy) ** 2) / self.width**2
        gap = y - self.support_constant * x * x
        bump, cutoff = np.zeros_like(s), np.zeros_like(gap)
        on = (s > 0) & (gap > 0)
        bump[on] = np.exp(1.0 - 1.0 / s[on])
        with np.errstate(over="ignore"):        # subnormal gaps: exp(-inf) = 0
            cutoff[on] = np.exp(-1.0 / gap[on])
        return bump, cutoff

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
        if self.grid is not None:
            out = np.asarray(self._interp(np.stack([x, y], axis=-1)),
                             dtype=float).reshape(x.shape)
            out = np.where(y >= self.support_constant * x * x, out, 0.0)
        else:
            scale = self.amplitude
            if self._poly is not None:
                cx, cy = self.center
                scale = scale * polyval2d(x - cx, y - cy, self._poly)
            bump, cutoff = self._envelope(x, y)
            out = scale * bump * cutoff
            out /= self._center_norm()
            if self.oscillation > 0:
                out = out * np.cos(self.oscillation * x) / self.oscillation
        return out if out.shape else float(out)

    # -- geometry helpers -------------------------------------------------

    def x_extent(self) -> float:
        """Half-width of the x-interval outside which the phantom vanishes."""
        if self.grid is not None:
            xs = self.grid[0]
            return float(max(abs(xs[0]), abs(xs[-1])))
        return abs(self.center[0]) + self.width


def _poly_matrix(coeffs):
    """Flat ``(i, j, c)`` triples as the coefficient matrix of ``polyval2d``;
    an exponent that is not a nonnegative integer is refused."""
    triples = np.asarray(coeffs, dtype=float).reshape(-1, 3)
    powers = triples[:, :2]
    if not np.all((powers >= 0) & (powers == np.round(powers))):
        raise ValueError("poly_coeffs exponents must be nonnegative integers")
    powers = powers.astype(int)
    mat = np.zeros(tuple(powers.max(axis=0) + 1))
    for (i, j), c in zip(powers, triples[:, 2]):
        mat[i, j] = c
    return mat


def smooth_bump(
    center=(0.0, 0.5),
    width=0.3,
    amplitude=1.0,
    support_constant=1.0,
    poly_coeffs=(),
) -> PhantomSpec:
    """Smooth bump phantom, times the polynomial with ``(i, j, c)`` triples
    ``poly_coeffs`` (``c (x - cx)^i (y - cy)^j`` terms) when given."""
    return PhantomSpec(
        center=center,
        width=width,
        amplitude=amplitude,
        support_constant=support_constant,
        poly_coeffs=tuple(np.asarray(poly_coeffs, dtype=float).ravel()),
    )


def tabulated_phantom(xs, ys, values, support_constant=1.0) -> PhantomSpec:
    """Phantom from grid samples with bilinear interpolation.

    Its Lipschitz constant cannot be inferred from samples: reading
    ``PhantomSpec.holder_bound`` raises.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = np.asarray(values, dtype=float)
    return PhantomSpec(
        center=(0.5 * (xs[0] + xs[-1]), 0.5 * (ys[0] + ys[-1])),
        width=max(xs[-1] - xs[0], ys[-1] - ys[0]),
        support_constant=support_constant,
        grid=(xs, ys, values),
    )


def oscillatory_phantom(q: PhantomSpec, lam: float) -> PhantomSpec:
    """The counterexample family ``f_lam(x, y) = q(x, y) cos(lam x) / lam``."""
    if lam <= 0:
        raise ValueError("oscillation parameter must be positive")
    if q.kind != "smooth-bump":
        raise ValueError("oscillatory phantoms are built from smooth bumps")
    return replace(q, oscillation=lam)


def lipschitz_bound(p: PhantomSpec) -> float:
    """``max |grad f|`` over a 401 x 401 grid on the square ``center +- 1.2
    width``, padded 5%.

    The gradient is the exact one of the phantom's formula.  With ``E`` the
    bump times the cutoff, ``grad log E = -grad r^2 / (1 - r^2)^2 + grad gap
    / gap^2``, ``gap = y - c x^2``; it is formed only where ``E`` is not 0,
    since ``f`` is flat to every order at the edge of its support.  For
    ``f = q cos(lam x) / lam`` it is the pointwise bound ``|grad q| / lam +
    |q|``, which does not depend on the phase of the cosine.
    """
    if p.grid is not None:
        raise ValueError("no gradient formula for a tabulated phantom")
    cx, cy = p.center
    xs = np.linspace(cx - 1.2 * p.width, cx + 1.2 * p.width, 401)
    ys = np.linspace(cy - 1.2 * p.width, cy + 1.2 * p.width, 401)
    u, v, w2 = xs - cx, ys - cy, p.width**2
    s = 1.0 - (u[:, None] ** 2 + v**2) / w2
    gap = ys - p.support_constant * xs[:, None] ** 2
    i, j = np.nonzero((s > 0) & (gap > 0))
    x, u, v, s, gap = xs[i], u[i], v[j], s[i, j], gap[i, j]
    with np.errstate(over="ignore"):        # subnormal gaps: exp(-inf) = 0
        e = np.exp(1.0 - 1.0 / s - 1.0 / gap)
    nz = e > 0                              # and 1/gap^2 would be inf
    x, u, v, s, gap = x[nz], u[nz], v[nz], s[nz], gap[nz]
    f = p.amplitude / p._center_norm() * e[nz]
    dr, dgap = -2.0 / (w2 * s * s), 1.0 / (gap * gap)
    fx = f * (dr * u - 2.0 * p.support_constant * x * dgap)
    fy = f * (dr * v + dgap)
    if p._poly is not None:
        poly = polyval2d(u, v, p._poly)
        fx = poly * fx + f * polyval2d(u, v, polyder(p._poly, axis=0))
        fy = poly * fy + f * polyval2d(u, v, polyder(p._poly, axis=1))
        f = poly * f
    g2 = fx**2 + fy**2
    if p.oscillation > 0:
        g = np.sqrt(g2) / p.oscillation + np.abs(f)
        return 1.05 * float(g.max(initial=0.0))
    return 1.05 * float(np.sqrt(g2.max(initial=0.0)))


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
