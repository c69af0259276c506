"""Phantoms supported inside the parabola ``{y >= c*x**2}``.

A phantom is one smooth bump, ``amplitude * bump * cutoff / center_norm``,
optionally times a polynomial in ``(x - cx, y - cy)`` and times
``cos(oscillation*x)/oscillation``, or bilinear interpolation of tabulated
samples, in numpy, which is 0 outside the table's box.  Every phantom
vanishes identically below the parabola; the bump uses an exponential
cutoff so that the support constraint holds exactly while staying
C-infinity.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np
from numpy.polynomial.polynomial import polyder, polygrid2d, polyval2d

__all__ = [
    "PhantomSpec",
    "smooth_bump",
    "tabulated_phantom",
    "oscillatory_phantom",
    "holder_seminorm_estimate",
    "lipschitz_bound",
]


# lipschitz_bound walks _TILE x _TILE tiles of its grid, _BATCH at a time
_TILE = 8
_BATCH = 64


@dataclass
class PhantomSpec:
    """An evaluable function ``f(x, y)`` supported in ``{y >= c*x**2}``.

    With ``grid`` set the phantom interpolates the samples ``(xs, ys,
    values)``, and its center and width are its box's center and larger
    side; otherwise it is the bump, times the polynomial with flat ``(i, j,
    c)`` triples ``poly_coeffs`` when these are given, times
    ``cos(oscillation*x)/oscillation`` when ``oscillation > 0``.
    """

    center: tuple[float, float] = (0.0, 0.5)
    width: float = 0.3
    amplitude: float = 1.0
    support_constant: float = 1.0
    oscillation: float = 0.0
    poly_coeffs: tuple[float, ...] = ()
    grid: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None
    _poly: Optional[np.ndarray] = field(init=False, default=None, repr=False,
                                        compare=False)
    _norm: float = field(init=False, default=1.0, repr=False, compare=False)

    def __post_init__(self):
        if self.grid is not None:
            # a table's box: its center, and its larger side as the width
            self.grid = xs, ys, _ = _table(*self.grid)
            self.center = (0.5 * (xs[0] + xs[-1]), 0.5 * (ys[0] + ys[-1]))
            self.width = max(xs[-1] - xs[0], ys[-1] - ys[0])
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
        if self.grid is None:
            self._norm = _center_norm(self.center, self.support_constant)

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

    def __call__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        if self.grid is not None:
            # bilinear on the cell holding each point inside the table's box
            # and on or above the parabola, the last cell for its top edges
            xs, ys, v = self.grid
            on = ((x >= xs[0]) & (x <= xs[-1]) & (y >= ys[0]) & (y <= ys[-1])
                  & (y >= self.support_constant * x * x))
            px, py = x[on], y[on]
            i = np.minimum(np.searchsorted(xs, px, "right"), xs.size - 1) - 1
            j = np.minimum(np.searchsorted(ys, py, "right"), ys.size - 1) - 1
            tx = (px - xs[i]) / (xs[i + 1] - xs[i])
            ty = (py - ys[j]) / (ys[j + 1] - ys[j])
            sx, sy = 1 - tx, 1 - ty
            out = np.zeros(x.shape)
            out[on] = (v[i, j] * sx * sy + v[i, j + 1] * sx * ty
                       + v[i + 1, j] * tx * sy + v[i + 1, j + 1] * tx * ty)
        else:
            scale = self.amplitude
            if self._poly is not None:
                cx, cy = self.center
                scale = scale * polyval2d(x - cx, y - cy, self._poly)
            bump, cutoff = self._envelope(x, y)
            out = scale * bump * cutoff
            out /= self._norm
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


def _center_norm(center, c) -> float:
    """The cutoff ``exp(-1/gap)`` at ``center``, which the bump is divided
    by; refused unless it is a normal double, that is unless the center
    lies at least about 1/708 above the parabola ``y = c x^2``."""
    cx, cy = center
    gap = cy - c * cx * cx
    with np.errstate(over="ignore"):        # subnormal gaps: exp(-inf) = 0
        norm = float(np.exp(-1.0 / np.float64(gap))) if gap > 0 else 0.0
    if not norm >= sys.float_info.min:
        raise ValueError(
            f"phantom center gap y - c x^2 = {gap:.3g}, but the cutoff"
            f" exp(-1/gap) the phantom is divided by is a normal double only"
            f" for gap >= {-1.0 / np.log(sys.float_info.min):.4g}")
    return norm


def _table(xs, ys, values):
    """The samples with ascending axes, a descending one flipped; refused
    unless each axis has at least 2 finite, strictly monotone points and the
    values are finite and of the axes' shape."""
    xs, ys, values = (np.asarray(a, dtype=float) for a in (xs, ys, values))
    for name, t in (("x", xs), ("y", ys)):
        if not (t.ndim == 1 and t.size >= 2 and np.isfinite(t).all() and (
                np.all(t[1:] > t[:-1]) or np.all(t[1:] < t[:-1]))):
            raise ValueError(f"tabulated {name} axis must hold at least 2"
                             f" finite, strictly monotone points")
    if values.shape != (xs.size, ys.size) or not np.isfinite(values).all():
        raise ValueError(f"tabulated values must be finite and of the axes'"
                         f" shape {(xs.size, ys.size)}, not {values.shape}")
    if xs[0] > xs[-1]:
        xs, values = xs[::-1], values[::-1]
    if ys[0] > ys[-1]:
        ys, values = ys[::-1], values[:, ::-1]
    return xs, ys, values


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
    return PhantomSpec(support_constant=support_constant,
                       grid=(xs, ys, values))


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
    / gap^2``, ``gap = y - c x^2``; it is counted only where ``r^2 < 1``,
    ``gap > 0`` and ``E`` is not 0, since ``f`` is flat to every order at
    the edge of its support.  For ``f = q cos(lam x) / lam`` it is the
    pointwise bound ``|grad q| / lam + |q|``, which does not depend on the
    phase of the cosine.

    The tiles of ``_tiles`` are walked by decreasing bound (NaN first),
    ``_BATCH`` at a time, keeping the max of the per-point expressions over
    the support (off it under ``np.errstate``) until the next bound is below
    it: max is exact, so the bound is the whole grid's bit for bit.  A max
    that is not a finite double (a center so near the parabola that
    ``exp(1/gap)`` overflows the gradient) raises ``ValueError``.
    """
    if p.grid is not None:
        raise ValueError("no gradient formula for a tabulated phantom")
    c, w2 = p.support_constant, p.width**2
    (xt, ut, yt, vt), bounds = _tiles(p)
    order = np.argsort(bounds, axis=None)[::-1]
    ranked, (ti, tj) = bounds.flat[order], np.divmod(order, bounds.shape[1])
    scale = p.amplitude / p._norm
    if p._poly is not None:
        dpx, dpy = polyder(p._poly, axis=0), polyder(p._poly, axis=1)
    best = 0.0              # max of |grad f|^2, or of the oscillatory bound
    for start in range(0, order.size, _BATCH):
        if ranked[start] < best:
            break
        i, j = ti[start:start + _BATCH], tj[start:start + _BATCH]
        x, u, y, v = xt[i, :, None], ut[i, :, None], yt[j, None], vt[j, None]
        s = 1.0 - (u**2 + v**2) / w2
        gap = y - c * x**2
        with np.errstate(all="ignore"):     # off the support, and exp(-inf)
            e = np.exp(1.0 - 1.0 / s - 1.0 / gap)
            f = scale * e
            dr, dgap = -2.0 / (w2 * s * s), 1.0 / (gap * gap)
            fx = f * (dr * u - 2.0 * c * x * dgap)
            fy = f * (dr * v + dgap)
            if p._poly is not None:
                uu, vv = np.broadcast_arrays(u, v)
                poly = polyval2d(uu, vv, p._poly)
                fx = poly * fx + f * polyval2d(uu, vv, dpx)
                fy = poly * fy + f * polyval2d(uu, vv, dpy)
                f = poly * f
            g = fx**2 + fy**2
            if p.oscillation > 0:
                g = np.sqrt(g) / p.oscillation + np.abs(f)
        # where e underflows to 0, f = 0 times 1/gap^2 = inf is NaN
        on = (s > 0) & (gap > 0) & (e > 0)
        best = float(g.max(where=on, initial=best))
    bound = 1.05 * (best if p.oscillation > 0 else float(np.sqrt(best)))
    if not np.isfinite(bound):
        gap = p.center[1] - c * p.center[0] * p.center[0]
        raise ValueError(
            f"the gradient of f overflows: c0 is not a finite double (center"
            f" gap y - c x^2 = {gap:.3g}; f grows like amplitude *"
            f" exp(1/gap) away from the center)")
    return bound


def _tiles(p: PhantomSpec):
    """``(x, u, y, v), bound``: the axes of ``lipschitz_bound``'s grid in
    the support's bounding box (``u, v`` the offsets from the center, ``u^2,
    v^2 < w^2``) as rows of ``_TILE`` points, the last padded with its last
    point, and ``bound[i, j]`` >= the per-point quantity on the tile of
    x-row ``i`` and y-row ``j`` (``-inf`` off the support).

    Rounded ``+ - * /`` are monotone, so ``s`` and ``gap`` formed from the
    tile's extreme ``|u|, |v|, |x|, y`` bracket its points' float values.
    Of ``E = exp(1 - 1/s) exp(-1/gap)``, both factors increase and each
    over ``s^2`` or ``gap^2`` peaks at 1/2; ``f_x``, ``f_y`` take each
    factor's max on the tile, the polynomials their absolute coefficients.
    Points and bound err by under 1e-12 relative (a few dozen roundings,
    ``exp`` of arguments below 750), the pad is 1e-6, and the slack
    ``2^-1000`` covers underflow: a few ``2^-1074`` times at most ``747^2``
    (``1/s, 1/gap`` where ``E > 0``).
    """
    axes = []
    for center in p.center:
        ax = np.linspace(center - 1.2 * p.width, center + 1.2 * p.width, 401)
        # u^2 >= w^2 gives s <= 0 whatever v is, in floating point too
        ax = ax[(ax - center) ** 2 < p.width**2]
        idx = np.minimum(np.arange(0, ax.size, _TILE)[:, None]
                         + np.arange(_TILE), ax.size - 1)
        axes += [ax[idx], (ax - center)[idx]]
    c, w2 = p.support_constant, p.width**2
    x, u, y, v = np.abs(axes[0]), np.abs(axes[1]), axes[2], np.abs(axes[3])
    xlo, xhi, ulo, uhi = x.min(1), x.max(1), u.min(1), u.max(1)
    xlo, xhi, ulo, uhi = xlo[:, None], xhi[:, None], ulo[:, None], uhi[:, None]
    vlo, vhi, ylo, yhi = v.min(1), v.max(1), y.min(1), y.max(1)
    s_lo, s_hi = 1.0 - (uhi**2 + vhi**2) / w2, 1.0 - (ulo**2 + vlo**2) / w2
    gap_lo, gap_hi = ylo - c * xhi**2, yhi - c * xlo**2
    tiny = 2.0**-1000
    with np.errstate(all="ignore"):
        scale = np.abs(np.float64(p.amplitude) / p._norm)
        slack = tiny * (1.0 + 1.0 / scale)
        a, b = np.exp(1.0 - 1.0 / s_hi), np.exp(-1.0 / gap_hi)
        t, r = np.clip(0.5, s_lo, s_hi), np.clip(0.5, gap_lo, gap_hi)
        e, e_s = a * b + slack, np.exp(1.0 - 1.0 / t) / t / t * b + slack
        e_gap = a * np.exp(-1.0 / r) / r / r + slack
        f = scale * e
        fx = scale * (2.0 / w2 * uhi * e_s + 2.0 * c * xhi * e_gap)
        fy = scale * (2.0 / w2 * vhi * e_s + e_gap)
        if p._poly is not None:
            poly, px, py = (
                polygrid2d(uhi[:, 0], vhi, np.abs(m)) + tiny for m in
                (p._poly, polyder(p._poly, axis=0), polyder(p._poly, axis=1)))
            fx, fy, f = poly * fx + f * px, poly * fy + f * py, poly * f
        g = fx**2 + fy**2
        if p.oscillation > 0:
            g = np.sqrt(g) / p.oscillation + f
        bound = g * (1.0 + 1e-6) + tiny
    bound[(s_hi <= 0) | (gap_hi <= 0)] = -np.inf
    return axes, bound


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
