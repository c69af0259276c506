"""Weight functions for the weighted Radon transform.

Two kinds are supported, both in the class the inversion covers: a
positive constant, and the weight synthesized from a field pair
``(a, b)`` so that the transport equation

    d_xi m - x d_eta m = (x*a(xi, eta) + b(xi, eta)) * m

holds by construction (solved along the characteristics
``eta + x*xi = const``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .jets import Jet

__all__ = [
    "AnalyticField",
    "Weight",
    "constant_weight",
    "pde_residual",
    "field_from_spec",
    "panel_rule",
    "spline_matrix",
]

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


# A from_ab exponent is kept only where its 6- and 12-point Gauss values
# differ by at most PAIR_TOL * max(1, |exponent|)
PAIR_TOL = 1e-13


def panel_rule(edges, n: int):
    """``(nodes, weights)`` of the ``n``-point Gauss rule on every panel
    between consecutive ``edges`` (along the last axis); both have shape
    ``(..., panels, n)``."""
    t, w = gauss_nodes(n)
    edges = np.asarray(edges, dtype=float)[..., None]
    lo, hi = edges[..., :-1, :], edges[..., 1:, :]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * t, half * w


def spline_matrix(nodes, points) -> np.ndarray:
    """The matrix taking values at the strictly increasing ``nodes`` to the
    values at ``points`` of the spline that interpolates them, read-only
    and shared by every caller with the same arrays.

    The spline has degree ``min(3, n - 1)`` for ``n`` nodes and FITPACK's
    interpolation knots (``s = 0``): not-a-knot for a cubic, and none
    inside for the line and the parabola through 2 and 3 nodes.  Points
    outside the nodes read the value at the nearer end, as FITPACK clamps
    them.
    """
    nodes = np.asarray(nodes, dtype=float)
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if nodes.ndim != 1 or points.ndim != 1:
        raise ValueError("nodes and points must be one-dimensional")
    return _spline_matrix(nodes.tobytes(), points.tobytes())


@functools.lru_cache(maxsize=32)
def _spline_matrix(nodes: bytes, points: bytes) -> np.ndarray:
    x, p = np.frombuffer(nodes), np.frombuffer(points)
    if x.size < 2 or np.any(np.diff(x) <= 0) or not np.all(np.isfinite(x)):
        raise ValueError("spline nodes must be two or more finite, strictly "
                         "increasing values")
    k = min(3, x.size - 1)
    # FITPACK's s = 0 interior knots are the nodes without the first and
    # last two for a cubic (not-a-knot); a lower degree has none
    knots = np.concatenate([np.full(k + 1, x[0]), x[2:-2],
                            np.full(k + 1, x[-1])])
    # values at the points = basis(points) @ coefficients, and the
    # coefficients solve the collocation system basis(nodes) c = v
    out = np.linalg.solve(_bspline_basis(knots, k, x).T,
                          _bspline_basis(knots, k, p).T).T
    out.flags.writeable = False
    return out


def _bspline_basis(t: np.ndarray, k: int, x: np.ndarray) -> np.ndarray:
    """Values ``B[i, j]`` of the degree-``k`` B-splines on the clamped
    knots ``t`` (distinct inside) at ``x`` clipped to ``[t[0], t[-1]]``:
    the ``k + 1`` nonzero ones at each point by the Cox--de Boor
    recurrence on the knot span that holds it."""
    x = np.clip(x, t[0], t[-1])
    n = t.size - k - 1
    span = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    # N[r] = B_{span-d+r, d}(x) after step d
    N = [np.ones_like(x)]
    for d in range(1, k + 1):
        # left[j] = x - t[span + 1 - j], right[j] = t[span + j] - x
        left = [None] + [x - t[span + 1 - j] for j in range(1, d + 1)]
        right = [None] + [t[span + j] - x for j in range(1, d + 1)]
        saved = np.zeros_like(x)
        for r in range(d):
            temp = N[r] / (right[r + 1] + left[d - r])
            N[r] = saved + right[r + 1] * temp
            saved = left[d - r] * temp
        N.append(saved)
    B = np.zeros((x.size, n))
    rows = np.arange(x.size)
    for r in range(k + 1):
        B[rows, span - k + r] = N[r]
    return B


@dataclass
class AnalyticField:
    """A closed-form field ``(xi, eta) -> real``.

    ``fn`` is one numpy expression that holds for float arrays and for a
    :class:`Jet` in xi with ``eta`` an array, so the field's values and its
    exact xi-derivatives of any order come from the same formula.
    """

    fn: Callable
    name: str = "field"

    def __call__(self, xi, eta):
        """Values over ``xi`` and ``eta`` broadcast together."""
        return self.fn(*np.broadcast_arrays(np.asarray(xi, dtype=float),
                                            np.asarray(eta, dtype=float)))

    def jet(self, xi: float, eta, order: int) -> Jet:
        """The xi-jet about ``xi`` at every ``eta``, coefficients of shape
        ``(order + 1, *eta.shape)``."""
        eta = np.asarray(eta, dtype=float)
        out = self.fn(Jet.variable(xi, order), eta)
        if not isinstance(out, Jet):        # the field does not depend on xi
            return Jet.constant(out, order)
        return out * np.ones_like(eta)      # spread over eta


_FIELD_REGISTRY: dict[str, Callable] = {
    "zero": lambda xi, eta: np.zeros_like(eta),
    "one": lambda xi, eta: np.ones_like(eta),
    "xi": lambda xi, eta: xi,
    "eta": lambda xi, eta: eta,
    "xi_eta": lambda xi, eta: xi * eta,
    "eta2": lambda xi, eta: eta * eta,
    "sin_xi": lambda xi, eta: np.sin(xi),
    "cos_xi": lambda xi, eta: np.cos(xi),
    "sin_eta": lambda xi, eta: np.sin(eta),
    "cos_eta": lambda xi, eta: np.cos(eta),
    "exp_xi": lambda xi, eta: np.exp(xi),
}


def field_from_spec(spec: str) -> AnalyticField:
    """Parse a field descriptor of the form ``"name"`` or ``"coef*name"``.

    Known names: zero, one, xi, eta, xi_eta, eta2, sin_xi, cos_xi,
    sin_eta, cos_eta, exp_xi.
    """
    text = spec.strip()
    coef = 1.0
    if "*" in text:
        head, text = text.split("*", 1)
        coef = float(head)
        if not np.isfinite(coef):
            raise ValueError(f"coefficient {head!r} is not finite")
        text = text.strip()
    if text not in _FIELD_REGISTRY:
        raise ValueError(
            f"unknown field {text!r}; known: {sorted(_FIELD_REGISTRY)}"
        )
    fn = _FIELD_REGISTRY[text]
    return AnalyticField(lambda xi, eta: coef * fn(xi, eta), name=spec)


@dataclass
class Weight:
    """Positive weight ``m(x, xi, eta)``: the constant ``level`` when ``a``
    is None, otherwise the transport solution for ``(a, b)`` that equals 1
    on ``xi = 0``."""

    a: Optional[AnalyticField] = None
    b: Optional[AnalyticField] = None
    level: float = 1.0

    @property
    def label(self) -> str:
        if self.a is None:
            return f"const({self.level})"
        return f"from_ab({self.a.name},{self.b.name})"

    def __call__(self, x, xi, eta):
        if self.a is None:              # only the broadcast shape is needed
            out = np.full(np.broadcast_shapes(
                np.shape(x), np.shape(xi), np.shape(eta)), self.level)
        else:
            out = self._from_ab(*np.broadcast_arrays(
                *(np.asarray(v, dtype=float) for v in (x, xi, eta))))
        return out if out.shape else float(out)

    def _from_ab(self, x, xi, eta):
        # m = exp(int_0^xi [x a(s, eta + x(xi - s))
        #                   + b(s, eta + x(xi - s))] ds): the 12-point Gauss
        # value of the exponent, checked against the 6-point one
        t6, w6 = gauss_nodes(6)
        t12, w12 = gauss_nodes(12)
        flat_x, flat_xi, flat_eta = (v.ravel()[:, None] for v in (x, xi, eta))
        # the 18 nodes s along [0, xi] for every point at once
        s = 0.5 * flat_xi * (1.0 + np.concatenate([t6, t12]))
        etas = flat_eta + flat_x * (flat_xi - s)
        vals = flat_x * self.a(s, etas) + self.b(s, etas)
        half = 0.5 * flat_xi[:, 0]
        coarse, expo = half * (vals[:, :6] @ w6), half * (vals[:, 6:] @ w12)
        gap = np.abs(coarse - expo)
        bad = gap > PAIR_TOL * np.maximum(1.0, np.abs(expo))
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise ValueError(
                f"{self.label}: the 6- and 12-point Gauss exponents differ "
                f"by {gap[i]:.3g} at (x, xi, eta) = ({flat_x[i, 0]:.6g}, "
                f"{flat_xi[i, 0]:.6g}, {flat_eta[i, 0]:.6g}), over "
                f"{PAIR_TOL:g} relative; the fields vary too fast along "
                f"this characteristic")
        return np.exp(expo).reshape(x.shape)


def constant_weight(level: float = 1.0) -> Weight:
    if not 0 < level < np.inf:
        raise ValueError("weight must be positive and finite")
    return Weight(level=level)


def pde_residual(m: Weight, a: AnalyticField, b: AnalyticField,
                 points) -> float:
    """Max transport-PDE residual over sample points (central differences,
    step 1e-5)."""
    h, worst = 1e-5, 0.0
    for (x, xi, eta) in points:
        d_xi = (m(x, xi + h, eta) - m(x, xi - h, eta)) / (2 * h)
        d_eta = (m(x, xi, eta + h) - m(x, xi, eta - h)) / (2 * h)
        rhs = (x * float(a(xi, eta)) + float(b(xi, eta))) * m(x, xi, eta)
        worst = max(worst, abs(d_xi - x * d_eta - rhs))
    return worst
