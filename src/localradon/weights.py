"""Weight functions for the weighted Radon transform.

Three kinds are supported: constant weights, attenuation weights
``m = exp(-int_x^inf mu)``, and weights synthesized from a field pair
``(a, b)`` so that the transport equation

    d_xi m - x d_eta m = (x*a(xi, eta) + b(xi, eta)) * m

holds by construction (solved along the characteristics
``eta + x*xi = const``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad

from .jets import Jet

__all__ = [
    "AnalyticField",
    "Weight",
    "weight_from_ab",
    "attenuation_weight",
    "constant_weight",
    "pde_residual",
    "corrected_weight",
    "field_from_spec",
    "zero_field",
    "panel_rule",
]

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def panel_rule(edges, n: int):
    """``(nodes, weights)`` of the ``n``-point Gauss rule on every panel
    between consecutive ``edges`` (along the last axis); both have shape
    ``(..., panels, n)``."""
    t, w = gauss_nodes(n)
    edges = np.asarray(edges, dtype=float)[..., None]
    lo, hi = edges[..., :-1, :], edges[..., 1:, :]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * t, half * w


@dataclass
class AnalyticField:
    """A closed-form field ``(xi, eta) -> real`` with exact xi-jets.

    ``fn`` receives a :class:`Jet` in xi together with a scalar or array
    ``eta`` and must return a jet built with jet arithmetic, so
    derivatives of any order in xi come out exact.  ``plain`` is the same
    function on plain float arrays.
    """

    fn: Callable[[Jet, np.ndarray], Jet]
    plain: Callable[[np.ndarray, np.ndarray], np.ndarray]
    name: str = "field"

    def jet(self, xi: float, eta, order: int) -> Jet:
        return self.fn(Jet.variable(xi, order), np.asarray(eta, dtype=float))

    def value(self, xi: float, eta):
        return self.jet(xi, eta, 0).value()

    def value_vec(self, xi, eta):
        """Vectorized order-0 evaluation over paired (xi, eta) arrays."""
        return self.plain(np.asarray(xi, dtype=float),
                          np.asarray(eta, dtype=float))

    def dxi(self, xi: float, eta, n: int):
        """Exact n-th xi-derivative."""
        return self.jet(xi, eta, n).derivative(n)


_FIELD_REGISTRY: dict[str, tuple[Callable, Callable]] = {
    "zero": (lambda xi, eta: Jet.constant(np.zeros_like(eta), xi.order),
             lambda xi, eta: np.zeros_like(eta)),
    "one": (lambda xi, eta: Jet.constant(np.ones_like(eta), xi.order),
            lambda xi, eta: np.ones_like(eta)),
    "xi": (lambda xi, eta: xi * np.ones_like(eta),
           lambda xi, eta: xi * np.ones_like(eta)),
    "eta": (lambda xi, eta: Jet.constant(eta, xi.order),
            lambda xi, eta: eta * np.ones_like(xi)),
    "xi_eta": (lambda xi, eta: xi * eta, lambda xi, eta: xi * eta),
    "eta2": (lambda xi, eta: Jet.constant(eta * eta, xi.order),
             lambda xi, eta: eta * eta * np.ones_like(xi)),
    "sin_xi": (lambda xi, eta: xi.sin() * np.ones_like(eta),
               lambda xi, eta: np.sin(xi) * np.ones_like(eta)),
    "cos_xi": (lambda xi, eta: xi.cos() * np.ones_like(eta),
               lambda xi, eta: np.cos(xi) * np.ones_like(eta)),
    "sin_eta": (lambda xi, eta: Jet.constant(np.sin(eta), xi.order),
                lambda xi, eta: np.sin(eta) * np.ones_like(xi)),
    "cos_eta": (lambda xi, eta: Jet.constant(np.cos(eta), xi.order),
                lambda xi, eta: np.cos(eta) * np.ones_like(xi)),
    "exp_xi": (lambda xi, eta: xi.exp() * np.ones_like(eta),
               lambda xi, eta: np.exp(xi) * np.ones_like(eta)),
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
        text = text.strip()
    if text not in _FIELD_REGISTRY:
        raise ValueError(
            f"unknown field {text!r}; known: {sorted(_FIELD_REGISTRY)}"
        )
    jet_fn, plain_fn = _FIELD_REGISTRY[text]
    return AnalyticField(
        lambda xi, eta: jet_fn(xi, eta) * coef,
        plain=lambda xi, eta: coef * plain_fn(np.asarray(xi, dtype=float),
                                              np.asarray(eta, dtype=float)),
        name=spec,
    )


def zero_field() -> AnalyticField:
    return field_from_spec("zero")


@dataclass
class Weight:
    """Positive weight ``m(x, xi, eta)``."""

    kind: str
    a: Optional[AnalyticField] = None
    b: Optional[AnalyticField] = None
    m0: Callable[[np.ndarray, np.ndarray], np.ndarray] = None
    mu: object = None
    level: float = 1.0
    label: str = field(default="")

    def __call__(self, x, xi, eta):
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        x, xi, eta = np.broadcast_arrays(x, xi, eta)
        if self.kind == "constant":
            out = np.full(x.shape, self.level)
        elif self.kind == "from_ab":
            out = self._from_ab(x, xi, eta)
        elif self.kind == "attenuation":
            out = self._attenuation(x, xi, eta)
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")
        return out if out.shape else float(out)

    def _from_ab(self, x, xi, eta):
        # m = m0(x, eta + x xi) * exp(int_0^xi [x a(s, eta + x(xi - s))
        #                                        + b(s, eta + x(xi - s))] ds)
        t, w = gauss_nodes(24)
        flat_x, flat_xi, flat_eta = (v.ravel() for v in (x, xi, eta))
        # nodes s along [0, xi] for every point at once
        s = 0.5 * flat_xi[:, None] * (1.0 + t[None, :])
        etas = flat_eta[:, None] + flat_x[:, None] * (flat_xi[:, None] - s)
        vals = flat_x[:, None] * self.a.value_vec(s, etas) \
            + self.b.value_vec(s, etas)
        expo = 0.5 * flat_xi * (w[None, :] * vals).sum(axis=1)
        if self.m0 is not None:
            base = np.array(
                [self.m0(xv, ev + xv * xiv)
                 for xv, xiv, ev in zip(flat_x, flat_xi, flat_eta)]
            )
        else:
            base = 1.0
        return (base * np.exp(expo)).reshape(x.shape)

    def _attenuation(self, x, xi, eta):
        x_hi = self.mu.x_extent() + 1e-9
        flat = [v.ravel() for v in (x, xi, eta)]
        out = np.empty(flat[0].size)
        for i, (xv, xiv, ev) in enumerate(zip(*flat)):
            if xv >= x_hi:
                out[i] = 1.0
                continue
            val, err = quad(
                lambda t: float(self.mu(t, xiv * t + ev)),
                xv, x_hi, epsabs=1e-10, epsrel=1e-10, limit=200,
            )
            out[i] = math.exp(-val)
        return out.reshape(x.shape)


def constant_weight(level: float = 1.0) -> Weight:
    if level <= 0:
        raise ValueError("weight must be positive")
    return Weight(kind="constant", level=level, label=f"const({level})")


def weight_from_ab(a: AnalyticField, b: AnalyticField, m0=None) -> Weight:
    """Weight solving the transport PDE with Cauchy data ``m0`` on ``xi = 0``."""
    return Weight(kind="from_ab", a=a, b=b, m0=m0,
                  label=f"from_ab({a.name},{b.name})")


def attenuation_weight(mu) -> Weight:
    """``m(x, xi, eta) = exp(-int_x^inf mu(t, xi t + eta) dt)``."""
    return Weight(kind="attenuation", mu=mu, label="attenuation")


def pde_residual(m: Weight, a: AnalyticField, b: AnalyticField, points,
                 h: float = 1e-5) -> float:
    """Max transport-PDE residual over sample points (central differences)."""
    worst = 0.0
    for (x, xi, eta) in points:
        d_xi = (m(x, xi + h, eta) - m(x, xi - h, eta)) / (2 * h)
        d_eta = (m(x, xi, eta + h) - m(x, xi, eta - h)) / (2 * h)
        rhs = (x * float(a.value(xi, eta)) + float(b.value(xi, eta))) \
            * m(x, xi, eta)
        worst = max(worst, abs(d_xi - x * d_eta - rhs))
    return worst


def corrected_weight(m: Weight, gamma: float):
    """The weight in line coordinates through ``(0, gamma)``:
    ``m_gamma(x, y) = m(x, (y - gamma)/x, gamma)``, with the defining
    point value ``m(0, 0, gamma)`` at ``x = 0``.
    """

    def m_gamma(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        x, y = np.broadcast_arrays(x, y)
        out = np.empty(x.shape)
        zero = np.abs(x) < 1e-300
        if np.any(zero):
            out[zero] = m(0.0, 0.0, gamma)
        nz = ~zero
        if np.any(nz):
            out[nz] = m(x[nz], (y[nz] - gamma) / x[nz], gamma)
        return out if out.shape else float(out)

    return m_gamma
