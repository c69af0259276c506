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
    "field_antiderivative_eta",
    "weight_from_ab",
    "attenuation_weight",
    "constant_weight",
    "pde_residual",
    "corrected_weight",
    "field_from_spec",
    "zero_field",
]

_GAUSS_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gauss_nodes(n: int):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


@dataclass
class AnalyticField:
    """A closed-form field ``(xi, eta) -> real`` with exact xi-jets.

    ``fn`` receives a :class:`Jet` in xi together with a scalar or array
    ``eta`` and must return a jet built with jet arithmetic, so
    derivatives of any order in xi come out exact.  An optional support
    window ``eta > eta_min`` is enforced by a smooth cutoff of width
    ``window_width``.
    """

    fn: Callable[[Jet, np.ndarray], Jet]
    name: str = "field"
    eta_min: Optional[float] = None
    window_width: float = 0.05
    plain: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def _window(self, eta):
        if self.eta_min is None:
            return 1.0
        t = (np.asarray(eta, dtype=float) - self.eta_min) / self.window_width
        out = np.zeros_like(t, dtype=float)
        pos = t > 0
        hi = t >= 1
        mid = pos & ~hi
        out[hi] = 1.0
        # smooth step exp(-1/t) / (exp(-1/t) + exp(-1/(1-t)))
        a = np.exp(-1.0 / t[mid])
        b = np.exp(-1.0 / (1.0 - t[mid]))
        out[mid] = a / (a + b)
        return out

    def jet(self, xi: float, eta, order: int) -> Jet:
        j = self.fn(Jet.variable(xi, order), np.asarray(eta, dtype=float))
        return j * self._window(eta)

    def value(self, xi: float, eta):
        return self.jet(xi, eta, 0).value()

    def value_vec(self, xi, eta):
        """Vectorized order-0 evaluation over paired (xi, eta) arrays."""
        xi = np.asarray(xi, dtype=float)
        eta = np.asarray(eta, dtype=float)
        if self.plain is not None:
            return self.plain(xi, eta) * self._window(eta)
        flat = np.array(
            [float(self.value(u, e)) for u, e in zip(xi.ravel(), eta.ravel())]
        )
        return flat.reshape(xi.shape)

    def dxi(self, xi: float, eta, n: int):
        """Exact n-th xi-derivative."""
        return self.jet(xi, eta, n).derivative(n)


def zero_field() -> AnalyticField:
    return AnalyticField(lambda xi, eta: Jet.constant(np.zeros_like(eta), xi.order),
                         name="zero", plain=lambda xi, eta: np.zeros_like(eta))


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


def field_from_spec(spec: str, eta_min: Optional[float] = None) -> AnalyticField:
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
        name=spec,
        eta_min=eta_min,
        plain=lambda xi, eta: coef * plain_fn(np.asarray(xi, dtype=float),
                                              np.asarray(eta, dtype=float)),
    )


def field_antiderivative_eta(
    a: AnalyticField, xi: float, eta: float, gamma: float, n: int = 0,
    tol: float = 1e-11,
) -> float:
    """``d_xi^n A(xi, eta)`` where ``A(xi, eta) = int_{-gamma}^eta a(xi, s) ds``."""
    if eta > gamma + 1e-12:
        raise ValueError("antiderivative requested above eta = gamma")
    val, err = quad(
        lambda s: float(a.dxi(xi, s, n)), -gamma, eta,
        epsabs=tol, epsrel=tol, limit=200,
    )
    if err > 100 * max(tol, tol * abs(val)) + 1e-9:
        raise RuntimeError(f"antiderivative quadrature error {err:.2e} too large")
    return val


def antiderivative_jet(a: AnalyticField, xi: float, eta, gamma: float,
                       order: int, n_nodes: int = 32) -> Jet:
    """Jet in xi of ``A(xi, eta)`` for an array of eta values (fixed Gauss)."""
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    t, w = gauss_nodes(n_nodes)
    out = np.zeros((order + 1, eta.size))
    for i, e in enumerate(eta):
        mid, half = 0.5 * (e - gamma), 0.5 * (e + gamma)
        nodes = mid + half * t
        out[:, i] = half * (a.jet(xi, nodes, order).c * w).sum(axis=-1)
    return Jet(out)


@dataclass
class Weight:
    """Positive weight ``m(x, xi, eta)``."""

    kind: str
    a: Optional[AnalyticField] = None
    b: Optional[AnalyticField] = None
    m0: Callable[[np.ndarray, np.ndarray], np.ndarray] = None
    mu: object = None
    level: float = 1.0
    quad_nodes: int = 24
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
        t, w = gauss_nodes(self.quad_nodes)
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
