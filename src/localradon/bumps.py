"""Even, nonnegative, unit-mass bumps on [-1, 1] with certified derivative growth.

Two families:

* ``hormander_sequence(N)`` -- the N-fold mollification of a hat by box
  kernels of width ``a = 2/(N + 2)``.  With equal widths the convolution
  is the uniform B-spline of order ``N + 2``.  On each unit piece its
  k-th derivative is a polynomial with exact rational coefficients,
  evaluated by Horner's rule.  Derivative sups grow like
  ``C**(k+1) * N**k``.

* ``gevrey_bump(sigma)`` -- exp(-((1-t)t)**(-1/(sigma-1))) on (0, 1),
  mapped to (-1, 1) and normalized.  Derivative sups grow like
  ``C**(k+1) * (k!)**sigma``.  High-order derivatives are computed by a
  Cauchy integral around each interior point (the bump is analytic away
  from the endpoints), which stays accurate where finite differences
  would collapse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .weights import panel_rule

__all__ = [
    "TestFunction",
    "hormander_sequence",
    "gevrey_bump",
    "verify_derivative_bounds",
]

N_MAX = 24


@functools.cache
def _cardinal_numerators(m: int) -> tuple:
    """``T[j][p] = sum_{i<=j} (-1)^i C(m, i) C(m-1, p) (j-i)^(m-1-p)``, the
    exact integer coefficient of ``u^p`` in ``(m-1)! M_m(j + u)`` for the
    cardinal B-spline ``M_m`` of order ``m`` (degree ``m - 1``) on the
    knots ``0, 1, ..., m``, from ``M_m(s) = sum_i (-1)^i C(m, i)
    (s - i)_+^(m-1) / (m-1)!``."""
    return tuple(tuple(math.comb(m - 1, p) * sum(
        (-1) ** i * math.comb(m, i) * (j - i) ** (m - 1 - p)
        for i in range(j + 1)) for p in range(m)) for j in range(m))


@functools.cache
def _cardinal_pieces(m: int, k: int) -> np.ndarray:
    """Row ``j`` holds the coefficients, highest power first, of ``d^k
    M_m(j + u)`` in ``u`` on ``[0, 1]``: ``T[j][p] perm(p, k) / (m-1)!``
    for ``p = m-1, ..., k``, each correctly rounded by Python's division
    of integers."""
    den = math.factorial(m - 1)
    out = np.array([[row[p] * math.perm(p, k) / den
                     for p in range(m - 1, k - 1, -1)]
                    for row in _cardinal_numerators(m)])
    out.flags.writeable = False     # shared by every caller through the cache
    return out


@dataclass
class TestFunction:
    """Even nonnegative bump on [-1, 1] with unit mass and derivative access."""

    kind: str                       # "hormander" | "gevrey"
    param: float                    # N or sigma
    derivative_order_max: int
    breakpoints: Optional[np.ndarray] = None   # piecewise-poly knots, if any
    _eval: Callable = field(default=None, repr=False)

    def __call__(self, x):
        return self.derivative_values(x, 0)

    def derivative_values(self, x, k: int):
        if k < 0 or k > self.derivative_order_max:
            raise ValueError(
                f"derivative order {k} outside [0, {self.derivative_order_max}]"
            )
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        v = self._eval(np.atleast_1d(x), k)
        return float(v[0]) if scalar else v

    def panel_edges(self, scale: float = 1.0) -> np.ndarray:
        """Quadrature panel edges on ``[-scale, scale]``: every knot
        interval halved, or 32 equal panels for a bump without knots."""
        if self.breakpoints is None:
            return np.linspace(-scale, scale, 33)
        bp = self.breakpoints
        halves = [np.linspace(lo, hi, 3)[:-1]
                  for lo, hi in zip(bp[:-1], bp[1:])]
        return scale * np.append(np.concatenate(halves), bp[-1])


def hormander_sequence(N: int) -> TestFunction:
    """Bump number N of the mollified-hat sequence, |d^k phi_N| <= C^(k+1) N^k."""
    if not (1 <= N <= N_MAX):
        raise ValueError(f"N must lie in [1, {N_MAX}]")
    m = N + 2
    a = 2.0 / m                     # box width; support = [-1, 1] exactly

    def evaluate(x, k):
        # d^k phi_N(x) = a^(-k-1) M_m^(k)(x/a + m/2), zero off (0, m)
        s = x / a + m / 2.0
        out = np.zeros_like(s)
        inside = (s > 0) & (s < m)
        s = s[inside]
        j = np.minimum(np.floor(s), m - 1)
        u = s - j
        coef = _cardinal_pieces(m, k)[j.astype(int)]
        v = coef[:, 0]
        for col in coef[:, 1:].T:
            v = v * u + col
        out[inside] = v / a ** (k + 1)
        return out

    return TestFunction(
        kind="hormander", param=N, derivative_order_max=N,
        breakpoints=np.arange(m + 1) * a - 1.0, _eval=evaluate,
    )


def _gevrey_mass_rule():
    """Nodes and weights on (-1, 1): 32 equal panels, the last ones halved
    toward +-1 down to 2^-47, 20 Gauss nodes each; nodes that round to
    +-1, where the bump vanishes, are dropped."""
    graded = 1.0 - 2.0 ** -np.arange(5, 48)     # past the edge 1 - 2^-4
    edges = np.concatenate([[-1.0], -graded[::-1],
                            np.linspace(-1.0, 1.0, 33)[1:-1], graded, [1.0]])
    x, w = (v.ravel() for v in panel_rule(edges, 20))
    keep = np.abs(x) < 1.0
    return x[keep], w[keep]


def gevrey_bump(sigma: float, derivative_order_max: int = 20) -> TestFunction:
    """Unit-mass Gevrey-sigma bump on [-1, 1]; sigma must exceed 1 by
    enough that the bump's mass is a normal double (about 1.2112)."""
    if sigma <= 1:
        raise ValueError("sigma must exceed 1")
    e = 1.0 / (sigma - 1.0)

    def raw(z):
        # (1-t)t with t=(x+1)/2 equals (1-x^2)/4; complex-capable
        w = (1.0 - z * z) / 4.0
        return np.exp(-np.power(w, -e))

    nodes, weights = _gevrey_mass_rule()
    mass = float(np.sum(weights * raw(nodes)))
    if not mass >= np.finfo(float).tiny:
        raise ValueError(
            f"sigma = {sigma:g} is too close to 1: the bump's mass "
            f"{mass:.3g} underflows a double (peak exp(-4^(1/(sigma-1))))")
    theta = 2 * np.pi * np.arange(128) / 128
    ring = np.exp(1j * theta)

    def evaluate(x, k):
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        if k == 0:
            out[inside] = raw(x[inside]).real / mass
        else:
            # Cauchy integral on a ring of radius r around every point at
            # once; points with r < 1e-8 (at or next to +-1) stay zero
            r = 0.35 * (1.0 - np.abs(x))
            far = r >= 1e-8
            r = r[far, None]
            fz = raw(x[far, None] + r * ring) / mass
            coef = np.mean(fz * np.exp(-1j * k * theta), axis=1)
            out[far] = math.factorial(k) * coef.real / r[:, 0] ** k
        return out

    return TestFunction(
        kind="gevrey", param=sigma,
        derivative_order_max=derivative_order_max, _eval=evaluate,
    )


def _rate(tf: TestFunction, k: int) -> float:
    if tf.kind == "hormander":
        return float(tf.param) ** k
    return float(math.factorial(k)) ** tf.param


def verify_derivative_bounds(tf: TestFunction, k_max: int,
                             grid_n: int = 4001) -> float:
    """Certify C with ``sup|phi^(k)| <= C^(k+1) * rate(k)`` for k <= k_max.

    C is the smallest such constant on a dense evaluation grid plus the
    knots, where the derivatives of a piecewise polynomial peak.
    """
    if k_max > tf.derivative_order_max:
        raise ValueError("k_max exceeds the derivative order limit")
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, grid_n)
    if tf.breakpoints is not None:
        xs = np.append(xs, tf.breakpoints)
    return float(max(
        (np.abs(tf.derivative_values(xs, k)).max() / _rate(tf, k))
        ** (1.0 / (k + 1)) for k in range(k_max + 1)))
