"""Even, nonnegative, unit-mass bumps on [-1, 1] with certified derivative growth.

Two families:

* ``hormander_sequence(N)`` -- the N-fold mollification of a hat by box
  kernels of width ``a = 2/(N + 2)``.  With equal widths the convolution
  is the uniform B-spline of order ``N + 2``, so evaluation is exact
  (Cox-de Boor via scipy) and the k-th derivative is the exact iterated
  difference quotient of a lower-order B-spline.  Derivative sups grow
  like ``C**(k+1) * N**k``.

* ``gevrey_bump(sigma)`` -- exp(-((1-t)t)**(-1/(sigma-1))) on (0, 1),
  mapped to (-1, 1) and normalized.  Derivative sups grow like
  ``C**(k+1) * (k!)**sigma``.  High-order derivatives are computed by a
  Cauchy integral around each interior point (the bump is analytic away
  from the endpoints), which stays accurate where finite differences
  would collapse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import BSpline

__all__ = [
    "TestFunction",
    "BoundReport",
    "hormander_sequence",
    "gevrey_bump",
    "derivative",
    "dilate",
    "dilated_derivative",
    "verify_derivative_bounds",
]

N_MAX = 24


def _cardinal_bspline(m: int) -> BSpline:
    """Centered cardinal B-spline of order m (degree m-1), unit knots, mass 1."""
    knots = np.arange(m + 1, dtype=float) - m / 2.0
    return BSpline.basis_element(knots, extrapolate=False)


@dataclass
class TestFunction:
    """Even nonnegative bump on [-1, 1] with unit mass and derivative access."""

    kind: str                       # "hormander" | "gevrey"
    param: float                    # N or sigma
    derivative_order_max: int
    certified_constant: Optional[float] = None
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
    splines = {k: _cardinal_bspline(m - k) for k in range(N + 1)}

    def evaluate(x, k):
        # d^k phi_N(x) = a^(-k-1) * sum_i (-1)^i C(k,i) M_{m-k}(x/a + k/2 - i)
        t = x / a
        acc = np.zeros_like(t)
        sp = splines[k]
        for i in range(k + 1):
            v = sp(t + k / 2.0 - i)
            acc += (-1) ** i * math.comb(k, i) * np.nan_to_num(v, nan=0.0)
        return acc / a ** (k + 1)

    return TestFunction(
        kind="hormander", param=N, derivative_order_max=N,
        breakpoints=np.arange(m + 1) * a - 1.0, _eval=evaluate,
    )


def gevrey_bump(sigma: float, derivative_order_max: int = 20) -> TestFunction:
    """Unit-mass Gevrey-sigma bump on [-1, 1]."""
    if sigma <= 1:
        raise ValueError("sigma must exceed 1")
    e = 1.0 / (sigma - 1.0)

    def raw(z):
        # (1-t)t with t=(x+1)/2 equals (1-x^2)/4; complex-capable
        w = (1.0 - z * z) / 4.0
        return np.exp(-np.power(w, -e))

    mass, _ = quad(lambda x: float(raw(x).real), -1.0, 1.0,
                   epsabs=1e-13, epsrel=1e-13, limit=200)
    theta = 2 * np.pi * np.arange(128) / 128
    ring = np.exp(1j * theta)

    def evaluate(x, k):
        out = np.zeros_like(x)
        inside = np.abs(x) < 1.0
        if k == 0:
            out[inside] = raw(x[inside]).real / mass
        else:
            xs = x[inside]
            vals = np.empty_like(xs)
            for j, x0 in enumerate(xs):
                r = 0.35 * (1.0 - abs(x0))
                if r < 1e-8:
                    vals[j] = 0.0
                    continue
                fz = raw(x0 + r * ring) / mass
                coef = np.mean(fz * np.exp(-1j * k * theta))
                vals[j] = math.factorial(k) * coef.real / r**k
            out[inside] = vals
        return out

    return TestFunction(
        kind="gevrey", param=sigma,
        derivative_order_max=derivative_order_max, _eval=evaluate,
    )


def derivative(tf: TestFunction, k: int):
    """Return ``d^k phi`` as an evaluable function."""
    if k > tf.derivative_order_max:
        raise ValueError(
            f"derivative order {k} exceeds maximum {tf.derivative_order_max}"
        )
    return lambda x: tf.derivative_values(x, k)


def dilate(tf: TestFunction, s: float):
    """``x -> phi(x/s)/s``; mass-preserving dilation."""
    if s <= 0:
        raise ValueError("dilation scale must be positive")
    return lambda x: tf.derivative_values(np.asarray(x, dtype=float) / s, 0) / s


def dilated_derivative(tf: TestFunction, s: float, k: int):
    """k-th derivative of the dilation: ``s**(-k-1) * phi^(k)(x/s)``."""
    if s <= 0:
        raise ValueError("dilation scale must be positive")
    fk = derivative(tf, k)
    return lambda x: fk(np.asarray(x, dtype=float) / s) / s ** (k + 1)


@dataclass
class BoundReport:
    certified_constant: float
    sups: np.ndarray          # sup |phi^(k)| for k = 0..k_max
    rates: np.ndarray         # N^k or (k!)^sigma
    ratios: np.ndarray        # sup / (C^(k+1) rate) under the certified C


def _rate(tf: TestFunction, k: int) -> float:
    if tf.kind == "hormander":
        return float(tf.param) ** k
    return float(math.factorial(k)) ** tf.param


def verify_derivative_bounds(tf: TestFunction, k_max: int,
                             grid_n: int = 4001) -> BoundReport:
    """Certify C with ``sup|phi^(k)| <= C^(k+1) * rate(k)`` for k <= k_max.

    C is the smallest constant making every per-k ratio at most one on a
    dense evaluation grid; it is recorded on the instance.
    """
    if k_max > tf.derivative_order_max:
        raise ValueError("k_max exceeds the derivative order limit")
    xs = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, grid_n)
    sups = np.empty(k_max + 1)
    rates = np.empty(k_max + 1)
    for k in range(k_max + 1):
        sups[k] = np.abs(tf.derivative_values(xs, k)).max()
        rates[k] = _rate(tf, k)
    C = max((sups[k] / rates[k]) ** (1.0 / (k + 1)) for k in range(k_max + 1))
    ratios = sups / (C ** (np.arange(k_max + 1) + 1) * rates)
    tf.certified_constant = float(C)
    return BoundReport(certified_constant=float(C), sups=sups, rates=rates,
                       ratios=ratios)
