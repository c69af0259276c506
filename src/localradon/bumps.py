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
  ``C**(k+1) * (k!)**sigma``.  One formula gives the values on floats and
  every derivative on a jet (``jets.Jet``): its Taylor coefficients follow
  the recurrences of ``**`` and ``exp``, exact in exact arithmetic, so
  they stay accurate where finite differences would collapse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .jets import Jet
from .weights import panel_rule

__all__ = [
    "TestFunction",
    "hormander_sequence",
    "gevrey_bump",
    "verify_derivative_bounds",
]

N_MAX = 24
# the dense points ``verify_derivative_bounds`` certifies on, knots aside
CERTIFICATE_GRID = np.linspace(-1.0 + 1e-9, 1.0 - 1e-9, 4001)
CERTIFICATE_GRID.flags.writeable = False


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
    """Column ``j`` holds the coefficients, highest power first, of ``d^k
    M_m(j + u)`` in ``u`` on ``[0, 1]``: ``T[j][p] perm(p, k) / (m-1)!``
    for ``p = m-1, ..., k``, each correctly rounded by Python's division
    of integers; one row, contiguous, per power."""
    den = math.factorial(m - 1)
    out = np.array([[row[p] * math.perm(p, k) / den
                     for row in _cardinal_numerators(m)]
                    for p in range(m - 1, k - 1, -1)])
    out.flags.writeable = False     # shared by every caller through the cache
    return out


@dataclass(eq=False)
class TestFunction:
    """Even nonnegative bump on [-1, 1] with unit mass and derivative access,
    equal only to itself (so it can key a dict)."""

    kind: str                       # "hormander" | "gevrey"
    param: float                    # N or sigma
    derivative_order_max: int
    breakpoints: Optional[np.ndarray] = None   # piecewise-poly knots, if any
    _eval: Callable = field(default=None, repr=False)  # (x, orders) -> rows

    def __call__(self, x):
        return self.derivative_values(x, 0)

    def derivative_values(self, x, k: int):
        if k < 0 or k > self.derivative_order_max:
            raise ValueError(
                f"derivative order {k} outside [0, {self.derivative_order_max}]"
            )
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        v = self._eval(np.atleast_1d(x), (k,))[0]
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

    def evaluate(x, orders):
        # d^k phi_N(x) = a^(-k-1) M_m^(k)(x/a + m/2), zero off (0, m)
        s = x / a + m / 2.0
        out = np.zeros((len(orders),) + s.shape)
        inside = (s > 0) & (s < m)
        s = s[inside]
        j = np.minimum(np.floor(s), m - 1)
        u, j = s - j, j.astype(int)
        for row, k in zip(out, orders):
            coef = _cardinal_pieces(m, k)
            v = coef[0, j]
            for col in coef[1:]:
                v *= u
                v += col[j]
            row[inside] = v / a ** (k + 1)
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
        # (1-t)t with t = (x+1)/2 equals (1-x^2)/4; z is a float or a jet
        return np.exp(-(0.25 * (1.0 - z * z)) ** -e)

    nodes, weights = _gevrey_mass_rule()
    mass = float(np.sum(weights * raw(nodes)))
    if not mass >= np.finfo(float).tiny:
        raise ValueError(
            f"sigma = {sigma:g} is too close to 1: the bump's mass "
            f"{mass:.3g} underflows a double (peak exp(-4^(1/(sigma-1))))")

    def evaluate(x, orders):
        # a jet's coefficients do not depend on its order: build one
        out = np.zeros((len(orders),) + x.shape)
        on = np.abs(x) < 1.0
        on[on] = raw(x[on]) > 0.0       # where the bump is a nonzero double
        with np.errstate(over="ignore", invalid="ignore"):
            jet = raw(Jet.variable(x[on], max(orders)))
            for row, k in zip(out, orders):
                row[on] = jet.derivative(k) / mass
        if not np.isfinite(out).all():
            k, i = np.argwhere(~np.isfinite(out))[0]    # first order, first x
            raise ValueError(f"phi^(k) overflows a double at k = {orders[k]}, "
                             f"sigma = {sigma:g}, x = {float(x[i])!r}")
        return out

    return TestFunction(
        kind="gevrey", param=sigma,
        derivative_order_max=derivative_order_max, _eval=evaluate,
    )


def verify_derivative_bounds(tf: TestFunction, k_max: int) -> float:
    """Certify C with ``sup|phi^(k)| <= C^(k+1) * rate(k)`` for k <= k_max.

    C is the smallest such constant on ``CERTIFICATE_GRID`` plus the
    knots, where the derivatives of a piecewise polynomial peak; the Gevrey
    rate ``k!^sigma`` is taken in logs, as it overflows for large sigma.
    One pass gives every order the values of ``derivative_values``: a
    Hörmander bump finds each point's piece once, a Gevrey bump builds one
    jet of order ``k_max``; an overflow raises the first such order's error.
    Every call computes the certificate: an estimate calibrates once per
    call, and a sweep's levels are one stack.
    """
    if k_max > tf.derivative_order_max:
        raise ValueError("k_max exceeds the derivative order limit")
    xs = CERTIFICATE_GRID
    if tf.breakpoints is not None:
        xs = np.append(xs, tf.breakpoints)
    sups = enumerate(np.abs(tf._eval(xs, range(k_max + 1))).max(axis=1))
    if tf.kind == "hormander":
        return float(max((sup / float(tf.param) ** k) ** (1.0 / (k + 1))
                         for k, sup in sups))
    return max(math.exp((math.log(sup) - tf.param * math.lgamma(k + 1))
                        / (k + 1)) for k, sup in sups)
