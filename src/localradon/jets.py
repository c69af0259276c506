"""Truncated Taylor (jet) arithmetic in a single variable.

A jet stores Taylor coefficients ``c[n] = f^(n)(x0)/n!`` up to a fixed
truncation order.  Coefficients may be scalars or numpy arrays of any
common shape, so the same arithmetic drives both pointwise field
evaluation and grid-valued kernel construction.  ``np.sin``, ``np.cos``
and ``np.exp`` of a jet, and ``jet ** alpha`` for a real ``alpha``,
follow the jet recurrences.
"""

from __future__ import annotations

import math

import numpy as np


class Jet:
    """Truncated Taylor series about a base point.

    Parameters
    ----------
    coeffs : array_like
        Coefficient stack of shape ``(order + 1, *grid_shape)``.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs):
        self.c = np.asarray(coeffs, dtype=float)
        if self.c.ndim == 0:
            self.c = self.c[None]

    @property
    def order(self) -> int:
        return self.c.shape[0] - 1

    @classmethod
    def variable(cls, x0, order: int) -> "Jet":
        c = np.zeros((order + 1,) + np.shape(x0))
        c[0] = x0
        if order >= 1:
            c[1] = 1.0
        return cls(c)

    @classmethod
    def constant(cls, value, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        c = np.zeros((order + 1,) + value.shape)
        c[0] = value
        return cls(c)

    def _coerce(self, other, order):
        if isinstance(other, Jet):
            return other
        # a scalar broadcasts over the jet's base points
        shape = np.shape(other) or (1,) * (self.c.ndim - 1)
        return Jet.constant(np.reshape(other, shape), order)

    def __add__(self, other):
        other = self._coerce(other, self.order)
        n = min(self.order, other.order)
        return Jet(self.c[: n + 1] + other.c[: n + 1])

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.c)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            other = np.asarray(other, dtype=float)
            if other.ndim == 0:
                return Jet(self.c * other)
            other = Jet.constant(other, self.order)
        n = min(self.order, other.order)
        a, b = self.c, other.c
        shape = np.broadcast_shapes(a.shape[1:], b.shape[1:])
        out = np.zeros((n + 1,) + shape)
        for k in range(n + 1):
            for i in range(k + 1):
                out[k] += a[i] * b[k - i]
        return Jet(out)

    __rmul__ = __mul__

    def exp(self) -> "Jet":
        # k p_k = sum_{i=1..k} i f_i p_(k-i), from p' = f' p
        f, out = self.c, np.zeros_like(self.c)
        out[0] = np.exp(f[0])
        for k in range(1, self.order + 1):
            out[k] = sum(i * f[i] * out[k - i] for i in range(1, k + 1)) / k
        return Jet(out)

    def __pow__(self, alpha: float) -> "Jet":
        # k f_0 p_k = sum_{i=1..k} ((alpha + 1) i - k) f_i p_(k-i), from
        # f p' = alpha f' p; the base value f_0 must not be 0
        f, out = self.c, np.zeros_like(self.c)
        out[0] = f[0] ** alpha
        for k in range(1, self.order + 1):
            out[k] = sum(((alpha + 1.0) * i - k) * f[i] * out[k - i]
                         for i in range(1, k + 1)) / (k * f[0])
        return Jet(out)

    def sin_cos(self):
        # k s_k = sum i f_i c_(k-i) and k c_k = -sum i f_i s_(k-i), from
        # s' = f' c and c' = -f' s
        f, s, c = self.c, np.zeros_like(self.c), np.zeros_like(self.c)
        s[0], c[0] = np.sin(f[0]), np.cos(f[0])
        for k in range(1, self.order + 1):
            s[k] = sum(i * f[i] * c[k - i] for i in range(1, k + 1)) / k
            c[k] = sum(-i * f[i] * s[k - i] for i in range(1, k + 1)) / k
        return Jet(s), Jet(c)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        # np.sin(jet) and the like; a numpy operand on the left of a binary
        # operator (np.float64(2.0) * jet) takes the jet's reflected one
        if method != "__call__" or kwargs:
            return NotImplemented
        if len(inputs) == 1 and ufunc in _UNARY:
            return _UNARY[ufunc](self)
        if len(inputs) == 2 and inputs[1] is self and ufunc in _REFLECTED:
            return getattr(self, _REFLECTED[ufunc])(inputs[0])
        return NotImplemented

    def derivative(self, n: int):
        """n-th derivative at the base point."""
        if n > self.order:
            raise ValueError(f"jet order {self.order} < requested derivative {n}")
        return self.c[n] * math.factorial(n)


_UNARY = {np.sin: lambda j: j.sin_cos()[0], np.cos: lambda j: j.sin_cos()[1],
          np.exp: Jet.exp}
_REFLECTED = {np.add: "__radd__", np.subtract: "__rsub__",
              np.multiply: "__rmul__"}
