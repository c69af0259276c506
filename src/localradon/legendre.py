"""Legendre algebra on [-1, 1]: evaluation, Fourier-Legendre projection,
the exact moment-to-coefficient map, and the checkable bounds used by the
reconstruction estimates.

Coefficients are always taken against the L2-normalized polynomials
``Pt_n = P_n / ||P_n||_2`` with ``||P_n||_2^2 = 2/(2n+1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .weights import gauss_nodes

__all__ = [
    "MomentVector",
    "LegendreSeries",
    "legendre_vandermonde",
    "fl_coefficients",
    "moments_to_coefficients",
    "coefficient_bound_check",
    "normalized_sup_bound",
]

MOMENT_MAP_N_CAP = 40


@dataclass
class MomentVector:
    """Moments ``m_k = int_{-1}^1 x^k g(x) dx`` for k = 0..N."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("moments must be finite")

    @property
    def order(self) -> int:
        return self.values.size - 1


@dataclass
class LegendreSeries:
    """Coefficients against the L2-normalized Legendre polynomials: one
    series, or a stack of series of one order along the first axis, whose
    values at ``x`` come from one matmul, with shape ``x.shape + (L,)``."""

    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)

    @property
    def order(self) -> int:
        return self.coeffs.shape[-1] - 1

    def __call__(self, x):
        N = self.order
        out = legendre_vandermonde(N, x) @ (_norms(N) * self.coeffs).T
        return out if out.shape else float(out)


def legendre_vandermonde(N: int, x) -> np.ndarray:
    """``V[..., n] = P_n(x)`` for n = 0..N by the three-term recurrence."""
    x = np.asarray(x, dtype=float)
    V = np.empty(x.shape + (N + 1,))
    V[..., 0] = 1.0
    if N >= 1:
        V[..., 1] = x
    for k in range(1, N):
        V[..., k + 1] = ((2 * k + 1) * x * V[..., k] - k * V[..., k - 1]) \
            / (k + 1)
    return V


def _norms(N: int) -> np.ndarray:
    """``1/||P_n||_2 = sqrt((2n+1)/2)`` for n = 0..N."""
    return np.sqrt((2 * np.arange(N + 1) + 1) / 2.0)


def fl_coefficients(g, N: int) -> LegendreSeries:
    """Fourier-Legendre coefficients of a callable by Gauss quadrature."""
    t, w = gauss_nodes(max(4 * N + 40, 160))
    gv = np.asarray(g(t), dtype=float)
    return LegendreSeries(_norms(N) * ((w * gv) @ legendre_vandermonde(N, t)))


def parseval_defect(g, series: LegendreSeries) -> float:
    t, w = gauss_nodes(400)
    gv = np.asarray(g(t), dtype=float)
    return abs(float(np.sum(w * gv * gv)) - float(np.sum(series.coeffs**2)))


def moments_to_coefficients(m: MomentVector) -> LegendreSeries:
    """Exact linear map: ``a_n = sqrt((2n+1)/2) * 2^-n *
    sum_k (-1)^k C(n,k) C(2n-2k,n) m_{n-2k}``.

    Conditioning grows like ``(4 sqrt 2)^n``; capped at N = 40.
    """
    N = m.order
    if N > MOMENT_MAP_N_CAP:
        raise ValueError(f"moment map capped at N = {MOMENT_MAP_N_CAP}")
    coeffs = np.empty(N + 1)
    for n in range(N + 1):
        terms = [
            (-1) ** k * math.comb(n, k) * math.comb(2 * n - 2 * k, n)
            * m.values[n - 2 * k]
            for k in range(n // 2 + 1)
        ]
        coeffs[n] = math.sqrt((2 * n + 1) / 2.0) * math.fsum(terms) / 2**n
    return LegendreSeries(coeffs)


def coefficient_bound_check(m: MomentVector, a: LegendreSeries) -> np.ndarray:
    """Per-n ratios ``|a_n| / ((4 sqrt 2)^n max_{k<=n} |m_k|)``; all <= 1."""
    if m.order != a.order:
        raise ValueError("moment vector and series order mismatch")
    ratios = np.zeros(a.order + 1)
    running = 0.0
    for n in range(a.order + 1):
        running = max(running, abs(m.values[n]))
        bound = (4.0 * math.sqrt(2.0)) ** n * running
        ratios[n] = abs(a.coeffs[n]) / bound if bound > 0 else 0.0
    return ratios


def normalized_sup_bound(n: int) -> float:
    """Bound for ``sup_{|x|<=1/2} |Pt_n|``: ``2^(1/4) sqrt((2n+1)/(pi n))``
    for n >= 1 and ``1/sqrt(2)`` for n = 0."""
    if n == 0:
        return 1.0 / math.sqrt(2.0)
    return 2.0**0.25 * math.sqrt((2 * n + 1) / (math.pi * n))
