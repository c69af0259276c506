"""Volterra kernel calculus for weighted moment extraction.

The two base operators act on functions of ``eta`` at fixed ``xi``:

    (P g)(xi, eta) = int_{-gamma}^eta psi(xi, eta, s) g(xi, s) ds
    (Q g)(xi, eta) = int_{-gamma}^eta -b(xi, s) psi(xi, eta, s) g(xi, s) ds

with ``psi(xi, eta, s) = exp(A(xi, s) - A(xi, eta))`` and
``A(xi, eta) = int_{-gamma}^eta a(xi, s) ds``.  From
``D_b g_k = D_a g_(k+1)``, with ``D_a = d_eta + a`` and ``D_b = d_xi - b``,
follows ``g_1 = d_xi(P g_0) - (d_xi P) g_0 + Q g_0``, where ``d_xi P`` is
the operator with kernel ``d_xi psi``.  So the recursion's base is
``Q' = Q - d_xi P``, and the operator family ``S_{j,k}`` is generated by

    S_{0,1} = Q',  S_{1,1} = P,
    S_{0,k+1} = S_{0,k} Q' - (d_xi S_{0,k}) P,
    S_{j,k+1} = S_{j,k} Q' - (d_xi S_{j,k}) P + S_{j-1,k} P   (1 <= j <= k),
    S_{k+1,k+1} = S_{k,k} P,

where products are operator compositions, so on kernels

    (s t)(eta, eta') = int_{eta'}^eta s(eta, v) t(v, eta') dv.

Kernels are stored as Taylor jets in xi about 0 on a shared eta grid of
Chebyshev--Lobatto points: ``coeffs[d, i, j]`` is the d-th Taylor
coefficient of ``s(xi, eta_i, eta'_j)``.  One cumulative-integration
matrix ``C`` of the grid, ``(C g)_i = int_{-gamma}^{eta_i} g``, exact for
polynomials of degree below the grid size, turns composition into matrix
algebra,

    (s t) = (C o s) t - s (C^T o t)        (o: entrywise product),

Cauchy-multiplied over the xi-jet coefficients; xi-differentiation is an
exact coefficient shift.  A family that serves levels up to ``k_max``
builds the base jets to order ``k_max + 8``, which leaves at least eight
usable Taylor terms after the recursion spends one order per level.

A kernel may hold any subset of the grid rows (``KernelJet.rows``).  Row
``i`` of ``s t`` reads only row ``i`` of ``s`` and every row of ``t``, and
every recursion step has a family member on the left and ``P`` or ``Q'``
on the right, so a family seeded with some rows of ``P`` and ``Q'`` grows
those rows of every ``S_{j,k}`` at O(n^2) per product instead of O(n^3).
The moments read only the top row, ``eta = gamma``, so the pipeline's
family holds that row alone (``sjk_family(..., rows=[-1])``); the bound
certification, ``apply_kernel`` and the ``kernels`` subcommand use full
families from the same recursion.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial.chebyshev import chebint, chebvander

from .jets import Jet
from .means import chebyshev_grid
from .weights import AnalyticField

__all__ = [
    "lobatto_grid",
    "interpolation_matrix",
    "KernelJet",
    "KernelFamily",
    "base_kernels",
    "compose",
    "sjk_family",
    "apply_kernel",
    "verify_kernel_bounds",
    "KernelBoundReport",
    "BETA",
]

BETA = 1.0 + math.sqrt(3.0)


@functools.lru_cache(maxsize=None)
def lobatto_grid(n: int, gamma: float):
    """``(eta, C, vinv)``: ``n`` Chebyshev--Lobatto points on
    ``[-gamma, gamma]`` (increasing, endpoints included), the
    cumulative-integration matrix, ``(C g)_i = int_{-gamma}^{eta_i} g``
    exactly for polynomials of degree below ``n``, and the inverse
    Chebyshev Vandermonde matrix of the points."""
    x = chebyshev_grid(n)
    vinv = np.linalg.inv(chebvander(x, n - 1))
    # chebint: Chebyshev coefficients -> those of the antiderivative from -1
    C = gamma * chebvander(x, n) @ chebint(np.eye(n), lbnd=-1) @ vinv
    eta = gamma * x
    for arr in (eta, C, vinv):      # shared by every caller through the cache
        arr.flags.writeable = False
    return eta, C, vinv


def _grid(eta: np.ndarray):
    grid = lobatto_grid(eta.size, float(eta[-1]))
    if not np.array_equal(grid[0], eta):
        raise ValueError("kernel grid is not Chebyshev-Lobatto")
    return grid


def interpolation_matrix(eta: np.ndarray, points) -> np.ndarray:
    """Matrix taking values on the kernel grid ``eta`` to the values of
    their interpolating polynomial at ``points``."""
    x = np.asarray(points, dtype=float) / eta[-1]
    return chebvander(x, eta.size - 1) @ _grid(eta)[2]


@dataclass
class KernelJet:
    """A Volterra kernel as a Taylor-in-xi jet on a shared eta grid, held
    on the grid rows ``rows`` (every row when None)."""

    eta: np.ndarray                 # shape (n,)
    coeffs: np.ndarray              # shape (order + 1, len(rows), n)
    rows: Optional[np.ndarray] = None

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        n = self.eta.size
        self.rows = np.arange(n)[slice(None) if self.rows is None
                                 else self.rows]
        if self.coeffs.ndim != 3 or \
                self.coeffs.shape[1:] != (self.rows.size, n):
            raise ValueError(
                "coefficient stack must have shape (order+1, rows, n)")

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    def row(self, i: int) -> np.ndarray:
        """The xi-jet of grid row ``i``, coefficients of shape
        ``(order + 1, n)``."""
        held = np.flatnonzero(self.rows == np.arange(self.eta.size)[i])
        if held.size == 0:
            raise ValueError(f"kernel does not hold grid row {i}")
        return self.coeffs[:, held[0]]

    @functools.cached_property
    def _right(self) -> np.ndarray:
        """``R_d = [t_d; C^T o t_d]`` of this kernel as the right factor of a
        composition, laid out ``(2n, order + 1, n)``."""
        C = _grid(self.eta)[1]
        return np.ascontiguousarray(np.concatenate(
            [self.coeffs, C.T * self.coeffs], axis=1).transpose(1, 0, 2))

    def deriv_xi(self) -> "KernelJet":
        """Exact xi-derivative; the truncation order drops by one."""
        if self.order == 0:
            c = np.zeros((1,) + self.coeffs.shape[1:])
        else:
            n = np.arange(1, self.order + 1)[:, None, None]
            c = self.coeffs[1:] * n
        return KernelJet(self.eta, c, self.rows)

    def values(self, xi: float) -> np.ndarray:
        """Kernel matrix ``s(xi, eta_i, eta'_j)`` on the held rows ``i``, by
        Horner evaluation."""
        out = np.zeros_like(self.coeffs[0])
        for ck in self.coeffs[::-1]:
            out = out * xi + ck
        return out

    def _binary(self, other: "KernelJet", sign: float) -> "KernelJet":
        if not np.array_equal(other.eta, self.eta) or \
                not np.array_equal(other.rows, self.rows):
            raise ValueError("kernel grids or rows differ")
        n = min(self.order, other.order)
        return KernelJet(
            self.eta, self.coeffs[: n + 1] + sign * other.coeffs[: n + 1],
            self.rows)

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)


def _zero_like(k: KernelJet, order: int) -> KernelJet:
    return KernelJet(k.eta, np.zeros((order + 1,) + k.coeffs.shape[1:]),
                     k.rows)


def compose(S: KernelJet, T: KernelJet) -> KernelJet:
    """Kernel of the operator composition ``S T``:

    ``(s t)(xi, eta, eta') = int_{eta'}^eta s(xi, eta, v) t(xi, v, eta') dv``

    applied coefficient-wise to the xi-jets (Cauchy product under the
    integral).  Splitting the integral at ``-gamma`` gives
    ``(C o s) t - s (C^T o t)`` on the grid, row by row of ``s``: ``S`` may
    hold any rows, and the result holds the same ones; ``T`` holds every
    row.  With ``L_d = [C o s_d, -s_d]`` and ``R_d = [t_d; C^T o t_d]``,
    every product ``L_i R_e`` comes from one matmul of the stacked ``L``
    with the stacked ``R``; coefficient ``d`` sums those with ``i + e = d``.
    """
    if not np.array_equal(S.eta, T.eta):     # grids come from lobatto_grid
        raise ValueError("kernel grids differ")
    if T.rows.size != T.eta.size:
        raise ValueError("the right factor must hold every grid row")
    order = min(S.order, T.order)
    if S.is_zero() or T.is_zero():
        return _zero_like(S, order)
    C = _grid(S.eta)[1]
    o, (r, n) = order + 1, S.coeffs.shape[1:]
    s = S.coeffs[:o]
    left = np.concatenate([C[S.rows] * s, -s], axis=2)         # (i, r, 2n)
    right = T._right                                           # (2n, e, n)
    prod = (left.reshape(o * r, 2 * n) @ right.reshape(2 * n, -1)).reshape(
        o, r, right.shape[1], n)
    # the pairs (i, d - i), i <= d, grouped by d; group d starts at d(d+1)/2
    starts = np.arange(o) * np.arange(1, o + 1) // 2
    d = np.repeat(np.arange(o), np.arange(1, o + 1))
    i = np.arange(d.size) - starts[d]
    out = np.add.reduceat(prod[i, :, d - i], starts, axis=0)
    return KernelJet(S.eta, out, S.rows)


def base_kernels(a: AnalyticField, b: AnalyticField, gamma: float,
                 order: int, n: int):
    """Jets of the P and ``Q' = Q - d_xi P`` kernels on ``n``
    Chebyshev--Lobatto points over [-gamma, gamma]; the jet of ``Q'`` is one
    order shorter than that of P."""
    if gamma <= 0 or n < 2:
        raise ValueError("need gamma > 0 and at least two grid points")
    eta, C, _ = lobatto_grid(n, float(gamma))
    A = a.jet(0.0, eta, order).c @ C.T                     # (order+1, n)
    expo = Jet(A[:, None, :] - A[:, :, None])              # A(eta'_j) - A(eta_i)
    psi = expo.exp()
    p = KernelJet(eta, psi.c)
    bj = b.jet(0.0, eta, order)
    q = KernelJet(eta, (psi * Jet(-bj.c[:, None, :])).c)
    return p, q - p.deriv_xi()


@dataclass
class KernelFamily:
    """Memoized ``S_{j,k}`` kernels for one field pair, for ``k <= k_max``,
    on the grid rows ``rows`` (every row when None); each level is composed
    on first use.  ``p`` and ``q`` hold every row of ``P`` and ``Q'``."""

    a: AnalyticField
    b: AnalyticField
    gamma: float
    k_max: int
    grid_n: int = 96
    rows: Optional[Sequence[int]] = None
    p: KernelJet = field(init=False)
    q: KernelJet = field(init=False)
    kernels: dict = field(init=False)

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be at least 1")
        self.p, self.q = base_kernels(self.a, self.b, self.gamma,
                                      self.k_max + 8, self.grid_n)
        rows = np.arange(self.grid_n)[slice(None) if self.rows is None
                                      else self.rows]
        self.kernels = {(j, 1): KernelJet(kj.eta, kj.coeffs[:, rows], rows)
                        for j, kj in ((0, self.q), (1, self.p))}

    def __getitem__(self, jk) -> KernelJet:
        j, k = jk
        if not (0 <= j <= k and k >= 1):
            raise KeyError(f"S_({j},{k}) is not defined")
        if k > self.k_max:
            raise KeyError(f"S_({j},{k}) lies beyond the family's "
                           f"k_max = {self.k_max}")
        if (j, k) not in self.kernels:
            self._extend_to(k)
        return self.kernels[(j, k)]

    def _extend_to(self, k_target: int):
        k = max(k for _, k in self.kernels)
        while k < k_target:
            for j in range(k + 1):
                s = self.kernels[(j, k)]
                new = compose(s, self.q) - compose(s.deriv_xi(), self.p)
                if j >= 1:
                    new = new + compose(self.kernels[(j - 1, k)], self.p)
                self.kernels[(j, k + 1)] = new
            self.kernels[(k + 1, k + 1)] = compose(self.kernels[(k, k)],
                                                   self.p)
            k += 1


def sjk_family(a: AnalyticField, b: AnalyticField, gamma: float,
               k_max: int, grid_n: int = 96,
               rows: Optional[Sequence[int]] = None) -> KernelFamily:
    """The ``S_{j,k}`` family with ``k <= k_max`` on the grid rows ``rows``
    (every row when None; ``[-1]`` is the top row the moments read);
    levels above one are composed when first read."""
    return KernelFamily(a=a, b=b, gamma=gamma, k_max=k_max, grid_n=grid_n,
                        rows=rows)


def apply_kernel(S: KernelJet, g, xi: float, eta_val: float) -> float:
    """``int_{-gamma}^eta s(xi, eta, eta') g(eta') deta'`` on the grid.

    ``g`` is a callable of eta' (typically a sinogram row at this xi).
    """
    eta = S.eta
    if eta_val < eta[0] - 1e-12 or eta_val > eta[-1] + 1e-12:
        raise ValueError("eta outside the kernel grid")
    if S.rows.size != eta.size:
        raise ValueError("interpolating in eta needs every grid row")
    at = interpolation_matrix(eta, [eta_val])
    row = (at @ S.values(xi))[0]                       # s(xi, eta_val, .)
    gv = np.array([float(g(v)) for v in eta])
    return float((at @ _grid(eta)[1] @ (row * gv))[0])


@dataclass
class KernelBoundReport:
    constant: float
    ratios: dict                    # (j, k) -> max bound ratio
    worst: float


def certified_constant(p: KernelJet, q: KernelJet) -> float:
    """Smallest C >= 1 with ``sup |d_xi^d p|, sup |d_xi^d q| <= C^(d+1) d!``."""
    C = 1.0
    for kj in (p, q):
        for d in range(kj.order + 1):
            sup = float(np.abs(kj.coeffs[d]).max())
            C = max(C, sup ** (1.0 / (d + 1)))
    return C


def verify_kernel_bounds(fam: KernelFamily, xi: float,
                         k_max: int) -> KernelBoundReport:
    """Check ``|s_{j,k}| <= (beta C)^(2k-j) (k-j)! (eta-eta')^(k-1)/(k-1)!``
    on the strict lower triangle of the grid rows the family holds, at one
    xi, with ``beta = BETA`` and C the certified constant of the base
    kernels."""
    C = certified_constant(fam.p, fam.q)
    eta = fam.p.eta
    gap = eta[fam[(1, 1)].rows, None] - eta[None, :]
    tri = gap > 0
    ratios = {}
    worst = 0.0
    for k in range(1, k_max + 1):
        for j in range(k + 1):
            vals = np.abs(fam[(j, k)].values(xi))
            den = (BETA * C) ** (2 * k - j) * math.factorial(k - j) \
                * gap[tri] ** (k - 1) / math.factorial(k - 1)
            r = float((vals[tri] / den).max())
            ratios[(j, k)] = r
            worst = max(worst, r)
    return KernelBoundReport(constant=C, ratios=ratios, worst=worst)

