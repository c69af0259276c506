"""Volterra kernel calculus for weighted moment extraction.

The two base operators act on functions of ``eta`` at fixed ``xi``:

    (P g)(xi, eta) = int_{-gamma}^eta psi(xi, eta, s) g(xi, s) ds
    (Q g)(xi, eta) = int_{-gamma}^eta -b(xi, s) psi(xi, eta, s) g(xi, s) ds

with ``psi(xi, eta, s) = exp(A(xi, s) - A(xi, eta))`` and
``A(xi, eta) = int_{-gamma}^eta a(xi, s) ds``.  The operator family
``S_{j,k}`` is generated by

    S_{0,1} = Q,  S_{1,1} = P,
    S_{0,k+1} = S_{0,k} Q - (d_xi S_{0,k}) P,
    S_{j,k+1} = S_{j,k} Q - (d_xi S_{j,k}) P + S_{j-1,k} P   (1 <= j <= k),
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
exact coefficient shift.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

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
    "commutator_check",
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
    """A Volterra kernel as a Taylor-in-xi jet on a shared eta grid."""

    eta: np.ndarray                 # shape (n,)
    coeffs: np.ndarray              # shape (order + 1, n, n)
    label: str = ""

    def __post_init__(self):
        self.eta = np.asarray(self.eta, dtype=float)
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.ndim != 3 or self.coeffs.shape[1:] != (self.eta.size,) * 2:
            raise ValueError("coefficient stack must have shape (order+1, n, n)")

    @property
    def order(self) -> int:
        return self.coeffs.shape[0] - 1

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def deriv_xi(self) -> "KernelJet":
        """Exact xi-derivative; the truncation order drops by one."""
        if self.order == 0:
            c = np.zeros((1,) + self.coeffs.shape[1:])
        else:
            n = np.arange(1, self.order + 1)[:, None, None]
            c = self.coeffs[1:] * n
        return KernelJet(self.eta, c, label=f"d_xi {self.label}")

    def values(self, xi: float) -> np.ndarray:
        """Kernel matrix ``s(xi, eta_i, eta'_j)`` by Horner evaluation."""
        out = np.zeros_like(self.coeffs[0])
        for ck in self.coeffs[::-1]:
            out = out * xi + ck
        return out

    def _binary(self, other: "KernelJet", sign: float) -> "KernelJet":
        if other.eta.shape != self.eta.shape or \
                not np.allclose(other.eta, self.eta):
            raise ValueError("kernel grids differ")
        n = min(self.order, other.order)
        return KernelJet(
            self.eta, self.coeffs[: n + 1] + sign * other.coeffs[: n + 1]
        )

    def __add__(self, other):
        return self._binary(other, 1.0)

    def __sub__(self, other):
        return self._binary(other, -1.0)

    def __neg__(self):
        return KernelJet(self.eta, -self.coeffs, label=self.label)


def _zero_like(k: KernelJet, order: int) -> KernelJet:
    n = k.eta.size
    return KernelJet(k.eta, np.zeros((order + 1, n, n)), label="0")


def compose(S: KernelJet, T: KernelJet) -> KernelJet:
    """Kernel of the operator composition ``S T``:

    ``(s t)(xi, eta, eta') = int_{eta'}^eta s(xi, eta, v) t(xi, v, eta') dv``

    applied coefficient-wise to the xi-jets (Cauchy product under the
    integral).  Splitting the integral at ``-gamma`` gives
    ``(C o s) t - s (C^T o t)`` on the grid.
    """
    if not np.allclose(S.eta, T.eta):
        raise ValueError("kernel grids differ")
    order = min(S.order, T.order)
    if S.is_zero() or T.is_zero():
        return _zero_like(S, order)
    C = _grid(S.eta)[1]
    ts = T.coeffs[: order + 1]
    ct = C.T * ts
    out = np.zeros((order + 1,) + C.shape)
    for ds, s in enumerate(S.coeffs[: order + 1]):
        out[ds:] += (C * s) @ ts[: order + 1 - ds] - s @ ct[: order + 1 - ds]
    label = f"({S.label})({T.label})" if S.label and T.label else ""
    return KernelJet(S.eta, out, label=label)


def base_kernels(a: AnalyticField, b: AnalyticField, gamma: float,
                 order: int = 12, n: int = 96):
    """Jets of the P and Q kernels on ``n`` Chebyshev--Lobatto points over
    [-gamma, gamma]."""
    if gamma <= 0 or n < 2:
        raise ValueError("need gamma > 0 and at least two grid points")
    eta, C, _ = lobatto_grid(n, float(gamma))
    A = a.jet(0.0, eta, order).c @ C.T                     # (order+1, n)
    expo = Jet(A[:, None, :] - A[:, :, None])              # A(eta'_j) - A(eta_i)
    psi = expo.exp()
    p = KernelJet(eta, psi.c, label="P")
    bj = b.jet(0.0, eta, order)
    q = KernelJet(eta, (psi * Jet(-bj.c[:, None, :])).c, label="Q")
    return p, q


@dataclass
class KernelFamily:
    """Memoized ``S_{j,k}`` kernels for one field pair."""

    a: AnalyticField
    b: AnalyticField
    gamma: float
    base_order: int = 12
    grid_n: int = 96
    kernels: dict = field(default_factory=dict)
    p: KernelJet = None
    q: KernelJet = None

    def __post_init__(self):
        if self.p is None:
            self.p, self.q = base_kernels(
                self.a, self.b, self.gamma, self.base_order, self.grid_n
            )
        self.kernels.setdefault((0, 1), self.q)
        self.kernels.setdefault((1, 1), self.p)

    def __getitem__(self, jk) -> KernelJet:
        j, k = jk
        if not (0 <= j <= k and k >= 1):
            raise KeyError(f"S_({j},{k}) is not defined")
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
                new.label = f"S({j},{k + 1})"
                self.kernels[(j, k + 1)] = new
            top = compose(self.kernels[(k, k)], self.p)
            top.label = f"S({k + 1},{k + 1})"
            self.kernels[(k + 1, k + 1)] = top
            k += 1


def sjk_family(a: AnalyticField, b: AnalyticField, gamma: float,
               k_max: int, base_order: int = 0, grid_n: int = 96) -> KernelFamily:
    """Build all ``S_{j,k}`` with ``k <= k_max``.

    The base jet order leaves at least eight usable Taylor terms after
    the recursion spends one order per level.
    """
    if base_order == 0:
        base_order = k_max + 8
    fam = KernelFamily(a=a, b=b, gamma=gamma, base_order=base_order,
                       grid_n=grid_n)
    fam._extend_to(max(k_max, 1))
    return fam


def apply_kernel(S: KernelJet, g, xi: float, eta_val: float) -> float:
    """``int_{-gamma}^eta s(xi, eta, eta') g(eta') deta'`` on the grid.

    ``g`` is a callable of eta' (typically a sinogram row at this xi).
    """
    eta = S.eta
    if eta_val < eta[0] - 1e-12 or eta_val > eta[-1] + 1e-12:
        raise ValueError("eta outside the kernel grid")
    at = interpolation_matrix(eta, [eta_val])
    row = (at @ S.values(xi))[0]                       # s(xi, eta_val, .)
    gv = np.array([float(g(v)) for v in eta])
    return float((at @ _grid(eta)[1] @ (row * gv))[0])


@dataclass
class KernelBoundReport:
    constant: float
    beta: float
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


def verify_kernel_bounds(fam: KernelFamily, xi: float, k_max: int,
                         C: float = 0.0, beta: float = BETA) -> KernelBoundReport:
    """Check ``|s_{j,k}| <= (beta C)^(2k-j) (k-j)! (eta-eta')^(k-1)/(k-1)!``
    on the strict lower triangle of the grid at one xi."""
    if C <= 0:
        C = certified_constant(fam.p, fam.q)
    eta = fam.p.eta
    gap = eta[:, None] - eta[None, :]
    tri = gap > 0
    ratios = {}
    worst = 0.0
    for k in range(1, k_max + 1):
        for j in range(k + 1):
            vals = np.abs(fam[(j, k)].values(xi))
            den = (beta * C) ** (2 * k - j) * math.factorial(k - j) \
                * gap[tri] ** (k - 1) / math.factorial(k - 1)
            r = float((vals[tri] / den).max())
            ratios[(j, k)] = r
            worst = max(worst, r)
    return KernelBoundReport(constant=C, beta=beta, ratios=ratios, worst=worst)


def commutator_check(a: AnalyticField, b: AnalyticField, g, points,
                     h: float = 1e-4) -> float:
    """Residual of ``[D_a, D_b] g = -g (d_eta b + d_xi a)`` with
    ``D_a = d_eta + a`` and ``D_b = d_xi - b``, for a smooth callable g."""

    def Da(fn):
        def out(xi, eta):
            return (fn(xi, eta + h) - fn(xi, eta - h)) / (2 * h) \
                + float(a.value(xi, eta)) * fn(xi, eta)
        return out

    def Db(fn):
        def out(xi, eta):
            return (fn(xi + h, eta) - fn(xi - h, eta)) / (2 * h) \
                - float(b.value(xi, eta)) * fn(xi, eta)
        return out

    lhs_fn = Da(Db(g))
    rhs_fn = Db(Da(g))
    worst = 0.0
    for xi, eta in points:
        lhs = lhs_fn(xi, eta) - rhs_fn(xi, eta)
        d_eta_b = (float(b.value(xi, eta + h)) - float(b.value(xi, eta - h))) \
            / (2 * h)
        d_xi_a = float(a.dxi(xi, eta, 1))
        rhs = -g(xi, eta) * (d_eta_b + d_xi_a)
        worst = max(worst, abs(lhs - rhs))
    return worst
