"""Check the structural identities of the weighted transform.

Two facts drive the whole reconstruction method:

* if the weight solves the transport equation
  d_xi m - x d_eta m = (x a + b) m, then the data of x*f and the data of
  f are tied together by first-order operators in (xi, eta);
* for the unweighted transform, the xi-derivative of order k composed
  with a (k-1)-fold eta-antiderivative reproduces the data of x^k f.

Both are checked here by finite differences and adaptive quadrature,
entirely independent of the moment-extraction code paths.
"""

from localradon.phantoms import smooth_bump
from localradon.transform import (
    check_moment_identity,
    check_transport_identity,
)
from localradon.weights import Weight, field_from_spec, pde_residual


def main():
    f = smooth_bump(center=(0.0, 0.45), width=0.35)
    points = [(0.0, 0.4), (0.05, 0.35)]

    for k in (1, 2, 3):
        res = check_moment_identity(f, k, points)
        print(f"moment identity k={k}: residual {res:.2e}")

    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")
    m = Weight(a, b)
    pde = pde_residual(m, a, b, [(0.2, 0.1, 0.3), (-0.3, -0.05, 0.25)])
    print(f"transport PDE residual of the synthesized weight: {pde:.2e}")

    res = check_transport_identity(f, m, a, b, points)
    print(f"transport identity residual: {res:.2e}")


if __name__ == "__main__":
    main()
