"""Build the triangular kernel family for a non-constant weight.

For weights defined by transport fields (a, b), moment extraction needs
a family of Volterra-type kernels S_{j,k} built by a recursion that
alternates multiplication, slope differentiation, and antiderivative
steps.  For the fields a = 1, b = 0 (weight m = exp(x*xi)) the family
has closed forms: S_{j,k}(eta, eta') = e^{eta'-eta} (eta-eta')^{k-1}
/ (k-1)! on the diagonal j = k and zero elsewhere.  This script checks
the action of the recursion-built kernels (an integral over eta' from
-gamma up to eta) against adaptive quadrature of the closed forms, then
certifies the factorial-growth envelope
|s_{j,k}| <= (beta*C)^(2k-j) (k-j)! gap^(k-1) / (k-1)!  with
beta = 1 + sqrt(3) for a generic field pair.
"""

import math

from scipy.integrate import quad

from localradon.kernels import (
    BETA,
    apply_kernel,
    sjk_family,
    verify_kernel_bounds,
)
from localradon.weights import field_from_spec

GAMMA = 0.3


def main():
    fam_exp = sjk_family(field_from_spec("one"), field_from_spec("zero"),
                         GAMMA, k_max=4)
    xi0, eta0 = 0.1, 0.2

    def g(eta):
        return math.sin(3.0 * eta)

    print("exponential-weight family vs closed form "
          "(action on g = sin(3 eta)):")
    for k in range(1, 5):
        got = apply_kernel(fam_exp[(k, k)], g, xi0, eta0)
        ref, _ = quad(
            lambda e: math.exp(e - eta0) * (eta0 - e) ** (k - 1)
            / math.factorial(k - 1) * g(e),
            -GAMMA, eta0)
        print(f"  k={k}: recursion {got:+.8e}  closed form {ref:+.8e}  "
              f"diff {abs(got - ref):.1e}")

    a = field_from_spec("0.5*sin_xi")
    b = field_from_spec("0.5*cos_eta")
    fam = sjk_family(a, b, GAMMA, k_max=4)
    rep = verify_kernel_bounds(fam, xi0, 4)
    print(f"\ngeneric family envelope: beta={BETA:.6f}, "
          f"C={rep.constant:.4f}")
    print(f"worst observed/allowed ratio: {rep.worst:.4f} (must be <= 1)")


if __name__ == "__main__":
    main()
