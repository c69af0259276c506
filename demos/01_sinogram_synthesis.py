"""Synthesize weighted line-integral data for a bump phantom.

The phantom lives inside the parabola {y >= x^2}; lines are parametrized
as y = xi*x + eta.  We sample the transform on a grid, add seeded noise,
and write the result in the CSV format the command-line tool consumes.
"""

import numpy as np

from localradon.cli import write_sinogram_csv
from localradon.phantoms import smooth_bump
from localradon.transform import synthesize_sinogram
from localradon.weights import Weight, field_from_spec


def main():
    f = smooth_bump(center=(0.1, 0.45), width=0.3)
    print(f"phantom: bump at {f.center}, width {f.width}, "
          f"Lipschitz bound {f.holder_bound:.3f}")

    # weight m = exp(x xi), realized through the transport equation
    # d_xi m - x d_eta m = (x a + b) m with a = 1, b = 0
    m = Weight(field_from_spec("one"), field_from_spec("zero"))

    xi = np.linspace(-0.15, 0.15, 31)
    eta = np.linspace(-0.3, 0.6, 46)
    g = synthesize_sinogram(f, m, xi, eta, noise_sigma=1e-5, seed=7,
                            tol=1e-8)
    print(f"sinogram {g.values.shape}, max |g| = {np.abs(g.values).max():.4f}")

    write_sinogram_csv("sinogram_demo.csv", g)
    print("wrote sinogram_demo.csv")

    # rays that miss the support region give exactly zero
    row = g.values[:, np.searchsorted(eta, -0.25)]
    print(f"sub-parabola row max: {np.abs(row).max():.1e} (noise floor)")


if __name__ == "__main__":
    main()
