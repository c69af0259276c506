"""Recover power moments of vertical-interval means from line data.

The mean M[f](x) averages the phantom over a short vertical interval
near y = gamma, weighted by a compactly supported test function in the
slope variable.  Its power moments can be read off the sinogram alone:
integrate the data against derivatives of the test function.  This
script compares moments extracted from a synthesized sinogram with
moments computed directly from the phantom.
"""

import numpy as np

from localradon.bumps import hormander_sequence
from localradon.means import mean_profile
from localradon.phantoms import smooth_bump
from localradon.stability import moments_from_sinogram_unweighted
from localradon.transform import synthesize_sinogram
from localradon.weights import constant_weight, gauss_nodes

EPS, GAMMA = 0.1, 0.3


def main():
    f = smooth_bump(center=(0.0, 0.45), width=0.35)
    phi = hormander_sequence(8)

    xi = np.linspace(-0.13, 0.13, 41)
    eta = np.linspace(-0.35, 0.35, 169)
    g = synthesize_sinogram(f, constant_weight(), xi, eta, tol=1e-12)
    print(f"sinogram {g.values.shape} synthesized")

    # direct moments of the mean profile, via Gauss quadrature
    t, w = gauss_nodes(320)
    prof = mean_profile(f, constant_weight(), phi, EPS, GAMMA, x_grid=t)
    ref = np.array([float(np.sum(w * t**k * prof.values)) for k in range(7)])

    got = moments_from_sinogram_unweighted(g, phi, EPS, GAMMA, 6)

    print(f"{'k':>2} {'from data':>14} {'direct':>14} {'rel err':>10}")
    for k in range(7):
        denom = max(abs(ref[k]), 1e-9 * abs(ref[0]))
        rel = abs(got.values[k] - ref[k]) / denom
        print(f"{k:>2} {got.values[k]:>14.6e} {ref[k]:>14.6e} {rel:>10.2e}")


if __name__ == "__main__":
    main()
