"""End-to-end: noisy sinogram -> mean profile, with a certified bound.

Pipeline: calibrate the envelope constant, measure the data norm, pick a
truncation order from the noise level and the calibrated constants,
extract power moments, convert to a Legendre series, and evaluate it.  The same run is repeated across
noise levels; every observed error must sit below the explicit bound.
"""

import numpy as np

from localradon.bumps import hormander_sequence
from localradon.phantoms import smooth_bump
from localradon.stability import (
    A0,
    BoundConstants,
    reconstruct_mean,
    stability_curve,
)
from localradon.transform import synthesize_sinogram
from localradon.weights import constant_weight

EPS, GAMMA = 0.1, 0.3


def main():
    f = smooth_bump(center=(0.1, 0.45), width=0.3)
    phi = hormander_sequence(12)

    xi = np.linspace(-0.13, 0.13, 41)
    eta = np.linspace(-0.35, 0.35, 57)
    clean = synthesize_sinogram(f, constant_weight(), xi, eta, tol=1e-10)

    # every estimate calibrates c_env itself, at the order the pipeline
    # allows; it depends on phi, eps and gamma only, not on the data
    base = BoundConstants(c0=f.holder_bound, alpha=1.0)
    rec = reconstruct_mean(clean, phi, EPS, GAMMA, base)
    print(f"constants: A0={A0:.4f} (fixed), "
          f"C_env={rec.c_env:.4f} (calibrated by the estimates)")

    # each row is scored against the mean under the test function its
    # reconstruction used
    report = stability_curve(clean, f, constant_weight(), phi,
                             [1e-10, 1e-8, 1e-6, 1e-4], EPS, GAMMA, base)
    print(f"{'noise':>8} {'N':>3} {'l2 error':>12} {'bound':>12}")
    for row in report.rows:
        print(f"{row['sigma']:>8.0e} {row['N']:>3} "
              f"{row['l2_error']:>12.4e} {row['bound']:>12.4e}")
    ok = all(r["l2_error"] <= r["bound"] for r in report.rows)
    print("all errors below their bounds:", ok)


if __name__ == "__main__":
    main()
