"""Output checks of one workload run, made after its timed interval.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
import warnings

import numpy as np
from scipy import integrate

ORACLE_CELLS = 3        # cells recomputed per sinogram
ORACLE_TIGHTEN = 100.0  # the oracle runs at the workload tolerance / this
ORACLE_SLACK = 10.0     # allowed deviation, in units of the tolerance


def _disk_crossing(f, xi, eta):
    """x-interval where the line y = xi x + eta crosses the phantom's bump
    disk (center, width), clipped to its x-extent; None if it misses."""
    cx, cy = f.center
    a = 1.0 + xi * xi
    b = 2.0 * (xi * (eta - cy) - cx)
    c = cx * cx + (eta - cy) ** 2 - f.width ** 2
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    ext = abs(cx) + f.width
    lo, hi = max((-b - root) / (2 * a), -ext), min((-b + root) / (2 * a), ext)
    return (lo, hi) if lo < hi else None


def oracle_line(f, m, xi, eta, tol):
    """``int f(x, xi x + eta) m(x, xi, eta) dx`` over the phantom's
    x-extent by scipy ``quad``, independent of ``transform.radon``."""
    ext = abs(f.center[0]) + f.width
    crossing = _disk_crossing(f, xi, eta)
    if crossing is None:
        return 0.0

    def integrand(x):
        return float(f(x, xi * x + eta)) * float(m(x, xi, eta))

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        val, _ = integrate.quad(integrand, -ext, ext, points=crossing,
                                epsabs=tol, epsrel=tol, limit=1000)
    return val


def oracle_check(captured, tol, seed):
    """Recompute a few seed-chosen cells of every captured sinogram.

    ``captured`` holds ``(f, m, sinogram)`` per ``synthesize_sinogram``
    call.  Seeded noise is the documented draw
    ``default_rng(seed).normal(0, sigma, shape)`` and is taken off the
    library values before comparing.
    """
    failures = []
    rng = np.random.default_rng(seed)
    for f, m, g in captured:
        cells = [(i, j) for i, xi in enumerate(g.xi)
                 for j, eta in enumerate(g.eta)
                 if _disk_crossing(f, xi, eta) is not None]
        if not cells:
            failures.append("oracle: no sinogram line meets the phantom")
            continue
        picks = rng.choice(len(cells), min(ORACLE_CELLS, len(cells)),
                           replace=False)
        values = g.values
        if g.noise_sigma > 0:
            noise = np.random.default_rng(g.provenance["seed"]).normal(
                0.0, g.noise_sigma, values.shape)
            values = values - noise
        for p in picks:
            i, j = cells[p]
            try:
                ref = oracle_line(f, m, g.xi[i], g.eta[j],
                                  tol / ORACLE_TIGHTEN)
            except integrate.IntegrationWarning as exc:
                failures.append(f"oracle quad failed at cell {i},{j}: {exc}")
                continue
            dev = abs(values[i, j] - ref)
            if dev > ORACLE_SLACK * tol * max(1.0, abs(ref)):
                failures.append(
                    f"oracle: cell ({g.xi[i]:.4g}, {g.eta[j]:.4g}) library "
                    f"{values[i, j]:.17g} vs quad {ref:.17g}")
    return failures


def failed_cells(captured):
    """Cells ``synthesize_sinogram`` flagged as quadrature failures."""
    return sum(int(g.failed.sum()) for _, _, g in captured
               if g.failed is not None)


def _rows(path):
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def sweep_output(out):
    """Every row at or under its bound; the figure is the worst L2 error."""
    rows = _rows(out / "sweep.csv")
    failures = [f"sweep: sigma={r['sigma']:.1e} error {r['l2_error']:.3e} "
                f"over bound {r['bound']:.3e}"
                for r in rows if not r["l2_error"] <= r["bound"]]
    if not rows:
        failures.append("sweep: no rows written")
    return max((r["l2_error"] for r in rows), default=math.nan), failures


def reconstruct_output(out):
    """The manifest's L2 error at or under its bound."""
    with open(out / "manifest.json") as fh:
        res = json.load(fh)["results"]
    failures = [] if res["l2_error"] <= res["bound"] else [
        f"reconstruct: error {res['l2_error']:.3e} over bound "
        f"{res['bound']:.3e}"]
    return res["l2_error"], failures


def counterexample_output(out):
    """Acceptance test 09's signature on the written table.

    lambda * |f_lambda| stays within a factor of two, the data-decay slopes
    steepen strictly and the last is below -3.  The figure is the relative
    spread of lambda * |f_lambda|, which the 1/lambda law sends to zero.
    """
    rows = _rows(out / "counterexample.csv")
    products = [r["lambda"] * r["f_norm"] for r in rows]
    slopes = [math.log(r2["data_norm"] / r1["data_norm"])
              / math.log(r2["lambda"] / r1["lambda"])
              for r1, r2 in zip(rows, rows[1:])]
    failures = []
    spread = max(products) / min(products)
    if spread > 2.0:
        failures.append(f"counterexample: lambda*|f| spread {spread:.3f} > 2")
    if not all(s2 < s1 for s1, s2 in zip(slopes, slopes[1:])):
        failures.append(f"counterexample: slopes do not steepen {slopes}")
    if not slopes or slopes[-1] >= -3.0:
        failures.append(f"counterexample: last slope {slopes} not below -3")
    return spread - 1.0, failures


OUTPUT_CHECKS = {
    "sweep": sweep_output,
    "reconstruct": reconstruct_output,
    "counterexample": counterexample_output,
}
