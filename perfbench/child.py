"""One measured workload run in a fresh process.

    python3 perfbench/child.py --root R --subcommand S --config C --out O
        --seed N --result FILE [--units-seconds T] [--trace] [--setup-only]

The parent reads the clock just before starting this process; the time
``ready`` written to FILE marks the end of set-up (interpreter start,
``import localradon``, config load and the builders).  Then the process
runs ``localradon.cli.main`` once, and again while less than T seconds
have passed since the first call (one call when T is 0).  Each call is a
unit, timed from the call to its return, after its artifacts and manifest
are written to its own directory under O.  Peak memory is read before the
checks, which run outside the timed intervals.  The first unit gets every
check; each later unit passes the cheap output checks and must reproduce
the first unit's sinograms and artifacts exactly, so the oracle's verdict
on the first holds for it too.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..",
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def capture_sinograms():
    """Keep every ``(phantom, weight, Sinogram)`` the library returns; the
    CLI's CSV drops ``Sinogram.failed``, so the check reads it here."""
    from localradon import transform

    import spans

    captured = []
    original = transform.synthesize_sinogram

    def recording(f, m, *args, **kwargs):
        g = original(f, m, *args, **kwargs)
        captured.append((f, m, g))
        return g

    spans.rebind(spans.modules(), "transform", "synthesize_sinogram",
                 lambda fn: recording)
    return captured


def same_as_first(out, first, sinograms, first_sinograms):
    """Failures of a later unit to reproduce the first unit's outputs."""
    import numpy

    failures = []
    if len(sinograms) != len(first_sinograms) or not all(
            numpy.array_equal(g.values, g0.values)
            for (_, _, g), (_, _, g0) in zip(sinograms, first_sinograms)):
        failures.append("sinogram values differ from the first unit's")
    names = sorted(p.name for p in first.iterdir()
                   if p.is_file() and p.name != "manifest.json")
    _, mismatch, errors = filecmp.cmpfiles(first, out, names, shallow=False)
    failures += [f"{name} differs from the first unit's"
                 for name in mismatch + errors]
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--subcommand", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--units-seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import localradon
    from localradon import cli

    if not os.path.abspath(localradon.__file__).startswith(src + os.sep):
        raise RuntimeError(f"localradon imported from {localradon.__file__}")
    cfg = cli.load_config(args.config)
    cli.build_phantom(cfg)
    cli.build_weight(cfg)
    cli.build_test_function(cfg)
    result = {"ready": time.perf_counter()}
    if args.setup_only:
        Path(args.result).write_text(json.dumps(result))
        return 0

    import numpy
    import scipy

    import checks
    import spans

    captured = capture_sinograms()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    units_seconds = 0.0 if args.trace else args.units_seconds
    run_s, outs, sinograms = [], [], []
    first = time.perf_counter()
    while not run_s or (time.perf_counter() - first < units_seconds
                        and rc == 0):
        out = Path(args.out) / f"u{len(run_s)}"
        argv_cli = [args.subcommand, "--config", args.config, "--out",
                    str(out), "--seed", str(args.seed), "--quiet"]
        n_captured = len(captured)
        t0 = time.perf_counter()
        rc = cli.main(argv_cli)
        run_s.append(time.perf_counter() - t0)
        outs.append((out, rc))
        sinograms.append(captured[n_captured:])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result.update(run_s=run_s, peak_rss_mb=peak_kb / 1024.0,
                  versions={"python": sys.version.split()[0],
                            "numpy": numpy.__version__,
                            "scipy": scipy.__version__},
                  blas_threads=blas_threads())
    if tracer is not None:
        layers = spans.layer_metrics(tracer, run_s[0])
        layers["transform.failed_cells"] = float(checks.failed_cells(captured))
        layers["cli.artifact_bytes"] = float(sum(
            p.stat().st_size for p in outs[0][0].iterdir() if p.is_file()))
        result["layers"] = layers

    tol = float(cfg.get("tolerance", 1e-9))
    result["unit_failures"], result["l2_error"] = [], []
    for (out, rc), unit_sinograms in zip(outs, sinograms):
        failures = []
        if tracer is not None:
            failures += [f"trace: negative time {n}"
                         for n in spans.negative_times(result["layers"])]
        if rc != 0:
            failures.append(f"cli exit code {rc}")
        else:
            try:
                figure, found = checks.OUTPUT_CHECKS[args.subcommand](out)
                result["l2_error"].append(figure)
                failures += found
                n_failed = checks.failed_cells(unit_sinograms)
                if n_failed:
                    failures.append(
                        f"{n_failed} sinogram cells failed quadrature")
                if out == outs[0][0]:
                    failures += checks.oracle_check(unit_sinograms, tol,
                                                    args.seed)
                else:
                    failures += same_as_first(out, outs[0][0],
                                              unit_sinograms, sinograms[0])
            except Exception:  # a crashed check fails the unit, with why
                failures.append("check raised:\n" + traceback.format_exc())
        result["unit_failures"].append(failures)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
