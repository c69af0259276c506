"""Benchmark of the localradon certified pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Run it from the root of a source checkout; it imports ``src/localradon``
from there and writes only under ``.bench_out/``.  One client runs one
workload run at a time (closed loop).  A run is a series of fresh
processes, each of which builds the inputs once and then calls
``localradon.cli.main`` repeatedly for up to ``CHILD_SECONDS``; every call
is a timed unit whose outputs are checked outside the timed interval.
Processes start while the next one is predicted to end within
``--seconds``; there is always at least one.

``--trace 0`` reports the end-to-end metrics: ``run_s`` and ``setup_s``
are medians over every unit and every set-up of the run.  ``--trace 1``
alternates an untraced and a traced process of one unit each and reports
the per-layer metrics of the traced unit with the median run time.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``; ``attempted`` counts units.
``--smoke`` runs the small-grid variant of the workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

from workloads import WORKLOADS, config_for

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 6     # fresh-process set-ups per --trace 0 run, at least
CHILD_SECONDS = 7.0   # one process repeats its unit for this long, at most
RUN_LIMIT_S = 170.0   # a whole run ends well inside three minutes
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
              "success_rate": "ratio", "l2_error": "unitless"}

PER_LAYER = [
    "cli.self_s", "cli.io_s", "cli.artifact_bytes",
    "transform.synth_s", "transform.lines", "transform.lines_per_s",
    "transform.line_ms_p50", "transform.line_ms_p98",
    "transform.quad_calls_per_line", "transform.nodes_per_line",
    "transform.nonzero_line_ratio", "transform.failed_cells",
    "phantoms.calls", "phantoms.points", "phantoms.busy_s",
    "weights.calls", "weights.points", "weights.busy_s",
    "kernels.self_s", "kernels.family_s", "kernels.base_s",
    "kernels.compose_calls", "kernels.compose_s",
    "kernels.zero_compose_ratio", "kernels.lattice_points", "kernels.max_k",
    "kernels.verify_s",
    "stability.self_s", "stability.calibrate_s", "stability.moments_s",
    "stability.reconstruct_s", "stability.data_norm_s",
    "means.self_s", "means.mean_profile_s", "means.points",
    "legendre.self_s", "legendre.map_s", "legendre.eval_s",
    "bumps.self_s", "bumps.derivative_s", "bumps.certify_s",
    "trace.run_s", "trace.overhead_s", "trace.unattributed_s",
]


def layer_unit(name: str) -> str:
    if name.endswith("_ms_p50") or name.endswith("_ms_p98"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


class Runner:
    """Spawns the measured child processes of one benchmark run."""

    def __init__(self, root: Path, workload, config_path: Path, seed: int,
                 scratch: Path):
        self.root = root
        self.workload = workload
        self.config_path = config_path
        self.seed = seed
        self.scratch = scratch
        self.started = time.perf_counter()
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **BLAS_ENV)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, trace=False, setup_only=False, units_seconds=0.0):
        """One fresh process; its result dict, with the failures of each
        unit in ``unit_failures`` (a crashed process is one failed unit)."""
        self.count += 1
        out = self.scratch / f"out{self.count}"
        result = self.scratch / f"result{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--root",
               str(self.root), "--subcommand", self.workload.subcommand,
               "--config", str(self.config_path), "--out", str(out),
               "--seed", str(self.seed), "--result", str(result),
               "--units-seconds", repr(units_seconds)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(self.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            return {"unit_failures": [["child timed out"]],
                    "timed_out": True}
        if proc.returncode != 0 or not result.exists():
            return {"unit_failures": [[f"child exited {proc.returncode}: "
                                       f"{proc.stderr[-2000:]}"]]}
        res = json.loads(result.read_text())
        res["setup_s"] = res["ready"] - spawned
        res["wall_s"] = time.perf_counter() - spawned
        res.setdefault("unit_failures", [])
        shutil.rmtree(out, ignore_errors=True)
        return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def timing_note(values) -> str:
    q1, q3 = quartiles(values)
    return (f"median of {len(values)}, q1 {q1:.4f}, q3 {q3:.4f}, "
            f"min {min(values):.4f}")


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((root / "src" / "localradon").glob("*.py")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(runner: Runner, seconds: float, trace: bool):
    """Start processes until the next one would end after ``seconds``.

    An untraced process repeats its unit for a slice sized to the time
    left: its fixed cost (set-up, checks) and one unit, both as the last
    process measured them, must fit after the slice.  A traced run
    alternates one-unit untraced and traced processes."""
    plain, traced = [], []
    fixed = unit = 0.0
    while True:
        t0 = time.perf_counter()
        left = seconds - (t0 - runner.started)
        units = 0.0 if trace or not plain else \
            min(CHILD_SECONDS, left - fixed - unit)
        plain.append(runner.child(units_seconds=units))
        if trace:
            traced.append(runner.child(trace=True))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - runner.started
        runs = plain[-1].get("run_s", [])
        if runs and not trace:
            fixed, unit = plain[-1]["wall_s"] - sum(runs), max(runs)
            last = fixed + unit
        timed_out = any(r.get("timed_out") for r in plain[-1:] + traced[-1:])
        if timed_out or elapsed + last > seconds \
                or last > runner.remaining() - 10.0:
            return plain, traced


def units_of(children, key):
    return [v for r in children for v in r.get(key, [])]


def end_to_end(plain, setups):
    runs = units_of(plain, "run_s")
    outcomes = units_of(plain, "unit_failures")
    attempted = len(outcomes)
    failed = sum(bool(f) for f in outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain
                                         if "peak_rss_mb" in r),
        "success_rate": 1.0 - failed / attempted,
        "l2_error": statistics.median(units_of(plain, "l2_error")
                                      or [math.nan]),
    }
    notes = {"setup_s": timing_note(setups), "run_s": timing_note(runs),
             "success_rate": f"error_rate {failed / attempted:.4g} "
                             f"({failed} of {attempted} units failed)"}
    return metrics, notes


def per_layer(plain, traced):
    done = sorted((r for r in traced if "layers" in r),
                  key=lambda r: r["run_s"][0])
    chosen = done[(len(done) - 1) // 2]["layers"]
    untraced = statistics.median(units_of(plain, "run_s"))
    metrics = {name: chosen.get(name, 0.0) for name in PER_LAYER}
    metrics["trace.overhead_s"] = chosen["trace.run_s"] - untraced
    return metrics, {"trace.run_s": f"traced iteration of median run time, "
                                    f"{len(done)} traced"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small grids, for the smoke test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "localradon" / "__init__.py").is_file():
        print("run from the root of a localradon checkout: "
              "src/localradon is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    (root / ".bench_out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-",
                                    dir=root / ".bench_out"))
    try:
        config_path = scratch / "config.yaml"
        config_path.write_text(yaml.safe_dump(config_for(workload.name,
                                                         args.smoke)))
        runner = Runner(root, workload, config_path, args.seed, scratch)
        plain, traced = measure(runner, args.seconds, bool(args.trace))
        setups = [r["setup_s"] for r in plain if "setup_s" in r]
        while not args.trace and len(setups) < SETUP_SAMPLES \
                and runner.remaining() > 10.0:
            res = runner.child(setup_only=True)
            if "setup_s" not in res:
                plain.append(res)
                break
            setups.append(res["setup_s"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcomes = units_of(plain + traced, "unit_failures")
    attempted = len(outcomes)
    failed = sum(bool(f) for f in outcomes)
    for i, found in enumerate(outcomes):
        for msg in found:
            print(f"unit {i} failed: {msg}")
    if not any("run_s" in r for r in plain):
        print("no run completed", file=sys.stderr)
        return 1
    if args.trace:
        if not any("layers" in r for r in traced):
            print("no traced run completed", file=sys.stderr)
            return 1
        metrics, notes = per_layer(plain, traced)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics, notes = end_to_end(plain, setups)
        units = END_TO_END

    first = next(r for r in plain if "run_s" in r)
    info = {"workload": workload.name, "seed": args.seed, "smoke": args.smoke,
            "subcommand": workload.subcommand,
            "nproc": os.cpu_count(), "cpu": cpu_model(),
            **first["versions"], "blas_threads": first["blas_threads"],
            "src_localradon_lines": src_lines(root)}
    print("info " + json.dumps(info, sort_keys=True))
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"{name:32s} {value:14.6g} {units[name]:9s} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
