"""Smoke test of the benchmark on small grids.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload once untraced and once traced, from the repository
root, and checks that each named metric is printed with its unit and that
every output check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import END_TO_END, PER_LAYER, layer_unit
from spans import SELF_TIMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics(workload):
    text, res = result_of(bench(workload, 0))
    assert res["correct"], text
    assert res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == set(END_TO_END)
    for name, unit in END_TO_END.items():
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in text), name
    assert any("error_rate 0 " in line for line in text)
    info = json.loads(next(line for line in text
                           if line.startswith("info "))[5:])
    for key in ("nproc", "cpu", "python", "numpy", "scipy", "blas_threads",
                "src_localradon_lines"):
        assert key in info


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_metrics(workload):
    text, res = result_of(bench(workload, 1))
    assert res["correct"], text
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(metrics) == PER_LAYER
    for name in PER_LAYER:
        assert res["metrics"][name]["unit"] == layer_unit(name)
        assert any(line.split()[:1] == [name] for line in text), name
    accounted = sum(metrics[k] for k in SELF_TIMES) \
        + metrics["trace.unattributed_s"]
    assert accounted == pytest.approx(metrics["trace.run_s"], rel=1e-9)
    assert metrics["transform.failed_cells"] == 0
    if workload == "recon_generic":
        assert metrics["kernels.max_k"] == 4
        assert max(SELF_TIMES, key=metrics.get) == "kernels.self_s"
    else:
        assert metrics["kernels.compose_calls"] == 0


def test_refuses_tree_without_program(tmp_path):
    proc = bench("sweep_const", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
