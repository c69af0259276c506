"""The benchmark's tracer rebinds names of the package (perfbench/spans.py);
a traced run fails when one of them is gone, so deleting such a name fails
here too, not only in the benchmark's own smoke tests."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_tracer_installs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    done = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
