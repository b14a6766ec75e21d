"""The benchmark harness at smoke size: every workload, both modes."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tiny_runs():
    proc = subprocess.run([sys.executable, "bench/run.py", "--tiny"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
