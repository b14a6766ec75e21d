"""The benchmark harness at smoke size: every workload, both modes."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tiny_runs(tmp_path):
    # A copy, so the run's .bench_work/ leaves the spans of real bench runs alone.
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for tree in ("bench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--tiny"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
