"""Benchmark of ``bloatlens analyze`` on seeded synthetic containers.

    python3 bench/run.py --workload layered-gz --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload pkg-graph --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --tiny

Run from anywhere; the program is imported from ``src/`` next to this
directory. One run generates the workload's inputs several times with
bench/gen.py in a child process (``setup_s`` is the median), then calls
``bloatlens.run_pipeline`` in this process, the way ``bloatlens analyze
--out DIR [--emit-tar]`` does, again and again for ``--seconds``. Every
analysis is checked; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

Analysis times are reported in reference-speed seconds: wall seconds
times CALIBRATION_REF_S over the mean time of a fixed calibration job
run just before and just after the analysis. On a shared host the same analysis
runs up to 2x slower for minutes at a time; the ratio cancels much of
that. The raw wall median goes to stderr. ``setup_s`` is the generator's
CPU time, scaled by calibrations just before and after each generation:
its wall time on that host mostly measures the state of the disk.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced analyses and reports the
per-layer metrics of the traced ones (see bench/spans.py); the spans of
the last traced analysis are written to .bench_work/<workload>.spans.json.
``--tiny`` runs every workload at a small scale in both modes and checks
the harness against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_SAMPLES = 3
TINY_SCALE = 0.05
# Median time of _calibrate() on the reference machine (2-vCPU VM,
# Python 3.11) in a quiet phase. Analysis times are reported scaled by
# this over the mean of the calibrations just before and after each one.
CALIBRATION_REF_S = 0.036
_CAL_RE = re.compile(r"/d(\d+)/f(\d*7)\.dat$")

sys.path.insert(0, str(BENCH))
from gen import WORKLOADS  # noqa: E402
from spans import QUERY_SPANS, Tracer  # noqa: E402


def _import_bloatlens():
    src = ROOT / "src"
    if not (src / "bloatlens" / "__init__.py").is_file():
        sys.exit(f"bench: no bloatlens sources under {src}")
    sys.path.insert(0, str(src))
    import bloatlens
    import bloatlens.report
    if Path(bloatlens.__file__).resolve().parent != src / "bloatlens":
        sys.exit(f"bench: imported bloatlens from {bloatlens.__file__}, not {src}")
    return bloatlens


def _declared() -> dict[str, dict[str, str]]:
    """Metric name -> unit, per kind, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        doc = json.load(f)
    return {kind: {m["name"]: m["unit"] for m in doc[kind]} for kind in ("end_to_end", "per_layer")}


def _calibrate() -> float:
    """Wall seconds of a fixed job with the program's mix of interpreter
    work: strings, dicts, sort, regex, json and zlib, a few MiB of it."""
    t0 = time.perf_counter()
    d: dict[str, int] = {}
    for i in range(18000):
        k = (i * 7919) % 18000
        path = f"/opt/app/data/d{k % 300:03d}/f{k:06d}.dat"
        d[path] = d.get(path, 0) + len(path)
    keys = sorted(d)
    sum(1 for k in keys if _CAL_RE.search(k))
    zlib.decompress(zlib.compress(json.dumps(keys).encode(), 6))
    return time.perf_counter() - t0


def _setup(workload: str, seed: int, scale: float, work: Path) -> tuple[float, dict]:
    """Generate the inputs SETUP_REPEATS times, each into a fresh directory;
    the median CPU time (user + system) of the generator process in
    reference-speed seconds, and the last generation's expected.json."""
    times = []
    for i in range(SETUP_REPEATS):
        out = work / f"in{i}"
        calibration = _calibrate()
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        subprocess.run([sys.executable, str(BENCH / "gen.py"), "--workload", workload,
                        "--seed", str(seed), "--scale", repr(scale), "--out", str(out)],
                       check=True)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        calibration = (calibration + _calibrate()) / 2
        cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
        times.append(cpu * CALIBRATION_REF_S / calibration)
    with open(out / "expected.json", encoding="utf-8") as f:
        return statistics.median(times), json.load(f)


class Analyses:
    """Runs and checks analyses of one generated workload."""

    def __init__(self, bloatlens, expected: dict, out: Path):
        self.bl = bloatlens
        # One before each analysis, in order, and one after the last.
        self.calibrations: list[float] = []
        self.expected = expected
        self.out = out
        cfg = expected["config"]
        self.config = bloatlens.PipelineConfig(
            rootfs=cfg.get("rootfs"), layers=tuple(cfg.get("layers", ())),
            trace=cfg["trace"], vuln_report=cfg["vuln_report"],
            out=str(out), emit_tar=cfg["emit_tar"])
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, tracer: Tracer | None = None):
        """One analysis, after a calibration: (its index, wall seconds or
        None if it raised, bundle or None if it failed)."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()
        self.calibrations.append(_calibrate())
        self.attempted += 1
        call = self.bl.report.run_pipeline
        if tracer is not None:
            call = tracer.wrap("run_pipeline", call)
            tracer.install(self.bl)
        try:
            t0 = time.perf_counter()
            bundle = call(self.config)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return self.attempted - 1, None, None
        finally:
            if tracer is not None:
                tracer.uninstall()
        problem = self._check(bundle)
        if problem:
            print(f"bench: analysis {self.attempted} failed: {problem}", file=sys.stderr)
            self.failed += 1
            return self.attempted - 1, wall, None
        return self.attempted - 1, wall, bundle

    def speed(self, i: int) -> float:
        """Machine speed around analysis ``i``, relative to the reference."""
        return CALIBRATION_REF_S / statistics.mean(self.calibrations[i:i + 2])

    def _check(self, bundle) -> str | None:
        # A digest, not the bytes: the reference must not add to the peak
        # RSS the analyses are measured by.
        with open(self.out / "bundle.json", "rb") as f:
            digest = hashlib.file_digest(f, "sha256").digest()
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            return "bundle.json differs from the first analysis"
        exp = self.expected
        if bundle.document["debloat"]["files_original"] != exp["files_original"]:
            return (f"files_original {bundle.document['debloat']['files_original']} "
                    f"!= {exp['files_original']}")
        counts = {m: 0 for m in exp["packages"]}
        for rec in bundle.catalog:
            counts[rec.manager] = counts.get(rec.manager, 0) + 1
        if counts != exp["packages"]:
            return f"packages per manager {counts} != {exp['packages']}"
        if sorted(bundle.graph.nodes) != exp["graph_nodes"]:
            return (f"graph has {len(bundle.graph.nodes)} nodes, "
                    f"expected {len(exp['graph_nodes'])}")
        return None

    def bytes_written(self) -> tuple[int, int]:
        """(report bytes, debloated.tar bytes) under the output directory."""
        tar = self.out / "debloated.tar"
        total = sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())
        tar_bytes = tar.stat().st_size if tar.exists() else 0
        return total - tar_bytes, tar_bytes


def _layer_metrics(tracer: Tracer, bundle, analyses: Analyses, traced_ok: set) -> dict:
    """Per-layer metrics of one traced analysis, times in wall seconds."""
    m = tracer.self_times()
    access = tracer.results["parse_trace"]
    doc = bundle.document["debloat"]
    report_bytes, tar_bytes = analyses.bytes_written()
    root = tracer.spans[0]
    m.update({
        "imagefs.reads": tracer.count("read"),
        "imagefs.entries": doc["files_original"],
        "imagefs.entries_per_s": doc["files_original"] / m["imagefs.ingest_s"],
        "imagefs.gz_backward_seeks": tracer.gz_backward_seeks,
        "trace.lines": access.stats.lines,
        "trace.lines_per_s": access.stats.lines / m["trace.parse_s"],
        "trace.matched_ratio": access.stats.matched / access.stats.lines,
        "trace.unparsed": access.stats.unparsed,
        "trace.unresolvable": access.stats.unresolvable,
        "trace.paths_missed": len(traced_ok - access.paths),
        "debloat.retained_files": doc["files_retained"],
        "debloat.tar_bytes": tar_bytes,
        "packages.count": len(bundle.catalog),
        "vuln.matches": len(bundle.vuln.removed) + len(bundle.vuln.retained),
        "vuln.removed": len(bundle.vuln.removed),
        "depgraph.queries": tracer.count(*QUERY_SPANS),
        "depgraph.nodes": len(bundle.graph.nodes),
        "depgraph.edges": len(bundle.graph.edges),
        "report.bytes_written": report_bytes,
        # The traced time; run() subtracts the untraced median.
        "tracing.overhead_s": root[2] - root[1],
    })
    return m


def _to_reference(row: dict, speed: float) -> dict:
    """Scale a metrics row's wall times and rates to reference speed."""
    def scaled(name: str, value: float) -> float:
        if name.endswith("_per_s"):
            return value / speed
        return value * speed if name.endswith("_s") else value
    return {k: scaled(k, v) for k, v in row.items()}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float = 1.0) -> dict:
    units = _declared()["per_layer" if trace else "end_to_end"]
    bloatlens = _import_bloatlens()
    logging.basicConfig(level=logging.ERROR, format="%(levelname)s %(name)s: %(message)s")
    os.environ["SOURCE_DATE_EPOCH"] = "1700000000"
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        setup_s, expected = _setup(workload, seed, scale, work)
        analyses = Analyses(bloatlens, expected, work / "out")
        traced_ok = set(expected["traced_ok"])
        analyses.run()   # warm-up, and the reference bundle.json
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline or len(untraced) < MIN_SAMPLES
               or (trace and len(traced) < MIN_SAMPLES)):
            # Keep no bundle across the next analysis, so that ru_maxrss
            # is the peak of one analysis alone.
            i, wall = analyses.run()[:2]
            if wall is not None:
                untraced.append((i, wall))
            if trace:
                tracer = Tracer()
                i, _, bundle = analyses.run(tracer)
                if bundle is not None:
                    traced.append((i, _layer_metrics(tracer, bundle, analyses, traced_ok)))
                    spans = tracer.records()
        # Speeds need the calibration after each analysis, so they come last.
        analyses.calibrations.append(_calibrate())
        walls = [wall for _, wall in untraced]
        speeds = [analyses.speed(i) for i, _ in untraced]
        times = [wall * speed for wall, speed in zip(walls, speeds)]
        layers = [_to_reference(row, analyses.speed(i)) for i, row in traced]
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not trace:
            access = bloatlens.parse_trace(analyses.config.trace)
            recall = len(access.paths & traced_ok) / len(traced_ok)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics: dict[str, float] = {}
    if trace and layers:
        metrics = {k: statistics.median(row[k] for row in layers) for k in layers[0]}
        metrics["tracing.overhead_s"] -= statistics.median(times)
        with open(WORK / f"{workload}.spans.json", "w", encoding="utf-8") as f:
            json.dump({"workload": workload, "seed": seed, "spans": spans}, f)
    elif not trace and times:
        metrics = {
            "setup_s": setup_s,
            "analyze_s": statistics.median(times),
            "analyze_p75_s": statistics.quantiles(times, n=4)[2],
            "peak_rss_mib": peak_rss_mib,
            "access_recall": recall,
        }
    if walls:
        print(f"bench: {len(walls)} untraced and {len(layers)} traced analyses; "
              f"untraced wall median {statistics.median(walls):.4f} s; "
              f"machine speed {statistics.median(speeds):.3f} of reference", file=sys.stderr)
    return {
        "correct": analyses.failed == 0 and bool(metrics),
        "attempted": analyses.attempted,
        "failed": analyses.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def tiny() -> int:
    """Run every workload small, in both modes, and check the harness."""
    declared = _declared()
    problems = []
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, 1, 0.2, trace, TINY_SCALE)
            want = declared["per_layer" if trace else "end_to_end"]
            tag = f"{workload} trace={int(trace)}"
            if not result["correct"]:
                problems.append(f"{tag}: {result['failed']} of {result['attempted']} failed")
            if set(result["metrics"]) != set(want):
                problems.append(f"{tag}: metrics {sorted(result['metrics'])} != {sorted(want)}")
            print(f"{tag}: {result['attempted']} analyses, {result['failed']} failed")
    for line in problems:
        print("bench: " + line, file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bloatlens analyze benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run every workload at a tiny scale and check the harness")
    args = parser.parse_args(argv)
    if args.tiny:
        return tiny()
    if args.workload is None:
        parser.error("--workload is required unless --tiny is given")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
