"""Span tracing around the calls ``bloatlens.report`` makes into each layer.

The program itself has no timing hooks yet, so the benchmark installs
them from outside: while a :class:`Tracer` is installed, the public names
that ``bloatlens.report`` looks up at call time are replaced by wrappers
that record one span per call, the content sources' ``read`` methods are
wrapped the same way, and backward ``gzip.GzipFile.seek`` calls (each one
restarts decompression from the start of the member stream) are counted.
Uninstalling restores every original, so untraced analyses run the
unmodified program.
"""

from __future__ import annotations

import functools
import gzip
import io
import time

# Span name -> layer metric its self time is charged to. Every span that
# can occur is listed, so the self times of one analysis add up to the
# duration of its root span.
SELF_TIME_METRIC = {
    "run_pipeline": "report.self_s",
    "load_rootfs": "imagefs.ingest_s",
    "load_flat_tar": "imagefs.ingest_s",
    "load_layers": "imagefs.ingest_s",
    "RootfsSource": "imagefs.index_s",
    "FlatTarSource": "imagefs.index_s",
    "LayeredSource": "imagefs.index_s",
    "read": "imagefs.read_s",
    "parse_trace": "trace.parse_s",
    "debloat": "debloat.closure_s",
    "materialize": "debloat.materialize_s",
    "detect_packages": "packages.detect_s",
    "package_bloat_degree": "packages.dp_s",
    "load_any_report": "vuln.load_s",
    "surviving_cves": "vuln.survive_s",
    "build_graph": "depgraph.build_s",
    "pd_set": "depgraph.query_s",
    "pr_set": "depgraph.query_s",
    "pd_aggregate": "depgraph.query_s",
    "depth_correlations": "depgraph.query_s",
    "write_outputs": "report.write_s",
}

QUERY_SPANS = ("pd_set", "pr_set", "pd_aggregate", "depth_correlations")


class Tracer:
    """In-memory spans of one analysis: [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.results: dict[str, object] = {}   # last return value per name
        self.gz_backward_seeks = 0
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        spans, stack, results = self.spans, self.stack, self.results

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            results[name] = result
            return result

        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, value)

    def install(self, bloatlens) -> None:
        report = bloatlens.report
        names = [n for n in SELF_TIME_METRIC if n not in ("run_pipeline", "read")]
        # A name report no longer looks up would read as zero time and move
        # its cost silently into report.self_s; stop instead.
        missing = [n for n in names if not hasattr(report, n)]
        if missing:
            raise RuntimeError(f"bloatlens.report has no {', '.join(missing)}: "
                               f"update SELF_TIME_METRIC in bench/spans.py")
        for name in names:
            self._patch(report, name, self.wrap(name, getattr(report, name)))
        for cls in (bloatlens.RootfsSource, bloatlens.FlatTarSource, bloatlens.LayeredSource):
            self._patch(cls, "read", self.wrap("read", cls.read))

        original_seek = gzip.GzipFile.seek

        def seek(fileobj, offset, whence=io.SEEK_SET):
            if whence == io.SEEK_SET and offset < fileobj.tell():
                self.gz_backward_seeks += 1
            return original_seek(fileobj, offset, whence)

        self._patch(gzip.GzipFile, "seek", seek)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        """Self time (duration minus direct children) summed per metric."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys(SELF_TIME_METRIC.values(), 0.0)
        for (name, start, end, _), children in zip(self.spans, child_time):
            totals[SELF_TIME_METRIC[name]] += end - start - children
        return totals

    def count(self, *names: str) -> int:
        return sum(1 for span in self.spans if span[0] in names)

    def records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
