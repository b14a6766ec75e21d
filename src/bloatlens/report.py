"""Pipeline orchestration and report generation.

``open_inputs`` reads one container's inputs into an :class:`Analysis`,
which runs each stage (debloat -> packages -> vulnerabilities ->
dependency graph) when an output first needs it. ``run_pipeline`` builds
the analysis's serializable document, written as ``bundle.json``.
Every CSV table and plot-data file the toolkit emits is
derived from that document alone, so reports can be regenerated without
re-ingesting the container. Output bytes are deterministic for identical
inputs; the provenance timestamp honors ``SOURCE_DATE_EPOCH``.
"""

from __future__ import annotations

import bisect
import contextlib
import csv
import hashlib
import io
import json
import logging
import math
import os
import statistics
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property
from typing import Callable, Sequence

from ._version import __version__
from .debloat import DebloatResult, create_output, debloat, materialize, render_manifest
from .depgraph import (
    PackageAttrGraph,
    build_graph,
    closure_sizes,
    depth_correlations,
    pd_aggregate,
    pd_set,  # noqa: F401  bench/spans.py wraps these names
    pr_set,  # noqa: F401
    to_dot,
    to_node_link,
)
from .errors import ContractViolation, InputError, VulnReportError
from .imagefs import (
    REGULAR,
    ContentSource,
    FileSet,
    FlatTarSource,  # noqa: F401  bench/spans.py wraps these names
    LayeredSource,  # noqa: F401
    RootfsSource,  # noqa: F401
    load_flat_tar,  # noqa: F401
    load_layers,
    load_rootfs,
)
from .packages import (
    APT,
    CONDA,
    GENERIC,
    ML,
    PIP,
    PackageRecord,
    build_owner_index,
    category_breakdown,
    detect_packages,
    load_rules,
    package_bloat,
    package_bloat_degree,  # noqa: F401  bench/spans.py wraps this name
    quartile_summary,
    size_reduction_R,
)
from .trace import AccessSet, parse_trace
from .vuln import VulnDiff, VulnMatch, load_any_report, severity_table, surviving_cves

log = logging.getLogger(__name__)

PARETO_FRACTION = 0.8


def _r6(x: float) -> float:
    return round(x, 6)


# -- Plot-ready statistics ------------------------------------------------


def pareto_files(fs: FileSet, fraction: float) -> list[tuple[str, int, float]]:
    """Largest-first file prefix covering ``fraction`` of the total size.

    Regular files are sorted by size descending (ties by path ascending)
    and truncated at the first prefix whose cumulative size reaches
    fraction * total. Each row carries the cumulative fraction so far.
    """
    if not 0 < fraction <= 1:
        raise ContractViolation(f"fraction must be in (0, 1], got {fraction}")
    regs = sorted(
        (e for e in fs.entries.values() if e.kind == REGULAR),
        key=lambda e: (-e.size, e.path),
    )
    total = sum(e.size for e in regs)
    if total == 0:
        return []
    threshold = fraction * total
    rows = []
    cum = 0
    for e in regs:
        cum += e.size
        rows.append((e.path, e.size, cum / total))
        if cum >= threshold or math.isclose(cum, threshold, rel_tol=1e-9):
            break
    return rows


_HIST_BOUNDS = [i / 10 for i in range(1, 10)]


def bloat_degree_histogram(values: Sequence[float]) -> list[int]:
    """Counts in ten bins [0,0.1), ..., [0.9,1.0]; the last bin is closed."""
    counts = [0] * 10
    for v in values:
        if not 0 <= v <= 1:
            raise ContractViolation(f"bloat degree out of range: {v}")
        counts[bisect.bisect_right(_HIST_BOUNDS, v)] += 1
    return counts


def cdf_points(values: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF: one (value, cumulative probability) step per distinct
    value, in ascending order."""
    if not values:
        raise ContractViolation("cdf_points requires a nonempty value list")
    ordered = sorted(values)
    n = len(ordered)
    points = []
    for i, v in enumerate(ordered, start=1):
        if i == n or ordered[i] != v:
            points.append((v, i / n))
    return points


# -- Pipeline -------------------------------------------------------------


@dataclass
class PipelineConfig:
    """Inputs for one analysis run. Exactly one of rootfs/layers is set."""

    rootfs: str | None = None
    layers: tuple[str, ...] = ()
    trace: str | None = None
    vuln_report: str | None = None
    rules: str | None = None
    keep: tuple[str, ...] = ()
    include_failed: bool = False
    root_prefix: str = "/"
    container_id: str | None = None
    out: str | None = None
    emit_tar: bool = False


def _timestamp() -> str:
    """The provenance time: SOURCE_DATE_EPOCH when set, else now. A value
    that is no representable Unix time is an InputError."""
    sde = os.environ.get("SOURCE_DATE_EPOCH")
    try:
        t = int(sde) if sde else int(time.time())
        return datetime.fromtimestamp(t, timezone.utc).isoformat()
    except (ValueError, OverflowError, OSError):
        raise InputError(f"not a Unix time: {sde!r}", flag="SOURCE_DATE_EPOCH") from None


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@contextlib.contextmanager
def open_inputs(config: PipelineConfig, need_trace: bool = True,
                need_report: bool = False):
    """Check every input the config names, read the rules and the
    vulnerability report, then load the image, take each report location to
    the entry its ``FileSet.lookup`` names, and parse the trace (if named);
    yields them as an :class:`Analysis` and closes the source. Inputs are
    checked here alone, before any ingest: a bad or absent required input is an
    InputError naming its flag, and an unreadable report a VulnReportError under
    ``need_report``. Otherwise the report is optional: an unreadable one gives
    ``matches`` None and a ``partial_errors`` line."""
    for path, needed, what, flag in (
            (config.trace, need_trace, "trace log", "--trace"),
            (config.vuln_report, need_report, "vulnerability report", "--vuln-report"),
            (config.rules, False, "rules file", "--rules")):
        if needed and not path:
            raise InputError(f"a {what} is required", flag=flag)
        if path and not os.path.isfile(path):
            raise InputError(f"{what} not found: {path}", flag=flag)
    if bool(config.rootfs) == bool(config.layers):
        raise InputError("exactly one of --rootfs or --layers is required",
                         flag="--rootfs")
    if config.rootfs and not os.path.isdir(config.rootfs):
        raise InputError(f"rootfs directory not found: {config.rootfs}", flag="--rootfs")
    for layer in config.layers:
        if not os.path.isfile(layer):
            raise InputError(f"layer tar not found: {layer}", flag="--layers")
    rules = load_rules(config.rules)
    matches, partial_errors = None, []
    if config.vuln_report:
        try:
            matches = load_any_report(config.vuln_report)
        except VulnReportError as exc:
            if need_report:
                raise
            partial_errors.append(f"vulnerability report ignored: {exc}")
            log.error("%s", partial_errors[0])

    if config.rootfs:
        fs, source = load_rootfs(config.rootfs)
    else:  # every tar is a layer; a single tar is a one-layer image
        fs, source = load_layers(config.layers)
    with source:
        if matches:  # rebuild only a match whose locations move, as replace() revalidates
            matches = [m if m.locations <= fs.entries.keys() else replace(
                m, locations=frozenset(map(fs.lookup, m.locations))) for m in matches]
        access = None
        if config.trace:
            access = parse_trace(config.trace, root_prefix=config.root_prefix,
                                 include_failed=config.include_failed)
        yield Analysis(config, fs, source, access, rules, matches, partial_errors)


@dataclass
class Analysis:
    """One container's inputs, as ``open_inputs`` read them, and its stages, each run
    once, when an output first needs it. A stage reads its inputs in the pipeline's
    order (debloat before packages), so their warnings keep that order. Stage functions
    are looked up in this module when called, so a wrapper set on a name sees each call."""

    config: PipelineConfig
    fs: FileSet
    source: ContentSource
    access: AccessSet | None
    rules: tuple[str, ...]
    matches: list[VulnMatch] | None  # None without a readable vulnerability report
    partial_errors: list[str]
    document: dict | None = None  # bundle.json's document, once run_pipeline builds it

    @cached_property
    def container_id(self) -> str:
        name = os.path.basename(os.path.normpath(self.config.rootfs or self.config.layers[0]))
        return self.config.container_id or name or "container"

    @cached_property
    def debloat(self) -> DebloatResult:
        return debloat(self.fs, self.access, keep=self.config.keep)

    @cached_property
    def catalog(self) -> list[PackageRecord]:
        return detect_packages(self.fs, self.source, self.rules)

    @cached_property
    def rows(self) -> list[tuple[PackageRecord, int, float]]:
        """(record, bloat bytes, d_p) of each catalog package."""
        bloat = self.debloat.bloat
        return [(rec, *package_bloat(rec, bloat, self.fs)) for rec in self.catalog]

    @cached_property
    def vuln(self) -> VulnDiff | None:
        if self.matches is None:
            return None
        return surviving_cves(self.matches, self.debloat.bloat, self.catalog)

    @cached_property
    def graph(self) -> PackageAttrGraph:
        """The attribute graph over the catalog, built from each graph key's d_p
        and the diff's per-package finding counts."""
        dp_map: dict[str, float] = {}
        for rec, _, dp in self.rows:
            dp_map.setdefault(rec.graph_key, dp)
        diff = self.vuln
        return build_graph(self.catalog, dp_map, diff.by_package if diff is not None else {})

    @cached_property
    def node_link(self) -> dict:
        """graph.json; the document's graph section extends it."""
        return to_node_link(self.graph)


def run_pipeline(config: PipelineConfig) -> Analysis:
    """Execute the full analysis and (if configured) write all outputs.

    Optional inputs produce partial bundles: without a vulnerability
    report the vuln section is null. A vulnerability report that is
    present but unreadable is recorded in ``partial_errors`` instead of
    aborting the run.
    """
    generated_at = _timestamp()
    with open_inputs(config) as analysis:
        analysis.document = _build_document(analysis, generated_at)
        if config.out:
            write_outputs(analysis)
        return analysis


def _provenance(config: PipelineConfig, fs: FileSet, generated_at: str) -> dict:
    inputs: dict[str, object] = {}
    digests: dict[str, object] = {"filesystem": hashlib.sha256(
        render_manifest(fs).encode("utf-8", "surrogateescape")).hexdigest()}
    if config.rootfs:
        inputs["rootfs"] = config.rootfs
    if config.layers:
        inputs["layers"] = list(config.layers)
        digests["layers"] = [_sha256_file(p) for p in config.layers]
    for field_name in ("trace", "vuln_report", "rules"):
        value = getattr(config, field_name)
        if value:
            inputs[field_name] = value
            digests[field_name] = _sha256_file(value)
    if config.keep:
        inputs["keep"] = list(config.keep)
    if config.include_failed:
        inputs["include_failed"] = True
    if config.root_prefix != "/":
        inputs["root_prefix"] = config.root_prefix
    return {
        "tool": "bloatlens",
        "version": __version__,
        "generated_at": generated_at,
        "inputs": inputs,
        "input_digests": digests,
    }


def _build_document(a: Analysis, generated_at: str) -> dict:
    fs, result, catalog, rows, diff, graph, node_link = (  # every stage, in order
        a.fs, a.debloat, a.catalog, a.rows, a.vuln, a.graph, a.node_link)
    owners = build_owner_index(catalog, fs)
    container_breakdown = category_breakdown(fs, owners)
    bloat_breakdown = category_breakdown(result.bloat, owners)

    dp_pairs = [(rec, dp) for rec, _, dp in rows]
    catalog_rows = []
    for rec, bloat_bytes, dp in rows:
        catalog_rows.append({
            "manager": rec.manager,
            "name": rec.name,
            "version": rec.version,
            "functionality": rec.functionality,
            "size": rec.size,
            "bloat_bytes": bloat_bytes,
            "files": len(rec.files),
            "d_p": _r6(dp),
        })

    quartiles = {}
    for manager in (APT, PIP, CONDA):
        values = [dp for rec, dp in dp_pairs if rec.manager == manager]
        if values:
            q = quartile_summary(values)
            quartiles[manager] = {"count": q.count, "mean": q.mean,
                                  "q1": q.q1, "q2": q.q2, "q3": q.q3}

    reductions, violin = {}, {}
    for label, functionality in (("ml", ML), ("generic", GENERIC)):
        group = [row for row in rows if row[0].functionality == functionality]
        r = size_reduction_R([(rec, dp) for rec, _, dp in group]) if group else None
        reductions[label] = _r6(r) if r is not None else None
        violin[label] = {
            "sizes": sorted(rec.size for rec, _, _ in group),
            "d_p": sorted(_r6(dp) for _, _, dp in group),
            "bloat_sizes": sorted(bloat_bytes for _, bloat_bytes, _ in group),
        }
        for series in ("sizes", "d_p", "bloat_sizes"):
            data = violin[label][series]
            violin[label][f"{series}_summary"] = {
                "min": data[0], "median": _r6(float(statistics.median(data))), "max": data[-1],
            } if data else dict.fromkeys(("min", "median", "max"))
    r_all = size_reduction_R(dp_pairs) if dp_pairs else None
    reductions["all"] = _r6(r_all) if r_all is not None else None
    dp_values = [dp for _, dp in dp_pairs]

    per_node = []
    for key in sorted(graph.nodes):
        avg_dp, pd_vulns = pd_aggregate(graph, key)
        pd, pr = closure_sizes(graph, key)
        per_node.append({
            "key": key,
            "depth": graph.nodes[key].depth,
            "pd": pd, "pr": pr,
            "pd_avg_d_p": _r6(avg_dp) if avg_dp is not None else None,
            "pd_total_vulns": pd_vulns,
        })
    correlations = {}
    for manager in (APT, PIP, CONDA):
        cor_pd, cor_pr = depth_correlations(graph, manager)
        correlations[manager] = {
            "depth_vs_pd": _r6(cor_pd) if cor_pd is not None else None,
            "depth_vs_pr": _r6(cor_pr) if cor_pr is not None else None,
        }
    cdfs = _cdf_section(per_node, graph)

    return {
        "container_id": a.container_id,
        "provenance": _provenance(a.config, fs, generated_at),
        "debloat": debloat_section(fs, result),
        "packages": {
            "catalog": catalog_rows,
            "quartiles_by_manager": quartiles,
            "size_reduction": reductions,
            "histogram_d_p": bloat_degree_histogram(dp_values) if dp_values else [0] * 10,
            "category_breakdown": {
                "container": _breakdown_doc(container_breakdown),
                "bloat": _breakdown_doc(bloat_breakdown),
            },
            "violin": violin,
        },
        "vuln": vuln_section(diff) if diff is not None else None,
        "graph": {
            **node_link,
            "per_node": per_node,
            "correlations": correlations,
            "cdfs": cdfs,
        },
        "pareto": {
            "fraction": PARETO_FRACTION,
            "original": [_pareto_row(r) for r in pareto_files(fs, PARETO_FRACTION)],
            "retained": [_pareto_row(r) for r in pareto_files(result.retained, PARETO_FRACTION)],
        },
        "partial_errors": list(a.partial_errors),
    }


def debloat_section(fs: FileSet, result: DebloatResult) -> dict:
    """bundle.json's debloat section; the debloat command writes it as debloat.json."""
    return {
        "s_c": result.s_c,
        "s_c_prime": result.s_c_prime,
        "d_c": _r6(result.d_c),
        "files_original": len(fs.entries),
        "files_retained": len(result.retained.entries),
        "files_bloat": len(result.bloat.entries),
    }


def _match_rows(matches) -> list[dict]:
    return [{
        "cve_id": m.cve_id,
        "severity": m.severity,
        "pkg_name": m.pkg_name,
        "pkg_version": m.pkg_version,
        "locations": sorted(m.locations),
    } for m in matches]


def _match_rows_text(rows: list[dict]) -> Rendered:
    """``dump_json(rows)[:-1]`` for rows built by _match_rows: each fills one template."""
    quote = json.encoder.encode_basestring_ascii
    row = ('{\n    "cve_id": %s,\n    "locations": %s,\n    "pkg_name": %s,\n'
           '    "pkg_version": %s,\n    "severity": %s\n  }')
    items = [row % (quote(r["cve_id"]),
                    "[\n      " + ",\n      ".join(map(quote, r["locations"])) + "\n    ]"
                    if r["locations"] else "[]",
                    quote(r["pkg_name"]), quote(r["pkg_version"]), quote(r["severity"]))
             for r in rows]
    return Rendered("[\n  " + ",\n  ".join(items) + "\n]" if items else "[]")


def vuln_section(diff: VulnDiff, partition=_match_rows) -> dict:
    """bundle.json's vuln section. ``partition`` renders the removed and the
    retained matches; the vulns command passes ``len`` for vulndiff.json."""
    table = severity_table(diff)
    return {
        "removed": partition(diff.removed),
        "retained": partition(diff.retained),
        "reduction": _r6(diff.reduction) if diff.reduction is not None else None,
        "severity_table": {
            "rows": [{"severity": s, "before": b, "after": a} for s, b, a in table.rows],
            "total_before": table.total_before,
            "total_after": table.total_after,
            "reduction_percent": table.reduction_percent,
        },
    }


def _pareto_row(row: tuple[str, int, float]) -> dict:
    path, size, cum = row
    return {"path": path, "size": size, "cumulative_fraction": _r6(cum)}


def _breakdown_doc(b) -> dict:
    return {
        "by_manager": {k: _r6(v) for k, v in b.by_manager.items()},
        "by_functionality": {k: _r6(v) for k, v in b.by_functionality.items()},
        "overlap_files": b.overlap_files,
        "total_bytes": b.total_bytes,
    }


def _cdf_section(per_node: list[dict], graph: PackageAttrGraph) -> dict:
    cdfs: dict[str, dict] = {}
    for manager in (APT, PIP, CONDA):
        rows = [r for r in per_node if graph.nodes[r["key"]].manager == manager]
        if not rows:
            continue
        section = {name: [[v, _r6(p)] for v, p in cdf_points([r[name] for r in rows])]
                   for name in ("pd", "pr", "pd_total_vulns")}
        avg_values = [r["pd_avg_d_p"] for r in rows if r["pd_avg_d_p"] is not None]
        if avg_values:
            section["pd_avg_d_p"] = [[_r6(v), _r6(p)] for v, p in cdf_points(avg_values)]
        cdfs[manager] = section
    return cdfs


# -- Output writing -------------------------------------------------------


def _scalar(o) -> str:
    """JSON text of a non-container, as ``json`` writes it."""
    if isinstance(o, float):
        if math.isfinite(o):
            return float.__repr__(o)
        return "NaN" if o != o else "Infinity" if o > 0 else "-Infinity"
    if isinstance(o, str):
        return json.encoder.encode_basestring_ascii(o)
    if o is None or o is True or o is False:
        return {None: "null", True: "true", False: "false"}[o]
    if isinstance(o, int):
        return int.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


class Rendered(str):
    """A subtree's JSON text as dump_json writes it at the top level, less the final newline;
    dump_json indents every line to splice it in (no JSON string holds a raw newline)."""


def dump_json(obj, sink: Callable[[str], object] | None = None) -> str | None:
    """``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``, byte for byte, in
    half the time: with ``indent`` set, ``json`` passes every chunk up
    through pure-Python generators, one per level of nesting. Given a
    ``sink``, the text goes to it block by block and is never held whole."""
    blocks, parts = [], []
    emit = sink or blocks.append
    append, containers = parts.append, (dict, list, tuple)
    quote = json.encoder.encode_basestring_ascii  # the C function json uses

    def write(o, inner: str) -> None:
        # ``inner`` starts each item's line. A loop shared by dicts and lists is 5-8% slower.
        if type(o) is Rendered:  # a block of its own: joined into one, it would be held twice
            emit("".join(parts))
            parts.clear()
            emit(o.replace("\n", inner[:-2]))
            return
        if not isinstance(o, containers):
            append(_scalar(o))
            return
        comma, deeper = "," + inner, inner + "  "
        if isinstance(o, dict):
            sep = "{" + inner
            for k in sorted(o):
                v = o[k]
                if not isinstance(k, str):  # json writes None, bool and number keys as str
                    k = _scalar(k)
                if type(v) is str:
                    append(f"{sep}{quote(k)}: {quote(v)}")
                elif type(v) is int:
                    append(f"{sep}{quote(k)}: {v}")
                else:
                    append(f"{sep}{quote(k)}: ")
                    write(v, deeper)
                sep = comma
            append(inner[:-2] + "}" if o else "{}")
        else:
            sep = "[" + inner
            for v in o:
                if type(v) is str:
                    append(sep + quote(v))
                elif type(v) is int:
                    append(f"{sep}{v}")
                else:
                    append(sep)
                    write(v, deeper)
                sep = comma
            append(inner[:-2] + "]" if o else "[]")
        if len(parts) >= 4096:  # one block in place of many small live strings
            emit("".join(parts))
            parts.clear()

    write(obj, "\n  ")
    del write  # it holds itself, so the cycle would keep every block alive until a GC pass
    emit("".join([*parts, "\n"]))
    return None if sink else "".join(blocks)


def open_output(out: str, name: str) -> io.TextIOWrapper:
    """``out/name`` opened to write UTF-8, creating ``out`` as needed but never through a link
    at ``out/name``; a surrogate escape (a file name that is not UTF-8) is written as its byte."""
    os.makedirs(out, exist_ok=True)
    return open(os.path.join(out, name), "w", encoding="utf-8", errors="surrogateescape",
                newline="", opener=create_output)


def write_text(out: str, name: str, text: str) -> None:
    """Write ``text`` as ``out/name`` through ``open_output``."""
    with open_output(out, name) as f:
        f.write(text)


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _fmt2(x) -> str:
    return "" if x is None else f"{x:.2f}"


def tables_from_document(doc: dict) -> dict[str, str]:
    """Render every CSV table from the bundle document alone."""
    tables: dict[str, str] = {}
    tables["container_bloat.csv"] = _csv_text(
        ["container_id", "s_c", "s_c_prime", "d_c"],
        [[doc["container_id"], doc["debloat"]["s_c"], doc["debloat"]["s_c_prime"],
          _fmt2(doc["debloat"]["d_c"])]],
    )
    tables["package_bloat_degrees.csv"] = _csv_text(
        ["manager", "name", "version", "functionality", "size", "bloat_bytes",
         "files", "d_p"],
        [[r["manager"], r["name"], r["version"], r["functionality"], r["size"],
          r["bloat_bytes"], r["files"], _fmt2(r["d_p"])]
         for r in doc["packages"]["catalog"]],
    )
    tables["quartiles_by_manager.csv"] = _csv_text(
        ["manager", "count", "mean", "q1", "q2", "q3"],
        [[m, q["count"], _fmt2(q["mean"]), _fmt2(q["q1"]), _fmt2(q["q2"]), _fmt2(q["q3"])]
         for m, q in sorted(doc["packages"]["quartiles_by_manager"].items())],
    )
    tables["size_reduction.csv"] = _csv_text(
        ["package_set", "R"],
        [[label, _fmt2(value)]
         for label, value in sorted(doc["packages"]["size_reduction"].items())],
    )
    breakdown_rows = []
    for scope in ("container", "bloat"):
        b = doc["packages"]["category_breakdown"][scope]
        for dimension, key in (("manager", "by_manager"), ("functionality", "by_functionality")):
            for category, value in sorted(b[key].items()):
                breakdown_rows.append([scope, dimension, category, _fmt2(value)])
    tables["category_breakdown.csv"] = _csv_text(
        ["scope", "dimension", "category", "proportion"], breakdown_rows)
    tables["package_dependency.csv"] = _csv_text(
        ["package", "depth", "pd", "pr", "pd_avg_d_p", "pd_total_vulns"],
        [[r["key"], r["depth"], r["pd"], r["pr"], _fmt2(r["pd_avg_d_p"]),
          r["pd_total_vulns"]] for r in doc["graph"]["per_node"]],
    )
    tables["depth_correlations.csv"] = _csv_text(
        ["manager", "cor_depth_pd", "cor_depth_pr"],
        [[m, _fmt2(c["depth_vs_pd"]), _fmt2(c["depth_vs_pr"])]
         for m, c in sorted(doc["graph"]["correlations"].items())],
    )
    if doc.get("vuln"):
        tables["severity_table.csv"] = severity_csv(doc["vuln"]["severity_table"])
    return tables


def severity_csv(table: dict) -> str:
    """severity_table.csv from the severity table section of a vuln section."""
    rows = [[r["severity"], r["before"], r["after"]] for r in table["rows"]]
    rows.append(["Total", table["total_before"], table["total_after"]])
    reduction = table["reduction_percent"]
    rows.append(["Reduction", "", "" if reduction is None else f"{reduction}%"])
    return _csv_text(["severity", "before", "after"], rows)


# Each plot file but the histogram holds one section of the bundle document.
_PLOT_SECTIONS = {
    "pareto_original.json": ("pareto", "original"), "pareto_retained.json": ("pareto", "retained"),
    "cdf_pd_pr.json": ("graph", "cdfs"), "violin_packages.json": ("packages", "violin"),
    "severity_table.json": ("vuln", "severity_table")}


def plots_from_document(doc: dict) -> dict[str, str]:
    """Render every plot-data JSON file from the bundle document alone."""
    plots = {"bloat_degree_histogram.json": dump_json({
        "bin_width": 0.1, "counts": doc["packages"]["histogram_d_p"]})}
    for name, (section, key) in _PLOT_SECTIONS.items():
        if section != "vuln" or doc.get("vuln"):  # null without a vulnerability report
            plots[name] = dump_json(doc[section][key])
    return plots


def write_report_files(doc: dict, out: str, view: dict | None = None) -> None:
    """tables/ and plots/ from the document; plots from ``view`` if given. A
    subdirectory that is a link is refused, since the files would land outside ``out``."""
    rendered = {"tables": tables_from_document(doc), "plots": plots_from_document(view or doc)}
    for subdir, files in rendered.items():
        directory = os.path.join(out, subdir)
        if os.path.islink(directory):
            raise InputError(f"cannot write under {directory}: a link is in the way",
                             flag="--out")
        for name, text in files.items():
            write_text(directory, name, text)


def write_graph(out: str, graph: PackageAttrGraph, node_link: dict) -> None:
    write_text(out, "graph.json", dump_json(node_link))
    write_text(out, "graph.dot", to_dot(graph))


def write_debloated(a: Analysis) -> None:
    """manifest.tsv, and with ``config.emit_tar`` the retained files as debloated.tar."""
    out, retained = a.config.out, a.debloat.retained
    write_text(out, "manifest.tsv", render_manifest(retained))
    if a.config.emit_tar:
        materialize(retained, a.source, os.path.join(out, "debloated.tar"), fmt="tar")


def write_outputs(a: Analysis) -> None:
    """bundle.json and every file derived from it under ``a.config.out``."""
    # The view renders once each section that graph.json or a plot file repeats.
    out, view = a.config.out, dict(a.document)
    for section, key in [("graph", "nodes"), ("graph", "edges"), *_PLOT_SECTIONS.values()]:
        if view[section] is not None:
            view[section] = {**view[section], key: Rendered(dump_json(view[section][key])[:-1])}
    if view["vuln"] is not None:
        view["vuln"] = {**view["vuln"], "removed": _match_rows_text(view["vuln"]["removed"]),
                        "retained": _match_rows_text(view["vuln"]["retained"])}
    with open_output(out, "bundle.json") as f:
        dump_json(view, f.write)
    write_graph(out, a.graph, {k: view["graph"][k] for k in a.node_link})
    write_report_files(a.document, out, view)
    write_debloated(a)
