"""Command-line front end.

Subcommands expose the full pipeline (``analyze``) and the individual
stages (``debloat``, ``packages``, ``vulns``, ``graph``, ``report``).
Exit codes: 0 success, 2 input error, 3 contract violation, 4 partial
success with diagnostics. Fatal errors print a JSON error record to
stderr naming the offending flag where one applies. The ``BLOATLENS_LOG``
environment variable sets diagnostic verbosity (DEBUG, INFO, WARNING,
ERROR).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys

from ._version import __version__
from .debloat import debloat, materialize, render_manifest
from .depgraph import build_graph, to_dot, to_node_link
from .errors import (
    BloatlensError,
    ContractViolation,
    IngestError,
    InputError,
    MaterializeError,
    VulnReportError,
)
from .packages import detect_packages, load_rules, package_bloat_degree
from .report import (
    PipelineConfig,
    _dump_json,
    _load_image,
    load_any_report,
    run_pipeline,
    write_report_files,
)
from .trace import parse_trace
from .vuln import severity_table, surviving_cves, vuln_counts_by_package

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3
EXIT_PARTIAL = 4


def _add_image_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rootfs", help="extracted container rootfs directory")
    p.add_argument("--layers", nargs="+", default=[],
                   help="layer tars in base-first manifest order (a single "
                        "tar is treated as a flat image)")


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", help="syscall trace log of the workload")
    p.add_argument("--include-failed", action="store_true",
                   help="keep paths from failed syscalls")
    p.add_argument("--root-prefix", default="/",
                   help="container root as seen by the tracer")
    p.add_argument("--keep", action="append", default=[], metavar="GLOB",
                   help="always retain paths matching this glob (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bloatlens",
        description="Container bloat and vulnerability analysis toolkit",
    )
    parser.add_argument("--version", action="version", version=f"bloatlens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full analysis pipeline")
    _add_image_args(p)
    _add_trace_args(p)
    p.add_argument("--vuln-report", help="scanner report JSON (Grype or Trivy layout)")
    p.add_argument("--rules", help="functionality classification rule file")
    p.add_argument("--container-id", help="label used in reports")
    p.add_argument("--emit-tar", action="store_true",
                   help="also write the debloated filesystem as debloated.tar")
    p.add_argument("--out", required=False, help="output directory")

    p = sub.add_parser("debloat", help="compute the retained set and materialize it")
    _add_image_args(p)
    _add_trace_args(p)
    p.add_argument("--emit-tar", action="store_true")
    p.add_argument("--emit-rootfs", action="store_true",
                   help="materialize the debloated image as a rootfs directory")
    p.add_argument("--out", required=False)

    p = sub.add_parser("packages", help="detect installed packages")
    _add_image_args(p)
    p.add_argument("--rules", help="functionality classification rule file")
    p.add_argument("--out", required=False)

    p = sub.add_parser("vulns", help="compute CVE survival after debloating")
    _add_image_args(p)
    _add_trace_args(p)
    p.add_argument("--vuln-report", help="scanner report JSON")
    p.add_argument("--out", required=False)

    p = sub.add_parser("graph", help="build the package attribute graph")
    _add_image_args(p)
    _add_trace_args(p)
    p.add_argument("--vuln-report", help="scanner report JSON")
    p.add_argument("--rules", help="functionality classification rule file")
    p.add_argument("--out", required=False)

    p = sub.add_parser("report", help="regenerate tables and plots from a bundle")
    p.add_argument("--bundle", required=True, help="bundle.json from a previous run")
    p.add_argument("--out", required=True)
    return parser


def _require_out(args) -> str:
    if not args.out:
        raise InputError("an output directory is required", flag="--out")
    return args.out


def _config_from(args, **extra) -> PipelineConfig:
    return PipelineConfig(
        rootfs=getattr(args, "rootfs", None),
        layers=tuple(getattr(args, "layers", []) or []),
        trace=getattr(args, "trace", None),
        keep=tuple(getattr(args, "keep", []) or []),
        include_failed=getattr(args, "include_failed", False),
        root_prefix=getattr(args, "root_prefix", "/"),
        **extra,
    )


@contextlib.contextmanager
def _stage_inputs(args, need_trace: bool = True):
    """(config, fs, source, access) for a stage command; closes the source."""
    config = _config_from(args)
    fs, source = _load_image(config)
    with source:
        access = None
        if need_trace:
            if not config.trace:
                raise InputError("a trace log is required", flag="--trace")
            if not os.path.isfile(config.trace):
                raise InputError(f"trace log not found: {config.trace}", flag="--trace")
            access = parse_trace(config.trace, root_prefix=config.root_prefix,
                                 include_failed=config.include_failed)
        yield config, fs, source, access


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(text)


def _load_vuln_matches(path: str):
    if not path:
        raise InputError("a vulnerability report is required", flag="--vuln-report")
    if not os.path.isfile(path):
        raise InputError(f"vulnerability report not found: {path}", flag="--vuln-report")
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except json.JSONDecodeError as exc:
        raise VulnReportError(f"invalid JSON in {path}: {exc}") from exc
    return load_any_report(doc)


def _cmd_analyze(args) -> int:
    config = _config_from(
        args,
        vuln_report=args.vuln_report,
        rules=args.rules,
        container_id=args.container_id,
        emit_tar=args.emit_tar,
        out=_require_out(args),
    )
    bundle = run_pipeline(config)
    print(f"wrote {os.path.join(config.out, 'bundle.json')} "
          f"(d_c={bundle.debloat.d_c:.2f}, {len(bundle.catalog)} packages)")
    if bundle.partial_errors:
        print(json.dumps({"diagnostics": bundle.partial_errors}), file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


def _cmd_debloat(args) -> int:
    out = _require_out(args)
    with _stage_inputs(args) as (config, fs, source, access):
        result = debloat(fs, access, keep=config.keep)
        os.makedirs(out, exist_ok=True)
        _write(os.path.join(out, "manifest.tsv"), render_manifest(result.retained))
        _write(os.path.join(out, "debloat.json"), _dump_json({
            "s_c": result.s_c,
            "s_c_prime": result.s_c_prime,
            "d_c": round(result.d_c, 6),
            "files_original": len(fs.entries),
            "files_retained": len(result.retained.entries),
            "files_bloat": len(result.bloat.entries),
        }))
        if args.emit_rootfs:
            materialize(result.retained, source, os.path.join(out, "rootfs"), fmt="dir")
        if args.emit_tar:
            materialize(result.retained, source, os.path.join(out, "debloated.tar"), fmt="tar")
        print(f"d_c={result.d_c:.2f} ({result.s_c} -> {result.s_c_prime} bytes)")
        return EXIT_OK


def _cmd_packages(args) -> int:
    out = _require_out(args)
    with _stage_inputs(args, need_trace=False) as (config, fs, source, _):
        catalog = detect_packages(fs, source, load_rules(args.rules))
    doc = [
        {
            "manager": r.manager,
            "name": r.name,
            "version": r.version,
            "functionality": r.functionality,
            "size": r.size,
            "files": len(r.files),
            "declared_deps": [list(g) for g in r.declared_deps],
            "provides": list(r.provides),
        }
        for r in catalog
    ]
    _write(os.path.join(out, "catalog.json"), _dump_json(doc))
    print(f"detected {len(catalog)} packages")
    return EXIT_OK


def _cmd_vulns(args) -> int:
    out = _require_out(args)
    with _stage_inputs(args) as (config, fs, source, access):
        matches = _load_vuln_matches(args.vuln_report)
        result = debloat(fs, access, keep=config.keep)
        catalog = detect_packages(fs, source)
    diff = surviving_cves(matches, result.bloat, catalog)
    table = severity_table(diff)
    doc = {
        "removed": len(diff.removed),
        "retained": len(diff.retained),
        "reduction": round(diff.reduction, 6) if diff.reduction is not None else None,
        "severity_table": {
            "rows": [{"severity": s, "before": b, "after": a} for s, b, a in table.rows],
            "total_before": table.total_before,
            "total_after": table.total_after,
            "reduction_percent": table.reduction_percent,
        },
    }
    _write(os.path.join(out, "vulndiff.json"), _dump_json(doc))
    rows = ["severity,before,after"]
    rows += [f"{s},{b},{a}" for s, b, a in table.rows]
    rows.append(f"Total,{table.total_before},{table.total_after}")
    pct = "" if table.reduction_percent is None else f"{table.reduction_percent}%"
    rows.append(f"Reduction,,{pct}")
    _write(os.path.join(out, "severity_table.csv"), "\n".join(rows) + "\n")
    print(f"{len(diff.removed)} of {len(diff.removed) + len(diff.retained)} CVEs removed")
    return EXIT_OK


def _cmd_graph(args) -> int:
    out = _require_out(args)
    with _stage_inputs(args) as (config, fs, source, access):
        result = debloat(fs, access, keep=config.keep)
        catalog = detect_packages(fs, source, load_rules(args.rules))
    dp_map = {}
    for rec in catalog:
        dp_map.setdefault(rec.graph_key, package_bloat_degree(rec, result.bloat, fs))
    vuln_counts = {}
    if args.vuln_report:
        matches = _load_vuln_matches(args.vuln_report)
        vuln_counts = vuln_counts_by_package(matches, catalog)
    graph = build_graph(catalog, dp_map, vuln_counts)
    _write(os.path.join(out, "graph.json"), _dump_json(to_node_link(graph)))
    _write(os.path.join(out, "graph.dot"), to_dot(graph))
    print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"{len(graph.excluded)} unreachable packages excluded")
    return EXIT_OK


def _cmd_report(args) -> int:
    if not os.path.isfile(args.bundle):
        raise InputError(f"bundle not found: {args.bundle}", flag="--bundle")
    with open(args.bundle, "r", encoding="utf-8") as f:
        doc = json.load(f)
    write_report_files(doc, args.out)
    print(f"regenerated tables and plots under {args.out}")
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "debloat": _cmd_debloat,
    "packages": _cmd_packages,
    "vulns": _cmd_vulns,
    "graph": _cmd_graph,
    "report": _cmd_report,
}


def _error_record(exc: Exception, code: int) -> str:
    record = {"error": {"code": code, "message": str(exc)}}
    flag = getattr(exc, "flag", None)
    if flag:
        record["error"]["flag"] = flag
    return json.dumps(record)


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("BLOATLENS_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(_error_record(exc, EXIT_INPUT), file=sys.stderr)
        return EXIT_INPUT
    except ContractViolation as exc:
        print(_error_record(exc, EXIT_CONTRACT), file=sys.stderr)
        return EXIT_CONTRACT
    except (IngestError, MaterializeError, VulnReportError, BloatlensError) as exc:
        print(_error_record(exc, EXIT_INPUT), file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
