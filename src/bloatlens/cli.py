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
import dataclasses
import json
import logging
import os
import sys

from ._version import __version__
from .debloat import check_rootfs_out, materialize
from .errors import BloatlensError, ContractViolation, InputError
from .report import (
    PipelineConfig,
    debloat_section,
    dump_json,
    open_inputs,
    run_pipeline,
    severity_csv,
    vuln_section,
    write_debloated,
    write_graph,
    write_report_files,
    write_text,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CONTRACT = 3
EXIT_PARTIAL = 4


def _add_image_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rootfs", help="extracted container rootfs directory")
    p.add_argument("--layers", nargs="+", default=[],
                   help="layer tars in base-first manifest order (every tar "
                        "is a layer; a single tar is a one-layer image)")
    p.add_argument("--out", help="output directory")


def _add_trace_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace", help="syscall trace log of the workload")
    p.add_argument("--include-failed", action="store_true",
                   help="keep paths from failed syscalls")
    p.add_argument("--root-prefix", default="/",
                   help="container root as seen by the tracer")
    p.add_argument("--keep", action="append", default=[], metavar="GLOB",
                   help="always retain paths matching this glob (repeatable); the "
                        "directory part before its first wildcard follows the image's links")


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

    p = sub.add_parser("debloat", help="compute the retained set and materialize it")
    _add_image_args(p)
    _add_trace_args(p)
    p.add_argument("--emit-tar", action="store_true")
    p.add_argument("--emit-rootfs", action="store_true",
                   help="materialize the debloated image as a rootfs directory")

    p = sub.add_parser("packages", help="detect installed packages")
    _add_image_args(p)
    p.add_argument("--rules", help="functionality classification rule file")

    p = sub.add_parser("vulns", help="compute CVE survival after debloating")
    _add_image_args(p)
    _add_trace_args(p)
    p.add_argument("--vuln-report", help="scanner report JSON")

    p = sub.add_parser("graph", help="build the package attribute graph")
    _add_image_args(p)
    _add_trace_args(p)
    p.add_argument("--vuln-report", help="scanner report JSON")
    p.add_argument("--rules", help="functionality classification rule file")

    p = sub.add_parser("report", help="regenerate tables and plots from a bundle")
    p.add_argument("--bundle", required=True, help="bundle.json from a previous run")
    p.add_argument("--out", required=True)
    return parser


def _config_from(args) -> PipelineConfig:
    """An image subcommand's config; fields without a flag there keep defaults."""
    if not args.out:
        raise InputError("an output directory is required", flag="--out")
    _check_out(args.out)
    values = {f.name: getattr(args, f.name) for f in dataclasses.fields(PipelineConfig)
              if hasattr(args, f.name)}
    values["layers"] = tuple(args.layers)
    values["keep"] = tuple(values.get("keep", ()))
    return PipelineConfig(**values)


def _check_out(out: str) -> None:
    """--out, or else its nearest existing ancestor, must be a writable
    directory, so a bad --out fails before any input is read; nothing is created."""
    path = os.path.abspath(out)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise InputError(f"cannot write under {path}: not a writable directory",
                         flag="--out")


# Each command returns the diagnostics of its partial success, if any.
def _cmd_analyze(args) -> list[str]:
    config = _config_from(args)
    bundle = run_pipeline(config)
    print(f"wrote {os.path.join(config.out, 'bundle.json')} "
          f"(d_c={bundle.debloat.d_c:.2f}, {len(bundle.catalog)} packages)")
    return bundle.partial_errors


def _cmd_debloat(args) -> list[str]:
    config = _config_from(args)
    rootfs = os.path.join(config.out, "rootfs")
    if args.emit_rootfs:  # before any input is read, as the --out check is
        check_rootfs_out(rootfs)
    with open_inputs(config) as a:
        result = a.debloat
        write_debloated(a)
        write_text(config.out, "debloat.json", dump_json(debloat_section(a.fs, result)))
        if args.emit_rootfs:
            materialize(result.retained, a.source, rootfs, fmt="dir")
    print(f"d_c={result.d_c:.2f} ({result.s_c} -> {result.s_c_prime} bytes)")
    return []


def _cmd_packages(args) -> list[str]:
    config = _config_from(args)
    with open_inputs(config, need_trace=False) as a:
        catalog = a.catalog
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
    write_text(config.out, "catalog.json", dump_json(doc))
    print(f"detected {len(catalog)} packages")
    return []


def _cmd_vulns(args) -> list[str]:
    config = _config_from(args)
    with open_inputs(config, need_report=True) as a:
        doc = vuln_section(a.vuln, partition=len)
    write_text(config.out, "vulndiff.json", dump_json(doc))
    write_text(config.out, "severity_table.csv", severity_csv(doc["severity_table"]))
    print(f"{doc['removed']} of {doc['removed'] + doc['retained']} CVEs removed")
    return []


def _cmd_graph(args) -> list[str]:
    config = _config_from(args)
    with open_inputs(config) as a:
        graph = a.graph
        write_graph(config.out, graph, a.node_link)
    print(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges, "
          f"{len(graph.excluded)} unreachable packages excluded")
    return a.partial_errors


def _cmd_report(args) -> list[str]:
    _check_out(args.out)
    if not os.path.isfile(args.bundle):
        raise InputError(f"bundle not found: {args.bundle}", flag="--bundle")
    try:  # the renderers read every section, so a missing or malformed one raises
        with open(args.bundle, "r", encoding="utf-8") as f:
            write_report_files(json.load(f), args.out)
    except (ValueError, KeyError, TypeError, AttributeError, OverflowError,
            RecursionError) as exc:
        raise InputError(f"not a bloatlens bundle ({type(exc).__name__}: {exc})",
                         flag="--bundle") from None
    print(f"regenerated tables and plots under {args.out}")
    return []


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
        partial_errors = _COMMANDS[args.command](args)
    except ContractViolation as exc:
        print(_error_record(exc, EXIT_CONTRACT), file=sys.stderr)
        return EXIT_CONTRACT
    except BloatlensError as exc:  # input, ingest, materialize and report errors
        print(_error_record(exc, EXIT_INPUT), file=sys.stderr)
        return EXIT_INPUT
    if partial_errors:
        print(json.dumps({"diagnostics": partial_errors}), file=sys.stderr)
        return EXIT_PARTIAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
