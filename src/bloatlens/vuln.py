"""Vulnerability report ingestion and CVE survival after debloating.

Reports are consumed offline as JSON. One reader, ``load_report``, takes
the subset of Grype's ``matches[]`` layout or of Trivy's ``Results[]``
layout documented in docs/vuln-reports.md. A CVE survives debloating
unless every file it is tied to was removed, so the reduction numbers stay
conservative.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Sequence

from .errors import VulnReportError
from .imagefs import FileSet, normalize_path
from .packages import PackageRecord, canonical_pip_name

log = logging.getLogger(__name__)

SEVERITIES = ("Critical", "High", "Medium", "Low", "Negligible")

# Scanner labels vary; anything outside the five levels maps to Negligible
# (with a diagnostic). The table ships in docs/vuln-reports.md.
_SEVERITY_ALIASES = {s.lower(): s for s in SEVERITIES} | {
    "unknown": "Negligible",
    "none": "Negligible",
    "": "Negligible",
}


@dataclass(frozen=True, slots=True)
class VulnMatch:
    """One scanner finding tied to a package and optionally to files. A VulnMatch
    a caller builds is checked; ``load_report`` builds its own through ``_match``."""

    cve_id: str
    severity: str
    pkg_name: str
    pkg_version: str
    locations: frozenset[str] = frozenset()

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")
        if not self.locations and not self.pkg_name:
            raise ValueError(f"{self.cve_id}: needs locations or a package name")


_SET_CVE, _SET_SEVERITY, _SET_NAME, _SET_VERSION, _SET_LOCATIONS = (
    VulnMatch.__dict__[name].__set__ for name in VulnMatch.__slots__)


def _match(key: tuple[str, str, str], severity: str, locations: set[str]) -> VulnMatch:
    """_merged's VulnMatch for an (id, name, version) key, built without ``__post_init__``:
    the severity is normalized, and the readers refuse a finding with no name or locations."""
    match = object.__new__(VulnMatch)
    _SET_CVE(match, key[0])
    _SET_SEVERITY(match, severity)
    _SET_NAME(match, key[1])
    _SET_VERSION(match, key[2])
    _SET_LOCATIONS(match, frozenset(locations))
    return match


@dataclass(frozen=True)
class VulnDiff:
    """Partition of matches into removed-by-debloating and retained, and the
    number of matches resolved to each catalog package."""

    removed: tuple[VulnMatch, ...]
    retained: tuple[VulnMatch, ...]
    reduction: float | None
    by_package: dict[str, int] = field(default_factory=dict)  # graph key -> findings


def normalize_severity(label: str) -> str:
    sev = _SEVERITY_ALIASES.get(label.strip().lower())
    if sev is None:
        log.warning("unknown severity %r; treating as Negligible", label)
        return "Negligible"
    return sev


def _fault(obj: Any, keys: tuple[str, ...], where: str, nullable: str = "") -> VulnReportError:
    """The error for the first of ``keys`` that ``obj``, at JSON path ``where``, lacks or holds
    as null (bar ``nullable``). Readers call it only to raise: a valid finding formats no path."""
    for key in keys:
        if not isinstance(obj, dict) or key not in obj:
            return VulnReportError(f"missing required field at {where}.{key}")
        if obj[key] is None and key != nullable:
            return VulnReportError(f"{where}.{key} must not be null")


def _merged(findings: Iterable[tuple]) -> list[VulnMatch]:
    """One VulnMatch per (id, name, version) of the findings, locations unioned, in key order."""
    merged: dict[tuple[str, str, str], tuple[str, set[str]]] = {}
    for cve, sev, name, version, locs in findings:
        if sev not in SEVERITIES:
            sev = normalize_severity(sev)
        first, kept = merged.setdefault((cve, name, version), (sev, locs))
        if first != sev:
            log.warning("conflicting severities for %s; keeping %s", (cve, name, version), first)
        kept |= locs
    return [_match(key, *merged[key]) for key in sorted(merged)]


def load_report(doc: Any) -> list[VulnMatch]:
    """Parse a decoded scanner report into VulnMatch rows.

    A document with ``Results`` and no ``matches`` is read in Trivy's
    Results[].Vulnerabilities[] layout, which carries no per-file locations,
    so its matches fall back to package-file coverage during survival
    analysis. Any other document is Grype's {"matches": [...]} or the bare
    array. Duplicate (cve, package, version) entries are merged with their
    locations unioned. Schema violations are fatal and name the JSON path of
    the offending field in the document's layout.
    """
    trivy = isinstance(doc, dict) and "Results" in doc and "matches" not in doc
    key, findings = ("Results", _trivy_findings) if trivy else ("matches", _grype_findings)
    rows = doc.get(key) if isinstance(doc, dict) else doc
    if rows is None and isinstance(doc, dict):
        raise _fault(doc, (key,), "$")
    if not isinstance(rows, list):
        raise VulnReportError(f"$.{key} is not an array")
    return _merged(findings(rows))


def load_any_report(path: str) -> list[VulnMatch]:
    """Read a scanner report file with ``load_report``. Unreadable JSON, or
    JSON nested deeper than the recursion limit, is a VulnReportError, as a
    schema error is."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError, UnicodeDecodeError
        raise VulnReportError(str(exc)) from exc
    return load_report(doc)


def _grype_findings(matches: list) -> Iterator[tuple]:
    for i, m in enumerate(matches):
        if not (isinstance(m, dict) and m.get("vulnerability") is not None
                and m.get("artifact") is not None):
            raise _fault(m, ("vulnerability", "artifact"), f"$.matches[{i}]")
        vul, art = m["vulnerability"], m["artifact"]
        if not (isinstance(vul, dict) and vul.get("id") is not None and "severity" in vul):
            raise _fault(vul, ("id", "severity"), f"$.matches[{i}].vulnerability", "severity")
        if not (isinstance(art, dict) and art.get("name") is not None
                and art.get("version") is not None):
            raise _fault(art, ("name", "version"), f"$.matches[{i}].artifact")
        locs, rows = set(), art.get("locations")
        if rows is not None and not isinstance(rows, list):
            raise VulnReportError(f"$.matches[{i}].artifact.locations is not an array")
        for j, loc in enumerate(rows or ()):
            if not isinstance(loc, dict) or loc.get("path") is None:
                raise _fault(loc, ("path",), f"$.matches[{i}].artifact.locations[{j}]")
            locs.add(normalize_path("/", str(loc["path"])))
        cve, name = vul["id"], str(art["name"])
        if not isinstance(cve, str) or not cve:
            raise VulnReportError(f"$.matches[{i}].vulnerability.id must be a non-empty string")
        if not name and not locs:
            raise VulnReportError(f"$.matches[{i}].artifact.name must be non-empty "
                                  "for a finding without locations")
        yield cve, str(vul["severity"] or ""), name, str(art["version"]), locs


def _trivy_findings(results: list) -> Iterator[tuple]:
    for i, res in enumerate(results):
        if not isinstance(res, dict):
            raise VulnReportError(f"$.Results[{i}] is not an object")
        vulns = res.get("Vulnerabilities")
        if vulns is not None and not isinstance(vulns, list):
            raise VulnReportError(f"$.Results[{i}].Vulnerabilities is not an array")
        for j, v in enumerate(vulns or ()):
            if not (isinstance(v, dict) and v.get("VulnerabilityID") is not None
                    and v.get("PkgName") is not None):
                raise _fault(v, ("VulnerabilityID", "PkgName"),
                             f"$.Results[{i}].Vulnerabilities[{j}]")
            cve, name = v["VulnerabilityID"], str(v["PkgName"])
            if not isinstance(cve, str) or not cve:
                raise VulnReportError(f"$.Results[{i}].Vulnerabilities[{j}].VulnerabilityID "
                                      "must be a non-empty string")
            if not name:
                raise VulnReportError(f"$.Results[{i}].Vulnerabilities[{j}].PkgName must be "
                                      "non-empty for a finding without locations")
            yield (cve, str(v.get("Severity") or "Unknown"), name,
                   str(v.get("InstalledVersion") or ""), set())


def surviving_cves(matches: Iterable[VulnMatch], bloat: FileSet,
                   catalog: Sequence[PackageRecord] = ()) -> VulnDiff:
    """Decide which findings debloating removed, and count them per package.

    Each match resolves to the first catalog record with its exact (name,
    version), else to the first with its PEP 503 name and version; the
    resolved records' graph keys are counted in ``by_package``. A match is
    removed iff all of its file locations lie in the bloat set, or, lacking
    locations, iff its record has files and every one of them lies in the
    bloat set. Matches without locations whose record is absent or owns no
    files are retained conservatively.
    """
    exact: dict[tuple[str, str], PackageRecord] = {}
    normalized: dict[tuple[str, str], PackageRecord] = {}
    for rec in catalog:
        exact.setdefault((rec.name, rec.version), rec)
        normalized.setdefault((canonical_pip_name(rec.name), rec.version), rec)
    removed, retained = [], []
    bloat_paths = bloat.entries.keys()
    by_package: dict[str, int] = {}
    resolved: dict[tuple[str, str], tuple[PackageRecord | None, str | None]] = {}
    for match in matches:
        pkg = (match.pkg_name, match.pkg_version)
        if pkg not in resolved:
            rec = exact.get(pkg) or normalized.get((canonical_pip_name(pkg[0]), pkg[1]))
            resolved[pkg] = (rec, rec and rec.graph_key)
        rec, key = resolved[pkg]
        if key is not None:
            by_package[key] = by_package.get(key, 0) + 1
        if match.locations:
            gone = match.locations <= bloat_paths
        elif rec is None:
            log.debug("no catalog package for %s %s; retaining %s conservatively",
                      match.pkg_name, match.pkg_version, match.cve_id)
            gone = False
        elif not rec.files:
            log.debug("package %s owns no files; retaining %s conservatively",
                      match.pkg_name, match.cve_id)
            gone = False
        else:
            gone = rec.files <= bloat_paths
        (removed if gone else retained).append(match)
    total = len(removed) + len(retained)
    reduction = len(removed) / total if total else None
    return VulnDiff(tuple(removed), tuple(retained), reduction, by_package)


@dataclass(frozen=True)
class SeverityTable:
    """Per-severity CVE counts before and after debloating."""

    rows: tuple[tuple[str, int, int], ...]  # (severity, before, after)
    total_before: int
    total_after: int
    reduction_percent: int | None


def severity_table(diff: VulnDiff) -> SeverityTable:
    """Tabulate counts by severity; reduction is rendered as a whole percent."""
    before = {s: 0 for s in SEVERITIES}
    after = {s: 0 for s in SEVERITIES}
    for m in diff.removed:
        before[m.severity] += 1
    for m in diff.retained:
        before[m.severity] += 1
        after[m.severity] += 1
    total_before = sum(before.values())
    total_after = sum(after.values())
    if total_before:
        reduction = int((1 - total_after / total_before) * 100 + 0.5)
    else:
        reduction = None
    return SeverityTable(
        rows=tuple((s, before[s], after[s]) for s in SEVERITIES),
        total_before=total_before,
        total_after=total_after,
        reduction_percent=reduction,
    )
