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


@dataclass(frozen=True)
class VulnMatch:
    """One scanner finding tied to a package and optionally to files."""

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


def _require(obj: Any, key: str, where: str, nullable: bool = False) -> Any:
    if not isinstance(obj, dict) or key not in obj:
        raise VulnReportError(f"missing required field at {where}.{key}")
    if obj[key] is None and not nullable:
        raise VulnReportError(f"{where}.{key} must not be null")
    return obj[key]


def _array(value: Any, where: str) -> list:
    """An optional array field: null or absent reads as empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise VulnReportError(f"{where} is not an array")
    return value


def _merged(findings: Iterable[tuple]) -> list[VulnMatch]:
    """One VulnMatch per (id, package, version), locations unioned. Each
    finding is (id, severity, name, version, locations, id_at, name_at); the
    last two are the JSON paths of its id and name in the report's layout."""
    merged: dict[tuple[str, str, str], tuple[str, set[str]]] = {}
    for cve, sev, name, version, locs, id_at, name_at in findings:
        if not isinstance(cve, str) or not cve:
            raise VulnReportError(f"{id_at} must be a non-empty string")
        if not name and not locs:
            raise VulnReportError(f"{name_at} must be non-empty for a finding without locations")
        sev = normalize_severity(sev)
        key = (cve, name, version)
        if key in merged:
            old_sev, old_locs = merged[key]
            if old_sev != sev:
                log.warning("conflicting severities for %s; keeping %s", key, old_sev)
            old_locs |= locs
        else:
            merged[key] = (sev, locs)
    out = [VulnMatch(cve_id=cve, severity=sev, pkg_name=name, pkg_version=version,
                     locations=frozenset(locs))
           for (cve, name, version), (sev, locs) in merged.items()]
    return sorted(out, key=lambda v: (v.cve_id, v.pkg_name, v.pkg_version))


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
    rows = _require(doc, key, "$") if isinstance(doc, dict) else doc
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
        where = f"$.matches[{i}]"
        vul = _require(m, "vulnerability", where)
        art = _require(m, "artifact", where)
        cve = _require(vul, "id", f"{where}.vulnerability")
        sev = str(_require(vul, "severity", f"{where}.vulnerability", nullable=True) or "")
        name = str(_require(art, "name", f"{where}.artifact"))
        version = str(_require(art, "version", f"{where}.artifact"))
        locs = set()
        at = f"{where}.artifact.locations"
        for j, loc in enumerate(_array(art.get("locations"), at)):
            locs.add(normalize_path("/", str(_require(loc, "path", f"{at}[{j}]"))))
        yield (cve, sev, name, version, locs,
               f"{where}.vulnerability.id", f"{where}.artifact.name")


def _trivy_findings(results: list) -> Iterator[tuple]:
    for i, res in enumerate(results):
        if not isinstance(res, dict):
            raise VulnReportError(f"$.Results[{i}] is not an object")
        at = f"$.Results[{i}].Vulnerabilities"
        for j, v in enumerate(_array(res.get("Vulnerabilities"), at)):
            where = f"{at}[{j}]"
            cve = _require(v, "VulnerabilityID", where)
            name = str(_require(v, "PkgName", where))
            yield (cve, str(v.get("Severity") or "Unknown"), name,
                   str(v.get("InstalledVersion") or ""), set(),
                   f"{where}.VulnerabilityID", f"{where}.PkgName")


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
    by_package: dict[str, int] = {}
    for match in matches:
        rec = exact.get((match.pkg_name, match.pkg_version)) or \
            normalized.get((canonical_pip_name(match.pkg_name), match.pkg_version))
        if rec is not None:
            by_package[rec.graph_key] = by_package.get(rec.graph_key, 0) + 1
        if match.locations:
            gone = all(loc in bloat.entries for loc in match.locations)
        elif rec is None:
            log.debug("no catalog package for %s %s; retaining %s conservatively",
                      match.pkg_name, match.pkg_version, match.cve_id)
            gone = False
        elif not rec.files:
            log.debug("package %s owns no files; retaining %s conservatively",
                      match.pkg_name, match.cve_id)
            gone = False
        else:
            gone = all(f in bloat.entries for f in rec.files)
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
