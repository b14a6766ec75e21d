"""Installed-package detection and per-package bloat metrics.

Three package managers are covered, each through its on-disk metadata:

* APT: /var/lib/dpkg/status stanzas plus /var/lib/dpkg/info/<pkg>.list
  file lists, both split on newlines only, as dpkg writes them.
* PIP: <site-packages>/<name>-<version>.dist-info directories, file lists
  from RECORD, name, version and Requires-Dist from the METADATA header
  block, read as the email package's compat32 parser reads it.
* Conda: <env>/conda-meta/<name>-<version>-<build>.json documents.

Detection must run on the ORIGINAL filesystem: debloating may remove the
very metadata files parsed here.
"""

from __future__ import annotations

import csv
import fnmatch
import importlib.resources
import io
import json
import logging
import re
import statistics
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import InputError, MaterializeError
from .imagefs import REGULAR, ContentSource, FileSet, normalize_path

log = logging.getLogger(__name__)

APT = "apt"
PIP = "pip"
CONDA = "conda"
NON_PACKAGE = "non-package"

ML = "ml"
GENERIC = "generic"

# Priority used when one file is claimed by several managers (a Conda env
# overlaying pip installs, for instance). Container-level breakdowns count
# each file once under the highest-priority owner.
MANAGER_PRIORITY = (CONDA, PIP, APT)

PkgKey = tuple[str, str, str]  # (manager, name, version)

# What a detector reads from one install's metadata:
# (manager, name, version, files, declared_deps, provides)
_Found = tuple[str, str, str, frozenset[str], tuple[tuple[str, ...], ...], tuple[str, ...]]

_DPKG_STATUS = "/var/lib/dpkg/status"
_DPKG_INFO_DIR = "/var/lib/dpkg/info"
_DIST_INFO_RE = re.compile(r"^(?P<root>.*)/(?P<dir>[^/]+)\.dist-info/(?P<file>[^/]+)$")
_CONDA_META_RE = re.compile(r"^(?P<prefix>.*)/conda-meta/(?P<name>[^/]+)\.json$")
_REQ_NAME_RE = re.compile(r"^\s*(?P<name>[A-Za-z0-9][A-Za-z0-9._-]*)")
_PEP503_RUN_RE = re.compile(r"[-_.]+")
# A header line as email.feedparser splits and matches it: lead ('From ', 'name:', blank), rest, end
_HEADER_LINE_RE = re.compile(r"(From |[\041-\071\073-\176]*:|[\t ])([^\r\n]*)(\r\n|\r|\n|\Z)")


def canonical_pip_name(name: str) -> str:
    """PEP 503 normalization: lowercase, runs of -_. collapse to '-'."""
    return _PEP503_RUN_RE.sub("-", name).lower()


@dataclass(frozen=True)
class PackageRecord:
    """One installed package and the files it owns.

    ``declared_deps`` is a tuple of alternative groups: APT 'a | b'
    dependencies keep all alternatives in one group, PIP and Conda
    dependencies are single-name groups. ``size`` counts the regular-file
    bytes of the owned files that actually exist in the filesystem.
    """

    manager: str
    name: str
    version: str
    files: frozenset[str]
    declared_deps: tuple[tuple[str, ...], ...] = ()
    provides: tuple[str, ...] = ()
    functionality: str = GENERIC
    size: int = 0

    @property
    def key(self) -> PkgKey:
        return (self.manager, self.name, self.version)

    @property
    def graph_key(self) -> str:
        return f"{self.manager}:{self.name}"


def build_owner_index(catalog: Sequence[PackageRecord],
                      fs: FileSet) -> dict[str, tuple[PackageRecord, int]]:
    """Every owned path that exists in the filesystem -> (its owner, its number
    of owners). The owner is the first record in conda > pip > apt, then key, order."""
    owners: dict[str, tuple[PackageRecord, int]] = {}
    for rec in sorted(catalog, key=lambda r: (MANAGER_PRIORITY.index(r.manager), r.key)):
        for path in rec.files:
            if path in fs.entries:
                owner, count = owners.get(path, (rec, 0))
                owners[path] = (owner, count + 1)
    return owners


# -- APT ---------------------------------------------------------------


def _parse_deb_stanzas(text: str) -> Iterable[dict[str, str]]:
    """Split dpkg status text into field dicts (deb822 continuation rules)."""
    stanza: dict[str, str] = {}
    last_field = None
    for line in text.split("\n"):
        if not line.strip():
            if stanza:
                yield stanza
            stanza, last_field = {}, None
            continue
        if line[:1] in (" ", "\t"):
            if last_field:
                stanza[last_field] += "\n" + line.strip()
            continue
        if ":" not in line:
            continue
        field, _, value = line.partition(":")
        last_field = field.strip()
        stanza[last_field] = value.strip()
    if stanza:
        yield stanza


def _parse_dep_field(value: str) -> tuple[tuple[str, ...], ...]:
    """Parse a Depends-style field into alternative groups of bare names.

    Version constraints '(>= 1.0)' and architecture qualifiers ':any' are
    stripped; they do not matter for installed-set resolution.
    """
    groups = []
    for clause in value.split(","):
        clause = clause.strip()
        if not clause:
            continue
        alts = []
        for alt in clause.split("|"):
            name = alt.strip().split("(")[0].strip()
            name = name.split(":")[0].strip()
            if name:
                alts.append(name)
        if alts:
            groups.append(tuple(alts))
    return tuple(groups)


def _dpkg_list_paths(text: str) -> frozenset[str]:
    return frozenset(normalize_path("/", line) for line in map(str.strip, text.split("\n")) if line)


def _detect_apt(fs: FileSet, source: ContentSource) -> Iterator[_Found]:
    if _DPKG_STATUS not in fs.entries:
        log.debug("no dpkg database found at %s", _DPKG_STATUS)
        return
    try:
        text = source.read(_DPKG_STATUS).decode("utf-8", errors="replace")
    except MaterializeError as exc:
        log.warning("unreadable dpkg database, treated as missing: %s", exc)
        return
    for stanza in _parse_deb_stanzas(text):
        name = stanza.get("Package")
        version = stanza.get("Version")
        if not name or not version:
            log.warning("skipping malformed dpkg stanza: %r", dict(stanza))
            continue
        status = stanza.get("Status", "")
        if status and status.split()[-1] != "installed":
            continue
        arch = stanza.get("Architecture", "")
        files: frozenset[str] = frozenset()
        for candidate in (f"{_DPKG_INFO_DIR}/{name}:{arch}.list" if arch else None,
                          f"{_DPKG_INFO_DIR}/{name}.list"):
            if candidate and candidate in fs.entries:
                try:
                    files = _dpkg_list_paths(source.read(candidate).decode("utf-8", "replace"))
                except MaterializeError as exc:
                    log.warning("unreadable dpkg file list, treated as missing: %s", exc)
                break
        else:
            log.debug("no .list file for apt package %s", name)
        deps = _parse_dep_field(stanza.get("Pre-Depends", "")) + \
            _parse_dep_field(stanza.get("Depends", ""))
        provides = tuple(alt[0] for alt in _parse_dep_field(stanza.get("Provides", "")))
        yield APT, name, version, files, deps, provides


# -- PIP ---------------------------------------------------------------


def _req_dist_name(req: str) -> str | None:
    """Distribution name from a Requires-Dist value, extras/markers dropped."""
    m = _REQ_NAME_RE.match(req)
    return canonical_pip_name(m.group("name")) if m else None


def _metadata_fields(text: str) -> tuple[str | None, str | None, list[str]]:
    """Name, Version and Requires-Dist as email's compat32 parser reads a METADATA header
    block: the first field of a name (in any case) wins, and a folded value keeps its line
    ends. A 'From ' or ':' line is a field no one asks for: it ends the one before it."""
    fields: list[list[str]] = []  # [lowercased name, value] in order
    pos = 0
    while m := _HEADER_LINE_RE.match(text, pos):
        lead, rest, end = m.groups()
        pos = m.end()
        if lead not in (" ", "\t"):
            fields.append([lead[:-1].lower(), rest.lstrip(" \t") + end])
        elif fields:  # a continuation with no field before it is dropped
            fields[-1][1] += lead + rest + end
    fields = [[name, value.rstrip("\r\n")] for name, value in fields]
    first = dict(reversed(fields))
    return first.get("name"), first.get("version"), [v for n, v in fields if n == "requires-dist"]


def _detect_pip(fs: FileSet, source: ContentSource) -> Iterator[_Found]:
    dist_infos: dict[str, tuple[str, str]] = {}  # dist-info dir -> (site root, dirname)
    for path in fs.entries:
        m = ".dist-info/" in path and _DIST_INFO_RE.match(path)
        if m:
            di_dir = f"{m.group('root')}/{m.group('dir')}.dist-info"
            dist_infos[di_dir] = (m.group("root") or "/", m.group("dir"))
    for di_dir in sorted(dist_infos):
        site_root, dirname = dist_infos[di_dir]
        name = version = None
        deps: list[tuple[str, ...]] = []
        meta_path = f"{di_dir}/METADATA"
        if meta_path in fs.entries:
            try:
                name, version, requires = _metadata_fields(
                    source.read(meta_path).decode("utf-8", errors="replace"))
                for req in requires:
                    dep = _req_dist_name(req)
                    if dep:
                        deps.append((dep,))
            except Exception as exc:
                log.warning("unreadable METADATA in %s: %s", di_dir, exc)
        if not name or not version:
            # Fall back to the '<name>-<version>.dist-info' directory name.
            if "-" not in dirname:
                log.warning("skipping malformed dist-info directory %s", di_dir)
                continue
            fallback_name, _, fallback_version = dirname.rpartition("-")
            name = name or fallback_name
            version = version or fallback_version
        files = set()
        record_path = f"{di_dir}/RECORD"
        if record_path in fs.entries:
            try:
                text = source.read(record_path).decode("utf-8", errors="replace")
                for row in csv.reader(io.StringIO(text)):
                    if row and row[0]:
                        files.add(normalize_path(site_root, row[0]))
            except Exception as exc:
                log.warning("skipping pip package %s: bad RECORD: %s", name, exc)
                continue
        else:
            log.debug("no RECORD for pip package %s", name)
        yield PIP, canonical_pip_name(name), version, frozenset(files), tuple(deps), ()


# -- Conda -------------------------------------------------------------


def _detect_conda(fs: FileSet, source: ContentSource) -> Iterator[_Found]:
    for path in sorted(p for p in fs.entries if "/conda-meta/" in p and _CONDA_META_RE.match(p)):
        prefix = _CONDA_META_RE.match(path).group("prefix") or "/"
        try:
            doc = json.loads(source.read(path).decode("utf-8", errors="replace"))
            name = doc["name"]
            version = str(doc["version"])
            listed = doc.get("files", [])
            depends = doc.get("depends", [])
            if not isinstance(name, str) or not isinstance(listed, list) \
                    or not isinstance(depends, list):
                raise TypeError("name must be a string, files and depends arrays")
            (name + version).encode("utf-8")  # a JSON "\ud800" escape cannot be written out
        except Exception as exc:
            log.warning("skipping malformed conda-meta document %s: %s", path, exc)
            continue
        files = frozenset(normalize_path(prefix, f) for f in listed if isinstance(f, str))
        deps = tuple((d.split()[0],) for d in depends if isinstance(d, str) and d.split())
        yield CONDA, name, version, files, deps, ()


def _files_size(files: Iterable[str], fs: FileSet) -> int:
    size = 0
    for path in files:
        entry = fs.entries.get(path)
        if entry is not None and entry.kind == REGULAR:
            size += entry.size
    return size


# -- Functionality classification ---------------------------------------


def load_rules(source: str | None = None) -> tuple[str, ...]:
    """Load classification patterns: one glob or substring per line,
    '#' comments. ``source`` is a file path or None for the bundled set."""
    if source is None:
        text = importlib.resources.files("bloatlens").joinpath(
            "data/ml-rules.txt").read_text("utf-8")
    else:
        try:
            with open(source, "r", encoding="utf-8") as f:
                text = f.read()
        except UnicodeDecodeError as exc:
            raise InputError(f"rules file is not UTF-8: {exc}", flag="--rules") from None
    rules = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rules.append(line.lower())
    return tuple(rules)


def classify_functionality(p: PackageRecord, rules: Sequence[str]) -> str:
    """ML iff the lowercased name matches a rule: a glob if it has a wildcard, else a substring."""
    return _classifier(rules)(p.name)


def _classifier(rules: Sequence[str]) -> Callable[[str], str]:
    """classify_functionality for a package name, through one compiled pattern."""
    alternatives = [r"\A" + fnmatch.translate(pat) if any(ch in pat for ch in "*?[")
                    else re.escape(pat) for pat in rules]
    search = re.compile("|".join(alternatives) if alternatives else "(?!)").search
    return lambda name: ML if search(name.lower()) else GENERIC


def detect_packages(fs: FileSet, source: ContentSource,
                    rules: Sequence[str] | None = None) -> list[PackageRecord]:
    """Detect APT, PIP and Conda packages from filesystem metadata.

    ``fs`` must be the original (pre-debloat) inventory and ``source`` a
    content reader over the same image. A listed file that is not in the
    inventory is taken as the entry its :meth:`FileSet.lookup` names.
    Malformed metadata skips the one package with a diagnostic; a missing
    package database simply yields no packages for that manager.
    """
    functionality = _classifier(load_rules() if rules is None else rules)
    seen: dict[PkgKey, PackageRecord] = {}
    for manager, name, version, files, deps, provides in chain(
            _detect_apt(fs, source), _detect_pip(fs, source), _detect_conda(fs, source)):
        key = (manager, name, version)
        if key in seen:
            log.warning("duplicate package record %s; keeping the first", key)
            continue
        if not files <= fs.entries.keys():  # else lookup would return each path as it is
            files = frozenset(map(fs.lookup, files))
        seen[key] = PackageRecord(
            manager=manager, name=name, version=version, files=files,
            declared_deps=deps, provides=provides,
            functionality=functionality(name), size=_files_size(files, fs),
        )
    return sorted(seen.values(), key=lambda r: r.key)


# -- Metrics -------------------------------------------------------------


def package_bloat_degree(p: PackageRecord, bloat: FileSet,
                         fs: FileSet | None = None) -> float:
    """size(F_p intersect B_c) / size(F_p), in [0, 1].

    1 means the package is entirely unused, 0 means fully used. Packages
    whose present files total zero bytes fall back to a file-count ratio;
    a package with no (present) files at all counts as unused (1.0).
    Passing the original ``fs`` lets the count fallback ignore declared
    files that do not exist in the container.
    """
    return package_bloat(p, bloat, fs)[1]


def package_bloat(p: PackageRecord, bloat: FileSet,
                  fs: FileSet | None = None) -> tuple[int, float]:
    """(size(F_p intersect B_c), d_p): a package's bloat bytes and its
    :func:`package_bloat_degree`, from one sum over its files."""
    bloat_bytes = _files_size(p.files, bloat)
    if p.size > 0:
        return bloat_bytes, min(1.0, bloat_bytes / p.size)
    present = [f for f in p.files if fs is None or f in fs.entries]
    if not present:
        return bloat_bytes, 1.0
    in_bloat = sum(1 for f in present if f in bloat.entries)
    return bloat_bytes, in_bloat / len(present)


@dataclass(frozen=True)
class CategoryBreakdown:
    """Size-weighted composition of a file set, each file counted once."""

    by_manager: dict[str, float]
    by_functionality: dict[str, float]
    overlap_files: int
    total_bytes: int


def category_breakdown(fileset: FileSet,
                       owners: Mapping[str, tuple[PackageRecord, int]]) -> CategoryBreakdown:
    """Proportions of a file set owned by each manager and functionality.

    Multi-owner files are attributed once, to the owner ``build_owner_index``
    chose; the number of such files is reported. Proportions are size-weighted
    over regular files and sum to 1 (for a non-empty set).
    """
    manager_bytes = {m: 0 for m in (*MANAGER_PRIORITY, NON_PACKAGE)}
    func_bytes = {f: 0 for f in (ML, GENERIC, NON_PACKAGE)}
    overlap = 0
    total = 0
    for path, entry in fileset.entries.items():
        if entry.kind != REGULAR:
            continue
        total += entry.size
        chosen, count = owners.get(path, (None, 0))
        if chosen is None:
            manager_bytes[NON_PACKAGE] += entry.size
            func_bytes[NON_PACKAGE] += entry.size
            continue
        overlap += count > 1
        manager_bytes[chosen.manager] += entry.size
        func_bytes[chosen.functionality] += entry.size
    if total == 0:
        zero_m = {m: 0.0 for m in manager_bytes}
        zero_f = {f: 0.0 for f in func_bytes}
        return CategoryBreakdown(zero_m, zero_f, overlap, 0)
    return CategoryBreakdown(
        by_manager={m: b / total for m, b in manager_bytes.items()},
        by_functionality={f: b / total for f, b in func_bytes.items()},
        overlap_files=overlap,
        total_bytes=total,
    )


def size_reduction_R(pairs: Sequence[tuple[PackageRecord, float]]) -> float | None:
    """Relative size reduction over a package set:
    sum(d_p * size(F_p)) / sum(size(F_p)); None when the total size is 0."""
    total = sum(rec.size for rec, _ in pairs)
    if total == 0:
        return None
    return sum(dp * rec.size for rec, dp in pairs) / total


@dataclass(frozen=True)
class QuartileSummary:
    count: int
    mean: float
    q1: float
    q2: float
    q3: float


def quartile_summary(values: Sequence[float]) -> QuartileSummary:
    """Count, mean and inclusive-method quartiles, reported to 2 decimals."""
    if not values:
        raise ValueError("quartile_summary requires a nonempty value list")
    if len(values) == 1:
        q1 = q2 = q3 = float(values[0])
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return QuartileSummary(
        count=len(values),
        mean=round(statistics.fmean(values), 2),
        q1=round(q1, 2), q2=round(q2, 2), q3=round(q3, 2),
    )
