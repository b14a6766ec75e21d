"""Independent reference implementations used to check the real ones.

Each oracle deliberately takes a different route than the production code
(pathlib instead of scandir, posixpath.normpath instead of the hand-rolled
stack, fixed-point iteration instead of a worklist, numpy matrix powers
instead of BFS) so agreement actually means something.
"""

from __future__ import annotations

import email.parser
import fnmatch
import io
import os
import pathlib
import posixpath
import re
import shutil
import tarfile

import numpy as np


def walk_inventory(root) -> dict[str, tuple[str, int, str | None]]:
    """Directory inventory via pathlib: path -> (kind, size, link_target)."""
    root = pathlib.Path(root)
    out: dict[str, tuple[str, int, str | None]] = {"/": ("directory", 0, None)}
    for p in sorted(root.rglob("*")):
        rel = "/" + p.relative_to(root).as_posix()
        if p.is_symlink():
            out[rel] = ("symlink", 0, os.readlink(p))
        elif p.is_dir():
            out[rel] = ("directory", 0, None)
        elif p.is_file():
            out[rel] = ("regular", p.lstat().st_size, None)
        else:
            out[rel] = ("other", 0, None)
    return out


def file_bytes(root) -> dict[str, bytes]:
    """Bytes of every regular file under a directory, keyed like walk_inventory."""
    root = pathlib.Path(root)
    return {"/" + p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and not p.is_symlink()}


def fileset_inventory(fs) -> dict[str, tuple[str, int, str | None]]:
    return {p: (e.kind, e.size, e.link_target) for p, e in fs.entries.items()}


def normalize_oracle(cwd: str, raw: str) -> str:
    """Lexical normalization by way of posixpath.normpath."""
    joined = raw if raw.startswith("/") else posixpath.join(cwd, raw)
    norm = posixpath.normpath(joined)
    # normpath hands back '//x' for POSIX reasons and may leave leading '..'
    while norm.startswith("//"):
        norm = norm[1:]
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    return "/" + "/".join(parts)


# The trace parser as it was before it matched each line with one grammar
# regex: five regexes tried in turn and paths decoded at every use, here
# with normalization by posixpath and the unfinished forks read off the
# pending table. It carries the two later fixes: an annotated dirfd may hold
# commas, and a PID that first shows up while exactly one fork-family call
# is unfinished inherits that caller's state, which the call's return does
# not replace.
_O_EMITTING = {
    "open": 0, "creat": 0, "execve": 0, "stat": 0, "lstat": 0, "stat64": 0,
    "lstat64": 0, "access": 0, "readlink": 0, "openat": 1, "openat2": 1,
    "execveat": 1, "newfstatat": 1, "fstatat64": 1, "statx": 1,
    "faccessat": 1, "faccessat2": 1, "readlinkat": 1,
}
_O_FORKS = {"fork", "vfork", "clone", "clone3"}
_O_TRACKED = _O_EMITTING.keys() | _O_FORKS | {"chdir", "fchdir", "close"}
_O_FD_RETURNING = {"open", "openat", "openat2", "creat"}
_O_LINE_RE = re.compile(r"\s*(\d+)\s+(.*)")
_O_CALL_RE = re.compile(r"([a-zA-Z0-9_]+)\((.*)\) = \s*([^\s<]*)", re.DOTALL)
_O_NOISE_RE = re.compile(r"^(---\s.*---|\+\+\+\s.*\+\+\+)$")
_O_UNFINISHED_RE = re.compile(r"^(?P<name>[a-zA-Z0-9_]+)\((?P<args>.*)<unfinished \.\.\.>$")
_O_RESUMED_RE = re.compile(r"^<\.\.\. (?P<name>[a-zA-Z0-9_]+) resumed>(?P<rest>.*)$", re.DOTALL)
_O_DIRFD_RE = re.compile(r"\s*(?P<fd>\d+)(<(?P<path>[^>]*)>)?\s*(?:,|$)")
_O_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"(\.\.\.)?'
_O_PATH_ARG_RE = (re.compile(r"\s*()" + _O_QUOTED),
                  re.compile(r"\s*(\d+<[^>]*>|[^,]*?)\s*,\s*" + _O_QUOTED))


class _OracleState:
    def __init__(self, cwd, fds=None):
        self.cwd = cwd
        self.fds = dict(fds or {})


def parse_trace_oracle(lines, root_prefix: str = "/", include_failed: bool = False):
    """Reference trace parser over an iterable of lines; returns an AccessSet."""
    from bloatlens.trace import AccessSet, TraceStats, _decode

    root = "/" + root_prefix.strip("/") if root_prefix.strip("/") else "/"
    stats = TraceStats()
    paths: set[str] = set()
    states: dict[int, _OracleState] = {}
    pending: dict[int, tuple[str, str]] = {}
    born: dict[int, set[int]] = {}  # caller -> PIDs first seen during its pending call

    def seen(pid):
        if pid in states:
            return
        callers = [p for p, (name, _) in pending.items() if name in _O_FORKS]
        if len(callers) == 1:
            parent = states[callers[0]]
            states[pid] = _OracleState(parent.cwd, parent.fds)
            born[callers[0]].add(pid)
        else:
            states[pid] = _OracleState(root)

    def path_arg(args, idx):
        m = _O_PATH_ARG_RE[idx].match(args)
        if m is None or m[3]:
            return None, None
        return (m[1] if idx else None), _decode(m[2])

    def resolve(pid, raw, dirfd):
        if raw.startswith("/"):
            return normalize_oracle("/", raw)
        st = states[pid]
        if dirfd is None or dirfd == "AT_FDCWD":
            base = st.cwd
        else:
            m = _O_DIRFD_RE.match(dirfd)
            if not m:
                return None
            base = m.group("path") or st.fds.get(int(m.group("fd")))
        if base is None or not base.startswith("/"):
            return None
        return normalize_oracle(base, raw)

    def rebase(path):
        if root == "/":
            return path
        if path == root:
            return "/"
        if path.startswith(root + "/"):
            return path[len(root):]
        return None

    for line in lines:
        line = line.rstrip()
        if not line:
            continue
        stats.lines += 1
        m = _O_LINE_RE.fullmatch(line)
        try:
            pid = int(m[1]) if m else None
        except ValueError:  # more digits than int() converts: unparsed, as documented
            pid = None
        if pid is None:
            stats.unparsed += 1
            continue
        rest = m[2]
        children = set()
        if rest.endswith("<unfinished ...>") and (um := _O_UNFINISHED_RE.match(rest)):
            seen(pid)
            pending[pid] = (um.group("name"), um.group("args"))
            born[pid] = set()
            stats.parsed += 1
            continue
        cm = _O_CALL_RE.match(rest)
        if cm is None:
            if _O_NOISE_RE.match(rest):
                seen(pid)
                stats.parsed += 1
                continue
            rm = _O_RESUMED_RE.match(rest)
            if rm:
                seen(pid)
            prev = rm and pending.pop(pid, None)
            if prev:
                children = born.pop(pid)
            if prev and prev[0] == rm.group("name"):
                cm = _O_CALL_RE.match(f"{prev[0]}({prev[1]}{rm.group('rest').lstrip()}")
            if cm is None:
                stats.unparsed += 1
                continue
        else:
            seen(pid)
        stats.parsed += 1
        name = cm[1]
        if name not in _O_TRACKED:
            continue
        try:
            retval = int(cm[3])
        except ValueError:
            retval = None
        failed = retval is None or retval < 0
        args = cm[2]
        st = states[pid]

        if name in _O_FORKS:
            if not failed and retval > 0 and retval not in children:
                states[retval] = _OracleState(st.cwd, st.fds)
            continue
        if name == "chdir":
            if failed:
                continue
            target = path_arg(args, 0)[1]
            if target is None:
                st.cwd = None
                stats.unresolvable += 1
            elif target.startswith("/"):
                st.cwd = normalize_oracle("/", target)
            elif st.cwd is None:
                stats.unresolvable += 1
            else:
                st.cwd = normalize_oracle(st.cwd, target)
            continue
        if name == "fchdir":
            if failed:
                continue
            dm = _O_DIRFD_RE.match(args)
            fd_path = dm and (dm.group("path") or st.fds.get(int(dm.group("fd"))))
            if fd_path and fd_path.startswith("/"):
                st.cwd = fd_path
            else:
                st.cwd = None
                stats.unresolvable += 1
            continue
        if name == "close":
            if not failed and (dm := _O_DIRFD_RE.match(args)):
                st.fds.pop(int(dm.group("fd")), None)
            continue

        stats.matched += 1
        if failed and not include_failed:
            stats.failed_excluded += 1
            continue
        dirfd, raw = path_arg(args, _O_EMITTING[name])
        resolved = None if raw is None else resolve(pid, raw, dirfd)
        if resolved is None:
            stats.unresolvable += 1
            continue
        if name in _O_FD_RETURNING and not failed:
            st.fds[retval] = resolved
        container_path = rebase(resolved)
        if container_path is None:
            stats.outside_root += 1
            continue
        paths.add(container_path)

    stats.parsed -= len(pending)
    stats.unparsed += len(pending)
    return AccessSet(frozenset(paths), stats)


class ResolveLoop(Exception):
    """More than 40 links on one resolution (the kernel's ELOOP)."""


def resolve_oracle(path, entries, crossed=None):
    """path_resolution(7) by recursion over ``entries`` (path -> an object
    with ``kind`` and ``link_target``, such as ``FileSet.entries``): each
    component is looked up in the directory reached so far, which must be a
    directory; a missing name reaches nothing (ENOENT), and so does a name
    under a non-directory (ENOTDIR) or an empty link target. A link is
    replaced by the resolution of its target (from the root if absolute, else
    from the link's directory), and the remaining components continue from
    there. Returns the entry reached or None. Appends each link met to
    ``crossed``; raises ResolveLoop on a 41st."""
    met = []

    def walk(directory, components):
        if directory is None or not components:
            return directory
        if getattr(entries.get(directory), "kind", None) != "directory":
            return None
        name, rest = components[0], components[1:]
        if name in ("", "."):
            return walk(directory, rest)
        if name == "..":
            return walk(posixpath.dirname(directory), rest)
        here = posixpath.join(directory, name)
        entry = entries.get(here)
        if entry is None or entry.kind != "symlink":
            return walk(None if entry is None else here, rest)
        if len(met) == 40:
            raise ResolveLoop(path)
        met.append(here)
        target = entry.link_target
        start = walk("/" if target.startswith("/") else directory,
                     target.split("/")) if target else None
        return walk(start, rest)

    try:
        return walk("/", path.split("/"))
    finally:
        if crossed is not None:
            crossed.extend(met)


def naive_retained_closure(fs, access_paths, keep_paths=()) -> set[str]:
    """Fixed-point iteration over the two closure rules: ancestors, and the
    links crossed and the entry reached by resolve_oracle from an accessed
    path absent from the inventory or from a retained symlink."""

    def followed(path):
        crossed = []
        try:
            end = resolve_oracle(path, fs.entries, crossed)
        except ResolveLoop:
            return set(crossed)
        return set(crossed) | ({end} if end is not None else set())

    retained = {"/"}
    retained.update(p for p in keep_paths if p in fs.entries)
    for p in access_paths:
        retained.update({p} if p in fs.entries else followed(p))
    while True:
        new = set(retained)
        for path in retained:
            cur = path
            while cur != "/":
                cur = cur.rsplit("/", 1)[0] or "/"
                if cur in fs.entries:
                    new.add(cur)
            if fs.entries[path].kind == "symlink":
                new |= followed(path)
        if new == retained:
            return retained
        retained = new


def root_path(root, rel) -> str:
    """continuity's ``fs.RootPath`` on disk: ``rel`` (relative to host
    directory ``root``) with the links in it followed by os.readlink inside
    root, absolute targets from root and '..' stopping at it. A missing
    component, a dangling link's target included, is kept as spelled, as is
    whatever follows a non-directory (a member placed there is one no runtime
    can apply, which the caller skips). Returns a path relative to root ('' for
    root itself); raises ResolveLoop past 255 links, as RootPath does."""
    done, todo, links = [], rel.split("/")[::-1], 0
    while todo:
        name = todo.pop()
        if name == "..":
            del done[-1:]
        elif name not in ("", "."):
            host = os.path.join(root, *done, name)
            if not os.path.islink(host):
                done.append(name)
                continue
            links += 1
            if links > 255:
                raise ResolveLoop(rel)
            target = os.readlink(host)
            if target.startswith("/"):
                done = []
            todo.extend(target.split("/")[::-1])
    return "/".join(done)


def _remove_lower(root, rel, own) -> None:
    """Delete rel under root and what lies below it, sparing the paths in
    ``own`` and the directories above them."""
    full = os.path.join(root, rel)
    if os.path.isdir(full) and not os.path.islink(full):
        for child in os.listdir(full):
            _remove_lower(root, posixpath.join(rel, child), own)
        if rel not in own and not os.listdir(full):
            os.rmdir(full)
    elif rel not in own and os.path.lexists(full):
        os.unlink(full)


def sequential_extract_union(layer_paths, scratch) -> dict[str, tuple[str, int, str | None]]:
    """Reference layered-union semantics by actually extracting to disk, one
    member at a time in tar order, as containerd's applier does: each name's
    directory part (a hardlink's target's too) goes through root_path inside
    scratch, a member or whiteout whose directory lands under a file is
    skipped (apply fails with ENOTDIR), and a whiteout hides lower layers
    only, sparing what its own layer placed."""
    scratch = os.fspath(scratch)
    os.makedirs(scratch, exist_ok=True)
    for layer in layer_paths:
        own = set()  # the paths, relative to scratch, this layer placed
        with tarfile.open(layer, "r:*") as tf:
            for m in tf.getmembers():
                head, base = posixpath.split(m.name.removeprefix("./").strip("/"))
                if base == ".wh.":  # names no path (the spec's <name> is never empty)
                    continue
                directory = root_path(scratch, head)
                up = directory  # its nearest present component must be a directory
                while up and not os.path.lexists(os.path.join(scratch, up)):
                    up = posixpath.dirname(up)
                if not os.path.isdir(os.path.join(scratch, up)):
                    continue  # under a file: apply fails with ENOTDIR
                if base == ".wh..wh..opq":
                    if os.path.isdir(os.path.join(scratch, directory)):
                        for child in os.listdir(os.path.join(scratch, directory)):
                            _remove_lower(scratch, posixpath.join(directory, child), own)
                    continue
                if base.startswith(".wh."):
                    _remove_lower(scratch, posixpath.join(directory, base[len(".wh."):]), own)
                    continue
                m.name = posixpath.join(directory, base)
                target = os.path.join(scratch, m.name)
                if os.path.isdir(target) and not os.path.islink(target):
                    if not m.isdir():
                        shutil.rmtree(target)
                elif os.path.lexists(target):
                    os.unlink(target)
                if m.islnk():
                    link_head, link_base = posixpath.split(m.linkname.strip("/"))
                    m.linkname = posixpath.join(root_path(scratch, link_head), link_base)
                tf.extract(m, scratch)
                own.add(m.name)
    return walk_inventory(scratch)


def reachability_oracle(keys: list[str], edges: set[tuple[str, str]]) -> dict[str, set[str]]:
    """Transitive successors per node via boolean matrix squaring."""
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adj[index[a], index[b]] = True
    closure = adj.copy()
    while True:
        step = closure | (closure @ closure)
        if (step == closure).all():
            break
        closure = step
    return {k: {keys[j] for j in range(n) if closure[index[k], j]} - {k} for k in keys}


def functionality_oracle(name: str, rules) -> str:
    """"ml" iff the lowercased name matches a rule, tried one at a time: a
    rule with a wildcard through fnmatch, any other as a substring."""
    name = name.lower()
    for pat in rules:
        if any(ch in pat for ch in "*?["):
            if fnmatch.fnmatchcase(name, pat):
                return "ml"
        elif pat in name:
            return "ml"
    return "generic"


def _pep503_oracle(name: str) -> str:
    """Lowercase, with each run of '-', '_' and '.' replaced by one '-'."""
    out = []
    for ch in name.lower():
        if ch in "-_.":
            if not out or out[-1] != "-":
                out.append("-")
        else:
            out.append(ch)
    return "".join(out)


def metadata_oracle(text: str) -> tuple[str | None, str | None, list[str]]:
    """(Name, Version, Requires-Dist values) of a METADATA text as the standard
    library's email parser reads the whole message under its compat32 policy."""
    msg = email.parser.Parser().parsestr(text)
    return msg.get("Name"), msg.get("Version"), msg.get_all("Requires-Dist") or []


def catalog_match_oracle(match, catalog):
    """The record a finding names: the first in catalog order with its exact
    (name, version), else the first with its PEP 503 name and its version,
    else None."""
    for rec in catalog:
        if rec.name == match.pkg_name and rec.version == match.pkg_version:
            return rec
    for rec in catalog:
        if (rec.version == match.pkg_version
                and _pep503_oracle(rec.name) == _pep503_oracle(match.pkg_name)):
            return rec
    return None


def vuln_survival_oracle(match, bloat_paths: set[str], files_by_pkg: dict) -> bool:
    """Standalone removed/retained decision for one match (True = removed)."""
    if match.locations:
        return all(loc in bloat_paths for loc in match.locations)
    files = files_by_pkg.get((match.pkg_name, match.pkg_version))
    if not files:
        return False
    return all(f in bloat_paths for f in files)


# The scanner-report reader as it was before it checked fields in place: each
# field fetched by a _require walk that spells its JSON path up front, and the
# identity checks after each finding's fields.
def _require_oracle(obj, key: str, where: str, nullable: bool = False):
    from bloatlens.errors import VulnReportError

    if not isinstance(obj, dict) or key not in obj:
        raise VulnReportError(f"missing required field at {where}.{key}")
    if obj[key] is None and not nullable:
        raise VulnReportError(f"{where}.{key} must not be null")
    return obj[key]


def _array_oracle(value, where: str) -> list:
    from bloatlens.errors import VulnReportError

    if value is None:
        return []
    if not isinstance(value, list):
        raise VulnReportError(f"{where} is not an array")
    return value


def _grype_oracle(matches: list):
    for i, m in enumerate(matches):
        where = f"$.matches[{i}]"
        vul = _require_oracle(m, "vulnerability", where)
        art = _require_oracle(m, "artifact", where)
        cve = _require_oracle(vul, "id", f"{where}.vulnerability")
        sev = str(_require_oracle(vul, "severity", f"{where}.vulnerability", nullable=True) or "")
        name = str(_require_oracle(art, "name", f"{where}.artifact"))
        version = str(_require_oracle(art, "version", f"{where}.artifact"))
        at = f"{where}.artifact.locations"
        locs = {normalize_oracle("/", str(_require_oracle(loc, "path", f"{at}[{j}]")))
                for j, loc in enumerate(_array_oracle(art.get("locations"), at))}
        yield (cve, sev, name, version, locs, f"{where}.vulnerability.id",
               f"{where}.artifact.name")


def _trivy_oracle(results: list):
    from bloatlens.errors import VulnReportError

    for i, res in enumerate(results):
        if not isinstance(res, dict):
            raise VulnReportError(f"$.Results[{i}] is not an object")
        at = f"$.Results[{i}].Vulnerabilities"
        for j, v in enumerate(_array_oracle(res.get("Vulnerabilities"), at)):
            where = f"{at}[{j}]"
            cve = _require_oracle(v, "VulnerabilityID", where)
            name = str(_require_oracle(v, "PkgName", where))
            yield (cve, str(v.get("Severity") or "Unknown"), name,
                   str(v.get("InstalledVersion") or ""), set(),
                   f"{where}.VulnerabilityID", f"{where}.PkgName")


_SEVERITY_ORACLE = {s.lower(): s for s in ("Critical", "High", "Medium", "Low", "Negligible")}


def report_oracle(doc) -> list[tuple]:
    """A decoded scanner report read step by step as docs/vuln-reports.md
    states it: sorted (id, severity, name, version, locations) rows, one per
    (id, name, version) with its locations unioned and its first severity,
    or the VulnReportError naming the first fault's JSON path."""
    from bloatlens.errors import VulnReportError

    trivy = isinstance(doc, dict) and "Results" in doc and "matches" not in doc
    key, findings = ("Results", _trivy_oracle) if trivy else ("matches", _grype_oracle)
    rows = _require_oracle(doc, key, "$") if isinstance(doc, dict) else doc
    if not isinstance(rows, list):
        raise VulnReportError(f"$.{key} is not an array")
    merged: dict[tuple, tuple[str, set]] = {}
    for cve, sev, name, version, locs, id_at, name_at in findings(rows):
        if not isinstance(cve, str) or not cve:
            raise VulnReportError(f"{id_at} must be a non-empty string")
        if not name and not locs:
            raise VulnReportError(f"{name_at} must be non-empty for a finding without locations")
        sev = _SEVERITY_ORACLE.get(sev.strip().lower(), "Negligible")
        merged.setdefault((cve, name, version), (sev, set()))[1].update(locs)
    return [(cve, sev, name, version, frozenset(locs))
            for (cve, name, version), (sev, locs) in sorted(merged.items())]


def tarfile_contents(tar_path):
    """What tarfile reads from a tar whose member paths are unique:
    (path -> (kind, size, link_target), path -> mode, path -> bytes of each
    regular file). Hardlinks read as regular files with their target's
    bytes; implied parent directories are added with mode None."""
    inventory, modes, data = {"/": ("directory", 0, None)}, {"/": None}, {}
    with tarfile.open(tar_path, "r:*") as tf:
        for m in tf.getmembers():
            rel = posixpath.normpath(m.name).lstrip("/")
            if rel == ".":
                continue
            path = "/" + rel
            modes[path] = m.mode
            if m.isdir():
                inventory[path] = ("directory", 0, None)
            elif m.issym():
                inventory[path] = ("symlink", 0, m.linkname)
            elif m.isfile() or m.islnk():
                with tf.extractfile(m) as f:
                    data[path] = f.read()
                inventory[path] = ("regular", len(data[path]), None)
            else:
                inventory[path] = ("other", 0, None)
    for path in list(inventory):
        while path != "/":
            path = posixpath.dirname(path)
            modes.setdefault(path, None)
            inventory.setdefault(path, ("directory", 0, None))
    return inventory, modes, data


def write_tar_oracle(out, contents) -> None:
    """debloated.tar as tarfile writes it: contents yields (path, entry, mode,
    bytes) as materialize's tar writer receives them."""
    with tarfile.open(out, "w") as tf:
        for path, entry, mode, data in contents:
            info = tarfile.TarInfo("." if path == "/" else "." + path)
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            if entry.kind == "directory":
                info.type = tarfile.DIRTYPE
                info.mode = mode if mode is not None else 0o755
            elif entry.kind == "regular":
                info.type = tarfile.REGTYPE
                info.size = len(data)
                info.mode = mode if mode is not None else 0o644
            else:
                info.type = tarfile.SYMTYPE
                info.linkname = entry.link_target
                info.mode = 0o777
            tf.addfile(info, io.BytesIO(data) if data is not None else None)
