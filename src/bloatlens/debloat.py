"""Retained-set computation, bloat metrics, and debloated image output.

The retained set is the accessed files closed under ancestor directories
and symlink chains (plus optional keep-list globs); the bloat set is the
complement. Both are path-level set operations on an immutable FileSet.
"""

from __future__ import annotations

import fnmatch
import io
import logging
import os
import tarfile
from dataclasses import dataclass

from .errors import ContractViolation, MaterializeError
from .imagefs import (
    DIRECTORY,
    REGULAR,
    SYMLINK,
    ContentSource,
    FileSet,
    check_parent_closure,
    parent_of,
    total_size,
)
from .trace import AccessSet, normalize_path

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DebloatResult:
    """Partition of a container filesystem into retained and bloat files."""

    retained: FileSet
    bloat: FileSet
    d_c: float
    s_c: int
    s_c_prime: int


def container_bloat_degree(s_c: int, s_c_prime: int) -> float:
    """Fraction of the original size removed by debloating.

    Defined as (s_c - s_c') / s_c, and 0 for an empty container.
    """
    if s_c_prime < 0 or s_c < s_c_prime:
        raise ContractViolation(
            f"sizes must satisfy s_c >= s_c' >= 0, got s_c={s_c} s_c'={s_c_prime}"
        )
    if s_c == 0:
        return 0.0
    return (s_c - s_c_prime) / s_c


def compute_retained(fs: FileSet, access: AccessSet,
                     keep: tuple[str, ...] = ()) -> FileSet:
    """Files needed by the workload: accessed paths plus their closure.

    The closure adds (a) every ancestor directory and (b) symlink targets,
    resolved lexically relative to the link's directory, transitively.
    ``keep`` globs force-retain matching paths regardless of the trace.
    Accessed paths absent from the filesystem (tmpfs, runtime mounts) are
    counted and logged, never fatal. An empty seed set legally yields a
    root-only FileSet.
    """
    if not fs.entries:
        raise ContractViolation("cannot debloat an empty FileSet")
    seeds = {p for p in access.paths if p in fs.entries}
    missing = len(access.paths) - len(seeds)
    if missing:
        log.warning("%d accessed paths are not in the filesystem (runtime files?)", missing)
    for pattern in keep:
        seeds.update(p for p in fs.entries if fnmatch.fnmatchcase(p, pattern))
    if not seeds:
        log.warning("empty access set: retaining only the root directory")

    retained: set[str] = {"/"} if "/" in fs.entries else set()
    work = list(seeds)
    while work:
        path = work.pop()
        if path in retained:
            continue
        retained.add(path)
        parent = parent_of(path)
        if parent not in retained and parent in fs.entries:
            work.append(parent)
        entry = fs.entries[path]
        if entry.kind == SYMLINK:
            target = normalize_path(parent_of(path), entry.link_target)
            if target in fs.entries:
                if target not in retained:
                    work.append(target)
            else:
                log.debug("symlink %s -> %s dangles outside the filesystem", path, target)
    return FileSet({p: fs.entries[p] for p in retained}, fs.origin)


def compute_bloat(fs: FileSet, retained: FileSet) -> FileSet:
    """Set difference by path: everything in ``fs`` not in ``retained``."""
    for p in retained.entries:
        if p not in fs.entries:
            raise ContractViolation(f"retained path not present in filesystem: {p}")
    entries = {p: e for p, e in fs.entries.items() if p not in retained.entries}
    return FileSet(entries, fs.origin)


def debloat(fs: FileSet, access: AccessSet,
            keep: tuple[str, ...] = ()) -> DebloatResult:
    """Run the full container-level computation for one workload trace."""
    retained = compute_retained(fs, access, keep)
    bloat = compute_bloat(fs, retained)
    s_c = total_size(fs)
    s_c_prime = total_size(retained)
    return DebloatResult(
        retained=retained,
        bloat=bloat,
        d_c=container_bloat_degree(s_c, s_c_prime),
        s_c=s_c,
        s_c_prime=s_c_prime,
    )


def render_manifest(fs: FileSet) -> str:
    """Stable manifest text: one '<kind>\\t<size>\\t<path>' line per entry,
    sorted bytewise by path."""
    lines = []
    for path in sorted(fs.entries, key=lambda p: p.encode("utf-8")):
        e = fs.entries[path]
        lines.append(f"{e.kind}\t{e.size}\t{e.path}")
    return "\n".join(lines) + "\n" if lines else ""


def materialize(retained: FileSet, source: ContentSource, out: str | os.PathLike,
                fmt: str = "dir") -> str:
    """Write a debloated rootfs directory or tar and return its manifest.

    ``fmt`` is 'dir' or 'tar'. The output contains exactly the retained
    entries with sizes and modes copied from the source image; special
    (kind=other) entries appear in the manifest but are not recreated.
    A missing source object is fatal and names the offending path.
    """
    bad = check_parent_closure(retained)
    if bad:
        raise ContractViolation(f"retained set is not parent-closed at: {bad[0]}")
    if fmt not in ("dir", "tar"):
        raise ValueError(f"unknown output format {fmt!r}")
    out = os.fspath(out)
    paths = sorted(retained.entries)
    if fmt == "dir":
        _write_dir(retained, source, out, paths)
    else:
        _write_tar(retained, source, out, paths)
    return render_manifest(retained)


def _read_exact(source: ContentSource, path: str, size: int) -> bytes:
    data = source.read(path)
    if len(data) != size:
        raise MaterializeError(f"source size mismatch for {path}: expected {size}, got {len(data)}")
    return data


def _write_dir(retained: FileSet, source: ContentSource, out: str, paths: list[str]) -> None:
    os.makedirs(out, exist_ok=True)
    for path in paths:
        entry = retained.entries[path]
        target = os.path.join(out, path.lstrip("/"))
        if entry.kind == DIRECTORY:
            os.makedirs(target, exist_ok=True)
            mode = source.mode(path)
            if mode is not None and path != "/":
                os.chmod(target, mode)
        elif entry.kind == REGULAR:
            data = _read_exact(source, path, entry.size)
            with open(target, "wb") as f:
                f.write(data)
            mode = source.mode(path)
            if mode is not None:
                os.chmod(target, mode)
        elif entry.kind == SYMLINK:
            if os.path.lexists(target):
                os.unlink(target)
            os.symlink(entry.link_target, target)
        else:
            log.warning("skipping special entry during materialization: %s", path)


def _write_tar(retained: FileSet, source: ContentSource, out: str, paths: list[str]) -> None:
    with tarfile.open(out, "w") as tf:
        for path in paths:
            entry = retained.entries[path]
            name = "." if path == "/" else "." + path
            info = tarfile.TarInfo(name)
            info.mtime = 0
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            mode = source.mode(path)
            if entry.kind == DIRECTORY:
                info.type = tarfile.DIRTYPE
                info.mode = mode if mode is not None else 0o755
                tf.addfile(info)
            elif entry.kind == REGULAR:
                data = _read_exact(source, path, entry.size)
                info.type = tarfile.REGTYPE
                info.size = len(data)
                info.mode = mode if mode is not None else 0o644
                tf.addfile(info, io.BytesIO(data))
            elif entry.kind == SYMLINK:
                info.type = tarfile.SYMTYPE
                info.linkname = entry.link_target
                info.mode = 0o777
                tf.addfile(info)
            else:
                log.warning("skipping special entry during materialization: %s", path)
