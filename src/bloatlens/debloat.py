"""Retained-set computation, bloat metrics, and debloated image output.

The retained set is the accessed files closed under ancestor directories
and the image links their resolution crosses (plus optional keep-list
globs); the bloat set is the complement. Both are path sets of a FileSet.
"""

from __future__ import annotations

import errno
import fnmatch
import logging
import os
import re
import struct
from dataclasses import dataclass
from typing import Iterator

from .errors import ContractViolation, InputError, MaterializeError
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
from .trace import AccessSet

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

    An accessed path absent from the inventory, and each retained symlink,
    is resolved by :meth:`FileSet.resolve`: the links crossed and any entry
    reached are retained, and so is every ancestor directory, transitively.
    ``keep`` globs force-retain matching paths regardless of the trace: the
    directory part before a glob's first wildcard is resolved as the trace's
    paths are, its links crossed retained, and the rest matched under the
    directory it reaches (so '/lib/*' keeps '/usr/lib/*' where /lib -> usr/lib).
    Accessed paths that reach no entry (tmpfs, runtime mounts) are counted and
    logged, never fatal. An empty seed set legally yields a root-only FileSet.
    """
    if not fs.entries:
        raise ContractViolation("cannot debloat an empty FileSet")

    def follow(path: str, into: list[str]) -> bool:
        """Append the links crossed on resolving path to ``into``, then the entry
        it reaches if any; whether it reaches one."""
        try:
            end = fs.resolve(path, into)
        except MaterializeError:
            return False
        if end is not None:
            into.append(end)
        return end is not None

    work, missing = [], []
    for path in access.paths:
        if path in fs.entries:
            work.append(path)
        elif not follow(path, work):
            missing.append(path)
    if missing:
        log.warning("%d accessed paths are not in the filesystem (runtime files?); "
                    "first missing path: %r", len(missing), min(missing))
    for pattern in keep:
        head = re.match(r"[^*?[]*(?=/)", pattern)  # the directory part before any wildcard
        if head and head[0]:
            try:
                directory = fs.resolve(head[0], work)  # the links it crosses are retained
            except MaterializeError:
                continue
            if directory is None:
                continue
            pattern = directory.rstrip("/") + pattern[head.end():]
        work.extend(p for p in fs.entries if fnmatch.fnmatchcase(p, pattern))
    if not work:
        log.warning("empty access set: retaining only the root directory")

    retained: set[str] = {"/"} if "/" in fs.entries else set()
    while work:
        path = work.pop()
        if path in retained:
            continue
        retained.add(path)
        parent = parent_of(path)
        if parent not in retained and parent in fs.entries:
            work.append(parent)
        if fs.entries[path].kind == SYMLINK:
            follow(path, work)
    return FileSet({p: fs.entries[p] for p in retained})


def compute_bloat(fs: FileSet, retained: FileSet) -> FileSet:
    """Set difference by path: everything in ``fs`` not in ``retained``."""
    for p in retained.entries:
        if p not in fs.entries:
            raise ContractViolation(f"retained path not present in filesystem: {p}")
    entries = {p: e for p, e in fs.entries.items() if p not in retained.entries}
    return FileSet(entries)


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
    sorted bytewise by path. A name that is not UTF-8 keeps its bytes as
    surrogate escapes, so write it with ``errors="surrogateescape"``."""
    lines = []
    for path in sorted(fs.entries, key=lambda p: p.encode("utf-8", "surrogateescape")):
        e = fs.entries[path]
        lines.append(f"{e.kind}\t{e.size}\t{e.path}")
    return "\n".join(lines) + "\n" if lines else ""


def materialize(retained: FileSet, source: ContentSource, out: str | os.PathLike,
                fmt: str = "dir") -> None:
    """Write a debloated rootfs directory or tar.

    ``fmt`` is 'dir' or 'tar'. The output contains exactly the retained
    entries, with the sizes and modes their records hold and the bytes
    ``source`` reads; a record without a mode (one a caller built) takes
    ``source.mode``. Special (kind=other) entries are not recreated. A 'dir'
    ``out`` must be absent or an empty directory: writes would follow a link
    left in it.
    A missing source object is fatal and names the offending path.
    """
    bad = check_parent_closure(retained)
    if bad:
        raise ContractViolation(f"retained set is not parent-closed at: {bad[0]}")
    if fmt not in ("dir", "tar"):
        raise ValueError(f"unknown output format {fmt!r}")
    write = _write_dir if fmt == "dir" else _write_tar
    write(os.fspath(out), _contents(retained, source))


def _contents(retained: FileSet, source: ContentSource) -> Iterator[tuple]:
    """(path, entry, mode, bytes) of each retained directory, regular file and
    symlink in path order; the bytes are None but for a regular file."""
    for path in sorted(retained.entries):
        entry = retained.entries[path]
        if entry.kind not in (DIRECTORY, REGULAR, SYMLINK):
            log.warning("skipping special entry during materialization: %s", path)
            continue
        data = None
        if entry.kind == REGULAR:
            data = source.read(path)
            if len(data) != entry.size:
                raise MaterializeError(
                    f"source size mismatch for {path}: expected {entry.size}, got {len(data)}")
        yield path, entry, source.mode(path) if entry.mode is None else entry.mode, data


def check_rootfs_out(out: str) -> None:
    """A 'dir' output must be absent or an empty directory, not a link."""
    if os.path.lexists(out) and (os.path.islink(out) or not os.path.isdir(out) or os.listdir(out)):
        raise MaterializeError(f"rootfs output must be absent or an empty directory: {out}")


def create_output(path: str, flags: int) -> int:
    """``open``'s opener for an output file: it never writes through a link at
    ``path``; that, or any failure to create the file, is an InputError naming it."""
    try:
        return os.open(path, flags | os.O_NOFOLLOW, 0o666)
    except OSError as exc:
        reason = "a link is in the way" if exc.errno == errno.ELOOP else exc.strerror
        raise InputError(f"cannot write {path}: {reason}", flag="--out") from None


def _write_dir(out: str, contents: Iterator[tuple]) -> None:
    check_rootfs_out(out)
    os.makedirs(out, exist_ok=True)
    for path, entry, mode, data in contents:
        target = os.path.join(out, path.lstrip("/"))
        if entry.kind == SYMLINK:
            if os.path.lexists(target):
                os.unlink(target)
            try:
                os.symlink(entry.link_target, target)
            except OSError as exc:  # symlink(2) refuses an empty target, which a tar can hold
                raise MaterializeError(f"cannot write symlink {path}: {exc.strerror}") from None
            continue
        if entry.kind == DIRECTORY:
            os.makedirs(target, exist_ok=True)
        else:
            with open(target, "wb") as f:
                f.write(data)
        if mode is not None and path != "/":
            os.chmod(target, mode)


# debloated.tar holds the bytes tarfile's default (pax) format writes for each
# member with mtime, uid and gid 0 and no user, group or device fields.
_USTAR = struct.Struct("100s8s16s12s12s8sc100s8s247x")
_TAR_TYPES = {DIRECTORY: (b"5", 0o755), REGULAR: (b"0", 0o644), SYMLINK: (b"2", 0o777)}


def _tar_header(name: str, typ: bytes, mode: int, size: int = 0, link: str = "") -> bytes:
    """A member's ustar header, after a pax 'x' header when its name or link is
    over 100 bytes or not ASCII, or its size is 8 GiB or more."""
    pax = [(key, value) for key, value in ((b"path", name), (b"linkpath", link))
           if len(value) > 100 or not value.isascii()]
    if size >= 8 ** 11:
        pax, size = pax + [(b"size", str(size))], 0
    head = b""
    if pax:
        try:
            "".join(value for _, value in pax).encode("utf-8")
        except UnicodeEncodeError:  # a surrogate escape: the values are raw bytes
            head = b"21 hdrcharset=BINARY\n"
        for key, value in pax:
            value = value.encode("utf-8", "surrogateescape")
            n = len(key) + len(value) + 3  # a record's length counts its own digits
            head += b"%d %s=%s\n" % (n + len(str(n + len(str(n)))), key, value)
        head = _tar_header("././@PaxHeader", b"x", 0, len(head)) + head + bytes(-len(head) % 512)
    buf = _USTAR.pack(name.encode("ascii", "replace"), b"%07o" % (mode & 0o7777),
                      b"0000000\0" * 2, b"%011o" % size, b"0" * 11, b" " * 8, typ,
                      link.encode("ascii", "replace"), b"ustar\x0000")  # a blank checksum
    return b"%s%s%06o\0 %s" % (head, buf[:148], sum(buf), buf[156:])


def _write_tar(out: str, contents: Iterator[tuple]) -> None:
    with open(out, "wb", opener=create_output) as f:
        for path, entry, mode, data in contents:
            typ, default = _TAR_TYPES[entry.kind]
            name = ("." + path).rstrip("/") + ("/" if entry.kind == DIRECTORY else "")
            mode = default if mode is None or entry.kind == SYMLINK else mode
            data = data or b""
            f.writelines((_tar_header(name, typ, mode, len(data), entry.link_target or ""),
                          data, bytes(-len(data) % 512)))
        f.write(bytes(1024 + -(f.tell() + 1024) % 10240))  # two end blocks, then a full record
