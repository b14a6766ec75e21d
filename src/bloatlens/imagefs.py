"""Container filesystem ingestion.

Builds an immutable file inventory (:class:`FileSet`) from an extracted
rootfs directory or an ordered stack of image layer tars with OCI whiteout
handling: every tar is a layer; a single tar is a one-layer image. File
content stays in the source and is read back through a :class:`ContentSource`.
Every stage writes the paths it matches against the inventory in the normal
form of :func:`normalize_path`.

Every loader returns (FileSet, ContentSource) from one pass over its input,
and the caller closes the source. The pass writes one record per path, with
its mode and where its bytes are, so links, modes and reads resolve through
the inventory alike for every kind: only the fetch of a regular file's bytes
differs (an ``O_NOFOLLOW`` open under the rootfs, a seek into a plain tar).
A gzip, bzip2, xz or lzma tar is decompressed once into an anonymous temp
file, which takes disk space equal to the uncompressed tar until the source
is closed (or, for a layer none of whose members is left in the union,
until the union is built). The tar walk reads ustar headers (either checksum
sum, octal and base-256 numbers, the name prefix, v7 ``name/`` directories),
GNU long names and link names, and pax extended and global records (path,
linkpath, size); it rejects sparse members. It feeds the union as it reads,
so no tar's member list is held, and a layer's whiteout applies as it is
read. The package uses no tarfile.
Every source follows symlinks inside the image, and never out of it.
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import logging
import lzma
import os
import re
import stat
import struct
import sys
import tempfile
import zlib
from bisect import bisect_left
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping

from .errors import IngestError, MaterializeError

log = logging.getLogger(__name__)

REGULAR = "regular"
DIRECTORY = "directory"
SYMLINK = "symlink"
OTHER = "other"

KINDS = (REGULAR, DIRECTORY, SYMLINK, OTHER)

WHITEOUT_PREFIX = ".wh."
OPAQUE_MARKER = ".wh..wh..opq"

# Magic numbers of the tar compressions read here: gzip, bzip2, xz and
# legacy lzma-alone (with the properties byte its encoders write by default).
_DECOMPRESSORS = ((b"\x1f\x8b", gzip.open), (b"BZh", bz2.open),
                  (b"\xfd7zXZ\x00", lzma.open), (b"\x5d\x00\x00", lzma.open))
_DECOMPRESS_ERRORS = (EOFError, OSError, zlib.error, lzma.LZMAError)

# Tar headers (POSIX ustar with the GNU and pax extensions) are read with one
# unpack: name, mode, size, chksum, typeflag, linkname and prefix.
_BLOCK, _ZERO_BLOCK = 512, bytes(512)
_HEADER = struct.Struct("100s8s16x12s12x8sc100s88x155s12x")
_ENCODING = sys.getfilesystemencoding()
_PAX_RECORD = re.compile(rb"(\d+) ([^=]+)=")
_DIRTYPE, _SYMTYPE, _LNKTYPE = b"5", b"2", b"1"
_REGULAR_TYPES = (b"0", b"\0", b"7")
_EXTENSION_TYPES = (b"L", b"K", b"x", b"X", b"g")  # GNU long names, pax, pax global


def normalize_path(cwd: str, raw: str) -> str:
    """``raw`` joined onto ``cwd`` if relative, with its empty, '.' and '..'
    segments collapsed lexically ('..' stops at '/') and no link followed:
    the one normal form in which every stage writes image paths."""
    if not cwd.startswith("/"):
        raise ValueError(f"cwd must be absolute: {cwd!r}")
    if not raw.startswith("/"):
        raw = cwd.rstrip("/") + "/" + raw
    if "//" not in raw and "/." not in raw and not raw.endswith("/"):
        return raw  # no empty, "." or ".." segment: already normal
    stack: list[str] = []
    for seg in raw.split("/"):
        if seg == "..":
            del stack[-1:]
        elif seg not in ("", "."):
            stack.append(seg)
    return "/" + "/".join(stack)


def parent_of(path: str) -> str:
    """Parent directory path; the parent of '/' is '/'."""
    return path.rsplit("/", 1)[0] or "/"


@dataclass(frozen=True, slots=True)
class FileEntry:
    """One filesystem object: an absolute normalized path plus kind and size.

    Only regular files carry a size; directories, symlinks and special files
    count zero bytes. ``link_target`` is the raw (possibly relative) target
    string and is present exactly for symlinks. A loader also records the
    permission bits (``mode``) and where its source finds a regular entry's
    bytes (``where``), or None; neither takes part in equality, hashing or repr.
    A FileEntry a caller builds is checked; a loader writes its records through
    ``_record`` without the checks, as its paths are normal by construction.
    """

    path: str
    kind: str
    size: int = 0
    link_target: str | None = None
    mode: int | None = field(default=None, compare=False, repr=False)
    where: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if normalize_path("/", self.path) != self.path:
            raise ValueError(f"path must be absolute and normal: {self.path!r}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r} for {self.path!r}")
        if self.size < 0:
            raise ValueError(f"negative size for {self.path!r}")
        if self.kind != REGULAR and self.size != 0:
            raise ValueError(f"non-regular entry {self.path!r} must have size 0")
        if (self.kind == SYMLINK) != (self.link_target is not None):
            raise ValueError(f"link_target is required iff kind=symlink: {self.path!r}")


_SET_PATH, _SET_KIND, _SET_SIZE, _SET_LINK, _SET_MODE, _SET_WHERE = (
    FileEntry.__dict__[name].__set__ for name in FileEntry.__slots__)


def _record(path: str, kind: str, size: int = 0, link_target: str | None = None,
            mode: int | None = None, where: object = None) -> FileEntry:
    """A loader's FileEntry, its slots set without ``__post_init__``: ingest
    writes normal paths, and kinds, sizes and link targets that agree."""
    entry = object.__new__(FileEntry)
    _SET_PATH(entry, path)
    _SET_KIND(entry, kind)
    _SET_SIZE(entry, size)
    _SET_LINK(entry, link_target)
    _SET_MODE(entry, mode)
    _SET_WHERE(entry, where)
    return entry


class FileSet:
    """Immutable map of path -> FileEntry, and the one resolver of image paths:
    :meth:`resolve` and its lstat(2) form :meth:`lookup` see each entry's kind,
    so a missing component (ENOENT), a non-directory before the last (ENOTDIR)
    and an empty link target reach nothing, as in the kernel.

    Equality compares entries (paths, kinds, sizes, link targets). Loaders
    record every entry's ancestors: one that no tar member names is a
    directory of the layer that implies it. So a loader's set is a tree, every
    non-root entry's parent present as a directory; derived sets such as the
    bloat complement are not (see :func:`check_parent_closure`).
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[str, FileEntry] | Iterable[FileEntry]):
        if isinstance(entries, Mapping):
            items = dict(entries)
        else:
            items = {}
            for e in entries:
                if e.path in items:
                    raise ValueError(f"duplicate path {e.path!r}")
                items[e.path] = e
        for path, entry in items.items():
            if path != entry.path:
                raise ValueError(f"key {path!r} does not match entry path {entry.path!r}")
        object.__setattr__(self, "entries", MappingProxyType(items))

    @classmethod
    def _over(cls, table: dict[str, FileEntry]) -> FileSet:
        """The set over ``table`` itself, which a loader fills before it hands the set out.
        Its records skip the checks (``_record``), as their paths are normal by construction;
        :meth:`__init__` takes entries a caller built, which were checked."""
        fs = object.__new__(cls)
        object.__setattr__(fs, "entries", MappingProxyType(table))
        return fs

    def __setattr__(self, name, value):
        raise AttributeError("FileSet is immutable")

    def __contains__(self, path: str) -> bool:
        return path in self.entries

    def __getitem__(self, path: str) -> FileEntry:
        return self.entries[path]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[str]:
        return iter(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FileSet):
            return NotImplemented
        return dict(self.entries) == dict(other.entries)

    def __repr__(self) -> str:
        return f"FileSet({len(self.entries)} entries)"

    def resolve(self, path: str, crossed: list[str] | None = None) -> str | None:
        """The entry path names, its links followed inside the image as path_resolution(7)
        does: relative targets from the link's directory, absolute ones from the root,
        '..' from where a link led and stopping at '/'. None on a missing component, a
        non-directory before the last one or an empty link target. Each link followed
        is appended to ``crossed``; over 40 is a loop (MaterializeError)."""
        end, rest = self._walk(path, crossed)
        return None if rest or end not in self.entries else end

    def _walk(self, path: str, crossed: list[str] | None = None,
              _missing: str | None = None) -> tuple[str, list[str]]:
        """Where :meth:`resolve` stops and the components it has left, last first:
        none once it has taken them all (to the entry it returns, or a missing
        path), else some, at a missing path, a non-directory or an empty link.
        A missing component counts as kind ``_missing``: placement passes
        DIRECTORY, so the walk goes on under it as spelled, '..' out of it is
        lexical and links after it are still followed."""
        entries, todo, cur, hops = self.entries, path.split("/")[::-1], "/", 0
        while todo:
            if getattr(entries.get(cur), "kind", _missing) != DIRECTORY:
                break  # only a directory has components
            name = todo.pop()
            cur = parent_of(cur) if name == ".." else cur if name in ("", ".") else \
                f"{cur.rstrip('/')}/{name}"
            target = getattr(entries.get(cur), "link_target", None)
            if target is not None:
                hops += 1
                if hops > 40:
                    raise MaterializeError(f"cannot read {path}: symlink loop")
                if crossed is not None:
                    crossed.append(cur)
                if not target:
                    return cur, [*todo, "."]  # leads nowhere: stop at the link
                todo.extend(target.split("/")[::-1])
                cur = "/" if target.startswith("/") else parent_of(cur)
        return cur, todo

    def lookup(self, path: str) -> str:
        """The lstat(2) form of :meth:`resolve` for a normal path: the links in
        its directory part followed, a link it ends in kept. path itself when it
        is in the inventory, or its directory part loops or reaches no directory."""
        if path in self.entries:
            return path
        try:
            directory = self.resolve(parent_of(path) + "/.")  # '.' only in a directory
        except MaterializeError:
            return path
        return path if directory is None else f"{directory.rstrip('/')}/{path.rsplit('/', 1)[1]}"


def check_parent_closure(fs: FileSet) -> list[str]:
    """Paths whose parent is missing or not a directory (empty when closed)."""
    return sorted(path for path in fs.entries if path != "/" and
                  getattr(fs.entries.get(parent_of(path)), "kind", None) != DIRECTORY)


def total_size(fs: FileSet) -> int:
    """Total apparent size in bytes: the sum over regular files only."""
    return sum(e.size for e in fs.entries.values() if e.kind == REGULAR)


def _tar_member_path(name: str, label: str | None = None) -> str | None:
    """Normalize a tar member name to an absolute path; None for the root and
    for a name with a '..' component, which is refused: the member named in
    layer ``label``, when given, is logged as a warning."""
    path = "/" + name.removeprefix("./").removesuffix("/")
    if "//" in path or "/." in path or path.endswith("/"):  # else it is already normal
        parts = [p for p in name.split("/") if p not in ("", ".")]
        path = "/" + "/".join(parts) if parts and ".." not in parts else None
        if ".." in parts and label is not None:
            log.warning("%s: member %s has a '..' component; refused", label, name)
    return path


class ContentSource:
    """Reads file bytes and modes back out of an image, whose inventory is ``fs``.

    Each inventory path has one record, its :class:`FileEntry`, with the
    entry's mode and where a regular entry's bytes are. A subclass fills the
    table behind ``fs`` at ingest (a directory that no tar member names has
    mode None) and fetches those bytes in ``_bytes(path, where)``. Reads
    resolve through :meth:`FileSet.resolve` and modes through
    :meth:`FileSet.lookup`, so a path that reaches no entry (a missing or
    non-directory component, an empty link target) reads nothing.
    """

    def read(self, path: str) -> bytes:
        hit = self.fs.entries.get(path)
        if hit is None or hit.kind == SYMLINK:
            end = self.fs.resolve(path)
            if end is None:
                raise MaterializeError(f"cannot read {path}: " + (
                    "dangling symlink" if hit else "not present in the image"))
            hit = self.fs.entries[end]
        if hit.kind != REGULAR:
            raise MaterializeError(f"cannot read {path}: not a regular file")
        return self._bytes(path, hit.where)

    def mode(self, path: str) -> int | None:
        """The mode of the entry :meth:`FileSet.lookup` names: path's own when it
        is in the inventory."""
        return getattr(self.fs.entries.get(self.fs.lookup(path)), "mode", None)

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class RootfsSource(ContentSource):
    """Inventory and content of a rootfs directory, walked once. Symlinks
    are recorded, never followed, and no read leaves the directory. Objects
    that cannot be classified or statted degrade to kind=other with a
    warning instead of aborting; real images contain sockets and device
    nodes."""

    def __init__(self, root: str | os.PathLike):
        root = os.fspath(root)
        if not os.path.isdir(root):
            raise IngestError(f"rootfs is not a readable directory: {root}")
        table = {"/": _record("/", DIRECTORY, mode=stat.S_IMODE(os.stat(root).st_mode))}
        self.fs = FileSet._over(table)
        todo = [(root, "")]  # the directories still to list: (host path, image path or '')
        while todo:
            directory, prefix = todo.pop()
            try:
                with os.scandir(directory) as it:
                    children = sorted(it, key=lambda d: d.name)
            except OSError as exc:
                if not prefix:
                    raise IngestError(f"cannot read rootfs root: {exc}") from exc
                log.warning("unreadable directory %s: %s", directory, exc)
                continue
            for child in children:
                path, mode, where = f"{prefix}/{child.name}", None, None
                kind, size, link = OTHER, 0, None
                try:
                    st = child.stat(follow_symlinks=False)
                    mode = stat.S_IMODE(st.st_mode)
                    if stat.S_ISLNK(st.st_mode):
                        kind, link = SYMLINK, os.readlink(child.path)
                    elif stat.S_ISDIR(st.st_mode):
                        kind = DIRECTORY
                    elif stat.S_ISREG(st.st_mode):
                        kind, size, where = REGULAR, st.st_size, child.path
                except OSError as exc:
                    log.warning("unreadable entry %s: %s", child.path, exc)
                table[path] = _record(path, kind, size, link, mode, where)
                if kind == DIRECTORY:
                    todo.append((child.path, path))

    def _bytes(self, path: str, where: str) -> bytes:
        try:
            with open(os.open(where, os.O_RDONLY | os.O_NOFOLLOW), "rb") as f:
                return f.read()
        except OSError as exc:
            raise MaterializeError(f"cannot read {path}: {exc}") from exc


def _decompressed(raw: IO[bytes], label: str, files: contextlib.ExitStack) -> IO[bytes]:
    """A seekable plain tar stream for raw: raw itself when it is not
    compressed, else a temp file (closed with ``files``) holding it
    decompressed. As tarfile's 'r:*' does, a stream whose first block does
    not decompress is read as a plain tar."""
    start, magic = raw.tell(), raw.read(6)
    raw.seek(start)
    opener = next((op for m, op in _DECOMPRESSORS if magic.startswith(m)), None)
    if opener is None:
        return raw
    with opener(raw) as stream:
        try:
            chunk = stream.read(_BLOCK)
        except _DECOMPRESS_ERRORS:
            raw.seek(start)
            return raw
        try:
            plain = files.enter_context(tempfile.TemporaryFile())
            while chunk:
                plain.write(chunk)
                try:
                    chunk = stream.read(1 << 20)
                except _DECOMPRESS_ERRORS as exc:
                    raise IngestError(f"{label}: cannot decompress: {exc}") from exc
            plain.seek(0)
        except OSError as exc:
            raise IngestError(f"{label}: cannot write the decompressed tar to a temp "
                              f"file in {tempfile.gettempdir()}: {exc}") from exc
    return plain


def _number(field: bytes) -> int:
    """A number field: octal up to a NUL, or base-256 after 0x80 or 0xff (negative)."""
    if field[0] in (0x80, 0xFF):
        return int.from_bytes(field[1:] if field[0] == 0x80 else field, "big",
                              signed=field[0] == 0xFF)  # 0xff: two's complement
    return int(field.partition(b"\0")[0].strip() or b"0", 8)


def _pax_records(data: bytes) -> dict[str, str]:
    """The '<length> <keyword>=<value>\\n' records of pax header data."""
    records, pos = {}, 0
    while pos < len(data):
        m = _PAX_RECORD.match(data, pos)
        end = pos + int(m[1]) if m else 0
        if end <= (m.end() if m else 0) or end > len(data) or data[end - 1] != 0x0A:
            raise ValueError("malformed pax record")
        records[m[2].decode("utf-8", "surrogateescape")] = \
            data[m.end():end - 1].decode("utf-8", "surrogateescape")
        pos = end
    return records


def _tar_members(plain: IO[bytes], label: str) -> Iterator[tuple]:
    """Walk the headers of a plain tar stream once, yielding each member as it
    is read: (path, type, linkname, size, mode, data offset). An error names
    the offset of the member's first header (an L, K, x or g, or its own)."""
    start = pos = plain.tell()
    end = plain.seek(0, os.SEEK_END)
    glob, ext, at = {}, {}, None

    def bad(reason: str) -> IngestError:
        if at == start:
            return IngestError(f"{label}: malformed tar at byte offset {at}: cannot open: {reason}")
        return IngestError(f"{label}: malformed tar header at byte offset {at}: {reason}")

    def data_end(size: int) -> int:  # the offset of the next header
        if size < 0 or pos + size + -size % _BLOCK > end:
            raise bad("unexpected end of data")
        return pos + size + -size % _BLOCK

    read, seek, unpack = plain.read, plain.seek, _HEADER.unpack
    seek(pos)
    while True:
        buf = read(_BLOCK)
        extended, at = at is not None, pos if at is None else at
        if len(buf) < _BLOCK or buf == _ZERO_BLOCK:
            if extended or (pos == start and len(buf) < _BLOCK):
                raise bad("no member after its extended header" if extended else
                          "truncated header" if buf else "empty file")
            break
        name, mode, size, chksum, typ, linkname, prefix = unpack(buf)
        try:
            try:  # one plain octal read of the three, as nearly every header spells them
                numbers = (int(chksum.partition(b"\0")[0], 8), int(mode.partition(b"\0")[0], 8),
                           int(size.partition(b"\0")[0], 8))
            except ValueError:  # else _number reads each, in the order its errors come
                numbers = None
            # Compare the checksum, as a byte sum of the block, with the unsigned and
            # signed sums; an ASCII block sums below 65521, to Adler-32's low half - 1.
            total = (numbers[0] if numbers else _number(chksum)) + sum(buf[148:156]) - 256
            if total not in (((zlib.adler32(buf) & 0xFFFF) - 1,) if buf.isascii() else (
                    sum(buf), sum(struct.unpack("148b8x356b", buf)) + sum(buf[148:156]))):
                raise bad("bad checksum")
            mode, size = numbers[1:] if numbers else (_number(mode), _number(size))
            pos += _BLOCK
            if typ in _EXTENSION_TYPES:
                nxt, data = data_end(size), read(size)
                pos = seek(nxt)
                records = _pax_records(data) if typ not in b"LK" else {
                    "path" if typ == b"L" else "linkpath":
                    data.partition(b"\0")[0].decode(_ENCODING, "surrogateescape")}
                for key, value in records.items():
                    (glob.__setitem__ if typ == b"g" else ext.setdefault)(key, value)
                continue
            name = name.partition(b"\0")[0]
            if typ == b"\0" and name.endswith(b"/"):
                typ = _DIRTYPE
            if prefix[0]:
                name = prefix.partition(b"\0")[0] + b"/" + name
            name = name.decode(_ENCODING, "surrogateescape")
            linkname = linkname.partition(b"\0")[0].decode(_ENCODING, "surrogateescape") \
                if linkname[0] else ""
            if glob or ext:
                fields = {**glob, **ext}
                name = fields.get("GNU.sparse.name", fields.get("path", name))
                linkname, size = fields.get("linkpath", linkname), int(fields.get("size", size))
                typ = b"S" if any(k.startswith("GNU.sparse.") for k in fields) else typ
        except ValueError as exc:
            raise bad(f"invalid header: {exc}") from None
        if typ == b"S":
            raise IngestError(f"{label}: sparse member {name!r} at byte offset {at} "
                              f"is not supported")
        offset = pos
        if size and typ not in b"123456":  # regular and unknown types carry data
            pos = seek(data_end(size))
        ext, at = ext and {}, None  # a new dict only when the last one was used
        path = _tar_member_path(name, label)
        if path is not None:
            yield path, typ, linkname, size, mode, offset
    # A legitimate end of archive leaves only zero padding behind.
    seek(at)
    if any(block.strip(b"\0") for block in iter(lambda: read(1 << 16), b"")):
        raise bad("data after the end-of-archive block")


class _TarSource(ContentSource):
    """Inventory and content of a stack of layer tars, each read in one pass.

    A regular entry's bytes are at (plain tar stream, data offset, size); a
    hardlink shares the location its target had then, or None when that
    target was missing or not a regular file. Each tar's walk feeds
    ``_add_tar`` as it reads; a tar none of whose bytes are left in the union
    is then closed. The union starts with '/', and each member adds the
    ancestors it lacks, each a directory of the layer that implies it.
    """

    def __init__(self, tars: list[tuple[str | os.PathLike | IO[bytes], str]]):
        self._stack = contextlib.ExitStack()
        self._files: dict[IO[bytes], contextlib.ExitStack] = {}
        table = {"/": _record("/", DIRECTORY)}
        self.fs = FileSet._over(table)
        try:
            for source, label in tars:
                files = self._stack.enter_context(contextlib.ExitStack())
                try:
                    raw = source
                    if isinstance(source, (str, os.PathLike)):
                        raw = files.enter_context(open(source, "rb"))
                    plain = _decompressed(raw, label, files)
                    if raw is not source and plain is not raw:
                        raw.close()
                except OSError as exc:
                    raise IngestError(
                        f"{label}: malformed tar at byte offset 0: cannot open: {exc}") from exc
                self._files[plain] = files
                self._add_tar(table, plain, _tar_members(plain, label), label)
        except BaseException:
            self.close()
            raise
        used = {entry.where[0] for entry in table.values() if entry.where}
        for plain, files in self._files.items():
            if plain not in used:
                files.close()

    def _add_tar(self, table: dict[str, FileEntry], plain: IO[bytes],
                 members: Iterable[tuple], label: str) -> None:
        # own: the paths this layer added; implied: the directories above them
        own, implied, keys = set(), {"/"}, None
        for path, typ, linkname, size, mode, offset in members:
            parent, _, base = path.rpartition("/")
            if base == WHITEOUT_PREFIX:
                log.warning("whiteout %s names no path; ignored", path)
                continue
            if getattr(table.get(parent or "/"), "kind", None) != DIRECTORY:
                up = parent  # a link or file anywhere above, as a directory may lie under a link
                while up and getattr(table.get(up), "kind", DIRECTORY) == DIRECTORY:
                    up = up.rpartition("/")[0]
                if up:  # else _place would take the path as spelled
                    landed, refusal = self._place(path)
                    if refusal:
                        log.warning("%s: member %s: %s; refused", label, path, refusal)
                        continue
                    path = landed
                    parent, _, base = path.rpartition("/")
            if not base.startswith(WHITEOUT_PREFIX):
                path = getattr(table.get(path), "path", path)  # the table's key: no second copy
                self._add(table, plain, path, typ, linkname, size, mode, offset)
                own.add(path)
                parent = parent or "/"  # walk up to an ancestor the layer implied and still holds
                while parent not in implied or parent not in table:
                    implied.add(parent)
                    table[parent] = table.get(parent) or _record(parent, DIRECTORY)
                    parent = parent_of(parent)
            else:
                # Whiteouts hide lower layers only: each drops a gone d and what sorts in
                # ['d/', 'd0') for a gone or opaque d ('0' follows '/'), sparing own paths.
                opaque = base == OPAQUE_MARKER
                top = parent if opaque else f"{parent}/{base[len(WHITEOUT_PREFIX):]}"
                keys = sorted(table) if keys is None else keys  # later additions are the layer's
                hidden = keys[bisect_left(keys, top + "/"):bisect_left(keys, top + "0")]
                for p in hidden if opaque else [top, *hidden]:
                    if p not in own and table.pop(p, None) and p in implied:
                        table[p] = _record(p, DIRECTORY)  # a directory the layer implies stays one

    def _place(self, path: str) -> tuple[str | None, str]:
        """Where member ``path`` lands, as containerd's applier puts it (continuity's
        RootPath): its directory part walked through the union, links followed
        inside the image and a missing component, a dangling link's target too,
        taken as spelled. Returns (landed path, ""), or (None, why) when that part
        loops or reaches a non-directory, where no runtime can apply the member."""
        directory, _, base = path.rpartition("/")
        try:
            end, rest = self.fs._walk(directory + "/.", _missing=DIRECTORY)
        except MaterializeError:
            return None, "its directory is a symlink loop"
        if rest:
            return None, f"its directory reaches {end}, which is not a directory"
        return f"{end.rstrip('/')}/{base}", ""

    def _add(self, table: dict[str, FileEntry], plain: IO[bytes], path: str, typ: bytes,
             linkname: str, size: int, mode: int, offset: int) -> None:
        """Put one member in the union; a non-directory drops the subtree of a directory
        it replaces (the union is a tree, so only a directory has one)."""
        old = table.get(path)
        if old is not None and typ != _DIRTYPE and old.kind == DIRECTORY:
            for p in [p for p in table if p.startswith(path + "/")]:
                del table[p]
        if typ == _DIRTYPE:
            table[path] = _record(path, DIRECTORY, mode=mode)
        elif typ == _SYMTYPE:
            table[path] = _record(path, SYMLINK, 0, linkname, mode)
        elif typ == _LNKTYPE:
            # Hardlink: a regular entry with its target's size and bytes (tar stores them once).
            link = _tar_member_path(linkname)
            landed, refusal = self._place(link) if link else (None, "")
            target = table.get(landed)
            if refusal:  # no runtime could place the target, so no member is there
                log.warning("hardlink %s: target %s: %s", path, linkname, refusal)
            elif target is None or target.kind != REGULAR:
                log.warning("hardlink %s: target %s %s", path, linkname, "is missing" if target
                            is None else f"is not a regular file (kind {target.kind})")
            size, where = (target.size, target.where) if target else (0, None)
            table[path] = _record(path, REGULAR, size, None, mode, where)
        elif typ in _REGULAR_TYPES:
            table[path] = _record(path, REGULAR, size, None, mode, (plain, offset, size))
        else:
            table[path] = _record(path, OTHER, mode=mode)

    def _bytes(self, path: str, where: tuple[IO[bytes], int, int] | None) -> bytes:
        if where is None:
            raise MaterializeError(f"cannot read {path}: dangling hardlink")
        plain, offset, size = where
        plain.seek(offset)
        return plain.read(size)

    def close(self) -> None:
        self._stack.close()


class FlatTarSource(_TarSource):
    """Content source over one tar, a one-layer image (see :func:`load_layers`)."""

    def __init__(self, source: str | os.PathLike | IO[bytes]):
        super().__init__([(source, "flat tar")])


class LayeredSource(_TarSource):
    """Content source over the union of a layer stack (see :func:`load_layers`)."""

    def __init__(self, layer_tars: Iterable[str | os.PathLike | IO[bytes]]):
        layers = [(layer, f"layer {i}") for i, layer in enumerate(layer_tars)]
        if not layers:
            raise IngestError("no layers given")
        super().__init__(layers)


def load_flat_tar(source: str | os.PathLike | IO[bytes]) -> tuple[FileSet, FlatTarSource]:
    """Inventory one tar and open it for reads, in one pass. Every tar is a
    layer; a single tar is a one-layer image, read as :func:`load_layers`
    reads it but with errors labelled 'flat tar'. Compression (gzip, bzip2,
    xz, lzma) is auto-detected. The caller closes the returned source."""
    content = FlatTarSource(source)
    return content.fs, content


def load_layers(layer_tars: Iterable[str | os.PathLike | IO[bytes]]
                ) -> tuple[FileSet, LayeredSource]:
    """Union an ordered (base-first) stack of layer tars, in one pass each.

    Every tar is a layer; a single tar is a one-layer image. Returns the
    union's inventory and a content source over it, which the caller closes.
    Whiteout entries follow the OCI image layer spec: '.wh.<name>' deletes
    <name> from the union of the lower layers, '.wh..wh..opq' hides all prior
    contents of its directory. A bare '.wh.' names no path: it is logged, left
    out of the union and hides nothing. Members merge in tar order, each
    whiteout as it is read; whiteouts act on lower layers only, so they spare
    every path the layer itself adds. A hardlink takes its target as the union
    holds it when the link is read. Later members replace earlier entries at
    the same path; a non-directory drops the subtree of whatever it replaces.
    An ancestor that no member names is a directory of the layer that implies
    it, as extraction makes it: that layer's whiteouts spare it, an upper
    layer's whiteout of its children leaves it, and a later non-directory at
    its path drops its subtree. A member, whiteout or hardlink target under a
    directory link (a merged-/usr 'lib -> usr/lib') lands where the link leads,
    as containerd applies a layer; a missing component on the way, a dangling
    link's target included, becomes such an implied directory. A name whose
    directory part loops or reaches a non-directory, which no runtime can
    apply, and one with a '..' component are refused: each is left out of the
    union and logged as a warning naming it and its layer, and a hardlink to
    such a name finds its target missing.
    """
    content = LayeredSource(layer_tars)
    return content.fs, content


def load_rootfs(dir_path: str | os.PathLike) -> tuple[FileSet, RootfsSource]:
    """Inventory a rootfs directory, rebased onto '/', and open it for reads,
    in one walk (see :class:`RootfsSource`)."""
    content = RootfsSource(dir_path)
    return content.fs, content
