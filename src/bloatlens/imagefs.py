"""Container filesystem ingestion.

Builds an immutable file inventory (:class:`FileSet`) from one of three
sources: an extracted rootfs directory, a single flat tar, or an ordered
stack of image layer tars with OCI whiteout handling. The inventory records
paths, kinds and apparent sizes only; file content stays in the source and
is read back through a :class:`ContentSource` when needed.

``load_flat_tar`` and ``load_layers`` return (FileSet, ContentSource) from
one header walk over each tar; the caller closes the source. A gzip, bzip2,
xz or lzma tar is decompressed once into an anonymous temp file, which
takes disk space equal to the uncompressed tar until the source is closed
(or, for a layer none of whose members is left in the union, until the
union is built). The walk reads ustar headers (either checksum sum, octal
and base-256 numbers, the name prefix, v7 ``name/`` directories), GNU long
names and link names, and pax extended and global records (path, linkpath,
size); it rejects sparse members. tarfile only writes tars here. Reading
a symlink from a tar source follows it through the union.
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
from dataclasses import dataclass
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping, NamedTuple

from .errors import IngestError, MaterializeError

log = logging.getLogger(__name__)

REGULAR = "regular"
DIRECTORY = "directory"
SYMLINK = "symlink"
OTHER = "other"

KINDS = (REGULAR, DIRECTORY, SYMLINK, OTHER)

# Origin labels for FileSet provenance.
ORIGIN_ROOTFS = "rootfs-dir"
ORIGIN_FLAT_TAR = "flat-tar"
ORIGIN_LAYERED = "layered"

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


def _validate_path(path: str) -> None:
    if path == "/":
        return
    if not path.startswith("/") or path.endswith("/"):
        raise ValueError(f"path must be absolute without trailing slash: {path!r}")
    for seg in path.split("/")[1:]:
        if seg in ("", ".", ".."):
            raise ValueError(f"path contains empty or dot segment: {path!r}")


def parent_of(path: str) -> str:
    """Parent directory path; the parent of '/' is '/'."""
    return path.rsplit("/", 1)[0] or "/"


@dataclass(frozen=True)
class FileEntry:
    """One filesystem object: an absolute normalized path plus kind and size.

    Only regular files carry a size; directories, symlinks and special files
    count zero bytes. ``link_target`` is the raw (possibly relative) target
    string and is present exactly for symlinks.
    """

    path: str
    kind: str
    size: int = 0
    link_target: str | None = None

    def __post_init__(self):
        _validate_path(self.path)
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r} for {self.path!r}")
        if self.size < 0:
            raise ValueError(f"negative size for {self.path!r}")
        if self.kind != REGULAR and self.size != 0:
            raise ValueError(f"non-regular entry {self.path!r} must have size 0")
        if (self.kind == SYMLINK) != (self.link_target is not None):
            raise ValueError(f"link_target is required iff kind=symlink: {self.path!r}")


class FileSet:
    """Immutable map of path -> FileEntry with a provenance label.

    Equality compares entries only (paths, kinds, sizes, link targets);
    origin is metadata. Loaders guarantee that every non-root entry's parent
    is present as a directory; derived sets such as the bloat complement do
    not (see :func:`check_parent_closure`).
    """

    __slots__ = ("entries", "origin")

    def __init__(self, entries: Mapping[str, FileEntry] | Iterable[FileEntry], origin: str):
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
        object.__setattr__(self, "origin", origin)

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
        return f"FileSet({len(self.entries)} entries, origin={self.origin!r})"


def check_parent_closure(fs: FileSet) -> list[str]:
    """Paths whose parent is missing or not a directory (empty when closed)."""
    return sorted(path for path in fs.entries if path != "/" and
                  getattr(fs.entries.get(parent_of(path)), "kind", None) != DIRECTORY)


def total_size(fs: FileSet) -> int:
    """Total apparent size in bytes: the sum over regular files only."""
    return sum(e.size for e in fs.entries.values() if e.kind == REGULAR)


def _ancestors(path: str) -> Iterator[str]:
    """Proper ancestors of an absolute path, nearest first, ending with '/'."""
    while path != "/":
        path = parent_of(path)
        yield path


def _with_parents(entries: Iterable[FileEntry], origin: str) -> FileSet:
    """A FileSet of entries (later ones win) and the parent directories they imply."""
    items = {"/": FileEntry("/", DIRECTORY)}
    for entry in entries:
        missing, parent = [], parent_of(entry.path)
        while parent not in items:
            missing.append(parent)
            parent = parent_of(parent)
        items.update((p, FileEntry(p, DIRECTORY)) for p in reversed(missing))
        if entry.path != "/":
            items[entry.path] = entry
    return FileSet(items, origin)


def load_rootfs(dir_path: str | os.PathLike) -> FileSet:
    """Inventory a rootfs directory, rebasing it onto '/'.

    Symlinks are recorded, never followed. Objects that cannot be
    classified or statted degrade to kind=other with a warning instead of
    aborting; real images contain sockets and device nodes.
    """
    root = os.fspath(dir_path)
    if not os.path.isdir(root):
        raise IngestError(f"rootfs is not a readable directory: {root}")
    entries: list[FileEntry] = []

    def rebase(full: str) -> str:
        rel = os.path.relpath(full, root)
        return "/" if rel == "." else "/" + rel.replace(os.sep, "/")

    def walk(dirfull: str) -> None:
        try:
            with os.scandir(dirfull) as it:
                children = sorted(it, key=lambda d: d.name)
        except OSError as exc:
            if dirfull == root:
                raise IngestError(f"cannot read rootfs root: {exc}") from exc
            log.warning("unreadable directory %s: %s", dirfull, exc)
            return
        for child in children:
            path = rebase(child.path)
            try:
                st = child.stat(follow_symlinks=False)
                if stat.S_ISLNK(st.st_mode):
                    entries.append(FileEntry(path, SYMLINK, 0, os.readlink(child.path)))
                elif stat.S_ISDIR(st.st_mode):
                    entries.append(FileEntry(path, DIRECTORY))
                    walk(child.path)
                elif stat.S_ISREG(st.st_mode):
                    entries.append(FileEntry(path, REGULAR, st.st_size))
                else:
                    entries.append(FileEntry(path, OTHER))
            except OSError as exc:
                log.warning("unreadable entry %s: %s", child.path, exc)
                entries.append(FileEntry(path, OTHER))

    walk(root)
    return _with_parents(entries, ORIGIN_ROOTFS)


def _tar_member_path(name: str) -> str | None:
    """Normalize a tar member name to an absolute path; None for the root."""
    parts = [p for p in name.split("/") if p not in ("", ".")]
    if not parts or ".." in parts:
        return None
    return "/" + "/".join(parts)


class ContentSource:
    """Reads file bytes and modes back out of the image a FileSet came from."""

    def read(self, path: str) -> bytes:
        raise NotImplementedError

    def mode(self, path: str) -> int | None:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class RootfsSource(ContentSource):
    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)

    def _full(self, path: str) -> str:
        return os.path.join(self.root, path.lstrip("/"))

    def read(self, path: str) -> bytes:
        try:
            with open(self._full(path), "rb") as f:
                return f.read()
        except OSError as exc:
            raise MaterializeError(f"cannot read {path}: {exc}") from exc

    def mode(self, path: str) -> int | None:
        try:
            return stat.S_IMODE(os.lstat(self._full(path)).st_mode)
        except OSError:
            return None


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
                plain.flush()
                try:
                    chunk = stream.read(1 << 20)
                except _DECOMPRESS_ERRORS as exc:
                    raise IngestError(f"{label}: cannot decompress: {exc}") from exc
            plain.seek(0)
        except OSError as exc:
            raise IngestError(f"{label}: cannot write the decompressed tar to a temp "
                              f"file in {tempfile.gettempdir()}: {exc}") from exc
    return plain


# A tar member as its headers give it; offset is where its data starts.
_Member = NamedTuple("_Member", [("type", bytes), ("linkname", str), ("size", int),
                                 ("mode", int), ("offset", int)])


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


def _tar_members(plain: IO[bytes], label: str) -> list[tuple[str, _Member]]:
    """Walk the headers of a plain tar stream once: [(path, member)]. An error
    names the offset of the member's first header (an L, K, x or g, or its own)."""
    start = pos = plain.tell()
    end = plain.seek(0, os.SEEK_END)
    members, glob, ext, at = [], {}, {}, None

    def bad(reason: str) -> IngestError:
        if at == start:
            return IngestError(f"{label}: malformed tar at byte offset {at}: cannot open: {reason}")
        return IngestError(f"{label}: malformed tar header at byte offset {at}: {reason}")

    def data_end(size: int) -> int:  # the offset of the next header
        if size < 0 or pos + size + -size % _BLOCK > end:
            raise bad("unexpected end of data")
        return pos + size + -size % _BLOCK

    plain.seek(pos)
    while True:
        buf = plain.read(_BLOCK)
        extended, at = at is not None, pos if at is None else at
        if len(buf) < _BLOCK or buf == _ZERO_BLOCK:
            if extended or (pos == start and len(buf) < _BLOCK):
                raise bad("no member after its extended header" if extended else
                          "truncated header" if buf else "empty file")
            break
        name, mode, size, chksum, typ, linkname, prefix = _HEADER.unpack(buf)
        try:
            # Compare the checksum, as a byte sum of the block, with the unsigned and
            # signed sums; an ASCII block sums below 65521, to Adler-32's low half - 1.
            total = _number(chksum) + sum(buf[148:156]) - 256
            if total not in (((zlib.adler32(buf) & 0xFFFF) - 1,) if buf.isascii() else (
                    sum(buf), sum(struct.unpack("148b8x356b", buf)) + sum(buf[148:156]))):
                raise bad("bad checksum")
            mode, size = _number(mode), _number(size)
            pos += _BLOCK
            if typ in _EXTENSION_TYPES:
                nxt, data = data_end(size), plain.read(size)
                pos = plain.seek(nxt)
                records = _pax_records(data) if typ not in b"LK" else {
                    "path" if typ == b"L" else "linkpath":
                    data.partition(b"\0")[0].decode(_ENCODING, "surrogateescape")}
                for key, value in records.items():
                    (glob.__setitem__ if typ == b"g" else ext.setdefault)(key, value)
                continue
            name = name.partition(b"\0")[0]
            if typ == b"\0" and name.endswith(b"/"):
                typ = _DIRTYPE
            prefix = prefix.partition(b"\0")[0]
            name = (prefix + b"/" + name if prefix else name).decode(_ENCODING, "surrogateescape")
            linkname = linkname.partition(b"\0")[0].decode(_ENCODING, "surrogateescape")
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
            pos = plain.seek(data_end(size))
        ext, at = {}, None
        path = _tar_member_path(name)
        if path is not None:
            members.append((path, _Member(typ, linkname, size, mode, offset)))
    # A legitimate end of archive leaves only zero padding behind.
    plain.seek(at)
    if any(block.strip(b"\0") for block in iter(lambda: plain.read(1 << 16), b"")):
        raise bad("data after the end-of-archive block")
    return members


class _TarSource(ContentSource):
    """Inventory and content of tars that are each read in one pass.

    ``_union`` maps each inventory path to (entry, mode, plain tar stream,
    member whose data a read returns: for a hardlink, the member its target
    had then). Subclasses merge each tar in ``_add_tar``; a tar with no
    member left in the union is then closed.
    """

    def __init__(self, tars: list[tuple[str | os.PathLike | IO[bytes], str]]):
        self._stack = contextlib.ExitStack()
        self._files: dict[IO[bytes], contextlib.ExitStack] = {}
        self._union: dict[str, tuple] = {}
        try:
            for source, label in tars:
                self._add_tar(source, label)
        except BaseException:
            self.close()
            raise
        used = {plain for _, _, plain, _ in self._union.values()}
        for plain, files in self._files.items():
            if plain not in used:
                files.close()

    def _members(self, source, label: str) -> tuple[IO[bytes], list[tuple[str, _Member]]]:
        """Open one tar, decompressed once, and walk its headers: (plain stream, members)."""
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
        return plain, _tar_members(plain, label)

    def _add(self, path: str, plain: IO[bytes], member: _Member) -> None:
        """Put one member in the union, dropping the subtree of a directory it replaces."""
        union = self._union
        old = union.get(path)
        if old is not None and old[0].kind == DIRECTORY and member.type != _DIRTYPE:
            for p in [p for p in union if p.startswith(path + "/")]:
                del union[p]
        content = member
        if member.type == _DIRTYPE:
            entry = FileEntry(path, DIRECTORY)
        elif member.type == _SYMTYPE:
            entry = FileEntry(path, SYMLINK, 0, member.linkname)
        elif member.type == _LNKTYPE:
            # Hardlink: a regular entry with its target's size and bytes (tar stores them once).
            target = union.get(_tar_member_path(member.linkname))
            if target is None:
                log.warning("hardlink %s points outside archive (%s)", path, member.linkname)
                entry, content = FileEntry(path, REGULAR, 0), None
            else:
                entry = FileEntry(path, REGULAR, target[0].size)
                _, _, plain, content = target
        elif member.type in _REGULAR_TYPES:
            entry = FileEntry(path, REGULAR, member.size)
        else:
            entry = FileEntry(path, OTHER)
        union[path] = (entry, member.mode, plain, content)

    def _fileset(self, origin: str) -> FileSet:
        return _with_parents((entry for entry, *_ in self._union.values()), origin)

    def _resolve(self, path: str) -> str:
        """path with each of its symlinks followed through the union (at most 40)."""
        todo, cur, hops = path.split("/")[::-1], "/", 0
        while todo:
            name = todo.pop()
            cur = parent_of(cur) if name == ".." else cur if name in ("", ".") else \
                f"{cur.rstrip('/')}/{name}"
            entry = self._union.get(cur, (None,))[0]
            if entry is not None and entry.kind == SYMLINK:
                hops += 1
                if hops > 40:
                    raise MaterializeError(f"cannot read {path}: symlink loop")
                todo.extend(entry.link_target.split("/")[::-1])
                cur = "/" if entry.link_target.startswith("/") else parent_of(cur)
        return cur

    def read(self, path: str) -> bytes:
        hit = self._union.get(path)
        if hit is None or hit[0].kind == SYMLINK:
            resolved = self._union.get(self._resolve(path))
            if resolved is None:
                raise MaterializeError(f"cannot read {path}: " + (
                    "dangling symlink" if hit else "not present in source tar"))
            hit = resolved
        _, _, plain, member = hit
        if member is None or member.type not in _REGULAR_TYPES:
            raise MaterializeError(f"cannot read {path}: " + (
                "dangling hardlink" if member is None else "not a regular member"))
        plain.seek(member.offset)
        return plain.read(member.size)

    def mode(self, path: str) -> int | None:
        return self._union.get(path, (None, None))[1]

    def close(self) -> None:
        self._stack.close()


class FlatTarSource(_TarSource):
    """Content source over one flat tar: the last member at a path wins."""

    def __init__(self, source: str | os.PathLike | IO[bytes]):
        super().__init__([(source, "flat tar")])

    def _add_tar(self, source, label: str) -> None:
        plain, members = self._members(source, label)
        for path, member in members:
            self._add(path, plain, member)


class LayeredSource(_TarSource):
    """Content source over the union of a layer stack (see :func:`load_layers`)."""

    def __init__(self, layer_tars: Iterable[str | os.PathLike | IO[bytes]]):
        layers = [(layer, f"layer {i}") for i, layer in enumerate(layer_tars)]
        if not layers:
            raise IngestError("no layers given")
        super().__init__(layers)

    def _add_tar(self, source, label: str) -> None:
        plain, members = self._members(source, label)
        union = self._union
        opaque, gone, additions = set(), set(), []
        for path, member in members:
            parent, _, base = path.rpartition("/")
            if base == OPAQUE_MARKER:
                opaque.add(parent or "/")
            elif base.startswith(WHITEOUT_PREFIX):
                gone.add(f"{parent}/{base[len(WHITEOUT_PREFIX):]}")
            else:
                additions.append((path, member))
        # Whiteouts hide lower layers only, so they apply first, in one pass:
        # a path goes when it or an ancestor is whited out or an ancestor is opaque.
        hiding = opaque | gone
        if hiding:
            for p in [p for p in union if p in gone or any(a in hiding for a in _ancestors(p))]:
                del union[p]
        for path, member in additions:
            self._add(path, plain, member)


def load_flat_tar(source: str | os.PathLike | IO[bytes]) -> tuple[FileSet, FlatTarSource]:
    """Inventory a flat (non-layered) tar and open it for reads, in one pass.

    Compression (gzip, bzip2, xz, lzma) is auto-detected. The caller closes
    the returned source.
    """
    content = FlatTarSource(source)
    return content._fileset(ORIGIN_FLAT_TAR), content


def load_layers(layer_tars: Iterable[str | os.PathLike | IO[bytes]]
                ) -> tuple[FileSet, LayeredSource]:
    """Union an ordered (base-first) stack of layer tars, in one pass each.

    Returns the union's inventory and a content source over it, which the
    caller closes. Whiteout entries follow the OCI image layer spec:
    '.wh.<name>' deletes <name> from the union of the lower layers,
    '.wh..wh..opq' hides all prior contents of its directory. Whiteouts act
    on lower layers only, so the layer's own additions are applied after
    its deletions. Later layers replace earlier entries at the same path;
    replacing a directory with a non-directory drops the old subtree.
    """
    content = LayeredSource(layer_tars)
    return content._fileset(ORIGIN_LAYERED), content
