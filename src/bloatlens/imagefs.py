"""Container filesystem ingestion.

Builds an immutable file inventory (:class:`FileSet`) from one of three
sources: an extracted rootfs directory, a single flat tar, or an ordered
stack of image layer tars with OCI whiteout handling. The inventory records
paths, kinds and apparent sizes only; file content stays in the source and
is read back through a :class:`ContentSource` when needed.

``load_flat_tar`` and ``load_layers`` return (FileSet, ContentSource) from
one pass over each tar; the caller closes the source. A gzip, bzip2, xz
or lzma tar is decompressed once into an anonymous temp file, which takes
disk space equal to the uncompressed tar until the source is closed (or,
for a layer none of whose members is left in the union, until the union
is built).
"""

from __future__ import annotations

import bz2
import contextlib
import gzip
import logging
import lzma
import os
import stat
import tarfile
import tempfile
import zlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import IO, Iterable, Iterator, Mapping

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
    if path == "/":
        return "/"
    head = path.rsplit("/", 1)[0]
    return head if head else "/"


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
    bad = []
    for path in fs.entries:
        if path == "/":
            continue
        parent = parent_of(path)
        entry = fs.entries.get(parent)
        if entry is None or entry.kind != DIRECTORY:
            bad.append(path)
    return sorted(bad)


def total_size(fs: FileSet) -> int:
    """Total apparent size in bytes: the sum over regular files only."""
    return sum(e.size for e in fs.entries.values() if e.kind == REGULAR)


def _ancestors(path: str) -> Iterator[str]:
    """Proper ancestors of an absolute path, nearest first, ending with '/'."""
    while path != "/":
        path = parent_of(path)
        yield path


class _Builder:
    """Accumulates entries and inserts implied parent directories."""

    def __init__(self):
        self.items: dict[str, FileEntry] = {"/": FileEntry("/", DIRECTORY)}

    def ensure_parents(self, path: str) -> None:
        parent = parent_of(path)
        missing = []
        while parent not in self.items:
            missing.append(parent)
            parent = parent_of(parent)
        for p in reversed(missing):
            self.items[p] = FileEntry(p, DIRECTORY)

    def add(self, entry: FileEntry) -> None:
        if entry.path == "/":
            return
        self.ensure_parents(entry.path)
        self.items[entry.path] = entry

    def build(self, origin: str) -> FileSet:
        return FileSet(self.items, origin)


def load_rootfs(dir_path: str | os.PathLike) -> FileSet:
    """Inventory a rootfs directory, rebasing it onto '/'.

    Symlinks are recorded, never followed. Objects that cannot be
    classified or statted degrade to kind=other with a warning instead of
    aborting; real images contain sockets and device nodes.
    """
    root = os.fspath(dir_path)
    if not os.path.isdir(root):
        raise IngestError(f"rootfs is not a readable directory: {root}")
    builder = _Builder()

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
                    target = os.readlink(child.path)
                    builder.add(FileEntry(path, SYMLINK, 0, target))
                elif stat.S_ISDIR(st.st_mode):
                    builder.add(FileEntry(path, DIRECTORY))
                    walk(child.path)
                elif stat.S_ISREG(st.st_mode):
                    builder.add(FileEntry(path, REGULAR, st.st_size))
                else:
                    builder.add(FileEntry(path, OTHER))
            except OSError as exc:
                log.warning("unreadable entry %s: %s", child.path, exc)
                builder.add(FileEntry(path, OTHER))

    walk(root)
    return builder.build(ORIGIN_ROOTFS)


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
    start = raw.tell()
    magic = raw.read(6)
    raw.seek(start)
    opener = next((op for m, op in _DECOMPRESSORS if magic.startswith(m)), None)
    if opener is None:
        return raw
    with opener(raw) as stream:
        try:
            chunk = stream.read(tarfile.BLOCKSIZE)
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


class _TarSource(ContentSource):
    """Inventory and content of tars that are each read in one pass.

    ``_union`` maps each inventory path to (entry, mode, tar, member), where
    member holds the bytes a read returns; for a hardlink, that is the
    member its target had when the link came in archive order, as
    extraction has it. Subclasses merge each tar in ``_add_tar``. Once the
    union is built, a tar none of whose members is in it is closed, which
    frees its temp file.
    """

    def __init__(self, tars: list[tuple[str | os.PathLike | IO[bytes], str]]):
        self._stack = contextlib.ExitStack()
        self._files: dict[tarfile.TarFile, contextlib.ExitStack] = {}
        self._union: dict[str, tuple] = {}
        try:
            for source, label in tars:
                self._add_tar(source, label)
        except BaseException:
            self.close()
            raise
        used = {tf for _, _, tf, _ in self._union.values()}
        for tf, files in self._files.items():
            if tf not in used:
                files.close()

    def _members(self, source, label: str) -> tuple[tarfile.TarFile, list]:
        """Open one tar, decompressing it once if it is compressed, and walk
        its headers once: (tar, [(path, member)]). Failures raise IngestError."""
        files = self._stack.enter_context(contextlib.ExitStack())
        try:
            raw = source
            if isinstance(source, (str, os.PathLike)):
                raw = files.enter_context(open(source, "rb"))
            plain = _decompressed(raw, label, files)
            if raw is not source and plain is not raw:
                raw.close()
            tf = tarfile.open(fileobj=plain, mode="r:")
        except (tarfile.TarError, OSError) as exc:
            raise IngestError(
                f"{label}: malformed tar at byte offset 0: cannot open: {exc}"
            ) from exc
        self._files[tf] = files
        members = []
        while True:
            try:
                member = tf.next()
            except tarfile.TarError as exc:
                raise IngestError(
                    f"{label}: malformed tar header at byte offset {tf.offset}: {exc}"
                ) from exc
            if member is None:
                break
            path = _tar_member_path(member.name)
            if path is not None:
                members.append((path, member))
        # tarfile quietly stops at the first invalid mid-archive header; a
        # legitimate end of archive leaves only zero padding behind.
        plain.seek(tf.offset)
        if any(block.strip(b"\x00") for block in iter(lambda: plain.read(1 << 16), b"")):
            raise IngestError(f"{label}: malformed tar header at byte offset {tf.offset}")
        return tf, members

    def _add(self, path: str, tf: tarfile.TarFile, member: tarfile.TarInfo) -> None:
        content = member
        if member.isdir():
            entry = FileEntry(path, DIRECTORY)
        elif member.issym():
            entry = FileEntry(path, SYMLINK, 0, member.linkname)
        elif member.islnk():
            # Hardlink: an independent regular entry carrying the full size
            # and bytes of the link target (tar stores them once, size 0 here).
            target = self._union.get(_tar_member_path(member.linkname))
            if target is None:
                log.warning("hardlink %s points outside archive (%s)", path, member.linkname)
                entry, content = FileEntry(path, REGULAR, 0), None
            else:
                entry = FileEntry(path, REGULAR, target[0].size)
                _, _, tf, content = target
        elif member.isfile():
            entry = FileEntry(path, REGULAR, member.size)
        else:
            entry = FileEntry(path, OTHER)
        self._union[path] = (entry, member.mode, tf, content)

    def _fileset(self, origin: str) -> FileSet:
        builder = _Builder()
        for entry, *_ in self._union.values():
            builder.add(entry)
        return builder.build(origin)

    def read(self, path: str) -> bytes:
        hit = self._union.get(path)
        if hit is None:
            raise MaterializeError(f"cannot read {path}: not present in source tar")
        _, _, tf, member = hit
        if member is None:
            raise MaterializeError(f"cannot read {path}: dangling hardlink")
        fobj = tf.extractfile(member)
        if fobj is None:
            raise MaterializeError(f"cannot read {path}: not a regular member")
        with fobj:
            return fobj.read()

    def mode(self, path: str) -> int | None:
        return self._union.get(path, (None, None))[1]

    def close(self) -> None:
        self._stack.close()


class FlatTarSource(_TarSource):
    """Content source over one flat tar: the last member at a path wins."""

    def __init__(self, source: str | os.PathLike | IO[bytes]):
        super().__init__([(source, "flat tar")])

    def _add_tar(self, source, label: str) -> None:
        tf, members = self._members(source, label)
        for path, member in members:
            self._add(path, tf, member)


class LayeredSource(_TarSource):
    """Content source over the union of a layer stack (see :func:`load_layers`)."""

    def __init__(self, layer_tars: Iterable[str | os.PathLike | IO[bytes]]):
        layers = [(layer, f"layer {i}") for i, layer in enumerate(layer_tars)]
        if not layers:
            raise IngestError("no layers given")
        super().__init__(layers)

    def _add_tar(self, source, label: str) -> None:
        tf, members = self._members(source, label)
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
            old = union.get(path)
            if old is not None and old[0].kind == DIRECTORY and not member.isdir():
                for p in [p for p in union if p.startswith(path + "/")]:
                    del union[p]
            self._add(path, tf, member)


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
