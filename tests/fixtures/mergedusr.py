"""Builder for a merged-/usr image, as the Debian 12 and Ubuntu 22.04 bases
lay it out: /bin and /lib are links into /usr, while dpkg file lists and
the scanner report name files by their /lib spelling. The workload runs
/bin/python3 and loads libc through /lib.

The image comes as a rootfs directory or as two layer tars (the base, then
a layer holding only the two links), and both must analyze alike.
RETAINED is what the workload needs.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import tarfile

DPKG_STATUS = """\
Package: libc6
Status: install ok installed
Architecture: amd64
Version: 2.36-9

Package: python3
Status: install ok installed
Architecture: amd64
Version: 3.11
Depends: libc6

Package: libunused1
Status: install ok installed
Architecture: amd64
Version: 1.0

"""

LISTS = {
    "libc6:amd64": "/.\n/lib\n/lib/x86_64-linux-gnu\n/lib/x86_64-linux-gnu/libc.so.6\n",
    "python3:amd64": "/.\n/usr/bin/python3\n/usr/bin/python3.11\n",
    "libunused1:amd64": "/.\n/lib\n/lib/x86_64-linux-gnu\n/lib/x86_64-linux-gnu/libunused.so.1\n",
}

# (path, payload size) of each regular file outside the dpkg database.
FILES = [("usr/bin/python3.11", 100), ("usr/lib/x86_64-linux-gnu/libc.so.6", 3000),
         ("usr/lib/x86_64-linux-gnu/libunused.so.1", 7000), ("opt/unused/big", 5000)]
BASE_LINKS = [("usr/bin/python3", "python3.11")]
MERGED_LINKS = [("bin", "usr/bin"), ("lib", "usr/lib")]

TRACE = """\
100 execve("/bin/python3", ["python3"], 0x7ffcd9be2e58 /* 5 vars */) = 0
100 openat(AT_FDCWD, "/lib/x86_64-linux-gnu/libc.so.6", O_RDONLY|O_CLOEXEC) = 3
100 exit_group(0) = ?
"""

REPORT = {"matches": [
    {"vulnerability": {"id": "CVE-1", "severity": "High"},
     "artifact": {"name": "libc6", "version": "2.36-9",
                  "locations": [{"path": "/lib/x86_64-linux-gnu/libc.so.6"}]}},
    {"vulnerability": {"id": "CVE-2", "severity": "High"},
     "artifact": {"name": "libunused1", "version": "1.0",
                  "locations": [{"path": "/lib/x86_64-linux-gnu/libunused.so.1"}]}},
]}

RETAINED = {"/", "/bin", "/lib", "/usr", "/usr/bin", "/usr/bin/python3", "/usr/bin/python3.11",
            "/usr/lib", "/usr/lib/x86_64-linux-gnu", "/usr/lib/x86_64-linux-gnu/libc.so.6"}


def _members() -> list[tuple[str, bytes | str | None]]:
    """(path, content) of every base-layer object: bytes for a file, a str
    target for a link, None for a directory."""
    files = [(path, bytes(size)) for path, size in FILES]
    files.append(("var/lib/dpkg/status", DPKG_STATUS.encode()))
    files += [(f"var/lib/dpkg/info/{name}.list", text.encode()) for name, text in LISTS.items()]
    dirs = sorted({"/".join(p.split("/")[:i]) for p, _ in files + BASE_LINKS
                   for i in range(1, p.count("/") + 1)})
    return [(d, None) for d in dirs] + files + BASE_LINKS


def build_rootfs(root, links=MERGED_LINKS) -> pathlib.Path:
    root = pathlib.Path(root)
    root.mkdir(parents=True)
    for path, content in _members() + links:
        if content is None:
            (root / path).mkdir()
        elif isinstance(content, str):
            os.symlink(content, root / path)
        else:
            (root / path).write_bytes(content)
    return root


def _write_tar(path: pathlib.Path, members) -> pathlib.Path:
    with tarfile.open(path, "w") as tf:
        for name, content in members:
            info = tarfile.TarInfo(name)
            if content is None:
                info.type, info.mode = tarfile.DIRTYPE, 0o755
            elif isinstance(content, str):
                info.type, info.linkname = tarfile.SYMTYPE, content
            else:
                info.size = len(content)
            tf.addfile(info, io.BytesIO(content) if isinstance(content, bytes) else None)
    return path


def build_layers(directory, links=MERGED_LINKS) -> list[pathlib.Path]:
    """The base layer tar, then the layer that adds /bin and /lib (or ``links``)."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    return [_write_tar(directory / "base.tar", _members()),
            _write_tar(directory / "merged.tar", links)]


def write_inputs(directory) -> tuple[pathlib.Path, pathlib.Path]:
    """The trace and the scanner report, as files under directory."""
    directory = pathlib.Path(directory)
    (directory / "trace.log").write_text(TRACE)
    (directory / "grype.json").write_text(json.dumps(REPORT))
    return directory / "trace.log", directory / "grype.json"
