"""Seeded synthetic containers for the bloatlens benchmark.

    python3 bench/gen.py --workload layered-gz --seed 1 --out DIR [--scale 1.0]

Writes one workload's inputs (image, syscall trace, scanner report) into
DIR, plus DIR/expected.json with the pipeline configuration and the values
every analysis is checked against. bloatlens only ever reads the inputs;
expected.json is for bench/run.py alone. The same workload, seed and scale
always give byte-identical inputs.

Every workload shares one trace grammar mix (clone/fork/vfork/clone3,
chdir/fchdir, ``*at`` calls with AT_FDCWD and ``N</dir>`` dirfds,
unfinished/resumed pairs, struct arguments, failed calls, statx and
octal-escaped UTF-8 paths); only the sizes and proportions differ.
Paths the workload reaches only through ``statx`` or only under a
non-ASCII name are counted in ``traced_ok`` like any other, so a parser
that drops them shows it as lost access recall.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import posixpath
import random
import shutil
import sys
import tarfile

# Sizes at scale 1.0. They are chosen so that one analysis takes under a
# second on a 2-vCPU machine, which keeps a 35-second run at 40 to 60
# samples; ``--scale`` multiplies them (bench/run.py --tiny uses 0.05).
WORKLOADS = {
    # Most work in imagefs: gzip layer ingest with whiteouts, metadata
    # reads from gzip members, and a debloated tar read back out of them.
    # Whiteouts are many for the union's size, so that the deletion scan,
    # which grows with whiteouts times union entries, shows at this size.
    "layered-gz": dict(
        image="layers", layers=4, filler=200, apt=30, pip=20, conda=10,
        pkg_files=4, deps=2, whiteouts=250, opaque=2, trace_lines=3000,
        touch=0.2, report="grype", matches=300, emit_tar=True, file_kib=0.5,
    ),
    # Most work in trace parsing: a long trace over a small rootfs dir.
    "trace-heavy": dict(
        image="rootfs", filler=600, apt=20, pip=12, conda=8,
        pkg_files=4, deps=2, trace_lines=42000, touch=0.2,
        report="trivy", matches=200, emit_tar=True, file_kib=1.0,
    ),
    # Most work in packages, vuln, depgraph and the report document.
    "pkg-graph": dict(
        image="flat", filler=100, apt=270, pip=150, conda=70,
        pkg_files=1, deps=4, trace_lines=3000, touch=0.3,
        report="grype", matches=4000, emit_tar=False, file_kib=0.5,
    ),
}

SCALED = ("filler", "apt", "pip", "conda", "whiteouts", "trace_lines", "matches")

SITE = "/usr/local/lib/python3.11/site-packages"
CONDA_PREFIX = "/opt/conda"
LIBDIR = "/usr/lib/x86_64-linux-gnu"
ML_STEMS = ("cudnn", "nccl", "cublas", "torch", "onnx", "tensorrt", "mkl", "jax")
WORDS = ("core", "util", "net", "xml", "json", "zip", "crypt", "img", "sql",
         "text", "audio", "font", "mesh", "gfx", "proto", "cache", "log", "io")
UNICODE_DIRS = ("café", "données", "naïve", "größe", "日本語", "résumé", "øre")
FILLER_ROOTS = ("/opt/app/data", "/usr/share/assets", "/srv/static", "/var/lib/app")
SEVERITIES = ("Critical", "High", "Medium", "Low", "Negligible", "Unknown")


class Image:
    """The final container filesystem: path -> (kind, data, link target)."""

    def __init__(self):
        self.entries: dict[str, tuple[str, bytes, str | None]] = {}

    def add_dirs(self, path: str) -> None:
        parts = path.strip("/").split("/")
        for i in range(1, len(parts) + 1):
            self.entries.setdefault("/" + "/".join(parts[:i]), ("dir", b"", None))

    def add_file(self, path: str, data: bytes) -> None:
        self.add_dirs(posixpath.dirname(path))
        self.entries[path] = ("file", data, None)

    def add_link(self, path: str, target: str) -> None:
        self.add_dirs(posixpath.dirname(path))
        self.entries[path] = ("link", b"", target)

    def regular(self) -> list[str]:
        return sorted(p for p, e in self.entries.items() if e[0] == "file")


class Content:
    """Compressible, seeded file bytes cut out of one word corpus."""

    def __init__(self, rng: random.Random, mean_kib: float):
        words = [bytes(rng.choice(b"abcdefghijklmnopqrstuvwxyz") for _ in range(rng.randint(2, 9)))
                 for _ in range(4000)]
        self.corpus = b" ".join(words) * 16
        self.rng = rng
        self.mean = mean_kib * 1024

    def blob(self) -> bytes:
        size = max(16, min(int(self.rng.expovariate(1 / self.mean)), 100_000))
        off = self.rng.randrange(len(self.corpus) - size)
        return self.corpus[off:off + size]


class Package:
    def __init__(self, manager: str, name: str, version: str):
        self.manager = manager
        self.name = name
        self.version = version
        self.files: list[str] = []     # regular files the package owns
        self.dep_groups: list[list[str]] = []   # declared names, as written
        self.dep_targets: list[int] = []        # indices into the same manager
        self.provides: list[str] = []

    @property
    def graph_key(self) -> str:
        name = self.name
        if self.manager == "pip":
            name = _canonical(name)
        return f"{self.manager}:{name}"


def _canonical(name: str) -> str:
    """PEP 503 name normalization, written out here rather than imported so
    that no expected value comes from the program under test."""
    out, prev_sep = [], False
    for ch in name.lower():
        if ch in "-_.":
            if not prev_sep:
                out.append("-")
            prev_sep = True
        else:
            out.append(ch)
            prev_sep = False
    return "".join(out)


# -- packages ---------------------------------------------------------------


def _make_packages(rng: random.Random, spec: dict) -> dict[str, list[Package]]:
    pkgs: dict[str, list[Package]] = {"apt": [], "pip": [], "conda": []}
    for manager in pkgs:
        for i in range(spec[manager]):
            stem = rng.choice(ML_STEMS) if rng.random() < 0.1 else rng.choice(WORDS)
            if manager == "apt":
                name = f"lib{stem}{i}"
            elif manager == "pip":
                name = f"Py{stem.capitalize()}_{i}" if i % 3 else f"py-{stem}.{i}"
            else:
                name = f"{stem}-c{i}"
            pkgs[manager].append(Package(manager, name, f"{1 + i % 7}.{i % 13}.{rng.randint(0, 9)}"))
    for manager, group in pkgs.items():
        for i, pkg in enumerate(group):
            count = min(i, max(0, round(rng.gauss(spec["deps"], 1))))
            targets = rng.sample(range(i), count) if count else []
            if i + 1 < len(group) and rng.random() < 0.04:
                targets.append(rng.randrange(i + 1, len(group)))   # a cycle
            for t in targets:
                _declare_dep(rng, manager, pkg, group, t)
            if manager == "apt" and rng.random() < 0.05:
                pkg.dep_groups.append([f"absent-{i}"])   # dangling group
    return pkgs


def _declare_dep(rng, manager: str, pkg: Package, group: list[Package], t: int) -> None:
    target = group[t]
    pkg.dep_targets.append(t)
    if manager == "apt":
        r = rng.random()
        if r < 0.15:
            pkg.dep_groups.append([f"absent-{t}-alt", f"{target.name} (>= 1.0)"])
        elif r < 0.25:
            virtual = f"virt-{target.name}"
            if virtual not in target.provides:
                target.provides.append(virtual)
            pkg.dep_groups.append([virtual])
        else:
            pkg.dep_groups.append([target.name + (":any" if r > 0.9 else "")])
    elif manager == "pip":
        spelled = target.name.upper() if rng.random() < 0.2 else target.name
        pkg.dep_groups.append([spelled])
    else:
        pkg.dep_groups.append([target.name])


def _place_packages(image: Image, content: Content, rng: random.Random,
                    pkgs: dict[str, list[Package]], most: int) -> None:
    """Write every package's files and its manager's metadata."""
    status = []
    for i, pkg in enumerate(pkgs["apt"]):
        base = f"{LIBDIR}/{pkg.name}"
        for k in range(rng.randint(1, most)):
            path = f"{base}/{pkg.name}.so.{k}"
            image.add_file(path, content.blob())
            pkg.files.append(path)
        doc = f"/usr/share/doc/{pkg.name}/copyright"
        image.add_file(doc, content.blob())
        pkg.files.append(doc)
        dirs = sorted({d for f in pkg.files for d in _ancestors(f)})
        listing = "/.\n" + "".join(d + "\n" for d in dirs) + "".join(f + "\n" for f in pkg.files)
        list_name = f"{pkg.name}:amd64.list" if i % 2 else f"{pkg.name}.list"
        image.add_file(f"/var/lib/dpkg/info/{list_name}", listing.encode())
        fields = [f"Package: {pkg.name}", "Status: install ok installed",
                  "Priority: optional", "Section: libs", "Architecture: amd64",
                  f"Version: {pkg.version}"]
        if pkg.dep_groups:
            fields.append("Depends: " + ", ".join(" | ".join(g) for g in pkg.dep_groups))
        if pkg.provides:
            fields.append("Provides: " + ", ".join(pkg.provides))
        fields.append(f"Description: synthetic library {i}\n with a continuation line.")
        status.append("\n".join(fields))
        if i % 25 == 0:
            status.append(f"Package: gone{i}\nStatus: deinstall ok config-files\n"
                          f"Version: 0.{i}\nArchitecture: amd64")
    image.add_file("/var/lib/dpkg/status", ("\n\n".join(status) + "\n").encode())

    for i, pkg in enumerate(pkgs["pip"]):
        mod = _canonical(pkg.name).replace("-", "_")
        dist = f"{mod}-{pkg.version}.dist-info"
        record = []
        for fname in ("__init__.py", "core.py", "util.py")[:rng.randint(1, min(3, most))]:
            path = f"{SITE}/{mod}/{fname}"
            image.add_file(path, content.blob())
            pkg.files.append(path)
            record.append(f"{mod}/{fname},sha256=x,{len(image.entries[path][1])}")
        if i % 4 == 0:
            script = f"/usr/local/bin/{mod}-cli"
            image.add_file(script, content.blob())
            pkg.files.append(script)
            record.append(f"../../../bin/{mod}-cli,sha256=y,10")
        meta = [f"Metadata-Version: 2.1", f"Name: {pkg.name}", f"Version: {pkg.version}",
                "Summary: synthetic distribution"]
        for k, (group, t) in enumerate(zip(pkg.dep_groups, pkg.dep_targets)):
            marker = ' ; python_version >= "3.8"' if k % 2 else ""
            meta.append(f"Requires-Dist: {group[0]} (>=0.1){marker}")
        meta_path = f"{SITE}/{dist}/METADATA"
        image.add_file(meta_path, ("\n".join(meta) + "\n\nLong description.\n").encode())
        record += [f"{dist}/METADATA,sha256=z,1", f"{dist}/RECORD,,"]
        image.add_file(f"{SITE}/{dist}/RECORD", ("\n".join(record) + "\n").encode())
        pkg.files += [meta_path, f"{SITE}/{dist}/RECORD"]

    for i, pkg in enumerate(pkgs["conda"]):
        rel = [f"lib/{pkg.name}/lib{pkg.name}.so", f"lib/{pkg.name}/data.bin"][:rng.randint(1, min(2, most))]
        for r in rel:
            path = f"{CONDA_PREFIX}/{r}"
            image.add_file(path, content.blob())
            pkg.files.append(path)
        meta_rel = f"conda-meta/{pkg.name}-{pkg.version}-h{i:04x}_0.json"
        doc = {"name": pkg.name, "version": pkg.version, "build": f"h{i:04x}_0",
               "depends": [f"{g[0]} >=0.1" for g in pkg.dep_groups],
               "files": rel + [meta_rel]}
        image.add_file(f"{CONDA_PREFIX}/{meta_rel}", json.dumps(doc, indent=1).encode())
        pkg.files.append(f"{CONDA_PREFIX}/{meta_rel}")


def _ancestors(path: str) -> list[str]:
    parts = path.strip("/").split("/")[:-1]
    return ["/" + "/".join(parts[:i]) for i in range(1, len(parts) + 1)]


# -- filler, unicode names and symlinks --------------------------------------


def _place_filler(image: Image, content: Content, rng: random.Random, count: int) -> list[str]:
    """Non-package files; returns the non-ASCII ones."""
    unicode_files = []
    n_dirs = max(4, count // 30)
    dirs = [f"{rng.choice(FILLER_ROOTS)}/d{k:03d}/{rng.choice(WORDS)}" for k in range(n_dirs)]
    for k in range(count):
        if k % 40 == 7:
            d = f"/opt/app/i18n/{UNICODE_DIRS[k % len(UNICODE_DIRS)]}"
            path = f"{d}/fichier-{k}.txt" if k % 80 == 7 else f"{d}/é{k}.dat"
            unicode_files.append(path)
        elif k % 97 == 3:
            path = f"{rng.choice(dirs)}/with space {k}.cfg"
        else:
            path = f"{rng.choice(dirs)}/f{k:05d}.dat"
        image.add_file(path, content.blob())
    for k in range(max(2, count // 200)):
        real = f"/opt/app/bin/tool{k}-real"
        image.add_file(real, content.blob())
        image.add_link(f"/usr/bin/tool{k}", f"../../opt/app/bin/tool{k}-real")
    image.add_file("/usr/bin/python3.11", content.blob())
    image.add_link("/usr/bin/python3", "python3.11")
    image.add_dirs("/tmp")
    image.add_dirs("/etc")
    image.add_file("/etc/ld.so.cache", content.blob())
    return unicode_files


# -- trace -------------------------------------------------------------------


def _quote(path: str) -> str:
    """strace's C quoting: printable ASCII as is, other bytes octal-escaped."""
    out = []
    for b in path.encode("utf-8"):
        if b in (0x22, 0x5C):
            out.append("\\" + chr(b))
        elif 0x20 <= b < 0x7F:
            out.append(chr(b))
        else:
            out.append(f"\\{b:o}")
    return '"' + "".join(out) + '"'


class _Proc:
    __slots__ = ("pid", "cwd", "fds")

    def __init__(self, pid: int, cwd: str, fds: dict[int, str]):
        self.pid = pid
        self.cwd = cwd
        self.fds = fds

    def new_fd(self, path: str) -> int:
        fd = 3
        while fd in self.fds:
            fd += 1
        self.fds[fd] = path
        return fd


class TraceWriter:
    """Emits strace -f style lines and records every path accessed with a
    successful path-marking call (the ground truth for access recall)."""

    def __init__(self, rng: random.Random, image: Image):
        self.rng = rng
        self.image = image
        self.lines: list[str] = []
        self.ok: set[str] = set()
        self.next_pid = rng.randint(2000, 9000)
        root = self._spawn_pid()
        self.procs = [_Proc(root, "/", {})]

    def _spawn_pid(self) -> int:
        self.next_pid += self.rng.randint(1, 5)
        return self.next_pid

    def emit(self, pid: int, text: str) -> None:
        self.lines.append(f"{pid} {text}")

    def _stat_struct(self, path: str) -> str:
        kind, data, _ = self.image.entries.get(path, ("file", b"", None))
        mode = "S_IFDIR|0755" if kind == "dir" else "S_IFREG|0644"
        return f"{{st_mode={mode}, st_size={len(data)}, ...}}"

    # path-marking calls -----------------------------------------------------

    def access(self, path: str, style: str | None = None) -> None:
        rng = self.rng
        proc = rng.choice(self.procs)
        pid = proc.pid
        style = style or rng.choices(
            ("openat", "open", "rel", "dirfd_annot", "dirfd", "fchdir", "stat",
             "access", "unfinished"),
            weights=(30, 5, 14, 8, 6, 5, 18, 6, 8))[0]
        parent = posixpath.dirname(path)
        if style == "openat":
            fd = proc.new_fd(path)
            self.emit(pid, f"openat(AT_FDCWD, {_quote(path)}, O_RDONLY|O_CLOEXEC) = {fd}")
            self._use_fd(proc, fd)
        elif style == "open":
            fd = proc.new_fd(path)
            self.emit(pid, f"open({_quote(path)}, O_RDONLY) = {fd}")
            self._use_fd(proc, fd)
        elif style == "rel":
            if not (parent + "/").startswith(proc.cwd.rstrip("/") + "/"):
                self._chdir(proc, parent)
            rel = posixpath.relpath(path, proc.cwd)
            fd = proc.new_fd(path)
            self.emit(pid, f"openat(AT_FDCWD, {_quote(rel)}, O_RDONLY) = {fd}")
            self._use_fd(proc, fd)
        elif style == "dirfd_annot":
            dfd = rng.randint(3, 9)
            fd = proc.new_fd(path)
            self.emit(pid, f"openat({dfd}<{parent}>, {_quote(posixpath.basename(path))}, "
                           f"O_RDONLY|O_CLOEXEC) = {fd}<{path}>")
            self._use_fd(proc, fd)
        elif style in ("dirfd", "fchdir"):
            dfd = self._open_dir(proc, parent)
            if style == "dirfd":
                fd = proc.new_fd(path)
                self.emit(pid, f"openat({dfd}, {_quote(posixpath.basename(path))}, O_RDONLY) = {fd}")
            else:
                arg = f"{dfd}<{parent}>" if rng.random() < 0.5 else str(dfd)
                self.emit(pid, f"fchdir({arg}) = 0")
                proc.cwd = parent
                fd = proc.new_fd(path)
                self.emit(pid, f"openat(AT_FDCWD, {_quote(posixpath.basename(path))}, O_RDONLY) = {fd}")
            self._use_fd(proc, fd)
            self._close(proc, dfd)
        elif style == "stat":
            q, st = _quote(path), self._stat_struct(path)
            call = rng.choice((
                f"newfstatat(AT_FDCWD, {q}, {st}, 0) = 0",
                f"stat({q}, {st}) = 0",
                f"lstat({q}, {st}) = 0",
                f"newfstatat(AT_FDCWD, {q}, {st}, AT_SYMLINK_NOFOLLOW) = 0",
            ))
            self.emit(pid, call)
        elif style == "access":
            q = _quote(path)
            self.emit(pid, rng.choice((f"access({q}, R_OK) = 0",
                                       f"faccessat2(AT_FDCWD, {q}, X_OK, AT_EACCESS) = 0")))
        elif style == "unfinished":
            fd = proc.new_fd(path)
            self.emit(pid, f"openat(AT_FDCWD, {_quote(path)}, O_RDONLY|O_CLOEXEC <unfinished ...>")
            self.noise(exclude=pid)
            self.emit(pid, f"<... openat resumed>) = {fd}")
            self._use_fd(proc, fd)
        elif style == "statx":
            self.emit(pid, f"statx(AT_FDCWD, {_quote(path)}, AT_STATX_SYNC_AS_STAT, "
                           f"STATX_ALL, {{stx_mask=STATX_BASIC_STATS|STATX_MNT_ID, "
                           f"stx_attributes=0, stx_mode=S_IFREG|0644, "
                           f"stx_size={len(self.image.entries[path][1])}, ...}}) = 0")
        elif style == "readlink":
            target = self.image.entries[path][2]
            self.emit(pid, f"readlink({_quote(path)}, {_quote(target)}, 4096) = "
                           f"{len(target.encode())}")
        elif style == "execve":
            self.emit(pid, f'execve({_quote(path)}, ["{posixpath.basename(path)}", "--run"], '
                           f"0x7ffd{rng.randrange(16 ** 8):08x} /* 12 vars */) = 0")
        else:
            raise ValueError(style)
        self.ok.add(path)

    def _use_fd(self, proc: _Proc, fd: int) -> None:
        if self.rng.random() < 0.4:
            self.emit(proc.pid, f'read({fd}, "\\177ELF\\2\\1\\1\\0\\0\\0"..., 832) = 832')
        if self.rng.random() < 0.3:
            self.emit(proc.pid, f"fstat({fd}, {{st_mode=S_IFREG|0644, st_size=4096, ...}}) = 0")
        self._close(proc, fd)

    def _close(self, proc: _Proc, fd: int) -> None:
        proc.fds.pop(fd, None)
        self.emit(proc.pid, f"close({fd}) = 0")

    def _open_dir(self, proc: _Proc, path: str) -> int:
        fd = proc.new_fd(path)
        self.emit(proc.pid, f"openat(AT_FDCWD, {_quote(path)}, "
                            f"O_RDONLY|O_NONBLOCK|O_CLOEXEC|O_DIRECTORY) = {fd}")
        self.ok.add(path)
        return fd

    def _chdir(self, proc: _Proc, path: str) -> None:
        if proc.cwd != "/" and self.rng.random() < 0.3:
            arg = posixpath.relpath(path, proc.cwd)
        else:
            arg = path
        self.emit(proc.pid, f"chdir({_quote(arg)}) = 0")
        proc.cwd = path

    # everything else ------------------------------------------------------

    def noise(self, exclude: int | None = None) -> None:
        rng = self.rng
        procs = [p for p in self.procs if p.pid != exclude] or self.procs
        pid = rng.choice(procs).pid
        self.emit(pid, rng.choice((
            f"mmap(NULL, {rng.randrange(1, 64) * 4096}, PROT_READ|PROT_WRITE, "
            f"MAP_PRIVATE|MAP_ANONYMOUS, -1, 0) = 0x7f{rng.randrange(16 ** 10):010x}",
            "brk(NULL) = 0x55d0c2a4e000",
            f"futex(0x7f{rng.randrange(16 ** 10):010x}, FUTEX_WAKE_PRIVATE, 1) = 0",
            "rt_sigaction(SIGINT, {sa_handler=0x55d0c1, sa_mask=[], sa_flags=SA_RESTORER, "
            "sa_restorer=0x7f3c}, NULL, 8) = 0",
            f'write(1, "progress {rng.randrange(100)}%\\n", 14) = 14',
            f"getpid() = {pid}",
            "poll([{fd=4, events=POLLIN}], 1, 100) = 0 (Timeout)",
        )))

    def truncated(self, path: str) -> None:
        """An open whose path the tracer cut at its string limit (-s): the
        access happened but no parser can recover the path."""
        proc = self.rng.choice(self.procs)
        fd = proc.new_fd(path)
        self.emit(proc.pid, f"openat(AT_FDCWD, {_quote(path[:24])}..., O_RDONLY) = {fd}")
        self._close(proc, fd)

    def failed(self) -> None:
        rng = self.rng
        proc = rng.choice(self.procs)
        miss = rng.choice((f"{LIBDIR}/tls/haswell/libmissing{rng.randrange(500)}.so",
                           f"/etc/app/override-{rng.randrange(500)}.conf",
                           f"{SITE}/missing_mod_{rng.randrange(500)}.py"))
        q = _quote(miss)
        self.emit(proc.pid, rng.choice((
            f"openat(AT_FDCWD, {q}, O_RDONLY|O_CLOEXEC) = -1 ENOENT (No such file or directory)",
            f"newfstatat(AT_FDCWD, {q}, 0x7ffe1a2b3c40, 0) = -1 ENOENT (No such file or directory)",
            f"access({q}, R_OK) = -1 ENOENT (No such file or directory)",
            f"stat({q}, 0x7ffe1a2b3c40) = -1 ENOENT (No such file or directory)",
        )))

    def spawn(self) -> None:
        rng = self.rng
        parent = rng.choice(self.procs)
        child = self._spawn_pid()
        call = rng.choice((
            f"clone(child_stack=NULL, flags=CLONE_CHILD_CLEARTID|CLONE_CHILD_SETTID|SIGCHLD, "
            f"child_tidptr=0x7f3c5a1b2a10) = {child}",
            f"fork() = {child}",
            f"vfork() = {child}",
            f"clone3({{flags=CLONE_VM|CLONE_FS|CLONE_FILES|CLONE_SIGHAND|CLONE_THREAD, "
            f"child_tid=0x7f3c5a1b2a10, exit_signal=0, stack=0x7f3c59000000, "
            f"stack_size=0x7fff00}}, 88) = {child}",
        ))
        self.emit(parent.pid, call)
        self.procs.append(_Proc(child, parent.cwd, dict(parent.fds)))

    def exit_one(self) -> None:
        if len(self.procs) < 3:
            return
        proc = self.procs.pop(self.rng.randrange(1, len(self.procs)))
        self.emit(proc.pid, "exit_group(0) = ?")
        self.emit(proc.pid, "+++ exited with 0 +++")
        self.emit(self.procs[0].pid, f"--- SIGCHLD {{si_signo=SIGCHLD, si_code=CLD_EXITED, "
                                     f"si_pid={proc.pid}, si_uid=0, si_status=0}} ---")

    def finish(self) -> None:
        for proc in reversed(self.procs):
            self.emit(proc.pid, "+++ exited with 0 +++")


def _write_trace(rng: random.Random, image: Image, pkgs, unicode_files: list[str],
                 spec: dict) -> TraceWriter:
    """Emit the trace; every planned path is reached at least once, then
    repeats and unrelated calls fill it up to ``trace_lines``."""
    regular = image.regular()
    unicode_set = set(unicode_files)
    plain_files = [p for p in regular if p not in unicode_set]
    touched = rng.sample(plain_files, int(len(plain_files) * spec["touch"]))
    # A fixed share of the touched paths is reachable only through statx or
    # only under a non-ASCII name; both stay out of package files so the
    # expected dependency graph does not depend on whether they parse.
    package_files = {f for group in pkgs.values() for p in group for f in p.files}
    nonpkg = [p for p in touched if p not in package_files]
    n_special = max(1, len(touched) // 33)
    statx_only = nonpkg[:n_special]
    escaped = rng.sample(unicode_files, min(len(unicode_files), n_special))
    plain = [p for p in touched if p not in set(statx_only)]
    links = sorted(p for p, e in image.entries.items() if e[0] == "link")

    w = TraceWriter(rng, image)
    # The tracer attached while the first process sat in a read.
    w.emit(w.procs[0].pid, '<... read resumed>"\\177ELF", 4) = 4')
    w.access("/usr/bin/python3", "execve")
    w.access("/etc/ld.so.cache", "openat")
    jobs = ([("plain", p) for p in plain] + [("statx", p) for p in statx_only]
            + [("escaped", p) for p in escaped] + [("link", p) for p in links])
    rng.shuffle(jobs)
    mix = ("repeat", "noise", "failed", "spawn", "exit", "statx_also", "truncated")
    weights = (45, 35, 8, 1.2, 0.8, 2, 0.5)
    i = 0
    while i < len(jobs) or len(w.lines) < spec["trace_lines"]:
        if i < len(jobs) and (rng.random() < 0.5 or len(w.lines) >= spec["trace_lines"]):
            kind, path = jobs[i]
            i += 1
        else:
            kind, path = rng.choices(mix, weights)[0], rng.choice(plain)
        if kind in ("plain", "repeat"):
            w.access(path)
        elif kind == "escaped":
            w.access(path, rng.choice(("openat", "stat")))
        elif kind in ("statx", "statx_also"):
            w.access(path, "statx")
        elif kind == "link":
            w.access(path, "readlink" if rng.random() < 0.5 else "openat")
        elif kind == "noise":
            w.noise()
        elif kind == "failed":
            w.failed()
        elif kind == "truncated":
            w.truncated(path)
        elif kind == "spawn":
            if len(w.procs) < 12:
                w.spawn()
        elif kind == "exit":
            w.exit_one()
    w.finish()
    return w


# -- scanner report -----------------------------------------------------------


def _report(rng: random.Random, pkgs, spec: dict) -> dict:
    all_pkgs = [p for group in pkgs.values() for p in group]
    rows = []
    for k in range(spec["matches"]):
        cve = f"CVE-{2015 + k % 9}-{10000 + k}"
        sev = rng.choice(SEVERITIES)
        if rng.random() < 0.05:
            name, version, locs = f"unpackaged-{k}", "0.1", []
        else:
            pkg = rng.choice(all_pkgs)
            name, version = pkg.name, pkg.version
            locs = rng.sample(pkg.files, min(len(pkg.files), rng.randint(1, 2))) if k % 2 else []
        rows.append((cve, sev, name, version, locs))
        if rng.random() < 0.02:   # duplicate finding with more locations
            rows.append((cve, sev, name, version, locs[:1]))
    if spec["report"] == "trivy":
        return {"SchemaVersion": 2, "Results": [
            {"Target": "synthetic", "Class": "os-pkgs", "Vulnerabilities": [
                {"VulnerabilityID": c, "PkgName": n, "InstalledVersion": v, "Severity": s.upper()}
                for c, s, n, v, _ in rows]}]}
    return {"matches": [
        {"vulnerability": {"id": c, "severity": s},
         "artifact": {"name": n, "version": v, "locations": [{"path": p} for p in locs]}}
        for c, s, n, v, locs in rows]}


# -- image writers -----------------------------------------------------------


def _tar_info(path: str, kind: str, data: bytes, target: str | None) -> tarfile.TarInfo:
    info = tarfile.TarInfo(path.lstrip("/"))
    info.mtime = 0
    if kind == "dir":
        info.type, info.mode = tarfile.DIRTYPE, 0o755
    elif kind == "link":
        info.type, info.linkname, info.mode = tarfile.SYMTYPE, target, 0o777
    else:
        info.size, info.mode = len(data), 0o644
    return info


def _write_tar(path: str, members: list[tuple], gz: bool) -> None:
    with open(path, "wb") as raw:
        fileobj = gzip.GzipFile(fileobj=raw, mode="wb", compresslevel=6, mtime=0) if gz else raw
        with tarfile.open(fileobj=fileobj, mode="w", format=tarfile.PAX_FORMAT) as tf:
            for p, kind, data, target in members:
                tf.addfile(_tar_info(p, kind, data, target), io.BytesIO(data) if kind == "file" else None)
        if gz:
            fileobj.close()


def _members(image: Image, paths) -> list[tuple]:
    return [(p, *image.entries[p]) for p in paths]


def _write_layers(rng: random.Random, image: Image, content: Content, pkgs,
                  spec: dict, out: str) -> list[str]:
    """Split the image over ``layers`` gzip tars. Lower layers also carry
    files that upper layers delete again with whiteouts and opaque
    markers, and older copies of files that upper layers replace."""
    n = spec["layers"]
    layer_of: dict[str, int] = {}
    apt_half = {f for p in pkgs["apt"][len(pkgs["apt"]) // 2:] for f in p.files}
    for path, (kind, _, _) in image.entries.items():
        if kind == "dir" or path.startswith(LIBDIR) or path.startswith("/usr/share/doc"):
            layer_of[path] = 0
        elif path.startswith("/var/lib/dpkg/") or path in apt_half or path.startswith(SITE):
            layer_of[path] = 1
        elif path.startswith(CONDA_PREFIX):
            layer_of[path] = min(2, n - 1)
        else:
            layer_of[path] = rng.randrange(n)
    layers: list[list[tuple]] = [[] for _ in range(n)]
    for path, li in layer_of.items():
        layers[li].append((path, *image.entries[path]))
    # The base layer ships an older dpkg status; layer 1 rewrites it.
    layers[0].append(("/var/lib/dpkg/status", "file", b"Package: base\nStatus: install ok installed\n"
                      b"Version: 0\nArchitecture: amd64\n", None))
    filler = [p for p, li in layer_of.items() if li > 0 and p.endswith(".dat")]
    for p in rng.sample(filler, min(len(filler), len(filler) // 10)):
        layers[rng.randrange(layer_of[p])].append((p, "file", content.blob(), None))
    serial = 0
    for upper in range(1, n):
        for _ in range(spec["whiteouts"]):
            lower = rng.randrange(upper)
            serial += 1
            if serial % 10 == 0:   # a whole doomed directory
                d = f"/var/cache/build-{serial}"
                layers[lower] += [(f"{d}/obj{j}.o", "file", content.blob(), None) for j in range(4)]
                layers[upper].append((f"/var/cache/.wh.build-{serial}", "file", b"", None))
            else:
                d = f"{rng.choice(FILLER_ROOTS)}/tmp{serial % 7}"
                layers[lower].append((f"{d}/stale-{serial}.dat", "file", content.blob(), None))
                layers[upper].append((f"{d}/.wh.stale-{serial}.dat", "file", b"", None))
                image.add_dirs(d)
        for k in range(spec["opaque"]):
            d = f"/opt/app/plugins-{upper}-{k}"
            layers[rng.randrange(upper)] += [(f"{d}/old{j}.so", "file", content.blob(), None)
                                             for j in range(8)]
            layers[upper].append((f"{d}/.wh..wh..opq", "file", b"", None))
            fresh = f"{d}/new{k}.so"
            image.add_file(fresh, content.blob())
            layers[upper].append((fresh, *image.entries[fresh]))
        image.add_dirs("/var/cache")
    paths = []
    for li, members in enumerate(layers):
        dirs = {d for m in members for d in _ancestors(m[0])}
        members = members + [(d, "dir", b"", None) for d in sorted(dirs)]
        rng.shuffle(members)
        path = os.path.join(out, f"layer{li}.tar.gz")
        _write_tar(path, members, gz=True)
        paths.append(path)
    return paths


def _write_rootfs(image: Image, out: str) -> str:
    root = os.path.join(out, "rootfs")
    for path in sorted(image.entries):
        kind, data, target = image.entries[path]
        full = os.path.join(root, path.lstrip("/"))
        if kind == "dir":
            os.makedirs(full, exist_ok=True)
        elif kind == "link":
            os.symlink(target, full)
        else:
            with open(full, "wb") as f:
                f.write(data)
    return root


# -- expected values ---------------------------------------------------------


def _expected_graph(image: Image, pkgs, traced: set[str]) -> list[str]:
    """Graph nodes by the documented rule, computed from what was placed:
    BFS over placed dependency edges from packages with a retained file."""
    retained: set[str] = set()
    work = [p for p in traced if p in image.entries]
    while work:
        p = work.pop()
        if p in retained:
            continue
        retained.add(p)
        work += _ancestors(p)
        kind, _, target = image.entries[p]
        if kind == "link":
            t = posixpath.normpath(posixpath.join(posixpath.dirname(p), target))
            if t in image.entries:
                work.append(t)
    seen: set[str] = set()
    queue: list[Package] = []
    for group in pkgs.values():
        for pkg in group:
            if any(f in retained and image.entries[f][1] for f in pkg.files):
                seen.add(pkg.graph_key)
                queue.append(pkg)
    while queue:
        pkg = queue.pop()
        group = pkgs[pkg.manager]
        for t in pkg.dep_targets:
            dep = group[t]
            if dep is not pkg and dep.graph_key not in seen:
                seen.add(dep.graph_key)
                queue.append(dep)
    return sorted(seen)


def generate(workload: str, seed: int, out: str, scale: float = 1.0) -> dict:
    """Write one workload's inputs into ``out``; return expected.json's content."""
    spec = dict(WORKLOADS[workload])
    for key in SCALED:
        if key in spec:
            spec[key] = max(1, round(spec[key] * scale))
    rng = random.Random(f"{workload}:{seed}")
    if os.path.exists(out):
        shutil.rmtree(out)
    os.makedirs(out)

    image = Image()
    content = Content(rng, spec["file_kib"])
    pkgs = _make_packages(rng, spec)
    _place_packages(image, content, rng, pkgs, spec["pkg_files"])
    unicode_files = _place_filler(image, content, rng, spec["filler"])
    writer = _write_trace(rng, image, pkgs, unicode_files, spec)

    config: dict = {"emit_tar": spec["emit_tar"]}
    if spec["image"] == "layers":
        config["layers"] = _write_layers(rng, image, content, pkgs, spec, out)
    elif spec["image"] == "flat":
        members = _members(image, sorted(image.entries))
        rng.shuffle(members)
        config["layers"] = [os.path.join(out, "image.tar")]
        _write_tar(config["layers"][0], members, gz=False)
    else:
        config["rootfs"] = _write_rootfs(image, out)

    config["trace"] = os.path.join(out, "trace.log")
    with open(config["trace"], "w", encoding="utf-8") as f:
        f.write("\n".join(writer.lines) + "\n")
    config["vuln_report"] = os.path.join(out, "report.json")
    with open(config["vuln_report"], "w", encoding="utf-8") as f:
        json.dump(_report(rng, pkgs, spec), f)

    expected = {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "config": config,
        "files_original": len(image.entries) + 1,   # plus "/"
        "packages": {m: len(group) for m, group in pkgs.items()},
        "graph_nodes": _expected_graph(image, pkgs, writer.ok),
        "traced_ok": sorted(writer.ok),
        "trace_lines": len(writer.lines),
    }
    with open(os.path.join(out, "expected.json"), "w", encoding="utf-8") as f:
        json.dump(expected, f)
    return expected


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    generate(args.workload, args.seed, args.out, args.scale)
    return 0


if __name__ == "__main__":
    sys.exit(main())
