"""Syscall trace parsing.

Turns the line-oriented output of a follow-forks file tracer (strace -f
style) into the set of absolute container paths the workload accessed.
The accepted grammar is documented in docs/trace-format.md. Parsing keeps
per-PID state: a current working directory maintained from chdir/fchdir
and inherited across fork/clone, and a table of file descriptors returned
by successful opens (used to resolve fchdir and dirfd-relative calls).
"""

from __future__ import annotations

import codecs
import logging
import re
import warnings
from dataclasses import dataclass, field, fields
from os import PathLike, fspath
from typing import IO, Iterable

log = logging.getLogger(__name__)

# Syscalls whose path argument marks the file as accessed. The value is the
# index of the path argument; *at-family calls take a dirfd first.
EMITTING_SYSCALLS = {
    "open": 0,
    "creat": 0,
    "execve": 0,
    "stat": 0,
    "lstat": 0,
    "stat64": 0,
    "lstat64": 0,
    "access": 0,
    "readlink": 0,
    "openat": 1,
    "openat2": 1,
    "execveat": 1,
    "newfstatat": 1,
    "fstatat64": 1,
    "statx": 1,
    "faccessat": 1,
    "faccessat2": 1,
    "readlinkat": 1,
}

# Calls tracked for state only; they never emit an accessed path themselves.
STATE_SYSCALLS = {"chdir", "fchdir", "fork", "vfork", "clone", "clone3", "close"}

# Open-family calls whose successful return value is a descriptor worth
# remembering (fchdir and dirfd resolution look these up later).
FD_RETURNING = {"open", "openat", "openat2", "creat"}

_TRACKED = EMITTING_SYSCALLS.keys() | STATE_SYSCALLS

_LINE_RE = re.compile(r"\s*(\d+)\s+(.*)")
# Greedy: the argument list runs to the last ") = " on the line. The return
# token stops at "<": tracers run with fd annotation print "3</opt/app>".
_CALL_RE = re.compile(r"([a-zA-Z0-9_]+)\((.*)\) = \s*([^\s<]*)", re.DOTALL)
_NOISE_RE = re.compile(r"^(---\s.*---|\+\+\+\s.*\+\+\+)$")
_UNFINISHED_RE = re.compile(r"^(?P<name>[a-zA-Z0-9_]+)\((?P<args>.*)<unfinished \.\.\.>$")
_RESUMED_RE = re.compile(r"^<\.\.\. (?P<name>[a-zA-Z0-9_]+) resumed>(?P<rest>.*)$", re.DOTALL)
# A descriptor as the first argument, bare or annotated ("5</opt/app>").
_DIRFD_RE = re.compile(r"\s*(?P<fd>\d+)(<(?P<path>[^>]*)>)?\s*(?:,|$)")
# The path argument, indexed by its position: a C-quoted string first, or
# after the dirfd of the *at family. Groups: dirfd (empty at position 0),
# string body, and a trailing "..." that marks a string the tracer truncated.
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"(\.\.\.)?'
_PATH_ARG_RE = (re.compile(r"\s*()" + _QUOTED),
                re.compile(r"\s*([^,]*?)\s*,\s*" + _QUOTED))


@dataclass
class TraceStats:
    """Counters describing how a trace was parsed."""

    lines: int = 0
    parsed: int = 0
    unparsed: int = 0
    matched: int = 0
    failed_excluded: int = 0
    unresolvable: int = 0
    outside_root: int = 0


@dataclass(frozen=True)
class AccessSet:
    """Absolute normalized container paths a workload touched, plus stats."""

    paths: frozenset[str]
    stats: TraceStats = field(default_factory=TraceStats)

    def __post_init__(self):
        for p in self.paths:
            if not p.startswith("/"):
                raise ValueError(f"access path must be absolute: {p!r}")

    def __or__(self, other: "AccessSet") -> "AccessSet":
        stats = TraceStats(*(getattr(self.stats, f.name) + getattr(other.stats, f.name)
                             for f in fields(TraceStats)))
        return AccessSet(self.paths | other.paths, stats)


def normalize_path(cwd: str, raw: str) -> str:
    """Lexically resolve ``raw`` against ``cwd``.

    Joins relative paths onto cwd and collapses '.' and '..' segments
    without consulting any real filesystem. '..' escaping above the root
    clamps at '/' (a diagnostic is logged).
    """
    path, escaped = _normalize(cwd, raw)
    if escaped:
        log.debug("path %r escapes above root; clamped", raw)
    return path


def _normalize(cwd: str, raw: str) -> tuple[str, bool]:
    if not cwd.startswith("/"):
        raise ValueError(f"cwd must be absolute: {cwd!r}")
    if not raw.startswith("/"):
        raw = cwd.rstrip("/") + "/" + raw
    if "//" not in raw and "/." not in raw and not raw.endswith("/"):
        return raw, False  # no empty, "." or ".." segment: already normal
    stack: list[str] = []
    escaped = False
    for seg in raw.split("/"):
        if seg in ("", "."):
            continue
        if seg == "..":
            if stack:
                stack.pop()
            else:
                escaped = True
        else:
            stack.append(seg)
    return "/" + "/".join(stack), escaped


def _decode(quoted: str) -> str | None:
    """Decode the body of a C-quoted string, or None if an escape is malformed.

    strace escapes every non-printable byte, so escapes decode to bytes and
    the bytes to UTF-8 with surrogateescape: the same names ``os.scandir``
    and ``tarfile`` give the image's files.
    """
    if "\\" not in quoted:
        return quoted
    try:
        with warnings.catch_warnings():
            # Escapes strace never prints (\q, \777) warn rather than raise.
            warnings.simplefilter("error")
            raw = codecs.escape_decode(quoted.encode("utf-8", "surrogateescape"))[0]
    except (ValueError, Warning):
        return None
    return raw.decode("utf-8", "surrogateescape")


def _path_arg(args: str, idx: int) -> tuple[str | None, str | None]:
    """Read the path argument at position ``idx`` (0 or 1) of ``args``.

    Returns (dirfd, path); the dirfd is None for idx 0, and the path is None
    when the argument is not a complete, decodable string.
    """
    m = _PATH_ARG_RE[idx].match(args)
    if m is None or m[3]:
        return None, None
    return (m[1] if idx else None), _decode(m[2])


class _PidState:
    __slots__ = ("cwd", "fds")

    def __init__(self, cwd: str | None):
        self.cwd = cwd
        self.fds: dict[int, str] = {}

    def clone(self) -> "_PidState":
        child = _PidState(self.cwd)
        child.fds = dict(self.fds)
        return child


def _iter_lines(log_input) -> Iterable[str]:
    if isinstance(log_input, (str, PathLike)):
        with open(fspath(log_input), "r", encoding="utf-8", errors="surrogateescape") as f:
            yield from f
    else:
        yield from log_input


def parse_trace(log_input: str | PathLike | IO[str] | Iterable[str],
                root_prefix: str = "/",
                include_failed: bool = False) -> AccessSet:
    """Extract the accessed-file set from a multi-process trace log.

    ``root_prefix`` is the container root as seen by the tracer; resolved
    paths are rebased under it and paths outside it are dropped with a
    diagnostic. Failed calls are excluded unless ``include_failed`` is set.
    Unparseable lines are counted and skipped, never fatal.
    """
    root = "/" + root_prefix.strip("/") if root_prefix.strip("/") else "/"
    stats = TraceStats()
    paths: set[str] = set()
    states: dict[int, _PidState] = {}
    pending: dict[int, tuple[str, str]] = {}

    def state_for(pid: int) -> _PidState:
        if pid not in states:
            # Root process of the trace: assume it starts at the container
            # root, the common case for container entrypoints.
            states[pid] = _PidState(root)
        return states[pid]

    def resolve(pid: int, raw: str, dirfd: str | None) -> str | None:
        """Resolve a path argument to an absolute trace-namespace path."""
        if raw.startswith("/"):
            return _normalize("/", raw)[0]
        st = state_for(pid)
        base: str | None
        if dirfd is None or dirfd == "AT_FDCWD":
            base = st.cwd
        else:
            m = _DIRFD_RE.match(dirfd)
            if not m:
                return None
            if m.group("path"):
                base = m.group("path")
            else:
                base = st.fds.get(int(m.group("fd")))
        if base is None or not base.startswith("/"):
            return None
        return _normalize(base, raw)[0]

    def rebase(path: str) -> str | None:
        if root == "/":
            return path
        if path == root:
            return "/"
        if path.startswith(root + "/"):
            return path[len(root):]
        return None

    for line in _iter_lines(log_input):
        line = line.rstrip()
        if not line:
            continue
        stats.lines += 1
        m = _LINE_RE.fullmatch(line)
        if not m:
            stats.unparsed += 1
            continue
        pid = int(m[1])
        rest = m[2]

        if rest.endswith("<unfinished ...>") and (um := _UNFINISHED_RE.match(rest)):
            pending[pid] = (um.group("name"), um.group("args"))
            stats.parsed += 1
            continue
        cm = _CALL_RE.match(rest)
        if cm is None:
            # Signals, exits and resumed halves never start like a call.
            if _NOISE_RE.match(rest):
                stats.parsed += 1
                continue
            rm = _RESUMED_RE.match(rest)
            prev = rm and pending.pop(pid, None)
            if prev and prev[0] == rm.group("name"):
                cm = _CALL_RE.match(f"{prev[0]}({prev[1]}{rm.group('rest').lstrip()}")
            if cm is None:
                stats.unparsed += 1
                continue
        stats.parsed += 1
        name = cm[1]
        if name not in _TRACKED:
            continue  # recognized grammar, uninteresting syscall
        try:
            retval = int(cm[3])
        except ValueError:
            retval = None  # "?" or garbage; treat as failure
        failed = retval is None or retval < 0
        args = cm[2]

        if name in ("fork", "vfork", "clone", "clone3"):
            if not failed and retval > 0:
                states[retval] = state_for(pid).clone()
            continue

        if name == "chdir":
            if failed:
                continue
            target = _path_arg(args, 0)[1]
            st = state_for(pid)
            if target is None:
                st.cwd = None
                stats.unresolvable += 1
            elif target.startswith("/"):
                st.cwd = _normalize("/", target)[0]
            elif st.cwd is None:
                stats.unresolvable += 1
            else:
                st.cwd = _normalize(st.cwd, target)[0]
            continue

        if name == "fchdir":
            if failed:
                continue
            st = state_for(pid)
            dm = _DIRFD_RE.match(args)
            fd_path = dm and (dm.group("path") or st.fds.get(int(dm.group("fd"))))
            if fd_path and fd_path.startswith("/"):
                st.cwd = fd_path
            else:
                st.cwd = None
                stats.unresolvable += 1
            continue

        if name == "close":
            if not failed and (dm := _DIRFD_RE.match(args)):
                state_for(pid).fds.pop(int(dm.group("fd")), None)
            continue

        stats.matched += 1
        if failed and not include_failed:
            stats.failed_excluded += 1
            continue
        dirfd, raw = _path_arg(args, EMITTING_SYSCALLS[name])
        resolved = None if raw is None else resolve(pid, raw, dirfd)
        if resolved is None:
            stats.unresolvable += 1
            continue
        if name in FD_RETURNING and not failed:
            state_for(pid).fds[retval] = resolved
        container_path = rebase(resolved)
        if container_path is None:
            stats.outside_root += 1
            log.debug("dropping path outside container root: %s", resolved)
            continue
        paths.add(container_path)

    # An unfinished call that never resumed is unparsed, not parsed.
    stats.parsed -= len(pending)
    stats.unparsed += len(pending)
    return AccessSet(frozenset(paths), stats)
