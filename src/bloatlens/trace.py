"""Syscall trace parsing.

Turns the line-oriented output of a follow-forks file tracer (strace -f
style) into the set of absolute container paths the workload accessed.
The accepted grammar is documented in docs/trace-format.md. Parsing keeps
per-PID state: a current working directory maintained from chdir/fchdir
and inherited across fork/clone, and a table of file descriptors returned
by successful opens (used to resolve fchdir and dirfd-relative calls).
Paths and the root prefix take the normal form of imagefs.normalize_path.
"""

from __future__ import annotations

import codecs
import logging
import re
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field
from os import PathLike, fspath
from typing import IO, Iterable

from .imagefs import normalize_path

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

# What the parser does with each tracked syscall: its kind, the index of its
# path argument (None for calls without one; fchdir's descriptor argument is
# its path), and whether its successful return value is a descriptor worth
# remembering (fchdir and dirfd resolution look these up later). The kinds
# after _FORK are the other events a line's body decodes to (see _event).
_ACCESS, _CHDIR, _CLOSE, _FORK, _EXCLUDED, _NOOP, _UNFINISHED, _RESUMED, _UNPARSED = range(9)
_FORKS = frozenset(("fork", "vfork", "clone", "clone3"))
_KINDS = {
    **{name: (_ACCESS, idx, name in ("open", "openat", "openat2", "creat"))
       for name, idx in EMITTING_SYSCALLS.items()},
    **dict.fromkeys(_FORKS, (_FORK, None, False)),
    "chdir": (_CHDIR, 0, False),
    "fchdir": (_CHDIR, None, False), "close": (_CLOSE, None, False),
}

_NAME = r"([a-zA-Z0-9_]+)"
# Greedy: the argument list runs to the last ") = " on the line. The return
# token stops at "<": tracers run with fd annotation print "3</opt/app>".
_ARGS_RET = r"(.*)\) = \s*([^\s<]*)"
# A line is its pid prefix (_PID_RE: the pid and one whitespace character)
# and its body: more whitespace, then the first event form that matches all
# the rest. A call name (group 1) opens an unfinished call (args in group 2,
# which keeps the marker: a group that ends right before a literal makes the
# regex engine backtrack slowly over the whole line) or a finished one (args
# and return token in groups 3-4); then come a resumed half (name and rest in
# groups 5-6) and signal or exit noise.
_PID_RE = re.compile(r"\s*(\d+)\s")
_BODY_RE = re.compile(
    r"\s*(?:" + _NAME + r"\((?:(.*<unfinished \.\.\.>)|" + _ARGS_RET + r".*)"
    r"|<\.\.\. " + _NAME + r" resumed>(.*)"
    r"|---\s.*---|\+\+\+\s.*\+\+\+)")
_UNFINISHED_LEN = len("<unfinished ...>")
_CALL_RE = re.compile(_NAME + r"\(" + _ARGS_RET)  # an unfinished call spliced with its resumed half
# A descriptor as the first argument, bare or annotated ("5</opt/app>").
_DIRFD_RE = re.compile(r"\s*(?P<fd>\d+)(<(?P<path>[^>]*)>)?\s*(?:,|$)")
# The path argument, indexed by its position: a C-quoted string first, or
# after the dirfd of the *at family (an annotated dirfd may hold commas).
# Groups: dirfd (empty at position 0), string body, and a trailing "..."
# that marks a string the tracer truncated.
_QUOTED = r'"([^"\\]*(?:\\.[^"\\]*)*)"(\.\.\.)?'
_PATH_ARG_RE = (re.compile(r"\s*()" + _QUOTED),
                re.compile(r"\s*(\d+<[^>]*>|[^,]*?)\s*,\s*" + _QUOTED))
_CWD = -1  # a relative path's base when it resolves against the working directory
_EXCLUDED_EVENT, _NOOP_EVENT, _UNPARSED_EVENT = (_EXCLUDED,), (_NOOP,), (_UNPARSED,)
# Distinct events (and pid texts) one parse keeps decoded. A full memo takes
# no more entries: its memory stays fixed however many distinct lines follow.
_MEMO_CAP = 2048


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


def _decode(quoted: str) -> str | None:
    """Decode the body of a C-quoted string, or None if an escape is malformed.

    strace escapes every non-printable byte, so escapes decode to bytes and
    the bytes to UTF-8 with surrogateescape: the same names ``os.scandir``
    and the tar loaders give the image's files.
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


def _int(digits: str) -> int | None:
    """A pid or descriptor as an int; None past int()'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        return None


def _path_arg(args: str, idx: int) -> tuple[int | None, str | None]:
    """Read the path argument at position ``idx`` (0 or 1) of ``args``.

    Returns (base, path). An absolute path, or one under an annotated
    dirfd, comes back resolved and normalized with base None; a relative
    path comes back as is with base _CWD or the descriptor it is relative
    to. The path is None when the argument is not a complete, decodable
    string or its dirfd cannot resolve it.
    """
    m = _PATH_ARG_RE[idx].match(args)
    path = None if m is None or m[3] else _decode(m[2])
    if path is None:
        return None, None
    if path.startswith("/"):
        return None, normalize_path("/", path)
    if idx == 0 or m[1] == "AT_FDCWD":
        return _CWD, path
    return _at(m[1], path)


def _at(dirfd: str, path: str) -> tuple[int | None, str | None]:
    """(base, path) for relative ``path`` under the descriptor text ``dirfd``,
    as :func:`_path_arg` returns it."""
    dm = _DIRFD_RE.match(dirfd)
    if dm is None:
        return None, None
    if not dm["path"]:
        fd = _int(dm["fd"])
        return fd, None if fd is None else path
    if not dm["path"].startswith("/"):
        return None, None
    return None, normalize_path(dm["path"], path)


def _event(body: str, include_failed: bool) -> tuple:
    """Decode an event, the body of a line after its pid prefix, into what
    the parser applies to that pid's state: ``(_UNFINISHED, name, args, forks)``,
    ``(_RESUMED, name, rest)``, a call as :func:`_call` decodes it, or
    ``(_NOOP,)`` for signal and exit noise and ``(_UNPARSED,)`` for text
    that is no event."""
    m = _BODY_RE.fullmatch(body)
    if m is None:
        return _UNPARSED_EVENT
    name, unfinished_args, args, ret, resumed, rest = m.groups()
    if unfinished_args is not None:
        return _UNFINISHED, name, unfinished_args[:-_UNFINISHED_LEN], name in _FORKS
    if resumed is not None:
        return _RESUMED, resumed, rest.lstrip()
    return _NOOP_EVENT if name is None else _call(name, args, ret, include_failed)


def _call(name: str, args: str, ret: str, include_failed: bool) -> tuple:
    """Decode a finished call: ``(_ACCESS or _CHDIR, base, path, opened_fd)``
    with base and path as :func:`_path_arg` returns them, ``(_CLOSE, fd)``,
    ``(_FORK, child)``, ``(_EXCLUDED,)`` for a failed access that is not
    included, or ``(_NOOP,)`` for a call that changes nothing."""
    spec = _KINDS.get(name)
    if spec is None:
        return _NOOP_EVENT  # recognized grammar, uninteresting syscall
    kind, idx, opens = spec
    try:
        retval = int(ret)
    except ValueError:
        retval = -1  # "?" or garbage; treat as failure
    if retval < 0 and not (kind == _ACCESS and include_failed):
        return _EXCLUDED_EVENT if kind == _ACCESS else _NOOP_EVENT
    if kind == _CLOSE:
        dm = _DIRFD_RE.match(args)
        return _NOOP_EVENT if dm is None else (_CLOSE, _int(dm["fd"]))
    if kind == _FORK:
        return (_FORK, retval) if retval > 0 else _NOOP_EVENT
    # fchdir's descriptor is the directory
    base, path = _at(args, "") if idx is None else _path_arg(args, idx)
    return kind, base, path, retval if opens and retval >= 0 else None


class _PidState:
    __slots__ = ("cwd", "fds")

    def __init__(self, cwd: str | None, fds: dict[int, str] | None = None):
        self.cwd = cwd
        self.fds = dict(fds or ())


def parse_trace(log_input: str | PathLike | IO[str] | Iterable[str],
                root_prefix: str = "/",
                include_failed: bool = False) -> AccessSet:
    """Extract the accessed-file set from a multi-process trace log.

    ``root_prefix`` (normalized) is the container root as the tracer saw it;
    resolved paths are rebased under it, and those outside it dropped with a
    diagnostic. Failed calls are excluded unless ``include_failed`` is set.
    Unparseable lines are counted and skipped, never fatal; when they are
    more than half, one warning gives the parsed share and the first of them.
    """
    root = normalize_path("/", root_prefix)
    under_root, cut = root + "/", len(root)
    paths: set[str] = set()
    states: dict[int, _PidState] = {}
    pending: dict[int, tuple] = {}  # PID -> its unfinished call's event
    # PID with an unfinished fork-family call -> new PIDs that took its state
    forks: dict[int, list[int]] = {}
    # Body (a line's text after its pid prefix) -> its decoded event, and pid
    # text -> pid: each distinct text is decoded once while its memo has room
    # (_MEMO_CAP). Both are dropped on return.
    events: dict[str, tuple] = {}
    pids: dict[str, int] = {}
    lines = unparsed = matched = failed_excluded = unresolvable = outside_root = 0
    first_unparsed = None
    decode, pid_prefix, cap = _event, _PID_RE.match, _MEMO_CAP

    with (open(fspath(log_input), "r", encoding="utf-8", errors="surrogateescape")
          if isinstance(log_input, (str, PathLike)) else nullcontext(log_input)) as log_lines:
        for line in log_lines:
            line = line.rstrip()
            if not line:
                continue
            lines += 1
            # The pid prefix, read as _PID_RE reads it: the split at the first
            # space is exact when what precedes it is \d+, the class that
            # str.isdecimal tests. Any other prefix form belongs in this read,
            # never in the body, which is the memo's key.
            head, _, body = line.partition(" ")
            if not head.isdecimal():
                m = pid_prefix(line)
                head, body = (m[1], line[m.end():]) if m else ("", "")
            ev = events.get(body)
            if ev is None:
                ev = decode(body, include_failed)
                if len(events) < cap:
                    events[body] = ev
            kind = ev[0]
            pid = pids.get(head)
            if pid is None and kind != _UNPARSED:
                pid = _int(head)  # None for "" (no pid) or past int()'s digit limit
                if pid is not None and len(pids) < cap:
                    pids[head] = pid
            if pid is None or kind == _UNPARSED:
                unparsed += 1
                first_unparsed = first_unparsed or line
                continue
            st = states.get(pid)
            if st is None:
                # The child of the one unfinished fork takes its state, and
                # that fork's return leaves it alone; any other new PID starts
                # at the container root until a fork return names it.
                if len(forks) == 1:
                    (caller, children), = forks.items()
                    st = states[pid] = _PidState(states[caller].cwd, states[caller].fds)
                    children.append(pid)
                else:
                    st = states[pid] = _PidState(root)
            born = ()
            if kind >= _NOOP:
                if kind == _NOOP:
                    continue
                if kind == _UNFINISHED:
                    pending[pid] = ev
                    if ev[3]:
                        forks[pid] = []
                    else:
                        forks.pop(pid, None)
                    continue
                prev = pending.pop(pid, None)  # a resumed half
                born = forks.pop(pid, ())
                cm = None
                if prev and prev[1] == ev[1]:
                    cm = _CALL_RE.match(f"{ev[1]}({prev[2]}{ev[2]}")
                if cm is None:
                    unparsed += 1
                    first_unparsed = first_unparsed or line
                    continue
                ev = _call(*cm.groups(), include_failed)
                kind = ev[0]

            if kind > _CHDIR:
                if kind == _CLOSE:
                    st.fds.pop(ev[1], None)
                elif kind == _FORK:
                    if ev[1] not in born:
                        states[ev[1]] = _PidState(st.cwd, st.fds)
                elif kind == _EXCLUDED:
                    matched += 1
                    failed_excluded += 1
                continue
            # an access or chdir: resolve its path
            _, base, path, fd = ev
            if kind == _ACCESS:
                matched += 1
            if base is not None:
                base = st.cwd if base == _CWD else st.fds.get(base)
                path = None if base is None else normalize_path(base, path)
            if kind == _CHDIR:
                st.cwd = path
            if path is None:
                unresolvable += 1
                continue
            if kind == _CHDIR:
                continue
            if fd is not None:
                st.fds[fd] = path
            if cut > 1:
                if path == root:
                    path = "/"
                elif path.startswith(under_root):
                    path = path[cut:]
                else:
                    outside_root += 1
                    log.debug("dropping path outside container root: %s", path)
                    continue
            paths.add(path)

    # An unfinished call that never resumed is unparsed, not parsed.
    unparsed += len(pending)
    if unparsed * 2 > lines:  # e.g. a trace without pids, as strace writes it without -f
        log.warning("only %d of %d trace lines parsed (%.1f%%); first unparsed line: %s",
                    lines - unparsed, lines, 100 * (lines - unparsed) / lines,
                    repr(first_unparsed) if first_unparsed else "an unfinished call")
    stats = TraceStats(lines, lines - unparsed, unparsed, matched, failed_excluded,
                       unresolvable, outside_root)
    return AccessSet(frozenset(paths), stats)
