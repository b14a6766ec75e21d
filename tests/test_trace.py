import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bloatlens
from bloatlens.debloat import compute_retained
from bloatlens.imagefs import load_rootfs
from bloatlens.trace import AccessSet, TraceStats, normalize_path, parse_trace

from oracles import normalize_oracle, parse_trace_oracle

ROOT = Path(__file__).resolve().parent.parent


def parse(lines, **kw):
    return parse_trace(lines if isinstance(lines, list) else lines.splitlines(), **kw)


def strace_quote(raw: bytes) -> str:
    """Quote bytes the way strace prints a string argument."""
    out = []
    for b in raw:
        ch = chr(b)
        if ch in '"\\':
            out.append("\\" + ch)
        elif ch == "\t":
            out.append("\\t")
        elif ch == "\n":
            out.append("\\n")
        elif 0x20 <= b < 0x7F:
            out.append(ch)
        else:
            out.append(f"\\{b:03o}")
    return '"' + "".join(out) + '"'


# Fragments that steer random lines toward the trace grammar.
_TRACE_FRAGMENTS = st.sampled_from([
    "open(", "openat(", "statx(", "chdir(", "fchdir(", "close(", "clone(",
    "AT_FDCWD, ", "5</srv>, ", '"', "\\", "\\x", "\\x4", "\\303\\251", "\\q",
    "/", "..", ", ", ") = ", "3", "-1 ENOENT", "?", "...", "{", "}",
    " <unfinished ...>", "<... open resumed>", "--- ", " ---", "+++ ",
])


# Grammar pieces the differential property builds whole traces from:
# separators include Unicode whitespace and line breaks, pids non-ASCII
# digits, paths ") = ", commas, bad escapes and truncation, and dirfds
# annotations with commas.
_SPACE = st.sampled_from([" ", " ", "  ", "\t", "\x0c", "\x85", "\u3000", "\n"])
_PID = st.sampled_from(["1", "2", "3", "7", "07", "\u0663"])
_AT_NAME = st.sampled_from(["openat", "newfstatat"])
_PATH_NAME = st.sampled_from(["open", "stat", "creat", "chdir"])
_FD_NAME = st.sampled_from(["fchdir", "close"])
_OTHER_NAME = st.sampled_from(["clone", "fork", "vfork", "clone3", "read", "getpid"])
_NAME = _AT_NAME | _PATH_NAME | _FD_NAME | _OTHER_NAME
_SEGMENT = st.sampled_from(["a", "b", "srv", "..", ".", "", "x) = 3", 'q\\"', "a,b",
                            "caf\\303\\251", "\\x4", "\\q", "\\n", " "])
_QUOTED_PATH = st.builds(
    lambda lead, segs, cut: '"' + lead + "/".join(segs) + '"' + cut,
    st.sampled_from(["", "", "/", "/srv/"]), st.lists(_SEGMENT, min_size=1, max_size=3),
    st.sampled_from(["", "", "..."]))
_DIRFD = st.sampled_from(["AT_FDCWD", "AT_FDCWD", "3", "5", "5</srv>", "4</srv/a,b>",
                          "6<rel>", "", "x", "\u0665"])
_MORE_ARGS = st.sampled_from(["", ", O_RDONLY", ", O_RDONLY", ", {st_mode=S_IFDIR, ...}, 0",
                              ', "b") = 9', " "])
_RET = st.sampled_from(["0", "3", "4", "5", "2", "3", "7", "-1 ENOENT (No such file)", "?",
                        "3</srv/x>", "\u0663", "0x1"])


@st.composite
def _traces(draw):
    """Lines over a pool of at most three path arguments, so that one path
    recurs under other dirfds, names and pids."""
    quoted = st.sampled_from(draw(st.lists(_QUOTED_PATH, min_size=1, max_size=3)))
    path_args = st.builds(lambda p, more: p + more, quoted, _MORE_ARGS)
    at_args = st.builds(lambda d, p, more: f"{d}, {p}{more}", _DIRFD, quoted, _MORE_ARGS)
    args = path_args | at_args | _DIRFD

    def call(names, args):
        return st.builds(lambda n, a, r, after: f"{n}({a}) = {r}{after}", names, args, _RET,
                         st.sampled_from(["", "", " ) = 9", " <unfinished ...>",
                                          " <unfinished ...>x"]))

    event = st.one_of(
        call(_AT_NAME, at_args), call(_PATH_NAME, path_args), call(_FD_NAME, _DIRFD),
        call(_NAME, args),
        st.builds(lambda n, a: f"{n}({a} <unfinished ...>", _NAME, args),
        st.builds(lambda n, more, r: f"<... {n} resumed>{more}) = {r}", _NAME,
                  st.sampled_from(["", " ", ", O_RDONLY", ' "/srv/y", 0']), _RET),
        st.sampled_from(["--- SIGCHLD {si_signo=SIGCHLD} ---", "+++ exited with 0 +++",
                         "---x---", "+++ killed +++ x"]),
        st.lists(_TRACE_FRAGMENTS | st.text(max_size=4), max_size=8).map("".join),
    )
    line = st.builds(lambda lead, pid, sep, e, end: f"{lead}{pid}{sep}{e}{end}",
                     st.sampled_from(["", "", " ", "\x0c"]), _PID, _SPACE, event,
                     st.sampled_from(["", "", " ", "\x85"]))
    return draw(st.lists(line, max_size=30))


def assert_same_as_oracle(lines, **kw):
    got, ref = parse_trace(lines, **kw), parse_trace_oracle(lines, **kw)
    assert got.paths == ref.paths
    assert got.stats == ref.stats


class TestNormalizePath:
    def test_parent_segment(self):
        assert normalize_path("/a/b", "../c") == "/a/c"

    def test_dot_segments_collapse(self):
        assert normalize_path("/", "x/./y") == "/x/y"

    def test_absolute_raw_ignores_cwd(self):
        assert normalize_path("/somewhere", "/etc/passwd") == "/etc/passwd"

    def test_escape_above_root_clamps(self):
        assert normalize_path("/", "../../etc") == "/etc"

    def test_trailing_slash(self):
        assert normalize_path("/a", "b/") == "/a/b"

    def test_relative_cwd_rejected(self):
        with pytest.raises(ValueError):
            normalize_path("rel", "x")

    def test_one_normalizer_for_every_stage(self):
        assert bloatlens.trace.normalize_path is bloatlens.imagefs.normalize_path
        assert bloatlens.normalize_path is bloatlens.imagefs.normalize_path

    def test_randomized_against_posixpath_oracle(self):
        rng = random.Random(1234)
        segs = ["a", "bb", "c.d", "..", ".", ""]
        for _ in range(50):
            cwd = "/" + "/".join(rng.choice(["a", "b", "lib"])
                                 for _ in range(rng.randint(0, 3)))
            raw = "/".join(rng.choice(segs) for _ in range(rng.randint(1, 6)))
            if rng.random() < 0.3:
                raw = "/" + raw
            assert normalize_path(cwd, raw) == normalize_oracle(cwd, raw), (cwd, raw)

    @settings(max_examples=200, deadline=None)
    @given(
        cwd=st.lists(st.sampled_from(["a", "b", "c"]), max_size=4).map(
            lambda s: "/" + "/".join(s)),
        raw=st.lists(st.sampled_from(["a", "b", "..", ".", "", "x.y"]),
                     min_size=1, max_size=8).map("/".join),
    )
    def test_property_matches_oracle(self, cwd, raw):
        assert normalize_path(cwd, raw) == normalize_oracle(cwd, raw)


class TestParseTrace:
    def test_absolute_openat(self):
        acc = parse('7 openat(AT_FDCWD, "/usr/lib/libx.so", O_RDONLY) = 3')
        assert acc.paths == {"/usr/lib/libx.so"}

    def test_chdir_then_relative_open(self):
        acc = parse(
            '7 chdir("/opt/app") = 0\n'
            '7 openat(AT_FDCWD, "cfg.yaml", O_RDONLY) = 4'
        )
        assert acc.paths == {"/opt/app/cfg.yaml"}

    def test_failed_call_excluded_by_default(self):
        acc = parse('7 openat(AT_FDCWD, "/missing", O_RDONLY) = -1 ENOENT (No such file)')
        assert acc.paths == set()
        assert acc.stats.failed_excluded == 1
        assert acc.stats.matched == 1

    def test_include_failed_flag(self):
        acc = parse('7 openat(AT_FDCWD, "/missing", O_RDONLY) = -1 ENOENT (No such file)',
                    include_failed=True)
        assert acc.paths == {"/missing"}

    def test_failed_chdir_does_not_change_cwd(self):
        acc = parse(
            '7 chdir("/start") = 0\n'
            '7 chdir("/gone") = -1 ENOENT (No such file or directory)\n'
            '7 openat(AT_FDCWD, "f", O_RDONLY) = 3'
        )
        assert acc.paths == {"/start/f"}

    def test_cwd_inherited_across_fork(self):
        acc = parse(
            '7 chdir("/base") = 0\n'
            '7 clone(child_stack=NULL, flags=SIGCHLD) = 8\n'
            '8 openat(AT_FDCWD, "child.txt", O_RDONLY) = 3\n'
            '7 openat(AT_FDCWD, "parent.txt", O_RDONLY) = 4'
        )
        assert acc.paths == {"/base/child.txt", "/base/parent.txt"}

    def test_child_chdir_does_not_affect_parent(self):
        acc = parse(
            '7 chdir("/base") = 0\n'
            '7 fork() = 8\n'
            '8 chdir("/elsewhere") = 0\n'
            '7 openat(AT_FDCWD, "p", O_RDONLY) = 3\n'
            '8 openat(AT_FDCWD, "c", O_RDONLY) = 4'
        )
        assert acc.paths == {"/base/p", "/elsewhere/c"}

    def test_fchdir_with_tracked_descriptor(self):
        acc = parse(
            '7 openat(AT_FDCWD, "/opt/app", O_RDONLY|O_DIRECTORY) = 5\n'
            '7 fchdir(5) = 0\n'
            '7 openat(AT_FDCWD, "data.txt", O_RDONLY) = 6'
        )
        assert "/opt/app/data.txt" in acc.paths

    def test_fchdir_untracked_marks_unresolvable(self):
        acc = parse(
            '7 fchdir(9) = 0\n'
            '7 openat(AT_FDCWD, "rel.txt", O_RDONLY) = 3'
        )
        assert acc.paths == set()
        assert acc.stats.unresolvable == 2  # the fchdir and the relative open

    def test_dirfd_annotation(self):
        acc = parse('7 openat(5</srv/www>, "index.html", O_RDONLY) = 6')
        assert acc.paths == {"/srv/www/index.html"}

    def test_annotated_return_value_is_success(self):
        # strace -y annotates returned descriptors: "= 3</path>".
        acc = parse('7 openat(AT_FDCWD, "/usr/lib/libx.so", O_RDONLY) = 3</usr/lib/libx.so>')
        assert acc.paths == {"/usr/lib/libx.so"}
        assert acc.stats.failed_excluded == 0

    def test_annotated_return_feeds_fd_table(self):
        acc = parse(
            '7 openat(AT_FDCWD, "/opt/app", O_RDONLY|O_DIRECTORY) = 5</opt/app>\n'
            '7 fchdir(5) = 0\n'
            '7 openat(AT_FDCWD, "data.txt", O_RDONLY) = 6</opt/app/data.txt>'
        )
        assert "/opt/app/data.txt" in acc.paths

    def test_dirfd_tracked_without_annotation(self):
        acc = parse(
            '7 openat(AT_FDCWD, "/srv/www", O_RDONLY|O_DIRECTORY) = 5\n'
            '7 openat(5, "index.html", O_RDONLY) = 6'
        )
        assert "/srv/www/index.html" in acc.paths

    def test_execve_and_readlink(self):
        acc = parse(
            '1 execve("/usr/bin/env", ["env"], 0x7ffc0 /* 10 vars */) = 0\n'
            '1 readlink("/etc/localtime", "/usr/share/zoneinfo/UTC", 4096) = 23'
        )
        assert acc.paths == {"/usr/bin/env", "/etc/localtime"}

    def test_stat_family(self):
        acc = parse(
            '1 stat("/etc/passwd", {st_mode=S_IFREG|0644, st_size=100, ...}) = 0\n'
            '1 lstat("/etc/shadow", {st_mode=S_IFREG|0640, ...}) = 0\n'
            '1 newfstatat(AT_FDCWD, "/etc/group", {st_mode=S_IFREG|0644, ...}, 0) = 0\n'
            '1 access("/etc/hosts", R_OK) = 0\n'
            '1 statx(AT_FDCWD, "/etc/stx", AT_STATX_SYNC_AS_STAT, STATX_ALL, {stx_mask=STATX_BASIC_STATS, ...}) = 0\n'
            '1 stat64("/etc/s64", {st_mode=S_IFREG|0644, st_size=100, ...}) = 0\n'
            '1 lstat64("/etc/l64", {st_mode=S_IFLNK|0777, ...}) = 0\n'
            '1 fstatat64(AT_FDCWD, "/etc/f64", {st_mode=S_IFREG|0644, ...}, 0) = 0'
        )
        assert acc.paths == {"/etc/passwd", "/etc/shadow", "/etc/group", "/etc/hosts",
                             "/etc/stx", "/etc/s64", "/etc/l64", "/etc/f64"}

    def test_unknown_syscalls_skipped(self):
        acc = parse(
            '1 prctl(PR_SET_NAME, "x") = 0\n'
            '1 mmap(NULL, 4096, PROT_READ, MAP_PRIVATE, 3, 0) = 0x7f0a\n'
            '1 open("/real", O_RDONLY) = 3'
        )
        assert acc.paths == {"/real"}
        assert acc.stats.parsed == 3

    def test_unparseable_line_counted(self):
        acc = parse(
            'garbage without pid prefix\n'
            '1 open("/ok", O_RDONLY) = 3'
        )
        assert acc.paths == {"/ok"}
        assert acc.stats.unparsed == 1

    def test_signal_and_exit_noise_ignored(self):
        acc = parse(
            '1 --- SIGCHLD {si_signo=SIGCHLD} ---\n'
            '1 +++ exited with 0 +++\n'
            '1 open("/ok", O_RDONLY) = 3'
        )
        assert acc.paths == {"/ok"}
        assert acc.stats.unparsed == 0

    def test_unfinished_resumed_merging(self):
        acc = parse(
            '7 openat(AT_FDCWD, "/slow/file", O_RDONLY <unfinished ...>\n'
            '8 open("/other", O_RDONLY) = 4\n'
            '7 <... openat resumed> ) = 3'
        )
        assert acc.paths == {"/slow/file", "/other"}

    def test_root_prefix_rebase(self):
        acc = parse(
            '7 openat(AT_FDCWD, "/var/lib/docker/rootfs/etc/ssl", O_RDONLY) = 3\n'
            '7 openat(AT_FDCWD, "/home/host/file", O_RDONLY) = 4',
            root_prefix="/var/lib/docker/rootfs",
        )
        assert acc.paths == {"/etc/ssl"}
        assert acc.stats.outside_root == 1

    def test_root_prefix_relative_resolution(self):
        acc = parse(
            '7 chdir("/var/lib/docker/rootfs/app") = 0\n'
            '7 openat(AT_FDCWD, "cfg", O_RDONLY) = 3',
            root_prefix="/var/lib/docker/rootfs",
        )
        assert acc.paths == {"/app/cfg"}

    @pytest.mark.parametrize("prefix", ["/srv//rootfs", "/srv/./rootfs", "/srv/x/../rootfs"])
    def test_root_prefix_normalized_like_paths(self, prefix):
        acc = parse('1 openat(AT_FDCWD, "/srv/rootfs/etc/passwd", O_RDONLY) = 3',
                    root_prefix=prefix)
        assert acc.paths == {"/etc/passwd"}
        assert acc.stats.outside_root == 0

    def test_quoted_path_with_escapes(self):
        acc = parse(r'7 open("/tmp/we ird\"name\n", O_RDONLY) = 3')
        assert acc.paths == {'/tmp/we ird"name\n'}

    def test_octal_escapes_decode_as_utf8_bytes(self):
        acc = parse(r'7 openat(AT_FDCWD, "/opt/caf\303\251/x", O_RDONLY) = 3')
        assert acc.paths == {"/opt/café/x"}

    def test_non_utf8_byte_decodes_like_os_fsdecode(self):
        acc = parse(r'7 open("/opt/\377", O_RDONLY) = 3')
        assert acc.paths == {"/opt/" + os.fsdecode(b"\xff")}

    @pytest.mark.parametrize("quoted", [r'"/tmp/a\x4"', r'"/tmp/a\x"', r'"/tmp/\q"', r'"/tmp/\777"'])
    def test_malformed_escape_unresolvable(self, quoted):
        acc = parse(f"7 open({quoted}, O_RDONLY) = 3")
        assert acc.paths == set()
        assert acc.stats.unresolvable == 1
        assert acc.stats.matched == 1

    def test_malformed_escape_in_chdir_unresolvable(self):
        acc = parse('7 chdir("/a\\x") = 0\n7 open("f", O_RDONLY) = 3')
        assert acc.paths == set()
        assert acc.stats.unresolvable == 2

    def test_relative_dirfd_annotation_unresolvable(self):
        acc = parse(
            '7 openat(5<rel/dir>, "f", O_RDONLY) = 6\n'
            '7 fchdir(5<rel/dir>) = 0\n'
            '7 open("g", O_RDONLY) = 3'
        )
        assert acc.paths == set()
        assert acc.stats.unresolvable == 3

    def test_unfinished_never_resumed_is_unparsed(self):
        acc = parse('7 openat(AT_FDCWD, "/slow", O_RDONLY <unfinished ...>')
        assert acc.paths == set()
        assert (acc.stats.lines, acc.stats.parsed, acc.stats.unparsed) == (1, 0, 1)

    def test_trace_mostly_unparsed_warns_once_with_its_first_line(self, caplog):
        # strace without -f writes no pid, so none of those lines parses
        acc = parse('openat(AT_FDCWD, "/a", O_RDONLY) = 3\n'
                    'read(3, "", 4096) = 0\n'
                    '7 openat(AT_FDCWD, "/b", O_RDONLY) = 3')
        assert acc.paths == {"/b"}
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "only 1 of 3 trace lines parsed (33.3%); first unparsed line: "
            "'openat(AT_FDCWD, \"/a\", O_RDONLY) = 3'"]

    def test_trace_half_parsed_does_not_warn(self, caplog):
        parse('garbage\n7 openat(AT_FDCWD, "/b", O_RDONLY) = 3')
        assert "trace lines parsed" not in caplog.text

    def test_trace_of_unfinished_calls_warns_of_them(self, caplog):
        parse('7 openat(AT_FDCWD, "/slow", O_RDONLY <unfinished ...>')
        assert ("only 0 of 1 trace lines parsed (0.0%); first unparsed line: "
                "an unfinished call") in caplog.text

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=12).filter(
        lambda b: b"/" not in b and b"\0" not in b and b not in (b".", b"..")),
        min_size=1, max_size=4))
    def test_property_byte_exact_round_trip(self, segs):
        acc = parse(f"7 openat(AT_FDCWD, {strace_quote(b'/' + b'/'.join(segs))}, O_RDONLY) = 3")
        assert acc.paths == {"/" + b"/".join(segs).decode("utf-8", "surrogateescape")}

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(min_value=1, max_value=9),
        st.lists(_TRACE_FRAGMENTS | st.text(max_size=6), max_size=12).map("".join),
    ), max_size=8))
    def test_property_never_raises(self, lines):
        acc = parse([f"{pid} {text}" for pid, text in lines])
        assert acc.stats.lines == len(lines)
        assert acc.stats.lines == acc.stats.parsed + acc.stats.unparsed

    @settings(max_examples=300, deadline=None)
    @given(_traces())
    def test_property_matches_oracle(self, lines):
        for root_prefix in ("/", "/srv"):
            for include_failed in (False, True):
                assert_same_as_oracle(lines, root_prefix=root_prefix,
                                      include_failed=include_failed)

    def test_matches_oracle_on_a_bench_trace(self, tmp_path):
        subprocess.run([sys.executable, str(ROOT / "bench" / "gen.py"), "--workload",
                        "trace-heavy", "--seed", "5", "--out", str(tmp_path / "w")],
                       check=True, capture_output=True, timeout=600)
        with open(tmp_path / "w" / "trace.log", encoding="utf-8",
                  errors="surrogateescape") as f:
            lines = f.readlines()
        assert len(lines) >= 40_000
        assert_same_as_oracle(lines)
        assert_same_as_oracle(lines, root_prefix="/usr", include_failed=True)

    def test_parse_by_path_streams(self, tmp_path):
        # 100k distinct lines over 50 paths: neither the file nor a per-line
        # table may be held in memory.
        trace = tmp_path / "trace.log"
        with open(trace, "w", encoding="utf-8") as f:
            for i in range(50_000):
                fd = 3 + i
                f.write(f'7 openat(AT_FDCWD, "/opt/app/d{i % 5}/f{i % 50}.dat", '
                        f'O_RDONLY) = {fd}\n7 close({fd}) = 0\n')
        tracemalloc.start()
        try:
            acc = parse_trace(trace)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (acc.stats.lines, len(acc.paths)) == (100_000, 50)
        assert peak < 1 << 20, f"peak {peak} bytes"

    def test_annotated_dirfd_with_comma(self):
        acc = parse(
            '1 openat(3</opt/a,b>, "x", O_RDONLY) = 4\n'
            '1 newfstatat(5</srv/c,d>, "y", {st_mode=S_IFREG|0644, ...}, 0) = 0'
        )
        assert acc.paths == {"/opt/a,b/x", "/srv/c,d/y"}
        assert acc.stats.unresolvable == 0

    def test_child_seen_before_its_clone_returns(self):
        acc = parse(
            '1 chdir("/opt/app") = 0\n'
            '1 clone(child_stack=NULL, flags=SIGCHLD <unfinished ...>\n'
            '2 openat(AT_FDCWD, "data.bin", O_RDONLY) = 3\n'
            '2 chdir("sub") = 0\n'
            '1 <... clone resumed>) = 2\n'
            '2 openat(AT_FDCWD, "x", O_RDONLY) = 4'
        )
        assert acc.paths == {"/opt/app/data.bin", "/opt/app/sub/x"}

    def test_child_inherits_descriptors_of_unfinished_fork(self):
        acc = parse(
            '1 openat(AT_FDCWD, "/srv", O_RDONLY|O_DIRECTORY) = 5\n'
            '1 vfork( <unfinished ...>\n'
            '2 openat(5, "f", O_RDONLY) = 3\n'
            '1 <... vfork resumed>) = 2'
        )
        assert acc.paths == {"/srv", "/srv/f"}

    def test_child_during_two_unfinished_forks_starts_at_root(self):
        acc = parse(
            '1 chdir("/a") = 0\n'
            '3 chdir("/b") = 0\n'
            '1 clone(flags=SIGCHLD <unfinished ...>\n'
            '3 fork( <unfinished ...>\n'
            '2 openat(AT_FDCWD, "f", O_RDONLY) = 3\n'
            '1 <... clone resumed>) = 2\n'
            '2 openat(AT_FDCWD, "g", O_RDONLY) = 4'
        )
        assert acc.paths == {"/f", "/a/g"}

    HUGE = "1" * 5000  # more digits than int() converts

    @pytest.mark.parametrize("line,unparsed,unresolvable", [
        (HUGE + ' open("/a", O_RDONLY) = 3', 1, 0),
        ("7 close(" + HUGE + ") = 0", 0, 0),
        ("7 openat(" + HUGE + ', "a", O_RDONLY) = 4', 0, 1),
        ("7 fchdir(" + HUGE + ") = 0", 0, 1),
    ], ids=["pid", "close", "openat-dirfd", "fchdir"])
    def test_oversized_pid_or_descriptor_does_not_raise(self, line, unparsed, unresolvable):
        acc = parse(['7 open("/b", O_RDONLY) = 3', line])
        assert acc.paths == {"/b"}
        assert (acc.stats.unparsed, acc.stats.unresolvable) == (unparsed, unresolvable)

    @pytest.mark.parametrize("lines,paths,unparsed", [
        (['  7 open("/a", O_RDONLY) = 3', '\x0c7 chdir("/a") = 0', '7 open("b", O_RDONLY) = 4'],
         {"/a", "/a/b"}, 0),
        (['7\tchdir("/a") = 0', '7   open("b", O_RDONLY) = 3', '7 \t open("c", O_RDONLY) = 4'],
         {"/a/b", "/a/c"}, 0),
        (['٧ chdir("/a") = 0', '7 open("b", O_RDONLY) = 3', '0٧ open("c", O_RDONLY) = 4'],
         {"/a/b", "/a/c"}, 0),
        ([HUGE + ' chdir("/a") = 0', '7 open("b", O_RDONLY) = 3', HUGE + ' open("c", O_RDONLY) = 4'],
         {"/b"}, 2),
        (["7", "7 ", " 7\t", '7 open("/a", O_RDONLY) = 3'], {"/a"}, 3),
        (['7 open("/x) = 3", O_RDONLY <unfinished ...>', "7 <... open resumed>) = 3"],
         {"/x) = 3"}, 0),
    ], ids=["leading-space", "tab-or-spaces-after-pid", "non-ascii-digits", "oversized-pid",
            "bare-pid", "unfinished-holding-a-return"])
    def test_pid_prefix_forms_match_oracle(self, lines, paths, unparsed):
        acc = parse(lines)
        assert (acc.paths, acc.stats.unparsed) == (paths, unparsed)
        for root_prefix in ("/", "/a"):
            for include_failed in (False, True):
                assert_same_as_oracle(lines, root_prefix=root_prefix,
                                      include_failed=include_failed)

    @pytest.mark.parametrize("cap", [1, 3])
    @settings(max_examples=150, deadline=None)
    @given(lines=_traces())
    def test_property_matches_oracle_past_a_full_memo(self, cap, lines):
        # a memo of 1 or 3 events fills within a few lines: later lines mix hits
        # with events decoded afresh, and resumed halves splice across both
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("bloatlens.trace._MEMO_CAP", cap)
            for root_prefix, include_failed in (("/", False), ("/", True), ("/srv", False)):
                assert_same_as_oracle(lines, root_prefix=root_prefix,
                                      include_failed=include_failed)

    def test_each_distinct_event_is_decoded_once(self, monkeypatch):
        bodies = [f'openat(AT_FDCWD, "/d/f{i}", O_RDONLY) = 3' for i in range(5)] + [
            "close(3) = 0", 'chdir("/d") = 0', 'stat("f0", {st_mode=S_IFREG, ...}) = 0',
            "getpid() = 7", "--- SIGCHLD {si_signo=SIGCHLD} ---"]
        # every body under every one of 5 pids, 1,000 lines in all
        lines = [f"{1 + i // 10 % 5} {bodies[i % 10]}" for i in range(1000)]
        calls, decode = [], bloatlens.trace._event
        monkeypatch.setattr("bloatlens.trace._event",
                            lambda body, *context: calls.append(body) or decode(body, *context))
        assert_same_as_oracle(lines)
        assert sorted(calls) == sorted(bodies)

    def test_truncated_path_unresolvable(self):
        acc = parse('7 open("/very/long/pa"..., O_RDONLY) = 3')
        assert acc.paths == set()
        assert acc.stats.unresolvable == 1

    def test_paths_with_parens_and_commas(self):
        acc = parse('7 open("/tmp/a(b), c.txt", O_RDONLY) = 3')
        assert acc.paths == {"/tmp/a(b), c.txt"}

    def test_stats_matched_at_least_paths(self):
        text = (
            '1 open("/a", O_RDONLY) = 3\n'
            '1 open("/a", O_RDONLY) = 4\n'
            '1 open("/b", O_RDONLY) = 5'
        )
        acc = parse(text)
        assert acc.stats.matched == 3
        assert acc.stats.matched >= len(acc.paths)

    def test_deterministic(self, mini_trace_path):
        a = parse_trace(mini_trace_path)
        b = parse_trace(mini_trace_path)
        assert a.paths == b.paths
        assert a.stats == b.stats

    def test_append_only_grows(self):
        lines = [
            '1 open("/a", O_RDONLY) = 3',
            '1 chdir("/sub") = 0',
            '1 open("b", O_RDONLY) = 4',
            '1 open("/c", O_RDONLY) = -1 ENOENT (x)',
            '2 open("/d", O_RDONLY) = 5',
        ]
        prev: frozenset = frozenset()
        for i in range(len(lines) + 1):
            cur = parse(lines[:i]).paths
            assert prev <= cur
            prev = cur

    def test_mini_trace_resolves_to_expected_table(self, mini_trace_path):
        from fixtures.minicontainer import ACCESSED

        acc = parse_trace(mini_trace_path)
        assert acc.paths == ACCESSED
        assert acc.stats.failed_excluded == 1

    def test_all_paths_absolute_invariant(self, mini_trace_path):
        acc = parse_trace(mini_trace_path)
        assert all(p.startswith("/") for p in acc.paths)


class TestAccessSet:
    def test_rejects_relative_paths(self):
        with pytest.raises(ValueError):
            AccessSet(frozenset({"rel/path"}))

    def test_stats_default(self):
        acc = AccessSet(frozenset())
        assert acc.stats == TraceStats()


def test_octal_escaped_path_retained_from_rootfs(tmp_path):
    root = tmp_path / "rootfs"
    (root / "opt" / "café").mkdir(parents=True)
    (root / "opt" / "café" / "x").write_bytes(b"payload")
    (root / "opt" / "other").write_bytes(b"unused")
    trace = tmp_path / "trace.log"
    trace.write_bytes(b'1 openat(AT_FDCWD, "/opt/caf\\303\\251/x", O_RDONLY) = 3\n')

    fs, source = load_rootfs(root)
    retained = compute_retained(fs, parse_trace(trace))
    assert "/opt/café/x" in retained.entries
    assert "/opt/other" not in retained.entries
    assert source.read("/opt/café/x") == b"payload"
