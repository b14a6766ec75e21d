import os
import random
import tarfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloatlens.debloat import (
    _contents,
    _tar_header,
    _write_tar,
    compute_bloat,
    compute_retained,
    container_bloat_degree,
    debloat,
    materialize,
    render_manifest,
)
from bloatlens.errors import ContractViolation, MaterializeError
from bloatlens.imagefs import (
    FileEntry,
    FileSet,
    RootfsSource,
    load_flat_tar,
    load_rootfs,
    parent_of,
    total_size,
)
from bloatlens.trace import AccessSet

from oracles import ResolveLoop, naive_retained_closure, resolve_oracle, write_tar_oracle


def fs_from(entries):
    return FileSet({e.path: e for e in entries})


def access(*paths):
    return AccessSet(frozenset(paths))


def random_fileset(rng: random.Random, max_entries: int = 500) -> FileSet:
    """Random tree with regular files and symlinks (some dangling chains).
    Some links name directories, and some targets are spelled through those
    links, '..' after one included; :func:`through_dir_links` spells
    accessed paths the same way."""
    entries = {"/": FileEntry("/", "directory")}
    dirs, dir_links = ["/"], []  # dir_links: (link, the directory it names)
    n = rng.randint(2, max_entries)
    for i in range(n):
        parent = rng.choice(dirs)
        name = f"n{i}"
        path = (parent.rstrip("/") + "/" + name)
        roll = rng.random()
        if roll < 0.3:
            entries[path] = FileEntry(path, "directory")
            dirs.append(path)
        elif roll < 0.75:
            entries[path] = FileEntry(path, "regular", rng.randint(0, 1000))
        else:
            # Mix of relative/absolute targets, some dangling, some chains.
            candidates = list(entries)
            target = rng.choice(candidates + ["missing", "../gone", "/absent"])
            depth = parent.count("/") if parent != "/" else 0
            if dir_links and rng.random() < 0.4:
                link, directory = rng.choice(dir_links)
                inside = [p for p in candidates if p.startswith(directory.rstrip("/") + "/")]
                beside = [p for p in candidates if parent_of(p) == parent_of(directory)]
                if inside and rng.random() < 0.7:
                    target = link + rng.choice(inside)[len(directory.rstrip("/")):]
                elif beside:
                    target = f"{link}/../{rng.choice(beside).rsplit('/', 1)[1]}"
                if rng.random() < 0.5:  # the same path, relative to the link's directory
                    target = "../" * depth + target.lstrip("/")
            elif rng.random() < 0.5 and target.startswith("/"):
                target = "../" * rng.randint(0, depth) + target.lstrip("/")
            elif target in dirs:
                dir_links.append((path, target))
            entries[path] = FileEntry(path, "symlink", 0, target or ".")
    return FileSet(entries)


def through_dir_links(fs: FileSet) -> list[str]:
    """Each entry below a directory that a symlink names, spelled through the
    link, in sorted order."""
    spelled = []
    for path in sorted(p for p, e in fs.entries.items() if e.kind == "symlink"):
        try:
            directory = resolve_oracle(path, fs.entries)
        except ResolveLoop:
            continue
        if getattr(fs.entries.get(directory), "kind", None) == "directory":
            spelled += [path + p[len(directory.rstrip("/")):] for p in fs.entries
                        if p.startswith(directory.rstrip("/") + "/")]
    return spelled


class TestComputeRetained:
    def test_ancestor_closure(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/a", "directory"),
            FileEntry("/a/b", "directory"),
            FileEntry("/a/b/c", "regular", 3),
            FileEntry("/other", "regular", 9),
        ])
        retained = compute_retained(fs, access("/a/b/c"))
        assert set(retained.entries) == {"/", "/a", "/a/b", "/a/b/c"}

    def test_symlink_chain_closure(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/x", "symlink", 0, "y"),
            FileEntry("/y", "symlink", 0, "z"),
            FileEntry("/z", "regular", 1),
        ])
        retained = compute_retained(fs, access("/x"))
        assert {"/x", "/y", "/z"} <= set(retained.entries)

    def test_symlink_relative_to_link_directory(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/usr", "directory"),
            FileEntry("/usr/bin", "directory"),
            FileEntry("/usr/bin/tool", "symlink", 0, "../lib/tool-real"),
            FileEntry("/usr/lib", "directory"),
            FileEntry("/usr/lib/tool-real", "regular", 10),
        ])
        retained = compute_retained(fs, access("/usr/bin/tool"))
        assert "/usr/lib/tool-real" in retained.entries

    def test_dot_dot_after_a_link_leaves_the_links_target(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/opt", "directory"),
            FileEntry("/opt/a", "directory"),
            FileEntry("/opt/a/lib", "directory"),
            FileEntry("/opt/a/conf", "regular", 4),
            FileEntry("/conf", "regular", 8),
            FileEntry("/lib", "symlink", 0, "opt/a/lib"),
            FileEntry("/tool", "symlink", 0, "lib/../conf"),
        ])
        retained = set(compute_retained(fs, access("/tool")).entries)
        assert retained == {"/", "/tool", "/lib", "/opt", "/opt/a", "/opt/a/lib", "/opt/a/conf"}

    def test_paths_through_directory_links_reach_their_entries(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/usr", "directory"),
            FileEntry("/usr/lib", "directory"),
            FileEntry("/usr/lib/libc.so.6", "regular", 3),
            FileEntry("/usr/lib/unused.so", "regular", 5),
            FileEntry("/lib", "symlink", 0, "usr/lib"),
            FileEntry("/gone", "symlink", 0, "lib/missing"),
        ])
        retained = compute_retained(fs, access("/lib/libc.so.6", "/gone", "/lib/nope"))
        # A link crossed on the way to no entry is kept, as the lookup met it.
        assert set(retained.entries) == {"/", "/lib", "/usr", "/usr/lib",
                                         "/usr/lib/libc.so.6", "/gone"}

    def test_missing_paths_are_counted_and_the_first_is_named(self, caplog):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/a", "regular", 1),
            FileEntry("/d", "directory"),
            FileEntry("/d/f", "regular", 1),
            FileEntry("/l", "symlink", 0, "d"),
            FileEntry("/loop", "symlink", 0, "loop"),
        ])
        retained = compute_retained(fs, access("/a", "/l/f", "/tmp/z", "/run/x", "/l/x",
                                               "/loop/x"))
        assert "/d/f" in retained.entries
        assert ("4 accessed paths are not in the filesystem (runtime files?); "
                "first missing path: '/l/x'") in caplog.text

    def test_missing_accessed_path_not_fatal(self):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/a", "regular", 1)])
        retained = compute_retained(fs, access("/a", "/tmp/runtime-only"))
        assert set(retained.entries) == {"/", "/a"}

    def test_empty_access_retains_root_only(self):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/a", "regular", 1)])
        retained = compute_retained(fs, access())
        assert set(retained.entries) == {"/"}

    def test_keep_globs(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/etc", "directory"),
            FileEntry("/etc/passwd", "regular", 2),
            FileEntry("/etc/group", "regular", 2),
            FileEntry("/bin", "directory"),
        ])
        retained = compute_retained(fs, access(), keep=("/etc/*",))
        assert {"/etc/passwd", "/etc/group", "/etc"} <= set(retained.entries)
        assert "/bin" not in retained.entries

    def test_keep_globs_follow_the_links_in_their_directory_part(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/usr", "directory"),
            FileEntry("/usr/lib", "directory"),
            FileEntry("/usr/lib/x", "directory"),
            FileEntry("/usr/lib/x/libc.so.6", "regular", 3),
            FileEntry("/usr/lib/x/libm.so.6", "regular", 5),
            FileEntry("/usr/lib/other", "regular", 7),
            FileEntry("/lib", "symlink", 0, "usr/lib"),
            FileEntry("/dangling", "symlink", 0, "gone"),
        ])
        retained = compute_retained(fs, access(), keep=("/lib/x/*", "/dangling/*"))
        assert set(retained.entries) == {"/", "/lib", "/dangling", "/usr", "/usr/lib",
                                         "/usr/lib/x", "/usr/lib/x/libc.so.6",
                                         "/usr/lib/x/libm.so.6"}
        # A glob without a link in its directory part matches as written.
        assert set(compute_retained(fs, access(), keep=("/usr/lib/x/libc*",)).entries) == {
            "/", "/usr", "/usr/lib", "/usr/lib/x", "/usr/lib/x/libc.so.6"}

    def test_empty_fs_rejected(self):
        with pytest.raises(ContractViolation):
            compute_retained(FileSet({}), access())

    def test_200_entry_fixture_matches_naive_oracle(self):
        rng = random.Random(42)
        fs = random_fileset(rng, 200)
        candidates = [p for p, e in fs.entries.items() if e.kind != "directory"]
        spelled = through_dir_links(fs)
        accessed = set(rng.sample(candidates, min(40, len(candidates))) +
                       rng.sample(spelled, min(20, len(spelled))))
        retained = compute_retained(fs, AccessSet(frozenset(accessed)))
        assert set(retained.entries) == naive_retained_closure(fs, accessed)


class TestComputeBloat:
    def test_full_retention_leaves_no_bloat(self):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/a", "regular", 1)])
        assert compute_bloat(fs, fs).entries == {}

    def test_root_only_retention(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/a", "regular", 1),
            FileEntry("/b", "directory"),
        ])
        retained = compute_retained(fs, access())
        bloat = compute_bloat(fs, retained)
        assert set(bloat.entries) == {"/a", "/b"}

    def test_complement_matches_set_difference(self):
        rng = random.Random(7)
        fs = random_fileset(rng, 120)
        candidates = [p for p in fs.entries if p != "/"]
        accessed = set(rng.sample(candidates, 15))
        retained = compute_retained(fs, AccessSet(frozenset(accessed)))
        bloat = compute_bloat(fs, retained)
        assert set(bloat.entries) == set(fs.entries) - set(retained.entries)

    def test_retained_outside_fs_is_contract_violation(self):
        fs = fs_from([FileEntry("/", "directory")])
        rogue = fs_from([FileEntry("/", "directory"), FileEntry("/ghost", "regular", 1)])
        with pytest.raises(ContractViolation):
            compute_bloat(fs, rogue)


class TestContainerBloatDegree:
    def test_paper_row_c1(self):
        assert container_bloat_degree(6.34, 2.22) == pytest.approx(0.65, abs=0.005)

    def test_paper_row_c2_maximum(self):
        assert container_bloat_degree(8.52, 1.74) == pytest.approx(0.80, abs=0.005)

    def test_no_reduction_is_zero(self):
        assert container_bloat_degree(123, 123) == 0.0

    def test_empty_container_defined_as_zero(self):
        assert container_bloat_degree(0, 0) == 0.0

    def test_larger_debloated_size_rejected(self):
        with pytest.raises(ContractViolation):
            container_bloat_degree(5, 6)

    def test_negative_rejected(self):
        with pytest.raises(ContractViolation):
            container_bloat_degree(5, -1)


class TestPartitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_partition_by_size_and_count(self, seed):
        rng = random.Random(seed)
        fs = random_fileset(rng, 80)
        candidates = [p for p in fs.entries if p != "/"]
        accessed = set(rng.sample(candidates, rng.randint(0, len(candidates) // 2)))
        result = debloat(fs, AccessSet(frozenset(accessed)))
        assert len(result.retained.entries) + len(result.bloat.entries) == len(fs.entries)
        assert total_size(result.retained) + total_size(result.bloat) == total_size(fs)
        assert 0.0 <= result.d_c <= 1.0

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_enlarging_access_is_monotone(self, seed):
        rng = random.Random(seed)
        fs = random_fileset(rng, 60)
        candidates = [p for p in fs.entries if p != "/"]
        small = set(rng.sample(candidates, rng.randint(0, len(candidates) // 3)))
        extra = set(rng.sample(candidates, rng.randint(0, len(candidates) // 3)))
        r_small = debloat(fs, AccessSet(frozenset(small)))
        r_big = debloat(fs, AccessSet(frozenset(small | extra)))
        assert set(r_small.retained.entries) <= set(r_big.retained.entries)
        assert r_big.d_c <= r_small.d_c


class TestManifest:
    def test_format_and_sorting(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/b", "regular", 5),
            FileEntry("/a", "symlink", 0, "b"),
        ])
        assert render_manifest(fs) == (
            "directory\t0\t/\n"
            "symlink\t0\t/a\n"
            "regular\t5\t/b\n"
        )

    def test_empty(self):
        assert render_manifest(FileSet({})) == ""


class TestMaterialize:
    def test_full_roundtrip_dir(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        out = tmp_path / "copy"
        materialize(fs, source, out, fmt="dir")
        assert load_rootfs(out)[0] == fs

    def test_retained_roundtrip_dir(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        retained = compute_retained(fs, access("/usr/bin/widget", "/app/cfg.yaml"))
        out = tmp_path / "debloated"
        assert materialize(retained, source, out, fmt="dir") is None
        written = load_rootfs(out)[0]
        assert written == retained
        assert render_manifest(written) == render_manifest(retained)

    def test_retained_roundtrip_tar(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        retained = compute_retained(fs, access("/usr/bin/widget"))
        tar_path = tmp_path / "debloated.tar"
        materialize(retained, source, tar_path, fmt="tar")
        loaded, source = load_flat_tar(tar_path)
        source.close()
        assert loaded == retained
        scratch = tmp_path / "extracted"
        with tarfile.open(tar_path) as tf:
            tf.extractall(scratch)
        assert load_rootfs(scratch)[0] == retained

    def test_empty_retention_makes_root_only_tar(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        retained = compute_retained(fs, access())
        tar_path = tmp_path / "empty.tar"
        materialize(retained, source, tar_path, fmt="tar")
        with tarfile.open(tar_path) as tf:
            names = tf.getnames()
        assert names == ["."]

    def test_missing_source_object_fatal(self, tmp_path):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/gone", "regular", 3)])
        with pytest.raises(MaterializeError, match="/gone"):
            materialize(fs, RootfsSource(tmp_path), tmp_path / "out", fmt="dir")

    def test_special_entry_is_skipped_with_a_warning(self, tmp_path, caplog):
        os.mkfifo(tmp_path / "pipe")
        fs, source = load_rootfs(tmp_path)
        materialize(fs, source, tmp_path / "out.tar", fmt="tar")
        with tarfile.open(tmp_path / "out.tar") as tf:
            assert tf.getnames() == ["."]
        assert "skipping special entry during materialization: /pipe" in caplog.text

    def test_size_mismatch_names_the_path(self, tmp_path):
        (tmp_path / "f").write_bytes(b"abc")
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/f", "regular", 5)])
        with pytest.raises(MaterializeError, match="size mismatch for /f: expected 5, got 3"):
            materialize(fs, RootfsSource(tmp_path), tmp_path / "out.tar", fmt="tar")

    def test_non_closed_set_rejected(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        broken = FileSet({
            "/": fs.entries["/"],
            "/app/cfg.yaml": fs.entries["/app/cfg.yaml"],
        })
        with pytest.raises(ContractViolation):
            materialize(broken, source, tmp_path / "o", fmt="dir")

    def test_second_image_into_one_out_is_refused(self, tmp_path):
        outside, one, two = (tmp_path / name for name in ("outside", "one", "two"))
        for d in (outside, one, two / "link"):
            d.mkdir(parents=True)
        (one / "link").symlink_to(outside)
        (two / "link" / "x").write_bytes(b"x")
        out = tmp_path / "out" / "rootfs"
        materialize(*load_rootfs(one), out, fmt="dir")
        with pytest.raises(MaterializeError, match=str(out)):
            materialize(*load_rootfs(two), out, fmt="dir")
        assert list(outside.iterdir()) == []

    def test_out_that_is_a_link_is_refused(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        real, out = tmp_path / "real", tmp_path / "out"
        real.mkdir()
        out.symlink_to(real)
        with pytest.raises(MaterializeError, match=str(out)):
            materialize(fs, source, out, fmt="dir")
        assert list(real.iterdir()) == []
        materialize(fs, source, real, fmt="dir")  # an empty directory is fine
        assert load_rootfs(real)[0] == fs

    def test_deterministic_tar_bytes(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        retained = compute_retained(fs, access("/app/cfg.yaml"))
        a, b = tmp_path / "a.tar", tmp_path / "b.tar"
        materialize(retained, source, a, fmt="tar")
        materialize(retained, RootfsSource(mini_rootfs), b, fmt="tar")
        assert a.read_bytes() == b.read_bytes()


# Name segments: ASCII, non-ASCII, a surrogate escape (a byte that is not
# UTF-8) and long ones, so that paths and link targets pass 100 bytes.
SEGMENTS = st.sampled_from(["a", "bin", "é", "日本", "\udcff", "x\udc80y", "L" * 45, "ü" * 40])
SEGMENT = st.lists(SEGMENTS, min_size=1, max_size=3).map("".join)
MODES = st.sampled_from([None, 0o644, 0o755, 0o4755, 0o2711, 0o1777, 0o7777, 0o100644])


@st.composite
def retained_contents(draw):
    """What materialize hands its tar writer: (path, entry, mode, bytes) in
    path order for the root and a parent-closed random tree below it."""
    items = {"/": (FileEntry("/", "directory"), draw(MODES), None)}
    for segments in draw(st.lists(st.lists(SEGMENT, min_size=1, max_size=4), max_size=12)):
        path = ""
        for segment in segments[:-1]:
            path += "/" + segment
            if path in items and items[path][0].kind != "directory":
                break
            items.setdefault(path, (FileEntry(path, "directory"), draw(MODES), None))
        else:
            path += "/" + segments[-1]
            if path in items:
                continue
            kind = draw(st.sampled_from(["directory", "regular", "symlink"]))
            if kind == "regular":
                data = draw(st.binary(max_size=1100))
                items[path] = (FileEntry(path, kind, len(data)), draw(MODES), data)
            elif kind == "symlink":
                target = "/".join(draw(st.lists(SEGMENT | st.just(".."), min_size=1, max_size=5)))
                items[path] = (FileEntry(path, kind, 0, target), draw(MODES), None)
            else:
                items[path] = (FileEntry(path, kind), draw(MODES), None)
    return [(path, *items[path]) for path in sorted(items)]


class TestTarWriterAgainstTarfile:
    @settings(max_examples=150, deadline=None)
    @given(contents=retained_contents())
    def test_bytes_equal_tarfiles_pax_format(self, contents, tmp_path_factory):
        out = tmp_path_factory.mktemp("tars")
        _write_tar(out / "new.tar", iter(contents))
        write_tar_oracle(out / "oracle.tar", iter(contents))
        assert (out / "new.tar").read_bytes() == (out / "oracle.tar").read_bytes()

    @pytest.mark.parametrize("length", [99, 100, 101, 155, 156])
    def test_name_and_link_lengths_around_the_ustar_fields(self, length):
        name, link = "./" + "n" * (length - 2), "t" * length
        info = tarfile.TarInfo(name)
        info.type, info.linkname, info.mode = tarfile.SYMTYPE, link, 0o777
        info.mtime, info.uname, info.gname = 0, "", ""
        expected = info.tobuf(tarfile.PAX_FORMAT, "utf-8", "surrogateescape")
        assert _tar_header(name, b"2", 0o777, 0, link) == expected
        assert len(expected) == (512 if length <= 100 else 1536)

    def test_size_of_8_gib_gets_a_pax_size_record(self):
        info = tarfile.TarInfo("./big")
        info.size, info.mode, info.mtime, info.uname, info.gname = 8 ** 11, 0o644, 0, "", ""
        header = _tar_header("./big", b"0", 0o644, 8 ** 11)
        assert b" size=8589934592\n" in header
        assert header == info.tobuf(tarfile.PAX_FORMAT, "utf-8", "surrogateescape")

    def test_materialized_tar_equals_the_oracles(self, mini_rootfs, tmp_path):
        fs, source = load_rootfs(mini_rootfs)
        retained = compute_retained(fs, access("/usr/bin/widget", "/app/cfg.yaml"))
        materialize(retained, source, tmp_path / "new.tar", fmt="tar")
        write_tar_oracle(tmp_path / "oracle.tar", _contents(retained, source))
        assert (tmp_path / "new.tar").read_bytes() == (tmp_path / "oracle.tar").read_bytes()
