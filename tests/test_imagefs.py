import errno
import gc
import gzip
import io
import lzma
import os
import pathlib
import posixpath
import stat
import struct
import sys
import tarfile
import tempfile
import tracemalloc
from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloatlens import imagefs
from bloatlens.debloat import compute_retained, materialize
from bloatlens.errors import IngestError, MaterializeError
from bloatlens.imagefs import (
    FileEntry,
    FileSet,
    FlatTarSource,
    LayeredSource,
    RootfsSource,
    check_parent_closure,
    load_flat_tar,
    load_layers,
    load_rootfs,
    total_size,
)
from bloatlens.trace import AccessSet

from oracles import (
    ResolveLoop,
    file_bytes,
    fileset_inventory,
    resolve_oracle,
    sequential_extract_union,
    tarfile_contents,
    walk_inventory,
)


def inventory(loaded):
    """The FileSet of a tar loader's (FileSet, source) pair, a tree; closes the source."""
    fs, source = loaded
    source.close()
    assert check_parent_closure(fs) == []
    return fs


def make_tar(path, members, mode="w"):
    """members: list of (name, kind, payload-or-target). kind in
    file/dir/sym/lnk/fifo."""
    with tarfile.open(path, mode) as tf:
        for name, kind, arg in members:
            info = tarfile.TarInfo(name)
            if kind == "file":
                data = arg if isinstance(arg, bytes) else arg.encode()
                info.size = len(data)
                tf.addfile(info, io.BytesIO(data))
            elif kind == "dir":
                info.type = tarfile.DIRTYPE
                tf.addfile(info)
            elif kind == "sym":
                info.type = tarfile.SYMTYPE
                info.linkname = arg
                tf.addfile(info)
            elif kind == "lnk":
                info.type = tarfile.LNKTYPE
                info.linkname = arg
                tf.addfile(info)
            elif kind == "fifo":
                info.type = tarfile.FIFOTYPE
                tf.addfile(info)
    return path


def one_table(fs, src):
    """The source keeps no table of image paths beside the inventory it returned."""
    return src.fs is fs and not [value for value in vars(src).values()
                                 if isinstance(value, Mapping) and "/" in value]


def assert_records_pass_the_checks(fs):
    """Every record a loader wrote (unchecked) equals the FileEntry that the
    checking constructor builds from its fields."""
    for e in fs.entries.values():
        assert e == FileEntry(e.path, e.kind, e.size, e.link_target), e


def write_tree(root, members):
    """Create root and, under it, the dir, file and sym members (name, kind,
    payload-or-target) in order; returns root."""
    root = pathlib.Path(root)
    root.mkdir()
    for name, kind, arg in members:
        if kind == "dir":
            (root / name).mkdir()
        elif kind == "file":
            (root / name).write_bytes(arg)
        else:
            os.symlink(arg, root / name)
    return root


class TestFileEntry:
    def test_rejects_relative_path(self):
        with pytest.raises(ValueError):
            FileEntry("a/b", "regular", 1)

    def test_rejects_dot_segments(self):
        with pytest.raises(ValueError):
            FileEntry("/a/../b", "regular", 1)

    def test_rejects_trailing_slash(self):
        with pytest.raises(ValueError):
            FileEntry("/a/", "directory")

    def test_root_is_valid(self):
        assert FileEntry("/", "directory").path == "/"

    def test_nonregular_size_must_be_zero(self):
        with pytest.raises(ValueError):
            FileEntry("/a", "symlink", 5, "b")

    def test_link_target_iff_symlink(self):
        with pytest.raises(ValueError):
            FileEntry("/a", "regular", 1, "b")
        with pytest.raises(ValueError):
            FileEntry("/a", "symlink", 0, None)


class TestLoadRootfs:
    def test_empty_dir_has_only_root(self, tmp_path):
        fs = load_rootfs(tmp_path)[0]
        assert set(fs.entries) == {"/"}
        assert fs.entries["/"].kind == "directory"

    def test_small_tree_matches_independent_walk(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "b.txt").write_bytes(b"12345")
        fs = load_rootfs(tmp_path)[0]
        assert set(fs.entries) == {"/", "/a", "/a/b.txt"}
        assert fs.entries["/a/b.txt"].kind == "regular"
        assert fs.entries["/a/b.txt"].size == 5
        assert fileset_inventory(fs) == walk_inventory(tmp_path)

    def test_symlink_recorded_not_followed(self, tmp_path):
        (tmp_path / "y").write_bytes(b"abc")
        os.symlink("y", tmp_path / "x")
        fs = load_rootfs(tmp_path)[0]
        assert fs.entries["/x"].kind == "symlink"
        assert fs.entries["/x"].link_target == "y"
        assert fs.entries["/x"].size == 0

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(IngestError):
            load_rootfs(tmp_path / "nope")

    def test_special_file_degrades_to_other(self, tmp_path):
        os.mkfifo(tmp_path / "pipe")
        fs = load_rootfs(tmp_path)[0]
        assert fs.entries["/pipe"].kind == "other"
        assert fs.entries["/pipe"].size == 0

    def test_unreadable_symlink_degrades_to_other_and_keeps_its_mode(self, tmp_path,
                                                                     monkeypatch, caplog):
        os.symlink("y", tmp_path / "x")

        def denied(path):
            raise PermissionError(errno.EACCES, "denied", path)

        monkeypatch.setattr(os, "readlink", denied)
        fs, src = load_rootfs(tmp_path)
        assert fs.entries["/x"] == FileEntry("/x", "other")
        assert src.mode("/x") == stat.S_IMODE(os.lstat(tmp_path / "x").st_mode)
        assert "unreadable entry" in caplog.text

    def test_unlistable_subdirectory_warns_and_the_walk_goes_on(self, tmp_path, monkeypatch,
                                                              caplog):
        for name in ("a", "b"):
            (tmp_path / name).mkdir()
            (tmp_path / name / "f").write_bytes(b"f")
        real = os.scandir

        def scandir(path):  # root may list a mode-000 directory, so fail the call itself
            if os.path.basename(path) == "a":
                raise PermissionError(errno.EACCES, "denied", path)
            return real(path)

        monkeypatch.setattr(os, "scandir", scandir)
        fs = load_rootfs(tmp_path)[0]
        assert sorted(fs.entries) == ["/", "/a", "/b", "/b/f"]
        assert f"unreadable directory {tmp_path / 'a'}" in caplog.text

    def test_parent_closure_holds(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)[0]
        assert check_parent_closure(fs) == []

    def test_mini_rootfs_matches_walk_oracle(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)[0]
        assert fileset_inventory(fs) == walk_inventory(mini_rootfs)

    def test_tree_deeper_than_the_recursion_limit_walks(self, tmp_path):
        depth = 1100  # /d/d/...: about 2.2k characters, under PATH_MAX
        fd = os.open(tmp_path, os.O_RDONLY)
        try:
            for _ in range(depth):
                os.mkdir("d", dir_fd=fd)
                fd, parent = os.open("d", os.O_RDONLY, dir_fd=fd), fd
                os.close(parent)
        finally:
            os.close(fd)
        try:
            assert len(load_rootfs(tmp_path)[0]) == depth + 1
        finally:  # shutil.rmtree recurses per level too
            for level in range(depth, 0, -1):
                os.rmdir(os.path.join(tmp_path, *["d"] * level))


class TestOneNormalForm:
    @settings(max_examples=300, deadline=None)
    @given(name=st.lists(st.sampled_from(["a", ".", "..", "/", "./"]), max_size=8).map("".join))
    def test_tar_member_path_is_the_normal_form_or_refused(self, name):
        path, normal = imagefs._tar_member_path(name), imagefs.normalize_path("/", name)
        assert path is None or path == normal
        assert (path is None) == (normal == "/" or ".." in name.split("/"))


# A single tar is a one-layer image, whichever loader reads it.
ONE_TAR_LOADERS = pytest.mark.parametrize(
    "load", [load_flat_tar, lambda tar: load_layers([tar])], ids=["flat", "layers"])


class TestLoadFlatTar:
    def test_basic_members(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [
            ("etc", "dir", None),
            ("etc/a", "file", b"hello"),
            ("etc/l", "sym", "a"),
        ])
        fs = inventory(load_flat_tar(tar))
        assert fs.entries["/etc/a"].size == 5
        assert fs.entries["/etc/l"].link_target == "a"
        assert check_parent_closure(fs) == []

    def test_dot_slash_prefixes_normalize(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [("./etc/a", "file", b"x")])
        fs = inventory(load_flat_tar(tar))
        assert "/etc/a" in fs.entries

    def test_implied_parents_added(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [("deep/ly/nested", "file", b"x")])
        fs = inventory(load_flat_tar(tar))
        assert fs.entries["/deep"].kind == "directory"
        assert fs.entries["/deep/ly"].kind == "directory"

    def test_hardlink_carries_full_size(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [
            ("data", "file", b"x" * 7),
            ("alias", "lnk", "data"),
        ])
        fs = inventory(load_flat_tar(tar))
        assert fs.entries["/alias"].kind == "regular"
        assert fs.entries["/alias"].size == 7
        assert total_size(fs) == 14

    def test_fifo_becomes_other(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [("pipe", "fifo", None)])
        fs = inventory(load_flat_tar(tar))
        assert fs.entries["/pipe"].kind == "other"

    def test_gzip_wrapped_tar(self, tmp_path):
        import gzip

        tar = make_tar(tmp_path / "t.tar", [("a", "file", b"zz")])
        gz = tmp_path / "t.tar.gz"
        gz.write_bytes(gzip.compress((tmp_path / "t.tar").read_bytes()))
        fs = inventory(load_flat_tar(gz))
        assert fs.entries["/a"].size == 2

    def test_garbage_raises_ingest_error(self, tmp_path):
        bad = tmp_path / "bad.tar"
        bad.write_bytes(b"this is not a tar archive at all" * 40)
        with pytest.raises(IngestError):
            load_flat_tar(bad)


class TestLoadLayers:
    def test_single_layer_equals_flat_tar(self, tmp_path):
        tar = make_tar(tmp_path / "l0.tar", [
            ("etc", "dir", None),
            ("etc/a", "file", b"one"),
        ])
        assert inventory(load_layers([tar])) == inventory(load_flat_tar(tar))

    @ONE_TAR_LOADERS
    def test_single_tar_markers_leave_the_inventory(self, tmp_path, load):
        # A tar's whiteouts spare what it adds, so in a one-tar stack they remove nothing.
        tar = make_tar(tmp_path / "t.tar", [
            ("etc/a", "file", b"a"), ("etc/.wh.gone", "file", b""),
            ("var/.wh..wh..opq", "file", b""), ("var/x", "file", b"x")])
        fs = inventory(load(tar))
        assert fileset_inventory(fs) == sequential_extract_union([tar], tmp_path / "x")
        assert sorted(fs.entries) == ["/", "/etc", "/etc/a", "/var", "/var/x"]

    @ONE_TAR_LOADERS
    def test_single_tar_bare_marker_is_logged_and_left_out(self, tmp_path, load, caplog):
        tar = make_tar(tmp_path / "t.tar", [("a/.wh.", "file", b""), ("b", "file", b"b")])
        fs = inventory(load(tar))
        assert sorted(fs.entries) == ["/", "/b"]  # nor is /a, which only the marker implied
        assert "whiteout /a/.wh. names no path" in caplog.text

    def test_whiteout_deletes_lower_entry(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("opt", "dir", None), ("opt/foo", "file", b"f")])
        l2 = make_tar(tmp_path / "l2.tar", [("opt/.wh.foo", "file", b"")])
        fs = inventory(load_layers([l1, l2]))
        assert "/opt/foo" not in fs.entries
        assert "/opt/.wh.foo" not in fs.entries
        assert "/opt" in fs.entries

    def test_whiteout_removes_subtree(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [
            ("opt/sub", "dir", None),
            ("opt/sub/x", "file", b"x"),
        ])
        l2 = make_tar(tmp_path / "l2.tar", [("opt/.wh.sub", "file", b"")])
        fs = inventory(load_layers([l1, l2]))
        assert "/opt/sub" not in fs.entries
        assert "/opt/sub/x" not in fs.entries

    def test_opaque_hides_prior_contents(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [
            ("cfg", "dir", None),
            ("cfg/old", "file", b"old"),
            ("cfg/sub", "dir", None),
            ("cfg/sub/deep", "file", b"d"),
        ])
        upper = [("cfg/.wh..wh..opq", "file", b""), ("cfg/new", "file", b"new")]
        for members in (upper, upper[::-1]):  # the marker before, then after, the new file
            l2 = make_tar(tmp_path / "l2.tar", members)
            fs = inventory(load_layers([l1, l2]))
            assert "/cfg/old" not in fs.entries
            assert "/cfg/sub/deep" not in fs.entries
            assert fs.entries["/cfg/new"].size == 3
            assert fs.entries["/cfg"].kind == "directory"

    def test_later_layer_replaces_file(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("a", "file", b"1")])
        l2 = make_tar(tmp_path / "l2.tar", [("a", "file", b"22")])
        fs = inventory(load_layers([l1, l2]))
        assert fs.entries["/a"].size == 2

    def test_file_over_directory_drops_subtree(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("d", "dir", None), ("d/x", "file", b"x")])
        l2 = make_tar(tmp_path / "l2.tar", [("d", "file", b"now a file")])
        fs = inventory(load_layers([l1, l2]))
        assert fs.entries["/d"].kind == "regular"
        assert "/d/x" not in fs.entries

    def test_dir_replaced_then_readded_in_one_layer(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("d", "dir", None), ("d/old", "file", b"o")])
        l2 = make_tar(tmp_path / "l2.tar", [("d", "file", b"f"), ("d", "dir", None),
                                            ("d/new", "file", b"n")])
        fs = inventory(load_layers([l1, l2]))
        assert fileset_inventory(fs) == sequential_extract_union([l1, l2], tmp_path / "x")
        assert "/d/new" in fs.entries and "/d/old" not in fs.entries

    def test_whiteout_then_readd_same_layer(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("a", "file", b"old!")])
        upper = [(".wh.a", "file", b""), ("a", "file", b"n")]
        for members in (upper, upper[::-1]):  # the marker before, then after, the new file
            l2 = make_tar(tmp_path / "l2.tar", members)
            fs = inventory(load_layers([l1, l2]))
            assert fs.entries["/a"].size == 1

    def test_whiteout_idempotent(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [
            ("keep", "file", b"k"),
            ("drop", "file", b"d"),
        ])
        wh = make_tar(tmp_path / "wh.tar", [(".wh.drop", "file", b"")])
        once = inventory(load_layers([l1, wh]))
        twice = inventory(load_layers([l1, wh, wh]))
        assert once == twice
        assert "/drop" not in once.entries

    def test_root_opaque_marker_hides_every_lower_path(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("a", "dir", None), ("a/x", "file", b"x"),
                                            ("b", "file", b"b")])
        l2 = make_tar(tmp_path / "l2.tar", [(".wh..wh..opq", "file", b""), ("c", "file", b"c")])
        fs = inventory(load_layers([l1, l2]))
        assert sorted(fs.entries) == ["/", "/c"]

    @pytest.mark.parametrize("marker", [".wh.", "a/.wh."])
    def test_bare_whiteout_marker_hides_nothing(self, tmp_path, marker, caplog):
        lower = [("a", "dir", None), ("a/x", "file", b"x"), ("b", "file", b"b")]
        l1 = make_tar(tmp_path / "l1.tar", lower)
        l2 = make_tar(tmp_path / "l2.tar", [(marker, "file", b"")])
        fs = inventory(load_layers([l1, l2]))
        assert sorted(fs.entries) == ["/", "/a", "/a/x", "/b"]
        assert fileset_inventory(fs) == sequential_extract_union([l1, l2], tmp_path / "x")
        assert f"whiteout /{marker} names no path" in caplog.text

    def test_whiteout_spares_siblings_that_share_its_prefix(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [
            ("a", "dir", None), ("a/x", "file", b"x"), ("ab", "file", b"ab"),
            ("a.b", "file", b"."), ("a0", "dir", None), ("a0/y", "file", b"y")])
        l2 = make_tar(tmp_path / "l2.tar", [(".wh.a", "file", b"")])
        fs = inventory(load_layers([l1, l2]))
        assert fileset_inventory(fs) == sequential_extract_union([l1, l2], tmp_path / "x")
        assert sorted(fs.entries) == ["/", "/a.b", "/a0", "/a0/y", "/ab"]

    def test_malformed_layer_names_index_and_offset(self, tmp_path):
        good = make_tar(tmp_path / "good.tar", [("a", "file", b"x")])
        bad = tmp_path / "bad.tar"
        data = bytearray(make_tar(tmp_path / "two.tar", [
            ("a", "file", b"x"),
            ("b", "file", b"y"),
        ]).read_bytes())
        # Corrupt the checksum field of the second member's header, which
        # sits after the first 512-byte header plus one padded data block.
        data[1024 + 148:1024 + 156] = b"\xff" * 8
        bad.write_bytes(bytes(data))
        with pytest.raises(IngestError, match=r"layer 1.*offset 1024"):
            load_layers([good, bad])

    def test_unopenable_layer_reports_offset_zero(self, tmp_path):
        good = make_tar(tmp_path / "good.tar", [("a", "file", b"x")])
        bad = tmp_path / "bad.tar"
        bad.write_bytes(b"\xff" * 2048)
        with pytest.raises(IngestError, match=r"layer 1.*offset 0"):
            load_layers([good, bad])

    def test_empty_layer_list_rejected(self):
        with pytest.raises(IngestError):
            load_layers([])


class TestTotalSize:
    def test_empty_fileset(self):
        fs = FileSet({"/": FileEntry("/", "directory")})
        assert total_size(fs) == 0

    def test_only_regular_files_count(self):
        fs = FileSet([
            FileEntry("/", "directory"),
            FileEntry("/a", "regular", 5),
            FileEntry("/b", "regular", 7),
            FileEntry("/l", "symlink", 0, "a"),
            FileEntry("/d", "directory"),
        ])
        assert total_size(fs) == 12

    def test_matches_shell_style_walk(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)[0]
        oracle = sum(size for kind, size, _ in walk_inventory(mini_rootfs).values()
                     if kind == "regular")
        assert total_size(fs) == oracle

    def test_additive_over_disjoint_subsets(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)[0]
        under_usr = {p: e for p, e in fs.entries.items() if p.startswith("/usr")}
        rest = {p: e for p, e in fs.entries.items() if not p.startswith("/usr")}
        part1 = FileSet(under_usr)
        part2 = FileSet(rest)
        assert total_size(part1) + total_size(part2) == total_size(fs)


class TestContentSources:
    def test_rootfs_source_roundtrip(self, mini_rootfs):
        src = RootfsSource(mini_rootfs)
        assert src.read("/app/cfg.yaml") == b"x" * 20
        assert src.mode("/app/cfg.yaml") is not None

    def test_flat_tar_source(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [
            ("data", "file", b"payload"),
            ("alias", "lnk", "data"),
        ])
        with FlatTarSource(tar) as src:
            assert src.read("/data") == b"payload"
            assert src.read("/alias") == b"payload"

    def test_layered_source_last_definition_wins(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("a", "file", b"old")])
        l2 = make_tar(tmp_path / "l2.tar", [("a", "file", b"new")])
        with LayeredSource([l1, l2]) as src:
            assert src.read("/a") == b"new"

    def test_missing_path_raises(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [("a", "file", b"x")])
        with FlatTarSource(tar) as src:
            with pytest.raises(imagefs.MaterializeError):
                src.read("/nope")


class TestFileSetSemantics:
    def test_duplicate_paths_rejected(self):
        with pytest.raises(ValueError):
            FileSet([FileEntry("/", "directory"), FileEntry("/", "directory")])

    def test_immutable(self):
        fs = FileSet({"/": FileEntry("/", "directory")})
        with pytest.raises((AttributeError, TypeError)):
            fs.entries = {}
        with pytest.raises(TypeError):
            fs.entries["/new"] = FileEntry("/new", "directory")


class TestHardlinksResolveInTheirOwnTar:
    def test_link_keeps_bytes_of_target_replaced_by_upper_layer(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("data", "file", b"x" * 7),
                                            ("alias", "lnk", "data")])
        l2 = make_tar(tmp_path / "l2.tar", [("data", "file", b"yy")])
        fs, src = load_layers([l1, l2])
        with src:
            assert fs.entries["/alias"].size == 7
            assert src.read("/alias") == b"x" * 7
            assert src.read("/data") == b"yy"
            materialize(fs, src, tmp_path / "out.tar", fmt="tar")

    def test_link_in_flat_tar_resolves_to_preceding_member(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [("a", "file", b"first"),
                                            ("b", "lnk", "a"),
                                            ("a", "file", b"second!")])
        fs, src = load_flat_tar(tar)
        with src:
            assert fs.entries["/b"].size == 5
            assert src.read("/b") == b"first"
            assert src.read("/a") == b"second!"

    def test_link_to_lower_layer_file(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("data", "file", b"lower")])
        l2 = make_tar(tmp_path / "l2.tar", [("alias", "lnk", "data")])
        fs, src = load_layers([l1, l2])
        with src:
            assert fs.entries["/alias"].size == 5
            assert src.read("/alias") == b"lower"

    @pytest.mark.parametrize("marker_last", [False, True], ids=["marker-first", "marker-last"])
    def test_link_to_lower_file_whited_out_in_its_layer(self, tmp_path, marker_last):
        # A hardlink takes its target as the union holds it when the link is read.
        l1 = make_tar(tmp_path / "l1.tar", [("data", "file", b"lower")])
        upper = [("alias", "lnk", "data"), (".wh.data", "file", b"")]
        fs, src = load_layers([l1, make_tar(tmp_path / "l2.tar",
                                            upper if marker_last else upper[::-1])])
        with src:
            assert "/data" not in fs.entries
            if marker_last:
                assert fs.entries["/alias"] == FileEntry("/alias", "regular", 5)
                assert src.read("/alias") == b"lower"
            else:
                assert fs.entries["/alias"] == FileEntry("/alias", "regular", 0)
                with pytest.raises(MaterializeError, match="dangling hardlink"):
                    src.read("/alias")

    @pytest.mark.parametrize("layered", [False, True], ids=["flat", "layers"])
    def test_link_to_a_directory_or_symlink_dangles(self, tmp_path, layered):
        targets = [("d", "dir", None), ("s", "sym", "d")]
        links = [("hd", "lnk", "d"), ("hs", "lnk", "s")]
        if layered:
            fs, src = load_layers([make_tar(tmp_path / "l0.tar", targets),
                                   make_tar(tmp_path / "l1.tar", links)])
        else:
            fs, src = load_flat_tar(make_tar(tmp_path / "t.tar", targets + links))
        with src:
            for path in ("/hd", "/hs"):
                assert fs.entries[path] == FileEntry(path, "regular", 0)
                with pytest.raises(MaterializeError, match="dangling hardlink"):
                    src.read(path)

    @pytest.mark.parametrize("lower, why", [
        ([("d/f", "file", b"x")], "is not a regular file (kind directory)"),  # d is implied
        ([("d", "dir", None)], "is not a regular file (kind directory)"),
        ([("d", "sym", "f"), ("f", "file", b"x")], "is not a regular file (kind symlink)"),
        ([("f", "file", b"x")], "is missing"),
    ], ids=["implied-directory", "named-directory", "symlink", "missing"])
    def test_link_to_a_non_regular_target_warns_why(self, tmp_path, caplog, lower, why):
        fs, src = load_layers([make_tar(tmp_path / "l0.tar", lower),
                               make_tar(tmp_path / "l1.tar", [("h", "lnk", "d")])])
        with src:
            assert fs.entries["/h"] == FileEntry("/h", "regular", 0)
            with pytest.raises(MaterializeError, match="dangling hardlink"):
                src.read("/h")
        assert f"hardlink /h: target d {why}" in caplog.text

    def test_link_to_a_target_no_runtime_can_place_is_one_warning(self, tmp_path, caplog):
        # layer 1 holds no member f/g: its one warning names the hardlink and target
        fs, src = load_layers([make_tar(tmp_path / "l0.tar", [("f", "file", b"x")]),
                               make_tar(tmp_path / "l1.tar", [("h", "lnk", "f/g")])])
        with src:
            assert fs.entries["/h"] == FileEntry("/h", "regular", 0)
            with pytest.raises(MaterializeError, match="dangling hardlink"):
                src.read("/h")
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            "hardlink /h: target f/g: its directory reaches /f, which is not a directory"]

    def test_link_under_directory_replaced_earlier_in_layer_dangles(self, tmp_path):
        l1 = make_tar(tmp_path / "l1.tar", [("d", "dir", None), ("d/x", "file", b"gone")])
        l2 = make_tar(tmp_path / "l2.tar", [("d", "file", b"f"), ("h", "lnk", "d/x")])
        fs, src = load_layers([l1, l2])
        with src:
            assert "/d/x" not in fs.entries and fs.entries["/h"].size == 0
            with pytest.raises(MaterializeError, match="dangling hardlink"):
                src.read("/h")


class TestCompressedLayers:
    STACK = [
        [("etc", "dir", None), ("etc/a", "file", b"alpha"), ("etc/l", "sym", "a"),
         ("d", "dir", None), ("d/x", "file", b"x" * 300), ("hl", "lnk", "etc/a")],
        [("etc/.wh.a", "file", b""), ("d", "file", b"now a file"),
         ("etc/b", "file", b"beta" * 100)],
        [("etc/.wh..wh..opq", "file", b""), ("etc/c", "file", b"gamma")],
    ]
    FORMATS = [(".tar", "w"), (".tar.gz", "w:gz"), (".tar.bz2", "w:bz2"), (".tar.xz", "w:xz")]

    def test_every_compression_loads_the_same(self, tmp_path):
        results = []
        for suffix, mode in self.FORMATS:
            d = tmp_path / mode.replace(":", "_")
            d.mkdir()
            fs, src = load_layers([make_tar(d / f"l{i}{suffix}", layer, mode)
                                   for i, layer in enumerate(self.STACK)])
            with src:
                regular = sorted(p for p, e in fs.entries.items() if e.kind == "regular")
                results.append((fs, {p: src.read(p) for p in regular},
                                {p: src.mode(p) for p in fs.entries}))
        assert regular == ["/d", "/etc/c", "/hl"]
        assert results[0][1]["/hl"] == b"alpha"
        for other in results[1:]:
            assert other == results[0]

    @pytest.mark.parametrize("suffix,mode", FORMATS[1:])
    def test_truncated_compressed_layer_names_the_layer(self, tmp_path, suffix, mode):
        good, bad = (make_tar(tmp_path / f"l{i}{suffix}", layer, mode)
                     for i, layer in enumerate(self.STACK[:2]))
        bad.write_bytes(bad.read_bytes()[:len(bad.read_bytes()) // 2])
        with pytest.raises(IngestError, match=r"^layer 1: "):
            load_layers([good, bad])

    def test_plain_tar_starting_with_a_magic_number_loads(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [("BZh0", "file", b"not bzip2")])
        assert tar.read_bytes().startswith(b"BZh")
        fs, src = load_flat_tar(tar)
        with src:
            assert src.read("/BZh0") == b"not bzip2"

    def test_legacy_lzma_alone_tar_loads(self, tmp_path):
        plain = make_tar(tmp_path / "t.tar", self.STACK[0])
        packed = tmp_path / "t.tar.lzma"
        packed.write_bytes(lzma.compress(plain.read_bytes(), format=lzma.FORMAT_ALONE))
        fs, src = load_flat_tar(packed)
        with src:
            assert fs == inventory(load_flat_tar(plain))
            assert src.read("/hl") == b"alpha"

    def test_full_temp_disk_is_reported_as_such(self, tmp_path, monkeypatch):
        class Full(io.BytesIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, "No space left on device")

        layer = make_tar(tmp_path / "l0.tar.gz", self.STACK[0], "w:gz")
        monkeypatch.setattr(tempfile, "TemporaryFile", Full)
        with pytest.raises(IngestError, match=r"^layer 0: cannot write .* temp file in "):
            load_layers([layer])

    def test_layer_with_nothing_in_the_union_is_closed_after_load(self, tmp_path, monkeypatch):
        temps, real = [], tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            temps.append(real(*args, **kwargs))
            return temps[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        l0 = make_tar(tmp_path / "l0.tar.gz", [("a", "file", b"lower")], "w:gz")
        l1 = make_tar(tmp_path / "l1.tar.gz", [(".wh.a", "file", b""), ("b", "file", b"up")],
                      "w:gz")
        fs, src = load_layers([l0, l1])
        with src:
            assert [t.closed for t in temps] == [True, False]
            assert src.read("/b") == b"up"
        assert all(t.closed for t in temps)


NAMES = ("a", "b", "c", "ab")  # "ab" shares a prefix with "a"
LAYER_OPS = st.lists(st.tuples(
    st.sampled_from(("file", "dir", "sym", "lnk", "wh", "opq", "bare")),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map("/".join),
    st.binary(max_size=6),
), max_size=8)


def compile_layer(ops, lower=None):
    """make_tar members for one layer, valid the way container tools write
    them: each path once, its ancestors first as directory members, and
    hardlinks only to regular files earlier in the same tar. Given ``lower``,
    the sets of names that lower layers gave regular files and symlinks, the
    layer names no ancestor directory, writes a member under one of those
    files without recording it (no runtime can apply it, so no hardlink
    targets it) and adds its own files and links to the sets. A member under
    a lower link lands where the link leads; every link target starts with
    an 'x' that no name holds, so only a file at one of the member's ancestor
    names can block it. A hardlink then targets no file under a lower link
    that a whiteout earlier in the layer took, as that name no longer leads
    to the file."""
    members, kinds, hidden = [], {}, set()  # hidden: the lower links this layer's whiteouts took
    files_only = lower is not None
    lower_files, lower_links = lower or (set(), set())

    def place(path, kind, arg):
        parts = path.split("/")
        ancestors = ["/".join(parts[:i]) for i in range(1, len(parts))]
        if path in kinds or any(kinds.get(a, "dir") != "dir" for a in ancestors):
            return
        if files_only and any(a in lower_files for a in ancestors):
            members.append((path, kind, arg))  # refused at load: kept out of kinds
            return
        for a in ancestors:
            if a not in kinds:
                kinds[a] = "dir"
                if not files_only:
                    members.append((a, "dir", None))
        kinds[path] = kind
        members.append((path, kind, arg))

    for op, path, data in ops:
        head, _, base = path.rpartition("/")
        prefix = head + "/" if head else ""
        if op == "wh":
            place(f"{prefix}.wh.{base}", "file", b"")
            hidden.update(f"{link}/" for link in lower_links
                          if link == path or link.startswith(path + "/"))
        elif op == "opq":
            place(f"{prefix}.wh..wh..opq", "file", b"")
            hidden.update(f"{link}/" for link in lower_links if link.startswith(prefix))
        elif op == "bare":  # a marker naming no path, at the root for a one-name path
            place(f"{prefix}.wh.", "file", b"")
        elif op == "lnk":
            files = [p for p, k in kinds.items() if k == "file" and ".wh." not in p
                     and not p.startswith(tuple(hidden))]
            if files:
                place(path, "lnk", files[len(data) % len(files)])
        else:
            place(path, op, {"file": data, "dir": None, "sym": "x/" + base}[op])
    lower_files.update(p for p, k in kinds.items() if k in ("file", "lnk"))
    lower_links.update(p for p, k in kinds.items() if k == "sym")
    return members


class TestLayeredUnionOracle:
    @staticmethod
    def check_stack(stack, files_only=False):
        lower = (set(), set()) if files_only else None
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            layers = [make_tar(tmp / f"l{i}.tar", compile_layer(ops, lower))
                      for i, ops in enumerate(stack)]
            fs, src = load_layers(layers)
            with src:
                oracle = sequential_extract_union(layers, tmp / "scratch")
                assert fileset_inventory(fs) == oracle
                assert check_parent_closure(fs) == []
                assert one_table(fs, src)
                assert_records_pass_the_checks(fs)
                regular = {p for p, e in fs.entries.items() if e.kind == "regular"}
                reads = {p: src.read(p) for p in regular}
                assert reads == file_bytes(tmp / "scratch")
            if len(layers) == 1:  # a single tar is a one-layer image
                flat, flat_src = load_flat_tar(layers[0])
                with flat_src:
                    assert flat == fs
                    assert {p: flat_src.read(p) for p in regular} == reads

    @settings(max_examples=60, deadline=None)
    @given(stack=st.lists(LAYER_OPS, min_size=1, max_size=4))
    def test_union_and_reads_match_sequential_extraction(self, stack):
        self.check_stack(stack)

    @settings(max_examples=60, deadline=None)
    @given(stack=st.lists(LAYER_OPS, min_size=1, max_size=4))
    def test_layers_that_list_only_files_match_sequential_extraction(self, stack):
        # every directory above a member is one its layer implies
        self.check_stack(stack, files_only=True)

    @pytest.mark.parametrize("lower, upper, expected", [
        ([("a/b", "file", b"x")], [("a", "file", b"f")], {"/": "directory", "/a": "regular"}),
        ([("a/b", "file", b"x")], [("a/.wh.b", "file", b"")],
         {"/": "directory", "/a": "directory"}),
        ([("a/b", "file", b"x")], [("a/.wh..wh..opq", "file", b"")],
         {"/": "directory", "/a": "directory"}),
        ([("a/b/c", "file", b"x")], [("a/b/.wh.c", "file", b"")],
         {"/": "directory", "/a": "directory", "/a/b": "directory"}),
    ], ids=["file-over-implied", "whiteout-under-implied", "opaque-implied",
            "whiteout-two-deep"])
    def test_implied_directory_is_one_of_its_layer(self, tmp_path, lower, upper, expected):
        layers = [make_tar(tmp_path / "l0.tar", lower), make_tar(tmp_path / "l1.tar", upper)]
        fs, src = load_layers(layers)
        with src:
            assert {p: e.kind for p, e in fs.entries.items()} == expected
            assert fileset_inventory(fs) == sequential_extract_union(layers, tmp_path / "x")
            assert check_parent_closure(fs) == []
            assert one_table(fs, src)
            if expected["/a"] == "directory":
                assert src.mode("/a") is None
                with pytest.raises(MaterializeError, match="not a regular file"):
                    src.read("/a")

    def test_only_a_lower_link_a_whiteout_took_hides_hardlink_targets(self):
        # an opaque marker at the root and a whiteout of a plain directory leave
        # the layer's own files there as targets; one under the lower link l does not
        ops = [("file", "a/f", b""), ("file", "l/g", b""), ("opq", "r", b""), ("wh", "a", b""),
               ("lnk", "h", b""), ("lnk", "k", b"x")]
        members = compile_layer(ops, (set(), {"l"}))
        assert [m for m in members if m[1] == "lnk"] == [("h", "lnk", "a/f"), ("k", "lnk", "a/f")]

    @settings(max_examples=60, deadline=None)
    @given(stack=st.lists(LAYER_OPS, min_size=1, max_size=3))
    def test_layers_over_links_match_sequential_extraction(self, stack):
        # a base layer that makes every top-level name a link, so most later
        # members and whiteouts land where a link leads
        self.check_stack([[("sym", name, b"") for name in NAMES], *stack], files_only=True)


class TestMembersUnderLowerLinks:
    """A member or whiteout under a lower layer's directory link lands where
    the link leads, as containerd's applier puts it (continuity's RootPath)."""

    BASE = [("usr", "dir", None), ("usr/lib", "dir", None), ("usr/lib/libc.so.6", "file", b"c"),
            ("lib", "sym", "usr/lib"), ("abs", "sym", "/usr/lib"), ("up", "sym", "../../usr/./lib"),
            ("chain", "sym", "lib"), ("gone", "sym", "opt/none"), ("f", "file", b"f"),
            ("tofile", "sym", "f"), ("loop", "sym", "loop"), ("back", "sym", "missing/../lib"),
            ("spin", "sym", "missing/../spin")]

    def load(self, tmp_path, upper):
        layers = [make_tar(tmp_path / "l0.tar", self.BASE), make_tar(tmp_path / "l1.tar", upper)]
        fs, src = load_layers(layers)
        return layers, fs, src

    def test_merged_usr_member_and_whiteout(self, tmp_path):
        layers, fs, src = self.load(tmp_path, [("lib/libssl.so.3", "file", b"ssl"),
                                               ("lib/.wh.libc.so.6", "file", b"")])
        with src:
            assert sorted(p for p in fs.entries if p.startswith(("/lib", "/usr"))) == [
                "/lib", "/usr", "/usr/lib", "/usr/lib/libssl.so.3"]
            assert fs.entries["/lib"].kind == "symlink"
            assert check_parent_closure(fs) == []
            assert src.read("/lib/libssl.so.3") == b"ssl"
            assert fileset_inventory(fs) == sequential_extract_union(layers, tmp_path / "x")

    @pytest.mark.parametrize("upper, landed", [
        ([("abs/a", "file", b"a")], "/usr/lib/a"),
        ([("up/a", "file", b"a")], "/usr/lib/a"),
        ([("chain/a", "file", b"a")], "/usr/lib/a"),
        ([("lib/sub/a", "file", b"a")], "/usr/lib/sub/a"),
        ([("gone/a", "file", b"a")], "/opt/none/a"),
        ([("lib/.wh..wh..opq", "file", b""), ("lib/a", "file", b"a")], "/usr/lib/a"),
        ([("lib/a", "lnk", "abs/libc.so.6")], "/usr/lib/a"),
        ([("back/a", "file", b"a")], "/usr/lib/a"),
    ], ids=["absolute", "dotdot", "chain", "implied", "dangling", "opaque", "hardlink",
            "dotdot-out-of-missing"])
    def test_lands_where_the_link_leads(self, tmp_path, upper, landed):
        layers, fs, src = self.load(tmp_path, upper)
        with src:
            assert fs.entries[landed].kind == "regular"
            assert check_parent_closure(fs) == []
            assert fileset_inventory(fs) == sequential_extract_union(layers, tmp_path / "x")
            assert src.read(landed) == file_bytes(tmp_path / "x")[landed]

    @pytest.mark.parametrize("name, reason", [
        ("loop/a", "its directory is a symlink loop"),
        ("spin/a", "its directory is a symlink loop"),
        ("f/a", "its directory reaches /f, which is not a directory"),
        ("tofile/a", "its directory reaches /f, which is not a directory"),
        ("f/.wh.x", "its directory reaches /f, which is not a directory"),
        ("loop/.wh..wh..opq", "its directory is a symlink loop"),
    ], ids=["loop", "spin", "file", "link-to-file", "whiteout-under-file", "opaque-under-loop"])
    def test_a_member_no_runtime_can_apply_is_refused(self, tmp_path, caplog, name, reason):
        # containerd's apply fails with ELOOP or ENOTDIR here: the member, or the
        # whiteout, changes nothing in the union and is one warning
        _, fs, src = self.load(tmp_path, [(name, "file", b"")])
        src.close()
        assert "/" + name not in fs.entries
        assert fs == inventory(load_layers([make_tar(tmp_path / "base.tar", self.BASE)]))
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            f"layer 1: member /{name}: {reason}; refused"]
        assert check_parent_closure(fs) == []

    @pytest.mark.parametrize("name, landed, placed", [
        ("usr/new/deeper/a", "/usr/new/deeper/a", []),
        ("lib/new/deeper/a", "/usr/lib/new/deeper/a", ["/lib/new/deeper/a"]),
    ], ids=["plain-directory", "lower-link"])
    def test_a_member_under_missing_directories_is_placed_only_below_a_link(
            self, tmp_path, monkeypatch, name, landed, placed):
        calls, place = [], LayeredSource._place
        monkeypatch.setattr(LayeredSource, "_place",
                            lambda src, path: calls.append(path) or place(src, path))
        layers, fs, src = self.load(tmp_path, [(name, "file", b"a")])
        with src:
            assert calls == placed
            assert fs.entries[landed].kind == "regular" and src.read(landed) == b"a"
            assert fileset_inventory(fs) == sequential_extract_union(layers, tmp_path / "x")

    def load_over_a_file(self, tmp_path, member):
        """Layer 1's f/g/h under the file /f, a link over /f, then ``member``."""
        stack = [[("f", "file", b"f"), ("usr", "dir", None)], [("f/g/h", "file", b"h")],
                 [("f", "sym", "usr")], [(member, "file", b"m")]]
        return load_layers([make_tar(tmp_path / f"l{i}.tar", layer)
                            for i, layer in enumerate(stack)])

    def test_a_link_above_a_present_directory_still_places_the_member(self, tmp_path):
        # layer 1's f/g/h is refused, as /f is a file, so no /f/g is implied under
        # it: layer 3's member below the missing /f/g lands where the link leads
        fs, src = self.load_over_a_file(tmp_path, "f/g/x/y")
        with src:
            assert fs.entries["/usr/g/x/y"].kind == "regular" and "/f/g/x/y" not in fs.entries
            assert src.read("/f/g/x/y") == b"m"
            assert check_parent_closure(fs) == []

    def test_a_link_over_a_file_drops_what_was_kept_under_it(self, tmp_path):
        # nothing is kept under the file /f: layer 1's f/g/h is refused, the link
        # over /f leaves no /f/ name, and layer 3's member lands where it leads
        fs, src = self.load_over_a_file(tmp_path, "f/g/k")
        with src:
            assert fs.entries["/usr/g/k"].kind == "regular" and src.read("/f/g/k") == b"m"
            assert not [p for p in fs.entries if p.startswith(("/f/", "/usr/g/h"))]
            assert check_parent_closure(fs) == []


class TestRefusedMemberNames:
    @pytest.mark.parametrize("members, refused", [
        ([("ok.txt", "file", b"x"), ("../escape.txt", "file", b"e"),
          ("a/../../b.txt", "file", b"b")], ["../escape.txt", "a/../../b.txt"]),
        ([("a", "dir", None), ("a/../b.txt", "file", b"b")], ["a/../b.txt"]),
    ], ids=["escaping", "inside"])
    def test_each_is_one_warning_naming_it_and_its_layer(self, tmp_path, caplog, members,
                                                         refused):
        tar = make_tar(tmp_path / "t.tar", members)
        fs = inventory(load_layers([tar]))
        assert sorted(fs.entries) == ["/", "/" + members[0][0]]
        assert [r.getMessage() for r in caplog.records if r.levelname == "WARNING"] == [
            f"layer 0: member {name} has a '..' component; refused" for name in refused]


class TestFlatTarReplacesDirectory:
    def test_file_over_directory_drops_subtree(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [("d", "dir", None), ("d/x", "file", b"x"),
                                            ("d", "file", b"now a file")])
        fs, src = load_flat_tar(tar)
        with src:
            assert fileset_inventory(fs) == sequential_extract_union([tar], tmp_path / "x")
            assert check_parent_closure(fs) == []
            materialize(fs, src, tmp_path / "out.tar", fmt="tar")


class TestSymlinkReads:
    MEMBERS = [("etc", "dir", None), ("etc/real", "file", b"bytes"),
               ("etc/rel", "sym", "real"), ("etc/abs", "sym", "/etc/real"),
               ("lib", "sym", "etc"), ("up", "sym", "lib/../etc/rel"), ("abslib", "sym", "/etc"),
               ("etc/os-release", "file", b"image-os\n"), ("etc/link", "sym", "/etc/os-release"),
               ("etc/deep", "sym", "../../../../../../../../../../etc/os-release"),
               ("gone", "sym", "etc/missing"), ("loop", "sym", "loop2"), ("loop2", "sym", "loop")]
    # An absolute link, or a '..' chain longer than the path, names the
    # image's file and never the host's.
    READABLE = {"/etc/rel": b"bytes", "/etc/abs": b"bytes", "/lib/real": b"bytes",
                "/lib/rel": b"bytes", "/up": b"bytes", "/abslib/abs": b"bytes",
                "/etc/link": b"image-os\n", "/lib/deep": b"image-os\n"}

    def tree(self, tmp_path):
        return write_tree(tmp_path / "root", self.MEMBERS)

    def rootfs(self, tmp_path):
        return RootfsSource(self.tree(tmp_path))

    def test_links_resolve_through_the_union(self, tmp_path):
        fs, src = load_flat_tar(make_tar(tmp_path / "t.tar", self.MEMBERS))
        with src:
            for path, data in self.READABLE.items():
                assert src.read(path) == data, path

    def test_rootfs_links_resolve_inside_the_root(self, tmp_path):
        src = self.rootfs(tmp_path)
        for path, data in self.READABLE.items():
            assert src.read(path) == data, path

    def test_rootfs_and_flat_tar_of_one_tree_read_the_same(self, tmp_path):
        def outcome(source, path):
            try:
                return source.read(path)
            except MaterializeError:
                return MaterializeError

        rootfs = self.rootfs(tmp_path)
        with load_flat_tar(make_tar(tmp_path / "t.tar", self.MEMBERS))[1] as tar:
            for path in ["/", *("/" + name for name, _, _ in self.MEMBERS), *self.READABLE]:
                assert outcome(rootfs, path) == outcome(tar, path), path

    def test_link_into_a_lower_layer(self, tmp_path):
        l0 = make_tar(tmp_path / "l0.tar", self.MEMBERS[:2])
        l1 = make_tar(tmp_path / "l1.tar", [("link", "sym", "etc/real")])
        fs, src = load_layers([l0, l1])
        with src:
            assert src.read("/link") == b"bytes"

    @pytest.mark.parametrize("path,reason", [("/gone", "dangling symlink"),
                                             ("/loop", "symlink loop")])
    def test_dangling_or_looping_link_raises(self, tmp_path, path, reason):
        fs, src = load_flat_tar(make_tar(tmp_path / "t.tar", self.MEMBERS))
        with src:
            with pytest.raises(MaterializeError, match=reason):
                src.read(path)

    @pytest.mark.parametrize("path,reason", [("/gone", "dangling symlink"),
                                             ("/loop", "symlink loop")])
    def test_rootfs_dangling_or_looping_link_raises_as_a_tar_does(self, tmp_path, path, reason):
        with pytest.raises(MaterializeError, match=f"^cannot read {path}: {reason}$"):
            self.rootfs(tmp_path).read(path)

    @pytest.mark.parametrize("kind", ["dir", "tar"])
    def test_rootfs_mode_follows_directory_links_inside_the_root(self, tmp_path, kind):
        root = self.tree(tmp_path)
        os.chmod(root / "etc" / "real", 0o640)  # modes are read when the source opens
        if kind == "tar":
            with tarfile.open(tmp_path / "t.tar", "w") as tf:
                tf.add(root, arcname=".")
        _, src = load_rootfs(root) if kind == "dir" else load_flat_tar(tmp_path / "t.tar")
        with src:
            assert src.mode("/abslib/real") == 0o640
            assert src.mode("/abslib/rel") == src.mode("/etc/rel") != 0o640  # the link's own
            assert src.mode("/loop/real") is None


LINK_NAMES = st.sampled_from(["a", "b", "l"])
# Targets and queries also name "gone", which no tree holds, and a target may
# be empty (only a tar can hold that link).
LINK_STEPS = st.sampled_from(["a", "b", "l", "gone", "..", "."])
LINK_TARGETS = st.tuples(st.sampled_from(["", "/"]), st.lists(
    LINK_STEPS, max_size=4).map("/".join))
LINK_TREES = st.lists(st.tuples(
    st.lists(LINK_NAMES, min_size=1, max_size=3).map("/".join),
    st.sampled_from(["dir", "file", "sym"]), LINK_TARGETS.map("".join)), max_size=14)
LINK_QUERIES = st.lists(st.lists(st.sampled_from(["a", "b", "l", "gone"]), min_size=1,
                                 max_size=4).map(lambda names: "/" + "/".join(names)), max_size=8)


def link_tree(ops):
    """Members (name, kind, arg) from ops, each name once and under a
    directory, with the missing ancestors made directories: links to
    directories, relative and absolute targets, '..' after a link, loops and
    dangling links all occur. A file holds its name."""
    kinds, members = {"": "dir"}, []
    for name, kind, target in ops:
        parts = name.split("/")
        ancestors = ["/".join(parts[:i]) for i in range(1, len(parts))]
        if name in kinds or any(kinds.get(a, "dir") != "dir" for a in ancestors):
            continue
        for a in ancestors:
            if a not in kinds:
                kinds[a] = "dir"
                members.append((a, "dir", None))
        kinds[name] = kind
        members.append((name, kind, name.encode() if kind == "file" else target))
    return members


def link_fileset(members):
    """The FileSet of link_tree members under '/'."""
    kinds = {"dir": "directory", "file": "regular", "sym": "symlink"}
    return FileSet([FileEntry("/", "directory"), *(
        FileEntry("/" + name, kinds[kind], len(arg) if kind == "file" else 0,
                  arg if kind == "sym" else None) for name, kind, arg in members)])


def link_queries(members, queries):
    """queries, every member's path, and each member's name spelled under each
    link and under each file (a name under a file reaches nothing)."""
    names = {name.rsplit("/", 1)[-1] for name, _, _ in members}
    return [*queries, *("/" + name for name, _, _ in members),
            *(f"/{under}/{name}" for under, kind, _ in members if kind in ("sym", "file")
              for name in names)]


def outcome(call, *args):
    try:
        return call(*args)
    except (MaterializeError, ResolveLoop):
        return "loop or unreadable"


def lookup_oracle(path, entries):
    """lstat(2) by resolve_oracle: the directory part resolved, the last name
    kept; path itself when it is an entry, or when that part loops or reaches
    no directory."""
    directory = outcome(resolve_oracle, posixpath.dirname(path), entries)
    if path in entries or getattr(entries.get(directory), "kind", None) != "directory":
        return path
    return posixpath.join(directory, posixpath.basename(path))


class TestOneResolver:
    @settings(max_examples=150, deadline=None)
    @given(ops=LINK_TREES, queries=LINK_QUERIES)
    def test_resolve_and_lookup_match_path_resolution(self, ops, queries):
        members = link_tree(ops)
        fs = link_fileset(members)
        for path in ["/", *link_queries(members, queries)]:
            crossed, expected_crossed = [], []
            assert outcome(fs.resolve, path, crossed) == \
                outcome(resolve_oracle, path, fs.entries, expected_crossed), path
            assert crossed == expected_crossed, path
            assert fs.lookup(path) == lookup_oracle(path, fs.entries), path

    @settings(max_examples=40, deadline=None)
    @given(ops=LINK_TREES, queries=LINK_QUERIES)
    def test_reads_and_modes_follow_the_oracle_on_a_rootfs_and_a_tar(self, ops, queries):
        # A rootfs cannot hold a link with an empty target (symlink(2) refuses it).
        members = [m for m in link_tree(ops) if m[1:] != ("sym", "")]
        fs = link_fileset(members)
        with tempfile.TemporaryDirectory() as tmp:
            root = write_tree(pathlib.Path(tmp) / "root", members)
            loaded, tar = load_flat_tar(make_tar(pathlib.Path(tmp) / "t.tar", members))
            assert loaded == fs
            with tar:
                for src in (RootfsSource(root), tar):
                    modes = {p: src.mode(p) for p in fs.entries}
                    for path in link_queries(members, queries):
                        end = outcome(resolve_oracle, path, fs.entries)
                        kind = getattr(fs.entries.get(end), "kind", None)
                        assert outcome(src.read, path) == (
                            end[1:].encode() if kind == "regular" else "loop or unreadable")
                        assert src.mode(path) == modes.get(lookup_oracle(path, fs.entries)), path


class TestKernelFailures:
    """Where path_resolution(7) fails, reads and the closure reach nothing: a
    missing component (ENOENT), a non-directory before the last one (ENOTDIR),
    an empty link target. Each case runs on a rootfs and on two layer tars."""

    # The base layer, then the links layer.
    PROBE = ([("usr", "dir", None), ("usr/lib", "dir", None), ("usr/lib/f", "file", b"lib-f")],
             [("lib", "sym", "gone/../usr/lib"), ("viafile", "sym", "usr/lib/f/../f")])

    def load(self, tmp_path, kind, layers):
        if kind == "layers":
            return load_layers([make_tar(tmp_path / f"l{i}.tar", members)
                                for i, members in enumerate(layers)])
        return load_rootfs(write_tree(tmp_path / "root", [m for ms in layers for m in ms]))

    @pytest.mark.parametrize("kind", ["rootfs", "layers"])
    def test_reads_stop_at_a_missing_or_non_directory_component(self, tmp_path, kind):
        fs, src = self.load(tmp_path, kind, self.PROBE)
        with src:
            assert src.read("/usr/lib/f") == b"lib-f"
            with pytest.raises(MaterializeError,
                               match="^cannot read /lib/f: not present in the image$"):
                src.read("/lib/f")
            with pytest.raises(MaterializeError, match="^cannot read /viafile: dangling symlink$"):
                src.read("/viafile")
            assert src.mode("/lib/f") is None
        assert fs.resolve("/lib/f") is None and fs.lookup("/lib/f") == "/lib/f"

    @pytest.mark.parametrize("kind", ["rootfs", "layers"])
    def test_closure_counts_the_path_missing_and_keeps_the_links(self, tmp_path, kind, caplog):
        fs, src = self.load(tmp_path, kind, self.PROBE)
        src.close()
        retained = compute_retained(fs, AccessSet(frozenset({"/lib/f", "/viafile"})))
        assert set(retained.entries) == {"/", "/lib", "/viafile"}
        assert "1 accessed paths are not in the filesystem (runtime files?); " \
               "first missing path: '/lib/f'" in caplog.text

    def test_an_empty_link_target_reaches_nothing(self, tmp_path):
        # Only a tar can hold the link: symlink(2) refuses an empty target.
        fs, src = self.load(tmp_path, "layers", ([("x", "dir", None), ("x/f", "file", b"x-f")],
                                                 [("x/empty", "sym", "")]))
        with src:
            assert fs["/x/empty"].link_target == ""
            with pytest.raises(MaterializeError, match="not present in the image"):
                src.read("/x/empty/f")
            with pytest.raises(MaterializeError, match="dangling symlink"):
                src.read("/x/empty")
        assert fs.lookup("/x/empty/f") == "/x/empty/f"
        retained = compute_retained(fs, AccessSet(frozenset({"/x/empty/f"})))
        assert set(retained.entries) == {"/", "/x", "/x/empty"}


# Kernel oracle trees: a name's kind is fixed by the name, so a generated
# relative target can be checked never to climb above the root, where the
# host would leave the rootfs and the image stops at '/'.
KERNEL_KINDS = {"d": "dir", "e": "dir", "f": "file", "l": "sym", "m": "sym"}
KERNEL_STEPS = st.sampled_from([*KERNEL_KINDS, "gone", "..", "."])
KERNEL_TREES = st.lists(st.tuples(
    st.lists(st.sampled_from(sorted(KERNEL_KINDS)), min_size=1, max_size=3),
    st.lists(KERNEL_STEPS, min_size=1, max_size=5)), max_size=14)
KERNEL_QUERIES = st.lists(st.lists(st.sampled_from([*KERNEL_KINDS, "gone", "."]),
                                   min_size=1, max_size=4), max_size=8)


def stays_in_root(steps, depth):
    """Whether a relative target of these steps, read in a directory ``depth``
    levels below the root, never climbs above the root: a link may lead to
    the root, so after one only the names after it may be climbed back."""
    for step in steps:
        if step == "..":
            if depth == 0:
                return False
            depth -= 1
        elif KERNEL_KINDS.get(step) == "sym":
            depth = 0
        elif step != ".":
            depth += 1
    return True


def kernel_tree(ops):
    """Members (name, kind, arg) under directories, each name once; a link
    whose target could climb above the root is left out."""
    seen, members = set(), []
    for parts, steps in ops:
        name, kind = "/".join(parts), KERNEL_KINDS[parts[-1]]
        if name in seen or any(KERNEL_KINDS[p] != "dir" for p in parts[:-1]) or (
                kind == "sym" and not stays_in_root(steps, len(parts) - 1)):
            continue
        for i in range(1, len(parts)):
            if "/".join(parts[:i]) not in seen:
                seen.add("/".join(parts[:i]))
                members.append(("/".join(parts[:i]), "dir", None))
        seen.add(name)
        members.append((name, kind, {"dir": None, "file": name.encode(),
                                     "sym": "/".join(steps)}[kind]))
    return members


class TestKernelOracle:
    """The host kernel as an oracle written independently of this code: on a
    rootfs, RootfsSource.read(p) returns what open(root + p) reads, and fails
    exactly when that open fails."""

    REASONS = {"ENOENT": ("not present in the image", "dangling symlink"),
               "ENOTDIR": ("not present in the image", "dangling symlink"),
               "ELOOP": ("symlink loop",), "EISDIR": ("not a regular file",)}

    @settings(max_examples=60, deadline=None)
    @given(ops=KERNEL_TREES, queries=KERNEL_QUERIES)
    def test_rootfs_reads_what_the_kernel_opens(self, ops, queries):
        members = kernel_tree(ops)
        with tempfile.TemporaryDirectory() as tmp:
            root = str(write_tree(pathlib.Path(tmp) / "root", members))
            src = RootfsSource(root)
            assert_records_pass_the_checks(src.fs)
            names = {name.rsplit("/", 1)[-1] for name, _, _ in members}
            # Each member, each name under each, '.' after each, and '..' after each but
            # a link (which may lead to the root, where '..' would leave the rootfs).
            paths = ["/" + "/".join(q) for q in queries] + [
                f"/{under}{name}" for under, _, _ in members
                for name in ["", *(f"/{n}" for n in names), "/."]] + [
                f"/{under}/.." for under, kind, _ in members if kind != "sym"]
            for path in paths:
                try:
                    with open(root + path, "rb") as f:
                        expected = f.read()
                except OSError as exc:
                    expected = errno.errorcode[exc.errno]
                try:
                    assert src.read(path) == expected, path
                except MaterializeError as exc:
                    assert str(exc).rsplit(": ", 1)[1] in self.REASONS[expected], path


SEGMENTS = st.sampled_from(["a", "b", "caf\u00e9", "\u65e5\u672c", "x" * 60, "\u00fc" * 40])
MEMBER_OPS = st.lists(st.tuples(
    st.lists(SEGMENTS, min_size=1, max_size=4).map("/".join),
    st.sampled_from(("file", "dir", "sym", "lnk", "fifo")),
    st.binary(max_size=40),
    st.integers(0, 0o7777),
), max_size=10)


def write_tar(path, ops, fmt):
    """Write ops with tarfile in one format: each path once, no member below
    a non-directory, hardlinks to earlier regular files; members the format
    cannot hold (long names in ustar) are left out."""
    kinds = {}
    with tarfile.open(path, "w", format=fmt) as tf:
        for name, kind, data, mode in ops:
            parts = name.split("/")
            if name in kinds or any(kinds.get("/".join(parts[:i]), "dir") != "dir"
                                    for i in range(1, len(parts))) \
                    or (kind != "dir" and any(k.startswith(name + "/") for k in kinds)):
                continue
            info = tarfile.TarInfo(name)
            info.mode = mode
            info.type = {"file": tarfile.REGTYPE, "dir": tarfile.DIRTYPE, "sym": tarfile.SYMTYPE,
                         "lnk": tarfile.LNKTYPE, "fifo": tarfile.FIFOTYPE}[kind]
            if kind == "sym":
                info.linkname = "caf\u00e9/" * (3 * len(data)) + "t"
            elif kind == "lnk":
                files = [k for k, v in kinds.items() if v == "file"]
                if not files:
                    continue
                info.linkname = files[len(data) % len(files)]
            elif kind == "file":
                info.size = len(data)
            try:
                tf.addfile(info, io.BytesIO(data) if kind == "file" else None)
            except ValueError:  # a name or link name ustar cannot store
                continue
            kinds[name] = kind
    return path


class TestHeaderReaderAgainstTarfile:
    @settings(max_examples=80, deadline=None)
    @given(ops=MEMBER_OPS,
           fmt=st.sampled_from((tarfile.USTAR_FORMAT, tarfile.GNU_FORMAT, tarfile.PAX_FORMAT)))
    def test_inventory_modes_and_bytes_match(self, ops, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            tar = write_tar(pathlib.Path(tmp) / "t.tar", ops, fmt)
            inventory, modes, data = tarfile_contents(tar)
            fs, src = load_flat_tar(tar)
            with src:
                assert fileset_inventory(fs) == inventory
                assert {p: src.mode(p) for p in fs.entries} == modes
                assert {p: src.read(p) for p in data} == data


# Byte ranges of the ustar header fields the hand-made cases change.
FIELDS = {"mode_field": (100, 8), "size_field": (124, 12), "type": (156, 1),
          "prefix": (345, 155)}


def header(name, size=0, signed=False, chksum=lambda total: b"%06o\0 " % total, **fields):
    """A ustar header block for a regular member, with raw field overrides
    and its checksum recomputed (as a signed-char sum if signed) and
    spelled by ``chksum``."""
    info = tarfile.TarInfo(name)
    info.size = size
    buf = bytearray(info.tobuf(tarfile.USTAR_FORMAT))
    for field, value in fields.items():
        start, length = FIELDS[field]
        buf[start:start + length] = value.ljust(length, b"\0")
    buf[148:156] = b" " * 8
    buf[148:156] = chksum(sum(struct.unpack("512b" if signed else "512B", buf)))
    return bytes(buf)


def data_blocks(data):
    return data + b"\0" * (-len(data) % 512)


def write_blocks(path, *blocks):
    path.write_bytes(b"".join(blocks) + b"\0" * 1024)
    return path


class TestHandMadeHeaders:
    def test_base256_size(self, tmp_path):
        tar = write_blocks(tmp_path / "t.tar",
                           header("big", 5, size_field=b"\x80" + (5).to_bytes(11, "big")),
                           data_blocks(b"hello"))
        fs, src = load_flat_tar(tar)
        with src:
            assert fs.entries["/big"].size == 5 and src.read("/big") == b"hello"

    def test_signed_sum_checksum(self, tmp_path):
        block = header("caf\u00e9", 2, signed=True)
        assert sum(block[:148] + block[156:]) + 256 != int(block[148:154], 8)
        fs, src = load_flat_tar(write_blocks(tmp_path / "t.tar", block, data_blocks(b"ok")))
        with src:
            assert src.read("/caf\u00e9") == b"ok"

    def test_v7_directory_with_trailing_slash(self, tmp_path):
        tar = write_blocks(tmp_path / "t.tar", header("old/", 0, type=b"\0"),
                           header("old/f", 1), data_blocks(b"f"))
        fs = inventory(load_flat_tar(tar))
        assert fs.entries["/old"].kind == "directory" and fs.entries["/old/f"].size == 1

    def test_ustar_prefix_joins_the_name(self, tmp_path):
        tar = write_blocks(tmp_path / "t.tar", header("leaf", 1, prefix=b"some/prefix"),
                           data_blocks(b"1"))
        fs, src = load_flat_tar(tar)
        with src:
            assert src.read("/some/prefix/leaf") == b"1"

    def test_directory_with_nonzero_size_has_no_data(self, tmp_path):
        tar = write_blocks(tmp_path / "t.tar", header("d", 1024, type=b"5"),
                           header("after", 3), data_blocks(b"abc"))
        fs, src = load_flat_tar(tar)
        with src:
            assert fs.entries["/d"].kind == "directory" and src.read("/after") == b"abc"

    def test_truncated_data_names_its_header(self, tmp_path):
        tar = tmp_path / "t.tar"
        tar.write_bytes(header("ok", 1) + data_blocks(b"1") + header("cut", 1000) + b"x" * 512)
        with pytest.raises(IngestError, match=r"^flat tar: .* offset 1024: unexpected end of data"):
            load_flat_tar(tar)

    def test_malformed_pax_record_names_its_header(self, tmp_path):
        tar = write_blocks(tmp_path / "t.tar", header("ok", 1), data_blocks(b"1"),
                           header("pax", 10, type=b"x"), data_blocks(b"99 path=x\n"),
                           header("f", 0))
        with pytest.raises(IngestError, match=r"offset 1024: .*malformed pax record"):
            load_flat_tar(tar)

    @pytest.mark.parametrize("tail", [b"\0" * 512 + b"junk", b"junk"],
                             ids=["after-end-block", "instead-of-end-block"])
    def test_data_after_the_end_of_archive(self, tmp_path, tail):
        tar = tmp_path / "t.tar"
        tar.write_bytes(header("ok", 1) + data_blocks(b"1") + tail)
        with pytest.raises(IngestError, match=r"offset 1024: data after the end-of-archive"):
            load_flat_tar(tar)

    def test_global_pax_records_apply_to_every_member(self, tmp_path):
        info = [tarfile.TarInfo(name) for name in ("l1", "l2")]
        for i in info:
            i.type, i.linkname = tarfile.SYMTYPE, "short"
        with tarfile.open(tmp_path / "t.tar", "w", format=tarfile.PAX_FORMAT,
                          pax_headers={"linkpath": "shared/" + "t" * 120}) as tf:
            for i in info:
                tf.addfile(i)
        fs = inventory(load_flat_tar(tmp_path / "t.tar"))
        assert fileset_inventory(fs) == tarfile_contents(tmp_path / "t.tar")[0]
        assert fs.entries["/l2"].link_target == "shared/" + "t" * 120

    def test_gnu_sparse_member_is_rejected(self, tmp_path):
        tar = write_blocks(tmp_path / "t.tar", header("ok", 0), header("holes", 0, type=b"S"))
        with pytest.raises(IngestError, match=r"^flat tar: sparse member 'holes' at byte offset 512"):
            load_flat_tar(tar)

    def test_pax_sparse_member_is_rejected(self, tmp_path):
        info = tarfile.TarInfo("GNUSparseFile.0/holes")
        info.pax_headers = {"GNU.sparse.major": "1", "GNU.sparse.minor": "0",
                            "GNU.sparse.name": "holes", "GNU.sparse.realsize": "4096"}
        with tarfile.open(tmp_path / "t.tar", "w", format=tarfile.PAX_FORMAT) as tf:
            tf.addfile(info, io.BytesIO())
        with pytest.raises(IngestError, match=r"^flat tar: sparse member 'holes' at byte offset 0"):
            load_flat_tar(tmp_path / "t.tar")


NUMBER_FORMS = ("nul", "nul-space", "spaces", "leading-spaces", "all-nul", "all-space",
                "nul-garbage", "signed", "base256", "junk")


def number_field(form, value, width, junk):
    """``width`` bytes spelling value as a tar number field in one form, some
    of which (all-NUL, all-space, junk) stand for another value or none."""
    digits = b"%o" % abs(value)
    raw = {"nul": digits.rjust(width - 1, b"0") + b"\0",
           "nul-space": digits.rjust(width - 2, b"0") + b"\0 ",
           "spaces": digits.ljust(width, b" "),
           "leading-spaces": (digits + b"\0").rjust(width, b" "),
           "all-nul": b"\0" * width, "all-space": b" " * width,
           "nul-garbage": digits + b"\0" + junk,
           "signed": (b"-" if value < 0 else b"+") + digits + b"\0",
           "base256": b"\x80" + value.to_bytes(width - 1, "big") if value >= 0 else
           value.to_bytes(width, "big", signed=True),
           "junk": junk}[form]
    return raw[:width].ljust(width, b"\0")


def number_reads(block):
    """(mode, size) of a member header as ``_number`` reads its fields, or the
    reason an ingest of it must give, in the order the checks come: the
    checksum field, the checksum against the unsigned and signed byte sums,
    then mode and size."""
    try:
        total = imagefs._number(block[148:156])
        if total not in (sum(block[:148] + block[156:]) + 256,
                         sum(struct.unpack("148b8x356b", block)) + 256):
            return "bad checksum"
        return imagefs._number(block[100:108]), imagefs._number(block[124:136])
    except ValueError as exc:
        return f"invalid header: {exc}"


class TestNumberFields:
    @settings(max_examples=300, deadline=None)
    @given(forms=st.tuples(*[st.sampled_from(NUMBER_FORMS)] * 3), mode=st.integers(-9, 0o7777),
           size=st.integers(-9, 600), junk=st.binary(max_size=12), signed=st.booleans())
    def test_chksum_mode_and_size_read_as_number_reads_them(self, forms, mode, size, junk,
                                                            signed):
        block = header("m", signed=signed,
                       chksum=lambda total: number_field(forms[0], total, 8, junk),
                       mode_field=number_field(forms[1], mode, 8, junk),
                       size_field=number_field(forms[2], size, 12, junk))
        expected = number_reads(block)
        if isinstance(expected, tuple) and not 0 <= expected[1] <= 4096:
            expected = "unexpected end of data"
        data = b"d" * expected[1] if isinstance(expected, tuple) else b""
        tar = io.BytesIO(block + data_blocks(data) + b"\0" * 1024)
        if isinstance(expected, str):
            with pytest.raises(IngestError) as caught:
                load_flat_tar(tar)
            assert str(caught.value) == f"flat tar: malformed tar at byte offset 0: " \
                                        f"cannot open: {expected}"
            return
        fs, src = load_flat_tar(tar)
        with src:
            assert (src.mode("/m"), fs.entries["/m"].size) == expected
            assert src.read("/m") == data


class TestStreamedWalk:
    @staticmethod
    def assert_walk_holds_no_member_list(load):
        blocks = [header(f"d{i % 5}/f{i}", 0) for i in range(50)]
        data = io.BytesIO(b"".join(blocks * 400) + b"\0" * 1024)  # 20,000 members
        tracemalloc.start()
        try:
            fs, src = load(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        src.close()
        assert len(fs) == 1 + 5 + 50
        assert peak < 1 << 20, f"peak {peak} bytes"

    def test_flat_tar_walk_holds_no_member_list(self):
        self.assert_walk_holds_no_member_list(load_flat_tar)

    def test_layer_walk_holds_no_member_list(self):
        self.assert_walk_holds_no_member_list(lambda data: load_layers([data]))

    def test_layer_stack_peak_stays_near_its_table(self):
        # Every layer rewrites the same 2,000 files; layer 1 whites out half of
        # what layer 0 put beside them, and layer 2 makes a directory opaque. A
        # per-layer member list or a second per-path table would take the peak
        # past twice what the final table holds.
        def layer(i):
            blocks = [header(f"d{k % 20}/f{k}", 0) for k in range(2000)]
            blocks += {0: [header(f"e/f{k}", 0) for k in range(200)],
                       1: [header(f"e/.wh.f{k}", 0) for k in range(0, 200, 2)],
                       2: [header("d3/.wh..wh..opq", 0)]}.get(i, [])
            return io.BytesIO(b"".join(blocks) + b"\0" * 1024)

        layers = [layer(i) for i in range(4)]
        tracemalloc.start()
        try:
            fs, src = load_layers(layers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        src.close()
        assert len(fs) == 1 + 20 + 2000 + 1 + 100
        table = sys.getsizeof(dict(fs.entries)) + sum(
            sys.getsizeof(path) + sys.getsizeof(entry) + sys.getsizeof(entry.where)
            for path, entry in fs.entries.items())
        assert peak < 2 * table, f"peak {peak} bytes, table {table} bytes"

    @pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
    def test_truncated_member_after_good_ones_closes_every_file(self, tmp_path, monkeypatch, gz):
        temps, real = [], tempfile.TemporaryFile

        def recorded(*args, **kwargs):
            temps.append(real(*args, **kwargs))
            return temps[-1]

        monkeypatch.setattr(tempfile, "TemporaryFile", recorded)
        good = b"".join(header(f"f{i}", 512) + data_blocks(b"x" * 512) for i in range(5))
        tar = good + header("cut", 1000) + b"x" * 512
        lower = tmp_path / "lower"
        lower.write_bytes(gzip.compress(good + b"\0" * 1024))
        bad = tmp_path / "bad"
        bad.write_bytes(gzip.compress(tar) if gz else tar)
        for label, load in [("flat tar", lambda: load_flat_tar(bad)),
                            ("layer 1", lambda: load_layers([lower, bad]))]:
            with pytest.raises(IngestError) as err:
                load()
            assert str(err.value) == (
                f"{label}: malformed tar header at byte offset 5120: unexpected end of data")
        gc.collect()  # an unclosed file would now warn, which fails the suite
        assert temps and all(t.closed for t in temps)
