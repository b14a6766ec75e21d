import errno
import io
import lzma
import os
import pathlib
import struct
import tarfile
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloatlens import imagefs
from bloatlens.debloat import materialize
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

from oracles import (
    file_bytes,
    fileset_inventory,
    sequential_extract_union,
    tarfile_contents,
    walk_inventory,
)


def inventory(loaded):
    """The FileSet of a tar loader's (FileSet, source) pair; closes the source."""
    fs, source = loaded
    source.close()
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
        fs = load_rootfs(tmp_path)
        assert set(fs.entries) == {"/"}
        assert fs.entries["/"].kind == "directory"
        assert fs.origin == "rootfs-dir"

    def test_small_tree_matches_independent_walk(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "a" / "b.txt").write_bytes(b"12345")
        fs = load_rootfs(tmp_path)
        assert set(fs.entries) == {"/", "/a", "/a/b.txt"}
        assert fs.entries["/a/b.txt"].kind == "regular"
        assert fs.entries["/a/b.txt"].size == 5
        assert fileset_inventory(fs) == walk_inventory(tmp_path)

    def test_symlink_recorded_not_followed(self, tmp_path):
        (tmp_path / "y").write_bytes(b"abc")
        os.symlink("y", tmp_path / "x")
        fs = load_rootfs(tmp_path)
        assert fs.entries["/x"].kind == "symlink"
        assert fs.entries["/x"].link_target == "y"
        assert fs.entries["/x"].size == 0

    def test_missing_root_raises(self, tmp_path):
        with pytest.raises(IngestError):
            load_rootfs(tmp_path / "nope")

    def test_special_file_degrades_to_other(self, tmp_path):
        os.mkfifo(tmp_path / "pipe")
        fs = load_rootfs(tmp_path)
        assert fs.entries["/pipe"].kind == "other"
        assert fs.entries["/pipe"].size == 0

    def test_parent_closure_holds(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)
        assert check_parent_closure(fs) == []

    def test_mini_rootfs_matches_walk_oracle(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)
        assert fileset_inventory(fs) == walk_inventory(mini_rootfs)


class TestLoadFlatTar:
    def test_basic_members(self, tmp_path):
        tar = make_tar(tmp_path / "t.tar", [
            ("etc", "dir", None),
            ("etc/a", "file", b"hello"),
            ("etc/l", "sym", "a"),
        ])
        fs = inventory(load_flat_tar(tar))
        assert fs.origin == "flat-tar"
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
        l2 = make_tar(tmp_path / "l2.tar", [
            ("cfg/.wh..wh..opq", "file", b""),
            ("cfg/new", "file", b"new"),
        ])
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
        l2 = make_tar(tmp_path / "l2.tar", [(".wh.a", "file", b""), ("a", "file", b"n")])
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
        fs = FileSet({"/": FileEntry("/", "directory")}, "rootfs-dir")
        assert total_size(fs) == 0

    def test_only_regular_files_count(self):
        fs = FileSet([
            FileEntry("/", "directory"),
            FileEntry("/a", "regular", 5),
            FileEntry("/b", "regular", 7),
            FileEntry("/l", "symlink", 0, "a"),
            FileEntry("/d", "directory"),
        ], "rootfs-dir")
        assert total_size(fs) == 12

    def test_matches_shell_style_walk(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)
        oracle = sum(size for kind, size, _ in walk_inventory(mini_rootfs).values()
                     if kind == "regular")
        assert total_size(fs) == oracle

    def test_additive_over_disjoint_subsets(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)
        under_usr = {p: e for p, e in fs.entries.items() if p.startswith("/usr")}
        rest = {p: e for p, e in fs.entries.items() if not p.startswith("/usr")}
        part1 = FileSet(under_usr, fs.origin)
        part2 = FileSet(rest, fs.origin)
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
    def test_equality_ignores_origin(self):
        a = FileSet({"/": FileEntry("/", "directory")}, "rootfs-dir")
        b = FileSet({"/": FileEntry("/", "directory")}, "layered")
        assert a == b

    def test_duplicate_paths_rejected(self):
        with pytest.raises(ValueError):
            FileSet([FileEntry("/", "directory"), FileEntry("/", "directory")], "x")

    def test_immutable(self):
        fs = FileSet({"/": FileEntry("/", "directory")}, "rootfs-dir")
        with pytest.raises((AttributeError, TypeError)):
            fs.origin = "other"
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


NAMES = ("a", "b", "c")
LAYER_OPS = st.lists(st.tuples(
    st.sampled_from(("file", "dir", "sym", "lnk", "wh", "opq")),
    st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map("/".join),
    st.binary(max_size=6),
), max_size=8)


def compile_layer(ops):
    """make_tar members for one layer, valid the way container tools write
    them: each path once, its ancestors first as directory members, and
    hardlinks only to regular files earlier in the same tar."""
    members, kinds = [], {}

    def place(path, kind, arg):
        parts = path.split("/")
        ancestors = ["/".join(parts[:i]) for i in range(1, len(parts))]
        if path in kinds or any(kinds.get(a, "dir") != "dir" for a in ancestors):
            return
        for a in ancestors:
            if a not in kinds:
                kinds[a] = "dir"
                members.append((a, "dir", None))
        kinds[path] = kind
        members.append((path, kind, arg))

    for op, path, data in ops:
        head, _, base = path.rpartition("/")
        prefix = head + "/" if head else ""
        if op == "wh":
            place(f"{prefix}.wh.{base}", "file", b"")
        elif op == "opq":
            place(f"{prefix}.wh..wh..opq", "file", b"")
        elif op == "lnk":
            files = [p for p, k in kinds.items() if k == "file" and ".wh." not in p]
            if files:
                place(path, "lnk", files[len(data) % len(files)])
        else:
            place(path, op, {"file": data, "dir": None, "sym": "x/" + base}[op])
    return members


class TestLayeredUnionOracle:
    @settings(max_examples=60, deadline=None)
    @given(stack=st.lists(LAYER_OPS, min_size=1, max_size=4))
    def test_union_and_reads_match_sequential_extraction(self, stack):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            layers = [make_tar(tmp / f"l{i}.tar", compile_layer(ops))
                      for i, ops in enumerate(stack)]
            fs, src = load_layers(layers)
            with src:
                oracle = sequential_extract_union(layers, tmp / "scratch")
                assert fileset_inventory(fs) == oracle
                regular = {p for p, e in fs.entries.items() if e.kind == "regular"}
                assert {p: src.read(p) for p in regular} == file_bytes(tmp / "scratch")


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
               ("lib", "sym", "etc"), ("up", "sym", "lib/../etc/rel"),
               ("gone", "sym", "etc/missing"), ("loop", "sym", "loop2"), ("loop2", "sym", "loop")]

    def test_links_resolve_through_the_union(self, tmp_path):
        fs, src = load_flat_tar(make_tar(tmp_path / "t.tar", self.MEMBERS))
        with src:
            for path in ("/etc/rel", "/etc/abs", "/lib/real", "/lib/rel", "/up"):
                assert src.read(path) == b"bytes", path

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
FIELDS = {"size_field": (124, 12), "type": (156, 1), "prefix": (345, 155)}


def header(name, size=0, signed=False, **fields):
    """A ustar header block for a regular member, with raw field overrides
    and its checksum recomputed (as a signed-char sum if signed)."""
    info = tarfile.TarInfo(name)
    info.size = size
    buf = bytearray(info.tobuf(tarfile.USTAR_FORMAT))
    for field, value in fields.items():
        start, length = FIELDS[field]
        buf[start:start + length] = value.ljust(length, b"\0")
    buf[148:156] = b" " * 8
    buf[148:156] = b"%06o\0 " % sum(struct.unpack("512b" if signed else "512B", buf))
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
