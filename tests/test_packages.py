import json
import logging
import os
import tarfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloatlens import imagefs
from bloatlens.errors import MaterializeError
from bloatlens.imagefs import FileEntry, FileSet, RootfsSource, load_flat_tar, load_rootfs
from bloatlens.packages import (
    APT,
    CONDA,
    GENERIC,
    MANAGER_PRIORITY,
    ML,
    PIP,
    PackageRecord,
    build_owner_index,
    canonical_pip_name,
    category_breakdown,
    classify_functionality,
    detect_packages,
    load_rules,
    package_bloat,
    package_bloat_degree,
    quartile_summary,
    size_reduction_R,
)
from bloatlens.packages import _dpkg_list_paths, _metadata_fields

from oracles import functionality_oracle, metadata_oracle


def fs_from(entries):
    return FileSet({e.path: e for e in entries})


def pkg(manager=APT, name="p", version="1", files=(), size=0, **kw):
    return PackageRecord(manager=manager, name=name, version=version,
                         files=frozenset(files), size=size, **kw)


class TestCanonicalName:
    def test_pep503_rule(self):
        assert canonical_pip_name("Widget-Tools") == "widget-tools"
        assert canonical_pip_name("A__b--c..d") == "a-b-c-d"
        assert canonical_pip_name("numpy_lite") == "numpy-lite"


class TestDetectPackages:
    def test_mini_container_catalog(self, mini_rootfs):
        fs, source = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, source)
        by_key = {(r.manager, r.name): r for r in catalog}
        assert set(by_key) == {
            (APT, "liba"), (APT, "libb"),
            (PIP, "widget-tools"), (PIP, "numpy-lite"),
            (CONDA, "condapkg"),
        }

        liba = by_key[(APT, "liba")]
        assert liba.version == "1.0"
        assert liba.size == 120 + 50 + 40
        assert "/usr/lib/liba/liba.so" in liba.files
        assert ("virtual-b",) in liba.declared_deps
        assert ("nosuchpkg", "libb") in liba.declared_deps

        libb = by_key[(APT, "libb")]
        assert libb.provides == ("virtual-b",)
        assert libb.size == 200  # file list under the :amd64 naming variant

        wt = by_key[(PIP, "widget-tools")]
        assert wt.version == "1.2.0"
        assert ("numpy-lite",) in wt.declared_deps
        assert ("missing-dep",) in wt.declared_deps
        assert "/opt/pyhome/bin/widget-cli" in wt.files  # ../ RECORD entry
        assert "/opt/pyhome/site-packages/widget_tools/__init__.py" in wt.files

        conda = by_key[(CONDA, "condapkg")]
        assert conda.version == "3.1"
        assert "/opt/conda/lib/libconda.so" in conda.files
        assert conda.declared_deps == (("libother",),)

    def test_not_installed_status_skipped(self, mini_rootfs):
        fs, source = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, source)
        assert all(r.name != "libz" for r in catalog)

    def test_missing_dpkg_database_is_not_an_error(self, tmp_path):
        (tmp_path / "only").mkdir()
        fs, source = load_rootfs(tmp_path)
        assert detect_packages(fs, source) == []

    def test_malformed_stanza_skipped(self, tmp_path):
        dbdir = tmp_path / "var" / "lib" / "dpkg"
        dbdir.mkdir(parents=True)
        (dbdir / "status").write_text(
            "Package: broken\nStatus: install ok installed\n\n"  # no Version
            "Package: fine\nStatus: install ok installed\nVersion: 1\n"
        )
        fs, source = load_rootfs(tmp_path)
        catalog = detect_packages(fs, source)
        assert [r.name for r in catalog] == ["fine"]

    def test_listed_files_are_taken_through_directory_links(self, tmp_path):
        lib = tmp_path / "usr" / "lib"
        lib.mkdir(parents=True)
        (lib / "libc.so.6").write_bytes(b"x" * 30)
        (lib / "libc.so").symlink_to("libc.so.6")
        (tmp_path / "lib").symlink_to("usr/lib")
        dbdir = tmp_path / "var" / "lib" / "dpkg"
        (dbdir / "info").mkdir(parents=True)
        (dbdir / "status").write_text("Package: libc6\nStatus: install ok installed\nVersion: 1\n")
        (dbdir / "info" / "libc6.list").write_text(
            "/lib\n/lib/libc.so.6\n/usr/lib/libc.so.6\n/lib/libc.so\n/lib/gone\n")
        [rec] = detect_packages(*load_rootfs(tmp_path))
        # Two spellings of libc.so.6 name one entry; a link the path ends in stays.
        assert rec.files == {"/lib", "/usr/lib/libc.so.6", "/usr/lib/libc.so", "/usr/lib/gone"}
        assert rec.size == 30

    @pytest.mark.parametrize("target,names", [("status.real", ["fine"]), ("gone", [])])
    def test_symlinked_status_reads_alike_from_dir_and_tar(self, tmp_path, caplog, target, names):
        root = tmp_path / "rootfs"
        dbdir = root / "var" / "lib" / "dpkg"
        dbdir.mkdir(parents=True)
        (dbdir / "status.real").write_text("Package: fine\nStatus: install ok installed\n"
                                           "Version: 1\n")
        (dbdir / "status").symlink_to(target)
        with tarfile.open(tmp_path / "image.tar", "w") as tf:
            tf.add(root, arcname=".")
        caplog.set_level(logging.WARNING, logger="bloatlens.packages")
        from_dir = detect_packages(*load_rootfs(root))
        fs, source = load_flat_tar(tmp_path / "image.tar")
        with source:
            assert detect_packages(fs, source) == from_dir
            if names:
                assert source.read("/var/lib/dpkg/status") == \
                    RootfsSource(root).read("/var/lib/dpkg/status")
        assert [r.name for r in from_dir] == names
        assert ("unreadable dpkg database" in caplog.text) == (not names)

    def test_fifo_status_is_refused_without_opening_it(self, tmp_path, monkeypatch, caplog):
        dbdir = tmp_path / "var" / "lib" / "dpkg"
        dbdir.mkdir(parents=True)
        os.mkfifo(dbdir / "status")

        def no_open(path, *args):  # opening a FIFO blocks until a writer comes
            raise AssertionError(f"opened {path}")

        monkeypatch.setattr(imagefs.os, "open", no_open)
        fs, source = load_rootfs(tmp_path)
        with pytest.raises(MaterializeError, match="not a regular file"):
            source.read("/var/lib/dpkg/status")
        caplog.set_level(logging.WARNING, logger="bloatlens.packages")
        assert detect_packages(fs, source) == []
        assert "unreadable dpkg database" in caplog.text

    def test_dpkg_fixture_two_packages(self, tmp_path):
        dbdir = tmp_path / "var" / "lib" / "dpkg"
        (dbdir / "info").mkdir(parents=True)
        (dbdir / "status").write_text(
            "Package: one\nStatus: install ok installed\nVersion: 1.0\n"
            "Depends: two (>= 0.5), libc6:amd64\n\n"
            "Package: two\nStatus: install ok installed\nVersion: 2.0\n"
        )
        (dbdir / "info" / "one.list").write_text("/.\n/bin\n/bin/one\n")
        (dbdir / "info" / "two.list").write_text("/bin/two\n")
        (tmp_path / "bin").mkdir()
        (tmp_path / "bin" / "one").write_bytes(b"1" * 11)
        (tmp_path / "bin" / "two").write_bytes(b"2" * 7)
        fs, source = load_rootfs(tmp_path)
        catalog = detect_packages(fs, source)
        one = next(r for r in catalog if r.name == "one")
        two = next(r for r in catalog if r.name == "two")
        assert one.files == {"/", "/bin", "/bin/one"}
        assert one.size == 11
        assert one.declared_deps == (("two",), ("libc6",))
        assert two.files == {"/bin/two"}
        assert two.size == 7

    def test_record_with_three_files(self, tmp_path):
        sp = tmp_path / "usr" / "lib" / "python3" / "site-packages"
        di = sp / "demo-0.1.dist-info"
        di.mkdir(parents=True)
        (di / "METADATA").write_text("Metadata-Version: 2.1\nName: demo\nVersion: 0.1\n")
        (di / "RECORD").write_text(
            "demo/__init__.py,sha256=x,10\n"
            "demo/core.py,sha256=y,20\n"
            "demo-0.1.dist-info/METADATA,,\n"
        )
        (sp / "demo").mkdir()
        (sp / "demo" / "__init__.py").write_bytes(b"i" * 10)
        (sp / "demo" / "core.py").write_bytes(b"c" * 20)
        fs, source = load_rootfs(tmp_path)
        catalog = detect_packages(fs, source)
        demo = next(r for r in catalog if r.manager == PIP)
        site = "/usr/lib/python3/site-packages"
        assert demo.files == {
            f"{site}/demo/__init__.py",
            f"{site}/demo/core.py",
            f"{site}/demo-0.1.dist-info/METADATA",
        }
        assert demo.size == 10 + 20 + len("Metadata-Version: 2.1\nName: demo\nVersion: 0.1\n")

    def test_dist_info_falls_back_to_its_directory_name(self, tmp_path, caplog):
        sp = tmp_path / "site-packages"
        for dirname, metadata in [("demo-0.1.dist-info", "Name: demo\n"),
                                  ("other-2.0.dist-info", "Version: 9\n"),
                                  ("nodash.dist-info", "")]:
            (sp / dirname).mkdir(parents=True)
            (sp / dirname / "METADATA").write_text(metadata)
        caplog.set_level(logging.WARNING, logger="bloatlens.packages")
        catalog = detect_packages(*load_rootfs(tmp_path))
        assert [(r.name, r.version) for r in catalog] == [("demo", "0.1"), ("other", "9")]
        assert "skipping malformed dist-info directory /site-packages/nodash.dist-info" \
            in caplog.text

    def test_unreadable_record_skips_the_package(self, tmp_path, caplog):
        sp = tmp_path / "site-packages"
        for name in ("bad", "good"):
            (sp / f"{name}-1.dist-info").mkdir(parents=True)
            (sp / f"{name}-1.dist-info" / "METADATA").write_text(f"Name: {name}\nVersion: 1\n")
        (sp / "bad-1.dist-info" / "RECORD").mkdir()  # listed, but no regular file to read
        caplog.set_level(logging.WARNING, logger="bloatlens.packages")
        catalog = detect_packages(*load_rootfs(tmp_path))
        assert [r.name for r in catalog] == ["good"]
        assert "skipping pip package bad: bad RECORD" in caplog.text

    def test_repeated_package_key_keeps_the_first_record(self, tmp_path, caplog):
        for prefix in ("a", "b"):  # one name and version in two site directories
            di = tmp_path / prefix / "demo-1.dist-info"
            di.mkdir(parents=True)
            (di / "RECORD").write_text(f"{prefix}.py,,\n")
        caplog.set_level(logging.WARNING, logger="bloatlens.packages")
        catalog = detect_packages(*load_rootfs(tmp_path))
        assert [(r.name, r.files) for r in catalog] == [("demo", frozenset({"/a/a.py"}))]
        assert "duplicate package record ('pip', 'demo', '1'); keeping the first" in caplog.text

    def test_conda_empty_files_array(self, tmp_path):
        meta = tmp_path / "env" / "conda-meta"
        meta.mkdir(parents=True)
        (meta / "empty-1.0-0.json").write_text('{"name": "empty", "version": "1.0", "files": []}')
        fs, source = load_rootfs(tmp_path)
        catalog = detect_packages(fs, source)
        rec = next(r for r in catalog if r.manager == CONDA)
        assert rec.files == frozenset()
        assert rec.size == 0

    @pytest.mark.parametrize("override", [
        {"files": None}, {"files": 5}, {"depends": None}, {"depends": {"a": 1}},
        {"name": 7}, {"name": None}, {"name": "bad\ud800"}, {"version": "1\udc80"},
    ], ids=str)
    def test_conda_wrong_shape_skips_the_package(self, tmp_path, caplog, override):
        meta = tmp_path / "env" / "conda-meta"
        meta.mkdir(parents=True)
        doc = {"name": "bad", "version": "1", "files": [], "depends": []} | override
        (meta / "bad-1-0.json").write_text(json.dumps(doc))
        (meta / "good-1-0.json").write_text('{"name": "good", "version": "1"}')
        caplog.set_level(logging.WARNING, logger="bloatlens.packages")
        catalog = detect_packages(*load_rootfs(tmp_path))
        assert [r.name for r in catalog] == ["good"]
        assert "skipping malformed conda-meta document /env/conda-meta/bad-1-0.json" \
            in caplog.text

    @pytest.mark.parametrize("kind", ["dangling-symlink", "directory", "fifo"])
    def test_unreadable_dpkg_list_is_treated_as_missing(self, tmp_path, caplog, kind):
        dbdir = tmp_path / "var" / "lib" / "dpkg"
        (dbdir / "info").mkdir(parents=True)
        (dbdir / "status").write_text(
            "Package: one\nStatus: install ok installed\nVersion: 1\n\n"
            "Package: two\nStatus: install ok installed\nVersion: 2\n")
        (dbdir / "info" / "two.list").write_text("/bin/two\n")
        listing = dbdir / "info" / "one.list"
        if kind == "dangling-symlink":
            listing.symlink_to("gone.list")
        elif kind == "directory":
            listing.mkdir()
        else:
            os.mkfifo(listing)
        (tmp_path / "bin").mkdir()
        (tmp_path / "bin" / "two").write_bytes(b"2" * 7)
        caplog.set_level(logging.WARNING, logger="bloatlens.packages")
        catalog = detect_packages(*load_rootfs(tmp_path))
        assert [(r.name, r.files, r.size) for r in catalog] == [
            ("one", frozenset(), 0), ("two", frozenset({"/bin/two"}), 7)]
        assert "unreadable dpkg file list, treated as missing" in caplog.text

    def test_deterministic_order(self, mini_rootfs):
        fs, source = load_rootfs(mini_rootfs)
        a = detect_packages(fs, source)
        b = detect_packages(fs, RootfsSource(mini_rootfs))
        assert [r.key for r in a] == [r.key for r in b]
        assert [r.key for r in a] == sorted(r.key for r in a)


# dpkg writes its files with "\n" line ends; str.splitlines would also break at these.
_OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestDpkgLines:
    @pytest.mark.parametrize("brk", _OTHER_LINE_BREAKS, ids=lambda brk: f"U+{ord(brk):04X}")
    def test_list_paths_split_on_newlines_only(self, brk):
        assert _dpkg_list_paths(f"/usr/lib/x{brk}y\n/bin/z\r\n") == {f"/usr/lib/x{brk}y", "/bin/z"}

    def test_status_continuation_keeps_a_field_after_another_line_break(self, tmp_path):
        dbdir = tmp_path / "var" / "lib" / "dpkg"
        dbdir.mkdir(parents=True)
        (dbdir / "status").write_text(
            "Package: one\nStatus: install ok installed\nVersion: 1.0\nDescription: one\n"
            + "".join(f" more{brk}Version: 9\n" for brk in _OTHER_LINE_BREAKS), encoding="utf-8")
        [rec] = detect_packages(*load_rootfs(tmp_path))
        assert (rec.name, rec.version) == ("one", "1.0")


_FIELD_NAMES = st.sampled_from(["Name", "name", "NAME", "Version", "vERSION", "Requires-Dist",
                                "requires-dist", "Summary", "From", "Content-Type"])
_VALUE = st.text(st.sampled_from("ab1 -.:;\t\x0c\x1c\x85\u2028é") | st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=6) | st.sampled_from(
    ["multipart/mixed; boundary=b", "message/rfc822", "--b", "Name: body"])
_METADATA_LINE = st.one_of(
    st.tuples(_FIELD_NAMES, st.sampled_from([":", ": ", ":\t", ":  "]), _VALUE).map("".join),
    st.tuples(st.sampled_from([" ", "\t"]), _VALUE).map("".join),  # a continuation
    _VALUE.map("From ".__add__),  # an envelope line
    _VALUE.map(":".__add__),  # a field with no name
    st.text(st.sampled_from("ab-é "), min_size=1, max_size=4),  # no colon: the block may end
    st.just(""),  # the block ends; what follows is the body
)


@st.composite
def _metadata_texts(draw):
    """METADATA-like text: header, continuation, envelope and body lines with
    mixed line ends, and no line end after the last line half of the time."""
    lines = draw(st.lists(st.tuples(_METADATA_LINE, st.sampled_from(["\r\n", "\r", "\n"])),
                          max_size=12))
    text = "".join(line + end for line, end in lines)
    return text[:-len(lines[-1][1])] if lines and draw(st.booleans()) else text


class TestMetadataReader:
    @given(_metadata_texts())
    @example("Name: a\r\nVersion: 1\rRequires-Dist: x\nRequires-Dist: y")
    @example("From me\nName: a\nFrom you\n folded\nVersion: 1\nFrom them\n")
    @example(" Name: lost\n:Name: nameless\nNAME: a  \nname: b\nversion:\t1\n")
    @example("Name: a\nno colon\nVersion: 1\n\nVersion: 2\n")
    @example("Requires-Dist: x\x0c\n \u2028y\r\n\tz \nREQUIRES-DIST: é\n")
    @settings(max_examples=300, deadline=None)
    def test_reader_agrees_with_the_email_parser(self, text):
        try:
            expected = metadata_oracle(text)
        except Exception:  # the reader, too, must fall into the 'unreadable METADATA' path
            with pytest.raises(Exception):
                _metadata_fields(text)
        else:
            assert _metadata_fields(text) == expected


class TestClassifyFunctionality:
    def test_paper_named_ml_packages(self):
        rules = load_rules()
        for name in ("libcudnn8", "tensorflow", "torch", "nvidia-dali-cuda110",
                     "cudatoolkit", "libnvinfer8", "magma-cuda110", "scikit-learn"):
            assert classify_functionality(pkg(name=name), rules) == ML, name

    def test_generic_examples(self):
        rules = load_rules()
        for name in ("curl", "bsdutils", "libssl1.1", "tar", "perl-modules-5.26"):
            assert classify_functionality(pkg(name=name), rules) == GENERIC, name

    def test_empty_rules_everything_generic(self):
        assert classify_functionality(pkg(name="tensorflow"), ()) == GENERIC

    def test_glob_pattern(self):
        assert classify_functionality(pkg(name="libfoo9"), ("libfoo*",)) == ML

    def test_user_rule_file(self, tmp_path):
        rule_file = tmp_path / "rules.txt"
        rule_file.write_text("# custom\nmypkg\n")
        rules = load_rules(str(rule_file))
        assert classify_functionality(pkg(name="mypkg-extras"), rules) == ML

    _NAME = st.text(st.sampled_from("abAB.+-_()|\\é\n"), max_size=8)
    _RULE = st.one_of(
        st.text(st.sampled_from("abA.+()|\\é"), max_size=4),  # substrings, "" included
        st.text(st.sampled_from("ab.*?[]!-\\"), max_size=6),  # globs, unbalanced "[" too
        st.sampled_from(["a*", "?", "[!a]*", "[a-b]?", "[", "a[b", "*]", "[]]", "+", ".", "("]),
    )

    @settings(max_examples=300, deadline=None)
    @given(_NAME, st.lists(_RULE, max_size=5))
    def test_matches_the_rule_by_rule_oracle(self, name, rules):
        for seq in (rules, tuple(rules)):
            assert (classify_functionality(pkg(name=name), seq)
                    == functionality_oracle(name, rules)), (name, rules)

    def test_bundled_rules_match_the_oracle(self):
        rules = load_rules()
        for name in ("libcudnn8", "python3-scipy", "curl", "tf-slim", "LibMKL-rt", "x"):
            assert classify_functionality(pkg(name=name), rules) == functionality_oracle(
                name, rules)


class TestPackageBloatDegree:
    def test_fully_bloated(self):
        bloat = fs_from([FileEntry("/", "directory"), FileEntry("/a", "regular", 10)])
        p = pkg(files={"/a"}, size=10)
        assert package_bloat_degree(p, bloat) == 1.0

    def test_fully_used(self):
        bloat = fs_from([FileEntry("/", "directory")])
        p = pkg(files={"/a"}, size=10)
        assert package_bloat_degree(p, bloat) == 0.0

    def test_libcudnn_case_study(self):
        # 1.55 GB of declared files, a single 155 KB file retained.
        sizes = {f"/usr/lib/cudnn/part{i}.so": 155_000_000 for i in range(10)}
        retained_file = "/usr/lib/cudnn/libcudnn.so.8"
        shim = 155_000
        entries = [FileEntry("/", "directory")]
        bloat_entries = [FileEntry("/", "directory")]
        for path, size in sizes.items():
            entries.append(FileEntry(path, "regular", size))
            bloat_entries.append(FileEntry(path, "regular", size))
        entries.append(FileEntry(retained_file, "regular", shim))
        total = sum(sizes.values()) + shim
        assert total == 1_550_155_000  # ~1.55 GB
        p = pkg(name="libcudnn8", files=set(sizes) | {retained_file}, size=total)
        bloat = fs_from(bloat_entries)
        assert package_bloat_degree(p, bloat) > 0.99

    def test_zero_size_package_falls_back_to_file_count(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/a", "regular", 0),
            FileEntry("/b", "regular", 0),
        ])
        bloat = fs_from([FileEntry("/a", "regular", 0)])
        p = pkg(files={"/a", "/b"}, size=0)
        assert package_bloat_degree(p, bloat, fs) == 0.5

    def test_no_files_at_all_counts_as_unused(self):
        bloat = fs_from([FileEntry("/", "directory")])
        assert package_bloat_degree(pkg(files=set(), size=0), bloat) == 1.0

    def test_monotone_in_bloat(self):
        p = pkg(files={"/a", "/b"}, size=30)
        small = fs_from([FileEntry("/a", "regular", 10)])
        big = fs_from([FileEntry("/a", "regular", 10), FileEntry("/b", "regular", 20)])
        assert package_bloat_degree(p, small) <= package_bloat_degree(p, big)

    def test_package_bloat_pairs_bytes_with_degree(self):
        # Hand values: 10 of 30 bytes in the bloat set; a zero-size package
        # with one of its two present files (and one absent file) in bloat.
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/a", "regular", 10),
                      FileEntry("/b", "regular", 20), FileEntry("/y", "regular", 0),
                      FileEntry("/z", "regular", 0)])
        bloat = fs_from([FileEntry("/a", "regular", 10), FileEntry("/z", "regular", 0)])
        sized = pkg(files={"/a", "/b"}, size=30)
        assert package_bloat(sized, bloat, fs) == (10, 1 / 3)
        empty = pkg(files={"/y", "/z", "/gone"}, size=0)
        assert package_bloat(empty, bloat, fs) == (0, 0.5)
        for p in (sized, empty):
            assert package_bloat(p, bloat, fs)[1] == package_bloat_degree(p, bloat, fs)


class TestCategoryBreakdown:
    def test_all_files_unowned(self):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/a", "regular", 10)])
        index = build_owner_index([], fs)
        b = category_breakdown(fs, index)
        assert b.by_manager["non-package"] == 1.0
        assert b.by_functionality["non-package"] == 1.0

    def test_no_regular_bytes_gives_zero_proportions(self):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/empty", "regular", 0),
                      FileEntry("/d", "directory")])
        b = category_breakdown(fs, build_owner_index([pkg(files={"/empty"})], fs))
        assert set(b.by_manager.values()) == set(b.by_functionality.values()) == {0.0}
        assert b.total_bytes == 0

    def test_sixty_forty_split(self):
        fs = fs_from([
            FileEntry("/", "directory"),
            FileEntry("/owned", "regular", 60),
            FileEntry("/free", "regular", 40),
        ])
        index = build_owner_index([pkg(manager=APT, files={"/owned"}, size=60)], fs)
        b = category_breakdown(fs, index)
        assert b.by_manager[APT] == pytest.approx(0.6)
        assert b.by_manager["non-package"] == pytest.approx(0.4)
        assert b.total_bytes == 100

    def test_dual_owner_counted_under_conda(self):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/shared", "regular", 10)])
        catalog = [
            pkg(manager=PIP, name="p1", files={"/shared"}, size=10),
            pkg(manager=CONDA, name="c1", files={"/shared"}, size=10),
        ]
        index = build_owner_index(catalog, fs)
        b = category_breakdown(fs, index)
        assert b.by_manager[CONDA] == 1.0
        assert b.by_manager[PIP] == 0.0
        assert b.overlap_files == 1

    def test_proportions_sum_to_one(self, mini_rootfs):
        fs, source = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, source)
        index = build_owner_index(catalog, fs)
        b = category_breakdown(fs, index)
        assert sum(b.by_manager.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(b.by_functionality.values()) == pytest.approx(1.0, abs=1e-9)

    def test_every_existing_owned_file_indexed(self, mini_rootfs):
        fs, source = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, source)
        owners = build_owner_index(catalog, fs)
        by_path = {}
        for rec in catalog:
            for path in rec.files:
                if path in fs.entries:
                    by_path.setdefault(path, []).append(rec)
        assert owners.keys() == by_path.keys()
        assert any(len(recs) > 1 for recs in by_path.values())
        for path, recs in by_path.items():  # conda > pip > apt, ties in key order
            first = min(sorted(recs, key=lambda r: r.key),
                        key=lambda r: MANAGER_PRIORITY.index(r.manager))
            assert owners[path] == (first, len(recs)), path


class TestSizeReductionR:
    def test_all_unused(self):
        pairs = [(pkg(size=10), 1.0), (pkg(name="q", size=30), 1.0)]
        assert size_reduction_R(pairs) == 1.0

    def test_all_used(self):
        pairs = [(pkg(size=10), 0.0), (pkg(name="q", size=30), 0.0)]
        assert size_reduction_R(pairs) == 0.0

    def test_hand_arithmetic(self):
        pairs = [(pkg(size=100), 0.5), (pkg(name="q", size=300), 1.0)]
        assert size_reduction_R(pairs) == pytest.approx(0.875)

    def test_zero_total_size_absent(self):
        assert size_reduction_R([(pkg(size=0), 1.0)]) is None


class TestQuartileSummary:
    def test_all_ones_conda_row(self):
        q = quartile_summary([1.0] * 203)
        assert (q.q1, q.q2, q.q3) == (1.00, 1.00, 1.00)
        assert q.mean == 1.00
        assert q.count == 203

    def test_single_value(self):
        q = quartile_summary([0.37])
        assert (q.q1, q.q2, q.q3) == (0.37, 0.37, 0.37)

    def test_textbook_quartiles(self):
        q = quartile_summary([0, 0.25, 0.5, 0.75, 1])
        assert (q.q1, q.q2, q.q3) == (0.25, 0.5, 0.75)

    def test_matches_numpy_linear_interpolation(self):
        import random

        rng = random.Random(5)
        values = [round(rng.random(), 4) for _ in range(37)]
        q = quartile_summary(values)
        expected = np.percentile(values, [25, 50, 75])
        assert q.q1 == pytest.approx(round(expected[0], 2))
        assert q.q2 == pytest.approx(round(expected[1], 2))
        assert q.q3 == pytest.approx(round(expected[2], 2))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quartile_summary([])
