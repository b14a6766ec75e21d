import logging
import tarfile

import numpy as np
import pytest

from bloatlens.imagefs import FileEntry, FileSet, RootfsSource, load_flat_tar, load_rootfs
from bloatlens.packages import (
    APT,
    CONDA,
    GENERIC,
    ML,
    PIP,
    PackageRecord,
    build_owner_index,
    canonical_pip_name,
    category_breakdown,
    classify_functionality,
    detect_packages,
    load_rules,
    package_bloat_degree,
    quartile_summary,
    size_reduction_R,
)


def fs_from(entries):
    return FileSet({e.path: e for e in entries}, "rootfs-dir")


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
        fs = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, RootfsSource(mini_rootfs))
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
        fs = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, RootfsSource(mini_rootfs))
        assert all(r.name != "libz" for r in catalog)

    def test_missing_dpkg_database_is_not_an_error(self, tmp_path):
        (tmp_path / "only").mkdir()
        fs = load_rootfs(tmp_path)
        assert detect_packages(fs, RootfsSource(tmp_path)) == []

    def test_malformed_stanza_skipped(self, tmp_path):
        dbdir = tmp_path / "var" / "lib" / "dpkg"
        dbdir.mkdir(parents=True)
        (dbdir / "status").write_text(
            "Package: broken\nStatus: install ok installed\n\n"  # no Version
            "Package: fine\nStatus: install ok installed\nVersion: 1\n"
        )
        fs = load_rootfs(tmp_path)
        catalog = detect_packages(fs, RootfsSource(tmp_path))
        assert [r.name for r in catalog] == ["fine"]

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
        from_dir = detect_packages(load_rootfs(root), RootfsSource(root))
        fs, source = load_flat_tar(tmp_path / "image.tar")
        with source:
            assert detect_packages(fs, source) == from_dir
            if names:
                assert source.read("/var/lib/dpkg/status") == \
                    RootfsSource(root).read("/var/lib/dpkg/status")
        assert [r.name for r in from_dir] == names
        assert ("unreadable dpkg database" in caplog.text) == (not names)

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
        fs = load_rootfs(tmp_path)
        catalog = detect_packages(fs, RootfsSource(tmp_path))
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
        fs = load_rootfs(tmp_path)
        catalog = detect_packages(fs, RootfsSource(tmp_path))
        demo = next(r for r in catalog if r.manager == PIP)
        site = "/usr/lib/python3/site-packages"
        assert demo.files == {
            f"{site}/demo/__init__.py",
            f"{site}/demo/core.py",
            f"{site}/demo-0.1.dist-info/METADATA",
        }
        assert demo.size == 10 + 20 + len("Metadata-Version: 2.1\nName: demo\nVersion: 0.1\n")

    def test_conda_empty_files_array(self, tmp_path):
        meta = tmp_path / "env" / "conda-meta"
        meta.mkdir(parents=True)
        (meta / "empty-1.0-0.json").write_text('{"name": "empty", "version": "1.0", "files": []}')
        fs = load_rootfs(tmp_path)
        catalog = detect_packages(fs, RootfsSource(tmp_path))
        rec = next(r for r in catalog if r.manager == CONDA)
        assert rec.files == frozenset()
        assert rec.size == 0

    def test_deterministic_order(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)
        a = detect_packages(fs, RootfsSource(mini_rootfs))
        b = detect_packages(fs, RootfsSource(mini_rootfs))
        assert [r.key for r in a] == [r.key for r in b]
        assert [r.key for r in a] == sorted(r.key for r in a)


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


class TestCategoryBreakdown:
    def test_all_files_unowned(self):
        fs = fs_from([FileEntry("/", "directory"), FileEntry("/a", "regular", 10)])
        index = build_owner_index([], fs)
        b = category_breakdown(fs, index)
        assert b.by_manager["non-package"] == 1.0
        assert b.by_functionality["non-package"] == 1.0

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
        fs = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, RootfsSource(mini_rootfs))
        index = build_owner_index(catalog, fs)
        b = category_breakdown(fs, index)
        assert sum(b.by_manager.values()) == pytest.approx(1.0, abs=1e-9)
        assert sum(b.by_functionality.values()) == pytest.approx(1.0, abs=1e-9)

    def test_every_existing_owned_file_indexed(self, mini_rootfs):
        fs = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, RootfsSource(mini_rootfs))
        index = build_owner_index(catalog, fs)
        for rec in catalog:
            for path in rec.files:
                if path in fs.entries:
                    assert rec.key in index.owners_of(path)


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
