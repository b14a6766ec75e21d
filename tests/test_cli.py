import ast
import json
import os
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

import bloatlens
from bloatlens.cli import main

from fixtures import mergedusr


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_full_run(self, mini_rootfs, mini_trace_path, mini_vuln_path,
                      tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--vuln-report", str(mini_vuln_path),
            "--container-id", "mini",
            "--emit-tar",
            "--out", str(out),
        )
        assert code == 0
        assert "bundle.json" in stdout
        for expected in ("bundle.json", "manifest.tsv", "graph.json", "graph.dot",
                         "debloated.tar", "tables/severity_table.csv",
                         "plots/bloat_degree_histogram.json"):
            assert (out / expected).exists(), expected

    def test_missing_trace_errors_with_flag(self, mini_rootfs, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        record = json.loads(stderr)
        assert record["error"]["flag"] == "--trace"

    def test_missing_vuln_report_file_is_input_error(self, mini_rootfs,
                                                     mini_trace_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--vuln-report", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--vuln-report"

    def test_optional_vuln_report_absent_is_success(self, mini_rootfs,
                                                    mini_trace_path, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0
        doc = json.loads((tmp_path / "out" / "bundle.json").read_text())
        assert doc["vuln"] is None

    def test_malformed_vuln_report_exits_partial(self, mini_rootfs, mini_trace_path,
                                                 tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"matches": [{"nope": 1}]}')
        code, _, stderr = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--vuln-report", str(bad),
            "--out", str(tmp_path / "out"),
        )
        assert code == 4
        assert "diagnostics" in stderr

    def test_layers_input(self, mini_rootfs, mini_trace_path, tmp_path, capsys):
        import tarfile

        tar_path = tmp_path / "image.tar"
        with tarfile.open(tar_path, "w") as tf:
            tf.add(mini_rootfs, arcname=".")
        code, _, _ = run_cli(
            capsys, "analyze",
            "--layers", str(tar_path),
            "--trace", str(mini_trace_path),
            "--out", str(tmp_path / "out"),
        )
        assert code == 0

    def test_single_tar_is_read_as_a_one_layer_image(self, mini_rootfs, mini_trace_path,
                                                     tmp_path, capsys, monkeypatch):
        from bloatlens import report

        calls = []
        for name in ("load_flat_tar", "load_layers"):
            def spy(*args, _name=name, _real=getattr(report, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(report, name, spy)
        tar_path = tmp_path / "image.tar"
        with tarfile.open(tar_path, "w") as tf:
            tf.add(mini_rootfs, arcname=".")
        common = ["--trace", str(mini_trace_path), "--out", str(tmp_path / "out")]
        code, _, _ = run_cli(capsys, "analyze", "--layers", str(tar_path), *common)
        assert (code, calls) == (0, ["load_layers"])
        tar_path.write_bytes(b"\xff" * 2048)  # its errors are labelled as a layer's
        code, _, stderr = run_cli(capsys, "analyze", "--layers", str(tar_path), *common)
        assert code == 2
        assert json.loads(stderr)["error"]["message"].startswith("layer 0: ")

    def test_layer_stack_with_whiteouts(self, mini_rootfs, mini_trace_path,
                                        tmp_path, capsys):
        import gzip
        import io
        import tarfile

        from bloatlens.imagefs import load_flat_tar

        base = tmp_path / "base.tar"
        with tarfile.open(base, "w") as tf:
            tf.add(mini_rootfs, arcname=".")
        upper_plain = io.BytesIO()
        with tarfile.open(fileobj=upper_plain, mode="w") as tf:
            info = tarfile.TarInfo("app/cfg.yaml")  # replace accessed file
            info.size = 20
            tf.addfile(info, io.BytesIO(b"y" * 20))
            tf.addfile(tarfile.TarInfo("etc/.wh.hostname"), io.BytesIO(b""))
        upper = tmp_path / "upper.tar.gz"
        upper.write_bytes(gzip.compress(upper_plain.getvalue()))

        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "analyze",
            "--layers", str(base), str(upper),
            "--trace", str(mini_trace_path),
            "--emit-tar",
            "--out", str(out),
        )
        assert code == 0
        manifest = (out / "manifest.tsv").read_text()
        assert "/app/cfg.yaml" in manifest
        debloated, source = load_flat_tar(out / "debloated.tar")
        source.close()
        assert "/etc/hostname" not in debloated.entries
        with tarfile.open(out / "debloated.tar") as tf:
            payload = tf.extractfile("./app/cfg.yaml").read()
        assert payload == b"y" * 20  # content comes from the upper layer

    @pytest.mark.parametrize("command, flag", [("analyze", "--emit-tar"),
                                               ("debloat", "--emit-rootfs")])
    def test_member_under_a_lower_file_is_refused_not_emitted(self, command, flag, tmp_path,
                                                              capsys, caplog):
        # Layer 1's f/g lies under layer 0's file f, where no runtime can apply it.
        layers = []
        for i, members in enumerate([[("usr", tarfile.DIRTYPE), ("f", tarfile.REGTYPE)],
                                     [("f/g", tarfile.REGTYPE)]]):
            layers.append(tmp_path / f"l{i}.tar")
            with tarfile.open(layers[-1], "w") as tf:
                for name, typ in members:
                    info = tarfile.TarInfo(name)
                    info.type = typ
                    tf.addfile(info)
        trace = tmp_path / "trace.log"
        trace.write_text('100 openat(AT_FDCWD, "/f/g", O_RDONLY) = 3\n')
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, command, "--layers", *map(str, layers),
                             "--trace", str(trace), flag, "--out", str(out))
        assert code == 0
        assert "layer 1: member /f/g: its directory reaches /f, which is not a directory; " \
               "refused" in caplog.text
        # no output names it, debloated.tar's './f/g' member included
        written = list(out.rglob("*"))
        assert written and not [p for p in written if p.is_file() and b"/f/g" in p.read_bytes()]
        assert not (out / "rootfs" / "f").exists()

    def test_truncated_gzip_layer_is_input_error(self, mini_rootfs, mini_trace_path,
                                                 tmp_path, capsys):
        import gzip
        import tarfile

        base = tmp_path / "base.tar"
        with tarfile.open(base, "w") as tf:
            tf.add(mini_rootfs, arcname=".")
        upper = tmp_path / "upper.tar.gz"
        data = gzip.compress(base.read_bytes())
        upper.write_bytes(data[:len(data) // 2])
        code, _, stderr = run_cli(
            capsys, "analyze",
            "--layers", str(base), str(upper),
            "--trace", str(mini_trace_path),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        record = json.loads(stderr.strip().splitlines()[-1])
        assert record["error"]["code"] == 2
        assert record["error"]["message"].startswith("layer 1: ")

    def test_include_failed_retains_failed_call_paths(self, mini_rootfs, tmp_path,
                                                      capsys):
        trace = tmp_path / "t.log"
        trace.write_text(
            '5 openat(AT_FDCWD, "/app/cfg.yaml", O_RDONLY) = 3\n'
            '5 access("/etc/hostname", R_OK) = -1 EACCES (Permission denied)\n'
        )
        manifests = {}
        for label, flags in (("strict", []), ("lenient", ["--include-failed"])):
            out = tmp_path / label
            code, _, _ = run_cli(
                capsys, "debloat",
                "--rootfs", str(mini_rootfs),
                "--trace", str(trace),
                *flags,
                "--out", str(out),
            )
            assert code == 0
            manifests[label] = (out / "manifest.tsv").read_text()
        assert "/etc/hostname" not in manifests["strict"]
        assert "/etc/hostname" in manifests["lenient"]

    def test_contract_violation_exit_code(self, mini_rootfs, mini_trace_path,
                                          tmp_path, capsys, monkeypatch):
        from bloatlens import cli
        from bloatlens.errors import ContractViolation

        def boom(config):
            raise ContractViolation("sizes out of order")

        monkeypatch.setattr(cli, "run_pipeline", boom)
        code, _, stderr = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--out", str(tmp_path / "out"),
        )
        assert code == 3
        assert json.loads(stderr)["error"]["code"] == 3

    def test_keep_glob(self, mini_rootfs, mini_trace_path, tmp_path, capsys):
        out = tmp_path / "out"
        code, _, _ = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--keep", "/etc/*",
            "--out", str(out),
        )
        assert code == 0
        manifest = (out / "manifest.tsv").read_text()
        assert "/etc/hostname" in manifest

    def test_non_utf8_file_name_keeps_its_bytes(self, mini_rootfs, tmp_path, capsys):
        with open(os.path.join(os.fsencode(mini_rootfs), b"app/caf\xe9.conf"), "wb") as f:
            f.write(b"x")
        trace = tmp_path / "trace.log"
        trace.write_text('1 open("/app/caf\\351.conf", O_RDONLY) = 3\n')
        for command, flags in (("analyze", ["--emit-tar"]),
                               ("debloat", ["--emit-tar", "--emit-rootfs"])):
            out = tmp_path / command
            code, _, _ = run_cli(capsys, command, "--rootfs", str(mini_rootfs),
                                 "--trace", str(trace), *flags, "--out", str(out))
            assert code == 0
            assert b"regular\t1\t/app/caf\xe9.conf\n" in (out / "manifest.tsv").read_bytes()
            with tarfile.open(out / "debloated.tar") as tf:
                assert tf.extractfile("./app/caf\udce9.conf").read() == b"x"
        with open(os.path.join(os.fsencode(tmp_path / "debloat" / "rootfs"),
                               b"app/caf\xe9.conf"), "rb") as f:
            assert f.read() == b"x"


class TestStageSubcommands:
    def test_debloat_stage(self, mini_rootfs, mini_trace_path, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "debloat",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--emit-rootfs",
            "--out", str(out),
        )
        assert code == 0
        assert "d_c=" in stdout
        assert (out / "manifest.tsv").is_file()
        assert (out / "rootfs" / "app" / "cfg.yaml").is_file()

    def test_packages_stage(self, mini_rootfs, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "packages",
            "--rootfs", str(mini_rootfs),
            "--out", str(out),
        )
        assert code == 0
        assert "5 packages" in stdout
        catalog = json.loads((out / "catalog.json").read_text())
        assert {r["name"] for r in catalog} == {
            "liba", "libb", "widget-tools", "numpy-lite", "condapkg"}

    @pytest.mark.parametrize("command", ["debloat", "packages", "vulns", "graph"])
    def test_stage_closes_layer_sources(self, command, mini_rootfs, mini_trace_path,
                                        mini_vuln_path, tmp_path, capsys):
        import gc
        import tarfile
        import warnings

        base, upper = tmp_path / "base.tar", tmp_path / "upper.tar.gz"
        with tarfile.open(base, "w") as tf:
            tf.add(mini_rootfs, arcname=".")
        with tarfile.open(upper, "w:gz") as tf:
            tf.add(mini_rootfs / "app", arcname="app")
        args = ["--trace", str(mini_trace_path)] if command != "packages" else []
        if command == "vulns":
            args += ["--vuln-report", str(mini_vuln_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            code, _, _ = run_cli(capsys, command, "--layers", str(base), str(upper),
                                 "--out", str(tmp_path / "out"), *args)
            gc.collect()
        assert code == 0
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_vulns_stage(self, mini_rootfs, mini_trace_path, mini_vuln_path,
                         tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "vulns",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--vuln-report", str(mini_vuln_path),
            "--out", str(out),
        )
        assert code == 0
        assert "6 of 12" in stdout
        doc = json.loads((out / "vulndiff.json").read_text())
        assert doc["severity_table"]["reduction_percent"] == 50

    def test_vulns_stage_requires_report(self, mini_rootfs, mini_trace_path,
                                         tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "vulns",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--vuln-report"

    def test_graph_stage(self, mini_rootfs, mini_trace_path, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, _ = run_cli(
            capsys, "graph",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--out", str(out),
        )
        assert code == 0
        assert "4 nodes" in stdout
        doc = json.loads((out / "graph.json").read_text())
        assert doc["excluded"] == ["conda:condapkg"]

    def test_report_stage_rederives_tables(self, mini_rootfs, mini_trace_path,
                                           mini_vuln_path, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(
            capsys, "analyze",
            "--rootfs", str(mini_rootfs),
            "--trace", str(mini_trace_path),
            "--vuln-report", str(mini_vuln_path),
            "--out", str(first),
        )
        assert code == 0
        second = tmp_path / "second"
        code, _, _ = run_cli(
            capsys, "report",
            "--bundle", str(first / "bundle.json"),
            "--out", str(second),
        )
        assert code == 0
        for table in (first / "tables").iterdir():
            assert (second / "tables" / table.name).read_bytes() == table.read_bytes()

    def test_missing_image_input(self, mini_trace_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "debloat",
            "--trace", str(mini_trace_path),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert "error" in json.loads(stderr)

    def test_missing_out_is_input_error(self, mini_rootfs, mini_trace_path, capsys):
        code, _, stderr = run_cli(capsys, "analyze", "--rootfs", str(mini_rootfs),
                                  "--trace", str(mini_trace_path))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--out"

    def test_missing_bundle_is_input_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(capsys, "report", "--bundle", str(tmp_path / "gone.json"),
                                  "--out", str(tmp_path / "out"))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--bundle"
        assert not (tmp_path / "out").exists()

    def test_bad_rootfs_path(self, mini_trace_path, tmp_path, capsys):
        code, _, stderr = run_cli(
            capsys, "analyze",
            "--rootfs", str(tmp_path / "missing"),
            "--trace", str(mini_trace_path),
            "--out", str(tmp_path / "out"),
        )
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--rootfs"


class TestLogging:
    def test_env_var_controls_verbosity(self, mini_rootfs, mini_trace_path,
                                        tmp_path, capsys, monkeypatch, caplog):
        import logging

        monkeypatch.setenv("BLOATLENS_LOG", "DEBUG")
        with caplog.at_level(logging.DEBUG, logger="bloatlens"):
            code, _, _ = run_cli(
                capsys, "debloat",
                "--rootfs", str(mini_rootfs),
                "--trace", str(mini_trace_path),
                "--out", str(tmp_path / "out"),
            )
        assert code == 0


BAD_REPORTS = {
    "schema": ('{"matches": [{"vulnerability": {}}]}',
               "vulnerability report ignored: missing required field at "
               "$.matches[0].artifact"),
    "json": ('{"matches": [',
             "vulnerability report ignored: Expecting value: line 1 column 14 (char 13)"),
    "too-deep": ("[" * 200_000, "vulnerability report ignored: maximum recursion depth "
                 "exceeded while decoding a JSON array from a unicode string"),
}


def _grype(artifact: str) -> str:
    return ('{"matches": [{"vulnerability": {"id": "CVE-1", "severity": "High"}, '
            f'"artifact": {artifact}}}]}}')


# Inputs of wrong shape: each must end in its documented exit code, not a traceback.
MALFORMED_REPORTS = {
    "trivy-result-not-object": '{"Results": [1]}',
    "trivy-vulnerabilities-not-array": '{"Results": [{"Vulnerabilities": 5}]}',
    "trivy-empty-id": '{"Results": [{"Vulnerabilities": [{"VulnerabilityID": "", '
                      '"PkgName": "a"}]}]}',
    "grype-locations-not-array": _grype('{"name": "a", "version": "1", "locations": 5}'),
    "grype-empty-name": _grype('{"name": "", "version": "1"}'),
}


def _replace(root, path: str, make) -> None:
    (root / path).unlink()
    make(root / path)


CONDA_META = "opt/conda/conda-meta/condapkg-3.1-0.json"
LIBA_LIST = "var/lib/dpkg/info/liba.list"
MALFORMED_IMAGES = {
    "conda-files-null": lambda root: (root / CONDA_META).write_text(
        '{"name": "condapkg", "version": "3.1", "files": null}'),
    "conda-depends-not-array": lambda root: (root / CONDA_META).write_text(
        '{"name": "condapkg", "version": "3.1", "depends": 5}'),
    "conda-name-lone-surrogate": lambda root: (root / CONDA_META).write_text(
        '{"name": "condapkg\\ud800", "version": "3.1"}'),
    "dpkg-list-dangling-symlink": lambda root: _replace(
        root, LIBA_LIST, lambda p: p.symlink_to("gone.list")),
    "dpkg-list-directory": lambda root: _replace(root, LIBA_LIST, lambda p: p.mkdir()),
    "dpkg-list-fifo": lambda root: _replace(root, LIBA_LIST, os.mkfifo),
    "non-utf8-name": lambda root: open(
        os.path.join(os.fsencode(root), b"app/caf\xe9.conf"), "wb").close(),
}


class TestInputPolicy:
    @pytest.mark.parametrize("command, flag, bad_report", [
        ("analyze", "--rules", None),
        ("packages", "--rules", None),
        ("graph", "--rules", None),
        ("vulns", "--vuln-report", None),
        ("vulns", "--vuln-report", '{"matches": 5}'),
    ], ids=["analyze---rules", "packages---rules", "graph---rules", "vulns---vuln-report",
            "vulns-malformed-report"])
    def test_input_errors_before_ingest(self, command, flag, bad_report, mini_rootfs,
                                        mini_trace_path, tmp_path, capsys, monkeypatch):
        from bloatlens import report

        def no_ingest(*args, **kwargs):
            raise AssertionError("the image was loaded before the inputs were checked")

        for loader in ("load_rootfs", "load_flat_tar", "load_layers"):
            monkeypatch.setattr(report, loader, no_ingest)
        args = [] if command == "packages" else ["--trace", str(mini_trace_path)]
        if flag == "--rules":  # a missing file; vulns is run without its report
            args += ["--rules", str(tmp_path / "missing-rules.txt")]
        elif bad_report is not None:  # or with one that exists but is malformed
            (tmp_path / "report.json").write_text(bad_report)
            args += ["--vuln-report", str(tmp_path / "report.json")]
        code, _, stderr = run_cli(capsys, command, "--rootfs", str(mini_rootfs), *args,
                                  "--out", str(tmp_path / "out"))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == flag
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("epoch", ["abc", "99999999999999999999"])
    def test_bad_source_date_epoch_fails_before_ingest(self, epoch, mini_rootfs,
                                                       mini_trace_path, tmp_path, capsys,
                                                       monkeypatch):
        from bloatlens import report

        def no_ingest(*args, **kwargs):
            raise AssertionError("the image or trace was read before SOURCE_DATE_EPOCH")

        for loader in ("load_rootfs", "load_flat_tar", "load_layers", "parse_trace"):
            monkeypatch.setattr(report, loader, no_ingest)
        monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
        code, _, stderr = run_cli(capsys, "analyze", "--rootfs", str(mini_rootfs),
                                  "--trace", str(mini_trace_path),
                                  "--out", str(tmp_path / "out"))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "SOURCE_DATE_EPOCH"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, case", [
        *(("analyze", case) for case in MALFORMED_REPORTS),
        *(("vulns", case) for case in MALFORMED_REPORTS),
        *(("analyze", case) for case in MALFORMED_IMAGES),
    ])
    def test_malformed_input_exits_without_traceback(self, command, case, mini_rootfs,
                                                     mini_trace_path, tmp_path, capsys):
        args = ["--rootfs", str(mini_rootfs), "--trace", str(mini_trace_path),
                "--out", str(tmp_path / "out")]
        if case in MALFORMED_REPORTS:
            report = tmp_path / "report.json"
            report.write_text(MALFORMED_REPORTS[case])
            args += ["--vuln-report", str(report)]
            expected = 4 if command == "analyze" else 2
        else:
            MALFORMED_IMAGES[case](mini_rootfs)
            expected = 0
        code, _, stderr = run_cli(capsys, command, *args)
        assert code == expected
        assert "Traceback" not in stderr
        if expected == 0:
            assert stderr == ""
            return
        layout = "$.Results" if case.startswith("trivy") else "$.matches"
        if expected == 2:
            error = json.loads(stderr)["error"]
            assert error["flag"] == "--vuln-report"
            assert error["message"].startswith(layout)
        else:
            assert json.loads(stderr)["diagnostics"][0].startswith(
                f"vulnerability report ignored: {layout}")

    @pytest.mark.parametrize("kind", sorted(BAD_REPORTS))
    def test_analyze_records_bad_report_without_its_path(self, kind, mini_rootfs,
                                                        mini_trace_path, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_REPORTS[kind][0])
        out = tmp_path / "out"
        code, _, stderr = run_cli(capsys, "analyze", "--rootfs", str(mini_rootfs),
                                  "--trace", str(mini_trace_path),
                                  "--vuln-report", str(bad), "--out", str(out))
        assert code == 4
        expected = [BAD_REPORTS[kind][1]]
        assert json.loads(stderr) == {"diagnostics": expected}
        assert json.loads((out / "bundle.json").read_text())["partial_errors"] == expected

    @pytest.mark.parametrize("kind", sorted(BAD_REPORTS))
    def test_graph_treats_bad_report_as_optional(self, kind, mini_rootfs, mini_trace_path,
                                                 tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_REPORTS[kind][0])
        common = ["--rootfs", str(mini_rootfs), "--trace", str(mini_trace_path)]
        code, _, _ = run_cli(capsys, "graph", *common, "--out", str(tmp_path / "plain"))
        assert code == 0
        code, stdout, stderr = run_cli(capsys, "graph", *common, "--vuln-report", str(bad),
                                       "--out", str(tmp_path / "bad"))
        assert code == 4
        assert "4 nodes" in stdout
        assert json.loads(stderr) == {"diagnostics": [BAD_REPORTS[kind][1]]}
        doc = json.loads((tmp_path / "bad" / "graph.json").read_text())
        assert [n["vulns"] for n in doc["nodes"]] == [0] * len(doc["nodes"])
        for name in ("graph.json", "graph.dot"):
            assert ((tmp_path / "bad" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes())

    @pytest.mark.parametrize("kind", sorted(BAD_REPORTS))
    def test_vulns_requires_a_readable_report(self, kind, mini_rootfs, mini_trace_path,
                                              tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(BAD_REPORTS[kind][0])
        code, _, stderr = run_cli(capsys, "vulns", "--rootfs", str(mini_rootfs),
                                  "--trace", str(mini_trace_path),
                                  "--vuln-report", str(bad), "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["flag"] == "--vuln-report"
        assert error["message"] == BAD_REPORTS[kind][1].removeprefix(
            "vulnerability report ignored: ")
        assert not (tmp_path / "out" / "vulndiff.json").exists()


    @pytest.mark.parametrize("command", ["analyze", "packages", "graph"])
    def test_rules_not_utf8_is_input_error(self, command, mini_rootfs, mini_trace_path,
                                           tmp_path, capsys):
        rules = tmp_path / "rules.txt"
        rules.write_bytes(bytes(range(0x80, 0xC0)))  # 64 bytes, none may start a character
        args = [] if command == "packages" else ["--trace", str(mini_trace_path)]
        code, _, stderr = run_cli(capsys, command, "--rootfs", str(mini_rootfs), *args,
                                  "--rules", str(rules), "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["flag"] == "--rules"
        assert "not UTF-8" in error["message"]

    @pytest.mark.parametrize("command", ["analyze", "packages", "graph"])
    def test_rules_not_utf8_fails_before_ingest(self, command, mini_rootfs, mini_trace_path,
                                                tmp_path, capsys, monkeypatch):
        from bloatlens import report

        def no_ingest(*args, **kwargs):
            raise AssertionError("the image or trace was read before the rules")

        for loader in ("load_rootfs", "load_flat_tar", "load_layers", "parse_trace"):
            monkeypatch.setattr(report, loader, no_ingest)
        rules = tmp_path / "rules.txt"
        rules.write_bytes(bytes(range(0x80, 0xC0)))
        args = [] if command == "packages" else ["--trace", str(mini_trace_path)]
        code, _, stderr = run_cli(capsys, command, "--rootfs", str(mini_rootfs), *args,
                                  "--rules", str(rules), "--out", str(tmp_path / "out"))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--rules"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b'{"x":', b"[1, 2]", b"{}",
                                         b"[" * 200_000],
                             ids=["not-utf8", "not-json", "not-object", "no-sections",
                                  "too-deep"])
    def test_report_rejects_a_bad_bundle(self, content, tmp_path, capsys):
        bundle = tmp_path / "bundle.json"
        bundle.write_bytes(content)
        code, _, stderr = run_cli(capsys, "report", "--bundle", str(bundle),
                                  "--out", str(tmp_path / "out"))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--bundle"
        assert not (tmp_path / "out").exists()

    def test_report_rejects_a_number_too_large_to_print(self, tmp_path, capsys):
        with open(os.path.join(os.path.dirname(__file__), "golden", "mini_bundle.json")) as f:
            doc = json.load(f)
        doc["debloat"]["d_c"] = 10 ** 400
        bundle = tmp_path / "bundle.json"
        bundle.write_text(json.dumps(doc))
        code, _, stderr = run_cli(capsys, "report", "--bundle", str(bundle),
                                  "--out", str(tmp_path / "out"))
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["flag"] == "--bundle"
        assert error["message"].startswith("not a bloatlens bundle (OverflowError: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["container_id", "debloat", "packages", "graph",
                                         "pareto"])
    def test_report_needs_every_section_it_renders(self, section, mini_rootfs,
                                                   mini_trace_path, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "analyze", "--rootfs", str(mini_rootfs),
                             "--trace", str(mini_trace_path), "--out", str(tmp_path / "a"))
        assert code == 0
        doc = json.loads((tmp_path / "a" / "bundle.json").read_text())
        del doc[section]
        bundle = tmp_path / "partial.json"
        bundle.write_text(json.dumps(doc))
        code, _, stderr = run_cli(capsys, "report", "--bundle", str(bundle),
                                  "--out", str(tmp_path / "out"))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--bundle"
        assert not (tmp_path / "out").exists()  # nothing is written before all renders

    @pytest.mark.parametrize("out_at", ["under-a-file", "a-file"])
    @pytest.mark.parametrize("command", ["analyze", "vulns", "report"])
    def test_unwritable_out_fails_before_any_input_is_read(self, command, out_at, mini_rootfs,
                                                            mini_trace_path, mini_vuln_path,
                                                            tmp_path, capsys, monkeypatch):
        from bloatlens import report

        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before --out was checked")

        for loader in ("load_rootfs", "load_flat_tar", "load_layers", "parse_trace",
                       "load_rules", "load_any_report"):
            monkeypatch.setattr(report, loader, no_read)
        (tmp_path / "file").write_text("kept")
        out = tmp_path / "file" / "out" if out_at == "under-a-file" else tmp_path / "file"
        if command == "report":  # a bundle that is not JSON: reading it would name --bundle
            (tmp_path / "bundle.json").write_text('{"x":')
            args = ["--bundle", str(tmp_path / "bundle.json")]
        else:
            args = ["--rootfs", str(mini_rootfs), "--trace", str(mini_trace_path),
                    "--vuln-report", str(mini_vuln_path)]
        code, _, stderr = run_cli(capsys, command, *args, "--out", str(out))
        assert code == 2
        assert json.loads(stderr)["error"]["flag"] == "--out"
        assert (tmp_path / "file").read_text() == "kept"


class TestOutputLinks:
    """No output is written through a link already under --out; --out itself
    may be a link to a directory."""

    def analyze(self, capsys, mini_rootfs, mini_trace_path, out):
        return run_cli(capsys, "analyze", "--rootfs", str(mini_rootfs),
                       "--trace", str(mini_trace_path), "--emit-tar", "--out", str(out))

    @pytest.mark.parametrize("name", ["bundle.json", "debloated.tar"])
    def test_output_file_that_is_a_link_is_refused(self, name, mini_rootfs, mini_trace_path,
                                                   tmp_path, capsys):
        outside, out = tmp_path / "outside.txt", tmp_path / "out"
        outside.write_text("kept")
        out.mkdir()
        (out / name).symlink_to(outside)
        code, _, stderr = self.analyze(capsys, mini_rootfs, mini_trace_path, out)
        assert code == 2
        error = json.loads(stderr)["error"]
        assert error["flag"] == "--out"
        assert str(out / name) in error["message"]
        assert outside.read_text() == "kept"

    def test_report_directory_that_is_a_link_is_refused(self, mini_rootfs, mini_trace_path,
                                                        tmp_path, capsys):
        outside, out = tmp_path / "outside", tmp_path / "out"
        outside.mkdir()
        out.mkdir()
        (out / "tables").symlink_to(outside)
        code, _, stderr = self.analyze(capsys, mini_rootfs, mini_trace_path, out)
        assert code == 2
        assert str(out / "tables") in json.loads(stderr)["error"]["message"]
        assert list(outside.iterdir()) == []

    def test_out_that_is_a_link_to_a_directory_is_written(self, mini_rootfs, mini_trace_path,
                                                          tmp_path, capsys):
        real, out = tmp_path / "real", tmp_path / "out"
        real.mkdir()
        out.symlink_to(real)
        code, _, _ = self.analyze(capsys, mini_rootfs, mini_trace_path, out)
        assert code == 0
        assert (real / "bundle.json").is_file() and (real / "debloated.tar").is_file()
        assert len(list((real / "tables").iterdir())) == 7

    def test_rootfs_in_the_way_fails_before_any_input_is_read(self, mini_rootfs,
                                                              mini_trace_path, tmp_path,
                                                              capsys, monkeypatch):
        from bloatlens import report

        argv = ["debloat", "--rootfs", str(mini_rootfs), "--trace", str(mini_trace_path),
                "--emit-rootfs", "--out", str(tmp_path / "out")]
        assert run_cli(capsys, *argv)[0] == 0
        manifest = tmp_path / "out" / "manifest.tsv"
        before = (manifest.read_bytes(), manifest.stat().st_mtime_ns)

        def no_read(*args, **kwargs):
            raise AssertionError("an input was read before rootfs/ was checked")

        for loader in ("load_rootfs", "load_flat_tar", "load_layers", "parse_trace"):
            monkeypatch.setattr(report, loader, no_read)
        code, _, stderr = run_cli(capsys, *argv)
        assert code == 2
        assert str(tmp_path / "out" / "rootfs") in json.loads(stderr)["error"]["message"]
        assert (manifest.read_bytes(), manifest.stat().st_mtime_ns) == before

    def test_link_symlink_refuses_exits_2_naming_it(self, tmp_path, capsys):
        # A tar holds a link with an empty target; symlink(2) refuses to make one.
        tar = tmp_path / "t.tar"
        with tarfile.open(tar, "w") as tf:
            for name, typ in (("x", tarfile.DIRTYPE), ("x/empty", tarfile.SYMTYPE)):
                info = tarfile.TarInfo(name)
                info.type = typ
                tf.addfile(info)
        trace = tmp_path / "trace.log"
        trace.write_text('100 openat(AT_FDCWD, "/x/empty", O_RDONLY) = -1 ENOENT '
                         "(No such file or directory)\n")
        out = tmp_path / "out"
        code, _, stderr = run_cli(capsys, "debloat", "--layers", str(tar), "--trace", str(trace),
                                  "--include-failed", "--emit-rootfs", "--out", str(out))
        assert code == 2
        assert json.loads(stderr)["error"]["message"].startswith(
            "cannot write symlink /x/empty: ")


class TestStagesMatchAnalyze:
    """Each stage subcommand writes the same bytes analyze writes for the
    same inputs."""

    @pytest.fixture
    def outputs(self, mini_rootfs, mini_trace_path, mini_vuln_path, tmp_path, capsys):
        image = ["--rootfs", str(mini_rootfs), "--trace", str(mini_trace_path)]
        report = ["--vuln-report", str(mini_vuln_path)]
        runs = {
            "analyze": ["analyze", *image, *report, "--emit-tar"],
            "debloat": ["debloat", *image, "--emit-tar"],
            "vulns": ["vulns", *image, *report],
            "graph": ["graph", *image, *report],
            "packages": ["packages", "--rootfs", str(mini_rootfs)],
        }
        for name, argv in runs.items():
            code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / name))
            assert code == 0, name
        return tmp_path

    def test_every_json_file_is_sorted_with_indent_2(self, outputs):
        names = []
        for command in ("analyze", "debloat", "packages", "vulns", "graph"):
            for path in sorted((outputs / command).rglob("*.json")):
                text = path.read_text(encoding="utf-8")
                assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
                names.append(str(path.relative_to(outputs)))
        assert names == [
            "analyze/bundle.json", "analyze/graph.json",
            "analyze/plots/bloat_degree_histogram.json", "analyze/plots/cdf_pd_pr.json",
            "analyze/plots/pareto_original.json", "analyze/plots/pareto_retained.json",
            "analyze/plots/severity_table.json", "analyze/plots/violin_packages.json",
            "debloat/debloat.json", "packages/catalog.json", "vulns/vulndiff.json",
            "graph/graph.json"]

    def test_debloat_json_is_bundle_section(self, outputs):
        bundle = json.loads((outputs / "analyze" / "bundle.json").read_text())
        debloat = json.loads((outputs / "debloat" / "debloat.json").read_text())
        assert debloat == bundle["debloat"]

    @pytest.mark.parametrize("command, name, analyze_name", [
        ("debloat", "manifest.tsv", "manifest.tsv"),
        ("debloat", "debloated.tar", "debloated.tar"),
        ("graph", "graph.json", "graph.json"),
        ("graph", "graph.dot", "graph.dot"),
        ("vulns", "severity_table.csv", "tables/severity_table.csv"),
    ])
    def test_same_bytes(self, outputs, command, name, analyze_name):
        assert ((outputs / command / name).read_bytes()
                == (outputs / "analyze" / analyze_name).read_bytes())

    def test_vulndiff_counts_match_bundle(self, outputs):
        vuln = json.loads((outputs / "analyze" / "bundle.json").read_text())["vuln"]
        diff = json.loads((outputs / "vulns" / "vulndiff.json").read_text())
        assert diff == {**vuln, "removed": len(vuln["removed"]),
                        "retained": len(vuln["retained"])}


class TestOneAnalysis:
    """Every subcommand runs the one stage chain of ``report.Analysis``."""

    def test_each_command_runs_each_stage_its_outputs_need_once_in_order(
            self, mini_rootfs, mini_trace_path, mini_vuln_path, tmp_path, capsys, monkeypatch):
        from bloatlens import report

        calls = []
        for name in ("parse_trace", "debloat", "detect_packages", "surviving_cves",
                     "build_graph"):
            def spy(*args, _name=name, _real=getattr(report, name), **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(report, name, spy)
        image = ["--rootfs", str(mini_rootfs)]
        traced = [*image, "--trace", str(mini_trace_path)]
        report_flag = ["--vuln-report", str(mini_vuln_path)]
        runs = {"analyze": [*traced, *report_flag], "debloat": [*traced, "--emit-tar"],
                "packages": image, "vulns": [*traced, *report_flag],
                "graph": [*traced, *report_flag]}
        seen = {}
        for command, argv in runs.items():
            calls.clear()
            code, _, _ = run_cli(capsys, command, *argv, "--out", str(tmp_path / command))
            assert code == 0, command
            seen[command] = list(calls)
        chain = ["parse_trace", "debloat", "detect_packages", "surviving_cves", "build_graph"]
        assert seen == {"analyze": chain, "debloat": chain[:2], "packages": ["detect_packages"],
                        "vulns": chain[:4], "graph": chain}

    def test_each_stage_is_called_at_one_site(self):
        stages = ("debloat", "detect_packages", "surviving_cves", "build_graph", "to_node_link")
        sites = dict.fromkeys(stages, 0)
        for path in Path(bloatlens.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name in sites:
                        sites[name] += 1
        assert sites == dict.fromkeys(stages, 1)

    @pytest.mark.parametrize("command", ["analyze", "vulns", "graph"])
    def test_debloat_warns_before_packages(self, command, mini_rootfs, mini_trace_path,
                                           mini_vuln_path, tmp_path):
        for prefix in ("a", "b"):  # one pip name and version in two site directories
            di = mini_rootfs / prefix / "demo-1.dist-info"
            di.mkdir(parents=True)
            (di / "RECORD").write_text(f"{prefix}.py,,\n")
        trace = tmp_path / "trace.log"
        trace.write_text(mini_trace_path.read_text()
                         + '100 openat(AT_FDCWD, "/no/such/file", O_RDONLY) = 3\n')
        argv = [sys.executable, "-m", "bloatlens.cli", command, "--rootfs", str(mini_rootfs),
                "--trace", str(trace), "--vuln-report", str(mini_vuln_path),
                "--out", str(tmp_path / "out")]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bloatlens.__file__)),
               "BLOATLENS_LOG": "WARNING"}
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.splitlines() == [
            "WARNING bloatlens.debloat: 1 accessed paths are not in the filesystem (runtime "
            "files?); first missing path: '/no/such/file'",
            "WARNING bloatlens.packages: duplicate package record ('pip', 'demo', '1'); "
            "keeping the first"]


def merged_usr_inputs(kind, tmp_path, links=mergedusr.MERGED_LINKS):
    """(image flags, trace, report) of the merged-/usr fixture with these
    links, as a rootfs or as two layer tars."""
    trace, report = mergedusr.write_inputs(tmp_path)
    if kind == "rootfs":
        return ["--rootfs", str(mergedusr.build_rootfs(tmp_path / "rootfs", links))], trace, report
    return ["--layers", *map(str, mergedusr.build_layers(tmp_path / "layers", links))], trace, report


@pytest.fixture(params=["rootfs", "layers"])
def merged_usr(request, tmp_path):
    return merged_usr_inputs(request.param, tmp_path)


class TestMergedUsr:
    """/bin and /lib are links into /usr; the trace, the dpkg file lists and
    the scanner report name files through them."""

    def test_analyze_follows_the_links(self, merged_usr, tmp_path, capsys):
        image, trace, report = merged_usr
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "analyze", *image, "--trace", str(trace),
                             "--vuln-report", str(report), "--out", str(out))
        assert code == 0
        doc = json.loads((out / "bundle.json").read_text())
        assert doc["debloat"]["d_c"] == 0.800373
        assert doc["debloat"]["files_retained"] == 10
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert {line.split("\t")[2] for line in manifest} == mergedusr.RETAINED
        assert {r["name"]: (r["size"], r["d_p"]) for r in doc["packages"]["catalog"]} == {
            "libc6": (3000, 0.0), "libunused1": (7000, 1.0), "python3": (100, 0.0)}
        assert doc["vuln"]["reduction"] == 0.5
        # Locations are written as the entries they name.
        assert [(m["cve_id"], m["locations"]) for m in doc["vuln"]["removed"]] == [
            ("CVE-2", ["/usr/lib/x86_64-linux-gnu/libunused.so.1"])]
        assert [(m["cve_id"], m["locations"]) for m in doc["vuln"]["retained"]] == [
            ("CVE-1", ["/usr/lib/x86_64-linux-gnu/libc.so.6"])]

    def test_debloated_rootfs_keeps_the_links(self, merged_usr, tmp_path, capsys):
        image, trace, _ = merged_usr
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "debloat", *image, "--trace", str(trace),
                             "--emit-rootfs", "--out", str(out))
        assert code == 0
        rootfs = out / "rootfs"
        assert os.readlink(rootfs / "lib") == "usr/lib"
        assert os.readlink(rootfs / "bin") == "usr/bin"
        assert os.readlink(rootfs / "usr" / "bin" / "python3") == "python3.11"
        libdir = rootfs / "usr" / "lib" / "x86_64-linux-gnu"
        assert not (libdir / "libc.so.6").is_symlink()
        assert (libdir / "libc.so.6").stat().st_size == 3000
        assert sorted(os.listdir(libdir)) == ["libc.so.6"]
        assert sorted(os.listdir(rootfs)) == ["bin", "lib", "usr"]

    def test_keep_globs_follow_the_links_in_their_directory_part(self, merged_usr, tmp_path,
                                                                 capsys):
        image, trace, _ = merged_usr
        trace.write_text("100 exit_group(0) = ?\n")
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "debloat", *image, "--trace", str(trace),
                             "--keep", "/lib/x86_64-linux-gnu/*", "--out", str(out))
        assert code == 0
        manifest = (out / "manifest.tsv").read_text().splitlines()
        assert {line.split("\t")[2] for line in manifest} == {
            "/", "/lib", "/usr", "/usr/lib", "/usr/lib/x86_64-linux-gnu",
            "/usr/lib/x86_64-linux-gnu/libc.so.6", "/usr/lib/x86_64-linux-gnu/libunused.so.1"}

    @pytest.mark.parametrize("kind", ["rootfs", "layers"])
    def test_paths_through_a_link_into_no_directory_keep_their_spelling(self, kind, tmp_path,
                                                                         capsys):
        # /lib -> gone/../usr/lib reaches nothing (ENOENT at gone), so the dpkg
        # list paths and scanner locations under /lib name no entry.
        image, trace, report = merged_usr_inputs(
            kind, tmp_path, [("bin", "usr/bin"), ("lib", "gone/../usr/lib")])
        out = tmp_path / "out"
        code, _, _ = run_cli(capsys, "analyze", *image, "--trace", str(trace),
                             "--vuln-report", str(report), "--out", str(out))
        assert code == 0
        doc = json.loads((out / "bundle.json").read_text())
        assert {r["name"]: r["size"] for r in doc["packages"]["catalog"]} == {
            "libc6": 0, "libunused1": 0, "python3": 100}
        assert doc["vuln"]["removed"] == []
        assert [(m["cve_id"], m["locations"]) for m in doc["vuln"]["retained"]] == [
            ("CVE-1", ["/lib/x86_64-linux-gnu/libc.so.6"]),
            ("CVE-2", ["/lib/x86_64-linux-gnu/libunused.so.1"])]
