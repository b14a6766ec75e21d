import ast
import copy
import json
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bloatlens
from bloatlens import report, vuln
from bloatlens.debloat import compute_bloat, compute_retained
from bloatlens.errors import VulnReportError
from bloatlens.imagefs import FileEntry, FileSet, load_rootfs
from bloatlens.packages import PackageRecord, detect_packages
from bloatlens.trace import AccessSet, parse_trace
from bloatlens.vuln import (
    SEVERITIES,
    VulnDiff,
    VulnMatch,
    load_report,
    severity_table,
    surviving_cves,
)

from oracles import catalog_match_oracle, report_oracle, vuln_survival_oracle


def match(cve="CVE-1", sev="High", name="pkg", version="1", locations=()):
    return VulnMatch(cve_id=cve, severity=sev, pkg_name=name,
                     pkg_version=version, locations=frozenset(locations))


def fs_from(paths):
    entries = {"/": FileEntry("/", "directory")}
    for p in paths:
        entries[p] = FileEntry(p, "regular", 1)
    return FileSet(entries)


def grype_doc(*matches):
    return {"matches": list(matches)}


def grype_match(cve, sev, name, version, locations=()):
    return {
        "vulnerability": {"id": cve, "severity": sev},
        "artifact": {
            "name": name,
            "version": version,
            "locations": [{"path": p} for p in locations],
        },
    }


_LABELS = (*SEVERITIES, "Unknown", "none", "")


def _any_case(label: str):
    flips = st.lists(st.booleans(), min_size=len(label), max_size=len(label))
    return flips.map(lambda up: "".join(c.upper() if u else c.lower()
                                        for c, u in zip(label, up)))


@st.composite
def _findings(draw):
    """(id, severity, name, version) rows: a severity in any letter case, or null."""
    text = st.text("ab1.-", min_size=1, max_size=3)
    severity = st.none() | st.sampled_from(_LABELS).flatmap(_any_case)
    return draw(st.lists(st.tuples(text.map("CVE-".__add__), severity, text, text),
                         max_size=10))


class TestLoadReport:
    def test_empty_matches(self):
        assert load_report(grype_doc()) == []

    def test_three_matches_one_without_locations(self):
        doc = grype_doc(
            grype_match("CVE-1", "High", "a", "1", ["/x"]),
            grype_match("CVE-2", "Low", "b", "2", ["/y", "/z"]),
            grype_match("CVE-3", "Medium", "c", "3"),
        )
        out = load_report(doc)
        assert len(out) == 3
        empty = next(m for m in out if m.cve_id == "CVE-3")
        assert empty.locations == frozenset()

    def test_duplicates_merge_locations(self):
        doc = grype_doc(
            grype_match("CVE-1", "High", "a", "1", ["/x"]),
            grype_match("CVE-1", "High", "a", "1", ["/y"]),
        )
        out = load_report(doc)
        assert len(out) == 1
        assert out[0].locations == {"/x", "/y"}

    def test_severity_normalized_case_insensitively(self):
        out = load_report(grype_doc(grype_match("CVE-1", "cRiTiCaL", "a", "1")))
        assert out[0].severity == "Critical"

    def test_unknown_severity_maps_to_negligible(self):
        out = load_report(grype_doc(grype_match("CVE-1", "Unknown", "a", "1")))
        assert out[0].severity == "Negligible"

    def test_label_outside_the_alias_table_reads_as_negligible(self, caplog):
        out = load_report(grype_doc(grype_match("CVE-1", "Severe", "a", "1")))
        assert out[0].severity == "Negligible"
        assert "unknown severity 'Severe'; treating as Negligible" in caplog.text

    def test_conflicting_severities_keep_the_first(self, caplog):
        out = load_report(grype_doc(grype_match("CVE-1", "High", "a", "1"),
                                    grype_match("CVE-1", "Low", "a", "1")))
        assert [m.severity for m in out] == ["High"]
        assert "conflicting severities for ('CVE-1', 'a', '1'); keeping High" in caplog.text

    def test_bare_array_accepted(self):
        out = load_report([grype_match("CVE-1", "High", "a", "1")])
        assert len(out) == 1

    def test_missing_field_is_fatal_with_json_path(self):
        doc = {"matches": [{"vulnerability": {"id": "CVE-1"}}]}
        with pytest.raises(VulnReportError, match=r"matches\[0\]"):
            load_report(doc)

    def test_location_missing_path_is_fatal(self):
        doc = grype_doc(grype_match("CVE-1", "High", "a", "1"))
        doc["matches"][0]["artifact"]["locations"] = [{"not_path": "/x"}]
        with pytest.raises(VulnReportError, match=r"locations\[0\]"):
            load_report(doc)

    @pytest.mark.parametrize("loader, doc, message", [
        (load_report, {"Results": [1]}, "$.Results[0] is not an object"),
        (load_report, {"Results": [{"Vulnerabilities": 5}]},
         "$.Results[0].Vulnerabilities is not an array"),
        (load_report, {"Results": [{"Vulnerabilities": [
            {"VulnerabilityID": "CVE-1", "PkgName": "a"},
            {"VulnerabilityID": "CVE-2", "PkgName": "b"},
            {"VulnerabilityID": "CVE-3"}]}]},
         "missing required field at $.Results[0].Vulnerabilities[2].PkgName"),
        (load_report, {"Results": [{"Vulnerabilities": [
            {"VulnerabilityID": "", "PkgName": "a"}]}]},
         "$.Results[0].Vulnerabilities[0].VulnerabilityID must be a non-empty string"),
        (load_report, {"Results": [{"Vulnerabilities": [
            {"VulnerabilityID": "CVE-1", "PkgName": ""}]}]},
         "$.Results[0].Vulnerabilities[0].PkgName must be non-empty for a finding "
         "without locations"),
        (load_report, {"matches": [{"vulnerability": {"id": "CVE-1", "severity": "High"},
                                    "artifact": {"name": "a", "version": "1",
                                                 "locations": 5}}]},
         "$.matches[0].artifact.locations is not an array"),
        (load_report, grype_doc(grype_match("CVE-1", "High", "", "1")),
         "$.matches[0].artifact.name must be non-empty for a finding without locations"),
    ], ids=["trivy-result-not-object", "trivy-vulnerabilities-not-array",
            "trivy-missing-pkgname", "trivy-empty-id", "trivy-empty-pkgname",
            "grype-locations-not-array", "grype-empty-name"])
    def test_wrong_shape_names_its_layouts_json_path(self, loader, doc, message):
        with pytest.raises(VulnReportError) as err:
            loader(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("loader, doc, message", [
        (load_report, {"matches": [{"vulnerability": {"id": "CVE-1", "severity": None},
                                    "artifact": {"name": None, "version": None}}]},
         "$.matches[0].artifact.name must not be null"),
        (load_report, grype_doc(grype_match("CVE-1", "High", "a", None)),
         "$.matches[0].artifact.version must not be null"),
        (load_report, grype_doc(grype_match("CVE-1", "High", "a", "1", [None])),
         "$.matches[0].artifact.locations[0].path must not be null"),
        (load_report, {"Results": [{"Vulnerabilities": [
            {"VulnerabilityID": "CVE-1", "PkgName": None, "InstalledVersion": "1"}]}]},
         "$.Results[0].Vulnerabilities[0].PkgName must not be null"),
    ], ids=["grype-null-name", "grype-null-version", "grype-null-location-path",
            "trivy-null-pkgname"])
    def test_null_identity_field_names_its_json_path(self, loader, doc, message):
        with pytest.raises(VulnReportError) as err:
            loader(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("loader, doc, expected", [
        (load_report, grype_doc(grype_match("CVE-1", None, "a", "1")),
         match("CVE-1", "Negligible", "a", "1")),
        (load_report, {"Results": [{"Vulnerabilities": [
            {"VulnerabilityID": "CVE-1", "PkgName": "a", "Severity": None,
             "InstalledVersion": None}]}]},
         match("CVE-1", "Negligible", "a", "")),
    ], ids=["grype-null-severity", "trivy-null-severity-and-version"])
    def test_null_severity_and_trivy_version_read_as_absent(self, loader, doc, expected):
        assert loader(doc) == [expected]

    def test_relative_location_normalized(self):
        doc = grype_doc(grype_match("CVE-1", "High", "a", "1", ["usr/lib/x"]))
        assert load_report(doc)[0].locations == {"/usr/lib/x"}

    @pytest.mark.parametrize("location", [
        "/usr/lib/libx.so/", "/usr//lib/libx.so", "/usr/lib/./libx.so",
        "/usr/share/../lib/libx.so"])
    def test_non_normal_location_matches_the_inventory(self, location):
        matches = load_report(grype_doc(grype_match("CVE-1", "High", "a", "1", [location])))
        assert matches[0].locations == {"/usr/lib/libx.so"}
        diff = surviving_cves(matches, fs_from(["/usr/lib/libx.so"]))
        assert diff.removed == tuple(matches)

    def test_mini_fixture_loads_twelve(self, mini_vuln_path):
        doc = json.loads(mini_vuln_path.read_text())
        assert len(load_report(doc)) == 12


class TestTrivyConversion:
    def test_basic_result(self):
        doc = {"Results": [{"Target": "ubuntu", "Vulnerabilities": [
            {"VulnerabilityID": "CVE-9", "Severity": "HIGH",
             "PkgName": "openssl", "InstalledVersion": "1.1"},
        ]}]}
        out = load_report(doc)
        assert out == [match("CVE-9", "High", "openssl", "1.1")]

    def test_unknown_severity_defaults(self):
        doc = {"Results": [{"Vulnerabilities": [
            {"VulnerabilityID": "CVE-9", "PkgName": "x", "InstalledVersion": "1"},
        ]}]}
        assert load_report(doc)[0].severity == "Negligible"

    @given(_findings(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_trivy_and_grype_layouts_read_alike(self, findings, data):
        vulns = [{"VulnerabilityID": cve, "Severity": sev, "PkgName": name,
                  "InstalledVersion": version} for cve, sev, name, version in findings]
        cuts = sorted(data.draw(st.lists(st.integers(0, len(vulns)), max_size=2)))
        results = [{"Vulnerabilities": vulns[a:b]}
                   for a, b in zip([0, *cuts], [*cuts, len(vulns)])]
        grype = grype_doc(*(grype_match(*f) for f in findings))
        out = load_report({"Results": results})
        assert out == load_report(grype)
        assert len(out) == len({(cve, name, version) for cve, _, name, version in findings})


_IDS = st.sampled_from(["CVE-1", "CVE-2", "GHSA-1"])
_NAMES = st.sampled_from(["a", "b", "é"])
_VERSIONS = st.sampled_from(["1", "2.0", ""])
_SEVERITY = st.sampled_from(["High", "low", "CRITICAL", "Unknown", "", "Severe"])
# Optional fields are present in a valid report; faults delete or null them.
_GRYPE_MATCH = st.fixed_dictionaries({  # the artifact first: its fields are the deepest
    "artifact": st.fixed_dictionaries({
        "locations": st.lists(st.fixed_dictionaries(
            {"path": st.sampled_from(["/usr/lib/x", "usr//lib/x/", "/a/../b", "/c"])}),
            min_size=1, max_size=3),
        "name": _NAMES, "version": _VERSIONS}),
    "vulnerability": st.fixed_dictionaries({"id": _IDS, "severity": st.none() | _SEVERITY}),
})
_TRIVY_VULN = st.fixed_dictionaries({
    "VulnerabilityID": _IDS, "PkgName": _NAMES, "Severity": st.none() | _SEVERITY,
    "InstalledVersion": st.none() | _VERSIONS})
_REPORTS = st.one_of(
    st.lists(_GRYPE_MATCH, min_size=2, max_size=4).map(lambda ms: {"matches": ms}),
    st.lists(_GRYPE_MATCH, min_size=2, max_size=4),
    st.lists(st.fixed_dictionaries({"Vulnerabilities": st.lists(_TRIVY_VULN, min_size=1,
                                                                max_size=3)}),
             min_size=2, max_size=3).map(lambda results: {"Results": results}),
)
# A fault: the field an empty string (an empty name may lose its locations too),
# deleted, nulled or of a wrong type.
_FAULTS = st.sampled_from(["", "delete", None, 7, "text", [], {}, True])


def _sites(node, label="$"):
    """(label, container, key) of every value in a decoded document, deepest
    first; the label is the value's field name, or its list's label with "[]"."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        inner = key if isinstance(key, str) else label + "[]"
        if isinstance(value, (dict, list)):
            yield from _sites(value, inner)
        yield inner, node, key


@st.composite
def _faulty_reports(draw):
    """A valid report with up to two faults, and how many it has. A fault picks
    a field name first, so that a deep field is hit as often as the document."""
    holder = [draw(_REPORTS)]
    faults = draw(st.sampled_from([1, 2, 0]))
    for _ in range(faults):
        sites = {}
        for label, node, key in _sites(holder):
            sites.setdefault(label, []).append((node, key))
        # The last site of a name first, as its indexes differ more often than the first's.
        node, key = draw(st.sampled_from(sites[draw(st.sampled_from(list(sites)))][::-1]))
        fault = copy.copy(draw(_FAULTS))
        if fault == "" and key == "name" and draw(st.booleans()):
            node.pop("locations", None)
        if fault == "delete" and isinstance(node, dict):
            del node[key]
        else:
            node[key] = None if fault == "delete" else fault
    return holder[0], faults


def _checked_rows(doc) -> list[tuple]:
    """load_report's rows; each match it built unchecked equals the VulnMatch
    that the checking constructor builds from its fields."""
    rows = []
    for m in load_report(doc):
        assert m == VulnMatch(m.cve_id, m.severity, m.pkg_name, m.pkg_version, m.locations), m
        rows.append((m.cve_id, m.severity, m.pkg_name, m.pkg_version, m.locations))
    return rows


def _outcome(read, doc):
    """The rows a reader gives, or the message of its VulnReportError."""
    try:
        return read(doc)
    except VulnReportError as exc:
        return str(exc)


class TestReaderOracle:
    @given(_faulty_reports())
    @settings(max_examples=250, deadline=None)
    def test_reader_agrees_with_the_step_by_step_oracle(self, case):
        doc, faults = case
        rows = _outcome(_checked_rows, doc)
        assert rows == _outcome(report_oracle, doc)
        assert faults or isinstance(rows, list)  # a valid report reads

    def test_keys_that_differ_in_non_ascii_or_nul_keep_the_tuple_order(self):
        # Joined into one string with a \0 separator, ('a', '1\0') would sort after
        # ('a\0', '1'); as UTF-16, U+1F600 would sort before U+FF21.
        keys = [("CVE-1", "a", "1\0"), ("CVE-1", "a\0", "1"), ("CVE-1\0", "a", "1"),
                ("CVE-1", "é", "1"), ("CVE-1", "e\u0301", "1"), ("CVE-1", "\uff21", "1"),
                ("CVE-1", "\U0001f600", "1"), ("CVE-1", "a", "é"), ("CVE-1", "a", "1")]
        doc = grype_doc(*(grype_match(cve, "High", name, version, ["/x"])
                          for cve, name, version in reversed(keys)))
        rows = _checked_rows(doc)
        assert [(cve, name, version) for cve, _, name, version, _ in rows] == sorted(keys)
        assert rows == report_oracle(doc)


class TestOneReader:
    def test_report_reads_with_the_vuln_loader(self):
        assert report.load_any_report is vuln.load_any_report

    def test_src_holds_one_reader_and_one_read(self):
        src = "".join(p.read_text() for p in Path(bloatlens.__file__).parent.glob("*.py"))
        assert src.count("def load_any_report(") == 1
        assert src.count("load_any_report(") == 2  # its definition and open_inputs' call
        assert "vuln_diff" not in src and "load_trivy_report" not in src

    def test_one_reader_per_layout_spells_json_paths_only_to_raise(self):
        tree = ast.parse(Path(vuln.__file__).read_text())

        def readers(key):
            return [f.name for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
                    and any(isinstance(n, ast.Constant) and n.value == key for n in ast.walk(f))]

        assert readers("artifact") == ["_grype_findings"]
        assert readers("VulnerabilityID") == ["_trivy_findings"]
        raised = {id(n) for r in ast.walk(tree) if isinstance(r, ast.Raise) for n in ast.walk(r)}
        paths = [n for n in ast.walk(tree) if isinstance(n, ast.JoinedStr) and any(
            isinstance(v, ast.Constant) and "$" in v.value for v in n.values)]
        assert paths and all(id(n) in raised for n in paths)


class TestSurvivingCves:
    def test_all_locations_in_bloat_removed(self):
        bloat = fs_from(["/a", "/b"])
        diff = surviving_cves([match(locations=["/a", "/b"])], bloat)
        assert len(diff.removed) == 1

    def test_one_retained_location_keeps_match(self):
        bloat = fs_from(["/a"])
        diff = surviving_cves([match(locations=["/a", "/kept"])], bloat)
        assert len(diff.retained) == 1

    def test_locationless_falls_back_to_package_files(self):
        bloat = fs_from(["/p1", "/p2"])
        from test_packages import pkg  # reuse the record helper

        catalog = [pkg(name="pkg", version="1", files={"/p1", "/p2"}, size=2)]
        diff = surviving_cves([match()], bloat, catalog)
        assert len(diff.removed) == 1

    def test_locationless_with_partially_retained_package(self):
        bloat = fs_from(["/p1"])
        from test_packages import pkg

        catalog = [pkg(name="pkg", version="1", files={"/p1", "/kept"}, size=2)]
        diff = surviving_cves([match()], bloat, catalog)
        assert len(diff.retained) == 1

    def test_unresolvable_match_retained_conservatively(self):
        diff = surviving_cves([match(name="ghost")], fs_from(["/a"]))
        assert len(diff.retained) == 1

    def test_empty_package_retained_conservatively(self):
        from test_packages import pkg

        catalog = [pkg(name="pkg", version="1", files=set(), size=0)]
        diff = surviving_cves([match()], fs_from(["/a"]), catalog)
        assert len(diff.retained) == 1

    def test_normalized_name_match(self):
        from test_packages import pkg

        catalog = [pkg(manager="pip", name="numpy-lite", version="1.0",
                       files={"/gone"}, size=1)]
        bloat = fs_from(["/gone"])
        diff = surviving_cves([match(name="numpy_lite", version="1.0")], bloat, catalog)
        assert len(diff.removed) == 1

    def test_partition_and_reduction(self):
        bloat = fs_from(["/dead"])
        matches = [
            match("CVE-1", locations=["/dead"]),
            match("CVE-2", locations=["/alive"]),
            match("CVE-3", locations=["/dead", "/alive"]),
        ]
        diff = surviving_cves(matches, bloat)
        assert len(diff.removed) + len(diff.retained) == 3
        assert diff.reduction == pytest.approx(1 / 3)

    def test_empty_input(self):
        diff = surviving_cves([], fs_from([]))
        assert diff == VulnDiff((), (), None)

    def test_mini_fixture_matches_standalone_oracle(self, mini_rootfs,
                                                    mini_trace_path, mini_vuln_path):
        fs, source = load_rootfs(mini_rootfs)
        access = parse_trace(mini_trace_path)
        retained = compute_retained(fs, access)
        bloat = compute_bloat(fs, retained)
        catalog = detect_packages(fs, source)
        matches = load_report(json.loads(mini_vuln_path.read_text()))
        diff = surviving_cves(matches, bloat, catalog)

        files_by_pkg = {}
        for rec in catalog:
            files_by_pkg[(rec.name, rec.version)] = rec.files
        # Scanner names needing pip normalization, as the oracle sees them.
        files_by_pkg[("numpy_lite", "1.0")] = files_by_pkg[("numpy-lite", "1.0")]
        files_by_pkg[("Widget-Tools", "1.2.0")] = files_by_pkg[("widget-tools", "1.2.0")]
        bloat_paths = set(bloat.entries)
        for m in matches:
            expected_removed = vuln_survival_oracle(m, bloat_paths, files_by_pkg)
            assert (m in diff.removed) == expected_removed, m.cve_id
            assert (m in diff.retained) == (not expected_removed), m.cve_id

    def test_mini_fixture_expected_partition(self, mini_rootfs, mini_trace_path,
                                             mini_vuln_path):
        fs, source = load_rootfs(mini_rootfs)
        retained = compute_retained(fs, parse_trace(mini_trace_path))
        bloat = compute_bloat(fs, retained)
        catalog = detect_packages(fs, source)
        matches = load_report(json.loads(mini_vuln_path.read_text()))
        diff = surviving_cves(matches, bloat, catalog)
        assert {m.cve_id for m in diff.removed} == {
            "CVE-2020-0001",  # all locations bloat
            "CVE-2020-0003",  # sole location bloat
            "CVE-2020-0005",  # locationless, every numpy-lite file bloat
            "CVE-2020-0009",  # conda file bloat
            "CVE-2020-0010",  # directory location bloat
            "CVE-2020-0011",  # pip file bloat
        }
        assert {m.cve_id for m in diff.retained} == {
            "CVE-2020-0002",  # one location retained
            "CVE-2020-0004",  # libb file list includes retained ancestor dirs
            "CVE-2020-0006",  # widget-tools partially used
            "CVE-2020-0007",  # symlink location retained
            "CVE-2020-0008",  # unresolvable package, conservative
            "CVE-2020-0012",  # not in catalog, conservative
        }

    def test_monotonicity_shrinking_bloat(self):
        matches = [
            match("CVE-1", locations=["/a"]),
            match("CVE-2", locations=["/a", "/b"]),
            match("CVE-3", locations=["/b"]),
        ]
        big = fs_from(["/a", "/b"])
        small = fs_from(["/a"])
        removed_big = {m.cve_id for m in surviving_cves(matches, big).removed}
        removed_small = {m.cve_id for m in surviving_cves(matches, small).removed}
        assert removed_small <= removed_big


class TestSeverityTable:
    def _diff_with_totals(self, before_by_sev, after_by_sev):
        removed, retained = [], []
        i = 0
        for sev in ("Critical", "High", "Medium", "Low", "Negligible"):
            total = before_by_sev.get(sev, 0)
            keep = after_by_sev.get(sev, 0)
            for j in range(total):
                i += 1
                m = match(f"CVE-{i}", sev, f"p{i}", "1", [f"/f{i}"])
                (retained if j < keep else removed).append(m)
        total = len(removed) + len(retained)
        return VulnDiff(tuple(removed), tuple(retained),
                        len(removed) / total if total else None)

    def test_paper_row_c6_99_percent(self):
        diff = self._diff_with_totals(
            {"Critical": 0, "High": 51, "Medium": 531, "Low": 239, "Negligible": 66},
            {"Critical": 0, "High": 0, "Medium": 1, "Low": 7, "Negligible": 0},
        )
        table = severity_table(diff)
        assert table.total_before == 887
        assert table.total_after == 8
        assert table.reduction_percent == 99

    def test_paper_row_c2_95_percent(self):
        diff = self._diff_with_totals(
            {"Critical": 4, "High": 41, "Medium": 207, "Low": 84, "Negligible": 54},
            {"Critical": 3, "High": 10, "Medium": 7, "Low": 0, "Negligible": 0},
        )
        table = severity_table(diff)
        assert table.total_before == 390
        assert table.total_after == 20
        assert table.reduction_percent == 95

    def test_empty_reduction_absent(self):
        table = severity_table(VulnDiff((), (), None))
        assert table.total_before == 0
        assert table.reduction_percent is None
        assert all(b == 0 and a == 0 for _, b, a in table.rows)

    def test_totals_match_diff_cardinalities(self):
        diff = self._diff_with_totals({"High": 5, "Low": 2}, {"High": 1})
        table = severity_table(diff)
        assert table.total_before == len(diff.removed) + len(diff.retained)
        assert table.total_after == len(diff.retained)

    def test_retained_subset_of_original(self):
        diff = self._diff_with_totals({"High": 3}, {"High": 1})
        original = set(diff.removed) | set(diff.retained)
        assert set(diff.retained) <= original


# Spellings of one PEP 503 name, another name, and one no record carries.
_NAMES = ("Widget_Tools", "widget.tools", "widget-tools", "libz", "ghost")
_PATHS = ("/a", "/b", "/c", "/d")


@st.composite
def _catalog_and_matches(draw):
    paths = st.frozensets(st.sampled_from(_PATHS))
    record = st.builds(PackageRecord, manager=st.sampled_from(("apt", "pip", "conda")),
                       name=st.sampled_from(_NAMES[:-1]), version=st.sampled_from("12"),
                       files=paths)
    catalog = draw(st.lists(record, max_size=8))
    # One name under two managers, at drawn places in catalog order.
    name, version = draw(st.sampled_from(_NAMES[:-1])), draw(st.sampled_from("12"))
    for manager in draw(st.permutations(("apt", "pip", "conda")))[:2]:
        at = draw(st.integers(0, len(catalog)))
        catalog.insert(at, PackageRecord(manager, name, version, draw(paths)))
    finding = st.tuples(st.sampled_from(_NAMES), st.sampled_from("12"), paths)
    matches = [VulnMatch(f"CVE-{i}", "High", n, v, locs)
               for i, (n, v, locs) in enumerate(draw(st.lists(finding, max_size=10)))]
    return catalog, matches, fs_from(draw(paths))


class TestSingleResolution:
    @given(_catalog_and_matches())
    @settings(max_examples=150, deadline=None)
    def test_counts_and_survival_follow_first_catalog_match(self, case):
        catalog, matches, bloat = case
        diff = surviving_cves(matches, bloat, catalog)
        expected = Counter()
        for m in matches:
            rec = catalog_match_oracle(m, catalog)
            if rec is not None:
                expected[rec.graph_key] += 1
            files_by_pkg = {(m.pkg_name, m.pkg_version): rec.files} if rec else {}
            removed = vuln_survival_oracle(m, set(bloat.entries), files_by_pkg)
            assert (m in diff.removed) == removed, m
            assert (m in diff.retained) == (not removed), m
        assert diff.by_package == dict(expected)


class TestVulnCounts:
    def test_counts_by_package(self, mini_rootfs, mini_vuln_path):
        fs, source = load_rootfs(mini_rootfs)
        catalog = detect_packages(fs, source)
        matches = load_report(json.loads(mini_vuln_path.read_text()))
        counts = surviving_cves(matches, fs_from([]), catalog).by_package
        assert counts == {
            "apt:liba": 4,
            "apt:libb": 2,
            "pip:widget-tools": 2,
            "pip:numpy-lite": 1,
            "conda:condapkg": 1,
        }


class TestVulnMatchInvariants:
    def test_unknown_severity_rejected_at_construction(self):
        with pytest.raises(ValueError):
            VulnMatch("CVE-1", "Catastrophic", "p", "1")

    def test_empty_locations_require_package_name(self):
        with pytest.raises(ValueError):
            VulnMatch("CVE-1", "High", "", "1")
