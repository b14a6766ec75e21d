import copy
import gc
import json
import math
import tarfile
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloatlens.cli import main
from bloatlens.errors import ContractViolation, InputError
from bloatlens.imagefs import FileEntry, FileSet
from bloatlens.report import (
    PipelineConfig,
    Rendered,
    bloat_degree_histogram,
    cdf_points,
    dump_json,
    pareto_files,
    run_pipeline,
    tables_from_document,
    vuln_section,
    write_outputs,
)
from bloatlens.vuln import SEVERITIES, VulnDiff, VulnMatch

from fixtures import minicontainer


def fs_with_sizes(sizes: dict[str, int]) -> FileSet:
    entries = {"/": FileEntry("/", "directory")}
    for name, size in sizes.items():
        path = f"/{name}"
        entries[path] = FileEntry(path, "regular", size)
    return FileSet(entries)


class TestParetoFiles:
    def test_single_file(self):
        fs = fs_with_sizes({"only": 10})
        assert pareto_files(fs, 0.8) == [("/only", 10, 1.0)]

    def test_hand_arithmetic(self):
        fs = fs_with_sizes({"a": 50, "b": 30, "c": 20})
        rows = pareto_files(fs, 0.8)
        assert [(p, s) for p, s, _ in rows] == [("/a", 50), ("/b", 30)]
        assert rows[-1][2] == pytest.approx(0.8)

    def test_ties_broken_by_path(self):
        fs = fs_with_sizes({"z": 10, "a": 10, "m": 10})
        rows = pareto_files(fs, 1.0)
        assert [p for p, _, _ in rows] == ["/a", "/m", "/z"]

    def test_empty_fs(self):
        fs = FileSet({"/": FileEntry("/", "directory")})
        assert pareto_files(fs, 0.8) == []

    def test_invalid_fraction(self):
        fs = fs_with_sizes({"a": 1})
        with pytest.raises(ContractViolation):
            pareto_files(fs, 0.0)
        with pytest.raises(ContractViolation):
            pareto_files(fs, 1.5)

    def test_cumulative_fractions_nondecreasing(self):
        fs = fs_with_sizes({f"f{i}": (i * 37) % 101 + 1 for i in range(30)})
        rows = pareto_files(fs, 1.0)
        fracs = [c for _, _, c in rows]
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)


class TestHistogram:
    def test_all_ones_in_last_bin(self):
        assert bloat_degree_histogram([1.0, 1.0, 1.0]) == [0] * 9 + [3]

    def test_hand_counted(self):
        assert bloat_degree_histogram([0.05, 0.95, 1.0]) == [1, 0, 0, 0, 0, 0, 0, 0, 0, 2]

    def test_empty(self):
        assert bloat_degree_histogram([]) == [0] * 10

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            bloat_degree_histogram([1.2])
        with pytest.raises(ContractViolation):
            bloat_degree_histogram([-0.1])

    def test_decimal_boundaries_bin_correctly(self):
        # 0.3 parses to a float a hair under 3/10; both must land in bin 3.
        assert bloat_degree_histogram([0.3]) == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        assert bloat_degree_histogram([3 / 10]) == [0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
        assert bloat_degree_histogram([0.7]) == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0]

    def test_bin_width_covers_unit_interval(self):
        values = [i / 100 for i in range(101)]
        counts = bloat_degree_histogram(values)
        assert sum(counts) == 101
        assert counts == [10, 10, 10, 10, 10, 10, 10, 10, 10, 11]


class TestCdfPoints:
    def test_single_value(self):
        assert cdf_points([5]) == [(5, 1.0)]

    def test_duplicates_collapse(self):
        points = cdf_points([1, 1, 3])
        assert points[0][0] == 1
        assert points[0][1] == pytest.approx(2 / 3, abs=1e-9)
        assert points[1] == (3, 1.0)

    def test_monotone_in_both_coordinates(self):
        values = [0.4, 0.1, 0.4, 0.9, 0.2, 0.2]
        points = cdf_points(values)
        xs = [v for v, _ in points]
        ps = [p for _, p in points]
        assert xs == sorted(xs)
        assert ps == sorted(ps)
        assert math.isclose(ps[-1], 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            cdf_points([])


class TestRunPipeline:
    def _config(self, mini_rootfs, mini_trace_path, tmp_path, **kw):
        return PipelineConfig(
            rootfs=str(mini_rootfs),
            trace=str(mini_trace_path),
            container_id="mini",
            out=str(tmp_path / "out"),
            **kw,
        )

    def test_missing_trace_names_flag(self, mini_rootfs, tmp_path):
        config = PipelineConfig(rootfs=str(mini_rootfs), trace=None)
        with pytest.raises(InputError) as exc:
            run_pipeline(config)
        assert exc.value.flag == "--trace"

    def test_gzip_layer_stack_is_closed(self, mini_rootfs, mini_trace_path, tmp_path):
        base, upper = tmp_path / "base.tar", tmp_path / "upper.tar.gz"
        with tarfile.open(base, "w") as tf:
            tf.add(mini_rootfs, arcname=".")
        with tarfile.open(upper, "w:gz") as tf:
            tf.add(mini_rootfs / "app", arcname="app")
        config = PipelineConfig(layers=(str(base), str(upper)), trace=str(mini_trace_path),
                                out=str(tmp_path / "out"), emit_tar=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            run_pipeline(config)
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []

    def test_both_image_inputs_rejected(self, mini_rootfs, mini_trace_path):
        config = PipelineConfig(rootfs=str(mini_rootfs), layers=("x.tar",),
                                trace=str(mini_trace_path))
        with pytest.raises(InputError):
            run_pipeline(config)

    def test_without_vuln_report_section_absent(self, mini_rootfs, mini_trace_path,
                                                tmp_path):
        bundle = run_pipeline(self._config(mini_rootfs, mini_trace_path, tmp_path))
        assert bundle.vuln is None
        assert bundle.document["vuln"] is None
        assert bundle.partial_errors == []
        out = tmp_path / "out"
        assert (out / "bundle.json").is_file()
        assert (out / "manifest.tsv").is_file()
        assert (out / "graph.json").is_file()
        assert not (out / "tables" / "severity_table.csv").exists()

    def test_unreadable_vuln_report_is_partial(self, mini_rootfs, mini_trace_path,
                                               tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"matches": [{"vulnerability": {}}]}')
        bundle = run_pipeline(self._config(mini_rootfs, mini_trace_path, tmp_path,
                                           vuln_report=str(bad)))
        assert bundle.vuln is None
        assert bundle.partial_errors

    def test_deterministic_outputs(self, mini_rootfs, mini_trace_path,
                                   mini_vuln_path, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        outputs = []
        for sub in ("one", "two"):
            out = tmp_path / sub
            config = PipelineConfig(
                rootfs=str(mini_rootfs), trace=str(mini_trace_path),
                vuln_report=str(mini_vuln_path), container_id="mini",
                out=str(out), emit_tar=True,
            )
            run_pipeline(config)
            snapshot = {}
            for path in sorted(out.rglob("*")):
                if path.is_file():
                    snapshot[str(path.relative_to(out))] = path.read_bytes()
            outputs.append(snapshot)
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    def test_timestamp_isolated_to_provenance(self, mini_rootfs, mini_trace_path,
                                              tmp_path, monkeypatch):
        docs = []
        for sub, epoch in (("a", "1000000000"), ("b", "1700000000")):
            monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
            bundle = run_pipeline(self._config(mini_rootfs, mini_trace_path,
                                               tmp_path / sub))
            docs.append(bundle.document)
        a, b = docs
        assert a["provenance"]["generated_at"] != b["provenance"]["generated_at"]
        a["provenance"] = b["provenance"] = None
        assert a == b

    def test_tables_rederivable_from_bundle_alone(self, mini_rootfs, mini_trace_path,
                                                  mini_vuln_path, tmp_path):
        config = PipelineConfig(
            rootfs=str(mini_rootfs), trace=str(mini_trace_path),
            vuln_report=str(mini_vuln_path), container_id="mini",
            out=str(tmp_path / "out"),
        )
        run_pipeline(config)
        out = tmp_path / "out"
        doc = json.loads((out / "bundle.json").read_text())
        regenerated = tables_from_document(doc)
        for name, text in regenerated.items():
            on_disk = (out / "tables" / name).read_text()
            assert on_disk == text, name
        # report --bundle rewrites every table and plot file byte for byte
        assert main(["report", "--bundle", str(out / "bundle.json"),
                     "--out", str(tmp_path / "again")]) == 0
        for subdir in ("tables", "plots"):
            names = sorted(p.name for p in (out / subdir).iterdir())
            assert names == sorted(p.name for p in (tmp_path / "again" / subdir).iterdir())
            for name in names:
                assert ((out / subdir / name).read_bytes()
                        == (tmp_path / "again" / subdir / name).read_bytes()), name
        node_link = {k: doc["graph"][k]
                     for k in ("nodes", "edges", "excluded", "dangling_dependencies")}
        assert (out / "graph.json").read_text() == dump_json(node_link)

    def test_outputs_bypass_the_pure_python_encoder(self, mini_rootfs, mini_trace_path,
                                                    mini_vuln_path, tmp_path, monkeypatch):
        # json.dumps with ``indent`` builds its encoder here; the writer must not.
        def slow_path(*args, **kwargs):
            raise AssertionError("an output went through json's pure-Python encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", slow_path)
        run_pipeline(self._config(mini_rootfs, mini_trace_path, tmp_path,
                                  vuln_report=str(mini_vuln_path)))
        out = tmp_path / "out"
        assert sorted(str(p.relative_to(out)) for p in out.rglob("*.json")) == [
            "bundle.json", "graph.json", "plots/bloat_degree_histogram.json",
            "plots/cdf_pd_pr.json", "plots/pareto_original.json",
            "plots/pareto_retained.json", "plots/severity_table.json",
            "plots/violin_packages.json"]

    def test_bundle_core_numbers(self, mini_rootfs, mini_trace_path, tmp_path):
        from fixtures.minicontainer import RETAINED_BYTES, total_bytes

        bundle = run_pipeline(self._config(mini_rootfs, mini_trace_path, tmp_path))
        doc = bundle.document
        assert doc["debloat"]["s_c"] == total_bytes()
        assert doc["debloat"]["s_c_prime"] == RETAINED_BYTES
        expected_dc = (total_bytes() - RETAINED_BYTES) / total_bytes()
        assert doc["debloat"]["d_c"] == pytest.approx(expected_dc, abs=1e-6)
        assert len(doc["packages"]["catalog"]) == 5


class Real(float):
    """A float subclass with its own repr: json writes the float's."""

    def __repr__(self):
        return "Real()"

    __str__ = __repr__


class Count(int):
    def __repr__(self):
        return "Count()"

    __str__ = __repr__


def stdlib_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def rendered(value) -> Rendered:
    """``value`` pre-rendered for dump_json to splice in, as analyze renders a section."""
    return Rendered(dump_json(value)[:-1])


_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),  # surrogates included
    st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé😀'),
), max_size=8)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                     math.nan, math.inf, -math.inf]),
)
_SCALARS = st.one_of(
    _TEXT, st.integers(), st.booleans(), st.none(), _FLOATS,
    _FLOATS.map(Real), st.integers().map(Count),
)
_VALUES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=5),
    st.lists(children, max_size=5).map(tuple),
    st.dictionaries(_TEXT, children, max_size=5),
), max_leaves=40)


class TestDumpJson:
    @settings(max_examples=200, deadline=None)
    @given(_VALUES)
    def test_matches_stdlib_indent_2(self, value):
        blocks = []
        assert dump_json(value, blocks.append) is None
        assert dump_json(value) == "".join(blocks) == stdlib_json(value)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}]},
        {None: 1}, {True: 2, False: 3}, {3: 3, 1.5: 4, -1: 5},  # keys json writes as str
        {math.nan: 0}, {-0.0: [math.inf, -math.inf]}, {"big": [2**200, -2**64, 10**300]},
    ])
    def test_edge_documents(self, value):
        assert dump_json(value) == stdlib_json(value)

    @settings(max_examples=200, deadline=None)
    @given(_VALUES, st.data())
    def test_rendered_subtrees_splice_at_any_depth(self, value, data):
        def splice(o):  # render some subtrees, some of them inside others
            if isinstance(o, dict):
                o = {k: splice(v) for k, v in o.items()}
            elif isinstance(o, (list, tuple)):
                o = type(o)(splice(v) for v in o)
            return rendered(o) if data.draw(st.booleans()) else o

        assert dump_json(splice(value)) == stdlib_json(value)

    @pytest.mark.parametrize("value", [
        [], {}, (), [[], {}, ()], ("\n\x00é😀\u2028", {"\t": ["\r", None]}),
    ])
    def test_rendered_edge_values_splice_at_nested_depths(self, value):
        for depth in range(4):
            doc = rendered(value)
            for _ in range(depth):
                doc = {"k": [1, doc]}
            expected = value
            for _ in range(depth):
                expected = {"k": [1, expected]}
            assert dump_json(doc) == stdlib_json(expected)

    def test_keeps_nothing_but_the_text_on_return(self):
        # With the collector off only reference counts free memory, so a block of
        # the writer's still alive after the call shows as traced memory.
        doc = {"rows": [{"path": f"/p/{i}", "size": i} for i in range(20000)]}
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            text = dump_json(doc)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert grown < 1.2 * len(text)

    def test_a_sink_holds_no_more_than_a_few_blocks(self):
        doc = {"rows": [{"path": f"/p/{i}", "size": i} for i in range(25000)]}
        sizes = []
        gc.disable()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            dump_json(doc, lambda block: sizes.append(len(block)))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            gc.enable()
        assert sum(sizes) == len(stdlib_json(doc)) and len(sizes) > 16
        assert peak < 8 * max(sizes)

    def test_large_document_crosses_block_joins(self):
        rows = [{"path": f"/opt/é/{i}", "size": i * 7919, "ratio": i / 7,
                 "tags": [str(i), None, i % 2 == 0]} for i in range(3000)]
        doc = {"rows": rows, "nested": {"deep": [rows[:50], {"k": rows[-50:]}]}}
        assert dump_json(doc) == stdlib_json(doc)

    @pytest.mark.parametrize("value", [
        {"a": {1, 2}}, [b"bytes"], object(), {(1, 2): "tuple key"}, {"a": [{"b": set()}]},
    ])
    def test_unserializable_raises_type_error(self, value):
        with pytest.raises(TypeError):
            stdlib_json(value)
        with pytest.raises(TypeError):
            dump_json(value)


@pytest.fixture(scope="module")
def mini_bundle(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini") / "rootfs"
    minicontainer.build_rootfs(root)
    fixtures = Path(__file__).parent / "fixtures"
    return run_pipeline(PipelineConfig(rootfs=str(root), trace=str(fixtures / "mini_trace.log"),
                                       vuln_report=str(fixtures / "mini_vuln.json")))


_MATCHES = st.tuples(_TEXT, st.sampled_from(SEVERITIES), _TEXT, _TEXT,
                     st.frozensets(_TEXT, max_size=3)).filter(lambda m: m[2] or m[4])


class TestVulnRows:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(_MATCHES, max_size=4), st.lists(_MATCHES, max_size=4))
    def test_bundle_json_writes_the_rows_as_json_does(self, mini_bundle, removed, retained):
        removed, retained = ([VulnMatch(*m) for m in ms] for ms in (removed, retained))
        total = len(removed) + len(retained)
        diff = VulnDiff(tuple(removed), tuple(retained), len(removed) / total if total else None)
        bundle = copy.copy(mini_bundle)  # keeps every stage the run computed
        bundle.vuln, bundle.document = diff, {**mini_bundle.document, "vuln": vuln_section(diff)}
        with tempfile.TemporaryDirectory() as out:
            bundle.config = PipelineConfig(out=out)
            write_outputs(bundle)
            text = (Path(out) / "bundle.json").read_text(encoding="ascii")
        assert text == stdlib_json(bundle.document)
