"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion. Criterion 1 allows for the printed precision of all three
numbers in a Table 2 row: the two sizes (0.01 GB) and the published ratio
(0.01) each stand for any value within half a unit of what is printed. A
row passes when the ratio's rounding interval overlaps the range
``container_bloat_degree`` takes over the sizes' rounding box. Row c10,
printed as (6.34 GB, 3.90 GB, 0.39), gives 0.384858 from the printed sizes,
but true sizes of 6.344 and 3.896 GB print the same and give 0.3859, which
prints as 0.39.
"""

import json
import os
import random
import tarfile
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bloatlens.debloat import (
    compute_bloat,
    compute_retained,
    container_bloat_degree,
    debloat,
)
from bloatlens.depgraph import build_graph, pd_aggregate, pd_set, pr_set
from bloatlens.imagefs import FileEntry, FileSet, load_layers, load_rootfs
from bloatlens.packages import package_bloat_degree, size_reduction_R
from bloatlens.report import PipelineConfig, run_pipeline
from bloatlens.trace import AccessSet, parse_trace
from bloatlens.vuln import VulnDiff, VulnMatch, severity_table, surviving_cves

from fixtures import minicontainer
from oracles import (
    fileset_inventory,
    naive_retained_closure,
    reachability_oracle,
    sequential_extract_union,
)
from test_debloat import random_fileset, through_dir_links
from test_depgraph import pip_pkg, random_dag
from test_imagefs import make_tar

# (original, debloated, published d_c) per container row.
TABLE2_SIZE_PAIRS = [
    ("c1", 6.34, 2.22, 0.65),
    ("c2", 8.52, 1.74, 0.80),
    ("c3", 15.10, 3.28, 0.78),
    ("c4", 11.30, 2.74, 0.76),
    ("c5", 4.54, 1.90, 0.58),
    ("c6", 8.43, 2.25, 0.73),
    ("c7", 6.34, 2.21, 0.65),
    ("c8", 8.52, 1.79, 0.79),
    ("c9", 12.00, 5.86, 0.51),
    ("c10", 6.34, 3.90, 0.39),
    ("c11", 8.52, 1.79, 0.79),
    ("c12", 4.49, 1.94, 0.57),
    ("c13", 8.43, 3.92, 0.53),
    ("c14", 6.34, 4.04, 0.36),
    ("c15", 11.50, 4.05, 0.65),
]

TABLE3_SIZE_PAIRS = [
    ("nginx", 133, 6, 0.95),
    ("redis", 151, 12, 0.92),
    ("mongo", 317, 46, 0.85),
    ("python", 119, 30, 0.75),
    ("registry", 33, 28, 0.15),
    ("haproxy", 137, 10, 0.93),
    ("appcontainers/mediawiki", 576, 244, 0.58),
    ("eugeneware/docker-wordpress-nginx", 602, 207, 0.66),
    ("sebp/elk", 985, 251, 0.75),
]


TABLE2_HALF_UNIT = Fraction("0.005")


def table2_row_interval(s_c, s_c_prime):
    """Bounds of d_c over the rounding box of two sizes printed to 0.01 GB.

    d_c rises with s_c and falls with s_c', so the box's corners bound it.
    """
    h = TABLE2_HALF_UNIT
    s_c, s_c_prime = Fraction(str(s_c)), Fraction(str(s_c_prime))
    lo = container_bloat_degree(s_c - h, s_c_prime + h)
    hi = container_bloat_degree(s_c + h, s_c_prime - h)
    return lo, hi


def table2_row_consistent(s_c, s_c_prime, published):
    """True when the published d_c, printed to 0.01, fits the printed sizes."""
    lo, hi = table2_row_interval(s_c, s_c_prime)
    p = Fraction(str(published))
    return p - TABLE2_HALF_UNIT <= hi and lo <= p + TABLE2_HALF_UNIT


def test_criterion_01_container_bloat_degree_table2_replication():
    start = time.monotonic()
    failures = []
    for name, s_c, s_c_prime, published in TABLE2_SIZE_PAIRS:
        if not table2_row_consistent(s_c, s_c_prime, published):
            computed = container_bloat_degree(s_c, s_c_prime)
            lo, hi = table2_row_interval(s_c, s_c_prime)
            failures.append(
                f"{name}: ({s_c} GB, {s_c_prime} GB) -> {computed:.6f}, range "
                f"[{float(lo):.6f}, {float(hi):.6f}] over the sizes' rounding, "
                f"published {published}"
            )
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert not failures, (
        f"{len(TABLE2_SIZE_PAIRS) - len(failures)}/{len(TABLE2_SIZE_PAIRS)} rows "
        "consistent; the published d_c of the remaining rows lies outside "
        "what their printed sizes allow: " + "; ".join(failures)
    )


def test_criterion_01_rejects_wrong_published_ratios():
    wrong = []
    for name, s_c, s_c_prime, published in TABLE2_SIZE_PAIRS:
        for shift in ("-0.02", "0.02"):
            p = Fraction(str(published)) + Fraction(shift)
            wrong.append((f"{name} {shift}", s_c, s_c_prime, p))
        # The wrong formula: the kept share s_c'/s_c instead of d_c.
        kept = round(Fraction(str(s_c_prime)) / Fraction(str(s_c)), 2)
        wrong.append((f"{name} s_c'/s_c", s_c, s_c_prime, kept))
    wrong += [("c10 0.37", 6.34, 3.90, 0.37), ("c10 0.40", 6.34, 3.90, 0.40)]
    accepted = [label for label, s_c, s_c_prime, p in wrong
                if table2_row_consistent(s_c, s_c_prime, p)]
    assert not accepted
    # The rule stays tight: two-decimal values within half a unit of the
    # sizes' range are accepted, and for c10 that is exactly 0.38 and 0.39.
    accepted_c10 = [p / 100 for p in range(101)
                    if table2_row_consistent(6.34, 3.90, Fraction(p, 100))]
    assert accepted_c10 == [0.38, 0.39]


def test_criterion_02_generic_containers_table3_replication():
    for name, s_c, s_c_prime, published in TABLE3_SIZE_PAIRS:
        computed = container_bloat_degree(s_c, s_c_prime)
        assert computed == pytest.approx(published, abs=0.005), name


def test_criterion_03_six_node_worked_example():
    catalog = [
        pip_pkg("p0", ["p1", "p2"]),
        pip_pkg("p1"),
        pip_pkg("p2"),
        pip_pkg("p3", ["p0"]),
        pip_pkg("p4", ["p0"]),
        pip_pkg("p5", ["p0"]),
    ]
    d_p = {"pip:p0": 0.2, "pip:p1": 0.4, "pip:p2": 0.6,
           "pip:p3": 0.1, "pip:p4": 0.1, "pip:p5": 0.1}
    vulns = {"pip:p1": 2, "pip:p2": 4}
    g = build_graph(catalog, d_p, vulns)
    assert len(pd_set(g, "pip:p0")) == 2
    assert len(pr_set(g, "pip:p0")) == 3
    avg, total = pd_aggregate(g, "pip:p0")
    assert avg == 0.5
    assert total == 6


def _synthetic_diff(before, after):
    removed, retained = [], []
    i = 0
    for sev in ("Critical", "High", "Medium", "Low", "Negligible"):
        for j in range(before.get(sev, 0)):
            i += 1
            m = VulnMatch(f"CVE-{i}", sev, f"pkg{i}", "1", frozenset({f"/f{i}"}))
            (retained if j < after.get(sev, 0) else removed).append(m)
    total = len(removed) + len(retained)
    return VulnDiff(tuple(removed), tuple(retained),
                    len(removed) / total if total else None)


def test_criterion_04_severity_table_reductions():
    # Table rows with (before, after) totals (887, 8) and (390, 20).
    c6 = _synthetic_diff(
        {"Critical": 0, "High": 51, "Medium": 531, "Low": 239, "Negligible": 66},
        {"Critical": 0, "High": 0, "Medium": 1, "Low": 7, "Negligible": 0},
    )
    t6 = severity_table(c6)
    assert (t6.total_before, t6.total_after) == (887, 8)
    assert t6.reduction_percent == 99

    c2 = _synthetic_diff(
        {"Critical": 4, "High": 41, "Medium": 207, "Low": 84, "Negligible": 54},
        {"Critical": 3, "High": 10, "Medium": 7, "Low": 0, "Negligible": 0},
    )
    t2 = severity_table(c2)
    assert (t2.total_before, t2.total_after) == (390, 20)
    assert t2.reduction_percent == 95


def test_criterion_05_libcudnn_case_study():
    # 1.55 GB of declared package files; a single 155 KB shim retained.
    big_files = {f"/usr/lib/x86_64/libcudnn_part{i}.so": 155_000_000 for i in range(10)}
    shim = ("/usr/lib/x86_64/libcudnn.so.8.2.4", 155_000)
    from bloatlens.packages import APT, PackageRecord

    total = sum(big_files.values()) + shim[1]
    pkg = PackageRecord(manager=APT, name="libcudnn8", version="8.2.4",
                        files=frozenset(big_files) | {shim[0]}, size=total)
    bloat_entries = {"/": FileEntry("/", "directory")}
    for path, size in big_files.items():
        bloat_entries[path] = FileEntry(path, "regular", size)
    bloat = FileSet(bloat_entries)
    d_p = package_bloat_degree(pkg, bloat)
    assert d_p > 0.99


def test_criterion_06_debloat_closure_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20240601)
    for _ in range(50):
        fs = random_fileset(rng, 500)
        candidates = [p for p in fs.entries if p != "/"]
        accessed = set(rng.sample(candidates, rng.randint(0, len(candidates) // 3)))
        spelled = through_dir_links(fs)
        accessed |= set(rng.sample(spelled, rng.randint(0, min(20, len(spelled)))))
        missing = {f"/runtime-only-{i}" for i in range(rng.randint(0, 3))}
        retained = compute_retained(fs, AccessSet(frozenset(accessed | missing)))
        assert set(retained.entries) == naive_retained_closure(fs, accessed)
    assert time.monotonic() - start < 10.0


def test_criterion_07_graph_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20240602)
    import networkx as nx

    for _ in range(50):
        catalog, d_p, vulns = random_dag(rng, rng.randint(5, 100))
        g = build_graph(catalog, d_p, vulns)
        keys = sorted(g.nodes)
        forward = reachability_oracle(keys, set(g.edges))
        backward = reachability_oracle(keys, {(b, a) for a, b in g.edges})
        pd_cache = {k: pd_set(g, k) for k in keys}
        pr_cache = {k: pr_set(g, k) for k in keys}
        for k in keys:
            assert pd_cache[k] == forward[k]
            assert pr_cache[k] == backward[k]
        # depth = shortest path from the start set, plus one
        nxg = nx.DiGraph()
        nxg.add_nodes_from(keys)
        nxg.add_edges_from(g.edges)
        start_nodes = [k for k in keys if g.nodes[k].d_p < 1]
        dist = nx.multi_source_dijkstra_path_length(nxg, start_nodes, weight=None)
        for k in keys:
            assert g.nodes[k].depth == dist[k] + 1
        # PD/PR duality over every node pair
        for p in keys:
            for q in keys:
                assert (q in pd_cache[p]) == (p in pr_cache[q])
    assert time.monotonic() - start < 10.0


GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "mini_bundle.json")


def _run_golden_pipeline(tmp_path, monkeypatch):
    fixtures_dir = os.path.join(os.path.dirname(__file__), "fixtures")
    minicontainer.build_rootfs(tmp_path / "rootfs")
    for name, dest in (("mini_trace.log", "trace.log"), ("mini_vuln.json", "vuln.json")):
        with open(os.path.join(fixtures_dir, name), "rb") as f:
            (tmp_path / dest).write_bytes(f.read())
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    config = PipelineConfig(
        rootfs="rootfs", trace="trace.log", vuln_report="vuln.json",
        container_id="mini", out="out", emit_tar=True,
    )
    return run_pipeline(config)


def test_criterion_08_end_to_end_golden_fixture(tmp_path, monkeypatch):
    bundle = _run_golden_pipeline(tmp_path, monkeypatch)
    doc = bundle.document

    # The bundle numbers must match per-module oracles before the golden
    # bytes mean anything.
    fs = load_rootfs(tmp_path / "rootfs")[0]
    assert set(bundle.debloat.retained.entries) == minicontainer.EXPECTED_RETAINED
    assert set(bundle.debloat.retained.entries) == naive_retained_closure(
        fs, minicontainer.ACCESSED)
    assert doc["debloat"]["s_c"] == minicontainer.total_bytes()
    assert doc["debloat"]["s_c_prime"] == minicontainer.RETAINED_BYTES
    assert doc["debloat"]["d_c"] == round(
        (minicontainer.total_bytes() - minicontainer.RETAINED_BYTES)
        / minicontainer.total_bytes(), 6)

    # Hand-computed package bloat degrees.
    meta = len(minicontainer.WIDGET_TOOLS_METADATA.encode())
    rec = len(minicontainer.WIDGET_TOOLS_RECORD.encode())
    wt_total = 150 + 250 + 30 + meta + rec
    expected_dp = {
        ("apt", "liba"): 40 / 210,
        ("apt", "libb"): 1.0,
        ("pip", "widget-tools"): (250 + 30 + meta + rec) / wt_total,
        ("pip", "numpy-lite"): 1.0,
        ("conda", "condapkg"): 1.0,
    }
    got_dp = {(r["manager"], r["name"]): r["d_p"] for r in doc["packages"]["catalog"]}
    assert got_dp.keys() == expected_dp.keys()
    for key, value in expected_dp.items():
        assert got_dp[key] == pytest.approx(value, abs=1e-6), key

    # Vulnerability partition per the standalone rule.
    assert {m.cve_id for m in bundle.vuln.removed} == {
        "CVE-2020-0001", "CVE-2020-0003", "CVE-2020-0005",
        "CVE-2020-0009", "CVE-2020-0010", "CVE-2020-0011",
    }
    assert doc["vuln"]["severity_table"]["total_before"] == 12
    assert doc["vuln"]["severity_table"]["total_after"] == 6
    assert doc["vuln"]["severity_table"]["reduction_percent"] == 50

    # Graph structure.
    assert set(bundle.graph.nodes) == {
        "apt:liba", "apt:libb", "pip:widget-tools", "pip:numpy-lite"}
    assert bundle.graph.nodes["apt:liba"].depth == 1
    assert bundle.graph.nodes["apt:libb"].depth == 2
    assert bundle.graph.nodes["pip:widget-tools"].depth == 1
    assert bundle.graph.nodes["pip:numpy-lite"].depth == 2
    assert bundle.graph.edges == {("apt:liba", "apt:libb"),
                                  ("pip:widget-tools", "pip:numpy-lite")}
    assert bundle.graph.excluded == ("conda:condapkg",)
    assert bundle.graph.nodes["apt:liba"].vuln_count == 4

    # Materialized debloated tar round-trips through load_rootfs.
    extracted = tmp_path / "extracted"
    with tarfile.open(tmp_path / "out" / "debloated.tar") as tf:
        tf.extractall(extracted)
    assert load_rootfs(extracted)[0] == bundle.debloat.retained

    # Byte-for-byte golden comparison of the bundle document.
    produced = (tmp_path / "out" / "bundle.json").read_bytes()
    if os.environ.get("BLOATLENS_UPDATE_GOLDEN"):
        os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
        with open(GOLDEN_PATH, "wb") as f:
            f.write(produced)
        pytest.skip("golden file regenerated")
    golden = Path(GOLDEN_PATH).read_bytes()
    assert produced == golden


def test_criterion_09_property_suites():
    rng = random.Random(20240603)

    # d_c, d_p, R stay in [0, 1]; retained/bloat partition the original.
    for _ in range(25):
        fs = random_fileset(rng, 120)
        candidates = [p for p in fs.entries if p != "/"]
        accessed = set(rng.sample(candidates, rng.randint(0, len(candidates) // 2)))
        result = debloat(fs, AccessSet(frozenset(accessed)))
        assert 0.0 <= result.d_c <= 1.0
        assert set(result.retained.entries) | set(result.bloat.entries) == set(fs.entries)
        assert set(result.retained.entries) & set(result.bloat.entries) == set()
        from bloatlens.imagefs import total_size

        assert total_size(result.retained) + total_size(result.bloat) == total_size(fs)

        pkg_paths = rng.sample(candidates, min(10, len(candidates)))
        from bloatlens.packages import PIP, PackageRecord

        recs = []
        for i, p in enumerate(pkg_paths):
            entry = fs.entries[p]
            size = entry.size if entry.kind == "regular" else 0
            recs.append(PackageRecord(manager=PIP, name=f"g{i}", version="1",
                                      files=frozenset({p}), size=size))
        pairs = []
        for rec in recs:
            dp = package_bloat_degree(rec, result.bloat, fs)
            assert 0.0 <= dp <= 1.0
            pairs.append((rec, dp))
        r = size_reduction_R(pairs)
        assert r is None or 0.0 <= r <= 1.0

    # Enlarging the access set is monotone for d_c and every d_p.
    for _ in range(10):
        fs = random_fileset(rng, 100)
        candidates = [p for p in fs.entries if p != "/"]
        small = set(rng.sample(candidates, rng.randint(0, len(candidates) // 3)))
        big = small | set(rng.sample(candidates, rng.randint(0, len(candidates) // 3)))
        r_small = debloat(fs, AccessSet(frozenset(small)))
        r_big = debloat(fs, AccessSet(frozenset(big)))
        assert r_big.d_c <= r_small.d_c
        from bloatlens.packages import PIP, PackageRecord

        for i, p in enumerate(rng.sample(candidates, min(8, len(candidates)))):
            entry = fs.entries[p]
            size = entry.size if entry.kind == "regular" else 0
            rec = PackageRecord(manager=PIP, name=f"m{i}", version="1",
                                files=frozenset({p}), size=size)
            assert package_bloat_degree(rec, r_big.bloat, fs) <= \
                package_bloat_degree(rec, r_small.bloat, fs)

    # Vulnerability monotonicity: a smaller bloat set never removes more CVEs.
    for _ in range(10):
        paths = [f"/lib/v{i}" for i in range(12)]
        matches = []
        for i in range(10):
            locs = frozenset(rng.sample(paths, rng.randint(1, 3)))
            matches.append(VulnMatch(f"CVE-{i}", "High", f"p{i}", "1", locs))
        big_paths = set(rng.sample(paths, rng.randint(0, len(paths))))
        small_paths = {p for p in big_paths if rng.random() < 0.6}

        def bloat_of(pathset):
            entries = {"/": FileEntry("/", "directory")}
            entries.update({p: FileEntry(p, "regular", 1) for p in pathset})
            return FileSet(entries)

        removed_small = {m.cve_id for m in
                         surviving_cves(matches, bloat_of(small_paths)).removed}
        removed_big = {m.cve_id for m in
                       surviving_cves(matches, bloat_of(big_paths)).removed}
        assert removed_small <= removed_big


def test_criterion_09_pipeline_determinism(tmp_path, monkeypatch):
    snapshots = []
    for sub in ("run1", "run2"):
        base = tmp_path / sub
        base.mkdir()
        _run_golden_pipeline(base, monkeypatch)
        snapshot = {}
        for path in sorted((base / "out").rglob("*")):
            if path.is_file():
                snapshot[str(path.relative_to(base / "out"))] = path.read_bytes()
        snapshots.append(snapshot)
    assert snapshots[0] == snapshots[1]


def test_criterion_10_whiteout_semantics_vs_sequential_extraction(tmp_path):
    # Layer 1: base tree. Layer 2: replacement + plain whiteout.
    # Layer 3: opaque whiteout + re-add.
    l1 = make_tar(tmp_path / "l1.tar", [
        ("bin", "dir", None),
        ("bin/tool", "file", b"v1-tool"),
        ("etc", "dir", None),
        ("etc/app.conf", "file", b"conf-one"),
        ("etc/keep.conf", "file", b"keep"),
        ("opt", "dir", None),
        ("opt/cache", "dir", None),
        ("opt/cache/a", "file", b"aaaa"),
        ("opt/cache/sub", "dir", None),
        ("opt/cache/sub/b", "file", b"bb"),
        ("lib", "dir", None),
        ("lib/libx.so.1", "file", b"x" * 64),
        ("lib/libx.so", "sym", "libx.so.1"),
    ])
    l2 = make_tar(tmp_path / "l2.tar", [
        ("bin/tool", "file", b"v2-tool-longer"),  # replacement
        ("etc/.wh.app.conf", "file", b""),        # plain whiteout
        ("srv", "dir", None),
        ("srv/new", "file", b"n"),
    ])
    l3 = make_tar(tmp_path / "l3.tar", [
        ("opt/cache/.wh..wh..opq", "file", b""),  # opaque: empty the dir
        ("opt/cache/fresh", "file", b"fresh"),
    ])
    layers = [l1, l2, l3]
    fs, source = load_layers(layers)
    source.close()
    oracle = sequential_extract_union(layers, tmp_path / "scratch")
    assert fileset_inventory(fs) == oracle
    # Spot checks of each semantic rule.
    assert fs.entries["/bin/tool"].size == len(b"v2-tool-longer")
    assert "/etc/app.conf" not in fs.entries
    assert "/etc/keep.conf" in fs.entries
    assert "/opt/cache/a" not in fs.entries
    assert "/opt/cache/sub" not in fs.entries
    assert fs.entries["/opt/cache/fresh"].size == 5
    assert fs.entries["/lib/libx.so"].link_target == "libx.so.1"
