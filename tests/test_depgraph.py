import json
import random
import re
import statistics
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bloatlens.depgraph import (
    GraphNode,
    PackageAttrGraph,
    build_graph,
    closure_sizes,
    depth_correlations,
    pd_aggregate,
    pd_set,
    pr_set,
    to_dot,
    to_node_link,
)
from bloatlens.packages import APT, CONDA, PIP, PackageRecord

from oracles import reachability_oracle


def pip_pkg(name, deps=(), files=("/f",), size=1):
    return PackageRecord(manager=PIP, name=name, version="1",
                         files=frozenset(files), size=size,
                         declared_deps=tuple((d,) for d in deps))


def apt_pkg(name, deps=(), provides=(), version="1"):
    """deps: list of alternative tuples."""
    return PackageRecord(manager=APT, name=name, version=version,
                         files=frozenset({f"/{name}"}), size=1,
                         declared_deps=tuple(tuple(g) for g in deps),
                         provides=tuple(provides))


def random_dag(rng: random.Random, n: int):
    """Random DAG as a pip catalog plus d_p/vuln maps."""
    names = [f"p{i}" for i in range(n)]
    deps = {name: [] for name in names}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < min(0.15, 4 / n):
                deps[names[i]].append(names[j])
    catalog = [pip_pkg(name, deps[name]) for name in names]
    d_p = {f"pip:{name}": rng.choice([0.0, 0.3, 0.7, 1.0]) for name in names}
    if all(v >= 1 for v in d_p.values()):
        d_p[f"pip:{names[0]}"] = 0.5  # guarantee a nonempty start set
    vulns = {f"pip:{name}": rng.randint(0, 5) for name in names}
    return catalog, d_p, vulns


def random_digraph(rng: random.Random, n: int) -> PackageAttrGraph:
    """A directly built graph with cycles: sparse random edges (back edges
    and self-loops included), plus a ring over a random span and a smaller
    ring nested inside it, so that multi-node SCCs always occur."""
    keys = [f"{rng.choice([PIP, APT])}:p{i:03d}" for i in range(n)]
    edges = {(a, b) for a in keys for b in keys if rng.random() < 1.2 / n}
    edges.add((keys[0], keys[0]))
    lo, hi = sorted(rng.sample(range(n + 1), 2))
    inner_lo, inner_hi = sorted(rng.sample(range(lo, hi + 1), 2))
    for start, stop in ((lo, hi), (inner_lo, inner_hi)):
        ring = keys[start:stop]
        edges.update(zip(ring, ring[1:] + ring[:1]))
    nodes = {k: GraphNode(key=k, manager=k.split(":")[0], name=k, version="1",
                          d_p=rng.choice([0.0, 0.1, 0.3, 0.7, 1.0]),
                          vuln_count=rng.randint(0, 5), depth=rng.randint(1, 6))
             for k in keys}
    return PackageAttrGraph(nodes, edges)


class TestBuildGraph:
    def test_single_bfs_level(self):
        catalog = [pip_pkg("p0", ["p1", "p2"]), pip_pkg("p1"), pip_pkg("p2")]
        g = build_graph(catalog, {"pip:p0": 0.2, "pip:p1": 1.0, "pip:p2": 1.0})
        assert g.nodes["pip:p0"].depth == 1
        assert g.nodes["pip:p1"].depth == 2
        assert g.nodes["pip:p2"].depth == 2
        assert g.edges == {("pip:p0", "pip:p1"), ("pip:p0", "pip:p2")}

    def test_diamond_depth_is_shortest_path(self):
        catalog = [
            pip_pkg("a", ["b", "c"]),
            pip_pkg("b", ["d"]),
            pip_pkg("c", ["d"]),
            pip_pkg("d"),
        ]
        g = build_graph(catalog, {"pip:a": 0.0, "pip:b": 1.0, "pip:c": 1.0, "pip:d": 1.0})
        assert g.nodes["pip:d"].depth == 3
        assert len([e for e in g.edges if e[1] == "pip:d"]) == 2

    def test_unreachable_fully_bloated_package_excluded(self):
        catalog = [pip_pkg("used"), pip_pkg("island")]
        g = build_graph(catalog, {"pip:used": 0.0, "pip:island": 1.0})
        assert "pip:island" not in g.nodes
        assert g.excluded == ("pip:island",)

    def test_directly_accessed_always_depth_one(self):
        # 'dep' is both depended upon and directly accessed: depth stays 1.
        catalog = [pip_pkg("top", ["dep"]), pip_pkg("dep")]
        g = build_graph(catalog, {"pip:top": 0.1, "pip:dep": 0.5})
        assert g.nodes["pip:dep"].depth == 1

    def test_no_self_edges(self):
        catalog = [pip_pkg("selfish", ["selfish"])]
        g = build_graph(catalog, {"pip:selfish": 0.0})
        assert g.edges == frozenset()

    def test_cycles_terminate(self):
        catalog = [apt_pkg("a", [("b",)]), apt_pkg("b", [("a",)])]
        g = build_graph(catalog, {"apt:a": 0.0, "apt:b": 1.0})
        assert g.nodes["apt:a"].depth == 1
        assert g.nodes["apt:b"].depth == 2
        assert ("apt:a", "apt:b") in g.edges
        assert ("apt:b", "apt:a") in g.edges

    def test_apt_alternatives_link_installed_ones(self):
        catalog = [
            apt_pkg("app", [("missing", "real-a", "real-b")]),
            apt_pkg("real-a"),
            apt_pkg("real-b"),
        ]
        g = build_graph(catalog, {"apt:app": 0.0, "apt:real-a": 1.0, "apt:real-b": 1.0})
        assert ("apt:app", "apt:real-a") in g.edges
        assert ("apt:app", "apt:real-b") in g.edges
        assert g.dangling_deps == 0

    def test_apt_provides_resolution(self):
        catalog = [
            apt_pkg("app", [("mail-transport-agent",)]),
            apt_pkg("postfix", provides=["mail-transport-agent"]),
        ]
        g = build_graph(catalog, {"apt:app": 0.0, "apt:postfix": 1.0})
        assert ("apt:app", "apt:postfix") in g.edges

    def test_dangling_dependency_counted(self):
        catalog = [pip_pkg("app", ["nothere"])]
        g = build_graph(catalog, {"pip:app": 0.0})
        assert g.dangling_deps == 1
        assert g.edges == frozenset()

    def test_pip_names_normalized_for_linking(self):
        catalog = [
            pip_pkg("widget-tools", ["NumPy_Lite"]),
            pip_pkg("numpy-lite"),
        ]
        g = build_graph(catalog, {"pip:widget-tools": 0.0, "pip:numpy-lite": 1.0})
        assert ("pip:widget-tools", "pip:numpy-lite") in g.edges

    def test_repeated_graph_key_keeps_the_first_version(self, caplog):
        g = build_graph([apt_pkg("x", version="2"), apt_pkg("x", version="1")], {"apt:x": 0.5})
        assert g.nodes["apt:x"].version == "1"
        assert "duplicate apt package name x; keeping version 1" in caplog.text

    def test_vuln_counts_default_to_zero(self):
        g = build_graph([pip_pkg("p")], {"pip:p": 0.0})
        assert g.nodes["pip:p"].vuln_count == 0

    def test_deterministic_under_catalog_shuffle(self):
        rng = random.Random(11)
        catalog, d_p, vulns = random_dag(rng, 40)
        g1 = build_graph(catalog, d_p, vulns)
        shuffled = catalog[:]
        rng.shuffle(shuffled)
        g2 = build_graph(shuffled, d_p, vulns)
        assert to_node_link(g1) == to_node_link(g2)

    def test_depth_equals_nx_shortest_path_plus_one(self):
        rng = random.Random(3)
        catalog, d_p, vulns = random_dag(rng, 60)
        g = build_graph(catalog, d_p, vulns)
        nxg = nx.DiGraph()
        nxg.add_nodes_from(f"pip:{r.name}" for r in catalog)
        for rec in catalog:
            for (dep,) in rec.declared_deps:
                if any(r.name == dep for r in catalog):
                    nxg.add_edge(f"pip:{rec.name}", f"pip:{dep}")
        start = [k for k, v in d_p.items() if v < 1]
        dist = nx.multi_source_dijkstra_path_length(nxg, start, weight=None)
        for key, node in g.nodes.items():
            assert node.depth == dist[key] + 1, key
        assert set(g.nodes) == set(dist)


class TestPdPrSets:
    def test_direct_dependencies(self):
        catalog = [pip_pkg("p0", ["p1", "p2"]), pip_pkg("p1"), pip_pkg("p2")]
        g = build_graph(catalog, {"pip:p0": 0.0, "pip:p1": 1.0, "pip:p2": 1.0})
        assert len(pd_set(g, "pip:p0")) == 2

    def test_leaf_has_empty_pd(self):
        g = build_graph([pip_pkg("leaf")], {"pip:leaf": 0.0})
        assert pd_set(g, "pip:leaf") == set()

    def test_root_has_empty_pr(self):
        g = build_graph([pip_pkg("root", ["x"]), pip_pkg("x")],
                        {"pip:root": 0.0, "pip:x": 1.0})
        assert pr_set(g, "pip:root") == set()

    def test_unknown_key_raises(self):
        g = build_graph([pip_pkg("p")], {"pip:p": 0.0})
        with pytest.raises(KeyError):
            pd_set(g, "pip:ghost")
        with pytest.raises(KeyError):
            pr_set(g, "pip:ghost")

    def test_random_dag_matches_matrix_closure(self):
        rng = random.Random(99)
        catalog, d_p, vulns = random_dag(rng, 30)
        g = build_graph(catalog, d_p, vulns)
        keys = sorted(g.nodes)
        closure = reachability_oracle(keys, set(g.edges))
        for key in keys:
            assert pd_set(g, key) == closure[key], key

    def test_duality(self):
        rng = random.Random(17)
        catalog, d_p, vulns = random_dag(rng, 25)
        g = build_graph(catalog, d_p, vulns)
        for p in g.nodes:
            for q in g.nodes:
                assert (q in pd_set(g, p)) == (p in pr_set(g, q))


class TestPdAggregate:
    def test_worked_example_from_depgraph_analysis(self):
        # p0 depends on p1 (0.4, 2 vulns) and p2 (0.6, 4 vulns);
        # p3, p4, p5 depend on p0.
        catalog = [
            pip_pkg("p0", ["p1", "p2"]),
            pip_pkg("p1"), pip_pkg("p2"),
            pip_pkg("p3", ["p0"]), pip_pkg("p4", ["p0"]), pip_pkg("p5", ["p0"]),
        ]
        d_p = {"pip:p0": 0.5, "pip:p1": 0.4, "pip:p2": 0.6,
               "pip:p3": 0.5, "pip:p4": 0.5, "pip:p5": 0.5}
        vulns = {"pip:p1": 2, "pip:p2": 4}
        g = build_graph(catalog, d_p, vulns)
        assert len(pd_set(g, "pip:p0")) == 2
        assert len(pr_set(g, "pip:p0")) == 3
        assert pd_aggregate(g, "pip:p0") == (0.5, 6)

    def test_empty_pd_absent_average(self):
        g = build_graph([pip_pkg("solo")], {"pip:solo": 0.0})
        assert pd_aggregate(g, "pip:solo") == (None, 0)

    def test_random_graph_matches_recomputation(self):
        rng = random.Random(4)
        catalog, d_p, vulns = random_dag(rng, 35)
        g = build_graph(catalog, d_p, vulns)
        for key in g.nodes:
            pd = pd_set(g, key)
            avg, total = pd_aggregate(g, key)
            if not pd:
                assert avg is None and total == 0
            else:
                assert avg == pytest.approx(sum(g.nodes[k].d_p for k in pd) / len(pd))
                assert total == sum(g.nodes[k].vuln_count for k in pd)


class TestDepthCorrelations:
    def test_chain_gives_perfect_anticorrelation(self):
        catalog = [pip_pkg("p0", ["p1"]), pip_pkg("p1", ["p2"]),
                   pip_pkg("p2", ["p3"]), pip_pkg("p3")]
        d_p = {"pip:p0": 0.0, "pip:p1": 1.0, "pip:p2": 1.0, "pip:p3": 1.0}
        g = build_graph(catalog, d_p)
        cor_pd, cor_pr = depth_correlations(g, PIP)
        assert cor_pd == pytest.approx(-1.0)
        assert cor_pr == pytest.approx(1.0)

    def test_constant_depth_absent(self):
        catalog = [pip_pkg("a"), pip_pkg("b")]
        g = build_graph(catalog, {"pip:a": 0.0, "pip:b": 0.0})
        assert depth_correlations(g, PIP) == (None, None)

    def test_single_node_absent(self):
        g = build_graph([pip_pkg("a")], {"pip:a": 0.0})
        assert depth_correlations(g, PIP) == (None, None)

    def test_manager_filter(self):
        catalog = [pip_pkg("a", ["b"]), pip_pkg("b"), apt_pkg("x")]
        g = build_graph(catalog, {"pip:a": 0.0, "pip:b": 1.0, "apt:x": 0.0})
        assert depth_correlations(g, APT) == (None, None)

    def test_hundred_node_graph_matches_scipy(self):
        rng = random.Random(123)
        catalog, d_p, vulns = random_dag(rng, 100)
        g = build_graph(catalog, d_p, vulns)
        keys = sorted(g.nodes)
        depths = [g.nodes[k].depth for k in keys]
        pd_sizes = [len(pd_set(g, k)) for k in keys]
        pr_sizes = [len(pr_set(g, k)) for k in keys]
        cor_pd, cor_pr = depth_correlations(g, PIP)
        assert cor_pd == pytest.approx(stats.pearsonr(depths, pd_sizes)[0], abs=1e-9)
        assert cor_pr == pytest.approx(stats.pearsonr(depths, pr_sizes)[0], abs=1e-9)


class TestCycles:
    def test_random_digraphs_match_the_oracles(self):
        rng = random.Random(6061)
        largest_scc = 0
        for _ in range(60):
            g = random_digraph(rng, rng.randint(2, 70))
            keys = sorted(g.nodes)
            forward = reachability_oracle(keys, set(g.edges))
            backward = reachability_oracle(keys, {(b, a) for a, b in g.edges})
            nxg = nx.DiGraph(list(g.edges))
            largest_scc = max(largest_scc, *map(len, nx.strongly_connected_components(nxg)))
            for k in keys:
                assert pd_set(g, k) == forward[k], k
                assert pr_set(g, k) == backward[k], k
                assert closure_sizes(g, k) == (len(pd_set(g, k)), len(pr_set(g, k))), k
                avg, total = pd_aggregate(g, k)
                if forward[k]:
                    assert avg == statistics.fmean(g.nodes[d].d_p for d in forward[k])
                    assert total == sum(g.nodes[d].vuln_count for d in forward[k])
                else:
                    assert (avg, total) == (None, 0)
            for manager in (PIP, APT):
                mine = [k for k in keys if g.nodes[k].manager == manager]
                depths = [float(g.nodes[k].depth) for k in mine]
                expected = []
                for closure in (forward, backward):
                    try:
                        expected.append(statistics.correlation(
                            depths, [float(len(closure[k])) for k in mine]))
                    except statistics.StatisticsError:
                        expected.append(None)
                assert depth_correlations(g, manager) == tuple(expected)
        assert largest_scc > 10

    def test_self_loop_is_not_its_own_dependency(self):
        node = GraphNode(key="pip:a", manager=PIP, name="a", version="1",
                         d_p=0.5, vuln_count=2, depth=1)
        g = PackageAttrGraph({"pip:a": node}, [("pip:a", "pip:a")])
        assert pd_set(g, "pip:a") == pr_set(g, "pip:a") == set()
        assert pd_aggregate(g, "pip:a") == (None, 0)

    def test_long_chain_closing_a_cycle_is_fast(self):
        # p0 -> p1 -> ... -> p2999 -> p1500: the second half is one SCC. The
        # bound covers the graph's construction, where the closures are built.
        n, half = 3000, 1500
        catalog = [pip_pkg(f"p{i}", [f"p{i + 1}" if i + 1 < n else f"p{half}"])
                   for i in range(n)]
        start = time.perf_counter()
        cor_pd, cor_pr = depth_correlations(build_graph(catalog, {"pip:p0": 0.0}), PIP)
        assert time.perf_counter() - start < 0.5
        depths = [float(i + 1) for i in range(n)]
        pd_sizes = [float(n - 1 - i if i < half else n - half - 1) for i in range(n)]
        pr_sizes = [float(i if i < half else n - 1) for i in range(n)]
        assert cor_pd == pytest.approx(statistics.correlation(depths, pd_sizes), abs=1e-12)
        assert cor_pr == pytest.approx(statistics.correlation(depths, pr_sizes), abs=1e-12)


class TestExports:
    def test_node_link_round_shape(self):
        catalog = [pip_pkg("a", ["b"]), pip_pkg("b")]
        g = build_graph(catalog, {"pip:a": 0.25, "pip:b": 1.0}, {"pip:a": 3})
        doc = to_node_link(g)
        assert [n["id"] for n in doc["nodes"]] == ["pip:a", "pip:b"]
        assert doc["edges"] == [["pip:a", "pip:b"]]
        a = doc["nodes"][0]
        assert a["depth"] == 1 and a["d_p"] == 0.25 and a["vulns"] == 3

    def test_dot_contains_nodes_and_edges(self):
        catalog = [pip_pkg("a", ["b"]), pip_pkg("b")]
        g = build_graph(catalog, {"pip:a": 0.25, "pip:b": 1.0})
        dot = to_dot(g)
        assert '"pip:a" -> "pip:b";' in dot
        assert "d_p=0.25" in dot
        assert dot.startswith("digraph")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.text(st.sampled_from('ab"\\ -é{};\n\t\x01'), min_size=1, max_size=6),
                    min_size=1, max_size=6, unique=True))
    def test_dot_quotes_every_name(self, names):
        # Each node depends on the first; a conda name may hold quotes, backslashes
        # and control characters.
        catalog = [PackageRecord(manager=CONDA, name=n, version="1", files=frozenset({"/f"}),
                                 size=1, declared_deps=((names[0],),)) for n in names]
        g = build_graph(catalog, {f"conda:{n}": 0.5 for n in names})
        quoted = r'"(?:[^"\\]|\\.)*"'
        node_line = re.compile(rf"  ({quoted}) \[label=({quoted})\];")
        edge_line = re.compile(rf"  ({quoted}) -> ({quoted});")
        lines = to_dot(g).split("\n")
        assert lines[:2] == ["digraph packages {", "  node [shape=box];"]
        assert lines[-2:] == ["}", ""]
        node_ids, edge_ids = {}, []
        for line in lines[2:-2]:
            if m := node_line.fullmatch(line):
                node_ids[m[1]] = json.loads(m[1])  # a DOT ID is quoted as a JSON string is
                assert json.loads(m[2]).rsplit("\n", 3)[0] == g.nodes[node_ids[m[1]]].name
            else:
                m = edge_line.fullmatch(line)
                assert m, line
                edge_ids.append((m[1], m[2]))
        assert sorted(node_ids.values()) == sorted(g.nodes)
        assert {(node_ids[a], node_ids[b]) for a, b in edge_ids} == set(g.edges)
        assert len(edge_ids) == len(g.edges) == len(names) - 1
