"""Package attribute graph: construction, reachability, and correlations.

Nodes are installed packages annotated with bloat degree, vulnerability
count, and depth. The graph grows by breadth-first search from the
directly-accessed packages (bloat degree < 1, depth 1), following declared
dependencies restricted to the installed set, so each node's depth is the
shortest dependency distance from a directly-accessed package. Packages
never reached are excluded from the graph and reported separately.
"""

from __future__ import annotations

import logging
import statistics
from collections import deque
from dataclasses import dataclass
from itertools import compress, count
from json.encoder import encode_basestring as _dot_quoted  # \\, \" and \n read as DOT reads them
from typing import Iterable, Mapping, Sequence

from .packages import APT, PIP, PackageRecord, canonical_pip_name

log = logging.getLogger(__name__)

_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


@dataclass(frozen=True)
class GraphNode:
    key: str
    manager: str
    name: str
    version: str
    d_p: float
    vuln_count: int
    depth: int


class PackageAttrGraph:
    """Directed dependency graph (dependent -> dependency) with attributes."""

    def __init__(self, nodes: Mapping[str, GraphNode],
                 edges: Iterable[tuple[str, str]],
                 excluded: Sequence[str] = (),
                 dangling_deps: int = 0):
        self.nodes = dict(nodes)
        self.edges = frozenset(edges)
        self.excluded = tuple(excluded)
        self.dangling_deps = dangling_deps
        self._keys = sorted(self.nodes)
        self._index = {k: i for i, k in enumerate(self._keys)}
        self._d_p = [self.nodes[k].d_p for k in self._keys]
        self._vulns = [self.nodes[k].vuln_count for k in self._keys]
        succ: list[list[int]] = [[] for _ in self._keys]
        pred: list[list[int]] = [[] for _ in self._keys]
        for a, b in self.edges:
            succ[self._index[a]].append(self._index[b])
            pred[self._index[b]].append(self._index[a])
        # Per node, int bitsets over the sorted keys of the nodes it reaches
        # (PD) and is reached from (PR); _bits drops the node's own bit.
        self._pd_bits, self._pr_bits = _closure(succ), _closure(pred)

    def __contains__(self, key: str) -> bool:
        return key in self.nodes

    def __len__(self) -> int:
        return len(self.nodes)


def build_graph(catalog: Sequence[PackageRecord],
                d_p: Mapping[str, float],
                vuln_counts: Mapping[str, int] | None = None) -> PackageAttrGraph:
    """Create the package attribute graph by BFS from the start set.

    ``d_p`` and ``vuln_counts`` are keyed by ``PackageRecord.graph_key``;
    a package missing from ``d_p`` counts as fully unused (1.0), a missing
    vulnerability count as zero. A graph key shared by several records
    keeps the first in key order, so the build is deterministic under any
    catalog ordering, and each package is enqueued at most once so
    dependency cycles terminate.

    A declared name resolves within its dependent's manager (PIP names after
    PEP 503 normalization, APT names also through the Provides index); an
    APT group 'a | b' links every alternative that resolves, and a group
    with none counts as dangling.
    """
    vuln_counts = vuln_counts or {}
    records: dict[str, PackageRecord] = {}
    apt_provides: dict[str, list[str]] = {}  # virtual name -> graph keys
    for rec in sorted(catalog, key=lambda r: r.key):
        key = rec.graph_key
        if key in records:
            log.warning("duplicate %s package name %s; keeping version %s",
                        rec.manager, rec.name, records[key].version)
            continue
        records[key] = rec
        if rec.manager == APT:
            for virtual in rec.provides:
                apt_provides.setdefault(virtual, []).append(key)

    def dp_of(key: str) -> float:
        if key not in d_p:
            log.debug("no bloat degree for %s; assuming unused", key)
        return d_p.get(key, 1.0)

    start = sorted(k for k in records if dp_of(k) < 1)
    depth = dict.fromkeys(start, 1)
    queue = deque(start)
    edges: set[tuple[str, str]] = set()
    dangling = 0
    while queue:
        cur = queue.popleft()
        rec = records[cur]
        for group in rec.declared_deps:
            found = []
            for alt in group:
                if rec.manager == PIP:
                    alt = canonical_pip_name(alt)
                named = f"{rec.manager}:{alt}"
                if named in records:
                    found.append(named)
                elif rec.manager == APT:
                    found.extend(apt_provides.get(alt, ()))
            if not found:
                dangling += 1
            for dep in found:
                if dep == cur:
                    continue
                edges.add((cur, dep))
                if dep not in depth:
                    depth[dep] = depth[cur] + 1
                    queue.append(dep)
    nodes = {}
    for key in sorted(depth):
        rec = records[key]
        nodes[key] = GraphNode(
            key=key, manager=rec.manager, name=rec.name, version=rec.version,
            d_p=dp_of(key), vuln_count=vuln_counts.get(key, 0), depth=depth[key],
        )
    excluded = sorted(k for k in records if k not in depth)
    return PackageAttrGraph(nodes, edges, excluded, dangling)


def _closure(adj: list[list[int]]) -> list[int]:
    """Per node, the bitset of the nodes it reaches over one or more edges.

    Tarjan's algorithm (iterative) emits the strongly connected components
    sinks first, so each component ORs the final (closure | bit) of its
    members' edge targets; edges inside it add its members when it has a cycle.
    """
    n = len(adj)
    order = [0] * n  # discovery number from 1; n + 1 once the component is emitted
    low = [0] * n
    reach = [0] * n
    stack: list[int] = []
    numbers = count(1)
    for root in range(n):
        if order[root]:
            continue
        order[root] = low[root] = next(numbers)
        stack.append(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if not order[w]:
                    order[w] = low[w] = next(numbers)
                    stack.append(w)
                    work.append((w, iter(adj[w])))
                    break
                low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == order[v]:
                    members = [stack.pop()]
                    while members[-1] != v:
                        members.append(stack.pop())
                    bits = 0
                    for m in members:
                        order[m] = n + 1
                        for w in adj[m]:
                            bits |= reach[w] | 1 << w
                    for m in members:
                        reach[m] = bits
    return reach


def _bits(g: PackageAttrGraph, closure: list[int], key: str) -> int:
    """The bitset of ``closure`` for ``key``, without ``key`` itself."""
    i = g._index.get(key)
    if i is None:
        raise KeyError(f"unknown package key {key!r}")
    return closure[i] & ~(1 << i)


def _flags(bits: int) -> bytes:
    """One 0/1 byte per bit, lowest first, in time linear in the bit width."""
    return bin(bits)[:1:-1].encode().translate(_BIT_FLAGS)


def pd_set(g: PackageAttrGraph, key: str) -> set[str]:
    """Packages ``key`` depends on, directly or transitively."""
    return set(compress(g._keys, _flags(_bits(g, g._pd_bits, key))))


def pr_set(g: PackageAttrGraph, key: str) -> set[str]:
    """Packages that depend on ``key``, directly or transitively."""
    return set(compress(g._keys, _flags(_bits(g, g._pr_bits, key))))


def closure_sizes(g: PackageAttrGraph, key: str) -> tuple[int, int]:
    """|PD(key)| and |PR(key)|, counted in the bitsets without building the sets."""
    return _bits(g, g._pd_bits, key).bit_count(), _bits(g, g._pr_bits, key).bit_count()


def pd_aggregate(g: PackageAttrGraph, key: str) -> tuple[float | None, int]:
    """Average bloat degree and total vulnerabilities over PD(key).

    The average is None when the package depends on nothing.
    """
    bits = _bits(g, g._pd_bits, key)
    if not bits:
        return None, 0
    flags = _flags(bits)
    return (statistics.fmean(list(compress(g._d_p, flags))),
            sum(compress(g._vulns, flags)))


def depth_correlations(g: PackageAttrGraph,
                       manager: str) -> tuple[float | None, float | None]:
    """Pearson correlation of depth with |PD| and with |PR| for one manager.

    Either correlation is None when fewer than two nodes exist or a series
    has zero variance.
    """
    keys = sorted(k for k, n in g.nodes.items() if n.manager == manager)
    if len(keys) < 2:
        return None, None
    depths = [float(g.nodes[k].depth) for k in keys]
    pd_sizes, pr_sizes = zip(*(closure_sizes(g, k) for k in keys))

    def cor(xs, ys):
        try:
            return statistics.correlation(xs, ys)
        except statistics.StatisticsError:
            return None

    return cor(depths, pd_sizes), cor(depths, pr_sizes)


def to_node_link(g: PackageAttrGraph) -> dict:
    """Node-link JSON document for plotting or external graph tools."""
    return {
        "nodes": [
            {
                "id": n.key,
                "manager": n.manager,
                "name": n.name,
                "version": n.version,
                "depth": n.depth,
                "d_p": round(n.d_p, 6),
                "vulns": n.vuln_count,
            }
            for n in (g.nodes[k] for k in sorted(g.nodes))
        ],
        "edges": [list(e) for e in sorted(g.edges)],
        "excluded": list(g.excluded),
        "dangling_dependencies": g.dangling_deps,
    }


def to_dot(g: PackageAttrGraph) -> str:
    """Graphviz dot rendering; node labels carry name, depth, d_p and |V|."""
    lines = ["digraph packages {", "  node [shape=box];"]
    ids = {key: _dot_quoted(key) for key in g.nodes}
    for key in sorted(g.nodes):
        n = g.nodes[key]
        label = _dot_quoted(f"{n.name}\nD={n.depth}\nd_p={n.d_p:.2f}\n|V|={n.vuln_count}")
        lines.append(f"  {ids[key]} [label={label}];")
    for a, b in sorted(g.edges):
        lines.append(f"  {ids[a]} -> {ids[b]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
