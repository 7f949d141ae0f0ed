"""Co-authorship graph, edge betweenness and community detection.

The divisive community algorithm repeatedly removes the edge carrying
the most shortest-path traffic (Brandes accumulation over hop-count
paths) and records a partition each time the component count grows.
A cut changes shortest paths only inside the component that held the
edge, so after each removal betweenness is recomputed only within the
one or two components that contain the cut edge's endpoints; every
other edge keeps its value.  Modularity of every recorded partition is
taken against the original graph, and the best partition is the
modularity maximum over the whole dendrogram.

Determinism: node and neighbour iteration is lexicographic everywhere
(neighbours are kept in sorted lists, never sets), so the accumulation
order, and with it every betweenness value, does not depend on the
interpreter's hash seed.  Each recomputed value is bit-identical to a
whole-graph recompute, because sources outside a component add nothing
to its edges and sources inside it are still visited in sorted order.
Betweenness ties are broken toward the lexicographically smallest
edge, so equal inputs give byte-equal outputs in every process.
"""

from __future__ import annotations

import csv
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .errors import (
    CellParseError,
    ConfigError,
    DataError,
    DegenerateInputError,
)


@dataclass(frozen=True)
class CollabGraph:
    """Undirected weighted graph with canonical (sorted) edge keys."""

    nodes: tuple
    edges: tuple  # ((u, v, weight), ...) with u < v, sorted by (u, v)
    adjacency: dict  # node -> tuple of neighbours, sorted
    self_loops_dropped: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def neighbors(self, node: str) -> tuple:
        if node not in self.adjacency:
            raise DataError(f"unknown node {node!r}")
        return self.adjacency[node]


def build_graph(edge_rows) -> CollabGraph:
    """Aggregate an edge list into a CollabGraph.

    Rows are (a, b) or (a, b, weight); duplicate pairs sum their
    weights regardless of endpoint order, self-loops are dropped (and
    counted), and weights must be positive.
    """
    weights = {}
    dropped = 0
    for row in edge_rows:
        if len(row) == 2:
            a, b = row
            w = 1.0
        elif len(row) == 3:
            a, b, w = row
            w = float(w)
        else:
            raise DataError(f"edge row must have 2 or 3 fields, got {row!r}")
        a, b = str(a), str(b)
        if not a or not b:
            raise DataError(f"edge endpoints must be non-empty, got {row!r}")
        if w <= 0 or w != w:
            raise DataError(f"edge weight must be positive, got {w!r} for {a}-{b}")
        if a == b:
            dropped += 1
            continue
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0.0) + w
    nodes = tuple(sorted({n for pair in weights for n in pair}))
    adjacency = {n: [] for n in nodes}
    for u, v in weights:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return CollabGraph(
        nodes=nodes,
        edges=tuple((u, v, weights[(u, v)]) for u, v in sorted(weights)),
        adjacency={n: tuple(sorted(vs)) for n, vs in adjacency.items()},
        self_loops_dropped=dropped,
    )


def read_edge_list(path, delimiter: str = ",") -> list:
    """Read a CSV edge list with header author_a,author_b[,weight]."""
    if not isinstance(delimiter, str) or len(delimiter) != 1:
        raise ConfigError(f"delimiter must be a single character, got {delimiter!r}")
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read edge list {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle, delimiter=delimiter)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty edge list, expected a header row") from None
        if header[:2] != ["author_a", "author_b"] or (
            len(header) == 3 and header[2] != "weight"
        ) or len(header) > 3:
            raise DataError(
                f"{path}: expected header author_a,author_b[,weight], got {header}"
            )
        rows = []
        for row_num, cells in enumerate(reader, start=1):
            if not cells or all(not c.strip() for c in cells):
                continue
            if len(cells) < 2:
                raise CellParseError(row_num, "author_b", "", "missing endpoint")
            a, b = cells[0].strip(), cells[1].strip()
            if not a:
                raise CellParseError(row_num, "author_a", cells[0], "must be non-empty")
            if not b:
                raise CellParseError(row_num, "author_b", cells[1], "must be non-empty")
            if len(cells) >= 3 and cells[2].strip():
                try:
                    w = float(cells[2])
                except ValueError:
                    raise CellParseError(
                        row_num, "weight", cells[2], "expected a number"
                    ) from None
                if w <= 0 or w != w:
                    raise CellParseError(row_num, "weight", cells[2], "must be > 0")
                rows.append((a, b, w))
            else:
                rows.append((a, b))
        return rows


def _components(nodes, adj) -> list:
    """Connected components as sorted node lists, ordered by least node."""
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def _brandes(nodes, adj) -> dict:
    """Edge betweenness by breadth-first shortest-path accumulation."""
    btw = {}
    for u in nodes:
        for v in adj[u]:
            if u < v:
                btw[(u, v)] = 0.0
    for s in nodes:
        dist = {s: 0}
        sigma = {s: 1.0}
        preds = {}
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] = sigma.get(w, 0.0) + sigma[v]
                    preds.setdefault(w, []).append(v)
        delta = {v: 0.0 for v in order}
        for w in reversed(order):
            for v in preds.get(w, ()):
                c = sigma[v] / sigma[w] * (1.0 + delta[w])
                key = (v, w) if v < w else (w, v)
                btw[key] += c
                delta[v] += c
    for key in btw:
        btw[key] /= 2.0
    return btw


def edge_betweenness(g: CollabGraph) -> dict:
    """Betweenness of every edge: for each node pair, one unit split
    evenly over that pair's shortest paths, summed over the edges each
    path crosses."""
    return _brandes(g.nodes, g.adjacency)


@dataclass(frozen=True)
class Partition:
    """Community assignment with its modularity on the original graph."""

    assignment: dict  # node -> community id, ids dense from 0
    n_communities: int
    modularity: float
    step: int = 0
    removed_edge: Optional[tuple] = None

    def __post_init__(self):
        ids = set(self.assignment.values())
        if ids != set(range(self.n_communities)):
            raise DataError("partition community ids must be dense from 0")

    def communities(self) -> list:
        out = [[] for _ in range(self.n_communities)]
        for node in sorted(self.assignment):
            out[self.assignment[node]].append(node)
        return out


def _modularity(g: CollabGraph, assignment) -> float:
    m = g.total_weight
    if m <= 0:
        raise DegenerateInputError("modularity: graph has no edge weight")
    intra = {}
    cross = {}
    for u, v, w in g.edges:
        cu, cv = assignment[u], assignment[v]
        if cu == cv:
            intra[cu] = intra.get(cu, 0.0) + w
        else:
            cross[cu] = cross.get(cu, 0.0) + w
            cross[cv] = cross.get(cv, 0.0) + w
    q = 0.0
    for c in sorted(set(assignment.values())):
        e_cc = intra.get(c, 0.0)
        degree = 2.0 * e_cc + cross.get(c, 0.0)
        q += e_cc / m - (degree / (2.0 * m)) ** 2
    return q


def modularity(g: CollabGraph, p: Partition) -> float:
    """Q = sum_c [ e_cc / m - (d_c / 2m)^2 ] over the partition.

    A single community covering a connected graph gives exactly 0.
    """
    missing = [n for n in g.nodes if n not in p.assignment]
    if missing:
        raise DataError(f"partition does not cover nodes {missing[:5]}")
    return _modularity(g, p.assignment)


def _partition_of(g, comps, step, removed_edge) -> Partition:
    assignment = {}
    for cid, comp in enumerate(comps):
        for node in comp:
            assignment[node] = cid
    return Partition(
        assignment=assignment,
        n_communities=len(comps),
        modularity=_modularity(g, assignment),
        step=step,
        removed_edge=removed_edge,
    )


def girvan_newman(g: CollabGraph, target_communities: Optional[int] = None) -> tuple:
    """Divisive community detection by repeated betweenness cuts.

    Returns (dendrogram, best): the dendrogram lists one Partition per
    distinct component count (starting from the untouched graph, counts
    strictly increasing), and best is the modularity maximum (earliest
    wins ties).  Stops at edge exhaustion or once the component count
    reaches ``target_communities``.
    """
    if g.n_edges == 0:
        raise DegenerateInputError("girvan_newman: graph has no edges")
    if target_communities is not None and not (1 <= target_communities <= g.n_nodes):
        raise ConfigError(
            f"girvan_newman: target_communities must be in 1..{g.n_nodes}, "
            f"got {target_communities}"
        )
    adj = {n: list(g.adjacency[n]) for n in g.nodes}
    comps = _components(g.nodes, adj)
    dendrogram = [_partition_of(g, comps, step=0, removed_edge=None)]
    count = len(comps)
    step = 0
    btw = _brandes(g.nodes, adj)
    while btw and (target_communities is None or count < target_communities):
        best_edge = None
        best_score = -1.0
        for edge in sorted(btw):
            if btw[edge] > best_score:
                best_score = btw[edge]
                best_edge = edge
        u, v = best_edge
        adj[u].remove(v)
        adj[v].remove(u)
        del btw[best_edge]
        step += 1
        # Shortest paths change only inside the component that held the
        # cut edge, so only its one or two pieces are recomputed.
        touched = _components([u, v], adj)
        for comp in touched:
            btw.update(_brandes(comp, adj))
        if len(touched) > 1:
            comps = _components(g.nodes, adj)
            count = len(comps)
            dendrogram.append(
                _partition_of(g, comps, step=step, removed_edge=best_edge)
            )
    best = dendrogram[0]
    for p in dendrogram[1:]:
        if p.modularity > best.modularity:
            best = p
    return dendrogram, best
