"""Co-authorship graph, edge betweenness and community detection.

The divisive community algorithm repeatedly removes the edge carrying
the most shortest-path traffic (Brandes accumulation over hop-count
paths) and records a partition each time the component count grows.
Modularity of every recorded partition is taken against the original
graph, and the best partition is the modularity maximum over the whole
dendrogram.

Betweenness runs on an integer copy of the graph: nodes are numbered by
their sorted rank, which is the names' order, so edge ids follow
lexicographic edge order; adjacency is a sorted list of (neighbour,
edge id) per node.  ``_source_pass`` is one source's Brandes pass.

Per-source cache: ``girvan_newman`` keeps each source's pass, its hop
distances and its row of edge contributions in an n-by-m float64 array
(n*m*8 bytes: 0.59 MB at 120 nodes and 611 edges).  After edge (i, j)
is cut, only sources of the one or two components that held it are
looked at, and of those only the ones with ``dist_s[i] != dist_s[j]``
rerun.  When the distances are equal, the edge joins two nodes on one
BFS level: it never discovers a node and never adds to a path count, so
that source's visit order, path counts, dependencies and contributions
are the same, operation for operation, without it.  A bridge has its
endpoints on different levels for every source of its component, so a
split reruns both pieces.

Determinism and bit-exactness: sources are visited in sorted order and
neighbours in sorted lists, never sets, so the accumulation order, and
with it every betweenness value, does not depend on the interpreter's
hash seed.  A component's betweenness is a left fold of its sources'
rows, one ``total += row`` per source in sorted order, then halved.
Each source adds at most one term per edge, and ``x + 0.0 == x``, so
this is the very sequence of additions a whole-graph recompute makes
(sources outside a component add nothing to its edges).  Ties are
broken toward the lexicographically smallest edge (the first maximum),
so equal inputs give byte-equal outputs in every process, and every cut
equals that of a whole-graph recompute.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CellParseError,
    ConfigError,
    DataError,
    DegenerateInputError,
)
from .ingest import csv_rows


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


def build_graph(edge_rows) -> CollabGraph:
    """Aggregate an edge list into a CollabGraph.

    Rows are (a, b) or (a, b, weight); duplicate pairs sum their
    weights regardless of endpoint order, self-loops are dropped (and
    counted), and weights must be finite and positive, also when summed.
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
        if not 0 < w < math.inf:
            raise DataError(
                f"edge weight must be finite and positive, got {w!r} for {a}-{b}"
            )
        if a == b:
            dropped += 1
            continue
        key = (a, b) if a < b else (b, a)
        weights[key] = weights.get(key, 0.0) + w
    for (u, v), w in weights.items():
        if w == math.inf:
            raise DataError(f"summed weight of {u}-{v} overflows")
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
        reader = csv_rows(handle, path, delimiter)
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
                if not 0 < w < math.inf:
                    raise CellParseError(
                        row_num, "weight", cells[2], "must be finite and > 0"
                    )
                rows.append((a, b, w))
            else:
                rows.append((a, b))
        return rows


def _int_graph(g: CollabGraph) -> tuple:
    """Nodes numbered by their index in the sorted ``g.nodes``, edges by
    their index in ``g.edges``.

    Returns (ends, adj): ``ends[e]`` is edge e's (lower, higher) node
    pair and ``adj[v]`` is v's sorted list of (neighbour, edge id).  The
    rank order is the names' order, so edge id order is lexicographic
    edge order.
    """
    rank = {name: i for i, name in enumerate(g.nodes)}
    ends = [(rank[u], rank[v]) for u, v, _ in g.edges]
    adj = [[] for _ in rank]
    for e, (i, j) in enumerate(ends):
        adj[i].append((j, e))
        adj[j].append((i, e))
    for nbrs in adj:
        nbrs.sort()
    return ends, adj


def _components(nodes, adj) -> list:
    """Connected components holding ``nodes``, as sorted node lists
    ordered by least node."""
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        seen.add(start)
        comp = [start]
        for v in comp:  # comp grows while it is walked: a FIFO queue
            for w, _ in adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def _source_pass(s, adj, row) -> list:
    """Brandes' pass for source ``s``: breadth-first search, then the
    dependency accumulation in reverse visit order.

    ``row``, an array indexed by edge id, is overwritten with the
    contribution of each edge of s's shortest-path DAG (0 elsewhere).
    Returns the hop distances from ``s``, -1 where ``s`` does not reach.
    """
    n = len(adj)
    dist = [-1] * n
    sigma = [0.0] * n
    preds = [None] * n
    dist[s] = 0
    sigma[s] = 1.0
    order = [s]
    for v in order:  # order grows while it is walked: a FIFO queue
        below = dist[v] + 1
        sv = sigma[v]
        for w, e in adj[v]:
            d = dist[w]
            if d < 0:
                dist[w] = below
                order.append(w)
                sigma[w] = sv
                preds[w] = [(v, e)]
            elif d == below:
                sigma[w] += sv
                preds[w].append((v, e))
    row[:] = 0.0
    delta = [0.0] * n
    for w in order[:0:-1]:
        sw = sigma[w]
        carried = 1.0 + delta[w]
        for v, e in preds[w]:
            c = sigma[v] / sw * carried
            row[e] = c
            delta[v] += c
    return dist


def _fold(comp, adj, contrib, btw) -> None:
    """Set ``btw`` on the edges of component ``comp`` from the rows of
    its sources, summed one row at a time in sorted source order."""
    total = np.zeros(contrib.shape[1])
    for s in comp:
        total += contrib[s]
    eids = [e for v in comp for w, e in adj[v] if v < w]
    btw[eids] = total[eids] / 2.0


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


def _modularity(g: CollabGraph, assignment, m: float) -> float:
    """Q of ``assignment`` on ``g``, whose total edge weight is ``m``."""
    if m <= 0:
        raise DegenerateInputError("modularity: graph has no edge weight")
    if m == math.inf:
        raise DegenerateInputError("modularity: total edge weight overflows")
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
    if not math.isfinite(q):
        raise DegenerateInputError(f"modularity: not finite ({q!r}); edge weights too large")
    return q


def modularity(g: CollabGraph, p: Partition) -> float:
    """Q = sum_c [ e_cc / m - (d_c / 2m)^2 ] over the partition.

    A single community covering a connected graph gives exactly 0.
    """
    missing = [n for n in g.nodes if n not in p.assignment]
    if missing:
        raise DataError(f"partition does not cover nodes {missing[:5]}")
    return _modularity(g, p.assignment, g.total_weight)


def _partition_of(g, m, comps, step, removed_edge) -> Partition:
    """The partition of ``g`` (total edge weight ``m``) into ``comps``,
    lists of node ranks."""
    assignment = {}
    for cid, comp in enumerate(comps):
        for i in comp:
            assignment[g.nodes[i]] = cid
    return Partition(
        assignment=assignment,
        n_communities=len(comps),
        modularity=_modularity(g, assignment, m),
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
    ends, adj = _int_graph(g)
    m = g.total_weight
    comps = _components(range(len(adj)), adj)
    dendrogram = [_partition_of(g, m, comps, step=0, removed_edge=None)]
    count = len(comps)
    step = 0
    contrib = np.zeros((len(adj), len(ends)))
    dists = [_source_pass(s, adj, contrib[s]) for s in range(len(adj))]
    btw = np.empty(len(ends))
    for comp in comps:
        _fold(comp, adj, contrib, btw)
    alive = len(ends)
    while alive and (target_communities is None or count < target_communities):
        # The first maximum is the lexicographically smallest tied edge.
        cut = int(np.argmax(btw))
        i, j = ends[cut]
        adj[i].remove((j, cut))
        adj[j].remove((i, cut))
        btw[cut] = -np.inf
        alive -= 1
        step += 1
        # Shortest paths change only inside the component that held the
        # cut edge, and there only for sources that had i and j on
        # different BFS levels; every other source's row stands.
        touched = _components([i, j], adj)
        for comp in touched:
            for s in comp:
                if dists[s][i] != dists[s][j]:
                    dists[s] = _source_pass(s, adj, contrib[s])
            _fold(comp, adj, contrib, btw)
        if len(touched) > 1:
            # The cut split one component in two; the list stays ordered
            # by least node, as _components orders it.
            first, second = touched
            comps[next(k for k, c in enumerate(comps) if c[0] == first[0])] = first
            bisect.insort(comps, second, key=lambda c: c[0])
            count = len(comps)
            dendrogram.append(
                _partition_of(g, m, comps, step=step, removed_edge=g.edges[cut][:2])
            )
    best = dendrogram[0]
    for p in dendrogram[1:]:
        if p.modularity > best.modularity:
            best = p
    return dendrogram, best
