"""Co-authorship graph, edge betweenness and community detection.

``read_edge_list`` reads the edge list through ``ingest.read_csv`` and
checks only the edge list's own rules.

The divisive community algorithm repeatedly removes the edge carrying
the most shortest-path traffic (Brandes accumulation over hop-count
paths) and records a partition each time the component count grows.
Modularity of every recorded partition is taken against the original
graph, and the best partition is the modularity maximum over the whole
dendrogram.

Betweenness runs on an integer copy of the graph: nodes are numbered by
their sorted rank, which is the names' order, so edge ids follow
lexicographic edge order.  ``_source_passes`` runs Brandes' passes for
a batch of sources at once: a breadth-first search a level at a time,
path counts from the frontier times the component's adjacency matrix,
then the dependencies from the deepest level up, each level scattered
with ``np.bincount``, which adds each (source, tail) pair's
contributions in ascending directed-edge order.  A batch holds as many
sources as fit ``_BATCH_ENTRIES`` sources-by-directed-edges entries, and
at least ``_MIN_BATCH`` (8) sources, so that a large graph still batches.

Per-source cache: ``girvan_newman`` keeps each source's hop distances
(-1 outside its component) in an n-by-n int32 array and its row of edge
contributions in an n-by-m float64 array (n*n*4 + n*m*8 bytes: 0.64 MB
at 120 nodes and 611 edges, 192 MB at 2000 nodes and 10,982 edges).
The component that held a cut edge (i, j) is the set of nodes row
``dist[i]`` reaches, and of its sources only the ones with
``dist[s, i] != dist[s, j]``, read off rows i and j, rerun, in one
batched pass.  When the distances are equal, the edge joins two nodes
on one BFS level: it never discovers a node and never adds to a path
count, so that source's distances, path counts, dependencies and
contributions are the same without it.  The cut splits the component
when, after the refresh, i no longer reaches j.  A bridge leaves every
source with i and j on different levels, so all of them rerun, in one
refresh of the old component, whose bits equal those of one refresh per
part: each source's search stays inside its own part, a source in the
other part adds an exact +0.0 to an edge's column sum, and path counts
and ``np.bincount`` sums keep their order within each row.

Determinism: path counts are integers, exact in any summation order
while they stay below 2**53, so the matrix product's order, and with it
the BLAS thread count, does not change them.  Dependencies and
contributions are summed in a fixed order by ``np.bincount``, never by
BLAS, and nothing walks a set, so betweenness depends on neither the
BLAS thread count nor the interpreter's hash seed.  ``_refresh`` sums
a C-ordered (sources, edges) gather row after row; a gather of another
layout, such as ``contrib[comp][:, eids]``, sums in another order.
Betweenness differs from that of one pass per source in the last bits,
so a cut does not rest on exact equality: it takes the lexicographically
smallest edge among those within ``_TIE_RTOL`` (1e-12) relative of the
largest betweenness.
Equal inputs give byte-equal outputs in every process.

Modularity keeps, per community, the weight of the original graph's
edges inside it and of those leaving it.  A split recomputes both sums
for its two parts only, from boolean masks over the edge arrays, each a
left fold in edge-id order: the order in which one walk over the whole
graph's edges adds them, so every Q has the bits of that walk.  Each
recorded partition is read off an array of community ids by node rank,
which a split updates in place.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    CellParseError,
    ConfigError,
    DataError,
    DegenerateInputError,
    require_number,
)
from .ingest import read_csv


@dataclass(frozen=True)
class CollabGraph:
    """Undirected weighted graph with canonical (sorted) edge keys."""

    nodes: tuple
    edges: tuple  # ((u, v, weight), ...) with u < v, sorted by (u, v)
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
    return CollabGraph(
        nodes=tuple(sorted({n for pair in weights for n in pair})),
        edges=tuple((u, v, weights[(u, v)]) for u, v in sorted(weights)),
        self_loops_dropped=dropped,
    )


_EDGE_COLUMNS = ("author_a", "author_b", "weight")


def read_edge_list(path, delimiter: str = ",") -> list:
    """The CSV edge list at ``path`` (``read_csv``), as (a, b) for an
    unweighted edge and (a, b, weight) for a weighted one.  The header
    names ``author_a``, ``author_b`` and optionally ``weight``, in any
    order, and no other column; a blank or absent weight means weight 1.
    """
    edges = []
    with read_csv(path, delimiter, _EDGE_COLUMNS, ("weight",)) as (header, rows):
        if not set(header) <= set(_EDGE_COLUMNS):
            raise DataError(f"{path}: expected header author_a,author_b[,weight], got {header}")
        for row_num, cells in rows:
            a, b, raw = cells["author_a"].strip(), cells["author_b"].strip(), cells["weight"]
            for name, end in (("author_a", a), ("author_b", b)):
                if not end:
                    raise CellParseError(row_num, name, cells[name], "must be non-empty")
            if not raw.strip():
                edges.append((a, b))
                continue
            try:
                w = float(raw)
            except ValueError:
                raise CellParseError(row_num, "weight", raw, "expected a number") from None
            if not 0 < w < math.inf:
                raise CellParseError(row_num, "weight", raw, "must be finite and > 0")
            edges.append((a, b, w))
    return edges


def _components(n, ends) -> list:
    """Connected components of the graph on node ranks ``range(n)`` with
    the m-by-2 edge ends ``ends``, as sorted node lists ordered by least
    node.  Each label, a node of its own component, falls to its
    neighbours' least label and then to its own label's label until none
    moves, so each component ends labelled by its least node."""
    label = np.arange(n)
    while True:
        low = label.copy()
        np.minimum.at(low, ends[:, 0], label[ends[:, 1]])
        np.minimum.at(low, ends[:, 1], label[ends[:, 0]])
        low = low[low]
        if np.array_equal(low, label):
            break
        label = low
    order = np.argsort(label, kind="stable")
    return [c.tolist() for c in np.split(order, np.flatnonzero(np.diff(label[order])) + 1)]


# Entries of a batch's sources-by-directed-edges table: each batched
# pass holds a few temporaries of at most this many values.
_BATCH_ENTRIES = 1 << 14
# Sources per batch on a graph too large for the entry budget to hold
# this many: one source's search reads the whole dense adjacency at
# every level, as a batch's does.
_MIN_BATCH = 8
# A cut takes the lexicographically smallest edge whose betweenness is
# within this relative distance of the largest.
_TIE_RTOL = 1e-12


def _source_passes(sources, comp, ends, eids, dist, contrib) -> None:
    """Brandes' passes for the node ranks ``sources``, all in the
    component whose sorted node ranks are ``comp`` and whose live edge
    ids are ``eids``; ``ends`` is the m-by-2 array of edge ends.
    Overwrites, for each source s, ``dist[s]`` with the hop distances
    from s (-1 outside the component) and ``contrib[s]``, indexed by
    edge id, with the contribution of each edge of s's shortest-path DAG
    (0 elsewhere)."""
    k = len(comp)
    # Local ranks; tail -> head is each edge a -> b in ``eids`` order, then b -> a.
    ab = np.searchsorted(comp, ends.take(eids, 0)).T
    tail, head = ab.ravel(), ab[::-1].ravel()
    adjacency = np.zeros((k, k))
    adjacency[tail, head] = 1.0
    edge = np.concatenate([eids, eids])
    # Levels stay below k; numpy radix-sorts integers of 16 bits or less.
    level = np.int16 if k < 1 << 15 else np.int32
    per_batch = max(_MIN_BATCH, _BATCH_ENTRIES // max(1, len(edge)))
    for lo in range(0, len(sources), per_batch):
        batch = sources[lo:lo + per_batch]
        size = len(batch) * k
        sigma = np.zeros((len(batch), k))
        sigma[np.arange(len(batch)), np.searchsorted(comp, batch)] = 1.0
        unseen = sigma == 0.0
        # d counts the levels each node stays unseen through.
        d = np.zeros(sigma.shape, dtype=level)
        frontier = sigma
        left, levels = size - len(batch), 0
        while left:
            # Path counts below 2**53 are exact integers, so this sum does
            # not depend on the order the product adds it in.
            reach = frontier @ adjacency
            reach *= unseen
            found = reach > 0.0
            count = np.count_nonzero(found)
            if not count:
                break
            d += unseen
            unseen ^= found
            sigma += reach
            frontier = reach
            left -= count
            levels += 1
        d[unseen] = -1
        # The DAG's (directed edge, source) pairs (t, r), deepest head level
        # first, each level in (t, r) order: each source's in edge order.
        d_t = d.T.copy()
        at_head = d_t.take(head, 0)
        flat = np.flatnonzero(at_head == (d_t + 1).take(tail, 0))
        key = -at_head.take(flat)
        order = key.argsort(kind="stable")
        flat, key = flat.take(order), key.take(order)
        t, r = np.divmod(flat, len(batch))
        at_v, at_w = r * k + tail.take(t), r * k + head.take(t)
        # c: sigma_v / sigma_w, times 1 + delta_w above the deepest level.
        c = sigma.take(at_v) / sigma.take(at_w)
        start = 0
        for stop in key.searchsorted(np.arange(-levels, 0), "right").tolist():
            # A level's heads are complete; its tails all lie one level up,
            # and only they get a dependency from it.
            if start:
                c[start:stop] *= 1.0 + delta.take(at_w[start:stop])
            delta = np.bincount(at_v[start:stop], c[start:stop], size)
            start = stop
        dist[batch] = -1
        dist[batch[:, None], comp] = d
        contrib[batch] = 0.0
        contrib[batch.take(r), edge.take(t)] = c


def _refresh(comp, sources, ends, alive, dist, contrib, btw) -> None:
    """Rerun the passes of ``sources`` in component ``comp`` (sorted node
    ranks, an array) and set ``btw`` on its live edges (``alive`` by edge
    id) to its sources' rows summed, then halved."""
    inside = np.zeros(len(dist), dtype=bool)
    inside[comp] = True
    eids = np.flatnonzero(alive & inside[ends[:, 0]])
    if len(sources):
        _source_passes(sources, comp, ends, eids, dist, contrib)
    btw[eids] = contrib[comp[:, None], eids].sum(axis=0) / 2.0


def _cut_edge(btw) -> int:
    """The lowest edge id, so the lexicographically smallest edge, among
    those within ``_TIE_RTOL`` relative of the largest betweenness."""
    top = btw.max()
    return int(np.argmax(btw >= top - _TIE_RTOL * top))


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


def _q(sums, m: float) -> float:
    """Q of the communities whose (intra, cross) edge weights are ``sums``,
    in community order, on a graph of total edge weight ``m``."""
    if m <= 0:
        raise DegenerateInputError("modularity: graph has no edge weight")
    if m == math.inf:
        raise DegenerateInputError("modularity: total edge weight overflows")
    q = 0.0
    for e_cc, cross in sums:
        degree = 2.0 * e_cc + cross
        q += e_cc / m - (degree / (2.0 * m)) ** 2
    if not math.isfinite(q):
        raise DegenerateInputError(f"modularity: not finite ({q!r}); edge weights too large")
    return q


def _community_sums(comp, n_nodes, ends, weights) -> tuple:
    """(intra, cross): the weight of the edges with both ends, and with
    one end, in the node set ``comp``, each a left fold in edge-id order
    as a walk over the whole graph's edges adds them.  ``ends`` (m by 2
    node ranks) and ``weights`` are the original graph's edges, by edge
    id."""
    inside = np.zeros(n_nodes, dtype=bool)
    inside[comp] = True
    at_i, at_j = inside[ends[:, 0]], inside[ends[:, 1]]
    intra = functools.reduce(operator.add, weights[at_i & at_j].tolist(), 0.0)
    cross = functools.reduce(operator.add, weights[at_i ^ at_j].tolist(), 0.0)
    return intra, cross


def _partition_of(names, label, m, sums, step, removed_edge) -> Partition:
    """The partition of the nodes ``names`` (an object array by node
    rank) into the communities ``label`` (ids by node rank) whose (intra,
    cross) weights are ``sums``, on a graph of total edge weight ``m``.
    The assignment lists the nodes by community, then by rank, and its
    values share one int object per community: ``tolist`` would make one
    per node for every id past CPython's cached small ints."""
    order = np.argsort(label, kind="stable")
    ids = list(range(len(sums)))
    return Partition(
        assignment=dict(zip(names[order].tolist(), map(ids.__getitem__, label[order].tolist()))),
        n_communities=len(sums),
        modularity=_q(sums, m),
        step=step,
        removed_edge=removed_edge,
    )


def check_target_communities(target_communities) -> None:
    """``girvan_newman``'s rule for ``target_communities`` that needs no
    graph: a ConfigError unless it is None or an integer >= 1."""
    if target_communities is not None:
        require_number("girvan_newman: target_communities", target_communities, integer=True)
        if target_communities < 1:
            raise ConfigError(
                f"girvan_newman: target_communities must be >= 1, got {target_communities}"
            )


def girvan_newman(g: CollabGraph, target_communities: Optional[int] = None) -> tuple:
    """Divisive community detection by repeated betweenness cuts.

    Returns (dendrogram, best): the dendrogram lists one Partition per
    distinct component count (starting from the untouched graph, counts
    strictly increasing), and best is the modularity maximum (earliest
    wins ties).  Stops at edge exhaustion or once the component count
    reaches ``target_communities``.
    """
    check_target_communities(target_communities)
    if g.n_edges == 0:
        raise DegenerateInputError("girvan_newman: graph has no edges")
    if target_communities is not None and target_communities > g.n_nodes:
        raise ConfigError(
            f"girvan_newman: target_communities must be in 1..{g.n_nodes}, "
            f"got {target_communities}"
        )
    rank = {name: r for r, name in enumerate(g.nodes)}
    ends = np.array([(rank[u], rank[v]) for u, v, _ in g.edges])
    n = g.n_nodes
    m = g.total_weight
    # Modularity is taken on the original graph's edges.
    weights = np.array([w for _, _, w in g.edges])
    comps = _components(n, ends)
    sums = [_community_sums(c, n, ends, weights) for c in comps]
    alive = np.ones(g.n_edges, dtype=bool)
    dist = np.full((n, n), -1, dtype=np.int32)
    contrib = np.zeros((n, g.n_edges))
    btw = np.empty(g.n_edges)
    # Communities are numbered in the order of their least nodes, and
    # ``label`` holds each node rank's community id.
    label = np.empty(n, dtype=np.int64)
    for cid, comp in enumerate(comps):
        comp = np.array(comp)
        label[comp] = cid
        _refresh(comp, comp, ends, alive, dist, contrib, btw)
    names = np.array(g.nodes, dtype=object)
    dendrogram = [_partition_of(names, label, m, sums, step=0, removed_edge=None)]
    step = 0
    while step < g.n_edges and (target_communities is None or len(sums) < target_communities):
        cut = _cut_edge(btw)
        i, j = ends[cut].tolist()
        alive[cut] = False
        btw[cut] = -np.inf
        step += 1
        # Shortest paths change only inside the component that held the
        # cut edge, and there only for the sources with i and j on
        # different BFS levels, read off rows i and j by symmetry.
        comp = np.flatnonzero(dist[i] >= 0)
        rerun = np.flatnonzero(dist[i] != dist[j])
        _refresh(comp, rerun, ends, alive, dist, contrib, btw)
        if dist[i, j] >= 0:
            continue
        # The cut was a bridge: i no longer reaches j, and the component
        # splits into the nodes each reaches.  The part with the old least
        # node keeps its id.  The other part's id is one past the largest
        # id of the nodes below its least node, and the ids from there on
        # move up one.  Only the two parts' modularity sums change.
        side = dist[comp[0], comp] >= 0
        first, second = comp[side], comp[~side]
        sums[label[first[0]]] = _community_sums(first, n, ends, weights)
        k = int(label[:second[0]].max()) + 1
        sums.insert(k, _community_sums(second, n, ends, weights))
        label[label >= k] += 1
        label[second] = k
        dendrogram.append(
            _partition_of(names, label, m, sums, step=step, removed_edge=g.edges[cut][:2])
        )
    # max keeps the first of equal maxima: the earliest partition wins.
    return dendrogram, max(dendrogram, key=operator.attrgetter("modularity"))
