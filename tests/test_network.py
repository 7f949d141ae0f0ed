"""Graph construction, edge betweenness, modularity, and divisive
community detection, all checked against brute-force oracles."""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import (
    adjacency,
    batched_passes,
    brandes_ref,
    compare_gn,
    edge_betweenness,
    int_adjacency,
    modularity_ref,
    reference_components,
    refresh_ref,
    source_pass_ref,
    split_refresh_ref,
)
from stratlogit import network
from stratlogit.cli import main
from stratlogit.emit import write_dendrogram_json, write_json, write_partition_csv
from stratlogit.errors import (
    CellParseError,
    ConfigError,
    DataError,
    DegenerateInputError,
    MissingColumnError,
)
from stratlogit.network import (
    _TIE_RTOL,
    Partition,
    _cut_edge,
    build_graph,
    girvan_newman,
    read_edge_list,
)
from stratlogit.synth import make_coauthor_edges


def bfs_counts(adj, s):
    dist = {s: 0}
    sigma = {s: 1}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] = sigma.get(w, 0) + sigma[v]
    return dist, sigma


def brute_betweenness(g):
    """Pair-sum oracle: an edge (u, v) lies on a shortest s-t path iff
    d(s,u) + 1 + d(v,t) == d(s,t); that path bundle carries
    sigma(s,u) * sigma(v,t) / sigma(s,t) of the pair's unit."""
    dist, sigma = {}, {}
    adj = adjacency(g)
    for s in g.nodes:
        dist[s], sigma[s] = bfs_counts(adj, s)
    btw = {(u, v): 0.0 for u, v, _ in g.edges}
    for s, t in itertools.combinations(g.nodes, 2):
        if t not in dist[s]:
            continue
        dst = dist[s][t]
        nst = sigma[s][t]
        for u, v in btw:
            for a, b in ((u, v), (v, u)):
                if (
                    a in dist[s]
                    and b in dist[t]
                    and dist[s][a] + 1 + dist[t][b] == dst
                ):
                    btw[(u, v)] += sigma[s][a] * sigma[t][b] / nst
    return btw


def random_graph(seed, max_nodes=12):
    return build_graph(compare_gn.random_rows(seed, max_nodes))


def many_components(seed, count=30):
    return build_graph(compare_gn.component_rows(seed, count))


def reference_partition(g, comps, step, removed_edge):
    assignment = {node: cid for cid, comp in enumerate(comps) for node in comp}
    q = modularity_ref(
        g, Partition(assignment=assignment, n_communities=len(comps), modularity=0.0)
    )
    return Partition(
        assignment=assignment,
        n_communities=len(comps),
        modularity=q,
        step=step,
        removed_edge=removed_edge,
    )


def tie_cut_ref(btw):
    """The edge to cut from ``{edge: betweenness}``: the lexicographically
    smallest of the edges within ``_TIE_RTOL`` relative of the largest
    betweenness."""
    top = max(btw.values())
    return min(edge for edge, b in btw.items() if b >= top - _TIE_RTOL * top)


def reference_girvan_newman(g, target_communities=None):
    """Whole-graph recompute after every cut, by the exact one-source
    passes of ``brandes_ref``: the reference whose cuts, partitions and
    modularity bits the incremental loop must match.

    Returns the dendrogram and, per cut, the top betweenness score's
    relative margin over the runner-up (inf when one edge is left)."""
    adj = {n: list(vs) for n, vs in adjacency(g).items()}
    comps = reference_components(g.nodes, adj)
    dendrogram = [reference_partition(g, comps, step=0, removed_edge=None)]
    margins = []
    for step in range(1, g.n_edges + 1):
        if (
            target_communities is not None
            and dendrogram[-1].n_communities >= target_communities
        ):
            break
        btw = brandes_ref(g.nodes, adj)
        best_edge = tie_cut_ref(btw)
        scores = sorted(btw.values(), reverse=True)
        margins.append(
            (scores[0] - scores[1]) / scores[0] if len(scores) > 1 else float("inf")
        )
        u, v = best_edge
        adj[u].remove(v)
        adj[v].remove(u)
        comps = reference_components(g.nodes, adj)
        if len(comps) > dendrogram[-1].n_communities:
            dendrogram.append(
                reference_partition(g, comps, step=step, removed_edge=best_edge)
            )
    return dendrogram, margins


def assert_betweenness_close(g):
    """Every edge's betweenness is within 1e-12 relative of ``brandes_ref``'s."""
    ours = edge_betweenness(g)
    theirs = brandes_ref(g.nodes, adjacency(g))
    assert list(ours) == list(theirs)
    assert_allclose(list(ours.values()), list(theirs.values()), rtol=1e-12, atol=0)


def assert_oracle_bytes(g):
    """The batched passes before the first cut write the bytes of the
    passes as first written (``refresh_ref``)."""
    got, want = batched_passes(g)[1:], batched_passes(g, refresh=refresh_ref)[1:]
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def cut_scores(g, monkeypatch) -> tuple:
    """(cuts, SHA-256 of the betweenness bytes handed to ``_cut_edge`` at
    every cut), ``g`` cut to exhaustion."""
    digest, cuts = hashlib.sha256(), []
    real_cut = network._cut_edge

    def cut_edge(btw):
        digest.update(btw.tobytes())
        cuts.append(real_cut(btw))
        return cuts[-1]

    monkeypatch.setattr(network, "_cut_edge", cut_edge)
    girvan_newman(g)
    return len(cuts), digest.hexdigest()


def gn120(seed):
    """The benchmark's planted graph family: four communities of 30."""
    return build_graph(
        make_coauthor_edges(seed=seed, community_sizes=(30, 30, 30, 30), p_in=0.3, bridges=2)
    )


def diamond_chain_rows(count):
    """``count`` diamonds in a row: hub h<i> reaches hub h<i+1> over the
    two sides u<i> and l<i>, so the path count doubles at every hub."""
    rows = []
    for i in range(count):
        for side in (f"u{i:02d}", f"l{i:02d}"):
            rows += [(f"h{i:02d}", side), (side, f"h{i + 1:02d}")]
    return rows


def hypercube_rows(dim):
    return [
        (format(i, f"0{dim}b"), format(i ^ (1 << b), f"0{dim}b"))
        for i in range(2**dim)
        for b in range(dim)
        if i < i ^ (1 << b)
    ]


def grid_rows(side):
    rows = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                rows.append((f"r{r}c{c}", f"r{r}c{c + 1}"))
            if r + 1 < side:
                rows.append((f"r{r}c{c}", f"r{r + 1}c{c}"))
    return rows


def petersen_rows():
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return outer + spokes + inner


def two_triangles_with_bridge():
    return build_graph(
        [
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("c", "d"),
            ("d", "e"),
            ("d", "f"),
            ("e", "f"),
        ]
    )


@st.composite
def gn_cases(draw):
    """A graph and a target community count (None: run to exhaustion).

    Random multigraphs of up to 40 nodes and 60 edges, often
    disconnected, and the tie-heavy cycles, hypercubes, complete
    bipartite graphs and grids.  Nodes get shuffled unpadded names, so
    rank order differs from numeric order and tied edges sort
    differently from one draw to the next."""
    family = draw(st.sampled_from(["random", "cycle", "hypercube", "bipartite", "grid"]))
    if family == "random":
        # one to three node-disjoint random pieces, each with its own size
        rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32))))
        pieces = int(rng.integers(1, 4))
        rows = []
        base = 0
        for _ in range(pieces):
            k = int(rng.integers(2, 40 // pieces + 1))
            size = int(rng.integers(1, 60 // pieces + 1))
            a = rng.integers(0, k, size)
            b = (a + rng.integers(1, k, size)) % k
            rows += [(base + int(x), base + int(y)) for x, y in zip(a, b)]
            base += k
    elif family == "cycle":
        k = draw(st.integers(3, 16))
        rows = [(i, (i + 1) % k) for i in range(k)]
    elif family == "hypercube":
        dim = draw(st.integers(1, 4))
        rows = [(i, i ^ (1 << b)) for i in range(2**dim) for b in range(dim) if i < i ^ (1 << b)]
    elif family == "bipartite":
        a, b = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        rows = [(x, a + y) for x in range(a) for y in range(b)]
    else:
        r, c = draw(st.integers(1, 5)), draw(st.integers(2, 6))
        rows = [(i, i + 1) for i in range(r * c) if (i + 1) % c] + [
            (i, i + c) for i in range((r - 1) * c)
        ]
    labels = draw(st.permutations(range(1 + max(max(row) for row in rows))))
    g = build_graph([(f"v{labels[a]}", f"v{labels[b]}") for a, b in rows])
    target = draw(st.none() | st.integers(1, g.n_nodes))
    return g, target


def reweighted(g, weighted, seed):
    """``g`` itself, or ``g`` with lognormal edge weights, whose sums
    depend on the order they are added in."""
    if not weighted:
        return g
    rng = np.random.Generator(np.random.PCG64(seed))
    w = rng.lognormal(0.0, 2.0, g.n_edges).tolist()
    return build_graph([(u, v, x) for (u, v, _), x in zip(g.edges, w)])


def assert_modularity_is_whole_graph_walk(g):
    """Every recorded partition's modularity, kept per community across
    cuts, has the bits of ``modularity_ref``'s whole-graph walk."""
    dendrogram, _ = girvan_newman(g)
    assert [p.modularity.hex() for p in dendrogram] == [
        modularity_ref(g, p).hex() for p in dendrogram
    ]


class TestBuildGraph:
    def test_aggregates_duplicates_any_orientation(self):
        g = build_graph([("b", "a", 1.5), ("a", "b", 2.0), ("a", "c")])
        assert g.nodes == ("a", "b", "c")
        assert g.edges == (("a", "b", 3.5), ("a", "c", 1.0))
        assert g.total_weight == 4.5

    def test_self_loops_dropped_and_counted(self):
        g = build_graph([("a", "a"), ("a", "b"), ("b", "b", 4.0)])
        assert g.self_loops_dropped == 2
        assert g.n_edges == 1

    def test_weight_and_shape_validation(self):
        with pytest.raises(DataError):
            build_graph([("a", "b", 0.0)])
        with pytest.raises(DataError):
            build_graph([("a", "b", -1.0)])
        with pytest.raises(DataError):
            build_graph([("a", "b", float("nan"))])
        with pytest.raises(DataError):
            build_graph([("a", "b", float("inf"))])
        with pytest.raises(DataError):
            build_graph([("a", "b", 1e308), ("b", "a", 1e308)])  # sum overflows
        with pytest.raises(DataError):
            build_graph([("a",)])
        with pytest.raises(DataError):
            build_graph([("", "b")])


class TestEdgeBetweenness:
    def test_bridge_between_triangles(self):
        g = two_triangles_with_bridge()
        btw = edge_betweenness(g)
        # 3x3 cross pairs plus the c-d pair itself, one path each
        assert_allclose(btw[("c", "d")], 9.0, atol=1e-12)
        assert btw[("c", "d")] == max(btw.values())

    def test_four_cycle_uniform(self):
        g = build_graph([("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
        btw = edge_betweenness(g)
        for value in btw.values():
            assert_allclose(value, 2.0, atol=1e-12)

    def test_path_graph(self):
        g = build_graph([("a", "b"), ("b", "c")])
        btw = edge_betweenness(g)
        assert btw == {("a", "b"): 2.0, ("b", "c"): 2.0}

    def test_matches_brute_force(self):
        for seed in range(30):
            g = random_graph(seed)
            fast = edge_betweenness(g)
            slow = brute_betweenness(g)
            assert set(fast) == set(slow)
            for edge in fast:
                assert_allclose(fast[edge], slow[edge], atol=1e-9)

    @pytest.mark.parametrize(
        "make_graph",
        [
            pytest.param(lambda seed=seed: random_graph(seed, max_nodes=24), id=f"random{seed}")
            for seed in range(100, 148)
        ]
        + [pytest.param(lambda: gn120(7), id="planted4x30")],
    )
    # 1: one source per batch; floor: a budget of one entry, so the
    # floor of _MIN_BATCH sources binds; the default holds every source
    # of a random graph in one batch and cuts planted4x30's into batches
    # of 13, where the floor does not bind.
    @pytest.mark.parametrize(
        "entries, min_batch",
        [(1, 1), (1, network._MIN_BATCH), (network._BATCH_ENTRIES, network._MIN_BATCH)],
        ids=["1", "floor", str(network._BATCH_ENTRIES)],
    )
    def test_batched_rows_match_one_source_passes(
        self, make_graph, entries, min_batch, monkeypatch
    ):
        monkeypatch.setattr(network, "_BATCH_ENTRIES", entries)
        monkeypatch.setattr(network, "_MIN_BATCH", min_batch)
        g = make_graph()
        adj, dist, contrib, _ = batched_passes(g)
        row = np.empty(g.n_edges)
        for s in range(g.n_nodes):
            assert dist[s].tolist() == source_pass_ref(s, adj, row)
            assert_allclose(contrib[s], row, rtol=1e-12, atol=0)
        assert_betweenness_close(g)
        assert_oracle_bytes(g)

    def test_path_counts_past_2_to_the_53(self):
        # the path count from h00 doubles at every hub, up to 2**60 at h60
        g = build_graph(diamond_chain_rows(60))
        assert g.n_nodes == 181
        assert_betweenness_close(g)
        assert_oracle_bytes(g)
        fast, _ = girvan_newman(g, target_communities=3)
        slow, _ = reference_girvan_newman(g, target_communities=3)
        assert [(p.step, p.removed_edge, p.modularity.hex()) for p in fast] == [
            (p.step, p.removed_edge, p.modularity.hex()) for p in slow
        ]
        assert [p.assignment for p in fast] == [p.assignment for p in slow]

    def test_total_equals_sum_of_pair_distances(self):
        # each connected pair spreads exactly d(s, t) units over edges
        for seed in (3, 11, 27):
            g = random_graph(seed)
            btw = edge_betweenness(g)
            total_dist = 0
            adj = adjacency(g)
            for s, t in itertools.combinations(g.nodes, 2):
                dist, _ = bfs_counts(adj, s)
                if t in dist:
                    total_dist += dist[t]
            assert_allclose(sum(btw.values()), total_dist, atol=1e-9)


class TestModularity:
    def direct_q(self, g, assignment):
        """Textbook double sum over node pairs."""
        m = g.total_weight
        w = {}
        for u, v, weight in g.edges:
            w[(u, v)] = weight
            w[(v, u)] = weight
        deg = {n: 0.0 for n in g.nodes}
        for u, v, weight in g.edges:
            deg[u] += weight
            deg[v] += weight
        q = 0.0
        for u in g.nodes:
            for v in g.nodes:
                if assignment[u] != assignment[v]:
                    continue
                q += w.get((u, v), 0.0) - deg[u] * deg[v] / (2.0 * m)
        return q / (2.0 * m)

    def test_single_community_is_exactly_zero(self):
        g = two_triangles_with_bridge()
        p = Partition(
            assignment={n: 0 for n in g.nodes}, n_communities=1, modularity=0.0
        )
        assert modularity_ref(g, p) == 0.0

    def test_two_triangle_partition(self):
        g = two_triangles_with_bridge()
        assignment = {n: (0 if n in "abc" else 1) for n in g.nodes}
        p = Partition(assignment=assignment, n_communities=2, modularity=0.0)
        q = modularity_ref(g, p)
        assert_allclose(q, 5.0 / 14.0, atol=1e-15)
        assert_allclose(q, self.direct_q(g, assignment), atol=1e-12)

    def test_matches_direct_formula_on_random_partitions(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for seed in range(10):
            g = random_graph(seed + 50)
            n_comm = int(rng.integers(1, 4))
            labels = {n: int(rng.integers(0, n_comm)) for n in g.nodes}
            used = sorted(set(labels.values()))
            remap = {c: i for i, c in enumerate(used)}
            assignment = {n: remap[c] for n, c in labels.items()}
            p = Partition(
                assignment=assignment, n_communities=len(used), modularity=0.0
            )
            assert_allclose(modularity_ref(g, p), self.direct_q(g, assignment), atol=1e-12)

    @pytest.mark.parametrize("weight", [1e308, 5e307])
    def test_overflowing_weights_are_degenerate(self, weight):
        # 1e308 overflows the total weight, 5e307 a community's degree
        g = build_graph([("a", "b", weight), ("b", "c", weight), ("a", "c", weight)])
        p = Partition(assignment={n: 0 for n in g.nodes}, n_communities=1, modularity=0.0)
        with pytest.raises(DegenerateInputError):
            modularity_ref(g, p)
        with pytest.raises(DegenerateInputError):
            girvan_newman(g)

    def test_uncovered_node_rejected(self):
        g = two_triangles_with_bridge()
        p = Partition(assignment={"a": 0}, n_communities=1, modularity=0.0)
        with pytest.raises(DataError):
            modularity_ref(g, p)

    def test_dense_id_validation(self):
        with pytest.raises(DataError):
            Partition(assignment={"a": 0, "b": 2}, n_communities=2, modularity=0.0)


class TestGirvanNewman:
    def test_bridge_cut_first(self):
        g = two_triangles_with_bridge()
        dendrogram, best = girvan_newman(g)
        assert dendrogram[0].n_communities == 1
        assert dendrogram[0].removed_edge is None
        first_split = dendrogram[1]
        assert first_split.removed_edge == ("c", "d")
        assert first_split.n_communities == 2
        assert best.n_communities == 2
        assert_allclose(best.modularity, 5.0 / 14.0, atol=1e-15)
        assert best.communities() == [["a", "b", "c"], ["d", "e", "f"]]

    def test_component_counts_strictly_increase(self):
        for seed in (2, 9, 14):
            g = random_graph(seed)
            dendrogram, _ = girvan_newman(g)
            counts = [p.n_communities for p in dendrogram]
            assert all(b > a for a, b in zip(counts, counts[1:]))
            assert counts[-1] == g.n_nodes

    def test_triangle_tie_breaks_lexicographic(self):
        g = build_graph([("a", "b"), ("a", "c"), ("b", "c")])
        dendrogram, best = girvan_newman(g)
        # all three edges tie at 1.0; (a, b) goes first, then the
        # two-edge path concentrates betweenness and (a, c) splits off a
        assert dendrogram[1].removed_edge == ("a", "c")
        assert dendrogram[1].communities() == [["a"], ["b", "c"]]
        assert best.n_communities == 1 and best.modularity == 0.0

    @pytest.mark.parametrize("top", [1.0, 9.0, 3.0 / 7.0, 1234.5678, 2.0**60])
    def test_tie_rule_exact_and_one_ulp(self, top):
        # Exact ties and 1-ulp near-ties alike go to the lowest edge id;
        # a score past the 1e-12 band wins on its own.  The program's
        # rule and the oracle's agree on each case.
        up, down = np.nextafter(top, np.inf), np.nextafter(top, 0.0)
        far = top * (1.0 + 4.0 * _TIE_RTOL)
        cases = [
            ([top, top, 0.5 * top], 0),
            ([0.5 * top, top, top], 1),
            ([top, up], 0),
            ([up, top], 0),
            ([down, top], 0),
            ([-np.inf, down, up, top], 1),
            ([top, far], 1),
            ([far, top, far], 0),
        ]
        names = [("a", f"b{e:02d}") for e in range(4)]
        for scores, want in cases:
            assert _cut_edge(np.array(scores)) == want
            assert tie_cut_ref(
                {edge: b for edge, b in zip(names, scores) if b > -np.inf}
            ) == names[want]

    @pytest.mark.parametrize("k", [4, 6, 10])
    def test_even_cycle_cut_reruns_every_source_without_a_split(self, k, monkeypatch):
        # An even cycle is bipartite, so every source has the ends of every
        # edge on different levels, as it has a bridge's; but its first cut
        # leaves a path.  The edge test tells the two apart.
        g = build_graph([(f"c{v:02d}", f"c{(v + 1) % k:02d}") for v in range(k)])
        refreshed, scores = [], []
        real_refresh, real_cut = network._refresh, network._cut_edge

        def refresh(comp, sources, *args):
            refreshed.append((comp.tolist(), sources.tolist()))
            real_refresh(comp, sources, *args)

        def cut_edge(btw):
            scores.append(btw.copy())
            return real_cut(btw)

        monkeypatch.setattr(network, "_refresh", refresh)
        monkeypatch.setattr(network, "_cut_edge", cut_edge)
        dendrogram, _ = girvan_newman(g, target_communities=2)
        everyone = list(range(k))
        # the passes before the first cut, then the first cut's
        assert refreshed[:2] == [(everyone, everyone)] * 2
        assert [p.step for p in dendrogram] == [0, 2]
        assert g.edges[0][:2] == ("c00", "c01")
        path = build_graph(g.edges[1:])
        want = brandes_ref(path.nodes, adjacency(path))
        assert list(want) == [edge[:2] for edge in g.edges[1:]]
        assert scores[1][0] == -np.inf
        assert_allclose(scores[1][1:], list(want.values()), rtol=1e-12, atol=0)

    def test_bridge_cut_reruns_the_old_component_once(self, monkeypatch):
        # A bridge cut reruns every source of the component it splits in
        # one refresh of the whole old component, not one per part.
        g = two_triangles_with_bridge()
        refreshed = []
        real_refresh = network._refresh

        def refresh(comp, sources, *args):
            refreshed.append((comp.tolist(), sources.tolist()))
            real_refresh(comp, sources, *args)

        monkeypatch.setattr(network, "_refresh", refresh)
        dendrogram, _ = girvan_newman(g, target_communities=2)
        assert [(p.step, p.removed_edge) for p in dendrogram] == [(0, None), (1, ("c", "d"))]
        everyone = list(range(6))
        # the passes before the first cut, then the bridge cut's
        assert refreshed == [(everyone, everyone)] * 2

    @pytest.mark.parametrize(
        "make_graph",
        [pytest.param(lambda seed=seed: gn120(seed), id=f"planted4x30-seed{seed}") for seed in range(6)]
        + [
            pytest.param(
                lambda: build_graph([(f"p{v:02d}", f"p{v + 1:02d}") for v in range(29)]), id="path30"
            ),
            pytest.param(
                lambda: build_graph(
                    [(f"a{i:02d}", f"b{i:02d}") for i in range(40)] + [("p0", "p1"), ("p1", "p2")]
                ),
                id="40edges-and-a-path",
            ),
        ],
    )
    def test_split_refresh_bits_equal_per_part_refreshes(self, make_graph, monkeypatch):
        # After every cut that splits a component, the one refresh of the
        # old component leaves the hop distances, the contribution rows and
        # the betweenness bit-equal to a refresh of each part.
        g = make_graph()
        real_refresh = network._refresh
        splits = []

        def refresh(comp, sources, ends, alive, dist, contrib, btw):
            want = dist.copy(), contrib.copy(), btw.copy()
            real_refresh(comp, sources, ends, alive, dist, contrib, btw)
            adj = {v: [] for v in comp.tolist()}
            for a, b in ends[alive & np.isin(ends[:, 0], comp)].tolist():
                adj[a].append(b)
                adj[b].append(a)
            parts = reference_components(comp.tolist(), adj)
            if len(parts) == 1:
                return
            assert len(parts) == 2 and sources.tolist() == comp.tolist()
            split_refresh_ref(*map(np.array, parts), ends, alive, *want)
            for got, ref in zip((dist, contrib, btw), want):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            splits.append(parts)

        monkeypatch.setattr(network, "_refresh", refresh)
        dendrogram, _ = girvan_newman(g)
        assert len(splits) == len(dendrogram) - 1 > 0

    @pytest.mark.parametrize(
        "make_graph, target",
        [
            pytest.param(lambda: gn120(7), None, id="planted4x30"),
            pytest.param(
                lambda: build_graph([(f"p{v:02d}", f"p{v + 1:02d}") for v in range(29)]),
                None,
                id="path30",
            ),
            pytest.param(lambda: many_components(seed=3), None, id="30components"),
            # path counts up to 2**60
            pytest.param(lambda: build_graph(diamond_chain_rows(60)), 3, id="diamond-chain60"),
        ],
    )
    def test_every_refresh_writes_the_oracle_bytes(self, make_graph, target, monkeypatch):
        # Each refresh, a split's refresh of the old component included,
        # writes the hop distances, contribution rows and betweenness of
        # the passes as first written, byte for byte.
        g = make_graph()
        real_refresh = network._refresh
        refreshes = splits = 0

        def refresh(comp, sources, ends, alive, dist, contrib, btw):
            nonlocal refreshes, splits
            want = dist.copy(), contrib.copy(), btw.copy()
            refresh_ref(comp, sources, ends, alive, *want)
            real_refresh(comp, sources, ends, alive, dist, contrib, btw)
            for got, ref in zip((dist, contrib, btw), want):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
            refreshes += 1
            splits += bool((dist[comp[0], comp] < 0).any())

        monkeypatch.setattr(network, "_refresh", refresh)
        dendrogram, _ = girvan_newman(g, target_communities=target)
        assert refreshes == dendrogram[0].n_communities + dendrogram[-1].step
        assert splits == len(dendrogram) - 1 > 0

    # SHA-256 of the betweenness bytes handed to _cut_edge at every cut, cut
    # to exhaustion: the benchmark's coauthor-gn120 graph and the bundled
    # edge list, as the batched passes first wrote them (scripts/compare_gn.py
    # compares two trees; this pins one).  Betweenness is summed by
    # np.bincount and a row-by-row column sum, never by BLAS, and path
    # counts below 2**53 are exact, so the bytes hold under any BLAS
    # thread count.
    PINNED_CUT_SCORES = {
        "gn120": (611, "ea0706a50ad543ece0be0ed83d5ea96a8a3b7e051899fda0077d02fae1c41079"),
        "fixture": (83, "e61300adcfd53362c10921f5aab67b0383719999e665883ff7f8b7f086f49071"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_CUT_SCORES))
    def test_betweenness_bytes_at_every_cut_are_pinned(self, name, edges_csv, monkeypatch):
        g = gn120(7) if name == "gn120" else build_graph(read_edge_list(edges_csv))
        assert cut_scores(g, monkeypatch) == self.PINNED_CUT_SCORES[name]

    @pytest.mark.parametrize("seed", [*range(5), "long-path"])
    def test_components_equal_networkx(self, seed):
        # The seeded graphs gain three isolated ranks past their own and
        # have their ranks shuffled, so no edge lists its lower end first;
        # the long path's ranks fall along it, so the least label must
        # travel its whole length.
        nx = pytest.importorskip("networkx")
        if seed == "long-path":
            n, ends = 64, np.array([(v + 1, v) for v in range(63)])
        else:
            g = many_components(seed)
            n = g.n_nodes + 3
            ends = np.random.Generator(np.random.PCG64(seed)).permutation(n)[int_adjacency(g)[0]]
        graph = nx.Graph(ends.tolist())
        graph.add_nodes_from(range(n))
        want = sorted((sorted(c) for c in nx.connected_components(graph)), key=lambda c: c[0])
        assert len(want) == (1 if seed == "long-path" else 33)
        assert network._components(n, ends) == want

    def test_target_stops_early(self):
        g = two_triangles_with_bridge()
        dendrogram, _ = girvan_newman(g, target_communities=2)
        assert dendrogram[-1].n_communities == 2
        for bad in (0, 7, 2.5, True):
            with pytest.raises(ConfigError):
                girvan_newman(g, target_communities=bad)

    def test_edgeless_graph_rejected(self):
        g = build_graph([("a", "a")])
        with pytest.raises(DegenerateInputError):
            girvan_newman(g)

    def test_recovers_planted_communities(self):
        rows = make_coauthor_edges(seed=7, community_sizes=(10, 10, 10))
        g = build_graph(rows)
        _, best = girvan_newman(g)
        assert best.n_communities == 3
        comms = best.communities()
        prefixes = [sorted({node[0] for node in comm}) for comm in comms]
        assert prefixes == [["a"], ["b"], ["c"]]
        assert best.modularity > 0.3

    @pytest.mark.parametrize(
        "make_graph",
        [
            pytest.param(lambda seed=seed: random_graph(seed, max_nodes=24), id=f"random{seed}")
            for seed in range(100, 148)
        ]
        + [
            pytest.param(lambda: build_graph(hypercube_rows(4)), id="hypercube4"),
            pytest.param(lambda: build_graph(grid_rows(6)), id="grid6x6"),
            pytest.param(lambda: build_graph(petersen_rows()), id="petersen"),
            # Seeds 6 and 9 cut differently at some step unless the tie
            # rule absorbs the batched passes' last-bit differences.
            pytest.param(lambda: gn120(7), id="planted4x30"),
            pytest.param(lambda: gn120(6), id="planted4x30-seed6"),
            pytest.param(lambda: gn120(9), id="planted4x30-seed9"),
            pytest.param(
                lambda: build_graph(
                    [(f"a{i:02d}", f"b{i:02d}") for i in range(40)] + [("p0", "p1"), ("p1", "p2")]
                ),
                id="40edges-and-a-path",
            ),
            pytest.param(lambda: many_components(seed=3), id="30components"),
        ],
    )
    def test_matches_whole_graph_recompute(self, make_graph):
        g = make_graph()
        fast, _ = girvan_newman(g)
        slow, _ = reference_girvan_newman(g)
        assert [
            (p.step, p.removed_edge, p.n_communities, p.modularity.hex())
            for p in fast
        ] == [
            (p.step, p.removed_edge, p.n_communities, p.modularity.hex())
            for p in slow
        ]
        assert [p.assignment for p in fast] == [p.assignment for p in slow]

    @settings(max_examples=200)
    @given(gn_cases())
    def test_bits_equal_whole_graph_recompute(self, case):
        g, target = case
        assert_betweenness_close(g)
        fast, fast_best = girvan_newman(g, target_communities=target)
        slow, _ = reference_girvan_newman(g, target_communities=target)
        assert [
            (p.step, p.removed_edge, p.n_communities, p.modularity.hex())
            for p in fast
        ] == [
            (p.step, p.removed_edge, p.n_communities, p.modularity.hex())
            for p in slow
        ]
        assert [p.assignment for p in fast] == [p.assignment for p in slow]
        assert fast_best.step == max(slow, key=lambda p: p.modularity).step

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "lognormal"])
    def test_recorded_modularity_is_whole_graph_walk_gn120(self, weighted):
        rows = make_coauthor_edges(seed=7, community_sizes=(30, 30, 30, 30), p_in=0.3, bridges=2)
        assert len(rows) == 611
        assert_modularity_is_whole_graph_walk(reweighted(build_graph(rows), weighted, seed=7))

    def test_recorded_modularity_is_whole_graph_walk_fixture(self, edges_csv):
        assert_modularity_is_whole_graph_walk(build_graph(read_edge_list(edges_csv)))

    @settings(max_examples=150)
    @given(gn_cases(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_recorded_modularity_is_whole_graph_walk(self, case, weighted, seed):
        g, _ = case
        assert_modularity_is_whole_graph_walk(reweighted(g, weighted, seed))

    def test_output_independent_of_hash_seed(self, tmp_path):
        # Brandes accumulation must not follow hash order: walking
        # neighbour sets moves the 4-cube's step-8 cut with PYTHONHASHSEED
        edges = tmp_path / "cube.csv"
        edges.write_text(
            "author_a,author_b\n"
            + "".join(f"{a},{b}\n" for a, b in hypercube_rows(4)),
            encoding="utf-8",
        )
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("0", "4"):
            out = tmp_path / f"out{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
            )
            subprocess.run(
                [sys.executable, "-m", "stratlogit.cli", "communities",
                 "--coauthor-edges", str(edges), "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(
                ((out / "dendrogram.json").read_bytes(),
                 (out / "partition.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_deterministic(self):
        g = random_graph(21)
        d1, b1 = girvan_newman(g)
        d2, b2 = girvan_newman(g)
        assert [p.removed_edge for p in d1] == [p.removed_edge for p in d2]
        assert b1.assignment == b2.assignment


class TestNetworkxDifferential:
    def test_edge_betweenness_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for seed in range(200, 230):
            g = random_graph(seed, max_nodes=24)
            ours = edge_betweenness(g)
            graph = nx.Graph([(u, v) for u, v, _ in g.edges])
            theirs = {
                tuple(sorted(edge)): value
                for edge, value in nx.edge_betweenness_centrality(
                    graph, normalized=False
                ).items()
            }
            assert set(ours) == set(theirs)
            for edge in ours:
                assert_allclose(ours[edge], theirs[edge], rtol=1e-12, atol=0)

    def test_partitions_match_networkx(self):
        # networkx breaks betweenness ties by dict order, so a split is
        # compared only while every cut up to it had a unique top score;
        # graphs where that prefix stops short of the best split are skipped
        nx = pytest.importorskip("networkx")
        compared = []
        for seed in range(20):
            g = build_graph(
                make_coauthor_edges(
                    seed=seed, community_sizes=(6, 8, 10, 12), p_in=0.3, bridges=2
                )
            )
            dendrogram, best = girvan_newman(g)
            _, margins = reference_girvan_newman(g)
            unique = 0
            while unique < len(margins) and margins[unique] > 1e-9:
                unique += 1
            if best.step > unique:
                continue
            ours = {
                p.n_communities: {frozenset(c) for c in p.communities()}
                for p in dendrogram[1:]
                if p.step <= unique
            }
            theirs = {
                len(split): {frozenset(c) for c in split}
                for split in itertools.takewhile(
                    lambda split: len(split) <= max(ours),
                    nx.community.girvan_newman(nx.Graph([(u, v) for u, v, _ in g.edges])),
                )
            }
            assert theirs == ours
            compared.extend(ours)
        assert compared.count(4) >= 5 and max(compared) > 4


class TestEdgeListIo:
    def test_reads_with_and_without_weight(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text(
            "author_a,author_b,weight\nx,y,2.5\ny,z,\n\nz,x,1\nx,z, \ny,x\n", encoding="utf-8"
        )
        rows = read_edge_list(path)
        assert rows == [("x", "y", 2.5), ("y", "z"), ("z", "x", 1.0), ("x", "z"), ("y", "x")]
        two_col = tmp_path / "edges2.csv"
        two_col.write_text("author_a,author_b\nx,y\n", encoding="utf-8")
        assert read_edge_list(two_col) == [("x", "y")]

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("src,dst\nx,y\n", encoding="utf-8")
        with pytest.raises(MissingColumnError):
            read_edge_list(path)
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            read_edge_list(path)

    @pytest.mark.parametrize("header", ["author_a,author_b,year", "author_a,author_b,weight,"])
    def test_unknown_column_rejected(self, tmp_path, header):
        path = tmp_path / "bad.csv"
        path.write_text(f"{header}\nx,y,1,\n", encoding="utf-8")
        with pytest.raises(DataError, match="expected header") as info:
            read_edge_list(path)
        assert not isinstance(info.value, MissingColumnError)

    def test_column_named_twice_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("author_a,author_b,author_b\nx,y,z\n", encoding="utf-8")
        with pytest.raises(DataError, match="more than once"):
            read_edge_list(path)

    def test_cell_under_no_column_is_never_read(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("author_a,author_b\nx,y,3\ny,z,0.5,junk\nz,x,\n", encoding="utf-8")
        assert read_edge_list(path) == [("x", "y"), ("y", "z"), ("z", "x")]

    def test_reordered_header_read_by_name(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("weight, author_b ,author_a\n2.5,y,x\n,z,y\n", encoding="utf-8")
        assert read_edge_list(path) == [("x", "y", 2.5), ("y", "z")]

    def test_unlabeled_weights_leave_communities_unchanged(self, tmp_path, edges_csv):
        """A varying cell after each edge, under no header column, moved
        the best modularity (0.6421 to 0.6306) when it was read by position."""
        header, *lines = pathlib.Path(edges_csv).read_text(encoding="utf-8").splitlines()
        extra = tmp_path / "extra.csv"
        lines = [f"{line},{i % 5 + 1}\n" for i, line in enumerate(lines)]
        extra.write_text(header + "\n" + "".join(lines), encoding="utf-8")
        for source, out in ((edges_csv, "plain"), (extra, "extra")):
            args = ["communities", "--coauthor-edges", str(source), "--out", str(tmp_path / out)]
            assert main(args) == 0
        for name in ("partition.csv", "dendrogram.json"):
            plain = (tmp_path / "plain" / name).read_bytes()
            assert (tmp_path / "extra" / name).read_bytes() == plain

    def test_cell_errors_carry_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("author_a,author_b,weight\nx,y,heavy\n", encoding="utf-8")
        with pytest.raises(CellParseError) as info:
            read_edge_list(path)
        assert "row 1" in str(info.value) and "weight" in str(info.value)
        path.write_text("author_a,author_b\nx\n", encoding="utf-8")
        with pytest.raises(CellParseError, match="row 1, column author_b: must be non-empty"):
            read_edge_list(path)
        for weight in ("-2", "inf", "nan", "1e999"):
            path.write_text(f"author_a,author_b,weight\nx,y,{weight}\n", encoding="utf-8")
            with pytest.raises(CellParseError):
                read_edge_list(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            read_edge_list(tmp_path / "nope.csv")

    def test_utf8_bom_header_accepted(self, tmp_path, edges_csv):
        text = pathlib.Path(edges_csv).read_text(encoding="utf-8")
        bom = tmp_path / "bom.csv"
        bom.write_text("\ufeff" + text, encoding="utf-8")
        assert read_edge_list(bom) == read_edge_list(edges_csv)

    def test_non_utf8_bytes_rejected(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("author_a,author_b\nMuñoz,Lee\n".encode("latin-1"))
        with pytest.raises(DataError, match="not UTF-8") as info:
            read_edge_list(path)
        assert str(path) in str(info.value)


class TestWriters:
    def test_refused_payload_leaves_no_file(self, tmp_path):
        p = Partition(assignment={"a": 0}, n_communities=1, modularity=float("nan"))
        out = tmp_path / "dendrogram.json"
        with pytest.raises(ValueError):
            write_dendrogram_json([p], out)
        with pytest.raises(ValueError):
            write_json({"q": float("inf")}, out)
        assert not out.exists()

    def test_partition_csv(self, tmp_path):
        p = Partition(
            assignment={"b": 1, "a": 0, "c": 1},
            n_communities=2,
            modularity=0.25,
        )
        out = tmp_path / "partition.csv"
        write_partition_csv(p, out)
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == ["author,community_id", "a,0", "b,1", "c,1"]

    def test_dendrogram_json(self, tmp_path):
        g = two_triangles_with_bridge()
        dendrogram, _ = girvan_newman(g)
        out = tmp_path / "dendrogram.json"
        write_dendrogram_json(dendrogram, out)
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload[0] == {
            "step": 0,
            "removed_edge": None,
            "communities": 1,
            "modularity": 0.0,
        }
        assert payload[1]["removed_edge"] == ["c", "d"]
        assert [e["communities"] for e in payload] == sorted(
            e["communities"] for e in payload
        )
