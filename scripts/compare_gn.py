"""Girvan-Newman bit rule: compare two source trees' community detection.

    python scripts/compare_gn.py OLD_SRC NEW_SRC [--large] [--family NAME ...]

OLD_SRC and NEW_SRC are directories that hold the ``stratlogit``
package, such as the ``src`` of two checkouts.  Each tree runs
``network.girvan_newman`` in its own subprocess, one per graph family.
For each family the script prints the SHA-256 of the dendrograms'
``repr`` (every partition and modularity to the bit) and of the
betweenness array's bytes at every cut, taken from the array each cut
hands to ``network._cut_edge``, with each tree's CPU time and peak RSS.
It exits 1 if any digest differs between the trees.

Families: planted 4x30 graphs at seeds 0-5, 400 random graphs of up to
24 nodes, a 42- and a 150-component graph, a 30-node path, 40 disjoint
edges plus a 3-node path, the bundled ``data/coauthor_edges.csv`` and a
460-node planted graph, all cut to exhaustion.  ``--large`` adds planted
graphs of 1000 and 2000 nodes, cut to four communities.  ``--family``
runs only the named families.  Each tree builds the graphs with its own
``build_graph`` and ``synth.make_coauthor_edges``.  Betweenness does
not depend on the BLAS thread count, so the digests should not move
with ``OPENBLAS_NUM_THREADS`` either.
"""

import argparse
import hashlib
import itertools
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import numpy as np

EDGES_CSV = pathlib.Path(__file__).resolve().parent.parent / "data" / "coauthor_edges.csv"


def random_rows(seed, max_nodes):
    """Each pair of 3 to ``max_nodes`` nodes joined with probability 0.35."""
    rng = np.random.Generator(np.random.PCG64(seed))
    k = int(rng.integers(3, max_nodes + 1))
    names = [f"n{i:02d}" for i in range(k)]
    rows = [pair for pair in itertools.combinations(names, 2) if rng.random() < 0.35]
    return rows or [(names[0], names[1])]


def component_rows(seed, count):
    """``count`` node-disjoint connected random graphs of 4 to 10 nodes
    (a random path plus each other pair with probability 0.3), with
    shuffled names so that the components' ranks interleave."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = rng.integers(4, 11, count)
    names = [f"v{x:03d}" for x in rng.permutation(int(sizes.sum()))]
    rows = []
    base = 0
    for k in sizes.tolist():
        order = (base + rng.permutation(k)).tolist()
        rows += [(names[a], names[b]) for a, b in zip(order, order[1:])]
        rows += [
            (names[base + a], names[base + b])
            for a, b in itertools.combinations(range(k), 2)
            if rng.random() < 0.3
        ]
        base += k
    return rows


def _planted(sizes, p_in, seed=7):
    from stratlogit.synth import make_coauthor_edges

    return make_coauthor_edges(seed=seed, community_sizes=sizes, p_in=p_in, bridges=2)


def _fixture():
    from stratlogit.network import read_edge_list

    return read_edge_list(EDGES_CSV)


# name -> (target community count or None, a function that returns the
# edge row lists of the family's graphs)
FAMILIES = {
    **{
        f"planted4x30-s{seed}": (None, lambda seed=seed: [_planted((30,) * 4, 0.3, seed)])
        for seed in range(6)
    },
    "random24": (None, lambda: [random_rows(seed, 24) for seed in range(400)]),
    "components42": (None, lambda: [component_rows(4, 42)]),
    "components150": (None, lambda: [component_rows(5, 150)]),
    "path30": (None, lambda: [[(f"p{v:02d}", f"p{v + 1:02d}") for v in range(29)]]),
    "40edges-and-a-path": (
        None,
        lambda: [[(f"a{i:02d}", f"b{i:02d}") for i in range(40)] + [("p0", "p1"), ("p1", "p2")]],
    ),
    "fixture": (None, lambda: [_fixture()]),
    "planted460": (None, lambda: [_planted((115,) * 4, 0.088)]),
}
LARGE = {
    "planted1000": (4, lambda: [_planted((250,) * 4, 0.04)]),
    "planted2000": (4, lambda: [_planted((500,) * 4, 0.0183)]),
}


def run_family(name) -> dict:
    """Digests, cut count, CPU seconds and peak RSS of one family, run
    with the ``stratlogit`` on ``sys.path``."""
    from stratlogit import network

    target, make_rows = {**FAMILIES, **LARGE}[name]
    graphs = [network.build_graph(rows) for rows in make_rows()]
    dendrograms, scores = hashlib.sha256(), hashlib.sha256()
    cuts = 0
    real_cut = network._cut_edge

    def cut_edge(btw):
        nonlocal cuts
        cuts += 1
        scores.update(btw.tobytes())
        return real_cut(btw)

    network._cut_edge = cut_edge
    start = time.process_time()
    try:
        for g in graphs:
            dendrogram, best = network.girvan_newman(g, target_communities=target)
            dendrograms.update(repr((dendrogram, best)).encode())
    finally:
        network._cut_edge = real_cut
    return {
        "dendrogram": dendrograms.hexdigest(),
        "btw": scores.hexdigest(),
        "graphs": len(graphs),
        "cuts": cuts,
        "cpu_s": time.process_time() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_tree(src, name) -> dict:
    """``run_family(name)`` in a subprocess that imports ``stratlogit``
    from the directory ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--worker", name],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(done.stdout)


def compare(old_src, new_src, names) -> tuple:
    """(lines, same): one line per family and tree, and whether every
    digest is equal."""
    lines, same = [], True
    for name in names:
        runs = [run_tree(src, name) for src in (old_src, new_src)]
        equal = all(runs[0][key] == runs[1][key] for key in ("dendrogram", "btw"))
        same &= equal
        lines.append(
            f"{name}: {runs[0]['graphs']} graph(s), {runs[0]['cuts']} -> {runs[1]['cuts']} cuts, "
            + ("equal" if equal else "DIFFERENT")
        )
        for side, run in zip(("old", "new"), runs):
            lines.append(
                f"  {side}: dendrogram {run['dendrogram']} btw {run['btw']} "
                f"cpu {run['cpu_s']:.2f} s peak rss {run['peak_rss_mb']:.1f} MB"
            )
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        usage=__doc__.split("\n\n")[1].strip(),
    )
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--large", action="store_true")
    parser.add_argument("--family", action="append", choices=[*FAMILIES, *LARGE])
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not os.path.isfile(os.path.join(src, "stratlogit", "network.py")):
            parser.error(f"{src} holds no stratlogit package")
    names = args.family or [*FAMILIES, *(LARGE if args.large else ())]
    lines, same = compare(args.old_src, args.new_src, names)
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        print(json.dumps(run_family(sys.argv[2])))
    else:
        sys.exit(main())
