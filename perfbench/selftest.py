"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks that

* BENCHMARK.json declares the workloads and per-layer metrics that
  ``workloads.py`` and ``spans.py`` define;
* a minimal-length pass of every workload, untraced and traced, is
  correct and prints every declared metric with its unit;
* the traced spans nest, and each traced operation's per-layer self
  times add up to its root span, both in the span file and in the
  printed per-layer metrics;
* on the coauthor-gn120 input, stratlogit's best Girvan-Newman
  partition equals networkx's at the same community count, and the
  modularities agree, which keeps that workload's reference values
  honest;
* without the program's sources the benchmark exits nonzero and prints
  no result.

Each benchmark run is a subprocess that is waited for.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, coauthor_edges  # noqa: E402

REL_TOL = 1e-9


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(DEFAULT_SEED),
            "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def check_declarations(bench):
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS), "workload names"
    declared = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert declared == [m[:3] for m in spans.PER_LAYER], "per_layer differs from spans.PER_LAYER"


def check_result(lines, trace, bench):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, lines
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared, f"metrics {printed} != declared {declared}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        assert any(
            line.startswith(f"{name} ") and f" {m['unit']} (" in line for line in lines[:-1]
        ), f"{name} not printed with its unit"
    assert any(line.startswith("fail_ratio ") and " ratio (" in line for line in lines)
    return result


def check_self_times(lines, result):
    marker = "written to "
    path = next(line for line in lines if line.startswith("spans: ")).split(marker, 1)[1]
    with open(path, encoding="utf-8") as handle:
        handle.readline()  # header: environment and per-op summary
        records = [json.loads(line) for line in handle]
    by_op = {}
    for rec in records:
        by_op.setdefault(rec["op"], {})[rec["span"]] = rec
    roots = []
    for op, ops_spans in by_op.items():
        self_sum = 0.0
        root = None
        for rec in ops_spans.values():
            children = [c for c in ops_spans.values() if c["parent"] == rec["span"]]
            for c in children:
                assert rec["start"] <= c["start"] <= c["end"] <= rec["end"], (op, c)
            self_sum += (rec["end"] - rec["start"]) - sum(c["end"] - c["start"] for c in children)
            if rec["parent"] is None:
                assert root is None and rec["name"] == spans.ROOT_SPAN, (op, rec)
                root = rec["end"] - rec["start"]
            else:
                assert rec["parent"] in ops_spans, (op, rec)
        assert math.isclose(self_sum, root, rel_tol=REL_TOL), (op, self_sum, root)
        roots.append(root)
    mean_root = sum(roots) / len(roots)
    printed = sum(result["metrics"][m]["value"] for m in spans.SELF_TIME_METRICS.values())
    assert math.isclose(printed, mean_root, rel_tol=REL_TOL), (printed, mean_root)


def check_networkx():
    import networkx as nx
    from stratlogit.network import build_graph, girvan_newman

    edges = coauthor_edges(DEFAULT_SEED)
    _, best = girvan_newman(build_graph(edges))
    ours = {frozenset(c) for c in best.communities()}
    graph = nx.Graph(edges)
    theirs = next(
        {frozenset(c) for c in level}
        for level in nx.community.girvan_newman(graph)
        if len(level) >= best.n_communities
    )
    assert ours == theirs, "girvan_newman partition differs from networkx"
    assert math.isclose(nx.community.modularity(graph, theirs), best.modularity, rel_tol=REL_TOL)
    ref = WORKLOADS["coauthor-gn120"].reference
    assert (best.n_communities, best.modularity) == (ref["communities"], ref["modularity"])


def check_without_sources():
    bare = os.path.join(ROOT, ".perfbench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run_bench("coauthor-gn120", 0, cwd=bare)
        assert proc.returncode != 0, "ran without the program's sources"
        assert '"correct"' not in proc.stdout, "printed a result without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    check_declarations(bench)
    print("ok: BENCHMARK.json matches workloads.py and spans.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            result = check_result(lines, trace, bench)
            if trace:
                check_self_times(lines, result)
            print(f"ok: {workload} --trace {trace}: {result['attempted']} operations")
    check_networkx()
    print("ok: coauthor-gn120 partition and modularity equal networkx's")
    check_without_sources()
    print("ok: exits nonzero without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
