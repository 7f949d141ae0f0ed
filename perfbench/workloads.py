"""The benchmark's workloads: how each one sets up its input, the command
one operation runs, the files that operation must write, and the results
it must reproduce at the default seed.

Each workload stresses a different module, so a change to one hot path
shows on one workload and is predicted to leave another unchanged:

* ``fixture-enumerate``: 511 small fits in ``model_select``/``logit``.
* ``synth2000-stepwise``: O(n * sites) LOWESS in ``attribution``, about
  25 wide fits, no ``fit_all``, the largest side files.
* ``coauthor-gn120``: O(m^2 n) betweenness in ``network`` only.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

from stratlogit import synth
from stratlogit.indicators import FEATURE_COLUMNS
from stratlogit.ingest import write_dataset_csv

DEFAULT_SEED = 7
FIXTURE = os.path.join("data", "synthetic_scholars.csv")

REPORT_FILES = frozenset(
    [
        "report.json",
        "features.csv",
        "descriptive_stats.csv",
        "correlation.csv",
        "vif.csv",
        "inference_full.csv",
        "inference_optimized.csv",
        "comparison.csv",
        "confusion.csv",
        "metrics.csv",
        "roc.csv",
        "shap_full.csv",
        "shap_optimized.csv",
        "importance_full.csv",
        "importance_optimized.csv",
    ]
    + [f"trend_{name}.csv" for name in FEATURE_COLUMNS]
)
COMMUNITY_FILES = frozenset(["partition.csv", "dendrogram.json"])

# Relative tolerance for float reference values.  Not a byte digest: a
# change that moves only the last bits (the re-pin rule for goldens) is
# not an output failure here.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    size: str
    # (checkout root, input dir, seed) -> argv of one operation, without --out
    setup: Callable[[str, str, int], list]
    files: frozenset
    key_file: str
    # output dir -> values compared with ``reference``
    summarize: Callable[[str], dict]
    reference: dict


def _fixture_setup(root, input_dir, seed):
    path = os.path.join(root, FIXTURE)
    if not os.path.isfile(path):
        raise FileNotFoundError(f"bundled fixture {FIXTURE} is missing")
    return ["report", "--input", path, "--select", "enumerate", "--seed", str(seed)]


def _synth_setup(root, input_dir, seed):
    path = os.path.join(input_dir, "scholars.csv")
    dataset = synth.make_scholar_dataset(n=2000, seed=seed, target_increase=None)
    write_dataset_csv(dataset, path)
    return ["report", "--input", path, "--select", "stepwise"]


GN_EDGES = 611
# Girvan-Newman work grows as edges^2 * nodes, and the generator's edge
# count varies by a few percent between seeds.  So the workload seed
# picks the first draw, among generator seeds seed, seed + STRIDE, ...,
# with exactly GN_EDGES edges (the draw at the default seed has them).
GN_STRIDE = 1_000_003


def coauthor_edges(seed):
    """The coauthor-gn120 graph: 120 nodes in four planted communities of
    30 and exactly GN_EDGES edges, chosen by ``seed``."""
    for k in range(10_000):
        edges = synth.make_coauthor_edges(
            seed=seed + k * GN_STRIDE,
            community_sizes=(30, 30, 30, 30),
            p_in=0.3,
            bridges=2,
        )
        if len(edges) == GN_EDGES:
            return edges
    raise RuntimeError(f"no {GN_EDGES}-edge draw for seed {seed}")


def _graph_setup(root, input_dir, seed):
    path = os.path.join(input_dir, "edges.csv")
    edges = coauthor_edges(seed)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["author_a", "author_b"])
        writer.writerows(edges)
    return ["communities", "--coauthor-edges", path]


def _report_summary(out_dir):
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as handle:
        report = json.load(handle)
    return {
        "best_features": report["selection"]["best"]["features"],
        "aic": report["selection"]["best"]["aic"],
        "val_auc": report["evaluation"]["roc"]["auc"],
        # LOWESS output: a sum of absolute values, so a change that moves
        # only the last bits stays within REL_TOL.
        "trend_abs_sum": math.fsum(
            abs(v)
            for trend in report["attribution"]["trends"].values()
            for curve in (trend["full"], trend["optimized"] or [])
            for v in curve
        ),
    }


def _communities_summary(out_dir):
    with open(os.path.join(out_dir, "partition.csv"), newline="", encoding="utf-8") as handle:
        count = len({row["community_id"] for row in csv.DictReader(handle)})
    with open(os.path.join(out_dir, "dendrogram.json"), encoding="utf-8") as handle:
        levels = json.load(handle)
    modularity = next(lv["modularity"] for lv in levels if lv["communities"] == count)
    return {"communities": count, "modularity": modularity}


def reference_mismatches(summary: dict, reference: dict) -> list:
    """Fields of ``summary`` that differ from ``reference``; floats by
    relative tolerance, everything else exactly."""
    bad = []
    for key, want in reference.items():
        got = summary.get(key)
        if isinstance(want, float) and isinstance(got, float):
            ok = math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{key}: got {got!r}, reference {want!r}")
    return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fixture-enumerate",
            size="459-row bundled fixture, 9 features, 511 candidate models",
            setup=_fixture_setup,
            files=REPORT_FILES,
            key_file="report.json",
            summarize=_report_summary,
            reference={
                "best_features": ["FGR", "FR", "CA", "P", "C"],
                "aic": 304.34501561389135,
                "val_auc": 0.8956101659315281,
                "trend_abs_sum": 3364.296225045355,
            },
        ),
        Workload(
            name="synth2000-stepwise",
            size="2000 synthetic scholars, 9 features, backward stepwise",
            setup=_synth_setup,
            files=REPORT_FILES,
            key_file="report.json",
            summarize=_report_summary,
            reference={
                "best_features": ["AD", "FGR", "FR", "CA", "P", "C", "PC"],
                "aic": 1325.0804481281236,
                "val_auc": 0.880953970797722,
                "trend_abs_sum": 14353.973728149536,
            },
        ),
        Workload(
            name="coauthor-gn120",
            size="120-node planted graph, four communities of 30, 611 edges",
            setup=_graph_setup,
            files=COMMUNITY_FILES,
            key_file="partition.csv",
            summarize=_communities_summary,
            reference={"communities": 4, "modularity": 0.7396262197947612},
        ),
    )
}
