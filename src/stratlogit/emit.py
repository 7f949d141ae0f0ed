"""The output format: every file stratlogit writes is written here.

CSV files are UTF-8, comma separated, with the csv module's ``\\r\\n``
line ends and one header row.  Every cell goes through ``cell``: a
float is written as ``repr(float(v))``, the shortest text that reads
back to the same double; a bool as ``1`` or ``0``; None as an empty
cell; anything else as ``str(v)``.  A metric whose denominator is empty
is written as the word ``undefined`` (``null`` in JSON), never as 0.

JSON files hold sorted keys, a two-space indent and one trailing
newline; NaN and infinity are refused.  A JSON payload holds Python
values only: callers turn arrays into lists with ``tolist``.

Nothing in either format depends on the run, so two runs over the same
input and configuration write byte-identical files.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .logit import inference_table
from .model_select import METRIC_FIELDS, comparison_to_dicts

UNDEFINED = "undefined"


def cell(value) -> str:
    """One CSV cell of ``value``."""
    # Floats first: they are nearly every cell of the large files.
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_csv(path, header, rows) -> None:
    """``header``, then one line per row of ``rows``, each cell through ``cell``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)


def to_json(payload) -> str:
    """The JSON text of ``payload``, which holds Python values only."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(payload, path) -> None:
    """Write ``to_json(payload)``; a payload it refuses leaves no file."""
    text = to_json(payload)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def out_path(out_dir, name) -> str:
    """``out_dir``/``name``, creating ``out_dir`` if needed."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _floats(values) -> list:
    """An array of numbers as (nested) lists of Python floats."""
    return np.asarray(values, dtype=float).tolist()


def _metric(value):
    """A metric's cell: None, an empty denominator, reads ``undefined``."""
    return UNDEFINED if value is None else value


def write_feature_matrix_csv(m, path) -> None:
    """Audit dump: one row per scholar, feature columns plus target."""
    write_csv(
        path,
        list(m.column_names) + ["target"],
        (row + [int(t)] for row, t in zip(_floats(m.values), m.target.tolist())),
    )


def write_comparison_csv(table, path) -> None:
    """Wide export: one column per candidate, one row per field of
    ``comparison_to_dicts`` but ``iterations``, features joined by ``+``
    and one ``coef_<name>`` row per coefficient.

    An empty cell is a value the candidate does not have: a coefficient
    of a feature outside its model, or anything its fit raised before
    computing.  A metric of a fitted candidate whose denominator is
    empty reads ``undefined``.
    """
    models = comparison_to_dicts(table)
    if not models:
        raise DegenerateInputError("comparison table has no rows to write")
    fitted = [m["coefficients"] is not None for m in models]
    coef_names = dict.fromkeys(["intercept"] + [f for m in models for f in m["features"]])
    rows = []
    for key in models[0]:
        values = [m[key] for m in models]
        if key == "features":
            values = ["+".join(v) for v in values]
        elif key == "coefficients":
            rows += [[f"coef_{name}"] + [c and c.get(name) for c in values] for name in coef_names]
            continue
        elif key in METRIC_FIELDS:
            values = [_metric(v) if ok else v for v, ok in zip(values, fitted)]
        if key not in ("model_id", "iterations"):
            rows.append([key] + values)
    write_csv(path, ["row"] + [m["model_id"] for m in models], rows)


def write_inference_csv(fit, path) -> None:
    """Per-feature inference rows of a converged fit."""
    fields = ("feature", "coef", "std_err", "z", "p_two_sided", "exp_b", "wald")
    write_csv(path, fields, ([getattr(r, f) for f in fields] for r in inference_table(fit)))


def write_shap_values_csv(shap, row_ids, path) -> None:
    write_csv(
        path,
        ["scholar_id"] + list(shap.feature_names),
        ([row_id] + row for row_id, row in zip(row_ids, _floats(shap.values))),
    )


def write_importance_csv(ranking, path) -> None:
    write_csv(path, ["feature", "mean_abs_shap"], ranking.entries)


def write_trend_csv(curves: dict, path) -> None:
    """Trend file: the x sites, then one attribution column per named curve.

    The curves of one feature share their x sites; a None curve (a model
    without the feature) leaves its column empty.
    """
    x = next(c.x for c in curves.values() if c is not None)
    columns = [_floats(x)] + [
        [None] * x.size if c is None else _floats(c.y) for c in curves.values()
    ]
    write_csv(path, ["x"] + list(curves), zip(*columns))


def write_describe_files(out_dir, fm, description) -> list:
    """The describe stage's files; ``description`` is what
    ``describe_indicators`` returned.  Returns the paths written."""
    stats, corr, vifs = description
    names = ("features.csv", "descriptive_stats.csv", "correlation.csv", "vif.csv")
    paths = [out_path(out_dir, name) for name in names]
    write_feature_matrix_csv(fm, paths[0])
    fields = ("mean", "std_dev", "minimum", "median", "maximum", "skewness")
    write_csv(
        paths[1],
        ["variable", "n", *fields],
        ([row["variable"], row["n"]] + [row[f] for f in fields] for row in stats),
    )
    write_csv(
        paths[2],
        ["variable"] + list(corr.names),
        ([name] + row for name, row in zip(corr.names, _floats(corr.r))),
    )
    write_csv(paths[3], ["variable", "vif"], zip(fm.column_names, _floats(vifs)))
    return paths


def write_evaluate_files(out_dir, cm, mets, roc) -> list:
    """The evaluate stage's files.  Returns the paths written."""
    paths = [out_path(out_dir, name) for name in ("confusion.csv", "metrics.csv", "roc.csv")]
    write_csv(paths[0], ["tp", "fp", "tn", "fn"], [[cm.tp, cm.fp, cm.tn, cm.fn]])
    write_csv(
        paths[1],
        ["metric", "value"],
        (
            [name, _metric(getattr(mets, name))]
            for name in ("accuracy", "precision", "recall", "f1")
        ),
    )
    write_csv(
        paths[2],
        ["fpr", "tpr", "threshold"],
        ([fpr, tpr, t] for (fpr, tpr), t in zip(roc.points, roc.thresholds)),
    )
    return paths


def write_report_files(report, out_dir) -> list:
    """Write report.json and the CSV side files; returns the paths."""
    artifacts = report.artifacts
    if artifacts is None:
        raise ConfigError("report has no artifacts attached; run the pipeline first")
    fm = artifacts.feature_matrix
    written = [out_path(out_dir, "report.json")]
    write_json(report.to_json_dict(), written[0])
    written += write_describe_files(out_dir, fm, artifacts.description)
    written.append(out_path(out_dir, "comparison.csv"))
    write_comparison_csv(artifacts.comparison, written[-1])
    written += write_evaluate_files(out_dir, artifacts.confusion, artifacts.metrics, artifacts.roc)
    for key, fit, shap, ranking in (
        ("full", artifacts.full_fit, artifacts.full_shap, artifacts.full_importance),
        ("optimized", artifacts.best_fit, artifacts.optimized_shap, artifacts.optimized_importance),
    ):
        paths = [
            out_path(out_dir, f"{kind}_{key}.csv") for kind in ("inference", "shap", "importance")
        ]
        write_inference_csv(fit, paths[0])
        write_shap_values_csv(shap, fm.row_ids, paths[1])
        write_importance_csv(ranking, paths[2])
        written += paths
    for name, tc in artifacts.trends.items():
        written.append(out_path(out_dir, f"trend_{name}.csv"))
        write_trend_csv(
            {"attribution_full": tc.full_curve, "attribution_optimized": tc.optimized_curve},
            written[-1],
        )
    return written


def write_partition_csv(p, path) -> None:
    write_csv(
        path, ["author", "community_id"], ((n, p.assignment[n]) for n in sorted(p.assignment))
    )


def write_dendrogram_json(dendrogram, path) -> None:
    """Summary of every recorded split: step, cut edge, component count
    and modularity."""
    write_json(
        [
            {
                "step": p.step,
                "removed_edge": list(p.removed_edge) if p.removed_edge else None,
                "communities": p.n_communities,
                "modularity": p.modularity,
            }
            for p in dendrogram
        ],
        path,
    )
