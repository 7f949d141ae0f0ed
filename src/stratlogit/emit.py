"""The output format: every file stratlogit writes is written here.

CSV files are UTF-8, comma separated, with ``\\r\\n`` line ends and one
header row; their bytes are those the csv module's default writer gives.
``write_csv`` is the one writer, and it takes a table as columns.  A
column that is a float array becomes text through ``float_texts``, which
renders each distinct value of the column once with ``float.__repr__``;
a column of ``FloatTexts`` is written as it is; any other column goes
through ``cell``, the one cell rule: a float as ``repr(float(v))``, the
shortest text that reads back to the same double; a bool as ``1`` or
``0``; None as an empty cell; anything else as ``str(v)`` through
``quote_cell``, the one quoting rule (the csv module's minimal quoting).
A metric whose denominator is empty is written as the word ``undefined``
(``null`` in JSON), never as 0.

JSON files hold sorted keys, a two-space indent and one trailing
newline; NaN and infinity are refused.  ``to_json`` writes them with its
own encoder, whose text is exactly ``json.dumps(payload, sort_keys=True,
indent=2, allow_nan=False)`` plus the newline: any indent sends the
standard library from its C encoder to a generator per container, and
a list of plain floats, or of ``FloatTexts``, here becomes text in one
join.  Every JSON layout is built here from the stage results:
``fit_payload`` (fit.json and the report's ``full_model``),
``selection_payload`` (selection.json and the report's ``selection``:
the search's mode, size and best row) and ``report_payload``
(report.json).  A payload holds Python values only: arrays become lists
with ``tolist``, or texts with ``float_texts``.  Each table is written
once, to its CSV: no JSON file holds a row per candidate, which
comparison.csv holds, or per ROC point, which roc.csv holds.

A report renders each feature column and each attribution column once.
features.csv, the shap files, every trend file and report.json's
``attribution.trends`` take their text from those renderings: a trend's
x sites and attributions are the texts of the rows that supply them.

Nothing in either format depends on the run, so two runs over the same
input and configuration write byte-identical files.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import asdict

import numpy as np

from . import __version__
from .errors import ConfigError, DegenerateInputError
from .logit import check_converged

UNDEFINED = "undefined"
INFERENCE_FIELDS = ("feature", "coef", "std_err", "z", "p_two_sided", "exp_b", "wald")
# The rows of comparison.csv between its features and its coefficients.
COMPARISON_FIELDS = ("n_train", "k_params", "converged", "iterations", "failed", "failure")
# The rows of comparison.csv after its coefficients.
METRIC_FIELDS = (
    "log_lik",
    "log_lik_null",
    "pseudo_r2",
    "llr_p",
    "aic",
    "bic",
    "accuracy",
    "precision",
    "recall",
    "f1",
)


# The csv module quotes a cell holding its delimiter, its quote character
# or a character of its line terminator.
_NEEDS_QUOTES = re.compile('[,"\r\n]')


def quote_cell(text: str) -> str:
    """``text`` as the csv module writes it in a row of several cells."""
    if _NEEDS_QUOTES.search(text) is None:
        return text
    return '"' + text.replace('"', '""') + '"'


def cell(value) -> str:
    """One CSV cell of ``value``."""
    # Floats first: they are most cells of the tables that come through here.
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return quote_cell(str(value))


class FloatTexts(tuple):
    """Floats as ``float.__repr__`` writes them: ``write_csv`` writes
    them as cells as they are, and ``to_json`` as a list of numbers."""


def float_texts(values) -> FloatTexts:
    """``float.__repr__`` of each float of the 1-D array ``values``, with
    each distinct value rendered once and its text taken for every row.

    Values are told apart as ``values + 0.0``, where -0.0 is 0.0, so the
    rows holding -0.0 get their own text back afterwards; a memo keyed by
    float could not tell the two apart, as ``-0.0 == 0.0``.
    """
    distinct, inverse = np.unique(values + 0.0, return_inverse=True)
    texts = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)[inverse]
    texts[np.signbit(values) & (values == 0.0)] = "-0.0"
    return FloatTexts(texts.tolist())


def _write_text(path, text, newline=None) -> None:
    """Write ``text`` to ``path``; ConfigError, naming the path, if it
    cannot be written."""
    try:
        with open(path, "w", newline=newline, encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path, header, columns) -> None:
    """``header``, then line i of the cells ``columns[j][i]``, in one write.

    A float array column becomes text through ``float_texts`` and a
    ``FloatTexts`` column is written as it is; every other column, and
    the header, goes through ``cell`` a value at a time.
    """
    texts = [
        c
        if isinstance(c, FloatTexts)
        else float_texts(c)
        if isinstance(c, np.ndarray) and c.dtype == np.float64
        else map(cell, c)
        for c in columns
    ]
    lines = [",".join(map(cell, header)), *map(",".join, zip(*texts))]
    if len(header) == 1:
        # The csv module writes a line whose one cell is empty as "".
        lines = [line or '""' for line in lines]
    _write_text(path, "\r\n".join(lines) + "\r\n", newline="")


_encode_str = json.encoder.encode_basestring_ascii


def _json_float(value) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


def _json_key(key) -> str:
    """A dict key as the JSON encoder turns it into a string."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _json_float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _encode(value, out: list, indent: str) -> None:
    """Append the JSON text of ``value`` to ``out``; ``indent`` is the
    newline and indent of the line ``value`` starts on."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(_json_float(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key, item in sorted(value.items()):
            out += (sep, _encode_str(_json_key(key)), ": ")
            _encode(item, out, inner)
            sep = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        rendered = isinstance(value, FloatTexts)
        if rendered or set(map(type, value)) == {float}:
            text = ("," + inner).join(value if rendered else map(float.__repr__, value))
            if "n" in text:  # "inf" or "nan": no finite float's repr holds an n
                for item in value:
                    _json_float(float(item))
            out += ("[", inner, text, indent, "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, out, inner)
            sep = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def to_json(payload) -> str:
    """The JSON text of ``payload``, which holds Python values only."""
    out = []
    _encode(payload, out, "\n")
    out.append("\n")
    return "".join(out)


def write_json(payload, path) -> None:
    """Write ``to_json(payload)``; a payload it refuses leaves no file."""
    _write_text(path, to_json(payload))


def out_path(out_dir, name) -> str:
    """``out_dir``/``name``, creating ``out_dir`` if needed; ConfigError,
    naming ``out_dir``, if it cannot be a directory."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        reason = exc.strerror or exc
        raise ConfigError(f"cannot create output directory {out_dir}: {reason}") from exc
    return os.path.join(out_dir, name)


def _metric(value):
    """A metric's cell: None, an empty denominator, reads ``undefined``."""
    return UNDEFINED if value is None else value


def fit_payload(fit, model_id: str) -> dict:
    """Coefficients, inference rows and fit statistics of one model."""
    params = ("intercept", *fit.feature_names)
    names, *values = _inference_columns(fit, "fit_payload")
    inference = zip(names, *(v.tolist() for v in values))
    return {
        "model_id": model_id,
        "features": list(fit.feature_names),
        "coefficients": dict(zip(params, fit.coef.tolist())),
        "std_err": dict(zip(params, fit.std_err.tolist())),
        "inference": [dict(zip(INFERENCE_FIELDS, row)) for row in inference],
        "log_lik": fit.log_lik,
        "log_lik_null": fit.log_lik_null,
        "pseudo_r2": fit.pseudo_r2,
        "llr_stat": fit.llr_stat,
        "llr_p": fit.llr_p,
        "aic": fit.aic,
        "bic": fit.bic,
        "n_obs": fit.n_obs,
        "k_params": fit.k_params,
        "iterations": fit.iterations,
        "converged": fit.converged,
    }


def selection_payload(mode: str, table, best_row) -> dict:
    """The search ``mode``, the number of models in comparison.csv
    (every candidate under enumerate, the accepted path under stepwise)
    and the best row; the models themselves are comparison.csv's."""
    return {
        "mode": mode,
        "n_models": len(table.rows),
        "best": {
            "model_id": best_row.model_id,
            "features": list(best_row.spec.features),
            "aic": best_row.aic,
        },
    }


def _models(report) -> tuple:
    """(key, fit, attributions, ranking) of the report's two models."""
    return (
        ("full", report.full_fit, report.full_shap, report.full_importance),
        ("optimized", report.best_row.fit, report.optimized_shap, report.optimized_importance),
    )


def _column_texts(report) -> tuple:
    """The texts of the report's feature columns and of each model's
    attribution columns: ({feature: texts}, {model key: {feature: texts}})."""
    fm = report.feature_matrix
    features = dict(zip(fm.column_names, map(float_texts, fm.values.T)))
    shap = {
        key: dict(zip(s.feature_names, map(float_texts, s.values.T)))
        for key, _, s, _ in _models(report)
    }
    return features, shap


def _site_texts(texts, rows) -> FloatTexts:
    """The texts of a column at ``rows``, the rows that supply a trend's
    sites; a site is its row's value + 0.0, so -0.0 reads 0.0."""
    sites = [texts[i] for i in rows.tolist()]
    if "-0.0" in sites:
        sites = ["0.0" if t == "-0.0" else t for t in sites]
    return FloatTexts(sites)


def _trend_texts(report, features, shap) -> dict:
    """{feature: (x, full, optimized)}: the texts of each trend's sites
    and of each model's attributions there (None for a model without
    the feature), from the column texts ``_column_texts`` gives."""
    trends = {}
    for name, tc in report.trends.items():
        rows = tc.full_curve.rows
        full, optimized = (
            _site_texts(shap[key][name], rows) if name in shap[key] else None
            for key in ("full", "optimized")
        )
        trends[name] = (_site_texts(features[name], rows), full, optimized)
    return trends


def report_payload(report, trends=None) -> dict:
    """The report.json payload of an AnalysisReport; ``trends`` are its
    trend texts, as ``_trend_texts`` gives them, if already rendered."""
    cfg, fm, split = report.config, report.feature_matrix, report.split
    stats, corr, vifs = report.description
    cm, mets, roc = report.confusion, report.metrics, report.roc
    if trends is None:
        trends = _trend_texts(report, *_column_texts(report))
    return {
        "tool": {"name": "stratlogit", "version": __version__},
        "config": asdict(cfg),
        "dataset": {
            "source": report.dataset.provenance.source,
            "rows_read": report.dataset.provenance.rows_read,
            "rows_eligible": len(report.dataset.records),
        },
        "descriptive_stats": stats,
        "correlation": {"names": list(corr.names), "r": corr.r.tolist()},
        "vif": {
            "names": list(fm.column_names),
            "values": vifs.tolist(),
            "mean": float(np.mean(vifs)),
        },
        "split": {
            "seed": split.seed,
            "train_fraction": split.train_fraction,
            "n_train": split.n_train,
            "n_val": split.n_val,
        },
        "full_model": fit_payload(report.full_fit, "full"),
        "selection": selection_payload(cfg.selection, report.comparison, report.best_row),
        "evaluation": {
            "model_id": "optimized",
            "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
            "metrics": {
                "accuracy": mets.accuracy,
                "precision": mets.precision,
                "recall": mets.recall,
                "f1": mets.f1,
            },
            "roc": {"auc": roc.auc},
        },
        "attribution": {
            "background": dict(zip(fm.column_names, report.background.tolist())),
            **{
                key: {
                    "base_value": shap.base_value,
                    "importance": [list(e) for e in ranking.entries],
                }
                for key, _, shap, ranking in _models(report)
            },
            "trends": {
                name: {
                    "x": x,
                    "full": full,
                    "optimized": optimized,
                    "missing_from": list(report.trends[name].missing_from),
                }
                for name, (x, full, optimized) in trends.items()
            },
        },
    }


def write_feature_matrix_csv(m, path, texts=None) -> None:
    """Audit dump: one row per scholar, feature columns plus target;
    ``texts`` are the feature columns' texts, if already rendered."""
    write_csv(
        path,
        [*m.column_names, "target"],
        [*(m.values.T if texts is None else texts), [int(t) for t in m.target.tolist()]],
    )


def write_comparison_csv(table, path) -> None:
    """Wide export: one column per candidate, and as rows its features
    joined by ``+``, each field of ``COMPARISON_FIELDS``, one
    ``coef_<name>`` row per coefficient and each of ``METRIC_FIELDS``.

    An empty cell is a value the candidate does not have: a coefficient
    of a feature outside its model, or anything its fit raised before
    computing, its ``iterations`` included.  A metric of a fitted
    candidate whose denominator is empty reads ``undefined``.
    """
    models = table.rows
    if not models:
        raise DegenerateInputError("comparison table has no rows to write")
    coefs = [m.coefficients or {} for m in models]
    coef_names = dict.fromkeys(["intercept"] + [f for m in models for f in m.spec.features])
    rows = [["features"] + ["+".join(m.spec.features) for m in models]]
    rows += [[field] + [getattr(m, field) for m in models] for field in COMPARISON_FIELDS]
    rows += [[f"coef_{name}"] + [c.get(name) for c in coefs] for name in coef_names]
    for field in METRIC_FIELDS:
        values = [getattr(m, field) for m in models]
        rows.append([field] + [_metric(v) if c else v for v, c in zip(values, coefs)])
    write_csv(path, ["row"] + [m.model_id for m in models], list(zip(*rows)))


def _inference_columns(fit, caller: str) -> list:
    """The columns of ``INFERENCE_FIELDS`` of a converged fit, read off its
    arrays with one row per feature (the intercept is not reported);
    NotConvergedError, naming ``caller``, for an unconverged fit."""
    check_converged(fit, caller)
    arrays = (fit.coef, fit.std_err, fit.z, fit.p_two_sided, fit.exp_b, fit.wald)
    return [fit.feature_names, *(a[1:] for a in arrays)]


def write_inference_csv(fit, path) -> None:
    """Per-feature inference rows of a converged fit."""
    write_csv(path, INFERENCE_FIELDS, _inference_columns(fit, "write_inference_csv"))


def write_shap_values_csv(shap, row_ids, path, texts=None) -> None:
    """One row per scholar, one attribution column per feature; ``texts``
    are those columns' texts, if already rendered."""
    columns = shap.values.T if texts is None else texts
    write_csv(path, ["scholar_id", *shap.feature_names], [row_ids, *columns])


def write_importance_csv(ranking, path) -> None:
    write_csv(path, ["feature", "mean_abs_shap"], list(zip(*ranking.entries)))


def write_trend_csv(x, ys: dict, path) -> None:
    """Trend file: the x sites, then one attribution column per named y.

    A None y (a model without the feature) leaves its column empty.
    """
    columns = [x] + [[None] * len(x) if y is None else y for y in ys.values()]
    write_csv(path, ["x", *ys], columns)


def write_describe_files(out_dir, fm, description, texts=None) -> list:
    """The describe stage's files; ``description`` is what
    ``describe_indicators`` returned, and ``texts`` are the feature
    columns' texts, if already rendered.  Returns the paths written."""
    stats, corr, vifs = description
    names = ("features.csv", "descriptive_stats.csv", "correlation.csv", "vif.csv")
    paths = [out_path(out_dir, name) for name in names]
    write_feature_matrix_csv(fm, paths[0], texts)
    fields = ("mean", "std_dev", "minimum", "median", "maximum", "skewness")
    header = ["variable", "n", *fields]
    write_csv(paths[1], header, [[row[f] for row in stats] for f in header])
    write_csv(paths[2], ["variable", *corr.names], [corr.names, *corr.r.T])
    write_csv(paths[3], ["variable", "vif"], [fm.column_names, vifs])
    return paths


def write_fit_files(out_dir, fit) -> list:
    """The fit stage's files.  Returns the paths written."""
    paths = [out_path(out_dir, name) for name in ("inference.csv", "fit.json")]
    write_inference_csv(fit, paths[0])
    write_json(fit_payload(fit, "fit"), paths[1])
    return paths


def write_select_files(out_dir, mode: str, table, best_row) -> list:
    """The select stage's files: comparison.csv holds the models,
    and selection.json the summary, which also gives the best row's BIC,
    as the report's selection section does not.  Returns the paths
    written."""
    paths = [out_path(out_dir, name) for name in ("comparison.csv", "selection.json")]
    write_comparison_csv(table, paths[0])
    payload = selection_payload(mode, table, best_row)
    payload["best"]["bic"] = best_row.bic
    write_json(payload, paths[1])
    return paths


def write_evaluate_files(out_dir, cm, mets, roc) -> list:
    """The evaluate stage's files.  Returns the paths written."""
    paths = [out_path(out_dir, name) for name in ("confusion.csv", "metrics.csv", "roc.csv")]
    write_csv(paths[0], ["tp", "fp", "tn", "fn"], [[cm.tp], [cm.fp], [cm.tn], [cm.fn]])
    names = ("accuracy", "precision", "recall", "f1")
    write_csv(paths[1], ["metric", "value"], [names, [_metric(getattr(mets, n)) for n in names]])
    write_csv(
        paths[2],
        ["fpr", "tpr", "threshold"],
        [[p[0] for p in roc.points], [p[1] for p in roc.points], roc.thresholds],
    )
    return paths


def write_report_files(report, out_dir) -> list:
    """Write report.json and the CSV side files of an AnalysisReport;
    returns the paths.  Each feature and attribution column is rendered
    once, for its file and for the trends."""
    fm = report.feature_matrix
    features, shap = _column_texts(report)
    trends = _trend_texts(report, features, shap)
    written = [out_path(out_dir, "report.json")]
    write_json(report_payload(report, trends), written[0])
    written += write_describe_files(out_dir, fm, report.description, features.values())
    written.append(out_path(out_dir, "comparison.csv"))
    write_comparison_csv(report.comparison, written[-1])
    written += write_evaluate_files(out_dir, report.confusion, report.metrics, report.roc)
    for key, fit, attributions, ranking in _models(report):
        paths = [
            out_path(out_dir, f"{kind}_{key}.csv") for kind in ("inference", "shap", "importance")
        ]
        write_inference_csv(fit, paths[0])
        write_shap_values_csv(attributions, fm.row_ids, paths[1], shap[key].values())
        write_importance_csv(ranking, paths[2])
        written += paths
    for name, (x, full, optimized) in trends.items():
        written.append(out_path(out_dir, f"trend_{name}.csv"))
        write_trend_csv(
            x, {"attribution_full": full, "attribution_optimized": optimized}, written[-1]
        )
    return written


def write_partition_csv(p, path) -> None:
    authors = sorted(p.assignment)
    write_csv(path, ["author", "community_id"], [authors, [p.assignment[n] for n in authors]])


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
