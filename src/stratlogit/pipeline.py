"""The analysis stages and the end-to-end pipeline.

Each stage is one function, shared by ``run_pipeline`` and the CLI
subcommands:

    ingest      load_dataset         parse the CSV, keep eligible records
    indicators  build_indicators     nine feature columns and the target
    describe    describe_indicators  descriptive stats, correlations, VIF
    split       split_rows           seeded train/validation partition
    fit         fit_features         one feature subset on the training rows
    select      select_model         AIC subset search plus the best-row refit
    evaluate    evaluate_fit         one fit scored on the validation rows
    attribute   attribute_fit        one fit's attributions and their ranking

``run_pipeline`` runs them for the full and the selected model and
assembles an AnalysisReport.  This module writes no file: ``emit``
owns every output format, and ``emit.write_report_files`` writes a
report with the per-stage writers the subcommands use.

Any stage failure in ``run_pipeline`` is re-raised as PipelineError
carrying the stage name, the machine-readable error code of the
underlying failure and a flag saying whether earlier stages had
completed (a partial result existed).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import __version__
from .attribution import (
    ImportanceRanking,
    ShapMatrix,
    attribution_trend,
    linear_shap,
    mean_abs_importance,
    trend_compare,
)
from .errors import (
    ConfigError,
    InvariantBreachError,
    PipelineError,
    StratLogitError,
)
from .evaluate import (
    ClassificationMetrics,
    ConfusionMatrix,
    RocCurve,
    Split,
    classify,
    make_split,
    metrics,
    predict_prob,
    roc_auc,
)
from .indicators import CompositeWeights, FeatureMatrix, build_feature_matrix
from .ingest import filter_eligible, parse_dataset
from .logit import (
    DesignMatrix,
    LogitFit,
    fit_logistic,
    inference_table,
    verify_fit_identities,
)
from .model_select import (
    ComparisonTable,
    backward_stepwise,
    comparison_to_dicts,
    enumerate_subsets,
    fit_all,
)
from .stats_core import describe, pearson_matrix, vif

SELECTION_MODES = ("enumerate", "stepwise")


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs; validated before any file is touched."""

    input_path: str
    out_dir: Optional[str] = None
    alpha: float = 1.0
    beta: float = 1.0
    train_fraction: float = 0.7
    seed: int = 0
    max_iter: int = 1000
    tol: float = 1e-8
    selection: str = "enumerate"
    delimiter: str = ","

    def validate(self) -> None:
        if not self.input_path:
            raise ConfigError("input_path must be set")
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {v}")
        if not (0.0 < self.train_fraction < 1.0):
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (self.tol > 0):
            raise ConfigError(f"tol must be > 0, got {self.tol}")
        if self.selection not in SELECTION_MODES:
            raise ConfigError(
                f"selection must be one of {SELECTION_MODES}, got {self.selection!r}"
            )
        if len(self.delimiter) != 1:
            raise ConfigError(f"delimiter must be a single character, got {self.delimiter!r}")

    def echo(self) -> dict:
        """Analytic parameters only; output location is not analysis."""
        data = asdict(self)
        data.pop("out_dir")
        return data


@dataclass
class RunArtifacts:
    """In-memory objects behind the report, for file emission and tests."""

    dataset_raw: object
    dataset: object
    feature_matrix: object
    description: tuple
    split: Split
    full_fit: LogitFit
    best_fit: LogitFit
    comparison: ComparisonTable
    confusion: ConfusionMatrix
    metrics: ClassificationMetrics
    roc: RocCurve
    full_shap: ShapMatrix
    optimized_shap: ShapMatrix
    full_importance: ImportanceRanking
    optimized_importance: ImportanceRanking
    trends: dict


@dataclass
class AnalysisReport:
    tool: dict
    config: dict
    dataset: dict
    descriptive_stats: list
    correlation: dict
    vif: dict
    split: dict
    full_model: dict
    selection: dict
    evaluation: dict
    attribution: dict
    artifacts: RunArtifacts = field(repr=False, compare=False, default=None)

    def to_json_dict(self) -> dict:
        """The report.json payload; every section holds Python values only."""
        return {
            "tool": self.tool,
            "config": self.config,
            "dataset": self.dataset,
            "descriptive_stats": self.descriptive_stats,
            "correlation": self.correlation,
            "vif": self.vif,
            "split": self.split,
            "full_model": self.full_model,
            "selection": self.selection,
            "evaluation": self.evaluation,
            "attribution": self.attribution,
        }


def model_summary(fit: LogitFit, model_id: str) -> dict:
    """Coefficients, inference rows and fit statistics of one model."""
    rows = inference_table(fit)
    coefficients = {"intercept": float(fit.coef[0])}
    std_err = {"intercept": float(fit.std_err[0])}
    for i, name in enumerate(fit.feature_names, start=1):
        coefficients[name] = float(fit.coef[i])
        std_err[name] = float(fit.std_err[i])
    return {
        "model_id": model_id,
        "features": list(fit.feature_names),
        "coefficients": coefficients,
        "std_err": std_err,
        "inference": [
            {
                "feature": r.feature,
                "coef": r.coef,
                "std_err": r.std_err,
                "z": r.z,
                "p_two_sided": r.p_two_sided,
                "exp_b": r.exp_b,
                "wald": r.wald,
            }
            for r in rows
        ],
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


def _verify_report(artifacts: RunArtifacts) -> None:
    """Cross-stage identities re-checked before anything is written; each
    fit's own identities were checked by its fit stage."""
    fm = artifacts.feature_matrix
    for shap, fit in (
        (artifacts.full_shap, artifacts.full_fit),
        (artifacts.optimized_shap, artifacts.best_fit),
    ):
        cols = [fm.column(name) for name in shap.feature_names]
        X = np.column_stack(cols)
        eta = fit.coef[0] + X @ fit.coef[1:]
        recon = shap.base_value + np.sum(shap.values, axis=1)
        gap = float(np.max(np.abs(recon - eta)))
        if gap > 1e-10:
            raise InvariantBreachError(
                f"shap additivity violated for {shap.model_id}: max gap {gap}"
            )
    cm, mets = artifacts.confusion, artifacts.metrics
    if cm.total != artifacts.split.n_val:
        raise InvariantBreachError("confusion total does not match validation size")
    if mets.accuracy != (cm.tp + cm.tn) / cm.total:
        raise InvariantBreachError("accuracy inconsistent with confusion matrix")
    for row in artifacts.comparison.rows:
        if row.failed or row.aic is None:
            continue
        want = 2.0 * row.k_params - 2.0 * row.log_lik
        if abs(row.aic - want) > 1e-9 * max(1.0, abs(want)):
            raise InvariantBreachError(f"comparison row {row.model_id}: AIC mismatch")
    for v in artifacts.metrics.__dict__.values():
        if v is not None and not (0.0 <= v <= 1.0):
            raise InvariantBreachError(f"classification metric outside [0, 1]: {v}")


def load_dataset(cfg: RunConfig) -> tuple:
    """Ingest stage: the parsed CSV and its eligible records."""
    raw = parse_dataset(cfg.input_path, delimiter=cfg.delimiter)
    return raw, filter_eligible(raw)


def build_indicators(cfg: RunConfig, dataset) -> FeatureMatrix:
    """Indicators stage: the nine feature columns and the target."""
    return build_feature_matrix(dataset, CompositeWeights(cfg.alpha, cfg.beta))


def describe_indicators(fm: FeatureMatrix) -> tuple:
    """Describe stage: (per-variable stat dicts, correlation matrix, VIFs)."""
    stats = [
        {"variable": name, **describe(fm.column(name)).__dict__}
        for name in fm.column_names
    ]
    return stats, pearson_matrix(fm.values, fm.column_names), vif(fm.values, fm.column_names)


def split_rows(cfg: RunConfig, fm: FeatureMatrix) -> Split:
    """Split stage: the seeded train/validation partition of the rows."""
    return make_split(fm.n_rows, cfg.train_fraction, cfg.seed)


def _rows(indices) -> np.ndarray:
    return np.asarray(indices, dtype=int)


def fit_features(cfg: RunConfig, fm: FeatureMatrix, split: Split, features=None) -> LogitFit:
    """Fit stage: ``features`` (default every column) on the training
    rows, with the fit's cross-quantity identities re-checked."""
    fit = fit_logistic(
        DesignMatrix.from_features(fm, features, rows=_rows(split.train_indices)),
        max_iter=cfg.max_iter,
        tol=cfg.tol,
    )
    verify_fit_identities(fit)
    return fit


def select_model(cfg: RunConfig, fm: FeatureMatrix, split: Split) -> tuple:
    """Select stage: (table in report order, best row, best-row refit).

    The refit must reproduce its table row's AIC.
    """
    if cfg.selection == "enumerate":
        table = fit_all(
            fm,
            enumerate_subsets(fm.column_names),
            split,
            max_iter=cfg.max_iter,
            tol=cfg.tol,
        )
        ordered, best_row = table.sorted_by_aic(), table.best_row()
    else:
        ordered = backward_stepwise(fm, split, max_iter=cfg.max_iter, tol=cfg.tol).path
        best_row = ordered.rows[-1]
    best_fit = fit_features(cfg, fm, split, best_row.spec.features)
    if abs(best_fit.aic - best_row.aic) > 1e-9 * max(1.0, abs(best_row.aic)):
        raise InvariantBreachError("best-model refit disagrees with its table row")
    return ordered, best_row, best_fit


def selection_summary(cfg: RunConfig, table: ComparisonTable, best_row) -> dict:
    """The report's selection section."""
    return {
        "mode": cfg.selection,
        "n_models": len(table.rows),
        "best": {
            "model_id": best_row.model_id,
            "features": list(best_row.spec.features),
            "aic": best_row.aic,
        },
        "table": comparison_to_dicts(table),
    }


def evaluate_fit(fm: FeatureMatrix, split: Split, fit: LogitFit) -> tuple:
    """Evaluate stage: (confusion matrix, metrics, ROC curve) of ``fit``
    on the validation rows."""
    val_idx = _rows(split.val_indices)
    block = np.column_stack([fm.column(name)[val_idx] for name in fit.feature_names])
    probs = predict_prob(fit, block)
    y_val = fm.target[val_idx]
    cm = ConfusionMatrix.from_predictions(y_val, classify(probs))
    return cm, metrics(cm), roc_auc(probs, y_val)


def training_means(fm: FeatureMatrix, split: Split) -> np.ndarray:
    """Mean of every column over the training rows: the attribution background."""
    return np.mean(fm.values[_rows(split.train_indices)], axis=0)


def attribute_fit(fm: FeatureMatrix, background, fit: LogitFit, model_id: str) -> tuple:
    """Attribute stage: (attributions of every row, importance ranking)
    of ``fit``; ``background`` holds one mean per feature-matrix column."""
    cols = [fm.column_names.index(name) for name in fit.feature_names]
    shap = linear_shap(fit, fm.values[:, cols], background[cols], model_id=model_id)
    return shap, mean_abs_importance(shap)


def trend_curves(fm: FeatureMatrix, shap: ShapMatrix) -> dict:
    """Trend of each attribution column of one model against its feature."""
    return {
        name: attribution_trend(
            fm.column(name), shap.column(name), feature=name, model_id=shap.model_id
        )
        for name in shap.feature_names
    }


def run_pipeline(cfg: RunConfig) -> AnalysisReport:
    """Execute every stage and assemble the report.

    Raises PipelineError on the first failing stage; the exit code of
    the underlying error is preserved for the command line front end.
    """
    cfg.validate()
    completed = []

    def stage(name, fn, *args):
        try:
            result = fn(*args)
        except StratLogitError as exc:
            raise PipelineError(name, exc, partial_report=bool(completed)) from exc
        completed.append(name)
        return result

    dataset_raw, dataset = stage("ingest", load_dataset, cfg)
    fm = stage("indicators", build_indicators, cfg, dataset)
    description = stage("describe", describe_indicators, fm)
    split = stage("split", split_rows, cfg, fm)
    full_fit = stage("fit", fit_features, cfg, fm, split)
    comparison, best_row, best_fit = stage("select", select_model, cfg, fm, split)
    cm, mets, roc = stage("evaluate", evaluate_fit, fm, split, best_fit)

    def _attribute():
        background = training_means(fm, split)
        full_shap, full_rank = attribute_fit(fm, background, full_fit, "full")
        opt_shap, opt_rank = attribute_fit(fm, background, best_fit, "optimized")
        trends = {
            name: trend_compare(full_shap, opt_shap, name, fm.column(name))
            for name in fm.column_names
        }
        return background, full_shap, full_rank, opt_shap, opt_rank, trends

    background, full_shap, full_rank, opt_shap, opt_rank, trends = stage(
        "attribute", _attribute
    )

    def _assemble():
        artifacts = RunArtifacts(
            dataset_raw=dataset_raw,
            dataset=dataset,
            feature_matrix=fm,
            description=description,
            split=split,
            full_fit=full_fit,
            best_fit=best_fit,
            comparison=comparison,
            confusion=cm,
            metrics=mets,
            roc=roc,
            full_shap=full_shap,
            optimized_shap=opt_shap,
            full_importance=full_rank,
            optimized_importance=opt_rank,
            trends=trends,
        )
        _verify_report(artifacts)
        trend_json = {}
        for name, tc in trends.items():
            entry = {
                "x": tc.full_curve.x.tolist(),
                "full": tc.full_curve.y.tolist(),
                "optimized": tc.optimized_curve.y.tolist() if tc.optimized_curve else None,
                "missing_from": list(tc.missing_from),
            }
            trend_json[name] = entry
        stats, corr, vifs = description
        report = AnalysisReport(
            tool={"name": "stratlogit", "version": __version__},
            config=cfg.echo(),
            dataset={
                "source": dataset.provenance.source,
                "rows_read": dataset_raw.provenance.rows_read,
                "rows_eligible": len(dataset.records),
            },
            descriptive_stats=stats,
            correlation={"names": list(corr.names), "r": corr.r.tolist()},
            vif={
                "names": list(fm.column_names),
                "values": vifs.tolist(),
                "mean": float(np.mean(vifs)),
            },
            split={
                "seed": split.seed,
                "train_fraction": split.train_fraction,
                "n_train": split.n_train,
                "n_val": split.n_val,
            },
            full_model=model_summary(full_fit, "full"),
            selection=selection_summary(cfg, comparison, best_row),
            evaluation={
                "model_id": "optimized",
                "confusion": {"tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn},
                "metrics": {
                    "accuracy": mets.accuracy,
                    "precision": mets.precision,
                    "recall": mets.recall,
                    "f1": mets.f1,
                },
                "roc": {
                    "points": [list(pt) for pt in roc.points],
                    "thresholds": list(roc.thresholds),
                    "auc": roc.auc,
                },
            },
            attribution={
                "background": {
                    name: float(background[j])
                    for j, name in enumerate(fm.column_names)
                },
                "full": {
                    "base_value": full_shap.base_value,
                    "importance": [list(e) for e in full_rank.entries],
                },
                "optimized": {
                    "base_value": opt_shap.base_value,
                    "importance": [list(e) for e in opt_rank.entries],
                },
                "trends": trend_json,
            },
            artifacts=artifacts,
        )
        return report

    return stage("report", _assemble)
