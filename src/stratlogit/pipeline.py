"""The analysis stages and the end-to-end pipeline.

Each stage is one function, shared by ``run_pipeline`` and the CLI
subcommands:

    ingest      load_dataset         parse the CSV, keep eligible records
    indicators  build_indicators     nine feature columns and the target
    describe    describe_indicators  descriptive stats, correlations, VIF
    split       split_rows           seeded train/validation partition
    fit         fit_features         one feature subset on the training rows
    select      select_model         AIC subset search from the full fit
    evaluate    evaluate_fit         one fit scored on the validation rows
    attribute   attribute_fit        one fit's attributions and their ranking

The stages read their parameters from one RunConfig, which checks
each value when it is made by the rule of the function that applies it.
``run_pipeline`` runs them for the full and the selected model and
returns their results as one AnalysisReport.  This module computes
only: it writes no file and builds no output layout.  ``emit`` owns
every file format, report.json included, and
``emit.write_report_files`` writes a report with the per-stage
writers the subcommands use.

Any stage failure in ``run_pipeline`` is re-raised as PipelineError
carrying the stage name, the machine-readable error code of the
underlying failure and a flag saying whether earlier stages had
completed (a partial result existed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    DataError,
    InvariantBreachError,
    PipelineError,
    StratLogitError,
)
from .evaluate import (
    ClassificationMetrics,
    ConfusionMatrix,
    RocCurve,
    Split,
    check_split_params,
    classify,
    make_split,
    metrics,
    predict_prob,
    roc_auc,
)
from .indicators import CompositeWeights, FeatureMatrix, build_feature_matrix
from .ingest import Dataset, check_delimiter, filter_eligible, parse_dataset
from .logit import DesignMatrix, LogitFit, check_converged, check_solver_params, fit_logistic
from .model_select import (
    ComparisonTable,
    ModelRow,
    backward_stepwise,
    enumerate_subsets,
    fit_all,
)
from .stats_core import describe, pearson_matrix, vif

SELECTION_MODES = ("enumerate", "stepwise")


@dataclass(frozen=True)
class RunConfig:
    """The parameters of one analysis, checked when the config is made:
    each value by the rule of the function that applies it, so a bad one
    is a ConfigError before any file is touched."""

    input_path: str
    alpha: float = 1.0
    beta: float = 1.0
    train_fraction: float = 0.7
    seed: int = 0
    max_iter: int = 1000
    tol: float = 1e-8
    selection: str = "enumerate"
    delimiter: str = ","

    def __post_init__(self):
        if not isinstance(self.input_path, str) or not self.input_path:
            raise ConfigError(f"input_path must be a non-empty string, got {self.input_path!r}")
        CompositeWeights(self.alpha, self.beta)
        check_split_params(self.train_fraction, self.seed)
        check_solver_params(self.max_iter, self.tol)
        if self.selection not in SELECTION_MODES:
            raise ConfigError(
                f"selection must be one of {SELECTION_MODES}, got {self.selection!r}"
            )
        check_delimiter(self.delimiter)


@dataclass(frozen=True)
class AnalysisReport:
    """Every stage result of one run; ``emit`` lays them out as files."""

    config: RunConfig
    dataset: Dataset
    feature_matrix: FeatureMatrix
    description: tuple
    split: Split
    full_fit: LogitFit
    comparison: ComparisonTable
    best_row: ModelRow
    confusion: ConfusionMatrix
    metrics: ClassificationMetrics
    roc: RocCurve
    background: np.ndarray  # training mean of every feature-matrix column
    full_shap: ShapMatrix
    full_importance: ImportanceRanking
    optimized_shap: ShapMatrix
    optimized_importance: ImportanceRanking
    trends: dict  # feature -> TrendComparison of the full and optimized model


def _verify_report(report: AnalysisReport) -> None:
    """Cross-stage identities re-checked before anything is written.  A
    fit's statistics are derived from its coefficients and
    log-likelihood when read, so they need no check."""
    fm = report.feature_matrix
    for shap, fit in (
        (report.full_shap, report.full_fit),
        (report.optimized_shap, report.best_row.fit),
    ):
        cols = [fm.column(name) for name in shap.feature_names]
        X = np.column_stack(cols)
        eta = fit.coef[0] + X @ fit.coef[1:]
        recon = shap.base_value + np.sum(shap.values, axis=1)
        # Each row's gap relative to the size of the terms it sums, so that
        # rounding in a row with one huge count is not taken for a breach.
        scale = np.maximum(
            abs(fit.coef[0]) + np.sum(np.abs(X * fit.coef[1:]), axis=1),
            abs(shap.base_value) + np.sum(np.abs(shap.values), axis=1),
        )
        gap = float(np.max(np.abs(recon - eta) / np.maximum(1.0, scale)))
        if gap > 1e-10:
            raise InvariantBreachError(
                f"shap additivity violated for {shap.model_id}: max relative gap {gap}"
            )
    cm, mets = report.confusion, report.metrics
    if cm.total != report.split.n_val:
        raise InvariantBreachError("confusion total does not match validation size")
    if mets.accuracy != (cm.tp + cm.tn) / cm.total:
        raise InvariantBreachError("accuracy inconsistent with confusion matrix")
    for v in report.metrics.__dict__.values():
        if v is not None and not (0.0 <= v <= 1.0):
            raise InvariantBreachError(f"classification metric outside [0, 1]: {v}")


def load_dataset(cfg: RunConfig) -> tuple:
    """Ingest stage: the parsed CSV and its eligible records."""
    raw = parse_dataset(cfg.input_path, delimiter=cfg.delimiter)
    return raw, filter_eligible(raw)


def build_indicators(cfg: RunConfig, dataset) -> FeatureMatrix:
    """Indicators stage: the nine feature columns and the target."""
    return build_feature_matrix(dataset, CompositeWeights(cfg.alpha, cfg.beta))


def _require_finite(name, statistic, value) -> None:
    if not math.isfinite(value):
        raise DataError(
            f"describe: {statistic} of {name} is {value!r}; "
            "its values are too large for double precision"
        )


def describe_indicators(fm: FeatureMatrix) -> tuple:
    """Describe stage: (per-variable stat dicts, correlation matrix, VIFs).

    A statistic that overflows, as one of a column with values near the
    float range does, is a DataError naming its variable.
    """
    names = fm.column_names
    with np.errstate(over="ignore", invalid="ignore"):
        stats = [{"variable": name, **describe(fm.column(name)).__dict__} for name in names]
        for row in stats:
            for key, value in row.items():
                if key != "variable":
                    _require_finite(row["variable"], key, value)
        corr = pearson_matrix(fm.values, names)
        vifs = vif(fm.values, names)
    for name, value in zip(names, vifs.tolist()):
        _require_finite(name, "vif", value)
    return stats, corr, vifs


def split_rows(cfg: RunConfig, fm: FeatureMatrix) -> Split:
    """Split stage: the seeded train/validation partition of the rows."""
    return make_split(fm.n_rows, cfg.train_fraction, cfg.seed)


def _rows(indices) -> np.ndarray:
    return np.asarray(indices, dtype=int)


def fit_features(cfg: RunConfig, fm: FeatureMatrix, split: Split, features=None) -> LogitFit:
    """Fit stage: ``features`` (default every column) on the training
    rows.  An unconverged fit is a NotConvergedError: no later stage
    reports one."""
    fit = fit_logistic(
        DesignMatrix.from_features(fm, features, rows=_rows(split.train_indices)),
        max_iter=cfg.max_iter,
        tol=cfg.tol,
    )
    check_converged(fit, "fit_features")
    return fit


def select_model(cfg: RunConfig, fm: FeatureMatrix, split: Split, full: LogitFit) -> tuple:
    """Select stage: (table in report order, best row).  ``full``, the
    fit stage's fit, is the all-feature row, not refitted, so the best
    row is the sorted table's first under ``enumerate`` and the path's
    last under ``stepwise``."""
    if cfg.selection == "enumerate":
        specs = enumerate_subsets(fm.column_names)
        table = fit_all(fm, specs, split, max_iter=cfg.max_iter, tol=cfg.tol, full=full)
        ordered = table.sorted_by_aic()
        best_row = ordered.rows[0]
    else:
        ordered = backward_stepwise(fm, split, full, max_iter=cfg.max_iter, tol=cfg.tol)
        best_row = ordered.rows[-1]
    return ordered, best_row


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
    """Execute every stage and return their results; the last stage,
    ``report``, re-checks the identities that span several stages.

    Raises PipelineError on the first failing stage; the exit code of
    the underlying error is preserved for the command line front end.
    """
    completed = []

    def stage(name, fn, *args):
        try:
            result = fn(*args)
        except StratLogitError as exc:
            raise PipelineError(name, exc, partial_report=bool(completed)) from exc
        completed.append(name)
        return result

    _, dataset = stage("ingest", load_dataset, cfg)
    fm = stage("indicators", build_indicators, cfg, dataset)
    description = stage("describe", describe_indicators, fm)
    split = stage("split", split_rows, cfg, fm)
    full_fit = stage("fit", fit_features, cfg, fm, split)
    comparison, best_row = stage("select", select_model, cfg, fm, split, full_fit)
    cm, mets, roc = stage("evaluate", evaluate_fit, fm, split, best_row.fit)

    def _attribute():
        background = training_means(fm, split)
        full_shap, full_rank = attribute_fit(fm, background, full_fit, "full")
        opt_shap, opt_rank = attribute_fit(fm, background, best_row.fit, "optimized")
        trends = {
            name: trend_compare(full_shap, opt_shap, name, fm.column(name))
            for name in fm.column_names
        }
        return background, full_shap, full_rank, opt_shap, opt_rank, trends

    background, full_shap, full_rank, opt_shap, opt_rank, trends = stage(
        "attribute", _attribute
    )
    report = AnalysisReport(
        config=cfg,
        dataset=dataset,
        feature_matrix=fm,
        description=description,
        split=split,
        full_fit=full_fit,
        comparison=comparison,
        best_row=best_row,
        confusion=cm,
        metrics=mets,
        roc=roc,
        background=background,
        full_shap=full_shap,
        full_importance=full_rank,
        optimized_shap=opt_shap,
        optimized_importance=opt_rank,
        trends=trends,
    )
    stage("report", _verify_report, report)
    return report
