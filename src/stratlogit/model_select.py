"""Feature subset search driven by information criteria.

Two search strategies over subsets of the nine feature columns:
exhaustive enumeration of all non-empty subsets (tractable up to 15
columns) and backward stepwise deletion accepting the largest AIC
improvement at each step.  Every candidate is refit on the training
partition and scored on the validation partition; fits that separate,
collapse or fail to converge are kept in the table with a failure flag
instead of being dropped, so the search is auditable.

The optional ``STRAT_THREADS`` environment variable (default 1) sets
the worker-thread count used to fit candidates in parallel.  Results
are ordered by the input spec list either way, so the table content is
independent of the thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, StratLogitError
from .evaluate import ConfusionMatrix, Split, classify, metrics, predict_prob
from .logit import DesignMatrix, fit_logistic

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


@dataclass(frozen=True)
class ModelSpec:
    """An ordered, duplicate-free subset of feature column names."""

    features: tuple

    def __post_init__(self):
        if not self.features:
            raise ConfigError("ModelSpec: empty feature subset")
        if len(set(self.features)) != len(self.features):
            raise ConfigError(f"ModelSpec: duplicate features in {self.features}")


@dataclass(frozen=True)
class ModelRow:
    """One fitted candidate: spec, fit summary and validation metrics."""

    model_id: str
    spec: ModelSpec
    n_train: int
    k_params: Optional[int]
    converged: bool
    iterations: Optional[int]
    failed: bool
    failure: Optional[str]
    coefficients: Optional[dict]
    log_lik: Optional[float]
    log_lik_null: Optional[float]
    pseudo_r2: Optional[float]
    llr_p: Optional[float]
    aic: Optional[float]
    bic: Optional[float]
    accuracy: Optional[float]
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple

    def sorted_by_aic(self) -> "ComparisonTable":
        """Usable rows ascending by AIC (ties: fewer parameters, then
        id); failed rows trail in their original order."""
        ok = [r for r in self.rows if not r.failed]
        bad = [r for r in self.rows if r.failed]
        ok.sort(key=lambda r: (r.aic, r.k_params, r.model_id))
        return ComparisonTable(rows=tuple(ok + bad))

    def best_row(self) -> ModelRow:
        ordered = self.sorted_by_aic().rows
        if not ordered or ordered[0].failed:
            raise DegenerateInputError("comparison table has no usable fit")
        return ordered[0]


def _thread_count(threads: Optional[int]) -> int:
    if threads is None:
        raw = os.environ.get("STRAT_THREADS", "1")
        try:
            threads = int(raw)
        except ValueError:
            raise ConfigError(f"STRAT_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    return threads


def _validate_features(m, specs) -> None:
    known = set(m.column_names)
    for spec in specs:
        unknown = [f for f in spec.features if f not in known]
        if unknown:
            raise DataError(f"model spec references unknown columns {unknown}")


def _fit_one(m, spec, split, max_iter, tol, model_id) -> ModelRow:
    train_idx = np.asarray(split.train_indices, dtype=int)
    val_idx = np.asarray(split.val_indices, dtype=int)
    base = dict(
        model_id=model_id,
        spec=spec,
        n_train=len(train_idx),
        k_params=None,
        converged=False,
        iterations=None,
        failed=True,
        failure=None,
        coefficients=None,
        **{f: None for f in METRIC_FIELDS},
    )
    try:
        fit = fit_logistic(
            DesignMatrix.from_features(m, spec.features, rows=train_idx),
            max_iter=max_iter,
            tol=tol,
        )
    except StratLogitError as exc:
        base["failure"] = f"{exc.code}: {exc}"
        return ModelRow(**base)
    coefficients = {"intercept": float(fit.coef[0])}
    for i, name in enumerate(fit.feature_names, start=1):
        coefficients[name] = float(fit.coef[i])
    block = np.column_stack([m.column(name)[val_idx] for name in spec.features])
    mets = metrics(
        ConfusionMatrix.from_predictions(
            m.target[val_idx], classify(predict_prob(fit, block))
        )
    )
    base.update(
        k_params=fit.k_params,
        converged=fit.converged,
        iterations=fit.iterations,
        failed=not fit.converged,
        failure=None if fit.converged else f"not converged in {fit.iterations} iterations",
        coefficients=coefficients,
        log_lik=fit.log_lik,
        log_lik_null=fit.log_lik_null,
        pseudo_r2=fit.pseudo_r2,
        llr_p=fit.llr_p,
        aic=fit.aic,
        bic=fit.bic,
        accuracy=mets.accuracy,
        precision=mets.precision,
        recall=mets.recall,
        f1=mets.f1,
    )
    return ModelRow(**base)


def enumerate_subsets(column_names, max_p: int = 15) -> list:
    """Every non-empty subset of ``column_names``, in binary counter
    order (bit j of the mask selects column j)."""
    names = tuple(column_names)
    p = len(names)
    if p == 0:
        raise ConfigError("enumerate_subsets: no columns to enumerate")
    if p > max_p:
        raise ConfigError(
            f"enumerate_subsets: {p} columns means {2 ** p - 1} subsets; "
            f"limit is {max_p} (use stepwise search)"
        )
    specs = []
    for mask in range(1, 2 ** p):
        specs.append(
            ModelSpec(features=tuple(names[j] for j in range(p) if mask >> j & 1))
        )
    return specs


def fit_all(
    m,
    specs,
    split: Split,
    max_iter: int = 1000,
    tol: float = 1e-8,
    threads: Optional[int] = None,
) -> ComparisonTable:
    """Fit every spec on the training rows, score on validation rows."""
    specs = list(specs)
    if not specs:
        raise ConfigError("fit_all: no model specs given")
    _validate_features(m, specs)
    workers = _thread_count(threads)
    width = max(3, len(str(len(specs))))
    ids = [f"model_{i + 1:0{width}d}" for i in range(len(specs))]

    def run(pair):
        spec, model_id = pair
        return _fit_one(m, spec, split, max_iter, tol, model_id)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run, zip(specs, ids)))
    else:
        rows = [run(pair) for pair in zip(specs, ids)]
    return ComparisonTable(rows=tuple(rows))


@dataclass(frozen=True)
class StepwiseResult:
    path: ComparisonTable
    best: ModelSpec


def backward_stepwise(
    m,
    split: Split,
    max_iter: int = 1000,
    tol: float = 1e-8,
    start=None,
) -> StepwiseResult:
    """Greedy backward deletion from the full model.

    At each step every single-feature deletion is refit; the lowest-AIC
    candidate is accepted while it strictly improves on the current
    model, stopping otherwise (or at one remaining feature).  Deletion
    ties go to the earliest column.  The path records the accepted
    models only, starting with the full fit.
    """
    current = ModelSpec(features=tuple(start if start is not None else m.column_names))
    _validate_features(m, [current])
    step = 0
    current_row = _fit_one(m, current, split, max_iter, tol, f"step_{step:03d}")
    if current_row.failed:
        raise DegenerateInputError(
            f"backward_stepwise: starting model unusable ({current_row.failure})"
        )
    path = [current_row]
    while len(current.features) > 1:
        best_cand = None
        for drop_idx in range(len(current.features)):
            features = tuple(
                f for i, f in enumerate(current.features) if i != drop_idx
            )
            row = _fit_one(m, ModelSpec(features), split, max_iter, tol, "candidate")
            if row.failed:
                continue
            if best_cand is None or row.aic < best_cand.aic:
                best_cand = row
        if best_cand is None or best_cand.aic >= current_row.aic:
            break
        step += 1
        current_row = replace(best_cand, model_id=f"step_{step:03d}")
        current = current_row.spec
        path.append(current_row)
    return StepwiseResult(path=ComparisonTable(rows=tuple(path)), best=current)


def comparison_to_dicts(table: ComparisonTable) -> list:
    """JSON-friendly row dicts, in table order."""
    out = []
    for r in table.rows:
        out.append(
            {
                "model_id": r.model_id,
                "features": list(r.spec.features),
                "n_train": r.n_train,
                "k_params": r.k_params,
                "converged": r.converged,
                "iterations": r.iterations,
                "failed": r.failed,
                "failure": r.failure,
                "coefficients": dict(r.coefficients) if r.coefficients else None,
                **{f: getattr(r, f) for f in METRIC_FIELDS},
            }
        )
    return out
