"""Feature subset search driven by information criteria.

Two search strategies over subsets of the nine feature columns:
exhaustive enumeration of all non-empty subsets (up to
``MAX_ENUMERATE_COLUMNS`` columns) and backward stepwise deletion
accepting the largest AIC improvement at each step.  Every candidate
is refit on the training partition and scored on the validation
partition; fits that separate, collapse or fail to converge are kept in
the table with a failure flag instead of being dropped, so the search
is auditable.

Candidates are fitted in batches through ``fit_logistic_batch``: the
specs of one size under enumeration, the deletions of one step under
stepwise search, cut into contiguous batches of bounded size.  The
training design is built and its columns checked once; each batch
gathers its stack of designs from it by column index, and its fitted
members' validation blocks likewise, which are scored as one stack:
one stacked matvec for the log-odds (the BLAS call a single design's
``x @ beta`` makes per slice) and elementwise ufuncs for the
probabilities, labels and confusion counts.  The ``STRAT_THREADS``
environment variable (default 1), the one thread setting, sets the
worker-thread count: each size is cut into at least that many batches,
fitted in parallel.  Results are ordered by the input spec list either
way, and every fit and score is bit-identical to fitting and scoring its
design alone, so the table content is independent of the thread count
and the batching.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, StratLogitError
from .evaluate import (
    ConfusionMatrix,
    Split,
    check_finite_features,
    classify,
    clipped_prob,
    confusion_counts,
    metrics,
)
from .logit import LogitFit, check_design, fit_logistic_batch, stacked_call, stacked_matvec

# Unused here, but kept importable: perfbench's tracer looks this name up
# in this module.
from .logit import fit_logistic  # noqa: F401

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


def _thread_count() -> int:
    raw = os.environ.get("STRAT_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"STRAT_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise ConfigError(f"STRAT_THREADS must be >= 1, got {threads}")
    return threads


def _validate_features(m, specs) -> None:
    known = set(m.column_names)
    for spec in specs:
        unknown = [f for f in spec.features if f not in known]
        if unknown:
            raise DataError(f"model spec references unknown columns {unknown}")


@dataclass(frozen=True)
class _Columns:
    """Every feature column on the training and validation rows, built and
    checked once for all the candidates drawn from it."""

    index: dict  # column name -> its column in ``train``
    train: np.ndarray  # training design, intercept first
    y: np.ndarray
    finite: np.ndarray  # per column of ``train``: no non-finite value
    binary: bool
    val: np.ndarray  # validation rows, without the intercept
    val_target: np.ndarray

    @classmethod
    def build(cls, m, split: Split) -> "_Columns":
        train_idx = np.asarray(split.train_indices, dtype=int)
        val_idx = np.asarray(split.val_indices, dtype=int)
        names = tuple(m.column_names)
        values = np.column_stack([m.column(name) for name in names])
        train = np.column_stack([np.ones(len(train_idx)), values[train_idx]])
        y = np.asarray(m.target, dtype=float)[train_idx]
        return cls(
            index={name: j for j, name in enumerate(names, start=1)},
            train=train,
            y=y,
            finite=np.all(np.isfinite(train), axis=0),
            binary=bool(np.all((y == 0) | (y == 1))),
            val=values[val_idx],
            val_target=m.target[val_idx],
        )


# A batch's stack of designs holds at most this many values (512 KiB);
# the Newton loop keeps about three stacks' worth alive at a time.
_BATCH_VALUES = 1 << 16


def _fit_batches(cols: _Columns, specs, max_iter, tol, mapper, workers) -> tuple:
    """(outcomes, scores): each spec's ``LogitFit`` or the
    ``StratLogitError`` its fit raised, and each fitted spec's validation
    metrics or the ``DataError`` its scoring raised (None for a failure).

    The specs of one size are cut into contiguous batches, at least
    ``workers`` of them and each at most ``_BATCH_VALUES`` values big.
    ``mapper`` (``map`` or a thread pool's) runs the batches; each gathers
    its stack of designs from the training columns, fits it through
    ``fit_logistic_batch`` and scores it with ``_score``.
    """
    n = cols.train.shape[0]
    rows = np.arange(n)[None, :, None]
    outcomes = [None] * len(specs)
    scores = [None] * len(specs)
    by_size = {}
    for i, spec in enumerate(specs):
        by_size.setdefault(len(spec.features), []).append(i)
    for size, members in sorted(by_size.items()):
        batch, design_cols = [], []
        for i in members:
            design = [0] + [cols.index[f] for f in specs[i].features]
            try:
                check_design(n, size + 1, finite=cols.finite[design].all(), binary=cols.binary)
            except StratLogitError as exc:
                outcomes[i] = exc
                continue
            batch.append(i)
            design_cols.append(design)
        if not batch:
            continue
        design_cols = np.array(design_cols)
        names = [specs[i].features for i in batch]
        per_batch = max(1, _BATCH_VALUES // (n * (size + 1)))
        n_batches = max(min(workers, len(batch)), -(-len(batch) // per_batch))
        bounds = np.linspace(0, len(batch), n_batches + 1).astype(int).tolist()

        def run(lo, hi):
            # stack[b, r, j] = train[r, design_cols[lo + b, j]]: each slice
            # C-ordered, as a single design is.
            stack = cols.train[rows, design_cols[lo:hi, None, :]]
            fitted = fit_logistic_batch(stack, cols.y, names[lo:hi], max_iter, tol)
            return list(zip(fitted, _score(cols, design_cols[lo:hi, 1:] - 1, fitted)))

        done = (pair for part in mapper(run, bounds[:-1], bounds[1:]) for pair in part)
        for i, (outcome, score) in zip(batch, done):
            outcomes[i], scores[i] = outcome, score
    return outcomes, scores


def _score(cols: _Columns, val_cols, outcomes) -> list:
    """Per outcome, its fit's ``ClassificationMetrics`` on the validation
    rows (columns ``val_cols`` of ``cols.val``), the ``DataError`` that
    ``predict_prob`` or ``classify`` raises for it, or None for a failed
    fit.

    The fitted designs are scored as one stack: eta = beta_0 plus one
    stacked matvec (the BLAS call ``predict_prob``'s 2-D ``x @ beta``
    makes per slice), then ``clipped_prob``, ``classify`` and the
    confusion counts, all elementwise, so each fit scores the bits it
    scores alone.
    """
    scores = [None] * len(outcomes)
    fitted = [i for i, o in enumerate(outcomes) if isinstance(o, LogitFit)]
    if not fitted:
        return scores
    fits = [outcomes[i] for i in fitted]
    n_val = cols.val.shape[0]
    block = cols.val[np.arange(n_val)[None, :, None], val_cols[fitted, None, :]]
    coef = np.array([fit.coef for fit in fits])
    results = [None] * len(fits)
    live, _ = stacked_call(check_finite_features, range(len(fits)), results, block)
    prob = np.zeros((len(fits), n_val))
    prob[live] = clipped_prob(coef[live, :1] + stacked_matvec(block[live], coef[live, 1:]))
    live, labels = stacked_call(classify, live, results, prob)
    counts = zip(*(c.tolist() for c in confusion_counts(cols.val_target, labels)))
    for j, (tp, fp, tn, fn) in zip(live.tolist(), counts):
        results[j] = metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
    for i, result in zip(fitted, results):
        scores[i] = result
    return scores


def _row(cols: _Columns, spec, model_id, outcome, score) -> ModelRow:
    """A spec's table row: its fit and validation ``score``, or its
    failure.  A scoring error is raised."""
    base = dict(
        model_id=model_id,
        spec=spec,
        n_train=cols.train.shape[0],
        k_params=None,
        converged=False,
        iterations=None,
        failed=True,
        failure=None,
        coefficients=None,
        **{f: None for f in METRIC_FIELDS},
    )
    if isinstance(outcome, StratLogitError):
        base["failure"] = f"{outcome.code}: {outcome}"
        return ModelRow(**base)
    if isinstance(score, StratLogitError):
        raise score
    fit = outcome
    coefficients = {"intercept": float(fit.coef[0])}
    for i, name in enumerate(fit.feature_names, start=1):
        coefficients[name] = float(fit.coef[i])
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
        accuracy=score.accuracy,
        precision=score.precision,
        recall=score.recall,
        f1=score.f1,
    )
    return ModelRow(**base)


def _fit_rows(cols: _Columns, specs, ids, max_iter, tol, workers) -> list:
    """The table rows of ``specs``, in their order, named by ``ids``."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes, scores = _fit_batches(cols, specs, max_iter, tol, pool.map, workers)
    else:
        outcomes, scores = _fit_batches(cols, specs, max_iter, tol, map, 1)
    return [_row(cols, *args) for args in zip(specs, ids, outcomes, scores)]


# Widest column set ``enumerate_subsets`` accepts: 2^15 - 1 subsets.
MAX_ENUMERATE_COLUMNS = 15


def enumerate_subsets(column_names) -> list:
    """Every non-empty subset of ``column_names``, in binary counter
    order (bit j of the mask selects column j)."""
    names = tuple(column_names)
    p = len(names)
    if p == 0:
        raise ConfigError("enumerate_subsets: no columns to enumerate")
    if p > MAX_ENUMERATE_COLUMNS:
        raise ConfigError(
            f"enumerate_subsets: {p} columns means {2 ** p - 1} subsets; "
            f"limit is {MAX_ENUMERATE_COLUMNS} (use stepwise search)"
        )
    specs = []
    for mask in range(1, 2 ** p):
        specs.append(
            ModelSpec(features=tuple(names[j] for j in range(p) if mask >> j & 1))
        )
    return specs


def fit_all(m, specs, split: Split, max_iter: int = 1000, tol: float = 1e-8) -> ComparisonTable:
    """Fit every spec on the training rows, score on validation rows."""
    specs = list(specs)
    if not specs:
        raise ConfigError("fit_all: no model specs given")
    _validate_features(m, specs)
    workers = _thread_count()
    width = max(3, len(str(len(specs))))
    ids = [f"model_{i + 1:0{width}d}" for i in range(len(specs))]
    rows = _fit_rows(_Columns.build(m, split), specs, ids, max_iter, tol, workers)
    return ComparisonTable(rows=tuple(rows))


@dataclass(frozen=True)
class StepwiseResult:
    path: ComparisonTable
    best: ModelSpec


def backward_stepwise(m, split: Split, max_iter: int = 1000, tol: float = 1e-8) -> StepwiseResult:
    """Greedy backward deletion from the full model.

    At each step every single-feature deletion is refit, as one batch;
    the lowest-AIC candidate is accepted while it strictly improves on
    the current model, stopping otherwise (or at one remaining feature).
    Deletion ties go to the earliest column.  The path records the
    accepted models only, starting with the full fit.
    """
    current = ModelSpec(features=tuple(m.column_names))
    workers = _thread_count()
    cols = _Columns.build(m, split)
    step = 0
    (current_row,) = _fit_rows(cols, [current], [f"step_{step:03d}"], max_iter, tol, workers)
    if current_row.failed:
        raise DegenerateInputError(
            f"backward_stepwise: starting model unusable ({current_row.failure})"
        )
    path = [current_row]
    while len(current.features) > 1:
        candidates = [
            ModelSpec(tuple(f for i, f in enumerate(current.features) if i != drop_idx))
            for drop_idx in range(len(current.features))
        ]
        best_cand = None
        rows = _fit_rows(
            cols, candidates, ["candidate"] * len(candidates), max_iter, tol, workers
        )
        for row in rows:
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
