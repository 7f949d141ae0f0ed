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
training design is built and its columns checked once (constant
columns and rank too, when the whole design is well posed); each batch
gathers its stack of designs from it by column index, and its fitted
members' validation blocks likewise, which are scored as one stack:
one stacked matvec for the log-odds (the BLAS call a single design's
``x @ beta`` makes per slice) and elementwise ufuncs for the
probabilities, labels and confusion counts.  The batches run in turn
on the calling thread: the Newton loop is bound by the interpreter lock,
and worker threads slowed both report searches.  Each fit is
warm-started, under enumeration from the candidate's best-fitting
one-smaller subset (the nesting Furnival & Wilson 1974 exploit), under
stepwise search from the current model; the all-feature row is the
caller's lone fit from zeros, not refitted, so a run fits each model
once.  Results are ordered by the input spec list, and every fit and
score is bit-identical to fitting and scoring its design alone from the
same start, so the table content is independent of the batching.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, StratLogitError
from .evaluate import (
    ClassificationMetrics,
    ConfusionMatrix,
    Split,
    check_finite_features,
    classify,
    clipped_prob,
    confusion_counts,
    metrics,
)
from .logit import LogitFit, check_design, columns_well_posed, fit_logistic_batch
from .logit import stacked_call, stacked_matvec

# Unused here, but kept importable: perfbench's tracer looks this name up
# in this module.
from .logit import fit_logistic  # noqa: F401


@dataclass(frozen=True)
class ModelSpec:
    """An ordered, duplicate-free subset of feature column names."""

    features: tuple

    def __post_init__(self):
        if not self.features:
            raise ConfigError("ModelSpec: empty feature subset")
        if len(set(self.features)) != len(self.features):
            raise ConfigError(f"ModelSpec: duplicate features in {self.features}")


def _view(source: str, name: str) -> property:
    """The attribute ``name`` of a row's ``source``, read when read; None
    on a row without one."""

    def read(row):
        owner = getattr(row, source)
        return None if owner is None else getattr(owner, name)

    return property(read)


@dataclass(frozen=True, eq=False)
class ModelRow:
    """One candidate: its spec and training row count, and its ``fit`` with
    that fit's validation ``score``, or the ``error`` text of the
    ``StratLogitError`` its fit raised.

    Every other value is read off the fit or the score when read, and is
    None without them (``converged`` is False), so none can disagree with
    the fit or be set by ``dataclasses.replace``.  ``failure`` is the
    error, or the iteration count an unconverged fit stopped at.  The
    values live in the fit, so rows compare by identity (``eq=False``).
    """

    model_id: str
    spec: ModelSpec
    n_train: int
    fit: Optional[LogitFit] = None
    error: Optional[str] = None
    score: Optional[ClassificationMetrics] = None

    k_params = _view("fit", "k_params")
    iterations = _view("fit", "iterations")
    log_lik = _view("fit", "log_lik")
    log_lik_null = _view("fit", "log_lik_null")
    pseudo_r2 = _view("fit", "pseudo_r2")
    llr_p = _view("fit", "llr_p")
    aic = _view("fit", "aic")
    bic = _view("fit", "bic")
    accuracy = _view("score", "accuracy")
    precision = _view("score", "precision")
    recall = _view("score", "recall")
    f1 = _view("score", "f1")
    converged = property(lambda row: row.fit is not None and row.fit.converged)
    failed = property(lambda row: not row.converged)

    @property
    def failure(self) -> Optional[str]:
        if self.fit is None:
            return self.error
        return None if self.fit.converged else f"not converged in {self.fit.iterations} iterations"

    @property
    def coefficients(self) -> Optional[dict]:
        """The fit's ``coef`` by name, intercept first."""
        if self.fit is None:
            return None
        return dict(zip(("intercept", *self.fit.feature_names), self.fit.coef.tolist()))


@dataclass(frozen=True)
class ComparisonTable:
    rows: tuple

    def sorted_by_aic(self) -> "ComparisonTable":
        """Usable rows ascending by AIC (ties: fewer parameters, then
        id); failed rows trail in their original order.  Under
        ``enumerate`` the first row is the selected model."""
        ok = [r for r in self.rows if not r.failed]
        bad = [r for r in self.rows if r.failed]
        ok.sort(key=lambda r: (r.aic, r.k_params, r.model_id))
        return ComparisonTable(rows=tuple(ok + bad))


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
    well_posed: bool  # every column subset passes the constant and rank checks
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
            well_posed=columns_well_posed(train),
            val=values[val_idx],
            val_target=m.target[val_idx],
        )


# A batch's stack of designs holds at most this many values (512 KiB);
# the Newton loop keeps about three stacks' worth alive at a time.
_BATCH_VALUES = 1 << 16


def _gather(columns, design_cols) -> np.ndarray:
    """stack[b, r, j] = columns[r, design_cols[b, j]], each slice C-ordered
    as a single design is.  Each design column is copied as whole rows of
    the transposed ``columns``, which is several times faster than one
    broadcast fancy index and gives the same array."""
    rows_of = np.ascontiguousarray(columns.T)
    stack = np.empty((len(design_cols), columns.shape[0], design_cols.shape[1]))
    for j, picks in enumerate(design_cols.T):
        stack[:, :, j] = rows_of[picks]
    return stack


def _fit_rows(cols: _Columns, specs, ids, max_iter, tol, parent=None, full=None) -> list:
    """The table rows of ``specs``, in their order, named by ``ids``.

    Each fit starts (``_start``) from the fit ``parent`` when given, else
    from its spec's ``_parent`` among ``specs``.  The specs are fitted
    size by size, ascending, so every parent is fitted before its size
    is batched; one size's specs are cut into contiguous batches of at
    most ``_BATCH_VALUES`` values each.  Each batch gathers its stack of
    designs from the training columns and fits it through
    ``fit_logistic_batch``, except that a lone spec with ``full``'s
    features takes ``full``; it is scored with ``_score``.  The rows are
    built in spec order after every fit, so the first spec's scoring
    error is the one raised.
    """
    n = cols.train.shape[0]
    outcomes = [None] * len(specs)
    scores = [None] * len(specs)
    by_size = {}
    for i, spec in enumerate(specs):
        by_size.setdefault(len(spec.features), []).append(i)
    converged = {}  # feature set -> the specs with it that fitted and converged
    for size, members in sorted(by_size.items()):
        batch, design_cols, starts = [], [], []
        for i in members:
            features = specs[i].features
            design = [0] + [cols.index[f] for f in features]
            try:
                check_design(n, size + 1, finite=cols.finite[design].all(), binary=cols.binary)
            except StratLogitError as exc:
                outcomes[i] = exc
                continue
            batch.append(i)
            design_cols.append(design)
            start = parent if parent is not None else _parent(features, outcomes, converged)
            starts.append(_start(start, features))
        if not batch:
            continue
        design_cols, starts = np.array(design_cols), np.array(starts)
        names = [specs[i].features for i in batch]
        per_batch = max(1, _BATCH_VALUES // (n * (size + 1)))
        n_batches = -(-len(batch) // per_batch)
        bounds = np.linspace(0, len(batch), n_batches + 1).astype(int).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if full is not None and names[lo:hi] == [full.feature_names]:
                fitted = [full]
            else:
                stack = _gather(cols.train, design_cols[lo:hi])
                fitted = fit_logistic_batch(
                    stack, cols.y, names[lo:hi], max_iter, tol, starts[lo:hi], cols.well_posed
                )
            scored = _score(cols, design_cols[lo:hi, 1:] - 1, fitted)
            for i, outcome, score in zip(batch[lo:hi], fitted, scored):
                outcomes[i], scores[i] = outcome, score
                if isinstance(outcome, LogitFit) and outcome.converged:
                    converged.setdefault(frozenset(specs[i].features), []).append(i)
    return [_row(cols, *args) for args in zip(specs, ids, outcomes, scores)]


def _parent(features, outcomes, converged) -> Optional[LogitFit]:
    """The fit of ``features``' one-smaller subset with the highest
    log-likelihood among the ``converged`` ones, the earliest spec on a
    tie, or None."""
    subsets = (frozenset(features[:j] + features[j + 1 :]) for j in range(len(features)))
    found = [i for subset in subsets for i in converged.get(subset, ())]
    if not found:
        return None
    return outcomes[max(found, key=lambda i: (outcomes[i].log_lik, -i))]


def _start(fit: Optional[LogitFit], features) -> tuple:
    """Starting coefficients for ``features``: ``fit``'s intercept and its
    coefficient of each feature it has, 0 for the others (all 0 without
    a fit)."""
    if fit is None:
        return (0.0,) * (len(features) + 1)
    by_name = dict(zip(fit.feature_names, fit.coef[1:].tolist()))
    return (float(fit.coef[0]), *(by_name.get(f, 0.0) for f in features))


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
    block = _gather(cols.val, val_cols[fitted])
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
    """A spec's table row from its fit and validation ``score``, or from
    the error its fit raised.  A scoring error is raised."""
    n_train = cols.train.shape[0]
    if isinstance(outcome, StratLogitError):
        return ModelRow(model_id, spec, n_train, error=f"{outcome.code}: {outcome}")
    if isinstance(score, StratLogitError):
        raise score
    return ModelRow(model_id, spec, n_train, fit=outcome, score=score)


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


def fit_all(
    m, specs, split: Split, max_iter: int = 1000, tol: float = 1e-8, full=None
) -> ComparisonTable:
    """Fit every spec on the training rows, score on validation rows; a
    lone spec of its size with ``full``'s features takes ``full``."""
    specs = list(specs)
    if not specs:
        raise ConfigError("fit_all: no model specs given")
    _validate_features(m, specs)
    width = max(3, len(str(len(specs))))
    ids = [f"model_{i + 1:0{width}d}" for i in range(len(specs))]
    rows = _fit_rows(_Columns.build(m, split), specs, ids, max_iter, tol, full=full)
    return ComparisonTable(rows=tuple(rows))


def backward_stepwise(
    m, split: Split, full: LogitFit, max_iter: int = 1000, tol: float = 1e-8
) -> ComparisonTable:
    """Greedy backward deletion from ``full``, a converged lone fit (the
    fit stage's fit of every column), which is not refitted.

    At each step every single-feature deletion is refit, as one batch,
    each from the current model's coefficients without the deleted one;
    the lowest-AIC candidate is accepted while it strictly improves on
    the current model, stopping otherwise (or at one remaining feature).
    Deletion ties go to the earliest column.  The path records the
    accepted models only, starting with ``full``'s row.
    """
    cols = _Columns.build(m, split)
    start = ModelSpec(features=full.feature_names)
    (current,) = _fit_rows(cols, [start], ["step_000"], max_iter, tol, full=full)
    path = [current]
    while len(current.spec.features) > 1:
        features = current.spec.features
        candidates = [ModelSpec(features[:i] + features[i + 1 :]) for i in range(len(features))]
        ids = ["candidate"] * len(candidates)
        rows = _fit_rows(cols, candidates, ids, max_iter, tol, current.fit)
        usable = [row for row in rows if not row.failed]
        best = min(usable, key=lambda row: row.aic, default=None)  # the first of ties
        if best is None or best.aic >= current.aic:
            break
        current = replace(best, model_id=f"step_{len(path):03d}")
        path.append(current)
    return ComparisonTable(rows=tuple(path))
