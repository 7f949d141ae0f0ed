"""Train/validation evaluation of fitted classifiers.

Deterministic splitting, probability prediction, confusion matrices,
threshold metrics with explicit undefined handling (a precision with an
empty denominator is None, never silently 0), ROC curves with
trapezoidal AUC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, require_number
from .logit import LogitFit, sigmoid

_PROB_FLOOR = 1e-300
_PROB_CEIL = 1.0 - 1e-16


@dataclass(frozen=True)
class Split:
    """Sorted row indices of one train/validation partition."""

    train_indices: tuple
    val_indices: tuple
    seed: int
    train_fraction: float

    @property
    def n_train(self) -> int:
        return len(self.train_indices)

    @property
    def n_val(self) -> int:
        return len(self.val_indices)


def check_split_params(train_fraction, seed) -> None:
    """``make_split``'s rule for its parameters, which needs no rows:
    ``train_fraction`` a real number in (0, 1), ``seed`` an integer >= 0."""
    require_number("make_split: train_fraction", train_fraction)
    if not (0.0 < train_fraction < 1.0):
        raise ConfigError(
            f"make_split: train_fraction must be in (0, 1), got {train_fraction}"
        )
    require_number("make_split: seed", seed, integer=True)
    if seed < 0:
        raise ConfigError(f"make_split: seed must be >= 0, got {seed}")


def make_split(n: int, train_fraction: float = 0.7, seed: int = 0) -> Split:
    """Shuffle 0..n-1 with a PCG64 generator and cut once.

    The train size is round-half-up of ``train_fraction * n``, and both
    partitions must be non-empty; ``check_split_params`` checks the
    parameters.  The same (n, fraction, seed) triple always produces the
    same split; the generator is pinned to PCG64 so the partition is
    stable across platforms and library versions.
    """
    if n < 2:
        raise DegenerateInputError(f"make_split: need at least 2 rows, got {n}")
    check_split_params(train_fraction, seed)
    n_train = int(train_fraction * n + 0.5)
    if n_train < 1 or n_train >= n:
        raise DegenerateInputError(
            f"make_split: fraction {train_fraction} leaves an empty partition for n={n}"
        )
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    return Split(
        train_indices=tuple(sorted(int(i) for i in perm[:n_train])),
        val_indices=tuple(sorted(int(i) for i in perm[n_train:])),
        seed=seed,
        train_fraction=train_fraction,
    )


def predict_prob(fit: LogitFit, x) -> np.ndarray:
    """P(y=1 | x) for feature rows without the intercept column.

    Output is clipped into the open interval (0, 1) so downstream log
    or odds transforms stay finite.  ``x`` is a matrix, one row per
    observation.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != len(fit.feature_names):
        raise DataError(
            f"predict_prob: expected {len(fit.feature_names)} feature columns, "
            f"got shape {x.shape}"
        )
    check_finite_features(x)
    return clipped_prob(fit.coef[0] + x @ fit.coef[1:])


def check_finite_features(x) -> None:
    """``predict_prob``'s check that feature values ``x`` are finite."""
    if not np.all(np.isfinite(x)):
        raise DataError("predict_prob: non-finite features")


def clipped_prob(eta) -> np.ndarray:
    """``predict_prob``'s probabilities from log-odds ``eta``, elementwise:
    the logistic function clipped into the open interval (0, 1)."""
    return np.clip(sigmoid(eta), _PROB_FLOOR, _PROB_CEIL)


def classify(prob) -> np.ndarray:
    """Hard labels: 1 when probability >= 0.5."""
    p = np.asarray(prob, dtype=float)
    if np.any(p < 0.0) or np.any(p > 1.0) or not np.all(np.isfinite(p)):
        raise DataError("classify: probabilities must lie in [0, 1]")
    return (p >= 0.5).astype(np.int64)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @classmethod
    def from_predictions(cls, y_true, y_pred) -> "ConfusionMatrix":
        t = np.asarray(y_true)
        p = np.asarray(y_pred)
        if t.shape != p.shape or t.ndim != 1 or t.size == 0:
            raise DataError("confusion matrix needs matching non-empty label vectors")
        for v, name in ((t, "y_true"), (p, "y_pred")):
            if not np.all((v == 0) | (v == 1)):
                raise DataError(f"confusion matrix: {name} must be 0/1")
        return cls(*(int(c) for c in confusion_counts(t, p)))


def confusion_counts(y_true, y_pred) -> tuple:
    """(tp, fp, tn, fn) of 0/1 labels, counted along the last axis: a
    stack of predicted label rows against one ``y_true`` gives one count
    per row."""
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    return (
        np.sum((t == 1) & (p == 1), axis=-1),
        np.sum((t == 0) & (p == 1), axis=-1),
        np.sum((t == 0) & (p == 0), axis=-1),
        np.sum((t == 1) & (p == 0), axis=-1),
    )


@dataclass(frozen=True)
class ClassificationMetrics:
    """None marks a metric whose denominator is empty (undefined)."""

    accuracy: float
    precision: Optional[float]
    recall: Optional[float]
    f1: Optional[float]


def metrics(cm: ConfusionMatrix) -> ClassificationMetrics:
    if cm.total == 0:
        raise DegenerateInputError("metrics: empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    precision = cm.tp / (cm.tp + cm.fp) if (cm.tp + cm.fp) > 0 else None
    recall = cm.tp / (cm.tp + cm.fn) if (cm.tp + cm.fn) > 0 else None
    if precision is None or recall is None or precision + recall == 0:
        f1 = None
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return ClassificationMetrics(
        accuracy=accuracy, precision=precision, recall=recall, f1=f1
    )


@dataclass(frozen=True)
class RocCurve:
    """Operating points swept over the distinct scores, high to low.

    ``thresholds`` aligns with ``points``; the leading (0, 0) point has
    threshold None (no score reaches it).
    """

    points: tuple
    thresholds: tuple
    auc: float

    def __post_init__(self):
        xs = [p[0] for p in self.points]
        ys = [p[1] for p in self.points]
        if any(b < a for a, b in zip(xs, xs[1:])) or any(
            b < a for a, b in zip(ys, ys[1:])
        ):
            raise DataError("ROC curve must be monotone non-decreasing")
        if not (0.0 <= self.auc <= 1.0):
            raise DataError(f"AUC outside [0, 1]: {self.auc}")


def roc_auc(scores, labels) -> RocCurve:
    """ROC curve and trapezoidal AUC.

    One operating point per distinct score value (prediction rule:
    score >= threshold), preceded by (0, 0).  The trapezoidal area
    equals the Mann-Whitney pair statistic with ties counted 1/2.
    Requires both classes present.
    """
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise DataError("roc_auc: scores and labels must be matching 1-D vectors")
    if not np.all(np.isfinite(s)):
        raise DataError("roc_auc: non-finite scores")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("roc_auc: labels must be 0/1")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("roc_auc: need both classes to sweep a curve")
    # Each distinct score is a site; the rows at or above a threshold are
    # the sites from the top down to it, so its counts are cumulative sums.
    distinct, site = np.unique(s, return_inverse=True)
    tp = np.cumsum(np.bincount(site[y == 1], minlength=distinct.size)[::-1])
    fp = np.cumsum(np.bincount(site[y == 0], minlength=distinct.size)[::-1])
    points = [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]
    thresholds = [None, *distinct[::-1].tolist()]
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(points), thresholds=tuple(thresholds), auc=auc)
