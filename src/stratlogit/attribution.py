"""Exact additive feature attributions and the rows of their trends.

For a fitted logistic model the attribution of feature j on row i is
computed on the log-odds scale, where the model is exactly linear, so
Shapley values have a closed form:

    phi_ij = beta_j * (x_ij - mu_j),        base = beta_0 + beta . mu

with mu the background feature means.  As phi_ij depends on x_ij
alone, the trend of feature j is phi at its sorted distinct values, so
a trend is the rows that supply its sites: ``trend_compare`` finds them
once per feature for every model that holds it, and ``emit`` writes
each column's rendered texts at those rows.  ``lowess``, a local-linear
smoother that returns the same line, stays only because the benchmark's
traced mode patches it by name (``perfbench/spans.py``); nothing in the
package calls it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError
from .logit import LogitFit


@dataclass(frozen=True)
class ShapMatrix:
    """Per-row, per-feature attributions for one model."""

    model_id: str
    feature_names: tuple
    values: np.ndarray
    base_value: float

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.feature_names):
            raise DataError("shap matrix shape does not match feature names")
        if not np.all(np.isfinite(self.values)) or not math.isfinite(self.base_value):
            raise DataError("shap matrix contains non-finite values")

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.feature_names.index(name)
        except ValueError:
            raise DataError(f"shap matrix has no feature {name!r}") from None
        return self.values[:, j]


def _check_background(fit: LogitFit, background) -> np.ndarray:
    mu = np.asarray(background, dtype=float)
    if mu.shape != (len(fit.feature_names),):
        raise DataError(
            f"background means must have {len(fit.feature_names)} entries, "
            f"got shape {mu.shape}"
        )
    if not np.all(np.isfinite(mu)):
        raise DataError("background means must be finite")
    return mu


def linear_shap(fit: LogitFit, X, background, model_id: str = "model") -> ShapMatrix:
    """Closed-form log-odds Shapley values for every row of ``X``."""
    mu = _check_background(fit, background)
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != len(fit.feature_names):
        raise DataError(
            f"linear_shap: expected {len(fit.feature_names)} feature columns, "
            f"got shape {X.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise DataError("linear_shap: non-finite features")
    beta = fit.coef[1:]
    # C order whatever the layout of X, so reductions over rows (as in
    # mean_abs_importance) sum in one order and give the same bits.
    values = np.ascontiguousarray((X - mu) * beta)
    base = float(fit.coef[0] + beta @ mu)
    return ShapMatrix(
        model_id=model_id,
        feature_names=fit.feature_names,
        values=values,
        base_value=base,
    )


@dataclass(frozen=True)
class ImportanceRanking:
    """Features ordered by mean absolute attribution, descending."""

    model_id: str
    entries: tuple


def mean_abs_importance(s: ShapMatrix) -> ImportanceRanking:
    if s.values.shape[0] == 0:
        raise DegenerateInputError("mean_abs_importance: empty shap matrix")
    scores = np.mean(np.abs(s.values), axis=0)
    order = sorted(range(len(scores)), key=lambda j: (-scores[j], j))
    return ImportanceRanking(
        model_id=s.model_id,
        entries=tuple((s.feature_names[j], float(scores[j])) for j in order),
    )


@dataclass(frozen=True)
class TrendCurve:
    """The smoothed ``y`` that ``lowess`` gives at the sites ``x``."""

    feature: str
    model_id: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise DataError("trend curve x/y must be matching 1-D arrays")
        if not np.all(np.isfinite(self.x)) or not np.all(np.isfinite(self.y)):
            raise DataError("trend curve contains non-finite values")


def trend_compare(feature: str, x, columns) -> np.ndarray:
    """The rows that supply the trend of ``feature`` against its column
    ``x``: the first row holding each distinct value of x (-0.0 and 0.0
    are one), in ascending order.  ``columns`` are the attribution
    columns of ``feature``, one per model that holds it; DataError if
    one is not a function of x, DegenerateInputError under two distinct
    values."""
    sites, rows, inverse = np.unique(x, return_index=True, return_inverse=True)
    if sites.size < 2:
        raise DegenerateInputError(f"trend_compare: {feature} needs at least 2 distinct values")
    for phi in columns:
        if not np.array_equal(phi[rows][inverse], phi):
            raise DataError(f"trend_compare: attribution of {feature} is not a function of x")
    return rows


def _local_fit(x, y, x0, r) -> float:
    d = np.abs(x - x0)
    h = np.partition(d, r - 1)[r - 1]
    if h == 0.0:
        w = np.where(d == 0.0, 1.0, 0.0)
    else:
        u = d / h
        w = np.where(u < 1.0, (1.0 - u ** 3) ** 3, 0.0)
    sw = float(np.sum(w))
    if sw <= 0.0:
        return float(np.mean(y[d == 0.0]))
    # Shifted response: exact for constant input, immune to large offsets.
    y_ref = float(y[int(np.argmin(d))])
    t = y - y_ref
    xbar = float(np.sum(w * x)) / sw
    tbar = float(np.sum(w * t)) / sw
    dx = x - xbar
    sxx = float(np.sum(w * dx * dx))
    if sxx <= 0.0:
        return y_ref + tbar
    slope = float(np.sum(w * dx * (t - tbar))) / sxx
    return y_ref + tbar + slope * (x0 - xbar)


def lowess(
    x,
    y,
    frac: float = 2.0 / 3.0,
    feature: str = "",
    model_id: str = "",
) -> TrendCurve:
    """Locally weighted scatterplot smoothing at every distinct x.

    Neighbourhood: the r = ceil(frac * n) nearest points by |x - x0|
    (at least 2), weighted by tricube(d / d_(r)).  A local weighted
    linear fit supplies the smoothed value.  Smoothed values are
    reported at the sorted distinct x sites.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError("lowess: x and y must be matching 1-D arrays")
    n = x.size
    if n < 2:
        raise DegenerateInputError(f"lowess: need at least 2 points, got {n}")
    if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
        raise DataError("lowess: non-finite input")
    if not (0.0 < frac <= 1.0):
        raise ConfigError(f"lowess: frac must be in (0, 1], got {frac}")
    sites = np.unique(x)
    if sites.size < 2:
        raise DegenerateInputError("lowess: need at least 2 distinct x values")
    r = min(n, max(2, math.ceil(frac * n)))
    smoothed = np.array([_local_fit(x, y, x0, r) for x0 in sites])
    return TrendCurve(feature=feature, model_id=model_id, x=sites, y=smoothed)
