"""Derived activity indicators and the stratification mobility target.

Each scholar record is expanded into nine model features, every one an
expression over whole columns read once off the records as doubles:

    AD   account age in days (taken as-is)
    TD   post density: posts per day of account age
    FGR  follower growth rate over the observation interval
    FR   following ratio: followed accounts per follower
    CA   composite activity: alpha * TD + beta * followers/followed
    P    publication count
    C    citation count
    PC   citations per publication
    AW   publication amount weight

The binary target compares the scholar's percentile rank by follower
count against the percentile rank by h-index: 1 when the follower rank
is strictly higher (online standing above academic standing), else 0.
The h-index itself is deliberately not a feature; it is consumed by the
target definition only.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, require_number

FEATURE_COLUMNS = ("AD", "TD", "FGR", "FR", "CA", "P", "C", "PC", "AW")

# The record fields the features and the target are computed from.
_raw_fields = operator.attrgetter(
    "account_days", "post_count", "followers_current", "followers_historical",
    "followed_count", "publications", "citations", "per_cited", "amount_weight", "h_index",
)


@dataclass(frozen=True)
class CompositeWeights:
    """Weights of the two terms of the composite activity indicator."""

    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("alpha", "beta"):
            v = getattr(self, name)
            require_number(f"composite weight {name}", v)
            if not math.isfinite(v) or v < 0:
                raise ConfigError(f"composite weight {name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class FeatureMatrix:
    """Feature columns, binary target and row identifiers, kept aligned."""

    column_names: tuple
    values: np.ndarray
    target: np.ndarray
    row_ids: tuple

    def __post_init__(self):
        if len(set(self.column_names)) != len(self.column_names):
            raise DataError("feature matrix column names must be unique")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.column_names):
            raise DataError("feature matrix shape does not match column names")
        n = self.values.shape[0]
        if self.target.shape != (n,) or len(self.row_ids) != n:
            raise DataError("feature matrix rows, target and row_ids must align")
        if not np.all(np.isfinite(self.values)):
            raise DataError("feature matrix contains non-finite values")
        if not np.all((self.target == 0) | (self.target == 1)):
            raise DataError("target must be 0/1")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.column_names.index(name)
        except ValueError:
            raise DataError(f"unknown feature column {name!r}") from None
        return self.values[:, j]


def percentile_rank(values) -> np.ndarray:
    """Mid-rank percentile of every value within its own column.

    rank_i = (#less + 0.5 * #ties excluding self) / n, which lands every
    result in [0, 1).  Ties share one mid-rank, so the output depends on
    order statistics only: any strictly increasing transform of the
    input leaves it unchanged.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DegenerateInputError("percentile_rank: need a non-empty 1-D array")
    if not np.all(np.isfinite(x)):
        raise DataError("percentile_rank: non-finite values")
    n = x.size
    sorted_x = np.sort(x)
    less = np.searchsorted(sorted_x, x, side="left")
    ties = np.searchsorted(sorted_x, x, side="right") - less
    return (less + 0.5 * (ties - 1)) / n


def mobility_label(h_rank_pct, follower_rank_pct) -> np.ndarray:
    """Every row's label: 1 where the follower percentile strictly exceeds
    the h-index one, else 0."""
    h = np.asarray(h_rank_pct, dtype=float)
    f = np.asarray(follower_rank_pct, dtype=float)
    for name, v in (("h_rank_pct", h), ("follower_rank_pct", f)):
        outside = v[~((v >= 0.0) & (v <= 1.0))]
        if outside.size:
            raise DegenerateInputError(f"mobility_label: {name} outside [0, 1]: {outside[0]}")
    return (f - h > 0).astype(np.int64)


def build_feature_matrix(d, weights: CompositeWeights | None = None) -> FeatureMatrix:
    """Expand a Dataset into the nine-column FeatureMatrix plus target.

    The growth-rate interval is the account age in days (the full
    observation window).  Before any rate is taken, the first record
    that breaks a rule below (a denominator not > 0 or a shrunk follower
    count) is rejected, naming its scholar id, the column and the value.
    """
    w = weights or CompositeWeights()
    records = list(d.records)
    if not records:
        raise DegenerateInputError("build_feature_matrix: empty dataset")
    raw = np.array([_raw_fields(r) for r in records], dtype=float)
    ad, posts, cur, hist, followed, pubs, cites, pc, aw, h = raw.T
    rules = (
        ("account_days", ad <= 0, "> 0"),
        ("followers_historical", hist > cur, "<= followers_current"),
        ("followers_current", cur <= 0, "> 0"),
        ("followed_count", followed <= 0, "> 0"),
    )
    bad = np.array([mask for _, mask, _ in rules])
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        name, _, rule = rules[int(np.argmax(bad[:, i]))]
        raise DegenerateInputError(
            f"scholar {records[i].scholar_id}: {name} must be {rule}, "
            f"got {getattr(records[i], name)}"
        )
    td = posts / ad
    ca = w.alpha * td + w.beta * (cur / followed)
    values = np.column_stack((ad, td, (cur - hist) / ad, followed / cur, ca, pubs, cites, pc, aw))
    return FeatureMatrix(
        column_names=FEATURE_COLUMNS,
        values=values,
        target=mobility_label(percentile_rank(h), percentile_rank(cur)),
        row_ids=tuple(r.scholar_id for r in records),
    )
