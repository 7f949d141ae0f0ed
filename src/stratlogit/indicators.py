"""Derived activity indicators and the stratification mobility target.

Each scholar record is expanded into nine model features:

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
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, DegenerateInputError, require_number

FEATURE_COLUMNS = ("AD", "TD", "FGR", "FR", "CA", "P", "C", "PC", "AW")


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


def post_density(post_count: int, account_days: int) -> float:
    if account_days <= 0:
        raise DegenerateInputError(
            f"post_density: account_days must be > 0, got {account_days}"
        )
    return post_count / account_days


def follower_growth_rate(current: int, historical: int, interval_days: int) -> float:
    if interval_days <= 0:
        raise DegenerateInputError(
            f"follower_growth_rate: interval must be > 0, got {interval_days}"
        )
    if historical > current:
        raise DegenerateInputError(
            f"follower_growth_rate: historical count {historical} exceeds current {current}"
        )
    return (current - historical) / interval_days


def following_ratio(followed: int, followers: int) -> float:
    if followers <= 0:
        raise DegenerateInputError(
            f"following_ratio: followers must be > 0, got {followers}"
        )
    return followed / followers


def composite_activity(td: float, followers: int, followed: int, w: CompositeWeights) -> float:
    if followed <= 0:
        raise DegenerateInputError(
            f"composite_activity: followed must be > 0, got {followed}"
        )
    return w.alpha * td + w.beta * (followers / followed)


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


def mobility_label(h_rank_pct: float, follower_rank_pct: float) -> int:
    """1 when the follower percentile strictly exceeds the h-index one."""
    for name, v in (("h_rank_pct", h_rank_pct), ("follower_rank_pct", follower_rank_pct)):
        if not (0.0 <= v <= 1.0):
            raise DegenerateInputError(f"mobility_label: {name} outside [0, 1]: {v}")
    return 1 if follower_rank_pct - h_rank_pct > 0 else 0


def build_feature_matrix(d, weights: CompositeWeights | None = None) -> FeatureMatrix:
    """Expand a Dataset into the nine-column FeatureMatrix plus target.

    The growth-rate interval is the account age in days (the full
    observation window).  Degenerate records are rejected with the
    scholar id in the message.
    """
    w = weights or CompositeWeights()
    records = list(d.records)
    if not records:
        raise DegenerateInputError("build_feature_matrix: empty dataset")
    n = len(records)
    values = np.empty((n, len(FEATURE_COLUMNS)))
    for i, r in enumerate(records):
        try:
            td = post_density(r.post_count, r.account_days)
            fgr = follower_growth_rate(
                r.followers_current, r.followers_historical, r.account_days
            )
            fr = following_ratio(r.followed_count, r.followers_current)
            ca = composite_activity(td, r.followers_current, r.followed_count, w)
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"scholar {r.scholar_id}: {exc}") from None
        values[i] = (
            float(r.account_days),
            td,
            fgr,
            fr,
            ca,
            float(r.publications),
            float(r.citations),
            float(r.per_cited),
            float(r.amount_weight),
        )
    h_pct = percentile_rank([r.h_index for r in records])
    f_pct = percentile_rank([r.followers_current for r in records])
    target = np.array(
        [mobility_label(h_pct[i], f_pct[i]) for i in range(n)], dtype=np.int64
    )
    return FeatureMatrix(
        column_names=FEATURE_COLUMNS,
        values=values,
        target=target,
        row_ids=tuple(r.scholar_id for r in records),
    )
