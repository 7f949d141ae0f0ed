"""Deterministic synthetic fixtures.

Generates a plausible scholar activity table (all counts positive where
the indicator preconditions demand it, both eligibility flags set) and
a planted-community co-authorship edge list.  Every draw comes from a
seeded PCG64 generator, so the same arguments always reproduce the same
records byte for byte.

The class balance of the mobility target is calibrated exactly: after
sampling, pairs of follower counts are swapped between rows until the
requested number of label-1 records is hit.  Rows are labelled by
``indicators.mobility_label``, the rule ``build_feature_matrix``
applies.  Swapping permutes the existing values, so the rank structure
stays realistic and no other row's label moves unexpectedly (each
accepted swap must strictly reduce the distance to the target count).
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateInputError
from .indicators import mobility_label, percentile_rank
from .ingest import Dataset, Provenance, ScholarRecord


def _order(rows, key) -> np.ndarray:
    """The indices of the true ``rows``, ascending by ``key``, then index."""
    idx = np.flatnonzero(rows)
    return idx[np.argsort(key[idx], kind="stable")]


def _calibrate_labels(followers, h_index, target_ones) -> np.ndarray:
    """Swap follower counts between rows until exactly ``target_ones``
    rows are labelled 1.

    A swap keeps the multiset of counts, so rows i and j trade follower
    percentile ranks and no other row's label moves: the swap leaves
    ones - labels[i] - labels[j] + (f_pct[j] > h_pct[i]) + (f_pct[i] > h_pct[j])
    rows labelled 1.  Each pass takes the first donor, then the first of
    its receivers, whose swap strictly reduces the distance to the target.
    """
    followers = followers.copy()
    h_pct = percentile_rank(h_index)
    for _ in range(10000):
        f_pct = percentile_rank(followers)
        margin = f_pct - h_pct
        labels = mobility_label(h_pct, f_pct)
        ones = int(labels.sum())
        if ones == target_ones:
            return followers
        if ones > target_ones:
            # Flip a barely-1 row to 0 by handing its followers to a row
            # whose h rank is high enough to absorb them and stay 0.
            donors, receivers = _order(labels == 1, margin), _order(labels == 0, -h_pct)
        else:
            donors, receivers = _order(labels == 0, -margin), _order(labels == 1, h_pct)
        for i in donors:
            swapped = (
                ones - labels[i] - labels[receivers]
                + (f_pct[receivers] > h_pct[i]) + (f_pct[i] > h_pct[receivers])
            )
            better = np.flatnonzero(np.abs(swapped - target_ones) < abs(ones - target_ones))
            if better.size:
                j = receivers[better[0]]
                followers[i], followers[j] = followers[j], followers[i]
                break
        else:
            raise DegenerateInputError("label calibration stalled; choose another seed")
    raise DegenerateInputError("label calibration did not converge")


_SCALED = object()


def make_scholar_dataset(
    n: int = 459,
    seed: int = 20240801,
    target_increase: int | None = _SCALED,
) -> Dataset:
    """Synthetic scholar table with an exact label-1 count.

    ``target_increase`` defaults to the fixture's share, 226 of 459 rows,
    rounded at ``n``; None skips calibration and keeps whatever balance
    the draw produced.
    """
    if n < 4:
        raise DegenerateInputError(f"make_scholar_dataset: n must be >= 4, got {n}")
    if target_increase is _SCALED:
        target_increase = round(226 * n / 459)
    if target_increase is not None and not (0 < target_increase < n):
        raise DegenerateInputError(
            f"make_scholar_dataset: target_increase {target_increase} outside 1..{n - 1}"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    account_days = rng.integers(200, 6000, n)
    posts = np.floor(rng.lognormal(3.2, 1.4, n)).astype(np.int64)
    publications = np.floor(rng.lognormal(2.3, 1.0, n)).astype(np.int64)
    citations = np.floor(publications * rng.lognormal(1.8, 1.1, n)).astype(np.int64)
    amount_weight = np.maximum(2, np.floor(rng.lognormal(2.2, 0.8, n))).astype(np.int64)
    h_index = np.floor(0.54 * np.sqrt(citations) * rng.lognormal(0.0, 0.3, n)).astype(
        np.int64
    )
    followers = np.maximum(
        1,
        np.floor(
            np.exp(
                2.2
                + 0.45 * np.log1p(posts)
                + 0.35 * np.log1p(citations)
                + rng.normal(0.0, 1.1, n)
            )
        ),
    ).astype(np.int64)
    followed = np.maximum(1, np.floor(rng.lognormal(4.5, 1.0, n))).astype(np.int64)
    if target_increase is not None:
        followers = _calibrate_labels(followers, h_index, target_increase)
    records = []
    for i in range(n):
        pubs = int(publications[i])
        cites = int(citations[i])
        records.append(
            ScholarRecord(
                scholar_id=f"S{i + 1:04d}",
                account_days=int(account_days[i]),
                post_count=int(posts[i]),
                followers_current=int(followers[i]),
                followers_historical=0,
                followed_count=int(followed[i]),
                publications=pubs,
                citations=cites,
                per_cited=cites / pubs if pubs > 0 else 0.0,
                amount_weight=int(amount_weight[i]),
                h_index=int(h_index[i]),
                professional_declaration=True,
                science_dedicated=True,
            )
        )
    return Dataset(
        records=tuple(records),
        provenance=Provenance(source=f"synthetic(seed={seed}, n={n})", rows_read=n),
    )


def make_coauthor_edges(
    seed: int = 7,
    community_sizes=(10, 10, 10),
    p_in: float = 0.5,
    bridges: int = 1,
) -> list:
    """Planted-community edge list: dense blocks, sparse bridges.

    Each community is wired as a cycle (guaranteeing connectivity) plus
    random intra-community edges with probability ``p_in``; adjacent
    communities are joined by ``bridges`` edges between their lowest
    numbered members.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    names = []
    for c, size in enumerate(community_sizes):
        prefix = chr(ord("a") + c)
        names.append([f"{prefix}{i + 1:02d}" for i in range(size)])
    edges = []
    for members in names:
        size = len(members)
        for i in range(size):
            edges.append((members[i], members[(i + 1) % size]))
        for i in range(size):
            for j in range(i + 2, size):
                if (i, j) != (0, size - 1) and rng.random() < p_in:
                    edges.append((members[i], members[j]))
    for c in range(len(names) - 1):
        for b in range(bridges):
            edges.append((names[c][b % len(names[c])], names[c + 1][b % len(names[c + 1])]))
    return edges
