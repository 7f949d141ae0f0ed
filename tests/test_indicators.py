"""Derived indicators, percentile ranks and the mobility target."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import feature_matrix_ref
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from stratlogit.emit import write_feature_matrix_csv
from stratlogit.errors import ConfigError, DataError, DegenerateInputError
from stratlogit.indicators import (
    FEATURE_COLUMNS,
    CompositeWeights,
    FeatureMatrix,
    build_feature_matrix,
    mobility_label,
    percentile_rank,
)
from stratlogit.ingest import Dataset, Provenance, ScholarRecord


def record(sid="s1", **overrides):
    values = dict(
        scholar_id=sid,
        account_days=100,
        post_count=10,
        followers_current=50,
        followers_historical=0,
        followed_count=20,
        publications=4,
        citations=8,
        per_cited=2.0,
        amount_weight=3,
        h_index=2,
        professional_declaration=True,
        science_dedicated=True,
    )
    values.update(overrides)
    return ScholarRecord(**values)


def dataset(records):
    return Dataset(records=tuple(records), provenance=Provenance("test", len(records)))


def column(records, name, weights=None):
    fm = build_feature_matrix(dataset(records), weights)
    return fm.values[:, FEATURE_COLUMNS.index(name)]


def names_record(sid, column_name, value):
    """The DegenerateInputError message naming scholar, column and value."""
    return f"^scholar {sid}: {column_name} must be .*, got {value}$"


class TestIndicatorColumns:
    def test_post_density(self):
        records = [record("a", post_count=125, account_days=1), record("b", account_days=100)]
        assert column(records, "TD").tolist() == [125.0, 0.1]
        with pytest.raises(DegenerateInputError, match=names_record("z", "account_days", 0)):
            build_feature_matrix(dataset([record("a"), record("z", post_count=5, account_days=0)]))

    def test_follower_growth_rate(self):
        records = [
            record("a", followers_current=1000, followers_historical=0, account_days=500),
            record("b", followers_current=120, followers_historical=20, account_days=100),
        ]
        assert column(records, "FGR").tolist() == [2.0, 1.0]
        with pytest.raises(DegenerateInputError, match=names_record("z", "account_days", 0)):
            build_feature_matrix(dataset([record("z", followers_current=100, account_days=0)]))
        with pytest.raises(
            DegenerateInputError, match=names_record("z", "followers_historical", 20)
        ):
            build_feature_matrix(
                dataset([record("z", followers_current=10, followers_historical=20)])
            )

    def test_following_ratio(self):
        records = [
            record("a", followed_count=59, followers_current=1),
            record("b", followed_count=0, followers_current=5),
        ]
        # b follows nobody, so only its CA is undefined
        with pytest.raises(DegenerateInputError, match=names_record("b", "followed_count", 0)):
            build_feature_matrix(dataset(records))
        assert column(records[:1], "FR").tolist() == [59.0]
        with pytest.raises(DegenerateInputError, match=names_record("z", "followers_current", 0)):
            build_feature_matrix(dataset([record("z", followed_count=10, followers_current=0)]))

    def test_composite_activity_defaults(self):
        records = [record("a", post_count=50, account_days=100, followers_current=30,
                          followed_count=10)]
        assert column(records, "CA").tolist() == [0.5 + 3.0]
        with pytest.raises(DegenerateInputError, match=names_record("z", "followed_count", 0)):
            build_feature_matrix(dataset([record("z", followers_current=30, followed_count=0)]))

    def test_first_record_then_first_rule_is_named(self):
        # account_days is checked before the follower counts, and an
        # earlier record before a later one, whichever rule it breaks.
        both = record("z", account_days=0, followers_current=0, followers_historical=3)
        with pytest.raises(DegenerateInputError, match=names_record("z", "account_days", 0)):
            build_feature_matrix(dataset([record("a"), both]))
        with pytest.raises(DegenerateInputError, match=names_record("y", "followed_count", 0)):
            build_feature_matrix(dataset([record("y", followed_count=0), both]))

    def test_composite_activity_linear_in_weights(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            posts = int(rng.integers(0, 500))
            days = int(rng.integers(1, 500))
            followers = int(rng.integers(1, 1000))
            followed = int(rng.integers(1, 1000))
            alpha = float(rng.uniform(0, 4))
            beta = float(rng.uniform(0, 4))
            records = [record("a", post_count=posts, account_days=days,
                              followers_current=followers, followed_count=followed)]
            got = column(records, "CA", CompositeWeights(alpha, beta))
            want = alpha * (posts / days) + beta * followers / followed
            assert_allclose(got, [want], rtol=1e-15)

    def test_weight_validation(self):
        with pytest.raises(ConfigError):
            CompositeWeights(alpha=-0.1)
        with pytest.raises(ConfigError):
            CompositeWeights(beta=float("inf"))


class TestPercentileRank:
    def test_hand_case_with_ties(self):
        got = percentile_rank([10.0, 20.0, 20.0, 30.0])
        assert_allclose(got, [0.0, 0.375, 0.375, 0.75], rtol=0, atol=0)

    def test_output_in_unit_interval_open_above(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(20):
            x = rng.integers(0, 10, size=rng.integers(1, 40)).astype(float)
            r = percentile_rank(x)
            assert np.all(r >= 0.0) and np.all(r < 1.0)

    def test_invariant_under_monotone_transform(self):
        rng = np.random.Generator(np.random.PCG64(13))
        for _ in range(20):
            x = rng.integers(-5, 6, size=30).astype(float)
            assert_allclose(percentile_rank(x), percentile_rank(np.exp(x)), atol=0)

    def test_all_equal(self):
        n = 7
        r = percentile_rank(np.full(n, 4.0))
        assert_allclose(r, np.full(n, (n - 1) / (2.0 * n)), atol=0)

    def test_errors(self):
        with pytest.raises(DegenerateInputError):
            percentile_rank([])
        with pytest.raises(DataError):
            percentile_rank([1.0, float("inf")])


class TestMobilityLabel:
    def test_strict_inequality(self):
        got = mobility_label([0.2, 0.8, 0.5], [0.8, 0.2, 0.5])
        assert got.dtype == np.int64
        assert got.tolist() == [1, 0, 0]  # ties are not mobility

    def test_strict_inequality_in_the_feature_matrix(self):
        # a ranks above b by followers and below it by h-index, and c ties
        # with itself in both ranks as the only record.
        ds = dataset([record("a", followers_current=60, h_index=1),
                      record("b", followers_current=50, h_index=9)])
        assert build_feature_matrix(ds).target.tolist() == [1, 0]
        assert build_feature_matrix(dataset([record("c")])).target.tolist() == [0]

    def test_domain(self):
        with pytest.raises(DegenerateInputError, match="h_rank_pct outside"):
            mobility_label([0.5, -0.1], [0.5, 0.5])
        with pytest.raises(DegenerateInputError, match="follower_rank_pct outside"):
            mobility_label([0.5], [1.5])
        with pytest.raises(DegenerateInputError):
            mobility_label([0.5], [math.nan])


class TestBuildFeatureMatrix:
    def test_columns_and_values(self):
        ds = dataset(
            [
                record(sid="a", account_days=100, post_count=10, followers_current=50,
                       followed_count=20, publications=4, citations=8, per_cited=2.0,
                       amount_weight=3, h_index=2),
                record(sid="b", account_days=200, post_count=50, followers_current=10,
                       followed_count=40, publications=1, citations=9, per_cited=9.0,
                       amount_weight=7, h_index=30),
            ]
        )
        fm = build_feature_matrix(ds)
        assert fm.column_names == FEATURE_COLUMNS
        assert "h_index" not in fm.column_names
        a = fm.values[0]
        assert_allclose(
            a,
            [100.0, 0.1, 0.5, 20 / 50, 0.1 + 50 / 20, 4.0, 8.0, 2.0, 3.0],
            rtol=1e-15,
        )
        # a: higher followers, lower h -> rank up; b: the reverse
        assert fm.target.tolist() == [1, 0]
        assert fm.row_ids == ("a", "b")

    def test_custom_weights_flow_through(self):
        ds = dataset([record(sid="a"), record(sid="b", followers_current=60, h_index=50)])
        fm = build_feature_matrix(ds, CompositeWeights(alpha=2.0, beta=0.5))
        j = FEATURE_COLUMNS.index("CA")
        assert_allclose(fm.values[0, j], 2.0 * 0.1 + 0.5 * (50 / 20), rtol=1e-15)

    def test_degenerate_record_names_scholar(self):
        ds = dataset([record(sid="ok"), record(sid="broken", account_days=0)])
        with pytest.raises(DegenerateInputError, match="broken"):
            build_feature_matrix(ds)

    def test_zero_followers_names_scholar(self):
        ds = dataset([record(sid="nofollow", followers_current=0)])
        with pytest.raises(DegenerateInputError, match="nofollow"):
            build_feature_matrix(ds)

    def test_empty_dataset(self):
        with pytest.raises(DegenerateInputError):
            build_feature_matrix(dataset([]))

    def test_csv_header(self, tmp_path):
        ds = dataset([record(sid="a"), record(sid="b", h_index=40)])
        fm = build_feature_matrix(ds)
        out = tmp_path / "features.csv"
        write_feature_matrix_csv(fm, out)
        header = out.read_text().splitlines()[0]
        assert header == ",".join(FEATURE_COLUMNS) + ",target"

    def test_validation_rejects_nonfinite(self):
        with pytest.raises(DataError):
            FeatureMatrix(
                column_names=("a",),
                values=np.array([[np.nan]]),
                target=np.array([0]),
                row_ids=("r",),
            )


# Counts below 2**53 are exact doubles, so reading them as doubles first
# changes no feature's bits; small values make ties in the ranks.
COUNT = st.integers(0, 2**53 - 1)
RANKED = st.integers(0, 9) | COUNT


# One way to break each of the four degenerate-record rules.
BREAKS = (
    lambda r: {"account_days": 0},
    lambda r: {"followers_historical": r.followers_current + 1},
    lambda r: {"followers_current": 0, "followers_historical": 0},
    lambda r: {"followed_count": 0},
)


@st.composite
def drawn_records(draw, max_breaks=0):
    """Records whose counts are below 2**53 and whose rates are all
    defined, after which up to ``max_breaks`` rules are broken."""
    records = []
    for i in range(draw(st.integers(1, 12))):
        cur = draw(st.integers(1, 9) | st.integers(1, 2**53 - 2))
        records.append(
            record(
                f"s{i}",
                account_days=draw(st.integers(1, 2**53 - 1)),
                post_count=draw(COUNT),
                followers_current=cur,
                followers_historical=draw(st.integers(0, cur)),
                followed_count=draw(st.integers(1, 2**53 - 1)),
                publications=draw(COUNT),
                citations=draw(COUNT),
                per_cited=draw(st.floats(0, 1e12)),
                amount_weight=draw(COUNT),
                h_index=draw(RANKED),
            )
        )
    rows = st.integers(0, len(records) - 1)
    for i, rule in draw(st.lists(st.tuples(rows, st.sampled_from(BREAKS)), max_size=max_breaks)):
        records[i] = dataclasses.replace(records[i], **rule(records[i]))
    return records


WEIGHTS = st.builds(CompositeWeights, st.floats(0, 10), st.floats(0, 10))


def assert_same_bits(got, want):
    assert got.column_names == want.column_names
    assert got.values.tobytes() == want.values.tobytes()
    assert got.target.dtype == want.target.dtype
    assert got.target.tolist() == want.target.tolist()
    assert got.row_ids == want.row_ids


class TestAgainstReference:
    @settings(max_examples=300)
    @given(st.data(), drawn_records(), WEIGHTS)
    def test_equals_per_record_loop_bit_for_bit(self, data, records, weights):
        fm = build_feature_matrix(dataset(records), weights)
        assert_same_bits(fm, feature_matrix_ref(dataset(records), weights))
        # Permuted records give the same rows, permuted: a rank depends
        # on the multiset of values, not on the order.
        perm = data.draw(st.permutations(range(len(records))))
        shuffled = dataset([records[i] for i in perm])
        got = build_feature_matrix(shuffled, weights)
        assert_same_bits(got, feature_matrix_ref(shuffled, weights))
        assert got.values.tobytes() == fm.values[perm].tobytes()
        assert got.target.tolist() == fm.target[perm].tolist()

    @settings(max_examples=300)
    @given(drawn_records(max_breaks=3))
    def test_same_degenerate_record_and_rule(self, records):
        try:
            want = feature_matrix_ref(dataset(records))
        except DegenerateInputError as exc:
            with pytest.raises(DegenerateInputError) as got:
                build_feature_matrix(dataset(records))
            assert str(got.value).startswith(f"{exc} must be ")
        else:
            assert_same_bits(build_feature_matrix(dataset(records)), want)


class TestFixtureBalance:
    def test_bundled_fixture_class_counts(self, fixture_matrix):
        assert fixture_matrix.n_rows == 459
        assert int(fixture_matrix.target.sum()) == 226
        assert int((1 - fixture_matrix.target).sum()) == 233
