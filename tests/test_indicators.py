"""Derived indicators, percentile ranks and the mobility target."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from stratlogit.emit import write_feature_matrix_csv
from stratlogit.errors import ConfigError, DataError, DegenerateInputError
from stratlogit.indicators import (
    FEATURE_COLUMNS,
    CompositeWeights,
    FeatureMatrix,
    build_feature_matrix,
    composite_activity,
    follower_growth_rate,
    following_ratio,
    mobility_label,
    percentile_rank,
    post_density,
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


class TestScalarIndicators:
    def test_post_density(self):
        assert post_density(125, 1) == 125.0
        assert post_density(10, 100) == 0.1
        with pytest.raises(DegenerateInputError):
            post_density(5, 0)

    def test_follower_growth_rate(self):
        assert follower_growth_rate(1000, 0, 500) == 2.0
        assert follower_growth_rate(120, 20, 100) == 1.0
        with pytest.raises(DegenerateInputError):
            follower_growth_rate(100, 0, 0)
        with pytest.raises(DegenerateInputError):
            follower_growth_rate(10, 20, 100)

    def test_following_ratio(self):
        assert following_ratio(59, 1) == 59.0
        assert following_ratio(0, 5) == 0.0
        with pytest.raises(DegenerateInputError):
            following_ratio(10, 0)

    def test_composite_activity_defaults(self):
        w = CompositeWeights()
        assert composite_activity(0.5, 30, 10, w) == 0.5 + 3.0
        with pytest.raises(DegenerateInputError):
            composite_activity(0.5, 30, 0, w)

    def test_composite_activity_linear_in_weights(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            td = float(rng.uniform(0, 5))
            followers = int(rng.integers(1, 1000))
            followed = int(rng.integers(1, 1000))
            alpha = float(rng.uniform(0, 4))
            beta = float(rng.uniform(0, 4))
            got = composite_activity(td, followers, followed, CompositeWeights(alpha, beta))
            assert_allclose(got, alpha * td + beta * followers / followed, rtol=1e-15)

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
        assert mobility_label(0.2, 0.8) == 1
        assert mobility_label(0.8, 0.2) == 0
        assert mobility_label(0.5, 0.5) == 0  # ties are not mobility

    def test_domain(self):
        with pytest.raises(DegenerateInputError):
            mobility_label(-0.1, 0.5)
        with pytest.raises(DegenerateInputError):
            mobility_label(0.5, 1.5)


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


class TestFixtureBalance:
    def test_bundled_fixture_class_counts(self, fixture_matrix):
        assert fixture_matrix.n_rows == 459
        assert int(fixture_matrix.target.sum()) == 226
        assert int((1 - fixture_matrix.target).sum()) == 233
