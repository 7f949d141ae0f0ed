"""Oracles and properties for the shared statistical primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as scipy_stats

from conftest import solve_spd_ref
from stratlogit import stats_core

from stratlogit.errors import (
    DataError,
    DegenerateInputError,
    SingularMatrixError,
)
from stratlogit.stats_core import (
    chisq_sf,
    describe,
    pearson_matrix,
    solve_spd,
    two_sided_p,
    vif,
)


class TestDescribe:
    def test_hand_case(self):
        d = describe([1.0, 2.0, 3.0, 4.0])
        assert d.n == 4
        assert d.mean == 2.5
        assert_allclose(d.std_dev, math.sqrt(5.0 / 3.0), rtol=1e-15)
        assert d.minimum == 1.0
        assert d.median == 2.5
        assert d.maximum == 4.0
        assert_allclose(d.skewness, 0.0, atol=1e-14)

    def test_even_median_is_midpoint(self):
        assert describe([1.0, 2.0, 10.0, 11.0]).median == 6.0

    def test_skewness_matches_adjusted_estimator(self):
        rng = np.random.Generator(np.random.PCG64(5))
        for _ in range(20):
            x = rng.lognormal(0.0, 1.0, size=rng.integers(5, 60))
            n = x.size
            dev = x - x.mean()
            g1 = np.mean(dev**3) / np.mean(dev**2) ** 1.5
            adjusted = g1 * math.sqrt(n * (n - 1)) / (n - 2)
            assert_allclose(describe(x).skewness, adjusted, rtol=1e-12)

    def test_right_tail_outlier_is_positive_skew(self):
        assert describe([0.0, 0.0, 0.0, 100.0]).skewness > 0

    def test_constant_column_skewness_zero(self):
        assert describe([7.0, 7.0, 7.0]).skewness == 0.0

    def test_two_points(self):
        d = describe([3.0, 9.0])
        assert d.skewness == 0.0
        assert_allclose(d.std_dev, math.sqrt(18.0), rtol=1e-15)

    def test_errors(self):
        with pytest.raises(DegenerateInputError):
            describe([])
        with pytest.raises(DegenerateInputError):
            describe([1.0])
        with pytest.raises(DataError):
            describe([1.0, float("nan")])


class TestPearson:
    def test_two_column_hand_case(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        got = pearson_matrix(np.column_stack([x, y]), names=("x", "y"))
        expected = np.corrcoef(x, y)[0, 1]
        assert_allclose(got.r[0, 1], expected, rtol=1e-12)
        assert got.r[0, 0] == 1.0 and got.r[1, 1] == 1.0

    def test_exact_anticorrelation(self):
        x = np.array([1.0, 2.0, 3.0])
        got = pearson_matrix(np.column_stack([x, -x]), names=("x", "negx"))
        assert_allclose(got.r[0, 1], -1.0, atol=1e-12)

    def test_matches_numpy_on_random(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(10):
            m = rng.normal(size=(50, 4))
            got = pearson_matrix(m, names=("a", "b", "c", "d"))
            assert_allclose(got.r, np.corrcoef(m, rowvar=False), atol=1e-12)
            assert np.all(got.r == got.r.T)
            assert np.all(np.abs(got.r) <= 1.0)

    def test_zero_variance_column_rejected_by_name(self):
        m = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        with pytest.raises(DegenerateInputError, match="const"):
            pearson_matrix(m, names=("x", "const"))


def _vif_bruteforce(values):
    """Independent oracle: normal-equation OLS of each column on the rest."""
    n, p = values.shape
    out = np.empty(p)
    for j in range(p):
        y = values[:, j]
        X = np.column_stack([np.ones(n), np.delete(values, j, axis=1)])
        coef = np.linalg.solve(X.T @ X, X.T @ y)
        resid = y - X @ coef
        r2 = 1.0 - resid @ resid / ((y - y.mean()) @ (y - y.mean()))
        out[j] = 1.0 / (1.0 - r2)
    return out


class TestVif:
    def test_matches_bruteforce_oracle(self):
        rng = np.random.Generator(np.random.PCG64(23))
        for _ in range(20):
            p = int(rng.integers(2, 7))
            base = rng.normal(size=(200, p))
            # fold in some cross-column structure so VIFs exceed 1
            base[:, 0] += 0.5 * base[:, -1]
            got = vif(base, names=tuple(f"c{j}" for j in range(p)))
            assert_allclose(got, _vif_bruteforce(base), rtol=1e-8)

    def test_two_column_closed_form(self):
        rng = np.random.Generator(np.random.PCG64(29))
        for _ in range(10):
            m = rng.normal(size=(100, 2))
            m[:, 1] += 0.8 * m[:, 0]
            r = np.corrcoef(m, rowvar=False)[0, 1]
            expected = 1.0 / (1.0 - r * r)
            assert_allclose(vif(m, names=("a", "b")), [expected, expected], rtol=1e-9)

    def test_single_column_is_one(self):
        assert vif(np.arange(10.0)[:, None], names=("a",)).tolist() == [1.0]

    def test_exact_collinearity_rejected(self):
        x = np.arange(20.0)
        m = np.column_stack([x, 2.0 * x + 3.0])
        with pytest.raises(SingularMatrixError, match="column x is"):
            vif(m, names=("x", "twice"))

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(DegenerateInputError):
            vif(np.ones((3, 3)) + np.eye(3), names=("a", "b", "c"))


class TestSolveSpd:
    def test_matches_general_solver(self):
        rng = np.random.Generator(np.random.PCG64(31))
        for _ in range(20):
            k = int(rng.integers(1, 8))
            b_mat = rng.normal(size=(k + 3, k))
            a = b_mat.T @ b_mat + np.eye(k)
            b = rng.normal(size=k)
            assert_allclose(solve_spd(a, b), np.linalg.solve(a, b), rtol=1e-10)

    def test_not_positive_definite(self):
        with pytest.raises(SingularMatrixError):
            solve_spd(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2))
        with pytest.raises(SingularMatrixError):
            solve_spd(np.zeros((2, 2)), np.ones(2))

    def test_shape_validation(self):
        with pytest.raises(DataError):
            solve_spd(np.ones((2, 3)), np.ones(2))
        with pytest.raises(DataError):
            solve_spd(np.eye(2), np.ones(3))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        k=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        log_cond=st.floats(0.0, 12.0),
        kind=st.sampled_from(["information", "spectrum"]),
        rhs=st.sampled_from(["vector", "matrix", "eye"]),
    )
    def test_bits_equal_two_call_solve_triangular(self, k, seed, log_cond, kind, rhs):
        rng = np.random.Generator(np.random.PCG64(seed))
        if kind == "information":
            # X'WX on columns whose scales span 10^(log_cond / 2), as an
            # unscaled design's Newton step sees it.
            n = k + 10
            scale = rng.permutation(np.logspace(0.0, log_cond / 2.0, k))
            x = rng.normal(size=(n, k)) * scale
            w = rng.uniform(0.01, 0.25, n)
            a = x.T @ (x * w[:, None])
        else:
            # Condition number 10^log_cond by construction.
            q, _ = np.linalg.qr(rng.normal(size=(k, k)))
            a = (q * np.logspace(0.0, -log_cond, k)) @ q.T
            a = (a + a.T) / 2.0
        if rhs == "vector":
            b = rng.normal(size=k)
        elif rhs == "matrix":
            b = rng.normal(size=(k, int(rng.integers(1, 5))))
        else:
            b = np.eye(k)
        got, want = solve_spd(a, b), solve_spd_ref(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_empty_system(self):
        got = solve_spd(np.empty((0, 0)), np.empty(0))
        assert got.shape == (0,) and got.dtype == np.float64

    def test_failed_triangular_solve_is_singular(self, monkeypatch):
        monkeypatch.setattr(stats_core, "dtrtrs", lambda a, b, lower, trans: (b, 1))
        with pytest.raises(SingularMatrixError):
            solve_spd(np.eye(2), np.ones(2))


class TestTails:
    def test_two_sided_p_against_scipy(self):
        for z in np.linspace(-8.0, 8.0, 33):
            assert_allclose(
                two_sided_p(z), 2.0 * scipy_stats.norm.sf(abs(z)), rtol=1e-12
            )

    def test_two_sided_p_deep_tail_accuracy(self):
        # survival-function route must not lose the tiny tails to cancellation
        assert_allclose(two_sided_p(10.0), 1.523970604832105e-23, rtol=1e-10)

    def test_chisq_sf_anchor(self):
        assert_allclose(chisq_sf(3.841, 1), 0.05001368376395681, rtol=1e-12)

    def test_chisq_sf_against_scipy(self):
        rng = np.random.Generator(np.random.PCG64(37))
        for _ in range(30):
            k = int(rng.integers(1, 15))
            x = float(rng.uniform(0.0, 40.0))
            assert_allclose(chisq_sf(x, k), scipy_stats.chi2.sf(x, k), rtol=1e-11)

    def test_chisq_sf_bounds(self):
        assert chisq_sf(0.0, 3) == 1.0
        with pytest.raises(DegenerateInputError):
            chisq_sf(-1.0, 3)
        with pytest.raises(DegenerateInputError):
            chisq_sf(1.0, 0)
        with pytest.raises(DegenerateInputError):
            chisq_sf(1.0, 2.5)
