"""Additive attributions (closed form vs coalition enumeration), their
trend curves, and the LOWESS oracle against an independent reference."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from conftest import kernel_shap, make_problem
from stratlogit.attribution import (
    ShapMatrix,
    attribution_trend,
    linear_shap,
    lowess,
    mean_abs_importance,
    trend_compare,
)
from stratlogit.errors import ConfigError, DataError, DegenerateInputError
from stratlogit.logit import fit_logistic


def reference_lowess(x, y, frac):
    """Separate route: numpy polyfit with tricube weights per site."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    r = min(n, max(2, math.ceil(frac * n)))
    sites = np.unique(x)
    out = np.empty(sites.size)
    for i, x0 in enumerate(sites):
        d = np.abs(x - x0)
        h = np.sort(d)[r - 1]
        u = d / h
        tri = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
        coeffs = np.polyfit(x, y, 1, w=np.sqrt(tri))
        out[i] = np.polyval(coeffs, x0)
    return sites, out


class TestLinearShap:
    def test_additivity_to_log_odds(self):
        design, _ = make_problem(31, n=200, p=6)
        fit = fit_logistic(design)
        X = design.X[:, 1:]
        mu = X.mean(axis=0)
        s = linear_shap(fit, X, mu, model_id="full")
        eta = design.X @ fit.coef
        recon = s.base_value + s.values.sum(axis=1)
        assert_allclose(recon, eta, atol=1e-10)

    def test_base_value_is_background_log_odds(self):
        design, _ = make_problem(32, n=150, p=3)
        fit = fit_logistic(design)
        mu = design.X[:, 1:].mean(axis=0)
        s = linear_shap(fit, design.X[:5, 1:], mu)
        assert_allclose(s.base_value, fit.coef[0] + fit.coef[1:] @ mu, rtol=1e-14)

    def test_row_at_background_has_zero_attribution(self):
        design, _ = make_problem(33, n=100, p=4)
        fit = fit_logistic(design)
        mu = design.X[:, 1:].mean(axis=0)
        s = linear_shap(fit, mu[None, :], mu)
        assert_allclose(s.values, np.zeros((1, 4)), atol=1e-15)

    def test_input_validation(self):
        design, _ = make_problem(34, n=80, p=3)
        fit = fit_logistic(design)
        X = design.X[:, 1:]
        with pytest.raises(DataError):
            linear_shap(fit, X, np.zeros(5))
        with pytest.raises(DataError):
            linear_shap(fit, X[:, :2], np.zeros(3))
        bad = X.copy()
        bad[0, 0] = np.nan
        with pytest.raises(DataError):
            linear_shap(fit, bad, np.zeros(3))

    def test_column_lookup(self):
        design, _ = make_problem(35, n=90, p=3)
        fit = fit_logistic(design)
        X = design.X[:, 1:]
        s = linear_shap(fit, X, X.mean(axis=0))
        name = fit.feature_names[1]
        assert_allclose(s.column(name), s.values[:, 1], rtol=0)
        with pytest.raises(DataError):
            s.column("nope")


class TestKernelShap:
    def test_matches_closed_form(self):
        for p in (1, 2, 5, 8):
            design, _ = make_problem(40 + p, n=150, p=p)
            fit = fit_logistic(design)
            X = design.X[:, 1:]
            mu = X.mean(axis=0)
            closed = linear_shap(fit, X[:4], mu)
            for i in range(4):
                phi = kernel_shap(fit, X[i], mu)
                assert_allclose(phi, closed.values[i], atol=1e-9)

    def test_efficiency_axiom(self):
        design, _ = make_problem(50, n=120, p=6)
        fit = fit_logistic(design)
        X = design.X[:, 1:]
        mu = X.mean(axis=0)
        phi = kernel_shap(fit, X[0], mu)
        eta = fit.coef[0] + fit.coef[1:] @ X[0]
        base = fit.coef[0] + fit.coef[1:] @ mu
        assert_allclose(phi.sum(), eta - base, atol=1e-10)

    def test_feature_count_guard(self):
        design, _ = make_problem(51, n=300, p=13)
        fit = fit_logistic(design)
        X = design.X[:, 1:]
        with pytest.raises(ConfigError):
            kernel_shap(fit, X[0], X.mean(axis=0))
        # the ceiling is adjustable
        phi = kernel_shap(fit, X[0], X.mean(axis=0), max_features=13)
        assert phi.shape == (13,)

    def test_row_shape_validation(self):
        design, _ = make_problem(52, n=80, p=3)
        fit = fit_logistic(design)
        with pytest.raises(DataError):
            kernel_shap(fit, np.zeros(4), np.zeros(3))


class TestImportance:
    def test_hand_case_and_ordering(self):
        s = ShapMatrix(
            model_id="m",
            feature_names=("a", "b", "c"),
            values=np.array([[1.0, -1.0, 0.5], [3.0, 1.0, -0.5]]),
            base_value=0.0,
        )
        ranking = mean_abs_importance(s)
        assert ranking.entries == (("a", 2.0), ("b", 1.0), ("c", 0.5))

    def test_ties_break_on_column_position(self):
        s = ShapMatrix(
            model_id="m",
            feature_names=("z_late", "a_early"),
            values=np.array([[2.0, 2.0], [-2.0, -2.0]]),
            base_value=0.0,
        )
        ranking = mean_abs_importance(s)
        assert [e[0] for e in ranking.entries] == ["z_late", "a_early"]

    def test_empty_matrix_rejected(self):
        s = ShapMatrix(
            model_id="m",
            feature_names=("a",),
            values=np.empty((0, 1)),
            base_value=0.0,
        )
        with pytest.raises(DegenerateInputError):
            mean_abs_importance(s)

    def test_bits_independent_of_feature_layout(self):
        design, _ = make_problem(53, n=459, p=6)
        fit = fit_logistic(design)
        X = np.ascontiguousarray(design.X[:, 1:])
        mu = X.mean(axis=0)
        by_row = mean_abs_importance(linear_shap(fit, X, mu))
        by_column = mean_abs_importance(linear_shap(fit, np.asfortranarray(X), mu))
        assert by_column.entries == by_row.entries


class TestLowess:
    def test_constant_input_reproduced_exactly(self):
        x = np.linspace(0, 10, 37)
        y = np.full(37, 4.25)
        curve = lowess(x, y, frac=0.4)
        assert curve.y.tolist() == [4.25] * 37

    def test_constant_with_huge_offset_exact(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.random(50) * 100
        y = np.full(50, 1.0e12 + 0.5)
        curve = lowess(x, y, frac=0.7)
        assert all(v == 1.0e12 + 0.5 for v in curve.y)

    def test_line_recovered_with_full_window(self):
        x = np.linspace(-3, 5, 41)
        y = 2.5 * x - 1.25
        curve = lowess(x, y, frac=1.0)
        assert_allclose(curve.y, 2.5 * curve.x - 1.25, atol=1e-9)

    def test_matches_reference_implementation(self):
        rng = np.random.Generator(np.random.PCG64(7))
        x = np.sort(rng.random(80) * 6 - 3)
        y = 1.0 / (1.0 + np.exp(-2 * x)) + rng.normal(0, 0.05, 80)
        for frac in (0.3, 2.0 / 3.0, 1.0):
            curve = lowess(x, y, frac=frac)
            ref_x, ref_y = reference_lowess(x, y, frac)
            assert_allclose(curve.x, ref_x, rtol=0)
            assert_allclose(curve.y, ref_y, atol=1e-6)

    def test_sites_are_sorted_distinct_x(self):
        x = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        curve = lowess(x, y, frac=1.0)
        assert curve.x.tolist() == [1.0, 2.0, 3.0]

    def test_validation(self):
        x = np.linspace(0, 1, 10)
        y = x.copy()
        with pytest.raises(ConfigError):
            lowess(x, y, frac=0.0)
        with pytest.raises(ConfigError):
            lowess(x, y, frac=1.5)
        with pytest.raises(DegenerateInputError):
            lowess(np.array([1.0]), np.array([2.0]))
        with pytest.raises(DegenerateInputError):
            lowess(np.ones(5), np.arange(5.0))
        with pytest.raises(DataError):
            lowess(x, np.concatenate([y[:-1], [np.inf]]))
        with pytest.raises(DataError):
            lowess(x, y[:-1])


class TestTrendCompare:
    def _two_models(self):
        design, _ = make_problem(60, n=150, p=4)
        fit_full = fit_logistic(design)
        X = design.X[:, 1:]
        mu = X.mean(axis=0)
        full = linear_shap(fit_full, X, mu, model_id="full")

        sub_names = design.feature_names[:2]
        from stratlogit.logit import DesignMatrix

        sub = DesignMatrix(
            X=design.X[:, :3], y=design.y, feature_names=sub_names
        )
        fit_sub = fit_logistic(sub)
        optimized = linear_shap(fit_sub, X[:, :2], mu[:2], model_id="optimized")
        return design, full, optimized

    def test_shared_feature_yields_two_curves(self):
        design, full, optimized = self._two_models()
        feature = design.feature_names[0]
        cmp = trend_compare(full, optimized, feature, design.X[:, 1])
        assert cmp.full_curve is not None
        assert cmp.optimized_curve is not None
        assert cmp.missing_from == ()
        assert cmp.full_curve.model_id == "full"

    def test_feature_dropped_from_one_model(self):
        design, full, optimized = self._two_models()
        feature = design.feature_names[3]
        cmp = trend_compare(full, optimized, feature, design.X[:, 4])
        assert cmp.full_curve is not None
        assert cmp.optimized_curve is None
        assert cmp.missing_from == ("optimized",)

    def test_feature_absent_from_both(self):
        _, full, optimized = self._two_models()
        with pytest.raises(DataError):
            trend_compare(full, optimized, "ghost", np.zeros(150))

    def test_identical_model_ids_rejected(self):
        design, full, _ = self._two_models()
        with pytest.raises(DataError):
            trend_compare(full, full, design.feature_names[0], design.X[:, 1])

    def test_length_mismatch_rejected(self):
        design, full, optimized = self._two_models()
        with pytest.raises(DataError):
            trend_compare(full, optimized, design.feature_names[0], np.zeros(3))


class TestAttributionTrend:
    def test_attribution_at_sorted_distinct_sites(self):
        x = np.array([3.0, 1.0, 3.0, 2.0, 1.0])
        curve = attribution_trend(x, 2.0 * (x - 2.0), feature="f", model_id="m")
        assert curve.x.tolist() == [1.0, 2.0, 3.0]
        assert curve.y.tolist() == [-2.0, 0.0, 2.0]
        assert (curve.feature, curve.model_id) == ("f", "m")

    def test_attributions_not_a_function_of_x_rejected(self):
        values = np.array([[1.0, 0.5], [2.0, 0.5], [3.0, -0.5]])
        full = ShapMatrix("full", ("a", "b"), values, 0.0)
        optimized = ShapMatrix("optimized", ("b",), values[:, 1:], 0.0)
        x = np.array([1.0, 1.0, 2.0])
        with pytest.raises(DataError):
            trend_compare(full, optimized, "a", x)
        # Column b is a function of the same x, so it is accepted.
        cmp = trend_compare(full, optimized, "b", x)
        assert cmp.full_curve.y.tolist() == [0.5, -0.5]

    def test_validation(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(DataError):
            attribution_trend(x, x[:-1])
        with pytest.raises(DataError):
            attribution_trend(x.reshape(2, 5), x.reshape(2, 5))
        with pytest.raises(DataError):
            attribution_trend(x, np.concatenate([x[:-1], [np.nan]]))
        with pytest.raises(DataError):
            attribution_trend(np.concatenate([x[:-1], [np.inf]]), x)
        with pytest.raises(DegenerateInputError):
            attribution_trend(np.ones(5), np.zeros(5))

    @settings(max_examples=200)
    @given(
        pool=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0]),
            min_size=2,
            max_size=8,
        ),
        picks=st.lists(st.integers(0, 7), min_size=2, max_size=60),
        beta=st.floats(-50.0, 50.0, allow_nan=False),
        mu=st.floats(-1e3, 1e3, allow_nan=False) | st.just(0.0),
        data=st.data(),
    )
    def test_row_order_does_not_move_bits(self, pool, picks, beta, mu, data):
        x = np.array([pool[i % len(pool)] for i in picks])
        assume(np.unique(x).size >= 2)
        phi = (x - mu) * beta
        order = np.array(data.draw(st.permutations(range(x.size))))
        ref = attribution_trend(x, phi)
        got = attribution_trend(x[order], phi[order])
        assert got.x.tobytes() == ref.x.tobytes()
        assert got.y.tobytes() == ref.y.tobytes()
