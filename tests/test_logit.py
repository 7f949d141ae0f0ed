"""Logistic MLE solver and inference identities.

The solver is checked against an independent optimizer (scipy BFGS on
the negative log-likelihood), against finite-difference gradients, and
against closed forms where they exist.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose
from scipy import optimize
from scipy.special import gammaincc

from conftest import finish_fit_ref, gradient_ref, make_problem, sigmoid_ref
from stratlogit import logit
from stratlogit.errors import (
    DataError,
    DegenerateInputError,
    InvariantBreachError,
    NotConvergedError,
    SeparationError,
    SingularMatrixError,
    StratLogitError,
)
from stratlogit.indicators import FeatureMatrix
from stratlogit.logit import (
    DesignMatrix,
    LogitFit,
    _llr_stat,
    coefficient_inference,
    fit_logistic,
    fit_logistic_batch,
    inference_table,
    information_criteria,
    log_likelihood,
    null_log_likelihood,
    pseudo_r2,
    sigmoid,
    stacked_matvec,
    verify_fit_identities,
)
from stratlogit.stats_core import chisq_sf


def scipy_mle(design):
    """Independent maximum-likelihood route for cross-checking."""

    def neg_ll(beta):
        return -log_likelihood(beta, design.X, design.y)

    def neg_grad(beta):
        return -gradient_ref(beta, design.X, design.y)

    res = optimize.minimize(
        neg_ll,
        np.zeros(design.k_params),
        jac=neg_grad,
        method="BFGS",
        options={"gtol": 1e-10, "maxiter": 500},
    )
    return res.x, -res.fun


class TestSolver:
    def test_matches_independent_optimizer(self):
        for seed in range(8):
            design, _ = make_problem(seed, n=250, p=3)
            fit = fit_logistic(design)
            ref_beta, ref_ll = scipy_mle(design)
            assert fit.converged
            assert_allclose(fit.coef, ref_beta, atol=5e-6)
            assert fit.log_lik >= ref_ll - 1e-9

    def test_gradient_near_zero_at_solution(self):
        design, _ = make_problem(42, n=400, p=5)
        fit = fit_logistic(design)
        assert np.max(np.abs(gradient_ref(fit.coef, design.X, design.y))) <= 1e-8

    def test_loglik_nondecreasing(self):
        for seed in (1, 7, 19):
            design, _ = make_problem(seed, n=200, p=4)
            fit = fit_logistic(design)
            assert np.all(np.diff(np.array(fit.loglik_path)) >= 0)

    def test_log_lik_is_fresh_log_likelihood(self, fixture_matrix, fixture_split):
        # The solver carries eta = X @ beta between steps; the reported
        # log-likelihood must still be the bits a fresh X @ coef gives.
        names = fixture_matrix.column_names
        for features in [names] + [(name,) for name in names]:
            design = DesignMatrix.from_features(
                fixture_matrix, features, rows=fixture_split.train_indices
            )
            fit = fit_logistic(design)
            assert fit.log_lik == log_likelihood(fit.coef, design.X, design.y)
            assert fit.loglik_path[-1] == fit.log_lik

    def test_intercept_only_balanced(self):
        y = np.array([1.0, 0.0] * 10)
        design = DesignMatrix(X=np.ones((20, 1)), y=y, feature_names=())
        fit = fit_logistic(design)
        assert fit.coef[0] == 0.0

    def test_intercept_only_quarter_split(self):
        y = np.array([1.0, 1.0, 1.0, 0.0] * 10)
        design = DesignMatrix(X=np.ones((40, 1)), y=y, feature_names=())
        fit = fit_logistic(design)
        assert_allclose(fit.coef[0], math.log(3.0), atol=1e-8)
        assert_allclose(fit.log_lik, null_log_likelihood(y), atol=1e-10)

    def test_null_loglik_closed_form(self):
        y = np.array([1.0] * 226 + [0.0] * 233)
        p_bar = 226 / 459
        expected = 459 * (p_bar * math.log(p_bar) + (1 - p_bar) * math.log(1 - p_bar))
        assert_allclose(null_log_likelihood(y), expected, rtol=1e-15)

    def test_column_order_invariance(self):
        design, _ = make_problem(5, n=300, p=4)
        fit = fit_logistic(design)
        perm = [2, 0, 3, 1]
        design_p = DesignMatrix(
            X=np.column_stack([design.X[:, 0]] + [design.X[:, j + 1] for j in perm]),
            y=design.y,
            feature_names=tuple(design.feature_names[j] for j in perm),
        )
        fit_p = fit_logistic(design_p)
        assert_allclose(fit_p.log_lik, fit.log_lik, atol=1e-10)
        for out_pos, in_pos in enumerate(perm):
            assert_allclose(fit_p.coef[out_pos + 1], fit.coef[in_pos + 1], atol=1e-7)

    def test_contradictory_labels_fit_stays_bounded(self):
        x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0] * 5)
        y = np.array([0.0, 1.0] * 15)
        design = DesignMatrix(
            X=np.column_stack([np.ones(30), x]), y=y, feature_names=("x",)
        )
        fit = fit_logistic(design)
        assert fit.converged
        assert np.max(np.abs(fit.coef)) < 5.0


class TestFailureModes:
    def test_separation_detected(self):
        # narrow margin: the slope must blow past the coefficient bound
        # before the likelihood can flatten out
        x = np.concatenate([np.linspace(-3, -0.05, 15), np.linspace(0.05, 3, 15)])
        y = (x > 0).astype(float)
        design = DesignMatrix(
            X=np.column_stack([np.ones(30), x]), y=y, feature_names=("x",)
        )
        with pytest.raises(SeparationError):
            fit_logistic(design)

    def test_collinear_columns_detected(self):
        rng = np.random.Generator(np.random.PCG64(2))
        x = rng.normal(size=50)
        y = (rng.random(50) < 0.5).astype(float)
        y[0], y[1] = 0.0, 1.0
        design = DesignMatrix(
            X=np.column_stack([np.ones(50), x, 2.0 * x]),
            y=y,
            feature_names=("x", "x2"),
        )
        with pytest.raises(SingularMatrixError):
            fit_logistic(design)

    def test_constant_column_detected(self):
        design = DesignMatrix(
            X=np.column_stack([np.ones(20), np.full(20, 3.0)]),
            y=np.array([0.0, 1.0] * 10),
            feature_names=("const",),
        )
        with pytest.raises(SingularMatrixError, match="const"):
            fit_logistic(design)

    def test_single_class_rejected(self):
        design, _ = make_problem(3, n=50, p=2)
        bad = DesignMatrix(X=design.X, y=np.ones(50), feature_names=design.feature_names)
        with pytest.raises(DegenerateInputError):
            fit_logistic(bad)

    def test_iteration_cap_returns_unconverged(self):
        design, _ = make_problem(11, n=300, p=4)
        fit = fit_logistic(design, max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1
        with pytest.raises(NotConvergedError):
            inference_table(fit)

    def test_parameter_validation(self):
        design, _ = make_problem(1, n=50, p=2)
        with pytest.raises(DegenerateInputError):
            fit_logistic(design, max_iter=0)
        with pytest.raises(DegenerateInputError):
            fit_logistic(design, tol=0.0)


def bits(outcome):
    """A fit outcome to compare to the bit: every LogitFit field, arrays
    as bytes and the rest by repr, or an error's class and text."""
    if isinstance(outcome, StratLogitError):
        return type(outcome), str(outcome)
    return {
        f.name: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
        for f in dataclasses.fields(outcome)
        for v in [getattr(outcome, f.name)]
    }


def single_fit(design, **kwargs):
    try:
        return fit_logistic(design, **kwargs)
    except StratLogitError as exc:
        return exc


class TestBatchBits:
    """``fit_logistic_batch`` is bit-identical to one fit per design only
    because numpy and LAPACK treat each slice of a stack as they treat a
    single 2-D array.  These tests pin that premise to the bit."""

    @pytest.mark.parametrize("n", [321, 322])
    def test_stacked_slices_equal_2d_calls(self, n):
        rng = np.random.Generator(np.random.PCG64(n))
        for k in range(2, 17):
            X = rng.normal(size=(4, n, k)) * rng.uniform(0.01, 100.0, size=k)
            v = rng.normal(size=(4, k))
            r = rng.normal(size=(4, n))
            w = rng.uniform(0.0, 0.25, size=(4, n))
            Xt = X.transpose(0, 2, 1)
            eta = np.matmul(X, v[:, :, None])[:, :, 0]  # gemv
            score = np.matmul(Xt, r[:, :, None])[:, :, 0]  # gemv, transposed
            info = np.matmul(Xt, X * w[:, :, None])  # gemm
            ll = np.sum(r * eta - np.logaddexp(0.0, eta), axis=-1)
            chol = np.linalg.cholesky(info)
            rank = np.linalg.matrix_rank(X)
            for b in range(4):
                Xb = X[b].copy()
                assert np.array_equal(eta[b], Xb @ v[b]), (k, b)
                assert np.array_equal(score[b], Xb.T @ r[b]), (k, b)
                info_b = Xb.T @ (Xb * w[b][:, None])
                assert np.array_equal(info[b], info_b), (k, b)
                assert ll[b] == np.sum(r[b] * eta[b] - np.logaddexp(0.0, eta[b])), (k, b)
                assert np.array_equal(chol[b], np.linalg.cholesky(info_b)), (k, b)
                assert rank[b] == np.linalg.matrix_rank(Xb), (k, b)

    @pytest.mark.parametrize("n", [138, 139])
    def test_stacked_matvec_equals_2d_calls(self, n):
        # The validation scoring's log-odds: a (B, n, size) block against
        # the coefficient rows of a (B, size + 1) stack, size 1 included.
        rng = np.random.Generator(np.random.PCG64(n))
        for size in range(1, 10):
            block = rng.normal(size=(4, n, size)) * rng.uniform(0.01, 100.0, size=size)
            coef = rng.normal(size=(4, size + 1))
            got = stacked_matvec(block, coef[:, 1:])
            for b in range(4):
                assert np.array_equal(got[b], block[b].copy() @ coef[b, 1:].copy()), (size, b)

    def test_stacked_ufuncs_equal_row_calls(self):
        # The finish's Exp(B) and likelihood-ratio p-values.
        rng = np.random.Generator(np.random.PCG64(5))
        for k in range(1, 17):
            coef = rng.normal(size=(37, k)) * rng.uniform(0.01, 40.0, size=(37, 1))
            got = np.exp(coef)
            for b in range(37):
                assert np.array_equal(got[b], np.exp(coef[b].copy())), (k, b)
        for df in range(1, 16):
            x = np.concatenate([[0.0, 1e-300, 1e3], rng.uniform(0.0, 300.0, 40)])
            got = gammaincc(df / 2.0, x / 2.0)
            want = [gammaincc(df / 2.0, v / 2.0) for v in x.tolist()]
            assert got.tobytes() == np.array(want).tobytes(), df

    @pytest.mark.parametrize("seed", range(5))
    def test_members_equal_single_fits(self, seed, monkeypatch):
        rng = np.random.Generator(np.random.PCG64(seed))
        n = 200 + seed  # odd and even
        k = 2 + 2 * seed
        y = (rng.random(n) < 0.4).astype(float)
        y[:2] = (0.0, 1.0)
        stack = np.ones((9, n, k))
        stack[:, :, 1:] = rng.normal(size=(9, n, k - 1)) * rng.uniform(0.1, 50.0, (9, 1, k - 1))
        stack[:, :, 1] += 3.0 * (y - 0.5)  # some signal
        stack[1, :, -1] = 2.5  # a constant column
        stack[2, :, -1] = 2.0 * stack[2, :, 1]  # a duplicated column
        stack[3, :, 1] = (2.0 * y - 1.0) * rng.uniform(0.01, 1.0, n)  # separates
        # No signal: the columns are orthogonal to the intercept and to y,
        # so one Newton step moves only the intercept and stays below the
        # null log-likelihood.
        basis = np.column_stack([np.ones(n), y])
        noise = stack[4, :, 1:]
        stack[4, :, 1:] = noise - basis @ np.linalg.lstsq(basis, noise, rcond=None)[0]
        names = [tuple(f"x{b}_{j}" for j in range(1, k)) for b in range(9)]
        # Some stop unconverged, and after one step some fail the finish.
        max_iter = {3: 3, 4: 1}.get(seed, 1000)
        # Record each design's stopping point as the finish receives it.
        stops = {}
        finish = logit._finish_fits

        def spy(X, y, feature_names, stopped, *rest):
            stops.update((s[0], s[1:]) for s in stopped)
            finish(X, y, feature_names, stopped, *rest)

        monkeypatch.setattr(logit, "_finish_fits", spy)
        got = fit_logistic_batch(stack, y, names, max_iter=max_iter)
        monkeypatch.undo()
        assert len(got) == 9
        ll_null = null_log_likelihood(y)
        for b in range(9):
            design = DesignMatrix(X=stack[b].copy(), y=y, feature_names=names[b])
            assert bits(got[b]) == bits(single_fit(design, max_iter=max_iter)), b
            if b in stops:
                beta, eta, ll, path, iterations, converged = stops[b]
                try:
                    want = finish_fit_ref(
                        stack[b].copy(), y, names[b], beta.copy(), eta.copy(), ll, path,
                        iterations, converged, ll_null,
                    )
                except StratLogitError as exc:
                    want = exc
                assert bits(got[b]) == bits(want), b
        kinds = {type(o) for o in got}
        assert SingularMatrixError in kinds and LogitFit in kinds, kinds
        if seed == 4:
            assert isinstance(got[4], DegenerateInputError) and 4 in stops, got[4]

    def test_batch_wide_failures(self):
        design, _ = make_problem(3, n=60, p=2)
        stack = np.stack([design.X, design.X[::-1].copy()])
        names = [design.feature_names] * 2
        for kwargs, y in [
            (dict(max_iter=0), design.y),
            (dict(tol=0.0), design.y),
            ({}, np.ones(60)),
        ]:
            got = fit_logistic_batch(stack, y, names, **kwargs)
            assert [type(e) for e in got] == [DegenerateInputError] * 2
            with pytest.raises(DegenerateInputError, match=str(got[0])):
                fit_logistic(DesignMatrix(X=design.X, y=y, feature_names=names[0]), **kwargs)


class TestGradient:
    def test_matches_central_differences(self):
        h = 1e-5
        for seed in range(20):
            design, _ = make_problem(seed + 100, n=60, p=3)
            rng = np.random.Generator(np.random.PCG64(seed))
            beta = rng.uniform(-0.5, 0.5, design.k_params)
            grad = gradient_ref(beta, design.X, design.y)
            for j in range(design.k_params):
                e = np.zeros(design.k_params)
                e[j] = h
                fd = (
                    log_likelihood(beta + e, design.X, design.y)
                    - log_likelihood(beta - e, design.X, design.y)
                ) / (2 * h)
                assert_allclose(grad[j], fd, rtol=1e-5, atol=1e-7)


class TestSigmoid:
    def test_extremes_do_not_overflow(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for eta in np.linspace(-30, 30, 13):
            assert_allclose(sigmoid(eta) + sigmoid(-eta), 1.0, atol=1e-15)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=40),
            elements=st.one_of(
                st.floats(-1e3, 1e3),
                st.sampled_from(
                    [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e3, -1e3, 745.2, -745.2]
                ),
            ),
        )
    )
    @example(np.array(-0.0))
    @example(np.array(np.nan))
    @example(np.empty(0))
    @example(np.empty((3, 0)))
    def test_bits_equal_masked_form(self, eta):
        got, want = sigmoid(eta), sigmoid_ref(eta)
        assert isinstance(got, np.ndarray)
        assert got.shape == want.shape and got.dtype == want.dtype
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        # Bit for bit (a signed zero would show), except NaN payloads.
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


class TestInferenceIdentities:
    def test_known_coefficient_row(self):
        # coef/se pair with externally known z, odds ratio, Wald and p
        inf = coefficient_inference([0.266868], [0.088335])
        assert_allclose(inf.z[0], 3.0210901681100357, rtol=1e-12)
        assert_allclose(inf.exp_b[0], 1.3058680603694626, rtol=1e-12)
        assert_allclose(inf.wald[0], 9.126985803851124, rtol=1e-12)
        assert_allclose(inf.p_two_sided[0], 0.0025186634429176886, rtol=1e-12)

    def test_deep_tail_p(self):
        inf = coefficient_inference([0.365668], [0.094083])
        assert_allclose(inf.z[0], 3.8866532742365782, rtol=1e-10)
        assert_allclose(inf.p_two_sided[0], 1.016357618997149e-04, rtol=1e-9)

    def test_validation(self):
        with pytest.raises(DataError):
            coefficient_inference([1.0], [0.0])
        with pytest.raises(DataError):
            coefficient_inference([1.0, 2.0], [1.0])

    def test_information_criteria_anchors(self):
        aic, bic = information_criteria(-91.334, 10, 321)
        assert abs(aic - 202.668) <= 1e-9
        assert abs(bic - 240.383) <= 1e-3
        aic4, bic4 = information_criteria(-92.242, 7, 321)
        assert abs(aic4 - 198.484) <= 1e-9
        assert abs(bic4 - 224.884) <= 1e-3

    def test_pseudo_r2_anchors(self):
        assert abs(pseudo_r2(-91.334, -222.237) - 0.589) <= 5e-4
        assert abs(pseudo_r2(-92.242, -222.237) - 0.585) <= 5e-4
        assert pseudo_r2(-100.0, -100.0) == 0.0

    def test_pseudo_r2_validation(self):
        with pytest.raises(DegenerateInputError):
            pseudo_r2(-1.0, 0.0)
        with pytest.raises(DegenerateInputError):
            pseudo_r2(-300.0, -200.0)

    def test_llr_anchors(self):
        stat = _llr_stat(-91.334, -222.237)
        assert_allclose(stat, 261.806, rtol=1e-12)
        assert_allclose(chisq_sf(stat, 9), 3.198206960854689e-51, rtol=1e-6)
        assert_allclose(
            chisq_sf(_llr_stat(-107.720, -222.237), 5), 1.7228348108833642e-47, rtol=1e-6
        )
        same = _llr_stat(-5.0, -5.0)
        assert same == 0.0 and chisq_sf(same, 3) == 1.0

    def test_llr_rejects_worse_than_null(self):
        with pytest.raises(DegenerateInputError):
            _llr_stat(-250.0, -222.237)


class TestFitOutputs:
    def test_fields_consistent(self):
        design, _ = make_problem(21, n=350, p=4)
        fit = fit_logistic(design)
        k, n = fit.k_params, fit.n_obs
        assert (k, n) == (5, 350)
        assert_allclose(fit.aic, 2 * k - 2 * fit.log_lik, rtol=1e-15)
        assert_allclose(fit.bic, k * math.log(n) - 2 * fit.log_lik, rtol=1e-15)
        assert_allclose(fit.pseudo_r2, 1 - fit.log_lik / fit.log_lik_null, rtol=1e-15)
        assert_allclose(fit.z, fit.coef / fit.std_err, rtol=1e-15)
        assert_allclose(fit.wald, fit.z**2, rtol=1e-15)
        assert_allclose(fit.exp_b, np.exp(fit.coef), rtol=1e-15)
        assert fit.final_neg_loglik == -fit.log_lik
        assert 0.0 <= fit.llr_p <= 1.0
        verify_fit_identities(fit)

    def test_std_err_matches_observed_information(self):
        design, _ = make_problem(17, n=500, p=3)
        fit = fit_logistic(design)
        p = sigmoid_ref(design.X @ fit.coef)
        w = p * (1 - p)
        info = design.X.T @ (design.X * w[:, None])
        cov = np.linalg.inv(info)
        assert_allclose(fit.std_err, np.sqrt(np.diag(cov)), rtol=1e-8)

    def test_inference_table_covers_features(self):
        design, _ = make_problem(23, n=300, p=4)
        fit = fit_logistic(design)
        rows = inference_table(fit)
        assert [r.feature for r in rows] == list(design.feature_names)
        for i, r in enumerate(rows, start=1):
            assert r.coef == fit.coef[i]
            assert r.wald == pytest.approx(r.z**2, rel=1e-15)

    def test_tampered_fit_fails_verification(self):
        design, _ = make_problem(29, n=200, p=3)
        fit = fit_logistic(design)
        bad = dataclasses.replace(fit, aic=fit.aic + 1.0)
        with pytest.raises(InvariantBreachError):
            verify_fit_identities(bad)


class TestDesignMatrix:
    def test_requires_intercept_column(self):
        with pytest.raises(DataError, match="intercept"):
            DesignMatrix(
                X=np.arange(20.0).reshape(10, 2),
                y=np.array([0.0, 1.0] * 5),
                feature_names=("a",),
            )

    def test_requires_more_rows_than_params(self):
        with pytest.raises(DegenerateInputError):
            DesignMatrix(
                X=np.column_stack([np.ones(3), np.eye(3)]),
                y=np.array([0.0, 1.0, 0.0]),
                feature_names=("a", "b", "c"),
            )

    def test_from_features_subset_and_rows(self):
        values = np.arange(24.0).reshape(6, 4)
        fm = FeatureMatrix(
            column_names=("a", "b", "c", "d"),
            values=values,
            target=np.array([0, 1, 0, 1, 0, 1]),
            row_ids=tuple("rstuvw"),
        )
        d = DesignMatrix.from_features(fm, ("c", "a"), rows=[1, 3, 4, 5])
        assert d.feature_names == ("c", "a")
        assert d.X.shape == (4, 3)
        assert d.X[0].tolist() == [1.0, values[1, 2], values[1, 0]]
        assert d.y.tolist() == [1.0, 1.0, 0.0, 1.0]

    def test_intercept_only_design(self):
        fm = FeatureMatrix(
            column_names=("a",),
            values=np.arange(6.0)[:, None],
            target=np.array([0, 1, 0, 1, 0, 1]),
            row_ids=tuple("abcdef"),
        )
        d = DesignMatrix.from_features(fm, ())
        assert d.feature_names == ()
        assert d.X.shape == (6, 1)
