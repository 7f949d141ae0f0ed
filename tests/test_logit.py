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

from conftest import (
    finish_fit_ref,
    fit_from,
    gradient_ref,
    log_likelihood_ref,
    make_problem,
    sigmoid_ref,
)
from stratlogit import emit, logit
from stratlogit.errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
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
    information_criteria,
    null_log_likelihood,
    pseudo_r2,
    sigmoid,
    stacked_matvec,
)
from stratlogit.stats_core import chisq_sf


def scipy_mle(design):
    """Independent maximum-likelihood route for cross-checking."""

    def neg_ll(beta):
        return -log_likelihood_ref(beta, design.X, design.y)

    def neg_grad(beta):
        return -gradient_ref(beta, design.X, design.y)

    res = optimize.minimize(
        neg_ll,
        np.zeros(design.X.shape[1]),
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
            assert fit.log_lik == log_likelihood_ref(fit.coef, design.X, design.y)
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

    def test_iteration_cap_returns_unconverged(self, tmp_path):
        design, _ = make_problem(11, n=300, p=4)
        fit = fit_logistic(design, max_iter=1)
        assert not fit.converged
        assert fit.iterations == 1
        with pytest.raises(NotConvergedError, match="fit_payload"):
            emit.fit_payload(fit, "fit")
        with pytest.raises(NotConvergedError, match="write_inference_csv"):
            emit.write_inference_csv(fit, tmp_path / "inference.csv")
        assert not (tmp_path / "inference.csv").exists()

    def test_parameter_validation(self):
        # A bad solver parameter is a configuration error, not a data error.
        design, _ = make_problem(1, n=50, p=2)
        for max_iter in (0, 2.5, True, "10"):
            with pytest.raises(ConfigError, match="max_iter"):
                fit_logistic(design, max_iter=max_iter)
        for tol in (0.0, math.inf, math.nan, "1e-8", None):
            with pytest.raises(ConfigError, match="tol"):
                fit_logistic(design, tol=tol)
        assert fit_logistic(design, max_iter=np.int64(50), tol=np.float32(1e-6)).converged


class TestStepSolveFailures:
    """A Newton step whose solve fails mid-iteration: the design leaves
    the stack with the error a lone fit gets, and the rest go on."""

    x = np.linspace(-1.0, 1.0, 20)
    y = np.where(x > 0, 1.0, 0.0)
    y[-1] = 0.0
    z = np.random.default_rng(0).normal(size=20)

    def test_saturated_start_is_separation_and_neighbour_unchanged(self):
        # From slope 2e4 every weight is exactly 0 while the score is
        # not: a singular step read as separation, as the slope is large.
        X = np.stack(
            [np.column_stack([np.ones(20), self.x]), np.column_stack([np.ones(20), self.z])]
        )
        start = np.array([[0.0, 20000.0], [0.0, 0.0]])
        sep, fit = fit_logistic_batch(X, self.y, [("x",), ("z",)], start=start)
        assert isinstance(sep, SeparationError)
        assert str(sep) == (
            "fit_logistic: information matrix singular with large coefficients "
            "(max |beta| = 2e+04); classes look separable"
        )
        lone = fit_logistic(DesignMatrix(X=X[1].copy(), y=self.y, feature_names=("z",)))
        assert bits(fit) == bits(lone)
        assert fit.coef.tolist() == [-0.4864501346033667, -1.4090020807104409]
        assert fit.iterations == 5

    def test_collinear_step_on_trusted_columns_is_singular(self):
        # columns_ok skips the rank check, so the step's solve finds it.
        X = np.column_stack([np.ones(20), self.z, 2.0 * self.z])
        (out,) = fit_logistic_batch(X[None], self.y, [("z", "z2")], columns_ok=True)
        assert isinstance(out, SingularMatrixError)
        assert str(out) == "fit_logistic: solve_spd: not positive definite (Singular matrix)"

    def test_overflowing_information_is_data_error(self):
        X = np.column_stack([np.ones(20), 1e200 * self.z])
        with np.errstate(over="ignore"):
            (out,) = fit_logistic_batch(X[None], self.y, [("z",)], columns_ok=True)
            (checked,) = fit_logistic_batch(X[None], self.y, [("z",)])
        assert isinstance(out, DataError)
        assert str(out) == "solve_spd: non-finite input"
        # Without columns_ok the rank check answers first.
        assert isinstance(checked, SingularMatrixError)
        assert "rank deficient" in str(checked)


# The statistics a LogitFit derives from its fields when read.
DERIVED = ("k_params", "z", "p_two_sided", "exp_b", "wald", "llr_stat", "pseudo_r2", "aic", "bic")


def bits(outcome):
    """A fit outcome to compare to the bit: every LogitFit field and
    derived statistic, arrays as bytes and the rest by repr, or an
    error's class and text."""
    if isinstance(outcome, StratLogitError):
        return type(outcome), str(outcome)
    names = [f.name for f in dataclasses.fields(outcome)] + list(DERIVED)
    return {
        name: v.tobytes() if isinstance(v, np.ndarray) else repr(v)
        for name in names
        for v in [getattr(outcome, name)]
    }


def single_fit(design, start=None, **kwargs):
    try:
        if start is None:
            return fit_logistic(design, **kwargs)
        return fit_from(design, start=start, **kwargs)
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
            ll = logit._log_likelihood_eta(eta, r)
            chol = np.linalg.cholesky(info)
            step = np.linalg.solve(info, score[:, :, None])  # gesv, one column
            cov = np.linalg.solve(info, np.broadcast_to(np.eye(k), info.shape))
            rank = np.linalg.matrix_rank(X)
            for b in range(4):
                Xb = X[b].copy()
                assert np.array_equal(eta[b], Xb @ v[b]), (k, b)
                assert np.array_equal(score[b], Xb.T @ r[b]), (k, b)
                info_b = Xb.T @ (Xb * w[b][:, None])
                assert np.array_equal(info[b], info_b), (k, b)
                eta_b = eta[b].copy()
                assert ll[b] == np.sum(
                    r[b] * eta_b - np.maximum(eta_b, 0.0) - np.log1p(np.exp(-np.abs(eta_b)))
                ), (k, b)
                assert np.array_equal(chol[b], np.linalg.cholesky(info_b)), (k, b)
                assert np.array_equal(step[b], np.linalg.solve(info_b, score[b][:, None])), (k, b)
                assert np.array_equal(cov[b], np.linalg.solve(info_b, np.eye(k))), (k, b)
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
        # Elementwise calls on a stack: the finish's likelihood-ratio
        # p-values.
        rng = np.random.Generator(np.random.PCG64(5))
        for df in range(1, 16):
            x = np.concatenate([[0.0, 1e-300, 1e3], rng.uniform(0.0, 300.0, 40)])
            got = chisq_sf(x, df)
            want = [chisq_sf(v, df) for v in x.tolist()]
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
            assert isinstance(got[4], NotConvergedError) and 4 in stops, got[4]

    def test_batch_wide_failures(self):
        design, _ = make_problem(3, n=60, p=2)
        stack = np.stack([design.X, design.X[::-1].copy()])
        names = [design.feature_names] * 2
        got = fit_logistic_batch(stack, np.ones(60), names)
        assert [type(e) for e in got] == [DegenerateInputError] * 2
        with pytest.raises(DegenerateInputError, match=str(got[0])):
            fit_logistic(DesignMatrix(X=design.X, y=np.ones(60), feature_names=names[0]))
        # A bad solver parameter is raised for the whole call, by both.
        for kwargs in (dict(max_iter=0), dict(tol=0.0), dict(tol=math.inf)):
            with pytest.raises(ConfigError) as batch:
                fit_logistic_batch(stack, design.y, names, **kwargs)
            with pytest.raises(ConfigError) as lone:
                fit_logistic(design, **kwargs)
            assert str(batch.value) == str(lone.value)

    @pytest.mark.parametrize("seed", range(3))
    def test_mixed_starts_equal_single_fits(self, seed):
        # Each design fits from its own start: zeros, its cold optimum, a
        # perturbation of it, a random point, one past the separation
        # bound's half and its mirror; every member equals a lone fit
        # from the same start.
        rng = np.random.Generator(np.random.PCG64(40 + seed))
        design, _ = make_problem(seed, n=150 + seed, p=3)
        k = design.X.shape[1]
        scale = rng.uniform(0.5, 2.0, (7, 1, k - 1))
        scale[1:3] = 1.0  # the designs started at and near the optimum
        stack = np.stack([design.X] * 7)
        stack[:, :, 1:] *= scale
        stack[6, :, -1] = 2.0 * stack[6, :, 1]  # collinear: fails before any start is used
        optimum = fit_logistic(design).coef
        starts = np.array(
            [
                np.zeros(k),
                optimum,
                optimum + rng.normal(0.0, 0.1, k),
                rng.normal(0.0, 1.0, k),
                np.full(k, 30.0),
                np.full(k, -30.0),
                optimum,
            ]
        )
        names = [design.feature_names] * 7
        got = fit_logistic_batch(stack, design.y, names, max_iter=7, start=starts)
        for b in range(7):
            lone = DesignMatrix(X=stack[b].copy(), y=design.y, feature_names=names[b])
            assert bits(got[b]) == bits(single_fit(lone, max_iter=7, start=starts[b].copy())), b
        assert isinstance(got[6], SingularMatrixError)
        # From its own optimum a fit stops at once.
        assert got[1].converged and got[1].iterations <= 1 < got[0].iterations
        zero = DesignMatrix(X=stack[0].copy(), y=design.y, feature_names=names[0])
        assert bits(got[0]) == bits(single_fit(zero, max_iter=7))  # the default start


class TestStackedCall:
    @staticmethod
    def row_sums(calls):
        def fn(stack):
            calls.append(stack)
            if (stack < 0).any():
                raise DataError("negative entry")
            return stack.sum(axis=-1)

        return fn

    def test_whole_stack_passed_as_it_is(self):
        stack, calls = np.arange(12.0).reshape(4, 3), []
        live, out = logit.stacked_call(self.row_sums(calls), range(4), [None] * 4, stack)
        assert live.tolist() == [0, 1, 2, 3] and out.tolist() == [3.0, 12.0, 21.0, 30.0]
        assert len(calls) == 1 and calls[0] is stack

    @pytest.mark.parametrize("rows, failed", [([0, 2, 3], ()), (range(4), (1,))])
    def test_part_of_the_stack_is_copied(self, rows, failed):
        stack, calls = np.arange(12.0).reshape(4, 3), []
        errors = [DataError("failed before") if i in failed else None for i in range(4)]
        live, out = logit.stacked_call(self.row_sums(calls), rows, errors, stack)
        assert live.tolist() == [0, 2, 3] and out.tolist() == [3.0, 21.0, 30.0]
        assert len(calls) == 1 and calls[0] is not stack

    def test_failing_row_gets_its_own_error(self):
        stack, calls, errors = np.arange(12.0).reshape(4, 3), [], [None] * 4
        stack[1, 0] = -1.0
        live, out = logit.stacked_call(self.row_sums(calls), range(4), errors, stack)
        assert live.tolist() == [0, 2, 3] and out.tolist() == [3.0, 21.0, 30.0]
        assert isinstance(errors[1], DataError) and errors.count(None) == 3


class TestFitGuarantees:
    """What every LogitFit that ``fit_logistic_batch`` returns holds, so
    that its derived statistics need no run-time check."""

    @settings(max_examples=80)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 6),
        st.integers(1, 6),
        st.integers(1, 8),
        st.floats(0.0, 40.0),
        st.booleans(),
    )
    def test_returned_fits_derive_every_statistic(self, seed, k, n_fits, max_iter, spread, sep):
        # Random stacks from random starts (some far enough out to
        # saturate), with few iterations, so that many fits stop
        # unconverged and some fail.
        rng = np.random.Generator(np.random.PCG64(seed))
        n = int(rng.integers(k + 2, 80))
        y = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(float)
        y[:2] = (0.0, 1.0)
        X = np.ones((n_fits, n, k))
        scale = rng.uniform(0.1, 20.0, (n_fits, 1, k - 1))
        X[:, :, 1:] = rng.normal(size=(n_fits, n, k - 1)) * scale
        if sep:
            X[0, :, 1] = (2.0 * y - 1.0) * rng.uniform(0.01, 1.0, n)
        start = rng.normal(0.0, 1.0, (n_fits, k)) * spread
        names = [tuple(f"x{j}" for j in range(1, k))] * n_fits
        for fit in fit_logistic_batch(X, y, names, max_iter=max_iter, start=start):
            if isinstance(fit, StratLogitError):
                continue
            assert np.all(np.isfinite(fit.coef))
            assert np.all(np.isfinite(fit.std_err)) and np.all(fit.std_err > 0)
            path = np.array(fit.loglik_path)
            assert np.all(np.diff(path) >= 0) and path[-1] == fit.log_lik
            for name in DERIVED:
                getattr(fit, name)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_variance_is_singular(self, bad, monkeypatch):
        # A covariance whose diagonal is not finite comes from a singular
        # information matrix: a numerical failure, not a data error.
        design, _ = make_problem(31, n=120, p=2)
        solve = logit.solve_spd

        def spoiled(a, b):
            x = solve(a, b)
            if b.shape[-1] > 1:  # identity right-hand sides: the covariances
                x = x.copy()
                x[:, 1, 1] = bad
            return x

        monkeypatch.setattr(logit, "solve_spd", spoiled)
        with pytest.raises(SingularMatrixError) as info:
            fit_logistic(design)
        assert str(info.value) == "fit_logistic: non-positive or non-finite coefficient variance"
        assert info.value.exit_code == 4


def column_checks_pass(X) -> bool:
    """Whether design ``X`` passes ``fit_logistic_batch``'s per-design
    column checks: no constant column past the intercept, full rank."""
    return bool(np.all(np.ptp(X[:, 1:], axis=0) > 0.0)) and (
        np.linalg.matrix_rank(X) == X.shape[1]
    )


class TestColumnsWellPosed:
    """``columns_well_posed`` may skip the column checks of every design
    drawn from a shared design only if each of them would pass."""

    @settings(max_examples=150)
    @given(
        st.integers(4, 40),
        st.integers(1, 5),
        st.integers(0, 16),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_well_posed_means_every_subset_passes(self, n, p, digits, constant, seed):
        # A column 10^-digits from a copy of the first feature, which
        # nears matrix_rank's tolerance as digits grows.
        rng = np.random.Generator(np.random.PCG64(seed))
        features = rng.normal(size=(n, p)) * rng.uniform(0.01, 100.0, p)
        near = features[:, 0] + 10.0**-digits * rng.normal(size=n)
        X = np.column_stack([np.ones(n), features, near])
        if constant:
            X[:, 1 + rng.integers(p + 1)] = 3.0
        if not logit.columns_well_posed(X):
            return
        K = X.shape[1]
        for mask in range(1, 2 ** (K - 1)):
            cols = [0] + [j + 1 for j in range(K - 1) if mask >> j & 1]
            assert column_checks_pass(X[:, cols]), cols

    def test_margin_over_matrix_rank(self):
        rng = np.random.Generator(np.random.PCG64(3))
        x = rng.normal(size=(105, 2))
        for digits, well_posed in ((9, True), (13, False)):
            X = np.column_stack([np.ones(105), x, x[:, 0] + 10.0**-digits * rng.normal(size=105)])
            assert column_checks_pass(X), digits  # matrix_rank alone passes both
            assert logit.columns_well_posed(X) is well_posed, digits
        assert not logit.columns_well_posed(np.column_stack([np.ones(105), x, np.full(105, 2.0)]))
        assert not logit.columns_well_posed(rng.normal(size=(3, 4)))  # fewer rows than columns


class TestGradient:
    def test_matches_central_differences(self):
        h = 1e-5
        for seed in range(20):
            design, _ = make_problem(seed + 100, n=60, p=3)
            rng = np.random.Generator(np.random.PCG64(seed))
            beta = rng.uniform(-0.5, 0.5, design.X.shape[1])
            grad = gradient_ref(beta, design.X, design.y)
            for j in range(design.X.shape[1]):
                e = np.zeros(design.X.shape[1])
                e[j] = h
                fd = (
                    log_likelihood_ref(beta + e, design.X, design.y)
                    - log_likelihood_ref(beta - e, design.X, design.y)
                ) / (2 * h)
                assert_allclose(grad[j], fd, rtol=1e-5, atol=1e-7)


class TestLogLikelihood:
    def test_close_to_logaddexp_form(self):
        # The solver's y eta - max(eta, 0) - log1p(exp(-|eta|)) rounds apart
        # from y eta - logaddexp(0, eta); over 3000 seeded draws of this kind
        # the two sums agreed to 1.5 eps of their summed term magnitudes.
        rng = np.random.Generator(np.random.PCG64(1))
        eps = np.finfo(float).eps
        for _ in range(300):
            n = int(rng.integers(1, 500))
            eta = rng.normal(size=(3, n)) * 10 ** rng.uniform(-3.0, 2.5)
            y = (rng.random(n) < 0.4).astype(float)
            got = logit._log_likelihood_eta(eta, y)
            want = np.sum(y * eta - np.logaddexp(0.0, eta), axis=-1)
            scale = np.sum(np.abs(y * eta) + np.logaddexp(0.0, eta), axis=-1)
            assert np.all(np.abs(got - want) <= 4.0 * eps * scale)

    def test_extremes_do_not_overflow(self):
        eta = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
        for y in (np.zeros(5), np.ones(5)):
            got = logit._log_likelihood_eta(eta, y)
            assert_allclose(got, np.sum(y * eta - np.logaddexp(0.0, eta)), rtol=1e-15)


class TestSigmoid:
    def test_extremes_do_not_overflow(self):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0
        assert sigmoid(0.0) == 0.5

    def test_symmetry(self):
        for eta in np.linspace(-30, 30, 13):
            assert_allclose(sigmoid(eta) + sigmoid(-eta), 1.0, atol=1e-15)

    @settings(max_examples=300)
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
        with pytest.raises(NotConvergedError):  # below null: not at the maximum
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
        # A model with an intercept cannot peak below the intercept-only
        # model, so a fit that stopped there is not converged.
        with pytest.raises(NotConvergedError, match="smaller --tol"):
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
        assert 0.0 <= fit.llr_p <= 1.0
        with pytest.raises(TypeError):  # derived, so not a field to replace
            dataclasses.replace(fit, aic=0.0)

    def test_criteria_computed_once_per_fit(self, monkeypatch):
        design, _ = make_problem(21, n=350, p=4)
        fit = fit_logistic(design)
        calls = []
        monkeypatch.setattr(
            logit, "information_criteria", lambda *a: calls.append(a) or information_criteria(*a)
        )
        assert (fit.aic, fit.bic, fit.aic, fit.bic)[2:] == information_criteria(fit.log_lik, 5, 350)
        assert calls == [(fit.log_lik, 5, 350)]
        # A replaced fit derives its own pair, not its source's.
        lower = dataclasses.replace(fit, log_lik=fit.log_lik - 1.0)
        assert (lower.aic, lower.bic) == information_criteria(fit.log_lik - 1.0, 5, 350)
        assert len(calls) == 2

    def test_inference_computed_once_per_fit(self, monkeypatch):
        design, _ = make_problem(21, n=350, p=4)
        fit = fit_logistic(design)
        calls = []
        monkeypatch.setattr(
            logit, "coefficient_inference",
            lambda *a: calls.append(a) or coefficient_inference(*a),
        )
        emit.fit_payload(fit, "fit")  # reads z, p_two_sided, exp_b and wald
        want = coefficient_inference(fit.coef, fit.std_err)
        for name in ("z", "p_two_sided", "exp_b", "wald"):
            assert getattr(fit, name).tobytes() == getattr(want, name).tobytes()
        assert len(calls) == 1
        assert calls[0][0] is fit.coef and calls[0][1] is fit.std_err
        # A replaced fit derives its own columns, not its source's.
        flipped = dataclasses.replace(fit, coef=-fit.coef)
        assert flipped.z.tobytes() == (-fit.z).tobytes()
        assert len(calls) == 2

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
        rows = emit.fit_payload(fit, "fit")["inference"]
        assert [r["feature"] for r in rows] == list(design.feature_names)
        for i, r in enumerate(rows, start=1):
            assert r["coef"] == fit.coef[i]
            assert r["wald"] == pytest.approx(r["z"] ** 2, rel=1e-15)


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
