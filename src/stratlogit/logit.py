"""Binary logistic regression fitted by maximum likelihood.

A from-scratch Newton (iteratively reweighted least squares) solver with
step halving, plus the downstream inference quantities reported per
coefficient: standard errors from the observed Fisher information, Wald
z statistics and their two-sided normal p-values, odds ratios Exp(B),
and the model-level log-likelihood family (null model, pseudo R squared,
likelihood ratio test, AIC, BIC).

The log-likelihood is evaluated in logit space,

    ll(beta) = sum_i [ y_i eta_i - log(1 + exp(eta_i)) ],

via logaddexp so extreme linear predictors cannot overflow, and the
solver enforces that it never decreases from one accepted step to the
next.  Coefficients running away (max |beta_j| beyond ``COEF_BOUND``)
are reported as separation rather than returned as garbage.

Fits run as stacks of designs (``fit_logistic_batch``; ``fit_logistic``
is a stack of one): the Newton steps, then the covariance and the
inference of every design that stopped, one stacked call per step.
numpy makes the same BLAS or LAPACK call for each slice of a stack as
for a single 2-D array, and the remaining arithmetic is elementwise
ufuncs, so a design's fit has the bits it has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DegenerateInputError,
    InvariantBreachError,
    NotConvergedError,
    SeparationError,
    SingularMatrixError,
    StratLogitError,
)
from .stats_core import chisq_sf, cholesky_solve, solve_spd, two_sided_p

# Separation bound: a fit whose max |beta_j| passes it has diverged.
COEF_BOUND = 50.0


@dataclass(frozen=True)
class DesignMatrix:
    """Design with explicit intercept column and 0/1 response."""

    X: np.ndarray
    y: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        X, y = self.X, self.y
        if X.ndim != 2:
            raise DataError("design matrix must be 2-D")
        n, k = X.shape
        if y.shape != (n,):
            raise DataError("response length does not match design rows")
        if k != len(self.feature_names) + 1:
            raise DataError("feature_names must cover all non-intercept columns")
        check_design(
            n,
            k,
            finite=np.all(np.isfinite(X)),
            binary=np.all((y == 0) | (y == 1)),
            intercept=np.all(X[:, 0] == 1.0),
        )

    @property
    def n_obs(self) -> int:
        return self.X.shape[0]

    @property
    def k_params(self) -> int:
        return self.X.shape[1]

    @classmethod
    def from_features(cls, m, features=None, rows=None) -> "DesignMatrix":
        """Assemble a design from FeatureMatrix columns, intercept first.

        ``features`` defaults to every column; an empty sequence gives
        the intercept-only design.  ``rows`` optionally restricts to a
        subset of row indices (e.g. a training split).
        """
        names = tuple(m.column_names if features is None else features)
        cols = [m.column(name) for name in names]
        values = np.column_stack(cols) if cols else np.empty((m.n_rows, 0))
        y = np.asarray(m.target, dtype=float)
        if rows is not None:
            idx = np.asarray(rows, dtype=int)
            values = values[idx]
            y = y[idx]
        X = np.column_stack([np.ones(len(y)), values])
        return cls(X=X, y=y, feature_names=names)


def check_design(n, k, finite, binary, intercept=True) -> None:
    """The value checks of an n-by-k ``DesignMatrix``, in its order, for
    callers that check the columns once and many designs drawn from them:
    ``finite`` (every value), ``binary`` (the response is 0/1) and
    ``intercept`` (the first column is all ones) are already evaluated."""
    if n <= k:
        raise DegenerateInputError(f"need more observations ({n}) than parameters ({k})")
    if not intercept:
        raise DataError("first design column must be the intercept (all ones)")
    if not finite:
        raise DataError("design matrix contains non-finite values")
    if not binary:
        raise DataError("response must be 0/1")


@dataclass(frozen=True)
class CoefficientInference:
    z: np.ndarray
    p_two_sided: np.ndarray
    exp_b: np.ndarray
    wald: np.ndarray


@dataclass(frozen=True)
class InferenceRow:
    feature: str
    coef: float
    std_err: float
    z: float
    p_two_sided: float
    exp_b: float
    wald: float


@dataclass(frozen=True)
class LogitFit:
    """Fitted model with per-coefficient and model-level statistics.

    ``coef`` and friends are aligned as [intercept, *feature_names].
    ``loglik_path`` holds the accepted log-likelihood after every
    Newton step, for convergence diagnostics.
    """

    feature_names: tuple
    coef: np.ndarray
    std_err: np.ndarray
    z: np.ndarray
    p_two_sided: np.ndarray
    exp_b: np.ndarray
    wald: np.ndarray
    log_lik: float
    log_lik_null: float
    pseudo_r2: float
    llr_stat: float
    llr_p: float
    aic: float
    bic: float
    n_obs: int
    iterations: int
    converged: bool
    final_neg_loglik: float
    loglik_path: tuple

    @property
    def k_params(self) -> int:
        return len(self.coef)


def sigmoid(eta) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-eta) for eta >= 0,
    e^eta / (1 + e^eta) below, from one exp(-|eta|) that cannot overflow."""
    eta = np.asarray(eta, dtype=float)
    ex = np.exp(-np.abs(eta))
    out = np.where(eta >= 0, 1.0, ex)
    out /= 1.0 + ex  # in place, so a 0-d input gives a 0-d array
    return out


def log_likelihood(beta, X, y) -> float:
    return float(_log_likelihood_eta(X @ beta, y))


def _log_likelihood_eta(eta, y):
    """The one ll expression, shared by the solver and ``log_likelihood``;
    a stack of linear predictors (one per row) gives one ll per row."""
    return np.sum(y * eta - np.logaddexp(0.0, eta), axis=-1)


def null_log_likelihood(y) -> float:
    """Closed form intercept-only log-likelihood n[p ln p + q ln q]."""
    y = np.asarray(y, dtype=float)
    n = y.size
    p_bar = float(np.mean(y))
    if p_bar <= 0.0 or p_bar >= 1.0:
        raise DegenerateInputError("null_log_likelihood: response has a single class")
    return n * (p_bar * math.log(p_bar) + (1 - p_bar) * math.log(1 - p_bar))


def information_criteria(log_lik: float, k: int, n: int) -> tuple:
    """(AIC, BIC) = (2k - 2ll, k ln n - 2ll); k counts the intercept."""
    if k < 1 or n < 1:
        raise DegenerateInputError(f"information_criteria: bad k={k} or n={n}")
    if not math.isfinite(log_lik):
        raise DataError("information_criteria: non-finite log-likelihood")
    return 2.0 * k - 2.0 * log_lik, k * math.log(n) - 2.0 * log_lik


def pseudo_r2(log_lik: float, log_lik_null: float) -> float:
    """McFadden pseudo R squared, 1 - ll / ll_null."""
    if log_lik_null >= 0.0:
        raise DegenerateInputError("pseudo_r2: null log-likelihood must be negative")
    if log_lik < log_lik_null - 1e-9:
        raise DegenerateInputError("pseudo_r2: model log-likelihood below null")
    if log_lik > 0.0:
        raise DataError("pseudo_r2: positive log-likelihood")
    return 1.0 - log_lik / log_lik_null


def _llr_stat(log_lik: float, log_lik_null: float) -> float:
    """The likelihood ratio statistic 2 (ll - ll_null), floored at 0."""
    stat = 2.0 * (log_lik - log_lik_null)
    if stat < -1e-9:
        raise DegenerateInputError(
            f"likelihood ratio: fitted log-likelihood below null (stat={stat})"
        )
    return max(stat, 0.0)


def coefficient_inference(coef, std_err) -> CoefficientInference:
    """z, two-sided p, Exp(B) and Wald chi-squared for each coefficient.

    Identities: z = coef/se, Exp(B) = exp(coef), Wald = z^2, and the
    p-value is the two-sided normal tail of z.  ``coef`` and ``std_err``
    are one model's vectors or a stack of them, one model per row; every
    formula is elementwise, so a row of a stack gets the bits it gets
    alone.
    """
    coef = np.asarray(coef, dtype=float)
    se = np.asarray(std_err, dtype=float)
    if coef.shape != se.shape or coef.ndim not in (1, 2):
        raise DataError("coefficient_inference: coef/std_err shape mismatch")
    if not np.all(np.isfinite(coef)) or not np.all(np.isfinite(se)):
        raise DataError("coefficient_inference: non-finite input")
    if np.any(se <= 0):
        raise DataError("coefficient_inference: standard errors must be > 0")
    z = coef / se
    return CoefficientInference(
        z=z,
        p_two_sided=np.array([two_sided_p(v) for v in z.ravel().tolist()]).reshape(z.shape),
        exp_b=np.exp(coef),
        wald=z * z,
    )


def fit_logistic(d: DesignMatrix, max_iter: int = 1000, tol: float = 1e-8) -> LogitFit:
    """Maximum likelihood fit by damped Newton iterations.

    Convergence is declared when the max-norm of the score drops to
    ``tol`` or the relative log-likelihood improvement falls below
    1e-12; hitting ``max_iter`` first returns converged=False (callers
    that need inference must check).  A singular information matrix is
    reported as separation when the coefficients are already large,
    otherwise as collinearity.  This is ``fit_logistic_batch`` on a
    batch of one.
    """
    (out,) = fit_logistic_batch(d.X[None], d.y, [d.feature_names], max_iter, tol)
    if isinstance(out, StratLogitError):
        raise out
    return out


def fit_logistic_batch(X, y, feature_names, max_iter: int = 1000, tol: float = 1e-8) -> list:
    """Fit a stack of designs ``X`` (B, n, k) that share the response ``y``.

    Each ``X[b]`` with ``feature_names[b]`` must pass the ``DesignMatrix``
    checks.  Returns, per design, its ``LogitFit`` or the
    ``StratLogitError`` that ``fit_logistic`` raises for it alone.

    The designs still iterating take each Newton step in lockstep: one
    stacked ``matmul`` each for the score, the information matrix and
    every line-search trial, and one stacked Cholesky factorisation.
    numpy makes the same BLAS call for each slice of a stacked ``matmul``
    as for a single 2-D design, and LAPACK factors and solves each slice
    alone, so every fit is bit-identical to fitting its design alone.  A
    design leaves the stack when it converges, reaches ``max_iter`` or
    fails, and step halving re-evaluates only the designs whose trial
    step was refused.  The designs that stopped are finished together,
    as one stack (``_finish_fits``).
    """
    X = np.ascontiguousarray(X, dtype=float)
    n_fits, _, k = X.shape
    try:
        if max_iter < 1:
            raise DegenerateInputError(f"fit_logistic: max_iter must be >= 1, got {max_iter}")
        if not (tol > 0):
            raise DegenerateInputError(f"fit_logistic: tol must be > 0, got {tol}")
        if np.all(y == y[0]):
            raise DegenerateInputError("fit_logistic: response has a single class")
    except StratLogitError as exc:
        return [exc] * n_fits
    ll_null = null_log_likelihood(y)
    outcomes = [None] * n_fits
    constant = np.ptp(X[:, :, 1:], axis=1) == 0.0
    # Exactly collinear columns leave the likelihood flat along a ridge;
    # round-off can let the Newton solve through, so rank-check up front.
    full_rank = np.linalg.matrix_rank(X) == k
    for b in range(n_fits):
        if constant[b].any():
            name = feature_names[b][int(np.argmax(constant[b]))]
            outcomes[b] = SingularMatrixError(f"fit_logistic: column {name!r} is constant")
        elif not full_rank[b]:
            outcomes[b] = SingularMatrixError(
                "fit_logistic: design matrix is rank deficient (collinear columns)"
            )

    # The designs still iterating: batch index, design, beta, eta = X @ beta
    # (carried from the accepted line-search candidate) and log-likelihood.
    live = np.array([b for b in range(n_fits) if outcomes[b] is None], dtype=int)
    Xs = X if live.size == n_fits else X[live]
    beta = np.zeros((live.size, k))
    eta = stacked_matvec(Xs, beta)
    ll = _log_likelihood_eta(eta, y)
    paths = {b: [v] for b, v in zip(live.tolist(), ll.tolist())}

    # Designs that stopped iterating: (batch index, beta, eta, ll, path,
    # iterations, converged), finished as one stack after the loop.
    stopped = []

    def settle(rows, iterations, converged):
        for i in np.flatnonzero(rows):
            b = live[i]
            stopped.append(
                (b, beta[i], eta[i], float(ll[i]), tuple(paths[b]), iterations, converged)
            )

    for it in range(max_iter):
        p = sigmoid(eta)
        grad = stacked_matvec(Xs.transpose(0, 2, 1), y - p)
        done = np.max(np.abs(grad), axis=1) <= tol
        if done.any():
            settle(done, it, True)
            keep = ~done
            live, Xs, beta, eta, ll, p, grad = (
                a[keep] for a in (live, Xs, beta, eta, ll, p, grad)
            )
        if not live.size:
            break
        w = p * (1.0 - p)
        hessian = np.matmul(Xs.transpose(0, 2, 1), Xs * w[:, :, None])
        step, errors = _newton_steps(hessian, grad, beta)
        failed = np.array([e is not None for e in errors], dtype=bool)
        if failed.any():
            for i in np.flatnonzero(failed):
                outcomes[live[i]] = errors[i]
            keep = ~failed
            live, Xs, beta, eta, ll, step = (a[keep] for a in (live, Xs, beta, eta, ll, step))

        # Step halving: each design halves its own step until the
        # log-likelihood does not decrease, at most 60 times.
        lam = np.ones(live.size)
        accepted = np.zeros(live.size, dtype=bool)
        cand, eta_cand, ll_cand = np.empty_like(beta), np.empty_like(eta), np.empty_like(ll)
        pending = np.arange(live.size)
        for _ in range(60):
            trial = beta[pending] + lam[pending, None] * step[pending]
            eta_trial = stacked_matvec(Xs if pending.size == live.size else Xs[pending], trial)
            ll_trial = _log_likelihood_eta(eta_trial, y)
            up = ll_trial >= ll[pending]
            hit = pending[up]
            cand[hit], eta_cand[hit], ll_cand[hit] = trial[up], eta_trial[up], ll_trial[up]
            accepted[hit] = True
            pending = pending[~up]
            if not pending.size:
                break
            lam[pending] /= 2.0
        if not accepted.all():
            # No ascent representable along the Newton direction: the
            # likelihood is stationary to machine precision.
            settle(~accepted, it, True)
            live, Xs, ll, cand, eta_cand, ll_cand = (
                a[accepted] for a in (live, Xs, ll, cand, eta_cand, ll_cand)
            )
        beta, eta = cand, eta_cand
        for b, v in zip(live.tolist(), ll_cand.tolist()):
            paths[b].append(v)
        big = np.max(np.abs(beta), axis=1)
        diverged = big > COEF_BOUND
        if diverged.any():
            for i in np.flatnonzero(diverged):
                outcomes[live[i]] = SeparationError(
                    "fit_logistic: coefficients diverged beyond "
                    f"{COEF_BOUND} (max |beta| = {big[i]:.3g}); "
                    "classes look separable"
                )
            keep = ~diverged
            live, Xs, beta, eta, ll, ll_cand = (
                a[keep] for a in (live, Xs, beta, eta, ll, ll_cand)
            )
        flat = np.abs(ll_cand - ll) <= 1e-12 * (1.0 + np.abs(ll_cand))
        ll = ll_cand
        if flat.any():
            settle(flat, it + 1, True)
            keep = ~flat
            live, Xs, beta, eta, ll = (a[keep] for a in (live, Xs, beta, eta, ll))
    settle(np.ones(live.size, dtype=bool), max_iter, False)
    _finish_fits(X, y, feature_names, stopped, ll_null, outcomes)
    return outcomes


def stacked_matvec(X, v) -> np.ndarray:
    """``X[i] @ v[i]`` for every i: one BLAS gemv per slice, the call a
    2-D ``X`` with a 1-D ``v`` gets."""
    return np.matmul(X, v[:, :, None])[:, :, 0]


def _singular_error(beta, exc) -> StratLogitError:
    """A singular information matrix at ``beta``, reported as separation
    when the coefficients are already large, otherwise as collinearity."""
    if np.max(np.abs(beta)) > COEF_BOUND / 2.0:
        err = SeparationError(
            "fit_logistic: information matrix singular with large coefficients "
            f"(max |beta| = {np.max(np.abs(beta)):.3g}); classes look separable"
        )
    else:
        err = SingularMatrixError(f"fit_logistic: {exc}")
    err.__cause__ = exc
    return err


def _newton_steps(hessian, grad, beta) -> tuple:
    """(steps, errors): each design's ``hessian[i]^-1 grad[i]`` as
    ``solve_spd`` solves it (a Newton step, or with identity right-hand
    sides a covariance), or in ``errors[i]`` the error the fit then fails
    with."""
    steps = np.empty_like(grad)
    errors = [None] * len(grad)
    chol = None
    if np.all(np.isfinite(hessian)) and np.all(np.isfinite(grad)):
        try:
            chol = np.linalg.cholesky(hessian)
        except np.linalg.LinAlgError:
            pass  # a factor failed: solve_spd one by one finds which
    for i in range(len(grad)):
        try:
            if chol is None:
                steps[i] = solve_spd(hessian[i], grad[i])
            else:
                steps[i] = cholesky_solve(chol[i], grad[i])
        except SingularMatrixError as exc:
            errors[i] = _singular_error(beta[i], exc)
        except StratLogitError as exc:
            errors[i] = exc
    return steps, errors


def _finish_fits(X, y, feature_names, stopped, ll_null, outcomes) -> None:
    """Covariance and inference for the designs in ``stopped``, whose
    iterations stopped at (batch index, beta, eta = X @ beta, ll, path,
    iterations, converged), as one stack; each outcome goes into
    ``outcomes``.

    One stacked ``matmul`` gives the information matrices, one stacked
    Cholesky and each design's ``dtrtrs`` pair (``_newton_steps`` with an
    identity right-hand side) the covariances, and elementwise ufuncs the
    inference, so every number is the one a design finished alone gets.
    Each design's errors are checked in the order a lone fit checks them:
    the solve, a non-positive variance, the likelihood ratio statistic,
    ``information_criteria``, ``coefficient_inference``, ``pseudo_r2``.
    """
    if not stopped:
        return
    stopped.sort(key=lambda s: s[0])
    index, beta, eta, ll, paths, iterations, converged = zip(*stopped)
    Xf = X if len(index) == len(X) else X[list(index)]
    n, k = X.shape[1:]
    beta = np.array(beta)
    p = sigmoid(np.array(eta))
    w = p * (1.0 - p)
    hessian = np.matmul(Xf.transpose(0, 2, 1), Xf * w[:, :, None])
    identity = np.broadcast_to(np.eye(k), hessian.shape)
    cov, errors = _newton_steps(hessian, identity, beta)
    var = np.diagonal(cov, axis1=1, axis2=2)
    live = np.array([i for i, e in enumerate(errors) if e is None], dtype=int)
    nonpositive = np.any(var[live] <= 0, axis=1)
    for i in live[nonpositive]:
        errors[i] = SingularMatrixError("fit_logistic: non-positive coefficient variance")
    live = live[~nonpositive]
    # Rows that failed keep placeholder values, never computed on.
    std_err = np.ones_like(beta)
    std_err[live] = np.sqrt(var[live])

    llr_stat, llr_p = np.zeros(len(index)), np.ones(len(index))
    if k > 1:
        for i in live.tolist():
            try:
                llr_stat[i] = _llr_stat(ll[i], ll_null)
            except StratLogitError as exc:
                errors[i] = exc
        live, p_live = stacked_call(lambda x: chisq_sf(x, k - 1), live, errors, llr_stat)
        llr_p[live] = p_live
    criteria = {}
    for i in live.tolist():
        try:
            criteria[i] = information_criteria(ll[i], k, n)
        except StratLogitError as exc:
            errors[i] = exc
    live, inf = stacked_call(coefficient_inference, live, errors, beta, std_err)
    llr_stat, llr_p = llr_stat.tolist(), llr_p.tolist()
    row_of = {i: j for j, i in enumerate(live.tolist())}  # design -> its row of inf
    for i, b in enumerate(index):
        outcomes[b] = errors[i]
        if i not in row_of:
            continue
        j = row_of[i]
        try:
            outcomes[b] = LogitFit(
                feature_names=feature_names[b],
                coef=beta[i],
                std_err=std_err[i],
                z=inf.z[j],
                p_two_sided=inf.p_two_sided[j],
                exp_b=inf.exp_b[j],
                wald=inf.wald[j],
                log_lik=ll[i],
                log_lik_null=ll_null,
                pseudo_r2=pseudo_r2(ll[i], ll_null),
                llr_stat=llr_stat[i],
                llr_p=llr_p[i],
                aic=criteria[i][0],
                bic=criteria[i][1],
                n_obs=n,
                iterations=iterations[i],
                converged=converged[i],
                final_neg_loglik=-ll[i],
                loglik_path=paths[i],
            )
        except StratLogitError as exc:
            outcomes[b] = exc


def stacked_call(fn, rows, errors, *stacks) -> tuple:
    """(live, ``fn`` of the rows ``live`` of ``stacks`` as one call), where
    ``live`` are the ``rows`` whose ``errors`` entry is still None.  When
    that call raises, ``fn`` runs on each live row alone: a row that
    raises gets its own error in ``errors`` and leaves ``live``, and the
    rest run as one call again."""
    live = np.array([i for i in rows if errors[i] is None], dtype=int)
    try:
        return live, fn(*(s[live] for s in stacks))
    except StratLogitError:
        pass
    for i in live:
        try:
            fn(*(s[i] for s in stacks))
        except StratLogitError as exc:
            errors[i] = exc
    live = np.array([i for i in live if errors[i] is None], dtype=int)
    return live, fn(*(s[live] for s in stacks))


def inference_table(fit: LogitFit) -> tuple:
    """Per-feature inference rows (intercept omitted, as reported).

    Refuses an unconverged fit: its standard errors do not describe a
    maximum.
    """
    if not fit.converged:
        raise NotConvergedError(
            f"inference_table: fit did not converge in {fit.iterations} iterations "
            f"(final negative log-likelihood {fit.final_neg_loglik:.6f})"
        )
    rows = []
    for i, name in enumerate(fit.feature_names, start=1):
        rows.append(
            InferenceRow(
                feature=name,
                coef=float(fit.coef[i]),
                std_err=float(fit.std_err[i]),
                z=float(fit.z[i]),
                p_two_sided=float(fit.p_two_sided[i]),
                exp_b=float(fit.exp_b[i]),
                wald=float(fit.wald[i]),
            )
        )
    return tuple(rows)


def verify_fit_identities(fit: LogitFit) -> None:
    """Re-check the cross-quantity identities on a finished fit.

    Raises InvariantBreachError on any failure; used before reports are
    written so a bad build cannot emit internally inconsistent numbers.
    """
    k, n = fit.k_params, fit.n_obs
    checks = [
        ("aic", fit.aic, 2.0 * k - 2.0 * fit.log_lik, 1e-9),
        ("bic", fit.bic, k * math.log(n) - 2.0 * fit.log_lik, 1e-9),
        ("pseudo_r2", fit.pseudo_r2, 1.0 - fit.log_lik / fit.log_lik_null, 1e-12),
        ("final_neg_loglik", fit.final_neg_loglik, -fit.log_lik, 0.0),
    ]
    for name, got, want, rel in checks:
        if abs(got - want) > rel * max(1.0, abs(want)):
            raise InvariantBreachError(f"{name}: stored {got} != recomputed {want}")
    for i in range(k):
        z = fit.coef[i] / fit.std_err[i]
        if abs(fit.z[i] - z) > 1e-12 * max(1.0, abs(z)):
            raise InvariantBreachError(f"z[{i}] inconsistent with coef/std_err")
        if abs(fit.wald[i] - fit.z[i] ** 2) > 1e-9 * max(1.0, fit.z[i] ** 2):
            raise InvariantBreachError(f"wald[{i}] inconsistent with z^2")
        if abs(fit.exp_b[i] - math.exp(fit.coef[i])) > 1e-12 * max(
            1.0, math.exp(fit.coef[i])
        ):
            raise InvariantBreachError(f"exp_b[{i}] inconsistent with exp(coef)")
        if abs(fit.p_two_sided[i] - two_sided_p(fit.z[i])) > 1e-12:
            raise InvariantBreachError(f"p_two_sided[{i}] inconsistent with z")
    if not np.all(np.diff(np.array(fit.loglik_path)) >= 0):
        raise InvariantBreachError("log-likelihood decreased during fitting")
