"""Binary logistic regression fitted by maximum likelihood.

A from-scratch Newton (iteratively reweighted least squares) solver with
step halving, plus the downstream inference quantities reported per
coefficient: standard errors from the observed Fisher information, Wald
z statistics and their two-sided normal p-values, odds ratios Exp(B),
and the model-level log-likelihood family (null model, pseudo R squared,
likelihood ratio test, AIC, BIC).

The log-likelihood is evaluated in logit space,

    ll(beta) = sum_i [ y_i eta_i - log(1 + exp(eta_i)) ]
             = sum_i [ y_i eta_i - max(eta_i, 0) - log1p(exp(-|eta_i|)) ],

in the second form so extreme linear predictors cannot overflow, and the
solver enforces that it never decreases from one accepted step to the
next.  Coefficients running away (max |beta_j| beyond ``COEF_BOUND``)
are reported as separation rather than returned as garbage.

Fits run as stacks of designs (``fit_logistic_batch``; ``fit_logistic``
is a stack of one): the Newton steps, then the covariance and the
likelihood ratio p-value of every design that stopped, one stacked call
per step (one stacked ``solve_spd`` gives every Newton step or
covariance).  numpy makes the same BLAS or LAPACK call for each slice of
a stack as for a single 2-D array, and the remaining arithmetic is
elementwise ufuncs, so a design's fit has the bits it has alone from the
same start (``fit_logistic`` starts at beta = 0; ``iterations`` and
``max_iter`` count from the start).  A ``LogitFit`` stores what the
solver found; every other statistic is derived from it when read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    NotConvergedError,
    SeparationError,
    SingularMatrixError,
    StratLogitError,
    require_number,
)
from .stats_core import chisq_sf, solve_spd, two_sided_p

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
class LogitFit:
    """What a fit found, and the statistics derived from it.

    Stored: ``coef`` and ``std_err``, aligned as [intercept,
    *feature_names]; the model and intercept-only log-likelihoods;
    ``loglik_path``, the accepted log-likelihood after every Newton step,
    for convergence diagnostics; and ``llr_p``, whose tail sum is computed
    and checked once, when the fit is made.  Derived on read, each by the
    module's formula for it: ``z``, ``p_two_sided``, ``exp_b`` and ``wald``
    (``coefficient_inference``, once per fit), ``llr_stat`` (``_llr_stat``,
    0 for the intercept-only model), ``pseudo_r2`` and ``aic``/``bic``
    (``information_criteria``, whose pair is computed once per fit).  So
    no statistic can disagree with the numbers it comes from, and none
    raises on a fit that ``fit_logistic_batch`` returns (see
    ``_finish_fits``).  Being properties, they cannot be set by
    ``dataclasses.replace``.
    """

    feature_names: tuple
    coef: np.ndarray
    std_err: np.ndarray
    log_lik: float
    log_lik_null: float
    llr_p: float
    n_obs: int
    iterations: int
    converged: bool
    loglik_path: tuple

    @property
    def k_params(self) -> int:
        return len(self.coef)

    _inference = functools.cached_property(
        lambda self: coefficient_inference(self.coef, self.std_err)
    )
    z = property(lambda self: self._inference.z)
    p_two_sided = property(lambda self: self._inference.p_two_sided)
    exp_b = property(lambda self: self._inference.exp_b)
    wald = property(lambda self: self._inference.wald)
    llr_stat = property(
        lambda self: _llr_stat(self.log_lik, self.log_lik_null) if self.k_params > 1 else 0.0
    )
    pseudo_r2 = property(lambda self: pseudo_r2(self.log_lik, self.log_lik_null))
    _criteria = functools.cached_property(
        lambda self: information_criteria(self.log_lik, self.k_params, self.n_obs)
    )
    aic = property(lambda self: self._criteria[0])
    bic = property(lambda self: self._criteria[1])


def sigmoid(eta) -> np.ndarray:
    """Numerically stable logistic function: 1 / (1 + e^-eta) for eta >= 0,
    e^eta / (1 + e^eta) below, from one exp(-|eta|) that cannot overflow."""
    eta = np.asarray(eta, dtype=float)
    ex = np.exp(-np.abs(eta))
    out = np.where(eta >= 0, 1.0, ex)
    out /= 1.0 + ex  # in place, so a 0-d input gives a 0-d array
    return out


def _log_likelihood_eta(eta, y):
    """The one ll expression at linear predictors ``eta``;
    a stack of linear predictors (one per row) gives one ll per row."""
    return np.sum(y * eta - np.maximum(eta, 0.0) - np.log1p(np.exp(-np.abs(eta))), axis=-1)


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
        raise NotConvergedError("pseudo_r2: model log-likelihood below null, not at its maximum")
    if log_lik > 0.0:
        raise DataError("pseudo_r2: positive log-likelihood")
    return 1.0 - log_lik / log_lik_null


def _llr_stat(log_lik: float, log_lik_null: float) -> float:
    """The likelihood ratio statistic 2 (ll - ll_null), floored at 0.

    A model with an intercept has a maximum at or above the
    intercept-only likelihood, so a fit that stopped below it is not at
    its maximum: NotConvergedError."""
    stat = 2.0 * (log_lik - log_lik_null)
    if stat < -1e-9:
        raise NotConvergedError(
            "likelihood ratio: the fit stopped below the intercept-only "
            f"log-likelihood (stat={stat}), so it is not at its maximum; "
            "a smaller --tol lets it go on"
        )
    return max(stat, 0.0)


def coefficient_inference(coef, std_err) -> CoefficientInference:
    """z, two-sided p, Exp(B) and Wald chi-squared for each coefficient.

    Identities: z = coef/se, Exp(B) = exp(coef), Wald = z^2, and the
    p-value is the two-sided normal tail of z.  ``coef`` and ``std_err``
    are one model's vectors.
    """
    coef = np.asarray(coef, dtype=float)
    se = np.asarray(std_err, dtype=float)
    if coef.shape != se.shape or coef.ndim != 1:
        raise DataError("coefficient_inference: coef/std_err shape mismatch")
    if not np.all(np.isfinite(coef)) or not np.all(np.isfinite(se)):
        raise DataError("coefficient_inference: non-finite input")
    if np.any(se <= 0):
        raise DataError("coefficient_inference: standard errors must be > 0")
    z = coef / se
    return CoefficientInference(
        z=z,
        p_two_sided=np.array([two_sided_p(v) for v in z.tolist()]),
        exp_b=np.exp(coef),
        wald=z * z,
    )


def fit_logistic(d: DesignMatrix, max_iter: int = 1000, tol: float = 1e-8) -> LogitFit:
    """Maximum likelihood fit by damped Newton iterations from beta = 0.

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


# A shared design's smallest singular value must pass matrix_rank's
# tolerance by this factor for its column subsets to skip their checks.
RANK_MARGIN = 100.0


def columns_well_posed(X) -> bool:
    """Whether every design of columns of the (n, K) design ``X``, its
    intercept among them, passes the column checks: ``X`` is finite, has
    no constant column past the intercept, and sigma_min exceeds
    ``RANK_MARGIN`` times ``matrix_rank``'s tolerance.  A column subset's
    sigma_min is no smaller and its sigma_max no larger, so it passes by
    the same margin, far more than SVD round-off can move a singular value.
    """
    n, K = X.shape
    if n < K or not np.all(np.isfinite(X)) or np.any(np.ptp(X[:, 1:], axis=0) == 0.0):
        return False
    sv = np.linalg.svd(X, compute_uv=False)
    return bool(sv[-1] > RANK_MARGIN * sv[0] * max(n, K) * np.finfo(float).eps)


def check_solver_params(max_iter, tol) -> None:
    """The solver's rule for its parameters: a ConfigError unless
    ``max_iter`` is an integer >= 1 and ``tol`` a finite real number > 0."""
    require_number("fit_logistic: max_iter", max_iter, integer=True)
    if max_iter < 1:
        raise ConfigError(f"fit_logistic: max_iter must be >= 1, got {max_iter}")
    require_number("fit_logistic: tol", tol)
    if not math.isfinite(tol) or tol <= 0:
        raise ConfigError(f"fit_logistic: tol must be finite and > 0, got {tol}")


def fit_logistic_batch(
    X, y, feature_names, max_iter: int = 1000, tol: float = 1e-8, start=None, columns_ok=False
) -> list:
    """Fit a stack of designs ``X`` (B, n, k) that share the response ``y``,
    each from its row of ``start`` (B, k, finite; default zeros).

    Each ``X[b]`` with ``feature_names[b]`` must pass the ``DesignMatrix``
    checks.  Returns, per design, its ``LogitFit`` or the
    ``StratLogitError`` that fitting it alone, as a stack of one, from the
    same start gives; a bad ``max_iter`` or ``tol`` is raised.  ``columns_ok``
    (see ``columns_well_posed``) skips the constant-column and rank checks.

    The designs still iterating take each Newton step in lockstep: one
    stacked ``matmul`` each for the score, the information matrix and
    every line-search trial, and one stacked ``solve_spd`` (``_solve_stack``).
    numpy makes the same BLAS call for each slice of a stacked ``matmul``
    as for a single 2-D design, and LAPACK factors and solves each slice
    alone, so every fit is bit-identical to fitting its design alone.  A
    design leaves the stack when it converges, reaches ``max_iter`` or
    fails, and step halving re-evaluates only the designs whose trial step
    was refused.  The designs that stopped are finished together, as one
    stack (``_finish_fits``).
    """
    X = np.ascontiguousarray(X, dtype=float)
    n_fits, _, k = X.shape
    start = np.zeros((n_fits, k)) if start is None else np.asarray(start, dtype=float)
    check_solver_params(max_iter, tol)
    if np.all(y == y[0]):
        return [DegenerateInputError("fit_logistic: response has a single class")] * n_fits
    ll_null = null_log_likelihood(y)
    outcomes = [None] * n_fits
    if columns_ok:
        constant, full_rank = np.zeros((n_fits, 1), dtype=bool), np.ones(n_fits, dtype=bool)
    else:
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
    beta = start[live]
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
        solved, step, errors = _solve_stack(hessian, grad[:, :, None], beta)
        step = step[:, :, 0]
        if solved.size < live.size:
            for i, exc in enumerate(errors):
                if exc is not None:
                    outcomes[live[i]] = exc
            live, Xs, beta, eta, ll = (a[solved] for a in (live, Xs, beta, eta, ll))

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


def _solve_stack(hessian, rhs, beta) -> tuple:
    """(solved, solutions, errors) of each design's ``hessian[i] x = rhs[i]``
    for a (B, k, m) stack ``rhs`` (Newton steps with m = 1, covariances
    with identity right-hand sides): ``solve_spd`` of the stack as one
    call (``stacked_call``), whose ``solutions`` are those of the rows
    ``solved``.  Every other row's ``errors`` entry holds the error its
    fit fails with, a singular matrix read by ``_singular_error``."""
    errors = [None] * len(hessian)
    solved, out = stacked_call(solve_spd, range(len(hessian)), errors, hessian, rhs)
    for i, exc in enumerate(errors):
        if isinstance(exc, SingularMatrixError):
            errors[i] = _singular_error(beta[i], exc)
    return solved, out, errors


def _finish_fits(X, y, feature_names, stopped, ll_null, outcomes) -> None:
    """Standard errors and likelihood ratio p-value of the designs in
    ``stopped``, whose iterations stopped at (batch index, beta, eta =
    X @ beta, ll, path, iterations, converged), as one stack; each
    outcome goes into ``outcomes``.

    One stacked ``matmul`` gives the information matrices, one stacked
    ``solve_spd`` (``_solve_stack`` with identity right-hand sides) the
    covariances and one stacked ``chisq_sf`` the p-values, so every
    number is the one a design finished alone gets.
    Each design's errors are checked in the order a lone fit checks them:
    the solve, a non-positive or non-finite variance, the likelihood
    ratio statistic (a fit that stopped below the intercept-only
    likelihood, for any k, is a ``NotConvergedError``), ``chisq_sf``.
    A design that passes them has finite coefficients, finite positive
    standard errors and a finite log-likelihood at most 0 and not below
    ``pseudo_r2``'s floor, so its ``LogitFit`` derives every statistic
    without raising.
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
    live, cov, errors = _solve_stack(hessian, identity, beta)
    var = np.diagonal(cov, axis1=1, axis2=2)
    usable = np.all((var > 0) & np.isfinite(var), axis=1)
    for i in live[~usable]:
        errors[i] = SingularMatrixError(
            "fit_logistic: non-positive or non-finite coefficient variance"
        )
    live = live[usable]
    # Rows that failed keep placeholder values, never computed on.
    std_err = np.ones_like(beta)
    std_err[live] = np.sqrt(var[usable])

    llr_stat, llr_p = np.zeros(len(index)), np.ones(len(index))
    for i in live.tolist():
        try:
            llr_stat[i] = _llr_stat(ll[i], ll_null)  # an intercept-only fit is checked, not tested
        except StratLogitError as exc:
            errors[i] = exc
    if k > 1:
        live, p_live = stacked_call(lambda x: chisq_sf(x, k - 1), live, errors, llr_stat)
        llr_p[live] = p_live
    llr_p = llr_p.tolist()
    for i, b in enumerate(index):
        outcomes[b] = errors[i]
        if errors[i] is None:
            outcomes[b] = LogitFit(
                feature_names=feature_names[b],
                coef=beta[i],
                std_err=std_err[i],
                log_lik=ll[i],
                log_lik_null=ll_null,
                llr_p=llr_p[i],
                n_obs=n,
                iterations=iterations[i],
                converged=converged[i],
                loglik_path=paths[i],
            )


def stacked_call(fn, rows, errors, *stacks) -> tuple:
    """(live, ``fn`` of the rows ``live`` of ``stacks`` as one call), where
    ``live`` are the ``rows`` whose ``errors`` entry is still None; when
    that is every row of the stacks, ``fn`` gets the stacks themselves.
    When that call raises, ``fn`` runs on each live row alone: a row that
    raises gets its own error in ``errors`` and leaves ``live``, and the
    rest run as one call again."""
    if len(rows) == len(stacks[0]) and not any(errors):
        live, live_stacks = np.arange(len(rows)), stacks
    else:
        live = np.array([i for i in rows if errors[i] is None], dtype=int)
        live_stacks = [s[live] for s in stacks]
    try:
        return live, fn(*live_stacks)
    except StratLogitError:
        pass
    for i in live:
        try:
            fn(*(s[i] for s in stacks))
        except StratLogitError as exc:
            errors[i] = exc
    live = np.array([i for i in live if errors[i] is None], dtype=int)
    return live, fn(*(s[live] for s in stacks))


def check_converged(fit: LogitFit, caller: str) -> None:
    """NotConvergedError, naming ``caller``, unless ``fit`` converged: an
    unconverged fit's coefficients and standard errors do not describe a
    maximum."""
    if not fit.converged:
        raise NotConvergedError(
            f"{caller}: fit did not converge in {fit.iterations} iterations "
            f"(final negative log-likelihood {-fit.log_lik:.6f})"
        )
