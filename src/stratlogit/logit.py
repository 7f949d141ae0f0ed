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
next.  Coefficients running away (max |beta_j| beyond a configurable
bound) are reported as separation rather than returned as garbage.
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
)
from .stats_core import chisq_sf, solve_spd, two_sided_p


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
        if n <= k:
            raise DegenerateInputError(
                f"need more observations ({n}) than parameters ({k})"
            )
        if not np.all(X[:, 0] == 1.0):
            raise DataError("first design column must be the intercept (all ones)")
        if not np.all(np.isfinite(X)):
            raise DataError("design matrix contains non-finite values")
        if not np.all((y == 0) | (y == 1)):
            raise DataError("response must be 0/1")

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
class LlrResult:
    stat: float
    p: float


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
    return _log_likelihood_eta(X @ beta, y)


def _log_likelihood_eta(eta, y) -> float:
    """The one ll expression, shared by the solver and ``log_likelihood``."""
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def gradient(beta, X, y) -> np.ndarray:
    """Score vector X'(y - p); exposed for finite-difference checks."""
    return X.T @ (y - sigmoid(X @ beta))


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


def llr_test(log_lik: float, log_lik_null: float, df: int) -> LlrResult:
    """Likelihood ratio test of the fitted model against the null."""
    stat = 2.0 * (log_lik - log_lik_null)
    if stat < -1e-9:
        raise DegenerateInputError(
            f"llr_test: fitted log-likelihood below null (stat={stat})"
        )
    stat = max(stat, 0.0)
    return LlrResult(stat=stat, p=chisq_sf(stat, df))


def coefficient_inference(coef, std_err) -> CoefficientInference:
    """z, two-sided p, Exp(B) and Wald chi-squared for each coefficient.

    Identities: z = coef/se, Exp(B) = exp(coef), Wald = z^2, and the
    p-value is the two-sided normal tail of z.
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
        p_two_sided=np.array([two_sided_p(v) for v in z]),
        exp_b=np.exp(coef),
        wald=z * z,
    )


def fit_logistic(
    d: DesignMatrix,
    max_iter: int = 1000,
    tol: float = 1e-8,
    coef_bound: float = 50.0,
) -> LogitFit:
    """Maximum likelihood fit by damped Newton iterations.

    Convergence is declared when the max-norm of the score drops to
    ``tol`` or the relative log-likelihood improvement falls below
    1e-12; hitting ``max_iter`` first returns converged=False (callers
    that need inference must check).  A singular information matrix is
    reported as separation when the coefficients are already large,
    otherwise as collinearity.
    """
    if max_iter < 1:
        raise DegenerateInputError(f"fit_logistic: max_iter must be >= 1, got {max_iter}")
    if not (tol > 0):
        raise DegenerateInputError(f"fit_logistic: tol must be > 0, got {tol}")
    X, y = d.X, d.y
    n, k = X.shape
    if np.all(y == y[0]):
        raise DegenerateInputError("fit_logistic: response has a single class")
    for j in range(1, k):
        if np.ptp(X[:, j]) == 0.0:
            raise SingularMatrixError(
                f"fit_logistic: column {d.feature_names[j - 1]!r} is constant"
            )
    # Exactly collinear columns leave the likelihood flat along a ridge;
    # round-off can let the Newton solve through, so rank-check up front.
    if np.linalg.matrix_rank(X) < k:
        raise SingularMatrixError(
            "fit_logistic: design matrix is rank deficient (collinear columns)"
        )

    def classify_singular(beta, exc):
        if np.max(np.abs(beta)) > coef_bound / 2.0:
            return SeparationError(
                "fit_logistic: information matrix singular with large coefficients "
                f"(max |beta| = {np.max(np.abs(beta)):.3g}); classes look separable"
            )
        return SingularMatrixError(f"fit_logistic: {exc}")

    beta = np.zeros(k)
    # eta = X @ beta is carried from the accepted line-search candidate.
    eta = X @ beta
    ll = _log_likelihood_eta(eta, y)
    path = [ll]
    iterations = 0
    converged = False
    for _ in range(max_iter):
        p = sigmoid(eta)
        grad = X.T @ (y - p)
        if float(np.max(np.abs(grad))) <= tol:
            converged = True
            break
        w = p * (1.0 - p)
        hessian = X.T @ (X * w[:, None])
        try:
            step = solve_spd(hessian, grad)
        except SingularMatrixError as exc:
            raise classify_singular(beta, exc) from exc
        lam = 1.0
        accepted = False
        for _ in range(60):
            cand = beta + lam * step
            eta_cand = X @ cand
            ll_cand = _log_likelihood_eta(eta_cand, y)
            if ll_cand >= ll:
                accepted = True
                break
            lam /= 2.0
        if not accepted:
            # No ascent representable along the Newton direction: the
            # likelihood is stationary to machine precision.
            converged = True
            break
        beta, eta = cand, eta_cand
        iterations += 1
        path.append(ll_cand)
        if float(np.max(np.abs(beta))) > coef_bound:
            raise SeparationError(
                "fit_logistic: coefficients diverged beyond "
                f"{coef_bound} (max |beta| = {np.max(np.abs(beta)):.3g}); "
                "classes look separable"
            )
        if abs(ll_cand - ll) <= 1e-12 * (1.0 + abs(ll_cand)):
            ll = ll_cand
            converged = True
            break
        ll = ll_cand

    p = sigmoid(eta)
    w = p * (1.0 - p)
    hessian = X.T @ (X * w[:, None])
    try:
        cov = solve_spd(hessian, np.eye(k))
    except SingularMatrixError as exc:
        raise classify_singular(beta, exc) from exc
    var = np.diag(cov).copy()
    if np.any(var <= 0):
        raise SingularMatrixError("fit_logistic: non-positive coefficient variance")
    std_err = np.sqrt(var)

    ll_null = null_log_likelihood(y)
    df = k - 1
    if df > 0:
        llr = llr_test(ll, ll_null, df)
        llr_stat, llr_p = llr.stat, llr.p
    else:
        llr_stat, llr_p = 0.0, 1.0
    aic, bic = information_criteria(ll, k, n)
    inf = coefficient_inference(beta, std_err)
    return LogitFit(
        feature_names=d.feature_names,
        coef=beta,
        std_err=std_err,
        z=inf.z,
        p_two_sided=inf.p_two_sided,
        exp_b=inf.exp_b,
        wald=inf.wald,
        log_lik=ll,
        log_lik_null=ll_null,
        pseudo_r2=pseudo_r2(ll, ll_null),
        llr_stat=llr_stat,
        llr_p=llr_p,
        aic=aic,
        bic=bic,
        n_obs=n,
        iterations=iterations,
        converged=converged,
        final_neg_loglik=-ll,
        loglik_path=tuple(path),
    )


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
