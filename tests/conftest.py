"""Shared fixtures and generators for the test suite."""

import math
import pathlib
from collections import deque

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from stratlogit.errors import ConfigError, DataError, SingularMatrixError, StratLogitError
from stratlogit.evaluate import ConfusionMatrix, classify, make_split, metrics, predict_prob
from stratlogit.indicators import build_feature_matrix
from stratlogit.ingest import filter_eligible, parse_dataset
from stratlogit.logit import (
    DesignMatrix,
    LogitFit,
    _llr_stat,
    _singular_error,
    coefficient_inference,
    fit_logistic,
    information_criteria,
    pseudo_r2,
    sigmoid,
)
from stratlogit.model_select import METRIC_FIELDS, ModelRow
from stratlogit.network import _int_graph, _source_pass
from stratlogit.stats_core import chisq_sf, solve_spd

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


@pytest.fixture(scope="session")
def scholar_csv() -> str:
    path = DATA / "synthetic_scholars.csv"
    assert path.exists(), "bundled fixture missing; run scripts/make_fixtures.py"
    return str(path)


@pytest.fixture(scope="session")
def edges_csv() -> str:
    path = DATA / "coauthor_edges.csv"
    assert path.exists(), "bundled fixture missing; run scripts/make_fixtures.py"
    return str(path)


@pytest.fixture(scope="session")
def fixture_dataset(scholar_csv):
    return filter_eligible(parse_dataset(scholar_csv))


@pytest.fixture(scope="session")
def fixture_matrix(fixture_dataset):
    return build_feature_matrix(fixture_dataset)


@pytest.fixture(scope="session")
def fixture_split(fixture_matrix):
    return make_split(fixture_matrix.n_rows, 0.7, 0)


def sigmoid_ref(eta):
    """Masked two-branch logistic: the bit-exact oracle for ``sigmoid``."""
    eta = np.asarray(eta, dtype=float)
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    ex = np.exp(eta[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def solve_spd_ref(a, b):
    """Cholesky and two ``solve_triangular`` calls: the bit-exact oracle
    for ``solve_spd``, which makes the same LAPACK calls directly."""
    chol = np.linalg.cholesky(a)
    y = solve_triangular(chol, b, lower=True)
    return solve_triangular(chol.T, y, lower=False)


def gradient_ref(beta, X, y):
    """Score vector X'(y - p) of the log-likelihood, for finite-difference
    checks."""
    return X.T @ (y - sigmoid(X @ beta))


def finish_fit_ref(
    X, y, feature_names, beta, eta, ll, path, iterations, converged, ll_null
) -> LogitFit:
    """Covariance and inference for one design whose iterations stopped at
    ``beta`` (``eta = X @ beta``, log-likelihood ``ll``), from its own 2-D
    arrays: the oracle for ``logit``'s stacked finish."""
    n, k = X.shape
    p = sigmoid(eta)
    w = p * (1.0 - p)
    hessian = X.T @ (X * w[:, None])
    try:
        cov = solve_spd(hessian, np.eye(k))
    except SingularMatrixError as exc:
        raise _singular_error(beta, exc) from exc
    var = np.diag(cov).copy()
    if np.any(var <= 0):
        raise SingularMatrixError("fit_logistic: non-positive coefficient variance")
    std_err = np.sqrt(var)

    df = k - 1
    if df > 0:
        llr_stat = _llr_stat(ll, ll_null)
        llr_p = chisq_sf(llr_stat, df)
    else:
        llr_stat, llr_p = 0.0, 1.0
    aic, bic = information_criteria(ll, k, n)
    inf = coefficient_inference(beta, std_err)
    return LogitFit(
        feature_names=feature_names,
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
        loglik_path=path,
    )


def fit_one_ref(m, spec, split, max_iter, tol, model_id) -> ModelRow:
    """One candidate's table row from its own ``DesignMatrix`` and
    ``fit_logistic`` call: the oracle for ``model_select``'s batched fits."""
    train_idx = np.asarray(split.train_indices, dtype=int)
    val_idx = np.asarray(split.val_indices, dtype=int)
    base = dict(
        model_id=model_id,
        spec=spec,
        n_train=len(train_idx),
        k_params=None,
        converged=False,
        iterations=None,
        failed=True,
        failure=None,
        coefficients=None,
        **{f: None for f in METRIC_FIELDS},
    )
    try:
        fit = fit_logistic(
            DesignMatrix.from_features(m, spec.features, rows=train_idx),
            max_iter=max_iter,
            tol=tol,
        )
    except StratLogitError as exc:
        base["failure"] = f"{exc.code}: {exc}"
        return ModelRow(**base)
    coefficients = {"intercept": float(fit.coef[0])}
    for i, name in enumerate(fit.feature_names, start=1):
        coefficients[name] = float(fit.coef[i])
    block = np.column_stack([m.column(name)[val_idx] for name in spec.features])
    mets = metrics(
        ConfusionMatrix.from_predictions(
            m.target[val_idx], classify(predict_prob(fit, block))
        )
    )
    base.update(
        k_params=fit.k_params,
        converged=fit.converged,
        iterations=fit.iterations,
        failed=not fit.converged,
        failure=None if fit.converged else f"not converged in {fit.iterations} iterations",
        coefficients=coefficients,
        log_lik=fit.log_lik,
        log_lik_null=fit.log_lik_null,
        pseudo_r2=fit.pseudo_r2,
        llr_p=fit.llr_p,
        aic=fit.aic,
        bic=fit.bic,
        accuracy=mets.accuracy,
        precision=mets.precision,
        recall=mets.recall,
        f1=mets.f1,
    )
    return ModelRow(**base)


def edge_betweenness(g):
    """Betweenness of every edge of ``g``: for each node pair, one unit
    split evenly over that pair's shortest paths, summed over the edges
    each path crosses.  Whole-graph source passes of ``network``, summed
    in source order."""
    ends, adj = _int_graph(g)
    row = np.empty(len(ends))
    total = np.zeros(len(ends))
    for s in range(len(adj)):
        _source_pass(s, adj, row)
        total += row
    return {(u, v): b for (u, v, _), b in zip(g.edges, (total / 2.0).tolist())}


def brandes_ref(nodes, adj):
    """Edge betweenness over dicts keyed by node name, sources in the
    order of ``nodes`` and neighbours in the order of ``adj``: the
    bit-exact oracle for ``network``'s integer-indexed source passes."""
    btw = {}
    for u in nodes:
        for v in adj[u]:
            if u < v:
                btw[(u, v)] = 0.0
    for s in nodes:
        dist = {s: 0}
        sigma = {s: 1.0}
        preds = {}
        order = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] = sigma.get(w, 0.0) + sigma[v]
                    preds.setdefault(w, []).append(v)
        delta = {v: 0.0 for v in order}
        for w in reversed(order):
            for v in preds.get(w, ()):
                c = sigma[v] / sigma[w] * (1.0 + delta[w])
                key = (v, w) if v < w else (w, v)
                btw[key] += c
                delta[v] += c
    for key in btw:
        btw[key] /= 2.0
    return btw


def make_problem(seed, n=300, p=4, beta_scale=1.0):
    """Random well-behaved logistic problem with known coefficients.

    Reseeds deterministically until both classes appear, so any seed is
    usable.
    """
    for attempt in range(50):
        rng = np.random.Generator(np.random.PCG64(seed + 100000 * attempt))
        X = rng.normal(0.0, 1.0, (n, p))
        beta = rng.uniform(-beta_scale, beta_scale, p + 1)
        eta = beta[0] + X @ beta[1:]
        y = (rng.random(n) < sigmoid_ref(eta)).astype(float)
        if 0 < y.sum() < n:
            design = DesignMatrix(
                X=np.column_stack([np.ones(n), X]),
                y=y,
                feature_names=tuple(f"x{j}" for j in range(p)),
            )
            return design, beta
    raise AssertionError("could not generate a two-class problem")


def kernel_shap(fit, x_row, background, max_features=12):
    """Shapley values of one row by full coalition enumeration: the
    oracle for the closed form in ``linear_shap``.

    v(S) evaluates the log-odds with features outside S pinned to the
    background means; each feature's attribution is the kernel-weighted
    sum of its marginal contributions over all 2^(p-1) coalitions.
    Exponential cost, so refuses more than ``max_features`` features.
    """
    p = len(fit.feature_names)
    mu = np.asarray(background, dtype=float)
    x = np.asarray(x_row, dtype=float)
    if mu.shape != (p,) or x.shape != (p,):
        raise DataError(f"kernel_shap: row {x.shape} / background {mu.shape}, want ({p},)")
    if p > max_features:
        raise ConfigError(
            f"kernel_shap: {p} features means {2 ** p} coalitions; limit is {max_features}"
        )
    beta = fit.coef[1:]
    delta = (x - mu) * beta
    # v[mask] = log-odds with the masked features taken from x.
    v = np.empty(2 ** p)
    v[0] = float(fit.coef[0] + beta @ mu)
    for mask in range(1, 2 ** p):
        low = mask & -mask
        v[mask] = v[mask ^ low] + delta[low.bit_length() - 1]
    fact = [math.factorial(i) for i in range(p + 1)]
    weight = [fact[s] * fact[p - 1 - s] / fact[p] for s in range(p)]
    phi = np.zeros(p)
    for mask in range(2 ** p):
        s = bin(mask).count("1")
        for j in range(p):
            bit = 1 << j
            if not mask & bit:
                phi[j] += weight[s] * (v[mask | bit] - v[mask])
    return phi
