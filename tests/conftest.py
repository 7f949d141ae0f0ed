"""Shared fixtures and generators for the test suite."""

import csv
import importlib.util
import json
import math
import pathlib
from collections import deque

import numpy as np
import pytest
from hypothesis import settings
from scipy.linalg import solve_triangular
from scipy.special import gammaincc

from stratlogit.emit import METRIC_FIELDS
from stratlogit.errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    SingularMatrixError,
    StratLogitError,
)
from stratlogit.evaluate import (
    ConfusionMatrix,
    RocCurve,
    classify,
    make_split,
    metrics,
    predict_prob,
)
from stratlogit.indicators import (
    FEATURE_COLUMNS,
    CompositeWeights,
    FeatureMatrix,
    build_feature_matrix,
    percentile_rank,
)
from stratlogit.ingest import filter_eligible, parse_dataset
from stratlogit.logit import (
    DesignMatrix,
    LogitFit,
    _llr_stat,
    _log_likelihood_eta,
    _singular_error,
    fit_logistic_batch,
    sigmoid,
)
from stratlogit.model_select import ModelRow
from stratlogit.network import _q, _refresh
from stratlogit.pipeline import RunConfig, fit_features
from stratlogit.stats_core import chisq_sf, solve_spd

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"

# scripts/compare_gn.py, whose graph generators the network tests share.
_spec = importlib.util.spec_from_file_location("compare_gn", ROOT / "scripts" / "compare_gn.py")
compare_gn = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_gn)

# Every property test runs the same examples on every run, with no time
# limit and no example database; each test sets only its max_examples.
settings.register_profile("stratlogit", deadline=None, derandomize=True, database=None)
settings.load_profile("stratlogit")


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


def to_json_ref(payload) -> str:
    """The standard library's indented JSON: the oracle for ``emit.to_json``."""
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def trend_payload_ref(report) -> dict:
    """report.json's ``attribution.trends`` from the curves' floats, a
    value at a time: the oracle for the trend texts ``emit`` shares with
    the CSV files."""
    return {
        name: {
            "x": tc.full_curve.x.tolist(),
            "full": tc.full_curve.y.tolist(),
            "optimized": tc.optimized_curve.y.tolist() if tc.optimized_curve else None,
            "missing_from": list(tc.missing_from),
        }
        for name, tc in report.trends.items()
    }


def cell_ref(value) -> str:
    """One CSV cell, converted per value: the oracle for ``emit``'s cells."""
    if isinstance(value, float):
        return repr(float(value))
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def write_csv_ref(path, header, rows) -> None:
    """``header``, then each row through ``cell_ref`` and the csv module:
    the oracle for ``emit.write_csv`` and every table writer."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows([cell_ref(v) for v in row] for row in rows)


def comparison_to_dicts_ref(table) -> list:
    """JSON-friendly row dicts of a ComparisonTable, in table order, every
    value read off the row's own fit and score (or its error text): the
    oracle for what comparison.csv reads back to and for ``ModelRow``'s
    view of its fit."""
    dicts = []
    for r in table.rows:
        row = {"model_id": r.model_id, "features": list(r.spec.features), "n_train": r.n_train}
        fit, score = r.fit, r.score
        if fit is None:
            row.update(k_params=None, converged=False, iterations=None, failed=True)
            row.update(failure=r.error, coefficients=None, **dict.fromkeys(METRIC_FIELDS))
        else:
            names = ("intercept", *fit.feature_names)
            row.update(
                k_params=len(fit.coef),
                converged=fit.converged,
                iterations=fit.iterations,
                failed=not fit.converged,
                failure=None if fit.converged else f"not converged in {fit.iterations} iterations",
                coefficients={name: float(c) for name, c in zip(names, fit.coef)},
                log_lik=fit.log_lik,
                log_lik_null=fit.log_lik_null,
                pseudo_r2=fit.pseudo_r2,
                llr_p=fit.llr_p,
                aic=fit.aic,
                bic=fit.bic,
                accuracy=score.accuracy,
                precision=score.precision,
                recall=score.recall,
                f1=score.f1,
            )
        dicts.append(row)
    return dicts


def read_comparison_csv(path) -> list:
    """comparison.csv read back to the row dicts of
    ``comparison_to_dicts_ref``: ints and floats by ``int`` and
    ``float``, bools from ``1`` and ``0``, and an empty or ``undefined``
    cell as None."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = csv.reader(handle)
    cells = {row[0]: row[1:] for row in rows}
    coefs = {label[5:]: row for label, row in cells.items() if label.startswith("coef_")}
    flag = {"1": True, "0": False}.__getitem__

    def read(label, kind, i):
        text = cells[label][i]
        return None if text in ("", "undefined") else kind(text)

    return [
        {
            "model_id": model_id,
            "features": cells["features"][i].split("+") if cells["features"][i] else [],
            "n_train": read("n_train", int, i),
            "k_params": read("k_params", int, i),
            "converged": read("converged", flag, i),
            "iterations": read("iterations", int, i),
            "failed": read("failed", flag, i),
            "failure": read("failure", str, i),
            "coefficients": {n: float(row[i]) for n, row in coefs.items() if row[i]} or None,
            **{f: read(f, float, i) for f in METRIC_FIELDS},
        }
        for i, model_id in enumerate(header[1:])
    ]


def read_roc_csv(path) -> tuple:
    """roc.csv read back to a curve's (points, thresholds), floats by
    ``float`` and an empty threshold as None."""
    with open(path, newline="", encoding="utf-8") as handle:
        _, *rows = csv.reader(handle)
    points = tuple((float(fpr), float(tpr)) for fpr, tpr, _ in rows)
    return points, tuple(float(t) if t else None for _, _, t in rows)


def roc_auc_ref(scores, labels) -> RocCurve:
    """One operating point per distinct score, each counted by rescanning
    every score: the old loop of ``evaluate.roc_auc``, kept as its oracle."""
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1 or s.size == 0:
        raise DataError("roc_auc: scores and labels must be matching 1-D vectors")
    if not np.all(np.isfinite(s)):
        raise DataError("roc_auc: non-finite scores")
    if not np.all((y == 0) | (y == 1)):
        raise DataError("roc_auc: labels must be 0/1")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise DegenerateInputError("roc_auc: need both classes to sweep a curve")
    points = [(0.0, 0.0)]
    thresholds = [None]
    for t in np.unique(s)[::-1]:
        pred = s >= t
        tpr = float(np.sum(pred & (y == 1))) / n_pos
        fpr = float(np.sum(pred & (y == 0))) / n_neg
        points.append((fpr, tpr))
        thresholds.append(float(t))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(points), thresholds=tuple(thresholds), auc=auc)


def gather_ref(columns, design_cols):
    """stack[b, r, j] = columns[r, design_cols[b, j]] by one broadcast fancy
    index: the oracle for ``model_select._gather``."""
    return columns[np.arange(columns.shape[0])[None, :, None], design_cols[:, None, :]]


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
    """Cholesky and two ``solve_triangular`` calls (LAPACK ``dtrtrs``): a
    solve of the SPD system independent of ``np.linalg.solve``, and the
    tolerance oracle for ``solve_spd``."""
    chol = np.linalg.cholesky(a)
    y = solve_triangular(chol, b, lower=True)
    return solve_triangular(chol.T, y, lower=False)


def chisq_sf_ref(x, k):
    """The regularised upper incomplete gamma function Q(k/2, x/2) from
    scipy: the old path of ``stats_core.chisq_sf``, kept as its oracle."""
    return gammaincc(k / 2.0, np.asarray(x, dtype=float) / 2.0)


def gradient_ref(beta, X, y):
    """Score vector X'(y - p) of the log-likelihood, for finite-difference
    checks."""
    return X.T @ (y - sigmoid(X @ beta))


def log_likelihood_ref(beta, X, y) -> float:
    """The log-likelihood of coefficients ``beta`` on design ``X``, by the
    solver's own expression."""
    return float(_log_likelihood_eta(X @ beta, y))


def finish_fit_ref(
    X, y, feature_names, beta, eta, ll, path, iterations, converged, ll_null
) -> LogitFit:
    """Standard errors and likelihood ratio p-value (the stored fields of a
    ``LogitFit``) for one design whose iterations stopped at
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
    if not np.all((var > 0) & np.isfinite(var)):
        raise SingularMatrixError("fit_logistic: non-positive or non-finite coefficient variance")
    std_err = np.sqrt(var)

    llr_stat = _llr_stat(ll, ll_null)  # also checks an intercept-only fit
    llr_p = chisq_sf(llr_stat, k - 1) if k > 1 else 1.0
    return LogitFit(
        feature_names=feature_names,
        coef=beta,
        std_err=std_err,
        log_lik=ll,
        log_lik_null=ll_null,
        llr_p=llr_p,
        n_obs=n,
        iterations=iterations,
        converged=converged,
        loglik_path=path,
    )


def inference_rows_ref(fit) -> list:
    """One [feature, coef, std_err, z, p_two_sided, exp_b, wald] row per
    feature (the intercept is not reported), built a value at a time from
    the fit's arrays: the oracle for the inference columns ``emit`` reads
    off a ``LogitFit``."""
    arrays = (fit.coef, fit.std_err, fit.z, fit.p_two_sided, fit.exp_b, fit.wald)
    return [
        [name, *(float(a[i]) for a in arrays)] for i, name in enumerate(fit.feature_names, start=1)
    ]


def warm_start_ref(features, rows):
    """The start of an enumerated candidate's fit, from the ``rows`` fitted
    before it: the row of a one-smaller subset of ``features`` that fitted
    and converged with the highest log-likelihood, the first such row on a
    tie, gives its intercept and its coefficient of each feature it has,
    and the added feature starts at 0; with no such row, None (zeros).
    The oracle for ``model_select``'s parent rule."""
    parents = [
        r
        for r in rows
        if not r.failed
        and len(r.spec.features) == len(features) - 1
        and set(r.spec.features) < set(features)
    ]
    if not parents:
        return None
    best = max(parents, key=lambda r: r.log_lik)  # max keeps the first of equals
    return np.array(
        [best.coefficients["intercept"]] + [best.coefficients.get(f, 0.0) for f in features]
    )


def fit_from(design, max_iter=1000, tol=1e-8, start=None) -> LogitFit:
    """``design``'s lone fit from ``start`` (default zeros): a stack of one
    through ``fit_logistic_batch``, its error raised, which is what
    ``fit_logistic`` does from zeros."""
    start = None if start is None else np.asarray(start, dtype=float)[None]
    (out,) = fit_logistic_batch(
        design.X[None], design.y, [design.feature_names], max_iter, tol, start
    )
    if isinstance(out, StratLogitError):
        raise out
    return out


def full_fit(m, split, max_iter=1000, tol=1e-8) -> LogitFit:
    """The fit stage's lone fit of every column of ``m`` on the training
    rows, from zeros: the all-feature row a search is given."""
    cfg = RunConfig(input_path="unread.csv", max_iter=max_iter, tol=tol)
    return fit_features(cfg, m, split)


def fit_one_ref(m, spec, split, max_iter, tol, model_id, start=None) -> ModelRow:
    """One candidate's table row from its own ``DesignMatrix`` and lone
    fit from ``start`` (``fit_from``), scored by ``predict_prob``: the
    oracle for ``model_select``'s batched fits."""
    train_idx = np.asarray(split.train_indices, dtype=int)
    val_idx = np.asarray(split.val_indices, dtype=int)
    try:
        fit = fit_from(
            DesignMatrix.from_features(m, spec.features, rows=train_idx),
            max_iter=max_iter,
            tol=tol,
            start=start,
        )
    except StratLogitError as exc:
        return ModelRow(model_id, spec, len(train_idx), error=f"{exc.code}: {exc}")
    block = np.column_stack([m.column(name)[val_idx] for name in spec.features])
    mets = metrics(
        ConfusionMatrix.from_predictions(
            m.target[val_idx], classify(predict_prob(fit, block))
        )
    )
    return ModelRow(model_id, spec, len(train_idx), fit=fit, score=mets)


def made_fit(features, coef, log_lik=-5.0) -> LogitFit:
    """A converged ``LogitFit`` with coefficients ``coef`` made by hand, for
    a table whose cells a test pins: unit standard errors, a null
    log-likelihood of -6, 10 observations and 4 iterations."""
    return LogitFit(
        feature_names=tuple(features),
        coef=np.array(coef, dtype=float),
        std_err=np.ones(len(coef)),
        log_lik=log_lik,
        log_lik_null=-6.0,
        llr_p=0.5,
        n_obs=10,
        iterations=4,
        converged=True,
        loglik_path=(log_lik,),
    )


def adjacency(g):
    """{node: sorted tuple of its neighbours} of a CollabGraph, from its edges."""
    adj = {n: [] for n in g.nodes}
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    return {n: tuple(sorted(vs)) for n, vs in adj.items()}


def int_adjacency(g) -> tuple:
    """(ends, adj) of ``g`` numbered as ``network`` numbers it: nodes by
    their index in the sorted ``g.nodes``, edges by their index in
    ``g.edges``.  ``ends`` is the m-by-2 array of each edge's (lower,
    higher) node pair and ``adj[v]`` is v's sorted list of (neighbour,
    edge id).  The rank order is the names' order, so edge id order is
    lexicographic edge order."""
    rank = {name: i for i, name in enumerate(g.nodes)}
    ends = [(rank[u], rank[v]) for u, v, _ in g.edges]
    adj = [[] for _ in rank]
    for e, (i, j) in enumerate(ends):
        adj[i].append((j, e))
        adj[j].append((i, e))
    for nbrs in adj:
        nbrs.sort()
    return np.array(ends), adj


def reference_components(nodes, adj):
    """Connected components as sorted node lists, ordered by least node;
    ``adj`` maps each node to its neighbours."""
    seen = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        queue = deque([start])
        seen.add(start)
        comp = []
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        comps.append(sorted(comp))
    comps.sort(key=lambda c: c[0])
    return comps


def source_pass_ref(s, adj, row) -> list:
    """Brandes' pass for source ``s`` over ``int_adjacency``'s adjacency,
    one source at a time: breadth-first search, then the dependency
    accumulation in reverse visit order.  The oracle for the batched
    passes of ``network._source_passes``.

    ``row``, an array indexed by edge id, is overwritten with the
    contribution of each edge of s's shortest-path DAG (0 elsewhere).
    Returns the hop distances from ``s``, -1 where ``s`` does not reach.
    """
    n = len(adj)
    dist = [-1] * n
    sigma = [0.0] * n
    preds = [None] * n
    dist[s] = 0
    sigma[s] = 1.0
    order = [s]
    for v in order:  # order grows while it is walked: a FIFO queue
        below = dist[v] + 1
        sv = sigma[v]
        for w, e in adj[v]:
            d = dist[w]
            if d < 0:
                dist[w] = below
                order.append(w)
                sigma[w] = sv
                preds[w] = [(v, e)]
            elif d == below:
                sigma[w] += sv
                preds[w].append((v, e))
    row[:] = 0.0
    delta = [0.0] * n
    for w in order[:0:-1]:
        sw = sigma[w]
        carried = 1.0 + delta[w]
        for v, e in preds[w]:
            c = sigma[v] / sw * carried
            row[e] = c
            delta[v] += c
    return dist


def batched_passes(g):
    """(adj, dist, contrib, btw): ``network``'s batched source passes run
    once for every node of ``g``, as ``girvan_newman`` runs them before
    its first cut.  ``adj`` is ``int_adjacency``'s adjacency, ``dist`` the
    n-by-n hop distances, ``contrib`` the n-by-m rows of edge
    contributions and ``btw`` the edge betweenness, all by node rank and
    edge id."""
    ends, adj = int_adjacency(g)
    n = len(adj)
    dist = np.full((n, n), -1)
    contrib = np.zeros((n, len(ends)))
    btw = np.empty(len(ends))
    alive = np.ones(len(ends), dtype=bool)
    for comp in reference_components(range(n), [[w for w, _ in nbrs] for nbrs in adj]):
        comp = np.array(comp)
        _refresh(comp, comp, ends, alive, dist, contrib, btw)
    return adj, dist, contrib, btw


def split_refresh_ref(first, second, ends, alive, dist, contrib, btw) -> None:
    """The refresh after a cut splits a component into the sorted node
    rank arrays ``first`` and ``second``, one ``network._refresh`` per
    part with all its sources: the oracle for ``girvan_newman``'s one
    refresh of the old component."""
    for part in (first, second):
        _refresh(part, part, ends, alive, dist, contrib, btw)


def edge_betweenness(g):
    """Betweenness of every edge of ``g``: for each node pair, one unit
    split evenly over that pair's shortest paths, summed over the edges
    each path crosses.  ``network``'s batched source passes, per
    component."""
    btw = batched_passes(g)[3]
    return {(u, v): b for (u, v, _), b in zip(g.edges, btw.tolist())}


def modularity_ref(g, p) -> float:
    """Q = sum_c [ e_cc / m - (d_c / 2m)^2 ] of partition ``p`` by one walk
    over the edges of ``g``: the bit-exact oracle for the per-community
    sums ``girvan_newman`` keeps.  A single community covering a connected
    graph gives exactly 0."""
    missing = [n for n in g.nodes if n not in p.assignment]
    if missing:
        raise DataError(f"partition does not cover nodes {missing[:5]}")
    intra = {}
    cross = {}
    for u, v, w in g.edges:
        cu, cv = p.assignment[u], p.assignment[v]
        if cu == cv:
            intra[cu] = intra.get(cu, 0.0) + w
        else:
            cross[cu] = cross.get(cu, 0.0) + w
            cross[cv] = cross.get(cv, 0.0) + w
    ids = sorted(set(p.assignment.values()))
    return _q([(intra.get(c, 0.0), cross.get(c, 0.0)) for c in ids], g.total_weight)


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


def feature_matrix_ref(d, weights=None) -> FeatureMatrix:
    """``build_feature_matrix`` one record at a time on Python numbers:
    each record's rules in their order, then its nine features, then one
    label per row.  A degenerate record raises DegenerateInputError with
    the message ``scholar <id>: <column>``."""
    w = weights or CompositeWeights()
    records = list(d.records)
    values = np.empty((len(records), len(FEATURE_COLUMNS)))
    for i, r in enumerate(records):
        for column, bad in (
            ("account_days", r.account_days <= 0),
            ("followers_historical", r.followers_historical > r.followers_current),
            ("followers_current", r.followers_current <= 0),
            ("followed_count", r.followed_count <= 0),
        ):
            if bad:
                raise DegenerateInputError(f"scholar {r.scholar_id}: {column}")
        td = r.post_count / r.account_days
        values[i] = (
            float(r.account_days),
            td,
            (r.followers_current - r.followers_historical) / r.account_days,
            r.followed_count / r.followers_current,
            w.alpha * td + w.beta * (r.followers_current / r.followed_count),
            float(r.publications),
            float(r.citations),
            float(r.per_cited),
            float(r.amount_weight),
        )
    h_pct = percentile_rank([r.h_index for r in records])
    f_pct = percentile_rank([r.followers_current for r in records])
    target = np.array([1 if f - h > 0 else 0 for h, f in zip(h_pct, f_pct)], dtype=np.int64)
    return FeatureMatrix(
        column_names=FEATURE_COLUMNS,
        values=values,
        target=target,
        row_ids=tuple(r.scholar_id for r in records),
    )


def labels_ref(followers, h_index) -> np.ndarray:
    f_pct = percentile_rank(followers)
    h_pct = percentile_rank(h_index)
    return (f_pct - h_pct > 0).astype(np.int64)


def calibrate_labels_ref(followers, h_index, target_ones) -> np.ndarray:
    """Swap follower counts between rows until exactly ``target_ones``
    rows are labelled 1, trying one swap at a time and relabelling every
    row per trial: the oracle for ``synth._calibrate_labels``."""
    followers = followers.copy()
    for _ in range(10000):
        labels = labels_ref(followers, h_index)
        ones = int(labels.sum())
        if ones == target_ones:
            return followers
        f_pct = percentile_rank(followers)
        h_pct = percentile_rank(h_index)
        margin = f_pct - h_pct
        if ones > target_ones:
            donors = sorted(np.flatnonzero(labels == 1), key=lambda i: (margin[i], i))
            receivers = sorted(np.flatnonzero(labels == 0), key=lambda j: (-h_pct[j], j))
        else:
            donors = sorted(np.flatnonzero(labels == 0), key=lambda i: (-margin[i], i))
            receivers = sorted(np.flatnonzero(labels == 1), key=lambda j: (h_pct[j], j))
        moved = False
        for i in donors:
            for j in receivers:
                candidate = followers.copy()
                candidate[i], candidate[j] = candidate[j], candidate[i]
                new_ones = int(labels_ref(candidate, h_index).sum())
                if abs(new_ones - target_ones) < abs(ones - target_ones):
                    followers = candidate
                    moved = True
                    break
            if moved:
                break
        if not moved:
            raise DegenerateInputError("label calibration stalled; choose another seed")
    raise DegenerateInputError("label calibration did not converge")


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
