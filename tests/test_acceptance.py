"""Acceptance suite: twelve numbered criteria, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every criterion aggregates its checks and prints exactly one
[PASS]/[FAIL] line; the assertion carries the first failures in detail.
"""

import itertools
import math
import time
from collections import deque
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import (
    DATA,
    adjacency,
    edge_betweenness,
    full_fit,
    gradient_ref,
    kernel_shap,
    log_likelihood_ref,
    make_dataset,
    make_problem,
    modularity_ref,
    sigmoid_ref,
)
from stratlogit.attribution import linear_shap, lowess
from stratlogit.errors import (
    DegenerateInputError,
    SeparationError,
    SingularMatrixError,
    StratLogitError,
)
from stratlogit.evaluate import roc_auc
from stratlogit.indicators import FeatureMatrix, build_feature_matrix
from stratlogit.logit import (
    DesignMatrix,
    coefficient_inference,
    fit_logistic,
    information_criteria,
    pseudo_r2,
)
from stratlogit.model_select import backward_stepwise, enumerate_subsets, fit_all
from stratlogit.evaluate import make_split
from stratlogit.network import Partition, build_graph, girvan_newman
from stratlogit.emit import report_payload, to_json
from stratlogit.pipeline import RunConfig, run_pipeline
from stratlogit.stats_core import two_sided_p, vif

SCHOLARS = str(DATA / "synthetic_scholars.csv")


@contextmanager
def criterion(label):
    failures = []
    try:
        yield failures
    except BaseException:
        print(f"[FAIL] {label}")
        raise
    print(f"[{'PASS' if not failures else 'FAIL'}] {label}")
    assert not failures, f"{label}: " + "; ".join(failures[:10])


def check(failures, ok, msg):
    if not ok:
        failures.append(msg)


def test_01_information_criteria_anchors():
    with criterion("01 information-criteria anchors (<1ms)") as f:
        information_criteria(-1.0, 1, 2)  # warm
        t0 = time.perf_counter()
        aic10, bic10 = information_criteria(-91.334, 10, 321)
        aic7, _ = information_criteria(-92.242, 7, 321)
        elapsed = time.perf_counter() - t0
        check(f, abs(aic10 - 202.668) <= 0.001, f"aic10={aic10}")
        check(f, abs(bic10 - 240.383) <= 0.001, f"bic10={bic10}")
        check(f, abs(aic7 - 198.484) <= 0.001, f"aic7={aic7}")
        check(f, elapsed < 0.001, f"took {elapsed * 1e3:.3f} ms")


def test_02_pseudo_r2_anchors():
    with criterion("02 pseudo-R2 anchors") as f:
        full = pseudo_r2(-91.334, -222.237)
        reduced = pseudo_r2(-92.242, -222.237)
        check(f, abs(full - 0.589) <= 0.0005, f"full={full}")
        check(f, abs(reduced - 0.585) <= 0.0005, f"reduced={reduced}")


def test_03_inference_table_anchors():
    with criterion("03 inference-table anchors") as f:
        inf = coefficient_inference([0.266868], [0.088335])
        check(f, abs(inf.z[0] - 3.021089) <= 1e-4, f"z={inf.z[0]}")
        check(f, abs(inf.exp_b[0] - 1.305868) <= 1e-4, f"exp_b={inf.exp_b[0]}")
        check(f, abs(inf.wald[0] - 9.126986) <= 1e-3, f"wald={inf.wald[0]}")
        check(f, abs(inf.p_two_sided[0] - 0.002519) <= 5e-5, f"p={inf.p_two_sided[0]}")
        p_aw = two_sided_p(3.886651)
        check(f, abs(p_aw - 0.000102) <= 5e-6, f"p_aw={p_aw}")


def test_04_mle_recovery_and_gradient():
    with criterion("04 MLE recovery and analytic gradient (<30s)") as f:
        t0 = time.perf_counter()
        hits = 0
        for seed in range(50):
            design, beta_true = make_problem(seed, n=2000, p=3)
            fit = fit_logistic(design)
            if np.all(np.abs(fit.coef - beta_true) <= 3.0 * fit.std_err):
                hits += 1
        check(f, hits >= 48, f"coefficient recovery {hits}/50")
        h = 1e-6
        worst = 0.0
        for seed in range(20):
            design, _ = make_problem(seed + 500, n=80, p=3)
            rng = np.random.Generator(np.random.PCG64(seed))
            beta = rng.uniform(-0.8, 0.8, design.X.shape[1])
            grad = gradient_ref(beta, design.X, design.y)
            for j in range(design.X.shape[1]):
                e = np.zeros(design.X.shape[1])
                e[j] = h
                fd = (
                    log_likelihood_ref(beta + e, design.X, design.y)
                    - log_likelihood_ref(beta - e, design.X, design.y)
                ) / (2 * h)
                rel = abs(grad[j] - fd) / max(1.0, abs(fd))
                worst = max(worst, rel)
        check(f, worst <= 1e-5, f"gradient rel err {worst:.2e}")
        elapsed = time.perf_counter() - t0
        check(f, elapsed < 30.0, f"took {elapsed:.1f}s")


def test_05_shap_exactness():
    with criterion("05 attribution additivity and coalition oracle (<60s)") as f:
        t0 = time.perf_counter()
        worst_add = 0.0
        fits = []
        for seed, p in ((1, 2), (2, 4), (3, 6), (4, 9)):
            design, _ = make_problem(seed, n=300, p=p)
            fit = fit_logistic(design)
            X = design.X[:, 1:]
            mu = X.mean(axis=0)
            s = linear_shap(fit, X, mu)
            eta = design.X @ fit.coef
            gap = np.max(np.abs(s.base_value + s.values.sum(axis=1) - eta))
            worst_add = max(worst_add, gap)
            fits.append((fit, X, mu))
        check(f, worst_add <= 1e-10, f"additivity gap {worst_add:.2e}")

        rng = np.random.Generator(np.random.PCG64(99))
        worst_kernel = 0.0
        for case in range(100):
            p = int(rng.integers(1, 11))
            design, _ = make_problem(1000 + case, n=120, p=p)
            fit = fit_logistic(design)
            X = design.X[:, 1:]
            mu = X.mean(axis=0)
            row = int(rng.integers(0, X.shape[0]))
            phi_kernel = kernel_shap(fit, X[row], mu)
            phi_linear = linear_shap(fit, X[row : row + 1], mu).values[0]
            worst_kernel = max(worst_kernel, float(np.max(np.abs(phi_kernel - phi_linear))))
        check(f, worst_kernel <= 1e-9, f"kernel gap {worst_kernel:.2e}")
        elapsed = time.perf_counter() - t0
        check(f, elapsed < 60.0, f"took {elapsed:.1f}s")


def _planted_problem(seed, p):
    """p columns, last one pure noise, the rest informative."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = 500
    X = rng.normal(size=(n, p))
    beta = rng.uniform(0.8, 1.5, p) * rng.choice([-1.0, 1.0], p)
    beta[-1] = 0.0
    eta = 0.1 + X @ beta
    y = (rng.random(n) < sigmoid_ref(eta)).astype(np.int64)
    y[0], y[1] = 0, 1
    names = tuple(f"x{j}" for j in range(p - 1)) + ("noise",)
    return FeatureMatrix(
        column_names=names,
        values=X,
        target=y,
        row_ids=tuple(f"r{i:04d}" for i in range(n)),
    )


def test_06_search_coherence():
    with criterion("06 enumeration vs stepwise coherence") as f:
        noise_first = 0
        for run in range(20):
            p = 3 + run % 6  # cycles 3..8
            m = _planted_problem(run, p)
            split = make_split(m.n_rows, train_fraction=0.7, seed=run)
            table = fit_all(m, enumerate_subsets(m.column_names), split)
            enum_best = table.sorted_by_aic().rows[0].aic
            path = backward_stepwise(m, split, full_fit(m, split)).rows
            step_best = path[-1].aic
            check(
                f,
                enum_best <= step_best + 1e-9,
                f"run {run}: enumeration {enum_best} > stepwise {step_best}",
            )
            if len(path) >= 2:
                dropped = set(path[0].spec.features) - set(path[1].spec.features)
                if dropped == {"noise"}:
                    noise_first += 1
        check(f, noise_first >= 18, f"noise eliminated first in {noise_first}/20")


def _vif_bruteforce(values):
    n, p = values.shape
    out = np.empty(p)
    for j in range(p):
        yj = values[:, j]
        others = np.delete(values, j, axis=1)
        A = np.column_stack([np.ones(n), others])
        coef, *_ = np.linalg.lstsq(A, yj, rcond=None)
        resid = yj - A @ coef
        sst = float(np.sum((yj - yj.mean()) ** 2))
        r2 = 1.0 - float(np.sum(resid**2)) / sst
        out[j] = 1.0 / (1.0 - r2)
    return out


def test_07_vif_oracle():
    with criterion("07 VIF equals OLS brute force") as f:
        rng = np.random.Generator(np.random.PCG64(17))
        worst = 0.0
        for case in range(50):
            p = int(rng.integers(2, 7))
            base = rng.normal(size=(200, p))
            # mix columns so correlation is non-trivial
            mix = np.eye(p) + rng.uniform(-0.4, 0.4, (p, p))
            values = base @ mix
            got = vif(values, tuple(f"c{j}" for j in range(p)))
            want = _vif_bruteforce(values)
            worst = max(worst, float(np.max(np.abs(got - want))))
        check(f, worst <= 1e-8, f"worst gap {worst:.2e}")
        x = rng.normal(size=200)
        y = 0.6 * x + 0.8 * rng.normal(size=200)
        r = float(np.corrcoef(x, y)[0, 1])
        got = vif(np.column_stack([x, y]), ("x", "y"))
        closed = 1.0 / (1.0 - r * r)
        gap2 = float(np.max(np.abs(got - closed)))
        check(f, gap2 <= 1e-9, f"two-column gap {gap2:.2e}")


def test_08_auc_oracle():
    with criterion("08 AUC equals pair counting") as f:
        rng = np.random.Generator(np.random.PCG64(23))
        worst = 0.0
        for case in range(200):
            n = int(rng.integers(4, 51))
            y = (rng.random(n) < 0.5).astype(np.int64)
            y[0], y[1] = 0, 1
            scores = np.round(rng.random(n), int(rng.integers(1, 3)))
            curve = roc_auc(scores, y)
            pos = scores[y == 1]
            neg = scores[y == 0]
            wins = 0.0
            for sp in pos:
                for sn in neg:
                    wins += 1.0 if sp > sn else (0.5 if sp == sn else 0.0)
            oracle = wins / (len(pos) * len(neg))
            worst = max(worst, abs(curve.auc - oracle))
        check(f, worst <= 1e-12, f"worst gap {worst:.2e}")
        perfect = roc_auc(
            np.array([0.9, 0.8, 0.7, 0.2, 0.1]), np.array([1, 1, 1, 0, 0])
        )
        check(f, perfect.auc == 1.0, f"perfect separation auc={perfect.auc}")


def _bfs_counts(adj, s):
    dist = {s: 0}
    sigma = {s: 1}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
            if dist[w] == dist[v] + 1:
                sigma[w] = sigma.get(w, 0) + sigma[v]
    return dist, sigma


def _brute_betweenness(g):
    dist, sigma = {}, {}
    adj = adjacency(g)
    for s in g.nodes:
        dist[s], sigma[s] = _bfs_counts(adj, s)
    btw = {(u, v): 0.0 for u, v, _ in g.edges}
    for s, t in itertools.combinations(g.nodes, 2):
        if t not in dist[s]:
            continue
        dst, nst = dist[s][t], sigma[s][t]
        for u, v in btw:
            for a, b in ((u, v), (v, u)):
                if a in dist[s] and b in dist[t] and dist[s][a] + 1 + dist[t][b] == dst:
                    btw[(u, v)] += sigma[s][a] * sigma[t][b] / nst
    return btw


def _connected_random_graph(seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    for bump in range(200):
        k = int(rng.integers(3, 13))
        names = [f"n{i:02d}" for i in range(k)]
        rows = [
            (a, b)
            for a, b in itertools.combinations(names, 2)
            if rng.random() < 0.4
        ]
        if not rows:
            continue
        g = build_graph(rows)
        if g.n_nodes != k:
            continue
        adj = adjacency(g)
        seen = {names[0]}
        queue = deque([names[0]])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        if len(seen) == k:
            return g
    raise AssertionError("no connected graph generated")


def test_09_community_detection_oracles():
    with criterion("09 betweenness oracle, bridge cut, modularity") as f:
        worst = 0.0
        for case in range(100):
            g = _connected_random_graph(3000 + case)
            fast = edge_betweenness(g)
            slow = _brute_betweenness(g)
            for edge in fast:
                worst = max(worst, abs(fast[edge] - slow[edge]))
        check(f, worst <= 1e-9, f"betweenness gap {worst:.2e}")

        g = build_graph(
            [
                ("a", "b"),
                ("a", "c"),
                ("b", "c"),
                ("c", "d"),
                ("d", "e"),
                ("d", "f"),
                ("e", "f"),
            ]
        )
        btw = edge_betweenness(g)
        check(f, abs(btw[("c", "d")] - 9.0) <= 1e-12, f"bridge btw={btw[('c', 'd')]}")
        dendrogram, best = girvan_newman(g)
        check(
            f,
            dendrogram[1].removed_edge == ("c", "d"),
            f"first cut {dendrogram[1].removed_edge}",
        )
        # direct double-sum modularity of the 2-block split
        assignment = {n: (0 if n in "abc" else 1) for n in g.nodes}
        deg = {n: 0.0 for n in g.nodes}
        for u, v, w in g.edges:
            deg[u] += w
            deg[v] += w
        m2 = 2.0 * g.total_weight
        adj_w = {}
        for u, v, w in g.edges:
            adj_w[(u, v)] = adj_w[(v, u)] = w
        direct = sum(
            adj_w.get((u, v), 0.0) - deg[u] * deg[v] / m2
            for u in g.nodes
            for v in g.nodes
            if assignment[u] == assignment[v]
        ) / m2
        two_block = Partition(assignment=assignment, n_communities=2, modularity=0.0)
        gap = abs(modularity_ref(g, two_block) - direct)
        check(f, gap <= 1e-12, f"modularity gap {gap:.2e}")
        check(
            f,
            best.n_communities == 2 and abs(best.modularity - direct) <= 1e-12,
            f"best partition {best.n_communities} Q={best.modularity}",
        )
        one = Partition(
            assignment={n: 0 for n in g.nodes}, n_communities=1, modularity=0.0
        )
        check(f, modularity_ref(g, one) == 0.0, "one-community Q not exactly 0")


def test_10_lowess_reproduction():
    with criterion("10 trend smoother reproduction") as f:
        x = np.linspace(0, 4, 57)
        const = lowess(x, np.full(57, -2.75), frac=0.5)
        check(f, all(v == -2.75 for v in const.y), "constant input not exact")

        line = lowess(x, 1.5 * x - 2.0, frac=1.0)
        gap_line = float(np.max(np.abs(line.y - (1.5 * line.x - 2.0))))
        check(f, gap_line <= 1e-9, f"linear gap {gap_line:.2e}")

        rng = np.random.Generator(np.random.PCG64(31))
        xs = np.sort(rng.random(200) * 8 - 4)
        ys = 1.0 / (1.0 + np.exp(-1.7 * xs)) + rng.normal(0, 0.08, 200)
        frac = 2.0 / 3.0
        curve = lowess(xs, ys, frac=frac)
        r = min(200, max(2, math.ceil(frac * 200)))
        worst = 0.0
        for i, x0 in enumerate(curve.x):
            d = np.abs(xs - x0)
            h = np.sort(d)[r - 1]
            u = d / h
            tri = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
            coeffs = np.polyfit(xs, ys, 1, w=np.sqrt(tri))
            worst = max(worst, abs(curve.y[i] - np.polyval(coeffs, x0)))
        check(f, worst <= 1e-6, f"reference gap {worst:.2e}")


def test_11_end_to_end_determinism():
    with criterion("11 byte-identical pipeline reruns") as f:
        cfg = RunConfig(input_path=SCHOLARS)
        first = run_pipeline(cfg)
        second = run_pipeline(cfg)
        a = to_json(report_payload(first))
        b = to_json(report_payload(second))
        check(f, a == b, "rerun JSON differs")
        check(
            f,
            first.split.n_train == 321,
            f"n_train={first.split.n_train}",
        )
        check(
            f,
            first.split.train_fraction == 0.7,
            f"train_fraction={first.split.train_fraction}",
        )


def _record(i, **overrides):
    base = dict(
        scholar_id=f"S{i:04d}",
        account_days=100 + i,
        post_count=40 + i,
        followers_current=30 + i,
        followers_historical=0,
        followed_count=20 + i,
        publications=4,
        citations=9,
        per_cited=2.25,
        amount_weight=3,
        h_index=2,
        professional_declaration=True,
        science_dedicated=True,
    )
    base.update(overrides)
    return base


def _tiny_dataset(records):
    return make_dataset(records, "fuzz")


def test_12_degenerate_input_contract():
    with criterion("12 degenerate inputs raise typed errors (1000 cases)") as f:
        rng = np.random.Generator(np.random.PCG64(77))
        for case in range(1000):
            family = case % 5
            try:
                if family == 0:
                    # zero account age blocks the posting-rate indicator
                    bad_pos = int(rng.integers(0, 4))
                    records = [
                        _record(i, account_days=0 if i == bad_pos else 100 + i)
                        for i in range(4)
                    ]
                    build_feature_matrix(_tiny_dataset(records))
                elif family == 1:
                    # zero followers blocks the following-ratio indicator
                    bad_pos = int(rng.integers(0, 4))
                    records = [
                        _record(i, followers_current=0 if i == bad_pos else 30 + i)
                        for i in range(4)
                    ]
                    build_feature_matrix(_tiny_dataset(records))
                elif family == 2:
                    label = float(rng.integers(0, 2))
                    n = int(rng.integers(8, 30))
                    X = rng.normal(size=(n, 2))
                    fit_logistic(
                        DesignMatrix(
                            X=np.column_stack([np.ones(n), X]),
                            y=np.full(n, label),
                            feature_names=("a", "b"),
                        )
                    )
                elif family == 3:
                    # perfectly separated with a gap too narrow for the
                    # likelihood to flatten inside the coefficient bound
                    n_half = int(rng.integers(8, 20))
                    gap = float(rng.uniform(0.01, 0.2))
                    x = np.concatenate(
                        [
                            rng.uniform(-3.0, -gap, n_half),
                            rng.uniform(gap, 3.0, n_half),
                        ]
                    )
                    # pin the margin: the slope must exceed the bound
                    # before the likelihood can flatten out
                    x[0], x[n_half] = -gap, gap
                    y = (x > 0).astype(float)
                    fit_logistic(
                        DesignMatrix(
                            X=np.column_stack([np.ones(2 * n_half), x]),
                            y=y,
                            feature_names=("x",),
                        )
                    )
                else:
                    n = int(rng.integers(10, 40))
                    base_col = rng.normal(size=n)
                    scale = float(rng.uniform(0.5, 3.0))
                    y = (rng.random(n) < 0.5).astype(float)
                    y[0], y[1] = 0.0, 1.0
                    fit_logistic(
                        DesignMatrix(
                            X=np.column_stack([np.ones(n), base_col, scale * base_col]),
                            y=y,
                            feature_names=("a", "b"),
                        )
                    )
            except DegenerateInputError:
                ok = family in (0, 1, 2)
                check(f, ok, f"case {case} family {family}: DegenerateInputError")
            except SeparationError:
                check(f, family == 3, f"case {case} family {family}: SeparationError")
            except SingularMatrixError:
                check(f, family == 4, f"case {case} family {family}: SingularMatrixError")
            except StratLogitError as exc:
                check(f, False, f"case {case} family {family}: {type(exc).__name__}")
            except Exception as exc:  # noqa: BLE001 - the contract under test
                check(f, False, f"case {case} family {family}: UNTYPED {type(exc).__name__}")
            else:
                check(f, False, f"case {case} family {family}: no error raised")
            if len(f) > 10:
                break


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-v", "-s"]))
