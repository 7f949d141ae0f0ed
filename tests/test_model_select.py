"""Subset enumeration, comparison tables, and backward stepwise search."""

import csv
import functools
from dataclasses import replace

import numpy as np
import pytest

from conftest import fit_one_ref
from stratlogit import model_select
from stratlogit.emit import write_comparison_csv
from stratlogit.errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    SingularMatrixError,
    StratLogitError,
)
from stratlogit.evaluate import ConfusionMatrix, classify, make_split, metrics, predict_prob
from stratlogit.indicators import FeatureMatrix
from stratlogit.logit import DesignMatrix, fit_logistic
from stratlogit.model_select import (
    ComparisonTable,
    ModelSpec,
    backward_stepwise,
    comparison_to_dicts,
    enumerate_subsets,
    fit_all,
)


def planted_matrix(n=240, seed=0, noise_cols=2):
    """Signal in s0/s1, pure noise elsewhere. Returns matrix + names."""
    rng = np.random.Generator(np.random.PCG64(seed))
    signal = rng.normal(size=(n, 2))
    noise = rng.normal(size=(n, noise_cols))
    eta = -0.2 + 1.6 * signal[:, 0] - 1.3 * signal[:, 1]
    target = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    target[0], target[1] = 0, 1
    names = ("s0", "s1") + tuple(f"noise{j}" for j in range(noise_cols))
    m = FeatureMatrix(
        column_names=names,
        values=np.column_stack([signal, noise]),
        target=target,
        row_ids=tuple(f"r{i:04d}" for i in range(n)),
    )
    return m, names


class TestEnumeration:
    def test_binary_counter_order(self):
        specs = enumerate_subsets(("x0", "x1", "x2"))
        got = [s.features for s in specs]
        assert got == [
            ("x0",),
            ("x1",),
            ("x0", "x1"),
            ("x2",),
            ("x0", "x2"),
            ("x1", "x2"),
            ("x0", "x1", "x2"),
        ]

    def test_count_is_full_powerset_minus_empty(self):
        assert len(enumerate_subsets(tuple(f"c{i}" for i in range(9)))) == 511

    def test_width_guard(self):
        with pytest.raises(ConfigError):
            enumerate_subsets(tuple(f"c{i}" for i in range(16)))
        with pytest.raises(ConfigError):
            enumerate_subsets(())


class TestModelSpec:
    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ConfigError):
            ModelSpec(features=())
        with pytest.raises(ConfigError):
            ModelSpec(features=("a", "a"))


class TestFitAll:
    def test_rows_align_with_specs(self):
        m, names = planted_matrix()
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        specs = enumerate_subsets(names[:2])
        table = fit_all(m, specs, split)
        assert len(table.rows) == 3
        assert [r.spec.features for r in table.rows] == [s.features for s in specs]
        assert [r.model_id for r in table.rows] == ["model_001", "model_002", "model_003"]
        for r in table.rows:
            assert not r.failed
            assert r.n_train == split.n_train
            assert r.k_params == len(r.spec.features) + 1
            assert set(r.coefficients) == {"intercept", *r.spec.features}
            assert r.aic == pytest.approx(2 * r.k_params - 2 * r.log_lik)

    def test_unknown_column_rejected_upfront(self):
        m, _ = planted_matrix()
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        with pytest.raises(DataError):
            fit_all(m, [ModelSpec(features=("nope",))], split)

    def test_failed_candidate_recorded_not_dropped(self):
        rng = np.random.Generator(np.random.PCG64(4))
        x = rng.normal(size=60)
        values = np.column_stack([x, 2.0 * x])
        target = (rng.random(60) < 0.5).astype(np.int64)
        target[0], target[1] = 0, 1
        m = FeatureMatrix(
            column_names=("a", "b"),
            values=values,
            target=target,
            row_ids=tuple(f"r{i}" for i in range(60)),
        )
        split = make_split(60, train_fraction=0.7, seed=0)
        table = fit_all(m, enumerate_subsets(("a", "b")), split)
        by_features = {r.spec.features: r for r in table.rows}
        # the collinear pair fails; the singletons survive
        assert by_features[("a", "b")].failed
        assert by_features[("a", "b")].failure
        assert not by_features[("a",)].failed
        assert not by_features[("b",)].failed

    def test_thread_count_does_not_change_table(self, monkeypatch):
        m, names = planted_matrix(n=160)
        split = make_split(m.n_rows, train_fraction=0.7, seed=1)
        specs = enumerate_subsets(names)
        monkeypatch.setenv("STRAT_THREADS", "1")
        serial = fit_all(m, specs, split)
        monkeypatch.setenv("STRAT_THREADS", "4")
        threaded = fit_all(m, specs, split)
        assert comparison_to_dicts(serial) == comparison_to_dicts(threaded)

    def test_env_thread_override(self, monkeypatch):
        m, names = planted_matrix(n=120)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        monkeypatch.setenv("STRAT_THREADS", "2")
        table = fit_all(m, enumerate_subsets(names[:2]), split)
        assert len(table.rows) == 3
        monkeypatch.setenv("STRAT_THREADS", "zero")
        with pytest.raises(ConfigError):
            fit_all(m, enumerate_subsets(names[:2]), split)
        monkeypatch.setenv("STRAT_THREADS", "0")
        with pytest.raises(ConfigError):
            fit_all(m, enumerate_subsets(names[:2]), split)


class TestTableOrdering:
    def test_sorted_by_aic_with_failures_last(self):
        m, names = planted_matrix()
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        table = fit_all(m, enumerate_subsets(names), split)
        ordered = table.sorted_by_aic().rows
        ok = [r for r in ordered if not r.failed]
        aics = [r.aic for r in ok]
        assert aics == sorted(aics)
        assert all(r.failed for r in ordered[len(ok):])
        assert table.best_row().aic == aics[0]

    def test_aic_ties_break_on_fewer_params(self):
        spec_a = ModelSpec(features=("a",))
        spec_ab = ModelSpec(features=("a", "b"))
        base = dict(
            n_train=10,
            converged=True,
            iterations=3,
            failed=False,
            failure=None,
            coefficients={"intercept": 0.0},
            log_lik=-5.0,
            log_lik_null=-6.0,
            pseudo_r2=0.1,
            llr_p=0.5,
            bic=1.0,
            accuracy=0.5,
            precision=None,
            recall=None,
            f1=None,
        )
        from stratlogit.model_select import ModelRow

        rows = (
            ModelRow(model_id="model_001", spec=spec_ab, k_params=3, aic=7.0, **base),
            ModelRow(model_id="model_002", spec=spec_a, k_params=2, aic=7.0, **base),
        )
        ordered = ComparisonTable(rows=rows).sorted_by_aic().rows
        assert [r.model_id for r in ordered] == ["model_002", "model_001"]

    def test_all_failed_table_has_no_best(self):
        from stratlogit.model_select import ModelRow

        row = ModelRow(
            model_id="model_001",
            spec=ModelSpec(features=("a",)),
            n_train=10,
            k_params=None,
            converged=False,
            iterations=None,
            failed=True,
            failure="separation: boom",
            coefficients=None,
            log_lik=None,
            log_lik_null=None,
            pseudo_r2=None,
            llr_p=None,
            aic=None,
            bic=None,
            accuracy=None,
            precision=None,
            recall=None,
            f1=None,
        )
        with pytest.raises(DegenerateInputError):
            ComparisonTable(rows=(row,)).best_row()


class TestStepwise:
    def test_prunes_noise_keeps_signal(self):
        m, _ = planted_matrix(n=400, seed=3, noise_cols=4)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        res = backward_stepwise(m, split)
        assert {"s0", "s1"} <= set(res.best.features)
        path = res.path.rows
        assert path[0].model_id == "step_000"
        assert len(path[0].spec.features) == 6
        # strictly improving AIC along the accepted path
        aics = [r.aic for r in path]
        assert all(b < a for a, b in zip(aics, aics[1:]))
        # each step removes exactly one feature
        sizes = [len(r.spec.features) for r in path]
        assert all(a - b == 1 for a, b in zip(sizes, sizes[1:]))
        assert res.best.features == path[-1].spec.features

    def test_never_beats_enumeration(self):
        for seed in range(5):
            m, names = planted_matrix(n=200, seed=seed, noise_cols=3)
            split = make_split(m.n_rows, train_fraction=0.7, seed=seed)
            table = fit_all(m, enumerate_subsets(names), split)
            best_enum = table.best_row().aic
            res = backward_stepwise(m, split)
            assert res.path.rows[-1].aic >= best_enum - 1e-9

    def test_starts_from_every_column(self):
        m, _ = planted_matrix(n=200, seed=8, noise_cols=3)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        res = backward_stepwise(restrict(m, ("s0", "noise0")), split)
        assert res.path.rows[0].spec.features == ("s0", "noise0")
        assert set(res.best.features) <= {"s0", "noise0"}

    def test_unusable_start_is_typed_error(self):
        rng = np.random.Generator(np.random.PCG64(4))
        x = rng.normal(size=60)
        m = FeatureMatrix(
            column_names=("a", "b"),
            values=np.column_stack([x, -x]),
            target=np.array([0, 1] * 30, dtype=np.int64),
            row_ids=tuple(f"r{i}" for i in range(60)),
        )
        split = make_split(60, train_fraction=0.7, seed=0)
        with pytest.raises(DegenerateInputError):
            backward_stepwise(m, split)


def restrict(m, names):
    """``m`` with only the columns ``names``, non-finite cells included."""
    sub = FeatureMatrix(
        column_names=tuple(names),
        values=np.zeros((m.n_rows, len(names))),
        target=m.target,
        row_ids=m.row_ids,
    )
    sub.values[:] = m.values[:, [m.column_names.index(name) for name in names]]
    return sub


def stepwise_ref(m, split, max_iter, tol):
    """Backward deletion over ``fit_one_ref`` rows, one candidate at a
    time: the oracle for ``backward_stepwise``."""
    features = tuple(m.column_names)
    row = fit_one_ref(m, ModelSpec(features), split, max_iter, tol, "step_000")
    if row.failed:
        raise DegenerateInputError(
            f"backward_stepwise: starting model unusable ({row.failure})"
        )
    path = [row]
    while len(features) > 1:
        rows = [
            fit_one_ref(
                m, ModelSpec(features[:i] + features[i + 1 :]), split, max_iter, tol, "candidate"
            )
            for i in range(len(features))
        ]
        usable = [r for r in rows if not r.failed]
        if not usable:
            break
        best = min(usable, key=lambda r: r.aic)  # the first of tied minima
        if best.aic >= row.aic:
            break
        row = replace(best, model_id=f"step_{len(path):03d}")
        features = row.spec.features
        path.append(row)
    return tuple(path)


def outcome(call):
    """repr of what ``call`` returns (every float to the bit), or the
    class and text of the StratLogitError it raises."""
    try:
        return repr(call())
    except StratLogitError as exc:
        return f"{type(exc).__name__}: {exc}"


# case: (rows, max_iter, (split part, column) of a NaN cell or None, text
# the oracle's outcome must contain, so each case exercises its failure)
PARITY_CASES = {
    "hostile": (150, 1000, None, ("is constant", "rank deficient", "separable")),
    "max_iter_2": (150, 2, None, ("not converged in 2 iterations",)),
    "n_le_k": (10, 1000, None, ("need more observations",)),
    "nonfinite_validation": (150, 1000, ("val", 0), ("predict_prob: non-finite features",)),
    # Every candidate with the NaN's column fails to fit, so none is
    # scored and the table comes back ("accuracy=" is in its repr).
    "nonfinite_validation_unfitted": (150, 1000, ("val", 5), ("separable", "accuracy=")),
    "nonfinite_training": (150, 1000, ("train", 2), ("contains non-finite values",)),
}


@functools.lru_cache(maxsize=None)
def parity_problem(case):
    """(matrix, split, max_iter, oracle fit_all outcome) of a parity case.

    The columns are signal (s0, s1), noise, a constant, a copy of s0 and
    one that separates the classes.
    """
    n, max_iter, nan_cell, expect = PARITY_CASES[case]
    rng = np.random.Generator(np.random.PCG64(20 + n))
    signal = rng.normal(size=(n, 2))
    eta = 0.3 + 1.2 * signal[:, 0] - 0.9 * signal[:, 1]
    target = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(np.int64)
    target[:4] = (0, 1, 0, 1)
    # A narrow margin: its slope passes the coefficient bound.
    separating = np.where(target == 1, 1.0, -1.0) * rng.uniform(0.01, 1.0, n)
    m = FeatureMatrix(
        column_names=("s0", "s1", "noise", "const", "dup", "sep"),
        values=np.column_stack(
            [signal, rng.normal(size=n), np.full(n, 2.0), signal[:, 0], separating]
        ),
        target=target,
        row_ids=tuple(f"r{i:04d}" for i in range(n)),
    )
    split = make_split(n, train_fraction=0.7, seed=0)
    if nan_cell is not None:
        part, column = nan_cell
        rows = split.val_indices if part == "val" else split.train_indices
        m.values[rows[0], column] = np.nan  # past FeatureMatrix's own check
    specs = enumerate_subsets(m.column_names)
    want = outcome(
        lambda: tuple(
            fit_one_ref(m, spec, split, max_iter, 1e-8, f"model_{i + 1:03d}")
            for i, spec in enumerate(specs)
        )
    )
    for text in expect:
        assert text in want, (case, text)
    return m, split, max_iter, want


class TestBatchParity:
    """Batched fits equal one ``fit_logistic`` call per candidate, row for
    row and bit for bit, failure text included."""

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_fit_all_equals_oracle(self, case, threads, monkeypatch):
        m, split, max_iter, want = parity_problem(case)
        specs = enumerate_subsets(m.column_names)
        monkeypatch.setenv("STRAT_THREADS", threads)
        got = outcome(lambda: fit_all(m, specs, split, max_iter=max_iter).rows)
        assert got == want

    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("values", [1, 1 << 30])  # one design per batch; one batch a size
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_batch_size_does_not_change_table(self, case, values, threads, monkeypatch):
        m, split, max_iter, want = parity_problem(case)
        monkeypatch.setattr(model_select, "_BATCH_VALUES", values)
        specs = enumerate_subsets(m.column_names)
        monkeypatch.setenv("STRAT_THREADS", threads)
        got = outcome(lambda: fit_all(m, specs, split, max_iter=max_iter).rows)
        assert got == want

    def test_stacked_scores_equal_per_fit_scores(self):
        # Each fit's scoring error comes from predict_prob (a non-finite
        # validation value) or classify (a NaN coefficient, so a NaN
        # probability); a failed fit is not scored.
        m, split, _, _ = parity_problem("hostile")
        cols = model_select._Columns.build(m, split)
        fit = fit_logistic(
            DesignMatrix.from_features(m, ("s0", "s1"), rows=split.train_indices)
        )
        val = cols.val.copy()
        val[3, 2] = np.nan
        cols = replace(cols, val=val)
        outcomes = [
            fit,
            replace(fit, coef=np.array([0.1, np.nan, 0.2])),
            SingularMatrixError("not fitted"),
            fit,
            replace(fit, coef=-fit.coef),
        ]
        val_cols = np.array([[0, 1], [0, 1], [0, 1], [0, 2], [1, 0]])
        got = model_select._score(cols, val_cols, outcomes)
        texts = []
        for o, cs, score in zip(outcomes, val_cols, got):
            if isinstance(o, StratLogitError):
                assert score is None
                continue
            want = outcome(
                lambda: metrics(
                    ConfusionMatrix.from_predictions(
                        cols.val_target, classify(predict_prob(o, val[:, cs]))
                    )
                )
            )
            if isinstance(score, StratLogitError):
                score = f"{type(score).__name__}: {score}"
            else:
                score = repr(score)
            assert score == want
            texts.append(want)
        assert "probabilities" in texts[1] and "non-finite features" in texts[2], texts

    @pytest.mark.parametrize("start", [None, ("s0", "s1", "noise")])
    @pytest.mark.parametrize("threads", ["1", "3"])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_backward_stepwise_equals_oracle(self, case, threads, start, monkeypatch):
        m, split, max_iter, _ = parity_problem(case)
        if start is not None:
            m = restrict(m, start)
        want = outcome(lambda: stepwise_ref(m, split, max_iter, 1e-8))
        monkeypatch.setenv("STRAT_THREADS", threads)
        got = outcome(lambda: backward_stepwise(m, split, max_iter=max_iter).path.rows)
        assert got == want


class TestExports:
    def test_csv_round_trip_shape(self, tmp_path):
        m, names = planted_matrix(n=160)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        table = fit_all(m, enumerate_subsets(names[:2]), split)
        out = tmp_path / "comparison.csv"
        write_comparison_csv(table, out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        header = rows[0]
        assert header == ["row", "model_001", "model_002", "model_003"]
        labels = [r[0] for r in rows]
        assert labels[:7] == [
            "row",
            "features",
            "n_train",
            "k_params",
            "converged",
            "failed",
            "failure",
        ]
        assert "coef_intercept" in labels and "aic" in labels
        by_label = {r[0]: r[1:] for r in rows}
        assert by_label["features"] == ["s0", "s1", "s0+s1"]
        # numeric cells parse back exactly via repr round-trip
        got = [float(v) for v in by_label["aic"]]
        assert got == [r.aic for r in table.rows]

    def test_undefined_metric_and_failed_fit_cells(self, tmp_path):
        from stratlogit.model_select import ModelRow

        scores = ("log_lik", "log_lik_null", "pseudo_r2", "llr_p", "aic", "bic", "accuracy")
        fitted = ModelRow(
            model_id="model_001",
            spec=ModelSpec(features=("a",)),
            n_train=10,
            k_params=2,
            converged=True,
            iterations=4,
            failed=False,
            failure=None,
            coefficients={"intercept": 0.25, "a": -1.5},
            precision=None,
            recall=None,
            f1=None,
            **dict.fromkeys(scores, 0.5),
        )
        failed = ModelRow(
            model_id="model_002",
            spec=ModelSpec(features=("a", "b")),
            n_train=10,
            k_params=None,
            converged=False,
            iterations=None,
            failed=True,
            failure="separation: boom",
            coefficients=None,
            **dict.fromkeys(scores + ("precision", "recall", "f1")),
        )
        out = tmp_path / "comparison.csv"
        write_comparison_csv(ComparisonTable(rows=(fitted, failed)), out)
        with open(out, newline="") as handle:
            by_label = {r[0]: r[1:] for r in csv.reader(handle)}
        # empty denominator on a fitted candidate: undefined; fit raised: empty
        for name in ("precision", "recall", "f1"):
            assert by_label[name] == ["undefined", ""]
        assert by_label["accuracy"] == ["0.5", ""]
        assert by_label["k_params"] == ["2", ""]
        assert by_label["failure"] == ["", "separation: boom"]
        assert by_label["coef_a"] == ["-1.5", ""]
        assert by_label["coef_b"] == ["", ""]

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(DegenerateInputError):
            write_comparison_csv(ComparisonTable(rows=()), tmp_path / "comparison.csv")

    def test_dict_export_matches_rows(self):
        m, names = planted_matrix(n=120)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        table = fit_all(m, enumerate_subsets(names[:2]), split)
        dicts = comparison_to_dicts(table)
        assert [d["model_id"] for d in dicts] == [r.model_id for r in table.rows]
        assert dicts[0]["features"] == list(table.rows[0].spec.features)
        assert dicts[0]["aic"] == table.rows[0].aic
