"""Subset enumeration, comparison tables, and backward stepwise search."""

import csv
import functools
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    comparison_to_dicts_ref,
    fit_one_ref,
    full_fit,
    gather_ref,
    made_fit,
    warm_start_ref,
)
from stratlogit import model_select
from stratlogit.emit import write_comparison_csv
from stratlogit.errors import (
    ConfigError,
    DataError,
    DegenerateInputError,
    SingularMatrixError,
    StratLogitError,
)
from stratlogit.evaluate import (
    ClassificationMetrics,
    ConfusionMatrix,
    classify,
    make_split,
    metrics,
    predict_prob,
)
from stratlogit.indicators import FeatureMatrix, build_feature_matrix
from stratlogit.ingest import filter_eligible
from stratlogit.logit import DesignMatrix, fit_logistic
from stratlogit.model_select import (
    ComparisonTable,
    ModelRow,
    ModelSpec,
    backward_stepwise,
    enumerate_subsets,
    fit_all,
)
from stratlogit.synth import make_scholar_dataset


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

    def test_full_fit_is_the_all_feature_row(self):
        # The given full fit is the all-feature row, scored as a fitted row
        # is; it is no candidate's warm start, so no other row moves.
        m, names = planted_matrix(noise_cols=3)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        specs = enumerate_subsets(names)
        full = full_fit(m, split)
        table = fit_all(m, specs, split, full=full)
        *rows, last = table.rows
        assert last.fit is full
        assert rows_repr([last]) == rows_repr(
            [fit_one_ref(m, specs[-1], split, 1000, 1e-8, last.model_id)]
        )
        assert rows_repr(rows) == rows_repr(fit_all(m, specs, split).rows[:-1])

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
        assert table.sorted_by_aic().rows[0].aic == aics[0]

    def test_aic_ties_break_on_fewer_params(self):
        # Log-likelihoods -0.5 at k = 3 and -1.5 at k = 2 both give AIC 7.0.
        spec_a = ModelSpec(features=("a",))
        spec_ab = ModelSpec(features=("a", "b"))
        rows = (
            ModelRow("model_001", spec_ab, 10, fit=made_fit(spec_ab.features, [0.0] * 3, -0.5)),
            ModelRow("model_002", spec_a, 10, fit=made_fit(spec_a.features, [0.0] * 2, -1.5)),
        )
        assert [(r.aic, r.k_params) for r in rows] == [(7.0, 3), (7.0, 2)]
        ordered = ComparisonTable(rows=rows).sorted_by_aic().rows
        assert [r.model_id for r in ordered] == ["model_002", "model_001"]


# ModelRow's views of its fit and of its validation score.
FIT_VIEWS = (
    "k_params",
    "converged",
    "iterations",
    "log_lik",
    "log_lik_null",
    "pseudo_r2",
    "llr_p",
    "aic",
    "bic",
)
SCORE_VIEWS = ("accuracy", "precision", "recall", "f1")


class TestRowView:
    """A row stores its fit, score or error; every statistic it shows is
    read off them, to the bit, and none can be set apart from them."""

    def check_view(self, rows):
        seen = set()
        for row in rows:
            fit, score = row.fit, row.score
            if fit is None:
                seen.add("error")
                assert row.error and score is None, row.model_id
                for name in FIT_VIEWS + SCORE_VIEWS + ("coefficients",):
                    want = False if name == "converged" else None
                    assert getattr(row, name) is want, (row.model_id, name)
                assert (row.failed, row.failure) == (True, row.error)
                continue
            seen.add("converged" if fit.converged else "not converged")
            assert row.error is None
            for source, names in ((fit, FIT_VIEWS), (score, SCORE_VIEWS)):
                for name in names:
                    assert repr(getattr(row, name)) == repr(getattr(source, name)), name
            assert list(row.coefficients) == ["intercept", *fit.feature_names]
            assert np.array(list(row.coefficients.values())).tobytes() == fit.coef.tobytes()
            assert row.failed == (not fit.converged)
            text = None if fit.converged else f"not converged in {fit.iterations} iterations"
            assert row.failure == text
        return seen

    def test_fixture_enumerate_table(self, fixture_matrix, fixture_split):
        specs = enumerate_subsets(fixture_matrix.column_names)
        table = fit_all(fixture_matrix, specs, fixture_split)
        assert len(table.rows) == 511
        assert "converged" in self.check_view(table.rows)

    @pytest.mark.parametrize("case", ["hostile", "max_iter_2", "nonfinite_validation_unfitted"])
    def test_parity_case_table(self, case):
        m, split, max_iter, _ = parity_problem(case)
        rows = fit_all(m, enumerate_subsets(m.column_names), split, max_iter=max_iter).rows
        seen = self.check_view(rows)
        want = {"hostile": "converged", "max_iter_2": "not converged"}.get(case, "error")
        assert {want, "error"} <= seen, seen

    def test_statistics_cannot_be_replaced(self):
        spec = ModelSpec(features=("a",))
        row = ModelRow("model_001", spec, 10, fit=made_fit(spec.features, [0.25, -1.5]))
        for name in FIT_VIEWS + SCORE_VIEWS + ("failed", "failure", "coefficients"):
            with pytest.raises(TypeError):
                replace(row, **{name: 1.0})
        renamed = replace(row, model_id="step_001")
        assert renamed.fit is row.fit and renamed.aic == row.aic
        # Rows compare by identity: their statistics live in the fit.
        assert renamed != row and row == row


class TestStepwise:
    def test_prunes_noise_keeps_signal(self):
        m, _ = planted_matrix(n=400, seed=3, noise_cols=4)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        full = full_fit(m, split)
        path = backward_stepwise(m, split, full).rows
        assert {"s0", "s1"} <= set(path[-1].spec.features)
        assert path[0].model_id == "step_000"
        assert path[0].fit is full  # the start is given, not refitted
        assert len(path[0].spec.features) == 6
        # strictly improving AIC along the accepted path
        aics = [r.aic for r in path]
        assert all(b < a for a, b in zip(aics, aics[1:]))
        # each step removes exactly one feature
        sizes = [len(r.spec.features) for r in path]
        assert all(a - b == 1 for a, b in zip(sizes, sizes[1:]))

    def test_never_beats_enumeration(self):
        for seed in range(5):
            m, names = planted_matrix(n=200, seed=seed, noise_cols=3)
            split = make_split(m.n_rows, train_fraction=0.7, seed=seed)
            table = fit_all(m, enumerate_subsets(names), split)
            best_enum = table.sorted_by_aic().rows[0].aic
            path = backward_stepwise(m, split, full_fit(m, split)).rows
            assert path[-1].aic >= best_enum - 1e-9

    def test_starts_from_every_column(self):
        m, _ = planted_matrix(n=200, seed=8, noise_cols=3)
        split = make_split(m.n_rows, train_fraction=0.7, seed=0)
        sub = restrict(m, ("s0", "noise0"))
        path = backward_stepwise(sub, split, full_fit(sub, split)).rows
        assert path[0].spec.features == ("s0", "noise0")
        assert set(path[-1].spec.features) <= {"s0", "noise0"}

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
        # The collinear start is a singular fit in the fit stage, so there
        # is no start to search from.
        with pytest.raises(SingularMatrixError, match="rank deficient"):
            full_fit(m, split)


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
    time, each from the current row's coefficients without the deleted
    one, after the fit stage's full fit: the oracle for
    ``backward_stepwise``."""
    full_fit(m, split, max_iter, tol)  # an unusable start fails here
    features = tuple(m.column_names)
    row = fit_one_ref(m, ModelSpec(features), split, max_iter, tol, "step_000")
    path = [row]
    while len(features) > 1:
        rows = []
        for i in range(len(features)):
            kept = features[:i] + features[i + 1 :]
            start = [row.coefficients["intercept"]] + [row.coefficients[f] for f in kept]
            rows.append(fit_one_ref(m, ModelSpec(kept), split, max_iter, tol, "candidate", start))
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


def scaled_budget(values, split):
    """A ``_BATCH_VALUES`` of ``values`` at 105 training rows, scaled to
    ``split``'s, so a budget cuts every case's specs alike."""
    return max(1, values * split.n_train // 105)


def batch_shapes(monkeypatch, call):
    """The (designs, columns) of each batch ``call`` fits, in order."""
    shapes = []
    real = model_select.fit_logistic_batch

    def spy(X, *args):
        shapes.append(X.shape[::2])
        return real(X, *args)

    with monkeypatch.context() as patch:
        patch.setattr(model_select, "fit_logistic_batch", spy)
        call()
    return shapes


def rows_repr(rows) -> str:
    """Every value of ``rows``, as ``comparison_to_dicts_ref`` reads them
    off each row's fit and score, in one repr (every float to the bit)."""
    return repr(comparison_to_dicts_ref(ComparisonTable(rows=tuple(rows))))


def outcome(call):
    """``rows_repr`` of the tuple of rows ``call`` returns (repr of anything
    else), or the class and text of the StratLogitError it raises."""
    try:
        got = call()
    except StratLogitError as exc:
        return f"{type(exc).__name__}: {exc}"
    return rows_repr(got) if isinstance(got, tuple) else repr(got)


# case: (rows, max_iter, (split part, column) of a NaN cell or None, text
# the oracle's outcome must contain, so each case exercises its failure)
PARITY_CASES = {
    "hostile": (150, 1000, None, ("is constant", "rank deficient", "separable")),
    "max_iter_2": (150, 2, None, ("not converged in 2 iterations",)),
    "n_le_k": (10, 1000, None, ("need more observations",)),
    "nonfinite_validation": (150, 1000, ("val", 0), ("predict_prob: non-finite features",)),
    # Every candidate with the NaN's column fails to fit, so none is
    # scored and the table comes back ("'accuracy': " is in its repr).
    "nonfinite_validation_unfitted": (150, 1000, ("val", 5), ("separable", "'accuracy': ")),
    "nonfinite_training": (150, 1000, ("train", 2), ("contains non-finite values",)),
}


def enumerate_ref(m, split, max_iter, tol):
    """``fit_one_ref`` rows of every subset in binary counter order, where
    each subset's one-smaller subsets come before it, each from its
    ``warm_start_ref`` start: the oracle for ``fit_all`` on
    ``enumerate_subsets``."""
    rows = []
    for i, spec in enumerate(enumerate_subsets(m.column_names)):
        start = warm_start_ref(spec.features, rows)
        rows.append(fit_one_ref(m, spec, split, max_iter, tol, f"model_{i + 1:03d}", start))
    return tuple(rows)


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
    want = outcome(lambda: enumerate_ref(m, split, max_iter, 1e-8))
    for text in expect:
        assert text in want, (case, text)
    return m, split, max_iter, want


class TestBatchParity:
    """Batched fits equal one ``fit_logistic`` call per candidate, row for
    row and bit for bit, failure text included."""

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_fit_all_equals_oracle(self, case):
        m, split, max_iter, want = parity_problem(case)
        specs = enumerate_subsets(m.column_names)
        got = outcome(lambda: fit_all(m, specs, split, max_iter=max_iter).rows)
        assert got == want

    # The budgets are stated for 105 training rows, the split of most
    # cases, and scaled to each case's (n_le_k has 7): 1 gives one design
    # per batch; 1500 cuts sizes 2 to 5 into several uneven batches (15
    # two-feature specs into 3 + 4 + 4 + 4); 3000 cuts them otherwise (15
    # into 7 + 8); the default _BATCH_VALUES, which
    # test_fit_all_equals_oracle runs, gives one batch per size.
    # test_each_budget_cuts_its_own_batches checks that the four differ.
    @pytest.mark.parametrize("values", [1, 1500, 3000])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_batch_size_does_not_change_table(self, case, values, monkeypatch):
        m, split, max_iter, want = parity_problem(case)
        monkeypatch.setattr(model_select, "_BATCH_VALUES", scaled_budget(values, split))
        specs = enumerate_subsets(m.column_names)
        got = outcome(lambda: fit_all(m, specs, split, max_iter=max_iter).rows)
        assert got == want

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_each_budget_cuts_its_own_batches(self, case, monkeypatch):
        m, split, max_iter, _ = parity_problem(case)
        specs = enumerate_subsets(m.column_names)
        shapes = {}
        for values in (None, 1, 1500, 3000):
            if values is not None:
                monkeypatch.setattr(model_select, "_BATCH_VALUES", scaled_budget(values, split))
            fit = functools.partial(fit_all, m, specs, split, max_iter)
            shapes[values] = batch_shapes(monkeypatch, lambda: outcome(fit))
            monkeypatch.undo()
        assert len({tuple(s) for s in shapes.values()}) == 4, shapes
        if case in ("hostile", "n_le_k"):  # every two-feature spec is batched
            pairs = {v: [b for b, k in s if k == 3] for v, s in shapes.items()}
            assert pairs == {None: [15], 1: [1] * 15, 1500: [3, 4, 4, 4], 3000: [7, 8]}

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

    # 700 cuts the three-feature start's first step (3 two-feature
    # candidates on 105 training rows, 315 values each) into batches of
    # 1 + 2; the six-feature starts fail before any step.
    @pytest.mark.parametrize("values", [1, 700, 1 << 30])
    @pytest.mark.parametrize("start", [None, ("s0", "s1", "noise")])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_backward_stepwise_equals_oracle(self, case, start, values, monkeypatch):
        m, split, max_iter, _ = parity_problem(case)
        if start is not None:
            m = restrict(m, start)
        want = outcome(lambda: stepwise_ref(m, split, max_iter, 1e-8))
        monkeypatch.setattr(model_select, "_BATCH_VALUES", values)
        got = outcome(
            lambda: backward_stepwise(m, split, full_fit(m, split, max_iter), max_iter).rows
        )
        assert got == want


def cold_search(monkeypatch):
    """Make every candidate fit from zeros, as a search without warm
    starts does: the same solver, with each batch's starts dropped."""
    real = model_select.fit_logistic_batch

    def cold(X, y, names, max_iter, tol, start, columns_ok):
        return real(X, y, names, max_iter, tol, None, columns_ok)

    monkeypatch.setattr(model_select, "fit_logistic_batch", cold)


def scholar_problem(n, seed):
    """(matrix, split) of a seeded synthetic scholar set, as ``report``
    builds them."""
    m = build_feature_matrix(filter_eligible(make_scholar_dataset(n, seed, None)))
    return m, make_split(m.n_rows, 0.7, 0)


class TestWarmStart:
    """Warm starts move coefficients within the solver's tolerance and
    the iteration counts, never the selection."""

    @pytest.mark.parametrize("n", [300, 800, 2000])
    def test_selects_the_cold_model(self, n, monkeypatch):
        for seed in range(1, 6):
            m, split = scholar_problem(n, seed)
            specs = enumerate_subsets(m.column_names)
            tables = []
            for cold in (False, True):
                if cold:
                    cold_search(monkeypatch)
                full = full_fit(m, split)
                tables.append((fit_all(m, specs, split), backward_stepwise(m, split, full)))
            monkeypatch.undo()
            (warm, warm_path), (cold, cold_path) = tables
            best = (
                (warm.sorted_by_aic().rows[0], cold.sorted_by_aic().rows[0]),
                (warm_path.rows[-1], cold_path.rows[-1]),
            )
            for got, want in best:
                assert got.spec == want.spec, (n, seed)
                assert abs(got.aic - want.aic) <= 1e-12 * abs(want.aic), (n, seed)
            assert [r.failed for r in warm.rows] == [r.failed for r in cold.rows], (n, seed)
            assert [r.spec for r in warm_path.rows] == [r.spec for r in cold_path.rows], (n, seed)

    def test_fixture_needs_fewer_iterations(self, fixture_matrix, fixture_split, monkeypatch):
        specs = enumerate_subsets(fixture_matrix.column_names)
        sums = []
        for cold in (False, True):
            if cold:
                cold_search(monkeypatch)
            table = fit_all(fixture_matrix, specs, fixture_split)
            sums.append(sum(r.iterations for r in table.rows))
        warm, cold = sums
        assert warm < cold, sums

    def test_parent_is_best_converged_subset(self):
        # Among the converged one-smaller subsets of ("a", "b", "c"), the
        # highest likelihood gives the start, the earlier spec on a tie;
        # a fit not listed as converged never does, however high its
        # likelihood.
        def fit(features, ll):
            coef = np.arange(len(features) + 1.0)
            return SimpleNamespace(feature_names=features, log_lik=ll, coef=coef)

        outcomes = [fit(("a", "b"), -5.0), fit(("b", "c"), -4.0), fit(("a", "c"), -4.0)]
        outcomes.append(fit(("a", "c"), 0.0))
        converged = {frozenset(f): [i] for i, f in enumerate((("a", "b"), ("b", "c"), ("a", "c")))}
        assert model_select._parent(("a", "b", "c"), outcomes, converged) is outcomes[1]
        assert model_select._start(outcomes[1], ("a", "b", "c")) == (0.0, 0.0, 1.0, 2.0)
        assert model_select._start(outcomes[1], ("c",)) == (0.0, 2.0)
        assert model_select._start(None, ("a", "b")) == (0.0,) * 3
        assert model_select._parent(("d", "e"), outcomes, converged) is None


def near_collinear(scale):
    """The planted matrix with a column ``near``: s0 plus ``scale`` times
    noise."""
    m, names = planted_matrix(n=150, seed=5)
    rng = np.random.Generator(np.random.PCG64(9))
    near = m.values[:, 0] + scale * rng.normal(size=m.n_rows)
    return with_column(m, "near", near), names + ("near",)


def with_column(m, name, values):
    return FeatureMatrix(
        column_names=m.column_names + (name,),
        values=np.column_stack([m.values, values]),
        target=m.target,
        row_ids=m.row_ids,
    )


def shared_design(case):
    """(matrix, split, specs, whether the shared design is well posed)."""
    if case == "hostile":
        m, split, _, _ = parity_problem(case)
        return m, split, enumerate_subsets(m.column_names), False
    if case == "unused_constant":
        m, names = planted_matrix(n=150, seed=5)
        m = with_column(m, "const", np.full(m.n_rows, 2.0))
        well_posed = False
    else:
        scale = {"near_collinear": 1e-13, "near_collinear_1e-9": 1e-9}.get(case)
        m, names = near_collinear(scale) if scale else planted_matrix(n=150, seed=5)
        well_posed = case != "near_collinear"
    return m, make_split(m.n_rows, 0.7, 0), enumerate_subsets(names), well_posed


class TestColumnChecks:
    """The constant-column and rank checks run once on the shared training
    design when it is well posed, and per design otherwise; either way
    every outcome is the one the per-design checks give."""

    # near_collinear: matrix_rank finds {s0, near} of full rank, but with
    # less than RANK_MARGIN to spare, so the shared design is not well
    # posed; at 1e-9 it is, and those fits fail in the Newton solve.
    @pytest.mark.parametrize(
        "case", ["near_collinear", "unused_constant", "hostile", "near_collinear_1e-9", "planted"]
    )
    def test_outcomes_equal_per_design_checks(self, case, monkeypatch):
        m, split, specs, well_posed = shared_design(case)
        assert model_select._Columns.build(m, split).well_posed is well_posed
        passed = set()
        real = model_select.fit_logistic_batch

        def spy(X, y, names, max_iter, tol, start, columns_ok):
            passed.add(columns_ok)
            return real(X, y, names, max_iter, tol, start, columns_ok)

        monkeypatch.setattr(model_select, "fit_logistic_batch", spy)
        got = outcome(lambda: fit_all(m, specs, split).rows)
        assert passed == {well_posed}

        def per_design(X, y, names, max_iter, tol, start, columns_ok):
            return real(X, y, names, max_iter, tol, start, False)

        monkeypatch.setattr(model_select, "fit_logistic_batch", per_design)
        assert got == outcome(lambda: fit_all(m, specs, split).rows)
        if case.startswith("near_collinear"):
            assert "singular_matrix" in got, case


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
        assert labels[:8] == [
            "row",
            "features",
            "n_train",
            "k_params",
            "converged",
            "iterations",
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
        fitted = ModelRow(
            "model_001",
            ModelSpec(features=("a",)),
            10,
            fit=made_fit(("a",), [0.25, -1.5]),
            score=ClassificationMetrics(accuracy=0.5, precision=None, recall=None, f1=None),
        )
        failed = ModelRow("model_002", ModelSpec(features=("a", "b")), 10, error="separation: boom")
        out = tmp_path / "comparison.csv"
        write_comparison_csv(ComparisonTable(rows=(fitted, failed)), out)
        with open(out, newline="") as handle:
            by_label = {r[0]: r[1:] for r in csv.reader(handle)}
        # empty denominator on a fitted candidate: undefined; fit raised: empty
        for name in ("precision", "recall", "f1"):
            assert by_label[name] == ["undefined", ""]
        assert by_label["accuracy"] == ["0.5", ""]
        assert by_label["k_params"] == ["2", ""]
        assert by_label["iterations"] == ["4", ""]
        assert by_label["failure"] == ["", "separation: boom"]
        assert by_label["coef_a"] == ["-1.5", ""]
        assert by_label["coef_b"] == ["", ""]

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(DegenerateInputError):
            write_comparison_csv(ComparisonTable(rows=()), tmp_path / "comparison.csv")


class TestGather:
    """``_gather`` against the broadcast fancy index it replaced: the same
    values, dtype and strides, so every fit and score sees the same bytes."""

    @settings(max_examples=100)
    @given(
        st.tuples(st.integers(1, 40), st.integers(1, 10), st.integers(1, 8), st.integers(1, 10)),
        st.integers(0, 2**32 - 1),
    )
    def test_equals_broadcast_index(self, shape, seed):
        n, width, batch, k = shape
        rng = np.random.Generator(np.random.PCG64(seed))
        columns = rng.normal(size=(n, width))
        design_cols = rng.integers(0, width, (batch, k))
        got = model_select._gather(columns, design_cols)
        want = gather_ref(columns, design_cols)
        assert np.array_equal(got, want)
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.flags.c_contiguous

    def test_fixture_designs(self, fixture_matrix, fixture_split):
        cols = model_select._Columns.build(fixture_matrix, fixture_split)
        specs = enumerate_subsets(fixture_matrix.column_names)
        for size in (1, 4, 9):
            design_cols = np.array(
                [
                    [0] + [cols.index[f] for f in s.features]
                    for s in specs
                    if len(s.features) == size
                ]
            )
            for columns, picks in ((cols.train, design_cols), (cols.val, design_cols[:, 1:] - 1)):
                got = model_select._gather(columns, picks)
                want = gather_ref(columns, picks)
                assert np.array_equal(got, want) and got.strides == want.strides
