"""Split, prediction, confusion metrics and ROC/AUC."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import make_problem
from stratlogit.errors import ConfigError, DataError, DegenerateInputError
from stratlogit.evaluate import (
    ConfusionMatrix,
    classify,
    make_split,
    metrics,
    predict_prob,
    roc_auc,
)
from stratlogit.logit import fit_logistic


def pair_count_auc(scores, y):
    """Mann-Whitney probability: P(score_pos > score_neg) + 0.5 ties."""
    pos = [s for s, t in zip(scores, y) if t == 1]
    neg = [s for s, t in zip(scores, y) if t == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestSplit:
    def test_sizes_round_half_up(self):
        s = make_split(459, train_fraction=0.7, seed=0)
        assert (s.n_train, s.n_val) == (321, 138)
        # 2.5 rounds up
        assert make_split(5, train_fraction=0.5, seed=0).n_train == 3

    def test_deterministic_and_disjoint(self):
        a = make_split(100, train_fraction=0.7, seed=9)
        b = make_split(100, train_fraction=0.7, seed=9)
        assert a.train_indices == b.train_indices
        assert a.val_indices == b.val_indices
        combined = set(a.train_indices) | set(a.val_indices)
        assert combined == set(range(100))
        assert not set(a.train_indices) & set(a.val_indices)
        assert list(a.train_indices) == sorted(a.train_indices)

    def test_seed_changes_membership(self):
        a = make_split(200, train_fraction=0.7, seed=0)
        b = make_split(200, train_fraction=0.7, seed=1)
        assert a.train_indices != b.train_indices

    def test_bad_fraction(self):
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                make_split(50, train_fraction=frac, seed=0)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed"):
            make_split(50, train_fraction=0.7, seed=-1)

    def test_empty_partition_rejected(self):
        with pytest.raises(DegenerateInputError):
            make_split(3, train_fraction=0.9, seed=0)
        with pytest.raises(DegenerateInputError):
            make_split(1, train_fraction=0.5, seed=0)


class TestPredictClassify:
    def test_known_probabilities(self):
        design, _ = make_problem(0, n=100, p=2)
        fit = fit_logistic(design)
        probs = predict_prob(fit, design.X[:, 1:])
        eta = design.X @ fit.coef
        assert_allclose(probs, 1.0 / (1.0 + np.exp(-eta)), rtol=1e-12)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)

    def test_shape_mismatch_rejected(self):
        design, _ = make_problem(4, n=80, p=2)
        fit = fit_logistic(design)
        with pytest.raises(DataError):
            predict_prob(fit, np.zeros((5, 4)))
        with pytest.raises(DataError):  # one row is a (1, p) matrix
            predict_prob(fit, design.X[0, 1:])

    def test_threshold_boundary(self):
        p = np.array([0.2, 0.5, 0.8])
        assert classify(p).tolist() == [0, 1, 1]


class TestConfusionAndMetrics:
    def test_from_predictions(self):
        y = np.array([1, 1, 0, 0, 1, 0])
        yhat = np.array([1, 0, 0, 1, 1, 0])
        cm = ConfusionMatrix.from_predictions(y, yhat)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (2, 1, 2, 1)
        assert cm.total == 6

    def test_hand_worked_metrics(self):
        cm = ConfusionMatrix(tp=49, fp=23, tn=55, fn=11)
        m = metrics(cm)
        assert_allclose(m.accuracy, 104 / 138, rtol=1e-15)
        assert_allclose(m.precision, 49 / 72, rtol=1e-15)
        assert_allclose(m.recall, 49 / 60, rtol=1e-15)
        assert_allclose(m.f1, 2 * (49 / 72) * (49 / 60) / (49 / 72 + 49 / 60), rtol=1e-14)

    def test_undefined_rates_are_none_not_zero(self):
        no_pred_pos = metrics(ConfusionMatrix(tp=0, fp=0, tn=5, fn=3))
        assert no_pred_pos.precision is None
        assert no_pred_pos.recall == 0.0
        assert no_pred_pos.f1 is None
        no_actual_pos = metrics(ConfusionMatrix(tp=0, fp=2, tn=5, fn=0))
        assert no_actual_pos.recall is None
        assert no_actual_pos.f1 is None

    def test_empty_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            metrics(ConfusionMatrix(tp=0, fp=0, tn=0, fn=0))

    def test_accuracy_equals_mean_agreement(self):
        rng = np.random.Generator(np.random.PCG64(3))
        for _ in range(20):
            y = (rng.random(40) < 0.5).astype(np.int64)
            yhat = (rng.random(40) < 0.5).astype(np.int64)
            cm = ConfusionMatrix.from_predictions(y, yhat)
            assert metrics(cm).accuracy == np.mean(y == yhat)


class TestRoc:
    def test_perfect_ranking(self):
        curve = roc_auc(np.array([0.9, 0.8, 0.4, 0.3]), np.array([1, 1, 0, 0]))
        assert curve.auc == 1.0
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert curve.thresholds[0] is None

    def test_inverted_ranking(self):
        curve = roc_auc(np.array([0.9, 0.8, 0.4, 0.3]), np.array([0, 0, 1, 1]))
        assert curve.auc == 0.0

    def test_all_tied_scores(self):
        curve = roc_auc(np.full(4, 0.5), np.array([1, 0, 1, 0]))
        assert curve.auc == 0.5
        # single jump straight to (1, 1)
        assert len(curve.points) == 2

    def test_matches_pair_counting(self):
        rng = np.random.Generator(np.random.PCG64(8))
        for _ in range(50):
            n = int(rng.integers(4, 50))
            y = (rng.random(n) < 0.5).astype(np.int64)
            y[0], y[1] = 0, 1
            # quantized scores force ties
            scores = np.round(rng.random(n), 1)
            curve = roc_auc(scores, y)
            assert_allclose(curve.auc, pair_count_auc(scores, y), atol=1e-12)

    def test_curve_monotone(self):
        rng = np.random.Generator(np.random.PCG64(13))
        y = (rng.random(60) < 0.4).astype(np.int64)
        y[0], y[1] = 0, 1
        curve = roc_auc(rng.random(60), y)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs) and ys == sorted(ys)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            roc_auc(np.linspace(0, 1, 5), np.ones(5, dtype=np.int64))
        with pytest.raises(DataError):
            roc_auc(np.array([0.1, 0.2, 0.3]), np.array([0, 1]))
