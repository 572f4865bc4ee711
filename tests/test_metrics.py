import math

import numpy as np
import pytest

from tabdistill.errors import DataError
from tabdistill.metrics import (
    AUCLabels,
    evaluate,
    generation_correlation_matrix,
    log_loss,
    pearson,
    roc_auc,
)

from helpers import FixedModel, dataset_from_arrays, pair_counting_auc


class TestRocAuc:
    def test_worked_example(self):
        assert roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75

    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_tied_scores(self):
        assert roc_auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            roc_auc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected(self, bad):
        labels = np.array([1, 0, 1, 0, 1])
        for at in (0, 2, 4):  # first, in the middle, last
            scores = np.array([0.1, 0.2, 0.3, 0.9, 0.5])
            scores[at] = bad
            for score_fn, given in [(roc_auc, labels), (roc_auc, AUCLabels(labels)),
                                    (evaluate, labels)]:
                with pytest.raises(DataError, match="finite"):
                    score_fn(scores, given)

    @pytest.mark.parametrize("other", [2, -1])
    def test_label_other_than_0_or_1_rejected(self, other):
        # a row labelled 2 would count in the ranks but in neither class
        labels = [0, 1, other, 1]
        for score_fn in (roc_auc, evaluate):
            with pytest.raises(DataError, match="0 or 1"):
                score_fn([0.1, 0.2, 0.3, 0.4], labels)

    def test_bool_labels_score(self):
        labels = np.array([False, False, True, True])
        assert roc_auc([0.1, 0.4, 0.35, 0.8], labels) == 0.75
        assert evaluate([0.1, 0.4, 0.35, 0.8], labels).auc == 0.75

    @pytest.mark.parametrize("scores, labels", [
        (np.zeros((2, 2)), np.array([[0, 1], [1, 0]])),
        (np.zeros((1, 4)), np.array([[0, 1, 1, 0]])),
        (np.zeros((2, 2)), np.array([0, 1, 1, 0])),
        (np.zeros(4), np.array([[0, 1], [1, 0]])),
        (np.float64(0.5), np.int64(1)),
    ])
    def test_scores_and_labels_must_be_1d(self, scores, labels):
        for score_fn in (roc_auc, evaluate):
            with pytest.raises(DataError, match="1-D"):
                score_fn(scores, labels)

    def test_bound_labels_must_be_1d(self):
        with pytest.raises(DataError, match="1-D"):
            AUCLabels(np.array([[0, 1], [1, 0]]))

    @pytest.mark.parametrize("n", [3, 5])
    def test_wrong_length_against_bound_labels(self, n):
        with pytest.raises(DataError, match="equal length"):
            roc_auc(np.linspace(0, 1, n), AUCLabels([0, 1, 1, 0]))

    def test_matches_pair_counting_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(4, 201))
            # tie groups injected by quantizing a fraction of the scores
            scores = rng.random(n)
            if rng.random() < 0.7:
                scores = np.round(scores, int(rng.integers(0, 3)))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) == pair_counting_auc(scores, labels)

    def test_score_flip_complement(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = np.round(rng.random(40), 1)
            labels = rng.integers(0, 2, 40)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert roc_auc(scores, labels) + roc_auc(1.0 - scores, labels) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        scores = rng.random(60)
        labels = rng.integers(0, 2, 60)
        labels[0], labels[1] = 0, 1
        assert roc_auc(scores, labels) == roc_auc(np.exp(3 * scores), labels)


class TestLogLoss:
    def test_half_probability(self):
        assert log_loss([0.5], [1]) == pytest.approx(math.log(2))

    def test_confident_and_correct_near_zero(self):
        assert log_loss([1.0, 0.0], [1, 0]) == pytest.approx(0.0, abs=1e-10)

    def test_worked_example(self):
        expected = (-math.log(0.9) - math.log(0.8)) / 2
        assert log_loss([0.9, 0.2], [1, 0]) == pytest.approx(expected, abs=1e-9)
        assert expected == pytest.approx(0.164252, abs=1e-6)


class TestPearson:
    def test_identity(self):
        a = np.array([0.1, 0.5, 0.9, 0.3])
        assert pearson(a, a) == pytest.approx(1.0)

    def test_antisymmetry(self):
        a = np.array([0.1, 0.5, 0.9, 0.3])
        assert pearson(a, 1.0 - a) == pytest.approx(-1.0)

    def test_worked_example(self):
        assert pearson([1, 2, 3], [1, 2, 4]) == pytest.approx(0.981981, abs=1e-6)

    def test_constant_vector_rejected(self):
        with pytest.raises(DataError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.random(30)
        b = rng.random(30)
        assert pearson(2.5 * a + 1.0, b) == pytest.approx(pearson(a, b), abs=1e-12)


class TestCorrelationMatrix:
    def test_identical_models_all_ones(self):
        preds = [0.1, 0.5, 0.9]
        mat = generation_correlation_matrix(np.stack([preds, preds]))
        np.testing.assert_allclose(mat, np.ones((2, 2)))

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(7)
        mat = generation_correlation_matrix(rng.random((4, 20)))
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), np.ones(4))


class TestOverfitProbe:
    def test_identical_splits_identical_reports(self):
        ds = dataset_from_arrays({"a": [0.2, 0.4, 0.6, 0.8]}, [0, 0, 1, 1])
        model = FixedModel([0.1, 0.3, 0.7, 0.9])
        train_rep = evaluate(model.predict(ds), ds.labels)
        test_rep = evaluate(model.predict(ds), ds.labels)
        assert train_rep == test_rep

    def test_deep_gbdt_memorizes_small_noisy_data(self):
        from tabdistill.learners import TrainingTarget, gbdt_spec, train

        from helpers import noisy_nonlinear_dataset

        wins = 0
        for seed in range(10):
            tr = noisy_nonlinear_dataset(500, seed=seed * 7, d_noise=4, scale=1.0)
            te = noisy_nonlinear_dataset(300, seed=seed * 7 + 3, d_noise=4,
                                         scale=1.0)
            model = train(gbdt_spec(seed=seed, rounds=400, max_depth=12), tr,
                          TrainingTarget.hard())
            train_rep = evaluate(model.predict(tr), tr.labels)
            wins += train_rep.auc >= 0.999
        assert wins >= 8

    def test_reports_carry_counts(self):
        ds = dataset_from_arrays({"a": [0.2, 0.4, 0.6]}, [0, 1, 1])
        rep = evaluate([0.1, 0.8, 0.9], ds.labels)
        assert rep.n_pos == 2 and rep.n_neg == 1
        assert rep.n_pos + rep.n_neg == ds.n_rows
