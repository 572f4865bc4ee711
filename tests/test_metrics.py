import math

import numpy as np
import pytest

from tabdistill.errors import DataError
from tabdistill.metrics import (
    evaluate,
    generation_correlation_matrix,
    log_loss,
    pearson,
    roc_auc,
)

from helpers import dataset_from_arrays, pair_counting_auc


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
        for score_fn in (roc_auc, evaluate):
            with pytest.raises(DataError, match="finite"):
                score_fn([bad, 0.2, 0.3, 0.9], [1, 0, 1, 0])

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


class _FixedModel:
    def __init__(self, preds):
        self._preds = np.asarray(preds, dtype=np.float64)

    def predict(self, rows):
        return self._preds


class TestCorrelationMatrix:
    def test_identical_models_all_ones(self):
        m = _FixedModel([0.1, 0.5, 0.9])
        mat = generation_correlation_matrix([m, m], rows=None)
        np.testing.assert_allclose(mat, np.ones((2, 2)))

    def test_symmetry_and_unit_diagonal(self):
        rng = np.random.default_rng(7)
        models = [_FixedModel(rng.random(20)) for _ in range(4)]
        mat = generation_correlation_matrix(models, rows=None)
        np.testing.assert_allclose(mat, mat.T)
        np.testing.assert_array_equal(np.diag(mat), np.ones(4))


class TestOverfitProbe:
    def test_identical_splits_identical_reports(self):
        ds = dataset_from_arrays({"a": [0.2, 0.4, 0.6, 0.8]}, [0, 0, 1, 1])
        model = _FixedModel([0.1, 0.3, 0.7, 0.9])
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
