from dataclasses import asdict

import numpy as np
import pytest

from tabdistill import distill
from tabdistill.distill import (
    DistillConfig,
    distill_step,
    make_targets,
    run_generations,
    targets_to_sampled,
    write_ledger_csv,
)
from tabdistill.errors import DataError
from tabdistill.kdcore import KDInstance, mixed_targets
from tabdistill.learners import TrainingTarget, gbdt_spec, serialize_model, train

from helpers import dataset_from_arrays, noisy_nonlinear_dataset, separable_dataset


class TestMakeTargets:
    def test_beta_zero_reproduces_hard_labels(self):
        ds = dataset_from_arrays({"a": [0.1, 0.2, 0.3]}, [1, 0, 1])
        target = make_targets(ds, [0.9, 0.4, 0.2], beta=0.0)
        np.testing.assert_array_equal(target.w_pos, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(target.w_neg, [0.0, 1.0, 0.0])

    def test_beta_one_is_pure_teacher(self):
        ds = dataset_from_arrays({"a": [0.1, 0.2]}, [1, 0])
        target = make_targets(ds, [0.9, 0.4], beta=1.0)
        np.testing.assert_array_equal(target.w_pos, [0.9, 0.4])
        np.testing.assert_array_equal(target.w_neg, [1.0 - 0.9, 1.0 - 0.4])

    def test_worked_example(self):
        ds = dataset_from_arrays({"a": [0.0]}, [1])
        target = make_targets(ds, [0.6], beta=0.7)
        assert target.w_pos[0] == pytest.approx(0.72, abs=1e-15)
        assert target.w_neg[0] == pytest.approx(0.28, abs=1e-15)

    def test_weights_sum_exactly_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            ds = dataset_from_arrays({"a": rng.standard_normal(n)},
                                     rng.integers(0, 2, n))
            target = make_targets(ds, rng.random(n), beta=float(rng.random()))
            np.testing.assert_array_equal(target.w_pos + target.w_neg, np.ones(n))

    def test_consistent_with_binary_mixed_target(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            f = float(rng.random())
            beta = float(rng.random())
            y = int(rng.integers(0, 2))
            ds = dataset_from_arrays({"a": [0.0]}, [y])
            target = make_targets(ds, [f], beta)
            mixed = mixed_targets(KDInstance(np.array([[f, 1.0 - f]]), np.full((1, 2), 0.5),
                                             np.array([1 if y == 1 else 2]), beta))[0]
            assert abs(target.w_pos[0] - mixed[0]) <= 1e-15
            assert abs(target.w_neg[0] - mixed[1]) <= 1e-15

    def test_score_out_of_range(self):
        ds = dataset_from_arrays({"a": [0.0]}, [1])
        with pytest.raises(DataError):
            make_targets(ds, [1.2], beta=0.5)

    def test_length_mismatch(self):
        ds = dataset_from_arrays({"a": [0.0, 1.0]}, [1, 0])
        with pytest.raises(DataError):
            make_targets(ds, [0.5], beta=0.5)


class TestTargetsToSampled:
    def test_degenerate_all_positive(self):
        target = TrainingTarget.weighted(np.ones(10), np.zeros(10))
        sampled = targets_to_sampled(target, seed=0)
        np.testing.assert_array_equal(sampled.w_pos, np.ones(10, dtype=int))

    def test_frequency_converges(self):
        n = 100_000
        target = TrainingTarget.weighted(np.full(n, 0.72), np.full(n, 0.28))
        sampled = targets_to_sampled(target, seed=1)
        assert abs(sampled.w_pos.mean() - 0.72) < 0.006  # 3 sigma ~ 0.0043

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        w = rng.random(200)
        target = TrainingTarget.weighted(w, 1.0 - w)
        a = targets_to_sampled(target, seed=7)
        b = targets_to_sampled(target, seed=7)
        np.testing.assert_array_equal(a.w_pos, b.w_pos)

    def test_a_draw_is_the_pair_z_one_minus_z(self):
        rng = np.random.default_rng(3)
        w = rng.random(500)
        sampled = targets_to_sampled(TrainingTarget.weighted(w, 1.0 - w), seed=5)
        z = (np.random.default_rng(5).random(500) < w).astype(np.float64)
        np.testing.assert_array_equal(sampled.w_pos, z)
        np.testing.assert_array_equal(sampled.w_neg, 1.0 - z)
        assert sampled.w_pos.dtype == sampled.w_neg.dtype == np.float64

    def test_requires_row_weighted(self):
        with pytest.raises(DataError):
            targets_to_sampled(TrainingTarget.hard(), seed=0)

    def test_expected_loss_matches_row_weighted_loss(self):
        # fixed predictions: the weight-pair loss equals the expectation of
        # the sampled-label loss; checked with the k=2 loss machinery rather
        # than by retraining
        from tabdistill.kdcore import _resampled_loss_stats, kd_loss

        rng = np.random.default_rng(5)
        n = 40
        w_pos = rng.random(n)
        preds = rng.uniform(0.05, 0.95, n)
        inst = KDInstance(teacher=np.column_stack([w_pos, 1.0 - w_pos]),
                          student=np.column_stack([preds, 1.0 - preds]),
                          labels=np.ones(n, dtype=int), alpha=1.0)
        weighted = kd_loss(inst)  # pairs weighted by (w_pos, w_neg) exactly
        mc_mean, _ = _resampled_loss_stats(inst, 4000, np.random.default_rng(0))
        assert mc_mean == pytest.approx(weighted, rel=0.01)


def _kept_and_dropped(ds, scores, threshold):
    """The positions of the rows distill_step keeps, in the order it keeps
    them, and of the rows it drops; each value of column ``a`` is unique, so
    it names its row's position."""
    kept, _ = distill_step(ds, scores, 0.7, threshold)
    position = {v: i for i, v in enumerate(ds.feature_arrays[0].tolist())}
    kept_at = np.array([position[v] for v in kept.feature_arrays[0].tolist()], dtype=int)
    return kept_at, np.setdiff1d(np.arange(ds.n_rows), kept_at)


class TestDenoise:
    def test_threshold_one_keeps_all_rows(self):
        rng = np.random.default_rng(3)
        ds = dataset_from_arrays({"a": rng.standard_normal(50)},
                                 rng.integers(0, 2, 50))
        kept, dropped = _kept_and_dropped(ds, rng.random(50), threshold=1.0)
        assert len(kept) == 50
        assert len(dropped) == 0

    def test_threshold_one_drops_an_exactly_opposite_score(self):
        # the rule is strict, so a gap of exactly 1 (a saturated teacher that
        # is wrong) is dropped even at threshold 1
        ds = dataset_from_arrays({"a": [0.0, 1.0, 2.0, 3.0]}, [1, 0, 1, 0])
        kept, dropped = _kept_and_dropped(ds, [0.0, 0.5, 0.9, 0.1], threshold=1.0)
        assert list(kept) == [1, 2, 3]
        assert list(dropped) == [0]

    def test_confident_disagreement_dropped(self):
        ds = dataset_from_arrays({"a": [0.0]}, [1])
        kept_err = pytest.raises(DataError)
        with kept_err:
            distill_step(ds, [0.005], 0.7, threshold=0.99)  # only row dropped -> error

    def test_gap_below_threshold_kept(self):
        ds = dataset_from_arrays({"a": [0.0, 1.0]}, [0, 1])
        kept, dropped = _kept_and_dropped(ds, [0.2, 0.9], threshold=0.5)
        assert len(kept) == 2

    def test_boundary_gap_equal_threshold_dropped(self):
        ds = dataset_from_arrays({"a": [0.0, 1.0]}, [1, 1])
        kept, dropped = _kept_and_dropped(ds, [0.5, 0.9], threshold=0.5)
        assert list(kept) == [1]
        assert list(dropped) == [0]

    def test_kept_set_monotone_in_threshold(self):
        rng = np.random.default_rng(4)
        ds = dataset_from_arrays({"a": rng.standard_normal(200)},
                                 rng.integers(0, 2, 200))
        scores = rng.random(200)
        previous: set = set()
        for threshold in (0.2, 0.4, 0.6, 0.8, 1.0):
            try:
                kept, _ = _kept_and_dropped(ds, scores, threshold)
                positions = set(kept.tolist())
            except DataError:
                positions = set()
            assert previous <= positions
            previous = positions

    def test_kept_rows_keep_their_order(self):
        ds = dataset_from_arrays({"a": [0.0, 1.0, 2.0]}, [1, 0, 1])
        kept, dropped = _kept_and_dropped(ds, [0.95, 0.96, 0.5], threshold=0.9)
        assert list(kept) == [0, 2]
        assert list(dropped) == [1]


class TestRunGenerations:
    def test_record_count_and_bookkeeping(self):
        ds = separable_dataset(300, seed=5)
        valid = separable_dataset(100, seed=6)
        test = separable_dataset(100, seed=7)
        cfg = DistillConfig(generations=3, seed=1)
        records, models = run_generations(gbdt_spec(rounds=5), ds, valid, test, cfg)
        assert len(records) == cfg.generations + 1
        assert len(models) == cfg.generations + 1
        for rec in records:
            assert rec.rows_kept + rec.rows_dropped == ds.n_rows

    def test_fixed_point_with_beta_zero(self):
        # beta 0 and threshold 1 feed every generation the original data (no
        # teacher score here is exactly the opposite label, which 1 drops);
        # the boosted learner ignores its seed, so all students coincide
        ds = separable_dataset(200, seed=8)
        test = separable_dataset(80, seed=9)
        cfg = DistillConfig(beta=0.0, denoise_threshold=1.0, generations=3, seed=2)
        _, models = run_generations(gbdt_spec(rounds=5), ds, None, test, cfg)
        # per-generation seeds differ in the spec echo, so compare the
        # learned parameters and the predictions, not the full documents
        trees = [serialize_model(m)["trees"] for m in models]
        assert trees[0] == trees[1] == trees[2] == trees[3]
        for m in models[1:]:
            np.testing.assert_array_equal(models[0].predict(test), m.predict(test))

    def test_from_ensemble_uses_uniform_average(self):
        ds = noisy_nonlinear_dataset(300, seed=10)
        test = noisy_nonlinear_dataset(100, seed=11)
        cfg = DistillConfig(generations=2, teacher_mode="from_ensemble", seed=3)
        records, models = run_generations(gbdt_spec(rounds=5), ds, None, test, cfg)
        assert records[1].teacher == "ensemble_0..0"
        assert records[2].teacher == "ensemble_0..1"

    def test_label_sampled_mode_runs(self):
        ds = separable_dataset(200, seed=12)
        test = separable_dataset(80, seed=13)
        cfg = DistillConfig(generations=1, target_mode="label_sampled", seed=4)
        records, models = run_generations(gbdt_spec(rounds=5), ds, None, test, cfg)
        assert len(models) == 2

    def test_include_original_appends_rows(self, monkeypatch):
        # generation 1 trains on the kept rows with their weight pairs, then
        # on every original row in order with the pair (y, 1 - y)
        ds = noisy_nonlinear_dataset(150, seed=14)
        test = noisy_nonlinear_dataset(60, seed=15)
        cfg = DistillConfig(denoise_threshold=0.5, generations=1, include_original=True, seed=5)
        inputs = []

        def recording_train(spec, rows, target, valid):
            inputs.append((rows, target))
            return train(spec, rows, target, valid)

        monkeypatch.setattr(distill, "train", recording_train)
        records, models = run_generations(gbdt_spec(rounds=3), ds, None, test, cfg)
        assert len(models) == 2
        scores = records[0].train_preds
        y = ds.labels.astype(np.float64)
        kept = np.flatnonzero(np.abs(scores - y) < cfg.denoise_threshold)
        assert 0 < len(kept) < ds.n_rows
        rows, target = inputs[1]
        for got, column in zip(rows.feature_arrays, ds.feature_arrays, strict=True):
            np.testing.assert_array_equal(got, np.concatenate([column[kept], column]))
        np.testing.assert_array_equal(rows.labels, np.concatenate([ds.labels[kept], ds.labels]))
        w_pos = cfg.beta * scores[kept] + (1.0 - cfg.beta) * y[kept]
        np.testing.assert_array_equal(target.w_pos, np.concatenate([w_pos, y]))
        np.testing.assert_array_equal(target.w_neg, np.concatenate([1.0 - w_pos, 1.0 - y]))

    @pytest.mark.parametrize("teacher_mode", ["from_last", "from_ensemble"])
    def test_records_keep_each_models_predictions(self, teacher_mode):
        ds = noisy_nonlinear_dataset(200, seed=18)
        test = noisy_nonlinear_dataset(80, seed=19)
        cfg = DistillConfig(generations=2, teacher_mode=teacher_mode, seed=7)
        records, models = run_generations(gbdt_spec(rounds=3), ds, None, test, cfg)
        for rec, model in zip(records, models):
            np.testing.assert_array_equal(rec.test_preds, model.predict(test))
        # every model but the last taught a generation, so only those were
        # scored on train
        for rec, model in zip(records[:-1], models):
            np.testing.assert_array_equal(rec.train_preds, model.predict(ds))
        assert records[-1].train_preds is None
        assert set(records[0].as_dict()) == {"gen", "teacher", "rows_kept", "rows_dropped",
                                             "individual_auc", "ensemble_auc"}

    def test_no_config_trains_the_teacher_only(self):
        ds = separable_dataset(150, seed=20)
        test = separable_dataset(60, seed=21)
        records, models = run_generations(gbdt_spec(rounds=3, seed=9), ds, None, test, None)
        assert len(models) == 1 and models[0].spec.seed == 9
        assert records[0].as_dict() == {
            "gen": 0, "teacher": "hard_labels", "rows_kept": ds.n_rows, "rows_dropped": 0,
            "individual_auc": records[0].individual_auc,
            "ensemble_auc": records[0].individual_auc}

    def test_ledger_csv_layout(self, tmp_path):
        ds = separable_dataset(200, seed=16)
        test = separable_dataset(80, seed=17)
        cfg = DistillConfig(generations=1, seed=6)
        records, _ = run_generations(gbdt_spec(rounds=3), ds, None, test, cfg)
        out = tmp_path / "ledger.csv"
        write_ledger_csv(records, out)
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "gen,individual_auc,ensemble_auc,rows_kept,rows_dropped"
        assert len(lines) == 3


class TestConfigValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(DataError):
            DistillConfig(beta=1.5)
        with pytest.raises(DataError):
            DistillConfig(denoise_threshold=0.0)
        with pytest.raises(DataError):
            DistillConfig(generations=0)
        with pytest.raises(DataError):
            DistillConfig(teacher_mode="from_future")

    def test_roundtrip(self):
        cfg = DistillConfig(beta=0.5, generations=2, teacher_mode="from_ensemble")
        assert DistillConfig(**asdict(cfg)) == cfg
