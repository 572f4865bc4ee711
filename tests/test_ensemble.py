import json

import numpy as np
import pytest

from tabdistill.ensemble import (
    DEConfig,
    EnsembleModel,
    _de_maximize,
    blend,
    combine_families,
    load_ensemble,
    optimize_weights_detailed,
    save_ensemble,
    uniform_ensemble,
)
from tabdistill.errors import DataError, SerializationError
from tabdistill.learners import TrainingTarget, gbdt_spec, mlp_spec, save_model, train
from tabdistill.metrics import roc_auc

from helpers import dataset_from_arrays, noisy_nonlinear_dataset


class _FixedModel:
    def __init__(self, preds):
        self._preds = np.asarray(preds, dtype=np.float64)

    def predict(self, rows):
        return self._preds


def _valid_set(n, seed):
    rng = np.random.default_rng(seed)
    return dataset_from_arrays({"a": rng.standard_normal(n)},
                               rng.integers(0, 2, n))


class TestUniformEnsemble:
    def test_single_member_identity(self):
        m = _FixedModel([0.2, 0.7, 0.4])
        ens = uniform_ensemble([m])
        np.testing.assert_array_equal(ens.predict(None), m.predict(None))

    def test_constant_members_average(self):
        ens = uniform_ensemble([_FixedModel([0.2, 0.2]), _FixedModel([0.8, 0.8])])
        np.testing.assert_allclose(ens.predict(None), [0.5, 0.5])

    def test_member_order_symmetry(self):
        a = _FixedModel([0.1, 0.9])
        b = _FixedModel([0.4, 0.6])
        np.testing.assert_array_equal(
            uniform_ensemble([a, b]).predict(None),
            uniform_ensemble([b, a]).predict(None))

    def test_empty_member_list(self):
        with pytest.raises(DataError):
            uniform_ensemble([])


class TestPredictEnsemble:
    def test_weight_scale_invariance(self):
        members = [_FixedModel([0.1, 0.9]), _FixedModel([0.3, 0.5])]
        a = EnsembleModel(members, [2.0, 2.0])
        b = EnsembleModel(members, [1.0, 1.0])
        np.testing.assert_array_equal(a.predict(None), b.predict(None))

    def test_one_hot_weights_select_member(self):
        members = [_FixedModel([0.1, 0.9]), _FixedModel([0.3, 0.5])]
        ens = EnsembleModel(members, [0.0, 1.0])
        np.testing.assert_array_equal(ens.predict(None), [0.3, 0.5])

    def test_weighted_mean_arithmetic(self):
        members = [_FixedModel([0.0]), _FixedModel([0.4])]
        ens = EnsembleModel(members, [1.0, 3.0])
        np.testing.assert_allclose(ens.predict(None), [0.3])

    def test_all_zero_weights_rejected(self):
        with pytest.raises(DataError):
            EnsembleModel([_FixedModel([0.1])], [0.0])

    def test_blend_scale_invariance_random(self):
        rng = np.random.default_rng(0)
        preds = rng.random((4, 30))
        w = rng.random(4)
        np.testing.assert_array_equal(blend(preds, w), blend(preds, 8.0 * w))


class TestDEMaximize:
    def test_best_so_far_monotone(self):
        rng = np.random.default_rng(1)

        def objective(w):
            return -((w - 0.3) ** 2).sum()

        trace: list = []
        _de_maximize(objective, n_dims=3, seeds=[np.ones(3)],
                     cfg=DEConfig(max_iterations=40), rng=rng, trace=trace)
        assert all(b >= a for a, b in zip(trace, trace[1:]))

    def test_final_at_least_seed(self):
        rng = np.random.default_rng(2)

        def objective(w):
            return float(w.sum())

        seed_vec = np.full(2, 0.9)
        _, fit = _de_maximize(objective, 2, [seed_vec],
                              DEConfig(max_iterations=5), rng)
        assert fit >= objective(seed_vec)


class TestOptimizeWeights:
    def test_single_member_one_hot(self):
        valid = _valid_set(40, seed=3)
        rng = np.random.default_rng(4)
        member = _FixedModel(rng.random(40))
        out = optimize_weights_detailed(uniform_ensemble([member]), valid, DEConfig(seed=0))[0]
        np.testing.assert_array_equal(out.weights, [1.0])

    def test_dominating_member_prunes_the_noise(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 2, 60)
        labels[0], labels[1] = 0, 1
        perfect = labels * 0.5 + 0.25  # scores that rank validation perfectly
        noise = rng.random(60)
        valid = dataset_from_arrays({"a": np.zeros(60)}, labels)
        ens = uniform_ensemble([_FixedModel(perfect), _FixedModel(noise)])
        out = optimize_weights_detailed(ens, valid, DEConfig(max_iterations=30, seed=1))[0]
        assert out.weights[1] == 0.0
        assert out.weights[0] > 0.0
        np.testing.assert_array_equal(out.predict(None), perfect)

    def test_guarantee_on_randomized_member_sets(self):
        rng = np.random.default_rng(6)
        for trial in range(20):
            n = 40
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1
            valid = dataset_from_arrays({"a": np.zeros(n)}, labels)
            k = int(rng.integers(2, 6))
            members = [_FixedModel(rng.random(n)) for _ in range(k)]
            ens = uniform_ensemble(members)
            cfg = DEConfig(max_iterations=25, seed=trial)
            out, audit = optimize_weights_detailed(ens, valid, cfg)
            best_incumbent = max(max(audit["member_aucs"]), audit["uniform_auc"])
            achieved = roc_auc(out.predict(None), labels)
            assert achieved >= best_incumbent - 1e-9

    def test_deterministic(self):
        valid = _valid_set(50, seed=7)
        rng = np.random.default_rng(8)
        members = [_FixedModel(rng.random(50)) for _ in range(3)]
        cfg = DEConfig(max_iterations=15, seed=9)
        a = optimize_weights_detailed(uniform_ensemble(members), valid, cfg)[0]
        b = optimize_weights_detailed(uniform_ensemble(members), valid, cfg)[0]
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_prune_epsilon_above_every_share_keeps_the_weights(self):
        # 12 identical members share 1/12 each, below prune_epsilon: a prune
        # round would drop them all, so none runs
        valid = _valid_set(60, seed=11)
        member = _FixedModel(np.random.default_rng(12).random(60))
        cfg = DEConfig(population_size=8, prune_epsilon=0.15, max_iterations=5, seed=0)
        out, audit = optimize_weights_detailed(uniform_ensemble([member] * 12), valid, cfg)
        assert audit["prune_rounds"] == 0
        assert audit["final_weights"] == audit["pre_prune_weights"]
        np.testing.assert_array_equal(out.weights, np.ones(12))
        assert audit["validation_auc"] == roc_auc(member.predict(None), valid.labels)

    def test_no_search_weights_every_member_one(self):
        valid = _valid_set(50, seed=14)
        rng = np.random.default_rng(15)
        members = [_FixedModel(rng.random(50)) for _ in range(3)]
        out, audit = optimize_weights_detailed(uniform_ensemble(members), valid, None)
        _, searched = optimize_weights_detailed(uniform_ensemble(members), valid,
                                                DEConfig(max_iterations=5, seed=0))
        np.testing.assert_array_equal(out.weights, np.ones(3))
        assert list(audit) == list(searched)
        assert audit["pre_prune_weights"] == audit["final_weights"] == [1.0, 1.0, 1.0]
        assert audit["prune_rounds"] == 0
        assert audit["validation_auc"] == audit["uniform_auc"] == searched["uniform_auc"]
        assert audit["member_aucs"] == searched["member_aucs"] == [
            roc_auc(m.predict(None), valid.labels) for m in members]

    def test_single_class_validation_rejected(self):
        ds = dataset_from_arrays({"a": [0.1, 0.2]}, [1, 1])
        with pytest.raises(DataError):
            optimize_weights_detailed(uniform_ensemble([_FixedModel([0.5, 0.5])]), ds,
                                      DEConfig())


class TestCombineFamilies:
    def test_empty_family_b_reduces_to_plain_optimization(self):
        valid = _valid_set(40, seed=10)
        rng = np.random.default_rng(11)
        members = [_FixedModel(rng.random(40)) for _ in range(2)]
        combined, audit = combine_families([members, []], valid,
                                           DEConfig(max_iterations=10, seed=2))
        direct, _ = optimize_weights_detailed(uniform_ensemble(members), valid,
                                              DEConfig(max_iterations=10, seed=2))
        np.testing.assert_array_equal(combined.weights, direct.weights)
        assert audit["family_sizes"] == [2, 0]

    def test_any_number_of_families(self):
        valid = _valid_set(50, seed=16)
        rng = np.random.default_rng(17)
        families = [[_FixedModel(rng.random(50)) for _ in range(2)], [],
                    [_FixedModel(rng.random(50))]]
        cfg = DEConfig(max_iterations=10, seed=5)
        combined, audit = combine_families(families, valid, cfg)
        direct, _ = optimize_weights_detailed(
            uniform_ensemble(families[0] + families[2]), valid, cfg)
        assert audit["family_sizes"] == [2, 0, 1]
        np.testing.assert_array_equal(combined.weights, direct.weights)

    def test_duplicate_member_same_predictions_as_dedup(self):
        valid = _valid_set(50, seed=12)
        rng = np.random.default_rng(13)
        scores = rng.random(50)
        dup = _FixedModel(scores)
        other = _FixedModel(rng.random(50))
        cfg = DEConfig(max_iterations=20, seed=3)
        with_dup, _ = combine_families([[dup, other], [dup]], valid, cfg)
        auc_dup = roc_auc(with_dup.predict(None), valid.labels)
        dedup, _ = combine_families([[dup, other], []], valid, cfg)
        auc_dedup = roc_auc(dedup.predict(None), valid.labels)
        # weight mass is fungible across identical members: same reachable
        # blends, same guaranteed incumbents, so neither run can fall behind
        assert auc_dup >= auc_dedup - 1e-9

    def test_mixed_learner_families(self):
        train_ds = noisy_nonlinear_dataset(400, seed=14)
        valid_ds = noisy_nonlinear_dataset(150, seed=15)
        gbdt_fam = [train(gbdt_spec(rounds=8, seed=s), train_ds,
                          TrainingTarget.hard()) for s in (0, 1)]
        mlp_fam = [train(mlp_spec(epochs=8, hidden_sizes=(8,), seed=s), train_ds,
                         TrainingTarget.hard()) for s in (0, 1)]
        cfg = DEConfig(max_iterations=15, seed=4)
        combined, audit = combine_families([gbdt_fam, mlp_fam], valid_ds, cfg)
        combined_auc = roc_auc(combined.predict(valid_ds), valid_ds.labels)
        for family in (gbdt_fam, mlp_fam):
            own, _ = combine_families([family, []], valid_ds, cfg)
            own_auc = roc_auc(own.predict(valid_ds), valid_ds.labels)
            assert combined_auc >= own_auc - 1e-9


class TestPersistence:
    def test_ensemble_document_roundtrip(self, tmp_path):
        members = [_FixedModel([0.1]), _FixedModel([0.9])]
        ens = EnsembleModel(members, [0.25, 0.75])
        out = tmp_path / "ens.json"
        save_ensemble(ens, ["m0.json", "m1.json"], out)
        doc = json.loads(out.read_text())
        assert doc["format"] == "tabdistill.ensemble/v1"
        assert doc["members"] == ["m0.json", "m1.json"]
        np.testing.assert_allclose(doc["weights"], [0.25, 0.75])

    def test_load_ensemble_resolves_members_next_to_the_document(self, tmp_path):
        ds = noisy_nonlinear_dataset(80, seed=13)
        models = [train(gbdt_spec(seed=s, rounds=2), ds, TrainingTarget.hard())
                  for s in (0, 1)]
        (tmp_path / "sub").mkdir()
        save_model(models[0], tmp_path / "m0.json")
        save_model(models[1], tmp_path / "sub" / "m1.json")
        out = tmp_path / "ens.json"
        save_ensemble(EnsembleModel(models, [0.25, 0.75]),
                      ["m0.json", str(tmp_path / "sub" / "m1.json")], out)
        restored = load_ensemble(out)
        np.testing.assert_array_equal(restored.weights, [0.25, 0.75])
        np.testing.assert_array_equal(restored.predict(ds),
                                      EnsembleModel(models, [0.25, 0.75]).predict(ds))

    @pytest.mark.parametrize("doc", [
        [],
        {"format": "tabdistill.ensemble/v2", "members": [], "weights": []},
        {"format": "tabdistill.ensemble/v1", "weights": [1.0]},
        {"format": "tabdistill.ensemble/v1", "members": "m0.json", "weights": [1.0]},
        {"format": "tabdistill.ensemble/v1", "members": [3], "weights": [1.0]},
        {"format": "tabdistill.ensemble/v1", "members": ["m0.json"]},
        {"format": "tabdistill.ensemble/v1", "members": ["m0.json"], "weights": [1, 2]},
        {"format": "tabdistill.ensemble/v1", "members": ["m0.json"], "weights": ["1"]},
        {"format": "tabdistill.ensemble/v1", "members": ["m0.json"], "weights": [True]},
        {"format": "tabdistill.ensemble/v1", "members": ["m0.json"],
         "weights": [float("nan")]},
    ])
    def test_malformed_document_rejected(self, tmp_path, doc):
        out = tmp_path / "ens.json"
        out.write_text(json.dumps(doc))
        with pytest.raises(SerializationError):
            load_ensemble(out)

    def test_corrupted_json_rejected(self, tmp_path):
        out = tmp_path / "ens.json"
        out.write_text('{"format": ')
        with pytest.raises(SerializationError):
            load_ensemble(out)
