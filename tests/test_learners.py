import json

import numpy as np
import pytest

from tabdistill.errors import DataError, SchemaMismatchError, SerializationError, TrainingError
from tabdistill.learners import (
    GBDTModel,
    LearnerSpec,
    TrainingTarget,
    deserialize_model,
    gbdt_spec,
    mlp_spec,
    serialize_model,
    train,
)
from tabdistill.learners.base import resolve_weight_pairs
from tabdistill.learners.mlp import EarlyStopTracker, _init_params, loss_and_gradients
from tabdistill.metrics import roc_auc
from tabdistill.tabular import FeatureEncoder

from helpers import dataset_from_arrays, noisy_nonlinear_dataset, separable_dataset


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(DataError):
            LearnerSpec("forest", {})

    def test_nonpositive_hyperparameter(self):
        with pytest.raises(DataError):
            gbdt_spec(rounds=0)

    def test_empty_hidden_sizes(self):
        with pytest.raises(DataError):
            mlp_spec(hidden_sizes=())

    def test_unknown_hyperparameter(self):
        with pytest.raises(DataError):
            gbdt_spec(depth=3)

    def test_defaults_filled_in(self):
        spec = gbdt_spec()
        assert spec["rounds"] == 100
        assert spec["max_depth"] == 6
        assert spec["learning_rate"] == 0.3
        assert spec["l2_leaf_penalty"] == 1.0
        spec = mlp_spec()
        assert spec["hidden_sizes"] == (64, 32)
        assert spec["patience"] == 10


class TestIntegerHyperparameters:
    """Integer hyperparameters are checked when the spec is built, so a
    model never trains with values other than the ones its spec echoes."""

    @pytest.mark.parametrize("kind, name", [
        ("gbdt", "rounds"), ("gbdt", "max_depth"), ("mlp", "epochs"),
        ("mlp", "batch_size"), ("mlp", "patience")])
    @pytest.mark.parametrize("value", [2.5, 1.9, 3.0, True, "3", None, 0, -2])
    def test_non_integer_is_data_error(self, kind, name, value):
        with pytest.raises(DataError, match=name):
            LearnerSpec(kind, {name: value})

    @pytest.mark.parametrize("sizes", [(8, 2.5), (1.9,), (4.0,), (8, 0), (True,), ("8",)])
    def test_non_integer_hidden_size_is_data_error(self, sizes):
        with pytest.raises(DataError, match="hidden size"):
            mlp_spec(hidden_sizes=sizes)

    def test_integer_spec_echo_is_unchanged(self):
        spec = LearnerSpec("gbdt", {"rounds": 2, "max_depth": 1}, seed=4)
        assert json.dumps(spec.to_json_dict(), sort_keys=True) == (
            '{"kind": "gbdt", "params": {"l2_leaf_penalty": 1.0, "learning_rate": 0.3, '
            '"max_depth": 1, "min_child_weight": 1.0, "rounds": 2}, "seed": 4}')
        spec = mlp_spec(hidden_sizes=[8, 4], epochs=3, batch_size=16, patience=2)
        assert spec.to_json_dict()["params"] == {
            "hidden_sizes": [8, 4], "epochs": 3, "batch_size": 16, "learning_rate": 0.01,
            "patience": 2, "batch_norm": False, "momentum": 0.9}

    def test_numpy_integers_become_ints(self):
        spec = mlp_spec(hidden_sizes=np.array([8, 4]), epochs=np.int64(3))
        assert spec["hidden_sizes"] == (8, 4) and spec["epochs"] == 3
        assert type(spec["epochs"]) is int
        assert all(type(h) is int for h in spec["hidden_sizes"])

    def test_trained_model_matches_its_spec(self):
        model = train(gbdt_spec(rounds=2, max_depth=1), separable_dataset(60, seed=1),
                      TrainingTarget.hard())
        assert len(model.trees) == 2
        assert all(len(tree.feature) <= 3 for tree in model.trees)


class TestTrainingTargets:
    def test_weight_pair_validation(self):
        with pytest.raises(DataError):
            TrainingTarget.weighted([0.5, -0.1], [0.5, 0.5])
        with pytest.raises(DataError):
            TrainingTarget.weighted([0.0, 0.5], [0.0, 0.5])
        for bad in (np.inf, np.nan):
            with pytest.raises(DataError, match="finite"):
                TrainingTarget.weighted([0.5, bad], [0.5, 0.5])
            with pytest.raises(DataError, match="finite"):
                TrainingTarget.weighted([0.5, 0.5], [bad, 0.5])

    def test_resolve_hard_labels(self):
        labels = np.array([1, 0, 1])
        w_pos, w_neg = resolve_weight_pairs(TrainingTarget.hard(), labels)
        np.testing.assert_array_equal(w_pos, [1.0, 0.0, 1.0])
        np.testing.assert_array_equal(w_neg, [0.0, 1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(TrainingError):
            resolve_weight_pairs(TrainingTarget.weighted([1.0], [0.0]),
                                 np.array([1, 0]))


class TestGBDTTraining:
    def test_separable_data_high_auc(self):
        ds = separable_dataset(2000, seed=0)
        model = train(gbdt_spec(), ds, TrainingTarget.hard())
        assert roc_auc(model.predict(ds), ds.labels) >= 0.99

    def test_hard_equals_weighted_bitwise(self):
        ds = separable_dataset(400, seed=1)
        spec = gbdt_spec(rounds=15)
        m_hard = train(spec, ds, TrainingTarget.hard())
        y = ds.labels.astype(np.float64)
        m_weighted = train(spec, ds, TrainingTarget.weighted(y, 1.0 - y))
        np.testing.assert_array_equal(m_hard.predict(ds), m_weighted.predict(ds))
        assert serialize_model(m_hard) == serialize_model(m_weighted)

    def test_determinism(self):
        ds = noisy_nonlinear_dataset(500, seed=2)
        a = train(gbdt_spec(rounds=10), ds, TrainingTarget.hard())
        b = train(gbdt_spec(rounds=10), ds, TrainingTarget.hard())
        assert serialize_model(a) == serialize_model(b)

    def test_zero_total_weight_row_rejected(self):
        ds = separable_dataset(10, seed=3)
        w = np.ones(10)
        w[4] = 0.0
        with pytest.raises(DataError):
            train(gbdt_spec(rounds=2), ds, TrainingTarget.weighted(w * 0.0, w * 0.0))

    def test_non_finite_features_rejected(self):
        ds = dataset_from_arrays({"a": [1.0, np.inf, 3.0]}, [0, 1, 0])
        with pytest.raises(TrainingError, match="finite"):
            train(gbdt_spec(rounds=2), ds, TrainingTarget.hard())


class TestGBDTPredict:
    def test_zero_trees_predicts_half(self):
        ds = separable_dataset(20, seed=4)
        model = GBDTModel(gbdt_spec(), FeatureEncoder.fit(ds), trees=[])
        np.testing.assert_array_equal(model.predict(ds), np.full(20, 0.5))

    def test_outputs_in_unit_interval(self):
        ds = noisy_nonlinear_dataset(300, seed=5)
        model = train(gbdt_spec(rounds=30), ds, TrainingTarget.hard())
        p = model.predict(ds)
        assert (p >= 0).all() and (p <= 1).all()

    def test_constant_columns_do_not_change_predictions(self):
        base = separable_dataset(2000, seed=6)
        feats = {name: base.column_values(name) for name in base.schema.feature_names}
        with_consts = dict(feats)
        for j in range(5):
            with_consts[f"one{j}"] = np.ones(base.n_rows)
        ds_plain = dataset_from_arrays(feats, base.labels)
        ds_const = dataset_from_arrays(with_consts, base.labels)
        spec = gbdt_spec(rounds=25)
        m_plain = train(spec, ds_plain, TrainingTarget.hard())
        m_const = train(spec, ds_const, TrainingTarget.hard())
        np.testing.assert_array_equal(m_plain.predict(ds_plain),
                                      m_const.predict(ds_const))

    def test_schema_mismatch_rejected(self):
        ds = separable_dataset(50, seed=7)
        model = train(gbdt_spec(rounds=2), ds, TrainingTarget.hard())
        other = dataset_from_arrays({"g1": np.zeros(5), "g2": np.zeros(5)},
                                    [0, 1, 0, 1, 0])
        with pytest.raises(SchemaMismatchError):
            model.predict(other)


class TestGBDTInvariances:
    def test_weight_scaling_power_of_two_bitwise(self):
        ds = noisy_nonlinear_dataset(300, seed=8)
        y = ds.labels.astype(np.float64)
        w_pos = 0.3 + 0.6 * y
        w_neg = 1.0 - w_pos
        # the invariance needs both regularizers out of the way: the leaf
        # penalty enters the leaf value and min_child_weight compares against
        # the scaled hessian sums
        spec = LearnerSpec("gbdt", {"rounds": 10, "l2_leaf_penalty": 1e-300,
                                    "min_child_weight": 1e-300})
        base = train(spec, ds, TrainingTarget.weighted(w_pos, w_neg))
        scaled = train(spec, ds, TrainingTarget.weighted(4.0 * w_pos, 4.0 * w_neg))
        np.testing.assert_array_equal(base.predict(ds), scaled.predict(ds))

    def test_weight_scaling_more_powers_of_two(self):
        ds = noisy_nonlinear_dataset(300, seed=9)
        y = ds.labels.astype(np.float64)
        w_pos = 0.3 + 0.6 * y
        w_neg = 1.0 - w_pos
        spec = LearnerSpec("gbdt", {"rounds": 10, "l2_leaf_penalty": 1e-300,
                                    "min_child_weight": 1e-300})
        base = train(spec, ds, TrainingTarget.weighted(w_pos, w_neg))
        for c in (0.25, 2.0, 1024.0):
            scaled = train(spec, ds, TrainingTarget.weighted(c * w_pos, c * w_neg))
            np.testing.assert_array_equal(base.predict(ds), scaled.predict(ds))

    def test_weight_scaling_arbitrary_constant_close(self):
        # non-power-of-two scaling perturbs gains in the last ulp, which can
        # reorder exact ties deep in a tree; a single root split has
        # macroscopically separated gains, so structure and values must agree
        ds = noisy_nonlinear_dataset(300, seed=9)
        y = ds.labels.astype(np.float64)
        w_pos = 0.3 + 0.6 * y
        w_neg = 1.0 - w_pos
        spec = LearnerSpec("gbdt", {"rounds": 1, "max_depth": 1,
                                    "l2_leaf_penalty": 1e-300,
                                    "min_child_weight": 1e-300})
        base = train(spec, ds, TrainingTarget.weighted(w_pos, w_neg))
        scaled = train(spec, ds, TrainingTarget.weighted(3.0 * w_pos, 3.0 * w_neg))
        np.testing.assert_allclose(base.predict(ds), scaled.predict(ds),
                                   rtol=0, atol=1e-12)

    def test_monotone_transform_bitwise(self):
        train_ds = noisy_nonlinear_dataset(600, seed=10)
        test_ds = noisy_nonlinear_dataset(400, seed=11)
        spec = gbdt_spec(rounds=20)

        def cubed(ds):
            feats = {name: ds.column_values(name) ** 3 + ds.column_values(name)
                     for name in ds.schema.feature_names}
            return dataset_from_arrays(feats, ds.labels)

        m = train(spec, train_ds, TrainingTarget.hard())
        m_t = train(spec, cubed(train_ds), TrainingTarget.hard())
        np.testing.assert_array_equal(m.predict(test_ds), m_t.predict(cubed(test_ds)))


class TestMLP:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((12, 3))
        w_pos = rng.random(12)
        w_neg = 1.0 - w_pos
        params = _init_params(rng, [3, 4, 1], batch_norm=False)

        loss0, grads = loss_and_gradients(params, x, w_pos, w_neg, training=False)
        h = 1e-6
        for li, layer in enumerate(params["layers"]):
            for key in ("W", "b"):
                flat = layer[key].reshape(-1)
                grad_flat = grads[li][key].reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_and_gradients(params, x, w_pos, w_neg, training=False)[0]
                    flat[idx] = orig - h
                    down = loss_and_gradients(params, x, w_pos, w_neg, training=False)[0]
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    assert grad_flat[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_batch_norm_gradient_matches_finite_differences(self):
        # eval mode: the normalization statistics are constants, so the
        # analytic gradients must match finite differences exactly
        rng = np.random.default_rng(23)
        x = rng.standard_normal((10, 3))
        w_pos = rng.random(10)
        w_neg = 1.0 - w_pos
        params = _init_params(rng, [3, 4, 1], batch_norm=True)
        params["running"][0]["mean"] = rng.standard_normal(4) * 0.1
        params["running"][0]["var"] = 1.0 + rng.random(4)

        _, grads = loss_and_gradients(params, x, w_pos, w_neg, training=False)
        h = 1e-6
        for li, layer in enumerate(params["layers"]):
            for key in layer:
                flat = layer[key].reshape(-1)
                grad_flat = grads[li][key].reshape(-1)
                for idx in range(flat.size):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    up = loss_and_gradients(params, x, w_pos, w_neg,
                                            training=False)[0]
                    flat[idx] = orig - h
                    down = loss_and_gradients(params, x, w_pos, w_neg,
                                              training=False)[0]
                    flat[idx] = orig
                    fd = (up - down) / (2 * h)
                    assert grad_flat[idx] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_early_stop_tracker_contract(self):
        # validation score degrades from epoch 3 onward
        tracker = EarlyStopTracker(patience=4)
        scores = [0.60, 0.65, 0.70, 0.72, 0.71, 0.69, 0.68, 0.67, 0.66, 0.65]
        stopped_at = None
        for epoch, score in enumerate(scores):
            if tracker.update(epoch, score):
                stopped_at = epoch
                break
        assert tracker.best_epoch == 3
        assert stopped_at == 3 + 4

    def test_training_restores_best_epoch(self):
        train_ds = noisy_nonlinear_dataset(400, seed=13)
        valid_ds = noisy_nonlinear_dataset(150, seed=14)
        model = train(mlp_spec(epochs=60, hidden_sizes=(32,), patience=5),
                      train_ds, TrainingTarget.hard(), valid_ds)
        assert model.best_epoch <= model.epochs_run - 1
        assert model.epochs_run <= 60

    def test_determinism(self):
        ds = noisy_nonlinear_dataset(300, seed=15)
        valid = noisy_nonlinear_dataset(100, seed=16)
        spec = mlp_spec(seed=3, epochs=10, hidden_sizes=(8,))
        a = train(spec, ds, TrainingTarget.hard(), valid)
        b = train(spec, ds, TrainingTarget.hard(), valid)
        assert serialize_model(a) == serialize_model(b)

    def test_outputs_in_unit_interval(self):
        ds = noisy_nonlinear_dataset(200, seed=17)
        model = train(mlp_spec(epochs=5, hidden_sizes=(8,)), ds, TrainingTarget.hard())
        p = model.predict(ds)
        assert (p >= 0).all() and (p <= 1).all()

    def test_batch_norm_path_trains(self):
        ds = separable_dataset(400, seed=18)
        model = train(mlp_spec(epochs=20, hidden_sizes=(16,), batch_norm=True),
                      ds, TrainingTarget.hard())
        assert roc_auc(model.predict(ds), ds.labels) > 0.9


class TestSerialization:
    def test_gbdt_roundtrip_bitwise(self):
        ds = noisy_nonlinear_dataset(500, seed=19)
        probe = noisy_nonlinear_dataset(1000, seed=20)
        model = train(gbdt_spec(rounds=10), ds, TrainingTarget.hard())
        doc = json.loads(json.dumps(serialize_model(model)))
        restored = deserialize_model(doc)
        np.testing.assert_array_equal(model.predict(probe), restored.predict(probe))

    def test_mlp_roundtrip_bitwise(self):
        ds = noisy_nonlinear_dataset(300, seed=21)
        probe = noisy_nonlinear_dataset(200, seed=22)
        model = train(mlp_spec(epochs=5, hidden_sizes=(8, 4), batch_norm=True),
                      ds, TrainingTarget.hard())
        doc = json.loads(json.dumps(serialize_model(model)))
        restored = deserialize_model(doc)
        assert np.max(np.abs(model.predict(probe) - restored.predict(probe))) == 0.0

    def test_unknown_version_rejected(self):
        with pytest.raises(SerializationError, match="version"):
            deserialize_model({"format": "tabdistill.model/v999", "kind": "gbdt"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(SerializationError, match="kind"):
            deserialize_model({"format": "tabdistill.model/v1", "kind": "tree"})


class TestMalformedGBDTDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        ds = separable_dataset(80, seed=23)
        model = train(gbdt_spec(rounds=2, max_depth=2), ds, TrainingTarget.hard())
        return json.loads(json.dumps(serialize_model(model)))

    @staticmethod
    def _first_split(doc):
        return doc["trees"][0]["split"]

    def test_missing_trees(self, doc):
        bad = {k: v for k, v in doc.items() if k != "trees"}
        with pytest.raises(SerializationError, match="trees"):
            deserialize_model(bad)

    def test_null_trees(self, doc):
        with pytest.raises(SerializationError, match="trees"):
            deserialize_model({**doc, "trees": None})

    def test_split_without_left(self, doc):
        bad = json.loads(json.dumps(doc))
        del self._first_split(bad)["left"]
        with pytest.raises(SerializationError, match="left"):
            deserialize_model(bad)

    def test_non_numeric_leaf_value(self, doc):
        bad = json.loads(json.dumps(doc))
        node = bad["trees"][0]
        while "split" in node:
            node = node["split"]["left"]
        node["leaf"]["value"] = "x"
        with pytest.raises(SerializationError, match="leaf value"):
            deserialize_model(bad)

    def test_feature_out_of_encoder_range(self, doc):
        bad = json.loads(json.dumps(doc))
        self._first_split(bad)["feature"] = 2
        with pytest.raises(SerializationError, match="out of range"):
            deserialize_model(bad)

    def test_node_neither_split_nor_leaf(self, doc):
        bad = json.loads(json.dumps(doc))
        self._first_split(bad)["right"] = {"stump": {}}
        with pytest.raises(SerializationError, match="neither"):
            deserialize_model(bad)

    def test_malformed_spec(self, doc):
        with pytest.raises(SerializationError, match="malformed gbdt"):
            deserialize_model({**doc, "spec": {"kind": "gbdt"}})

    def test_well_formed_document_still_loads(self, doc):
        restored = deserialize_model(doc)
        assert serialize_model(restored) == doc


class TestMalformedMLPDocument:
    @pytest.fixture(scope="class")
    def doc(self):
        ds = separable_dataset(80, seed=24)
        model = train(mlp_spec(epochs=2, hidden_sizes=(3, 2), batch_norm=True), ds,
                      TrainingTarget.hard())
        return json.loads(json.dumps(serialize_model(model)))

    @pytest.mark.parametrize("layer, key, fix", [
        (0, "W", lambda w: w[:-1]),               # fewer rows than encoder width
        (1, "W", lambda w: [row + [0.0] for row in w]),  # wider than the next layer
        (2, "W", lambda w: w + w),                # taller than the layer before
        (1, "b", lambda b: b + [0.0]),
        (0, "gamma", lambda g: g[:1]),
        (1, "beta", lambda b: [b]),
    ])
    def test_wrong_layer_shape(self, doc, layer, key, fix):
        bad = json.loads(json.dumps(doc))
        bad["layers"][layer][key] = fix(bad["layers"][layer][key])
        with pytest.raises(SerializationError, match=f"layer {layer} {key}"):
            deserialize_model(bad)

    def test_wrong_running_shape(self, doc):
        bad = json.loads(json.dumps(doc))
        bad["running"][1]["var"] = bad["running"][1]["var"] * 2
        with pytest.raises(SerializationError, match="running 1 var"):
            deserialize_model(bad)

    @pytest.mark.parametrize("change", [
        lambda d: d["layers"].pop(),
        lambda d: d["layers"][0].pop("gamma"),
        lambda d: d["layers"][2].update(gamma=[1.0]),
        lambda d: d.update(running=None),
        lambda d: d["running"].pop(),
    ])
    def test_layers_disagree_with_spec(self, doc, change):
        bad = json.loads(json.dumps(doc))
        change(bad)
        with pytest.raises(SerializationError):
            deserialize_model(bad)

    def test_non_finite_parameter(self, doc):
        bad = json.loads(json.dumps(doc))
        bad["layers"][1]["W"][0][0] = float("nan")
        with pytest.raises(SerializationError, match="non-finite"):
            deserialize_model(bad)

    def test_running_without_batch_norm(self, doc):
        bad = json.loads(json.dumps(doc))
        bad["spec"]["params"]["batch_norm"] = False
        for layer in bad["layers"]:
            layer.pop("gamma", None)
            layer.pop("beta", None)
        with pytest.raises(SerializationError, match="running"):
            deserialize_model(bad)
        bad["running"] = None
        deserialize_model(bad)

    def test_well_formed_document_still_loads(self, doc):
        assert serialize_model(deserialize_model(doc)) == doc


class TestNonFiniteFeaturesAtPredict:
    @pytest.fixture(scope="class")
    def models(self):
        ds = separable_dataset(120, seed=24)
        return [train(gbdt_spec(rounds=3), ds, TrainingTarget.hard()),
                train(mlp_spec(epochs=2, hidden_sizes=(4,)), ds, TrainingTarget.hard())]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_raw_rows_rejected(self, models, bad):
        rows = np.array([[0.1, 0.2], [bad, bad], [0.3, -0.4]])
        for model in models:
            with pytest.raises(DataError, match="row 1"):
                model.predict(rows)

    def test_dataset_rows_rejected(self, models):
        ds = dataset_from_arrays({"f1": [0.5, np.nan], "f2": [0.1, 0.2]}, [0, 1])
        for model in models:
            with pytest.raises(DataError, match="non-finite"):
                model.predict(ds)

    def test_mlp_validation_rows_rejected(self):
        ds = separable_dataset(120, seed=24)
        valid = dataset_from_arrays({"f1": [0.5, np.inf, 0.2], "f2": [0.1, 0.2, 0.3]},
                                    [0, 1, 1])
        with pytest.raises(DataError, match="row 1"):
            train(mlp_spec(epochs=2, hidden_sizes=(4,)), ds, TrainingTarget.hard(), valid)

    def test_wrong_width_is_still_a_training_error(self, models):
        for model in models:
            with pytest.raises(TrainingError, match="2 columns"):
                model.predict(np.zeros((3, 3)))
