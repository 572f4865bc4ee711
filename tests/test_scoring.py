"""Scoring many models on the same rows: one encoded matrix per distinct
encoder, checked bit for bit against the per-model path and against the
block-and-hstack transform it replaced. Also the bit-identity of the
sign-folded sigmoid and of the loss-free MLP training step."""

from __future__ import annotations

import json

import numpy as np
import pytest

from tabdistill.ensemble import DEConfig, EnsembleModel, blend, optimize_weights_detailed
from tabdistill.errors import DataError, SchemaMismatchError
from tabdistill.learners import (
    TrainingTarget,
    deserialize_model,
    gbdt_spec,
    mlp_spec,
    score_models,
    serialize_model,
    train,
)
from tabdistill.learners import _sigmoid, resolve_weight_pairs
from tabdistill.learners.mlp import (
    EarlyStopTracker,
    _copy_params,
    _forward,
    _forward_backward,
    _init_params,
)
from tabdistill.metrics import roc_auc
from tabdistill.tabular import MAX_ONE_HOT, Dataset, FeatureEncoder, ingest_csv

from helpers import dataset_from_arrays, encoder_output_names, mixed_type_dataset as _mixed


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _reference_transform(encoder: FeatureEncoder, ds: Dataset) -> np.ndarray:
    """The transform before the single allocation: one block per column,
    joined with ``np.hstack``."""
    encoder.check_schema(ds)
    blocks = []
    for col, arr in zip(ds.schema.feature_columns, ds.feature_arrays):
        if col.kind != "categorical":
            blocks.append(arr.astype(np.float64)[:, None])
        else:
            kept = encoder.kept_categories[col.name]
            index = {cat: j for j, cat in enumerate(kept)}
            lut = np.array([index.get(cat, len(kept)) for cat in col.categories],
                           dtype=np.intp)
            out = np.zeros((len(arr), len(kept) + 1))
            out[np.arange(len(arr)), lut[arr]] = 1.0
            blocks.append(out)
    return np.hstack(blocks)


def _reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The sigmoid before the sign fold: boolean masks per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _other_schema(n: int) -> Dataset:
    rng = np.random.default_rng(n)
    return dataset_from_arrays({"f1": rng.standard_normal(n)}, rng.integers(0, 2, n))


class TestTransform:
    def test_mixed_types_match_reference(self):
        ds = _mixed(400, 0)
        enc = FeatureEncoder.fit(ds)
        x = enc.transform(ds)
        ref = _reference_transform(enc, ds)
        assert x.shape == ref.shape == (400, len(encoder_output_names(enc)))
        assert x.dtype == ref.dtype and x.flags.c_contiguous
        assert _bits(x) == _bits(ref)

    def test_unseen_categories_match_reference(self):
        # fit on rows that never show the last levels; score rows that do
        enc = FeatureEncoder.fit(_mixed(300, 1, levels=10))
        ds = _mixed(300, 2, levels=20, codes=np.arange(300) * 7 % 20)
        x = enc.transform(ds)
        assert _bits(x) == _bits(_reference_transform(enc, ds))
        other = encoder_output_names(enc).index("shop=<other>")
        assert (x[:, other] == (ds.feature_arrays[1] >= 10)).all()

    def test_beyond_max_one_hot_matches_reference(self):
        levels = MAX_ONE_HOT + 36
        ds = _mixed(2000, 3, levels, codes=np.random.default_rng(4).integers(0, levels, 2000))
        enc = FeatureEncoder.fit(ds)
        assert len(enc.kept_categories["shop"]) == MAX_ONE_HOT
        x = enc.transform(ds)
        assert _bits(x) == _bits(_reference_transform(enc, ds))
        shop = [j for j, name in enumerate(encoder_output_names(enc))
                if name.startswith("shop=")]
        assert len(shop) == MAX_ONE_HOT + 1
        assert (x[:, shop].sum(axis=1) == 1.0).all()

    def test_schema_mismatch(self):
        enc = FeatureEncoder.fit(_mixed(50, 5))
        with pytest.raises(SchemaMismatchError):
            enc.transform(_other_schema(50))

    @pytest.mark.parametrize("fit_cells, score_cells", [
        pytest.param(["0.5", "-1.25", "2.75"], ["1", "2", "3"], id="int-cells-in-float-column"),
        pytest.param(["1", "-2", "3"], ["1.5", "2.0", "-3"], id="float-cells-in-int-column"),
    ])
    def test_int_and_float_are_one_numeric_kind(self, tmp_path, fit_cells, score_cells):
        def csv(name, cells, labels):
            path = tmp_path / name
            path.write_text("x,label\n" + "".join(f"{c},{y}\n" for c, y in zip(cells, labels)))
            return ingest_csv(path, "label")

        fit = csv("fit.csv", fit_cells * 20, [0, 1, 1] * 20)
        model = train(gbdt_spec(rounds=3, max_depth=2), fit, TrainingTarget.hard())
        doc = serialize_model(model)
        rows = csv("score.csv", score_cells, [0, 1, 0])
        assert rows.schema.feature_columns[0].kind != fit.schema.feature_columns[0].kind
        as_float = np.array([float(c) for c in score_cells])
        assert _bits(model.predict(rows)) == _bits(model.predict(as_float[:, None]))
        assert serialize_model(model) == doc
        with pytest.raises(SchemaMismatchError):
            model.predict(csv("words.csv", ["a", "b", "c"], [0, 1, 0]))


def _models():
    """Mixed GBDT/MLP members: a and b are fit on the same rows, so their
    encoders are equal but distinct objects; c is fit on rows with fewer
    levels, so its encoder differs."""
    ds = _mixed(500, 10, levels=MAX_ONE_HOT + 8)
    sub = ds.take(np.flatnonzero(ds.feature_arrays[1] < 40))
    a = train(gbdt_spec(rounds=4, max_depth=3), ds, TrainingTarget.hard())
    b = train(mlp_spec(hidden_sizes=(8,), epochs=3, batch_size=64), ds,
              TrainingTarget.hard())
    c = train(gbdt_spec(rounds=3, max_depth=2, seed=1), sub, TrainingTarget.hard())
    d = train(mlp_spec(hidden_sizes=(4,), epochs=2, seed=2), sub, TrainingTarget.hard())
    assert a.encoder == b.encoder and a.encoder is not b.encoder
    assert c.encoder == d.encoder and c.encoder != a.encoder
    # reloaded copies: equal encoders, never identical ones
    models = [deserialize_model(json.loads(json.dumps(serialize_model(m))))
              for m in (a, c, b, d, a)]
    return models, _mixed(700, 11, levels=MAX_ONE_HOT + 8)


@pytest.fixture(scope="module")
def models_and_rows():
    return _models()


class _Duck:
    """A member without an encoder: it must receive the rows unchanged."""

    def __init__(self):
        self.seen = []

    def predict(self, rows):
        self.seen.append(rows)
        return np.full(rows.n_rows, 0.25)


class TestScoreModels:
    def test_bitwise_equal_to_per_model_predict(self, models_and_rows):
        models, ds = models_and_rows
        expected = np.stack([m.predict(ds) for m in models])
        assert _bits(score_models(models, ds)) == _bits(expected)

    def test_ensemble_predict_bitwise(self, models_and_rows):
        models, ds = models_and_rows
        weights = [0.3, 1.0, 0.0, 2.5, 0.7]
        ens = EnsembleModel(models, weights)
        expected = blend(np.stack([m.predict(ds) for m in models]), np.asarray(weights))
        assert _bits(ens.predict(ds)) == _bits(expected)

    def test_one_transform_per_distinct_encoder(self, models_and_rows, monkeypatch):
        models, ds = models_and_rows
        calls = []
        transform = FeatureEncoder.transform

        def counted(self, rows):
            calls.append(self)
            return transform(self, rows)

        monkeypatch.setattr(FeatureEncoder, "transform", counted)
        score_models(models, ds)
        assert calls == [models[0].encoder, models[1].encoder]
        calls.clear()
        EnsembleModel(models, np.ones(len(models))).predict(ds)
        assert len(calls) == 2

    def test_weight_search_scores_valid_once_per_encoder(self, models_and_rows,
                                                          monkeypatch):
        models, ds = models_and_rows
        calls = []
        transform = FeatureEncoder.transform
        monkeypatch.setattr(FeatureEncoder, "transform",
                            lambda self, rows: calls.append(1) or transform(self, rows))
        _, audit = optimize_weights_detailed(models, ds, DEConfig(max_iterations=2, seed=0))
        assert len(calls) == 2
        assert audit["member_aucs"] == [float(roc_auc(m.predict(ds), ds.labels))
                                        for m in models]

    def test_duck_members_get_rows_unchanged(self, models_and_rows):
        models, ds = models_and_rows
        duck = _Duck()
        out = score_models([duck, models[0], duck], ds)
        assert duck.seen == [ds, ds]
        assert _bits(out[1]) == _bits(models[0].predict(ds))
        assert (out[0] == 0.25).all() and (out[2] == 0.25).all()

    def test_matrix_rows_pass_through(self, models_and_rows):
        models, ds = models_and_rows
        x = models[0].encoder.transform(ds)
        same = [models[0], models[2], models[4]]
        assert _bits(score_models(same, x)) == _bits(np.stack([m.predict(ds) for m in same]))

    def test_non_finite_row_same_error(self, models_and_rows):
        models, ds = models_and_rows
        x = ds.feature_arrays[3].copy()
        x[17] = np.nan
        bad = Dataset(ds.schema, ds.feature_arrays[:3] + (x,) + ds.feature_arrays[4:],
                      ds.labels)
        with pytest.raises(DataError) as per_model:
            models[0].predict(bad)
        with pytest.raises(DataError) as shared:
            score_models(models, bad)
        assert str(shared.value) == str(per_model.value) == \
            "feature row 17 has non-finite values"

    def test_first_member_meets_the_error(self, models_and_rows):
        models, ds = models_and_rows
        duck = _Duck()
        with pytest.raises(SchemaMismatchError):
            score_models([duck, models[0], duck], _other_schema(30))
        assert len(duck.seen) == 1  # the later duck is never reached

    def test_schema_mismatch(self, models_and_rows):
        models, _ = models_and_rows
        with pytest.raises(SchemaMismatchError):
            EnsembleModel(models, np.ones(5)).predict(_other_schema(30))


class TestSigmoid:
    def test_bitwise_equal_to_masked_reference(self):
        rng = np.random.default_rng(0)
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308,
                            np.finfo(np.float64).max, -np.finfo(np.float64).max,
                            5e-324, -5e-324, 709.0, -709.0, 745.0, -745.0, 36.7, -36.7])
        grid = np.concatenate([special, rng.standard_normal(5000) * 30,
                               np.sign(rng.standard_normal(2000))
                               * 10.0 ** rng.uniform(-320, 308, 2000)])
        with np.errstate(over="raise", divide="raise"):
            got = _sigmoid(grid)
        assert _bits(got) == _bits(_reference_sigmoid(grid))


def _reference_train_mlp(spec, ds, target, valid):
    """``train_mlp`` before the loss-free step: every batch computes and
    discards its loss, and velocities are rebuilt out of place."""
    encoder = FeatureEncoder.fit(ds)
    x = encoder.transform(ds)
    w_pos, w_neg = resolve_weight_pairs(target, ds.labels)
    rng = np.random.default_rng(spec.seed)
    params = _init_params(rng, [x.shape[1], *spec["hidden_sizes"], 1], spec["batch_norm"])
    velocity = [{k: np.zeros_like(v) for k, v in layer.items()} for layer in params["layers"]]
    lr, mu, bs = spec["learning_rate"], spec["momentum"], spec["batch_size"]
    tracker = EarlyStopTracker(spec["patience"])
    x_valid = encoder.transform(valid)
    best = None
    for epoch in range(spec["epochs"]):
        order = rng.permutation(len(x))
        for start in range(0, len(x), bs):
            batch = order[start:start + bs]
            _, grads = _forward_backward(params, x[batch], w_pos[batch], w_neg[batch])
            for layer, vel, grad in zip(params["layers"], velocity, grads):
                for key in layer:
                    vel[key] = mu * vel[key] - lr * grad[key].reshape(layer[key].shape)
                    layer[key] += vel[key]
        stop = tracker.update(epoch, float(roc_auc(
            _forward(params, x_valid, training=False)[0], valid.labels)))
        if tracker.best_epoch == epoch:
            best = _copy_params(params)
        if stop:
            break
    return best


@pytest.mark.parametrize("batch_norm", [False, True])
def test_mlp_training_step_matches_reference(batch_norm):
    ds = _mixed(600, 20)
    valid = _mixed(200, 21)
    spec = mlp_spec(hidden_sizes=(16, 8), epochs=6, batch_size=64, batch_norm=batch_norm,
                    patience=3, seed=7)
    target = TrainingTarget.weighted(np.linspace(0.05, 0.95, 600), np.linspace(0.95, 0.05, 600))
    model = train(spec, ds, target, valid)
    ref = _reference_train_mlp(spec, ds, target, valid)
    for got, want in zip(model.params["layers"], ref["layers"]):
        assert got.keys() == want.keys()
        assert all(_bits(got[k]) == _bits(want[k]) for k in got)
    if batch_norm:
        for got, want in zip(model.params["running"], ref["running"]):
            assert all(_bits(got[k]) == _bits(want[k]) for k in got)
