"""Feed-forward network trained by mini-batch gradient descent with
momentum on the weighted cross-entropy, with optional per-layer batch
normalization and patience-based early stopping on validation AUC."""

from __future__ import annotations

from typing import Optional

import numpy as np

from tabdistill.errors import SerializationError, require_integer
from tabdistill.learners import (
    LearnerSpec,
    TrainingTarget,
    _sigmoid,
    encode_features,
    training_inputs,
)
from tabdistill.metrics import roc_auc
from tabdistill.tabular import Dataset, FeatureEncoder

_BN_EPS = 1e-5
_BN_MOMENTUM = 0.9


class EarlyStopTracker:
    """Stops after ``patience`` consecutive epochs without a strictly better
    validation score and remembers which epoch was best."""

    def __init__(self, patience: int):
        self.patience = patience
        self.best_score = -np.inf
        self.best_epoch = -1
        self.stale = 0

    def update(self, epoch: int, score: float) -> bool:
        """Record one epoch's score; returns True when training should stop."""
        if score > self.best_score:
            self.best_score = score
            self.best_epoch = epoch
            self.stale = 0
            return False
        self.stale += 1
        return self.stale >= self.patience


def _init_params(rng: np.random.Generator, sizes: list[int], batch_norm: bool) -> dict:
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        layer = {
            "W": rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in),
            "b": np.zeros(fan_out),
        }
        is_hidden = i < len(sizes) - 2
        if batch_norm and is_hidden:
            layer["gamma"] = np.ones(fan_out)
            layer["beta"] = np.zeros(fan_out)
        layers.append(layer)
    running = None
    if batch_norm:
        running = [{"mean": np.zeros(sizes[i + 1]), "var": np.ones(sizes[i + 1])}
                   for i in range(len(sizes) - 2)]
    return {"layers": layers, "running": running}


def _copy_params(params: dict) -> dict:
    return {
        "layers": [{k: v.copy() for k, v in layer.items()} for layer in params["layers"]],
        "running": None if params["running"] is None else
        [{k: v.copy() for k, v in r.items()} for r in params["running"]],
    }


def _forward(params: dict, x: np.ndarray, training: bool) -> tuple[np.ndarray, list[dict]]:
    """Returns output probabilities and per-layer caches for backprop."""
    layers = params["layers"]
    running = params["running"]
    a = x
    caches: list[dict] = []
    for i, layer in enumerate(layers[:-1]):
        z = a @ layer["W"] + layer["b"]
        cache = {"a_in": a, "z": z}
        if "gamma" in layer:
            if training:
                mean = z.mean(axis=0)
                var = z.var(axis=0)
                stats = running[i]
                stats["mean"] = _BN_MOMENTUM * stats["mean"] + (1 - _BN_MOMENTUM) * mean
                stats["var"] = _BN_MOMENTUM * stats["var"] + (1 - _BN_MOMENTUM) * var
            else:
                mean = running[i]["mean"]
                var = running[i]["var"]
            inv_std = 1.0 / np.sqrt(var + _BN_EPS)
            z_hat = (z - mean) * inv_std
            cache.update({"z_hat": z_hat, "inv_std": inv_std, "mean": mean})
            z = layer["gamma"] * z_hat + layer["beta"]
            cache["z_bn"] = z
        a = np.maximum(z, 0.0)
        caches.append(cache)
    out = layers[-1]
    logit = (a @ out["W"] + out["b"]).ravel()
    caches.append({"a_in": a, "logit": logit})
    return _sigmoid(logit), caches


def _forward_backward(params: dict, x: np.ndarray, w_pos: np.ndarray, w_neg: np.ndarray):
    """A training batch's probabilities and mean weighted cross-entropy
    gradients, taken through the batch's own normalization statistics."""
    probs, caches = _forward(params, x, training=True)
    n = len(x)
    layers = params["layers"]
    grads = [dict() for _ in layers]
    w_sum = w_pos + w_neg
    dlogit = (w_sum * probs - w_pos) / n  # derivative of the mean loss

    out_cache = caches[-1]
    grads[-1]["W"] = out_cache["a_in"].T @ dlogit[:, None]
    grads[-1]["b"] = np.array([dlogit.sum()])
    da = dlogit[:, None] @ layers[-1]["W"].T

    for i in range(len(layers) - 2, -1, -1):
        cache = caches[i]
        layer = layers[i]
        pre_relu = cache["z_bn"] if "z_bn" in cache else cache["z"]
        dz = da * (pre_relu > 0)
        if "gamma" in layer:
            z_hat = cache["z_hat"]
            inv_std = cache["inv_std"]
            grads[i]["gamma"] = (dz * z_hat).sum(axis=0)
            grads[i]["beta"] = dz.sum(axis=0)
            dz_hat = dz * layer["gamma"]
            dvar = (dz_hat * (cache["z"] - cache["mean"])).sum(axis=0) \
                * (-0.5) * inv_std ** 3
            dmean = (-dz_hat * inv_std).sum(axis=0) + dvar * (-2.0 / n) * (
                cache["z"] - cache["mean"]).sum(axis=0)
            dz = (dz_hat * inv_std + dvar * 2.0 * (cache["z"] - cache["mean"]) / n
                  + dmean / n)
        grads[i]["W"] = cache["a_in"].T @ dz
        grads[i]["b"] = dz.sum(axis=0)
        if i > 0:
            da = dz @ layer["W"].T
    return probs, grads


class MLPModel:
    """A trained feed-forward classifier. Immutable after training."""

    kind = "mlp"

    def __init__(self, spec: LearnerSpec, encoder: FeatureEncoder, params: dict,
                 epochs_run: int = 0, best_epoch: int = -1):
        self.spec = spec
        self.encoder = encoder
        self.params = params
        self.epochs_run = epochs_run
        self.best_epoch = best_epoch

    def predict(self, rows) -> np.ndarray:
        x = encode_features(self.encoder, rows)
        return _forward(self.params, x, training=False)[0]

    def to_json_dict(self) -> dict:
        layers = []
        for layer in self.params["layers"]:
            entry = {"W": layer["W"].tolist(), "b": layer["b"].tolist()}
            if "gamma" in layer:
                entry["gamma"] = layer["gamma"].tolist()
                entry["beta"] = layer["beta"].tolist()
            layers.append(entry)
        running = self.params["running"]
        return {
            "layers": layers,
            "running": None if running is None else
            [{"mean": r["mean"].tolist(), "var": r["var"].tolist()} for r in running],
            "epochs_run": self.epochs_run,
            "best_epoch": self.best_epoch,
        }

    @classmethod
    def from_json_dict(cls, doc: dict, spec: LearnerSpec, encoder: FeatureEncoder) -> "MLPModel":
        """The model from its document's own fields, after the shared header.
        Every parameter must have the shape the spec's layer sizes imply,
        starting from the encoder's output width, and finite values; anything
        else raises SerializationError."""
        sizes = [encoder.width, *spec["hidden_sizes"], 1]
        n_layers = len(sizes) - 1
        if len(doc["layers"]) != n_layers:
            raise SerializationError(
                f"mlp document has {len(doc['layers'])} layers, its spec {n_layers}")
        hidden_keys = ("W", "b", "gamma", "beta") if spec["batch_norm"] else ("W", "b")
        layers = []
        for i, entry in enumerate(doc["layers"]):
            keys = hidden_keys if i < n_layers - 1 else ("W", "b")
            if set(entry) != set(keys):
                raise SerializationError(f"mlp layer {i} must hold exactly {list(keys)}")
            shapes = {"W": (sizes[i], sizes[i + 1])}
            layers.append({k: _checked_array(entry[k], shapes.get(k, (sizes[i + 1],)),
                                             f"layer {i} {k}") for k in keys})
        running = doc["running"]
        if spec["batch_norm"]:
            if not isinstance(running, list) or len(running) != n_layers - 1:
                raise SerializationError(
                    f"mlp batch norm needs running statistics for {n_layers - 1} layers")
            running = [{k: _checked_array(r[k], (sizes[i + 1],), f"running {i} {k}")
                        for k in ("mean", "var")} for i, r in enumerate(running)]
        elif running is not None:
            raise SerializationError("mlp without batch norm has no running statistics")
        return cls(
            spec=spec,
            encoder=encoder,
            params={"layers": layers, "running": running},
            epochs_run=require_integer(doc["epochs_run"], "epochs_run"),
            best_epoch=require_integer(doc["best_epoch"], "best_epoch"),
        )


def _checked_array(values, shape: tuple, name: str) -> np.ndarray:
    """Finite numbers (no bools or strings) of ``shape`` as a float64 array."""
    arr = np.array(values)
    if arr.shape != shape:
        raise SerializationError(f"mlp {name} has shape {arr.shape}, expected {shape}")
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise SerializationError(f"mlp {name} has non-finite or non-numeric values")
    return arr.astype(np.float64)


def train_mlp(spec: LearnerSpec, train_ds: Dataset, target: TrainingTarget,
              valid: Optional[Dataset] = None) -> MLPModel:
    """Mini-batch gradient descent with momentum; when a validation set is
    given, training stops after ``patience`` epochs without an AUC
    improvement and the best-epoch parameters are restored."""
    encoder, x, w_pos, w_neg = training_inputs(train_ds, target)

    rng = np.random.default_rng(spec.seed)
    sizes = [x.shape[1], *spec["hidden_sizes"], 1]
    params = _init_params(rng, sizes, spec["batch_norm"])
    velocity = [{k: np.zeros_like(v) for k, v in layer.items()}
                for layer in params["layers"]]

    batch_size = spec["batch_size"]
    lr = spec["learning_rate"]
    mu = spec["momentum"]
    tracker = EarlyStopTracker(spec["patience"]) if valid is not None else None
    x_valid = encode_features(encoder, valid) if valid is not None else None
    best_params = None
    epochs_run = 0

    for epoch in range(spec["epochs"]):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            batch = order[start:start + batch_size]
            _, grads = _forward_backward(params, x[batch], w_pos[batch], w_neg[batch])
            for layer, vel, grad in zip(params["layers"], velocity, grads):
                for key in layer:
                    v = vel[key]
                    v *= mu
                    v -= lr * grad[key].reshape(layer[key].shape)
                    layer[key] += v
        epochs_run = epoch + 1
        if tracker is not None:
            score = roc_auc(_forward(params, x_valid, training=False)[0], valid.labels)
            stop = tracker.update(epoch, float(score))
            if tracker.best_epoch == epoch:
                best_params = _copy_params(params)
            if stop:
                break

    if best_params is not None:
        params = best_params
    return MLPModel(spec=spec, encoder=encoder, params=params,
                    epochs_run=epochs_run,
                    best_epoch=tracker.best_epoch if tracker is not None else epochs_run - 1)
