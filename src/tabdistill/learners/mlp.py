"""Feed-forward network trained by mini-batch gradient descent with
momentum on the weighted cross-entropy, with optional per-layer batch
normalization and patience-based early stopping on validation AUC.

One forward pass, a single loop over the layers whose last turn is the
output layer, serves training and inference. Training hands it a list for
the backprop caches; inference hands none, so it keeps no layer's arrays
once the next layer is built.

Training holds every layer array in one float64 vector, each array a
reshaped view of it, and the gradients and velocities in two vectors of the
same layout: the backward pass writes each gradient into its view, and a
step is one momentum update of the whole vector. A best epoch is a copy of
that vector and of the running statistics."""

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
from tabdistill.metrics import AUCLabels, roc_auc
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


def _forward(params: dict, x: np.ndarray, caches: Optional[list] = None) -> np.ndarray:
    """Output probabilities from one loop over the layers; the output layer
    is its last turn, and each earlier layer's output passes through ReLU
    on its way into the next. Given a list, the pass normalizes by the
    batch's own statistics, updates the running ones and appends each
    layer's backprop cache; without one it reads the running statistics
    and keeps no layer's arrays past the next layer."""
    a = x
    for i, layer in enumerate(params["layers"]):
        if i:
            # in place: backprop masks by a > 0, which is z > 0
            a = np.maximum(z, 0.0, out=z)
        z = a @ layer["W"]
        z += layer["b"]
        if caches is not None:
            caches.append({"a_in": a})
        if "gamma" in layer:
            stats = params["running"][i]
            if caches is None:
                # in place, the same operations: gamma * z_hat is z_hat * gamma
                z -= stats["mean"]
                z *= 1.0 / np.sqrt(stats["var"] + _BN_EPS)
                z *= layer["gamma"]
                z += layer["beta"]
            else:
                # z.mean(axis=0) and z.var(axis=0), operation for operation
                n = len(z)
                mean = np.add.reduce(z, axis=0) / n
                zc = z - mean
                var = np.add.reduce(zc * zc, axis=0) / n
                stats["mean"] = _BN_MOMENTUM * stats["mean"] + (1 - _BN_MOMENTUM) * mean
                stats["var"] = _BN_MOMENTUM * stats["var"] + (1 - _BN_MOMENTUM) * var
                inv_std = 1.0 / np.sqrt(var + _BN_EPS)
                z_hat = zc * inv_std
                caches[-1].update(zc=zc, z_hat=z_hat, inv_std=inv_std)
                z = layer["gamma"] * z_hat + layer["beta"]
    return _sigmoid(z.ravel())


def _forward_backward(params: dict, x: np.ndarray, w_pos: np.ndarray, w_neg: np.ndarray,
                      grads: list) -> np.ndarray:
    """A training batch's probabilities. The mean weighted cross-entropy
    gradients, taken through the batch's own normalization statistics, are
    written into ``grads``, one dict of arrays per layer shaped like its
    parameters. A hidden unit's ReLU passes gradient where its output, the
    next layer's input, is positive."""
    caches: list[dict] = []
    probs = _forward(params, x, caches)
    n = len(x)
    layers = params["layers"]
    dz = (((w_pos + w_neg) * probs - w_pos) / n)[:, None]  # derivative of the mean loss
    for i in range(len(layers) - 1, -1, -1):
        cache, layer, grad = caches[i], layers[i], grads[i]
        if "gamma" in layer:
            zc, inv_std = cache["zc"], cache["inv_std"]
            np.add.reduce(dz * cache["z_hat"], axis=0, out=grad["gamma"])
            np.add.reduce(dz, axis=0, out=grad["beta"])
            dz_hat = dz * layer["gamma"]
            t = dz_hat * inv_std  # negation is exact: -t.sum() is (-dz_hat * inv_std).sum()
            dvar = np.add.reduce(dz_hat * zc, axis=0) * (-0.5) * inv_std ** 3
            dmean = -np.add.reduce(t, axis=0) + dvar * (-2.0 / n) * np.add.reduce(zc, axis=0)
            dz = t + dvar * 2.0 * zc / n + dmean / n
        np.matmul(cache["a_in"].T, dz, out=grad["W"])
        np.add.reduce(dz, axis=0, out=grad["b"])
        if i > 0:
            dz = dz @ layer["W"].T
            dz *= cache["a_in"] > 0
    return probs


def _views(flat: np.ndarray, layers: list) -> list:
    """Per layer, a dict of views into ``flat`` shaped like that layer's
    arrays, laid out in layer order and each layer's key order."""
    out, start = [], 0
    for layer in layers:
        views = {}
        for key, arr in layer.items():
            views[key] = flat[start:start + arr.size].reshape(arr.shape)
            start += arr.size
        out.append(views)
    return out


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
        return _forward(self.params, x)

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
    theta = np.concatenate([a.ravel() for layer in params["layers"] for a in layer.values()])
    params["layers"] = _views(theta, params["layers"])
    grad = np.empty_like(theta)
    grads = _views(grad, params["layers"])
    velocity = np.zeros_like(theta)

    batch_size = spec["batch_size"]
    lr = spec["learning_rate"]
    mu = spec["momentum"]
    tracker = None
    if valid is not None:
        tracker = EarlyStopTracker(spec["patience"])
        x_valid = encode_features(encoder, valid)
        valid_labels = AUCLabels(valid.labels)
    best = None
    epochs_run = 0

    for epoch in range(spec["epochs"]):
        order = rng.permutation(len(x))
        for start in range(0, len(x), batch_size):
            batch = order[start:start + batch_size]
            _forward_backward(params, x[batch], w_pos[batch], w_neg[batch], grads)
            velocity *= mu
            velocity -= lr * grad
            theta += velocity
        epochs_run = epoch + 1
        if tracker is not None:
            score = roc_auc(_forward(params, x_valid), valid_labels)
            stop = tracker.update(epoch, float(score))
            if tracker.best_epoch == epoch:
                # the running statistics are rebound, never written in place
                running = params["running"]
                best = theta.copy(), None if running is None else [dict(r) for r in running]
            if stop:
                break

    if best is not None:
        theta[:], params["running"] = best
    return MLPModel(spec=spec, encoder=encoder, params=params,
                    epochs_run=epochs_run,
                    best_epoch=tracker.best_epoch if tracker is not None else epochs_run - 1)
