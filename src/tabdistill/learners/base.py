"""Learner specs, training targets, and the train/serialize dispatch."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from tabdistill.errors import DataError, SerializationError, TrainingError, require_integer
from tabdistill.tabular import Dataset, FeatureEncoder

MODEL_FORMAT = "tabdistill.model/v1"

GBDT_DEFAULTS = {
    "rounds": 100,
    "max_depth": 6,
    "learning_rate": 0.3,
    "l2_leaf_penalty": 1.0,
    "min_child_weight": 1.0,
}

MLP_DEFAULTS = {
    "hidden_sizes": (64, 32),
    "epochs": 200,
    "batch_size": 256,
    "learning_rate": 0.01,
    "patience": 10,
    "batch_norm": False,
    "momentum": 0.9,
}

INTEGER_PARAMS = ("rounds", "max_depth", "epochs", "batch_size", "patience")


@dataclass(frozen=True)
class LearnerSpec:
    """Learner kind plus hyperparameters; fully determines training given
    data and targets."""

    kind: str
    params: dict
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gbdt", "mlp"):
            raise DataError(f"unknown learner kind {self.kind!r}")
        defaults = GBDT_DEFAULTS if self.kind == "gbdt" else MLP_DEFAULTS
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise DataError(f"unknown {self.kind} hyperparameters: {sorted(unknown)}")
        merged = {**defaults, **self.params}
        for name, value in merged.items():
            if name in INTEGER_PARAMS:
                merged[name] = require_integer(value, f"hyperparameter {name!r}", low=1)
            elif name == "hidden_sizes":
                merged[name] = tuple(require_integer(h, "mlp hidden size", low=1)
                                     for h in value)
                if not merged[name]:
                    raise DataError("mlp hidden_sizes must be non-empty")
            elif name != "batch_norm" and not (
                    isinstance(value, (int, float)) and value > 0):
                raise DataError(f"hyperparameter {name!r} must be strictly positive")
        object.__setattr__(self, "params", merged)

    def __getitem__(self, name: str):
        return self.params[name]

    def to_json_dict(self) -> dict:
        params = dict(self.params)
        if "hidden_sizes" in params:
            params["hidden_sizes"] = list(params["hidden_sizes"])
        return {"kind": self.kind, "params": params, "seed": self.seed}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LearnerSpec":
        params = dict(doc["params"])
        if "hidden_sizes" in params:
            params["hidden_sizes"] = tuple(params["hidden_sizes"])
        return cls(kind=doc["kind"], params=params, seed=int(doc["seed"]))


def gbdt_spec(seed: int = 0, **overrides) -> LearnerSpec:
    return LearnerSpec("gbdt", overrides, seed)


def mlp_spec(seed: int = 0, **overrides) -> LearnerSpec:
    return LearnerSpec("mlp", overrides, seed)


@dataclass(frozen=True)
class TrainingTarget:
    """What a learner trains toward.

    hard_labels: the dataset's own labels.
    row_weighted: per-row positive/negative target weights (w_pos, w_neg),
    each row acting as two virtual instances.
    label_sampled: one sampled 0/1 label per row.
    """

    mode: str
    w_pos: Optional[np.ndarray] = None
    w_neg: Optional[np.ndarray] = None
    sampled: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mode not in ("hard_labels", "row_weighted", "label_sampled"):
            raise DataError(f"unknown target mode {self.mode!r}")
        if self.mode == "row_weighted":
            if self.w_pos is None or self.w_neg is None:
                raise DataError("row_weighted target needs w_pos and w_neg")
            wp = np.asarray(self.w_pos, dtype=np.float64)
            wn = np.asarray(self.w_neg, dtype=np.float64)
            object.__setattr__(self, "w_pos", wp)
            object.__setattr__(self, "w_neg", wn)
            if wp.shape != wn.shape or wp.ndim != 1:
                raise DataError("weight vectors must be equal-length 1-d arrays")
            if not (np.isfinite(wp).all() and np.isfinite(wn).all()):
                raise DataError("target weights must be finite")
            if (wp < 0).any() or (wn < 0).any():
                raise DataError("target weights must be nonnegative")
            if ((wp + wn) <= 0).any():
                raise DataError("every row needs w_pos + w_neg > 0")
        elif self.mode == "label_sampled":
            if self.sampled is None:
                raise DataError("label_sampled target needs sampled labels")
            z = np.asarray(self.sampled, dtype=np.int64)
            object.__setattr__(self, "sampled", z)
            if not np.isin(z, (0, 1)).all():
                raise DataError("sampled labels must be 0 or 1")

    @classmethod
    def hard(cls) -> "TrainingTarget":
        return cls(mode="hard_labels")

    @classmethod
    def weighted(cls, w_pos, w_neg) -> "TrainingTarget":
        return cls(mode="row_weighted", w_pos=w_pos, w_neg=w_neg)

    @classmethod
    def from_sampled(cls, labels) -> "TrainingTarget":
        return cls(mode="label_sampled", sampled=labels)

    def n_rows(self) -> Optional[int]:
        if self.mode == "row_weighted":
            return len(self.w_pos)
        if self.mode == "label_sampled":
            return len(self.sampled)
        return None


def resolve_weight_pairs(target: TrainingTarget, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduce every target mode to the (w_pos, w_neg) pair formulation.

    All training code consumes this single representation, which is what
    makes hard_labels and row_weighted with (y, 1-y) bit-for-bit identical.
    """
    n = target.n_rows()
    if n is not None and n != len(labels):
        raise TrainingError(f"target has {n} rows, dataset has {len(labels)}")
    if target.mode == "hard_labels":
        y = labels.astype(np.float64)
        return y, 1.0 - y
    if target.mode == "label_sampled":
        z = target.sampled.astype(np.float64)
        return z, 1.0 - z
    return target.w_pos, target.w_neg


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function folded by sign, so that no ``exp`` overflows:
    1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|).
    ``minimum(x, -x)`` is -|x| that keeps a NaN's sign bit."""
    e = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def encode_features(encoder: FeatureEncoder, rows) -> np.ndarray:
    """The encoded feature matrix a model predicts on: a Dataset goes
    through the encoder, a raw matrix must already have its width. Non-finite
    features raise DataError, since no model can score them meaningfully."""
    if isinstance(rows, Dataset):
        x = encoder.transform(rows)
    else:
        x = np.asarray(rows, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != encoder.width:
            raise TrainingError(f"raw feature rows must have {encoder.width} columns")
    if not np.isfinite(x).all():
        finite = np.isfinite(x).all(axis=1)
        raise DataError(f"feature row {int(np.argmin(finite))} has non-finite values")
    return x


def score_models(models: Sequence, rows) -> np.ndarray:
    """Every model's ``predict`` on ``rows`` as an (m x n) array, encoding a
    Dataset once per distinct encoder. Equal encoders give identical
    matrices, so the scores are bit-identical to predicting on ``rows``.
    Encoding runs in model order, so an encoding error comes from the first
    model that meets it; a model without an ``encoder`` gets ``rows``."""
    encoded: list[tuple[FeatureEncoder, np.ndarray]] = []

    def features(model):
        encoder = getattr(model, "encoder", None)
        if encoder is None or not isinstance(rows, Dataset):
            return rows
        for seen, x in encoded:
            if seen == encoder:
                return x
        encoded.append((encoder, encoder.transform(rows)))
        return encoded[-1][1]

    return np.stack([m.predict(features(m)) for m in models])


def train(spec: LearnerSpec, train_ds: Dataset, target: TrainingTarget,
          valid: Optional[Dataset] = None):
    """Train a model of the requested kind; deterministic given spec/seed."""
    from tabdistill.learners.gbdt import train_gbdt
    from tabdistill.learners.mlp import train_mlp

    if spec.kind == "gbdt":
        return train_gbdt(spec, train_ds, target)
    return train_mlp(spec, train_ds, target, valid)


def serialize_model(model) -> dict:
    doc = model.to_json_dict()
    doc["format"] = MODEL_FORMAT
    return doc


def deserialize_model(doc: dict):
    from tabdistill.learners.gbdt import GBDTModel
    from tabdistill.learners.mlp import MLPModel

    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise SerializationError(
            f"unknown model document version {doc.get('format')!r}"
            if isinstance(doc, dict) else "model document must be an object")
    kind = doc.get("kind")
    if kind not in ("gbdt", "mlp"):
        raise SerializationError(f"unknown model kind {kind!r}")
    model_cls = GBDTModel if kind == "gbdt" else MLPModel
    try:
        return model_cls.from_json_dict(doc)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SerializationError(f"malformed {kind} model document: {exc!r}") from exc


def save_model(model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(serialize_model(model), sort_keys=True))


def load_model(path: str | Path):
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"{path}: corrupted model document: {exc}") from exc
    return deserialize_model(doc)
