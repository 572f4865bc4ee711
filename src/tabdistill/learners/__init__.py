"""Weighted-training learner contract, with gradient boosted trees (``gbdt``)
and a feed-forward network (``mlp``) as its implementations. A model document
is a shared header (``format``, ``kind``, ``spec``, ``encoder``), written and
checked here, then the fields of the model's own class. The implementations
import this module, so it imports them last and looks them up at call time."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from tabdistill.errors import (
    UNREADABLE_JSON,
    DataError,
    SerializationError,
    TrainingError,
    require_choice,
    require_flag,
    require_integer,
    require_number,
)
from tabdistill.tabular import Dataset, FeatureEncoder

MODEL_FORMAT = "tabdistill.model/v1"
LEARNER_KINDS = ("gbdt", "mlp")

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
        """Every malformed kind, hyperparameter or seed raises DataError."""
        require_choice(self.kind, "learner kind", LEARNER_KINDS)
        if not isinstance(self.params, dict):
            raise DataError(f"hyperparameters must be a JSON object, got {self.params!r}")
        object.__setattr__(self, "seed", require_integer(self.seed, "learner seed"))
        defaults = GBDT_DEFAULTS if self.kind == "gbdt" else MLP_DEFAULTS
        unknown = set(self.params) - set(defaults)
        if unknown:
            raise DataError(f"unknown {self.kind} hyperparameters: {sorted(unknown)}")
        merged = {**defaults, **self.params}
        for name, value in merged.items():
            if name in INTEGER_PARAMS:
                merged[name] = require_integer(value, f"hyperparameter {name!r}", low=1)
            elif name == "hidden_sizes":
                if not np.iterable(value) or not (sizes := list(value)):
                    raise DataError(f"mlp hidden_sizes must be a non-empty list, got {value!r}")
                merged[name] = tuple(require_integer(h, "mlp hidden size", low=1) for h in sizes)
            elif name == "batch_norm":
                require_flag(value, f"hyperparameter {name!r}")
            else:
                require_number(value, f"hyperparameter {name!r}", 0, ends="()")
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
        return cls(kind=doc["kind"], params=doc["params"], seed=doc["seed"])


def gbdt_spec(seed: int = 0, **overrides) -> LearnerSpec:
    return LearnerSpec("gbdt", overrides, seed)


def mlp_spec(seed: int = 0, **overrides) -> LearnerSpec:
    return LearnerSpec("mlp", overrides, seed)


@dataclass(frozen=True)
class TrainingTarget:
    """What a learner trains toward: per-row positive/negative weights
    (w_pos, w_neg), each row acting as two virtual instances. ``hard()``
    leaves both unset and trains on the dataset's own labels y, the pair
    (y, 1 - y); a sampled 0/1 label z is the pair (z, 1 - z)."""

    w_pos: Optional[np.ndarray] = None
    w_neg: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.w_pos is None and self.w_neg is None:
            return
        if self.w_pos is None or self.w_neg is None:
            raise DataError("a weighted target needs both w_pos and w_neg")
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

    @classmethod
    def hard(cls) -> "TrainingTarget":
        return cls()

    @classmethod
    def weighted(cls, w_pos, w_neg) -> "TrainingTarget":
        return cls(w_pos, w_neg)


def resolve_weight_pairs(target: TrainingTarget, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (w_pos, w_neg) pair every learner trains on; a hard target's is
    (y, 1 - y), bit-for-bit the weighted target (y, 1 - y)."""
    if target.w_pos is None:
        y = labels.astype(np.float64)
        return y, 1.0 - y
    if len(target.w_pos) != len(labels):
        raise TrainingError(f"target has {len(target.w_pos)} rows, dataset has {len(labels)}")
    return target.w_pos, target.w_neg


def training_inputs(train_ds: Dataset, target: TrainingTarget,
                    ) -> tuple[FeatureEncoder, np.ndarray, np.ndarray, np.ndarray]:
    """What every trainer starts from: the encoder fitted on ``train_ds``,
    its encoded matrix (finite, or TrainingError) and the weight pairs."""
    encoder = FeatureEncoder.fit(train_ds)
    x = encoder.transform(train_ds)
    if not np.isfinite(x).all():
        raise TrainingError("training features contain non-finite values")
    return (encoder, x, *resolve_weight_pairs(target, train_ds.labels))


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
    if spec.kind == "gbdt":
        return gbdt.train_gbdt(spec, train_ds, target)
    return mlp.train_mlp(spec, train_ds, target, valid)


def serialize_model(model) -> dict:
    """The model document: the shared header, then the class's own fields."""
    return {"format": MODEL_FORMAT, "kind": model.kind, "spec": model.spec.to_json_dict(),
            "encoder": model.encoder.to_json_dict(), **model.to_json_dict()}


def deserialize_model(doc: dict):
    """A model from its document; a malformed one raises
    SerializationError."""
    if not isinstance(doc, dict):
        raise SerializationError("model document must be an object")
    kind = doc.get("kind")
    try:
        require_choice(doc.get("format"), "model document version", (MODEL_FORMAT,))
        require_choice(kind, "model kind", LEARNER_KINDS)
        spec = LearnerSpec.from_json_dict(doc["spec"])
        if spec.kind != kind:
            raise SerializationError(f"{kind} model document holds a {spec.kind} spec")
        encoder = FeatureEncoder.from_json_dict(doc["encoder"])
        model_cls = gbdt.GBDTModel if kind == "gbdt" else mlp.MLPModel
        return model_cls.from_json_dict(doc, spec, encoder)
    except DataError as exc:  # a value rule's message names the value
        raise SerializationError(f"malformed model document: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise SerializationError(f"malformed {kind} model document: {exc!r}") from exc


def save_model(model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(serialize_model(model), sort_keys=True), encoding="utf-8")


def load_model(path: str | Path):
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UNREADABLE_JSON as exc:
        raise SerializationError(f"{path}: unreadable model document: {exc}") from exc
    return deserialize_model(doc)


# the implementations import the contract above, so they load last
from tabdistill.learners import gbdt, mlp  # noqa: E402

GBDTModel, MLPModel = gbdt.GBDTModel, mlp.MLPModel
