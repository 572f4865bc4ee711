"""Weighted-training learner contract with two implementations: gradient
boosted decision trees and a feed-forward network."""

from tabdistill.learners.base import (
    LearnerSpec,
    TrainingTarget,
    deserialize_model,
    gbdt_spec,
    load_model,
    mlp_spec,
    save_model,
    score_models,
    serialize_model,
    train,
)
from tabdistill.learners.gbdt import GBDTModel
from tabdistill.learners.mlp import MLPModel

__all__ = [
    "GBDTModel",
    "LearnerSpec",
    "MLPModel",
    "TrainingTarget",
    "deserialize_model",
    "gbdt_spec",
    "load_model",
    "mlp_spec",
    "save_model",
    "score_models",
    "serialize_model",
    "train",
]
