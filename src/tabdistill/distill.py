"""The distillation engine: turn teacher scores into training targets,
drop rows the teacher confidently contradicts, and run multi-generation
self-distillation with from-last or from-ensemble teachers.

Each generation model is scored once on test, and once on train when it
becomes a teacher; its record keeps both rows. ``distill_step``, shared
with deployment distillation, filters rows whose teacher-label gap reaches
the threshold and blends teacher scores with the original labels into
per-row weight pairs. Nothing aborts on a non-improving generation; the
running ensemble is what carries the gains.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from tabdistill.errors import (
    DataError,
    require_choice,
    require_flag,
    require_integer,
    require_number,
)
from tabdistill.learners import LearnerSpec, TrainingTarget, train
from tabdistill.metrics import roc_auc
from tabdistill.tabular import Dataset

# where a generation's teacher scores come from, and how they become targets
TEACHER_MODES = ("from_last", "from_ensemble")
TARGET_MODES = ("row_weighted", "label_sampled")


@dataclass(frozen=True)
class DistillConfig:
    beta: float = 0.7
    denoise_threshold: float = 0.99
    generations: int = 5
    teacher_mode: str = "from_last"
    target_mode: str = "row_weighted"
    include_original: bool = False
    seed: int = 0

    def __post_init__(self):
        require_number(self.beta, "beta", 0, 1)
        require_number(self.denoise_threshold, "denoise threshold", 0, 1, "(]")
        # stored as int, so a config built from numpy integers serializes
        for name, low in (("generations", 1), ("seed", 0)):
            object.__setattr__(self, name, require_integer(getattr(self, name), name, low))
        require_choice(self.teacher_mode, "teacher_mode", TEACHER_MODES)
        require_choice(self.target_mode, "target_mode", TARGET_MODES)
        require_flag(self.include_original, "include_original")


@dataclass
class GenerationRecord:
    index: int
    teacher: str
    rows_kept: int
    rows_dropped: int
    individual_auc: float
    ensemble_auc: float
    # the model's test and (once it has taught) train predictions; the ledger omits them
    test_preds: Optional[np.ndarray] = field(default=None, repr=False, compare=False)
    train_preds: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> dict:
        return {
            "gen": self.index,
            "teacher": self.teacher,
            "rows_kept": self.rows_kept,
            "rows_dropped": self.rows_dropped,
            "individual_auc": self.individual_auc,
            "ensemble_auc": self.ensemble_auc,
        }


def make_targets(train_ds: Dataset, teacher_scores, beta: float) -> TrainingTarget:
    """Blend teacher belief with ground truth into per-row weight pairs:
    w_pos = beta * f(x) + (1 - beta) * y and w_neg = 1 - w_pos.

    beta = 0 reproduces the original hard labels, beta = 1 trains purely on
    the teacher's scores.
    """
    scores = np.asarray(teacher_scores, dtype=np.float64)
    if scores.shape != (train_ds.n_rows,):
        raise DataError(f"got {scores.shape[0] if scores.ndim else 0} scores "
                        f"for {train_ds.n_rows} rows")
    if (scores < 0).any() or (scores > 1).any():
        raise DataError("teacher scores must lie in [0, 1]")
    require_number(beta, "beta", 0, 1)
    y = train_ds.labels.astype(np.float64)
    w_pos = beta * scores + (1.0 - beta) * y
    # the pair sums to 1 by construction; computing w_neg as the complement
    # keeps that exact in floating point
    w_neg = 1.0 - w_pos
    return TrainingTarget.weighted(w_pos, w_neg)


def targets_to_sampled(target: TrainingTarget, seed: int) -> TrainingTarget:
    """Replace weight pairs by one Bernoulli(w_pos / (w_pos + w_neg)) draw z
    per row, the pair (z, 1 - z); deterministic per seed."""
    if target.w_pos is None:
        raise DataError("a hard-label target cannot be sampled")
    prob = target.w_pos / (target.w_pos + target.w_neg)
    u = np.random.default_rng(seed).random(len(prob))
    z = (u < prob).astype(np.float64)
    return TrainingTarget.weighted(z, 1.0 - z)


def distill_step(train_ds: Dataset, teacher_scores, beta: float, threshold: float,
                 target_mode: str = "row_weighted",
                 sample_seed: int = 0) -> tuple[Dataset, TrainingTarget]:
    """The rows a student trains on and their targets: keep row i iff
    |f(x_i) - y_i| < threshold (1 drops only a score exactly opposite its
    label; keeping none raises), beta-mix the kept scores into weight pairs,
    and under ``label_sampled`` draw one label per row. The kept rows stay in
    their original order."""
    require_number(threshold, "denoise threshold", 0, 1, "(]")
    scores = np.asarray(teacher_scores, dtype=np.float64)
    if scores.shape != (train_ds.n_rows,):
        raise DataError("scores must align with rows")
    keep = np.abs(scores - train_ds.labels.astype(np.float64)) < threshold
    if not keep.any():
        raise DataError(f"denoise threshold {threshold} dropped every row")
    kept = train_ds.take(np.flatnonzero(keep))
    target = make_targets(kept, scores[keep], beta)
    if target_mode == "label_sampled":
        target = targets_to_sampled(target, seed=sample_seed)
    return kept, target


def _append_original(distilled: Dataset, target: TrainingTarget,
                     original: Dataset) -> tuple[Dataset, TrainingTarget]:
    """Stack the original rows, with their hard labels as the pairs
    (y, 1 - y), under the distilled rows and their targets."""
    arrays = tuple(np.concatenate([a, b]) for a, b in
                   zip(distilled.feature_arrays, original.feature_arrays))
    combined = Dataset(distilled.schema, arrays,
                       np.concatenate([distilled.labels, original.labels]))
    y = original.labels.astype(np.float64)
    return combined, TrainingTarget.weighted(np.concatenate([target.w_pos, y]),
                                             np.concatenate([target.w_neg, 1.0 - y]))


def run_generations(spec: LearnerSpec, train_ds: Dataset, valid: Optional[Dataset],
                    test: Dataset, cfg: Optional[DistillConfig],
                    ) -> tuple[list[GenerationRecord], list]:
    """Run the self-distillation chain: generation 0 trains on hard labels,
    each later generation trains on denoised, beta-mixed teacher scores. A
    ``cfg`` of None trains generation 0 only.

    Teacher scores come from the previous model (from_last) or the uniform
    average of all prior models (from_ensemble). Records carry per-
    generation individual and running-ensemble test AUC plus the denoise
    bookkeeping; record count is always generations + 1.
    """
    generations = 0 if cfg is None else cfg.generations
    seed = spec.seed + (0 if cfg is None else cfg.seed)
    records: list[GenerationRecord] = []
    models: list = []
    for gen in range(generations + 1):
        if gen == 0:
            teacher = "hard_labels"
            kept, train_input, target = train_ds, train_ds, TrainingTarget.hard()
        else:
            # the previous model becomes a teacher: score it on train once
            records[-1].train_preds = models[-1].predict(train_ds)
            if cfg.teacher_mode == "from_last":
                teacher, scores = f"model_{gen - 1}", records[-1].train_preds
            else:
                teacher = f"ensemble_0..{gen - 1}"
                scores = np.mean([r.train_preds for r in records], axis=0)
            kept, target = distill_step(train_ds, scores, cfg.beta, cfg.denoise_threshold,
                                        cfg.target_mode, cfg.seed + gen)
            train_input = kept
            if cfg.include_original:
                train_input, target = _append_original(kept, target, train_ds)

        model = train(LearnerSpec(spec.kind, dict(spec.params), seed=seed + gen),
                      train_input, target, valid)
        models.append(model)
        test_preds = model.predict(test)
        individual = float(roc_auc(test_preds, test.labels))
        running = individual if gen == 0 else float(roc_auc(
            np.mean([r.test_preds for r in records] + [test_preds], axis=0), test.labels))
        records.append(GenerationRecord(
            index=gen, teacher=teacher, rows_kept=kept.n_rows,
            rows_dropped=train_ds.n_rows - kept.n_rows, individual_auc=individual,
            ensemble_auc=running, test_preds=test_preds))
    return records, models


def write_ledger_csv(records: Sequence[GenerationRecord], path: str | Path) -> None:
    """Generation ledger in the usual table layout: one row per generation
    with individual and running-ensemble AUC plus denoise bookkeeping."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["gen", "individual_auc", "ensemble_auc",
                         "rows_kept", "rows_dropped"])
        for rec in records:
            writer.writerow([rec.index, repr(rec.individual_auc),
                             repr(rec.ensemble_auc), rec.rows_kept, rec.rows_dropped])
