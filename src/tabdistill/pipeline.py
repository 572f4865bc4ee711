"""End-to-end orchestration behind a declarative JSON config: ingest,
preprocess, split, per-family self-distillation, cross-family ensembling
with weight optimization, and final distillation of the optimized ensemble
into one deployment model.

Each member model is predicted once per split: its family's chain scores
it on test, and on train when it teaches; the pipeline adds the last
model's train row, and the weight search scores every member on the
validation split. The report and the deployment teacher read those rows.

The test split is touched only for final reporting; every selection
decision (early stopping, ensemble weights, best-single) uses the
validation split. Reruns with the same config and data produce
bit-identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from tabdistill import __version__
from tabdistill.distill import DistillConfig, distill_step, run_generations, write_ledger_csv
from tabdistill.ensemble import (
    DEConfig,
    EnsembleModel,
    blend,
    combine_families,
    optimize_weights_detailed,
    save_ensemble,
)
from tabdistill.errors import (
    DataError,
    TabDistillError,
    require_choice,
    require_flag,
    require_integer,
    require_number,
)
from tabdistill.learners import LearnerSpec, save_model, train
# benchmarks/tracer.py looks up and wraps roc_auc in this module, so it stays
# imported although nothing here calls it
from tabdistill.metrics import evaluate, roc_auc  # noqa: F401
from tabdistill.tabular import (
    TRANSFORM_KINDS,
    Dataset,
    SplitSpec,
    apply_transform,
    ingest_csv,
    remove_constant_columns,
    split_indices,
)

# the model families in pipeline order: "a" is required, "b" optional
FAMILY_TAGS = ("a", "b")

# seed offsets keep the pipeline's component seeds distinct but fully
# derived from the one seed in the config; the family at position i learns
# with seed + 1000 + 2000 * i and distils with seed + 2000 + 2000 * i
_SEED_DE = 5000
_SEED_FINAL = 6000


class StageError(TabDistillError):
    """Wraps a failure with the pipeline stage it happened in."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"pipeline stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


_REQUIRED = object()


def _entry(doc: dict, path: str, default=_REQUIRED):
    """The entry of ``doc`` named by the last part of the dotted ``path``."""
    key = path.rpartition(".")[2]
    if key in doc:
        return doc[key]
    if default is _REQUIRED:
        raise DataError(f"pipeline config needs {path!r}")
    return default


def _known(doc: dict, path: str, keys) -> None:
    """Raise DataError naming the keys of ``doc`` outside ``keys``."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        where = f" {path!r}" if path else ""
        raise DataError(f"pipeline config{where} has unknown keys {unknown}")


def _section(doc: dict, path: str, default=_REQUIRED, nullable: bool = False, keys=None):
    """An object entry; with ``keys``, any other key in it raises DataError."""
    value = _entry(doc, path, default)
    if not (isinstance(value, dict) or (nullable and value is None)):
        raise DataError(f"pipeline config {path!r} must be an object")
    if keys is not None and value is not None:
        _known(value, path, keys)
    return value


def _at(path: str, rule, *args, **kwargs):
    """``rule(*args, **kwargs)``; its DataError gets the dotted ``path``."""
    try:
        return rule(*args, **kwargs)
    except DataError as exc:
        raise DataError(f"pipeline config {path!r}: {exc}") from None


def _value(doc: dict, path: str, default, rule, *args):
    """``rule`` of the entry at ``path`` and ``args``, named as ``_at`` does."""
    return _at(path, rule, _entry(doc, path, default), *args)


def _text(value, what: str) -> str:
    if not isinstance(value, str):
        raise DataError(f"{what} must be a string, got {value!r}")
    return value


def _build(cls, doc: dict, path: str):
    """A config dataclass from its section; unknown keys raise DataError."""
    _known(doc, path, [f.name for f in fields(cls)])
    return _at(path, cls, **doc)


def _learner(doc: dict, path: str, default_seed: int) -> LearnerSpec:
    section = _section(doc, path, keys=("kind", "params", "seed"))
    params = _section(section, f"{path}.params", {})
    kind = _entry(section, f"{path}.kind")
    seed = _value(section, f"{path}.seed", default_seed, require_integer, "seed")
    return _at(path, LearnerSpec, kind=kind, params=dict(params), seed=seed)


@dataclass(frozen=True)
class FamilyConfig:
    learner: LearnerSpec
    distill: Optional[DistillConfig]  # None: train the teacher only


def _family(fam: dict, path: str, learner_seed: int, distill_seed: int) -> FamilyConfig:
    learner = _learner(fam, f"{path}.learner", learner_seed)
    distill_doc = _section(fam, f"{path}.distill", None, nullable=True)
    distill = None if distill_doc is None else _build(
        DistillConfig, {"seed": distill_seed, **distill_doc}, f"{path}.distill")
    return FamilyConfig(learner=learner, distill=distill)


@dataclass(frozen=True)
class PipelineConfig:
    data_path: str
    label_column: str
    split: SplitSpec
    remove_constants: bool
    transform: Optional[str]
    families: tuple[Optional[FamilyConfig], ...]  # one per FAMILY_TAGS entry, None if absent
    ensemble_opt: Optional[DEConfig]
    final_learner: LearnerSpec
    final_beta: float
    final_threshold: float
    output_dir: str
    seed: int

    @classmethod
    def from_json_dict(cls, doc: dict, base_dir: Optional[Path] = None) -> "PipelineConfig":
        """Parse a config document. A missing, unknown or ill-typed entry
        raises DataError naming its dotted path."""
        if not isinstance(doc, dict):
            raise DataError("pipeline config must be a JSON object")
        _known(doc, "", ("data", "split", "preprocess", "families", "ensemble_opt",
                         "final_distill", "output_dir", "seed"))
        seed = _value(doc, "seed", 0, require_integer, "seed")
        data = _section(doc, "data", keys=("path", "label_column"))
        split_doc = _section(doc, "split", {},
                             keys=("train_fraction", "valid_fraction", "seed"))
        # each fraction is a float only once its rule has accepted it
        split = SplitSpec(*(
            float(_value(split_doc, f"split.{name}", getattr(SplitSpec, name),
                         require_number, name, 0, 1, "()"))
            for name in ("train_fraction", "valid_fraction")),
            seed=_value(split_doc, "split.seed", seed, require_integer, "seed"))
        pre = _section(doc, "preprocess", {}, keys=("remove_constant_columns", "transform"))
        transform = _value(pre, "preprocess.transform", None, require_choice, "transform",
                           (None, *TRANSFORM_KINDS))
        families_doc = _section(doc, "families", {}, keys=FAMILY_TAGS)
        families = []
        for i, tag in enumerate(FAMILY_TAGS):
            fam = _section(families_doc, f"families.{tag}", None, nullable=True,
                           keys=("learner", "distill"))
            if fam is None and i == 0:
                raise DataError(f'pipeline config needs families["{tag}"]')
            families.append(None if fam is None else _family(
                fam, f"families.{tag}", seed + 1000 + 2000 * i, seed + 2000 + 2000 * i))

        de_doc = _section(doc, "ensemble_opt", None, nullable=True)
        de_cfg = None if de_doc is None else _build(
            DEConfig, {"seed": seed + _SEED_DE, **de_doc}, "ensemble_opt")

        final = _section(doc, "final_distill", {}, keys=("learner", "beta", "threshold"))
        final_learner = _learner(
            {"learner": {"kind": "gbdt", "params": {}}, **final},
            "final_distill.learner", seed + _SEED_FINAL)

        data_path = _value(data, "data.path", _REQUIRED, _text, "path")
        if base_dir is not None and not os.path.isabs(data_path):
            data_path = str(base_dir / data_path)

        return cls(
            data_path=data_path,
            label_column=_value(data, "data.label_column", _REQUIRED, _text, "label_column"),
            split=split,
            remove_constants=_value(pre, "preprocess.remove_constant_columns", True,
                                    require_flag, "remove_constant_columns"),
            transform=transform,
            families=tuple(families),
            ensemble_opt=de_cfg,
            final_learner=final_learner,
            final_beta=float(_value(final, "final_distill.beta", DistillConfig.beta,
                                    require_number, "beta", 0, 1)),
            final_threshold=float(_value(final, "final_distill.threshold",
                                         DistillConfig.denoise_threshold,
                                         require_number, "denoise threshold", 0, 1, "(]")),
            output_dir=_value(doc, "output_dir", "out", _text, "output_dir"),
            seed=seed,
        )

    def echo(self) -> dict:
        """Canonical config echo embedded in the report; identical configs
        hash to identical run ids."""
        return {
            "data": {"path": self.data_path, "label_column": self.label_column},
            "split": {"train_fraction": self.split.train_fraction,
                      "valid_fraction": self.split.valid_fraction,
                      "seed": self.split.seed},
            "preprocess": {"remove_constant_columns": self.remove_constants,
                           "transform": self.transform},
            "families": {tag: None if fam is None else {
                "learner": fam.learner.to_json_dict(),
                "distill": None if fam.distill is None else asdict(fam.distill)}
                for tag, fam in zip(FAMILY_TAGS, self.families)},
            "ensemble_opt": None if self.ensemble_opt is None else asdict(self.ensemble_opt),
            "final_distill": {"learner": self.final_learner.to_json_dict(),
                              "beta": self.final_beta,
                              "threshold": self.final_threshold},
            "output_dir": self.output_dir,
            "seed": self.seed,
        }

    def run_id(self) -> str:
        canon = json.dumps(self.echo(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


def load_config(path: str | Path, overrides: Optional[dict] = None) -> PipelineConfig:
    """Read a config file; ``overrides`` replace its top-level entries."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        raise DataError(f"config file {path} is unreadable or not valid JSON: {exc}") from None
    if overrides and isinstance(doc, dict):
        doc = {**doc, **overrides}
    return PipelineConfig.from_json_dict(doc, base_dir=path.parent)


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def distill_to_deployment(scores, train_ds: Dataset,
                          target_spec: LearnerSpec, beta: float, threshold: float,
                          valid: Optional[Dataset] = None,
                          target_mode: str = "row_weighted", sample_seed: int = 0):
    """Compress an ensemble into a single model: from the ensemble's
    ``scores`` on ``train_ds``, denoise against the original labels,
    beta-mix the scores into weight pairs, and train the deployment learner
    on them.

    The returned model stands alone; none of the ensemble members are
    needed to use or persist it.
    """
    kept, target = distill_step(train_ds, scores, beta, threshold, target_mode, sample_seed)
    return train(target_spec, kept, target, valid)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute the full workflow and persist all artifacts under
    ``output_dir/<run-id>/``. Returns the run report as a dict."""
    run_dir = Path(cfg.output_dir) / cfg.run_id()
    models_dir = run_dir / "models"

    stage = "ingest"
    try:
        ds = ingest_csv(cfg.data_path, cfg.label_column)

        stage = "preprocess"
        if cfg.remove_constants:
            ds, _ = remove_constant_columns(ds)
        train_idx, valid_idx, test_idx = split_indices(ds.n_rows, cfg.split)
        if cfg.transform is not None:
            ds = apply_transform(ds, cfg.transform, train_idx)

        stage = "split"
        train_ds = ds.take(train_idx)
        valid_ds = ds.take(valid_idx)
        test_ds = ds.take(test_idx)
        # made only now, so a run that fails on its data leaves no directory
        models_dir.mkdir(parents=True, exist_ok=True)

        families: dict[str, dict] = {}
        member_groups = []  # one list of members per tag, empty for an absent family
        member_refs = []  # (family tag, generation, file)
        train_preds: list[np.ndarray] = []
        test_preds: list[np.ndarray] = []
        for tag, fam in zip(FAMILY_TAGS, cfg.families):
            if fam is None:
                member_groups.append([])
                continue
            stage = f"distill/{tag}"
            records, models = run_generations(fam.learner, train_ds, valid_ds,
                                              test_ds, fam.distill)
            model_files = []
            for gen, model in enumerate(models):
                name = f"{tag}_gen{gen}.json"
                save_model(model, models_dir / name)
                model_files.append(f"models/{name}")
                member_refs.append((tag, gen, model_files[-1]))
            write_ledger_csv(records, run_dir / f"ledger_{tag}.csv")
            families[tag] = {
                "kind": fam.learner.kind,
                "ledger": [r.as_dict() for r in records],
                "model_files": model_files,
            }
            member_groups.append(models)
            # the chain scores a model on train only once it has taught
            train_preds += [r.train_preds for r in records[:-1]]
            train_preds.append(models[-1].predict(train_ds))
            test_preds += [r.test_preds for r in records]

        stage = "ensemble"
        members = [m for group in member_groups for m in group]
        if cfg.ensemble_opt is not None and len(members) > 1:
            optimized, audit = combine_families(member_groups, valid_ds, cfg.ensemble_opt)
        else:
            optimized, audit = optimize_weights_detailed(members, valid_ds, None)
        save_ensemble(optimized, [ref[2] for ref in member_refs],
                      run_dir / "ensemble.json")
        _write_weights_audit(run_dir / "weights_audit.csv", member_refs, audit)

        stage = "final_distill"
        final_model = distill_to_deployment(
            blend(np.stack(train_preds), optimized.weights), train_ds, cfg.final_learner,
            cfg.final_beta, cfg.final_threshold, valid_ds)
        save_model(final_model, models_dir / "final.json")

        stage = "report"
        report = _build_report(cfg, families, member_refs, audit, optimized,
                               np.stack(test_preds), final_model, test_ds)
        _atomic_write_text(run_dir / "report.json",
                           json.dumps(report, indent=2, sort_keys=True))
        return report
    except TabDistillError as exc:
        raise StageError(stage, exc) from exc


def _write_weights_audit(path: Path, member_refs, audit: dict) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "generation", "model_file",
                         "pre_prune_weight", "final_weight"])
        for (tag, gen, file), pre, post in zip(
                member_refs, audit["pre_prune_weights"], audit["final_weights"]):
            writer.writerow([tag, gen, file, repr(pre), repr(post)])


def _build_report(cfg: PipelineConfig, families: dict, member_refs, audit: dict,
                  optimized: EnsembleModel, test_preds: np.ndarray, final_model,
                  test_ds: Dataset) -> dict:
    # baseline teacher: generation 0 of the first family of the deployment
    # learner's kind when there is one, otherwise of the first family
    baseline_tag = next((tag for tag, fam in families.items()
                         if fam["kind"] == cfg.final_learner.kind), next(iter(families)))
    teacher = [ref[0] for ref in member_refs].index(baseline_tag)

    # best single model is selected on validation (the first of equal
    # AUCs), reported on test
    best = int(np.argmax(audit["member_aucs"]))

    def report_on_test(preds) -> dict:
        return evaluate(preds, test_ds.labels).as_dict()

    metrics = {
        "teacher": {"family": baseline_tag, **report_on_test(test_preds[teacher])},
        "best_single": {"family": member_refs[best][0], "generation": member_refs[best][1],
                        "validation_auc": audit["member_aucs"][best],
                        **report_on_test(test_preds[best])},
        "uniform_ensemble": report_on_test(blend(test_preds, np.ones(len(test_preds)))),
        "optimized_ensemble": report_on_test(blend(test_preds, optimized.weights)),
        "final_model": report_on_test(final_model.predict(test_ds)),
    }
    metrics["gain_over_teacher"] = (
        metrics["final_model"]["auc"] - metrics["teacher"]["auc"])

    return {
        "version": __version__,
        "run_id": cfg.run_id(),
        "config": cfg.echo(),
        "families": families,
        "ensemble": {
            "member_files": [ref[2] for ref in member_refs],
            "weights": optimized.weights.tolist(),
            "audit": audit,
        },
        "final_model_file": "models/final.json",
        "metrics": metrics,
    }
