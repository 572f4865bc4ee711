"""The three benchmark workloads and the checks run on every op.

Each workload drives only tabdistill's public API and only ever hands the
program the CSV files that ``gen`` wrote. Paths given to the program are
relative to the run's working directory (the harness changes into it), so a
fixed seed yields a byte-identical ``report.json`` whichever directory the
benchmark runs in.

A workload has ``setup(seed)`` returning a state, ``reset(state)`` (untimed,
before each op), ``op(state)`` (the timed part) and ``check(state, out)``
returning a list of problems (untimed, after each op).
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from tabdistill import learners, metrics, pipeline, tabular
from tabdistill.ensemble import EnsembleModel

OUT = "out"


def _families(a_learner: dict, b_learner: dict, generations: int,
              teacher_mode: str = "from_last") -> dict:
    distill = {"generations": generations, "teacher_mode": teacher_mode}
    return {"a": {"learner": a_learner, "distill": distill},
            "b": {"learner": b_learner, "distill": distill}}


def _gbdt(rounds: int, depth: int = 6) -> dict:
    return {"kind": "gbdt", "params": {"rounds": rounds, "max_depth": depth}}


def _mlp(hidden: list, epochs: int) -> dict:
    return {"kind": "mlp", "params": {"hidden_sizes": hidden, "epochs": epochs}}


def pipeline_doc(data_path: str, seed: int, train: float, valid: float,
                 families: dict, ensemble_opt: dict, final_learner: dict) -> dict:
    return {
        "data": {"path": data_path, "label_column": gen.LABEL},
        "split": {"train_fraction": train, "valid_fraction": valid},
        "families": families,
        "ensemble_opt": ensemble_opt,
        "final_distill": {"learner": final_learner},
        "output_dir": OUT,
        "seed": seed,
    }


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _test_split(doc: dict):
    """The pipeline's test split, rebuilt through the public API."""
    cfg = pipeline.PipelineConfig.from_json_dict(doc)
    ds = tabular.ingest_csv(cfg.data_path, cfg.label_column)
    if cfg.remove_constants:
        ds, _ = tabular.remove_constant_columns(ds)
    _, _, test_idx = tabular.split_indices(ds.n_rows, cfg.split)
    return ds.take(test_idx)


def check_predictions(preds, n_rows: int) -> list[str]:
    preds = np.asarray(preds)
    if preds.shape != (n_rows,):
        return [f"{preds.shape} predictions for {n_rows} rows"]
    if not np.isfinite(preds).all():
        return [f"{int((~np.isfinite(preds)).sum())} non-finite predictions"]
    if (preds < 0).any() or (preds > 1).any():
        return ["predictions outside [0, 1]"]
    return []


def check_pipeline_outputs(report: dict, test) -> list[str]:
    """Check one pipeline run's artifacts against its report.

    Every saved model is reloaded and must reproduce, bit for bit, the test
    metrics the report recorded from the in-memory model; the DE weights
    must score at least every member and the plain average on validation.
    """
    problems = []
    run_dir = Path(OUT) / report["run_id"]
    on_disk = json.loads((run_dir / "report.json").read_text())
    if on_disk != report:
        problems.append("report.json differs from the returned report")

    audit = report["ensemble"]["audit"]
    floor = max(max(audit["member_aucs"]), audit["uniform_auc"])
    if not audit["validation_auc"] >= floor:
        problems.append(f"DE validation AUC {audit['validation_auc']} below "
                        f"the best member or uniform average {floor}")

    models = {}
    for tag, family in report["families"].items():
        for gen_index, name in enumerate(family["model_files"]):
            model = models[name] = learners.load_model(run_dir / name)
            preds = model.predict(test)
            problems += [f"{name}: {p}" for p in check_predictions(preds, test.n_rows)]
            expected = family["ledger"][gen_index]["individual_auc"]
            if metrics.roc_auc(preds, test.labels) != expected:
                problems.append(f"{name}: reloaded test AUC differs from the ledger")

    ens_doc = json.loads((run_dir / "ensemble.json").read_text())
    served = {
        "optimized_ensemble": EnsembleModel([models[f] for f in ens_doc["members"]],
                                            ens_doc["weights"]),
        "final_model": learners.load_model(run_dir / report["final_model_file"]),
    }
    for key, model in served.items():
        preds = model.predict(test)
        problems += [f"{key}: {p}" for p in check_predictions(preds, test.n_rows)]
        if metrics.evaluate(preds, test.labels).as_dict() != report["metrics"][key]:
            problems.append(f"{key}: reloaded test metrics differ from the report")
    return problems


@dataclass
class PipelineState:
    doc: dict
    test: object  # the pipeline's test split, for reloading what an op saved
    digests: list = field(default_factory=list)
    report: dict = None


class PipelineWorkload:
    """One ``run_pipeline`` per op on a numeric CSV written at set-up."""

    def __init__(self, rows: int, train: float, valid: float, families: dict,
                 ensemble_opt: dict, final_learner: dict):
        self.rows_per_op = rows
        self.shape = dict(train=train, valid=valid, families=families,
                          ensemble_opt=ensemble_opt, final_learner=final_learner)

    def setup(self, seed: int) -> PipelineState:
        features, labels = gen.numeric_nonlinear(self.rows_per_op, seed)
        gen.write_csv(features, labels, "data.csv")
        doc = pipeline_doc("data.csv", seed, **self.shape)
        return PipelineState(doc, _test_split(doc))

    def check_setup(self, state: PipelineState) -> list[str]:
        return []

    def reset(self, state: PipelineState) -> None:
        shutil.rmtree(OUT, ignore_errors=True)  # a fresh output directory per op

    def op(self, state: PipelineState) -> dict:
        return pipeline.run_pipeline(pipeline.PipelineConfig.from_json_dict(state.doc))

    def check(self, state: PipelineState, report: dict) -> list[str]:
        digest = _sha256(Path(OUT) / report["run_id"] / "report.json")
        state.digests.append(digest)
        state.report = report
        problems = check_pipeline_outputs(report, state.test)
        if digest != state.digests[0]:
            problems.append("report.json differs from the first op's")
        return problems

    def summary(self, state: PipelineState) -> dict:
        if state.report is None:
            return {}
        return {"final_test_auc": state.report["metrics"]["final_model"]["auc"],
                "ensemble_valid_auc": state.report["ensemble"]["audit"]["validation_auc"],
                "report_sha256": sorted(set(state.digests))}


@dataclass
class ScoreState:
    ensemble: EnsembleModel
    batches: list
    doc: dict
    report: dict
    # per batch file: (predictions, AUC) from its first, untimed scoring
    expected: list = field(default_factory=list)
    pooled_auc: float = None  # over all batch files, from the same scoring
    next_batch: int = 0


class ScoreBatchWorkload:
    """Closed loop, one client: each op ingests one batch CSV, scores it with
    an ensemble loaded from model JSON, and evaluates the scores."""

    def __init__(self, train_rows: int, batch_rows: int, n_batches: int,
                 gbdt: dict, mlp: dict, generations: int, de_iterations: int):
        self.train_rows = train_rows
        self.rows_per_op = batch_rows
        self.n_batches = n_batches
        self.families = _families(gbdt, mlp, generations)
        self.ensemble_opt = {"max_iterations": de_iterations}
        self.final_learner = gbdt

    def setup(self, seed: int) -> ScoreState:
        # distinct generator seeds for the training file and each batch file
        features, labels = gen.mixed_types(self.train_rows, seed * 100)
        gen.write_csv(features, labels, "train.csv")
        batches = []
        for k in range(self.n_batches):
            features, labels = gen.mixed_types(self.rows_per_op, seed * 100 + k + 1)
            batches.append(f"batch_{k}.csv")
            gen.write_csv(features, labels, batches[-1])

        doc = pipeline_doc("train.csv", seed, 0.6, 0.2, self.families,
                           self.ensemble_opt, self.final_learner)
        report = pipeline.run_pipeline(pipeline.PipelineConfig.from_json_dict(doc))
        run_dir = Path(OUT) / report["run_id"]
        ens_doc = json.loads((run_dir / "ensemble.json").read_text())
        members = [learners.load_model(run_dir / f) for f in ens_doc["members"]]
        return ScoreState(EnsembleModel(members, ens_doc["weights"]), batches, doc, report)

    def check_setup(self, state: ScoreState) -> list[str]:
        """Untimed: verify the trained artifacts, then score every batch
        once to fix the predictions each later op must reproduce."""
        problems = check_pipeline_outputs(state.report, _test_split(state.doc))
        labels = []
        for path in state.batches:
            ds = tabular.ingest_csv(path, gen.LABEL)
            preds = state.ensemble.predict(ds)
            problems += [f"{path}: {p}" for p in check_predictions(preds, self.rows_per_op)]
            state.expected.append((preds, metrics.roc_auc(preds, ds.labels)))
            labels.append(ds.labels)
        if not problems:
            state.pooled_auc = float(metrics.roc_auc(
                np.concatenate([p for p, _ in state.expected]), np.concatenate(labels)))
        return problems

    def reset(self, state: ScoreState) -> None:
        pass

    def op(self, state: ScoreState):
        k = state.next_batch
        state.next_batch = (k + 1) % len(state.batches)
        ds = tabular.ingest_csv(state.batches[k], gen.LABEL)
        preds = state.ensemble.predict(ds)
        return k, preds, metrics.evaluate(preds, ds.labels)

    def check(self, state: ScoreState, out) -> list[str]:
        k, preds, report = out
        problems = check_predictions(preds, self.rows_per_op)
        if problems:
            return problems
        expected_preds, expected_auc = state.expected[k]
        if not np.array_equal(preds, expected_preds):
            problems.append(f"batch {k}: predictions differ from its first scoring")
        if report.auc != expected_auc or report.n_pos + report.n_neg != self.rows_per_op:
            problems.append(f"batch {k}: evaluation differs from its first scoring")
        return problems

    def summary(self, state: ScoreState) -> dict:
        return {"final_test_auc": state.pooled_auc,
                "ensemble_valid_auc": state.report["ensemble"]["audit"]["validation_auc"],
                "report_sha256": [_sha256(Path(OUT) / state.report["run_id"] / "report.json")]}


def make_workloads(tiny: bool = False) -> dict:
    """Full sizes, or a tiny variant of each that runs in about a second."""
    if tiny:
        return {
            "pipeline_gbdt": PipelineWorkload(
                400, 0.6, 0.2, _families(_gbdt(3, 3), _mlp([8], 2), 1),
                {"max_iterations": 2}, _gbdt(3, 3)),
            "pipeline_ensemble": PipelineWorkload(
                400, 0.4, 0.4, _families(_mlp([8], 2), _gbdt(2, 2), 2, "from_ensemble"),
                {"max_iterations": 2, "prune_epsilon": 0.0}, _mlp([8], 2)),
            "score_batch": ScoreBatchWorkload(300, 200, 8, _gbdt(3, 3), _mlp([8], 2), 1, 2),
        }
    return {
        # GBDT training is about 7/10 of an op, DE about a tenth. Pruning is
        # off in both pipelines: a prune round re-runs the whole DE search,
        # and how many rounds a seed needs would otherwise swing the op time
        # by a tenth here and by half in pipeline_ensemble.
        "pipeline_gbdt": PipelineWorkload(
            3000, 0.6, 0.2, _families(_gbdt(5), _mlp([32, 16], 10), 2),
            {"max_iterations": 6, "prune_epsilon": 0.0}, _gbdt(5)),
        # DE over 8 members on a 1200-row validation split is over half of
        # an op. Ops are short so that a run holds enough of them for a
        # steady median (see README).
        "pipeline_ensemble": PipelineWorkload(
            3000, 0.4, 0.4, _families(_mlp([16], 6), _gbdt(3, 3), 3, "from_ensemble"),
            {"max_iterations": 12, "prune_epsilon": 0.0}, _mlp([16], 20)),
        # prediction and ingestion only; training happens in set-up
        "score_batch": ScoreBatchWorkload(
            2000, 4000, 8, _gbdt(20, 3), _mlp([32, 16], 20), 2, 10),
    }
