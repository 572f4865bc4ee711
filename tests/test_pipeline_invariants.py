"""Invariants of whole pipeline runs over drawn configs.

Each case draws one or two learner families (in either order), their
distillation settings, a transform, the ensemble search and the final
learner, all at sizes that train in a few milliseconds, and runs them on a
200-300-row numeric or mixed-type CSV. Every run must hold:

- a rerun writes the same bytes to every file;
- with the weight search on, the audit's validation AUC is at least every
  member's and the uniform average's; with it off, it is the uniform's;
- each family's ledger has one row per generation plus the teacher's;
- no number in ``report.json`` is NaN or infinite;
- every saved model, reloaded, scores the rebuilt test split to the AUC its
  ledger gives, and the saved ensemble and final model to the report's
  test metrics, bit for bit;
- with a transform set, multiplying every int and float column of the CSV
  by 4 leaves every model file and the report's ``metrics`` and
  ``ensemble`` sections byte-identical.

The runs are derandomized, so CI sees the same cases every time; a failing
case prints its config."""

import csv
import json
import math
import shutil
import tempfile
from pathlib import Path

from hypothesis import given, note, settings
from hypothesis import strategies as st

from tabdistill.ensemble import load_ensemble
from tabdistill.learners import load_model
from tabdistill.metrics import evaluate, roc_auc
from tabdistill.pipeline import load_config, run_pipeline
from tabdistill.tabular import (
    Dataset,
    apply_transform,
    ingest_csv,
    remove_constant_columns,
    split_indices,
)

from helpers import mixed_type_dataset, noisy_nonlinear_dataset, write_dataset_csv

_LEARNERS = st.one_of(
    st.builds(lambda rounds, depth: {"kind": "gbdt",
                                     "params": {"rounds": rounds, "max_depth": depth}},
              st.integers(2, 3), st.integers(2, 3)),
    st.builds(lambda batch_norm: {"kind": "mlp", "params": {
        "hidden_sizes": [4], "epochs": 2, "batch_norm": batch_norm}}, st.booleans()))

_DISTILL = st.one_of(
    st.none(),
    st.fixed_dictionaries({
        "generations": st.integers(1, 2),
        "teacher_mode": st.sampled_from(["from_last", "from_ensemble"]),
        "target_mode": st.sampled_from(["row_weighted", "label_sampled"]),
        "include_original": st.booleans()}))


@st.composite
def _configs(draw) -> tuple[dict, str, int]:
    """A config without its data path and output directory, the kind of CSV
    it reads and that CSV's row count."""
    tags = draw(st.sampled_from([["a"], ["a", "b"], ["b", "a"]]))
    de = draw(st.none() | st.fixed_dictionaries({
        "max_iterations": st.just(2), "prune_epsilon": st.sampled_from([0, 0.2])}))
    doc = {"preprocess": {"transform": draw(st.sampled_from([None, "standardize", "quantile"]))},
           "families": {tag: {"learner": draw(_LEARNERS), "distill": draw(_DISTILL)}
                        for tag in tags},
           "ensemble_opt": de,
           "final_distill": {"learner": draw(_LEARNERS)},
           "seed": draw(st.integers(0, 3))}
    return doc, draw(st.sampled_from(["numeric", "mixed"])), draw(st.integers(200, 300))


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _numbers(child)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


def _test_split(cfg) -> Dataset:
    """The run's test split, rebuilt in the pipeline's order: ingest,
    constant columns, split positions, the transform fitted on the train
    positions, then the test rows."""
    ds = ingest_csv(cfg.data_path, cfg.label_column)
    if cfg.remove_constants:
        ds, _ = remove_constant_columns(ds)
    train_idx, _, test_idx = split_indices(ds.n_rows, cfg.split)
    if cfg.transform is not None:
        ds = apply_transform(ds, cfg.transform, train_idx)
    return ds.take(test_idx)


def _times_4(ds: Dataset) -> Dataset:
    """``ds`` with every int and float column multiplied by 4, exactly."""
    return Dataset(ds.schema, tuple(a * 4 if c.kind in ("int", "float") else a
                                    for c, a in zip(ds.schema.feature_columns,
                                                    ds.feature_arrays)), ds.labels)


def _run(ds: Dataset, doc: dict, root: Path) -> tuple[dict, Path]:
    """Write ``ds`` and the config under ``root``, run it, and return the
    report and the config's path."""
    root.mkdir()
    write_dataset_csv(ds, root / "data.csv")
    config = root / "config.json"
    config.write_text(json.dumps({**doc, "data": {"path": "data.csv", "label_column": "label"},
                                  "output_dir": str(root / "out")}), encoding="utf-8")
    return run_pipeline(load_config(config)), config


@settings(max_examples=10, deadline=None, derandomize=True)
@given(drawn=_configs())
def test_drawn_pipelines_keep_their_invariants(drawn):
    doc, data, rows = drawn
    note(json.dumps({**doc, "data": data, "rows": rows}, indent=1))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ds = (noisy_nonlinear_dataset(rows, seed=rows) if data == "numeric"
              else mixed_type_dataset(rows, seed=rows))
        report, config = _run(ds, doc, tmp / "data")
        out = tmp / "data" / "out"
        first = _files(out)
        shutil.rmtree(out)
        run_pipeline(load_config(config))
        assert _files(out) == first

        run_dir = out / report["run_id"]
        text = (run_dir / "report.json").read_text(encoding="utf-8")
        assert all(math.isfinite(x) for x in _numbers(json.loads(text)))

        audit = report["ensemble"]["audit"]
        if doc["ensemble_opt"] is None:
            assert audit["validation_auc"] == audit["uniform_auc"]
        else:
            assert audit["validation_auc"] >= max(audit["member_aucs"] + [audit["uniform_auc"]])

        test = _test_split(load_config(config))
        for tag, fam in doc["families"].items():
            want = 1 + (fam["distill"] or {"generations": 0})["generations"]
            with open(run_dir / f"ledger_{tag}.csv", newline="", encoding="utf-8") as fh:
                assert len(list(csv.reader(fh))) == 1 + want  # the header, then one per model
            family = report["families"][tag]
            assert len(family["ledger"]) == want
            for row, name in zip(family["ledger"], family["model_files"]):
                preds = load_model(run_dir / name).predict(test)
                assert roc_auc(preds, test.labels) == row["individual_auc"], name
        served = {"optimized_ensemble": load_ensemble(run_dir / "ensemble.json"),
                  "final_model": load_model(run_dir / report["final_model_file"])}
        for key, model in served.items():
            assert evaluate(model.predict(test), test.labels).as_dict() == report["metrics"][key]

        if doc["preprocess"]["transform"] is not None:
            scaled, _ = _run(_times_4(ds), doc, tmp / "scaled")
            scaled_dir = tmp / "scaled" / "out" / scaled["run_id"]
            assert _files(scaled_dir / "models") == _files(run_dir / "models")
            for section in ("metrics", "ensemble"):
                assert (json.dumps(scaled[section], sort_keys=True)
                        == json.dumps(report[section], sort_keys=True))
