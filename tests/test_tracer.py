"""benchmarks/tracer.py wraps package functions by their module-level names,
so entering its ``installed`` block fails on any name the package no longer
defines; no benchmark is started. tools/scale_run.py times a pipeline's
stages through the same wrappers."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import tabdistill
import tabdistill.learners as learners
import tabdistill.metrics as metrics
import tabdistill.pipeline as pipeline

from helpers import separable_dataset

_spec = importlib.util.spec_from_file_location(
    "tracer", Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_installed_wraps_and_restores_every_traced_name():
    originals = (pipeline.roc_auc, pipeline.distill_to_deployment, metrics.evaluate)
    trace = tracer.Tracer()
    with tracer.installed(trace):
        assert pipeline.roc_auc is not originals[0]
        assert pipeline.roc_auc([0.2, 0.8], [0, 1]) == 1.0
    assert [s["name"] for s in trace.spans] == ["metrics.auc"]
    assert (pipeline.roc_auc, pipeline.distill_to_deployment, metrics.evaluate) == originals


def test_train_and_load_record_their_spans(tmp_path):
    # learners.train finds both trainers on their modules at call time, and
    # callers reach load_model through the package, so the wrappers see them
    ds = separable_dataset(60, seed=1)
    target = learners.TrainingTarget.hard()
    trace = tracer.Tracer()
    with tracer.installed(trace):
        model = learners.train(learners.gbdt_spec(rounds=2, max_depth=2), ds, target)
        learners.train(learners.mlp_spec(epochs=1, hidden_sizes=(2,)), ds, target)
        learners.save_model(model, tmp_path / "m.json")
        learners.load_model(tmp_path / "m.json")
    names = [s["name"] for s in trace.spans if s["name"].startswith("learners.")]
    assert names == ["learners.gbdt.train", "learners.mlp.train", "learners.load"]


def test_scale_run_prints_one_line_of_stages(tmp_path):
    root = Path(__file__).resolve().parents[1]
    src = str(Path(tabdistill.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(root / "tools" / "scale_run.py"), "--rows", "300"],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {"rows", "wall_s", "peak_rss_mb", "peak_span", "final_test_auc", "stages"}
    assert out["rows"] == 300
    assert out["peak_span"] is None or out["peak_span"] in out["stages"]
    assert {"learners.gbdt.train", "learners.mlp.predict", "ensemble.optimize"} <= set(out["stages"])
    for stage in out["stages"].values():
        assert set(stage) == {"wall_s", "calls", "rss_mb"}
        assert stage["calls"] >= 1
        assert stage["rss_mb"] is None or stage["rss_mb"] <= out["peak_rss_mb"]
    if out["peak_span"] is not None:
        assert out["stages"][out["peak_span"]]["rss_mb"] == out["peak_rss_mb"]
    assert list(tmp_path.iterdir()) == []
