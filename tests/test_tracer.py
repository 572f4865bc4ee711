"""benchmarks/tracer.py wraps package functions by their module-level names,
so entering its ``installed`` block fails on any name the package no longer
defines; no benchmark is started."""

import importlib.util
from pathlib import Path

import tabdistill.metrics as metrics
import tabdistill.pipeline as pipeline

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
