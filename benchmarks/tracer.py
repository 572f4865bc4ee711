"""Per-layer spans recorded from outside the package.

``installed(tracer)`` swaps timing wrappers onto the public functions each
tabdistill layer exposes to its callers, and restores the originals on
exit. Nothing inside ``src/`` knows it is being traced.

A span is a dict with an id, its parent's id, a name, the phase it ran in
(``setup``, ``op`` or ``check``), the op number, start and end times and the
counts taken from the call's arguments and return value. Self time is a
span's duration minus the part its direct children cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.phase = "setup"
        self.op = None
        self._stack: list[dict] = []
        self._ids = itertools.count(1)
        # objects whose ids key the predict-repeat count stay alive until the
        # op ends, so a freed id cannot be reused inside one op
        self._keep: list = []

    @contextmanager
    def span(self, name: str):
        span = {"id": next(self._ids),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "name": name, "phase": self.phase, "op": self.op}
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def keep(self, *objs) -> None:
        self._keep.extend(objs)

    def end_op(self) -> None:
        self._keep.clear()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                span.update(count(self, result, *args, **kwargs))
            return result
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# ---- counts taken from each traced call ---------------------------------

def _gbdt_trained(tracer, model, *args, **kwargs):
    return {"trees": len(model.trees),
            "nodes": int(sum(len(t.feature) for t in model.trees))}


def _mlp_trained(tracer, model, *args, **kwargs):
    return {"epochs_run": model.epochs_run, "best_epoch": model.best_epoch}


def _predicted(tracer, preds, model, rows, *args, **kwargs):
    tracer.keep(model, rows)
    return {"rows": len(preds), "pair": f"{id(model)}:{id(rows)}"}


def _rows_out(tracer, result, *args, **kwargs):
    return {"rows": len(result)}


def _ingested(tracer, ds, *args, **kwargs):
    return {"rows": ds.n_rows}


def _generations(tracer, result, spec, train_ds, *args, **kwargs):
    records, _ = result
    later = records[1:]
    return {"train_rows": train_ds.n_rows,
            "distilled_gens": len(later),
            "rows_kept": sum(r.rows_kept for r in later),
            "rows_dropped": sum(r.rows_dropped for r in later)}


def _combined(tracer, result, *args, **kwargs):
    _, audit = result
    return {"members": len(audit["member_aucs"]),
            "prune_rounds": audit["prune_rounds"],
            "surviving": len(audit["surviving_members"])}


def _auc_via(module: str):
    return lambda tracer, result, scores, *a, **k: {"rows": len(scores), "via": module}


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced entry point for the duration of the block."""
    import tabdistill.distill as distill
    import tabdistill.ensemble as ensemble
    import tabdistill.learners as learners
    import tabdistill.learners.gbdt as gbdt
    import tabdistill.learners.mlp as mlp
    import tabdistill.metrics as metrics
    import tabdistill.pipeline as pipeline
    import tabdistill.tabular as tabular

    targets = [
        # learners.base.train looks both trainers up at call time
        (gbdt, "train_gbdt", "learners.gbdt.train", _gbdt_trained),
        (mlp, "train_mlp", "learners.mlp.train", _mlp_trained),
        (gbdt.GBDTModel, "predict", "learners.gbdt.predict", _predicted),
        (mlp.MLPModel, "predict", "learners.mlp.predict", _predicted),
        (pipeline, "save_model", "learners.save", None),
        (learners, "load_model", "learners.load", None),
        (ensemble.EnsembleModel, "predict", "ensemble.predict", _rows_out),
        (pipeline, "combine_families", "ensemble.optimize", _combined),
        (tabular.FeatureEncoder, "transform", "tabular.encode", _rows_out),
        (tabular, "ingest_csv", "tabular.ingest", _ingested),
        (pipeline, "ingest_csv", "tabular.ingest", _ingested),
        (pipeline, "remove_constant_columns", "tabular.preprocess", None),
        (pipeline, "split_indices", "tabular.preprocess", None),
        (pipeline, "apply_transform", "tabular.preprocess", None),
        (metrics, "evaluate", "metrics.evaluate", None),
        (pipeline, "evaluate", "metrics.evaluate", None),
        (pipeline, "run_generations", "distill.generations", _generations),
        (pipeline, "distill_to_deployment", "pipeline.final_distill", None),
    ]
    for module in (ensemble, distill, pipeline, mlp, metrics):
        targets.append((module, "roc_auc", "metrics.auc",
                        _auc_via(module.__name__.rsplit(".", 1)[-1])))

    saved = []
    try:
        for owner, attr, name, count in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_cost(calls: int = 5000) -> float:
    """Seconds one traced call adds to an untraced one, timed on a no-op."""
    def noop(rows):
        return rows

    tracer = Tracer()
    wrapped = tracer.wrap("noop", noop, _rows_out)

    def fastest(fn) -> float:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(())
            times.append(time.perf_counter() - t0)
            tracer.spans.clear()
        return min(times)

    return max(fastest(wrapped) - fastest(noop), 0.0) / calls


# ---- per-layer metrics ---------------------------------------------------

# name -> (unit, better); the order is the order they are printed in
PER_LAYER = {
    "learners.gbdt.train_s": ("s", "lower"),
    "learners.gbdt.train_calls": ("count", "lower"),
    "learners.gbdt.trees": ("count", "lower"),
    "learners.gbdt.nodes": ("count", "lower"),
    "learners.gbdt.predict_s": ("s", "lower"),
    "learners.gbdt.predict_calls": ("count", "lower"),
    "learners.gbdt.predict_rows": ("rows", "lower"),
    "learners.mlp.predict_s": ("s", "lower"),
    "learners.mlp.predict_calls": ("count", "lower"),
    "learners.mlp.predict_rows": ("rows", "lower"),
    "learners.predict_repeat_ratio": ("ratio", "lower"),
    "learners.mlp.train_s": ("s", "lower"),
    "learners.mlp.train_calls": ("count", "lower"),
    "learners.mlp.epochs_run": ("count", "lower"),
    "learners.mlp.best_epoch_share": ("ratio", "higher"),
    "learners.save_s": ("s", "lower"),
    "learners.load_s": ("s", "lower"),
    "ensemble.optimize_s": ("s", "lower"),
    "ensemble.self_s": ("s", "lower"),
    "ensemble.members": ("count", "higher"),
    "ensemble.auc_evals": ("count", "lower"),
    "ensemble.evals_per_s": ("1/s", "higher"),
    "ensemble.prune_rounds": ("count", "lower"),
    "ensemble.surviving_share": ("ratio", "higher"),
    "ensemble.predict_s": ("s", "lower"),
    "metrics.auc_s": ("s", "lower"),
    "metrics.auc_calls": ("count", "lower"),
    "metrics.auc_rows": ("rows", "lower"),
    "metrics.evaluate_s": ("s", "lower"),
    "tabular.ingest_s": ("s", "lower"),
    "tabular.ingest_rows_per_s": ("rows/s", "higher"),
    "tabular.encode_s": ("s", "lower"),
    "tabular.encode_calls": ("count", "lower"),
    "tabular.encode_rows": ("rows", "lower"),
    "tabular.preprocess_s": ("s", "lower"),
    "distill.generations_s": ("s", "lower"),
    "distill.self_s": ("s", "lower"),
    "distill.kept_share": ("ratio", "higher"),
    "distill.rows_dropped": ("rows", "lower"),
    "pipeline.final_distill_s": ("s", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.span_coverage": ("ratio", "higher"),
    "trace.overhead_s": ("s", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], span_cost_s: float) -> dict:
    """Per-layer cost of one set-up plus one average traced op.

    Set-up spans count once and op spans are divided by the number of traced
    ops. Check-phase spans count only toward ``learners.load_s``: that is
    where the pipeline workloads reload what an op saved. The tracing
    overhead is the layer spans of an average traced op times
    ``span_cost_s``, the measured cost of one span.
    """
    duration = {s["id"]: s["end"] - s["start"] for s in spans}
    covered: dict = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + duration[s["id"]]
    self_time = {i: d - covered.get(i, 0.0) for i, d in duration.items()}

    roots = [s for s in spans if s["name"] == "op"]
    n_ops = max(len(roots), 1)

    def total(name, value=lambda s: 1, phases=("setup", "op"), where=None) -> float:
        sums = {phase: 0 for phase in phases}
        for s in spans:
            if s["name"] == name and s["phase"] in sums and (where is None or where(s)):
                sums[s["phase"]] += value(s)
        once = sums.pop("setup", 0)
        return once + sum(sums.values()) / n_ops

    def busy(name, phases=("setup", "op")) -> float:
        return total(name, lambda s: duration[s["id"]], phases)

    def own(name) -> float:
        return total(name, lambda s: self_time[s["id"]])

    def field(name, key, where=None) -> float:
        return total(name, lambda s: s[key], where=where)

    predicts = [s for s in spans if s["name"] in ("learners.gbdt.predict", "learners.mlp.predict")
                and s["phase"] in ("setup", "op")]
    distinct = len({(s["phase"], s["op"], s["pair"]) for s in predicts})

    epochs = field("learners.mlp.train", "epochs_run")
    members = field("ensemble.optimize", "members")
    optimize_s = busy("ensemble.optimize")
    auc_evals = total("metrics.auc", where=lambda s: s["via"] == "ensemble")
    ingest_s = busy("tabular.ingest")
    root_time = sum(duration[s["id"]] for s in roots)

    return {
        "learners.gbdt.train_s": busy("learners.gbdt.train"),
        "learners.gbdt.train_calls": total("learners.gbdt.train"),
        "learners.gbdt.trees": field("learners.gbdt.train", "trees"),
        "learners.gbdt.nodes": field("learners.gbdt.train", "nodes"),
        "learners.gbdt.predict_s": busy("learners.gbdt.predict"),
        "learners.gbdt.predict_calls": total("learners.gbdt.predict"),
        "learners.gbdt.predict_rows": field("learners.gbdt.predict", "rows"),
        "learners.mlp.predict_s": busy("learners.mlp.predict"),
        "learners.mlp.predict_calls": total("learners.mlp.predict"),
        "learners.mlp.predict_rows": field("learners.mlp.predict", "rows"),
        "learners.predict_repeat_ratio": _ratio(len(predicts), distinct),
        "learners.mlp.train_s": busy("learners.mlp.train"),
        "learners.mlp.train_calls": total("learners.mlp.train"),
        "learners.mlp.epochs_run": epochs,
        "learners.mlp.best_epoch_share": _ratio(
            total("learners.mlp.train", lambda s: s["best_epoch"] + 1), epochs),
        "learners.save_s": busy("learners.save"),
        "learners.load_s": busy("learners.load", ("setup", "op", "check")),
        "ensemble.optimize_s": optimize_s,
        "ensemble.self_s": own("ensemble.optimize"),
        "ensemble.members": members,
        "ensemble.auc_evals": auc_evals,
        "ensemble.evals_per_s": _ratio(auc_evals, optimize_s),
        "ensemble.prune_rounds": field("ensemble.optimize", "prune_rounds"),
        "ensemble.surviving_share": _ratio(field("ensemble.optimize", "surviving"), members),
        "ensemble.predict_s": busy("ensemble.predict"),
        "metrics.auc_s": busy("metrics.auc"),
        "metrics.auc_calls": total("metrics.auc"),
        "metrics.auc_rows": field("metrics.auc", "rows"),
        "metrics.evaluate_s": busy("metrics.evaluate"),
        "tabular.ingest_s": ingest_s,
        "tabular.ingest_rows_per_s": _ratio(field("tabular.ingest", "rows"), ingest_s),
        "tabular.encode_s": busy("tabular.encode"),
        "tabular.encode_calls": total("tabular.encode"),
        "tabular.encode_rows": field("tabular.encode", "rows"),
        "tabular.preprocess_s": busy("tabular.preprocess"),
        "distill.generations_s": busy("distill.generations"),
        "distill.self_s": own("distill.generations"),
        "distill.kept_share": _ratio(
            field("distill.generations", "rows_kept"),
            total("distill.generations", lambda s: s["train_rows"] * s["distilled_gens"])),
        "distill.rows_dropped": field("distill.generations", "rows_dropped"),
        "pipeline.final_distill_s": busy("pipeline.final_distill"),
        "pipeline.self_s": sum(self_time[s["id"]] for s in roots) / n_ops,
        "pipeline.span_coverage": _ratio(
            sum(covered.get(s["id"], 0.0) for s in roots), root_time),
        "trace.overhead_s": span_cost_s * sum(
            1 for s in spans if s["phase"] == "op" and s["name"] != "op") / n_ops,
    }
