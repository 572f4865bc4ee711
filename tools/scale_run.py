"""One seeded two-family pipeline at a chosen row count, timed and measured
stage by stage.

    python3 tools/scale_run.py --rows 1000000

The script writes ``noisy_nonlinear_dataset(rows, seed)`` with the helpers
in ``tests/helpers.py`` to a CSV in a temporary directory and runs
``run_pipeline`` on it: a GBDT family (40 rounds, depth 6) and an MLP
family ((32, 16), 30 epochs), 3 generations each; DE with 40 iterations;
a GBDT (40 rounds, depth 6) final model; config seed 7. Stages are the
spans of ``benchmarks/tracer.py``'s ``installed()``, whose wrappers time
each layer's public entry points; the tracer here also stores the
process's peak RSS so far (``ru_maxrss``) at the end of every span, and
whether the span raised it.

It prints one JSON line: the rows, the pipeline's wall time, the process's
peak RSS, the first span whose end saw that peak (null when the peak came
before the pipeline started), the final model's test AUC, and per span
name its total wall time, its calls and the highest peak RSS one of its
spans raised the process to (null when none raised it). A 1M-row run takes
about 8 minutes and 900 MB on a 2-vCPU VM.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "benchmarks"))
# this checkout's package, whatever PYTHONPATH names
sys.path.insert(0, str(ROOT / "src"))

from helpers import noisy_nonlinear_dataset, write_dataset_csv  # noqa: E402
from tracer import Tracer, installed  # noqa: E402

from tabdistill import pipeline  # noqa: E402

GBDT = {"kind": "gbdt", "params": {"rounds": 40, "max_depth": 6}}
MLP = {"kind": "mlp", "params": {"hidden_sizes": [32, 16], "epochs": 30}}
DISTILL = {"generations": 3}


def peak_rss_mb() -> float:
    """The process's peak resident set so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class RssTracer(Tracer):
    """A tracer whose spans also hold ``rss_mb``, the peak RSS at their end,
    and ``raised``, whether it grew while they ran."""

    @contextmanager
    def span(self, name: str):
        start = peak_rss_mb()
        with super().span(name) as span:
            try:
                yield span
            finally:
                span["rss_mb"] = peak_rss_mb()
                span["raised"] = span["rss_mb"] > start


def run(rows: int, seed: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data.csv"
        write_dataset_csv(noisy_nonlinear_dataset(rows, seed), data)
        doc = {"data": {"path": str(data), "label_column": "label"},
               "families": {"a": {"learner": GBDT, "distill": DISTILL},
                            "b": {"learner": MLP, "distill": DISTILL}},
               "ensemble_opt": {"max_iterations": 40},
               "final_distill": {"learner": GBDT},
               "output_dir": str(Path(tmp) / "out"), "seed": 7}
        cfg = pipeline.PipelineConfig.from_json_dict(doc)
        tracer = RssTracer()
        before = peak_rss_mb()
        start = time.perf_counter()
        with installed(tracer):
            report = pipeline.run_pipeline(cfg)
        wall = time.perf_counter() - start
    peak = peak_rss_mb()
    stages: dict[str, dict] = {}
    for span in tracer.spans:
        stage = stages.setdefault(span["name"], {"wall_s": 0.0, "calls": 0, "rss_mb": None})
        stage["wall_s"] += span["end"] - span["start"]
        stage["calls"] += 1
        if span["raised"]:
            stage["rss_mb"] = max(stage["rss_mb"] or 0.0, span["rss_mb"])
    peak_span = None
    if peak > before:
        peak_span = next(s["name"] for s in tracer.spans if s["rss_mb"] == peak)
    return {"rows": rows, "wall_s": wall, "peak_rss_mb": peak, "peak_span": peak_span,
            "final_test_auc": report["metrics"]["final_model"]["auc"], "stages": stages}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    print(json.dumps(run(args.rows, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
