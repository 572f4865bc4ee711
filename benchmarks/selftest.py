"""Self-test of the benchmark itself; takes well under a minute.

    python3 benchmarks/selftest.py

Runs a tiny variant of every workload, untraced and traced, and checks that
each prints exactly the metrics BENCHMARK.json names, with their units, and
no failed op. Then runs both pipeline workloads traced at full size, for two
ops each, and checks that layer spans cover at least 95% of op time. Last,
checks that an ensemble member returning NaN makes every op count as failed
instead of aborting the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL: {message}")


def check_printed_metrics() -> None:
    _expect([w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS),
            "BENCHMARK.json workloads differ from run.WORKLOADS")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        for name in run.WORKLOADS:
            cmd = [sys.executable, str(Path(run.__file__)), "--workload", name,
                   "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            _expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{name}: result keys {sorted(result)}")
            printed = {k: m["unit"] for k, m in result["metrics"].items()}
            _expect(printed == declared,
                    f"{name} trace={trace}: printed metrics differ from BENCHMARK.json "
                    f"{key}: {sorted(set(printed) ^ set(declared))}")
            _expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{name} trace={trace}: {result['attempted']} attempted, "
                    f"{result['failed']} failed")
            print(f"ok  {name} trace={trace}: {len(printed)} metrics, "
                  f"{result['attempted']} ops")


def check_span_coverage() -> None:
    """Op time outside every layer span is time the per-layer metrics miss."""
    from workloads import make_workloads

    workloads = make_workloads()
    for name in ("pipeline_gbdt", "pipeline_ensemble"):
        result, _, _ = run.run_workload(workloads[name], name, 3, 0.1, True)
        coverage = result["metrics"]["pipeline.span_coverage"]["value"]
        _expect(result["correct"] and coverage >= 0.95,
                f"{name}: span coverage {coverage:.3f}, correct={result['correct']}")
        print(f"ok  {name}: span coverage {coverage:.3f}")


class _NaNMember:
    def predict(self, rows):
        return np.full(rows.n_rows, np.nan)


def check_nan_member_counts_as_failed() -> None:
    from workloads import make_workloads

    workload = make_workloads(tiny=True)["score_batch"]
    check_setup = workload.check_setup

    def poisoned(state):
        problems = check_setup(state)
        state.ensemble.members[0] = _NaNMember()
        return problems

    workload.check_setup = poisoned
    result, _, _ = run.run_workload(workload, "score_batch", 3, 0.5, False)
    _expect(result["attempted"] >= 1 and result["failed"] == result["attempted"]
            and not result["correct"],
            f"NaN member: {result['attempted']} attempted, {result['failed']} failed")
    print(f"ok  NaN member: {result['failed']} of {result['attempted']} ops failed")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    check_printed_metrics()
    check_span_coverage()
    check_nan_member_counts_as_failed()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
