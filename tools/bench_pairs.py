"""Paired benchmark runs of a parent checkout and a change, collated into one
``BENCH_<pr>.json``.

    git worktree add ../parent <parent-commit>
    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --workload score_batch --workload pipeline_gbdt \\
        --seed 91 --pairs 10 --seconds 30 --out BENCH_9.json
    git worktree remove ../parent

The parent checkout must be a git checkout, so that ``parent_commit`` names
what the change was measured against; a directory without a commit (a
``git archive`` export, say) stops the script before the first pair.

Each round runs ``benchmarks/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, alternating which side goes first, and
reads the JSON object on the last line of its output plus the run record it
names (for the machine and the ``report.json`` digests). Units, the better
direction and the bound of each end-to-end metric come from the change's
``BENCHMARK.json``. Medians and quartiles are numpy's linear percentiles;
``median_change`` is the change's median over the parent's, minus 1, and a
pair counts as better or worse by the metric's direction, ties for neither.

Stopped by SIGTERM, the script kills and reaps the run in progress and exits
non-zero without writing ``--out``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def checkout_commit(checkout: Path):
    """The commit checked out at ``checkout``, as the benchmark's run record
    reads it (``git rev-parse HEAD``), or None when there is none."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run: its last-line result, with ``record`` (the run
    record it wrote) added."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    record = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    result["record"] = json.loads((checkout / record).read_text())
    return result


def spread(runs: list[float]) -> dict:
    p25, median, p75 = np.percentile(runs, [25, 50, 75])
    return {"runs": runs, "median": float(median), "p25": float(p25), "p75": float(p75)}


def collate(rounds: list[dict], end_to_end: dict) -> dict:
    """One workload's comparison. ``rounds`` holds, per round, the side that
    ran first and each side's result; ``end_to_end`` maps a metric name to
    its ``BENCHMARK.json`` entry."""
    metrics = {}
    for name in rounds[0]["parent"]["metrics"]:
        spec = end_to_end[name]
        base, other = ([r[side]["metrics"][name]["value"] for r in rounds] for side in SIDES)
        sign = -1.0 if spec["better"] == "lower" else 1.0
        gains = [sign * (o - b) for b, o in zip(base, other)]
        base_spread, other_spread = spread(base), spread(other)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "base": base_spread,
            "other": other_spread,
            "base_iqr": base_spread["p75"] - base_spread["p25"],
            "median_change": other_spread["median"] / base_spread["median"] - 1.0,
            "other_better_pairs": sum(g > 0 for g in gains),
            "other_worse_pairs": sum(g < 0 for g in gains),
        }
    return {
        "first_side": [r["first_side"] for r in rounds],
        "metrics": metrics,
        "failed": {side: [r[side]["failed"] for r in rounds] for side in SIDES},
        "attempted": {side: [r[side]["attempted"] for r in rounds] for side in SIDES},
        "report_sha256": {side: sorted({h for r in rounds for h in r[side]["record"]["report_sha256"]})
                          for side in SIDES},
    }


def _raise_stop(signum, frame):
    # an exception, so that subprocess.run kills and reaps its child
    raise SystemExit(f"stopped by signal {signum}; no result written")


def run_pairs(checkouts: dict, workload: str, seed: int, pairs: int, seconds: float) -> list:
    """``pairs`` rounds of one workload, alternating which side runs first."""
    rounds = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        rounds.append({"first_side": order[0]} | {
            side: run_once(checkouts[side], workload, seed, seconds) for side in order})
        print(f"{workload}: pair {i + 1}/{pairs} done", file=sys.stderr)
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    parent_commit = checkout_commit(args.parent)
    if parent_commit is None:
        raise SystemExit(f"{args.parent} has no git commit; make the parent checkout with "
                         f"git worktree add, so the result names what it was measured against")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent, "change": args.change}
    comparisons = {}
    previous = signal.signal(signal.SIGTERM, _raise_stop)
    try:
        for workload in args.workload:
            rounds = run_pairs(checkouts, workload, args.seed, args.pairs, args.seconds)
            comparisons[f"{workload}: parent -> change"] = collate(rounds, end_to_end)
    finally:
        signal.signal(signal.SIGTERM, previous)
    provenance = rounds[0]["change"]["record"]["provenance"]

    args.out.write_text(json.dumps({
        "what": (f"Rounds of the repository benchmark on the parent commit and on the change, "
                 f"alternating which side runs first ('first_side' lists it per round). Each run: "
                 f"python3 benchmarks/run.py --workload <name> --seed {args.seed} "
                 f"--seconds {args.seconds:g} --trace 0. Medians and quartiles (numpy linear "
                 f"percentiles) are over runs; 'median_change' is the change's median over the "
                 f"parent's minus 1; 'other_better_pairs' counts rounds where the change read "
                 f"better than the parent, ties counting for neither."),
        "machine": {k: provenance[k] for k in ("cpu_model", "nproc", "numpy", "python")},
        "parent_commit": parent_commit,
        "comparisons": comparisons,
    }, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
