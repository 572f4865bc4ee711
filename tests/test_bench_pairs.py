"""The BENCH_<pr>.json collation of tools/bench_pairs.py, on canned run
outputs, and what a stopped script leaves behind; no benchmark is started."""

import importlib.util
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = {
    "run_s": {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    "final_test_auc": {"name": "final_test_auc", "unit": "auc", "better": "higher",
                       "bound": 0.15},
}


def _result(run_s, auc, failed=0, digest="aa"):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "final_test_auc": {"value": auc, "unit": "auc"}},
            "record": {"report_sha256": [digest]}}


def _rounds():
    # run_s: the change is faster in rounds 1 and 3, slower in round 2 and
    # ties in round 4; the AUC is the same everywhere
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.5, 2.5, 2.0, 4.0]
    return [{"first_side": side, "parent": _result(p, 0.7), "change": _result(c, 0.7, digest="bb")}
            for side, p, c in zip(["parent", "change"] * 2, parent, change)]


def test_collate_counts_pairs_by_direction():
    out = bench_pairs.collate(_rounds(), END_TO_END)
    run_s = out["metrics"]["run_s"]
    assert (run_s["other_better_pairs"], run_s["other_worse_pairs"]) == (2, 1)
    auc = out["metrics"]["final_test_auc"]
    assert (auc["other_better_pairs"], auc["other_worse_pairs"]) == (0, 0)
    assert auc["median_change"] == 0.0 and auc["base_iqr"] == 0.0


def test_collate_spreads_and_change():
    run_s = bench_pairs.collate(_rounds(), END_TO_END)["metrics"]["run_s"]
    assert run_s["base"] == {"runs": [1.0, 2.0, 3.0, 4.0], "median": 2.5,
                             "p25": 1.75, "p75": 3.25}
    assert run_s["other"]["median"] == 2.25
    assert run_s["base_iqr"] == 1.5
    assert run_s["median_change"] == pytest.approx(2.25 / 2.5 - 1.0)
    assert (run_s["unit"], run_s["better"], run_s["bound"]) == ("s", "lower", 0.25)


def test_parent_without_a_commit_stops_before_the_first_pair(tmp_path, monkeypatch):
    def run_once(*args):
        raise AssertionError("a pair ran")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    parent = tmp_path / "parent"
    parent.mkdir()
    with pytest.raises(SystemExit, match="has no git commit"):
        bench_pairs.main(["--parent", str(parent), "--change", str(tmp_path),
                          "--workload", "score_batch", "--seed", "1", "--pairs", "1",
                          "--seconds", "1", "--out", str(tmp_path / "bench.json")])
    assert not (tmp_path / "bench.json").exists()


def test_collate_keeps_round_order_failures_and_digests():
    rounds = _rounds()
    rounds[2]["change"] = _result(2.0, 0.7, failed=1, digest="bb")
    out = bench_pairs.collate(rounds, END_TO_END)
    assert out["first_side"] == ["parent", "change", "parent", "change"]
    assert out["failed"] == {"parent": [0, 0, 0, 0], "change": [0, 0, 1, 0]}
    assert out["attempted"]["change"] == [10] * 4
    assert out["report_sha256"] == {"parent": ["aa"], "change": ["bb"]}


# a stand-in for benchmarks/run.py: it says who it is, then runs far longer
# than the test waits
_SLEEPING_RUN = """
import os, time
from pathlib import Path
Path("run.pid.tmp").write_text(str(os.getpid()))
os.replace("run.pid.tmp", "run.pid")
time.sleep(120)
"""


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _wait_for(condition, seconds: float) -> bool:
    deadline = time.monotonic() + seconds
    while not condition():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def test_sigterm_ends_the_running_benchmark_and_writes_nothing(tmp_path):
    checkout = tmp_path / "checkout"
    (checkout / "benchmarks").mkdir(parents=True)
    (checkout / "benchmarks" / "run.py").write_text(_SLEEPING_RUN)
    (checkout / "BENCHMARK.json").write_text('{"end_to_end": []}')
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@example.com"]
    for cmd in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "seed"]):
        subprocess.run(git + cmd, cwd=checkout, check=True, capture_output=True)
    out = tmp_path / "bench.json"
    pid_file = checkout / "run.pid"
    script = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--parent", str(checkout), "--change", str(checkout),
         "--workload", "pipeline_gbdt", "--seed", "1", "--pairs", "1", "--seconds", "1",
         "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    child = None
    try:
        assert _wait_for(pid_file.exists, 30), "the benchmark run never started"
        child = int(pid_file.read_text())
        script.send_signal(signal.SIGTERM)
        assert script.wait(timeout=30) != 0
        assert _wait_for(lambda: not _alive(child), 5), "the benchmark run outlived the script"
        assert not out.exists()
    finally:
        for pid in (script.pid, child):
            if pid is not None and _alive(pid):
                os.kill(pid, signal.SIGKILL)
        script.wait(timeout=30)
