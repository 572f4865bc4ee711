"""Run one benchmark workload against the tabdistill sources beside this
directory, check its outputs, and print its metrics.

    python3 benchmarks/run.py --workload pipeline_gbdt --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (provenance, raw per-op values, failures, report digests)
and, for traced runs, every span are written under ``.bench_runs/results/``.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, set before numpy is first imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
WORKLOADS = ("pipeline_gbdt", "pipeline_ensemble", "score_batch")

# Other tenants of the shared machine the benchmark was built on slow all
# CPU work by up to 2x, for stretches of seconds to whole runs. The set-up is
# repeated between ops, so that its samples span the run the way the ops do,
# for at most this share of the run's time.
SETUP_SHARE = 0.4

# reference_s() at the full speed of the machine the benchmark was built on
# (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4): over 40 runs of 30 s, the
# fastest mean of the two passes around a sample was 12.3 ms, and 13.6 ms in
# the median run. setup_s and run_s are times at this speed.
REFERENCE_S = 0.0125

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "run_s": ("s", "lower"),
    "final_test_auc": ("auc", "higher"),
    "ensemble_valid_auc": ("auc", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def _git_commit():
    """HEAD's commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tabdistill").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance(seed: int) -> dict:
    import numpy as np
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
        "seed": seed,
    }


def reference_s() -> float:
    """Wall time of one pass of a fixed kernel that never calls tabdistill.

    It mixes what an op is made of: an interpreted loop, dict updates, a
    sort and a small matrix product. Timed right before and after each
    set-up and op, it tells how fast the machine ran just then (see
    ``at_reference``).
    """
    import numpy as np
    rng = np.random.default_rng(0)
    v, m = rng.standard_normal(50_000), rng.standard_normal((96, 96))
    t0 = time.perf_counter()
    acc, counts = 0.0, {}
    for i in range(60_000):
        acc += i * 0.5
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for _ in range(10):
        np.sort(v)
        m @ m
    return time.perf_counter() - t0


def _spread(values: list) -> dict:
    """Median, quartiles and, when at least ten samples lie beyond it, p90."""
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        out["p25"], out["p75"] = q[0], q[2]
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


def _timed_setup(workload, seed: int, directory: Path):
    """Set up from scratch in ``directory`` and leave the process in it."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    os.chdir(directory)
    before = reference_s()
    t0 = time.perf_counter()
    state = workload.setup(seed)
    elapsed = time.perf_counter() - t0
    return state, elapsed, (before + reference_s()) / 2


def at_reference(times: list, refs: list) -> float:
    """Median wall time at the reference speed: each sample's wall time over
    the mean reference_s() around it, times REFERENCE_S."""
    return statistics.median(t / r for t, r in zip(times, refs)) * REFERENCE_S


@contextmanager
def _traced(tracer, on: bool, phase: str, op=None):
    if not on:
        yield
        return
    from tracer import installed
    tracer.phase, tracer.op = phase, op
    with installed(tracer):
        yield


def run_workload(workload, name: str, seed: int, seconds: float, trace: bool):
    """Set up, then run ops until ``seconds`` have passed; every op is
    checked, and an op that raises or fails a check is counted, not fatal.
    Untraced runs repeat the set-up between ops (see SETUP_SHARE).

    In a traced run every other op is traced, so that the record can set the
    fastest traced op beside the fastest untraced one.
    """
    from tracer import PER_LAYER, Tracer, layer_metrics, span_cost

    workdir = RUNS / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    home = os.getcwd()
    tracer = Tracer()
    setup_s, times, traced_times, failures = [], [], [], []
    # per set-up and untraced op: mean of reference_s() right before and after
    setup_refs, refs = [], []
    untraced_ok = 0  # rows_per_s counts these over the time of every untraced op
    start = time.perf_counter()
    try:
        with _traced(tracer, trace, "setup"):
            with tracer.span("setup") if trace else nullcontext():
                state, elapsed, ref = _timed_setup(workload, seed, workdir / "setup")
        setup_s.append(elapsed)
        setup_refs.append(ref)
        setup_problems = workload.check_setup(state)

        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            traced = trace and i % 2 == 1
            workload.reset(state)
            out, problems = None, []
            ref_before = None if traced else reference_s()
            with _traced(tracer, traced, "op", i):
                t0 = time.perf_counter()
                try:
                    with tracer.span("op") if traced else nullcontext():
                        out = workload.op(state)
                except Exception as exc:  # counted as a failed op
                    problems = [f"op raised {exc!r}"]
                elapsed = time.perf_counter() - t0
            if traced:
                traced_times.append(elapsed)
            else:
                times.append(elapsed)
                refs.append((ref_before + reference_s()) / 2)
            if not problems:
                with _traced(tracer, traced, "check", i):
                    try:
                        problems = workload.check(state, out)
                    except Exception as exc:  # counted as a failed op
                        problems = [f"check raised {exc!r}"]
            tracer.end_op()
            if problems:
                failures.append({"op": i, "problems": problems[:5]})
            elif not traced:
                untraced_ok += 1
            i += 1
            if time.perf_counter() >= deadline and i >= (2 if trace else 1):
                break
            if not trace and sum(setup_s) < SETUP_SHARE * (time.perf_counter() - start):
                _, elapsed, ref = _timed_setup(workload, seed, workdir / "spare")
                setup_s.append(elapsed)
                setup_refs.append(ref)
                os.chdir(workdir / "setup")
        summary = workload.summary(state)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(times) + len(traced_times)
    if trace:
        metrics = layer_metrics(tracer.spans, span_cost())
        units = PER_LAYER
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": at_reference(setup_s, setup_refs),
            "run_s": at_reference(times, refs),
            "final_test_auc": summary.get("final_test_auc") or 0.0,
            "ensemble_valid_auc": summary.get("ensemble_valid_auc") or 0.0,
            "peak_rss_mb": peak_kib / 1024.0,
        }
        units = END_TO_END
    result = {
        "correct": not failures and not setup_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(seed),
        "raw": {"setup_s": setup_s, "setup_reference_s": setup_refs,
                "op_s": times, "op_reference_s": refs, "traced_op_s": traced_times},
        "op_ms": _spread([t * 1000.0 for t in times]),
        # host noise swamps this difference; trace.overhead_s is span-counted
        "traced_minus_untraced_s": min(traced_times) - min(times) if trace else None,
        "rows_per_s": workload.rows_per_op * untraced_ok / sum(times),
        "report_sha256": summary.get("report_sha256", []),
        "setup_problems": setup_problems,
        "failures": failures,
        "result": result,
    }
    return result, record, tracer


def _print_metrics(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<32} {m['value']:>16.6g} {m['unit']}")


def _run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "tabdistill" / "__init__.py").is_file():
        print(f"error: no tabdistill sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)

    sys.path.insert(0, str(SRC))
    from workloads import make_workloads

    workload = make_workloads(args.tiny)[args.workload]
    result, record, tracer = run_workload(workload, args.workload, args.seed,
                                          args.seconds, bool(args.trace))
    results_dir = RUNS / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=2))
    if args.trace:
        tracer.write(results_dir / f"{stem}.spans.jsonl")
    print(f"record: {results_dir / stem}.json")
    _print_metrics(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
