"""Byte-identity oracle: the sha256 of every file a fixed set of seeded runs
writes.

The script writes seeded numeric and mixed-type CSVs with the generators in
``tests/helpers.py`` and runs ``tabdistill pipeline`` on a fixed set of
configs, each with and without ``ensemble_opt``. It then runs
``tabdistill deploy-distill`` and ``tabdistill ensemble-opt`` on one of the
ensembles, and ``ensemble-opt`` once more on its first member alone;
``tabdistill ingest --schema-out``, ``train`` and ``evaluate``;
``tabdistill distill`` with its defaults and once more with the
``from_ensemble`` teacher and ``label_sampled`` targets; and
``tabdistill verify --seed 0`` for the loss machinery, at the default
Monte-Carlo budgets (200,000 resamples, about 2 s) and at ``--fast``'s.
Every command's stdout is kept as a file too. The manifest, one
``sha256  relative-path`` line per file in sorted path order, goes to
stdout after one header line that names the numeric environment: numpy's
version, its enabled dispatch targets and the configuration string of the
OpenBLAS numpy loaded (``unknown`` when that library does not export it).
Outputs depend on the kernels these select, so two manifests compare only
when their headers do. On any x86-64 machine with AVX2 the kernels can be
pinned:

    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \
        OPENBLAS_CORETYPE=Haswell PYTHONPATH=src python3 tools/output_digests.py

A change that must keep every output byte-identical prints the same
manifest as its parent. To compare, check the parent out next to the repo
and run each checkout's own script on its own ``src/``; each side needs its
own helpers, since a change to how they build a Dataset would not run on
the other side's package:

    git worktree add ../parent <parent-commit>
    (cd ../parent && PYTHONPATH=src python3 tools/output_digests.py) > parent.txt
    PYTHONPATH=src python3 tools/output_digests.py > change.txt
    diff parent.txt change.txt && sha256sum change.txt
    git worktree remove ../parent
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from helpers import mixed_type_dataset, noisy_nonlinear_dataset, write_dataset_csv  # noqa: E402

from tabdistill.cli import main as cli_main  # noqa: E402
from tabdistill.tabular import MAX_ONE_HOT  # noqa: E402

GBDT = {"kind": "gbdt", "params": {"rounds": 6, "max_depth": 3}}
MLP = {"kind": "mlp", "params": {"hidden_sizes": [8], "epochs": 6, "batch_size": 64}}
MLP_BN = {"kind": "mlp", "params": {**MLP["params"], "batch_norm": True}}
DISTILL = {"generations": 2}

# name -> (data file, families, transform, final learner); families are
# written in the order given, so "b_before_a" lists family b first
PIPELINES = {
    "one_family": ("numeric.csv", {"a": {"learner": GBDT, "distill": DISTILL}},
                   None, GBDT),
    "b_before_a": ("mixed.csv", {"b": {"learner": MLP, "distill": DISTILL},
                                 "a": {"learner": GBDT, "distill": DISTILL}},
                   None, GBDT),
    "teacher_only": ("mixed.csv", {"a": {"learner": GBDT, "distill": None},
                                   "b": {"learner": MLP}},
                     None, MLP),
    "from_ensemble": ("numeric.csv",
                      {"a": {"learner": MLP, "distill": {
                          "generations": 3, "teacher_mode": "from_ensemble"}},
                       "b": {"learner": GBDT, "distill": {
                           "generations": 3, "teacher_mode": "from_ensemble"}}},
                      None, GBDT),
    "label_sampled": ("numeric.csv",
                      {"a": {"learner": GBDT, "distill": {
                          "generations": 2, "target_mode": "label_sampled",
                          "include_original": True}},
                       "b": {"learner": MLP, "distill": {
                           "generations": 2, "target_mode": "label_sampled",
                           "include_original": True}}},
                      None, GBDT),
    "quantile": ("mixed.csv", {"a": {"learner": GBDT, "distill": DISTILL},
                               "b": {"learner": MLP, "distill": DISTILL}},
                 "quantile", GBDT),
    "standardize": ("numeric.csv", {"a": {"learner": MLP, "distill": DISTILL},
                                    "b": {"learner": GBDT, "distill": DISTILL}},
                    "standardize", GBDT),
    "batch_norm": ("mixed.csv", {"a": {"learner": MLP_BN, "distill": DISTILL},
                                 "b": {"learner": GBDT, "distill": DISTILL}},
                   None, MLP_BN),
    # integers where the others hold floats: the distill beta here, and the
    # final beta and the DE mutation factor in the loop below. The echo keeps
    # the first two as given and the final beta as 1.0, and the run id with it
    "integer_numbers": ("numeric.csv", {"a": {"learner": GBDT, "distill": {
        "generations": 2, "beta": 1}}}, None, GBDT),
}
ENSEMBLE_OPT = {"max_iterations": 8, "prune_epsilon": 0.05}
# the pipeline whose ensemble deploy-distill and ensemble-opt start from
CLI_SOURCE = "b_before_a+de"


def _run(argv: list[str], stdout_file: str) -> dict:
    """``tabdistill`` in process; its stdout is saved and returned parsed."""
    with open(stdout_file, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"tabdistill {' '.join(argv)} exited with {code}")
    return json.loads(Path(stdout_file).read_text(encoding="utf-8"))


def write_outputs() -> None:
    """Every run, written under the current directory."""
    write_dataset_csv(noisy_nonlinear_dataset(400, seed=1), "numeric.csv")
    write_dataset_csv(mixed_type_dataset(400, seed=2, levels=MAX_ONE_HOT + 8), "mixed.csv")
    write_dataset_csv(mixed_type_dataset(200, seed=3, levels=MAX_ONE_HOT + 8),
                      "mixed_valid.csv")
    run_ids = {}
    for name, (data, families, transform, final) in PIPELINES.items():
        integers = name == "integer_numbers"
        de_opt = {**ENSEMBLE_OPT, "mutation_factor": 1} if integers else ENSEMBLE_OPT
        for suffix, de in (("", None), ("+de", de_opt)):
            doc = {"data": {"path": data, "label_column": "label"},
                   "preprocess": {"transform": transform},
                   "families": families, "ensemble_opt": de,
                   "final_distill": {"learner": final, "beta": 1 if integers else 0.7,
                                     "threshold": 0.99},
                   "output_dir": "out", "seed": 7}
            config = f"{name}{suffix}.json"
            Path(config).write_text(json.dumps(doc, indent=2), encoding="utf-8")
            out = _run(["pipeline", "--config", config], f"{name}{suffix}.stdout")
            run_ids[name + suffix] = out["run_id"]

    run_dir = Path("out") / run_ids[CLI_SOURCE]
    members = json.loads((run_dir / "ensemble.json").read_text(encoding="utf-8"))["members"]
    _run(["deploy-distill", "--ensemble", str(run_dir / "ensemble.json"),
          "--data", "mixed.csv", "--label", "label", "--out", "deploy.json",
          "--params", json.dumps(GBDT["params"]), "--seed", "3"], "deploy.stdout")
    _run(["ensemble-opt", "--models", *(str(run_dir / m) for m in members),
          "--valid", "mixed_valid.csv", "--label", "label",
          "--out", "ensemble_opt.json", "--seed", "4"], "ensemble_opt.stdout")
    _run(["ensemble-opt", "--models", str(run_dir / members[0]),
          "--valid", "mixed_valid.csv", "--label", "label",
          "--out", "ensemble_opt_one.json", "--seed", "4"], "ensemble_opt_one.stdout")
    _run(["ingest", "--data", "mixed.csv", "--label", "label", "--schema-out", "schema.json"],
         "ingest.stdout")
    _run(["train", "--data", "mixed.csv", "--label", "label", "--out", "train.json",
          "--params", json.dumps(GBDT["params"]), "--seed", "5"], "train.stdout")
    _run(["evaluate", "--model", "train.json", "--data", "mixed_valid.csv", "--label", "label"],
         "evaluate.stdout")
    for name, modes in (("distill", []), ("distill_from_ensemble", [
            "--teacher-mode", "from_ensemble", "--target-mode", "label_sampled"])):
        _run(["distill", "--data", "numeric.csv", "--label", "label", "--out-dir", name,
              "--params", json.dumps(GBDT["params"]), *modes], f"{name}.stdout")
    _run(["verify", "--fast", "--seed", "0"], "verify_fast.stdout")
    _run(["verify", "--seed", "0"], "verify.stdout")


def environment() -> str:
    """The manifest's header: numpy's version, the dispatch targets numpy
    enabled on this CPU, and the bundled OpenBLAS's configuration string,
    which names the core type whose kernels it picked."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    # a handle on the extension module also finds the libraries it links
    get_config = getattr(ctypes.CDLL(umath.__file__), "scipy_openblas_get_config64_", None)
    blas = "unknown"
    if get_config is not None:
        get_config.restype = ctypes.c_char_p
        blas = get_config().decode()
    return f"# numpy {np.__version__}; dispatch {' '.join(targets) or 'none'}; blas {blas}"


def manifest(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(root).as_posix()}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        cwd = os.getcwd()
        os.chdir(root)
        try:
            write_outputs()
        finally:
            os.chdir(cwd)
        lines = manifest(root)
    print(environment())
    print("\n".join(lines))
    print(f"{len(lines)} files", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
