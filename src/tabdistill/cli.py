"""Command-line entry points.

Exit codes: 0 success, 1 usage error, 2 data error, 3 training error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from tabdistill import __version__
from tabdistill.distill import (
    TARGET_MODES,
    TEACHER_MODES,
    DistillConfig,
    run_generations,
    write_ledger_csv,
)
from tabdistill.ensemble import (
    DEConfig,
    load_ensemble,
    optimize_weights_detailed,
    save_ensemble,
)
from tabdistill.errors import (
    UNREADABLE_JSON,
    DataError,
    TabDistillError,
    TrainingError,
    VerificationError,
)
from tabdistill.kdcore import run_verification
from tabdistill.learners import (
    LEARNER_KINDS,
    LearnerSpec,
    TrainingTarget,
    load_model,
    save_model,
    train,
)
from tabdistill.metrics import evaluate
from tabdistill.pipeline import (
    StageError,
    distill_to_deployment,
    load_config,
    run_pipeline,
)
from tabdistill.tabular import SplitSpec, ingest_csv
from tabdistill.tabular import split as split_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3
EXIT_VERIFICATION = 4


def _learner_spec(args) -> LearnerSpec:
    try:
        params = json.loads(args.params) if args.params else {}
    except UNREADABLE_JSON as exc:
        raise DataError(f"--params is not valid JSON: {exc}") from None
    return LearnerSpec(kind=args.kind, params=params, seed=args.seed)


def _cmd_ingest(args) -> int:
    ds = ingest_csv(args.data, args.label)
    schema = ds.schema.to_json_dict()
    print(json.dumps({**schema, "rows": ds.n_rows}, indent=2, sort_keys=True))
    if args.schema_out:
        Path(args.schema_out).write_text(json.dumps(schema, indent=2, sort_keys=True),
                                         encoding="utf-8")
    return EXIT_OK


def _cmd_train(args) -> int:
    ds = ingest_csv(args.data, args.label)
    model = train(_learner_spec(args), ds, TrainingTarget.hard())
    save_model(model, args.out)
    report = evaluate(model.predict(ds), ds.labels).as_dict()
    print(json.dumps({"model": args.out, "train": report}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_distill(args) -> int:
    ds = ingest_csv(args.data, args.label)
    spec = SplitSpec(args.train_fraction, args.valid_fraction, seed=args.seed)
    train_ds, valid_ds, test_ds = split_dataset(ds, spec)
    cfg = DistillConfig(beta=args.beta, denoise_threshold=args.threshold,
                        generations=args.generations, teacher_mode=args.teacher_mode,
                        target_mode=args.target_mode, seed=args.seed)
    records, models = run_generations(_learner_spec(args), train_ds, valid_ds,
                                      test_ds, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for gen, model in enumerate(models):
        save_model(model, out_dir / f"gen{gen}.json")
    write_ledger_csv(records, out_dir / "ledger.csv")
    print(json.dumps({"out_dir": str(out_dir),
                      "ledger": [r.as_dict() for r in records]},
                     indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_ensemble_opt(args) -> int:
    members = [load_model(p) for p in args.models]
    valid = ingest_csv(args.valid, args.label)
    optimized, audit = optimize_weights_detailed(members, valid, DEConfig(seed=args.seed))
    save_ensemble(optimized, args.models, args.out)
    print(json.dumps({"ensemble": args.out, "weights": optimized.weights.tolist(),
                      "validation_auc": audit["validation_auc"]},
                     indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_deploy_distill(args) -> int:
    ens = load_ensemble(args.ensemble)
    ds = ingest_csv(args.data, args.label)
    model = distill_to_deployment(ens.predict(ds), ds, _learner_spec(args), args.beta,
                                  args.threshold)
    save_model(model, args.out)
    print(json.dumps({"model": args.out}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_pipeline(args) -> int:
    overrides = {key: value for key, value in (("seed", args.seed), ("output_dir", args.out))
                 if value is not None}
    cfg = load_config(args.config, overrides)
    report = run_pipeline(cfg)
    print(json.dumps({"run_id": report["run_id"],
                      "metrics": report["metrics"]}, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_verification(seed=args.seed, fast=args.fast)
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True),
                                  encoding="utf-8")
    if not report["passed"]:
        raise VerificationError("verification suite reported failures")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    ds = ingest_csv(args.data, args.label)
    report = evaluate(model.predict(ds), ds.labels).as_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tabdistill",
        description="Distillation toolkit for tabular binary classifiers.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_learner_flags(p):
        p.add_argument("--kind", choices=LEARNER_KINDS, default="gbdt")
        p.add_argument("--params", help="hyperparameters as a JSON object")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ingest", help="validate a CSV and report its schema")
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--schema-out")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("train", help="train a single model on hard labels")
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)
    add_learner_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("distill", help="run a self-distillation chain")
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--generations", type=int, default=DistillConfig.generations)
    p.add_argument("--beta", type=float, default=DistillConfig.beta)
    p.add_argument("--threshold", type=float, default=DistillConfig.denoise_threshold)
    p.add_argument("--teacher-mode", choices=TEACHER_MODES, default=DistillConfig.teacher_mode)
    p.add_argument("--target-mode", choices=TARGET_MODES, default=DistillConfig.target_mode)
    p.add_argument("--train-fraction", type=float, default=SplitSpec.train_fraction)
    p.add_argument("--valid-fraction", type=float, default=SplitSpec.valid_fraction)
    add_learner_flags(p)
    p.set_defaults(func=_cmd_distill)

    p = sub.add_parser("ensemble-opt", help="optimize weights over persisted models")
    p.add_argument("--models", nargs="+", required=True)
    p.add_argument("--valid", required=True, help="validation CSV")
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_ensemble_opt)

    p = sub.add_parser("deploy-distill",
                       help="distill a persisted ensemble into one model")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--beta", type=float, default=DistillConfig.beta)
    p.add_argument("--threshold", type=float, default=DistillConfig.denoise_threshold)
    add_learner_flags(p)
    p.set_defaults(func=_cmd_deploy_distill)

    p = sub.add_parser("pipeline", help="run the full workflow from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify", help="run the loss-equivalence verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fast", action="store_true",
                   help="smaller Monte-Carlo budgets for smoke runs")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("evaluate", help="evaluate a persisted model on a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--label", required=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (TabDistillError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause if isinstance(exc, StageError) else exc
        if isinstance(cause, TrainingError):
            return EXIT_TRAINING
        return EXIT_VERIFICATION if isinstance(cause, VerificationError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
