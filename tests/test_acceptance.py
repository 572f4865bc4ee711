"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Every tolerance is pinned here; the trend criteria
use fixed experiment seeds, so results are reproducible bit for bit.
"""

import time

import numpy as np

from tabdistill.distill import DistillConfig, distill_step, make_targets, run_generations
from tabdistill.ensemble import DEConfig, combine_families, optimize_weights_detailed
from tabdistill.errors import DataError
from tabdistill.kdcore import (
    check_gradient_unbiasedness,
    check_loss_identity,
    check_sampling_unbiasedness,
)
from tabdistill.learners import TrainingTarget, gbdt_spec, mlp_spec, train
from tabdistill.metrics import generation_correlation_matrix, roc_auc
from tabdistill.pipeline import PipelineConfig, distill_to_deployment, run_pipeline

from helpers import (
    FixedModel,
    dataset_from_arrays,
    noisy_nonlinear_dataset,
    pair_counting_auc,
    separable_dataset,
    write_dataset_csv,
)


def _criterion(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:02d}] {name}: {status}  {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_loss_equivalence_identity():
    start = time.time()
    report = check_loss_identity(instances=100, seed=7)
    elapsed = time.time() - start
    _criterion(1, "loss-equivalence identity",
               report["passed"] and elapsed < 1.0,
               f"max rel dev {report['max_relative_deviation']:.2e}, {elapsed:.2f}s")


def test_criterion_02_sampling_unbiasedness():
    start = time.time()
    report = check_sampling_unbiasedness(instances=10, resamples=200_000, seed=11)
    elapsed = time.time() - start
    worst = max(inst["z"] for inst in report["instances"])
    _criterion(2, "sampling unbiasedness",
               report["passed"] and elapsed < 30.0,
               f"worst |z| {worst:.2f} (limit 3), {elapsed:.1f}s")


def test_criterion_03_gradient_unbiasedness():
    start = time.time()
    report = check_gradient_unbiasedness(samples=500_000, seed=13)
    elapsed = time.time() - start
    _criterion(3, "gradient unbiasedness",
               report["passed"] and elapsed < 60.0,
               f"worst component {report['max_diff_in_se']:.2f} se (limit 4), {elapsed:.1f}s")


def test_criterion_04_auc_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(42)
    mismatches = 0
    for _ in range(500):
        n = int(rng.integers(4, 201))
        scores = rng.random(n)
        if rng.random() < 0.7:
            scores = np.round(scores, int(rng.integers(0, 3)))  # inject ties
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if roc_auc(scores, labels) != pair_counting_auc(scores, labels):
            mismatches += 1
    elapsed = time.time() - start
    _criterion(4, "AUC oracle equivalence",
               mismatches == 0 and elapsed < 5.0,
               f"{mismatches} mismatches in 500 instances, {elapsed:.1f}s")


def test_criterion_05_beta_mix_boundaries():
    ds1 = dataset_from_arrays({"a": [0.0, 0.0]}, [1, 0])
    t0 = make_targets(ds1, [0.9, 0.3], beta=0.0)
    hard_ok = (t0.w_pos.tolist() == [1.0, 0.0] and t0.w_neg.tolist() == [0.0, 1.0])

    t1 = make_targets(ds1, [0.9, 0.3], beta=1.0)
    pure_ok = (t1.w_pos.tolist() == [0.9, 0.3]
               and t1.w_neg.tolist() == [1.0 - 0.9, 1.0 - 0.3])

    ds2 = dataset_from_arrays({"a": [0.0]}, [1])
    t2 = make_targets(ds2, [0.6], beta=0.7)
    worked_ok = (abs(t2.w_pos[0] - 0.72) < 1e-15 and abs(t2.w_neg[0] - 0.28) < 1e-15)

    _criterion(5, "beta-mix boundary conditions",
               hard_ok and pure_ok and worked_ok,
               f"beta=0 {hard_ok}, beta=1 {pure_ok}, (0.72, 0.28) {worked_ok}")


def test_criterion_06_denoise_boundary_and_monotonicity():
    rng = np.random.default_rng(21)
    all_kept = True
    monotone = True
    for _ in range(20):
        n = int(rng.integers(5, 120))
        ds = dataset_from_arrays({"a": rng.standard_normal(n)},
                                 rng.integers(0, 2, n))
        scores = rng.random(n)
        # each value of "a" is unique, so the values a Dataset keeps name the
        # positions of its rows in ds
        a = ds.feature_arrays[0]
        kept_full, _ = distill_step(ds, scores, 0.7, threshold=1.0)
        dropped_full = np.flatnonzero(~np.isin(a, kept_full.feature_arrays[0]))
        all_kept &= kept_full.n_rows == n and len(dropped_full) == 0
        previous: set = set()
        for threshold in np.linspace(0.05, 1.0, 12):
            try:
                kept, _ = distill_step(ds, scores, 0.7, float(threshold))
                positions = set(np.flatnonzero(np.isin(a, kept.feature_arrays[0])).tolist())
            except DataError:
                positions = set()
            monotone &= previous <= positions
            previous = positions
    _criterion(6, "denoise boundary + monotonicity", all_kept and monotone,
               f"threshold-1 keeps all: {all_kept}, kept-set monotone: {monotone}")


def test_criterion_07_constant_column_invariance():
    base = separable_dataset(2000, seed=6)
    feats = dict(zip(base.schema.feature_names, base.feature_arrays))
    with_consts = dict(feats)
    for j in range(5):
        with_consts[f"one{j}"] = np.ones(base.n_rows)
    ds_plain = dataset_from_arrays(feats, base.labels)
    ds_const = dataset_from_arrays(with_consts, base.labels)
    spec = gbdt_spec(rounds=30)
    preds_plain = train(spec, ds_plain, TrainingTarget.hard()).predict(ds_plain)
    preds_const = train(spec, ds_const, TrainingTarget.hard()).predict(ds_const)
    identical = (preds_plain == preds_const).all()
    _criterion(7, "constant-column invariance", bool(identical),
               f"max |diff| {np.max(np.abs(preds_plain - preds_const)):.1e}")


def test_criterion_08_monotone_transform_invariance():
    train_ds = noisy_nonlinear_dataset(1500, seed=10)
    test_ds = noisy_nonlinear_dataset(700, seed=11)
    spec = gbdt_spec(rounds=30, seed=5)

    def cubed(ds):
        feats = {name: arr ** 3 + arr
                 for name, arr in zip(ds.schema.feature_names, ds.feature_arrays)}
        return dataset_from_arrays(feats, ds.labels)

    preds = train(spec, train_ds, TrainingTarget.hard()).predict(test_ds)
    preds_t = train(spec, cubed(train_ds), TrainingTarget.hard()).predict(cubed(test_ds))
    identical = (preds == preds_t).all()
    _criterion(8, "monotone-transform invariance", bool(identical),
               f"max |diff| {np.max(np.abs(preds - preds_t)):.1e}")


def _margin_dataset(seed, n, flip_fraction, margin, test_n, d=4):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(d)
    w /= np.sqrt((w * w).sum())

    def draw(m, margin):
        x = rng.standard_normal((m, d))
        s = x @ w
        bad = np.abs(s) < margin
        while bad.any():
            x[bad] = rng.standard_normal((int(bad.sum()), d))
            s = x @ w
            bad = np.abs(s) < margin
        return x, (s > 0).astype(np.int64)

    x_tr, y_tr = draw(n, margin)
    n_flip = int(round(n * flip_fraction))
    flip_idx = rng.choice(n, n_flip, replace=False)
    y_tr[flip_idx] = 1 - y_tr[flip_idx]
    x_te, y_te = draw(test_n, 0.0)
    tr = dataset_from_arrays({f"f{j}": x_tr[:, j] for j in range(d)}, y_tr)
    te = dataset_from_arrays({f"f{j}": x_te[:, j] for j in range(d)}, y_te)
    return tr, te


def test_criterion_09_denoising_trend():
    start = time.time()
    wins = 0
    for seed in range(10):
        tr, te = _margin_dataset(seed, n=5000, flip_fraction=0.2, margin=0.5,
                                 test_n=3000)
        teacher = train(gbdt_spec(seed=seed, rounds=40), tr, TrainingTarget.hard())
        teacher_auc = roc_auc(teacher.predict(te), te.labels)
        scores = teacher.predict(tr)
        kept, target = distill_step(tr, scores, 0.7, 0.99)
        student = train(gbdt_spec(seed=seed + 100, rounds=40), kept, target)
        student_auc = roc_auc(student.predict(te), te.labels)
        wins += student_auc > teacher_auc
    elapsed = time.time() - start
    _criterion(9, "denoising trend", wins >= 8 and elapsed < 120.0,
               f"{wins}/10 seeds improved, {elapsed:.0f}s")


def test_criterion_10_ensembling_trend():
    start = time.time()
    ens_wins = 0
    rel_wins = 0
    for seed in range(10):
        tr = noisy_nonlinear_dataset(1000, seed=seed * 31, d_noise=8, scale=1.2)
        te = noisy_nonlinear_dataset(1200, seed=seed * 31 + 13, d_noise=8, scale=1.2)
        cfg = DistillConfig(generations=5, seed=seed)
        mlp_recs, _ = run_generations(
            mlp_spec(seed=seed, epochs=8, learning_rate=0.05, batch_size=32,
                     hidden_sizes=(64, 32)), tr, None, te, cfg)
        gb_recs, _ = run_generations(gbdt_spec(seed=seed, rounds=60), tr, None,
                                     te, cfg)
        m0, m5 = mlp_recs[0].individual_auc, mlp_recs[5].ensemble_auc
        g0, g5 = gb_recs[0].individual_auc, gb_recs[5].ensemble_auc
        ens_wins += m5 >= m0
        rel_wins += (m5 - m0) / m0 > (g5 - g0) / g0
    elapsed = time.time() - start
    _criterion(10, "ensembling trend",
               ens_wins >= 8 and rel_wins >= 7 and elapsed < 300.0,
               f"ensemble>=gen0 in {ens_wins}/10, MLP gain beats GBDT gain in "
               f"{rel_wins}/10, {elapsed:.0f}s")


def test_criterion_11_diversity_diagnostic():
    tr = noisy_nonlinear_dataset(1000, seed=999, d_noise=8, scale=1.2)
    te = noisy_nonlinear_dataset(800, seed=998, d_noise=8, scale=1.2)
    wins = 0
    for seed in range(10):
        cfg = DistillConfig(generations=2, seed=seed)
        gb_records, _ = run_generations(gbdt_spec(seed=seed, rounds=40), tr, None,
                                        te, cfg)
        mlp_records, _ = run_generations(
            mlp_spec(seed=seed, epochs=8, learning_rate=0.05, batch_size=32,
                     hidden_sizes=(64, 32)), tr, None, te, cfg)
        gb_mat = generation_correlation_matrix(np.stack([r.test_preds for r in gb_records]))
        mlp_mat = generation_correlation_matrix(np.stack([r.test_preds for r in mlp_records]))
        gb_consec = np.mean([gb_mat[0, 1], gb_mat[1, 2]])
        mlp_consec = np.mean([mlp_mat[0, 1], mlp_mat[1, 2]])
        wins += gb_consec > mlp_consec
    _criterion(11, "diversity diagnostic", wins >= 8,
               f"GBDT consecutive correlation higher in {wins}/10 seeds")


def test_criterion_12_weight_optimization_guarantee():
    rng = np.random.default_rng(6)
    violations = 0
    for trial in range(20):
        n = 40
        labels = rng.integers(0, 2, n)
        labels[0], labels[1] = 0, 1
        valid = dataset_from_arrays({"a": np.zeros(n)}, labels)
        members = [FixedModel(rng.random(n)) for _ in range(int(rng.integers(2, 6)))]
        out, audit = optimize_weights_detailed(
            members, valid, DEConfig(max_iterations=25, seed=trial))
        best_incumbent = max(max(audit["member_aucs"]), audit["uniform_auc"])
        achieved = roc_auc(out.predict(None), labels)
        if achieved < best_incumbent - 1e-9:
            violations += 1
    _criterion(12, "weight-optimization guarantee", violations == 0,
               f"{violations} violations over 20 randomized member sets")


def test_criterion_13_deployment_distillation():
    start = time.time()
    wins = 0
    diffs = []
    for seed in range(10):
        tr = noisy_nonlinear_dataset(10_000, seed=seed * 47, d_noise=4, scale=1.5)
        va = noisy_nonlinear_dataset(2_000, seed=seed * 47 + 1, d_noise=4, scale=1.5)
        te = noisy_nonlinear_dataset(3_000, seed=seed * 47 + 2, d_noise=4, scale=1.5)
        cfg = DistillConfig(generations=2, seed=seed)
        _, gb_models = run_generations(gbdt_spec(seed=seed, rounds=40), tr, va,
                                       te, cfg)
        _, mlp_models = run_generations(
            mlp_spec(seed=seed, epochs=30, hidden_sizes=(32, 16)), tr, va, te, cfg)
        ens, _ = combine_families([gb_models, mlp_models], va,
                                  DEConfig(max_iterations=40, seed=seed))
        ens_auc = roc_auc(ens.predict(te), te.labels)
        final = distill_to_deployment(ens.predict(tr), tr, gbdt_spec(seed=seed + 99, rounds=80),
                                      beta=0.9, threshold=0.99)
        final_auc = roc_auc(final.predict(te), te.labels)
        diffs.append(final_auc - ens_auc)
        wins += abs(final_auc - ens_auc) <= 0.01
    elapsed = time.time() - start
    _criterion(13, "deployment distillation", wins >= 8 and elapsed < 600.0,
               f"{wins}/10 within 0.01 (worst diff {min(diffs):+.4f}), {elapsed:.0f}s")


def test_criterion_14_pipeline_determinism(tmp_path):
    ds = noisy_nonlinear_dataset(240, seed=2)
    write_dataset_csv(ds, tmp_path / "data.csv")
    doc = {
        "data": {"path": "data.csv", "label_column": "label"},
        "split": {"train_fraction": 0.6, "valid_fraction": 0.2},
        "preprocess": {"remove_constant_columns": True, "transform": None},
        "families": {
            "a": {"learner": {"kind": "gbdt", "params": {"rounds": 3}},
                  "distill": {"generations": 1}},
        },
        "ensemble_opt": {"max_iterations": 5},
        "final_distill": {"learner": {"kind": "gbdt", "params": {"rounds": 3}},
                          "beta": 0.7, "threshold": 0.99},
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
    }
    cfg = PipelineConfig.from_json_dict(doc, base_dir=tmp_path)
    first = run_pipeline(cfg)
    report_path = tmp_path / "out" / first["run_id"] / "report.json"
    first_bytes = report_path.read_bytes()
    second = run_pipeline(cfg)
    second_bytes = report_path.read_bytes()
    _criterion(14, "pipeline determinism",
               first_bytes == second_bytes and first == second,
               f"report.json identical across reruns ({len(first_bytes)} bytes)")
