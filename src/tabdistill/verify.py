"""Numerical verification of the loss-equivalence results: the weighted
dataset loss equals the teacher-matching loss exactly, the sampled-label
loss is unbiased for it, and the per-draw stochastic gradient is unbiased
for (1/N) times the full gradient. Shared by the test suite and the CLI
``verify`` subcommand."""

from __future__ import annotations

import numpy as np

from tabdistill.kdcore import (
    KDInstance,
    _log_student,
    draw_classes,
    kd_loss,
    mixed_targets,
    random_instance,
    verify_gradient_unbiasedness,
    weighted_loss,
)

LOSS_IDENTITY_RTOL = 1e-9


def check_loss_identity(instances: int = 100, seed: int = 7) -> dict:
    """|L_weighted - L_kd| <= rtol * (1 + |L_kd|) on randomized instances."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        inst = random_instance(rng, n=int(rng.integers(1, 51)), k=int(rng.integers(2, 6)))
        kd = kd_loss(inst)
        wl = weighted_loss(inst)
        rel = abs(wl - kd) / (1.0 + abs(kd))
        worst = max(worst, rel)
    return {"instances": instances, "max_relative_deviation": worst,
            "tolerance": LOSS_IDENTITY_RTOL, "passed": worst <= LOSS_IDENTITY_RTOL}


def _resampled_loss_stats(inst: KDInstance, resamples: int,
                          rng: np.random.Generator) -> tuple[float, float]:
    """Mean and standard error of the sampled-label loss over many
    independent resamples. Rows are drawn one at a time, vectorized over the
    resamples, so memory stays at a few (resamples,) vectors."""
    logp = _log_student(inst.student)
    qp = mixed_targets(inst)
    losses = np.zeros(resamples)
    for i in range(inst.n):
        losses -= logp[i, draw_classes(qp[i], rng.random(resamples))]
    mean = float(losses.mean())
    se = float(losses.std(ddof=1) / np.sqrt(resamples))
    return mean, se


def check_sampling_unbiasedness(instances: int = 10, resamples: int = 200_000,
                                seed: int = 11) -> dict:
    """Monte-Carlo mean of the sampled loss within 3 plug-in standard errors
    of the exact objective on every instance."""
    rng = np.random.default_rng(seed)
    results = []
    all_pass = True
    for _ in range(instances):
        inst = random_instance(rng, n=int(rng.integers(5, 31)), k=int(rng.integers(2, 6)))
        kd = kd_loss(inst)
        mean, se = _resampled_loss_stats(inst, resamples, rng)
        z = abs(mean - kd) / se if se > 0 else 0.0
        ok = abs(mean - kd) <= 3.0 * se + 1e-12
        all_pass = all_pass and ok
        results.append({"kd_loss": kd, "mc_mean": mean, "standard_error": se,
                        "z": z, "passed": ok})
    return {"instances": results, "resamples": resamples, "passed": all_pass}


def check_gradient_unbiasedness(samples: int = 500_000, seed: int = 13) -> dict:
    """Linear-softmax scorer, d=3, k=3, N=20: every component of the
    Monte-Carlo mean gradient within 4 standard errors of the analytic
    value."""
    rng = np.random.default_rng(seed)
    n, d, k = 20, 3, 3
    x = rng.standard_normal((n, d))
    theta = rng.standard_normal((k, d)) * 0.5
    teacher = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(1, k + 1, size=n)
    return verify_gradient_unbiasedness(theta, x, teacher, labels, alpha=0.6,
                                        samples=samples, seed=seed + 1)


def run_verification(seed: int = 0, fast: bool = False) -> dict:
    """Run all three checks and return the combined JSON-able report."""
    resamples = 20_000 if fast else 200_000
    samples = 50_000 if fast else 500_000
    identity = check_loss_identity(seed=seed + 7)
    sampling = check_sampling_unbiasedness(resamples=resamples, seed=seed + 11)
    gradient = check_gradient_unbiasedness(samples=samples, seed=seed + 13)
    return {
        "loss_identity": identity,
        "sampling_unbiasedness": sampling,
        "gradient_unbiasedness": gradient,
        "passed": identity["passed"] and sampling["passed"] and gradient["passed"],
    }
