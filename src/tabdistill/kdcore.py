"""k-class loss machinery for distillation via weighted or sampled labels,
and the numerical checks of the loss-equivalence results.

Three formulations of the same objective live here: the classic
teacher-matching loss (a convex mix of teacher cross-entropy and hard-label
cross-entropy), the weighted-dataset loss over k virtual pairs per row, and
the sampled-label loss whose expectation recovers the first two. Class
indices are 1-based (1..k) throughout this module.

Every log of a student probability goes through ``_log_student``, which
clamps with ``metrics.clamp_prob`` so the identities stay well defined and
testable at the simplex boundary; every categorical draw goes through
``draw_classes``.

``run_verification`` (the CLI ``verify`` subcommand) checks numerically that
the first two are equal, that the sampled-label loss is unbiased for them,
and that its per-draw gradient is unbiased for (1/N) times the full one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tabdistill.errors import DataError, VerificationError, require_integer, require_number
from tabdistill.metrics import clamp_prob, sum_rows

_SIMPLEX_TOL = 1e-9


@dataclass(frozen=True)
class KDInstance:
    """Aligned teacher distributions, student distributions, and hard labels
    for N rows, plus the mixing weight alpha on the teacher term."""

    teacher: np.ndarray  # (N, k)
    student: np.ndarray  # (N, k)
    labels: np.ndarray   # (N,), values in 1..k
    alpha: float

    def __post_init__(self):
        t = np.asarray(self.teacher, dtype=np.float64)
        s = np.asarray(self.student, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "teacher", t)
        object.__setattr__(self, "student", s)
        object.__setattr__(self, "labels", y)
        if t.ndim != 2 or t.shape != s.shape:
            raise DataError("teacher and student must be (N, k) arrays of equal shape")
        if y.shape != (t.shape[0],):
            raise DataError("labels length must match N")
        require_number(self.alpha, "alpha", 0, 1)
        k = t.shape[1]
        if k < 2:
            raise DataError("need k >= 2 classes")
        if ((y < 1) | (y > k)).any():
            raise DataError("labels must lie in 1..k")
        for name, arr in (("teacher", t), ("student", s)):
            # written so that NaN, which no comparison holds for, fails too
            if not (arr >= 0).all():
                raise DataError(f"{name} rows must be nonnegative numbers")
            if np.abs(arr.sum(axis=1) - 1.0).max() > _SIMPLEX_TOL:
                raise DataError(f"{name} rows must sum to 1")

    @property
    def n(self) -> int:
        return self.teacher.shape[0]

    @property
    def k(self) -> int:
        return self.teacher.shape[1]


def mixed_targets(inst: KDInstance) -> np.ndarray:
    """(N, k) matrix of per-row mixed targets alpha*q_i + (1-alpha)*1_{y_i}."""
    return inst.alpha * inst.teacher + (1.0 - inst.alpha) * np.eye(inst.k)[inst.labels - 1]


def _log_student(student: np.ndarray) -> np.ndarray:
    """log of the clamped student probabilities."""
    return np.log(clamp_prob(student))


def kd_loss(inst: KDInstance) -> float:
    """sum_i [alpha * CE(q_i, p_i) + (1 - alpha) * CE(one_hot(y_i), p_i)]."""
    logp = _log_student(inst.student)
    teacher_term = -(inst.teacher * logp).sum(axis=1)
    hard_term = -logp[np.arange(inst.n), inst.labels - 1]
    return float((inst.alpha * teacher_term + (1.0 - inst.alpha) * hard_term).sum())


def weighted_loss(inst: KDInstance) -> float:
    """Loss of the weighted dataset: each row expands into k pairs (x_i, j)
    carrying weight q'_i(j); identical to kd_loss by construction."""
    logp = _log_student(inst.student)
    return float(-(mixed_targets(inst) * logp).sum())


def draw_classes(qp: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws from categorical rows ``qp`` (..., k), one per
    uniform in ``u``: the 0-based class j with cdf_{j-1} < u <= cdf_j. The
    leading axes of ``u`` broadcast against those of ``qp``."""
    cdf = np.cumsum(qp, axis=-1)
    # guard against cumulative rounding: the last cdf entry is forced to 1
    cdf[..., -1] = 1.0
    return (u[..., None] > cdf).sum(axis=-1)


def random_instance(rng: np.random.Generator, n: int, k: int,
                    alpha: float | None = None) -> KDInstance:
    """Full-support random instance: rows drawn from a symmetric
    Dirichlet(1), labels uniform."""
    teacher = rng.dirichlet(np.ones(k), size=n)
    student = rng.dirichlet(np.ones(k), size=n)
    labels = rng.integers(1, k + 1, size=n)
    if alpha is None:
        alpha = float(rng.random())
    return KDInstance(teacher, student, labels, alpha)


def softmax_probs(theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear-softmax scorer: row-wise softmax of x @ theta^T for theta of
    shape (k, d) and x of shape (N, d)."""
    logits = x @ theta.T
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def ce_gradient(theta: np.ndarray, x: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d/d theta of sum_i CE(target_i, softmax(theta x_i)):
    sum_i (p_i - target_i) x_i^T, shape (k, d)."""
    return (softmax_probs(theta, x) - target).T @ x


# draws per block of the streamed gradient check, which bounds its memory
_GRADIENT_BLOCK = 16_384


def _gradient_draws(student, x, qp, rows, u):
    """Per-draw gradients (p_I - one_hot(z)) x_I^T of the sampled-label loss,
    yielded as (block, k, d) arrays in draw order; draw t takes row
    ``rows[t]`` and its class from the uniform ``u[t]``."""
    for start in range(0, len(rows), _GRADIENT_BLOCK):
        r = rows[start:start + _GRADIENT_BLOCK]
        resid = student[r]
        resid[np.arange(len(r)), draw_classes(qp[r], u[start:start + len(r)])] -= 1.0
        yield resid[:, :, None] * x[r][:, None, :]


def verify_gradient_unbiasedness(theta: np.ndarray, x: np.ndarray,
                                 teacher: np.ndarray, labels: np.ndarray,
                                 alpha: float, samples: int, seed: int) -> dict:
    """Monte-Carlo check that the per-draw gradient of the sampled-label
    loss is an unbiased estimate of (1/N) times the full objective gradient.

    Each draw picks a row I uniformly and a label z from the row's mixed
    target q'_I, then evaluates grad CE(one_hot(z), p_I) for the
    linear-softmax scorer ``softmax_probs(theta, .)``. The report holds the
    Monte-Carlo mean, the analytic target, per-component standard errors,
    and a pass flag (every component within 4 standard errors).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.ndim != 2:
        raise DataError("theta must be a (k, d) matrix")
    if samples < 2:
        raise DataError("need at least 2 gradient draws for a standard error")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    student = softmax_probs(theta, x)
    inst = KDInstance(teacher, student, labels, alpha)
    qp = mixed_targets(inst)

    analytic = ce_gradient(theta, x, qp) / n  # (1/N) * grad of the full loss

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=samples)
    u = rng.random(samples)

    # mean and ddof=1 spread in two streamed passes, with the same operations
    # in the same order as np.mean and np.std over the whole (samples, k, d)
    mc_mean = sum_rows(_gradient_draws(student, x, qp, rows, u)) / samples
    # a non-finite draw leaves the sum non-finite
    if not np.isfinite(mc_mean).all():
        raise VerificationError("non-finite gradient draws")
    sq_dev = sum_rows(np.square(g - mc_mean) for g in _gradient_draws(student, x, qp, rows, u))
    se = np.sqrt(sq_dev / (samples - 1)) / np.sqrt(samples)
    diff = np.abs(mc_mean - analytic)
    within = diff <= 4.0 * se + 1e-12
    return {
        "samples": int(samples),
        "mc_mean": mc_mean.tolist(),
        "analytic": analytic.tolist(),
        "standard_error": se.tolist(),
        "max_abs_diff": float(diff.max()),
        "max_diff_in_se": float(np.max(np.where(se > 0, diff / np.maximum(se, 1e-300), 0.0))),
        "passed": bool(within.all()),
    }


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
    """Mean and standard error of the sampled-label loss
    sum_i CE(one_hot(z_i), p_i), each z_i drawn from q'_i, over many
    independent resamples. Rows are drawn one at a time, vectorized over the
    resamples, so memory stays at a few (resamples,) vectors."""
    if resamples < 2:
        raise DataError("need at least 2 resamples for a standard error")
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
    for _ in range(instances):
        inst = random_instance(rng, n=int(rng.integers(5, 31)), k=int(rng.integers(2, 6)))
        kd = kd_loss(inst)
        mean, se = _resampled_loss_stats(inst, resamples, rng)
        z = abs(mean - kd) / se if se > 0 else 0.0
        ok = abs(mean - kd) <= 3.0 * se + 1e-12
        results.append({"kd_loss": kd, "mc_mean": mean, "standard_error": se,
                        "z": z, "passed": ok})
    return {"instances": results, "resamples": resamples,
            "passed": all(r["passed"] for r in results)}


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
    seed = require_integer(seed, "verify seed")
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
