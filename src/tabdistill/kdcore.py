"""k-class loss machinery for distillation via weighted or sampled labels.

Three formulations of the same objective live here: the classic
teacher-matching loss (a convex mix of teacher cross-entropy and hard-label
cross-entropy), the weighted-dataset loss over k virtual pairs per row, and
the sampled-label loss whose expectation recovers the first two. Class
indices are 1-based (1..k) throughout this module.

Every log of a student probability goes through ``_log_student``, which
clamps with ``metrics.clamp_prob`` so the identities stay well defined and
testable at the simplex boundary; every categorical draw goes through
``draw_classes``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tabdistill.errors import DataError, VerificationError
from tabdistill.metrics import clamp_prob

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
        if not (0.0 <= self.alpha <= 1.0):
            raise DataError("alpha must lie in [0, 1]")
        k = t.shape[1]
        if k < 2:
            raise DataError("need k >= 2 classes")
        if ((y < 1) | (y > k)).any():
            raise DataError("labels must lie in 1..k")
        for name, arr in (("teacher", t), ("student", s)):
            if (arr < 0).any():
                raise DataError(f"{name} rows must be nonnegative")
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


def sample_labels(inst: KDInstance, seed: int) -> np.ndarray:
    """Draw one label per row from the categorical with parameter q'_i.

    Deterministic per seed; returned labels are 1-based.
    """
    u = np.random.default_rng(seed).random(inst.n)
    return (draw_classes(mixed_targets(inst), u) + 1).astype(np.int64)


def sampled_loss(inst: KDInstance, z: np.ndarray) -> float:
    """sum_i CE(one_hot(z_i), p_i) for sampled labels z."""
    z = np.asarray(z, dtype=np.int64)
    if z.shape != (inst.n,):
        raise DataError("sampled labels length must match N")
    if ((z < 1) | (z > inst.k)).any():
        raise DataError("sampled labels must lie in 1..k")
    logp = _log_student(inst.student)
    return float(-logp[np.arange(inst.n), z - 1].sum())


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


class LinearSoftmaxScorer:
    """k-class linear-softmax scorer p = softmax(theta @ x) with a closed
    form cross-entropy gradient, used to verify gradient unbiasedness."""

    def __init__(self, theta: np.ndarray):
        self.theta = np.asarray(theta, dtype=np.float64)
        if self.theta.ndim != 2:
            raise DataError("theta must be a (k, d) matrix")

    @property
    def k(self) -> int:
        return self.theta.shape[0]

    def probs(self, x: np.ndarray) -> np.ndarray:
        """Row-wise softmax of x @ theta^T for x of shape (N, d)."""
        logits = x @ self.theta.T
        logits -= logits.max(axis=1, keepdims=True)
        e = np.exp(logits)
        return e / e.sum(axis=1, keepdims=True)

    def ce_gradient(self, x: np.ndarray, target: np.ndarray) -> np.ndarray:
        """d/d theta of sum_i CE(target_i, softmax(theta x_i)):
        sum_i (p_i - target_i) x_i^T, shape (k, d)."""
        p = self.probs(x)
        return (p - target).T @ x


def verify_gradient_unbiasedness(theta: np.ndarray, x: np.ndarray,
                                 teacher: np.ndarray, labels: np.ndarray,
                                 alpha: float, samples: int, seed: int) -> dict:
    """Monte-Carlo check that the per-draw gradient of the sampled-label
    loss is an unbiased estimate of (1/N) times the full objective gradient.

    Each draw picks a row I uniformly and a label z from the row's mixed
    target q'_I, then evaluates grad CE(one_hot(z), p_I). The report holds
    the Monte-Carlo mean, the analytic target, per-component standard
    errors, and a pass flag (every component within 4 standard errors).
    """
    scorer = LinearSoftmaxScorer(theta)
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    k = scorer.k
    student = scorer.probs(x)
    inst = KDInstance(teacher, student, labels, alpha)
    qp = mixed_targets(inst)

    analytic = scorer.ce_gradient(x, qp) / n  # (1/N) * grad of the full loss

    rng = np.random.default_rng(seed)
    rows = rng.integers(0, n, size=samples)
    z = draw_classes(qp[rows], rng.random(samples))  # 0-based class of each draw

    resid = student[rows].copy()              # p_I - one_hot(z)
    resid[np.arange(samples), z] -= 1.0
    grads = resid[:, :, None] * x[rows][:, None, :]  # (samples, k, d)
    if not np.isfinite(grads).all():
        raise VerificationError("non-finite gradient draws")

    mc_mean = grads.mean(axis=0)
    # with a single draw the spread is unknowable; the pass flag is then
    # meaningless but the report is still produced
    mc_std = grads.std(axis=0, ddof=1) if samples > 1 else np.zeros_like(mc_mean)
    se = mc_std / np.sqrt(samples)
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
