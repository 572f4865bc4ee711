"""Evaluation kernels: ROC AUC, log loss, accuracy and prediction
correlation. All kernels are pure functions.

The ROC AUC is a rank sum over a single sort of the scores, exact under
ties, and rejects non-finite scores with DataError; ``evaluate`` inherits
that check. Its label step, ``AUCLabels``, checks and counts the labels;
the ensemble weight search runs it once and scores every blend against it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from tabdistill.errors import DataError

PROB_EPS = 1e-12


@dataclass(frozen=True)
class EvalReport:
    auc: float
    log_loss: float
    accuracy: float
    n_pos: int
    n_neg: int

    def as_dict(self) -> dict:
        return {"auc": self.auc, "log_loss": self.log_loss,
                "accuracy": self.accuracy, "n_pos": self.n_pos, "n_neg": self.n_neg}


class AUCLabels:
    """The label step of ``roc_auc``: 0/1 labels, checked, with their positive
    mask and class counts. ``np.asarray`` turns it back into the labels."""

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        self.pos = self.labels == 1
        self.n_pos = np.count_nonzero(self.pos)
        self.n_neg = np.count_nonzero(self.labels == 0)
        if self.n_pos == 0 or self.n_neg == 0:
            raise DataError("ROC AUC needs both classes present")

    def __array__(self, dtype=None, copy=None):
        return np.array(self.labels, dtype=dtype, copy=copy)


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, with
    ties counting one half; exactly equal to pair counting. ``labels`` may
    be an ``AUCLabels``, built once by a caller that scores many vectors.

    One sort ranks the scores. Without ties, sorted position i has rank
    i + 1 and the positives' rank sum is an exact integer. Otherwise each
    tie group adds its mid-rank times its count of positives; mid-ranks are
    half-integers, so that sum is exact whatever the sort kind or the order
    within a group. Non-finite scores raise DataError."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != np.shape(labels):
        raise DataError("scores and labels must have equal length")
    if not isinstance(labels, AUCLabels):
        labels = AUCLabels(labels)
    pos, n_pos, n_neg = labels.pos, labels.n_pos, labels.n_neg
    if not np.isfinite(scores).all():
        raise DataError("ROC AUC needs finite scores")
    order = np.argsort(scores)
    sorted_scores = scores[order]
    # edges of the tie groups in sorted order: group k spans edges[k]..edges[k+1]
    boundary = np.ones(len(scores) + 1, dtype=bool)
    np.not_equal(sorted_scores[1:], sorted_scores[:-1], out=boundary[1:-1])
    if boundary.all():
        rank_sum_pos = np.flatnonzero(pos[order]).sum() + n_pos
    else:
        edges = np.flatnonzero(boundary)
        group_rank = (edges[:-1] + edges[1:] + 1) / 2.0  # mean of ranks start+1 .. end
        rank_sum_pos = group_rank @ np.add.reduceat(pos[order], edges[:-1], dtype=np.int64)
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def log_loss(scores, labels) -> float:
    """Mean binary cross-entropy with probabilities clamped away from 0/1."""
    p = np.clip(np.asarray(scores, dtype=np.float64), PROB_EPS, 1.0 - PROB_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(-y * np.log(p) - (1.0 - y) * np.log(1.0 - p)))


def accuracy(scores, labels) -> float:
    pred = (np.asarray(scores) >= 0.5).astype(np.int64)
    return float(np.mean(pred == np.asarray(labels)))


def evaluate(scores, labels) -> EvalReport:
    labels = np.asarray(labels)
    return EvalReport(
        auc=float(roc_auc(scores, labels)),
        log_loss=log_loss(scores, labels),
        accuracy=accuracy(scores, labels),
        n_pos=int((labels == 1).sum()),
        n_neg=int((labels == 0).sum()),
    )


def pearson(preds_a, preds_b) -> float:
    """Product-moment correlation; raises on constant input rather than
    silently returning 0."""
    a = np.asarray(preds_a, dtype=np.float64)
    b = np.asarray(preds_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise DataError("pearson needs two equal-length vectors of length >= 2")
    ac = a - a.mean()
    bc = b - b.mean()
    na = np.sqrt((ac * ac).sum())
    nb = np.sqrt((bc * bc).sum())
    if na == 0.0 or nb == 0.0:
        raise DataError("pearson is undefined for a constant vector")
    r = float((ac * bc).sum() / (na * nb))
    return min(1.0, max(-1.0, r))


def generation_correlation_matrix(models, rows) -> np.ndarray:
    """Pairwise Pearson correlation of model prediction vectors on ``rows``.

    Symmetric with unit diagonal; the off-diagonal structure is the
    diagnostic for how diverse a chain of generations is.
    """
    if len(models) < 2:
        raise DataError("need at least two models")
    preds = [np.asarray(m.predict(rows), dtype=np.float64) for m in models]
    k = len(preds)
    mat = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            r = pearson(preds[i], preds[j])
            mat[i, j] = r
            mat[j, i] = r
    return mat
