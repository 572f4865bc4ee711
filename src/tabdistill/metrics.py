"""Evaluation kernels: ROC AUC, log loss, accuracy and prediction
correlation. All kernels are pure functions.

The ROC AUC is a rank sum over a single sort of the scores, exact under
ties, and rejects non-finite scores with DataError; ``evaluate`` inherits
that check. Its label step, ``AUCLabels``, checks and counts the labels
and builds the integer vectors of the untied rank sum; the ensemble weight
search runs it once and scores every blend against it."""

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
    """The label step of ``roc_auc``: 0/1 labels, checked (any other label
    raises DataError), with their class counts, the positives as an int64
    0/1 vector and the ranks 1..n as int64, so that an untied rank sum is one
    integer dot product. ``np.asarray`` turns it back into the labels."""

    def __init__(self, labels):
        self.labels = np.asarray(labels)
        self.pos = (self.labels == 1).astype(np.int64)
        self.n_pos = np.count_nonzero(self.pos)
        self.n_neg = np.count_nonzero(self.labels == 0)
        if self.n_pos + self.n_neg != self.labels.size:
            raise DataError("ROC AUC needs labels that are 0 or 1")
        if self.n_pos == 0 or self.n_neg == 0:
            raise DataError("ROC AUC needs both classes present")
        self.ranks = np.arange(1, len(self.pos) + 1, dtype=np.int64)

    def __array__(self, dtype=None, copy=None):
        return np.array(self.labels, dtype=dtype, copy=copy)


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative, with
    ties counting one half; exactly equal to pair counting. ``labels`` may
    be an ``AUCLabels``, built once by a caller that scores many vectors.

    One sort ranks the scores. Without ties, sorted position i has rank
    i + 1 and the positives' rank sum is the exact integer dot product of
    the sorted 0/1 positives with the ranks. Otherwise each tie group adds
    its mid-rank times its count of positives; mid-ranks are half-integers,
    so that sum is exact whatever the sort kind or the order within a group.
    Non-finite scores raise DataError."""
    scores = np.asarray(scores, dtype=np.float64)
    bound = isinstance(labels, AUCLabels)
    # np.shape would copy an AUCLabels' labels through __array__
    if scores.shape != (labels.labels.shape if bound else np.shape(labels)):
        raise DataError("scores and labels must have equal length")
    if not bound:
        labels = AUCLabels(labels)
    n_pos, n_neg = labels.n_pos, labels.n_neg
    if not np.isfinite(scores).all():
        raise DataError("ROC AUC needs finite scores")
    order = np.argsort(scores)
    sorted_scores = scores[order]
    pos_sorted = labels.pos[order]
    distinct = sorted_scores[1:] != sorted_scores[:-1]
    if distinct.all():
        rank_sum_pos = pos_sorted @ labels.ranks
    else:
        # edges of the tie groups in sorted order: group k spans edges[k]..edges[k+1]
        edges = np.flatnonzero(np.concatenate(([True], distinct, [True])))
        group_rank = (edges[:-1] + edges[1:] + 1) / 2.0  # mean of ranks start+1 .. end
        rank_sum_pos = group_rank @ np.add.reduceat(pos_sorted, edges[:-1])
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def clamp_prob(p) -> np.ndarray:
    """Probabilities clamped to [PROB_EPS, 1 - PROB_EPS], so that the log
    of p and of 1 - p is finite."""
    return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


def weighted_log_loss(scores, w_pos, w_neg) -> float:
    """Mean binary cross-entropy of the weight pairs (w_pos, w_neg) under
    the clamped scores p: mean(-w_pos * log p - w_neg * log(1 - p))."""
    p = clamp_prob(np.asarray(scores, dtype=np.float64))
    return float(np.mean(-w_pos * np.log(p) - w_neg * np.log(1.0 - p)))


def sum_rows(blocks) -> np.ndarray:
    """Sum over axis 0 of the arrays an iterator ``blocks`` yields, stacked
    in order. Each block is reduced with the running total as its first row:
    the row-after-row order numpy uses to sum one C-ordered array over axis
    0, so the bits are those of summing the whole stack at once."""
    total = next(blocks).sum(axis=0)
    for block in blocks:
        total = np.concatenate([total[None], block]).sum(axis=0)
    return total


def log_loss(scores, labels) -> float:
    """Mean binary cross-entropy of 0/1 labels, the weight pairs (y, 1 - y)."""
    y = np.asarray(labels, dtype=np.float64)
    return weighted_log_loss(scores, y, 1.0 - y)


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


def generation_correlation_matrix(scores) -> np.ndarray:
    """Pairwise Pearson correlation of the rows of a (models x rows) score
    matrix, such as the stored test rows of a generation chain.

    Symmetric with unit diagonal; the off-diagonal structure is the
    diagnostic for how diverse a chain of generations is.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2 or len(scores) < 2:
        raise DataError("need a (models x rows) score matrix with at least two models")
    k = len(scores)
    mat = np.ones((k, k))
    for i in range(k):
        for j in range(i + 1, k):
            r = pearson(scores[i], scores[j])
            mat[i, j] = r
            mat[j, i] = r
    return mat
