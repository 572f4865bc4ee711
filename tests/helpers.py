"""Shared test fixtures: synthetic dataset builders and independent
oracles (pair-counting AUC, scalar loss evaluation) kept deliberately
separate from the implementations they check."""

from __future__ import annotations

import numpy as np

from tabdistill.tabular import Column, Dataset, Schema, write_csv


def dataset_from_arrays(features: dict[str, np.ndarray], labels,
                        label_column: str = "label") -> Dataset:
    """Build a float-featured Dataset directly from arrays."""
    cols = []
    arrays = []
    for name, arr in features.items():
        arr = np.asarray(arr)
        if arr.dtype == bool:
            cols.append(Column(name, "bool"))
        elif np.issubdtype(arr.dtype, np.integer):
            cols.append(Column(name, "int"))
        else:
            cols.append(Column(name, "float"))
            arr = arr.astype(np.float64)
        arrays.append(arr)
    cols.append(Column(label_column, "int"))
    labels = np.asarray(labels, dtype=np.int64)
    return Dataset(Schema(tuple(cols), label_column), tuple(arrays), labels,
                   np.arange(len(labels), dtype=np.int64))


def separable_dataset(n: int, seed: int, d: int = 2, margin: float = 0.0) -> Dataset:
    """Deterministic labels 1{sum of features > 0}; rows too close to the
    boundary are resampled when a margin is requested."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    if margin > 0:
        score = x.sum(axis=1)
        bad = np.abs(score) < margin
        while bad.any():
            x[bad] = rng.standard_normal((bad.sum(), d))
            score = x.sum(axis=1)
            bad = np.abs(score) < margin
    labels = (x.sum(axis=1) > 0).astype(np.int64)
    features = {f"f{j + 1}": x[:, j] for j in range(d)}
    return dataset_from_arrays(features, labels)


def flipped_label_dataset(n: int, seed: int, flip_fraction: float = 0.2,
                          d: int = 4, margin: float = 1.0,
                          ) -> tuple[Dataset, np.ndarray]:
    """Wide-margin deterministic labels with a fraction flipped uniformly at
    random; returns the dataset and the flipped row positions."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal(d)
    w /= np.sqrt((w * w).sum())
    score = x @ w
    bad = np.abs(score) < margin
    while bad.any():
        x[bad] = rng.standard_normal((int(bad.sum()), d))
        score = x @ w
        bad = np.abs(score) < margin
    labels = (score > 0).astype(np.int64)
    n_flip = int(round(n * flip_fraction))
    flip_idx = rng.choice(n, size=n_flip, replace=False)
    labels[flip_idx] = 1 - labels[flip_idx]
    features = {f"f{j + 1}": x[:, j] for j in range(d)}
    return dataset_from_arrays(features, labels), flip_idx


def noisy_nonlinear_dataset(n: int, seed: int, d_signal: int = 4,
                            d_noise: int = 4, scale: float = 1.5) -> Dataset:
    """Bernoulli labels from a smooth nonlinear logit plus nuisance
    features; moderate SNR so single models leave headroom for ensembles."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d_signal + d_noise))
    s = x[:, :d_signal]
    logit = scale * (s[:, 0] + s[:, 1] * s[:, 2] - 0.5 * s[:, 3] ** 2 + 0.5)
    prob = 1.0 / (1.0 + np.exp(-logit))
    labels = (rng.random(n) < prob).astype(np.int64)
    features = {f"f{j + 1}": x[:, j] for j in range(d_signal + d_noise)}
    return dataset_from_arrays(features, labels)


def mixed_type_dataset(n: int, seed: int, levels: int = 12, codes=None) -> Dataset:
    """bool, categorical, int, float and categorical feature columns, in
    that order; ``shop`` has ``levels`` categories, ``colour`` three."""
    rng = np.random.default_rng(seed)
    cats = tuple(f"c{i:03d}" for i in range(levels))
    if codes is None:
        codes = np.minimum(rng.geometric(0.08, n) - 1, levels - 1)
    colour = rng.integers(0, 3, n)
    x = rng.standard_normal(n)
    logit = x + 0.3 * (codes % 5) - 0.5 * colour
    labels = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(np.int64)
    schema = Schema((Column("flag", "bool"), Column("shop", "categorical", cats),
                     Column("count", "int"), Column("x", "float"),
                     Column("colour", "categorical", ("red", "green", "blue")),
                     Column("label", "int")), "label")
    arrays = (rng.random(n) < 0.4, np.asarray(codes, dtype=np.int64),
              rng.integers(-50, 50, n).astype(np.int64), x, colour.astype(np.int64))
    return Dataset(schema, arrays, labels, np.arange(n, dtype=np.int64))


class FixedModel:
    """A stand-in model whose predict returns the same scores for any rows."""

    def __init__(self, preds):
        self._preds = np.asarray(preds, dtype=np.float64)

    def predict(self, rows):
        return self._preds


def pair_counting_auc(scores, labels) -> float:
    """O(P*N) oracle: wins + half-ties over all positive-negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0
    ties = 0
    for p in pos:
        wins += int((p > neg).sum())
        ties += int((p == neg).sum())
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def write_dataset_csv(ds: Dataset, path) -> None:
    write_csv(ds, path)


def first_leaf(tree: dict) -> dict:
    """The leftmost leaf body of a nested GBDT tree document."""
    while "split" in tree:
        tree = tree["split"]["left"]
    return tree["leaf"]
