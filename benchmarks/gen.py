"""Seeded synthetic inputs for the benchmark workloads.

The program under test only ever sees the CSV files written here; the same
seed always writes the same bytes. ``run.py --seed`` picks the seed.
"""

from __future__ import annotations

import csv

import numpy as np

LABEL = "label"


def numeric_nonlinear(n: int, seed: int) -> tuple[dict, np.ndarray]:
    """8 float features with Bernoulli labels drawn from a smooth nonlinear
    logit of the first 4 columns; the other 4 are pure noise."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 8))
    logit = 1.5 * (x[:, 0] + x[:, 1] * x[:, 2] - 0.5 * x[:, 3] ** 2 + 0.5)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    return {f"f{j + 1}": x[:, j] for j in range(x.shape[1])}, labels


# level names are strings, so ingestion infers both columns as categorical
CITY_LEVELS = tuple(f"city_{i:02d}" for i in range(40))
CHANNEL_LEVELS = tuple(f"ch_{c}" for c in "abcdefghijkl")


def mixed_types(n: int, seed: int) -> tuple[dict, np.ndarray]:
    """6 float, 1 int, 1 bool and 2 string-categorical columns (40 and 12
    levels). Every column carries some signal. Level effects are fixed, so
    files written with different seeds share one labelling rule."""
    effects = np.random.default_rng(0)
    city_effect = effects.normal(0.0, 0.8, len(CITY_LEVELS))
    channel_effect = effects.normal(0.0, 0.6, len(CHANNEL_LEVELS))

    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6))
    visits = rng.integers(0, 100, n)
    member = rng.random(n) < 0.3
    city = rng.integers(0, len(CITY_LEVELS), n)
    channel = rng.integers(0, len(CHANNEL_LEVELS), n)
    logit = (x[:, 0] + x[:, 1] * x[:, 2] - 0.5 * x[:, 3] ** 2 + 0.3 * x[:, 4]
             + 0.01 * (visits - 50) + 0.5 * member
             + city_effect[city] + channel_effect[channel])
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * logit))).astype(np.int64)
    features = {f"x{j + 1}": x[:, j] for j in range(6)}
    features["visits"] = visits
    features["member"] = member
    features["city"] = np.array(CITY_LEVELS)[city]
    features["channel"] = np.array(CHANNEL_LEVELS)[channel]
    return features, labels


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # round-trips exactly, always has '.' or 'e'
    return str(v)


def write_csv(features: dict, labels: np.ndarray, path) -> None:
    names = list(features)
    columns = [features[name].tolist() for name in names]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + [LABEL])
        for i, y in enumerate(labels.tolist()):
            writer.writerow([_cell(col[i]) for col in columns] + [y])

