"""Prediction-averaging ensembles with Differential-Evolution weight
optimization against validation AUC, plus small-weight pruning.

The optimizer is plain DE/rand/1/bin over the weight box. The initial
population is seeded with the uniform vector and every one-hot vector, and
selection never discards an incumbent for a tie, so the final validation
objective can never fall below any single member or the plain average.
Weights whose share of the total falls under ``prune_epsilon`` are rounded
down to zero and the search reruns on the survivors; a round that would
leave no survivor is not run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from tabdistill.errors import (
    UNREADABLE_JSON,
    DataError,
    SerializationError,
    require_integer,
    require_number,
)
from tabdistill.learners import load_model, score_models
from tabdistill.metrics import AUCLabels, roc_auc
from tabdistill.tabular import Dataset

ENSEMBLE_FORMAT = "tabdistill.ensemble/v1"


@dataclass(frozen=True)
class DEConfig:
    population_size: int = 0  # 0: use 10 * number of members
    mutation_factor: float = 0.5
    crossover_rate: float = 0.9
    max_iterations: int = 200
    lower_bound: float = 0.0
    upper_bound: float = 1.0
    prune_epsilon: float = 0.01
    seed: int = 0

    def __post_init__(self):
        for name in ("population_size", "max_iterations", "seed"):
            # stored as int, so a config built from numpy integers serializes
            object.__setattr__(self, name, require_integer(getattr(self, name), name))
        if self.population_size and self.population_size < 4:
            raise DataError("population must have at least 4 members")
        require_number(self.mutation_factor, "mutation factor", 0, 2, "(]")
        require_number(self.crossover_rate, "crossover rate", 0, 1)
        require_number(self.prune_epsilon, "prune_epsilon", 0)
        require_number(self.lower_bound, "bounds")
        require_number(self.upper_bound, "bounds")
        if not (self.lower_bound < self.upper_bound):
            raise DataError("bounds must satisfy lower < upper")


class EnsembleModel:
    """Member models blended by a normalized weighted mean of predictions;
    ``score_models`` encodes a Dataset once per distinct live member
    encoder. A member of weight 0 is never scored."""

    def __init__(self, members: Sequence, weights: Sequence[float]):
        if len(members) == 0:
            raise DataError("ensemble needs at least one member")
        if len(members) != len(weights):
            raise DataError("one weight per member required")
        w = np.asarray(weights, dtype=np.float64)
        if not np.isfinite(w).all():
            raise DataError("weights must be finite")
        if (w < 0).any():
            raise DataError("weights must be nonnegative")
        if w.sum() <= 0:
            raise DataError("weights must not all be zero")
        self.members = list(members)
        self.weights = w

    def live(self) -> np.ndarray:
        """Positions of the members with a nonzero weight, read from
        ``weights`` at each call."""
        return np.flatnonzero(self.weights)

    def predict(self, rows) -> np.ndarray:
        """``blend`` of every member's scores, scoring only the live members.
        A dead member's row is left at 0.0: its product with a zero weight
        is the same signed zero as that of any finite score in [0, 1], and
        ``blend`` still totals every weight, so the bits are those of
        scoring all members."""
        live = self.live()
        scores = score_models([self.members[j] for j in live], rows)
        member_preds = np.zeros((len(self.members), scores.shape[1]))
        member_preds[live] = scores
        return blend(member_preds, self.weights)

    def to_json_dict(self, member_files: Sequence[str]) -> dict:
        if len(member_files) != len(self.members):
            raise DataError("one file reference per member required")
        return {
            "format": ENSEMBLE_FORMAT,
            "members": list(member_files),
            "weights": self.weights.tolist(),
        }


def blend(member_preds: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Normalized weighted mean over axis 0; invariant to weight scaling."""
    w = np.asarray(weights, dtype=np.float64)
    total = w.sum()
    if total <= 0:
        raise DataError("weights must not all be zero")
    return (w[:, None] * member_preds).sum(axis=0) / total


def _de_maximize(objective: Callable[[np.ndarray], float], n_dims: int,
                 seeds: list[np.ndarray], cfg: DEConfig,
                 rng: np.random.Generator,
                 trace: Optional[list] = None) -> tuple[np.ndarray, float]:
    """DE/rand/1/bin maximization over the weight box; the supplied seed
    vectors become the first population members. Ties keep the incumbent.
    When given, ``trace`` collects the best fitness after each iteration."""
    pop_size = cfg.population_size or 10 * n_dims
    pop_size = max(pop_size, len(seeds), 4)
    lo, hi = cfg.lower_bound, cfg.upper_bound

    population = rng.uniform(lo, hi, size=(pop_size, n_dims))
    for i, seed_vec in enumerate(seeds):
        population[i] = np.clip(seed_vec, lo, hi)
    fitness = [objective(p) for p in population]

    for _ in range(cfg.max_iterations):
        for i in range(pop_size):
            # three distinct members other than i: draw from pop_size - 1
            # slots and step over i
            a, b, c = [x + (x >= i)
                       for x in rng.choice(pop_size - 1, size=3, replace=False).tolist()]
            mutant = np.clip(
                population[a] + cfg.mutation_factor * (population[b] - population[c]),
                lo, hi)
            cross = rng.random(n_dims) < cfg.crossover_rate
            cross[rng.integers(n_dims)] = True
            trial = np.where(cross, mutant, population[i])
            trial_fit = objective(trial)
            if trial_fit > fitness[i]:
                population[i] = trial
                fitness[i] = trial_fit
        best_fit = max(fitness)
        if trace is not None:
            trace.append(float(best_fit))
        if best_fit == min(fitness):
            break
    best = int(np.argmax(fitness))
    return population[best].copy(), float(fitness[best])


def _auc_objective(member_preds: np.ndarray, labels: np.ndarray) -> Callable:
    """Validation AUC of a weight vector's blend; labels checked once. Each
    call does ``blend``'s float operations, but into one (members x rows)
    product buffer allocated here, so a search allocates it once."""
    labels = AUCLabels(labels)
    products = np.empty_like(member_preds, dtype=np.float64)

    def objective(weights: np.ndarray) -> float:
        total = weights.sum()
        if total <= 0:
            return -np.inf
        np.multiply(weights[:, None], member_preds, out=products)
        scores = np.add.reduce(products, axis=0)
        scores /= total
        return roc_auc(scores, labels)
    return objective


def optimize_weights_detailed(members: Sequence, valid: Dataset, cfg: Optional[DEConfig],
                              ) -> tuple[EnsembleModel, dict]:
    """Search nonnegative member weights maximizing validation AUC.

    Returns an ensemble whose validation objective is at least that of
    every single member and of the uniform average; shares below
    prune_epsilon are rounded down to zero with re-optimization over the
    survivors. Also returns an audit dict with the pre-pruning weights and
    the objective bookkeeping. A ``cfg`` of None, or a single member, skips
    the search and weights every member 1, with the same audit."""
    labels = valid.labels
    if len(np.unique(labels)) < 2:
        raise DataError("validation set must contain both classes")
    member_preds = score_models(members, valid)
    m = len(members)
    objective = _auc_objective(member_preds, labels)
    uniform = np.ones(m)
    uniform_fit = float(objective(uniform))
    audit = {"pre_prune_weights": uniform.tolist(), "final_weights": uniform.tolist(),
             "prune_rounds": 0, "validation_auc": uniform_fit, "uniform_auc": uniform_fit,
             "member_aucs": [float(roc_auc(p, labels)) for p in member_preds]}
    if cfg is None or m == 1:
        return EnsembleModel(members, uniform), audit

    rng = np.random.default_rng(cfg.seed)
    one_hots = np.eye(m)

    def incumbent_seeds(active: np.ndarray) -> list[np.ndarray]:
        # uniform over active members, then each active member alone
        return [np.where(active, 1.0, 0.0), *one_hots[active]]

    def run(active: np.ndarray, extra_seeds: list[np.ndarray]) -> tuple[np.ndarray, float]:
        # inactive members are frozen at weight zero by searching only the
        # active coordinates
        idx = np.flatnonzero(active)
        seeds = [s[idx] for s in incumbent_seeds(active) + extra_seeds]
        sub_preds = member_preds[idx]
        sub_objective = _auc_objective(sub_preds, labels)
        best_sub, best_fit = _de_maximize(sub_objective, len(idx), seeds, cfg, rng)
        full = np.zeros(m)
        full[idx] = best_sub
        return full, best_fit

    active = np.ones(m, dtype=bool)
    best_w, best_fit = run(active, [])
    pre_prune = best_w.copy()
    prune_rounds = 0
    while active.sum() > 1:
        share = best_w / best_w.sum()
        tiny = (share < cfg.prune_epsilon) & active
        # a round that would drop every active member keeps the current weights
        if not tiny.any() or (tiny == active).all():
            break
        active = active & ~tiny
        prune_rounds += 1
        best_w, best_fit = run(active, [np.where(active, best_w, 0.0)])

    # the guarantee incumbents are prune-clean by construction; never return
    # anything below them. A one-hot blend is its member's scores exactly
    # (adding 0.0 and dividing by 1.0 are exact), so its fitness is the
    # member's AUC. max keeps the first of equal fitnesses
    final_candidates = [(best_w, best_fit), (uniform, uniform_fit),
                        *zip(one_hots, audit["member_aucs"])]
    winner_w, winner_fit = max(final_candidates, key=lambda c: c[1])

    audit.update(pre_prune_weights=pre_prune.tolist(), final_weights=winner_w.tolist(),
                 prune_rounds=prune_rounds, validation_auc=winner_fit)
    return EnsembleModel(members, winner_w), audit


def combine_families(families: Sequence[Sequence], valid: Dataset,
                     cfg: DEConfig) -> tuple[EnsembleModel, dict]:
    """Concatenate model families (each possibly heterogeneous, some
    possibly empty) and optimize weights over the union; the audit records
    each family's size and which members keep nonzero weight."""
    members = [m for family in families for m in family]
    if not members:
        raise DataError("no members to combine")
    optimized, audit = optimize_weights_detailed(members, valid, cfg)
    audit["family_sizes"] = [len(f) for f in families]
    audit["surviving_members"] = [int(j) for j in optimized.live()]
    return optimized, audit


def save_ensemble(ens: EnsembleModel, member_files: Sequence[str], path: str | Path) -> None:
    Path(path).write_text(json.dumps(ens.to_json_dict(member_files), indent=2,
                                     sort_keys=True), encoding="utf-8")


def load_ensemble(path: str | Path) -> EnsembleModel:
    """Read a document written by ``save_ensemble`` and load its members,
    resolving relative member paths against the document's directory. A
    document that is not a well-formed ensemble raises SerializationError."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UNREADABLE_JSON as exc:
        raise SerializationError(f"{path}: unreadable ensemble document: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != ENSEMBLE_FORMAT:
        found = doc.get("format") if isinstance(doc, dict) else type(doc).__name__
        raise SerializationError(f"{path}: unknown ensemble format {found!r}")
    files, weights = doc.get("members"), doc.get("weights")
    if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
        raise SerializationError(f"{path}: 'members' must be a list of model file names")
    if not (isinstance(weights, list) and len(weights) == len(files)):
        raise SerializationError(
            f"{path}: 'weights' must be one finite number per member ({len(files)})")
    try:
        for w in weights:
            require_number(w, "ensemble weight")
    except DataError as exc:
        raise SerializationError(f"{path}: {exc}") from None
    return EnsembleModel([load_model(path.parent / f) for f in files], weights)
