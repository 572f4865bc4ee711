"""The single-sort AUC and the list-free DE mutation draw against references
that keep the original implementations: a mergesort mid-rank AUC and a DE
loop that draws the three donors from an explicit candidate list.

Both must agree bit for bit: every AUC, every drawn donor triple and so
every weight vector, best fitness and per-iteration trace, on member
predictions full of ties the way GBDT outputs are."""

import numpy as np
import pytest

import tabdistill.ensemble as ensemble
from tabdistill.ensemble import DEConfig, _auc_objective, _de_maximize, blend
from tabdistill.errors import DataError
from tabdistill.metrics import AUCLabels, roc_auc

from helpers import FixedModel, dataset_from_arrays


def _reference_midranks(values):
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    n = len(values)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    boundary[1:] = sorted_vals[1:] != sorted_vals[:-1]
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)
    group_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(n)
    ranks[order] = np.repeat(group_rank, ends - starts)
    return ranks


def _reference_roc_auc(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    rank_sum_pos = _reference_midranks(scores)[labels == 1].sum()
    return (rank_sum_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _reference_de_maximize(objective, n_dims, seeds, cfg, rng, trace=None):
    pop_size = cfg.population_size or 10 * n_dims
    pop_size = max(pop_size, len(seeds), 4)
    lo, hi = cfg.lower_bound, cfg.upper_bound
    population = rng.uniform(lo, hi, size=(pop_size, n_dims))
    for i, seed_vec in enumerate(seeds):
        population[i] = np.clip(seed_vec, lo, hi)
    fitness = np.array([objective(p) for p in population])
    for _ in range(cfg.max_iterations):
        for i in range(pop_size):
            candidates = [j for j in range(pop_size) if j != i]
            a, b, c = rng.choice(candidates, size=3, replace=False)
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
        if trace is not None:
            trace.append(float(fitness.max()))
        if fitness.max() == fitness.min():
            break
    best = int(np.argmax(fitness))
    return population[best].copy(), float(fitness[best])


def _reference_objective(member_preds, labels):
    def objective(weights):
        if weights.sum() <= 0:
            return -np.inf
        return _reference_roc_auc(blend(member_preds, weights), labels)
    return objective


def _bits(x):
    return np.asarray(x, dtype=np.float64).tobytes()


def _gbdt_like_members(m, n, seed):
    """Labels and m member prediction vectors that each take only a few
    distinct values, as a shallow boosted model's do, so blends tie often."""
    rng = np.random.default_rng(seed)
    signal = rng.standard_normal(n)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-2.0 * signal))).astype(np.int64)
    labels[:2] = (0, 1)
    preds = []
    for j in range(m):
        levels = int(rng.integers(3, 12))
        noisy = signal + rng.standard_normal(n) * (0.5 + 0.3 * j)
        edges = np.quantile(noisy, np.linspace(0, 1, levels + 1)[1:-1])
        leaf = np.sort(rng.random(levels))
        preds.append(leaf[np.searchsorted(edges, noisy)])
    return np.stack(preds), labels


@pytest.mark.parametrize("n", [2, 3, 5, 17, 100, 1200, 5000])
@pytest.mark.parametrize("ties", ["none", "heavy", "all"])
def test_roc_auc_matches_mergesort_reference(n, ties):
    rng = np.random.default_rng(n)
    for _ in range(20):
        scores = rng.random(n)
        if ties == "heavy":
            scores = np.round(scores, int(rng.integers(0, 2)))
        elif ties == "all":
            scores = np.full(n, 0.25)
        labels = rng.integers(0, 2, n)
        labels[:2] = (0, 1)
        rng.shuffle(labels)
        assert _bits(roc_auc(scores, labels)) == _bits(_reference_roc_auc(scores, labels))


def _with(rng, scores, values, share):
    """``scores`` with about ``share`` of its entries drawn from ``values``."""
    scores = scores.copy()
    picked = rng.random(len(scores)) < share
    scores[picked] = rng.choice(values, picked.sum())
    return scores


# name: (draw(rng) -> scores, whether every score is +0.0 or a positive
# double below 2.0, the scores roc_auc sorts as label-tagged integer keys)
_SCORE_FAMILIES = {
    "tied_probabilities": (lambda rng: np.round(rng.random(3000), 1), True),
    "fast_path_edges": (lambda rng: _with(
        rng, rng.random(1200), [0.0, 5e-324, np.nextafter(2.0, 0.0), 1.0], 0.5), True),
    "two_and_above": (lambda rng: _with(
        rng, rng.random(1200), [2.0, 1e300, 3.5, np.nextafter(2.0, 0.0)], 0.3), False),
    "negatives": (lambda rng: np.round(rng.standard_normal(1200), 1), False),
    "signed_zeros": (lambda rng: np.concatenate(
        ([-0.0, 0.0], rng.choice([-0.0, 0.0, 0.25, 1.0], 598))), False),
    "strided_column": (lambda rng: np.round(rng.random((2000, 3)), 2)[:, 1], True),
    "strided_general_column": (
        lambda rng: np.round(rng.standard_normal((2000, 3)), 1)[:, 2], False),
    "large": (lambda rng: _with(rng, rng.random(50_000), np.round(rng.random(50), 2), 0.5),
              True),
}


@pytest.mark.parametrize("family", sorted(_SCORE_FAMILIES))
def test_both_rank_paths_match_mergesort_reference(family):
    """The tagged integer sort (scores in [+0.0, 2.0)) and the argsort path
    (any other finite scores) against the mergesort reference bit for bit,
    with plain and with bound labels. -0.0 and 0.0 must tie."""
    draw, tagged = _SCORE_FAMILIES[family]
    rng = np.random.default_rng(sorted(_SCORE_FAMILIES).index(family))
    for _ in range(5):
        scores = draw(rng)
        # the path under test runs
        assert bool(np.all((scores < 2.0) & (scores >= 0.0) & ~np.signbit(scores))) == tagged
        labels = rng.integers(0, 2, len(scores))
        labels[:2] = (1, 0)
        expected = _bits(_reference_roc_auc(scores, labels))
        assert _bits(roc_auc(scores, labels)) == expected
        assert _bits(roc_auc(scores, AUCLabels(labels))) == expected


def test_roc_auc_matches_reference_on_blended_gbdt_like_scores():
    member_preds, labels = _gbdt_like_members(8, 3000, seed=9)
    rng = np.random.default_rng(10)
    for _ in range(50):
        scores = blend(member_preds, rng.random(8) * (rng.random(8) < 0.6))
        assert _bits(roc_auc(scores, labels)) == _bits(_reference_roc_auc(scores, labels))


def _incumbents(m):
    return [np.ones(m)] + [np.eye(m)[j] for j in range(m)]


@pytest.mark.parametrize("m", range(2, 13))
@pytest.mark.parametrize("population_size", [0, 6])
def test_de_maximize_matches_candidate_list_reference(m, population_size):
    member_preds, labels = _gbdt_like_members(m, 300, seed=m)
    cfg = DEConfig(population_size=population_size, max_iterations=6)
    for seed in (0, 1, 2):
        trace, ref_trace = [], []
        best, fit = _de_maximize(_auc_objective(member_preds, labels), m,
                                 _incumbents(m), cfg, np.random.default_rng(seed),
                                 trace)
        ref_best, ref_fit = _reference_de_maximize(
            _reference_objective(member_preds, labels), m, _incumbents(m), cfg,
            np.random.default_rng(seed), ref_trace)
        assert _bits(best) == _bits(ref_best)
        assert _bits(fit) == _bits(ref_fit)
        assert _bits(trace) == _bits(ref_trace)


@pytest.mark.parametrize("m", [5, 7, 9, 12])
@pytest.mark.parametrize("population_size", [0, 8])
@pytest.mark.parametrize("prune_epsilon", [0.0, 0.05])
def test_optimize_weights_matches_reference(monkeypatch, m, population_size,
                                            prune_epsilon):
    member_preds, labels = _gbdt_like_members(m, 400, seed=20 + m)
    valid = dataset_from_arrays({"a": np.zeros(len(labels))}, labels)
    members = [FixedModel(p) for p in member_preds]
    cfg = DEConfig(population_size=population_size, max_iterations=5,
                   prune_epsilon=prune_epsilon, seed=m)

    optimized, audit = ensemble.optimize_weights_detailed(members, valid, cfg)
    monkeypatch.setattr(ensemble, "_de_maximize", _reference_de_maximize)
    monkeypatch.setattr(ensemble, "roc_auc", _reference_roc_auc)
    ref_optimized, ref_audit = ensemble.optimize_weights_detailed(members, valid, cfg)

    assert _bits(optimized.weights) == _bits(ref_optimized.weights)
    assert audit == ref_audit
    assert _bits(audit["validation_auc"]) == _bits(ref_audit["validation_auc"])
    if prune_epsilon:
        # the pruned reruns must be exercised, or this case tests nothing new
        assert audit["prune_rounds"] > 0


def _continuous_members(m, n, seed):
    """Labels and m member prediction vectors of distinct continuous values,
    so that blends do not tie and roc_auc takes its untied path."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    labels[:2] = (0, 1)
    return rng.random((m, n)) * 0.5 + 0.5 * labels, labels


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("n", [2, 3, 40, 1200])
def test_auc_paths_match_mergesort_reference(ties, n):
    """Both rank-sum paths of roc_auc, through roc_auc and through the
    label-bound DE objective, against the mergesort reference bit for bit."""
    make = _gbdt_like_members if ties else _continuous_members
    member_preds, labels = make(4, n, seed=n)
    if ties:  # a few levels per member, and always one repeated score
        member_preds[:, 1] = member_preds[:, 0]
    objective = _auc_objective(member_preds, labels)
    rng = np.random.default_rng(n + 1)
    for _ in range(25):
        weights = rng.random(4) + 0.01
        scores = blend(member_preds, weights)
        assert (len(np.unique(scores)) < n) == ties  # the path under test runs
        expected = _bits(_reference_roc_auc(scores, labels))
        assert _bits(roc_auc(scores, labels)) == expected
        assert _bits(roc_auc(scores, AUCLabels(labels))) == expected
        assert _bits(objective(weights)) == expected


def test_bound_labels_stand_in_for_the_label_array():
    labels = np.array([0, 1, 1, 0, 1])
    bound = AUCLabels(labels)
    assert np.asarray(bound) is bound.labels
    assert np.array_equal(np.asarray(bound, dtype=np.float64), labels.astype(np.float64))
    assert np.array(bound) is not bound.labels
    with pytest.raises(DataError, match="equal length"):
        roc_auc(np.ones(4), bound)
    with pytest.raises(DataError, match="both classes"):
        AUCLabels(np.ones(5))


@pytest.mark.parametrize("make", [_gbdt_like_members, _continuous_members])
@pytest.mark.parametrize("m", [5, 7, 9, 12])
@pytest.mark.parametrize("population_size", [0, 8])
@pytest.mark.parametrize("prune_epsilon", [0.0, 0.05])
def test_optimize_weights_matches_reference_objective(monkeypatch, make, m,
                                                      population_size, prune_epsilon):
    """The whole weight search against the reference DE loop, objective
    and AUC, on tied (GBDT-like) and untied (MLP-like) members."""
    member_preds, labels = make(m, 400, seed=20 + m)
    valid = dataset_from_arrays({"a": np.zeros(len(labels))}, labels)
    members = [FixedModel(p) for p in member_preds]
    cfg = DEConfig(population_size=population_size, max_iterations=5,
                   prune_epsilon=prune_epsilon, seed=m)

    optimized, audit = ensemble.optimize_weights_detailed(members, valid, cfg)
    monkeypatch.setattr(ensemble, "_de_maximize", _reference_de_maximize)
    monkeypatch.setattr(ensemble, "_auc_objective", _reference_objective)
    monkeypatch.setattr(ensemble, "roc_auc", _reference_roc_auc)
    ref_optimized, ref_audit = ensemble.optimize_weights_detailed(members, valid, cfg)

    assert _bits(optimized.weights) == _bits(ref_optimized.weights)
    assert audit == ref_audit
    assert _bits(audit["validation_auc"]) == _bits(ref_audit["validation_auc"])
