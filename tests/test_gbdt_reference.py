"""The presorted GBDT split search against a reference that re-sorts every
feature at every node, the way the original implementation did.

Both must build bit-identical trees: the same features, thresholds, child
links and leaf values, round after round, on data full of ties."""

import numpy as np
import pytest

from tabdistill.learners import LearnerSpec, TrainingTarget, train
from tabdistill.learners.base import resolve_weight_pairs
from tabdistill.learners.gbdt import _sigmoid
from tabdistill.tabular import Column, Dataset, FeatureEncoder, Schema


def _reference_split(x, grad, hess, rows, l2, mcw):
    g_total = grad[rows].sum()
    h_total = hess[rows].sum()
    parent = g_total * g_total / (h_total + l2)
    best_gain, best = 0.0, None
    for f in range(x.shape[1]):
        vals = x[rows, f]
        order = np.argsort(vals, kind="mergesort")
        sv = vals[order]
        cg = np.cumsum(grad[rows][order])
        ch = np.cumsum(hess[rows][order])
        cut = np.flatnonzero(sv[:-1] < sv[1:])
        if len(cut) == 0:
            continue
        gl, hl = cg[cut], ch[cut]
        gr, hr = g_total - gl, h_total - hl
        gains = 0.5 * (gl * gl / (hl + l2) + gr * gr / (hr + l2) - parent)
        gains[(hl < mcw) | (hr < mcw)] = -np.inf
        j = int(np.argmax(gains))
        if gains[j] > best_gain:
            best_gain, best = float(gains[j]), (f, float(sv[cut[j] + 1]))
    return best


def _reference_tree(x, grad, hess, max_depth, l2, mcw):
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        for arr, fill in ((feature, -1), (threshold, 0.0), (left, -1),
                          (right, -1), (value, 0.0)):
            arr.append(fill)
        return len(feature) - 1

    stack = [(new_node(), np.arange(len(grad)), 0)]
    while stack:
        node, rows, depth = stack.pop()
        split = None
        if depth < max_depth and len(rows) >= 2:
            split = _reference_split(x, grad, hess, rows, l2, mcw)
        if split is None:
            value[node] = float(-grad[rows].sum() / (hess[rows].sum() + l2))
            continue
        f, thr = split
        go_left = x[rows, f] < thr
        feature[node], threshold[node] = f, thr
        left[node], right[node] = new_node(), new_node()
        stack.append((right[node], rows[~go_left], depth + 1))
        stack.append((left[node], rows[go_left], depth + 1))
    return (np.array(feature), np.array(threshold), np.array(left),
            np.array(right), np.array(value))


def _reference_predict(tree, x):
    feature, threshold, left, right, value = tree
    idx = np.zeros(len(x), dtype=np.int64)
    while (active := feature[idx] >= 0).any():
        rows = np.flatnonzero(active)
        node = idx[rows]
        go_left = x[rows, feature[node]] < threshold[node]
        idx[rows] = np.where(go_left, left[node], right[node])
    return value[idx]


def _reference_train(spec, ds, target):
    x = FeatureEncoder.fit(ds).transform(ds)
    w_pos, w_neg = resolve_weight_pairs(target, ds.labels)
    w_sum = w_pos + w_neg
    score = np.zeros(len(x))
    trees = []
    for _ in range(int(spec["rounds"])):
        p = _sigmoid(score)
        tree = _reference_tree(x, w_sum * p - w_pos, w_sum * p * (1.0 - p),
                               int(spec["max_depth"]), spec["l2_leaf_penalty"],
                               spec["min_child_weight"])
        trees.append(tree)
        score += spec["learning_rate"] * _reference_predict(tree, x)
    return trees


def _tied_dataset(n, seed):
    """Integer-valued, one-hot categorical, constant and continuous columns.

    The two-level ``side`` encodes as two complementary one-hot columns whose
    splits tie in exact arithmetic, so which one wins rests on the last bits
    of each gain."""
    rng = np.random.default_rng(seed)
    small_int = rng.integers(0, 4, n)
    wide_int = rng.integers(-20, 20, n)
    colour = rng.integers(0, 5, n)
    side = rng.integers(0, 2, n)
    flag = rng.random(n) < 0.3
    const = np.full(n, 7.0)
    cont = np.round(rng.standard_normal(n), 1)
    logit = (0.8 * small_int - 0.05 * wide_int + (colour == 2) - 1.5 * flag
             + 1.2 * side + cont)
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    schema = Schema((Column("small", "int"), Column("wide", "int"),
                     Column("colour", "categorical", tuple("abcde")),
                     Column("side", "categorical", ("l", "r")),
                     Column("flag", "bool"), Column("const", "float"),
                     Column("cont", "float"), Column("label", "int")), "label")
    return Dataset(schema, (small_int, wide_int, colour, side, flag, const, cont),
                   labels, np.arange(n, dtype=np.int64))


def _assert_same_trees(model, reference):
    assert len(model.trees) == len(reference)
    for tree, ref in zip(model.trees, reference):
        for name, expected in zip(("feature", "threshold", "left", "right", "value"), ref):
            np.testing.assert_array_equal(getattr(tree, name), expected, err_msg=name)


@pytest.mark.parametrize("params", [
    {"rounds": 6, "max_depth": 6},
    {"rounds": 4, "max_depth": 1},
    {"rounds": 5, "max_depth": 5, "min_child_weight": 12.0},
    {"rounds": 5, "max_depth": 4, "l2_leaf_penalty": 1e-300,
     "min_child_weight": 1e-300},
])
def test_hard_labels_match_reference(params):
    ds = _tied_dataset(700, seed=1)
    spec = LearnerSpec("gbdt", params)
    target = TrainingTarget.hard()
    _assert_same_trees(train(spec, ds, target), _reference_train(spec, ds, target))


@pytest.mark.parametrize("log_scale, params", [
    # hessian sums far below the leaf penalty: hl + l2 rounds hl's low bits
    # away, so only hr computed from hl itself keeps the reference's gains
    ((-3, -1), {"rounds": 5, "max_depth": 6, "min_child_weight": 1e-6}),
    ((-9, 0), {"rounds": 5, "max_depth": 6, "l2_leaf_penalty": 1e-6,
               "min_child_weight": 1e-6}),
    ((-9, 0), {"rounds": 5, "max_depth": 6, "min_child_weight": 0.05}),
])
def test_tiny_row_weights_match_reference(log_scale, params):
    ds = _tied_dataset(600, seed=2)
    rng = np.random.default_rng(3)
    scale = 10.0 ** rng.uniform(*log_scale, ds.n_rows)
    soft = rng.random(ds.n_rows)
    target = TrainingTarget.weighted(scale * soft, scale * (1.0 - soft))
    spec = LearnerSpec("gbdt", params)
    _assert_same_trees(train(spec, ds, target), _reference_train(spec, ds, target))


def test_min_child_weight_blocks_some_splits():
    ds = _tied_dataset(300, seed=4)
    spec = LearnerSpec("gbdt", {"rounds": 3, "max_depth": 6, "min_child_weight": 20.0})
    reference = _reference_train(spec, ds, TrainingTarget.hard())
    # the weight floor must stop growth before max_depth somewhere, or this
    # case would not exercise the blocked-split path
    assert len(reference[0][0]) < 2 ** 7 - 1
    _assert_same_trees(train(spec, ds, TrainingTarget.hard()), reference)


def test_fixed_depth_descent_matches_reference_predict():
    ds = _tied_dataset(500, seed=5)
    probe = FeatureEncoder.fit(ds).transform(_tied_dataset(400, seed=6))
    model = train(LearnerSpec("gbdt", {"rounds": 4, "max_depth": 5}), ds,
                  TrainingTarget.hard())
    for tree in model.trees:
        ref = (tree.feature, tree.threshold, tree.left, tree.right, tree.value)
        np.testing.assert_array_equal(tree.predict_value(probe),
                                      _reference_predict(ref, probe))
