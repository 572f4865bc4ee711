"""The presorted GBDT split search against a reference that re-sorts every
feature at every node, the way the original implementation did.

Both must build bit-identical trees: the same features, thresholds, child
links and leaf values, round after round, on data full of ties. The search
is also checked node by node against a masked 2-D search that takes each
feature's best cut first and then the best feature."""

import tracemalloc

import numpy as np
import pytest

from tabdistill.learners import LearnerSpec, TrainingTarget, train
from tabdistill.learners import resolve_weight_pairs
from tabdistill.learners.gbdt import _TWO_VALUED_BLOCK, _Columns, _sigmoid, _TreeBuilder
from tabdistill.tabular import Column, Dataset, FeatureEncoder, Schema

from helpers import noisy_nonlinear_dataset


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
    return Dataset(schema, (small_int, wide_int, colour, side, flag, const, cont), labels)


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


def _reference_masked_split(xt, grad, hess, rows, block, l2, mcw):
    """The masked 2-D search: a gain at every sorted position of every
    feature, ties and blocked cuts set to -inf, then a per-feature max."""
    g_total = grad[rows].sum()
    h_total = hess[rows].sum()
    parent = g_total * g_total / (h_total + l2)
    sv = xt[np.arange(len(xt))[:, None], block]
    blocked = sv[:, :-1] == sv[:, 1:]
    gl = grad[block]
    np.cumsum(gl, axis=1, out=gl)
    gl = gl[:, :-1]
    hl = hess[block]
    np.cumsum(hl, axis=1, out=hl)
    hl = hl[:, :-1]
    blocked |= hl < mcw
    hr = h_total - hl
    blocked |= hr < mcw
    right = g_total - gl
    right *= right
    hr += l2
    right /= hr
    hl += l2
    gl *= gl
    gl /= hl
    gl += right
    gl -= parent
    gl *= 0.5
    gains = gl
    gains[blocked] = -np.inf
    best = gains.max(axis=1)
    best[~(best > 0.0)] = 0.0
    f = int(np.argmax(best))
    if best[f] == 0.0:
        return None
    cut = int(np.argmax(gains[f]))
    return f, float(xt[f, block[f, cut + 1]])


def _both_splits(xt, grad, hess, l2=1.0, mcw=1.0, rows=None):
    """(candidate-cut split, masked reference split) of one node; ``rows``
    picks the node's rows, whose sub-block keeps the presorted order."""
    xt = np.asarray(xt, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    hess = np.asarray(hess, dtype=np.float64)
    order = np.argsort(xt, axis=1, kind="stable")
    rows = np.arange(xt.shape[1]) if rows is None else np.asarray(rows)
    in_node = np.zeros(xt.shape[1], dtype=bool)
    in_node[rows] = True
    block = order[in_node[order]].reshape(len(xt), len(rows))
    columns = _Columns(xt.T)
    sub_block = columns.order[in_node[columns.order]].reshape(len(columns.order), len(rows))
    builder = _TreeBuilder(columns, grad, hess, 1, l2, mcw)
    with np.errstate(all="ignore"):
        got = builder._best_split(rows, sub_block, *builder._sums(rows))
        ref = _reference_masked_split(xt, grad, hess, rows, block, l2, mcw)
    if got is None:
        return None, ref
    f, thr, go_left = got
    # the split routes the node's rows as the rule x < threshold does
    np.testing.assert_array_equal(go_left, xt[f, rows] < thr)
    return (f, thr), ref


def test_tied_and_binary_columns():
    rng = np.random.default_rng(7)
    n = 40
    binary = rng.integers(0, 2, n)
    xt = [np.full(n, 3.0), binary, 1 - binary, rng.integers(0, 3, n), np.full(n, -1.0)]
    grad = rng.standard_normal(n)
    hess = rng.uniform(0.1, 1.0, n)
    got, ref = _both_splits(xt, grad, hess, mcw=0.5)
    assert ref is not None and got == ref


def test_equal_gains_pick_lowest_feature_then_lowest_cut():
    # rows with zero gradient and hessian leave every cut between them with
    # the same gain, and the two columns are identical, so both rules matter
    x = [0.0, 1.0, 2.0, 3.0, 4.0]
    grad = [-2.0, 0.0, 0.0, 2.0, 2.0]
    hess = [1.0, 0.0, 0.0, 1.0, 1.0]
    got, ref = _both_splits([np.full(5, 9.0), x, x], grad, hess, mcw=0.0)
    assert ref == (1, 1.0)
    assert got == ref


def test_node_without_candidate_cut_is_a_leaf():
    xt = [[1.0, 1.0, 2.0, 2.0, 1.0], [0.0, 0.0, 5.0, 0.0, 0.0]]
    grad = [1.0, -1.0, 3.0, 2.0, -4.0]
    hess = np.full(5, 0.5)
    got, ref = _both_splits(xt, grad, hess, mcw=0.0)
    assert ref is not None and got == ref
    # the node of rows 0, 1 and 4 has a single value in every column
    assert _both_splits(xt, grad, hess, mcw=0.0, rows=[0, 1, 4]) == (None, None)
    assert _both_splits([np.full(5, 1.0)], grad, hess, mcw=0.0) == (None, None)


def test_min_child_weight_blocks_every_cut_of_one_feature():
    # feature 0 isolates the one row with a large gradient, but that row's
    # hessian is below the floor, so only feature 1 may split
    n = 12
    isolate = np.zeros(n)
    isolate[5] = 1.0
    other = np.arange(n) % 2
    grad = np.where(np.arange(n) == 5, 10.0, np.where(other, 0.4, -0.4))
    hess = np.where(np.arange(n) == 5, 0.1, 1.0)
    got, ref = _both_splits([isolate, other], grad, hess, mcw=1.0)
    assert ref == (1, 1.0)
    assert got == ref
    got_free, ref_free = _both_splits([isolate, other], grad, hess, mcw=0.05)
    assert ref_free == (0, 1.0) and got_free == ref_free


@pytest.mark.parametrize("mcw", [1.0, 0.1, 3e-300])
@pytest.mark.parametrize("step, splits", [(0, True), (1, True), (-1, False)])
def test_node_hessian_total_at_twice_the_weight_floor(mcw, step, splits):
    # the node's hessian total is 2 * mcw, or one ulp above or below it. The
    # one cut that can pass the floor leaves exactly mcw on the left, so it
    # is allowed at 2 * mcw and above; below, the node is a leaf without a
    # search. The two-valued column cuts the same rows and ties.
    total = float(np.nextafter(2.0 * mcw, step * np.inf)) if step else 2.0 * mcw
    hess = np.array([mcw, total - mcw, 0.0])
    assert hess.sum() == total and hess[0] + hess[1] == total
    xt = [[0.0, 1.0, 2.0], [0.0, 1.0, 1.0]]
    got, ref = _both_splits(xt, [-1.0, 1.0, 1.0], hess, l2=1.0, mcw=mcw)
    assert got == ref
    assert (ref == (0, 1.0)) if splits else ref is None


@pytest.mark.parametrize("mcw, splits", [(0.0, False), (-2.0, True)])
def test_negative_node_hessian_total(mcw, splits):
    # a negative total is below any nonnegative floor; a negative floor
    # still lets the node search
    hess = [-1.0, -0.5, 0.2]
    assert sum(hess) < 0.0
    got, ref = _both_splits([[0.0, 1.0, 2.0]], [-1.0, 1.0, 1.0], hess, l2=5.0, mcw=mcw)
    assert got == ref
    assert (ref is not None) == splits


@pytest.mark.parametrize("nan_feature", [0, 1])
def test_nan_gain_excludes_its_feature(nan_feature):
    # in the NaN column the first sorted row has gradient 0 and hessian
    # -l2, so its first cut computes 0/0; every other cut of that column
    # has a larger gain than the other column's best
    n = 8
    grad = np.array([0.0, -3.0, -3.0, -3.0, 3.0, 3.0, 3.0, 0.5])
    hess = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    strong = np.arange(n, dtype=np.float64)
    weak = np.array([0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    xt = [strong, weak] if nan_feature == 0 else [weak, strong]
    got, ref = _both_splits(xt, grad, hess, l2=1.0, mcw=-10.0)
    assert ref is not None and ref[0] == 1 - nan_feature
    assert got == ref


@pytest.mark.parametrize("nan_feature", [0, 1])
def test_nan_gain_of_a_two_valued_cut_excludes_it(nan_feature):
    # row 0 alone holds the two-valued column's low value, with gradient 0
    # and hessian -l2, so that column's one cut computes 0/0; the presorted
    # column sorts row 0 among the others and has no NaN gain
    grad = np.array([0.0, -3.0, -3.0, -3.0, 3.0, 3.0, 3.0, 0.5])
    hess = np.array([-1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    lone = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    sorted_ = np.array([3.5, 0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0])
    xt = [lone, sorted_] if nan_feature == 0 else [sorted_, lone]
    got, ref = _both_splits(xt, grad, hess, l2=1.0, mcw=-10.0)
    assert ref is not None and ref[0] == 1 - nan_feature
    assert got == ref


@pytest.mark.parametrize("bad", [(np.inf,), (-np.inf,), (np.inf, -np.inf)])
def test_infinite_gradients(bad):
    rng = np.random.default_rng(11)
    n = 20
    grad = rng.standard_normal(n)
    grad[[3, 11][:len(bad)]] = bad
    xt = [rng.integers(0, 4, n), rng.standard_normal(n), np.arange(n) % 2]
    for mcw in (0.0, 1.0):
        got, ref = _both_splits(xt, grad, rng.uniform(0.1, 1.0, n), mcw=mcw)
        assert got == ref


@pytest.mark.parametrize("seed", range(12))
def test_random_nodes_match_masked_search(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    levels = rng.integers(1, 6, 6)
    xt = [rng.integers(0, k, n) for k in levels]
    grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3)
    hess = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-6, 1)
    l2 = float(rng.choice([0.0, 1e-9, 1.0]))
    mcw = float(rng.choice([0.0, 1e-3, 0.5, 2.0]))
    rows = np.flatnonzero(rng.random(n) < 0.7)
    if len(rows) < 2:
        rows = np.arange(n)
    got, ref = _both_splits(xt, grad, hess, l2=l2, mcw=mcw, rows=rows)
    assert got == ref


def _tie_partner(low_rows, rng):
    """A two-valued column and a three-valued one that cuts the same rows
    away from the rest: both sum the same left rows in the same order, so
    their gains tie exactly and the lower feature index must win."""
    z = np.where(low_rows, 0.0, 1.0)
    z[~low_rows & (rng.random(len(z)) < 0.5)] = 2.0
    return np.where(low_rows, 0.0, 1.0), z


@pytest.mark.parametrize("case", ["low_value_missing", "two_valued_first",
                                  "two_valued_second", "high_value_not_one",
                                  "signed_zero_high"])
def test_two_valued_nodes_match_masked_search(case):
    rng = np.random.default_rng(21)
    n = 40
    low = rng.random(n) < 0.5
    grad = rng.standard_normal(n) + np.where(low, -1.5, 1.5)
    hess = rng.uniform(0.1, 1.0, n)
    flag, partner = _tie_partner(low, rng)
    if case == "low_value_missing":
        # the node's rows all hold the flag's high value, so only the
        # continuous column can be cut
        rows = np.flatnonzero(~low)
        got, ref = _both_splits([flag, rng.standard_normal(n)], grad, hess,
                                mcw=0.0, rows=rows)
        assert ref is not None and ref[0] == 1
    elif case == "two_valued_first":
        got, ref = _both_splits([flag, partner], grad, hess, mcw=0.0)
        assert ref == (0, 1.0)
    elif case == "two_valued_second":
        got, ref = _both_splits([partner, flag], grad, hess, mcw=0.0)
        assert ref == (0, 1.0)
    elif case == "high_value_not_one":
        got, ref = _both_splits([np.where(low, -2.5, 7.0)], grad, hess, mcw=0.0)
        assert ref == (0, 7.0)
    else:
        # -0.0 == 0.0, so the high rows hold one value, but the threshold is
        # the node's first high row's, and its sign reaches the model JSON
        column = np.where(low, -1.0, np.where(np.arange(n) < n // 2, -0.0, 0.0))
        got, ref = _both_splits([column], grad, hess, mcw=0.0)
        assert repr(got) == repr(ref) == "(0, -0.0)"
        got, ref = _both_splits([column], grad, hess, mcw=0.0, rows=np.arange(n // 2, n))
        assert ref == (0, 0.0) and not np.signbit(ref[1])
    assert repr(got) == repr(ref)


def _two_valued_dataset(n, seed, kinds):
    """Columns named by ``kinds``: "flag" (bool), "pair" (float, -2.5 or
    7.0), "side" (two-level categorical, two complementary one-hot columns),
    "partner" (int whose 0 rows are the flag's False rows), "odd" (int, 3 or
    5) and "cont" (continuous float)."""
    rng = np.random.default_rng(seed)
    flag = rng.random(n) < 0.4
    pair = np.where(rng.random(n) < 0.6, -2.5, 7.0)
    side = rng.integers(0, 2, n)
    partner = _tie_partner(~flag, rng)[1].astype(np.int64)
    odd = np.where(rng.random(n) < 0.3, 3, 5)
    cont = np.round(rng.standard_normal(n), 1)
    logit = 1.2 * flag - 0.3 * pair + 0.8 * side + 0.4 * (odd == 3) + cont
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    table = {"flag": (Column("flag", "bool"), flag),
             "pair": (Column("pair", "float"), pair),
             "side": (Column("side", "categorical", ("l", "r")), side),
             "partner": (Column("partner", "int"), partner),
             "odd": (Column("odd", "int"), odd),
             "cont": (Column("cont", "float"), cont)}
    columns = [table[k] for k in kinds]
    schema = Schema(tuple(c for c, _ in columns) + (Column("label", "int"),), "label")
    return Dataset(schema, tuple(v for _, v in columns), labels)


@pytest.mark.parametrize("kinds, two_valued", [
    (("cont", "partner", "flag"), 1),
    (("flag", "pair", "side", "odd"), 5),
    (("pair", "cont"), 1),
])
def test_two_valued_columns_match_reference(kinds, two_valued):
    ds = _two_valued_dataset(600, seed=9, kinds=kinds)
    x = FeatureEncoder.fit(ds).transform(ds)
    assert len(_Columns(x).two_features) == two_valued
    spec = LearnerSpec("gbdt", {"rounds": 6, "max_depth": 4})
    model = train(spec, ds, TrainingTarget.hard())
    _assert_same_trees(model, _reference_train(spec, ds, TrainingTarget.hard()))
    if "pair" in kinds:
        # the -2.5/7.0 column is cut at its high value, never its low one
        f = kinds.index("pair")
        thresholds = {float(t.threshold[i]) for t in model.trees
                      for i in np.flatnonzero(t.feature == f)}
        assert thresholds == {7.0}


def test_column_store_keeps_presorted_columns_only():
    # encoded: flag, cont, pair, side=l, side=r, side=<other> (all zero,
    # never cut), partner, odd; cont and partner hold three or more values
    ds = _two_valued_dataset(300, seed=9, kinds=("flag", "cont", "pair", "side",
                                                 "partner", "odd"))
    x = FeatureEncoder.fit(ds).transform(ds)
    cols = _Columns(x)
    np.testing.assert_array_equal(cols.features, [1, 6])
    np.testing.assert_array_equal(cols.xt, x[:, cols.features].T)
    assert cols.xt.flags.c_contiguous and cols.order.shape == cols.xt.shape
    np.testing.assert_array_equal(cols.two_features, [0, 2, 3, 4, 7])
    np.testing.assert_array_equal(cols.low, x[:, cols.two_features] < cols.high)
    # every split, of either group, routes the training rows as the rule
    # x < threshold does: the builder's leaf value of each row is the
    # value the fitted tree predicts for it
    rng = np.random.default_rng(10)
    grad = rng.standard_normal(len(x))
    hess = rng.uniform(0.05, 0.25, len(x))
    tree, row_value = _TreeBuilder(cols, grad, hess, 5, 1.0, 1.0).build()
    assert set(tree.feature[tree.feature >= 0].tolist()) & set(cols.two_features.tolist())
    np.testing.assert_array_equal(row_value, tree.predict_value(x))


def test_presort_is_stable_only_where_it_must_be():
    # numpy's default sort kind puts distinct values in their one sorted
    # order; equal values (-0.0 == 0.0 among them) it may leave in any
    # order, so the columns holding a repeat are sorted again, stably
    rng = np.random.default_rng(12)
    n = 400
    levels = rng.integers(0, 100, n).astype(np.float64)
    signed_zeros = rng.standard_normal(n)
    signed_zeros[[40, 90]] = 0.0
    signed_zeros[[10, 300]] = -0.0
    pair = rng.standard_normal(n)
    pair[250] = pair[17]
    x = np.stack([levels, rng.standard_normal(n), signed_zeros,
                  rng.permutation(n).astype(np.float64), pair], axis=1)
    cols = _Columns(x)
    np.testing.assert_array_equal(cols.features, np.arange(5))
    np.testing.assert_array_equal(cols.tied, [0, 2, 4])
    for k in range(5):
        np.testing.assert_array_equal(cols.order[k], np.argsort(cols.xt[k], kind="stable"))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 127, 128, 129, 1000, 9000])
def test_node_totals_from_complex_parts_match_real_sums(n):
    # the builder sums each node's gradient and hessian over the strided
    # real and imaginary parts of one gather; the pairwise order must be that
    # of the contiguous real vectors, which decide exact ties downstream
    rng = np.random.default_rng(n)
    grad = rng.standard_normal(2 * n) * 10.0 ** rng.uniform(-8, 8, 2 * n)
    hess = rng.uniform(0.0, 1.0, 2 * n) * 10.0 ** rng.uniform(-8, 8, 2 * n)
    rows = np.sort(rng.choice(2 * n, n, replace=False))
    columns = _Columns(np.arange(2.0 * n)[:, None])
    _, g_total, h_total = _TreeBuilder(columns, grad, hess, 1, 1.0, 1.0)._sums(rows)
    assert g_total == grad[rows].sum() and h_total == hess[rows].sum()


@pytest.mark.parametrize("k", [1, 55])
def test_axis0_sum_of_row_pairs_adds_row_after_row(k):
    # the two-valued search takes each left sum from ``sum(axis=0)`` of a
    # C-ordered (rows x 2 x columns) array; it must equal cumsum's last row
    # bit for bit, as numpy's pairwise summation along one axis would not
    rng = np.random.default_rng(k)
    for n in (2, 8, 9, 100, 1000, 5000):
        a = rng.standard_normal((n, 2, k)) * 10.0 ** rng.uniform(-6, 6, (n, 2, k))
        np.testing.assert_array_equal(a.sum(axis=0), np.cumsum(a, axis=0)[-1])


def _root_two_valued_cuts(n, k, seed):
    """The root's two-valued cuts and left sums on n random rows of k
    two-valued columns, with the builder that made them."""
    rng = np.random.default_rng(seed)
    x = (rng.random((n, k)) < 0.4).astype(np.float64)
    grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
    hess = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-6, 6, n)
    builder = _TreeBuilder(_Columns(x), grad, hess, 1, 1.0, 1.0)
    rows = np.arange(n)
    gh = builder._sums(rows)[0]
    return builder, gh, builder._two_valued_cuts(rows, gh)


@pytest.mark.parametrize("n", [_TWO_VALUED_BLOCK - 1, _TWO_VALUED_BLOCK, _TWO_VALUED_BLOCK + 1])
def test_streamed_two_valued_sums_match_the_whole_product(n):
    # the pass builds and sums the (rows x 2 x columns) product in row
    # blocks; the bits must be those of summing the whole product at once
    builder, gh, (cut, gl, hl) = _root_two_valued_cuts(n, 9, seed=n)
    whole = np.add.reduce(np.multiply(builder.cols.low[:, None, :],
                                      gh.view(np.float64).reshape(-1, 2, 1)), axis=0)
    np.testing.assert_array_equal(cut, np.arange(9))
    np.testing.assert_array_equal(gl, whole[0])
    np.testing.assert_array_equal(hl, whole[1])


def test_two_valued_pass_memory_is_per_block():
    # 40,000 rows x 40 columns: the whole (rows x 2 x columns) float64
    # product alone is 24 MiB; built a block at a time the pass stays small
    n, k = 40_000, 40
    rng = np.random.default_rng(3)
    builder = _TreeBuilder(_Columns((rng.random((n, k)) < 0.4).astype(np.float64)),
                           rng.standard_normal(n), rng.uniform(0.1, 1.0, n), 1, 1.0, 1.0)
    rows = np.arange(n)
    gh = builder._sums(rows)[0]
    tracemalloc.start()
    try:
        builder._two_valued_cuts(rows, gh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_root_search_memory_follows_the_candidates():
    # the root of 100,000 rows x 8 presorted columns, in units of one
    # (columns x rows) float64 block: gathering the candidates' complex sums
    # and copying their parts apart peaked at 7.3, reading the candidates
    # from the prefix sums' parts at 5.3; copying every cut's sums into two
    # buffers, with no candidate vector, peaks at 4.3
    ds = noisy_nonlinear_dataset(100_000, 7)
    columns = _Columns(FeatureEncoder.fit(ds).transform(ds))
    n, k = ds.n_rows, len(columns.features)
    assert k == 8
    builder = _TreeBuilder(columns, 0.5 - ds.labels, np.full(n, 0.25), 6, 1.0, 1.0)
    rows = np.arange(n)
    sums = builder._sums(rows)
    tracemalloc.start()
    try:
        split = builder._best_split(rows, columns.order, *sums)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert split is not None
    assert peak < 4.8 * k * n * 8


def _mixed_dataset(n, seed):
    """Six floats, an int, a bool and 40- and 12-level categoricals: most of
    the encoded columns are one-hot levels with a single candidate cut."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 6))
    visits = rng.integers(0, 100, n)
    member = rng.random(n) < 0.3
    city = rng.integers(0, 40, n)
    channel = rng.integers(0, 12, n)
    effect = np.random.default_rng(0).normal(0.0, 0.8, 52)
    logit = (x[:, 0] + x[:, 1] * x[:, 2] - 0.5 * x[:, 3] ** 2 + 0.01 * (visits - 50)
             + 0.5 * member + effect[city] + effect[40 + channel])
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-1.5 * logit))).astype(np.int64)
    columns = tuple(Column(f"x{j}", "float") for j in range(6)) + (
        Column("visits", "int"), Column("member", "bool"),
        Column("city", "categorical", tuple(f"city_{i:02d}" for i in range(40))),
        Column("channel", "categorical", tuple("abcdefghijkl")),
        Column("label", "int"))
    return Dataset(Schema(columns, "label"),
                   tuple(x.T) + (visits, member, city, channel), labels)


def test_mixed_categorical_training_matches_reference():
    ds = _mixed_dataset(1200, seed=8)
    assert FeatureEncoder.fit(ds).width > 55
    spec = LearnerSpec("gbdt", {"rounds": 20, "max_depth": 3})
    target = TrainingTarget.hard()
    _assert_same_trees(train(spec, ds, target), _reference_train(spec, ds, target))


def test_all_constant_features_give_single_leaf_trees():
    n = 50
    labels = (np.arange(n) % 3 == 0).astype(np.int64)
    schema = Schema((Column("f", "float"), Column("i", "int"), Column("b", "bool"),
                     Column("c", "categorical", ("only",)), Column("label", "int")),
                    "label")
    ds = Dataset(schema, (np.full(n, 2.5), np.full(n, 4), np.zeros(n, dtype=bool),
                          np.zeros(n, dtype=np.int64)), labels)
    spec = LearnerSpec("gbdt", {"rounds": 4, "max_depth": 3})
    model = train(spec, ds, TrainingTarget.hard())
    assert all(tree.feature.tolist() == [-1] for tree in model.trees)
    _assert_same_trees(model, _reference_train(spec, ds, TrainingTarget.hard()))
