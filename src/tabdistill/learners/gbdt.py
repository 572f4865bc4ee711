"""Gradient-boosted decision trees on the weighted logistic objective.

Exact greedy split search over sorted feature values. Split candidates are
the training values themselves with the rule ``x < threshold`` sending rows
left; because a candidate never sits between two training values, any
strictly increasing per-feature transform maps a fitted tree onto the tree
fitted on transformed data, leaving predictions bit-identical. Ties in gain
break toward the lower feature index, then the lower threshold.

Each training call sorts every feature once, stably, into a (features x
rows) block of native-width (``np.intp``) row indices, so no gather pays an
index cast: the column-block layout of exact greedy XGBoost (Chen & Guestrin
2016, section 4.1). A node owns the sub-block of its rows, and a split
partitions every feature's list with one stable gather per side, so each list
stays sorted by value with ties in ascending row order. That is the order a
stable per-node sort of the node's rows would give, so the per-feature
gradient and hessian cumsums add the same numbers in the same order and the
gains are bit-identical to a search that sorts at every node. The search
scans all features of a node in one 2-D pass; ``cumsum`` along a row is
sequential, exactly like a 1-D ``cumsum``. Gains are evaluated only between
distinct sorted values: the candidate cuts of all features are gathered into
one vector, so the gain arithmetic follows the number of cuts, not the
number of rows; a one-hot column of a node has at most one cut. Node and
leaf sums run over the node's rows in ascending row order, as numpy's
pairwise summation needs for bit-identical totals. The builder hands back
each training row's leaf value, so boosting updates its scores without
predicting on the training matrix.

Prediction descends a fixed ``depth`` steps per tree; a leaf's children are
the leaf itself, so rows that reach a leaf early stay there.

Each training row contributes two virtual instances, (label 1, weight
w_pos) and (label 0, weight w_neg), folded directly into the per-row
gradient and hessian instead of materializing a doubled dataset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tabdistill.errors import SerializationError, TrainingError
from tabdistill.learners.base import (
    LearnerSpec,
    TrainingTarget,
    _sigmoid,
    encode_features,
    resolve_weight_pairs,
)
from tabdistill.tabular import Dataset, FeatureEncoder


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or math.isnan(value):
        raise SerializationError(f"{what} must be a number, got {value!r}")
    return float(value)


@dataclass
class Tree:
    """Flat array form of one regression tree. Leaves have feature -1."""

    feature: np.ndarray    # int, -1 for leaves
    threshold: np.ndarray  # float, 0.0 for leaves
    left: np.ndarray       # int child index, -1 for leaves
    right: np.ndarray
    value: np.ndarray      # leaf value, 0.0 for internal nodes

    def __post_init__(self):
        # descent tables: a leaf tests column 0 and both its children are the
        # leaf itself, so every row takes exactly `depth` steps and a row that
        # reaches a leaf early stays there. Node i's children sit at
        # _child[2 * i] (right) and _child[2 * i + 1] (left).
        leaf = self.feature < 0
        nodes = np.arange(len(self.feature))
        self._column = np.where(leaf, 0, self.feature)
        self._child = np.stack([np.where(leaf, nodes, self.right),
                                np.where(leaf, nodes, self.left)], axis=1).ravel()
        self.depth = 0
        level = np.zeros(1, dtype=np.int64)
        while (level := level[~leaf[level]]).size:
            level = np.concatenate([self.left[level], self.right[level]])
            self.depth += 1

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        """Raw leaf value per row of the encoded matrix x."""
        n, width = x.shape
        flat = x.ravel()
        offset = np.arange(n) * width
        idx = np.zeros(n, dtype=np.int64)
        for _ in range(self.depth):
            go_left = flat[offset + self._column[idx]] < self.threshold[idx]
            idx = self._child[2 * idx + go_left]
        return self.value[idx]

    def to_nested(self) -> dict:
        def rec(i: int) -> dict:
            if self.feature[i] < 0:
                return {"leaf": {"value": float(self.value[i])}}
            return {"split": {
                "feature": int(self.feature[i]),
                "threshold": float(self.threshold[i]),
                "left": rec(int(self.left[i])),
                "right": rec(int(self.right[i])),
            }}
        return rec(0)

    @classmethod
    def from_nested(cls, doc: dict) -> "Tree":
        """Parse one nested tree; any malformed node raises
        SerializationError."""
        feature, threshold, left, right, value = [], [], [], [], []

        def rec(node) -> int:
            i = len(feature)
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(0.0)
            if not isinstance(node, dict) or len(node) != 1:
                raise SerializationError("tree node must be an object with one key")
            body = node.get("leaf", node.get("split"))
            if not isinstance(body, dict):
                raise SerializationError("tree node is neither split nor leaf")
            if "leaf" in node:
                value[i] = _number(body.get("value"), "leaf value")
                return i
            if "left" not in body or "right" not in body:
                raise SerializationError("split node needs both left and right")
            feature[i] = body.get("feature")
            if isinstance(feature[i], bool) or not isinstance(feature[i], int) or feature[i] < 0:
                raise SerializationError(
                    f"split feature must be a nonnegative integer, got {feature[i]!r}")
            threshold[i] = _number(body.get("threshold"), "split threshold")
            if not math.isfinite(threshold[i]):
                raise SerializationError("split threshold must be finite")
            left[i] = rec(body["left"])
            right[i] = rec(body["right"])
            return i

        try:
            rec(doc)
        except RecursionError as exc:
            raise SerializationError("tree is nested too deeply") from exc
        return cls(np.array(feature, dtype=np.int64),
                   np.array(threshold, dtype=np.float64),
                   np.array(left, dtype=np.int64),
                   np.array(right, dtype=np.int64),
                   np.array(value, dtype=np.float64))


class _TreeBuilder:
    """Grows one tree on the presorted column blocks of a training call.

    ``xt`` is the encoded training matrix as (features x rows) and ``order``
    the ``np.intp`` block of row indices that sorts each of its rows stably.
    """

    def __init__(self, xt, order, grad, hess, max_depth, l2, min_child_weight):
        self.xt = xt
        self.order = order
        self.grad = grad
        self.hess = hess
        self.max_depth = max_depth
        self.l2 = l2
        self.mcw = min_child_weight
        self.columns = np.arange(len(xt))[:, None]
        self.row_value = np.empty(len(grad))
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _best_split(self, rows: np.ndarray, block: np.ndarray):
        """Best (feature, threshold) over every feature of the node, or None.

        Gains are computed only at candidate cuts: positions whose sorted
        value differs from the next one, taken in row-major (feature, cut)
        order. Each expression below runs the same float operations, in the
        same order, as ``0.5 * (gl*gl/(hl+l2) + gr*gr/(hr+l2) - parent)`` on
        one feature's sorted rows, but in place on the candidates.
        """
        g_total = self.grad[rows].sum()
        h_total = self.hess[rows].sum()
        parent = g_total * g_total / (h_total + self.l2)
        sv = self.xt[self.columns, block]
        differs = np.empty(block.shape, dtype=bool)  # equal neighbours cannot be cut apart
        np.not_equal(sv[:, :-1], sv[:, 1:], out=differs[:, :-1])
        differs[:, -1] = False
        del sv
        cand = np.flatnonzero(differs)
        if not cand.size:
            return None
        gl = self.grad[block]
        np.cumsum(gl, axis=1, out=gl)
        gl = gl.take(cand)
        hl = self.hess[block]
        np.cumsum(hl, axis=1, out=hl)
        hl = hl.take(cand)
        blocked = hl < self.mcw
        hr = h_total - hl  # from hl itself: (hl + l2) - l2 is not hl
        blocked |= hr < self.mcw
        right = g_total - gl
        right *= right
        hr += self.l2
        right /= hr  # gr*gr/(hr+l2)
        hl += self.l2
        gl *= gl
        gl /= hl  # gl*gl/(hl+l2)
        gl += right
        gl -= parent
        gl *= 0.5
        gains = gl
        gains[blocked] = -np.inf
        # the lowest feature wins ties, then its lowest cut; a gain must beat
        # 0.0 strictly, and a feature with a NaN gain never wins. argmax
        # returns the first NaN when there is one, so only then are the
        # features holding a NaN dropped and the search repeated.
        width = block.shape[1]
        k = int(np.argmax(gains))
        if np.isnan(gains[k]):
            feature = cand // width
            gains[np.isin(feature, feature[np.isnan(gains)])] = -np.inf
            k = int(np.argmax(gains))
        if not gains[k] > 0.0:
            return None
        f = int(cand[k] // width)
        return f, float(self.xt[f, block.ravel()[cand[k] + 1]])

    def build(self) -> tuple[Tree, np.ndarray]:
        """The tree and each training row's leaf value."""
        n_features = len(self.order)
        root = self._new_node()
        stack = [(root, np.arange(len(self.grad)), self.order, 0)]
        while stack:
            node, rows, block, depth = stack.pop()
            split = None
            if depth < self.max_depth and len(rows) >= 2:
                split = self._best_split(rows, block)
            if split is None:
                g = self.grad[rows].sum()
                h = self.hess[rows].sum()
                self.value[node] = float(-g / (h + self.l2))
                self.row_value[rows] = self.value[node]
                continue
            f, thr = split
            go_left_all = self.xt[f] < thr
            go_left = go_left_all[rows]
            # a stable gather, so every list stays sorted; taking positions
            # from flatnonzero is faster than indexing with the boolean mask
            in_left = go_left_all[block].ravel()
            left_rows, right_rows = rows[go_left], rows[~go_left]
            flat = block.ravel()
            left_block = flat.take(np.flatnonzero(in_left)).reshape(n_features, len(left_rows))
            right_block = flat.take(np.flatnonzero(~in_left)).reshape(n_features, len(right_rows))
            left_node = self._new_node()
            right_node = self._new_node()
            self.feature[node] = f
            self.threshold[node] = thr
            self.left[node] = left_node
            self.right[node] = right_node
            stack.append((right_node, right_rows, right_block, depth + 1))
            stack.append((left_node, left_rows, left_block, depth + 1))
        tree = Tree(np.array(self.feature, dtype=np.int64),
                    np.array(self.threshold, dtype=np.float64),
                    np.array(self.left, dtype=np.int64),
                    np.array(self.right, dtype=np.int64),
                    np.array(self.value, dtype=np.float64))
        return tree, self.row_value


class GBDTModel:
    """A trained boosted-tree classifier. Immutable after training."""

    kind = "gbdt"

    def __init__(self, spec: LearnerSpec, encoder: FeatureEncoder, trees: list[Tree],
                 base_logit: float = 0.0):
        self.spec = spec
        self.encoder = encoder
        self.trees = trees
        self.base_logit = base_logit

    def predict_logit(self, rows) -> np.ndarray:
        x = encode_features(self.encoder, rows)
        lr = self.spec["learning_rate"]
        score = np.full(len(x), self.base_logit)
        for tree in self.trees:
            score += lr * tree.predict_value(x)
        return score

    def predict(self, rows) -> np.ndarray:
        return _sigmoid(self.predict_logit(rows))

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "spec": self.spec.to_json_dict(),
            "encoder": self.encoder.to_json_dict(),
            "base_logit": self.base_logit,
            "trees": [t.to_nested() for t in self.trees],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GBDTModel":
        if not isinstance(doc.get("trees"), list):
            raise SerializationError("gbdt model 'trees' must be a list")
        encoder = FeatureEncoder.from_json_dict(doc["encoder"])
        trees = [Tree.from_nested(t) for t in doc["trees"]]
        width = encoder.width
        if any(t.feature.max() >= width for t in trees):
            raise SerializationError(
                f"gbdt split feature out of range for {width} encoded columns")
        return cls(
            spec=LearnerSpec.from_json_dict(doc["spec"]),
            encoder=encoder,
            trees=trees,
            base_logit=_number(doc["base_logit"], "base_logit"),
        )


def train_gbdt(spec: LearnerSpec, train_ds: Dataset, target: TrainingTarget) -> GBDTModel:
    """Fit ``rounds`` depth-limited trees on the weighted logistic objective.

    Per-row gradient and hessian fold both virtual instances together:
    g = (w_pos + w_neg) * p - w_pos and h = (w_pos + w_neg) * p * (1 - p).
    No subsampling anywhere, so training is deterministic outright.
    """
    encoder = FeatureEncoder.fit(train_ds)
    x = encoder.transform(train_ds)
    if not np.isfinite(x).all():
        raise TrainingError("training features contain non-finite values")
    w_pos, w_neg = resolve_weight_pairs(target, train_ds.labels)
    w_sum = w_pos + w_neg
    xt = np.ascontiguousarray(x.T)
    order = np.argsort(xt, axis=1, kind="stable")

    score = np.zeros(len(x))
    trees: list[Tree] = []
    lr = spec["learning_rate"]
    for _ in range(int(spec["rounds"])):
        p = _sigmoid(score)
        grad = w_sum * p - w_pos
        hess = w_sum * p * (1.0 - p)
        tree, row_value = _TreeBuilder(
            xt, order, grad, hess, int(spec["max_depth"]),
            spec["l2_leaf_penalty"], spec["min_child_weight"]).build()
        trees.append(tree)
        score += lr * row_value
    return GBDTModel(spec=spec, encoder=encoder, trees=trees)
