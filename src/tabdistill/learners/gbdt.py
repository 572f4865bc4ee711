"""Gradient-boosted decision trees on the weighted logistic objective.

Exact greedy split search over sorted feature values. Split candidates are
the training values themselves with the rule ``x < threshold`` sending rows
left; because a candidate never sits between two training values, any
strictly increasing per-feature transform maps a fitted tree onto the tree
fitted on transformed data, leaving predictions bit-identical. Ties in gain
break toward the lower feature index, then the lower threshold.

Each training call sorts the encoded columns into three groups once, by how
many distinct training values each holds. A column with one value can never
be cut, so the search leaves it out.

A column with three or more values is sorted once into a (columns x rows)
block of native-width (``np.intp``) row indices, so no gather pays an index
cast: the column-block layout of exact greedy XGBoost (Chen & Guestrin 2016,
section 4.1). numpy's default sort kind puts distinct values in their one
order; only a tied column, whose sorted values hold an equal neighbour, is
sorted again, stably. Only these columns keep their values, as one (columns x
rows) copy; the encoded matrix is dropped once the groups are built. A node
owns the sub-block of its rows, and a split partitions every column's list
with one stable gather per side, so each list stays sorted by value with ties
in ascending row order. That is the order a stable per-node sort of the
node's rows would give, so the per-column gradient and hessian cumsums add
the same numbers in the same order and the gains are bit-identical to a
search that sorts at every node. The search scans all columns of a node in
one 2-D pass; ``cumsum`` along a row is sequential, exactly like a 1-D
``cumsum``. The gain is evaluated at every cut, and a cut between equal
values, which only a tied column has, is blocked like one below the weight
floor. Children at ``max_depth`` are leaves, so their sub-blocks are never
built. A split compares only the node's rows of its column with the
threshold, and writes their sides into one row mask that the node's block
reads, so routing costs the node's rows, not the training set's.

A column with exactly two values, such as a one-hot level or a bool, has at
most one cut per node, and its threshold is always its high value. These
columns are one (rows x columns) boolean matrix that marks the rows holding
each column's low value, 1 byte per cell where a presorted row costs 8. At a
node, one masked pass gives every such column's left sums: the mask rows of
the node's rows, times each row's (gradient, hessian), fill a C-ordered
(rows x 2 x columns) array that is summed over axis 0. numpy reduces that
axis row after row, so each sum adds the node's low rows in ascending row
order, exactly as the cumsum over a presorted list would; a masked row adds
a zero, which leaves the sum unchanged. A (rows x 1) array would be summed
pairwise instead and differ in the last bits, which decide exact ties; the
middle axis of length 2 keeps one column sequential too. The array is built
and summed a fixed number of rows at a time, each block after the running
total (``metrics.sum_rows``), which adds in the same order, so memory stays
bounded at any node size. These cuts follow the presorted columns' cuts; one
of equal gain wins when its feature index is the lower, so the tie rule
holds across both groups.

Gradient and hessian travel as one ``complex128`` vector, gradient + 1j *
hessian, so one gather and one ``cumsum`` give both prefix sums: complex
addition adds the real parts and the imaginary parts separately, each in the
order a real ``cumsum`` would. The prefix sums' real and imaginary parts are
copied into two contiguous arrays, left gradient and left hessian, on which
the gain arithmetic runs; on the strided parts it runs slower. A node's
gradient and hessian totals are summed once, over the real and imaginary
parts of one gather of its rows in ascending row order: numpy sums a strided
part in the same pairwise order as a contiguous copy, so the totals are
bit-identical to summing the gradient and the hessian vectors, and they
serve both the search and the leaf value.

A node whose hessian total ``h`` has ``h - min_child_weight <
min_child_weight`` in floating point is a leaf without a search. The rule is
exact: a cut with ``hl >= min_child_weight`` leaves ``hr = h - hl <= h -
min_child_weight`` (rounding is monotone), below the floor, so every cut
would be blocked or, with a NaN ``hl``, have a NaN gain, which never wins.

The builder hands back each training row's leaf value, so boosting
updates its scores without predicting on the training matrix.

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

from tabdistill.errors import SerializationError, require_integer, require_number
from tabdistill.learners import (
    LearnerSpec,
    TrainingTarget,
    _sigmoid,
    encode_features,
    training_inputs,
)
from tabdistill.metrics import sum_rows
from tabdistill.tabular import Dataset, FeatureEncoder


@dataclass
class Tree:
    """Flat array form of one regression tree. Leaves have feature -1."""

    feature: np.ndarray    # int, -1 for leaves
    threshold: np.ndarray  # float, 0.0 for leaves
    left: np.ndarray       # int child index, -1 for leaves
    right: np.ndarray
    value: np.ndarray      # leaf value, 0.0 for internal nodes

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int64)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        self.value = np.asarray(self.value, dtype=np.float64)
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
        """Parse one nested tree; a malformed node raises SerializationError,
        a number or feature index that breaks its rule DataError."""
        nodes = feature, threshold, left, right, value = [], [], [], [], []

        def rec(node) -> int:
            i = _new_node(nodes)
            if not isinstance(node, dict) or len(node) != 1:
                raise SerializationError("tree node must be an object with one key")
            body = node.get("leaf", node.get("split"))
            if not isinstance(body, dict):
                raise SerializationError("tree node is neither split nor leaf")
            if "leaf" in node:
                value[i] = require_number(body.get("value"), "leaf value")
                return i
            if "left" not in body or "right" not in body:
                raise SerializationError("split node needs both left and right")
            feature[i] = require_integer(body.get("feature"), "split feature")
            threshold[i] = require_number(body.get("threshold"), "split threshold")
            left[i] = rec(body["left"])
            right[i] = rec(body["right"])
            return i

        try:
            rec(doc)
        except RecursionError as exc:
            raise SerializationError("tree is nested too deeply") from exc
        return cls(*nodes)


def _new_node(nodes: tuple[list, ...]) -> int:
    """Appends a node to a tree's five field lists, as a leaf of value 0.0,
    and returns its index."""
    for field, fill in zip(nodes, (-1, 0.0, -1, -1, 0.0)):
        field.append(fill)
    return len(nodes[0]) - 1


# node rows per block of the two-valued pass, which bounds its memory
_TWO_VALUED_BLOCK = 4096


class _Columns:
    """The encoded training columns of one call, grouped by how many distinct
    values each holds.

    Columns with three or more values are ``features``. ``xt`` holds them
    alone, as (columns x rows), and ``order`` is their stable argsort, an
    ``np.intp`` block whose row k sorts ``xt[k]``, the values of
    ``features[k]``; ``tied`` are the rows of ``xt`` that repeat a value;
    ``offset`` turns a block of row indices into positions in ``xt.ravel()``.
    Two-valued columns are ``two_features``: ``low`` marks, as (rows x
    columns), the rows that hold a column's low value, so ``low[:, j]`` is
    the split ``x[:, two_features[j]] < high[j]``, and ``high`` is each
    column's high value. ``two_place`` is each two-valued column's place
    among the presorted ones, which decides ties. A column with one value is
    never cut and is in neither group.
    """

    def __init__(self, x: np.ndarray):
        n = len(x)
        lo, hi = x.min(axis=0), x.max(axis=0)
        varies = lo < hi
        # each value equals the low one or is bit-identical to the high one,
        # so every node's threshold is the same high value (a -0.0 among
        # 0.0 highs would make it depend on the node's first high row)
        two = varies & ((x == lo) | ((x == hi) & (np.signbit(x) == np.signbit(hi)))).all(axis=0)
        self.features = np.flatnonzero(varies & ~two)
        self.xt = np.ascontiguousarray(x.T[self.features])
        self.offset = np.arange(len(self.features))[:, None] * n
        # only equal values can sort out of the stable order (module docstring)
        self.order = np.argsort(self.xt, axis=1)
        sorted_values = map(np.take, self.xt, self.order)  # a column at a time
        self.tied = np.flatnonzero([(v[:-1] == v[1:]).any() for v in sorted_values])
        self.order[self.tied] = np.argsort(self.xt[self.tied], axis=1, kind="stable")
        self.two_features = np.flatnonzero(two)
        self.two_place = np.searchsorted(self.features, self.two_features)
        self.high = hi[two]
        self.low = x[:, two] < self.high


class _TreeBuilder:
    """Grows one tree on the column groups of a training call."""

    def __init__(self, columns: _Columns, grad, hess, max_depth, l2, min_child_weight):
        self.cols = columns
        # one gather and one cumsum give both prefix sums: complex addition
        # adds the real and the imaginary parts separately
        self.gh = np.empty(len(grad), dtype=np.complex128)
        self.gh.real = grad
        self.gh.imag = hess
        self.max_depth = max_depth
        self.l2 = l2
        self.mcw = min_child_weight
        # a split writes its side for the node's rows only, and the node's
        # block reads only those rows, so one mask serves every node
        self.in_left = np.empty(len(grad), dtype=bool)
        self.row_value = np.empty(len(grad))

    def _sums(self, rows: np.ndarray):
        """The node's gradient + 1j * hessian per row, in ascending row
        order, and its gradient and hessian totals. A sum over a strided
        part adds in the same pairwise order as over a contiguous copy."""
        gh = self.gh[rows]
        return gh, np.add.reduce(gh.real), np.add.reduce(gh.imag)

    def _two_valued_cuts(self, rows: np.ndarray, gh: np.ndarray):
        """The two-valued columns whose low and high values both occur in the
        node, as positions in that group, and the left gradient and hessian
        sums of each one's cut, from one masked pass over the node's rows."""
        low = self.cols.low[rows]
        n_low = np.add.reduce(low, axis=0)
        cut = ((n_low > 0) & (n_low < len(rows))).nonzero()[0]
        # a sum over axis 0 of a C-ordered (rows x 2 x columns) array adds
        # row after row, as cumsum does; a masked row adds a zero (the
        # product casts each mark to 1.0 or 0.0). The product is built and
        # summed in row blocks, in the same order.
        pairs = gh.view(np.float64).reshape(-1, 2, 1)
        sums = sum_rows(np.multiply(low[start:start + _TWO_VALUED_BLOCK, None, :],
                                    pairs[start:start + _TWO_VALUED_BLOCK])
                        for start in range(0, len(rows), _TWO_VALUED_BLOCK))
        return cut, sums[0, cut], sums[1, cut]

    def _best_split(self, rows: np.ndarray, block: np.ndarray, gh: np.ndarray,
                    g_total, h_total):
        """Best (feature, threshold, go_left) of the node, or None, from its
        rows, its sub-block and ``_sums(rows)``; ``go_left`` marks the rows
        the split sends left.

        Gains are computed at every presorted cut, in (feature, cut) order,
        then at the two-valued cuts, in place, with the same float operations
        in the same order as ``0.5 * (gl*gl/(hl+l2) + gr*gr/(hr+l2) -
        parent)`` on one feature's sorted rows.
        """
        if h_total - self.mcw < self.mcw:
            return None  # no cut can pass the weight floor (module docstring)
        cols = self.cols
        m, width = block.shape
        n_sorted, per_column = m * (width - 1), (m, width - 1)
        two = ()  # the two-valued columns that can be cut here
        if cols.high.size:
            two, two_gl, two_hl = self._two_valued_cuts(rows, gh)
        if not n_sorted + len(two):
            return None
        left = self.gh.take(block)
        left.cumsum(axis=1, out=left)
        gl, hl = np.empty((2, n_sorted + len(two)))
        gl[:n_sorted].reshape(per_column)[...] = left.real[:, :-1]
        hl[:n_sorted].reshape(per_column)[...] = left.imag[:, :-1]
        del left
        if len(two):
            gl[n_sorted:], hl[n_sorted:] = two_gl, two_hl
        blocked = hl < self.mcw
        if cols.tied.size:  # equal neighbours cannot be cut apart
            sv = cols.xt.ravel().take(block[cols.tied] + cols.offset[cols.tied])
            blocked[:n_sorted].reshape(per_column)[cols.tied] |= sv[:, :-1] == sv[:, 1:]
            del sv
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
        gl -= g_total * g_total / (h_total + self.l2)
        gl *= 0.5
        gains = gl
        gains[blocked] = -np.inf
        # the lowest feature wins ties, then its lowest cut; a gain must beat
        # 0.0 strictly, and a feature with a NaN gain never wins. argmax
        # returns the first NaN when there is one, so only then are the
        # features holding a NaN dropped and the search repeated.
        k = int(gains.argmax())
        if math.isnan(gains[k]):
            by_column = gains[:n_sorted].reshape(per_column)
            by_column[np.isnan(by_column).any(axis=1)] = -np.inf
            gains[np.isnan(gains)] = -np.inf  # a two-valued column's one cut
            k = int(gains.argmax())
        if k < n_sorted and len(two):
            # a two-valued cut of equal gain wins if its feature is the lower
            j = int(gains[n_sorted:].argmax())
            if gains[n_sorted + j] == gains[k] and cols.two_place[two[j]] <= k // (width - 1):
                k = n_sorted + j
        if not gains[k] > 0.0:
            return None
        if k >= n_sorted:
            t = two[k - n_sorted]
            return int(cols.two_features[t]), float(cols.high[t]), cols.low[rows, t]
        row, cut = divmod(k, width - 1)
        thr = cols.xt[row, block[row, cut + 1]]
        return int(cols.features[row]), float(thr), cols.xt[row, rows] < thr

    def build(self) -> tuple[Tree, np.ndarray]:
        """The tree and each training row's leaf value."""
        nodes = feature, threshold, left, right, value = [], [], [], [], []
        root = _new_node(nodes)
        stack = [(root, np.arange(len(self.gh)), self.cols.order, 0)]
        while stack:
            node, rows, block, depth = stack.pop()
            gh, g_total, h_total = self._sums(rows)
            split = None
            if depth < self.max_depth and len(rows) >= 2:
                split = self._best_split(rows, block, gh, g_total, h_total)
            if split is None:
                value[node] = float(-g_total / (h_total + self.l2))
                self.row_value[rows] = value[node]
                continue
            f, thr, go_left = split
            left_rows, right_rows = rows[go_left], rows[~go_left]
            left_block = right_block = None  # children at max_depth are leaves
            if depth + 1 < self.max_depth:
                # a stable gather, so every list stays sorted; taking positions
                # from nonzero is faster than indexing with the boolean mask
                self.in_left[rows] = go_left
                flat = block.ravel()
                in_left = self.in_left.take(flat)
                left_block = flat.take(in_left.nonzero()[0]).reshape(len(block), len(left_rows))
                right_block = flat.take((~in_left).nonzero()[0]).reshape(len(block), len(right_rows))
            left_node = _new_node(nodes)
            right_node = _new_node(nodes)
            feature[node] = f
            threshold[node] = thr
            left[node] = left_node
            right[node] = right_node
            stack.append((right_node, right_rows, right_block, depth + 1))
            stack.append((left_node, left_rows, left_block, depth + 1))
        return Tree(*nodes), self.row_value


class GBDTModel:
    """A trained boosted-tree classifier. Immutable after training."""

    kind = "gbdt"

    def __init__(self, spec: LearnerSpec, encoder: FeatureEncoder, trees: list[Tree],
                 base_logit: float = 0.0):
        self.spec = spec
        self.encoder = encoder
        self.trees = trees
        self.base_logit = base_logit

    def predict(self, rows) -> np.ndarray:
        x = encode_features(self.encoder, rows)
        lr = self.spec["learning_rate"]
        score = np.full(len(x), self.base_logit)
        for tree in self.trees:
            score += lr * tree.predict_value(x)
        return _sigmoid(score)

    def to_json_dict(self) -> dict:
        return {"base_logit": self.base_logit, "trees": [t.to_nested() for t in self.trees]}

    @classmethod
    def from_json_dict(cls, doc: dict, spec: LearnerSpec,
                       encoder: FeatureEncoder) -> "GBDTModel":
        """The model from its document's own fields, after the shared header."""
        if not isinstance(doc.get("trees"), list):
            raise SerializationError("gbdt model 'trees' must be a list")
        trees = [Tree.from_nested(t) for t in doc["trees"]]
        width = encoder.width
        if any(t.feature.max() >= width for t in trees):
            raise SerializationError(
                f"gbdt split feature out of range for {width} encoded columns")
        return cls(spec, encoder, trees,
                   float(require_number(doc["base_logit"], "base_logit")))


def train_gbdt(spec: LearnerSpec, train_ds: Dataset, target: TrainingTarget) -> GBDTModel:
    """Fit ``rounds`` depth-limited trees on the weighted logistic objective.

    Per-row gradient and hessian fold both virtual instances together:
    g = (w_pos + w_neg) * p - w_pos and h = (w_pos + w_neg) * p * (1 - p).
    No subsampling anywhere, so training is deterministic outright.
    """
    encoder, x, w_pos, w_neg = training_inputs(train_ds, target)
    w_sum = w_pos + w_neg
    columns = _Columns(x)
    del x  # the search reads only the column groups

    score = np.zeros(train_ds.n_rows)
    trees: list[Tree] = []
    lr = spec["learning_rate"]
    for _ in range(spec["rounds"]):
        p = _sigmoid(score)
        grad = w_sum * p - w_pos
        hess = w_sum * p * (1.0 - p)
        tree, row_value = _TreeBuilder(
            columns, grad, hess, spec["max_depth"],
            spec["l2_leaf_penalty"], spec["min_child_weight"]).build()
        trees.append(tree)
        score += lr * row_value
    return GBDTModel(spec=spec, encoder=encoder, trees=trees)
