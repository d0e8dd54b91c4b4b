"""Gradient-boosted regression trees minimizing a second-order regularized
squared-error objective, built from scratch.

Each tree is grown by greedy split search on the per-row gradients and
hessians; leaf outputs are the closed-form optimum -G/(H+lambda).
A fit ranks each column's values once: its rank keys order rows by value,
ties by row index. A fit of more than MAX_BINS rows also bins each column
once: one bin per value where a column has at most MAX_BINS distinct
values, quantile bins otherwise. A smaller fit keeps each column's stable
value order instead, and a tree's root takes its rows' order per column
from it, dropping the rows outside the tree's sample, as the presorted
column blocks of XGBoost's exact greedy search do (Chen & Guestrin 2016).
A node of more than MAX_BINS rows is searched by histogram (per-bin
gradient and hessian sums from one bincount over all features; the larger
child's histogram is its parent's minus the smaller child's). A node of at
most MAX_BINS rows is searched exactly over every distinct value, its rows
kept as one (n_cols, n_node_rows) array sorted per feature by rank key.
Either way a node's search over all features is a handful of array
operations rather than a loop over features, and `split_gain`'s formula
scores it. Without GOSS weights every hessian is 1, so a hessian sum is a
row count and no hessian is summed; an exact node then scores only the
thresholds that leave min_child_weight rows on both sides, and slices its
gain denominators H + lambda from one per-fit table of r + lambda for
r = 0..MAX_BINS rows. A child at the depth cap is never searched, so it
gets no search layout, only its rows and gradient and hessian sums.
Growth records each sampled row's leaf value, so only rows outside the
tree's sample walk the tree for the training update. A tree walks a few
rows one row at a time in Python, and more rows one level at a time over
node arrays compiled on its first such walk, or for all the trees
`predict` walks at once by `load_model`: each round gathers every
row's feature value and threshold and steps the row to a child, a leaf
stepping to itself, for as many rounds as the tree is deep (the
level-synchronous traversal of Asadi, Lin & de Vries 2014). The first
costs Python steps per row and level, the second numpy calls per level
plus the compile, so the choice reads the row and node counts and whether
the tree is compiled. `predict` walks WALK_ROWS rows through every tree
before it moves on to the next rows, in tree order, so each row's sum is
formed as it would be in one block.
Supports depth-wise and leaf-wise growth, plain row subsampling or
gradient-based one-side sampling (GOSS), per-tree column subsampling,
shrinkage, and patience-based early stopping on a validation set.
Leaf-wise growth searches no child of the split that reaches num_leaves.
GOSS ranks rows by descending |g| with one default sort of -|g|; only
when two keys tie (0.0 == -0.0 among them) does it sort again, stably, so
tied rows keep their row order.
`save_model` writes a model one tree at a time, each piece by the C JSON
encoder, to the bytes `json.dump` gives for the whole document, and
`load_model` checks every saved tree in one pass over all of them,
naming the first faulty tree and its first fault.
Hot paths gather with `take` and `compress` rather than fancy and boolean
indexing, which cost more per call for the same result.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError, DataError, InvariantError, is_integer, is_real,
)

DEPTHWISE = "depthwise"
LEAFWISE = "leafwise"

MODEL_FORMAT_VERSION = 1

# Nodes above this many rows are searched by histogram, each column cut
# into at most this many bins; smaller nodes are searched exactly.
MAX_BINS = 255


# Per field annotation of HyperParams, the check a value must pass and
# how an error message names such values.
_FIELD_TYPES = {
    "int": (is_integer, "an integer"),
    "float": (is_real, "a number"),
    "float | None": (lambda v: v is None or is_real(v), "a number or null"),
    "str": (lambda v: isinstance(v, str), "a string"),
}


@dataclass(frozen=True)
class HyperParams:
    """One concrete learner configuration."""

    learning_rate: float = 0.1
    max_depth: int = 6
    n_estimators: int = 100
    min_child_weight: float = 1.0
    subsample: float = 1.0
    colsample_bytree: float = 1.0
    reg_lambda: float = 1.0
    gamma: float = 0.0
    goss_a: float | None = None
    goss_b: float | None = None
    growth: str = DEPTHWISE
    num_leaves: int = 31
    patience: int = 50
    seed: int = 42

    def __post_init__(self):
        if not 0 < self.learning_rate <= 1:
            raise ConfigError("hyperparameter 'learning_rate' must be in "
                              f"(0, 1], got {self.learning_rate!r}")
        if self.max_depth < 1:
            raise ConfigError("max_depth must be >= 1")
        if self.n_estimators < 1:
            raise ConfigError("n_estimators must be >= 1")
        if self.min_child_weight < 0:
            raise ConfigError("min_child_weight must be >= 0")
        if not 0 < self.subsample <= 1:
            raise ConfigError("subsample must be in (0, 1]")
        if not 0 < self.colsample_bytree <= 1:
            raise ConfigError("colsample_bytree must be in (0, 1]")
        if self.reg_lambda < 0:
            raise ConfigError("reg_lambda must be >= 0")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if (self.goss_a is None) != (self.goss_b is None):
            raise ConfigError("goss_a and goss_b must be set together")
        if self.goss_a is not None:
            if not 0 < self.goss_a <= 1:
                raise ConfigError("goss_a must be in (0, 1]")
            if self.goss_b < 0:
                raise ConfigError("goss_b must be >= 0")
            if self.goss_a < 1 and self.goss_b == 0:
                raise ConfigError("goss b must be > 0 when a < 1")
            if self.goss_a + self.goss_b > 1 + 1e-12:
                raise ConfigError("goss_a + goss_b must be <= 1")
        if self.growth not in (DEPTHWISE, LEAFWISE):
            raise ConfigError(f"unknown growth policy {self.growth!r}")
        if self.num_leaves < 2:
            raise ConfigError("num_leaves must be >= 2")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HyperParams":
        fields = cls.__dataclass_fields__
        extra = set(d) - set(fields)
        if extra:
            raise ConfigError(f"unknown hyperparameter keys: {sorted(extra)}")
        for key, value in d.items():
            ok, what = _FIELD_TYPES[fields[key].type]
            if not ok(value):
                raise ConfigError(
                    f"hyperparameter {key!r} must be {what}, got {value!r}")
        return cls(**d)


def squared_loss_grad_hess(y, pred):
    """Gradient and hessian of l = 0.5*(y - pred)^2 w.r.t. pred."""
    y = np.asarray(y, dtype=np.float64)
    pred = np.asarray(pred, dtype=np.float64)
    if y.shape != pred.shape:
        raise DataError(f"length mismatch: {y.shape} vs {pred.shape}")
    return pred - y, np.ones_like(y)


def leaf_weight(G, H, reg_lambda):
    """Closed-form optimal leaf output -G/(H + lambda)."""
    denom = H + reg_lambda
    if denom <= 0:
        raise ConfigError("H + lambda must be > 0")
    return -G / denom


def split_gain(G_L, H_L, G, H, reg_lambda, gamma):
    """Objective reduction from splitting a node with gradient and hessian
    sums (G, H) into a left child (G_L, H_L) and the rest, minus the
    per-leaf penalty gamma.

    G_L and H_L may be arrays of candidate splits of one node. Both
    children must have H + lambda > 0: callers drop any other candidate
    before calling, so nothing is divided by zero.
    """
    return _gain(G_L, G, H_L + reg_lambda, H - H_L + reg_lambda,
                 H + reg_lambda, gamma)


def _gain(G_L, G, den_L, den_R, den, gamma):
    """`split_gain` given its denominators: den_L = H_L + lambda, den_R =
    H - H_L + lambda and den = H + lambda."""
    # 0.5 * (G_L*G_L/den_L + G_R*G_R/den_R - G*G/den) - gamma, in that
    # operation order, in place on two buffers.
    G_R = G - G_L
    gain = G_L * G_L
    gain /= den_L
    G_R *= G_R
    G_R /= den_R
    gain += G_R
    gain -= G * G / den
    gain *= 0.5
    gain -= gamma
    return gain


def goss_sample(g, a, b, rng):
    """Gradient-based one-side sampling.

    Keeps the ceil(a*n) largest-|g| rows with weight 1 and ceil(b*n)
    uniform rows from the remainder with amplification weight (1-a)/b,
    so weighted G/H sums stay unbiased. `rng` may be a seed or Generator.
    """
    g = np.asarray(g, dtype=np.float64)
    n = g.size
    if not 0 < a <= 1:
        raise ConfigError("goss a must be in (0, 1]")
    if a * n < 1:
        raise ConfigError(f"a*n = {a * n} < 1: top set would be empty")
    if a >= 1.0:
        return np.arange(n), np.ones(n)
    if b <= 0:
        raise ConfigError("goss b must be > 0 when a < 1")
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    n_top = math.ceil(a * n)
    n_rand = min(math.ceil(b * n), n - n_top)
    # Rows by descending |g|, ties by row index. Without ties any sort of
    # the keys gives that order, and the default sort is about 4.5 times
    # faster than a stable one; with ties (0.0 == -0.0 among them) only a
    # stable sort does.
    key = -np.abs(g)
    order = key.argsort()
    ranked = key.take(order)
    if not (ranked[:-1] < ranked[1:]).all():
        order = key.argsort(kind="stable")
    top = order[:n_top]
    rest = order[n_top:]
    sampled = rest[rng.choice(rest.size, size=n_rand, replace=False)]
    sampled = np.sort(sampled)
    indices = np.concatenate([np.sort(top), sampled])
    # Top rows carry weight 1, sampled remainder the amplification factor;
    # sorting inside each block keeps weights aligned with indices.
    weights = np.concatenate([
        np.ones(n_top),
        np.full(n_rand, (1.0 - a) / b),
    ])
    return indices, weights


# A tree's parallel node arrays, in the order a saved tree lists them, and
# the types their entries may have. A list read from JSON holds no int
# subclass but bool, so testing exact types does what `is_integer` and
# `is_real` do, at less cost per entry.
_NODE_TYPES = {"feature": {int}, "threshold": {int, float}, "left": {int},
               "right": {int}, "value": {int, float}}
TREE_KEYS = tuple(_NODE_TYPES)
# The dtype of each node array, in TREE_KEYS order, once compiled.
_NODE_DTYPES = (np.intp, np.float64, np.intp, np.intp, np.float64)


# Rows that `predict` walks through every tree before it moves on to the
# next rows. A walk round holds a few arrays of 8 bytes per row, and at
# most this many rows keeps each under glibc's default 128 KiB mmap
# threshold, so they come from the heap rather than fresh mappings. A year
# of hourly rows is one block.
WALK_ROWS = 16000


def _walks_by_row(n_rows, n_nodes, compiled):
    """Whether `RegressionTree.predict` walks `n_rows` rows through a tree
    of `n_nodes` nodes one row at a time rather than one level at a time.
    A row costs a few Python steps per level, a level a few numpy calls
    whatever its row count, so the walks cost the same at about 32 rows.
    A tree's first level walk also compiles it, at about half a row's
    walk per node."""
    return n_rows <= 32 + (0 if compiled else n_nodes // 2)


class RegressionTree:
    """Binary regression tree stored as parallel node arrays.

    Internal node i routes x[feature[i]] < threshold[i] to left[i], else
    right[i]; leaves have feature -1 and children -1 and carry their
    weight in value[]. The first level walk compiles the node lists into
    arrays, unless `load_model` has, and keeps them, so the lists must not
    change after a tree has walked.
    """

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self._levels = None

    def add_leaf(self, weight: float) -> int:
        if not math.isfinite(weight):
            raise InvariantError("non-finite leaf weight")
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(float(weight))
        return len(self.feature) - 1

    def add_internal(self, feature: int, threshold: float) -> int:
        self.feature.append(int(feature))
        self.threshold.append(float(threshold))
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(0.0)
        return len(self.feature) - 1

    @property
    def n_leaves(self) -> int:
        return sum(1 for f in self.feature if f == -1)

    def predict(self, XT: np.ndarray, rows=None) -> np.ndarray:
        """Leaf values for the rows of XT, a column-major matrix shaped
        (n_features, n_rows): each row of XT is one feature. Given `rows`,
        an array of row indices, only those rows walk the tree and the
        result holds their values in that order."""
        n_rows = XT.shape[1] if rows is None else rows.size
        if _walks_by_row(n_rows, len(self.feature), self._levels is not None):
            return self._walk_rows(XT, rows)
        return self._walk_levels(XT, rows)

    def _walk_rows(self, XT, rows):
        """`predict` one row at a time, in Python floats."""
        feature, threshold = self.feature, self.threshold
        left, right, value = self.left, self.right, self.value
        out = []
        for x in (XT.T if rows is None else XT[:, rows].T).tolist():
            node = 0
            while (f := feature[node]) >= 0:
                node = left[node] if x[f] < threshold[node] else right[node]
            out.append(value[node])
        return np.array(out, dtype=np.float64)

    def _walk_levels(self, XT, rows):
        """`predict` one level at a time: each round steps every row from
        its node to a child, so after `depth` rounds every row is at its
        leaf.

        Node i sits at position 2i of the compiled arrays; `child[2i]` is
        2 * right[i] and `child[2i + 1]` is 2 * left[i], so a row at
        position p moves to child[p + (x < threshold)], and a NaN goes
        right. A leaf's children are the leaf itself.
        """
        if self._levels is None:
            self._levels, = _compile([len(self.feature)], *(
                np.array(getattr(self, k), dtype)
                for k, dtype in zip(TREE_KEYS, _NODE_DTYPES)))
        feature, threshold, child, value, depth = self._levels
        if rows is None:
            rows = np.arange(XT.shape[1])
        if depth == 0:
            return np.full(rows.size, value[0])
        # Every row starts at the root, whose column is read directly.
        at = child.take(XT[feature[0]].take(rows) < threshold[0])
        offset = feature * XT.shape[1]  # XT.take(offset + row): x[feature]
        for _ in range(depth - 1):
            cell = offset.take(at)
            cell += rows
            at += XT.take(cell) < threshold.take(at)
            at = child.take(at)
        return value.take(at)

    def to_dict(self) -> dict:
        return {k: list(getattr(self, k)) for k in TREE_KEYS}


def _compile(sizes, feature, threshold, left, right, value):
    """Per tree, (feature, threshold, child, value, depth) for
    `_walk_levels`, from the node arrays of trees of `sizes` nodes laid
    end to end, each tree's child indices counted from its own first
    node.

    Each node's entries sit twice, at positions 2i and 2i + 1 of its
    tree's arrays, so every array is indexed by a row's position; a leaf
    reads feature 0 and its children are itself. Children are numbered
    after their parent (`load_model` checks it), so a node's depth is the
    length of its chain of parents, found by doubling each node's jump
    to an ancestor; a node of two parents counts from the later one.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    first = np.cumsum(sizes) - sizes
    ids = np.arange(sizes.sum())
    node = ids - first.repeat(sizes)
    split = feature >= 0
    child = np.empty((ids.size, 2), dtype=np.intp)
    child[:, 0] = np.where(split, right, node)
    child[:, 1] = np.where(split, left, node)
    child += child
    at = np.flatnonzero(split)
    base = at - node.take(at)
    up = np.full(ids.size, -1)  # each node's parent
    np.maximum.at(up, np.concatenate((left.take(at) + base,
                                      right.take(at) + base)),
                  np.concatenate((at, at)))
    depth = (up >= 0).astype(np.intp)  # steps from a node to `up`
    up = np.where(up >= 0, up, ids)  # a root is its own parent
    while not np.array_equal(jump := up.take(up), up):
        depth += depth.take(up)
        up = jump
    depth = np.maximum.reduceat(depth, first)
    feature = np.where(split, feature, 0).repeat(2)
    threshold = threshold.repeat(2)
    value = value.repeat(2)
    child = child.ravel()
    return [(feature[2 * a:2 * b], threshold[2 * a:2 * b],
             child[2 * a:2 * b], value[2 * a:2 * b], d)
            for a, b, d in zip(first.tolist(), (first + sizes).tolist(),
                               depth.tolist())]


def _bin_columns(XT, order):
    """Bin each column of XT (n_feat, n_rows) into at most MAX_BINS bins.

    `order` lists each column's rows sorted by value. A column with at
    most MAX_BINS distinct values gets one bin per value; any other gets
    equal-frequency bins whose upper edges are sample quantiles. Returns
    the uint8 bin codes, shaped like XT, and each bin's smallest and
    largest training value, (n_feat, MAX_BINS) each.
    """
    n_feat, n = XT.shape
    codes = np.empty((n_feat, n), dtype=np.uint8)
    low = np.zeros((n_feat, MAX_BINS))
    high = np.zeros((n_feat, MAX_BINS))
    quantile_rows = np.arange(1, MAX_BINS + 1) * n // MAX_BINS - 1
    for f in range(n_feat):
        s = XT[f, order[f]]
        distinct = s[np.concatenate(([True], s[1:] != s[:-1]))]
        if distinct.size <= MAX_BINS:
            upper = lower = distinct
        else:
            q = s[quantile_rows]
            upper = q[np.concatenate(([True], q[1:] != q[:-1]))]
            # A bin starts at the first value above the previous bin's edge.
            above = np.searchsorted(distinct, upper[:-1], side="right")
            lower = np.concatenate((distinct[:1], distinct[above]))
        codes[f] = np.searchsorted(upper, XT[f])
        high[f, :upper.size] = upper
        low[f, :upper.size] = lower
    return codes, low, high


class _SplitContext:
    """Per-fit state: the columns, their rank keys, and either their
    stable value order or, if the fit bins, their bins.

    rank[f, i] is row i's position in column f sorted by value, ties in
    row order. The keys of a column are unique, so any sort of them gives
    the stable sort of its values. order[f] lists the rows in that order;
    it is kept only by a fit of at most MAX_BINS rows, whose roots are
    exact nodes. den[i] is i + lambda, the gain denominator of a unit-
    hessian child of i rows.
    """

    def __init__(self, X, reg_lambda):
        self.XT = np.ascontiguousarray(X.T)
        n_feat, n = self.XT.shape
        order = np.argsort(self.XT, axis=1, kind="stable")
        self.rank = np.empty((n_feat, n), dtype=np.int32)
        np.put_along_axis(self.rank, order, np.arange(n, dtype=np.int32),
                          axis=1)
        self.den = np.arange(MAX_BINS + 1.0) + reg_lambda
        self.order = self.codes = self.all_bins = None
        if n > MAX_BINS:
            self.codes, self.bin_low, self.bin_high = _bin_columns(self.XT,
                                                                   order)
        else:
            self.order = order

    def offset_bins(self, cols):
        """Per row, the bins of columns `cols` (ascending), each offset by
        its position, so one flat bincount histograms every column of a
        node. The layout of all columns is built once per fit."""
        every = cols.size == self.codes.shape[0]
        if every and self.all_bins is not None:
            return self.all_bins
        bins = self.codes[cols].T.astype(np.intp, order="C")
        bins += np.arange(cols.size) * MAX_BINS
        if every:
            self.all_bins = bins
        return bins


class _Node:
    """A tree node's rows, in the layout its split search reads.

    An exact node (at most MAX_BINS rows) keeps `orders`, shaped
    (n_cols, n_node_rows), whose row k lists the node's rows sorted by
    the rank keys of feature cols[k]; its `rows` is orders[0]. A
    histogram node keeps its `rows` ascending and `hist`, shaped
    (3, n_cols, MAX_BINS): per bin the sums of g, of h and of rows. With
    unit hessians (`h` None) `hist` drops the h sums, which equal the row
    counts. G and H sum g and h over `rows`, in that order, once for both
    the split search and the leaf weight; with unit hessians H is the row
    count. A node that growth will not search keeps neither `orders` nor
    `hist`.
    """

    __slots__ = ("rows", "G", "H", "orders", "hist")

    def __init__(self, rows, g, h, orders=None, hist=None):
        self.rows = rows
        self.G = g.take(rows).sum()
        self.H = float(rows.size) if h is None else h.take(rows).sum()
        self.orders = orders
        self.hist = hist


def _threshold(lo, hi):
    """Midpoint of lo < hi, moved onto hi where it rounds onto lo or
    lo + hi overflows."""
    lo, hi = float(lo), float(hi)
    thr = 0.5 * (lo + hi)
    if not (lo < thr <= hi):
        # Adjacent representable values, where the midpoint rounds onto
        # lo, or values so large that lo + hi is infinite.
        thr = hi
    return thr


class _TreeSearch:
    """Split search for one tree: its gradients, hessians and columns.

    Nodes above MAX_BINS rows are searched by histogram, the others
    exactly in rank-key order. Both pick, by `split_gain`, the candidate
    with the largest positive gain whose children both satisfy
    min_child_weight; ties go to the first candidate in row-major order:
    the lowest feature index, then the lowest threshold. `h` is None when
    every hessian is 1, as for squared loss without GOSS weights; a
    hessian sum is then a row count. `leaf` writes each leaf's weight
    into `leaf_values` at the leaf's rows, so after growth `leaf_values`
    holds the tree's output for every row of its sample.
    """

    def __init__(self, ctx, g, h, cols, params):
        self.ctx = ctx
        self.g = g
        self.h = h
        self.cols = cols
        self.params = params
        self.leaf_values = np.empty(g.size)
        # Entry (k, i) of a (k, rows) gather from ctx.XT or ctx.rank is
        # entry cols[k] * n + i of the flat array: one `take` gathers it.
        self.offsets = cols[:, None] * g.size
        if ctx.codes is not None:
            self.bins = ctx.offset_bins(cols)

    def root(self, rows):
        """The tree's root over `rows`, given in ascending order. In a fit
        without bins, each column's rows are the fit's stable value order
        less the rows outside `rows`."""
        order = self.ctx.order
        if order is None:
            return self.node(rows)
        orders = order.take(self.cols, axis=0)
        if rows.size < self.g.size:
            sampled = np.zeros(self.g.size, dtype=bool)
            sampled[rows] = True
            orders = orders.compress(sampled.take(orders).ravel()).reshape(
                self.cols.size, -1)
        return _Node(orders[0], self.g, self.h, orders=orders)

    def node(self, rows, hist=None, searched=True):
        """The node over `rows`, given in ascending order. A node that is
        not `searched` gets no search layout, only its rows and G, H; its
        rows are in the order an exact node would sum them."""
        if rows.size > MAX_BINS:
            if hist is None and searched:
                hist = self.histogram(rows)
            return _Node(rows, self.g, self.h, hist=hist)
        if not searched:
            rows = rows.take(self.ctx.rank[self.cols[0]].take(rows).argsort())
            return _Node(rows, self.g, self.h)
        keys = self.ctx.rank.take(rows + self.offsets)
        orders = rows.take(keys.argsort(axis=1))
        return _Node(orders[0], self.g, self.h, orders=orders)

    def histogram(self, rows):
        k = self.cols.size
        idx = self.bins.take(rows, axis=0).ravel()
        size = k * MAX_BINS
        sums = [np.bincount(idx, np.repeat(self.g.take(rows), k), size)]
        if self.h is not None:
            sums.append(np.bincount(idx, np.repeat(self.h.take(rows), k),
                                    size))
        sums.append(np.bincount(idx, minlength=size))
        return np.stack(sums).reshape(len(sums), k, MAX_BINS)

    def leaf(self, node):
        """The node's leaf weight, also written to its rows' leaf values.
        A leaf split later is overwritten by its children."""
        weight = leaf_weight(node.G, node.H, self.params.reg_lambda)
        self.leaf_values.put(node.rows, weight)
        return weight

    def _pick(self, G_L, H_L, G, H, candidate):
        """(k, index, gain) of the best candidate whose children both
        satisfy min_child_weight, or None when no gain is positive.

        G_L, H_L and candidate are C-contiguous, shaped (k, positions).
        Only valid candidates reach `split_gain`: each leaves rows, and so
        H + lambda > 0, on both sides.
        """
        p = self.params
        mcw = p.min_child_weight
        valid = candidate & (H_L >= mcw) & (H - H_L >= mcw)
        cells = np.flatnonzero(valid)
        if cells.size == 0:
            return None
        gains = split_gain(G_L.ravel().take(cells), H_L.ravel().take(cells),
                           G, H, p.reg_lambda, p.gamma)
        # argmax returns the first maximum, and flatnonzero lists cells
        # in row-major order.
        best = gains.argmax()
        gain = float(gains[best])
        if gain <= 0:
            return None
        k, index = divmod(int(cells[best]), valid.shape[1])
        return k, index, gain

    def _unit_split(self, node):
        """best_split of an exact node with unit hessians.

        The first j + 1 rows of a sorted node have H_L = j + 1, so
        min_child_weight admits exactly the positions lo..hi - 1, and only
        those are scored. A position between equal values gets gain -inf;
        the first maximum in row-major order wins, as in `_pick`.
        """
        p = self.params
        orders = node.orders
        m = orders.shape[1]
        lo = max(math.ceil(min(p.min_child_weight, m)), 1) - 1
        hi = m - 1 - lo
        if hi <= lo:
            return None
        vs = self.ctx.XT.take(orders[:, lo:hi + 1] + self.offsets)
        G_L = self.g.take(orders[:, :hi]).cumsum(axis=1)[:, lo:]
        # Position j leaves j + 1 rows on the left and m - j - 1 on the
        # right; den[r] = r + lambda, and hi = m - 1 - lo.
        den = self.ctx.den
        gains = _gain(G_L, node.G, den[lo + 1:hi + 1], den[hi:lo:-1], den[m],
                      p.gamma)
        gains[vs[:, :-1] == vs[:, 1:]] = -np.inf
        c, i = divmod(int(gains.argmax()), hi - lo)
        gain = float(gains[c, i])
        if gain <= 0:
            return None
        return gain, c, lo + i, _threshold(vs[c, i], vs[c, i + 1])

    def best_split(self, node):
        """(gain, k, pos, threshold) of the node's best split, or None.

        The split sends feature cols[k] left up to sorted position `pos`
        of an exact node, or up to bin `pos` of a histogram node.
        """
        G, H = node.G, node.H
        if node.hist is None:
            if self.h is None:
                return self._unit_split(node)
            orders = node.orders
            if orders.shape[1] < 2:
                return None
            vs = self.ctx.XT.take(orders + self.offsets)
            prefix = orders[:, :-1]
            found = self._pick(self.g.take(prefix).cumsum(axis=1),
                               self.h.take(prefix).cumsum(axis=1), G, H,
                               vs[:, :-1] < vs[:, 1:])
            if found is None:
                return None
            c, i, gain = found
            return gain, c, i, _threshold(vs[c, i], vs[c, i + 1])
        G_b, n_b = node.hist[0], node.hist[-1]
        n_L = n_b.cumsum(axis=1)
        H_L = n_L if self.h is None else node.hist[1].cumsum(axis=1)
        # A split after bin b needs node rows in b and above it.
        candidate = (n_b > 0) & (n_L < node.rows.size)
        found = self._pick(G_b.cumsum(axis=1), H_L, G, H, candidate)
        if found is None:
            return None
        c, b, gain = found
        f = self.cols[c]
        nxt = b + 1 + int((n_b[c, b + 1:] > 0).argmax())
        return gain, c, b, _threshold(self.ctx.bin_high[f, b],
                                      self.ctx.bin_low[f, nxt])

    def children(self, node, c, pos, searched=True):
        """The (left, right) children of splitting `node` at (c, pos);
        growth passes `searched` False for children it will not search."""
        if node.hist is None:
            key = self.ctx.rank[self.cols[c]]
            cut = key[node.orders[c, pos]]
            if not searched:
                rows = node.rows  # orders[0], the order a child would sum
                sel = key.take(rows) <= cut
                return (_Node(rows.compress(sel), self.g, self.h),
                        _Node(rows.compress(~sel), self.g, self.h))
            # A stable partition by rank key keeps each row of `orders`
            # sorted. Every node row appears once per row of `orders`, so
            # the left rows select as many entries from each and reshape.
            orders = node.orders
            sel = (key.take(orders) <= cut).ravel()
            k = orders.shape[0]
            left = orders.compress(sel).reshape(k, -1)
            right = orders.compress(~sel).reshape(k, -1)
            return (_Node(left[0], self.g, self.h, orders=left),
                    _Node(right[0], self.g, self.h, orders=right))
        rows = node.rows
        go_left = self.ctx.codes[self.cols[c]].take(rows) <= pos
        left, right = rows.compress(go_left), rows.compress(~go_left)
        if not searched or max(left.size, right.size) <= MAX_BINS:
            return (self.node(left, searched=searched),
                    self.node(right, searched=searched))
        # Histogram the smaller child; the larger one is the difference.
        if left.size <= right.size:
            small = self.histogram(left)
            return self.node(left, small), self.node(right, node.hist - small)
        small = self.histogram(right)
        return self.node(left, node.hist - small), self.node(right, small)


def _grow_depthwise(tree, search, node, params, gain_acc, depth=0):
    """Depth-first growth capped by max_depth; returns the node's index.

    A module-level function, not a self-referencing closure: such a
    closure is a reference cycle that keeps each tree's search state
    alive until the cyclic garbage collector runs.
    """
    found = None
    if depth < params.max_depth:
        found = search.best_split(node)
    if found is None:
        return tree.add_leaf(search.leaf(node))
    gain, c, pos, thr = found
    f = int(search.cols[c])
    left, right = search.children(node, c, pos,
                                  depth + 1 < params.max_depth)
    idx = tree.add_internal(f, thr)
    gain_acc[f] = gain_acc.get(f, 0.0) + gain
    tree.left[idx] = _grow_depthwise(tree, search, left, params, gain_acc,
                                     depth + 1)
    tree.right[idx] = _grow_depthwise(tree, search, right, params, gain_acc,
                                      depth + 1)
    return idx


def _grow_leafwise(tree, search, root, params, gain_acc):
    """Best-first growth capped by num_leaves and max_depth."""
    import heapq

    counter = 0
    heap = []

    def push(idx, node, depth):
        nonlocal counter
        if depth >= params.max_depth:
            return
        found = search.best_split(node)
        if found is None:
            return
        heapq.heappush(heap, (-found[0], counter, idx, node, depth, found))
        counter += 1

    push(tree.add_leaf(search.leaf(root)), root, 0)
    n_leaves = 1
    while heap and n_leaves < params.num_leaves:
        _, _, idx, node, depth, (gain, c, pos, thr) = heapq.heappop(heap)
        searched = (depth + 1 < params.max_depth
                    and n_leaves + 1 < params.num_leaves)
        left, right = search.children(node, c, pos, searched)
        f = int(search.cols[c])
        tree.feature[idx] = f
        tree.threshold[idx] = thr
        tree.left[idx] = tree.add_leaf(search.leaf(left))
        tree.right[idx] = tree.add_leaf(search.leaf(right))
        gain_acc[f] = gain_acc.get(f, 0.0) + gain
        n_leaves += 1
        # Children of the split that reaches num_leaves are never popped.
        if n_leaves < params.num_leaves:
            push(tree.left[idx], left, depth + 1)
            push(tree.right[idx], right, depth + 1)


@dataclass
class TrainLog:
    """Per-iteration losses and the stopping outcome."""

    train_loss: list = field(default_factory=list)
    val_loss: list = field(default_factory=list)
    stop_reason: str = "budget"


@dataclass
class GbtModel:
    """Fitted additive ensemble."""

    trees: list
    base_score: float
    best_iteration: int
    gain_by_feature: dict
    params: HyperParams
    feature_names: tuple

    @property
    def no_splits(self) -> bool:
        """True when no tree split any node."""
        return not self.gain_by_feature


def _rmse(y, pred):
    return float(np.sqrt(np.mean((y - pred) ** 2)))


def early_stop_triggered(val_loss, t, patience):
    """Patience rule at iteration t (1-based) over recorded val losses.

    Stop when the minimum of the last patience+1 losses exceeds the
    minimum of all losses up to iteration t - patience.
    """
    p = patience
    if t <= p:
        return False
    recent = val_loss[t - p - 1:t]
    earlier = val_loss[:t - p]
    return min(recent) > min(earlier)


def fit(X, y, params: HyperParams, val=None, feature_names=None):
    """Train a boosted ensemble; returns (GbtModel, TrainLog).

    `X` is a 2-D array; `val` is an optional (X_val, y_val) pair of arrays
    that enables patience-based early stopping. Columns get f0..fN names
    unless `feature_names` is given.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0:
        raise DataError("X must be a 2-D matrix with at least one feature")
    if X.shape[0] != y.size:
        raise DataError(f"X has {X.shape[0]} rows but y has {y.size}")
    if y.size < 2:
        raise DataError("need at least 2 training rows")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise DataError("non-finite values in training inputs")
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(X.shape[1])]
    feature_names = tuple(feature_names)
    if len(feature_names) != X.shape[1]:
        raise DataError("feature_names length does not match X columns")

    X_val = y_val = None
    if val is not None:
        X_val, y_val = val
        X_val = np.asarray(X_val, dtype=np.float64)
        y_val = np.asarray(y_val, dtype=np.float64)
        if X_val.ndim != 2 or X_val.shape[1] != X.shape[1]:
            raise DataError("validation matrix shape mismatch")
        if X_val.shape[0] != y_val.size:
            raise DataError("validation target length mismatch")
        if y_val.size == 0:
            raise DataError("validation set is empty")
        if not (np.all(np.isfinite(X_val)) and np.all(np.isfinite(y_val))):
            raise DataError("non-finite values in validation inputs")

    n, n_feat = X.shape
    ctx = _SplitContext(X, params.reg_lambda)
    base_score = float(np.mean(y))
    pred = np.full(n, base_score)
    val_pred = XT_val = None
    if X_val is not None:
        val_pred = np.full(X_val.shape[0], base_score)
        XT_val = np.ascontiguousarray(X_val.T)

    rng = np.random.default_rng(params.seed)
    trees = []
    gain_by_feature: dict[str, float] = {}
    log = TrainLog()
    eta = params.learning_rate
    n_cols = max(1, math.ceil(params.colsample_bytree * n_feat))

    for it in range(1, params.n_estimators + 1):
        g, h = squared_loss_grad_hess(y, pred)

        if params.goss_a is not None:
            rows, w = goss_sample(g, params.goss_a, params.goss_b, rng)
            # The unit hessians become the GOSS weights, which scale g too.
            h[rows] = w
            g = g * h
            rows = np.sort(rows)
        else:
            h = None  # every hessian is 1
            if params.subsample < 1.0:
                m = max(1, math.floor(params.subsample * n))
                rows = np.sort(rng.choice(n, size=m, replace=False))
            else:
                rows = np.arange(n)

        if n_cols < n_feat:
            cols = np.sort(rng.choice(n_feat, size=n_cols, replace=False))
        else:
            cols = np.arange(n_feat)

        tree = RegressionTree()
        gain_acc: dict[int, float] = {}
        search = _TreeSearch(ctx, g, h, cols, params)
        grow = _grow_leafwise if params.growth == LEAFWISE else _grow_depthwise
        grow(tree, search, search.root(rows), params, gain_acc)
        trees.append(tree)
        for f, gsum in gain_acc.items():
            name = feature_names[f]
            gain_by_feature[name] = gain_by_feature.get(name, 0.0) + gsum

        # Growth left the sampled rows' tree outputs; the rest walk it.
        out = search.leaf_values
        if rows.size < n:
            rest = np.ones(n, dtype=bool)
            rest[rows] = False
            rest = np.flatnonzero(rest)
            out[rest] = tree.predict(ctx.XT, rest)
        pred = pred + eta * out
        log.train_loss.append(_rmse(y, pred))
        if X_val is not None:
            val_pred = val_pred + eta * tree.predict(XT_val)
            log.val_loss.append(_rmse(y_val, val_pred))
            if early_stop_triggered(log.val_loss, it, params.patience):
                log.stop_reason = "early_stop"
                break

    if log.val_loss:
        best_iteration = int(np.argmin(log.val_loss)) + 1
    else:
        best_iteration = len(trees)

    model = GbtModel(
        trees=trees,
        base_score=base_score,
        best_iteration=best_iteration,
        gain_by_feature=gain_by_feature,
        params=params,
        feature_names=feature_names,
    )
    return model, log


def predict(model: GbtModel, X):
    """Ensemble prediction: base score plus shrunk tree outputs.

    `X` is a 2-D array or a FeatureMatrix, whose column names must then
    match the model's. The trees walk X's columns as the rows of `X.T`,
    which is copied into C order unless it is already, as for a whole
    FeatureMatrix, whose `values` is the transpose of such a block.
    """
    feature_names = None
    if hasattr(X, "values") and hasattr(X, "column_names"):
        feature_names = tuple(X.column_names)
        X = X.values
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise DataError(
            f"expected {len(model.feature_names)} feature columns, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    if feature_names is not None and feature_names != model.feature_names:
        missing = set(model.feature_names) - set(feature_names)
        raise DataError(
            "feature columns do not match training columns; "
            f"missing or misordered: {sorted(missing) or list(feature_names)}"
        )
    n = X.shape[0]
    out = np.full(n, model.base_score)
    eta = model.params.learning_rate
    XT = np.ascontiguousarray(X.T)
    trees = model.trees[: model.best_iteration]
    for start in range(0, n, WALK_ROWS):
        stop = min(start + WALK_ROWS, n)
        rows = None if stop - start == n else np.arange(start, stop)
        block = out[start:stop]
        for tree in trees:
            block += eta * tree.predict(XT, rows)
    return out


def feature_importance(model: GbtModel) -> dict:
    """Per-feature share of accumulated split gain (sums to 1)."""
    total = sum(model.gain_by_feature.values())
    if total <= 0:
        return {name: 0.0 for name in model.feature_names}
    return {
        name: model.gain_by_feature.get(name, 0.0) / total
        for name in model.feature_names
    }


# Keys load_model needs besides format_version; save_model writes them all.
MODEL_KEYS = ("params", "trees", "base_score", "best_iteration",
              "feature_names", "gain_by_feature")


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_number_object(value) -> bool:
    return isinstance(value, dict) and all(map(is_real, value.values()))


# Per model-file key outside the trees, the check its value must pass and
# how an error message names such values.
_MODEL_VALUES = {
    "params": (lambda v: isinstance(v, dict), "an object"),
    "trees": (lambda v: isinstance(v, list), "a list"),
    "base_score": (is_real, "a number"),
    "feature_names": (_is_str_list, "a list of strings"),
    "gain_by_feature": (_is_number_object, "an object of numbers"),
    "extra": (lambda v: isinstance(v, dict), "an object"),
}


def save_model(model: GbtModel, path, extra: dict | None = None) -> None:
    """Serialize a fitted model to versioned JSON.

    The file holds the bytes `json.dump` writes for the whole document,
    but is written one tree at a time: `json.dumps` runs the C encoder on
    each piece, where `json.dump` encodes in Python, and no string of the
    whole document is ever held.
    """
    head = {
        "format_version": MODEL_FORMAT_VERSION,
        "params": model.params.to_dict(),
        "base_score": model.base_score,
        "best_iteration": model.best_iteration,
        "feature_names": list(model.feature_names),
        "gain_by_feature": model.gain_by_feature,
        "no_splits": model.no_splits,
    }
    # Write beside the target and rename, so a failed write leaves the old
    # file (or none) rather than a truncated one.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(head)[:-1])  # all but the closing brace
            fh.write(', "trees": [')
            for i, tree in enumerate(model.trees):
                if i:
                    fh.write(", ")
                fh.write(json.dumps(tree.to_dict()))
            fh.write("]")
            if extra:
                fh.write(', "extra": ')
                fh.write(json.dumps(extra))
            fh.write("}")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path):
    """Load a model saved by save_model; returns (GbtModel, extra dict).

    `_load_trees` checks every tree's nodes at once, naming the first
    fault, and the trees that `predict` walks, the first best_iteration,
    are compiled in one pass over their nodes.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such model file: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise DataError(f"model file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"model file {path} must hold a JSON object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"model file {path} has unsupported format version "
                        f"{version!r}")
    missing = [k for k in MODEL_KEYS if k not in doc]
    if missing:
        raise DataError(f"model file {path} lacks {', '.join(missing)}")
    for key, (ok, what) in _MODEL_VALUES.items():
        if key in doc and not ok(doc[key]):
            raise DataError(f"model file {path}: {key} must be {what}")
    params = dict(doc["params"])
    # Files from before the GOSS weighting switch was removed still carry
    # it; prediction never reads it.
    params.pop("goss_inverse_weights", None)
    try:
        params = HyperParams.from_dict(params)
    except ConfigError as exc:
        raise DataError(f"model file {path}: {exc}") from None
    feature_names = tuple(doc["feature_names"])
    trees, nodes = _load_trees(doc["trees"], len(feature_names),
                               f"model file {path}")
    best_iteration = doc["best_iteration"]
    if not (is_integer(best_iteration) and 1 <= best_iteration <= len(trees)):
        raise DataError(f"model file {path}: best_iteration "
                        f"{best_iteration!r} is outside [1, {len(trees)}]")
    # Compile the trees `predict` walks, in one pass over their nodes.
    sizes = [len(t.feature) for t in trees[:best_iteration]]
    walked = sum(sizes)
    for tree, levels in zip(trees, _compile(sizes, *(a[:walked]
                                                     for a in nodes))):
        tree._levels = levels
    model = GbtModel(
        trees=trees,
        base_score=float(doc["base_score"]),
        best_iteration=best_iteration,
        gain_by_feature={k: float(v) for k, v in doc["gain_by_feature"].items()},
        params=params,
        feature_names=feature_names,
    )
    return model, doc.get("extra", {})


def _load_trees(docs, n_features, where):
    """The trees saved as `docs` and their node arrays, each key's entries
    laid end to end in `_NODE_DTYPES`, once checked as `predict` needs:
    children numbered after their node, as both growth policies number
    them, and a leaf's -1, so every walk ends at a leaf. Each check runs
    over all trees at once, but only over those before the first fault
    found so far, so the DataError, prefixed by `where`, names the first
    faulty tree and its first fault."""
    fault = None  # (tree, message) of the first fault found so far
    sizes = []  # node counts of the trees before it
    for i, d in enumerate(docs):
        if not isinstance(d, dict):
            fault = i, " is not a JSON object"
        elif missing := [k for k in TREE_KEYS if k not in d]:
            fault = i, f" lacks {', '.join(missing)}"
        elif not all(isinstance(d[k], list) for k in TREE_KEYS):
            fault = i, f": {', '.join(TREE_KEYS)} must be lists"
        elif not (n := len(d["feature"])) or any(len(d[k]) != n
                                                  for k in TREE_KEYS):
            fault = i, " has no nodes or arrays of unequal length"
        else:
            sizes.append(n)
            continue
        break
    ends = list(itertools.accumulate(sizes))
    nodes = []
    for (key, types), dtype in zip(_NODE_TYPES.items(), _NODE_DTYPES):
        entries = list(itertools.chain.from_iterable(
            d[key] for d in docs[:len(sizes)]))
        bad = None
        if not set(map(type, entries)) <= types:
            bad = next(k for k, v in enumerate(entries)
                       if type(v) not in types)
            del entries[bad:]
        try:
            array = np.fromiter(entries, dtype, len(entries))
        except OverflowError:  # an int beyond the dtype, which the checks
            # below refuse as a float too, inf if it is beyond a double
            array = np.array([float(str(v)) for v in entries])
        if float in types and not (finite := np.isfinite(array)).all():
            bad = int(finite.argmin())
        nodes.append(array)
        if bad is not None:
            i = int(np.searchsorted(ends, bad, "right"))
            what = "finite numbers" if float in types else "integers"
            fault = i, (" holds a non-numeric node entry: "
                        f"{key} entries must be {what}")
            del sizes[i:], ends[i:]
    feature, _, left, right, _ = (a[:sum(sizes)] for a in nodes)
    count = np.repeat(sizes, sizes)  # each node's tree's node count
    node = np.arange(feature.size) - np.repeat(ends, sizes) + count
    split = feature >= 0
    outside = (feature < -1) | (feature >= n_features)
    wrong = outside | np.where(split, (left <= node) | (left >= count)
                               | (right <= node) | (right >= count),
                               (left != -1) | (right != -1))
    if wrong.any():
        k = int(wrong.argmax())
        i = int(np.searchsorted(ends, k, "right"))
        j = int(node[k])
        # As saved: the arrays hold an int beyond intp as a float.
        f, lo, hi = (docs[i][key][j] for key in ("feature", "left", "right"))
        fault = i, (f": node {j} splits on feature {f}, outside "
                    f"[-1, {n_features})" if outside[k] else
                    f": node {j} has children {lo} and {hi}, not both in "
                    f"({j}, {sizes[i]})" if split[k] else
                    f": leaf {j} has children {lo} and {hi}, not -1")
    if fault is not None:
        raise DataError(f"{where}: tree {fault[0]}{fault[1]}")
    # Thresholds are held as floats, as add_internal holds them, so that
    # the row walk rounds a large int as the node walk's float64 does.
    thresholds = nodes[1].tolist()
    trees = []
    for d, end, n in zip(docs, ends, sizes):
        trees.append(tree := RegressionTree())
        vars(tree).update({k: d[k] for k in TREE_KEYS},
                          threshold=thresholds[end - n:end])
    return trees, nodes
