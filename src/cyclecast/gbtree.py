"""Gradient-boosted regression trees minimizing a second-order regularized
squared-error objective, built from scratch.

Each tree is grown by exact greedy split search on the per-row gradients
and hessians; leaf outputs are the closed-form optimum -G/(H+lambda).
A node's rows are kept as one (n_cols, n_node_rows) array sorted per
feature, so a node's search over all features is a handful of array
operations rather than a loop over features.
Supports depth-wise and leaf-wise growth, plain row subsampling or
gradient-based one-side sampling (GOSS), per-tree column subsampling,
shrinkage, and patience-based early stopping on a validation set.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, InvariantError

DEPTHWISE = "depthwise"
LEAFWISE = "leafwise"

MODEL_FORMAT_VERSION = 1


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
    goss_inverse_weights: bool = False
    growth: str = DEPTHWISE
    num_leaves: int = 31
    patience: int = 50
    seed: int = 42

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
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
            if self.goss_a + self.goss_b > 1 + 1e-12:
                raise ConfigError("goss_a + goss_b must be <= 1")
        if self.growth not in (DEPTHWISE, LEAFWISE):
            raise ConfigError(f"unknown growth policy {self.growth!r}")
        if self.num_leaves < 2:
            raise ConfigError("num_leaves must be >= 2")
        if self.patience < 1:
            raise ConfigError("patience must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HyperParams":
        known = set(cls.__dataclass_fields__)
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown hyperparameter keys: {sorted(extra)}")
        return cls(**d)


# Reference optimal configuration for the xgb-style learner.
XGB_STYLE_OPTIMAL = HyperParams(
    learning_rate=0.023764, max_depth=6, n_estimators=1000,
    min_child_weight=1.0, subsample=0.6, colsample_bytree=1.0,
    gamma=0.97328, growth=DEPTHWISE,
)


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


def split_gain(G_L, H_L, G_R, H_R, reg_lambda, gamma):
    """Objective reduction from a split, minus the per-leaf penalty gamma."""
    def score(G, H):
        return G * G / (H + reg_lambda) if H + reg_lambda > 0 else 0.0

    return 0.5 * (
        score(G_L, H_L) + score(G_R, H_R) - score(G_L + G_R, H_L + H_R)
    ) - gamma


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
    # lexsort keys: primary descending |g|, ties broken by row index.
    order = np.lexsort((np.arange(n), -np.abs(g)))
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


def _goss_sample_params(g, params: HyperParams, rng):
    idx, w = goss_sample(g, params.goss_a, params.goss_b, rng)
    if params.goss_inverse_weights:
        # Alternative amplification factor 1/(1-a); biased unless b = 1-a.
        w = np.where(w == 1.0, 1.0, 1.0 / (1.0 - params.goss_a))
    return idx, w


class RegressionTree:
    """Binary regression tree stored as parallel node arrays.

    Internal node i routes x[feature[i]] < threshold[i] to left[i], else
    right[i]; leaves have feature -1 and carry their weight in value[].
    """

    def __init__(self):
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []

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

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            f = self.feature[node]
            if f < 0:
                out[rows] = self.value[node]
                continue
            mask = X[rows, f] < self.threshold[node]
            stack.append((self.left[node], rows[mask]))
            stack.append((self.right[node], rows[~mask]))
        return out

    def to_dict(self) -> dict:
        return {
            "feature": list(self.feature),
            "threshold": list(self.threshold),
            "left": list(self.left),
            "right": list(self.right),
            "value": list(self.value),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegressionTree":
        tree = cls()
        tree.feature = [int(v) for v in d["feature"]]
        tree.threshold = [float(v) for v in d["threshold"]]
        tree.left = [int(v) for v in d["left"]]
        tree.right = [int(v) for v in d["right"]]
        tree.value = [float(v) for v in d["value"]]
        return tree


class _SplitContext:
    """Per-fit state for exact greedy split search.

    A node holds its rows as one int array `orders` of shape
    (n_cols, n_node_rows) whose row k lists the node's rows sorted by
    feature cols[k]. The columns are argsorted once per fit and children
    inherit by stable partition, so no sorting happens inside the tree.
    Every node row appears exactly once in each row of `orders`, so a
    row subset selects the same number of entries from every row and
    `orders[mask[orders]]` reshapes back to (n_cols, n_subset_rows).
    """

    def __init__(self, X):
        self.XT = np.ascontiguousarray(X.T)
        self.global_order = np.argsort(self.XT, axis=1, kind="stable")

    def _member(self, rows):
        mask = np.zeros(self.XT.shape[1], dtype=bool)
        mask[rows] = True
        return mask

    def root_orders(self, rows, cols):
        orders = self.global_order[cols]
        if rows.size == orders.shape[1]:
            return orders
        return orders[self._member(rows)[orders]].reshape(len(cols), -1)

    def partition(self, orders, left_rows):
        sel = self._member(left_rows)[orders]
        k = orders.shape[0]
        return orders[sel].reshape(k, -1), orders[~sel].reshape(k, -1)


def _best_split(ctx, orders, g, h, cols, params):
    """Exact greedy search over (feature, midpoint threshold).

    All features of the node are searched at once: row k of the value,
    gradient and hessian matrices follows `orders[k]`, and a split after
    position i of row k is a candidate where the sorted values differ.
    Returns (gain, feature, threshold, left_orders, right_orders), both
    children in the (n_cols, n_child_rows) layout, or None when no
    positive-gain split satisfies min_child_weight. The row-major argmax
    breaks ties to the lowest feature index, then the lowest threshold.
    """
    n_node = orders.shape[1]
    if n_node < 2:
        return None
    rows = orders[0]
    G = g[rows].sum()
    H = h[rows].sum()
    vs = ctx.XT[cols[:, None], orders]
    G_L = np.cumsum(g[orders], axis=1)[:, :-1]
    H_L = np.cumsum(h[orders], axis=1)[:, :-1]
    G_R = G - G_L
    H_R = H - H_L
    mcw = params.min_child_weight
    valid = (vs[:, :-1] < vs[:, 1:]) & (H_L >= mcw) & (H_R >= mcw)
    gains = 0.5 * (
        G_L * G_L / (H_L + params.reg_lambda)
        + G_R * G_R / (H_R + params.reg_lambda)
        - G * G / (H + params.reg_lambda)
    ) - params.gamma
    gains = np.where(valid, gains, -np.inf)
    c, i = divmod(int(np.argmax(gains)), n_node - 1)
    gain = float(gains[c, i])
    if gain <= 0:
        return None
    lo, hi = vs[c, i], vs[c, i + 1]
    thr = 0.5 * (lo + hi)
    if not (lo < thr):
        # Adjacent representable values: midpoint rounds onto lo.
        thr = hi
    left, right = ctx.partition(orders, orders[c, : i + 1])
    return gain, int(cols[c]), float(thr), left, right


def _grow_depthwise(tree, ctx, orders, g, h, cols, params, gain_acc):
    def grow(orders, depth):
        rows = orders[0]
        G = g[rows].sum()
        H = h[rows].sum()
        if depth >= params.max_depth:
            return tree.add_leaf(leaf_weight(G, H, params.reg_lambda))
        found = _best_split(ctx, orders, g, h, cols, params)
        if found is None:
            return tree.add_leaf(leaf_weight(G, H, params.reg_lambda))
        gain, f, thr, lorders, rorders = found
        node = tree.add_internal(f, thr)
        gain_acc[f] = gain_acc.get(f, 0.0) + gain
        tree.left[node] = grow(lorders, depth + 1)
        tree.right[node] = grow(rorders, depth + 1)
        return node

    grow(orders, 0)


def _grow_leafwise(tree, ctx, orders, g, h, cols, params, gain_acc):
    """Best-first growth capped by num_leaves and max_depth."""
    import heapq

    rows = orders[0]
    root = tree.add_leaf(
        leaf_weight(g[rows].sum(), h[rows].sum(), params.reg_lambda)
    )
    counter = 0
    heap = []

    def push(node, node_orders, depth):
        nonlocal counter
        if depth >= params.max_depth:
            return
        found = _best_split(ctx, node_orders, g, h, cols, params)
        if found is None:
            return
        heapq.heappush(heap, (-found[0], counter, node, depth, found))
        counter += 1

    push(root, orders, 0)
    n_leaves = 1
    while heap and n_leaves < params.num_leaves:
        _, _, node, depth, found = heapq.heappop(heap)
        gain, f, thr, lorders, rorders = found
        lrows = lorders[0]
        rrows = rorders[0]
        tree.feature[node] = f
        tree.threshold[node] = thr
        lw = tree.add_leaf(
            leaf_weight(g[lrows].sum(), h[lrows].sum(), params.reg_lambda)
        )
        rw = tree.add_leaf(
            leaf_weight(g[rrows].sum(), h[rrows].sum(), params.reg_lambda)
        )
        tree.left[node] = lw
        tree.right[node] = rw
        gain_acc[f] = gain_acc.get(f, 0.0) + gain
        n_leaves += 1
        push(lw, lorders, depth + 1)
        push(rw, rorders, depth + 1)


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
    no_splits: bool = False

    def predict(self, X, feature_names=None):
        return predict(self, X, feature_names)


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

    `X` may be a FeatureMatrix or a 2-D array; `val` is an optional
    (X_val, y_val) pair that enables patience-based early stopping.
    Plain arrays get f0..fN names unless `feature_names` is given.
    """
    if feature_names is not None:
        feature_names = tuple(feature_names)
    if hasattr(X, "values") and hasattr(X, "column_names"):
        feature_names = tuple(X.column_names)
        if y is None:
            y = X.target
        X = X.values
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
        feature_names = tuple(f"f{j}" for j in range(X.shape[1]))
    if len(feature_names) != X.shape[1]:
        raise DataError("feature_names length does not match X columns")

    X_val = y_val = None
    if val is not None:
        X_val, y_val = val
        if hasattr(X_val, "values"):
            if tuple(X_val.column_names) != feature_names:
                raise DataError("validation feature columns do not match")
            if y_val is None:
                y_val = X_val.target
            X_val = X_val.values
        X_val = np.asarray(X_val, dtype=np.float64)
        y_val = np.asarray(y_val, dtype=np.float64)
        if X_val.ndim != 2 or X_val.shape[1] != X.shape[1]:
            raise DataError("validation matrix shape mismatch")
        if X_val.shape[0] != y_val.size:
            raise DataError("validation target length mismatch")

    n, n_feat = X.shape
    ctx = _SplitContext(X)
    base_score = float(np.mean(y))
    pred = np.full(n, base_score)
    val_pred = None if X_val is None else np.full(X_val.shape[0], base_score)

    rng = np.random.default_rng(params.seed)
    trees = []
    gain_by_feature: dict[str, float] = {}
    log = TrainLog()
    eta = params.learning_rate
    n_cols = max(1, math.ceil(params.colsample_bytree * n_feat))

    for it in range(1, params.n_estimators + 1):
        g, h = squared_loss_grad_hess(y, pred)

        if params.goss_a is not None:
            rows, w = _goss_sample_params(g, params, rng)
            gw = g.copy()
            hw = h.copy()
            gw[rows] = g[rows] * w
            hw[rows] = h[rows] * w
        elif params.subsample < 1.0:
            m = max(1, math.floor(params.subsample * n))
            rows = np.sort(rng.choice(n, size=m, replace=False))
            gw, hw = g, h
        else:
            rows = np.arange(n)
            gw, hw = g, h

        if n_cols < n_feat:
            cols = np.sort(rng.choice(n_feat, size=n_cols, replace=False))
        else:
            cols = np.arange(n_feat)

        tree = RegressionTree()
        gain_acc: dict[int, float] = {}
        orders = ctx.root_orders(rows, cols)
        grow = _grow_leafwise if params.growth == LEAFWISE else _grow_depthwise
        grow(tree, ctx, orders, gw, hw, cols, params, gain_acc)
        trees.append(tree)
        for f, gsum in gain_acc.items():
            name = feature_names[f]
            gain_by_feature[name] = gain_by_feature.get(name, 0.0) + gsum

        pred = pred + eta * tree.predict(X)
        log.train_loss.append(_rmse(y, pred))
        if X_val is not None:
            val_pred = val_pred + eta * tree.predict(X_val)
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
        no_splits=not gain_by_feature,
    )
    return model, log


def predict(model: GbtModel, X, feature_names=None):
    """Ensemble prediction: base score plus shrunk tree outputs."""
    if hasattr(X, "values") and hasattr(X, "column_names"):
        feature_names = tuple(X.column_names)
        X = X.values
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != len(model.feature_names):
        raise DataError(
            f"expected {len(model.feature_names)} feature columns, "
            f"got {X.shape[1] if X.ndim == 2 else 'non-matrix input'}"
        )
    if feature_names is not None and tuple(feature_names) != model.feature_names:
        missing = set(model.feature_names) - set(feature_names)
        raise DataError(
            "feature columns do not match training columns; "
            f"missing or misordered: {sorted(missing) or list(feature_names)}"
        )
    out = np.full(X.shape[0], model.base_score)
    eta = model.params.learning_rate
    for tree in model.trees[: model.best_iteration]:
        out = out + eta * tree.predict(X)
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


def save_model(model: GbtModel, path, extra: dict | None = None) -> None:
    """Serialize a fitted model to versioned JSON."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "params": model.params.to_dict(),
        "base_score": model.base_score,
        "best_iteration": model.best_iteration,
        "feature_names": list(model.feature_names),
        "gain_by_feature": model.gain_by_feature,
        "no_splits": model.no_splits,
        "trees": [t.to_dict() for t in model.trees],
    }
    if extra:
        doc["extra"] = extra
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path):
    """Load a model saved by save_model; returns (GbtModel, extra dict)."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such model file: {path}")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {version!r}")
    model = GbtModel(
        trees=[RegressionTree.from_dict(t) for t in doc["trees"]],
        base_score=float(doc["base_score"]),
        best_iteration=int(doc["best_iteration"]),
        gain_by_feature={k: float(v) for k, v in doc["gain_by_feature"].items()},
        params=HyperParams.from_dict(doc["params"]),
        feature_names=tuple(doc["feature_names"]),
        no_splits=bool(doc.get("no_splits", False)),
    )
    return model, doc.get("extra", {})
