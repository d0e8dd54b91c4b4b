import copy
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cyclecast import gbtree
from cyclecast.dataset import SyntheticConfig, generate_synthetic
from cyclecast.errors import ConfigError, DataError
from cyclecast.features import FeatureSpec, build_matrix
from cyclecast.gbtree import (
    DEPTHWISE, LEAFWISE, MAX_BINS, GbtModel, HyperParams,
    early_stop_triggered, feature_importance, fit, goss_sample, leaf_weight,
    load_model, predict, save_model, split_gain, squared_loss_grad_hess,
)


def brute_force_stump(x, y):
    """Exhaustive depth-1 split for squared loss, lambda = gamma = 0.

    Enumerates every midpoint threshold between distinct sorted values and
    minimizes SSE with leaf means. Returns (threshold, left_mean,
    right_mean) or None.
    """
    xs = np.sort(np.unique(x))
    best = None
    for lo, hi in zip(xs[:-1], xs[1:]):
        thr = 0.5 * (lo + hi)
        left = y[x < thr]
        right = y[x >= thr]
        if left.size == 0 or right.size == 0:
            continue
        sse = (np.sum((left - left.mean()) ** 2)
               + np.sum((right - right.mean()) ** 2))
        if best is None or sse < best[0] - 1e-15:
            best = (sse, thr, left.mean(), right.mean())
    base_sse = np.sum((y - y.mean()) ** 2)
    if best is None or best[0] >= base_sse:
        return None
    return best[1], best[2], best[3]


def stump_params(**kw):
    defaults = dict(n_estimators=1, max_depth=1, learning_rate=1.0,
                    reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
    defaults.update(kw)
    return HyperParams(**defaults)


class TestLossPieces:
    def test_gradient_zero_at_optimum(self):
        y = np.array([1.0, 2.0, 3.0])
        g, h = squared_loss_grad_hess(y, y)
        assert np.all(g == 0.0) and np.all(h == 1.0)

    def test_gradient_direct(self):
        g, h = squared_loss_grad_hess(np.array([1.0]), np.array([0.0]))
        assert g.tolist() == [-1.0] and h.tolist() == [1.0]

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(4)
        eps = 1e-4
        y = rng.normal(size=200)
        pred = rng.normal(size=200)
        g, _ = squared_loss_grad_hess(y, pred)
        num = (0.5 * (y - (pred + eps)) ** 2
               - 0.5 * (y - (pred - eps)) ** 2) / (2 * eps)
        assert np.max(np.abs(g - num)) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            squared_loss_grad_hess(np.zeros(3), np.zeros(4))


class TestLeafWeightAndGain:
    def test_zero_gradient(self):
        assert leaf_weight(0.0, 5.0, 1.0) == 0.0

    def test_closed_form(self):
        assert leaf_weight(2.0, 3.0, 1.0) == pytest.approx(-0.5)

    def test_lambda_shrinks_towards_zero(self):
        weights = [abs(leaf_weight(2.0, 3.0, lam))
                   for lam in (0.0, 1.0, 10.0, 1e6)]
        assert weights == sorted(weights, reverse=True)
        assert weights[-1] < 1e-5

    def test_symmetric_split_no_gain(self):
        assert split_gain(1.0, 2.0, 2.0, 4.0, 0.0, 0.0) == pytest.approx(0.0)

    def test_gain_arithmetic(self):
        assert split_gain(-2.0, 1.0, 0.0, 2.0, 0.0, 0.0) == pytest.approx(4.0)

    def test_gamma_penalty_rejects(self):
        assert split_gain(-2.0, 1.0, 0.0, 2.0, 0.0, 100.0) < 0.0

    def test_array_matches_scalar(self):
        rng = np.random.default_rng(17)
        G_L = rng.normal(size=(3, 5))
        H_L = rng.uniform(0.0, 4.0, size=(3, 5))
        gains = split_gain(G_L, H_L, 0.7, 4.0, 0.5, 0.1)
        for idx in np.ndindex(G_L.shape):
            assert gains[idx] == split_gain(G_L[idx], H_L[idx], 0.7, 4.0,
                                            0.5, 0.1)


class TestStumpOracle:
    def test_eight_row_instance(self):
        x = np.array([0.1, 0.9, 2.0, 3.1, 4.0, 5.2, 6.1, 7.0])
        y = np.array([1.0, 1.2, 0.8, 1.1, 4.0, 4.2, 3.9, 4.1])
        model, _ = fit(x.reshape(-1, 1), y, stump_params())
        thr, left_mean, right_mean = brute_force_stump(x, y)
        tree = model.trees[0]
        assert tree.threshold[0] == thr
        pred = predict(model, x.reshape(-1, 1))
        assert pred[x < thr] == pytest.approx(left_mean)
        assert pred[x >= thr] == pytest.approx(right_mean)

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(4, 33))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            model, _ = fit(x.reshape(-1, 1), y, stump_params())
            oracle = brute_force_stump(x, y)
            tree = model.trees[0]
            if oracle is None:
                assert tree.feature[0] == -1
                continue
            thr, left_mean, right_mean = oracle
            assert tree.threshold[0] == thr
            pred = predict(model, x.reshape(-1, 1))
            assert np.allclose(pred[x < thr], left_mean)
            assert np.allclose(pred[x >= thr], right_mean)


class TestSplitEdgeCases:
    def test_identical_columns_split_on_first(self):
        x = np.array([0.1, 0.9, 2.0, 3.1, 4.0, 5.2, 6.1, 7.0])
        y = np.array([1.0, 1.2, 0.8, 1.1, 4.0, 4.2, 3.9, 4.1])
        model, _ = fit(np.column_stack([x, x]), y, stump_params())
        assert model.trees[0].feature[0] == 0
        assert set(model.gain_by_feature) == {"f0"}

    def test_constant_column_never_chosen(self):
        x = np.array([0.1, 0.9, 2.0, 3.1, 4.0, 5.2, 6.1, 7.0])
        y = np.array([1.0, 1.2, 0.8, 1.1, 4.0, 4.2, 3.9, 4.1])
        X = np.column_stack([np.full(8, 2.5), x])
        model, _ = fit(X, y, stump_params())
        assert model.trees[0].feature[0] == 1
        assert set(model.gain_by_feature) == {"f1"}

    @pytest.mark.parametrize("growth", [DEPTHWISE, LEAFWISE])
    def test_column_sample_records_global_index(self, growth):
        # Seed 1 samples columns [0, 1, 3, 4], so column 3 is row 2 of
        # the node arrays and the split must map back to index 3.
        sampled = np.random.default_rng(1).choice(5, size=4, replace=False)
        assert sorted(sampled.tolist()) == [0, 1, 3, 4]
        X = np.ones((8, 5))
        X[:, 3] = np.arange(8.0)
        y = np.array([0.0] * 4 + [1.0] * 4)
        params = stump_params(colsample_bytree=0.8, growth=growth, seed=1)
        model, _ = fit(X, y, params)
        feature = model.trees[0].feature[0]
        assert feature == 3 and type(feature) is int
        assert set(model.gain_by_feature) == {"f3"}

    @pytest.mark.parametrize("n", [4, 1000], ids=["exact", "histogram"])
    def test_threshold_finite_where_midpoint_overflows(self, n):
        # lo + hi overflows to inf; the split must still route hi right,
        # in growth and in predict alike.
        X = np.where(np.arange(n) < n // 2, 1e308, 1.7e308).reshape(-1, 1)
        y = (X[:, 0] > 1.5e308).astype(float)
        model, log = fit(X, y, stump_params())
        assert model.trees[0].threshold[0] == 1.7e308
        pred = predict(model, X)
        assert np.array_equal(pred, y)
        assert log.train_loss == [0.0]

    def test_single_row_node_is_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model, _ = fit(X, y, stump_params(subsample=0.5))
        assert model.trees[0].feature == [-1]
        assert model.no_splits


def hist_stump_params(**kw):
    # 1000 rows: above MAX_BINS, so the root is searched by histogram.
    assert 1000 > MAX_BINS
    return stump_params(**kw)


class TestHistogramSearch:
    """Fits of more than MAX_BINS rows."""

    def test_few_distinct_values_get_exact_threshold(self):
        rng = np.random.default_rng(18)
        hour = rng.integers(0, 24, size=1000).astype(float)
        y = np.where(hour >= 13, 1.0, 0.0) + 0.1 * rng.normal(size=1000)
        model, _ = fit(hour.reshape(-1, 1), y, hist_stump_params())
        thr, left_mean, right_mean = brute_force_stump(hour, y)
        assert model.trees[0].threshold[0] == thr
        pred = predict(model, hour.reshape(-1, 1))
        assert np.allclose(pred[hour < thr], left_mean)
        assert np.allclose(pred[hour >= thr], right_mean)

    @pytest.mark.parametrize("params", [
        HyperParams(n_estimators=3, max_depth=5, subsample=0.8, seed=4),
        HyperParams(n_estimators=3, max_depth=6, growth=LEAFWISE,
                    num_leaves=20, goss_a=0.3, goss_b=0.3,
                    colsample_bytree=0.8, seed=4),
    ], ids=[DEPTHWISE, LEAFWISE])
    def test_matches_exact_search_on_few_distinct_values(self, params,
                                                         monkeypatch):
        # Every column has at most MAX_BINS distinct values, so each bin is
        # one value and the histogram search must pick the exact search's
        # splits; only the summation order of the leaf sums differs.
        # Column 3 holds only even values where hour < 12, so nodes below
        # the hour split have empty bins between their values.
        rng = np.random.default_rng(22)
        n = 1200
        X = np.column_stack([
            rng.integers(0, 24, size=n), rng.integers(0, 7, size=n),
            np.round(rng.normal(size=n), 1), rng.integers(0, 200, size=n),
        ]).astype(float)
        morning = X[:, 0] < 12
        X[morning, 3] -= X[morning, 3] % 2
        y = (3.0 * (X[:, 0] >= 12) + 1.5 * (X[:, 3] > 100) + 0.3 * X[:, 1]
             + 0.3 * X[:, 2] + 0.2 * rng.normal(size=n))
        hist_model, _ = fit(X, y, params)
        monkeypatch.setattr(gbtree, "MAX_BINS", 10 * n)
        exact_model, _ = fit(X, y, params)
        for a, b in zip(hist_model.trees, exact_model.trees):
            assert a.feature == b.feature
            assert a.threshold == b.threshold
            assert a.left == b.left and a.right == b.right
            assert np.allclose(a.value, b.value, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("growth", [DEPTHWISE, LEAFWISE])
    def test_training_rows_land_in_their_leaf(self, growth):
        # Quantile-binned, tied and per-value-binned columns; each leaf's
        # training rows must reproduce its weight -G/(H + lambda).
        rng = np.random.default_rng(19)
        n = 1000
        X = np.column_stack([
            rng.normal(size=n),
            rng.integers(0, 400, size=n).astype(float),
            np.round(rng.normal(size=n), 1),
        ])
        y = X[:, 0] + 0.01 * X[:, 1] + np.sin(3 * X[:, 2]) \
            + 0.1 * rng.normal(size=n)
        params = HyperParams(n_estimators=1, learning_rate=1.0, max_depth=5,
                             reg_lambda=2.0, min_child_weight=3.0,
                             growth=growth, num_leaves=12)
        model, _ = fit(X, y, params)
        pred = predict(model, X)
        g = model.base_score - y
        groups = np.unique(pred)
        assert groups.size == model.trees[0].n_leaves > 8
        for value in groups:
            rows = pred == value
            assert rows.sum() >= params.min_child_weight
            expected = -g[rows].sum() / (rows.sum() + params.reg_lambda)
            assert value - model.base_score == pytest.approx(
                expected, rel=1e-9, abs=1e-12)

    def test_constant_and_duplicate_columns(self):
        rng = np.random.default_rng(20)
        x = rng.normal(size=1000)
        y = np.sin(2 * x) + 0.1 * rng.normal(size=1000)
        X = np.column_stack([np.full(1000, 2.5), x, x])
        model, _ = fit(X, y, HyperParams(n_estimators=3, max_depth=4))
        for tree in model.trees:
            assert set(tree.feature) == {-1, 1}
        assert set(model.gain_by_feature) == {"f1"}

    @pytest.mark.parametrize("growth", [DEPTHWISE, LEAFWISE])
    def test_no_lambda_no_child_weight_no_warning(self, growth):
        # Child histograms have empty bins, so some candidate sides have
        # H + lambda = 0.
        rng = np.random.default_rng(21)
        X = rng.normal(size=(1000, 3))
        y = X[:, 0] * X[:, 1] + 0.1 * rng.normal(size=1000)
        params = HyperParams(n_estimators=5, max_depth=8, reg_lambda=0.0,
                             min_child_weight=0.0, growth=growth)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, log = fit(X, y, params)
        assert np.all(np.isfinite(predict(model, X)))
        assert log.train_loss[-1] < log.train_loss[0]


class TestSmallFitPinned:
    """Fits of at most MAX_BINS rows are searched exactly; these trees are
    the exact engine's, recorded before histogram search was added."""

    def data(self):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(120, 3))
        X[:, 2] = np.round(X[:, 2])
        y = X[:, 0] + np.where(X[:, 2] > 0, 1.0, -1.0) \
            + 0.3 * rng.normal(size=120)
        return X, y

    def test_depthwise_subsample(self):
        X, y = self.data()
        model, _ = fit(X, y, HyperParams(n_estimators=2, max_depth=2,
                                         subsample=0.8, seed=3))
        assert [t.to_dict() for t in model.trees] == [
            {"feature": [2, 0, -1, -1, 0, -1, -1],
             "threshold": [0.5, 0.25427751160860823, 0.0, 0.0,
                           -0.24821332031166243, 0.0, 0.0],
             "left": [1, 2, -1, -1, 5, -1, -1],
             "right": [4, 3, -1, -1, 6, -1, -1],
             "value": [0.0, 0.0, -1.171801643596259, 0.46955341185786753,
                       0.0, 0.5617243249871517, 2.0225055456518453]},
            {"feature": [2, 0, -1, -1, 0, -1, -1],
             "threshold": [0.5, 0.49778476806938743, 0.0, 0.0,
                           -0.6783095584884039, 0.0, 0.0],
             "left": [1, 2, -1, -1, 5, -1, -1],
             "right": [4, 3, -1, -1, 6, -1, -1],
             "value": [0.0, 0.0, -1.0516519758008906, 0.48892933423660895,
                       0.0, 0.17389478545022685, 1.6734265829395492]},
        ]
        assert model.gain_by_feature == {"f2": 65.16172480838792,
                                         "f0": 54.44114583775183}

    def test_leafwise_goss_colsample(self):
        X, y = self.data()
        params = HyperParams(n_estimators=2, max_depth=3, growth=LEAFWISE,
                             num_leaves=4, goss_a=0.3, goss_b=0.3,
                             colsample_bytree=0.6, seed=3)
        model, _ = fit(X, y, params)
        assert [t.to_dict() for t in model.trees] == [
            {"feature": [0, 0, -1, 1, -1, -1, -1],
             "threshold": [0.22807044551727365, -1.0695303363077582, 0.0,
                           1.3525457175787783, 0.0, 0.0, 0.0],
             "left": [1, 3, -1, 5, -1, -1, -1],
             "right": [2, 4, -1, 6, -1, -1, -1],
             "value": [0.09702124740071831, -0.5932035871920018,
                       1.135092479374665, -1.2240641201608327,
                       -0.316665969755576, -1.4561399561614485,
                       0.5124025482910514]},
            {"feature": [2, 1, -1, -1, 1, -1, -1],
             "threshold": [0.5, -1.1337887406130975, 0.0, 0.0,
                           -0.15656413132917318, 0.0, 0.0],
             "left": [1, 3, -1, -1, 5, -1, -1],
             "right": [2, 4, -1, -1, 6, -1, -1],
             "value": [0.021272920496752244, -0.5309663132229536,
                       1.4307399079413385, -1.1344575278661542,
                       -0.4617539509584355, -0.058276112736134006,
                       -0.657432474917407]},
        ]
        assert model.gain_by_feature == {"f0": 49.88800919452808,
                                         "f1": 9.52701335188615,
                                         "f2": 47.470796977577294}


def shortcut_data(n):
    """Tied, quantile-binned and per-value-binned columns."""
    rng = np.random.default_rng(41)
    X = np.column_stack([
        rng.integers(0, 24, size=n).astype(float),
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),
    ])
    y = np.sin(X[:, 0] / 4) + X[:, 1] + 0.5 * X[:, 2] \
        + 0.2 * rng.normal(size=n)
    return X, y


SHORTCUT_FITS = {
    "depthwise-subsample": HyperParams(n_estimators=6, max_depth=5,
                                       subsample=0.7, seed=5),
    "leafwise-goss": HyperParams(n_estimators=6, max_depth=6,
                                 growth=LEAFWISE, num_leaves=15, goss_a=0.2,
                                 goss_b=0.3, colsample_bytree=0.7, seed=5),
}


class TestFitShortcuts:
    """Growth writes the sampled rows' tree outputs, hessians of exactly 1
    are counted rather than summed, and exact nodes sort rank keys; each
    must give what the plain computation gives, bit for bit."""

    @pytest.mark.parametrize("n", [200, 1000], ids=["exact", "histogram"])
    @pytest.mark.parametrize("name", list(SHORTCUT_FITS))
    def test_train_loss_is_rmse_of_predict(self, name, n):
        # Rows outside each tree's sample walk it; rows inside take the
        # leaf value recorded during growth.
        X, y = shortcut_data(n)
        assert (n > MAX_BINS) == (n == 1000)
        model, log = fit(X, y, SHORTCUT_FITS[name])
        assert len(log.train_loss) == len(model.trees) == 6
        for t in range(1, len(model.trees) + 1):
            pred = predict(replace(model, best_iteration=t), X)
            assert log.train_loss[t - 1] == float(
                np.sqrt(np.mean((y - pred) ** 2)))

    @pytest.mark.parametrize("n", [200, 1000], ids=["exact", "histogram"])
    @pytest.mark.parametrize("params", [
        HyperParams(n_estimators=4, max_depth=5, subsample=0.8, seed=6),
        HyperParams(n_estimators=4, max_depth=6, growth=LEAFWISE,
                    num_leaves=20, colsample_bytree=0.7, min_child_weight=3.0,
                    seed=6),
    ], ids=[DEPTHWISE, LEAFWISE])
    def test_unit_hessian_counts_match_weighted_sums(self, params, n,
                                                     monkeypatch):
        # The unit-hessian exact search scores only the positions that
        # min_child_weight admits; the weighted search checks every one.
        X, y = shortcut_data(n)
        original = gbtree._TreeSearch.__init__
        original_split = gbtree._TreeSearch.best_split
        for mcw in (0.0, 0.5, 2.5, 8.0):
            unit, sizes = [], []

            def spy(self, ctx, g, h, cols, params):
                original(self, ctx, g, h, cols, params)
                unit.append(self.h is None)

            def sized(self, node):
                sizes.append(node.rows.size)
                return original_split(self, node)

            monkeypatch.setattr(gbtree._TreeSearch, "__init__", spy)
            monkeypatch.setattr(gbtree._TreeSearch, "best_split", sized)
            fitted = replace(params, min_child_weight=mcw)
            counted, _ = fit(X, y, fitted)
            assert unit and all(unit)
            # Some searched node is too small to leave mcw rows each side.
            assert mcw < 8 or min(sizes) < 2 * mcw

            def weighted(self, ctx, g, h, cols, params):
                original(self, ctx, g, h, cols, params)
                self.h = np.ones(g.size)

            monkeypatch.setattr(gbtree._TreeSearch, "__init__", weighted)
            summed, _ = fit(X, y, fitted)
            assert [t.to_dict() for t in counted.trees] == \
                [t.to_dict() for t in summed.trees]
            assert counted.gain_by_feature == summed.gain_by_feature

    @pytest.mark.parametrize("n", [200, 1000], ids=["exact", "histogram"])
    @pytest.mark.parametrize("params", [
        HyperParams(n_estimators=5, subsample=0.8, seed=8),
        HyperParams(n_estimators=5, growth=LEAFWISE, num_leaves=12,
                    goss_a=0.3, goss_b=0.3, colsample_bytree=0.7, seed=8),
    ], ids=[DEPTHWISE, LEAFWISE])
    def test_unsearched_children_match_full_layout(self, params, n,
                                                   monkeypatch):
        # Children at the depth cap, or of the split that reaches
        # num_leaves, get rows and G, H only; giving them the full search
        # layout must change no bit of the fit.
        X, y = shortcut_data(n)
        val = shortcut_data(80)
        original = gbtree._TreeSearch.children

        def fitted(depth, force):
            layouts = []

            def children(self, node, c, pos, searched=True):
                kids = original(self, node, c, pos, searched or force)
                if not searched:
                    layouts.extend(k.orders is None and k.hist is None
                                   for k in kids)
                return kids

            monkeypatch.setattr(gbtree._TreeSearch, "children", children)
            model, log = fit(X, y, replace(params, max_depth=depth), val=val)
            assert layouts and all(layouts) != force
            return ([t.to_dict() for t in model.trees],
                    model.gain_by_feature, log.train_loss, log.val_loss)

        for depth in (2, 4):
            assert fitted(depth, False) == fitted(depth, True)

    def test_exact_orders_are_stable_value_order(self):
        # Roots take each column's rows from the fit's stable value order;
        # other nodes sort rank keys. Both must list each column's rows in
        # stable value order, for every row and column sample.
        rng = np.random.default_rng(43)
        n = 240
        X = np.column_stack([
            rng.integers(0, 3, size=n), np.round(rng.normal(size=n)),
            rng.normal(size=n), np.zeros(n),
        ]).astype(float)
        X[::7, 1] = -0.0  # equal to 0.0, so tied with it
        ctx = gbtree._SplitContext(X, 1.0)
        assert ctx.order is not None
        every_row = np.arange(n)
        sampled = np.sort(rng.choice(n, size=200, replace=False))
        for cols in (np.arange(4), np.array([0, 1, 3])):
            search = gbtree._TreeSearch(ctx, rng.normal(size=n), np.ones(n),
                                        cols, HyperParams(max_depth=3))
            for rows in (every_row, sampled):
                root = search.root(rows)
                assert np.array_equal(root.orders, search.node(rows).orders)
                found = search.best_split(root)
                nodes = [root, *search.children(root, found[1], found[2])]
                for node in nodes:
                    node_rows = np.sort(node.rows)
                    for k, f in enumerate(cols):
                        expected = node_rows[np.argsort(X[node_rows, f],
                                                        kind="stable")]
                        assert np.array_equal(node.orders[k], expected)
                assert nodes[1].rows.size + nodes[2].rows.size == rows.size


class TestFit:
    def test_constant_target(self):
        X = np.arange(10.0).reshape(-1, 1)
        y = np.full(10, 3.25)
        model, _ = fit(X, y, HyperParams(n_estimators=5))
        assert np.all(predict(model, X) == 3.25)
        assert model.no_splits

    def test_monotone_training_loss(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 4))
        y = X[:, 0] + np.sin(X[:, 1]) + 0.1 * rng.normal(size=200)
        _, log = fit(X, y, HyperParams(n_estimators=40, max_depth=3))
        losses = np.array(log.train_loss)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_seed_determinism(self, tmp_path):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(150, 5))
        y = rng.normal(size=150)
        params = HyperParams(n_estimators=10, max_depth=4, subsample=0.7,
                             colsample_bytree=0.6, seed=11)
        m1, _ = fit(X, y, params)
        m2, _ = fit(X, y, params)
        save_model(m1, tmp_path / "a.json")
        save_model(m2, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == \
            (tmp_path / "b.json").read_bytes()

    def test_validation_shape_mismatch(self):
        X = np.zeros((10, 2))
        y = np.zeros(10)
        with pytest.raises(DataError):
            fit(X, y, HyperParams(), val=(np.zeros((5, 3)), np.zeros(5)))

    def test_rejects_non_finite(self):
        X = np.zeros((5, 1))
        X[2, 0] = np.nan
        with pytest.raises(DataError):
            fit(X, np.zeros(5), HyperParams())

    @pytest.mark.parametrize("bad, message", [
        ("nan-target", "non-finite values in validation"),
        ("inf-feature", "non-finite values in validation"),
        ("empty", "validation set is empty"),
    ])
    def test_rejects_bad_validation_set(self, bad, message):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 2))
        y = X[:, 0] + 0.1 * rng.normal(size=200)
        X_val, y_val = X[150:].copy(), y[150:].copy()
        if bad == "nan-target":
            y_val[3] = np.nan
        elif bad == "inf-feature":
            X_val[5, 1] = np.inf
        else:
            X_val, y_val = X_val[:0], y_val[:0]
        with pytest.raises(DataError, match=message):
            fit(X[:150], y[:150], HyperParams(n_estimators=5),
                val=(X_val, y_val))

    def test_leafwise_respects_num_leaves(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(500, 3))
        y = rng.normal(size=500)
        params = HyperParams(n_estimators=2, max_depth=10, growth=LEAFWISE,
                             num_leaves=8, reg_lambda=0.0,
                             min_child_weight=0.0)
        model, _ = fit(X, y, params)
        for tree in model.trees:
            assert tree.n_leaves <= 8

    @pytest.mark.parametrize("num_leaves", [2, 5])
    def test_leafwise_searches_no_node_after_the_cap(self, num_leaves,
                                                     monkeypatch):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(500, 3))
        y = X[:, 0] + rng.normal(size=500)
        params = HyperParams(n_estimators=3, max_depth=10, growth=LEAFWISE,
                             num_leaves=num_leaves, reg_lambda=0.0,
                             min_child_weight=0.0)
        searched = []
        original = gbtree._TreeSearch.best_split

        def spy(self, node):
            searched.append(node.rows.size)
            return original(self, node)

        monkeypatch.setattr(gbtree._TreeSearch, "best_split", spy)
        model, _ = fit(X, y, params)
        assert all(tree.n_leaves == num_leaves for tree in model.trees)
        # The root, then both children of every split but the last.
        assert len(searched) == len(model.trees) * (1 + 2 * (num_leaves - 2))

    def test_depthwise_respects_depth(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(400, 2))
        y = rng.normal(size=400)
        params = HyperParams(n_estimators=1, max_depth=2, reg_lambda=0.0,
                             min_child_weight=0.0)
        model, _ = fit(X, y, params)
        assert model.trees[0].n_leaves <= 4


class TestEarlyStopping:
    def test_predicate_matches_recorded_stop(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(300, 3))
        y = X[:, 0] + rng.normal(size=300)
        Xv = rng.normal(size=(100, 3))
        yv = Xv[:, 0] + rng.normal(size=100)
        params = HyperParams(n_estimators=200, max_depth=2, patience=5)
        model, log = fit(X, y, params, val=(Xv, yv))
        t = len(log.val_loss)
        if log.stop_reason == "early_stop":
            assert early_stop_triggered(log.val_loss, t, params.patience)
            for i in range(1, t):
                assert not early_stop_triggered(log.val_loss, i,
                                                params.patience)
        assert model.best_iteration == int(np.argmin(log.val_loss)) + 1

    def test_no_stop_before_patience(self):
        assert not early_stop_triggered([1.0, 2.0, 3.0], 3, 5)

    def test_stop_on_plateau(self):
        val = [1.0, 0.5, 0.9, 0.9, 0.9]
        assert early_stop_triggered(val, 5, 2)


class TestGoss:
    def test_a_one_keeps_everything(self):
        idx, w = goss_sample(np.arange(10.0), 1.0, 0.0, 0)
        assert idx.tolist() == list(range(10))
        assert np.all(w == 1.0)

    def test_counts_and_amplification(self):
        g = np.arange(10.0) - 5.0
        idx, w = goss_sample(g, 0.2, 0.2, 0)
        assert idx.size == 4
        assert np.sum(w == 1.0) == 2
        assert np.sum(w == 4.0) == 2  # (1 - 0.2) / 0.2

    def test_top_rows_by_abs_gradient(self):
        g = np.array([0.1, -9.0, 0.2, 8.0, 0.3])
        idx, w = goss_sample(g, 0.4, 0.2, 0)
        kept_top = set(idx[w == 1.0].tolist())
        assert kept_top == {1, 3}

    def test_deterministic_per_seed(self):
        g = np.random.default_rng(11).normal(size=50)
        a = goss_sample(g, 0.2, 0.3, 42)
        b = goss_sample(g, 0.2, 0.3, 42)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_unbiased_weighted_sum(self):
        rng = np.random.default_rng(12)
        g = rng.normal(size=100)
        true_sum = g.sum()
        estimates = []
        for seed in range(2000):
            idx, w = goss_sample(g, 0.2, 0.2, seed)
            estimates.append(float(np.sum(g[idx] * w)))
        est = np.array(estimates)
        se = est.std(ddof=1) / math.sqrt(est.size)
        assert abs(est.mean() - true_sum) < 3 * se

    @pytest.mark.parametrize("kind", ["tie-free", "tied", "signed-zeros"])
    @pytest.mark.parametrize("a, b", [(0.2, 0.2), (0.1, 0.5), (0.5, 0.3)])
    def test_matches_lexsort_formula(self, kind, a, b):
        # The two-key lexsort that orders rows by descending |g|, ties by
        # row index, is the oracle for the sort goss_sample takes.
        for seed in range(5):
            rng = np.random.default_rng(seed)
            if kind == "tie-free":
                g = rng.normal(size=997)
            elif kind == "tied":
                g = np.round(rng.normal(size=997) * 2) / 2
            else:
                g = rng.choice([0.0, -0.0, 0.5, -0.5, 2.0], size=300)
            n = g.size
            assert (np.unique(np.abs(g)).size == n) == (kind == "tie-free")
            n_top = math.ceil(a * n)
            n_rand = min(math.ceil(b * n), n - n_top)
            order = np.lexsort((np.arange(n), -np.abs(g)))
            rest = order[n_top:]
            draw = np.random.default_rng(seed + 100)
            sampled = rest[draw.choice(rest.size, size=n_rand, replace=False)]
            expected = np.concatenate([np.sort(order[:n_top]),
                                       np.sort(sampled)])
            idx, w = goss_sample(g, a, b, seed + 100)
            assert np.array_equal(idx, expected)
            assert np.array_equal(w, np.concatenate(
                [np.ones(n_top), np.full(n_rand, (1.0 - a) / b)]))

    def test_errors(self):
        g = np.ones(10)
        with pytest.raises(ConfigError):
            goss_sample(g, 0.5, 0.0, 0)  # b = 0 with a < 1
        with pytest.raises(ConfigError):
            goss_sample(g, 0.05, 0.2, 0)  # a*n < 1
        with pytest.raises(ConfigError):
            goss_sample(g, 0.0, 0.5, 0)


class TestPredict:
    def test_zero_effective_trees_gives_base_score(self):
        X = np.zeros((6, 1))
        y = np.full(6, 2.5)
        model, _ = fit(X, y, HyperParams(n_estimators=3))
        assert np.all(predict(model, np.ones((4, 1))) == 2.5)

    def test_column_mismatch_names_columns(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        model, _ = fit(X, y, HyperParams(n_estimators=2))
        with pytest.raises(DataError, match="feature columns"):
            predict(model, np.zeros((3, 5)))

    def test_matrix_column_names_checked(self):
        frame = generate_synthetic(SyntheticConfig(n_hours=300, seed=15))
        matrix = build_matrix(frame, FeatureSpec())
        model, _ = fit(matrix.values, matrix.target,
                       HyperParams(n_estimators=2),
                       feature_names=matrix.column_names)
        assert np.array_equal(predict(model, matrix),
                              predict(model, matrix.values))
        renamed = replace(matrix, column_names=matrix.column_names[::-1])
        with pytest.raises(DataError, match="feature columns do not match"):
            predict(model, renamed)

    def test_serialization_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(200, 4))
        y = X[:, 0] * 2 + rng.normal(size=200)
        model, _ = fit(X, y, HyperParams(n_estimators=15, max_depth=4))
        before = predict(model, X)
        save_model(model, tmp_path / "model.json",
                   extra={"note": "round-trip"})
        loaded, extra = load_model(tmp_path / "model.json")
        assert extra == {"note": "round-trip"}
        after = predict(loaded, X)
        assert np.array_equal(before, after)

    def test_failed_save_keeps_old_file(self, tmp_path, monkeypatch):
        model, _ = fit(np.arange(8.0)[:, None], np.arange(8.0),
                       HyperParams(n_estimators=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        before = path.read_bytes()

        # The writer encodes the document piece by piece; the second piece
        # fails, after the first reached the temporary file.
        pieces = []
        dumps = json.dumps

        def broken_dumps(obj, *args, **kwargs):
            pieces.append(obj)
            if len(pieces) > 1:
                raise OSError("disk full")
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", broken_dumps)
        with pytest.raises(OSError, match="disk full"):
            save_model(model, path)
        assert len(pieces) == 2
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("extra", [
        None, {}, {"feature_spec": {"lags": [1, 24], "w": 0.5},
                   "note": "\u00e9t\u00e9", "nan": float("nan")},
    ], ids=["none", "empty", "nested"])
    @pytest.mark.parametrize("growth", [DEPTHWISE, LEAFWISE])
    def test_file_is_json_dump_of_the_document(self, tmp_path, growth, extra):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(300, 3))
        y = X[:, 0] + rng.normal(size=300)
        model, _ = fit(X, y, HyperParams(n_estimators=5, growth=growth,
                                         num_leaves=6, goss_a=0.3,
                                         goss_b=0.3))
        doc = {
            "format_version": gbtree.MODEL_FORMAT_VERSION,
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
        path = tmp_path / "model.json"
        save_model(model, path, extra=extra)
        with open(tmp_path / "oracle.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        assert path.read_bytes() == (tmp_path / "oracle.json").read_bytes()

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("text, message", [
        ('{"format_version": 1, "params": ', "is not valid JSON"),
        ("[1, 2]", "must hold a JSON object"),
        ("5", "must hold a JSON object"),
    ], ids=["truncated", "array", "number"])
    def test_malformed_file_is_data_error(self, tmp_path, text, message):
        path = tmp_path / "broken.json"
        path.write_text(text)
        with pytest.raises(DataError, match=message) as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"note": "\xe9"}')
        with pytest.raises(DataError, match="is not valid JSON"):
            load_model(path)

    @pytest.mark.parametrize("key", gbtree.MODEL_KEYS)
    def test_missing_key_is_data_error(self, tmp_path, key):
        model, _ = fit(np.arange(8.0)[:, None], np.arange(8.0),
                       HyperParams(n_estimators=2))
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        del doc[key]
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=f"lacks {key}$") as err:
            load_model(path)
        assert str(path) in str(err.value)

    def test_only_version_names_every_missing_key(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(
            {"format_version": gbtree.MODEL_FORMAT_VERSION}))
        with pytest.raises(DataError,
                           match="lacks " + ", ".join(gbtree.MODEL_KEYS)):
            load_model(path)

    def test_file_with_removed_goss_switch_loads(self, tmp_path):
        # Files written before `goss_inverse_weights` was removed carry it
        # in `params` as false.
        rng = np.random.default_rng(16)
        X = rng.normal(size=(100, 3))
        y = X[:, 0] + 0.1 * rng.normal(size=100)
        params = HyperParams(n_estimators=5, goss_a=0.2, goss_b=0.2,
                             growth=LEAFWISE)
        model, _ = fit(X, y, params)
        save_model(model, tmp_path / "new.json")
        doc = json.loads((tmp_path / "new.json").read_text())
        assert "goss_inverse_weights" not in doc["params"]
        doc["params"]["goss_inverse_weights"] = False
        (tmp_path / "old.json").write_text(json.dumps(doc))
        new, _ = load_model(tmp_path / "new.json")
        old, _ = load_model(tmp_path / "old.json")
        assert old.params == new.params == params
        assert np.array_equal(predict(old, X), predict(new, X))


def random_tree(rng, n_feat, values, depth=0):
    """A RegressionTree grown at random; thresholds are drawn from
    `values`, so some rows sit exactly on a threshold."""
    tree = gbtree.RegressionTree()

    def grow(depth):
        if depth == 4 or rng.random() < 0.2:
            return tree.add_leaf(rng.normal())
        idx = tree.add_internal(rng.integers(n_feat), rng.choice(values))
        tree.left[idx] = grow(depth + 1)
        tree.right[idx] = grow(depth + 1)
        return idx

    grow(depth)
    return tree


def tree_of_depth(rng, n_feat, values, depth, growth):
    """A RegressionTree of exactly `depth` levels, grown at random with
    thresholds drawn from `values` and nodes numbered as `growth` numbers
    them: depthwise growth numbers a node's whole left subtree before its
    right child, leafwise growth a split's two children as a pair after
    every node made before."""
    tree = gbtree.RegressionTree()

    def split(node):
        tree.feature[node] = int(rng.integers(n_feat))
        tree.threshold[node] = float(rng.choice(values))

    if growth == DEPTHWISE:
        # `deep` marks the one path that reaches `depth`.
        def grow(level, deep):
            node = tree.add_leaf(rng.normal())
            if level < depth and (deep or rng.random() < 0.6):
                split(node)
                goes_left = rng.random() < 0.5
                tree.left[node] = grow(level + 1, deep and goes_left)
                tree.right[node] = grow(level + 1, deep and not goes_left)
            return node

        grow(0, True)
        return tree
    level = [0]
    deep = tree.add_leaf(rng.normal())
    extra = int(rng.integers(0, 3 * depth))
    while level[deep] < depth or extra:
        open_leaves = [i for i, f in enumerate(tree.feature)
                       if f < 0 and level[i] < depth]
        if level[deep] < depth and (not extra or rng.random() < 0.5):
            node = deep
        elif not open_leaves:
            break
        else:
            node = int(rng.choice(open_leaves))
            extra -= 1
        split(node)
        tree.left[node] = tree.add_leaf(rng.normal())
        tree.right[node] = tree.add_leaf(rng.normal())
        level += [level[node] + 1] * 2
        if node == deep:
            deep = tree.left[node] if rng.random() < 0.5 else tree.right[node]
    return tree


def walk_rows(tree, X):
    """Per-row reference walk: x[f] < threshold goes left, else right."""
    out = np.empty(X.shape[0])
    for i, x in enumerate(X):
        node = 0
        while tree.feature[node] >= 0:
            go_left = x[tree.feature[node]] < tree.threshold[node]
            node = tree.left[node] if go_left else tree.right[node]
        out[i] = tree.value[node]
    return out


def load_trees(tmp_path, trees, n_features):
    """The trees `load_model` reads from a model file holding the saved
    trees `trees`, all of which `predict` walks."""
    path = tmp_path / "trees.json"
    path.write_text(json.dumps({
        "format_version": gbtree.MODEL_FORMAT_VERSION, "params": {},
        "trees": trees, "base_score": 0.0, "best_iteration": len(trees),
        "feature_names": [f"f{j}" for j in range(n_features)],
        "gain_by_feature": {}}))
    return load_model(path)[0].trees


def tree_depth(tree, node=0):
    if tree.feature[node] < 0:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]),
                   tree_depth(tree, tree.right[node]))


WALKS = ("_walk_rows", "_walk_levels")


class TestTreeWalk:
    """`predict` walks few rows one row at a time and more one level at a
    time; either walk must give the reference walk's values."""

    def test_column_major_walk_matches_row_walk(self):
        rng = np.random.default_rng(21)
        # Few distinct values, so many rows equal a threshold exactly.
        values = np.array([-1.5, 0.0, 0.25, 2.0, 3.0])
        X = rng.choice(values, size=(300, 4))
        XT = np.ascontiguousarray(X.T)
        on_threshold = 0
        for _ in range(50):
            tree = random_tree(rng, 4, values)
            for walk in WALKS:
                assert np.array_equal(getattr(tree, walk)(XT, None),
                                      walk_rows(tree, X))
            on_threshold += sum(
                np.count_nonzero(X[:, f] == t)
                for f, t in zip(tree.feature, tree.threshold) if f >= 0)
        assert on_threshold > 0

    @pytest.mark.parametrize("growth", [DEPTHWISE, LEAFWISE])
    def test_trees_of_every_depth_match_row_walk(self, growth):
        rng = np.random.default_rng(24)
        values = np.array([-1.5, 0.0, 0.25, 2.0, 3.0])
        X = rng.choice(np.append(values, [np.nan, np.inf, -np.inf]),
                       size=(300, 4))
        XT = np.ascontiguousarray(X.T)
        for depth in range(1, 11):
            for _ in range(4):
                tree = tree_of_depth(rng, 4, values, depth, growth)
                assert tree_depth(tree) == depth
                full = walk_rows(tree, X)
                for walk in WALKS:
                    assert np.array_equal(getattr(tree, walk)(XT, None), full)
                assert np.array_equal(tree.predict(XT), full)

    def test_predict_matches_row_walk_on_both_sides_of_the_rule(self):
        rng = np.random.default_rng(22)
        values = np.array([-1.5, 0.0, 0.25, 2.0, 3.0])
        X = rng.choice(values, size=(300, 4))
        sides = set()
        for _ in range(30):
            tree = random_tree(rng, 4, values)
            n_nodes = len(tree.feature)
            for compiled in (False, True):
                # The largest row count still walked by row.
                cut = max(r for r in range(X.shape[0] + 1)
                          if gbtree._walks_by_row(r, n_nodes, compiled))
                assert not gbtree._walks_by_row(cut + 1, n_nodes, compiled)
                for n in (0, 1, cut, cut + 1, X.shape[0]):
                    fresh = copy.deepcopy(tree)
                    if compiled:  # a level walk compiles the tree
                        fresh._walk_levels(np.zeros((4, 1)), None)
                    sides.add(gbtree._walks_by_row(n, n_nodes, compiled))
                    XT = np.ascontiguousarray(X[:n].T)
                    assert np.array_equal(fresh.predict(XT),
                                          walk_rows(tree, X[:n]))
        assert sides == {True, False}

    def test_value_at_threshold_goes_right(self, tmp_path):
        tree = gbtree.RegressionTree()
        root = tree.add_internal(1, 0.5)
        tree.left[root] = tree.add_leaf(-1.0)
        tree.right[root] = tree.add_leaf(1.0)
        XT = np.array([[9.0, 9.0, 9.0], [0.5, 0.4999, 0.5001]])
        for walk in WALKS:
            assert getattr(tree, walk)(XT, None).tolist() == [1.0, -1.0, 1.0]
        # A saved threshold is compared as a float64: 2**53 + 1 rounds to
        # 2**53, so a row at 2**53 goes right in both walks.
        saved, = load_trees(tmp_path, [
            {**tree.to_dict(), "threshold": [2 ** 53 + 1, 0.0, 0.0]}], 2)
        XT = np.array([[0.0], [2.0 ** 53]])
        for walk in WALKS:
            assert getattr(saved, walk)(XT, None).tolist() == [1.0]

    def test_nan_goes_right(self):
        tree = gbtree.RegressionTree()
        root = tree.add_internal(0, 0.5)
        tree.left[root] = tree.add_leaf(-1.0)
        tree.right[root] = tree.add_leaf(1.0)
        XT = np.array([[np.nan, -np.inf, np.inf, -0.0]])
        for walk in WALKS:
            assert getattr(tree, walk)(XT, None).tolist() == \
                [1.0, -1.0, 1.0, -1.0]

    def test_leaf_only_tree_and_no_rows(self):
        tree = gbtree.RegressionTree()
        tree.add_leaf(2.5)
        split = random_tree(np.random.default_rng(3), 2, [0.0, 1.0])
        for walk in WALKS:
            assert getattr(tree, walk)(np.zeros((3, 4)), None).tolist() == \
                [2.5] * 4
            assert getattr(tree, walk)(np.zeros((3, 4)), np.array([2])) \
                .tolist() == [2.5]
            assert getattr(split, walk)(np.zeros((2, 0)), None).size == 0
            assert getattr(split, walk)(np.zeros((2, 5)),
                                        np.arange(0)).size == 0
        assert tree.predict(np.zeros((3, 4))).tolist() == [2.5] * 4
        assert split.predict(np.zeros((2, 0))).size == 0

    def test_row_subset_walks_only_those_rows(self):
        rng = np.random.default_rng(23)
        values = np.array([-1.0, 0.0, 0.5, 2.0])
        X = rng.choice(values, size=(200, 3))
        XT = np.ascontiguousarray(X.T)
        tree = random_tree(rng, 3, values)
        full = walk_rows(tree, X)
        unsorted = rng.permutation(200)[:70]
        for rows in (unsorted, np.sort(unsorted), np.array([5]),
                     np.arange(0), np.arange(200)):
            for walk in WALKS:
                assert np.array_equal(getattr(tree, walk)(XT, rows),
                                      full[rows])
            assert np.array_equal(tree.predict(XT, rows), full[rows])


class TestWalkBlocks:
    """`predict` walks WALK_ROWS rows through every tree at a time; the
    blocks must not change a bit."""

    @pytest.mark.parametrize("by_row", [True, False], ids=["rows", "levels"])
    @pytest.mark.parametrize("n", [6, 7, 8, 15])
    def test_blocks_give_the_unblocked_bits(self, monkeypatch, n, by_row):
        rng = np.random.default_rng(26)
        X = rng.normal(size=(200, 3))
        y = X[:, 0] + np.sin(2 * X[:, 1]) + 0.1 * rng.normal(size=200)
        model, _ = fit(X, y, HyperParams(n_estimators=8, max_depth=5))
        Xn = rng.normal(size=(n, 3))
        monkeypatch.setattr(gbtree, "_walks_by_row", lambda *_: by_row)
        whole = predict(model, Xn)
        monkeypatch.setattr(gbtree, "WALK_ROWS", 7)
        assert np.array_equal(predict(model, Xn), whole)
        # The reference: each tree's reference walk added in tree order.
        expected = np.full(n, model.base_score)
        for tree in model.trees[:model.best_iteration]:
            expected = expected + model.params.learning_rate * walk_rows(
                tree, Xn)
        assert np.array_equal(whole, expected)



def reference_compile(tree):
    """A tree's `_walk_levels` arrays built node by node in Python, each
    node's depth one more than its last parent's."""
    n = len(tree.feature)
    child = []
    depth = [0] * n
    for i, (f, left, right) in enumerate(zip(tree.feature, tree.left,
                                             tree.right)):
        if f < 0:
            child += (i + i, i + i)
        else:
            child += (right + right, left + left)
            depth[left] = depth[right] = depth[i] + 1
    feature = np.fromiter(tree.feature, np.intp, n)
    feature[feature < 0] = 0
    return (feature.repeat(2), np.fromiter(tree.threshold, float, n)
            .repeat(2), np.array(child, dtype=np.intp),
            np.fromiter(tree.value, float, n).repeat(2), max(depth))


def assert_same_levels(levels, reference):
    *arrays, depth = levels
    *expected, expected_depth = reference
    assert depth == expected_depth and type(depth) is int
    for a, b in zip(arrays, expected):
        assert a.dtype == b.dtype
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestCompile:
    """One compiler builds the node arrays of a fitted tree, on its first
    level walk, and of every walked tree of a loaded model at once."""

    @pytest.mark.parametrize("growth", [DEPTHWISE, LEAFWISE])
    def test_loaded_and_fitted_trees_match_reference(self, tmp_path, growth):
        rng = np.random.default_rng(31)
        X = rng.normal(size=(600, 5))
        X[:, 4] = rng.integers(0, 3, 600) * 2 ** 60  # large ints as floats
        y = X[:, 0] * 2 + np.sin(X[:, 1]) + rng.normal(size=600)
        params = HyperParams(n_estimators=30, max_depth=12, growth=growth,
                             min_child_weight=15, gamma=0.5,
                             num_leaves=40, learning_rate=0.3, patience=5)
        model, _ = fit(X[:400], y[:400], params, val=(X[400:], y[400:]))
        assert 1 < model.best_iteration < len(model.trees)
        save_model(model, tmp_path / "model.json")
        loaded, _ = load_model(tmp_path / "model.json")
        walked = loaded.trees[:loaded.best_iteration]
        assert all(t._levels is not None for t in walked)
        assert all(t._levels is None for t in loaded.trees[len(walked):])
        depths = set()
        for tree, fitted in zip(loaded.trees, model.trees):
            reference = reference_compile(fitted)
            depths.add(reference[4])
            fitted._levels = None
            fitted._walk_levels(np.zeros((5, 1)), None)
            assert_same_levels(fitted._levels, reference)
            if tree._levels is None:
                tree._walk_levels(np.zeros((5, 1)), None)
            assert_same_levels(tree._levels, reference)
        assert len(depths) > 2
        assert np.array_equal(predict(loaded, X), predict(model, X))

    def test_node_of_two_parents_counts_from_the_later(self, tmp_path):
        # Not a tree save_model writes, but one load_model accepts.
        d = {"feature": [0, 1, -1, -1, -1], "threshold": [0.5, 2, 0, 0, 0],
             "left": [1, 3, -1, -1, -1], "right": [3, 4, -1, -1, -1],
             "value": [0, 0, 1.5, 2.5, 3.5]}
        tree, = load_trees(tmp_path, [d], 2)
        assert_same_levels(tree._levels, reference_compile(tree))


def reference_tree_fault(d, n_features):
    """The first fault of the tree saved as `d`, worded as `load_model`
    words it after "tree i", or None: the node rules checked in Python,
    one tree and one node at a time."""
    if not isinstance(d, dict):
        return " is not a JSON object"
    missing = [k for k in gbtree.TREE_KEYS if k not in d]
    if missing:
        return f" lacks {', '.join(missing)}"
    if not all(isinstance(d[k], list) for k in gbtree.TREE_KEYS):
        return ": feature, threshold, left, right, value must be lists"
    n = len(d["feature"])
    if n == 0 or any(len(d[k]) != n for k in gbtree.TREE_KEYS):
        return " has no nodes or arrays of unequal length"
    for key in gbtree.TREE_KEYS:
        real = key in ("threshold", "value")
        for v in d[key]:
            if type(v) is int and not real:
                continue
            if real and type(v) in (int, float):
                try:
                    if math.isfinite(v):
                        continue
                except OverflowError:  # an int beyond the largest double
                    pass
            return (" holds a non-numeric node entry: "
                    f"{key} entries must be "
                    f"{'finite numbers' if real else 'integers'}")
    for j, (f, left, right) in enumerate(zip(d["feature"], d["left"],
                                             d["right"])):
        if not -1 <= f < n_features:
            return (f": node {j} splits on feature {f}, outside "
                    f"[-1, {n_features})")
        if f >= 0 and not (j < left < n and j < right < n):
            return (f": node {j} has children {left} and {right}, not both "
                    f"in ({j}, {n})")
        if f < 0 and not left == right == -1:
            return f": leaf {j} has children {left} and {right}, not -1"
    return None


class TestNodeChecks:
    """`load_model` checks all trees' nodes at once: it must refuse what
    the rules checked tree by tree refuse, name the same first fault, and
    read what they accept into the same node lists and arrays."""

    # Entries an edit writes: ints beyond intp and beyond a double, and
    # values of every JSON type.
    EDITS = [0, -1, 1, 2, 3, 5, -2, 2 ** 63, -2 ** 63 - 1, 10 ** 30,
             10 ** 400, -10 ** 400, 0.5, 1.0, True, None, "1",
             float("inf"), float("nan"), 1e308, [1], {}]

    def edit(self, docs, rng):
        """One random edit of the saved trees `docs`: mostly a node entry,
        sometimes a tree's shape."""
        i = rng.integers(len(docs))
        d = docs[i]
        if not isinstance(d, dict):
            return
        key = gbtree.TREE_KEYS[rng.integers(5)]
        shape = rng.integers(12)
        if shape == 0:
            docs[i] = [[], "tree", 3][rng.integers(3)]
        elif shape == 1:
            d.pop(key, None)
        elif shape == 2 and key in d:
            d[key] = 7
        elif shape == 3 and isinstance(d.get(key), list):
            d[key] = d[key][:-1]
        elif isinstance(d.get(key), list) and d[key]:
            d[key][rng.integers(len(d[key]))] = \
                self.EDITS[rng.integers(len(self.EDITS))]

    def test_agrees_with_reference_checks(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 3))
        model, _ = fit(X, X[:, 0] + rng.normal(size=300),
                       HyperParams(n_estimators=4, max_depth=4))
        trees = [t.to_dict() for t in model.trees]
        messages = set()
        for _ in range(800):
            docs = json.loads(json.dumps(trees))
            for _ in range(rng.integers(1, 4)):
                self.edit(docs, rng)
            faults = (f"m: tree {i}{fault}" for i, d in enumerate(docs)
                      if (fault := reference_tree_fault(d, 3)) is not None)
            expected = next(faults, None)
            try:
                loaded, nodes = gbtree._load_trees(docs, 3, "m")
            except DataError as exc:
                assert str(exc) == expected
                messages.add(str(exc).split()[3].rstrip(":"))
                continue
            assert expected is None
            for key, dtype, array in zip(gbtree.TREE_KEYS,
                                         gbtree._NODE_DTYPES, nodes):
                entries = [v for d in docs for v in d[key]]
                assert np.array_equal(array, np.array(entries, dtype))
                held = [v for t in loaded for v in getattr(t, key)]
                if key == "threshold":
                    entries = list(map(float, entries))
                assert held == entries
                assert list(map(type, held)) == list(map(type, entries))
        # Every kind of fault was refused, and some files were accepted.
        assert messages == {"is", "lacks", "feature,", "has", "holds",
                            "node", "leaf"}


class TestFeatureImportance:
    def test_single_split_concentrates(self):
        x0 = np.array([0.0] * 4 + [1.0] * 4)
        X = np.column_stack([x0, np.zeros(8)])
        y = np.array([0.0] * 4 + [10.0] * 4)
        model, _ = fit(X, y, stump_params())
        imp = feature_importance(model)
        assert imp["f0"] == pytest.approx(1.0)
        assert imp["f1"] == 0.0

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(300, 5))
        y = X @ rng.normal(size=5) + 0.1 * rng.normal(size=300)
        model, _ = fit(X, y, HyperParams(n_estimators=10, max_depth=3))
        assert sum(feature_importance(model).values()) == pytest.approx(
            1.0, abs=1e-12)

    def test_zero_split_model_flagged(self):
        X = np.zeros((5, 2))
        y = np.full(5, 1.0)
        model, _ = fit(X, y, HyperParams(n_estimators=2))
        assert model.no_splits
        assert all(v == 0.0 for v in feature_importance(model).values())

    def test_no_splits_follows_gain_through_a_file(self, tmp_path):
        X = np.zeros((5, 2))
        flat, _ = fit(X, np.full(5, 1.0), HyperParams(n_estimators=2))
        split, _ = fit(np.arange(8.0)[:, None], np.arange(8.0),
                       HyperParams(n_estimators=2))
        for model, expected in ((flat, True), (split, False)):
            path = tmp_path / "model.json"
            save_model(model, path)
            assert json.loads(path.read_text())["no_splits"] is expected
            assert load_model(path)[0].no_splits is expected


class TestHyperParamsValidation:
    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            HyperParams(seed=-1)
        assert HyperParams(seed=0).seed == 0

    def test_goss_bounds(self):
        with pytest.raises(ConfigError):
            HyperParams(goss_a=0.8, goss_b=0.4)
        with pytest.raises(ConfigError):
            HyperParams(goss_a=0.2)
        # goss_sample would reject every fit of these params.
        with pytest.raises(ConfigError,
                           match="goss b must be > 0 when a < 1"):
            HyperParams(goss_a=0.5, goss_b=0.0)
        assert HyperParams(goss_a=1.0, goss_b=0.0).goss_b == 0.0

    def test_ranges(self):
        with pytest.raises(ConfigError):
            HyperParams(learning_rate=0.0)
        with pytest.raises(ConfigError):
            HyperParams(subsample=0.0)
        with pytest.raises(ConfigError):
            HyperParams(gamma=-0.1)
        with pytest.raises(ConfigError):
            HyperParams(growth="widthwise")
