import json
import math

import numpy as np
import pytest

from cyclecast.errors import ConfigError, DataError
from cyclecast.gbtree import (
    DEPTHWISE, LEAFWISE, GbtModel, HyperParams, XGB_STYLE_OPTIMAL,
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
        assert split_gain(1.0, 2.0, 1.0, 2.0, 0.0, 0.0) == pytest.approx(0.0)

    def test_gain_arithmetic(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, 0.0, 0.0) == pytest.approx(4.0)

    def test_gamma_penalty_rejects(self):
        assert split_gain(-2.0, 1.0, 2.0, 1.0, 0.0, 100.0) < 0.0


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

    def test_single_row_node_is_leaf(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        model, _ = fit(X, y, stump_params(subsample=0.5))
        assert model.trees[0].feature == [-1]
        assert model.no_splits


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

    def test_reference_optimal_config_echoed(self):
        X = np.arange(20.0).reshape(-1, 1)
        y = np.sin(X[:, 0])
        params = HyperParams(**{**XGB_STYLE_OPTIMAL.to_dict(),
                                "n_estimators": 3})
        model, _ = fit(X, y, params)
        assert model.params.learning_rate == 0.023764
        assert model.params.max_depth == 6
        assert model.params.subsample == 0.6
        assert model.params.colsample_bytree == 1.0
        assert model.params.gamma == 0.97328
        assert XGB_STYLE_OPTIMAL.n_estimators == 1000

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

    def test_version_check(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format_version": 99}))
        with pytest.raises(DataError, match="version"):
            load_model(path)


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


class TestHyperParamsValidation:
    def test_goss_bounds(self):
        with pytest.raises(ConfigError):
            HyperParams(goss_a=0.8, goss_b=0.4)
        with pytest.raises(ConfigError):
            HyperParams(goss_a=0.2)

    def test_ranges(self):
        with pytest.raises(ConfigError):
            HyperParams(learning_rate=0.0)
        with pytest.raises(ConfigError):
            HyperParams(subsample=0.0)
        with pytest.raises(ConfigError):
            HyperParams(gamma=-0.1)
        with pytest.raises(ConfigError):
            HyperParams(growth="widthwise")
