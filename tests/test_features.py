import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from cyclecast import gbtree
from cyclecast.dataset import (
    SyntheticConfig, TimeSeriesFrame, generate_synthetic,
)
from cyclecast.errors import ConfigError, DataError
from cyclecast.features import (
    BLOCK_ROWS, FeatureSpec, ablate, build_matrix, ewm_mean, lag,
    rolling_mean, rolling_std, GROUPS,
)


def naive_rolling_mean(series, w):
    out = np.full(len(series), np.nan)
    for t in range(w - 1, len(series)):
        out[t] = sum(series[t - w + 1:t + 1]) / w
    return out


def naive_rolling_std(series, w):
    out = np.full(len(series), np.nan)
    for t in range(w - 1, len(series)):
        window = series[t - w + 1:t + 1]
        mu = sum(window) / w
        out[t] = math.sqrt(sum((x - mu) ** 2 for x in window) / (w - 1))
    return out


class TestRollingMean:
    def test_pairwise(self):
        out = rolling_mean([1, 2, 3, 4], 2)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.5, 2.5, 3.5]

    def test_constant(self):
        out = rolling_mean([3.0] * 10, 4)
        assert np.all(out[3:] == 3.0)

    def test_trailing_window(self):
        out = rolling_mean([3, 1, 4, 1, 5, 9], 3)
        assert out[5] == pytest.approx(5.0)  # (1+5+9)/3

    def test_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(30, 300))
            series = rng.normal(size=n)
            for w in (2, 6, 24):
                got = rolling_mean(series, w)
                want = naive_rolling_mean(series, w)
                assert np.allclose(got[w - 1:], want[w - 1:], atol=1e-9)

    def test_window_errors(self):
        with pytest.raises(ConfigError):
            rolling_mean([1, 2], 0)
        with pytest.raises(DataError):
            rolling_mean([1, 2], 3)


class TestRollingStd:
    def test_constant_is_zero(self):
        out = rolling_std([5.0] * 8, 3)
        assert np.all(out[2:] == 0.0)

    def test_two_points(self):
        out = rolling_std([1.0, 3.0], 2)
        assert out[1] == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_textbook_sample(self):
        out = rolling_std([2, 4, 4, 4, 5, 5, 7, 9], 8)
        assert out[7] == pytest.approx(math.sqrt(32.0 / 7.0), abs=1e-9)

    def test_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(30, 300))
            series = rng.normal(size=n)
            for w in (2, 6, 12):
                got = rolling_std(series, w)
                want = naive_rolling_std(series, w)
                assert np.allclose(got[w - 1:], want[w - 1:], atol=1e-9)

    def test_window_one_rejected(self):
        with pytest.raises(ConfigError):
            rolling_std([1, 2, 3], 1)


class TestLag:
    def test_shift_one(self):
        out = lag([1, 2, 3], 1)
        assert np.isnan(out[0])
        assert out[1:].tolist() == [1.0, 2.0]

    def test_boundary_single_value(self):
        out = lag([7, 8, 9], 2)
        assert np.isnan(out[0]) and np.isnan(out[1])
        assert out[2] == 7.0

    def test_composition(self):
        series = np.arange(10.0)
        double = lag(lag(series, 1), 1)
        direct = lag(series, 2)
        assert np.array_equal(double[2:], direct[2:])

    def test_errors(self):
        with pytest.raises(DataError):
            lag([1, 2], 2)
        with pytest.raises(ConfigError):
            lag([1, 2], 0)


class TestEwmMean:
    def test_constant_fixed_point(self):
        out = ewm_mean([4.0] * 6, 12.0)
        assert np.all(out == 4.0)

    def test_one_step(self):
        out = ewm_mean([0.0, 1.0], 1.0)  # alpha = 0.5
        assert out.tolist() == [0.0, 0.5]

    def test_long_halflife_tracks_first_value(self):
        out = ewm_mean([1.0, 5.0, 5.0], 1e9)
        assert abs(out[-1] - 1.0) < 1e-6

    def test_halflife_decay(self):
        # After `halflife` steps away from a level shift, half the gap closes.
        h = 8.0
        series = np.concatenate([[0.0], np.ones(int(h))])
        out = ewm_mean(series, h)
        assert out[-1] == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("halflife", [0.5, 1.0, 12.0, 168.0, 1e6])
    def test_bit_identical_to_array_loop(self, halflife):
        # The recurrence as a loop over a numpy output array.
        rng = np.random.default_rng(int(halflife * 10) % 1000)
        series = rng.normal(size=2000) * 10.0 ** rng.integers(-3, 4, 2000)
        alpha = 1.0 - 2.0 ** (-1.0 / halflife)
        ref = np.empty(series.size)
        ref[0] = series[0]
        for i in range(1, series.size):
            ref[i] = alpha * series[i] + (1.0 - alpha) * ref[i - 1]
        out = ewm_mean(series, halflife)
        assert out.dtype == np.float64
        assert np.array_equal(out.view(np.int64), ref.view(np.int64))

    def test_errors(self):
        with pytest.raises(ConfigError):
            ewm_mean([1.0], 0.0)
        with pytest.raises(DataError):
            ewm_mean([], 1.0)


def one_shot_rolling_std(series, w):
    """`rolling_std` as one `std` over every window at once."""
    out = np.full(series.size, np.nan)
    out[w - 1:] = sliding_window_view(series, w).std(axis=1, ddof=1)
    return out


def one_shot_ewm_mean(series, halflife):
    """`ewm_mean` as one recurrence over the whole list of values."""
    alpha = 1.0 - 2.0 ** (-1.0 / halflife)
    decay = 1.0 - alpha
    values = series.tolist()
    e = values[0]
    out = [e]
    for v in values[1:]:
        e = alpha * v + decay * e
        out.append(e)
    return np.array(out)


def wide_series(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)


class TestBlockEdges:
    """The blocked transforms equal their one-shot formulas bit for bit on
    either side of a block edge."""

    EDGE = 2 * BLOCK_ROWS

    @pytest.mark.parametrize("w", [2, 24, 168])
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_rolling_std(self, w, offset):
        # Lengths around a block multiple, and window counts around one.
        for n in (self.EDGE + offset, self.EDGE + offset + w - 1):
            series = wide_series(n, w + offset)
            assert np.array_equal(rolling_std(series, w),
                                  one_shot_rolling_std(series, w),
                                  equal_nan=True), n

    @pytest.mark.parametrize("halflife", [0.5, 12.0, 1000.0])
    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_ewm_mean(self, halflife, offset):
        # The recurrence's blocks start after the first value.
        series = wide_series(self.EDGE + offset, offset + 1)
        assert np.array_equal(ewm_mean(series, halflife),
                              one_shot_ewm_mean(series, halflife))


class TestMemoryBound:
    """`build_matrix` writes each column once into the block `values` views,
    and `predict` walks that block in place."""

    @staticmethod
    def peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_build_and_predict_peaks(self):
        frame = generate_synthetic(SyntheticConfig(n_hours=20000, seed=3))
        matrix, build_peak = self.peak(
            lambda: build_matrix(frame, FeatureSpec()))
        assert build_peak <= 1.5 * matrix.values.nbytes
        assert matrix.values.T.flags.c_contiguous
        model, _ = gbtree.fit(matrix.values[:2000], matrix.target[:2000],
                              gbtree.HyperParams(n_estimators=5),
                              feature_names=matrix.column_names)
        _, predict_peak = self.peak(lambda: gbtree.predict(model, matrix))
        assert predict_peak <= 0.5 * matrix.values.nbytes


class TestFeatureSpec:
    def test_default_warmup_is_longest_lag(self):
        assert FeatureSpec().warmup() == 168

    def test_window_without_stat_costs_no_warmup(self):
        # A 24-h window with no stat emits no column, so only lag_1h
        # counts; an ablated column still does, so every ablation arm
        # scores the same rows.
        spec = FeatureSpec(rolling_stats=(), lags=(1,), ewm_halflives=())
        assert spec.warmup() == 1
        assert ablate(FeatureSpec(), "LagFeatures").warmup() == 168
        frame = generate_synthetic(SyntheticConfig(n_hours=100, seed=0))
        assert build_matrix(frame, spec).dropped_warmup == 1

    def test_json_round_trip(self):
        spec = FeatureSpec(rolling_windows=(4, 8), lags=(1, 3))
        # As a model file stores it: tuples come back from JSON as lists.
        again = FeatureSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            FeatureSpec.from_dict({"bogus": 1})

    def test_validation(self):
        with pytest.raises(ConfigError):
            FeatureSpec(rolling_windows=(1,))
        with pytest.raises(ConfigError):
            FeatureSpec(lags=(0,))
        with pytest.raises(ConfigError):
            FeatureSpec(temporal=(("hour", "fourier"),))


class TestBuildMatrix:
    def frame(self, n=600, noise=0.3, seed=0):
        return generate_synthetic(SyntheticConfig(n_hours=n, noise_std=noise,
                                                  seed=seed))

    def test_warmup_from_longest_lookback(self):
        spec = FeatureSpec(rolling_windows=(), rolling_stats=(),
                           lags=(1, 24, 168), ewm_halflives=())
        m = build_matrix(self.frame(), spec)
        assert m.dropped_warmup == 168
        assert m.n_rows == 600 - 168

    def test_rows_map_to_frame_rows(self):
        # Matrix row i comes from frame row 168 + i; a split at a frame
        # row inside the warm-up leaves no matrix row before it.
        frame = self.frame()
        m = build_matrix(frame, FeatureSpec())
        assert m.n_frame_rows == 600
        assert np.array_equal(m.timestamps, frame.timestamps[168:])
        assert np.shares_memory(m.timestamps, frame.timestamps)
        assert not m.timestamps.flags.writeable
        assert [m.split_row(r) for r in (0, 167, 168, 169, 600)] == \
            [0, 0, 0, 1, 432]

    def test_temporal_only_drops_nothing(self):
        spec = FeatureSpec(rolling_windows=(), rolling_stats=(), lags=(),
                           ewm_halflives=(),
                           temporal=(("hour", "sinusoidal"),))
        m = build_matrix(self.frame(50), spec)
        assert m.dropped_warmup == 0
        assert m.values.shape == (50, 2)

    def test_reported_feature_set(self):
        m = build_matrix(self.frame(), FeatureSpec())
        for name in ("rolling_mean_6h", "hour_sin", "rolling_std_6h",
                     "rolling_mean_24h", "dayofweek", "lag_1h", "lag_2h"):
            assert name in m.column_names

    def test_no_nans_and_alignment(self):
        frame = self.frame()
        m = build_matrix(frame, FeatureSpec())
        assert np.all(np.isfinite(m.values))
        assert np.array_equal(m.target, frame.target[m.dropped_warmup:])
        # First retained row: lag_168h equals the raw value 168 rows back.
        col = m.column_names.index("lag_168h")
        assert m.values[0, col] == frame.target[0]

    def test_group_partition(self):
        # Each group's removal drops its own columns; together the four
        # drop every column, each exactly once.
        spec = FeatureSpec()
        full = spec.column_names()
        dropped = {g: [n for n in full
                       if n not in ablate(spec, g).column_names()]
                   for g in GROUPS}
        assert sorted(sum(dropped.values(), [])) == sorted(full)
        assert dropped["Sinusoidal"] == ["hour_sin", "hour_cos"]
        assert "rolling_std_24h" in dropped["RollingStats"]
        assert "lag_168h" in dropped["LagFeatures"]
        assert dropped["Others"] == ["hour", "dayofweek", "ewm_12h"]

    def test_deterministic(self):
        frame = self.frame()
        a = build_matrix(frame, FeatureSpec())
        b = build_matrix(frame, FeatureSpec())
        assert np.array_equal(a.values, b.values)

    def test_frame_too_short(self):
        with pytest.raises(DataError):
            build_matrix(self.frame(100), FeatureSpec())

    every_kind = FeatureSpec(
        rolling_windows=(3, 8), rolling_stats=("mean", "std"),
        lags=(1, 5), ewm_halflives=(12.0, 1.5),
        temporal=tuple((name, strategy)
                       for name in ("hour", "dayofweek", "month")
                       for strategy in ("sinusoidal", "ordinal", "onehot")),
    )

    @pytest.mark.parametrize("t", [8, 300, BLOCK_ROWS - 1, BLOCK_ROWS,
                                   BLOCK_ROWS + 1, BLOCK_ROWS + 9])
    def test_no_row_reads_the_target_at_or_after_it(self, t):
        # Raising y[t:] leaves every matrix row built from frame rows <= t
        # as it was; t runs across the edge of the blocks that
        # rolling_std and ewm_mean work in.
        frame = self.frame(BLOCK_ROWS + 200)
        raised = TimeSeriesFrame(
            timestamps=frame.timestamps,
            target=frame.target + 10.0 * (np.arange(len(frame)) >= t))
        a = build_matrix(frame, self.every_kind)
        b = build_matrix(raised, self.every_kind)
        cut = a.split_row(t + 1)
        assert a.split_row(t) + 1 == cut  # frame row t has a matrix row
        leaks = [name for i, name in enumerate(a.column_names)
                 if not np.array_equal(a.values[:cut, i], b.values[:cut, i])]
        assert leaks == []
        # The next row reads y[t] through lag_1h, so the probe can see.
        assert not np.array_equal(a.values[cut], b.values[cut])

    def test_every_column_kind_under_every_ablation(self):
        spec = self.every_kind
        frame = self.frame(300)
        y = frame.target
        # Windows and EWMs end the row before: each moves down one row.
        transforms = {
            "rolling_mean_3h": lag(rolling_mean(y, 3), 1),
            "rolling_std_3h": lag(rolling_std(y, 3), 1),
            "rolling_mean_8h": lag(rolling_mean(y, 8), 1),
            "rolling_std_8h": lag(rolling_std(y, 8), 1),
            "lag_1h": lag(y, 1),
            "lag_5h": lag(y, 5),
            "ewm_12h": lag(ewm_mean(y, 12.0), 1),
            "ewm_1.5h": lag(ewm_mean(y, 1.5), 1),
        }
        full = spec.column_names()
        assert [n for n in full if n in transforms] == list(transforms)
        for r in range(len(GROUPS)):  # every group set but all of them
            for disabled in itertools.combinations(GROUPS, r):
                sub = replace(spec, disabled_groups=disabled)
                m = build_matrix(frame, sub)
                assert list(m.column_names) == sub.column_names()
                assert m.dropped_warmup == 8  # rolling_*_8h's lookback
                for name, expected in transforms.items():
                    if name in m.column_names:
                        col = m.values[:, m.column_names.index(name)]
                        assert np.array_equal(col, expected[8:]), name


class TestAblate:
    def test_sinusoidal_removal_keeps_ordinal_hour(self):
        spec = ablate(FeatureSpec(), "Sinusoidal")
        names = spec.column_names()
        assert not any(n.endswith("_sin") or n.endswith("_cos")
                       for n in names)
        assert "hour" in names
        assert "hour" not in ablate(spec, "Others").column_names()

    def test_lag_removal(self):
        names = ablate(FeatureSpec(), "LagFeatures").column_names()
        assert not any(n.startswith("lag_") for n in names)

    def test_expected_column_difference(self):
        base = set(FeatureSpec().column_names())
        without = set(ablate(FeatureSpec(), "Sinusoidal").column_names())
        assert base - without == {"hour_sin", "hour_cos"}

    def test_idempotent(self):
        once = ablate(FeatureSpec(), "RollingStats")
        assert ablate(once, "RollingStats") == once

    def test_unknown_group(self):
        with pytest.raises(ConfigError):
            ablate(FeatureSpec(), "Spectral")

    def test_cannot_empty_the_matrix(self):
        spec = FeatureSpec(rolling_windows=(), rolling_stats=(), lags=(),
                           ewm_halflives=(),
                           temporal=(("hour", "sinusoidal"),))
        with pytest.raises(ConfigError):
            ablate(spec, "Sinusoidal")

    def test_with_encoding_rewrites_all_terms(self):
        spec = FeatureSpec().with_encoding("onehot")
        names = spec.column_names()
        assert sum(n.startswith("hour_") for n in names) == 24
        assert sum(n.startswith("dayofweek_") for n in names) == 7
