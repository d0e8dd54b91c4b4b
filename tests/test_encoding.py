import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from cyclecast.dataset import SyntheticConfig, generate_synthetic
from cyclecast.encoding import (
    DAYOFWEEK, FEATURES, HOUR, MONTH, CyclicFeature, cyclic_distance,
    encode_sinusoidal, encoded_column_names, expand_temporal,
)
from cyclecast.errors import ConfigError, DataError


class TestSinusoidal:
    def test_phase_zero(self):
        assert encode_sinusoidal(0, 24) == (0.0, 1.0)

    def test_quarter_period(self):
        s, c = encode_sinusoidal(6, 24)
        assert s == pytest.approx(1.0, abs=1e-15)
        assert c == pytest.approx(0.0, abs=1e-15)

    def test_hour_23(self):
        # Independent evaluation of sin/cos(2*pi*23/24).
        s, c = encode_sinusoidal(23, 24)
        assert s == pytest.approx(-0.25881904510252074, abs=1e-12)
        assert c == pytest.approx(0.9659258262890683, abs=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            encode_sinusoidal(24, 24)
        with pytest.raises(ConfigError):
            encode_sinusoidal(-1, 24)
        with pytest.raises(ConfigError):
            encode_sinusoidal(0, 1)

    def test_unit_circle_random_phases(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            period = int(rng.integers(2, 200))
            t = int(rng.integers(0, period))
            s, c = encode_sinusoidal(t, period)
            assert abs(s * s + c * c - 1.0) < 1e-12

    def test_injective_over_period(self):
        for period in (7, 12, 24):
            points = {encode_sinusoidal(t, period) for t in range(period)}
            assert len(points) == period


class TestCyclicDistance:
    def test_wraparound_symmetry(self):
        assert cyclic_distance(23, 0, 24) == pytest.approx(
            cyclic_distance(0, 1, 24), abs=1e-12)

    def test_antipodal(self):
        assert cyclic_distance(0, 12, 24) == pytest.approx(2.0, abs=1e-12)

    def test_adjacent_hours(self):
        # Closed form 2*sin(pi/24), cross-checked componentwise.
        assert cyclic_distance(0, 1, 24) == pytest.approx(
            2.0 * math.sin(math.pi / 24.0), abs=1e-12)
        assert cyclic_distance(0, 1, 24) == pytest.approx(0.2610523844, abs=1e-9)

    def test_closed_form_matches_components(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            period = int(rng.integers(2, 169))
            t1 = int(rng.integers(0, period))
            t2 = int(rng.integers(0, period))
            expect = 2.0 * abs(math.sin(math.pi * (t1 - t2) / period))
            assert cyclic_distance(t1, t2, period) == pytest.approx(
                expect, abs=1e-12)

    def test_zero_iff_equal(self):
        assert cyclic_distance(5, 5, 24) == 0.0
        assert cyclic_distance(5, 6, 24) > 0.0

    def test_adjacent_distance_constant(self):
        for period in (7, 12, 24, 168):
            dists = [cyclic_distance(t, (t + 1) % period, period)
                     for t in range(period)]
            assert max(dists) - min(dists) < 1e-12


class TestOrdinalOnehot:
    """Ordinal and one-hot columns from `expand_temporal`. The synthetic
    frame starts at 2023-01-01 00:00, a Sunday."""

    def frame(self, n):
        return generate_synthetic(SyntheticConfig(n_hours=n, noise_std=0.0))

    def onehot_rows(self, frame, feature):
        block = expand_temporal(frame, [(feature, "onehot")])
        return np.column_stack(list(block.values()))

    def test_ordinal_identity(self):
        block = expand_temporal(self.frame(48), [(HOUR, "ordinal")])
        assert block["hour"].tolist() == [float(h % 24) for h in range(48)]

    def test_ordinal_discontinuity_vs_cyclic(self):
        # Hours 23 -> 0 look maximally far apart ordinally but are
        # adjacent on the circle.
        frame = self.frame(25)
        block = expand_temporal(frame, [(HOUR, "ordinal"),
                                        (HOUR, "sinusoidal")])
        assert block["hour"][23] - block["hour"][24] == 23.0
        xy = np.column_stack([block["hour_sin"], block["hour_cos"]])
        assert np.linalg.norm(xy[23] - xy[24]) == pytest.approx(
            np.linalg.norm(xy[3] - xy[4]), abs=1e-12)

    def test_onehot_basis(self):
        rows = self.onehot_rows(self.frame(48), FEATURES["dayofweek"])
        assert rows[0].tolist() == [0, 0, 0, 0, 0, 0, 1]  # Sunday
        assert rows[24].tolist() == [1, 0, 0, 0, 0, 0, 0]  # Monday

    def test_onehot_sums_to_one(self):
        rows = self.onehot_rows(self.frame(8760), MONTH)
        assert rows.shape == (8760, 12)
        assert np.all(rows.sum(axis=1) == 1.0)
        assert np.all(rows.sum(axis=0) > 0)  # every month appears

    def test_onehot_out_of_range(self):
        bad = CyclicFeature("weekday", 7, lambda ts: np.full(len(ts), 7))
        with pytest.raises(DataError):
            expand_temporal(self.frame(3), [(bad, "onehot")])


class TestCalendarPhases:
    """datetime64 phase arithmetic against `datetime`'s own calendar."""

    @pytest.mark.parametrize("start,end", [
        (datetime(1969, 12, 31), datetime(1970, 1, 2)),
        (datetime(2023, 12, 31), datetime(2024, 1, 1)),
        (datetime(2024, 2, 28), datetime(2024, 3, 1)),
    ])
    def test_phases_match_datetime(self, start, end):
        hours = int((end - start) / timedelta(hours=1)) + 1
        stamps = [start + timedelta(hours=i) for i in range(hours)]
        ts = np.array(stamps, dtype="datetime64[us]")
        assert HOUR.phases(ts).tolist() == [s.hour for s in stamps]
        assert DAYOFWEEK.phases(ts).tolist() == [s.weekday() for s in stamps]
        assert MONTH.phases(ts).tolist() == [s.month - 1 for s in stamps]


class TestColumnContract:
    def test_column_counts(self):
        assert len(encoded_column_names(HOUR, "ordinal")) == 1
        assert len(encoded_column_names(HOUR, "sinusoidal")) == 2
        assert len(encoded_column_names(HOUR, "onehot")) == 24

    def test_names(self):
        assert encoded_column_names(HOUR, "sinusoidal") == ["hour_sin",
                                                            "hour_cos"]
        assert encoded_column_names(FEATURES["dayofweek"], "ordinal") == [
            "dayofweek"]


class TestExpandTemporal:
    def frame(self, n=72):
        return generate_synthetic(SyntheticConfig(n_hours=n, noise_std=0.0))

    def test_sinusoidal_quarter_points(self):
        frame = self.frame(24)
        block = expand_temporal(frame, [(HOUR, "sinusoidal")])
        assert block["hour_sin"][0] == pytest.approx(0.0, abs=1e-15)
        assert block["hour_sin"][6] == pytest.approx(1.0, abs=1e-15)
        assert block["hour_sin"][12] == pytest.approx(0.0, abs=1e-15)
        assert block["hour_cos"][0] == pytest.approx(1.0, abs=1e-15)
        assert block["hour_cos"][6] == pytest.approx(0.0, abs=1e-15)
        assert block["hour_cos"][12] == pytest.approx(-1.0, abs=1e-15)

    def test_dayofweek_ordinal_range(self):
        frame = self.frame(24 * 8)
        block = expand_temporal(frame, [(FEATURES["dayofweek"], "ordinal")])
        assert sorted(set(block["dayofweek"])) == [0, 1, 2, 3, 4, 5, 6]

    def test_month_wraparound_adjacency(self):
        # December -> January is as close as January -> February.
        assert cyclic_distance(11, 0, MONTH.period) == pytest.approx(
            cyclic_distance(0, 1, MONTH.period), abs=1e-12)

    def test_row_count_preserved(self):
        frame = self.frame(50)
        block = expand_temporal(frame, [(HOUR, "onehot")])
        assert all(v.size == 50 for v in block.values())

    def test_duplicate_columns_rejected(self):
        frame = self.frame(10)
        with pytest.raises(ConfigError):
            expand_temporal(frame, [(HOUR, "ordinal"), (HOUR, "ordinal")])


# Hour-based phases for periods that no calendar feature has.
HOURLY = {p: CyclicFeature(f"every_{p}h", p, lambda ts, p=p: (
    ts.astype("datetime64[h]").astype(np.int64) % p)) for p in (60, 365)}


@pytest.mark.parametrize("feature", list(FEATURES.values())
                         + list(HOURLY.values()),
                         ids=lambda f: f"{f.name}-{f.period}")
def test_sinusoidal_table_matches_each_row(feature):
    # One sin and cos per phase, looked up per row, are bit for bit what
    # sin and cos of each row's angle give.
    frame = generate_synthetic(SyntheticConfig(n_hours=9000, seed=1))
    phases = feature.phases(frame.timestamps)
    assert np.array_equal(np.unique(phases), np.arange(feature.period))
    angle = 2.0 * np.pi * phases / feature.period
    sin, cos = expand_temporal(
        frame, [(feature, "sinusoidal")]).values()
    assert np.array_equal(sin.view(np.int64), np.sin(angle).view(np.int64))
    assert np.array_equal(cos.view(np.int64), np.cos(angle).view(np.int64))
