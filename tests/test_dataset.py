import numpy as np
import pytest

from cyclecast.dataset import (
    SyntheticConfig, TimeSeriesFrame, generate_synthetic, load_csv,
    write_csv, CANONICAL_COLUMNS,
)
from cyclecast.errors import ConfigError, DataError
from cyclecast.evaluation import train_rows

HEADER = ("datetime,Global_active_power,Global_reactive_power,Voltage,"
          "Global_intensity,Sub_metering_1,Sub_metering_2,Sub_metering_3")


def make_csv(tmp_path, rows, name="data.csv", header=HEADER):
    path = tmp_path / name
    path.write_text("\n".join([header] + rows) + "\n")
    return path


def row(ts, value=1.0):
    return f"{ts},{value},0.1,240.0,4.2,0.0,1.0,2.0"


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00", 1.5),
            row("2023-01-01 01:00:00", 2.5),
            row("2023-01-01 02:00:00", 3.5),
        ])
        frame = load_csv(path)
        assert len(frame) == 3
        assert frame.timestamps[0] < frame.timestamps[1] < frame.timestamps[2]
        assert frame.target.tolist() == [1.5, 2.5, 3.5]
        assert frame.gap_count == 0
        assert frame.rejected_rows == ()

    def test_out_of_order_reports_row(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 02:00:00"),
            row("2023-01-01 01:00:00"),
        ])
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_duplicate_timestamp(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 00:00:00"),
        ])
        with pytest.raises(DataError, match="duplicate"):
            load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "absent.csv")

    def test_missing_mapped_column(self, tmp_path):
        path = make_csv(tmp_path, ["2023-01-01 00:00:00,1.0"],
                        header="datetime,Global_active_power")
        with pytest.raises(DataError, match="missing mapped column"):
            load_csv(path)

    def test_bad_numeric_rejected_with_index(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            "2023-01-01 01:00:00,oops,0.1,240.0,4.2,0.0,1.0,2.0",
            row("2023-01-01 02:00:00"),
        ])
        frame = load_csv(path)
        assert len(frame) == 2
        assert frame.rejected_rows[0][0] == 1
        assert "global_active_power" in frame.rejected_rows[0][1]

    def test_gap_flagged_not_fatal(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 03:00:00"),
        ])
        frame = load_csv(path)
        assert frame.gap_count == 2
        # A 90-minute step misses no whole hourly row.
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 01:30:00"),
        ], name="ninety.csv")
        assert load_csv(path).gap_count == 0

    def test_utc_offset_rejected_with_index(self, tmp_path):
        path = make_csv(tmp_path, [
            row("2023-01-01 00:00:00"),
            row("2023-01-01 01:00:00+01:00"),
            row("2023-01-01 02:00:00"),
        ])
        frame = load_csv(path)
        assert len(frame) == 2
        assert frame.rejected_rows == ((1, "timestamp has a UTC offset"),)

    def test_year_scale_file(self, tmp_path):
        # Hourly 2023 file at the 8,737-row scale loads in full.
        frame = generate_synthetic(SyntheticConfig(n_hours=8737, seed=1))
        path = tmp_path / "year.csv"
        write_csv(frame, path)
        loaded = load_csv(path)
        assert len(loaded) == 8737
        years = loaded.timestamps[[0, -1]].astype("datetime64[Y]")
        assert np.array_equal(years, np.array(["2023", "2023"],
                                              dtype="datetime64[Y]"))

    def test_round_trip_bit_exact(self, tmp_path):
        frame = generate_synthetic(SyntheticConfig(n_hours=100, seed=9))
        path = tmp_path / "rt.csv"
        write_csv(frame, path)
        loaded = load_csv(path)
        assert np.array_equal(loaded.timestamps, frame.timestamps)
        for name in CANONICAL_COLUMNS:
            assert np.array_equal(loaded.columns[name], frame.columns[name])

    def test_sub_second_timestamp_round_trip(self, tmp_path):
        text = row("2023-01-01 00:00:00.500000", 1.5)
        path = make_csv(tmp_path, [text])
        out = tmp_path / "out.csv"
        write_csv(load_csv(path), out)
        assert out.read_text().splitlines()[1] == text


class TestGenerateSynthetic:
    def test_all_components_zero_gives_constant(self):
        cfg = SyntheticConfig(n_hours=48, daily_amplitude=0.0,
                              weekly_amplitude=0.0, trend_slope=0.0,
                              noise_std=0.0)
        frame = generate_synthetic(cfg)
        assert np.ptp(frame.target) == 0.0

    def test_quarter_period_difference(self):
        # hour 6 minus hour 18 on the same day: sin(pi/2) - sin(3pi/2) = 2.
        cfg = SyntheticConfig(n_hours=24, daily_amplitude=1.0,
                              weekly_amplitude=0.0, trend_slope=0.0,
                              noise_std=0.0)
        frame = generate_synthetic(cfg)
        assert frame.target[6] - frame.target[18] == pytest.approx(2.0, abs=1e-12)

    def test_same_seed_bit_identical(self):
        a = generate_synthetic(SyntheticConfig(n_hours=200, seed=7))
        b = generate_synthetic(SyntheticConfig(n_hours=200, seed=7))
        assert np.array_equal(a.timestamps, b.timestamps)
        for name in a.columns:
            assert np.array_equal(a.columns[name], b.columns[name])

    def test_different_seed_differs(self):
        a = generate_synthetic(SyntheticConfig(n_hours=50, seed=1))
        b = generate_synthetic(SyntheticConfig(n_hours=50, seed=2))
        assert not np.array_equal(a.target, b.target)

    def test_schema_fully_populated(self):
        frame = generate_synthetic(SyntheticConfig(n_hours=24))
        assert set(frame.columns) == set(CANONICAL_COLUMNS)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            SyntheticConfig(n_hours=0)
        with pytest.raises(ConfigError):
            SyntheticConfig(noise_std=-1.0)


class TestTemporalSplit:
    """The hold-out split of a frame's rows, drawn by `train_rows`."""

    def test_eighty_twenty(self):
        assert train_rows(10, 0.2) == 8
        assert train_rows(50, 0.37) == 32

    def test_boundary_keeps_one_train_row(self):
        # ceil(0.001 * 10) = 1: the split is legal with a single train row.
        assert train_rows(10, 0.999) == 1

    def test_empty_test_rejected(self):
        with pytest.raises(ConfigError):
            train_rows(10, 0.0001)

    def test_fraction_bounds(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                train_rows(10, bad)

    def test_too_short(self):
        with pytest.raises(DataError):
            train_rows(1, 0.5)


def stamps(*texts):
    return np.array(texts, dtype="datetime64[us]")


class TestFrameInvariants:
    def test_target_must_exist(self):
        with pytest.raises(DataError):
            TimeSeriesFrame(
                timestamps=stamps("2023-01-01"),
                columns={"voltage": np.array([240.0])},
                target_name="global_active_power",
            )

    def test_column_length_mismatch(self):
        with pytest.raises(DataError):
            TimeSeriesFrame(
                timestamps=stamps("2023-01-01"),
                columns={"global_active_power": np.array([1.0, 2.0])},
            )

    def test_columns_read_only(self):
        frame = generate_synthetic(SyntheticConfig(n_hours=10))
        with pytest.raises(ValueError):
            frame.target[0] = 99.0
