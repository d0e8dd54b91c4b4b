"""Hourly energy data: CSV ingestion and synthetic generation.

Frames hold the seven household-power measurement columns plus a target
column name. Timestamps are naive local times, read from ISO 8601 text
and held as one datetime64[us] array, so sub-second parts are kept; a
CSV row whose timestamp carries a UTC offset is rejected.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from .encoding import DAYOFWEEK, HOUR
from .errors import ConfigError, DataError

# Canonical internal column names and the UCI-style CSV headers they map to.
CANONICAL_COLUMNS = [
    "global_active_power",
    "global_reactive_power",
    "voltage",
    "global_intensity",
    "sub_metering_1",
    "sub_metering_2",
    "sub_metering_3",
]

DEFAULT_SCHEMA = {
    "Global_active_power": "global_active_power",
    "Global_reactive_power": "global_reactive_power",
    "Voltage": "voltage",
    "Global_intensity": "global_intensity",
    "Sub_metering_1": "sub_metering_1",
    "Sub_metering_2": "sub_metering_2",
    "Sub_metering_3": "sub_metering_3",
}

_CSV_HEADER = {v: k for k, v in DEFAULT_SCHEMA.items()}

DEFAULT_TIME_COL = "datetime"
DEFAULT_START = datetime(2023, 1, 1, 0, 0, 0)
_EPOCH = datetime(1970, 1, 1)
_ONE_HOUR = np.timedelta64(1, "h")

# Base level added to the synthetic target so loads stay positive.
SYNTHETIC_BASE_LEVEL = 2.0


@dataclass(frozen=True)
class TimeSeriesFrame:
    """Immutable time-indexed table of hourly measurements."""

    timestamps: np.ndarray  # datetime64[us], strictly increasing
    columns: dict
    target_name: str = "global_active_power"
    rejected_rows: tuple = ()

    def __post_init__(self):
        n = len(self.timestamps)
        for name, values in self.columns.items():
            if len(values) != n:
                raise DataError(
                    f"column {name!r} has {len(values)} rows, expected {n}"
                )
            values.setflags(write=False)
        if self.target_name not in self.columns:
            raise DataError(f"target column {self.target_name!r} not present")
        self.timestamps.setflags(write=False)
        steps = np.diff(self.timestamps)
        bad = np.flatnonzero(steps <= np.timedelta64(0))
        if bad.size:
            kind = "duplicate" if steps[bad[0]] == 0 else "non-monotonic"
            raise DataError(f"{kind} timestamp at row {bad[0] + 1}")

    def __len__(self):
        return len(self.timestamps)

    @property
    def target(self) -> np.ndarray:
        return self.columns[self.target_name]

    @property
    def gap_count(self) -> int:
        """Missing hourly rows implied by steps longer than one hour."""
        missing = np.diff(self.timestamps) // _ONE_HOUR - 1
        return int(missing[missing > 0].sum())

    def meta(self) -> dict:
        return {
            "rows": len(self),
            "gap_count": self.gap_count,
            "rejected_rows": [list(r) for r in self.rejected_rows],
        }


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters of the synthetic daily/weekly-cycle generator."""

    n_hours: int = 8760
    daily_amplitude: float = 1.0
    weekly_amplitude: float = 0.5
    trend_slope: float = 0.0
    noise_std: float = 0.3
    seed: int = 42

    def __post_init__(self):
        if self.n_hours < 1:
            raise ConfigError("n_hours must be >= 1")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.daily_amplitude < 0 or self.weekly_amplitude < 0:
            raise ConfigError("amplitudes must be >= 0")


def load_csv(path, time_col: str = DEFAULT_TIME_COL,
             target_name: str = "global_active_power",
             allow_missing_target: bool = False) -> TimeSeriesFrame:
    """Load an hourly energy CSV into a TimeSeriesFrame.

    Rows with unparseable cells or a timestamp that carries a UTC offset
    are rejected and recorded in ``rejected_rows`` as (row_index, reason);
    non-monotonic or duplicate timestamps are hard errors. With
    ``allow_missing_target`` a file without the target column loads with
    that column filled by NaN (prediction-only input).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"no such file: {path}")
    schema = dict(DEFAULT_SCHEMA)

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, header row required")
        header = [h.strip() for h in header]
        if time_col not in header:
            raise DataError(f"{path}: missing timestamp column {time_col!r}")
        target_missing = False
        for src in list(schema):
            if src not in header:
                if allow_missing_target and schema[src] == target_name:
                    del schema[src]
                    target_missing = True
                    continue
                raise DataError(f"{path}: missing mapped column {src!r}")
        time_idx = header.index(time_col)
        col_idx = {schema[src]: header.index(src) for src in schema}

        micros = []
        values = {name: [] for name in col_idx}
        rejected = []
        for row_index, row in enumerate(reader):
            try:
                ts = datetime.fromisoformat(row[time_idx].strip())
            except (ValueError, IndexError):
                rejected.append((row_index, "unparseable timestamp"))
                continue
            if ts.tzinfo is not None:
                rejected.append((row_index, "timestamp has a UTC offset"))
                continue
            parsed = {}
            bad = None
            for name, j in col_idx.items():
                try:
                    parsed[name] = float(row[j])
                except (ValueError, IndexError):
                    bad = f"unparseable numeric in column {name!r}"
                    break
                if not math.isfinite(parsed[name]):
                    bad = f"non-finite value in column {name!r}"
                    break
            if bad is not None:
                rejected.append((row_index, bad))
                continue
            micros.append((ts - _EPOCH) // datetime.resolution)
            for name in col_idx:
                values[name].append(parsed[name])

    if not micros:
        raise DataError(f"{path}: no valid data rows")

    columns = {name: np.asarray(vals, dtype=np.float64)
               for name, vals in values.items()}
    if target_missing:
        columns[target_name] = np.full(len(micros), np.nan)
    return TimeSeriesFrame(
        timestamps=np.array(micros, dtype=np.int64).view("datetime64[us]"),
        columns=columns,
        target_name=target_name,
        rejected_rows=tuple(rejected),
    )


def write_csv(frame: TimeSeriesFrame, path) -> None:
    """Write a frame in the canonical CSV schema (round-trips load_csv)."""
    path = Path(path)
    names = [n for n in CANONICAL_COLUMNS if n in frame.columns]
    extra = [n for n in frame.columns if n not in CANONICAL_COLUMNS]
    names += extra
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        header = [DEFAULT_TIME_COL] + [_CSV_HEADER.get(n, n) for n in names]
        writer.writerow(header)
        for i, ts in enumerate(frame.timestamps.tolist()):
            row = [ts.isoformat(sep=" ")]
            row += [repr(float(frame.columns[n][i])) for n in names]
            writer.writerow(row)


def generate_synthetic(config: SyntheticConfig) -> TimeSeriesFrame:
    """Generate an hourly frame with daily and weekly cycles plus trend/noise.

    Deterministic for a fixed seed; each column draws from its own
    spawned PRNG stream so adding columns never perturbs existing ones.
    """
    n = config.n_hours
    timestamps = np.datetime64(DEFAULT_START, "us") + np.arange(n) * _ONE_HOUR
    t = np.arange(n, dtype=np.float64)
    hour = HOUR.phases(timestamps)
    dow_hour = DAYOFWEEK.phases(timestamps) * 24 + hour

    streams = [np.random.default_rng(s)
               for s in np.random.SeedSequence(config.seed).spawn(8)]

    target = (
        SYNTHETIC_BASE_LEVEL
        + config.daily_amplitude * np.sin(2 * np.pi * hour / 24.0)
        + config.weekly_amplitude * np.sin(2 * np.pi * dow_hour / 168.0)
        + config.trend_slope * t
    )
    if config.noise_std > 0:
        target = target + streams[0].normal(0.0, config.noise_std, size=n)

    # Correlated auxiliary columns so the full measurement schema is populated.
    voltage = 240.0 + 2.0 * np.cos(2 * np.pi * hour / 24.0)
    if config.noise_std > 0:
        voltage = voltage + streams[1].normal(0.0, 0.5, size=n)
    reactive = 0.1 * target + (
        streams[2].normal(0.0, 0.02, size=n) if config.noise_std > 0 else 0.0
    )
    intensity = target * 1000.0 / voltage
    shares = (0.2, 0.3, 0.4)
    subs = []
    for j, share in enumerate(shares):
        s = share * np.maximum(target, 0.0) * 1000.0 / 60.0
        if config.noise_std > 0:
            s = s + streams[3 + j].normal(0.0, 0.1, size=n)
        subs.append(s)

    columns = {
        "global_active_power": target,
        "global_reactive_power": np.asarray(reactive, dtype=np.float64),
        "voltage": voltage,
        "global_intensity": intensity,
        "sub_metering_1": subs[0],
        "sub_metering_2": subs[1],
        "sub_metering_3": subs[2],
    }
    return TimeSeriesFrame(timestamps=timestamps, columns=columns)

