"""Design-matrix construction: rolling stats, lags, EWM, temporal encodings.

Backward-looking transforms leave an undefined (NaN) warm-up prefix; the
assembled matrix drops those leading rows so every retained row is fully
defined. Each emitted column is written once into one C-contiguous
features x rows block; the matrix's `values` is the rows x features view
`block.T` of it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import encoding
from .errors import (
    ConfigError, DataError, InvariantError, is_integer, is_real,
)

GROUP_SINUSOIDAL = "Sinusoidal"
GROUP_ROLLING = "RollingStats"
GROUP_LAG = "LagFeatures"
GROUP_OTHERS = "Others"
GROUPS = (GROUP_SINUSOIDAL, GROUP_ROLLING, GROUP_LAG, GROUP_OTHERS)

# Rows per block of `rolling_std` and `ewm_mean`, which bounds their
# temporaries; every row's arithmetic is the same at any block size.
BLOCK_ROWS = 1024


def rolling_mean(series, w):
    """Trailing mean over the most recent w values; NaN before index w-1."""
    series = np.asarray(series, dtype=np.float64)
    if w < 1:
        raise ConfigError(f"window must be >= 1, got {w}")
    if w > series.size:
        raise DataError(f"window {w} exceeds series length {series.size}")
    out = np.full(series.size, np.nan)
    out[w - 1:] = sliding_window_view(series, w).mean(axis=1)
    return out


def rolling_std(series, w):
    """Trailing sample std (w-1 denominator); NaN before index w-1.

    `std` runs over a fixed block of BLOCK_ROWS windows at a time, so its
    temporary holds BLOCK_ROWS x w values, not w per row of the series."""
    series = np.asarray(series, dtype=np.float64)
    if w < 2:
        raise ConfigError(f"rolling_std window must be >= 2, got {w}")
    if w > series.size:
        raise DataError(f"window {w} exceeds series length {series.size}")
    out = np.full(series.size, np.nan)
    windows, tail = sliding_window_view(series, w), out[w - 1:]
    for lo in range(0, len(windows), BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        tail[lo:hi] = windows[lo:hi].std(axis=1, ddof=1)
    return out


def lag(series, k):
    """Value k rows earlier; NaN for the first k rows."""
    series = np.asarray(series, dtype=np.float64)
    if k < 1:
        raise ConfigError(f"lag must be >= 1, got {k}")
    if k >= series.size:
        raise DataError(f"lag {k} >= series length {series.size}")
    out = np.full(series.size, np.nan)
    out[k:] = series[:-k]
    return out


def ewm_mean(series, halflife):
    """Exponentially weighted mean, e_0 = y_0, alpha = 1 - 2**(-1/halflife).

    The recurrence carries its state across fixed blocks of BLOCK_ROWS
    values, each made as a list and copied into the preallocated result."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise DataError("ewm_mean of empty series")
    if halflife <= 0:
        raise ConfigError(f"halflife must be > 0, got {halflife}")
    alpha = 1.0 - 2.0 ** (-1.0 / halflife)
    decay = 1.0 - alpha
    out = np.empty(series.size)
    # The recurrence runs on Python floats: the same IEEE arithmetic as
    # numpy scalars, at a fraction of the cost per step.
    e = out[0] = float(series[0])
    for lo in range(1, series.size, BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        block = []
        for v in series[lo:hi].tolist():
            e = alpha * v + decay * e
            block.append(e)
        out[lo:hi] = block
    return out


def _target_columns(spec):
    """(name, transform, argument) of each column derived from the target,
    in emitted order: rolling stats, then lags, then EWM means."""
    rolling = {"mean": rolling_mean, "std": rolling_std}
    columns = [(f"rolling_{stat}_{w}h", rolling[stat], w)
               for w in spec.rolling_windows for stat in spec.rolling_stats]
    columns += [(f"lag_{k}h", lag, k) for k in spec.lags]
    for h in spec.ewm_halflives:
        label = int(h) if float(h).is_integer() else h
        columns.append((f"ewm_{label}h", ewm_mean, h))
    return columns


def needs_target_history(spec) -> bool:
    """Whether the spec emits a column derived from the target."""
    emitted = set(spec.column_names())
    return any(name in emitted for name, _, _ in _target_columns(spec))


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_term(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) == 2
            and all(map(_is_str, value)))


# Per FeatureSpec field, the check each item of its list must pass and
# how an error message names such items.
_SPEC_ITEMS = {
    "rolling_windows": (is_integer, "integers"),
    "rolling_stats": (_is_str, "strings"),
    "lags": (is_integer, "integers"),
    "ewm_halflives": (is_real, "numbers"),
    "temporal": (_is_term, "[name, strategy] string pairs"),
    "disabled_groups": (_is_str, "strings"),
}


@dataclass(frozen=True)
class FeatureSpec:
    """Declarative recipe for the design matrix.

    ``temporal`` is a list of (feature_name, strategy) pairs resolved
    against the encoding registry. ``disabled_groups`` supports ablation.
    """

    rolling_windows: tuple = (6, 12, 24)
    rolling_stats: tuple = ("mean", "std")
    lags: tuple = (1, 2, 24, 168)
    ewm_halflives: tuple = (12.0,)
    temporal: tuple = (
        ("hour", encoding.SINUSOIDAL),
        ("hour", encoding.ORDINAL),
        ("dayofweek", encoding.ORDINAL),
    )
    disabled_groups: tuple = ()

    def __post_init__(self):
        for w in self.rolling_windows:
            if w < 2:
                raise ConfigError(f"rolling window must be >= 2, got {w}")
        for k in self.lags:
            if k < 1:
                raise ConfigError(f"lag must be >= 1, got {k}")
        for h in self.ewm_halflives:
            if h <= 0:
                raise ConfigError(f"halflife must be > 0, got {h}")
        for stat in self.rolling_stats:
            if stat not in ("mean", "std"):
                raise ConfigError(f"unknown rolling stat {stat!r}")
        for name, strategy in self.temporal:
            if name not in encoding.FEATURES:
                raise ConfigError(f"unknown cyclic feature {name!r}")
            if strategy not in encoding.STRATEGIES:
                raise ConfigError(f"unknown encoding strategy {strategy!r}")
        for g in self.disabled_groups:
            if g not in GROUPS:
                raise ConfigError(f"unknown feature group {g!r}")

    def warmup(self) -> int:
        lookbacks = [0]
        lookbacks += [k for k in self.lags]
        lookbacks += [w - 1 for w in self.rolling_windows]
        return max(lookbacks)

    def with_encoding(self, strategy: str) -> "FeatureSpec":
        """Re-encode every cyclic feature with one strategy (deduplicated)."""
        if strategy not in encoding.STRATEGIES:
            raise ConfigError(f"unknown encoding strategy {strategy!r}")
        seen = []
        for name, _ in self.temporal:
            if name not in seen:
                seen.append(name)
        return replace(self, temporal=tuple((n, strategy) for n in seen))

    def column_names(self):
        """Emitted column names in deterministic order, minus ablated groups."""
        names = []
        for fname, strategy in self.temporal:
            feat = encoding.FEATURES[fname]
            names.extend(encoding.encoded_column_names(feat, strategy))
        names += [name for name, _, _ in _target_columns(self)]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature column names in spec")
        return [n for n in names if group_of(n) not in self.disabled_groups]

    def to_dict(self) -> dict:
        return {
            "rolling_windows": list(self.rolling_windows),
            "rolling_stats": list(self.rolling_stats),
            "lags": list(self.lags),
            "ewm_halflives": list(self.ewm_halflives),
            "temporal": [list(t) for t in self.temporal],
            "disabled_groups": list(self.disabled_groups),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSpec":
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise ConfigError(f"unknown feature-spec keys: {sorted(extra)}")
        kwargs = {}
        for key, value in d.items():
            ok, what = _SPEC_ITEMS[key]
            if not isinstance(value, (list, tuple)) or \
                    not all(map(ok, value)):
                raise ConfigError(
                    f"feature-spec {key!r} must be a list of {what}, "
                    f"got {value!r}")
            kwargs[key] = tuple(tuple(v) if key == "temporal" else v
                                for v in value)
        return cls(**kwargs)


def group_of(column_name: str) -> str:
    """Ablation group a column belongs to (partition over all columns)."""
    if column_name.endswith("_sin") or column_name.endswith("_cos"):
        return GROUP_SINUSOIDAL
    if column_name.startswith("rolling_"):
        return GROUP_ROLLING
    if column_name.startswith("lag_"):
        return GROUP_LAG
    return GROUP_OTHERS


def ablate(spec: FeatureSpec, group: str) -> FeatureSpec:
    """Spec with one named group removed from the emitted columns."""
    if group not in GROUPS:
        raise ConfigError(f"unknown feature group {group!r}")
    if not any(group_of(n) == group for n in spec.column_names()):
        if group in spec.disabled_groups:
            return spec  # idempotent
        raise ConfigError(f"group {group!r} emits no columns in this spec")
    out = replace(spec, disabled_groups=tuple(
        sorted(set(spec.disabled_groups) | {group})
    ))
    if not out.column_names():
        raise ConfigError("ablating this group would leave an empty matrix")
    return out


@dataclass(frozen=True)
class FeatureMatrix:
    """Dense design matrix with row-aligned target and timestamps.

    `values` is rows x features, a view of a C-contiguous features x rows
    block, so `values.T` walks each feature without a copy. `timestamps`
    is a read-only view of the frame's, one per matrix row.

    This class alone knows which frame row each matrix row came from:
    a split at a frame row cuts the matrix at `split_row(frame_row)`, and
    `n_frame_rows` is the length of the frame the matrix was built from.
    Hold-out, CV folds and `predict` go through these, never through
    `dropped_warmup`, the count of leading frame rows without a matrix
    row.
    """

    column_names: tuple
    values: np.ndarray
    target: np.ndarray
    timestamps: np.ndarray
    dropped_warmup: int

    def __post_init__(self):
        if self.values.shape != (self.target.size, len(self.column_names)):
            raise InvariantError("feature matrix shape mismatch")
        if self.timestamps.shape != self.target.shape:
            raise InvariantError("feature matrix timestamps misaligned")
        if not np.all(np.isfinite(self.values)):
            raise InvariantError("non-finite values in feature matrix")
        self.values.setflags(write=False)
        self.target.setflags(write=False)
        self.timestamps.setflags(write=False)

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_frame_rows(self):
        """Rows of the frame the matrix was built from, warm-up included."""
        return self.dropped_warmup + self.n_rows

    def split_row(self, frame_row) -> int:
        """The matrix row where a split at frame row `frame_row` cuts: the
        number of matrix rows built from frame rows before it (0 for a
        split inside the warm-up)."""
        return max(frame_row - self.dropped_warmup, 0)


def build_matrix(frame, spec: FeatureSpec) -> FeatureMatrix:
    """Materialize the design matrix for a frame under a feature spec.

    Column order is temporal, rolling, lag, ewm; leading rows where any
    backward-looking column is undefined are dropped. Columns are made one
    temporal term or target transform at a time, and each is written once
    into the block behind `values`.
    """
    names = spec.column_names()
    if not names:
        raise ConfigError("feature spec emits no columns")
    warmup = spec.warmup()
    if len(frame) <= warmup:
        raise DataError(
            f"frame has {len(frame)} rows, needs more than the "
            f"{warmup}-row warm-up"
        )
    y = frame.target
    slot = {name: i for i, name in enumerate(names)}
    block = np.empty((len(names), len(frame) - warmup))

    for fname, strategy in spec.temporal:
        term = (encoding.FEATURES[fname], strategy)
        for name, column in encoding.expand_temporal(frame, [term]).items():
            if name in slot:
                block[slot[name]] = column[warmup:]
    for name, transform, arg in _target_columns(spec):
        if name in slot:
            block[slot[name]] = transform(y, arg)[warmup:]

    return FeatureMatrix(
        column_names=tuple(names),
        values=block.T,
        target=y[warmup:].copy(),
        timestamps=frame.timestamps[warmup:],
        dropped_warmup=warmup,
    )
