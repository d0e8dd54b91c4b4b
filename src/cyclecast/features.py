"""Design-matrix construction: rolling stats, lags, EWM, temporal encodings.

One table, `_columns`, declares every column a spec can emit: its name,
ablation group, lookback and how to make it. Columns derived from the
target are causal: at row t a rolling window covers y[t-w .. t-1], the
EWM is the one carried to row t-1, and lag k is y[t-k], so no column at
row t reads y[t]. A column is undefined (NaN) on its first `lookback`
rows; the assembled matrix drops the longest lookback of any declared
column, ablated ones included, so every ablation arm scores the same
rows. Each emitted column is written once into one C-contiguous
features x rows block; the matrix's `values` is the rows x features view
`block.T` of it.

Rolling means and standard deviations are made BLOCK_ROWS windows at a
time as long vector passes over the w shifted slices of the series,
added in the order numpy's pairwise sum adds each window (Higham 1993),
so they equal `sliding_window_view`'s one-shot mean and std bit for bit;
a window with both stats makes its mean once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import encoding
from .errors import (
    ConfigError, DataError, InvariantError, is_integer, is_real,
)

GROUP_SINUSOIDAL = "Sinusoidal"
GROUP_ROLLING = "RollingStats"
GROUP_LAG = "LagFeatures"
GROUP_OTHERS = "Others"
GROUPS = (GROUP_SINUSOIDAL, GROUP_ROLLING, GROUP_LAG, GROUP_OTHERS)

# Rows per block of the rolling and EWM transforms, which bounds their
# temporaries: a rolling window's eight running sums of one block take
# 48 KiB each. Every row's arithmetic is the same at any block size.
BLOCK_ROWS = 6144
# numpy's pairwise_sum adds up to this many values with eight interleaved
# accumulators; a longer run is cut in two at a multiple of 8.
_PAIRWISE_RUN = 128


def _pairwise_sum(term, lo, n):
    """term(lo) + ... + term(lo + n - 1), each an array over one block of
    rows, added in the order numpy's pairwise_sum adds n values along a
    reduced axis: left to right below 8 terms; up to _PAIRWISE_RUN terms,
    eight accumulators r0..r7 over every eighth term, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the terms left over; beyond
    that, the sums of the two halves, cut at a multiple of 8 below the
    middle. `term(k, True)` must return a new array, which becomes an
    accumulator; `term(k, False)` may return a view or scratch space that
    the next call reuses."""
    if n > _PAIRWISE_RUN:
        half = n // 2 - n // 2 % 8
        total = _pairwise_sum(term, lo, half)
        total += _pairwise_sum(term, lo + half, n - half)
        return total
    if n < 8:
        total = term(lo, True)
        for k in range(lo + 1, lo + n):
            total += term(k, False)
        return total
    stop = lo + n - n % 8
    acc = [term(k, True) for k in range(lo, lo + 8)]
    for base in range(lo + 8, stop, 8):
        for r, k in zip(acc, range(base, base + 8)):
            r += term(k, False)
    r0, r1, r2, r3, r4, r5, r6, r7 = acc
    r0 += r1
    r2 += r3
    r4 += r5
    r6 += r7
    r0 += r2
    r4 += r6
    r0 += r4
    for k in range(stop, lo + n):
        r0 += term(k, False)
    return r0


def _rolling(series, w, stats):
    """The columns `stats`, each "mean" or "std", of the trailing windows
    of w values; NaN before index w-1.

    Bit for bit what `sliding_window_view(series, w).mean(axis=1)` and
    `.std(axis=1, ddof=1)` give: for each block of BLOCK_ROWS windows the
    w shifted slices series[k:k+rows] are added in numpy's pairwise order
    (`_pairwise_sum`), the sum divided by w, and the squared deviations
    from that mean added in the same order, divided by w-1 and rooted.
    numpy's sum starts from 0.0, which turns a sum of -0.0 into 0.0; so
    does adding 0.0 to each slice an accumulator starts from. The std
    reuses the mean of its own windows."""
    n = series.size - w + 1
    out = {stat: np.full(series.size, np.nan) for stat in stats}
    for lo in range(0, n, BLOCK_ROWS):
        hi = min(lo + BLOCK_ROWS, n)
        rows = slice(lo + w - 1, hi + w - 1)

        def value(k, fresh):
            s = series[lo + k:hi + k]
            return s + 0.0 if fresh else s

        mean = np.divide(_pairwise_sum(value, 0, w), w,
                         out=out["mean"][rows] if "mean" in out else None)
        if "std" in out:
            scratch = np.empty(hi - lo)

            def square(k, fresh):
                d = np.subtract(series[lo + k:hi + k], mean,
                                out=None if fresh else scratch)
                return np.square(d, out=d)

            total = _pairwise_sum(square, 0, w)
            total /= w - 1
            np.sqrt(total, out=out["std"][rows])
    return [out[stat] for stat in stats]


def rolling_mean(series, w):
    """Trailing mean over the most recent w values; NaN before index w-1."""
    series = np.asarray(series, dtype=np.float64)
    if w < 1:
        raise ConfigError(f"window must be >= 1, got {w}")
    if w > series.size:
        raise DataError(f"window {w} exceeds series length {series.size}")
    return _rolling(series, w, ("mean",))[0]


def rolling_std(series, w):
    """Trailing sample std (w-1 denominator); NaN before index w-1."""
    series = np.asarray(series, dtype=np.float64)
    if w < 2:
        raise ConfigError(f"rolling_std window must be >= 2, got {w}")
    if w > series.size:
        raise DataError(f"window {w} exceeds series length {series.size}")
    return _rolling(series, w, ("std",))[0]


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


def _causal(columns):
    """Each column moved down one row, so its row t reads y[:t]."""
    return [lag(column, 1) for column in columns]


def _columns(spec):
    """Every block of columns the spec declares, ablated groups included,
    in emitted order (temporal terms, rolling stats, lags, EWM means), as
    (names, group, lookback, make). `make(frame)` returns the block's
    columns over every frame row; `lookback` is the number of leading
    frame rows on which they are undefined, and is 0 only for blocks
    that read no target. A new column kind is one more row here."""
    blocks = []
    for fname, strategy in spec.temporal:
        term = (encoding.FEATURES[fname], strategy)
        group = (GROUP_SINUSOIDAL if strategy == encoding.SINUSOIDAL
                 else GROUP_OTHERS)
        blocks.append((encoding.encoded_column_names(*term), group, 0,
                       lambda frame, term=term: encoding.expand_temporal(
                           frame, [term]).values()))
    stats = spec.rolling_stats
    if stats:
        blocks += [([f"rolling_{stat}_{w}h" for stat in stats],
                    GROUP_ROLLING, w, lambda frame, w=w: _causal(
                        _rolling(frame.target, w, stats)))
                   for w in spec.rolling_windows]
    blocks += [([f"lag_{k}h"], GROUP_LAG, k,
                lambda frame, k=k: [lag(frame.target, k)])
               for k in spec.lags]
    for h in spec.ewm_halflives:
        label = int(h) if float(h).is_integer() else h
        blocks.append(([f"ewm_{label}h"], GROUP_OTHERS, 1,
                       lambda frame, h=h: _causal(
                           [ewm_mean(frame.target, h)])))
    return blocks


def needs_target_history(spec) -> bool:
    """Whether the spec emits a column with a lookback, one that reads
    the target."""
    return any(lookback >= 1 and group not in spec.disabled_groups
               for _, group, lookback, _ in _columns(spec))


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
        names = [name for block in _columns(self) for name in block[0]]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate feature column names in spec")

    def warmup(self) -> int:
        """The longest lookback of a declared column, ablated ones too."""
        return max((lookback for _, _, lookback, _ in _columns(self)),
                   default=0)

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
        return [name for names, group, _, _ in _columns(self)
                if group not in self.disabled_groups for name in names]

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
        if not isinstance(d, dict):
            raise ConfigError(f"feature spec must be an object, got {d!r}")
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


def ablate(spec: FeatureSpec, group: str) -> FeatureSpec:
    """Spec with one named group removed from the emitted columns."""
    if group not in GROUPS:
        raise ConfigError(f"unknown feature group {group!r}")
    if group in spec.disabled_groups:
        return spec  # idempotent
    if all(g != group for _, g, _, _ in _columns(spec)):
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

    Column order is temporal, rolling, lag, ewm; the first `spec.warmup()`
    rows, the longest declared lookback, are dropped. Columns are made one
    `_columns` block at a time, in its order, and each is written once
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
    block = np.empty((len(names), len(frame) - warmup))
    columns = (column for _, group, _, make in _columns(spec)
               if group not in spec.disabled_groups for column in make(frame))
    for row, column in enumerate(columns):
        block[row] = column[warmup:]

    return FeatureMatrix(
        column_names=tuple(names),
        values=block.T,
        target=frame.target[warmup:].copy(),
        timestamps=frame.timestamps[warmup:],
        dropped_warmup=warmup,
    )
