"""Cyclic temporal encodings: ordinal, one-hot, and the sinusoidal pair.

The sinusoidal pair places an integer phase t with period P on the unit
circle, (sin 2*pi*t/P, cos 2*pi*t/P), so the last phase of a period sits
next to the first instead of a full range away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError

ORDINAL = "ordinal"
ONEHOT = "onehot"
SINUSOIDAL = "sinusoidal"
STRATEGIES = (ORDINAL, ONEHOT, SINUSOIDAL)


@dataclass(frozen=True)
class CyclicFeature:
    """A cyclic calendar quantity: name, phase extractor, and period."""

    name: str
    period: int
    extractor: object  # datetime64 array -> int phase array in [0, period)

    def __post_init__(self):
        if self.period < 2:
            raise ConfigError(f"period must be >= 2, got {self.period}")

    def phases(self, timestamps) -> np.ndarray:
        out = np.asarray(self.extractor(timestamps), dtype=np.int64)
        if out.size and (out.min() < 0 or out.max() >= self.period):
            raise DataError(
                f"{self.name}: extracted phase outside [0, {self.period})"
            )
        return out


# Calendar arithmetic on datetime64 counts from 1970-01-01, a Thursday
# (weekday 3 with Monday = 0); casting to a coarser unit floors.
HOUR = CyclicFeature("hour", 24, lambda ts: (
    ts.astype("datetime64[h]") - ts.astype("datetime64[D]")).astype(np.int64))
DAYOFWEEK = CyclicFeature("dayofweek", 7, lambda ts: (
    ts.astype("datetime64[D]").astype(np.int64) + 3) % 7)
MONTH = CyclicFeature("month", 12, lambda ts: (
    ts.astype("datetime64[M]").astype(np.int64) % 12))

FEATURES = {f.name: f for f in (HOUR, DAYOFWEEK, MONTH)}


def _check_phase(t, period):
    if period < 2:
        raise ConfigError(f"period must be >= 2, got {period}")
    if not 0 <= t < period:
        raise ConfigError(f"phase {t} outside [0, {period})")


def encode_sinusoidal(t, period):
    """Map phase t to (sin, cos) coordinates on the unit circle."""
    _check_phase(t, period)
    angle = 2.0 * math.pi * t / period
    return math.sin(angle), math.cos(angle)


def cyclic_distance(t1, t2, period):
    """Euclidean distance between two sinusoidally encoded phases."""
    _check_phase(t1, period)
    _check_phase(t2, period)
    s1, c1 = encode_sinusoidal(t1, period)
    s2, c2 = encode_sinusoidal(t2, period)
    return math.hypot(s1 - s2, c1 - c2)


def encoded_column_names(feature: CyclicFeature, strategy: str):
    """Output column names for one feature under one strategy."""
    if strategy == SINUSOIDAL:
        return [f"{feature.name}_sin", f"{feature.name}_cos"]
    if strategy == ORDINAL:
        return [feature.name]
    if strategy == ONEHOT:
        return [f"{feature.name}_{k}" for k in range(feature.period)]
    raise ConfigError(f"unknown encoding strategy {strategy!r}")


def expand_temporal(frame, terms):
    """Materialize encoding columns for (CyclicFeature, strategy) terms.

    Returns an ordered dict of column name -> float array, one block per
    term in order. Duplicate output names are an error.
    """
    if len(frame) == 0:
        raise DataError("cannot encode an empty frame")
    out: dict[str, np.ndarray] = {}
    for feature, strategy in terms:
        phases = feature.phases(frame.timestamps)
        names = encoded_column_names(feature, strategy)
        for name in names:
            if name in out:
                raise ConfigError(f"duplicate encoded column {name!r}")
        if strategy == SINUSOIDAL:
            angle = 2.0 * np.pi * phases / feature.period
            out[names[0]] = np.sin(angle)
            out[names[1]] = np.cos(angle)
        elif strategy == ORDINAL:
            out[names[0]] = phases.astype(np.float64)
        else:
            for k, name in enumerate(names):
                out[name] = (phases == k).astype(np.float64)
    return out
