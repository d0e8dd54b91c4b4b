"""Metrics, the one split-and-fit path shared by hold-out evaluation and
expanding-window cross-validation, period breakdowns, and
residual-distribution statistics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import gbtree
from .encoding import HOUR
from .errors import ConfigError, DataError
from .features import build_matrix

MAPE_FLOOR = 1e-8

# Share of a fit's training rows held back, at its end, for early stopping.
EARLY_STOP_FRACTION = 0.1

PERIOD_BLOCKS = [
    ("Morning (6-12)", 6, 12),
    ("Afternoon (12-18)", 12, 18),
    ("Evening (18-24)", 18, 24),
    ("Night (0-6)", 0, 6),
]


def _check_pair(y, yhat):
    y = np.asarray(y, dtype=np.float64)
    yhat = np.asarray(yhat, dtype=np.float64)
    if y.size == 0 or y.shape != yhat.shape:
        raise DataError("metric inputs must be equal-length, non-empty")
    return y, yhat


def rmse(y, yhat):
    y, yhat = _check_pair(y, yhat)
    return float(np.sqrt(np.mean((y - yhat) ** 2)))


def mae(y, yhat):
    y, yhat = _check_pair(y, yhat)
    return float(np.mean(np.abs(y - yhat)))


def r2(y, yhat):
    """Coefficient of determination; None when SST is zero."""
    y, yhat = _check_pair(y, yhat)
    sst = float(np.sum((y - y.mean()) ** 2))
    if sst == 0.0:
        return None
    sse = float(np.sum((y - yhat) ** 2))
    return 1.0 - sse / sst


def mape_pct(y, yhat):
    """Mean absolute percentage error with a MAPE_FLOOR denominator floor.

    Returns (value, floored) where floored marks that at least one |y|
    fell below MAPE_FLOOR.
    """
    y, yhat = _check_pair(y, yhat)
    denom = np.maximum(np.abs(y), MAPE_FLOOR)
    floored = bool(np.any(np.abs(y) < MAPE_FLOOR))
    return float(100.0 * np.mean(np.abs(y - yhat) / denom)), floored


@dataclass(frozen=True)
class Metrics:
    rmse: float
    mae: float
    r2: float | None
    mape_pct: float
    r2_undefined_reason: str | None = None
    mape_floored: bool = False

    def to_dict(self) -> dict:
        d = {
            "rmse": self.rmse,
            "mae": self.mae,
            "r2": self.r2,
            "mape_pct": self.mape_pct,
        }
        if self.r2_undefined_reason:
            d["r2_undefined_reason"] = self.r2_undefined_reason
        if self.mape_floored:
            d["mape_floored"] = True
        return d


def compute_metrics(y, yhat) -> Metrics:
    r2_val = r2(y, yhat)
    mape_val, floored = mape_pct(y, yhat)
    return Metrics(
        rmse=rmse(y, yhat),
        mae=mae(y, yhat),
        r2=r2_val,
        mape_pct=mape_val,
        r2_undefined_reason=None if r2_val is not None else "zero target variance",
        mape_floored=floored,
    )


@dataclass(frozen=True)
class CVPlan:
    """Expanding-window fold layout over half-open row ranges."""

    k: int
    delta: int
    splits: tuple  # ((train_start, train_end), (val_start, val_end)) per fold

    def __post_init__(self):
        prev_end = 0
        last_val_end = None
        for (tr_s, tr_e), (va_s, va_e) in self.splits:
            if not (tr_s == 0 and tr_s < tr_e <= va_s < va_e):
                raise ConfigError("malformed CV fold ranges")
            if tr_e < prev_end:
                raise ConfigError("training ranges must expand")
            if last_val_end is not None and va_s != last_val_end:
                raise ConfigError("validation blocks must be contiguous")
            prev_end = tr_e
            last_val_end = va_e


def expanding_splits(n, k, delta) -> CVPlan:
    """Trailing equal-width validation blocks with expanding train ranges."""
    if k < 1 or delta < 1:
        raise ConfigError("k and delta must be >= 1")
    first_val = n - k * delta
    if first_val < delta:
        raise ConfigError(
            f"n={n} too small for k={k} folds of width {delta} "
            f"with at least {delta} initial training rows"
        )
    splits = []
    for i in range(k):
        va_s = first_val + i * delta
        splits.append(((0, va_s), (va_s, va_s + delta)))
    return CVPlan(k=k, delta=delta, splits=tuple(splits))


def cv_plan(matrix, k, delta) -> CVPlan:
    """Expanding-window folds over the frame rows `matrix` was built from,
    warm-up included."""
    return expanding_splits(matrix.dropped_warmup + matrix.n_rows, k, delta)


def train_rows(n, test_fraction) -> int:
    """Frame rows before a hold-out split: the first ceil((1-f)*n)."""
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError("test_fraction must be in (0, 1)")
    if n < 2:
        raise DataError("frame must have at least 2 rows to split")
    n_train = math.ceil((1.0 - test_fraction) * n)
    if n_train >= n:
        raise ConfigError(
            f"test_fraction {test_fraction} leaves an empty test partition "
            f"({n_train} train rows of {n})"
        )
    return n_train


def fit_before(matrix, cut, params):
    """Fit on matrix rows [0, cut), early-stopping on their trailing slice.

    The patience slice is the last EARLY_STOP_FRACTION of the training
    rows (at least one), so no row at or after `cut` is seen by the fit.
    """
    fit_hi = cut - max(1, int(EARLY_STOP_FRACTION * cut))
    if fit_hi < 2:
        raise DataError(
            "too few training rows after feature warm-up and the "
            "early-stop slice"
        )
    X, y = matrix.values, matrix.target
    return gbtree.fit(X[:fit_hi], y[:fit_hi], params,
                      val=(X[fit_hi:cut], y[fit_hi:cut]),
                      feature_names=matrix.column_names)


@dataclass(frozen=True)
class CVResult:
    cv_score: float
    fold_rmses: tuple
    dispersion: float  # std of fold RMSE
    stability: float | None  # std / mean of fold RMSE (this artifact's label)
    plan: CVPlan


def holdout(frame, spec, params, test_fraction) -> dict:
    """Hold-out fit and metrics for one (spec, params) arm.

    Fits with `fit_before` on the matrix rows of the first
    `train_rows(len(frame), test_fraction)` frame rows and scores the rest.
    """
    n_train = train_rows(len(frame), test_fraction)
    matrix = build_matrix(frame, spec)
    cut = n_train - matrix.dropped_warmup
    t0 = time.perf_counter()
    model, log = fit_before(matrix, cut, params)
    train_time = time.perf_counter() - t0
    y_te = matrix.target[cut:]
    pred = gbtree.predict(model, matrix.values[cut:])
    return {
        "model": model,
        "log": log,
        "metrics": compute_metrics(y_te, pred),
        "train_time": train_time,
        "y_test": y_te,
        "pred": pred,
        "test_hours": HOUR.phases(frame.timestamps[n_train:]),
        "matrix": matrix,
    }


def cross_validate(matrix, params, k, delta) -> CVResult:
    """Mean fold RMSE over expanding-window folds.

    Folds come from `cv_plan` (all features are backward-looking, so no
    validation row leaks into training features). Each fold fits with
    `fit_before` on the rows before its validation block and scores the
    block.
    """
    offset = matrix.dropped_warmup
    plan = cv_plan(matrix, k, delta)

    fold_rmses = []
    for _, (va_s, va_e) in plan.splits:
        cut, stop = va_s - offset, va_e - offset
        model, _ = fit_before(matrix, cut, params)
        pred = gbtree.predict(model, matrix.values[cut:stop])
        fold_rmses.append(rmse(matrix.target[cut:stop], pred))

    arr = np.asarray(fold_rmses)
    cv_score = float(arr.mean())
    dispersion = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    stability = dispersion / cv_score if cv_score > 0 else None
    return CVResult(
        cv_score=cv_score,
        fold_rmses=tuple(fold_rmses),
        dispersion=dispersion,
        stability=stability,
        plan=plan,
    )


def period_breakdown(y, yhat, hours):
    """Metrics per day-period block (Morning/Afternoon/Evening/Night).

    Blocks partition the hour labels; an empty block is flagged, not an
    error. Returns an ordered dict label -> Metrics dict or empty marker.
    """
    y, yhat = _check_pair(y, yhat)
    hours = np.asarray(hours)
    if hours.shape != y.shape:
        raise DataError("hour labels must align with predictions")
    if np.any((hours < 0) | (hours >= 24)):
        raise DataError("hour labels must lie in [0, 24)")
    out = {}
    covered = 0
    for label, lo, hi in PERIOD_BLOCKS:
        mask = (hours >= lo) & (hours < hi)
        covered += int(mask.sum())
        if not mask.any():
            out[label] = {"empty": True}
        else:
            out[label] = compute_metrics(y[mask], yhat[mask]).to_dict()
    if covered != y.size:
        raise DataError("period blocks failed to partition the input")
    return out


@dataclass(frozen=True)
class ResidualStats:
    mean: float
    std: float
    skewness: float | None
    kurtosis: float | None  # raw (normal ~ 3), not excess
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "std": self.std,
            "skewness": self.skewness,
            "kurtosis": self.kurtosis,
            "degenerate": self.degenerate,
        }


def residual_stats(residuals) -> ResidualStats:
    """First four moments of the residual distribution."""
    r = np.asarray(residuals, dtype=np.float64)
    if r.size < 4:
        raise DataError("need at least 4 residuals for moment statistics")
    mean = float(r.mean())
    std = float(r.std(ddof=1))
    centered = r - mean
    m2 = float(np.mean(centered ** 2))
    if m2 == 0.0:
        return ResidualStats(mean, std, None, None, degenerate=True)
    m3 = float(np.mean(centered ** 3))
    m4 = float(np.mean(centered ** 4))
    return ResidualStats(
        mean=mean,
        std=std,
        skewness=m3 / m2 ** 1.5,
        kurtosis=m4 / m2 ** 2,
    )
