"""Metrics, the one split-and-fit path shared by hold-out evaluation and
expanding-window cross-validation, the one CV fold runner (worker
processes started by `os.fork`, or this process alone when it has none),
period breakdowns, and residual-distribution statistics."""

from __future__ import annotations

import math
import os
import signal
import time
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from . import gbtree
from .encoding import HOUR
from .errors import ConfigError, DataError, InvariantError
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

    splits: tuple  # ((train_start, train_end), (val_start, val_end)) per fold


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
    return CVPlan(splits=tuple(splits))


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


def cross_validate(folds, params) -> CVResult:
    """Mean fold RMSE over the folds of `folds`, a `FoldWorkers`. Each
    fold fits with `fit_before` on the rows before its validation block
    and scores the block; all features are backward-looking, so no
    validation row leaks into training features."""
    fold_rmses = folds.fold_rmses(params)
    return CVResult(cv_score=float(np.mean(fold_rmses)),
                    fold_rmses=tuple(fold_rmses))


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def fold_groups(cuts, n) -> list:
    """Fold indices in n groups, balanced by training rows.

    Folds go longest training range first, each to the group with the
    fewest training rows so far, so group 0 holds the longest fold. Each
    group lists its folds in fold order.
    """
    groups, rows = [[] for _ in range(n)], [0] * n
    for i in sorted(range(len(cuts)), key=lambda i: -cuts[i]):
        g = rows.index(min(rows))
        groups[g].append(i)
        rows[g] += cuts[i]
    return [sorted(g) for g in groups]


class FoldWorkers:
    """The expanding-window folds of `matrix` and the processes that fit
    them for `cross_validate(folds, params)`.

    Construction lays the folds out over the frame rows `matrix` was built
    from, warm-up included (`expanding_splits`), raising ConfigError for a
    layout that does not fit, and starts nothing. Entering forks
    min(usable CPUs, k) - 1 workers with `os.fork`, or none on a platform
    without it. Each worker holds `matrix` and the folds from the fork and
    fits its own fixed group of folds (`fold_groups`) for every call; it
    receives the params over its own `multiprocessing.connection.Pipe` and
    sends back its fold RMSEs, or the exception a fold raised. This
    process fits the group that holds the longest fold and every group
    without a worker, so with no workers it fits every fold itself.

    A worker ignores SIGINT and serves until its pipe closes. It always
    leaves by `os._exit`: with status 0 when the pipe closes, or with
    status 1 after writing the traceback of anything else that raised
    (such as a fold exception that cannot be pickled) straight to file
    descriptor 2. So it runs none of this process's exit handlers and
    never flushes the standard streams it inherited, which may hold output
    that this process buffered. Leaving the block closes the pipes and
    reaps every worker, killing them first if the block raised.

    A worker that dies, or a result that cannot cross the pipe, raises
    InvariantError naming the worker's exit status, and every later call
    raises it again; so does every call after one that was interrupted
    (by KeyboardInterrupt, say) before every worker answered.
    """

    def __init__(self, matrix, k, delta):
        self._matrix = matrix
        # (cut, stop) per fold: it fits on matrix rows [0, cut) and
        # scores rows [cut, stop).
        offset = matrix.dropped_warmup
        plan = expanding_splits(offset + matrix.n_rows, k, delta)
        self._bounds = [(va_s - offset, va_e - offset)
                        for _, (va_s, va_e) in plan.splits]
        n = min(usable_cpus(), k) if hasattr(os, "fork") else 1
        self._groups = fold_groups([cut for cut, _ in self._bounds], n)
        self._workers = []  # (pid, this process's end of its pipe)
        self._broken = None

    def __enter__(self):
        try:
            for group in self._groups[1:]:
                self._workers.append(self._start(group))
        except BaseException:
            self._close(kill=True)
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._close(kill=exc_type is not None)

    def fold_rmses(self, params) -> list:
        """Every fold's RMSE in fold order; if folds raised, what the
        lowest-numbered one raised, as fitting them in order would."""
        if self._broken is not None:
            raise InvariantError(self._broken)
        # Until every worker has answered, its pipe may hold a stale result.
        self._broken = "an interrupted call left fold workers out of step"
        for pid, conn in self._workers:
            try:
                conn.send(params)
            except BrokenPipeError:
                self._fail(pid, "took no params")
        # Workers hold the last groups; this process fits the others.
        own = self._groups[:len(self._groups) - len(self._workers)]
        outcomes = [self._fit_group(params, group) for group in own]
        outcomes += [self._result(*worker) for worker in self._workers]
        self._broken = None
        rmses = [None] * len(self._bounds)
        first = None  # (fold, exception) of the lowest failing fold
        for group, (values, exc) in zip(self._groups, outcomes):
            for i, value in zip(group, values):
                rmses[i] = value
            if exc is not None and (first is None
                                    or group[len(values)] < first[0]):
                first = (group[len(values)], exc)
        if first is not None:
            raise first[1]
        return rmses

    def _fit_group(self, params, group):
        """(RMSEs, exception): the RMSEs of `group`'s folds in order, up to
        the first fold that raises, and what it raised (None if none
        did)."""
        rmses = []
        try:
            for i in group:
                cut, stop = self._bounds[i]
                model, _ = fit_before(self._matrix, cut, params)
                pred = gbtree.predict(model, self._matrix.values[cut:stop])
                rmses.append(rmse(self._matrix.target[cut:stop], pred))
        except Exception as exc:  # carried to where fold order picks one
            return rmses, exc
        return rmses, None

    def _result(self, pid, conn):
        try:
            return conn.recv()
        except Exception as err:  # EOF from a dead worker, or bad bytes
            self._fail(pid, f"sent no result ({err!r})")

    def _fail(self, pid, what):
        code = self._close(kill=True)[pid]
        how = (f"exited with status {code}" if code >= 0
               else f"was killed by signal {-code}")
        self._broken = f"fold worker {pid} {what}; it {how}"
        raise InvariantError(self._broken)

    def _start(self, group):
        """Fork the worker that fits `group`: (its pid, this process's end
        of its pipe). A refused fork leaves no end of the pipe open."""
        # About 10 ms and 0.66 MB, so only a run that starts a worker
        # imports it.
        from multiprocessing.connection import Pipe

        conn, child_conn = Pipe()
        # SIGINT stays blocked until the child ignores it, so Ctrl-C can
        # never raise in the child on its way out of fork.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
        try:
            pid = os.fork()
            if pid == 0:
                self._serve(group, mask, child_conn, conn)  # never returns
        except BaseException:
            conn.close()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_conn.close()
        return pid, conn

    def _serve(self, group, mask, conn, parent_end):
        """The worker: keep only its own end of its own pipe, then take
        params and send back (RMSEs, exception) until the pipe closes."""
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for _, sibling in self._workers:
                sibling.close()
            parent_end.close()
            while True:
                conn.send(self._fit_group(conn.recv(), group))
        except EOFError:  # the pipe closed
            os._exit(0)
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(1)

    def _close(self, kill):
        """Close every pipe and reap every worker: {pid: exit code, or
        -N for a worker that signal N killed}."""
        workers, self._workers = self._workers, []
        for pid, conn in workers:
            conn.close()
            if kill:
                os.kill(pid, signal.SIGKILL)
        return {pid: os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                for pid, _ in workers}


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
        return asdict(self)


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
