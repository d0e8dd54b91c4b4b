"""Metrics, the one split-and-fit path shared by hold-out evaluation and
expanding-window cross-validation, the one runner for CV folds and other
independent tasks (this process and worker processes started by
`os.fork`, claiming tasks from a counter they share, or this process
alone when it has none), period breakdowns, and residual-distribution
statistics."""

from __future__ import annotations

import math
import os
import signal
import time
import traceback
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import gbtree
from .encoding import HOUR
from .errors import ConfigError, CyclecastError, DataError, InvariantError
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


def _fit_end(cut, where=""):
    """End of the rows that a fit on matrix rows [0, cut) grows trees on:
    the early-stop slice, the last EARLY_STOP_FRACTION of them (at least
    one), comes off. DataError, its message led by `where`, when fewer
    than 2 rows are left."""
    fit_hi = cut - max(1, int(EARLY_STOP_FRACTION * cut))
    if fit_hi < 2:
        raise DataError(
            f"{where}too few training rows after feature warm-up and the "
            "early-stop slice"
        )
    return fit_hi


def fit_before(matrix, cut, params):
    """Fit on matrix rows [0, cut), early-stopping on their trailing slice
    (`_fit_end`), so no row at or after `cut` is seen by the fit."""
    fit_hi = _fit_end(cut)
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

    Splits after the first `train_rows(len(frame), test_fraction)` frame
    rows: fits with `fit_before` on the matrix rows before the split
    (`FeatureMatrix.split_row`) and scores the rest, whose timestamps give
    `test_hours`.
    """
    n_train = train_rows(len(frame), test_fraction)
    matrix = build_matrix(frame, spec)
    cut = matrix.split_row(n_train)
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
        "test_hours": HOUR.phases(matrix.timestamps[cut:]),
        "matrix": matrix,
    }


def cross_validate(folds, params, batch=None) -> CVResult:
    """Mean fold RMSE of `params` over the folds of `folds`, a
    `FoldWorkers`. Each fold fits with `fit_before` on the matrix rows
    before its validation block and scores the block's matrix rows, both
    cut where `FeatureMatrix.split_row` maps the block's frame rows. No
    feature at a row reads the target at that row or later (see
    `features._columns`), so no validation target reaches a training
    row's features, and none reaches its own row's.
    Raises what the lowest-numbered failing fold raised, as fitting the
    folds in order would.

    `batch`, a list of params that holds `params`, scores the whole list
    as one list of tasks (`FoldWorkers.cv_results`), which keeps its
    results: the calls for the other params of the same list, one after
    another, fit nothing."""
    batch = [params] if batch is None else batch
    result = folds.cv_results(batch)[batch.index(params)]
    if isinstance(result, Exception):
        raise result
    return result


def usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _Counter:
    """A task counter that forked processes share: the first 8 bytes of an
    unlinked temporary file. A process holds a POSIX record lock on the
    file while it moves the counter. The system drops the lock of a
    process that dies, so a worker killed mid-claim stalls no one."""

    def __init__(self):
        # Imported here: only a run that starts a worker needs them.
        import fcntl
        import tempfile

        self._fcntl = fcntl
        self._file = tempfile.TemporaryFile(buffering=0)
        self._fd = self._file.fileno()

    def reset(self):
        os.pwrite(self._fd, bytes(8), 0)

    def claim(self, n):
        """The next of task numbers 0 .. n - 1, or None once all are
        taken."""
        self._fcntl.lockf(self._fd, self._fcntl.LOCK_EX)
        try:
            i = int.from_bytes(os.pread(self._fd, 8, 0), "little")
            if i < n:
                os.pwrite(self._fd, (i + 1).to_bytes(8, "little"), 0)
        finally:
            self._fcntl.lockf(self._fd, self._fcntl.LOCK_UN)
        return i if i < n else None

    def close(self):
        self._file.close()


class FoldWorkers:
    """The expanding-window folds of `matrix` and the processes that fit
    them: `cv_results` scores a list of params at once, and `map` runs
    other independent calls on the same processes.

    Construction lays the folds out over the frame rows `matrix` was built
    from, warm-up included (`expanding_splits` over
    `FeatureMatrix.n_frame_rows`), and cuts each fold's validation block
    out of the matrix where `FeatureMatrix.split_row` maps its frame rows.
    It raises ConfigError for a layout that does not fit the frame, and
    DataError for one whose first, shortest fold leaves `fit_before` fewer
    than 2 rows to fit on after the warm-up and the early-stop slice, so a
    bad layout fails before any fit. It starts nothing. Entering forks
    min(usable CPUs, k) - 1 workers with `os.fork`, or none on a platform
    without it. Each worker holds `matrix` and the folds from the fork.

    Each call is one list of independent tasks. This process sends the
    list to every worker over the worker's own
    `multiprocessing.connection.Pipe`. Then it and the workers each claim
    the next unclaimed task from a counter they share (`_Counter`) until
    none is left, and each worker sends back the results of the tasks it
    ran. Fold fits are listed longest training range first, so that the
    last tasks claimed are the shortest (Graham's list scheduling). Every
    task is deterministic and its result goes back into task order, so no
    output depends on which process ran what. With no workers this
    process runs every task, in order.

    A task that raises hands its exception back as its result. With a
    worker running, this process claims no task after one of its own has
    raised anything but a CyclecastError, a fault that ends the run: the
    workers take what is left, so a worker that dies or cannot send its
    result is still reported. Which fault is reported thus depends on who
    claimed what: when a single task raises an exception that cannot be
    pickled, this process reports that exception if it ran the task, and
    InvariantError for the dead worker if a worker did.

    A worker ignores SIGINT and serves until its pipe closes. It always
    leaves by `os._exit`: with status 0 when the pipe closes, or with
    status 1 after writing the traceback of anything else that raised
    (such as a fold exception that cannot be pickled) straight to file
    descriptor 2. So it runs none of this process's exit handlers and
    never flushes the standard streams it inherited, which may hold output
    that this process buffered. Leaving the block closes the pipes and the
    counter and reaps every worker, killing them first if the block raised
    or a call was cut short.

    A worker that dies, or a result that cannot cross the pipe, raises
    InvariantError naming the worker's exit status, and every later call
    raises it again; so does every call after one that was interrupted
    (by KeyboardInterrupt, say) before every worker answered.
    """

    def __init__(self, matrix, k, delta):
        self._matrix = matrix
        # (cut, stop) per fold: it fits on matrix rows [0, cut) and
        # scores rows [cut, stop).
        plan = expanding_splits(matrix.n_frame_rows, k, delta)
        self._bounds = [(matrix.split_row(va_s), matrix.split_row(va_e))
                        for _, (va_s, va_e) in plan.splits]
        # A later fold fits on no fewer rows, so this checks them all.
        _fit_end(self._bounds[0][0], f"fold 0 of {k}: ")
        # Fold numbers, longest training range first.
        self._order = sorted(range(k), key=lambda i: -self._bounds[i][0])
        n = min(usable_cpus(), k) if hasattr(os, "fork") else 1
        self._n_workers = n - 1
        self._workers = []  # (pid, this process's end of its pipe)
        self._counter = None
        self._broken = None
        self._kept = None  # (the list cv_results last scored, its results)
        self.wait_s = 0.0  # seconds spent waiting on workers' results

    def __enter__(self):
        try:
            if self._n_workers:
                self._counter = _Counter()
            for _ in range(self._n_workers):
                self._workers.append(self._start())
        except BaseException:
            self._close(kill=True)
            raise
        return self

    def __exit__(self, exc_type, exc, tb):
        self._close(kill=exc_type is not None or self._broken is not None)

    def cv_results(self, params_list) -> list:
        """For each params, in order: its CVResult, or what its
        lowest-numbered failing fold raised. The results are kept until
        the next call that runs tasks: called again with the same list
        object, which must not have changed, this returns them and fits
        nothing."""
        if self._kept is not None and self._kept[0] is params_list:
            return self._kept[1]
        m = len(params_list)
        results = self._run(None, [(params, i) for i in self._order
                                   for params in params_list])
        out = []
        for j in range(m):
            by_fold = dict(zip(self._order, results[j::m]))
            folds = [by_fold[i] for i in sorted(by_fold)]
            errors = [exc for _, exc in folds if exc is not None]
            if errors:
                out.append(errors[0])
                continue
            rmses = tuple(value for value, _ in folds)
            out.append(CVResult(cv_score=float(np.mean(rmses)),
                                fold_rmses=rmses))
        self._kept = params_list, out
        return out

    def map(self, fn, args_list) -> list:
        """[fn(*args) for args in args_list], each call a task; raises
        what the first failing call raised. `fn` must pickle by name, as
        a module-level function does."""
        results = self._run(fn, list(args_list))
        for _, exc in results:
            if exc is not None:
                raise exc
        return [value for value, _ in results]

    def _run(self, fn, tasks) -> list:
        """(value, exception) per task, in task order: what the task
        returned or raised; the other is None. A task is `fn(*args)`, or
        the RMSE of fold i for params when `fn` is None and args are
        (params, i)."""
        self._kept = None
        if self._broken is not None:
            raise InvariantError(self._broken)
        # Until every worker has answered, its pipe may hold a stale result.
        self._broken = "an interrupted call left fold workers out of step"
        results = [None] * len(tasks)
        if self._workers:
            self._counter.reset()
            for pid, conn in self._workers:
                try:
                    conn.send((fn, tasks))
                except BrokenPipeError:
                    self._fail(pid, "took no params")
            claims = iter(partial(self._counter.claim, len(tasks)), None)
        else:
            claims = range(len(tasks))
        for i in claims:
            results[i] = self._task(fn, tasks[i])
            exc = results[i][1]
            if (self._workers and exc is not None
                    and not isinstance(exc, CyclecastError)):
                break  # the workers take the rest; see the class docstring
        t0 = time.perf_counter()
        for pid, conn in self._workers:
            for i, result in self._result(pid, conn):
                results[i] = result
        self.wait_s += time.perf_counter() - t0
        self._broken = None
        return results

    def _task(self, fn, args):
        try:
            value = self._fold_rmse(*args) if fn is None else fn(*args)
        except Exception as exc:  # carried back to the caller in task order
            return None, exc
        return value, None

    def _fold_rmse(self, params, i):
        cut, stop = self._bounds[i]
        model, _ = fit_before(self._matrix, cut, params)
        pred = gbtree.predict(model, self._matrix.values[cut:stop])
        return rmse(self._matrix.target[cut:stop], pred)

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

    def _start(self):
        """Fork a worker: (its pid, this process's end of its pipe). A
        refused fork leaves no end of the pipe open."""
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
                self._serve(mask, child_conn, conn)  # never returns
        except BaseException:
            conn.close()
            raise
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            child_conn.close()
        return pid, conn

    def _serve(self, mask, conn, parent_end):
        """The worker: keep only its own end of its own pipe, then take
        task lists, claim and run tasks until none is left, and send back
        (task number, result) for each one it ran, until the pipe
        closes."""
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            for _, sibling in self._workers:
                sibling.close()
            parent_end.close()
            while True:
                fn, tasks = conn.recv()
                claims = iter(partial(self._counter.claim, len(tasks)), None)
                conn.send([(i, self._task(fn, tasks[i])) for i in claims])
        except EOFError:  # the pipe closed
            os._exit(0)
        except BaseException:
            os.write(2, traceback.format_exc().encode())
        finally:
            os._exit(1)

    def _close(self, kill):
        """Close every pipe and the counter and reap every worker: {pid:
        exit code, or -N for a worker that signal N killed}."""
        workers, self._workers = self._workers, []
        for pid, conn in workers:
            conn.close()
            if kill:
                os.kill(pid, signal.SIGKILL)
        if self._counter is not None:
            self._counter.close()
            self._counter = None
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
