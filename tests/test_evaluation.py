import errno
import math
import os
import signal
import time
from functools import partial

import numpy as np
import pytest

from cyclecast import evaluation, gbtree
from cyclecast.cli import main
from cyclecast.dataset import SyntheticConfig, generate_synthetic
from cyclecast.errors import ConfigError, DataError, InvariantError
from cyclecast.evaluation import (
    EARLY_STOP_FRACTION, FoldWorkers, compute_metrics, cross_validate,
    expanding_splits, fit_before, holdout, mae, mape_pct,
    period_breakdown, r2, residual_stats, rmse,
)
from cyclecast.features import FeatureSpec, build_matrix
from cyclecast.gbtree import HyperParams
from cyclecast.tuner import gp_fit


class TestPointMetrics:
    def test_worked_example(self):
        # y = [0, 2], yhat = [1, 1]: both errors are 1, SSE equals SST.
        y, yhat = [0.0, 2.0], [1.0, 1.0]
        assert rmse(y, yhat) == pytest.approx(1.0)
        assert mae(y, yhat) == pytest.approx(1.0)
        assert r2(y, yhat) == pytest.approx(0.0)

    def test_perfect_prediction(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y) == 0.0
        assert mae(y, y) == 0.0
        assert r2(y, y) == 1.0

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            y = rng.normal(size=30)
            yhat = rng.normal(size=30)
            assert mae(y, yhat) <= rmse(y, yhat) + 1e-12

    def test_mean_predictor_r2_zero(self):
        rng = np.random.default_rng(21)
        y = rng.normal(size=100)
        yhat = np.full(100, y.mean())
        assert r2(y, yhat) == pytest.approx(0.0, abs=1e-12)

    def test_r2_undefined_on_constant_target(self):
        assert r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None
        m = compute_metrics([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
        assert m.r2 is None
        assert m.r2_undefined_reason == "zero target variance"

    def test_mape_direct(self):
        val, floored = mape_pct([2.0, 4.0], [1.0, 5.0])
        assert val == pytest.approx(37.5)  # (50% + 25%) / 2
        assert not floored

    def test_mape_floor_flag(self):
        val, floored = mape_pct([0.0, 1.0], [1.0, 1.0])
        assert floored
        assert math.isfinite(val)

    def test_shape_errors(self):
        with pytest.raises(DataError):
            rmse([1.0], [1.0, 2.0])
        with pytest.raises(DataError):
            mae([], [])


class TestExpandingSplits:
    def test_hundred_rows_four_folds(self):
        plan = expanding_splits(100, 4, 10)
        assert plan.splits == (
            ((0, 60), (60, 70)),
            ((0, 70), (70, 80)),
            ((0, 80), (80, 90)),
            ((0, 90), (90, 100)),
        )

    def test_properties_random_triples(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            k = int(rng.integers(1, 8))
            delta = int(rng.integers(1, 50))
            n = k * delta + delta + int(rng.integers(0, 100))
            plan = expanding_splits(n, k, delta)
            assert len(plan.splits) == k
            prev_train_end = 0
            for (tr_s, tr_e), (va_s, va_e) in plan.splits:
                assert tr_s == 0
                assert tr_e == va_s
                assert va_e - va_s == delta
                assert tr_e > prev_train_end
                prev_train_end = tr_e
            assert plan.splits[-1][1][1] == n

    def test_too_small(self):
        with pytest.raises(ConfigError):
            expanding_splits(39, 3, 10)
        assert expanding_splits(40, 3, 10).splits[0][0] == (0, 10)

    def test_bad_args(self):
        with pytest.raises(ConfigError):
            expanding_splits(100, 0, 10)
        with pytest.raises(ConfigError):
            expanding_splits(100, 4, 0)


class CVCase:
    def matrix(self, n=700):
        frame = generate_synthetic(SyntheticConfig(n_hours=n, seed=30))
        return build_matrix(frame, self.small_spec())

    def small_spec(self):
        return FeatureSpec(rolling_windows=(6,), rolling_stats=("mean",),
                           lags=(1, 24), ewm_halflives=(),
                           temporal=(("hour", "sinusoidal"),))

    def params(self, **kw):
        defaults = dict(n_estimators=10, max_depth=3, learning_rate=0.3)
        defaults.update(kw)
        return HyperParams(**defaults)


def cv(matrix, params, k, delta):
    """`cross_validate` over folds fitted in this process: the fold
    runner outside its `with` block has no workers."""
    return cross_validate(FoldWorkers(matrix, k, delta), params)


def reference_fold_rmses(matrix, params, k, delta):
    """Each fold's RMSE, fitted here one fold after another from the plan
    over the frame rows `matrix` was built from."""
    n = matrix.dropped_warmup + matrix.n_rows
    rmses = []
    for _, (va_s, va_e) in expanding_splits(n, k, delta).splits:
        cut, stop = va_s - matrix.dropped_warmup, va_e - matrix.dropped_warmup
        model, _ = fit_before(matrix, cut, params)
        pred = gbtree.predict(model, matrix.values[cut:stop])
        rmses.append(rmse(matrix.target[cut:stop], pred))
    return rmses


class TestCrossValidate(CVCase):
    def test_score_is_mean_of_folds(self):
        res = cv(self.matrix(), self.params(), k=3, delta=50)
        assert len(res.fold_rmses) == 3
        assert res.cv_score == pytest.approx(np.mean(res.fold_rmses))

    def test_deterministic(self):
        a = cv(self.matrix(), self.params(), k=3, delta=40)
        b = cv(self.matrix(), self.params(), k=3, delta=40)
        assert a.fold_rmses == b.fold_rmses

    def test_noise_free_series_scores_near_zero(self):
        # A pure lag-168 feature reconstructs a noise-free weekly series
        # exactly, so deep unregularized trees drive fold RMSE to zero.
        frame = generate_synthetic(SyntheticConfig(
            n_hours=1200, noise_std=0.0, trend_slope=0.0, seed=31))
        spec = FeatureSpec(rolling_windows=(), rolling_stats=(),
                           lags=(168,), ewm_halflives=(), temporal=())
        params = HyperParams(n_estimators=3, max_depth=9, learning_rate=1.0,
                             reg_lambda=0.0, gamma=0.0, min_child_weight=0.0)
        res = cv(build_matrix(frame, spec), params, k=2, delta=100)
        assert res.cv_score < 1e-9

    def test_fold_eats_warmup(self):
        frame = generate_synthetic(SyntheticConfig(n_hours=400, seed=30))
        spec = FeatureSpec(rolling_windows=(), rolling_stats=(),
                           lags=(168,), ewm_halflives=(), temporal=())
        matrix = build_matrix(frame, spec)
        with pytest.raises(DataError):
            cv(matrix, self.params(), k=2, delta=116)

    def test_folds_span_warmup_and_matrix_rows(self):
        # Folds lie over all frame rows, warm-up included: the first
        # validation block starts at frame row 700 - 3 * 50 = 550.
        matrix = self.matrix()
        assert matrix.dropped_warmup + matrix.n_rows == 700
        plan = expanding_splits(700, 3, 50)
        assert plan.splits[0] == ((0, 550), (550, 600))
        assert plan.splits[-1][1] == (650, 700)
        # The first fold fits on the matrix rows before frame row 550 and
        # scores those of frame rows [550, 600).
        res = cv(matrix, self.params(), k=3, delta=50)
        cut = 550 - matrix.dropped_warmup
        model, _ = fit_before(matrix, cut, self.params())
        pred = gbtree.predict(model, matrix.values[cut:cut + 50])
        assert res.fold_rmses[0] == rmse(matrix.target[cut:cut + 50], pred)


def pid_after(seconds):
    time.sleep(seconds)
    return os.getpid()


def raise_value_error(i):
    raise ValueError(i)


def held_by_this_process():
    """This process's open file descriptors and its mappings of deleted
    files, such as an unlinked temporary file."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        deleted = [line.split()[-2] for line in fh
                   if line.rstrip().endswith("(deleted)")]
    return sorted(os.listdir("/proc/self/fd")), deleted


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.usefixtures("hang_guard")
class TestFoldWorkers(CVCase):
    """Folds fitted in forked workers give what fitting them one after
    another in this process gives, bit for bit."""

    @pytest.fixture
    def cpus(self, monkeypatch):
        def set_cpus(n):
            monkeypatch.setattr(evaluation, "usable_cpus", lambda: n)
        return set_cpus

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_same_result_as_in_process(self, cpus, k):
        # Four CPUs give k = 5 three workers, more than this host may have.
        matrix = self.matrix()
        params = [self.params(), self.params(max_depth=5, subsample=0.7)]
        expected = [reference_fold_rmses(matrix, p, k, 40) for p in params]
        for n in (1, 2, 4):
            cpus(n)
            with FoldWorkers(matrix, k, 40) as folds:
                for p, want in zip(params * 2, expected * 2):
                    res = cross_validate(folds, p)
                    assert res.fold_rmses == tuple(want)
                    assert res.cv_score == float(np.mean(want))
            assert_no_children()

    def test_counter_hands_out_each_task_once(self):
        # Six processes, more than this host has CPUs, claim as fast as
        # they can: a lost update would hand some task out twice.
        n = 20000
        counter = evaluation._Counter()
        r, w = os.pipe()
        pids = []
        try:
            for _ in range(5):
                pid = os.fork()
                if pid == 0:
                    try:
                        got = list(iter(partial(counter.claim, n), None))
                        os.write(w, f"{len(got)} {sum(got)}\n".encode())
                    finally:
                        os._exit(0)
                pids.append(pid)
            got = list(iter(partial(counter.claim, n), None))
        finally:
            os.close(w)
            for pid in pids:
                os.waitpid(pid, 0)
            counter.close()
        with os.fdopen(r) as fh:
            tallies = [tuple(map(int, line.split())) for line in fh]
        tallies.append((len(got), sum(got)))
        assert len(tallies) == 6
        assert sum(count for count, _ in tallies) == n
        assert sum(total for _, total in tallies) == n * (n - 1) // 2

    def test_batch_scores_each_params_as_alone(self, cpus):
        matrix = self.matrix()
        params = [self.params(), self.params(max_depth=5, subsample=0.7),
                  self.params(learning_rate=0.1)]
        expected = [reference_fold_rmses(matrix, p, 3, 40) for p in params]
        for n in (1, 2, 4):
            cpus(n)
            with FoldWorkers(matrix, 3, 40) as folds:
                first = cross_validate(folds, params[0], params)
                # The batch's results are kept: the other params of the
                # same list fit nothing.
                folds._run = None
                results = [first] + [cross_validate(folds, p, params)
                                     for p in params[1:]]
            assert [r.fold_rmses for r in results] == \
                [tuple(want) for want in expected]
            assert_no_children()

    def test_map_runs_calls_on_every_process(self, cpus):
        cpus(4)
        with FoldWorkers(self.matrix(), 3, 50) as folds:
            assert folds.map(pow, [(2, i) for i in range(20)]) == \
                [2 ** i for i in range(20)]
            pids = folds.map(pid_after, [(0.1,)] * 8)
            assert set(pids) == {os.getpid()} | {
                pid for pid, _ in folds._workers}
            # The first failing call in argument order raises, and the
            # workers stay in step after it.
            with pytest.raises(ValueError, match="^2$"):
                folds.map(raise_value_error, [(2,), (4,)])
            assert folds.map(pow, [(3, 2)]) == [9]
        assert_no_children()

    def test_gp_fit_through_workers_is_bit_identical(self, cpus):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(9, 7))
        y = np.sin(3.0 * X.sum(axis=1)) + rng.normal(0.0, 0.05, 9)
        cands = rng.uniform(size=(64, 7))
        cold = gp_fit(X, y, seed=3)
        warm = gp_fit(X, y, seed=4, start=cold.log_params)
        cpus(4)
        with FoldWorkers(self.matrix(), 3, 50) as folds:
            cold_mapped = gp_fit(X, y, seed=3, mapper=folds.map)
            warm_mapped = gp_fit(X, y, seed=4, start=cold_mapped.log_params,
                                 mapper=folds.map)
        assert_no_children()
        for serial, mapped in ((cold, cold_mapped), (warm, warm_mapped)):
            assert serial.log_params.tobytes() == mapped.log_params.tobytes()
            for a, b in zip(serial.posterior(cands), mapped.posterior(cands)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="needs /proc")
    @pytest.mark.parametrize("end", ["normal", "worker death",
                                     "refused fork"])
    def test_nothing_left_behind(self, cpus, monkeypatch, end):
        matrix = self.matrix()
        before = held_by_this_process()
        if end == "refused fork":
            real_fork = os.fork
            forks = []

            def fork():
                if forks:
                    raise BlockingIOError(errno.EAGAIN, "fork refused")
                forks.append(real_fork())
                return forks[-1]

            monkeypatch.setattr(os, "fork", fork)
            cpus(4)
            with pytest.raises(BlockingIOError):
                with FoldWorkers(matrix, 3, 50):
                    pass
        else:
            cpus(2)
            with FoldWorkers(matrix, 3, 50) as folds:
                cross_validate(folds, self.params())
                # The pipe and the task counter's file are open.
                assert len(held_by_this_process()[0]) == len(before[0]) + 2
                if end == "worker death":
                    [(pid, _)] = folds._workers
                    os.kill(pid, signal.SIGKILL)
                    with pytest.raises(InvariantError, match="signal 9"):
                        cross_validate(folds, self.params())
        assert held_by_this_process() == before
        assert_no_children()

    def test_lowest_failing_fold_raises(self, cpus, monkeypatch):
        # Every fold raises; in order, fold 0 raises first. Its worker
        # answers after this process's own fold has raised.
        def fit_before(matrix, cut, params):
            raise DataError(f"fold at row {cut}")

        monkeypatch.setattr(evaluation, "fit_before", fit_before)
        matrix = self.matrix()
        first = f"fold at row {550 - matrix.dropped_warmup}"
        cpus(2)
        with pytest.raises(DataError, match=f"^{first}$"):
            cv(matrix, self.params(), 3, 50)
        with FoldWorkers(matrix, 3, 50) as folds:
            with pytest.raises(DataError, match=f"^{first}$"):
                cross_validate(folds, self.params())
            # The workers stay in step after an error.
            with pytest.raises(DataError, match=f"^{first}$"):
                cross_validate(folds, self.params())
        assert_no_children()

    def test_interrupted_call_leaves_workers_refusing(self, cpus,
                                                      monkeypatch):
        # This process's fold stops by a BaseException, as on Ctrl-C, while
        # a worker's answer is still in its pipe; no later call may read it.
        class Interrupt(BaseException):
            pass

        parent, real = os.getpid(), evaluation.fit_before

        def fit_before(matrix, cut, params):
            if os.getpid() == parent:
                raise Interrupt
            return real(matrix, cut, params)

        cpus(2)
        with FoldWorkers(self.matrix(), 3, 50) as folds:
            monkeypatch.setattr(evaluation, "fit_before", fit_before)
            with pytest.raises(Interrupt):
                cross_validate(folds, self.params())
            monkeypatch.setattr(evaluation, "fit_before", real)
            with pytest.raises(InvariantError, match="out of step"):
                cross_validate(folds, self.params())
        assert_no_children()

    def test_worker_ignores_sigint(self, cpus):
        # Ctrl-C signals the whole process group; a worker must live on
        # and answer, so that only this process is interrupted.
        cpus(2)
        with FoldWorkers(self.matrix(), 3, 50) as folds:
            first = cross_validate(folds, self.params())
            [(pid, _)] = folds._workers
            os.kill(pid, signal.SIGINT)
            assert cross_validate(folds, self.params()) == first
        assert_no_children()

    def test_dead_worker_took_no_params(self, cpus):
        # The worker is dead, and not yet reaped, before the call sends to
        # it.
        cpus(2)
        with FoldWorkers(self.matrix(), 3, 50) as folds:
            cross_validate(folds, self.params())
            [(pid, _)] = folds._workers
            os.kill(pid, signal.SIGKILL)
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
            with pytest.raises(InvariantError, match="took no params; it "
                               "was killed by signal 9"):
                cross_validate(folds, self.params())
        assert_no_children()

    def test_failed_fork_kills_started_workers(self, cpus, monkeypatch):
        # k = 3 on four CPUs starts two workers; the second fork fails.
        real_fork, real_kill = os.fork, os.kill
        pids, kills = [], []

        def fork():
            if pids:
                raise BlockingIOError(errno.EAGAIN, "fork refused")
            pids.append(real_fork())
            return pids[-1]

        def kill(pid, sig):
            kills.append((pid, sig))
            real_kill(pid, sig)

        def open_fds():
            return (len(os.listdir("/proc/self/fd"))
                    if os.path.isdir("/proc/self/fd") else None)

        matrix = self.matrix()
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "kill", kill)
        cpus(4)
        before = open_fds()
        with pytest.raises(BlockingIOError, match="fork refused"):
            with FoldWorkers(matrix, 3, 50):
                pass
        assert kills == [(pids[0], signal.SIGKILL)]
        assert_no_children()
        # No end of the started worker's pipe or of the pipe opened for
        # the refused fork stays open.
        assert open_fds() == before

    def test_tune_outputs_do_not_depend_on_cpus(self, cpus, tmp_path):
        outs = []
        for n in (1, 3):
            cpus(n)
            out = tmp_path / f"cpus{n}"
            assert main(["tune", "--out", str(out), "--n-hours", "480",
                         "--budget", "5", "--init", "4", "--k", "3",
                         "--delta", "48", "--n-estimators-cap", "10",
                         "--no-timing"]) == 0
            assert_no_children()
            outs.append(out)
        for name in ("tune_report.json", "trials.jsonl", "convergence.csv",
                     "best_params.json"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()


class TestFitPath:
    """Every fit early-stops on the tail of its own training rows, and no
    fit is scored on those rows, in hold-out and in CV alike."""

    spec = FeatureSpec(rolling_windows=(6,), rolling_stats=("mean",),
                       lags=(1, 24), ewm_halflives=(),
                       temporal=(("hour", "sinusoidal"),))
    params = HyperParams(n_estimators=10, max_depth=3, learning_rate=0.3)

    @pytest.fixture
    def frame(self):
        return generate_synthetic(SyntheticConfig(n_hours=700, seed=32))

    @pytest.fixture
    def calls(self, monkeypatch):
        """Matrices passed to gbtree.fit (train, val) and gbtree.predict."""
        fits, scored = [], []
        real_fit, real_predict = gbtree.fit, gbtree.predict

        def fit(X, y, params, val=None, **kw):
            fits.append((X, val[0]))
            return real_fit(X, y, params, val=val, **kw)

        def predict(model, X):
            scored.append(X)
            return real_predict(model, X)

        # evaluation calls through the gbtree module attribute.
        monkeypatch.setattr(gbtree, "fit", fit)
        monkeypatch.setattr(gbtree, "predict", predict)
        return fits, scored

    def check(self, frame, fits, scored):
        values = build_matrix(frame, self.spec).values
        index = {row.tobytes(): i for i, row in enumerate(values)}
        assert len(index) == len(values)  # each row identifies itself

        def rows(X):
            return [index[row.tobytes()] for row in X]

        assert fits and len(fits) == len(scored)
        for (X_fit, X_val), X_scored in zip(fits, scored):
            fit_rows, val_rows = rows(X_fit), rows(X_val)
            cut = len(fit_rows) + len(val_rows)
            assert fit_rows + val_rows == list(range(cut))
            assert len(val_rows) == max(1, int(EARLY_STOP_FRACTION * cut))
            assert not set(val_rows) & set(rows(X_scored))

    def test_cross_validate(self, frame, calls):
        cv(build_matrix(frame, self.spec), self.params, k=3, delta=50)
        self.check(frame, *calls)

    def test_holdout(self, frame, calls):
        holdout(frame, self.spec, self.params, 0.2)
        self.check(frame, *calls)

    def test_too_few_fit_rows(self, frame):
        matrix = build_matrix(frame, self.spec)
        fit_before(matrix, 3, self.params)  # 2 fit rows, 1 early-stop row
        for cut in (2, 0, -5):
            with pytest.raises(DataError):
                fit_before(matrix, cut, self.params)


class TestPeriodBreakdown:
    def test_boundary_hours(self):
        # Hour 6 belongs to Morning, hour 18 to Evening.
        hours = np.array([6, 18])
        y = np.array([1.0, 2.0])
        out = period_breakdown(y, y, hours)
        assert out["Morning (6-12)"]["rmse"] == 0.0
        assert out["Evening (18-24)"]["rmse"] == 0.0
        assert out["Afternoon (12-18)"] == {"empty": True}
        assert out["Night (0-6)"] == {"empty": True}

    def test_partition_over_full_day(self):
        hours = np.arange(24)
        y = np.arange(24, dtype=float)
        out = period_breakdown(y, y + 1.0, hours)
        assert list(out) == ["Morning (6-12)", "Afternoon (12-18)",
                             "Evening (18-24)", "Night (0-6)"]
        for block in out.values():
            assert block["rmse"] == pytest.approx(1.0)

    def test_bad_hours(self):
        with pytest.raises(DataError):
            period_breakdown([1.0], [1.0], [24])
        with pytest.raises(DataError):
            period_breakdown([1.0, 2.0], [1.0, 2.0], [3])


class TestResidualStats:
    def test_alternating_signs(self):
        s = residual_stats([-1.0, 1.0, -1.0, 1.0])
        assert s.mean == 0.0
        assert s.skewness == pytest.approx(0.0)
        assert s.kurtosis == pytest.approx(1.0)  # two-point distribution

    def test_single_outlier(self):
        s = residual_stats([0.0, 0.0, 0.0, 1.0])
        assert s.mean == pytest.approx(0.25)
        assert s.std == pytest.approx(0.5)
        # Hand-computed central moments: m2=3/16, m3=3/32, m4=21/256.
        assert s.skewness == pytest.approx((3 / 32) / (3 / 16) ** 1.5)
        assert s.kurtosis == pytest.approx((21 / 256) / (3 / 16) ** 2)

    def test_normal_sample_moments(self):
        rng = np.random.default_rng(33)
        r = rng.normal(size=100_000)
        s = residual_stats(r)
        assert abs(s.skewness) < 0.05
        assert abs(s.kurtosis - 3.0) < 0.1

    def test_degenerate(self):
        s = residual_stats([2.0] * 10)
        assert s.degenerate
        assert s.skewness is None and s.kurtosis is None

    def test_minimum_size(self):
        with pytest.raises(DataError):
            residual_stats([1.0, 2.0, 3.0])
