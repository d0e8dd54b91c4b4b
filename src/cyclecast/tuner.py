"""Bayesian hyperparameter optimization with a Gaussian-process surrogate
and expected-improvement acquisition, plus a random-search baseline.

The surrogate is a Matern-5/2 ARD kernel on unit-cube-normalized inputs
with hyperparameters set by multi-start marginal-likelihood maximization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize as sp_optimize
from scipy import stats as sp_stats
from scipy.linalg import cho_factor, cho_solve, cholesky
from scipy.stats import qmc

from .errors import ConfigError, DataError

NOISE_FLOOR = 1e-6
MAX_JITTER = 1e-2

LINEAR = "linear"
LOG = "log"


@dataclass(frozen=True)
class Dimension:
    name: str
    low: float
    high: float
    scale: str = LINEAR
    integer: bool = False

    def __post_init__(self):
        if not self.low < self.high:
            raise ConfigError(f"{self.name}: lower bound must be < upper")
        if self.scale == LOG and self.low <= 0:
            raise ConfigError(f"{self.name}: log scale needs positive bounds")

    def from_unit(self, u: float):
        u = min(max(float(u), 0.0), 1.0)
        if self.scale == LOG:
            value = math.exp(
                math.log(self.low) + u * (math.log(self.high) - math.log(self.low))
            )
        else:
            value = self.low + u * (self.high - self.low)
        if self.integer:
            return int(round(value))
        return value

    def to_unit(self, value: float) -> float:
        if self.scale == LOG:
            u = (math.log(value) - math.log(self.low)) / (
                math.log(self.high) - math.log(self.low)
            )
        else:
            u = (value - self.low) / (self.high - self.low)
        return min(max(u, 0.0), 1.0)


@dataclass(frozen=True)
class ParamSpace:
    """Bounded search domain; dimension order is fixed."""

    dimensions: tuple

    def __post_init__(self):
        names = [d.name for d in self.dimensions]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate dimension names")

    @property
    def n_dims(self):
        return len(self.dimensions)

    def from_unit(self, u: np.ndarray) -> dict:
        return {
            d.name: d.from_unit(u[i]) for i, d in enumerate(self.dimensions)
        }

    def to_unit(self, point: dict) -> np.ndarray:
        return np.array(
            [d.to_unit(point[d.name]) for d in self.dimensions]
        )

    @classmethod
    def default(cls) -> "ParamSpace":
        return cls(dimensions=(
            Dimension("learning_rate", 1e-3, 0.3, scale=LOG),
            Dimension("max_depth", 2, 10, integer=True),
            Dimension("n_estimators", 100, 1000, integer=True),
            Dimension("min_child_weight", 0.5, 8.0, scale=LOG),
            Dimension("subsample", 0.5, 1.0),
            Dimension("colsample_bytree", 0.5, 1.0),
            Dimension("gamma", 0.0, 2.0),
        ))


@dataclass
class Trial:
    params: dict
    objective: float | None
    iteration: int
    wall_time: float = 0.0
    failed: bool = False

    def to_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "params": self.params,
            "objective": self.objective,
            "failed": self.failed,
            "wall_time": self.wall_time,
        }


def _matern52(X1, X2, length_scales, signal_var):
    d = X1[:, None, :] / length_scales - X2[None, :, :] / length_scales
    r = np.sqrt(np.maximum(np.sum(d * d, axis=-1), 0.0))
    s5r = math.sqrt(5.0) * r
    return signal_var * (1.0 + s5r + 5.0 / 3.0 * r * r) * np.exp(-s5r)


class Surrogate:
    """GP posterior over observed trials (inputs in the unit cube)."""

    def __init__(self, X, y, length_scales, signal_var, noise_var, jitter):
        self.X = X
        self.y_mean = float(np.mean(y))
        self.y_std = float(np.std(y))
        if self.y_std == 0.0:
            self.y_std = 1.0
        self.y = (y - self.y_mean) / self.y_std
        self.length_scales = length_scales
        self.signal_var = signal_var
        self.noise_var = noise_var
        self.jitter = jitter
        K = _matern52(X, X, length_scales, signal_var)
        K[np.diag_indices_from(K)] += noise_var + jitter
        self._chol = cho_factor(K, lower=True)
        self._alpha = cho_solve(self._chol, self.y)

    def posterior(self, x: np.ndarray):
        """Predictive (mean, std) at one unit-cube point, in objective units."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k = _matern52(x, self.X, self.length_scales, self.signal_var)
        mu = k @ self._alpha
        v = cho_solve(self._chol, k.T)
        var = self.signal_var + self.noise_var - np.sum(k * v.T, axis=1)
        var = np.maximum(var, 0.0)
        mu = mu * self.y_std + self.y_mean
        sigma = np.sqrt(var) * self.y_std
        if mu.size == 1:
            return float(mu[0]), float(sigma[0])
        return mu, sigma


def _neg_log_marginal_likelihood(log_params, X, y):
    d = X.shape[1]
    ls = np.exp(log_params[:d])
    sf = math.exp(log_params[d])
    sn = math.exp(log_params[d + 1]) + NOISE_FLOOR
    K = _matern52(X, X, ls, sf)
    K[np.diag_indices_from(K)] += sn
    try:
        L = cholesky(K, lower=True)
    except np.linalg.LinAlgError:
        return 1e25
    alpha = cho_solve((L, True), y)
    nll = (
        0.5 * float(y @ alpha)
        + float(np.sum(np.log(np.diag(L))))
        + 0.5 * y.size * math.log(2.0 * math.pi)
    )
    return nll


def gp_fit(X, y, seed=0) -> Surrogate:
    """Fit GP kernel hyperparameters by multi-start likelihood maximization."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 2:
        raise DataError("GP fit needs at least 2 observations")
    if X.shape[0] != y.size:
        raise DataError("GP inputs and targets must align")
    d = X.shape[1]

    y_mean, y_std = float(y.mean()), float(y.std())
    if y_std == 0.0:
        y_std = 1.0
    ys = (y - y_mean) / y_std

    rng = np.random.default_rng(seed)
    starts = [np.zeros(d + 2)]
    starts[0][d + 1] = math.log(1e-4)
    for _ in range(3):
        s = np.concatenate([
            rng.uniform(math.log(0.05), math.log(2.0), size=d),
            [rng.uniform(math.log(0.2), math.log(2.0))],
            [rng.uniform(math.log(1e-6), math.log(1e-2))],
        ])
        starts.append(s)
    bounds = [(math.log(1e-2), math.log(1e2))] * d
    bounds += [(math.log(1e-3), math.log(1e3))]
    bounds += [(math.log(1e-8), math.log(1.0))]

    best = None
    for s in starts:
        res = sp_optimize.minimize(
            _neg_log_marginal_likelihood, s, args=(X, ys),
            method="L-BFGS-B", bounds=bounds,
        )
        if best is None or res.fun < best.fun:
            best = res
    ls = np.exp(best.x[:d])
    sf = math.exp(best.x[d])
    sn = math.exp(best.x[d + 1]) + NOISE_FLOOR

    jitter = 0.0
    while True:
        try:
            return Surrogate(X, y, ls, sf, sn, jitter)
        except np.linalg.LinAlgError:
            jitter = 1e-8 if jitter == 0.0 else jitter * 2.0
            if jitter > MAX_JITTER:
                raise DataError(
                    "kernel matrix singular even after jitter escalation"
                )


def fit_surrogate(space: ParamSpace, trials, seed=0) -> Surrogate:
    """gp_fit over a trial history (failed trials excluded)."""
    ok = [t for t in trials if not t.failed]
    if len(ok) < 2:
        raise DataError("need at least 2 finished trials to fit a surrogate")
    X = np.array([space.to_unit(t.params) for t in ok])
    y = np.array([t.objective for t in ok])
    return gp_fit(X, y, seed=seed)


def expected_improvement(mu, sigma, best):
    """EI for minimization; max(best - mu, 0) in the zero-variance limit."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ConfigError("sigma must be >= 0")
    improve = best - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
    ei = np.where(
        sigma > 0,
        improve * sp_stats.norm.cdf(z) + sigma * sp_stats.norm.pdf(z),
        np.maximum(improve, 0.0),
    )
    out = np.maximum(ei, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _evaluate(objective, params, iteration):
    t0 = time.perf_counter()
    try:
        value = float(objective(params))
        failed = not math.isfinite(value)
    except Exception:
        value, failed = None, True
    wall = time.perf_counter() - t0
    return Trial(
        params=params,
        objective=None if failed else value,
        iteration=iteration,
        wall_time=wall,
        failed=failed,
    )


def optimize(space: ParamSpace, objective, budget, init, seed=42,
             initial_points=None, n_candidates=4096, on_trial=None):
    """Sequential GP/EI minimization of `objective` over `space`.

    Starts from Latin-hypercube samples (plus any caller-provided
    `initial_points`, which count against the init budget), then
    iterates fit-surrogate / maximize-EI over seeded quasi-random
    candidates with local refinements around the incumbent. Returns
    (best params dict, trial history).
    """
    if not budget > init >= 2:
        raise ConfigError("need budget > init >= 2")
    rng = np.random.default_rng(seed)
    d = space.n_dims

    unit_points = []
    if initial_points:
        for p in initial_points[:init]:
            unit_points.append(space.to_unit(p))
    n_lhs = init - len(unit_points)
    if n_lhs > 0:
        lhs = qmc.LatinHypercube(d=d, seed=int(rng.integers(2 ** 31)))
        unit_points.extend(lhs.random(n_lhs))

    trials: list[Trial] = []

    def run(u, iteration):
        params = space.from_unit(np.asarray(u))
        trial = _evaluate(objective, params, iteration)
        trials.append(trial)
        if on_trial is not None:
            on_trial(trial)
        return trial

    X_obs, y_obs = [], []
    for i, u in enumerate(unit_points):
        trial = run(u, i)
        if not trial.failed:
            # Store the unit coordinates of the *rounded* point actually run.
            X_obs.append(space.to_unit(trial.params))
            y_obs.append(trial.objective)

    sobol = qmc.Sobol(d=d, scramble=True, seed=int(rng.integers(2 ** 31)))
    for it in range(init, budget):
        if len(y_obs) >= 2:
            surrogate = gp_fit(
                np.array(X_obs), np.array(y_obs),
                seed=int(rng.integers(2 ** 31)),
            )
            best_val = min(y_obs)
            best_u = X_obs[int(np.argmin(y_obs))]
            cands = sobol.random(n_candidates)
            local = np.clip(
                best_u + rng.normal(0.0, 0.05, size=(64, d)), 0.0, 1.0
            )
            cands = np.vstack([cands, local])
            mu, sigma = surrogate.posterior(cands)
            ei = expected_improvement(mu, sigma, best_val)
            u_next = cands[int(np.argmax(ei))]
        else:
            u_next = rng.uniform(size=d)
        trial = run(u_next, it)
        if not trial.failed:
            X_obs.append(space.to_unit(trial.params))
            y_obs.append(trial.objective)

    ok = [t for t in trials if not t.failed]
    if not ok:
        raise DataError("every trial failed; no best point")
    best_trial = min(ok, key=lambda t: t.objective)
    return best_trial.params, trials


def random_search(space: ParamSpace, objective, budget, seed=42, on_trial=None):
    """Uniform random baseline over the same space."""
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    trials = []
    for it in range(budget):
        params = space.from_unit(rng.uniform(size=space.n_dims))
        trial = _evaluate(objective, params, it)
        trials.append(trial)
        if on_trial is not None:
            on_trial(trial)
    ok = [t for t in trials if not t.failed]
    if not ok:
        raise DataError("every trial failed; no best point")
    best_trial = min(ok, key=lambda t: t.objective)
    return best_trial.params, trials


def incumbent_trace(trials):
    """Best-so-far objective per iteration (failed trials carry forward)."""
    trace = []
    best = math.inf
    for t in trials:
        if not t.failed and t.objective < best:
            best = t.objective
        trace.append(best)
    return trace
