"""Bayesian hyperparameter optimization with a Gaussian-process surrogate
and expected-improvement acquisition, plus a random-search baseline.

The surrogate is a Matern-5/2 ARD kernel on unit-cube-normalized inputs
with hyperparameters set by multi-start marginal-likelihood maximization,
using the likelihood's closed-form gradient. The likelihood and the
posterior call LAPACK's dpotrf and dpotrs (scipy.linalg.lapack) directly:
the routines scipy.linalg's cholesky, cho_factor and cho_solve call, less
those wrappers' per-call checks and lookups, which cost more than the
factorization of a kernel this small. Only K's finiteness is checked.

One Latin-hypercube generator, a numpy port of scipy.stats.qmc's
LatinHypercube that gives its bits for an int seed, lays out both the
initial design and the candidates that expected improvement is scored on.
Expected improvement takes the normal CDF from scipy.special.ndtr, and no
module imports scipy.stats.

Each function imports the scipy parts it uses when it runs, because every
CLI command imports this module and only `tune` calls into it: on a 2-vCPU
host, importing scipy.optimize and scipy.linalg.lapack takes ~0.45 s and
raises peak resident memory from ~31 to ~77 MB, where importing
cyclecast.cli takes ~0.15 s.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, CyclecastError, DataError, InvariantError

NOISE_FLOOR = 1e-6
MAX_JITTER = 1e-2

# Latin-hypercube candidates scored by expected improvement per guided
# trial, a fresh design each time.
N_CANDIDATES = 4096

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
    error: str | None = None  # why a failed trial failed

    def to_dict(self) -> dict:
        d = {
            "iteration": self.iteration,
            "params": self.params,
            "objective": self.objective,
            "failed": self.failed,
            "wall_time": self.wall_time,
        }
        if self.failed:
            d["error"] = self.error
        return d


def _matern52(X1, X2, length_scales, signal_var):
    """Matern-5/2 ARD kernel K with what its length-scale gradient needs.

    Returns (K, slope, d2): d2[..., j] is the squared difference in
    dimension j scaled by length_scales[j], and
    dK/dlog(length_scales[j]) = slope * d2[..., j].
    """
    Z1 = X1 / length_scales
    Z2 = Z1 if X2 is X1 else X2 / length_scales
    d = Z1[:, None, :] - Z2[None, :, :]
    d2 = np.square(d, out=d)
    r = np.sqrt(d2.sum(axis=-1))  # a sum of squares needs no clamp at 0
    s5r = math.sqrt(5.0) * r
    e = np.exp(-s5r)
    a = 1.0 + s5r
    K = signal_var * (a + 5.0 / 3.0 * r * r) * e
    slope = signal_var * 5.0 / 3.0 * a * e
    return K, slope, d2


def _standardize(y):
    """(mean, std, (y - mean) / std) of y; std is 1 for a constant y."""
    mean, std = float(np.mean(y)), float(np.std(y))
    if std == 0.0:
        std = 1.0
    return mean, std, (y - mean) / std


def _cholesky(K):
    """(L, info) from LAPACK dpotrf: the lower Cholesky factor of K, and
    info > 0 when K is not positive definite. L's upper triangle holds K's,
    which no caller reads. Like scipy.linalg.cholesky, a non-finite K
    raises ValueError."""
    from scipy.linalg.lapack import dpotrf

    if not np.isfinite(K).all():
        raise ValueError("kernel matrix must not contain infs or NaNs")
    return dpotrf(K, lower=1, clean=0)


class Surrogate:
    """GP posterior over observed trials (inputs in the unit cube)."""

    def __init__(self, X, y, length_scales, signal_var, noise_var, jitter):
        from scipy.linalg.lapack import dpotrs

        self.X = X
        self.y_mean, self.y_std, ys = _standardize(y)
        self.length_scales = length_scales
        self.signal_var = signal_var
        self.noise_var = noise_var
        K = _matern52(X, X, length_scales, signal_var)[0]
        K[np.diag_indices_from(K)] += noise_var + jitter
        self._chol, info = _cholesky(K)
        if info > 0:
            raise np.linalg.LinAlgError("kernel matrix not positive definite")
        self._alpha = dpotrs(self._chol, ys, lower=1)[0]

    def posterior(self, x: np.ndarray):
        """Predictive mean and std arrays, in objective units, at the rows
        of `x`: unit-cube points, shaped (n, d), or one point, shaped (d,)."""
        from scipy.linalg.lapack import dpotrs

        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k = _matern52(x, self.X, self.length_scales, self.signal_var)[0]
        mu = k @ self._alpha
        v = dpotrs(self._chol, k.T, lower=1)[0]
        var = self.signal_var + self.noise_var - np.sum(k * v.T, axis=1)
        var = np.maximum(var, 0.0)
        mu = mu * self.y_std + self.y_mean
        sigma = np.sqrt(var) * self.y_std
        return mu, sigma


def _neg_log_marginal_likelihood(log_params, X, y):
    """Negative log marginal likelihood and its gradient in log_params
    (log length scales, log signal, log noise): GPML eq. 5.9,
    d/dtheta = 1/2 tr((K^-1 - alpha alpha^T) dK/dtheta)."""
    from scipy.linalg.lapack import dpotrs

    n, d = X.shape
    ls = np.exp(log_params[:d])
    sf = math.exp(log_params[d])
    noise = math.exp(log_params[d + 1])
    K0, slope, d2 = _matern52(X, X, ls, sf)
    eye = np.eye(n)
    K = K0 + (noise + NOISE_FLOOR) * eye
    L, info = _cholesky(K)
    if info > 0:
        return 1e25, np.zeros(d + 2)
    alpha = dpotrs(L, y, lower=1)[0]
    nll = (
        0.5 * float(y @ alpha)
        + float(np.log(L.diagonal()).sum())
        + 0.5 * y.size * math.log(2.0 * math.pi)
    )
    W = dpotrs(L, eye, lower=1)[0] - alpha[:, None] * alpha
    grad = np.empty(d + 2)
    grad[:d] = 0.5 * np.einsum("ab,abj->j", W * slope, d2)
    grad[d] = 0.5 * float((W * K0).sum())
    grad[d + 1] = 0.5 * noise * float(W.trace())
    return nll, grad


def gp_fit(X, y, seed=0) -> Surrogate:
    """Fit GP kernel hyperparameters by multi-start likelihood maximization."""
    from scipy import optimize as sp_optimize

    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 2:
        raise DataError("GP fit needs at least 2 observations")
    if X.shape[0] != y.size:
        raise DataError("GP inputs and targets must align")
    d = X.shape[1]

    ys = _standardize(y)[2]

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
            method="L-BFGS-B", jac=True, bounds=bounds,
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


def expected_improvement(mu, sigma, best):
    """EI array for minimization; max(best - mu, 0) in the zero-variance
    limit."""
    from scipy.special import ndtr

    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ConfigError("sigma must be >= 0")
    improve = best - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
    ei = np.where(
        sigma > 0,
        improve * ndtr(z)
        + sigma * (np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)),
        np.maximum(improve, 0.0),
    )
    return np.maximum(ei, 0.0)


def _latin_hypercube(d, n, seed):
    """n points in the unit cube, one jittered point per 1/n stratum of each
    dimension, in a shuffled stratum order per dimension. An int seed gives
    scipy.stats.qmc.LatinHypercube(d, seed=seed).random(n) bit for bit; a
    Generator is drawn from, so successive calls give fresh designs."""
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=(n, d))
    perms = np.tile(np.arange(1, n + 1), (d, 1))
    for row in perms:
        rng.shuffle(row)
    return (perms.T - u) / n


def _evaluate(objective, params, iteration):
    """Run one trial. A CyclecastError or a non-finite value marks it
    failed, with the reason. An InvariantError, a fault of the program
    rather than of the trial's point, and any other exception propagate."""
    t0 = time.perf_counter()
    error = None
    try:
        value = float(objective(params))
        if not math.isfinite(value):
            error = f"non-finite objective {value!r}"
    except InvariantError:
        raise
    except CyclecastError as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    failed = error is not None
    return Trial(
        params=params,
        objective=None if failed else value,
        iteration=iteration,
        wall_time=wall,
        failed=failed,
        error=error,
    )


def _best_params(trials):
    """Parameters of the lowest-objective trial that did not fail."""
    ok = [t for t in trials if not t.failed]
    if not ok:
        raise DataError("every trial failed; no best point")
    return min(ok, key=lambda t: t.objective).params


def check_budget(budget, init):
    """Raise ConfigError unless `optimize` can run `init` initial trials
    (at least 2, which the first GP fit needs) and at least one more."""
    if not budget > init >= 2:
        raise ConfigError("need budget > init >= 2")


def optimize(space: ParamSpace, objective, budget, init, seed=42,
             initial_points=None, on_trial=None):
    """Sequential GP/EI minimization of `objective` over `space`.

    Starts from Latin-hypercube samples (plus any caller-provided
    `initial_points`, which count against the init budget), then
    iterates fit-surrogate / maximize-EI over a fresh seeded Latin
    hypercube of N_CANDIDATES points per trial, with local refinements
    around the incumbent. Returns (best params dict, trial history).
    """
    check_budget(budget, init)
    rng = np.random.default_rng(seed)
    d = space.n_dims

    unit_points = [space.to_unit(p) for p in (initial_points or [])[:init]]
    n_lhs = init - len(unit_points)
    if n_lhs > 0:
        unit_points.extend(
            _latin_hypercube(d, n_lhs, int(rng.integers(2 ** 31))))
    # The candidates' own stream, so that the main stream draws the GP
    # seeds and local perturbations whatever a design consumes.
    gen = np.random.default_rng(int(rng.integers(2 ** 31)))

    trials: list[Trial] = []
    for it in range(budget):
        ok = [t for t in trials if not t.failed]
        if it < init:
            u = unit_points[it]
        elif len(ok) >= 2:
            # The GP sees the unit coordinates of the *rounded* points run.
            X_obs = np.array([space.to_unit(t.params) for t in ok])
            y_obs = np.array([t.objective for t in ok])
            surrogate = gp_fit(X_obs, y_obs,
                               seed=int(rng.integers(2 ** 31)))
            best_u = X_obs[int(np.argmin(y_obs))]
            cands = _latin_hypercube(d, N_CANDIDATES, gen)
            local = np.clip(
                best_u + rng.normal(0.0, 0.05, size=(64, d)), 0.0, 1.0
            )
            cands = np.vstack([cands, local])
            mu, sigma = surrogate.posterior(cands)
            ei = expected_improvement(mu, sigma, y_obs.min())
            u = cands[int(np.argmax(ei))]
        else:
            u = rng.uniform(size=d)
        trial = _evaluate(objective, space.from_unit(np.asarray(u)), it)
        trials.append(trial)
        if on_trial is not None:
            on_trial(trial)

    return _best_params(trials), trials


def random_search(space: ParamSpace, objective, budget, seed=42):
    """Uniform random baseline over the same space."""
    if budget < 1:
        raise ConfigError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    trials = []
    for it in range(budget):
        params = space.from_unit(rng.uniform(size=space.n_dims))
        trials.append(_evaluate(objective, params, it))
    return _best_params(trials), trials


def incumbent_trace(trials):
    """Best-so-far objective per iteration (failed trials carry forward)."""
    trace = []
    best = math.inf
    for t in trials:
        if not t.failed and t.objective < best:
            best = t.objective
        trace.append(best)
    return trace
