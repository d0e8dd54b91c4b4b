"""Bayesian hyperparameter optimization with a Gaussian-process surrogate
and expected-improvement acquisition, plus a random-search baseline.

The surrogate is a Matern-5/2 ARD kernel on unit-cube-normalized inputs
with hyperparameters set by multi-start marginal-likelihood maximization,
using the likelihood's closed-form gradient (GPML sec. 5.4). Each fit
factors K with numpy.linalg.cholesky and inverts the factor once: the
likelihood's gradient needs K^-1 = Li^T Li anyway, and the posterior
variance is a sum of squares of Li k^T. A small projected BFGS maximizes
the likelihood over a box of log-parameters, and each fit after the first
in a search starts from the one before. Expected improvement takes the
normal CDF from math.erfc.

One Latin-hypercube generator, a numpy port of SciPy's
stats.qmc.LatinHypercube that gives its bits for an int seed, lays out
both the initial design and the candidates that expected improvement is
scored on.

So the module needs numpy alone. On a 2-vCPU host with Python 3.11 and
numpy 2.4, importing cyclecast.cli takes about 0.09 s and peaks at 31 MB
resident, and a small `tune` run (480 hours, budget 6) at 42 MB.
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
    """The lower Cholesky factor of K, or None when K is not positive
    definite. A non-finite K raises ValueError."""
    if not np.isfinite(K).all():
        raise ValueError("kernel matrix must not contain infs or NaNs")
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError:
        return None


class Surrogate:
    """GP posterior over observed trials (inputs in the unit cube)."""

    # The likelihood's log-parameters that gp_fit chose, which the next
    # fit starts from; None for a posterior built directly.
    log_params = None

    def __init__(self, X, y, length_scales, signal_var, noise_var, jitter):
        self.X = X
        self.y_mean, self.y_std, ys = _standardize(y)
        self.length_scales = length_scales
        self.signal_var = signal_var
        self.noise_var = noise_var
        K = _matern52(X, X, length_scales, signal_var)[0]
        K[np.diag_indices_from(K)] += noise_var + jitter
        L = _cholesky(K)
        if L is None:
            raise np.linalg.LinAlgError("kernel matrix not positive definite")
        self._inv_chol = np.linalg.inv(L)
        self._alpha = self._inv_chol.T @ (self._inv_chol @ ys)

    def posterior(self, x: np.ndarray):
        """Predictive mean and std arrays, in objective units, at the rows
        of `x`: unit-cube points, shaped (n, d), or one point, shaped (d,)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        k = _matern52(x, self.X, self.length_scales, self.signal_var)[0]
        mu = k @ self._alpha
        # var = k(x, x) - k K^-1 k^T, with K^-1 = Li^T Li: the sum of
        # squares of Li k^T loses fewer bits than k @ K^-1 would.
        v = self._inv_chol @ k.T
        var = self.signal_var + self.noise_var - np.einsum("ij,ij->j", v, v)
        var = np.maximum(var, 0.0)
        mu = mu * self.y_std + self.y_mean
        sigma = np.sqrt(var) * self.y_std
        return mu, sigma


def _neg_log_marginal_likelihood(log_params, X, y):
    """Negative log marginal likelihood and its gradient in log_params
    (log length scales, log signal, log noise): GPML eq. 5.9,
    d/dtheta = 1/2 tr((K^-1 - alpha alpha^T) dK/dtheta)."""
    n, d = X.shape
    ls = np.exp(log_params[:d])
    sf = math.exp(log_params[d])
    noise = math.exp(log_params[d + 1])
    K0, slope, d2 = _matern52(X, X, ls, sf)
    K = K0 + (noise + NOISE_FLOOR) * np.eye(n)
    L = _cholesky(K)
    if L is None:
        return 1e25, np.zeros(d + 2)
    Li = np.linalg.inv(L)
    K_inv = Li.T @ Li
    alpha = K_inv @ y
    nll = (
        0.5 * float(y @ alpha)
        + float(np.log(L.diagonal()).sum())
        + 0.5 * y.size * math.log(2.0 * math.pi)
    )
    W = K_inv - alpha[:, None] * alpha
    grad = np.empty(d + 2)
    grad[:d] = 0.5 * np.einsum("ab,abj->j", W * slope, d2)
    grad[d] = 0.5 * float((W * K0).sum())
    grad[d + 1] = 0.5 * noise * float(W.trace())
    return nll, grad


# Where L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995) stops by default in SciPy:
# every projected-gradient coordinate within PGTOL of 0, or a step that
# lowers the value by at most FTOL of its size (factr 1e7 times the
# float64 epsilon).
PGTOL = 1e-5
FTOL = 1e7 * np.finfo(float).eps
MAX_ITER = 1000
MAX_TRIALS = 30  # function calls per line search
ARMIJO = 1e-4
WOLFE = 0.9


def _minimize_box(fun, x, lower, upper):
    """(x, value, why it stopped) at a local minimum of `fun`, which
    returns the value and its gradient, over the box [lower, upper], from
    the start `x`. It stops on "pgtol" or "ftol" (see PGTOL), on "line
    search" when no step passes the Armijo test, or on "iterations".

    Projected BFGS (Nocedal & Wright 2006, ch. 6 and sec. 16.7): a
    coordinate at a bound that the gradient pushes outward is held, and
    the BFGS step moves the others, the free coordinates. The inverse
    Hessian estimate H covers only those, and restarts as the scaled
    identity (s^T y / y^T y) I whenever the held set changes. The first
    line search starts at length min(1, 1/|p|), every later one at 1.
    """
    x = np.clip(x, lower, upper)
    f, g = fun(x)
    held = None
    scale = 1.0
    for it in range(MAX_ITER):
        if np.abs(np.clip(x - g, lower, upper) - x).max() <= PGTOL:
            return x, f, "pgtol"
        at_low, at_high = x <= lower, x >= upper
        now_held = (at_low & (g > 0)) | (at_high & (g < 0))
        if held is None or (now_held != held).any():
            held, free = now_held, ~now_held
            H = scale * np.eye(int(free.sum()))
        p = np.zeros_like(x)
        p[free] = -H @ g[free]
        p[(at_low & (p < 0)) | (at_high & (p > 0))] = 0.0
        if g @ p >= 0.0:  # the box turned p uphill: descend the gradient
            H = scale * np.eye(int(free.sum()))
            p[free] = -scale * g[free]
        step = min(1.0, 1.0 / float(np.linalg.norm(p))) if it == 0 else 1.0
        found = _line_search(fun, x, f, g, p, step, lower, upper)
        if found is None:
            return x, f, "line search"
        x_new, f_new, g_new = found
        s = (x_new - x)[free]
        dg = (g_new - g)[free]
        sy = float(s @ dg)
        if sy > 1e-10 * float(dg @ dg):
            scale = sy / float(dg @ dg)
            Hy = H @ dg
            H += ((sy + float(dg @ Hy)) / sy ** 2) * np.outer(s, s) \
                - (np.outer(Hy, s) + np.outer(s, Hy)) / sy
        decrease = f - f_new
        size = max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= FTOL * size:
            return x, f, "ftol"
    return x, f, "iterations"


def _line_search(fun, x, f, g, p, step, lower, upper):
    """(x, value, gradient) at a point of the projected path
    clip(x + t p) that passes the Armijo test, from t = `step`, or None if
    MAX_TRIALS calls find none. A failed test shrinks t to the minimum of
    the quadratic through the two values and the slope at x, kept within
    [0.1, 0.5] t. A passed test doubles t while the slope along p is still
    steeper than WOLFE times the slope at x, so that the BFGS update sees
    curvature where the likelihood is concave, and keeps the last point
    that passed."""
    slope = float(g @ p)
    found = None
    for _ in range(MAX_TRIALS):
        x_new = np.clip(x + step * p, lower, upper)
        f_new, g_new = fun(x_new)
        drop = float(g @ (x_new - x))
        if f_new > f + ARMIJO * drop:
            if found is not None:
                break
            # f_new - f - drop > 0, since drop < 0 and the test failed.
            step *= min(max(-drop / (2.0 * (f_new - f - drop)), 0.1), 0.5)
            continue
        found = x_new, f_new, g_new
        inside = (x_new > lower) & (x_new < upper)
        if float(g_new[inside] @ p[inside]) >= WOLFE * slope:
            break
        step *= 2.0
    return found


def gp_fit(X, y, seed=0, start=None) -> Surrogate:
    """Fit GP kernel hyperparameters by multi-start likelihood maximization.

    The starts are a fixed point and three random ones, or, given the
    log-parameters `start` of an earlier fit (Surrogate.log_params),
    `start` and one random point."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64)
    if X.shape[0] < 2:
        raise DataError("GP fit needs at least 2 observations")
    if X.shape[0] != y.size:
        raise DataError("GP inputs and targets must align")
    d = X.shape[1]

    ys = _standardize(y)[2]

    rng = np.random.default_rng(seed)
    if start is None:
        starts = [np.zeros(d + 2)]
        starts[0][d + 1] = math.log(1e-4)
    else:
        starts = [np.asarray(start, dtype=np.float64)]
    for _ in range(3 if start is None else 1):
        s = np.concatenate([
            rng.uniform(math.log(0.05), math.log(2.0), size=d),
            [rng.uniform(math.log(0.2), math.log(2.0))],
            [rng.uniform(math.log(1e-6), math.log(1e-2))],
        ])
        starts.append(s)
    lower = np.array([math.log(1e-2)] * d + [math.log(1e-3), math.log(1e-8)])
    upper = np.array([math.log(1e2)] * d + [math.log(1e3), 0.0])

    best_x, best_f = None, math.inf
    for s in starts:
        x, f, _ = _minimize_box(
            lambda theta: _neg_log_marginal_likelihood(theta, X, ys),
            s, lower, upper)
        if best_x is None or f < best_f:
            best_x, best_f = x, f
    ls = np.exp(best_x[:d])
    sf = math.exp(best_x[d])
    sn = math.exp(best_x[d + 1]) + NOISE_FLOOR

    jitter = 0.0
    while True:
        try:
            surrogate = Surrogate(X, y, ls, sf, sn, jitter)
        except np.linalg.LinAlgError:
            jitter = 1e-8 if jitter == 0.0 else jitter * 2.0
            if jitter > MAX_JITTER:
                raise DataError(
                    "kernel matrix singular even after jitter escalation"
                )
        else:
            surrogate.log_params = best_x
            return surrogate


def expected_improvement(mu, sigma, best):
    """EI array for minimization; max(best - mu, 0) in the zero-variance
    limit."""
    mu = np.asarray(mu, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma < 0):
        raise ConfigError("sigma must be >= 0")
    improve = best - mu
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
    # Phi(z) = erfc(-z / sqrt 2) / 2, one math.erfc call per point.
    cdf = 0.5 * np.fromiter(map(math.erfc, (z / -math.sqrt(2.0)).ravel()),
                            dtype=np.float64, count=z.size).reshape(z.shape)
    ei = np.where(
        sigma > 0,
        improve * cdf
        + sigma * (np.exp(-z * z / 2.0) / math.sqrt(2.0 * math.pi)),
        np.maximum(improve, 0.0),
    )
    return np.maximum(ei, 0.0)


def _latin_hypercube(d, n, seed):
    """n points in the unit cube, one jittered point per 1/n stratum of each
    dimension, in a shuffled stratum order per dimension. An int seed gives
    SciPy's stats.qmc.LatinHypercube(d, seed=seed).random(n) bit for bit;
    a Generator is drawn from, so successive calls give fresh designs."""
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

    theta = None  # the last GP fit's log-parameters, the next one's start
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
                               seed=int(rng.integers(2 ** 31)), start=theta)
            theta = surrogate.log_params
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
