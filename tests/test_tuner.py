import math

import numpy as np
import pytest

from cyclecast.errors import (
    ConfigError, CyclecastError, DataError, InvariantError,
)
from cyclecast.tuner import (
    N_CANDIDATES, NOISE_FLOOR, PGTOL, Dimension, ParamSpace, Surrogate,
    _latin_hypercube, _minimize_box, _neg_log_marginal_likelihood,
    _standardize, check_budget, expected_improvement, gp_fit,
    incumbent_trace, optimize, random_search,
)


def sphere_space():
    return ParamSpace(dimensions=(
        Dimension("x", -5.0, 5.0),
        Dimension("y", -5.0, 5.0),
    ))


def sphere(p):
    return p["x"] ** 2 + p["y"] ** 2


class TestDimension:
    def test_linear_round_trip(self):
        d = Dimension("x", -5.0, 5.0)
        assert d.from_unit(0.5) == 0.0
        assert d.to_unit(2.5) == pytest.approx(0.75)

    def test_log_scale_midpoint_is_geometric_mean(self):
        d = Dimension("lr", 1e-3, 0.3, scale="log")
        assert d.from_unit(0.0) == pytest.approx(1e-3)
        assert d.from_unit(1.0) == pytest.approx(0.3)
        assert d.from_unit(0.5) == pytest.approx(math.sqrt(1e-3 * 0.3))

    def test_integer_rounding(self):
        d = Dimension("depth", 2, 10, integer=True)
        assert d.from_unit(0.0) == 2
        assert d.from_unit(1.0) == 10
        assert isinstance(d.from_unit(0.31), int)

    def test_unit_values_clamped(self):
        d = Dimension("x", 0.0, 1.0)
        assert d.from_unit(-0.2) == 0.0
        assert d.from_unit(1.7) == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            Dimension("x", 1.0, 1.0)
        with pytest.raises(ConfigError):
            Dimension("x", 0.0, 1.0, scale="log")


class TestParamSpace:
    def test_default_space_covers_learner_knobs(self):
        space = ParamSpace.default()
        names = [d.name for d in space.dimensions]
        assert names == ["learning_rate", "max_depth", "n_estimators",
                         "min_child_weight", "subsample",
                         "colsample_bytree", "gamma"]

    def test_round_trip(self):
        space = sphere_space()
        p = space.from_unit(np.array([0.3, 0.8]))
        u = space.to_unit(p)
        assert u == pytest.approx([0.3, 0.8])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigError):
            ParamSpace(dimensions=(Dimension("x", 0, 1),
                                   Dimension("x", 0, 2)))


class TestExpectedImprovement:
    def test_zero_variance_positive_gap(self):
        assert expected_improvement(1.0, 0.0, 3.0) == pytest.approx(2.0)

    def test_zero_variance_no_gap(self):
        assert expected_improvement(3.0, 0.0, 1.0) == 0.0

    def test_mean_equals_best(self):
        # EI = sigma * pdf(0) = sigma * 0.3989422804014327.
        assert expected_improvement(2.0, 1.0, 2.0) == pytest.approx(
            0.3989422804014327, abs=1e-12)
        assert expected_improvement(2.0, 0.5, 2.0) == pytest.approx(
            0.5 * 0.3989422804014327, abs=1e-12)

    def test_closed_form_point(self):
        # EI = (best - mu) Phi(z) + sigma phi(z), z = (best - mu) / sigma,
        # against scipy.stats.norm's Phi and phi; sigma = 0 gives
        # max(best - mu, 0). Phi comes from math.erfc, so the two differ in
        # the last bits: on the grid at most 9.1e-13 relative, at z = -8.5,
        # where (best - mu) Phi(z) and sigma phi(z) nearly cancel, and at
        # most 3.5e-13 over 200 seeds of the random draws below. Zeros
        # match.
        from scipy.stats import norm

        def want(mu, sigma, best):
            improve = best - mu
            zs = improve / np.where(sigma > 0, sigma, 1.0)
            return np.maximum(np.where(
                sigma > 0, improve * norm.cdf(zs) + sigma * norm.pdf(zs),
                np.maximum(improve, 0.0)), 0.0)

        assert expected_improvement(0.0, 1.0, 1.0) == pytest.approx(
            norm.cdf(1.0) + norm.pdf(1.0), rel=1e-15)
        best = 1.0
        z = np.array([0.0, 1.0, -1.0, 0.3, -2.5, 8.5, -8.5, 12.0, -40.0])
        sigma = np.array([0.5, 1.0, 2.0, 1e-3, 3.0])
        mu = (best - z[:, None] * sigma).ravel()
        sigma = np.tile(sigma, z.size)
        mu = np.concatenate([mu, [0.5, 1.0, 1.5]])
        sigma = np.concatenate([sigma, [0.0, 0.0, 0.0]])
        cases = [(mu, sigma, best)]
        # z uniform on [-6, 6], sigma log-uniform on [e^-7, e^2].
        for seed in range(20):
            rng = np.random.default_rng(seed)
            sigma = np.exp(rng.uniform(-7.0, 2.0, size=100))
            best = rng.normal()
            cases.append((best - rng.uniform(-6.0, 6.0, size=100) * sigma,
                          sigma, best))
        for mu, sigma, best in cases:
            np.testing.assert_allclose(expected_improvement(mu, sigma, best),
                                       want(mu, sigma, best),
                                       rtol=1e-11, atol=0.0)

    def test_monotone_in_sigma(self):
        sigmas = np.linspace(0.01, 3.0, 30)
        ei = expected_improvement(np.full(30, 2.0), sigmas, 1.0)
        assert np.all(np.diff(ei) > 0)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            expected_improvement(0.0, -1.0, 0.0)


class TestQuasiRandomDesigns:
    """The tuner's one design generator, for the initial trials and the
    expected-improvement candidates."""

    SEEDS = (0, 7, 123456789, 2 ** 31 - 1)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_latin_hypercube_bit_equal_to_scipy(self, d):
        from scipy.stats import qmc
        for seed in self.SEEDS:
            for n in (1, 2, 7, 40):
                want = qmc.LatinHypercube(d=d, seed=seed).random(n)
                assert np.array_equal(_latin_hypercube(d, n, seed), want)

    def test_successive_candidate_designs_stratify_and_differ(self):
        gen = np.random.default_rng(11)
        designs = [_latin_hypercube(7, N_CANDIDATES, gen) for _ in range(3)]
        for u in designs:
            assert u.shape == (N_CANDIDATES, 7)
            strata = np.sort(np.floor(u * N_CANDIDATES), axis=0)
            assert (strata == np.arange(N_CANDIDATES)[:, None]).all()
        for i, u in enumerate(designs):
            for v in designs[i + 1:]:
                assert not np.any(u == v)


class TestGpSurrogate:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(40)
        X = rng.uniform(size=(12, 2))
        y = np.sin(3 * X[:, 0]) + X[:, 1] ** 2
        gp = gp_fit(X, y, seed=0)
        for i in range(len(X)):
            mu, sigma = gp.posterior(X[i])
            assert mu == pytest.approx(y[i], abs=0.05)
            assert sigma < 0.15

    def test_reverts_to_prior_far_away(self):
        X = np.linspace(0.0, 0.4, 15).reshape(-1, 1)
        y = np.sin(12.0 * X[:, 0])
        gp = gp_fit(X, y, seed=0)
        _, sigma_near = gp.posterior(np.array([0.2]))
        _, sigma_far = gp.posterior(np.array([0.95]))
        assert sigma_far > 3 * sigma_near

    def test_quadratic_held_out_accuracy(self):
        rng = np.random.default_rng(41)
        X = rng.uniform(size=(40, 2))
        f = lambda X: (X[:, 0] - 0.4) ** 2 + (X[:, 1] - 0.6) ** 2
        gp = gp_fit(X, f(X), seed=0)
        X_test = rng.uniform(0.1, 0.9, size=(20, 2))
        mu, _ = gp.posterior(X_test)
        assert float(np.sqrt(np.mean((mu - f(X_test)) ** 2))) < 0.02

    def test_observation_shrinks_variance(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0.0, 1.0])
        gp_two = gp_fit(X, y, seed=0)
        _, sigma_before = gp_two.posterior(np.array([0.5]))
        gp_three = gp_fit(np.array([[0.0], [0.5], [1.0]]),
                          np.array([0.0, 0.6, 1.0]), seed=0)
        _, sigma_after = gp_three.posterior(np.array([0.5]))
        assert sigma_after < sigma_before

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            gp_fit(np.array([[0.5]]), np.array([1.0]))

    def test_warm_start_never_loses_its_start(self):
        # A fit from an earlier fit's optimum keeps a likelihood at least
        # as high on the same data, and records where it ended.
        rng = np.random.default_rng(42)
        X = rng.uniform(size=(10, 3))
        y = np.cos(4 * X[:, 0]) + X[:, 1]
        ys = _standardize(y)[2]
        cold = gp_fit(X, y, seed=0)
        assert cold.log_params.shape == (5,)
        warm = gp_fit(X, y, seed=1, start=cold.log_params)
        assert _neg_log_marginal_likelihood(warm.log_params, X, ys)[0] <= \
            _neg_log_marginal_likelihood(cold.log_params, X, ys)[0]
        assert np.array_equal(warm.length_scales,
                              np.exp(warm.log_params[:3]))


def oracle_kernel(X1, X2, ls, sf):
    """The Matern-5/2 kernel, its slope and d2 as first written."""
    d = X1[:, None, :] / ls - X2[None, :, :] / ls
    d2 = np.square(d, out=d)
    r = np.sqrt(np.maximum(np.sum(d2, axis=-1), 0.0))
    s5r = math.sqrt(5.0) * r
    e = np.exp(-s5r)
    K = sf * (1.0 + s5r + 5.0 / 3.0 * r * r) * e
    slope = sf * 5.0 / 3.0 * (1.0 + s5r) * e
    return K, slope, d2


def oracle_likelihood(log_params, X, y):
    """GPML eq. 5.9 through scipy.linalg's checked wrappers."""
    from scipy.linalg import cho_solve, cholesky

    n, d = X.shape
    noise = math.exp(log_params[d + 1])
    K0, slope, d2 = oracle_kernel(X, X, np.exp(log_params[:d]),
                                  math.exp(log_params[d]))
    L = cholesky(K0 + (noise + NOISE_FLOOR) * np.eye(n), lower=True)
    alpha = cho_solve((L, True), y)
    nll = (0.5 * float(y @ alpha) + float(np.sum(np.log(np.diag(L))))
           + 0.5 * y.size * math.log(2.0 * math.pi))
    W = cho_solve((L, True), np.eye(n)) - np.outer(alpha, alpha)
    grad = np.concatenate([
        0.5 * np.einsum("ab,abj->j", W * slope, d2),
        [0.5 * float(np.sum(W * K0)), 0.5 * noise * float(np.trace(W))],
    ])
    return nll, grad


def oracle_posterior(X, y, ls, sf, sn, x):
    """Surrogate's mean and std through scipy's cho_factor and cho_solve."""
    from scipy.linalg import cho_factor, cho_solve

    mean, std, ys = _standardize(y)
    K = oracle_kernel(X, X, ls, sf)[0]
    K[np.diag_indices_from(K)] += sn
    chol = cho_factor(K, lower=True)
    k = oracle_kernel(x, X, ls, sf)[0]
    mu = k @ cho_solve(chol, ys)
    var = sf + sn - np.sum(k * cho_solve(chol, k.T).T, axis=1)
    return mu * std + mean, np.sqrt(np.maximum(var, 0.0)) * std


class TestDirectLapack:
    """The likelihood and the posterior factor K with numpy.linalg's
    cholesky and take one inverse of the factor; they must agree with
    scipy.linalg's cholesky and cho_solve within relative tolerances set
    at about ten times the worst error over 200 seeds. The worst errors
    all come from (30, 2), whose kernels are the worst conditioned: nll
    1.1e-11, gradient 1.4e-10 and mu 8.6e-11 (each over its largest
    entry), sigma 1.7e-9 (per point) and EI 9.3e-11 (over its largest
    entry); the other two shapes stay below 2e-13."""

    TOL = {"nll": 1e-10, "grad": 2e-9, "mu": 1e-9, "sigma": 2e-8,
           "ei": 1e-9}

    @pytest.mark.parametrize("n, d", [(5, 7), (12, 7), (30, 2)])
    def test_within_tolerance_of_scipy_wrappers(self, n, d):
        from scipy.stats import norm

        worst = dict.fromkeys(self.TOL, 0.0)
        for seed in range(20):
            rng = np.random.default_rng([seed, n, d])
            X = rng.uniform(size=(n, d))
            y = rng.normal(size=n)
            x = rng.uniform(size=(50, d))
            for _ in range(5):
                theta = np.concatenate([
                    rng.uniform(math.log(0.05), math.log(2.0), size=d),
                    [rng.uniform(math.log(0.2), math.log(2.0))],
                    [rng.uniform(math.log(1e-6), math.log(1e-2))],
                ])
                nll, grad = _neg_log_marginal_likelihood(theta, X, y)
                want_nll, want_grad = oracle_likelihood(theta, X, y)
                ls, sf = np.exp(theta[:d]), math.exp(theta[d])
                sn = math.exp(theta[d + 1]) + NOISE_FLOOR
                mu, sigma = Surrogate(X, y, ls, sf, sn, 0.0).posterior(x)
                want_mu, want_sigma = oracle_posterior(X, y, ls, sf, sn, x)
                best = float(np.median(y))
                ei = expected_improvement(mu, sigma, best)
                z = (best - want_mu) / want_sigma
                want_ei = (best - want_mu) * norm.cdf(z) \
                    + want_sigma * norm.pdf(z)
                errors = {
                    "nll": abs(nll - want_nll) / abs(want_nll),
                    "grad": np.abs(grad - want_grad).max()
                    / np.abs(want_grad).max(),
                    "mu": np.abs(mu - want_mu).max() / np.abs(want_mu).max(),
                    "sigma": (np.abs(sigma - want_sigma) / want_sigma).max(),
                    "ei": np.abs(ei - want_ei).max() / want_ei.max(),
                }
                for key, err in errors.items():
                    worst[key] = max(worst[key], float(err))
        for key, tol in self.TOL.items():
            assert worst[key] <= tol, (key, worst[key])

    def test_non_finite_kernel_raises(self):
        X = np.array([[0.1, np.nan], [0.5, 0.5], [0.9, 0.2]])
        with pytest.raises(ValueError, match="infs or NaNs"):
            _neg_log_marginal_likelihood(np.zeros(4), X, np.arange(3.0))


class TestLikelihoodGradient:
    @pytest.mark.parametrize("n, d", [(5, 7), (12, 7), (30, 2)])
    def test_matches_central_differences(self, n, d):
        # Log-parameters drawn like gp_fit's random starts.
        rng = np.random.default_rng(100 * n + d)
        X = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        eps = 1e-5
        for _ in range(5):
            theta = np.concatenate([
                rng.uniform(math.log(0.05), math.log(2.0), size=d),
                [rng.uniform(math.log(0.2), math.log(2.0))],
                [rng.uniform(math.log(1e-6), math.log(1e-2))],
            ])
            _, grad = _neg_log_marginal_likelihood(theta, X, y)
            num = np.array([
                (_neg_log_marginal_likelihood(theta + eps * e, X, y)[0]
                 - _neg_log_marginal_likelihood(theta - eps * e, X, y)[0])
                / (2 * eps)
                for e in np.eye(d + 2)
            ])
            worst = np.max(np.abs(grad - num) / np.maximum(1.0, np.abs(num)))
            assert worst < 1e-6

    def test_failed_cholesky(self):
        # Five copies of one point under a huge signal: K is all ones to
        # machine precision, so the noise floor cannot keep it positive.
        d = 7
        X = np.tile(np.random.default_rng(0).uniform(size=(1, d)), (5, 1))
        theta = np.zeros(d + 2)
        theta[d] = 40.0
        theta[d + 1] = -20.0
        nll, grad = _neg_log_marginal_likelihood(theta, X, np.arange(5.0))
        assert math.isfinite(nll)
        assert grad.shape == (d + 2,)
        assert np.all(grad == 0.0)


class TestMinimizeBox:
    """The projected BFGS that fits the GP, against scipy's L-BFGS-B run
    from the same starts on seeded likelihoods: n = 4, 12 and 30 noise
    targets in d = 2 and 7, four starts each in the middle half of the
    box. The likelihood is not convex, so a run of either may end in a
    different local minimum; the bounds were set from seeds 0-79, in
    blocks of ten. The best of four starts was worse than L-BFGS-B's by
    at most 0.284 relative, and better by up to 0.307; per block of ten
    seeds, the mean gap of the best of four lay in [-0.007, 0.0055] and
    the median gap over single runs in [1.8e-9, 1.4e-7]."""

    @staticmethod
    def problems(seeds):
        for seed in seeds:
            for n in (4, 12, 30):
                for d in (2, 7):
                    rng = np.random.default_rng([seed, n, d])
                    X = rng.uniform(size=(n, d))
                    y = _standardize(rng.normal(size=n))[2]
                    lower = np.array([math.log(1e-2)] * d
                                     + [math.log(1e-3), math.log(1e-8)])
                    upper = np.array([math.log(1e2)] * d
                                     + [math.log(1e3), 0.0])
                    starts = rng.uniform(lower / 2, upper / 2,
                                         size=(4, d + 2))
                    yield (lambda t, X=X, y=y:
                           _neg_log_marginal_likelihood(t, X, y),
                           starts, lower, upper)

    def test_stops_where_lbfgsb_would(self):
        for fun, starts, lower, upper in self.problems(range(10)):
            for s in starts:
                x, f, why = _minimize_box(fun, s, lower, upper)
                assert why in ("pgtol", "ftol")
                assert np.all((lower <= x) & (x <= upper))
                value, g = fun(x)
                assert f == value
                if why == "pgtol":
                    assert np.abs(np.clip(x - g, lower, upper) - x).max() \
                        <= PGTOL

    def test_near_lbfgsb_from_the_same_starts(self):
        from scipy.optimize import minimize

        gaps, best_gaps = [], []
        for fun, starts, lower, upper in self.problems(range(10)):
            ours, theirs = [], []
            for s in starts:
                ours.append(_minimize_box(fun, s, lower, upper)[1])
                theirs.append(minimize(fun, s, jac=True, method="L-BFGS-B",
                                       bounds=list(zip(lower, upper))).fun)
                gaps.append((ours[-1] - theirs[-1])
                            / max(1.0, abs(theirs[-1])))
            best_gaps.append((min(ours) - min(theirs))
                             / max(1.0, abs(min(theirs))))
        assert max(best_gaps) <= 0.5
        assert np.mean(best_gaps) <= 0.02
        assert abs(np.median(gaps)) <= 1e-6

    def test_starts_inside_the_box(self):
        # A quadratic whose minimum lies outside the box, at (2, -3): the
        # start is clipped in, and the run ends on the nearest corner.
        def fun(t):
            c = np.array([2.0, -3.0])
            return float(((t - c) ** 2).sum()), 2.0 * (t - c)

        lower, upper = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        x, f, why = _minimize_box(fun, np.array([5.0, 5.0]), lower, upper)
        assert why == "pgtol"
        assert np.array_equal(x, [1.0, -1.0])
        assert f == 5.0


class TestOptimize:
    def test_sphere_convergence(self):
        best, trials = optimize(sphere_space(), sphere, budget=40, init=8,
                                seed=0)
        assert len(trials) == 40
        assert sphere(best) < 0.05

    def test_incumbent_trace_monotone(self):
        _, trials = optimize(sphere_space(), sphere, budget=25, init=6,
                             seed=1)
        trace = incumbent_trace(trials)
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))
        assert trace[-1] == min(t.objective for t in trials if not t.failed)

    def test_deterministic_given_seed(self):
        best_a, trials_a = optimize(sphere_space(), sphere, budget=20,
                                    init=5, seed=7)
        best_b, trials_b = optimize(sphere_space(), sphere, budget=20,
                                    init=5, seed=7)
        assert best_a == best_b
        assert [t.params for t in trials_a] == [t.params for t in trials_b]

    def test_initial_points_evaluated_first(self):
        seeded = {"x": 1.25, "y": -0.5}
        _, trials = optimize(sphere_space(), sphere, budget=12, init=4,
                             seed=2, initial_points=[seeded])
        assert trials[0].params == pytest.approx(seeded)

    def test_failed_trials_tolerated(self):
        calls = {"n": 0}

        def flaky(p):
            calls["n"] += 1
            if calls["n"] % 3 == 0:
                raise DataError("boom")
            return sphere(p)

        best, trials = optimize(sphere_space(), flaky, budget=20, init=6,
                                seed=3)
        failed = [t for t in trials if t.failed]
        assert failed
        assert all(t.objective is None for t in failed)
        assert all(t.error == "DataError: boom" for t in failed)
        assert all(t.to_dict()["error"] == "DataError: boom" for t in failed)
        assert all(t.error is None and "error" not in t.to_dict()
                   for t in trials if not t.failed)
        assert sphere(best) == min(
            t.objective for t in trials if not t.failed)

    def test_unexpected_exception_propagates(self):
        def buggy(p):
            raise RuntimeError("bug")

        with pytest.raises(RuntimeError, match="bug"):
            optimize(sphere_space(), buggy, budget=5, init=2, seed=3)

    def test_non_finite_objective_marks_failed(self):
        def bad(p):
            return float("nan")

        with pytest.raises(DataError):
            optimize(sphere_space(), bad, budget=5, init=2, seed=4)

    def test_non_finite_objective_records_reason(self):
        def half_bad(p):
            return math.inf if p["x"] > 0 else sphere(p)

        _, trials = random_search(sphere_space(), half_bad, budget=10,
                                  seed=0)
        failed = [t for t in trials if t.failed]
        assert 0 < len(failed) < len(trials)
        assert all(t.error == "non-finite objective inf" for t in failed)

    def test_budget_validation(self):
        with pytest.raises(ConfigError):
            optimize(sphere_space(), sphere, budget=4, init=4)
        with pytest.raises(ConfigError):
            optimize(sphere_space(), sphere, budget=5, init=1)

    def test_twelve_dimensions_searched_to_budget(self):
        space = ParamSpace(dimensions=tuple(
            Dimension(f"x{i}", -1.0, 1.0) for i in range(12)))

        def objective(p):
            return sum(v * v for v in p.values())

        best, trials = optimize(space, objective, budget=8, init=4, seed=3)
        assert [t.iteration for t in trials] == list(range(8))
        assert not any(t.failed for t in trials)
        assert all(len(t.params) == 12 for t in trials)
        assert objective(best) == min(t.objective for t in trials)

    def test_budget_has_no_guided_trial_cap(self):
        # Above the old cap of 2**30 // N_CANDIDATES = 262144 guided trials.
        check_budget(4 + 2 ** 30 // N_CANDIDATES + 1, 4)
        check_budget(10 ** 9, 4)

    def test_on_trial_callback_streams_every_trial(self):
        seen = []
        optimize(sphere_space(), sphere, budget=10, init=3, seed=5,
                 on_trial=seen.append)
        assert [t.iteration for t in seen] == list(range(10))


class Batch:
    """`optimize`'s `evaluate` in this process: scores a list of points
    with `objective`, carrying each CyclecastError back as an outcome."""

    def __init__(self, objective):
        self.objective = objective
        self.sizes = []  # points per call

    def __call__(self, points):
        self.sizes.append(len(points))
        outcomes = []
        for p in points:
            try:
                outcomes.append((self.objective(p), 0.0))
            except CyclecastError as exc:
                outcomes.append((exc, 0.0))
        return outcomes


class TestBatchedDesign:
    """A batch evaluator records the same trials as the scalar path."""

    DESIGN = [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": -1.0},
              {"x": -3.0, "y": 0.5}, {"x": 0.5, "y": 4.0}]

    def objective(self, invariant_at=None):
        def objective(p):
            if p["x"] == 2.0:
                raise DataError("refused")
            if invariant_at is not None and p["x"] == invariant_at:
                raise InvariantError("broken")
            return sphere(p)
        return objective

    def run(self, objective, evaluate=None, seen=None, mapper=None):
        """The trials `on_trial` saw, collected into `seen`."""
        seen = [] if seen is None else seen
        optimize(sphere_space(), objective, budget=9, init=4, seed=6,
                 initial_points=self.DESIGN, on_trial=seen.append,
                 evaluate=evaluate, mapper=mapper)
        return seen

    @staticmethod
    def recorded(trials):
        return [(t.iteration, t.params, t.objective, t.failed, t.error)
                for t in trials]

    def test_same_trials_as_scalar_path(self):
        scalar = self.run(self.objective())
        batch = Batch(self.objective())
        mapped = []  # restarts per gp_fit

        def mapper(fn, args_list):
            mapped.append(len(args_list))
            return [fn(*args) for args in args_list]

        batched = self.run(self.objective(), batch, mapper=mapper)
        assert batch.sizes == [4]
        # One cold fit of four starts, then four warm fits of two.
        assert mapped == [4, 2, 2, 2, 2]
        assert self.recorded(batched) == self.recorded(scalar)
        assert scalar[1].failed and scalar[1].error == "DataError: refused"
        assert not any(t.failed for t in scalar[2:])

    def test_invariant_error_after_a_failed_trial_propagates(self):
        # The third initial trial raises InvariantError: on_trial has seen
        # exactly the two before it, the second of them failed.
        objective = self.objective(invariant_at=-3.0)
        recorded = []
        for evaluate in (None, Batch(objective)):
            seen = []
            with pytest.raises(InvariantError, match="broken"):
                self.run(objective, evaluate, seen)
            recorded.append(self.recorded(seen))
        assert recorded[0] == recorded[1]
        assert [r[0] for r in recorded[0]] == [0, 1]
        assert recorded[0][1][3:] == (True, "DataError: refused")


class TestRandomSearchBaseline:
    def test_runs_and_returns_best(self):
        best, trials = random_search(sphere_space(), sphere, budget=30,
                                     seed=0)
        assert len(trials) == 30
        assert sphere(best) == min(t.objective for t in trials)

    def test_guided_search_beats_random(self):
        # Same budget, ten paired seeds: the surrogate-guided optimizer
        # should win almost every time on a smooth bowl.
        wins = 0
        for seed in range(10):
            best_bo, _ = optimize(sphere_space(), sphere, budget=30, init=8,
                                  seed=seed)
            best_rs, _ = random_search(sphere_space(), sphere, budget=30,
                                       seed=seed)
            if sphere(best_bo) <= sphere(best_rs):
                wins += 1
        assert wins >= 8
