"""Fitting: closed forms, optimizer-vs-grid cross-checks, nesting, scale
consistency, parametric-rate recovery, and the paired one-sided t-test."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize

from pwncg import fitting
from pwncg.distributions import PowerParams, log_pdf_gamma
from pwncg.fitting import (
    DEFAULT_OPTIMIZER,
    FIT_MODELS,
    MODELS,
    fit_exponential,
    fit_gamma,
    fit_model,
    fit_noncentral_gamma,
    fit_proposed,
    paired_t_test_one_sided,
)
from pwncg.sampling import rng_stream, sample_power


def random_batch(rng, size=60):
    kind = rng.integers(0, 4)
    if kind == 0:
        return rng.gamma(rng.uniform(0.4, 3.0), rng.uniform(0.5, 2.0), size)
    if kind == 1:
        return rng.lognormal(0.0, rng.uniform(0.3, 1.5), size)
    if kind == 2:
        return rng.uniform(0.05, 5.0, size)
    p = PowerParams(rng.uniform(0.5, 2.0), 1.0, rng.uniform(0.0, 4.0))
    return sample_power(p, rng, size=size)


class TestFitExponential:
    def test_inverse_sample_mean(self):
        r = fit_exponential([1.0, 2.0, 3.0])
        assert math.isclose(r.params["rate"], 0.5, rel_tol=1e-14)

    def test_singleton(self):
        r = fit_exponential([4.0])
        assert math.isclose(r.params["rate"], 0.25, rel_tol=1e-14)

    def test_monte_carlo_consistency(self):
        data = rng_stream(1).exponential(0.5, 10**5)
        r = fit_exponential(data)
        assert abs(r.params["rate"] - 2.0) < 0.03

    def test_errors(self):
        with pytest.raises(ValueError):
            fit_exponential([])
        with pytest.raises(ValueError):
            fit_exponential([1.0, -2.0])


class TestFitGamma:
    def test_monte_carlo_recovery(self):
        data = rng_stream(2).gamma(2.0, 1.0, 10**5)
        r = fit_gamma(data)
        assert 1.95 <= r.params["alpha"] <= 2.05
        assert r.converged

    def test_all_equal_flags_degenerate(self):
        r = fit_gamma(np.full(40, 3.3))
        assert r.degenerate
        assert r.params["alpha"] >= 990.0

    def test_matches_grid_search_on_three_points(self):
        data = np.array([1.0, 2.0, 3.0])
        r = fit_gamma(data)
        best = -np.inf
        for a in np.exp(np.linspace(math.log(0.01), math.log(100.0), 4001)):
            for b_scale in np.linspace(0.7, 1.3, 41):
                b = b_scale * a / 2.0
                best = max(best, float(np.sum(log_pdf_gamma(data, a, b))))
        assert r.log_likelihood >= best - 1e-4

    def test_beta_profile_identity(self):
        data = rng_stream(3).gamma(1.3, 2.0, 500)
        r = fit_gamma(data)
        assert math.isclose(r.params["beta"], r.params["alpha"] / data.mean(), rel_tol=1e-12)


class TestFitNoncentralGamma:
    def test_collapses_to_gamma_on_gamma_data(self):
        # the extra parameter rides a flat (alpha, lambda) ridge on gamma
        # data; the fitted law must still match the gamma in its first two
        # moments, and the likelihood can never fall below the gamma fit
        data = rng_stream(4).gamma(2.0, 1.0, 20_000)
        g = fit_gamma(data)
        nc = fit_noncentral_gamma(data)
        assert nc.log_likelihood >= g.log_likelihood - 1e-6
        a, b, lam = nc.params["alpha"], nc.params["beta"], nc.params["lambda"]
        assert math.isclose((a + lam) / b, data.mean(), rel_tol=0.02)
        assert math.isclose((a + 2 * lam) / b**2, data.var(), rel_tol=0.05)

    def test_recovers_noncentrality(self):
        rng = rng_stream(5)
        n = rng.poisson(3.0, 10**5)
        data = rng.gamma(n + 1.0, 1.0)
        r = fit_noncentral_gamma(data)
        assert 2.7 <= r.params["lambda"] <= 3.3

    def test_singleton_degenerate(self):
        r = fit_noncentral_gamma(np.array([2.0]))
        assert r.degenerate


class TestFitProposed:
    def test_self_consistency(self):
        data = sample_power(PowerParams(0.7, 1.0, 2.0), rng_stream(6), size=10**5)
        r = fit_proposed(data)
        assert 0.63 <= r.params["alpha"] <= 0.77
        assert 1.7 <= r.params["lambda"] <= 2.3

    def test_zero_noncentrality_matches_gamma(self):
        data = rng_stream(7).gamma(1.5, 1.0, 5000)
        g = fit_gamma(data)
        p = fit_proposed(data)
        if p.params["lambda"] < 1e-9:
            assert abs(p.log_likelihood - g.log_likelihood) < 1e-6

    def test_never_below_gamma(self):
        rng = rng_stream(8)
        for _ in range(10):
            b = random_batch(rng)
            g = fit_gamma(b)
            p = fit_proposed(b)
            assert p.log_likelihood >= g.log_likelihood - 1e-6

    def test_parametric_rate_recovery(self):
        # errors should shrink roughly like 1/sqrt(n) per decade
        true = PowerParams(0.8, 1.0, 1.5)
        rmse = {}
        for n in (10**3, 10**4, 10**5):
            errs = []
            for seed in range(4):
                data = sample_power(true, rng_stream(100 + seed), size=n)
                r = fit_proposed(data)
                errs.append(
                    (r.params["alpha"] - true.alpha) ** 2
                    + (r.params["lambda"] - true.lam) ** 2
                )
            rmse[n] = math.sqrt(np.mean(errs))
        assert 2.0 <= rmse[10**3] / rmse[10**4] <= 5.0
        assert 2.0 <= rmse[10**4] / rmse[10**5] <= 5.0


class TestRestartChoice:
    """Which start a multi-start fit reports, with the L-BFGS-B driver
    stubbed for the three-parameter searches (the gamma search still runs
    for real). A start past the scripted ones ends above them and converges
    nowhere."""

    Z0 = np.array([0.1, 0.2, 0.3])
    Z1 = np.array([0.4, 0.5, 0.6])

    def _fit(self, monkeypatch, runs, model="proposed"):
        real = fitting._lbfgsb
        scripted = iter(runs)

        def stub(objective, z0, bounds):
            if z0.shape[1] == 1:
                return real(objective, z0, bounds)
            out = []
            for _ in z0:
                z, fval, converged, nit = next(scripted, (self.Z0, 0.0, False, 0))
                out.append(fitting._Run(z, fval, np.zeros(3), converged, converged, nit, 0, 0))
            return out

        monkeypatch.setattr(fitting, "_lbfgsb", stub)
        data = rng_stream(5).gamma(2.0, 1.0, 60)
        return fit_model(model, data)

    def test_tied_start_that_converged_is_reported(self, monkeypatch):
        # start 0 stopped on ftol at the same optimum that start 1 reached
        # with the gradient tolerance met; they differ in the last bit
        runs = [
            (self.Z0, -1.583493351263, False, 40),
            (self.Z1, -1.583493351262, True, 30),
        ]
        for model in ("noncentral_gamma", "proposed"):
            r = self._fit(monkeypatch, runs, model)
            assert r.converged
            assert r.params["alpha"] == math.exp(self.Z1[0])
            assert r.iterations == 70

    def test_lowest_objective_wins_outside_the_tie(self, monkeypatch):
        runs = [
            (self.Z0, -1.5834934, False, 40),
            (self.Z1, -1.5834933, True, 30),
        ]
        r = self._fit(monkeypatch, runs)
        assert not r.converged
        assert r.params["alpha"] == math.exp(self.Z0[0])

    def test_first_of_equal_unconverged_starts(self, monkeypatch):
        runs = [(self.Z0, -2.0, False, 5), (self.Z1, -2.0, False, 5)]
        r = self._fit(monkeypatch, runs)
        assert not r.converged
        assert r.params["alpha"] == math.exp(self.Z0[0])


def _central_difference(f, z, rel_h=1e-5):
    """Gradient oracle: central differences of the value of f(z) -> (value, grad)."""
    g = np.empty(z.size)
    for i in range(z.size):
        h = rel_h * max(1.0, abs(z[i]))
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp)[0] - f(zm)[0]) / (2.0 * h)
    return g


def _one_row(mean_ll, y):
    """obj(z) -> (value, gradient) of the row-batched objective for one
    normalized batch y at one point z."""
    stats = (np.array([np.mean(np.log(y))]), np.array([np.mean(y)]), np.sqrt(y)[None])

    def obj(z):
        value, grad = fitting._shifted_rows(mean_ll, z[None], *stats)
        return value[0], grad[0]

    return obj


LN_ALPHA = st.one_of(
    st.sampled_from([math.log(1e-3), math.log(1.5e-3), math.log(7e2), math.log(1e3)]),
    st.floats(math.log(1e-3), math.log(1e3)),
)


class TestExactGradient:
    @settings(max_examples=60, deadline=None)
    @given(
        mean_ll=st.sampled_from(
            [fitting._noncentral_gamma_mean_ll, fitting._proposed_mean_ll]
        ),
        ln_a=LN_ALPHA,
        ln_b=st.floats(-3.0, 9.0),
        s=st.one_of(st.just(-40.0), st.floats(-40.0, 60.0)),
        shape=st.floats(0.3, 5.0),
        seed=st.integers(0, 2**16),
    )
    @example(fitting._noncentral_gamma_mean_ll, math.log(1e-3), 4.0, 3.0, 1.0, 0)
    @example(fitting._noncentral_gamma_mean_ll, math.log(5.0), 6.0, 5.0, 1.0, 0)
    @example(fitting._noncentral_gamma_mean_ll, math.log(1e3), 8.0, 5.0, 1.0, 0)
    @example(fitting._proposed_mean_ll, math.log(1e-3), 4.0, -40.0, 1.0, 0)
    def test_shifted_families_match_central_differences(
        self, mean_ll, ln_a, ln_b, s, shape, seed
    ):
        # lam at the softplus floor (s = -40), alpha at and near its bounds,
        # Bessel arguments 2 sqrt(b lam y) on both sides of the ive cutoff
        y = np.random.default_rng(seed).gamma(shape, 1.0, 30)
        obj = _one_row(mean_ll, y / y.mean())
        z = np.array([ln_a, ln_b, s])
        value, grad = obj(z)
        assert value < 1e300
        oracle = _central_difference(obj, z)
        scale = max(1.0, float(np.max(np.abs(oracle))))
        np.testing.assert_allclose(grad, oracle, rtol=0.0, atol=1e-6 * scale)

    @settings(max_examples=30, deadline=None)
    @given(ln_a=LN_ALPHA, mlog=st.floats(-5.0, 0.0))
    def test_gamma_profile_matches_central_differences(self, ln_a, mlog):
        def obj(z):
            value, grad = fitting._gamma_rows(z[None], np.array([mlog]))
            return value[0], grad[0]

        z = np.array([ln_a])
        oracle = _central_difference(obj, z)
        np.testing.assert_allclose(
            obj(z)[1], oracle, rtol=0.0, atol=1e-6 * max(1.0, abs(oracle[0]))
        )

    def test_lbfgsb_jac_is_the_exact_gradient_at_x(self, monkeypatch):
        # the driver decides convergence from each row's final gradient; that
        # must be the objective's own gradient at the row's final x, bit for bit
        real = fitting._lbfgsb
        calls = []

        def spy(objective, z0, bounds):
            calls.append((objective, real(objective, z0, bounds)))
            return calls[-1][1]

        monkeypatch.setattr(fitting, "_lbfgsb", spy)
        rng = rng_stream(15)
        batches = [random_batch(rng) for _ in range(3)]
        batches.append(sample_power(PowerParams(1.0, 1.0, 40.0), rng, size=60))
        for i, batch in enumerate(batches):
            for m in FIT_MODELS:
                fit_model(m, batch, rng=rng_stream(i))
        rows = [(obj, r, run) for obj, runs in calls for r, run in enumerate(runs)]
        assert len(rows) == len(batches) * (1 + 2 * (1 + DEFAULT_OPTIMIZER.restarts))
        for obj, r, run in rows:
            np.testing.assert_array_equal(run.jac, obj(np.array([r]), run.x[None])[1][0])


class TestLockStepDriver:
    def test_rows_match_scipy_minimize(self):
        # every row of the driver makes the search scipy's L-BFGS-B makes
        # alone, bit for bit: x, fun, jac, nit, nfev and success. The driver
        # calls scipy.optimize._lbfgsb.setulb, a private symbol; this fails
        # first if a scipy release changes its argument list.
        rng = rng_stream(16)
        batches = [random_batch(rng, size=30) for _ in range(3)]
        batches.append(sample_power(PowerParams(1.0, 1.0, 40.0), rng, size=30))
        ys = [b / b.mean() for b in batches]
        stats = (
            np.array([np.mean(np.log(y)) for y in ys]),
            np.array([np.mean(y) for y in ys]),
            np.sqrt(np.stack(ys)),
        )
        bounds = [fitting._LN_ALPHA_BOUNDS, fitting._LN_BETA_BOUNDS, fitting._S_BOUNDS]
        batch = np.repeat(np.arange(len(ys)), 3)
        z0 = rng.normal(0.0, 1.0, (batch.size, 3)) * np.array([2.0, 2.0, 6.0])
        z0[0] = [10.0, 0.0, -50.0]  # clipped to the bounds
        for mean_ll in (fitting._noncentral_gamma_mean_ll, fitting._proposed_mean_ll):

            def objective(rows, z):
                k = batch[rows]
                return fitting._shifted_rows(mean_ll, z, *(a[k] for a in stats))

            runs = fitting._lbfgsb(objective, z0, bounds)
            for r, run in enumerate(runs):
                res = minimize(
                    lambda z: objective(np.array([r]), z[None])[0][0],
                    z0[r],
                    jac=lambda z: objective(np.array([r]), z[None])[1][0],
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": DEFAULT_OPTIMIZER.max_iters, "ftol": 1e-13,
                             "gtol": DEFAULT_OPTIMIZER.grad_tol},
                )
                np.testing.assert_array_equal(run.x, res.x)
                np.testing.assert_array_equal(run.jac, res.jac)
                assert (run.fun, run.nit, run.nfev, run.success) == (
                    res.fun, res.nit, res.nfev, res.success
                )


# Small batches of positive values, derandomized: each property runs on a
# fixed set of examples of 8 to 20 values.
small_batches = st.lists(
    st.floats(min_value=1e-3, max_value=1e3), min_size=8, max_size=20
).map(np.array)
invariant = settings(max_examples=15, deadline=None, derandomize=True)


class TestFitInvariants:
    @invariant
    @given(batch=small_batches, log2_c=st.integers(-30, 30), seed=st.integers(0, 2**16))
    def test_scale_equivariance(self, batch, log2_c, seed):
        # c x gives beta / c and the same alpha and lambda; a power of two
        # scales the batch and its mean exactly, so the searches are the same
        c = 2.0**log2_c
        for m in ("gamma", "noncentral_gamma", "proposed"):
            f1 = fit_model(m, batch, rng=rng_stream(seed))
            f2 = fit_model(m, c * batch, rng=rng_stream(seed))
            assert math.isclose(f2.params["beta"], f1.params["beta"] / c, rel_tol=1e-9)
            for k in ("alpha", "lambda")[: len(f1.params) - 1]:
                assert abs(f2.params[k] - f1.params[k]) <= 1e-9 * max(1.0, abs(f1.params[k]))

    @invariant
    @given(batch=small_batches, seed=st.integers(0, 2**16))
    def test_nesting(self, batch, seed):
        ll = {m: fit_model(m, batch, rng=rng_stream(seed)).log_likelihood for m in FIT_MODELS}
        assert ll["exponential"] <= ll["gamma"] + 1e-9
        assert ll["gamma"] <= ll["noncentral_gamma"] + 1e-9
        assert ll["gamma"] <= ll["proposed"] + 1e-9

    @invariant
    @given(batch=small_batches, seed=st.integers(0, 2**16))
    def test_same_seed_same_fit(self, batch, seed):
        for m in FIT_MODELS:
            assert fit_model(m, batch, rng=rng_stream(seed)) == fit_model(
                m, batch, rng=rng_stream(seed)
            )

    @invariant
    @given(
        batches=st.lists(small_batches, min_size=2, max_size=5),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_batched_fits_equal_single_fits(self, batches, seed, data):
        # the lock-step fit of a shuffled list of batches, of mixed lengths,
        # equals fit_model on each batch alone
        order = data.draw(st.permutations(range(len(batches))))
        shuffled = [batches[i] for i in order]
        for m in FIT_MODELS:
            together = fitting.fit_batches(
                m, shuffled, [rng_stream(seed + i) for i in order]
            )
            for i, fit in zip(order, together):
                assert fit == fit_model(m, batches[i], rng=rng_stream(seed + i))


class TestNesting:
    def test_chain_on_random_batches(self):
        rng = rng_stream(9)
        for _ in range(25):
            b = random_batch(rng)
            fe = fit_exponential(b)
            fg = fit_gamma(b)
            fn = fit_noncentral_gamma(b)
            fp = fit_proposed(b)
            assert fe.log_likelihood <= fg.log_likelihood + 1e-6
            assert fg.log_likelihood <= fn.log_likelihood + 1e-6
            assert fg.log_likelihood <= fp.log_likelihood + 1e-6


class TestScaleConsistency:
    def test_loglik_shift_and_parameter_stability(self):
        rng = rng_stream(10)
        b = rng.gamma(1.7, 2.0, 200)
        c = 7.3
        for fitter in (fit_gamma, fit_noncentral_gamma, fit_proposed):
            f1 = fitter(b)
            f2 = fitter(c * b)
            assert abs((f2.log_likelihood - f1.log_likelihood) + 200 * math.log(c)) < 1e-6
            assert abs(f2.params["alpha"] - f1.params["alpha"]) < 1e-4
            assert math.isclose(f2.params["beta"], f1.params["beta"] / c, rel_tol=1e-6)
            if "lambda" in f1.params:
                assert abs(f2.params["lambda"] - f1.params["lambda"]) < 1e-4
        fe1, fe2 = fit_exponential(b), fit_exponential(c * b)
        assert abs((fe2.log_likelihood - fe1.log_likelihood) + 200 * math.log(c)) < 1e-6


class TestFitModelDispatch:
    def test_names(self):
        data = rng_stream(11).gamma(1.0, 1.0, 50)
        for name in ("exponential", "gamma", "noncentral_gamma", "proposed"):
            assert fit_model(name, data).model == name
        with pytest.raises(ValueError):
            fit_model("weibull", data)

    def test_table_likelihood_and_params_match_fit(self):
        data = rng_stream(14).gamma(1.5, 1.0, 60)
        assert FIT_MODELS == ("exponential", "gamma", "noncentral_gamma", "proposed")
        for name, model in MODELS.items():
            fit = fit_model(name, data)
            assert model.log_likelihood(data, fit.params) == fit.log_likelihood
            assert tuple(fit.params) == model.params

    def test_avg_is_total_over_n(self):
        data = rng_stream(12).gamma(1.0, 1.0, 64)
        r = fit_gamma(data)
        assert math.isclose(r.avg_log_likelihood, r.log_likelihood / 64.0, rel_tol=1e-12)


class TestPairedTTest:
    def test_identical_batches_give_half(self):
        assert paired_t_test_one_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.5

    def test_all_positive_differences(self):
        a = np.array([2.0, 3.0, 4.0, 5.0]) + 1e-9 * np.array([1, -1, 1, -1])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        assert paired_t_test_one_sided(a, b) < 1e-6

    def test_constant_positive_difference(self):
        assert paired_t_test_one_sided([2.0, 3.0], [1.0, 2.0]) == 0.0
        assert paired_t_test_one_sided([1.0, 2.0], [2.0, 3.0]) == 1.0

    def test_against_reference_implementation(self):
        rng = rng_stream(13)
        for _ in range(25):
            n = int(rng.integers(3, 200))
            a = rng.normal(rng.uniform(-0.5, 0.5), 1.0, n)
            b = rng.normal(0.0, 1.0, n)
            mine = paired_t_test_one_sided(a, b)
            ref = stats.ttest_rel(a, b, alternative="greater").pvalue
            assert math.isclose(mine, ref, rel_tol=1e-10, abs_tol=1e-12)

    def test_textbook_t_value(self):
        # mean difference 0.5, sd 1, n = 100 gives t = 5 and a tail
        # probability near 1.2e-6
        d = np.zeros(100)
        d[:50], d[50:] = 0.5 + 1.0, 0.5 - 1.0
        d *= math.sqrt(99 / 100)  # force sd(ddof=1) ~ 1
        base = np.zeros(100)
        p = paired_t_test_one_sided(d + base, base)
        t = d.mean() / (d.std(ddof=1) / 10.0)
        ref = stats.t.sf(t, 99)
        assert math.isclose(p, ref, rel_tol=1e-4)

    def test_errors(self):
        with pytest.raises(ValueError):
            paired_t_test_one_sided([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test_one_sided([1.0, 2.0], [1.0])
