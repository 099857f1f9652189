"""Fitting: closed forms, optimizer-vs-grid cross-checks, nesting, scale
consistency, parametric-rate recovery, and the paired one-sided t-test."""

import math

import numpy as np
import pytest
from scipy import stats

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
    """Which start a multi-start fit reports, with _minimize stubbed for
    the three-parameter searches (the gamma start still runs for real).
    A start past the scripted ones ends above them and converges nowhere."""

    Z0 = np.array([0.1, 0.2, 0.3])
    Z1 = np.array([0.4, 0.5, 0.6])

    def _fit(self, monkeypatch, runs, model="proposed"):
        real = fitting._minimize
        scripted = iter(runs)

        def stub(obj, z0, bounds):
            if len(z0) == 1:
                return real(obj, z0, bounds)
            return next(scripted, (self.Z0, 0.0, False, 0))

        monkeypatch.setattr(fitting, "_minimize", stub)
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


class TestFinalGradient:
    def test_lbfgsb_jac_is_central_difference_at_x(self, monkeypatch):
        # _minimize decides convergence from the optimizer's res.jac; that
        # must be the central-difference gradient at res.x, bit for bit
        real = fitting.minimize
        pairs = []

        def spy(fun, x0, *args, **kwargs):
            res = real(fun, x0, *args, **kwargs)
            pairs.append((res.jac, fitting._central_diff_grad(fun, res.x)))
            return res

        monkeypatch.setattr(fitting, "minimize", spy)
        rng = rng_stream(15)
        batches = [random_batch(rng) for _ in range(3)]
        batches.append(sample_power(PowerParams(1.0, 1.0, 40.0), rng, size=60))
        for i, batch in enumerate(batches):
            for m in FIT_MODELS:
                fit_model(m, batch, rng=rng_stream(i))
        assert len(pairs) == len(batches) * (1 + 2 * (1 + DEFAULT_OPTIMIZER.restarts))
        for jac, grad in pairs:
            np.testing.assert_array_equal(jac, grad)


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
