"""Fitting: closed forms, optimizer-vs-grid cross-checks, nesting, scale
consistency, parametric-rate recovery, and the paired one-sided t-test."""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.optimize import minimize
from scipy.special import gammaln

from helpers import (
    GOLDEN_BATCHES,
    GOLDEN_CLIP_S,
    NONCENTRAL_BATCHES_DIGEST,
    draws_digest,
    golden_batch,
    make_speech_like,
    noncentral_batch_stream,
    noncentral_batches,
    write_wav_pcm16,
)
from pwncg import distributions, fitting, special
from pwncg.distributions import (
    PowerParams,
    log_pdf_exponential,
    log_pdf_gamma,
    log_pdf_noncentral_gamma,
    log_pdf_power,
)
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
from pwncg.special import log_bessel_i0, log_bessel_i_nu, log_laguerre_neg
from pwncg.spectral import StftConfig, load_wav, run_experiment, stft_power, tile_patches


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
    for real). fit_model's one batch hands the stub its starts in order, so
    the scripted runs are taken in turn; a start past the scripted ones ends
    above them and converges nowhere. The stub honours after as _lbfgsb
    does: a row whose row ended converged, or never ran, never runs."""

    Z0 = np.array([0.1, 0.2, 0.3])
    Z1 = np.array([0.4, 0.5, 0.6])
    Z2 = np.array([0.7, 0.8, 0.9])

    def _fit(self, monkeypatch, runs, model="proposed", rng=None):
        real = fitting._lbfgsb
        scripted = iter(runs)

        def stub(objective, z0, bounds, after=None):
            if z0.shape[1] == 1:
                return real(objective, z0, bounds)
            out = []
            for q, start in enumerate(z0):
                z, fval, converged, nit = next(scripted, (self.Z0, 0.0, False, 0))
                r = -1 if after is None else after[q]
                if r >= 0 and (out[r].converged or out[r].fun == math.inf):
                    out.append(fitting._Run(start, math.inf, np.zeros(3), False, False, 0, 0, 0))
                else:
                    out.append(fitting._Run(z, fval, np.zeros(3), converged, converged, nit, 0, 0))
            return out

        monkeypatch.setattr(fitting, "_lbfgsb", stub)
        data = rng_stream(5).gamma(2.0, 1.0, 60)
        return fit_model(model, data, rng)

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

    def test_start_two_runs_where_start_one_did_not_converge(self, monkeypatch):
        # start 1 stopped short of the gradient tolerance, so start 2, which
        # waits for it, runs, and it is reported when it ends lowest; with
        # an rng both models draw a third start
        runs = [
            (self.Z0, -1.5, False, 40),
            (self.Z1, -1.6, False, 30),
            (self.Z2, -1.7, True, 20),
        ]
        for model in ("noncentral_gamma", "proposed"):
            r = self._fit(monkeypatch, runs, model, rng_stream(1))
            assert r.converged and r.start == 2 and r.starts_skipped == 0
            assert r.params["alpha"] == math.exp(self.Z2[0])
            assert r.iterations == 90

    def test_start_two_dropped_where_start_one_converged(self, monkeypatch):
        # start 2 would end lowest, but start 1 converged: start 2 never
        # runs, so only starts 0 and 1 count, and start 2 adds no iterations
        runs = [
            (self.Z0, -1.5, False, 40),
            (self.Z1, -1.6, True, 30),
            (self.Z2, -1.7, True, 20),
        ]
        r = self._fit(monkeypatch, runs, rng=rng_stream(1))
        assert r.converged and r.start == 1 and r.starts_skipped == 1
        assert r.iterations == 70

    @pytest.mark.parametrize("lam_max", [True, False])
    def test_start_one_gated_by_start_zero_where_lam_zero_is_a_maximum(
        self, monkeypatch, lam_max
    ):
        # every start converges; where lam = 0 is a local maximum at the
        # gamma fit start 1 waits for start 0, so start 0 alone runs (and
        # start 2, waiting for start 1, is skipped down the chain); starts 0
        # and 1 run elsewhere
        monkeypatch.setattr(
            fitting, "_lam_zero_is_a_maximum", lambda alpha, *stats: np.full(alpha.shape, lam_max)
        )
        runs = [
            (self.Z0, -1.5, True, 40),
            (self.Z1, -1.6, True, 30),
            (self.Z2, -1.7, True, 20),
        ]
        for model in ("noncentral_gamma", "proposed"):
            r = self._fit(monkeypatch, runs, model, rng_stream(1))
            if lam_max:
                assert (r.start, r.starts_skipped, r.iterations) == (0, 2, 40)
            else:
                assert (r.start, r.starts_skipped, r.iterations) == (1, 1, 70)


class TestReportedParams:
    """The fits take exp and ln of scalar parameters with math.exp and
    math.log, as a fit of one batch did. The end points below are ones
    where numpy's vectorized exp and log (x86-64 AVX-512 builds) round
    differently from math's: the gamma search ends at ln alpha = -0.096,
    whose exp and the ln of that exp both differ, and the shifted searches
    at ln alpha = 0.523, ln beta = -0.154."""

    LN_GAMMA_ALPHA = -0.096
    END = np.array([0.523, -0.154, 0.3])

    def test_exp_and_log_are_math_exp_and_log(self, monkeypatch):
        starts = []

        def stub(objective, z0, bounds, after=None):
            starts.append(z0.copy())
            if z0.shape[1] == 1:
                end, fun = np.array([self.LN_GAMMA_ALPHA]), -1e9  # below alpha = 1
            else:
                end, fun = self.END, -1.0
            return [fitting._Run(end, fun, np.zeros_like(end), True, True, 1, 1, 0) for _ in z0]

        monkeypatch.setattr(fitting, "_lbfgsb", stub)
        data = rng_stream(5).gamma(2.0, 1.0, 60)
        mean = float(np.mean(data))
        gamma_alpha = math.exp(self.LN_GAMMA_ALPHA)
        r = fit_model("gamma", data)
        assert r.params == {"alpha": gamma_alpha, "beta": gamma_alpha / mean}
        for model in ("noncentral_gamma", "proposed"):
            starts.clear()
            r = fit_model(model, data)
            assert r.params["alpha"] == math.exp(self.END[0])
            assert r.params["beta"] == math.exp(self.END[1]) / mean
            # start 0 and the start at the model's start lam (start 1, or
            # start 2 where the ridge point took start 1) begin at the gamma
            # fit: ln alpha = ln beta = math.log of its alpha
            at_gamma = (starts[1][:, :2] == math.log(gamma_alpha)).all(axis=1)
            assert at_gamma[0] and at_gamma[1:].any()


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

        def spy(objective, z0, bounds, after=None):
            calls.append((objective, real(objective, z0, bounds, after)))
            assert len(calls[-1][1]) == len(z0)
            return calls[-1][1]

        monkeypatch.setattr(fitting, "_lbfgsb", spy)
        rng = rng_stream(15)
        batches = [random_batch(rng) for _ in range(3)]
        batches.append(sample_power(PowerParams(1.0, 1.0, 40.0), rng, size=60))
        kept = 0
        for i, batch in enumerate(batches):
            for m in FIT_MODELS:
                fit = fit_model(m, batch, rng=rng_stream(i))
                if m in ("noncentral_gamma", "proposed"):
                    kept += DEFAULT_OPTIMIZER.restarts - fit.starts_skipped
        # the rows that ran: a row that waited for a start that converged
        # never ran and made no evaluation
        rows = [(obj, r, run) for obj, runs in calls for r, run in enumerate(runs) if run.nfev]
        # a gamma row for each of the three models that need one, and at
        # least the kept starts of the shifted fits
        assert len(rows) >= 3 * len(batches) + kept
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


    @pytest.mark.parametrize("max_rows", [1, 2, 64])
    def test_runs_do_not_depend_on_slots_or_row_order(self, monkeypatch, max_rows):
        # a row's run is the same bit for bit whichever rows share its
        # evaluations: with max_rows slots, and with the rows shuffled
        n = 6
        rng = rng_stream(21)
        ys = [b / b.mean() for b in (random_batch(rng, size=20) for _ in range(n))]
        stats = (
            np.array([np.mean(np.log(y)) for y in ys]),
            np.array([np.mean(y) for y in ys]),
            np.sqrt(np.stack(ys)),
        )
        bounds = [fitting._LN_ALPHA_BOUNDS, fitting._LN_BETA_BOUNDS, fitting._S_BOUNDS]
        batch = np.tile(np.arange(n), 3)
        z0 = rng.normal(0.0, 1.0, (3 * n, 3)) * np.array([1.0, 1.0, 3.0])

        def runs(order):
            def objective(rows, z):
                k = batch[order[rows]]
                return fitting._shifted_rows(
                    fitting._proposed_mean_ll, z, *(a[k] for a in stats)
                )

            out = fitting._lbfgsb(objective, z0[order], bounds)
            assert len(out) == len(order)
            return [out[r] for r in np.argsort(order)]

        ref = runs(np.arange(3 * n))
        assert {run.converged for run in ref} == {True, False}
        monkeypatch.setattr(fitting, "_MAX_ROWS", max_rows)
        for order in (np.arange(3 * n), rng.permutation(3 * n)):
            for a, b in zip(runs(order), ref):
                np.testing.assert_array_equal(a.x, b.x)
                np.testing.assert_array_equal(a.jac, b.jac)
                assert a._replace(x=None, jac=None) == b._replace(x=None, jac=None)

    @pytest.mark.parametrize("max_rows", [1, 2, 64])
    def test_rows_stop_once_the_row_before_them_converged(self, monkeypatch, max_rows):
        # after[q] = r makes row q wait for row r: q runs, as it runs with no
        # after, once r has ended unconverged, and never runs where r ended
        # converged or never ran; then its run is its start point with
        # fun = inf, unconverged and no counts. Each batch's third row waits
        # for its second (pairs), each row for the one before it in its
        # batch (chain: a skip carries down the chain, and a slot takes rows
        # released after the first ones loaded), or every row for one that
        # ends unconverged (star: its end releases all the others at once,
        # and with a slot for each row they fill the slots left idle since
        # the start, so they run side by side)
        n = 6
        rng = rng_stream(22)
        ys = [b / b.mean() for b in (random_batch(rng, size=20) for _ in range(n))]
        stats = (
            np.array([np.mean(np.log(y)) for y in ys]),
            np.array([np.mean(y) for y in ys]),
            np.sqrt(np.stack(ys)),
        )
        bounds = [fitting._LN_ALPHA_BOUNDS, fitting._LN_BETA_BOUNDS, fitting._S_BOUNDS]
        batch = np.repeat(np.arange(n), 3)
        z0 = rng.normal(0.0, 1.0, (3 * n, 3)) * np.array([1.0, 1.0, 3.0])

        calls = []

        def objective(rows, z):
            calls.append(len(rows))
            k = batch[rows]
            return fitting._shifted_rows(fitting._proposed_mean_ll, z, *(a[k] for a in stats))

        ref = fitting._lbfgsb(objective, z0, bounds)
        q = np.arange(3 * n)
        root = next(r for r in q if not ref[r].converged)
        patterns = {
            "pairs": np.where(q % 3 == 2, q - 1, -1),
            "chain": np.where(q % 3 > 0, q - 1, -1),
            "star": np.where(q == root, -1, root),
        }
        monkeypatch.setattr(fitting, "_MAX_ROWS", max_rows)
        for name, after in patterns.items():
            calls.clear()
            out = fitting._lbfgsb(objective, z0, bounds, after)

            def runs(r):
                w = after[r]
                return w < 0 or (runs(w) and not ref[w].converged)

            ran = [runs(r) for r in q]
            for r, (a, b) in enumerate(zip(out, ref)):
                if ran[r]:
                    np.testing.assert_array_equal(a.x, b.x)
                    np.testing.assert_array_equal(a.jac, b.jac)
                    assert a._replace(x=None, jac=None) == b._replace(x=None, jac=None)
                else:
                    np.testing.assert_array_equal(a.x, np.clip(z0[r], *np.array(bounds).T))
                    assert (a.fun, a.success, a.converged) == (math.inf, False, False)
                    assert (a.nit, a.nfev, a.penalties) == (0, 0, 0)
            assert any(ran[r] for r in q if after[r] >= 0), name
            assert all(ran) if name == "star" else not all(ran), name
            if name == "star" and max_rows == 64:
                # the root's calls, then one for the first row released, which
                # starts in the root's slot, before the rest join it
                others = max(run.nfev for run in ref if run is not ref[root])
                assert len(calls) <= ref[root].nfev + 1 + others
            if name == "chain":
                # a row skipped because the row it waits for never ran
                assert any(not ran[r] and not ran[after[r]] for r in q if after[r] >= 0)


class TestStopDroppedRuns:
    """The keep rule, as an oracle: every drawn start of every shifted fit
    is run through _lbfgsb with no after, the rule as written keeps start 0
    alone where lam = 0 is a maximum at the gamma fit and start 0
    converged, starts 0 and 1 where start 1 converged, and every drawn
    start otherwise, and _pick_start chooses among the kept starts. The
    FitResult built from that choice must equal the fit's, field by field:
    a fit keeps exactly the starts that ran under the wait rule."""

    @staticmethod
    def _workload(batches, streams):
        """The fits of the noncentral_batches workload: the four models of
        each batch in turn through fit_model, on its stream."""
        out = []
        for batch, stream in zip(batches, streams):
            out.append([fit_model(m, batch, rng=stream) for m in FIT_MODELS])
        return out

    @staticmethod
    def _count_rows(monkeypatch):
        real = fitting._shifted_rows
        counts = [0, 0]

        def spy(mean_ll, z, *batch_stats):
            counts[0] += 1
            counts[1] += len(z)
            return real(mean_ll, z, *batch_stats)

        monkeypatch.setattr(fitting, "_shifted_rows", spy)
        return counts

    @staticmethod
    def _keep_rule(g, model, runs):
        """The FitResults of model's fits to the batches of the group g,
        from runs, every start of every batch run to its end: three a batch
        (each batch has a stream here), batch after batch."""
        assert len(runs) == 3 * g.size
        gamma = g.gamma
        lam_max = fitting._lam_zero_is_a_maximum(
            gamma.params["alpha"], gamma.degenerate, g.var_y, g.mean_y
        )
        out = []
        for i in range(g.size):
            starts = runs[3 * i : 3 * i + 3]
            converged = [run.converged for run in starts]
            n_kept = 1 if lam_max[i] and converged[0] else 2 if converged[1] else 3
            kept = starts[:n_kept]
            dropped = 3 - n_kept
            fun = np.array([[run.fun for run in kept] + [math.inf] * dropped])
            ends = np.array([converged[:n_kept] + [False] * dropped])
            best = int(fitting._pick_start(fun, ends)[0])
            z = starts[best].x
            lam = float(fitting._softplus(z[2:]).item())
            alpha = math.exp(z[0])
            params = {
                "alpha": alpha,
                "beta": math.exp(z[1]) / float(g.mean[i]),
                "lambda": 0.0 if lam < 1e-12 else lam,
            }
            ll = MODELS[model].log_likelihood(g.x[i], params)
            out.append(
                fitting.FitResult(
                    model, params, ll, ll / g.x.shape[1], converged[best],
                    sum(run.nit for run in kept),
                    degenerate=bool(alpha >= fitting._ALPHA_DEGENERATE or g.var_y[i] == 0.0),
                    evaluations=sum(run.nfev for run in kept),
                    penalties=sum(run.penalties for run in kept),
                    start=best,
                    starts_skipped=dropped,
                )
            )
        return out

    def _oracle(self, monkeypatch) -> dict:
        """{model: [the keep rule's FitResult of each shifted fit made from
        now on, in the order made]}."""
        real_fit, real_lbfgsb = fitting._fit_shifted, fitting._lbfgsb
        fitting_now = []
        expected = {"noncentral_gamma": [], "proposed": []}

        def fit_spy(g, jitters, mean_ll, *args):
            fitting_now.append((g, mean_ll))
            try:
                return real_fit(g, jitters, mean_ll, *args)
            finally:
                fitting_now.pop()

        def lbfgsb_spy(objective, z0, bounds, after=None):
            if z0.shape[1] == 3:
                g, mean_ll = fitting_now[-1]
                model = "proposed" if mean_ll is fitting._proposed_mean_ll else "noncentral_gamma"
                every_start = real_lbfgsb(objective, z0, bounds)
                expected[model] += self._keep_rule(g, model, every_start)
            return real_lbfgsb(objective, z0, bounds, after)

        monkeypatch.setattr(fitting, "_fit_shifted", fit_spy)
        monkeypatch.setattr(fitting, "_lbfgsb", lbfgsb_spy)
        return expected

    @pytest.mark.parametrize("data", ["random", "corpus"])
    def test_fits_do_not_change(self, monkeypatch, data):
        rng = rng_stream(25)
        batches = [random_batch(rng) for _ in range(10)] if data == "random" else noncentral_batches()

        def streams():
            if data == "random":
                return [rng_stream(50 + i) for i in range(len(batches))]
            return [noncentral_batch_stream(i) for i in range(len(batches))]

        expected = self._oracle(monkeypatch)
        alone = self._workload(batches, streams())
        for m in ("noncentral_gamma", "proposed"):
            assert [fits[FIT_MODELS.index(m)] for fits in alone] == expected[m]
            expected[m].clear()
        together = fitting.fit_batches(FIT_MODELS, batches, streams())
        for m in ("noncentral_gamma", "proposed"):
            assert together[m] == expected[m]
        # the rule drops starts on these batches, and keeps them too
        skipped = [f.starts_skipped for f in together["noncentral_gamma"] + together["proposed"]]
        assert 0 in skipped and max(skipped) > 0

    def test_workload_work(self, monkeypatch):
        # the noncentral_batches pass made 680 objective calls of 1289 rows
        # from the gamma fit at lam = 1 (proposed) and 0.01 (noncentral
        # gamma), before the ridge probe and the wait rule; with them it
        # makes 386 calls of 394 rows
        counts = self._count_rows(monkeypatch)
        self._workload(noncentral_batches(), [noncentral_batch_stream(i) for i in range(6)])
        assert counts[0] <= 390 and counts[1] <= 400


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
        # the lock-step fit of every model to a shuffled list of batches, of
        # mixed lengths, equals fit_model on each batch alone, the models in
        # order sharing the batch's stream; the noncentral gamma, whose
        # start 1 the proposed fit seeds, equals fit_batches with the same
        # models on the batch alone
        order = data.draw(st.permutations(range(len(batches))))
        shuffled = [batches[i] for i in order]
        together = fitting.fit_batches(
            FIT_MODELS, shuffled, [rng_stream(seed + i) for i in order]
        )
        assert tuple(together) == FIT_MODELS
        for k, i in enumerate(order):
            stream = rng_stream(seed + i)
            alone = fitting.fit_batches(FIT_MODELS, [batches[i]], [rng_stream(seed + i)])
            for m in FIT_MODELS:
                single = fit_model(m, batches[i], rng=stream)
                if m == "noncentral_gamma":
                    single = alone[m][0]
                assert together[m][k] == single


class TestFitBatches:
    def test_gamma_fitted_once_for_all_models(self, monkeypatch):
        real = fitting._fit_gamma
        calls = []

        def spy(g):
            calls.append(g.size)
            return real(g)

        monkeypatch.setattr(fitting, "_fit_gamma", spy)
        rng = rng_stream(16)
        batches = [random_batch(rng, size) for size in (60, 40, 60, 25)]
        together = fitting.fit_batches(
            FIT_MODELS, batches, [rng_stream(20 + i) for i in range(len(batches))]
        )
        assert calls == [2, 1, 1]  # once per length group
        for i, batch in enumerate(batches):
            stream = rng_stream(20 + i)
            alone = fitting.fit_batches(FIT_MODELS, [batch], [rng_stream(20 + i)])
            for m in FIT_MODELS:
                single = fit_model(m, batch, rng=stream)
                if m == "noncentral_gamma":
                    single = alone[m][0]
                assert together[m][i] == single
        # the models come back in the order asked for; an exponential-only
        # run fits no gamma
        calls.clear()
        later = fitting.fit_batches(("proposed", "gamma"), batches)
        assert tuple(later) == ("proposed", "gamma") and calls == [2, 1, 1]
        assert later["gamma"] == together["gamma"]
        calls.clear()
        alone = fitting.fit_batches(("exponential",), batches)
        assert alone["exponential"] == together["exponential"] and calls == []

    def test_results_do_not_depend_on_the_pass(self, monkeypatch):
        # 70 batches put up to 210 starts in one lock-step pass per model.
        # With 1, 64 or 1000 slots, the rows the searches evaluate are
        # exactly the evaluations the fits report, beside one probe call per
        # model with one row per probed batch: a start that waits runs only
        # where the start it waits for did not converge, and is never
        # stopped in flight. Every field of every fit is the same at each
        # setting, and equals the fit of its batch alone.
        real_rows, real_lbfgsb = fitting._shifted_rows, fitting._lbfgsb
        evaluated, probes, searching = {}, {}, []

        def spy(mean_ll, z, *batch_stats):
            if searching:
                evaluated[mean_ll] = evaluated.get(mean_ll, 0) + len(z)
            else:
                probes.setdefault(mean_ll, []).append(len(z))
            return real_rows(mean_ll, z, *batch_stats)

        def lbfgsb_spy(*args):
            searching.append(True)
            try:
                return real_lbfgsb(*args)
            finally:
                searching.pop()

        monkeypatch.setattr(fitting, "_shifted_rows", spy)
        monkeypatch.setattr(fitting, "_lbfgsb", lbfgsb_spy)
        rng = rng_stream(19)
        batches = [random_batch(rng, size=20) for _ in range(70)]
        models = {
            "noncentral_gamma": fitting._noncentral_gamma_mean_ll,
            "proposed": fitting._proposed_mean_ll,
        }
        fits, probed = {}, []
        for max_rows in (1, 64, 1000):
            evaluated.clear()
            probes.clear()
            monkeypatch.setattr(fitting, "_MAX_ROWS", max_rows)
            fits[max_rows] = fitting.fit_batches(
                models, batches, [rng_stream(40 + i) for i in range(70)]
            )
            for m, mean_ll in models.items():
                assert sum(f.starts_skipped for f in fits[max_rows][m]) > 0
                assert evaluated[mean_ll] == sum(f.evaluations for f in fits[max_rows][m])
            # the noncentral gamma probes no batch here: each is seeded by
            # its proposed fit, or lam = 0 is a maximum at its gamma fit
            assert probes.keys() == {fitting._proposed_mean_ll}
            probed.append(probes[fitting._proposed_mean_ll])
        [rows] = probed[0]
        assert 0 < rows < len(batches) and probed == [[rows]] * 3
        monkeypatch.undo()
        for i, batch in enumerate(batches):
            stream = rng_stream(40 + i)
            alone = fitting.fit_batches(models, [batch], [rng_stream(40 + i)])
            for m in models:
                single = fit_model(m, batch, rng=stream)
                if m == "noncentral_gamma":
                    single = alone[m][0]
                assert fits[1][m][i] == fits[64][m][i] == fits[1000][m][i] == single

    def test_invalid_batch_in_a_later_group_raises_before_any_fit(self, monkeypatch):
        # every batch of every length group is validated before the first
        # search runs, and the error is that of the first invalid batch
        calls = []
        monkeypatch.setattr(fitting, "_lbfgsb", lambda *args: calls.append(args))
        rng = rng_stream(18)
        ok_60, ok_40 = random_batch(rng, 60), random_batch(rng, 40)
        not_finite = np.append(random_batch(rng, 24), math.nan)
        not_positive = [1.0, 0.0, 2.0]
        with pytest.raises(ValueError, match="batch values must be finite"):
            fitting.fit_batches(FIT_MODELS, [ok_60, ok_40, ok_60, not_finite])
        with pytest.raises(ValueError, match="batch values must be finite"):
            fitting.fit_batches(FIT_MODELS, [ok_60, not_finite, ok_40, not_positive])
        with pytest.raises(ValueError, match="batch values must be positive"):
            fitting.fit_batches(("gamma",), [ok_60, not_positive, ok_40, not_finite])
        assert calls == []

    def test_repeated_or_unknown_model_rejected(self):
        batches = [rng_stream(17).gamma(1.0, 1.0, 30)]
        with pytest.raises(ValueError, match="'gamma' is requested more than once"):
            fitting.fit_batches(("gamma", "proposed", "gamma"), batches)
        with pytest.raises(ValueError, match="unknown model 'weibull'"):
            fitting.fit_batches(("gamma", "weibull"), batches)
        with pytest.raises(ValueError, match="differ in length"):
            fitting.fit_batches(("gamma",), batches, [None, None])


def _speech_batches(tmp_path, duration_s):
    """The floored patch batches fit-spectra fits, at its defaults, on
    duration_s of the criterion-6a synthesis (make_speech_like, seed 2024)."""
    path = tmp_path / "speech.wav"
    write_wav_pcm16(path, make_speech_like(duration_s, 16000, seed=2024), 16000)
    wav = load_wav(path)
    spec = stft_power(wav.samples, dataclasses.replace(StftConfig(), sample_rate_hz=16000))
    floor = 1e-10 * float(np.mean(spec))
    return [np.maximum(patch.values.ravel(), floor) for patch in tile_patches(spec)]


def _patch_streams(n, seed=7):
    """The restart streams run_experiment gives n patches of one file."""
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        for i in range(n)
    ]


def _neg_mean_ll(model, x, lam):
    """-mean LL of the public density of model at (ln alpha, ln beta), lam."""

    def f(z):
        a, b = math.exp(z[0]), math.exp(z[1])
        if model == "proposed":
            return -float(np.mean(log_pdf_power(x, PowerParams(a, b, lam))))
        return -float(np.mean(log_pdf_noncentral_gamma(x, a, b, lam)))

    return f


def _profile(model, x, lam, z0):
    """The lam-profile of the mean LL: its maximum over (ln alpha, ln beta)
    by L-BFGS-B from z0 with numeric gradients, and the maximizer."""
    res = minimize(
        _neg_mean_ll(model, x, lam), z0, method="L-BFGS-B",
        options={"ftol": 1e-15, "gtol": 1e-10},
    )
    return -res.fun, res.x


def _lam_zero_gate(alpha, degenerate, y) -> bool:
    """fitting._lam_zero_is_a_maximum at one gamma fit, of shape alpha and
    flagged degenerate, of one normalized batch y."""
    gate = fitting._lam_zero_is_a_maximum(
        np.array([alpha]), np.array([degenerate]), np.array([np.var(y)]), np.array([np.mean(y)])
    )
    return bool(gate[0])


class TestLamZeroGate:
    """Where lam = 0 is a local maximum at the gamma fit
    (fitting._lam_zero_is_a_maximum), start 1 runs only if start 0 did not
    converge."""

    @pytest.mark.parametrize("model", ["noncentral_gamma", "proposed"])
    @pytest.mark.parametrize("kind", ["lognormal", "uniform"])
    def test_curvature_matches_a_finite_difference_profile(self, model, kind):
        # the profile curvature in lam at the gamma fit, from the public
        # densities: Richardson's 2 c h^2 = 8 (P(h) - P(0)) - (P(2h) - P(0))
        # cancels the cubic term. Lognormal batches have alpha v > 1,
        # uniform ones alpha v < 1.
        rng = rng_stream(3)
        x = rng.lognormal(0.0, 1.0, 200) if kind == "lognormal" else rng.uniform(1e-3, 2.0, 200)
        y = x / x.mean()
        p0, z = _profile(model, y, 0.0, np.zeros(2))
        a = math.exp(z[0])
        v = float(np.var(y)) / float(np.mean(y)) ** 2
        closed = (a / 2) * (1 - a * v) if model == "proposed" else (1 - a * v) / (a * (a + 1))
        h = 1e-2
        fd = (8 * (_profile(model, y, h, z)[0] - p0) - (_profile(model, y, 2 * h, z)[0] - p0)) / (
            2 * h * h
        )
        assert (a * v > 1.0) == (kind == "lognormal")
        assert np.sign(fd) == np.sign(closed)
        assert abs(fd - closed) <= 0.1 * abs(closed)
        g = fit_gamma(x)
        assert _lam_zero_gate(g.params["alpha"], g.degenerate, y) == (closed < 0.0)

    def test_gate_changes_only_the_counts(self, tmp_path, monkeypatch):
        # the fits of the 0.3 s speech clip with and without the gate: the
        # same fits, fewer evaluations and iterations, more starts skipped
        batches = _speech_batches(tmp_path, 0.3)
        models = ("noncentral_gamma", "proposed")
        live = fitting.fit_batches(models, batches, _patch_streams(len(batches)))
        monkeypatch.setattr(
            fitting, "_lam_zero_is_a_maximum", lambda alpha, *stats: np.zeros(alpha.shape, bool)
        )
        off = fitting.fit_batches(models, batches, _patch_streams(len(batches)))
        counts = {"evaluations": 0, "iterations": 0, "starts_skipped": 0}
        for m in models:
            for a, b in zip(live[m], off[m]):
                assert dataclasses.replace(a, **counts) == dataclasses.replace(b, **counts)
            assert sum(f.evaluations for f in live[m]) < sum(f.evaluations for f in off[m])
            assert sum(f.starts_skipped for f in live[m]) > sum(f.starts_skipped for f in off[m])

    def test_gate_needs_alpha_inside_its_box(self):
        # lam = 0 is a stationary point of the profile only where the gamma
        # fit is one: a constant batch, and alpha at either bound, are never
        # gated, even where alpha v > 1
        const = np.full(60, 2.5)
        g = fit_gamma(const)
        assert g.degenerate and not _lam_zero_gate(g.params["alpha"], g.degenerate, const / 2.5)
        # one value holds almost all the mass, so v is about 2000
        y = np.append(np.full(1999, 1e-9), 1.0)
        y /= y.mean()
        v = float(np.var(y))
        for ln_alpha in fitting._LN_ALPHA_BOUNDS:
            alpha = math.exp(ln_alpha)
            assert alpha * v > 1.0
            # a fit at the upper bound is flagged degenerate by fitting's rule
            degenerate = fitting._degenerate(np.array([alpha]), fitting._Group(y[None], np.ones(1)))
            assert bool(degenerate[0]) == (ln_alpha > 0.0)
            assert not _lam_zero_gate(alpha, bool(degenerate[0]), y)
        assert _lam_zero_gate(1.1e-3, False, y)

    def test_gated_fits_beat_a_lam_grid(self, tmp_path):
        # six patches of the criterion-6a input where the gate dropped starts
        # 1 and 2: no lam on a grid in [1e-3, 100], with (alpha, beta)
        # maximized by an independent search on the public densities, beats
        # the reported lam = 0 fit by more than 1e-9 nats per sample
        batches = _speech_batches(tmp_path, 1.1)
        gammas = fitting.fit_batches(("gamma",), batches)["gamma"]
        gated = [
            i for i, (x, g) in enumerate(zip(batches, gammas))
            if _lam_zero_gate(g.params["alpha"], g.degenerate, x / x.mean())
        ]
        picked = gated[:: len(gated) // 6][:6]
        streams = _patch_streams(len(batches))
        models = ("noncentral_gamma", "proposed")
        fits = fitting.fit_batches(
            models, [batches[i] for i in picked], [streams[i] for i in picked]
        )
        for m in models:
            for i, f in zip(picked, fits[m]):
                assert (f.start, f.params["lambda"], f.starts_skipped) == (0, 0.0, 2)
                z = np.log([f.params["alpha"], f.params["beta"]])
                for lam in np.geomspace(1e-3, 100.0, 12):
                    best, z = _profile(m, batches[i], lam, z)
                    assert best - f.avg_log_likelihood <= 1e-9, (m, i, lam)


def _group(batches) -> fitting._Group:
    """The one group of equal-length batches."""
    x = np.stack(batches)
    return fitting._Group(x, fitting._group_mean(x))


class TestStartOneLam:
    """Start 1 of a shifted fit is its gamma fit with lam at the value the
    model's MODELS entry passes to _fit_shifted: 1 for the proposed law,
    0.01 for the noncentral gamma."""

    def test_each_model_passes_its_own_start_lam(self, monkeypatch):
        seen = {}

        def spy(g, jitters, mean_ll, start_lam, mean_count, seeds):
            seen[mean_ll] = start_lam
            return None

        monkeypatch.setattr(fitting, "_fit_shifted", spy)
        g = _group([golden_batch(*GOLDEN_BATCHES[0])])
        for m in ("noncentral_gamma", "proposed"):
            MODELS[m].fit(g, [None], None)
        assert seen == {fitting._noncentral_gamma_mean_ll: 0.01, fitting._proposed_mean_ll: 1.0}

    @pytest.mark.parametrize("data", ["golden_batches", "golden_clip"])
    def test_proposed_start_at_one_ends_no_lower_than_at_0_01(self, data, tmp_path):
        # the batches tests/test_golden pins, the clip's patches with one
        # restart stream each: a start 1 at lam = 0.01 ends at most 1e-12
        # nats per sample above the shipped fit of any batch, and takes
        # more evaluations
        if data == "golden_batches":
            batches = [golden_batch(*b) for b in GOLDEN_BATCHES]
        else:
            batches = _speech_batches(tmp_path, GOLDEN_CLIP_S)

        def streams():
            n = len(batches)
            rngs = _patch_streams(n, seed=1) if data == "golden_clip" else [None] * n
            return fitting._jitters(rngs)

        g = _group(batches)
        shipped = fitting._fit_results("proposed", g, MODELS["proposed"].fit(g, streams(), None))
        old_start = fitting._fit_shifted(
            g, streams(), fitting._proposed_mean_ll, 0.01, fitting._proposed_mean_count
        )
        old = fitting._fit_results("proposed", g, old_start)
        for i, (new_fit, old_fit) in enumerate(zip(shipped, old)):
            assert old_fit.avg_log_likelihood - new_fit.avg_log_likelihood <= 1e-12, i
        assert sum(f.evaluations for f in shipped) < sum(f.evaluations for f in old)


def _shifted_starts(monkeypatch, lam_zero_gate=False):
    """Spy on the shifted fits: the list, in call order, of (model, z0,
    runs) of each of their _lbfgsb calls. Unless lam_zero_gate, lam = 0 is
    never taken for a maximum, so every start runs in the first pass, one
    row per (batch, start) in that order."""
    real_fit, real_lbfgsb = fitting._fit_shifted, fitting._lbfgsb
    names = {
        fitting._noncentral_gamma_mean_ll: "noncentral_gamma",
        fitting._proposed_mean_ll: "proposed",
    }
    calls, model = [], []

    def fit_spy(g, jitters, mean_ll, *rest):
        model[:] = [names[mean_ll]]
        return real_fit(g, jitters, mean_ll, *rest)

    def lbfgsb_spy(objective, z0, bounds, after=None):
        runs = real_lbfgsb(objective, z0, bounds, after)
        if z0.shape[1] == 3:
            calls.append((model[0], z0.copy(), runs))
        return runs

    monkeypatch.setattr(fitting, "_fit_shifted", fit_spy)
    monkeypatch.setattr(fitting, "_lbfgsb", lbfgsb_spy)
    if not lam_zero_gate:
        monkeypatch.setattr(
            fitting, "_lam_zero_is_a_maximum", lambda alpha, *rest: np.zeros(alpha.size, bool)
        )
    return calls


def _per_batch(z0, values=None):
    """The rows of values (default z0) of each batch, split where z0, the
    starts of a _shifted_starts call, begins a batch: at its start 0, the
    one start with s on the floor of the box."""
    first = np.flatnonzero(z0[:, 2] == fitting._S_BOUNDS[0])
    return np.split(z0 if values is None else values, first[1:])


class TestSeededStart:
    """Where one fit_batches call fits both shifted families, the proposed
    fit of each batch with lam > 0 is the noncentral gamma's start 1, and
    every model draws its jitters from the batch's stream before any
    search, in the order asked."""

    def test_start_one_is_the_proposed_fit_where_its_lam_is_positive(self, monkeypatch):
        calls = _shifted_starts(monkeypatch)
        rng = rng_stream(23)
        batches = [random_batch(rng) for _ in range(8)]
        n = len(batches)
        fits = fitting.fit_batches(FIT_MODELS, batches)
        assert tuple(fits) == FIT_MODELS
        # the proposed law runs first; without streams a batch has two
        # starts, or three where the ridge point took start 1
        [(first, z_p, runs), (second, z0, _)] = calls
        assert (first, second) == ("proposed", "noncentral_gamma")
        ends = _per_batch(z_p, np.array([run.x for run in runs]))
        positive = np.array([f.params["lambda"] > 0.0 for f in fits["proposed"]])
        assert positive.any() and not positive.all()
        ridge = fitting._ridge_points(_group(batches), np.arange(n), lambda a, lam: lam)
        at_0_01 = [[z[0, 0], z[0, 1], fitting._softplus_inv(0.01)] for z in _per_batch(z0)]
        probed = 0
        for r, z in enumerate(_per_batch(z0)):
            if positive[r]:
                assert len(z) == 2
                np.testing.assert_array_equal(z[1], ends[r][fits["proposed"][r].start])
            else:
                probed += len(z) == 3
                np.testing.assert_array_equal(z[1:], [ridge[r], at_0_01[r]][3 - len(z) :])
        # without the proposed law, every start 1 is at lam = 0.01, or the
        # ridge point with the start at lam = 0.01 after it
        for fit in (
            lambda: fitting.fit_batches(("noncentral_gamma", "gamma"), batches),
            lambda: [fit_model("noncentral_gamma", b) for b in batches],
        ):
            calls.clear()
            fit()
            assert {m for m, _, _ in calls} == {"noncentral_gamma"}
            starts = _per_batch(np.concatenate([z for _, z, _ in calls]))
            assert len(starts) == n
            for r, z in enumerate(starts):
                np.testing.assert_array_equal(z[1:], [ridge[r], at_0_01[r]][3 - len(z) :])
            assert sum(len(z) == 3 for z in starts) > probed

    @pytest.mark.parametrize("models", [FIT_MODELS, ("proposed", "gamma", "noncentral_gamma")])
    def test_each_stream_gives_each_model_the_same_draws(self, monkeypatch, models):
        # batch r's stream gives each shifted model, in the order asked,
        # one jitter of start 1 (three normals of scale 0.5, the third
        # doubled), however the models are run; the stream ends where it
        # did; the proposed fits equal fit_model on the shared stream
        calls = _shifted_starts(monkeypatch)
        rng = rng_stream(24)
        batches = [random_batch(rng) for _ in range(5)]
        n = len(batches)
        streams = [rng_stream(30 + r) for r in range(n)]
        fitting.fit_batches(models, batches, streams)
        draws = {m: [] for m in models}
        for r in range(n):
            ref = rng_stream(30 + r)
            for m in models:
                if m in ("noncentral_gamma", "proposed"):
                    draws[m].append(ref.normal(scale=0.5, size=3) * [1.0, 1.0, 2.0])
            assert streams[r].bit_generator.state == ref.bit_generator.state
        assert [m for m, _, _ in calls] == ["proposed", "noncentral_gamma"]
        for m, z0, _ in calls:
            z = z0.reshape(n, 3, 3)
            np.testing.assert_array_equal(z[:, 2], z[:, 1] + np.array(draws[m]))
        monkeypatch.undo()
        together = fitting.fit_batches(models, batches, [rng_stream(30 + r) for r in range(n)])
        for r, batch in enumerate(batches):
            stream = rng_stream(30 + r)
            single = {m: fit_model(m, batch, rng=stream) for m in models}
            assert together["proposed"][r] == single["proposed"]


class TestNoncentralBatchesCorpus:
    def test_seeded_noncentral_gamma_reaches_the_optimum(self):
        # the noncentral_batches corpus of perfbench (helpers); batch i
        # restarts from its own stream
        batches = noncentral_batches()
        assert draws_digest(batches, "<f8") == NONCENTRAL_BATCHES_DIGEST
        stream = noncentral_batch_stream
        fits = fitting.fit_batches(FIT_MODELS, batches, [stream(i) for i in range(6)])
        ll = [f.avg_log_likelihood for f in fits["noncentral_gamma"]]
        # the maxima of the public density's mean LL by Nelder-Mead (scipy,
        # xatol 1e-11) from three starts each: batch 1 at lam = 4.27, over
        # (ln alpha, ln beta, ln lam); batch 2 at lam = 94.0, over (ln beta,
        # ln lam) with alpha on the 1e-3 floor of the fits' box
        assert abs(ll[1] - 2.22691236627459) <= 1e-9
        assert abs(ll[2] - 2.76390635477532) <= 1e-9
        # batch 5's gamma shape is on its ceiling, so fit_model starts the
        # noncentral gamma at large lam too, and reaches the seeded fit
        alone = fit_model("noncentral_gamma", batches[5], rng=stream(5))
        assert alone.converged and alone.params["lambda"] > 2000.0
        assert abs(ll[5] - alone.avg_log_likelihood) <= 1e-7


# Near-constant batches 0.37 (1 + rel z), z 60 standard normals of
# rng_stream(5), each with its gamma shape on the ceiling of the box: by
# rel, the total log-likelihoods that the fits from the gamma start at
# lam = 0.01 (noncentral gamma) and lam = 1 (proposed) reached, with one
# fresh stream rng_stream(3) per fit.
_CEILING_BATCHES = {
    0.0: {"noncentral_gamma": 211.74648277799633, "proposed": 252.78250285706235},
    1e-4: {"noncentral_gamma": 211.7475050482543, "proposed": 252.78274353359484},
    0.022: {"noncentral_gamma": 199.05506292158532, "proposed": 207.14009554904533},
}


class TestCeilingStart:
    """Where a batch's gamma fit is degenerate (its shape on the ceiling of
    the box, or zero variance), start 1 of both shifted families is
    (ln 1e-3, ln alpha_g, alpha_g): alpha on its floor and the gamma
    shape alpha_g moved into lam; every other start stays."""

    @staticmethod
    def _on_ridge(batch):
        alpha_g = fit_model("gamma", batch).params["alpha"]
        assert alpha_g >= fitting._ALPHA_DEGENERATE
        return np.array([math.log(1e-3), math.log(alpha_g), alpha_g])

    @pytest.mark.parametrize("which", ["corpus batch 5", "constant"])
    def test_start_one_on_the_ridge(self, monkeypatch, which):
        batch = noncentral_batches()[5] if which == "corpus batch 5" else np.full(60, 0.37)
        ridge = self._on_ridge(batch)
        calls = _shifted_starts(monkeypatch)
        for m in ("noncentral_gamma", "proposed"):
            calls.clear()
            fit_model(m, batch, rng=rng_stream(11))
            [(_, z0, _)] = calls
            np.testing.assert_array_equal(z0[1], ridge)
            # the one jitter of start 1: three normals of scale 0.5, the third doubled
            jitter = rng_stream(11).normal(scale=0.5, size=3) * [1.0, 1.0, 2.0]
            np.testing.assert_array_equal(z0[2], ridge + jitter)

    def test_start_one_inside_the_box_stays(self, monkeypatch):
        # corpus batches 0-4 have their gamma shape inside the box, so each
        # keeps the gamma fit at the model's start lam: as start 1, or as
        # start 2 where the ridge point took start 1 (TestRidgeProbe)
        calls = _shifted_starts(monkeypatch)
        start_lam = {"noncentral_gamma": 0.01, "proposed": 1.0}
        for batch in noncentral_batches()[:5]:
            alpha_g = fit_model("gamma", batch).params["alpha"]
            assert alpha_g < fitting._ALPHA_DEGENERATE
            for m, lam in start_lam.items():
                calls.clear()
                fit_model(m, batch)
                [(_, z0, _)] = calls
                want = [math.log(alpha_g), math.log(alpha_g), fitting._softplus_inv(lam)]
                assert len(z0) in (2, 3)
                np.testing.assert_array_equal(z0[len(z0) - 1], want)

    def test_proposed_fit_still_seeds_the_noncentral_gamma(self, monkeypatch):
        calls = _shifted_starts(monkeypatch)
        batches = noncentral_batches()
        streams = [noncentral_batch_stream(i) for i in range(6)]
        fits = fitting.fit_batches(FIT_MODELS, batches, streams)
        [(_, _, runs), (_, z0, _)] = calls
        ends = np.array([run.x for run in runs]).reshape(6, 3, 3)
        proposed = fits["proposed"][5]
        assert proposed.params["lambda"] > 0.0
        start_1 = z0.reshape(6, 3, 3)[5, 1]
        np.testing.assert_array_equal(start_1, ends[5, proposed.start])
        assert not np.array_equal(start_1, self._on_ridge(batches[5]))

    def test_proposed_reaches_the_ridge_in_few_evaluations(self):
        # corpus batch 5 as the noncentral_batches workload fits it: the
        # four models in turn on one stream. From the gamma fit at lam = 1
        # both starts ran to the 500-iteration cap: 1333 evaluations, mean
        # LL 4.392373316275939.
        batch = noncentral_batches()[5]
        stream = noncentral_batch_stream(5)
        fits = {m: fit_model(m, batch, rng=stream) for m in FIT_MODELS}
        assert fits["proposed"].evaluations <= 200
        assert fits["proposed"].avg_log_likelihood >= 4.392373316275939

    @pytest.mark.parametrize("rel", list(_CEILING_BATCHES))
    def test_near_constant_batches(self, rel):
        batch = 0.37 * (1.0 + rel * rng_stream(5).standard_normal(60))
        for m, before in _CEILING_BATCHES[rel].items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = fit_model(m, batch, rng=rng_stream(3))
            assert all(math.isfinite(v) for v in fit.params.values()), m
            assert fit.degenerate, m
            assert fit.log_likelihood >= before - 60 * 1e-12, m

    def test_digital_silence(self, tmp_path):
        # the first 112 ms are zeros, so a column of patches is floored to
        # constants; each family is fitted without the other, so that each
        # takes its own start 1. From the gamma start at lam = 0.01 and
        # lam = 1 the fits of those patches reached at most these total
        # log-likelihoods.
        path = tmp_path / "silence.wav"
        sig = 0.4 * rng_stream(4).standard_normal(int(0.2 * 16000))
        sig[:1800] = 0.0
        write_wav_pcm16(path, sig, 16000)
        reached = {"noncentral_gamma": 1422.6528742736537, "proposed": 1463.688894254883}
        for m, before in reached.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rep = run_experiment([str(path)], models=(m,), seed=3)
            silent = [p["fits"][m] for p in rep.patches if p["floored"] == 60]
            assert len(silent) == 43
            for fit in silent:
                assert all(math.isfinite(v) for v in fit["params"].values()), m
                assert fit["degenerate"], m
                assert fit["ll"] >= before - 60 * 1e-12, m


class TestRidgeProbe:
    """Where a batch is neither degenerate nor seeded, and lam = 0 is not a
    maximum at its gamma fit, each shifted family evaluates the batch's
    ridge point (_ridge_points: alpha on its floor, lam = 2 / v) and takes
    it as start 1 where it ends below the gamma fit; the start 1 it
    replaces becomes start 2."""

    MEAN_COUNT = {
        "noncentral_gamma": lambda a, lam: lam,
        "proposed": fitting._proposed_mean_count,
    }

    def _ridge(self, m, batch):
        return fitting._ridge_points(_group([batch]), np.arange(1), self.MEAN_COUNT[m])[0]

    def test_corpus_starts_through_fit_model(self, monkeypatch):
        # the noncentral_batches workload: the four models of a batch in
        # turn on its stream
        calls = _shifted_starts(monkeypatch, lam_zero_gate=True)
        start_lam = {"noncentral_gamma": 0.01, "proposed": 1.0}
        takes = {(0, "noncentral_gamma"), (2, "noncentral_gamma"), (2, "proposed")}
        for i, batch in enumerate(noncentral_batches()):
            stream = noncentral_batch_stream(i)
            alpha_g = fit_model("gamma", batch).params["alpha"]
            for m in FIT_MODELS:
                calls.clear()
                fit_model(m, batch, rng=stream)
                if m not in start_lam:
                    continue
                ridge = self._ridge(m, batch)
                rows = np.concatenate([z for _, z, _ in calls])
                if (i, m) in takes:
                    ln_a = math.log(alpha_g)
                    at_gamma = [ln_a, ln_a, fitting._softplus_inv(start_lam[m])]
                    np.testing.assert_array_equal(calls[0][1][1:], [ridge, at_gamma])
                else:
                    assert not (rows == ridge).all(axis=1).any(), (i, m)
                if i == 5:
                    ceiling = [math.log(1e-3), math.log(alpha_g), alpha_g]
                    np.testing.assert_array_equal(calls[0][1][1], ceiling)

    def test_no_golden_clip_patch_takes_it(self, monkeypatch, tmp_path):
        batches = _speech_batches(tmp_path, GOLDEN_CLIP_S)
        real = fitting._ridge_points
        ridges = []

        def spy(*args):
            ridges.append(real(*args))
            return ridges[-1]

        monkeypatch.setattr(fitting, "_ridge_points", spy)
        calls = _shifted_starts(monkeypatch, lam_zero_gate=True)
        fitting.fit_batches(FIT_MODELS, batches, _patch_streams(len(batches), seed=1))
        rows = np.concatenate([z for _, z, _ in calls])
        probed = np.concatenate(ridges)
        assert len(probed) > 0
        assert not any((rows == ridge).all(axis=1).any() for ridge in probed)

    def test_noncentral_gamma_alone_reaches_the_seeded_fit(self):
        # fit_model("noncentral_gamma") no longer stops at its own start
        # lam = 0.01 on corpus batch 2 (lam = 94.0; the Nelder-Mead maximum
        # of TestNoncentralBatchesCorpus) and golden batches (711, 0) and
        # (7933, 0), where lam = 0.01 had been reported converged. Corpus
        # batch 1 still stops there: its optimum is interior, at lam = 4.27,
        # where the ridge point does not win.
        batch = noncentral_batches()[2]
        fit = fit_model("noncentral_gamma", batch, rng=noncentral_batch_stream(2))
        assert fit.converged and abs(fit.params["lambda"] - 94.0) < 0.05
        assert abs(fit.avg_log_likelihood - 2.76390635477532) <= 1e-9
        golden = [golden_batch(*b) for b in GOLDEN_BATCHES]
        seeded = fitting.fit_batches(FIT_MODELS, golden)["noncentral_gamma"]
        for i, lam in ((2, 33.1), (3, 33.7)):
            fit = fit_model("noncentral_gamma", golden[i])
            assert fit.converged and abs(fit.params["lambda"] - lam) < 0.05
            assert abs(fit.avg_log_likelihood - seeded[i].avg_log_likelihood) <= 1e-9


class TestGroupPowerTable:
    """The noncentral-gamma objective's Bessel series reads each row's
    powers from the group's cached table (_Group.powers)."""

    @pytest.mark.parametrize("n_batches", [1, 5])
    def test_objective_hands_the_kernel_the_groups_table(self, monkeypatch, n_batches):
        real = fitting._log_bessel_i_nu_rows
        seen = []

        def spy(nu, x, powers=None):
            seen.append((len(x), powers))
            return real(nu, x, powers)

        monkeypatch.setattr(fitting, "_log_bessel_i_nu_rows", spy)
        g = _group([golden_batch(*b) for b in GOLDEN_BATCHES[:n_batches]])
        MODELS["noncentral_gamma"].fit(g, [None] * g.size, None)
        assert seen
        table = g.powers
        k = np.arange(1, special._IV_TABLE_TERMS + 1)[:, None]
        u = g.y / g.y.max(axis=1)[:, None]
        np.testing.assert_allclose(table, u[:, None, :] ** k, rtol=1e-13, atol=0.0)
        for rows, (passed, index) in seen:
            # the table itself, not rows copied out of it
            assert np.shares_memory(passed, table) and passed.shape == table.shape
            assert index.shape == (rows,) and 0 <= index.min() and index.max() < g.size


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

    @pytest.mark.parametrize("model", FIT_MODELS)
    @pytest.mark.parametrize("scale", [1e-310, 1e307])
    def test_out_of_range_scale_names_the_mean(self, model, scale):
        # a subnormal batch mean, whose inverse overflows, and a batch
        # whose sum overflows: a message naming the mean, and no numpy
        # warning before it
        data = rng_stream(15).gamma(2.0, scale, 60)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^batch mean .*; rescale the batch$"):
                fit_model(model, data, rng_stream(1))

    @pytest.mark.parametrize("model", FIT_MODELS)
    def test_extreme_in_range_scales_fit(self, model):
        base = rng_stream(15).gamma(2.0, 1.0, 60)
        unit = fit_model(model, base, rng_stream(1)).params
        for c in (1e-300, 1e300):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fit = fit_model(model, c * base, rng_stream(1))
            for k, v in fit.params.items():
                rescaled = v * c if k in ("rate", "beta") else v
                assert math.isclose(rescaled, unit[k], rel_tol=1e-6), (c, k)


def _public_ll(model, x, p) -> float:
    """The batch total of the public density of model at params p."""
    if model == "exponential":
        d = log_pdf_exponential(x, p["rate"])
    elif model == "gamma":
        d = log_pdf_gamma(x, p["alpha"], p["beta"])
    elif model == "noncentral_gamma":
        d = log_pdf_noncentral_gamma(x, p["alpha"], p["beta"], p["lambda"])
    else:
        d = log_pdf_power(x, PowerParams(p["alpha"], p["beta"], p["lambda"]))
    return float(np.sum(d))


def _reference_ll(model, x, p) -> float:
    """The batch total of model's density at params p from its formula,
    with the ln of each scalar parameter taken by math.log, term by term in
    the order the densities add them."""
    if model == "exponential":
        return float(np.sum(math.log(p["rate"]) - p["rate"] * x))
    a, b, lam = p["alpha"], p["beta"], p.get("lambda", 0.0)
    if model == "proposed":
        log_norm = a * math.log(b) - gammaln(a) - log_laguerre_neg(a, lam)
        i0 = log_bessel_i0(2.0 * np.sqrt(b * lam * x))
        return float(np.sum((a - 1.0) * np.log(x) - b * x + i0 + log_norm))
    if lam == 0.0:
        return float(np.sum(a * math.log(b) - gammaln(a) + (a - 1.0) * np.log(x) - b * x))
    half = 0.5 * (a - 1.0)
    if b * lam < np.finfo(float).tiny:
        # a subnormal b lam keeps few bits; the density takes z from logs
        z = 2.0 * np.exp(0.5 * ((math.log(b) + math.log(lam)) + np.log(x)))
    else:
        z = 2.0 * np.sqrt(b * lam * x)
    d = (
        -lam
        + 0.5 * (a + 1.0) * math.log(b)
        - half * math.log(lam)
        + half * np.log(x)
        - b * x
        + log_bessel_i_nu(a - 1.0, z)
    )
    return float(np.sum(d))


_LOG_UNIFORM = st.floats(-3.0, 3.0).map(lambda e: 10.0**e)

# Rows of a log-likelihood pass: alpha (often at an end of its box), beta,
# lam = 0 or lam > 0, and the seed of the row's values.
_ll_rows = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([1e-3, 1e3]), _LOG_UNIFORM),
        _LOG_UNIFORM,
        st.one_of(st.just(0.0), _LOG_UNIFORM),
        st.integers(0, 2**16),
    ),
    min_size=1,
    max_size=5,
)


class TestLogLikelihoodPass:
    """The reported log-likelihoods of a group of batches come from one
    row-batched pass per model; MODELS[m].log_likelihood is its one-row
    case."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.sampled_from([1, 63, 64, 65, 128]), rows=_ll_rows)
    @example(63, [(1e-3, 30.0, 0.0, 1), (1e3, 30.0, 5.0, 2), (0.5, 200.0, 3.0, 3)])
    @example(128, [(1e3, 1.0, 0.0, 4), (2.0, 500.0, 2.0, 5), (1e-3, 0.01, 1e3, 6)])
    # beta (also the exponential rate) and lam where numpy's vectorized log
    # (x86-64 AVX-512 builds) rounds differently from math.log, and where
    # that last bit survives into the totals: each of the five ln beta and
    # ln lam terms in some row
    @example(
        60,
        [
            (9.48, 1.5709, 0.3981, 81),
            (0.15, 6.5092, 4.8121, 4),
            (0.34, 0.806, 0.968, 14),
            (2.52, 3.3039, 0.9107, 11),
            (2.0, 0.8479, 2.7403, 33),
        ],
    )
    def test_rows_equal_each_batch_alone(self, n, rows):
        # lengths on both sides of the 64-wide I_nu rows, lam = 0 beside
        # lam > 0, and lognormal values that put the Bessel arguments
        # 2 sqrt(beta lam x) of most rows on both sides of 30; each total
        # is also the one the density's formula gives
        x = np.stack([np.random.default_rng(seed).lognormal(0.0, 1.5, n) for *_, seed in rows])
        alpha, beta, lam = (np.array(v) for v in list(zip(*rows))[:3])
        arg = 2.0 * np.sqrt((beta * lam)[:, None] * x)
        at = {"alpha": alpha, "beta": beta, "lambda": lam, "rate": beta}
        for m, model in MODELS.items():
            p = {k: at[k] for k in model.params}
            together = model.log_likelihoods(x, np.log(x), p)
            for r in range(len(rows)):
                one = {k: float(v[r]) for k, v in p.items()}
                alone = model.log_likelihood(x[r], one)
                public = _public_ll(m, x[r], one)
                reference = _reference_ll(m, x[r], one)
                assert together[r] == alone == public == reference, (m, r, arg[r].max())

    def test_zero_bessel_argument_and_bad_input(self):
        # 2 sqrt(beta lam x) underflows to 0 at the first value of row 0,
        # where ln I_0.5 is its series' leading term, not ln I_0.5(0) = -inf
        x = np.array([[5e-324, 1.0, 2.0], [0.5, 1.0, 2.0]])
        p = {
            "alpha": np.array([1.5, 1.5]),
            "beta": np.array([1e-160, 1.0]),
            "lambda": np.array([1e-160, 2.0]),
        }
        together = MODELS["noncentral_gamma"].log_likelihoods(x, np.log(x), p)
        assert math.isfinite(together[0]) and math.isfinite(together[1])
        one = [{k: float(v[r]) for k, v in p.items()} for r in range(2)]
        assert together[1] == _reference_ll("noncentral_gamma", x[1], one[1])
        # the underflowing value alone, against mpmath; the row adds it to
        # the others as the formula gives them
        alone = MODELS["noncentral_gamma"].log_likelihood(x[0, :1], one[0])
        with mp.workdps(40):
            b = lam = mp.mpf(1e-160)
            v = mp.mpf(5e-324)
            ref = float(
                -lam + 1.25 * mp.log(b) - 0.25 * mp.log(lam) + 0.25 * mp.log(v) - b * v
                + mp.log(mp.besseli(0.5, 2 * mp.sqrt(b * lam * v)))
            )
        assert abs(alone - ref) <= 1e-12 * abs(ref)
        rest = _reference_ll("noncentral_gamma", x[0, 1:], one[0])
        assert math.isclose(together[0], alone + rest, rel_tol=1e-15)
        ok = {"alpha": 1.0, "beta": 1.0, "lambda": 1.0}
        for m in ("noncentral_gamma", "proposed"):
            with pytest.raises(ValueError, match="lambda must be nonnegative, got -1.0"):
                MODELS[m].log_likelihood(x[1], {**ok, "lambda": -1.0})
            with pytest.raises(ValueError, match="alpha must be positive, got 0.0"):
                MODELS[m].log_likelihood(x[1], {**ok, "alpha": 0.0})
            with pytest.raises(ValueError, match="batch values must be positive"):
                MODELS[m].log_likelihood([1.0, 0.0], ok)

    def test_one_kernel_call_per_model_and_group(self, tmp_path, monkeypatch):
        # the 129 patches of the 0.3 s speech clip, every third cut to 40
        # values, make two groups: each density kernel runs once per model
        # and group, not once per batch, and no single-batch density or
        # kernel runs at all
        batches = _speech_batches(tmp_path, 0.3)
        batches = [b[:40] if i % 3 == 0 else b for i, b in enumerate(batches)]
        assert len(batches) == 129
        per_group = [
            (fitting, "_log_pdf_exponential_rows"),
            (fitting, "_log_pdf_gamma_rows"),
            (fitting, "_log_pdf_noncentral_gamma_rows"),
            (fitting, "_log_pdf_power_rows"),
            # the noncentral-gamma kernel hands its rows at lam = 0 to the
            # gamma kernel and the others to itself
            (distributions, "_log_pdf_gamma_rows"),
            (distributions, "_log_pdf_noncentral_gamma_rows"),
            (distributions, "_log_iv_padded"),
            (distributions, "_log_laguerre_neg_rows"),
            (distributions, "log_bessel_i0"),
        ]
        single = [
            (module, name)
            for module in (fitting, distributions)
            for name in ("log_bessel_i_nu", "log_laguerre_neg", "log_pdf_power",
                         "log_pdf_noncentral_gamma", "_log_i0_unchecked")
            if hasattr(module, name)
        ]
        calls = dict.fromkeys(per_group + single, 0)

        def spy(key):
            real = getattr(*key)

            def counted(*args):
                calls[key] += 1
                return real(*args)

            return counted

        for key in calls:
            monkeypatch.setattr(*key, spy(key))
        fits = fitting.fit_batches(FIT_MODELS, batches, _patch_streams(len(batches)))
        assert calls == {**dict.fromkeys(per_group, 2), **dict.fromkeys(single, 0)}
        for m in ("noncentral_gamma", "proposed"):
            for lam_zero in (True, False):
                rows = [i for i, f in enumerate(fits[m]) if (f.params["lambda"] == 0.0) == lam_zero]
                assert {len(batches[i]) for i in rows} == {40, 60}


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

    def test_matches_exact_tail(self):
        # the tail at the exact t of the sample, from 50-digit arithmetic;
        # the differences are built for |t| from 1e-4 (p near 0.5) to 10
        rng = rng_stream(21)
        for _ in range(300):
            n = int(rng.integers(2, 601))
            z = rng.normal(0.0, 1.0, n)
            d = z - z.mean()
            d += rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, 1.0) * d.std(ddof=1) / n**0.5
            b = rng.normal(0.0, 1.0, n)
            a = b + d
            with mp.workdps(50):
                d = [mp.mpf(x) - mp.mpf(y) for x, y in zip(a.tolist(), b.tolist())]
                md = mp.fsum(d) / n
                sd = mp.sqrt(mp.fsum((x - md) ** 2 for x in d) / (n - 1))
                t = md / (sd / mp.sqrt(n))
                df = mp.mpf(n - 1)
                tail = mp.betainc(df / 2, mp.mpf(0.5), 0, df / (df + t * t), regularized=True) / 2
                ref = float(tail if t >= 0 else 1 - tail)
            assert math.isclose(paired_t_test_one_sided(a, b), ref, rel_tol=1e-13), n

    def test_errors(self):
        with pytest.raises(ValueError):
            paired_t_test_one_sided([1.0], [1.0])
        with pytest.raises(ValueError):
            paired_t_test_one_sided([1.0, 2.0], [1.0])

    def test_overflowing_difference_rejected(self, recwarn):
        with pytest.raises(ValueError, match="paired difference overflows"):
            paired_t_test_one_sided([1e308, -1e308, 0.0], [-1e308, 1e308, 1.0])
        assert not recwarn.list

    def test_large_finite_differences(self, recwarn):
        # the differences are finite but their sum overflows; t is
        # scale-free, so the p-value is that of the differences scaled by
        # 2**-1024 (exact), whose mean and sd fit in a double
        a, b = [1e308, 1.7e308, 1.5e308], [1.0, 2.0, 3.0]
        d = np.ldexp(np.subtract(a, b), -1024)
        t = d.mean() / (d.std(ddof=1) / math.sqrt(3.0))
        p = paired_t_test_one_sided(a, b)
        assert math.isclose(p, stats.t.sf(t, 2), rel_tol=1e-12)
        assert math.isclose(p, 0.0107, rel_tol=1e-2)
        assert not recwarn.list

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, bad, recwarn):
        for a, b in (([1.0, bad, 2.0], [0.0, 1.0, 1.5]), ([1.0, 3.0, 2.0], [0.0, bad, 1.5])):
            with pytest.raises(ValueError, match="paired samples must be finite"):
                paired_t_test_one_sided(a, b)
        assert not recwarn.list
