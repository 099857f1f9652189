"""Sampler correctness: exactness of the truncated pmf, chain behavior of
the Metropolis-Hastings sampler, and distributional checks of the gamma,
von Mises, power, and composite complex samplers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln, iv, pdtr, pdtrc
from scipy.stats import chi2, chisquare, kstest, poisson

from pwncg.distributions import (
    AmplitudeParams,
    ComplexParams,
    PoissonTypeParams,
    PowerParams,
    log_pdf_amplitude,
    log_pmf_poisson_type,
)
from pwncg.moments import raw_moment
from pwncg.special import SeriesConvergenceError
from pwncg.sampling import (
    MhConfig,
    MhStats,
    _GUIDE_BITS,
    _PoissonTable,
    _mh_weights,
    poisson_type_pmf_table,
    rng_stream,
    sample_complex,
    sample_gamma,
    sample_poisson_type_mh,
    sample_poisson_type_truncated,
    sample_power,
    sample_von_mises,
)


def amplitude_cdf_grid(p: AmplitudeParams, r_max: float, n: int = 20001):
    rs = np.linspace(1e-9, r_max, n)
    pdf = np.exp(log_pdf_amplitude(rs, p))
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(rs))])
    return rs, np.clip(cdf / cdf[-1], 0.0, 1.0)


class TestDeterminism:
    def test_same_seed_same_streams(self):
        p = ComplexParams(mu=0.4 + 0.3j, sigma2=1.0, alpha=1.7)
        a = sample_complex(p, rng_stream(123), size=500)
        b = sample_complex(p, rng_stream(123), size=500)
        np.testing.assert_array_equal(a, b)

    def test_different_seed_differs(self):
        p = PowerParams(alpha=1.2, beta=1.0, lam=0.7)
        a = sample_power(p, rng_stream(1), size=100)
        b = sample_power(p, rng_stream(2), size=100)
        assert not np.array_equal(a, b)


class TestTruncatedSampler:
    def test_degenerate_at_zero(self):
        p = PoissonTypeParams(lam=0.0, alpha=2.0)
        assert sample_poisson_type_truncated(p, rng_stream(0)) == 0
        assert np.all(sample_poisson_type_truncated(p, rng_stream(0), size=100) == 0)

    def test_table_matches_pmf(self):
        for lam, alpha in [(0.5, 0.5), (2.0, 1.0), (8.0, 3.0)]:
            p = PoissonTypeParams(lam=lam, alpha=alpha)
            probs = poisson_type_pmf_table(p)
            ref = np.exp(log_pmf_poisson_type(np.arange(len(probs)), p))
            np.testing.assert_allclose(probs, ref, rtol=1e-10, atol=1e-300)

    def test_table_tail_budget_exhausted(self):
        # the window past the term mode near lam + alpha - 1 ends beyond the
        # 200 000-term budget
        p = PoissonTypeParams(lam=2e5, alpha=1.0)
        with pytest.raises(SeriesConvergenceError, match="could not bound the pmf tail"):
            poisson_type_pmf_table(p)

    def test_poisson_reduction_statistics(self):
        p = PoissonTypeParams(lam=1.0, alpha=1.0)
        draws = sample_poisson_type_truncated(p, rng_stream(7), size=10**6)
        emp = np.bincount(draws, minlength=20) / draws.size
        dev = np.max(np.abs(emp - poisson.pmf(np.arange(20), 1.0)))
        assert dev < 0.002

    def test_goodness_of_fit(self):
        p = PoissonTypeParams(lam=2.0, alpha=0.5)
        draws = sample_poisson_type_truncated(p, rng_stream(11), size=10**6)
        pmf = poisson_type_pmf_table(p)
        k = np.searchsorted(np.cumsum(pmf), 1.0 - 1e-6) + 1
        counts = np.bincount(np.minimum(draws, k), minlength=k + 1)
        expected = draws.size * np.append(pmf[:k], 1.0 - pmf[:k].sum())
        stat, pval = chisquare(counts, expected)
        assert pval > 0.01

    def test_single_draw_is_int(self):
        p = PoissonTypeParams(lam=2.0, alpha=1.5)
        assert isinstance(sample_poisson_type_truncated(p, rng_stream(1)), int)


TABLE_LAMBDAS = [1e-3, 0.5, 3.0, 8.0, 300.0, 1e4]


class TestPoissonProposalTable:
    @pytest.mark.parametrize("lam", TABLE_LAMBDAS + [1e6])
    def test_mass_outside_the_window_is_below_a_uniforms_resolution(self, lam):
        table = _PoissonTable(lam)
        hi = table.lo + len(table.cdf) - 1
        below = pdtr(table.lo - 1, lam) if table.lo > 0 else 0.0
        assert below < 2.0**-53
        assert pdtrc(hi, lam) < 2.0**-53
        assert table.cdf[-1] == 1.0

    @pytest.mark.parametrize("lam", TABLE_LAMBDAS)
    def test_frequencies_match_poisson_pmf(self, lam):
        # per-bin z of every bin with at least 10 expected draws, and of the
        # pooled rest
        table = _PoissonTable(lam)
        n = 10**6
        i = table.draw(rng_stream(41).random(n))
        p = poisson.pmf(table.lo + np.arange(len(table.cdf)), lam)
        counts = np.bincount(i, minlength=p.size)
        keep = n * p >= 10.0
        obs = np.append(counts[keep], n - counts[keep].sum())
        q = np.append(p[keep], 1.0 - p[keep].sum())
        z = (obs - n * q) / np.sqrt(n * q * (1.0 - q))
        assert np.all(np.abs(z) < 5.0), (lam, np.abs(z).max())

    @pytest.mark.parametrize("lam", [0.5, 3.0, 300.0, 1e6])
    def test_lookup_is_the_exact_inverse_transform(self, lam):
        # every uniform draws the first k with u < F(k), also at the guide
        # cell edges, at the CDF steps and one ulp below them
        table = _PoissonTable(lam)
        edges = np.arange(1 << _GUIDE_BITS) / float(1 << _GUIDE_BITS)
        steps = table.cdf[table.cdf < 1.0]
        u = np.concatenate(
            [
                rng_stream(43).random(200_000),
                edges,
                np.nextafter(edges[1:], 0.0),
                steps,
                np.nextafter(steps, 0.0),
                [0.0, 1.0 - 2.0**-53],
            ]
        )
        np.testing.assert_array_equal(
            table.draw(u), np.searchsorted(table.cdf, u, side="right")
        )

    def test_table_size_is_bounded(self):
        with pytest.raises(ValueError, match="Poisson proposal table"):
            _PoissonTable(1e12)


class TestMhSampler:
    def test_acceptance_is_exactly_one_at_shape_one(self):
        p = PoissonTypeParams(lam=3.0, alpha=1.0)
        _, stats = sample_poisson_type_mh(
            p, MhConfig(), rng_stream(5), size=20_000, return_stats=True
        )
        assert stats.accepted == stats.proposals

    def test_acceptance_ratio_formula(self):
        # ratio reduces to n! Gamma(a+n') / (n'! Gamma(a+n)); direct
        # pmf-ratio times proposal-ratio must agree
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(0.1, 10.0)
            lam = rng.uniform(0.1, 8.0)
            n, n2 = rng.integers(0, 40, size=2)
            p = PoissonTypeParams(lam=float(lam), alpha=float(a))
            direct = (
                log_pmf_poisson_type(int(n2), p)
                - log_pmf_poisson_type(int(n), p)
                + poisson.logpmf(n, lam)
                - poisson.logpmf(n2, lam)
            )
            reduced = (
                gammaln(n + 1.0)
                + gammaln(a + n2)
                - gammaln(n2 + 1.0)
                - gammaln(a + n)
            )
            assert math.isclose(direct, reduced, rel_tol=0, abs_tol=1e-10)

    def test_agrees_with_truncated_sampler(self):
        p = PoissonTypeParams(lam=2.0, alpha=0.5)
        n = 200_000
        mh = sample_poisson_type_mh(p, MhConfig(), rng_stream(21), size=n)
        tr = sample_poisson_type_truncated(p, rng_stream(22), size=n)
        k = 50
        tv = 0.5 * np.sum(
            np.abs(
                np.bincount(mh, minlength=k)[:k] / n
                - np.bincount(tr, minlength=k)[:k] / n
            )
        )
        assert tv < 0.015

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 4.5])
    def test_weight_differences_match_grouped_log_gammas(self, alpha):
        # w_n - w_n' must equal (ln n! - ln Gamma(a+n)) + (ln Gamma(a+n') - ln n'!)
        # bit for bit, over the support of the proposal table
        rng = np.random.default_rng(13)
        for lam in (3.0, 300.0):
            table = _PoissonTable(lam)
            weights = _mh_weights(alpha, table.k)
            i, i2 = rng.integers(0, len(table.k), size=(2, 400))
            got = weights[i] - weights[i2]
            n, n2 = table.lo + i, table.lo + i2
            f, f2 = gammaln(1.0 + n), gammaln(1.0 + n2)
            g, g2 = gammaln(alpha + n), gammaln(alpha + n2)
            np.testing.assert_array_equal(got, (f - g) + (g2 - f2))

    def test_never_calls_poisson(self):
        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.calls = rng, []

            def __getattr__(self, name):
                self.calls.append(name)
                return getattr(self.rng, name)

        proxy = CountingGenerator(rng_stream(4))
        p = PoissonTypeParams(lam=3.0, alpha=0.7)
        sample_poisson_type_mh(p, MhConfig(burn_in=3, thin=2), proxy, size=1000)
        assert set(proxy.calls) == {"random"}  # never poisson

    def test_same_seed_same_draws_and_stats(self):
        p = PoissonTypeParams(lam=8.0, alpha=2.5)
        cfg = MhConfig(burn_in=7, thin=3)
        a, sa = sample_poisson_type_mh(p, cfg, rng_stream(9), size=(40, 50), return_stats=True)
        b, sb = sample_poisson_type_mh(p, cfg, rng_stream(9), size=(40, 50), return_stats=True)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (40, 50) and a.dtype == np.int64
        assert sa == sb
        assert isinstance(sa, MhStats) and sa.proposals == 10 * 2000
        assert 0 < sa.accepted < sa.proposals

    def test_mean_at_large_lambda(self):
        # N's mean from the pmf table at lam = 1e5; at lam = 1e6, past the
        # pmf table's term budget, the mean is lam - 0.3
        p = PoissonTypeParams(lam=1e5, alpha=0.7)
        probs = poisson_type_pmf_table(p)
        k = np.arange(len(probs))
        mean = float(np.sum(k * probs))
        sd = math.sqrt(float(np.sum((k - mean) ** 2 * probs)))
        n = 20_000
        draws = sample_poisson_type_mh(p, MhConfig(), rng_stream(31), size=n)
        assert abs(draws.mean() - mean) < 5 * sd / math.sqrt(n)
        far = sample_poisson_type_mh(PoissonTypeParams(1e6, 0.7), MhConfig(), rng_stream(32), size=2000)
        assert abs(far.mean() - 1e6) < 5 * 1e3 / math.sqrt(far.size)

    def test_degenerate_at_zero(self):
        p = PoissonTypeParams(lam=0.0, alpha=2.0)
        assert sample_poisson_type_mh(p, MhConfig(), rng_stream(0)) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MhConfig(burn_in=-1)
        with pytest.raises(ValueError):
            MhConfig(thin=0)


class TestGammaSampler:
    def test_mean(self):
        d = sample_gamma(2.0, 4.0, rng_stream(1), size=10**6)
        se = d.std() / math.sqrt(d.size)
        assert abs(d.mean() - 0.5) < 4 * se

    def test_exponential_ks(self):
        d = sample_gamma(1.0, 2.0, rng_stream(2), size=10**5)
        res = kstest(d, lambda x: 1.0 - np.exp(-2.0 * x))
        assert res.pvalue > 0.01

    def test_small_shape_second_moment(self):
        d = sample_gamma(0.3, 1.0, rng_stream(3), size=10**6)
        m2 = (d**2).mean()
        se = (d**2).std() / math.sqrt(d.size)
        assert abs(m2 - 0.3 * 1.3) < 4 * se

    def test_vector_shapes(self):
        shapes = np.array([0.5, 1.0, 3.0, 8.0])
        d = sample_gamma(np.tile(shapes, 25000), 1.0, rng_stream(4), size=100_000)
        for i, k in enumerate(shapes):
            sub = d[i::4]
            se = sub.std() / math.sqrt(sub.size)
            assert abs(sub.mean() - k) < 5 * se

    def test_tuple_size_reshapes_flat_draws(self):
        for shape in (0.4, 2.0):
            got = sample_gamma(shape, 1.0, rng_stream(6), size=(2, 3))
            flat = sample_gamma(shape, 1.0, rng_stream(6), size=6)
            np.testing.assert_array_equal(got, flat.reshape(2, 3))
        shapes = np.array([[0.5, 1.0, 3.0], [8.0, 0.2, 1.5]])
        got = sample_gamma(shapes, 1.0, rng_stream(7))
        flat = sample_gamma(shapes.ravel(), 1.0, rng_stream(7))
        np.testing.assert_array_equal(got, flat.reshape(2, 3))

    def test_positivity(self):
        d = sample_gamma(0.05, 1.0, rng_stream(5), size=10**5)
        assert np.all(d > 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_gamma(0.0, 1.0, rng_stream(0))
        with pytest.raises(ValueError):
            sample_gamma(1.0, -1.0, rng_stream(0))


class TestVonMisesSampler:
    def test_uniform_at_zero_concentration(self):
        d = sample_von_mises(0.0, 0.0, rng_stream(6), size=10**5)
        res = kstest(d, lambda x: (x + np.pi) / (2 * np.pi))
        assert res.pvalue > 0.01

    def test_range(self):
        d = sample_von_mises(3.0, 2.5, rng_stream(7), size=10**5)
        assert np.all(d >= -np.pi) and np.all(d < np.pi)

    def test_circular_mean_direction(self):
        d = sample_von_mises(0.7, 4.0, rng_stream(8), size=10**6)
        mean_dir = np.angle(np.exp(1j * d).mean())
        assert abs(mean_dir - 0.7) < 0.01

    def test_circular_concentration(self):
        d = sample_von_mises(0.0, 4.0, rng_stream(9), size=10**6)
        resultant = abs(np.exp(1j * d).mean())
        assert abs(resultant - iv(1, 4.0) / iv(0, 4.0)) < 0.01

    def test_per_element_kappa(self):
        kappas = np.tile(np.array([0.0, 8.0]), 50_000)
        d = sample_von_mises(0.0, kappas, rng_stream(10), size=100_000)
        spread_lo = abs(np.exp(1j * d[0::2]).mean())
        spread_hi = abs(np.exp(1j * d[1::2]).mean())
        assert spread_lo < 0.02 and spread_hi > 0.9

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_von_mises(0.0, -1.0, rng_stream(0))


class TestPowerSampler:
    def test_gamma_reduction_mean(self):
        p = PowerParams(alpha=2.0, beta=1.0, lam=0.0)
        d = sample_power(p, rng_stream(12), size=10**6)
        se = d.std() / math.sqrt(d.size)
        assert abs(d.mean() - 2.0) < 4 * se

    def test_noncentral_mean(self):
        p = PowerParams(alpha=1.0, beta=1.0, lam=2.0)
        d = sample_power(p, rng_stream(13), size=10**6)
        se = d.std() / math.sqrt(d.size)
        assert abs(d.mean() - 3.0) < 4 * se

    def test_draws_up_to_the_term_budget(self):
        # the pmf table reaches past lam = 1e5 (at alpha = 1, N is
        # Poisson(lam), so the power has mean and variance 1 + lam and
        # 1 + 2 lam)
        p = PowerParams(alpha=1.0, beta=1.0, lam=1.5e5)
        d = sample_power(p, rng_stream(15), size=10_000)
        se = math.sqrt((1.0 + 2.0 * p.lam) / d.size)
        assert abs(d.mean() - (1.0 + p.lam)) < 5 * se

    def test_moments_match_closed_form(self):
        p = PowerParams(alpha=0.8, beta=1.5, lam=2.5)
        d = sample_power(p, rng_stream(14), size=10**6)
        for n in (1, 2, 3, 4):
            emp = (d**n).mean()
            se = (d**n).std() / math.sqrt(d.size)
            assert abs(emp - raw_moment(n, p)) < 5 * se

    def test_ks_against_quadrature_cdf(self):
        p = PowerParams(alpha=1.3, beta=0.9, lam=1.8)
        amp = p.amplitude_params()
        d = np.sqrt(sample_power(p, rng_stream(15), size=10**5))
        rs, cdf = amplitude_cdf_grid(amp, r_max=float(d.max()) * 1.5)
        res = kstest(d, lambda x: np.interp(x, rs, cdf))
        assert res.pvalue > 0.01

    def test_mh_method_agrees(self):
        p = PowerParams(alpha=1.5, beta=1.0, lam=2.0)
        d = sample_power(p, rng_stream(16), size=10**5, method="mh")
        se = d.std() / math.sqrt(d.size)
        assert abs(d.mean() - raw_moment(1, p)) < 5 * se

    def test_mh_routing_above_cutoff(self):
        # large shapes route to the truncated sampler; same seed, same draws
        p = PowerParams(alpha=25.0, beta=1.0, lam=2.0)
        a = sample_power(p, rng_stream(17), size=1000, method="mh")
        b = sample_power(p, rng_stream(17), size=1000, method="trunc")
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("method, lam", [("trunc", 2.0), ("mh", 2.0), ("trunc", 0.0)])
    def test_tuple_size_reshapes_flat_draws(self, method, lam):
        p = PowerParams(alpha=1.3, beta=0.7, lam=lam)
        for s in (1, 2):
            got = sample_power(p, rng_stream(s), size=(2, 3), method=method)
            flat = sample_power(p, rng_stream(s), size=6, method=method)
            np.testing.assert_array_equal(got, flat.reshape(2, 3))

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sample_power(PowerParams(1.0, 1.0, 1.0), rng_stream(0), size=5, method="gibbs")

    def test_unknown_method_at_zero_noncentrality(self):
        with pytest.raises(ValueError):
            sample_power(PowerParams(1.0, 1.0, 0.0), rng_stream(0), 3, method="bogus")


class TestComplexSampler:
    @pytest.mark.parametrize("method", ["trunc", "mh"])
    def test_tuple_size_reshapes_flat_draws(self, method):
        for mu in (0.0, 0.8 - 0.3j):
            p = ComplexParams(mu=mu, sigma2=1.2, alpha=1.4)
            got = sample_complex(p, rng_stream(3), size=(2, 3), method=method)
            flat = sample_complex(p, rng_stream(3), size=6, method=method)
            np.testing.assert_array_equal(got, flat.reshape(2, 3))

    def test_mean_recovers_centroid_at_shape_one(self):
        p = ComplexParams(mu=0.3 + 0.4j, sigma2=1.0, alpha=1.0)
        z = sample_complex(p, rng_stream(18), size=10**6)
        se = z.real.std() / math.sqrt(z.size)
        assert abs(z.mean().real - 0.3) < 4 * se
        assert abs(z.mean().imag - 0.4) < 4 * se

    def test_uniform_phase_at_zero_mean(self):
        p = ComplexParams(mu=0.0, sigma2=1.0, alpha=2.0)
        z = sample_complex(p, rng_stream(19), size=10**5)
        res = kstest(np.angle(z), lambda x: (x + np.pi) / (2 * np.pi))
        assert res.pvalue > 0.01

    def test_amplitude_ks(self):
        p = ComplexParams(mu=0.8 * np.exp(1j * 0.5), sigma2=0.9, alpha=2.0)
        z = sample_complex(p, rng_stream(20), size=10**5)
        r = np.abs(z)
        amp = p.amplitude_params()
        rs, cdf = amplitude_cdf_grid(amp, r_max=float(r.max()) * 1.5)
        res = kstest(r, lambda x: np.interp(x, rs, cdf))
        assert res.pvalue > 0.01

    def test_histogram_chi2_against_density(self):
        from pwncg.distributions import log_pdf_complex

        p = ComplexParams(mu=0.5 * np.exp(1j * np.pi / 4), sigma2=1.0, alpha=5.0)
        n = 10**6
        z = sample_complex(p, rng_stream(23), size=n)
        edges = np.linspace(-4.5, 4.5, 19)
        counts, _, _ = np.histogram2d(z.real, z.imag, bins=[edges, edges])

        # cell expectations by 5x5 midpoint refinement
        centers = 0.5 * (edges[:-1] + edges[1:])
        h = edges[1] - edges[0]
        off = (np.arange(5) - 2.0) * h / 5.0
        expected = np.zeros_like(counts)
        for i, cx in enumerate(centers):
            for j, cy in enumerate(centers):
                sub = (cx + off)[:, None] + 1j * (cy + off)[None, :]
                expected[i, j] = np.exp(log_pdf_complex(sub.ravel(), p)).mean() * h * h * n

        keep = expected > 20.0
        chi_cells = ((counts[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        rest_obs = n - counts[keep].sum()
        rest_exp = n - expected[keep].sum()
        stat = chi_cells + (rest_obs - rest_exp) ** 2 / rest_exp
        dof = int(keep.sum())  # +1 bucket -1 normalization
        pval = chi2.sf(stat, dof)
        assert pval > 0.01
