"""Sampler correctness: exactness of the truncated pmf, chain behavior of
the Metropolis-Hastings sampler, and distributional checks of the gamma,
von Mises, power, and composite complex samplers."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import iv
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
        # lam = 2 runs the term recurrence, lam = 40 the numpy window
        for lam in (2.0, 40.0):
            p = PoissonTypeParams(lam=lam, alpha=30.0)
            with pytest.raises(SeriesConvergenceError, match="could not bound the pmf tail"):
                poisson_type_pmf_table(p, max_terms=20)

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
        from scipy.special import gammaln

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

    def test_degenerate_at_zero(self):
        p = PoissonTypeParams(lam=0.0, alpha=2.0)
        assert sample_poisson_type_mh(p, MhConfig(), rng_stream(0)) == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MhConfig(burn_in=-1)
        with pytest.raises(ValueError):
            MhConfig(thin=0)
        with pytest.raises(ValueError):
            MhConfig(chain_len=0)


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

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            sample_power(PowerParams(1.0, 1.0, 1.0), rng_stream(0), size=5, method="gibbs")


class TestComplexSampler:
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
