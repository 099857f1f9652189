"""Density identities: normalization, marginalization, reductions, and the
distorted-Poisson / gamma-mixture structure."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import complex_normalization
from pwncg.distributions import (
    AmplitudeParams,
    ComplexParams,
    PoissonTypeParams,
    PowerParams,
    complex_density_rows,
    log_pdf_amplitude,
    log_pdf_complex,
    log_pdf_exponential,
    log_pdf_gamma,
    log_pdf_joint_polar,
    log_pdf_nakagami,
    log_pdf_noncentral_chi,
    log_pdf_noncentral_gamma,
    log_pdf_phase_given_r,
    log_pdf_power,
    log_pdf_rice,
    log_pmf_poisson_type,
    scalar_density_rows,
)
from pwncg.sampling import poisson_type_pmf_table

LOG_PI = math.log(math.pi)


class TestComplexDensity:
    def test_standard_normal_at_origin(self):
        p = ComplexParams(mu=0.0, sigma2=1.0, alpha=1.0)
        assert math.isclose(log_pdf_complex(0.0, p), -LOG_PI, rel_tol=1e-14)

    def test_normal_at_its_mode(self):
        p = ComplexParams(mu=1.0, sigma2=1.0, alpha=1.0)
        assert math.isclose(log_pdf_complex(1.0 + 0.0j, p), -LOG_PI, rel_tol=1e-14)

    def test_shape_two_value(self):
        # frozen high-precision value at z = mu = 0.5 e^{i pi/4}
        mu = 0.5 * cmath.exp(1j * math.pi / 4)
        p = ComplexParams(mu=mu, sigma2=1.0, alpha=2.0)
        assert math.isclose(log_pdf_complex(mu, p), -2.7541677982835005487, rel_tol=1e-12)

    def test_normalization_by_quadrature(self):
        mu = 0.7 * cmath.exp(1j * 0.9)
        p = ComplexParams(mu=mu, sigma2=0.8, alpha=2.0)
        assert abs(complex_normalization(p) - 1.0) < 1e-9

    def test_origin_domain_error_below_shape_one(self):
        p = ComplexParams(mu=0.5, sigma2=1.0, alpha=0.5)
        with pytest.raises(ValueError):
            log_pdf_complex(0.0, p)

    def test_origin_is_minus_inf_above_shape_one(self):
        p = ComplexParams(mu=0.5, sigma2=1.0, alpha=2.0)
        assert log_pdf_complex(0.0, p) == -math.inf

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            mu = complex(rng.normal(), rng.normal())
            z = complex(rng.normal(), rng.normal())
            alpha = rng.uniform(0.4, 4.0)
            sigma2 = rng.uniform(0.3, 2.0)
            phi = rng.uniform(-math.pi, math.pi)
            rot = cmath.exp(1j * phi)
            a = log_pdf_complex(z * rot, ComplexParams(mu * rot, sigma2, alpha))
            b = log_pdf_complex(z, ComplexParams(mu, sigma2, alpha))
            assert math.isclose(a, b, rel_tol=0, abs_tol=1e-10)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            mu = complex(rng.normal(), rng.normal())
            z = complex(rng.normal(), rng.normal()) + 0.1
            alpha = rng.uniform(0.4, 4.0)
            sigma2 = rng.uniform(0.3, 2.0)
            c = rng.uniform(0.2, 5.0)
            a = log_pdf_complex(c * z, ComplexParams(c * mu, c * c * sigma2, alpha))
            b = log_pdf_complex(z, ComplexParams(mu, sigma2, alpha))
            assert math.isclose(a, b - 2.0 * math.log(c), rel_tol=0, abs_tol=1e-10)

    def test_reduces_to_complex_normal_at_shape_one(self):
        rng = np.random.default_rng(13)
        mu = 0.4 - 0.2j
        p = ComplexParams(mu=mu, sigma2=0.7, alpha=1.0)
        zs = rng.normal(size=100) + 1j * rng.normal(size=100)
        ours = log_pdf_complex(zs, p)
        normal = -np.abs(zs - mu) ** 2 / 0.7 - LOG_PI - math.log(0.7)
        np.testing.assert_allclose(ours, normal, rtol=0, atol=1e-10)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ComplexParams(mu=0.0, sigma2=0.0, alpha=1.0)
        with pytest.raises(ValueError):
            ComplexParams(mu=0.0, sigma2=1.0, alpha=-1.0)
        with pytest.raises(ValueError):
            ComplexParams(mu=complex(math.nan, 0.0), sigma2=1.0, alpha=1.0)


class TestJointPolar:
    def test_jacobian_bookkeeping(self):
        p = ComplexParams(mu=0.0, sigma2=1.0, alpha=1.0)
        assert math.isclose(
            log_pdf_joint_polar(1.0, 0.0, p), -LOG_PI + 0.0 - 1.0, rel_tol=1e-14
        )

    def test_cosine_extremes_differ_by_four_nu_r(self):
        nu, sigma2, r = 1.0, 0.8, 1.0
        phi = 0.6
        p = ComplexParams(mu=nu * cmath.exp(1j * phi), sigma2=sigma2, alpha=1.7)
        hi = log_pdf_joint_polar(r, phi, p)
        lo = log_pdf_joint_polar(r, phi + math.pi, p)
        assert math.isclose(hi - lo, 4.0 * nu * r / sigma2, rel_tol=1e-12)

    def test_matches_complex_density_plus_log_r(self):
        rng = np.random.default_rng(5)
        p = ComplexParams(mu=0.3 + 1.1j, sigma2=0.6, alpha=2.2)
        for _ in range(25):
            r = rng.uniform(0.05, 3.0)
            th = rng.uniform(-math.pi, math.pi)
            direct = log_pdf_complex(r * cmath.exp(1j * th), p) + math.log(r)
            assert math.isclose(log_pdf_joint_polar(r, th, p), direct, abs_tol=1e-12)

    def test_rejects_nonpositive_radius(self):
        p = ComplexParams(mu=0.0, sigma2=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            log_pdf_joint_polar(0.0, 0.0, p)


class TestPhaseConditional:
    def test_uniform_when_mean_is_zero(self):
        p = ComplexParams(mu=0.0, sigma2=1.0, alpha=2.0)
        for th in np.linspace(-math.pi, math.pi, 9):
            assert math.isclose(
                log_pdf_phase_given_r(float(th), 1.0, p), -math.log(2 * math.pi)
            )

    def test_high_concentration_peak(self):
        # at the mean direction the log density approaches ln sqrt(kappa/(2 pi))
        p = ComplexParams(mu=50.0 + 0.0j, sigma2=1.0, alpha=1.0)
        kappa = 2.0 * 50.0 * 2.0 / 1.0
        got = log_pdf_phase_given_r(0.0, 2.0, p)
        assert math.isclose(got, 0.5 * math.log(kappa / (2 * math.pi)), rel_tol=1e-3)

    def test_normalizes_to_one(self):
        p = ComplexParams(mu=1.3 * cmath.exp(0.4j), sigma2=0.5, alpha=3.0)
        val, _ = quad(
            lambda th: math.exp(log_pdf_phase_given_r(th, 0.9, p)), -math.pi, math.pi
        )
        assert abs(val - 1.0) < 1e-10

    def test_joint_factorizes(self):
        # p(r, theta) = p(r) p(theta | r)
        p = ComplexParams(mu=0.8 * cmath.exp(1j * 1.1), sigma2=0.7, alpha=1.6)
        amp = p.amplitude_params()
        for r, th in [(0.5, 0.2), (1.4, -2.0), (2.2, 3.0)]:
            joint = log_pdf_joint_polar(r, th, p)
            split = log_pdf_amplitude(r, amp) + log_pdf_phase_given_r(th, r, p)
            assert math.isclose(joint, split, rel_tol=1e-12)


class TestAmplitudeDensity:
    def test_rayleigh_point(self):
        p = AmplitudeParams(nu=0.0, sigma2=1.0, alpha=1.0)
        assert math.isclose(log_pdf_amplitude(1.0, p), math.log(2.0) - 1.0, rel_tol=1e-14)

    def test_half_normal_reduction(self):
        # nu = 0, alpha = 1/2 gives a half-normal with scale sigma/sqrt(2)
        p = AmplitudeParams(nu=0.0, sigma2=0.9, alpha=0.5)
        scale = math.sqrt(0.9 / 2.0)
        for r in (0.2, 0.8, 2.0):
            ref = math.log(math.sqrt(2.0 / math.pi) / scale) - r * r / (2 * scale * scale)
            assert math.isclose(log_pdf_amplitude(r, p), ref, rel_tol=1e-12)

    def test_marginalization_oracle(self):
        # frozen value from high-precision quadrature over the phase
        p = AmplitudeParams(nu=0.8, sigma2=0.5, alpha=2.4)
        assert math.isclose(
            log_pdf_amplitude(1.3, p), -0.059509624530534320074, rel_tol=1e-12
        )

    def test_marginalization_chain_pointwise(self):
        p = ComplexParams(mu=0.9 * cmath.exp(0.3j), sigma2=1.2, alpha=0.7)
        amp = p.amplitude_params()
        for r in (0.3, 1.0, 2.5):
            integral, _ = quad(
                lambda th: math.exp(log_pdf_joint_polar(r, th, p)), -math.pi, math.pi
            )
            assert abs(integral - math.exp(log_pdf_amplitude(r, amp))) <= 1e-8

    def test_normalization(self):
        p = AmplitudeParams(nu=1.1, sigma2=0.4, alpha=3.0)
        val, _ = quad(lambda r: math.exp(log_pdf_amplitude(r, p)), 0.0, 30.0, limit=200)
        assert abs(val - 1.0) < 1e-9


class TestPowerDensity:
    def test_exponential_point(self):
        p = PowerParams(alpha=1.0, beta=1.0, lam=0.0)
        assert math.isclose(log_pdf_power(1.0, p), -1.0, rel_tol=1e-14)

    def test_mixture_oracle_value(self):
        # frozen value of the gamma mixture truncated far into the tail
        p = PowerParams(alpha=0.7, beta=1.5, lam=3.0)
        assert math.isclose(log_pdf_power(2.0, p), -1.4217123561370722502, rel_tol=1e-12)

    def test_change_of_variables_from_amplitude(self):
        amp = AmplitudeParams(nu=0.8, sigma2=0.5, alpha=2.4)
        pw = amp.power_params()
        for x in (0.2, 1.0, 4.0):
            r = math.sqrt(x)
            lhs = math.exp(log_pdf_power(x, pw))
            rhs = math.exp(log_pdf_amplitude(r, amp)) / (2.0 * r)
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_gamma_reduction(self):
        xs = np.linspace(0.05, 8.0, 100)
        ours = log_pdf_power(xs, PowerParams(alpha=2.3, beta=1.4, lam=0.0))
        ref = log_pdf_gamma(xs, 2.3, 1.4)
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10)

    def test_coincides_with_noncentral_gamma_at_shape_one(self):
        xs = np.linspace(0.05, 10.0, 100)
        ours = log_pdf_power(xs, PowerParams(alpha=1.0, beta=0.8, lam=2.5))
        ref = log_pdf_noncentral_gamma(xs, 1.0, 0.8, 2.5)
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10)

    def test_mixture_representation_on_grid(self):
        p = PowerParams(alpha=0.7, beta=1.5, lam=3.0)
        probs = poisson_type_pmf_table(PoissonTypeParams(lam=3.0, alpha=0.7))
        shapes = np.arange(len(probs)) + 0.7
        for x in np.linspace(0.1, 12.0, 25):
            logs = np.array([log_pdf_gamma(float(x), float(s), 1.5) for s in shapes])
            mix = float(np.sum(probs * np.exp(logs)))
            direct = math.exp(log_pdf_power(float(x), p))
            assert math.isclose(mix, direct, rel_tol=1e-9)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_pdf_power(0.0, PowerParams(alpha=1.0, beta=1.0, lam=0.0))


class TestPoissonType:
    def test_poisson_reduction_point(self):
        p = PoissonTypeParams(lam=1.0, alpha=1.0)
        assert math.isclose(
            log_pmf_poisson_type(2, p), math.log(math.exp(-1.0) / 2.0), rel_tol=1e-13
        )

    def test_degenerate_at_lam_zero(self):
        p = PoissonTypeParams(lam=0.0, alpha=3.0)
        assert log_pmf_poisson_type(0, p) == 0.0
        assert log_pmf_poisson_type(3, p) == -math.inf

    def test_brute_force_normalizer_value(self):
        # frozen: ln pmf(4) at lam = 2, alpha = 0.5 with a 200-term normalizer
        p = PoissonTypeParams(lam=2.0, alpha=0.5)
        assert math.isclose(log_pmf_poisson_type(4, p), -2.9380616690455465169, rel_tol=1e-12)

    def test_poisson_reduction_grid(self):
        from scipy.stats import poisson

        p = PoissonTypeParams(lam=3.7, alpha=1.0)
        ns = np.arange(0, 40)
        ours = log_pmf_poisson_type(ns, p)
        ref = poisson.logpmf(ns, 3.7)
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-10)

    def test_sums_to_one(self):
        for lam, alpha in [(0.5, 0.5), (2.0, 1.0), (8.0, 3.0), (30.0, 0.4)]:
            p = PoissonTypeParams(lam=lam, alpha=alpha)
            ns = np.arange(0, 500)
            total = float(np.sum(np.exp(log_pmf_poisson_type(ns, p))))
            assert abs(total - 1.0) <= 1e-10

    def test_rejects_negative_and_fractional(self):
        p = PoissonTypeParams(lam=1.0, alpha=1.0)
        with pytest.raises(ValueError):
            log_pmf_poisson_type(-1, p)
        with pytest.raises(ValueError):
            log_pmf_poisson_type(1.5, p)


class TestBaselines:
    def test_gamma_exponential_point(self):
        assert math.isclose(log_pdf_gamma(1.0, 1.0, 1.0), -1.0, rel_tol=1e-14)
        assert math.isclose(log_pdf_exponential(1.0, 1.0), -1.0, rel_tol=1e-14)

    def test_noncentral_gamma_reduces_to_gamma(self):
        xs = np.linspace(0.1, 9.0, 100)
        np.testing.assert_allclose(
            log_pdf_noncentral_gamma(xs, 1.8, 0.9, 0.0),
            log_pdf_gamma(xs, 1.8, 0.9),
            rtol=0,
            atol=1e-12,
        )

    def test_noncentral_gamma_is_poisson_gamma_mixture(self):
        from scipy.stats import poisson

        a, b, lam = 2.4, 1.1, 3.0
        ws = poisson.pmf(np.arange(200), lam)
        for x in (0.3, 1.0, 5.0):
            mix = float(
                np.sum(
                    ws
                    * np.exp([log_pdf_gamma(x, a + n, b) for n in range(200)])
                )
            )
            assert math.isclose(
                mix, math.exp(log_pdf_noncentral_gamma(x, a, b, lam)), rel_tol=1e-10
            )

    def test_rice_amplitude_reduction(self):
        rs = np.linspace(0.05, 5.0, 100)
        ours = log_pdf_amplitude(rs, AmplitudeParams(nu=0.8, sigma2=1.3, alpha=1.0))
        np.testing.assert_allclose(ours, log_pdf_rice(rs, 0.8, 1.3), rtol=0, atol=1e-10)

    def test_nakagami_constraint_reduction(self):
        # alpha = m with nu = 0 and sigma2 = omega/m
        m, omega = 2.5, 3.0
        rs = np.linspace(0.05, 4.0, 100)
        ours = log_pdf_amplitude(rs, AmplitudeParams(nu=0.0, sigma2=omega / m, alpha=m))
        np.testing.assert_allclose(ours, log_pdf_nakagami(rs, m, omega), rtol=0, atol=1e-10)

    def test_noncentral_chi_two_dof_is_rice(self):
        # k = 2 matches the Rice density at sigma2 = 2 with the same shift
        rs = np.linspace(0.05, 6.0, 100)
        np.testing.assert_allclose(
            log_pdf_noncentral_chi(rs, 2.0, 1.1),
            log_pdf_rice(rs, 1.1, 2.0),
            rtol=0,
            atol=1e-10,
        )

    def test_noncentral_chi_is_poisson_chi_mixture(self):
        # mixture of chi densities with Poisson(nu^2/2) mixed dof
        from scipy.stats import chi, poisson

        k, nu = 3.0, 1.4
        ws = poisson.pmf(np.arange(120), nu * nu / 2.0)
        for r in (0.4, 1.2, 3.0):
            mix = float(np.sum(ws * chi.pdf(r, 2 * np.arange(120) + k)))
            assert math.isclose(
                mix, math.exp(log_pdf_noncentral_chi(r, k, nu)), rel_tol=1e-10
            )

    def test_chi_like_amplitude_is_distorted_mixture(self):
        # sigma2 = 2, alpha = k/2 amplitude law equals a chi mixture with the
        # distorted integer law as the mixing distribution
        from scipy.stats import chi

        k, nu = 3.0, 1.4
        amp = AmplitudeParams(nu=nu, sigma2=2.0, alpha=k / 2.0)
        probs = poisson_type_pmf_table(PoissonTypeParams(lam=nu * nu / 2.0, alpha=k / 2.0))
        for r in (0.4, 1.2, 3.0):
            mix = float(np.sum(probs * chi.pdf(r, 2 * np.arange(len(probs)) + k)))
            assert math.isclose(mix, math.exp(log_pdf_amplitude(r, amp)), rel_tol=1e-9)


class TestGridExport:
    def test_complex_rows_shape_and_values(self):
        p = ComplexParams(mu=0.2 + 0.1j, sigma2=1.0, alpha=1.5)
        rows = list(complex_density_rows(p, (-1.0, 1.0), (-1.0, 1.0), 5, 4))
        assert len(rows) == 20
        re, im, d = rows[7]
        assert math.isclose(d, math.exp(log_pdf_complex(complex(re, im), p)), rel_tol=1e-12)

    def test_complex_rows_mark_singular_origin(self):
        p = ComplexParams(mu=0.5, sigma2=1.0, alpha=0.5)
        rows = list(complex_density_rows(p, (-1.0, 1.0), (-1.0, 1.0), 3, 3))
        center = [d for re, im, d in rows if re == 0.0 and im == 0.0]
        assert len(center) == 1 and math.isnan(center[0])

    def test_scalar_rows(self):
        p = PowerParams(alpha=1.3, beta=1.0, lam=0.5)
        rows = list(scalar_density_rows("power", p, 0.1, 5.0, 50))
        assert len(rows) == 50
        x, d = rows[10]
        assert math.isclose(d, math.exp(log_pdf_power(x, p)), rel_tol=1e-12)
