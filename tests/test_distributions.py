"""Density identities: normalization, marginalization, reductions, and the
distorted-Poisson / gamma-mixture structure."""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import vonmises

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
    log_pdf_nakagami,
    log_pdf_noncentral_gamma,
    log_pdf_power,
    log_pdf_rice,
    log_pmf_poisson_type,
    scalar_density_rows,
)
from pwncg.fitting import MODELS
from pwncg.sampling import poisson_type_pmf_table
from pwncg.special import SeriesConvergenceError

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

    def test_rate_or_noncentrality_past_the_float_range(self):
        # 1/sigma2 or |mu|^2/sigma2 overflows: |mu|^2 itself, the quotient,
        # |mu| of a finite complex mu, or the rate of a subnormal sigma2.
        too_far = [(1e200, 1.0), (1e150, 1e-100), (1e308 + 1e308j, 1.0), (0.0, 1e-320)]
        for mu, sigma2 in too_far:
            with pytest.raises(ValueError, match=r"^mu = .* and sigma2 = .* outside the float"):
                ComplexParams(mu=mu, sigma2=sigma2, alpha=1.0)
        for nu, sigma2 in [(1e200, 1.0), (1e150, 1e-100), (0.0, 1e-320)]:
            with pytest.raises(ValueError, match=r"^nu = .* and sigma2 = .* outside the float"):
                AmplitudeParams(nu=nu, sigma2=sigma2, alpha=1.0)
        # Just inside the range both laws are built, and reach the power axis.
        p = ComplexParams(mu=1e150, sigma2=1e-7, alpha=1.0).power_params()
        assert p.lam == 1e307 and p.beta == 1e7
        assert AmplitudeParams(nu=0.0, sigma2=1e-308, alpha=1.0).power_params().beta == 1e308


class TestPhaseConditional:
    def test_joint_factorizes(self):
        # p(r, theta) = r p(r e^{i theta}) = p(r) p(theta | r), where the
        # phase given the amplitude is von Mises about angle(mu) with
        # concentration 2 |mu| r / sigma2 (the law sample_complex draws from)
        mu = 0.8 * cmath.exp(1j * 1.1)
        p = ComplexParams(mu=mu, sigma2=0.7, alpha=1.6)
        amp = p.amplitude_params()
        for r, th in [(0.5, 0.2), (1.4, -2.0), (2.2, 3.0)]:
            joint = log_pdf_complex(r * cmath.exp(1j * th), p) + math.log(r)
            kappa = 2.0 * abs(mu) * r / p.sigma2
            split = log_pdf_amplitude(r, amp) + vonmises.logpdf(th, kappa, loc=cmath.phase(mu))
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
                lambda th: math.exp(log_pdf_complex(r * cmath.exp(1j * th), p) + math.log(r)),
                -math.pi,
                math.pi,
            )
            assert abs(integral - math.exp(log_pdf_amplitude(r, amp))) <= 1e-8

    def test_normalization(self):
        p = AmplitudeParams(nu=1.1, sigma2=0.4, alpha=3.0)
        val, _ = quad(lambda r: math.exp(log_pdf_amplitude(r, p)), 0.0, 30.0, limit=200)
        assert abs(val - 1.0) < 1e-9


class TestPowerDensity:
    def test_normalizer_beyond_reach_raises(self):
        # the normalizer's term mode, near lam, lies past 2**63 here
        p = PowerParams(alpha=1.0, beta=1.0, lam=1e20)
        with pytest.raises(SeriesConvergenceError):
            log_pdf_power(np.array([1.0]), p)
        with pytest.raises(SeriesConvergenceError):
            poisson_type_pmf_table(PoissonTypeParams(lam=1e20, alpha=1.0))

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

    def test_rejects_non_finite_values(self, recwarn):
        p = PoissonTypeParams(lam=1.0, alpha=1.0)
        for n in (math.inf, -math.inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="n must be finite"):
                log_pmf_poisson_type(n, p)
        assert not recwarn.list

    def test_large_values_match_log_gamma_formula(self, recwarn):
        # n is checked and evaluated as a float, with no integer cast, so
        # integer-valued floats past 2**63 are in the support
        alpha, lam = 2.5, 3.0
        p = PoissonTypeParams(lam=lam, alpha=alpha)
        with mp.workdps(50):
            log_s = mp.log(mp.hyp1f1(alpha, 1, lam))
            for n in (2.0**62, 2.0**63, 1e19, 1e30):
                k = mp.mpf(n)
                ref = float(
                    mp.loggamma(alpha + k) - mp.loggamma(alpha) + k * mp.log(lam)
                    - 2 * mp.loggamma(k + 1) - log_s
                )
                assert math.isclose(log_pmf_poisson_type(n, p), ref, rel_tol=1e-14), n
        both = log_pmf_poisson_type(np.array([0.0, 2.0**63, 1e30]), p)
        assert both[1] == log_pmf_poisson_type(2.0**63, p)
        ints = np.array([0, 5, 2**62], dtype=np.int64)
        assert np.array_equal(log_pmf_poisson_type(ints, p), log_pmf_poisson_type(ints * 1.0, p))
        assert not recwarn.list


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

    # ln p of the noncentral gamma density at (x, alpha, beta, lam), from
    # mpmath at 60 digits, with I_{alpha-1} summed as its 0F1 series
    NONCENTRAL_GAMMA_EDGES = {
        # beta lam x underflows to 0, so the Bessel argument is 0
        (1e-10, 2.0, 1.0, 1e-320): -23.025850930040455,
        (1e-10, 0.5, 1.0, 1e-320): 10.940560521945528,
        # alpha <= 2^-54, so alpha - 1 rounds to -1.0; at x = 1e-12,
        # I_{alpha-1} differs from I_1 by 1e-5 relative
        (0.5, 1e-17, 1.0, 1.0): -1.259626967278377,
        (2.0, 1e-17, 1.0, 1.0): -2.126686458716363,
        (1e-12, 1e-17, 1.0, 1.0): -0.9999900000505,
        # both
        (1e-10, 1e-17, 1.0, 1e-320): -16.11809565105832,
        # beta lam is subnormal (1e-320 and 1e-315), of which
        # 2 sqrt((beta lam) x) would keep a few bits (mpmath's besseli at
        # 50 digits)
        (1.0, 2.0, 1e-160, 1e-160): -736.8272297580946,
        (2.0, 2.0, 1e-160, 1e-160): -736.1340825775346,
        (1000.0, 2.0, 1e-160, 1e-160): -729.9194744791125,
        (1.0, 0.5, 1e-160, 1e-160): -184.77917238244837,
        (2.0, 0.5, 1e-160, 1e-160): -185.12574597272834,
        (1000.0, 0.5, 1e-160, 1e-160): -188.23305002193942,
        (1.0, 2.0, 1e-200, 1e-115): -921.0340371976183,
        (2.0, 2.0, 1e-200, 1e-115): -920.3408900170583,
        (1000.0, 2.0, 1e-200, 1e-115): -914.1262819186361,
    }

    def test_noncentral_gamma_edges_against_mpmath(self):
        for (x, alpha, beta, lam), ref in self.NONCENTRAL_GAMMA_EDGES.items():
            got = log_pdf_noncentral_gamma(x, alpha, beta, lam)
            assert abs(got - ref) <= 1e-12 * abs(ref), (x, alpha, ref)
            model = MODELS["noncentral_gamma"]
            ll = model.log_likelihood([x], {"alpha": alpha, "beta": beta, "lambda": lam})
            assert ll == got

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

    def test_complex_grid_matches_pointwise(self):
        # the grid is one density call; each row equals its point's own call
        p = ComplexParams(mu=0.3 - 0.2j, sigma2=0.7, alpha=0.6)
        rows = list(complex_density_rows(p, (-1.0, 1.0), (-0.5, 1.0), 5, 7))
        assert [(re, im) for re, im, _ in rows[:6]] == [
            (-1.0, -0.5), (-0.5, -0.5), (0.0, -0.5), (0.5, -0.5), (1.0, -0.5), (-1.0, -0.25)
        ]
        for re, im, d in rows:
            if re == 0.0 and im == 0.0:
                assert math.isnan(d)
            else:
                assert d == np.exp(log_pdf_complex(np.array([complex(re, im)]), p))[0]

    def test_grids_are_arrays_checked_when_called(self):
        p = PowerParams(alpha=1.3, beta=1.0, lam=0.5)
        grid = scalar_density_rows("power", p, 0.1, 5.0, 50)
        assert isinstance(grid, np.ndarray) and grid.shape == (50, 2)
        c = ComplexParams(mu=0.2 + 0.1j, sigma2=1.0, alpha=1.5)
        grid = complex_density_rows(c, (-1.0, 1.0), (-1.0, 1.0), 5, 4)
        assert isinstance(grid, np.ndarray) and grid.shape == (20, 3)
        with pytest.raises(ValueError, match="positive value"):
            scalar_density_rows("power", p, 0.0, 1.0, 5)
        with pytest.raises(ValueError, match="unknown density kind"):
            scalar_density_rows("phase", p, 0.1, 1.0, 5)

    def test_scalar_rows(self):
        p = PowerParams(alpha=1.3, beta=1.0, lam=0.5)
        rows = list(scalar_density_rows("power", p, 0.1, 5.0, 50))
        assert len(rows) == 50
        x, d = rows[10]
        assert math.isclose(d, math.exp(log_pdf_power(x, p)), rel_tol=1e-12)
