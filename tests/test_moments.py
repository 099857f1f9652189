"""Moment formulas against quadrature, finite differences, and the
noncentral-gamma cumulant baseline."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from pwncg.distributions import PowerParams, log_pdf_noncentral_gamma, log_pdf_power
from pwncg.moments import (
    excess_kurtosis,
    kurtosis_sweep,
    mean_variance,
    ncgamma_cumulant,
    ncgamma_excess_kurtosis,
    raw_moment,
)
from pwncg.special import SeriesConvergenceError, log_laguerre_neg

GRID = [
    PowerParams(a, b, l)
    for a in (0.5, 1.0, 3.0)
    for b in (0.5, 1.0, 4.0)
    for l in (0.0, 1.0, 5.0)
]


def _quad_moment(n: int, p: PowerParams) -> float:
    # amplitude substitution x = r^2 removes the x^(alpha-1) endpoint
    # singularity; upper limit far beyond the relevant tail
    upper = math.sqrt(80.0 * (p.alpha + p.lam + n + 5.0) / p.beta)
    val, _ = quad(
        lambda r: (r * r) ** n * math.exp(log_pdf_power(r * r, p)) * 2.0 * r,
        1e-13,
        upper,
        limit=400,
    )
    return val


class TestRawMoment:
    def test_gamma_mean(self):
        assert math.isclose(raw_moment(1, PowerParams(2.0, 4.0, 0.0)), 0.5, rel_tol=1e-13)

    def test_mean_with_noncentrality(self):
        # at shape one the ratio of normalizers is 1 + lam
        assert math.isclose(raw_moment(1, PowerParams(1.0, 1.0, 2.0)), 3.0, rel_tol=1e-12)

    def test_against_quadrature_grid(self):
        for p in GRID:
            for n in (1, 2, 3, 4):
                closed = raw_moment(n, p)
                assert math.isclose(closed, _quad_moment(n, p), rel_tol=1e-7)

    def test_log_convex_in_order(self):
        for p in GRID:
            ms = [raw_moment(n, p) for n in (1, 2, 3, 4)]
            assert all(m > 0 for m in ms)
            for i in (1, 2):
                assert ms[i] ** 2 <= ms[i - 1] * ms[i + 1] * (1 + 1e-12)

    def test_requires_positive_order(self):
        with pytest.raises(ValueError):
            raw_moment(0, PowerParams(1.0, 1.0, 0.0))

    def test_noncentral_moments_against_mpmath(self):
        # The ratio of two large normalizer logs erred by up to 1.7e-9
        # relative at these shapes and noncentralities; the sum over the
        # mixing law's pmf table keeps 1e-13. At order 40 and lam = 3 the
        # table's tail would cost the sum 3e-10, and the log-domain form
        # serves. At order 40 and lam = 1000 the last weighted term is
        # 2.6e-16 of the sum, but the geometric bound of the tail is 1e-15
        # of it, so the sum serves; the log-domain form erred by 8e-13.
        points = [(1e4, 100.0), (1e6, 3.0), (3.0, 2000.0), (0.5, 1000.0), (1e-3, 5000.0), (0.7, 3.0)]
        cases = [(a, z, n) for a, z in points for n in (1, 2, 4)] + [
            (0.7, 3.0, 40), (1.5, 3.0, 40), (0.5, 1000.0, 40)
        ]
        for alpha, lam, n in cases:
            with mp.workdps(50):
                a, z = mp.mpf(alpha), mp.mpf(lam)
                ratio = mp.hyp1f1(a + n, 1, z) / mp.hyp1f1(a, 1, z)
                want = mp.rf(a, n) * ratio / mp.mpf(1.3) ** n
            got = raw_moment(n, PowerParams(alpha, 1.3, lam))
            assert math.isclose(got, float(want), rel_tol=1e-13), (alpha, lam, n)


def _laguerre_ratio(alpha: float, lam: float) -> float:
    """S(alpha + 1, lam) / S(alpha, lam), the factor by which the
    noncentrality inflates the gamma mean alpha / beta."""
    return math.exp(log_laguerre_neg(alpha + 1.0, lam) - log_laguerre_neg(alpha, lam))


class TestMeanVariance:
    def test_gamma_case(self):
        mean, var = mean_variance(PowerParams(2.0, 4.0, 0.0))
        assert math.isclose(mean, 0.5, rel_tol=1e-13)
        assert math.isclose(var, 0.125, rel_tol=1e-12)

    def test_noncentral_mean(self):
        mean, _ = mean_variance(PowerParams(1.0, 1.0, 2.0))
        assert math.isclose(mean, 3.0, rel_tol=1e-12)

    def test_shape_one_mean_closed_form(self):
        # at shape one the ratio of normalizers is 1 + lam
        for lam in (0.3, 1.0, 5.0, 20.0):
            mean, _ = mean_variance(PowerParams(1.0, 2.5, lam))
            assert math.isclose(mean, (1.0 + lam) / 2.5, rel_tol=1e-12)

    def test_mean_series_oracle(self):
        # frozen 200-term high-precision value of S(1.5, 3) / S(0.5, 3)
        mean, _ = mean_variance(PowerParams(0.5, 0.5, 3.0))
        assert math.isclose(mean, 5.7883997164938721156, rel_tol=1e-12)

    def test_mean_at_least_gamma_mean(self):
        for a in (0.3, 1.0, 4.0):
            for lam in (0.0, 0.5, 2.0, 10.0):
                mean, _ = mean_variance(PowerParams(a, 1.7, lam))
                assert mean >= (a / 1.7) * (1.0 - 1e-14)

    def test_against_mpmath_up_to_large_noncentrality(self):
        # 60-digit M1 and M2 - M1^2 from M_n = (a)_n 1F1(a+n; 1; lam) /
        # (beta^n 1F1(a; 1; lam)); in double precision M2 - M1^2 would lose
        # up to 1e-8 of the variance at lam = 4000
        beta = 1.3
        with mp.workdps(60):
            for a in (0.05, 0.5, 1.0, 2.0, 7.0, 50.0):
                for lam in (0.0, 0.01, 0.3, 3.0, 30.0, 300.0, 1000.0, 4000.0, 2e4, 1e5):
                    am, b = mp.mpf(a), mp.mpf(beta)
                    s0 = mp.hyp1f1(am, 1, lam)
                    m1 = am * mp.hyp1f1(am + 1, 1, lam) / (s0 * b)
                    m2 = am * (am + 1) * mp.hyp1f1(am + 2, 1, lam) / (s0 * b * b)
                    mean, var = mean_variance(PowerParams(a, beta, lam))
                    assert math.isclose(mean, float(m1), rel_tol=1e-13), (a, lam)
                    assert math.isclose(var, float(m2 - m1 * m1), rel_tol=1e-13), (a, lam)

    def test_variance_derivative_form(self):
        # V = (alpha/beta^2) (lam dR/dlam + R) with a central difference
        for a in (0.5, 1.0, 2.0, 4.0):
            for lam in (0.1, 1.0, 3.0, 8.0):
                p = PowerParams(a, 1.3, lam)
                _, var = mean_variance(p)
                h = 1e-5 * max(1.0, lam)
                drdl = (_laguerre_ratio(a, lam + h) - _laguerre_ratio(a, lam - h)) / (2 * h)
                alt = (a / p.beta**2) * (lam * drdl + _laguerre_ratio(a, lam))
                assert math.isclose(var, alt, rel_tol=1e-6)


class TestExcessKurtosis:
    def test_exponential_point(self):
        # the zero-noncentrality, shape-one case has excess kurtosis 6
        assert abs(excess_kurtosis(PowerParams(1.0, 1.0, 0.0)) - 6.0) <= 1e-9

    def test_gamma_family(self):
        for m in (0.5, 1.0, 2.0, 4.0):
            assert math.isclose(
                excess_kurtosis(PowerParams(m, 1.7, 0.0)), 6.0 / m, rel_tol=1e-9
            )

    def test_frozen_values(self):
        assert math.isclose(
            excess_kurtosis(PowerParams(0.5, 1.0, 2.0)), 3.4020101712687342349, rel_tol=1e-10
        )
        assert math.isclose(
            excess_kurtosis(PowerParams(2.0, 1.0, 1.0)), 1.8448753462603878116, rel_tol=1e-10
        )

    def test_matches_ncgamma_at_shape_one(self):
        for lam in (0.0, 1.0, 2.0, 5.0):
            p = PowerParams(1.0, 1.0, lam)
            assert math.isclose(
                excess_kurtosis(p), ncgamma_excess_kurtosis(p), rel_tol=1e-8
            )

    def test_regime_ordering(self):
        for lam in (0.0, 1.0, 2.0, 5.0):
            lo = PowerParams(0.5, 1.0, lam)
            hi = PowerParams(2.0, 1.0, lam)
            assert excess_kurtosis(lo) >= ncgamma_excess_kurtosis(lo) - 1e-12
            assert excess_kurtosis(hi) <= ncgamma_excess_kurtosis(hi) + 1e-12

    def test_scale_invariant(self):
        a = excess_kurtosis(PowerParams(1.4, 1.0, 2.2))
        b = excess_kurtosis(PowerParams(1.4, 7.0, 2.2))
        assert math.isclose(a, b, rel_tol=1e-10)

    def test_beyond_series_reach_raises(self):
        with pytest.raises(SeriesConvergenceError):
            excess_kurtosis(PowerParams(1.0, 1.0, 1e7))

    def test_against_mpmath_up_to_large_noncentrality(self):
        # 60-digit raw moments M_n = (a)_n 1F1(a+n; 1; lam) / 1F1(a; 1; lam)
        # at beta = 1; in double precision their cumulant combination
        # loses up to a fifth of the value at lam = 4000
        with mp.workdps(60):
            for a in (0.05, 0.5, 1.0, 2.0, 7.0, 50.0):
                for lam in (0.0, 0.01, 0.3, 3.0, 30.0, 300.0, 1000.0, 4000.0):
                    am = mp.mpf(a)  # a + n in float would round
                    s0 = mp.hyp1f1(am, 1, lam)
                    m1, m2, m3, m4 = (
                        mp.rf(am, n) * mp.hyp1f1(am + n, 1, lam) / s0 for n in (1, 2, 3, 4)
                    )
                    k2 = m2 - m1**2
                    k4 = m4 - 4 * m1 * m3 - 3 * m2**2 + 12 * m1**2 * m2 - 6 * m1**4
                    got = excess_kurtosis(PowerParams(a, 1.3, lam))
                    assert math.isclose(got, float(k4 / k2**2), rel_tol=1e-10), (a, lam)


class TestNcgammaCumulant:
    def test_direct_substitution(self):
        assert ncgamma_cumulant(1, PowerParams(2.0, 1.0, 3.0)) == pytest.approx(5.0)
        assert ncgamma_cumulant(2, PowerParams(1.0, 2.0, 0.0)) == pytest.approx(0.25)

    def test_fourth_cumulant_vs_quadrature(self):
        p = PowerParams(1.6, 1.2, 2.3)

        def moment(n):
            upper = math.sqrt(80.0 * (p.alpha + p.lam + n + 5.0) / p.beta)
            val, _ = quad(
                lambda r: (r * r) ** n
                * math.exp(log_pdf_noncentral_gamma(r * r, p.alpha, p.beta, p.lam))
                * 2.0
                * r,
                1e-13,
                upper,
                limit=400,
            )
            return val

        m1, m2, m3, m4 = (moment(n) for n in (1, 2, 3, 4))
        k4 = m4 - 4 * m1 * m3 - 3 * m2 * m2 + 12 * m1 * m1 * m2 - 6 * m1**4
        assert math.isclose(k4, ncgamma_cumulant(4, p), rel_tol=1e-6)
        k2 = m2 - m1 * m1
        assert math.isclose(k2, ncgamma_cumulant(2, p), rel_tol=1e-6)


class TestKurtosisSweep:
    def test_rows_and_crossing_structure(self):
        rows = list(kurtosis_sweep(np.linspace(0.0, 10.0, 21), (0.5, 1.0, 2.0)))
        assert len(rows) == 63
        for lam, alpha, g_prop, g_ncg in rows:
            if alpha == 0.5:
                assert g_prop >= g_ncg - 1e-12
            elif alpha == 1.0:
                assert math.isclose(g_prop, g_ncg, rel_tol=1e-8)
            else:
                assert g_prop <= g_ncg + 1e-12


class TestExtremeRates:
    """The rate only scales the moments: where a scaled moment leaves the
    float range it is inf or 0.0, never a raw ZeroDivisionError or
    OverflowError, and the beta-free kurtoses do not see the rate at all."""

    RATES = (1e-300, 1e-200, 1e-170, 1e-80, 1e80, 1e155, 1e200, 1e300)

    def test_ncgamma_kurtosis_is_free_of_the_rate(self):
        for alpha, lam in [(0.5, 0.0), (1.5, 3.0), (2.0, 1000.0)]:
            at_one = ncgamma_excess_kurtosis(PowerParams(alpha, 1.0, lam))
            assert at_one == 6.0 * (alpha + 4.0 * lam) / (alpha + 2.0 * lam) ** 2
            for beta in self.RATES:
                assert ncgamma_excess_kurtosis(PowerParams(alpha, beta, lam)) == at_one, beta

    def test_mean_variance(self):
        p1 = PowerParams(1.5, 1.0, 3.0)
        mean1, var1 = mean_variance(p1)
        for beta in self.RATES:
            mean, var = mean_variance(PowerParams(1.5, beta, 3.0))
            assert mean == mean1 / beta, beta
            if beta * beta == 0.0:
                assert var == math.inf, beta
            elif math.isinf(beta * beta):
                assert 0.0 <= var < 1e-300, beta
            else:
                assert math.isclose(var, var1 / beta**2, rel_tol=1e-15), beta

    def test_raw_moment(self):
        p1 = PowerParams(1.5, 1.0, 3.0)
        assert raw_moment(4, PowerParams(1.5, 1e-200, 3.0)) == math.inf
        assert raw_moment(4, PowerParams(1.5, 1e200, 3.0)) == 0.0
        assert raw_moment(400, p1) == math.inf
        got = raw_moment(2, PowerParams(1.5, 1e-80, 3.0))
        assert math.isclose(got, raw_moment(2, p1) * 1e160, rel_tol=1e-12)

    def test_ncgamma_cumulant(self):
        p1 = PowerParams(1.5, 1.0, 3.0)
        assert ncgamma_cumulant(4, PowerParams(1.5, 1e-80, 3.0)) == math.inf
        assert 0.0 <= ncgamma_cumulant(4, PowerParams(1.5, 1e80, 3.0)) < 1e-300
        got = ncgamma_cumulant(2, PowerParams(1.5, 1e80, 3.0))
        assert math.isclose(got, ncgamma_cumulant(2, p1) * 1e-160, rel_tol=1e-15)


class TestExtremeShapes:
    """Orders and shapes where a factor of a moment leaves the float range:
    inf, 0.0 or the accurate value, never a raw error, a NaN or a warning."""

    def test_cumulant_of_an_order_past_the_factorial_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ncgamma_cumulant(200, PowerParams(1.5, 1.0, 3.0)) == math.inf
            assert ncgamma_cumulant(200, PowerParams(1.5, 1e300, 3.0)) == 0.0
            got = ncgamma_cumulant(200, PowerParams(1.5, 10.0, 3.0))
        want = mp.factorial(199) * mp.mpf(601.5) / mp.mpf(10) ** 200
        assert math.isclose(got, float(want), rel_tol=1e-15)

    def test_mean_at_the_largest_shapes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = raw_moment(1, PowerParams(1e308, 1.0, 0.0))
        assert math.isclose(got, 1e308, rel_tol=1e-13)

    def test_moment_past_the_float_range_is_inf(self):
        # the gammaln difference cancels to 0 at alpha = 1e200; the value
        # alpha (alpha + 1) = 1e400 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert raw_moment(2, PowerParams(1e200, 1.0, 0.0)) == math.inf
            got = raw_moment(2, PowerParams(1e150, 1.0, 0.0))
        assert math.isclose(got, 1e300 + 1e150, rel_tol=1e-13)
        for alpha in (1001.0, 2000.0, 1e6, 1e15):
            for n in (1, 2, 4):
                with mp.workdps(60):
                    want = mp.rf(mp.mpf(alpha), n) / mp.mpf(1.3) ** n
                got = raw_moment(n, PowerParams(alpha, 1.3, 0.0))
                assert math.isclose(got, float(want), rel_tol=1e-13), (alpha, n)

    def test_ncgamma_kurtosis_where_the_squared_shape_leaves_the_range(self):
        for alpha, want in [(1e200, 6e-200), (1e-200, 6e200), (1e-320, math.inf)]:
            assert ncgamma_excess_kurtosis(PowerParams(alpha, 1.0, 0.0)) == want, alpha
        got = ncgamma_excess_kurtosis(PowerParams(1e160, 1.0, 1e160))
        assert math.isclose(got, 30.0 / 9.0 * 1e-160, rel_tol=1e-15)
