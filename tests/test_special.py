"""Special-function accuracy against high-precision and closed-form oracles."""

import inspect
import math
import tracemalloc
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ive

from pwncg import special
from pwncg.distributions import log_pdf_noncentral_gamma
from pwncg.special import (
    _IV_SERIES_CUTOFF,
    I0_SERIES_CUTOFF,
    SeriesConvergenceError,
    _confluent_rows,
    _confluent_weights,
    _log_bessel_i_nu_grad,
    _log_laguerre_neg_grad,
    _window_rows,
    log_bessel_i0,
    log_bessel_i_nu,
    log_laguerre_neg,
    log_laguerre_pos_arg,
)

mp.mp.dps = 40

# Oracle property tests: reproducible example streams, no per-example
# deadline (one mpmath reference at lambda = 5000 takes up to ~0.1 s).
oracle = settings(max_examples=60, deadline=None, derandomize=True)


def _ref_log_i0(x: float) -> float:
    return float(mp.log(mp.besseli(0, mp.mpf(x))))


def _ref_log_iv(nu: float, x: float) -> float:
    return float(mp.log(mp.besseli(mp.mpf(nu), mp.mpf(x))))


def _ref_log_laguerre_neg(alpha: float, lam: float) -> float:
    return float(mp.log(mp.hyp1f1(mp.mpf(alpha), 1, mp.mpf(lam))))


# alpha log-uniform over the fit box [1e-3, 1e3]
alphas = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)

# (nu, x) above _IV_SERIES_CUTOFF where scipy's ive underflows to 0: its
# boundary runs from x = 59 at nu = 400 to x = 623 at nu = 1000, and x is
# drawn below 30 + (nu - 400)^2 / 700, which stays under it.
ive_underflow = st.tuples(
    st.floats(min_value=400.0, max_value=1000.0), st.floats(min_value=0.0, max_value=1.0)
).map(lambda t: (t[0], _IV_SERIES_CUTOFF + t[1] * (t[0] - 400.0) ** 2 / 700.0))


class TestLogBesselI0:
    def test_zero(self):
        assert log_bessel_i0(0.0) == 0.0

    def test_series_value(self):
        # ln I0(1); power-series oracle summed to machine precision
        assert math.isclose(log_bessel_i0(1.0), 0.23591435850717864869, rel_tol=1e-13)

    def test_large_argument(self):
        # direct series overflows here; high-precision oracle value
        assert math.isclose(log_bessel_i0(700.0), 695.80569999844344908, rel_tol=1e-13)

    def test_no_overflow_to_1e6(self):
        val = log_bessel_i0(1e6)
        assert math.isfinite(val)
        approx = 1e6 - 0.5 * math.log(2.0 * math.pi * 1e6)
        assert abs(val - approx) < 1.0

    def test_wide_range_against_mpmath(self):
        for x in [1e-8, 0.01, 0.5, 3.0, 10.0, 24.9, 25.1, 60.0, 300.0, 1e4]:
            ref = float(mp.log(mp.besseli(0, mp.mpf(x))))
            assert abs(log_bessel_i0(x) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_against_mpmath_across_cutoff(self):
        # a single kernel on both sides of I0_SERIES_CUTOFF
        xs = np.linspace(I0_SERIES_CUTOFF - 1.0, I0_SERIES_CUTOFF + 1.0, 41)
        for x, got in zip(xs, log_bessel_i0(xs)):
            ref = _ref_log_i0(float(x))
            assert abs(got - ref) <= 1e-15 * max(1.0, abs(ref)), x

    @oracle
    @given(st.floats(min_value=0.0, max_value=1e6))
    def test_property_against_mpmath(self, x):
        ref = _ref_log_i0(x)
        assert abs(log_bessel_i0(x) - ref) <= 1e-15 * max(1.0, abs(ref))

    @oracle
    @given(st.floats(min_value=20.0, max_value=30.0))
    def test_property_against_mpmath_20_to_30(self, x):
        ref = _ref_log_i0(x)
        assert abs(log_bessel_i0(x) - ref) <= 1e-15 * max(1.0, abs(ref))

    def test_vectorized_matches_scalar(self):
        # term counts are chosen per batch, so agreement is to rounding,
        # not bitwise
        xs = np.array([0.0, 0.7, 12.0, 25.0, 400.0])
        vec = log_bessel_i0(xs)
        for x, v in zip(xs, vec):
            assert math.isclose(v, log_bessel_i0(float(x)), rel_tol=1e-13, abs_tol=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_i0(-0.1)
        with pytest.raises(ValueError):
            log_bessel_i0(math.inf)


class TestLogBesselINu:
    def test_order_zero_consistency(self):
        assert math.isclose(log_bessel_i_nu(0.0, 2.0), log_bessel_i0(2.0), rel_tol=1e-13)

    def test_half_order_closed_form(self):
        # I_{1/2}(x) = sqrt(2/(pi x)) sinh(x)
        ref = math.log(math.sqrt(2.0 / math.pi) * math.sinh(1.0))
        assert math.isclose(log_bessel_i_nu(0.5, 1.0), ref, rel_tol=1e-13)

    def test_at_zero(self):
        assert log_bessel_i_nu(2.0, 0.0) == -math.inf
        assert log_bessel_i_nu(0.0, 0.0) == 0.0
        assert log_bessel_i_nu(-0.5, 0.0) == math.inf

    def test_against_mpmath_grid(self):
        for nu in (-0.999, -0.7, -0.5, 0.3, 1.0, 4.5, 30.0, 999.0):
            for x in (0.01, 1.0, 10.0, 29.9, 35.0, 1000.0):
                ref = float(mp.log(mp.besseli(nu, mp.mpf(x))))
                got = log_bessel_i_nu(nu, x)
                assert abs(got - ref) <= 5e-12 * max(1.0, abs(ref)), (nu, x)

    def test_underflow_region_falls_back_to_series(self):
        # scipy ive underflows here (nu much larger than x)
        ref = float(mp.log(mp.besseli(400, mp.mpf(30.0))))
        assert math.isclose(log_bessel_i_nu(400.0, 30.0), ref, rel_tol=1e-12)

    @oracle
    @given(
        st.floats(min_value=-1.0, max_value=1000.0, exclude_min=True),
        st.floats(min_value=0.0, max_value=_IV_SERIES_CUTOFF, exclude_min=True, exclude_max=True),
    )
    def test_property_series_path_against_mpmath(self, nu, x):
        ref = _ref_log_iv(nu, x)
        got = log_bessel_i_nu(nu, x)
        assert abs(got - ref) <= 5e-12 * max(1.0, abs(ref)), (nu, x)

    @oracle
    @given(
        st.floats(min_value=-1.0, max_value=1000.0, exclude_min=True),
        st.floats(min_value=_IV_SERIES_CUTOFF, max_value=1e4),
    )
    def test_property_above_cutoff_against_mpmath(self, nu, x):
        ref = _ref_log_iv(nu, x)
        got = log_bessel_i_nu(nu, x)
        assert abs(got - ref) <= 5e-12 * max(1.0, abs(ref)), (nu, x)

    @oracle
    @given(ive_underflow)
    def test_property_ive_underflow_against_mpmath(self, case):
        # the log-domain series fallback, which sums the terms with the
        # confluent normalizer's window kernel
        nu, x = case
        assert ive(nu, x) == 0.0
        ref = _ref_log_iv(nu, x)
        got = log_bessel_i_nu(nu, x)
        assert abs(got - ref) <= 5e-12 * max(1.0, abs(ref)), (nu, x)

    @oracle
    @given(
        st.floats(min_value=-1.0, max_value=1000.0, exclude_min=True),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_property_across_ive_limit_against_mpmath(self, nu, e):
        # ive is finite below 2**30 and NaN from it on, where the
        # large-argument expansion takes over; value, d/dnu and x d/dx
        x = 2.0 ** (30.0 + e)
        got = _log_bessel_i_nu_grad(np.array([nu]), np.array([[x]]))[:, 0, 0]
        n, xm = mp.mpf(nu), mp.mpf(x)
        ref = mp.log(mp.besseli(n, xm))
        ref_dnu = mp.diff(lambda v: mp.log(mp.besseli(v, xm)), n)
        ref_xdx = xm * mp.besseli(n + 1, xm) / mp.besseli(n, xm) + n
        assert abs(got[0] - float(ref)) <= 1e-15 * float(ref), (nu, x)
        assert abs(got[1] - float(ref_dnu)) <= 1e-9, (nu, x)
        assert abs(got[2] - float(ref_xdx)) <= 1e-14 * float(ref_xdx), (nu, x)
        assert log_bessel_i_nu(nu, x) == got[0]

    def test_noncentral_gamma_past_the_ive_limit(self):
        # at x = 1, alpha = 1.5, beta = 1 the Bessel argument 2 sqrt(lam)
        # is 1.005 * 2**30
        lam = 1.01 * 2.0**58
        got = log_pdf_noncentral_gamma(1.0, 1.5, 1.0, lam)
        lm = mp.mpf(lam)
        ref = -lm - mp.log(lm) / 4 - 1 + mp.log(mp.besseli(0.5, 2 * mp.sqrt(lm)))
        assert math.isfinite(got)
        assert abs(got - float(ref)) <= 1e-15 * abs(float(ref))

    def test_series_path_matches_elementwise(self):
        # a call of series arguments alone and one with a zero and an ive
        # argument beside them give the same values
        xs = np.array([1e-300, 0.3, 7.0, 29.0])
        both = log_bessel_i_nu(2.5, np.append(xs, [0.0, 40.0]))
        np.testing.assert_array_equal(log_bessel_i_nu(2.5, xs), both[:4])
        assert both[4] == -math.inf

    def test_mixed_call_matches_elementwise(self):
        # zero, subnormal, series, ive and ive-underflow arguments in one
        # call, each as it is alone
        rng = np.random.default_rng(5)
        nu = 450.0
        xs = np.concatenate(
            [
                [0.0, 0.0, 5e-324, 1e-310, 2e-308],
                rng.uniform(1e-3, _IV_SERIES_CUTOFF, 80),
                rng.uniform(_IV_SERIES_CUTOFF, 33.0, 40),
                np.exp(rng.uniform(math.log(100.0), math.log(3000.0), 80)),
            ]
        )
        rng.shuffle(xs)
        assert (ive(nu, xs[xs >= _IV_SERIES_CUTOFF]) == 0.0).sum() >= 40
        together = log_bessel_i_nu(nu, xs)
        alone = np.array([log_bessel_i_nu(nu, x) for x in xs])
        assert np.isneginf(together[xs == 0.0]).all()
        np.testing.assert_allclose(together, alone, rtol=1e-14, atol=0.0)

    def test_large_call_allocates_little(self):
        # the rows go through the series in small blocks, not as one
        # terms x values array
        rng = np.random.default_rng(6)
        xs = 2.0 * np.sqrt(rng.gamma(1.5, 10.0, 100_000))
        tracemalloc.start()
        try:
            log_bessel_i_nu(0.5, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_non_convergence_raises(self, monkeypatch):
        # ive underflows here, and the log-domain series needs more terms
        monkeypatch.setattr(special, "_MAX_TERMS", 5)
        with pytest.raises(SeriesConvergenceError, match="nu=400.0, x=30.0"):
            log_bessel_i_nu(400.0, 30.0)
        with pytest.raises(SeriesConvergenceError):
            log_bessel_i_nu(400.0, np.array([0.0, 1.0, 30.0, 50.0]))

    def test_term_mode_past_int64_raises(self):
        # ive fails here, the large-argument expansion does not converge
        # (nu^2 is comparable to x), and the log-domain series' term mode
        # (about 5e19) lies past 2**63 and far past its term budget
        with pytest.raises(SeriesConvergenceError, match="x=1e\\+20"):
            log_bessel_i_nu(1e11, 1e20)

    def test_subnormal_argument(self):
        # x / 2 underflows to 0 here; the leading series term is exact
        for nu in (-0.5, 1.0, 30.0):
            ref = _ref_log_iv(nu, 5e-324)
            got = log_bessel_i_nu(nu, 5e-324)
            assert abs(got - ref) <= 1e-14 * abs(ref), nu

    def test_empty_array(self):
        assert log_bessel_i_nu(1.0, np.array([])).shape == (0,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_bessel_i_nu(-1.0, 1.0)
        with pytest.raises(ValueError):
            log_bessel_i_nu(0.5, -1.0)
        with pytest.raises(ValueError, match="finite"):
            log_bessel_i_nu(0.5, np.array([1.0, math.nan]))
        with pytest.raises(ValueError, match="finite"):
            log_bessel_i_nu(0.5, np.array([1.0, -math.inf]))


class TestLogLaguerreNeg:
    def test_at_zero_is_exact(self):
        assert log_laguerre_neg(2.3, 0.0) == 0.0

    def test_exponential_identity(self):
        # the alpha = 1 series is exp(lam)
        assert math.isclose(log_laguerre_neg(1.0, 2.0), 2.0, rel_tol=1e-14)

    def test_poisson_anchor_grid(self):
        for lam in np.linspace(0.0, 100.0, 21):
            got = log_laguerre_neg(1.0, float(lam))
            assert abs(got - lam) <= 1e-12 * max(1.0, lam)

    def test_series_oracle(self):
        # 200-term high-precision partial sum for alpha = 0.5, lam = 3
        assert math.isclose(
            log_laguerre_neg(0.5, 3.0), 1.9987873677156162154, rel_tol=1e-13
        )

    def test_mpmath_grid(self):
        for a in (0.3, 0.5, 1.0, 2.0, 5.0, 40.0):
            for lam in (0.1, 1.0, 10.0, 50.0, 300.0):
                ref = float(mp.log(mp.hyp1f1(a, 1, lam)))
                got = log_laguerre_neg(a, lam)
                assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_monotone_in_lam(self):
        for a in (0.3, 1.0, 4.0):
            vals = [log_laguerre_neg(a, lam) for lam in np.linspace(0.0, 30.0, 40)]
            assert all(b > c for b, c in zip(vals[1:], vals[:-1]))

    def test_converges_up_to_the_term_budget(self):
        # the term mode is near lam + alpha - 1, inside the 200 000-term
        # budget; the alpha = 1 series is exp(lam)
        with mp.workdps(40):
            for lam in (2e4, 1e5, 1.9e5):
                assert math.isclose(log_laguerre_neg(1.0, lam), lam, rel_tol=1e-14)
                for a in (0.5, 3.0):
                    ref = float(mp.log(mp.hyp1f1(a, 1, lam)))
                    assert math.isclose(log_laguerre_neg(a, lam), ref, rel_tol=1e-14), (a, lam)

    def test_non_convergence_raises(self):
        # the term mode is near lam + alpha - 1, past the 200 000-term
        # budget; from lam = 1e19 on it is also past 2**63, where a window
        # bound cast to int64 would wrap
        for lam in (3e5, 1e19, 1e20, 1e300):
            with pytest.raises(SeriesConvergenceError, match="within 200000 terms"):
                log_laguerre_neg(1.0, lam)

    def test_short_term_budget_returns_none(self, monkeypatch):
        # the term mode is near lam + alpha - 1, so the budget falls short
        with monkeypatch.context() as m:
            m.setattr(special, "_MAX_TERMS", 20)
            for lam in (4.95, 40.0):
                assert _confluent_weights(30.0, lam) is None
        assert _confluent_weights(1.0, 1e20) is None

    def test_window_series_take_no_truncation_knobs(self):
        # every window series is truncated by _REL_TOL and _MAX_TERMS alone
        assert list(inspect.signature(_window_rows).parameters) == ["ratios", "log_head", "mode"]
        for fn in (_confluent_rows, _confluent_weights):
            assert list(inspect.signature(fn).parameters) == ["alpha", "lam"]

    def test_window_terms_match_mpmath(self):
        # ln t_n = ln (alpha)_n + n ln lam - 2 ln n! of every term in the
        # window, from the weights t_n / S and ln S; a running product of n
        # ratios may drift by n rounding steps of its largest log term
        for alpha, lam in [(1e-3, 5.0), (0.5, 40.0), (3.0, 700.0), (1e3, 2000.0)]:
            weights = _confluent_weights(alpha, lam)
            n = np.flatnonzero(weights)
            got = np.log(weights[n]) + log_laguerre_neg(alpha, lam)
            a, x = mp.mpf(alpha), mp.mpf(lam)
            ref = np.array(
                [
                    float(mp.loggamma(a + k) - mp.loggamma(a) + k * mp.log(x) - 2 * mp.loggamma(k + 1))
                    for k in n
                ]
            )
            drift = n.size * np.finfo(float).eps * max(1.0, float(np.max(np.abs(ref))))
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=drift)

    @oracle
    @given(alphas, st.floats(min_value=0.0, max_value=5.0, exclude_max=True))
    def test_property_small_lam_against_mpmath(self, alpha, lam):
        ref = _ref_log_laguerre_neg(alpha, lam)
        got = log_laguerre_neg(alpha, lam)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (alpha, lam)

    @oracle
    @given(alphas, st.floats(min_value=5.0, max_value=5000.0))
    def test_property_window_path_against_mpmath(self, alpha, lam):
        ref = _ref_log_laguerre_neg(alpha, lam)
        got = log_laguerre_neg(alpha, lam)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (alpha, lam)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_laguerre_neg(0.0, 1.0)
        with pytest.raises(ValueError):
            log_laguerre_neg(1.0, -0.5)


class TestLogLaguerrePosArg:
    def test_degree_zero_is_constant_one(self):
        assert log_laguerre_pos_arg(1.0, 0.7) == pytest.approx(0.0, abs=1e-14)

    def test_at_zero(self):
        assert log_laguerre_pos_arg(2.0, 0.0) == 0.0

    def test_kummer_transform_matches_direct_expansion(self):
        # Independent oracle: the alternating series for 1F1(1-alpha; 1; -lam),
        # stable at small lam, and mpmath beyond.
        for alpha, lam in [(1.5, 2.0), (0.7, 1.0), (3.2, 4.0)]:
            direct = 0.0
            term = 1.0
            total = 1.0
            for n in range(200):
                term *= (1.0 - alpha + n) / (n + 1.0) ** 2 * (-lam)
                total += term
            direct = math.log(total)
            assert math.isclose(log_laguerre_pos_arg(alpha, lam), direct, rel_tol=1e-10)

    def test_kummer_identity_grid(self):
        for alpha in (0.3, 0.5, 1.0, 2.0, 5.0):
            for lam in np.linspace(0.0, 50.0, 11):
                lhs = log_laguerre_pos_arg(alpha, float(lam)) + float(lam)
                rhs = log_laguerre_neg(alpha, float(lam))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_against_mpmath(self):
        for alpha, lam in [(0.5, 20.0), (2.0, 35.0), (5.0, 50.0)]:
            ref = float(mp.log(mp.hyp1f1(1 - alpha, 1, -lam)))
            assert math.isclose(log_laguerre_pos_arg(alpha, lam), ref, rel_tol=1e-10)


class TestRowBatchedKernels:
    """A row's value and derivatives never depend on the other rows of the
    call: each row's window, term count and branch are its own."""

    def test_laguerre_rows_equal_single_rows(self):
        rng = np.random.default_rng(3)
        alpha = 10.0 ** rng.uniform(-3.0, 3.0, 40)
        lam = np.exp(rng.uniform(math.log(1e-18), math.log(5000.0), 40))
        together = _log_laguerre_neg_grad(alpha, lam)
        for i in range(alpha.size):
            alone = _log_laguerre_neg_grad(alpha[i : i + 1], lam[i : i + 1])
            np.testing.assert_array_equal(together[:, i], alone[:, 0])
        assert together[0, 7] == log_laguerre_neg(alpha[7], lam[7])

    def test_bessel_rows_equal_single_rows(self):
        # series, ive, ive-underflow and subnormal arguments, alone and mixed
        rng = np.random.default_rng(4)
        nu = rng.uniform(-0.99, 999.0, 30)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(3000.0), (30, 7)))
        x[3, 2] = 1e-310
        x[:10] = np.minimum(x[:10], 29.0)
        together = _log_bessel_i_nu_grad(nu, x)
        for i in range(nu.size):
            alone = _log_bessel_i_nu_grad(nu[i : i + 1], x[i : i + 1])
            np.testing.assert_array_equal(together[:, i], alone[:, 0])
        np.testing.assert_allclose(together[0, 5], log_bessel_i_nu(nu[5], x[5]), rtol=1e-13)



def test_readme_states_the_truncation_rule():
    # the pwncg.special bullet of the README names the tolerance and the
    # term budget that every window series is truncated by
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("**`pwncg.special`**")
    bullet = readme[start : readme.index("\n- **", start)]
    assert f"{special._REL_TOL:g}" in bullet
    assert f"{special._MAX_TERMS:,}".replace(",", " ") in bullet
