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
from pwncg.distributions import PowerParams, log_pdf_noncentral_gamma
from pwncg.sampling import sample_power
from pwncg.special import (
    _IV_SERIES_CUTOFF,
    I0_SERIES_CUTOFF,
    SeriesConvergenceError,
    _confluent_rows,
    _confluent_weights,
    _log_bessel_i_nu_rows,
    _log_laguerre_neg_rows,
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
        got = _log_bessel_i_nu_rows(np.array([nu]), np.array([[x]]))[:, 0, 0]
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

    def test_negative_orders_take_ive_at_the_absolute_order(self):
        # From x = 30 on, ive returns the same bits at -v and v (the K_v
        # term of I_-v = I_v + (2/pi) sin(v pi) K_v is below e^-60 of I_v),
        # so _log_iv_large calls it at |nu| and flips the sign of d/dnu.
        # It must equal the computation at the signed orders bit for bit,
        # also within _NU_STEP of 0 and of -1, where nu - _NU_STEP < -1.
        rng = np.random.default_rng(33)
        n = 20_000
        step = special._NU_STEP
        x = np.exp(rng.uniform(math.log(30.0), math.log(2.0**30), n))
        nu = -rng.uniform(0.0, 1.0, n)
        nu[:2000] = -rng.uniform(0.0, 2.0 * step, 2000)
        nu[2000:4000] = rng.uniform(-1.0, -1.0 + 2.0 * step, 2000)
        nu = np.where(nu > -1.0, nu, -0.5)
        assert (nu - step < -1.0).any() and (nu + step > 0.0).any()
        scaled, above, up, down = (ive(v, x) for v in (nu, nu + 1.0, nu + step, nu - step))
        d_nu = (np.log(up) - np.log(down)) / (2.0 * step)
        signed = np.array([np.log(scaled) + x, d_nu, x * above / scaled + nu])
        got = special._log_iv_large(nu, x)
        assert np.isfinite(got).all()
        np.testing.assert_array_equal(got, signed)

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

    def test_value_where_only_the_order_above_underflows(self):
        # ive(nu, x) is a normal number here, but ive(nu + 1, x) underflows
        # and the log-domain series would need more than its term budget:
        # the value is ive's, and only the derivatives are NaN
        nu, x = 37233.2159610305, 1e6
        assert ive(nu + 1.0, x) == 0.0 < ive(nu, x)
        got = _log_bessel_i_nu_rows(np.array([nu]), np.array([[x]]))[:, 0, 0]
        # Debye's uniform expansion (DLMF 10.41.3) to U_2(p) / nu^2; the
        # next term is of order 1e-14 here
        n, z = mp.mpf(nu), mp.mpf(x) / nu
        s = mp.sqrt(1 + z * z)
        p = 1 / s
        u1 = (3 * p - 5 * p**3) / 24
        u2 = (81 * p**2 - 462 * p**4 + 385 * p**6) / 1152
        ref = (
            n * (s + mp.log(z / (1 + s)))
            - mp.log(2 * mp.pi * n) / 2
            - mp.log(1 + z * z) / 4
            + mp.log(1 + u1 / n + u2 / n**2)
        )
        assert abs(got[0] - float(ref)) <= 1e-15 * float(ref)
        assert np.isnan(got[1:]).all()
        assert log_bessel_i_nu(nu, x) == got[0]

    def test_fallback_arguments_take_one_window_call(self, monkeypatch):
        # every ive-underflow argument of a call goes through one batched
        # call of the log-domain series
        calls = []

        def spy(*args):
            calls.append(args)
            return _window_rows(*args)

        monkeypatch.setattr(special, "_window_rows", spy)
        xs = _IV_SERIES_CUTOFF + np.linspace(0.0, 1.0, 5000) * 50.0**2 / 700.0
        assert (ive(450.0, xs) == 0.0).all()
        vals = log_bessel_i_nu(450.0, xs)
        assert len(calls) == 1
        ref = [_ref_log_iv(450.0, x) for x in xs[[0, -1]]]
        np.testing.assert_allclose(vals[[0, -1]], ref, rtol=5e-12)

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

    def test_short_term_budget_raises(self, monkeypatch):
        # the term mode is near lam + alpha - 1, so the budget falls short
        with monkeypatch.context() as m:
            m.setattr(special, "_MAX_TERMS", 20)
            for lam in (4.95, 40.0):
                with pytest.raises(SeriesConvergenceError) as err:
                    _confluent_weights(30.0, lam)
                assert str(err.value) == (
                    f"could not bound the pmf tail below 1e-14 within 20 terms for lam={lam}, "
                    "alpha=30.0"
                )
        with pytest.raises(
            SeriesConvergenceError,
            match=r"^could not bound the pmf tail below 1e-14 within 200000 terms "
            r"for lam=1e\+20, alpha=1.0$",
        ):
            _confluent_weights(1.0, 1e20)

    def test_window_series_take_no_truncation_knobs(self):
        # every window series is truncated by _REL_TOL and _MAX_TERMS alone
        assert list(inspect.signature(_window_rows).parameters) == ["ratios", "log_head", "mode"]
        for fn in (_confluent_rows, _confluent_weights):
            assert list(inspect.signature(fn).parameters) == ["alpha", "lam"]
        # the kernels take nothing beside their arguments, and no flag that
        # picks a second path (the Bessel powers are an argument: a cached
        # table)
        for fn, params in [
            (special._window_sums, ["blocks", "c"]),
            (special._log_iv_window, ["nu", "x"]),
            (special._log_iv_large, ["nu", "x"]),
            (special._log_iv_series_rows, ["nu", "x", "q_max", "powers"]),
            (special._iv_series_products, ["nu", "x", "q_max", "table", "index"]),
            (_log_laguerre_neg_rows, ["alpha", "lam"]),
            (_log_bessel_i_nu_rows, ["nu", "x", "powers"]),
        ]:
            assert list(inspect.signature(fn).parameters) == params, fn.__name__

    def test_window_bounds_equal_the_int64_formula(self):
        # _window_bounds holds the bounds as whole floats; they equal those
        # of the int64 form (clipped to the term budget before the cast,
        # first kept below last) at every finite mode, from the fits'
        # windows to modes past the budget and past 2**63
        rng = np.random.default_rng(8)
        mode = np.concatenate(
            [
                [0.0, 1.0, 2.5, 199_983.0, 2e5, 3e5, 2.0**63, 1e300],
                np.geomspace(1e-12, 1e25, 4000),
                rng.uniform(0.0, 300.0, 2000),
                np.arange(0.0, 5000.0),
            ]
        )
        width = special._WINDOW_WIDTHS * np.sqrt(mode + 1.0)
        budget, margin = special._MAX_TERMS, special._WINDOW_MARGIN
        last = np.minimum(np.minimum(mode + width, budget).astype(np.int64) + margin, budget)
        first = np.maximum(np.minimum(mode - width, budget).astype(np.int64) - margin, 0)
        first = np.minimum(first, last - 1)
        got_first, got_last = special._window_bounds(mode)
        np.testing.assert_array_equal(got_first, first)
        np.testing.assert_array_equal(got_last, last)
        # an infinite mode (lam or alpha overflowing it) ends at the budget
        with np.errstate(invalid="ignore"):
            got_first, got_last = special._window_bounds(np.array([np.inf]))
        assert got_last[0] == budget and got_first[0] < got_last[0]

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
        # calls of 1, 2, 3 and 64 rows, as the fits make them, and of 40;
        # and one of 65 rows, one of them failing, a call of several
        # blocks, where exactly the failing row is NaN, in all three outputs
        rng = np.random.default_rng(3)
        failing = 37
        for size in (1, 2, 3, 40, 64, 65):
            alpha = 10.0 ** rng.uniform(-3.0, 3.0, size)
            lam = np.exp(rng.uniform(math.log(1e-18), math.log(5000.0), size))
            if size == 65:
                alpha[failing], lam[failing] = 69097.6364600833, 146741.39369184236
            with np.errstate(over="ignore", invalid="ignore"):
                blocks = len(list(_confluent_rows(alpha, lam)))
                together = _log_laguerre_neg_rows(alpha, lam)
                alone = [_log_laguerre_neg_rows(a, b) for a, b in zip(alpha[:, None], lam[:, None])]
            nan_rows = np.flatnonzero(np.isnan(together).any(axis=0)).tolist()
            assert nan_rows == ([failing] if size == 65 else [])
            if size == 65:
                assert blocks > 2 and np.isnan(together[:, failing]).all()
            for i in range(alpha.size):
                np.testing.assert_array_equal(together[:, i], alone[i][:, 0])
            assert together[0, 0] == log_laguerre_neg(alpha[0], lam[0])

    def test_values_do_not_depend_on_the_block_size(self, monkeypatch):
        # The block size sets only how many rows are summed at once: the
        # I_nu series of 20 000 values, the noncentral-gamma density of a
        # 102 000-value sample of the draws_and_grids law and a 65-row
        # confluent call keep their bytes with the block bound at 2^10 to
        # 2^18 elements, which split the confluent call into 31 to 2 blocks.
        rng = np.random.default_rng(30)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(45.0), 20_000))
        law = PowerParams(alpha=0.7, beta=100.0, lam=3.0)
        sample = sample_power(law, rng, 102_000, method="trunc")
        alpha = 10.0 ** rng.uniform(-3.0, 3.0, 65)
        lam = np.exp(rng.uniform(math.log(1e-2), math.log(5000.0), 65))
        outputs, blocks = {}, {}
        for size in (1 << 10, 1 << 14, 1 << 16, 1 << 18):
            monkeypatch.setattr(special, "_SERIES_BLOCK", size)
            blocks[size] = len(list(_confluent_rows(alpha, lam)))
            outputs[size] = [
                log_bessel_i_nu(0.5, x).tobytes(),
                log_pdf_noncentral_gamma(sample, law.alpha, law.beta, law.lam).tobytes(),
                _log_laguerre_neg_rows(alpha, lam).tobytes(),
            ]
        assert blocks[1 << 10] > blocks[1 << 14] > blocks[1 << 16] > blocks[1 << 18] > 1
        ref = outputs[1 << 16]
        for size, got in outputs.items():
            assert got == ref, size

    @pytest.mark.parametrize("shape", [(1, 3, 60), (6, 40, 64), (129, 64, 60), (4, 1, 60)])
    def test_power_table_is_the_cumulative_product(self, shape):
        # one multiply per term gives the bytes of np.multiply.accumulate
        # along the term axis, the table's earlier form, at zero, subnormal
        # and unit powers too
        rows, terms, n = shape
        u = np.random.default_rng(terms).uniform(0.0, 1.0, (rows, n))
        u[0, :4] = 0.0, 1.0, 1e-300, 5e-324
        want = np.multiply.accumulate(np.broadcast_to(u[:, None, :], (rows, terms, n)), axis=1)
        got = special._iv_power_table(u, terms)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_few_row_calls_equal_the_batched_path(self):
        # Calls of 1 to 3 rows sum each row alone; every row of them equals,
        # byte for byte in all three outputs, the same row in calls of 4, 64
        # and 65 rows, which take the batched path. The rows cover windows
        # from n = 0 and past it (a head term), a subnormal lam, and two
        # failing rows, NaN in all three outputs: row 3, whose window ends
        # at the term budget past its mode, and one whose mode is past it.
        rng = np.random.default_rng(28)
        alpha = 10.0 ** rng.uniform(-8.0, 8.0, 65)
        lam = 10.0 ** rng.uniform(-25.0, math.log10(3e5), 65)
        alpha[:4] = 1.5, 0.5, 1e8, 69097.6364600833
        lam[:4] = 3.0, 2000.0, 5e-324, 146741.39369184236
        first = special._window_bounds(special._confluent_mode(alpha, lam))[0]
        assert first[0] == 0.0 and first[1] > 0.0
        assert 10 <= np.count_nonzero(first) <= 55

        def by_calls(size):
            out = np.empty((3, alpha.size))
            for start in range(0, alpha.size, size):
                rows = (start + np.arange(size)) % alpha.size
                out[:, rows] = _log_laguerre_neg_rows(alpha[rows], lam[rows])
            return out

        with np.errstate(over="ignore", invalid="ignore"):
            batched = {size: by_calls(size) for size in (4, 64, 65)}
            alone = {size: by_calls(size) for size in (1, 2, 3)}
        ref = batched[65]
        failed = np.isnan(ref).any(axis=0)
        assert np.flatnonzero(failed).tolist() == [3, 63]
        assert special._confluent_mode(alpha[63], lam[63]) > special._MAX_TERMS
        assert np.isnan(ref[:, failed]).all()
        for size, got in {**batched, **alone}.items():
            assert got.tobytes() == ref.tobytes(), size

    # (alpha, lam): ln S, d/dalpha ln S and lam d/dlam ln S of
    # _log_laguerre_neg_rows as float.hex, recorded at 3a01f24, before the
    # window bookkeeping was rewritten. lam runs from the fits' floor,
    # softplus(-40), where the window starts at n = 0, to their ceiling
    # 5000, where it starts near the mode (about 5000 and 5852); alpha
    # spans the fits' box; (1.5, 3) and (0.5, 2000) are a speech-like and
    # a strongly noncentral point.
    LAGUERRE_PINS = {
        (1e-3, 4.248354255291589e-18): (
            "0x1.40ff1f55b3d96p-68", "0x1.39792499b1a24p-58", "0x1.40ff1f55b3d96p-68"
        ),
        (1e3, 4.248354255291589e-18): (
            "0x1.32204dbe17782p-48", "0x1.39792499b1a19p-58", "0x1.32204dbe1777bp-48"
        ),
        (1e-3, 5000.0): ("0x1.37895979e8886p+12", "0x1.f88bd2a0d3880p+9", "0x1.387003472787ep+12"),
        (1e3, 5000.0): ("0x1.e5ca9926aa17fp+12", "0x1.ecd3efe24a209p+0", "0x1.6dd5720285af0p+12"),
        (1.5, 3.0): ("0x1.e09826444547fp+1", "0x1.5d463b7022855p+0", "0x1.b4f182e46d8e1p+1"),
        (0.5, 2000.0): ("0x1.f2e825d42f9eep+10", "0x1.320b918a70574p+3", "0x1.f3dffdf32fd84p+10"),
    }

    def test_laguerre_kernel_pins(self):
        points = list(self.LAGUERRE_PINS)
        alpha = np.array([a for a, _ in points])
        lam = np.array([lam for _, lam in points])
        assert lam[0] == float(np.log1p(np.exp(-40.0)))  # softplus(-40)
        together = _log_laguerre_neg_rows(alpha, lam)
        for i, point in enumerate(points):
            alone = _log_laguerre_neg_rows(alpha[i : i + 1], lam[i : i + 1])
            for got in (together[:, i], alone[:, 0]):
                assert tuple(float(v).hex() for v in got) == self.LAGUERRE_PINS[point], point

    def test_retried_row_leaves_the_others(self):
        # No window inside the fits' box fails (alpha in [1e-3, 1e3], lam
        # in [softplus(-40), 5000]: none of 700 000 probes did). This row,
        # far outside it, has its term mode past the term budget, so its
        # window ends at the budget, nothing is doubled, and it fails its
        # checks and is NaN; the row beside it keeps its own values.
        alpha = np.array([1.5, 69097.6364600833])
        lam = np.array([3.0, 146741.39369184236])
        with np.errstate(over="ignore", invalid="ignore"):
            got = _log_laguerre_neg_rows(alpha, lam)
        assert tuple(float(v).hex() for v in got[:, 0]) == self.LAGUERRE_PINS[(1.5, 3.0)]
        assert np.isnan(got[:, 1]).all()

    def test_few_rows_skip_the_window_kernel(self, monkeypatch):
        # a call of at most _ROWS_ALONE rows sums its rows without the
        # batched window kernel, also a row whose mode is past the term
        # budget, which fails; a call of one row more takes the kernel
        calls = []

        def spy(*args):
            calls.append(args)
            return _window_rows(*args)

        monkeypatch.setattr(special, "_window_rows", spy)
        rows = special._ROWS_ALONE
        assert rows == 3
        _log_laguerre_neg_rows(np.array([1.5]), np.array([3.0]))
        _log_laguerre_neg_rows(np.full(rows, 0.5), np.full(rows, 2000.0))
        assert np.isnan(_log_laguerre_neg_rows(np.array([1.0]), np.array([3e5]))).all()
        assert not calls
        _log_laguerre_neg_rows(np.full(rows + 1, 1.5), np.full(rows + 1, 3.0))
        assert len(calls) == 1

    def test_bessel_rows_equal_single_rows(self):
        # series, ive, ive-underflow and subnormal arguments, alone and mixed
        rng = np.random.default_rng(4)
        nu = rng.uniform(-0.99, 999.0, 30)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(3000.0), (30, 7)))
        x[3, 2] = 1e-310
        x[:10] = np.minimum(x[:10], 29.0)
        together = _log_bessel_i_nu_rows(nu, x)
        for i in range(nu.size):
            alone = _log_bessel_i_nu_rows(nu[i : i + 1], x[i : i + 1])
            np.testing.assert_array_equal(together[:, i], alone[:, 0])
        np.testing.assert_allclose(together[0, 5], log_bessel_i_nu(nu[5], x[5]), rtol=1e-13)

    def test_every_failing_window_ends_at_the_term_budget(self, monkeypatch):
        # Why _window_rows tries each window once: over a seeded scan of
        # both window series, far past the fits' box, every row whose sum
        # is NaN has a window that already ends at the term budget, so no
        # longer window is to be had.
        modes = []

        def spy(ratios, log_head, mode):
            modes.append(mode)
            return _window_rows(ratios, log_head, mode)

        monkeypatch.setattr(special, "_window_rows", spy)
        rng = np.random.default_rng(21)
        alpha = 10.0 ** rng.uniform(-8.0, 8.0, 2000)
        lam = 10.0 ** rng.uniform(-25.0, math.log10(3e5), 2000)
        nu = 10.0 ** rng.uniform(-3.0, math.log10(3e6 + 1.0), 2000) - 1.0
        x = 10.0 ** rng.uniform(-323.0, math.log10(3e7), 2000)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = [
                _log_laguerre_neg_rows(alpha, lam)[0],
                special._log_iv_window(nu, x)[0],
            ]
        assert len(modes) == 2
        for name, mode, log_sum in zip(("confluent", "I_nu"), modes, sums):
            failed = np.isnan(log_sum)
            assert 0 < np.count_nonzero(failed) < failed.size, name
            last = special._window_bounds(mode)[1]
            assert (last[failed] == special._MAX_TERMS).all(), (name, mode[failed].min())


class TestValueOnlyBessel:
    """log_bessel_i_nu and the noncentral-gamma density kernel, which take
    the value alone, return the value row of _log_bessel_i_nu_rows, bit for
    bit, on every branch."""

    # (nu, arguments) of each branch: the ascending series, ive, the
    # large-argument expansion from 2**30 on, the log-domain series where
    # ive underflows, and subnormal arguments
    BRANCHES = {
        "series": (2.5, [1e-3, 0.3, 7.0, 29.99]),
        "ive": (2.5, [_IV_SERIES_CUTOFF, 45.0, 700.0, 1e6]),
        "expansion": (0.5, [2.0**30, 3e9, 1e12]),
        "ive underflow": (1000.0, [40.0, 45.0, 59.0]),
        "subnormal": (1.0, [5e-324, 1e-310, 2e-308]),
    }

    def test_each_branch_equals_the_gradient_kernels_value(self):
        assert (ive(1000.0, np.array(self.BRANCHES["ive underflow"][1])) == 0.0).all()
        for name, (nu, xs) in self.BRANCHES.items():
            xs = np.array(xs)
            padded = np.ones(64)  # log_bessel_i_nu's row: 64 wide, padded with 1.0
            padded[: xs.size] = xs
            ref = _log_bessel_i_nu_rows(np.array([nu]), padded[None])[0, 0, : xs.size]
            assert np.isfinite(ref).all(), name
            np.testing.assert_array_equal(log_bessel_i_nu(nu, xs), ref, err_msg=name)

    def test_mixed_rows_equal_the_gradient_kernels_value(self):
        rng = np.random.default_rng(8)
        nu = rng.uniform(-0.99, 999.0, 24)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(3000.0), (24, 70)))
        x[2, 3], x[5, 0], x[7, 1] = 1e-310, 2.0**30, 1e12
        x[:6] = np.minimum(x[:6], 29.0)
        # _log_iv_padded cuts each row of 70 into two of 64, the second
        # padded with 1.0
        padded = np.ones((24, 128))
        padded[:, :70] = x
        ref = _log_bessel_i_nu_rows(np.repeat(nu, 2), padded.reshape(48, 64))[0]
        value = special._log_iv_padded(nu, x)
        assert value.shape == x.shape
        np.testing.assert_array_equal(value, ref.reshape(24, 128)[:, :70])

    def test_series_failure_message(self):
        # ive is NaN from 2**30 on, the expansion does not converge at
        # nu = 1e6, and the log-domain series' term mode is past its budget
        with pytest.raises(
            SeriesConvergenceError,
            match=r"^I_nu series did not converge for nu=1000000.0, x=2147483648.0 "
            r"within 200000 terms$",
        ):
            log_bessel_i_nu(1e6, 2.0**31)


def _ref_iv_series(nu: float, x: float):
    """ln I_nu(x), d/dnu and x d/dx of it, from the ascending series in
    mpmath: with t_k = (x/2)^(2k) / (k! Gamma(k + nu + 1)) and S their sum,
    d/dnu ln S = -E_t[digamma(k + nu + 1)] and x d/dx of (x/2)^nu S is
    E_t[2k + nu]."""
    n, h = mp.mpf(nu), mp.mpf(x) / 2
    q = h * h
    t, psi = 1 / mp.gamma(n + 1), mp.digamma(n + 1)
    s = s_psi = s_k = mp.mpf(0)
    k = 0
    while True:
        s, s_psi, s_k = s + t, s_psi + t * psi, s_k + t * (2 * k + n)
        k += 1
        t *= q / (k * (k + n))
        psi += 1 / (k + n)
        if t < s * mp.mpf(10) ** -35:
            return [float(n * mp.log(h) + mp.log(s)), float(mp.log(h) - s_psi / s), float(s_k / s)]


def _powers_of(y: np.ndarray):
    """The power table of rows y (R, n) and the index of each row in it, as
    fitting._Group caches it for the Bessel arguments c[r] sqrt(y[r])."""
    return special._iv_power_table(y / y.max(axis=1)[:, None]), np.arange(len(y))


def _term_scale(nu: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The largest magnitude among the terms each output of the series
    kernel is summed from, and 1: nu ln(x/2), ln Gamma(nu + 1) and
    ln(1 + S) for the value, ln(x/2), digamma(nu + 1) and the moment for
    d/dnu, nu and the moment for x d/dx. A difference of a few roundings
    in any of them is a difference of about 1e-16 of this scale."""
    nus = nu[:, None]
    log_half_x = np.log(x) - math.log(2.0)
    log_gamma = special.gammaln(nus + 1.0)
    terms = (
        (nus * log_half_x, log_gamma, out[0] - nus * log_half_x + log_gamma),
        (log_half_x, special.digamma(nus + 1.0), out[1]),
        (nus, out[2] - nus),
    )
    scale = np.ones((3,) + x.shape)
    for i, ts in enumerate(terms):
        for t in ts:
            scale[i] = np.maximum(scale[i], np.abs(t))
    return scale


class TestBesselPowerTable:
    """The ascending I_nu series of _log_bessel_i_nu_rows: each row's
    coefficients times a table of powers, cached (fitting._Group.powers)
    or built from x."""

    # The largest error, relative to max(1, |reference|), of the value,
    # d/dnu and x d/dx on the grid below, of the kernel that summed the
    # terms as a cumulative product over each row's term count before the
    # power tables replaced it. Both kernels have their worst errors at
    # the same points: d/dnu at nu = -0.999, where digamma(nu + 1) and the
    # series moment are both near -1000 and cancel.
    CUMULATIVE_PRODUCT_WORST = (2.36e-15, 8.03e-13, 9.91e-16)

    NUS = (-0.999, -0.9, -0.5, 0.0, 0.3, 1.0, 2.5, 7.0, 20.0, 60.0, 200.0, 1000.0)
    X_MAX = (1e-6, 1e-3, 0.03, 0.3, 1.0, 3.0, 8.0, 15.0, 22.0, 29.99)
    FRACTIONS = (1.0, 0.9, 0.5, 0.2, 0.05, 1e-2, 1e-4, 1e-8)

    def _grid(self):
        nu = np.repeat(self.NUS, len(self.X_MAX))
        x = np.array([[xm * f for f in self.FRACTIONS] for _ in self.NUS for xm in self.X_MAX])
        return nu, x

    def test_grid_against_mpmath(self):
        nu, x = self._grid()
        counts = special._series_counts(0.25 * x.max(axis=1) ** 2)
        assert (counts.min(), counts.max()) == (4, special._IV_TABLE_TERMS) == (4, 64)
        ref = np.array([[_ref_iv_series(v, a) for a in row] for v, row in zip(nu, x)])
        ref = ref.transpose(2, 0, 1)
        for got in (
            _log_bessel_i_nu_rows(nu, x),
            _log_bessel_i_nu_rows(nu, x, _powers_of(np.square(x))),
        ):
            err = (np.abs(got - ref) / np.maximum(1.0, np.abs(ref))).max(axis=(1, 2))
            assert (err <= self.CUMULATIVE_PRODUCT_WORST).all(), err

    def test_cached_table_matches_powers_from_x(self):
        # rows as the noncentral-gamma objective makes them: c[r] sqrt(y[r])
        # for normalized batches y, with the powers of y / max(y) cached,
        # against the powers built from x; they differ only in how q / Q
        # rounds
        rng = np.random.default_rng(30)
        for _ in range(40):
            y = rng.gamma(rng.uniform(0.3, 5.0), 1.0, (8, 60))
            y /= y.mean(axis=1)[:, None]
            nu = rng.uniform(-0.999, 50.0, 8)
            nu[0] = -0.999
            x_max = np.exp(rng.uniform(math.log(1e-6), math.log(29.99), 8))
            x = (x_max / np.sqrt(y.max(axis=1)))[:, None] * np.sqrt(y)
            from_x = _log_bessel_i_nu_rows(nu, x)
            cached = _log_bessel_i_nu_rows(nu, x, _powers_of(y))
            scale = _term_scale(nu, x, from_x)
            assert (np.abs(cached - from_x) <= 1e-15 * scale).all()

    def test_cached_rows_take_their_own_table_rows(self):
        # the index picks each row's table; rows with an argument at or
        # above the cutoff build their powers from x, so every row is the
        # same in any call
        rng = np.random.default_rng(31)
        y = rng.gamma(1.5, 1.0, (6, 60))
        x = np.sqrt(y) * np.array([[3.0], [20.0], [0.5], [40.0], [1e-4], [9.0]])
        nu = rng.uniform(-0.5, 5.0, 6)
        table, _ = _powers_of(y)
        order = np.array([4, 1, 3, 0, 5, 2])
        together = _log_bessel_i_nu_rows(nu[order], x[order], (table, order))
        for i, r in enumerate(order):
            alone = _log_bessel_i_nu_rows(nu[r : r + 1], x[r : r + 1], (table, order[i : i + 1]))
            np.testing.assert_array_equal(together[:, i], alone[:, 0])
        far = _log_bessel_i_nu_rows(nu[3:4], x[3:4])
        np.testing.assert_array_equal(together[:, 2], far[:, 0])

    def test_extreme_ratio_row_ends_finite_through_the_fallback(self, monkeypatch):
        # y from the smallest subnormal to near the float maximum: its
        # smallest powers underflow to 0, and its smallest arguments are
        # subnormal and go through the log-domain series; nothing is inf
        calls = []
        real = special._log_iv_window

        def spy(nu, x):
            calls.append(x.copy())
            return real(nu, x)

        monkeypatch.setattr(special, "_log_iv_window", spy)
        y = np.geomspace(5e-324, 1e308, 60)[None]
        x = 29.0 / np.sqrt(y.max()) * np.sqrt(y)
        assert x.min() < special._IV_TINY
        nu = np.array([0.5])
        cached = _log_bessel_i_nu_rows(nu, x, _powers_of(y))
        assert len(calls) == 1 and (calls[0] < special._IV_TINY).all()
        assert np.isfinite(cached).all()
        from_x = _log_bessel_i_nu_rows(nu, x)
        assert np.isfinite(from_x).all()
        assert (np.abs(cached - from_x) <= 1e-15 * _term_scale(nu, x, from_x)).all()
        for i in (0, 30, 59):
            ref = np.array(_ref_iv_series(0.5, float(x[0, i])))
            assert (np.abs(cached[:, 0, i] - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref))).all()


def test_readme_states_the_truncation_rule():
    # the pwncg.special bullet of the README names the tolerance and the
    # term budget that every window series is truncated by
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("**`pwncg.special`**")
    bullet = readme[start : readme.index("\n- **", start)]
    assert f"{special._REL_TOL:g}" in bullet
    assert f"{special._MAX_TERMS:,}".replace(",", " ") in bullet
