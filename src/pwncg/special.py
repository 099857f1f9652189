"""Log-domain special functions underpinning the distribution family.

Every function here returns natural logarithms. The densities built on top
combine gamma, Bessel, and confluent-hypergeometric factors whose linear
values overflow or underflow long before the parameter ranges of interest
are exhausted, so the linear domain is only ever entered at call sites.

The kernels the fits call avoid Python loops over elements and over most
series terms: ln I0 is ln(i0e(x)) + x at every argument; ln I_nu below
_IV_SERIES_CUTOFF is one cumulative product over a term count read from a
table; and the confluent normalizer, from lambda = _SCALAR_LAM_MAX on,
sums a window of terms around its mode in one numpy pass.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, i0e, ive

__all__ = [
    "SeriesConvergenceError",
    "I0_SERIES_CUTOFF",
    "log_bessel_i0",
    "log_bessel_i_nu",
    "log_laguerre_neg",
    "log_laguerre_pos_arg",
]

# Argument above which the ascending series of I0 needs more than ~60 terms.
# ln I0 has a single kernel at every argument (log_bessel_i0), so this is
# not a branch point; perfbench/tracing.py reads it for the
# special.log_bessel_i0.share_x_ge_25 metric.
I0_SERIES_CUTOFF = 25.0

# Below this the ascending series of I_nu is cheap and exact; above it
# scipy's exponentially scaled ive is accurate and safe. perfbench/tracing.py
# also reads it for the special.log_bessel_i_nu.share_x_ge_30 metric.
_IV_SERIES_CUTOFF = 30.0

# Below this x / 2 is subnormal; there ln I_nu is its leading series term.
_IV_TINY = 2.0 * float(np.finfo(float).tiny)

# The confluent series is summed by the Python term recurrence below this
# lambda, where it has a few dozen terms, and in one numpy pass over a
# window of terms from this lambda on; at lambda = 5 both take about 20 us.
_SCALAR_LAM_MAX = 5.0

# Term window of the numpy pass: from n = 0 to the term mode plus
# _WINDOW_WIDTHS widths sqrt(mode + 1) plus _WINDOW_MARGIN terms.
_WINDOW_WIDTHS = 9.0
_WINDOW_MARGIN = 16


# Truncation of the confluent normalizer series: summation stops once a
# term past the mode is below _REL_TOL of the partial sum, and gives up
# after _MAX_TERMS terms.
_REL_TOL = 1e-14
_MAX_TERMS = 10_000


class SeriesConvergenceError(ArithmeticError):
    """A truncated series failed to meet its tolerance within its term budget."""


# Term-count table for the ascending series: _SERIES_QSTAR[k-1] is the
# largest q = (x/2)^2 for which k terms push the truncated tail below
# 1e-24 of the leading term (a generous margin that also covers the
# slightly slower decay of low-order I_nu series).
_SERIES_N = np.arange(1.0, 101.0)
_SERIES_QSTAR = np.exp((-24.0 * math.log(10.0) + 2.0 * gammaln(_SERIES_N + 1.0)) / _SERIES_N)


def _series_terms(q: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Vectorized sum over n of prod_{m<=n} (q / denom_m) for positive q.

    The term count is chosen from the largest element via the
    precomputed threshold table, so the loop over terms happens inside
    numpy (one cumprod) instead of Python.
    """
    qmax = float(q.max())
    k = int(np.searchsorted(_SERIES_QSTAR, qmax, side="left")) + 1
    k = min(k + 2, len(denom))
    ratios = q[None, :] / denom[:k, None]
    return np.cumprod(ratios, axis=0).sum(axis=0)


def _checked_range(name: str, arr: np.ndarray) -> tuple[float, float]:
    """Smallest and largest element of a nonempty argument array, after
    checking in one min/max pass that all elements are finite and >= 0
    (a NaN propagates through both reductions)."""
    lo = float(arr.min())
    hi = float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} requires finite arguments")
    if lo < 0.0:
        raise ValueError(f"{name} requires x >= 0")
    return lo, hi


def _log_i0_unchecked(arr: np.ndarray) -> np.ndarray:
    """log_bessel_i0 without argument validation; for internal hot loops
    whose inputs are nonnegative by construction."""
    return np.log(i0e(arr)) + arr


def log_bessel_i0(x):
    """ln I0(x) for x >= 0, overflow-safe for arbitrarily large arguments.

    One kernel at every argument: ln I0(x) = ln(i0e(x)) + x, where scipy's
    exponentially scaled i0e(x) = exp(-x) I0(x) lies in (0, 1] and never
    overflows. Accepts scalars or arrays.

    Against mpmath the error stayed below 1e-15 * max(1, ln I0(x)) over
    90 000 points in [1e-12, 1e6]. That is what the densities need, where
    ln I0 is one summand among terms of order one; but for x << 1, where
    ln I0(x) ~ x^2 / 4, it is not small relative to the value (at
    x = 1e-4 the relative error is ~1e-7).
    """
    arr = np.asarray(x, dtype=float)
    if arr.size:
        _checked_range("log_bessel_i0", arr)
    out = _log_i0_unchecked(arr)
    return float(out) if arr.ndim == 0 else out


def _log_iv_series_linear(nu: float, x: np.ndarray) -> np.ndarray:
    """Series for ln I_nu(x) with the (x/2)^nu / Gamma(nu+1) prefactor in
    logs and the remaining 0F1-type sum in linear domain.

    The sum is bounded by I0(x)-like growth, so this is restricted to
    x < _IV_SERIES_CUTOFF.
    """
    if x.size == 0:
        return np.empty_like(x)
    q = 0.25 * x * x
    terms = _series_terms(q, _SERIES_N * (_SERIES_N + nu))
    return nu * np.log(0.5 * x) - gammaln(nu + 1.0) + np.log1p(terms)


# Term budget of the log-domain I_nu series.
_IV_LOGDOMAIN_MAX_TERMS = 200_000


def _log_iv_series_logdomain(nu: float, x: float) -> float:
    """Fallback ascending series accumulated fully in log domain.

    Used where ive under/overflows, which only happens when nu is large
    relative to x. The term ratio (x/2)^2 / ((n+1)(n+1+nu)) crosses 1 at
    the positive root of (n+1)(n+1+nu) = (x/2)^2; the normalizer's window
    kernel sums the terms down to exp(-40) of the sum.
    """
    log_half_x = math.log(0.5 * x)

    def log_ratios(n_end: int) -> np.ndarray:
        m = np.arange(1.0, n_end + 1.0)
        return 2.0 * log_half_x - np.log(m) - np.log(m + nu)

    mode = max(0.0, 0.5 * (math.sqrt(nu * nu + x * x) - nu) - 1.0)
    summed = _log_terms_window(log_ratios, mode, -40.0, _IV_LOGDOMAIN_MAX_TERMS)
    if summed is None:
        raise SeriesConvergenceError(
            f"I_nu series did not converge for nu={nu}, x={x} "
            f"within {_IV_LOGDOMAIN_MAX_TERMS} terms"
        )
    return nu * log_half_x - float(gammaln(nu + 1.0)) + summed[1]


def log_bessel_i_nu(nu: float, x):
    """ln I_nu(x) for nu > -1 and x >= 0.

    For nu > -1 every series term is positive (Gamma(n+nu+1) > 0 for all
    n >= 0), so the ascending series is used directly for small arguments;
    no reflection through K_nu is needed anywhere on this domain. Large
    arguments go through the exponentially scaled scipy routine with a
    log-domain series fallback where that under- or overflows.

    The arguments are validated in one min/max pass; when all of them lie
    in [_IV_TINY, _IV_SERIES_CUTOFF), as in every fit objective call, the
    series result is returned without any masking.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise ValueError(f"log_bessel_i_nu requires nu > -1, got {nu}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size == 0:
        return np.empty_like(arr)
    lo, hi = _checked_range("log_bessel_i_nu", arr)
    if lo >= _IV_TINY and hi < _IV_SERIES_CUTOFF:
        out = _log_iv_series_linear(nu, arr)
        return float(out[0]) if scalar else out

    out = np.empty_like(arr)
    zero = arr == 0.0
    if zero.any():
        if nu == 0.0:
            out[zero] = 0.0
        elif nu > 0.0:
            out[zero] = -np.inf
        else:
            out[zero] = np.inf

    tiny = (~zero) & (arr < _IV_TINY)
    if tiny.any():
        # Only the leading series term counts here, and x / 2 would lose
        # bits to the subnormal range, so ln(x / 2) is taken as ln x - ln 2.
        out[tiny] = nu * (np.log(arr[tiny]) - math.log(2.0)) - gammaln(nu + 1.0)

    small = (~zero) & ~tiny & (arr < _IV_SERIES_CUTOFF)
    if small.any():
        out[small] = _log_iv_series_linear(nu, arr[small])

    big = arr >= _IV_SERIES_CUTOFF
    if big.any():
        xb = arr[big]
        scaled = ive(nu, xb)
        vals = np.empty_like(xb)
        ok = np.isfinite(scaled) & (scaled > 0.0)
        vals[ok] = np.log(scaled[ok]) + xb[ok]
        for i in np.flatnonzero(~ok):
            vals[i] = _log_iv_series_logdomain(nu, xb[i])
        out[big] = vals

    return float(out[0]) if scalar else out


# n and 2 ln(n + 1) for windows of up to 16 384 terms (lambda up to about
# 15 000); longer windows compute them on the fly.
_N_TABLE = np.arange(16_384.0)
_TWO_LOG1P_N = 2.0 * np.log1p(_N_TABLE)


def _log_terms_recurrence(alpha: float, lam: float, log_tol: float, max_terms: int):
    """Term-by-term sum in Python, stopping at the first term past the
    mode that is below the tolerance; the discarded tail decays
    super-geometrically from there."""
    log_lam = math.log(lam)
    log_terms = [0.0]
    log_term = 0.0
    acc = 0.0
    for n in range(max_terms):
        new_log_term = log_term + log_lam + math.log(alpha + n) - 2.0 * math.log1p(n)
        log_terms.append(new_log_term)
        if new_log_term > acc:
            acc = new_log_term + math.log1p(math.exp(acc - new_log_term))
        else:
            acc += math.log1p(math.exp(new_log_term - acc))
        decreasing = new_log_term < log_term
        log_term = new_log_term
        if decreasing and log_term - acc < log_tol:
            return log_terms, acc
    return None


def _log_terms_window(log_ratios, mode: float, log_tol: float, max_terms: int):
    """Log terms ln t_0 .. ln t_N of a positive series with t_0 = 1, and
    the log of their sum, in one numpy pass (None past max_terms terms).

    log_ratios(N) returns ln(t_{n+1} / t_n) for n < N; mode is where that
    ratio crosses 1. Around it ln t_n falls off like a Gaussian of
    variance at most mode + 1, so the window end N sits _WINDOW_WIDTHS of
    those widths past it, where the terms are ~exp(-40) of the peak. The
    log terms are one cumulative sum of the log ratios and their sum one
    log-sum-exp. The window doubles, up to max_terms, in the rare case
    that its last term is not past the mode and below log_tol of the sum.
    """
    n_end = min(max_terms, int(mode + _WINDOW_WIDTHS * math.sqrt(mode + 1.0)) + _WINDOW_MARGIN)
    while True:
        log_terms = np.empty(n_end + 1)
        log_terms[0] = 0.0
        np.cumsum(log_ratios(n_end), out=log_terms[1:])
        peak = float(log_terms.max())
        acc = peak + math.log(float(np.exp(log_terms - peak).sum()))
        last = float(log_terms[-1])
        if last < float(log_terms[-2]) and last - acc < log_tol:
            return log_terms, acc
        if n_end >= max_terms:
            return None
        n_end = min(max_terms, 2 * n_end)


def _log_confluent_terms(alpha: float, lam: float, rel_tol: float, max_terms: int):
    """Log terms ln t_0 .. ln t_N of t_n = (alpha)_n lam^n / (n!)^2, with
    t_0 = 1, and the log of their sum, for alpha > 0 and lam > 0.

    N is large enough that the last term is past the mode and below
    rel_tol of the sum; returns None if that takes more than max_terms
    terms after t_0. Below _SCALAR_LAM_MAX the Python recurrence stops at
    the first such N; from there on the numpy pass sums a window that ends
    well past it.
    """
    log_tol = math.log(rel_tol)
    if lam < _SCALAR_LAM_MAX:
        return _log_terms_recurrence(alpha, lam, log_tol, max_terms)
    log_lam = math.log(lam)

    def log_ratios(n_end: int) -> np.ndarray:
        # ln of lam (alpha + n) / (n + 1)^2
        if n_end <= len(_N_TABLE):
            inc = np.log(alpha + _N_TABLE[:n_end]) - _TWO_LOG1P_N[:n_end]
        else:
            n = np.arange(float(n_end))
            inc = np.log(alpha + n) - 2.0 * np.log1p(n)
        inc += log_lam
        return inc

    # The ratio crosses 1 at the positive root of (n + 1)^2 = lam (alpha + n),
    # near lam + alpha - 1 for large lam (DLMF 13.2).
    b = lam - 2.0
    mode = max(0.0, 0.5 * (b + math.sqrt(max(0.0, b * b + 4.0 * (lam * alpha - 1.0)))))
    return _log_terms_window(log_ratios, mode, log_tol, max_terms)


def log_laguerre_neg(alpha: float, lam: float) -> float:
    """ln of the confluent sum  S = sum_n (alpha)_n lam^n / (n!)^2.

    This is the normalizer of the power density and of the integer mixing
    law; in the Laguerre-function convention used throughout the package it
    equals ln L_{-alpha}(lam) = ln 1F1(alpha; 1; lam).

    All terms are positive and follow the recurrence
    t_{n+1} = t_n * lam * (alpha + n) / (n + 1)^2, whose terms peak at the
    mode near lam + alpha - 1. Below lam = _SCALAR_LAM_MAX the terms are
    accumulated one at a time with a running log-sum-exp; from there on
    every term up to a window end a few sqrt(mode) past the mode is
    computed in one numpy pass (a cumulative sum of log ratios and one
    log-sum-exp), with no Python loop over the terms.
    Either way the last term must be past the mode and below _REL_TOL of
    the sum; past the mode the decay is super-geometric, which bounds the
    discarded tail at the same order. Raises SeriesConvergenceError when
    that takes more than _MAX_TERMS terms.
    """
    alpha = float(alpha)
    lam = float(lam)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"log_laguerre_neg requires alpha > 0, got {alpha}")
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"log_laguerre_neg requires lam >= 0, got {lam}")
    if lam == 0.0:
        return 0.0
    summed = _log_confluent_terms(alpha, lam, _REL_TOL, _MAX_TERMS)
    if summed is None:
        raise SeriesConvergenceError(
            f"Laguerre series did not converge for alpha={alpha}, lam={lam} "
            f"within {_MAX_TERMS} terms"
        )
    return summed[1]


def log_laguerre_pos_arg(alpha: float, lam: float) -> float:
    """ln L_{alpha-1}(-lam), evaluated through Kummer's transformation.

    The identity L_{alpha-1}(-lam) = e^{-lam} * L_{-alpha}(lam) turns the
    sign-alternating series into one with positive terms; the alternating
    form cancels catastrophically for lam beyond ~10 and is never used.
    """
    lam = float(lam)
    return -lam + log_laguerre_neg(alpha, lam)
