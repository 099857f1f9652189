"""Closed-form moments and cumulants of the power distribution.

Raw moments are sums over the integer mixing law's pmf table where the
law is noncentral, and else, or where the table's tail could show,
products of fast-growing positive factors assembled in log domain. The
mean, the variance and the excess kurtosis come from the cumulants of
the integer mixing law, read off the pmf table the samplers draw from
(sampling.poisson_type_pmf_table). The noncentral-gamma
cumulant formula is the baseline the kurtosis comparison is made against.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.special import gammaln

from .distributions import PoissonTypeParams, PowerParams
from .sampling import poisson_type_pmf_table
from .special import log_laguerre_neg

__all__ = [
    "raw_moment",
    "mean_variance",
    "excess_kurtosis",
    "ncgamma_cumulant",
    "ncgamma_excess_kurtosis",
    "kurtosis_sweep",
]


def raw_moment(n: int, p: PowerParams) -> float:
    """n-th raw moment of the power distribution.

    At lam > 0 it is the mixture sum M_n = sum_k w_k (alpha + k)_n / beta^n
    over the mixing law's pmf table w (_mixture_moment), a sum of positive
    terms that keeps its relative accuracy. Where that table's tail is not
    negligible for the order n, and at lam = 0, it is
    M_n = (alpha)_n / beta^n * S(alpha + n, lam) / S(alpha, lam),
    where S is the confluent normalizer series, assembled in log domain
    (S = 1 at lam = 0); inf where M_n exceeds the float range.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"raw_moment requires n >= 1, got {n}")
    if p.lam > 0.0:
        m = _mixture_moment(n, p)
        if m is not None:
            return m
    a = p.alpha
    if a <= 1e3:
        log_poch = gammaln(a + n) - gammaln(a)
    else:
        # ln (alpha)_n from Stirling's series, whose first omitted term is
        # below 3e-12 here; the gammaln difference loses all its digits to
        # cancellation at large alpha.
        log_poch = (a - 0.5) * math.log1p(n / a) + n * (math.log(a + n) - 1.0)
        log_poch -= n / (12.0 * a * (a + n))
    log_m = log_poch - n * math.log(p.beta)
    log_m = log_m + log_laguerre_neg(a + n, p.lam) - log_laguerre_neg(a, p.lam)
    try:
        return math.exp(log_m)
    except OverflowError:
        return math.inf


def _mixture_moment(n: int, p: PowerParams) -> float | None:
    """sum_k w_k (alpha + k)_n / beta^n over the pmf table w of the mixing
    law of p, with lam > 0; None where the sum leaves the float range, or
    where the table's omitted tail could show in it: the last weighted term
    is not below 2^-53 of the sum, and the geometric bound t r / (1 - r) of
    the tail, from the last term t and the ratio r < 1 of the last two, is
    not below 1e-14 of the sum (nor is there such a ratio).

    The log-domain form differences ln S(alpha + n, lam) and
    ln S(alpha, lam), two large logs whose gammaln heads lose absolute
    digits: against 50-digit mpmath it erred by 2.8e-11 relative at
    (alpha, lam) = (1e4, 100) and 1.7e-9 at (1e6, 3). Each factor
    alpha + (k + j) of this sum rounds once."""
    w = poisson_type_pmf_table(PoissonTypeParams(lam=p.lam, alpha=p.alpha))
    k = np.arange(w.size, dtype=float)
    poch = p.alpha + k
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, n):
            if not math.isfinite(poch[-1]):
                return None
            poch *= p.alpha + (k + j)
        terms = w * poch
        total = float(terms.sum())
    if not math.isfinite(total):
        return None
    last = float(terms[-1])
    if last >= 2.0**-53 * total:
        r = last / float(terms[-2]) if terms.size > 1 else 1.0
        if not (r < 1.0 and last * r / (1.0 - r) < 1e-14 * total):
            return None
    return _per_rate_power(total, p.beta, n)


def _per_rate_power(v: float, beta: float, n: int) -> float:
    """v / beta^n. Where beta^n leaves the float range, v is divided by
    beta n times instead, so the quotient overflows to inf or underflows to
    0.0 rather than raising."""
    try:
        return v / beta**n
    except (OverflowError, ZeroDivisionError):
        for _ in range(n):
            v /= beta
        return v


def _mixing_cumulants(p: PowerParams) -> tuple[float, float, float, float]:
    """Cumulants k1..k4 of the mixing law N of p from the central moments
    of its pmf table (all 0 at lam = 0); from the raw moments they would
    cancel catastrophically at large lam.

    The powers of the deviations d are d2 = d d, d2 d and d2 d2, not
    d**3 and d**4, which numpy hands to libm's pow at two thirds of the
    kurtosis sweep's time. They differ from pow's only by rounding: over
    the sweep lam = 0 .. 1000, alpha = 0.5, 1, 2 the excess kurtosis
    differs by at most 3.9e-14 relative, against its error of up to
    2e-13 relative to a 60-digit reference there. numpy's d**2 is d d, so
    the mean and the variance are the same either way."""
    w = poisson_type_pmf_table(PoissonTypeParams(lam=p.lam, alpha=p.alpha))
    n = np.arange(w.size, dtype=float)
    k1 = float(w @ n)
    d = n - k1
    d2 = d * d
    mu2, mu3, mu4 = (float(w @ t) for t in (d2, d2 * d, d2 * d2))
    return k1, mu2, mu3, mu4 - 3.0 * mu2 * mu2


def mean_variance(p: PowerParams) -> tuple[float, float]:
    """Mean and variance of the power distribution.

    X | N ~ Gamma(alpha + N, beta), so they are (alpha + k1(N)) / beta and
    (alpha + k1(N) + k2(N)) / beta^2, sums of positive terms that, unlike
    M2 - M1^2, keep their relative accuracy at every lam.
    """
    k1, k2, _, _ = _mixing_cumulants(p)
    return (p.alpha + k1) / p.beta, _per_rate_power(p.alpha + k1 + k2, p.beta, 2)


def excess_kurtosis(p: PowerParams) -> float:
    """Excess kurtosis kappa4 / kappa2^2 of the power distribution.

    X | N ~ Gamma(alpha + N, beta), so by the law of total cumulance
    K_X(t) = alpha u + K_N(u) with u = -ln(1 - t/beta), and with
    s = alpha + k1(N) the excess kurtosis is
    (6 s + 11 k2(N) + 6 k3(N) + k4(N)) / (s + k2(N))^2, free of beta, with
    the cumulants of N from _mixing_cumulants.
    """
    k1, k2, k3, k4 = _mixing_cumulants(p)
    s = p.alpha + k1
    return (6.0 * s + 11.0 * k2 + 6.0 * k3 + k4) / (s + k2) ** 2


def ncgamma_cumulant(n: int, p: PowerParams) -> float:
    """n-th cumulant of the noncentral gamma distribution at the same
    (alpha, beta, lam): kappa_n = (n-1)! (alpha + n lam) / beta^n."""
    n = int(n)
    if n < 1:
        raise ValueError(f"ncgamma_cumulant requires n >= 1, got {n}")
    s = p.alpha + n * p.lam
    try:
        v = math.factorial(n - 1) * s
    except OverflowError:  # (n - 1)! is past the float range: exact rationals, rounded once
        try:
            return float(math.factorial(n - 1) * Fraction(s) / Fraction(p.beta) ** n)
        except OverflowError:
            return math.inf
    return _per_rate_power(v, p.beta, n)


def ncgamma_excess_kurtosis(p: PowerParams) -> float:
    """Excess kurtosis kappa4 / kappa2^2 = 6 (alpha + 4 lam) / (alpha +
    2 lam)^2 of the noncentral gamma baseline, free of beta."""
    s = p.alpha + 2.0 * p.lam
    if 0.0 < s * s < math.inf:
        return 6.0 * (p.alpha + 4.0 * p.lam) / (s * s)
    # s^2 leaves the float range: divide by q = s / 4, which stays finite,
    # one factor at a time
    q = 0.25 * p.alpha + 0.5 * p.lam
    return 0.375 * (p.alpha / q + 4.0 * (p.lam / q)) / q


def kurtosis_sweep(lambdas, alphas):
    """Yield (lam, alpha, gamma2_proposed, gamma2_ncgamma) rows for the
    kurtosis comparison sweep (CSV export through the CLI). Neither excess
    kurtosis depends on the rate, so the sweep takes rate 1."""
    for alpha in alphas:
        for lam in lambdas:
            p = PowerParams(alpha=float(alpha), beta=1.0, lam=float(lam))
            yield (
                float(lam),
                float(alpha),
                excess_kurtosis(p),
                ncgamma_excess_kurtosis(p),
            )
