"""Closed-form moments and cumulants of the power distribution.

All quantities are assembled in log domain (raw moments and the Laguerre
ratios are products of fast-growing positive factors) and exponentiated at
the end. The noncentral-gamma cumulant formula is included as the baseline
the kurtosis comparison is made against.
"""

from __future__ import annotations

import math

from scipy.special import gammaln

from .distributions import PowerParams
from .special import log_laguerre_neg

__all__ = [
    "raw_moment",
    "laguerre_ratio",
    "mean_variance",
    "excess_kurtosis",
    "ncgamma_cumulant",
    "ncgamma_excess_kurtosis",
    "kurtosis_sweep",
]


def raw_moment(n: int, p: PowerParams) -> float:
    """n-th raw moment of the power distribution.

    M_n = (alpha)_n / beta^n * S(alpha + n, lam) / S(alpha, lam),
    where S is the confluent normalizer series.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"raw_moment requires n >= 1, got {n}")
    log_m = (
        gammaln(p.alpha + n)
        - gammaln(p.alpha)
        - n * math.log(p.beta)
        + log_laguerre_neg(p.alpha + n, p.lam)
        - log_laguerre_neg(p.alpha, p.lam)
    )
    return math.exp(log_m)


def laguerre_ratio(alpha: float, lam: float) -> float:
    """Ratio S(alpha+1, lam) / S(alpha, lam) >= 1, the factor by which the
    noncentrality inflates the gamma mean."""
    return math.exp(log_laguerre_neg(alpha + 1.0, lam) - log_laguerre_neg(alpha, lam))


def mean_variance(p: PowerParams) -> tuple[float, float]:
    """Mean and variance of the power distribution.

    The mean is (alpha/beta) * R_alpha(lam); the variance is computed from
    raw moments as M2 - M1^2 (the derivative form of the variance is kept
    as a cross-check invariant in the tests, not as the production path).
    """
    mean = (p.alpha / p.beta) * laguerre_ratio(p.alpha, p.lam)
    m2 = raw_moment(2, p)
    return mean, m2 - mean * mean


def excess_kurtosis(p: PowerParams) -> float:
    """Excess kurtosis kappa4 / kappa2^2 of the power distribution, with the
    cumulants taken from the raw moments m1..m4."""
    m1, m2, m3, m4 = (raw_moment(n, p) for n in (1, 2, 3, 4))
    kappa2 = m2 - m1 * m1
    kappa4 = m4 - 4.0 * m1 * m3 - 3.0 * m2 * m2 + 12.0 * m1 * m1 * m2 - 6.0 * m1**4
    return kappa4 / (kappa2 * kappa2)


def ncgamma_cumulant(n: int, p: PowerParams) -> float:
    """n-th cumulant of the noncentral gamma distribution at the same
    (alpha, beta, lam): kappa_n = (n-1)! (alpha + n lam) / beta^n."""
    n = int(n)
    if n < 1:
        raise ValueError(f"ncgamma_cumulant requires n >= 1, got {n}")
    return math.factorial(n - 1) * (p.alpha + n * p.lam) / p.beta**n


def ncgamma_excess_kurtosis(p: PowerParams) -> float:
    """Excess kurtosis of the noncentral gamma baseline."""
    k2 = ncgamma_cumulant(2, p)
    k4 = ncgamma_cumulant(4, p)
    return k4 / (k2 * k2)


def kurtosis_sweep(lambdas, alphas, beta: float = 1.0):
    """Yield (lam, alpha, gamma2_proposed, gamma2_ncgamma) rows for the
    kurtosis comparison sweep (CSV export through the CLI)."""
    for alpha in alphas:
        for lam in lambdas:
            p = PowerParams(alpha=float(alpha), beta=float(beta), lam=float(lam))
            yield (
                float(lam),
                float(alpha),
                excess_kurtosis(p),
                ncgamma_excess_kurtosis(p),
            )
