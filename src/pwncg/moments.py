"""Closed-form moments and cumulants of the power distribution.

All quantities are assembled in log domain (raw moments and the Laguerre
ratios are products of fast-growing positive factors) and exponentiated at
the end. The noncentral-gamma cumulant formula is included as the baseline
the kurtosis comparison is made against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

from .distributions import PowerParams
from .special import _log_laguerre_neg_rows, log_laguerre_neg

__all__ = [
    "raw_moment",
    "laguerre_ratio",
    "mean_variance",
    "excess_kurtosis",
    "ncgamma_cumulant",
    "ncgamma_excess_kurtosis",
    "kurtosis_sweep",
]


def _log_raw_moments(orders, p: PowerParams) -> np.ndarray:
    """ln M_n for each n of orders,

    ln M_n = ln (alpha)_n - n ln beta + ln S(alpha + n, lam) - ln S(alpha, lam),

    where S is the confluent normalizer series; every S comes from one
    row-batched call (S = 1 at lam = 0)."""
    n = np.asarray(orders, dtype=float)
    shapes = p.alpha + np.concatenate([[0.0], n])
    if p.lam == 0.0:
        log_s = np.zeros(shapes.size)
    else:
        log_s = _log_laguerre_neg_rows(shapes, np.full(shapes.size, float(p.lam)))
    return gammaln(p.alpha + n) - gammaln(p.alpha) - n * math.log(p.beta) + log_s[1:] - log_s[0]


def raw_moment(n: int, p: PowerParams) -> float:
    """n-th raw moment of the power distribution.

    M_n = (alpha)_n / beta^n * S(alpha + n, lam) / S(alpha, lam),
    where S is the confluent normalizer series.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"raw_moment requires n >= 1, got {n}")
    return math.exp(float(_log_raw_moments([n], p)[0]))


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
    m1, m2, m3, m4 = (math.exp(v) for v in _log_raw_moments([1, 2, 3, 4], p).tolist())
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
