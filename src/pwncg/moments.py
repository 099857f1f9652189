"""Closed-form moments, cumulants, and the MGF of the power distribution.

All quantities are assembled in log domain (raw moments and the Laguerre
ratios are products of fast-growing positive factors) and exponentiated at
the end. The noncentral-gamma cumulant formula is included as the baseline
the kurtosis comparison is made against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .distributions import PowerParams
from .special import log_laguerre_neg, log_pochhammer

__all__ = [
    "MomentReport",
    "raw_moment",
    "laguerre_ratio",
    "mean_variance",
    "mgf",
    "excess_kurtosis",
    "moment_report",
    "ncgamma_cumulant",
    "ncgamma_excess_kurtosis",
    "kurtosis_sweep",
]


@dataclass(frozen=True)
class MomentReport:
    """Raw moments m1..m4, the second and fourth cumulants, and the excess
    kurtosis kappa4 / kappa2^2."""

    m1: float
    m2: float
    m3: float
    m4: float
    kappa2: float
    kappa4: float
    excess_kurtosis: float


def raw_moment(n: int, p: PowerParams) -> float:
    """n-th raw moment of the power distribution.

    M_n = (alpha)_n / beta^n * S(alpha + n, lam) / S(alpha, lam),
    where S is the confluent normalizer series.
    """
    n = int(n)
    if n < 1:
        raise ValueError(f"raw_moment requires n >= 1, got {n}")
    log_m = (
        log_pochhammer(p.alpha, n)
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


def mgf(t: float, p: PowerParams) -> float:
    """Moment generating function, defined for t < beta.

    M(t) = (beta/(beta-t))^alpha * S(alpha, beta lam/(beta-t)) / S(alpha, lam).
    """
    t = float(t)
    if not math.isfinite(t) or t >= p.beta:
        raise ValueError(f"mgf requires t < beta = {p.beta}, got t = {t}")
    log_val = (
        p.alpha * (math.log(p.beta) - math.log(p.beta - t))
        + log_laguerre_neg(p.alpha, p.beta * p.lam / (p.beta - t))
        - log_laguerre_neg(p.alpha, p.lam)
    )
    return math.exp(log_val)


def moment_report(p: PowerParams) -> MomentReport:
    """Raw moments up to order four with the derived cumulants."""
    m1, m2, m3, m4 = (raw_moment(n, p) for n in (1, 2, 3, 4))
    kappa2 = m2 - m1 * m1
    kappa4 = (
        m4
        - 4.0 * m1 * m3
        - 3.0 * m2 * m2
        + 12.0 * m1 * m1 * m2
        - 6.0 * m1**4
    )
    return MomentReport(
        m1=m1,
        m2=m2,
        m3=m3,
        m4=m4,
        kappa2=kappa2,
        kappa4=kappa4,
        excess_kurtosis=kappa4 / (kappa2 * kappa2),
    )


def excess_kurtosis(p: PowerParams) -> float:
    """Excess kurtosis kappa4 / kappa2^2 of the power distribution."""
    return moment_report(p).excess_kurtosis


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
