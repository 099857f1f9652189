"""Log densities for the power-weighted complex Gaussian family.

The family is parametrized three equivalent ways depending on the variate:
on the complex plane (mu, sigma2, alpha), on the amplitude axis
(nu = |mu|, sigma2, alpha), and on the power axis (alpha, beta = 1/sigma2,
lam = nu^2/sigma2). Classical special cases (complex normal, Rice,
Rayleigh, half-normal, Nakagami, gamma, noncentral gamma, noncentral chi)
are provided alongside for reduction checks and baseline fitting.

All densities are evaluated in log domain; only the CSV grid exports
exponentiate. Functions are vectorized over the variate, with scalar
parameters.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .special import (
    log_bessel_i0,
    log_bessel_i_nu,
    log_gamma,
    log_laguerre_neg,
    log_laguerre_pos_arg,
)

__all__ = [
    "ComplexParams",
    "AmplitudeParams",
    "PowerParams",
    "PoissonTypeParams",
    "log_pdf_complex",
    "log_pdf_joint_polar",
    "log_pdf_phase_given_r",
    "log_pdf_amplitude",
    "log_pdf_power",
    "log_pmf_poisson_type",
    "log_pdf_exponential",
    "log_pdf_gamma",
    "log_pdf_noncentral_gamma",
    "log_pdf_rice",
    "log_pdf_nakagami",
    "log_pdf_noncentral_chi",
    "complex_density_rows",
    "scalar_density_rows",
]

_LOG_PI = math.log(math.pi)
_LOG_2PI = math.log(2.0 * math.pi)


def _check(name: str, value, zero_ok: bool = False) -> None:
    """Raise unless a scalar parameter is finite and positive, or
    nonnegative if zero_ok."""
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise ValueError(
            f"{name} must be {'nonnegative' if zero_ok else 'positive'}, got {value}"
        )


@dataclass(frozen=True)
class ComplexParams:
    """Parameters of the complex-plane density: centroid mu, variance
    sigma2, and the dimensionless shape alpha (alpha = 1 recovers the
    complex normal)."""

    mu: complex
    sigma2: float
    alpha: float

    def __post_init__(self) -> None:
        mu = complex(self.mu)
        object.__setattr__(self, "mu", mu)
        if not (cmath.isfinite(mu)):
            raise ValueError(f"mu must be finite, got {mu}")
        _check("sigma2", self.sigma2)
        _check("alpha", self.alpha)

    @property
    def nu(self) -> float:
        return abs(self.mu)

    @property
    def mean_phase(self) -> float:
        return cmath.phase(self.mu)

    def amplitude_params(self) -> "AmplitudeParams":
        return AmplitudeParams(nu=abs(self.mu), sigma2=self.sigma2, alpha=self.alpha)

    def power_params(self) -> "PowerParams":
        return self.amplitude_params().power_params()


@dataclass(frozen=True)
class AmplitudeParams:
    """Amplitude-axis parametrization: nu = |mu| >= 0, sigma2 > 0, alpha > 0."""

    nu: float
    sigma2: float
    alpha: float

    def __post_init__(self) -> None:
        _check("nu", self.nu, zero_ok=True)
        _check("sigma2", self.sigma2)
        _check("alpha", self.alpha)

    def power_params(self) -> "PowerParams":
        return PowerParams(
            alpha=self.alpha,
            beta=1.0 / self.sigma2,
            lam=self.nu**2 / self.sigma2,
        )


@dataclass(frozen=True)
class PowerParams:
    """Power-axis parametrization: shape alpha > 0, rate beta > 0, and the
    dimensionless noncentrality lam = nu^2/sigma2 >= 0."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self) -> None:
        _check("alpha", self.alpha)
        _check("beta", self.beta)
        _check("lam", self.lam, zero_ok=True)

    def amplitude_params(self) -> AmplitudeParams:
        sigma2 = 1.0 / self.beta
        return AmplitudeParams(
            nu=math.sqrt(self.lam * sigma2), sigma2=sigma2, alpha=self.alpha
        )

    def poisson_type_params(self) -> "PoissonTypeParams":
        return PoissonTypeParams(lam=self.lam, alpha=self.alpha)


@dataclass(frozen=True)
class PoissonTypeParams:
    """Parameters of the distorted-Poisson integer law with pmf
    proportional to (alpha)_n lam^n / (n!)^2."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        _check("lam", self.lam, zero_ok=True)
        _check("alpha", self.alpha)


def _as_float_array(x, name: str):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _positive_variate(x, name: str):
    """The variate as a 1-d float array checked finite and positive, and
    whether it was given as a scalar."""
    arr = _as_float_array(x, name)
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive")
    return np.atleast_1d(arr), arr.ndim == 0


def log_pdf_complex(z, p: ComplexParams):
    """Log density on the complex plane.

    ln p(z) = (2 alpha - 2) ln|z| - |z - mu|^2 / sigma2 - ln(normalizer),
    with normalizer pi * sigma2^alpha * Gamma(alpha) * L_{alpha-1}(-|mu|^2/sigma2).

    For alpha < 1 the density has an integrable singularity at the origin;
    z = 0 is a domain error there so the caller decides the flooring
    policy. For alpha > 1 the density vanishes at the origin and -inf is
    returned.
    """
    arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(arr)):
        raise ValueError("z must be finite")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    r = np.abs(arr)
    if p.alpha < 1.0 and np.any(r == 0.0):
        raise ValueError("density diverges at z = 0 for alpha < 1")

    lam = abs(p.mu) ** 2 / p.sigma2
    log_norm = (
        -_LOG_PI
        - p.alpha * math.log(p.sigma2)
        - log_gamma(p.alpha)
        - log_laguerre_pos_arg(p.alpha, lam)
    )
    if p.alpha == 1.0:
        radial = 0.0
    else:
        with np.errstate(divide="ignore"):
            radial = (2.0 * p.alpha - 2.0) * np.log(r)
    out = radial - np.abs(arr - p.mu) ** 2 / p.sigma2 + log_norm
    return float(out[0]) if scalar else out


def log_pdf_joint_polar(r, theta, p: ComplexParams):
    """Joint log density of (amplitude, phase); includes the Jacobian ln r."""
    r_arr, scalar = _positive_variate(r, "r")
    theta_arr = np.atleast_1d(_as_float_array(theta, "theta"))
    z = r_arr * np.exp(1j * theta_arr)
    out = log_pdf_complex(z, p) + np.log(r_arr)
    return float(out[0]) if scalar else out


def log_pdf_phase_given_r(theta, r, p: ComplexParams):
    """Conditional phase log density given amplitude r > 0.

    This is a von Mises law with mean direction angle(mu) and concentration
    kappa = 2 |mu| r / sigma2; mu = 0 gives the uniform circle density.
    """
    r = float(r)
    _check("r", r)
    theta_arr = _as_float_array(theta, "theta")
    scalar = theta_arr.ndim == 0
    kappa = 2.0 * abs(p.mu) * r / p.sigma2
    out = kappa * np.cos(theta_arr - p.mean_phase) - _LOG_2PI - log_bessel_i0(kappa)
    return float(out) if scalar else out


def log_pdf_amplitude(r, p: AmplitudeParams):
    """Log density of the amplitude |z|.

    ln 2 + (2 alpha - 1) ln r - (r^2 + nu^2)/sigma2 + ln I0(2 nu r / sigma2)
    - alpha ln sigma2 - ln Gamma(alpha) - ln L_{alpha-1}(-nu^2/sigma2).
    """
    r_arr, scalar = _positive_variate(r, "r")
    lam = p.nu**2 / p.sigma2
    log_norm = (
        math.log(2.0)
        - p.alpha * math.log(p.sigma2)
        - log_gamma(p.alpha)
        - log_laguerre_pos_arg(p.alpha, lam)
    )
    out = (
        (2.0 * p.alpha - 1.0) * np.log(r_arr)
        - (r_arr**2 + p.nu**2) / p.sigma2
        + log_bessel_i0(2.0 * p.nu * r_arr / p.sigma2)
        + log_norm
    )
    return float(out[0]) if scalar else out


def log_pdf_power(x, p: PowerParams):
    """Log density of the power |z|^2.

    ln p(x) = alpha ln beta - ln Gamma(alpha) - ln S(alpha, lam)
              + (alpha - 1) ln x - beta x + ln I0(2 sqrt(beta lam x)),
    where S is the positive-term confluent normalizer.
    """
    x_arr, scalar = _positive_variate(x, "x")
    log_norm = (
        p.alpha * math.log(p.beta)
        - log_gamma(p.alpha)
        - log_laguerre_neg(p.alpha, p.lam)
    )
    out = (
        (p.alpha - 1.0) * np.log(x_arr)
        - p.beta * x_arr
        + log_bessel_i0(2.0 * np.sqrt(p.beta * p.lam * x_arr))
        + log_norm
    )
    return float(out[0]) if scalar else out


def log_pmf_poisson_type(n, p: PoissonTypeParams):
    """Log pmf of the distorted-Poisson law over nonnegative integers.

    ln p(n) = ln (alpha)_n + n ln lam - 2 ln n! - ln S(alpha, lam).
    Coincides with Poisson(lam) at alpha = 1; lam = 0 degenerates to a
    point mass at n = 0.
    """
    n_arr = np.asarray(n)
    if not np.issubdtype(n_arr.dtype, np.integer):
        n_float = np.asarray(n, dtype=float)
        if not np.all(n_float == np.floor(n_float)):
            raise ValueError("n must be integer-valued")
        n_arr = n_float.astype(np.int64)
    scalar = n_arr.ndim == 0
    n_arr = np.atleast_1d(n_arr)
    if np.any(n_arr < 0):
        raise ValueError("n must be nonnegative")

    if p.lam == 0.0:
        out = np.where(n_arr == 0, 0.0, -np.inf)
    else:
        nf = n_arr.astype(float)
        out = (
            gammaln(p.alpha + nf)
            - gammaln(p.alpha)
            + nf * math.log(p.lam)
            - 2.0 * gammaln(nf + 1.0)
            - log_laguerre_neg(p.alpha, p.lam)
        )
    return float(out[0]) if scalar else out


def log_pdf_exponential(x, rate: float):
    """Exponential log density, rate parametrization."""
    _check("rate", rate)
    x_arr, scalar = _positive_variate(x, "x")
    out = math.log(rate) - rate * x_arr
    return float(out[0]) if scalar else out


def log_pdf_gamma(x, alpha: float, beta: float):
    """Gamma log density with shape alpha and rate beta."""
    _check("alpha", alpha)
    _check("beta", beta)
    x_arr, scalar = _positive_variate(x, "x")
    out = (
        alpha * math.log(beta)
        - log_gamma(alpha)
        + (alpha - 1.0) * np.log(x_arr)
        - beta * x_arr
    )
    return float(out[0]) if scalar else out


def log_pdf_noncentral_gamma(x, alpha: float, beta: float, lam: float):
    """Noncentral gamma log density (scaled noncentral chi-square).

    ln p(x) = -lam + (alpha+1)/2 ln beta - (alpha-1)/2 ln lam
              + (alpha-1)/2 ln x - beta x + ln I_{alpha-1}(2 sqrt(beta lam x)).
    Reduces to the gamma density at lam = 0.
    """
    _check("lam", lam, zero_ok=True)
    if lam == 0.0:
        return log_pdf_gamma(x, alpha, beta)
    _check("alpha", alpha)
    _check("beta", beta)
    x_arr, scalar = _positive_variate(x, "x")
    half = 0.5 * (alpha - 1.0)
    out = (
        -lam
        + 0.5 * (alpha + 1.0) * math.log(beta)
        - half * math.log(lam)
        + half * np.log(x_arr)
        - beta * x_arr
        + log_bessel_i_nu(alpha - 1.0, 2.0 * np.sqrt(beta * lam * x_arr))
    )
    return float(out[0]) if scalar else out


def log_pdf_rice(r, nu: float, sigma2: float):
    """Rice log density: 2r/sigma2 * exp(-(r^2+nu^2)/sigma2) * I0(2 nu r/sigma2)."""
    _check("nu", nu, zero_ok=True)
    _check("sigma2", sigma2)
    r_arr, scalar = _positive_variate(r, "r")
    out = (
        math.log(2.0)
        + np.log(r_arr)
        - math.log(sigma2)
        - (r_arr**2 + nu**2) / sigma2
        + log_bessel_i0(2.0 * nu * r_arr / sigma2)
    )
    return float(out[0]) if scalar else out


def log_pdf_nakagami(r, m: float, omega: float):
    """Nakagami-m log density with spread omega = E[r^2]."""
    _check("m", m)
    _check("omega", omega)
    r_arr, scalar = _positive_variate(r, "r")
    out = (
        math.log(2.0)
        + m * math.log(m)
        - m * math.log(omega)
        - log_gamma(m)
        + (2.0 * m - 1.0) * np.log(r_arr)
        - m * r_arr**2 / omega
    )
    return float(out[0]) if scalar else out


def log_pdf_noncentral_chi(r, k: float, nu: float):
    """Noncentral chi log density with k degrees of freedom and
    noncentrality nu (unit scale)."""
    _check("k", k)
    _check("nu", nu)
    r_arr, scalar = _positive_variate(r, "r")
    out = (
        (1.0 - 0.5 * k) * math.log(nu)
        + 0.5 * k * np.log(r_arr)
        - 0.5 * (r_arr**2 + nu**2)
        + log_bessel_i_nu(0.5 * k - 1.0, nu * r_arr)
    )
    return float(out[0]) if scalar else out


def complex_density_rows(
    p: ComplexParams,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    n_re: int,
    n_im: int,
):
    """Yield (re, im, density) rows on a regular grid for CSV export.

    Grid points that fall on an origin singularity (alpha < 1) are emitted
    with density nan rather than raising.
    """
    res = np.linspace(re_range[0], re_range[1], n_re)
    ims = np.linspace(im_range[0], im_range[1], n_im)
    for im in ims:
        z = res + 1j * im
        origin = np.abs(z) == 0.0
        if p.alpha < 1.0 and origin.any():
            dens = np.full(z.shape, np.nan)
            ok = ~origin
            dens[ok] = np.exp(log_pdf_complex(z[ok], p))
        else:
            dens = np.exp(log_pdf_complex(z, p))
        for re, d in zip(res, dens):
            yield float(re), float(im), float(d)


def scalar_density_rows(kind: str, params, x_min: float, x_max: float, n: int):
    """Yield (x, density) rows for the amplitude or power density."""
    if x_min <= 0.0:
        raise ValueError("grid must start at a positive value")
    xs = np.linspace(x_min, x_max, n)
    if kind == "amplitude":
        dens = np.exp(log_pdf_amplitude(xs, params))
    elif kind == "power":
        dens = np.exp(log_pdf_power(xs, params))
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    for x, d in zip(xs, dens):
        yield float(x), float(d)
