"""Log densities for the power-weighted complex Gaussian family.

The family is parametrized three equivalent ways depending on the variate:
on the complex plane (mu, sigma2, alpha), on the amplitude axis
(nu = |mu|, sigma2, alpha), and on the power axis (alpha, beta = 1/sigma2,
lam = nu^2/sigma2). Classical special cases (complex normal, Rice,
Rayleigh, half-normal, Nakagami, gamma, noncentral gamma) are provided
alongside for reduction checks and baseline fitting.

All densities are evaluated in log domain; only the CSV grid exports
exponentiate. Functions are vectorized over the variate, with scalar
parameters. The exponential, gamma, noncentral-gamma and power densities
are the one-row case of row-batched kernels (_log_pdf_*_rows: one
parameter set per row of an (R, n) variate), which the fits' group
log-likelihood pass calls; a row's values never depend on the other rows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .special import (
    _log_iv_padded,
    _log_laguerre_neg_rows,
    log_bessel_i0,
    log_bessel_i_nu,
    log_laguerre_neg,
    log_laguerre_pos_arg,
)

__all__ = [
    "ComplexParams",
    "AmplitudeParams",
    "PowerParams",
    "PoissonTypeParams",
    "log_pdf_complex",
    "log_pdf_amplitude",
    "log_pdf_power",
    "log_pmf_poisson_type",
    "log_pdf_exponential",
    "log_pdf_gamma",
    "log_pdf_noncentral_gamma",
    "log_pdf_rice",
    "log_pdf_nakagami",
    "complex_density_rows",
    "scalar_density_rows",
]


def _check(name: str, value, zero_ok: bool = False) -> None:
    """Raise unless a scalar parameter is finite and positive, or
    nonnegative if zero_ok."""
    if not (math.isfinite(value) and (value >= 0.0 if zero_ok else value > 0.0)):
        raise ValueError(
            f"{name} must be {'nonnegative' if zero_ok else 'positive'}, got {value}"
        )


def _check_power_axis(name: str, centroid, sigma2: float) -> None:
    """Raise unless the rate 1/sigma2 and the noncentrality
    |centroid|^2/sigma2 of a complex or amplitude law with a checked finite
    centroid and sigma2 > 0 lie in the float range."""
    try:
        finite = math.isfinite(1.0 / sigma2) and math.isfinite(abs(centroid) ** 2 / sigma2)
    except OverflowError:
        finite = False
    if not finite:
        raise ValueError(
            f"{name} = {centroid} and sigma2 = {sigma2} give a rate 1/sigma2 or a "
            f"noncentrality |{name}|^2/sigma2 outside the float range"
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
        _check_power_axis("mu", mu, self.sigma2)

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
        _check_power_axis("nu", self.nu, self.sigma2)

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


@dataclass(frozen=True)
class PoissonTypeParams:
    """Parameters of the distorted-Poisson integer law with pmf
    proportional to (alpha)_n lam^n / (n!)^2."""

    lam: float
    alpha: float

    def __post_init__(self) -> None:
        _check("lam", self.lam, zero_ok=True)
        _check("alpha", self.alpha)


def _positive_variate(x, name: str):
    """The variate as a 1-d float array checked finite and positive, and
    whether it was given as a scalar."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive")
    return np.atleast_1d(arr), arr.ndim == 0


# The smallest positive normal double.
_TINY = float(np.finfo(float).tiny)


def _math_log(v: np.ndarray) -> np.ndarray:
    """math.log of each element. The densities take ln of their scalar
    parameters with math.log, which differs from numpy's log in the last
    bit of some doubles; the row kernels keep math's values."""
    return np.array([math.log(e) for e in v.tolist()])


def _at_one_row(rows, x: np.ndarray, scalar: bool, *params, log_x: bool = True):
    """The density that the row kernel rows(x, [ln x,] *params) gives at
    one parameter set, over a checked variate x of any shape: x is passed
    as one row, each parameter as a (1,) array."""
    flat = x.reshape(1, -1)
    variate = (flat, np.log(flat)) if log_x else (flat,)
    out = rows(*variate, *(np.array([p], dtype=float) for p in params)).reshape(x.shape)
    return float(out[0]) if scalar else out


def _log_pdf_exponential_rows(x: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """Exponential log density at rate[r] of each row r of x (R, n)."""
    return _math_log(rate)[:, None] - rate[:, None] * x


def _log_pdf_gamma_rows(x: np.ndarray, log_x: np.ndarray, alpha, beta) -> np.ndarray:
    """Gamma log density at alpha[r], beta[r] of each row r of x (R, n),
    with log_x = ln x."""
    head = alpha * _math_log(beta) - gammaln(alpha)
    return head[:, None] + (alpha - 1.0)[:, None] * log_x - beta[:, None] * x


def _log_pdf_noncentral_gamma_rows(x: np.ndarray, log_x: np.ndarray, alpha, beta, lam):
    """Noncentral gamma log density at alpha[r], beta[r], lam[r] of each
    row r of x (R, n), with log_x = ln x: the gamma density where lam = 0.

    ln I_nu comes from log_bessel_i_nu's kernel, in its rows. A row with a
    Bessel argument that is not positive and finite, or a series that does
    not converge, takes log_bessel_i_nu itself, which raises on an
    infinite argument. Where beta lam is subnormal, the Bessel argument is
    z = 2 exp((ln beta + ln lam + ln x) / 2), not 2 sqrt((beta lam) x),
    which would keep only the product's few bits. Where z/2 is not normal
    (beta lam x underflows), ln I_nu is the series' leading term,
    nu ln(beta lam x) / 2 - ln Gamma(nu + 1): the next is below 1e-300 of
    it. Where alpha <= 2^-54, alpha - 1 rounds to
    -1; there the kernel sums I_1 = I_{-1} (DLMF 10.27.1), and the term
    alpha (z/2)^-1 by which I_{alpha-1}(z) exceeds it at small z is added.
    """
    shifted = np.flatnonzero(lam > 0.0)
    if shifted.size < lam.size:
        out = np.empty(x.shape)
        at_zero = lam == 0.0
        out[at_zero] = _log_pdf_gamma_rows(
            x[at_zero], log_x[at_zero], alpha[at_zero], beta[at_zero]
        )
        if shifted.size:
            out[shifted] = _log_pdf_noncentral_gamma_rows(
                x[shifted], log_x[shifted], alpha[shifted], beta[shifted], lam[shifted]
            )
        return out
    nu = alpha - 1.0
    half = 0.5 * nu
    log_beta, log_lam = _math_log(beta), _math_log(lam)
    head = -lam + 0.5 * (alpha + 1.0) * log_beta - half * log_lam
    order = np.where(nu > -1.0, nu, 1.0)
    arg = 2.0 * np.sqrt((beta * lam)[:, None] * x)
    zero = arg == 0.0
    # where beta lam is subnormal it keeps few bits: z = 2 exp(ln(z/2))
    # there, and z counts as 0 where z/2 is not normal
    low = np.flatnonzero(beta * lam < _TINY)
    if low.size:
        arg[low] = 2.0 * np.exp(0.5 * ((log_beta + log_lam)[low, None] + log_x[low]))
        zero[low] = arg[low] < 2.0 * _TINY
    plain = (arg > 0.0) & (arg < math.inf)
    log_i = _log_iv_padded(order, np.where(plain, arg, 1.0))
    for r in np.flatnonzero(~plain.all(axis=1) | np.isnan(log_i).any(axis=1)):
        log_i[r] = log_bessel_i_nu(order[r], arg[r])
    tiny = nu <= -1.0
    if zero.any() or tiny.any():
        # ln(z/2) of the Bessel argument z, also where z underflows to 0
        log_half_z = 0.5 * ((log_beta + log_lam)[:, None] + log_x)
        log_i[zero] = (order[:, None] * log_half_z - gammaln(order + 1.0)[:, None])[zero]
        # the kernel summed I_1 there, and I_{alpha-1}(z) = (z/2)^alpha
        # (I_1(z) + alpha / (z/2)) to within about alpha relative
        a = alpha[tiny, None]
        log_i[tiny] = a * log_half_z[tiny] + np.logaddexp(log_i[tiny], np.log(a) - log_half_z[tiny])
    return head[:, None] + half[:, None] * log_x - beta[:, None] * x + log_i


def _log_pdf_power_rows(x: np.ndarray, log_x: np.ndarray, alpha, beta, lam):
    """Power log density (log_pdf_power) at alpha[r], beta[r], lam[r] of
    each row r of x (R, n), with log_x = ln x. The confluent normalizers
    of all rows come from the value row of one kernel call; a row where
    that series does not converge takes log_laguerre_neg itself, which
    raises SeriesConvergenceError."""
    log_s = np.zeros(alpha.size)
    shifted = lam > 0.0
    if shifted.any():
        with np.errstate(over="ignore", invalid="ignore"):  # a failing window may overflow
            log_s[shifted] = _log_laguerre_neg_rows(alpha[shifted], lam[shifted])[0]
        for r in np.flatnonzero(np.isnan(log_s)):
            log_s[r] = log_laguerre_neg(alpha[r], lam[r])
    log_norm = alpha * _math_log(beta) - gammaln(alpha) - log_s
    return (
        (alpha - 1.0)[:, None] * log_x
        - beta[:, None] * x
        + log_bessel_i0(2.0 * np.sqrt((beta * lam)[:, None] * x))
        + log_norm[:, None]
    )


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
        -math.log(math.pi)
        - p.alpha * math.log(p.sigma2)
        - gammaln(p.alpha)
        - log_laguerre_pos_arg(p.alpha, lam)
    )
    if p.alpha == 1.0:
        radial = 0.0
    else:
        with np.errstate(divide="ignore"):
            radial = (2.0 * p.alpha - 2.0) * np.log(r)
    out = radial - np.abs(arr - p.mu) ** 2 / p.sigma2 + log_norm
    return float(out[0]) if scalar else out


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
        - gammaln(p.alpha)
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
    return _at_one_row(_log_pdf_power_rows, x_arr, scalar, p.alpha, p.beta, p.lam)


def log_pmf_poisson_type(n, p: PoissonTypeParams):
    """Log pmf of the distorted-Poisson law over nonnegative integers.

    ln p(n) = ln (alpha)_n + n ln lam - 2 ln n! - ln S(alpha, lam).
    Coincides with Poisson(lam) at alpha = 1; lam = 0 degenerates to a
    point mass at n = 0.
    """
    nf = np.asarray(n, dtype=float)
    if not np.all(np.isfinite(nf)):
        raise ValueError("n must be finite")
    if not np.all(nf == np.floor(nf)):
        raise ValueError("n must be integer-valued")
    scalar = nf.ndim == 0
    nf = np.atleast_1d(nf)
    if np.any(nf < 0):
        raise ValueError("n must be nonnegative")

    if p.lam == 0.0:
        out = np.where(nf == 0, 0.0, -np.inf)
    else:
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
    return _at_one_row(_log_pdf_exponential_rows, x_arr, scalar, rate, log_x=False)


def log_pdf_gamma(x, alpha: float, beta: float):
    """Gamma log density with shape alpha and rate beta."""
    _check("alpha", alpha)
    _check("beta", beta)
    x_arr, scalar = _positive_variate(x, "x")
    return _at_one_row(_log_pdf_gamma_rows, x_arr, scalar, alpha, beta)


def log_pdf_noncentral_gamma(x, alpha: float, beta: float, lam: float):
    """Noncentral gamma log density (scaled noncentral chi-square).

    ln p(x) = -lam + (alpha+1)/2 ln beta - (alpha-1)/2 ln lam
              + (alpha-1)/2 ln x - beta x + ln I_{alpha-1}(2 sqrt(beta lam x)).
    Reduces to the gamma density at lam = 0.
    """
    _check("lam", lam, zero_ok=True)
    _check("alpha", alpha)
    _check("beta", beta)
    x_arr, scalar = _positive_variate(x, "x")
    return _at_one_row(_log_pdf_noncentral_gamma_rows, x_arr, scalar, alpha, beta, lam)


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
        - gammaln(m)
        + (2.0 * m - 1.0) * np.log(r_arr)
        - m * r_arr**2 / omega
    )
    return float(out[0]) if scalar else out


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n), once the range's ends and width are checked
    finite: linspace would warn on them before the density's own check."""
    if not math.isfinite(float(hi) - float(lo)):
        raise ValueError(f"grid range [{lo:g}, {hi:g}] must be finite")
    return np.linspace(lo, hi, n)


def complex_density_rows(
    p: ComplexParams,
    re_range: tuple[float, float],
    im_range: tuple[float, float],
    n_re: int,
    n_im: int,
) -> np.ndarray:
    """(re, im, density) rows on a regular grid for CSV export, as an
    (n_re * n_im, 3) array, one imaginary part after another; the whole
    grid is one density call.

    Grid points that fall on an origin singularity (alpha < 1) get density
    nan rather than raising.
    """
    res = _grid(*re_range, n_re)
    ims = _grid(*im_range, n_im)
    z = res[None, :] + 1j * ims[:, None]
    origin = z == 0.0
    if p.alpha < 1.0 and origin.any():
        dens = np.full(z.shape, np.nan)
        ok = ~origin
        dens[ok] = np.exp(log_pdf_complex(z[ok], p))
    else:
        dens = np.exp(log_pdf_complex(z, p))
    return np.column_stack([np.tile(res, n_im), np.repeat(ims, n_re), dens.ravel()])


def scalar_density_rows(kind: str, params, x_min: float, x_max: float, n: int) -> np.ndarray:
    """(x, density) rows for the amplitude or power density, as an (n, 2)
    array."""
    if x_min <= 0.0:
        raise ValueError("grid must start at a positive value")
    xs = _grid(x_min, x_max, n)
    if kind == "amplitude":
        dens = np.exp(log_pdf_amplitude(xs, params))
    elif kind == "power":
        dens = np.exp(log_pdf_power(xs, params))
    else:
        raise ValueError(f"unknown density kind {kind!r}")
    return np.column_stack([xs, dens])
