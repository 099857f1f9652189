"""Maximum-likelihood fitting of the four power models.

The exponential rate has a closed form. The gamma fit profiles the rate
out and runs a one-dimensional quasi-Newton search over ln(shape); the
noncentral-gamma and proposed fits run a bounded three-parameter
quasi-Newton search over (ln alpha, ln beta, s) with lam = softplus(s),
so lam = 0 stays reachable. Each objective is the negated mean
log-likelihood; working with the per-sample mean keeps the gradient
tolerance meaningful independently of batch size. Each objective returns
its exact gradient from the same evaluation: the series that sum the
value (the confluent normalizer of the proposed law, the ascending series
of I_nu) also give its derivatives, as moments of their terms. Only
d/dnu of ln I_nu at Bessel arguments from special._IV_SERIES_CUTOFF on,
where scipy's ive gives the value, is a central difference in nu.

Every batch is divided by its mean before optimization and the rate is
rescaled afterwards; this keeps the noncentrality and the series arguments
in a comfortable numeric range and is exactly undone by the scale
equivariance of all four densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import minimize
from scipy.special import betainc, digamma, gammaln

from .distributions import (
    PowerParams,
    log_pdf_exponential,
    log_pdf_gamma,
    log_pdf_noncentral_gamma,
    log_pdf_power,
)
from .special import (  # noqa: F401  (the value-only kernels: see below)
    _log_bessel_i_nu_grad,
    _log_i0_grad,
    _log_i0_unchecked,
    _log_laguerre_neg_grad,
    log_bessel_i_nu,
    log_laguerre_neg,
)

# The objectives call the value-and-gradient kernels. The value-only
# _log_i0_unchecked, log_bessel_i_nu and log_laguerre_neg stay bound here
# because perfbench reads them: perfbench/tracing.py traces these
# bindings, and its noncentral_batches workload wraps log_laguerre_neg.

__all__ = [
    "FitResult",
    "Model",
    "MODELS",
    "FIT_MODELS",
    "fit_exponential",
    "fit_gamma",
    "fit_noncentral_gamma",
    "fit_proposed",
    "fit_model",
    "paired_t_test_one_sided",
]

# Parameter box for the transformed search. The alpha ceiling doubles as
# the degeneracy flag threshold (zero-variance batches push alpha there);
# the s ceiling caps lam at softplus(5000) = 5000, below which the
# confluent series always converges within its term budget for any
# in-bounds alpha.
_LN_ALPHA_BOUNDS = (math.log(1e-3), math.log(1e3))
_LN_BETA_BOUNDS = (math.log(1e-8), math.log(1e8))
_S_BOUNDS = (-40.0, 5000.0)
_ALPHA_DEGENERATE = 0.99 * 1e3


@dataclass(frozen=True)
class OptimizerConfig:
    """Quasi-Newton controls: gradient tolerance on the mean-LL objective,
    iteration cap per start, and the number of starts to attempt."""

    grad_tol: float = 1e-7
    max_iters: int = 500
    restarts: int = 3


DEFAULT_OPTIMIZER = OptimizerConfig()


@dataclass
class FitResult:
    """Outcome of fitting one model to one batch.

    log_likelihood is the batch total; avg_log_likelihood is the per-sample
    mean. converged means the projected-gradient max-norm of the
    transformed objective met the tolerance; degenerate flags batches
    (all-equal values, zero variance) where the shape ran into its bound.
    """

    model: str
    params: dict[str, float]
    log_likelihood: float
    avg_log_likelihood: float
    converged: bool
    iterations: int
    degenerate: bool = False


def _validate_batch(data) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("batch must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("batch values must be finite")
    if np.any(x <= 0.0):
        raise ValueError("batch values must be positive")
    return x


def _softplus(s: float) -> float:
    if s > 30.0:
        return s + math.log1p(math.exp(-s))
    return math.log1p(math.exp(s))


def _softplus_inv(lam: float) -> float:
    if lam > 30.0:
        return lam
    return math.log(math.expm1(lam))


def _projected_grad_norm(grad: np.ndarray, z: np.ndarray, bounds) -> float:
    pg = np.array(grad, dtype=float)
    for i, (lo, hi) in enumerate(bounds):
        if z[i] <= lo + 1e-12 and pg[i] > 0.0:
            pg[i] = 0.0
        if z[i] >= hi - 1e-12 and pg[i] < 0.0:
            pg[i] = 0.0
    return float(np.max(np.abs(pg)))


def _minimize(obj, z0: np.ndarray, bounds):
    """L-BFGS-B on obj(z) -> (value, gradient). scipy asks for the value
    and the gradient at the same point in separate calls; a one-slot cache
    keyed on z answers both from one evaluation, and the function handed
    to minimize returns the float value (perfbench counts penalty values
    from it)."""
    tol = DEFAULT_OPTIMIZER.grad_tol
    last = [None, None, None]  # z bytes, value, gradient

    def evaluate(z: np.ndarray):
        key = z.tobytes()
        if key != last[0]:
            last[:] = key, *obj(z)
        return last

    res = minimize(
        lambda z: evaluate(z)[1],
        z0,
        jac=lambda z: evaluate(z)[2],
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": DEFAULT_OPTIMIZER.max_iters, "ftol": 1e-13, "gtol": tol},
    )
    # res.jac is the exact gradient at res.x, from the optimizer's last evaluation.
    converged = bool(res.success) and _projected_grad_norm(res.jac, res.x, bounds) <= tol
    return res.x, float(res.fun), converged, int(res.nit)


def _fit_result(model: str, x: np.ndarray, m: float, params, converged, iterations):
    """The FitResult of a model at fitted params on batch x of mean m. A fit
    with a shape is degenerate when the shape ran into its bound or the
    normalized batch x / m has zero variance."""
    ll = MODELS[model].log_likelihood(x, params)
    alpha = params.get("alpha")
    degenerate = alpha is not None and (alpha >= _ALPHA_DEGENERATE or float(np.var(x / m)) == 0.0)
    return FitResult(model, params, ll, ll / x.size, converged, iterations, degenerate)


def fit_exponential(data) -> FitResult:
    """Closed-form exponential fit: rate = 1 / sample mean."""
    x = _validate_batch(data)
    m = float(np.mean(x))
    return _fit_result("exponential", x, m, {"rate": 1.0 / m}, True, 0)


def _gamma_profile_objective(mlog_y: float):
    # Mean log-likelihood of the mean-normalized batch with the rate
    # profiled out (beta = alpha when mean(y) = 1), negated, and its
    # derivative in ln alpha.
    def obj(z: np.ndarray):
        a = math.exp(float(z[0]))
        value = -(a * math.log(a) - float(gammaln(a)) + (a - 1.0) * mlog_y - a)
        return value, np.array([-a * (math.log(a) - float(digamma(a)) + mlog_y)])

    return obj


def fit_gamma(data) -> FitResult:
    """Gamma fit by profile likelihood over the shape.

    Never raises on hard batches: non-convergence and degeneracy are
    flagged on the result instead.
    """
    x = _validate_batch(data)
    m = float(np.mean(x))
    y = x / m
    mlog_y = float(np.mean(np.log(y)))
    obj = _gamma_profile_objective(mlog_y)

    # Moment-style initialization from the log-mean gap; the gap vanishes
    # for constant batches, where the likelihood is maximized at the bound.
    gap = -mlog_y
    if gap > 1e-12:
        a0 = (3.0 - gap + math.sqrt((gap - 3.0) ** 2 + 24.0 * gap)) / (12.0 * gap)
        a0 = min(max(a0, 1.05e-3), 0.95e3)
    else:
        a0 = 10.0
    bounds = [_LN_ALPHA_BOUNDS]
    z, fval, converged, nit = _minimize(obj, np.array([math.log(a0)]), bounds)

    # The exponential point (alpha = 1) is kept as a closed-form candidate
    # so the fitted likelihood can never fall below the exponential one.
    at_one = obj(np.zeros(1))[0]
    if at_one < fval:
        z, fval, converged = np.zeros(1), at_one, True

    alpha = math.exp(float(z[0]))
    return _fit_result("gamma", x, m, {"alpha": alpha, "beta": alpha / m}, converged, nit)


def _moment_matched_start(y: np.ndarray):
    """Method-of-moments start from the noncentral-gamma cumulants.

    Solving mean = (alpha+lam)/beta, var = (alpha+2lam)/beta^2 and the
    third cumulant 2(alpha+3lam)/beta^3 gives a quadratic in beta; valid
    roots yield a positive (alpha, lam) pair. Returns None when the sample
    skewness makes the system infeasible.
    """
    m = float(np.mean(y))
    v = float(np.var(y))
    if v <= 0.0:
        return None
    k3 = float(np.mean((y - m) ** 3))
    if k3 <= 0.0:
        return None
    s = k3 / v**1.5
    disc = 16.0 * v * v - 8.0 * s * v**1.5 * m
    if disc < 0.0:
        return None
    for root_sign in (1.0, -1.0):
        beta = (4.0 * v + root_sign * math.sqrt(disc)) / (2.0 * s * v**1.5)
        if not (math.isfinite(beta) and beta > 0.0):
            continue
        lam = v * beta * beta - m * beta
        alpha = m * beta - lam
        if lam > 1e-10 and alpha > 0.0:
            a = min(max(alpha, 1.05e-3), 0.95e3)
            lam = min(lam, 4000.0)
            return np.array([math.log(a), math.log(beta), _softplus_inv(lam)])
    return None


# Starts whose objectives lie within this fraction of max(1, |best|) of the
# best one reached the same optimum; the objective is a mean log-likelihood.
_TIE_RTOL = 1e-10


def _pick_start(runs):
    """The (z, fval, converged, nit) run a multi-start fit reports.

    That is the first run with the lowest objective, unless another run
    tied with it (within _TIE_RTOL) met the gradient tolerance: then the
    first such converged run. Otherwise the converged flag of a fit would
    follow last-bit differences between starts that found the same optimum.
    """
    best = min(runs, key=lambda run: run[1])
    tol = _TIE_RTOL * max(1.0, abs(best[1]))
    return next((run for run in runs if run[2] and run[1] <= best[1] + tol), best)


def _noncentral_gamma_mean_ll(a, b, lam, mlog, m1, sqrt_y):
    """Mean noncentral-gamma LL of a batch y, from mean(ln y), mean(y) and
    sqrt(y), and its gradient in (ln a, ln b, ln lam)."""
    log_b = math.log(b)
    log_lam = math.log(lam)
    log_i, d_nu, x_dx = _log_bessel_i_nu_grad(a - 1.0, 2.0 * math.sqrt(b * lam) * sqrt_y)
    value = (
        -lam
        + 0.5 * (a + 1.0) * log_b
        - 0.5 * (a - 1.0) * log_lam
        + 0.5 * (a - 1.0) * mlog
        - b * m1
        + float(np.mean(log_i))
    )
    # The Bessel argument 2 sqrt(b lam y) moves by half a step in ln b or
    # ln lam, so each gets half of x d/dx of the Bessel term.
    half_x_dx = 0.5 * float(np.mean(x_dx))
    return value, (
        a * (0.5 * (log_b - log_lam + mlog) + float(np.mean(d_nu))),
        0.5 * (a + 1.0) - b * m1 + half_x_dx,
        -lam - 0.5 * (a - 1.0) + half_x_dx,
    )


def _proposed_mean_ll(a, b, lam, mlog, m1, sqrt_y):
    """Mean log-likelihood of the proposed law and its gradient, as
    _noncentral_gamma_mean_ll."""
    log_b = math.log(b)
    log_s, ds_da, lam_ds_dlam = _log_laguerre_neg_grad(a, lam)
    log_i0, x_dx = _log_i0_grad(2.0 * math.sqrt(b * lam) * sqrt_y)
    value = (
        a * log_b
        - float(gammaln(a))
        - log_s
        + (a - 1.0) * mlog
        - b * m1
        + float(np.mean(log_i0))
    )
    half_x_dx = 0.5 * float(np.mean(x_dx))
    return value, (
        a * (log_b - float(digamma(a)) - ds_da + mlog),
        a - b * m1 + half_x_dx,
        -lam_ds_dlam + half_x_dx,
    )


def _shifted_objective(mean_ll, y: np.ndarray):
    """obj(z) -> (value, gradient) at z = (ln a, ln b, s), lam = softplus(s):
    the negated mean_ll of the normalized batch y, or 1e300 with a zero
    gradient where it raises an ArithmeticError or is not finite."""
    # Sufficient statistics of the objective; only the Bessel term needs
    # the full sample vector per evaluation.
    stats = (float(np.mean(np.log(y))), float(np.mean(y)), np.sqrt(y))

    def obj(z: np.ndarray):
        a = math.exp(float(z[0]))
        b = math.exp(float(z[1]))
        lam = _softplus(float(z[2]))
        try:
            val, (ga, gb, glam) = mean_ll(a, b, lam, *stats)
        except (ArithmeticError, FloatingPointError, OverflowError):
            return 1e300, np.zeros(3)
        # dlam/ds = 1 - exp(-lam), so d/ds = (lam d/dlam) (1 - exp(-lam)) / lam.
        grad = -np.array([ga, gb, glam * -math.expm1(-lam) / lam])
        if not (math.isfinite(val) and np.isfinite(grad).all()):
            return 1e300, np.zeros(3)
        return -val, grad

    return obj


def _fit_shifted_family(model: str, data, rng, mean_ll, gamma_fit=None, extra_start=None):
    """Multi-start fit of an (alpha, beta, lam) family by mean_ll(a, b, lam,
    mean(ln y), mean(y), sqrt(y)) -> (value, gradient in (ln a, ln b,
    ln lam)). Starts: the gamma fit (gamma_fit if given, else fitted here)
    with lam at its floor and near 0, extra_start(y) unless it or its value
    is None, then jitters of the second start drawn from rng."""
    x = _validate_batch(data)
    m = float(np.mean(x))
    y = x / m
    obj = _shifted_objective(mean_ll, y)
    g = gamma_fit if gamma_fit is not None else fit_gamma(data)
    ln_ag = math.log(g.params["alpha"])
    # beta of the gamma fit on the normalized batch equals its alpha.
    starts = [
        np.array([ln_ag, ln_ag, _S_BOUNDS[0]]),
        np.array([ln_ag, ln_ag, _softplus_inv(0.01)]),
    ]
    if extra_start is not None:
        z0 = extra_start(y)
        if z0 is not None:
            starts.append(z0)
    while len(starts) < DEFAULT_OPTIMIZER.restarts and rng is not None:
        jitter = rng.normal(scale=0.5, size=3)
        starts.append(starts[1] + jitter * np.array([1.0, 1.0, 2.0]))

    bounds = [_LN_ALPHA_BOUNDS, _LN_BETA_BOUNDS, _S_BOUNDS]
    runs = []
    for z0 in starts:
        z0 = np.clip(z0, [b[0] for b in bounds], [b[1] for b in bounds])
        runs.append(_minimize(obj, z0, bounds))
    z, _, converged, _ = _pick_start(runs)
    alpha = math.exp(float(z[0]))
    lam = _softplus(float(z[2]))
    if lam < 1e-12:
        lam = 0.0
    params = {"alpha": alpha, "beta": math.exp(float(z[1])) / m, "lambda": lam}
    return _fit_result(model, x, m, params, converged, sum(run[3] for run in runs))


def fit_noncentral_gamma(
    data, rng: np.random.Generator | None = None, gamma_fit: FitResult | None = None
) -> FitResult:
    """Noncentral-gamma fit over (ln alpha, ln beta, softplus lam),
    initialized from the gamma fit with a small starting noncentrality.
    gamma_fit, if given, must be fit_gamma(data); it is then not refitted."""
    return _fit_shifted_family(
        "noncentral_gamma", data, rng, _noncentral_gamma_mean_ll, gamma_fit
    )


def fit_proposed(
    data, rng: np.random.Generator | None = None, gamma_fit: FitResult | None = None
) -> FitResult:
    """Fit of the proposed power distribution with multiple starts: the
    gamma fit with lam near zero, and a moment-matched point. gamma_fit
    as in fit_noncentral_gamma."""
    return _fit_shifted_family(
        "proposed", data, rng, _proposed_mean_ll, gamma_fit, _moment_matched_start
    )


def fit_model(
    model: str,
    data,
    rng: np.random.Generator | None = None,
    gamma_fit: FitResult | None = None,
) -> FitResult:
    """Fit the named model; see FIT_MODELS for the choices. gamma_fit, if
    given, must be the gamma fit of data; the noncentral-gamma and
    proposed fits then start from it instead of fitting the gamma again."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {FIT_MODELS}")
    return MODELS[model].fit(data, rng, gamma_fit)


@dataclass(frozen=True)
class Model:
    """One compared power model: its name, extra names the CLI accepts, the
    keys of its fitted parameters, log_likelihood(x, params) = the batch
    total at given parameters, and fit(data, rng, gamma_fit) -> FitResult
    (see fit_model). The
    callables look module functions up when called, so that bindings
    replaced at run time (a tracer, a test stub) are the ones used."""

    name: str
    aliases: tuple[str, ...]
    params: tuple[str, ...]
    log_likelihood: Callable[[np.ndarray, dict], float]
    fit: Callable[..., FitResult]


MODELS = {
    m.name: m
    for m in (
        Model(
            "exponential", ("exp",), ("rate",),
            lambda x, p: float(np.sum(log_pdf_exponential(x, p["rate"]))),
            lambda data, rng, gamma_fit: fit_exponential(data),
        ),
        Model(
            "gamma", (), ("alpha", "beta"),
            lambda x, p: float(np.sum(log_pdf_gamma(x, p["alpha"], p["beta"]))),
            lambda data, rng, gamma_fit: fit_gamma(data),
        ),
        Model(
            "noncentral_gamma", ("ncgamma",), ("alpha", "beta", "lambda"),
            lambda x, p: float(
                np.sum(log_pdf_noncentral_gamma(x, p["alpha"], p["beta"], p["lambda"]))
            ),
            lambda data, rng, gamma_fit: fit_noncentral_gamma(data, rng, gamma_fit),
        ),
        Model(
            "proposed", (), ("alpha", "beta", "lambda"),
            lambda x, p: float(
                np.sum(log_pdf_power(x, PowerParams(p["alpha"], p["beta"], p["lambda"])))
            ),
            lambda data, rng, gamma_fit: fit_proposed(data, rng, gamma_fit),
        ),
    )
}
FIT_MODELS = tuple(MODELS)


def paired_t_test_one_sided(a, b) -> float:
    """p-value of the paired one-sided t-test of H1: mean(a - b) > 0.

    The Student-t tail probability is evaluated through the regularized
    incomplete beta function with n - 1 degrees of freedom. Zero-variance
    differences resolve by sign: p = 0 if the common difference is
    positive, 1 if negative, 0.5 if identically zero.
    """
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if av.size < 2:
        raise ValueError("need at least two pairs")
    d = av - bv
    n = d.size
    md = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        if md > 0.0:
            return 0.0
        if md < 0.0:
            return 1.0
        return 0.5
    t = md / (sd / math.sqrt(n))
    df = n - 1
    tail = 0.5 * float(betainc(0.5 * df, 0.5, df / (df + t * t)))
    return tail if t >= 0.0 else 1.0 - tail
