"""Maximum-likelihood fitting of the four power models.

The exponential rate has a closed form. The gamma fit profiles the rate
out and runs a one-dimensional quasi-Newton search over ln(shape); the
noncentral-gamma and proposed fits run a bounded three-parameter
quasi-Newton search over (ln alpha, ln beta, s) with lam = softplus(s),
so lam = 0 stays reachable. Gradients are central finite differences of
the mean log-likelihood; working with the per-sample mean keeps the
gradient tolerance meaningful independently of batch size.

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
from scipy.special import betainc, gammaln

from .distributions import (
    PowerParams,
    log_pdf_exponential,
    log_pdf_gamma,
    log_pdf_noncentral_gamma,
    log_pdf_power,
)
from .special import _log_i0_unchecked, log_bessel_i_nu, log_laguerre_neg

__all__ = [
    "FitResult",
    "OptimizerConfig",
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
# confluent series always converges within its default term budget for
# any in-bounds alpha.
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

    def __post_init__(self) -> None:
        if self.grad_tol <= 0.0:
            raise ValueError(f"grad_tol must be positive, got {self.grad_tol}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")


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


def _central_diff_grad(f, z: np.ndarray, rel_h: float = 1e-5) -> np.ndarray:
    g = np.empty_like(z)
    for i in range(z.size):
        h = rel_h * max(1.0, abs(z[i]))
        zp = z.copy()
        zm = z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (f(zp) - f(zm)) / (2.0 * h)
    return g


def _projected_grad_norm(grad: np.ndarray, z: np.ndarray, bounds) -> float:
    pg = np.array(grad, dtype=float)
    for i, (lo, hi) in enumerate(bounds):
        if z[i] <= lo + 1e-12 and pg[i] > 0.0:
            pg[i] = 0.0
        if z[i] >= hi - 1e-12 and pg[i] < 0.0:
            pg[i] = 0.0
    return float(np.max(np.abs(pg)))


def _minimize(obj, z0: np.ndarray, bounds, cfg: OptimizerConfig):
    res = minimize(
        obj,
        z0,
        jac=lambda z: _central_diff_grad(obj, z),
        method="L-BFGS-B",
        bounds=bounds,
        options={"maxiter": cfg.max_iters, "ftol": 1e-13, "gtol": cfg.grad_tol},
    )
    grad = _central_diff_grad(obj, res.x)
    converged = bool(res.success) and _projected_grad_norm(grad, res.x, bounds) <= cfg.grad_tol
    return res.x, float(res.fun), converged, int(res.nit)


def fit_exponential(data) -> FitResult:
    """Closed-form exponential fit: rate = 1 / sample mean."""
    x = _validate_batch(data)
    params = {"rate": 1.0 / float(np.mean(x))}
    ll = MODELS["exponential"].log_likelihood(x, params)
    return FitResult(
        model="exponential",
        params=params,
        log_likelihood=ll,
        avg_log_likelihood=ll / x.size,
        converged=True,
        iterations=0,
    )


def _gamma_profile_objective(mlog_y: float):
    # Mean log-likelihood of the mean-normalized batch with the rate
    # profiled out (beta = alpha when mean(y) = 1), negated.
    def obj(z: np.ndarray) -> float:
        a = math.exp(float(z[0]))
        return -(a * math.log(a) - float(gammaln(a)) + (a - 1.0) * mlog_y - a)

    return obj


def fit_gamma(data, cfg: OptimizerConfig = DEFAULT_OPTIMIZER) -> FitResult:
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
    z, fval, converged, nit = _minimize(obj, np.array([math.log(a0)]), bounds, cfg)

    # The exponential point (alpha = 1) is kept as a closed-form candidate
    # so the fitted likelihood can never fall below the exponential one.
    if obj(np.zeros(1)) < fval:
        z, fval, converged = np.zeros(1), obj(np.zeros(1)), True

    alpha = math.exp(float(z[0]))
    params = {"alpha": alpha, "beta": alpha / m}
    ll = MODELS["gamma"].log_likelihood(x, params)
    degenerate = alpha >= _ALPHA_DEGENERATE or float(np.var(y)) == 0.0
    return FitResult(
        model="gamma",
        params=params,
        log_likelihood=ll,
        avg_log_likelihood=ll / x.size,
        converged=converged,
        iterations=nit,
        degenerate=degenerate,
    )


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


def _fit_shifted_family(
    data, cfg: OptimizerConfig, model: str, rng: np.random.Generator | None
) -> FitResult:
    x = _validate_batch(data)
    m = float(np.mean(x))
    y = x / m

    # Sufficient statistics of the objective; only the Bessel term needs
    # the full sample vector per evaluation.
    mlog = float(np.mean(np.log(y)))
    m1 = float(np.mean(y))
    sqrt_y = np.sqrt(y)

    if model == "proposed":
        def mean_ll(a, b, lam):
            return (
                a * math.log(b)
                - float(gammaln(a))
                - log_laguerre_neg(a, lam)
                + (a - 1.0) * mlog
                - b * m1
                + float(np.mean(_log_i0_unchecked(2.0 * math.sqrt(b * lam) * sqrt_y)))
            )
    else:
        def mean_ll(a, b, lam):
            return (
                -lam
                + 0.5 * (a + 1.0) * math.log(b)
                - 0.5 * (a - 1.0) * math.log(lam)
                + 0.5 * (a - 1.0) * mlog
                - b * m1
                + float(
                    np.mean(log_bessel_i_nu(a - 1.0, 2.0 * math.sqrt(b * lam) * sqrt_y))
                )
            )

    def obj(z: np.ndarray) -> float:
        a = math.exp(float(z[0]))
        b = math.exp(float(z[1]))
        lam = _softplus(float(z[2]))
        try:
            val = -mean_ll(a, b, lam)
        except (ArithmeticError, FloatingPointError, OverflowError):
            return 1e300
        return val if math.isfinite(val) else 1e300

    g = fit_gamma(data, cfg)
    ln_ag = math.log(g.params["alpha"])
    # beta of the gamma fit on the normalized batch equals its alpha.
    starts = [
        np.array([ln_ag, ln_ag, _S_BOUNDS[0]]),
        np.array([ln_ag, ln_ag, _softplus_inv(0.01)]),
    ]
    if model == "proposed":
        mm = _moment_matched_start(y)
        if mm is not None:
            starts.append(mm)
    starts = starts[: max(1, cfg.restarts)]
    while len(starts) < cfg.restarts and rng is not None:
        jitter = rng.normal(scale=0.5, size=3)
        starts.append(starts[1] + jitter * np.array([1.0, 1.0, 2.0]))

    bounds = [_LN_ALPHA_BOUNDS, _LN_BETA_BOUNDS, _S_BOUNDS]
    runs = []
    for z0 in starts:
        z0 = np.clip(z0, [b[0] for b in bounds], [b[1] for b in bounds])
        runs.append(_minimize(obj, z0, bounds, cfg))
    z, _, converged, _ = _pick_start(runs)
    total_nit = sum(run[3] for run in runs)
    alpha = math.exp(float(z[0]))
    beta_y = math.exp(float(z[1]))
    lam = _softplus(float(z[2]))
    if lam < 1e-12:
        lam = 0.0
    params = {"alpha": alpha, "beta": beta_y / m, "lambda": lam}
    ll = MODELS[model].log_likelihood(x, params)
    degenerate = alpha >= _ALPHA_DEGENERATE or float(np.var(y)) == 0.0
    return FitResult(
        model=model,
        params=params,
        log_likelihood=ll,
        avg_log_likelihood=ll / x.size,
        converged=converged,
        iterations=total_nit,
        degenerate=degenerate,
    )


def fit_noncentral_gamma(
    data,
    cfg: OptimizerConfig = DEFAULT_OPTIMIZER,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Noncentral-gamma fit over (ln alpha, ln beta, softplus lam),
    initialized from the gamma fit with a small starting noncentrality."""
    return _fit_shifted_family(data, cfg, "noncentral_gamma", rng)


def fit_proposed(
    data,
    cfg: OptimizerConfig = DEFAULT_OPTIMIZER,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Fit of the proposed power distribution with multiple starts: the
    gamma fit with lam near zero, and a moment-matched point."""
    return _fit_shifted_family(data, cfg, "proposed", rng)


def fit_model(
    model: str,
    data,
    cfg: OptimizerConfig = DEFAULT_OPTIMIZER,
    rng: np.random.Generator | None = None,
) -> FitResult:
    """Fit the named model; see FIT_MODELS for the choices."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {FIT_MODELS}")
    return MODELS[model].fit(data, cfg, rng)


@dataclass(frozen=True)
class Model:
    """One compared power model: its name, extra names the CLI accepts, the
    keys of its fitted parameters, log_likelihood(x, params) = the batch
    total at given parameters, and fit(data, cfg, rng) -> FitResult. The
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
            lambda data, cfg, rng: fit_exponential(data),
        ),
        Model(
            "gamma", (), ("alpha", "beta"),
            lambda x, p: float(np.sum(log_pdf_gamma(x, p["alpha"], p["beta"]))),
            lambda data, cfg, rng: fit_gamma(data, cfg),
        ),
        Model(
            "noncentral_gamma", ("ncgamma",), ("alpha", "beta", "lambda"),
            lambda x, p: float(
                np.sum(log_pdf_noncentral_gamma(x, p["alpha"], p["beta"], p["lambda"]))
            ),
            lambda data, cfg, rng: fit_noncentral_gamma(data, cfg, rng),
        ),
        Model(
            "proposed", (), ("alpha", "beta", "lambda"),
            lambda x, p: float(
                np.sum(log_pdf_power(x, PowerParams(p["alpha"], p["beta"], p["lambda"])))
            ),
            lambda data, cfg, rng: fit_proposed(data, cfg, rng),
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
