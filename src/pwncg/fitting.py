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

Many batches are fitted at once. Each (batch, start) pair is one row of a
lock-step L-BFGS-B driver (_lbfgsb): every row keeps its own state of
L-BFGS-B's reverse-communication core, and at each step the rows that ask
for a value and gradient are evaluated together, in one call of a
row-batched objective. A row's search is the one
scipy.optimize.minimize(method="L-BFGS-B") makes, bit for bit, because a
row's value and gradient never depend on which other rows share its
evaluation (see special). fit_batches fits several models to many batches
this way; fit_model is fit_batches with one model and one batch.

The noncentral-gamma and proposed fits draw three starts per batch up
front and run them in restart passes over the batches of one length.
Pass 1 runs start 0 of every batch, and start 1 where lam = 0 is not a
local maximum of the batch's likelihood (see below); pass 2 runs start 1
where it is one and start 0 did not converge; pass 3 runs the later
starts where start 1 ran and did not converge, since they can then still
change the answer. The keep rule afterwards drops start 1 where lam = 0
is a maximum and start 0 converged, and the later starts where start 1
was dropped or converged. Where a pass's rows and the later starts of
the batches whose start 1 it runs fit in one set of _MAX_ROWS slots, as
in every fit_model call, those later starts run in that pass too, and
the keep rule drops them where start 1 converged; larger passes never
run a row they drop. A row's run never depends on the rows beside it, so
a fit keeps the same runs however its batch was scheduled, and its
counts sum over its kept runs only.

When lam = 0 is a local maximum. Both shifted families contain the gamma
law at lam = 0, and at the gamma fit (alpha, beta = alpha / mean(y)) the
lam-derivative of the mean LL vanishes for both: it is
beta mean(y) / alpha - 1 for the noncentral gamma and alpha times that for
the proposed law. To second order in lam, with m1 = mean(y) and
m2 = mean(y^2), the mean LL is the gamma LL plus

    proposed:          lam (beta m1 - alpha) - lam^2 (beta^2 m2 + alpha (1 - alpha)) / 4
    noncentral gamma:  lam (beta m1 / alpha - 1) - lam^2 beta^2 m2 / (2 alpha^2 (alpha + 1)),

from ln I0(2 sqrt z) = z - z^2/4, ln S(alpha, lam) = alpha lam +
alpha (1 - alpha) lam^2 / 4 and, for the noncentral gamma,
ln sum_n Gamma(alpha) z^n / (n! Gamma(alpha + n)) = z / alpha -
z^2 / (2 alpha^2 (alpha + 1)), with z = beta lam y. The curvature in lam
of the profile likelihood, (alpha, beta) re-optimized, is the Schur
complement L_ll - c' H^-1 c of the gamma Hessian H in (alpha, beta), with
c the mixed second derivatives; at the gamma fit c' H^-1 c = -alpha
(proposed) and -1/alpha (noncentral gamma), so the profile curvature is

    proposed:          (alpha / 2) (1 - alpha v)
    noncentral gamma:  (1 - alpha v) / (alpha (alpha + 1)),

with v = var(y) / mean(y)^2. Where alpha v > 1 both are negative, so
lam = 0 at the gamma fit is a local maximum over lam >= 0, and a start 0
that converged there has found it. This needs the gamma fit to be a
stationary point: its alpha strictly inside the box, neither degenerate
nor at the 1e-3 floor. Another maximum at some lam > 0 is not ruled out
by the curvature; the tests check the fits that keep start 0 alone
against an independent lam-profile optimum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.optimize import minimize  # noqa: F401  (bound for perfbench: see below)
# A private scipy symbol: L-BFGS-B's reverse-communication core (see _lbfgsb).
from scipy.optimize._lbfgsb import setulb
from scipy.special import digamma, gammaln, stdtr

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

# The objectives call the row-batched value-and-gradient kernels, and the
# driver calls L-BFGS-B's core directly. No fit path calls minimize or the
# value-only _log_i0_unchecked, log_bessel_i_nu and log_laguerre_neg; they
# stay bound here because perfbench/tracing.py traces these bindings and
# the noncentral_batches workload wraps log_laguerre_neg.

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
    "fit_batches",
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

# The value an objective returns, with a zero gradient, where it is not
# finite at the point asked for.
_PENALTY = 1e300


@dataclass(frozen=True)
class OptimizerConfig:
    """Quasi-Newton controls: gradient tolerance on the mean-LL objective,
    iteration cap per start, and the number of starts to attempt."""

    grad_tol: float = 1e-7
    max_iters: int = 500
    restarts: int = 3


DEFAULT_OPTIMIZER = OptimizerConfig()

# The other L-BFGS-B settings, as scipy.optimize.minimize(method="L-BFGS-B")
# applies them with ftol=1e-13: memory of 10 corrections, factr =
# ftol / eps, at most 20 line-search steps and 15 000 evaluations.
_LBFGSB_M = 10
_FACTR = 1e-13 / np.finfo(float).eps
_MAXLS = 20
_MAXFUN = 15_000

# setulb task codes: evaluate f and g at x; a new iterate; converged; stop.
_FG, _NEW_X, _CONVERGENCE, _STOP = 3, 1, 4, 5

# Rows in flight at once. Each holds about 10 KB of L-BFGS-B workspace,
# and the objective's temporaries grow with the rows it evaluates; the rest
# wait and take the place of rows that finish. On the 129-patch speech
# workload (2 vCPUs) 64 rows fit as fast as 256 with 4 MB less peak memory.
_MAX_ROWS = 64


@dataclass
class FitResult:
    """Outcome of fitting one model to one batch.

    log_likelihood is the batch total; avg_log_likelihood is the per-sample
    mean. converged means L-BFGS-B stopped on its own convergence test with
    a projected-gradient max-norm of at most 1e-7 at the reported start; the
    gamma fit's alpha = 1 candidate counts as converged when it wins, and a
    multi-start fit reports, among its kept starts, a converged one whose
    objective ties the best within 1e-10 of max(1, |best|), if there is
    one. degenerate flags batches (all-equal values, zero variance) where
    the shape ran into its bound.
    A noncentral-gamma or proposed fit keeps start 0 alone when start 0
    converged and lam = 0 is a local maximum at the batch's gamma fit (see
    the module docstring), starts 0 and 1 alone when start 1 converged,
    and every start it drew otherwise; starts_skipped counts the starts
    it dropped. iterations, evaluations and penalties sum the L-BFGS-B
    iterations, the objective evaluations and the evaluations that
    returned the penalty value over the kept starts; start is the index of
    the reported start (None for the closed-form exponential fit).
    """

    model: str
    params: dict[str, float]
    log_likelihood: float
    avg_log_likelihood: float
    converged: bool
    iterations: int
    degenerate: bool = False
    evaluations: int = 0
    penalties: int = 0
    start: int | None = None
    starts_skipped: int = 0


class _Run(NamedTuple):
    """One row's L-BFGS-B search: final point, value and gradient, scipy's
    success flag, converged (success and a projected gradient within the
    tolerance), iterations, evaluations and penalty evaluations."""

    x: np.ndarray
    fun: float
    jac: np.ndarray
    success: bool
    converged: bool
    nit: int
    nfev: int
    penalties: int


def _validate_batch(data) -> np.ndarray:
    x = np.asarray(data, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("batch must be nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("batch values must be finite")
    if np.any(x <= 0.0):
        raise ValueError("batch values must be positive")
    with np.errstate(over="ignore"):
        m = float(np.mean(x))
    if not math.isfinite(m):
        raise ValueError(f"batch mean overflows to {m:g}; rescale the batch")
    return x


def _softplus(s: np.ndarray) -> np.ndarray:
    """ln(1 + e^s), as s + ln(1 + e^-s) above s = 30, where e^s may overflow;
    only the branch that some element takes is computed."""
    if s.max() <= 30.0:
        return np.log1p(np.exp(s))
    if s.min() > 30.0:
        return s + np.log1p(np.exp(-s))
    with np.errstate(over="ignore"):
        return np.where(s > 30.0, s + np.log1p(np.exp(-s)), np.log1p(np.exp(s)))


def _softplus_inv(lam: float) -> float:
    if lam > 30.0:
        return lam
    return math.log(math.expm1(lam))


def _projected_grad_norm(grad: np.ndarray, z: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    at_bound = ((z <= lo + 1e-12) & (grad > 0.0)) | ((z >= hi - 1e-12) & (grad < 0.0))
    return float(np.max(np.abs(np.where(at_bound, 0.0, grad))))


def _lbfgsb(objective, z0: np.ndarray, bounds) -> list[_Run]:
    """L-BFGS-B from each row of z0 (R, d) in lock step; the _Run of every row.

    objective(rows, z) takes row indices (k,) and their points z (k, d)
    and returns the values (k,) and the gradients (k, d). Each row keeps
    its own state of setulb, the reverse-communication core of scipy's
    L-BFGS-B (a private scipy symbol, with the argument list of its C port
    from scipy 1.15 on). Each step advances every row in flight until it
    asks for f and g at a new point or stops; the rows that asked are then
    evaluated in one objective call. This is the loop of scipy's
    _minimize_lbfgsb, row by row: x0 clipped to the bounds, a point equal
    to the last one evaluated answered from that evaluation, and the
    iteration and evaluation caps checked at each new iterate.
    """
    n_rows, d = z0.shape
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    nbd = np.full(d, 2, dtype=np.int32)
    z0 = np.clip(z0, lo, hi)
    tol = DEFAULT_OPTIMIZER.grad_tol
    max_iters = DEFAULT_OPTIMIZER.max_iters

    slots = min(n_rows, _MAX_ROWS)
    x = np.zeros((slots, d))
    g = np.zeros((slots, d))
    wa = np.zeros((slots, 2 * _LBFGSB_M * d + 5 * d + 11 * _LBFGSB_M**2 + 8 * _LBFGSB_M))
    iwa = np.zeros((slots, 3 * d), dtype=np.int32)
    task = np.zeros((slots, 2), dtype=np.int32)
    lsave = np.zeros((slots, 4), dtype=np.int32)
    isave = np.zeros((slots, 44), dtype=np.int32)
    dsave = np.zeros((slots, 29))
    ln_task = np.zeros((slots, 2), dtype=np.int32)
    state = (x, g, wa, iwa, task, lsave, isave, dsave, ln_task)
    views = [tuple(arr[s] for arr in state) for s in range(slots)]
    f = [0.0] * slots
    # The point each slot was last evaluated at, with its value and gradient.
    seen: list = [None] * slots
    seen_f = [0.0] * slots
    seen_g: list = [None] * slots
    row = [0] * slots
    nit = [0] * slots
    nfev = [0] * slots
    penalties = [0] * slots
    runs: list = [None] * n_rows
    next_row = 0

    def load(s: int) -> None:
        nonlocal next_row
        for arr in state:
            arr[s] = 0
        x[s] = z0[next_row]
        row[s], f[s], seen[s] = next_row, 0.0, None
        nit[s] = nfev[s] = penalties[s] = 0
        next_row += 1

    def finish(s: int) -> _Run:
        success = bool(task[s, 0] == _CONVERGENCE)
        xs, jac = x[s].copy(), g[s].copy()
        converged = success and _projected_grad_norm(jac, xs, lo, hi) <= tol
        return _Run(xs, f[s], jac, success, converged, nit[s], nfev[s], penalties[s])

    for s in range(slots):
        load(s)
    active = list(range(slots))
    while active:
        asking = []
        for s in active:
            xs, gs, was, iwas, ts, ls, iss, ds, lts = views[s]
            while True:
                setulb(
                    _LBFGSB_M, xs, lo, hi, nbd, f[s], gs, _FACTR, tol, was, iwas,
                    ts, ls, iss, ds, _MAXLS, lts,
                )
                t = ts[0]
                if t == _FG:
                    if xs.tolist() != seen[s]:
                        asking.append(s)
                        break
                    f[s] = seen_f[s]
                    gs[:] = seen_g[s]
                elif t == _NEW_X:
                    nit[s] += 1
                    if nit[s] >= max_iters:
                        ts[:] = _STOP, 504
                    elif nfev[s] > _MAXFUN:
                        ts[:] = _STOP, 502
                else:
                    runs[row[s]] = finish(s)
                    if next_row == n_rows:
                        break
                    load(s)
        if asking:
            idx = np.array(asking)
            values, grads = objective(np.array([row[s] for s in asking]), x[idx])
            g[idx] = grads
            for s, value, grad in zip(asking, values.tolist(), grads):
                f[s] = seen_f[s] = value
                seen[s], seen_g[s] = views[s][0].tolist(), grad
                nfev[s] += 1
                penalties[s] += value == _PENALTY
        active = asking
    return runs


def _by_length(xs: list[np.ndarray]):
    """Indices of the batches xs grouped by batch length, as arrays."""
    groups: dict[int, list[int]] = {}
    for i, x in enumerate(xs):
        groups.setdefault(x.size, []).append(i)
    return [np.array(idx) for idx in groups.values()]


def _fit_result(model: str, x: np.ndarray, m: float, params, converged=True, iterations=0,
                evaluations=0, penalties=0, start=None, starts_skipped=0):
    """The FitResult of a model at fitted params on batch x of mean m. A fit
    with a shape is degenerate when the shape ran into its bound or the
    normalized batch x / m has zero variance."""
    if not all(map(math.isfinite, params.values())):
        raise ValueError(f"batch mean {m:g} makes a fitted rate overflow; rescale the batch")
    ll = MODELS[model].log_likelihood(x, params)
    alpha = params.get("alpha")
    degenerate = alpha is not None and (alpha >= _ALPHA_DEGENERATE or float(np.var(x / m)) == 0.0)
    return FitResult(
        model, params, ll, ll / x.size, converged, iterations, degenerate, evaluations,
        penalties, start, starts_skipped,
    )


def _fit_exponential_batches(xs: list[np.ndarray]) -> list[FitResult]:
    """Closed-form exponential fits: rate = 1 / sample mean."""
    fits = []
    for x in xs:
        m = float(np.mean(x))
        fits.append(_fit_result("exponential", x, m, {"rate": 1.0 / m}))
    return fits


def _gamma_rows(z: np.ndarray, mlog_y: np.ndarray):
    """Negated mean log-likelihood of mean-normalized batches with the rate
    profiled out (beta = alpha when mean(y) = 1), and its derivative in
    ln alpha, at rows z = ln alpha (k, 1) of batches with mean(ln y) mlog_y."""
    a = np.exp(z[:, 0])
    log_a = np.log(a)
    value = -(a * log_a - gammaln(a) + (a - 1.0) * mlog_y - a)
    return value, (-a * (log_a - digamma(a) + mlog_y))[:, None]


def _fit_gamma_batches(xs: list[np.ndarray]) -> list[FitResult]:
    """Gamma fits by profile likelihood over the shape, one row per batch."""
    means = [float(np.mean(x)) for x in xs]
    mlog = np.array([float(np.mean(np.log(x / m))) for x, m in zip(xs, means)])
    z0 = np.empty((len(xs), 1))
    for i, mlog_y in enumerate(mlog):
        # Moment-style initialization from the log-mean gap; the gap vanishes
        # for constant batches, where the likelihood is maximized at the bound.
        gap = -mlog_y
        if gap > 1e-12:
            a0 = (3.0 - gap + math.sqrt((gap - 3.0) ** 2 + 24.0 * gap)) / (12.0 * gap)
            a0 = min(max(a0, 1.05e-3), 0.95e3)
        else:
            a0 = 10.0
        z0[i, 0] = math.log(a0)
    runs = _lbfgsb(lambda rows, z: _gamma_rows(z, mlog[rows]), z0, [_LN_ALPHA_BOUNDS])
    # The exponential point (alpha = 1) is kept as a closed-form candidate
    # so the fitted likelihood can never fall below the exponential one.
    at_one = _gamma_rows(np.zeros((len(xs), 1)), mlog)[0]
    fits = []
    for x, m, run, one in zip(xs, means, runs, at_one):
        if one < run.fun:
            run = run._replace(x=np.zeros(1), fun=float(one), converged=True)
        alpha = math.exp(float(run.x[0]))
        params = {"alpha": alpha, "beta": alpha / m}
        fits.append(
            _fit_result("gamma", x, m, params, run.converged, run.nit, run.nfev, run.penalties, 0)
        )
    return fits


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


# The alpha the gamma fit reports at the floor of its box.
_ALPHA_FLOOR = math.exp(_LN_ALPHA_BOUNDS[0])


def _lam_zero_is_a_maximum(gamma: FitResult, y: np.ndarray) -> bool:
    """Whether lam = 0 at the gamma fit gamma of batch y is a local maximum
    of both shifted families' likelihoods: alpha v > 1, v = var(y) /
    mean(y)^2, with alpha strictly inside its box (see the module
    docstring)."""
    alpha = gamma.params["alpha"]
    if gamma.degenerate or alpha <= _ALPHA_FLOOR:
        return False
    return alpha * float(np.var(y)) / float(np.mean(y)) ** 2 > 1.0


# Starts whose objectives lie within this fraction of max(1, |best|) of the
# best one reached the same optimum; the objective is a mean log-likelihood.
_TIE_RTOL = 1e-10


def _pick_start(runs: list[_Run]) -> int:
    """The index of the run a multi-start fit reports.

    That is the first run with the lowest objective, unless another run
    tied with it (within _TIE_RTOL) met the gradient tolerance: then the
    first such converged run. Otherwise the converged flag of a fit would
    follow last-bit differences between starts that found the same optimum.
    """
    best = min(range(len(runs)), key=lambda i: runs[i].fun)
    tol = _TIE_RTOL * max(1.0, abs(runs[best].fun))
    limit = runs[best].fun + tol
    return next((i for i, run in enumerate(runs) if run.converged and run.fun <= limit), best)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """np.mean(a, axis=1), without its Python-level wrapper."""
    return np.add.reduce(a, axis=1) / a.shape[1]


def _noncentral_gamma_mean_ll(a, b, lam, mlog, m1, sqrt_y):
    """Mean noncentral-gamma LL of batches y, one per row, from mean(ln y)
    (k,), mean(y) (k,) and sqrt(y) (k, n), and its gradient in (ln a,
    ln b, ln lam), at rows of (a, b, lam)."""
    log_b = np.log(b)
    log_lam = np.log(lam)
    log_i, d_nu, x_dx = _log_bessel_i_nu_grad(a - 1.0, (2.0 * np.sqrt(b * lam))[:, None] * sqrt_y)
    value = (
        -lam
        + 0.5 * (a + 1.0) * log_b
        - 0.5 * (a - 1.0) * log_lam
        + 0.5 * (a - 1.0) * mlog
        - b * m1
        + _row_mean(log_i)
    )
    # The Bessel argument 2 sqrt(b lam y) moves by half a step in ln b or
    # ln lam, so each gets half of x d/dx of the Bessel term.
    half_x_dx = 0.5 * _row_mean(x_dx)
    return value, (
        a * (0.5 * (log_b - log_lam + mlog) + _row_mean(d_nu)),
        0.5 * (a + 1.0) - b * m1 + half_x_dx,
        -lam - 0.5 * (a - 1.0) + half_x_dx,
    )


def _proposed_mean_ll(a, b, lam, mlog, m1, sqrt_y):
    """Mean log-likelihood of the proposed law and its gradient, as
    _noncentral_gamma_mean_ll."""
    log_b = np.log(b)
    log_s, ds_da, lam_ds_dlam = _log_laguerre_neg_grad(a, lam)
    log_i0, x_dx = _log_i0_grad((2.0 * np.sqrt(b * lam))[:, None] * sqrt_y)
    value = a * log_b - gammaln(a) - log_s + (a - 1.0) * mlog - b * m1 + _row_mean(log_i0)
    half_x_dx = 0.5 * _row_mean(x_dx)
    return value, (
        a * (log_b - digamma(a) - ds_da + mlog),
        a - b * m1 + half_x_dx,
        -lam_ds_dlam + half_x_dx,
    )


def _shifted_rows(mean_ll, z: np.ndarray, mlog, m1, sqrt_y):
    """Values (k,) and gradients (k, 3) at rows z = (ln a, ln b, s), lam =
    softplus(s): the negated mean_ll of normalized batches with the given
    statistics, or _PENALTY with a zero gradient in a row where it is not
    finite."""
    a = np.exp(z[:, 0])
    b = np.exp(z[:, 1])
    lam = _softplus(z[:, 2])
    grad = np.empty_like(z)
    with np.errstate(all="ignore"):
        value, (ga, gb, glam) = mean_ll(a, b, lam, mlog, m1, sqrt_y)
        # dlam/ds = 1 - exp(-lam), so d/ds = (lam d/dlam) (1 - exp(-lam)) / lam.
        np.negative(ga, out=grad[:, 0])
        np.negative(gb, out=grad[:, 1])
        np.negative(glam * -np.expm1(-lam) / lam, out=grad[:, 2])
        value = -value
    if not (np.isfinite(value).all() and np.isfinite(grad).all()):
        bad = ~(np.isfinite(value) & np.isfinite(grad).all(axis=1))
        value[bad] = _PENALTY
        grad[bad] = 0.0
    return value, grad


def _fit_shifted_batches(model: str, xs, rngs, gammas, mean_ll, extra_start=None):
    """Multi-start fits of an (alpha, beta, lam) family to the batches xs by
    mean_ll(a, b, lam, mean(ln y), mean(y), sqrt(y)) -> (value, gradient in
    (ln a, ln b, ln lam)). Starts of batch i: its gamma fit gammas[i] with lam
    at its floor and near 0, extra_start(y) unless it or its value is None,
    then jitters of the second start drawn from rngs[i]; all are drawn
    before any search runs. The starts run in the restart passes of the
    module docstring, one lock-step pass per restart pass and batch
    length. A batch reports from the starts the keep rule leaves it, by
    _pick_start, and its counts sum over those runs."""
    means = [float(np.mean(x)) for x in xs]
    ys = [x / m for x, m in zip(xs, means)]
    starts = []
    for y, rng, g in zip(ys, rngs, gammas):
        ln_ag = math.log(g.params["alpha"])
        # beta of the gamma fit on the normalized batch equals its alpha.
        z = [np.array([ln_ag, ln_ag, _S_BOUNDS[0]]), np.array([ln_ag, ln_ag, _softplus_inv(0.01)])]
        if extra_start is not None:
            z0 = extra_start(y)
            if z0 is not None:
                z.append(z0)
        while len(z) < DEFAULT_OPTIMIZER.restarts and rng is not None:
            jitter = rng.normal(scale=0.5, size=3)
            z.append(z[1] + jitter * np.array([1.0, 1.0, 2.0]))
        starts.append(z)

    lam_max = [_lam_zero_is_a_maximum(g, y) for g, y in zip(gammas, ys)]
    bounds = [_LN_ALPHA_BOUNDS, _LN_BETA_BOUNDS, _S_BOUNDS]
    runs = [[None] * len(z) for z in starts]
    for group in _by_length(xs):
        # Sufficient statistics of the objective; only the Bessel term needs
        # the full sample vector per evaluation.
        mlog = np.array([float(np.mean(np.log(ys[i]))) for i in group])
        m1 = np.array([float(np.mean(ys[i])) for i in group])
        sqrt_y = np.sqrt(np.stack([ys[i] for i in group]))
        pos = {i: j for j, i in enumerate(group)}

        def run_pass(todo):
            """Run the starts (i, k) of todo in one lock-step pass, with the
            later starts of each batch whose start 1 is among them if all
            fit in one set of _MAX_ROWS slots."""
            if not todo:
                return
            later = [(i, k) for i, s in todo if s == 1 for k in range(2, len(starts[i]))]
            if len(todo) + len(later) <= _MAX_ROWS:
                todo = todo + later
            batch = np.array([pos[i] for i, _ in todo])

            def objective(rows, z):
                if mlog.size > 1:
                    k = batch[rows]
                    return _shifted_rows(mean_ll, z, mlog[k], m1[k], sqrt_y[k])
                return _shifted_rows(mean_ll, z, mlog, m1, sqrt_y)  # they broadcast

            z0 = np.array([starts[i][k] for i, k in todo])
            for (i, k), run in zip(todo, _lbfgsb(objective, z0, bounds)):
                runs[i][k] = run

        run_pass([(i, k) for i in group for k in (0, 1) if k == 0 or not lam_max[i]])
        run_pass([(i, 1) for i in group if lam_max[i] and not runs[i][0].converged])
        run_pass([
            (i, k) for i in group if runs[i][1] is not None and not runs[i][1].converged
            for k in range(2, len(starts[i])) if runs[i][k] is None
        ])

    fits = []
    for x, m, drawn, at_max in zip(xs, means, runs, lam_max):
        # The keep rule: start 0 alone where lam = 0 is a maximum and start 0
        # converged, starts 0 and 1 where start 1 converged, else every start.
        n_kept = 1 if at_max and drawn[0].converged else 2 if drawn[1].converged else len(drawn)
        kept = drawn[:n_kept]
        best = _pick_start(kept)
        z = kept[best].x
        lam = float(_softplus(z[2:])[0])
        if lam < 1e-12:
            lam = 0.0
        params = {"alpha": math.exp(float(z[0])), "beta": math.exp(float(z[1])) / m, "lambda": lam}
        fits.append(
            _fit_result(
                model, x, m, params,
                converged=kept[best].converged,
                iterations=sum(run.nit for run in kept),
                evaluations=sum(run.nfev for run in kept),
                penalties=sum(run.penalties for run in kept),
                start=best,
                starts_skipped=len(drawn) - n_kept,
            )
        )
    return fits


# The single-batch fit functions below are the public API, and perfbench
# binds them; no fit path calls them: fit_model and fit_batches go through
# the batched fits of the model table.


def fit_exponential(data) -> FitResult:
    """Closed-form exponential fit: rate = 1 / sample mean."""
    return fit_model("exponential", data)


def fit_gamma(data) -> FitResult:
    """Gamma fit by profile likelihood over the shape.

    Never raises on hard batches: non-convergence and degeneracy are
    flagged on the result instead.
    """
    return fit_model("gamma", data)


def fit_noncentral_gamma(data, rng: np.random.Generator | None = None) -> FitResult:
    """Noncentral-gamma fit over (ln alpha, ln beta, softplus lam),
    initialized from the gamma fit with a small starting noncentrality."""
    return fit_model("noncentral_gamma", data, rng)


def fit_proposed(data, rng: np.random.Generator | None = None) -> FitResult:
    """Fit of the proposed power distribution with multiple starts: the
    gamma fit with lam near zero, and a moment-matched point."""
    return fit_model("proposed", data, rng)


def fit_model(model: str, data, rng: np.random.Generator | None = None) -> FitResult:
    """Fit the named model; see FIT_MODELS for the choices. This is
    fit_batches with one model and one batch."""
    return fit_batches((model,), [data], [rng])[model][0]


def _model_names(models) -> tuple[str, ...]:
    """models as a tuple, checked: each a name of MODELS, none twice."""
    models = tuple(models)
    for i, m in enumerate(models):
        if m not in MODELS:
            raise ValueError(f"unknown model {m!r}; expected one of {FIT_MODELS}")
        if m in models[:i]:
            raise ValueError(f"model {m!r} is requested more than once")
    return models


def fit_batches(models, batches, rngs=None) -> dict[str, list[FitResult]]:
    """Fit each of models, in the order given, to every batch: {model:
    [FitResult per batch]}. Batch i draws its restarts from rngs[i]
    (default None), model after model, and its gamma fit, where the
    noncentral-gamma and proposed searches start, is made once. Each model
    fits all the batches of one length in one lock-step pass; a fit's rows
    never depend on the other batches, so each result equals fit_model on
    its batch alone."""
    models = _model_names(models)
    xs = [_validate_batch(b) for b in batches]
    rngs = [None] * len(xs) if rngs is None else list(rngs)
    if len(rngs) != len(xs):
        raise ValueError("batches and rngs differ in length")
    gamma = functools.cache(lambda: _fit_gamma_batches(xs))
    return {m: MODELS[m].fit(xs, rngs, gamma) for m in models}


@dataclass(frozen=True)
class Model:
    """One compared power model: its name, extra names the CLI accepts, the
    keys of its fitted parameters, log_likelihood(x, params) = the batch
    total at given parameters, and fit(xs, rngs, gamma) -> a FitResult per
    validated batch, where gamma() returns the gamma fits of xs (see
    fit_batches). The callables look module functions up when called, so
    that bindings replaced at run time (a tracer, a test stub) are the
    ones used."""

    name: str
    aliases: tuple[str, ...]
    params: tuple[str, ...]
    log_likelihood: Callable[[np.ndarray, dict], float]
    fit: Callable[..., list[FitResult]]


MODELS = {
    m.name: m
    for m in (
        Model(
            "exponential", ("exp",), ("rate",),
            lambda x, p: float(np.sum(log_pdf_exponential(x, p["rate"]))),
            lambda xs, rngs, gamma: _fit_exponential_batches(xs),
        ),
        Model(
            "gamma", (), ("alpha", "beta"),
            lambda x, p: float(np.sum(log_pdf_gamma(x, p["alpha"], p["beta"]))),
            lambda xs, rngs, gamma: gamma(),
        ),
        Model(
            "noncentral_gamma", ("ncgamma",), ("alpha", "beta", "lambda"),
            lambda x, p: float(
                np.sum(log_pdf_noncentral_gamma(x, p["alpha"], p["beta"], p["lambda"]))
            ),
            lambda xs, rngs, gamma: _fit_shifted_batches(
                "noncentral_gamma", xs, rngs, gamma(), _noncentral_gamma_mean_ll
            ),
        ),
        Model(
            "proposed", (), ("alpha", "beta", "lambda"),
            lambda x, p: float(
                np.sum(log_pdf_power(x, PowerParams(p["alpha"], p["beta"], p["lambda"])))
            ),
            lambda xs, rngs, gamma: _fit_shifted_batches(
                "proposed", xs, rngs, gamma(), _proposed_mean_ll, _moment_matched_start
            ),
        ),
    )
}
FIT_MODELS = tuple(MODELS)


def paired_t_test_one_sided(a, b) -> float:
    """p-value of the paired one-sided t-test of H1: mean(a - b) > 0.

    The tail probability is scipy's Student-t CDF (scipy.special.stdtr)
    with n - 1 degrees of freedom at -t. Non-finite values, and finite
    pairs whose difference overflows, raise ValueError. t is scale-free,
    so the differences are scaled by a power of two to a max-norm in
    [0.5, 1) first: that is exact, and their sums cannot overflow.
    Zero-variance differences resolve by sign: p = 0 if the common
    difference is positive, 1 if negative, 0.5 if identically zero.
    """
    av = np.asarray(a, dtype=float).ravel()
    bv = np.asarray(b, dtype=float).ravel()
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    if av.size < 2:
        raise ValueError("need at least two pairs")
    if not (np.isfinite(av).all() and np.isfinite(bv).all()):
        raise ValueError("paired samples must be finite")
    with np.errstate(over="ignore"):
        d = av - bv
    if not np.isfinite(d).all():
        raise ValueError("a paired difference overflows; rescale the samples")
    d = np.ldexp(d, -math.frexp(float(np.max(np.abs(d))))[1])
    n = d.size
    md = float(np.mean(d))
    sd = float(np.std(d, ddof=1))
    if sd == 0.0:
        if md > 0.0:
            return 0.0
        if md < 0.0:
            return 1.0
        return 0.5
    return float(stdtr(n - 1, -md / (sd / math.sqrt(n))))
