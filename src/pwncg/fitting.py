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

A model fit takes one group (_Group): the batches of one fit_batches
call, which must all have one length, as the rows of an (R, n) array.
The work around the optimizer runs once per group, on (R, n) and (R,)
arrays, not once per batch: the statistics every model shares (the
means, and mean ln y, mean y, var y, sqrt y of the normalized batches y,
and ln x) and the gamma fits, each computed once; each model's starts,
lam = 0 test, wait rule and flags; and the reported log-likelihoods, one
call per model of its row-batched density kernel in distributions,
summed by row (Model.log_likelihoods). fit_batches validates every batch
before any fit runs.
The group also caches the powers (y / max y)^k, k = 1 .. 64, of each
row (_Group.powers, R x 64 x n doubles, about 4 MB for the 129 patches
of the 0.3 s speech clip). The noncentral-gamma objective's Bessel
arguments are 2 sqrt(b lam y), so each ascending-series term is those
powers times a coefficient that depends on the row's (alpha, b lam)
alone: an evaluation builds the coefficients, up to 64 per row, and
multiplies them by the row's table, which the objective passes as the
group's array and the row indices, not as copied rows.
The public densities of distributions, and Model.log_likelihood, are
that kernel's one-row case. A row reduction over a C-contiguous (R, n)
array gives what np.mean, np.var and np.sum give on the row alone, and
the scalar steps that math.exp, math.log or a float power take on one
batch keep them per element, so every reported number is the one a fit
of the batch alone gives.

The noncentral-gamma and proposed fits draw three starts per batch up
front, points in (ln alpha, ln beta, s), and run them in one lock-step
pass over the batches of the group:
- start 0 is the batch's gamma fit with lam at its floor;
- start 1 is the seed, else the ceiling start, else the probed ridge
  point, else the gamma fit with lam at the model's start value, which
  its MODELS entry passes (1 for the proposed law, 0.01 for the
  noncentral gamma);
- start 2 is the start 1 that the ridge point replaced, else start 1 plus
  a jitter drawn from the batch's stream, else none.
The seed is the proposed fit's end point, where one fit_batches call fits
both laws (the proposed law runs first) and that fit has lam > 0: both
laws mix Gamma(alpha + N, beta) over an integer N, so their fits lie close
together. The ceiling start serves a batch whose gamma fit is degenerate
(its shape on the ceiling of the box, or zero variance), less dispersed
than any gamma of the box; both laws then fit a large lam on the ridge
where alpha + lam is about constant, so the start is alpha on its floor,
the gamma shape alpha_g moved into lam (s = alpha_g) and beta kept. The
probe serves each remaining batch where lam = 0 is not a local maximum at
its gamma fit (see below). Its ridge point has alpha on its floor, lam =
2 / v with v = var(y) / mean(y)^2 (the noncentral gamma's moment match as
alpha -> 0), its s clipped to the box, and beta = (alpha + E[N]) /
mean(y), E[N] the mean of N at that point: lam for the noncentral gamma,
lam d/dlam ln S for the proposed law. The probed rows of a group are
evaluated in one objective call, and the ridge point is start 1 where its
value is below the gamma fit's, which _gamma_rows gives. The probe is not
a run: a fit's evaluations count the runs of its starts only. Each
model's jitters are drawn, in the order asked, before any search runs,
whether or not a start 2 takes them, so the order in which the models
run and the probe's outcome do not change them.
Later starts wait for the start they depend on. Start 1 waits for start
0 where lam = 0 is a local maximum of the batch's likelihood, and the
later starts wait for start 1; a start that waits runs once that start
has ended unconverged, since it can then still change the answer, and
never runs otherwise. So a fit runs start 0 alone where lam = 0 is a
maximum and start 0 converged, starts 0 and 1 where start 1 converged,
and every start it drew otherwise, and it keeps the starts that ran. No
run is stopped in flight, and a row's run never depends on the rows
beside it, so a fit runs the same starts however its batch was
scheduled, and its counts sum over them.

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

import collections
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.special import digamma, gammaln, stdtr

from .distributions import (
    _check,
    _log_pdf_exponential_rows,
    _log_pdf_gamma_rows,
    _log_pdf_noncentral_gamma_rows,
    _log_pdf_power_rows,
    _math_log,
    log_pdf_noncentral_gamma,  # noqa: F401  (see below)
    log_pdf_power,  # noqa: F401  (see below)
)
from .special import (
    _iv_power_table,
    _log_bessel_i_nu_rows,
    _log_i0_grad,
    _log_i0_unchecked,  # noqa: F401  (see below)
    _log_laguerre_neg_rows,
    log_bessel_i_nu,  # noqa: F401  (see below)
    log_laguerre_neg,  # noqa: F401  (see below)
)

# The objectives call the row-batched value-and-gradient kernels, and
# _lbfgsb calls L-BFGS-B's core directly. The log-likelihood passes call
# the row-batched density kernels of distributions, whose one-row case the
# public densities are. No fit path calls minimize, _log_i0_unchecked,
# log_bessel_i_nu, log_laguerre_neg, log_pdf_power or
# log_pdf_noncentral_gamma through these bindings; perfbench/tracing.py
# traces them all, and the noncentral_batches workload wraps
# log_laguerre_neg. minimize is scipy.optimize.minimize, resolved by the
# module __getattr__ below on first use: scipy.optimize takes about a third
# of a fresh `import pwncg.cli`, and only a fit needs it (see _lbfgsb).


def __getattr__(name: str):
    if name == "minimize":
        from scipy.optimize import minimize

        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
_SHIFTED_BOUNDS = [_LN_ALPHA_BOUNDS, _LN_BETA_BOUNDS, _S_BOUNDS]
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
    multi-start fit reports, among the starts it ran, a converged one whose
    objective ties the best within 1e-10 of max(1, |best|), if there is
    one. degenerate flags batches (all-equal values, zero variance) where
    the shape ran into its bound.
    A noncentral-gamma or proposed fit keeps the starts that ran: start 0
    alone when start 0 converged and lam = 0 is a local maximum at the
    batch's gamma fit (see the module docstring), starts 0 and 1 alone
    when start 1 converged, and every start it drew otherwise;
    starts_skipped counts the drawn starts that did not run. iterations,
    evaluations and penalties sum the L-BFGS-B iterations, the objective
    evaluations and the evaluations that returned the penalty value over
    the starts that ran; start is the index of the reported start (None
    for the closed-form exponential fit).
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
    big = s > 30.0
    n_big = np.count_nonzero(big)
    if not n_big:
        return np.log1p(np.exp(s))
    if n_big == s.size:
        return s + np.log1p(np.exp(-s))
    with np.errstate(over="ignore"):
        return np.where(big, s + np.log1p(np.exp(-s)), np.log1p(np.exp(s)))


def _softplus_inv(lam: float) -> float:
    if lam > 30.0:
        return lam
    return math.log(math.expm1(lam))


def _lbfgsb(objective, z0: np.ndarray, bounds, after=None) -> list[_Run]:
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
    iteration and evaluation caps checked at each new iterate. setulb is
    imported here, so scipy.optimize loads at the first fit and not with
    the package. A row has converged when setulb stopped on its own
    convergence test and each component of its gradient is within the
    tolerance or pushes its coordinate out through a bound.

    after (R,), if given, holds for each row the index of the row it waits
    for, or -1. Rows load from a ready queue, which starts with the rows
    that wait for none, in index order, and takes in the rows waiting for
    a row once that row ends unconverged. A slot that frees when no row is
    ready is refilled after the step's objective call. A row whose row
    ended converged, or never ran, never runs: its _Run is its start point
    with fun = inf, unconverged and no counts.
    """
    from scipy.optimize._lbfgsb import setulb

    n_rows, d = z0.shape
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    nbd = np.full(d, 2, dtype=np.int32)
    z0 = np.clip(z0, lo, hi)
    tol = DEFAULT_OPTIMIZER.grad_tol
    max_iters = DEFAULT_OPTIMIZER.max_iters
    # A gradient component at or within 1e-12 of a bound that pushes out
    # through it does not count against convergence.
    edges = list(zip((lo + 1e-12).tolist(), (hi - 1e-12).tolist()))

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
    ready: collections.deque = collections.deque()
    waiting: dict = {}
    for q, r in enumerate([-1] * n_rows if after is None else after.tolist()):
        if r < 0:
            ready.append(q)
        else:
            waiting.setdefault(r, []).append(q)

    def load(s: int) -> bool:
        """Load the next ready row into slot s, if any."""
        if not ready:
            return False
        for arr in state:
            arr[s] = 0
        row[s] = r = ready.popleft()
        x[s] = z0[r]
        f[s], seen[s] = 0.0, None
        nit[s] = nfev[s] = penalties[s] = 0
        return True

    def finish(s: int) -> None:
        """Keep slot s's row's run, and release the rows waiting for it if
        it did not converge."""
        r = row[s]
        success = int(task[s, 0]) == _CONVERGENCE
        converged = success and all(
            abs(gi) <= tol or (xi <= lo_i and gi > 0.0) or (xi >= hi_i and gi < 0.0)
            for xi, gi, (lo_i, hi_i) in zip(x[s].tolist(), g[s].tolist(), edges)
        )
        runs[r] = _Run(
            x[s].copy(), f[s], g[s].copy(), success, converged, nit[s], nfev[s], penalties[s]
        )
        if not converged:
            ready.extend(waiting.get(r, ()))

    idle = list(range(slots))[::-1]
    active: list = []
    while True:
        while idle and ready:
            load(idle[-1])
            active.append(idle.pop())
        if not active:
            break
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
                    finish(s)
                    if not load(s):
                        idle.append(s)
                        break
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
    never = np.zeros(d)
    return [
        _Run(z0[r], math.inf, never, False, False, 0, 0, 0) if run is None else run
        for r, run in enumerate(runs)
    ]


def _row_sum(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=1): on a C-contiguous a, what np.sum gives on
    each row alone."""
    return np.add.reduce(a, axis=1)


def _row_mean(a: np.ndarray) -> np.ndarray:
    """np.mean(a, axis=-1), without its Python-level wrapper: on a
    C-contiguous a, what np.mean gives on each row alone."""
    return np.add.reduce(a, axis=-1) / a.shape[-1]


class _Group:
    """Batches of one length, the unit every model fit takes: the rows of
    x (R, n) with their means, the statistics of the normalized batches
    y = x / mean that every model's fit and log-likelihood pass share, and
    the gamma fits, each computed once, on first use. Each row reduction
    gives what np.mean, np.var or np.sum gives on the row alone."""

    def __init__(self, x: np.ndarray, mean: np.ndarray):
        self.x, self.mean = x, mean
        self.size = mean.size

    @functools.cached_property
    def log_x(self) -> np.ndarray:
        return np.log(self.x)

    @functools.cached_property
    def y(self) -> np.ndarray:
        return self.x / self.mean[:, None]

    @functools.cached_property
    def mean_log_y(self) -> np.ndarray:
        return _row_mean(np.log(self.y))

    @functools.cached_property
    def mean_y(self) -> np.ndarray:
        return _row_mean(self.y)

    @functools.cached_property
    def var_y(self) -> np.ndarray:
        return np.var(self.y, axis=1)

    @functools.cached_property
    def sqrt_y(self) -> np.ndarray:
        return np.sqrt(self.y)

    @functools.cached_property
    def powers(self) -> np.ndarray:
        """The powers (y / max(y))^k, k = 1 .. special._IV_TABLE_TERMS, of
        each row, (R, terms, n): the noncentral-gamma objective's Bessel
        arguments are sqrt(y) times one scale per row, so their series
        terms are these powers times coefficients that depend on the scale
        alone (special._log_iv_series_rows)."""
        y = self.y
        return _iv_power_table(y / y.max(axis=1)[:, None])

    @functools.cached_property
    def gamma(self) -> _GroupFit:
        """The gamma fits, checked here because the noncentral-gamma and
        proposed searches start from them whether or not the gamma model
        is asked for."""
        return _checked(self, _fit_gamma(self))


def _group_mean(x: np.ndarray):
    """The row means of x (R, n), or None unless every row is a valid
    batch (as _validate_batch checks)."""
    if not (x.size and x.min() > 0.0 and x.max() < math.inf):  # a NaN fails both
        return None
    with np.errstate(over="ignore"):
        mean = _row_mean(x)
    return mean if np.isfinite(mean).all() else None


class _GroupFit(NamedTuple):
    """One model's fits to the batches of a group: the fitted params by
    name, and the other FitResult fields, each an (R,) array or a value
    that every row shares."""

    params: dict
    degenerate: np.ndarray | bool = False
    converged: np.ndarray | bool = True
    iterations: np.ndarray | int = 0
    evaluations: np.ndarray | int = 0
    penalties: np.ndarray | int = 0
    start: np.ndarray | None = None
    starts_skipped: np.ndarray | int = 0
    seeds: np.ndarray | None = None


def _math_exp(v: np.ndarray) -> np.ndarray:
    """math.exp of each element. The fits take exp of scalar parameters
    with math.exp, which differs from numpy's exp in the last bit of some
    doubles; this keeps the reported numbers (see also
    distributions._math_log)."""
    return np.array([math.exp(e) for e in v.tolist()])


def _degenerate(alpha: np.ndarray, g: _Group) -> np.ndarray:
    """A fit with a shape is degenerate when the shape ran into its bound
    or the normalized batch has zero variance."""
    return (alpha >= _ALPHA_DEGENERATE) | (g.var_y == 0.0)


def _checked(g: _Group, fit: _GroupFit) -> _GroupFit:
    """fit, unless a fitted rate overflowed: then a ValueError naming the
    mean of the first such batch of g."""
    finite = np.logical_and.reduce([np.isfinite(v) for v in fit.params.values()])
    if not finite.all():
        m = float(g.mean[np.argmin(finite)])
        raise ValueError(f"batch mean {m:g} makes a fitted rate overflow; rescale the batch")
    return fit


def _fit_results(model: str, g: _Group, fit: _GroupFit) -> list[FitResult]:
    """The FitResult of each batch of g, from model's fits to it; the
    log-likelihoods come from one call of the model's log_likelihoods."""
    ll = MODELS[model].log_likelihoods(g.x, g.log_x, fit.params)
    names = list(fit.params)
    params = [dict(zip(names, v)) for v in zip(*(fit.params[k].tolist() for k in names))]
    fields = [ll.tolist(), (ll / g.x.shape[1]).tolist()] + [
        v.tolist() if isinstance(v, np.ndarray) else [v] * g.size
        for v in (
            fit.converged, fit.iterations, fit.degenerate, fit.evaluations,
            fit.penalties, fit.start, fit.starts_skipped,
        )
    ]
    return [FitResult(model, p, *row) for p, row in zip(params, zip(*fields))]


def _fit_exponential(g: _Group) -> _GroupFit:
    """Closed-form exponential fits: rate = 1 / sample mean."""
    with np.errstate(over="ignore"):
        return _GroupFit({"rate": 1.0 / g.mean})


def _gamma_rows(z: np.ndarray, mlog_y: np.ndarray):
    """Negated mean log-likelihood of mean-normalized batches with the rate
    profiled out (beta = alpha when mean(y) = 1), and its derivative in
    ln alpha, at rows z = ln alpha (k, 1) of batches with mean(ln y) mlog_y."""
    a = np.exp(z[:, 0])
    log_a = np.log(a)
    value = -(a * log_a - gammaln(a) + (a - 1.0) * mlog_y - a)
    return value, (-a * (log_a - digamma(a) + mlog_y))[:, None]


def _gamma_start(mlog_y: float) -> float:
    """ln of the shape the gamma search starts from, for a batch with
    mean(ln y) = mlog_y: a moment-style initialization from the log-mean
    gap, which vanishes for constant batches, where the likelihood is
    maximized at the bound."""
    gap = -mlog_y
    if gap > 1e-12:
        a0 = (3.0 - gap + math.sqrt((gap - 3.0) ** 2 + 24.0 * gap)) / (12.0 * gap)
        a0 = min(max(a0, 1.05e-3), 0.95e3)
    else:
        a0 = 10.0
    return math.log(a0)


def _fit_gamma(g: _Group) -> _GroupFit:
    """Gamma fits by profile likelihood over the shape, one row per batch
    in one lock-step pass."""
    mlog = g.mean_log_y
    z0 = np.array([_gamma_start(v) for v in mlog.tolist()])[:, None]
    runs = _lbfgsb(lambda rows, z: _gamma_rows(z, mlog[rows]), z0, [_LN_ALPHA_BOUNDS])
    ln_alpha = np.array([run.x[0] for run in runs])
    converged = np.array([run.converged for run in runs])
    nit, nfev, penalties = np.array([(run.nit, run.nfev, run.penalties) for run in runs]).T
    # The exponential point (alpha = 1) is kept as a closed-form candidate
    # so the fitted likelihood can never fall below the exponential one.
    at_one = _gamma_rows(np.zeros((g.size, 1)), mlog)[0] < [run.fun for run in runs]
    ln_alpha[at_one] = 0.0
    converged[at_one] = True
    alpha = _math_exp(ln_alpha)
    with np.errstate(over="ignore"):
        beta = alpha / g.mean
    return _GroupFit(
        {"alpha": alpha, "beta": beta}, _degenerate(alpha, g), converged, nit, nfev, penalties, 0
    )


# The alpha the gamma fit reports at the floor of its box.
_ALPHA_FLOOR = math.exp(_LN_ALPHA_BOUNDS[0])


def _lam_zero_is_a_maximum(alpha, degenerate, var_y, mean_y) -> np.ndarray:
    """Whether lam = 0 at a gamma fit of shape alpha[r], flagged
    degenerate[r], of a normalized batch y with var(y) = var_y[r] and
    mean(y) = mean_y[r], is a local maximum of both shifted families'
    likelihoods: alpha v > 1, v = var(y) / mean(y)^2, with alpha strictly
    inside its box (see the module docstring). (R,) bools."""
    return np.array(
        [
            not d and a > _ALPHA_FLOOR and a * v / m**2 > 1.0
            for a, d, v, m in zip(
                alpha.tolist(), degenerate.tolist(), var_y.tolist(), mean_y.tolist()
            )
        ],
        dtype=bool,
    )


# Starts whose objectives lie within this fraction of max(1, |best|) of the
# best one reached the same optimum; the objective is a mean log-likelihood.
_TIE_RTOL = 1e-10


def _pick_start(fun: np.ndarray, converged: np.ndarray) -> np.ndarray:
    """The index of the start each row's multi-start fit reports, from the
    objectives fun and converged flags of its starts (R, K), fun = inf
    where a start did not run.

    That is the first start with the lowest objective, unless another
    start tied with it (within _TIE_RTOL) met the gradient tolerance: then
    the first such converged one. Otherwise the converged flag of a fit
    would follow last-bit differences between starts that found the same
    optimum.
    """
    best = np.argmin(fun, axis=1)
    low = fun[np.arange(len(fun)), best]
    limit = low + _TIE_RTOL * np.maximum(1.0, np.abs(low))
    tied = converged & (fun <= limit[:, None])
    return np.where(tied.any(axis=1), tied.argmax(axis=1), best)


def _noncentral_gamma_mean_ll(a, b, lam, mlog, m1, sqrt_y, rows=None):
    """Mean noncentral-gamma LL of batches y, one per row, from mean(ln y)
    (k,), mean(y) (k,) and sqrt(y) (k, n), and its gradient in (ln a,
    ln b, ln lam), at rows of (a, b, lam). rows = (g, index), if given,
    says that the batches are the rows index (k,) of the _Group g, and
    the Bessel series then reads their powers from g.powers."""
    log_b = np.log(b)
    log_lam = np.log(lam)
    log_i, d_nu, x_dx = _log_bessel_i_nu_rows(
        a - 1.0,
        (2.0 * np.sqrt(b * lam))[:, None] * sqrt_y,
        None if rows is None else (rows[0].powers, rows[1]),
    )
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


def _proposed_mean_ll(a, b, lam, mlog, m1, sqrt_y, rows=None):
    """Mean log-likelihood of the proposed law and its gradient, as
    _noncentral_gamma_mean_ll; rows is not used."""
    log_b = np.log(b)
    b_m1 = b * m1
    log_s, ds_da, lam_ds_dlam = _log_laguerre_neg_rows(a, lam)
    # the row means of ln I0 and of x d/dx ln I0, in one reduction
    mean_log_i0, mean_x_dx = _row_mean(_log_i0_grad((2.0 * np.sqrt(b * lam))[:, None] * sqrt_y))
    value = a * log_b - gammaln(a) - log_s + (a - 1.0) * mlog - b_m1 + mean_log_i0
    half_x_dx = 0.5 * mean_x_dx
    return value, (
        a * (log_b - digamma(a) - ds_da + mlog),
        a - b_m1 + half_x_dx,
        half_x_dx - lam_ds_dlam,
    )


def _proposed_mean_count(a, lam):
    """E[N] of the proposed law at rows of (a, lam): the mean of its
    mixing count, lam d/dlam ln S(a, lam). The noncentral gamma's is lam."""
    return _log_laguerre_neg_rows(a, lam)[2]


def _shifted_rows(mean_ll, z: np.ndarray, mlog, m1, sqrt_y, rows=None):
    """Values (k,) and gradients (k, 3) at rows z = (ln a, ln b, s), lam =
    softplus(s): the negated mean_ll of normalized batches with the given
    statistics (and rows, passed on), or _PENALTY with a zero gradient in
    a row where it is not finite."""
    a = np.exp(z[:, 0])
    b = np.exp(z[:, 1])
    lam = _softplus(z[:, 2])
    with np.errstate(all="ignore"):
        value, (ga, gb, glam) = mean_ll(a, b, lam, mlog, m1, sqrt_y, rows)
        # dlam/ds = 1 - exp(-lam), so -d/ds = (lam d/dlam) expm1(-lam) / lam;
        # the value and the other two derivatives are negated in one pass.
        out = np.array((value, ga, gb, glam * np.expm1(-lam) / lam))
        np.negative(out[:3], out=out[:3])
        # A sum of finite numbers is finite or overflows; any inf or NaN
        # makes it non-finite, and then the rows are checked one by one.
        if not math.isfinite(np.add.reduce(out, axis=None)):
            bad = ~np.isfinite(out).all(axis=0)
            out[0, bad] = _PENALTY
            out[1:, bad] = 0.0
    return out[0], out[1:].T


def _jitters(rngs) -> list:
    """The offsets from start 1 of each batch's later starts, drawn from
    rngs[r] batch after batch: a (restarts - 2, 3) array, or None where
    rngs[r] is None."""
    size = (max(0, DEFAULT_OPTIMIZER.restarts - 2), 3)
    scale = np.array([1.0, 1.0, 2.0])
    return [None if rng is None else rng.normal(scale=0.5, size=size) * scale for rng in rngs]


def _ridge_points(g: _Group, rows: np.ndarray, mean_count) -> np.ndarray:
    """The moment-matched ridge point (ln alpha, ln beta, s) of the batches
    rows (k,) of g: alpha on its floor, lam = 2 / v with v = var(y) /
    mean(y)^2 (the noncentral gamma's moment match as alpha -> 0), its s
    clipped to the box, and beta = (alpha + E[N]) / mean(y), with E[N] =
    mean_count(alpha, lam) the family's mean count at that point."""
    m1 = g.mean_y[rows]
    lam = 2.0 * m1 * m1 / g.var_y[rows]
    s = np.clip([_softplus_inv(v) for v in lam.tolist()], *_S_BOUNDS)
    alpha = np.full(rows.size, _ALPHA_FLOOR)
    beta = (alpha + mean_count(alpha, _softplus(s))) / m1
    return np.column_stack([np.full(rows.size, _LN_ALPHA_BOUNDS[0]), _math_log(beta), s])


def _fit_shifted(
    g: _Group, jitters, mean_ll, start_lam: float, mean_count, seeds=None
) -> _GroupFit:
    """Multi-start fits of an (alpha, beta, lam) family to the batches of
    g by mean_ll(a, b, lam, mean(ln y), mean(y), sqrt(y), (g, rows)) ->
    (value, gradient in (ln a, ln b, ln lam)), whose mixing count N has
    the mean mean_count(alpha, lam). The starts of batch r, in (ln alpha,
    ln beta, s), are those of the module docstring: start 1 is seeds[r]
    where that row is not NaN, else the ceiling start where the gamma fit
    is degenerate, else the ridge point (_ridge_points) where it ends below
    the gamma fit, else the gamma fit with lam at start_lam; the later
    starts are start 1 plus each row of jitters[r] (see _jitters), except
    that a replaced start 1 takes the place of the first. Every drawn
    start is a row of one lock-step pass, under the wait rule of the
    module docstring; a batch reports from the starts that ran, by
    _pick_start, and its counts sum over them."""
    n_rows, width = g.size, max(3, DEFAULT_OPTIMIZER.restarts)
    gamma = g.gamma
    ln_alpha = _math_log(gamma.params["alpha"])
    starts = np.zeros((n_rows, width, 3))
    # beta of the gamma fit on the normalized batch equals its alpha.
    starts[:, :2, :2] = ln_alpha[:, None, None]
    starts[:, 0, 2] = _S_BOUNDS[0]
    starts[:, 1, 2] = _softplus_inv(start_lam)
    # A batch less dispersed than any gamma of the box: alpha on its floor,
    # the gamma's shape moved into lam (softplus(s) = s at the ceiling).
    ceiling = gamma.degenerate
    starts[ceiling, 1, 0] = _LN_ALPHA_BOUNDS[0]
    starts[ceiling, 1, 2] = gamma.params["alpha"][ceiling]
    seeded = np.zeros(n_rows, dtype=bool)
    if seeds is not None:
        seeded = ~np.isnan(seeds[:, 0])
        starts[seeded, 1] = seeds[seeded]
    count = np.array([2 if j is None else 2 + len(j) for j in jitters])
    for r, j in enumerate(jitters):
        if j is not None:
            starts[r, 2 : count[r]] = starts[r, 1] + j
    lam_max = _lam_zero_is_a_maximum(gamma.params["alpha"], gamma.degenerate, g.var_y, g.mean_y)
    # Sufficient statistics of the objective; only the Bessel term needs
    # the full sample vector per evaluation.
    stats = (g.mean_log_y, g.mean_y, g.sqrt_y)

    def evaluate(b, z):
        """The objective at the points z (k, 3) of the batches b (k,)."""
        if n_rows > 1:
            return _shifted_rows(mean_ll, z, *(s[b] for s in stats), (g, b))
        return _shifted_rows(mean_ll, z, *stats, (g, b))  # the stats broadcast

    # The probe: where the ridge point ends below the gamma fit, it is
    # start 1, and the start 1 it replaces is start 2.
    probed = np.flatnonzero(~(ceiling | seeded | lam_max))
    if probed.size:
        ridge = _ridge_points(g, probed, mean_count)
        gamma_value = _gamma_rows(ln_alpha[probed, None], stats[0][probed])[0]
        below = evaluate(probed, ridge)[0] < gamma_value
        win = probed[below]
        starts[win, 2] = starts[win, 1]
        starts[win, 1] = ridge[below]
        count[win] = np.maximum(count[win], 3)
    # One lock-step pass over every drawn start, batch after batch: start 1
    # waits for start 0 where lam = 0 is a maximum, the later starts wait
    # for start 1, and a start runs only once the one it waits for ended
    # unconverged.
    rows, cols = np.nonzero(np.arange(width) < count[:, None])
    at = np.zeros((n_rows, width), dtype=int)
    at[rows, cols] = np.arange(rows.size)
    gated = (cols == 1) & lam_max[rows]
    after = np.where(cols >= 2, at[rows, 1], np.where(gated, at[rows, 0], -1))
    runs = _lbfgsb(
        lambda sel, z: evaluate(rows[sel], z), starts[rows, cols], _SHIFTED_BOUNDS, after
    )
    converged = np.zeros((n_rows, width), dtype=bool)
    fun = np.full((n_rows, width), np.inf)
    end = np.zeros((n_rows, width, 3))
    nit, nfev, penalties = (np.zeros((n_rows, width), dtype=int) for _ in range(3))
    converged[rows, cols] = [run.converged for run in runs]
    fun[rows, cols] = [run.fun for run in runs]
    end[rows, cols] = [run.x for run in runs]
    nit[rows, cols] = [run.nit for run in runs]
    nfev[rows, cols] = [run.nfev for run in runs]
    penalties[rows, cols] = [run.penalties for run in runs]
    best = _pick_start(fun, converged)
    z = end[np.arange(n_rows), best]
    lam = _softplus(np.ascontiguousarray(z[:, 2]))
    lam[lam < 1e-12] = 0.0
    alpha = _math_exp(z[:, 0])
    with np.errstate(over="ignore"):
        beta = _math_exp(z[:, 1]) / g.mean
    return _GroupFit(
        {"alpha": alpha, "beta": beta, "lambda": lam},
        degenerate=_degenerate(alpha, g),
        converged=converged[np.arange(n_rows), best],
        iterations=nit.sum(axis=1),
        evaluations=nfev.sum(axis=1),
        penalties=penalties.sum(axis=1),
        start=best,
        starts_skipped=count - np.isfinite(fun).sum(axis=1),
        seeds=np.where((lam > 0.0)[:, None], z, np.nan),
    )


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
    """Noncentral-gamma fit over (ln alpha, ln beta, softplus lam), from
    the gamma fit with lam at its floor and at 0.01, or from the start
    that replaces the second (the ceiling start or the ridge point; the
    proposed law's fit in fit_batches with both laws): see the module
    docstring."""
    return fit_model("noncentral_gamma", data, rng)


def fit_proposed(data, rng: np.random.Generator | None = None) -> FitResult:
    """Fit of the proposed power distribution with multiple starts: the
    gamma fit with lam at its floor and at 1, or the start that replaces
    the second (the ceiling start or the ridge point; see the module
    docstring); with an rng, a jitter of the second start fills the rest
    unless the replaced start does."""
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
    """Fit each of models to every batch: {model: [FitResult per batch]},
    in the order given. The batches, raveled, must all have one length:
    they form one _Group, and every batch is validated before any fit
    runs. Then batch i draws its restarts from rngs[i] (default None),
    model after model in the order given, and each model is fitted by
    MODELS[m].fit and checked; a model that seeds another's start 1
    (Model.seeded_by) runs before the others. The group's statistics and
    gamma fits, where the noncentral-gamma and proposed searches start,
    are made once and shared by every model. A fit's rows never depend on
    the other batches, so with a stream per batch each result equals
    fit_batches with the same models on its batch alone. That is
    fit_model, except for the noncentral gamma beside the proposed law."""
    models = _model_names(models)
    xs = [np.asarray(b, dtype=float).ravel() for b in batches]
    if len(lengths := sorted({x.size for x in xs})) > 1:
        raise ValueError(f"batches must have one length, not {lengths[0]} and {lengths[1]}")
    rngs = [None] * len(xs) if rngs is None else list(rngs)
    if len(rngs) != len(xs):
        raise ValueError("batches and rngs differ in length")
    if not xs:
        return {m: [] for m in models}
    x = np.stack(xs)
    mean = _group_mean(x)
    if mean is None:
        for b in xs:
            _validate_batch(b)  # raises the error of the first invalid batch
    g = _Group(x, mean)
    jitters = {m: _jitters(rngs) for m in models if MODELS[m].restarts}
    seeding = {MODELS[m].seeded_by for m in models}
    fits = {}
    for m in sorted(models, key=lambda m: m not in seeding):
        seeds = getattr(fits.get(MODELS[m].seeded_by), "seeds", None)
        fits[m] = _checked(g, MODELS[m].fit(g, jitters.get(m), seeds))
    return {m: _fit_results(m, g, fits[m]) for m in models}


@dataclass(frozen=True)
class Model:
    """One compared power model: its name, extra names the CLI accepts, the
    keys of its fitted parameters, log_pdf_rows(x, log_x, params) = its log
    density at each row of x (R, n), with log_x = ln x, at params (a (R,)
    array per key), one of the row kernels of distributions, and
    fit(g, jitters, seeds) -> the _GroupFit of the batches of one _Group
    g. A shifted family's fit passes _fit_shifted its objective, the lam
    of its start 1 and the mean of its mixing count, so each model's
    starts are set here and nowhere else: restarts says that it takes
    jitters, the offsets of its later starts (_jitters), and seeded_by
    names the model whose fit, where one
    fit_batches call asks for both, gives the seeds of its start 1
    (_GroupFit.seeds); the other fits ignore both. The
    callables look module functions up when called, so that bindings
    replaced at run time (a tracer, a test stub) are the ones used."""

    name: str
    aliases: tuple[str, ...]
    params: tuple[str, ...]
    log_pdf_rows: Callable[[np.ndarray, np.ndarray, dict], np.ndarray]
    fit: Callable[[_Group, list | None, np.ndarray | None], _GroupFit]
    restarts: bool = False
    seeded_by: str | None = None

    def log_likelihoods(self, x: np.ndarray, log_x: np.ndarray, params: dict) -> np.ndarray:
        """The total log-likelihoods (R,) of the batches x (R, n), with
        log_x = ln x, at params (a (R,) array per key), unchecked."""
        return _row_sum(self.log_pdf_rows(x, log_x, params))

    def log_likelihood(self, x, params: dict) -> float:
        """The total log-likelihood of the batch x at params: the one-row
        case of log_likelihoods."""
        x = _validate_batch(x)
        for k in self.params:
            _check(k, params[k], zero_ok=k == "lambda")
        rows = {k: np.array([float(params[k])]) for k in self.params}
        return float(self.log_likelihoods(x[None], np.log(x)[None], rows)[0])


MODELS = {
    m.name: m
    for m in (
        Model(
            "exponential", ("exp",), ("rate",),
            lambda x, log_x, p: _log_pdf_exponential_rows(x, p["rate"]),
            lambda g, jitters, seeds: _fit_exponential(g),
        ),
        Model(
            "gamma", (), ("alpha", "beta"),
            lambda x, log_x, p: _log_pdf_gamma_rows(x, log_x, p["alpha"], p["beta"]),
            lambda g, jitters, seeds: g.gamma,
        ),
        Model(
            "noncentral_gamma", ("ncgamma",), ("alpha", "beta", "lambda"),
            lambda x, log_x, p: _log_pdf_noncentral_gamma_rows(
                x, log_x, p["alpha"], p["beta"], p["lambda"]
            ),
            lambda g, jitters, seeds: _fit_shifted(
                g, jitters, _noncentral_gamma_mean_ll, 0.01, lambda a, lam: lam, seeds
            ),
            restarts=True,
            seeded_by="proposed",
        ),
        Model(
            "proposed", (), ("alpha", "beta", "lambda"),
            lambda x, log_x, p: _log_pdf_power_rows(x, log_x, p["alpha"], p["beta"], p["lambda"]),
            lambda g, jitters, seeds: _fit_shifted(
                g, jitters, _proposed_mean_ll, 1.0, _proposed_mean_count, seeds
            ),
            restarts=True,
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
