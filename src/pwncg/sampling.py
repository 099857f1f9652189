"""Exact and MCMC sampling for the distribution family.

The composite complex sampler factorizes polar-wise: draw the power, take
its square root as the amplitude, then draw the phase from the conditional
von Mises law. The power draw itself is a two-stage mixture: an integer
from the distorted-Poisson law followed by a gamma variate whose shape is
shifted by that integer.

Two distorted-Poisson samplers are provided. The default builds the
truncated pmf table and inverse-transforms it (exact up to a bounded tail);
the Metropolis-Hastings sampler with a Poisson independence proposal is
exposed for parity and testing. It draws its proposals by inverse
transform from a Poisson table with a guide table, one uniform each, not
with Generator.poisson. Every sampler consumes a single numpy Generator
stream, so identical seeds reproduce identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import ComplexParams, PoissonTypeParams, PowerParams
from .special import _confluent_weights

__all__ = [
    "rng_stream",
    "MhConfig",
    "MhStats",
    "MH_ALPHA_CUTOFF",
    "poisson_type_pmf_table",
    "sample_poisson_type_truncated",
    "sample_poisson_type_mh",
    "sample_gamma",
    "sample_von_mises",
    "sample_power",
    "sample_complex",
]

# Above this shape the Poisson proposal mismatches the target badly enough
# that the composite samplers route "mh" requests to the truncated sampler.
MH_ALPHA_CUTOFF = 20.0


def rng_stream(seed: int) -> np.random.Generator:
    """Seedable pseudo-random stream (PCG64). Identical seeds reproduce
    identical draw sequences."""
    return np.random.default_rng(seed)


@dataclass(frozen=True)
class MhConfig:
    """Metropolis-Hastings schedule: a draw is the chain state after
    burn_in + thin steps."""

    burn_in: int = 50
    thin: int = 5

    def __post_init__(self) -> None:
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.thin < 1:
            raise ValueError(f"thin must be >= 1, got {self.thin}")


@dataclass(frozen=True)
class MhStats:
    """Bookkeeping for chain diagnostics."""

    proposals: int
    accepted: int


def poisson_type_pmf_table(p: PoissonTypeParams) -> np.ndarray:
    """Normalized pmf values p(0..N) with the truncation N chosen adaptively.

    The samplers draw from this table and pwncg.moments takes the law's
    cumulants from it. Terms follow f(0) = 1, f(k+1) = lam (alpha+k) /
    (k+1)^2 * f(k), the terms of the normalizer log_laguerre_neg, from the
    same window kernel and its one truncation rule: N is large enough that
    the last term is below _REL_TOL of the partial sum AND the terms are
    past their mode; beyond the mode the decay is super-geometric, so the
    discarded tail mass is of the same order as the ratio test. Terms
    before the kernel's window, under _REL_TOL of the sum, are 0.
    """
    if p.lam == 0.0:
        return np.ones(1)
    probs = _confluent_weights(p.alpha, p.lam)
    return probs / probs.sum()


def sample_poisson_type_truncated(p: PoissonTypeParams, rng: np.random.Generator, size=None):
    """Draw from the distorted-Poisson law by inverse transform on the
    truncated cumulative table."""
    if p.lam == 0.0:
        return 0 if size is None else np.zeros(size, dtype=np.int64)
    probs = poisson_type_pmf_table(p)
    cum = np.cumsum(probs)
    u = rng.random(1 if size is None else size)
    draws = np.searchsorted(cum, u, side="left")
    draws = np.minimum(draws, len(probs) - 1).astype(np.int64)
    return int(draws[0]) if size is None else draws


# The Poisson(lam) proposal table of the MH sampler covers k in
# lam -/+ (_TABLE_WIDTHS sqrt(lam) + _TABLE_MARGIN). By Bennett's inequality
# each tail left out holds less than e^-50 of the mass, below the 2^-53
# that a uniform from rng.random resolves, and the table grows like
# sqrt(lam). _MAX_TABLE entries reach lam of about 1e10.
_TABLE_WIDTHS = 10.0
_TABLE_MARGIN = 40
_MAX_TABLE = 1 << 21
# The lookup splits [0, 1) into 2^_GUIDE_BITS equal cells.
_GUIDE_BITS = 16


class _PoissonTable:
    """Poisson(lam) on the window k = lo .. lo + len(cdf) - 1, drawn by
    inverse transform with a guide table (Devroye 1986, ch. III).

    The pmf is the closed form exp(k ln lam - lam - ln k!), and the CDF is
    scaled so that its last entry is exactly 1: every uniform in [0, 1)
    falls inside the window. A guide cell of [0, 1) that lies inside one
    CDF step gives its index directly; a uniform in a cell that straddles
    a step is resolved by searchsorted, so every draw is the exact
    inverse transform of its uniform.
    """

    def __init__(self, lam: float):
        half = _TABLE_WIDTHS * math.sqrt(lam) + _TABLE_MARGIN
        self.lo = max(0, math.ceil(lam - half))
        size = math.floor(lam + half) - self.lo + 1
        if size > _MAX_TABLE:
            raise ValueError(
                f"the Poisson proposal table for lam={lam} would need {size} "
                f"entries, more than {_MAX_TABLE}"
            )
        self.k = self.lo + np.arange(size, dtype=float)
        log_pmf = self.k * math.log(lam) - lam - gammaln(self.k + 1.0)
        cdf = np.cumsum(np.exp(log_pmf - log_pmf.max()))
        self.cdf = cdf / cdf[-1]
        edges = np.arange((1 << _GUIDE_BITS) + 1) / (1 << _GUIDE_BITS)
        # Cell j holds the uniforms in [edges[j], edges[j+1]); the first of
        # them draws index first[j], and none draws past last[j].
        first = np.searchsorted(self.cdf, edges[:-1], side="right")
        last = np.searchsorted(self.cdf, edges[1:], side="left")
        self.guide = np.where(first == last, first, -1)

    def draw(self, u: np.ndarray) -> np.ndarray:
        """Table indices i, with k = lo + i, for uniforms u in [0, 1)."""
        # Cell numbers fit in int32, and numpy casts float64 to int32 much
        # faster than to int64. np.take gathers by an int32 index about
        # twice as fast as guide[cells], which goes through numpy's general
        # fancy-index path; both return the same entries.
        i = np.take(self.guide, (u * (1 << _GUIDE_BITS)).astype(np.int32))
        straddle = np.flatnonzero(i < 0)
        i[straddle] = np.searchsorted(self.cdf, u[straddle], side="right")
        return i


def _mh_weights(alpha: float, k: np.ndarray) -> np.ndarray:
    """w_k = ln k! - ln Gamma(alpha + k) at integer-valued k. The MH log
    acceptance ratio of a move n -> n' is w_n - w_n'; at alpha = 1 every
    weight is exactly 0."""
    return gammaln(1.0 + k) - gammaln(alpha + k)


def sample_poisson_type_mh(
    p: PoissonTypeParams,
    cfg: MhConfig,
    rng: np.random.Generator,
    size=None,
    return_stats: bool = False,
):
    """Independence Metropolis-Hastings draws from the distorted-Poisson law.

    Each requested draw is produced by its own chain (run in parallel
    across draws): initial state and proposals are Poisson(lam), drawn by
    inverse transform from one table built per call (_PoissonTable), so
    each state and each proposal takes one uniform. The acceptance ratio
    n! Gamma(alpha+n') / (n'! Gamma(alpha+n)) is evaluated in log domain
    as w_n - w_n' from the weights w_k = ln k! - ln Gamma(alpha + k) over
    the table's support, so no series normalizer is ever needed. A step
    moves the accepted chains by an integer update of the state indices
    and then looks up the states' weights afresh. Raises ValueError where
    the table would exceed its size limit (lam above about 1e10).
    """
    m = 1 if size is None else int(np.prod(size))
    if p.lam == 0.0:
        draws = np.zeros(m, dtype=np.int64)
        stats = MhStats(proposals=0, accepted=0)
    else:
        table = _PoissonTable(p.lam)
        weights = _mh_weights(p.alpha, table.k)
        state = table.draw(rng.random(m))
        w_state = weights[state]
        steps = cfg.burn_in + cfg.thin
        accepted = 0
        for _ in range(steps):
            prop = table.draw(rng.random(m))
            w_prop = weights[prop]
            with np.errstate(divide="ignore"):
                accept = np.log(rng.random(m)) < w_state - w_prop
            accepted += int(np.count_nonzero(accept))
            # state += accept * (prop - state), in place: exact integer
            # steps, cheaper than masked copies; the weights are looked up
            # again into their own buffer, not into a new array.
            prop -= state
            prop *= accept
            state += prop
            np.take(weights, state, out=w_state)
        draws = (table.lo + state).astype(np.int64)
        stats = MhStats(proposals=steps * m, accepted=accepted)

    if size is None:
        result = int(draws[0])
    else:
        result = draws.reshape(size)
    return (result, stats) if return_stats else result


def _gamma_proposals(d: np.ndarray, c: np.ndarray, rng: np.random.Generator):
    """One Marsaglia-Tsang proposal per row, with d = shape - 1/3 >= 2/3
    and c = 1 / sqrt(9 d): the proposals d v and whether each is accepted.

    The squeeze u < 1 - 0.0331 x^4 accepts about 92% of the proposals with
    arithmetic alone; the exact test ln u < x^2 / 2 + d (1 - v + ln v)
    runs only on the rest with v > 0, about 8%. x^4 is (x x)^2: numpy hands
    xn**4 to libm's pow, about 60 ns per element. The squeeze implies
    v > 0, since v <= 0 needs x <= -sqrt(9 d) <= -sqrt(6), where its bound
    is negative."""
    xn = rng.standard_normal(d.size)
    u = rng.random(d.size)
    v = (1.0 + c * xn) ** 3
    x2 = xn * xn
    ok = u < 1.0 - 0.0331 * (x2 * x2)
    near = np.flatnonzero(~ok & (v > 0.0))
    vn = v[near]
    ok[near] = np.log(u[near]) < 0.5 * x2[near] + d[near] * (1.0 - vn + np.log(vn))
    return d * v, ok


def sample_gamma(shape, rate, rng: np.random.Generator, size=None):
    """Gamma draws with the given shape and rate.

    Shape >= 1 uses Marsaglia and Tsang's cubed-Gaussian accept-reject
    transform (ACM TOMS 26:363, 2000; _gamma_proposals): a squeeze check
    first, the log check only on its near-misses; shape < 1 is boosted to
    shape + 1 and multiplied by U^(1/shape). Vectorized; shape may be an
    array broadcast against the output shape. A rate so small that a draw
    overflows the float range raises ValueError.

    The draws' bits come from (1 + c x)^3 and U^(1/shape), both libm's
    pow, and from d v. The squeeze from (x x)^2 and the log check on
    near-misses alone take the same accept decisions as pow's x^4 and a
    log check on every row, so seeded draws are those of earlier versions;
    tests/test_sampling.py pins them by SHA-256.
    """
    out_shape = np.shape(shape) if size is None else tuple(np.atleast_1d(size))
    # The draws run on flat arrays, in C order, and take out_shape at the end.
    k = np.broadcast_to(np.asarray(shape, dtype=float), out_shape).ravel()
    if np.any(~np.isfinite(k)) or np.any(k <= 0.0):
        raise ValueError("shape must be positive and finite")
    rate = float(rate)
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate}")

    boost = k < 1.0
    d = (k + boost) - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)

    # Rows are drawn in order, first all of them, then again the ones
    # rejected so far, so the stream is consumed as one loop over all rows
    # would; only the first pass needs no gather.
    out, ok = _gamma_proposals(d, c, rng)
    rows = np.flatnonzero(~ok)
    while rows.size:
        y, ok = _gamma_proposals(d[rows], c[rows], rng)
        out[rows[ok]] = y[ok]
        rows = rows[~ok]

    nb = int(boost.sum())
    if nb:
        u = rng.random(nb)
        out[boost] *= u ** (1.0 / k[boost])
    with np.errstate(over="ignore"):
        out /= rate
    if np.isinf(out).any():
        raise ValueError(f"a gamma draw at rate {rate} overflows; the rate must be larger")
    np.maximum(out, np.finfo(float).tiny, out=out)
    if size is None and not out_shape:
        return float(out[0])
    return out.reshape(out_shape)


def sample_von_mises(mean_dir, kappa, rng: np.random.Generator, size=None):
    """Von Mises draws in [-pi, pi] from numpy's generator (Best-Fisher
    accept-reject). kappa = 0 returns uniform angles. kappa may be an array
    broadcast against the output shape (the composite sampler feeds
    per-draw concentrations)."""
    kap = np.asarray(kappa, dtype=float)
    if np.any(~np.isfinite(kap)) or np.any(kap < 0.0):
        raise ValueError("kappa must be nonnegative and finite")
    out = rng.vonmises(mean_dir, kap, size=size)
    return float(out) if np.ndim(out) == 0 else out


def sample_power(p: PowerParams, rng: np.random.Generator, size=None, method: str = "trunc"):
    """Draw from the power distribution: mixing integer n, then a
    Gamma(n + alpha, beta) variate.

    method selects the integer sampler ('trunc' or 'mh'); 'mh' requests
    with alpha above MH_ALPHA_CUTOFF fall back to the truncated sampler,
    where the Poisson proposal no longer resembles the target. At lam = 0
    both samplers return zeros without drawing, so the draw is
    Gamma(alpha, beta).
    """
    pt = PoissonTypeParams(lam=p.lam, alpha=p.alpha)
    if method == "trunc" or (method == "mh" and p.alpha > MH_ALPHA_CUTOFF):
        ns = sample_poisson_type_truncated(pt, rng, size=size)
    elif method == "mh":
        ns = sample_poisson_type_mh(pt, MhConfig(), rng, size=size)
    else:
        raise ValueError(f"unknown method {method!r}; expected 'trunc' or 'mh'")
    return sample_gamma(np.asarray(ns, dtype=float) + p.alpha, p.beta, rng, size=size)


def sample_complex(p: ComplexParams, rng: np.random.Generator, size=None, method: str = "trunc"):
    """Draw complex variates: amplitude from the power law, then the phase
    from the conditional von Mises law at that amplitude."""
    pw = p.power_params()
    x = sample_power(pw, rng, size=size, method=method)
    r = np.sqrt(x)
    kappa = 2.0 * abs(p.mu) * r / p.sigma2
    theta = sample_von_mises(p.mean_phase, kappa, rng, size=size)
    return r * np.exp(1j * theta)
