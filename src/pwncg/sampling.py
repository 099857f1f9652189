"""Exact and MCMC sampling for the distribution family.

The composite complex sampler factorizes polar-wise: draw the power, take
its square root as the amplitude, then draw the phase from the conditional
von Mises law. The power draw itself is a two-stage mixture: an integer
from the distorted-Poisson law followed by a gamma variate whose shape is
shifted by that integer.

Two distorted-Poisson samplers are provided. The default builds the
truncated pmf table and inverse-transforms it (exact up to a bounded tail);
the Metropolis-Hastings sampler with a Poisson independence proposal is
exposed for parity and testing. Every sampler consumes a single
numpy Generator stream, so identical seeds reproduce identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .distributions import ComplexParams, PoissonTypeParams, PowerParams
from .special import SeriesConvergenceError, _confluent_weights

__all__ = [
    "RngStream",
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

# Truncation of the pmf table: the last term kept is past the mode and
# below _PMF_TAIL_TOL of the partial sum, within _PMF_MAX_TERMS terms.
_PMF_TAIL_TOL = 1e-13
_PMF_MAX_TERMS = 100_000

RngStream = np.random.Generator


def rng_stream(seed: int) -> RngStream:
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

    Terms follow f(0) = 1, f(k+1) = lam (alpha+k) / (k+1)^2 * f(k), the
    terms of the normalizer log_laguerre_neg, and come from the same window
    kernel. N is large enough that the last term is below _PMF_TAIL_TOL of
    the partial sum AND the terms are past their mode; beyond the mode the
    decay is super-geometric, so the discarded tail mass is of the same
    order as the ratio test. Terms before the kernel's window, far enough
    below the mode to be under _PMF_TAIL_TOL of the sum, are 0.
    """
    if p.lam == 0.0:
        return np.ones(1)
    probs = _confluent_weights(p.alpha, p.lam, _PMF_TAIL_TOL, _PMF_MAX_TERMS)
    if probs is None:
        raise SeriesConvergenceError(
            f"could not bound the pmf tail below {_PMF_TAIL_TOL} within {_PMF_MAX_TERMS} "
            f"terms for lam={p.lam}, alpha={p.alpha}"
        )
    return probs / probs.sum()


def sample_poisson_type_truncated(p: PoissonTypeParams, rng: RngStream, size=None):
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


class _LogGammaTable:
    """Cached ln Gamma(offset + k) lookups for integer k, grown on demand."""

    def __init__(self, offset: float):
        self.offset = offset
        self.values = gammaln(offset + np.arange(64, dtype=float))

    def take(self, k: np.ndarray) -> np.ndarray:
        top = int(k.max()) if k.size else 0
        if top >= len(self.values):
            self.values = gammaln(self.offset + np.arange(2 * top + 2, dtype=float))
        return self.values[k]


def _mh_log_ratio(
    state: np.ndarray, prop: np.ndarray, lg_fact: _LogGammaTable, lg_shift: _LogGammaTable
) -> np.ndarray:
    # Grouped per variable so that at alpha = 1 (where the shifted and
    # factorial tables are identical) the ratio is exactly 0.0 and every
    # proposal is accepted, not just almost surely.
    return (lg_fact.take(state) - lg_shift.take(state)) + (
        lg_shift.take(prop) - lg_fact.take(prop)
    )


def sample_poisson_type_mh(
    p: PoissonTypeParams,
    cfg: MhConfig,
    rng: RngStream,
    size=None,
    return_stats: bool = False,
):
    """Independence Metropolis-Hastings draws from the distorted-Poisson law.

    Each requested draw is produced by its own chain (run in parallel
    across draws): initial state and proposals are Poisson(lam), and the
    acceptance ratio n! Gamma(alpha+n') / (n'! Gamma(alpha+n)) is evaluated
    in log domain from cached ln-Gamma tables, so no series normalizer is
    ever needed.
    """
    m = 1 if size is None else int(np.prod(size))
    if p.lam == 0.0:
        draws = np.zeros(m, dtype=np.int64)
        stats = MhStats(proposals=0, accepted=0)
    else:
        lg_fact = _LogGammaTable(1.0)
        lg_shift = _LogGammaTable(p.alpha)
        state = rng.poisson(p.lam, m)
        steps = cfg.burn_in + cfg.thin
        accepted = 0
        for _ in range(steps):
            prop = rng.poisson(p.lam, m)
            log_ratio = _mh_log_ratio(state, prop, lg_fact, lg_shift)
            u = rng.random(m)
            with np.errstate(divide="ignore"):
                accept = np.log(u) < log_ratio
            accepted += int(accept.sum())
            state = np.where(accept, prop, state)
        draws = state.astype(np.int64)
        stats = MhStats(proposals=steps * m, accepted=accepted)

    if size is None:
        result = int(draws[0])
    else:
        result = draws.reshape(size)
    return (result, stats) if return_stats else result


def sample_gamma(shape, rate, rng: RngStream, size=None):
    """Gamma draws with the given shape and rate.

    Shape >= 1 uses the cubed-Gaussian accept-reject transform (squeeze
    check first, log check only on near-misses); shape < 1 is boosted to
    shape + 1 and multiplied by U^(1/shape). Vectorized; shape may be an
    array broadcast against the output shape.
    """
    out_shape = () if size is None else tuple(np.atleast_1d(size))
    k = np.broadcast_to(np.asarray(shape, dtype=float), out_shape or np.shape(shape)).copy()
    scalar = k.ndim == 0 and size is None
    k = np.atleast_1d(k)
    if np.any(~np.isfinite(k)) or np.any(k <= 0.0):
        raise ValueError("shape must be positive and finite")
    rate = float(rate)
    if not (math.isfinite(rate) and rate > 0.0):
        raise ValueError(f"rate must be positive, got {rate}")

    boost = k < 1.0
    k_eff = np.where(boost, k + 1.0, k)
    d = k_eff - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)

    out = np.empty_like(d)
    todo = np.ones(d.shape, dtype=bool)
    while todo.any():
        idx = np.flatnonzero(todo)
        xn = rng.standard_normal(idx.size)
        u = rng.random(idx.size)
        v = (1.0 + c[idx] * xn) ** 3
        pos = v > 0.0
        logv = np.full(idx.size, -np.inf)
        logv[pos] = np.log(v[pos])
        squeeze = pos & (u < 1.0 - 0.0331 * xn**4)
        slow = pos & ~squeeze & (np.log(u) < 0.5 * xn**2 + d[idx] * (1.0 - v + logv))
        ok = squeeze | slow
        sel = idx[ok]
        out[sel] = d[sel] * v[ok]
        todo[sel] = False

    nb = int(boost.sum())
    if nb:
        u = rng.random(nb)
        out[boost] *= u ** (1.0 / k[boost])
    out = np.maximum(out / rate, np.finfo(float).tiny)
    if scalar:
        return float(out[0])
    return out.reshape(out_shape) if size is not None else out


def sample_von_mises(mean_dir, kappa, rng: RngStream, size=None):
    """Von Mises draws in [-pi, pi] from numpy's generator (Best-Fisher
    accept-reject). kappa = 0 returns uniform angles. kappa may be an array
    broadcast against the output shape (the composite sampler feeds
    per-draw concentrations)."""
    kap = np.asarray(kappa, dtype=float)
    if np.any(~np.isfinite(kap)) or np.any(kap < 0.0):
        raise ValueError("kappa must be nonnegative and finite")
    out = rng.vonmises(mean_dir, kap, size=size)
    return float(out) if np.ndim(out) == 0 else out


def _draw_mixing_integers(p: PowerParams, rng, size, method):
    pt = PoissonTypeParams(lam=p.lam, alpha=p.alpha)
    if method == "mh" and p.alpha > MH_ALPHA_CUTOFF:
        method = "trunc"
    if method == "trunc":
        return sample_poisson_type_truncated(pt, rng, size=size)
    if method == "mh":
        return sample_poisson_type_mh(pt, MhConfig(), rng, size=size)
    raise ValueError(f"unknown method {method!r}; expected 'trunc' or 'mh'")


def sample_power(p: PowerParams, rng: RngStream, size=None, method: str = "trunc"):
    """Draw from the power distribution: mixing integer n, then a
    Gamma(n + alpha, beta) variate.

    method selects the integer sampler ('trunc' or 'mh'); 'mh' requests
    with alpha above MH_ALPHA_CUTOFF fall back to the truncated sampler,
    where the Poisson proposal no longer resembles the target.
    """
    if p.lam == 0.0:
        return sample_gamma(p.alpha, p.beta, rng, size=size)
    ns = _draw_mixing_integers(p, rng, size, method)
    return sample_gamma(np.asarray(ns, dtype=float) + p.alpha, p.beta, rng, size=size)


def sample_complex(p: ComplexParams, rng: RngStream, size=None, method: str = "trunc"):
    """Draw complex variates: amplitude from the power law, then the phase
    from the conditional von Mises law at that amplitude."""
    pw = p.power_params()
    x = sample_power(pw, rng, size=size, method=method)
    r = np.sqrt(x)
    kappa = 2.0 * abs(p.mu) * r / p.sigma2
    theta = sample_von_mises(p.mean_phase, kappa, rng, size=size)
    return r * np.exp(1j * theta)
