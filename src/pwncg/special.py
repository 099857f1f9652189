"""Log-domain special functions underpinning the distribution family.

Every function here returns natural logarithms. The densities built on top
combine gamma, Bessel, and confluent-hypergeometric factors whose linear
values overflow or underflow long before the parameter ranges of interest
are exhausted, so the linear domain is only ever entered at call sites.

The kernels avoid Python loops over elements and over series terms: ln I0
is ln(i0e(x)) + x at every argument; ln I_nu below _IV_SERIES_CUTOFF sums
each row's own term count, read from a table, as one (3, K) @ (K, n)
product of the row's coefficients and the powers u^k of u = (x / max x)^2
(_log_iv_series_rows), which a caller that evaluates the same rows at
many scales caches (fitting._Group.powers); and the confluent normalizer
sums a window of terms around its mode in one numpy pass.

Every series kernel has one path: it returns the value and the two
derivatives the fits need as a (3, ...) array on every call, and a caller
that wants the value alone (log_bessel_i_nu and the noncentral-gamma
density kernel of distributions, through _log_iv_padded; log_laguerre_neg
and the power density kernel) takes row 0. ln I_nu is
_log_bessel_i_nu_rows. Its arguments at which scipy's ive under- or
overflows, and its subnormal arguments, go through one row-batched call
of a log-domain series (_log_iv_window) that the confluent normalizer's
window kernel sums (_window_rows, one pass per block of rows, each block
with a mask of the rows whose windows pass their checks); _window_sums
gives ln S and the derivatives of both window series as moments of their
terms, NaN in a row that fails.

Where a window call's time goes. The term arithmetic is a few passes
over each row's window (about 40 terms at lam = 3, 840 at lam = 2000):
the ratios, their cumulative product, H_n, and the sum and two moment
sums, each a cumulative sum so that terms add in order. The rest is a
fixed number of numpy calls on (R,)-sized arrays, whatever the row count
R: the mode, the window bounds (_window_bounds, whole numbers held as
floats, so that they enter the log terms without a cast), the log of the
first term where a window starts past n = 0, and the tail and head
checks (_window_checks, one mask per block). At the one to three rows of
a strongly noncentral fit those calls cost more than the arithmetic, so
a confluent call of at most _ROWS_ALONE rows sums each row alone
(_confluent_row): its mode, window bounds and checks are Python
numbers, and its terms and head term go through the batched path's
numpy and scipy operations in the same order, so each output keeps its
bits. That costs a third of the batched path at one row and lam = 3,
and about as much at four rows, where the batched path takes over;
_confluent_weights and the ln I_nu fallback, which sums thousands of
rows, always take it. The confluent ratios compute alpha + n on the way,
and _window_sums takes H_n from it rather than building it again.

The value-and-gradient kernels that the fits call are row-batched: they
take one parameter set per row and return one result per row. A row's
result never depends on the other rows of its call. Each row chooses its
own series term count or window length; a window row padded to a longer
shared array gets exact zeros there, and its sums add the terms in order
(_sum_row_terms), whatever the shape of the array; each ascending-series
row takes a product of its own shape, whether or not its powers come
from a cached table.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import digamma, gammaln, i0e, i1e, ive

__all__ = [
    "SeriesConvergenceError",
    "I0_SERIES_CUTOFF",
    "log_bessel_i0",
    "log_bessel_i_nu",
    "log_laguerre_neg",
    "log_laguerre_pos_arg",
]

# Argument above which the ascending series of I0 needs more than ~60 terms.
# ln I0 has a single kernel at every argument (log_bessel_i0), so this is
# not a branch point; perfbench/tracing.py reads it for the
# special.log_bessel_i0.share_x_ge_25 metric.
I0_SERIES_CUTOFF = 25.0

# Below this the ascending series of I_nu is cheap and exact; above it
# scipy's exponentially scaled ive is accurate and safe. perfbench/tracing.py
# also reads it for the special.log_bessel_i_nu.share_x_ge_30 metric.
_IV_SERIES_CUTOFF = 30.0

# Below this x / 2 is subnormal; there ln I_nu is its leading series term.
_IV_TINY = 2.0 * float(np.finfo(float).tiny)

# Term window of the confluent normalizer and of the log-domain I_nu
# series: from n = 0 to the term mode plus _WINDOW_WIDTHS widths
# sqrt(mode + 1) plus _WINDOW_MARGIN terms.
_WINDOW_WIDTHS = 9.0
_WINDOW_MARGIN = 16

# Largest padded block, in elements, that a row-batched series builds at
# once (rows x terms x values for the powers of the Bessel series, rows x
# terms x _WINDOW_ARRAYS for a window); more rows are split into several
# blocks. A row's sums do not depend on its block, so the size sets only
# the cost: power tables of up to 2^16 doubles (512 KiB) pay the fixed
# numpy cost of a block a quarter as often as tables of 2^14 did. With
# the per-term table (_iv_power_table) that took the noncentral-gamma
# density of 102 000 values in the benchmark's draws pass from about 42
# to 26 ms of CPU (2 vCPUs).
_SERIES_BLOCK = 1 << 16

# A window block keeps about this many block-sized arrays alive at once
# (the ratios, their cumulative product, c + n and the term indices), so
# its blocks hold 2^14 terms, 128 KiB per array. At 2^16 terms a 64-row
# confluent call at lam = 2000 took 2.7 ms of CPU against 1.5 ms (2
# vCPUs), all of it the allocator's: with glibc's mmap and trim
# thresholds raised, both sizes cost the same.
_WINDOW_ARRAYS = 4

# Truncation of every window series (_window_rows): summation stops once a
# term past the mode is below _REL_TOL of the partial sum, and gives up
# after _MAX_TERMS terms.
_REL_TOL = 1e-14
_MAX_TERMS = 200_000


class SeriesConvergenceError(ArithmeticError):
    """A truncated series failed to meet its tolerance within its term budget."""


# Term-count table for the ascending series: _SERIES_QSTAR[k-1] is the
# largest q = (x/2)^2 for which k terms push the truncated tail below
# 1e-24 of the leading term (a generous margin that also covers the
# slightly slower decay of low-order I_nu series).
_SERIES_N = np.arange(1.0, 101.0)
_SERIES_QSTAR = np.exp((-24.0 * math.log(10.0) + 2.0 * gammaln(_SERIES_N + 1.0)) / _SERIES_N)


def _series_counts(q_max):
    """Term count of the ascending series whose largest q is q_max: the
    table's count plus a margin of two, at most len(_SERIES_N)."""
    return np.minimum(np.searchsorted(_SERIES_QSTAR, q_max, side="left") + 3, len(_SERIES_N))


# Terms of the ascending series at the largest q below _IV_SERIES_CUTOFF:
# the length of a power table (_iv_power_table).
_IV_TABLE_TERMS = int(_series_counts(0.25 * _IV_SERIES_CUTOFF**2))


def _row_blocks(lengths: np.ndarray, width: int):
    """(length, rows) pairs that cover every row: a slice of all rows if
    their padded block (longest length x rows x width) holds at most
    _SERIES_BLOCK elements, else index arrays of consecutive rows in order
    of length that do, with a block of its own for a row too long for
    that."""
    longest = int(lengths.max())
    if longest * lengths.size * width <= _SERIES_BLOCK:
        yield longest, slice(None)
        return
    rows = np.argsort(lengths, kind="stable")
    lens = lengths[rows]
    start = 0
    while start < rows.size:
        stop = start + 1
        while stop < rows.size and int(lens[stop]) * (stop - start + 1) * width <= _SERIES_BLOCK:
            stop += 1
        yield int(lens[stop - 1]), rows[start:stop]
        start = stop


def _sum_row_terms(t: np.ndarray) -> np.ndarray:
    """t[..., 0] + t[..., 1] + ... in that order, along the last axis: a
    cumulative sum, which adds in term order whatever the length."""
    return np.add.accumulate(t, axis=-1)[..., -1]


def _check_arguments(name: str, arr: np.ndarray) -> None:
    """Check in one min/max pass that all elements of a nonempty argument
    array are finite and >= 0 (a NaN propagates through both reductions)."""
    lo = float(arr.min())
    hi = float(arr.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} requires finite arguments")
    if lo < 0.0:
        raise ValueError(f"{name} requires x >= 0")


def _log_i0_unchecked(arr: np.ndarray) -> np.ndarray:
    """log_bessel_i0 without argument validation; for internal hot loops
    whose inputs are nonnegative by construction."""
    return np.log(i0e(arr)) + arr


def _log_i0_grad(arr: np.ndarray) -> np.ndarray:
    """_log_i0_unchecked(arr) and x d/dx ln I0(x) = x I1(x) / I0(x) at arr,
    stacked as an array of shape (2,) + arr.shape."""
    out = np.empty((2,) + arr.shape)
    scaled = i0e(arr)
    np.log(scaled, out=out[0])
    out[0] += arr
    np.divide(i1e(arr), scaled, out=out[1])
    out[1] *= arr
    return out


def log_bessel_i0(x):
    """ln I0(x) for x >= 0, overflow-safe for arbitrarily large arguments.

    One kernel at every argument: ln I0(x) = ln(i0e(x)) + x, where scipy's
    exponentially scaled i0e(x) = exp(-x) I0(x) lies in (0, 1] and never
    overflows. Accepts scalars or arrays.

    Against mpmath the error stayed below 1e-15 * max(1, ln I0(x)) over
    90 000 points in [1e-12, 1e6]. That is what the densities need, where
    ln I0 is one summand among terms of order one; but for x << 1, where
    ln I0(x) ~ x^2 / 4, it is not small relative to the value (at
    x = 1e-4 the relative error is ~1e-7).
    """
    arr = np.asarray(x, dtype=float)
    if arr.size:
        _check_arguments("log_bessel_i0", arr)
    out = _log_i0_unchecked(arr)
    return float(out) if arr.ndim == 0 else out


def _iv_power_table(u: np.ndarray, terms: int = _IV_TABLE_TERMS) -> np.ndarray:
    """u^1 .. u^terms of each element of u (R, n), as an (R, terms, n)
    array: u^k = u^(k-1) u, one multiply per term, so the first k powers
    do not depend on terms.

    These are the multiplies, in the same order, of a cumulative product
    along the term axis, so the powers keep their bits; one (R, n) slab
    multiply per term costs about half of np.multiply.accumulate along
    that middle axis: 0.13 against 0.25 ms at (28, 36, 64) and 0.9
    against 1.9 ms at (129, 64, 60), process CPU on 2 vCPUs."""
    out = np.empty((u.shape[0], terms, u.shape[1]))
    out[:, 0] = u
    for k in range(1, terms):
        np.multiply(out[:, k - 1], u, out=out[:, k])
    return out


def _log_iv_series_rows(nu: np.ndarray, x: np.ndarray, q_max, powers=None) -> np.ndarray:
    """ln I_nu(x) by its ascending series, d/dnu and x d/dx of it, as a
    (3, R, n) array, for orders nu (R,) and arguments x (R, n), whose
    largest q = (x/2)^2 below _IV_SERIES_CUTOFF is q_max (R,). x may hold
    placeholders where the caller overwrites the result; one with q above
    q_max takes u = 1.

    The powers u^k of each row (see _iv_series_products) come from
    powers = (table, index), table[index[r]] being row r's
    _iv_power_table, or else are built from x here, a block of rows at a
    time, so that a call on many rows stays small.
    """
    if powers is not None:
        return _iv_series_products(nu, x, q_max, *powers)
    out = np.empty((3,) + x.shape)
    # u = q / Q, clipped to 1 at the placeholders; where Q underflows to 0,
    # so do every series q and coefficient
    u = np.minimum(0.25 * x * x / np.where(q_max > 0.0, q_max, 1.0)[:, None], 1.0)
    for terms, rows in _row_blocks(_series_counts(q_max), x.shape[1]):
        table = _iv_power_table(u[rows], terms)
        index = np.arange(len(table))
        out[:, rows] = _iv_series_products(nu[rows], x[rows], q_max[rows], table, index)
    return out


def _iv_series_products(nu, x, q_max, table: np.ndarray, index: np.ndarray):
    """_log_iv_series_rows of rows whose powers u^k are table[index[r]].

    Term k of row r at argument x is T_k = C_k q^k with C_k = prod_{j<=k}
    1 / (j (j + nu)), so T_k = [C_k Q^k] u^k with Q = q_max[r] and
    u = q / Q <= 1. Row r sums _series_counts(Q) terms as one (3, K) @ (K, n)
    product: the coefficients C_k Q^k, H_k C_k Q^k and k C_k Q^k, with
    H_k = sum_{j<=k} 1 / (j + nu) (d ln T_k / dnu = -H_k, so the
    derivatives are moments of the same terms), times the powers u^k.
    """
    n_rows, n = x.shape
    counts = _series_counts(q_max)
    size = int(counts.max())
    m = _SERIES_N[:size]
    coef = np.empty((n_rows, 3, size))
    a = np.multiply.accumulate(q_max[:, None] / (m * (m + nu[:, None])), axis=1)
    coef[:, 0] = a
    np.add.accumulate(1.0 / (m + nu[:, None]), axis=1, out=coef[:, 1])
    coef[:, 1] *= a
    np.multiply(a, m, out=coef[:, 2])
    sums = np.empty((n_rows, 3, n))
    for r, (t, k) in enumerate(zip(index.tolist(), counts.tolist())):
        np.matmul(coef[r, :, :k], table[t, :k], out=sums[r])
    s0, s1, s2 = sums.transpose(1, 0, 2)
    out = np.empty((3,) + x.shape)
    nus = nu[:, None]
    log_half_x = np.log(0.5 * x)
    out[0] = nus * log_half_x - gammaln(nus + 1.0) + np.log1p(s0)
    total = 1.0 + s0
    out[1] = log_half_x - digamma(nus + 1.0) - s1 / total
    out[2] = nus + 2.0 * s2 / total
    return out


def _iv_window_rows(nu: np.ndarray, x: np.ndarray):
    """_window_rows of the log-domain I_nu series at each element of 1-D
    arrays nu and x, and ln(x/2), taken as ln x - ln 2, which loses no bits
    where x / 2 would be subnormal. To be consumed where overflow and
    invalid values are ignored: a failing window may overflow."""
    log_half_x = np.log(x) - math.log(2.0)
    q = 0.25 * x * x

    def ratios(n: np.ndarray, rows):
        return q[rows, None] / ((n + 1.0) * (n + 1.0 + nu[rows, None])), None

    def log_head(n: np.ndarray, rows) -> np.ndarray:
        v = nu[rows]
        log_t = 2.0 * n * log_half_x[rows] - gammaln(n + 1.0) - gammaln(n + 1.0 + v)
        return log_t + gammaln(v + 1.0)

    mode = np.maximum(0.0, 0.5 * (np.sqrt(nu * nu + x * x) - nu) - 1.0)
    return _window_rows(ratios, log_head, mode), log_half_x


def _log_iv_window(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln I_nu(x) by the ascending series summed in log domain, d/dnu and
    x d/dx of it, as rows of a (3, x.size) array, elementwise in 1-D
    arrays nu > -1 and x > 0; NaN in all three where the series does not
    converge.

    Used where ive under/overflows, which only happens when nu is large
    relative to x, and at subnormal x, where the window is the leading
    term alone. The terms T_n = (x/2)^(2n) Gamma(nu+1) / (n! Gamma(n+nu+1))
    have the ratio (x/2)^2 / ((n+1)(n+1+nu)), which crosses 1 at the
    positive root of (n+1)(n+1+nu) = (x/2)^2, and d ln T_n / dnu is -H_n
    of _window_sums with c = nu + 1.
    """
    c = nu + 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        blocks, log_half_x = _iv_window_rows(nu, x)
        log_sum, mean_h, mean_n = _window_sums(blocks, c)
    value = nu * log_half_x - gammaln(c) + log_sum
    return np.array([value, log_half_x - digamma(c) - mean_h, nu + 2.0 * mean_n])


# Half-step of the central difference in nu that gives d/dnu ln I_nu from
# ive. Against mpmath (nu in [-0.999, 999], x in [30, 5000]) its error
# stayed below 1.2e-10; a one-sided difference, at steps 1e-6 and 1e-5,
# erred by up to 2.5e-7, ive's own rounding over the step.
_NU_STEP = 1e-3


# scipy's ive returns NaN for every x from _IVE_X_MAX on; there the
# large-argument expansion of I_nu (DLMF 10.40.1), summed to
# _IV_ASYMPTOTIC_TERMS terms, gives ln I_nu and its derivatives.
_IVE_X_MAX = 2.0**30
_IV_ASYMPTOTIC_TERMS = 16


def _log_iv_asymptotic(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln I_nu(x), d/dnu and x d/dx of it, as rows of a (3, x.size) array,
    from I_nu(x) ~ e^x / sqrt(2 pi x) S with S = sum_k c_k,
    c_k = prod_{j<=k} -(4 nu^2 - (2j - 1)^2) / (8 j x) (DLMF 10.40.1).
    d c_k / dnu follows the same product by the product rule, and
    x d c_k / dx = -k c_k. NaN where the last term is not below 2^-53 of S,
    which happens only where nu^2 is comparable to x."""
    c = np.ones_like(x)
    dc = np.zeros_like(x)
    s, ds, ks = np.zeros_like(x), np.zeros_like(x), np.zeros_like(x)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging sum may overflow
        mu = 4.0 * nu * nu
        for k in range(1, _IV_ASYMPTOTIC_TERMS + 1):
            f = -(mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
            dc = dc * f - c * nu / (k * x)
            c = c * f
            s += c
            ds += dc
            ks += k * c
        total = 1.0 + s
        out = np.array(
            [x - 0.5 * np.log(2.0 * math.pi * x) + np.log1p(s), ds / total, x - 0.5 - ks / total]
        )
        out[:, ~(np.abs(c) <= 2.0**-53 * np.abs(total))] = np.nan
    return out


def _log_iv_large(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln I_nu(x), d/dnu and x d/dx of it, for x >= _IV_SERIES_CUTOFF, as
    rows of a (3, x.size) array, elementwise in 1-D arrays nu and x, from
    four ive calls. The value is ln(ive(nu, x)) + x; x d/dx ln I_nu =
    x I_{nu+1} / I_nu + nu, and d/dnu is a central difference in nu
    (ln I_nu(x) is analytic in nu for x > 0, also below nu = -1). The
    value is NaN where ive(nu, x) is not a finite normal number, and the
    derivatives where one of the four ive values is not. From _IVE_X_MAX
    on, where ive is NaN, the large-argument expansion gives all three,
    NaN where it does not converge. _log_bessel_i_nu_rows takes the NaNs
    from the log-domain series.

    ive takes a slower path at negative orders, so the calls are made at
    |nu|, with the sign of d/dnu flipped where nu < 0 (nu + 1 > 0 on the
    domain nu > -1). By I_-v = I_v + (2 / pi) sin(v pi) K_v (DLMF 10.27.2)
    the K term is below e^-60 of I_v from x = 30 on for v within _NU_STEP
    of that domain, and ive returns the same bits at v and -v there."""
    a = np.abs(nu)
    scaled, above, up, down = (ive(v, x) for v in (a, nu + 1.0, a + _NU_STEP, a - _NU_STEP))
    tiny = np.finfo(float).tiny
    normal = [np.isfinite(v) & (v >= tiny) for v in (scaled, above, up, down)]
    out = np.empty((3, x.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out[0] = np.log(scaled) + x
        out[1] = (np.log(up) - np.log(down)) / np.where(nu < 0.0, -2.0 * _NU_STEP, 2.0 * _NU_STEP)
        out[2] = x * above / scaled + nu
    out[0, ~normal[0]] = np.nan
    out[1:, ~np.logical_and.reduce(normal)] = np.nan
    far = np.flatnonzero(x >= _IVE_X_MAX)
    if far.size:
        out[:, far] = _log_iv_asymptotic(nu[far], x[far])
    return out


def _log_bessel_i_nu_rows(nu: np.ndarray, x: np.ndarray, powers=None) -> np.ndarray:
    """ln I_nu(x) at order nu[r] for each row r of x > 0 (R, n), unchecked,
    d/dnu and x d/dx of it, as a (3, R, n) array; NaN where the log-domain
    series does not converge.

    The ascending series (_log_iv_series_rows) serves x below
    _IV_SERIES_CUTOFF, and _log_iv_large x above it. Subnormal x, and the
    elements whose derivatives _log_iv_large leaves NaN, go through one
    call of the log-domain series (_log_iv_window), which fills only the
    outputs that are NaN: a finite value from ive is kept even where its
    derivatives fail.

    powers = (table, index), if given, holds the series powers of each
    row: table[index[r]] is the _iv_power_table of x[r] / max(x[r])
    squared, cached by a caller that evaluates the same rows at many
    scales (fitting._Group). A row with an argument at or above the cutoff
    builds its powers from its series arguments instead, as every row does
    without a table."""
    tiny = x < _IV_TINY
    big = x >= _IV_SERIES_CUTOFF
    small = ~(tiny | big)
    if small.all():
        return _log_iv_series_rows(nu, x, 0.25 * np.square(x.max(axis=1)), powers)
    out = np.empty((3,) + x.shape)
    # Each row's term count and power scale come from its largest series
    # argument; its other elements get placeholder values, overwritten below.
    q_max = np.where(small, 0.25 * np.square(x), 0.0).max(axis=1)
    far = big.any(axis=1)
    for part, cached in ((~far, powers), (far, None)):
        rows = np.flatnonzero(part & small.any(axis=1))
        if rows.size:
            p = None if cached is None else (cached[0], cached[1][rows])
            xs = np.where(small[rows], x[rows], 1.0)
            out[:, rows] = _log_iv_series_rows(nu[rows], xs, q_max[rows], p)
    out[:, tiny] = np.nan
    nu_at = np.broadcast_to(nu[:, None], x.shape)
    if big.any():
        out[:, big] = _log_iv_large(nu_at[big], x[big])
    fallback = np.isnan(out[1])
    if fallback.any():
        kept = out[:, fallback]
        series = _log_iv_window(nu_at[fallback], x[fallback])
        out[:, fallback] = np.where(np.isnan(kept), series, kept)
    return out


# Row width of log_bessel_i_nu's calls of _log_bessel_i_nu_rows: one 3 x 20
# patch, rounded up. Each row takes its own series term count, and
# _row_blocks keeps the series blocks of many rows small.
_IV_ROW_WIDTH = 64


def _log_iv_padded(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln I_nu[r](x[r]) for each row r of x > 0 (R, n), unchecked: the
    value row of _log_bessel_i_nu_rows on x cut into rows of
    _IV_ROW_WIDTH, the last padded with 1.0, each row as log_bessel_i_nu
    computes it alone; NaN where the log-domain series does not converge.
    A value can depend on the row it is summed in (the row's largest
    argument sets its series term count), so each batch gets the values
    log_bessel_i_nu gives on it alone."""
    n_rows, n = x.shape
    if not n:
        return np.empty(x.shape)
    per_row = -(-n // _IV_ROW_WIDTH)
    padded = np.ones((n_rows, per_row * _IV_ROW_WIDTH))
    padded[:, :n] = x
    logs = _log_bessel_i_nu_rows(np.repeat(nu, per_row), padded.reshape(-1, _IV_ROW_WIDTH))[0]
    return logs.reshape(n_rows, -1)[:, :n]


def log_bessel_i_nu(nu: float, x):
    """ln I_nu(x) for nu > -1 and x >= 0.

    For nu > -1 every series term is positive (Gamma(n+nu+1) > 0 for all
    n >= 0), so no reflection through K_nu is needed anywhere on this
    domain. The positive arguments go to _log_bessel_i_nu_rows, whose
    value row it returns (_log_iv_padded), as rows of _IV_ROW_WIDTH,
    padded with 1.0: the ascending series below _IV_SERIES_CUTOFF, the
    exponentially scaled scipy routine above it, and, in one batch, a
    log-domain series where that under- or overflows and at subnormal x,
    or where the derivatives from scipy's routine fail. Raises
    SeriesConvergenceError where that series does not converge.
    """
    nu = float(nu)
    if not math.isfinite(nu) or nu <= -1.0:
        raise ValueError(f"log_bessel_i_nu requires nu > -1, got {nu}")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size == 0:
        return np.empty_like(arr)
    _check_arguments("log_bessel_i_nu", arr)
    # I_nu(0) is 1 for nu = 0, 0 for nu > 0 and infinite for nu < 0.
    out = np.full(arr.shape, 0.0 if nu == 0.0 else -math.copysign(math.inf, nu))
    positive = arr > 0.0
    vals = arr[positive]
    if vals.size:
        logs = _log_iv_padded(np.array([nu]), vals[None])[0]
        failed = np.flatnonzero(np.isnan(logs))
        if failed.size:
            raise SeriesConvergenceError(
                f"I_nu series did not converge for nu={nu}, x={float(vals[failed[0]])} "
                f"within {_MAX_TERMS} terms"
            )
        out[positive] = logs
    return float(out[0]) if scalar else out


# n for windows of up to 16 384 terms; longer windows compute it on the fly.
_N_TABLE = np.arange(16_384.0)


def _term_index(n_end: int) -> np.ndarray:
    """0.0, 1.0, ..., n_end - 1 as floats."""
    return _N_TABLE[:n_end] if n_end <= len(_N_TABLE) else np.arange(float(n_end))


def _window_bounds(mode: np.ndarray):
    """The window (first, last) of each row, whole numbers as float arrays:
    from _WINDOW_WIDTHS widths sqrt(mode + 1) and _WINDOW_MARGIN terms
    before the mode (or n = 0) to as far past it, at most _MAX_TERMS.
    As floats they never wrap, as an int64 cast would past 2**63, and
    enter the log terms without a cast; fmin also clips a NaN, so an
    infinite or NaN mode gives a window that ends at _MAX_TERMS, where the
    row fails. first < last always, so neither needs clipping to the
    other."""
    width = _WINDOW_WIDTHS * np.sqrt(mode + 1.0)
    last = np.trunc(mode + width)
    last += _WINDOW_MARGIN
    np.fmin(last, _MAX_TERMS, out=last)
    first = np.trunc(np.fmin(mode - width, _MAX_TERMS))
    first -= _WINDOW_MARGIN
    np.maximum(first, 0.0, out=first)
    return first, last


class _Block(NamedTuple):
    """Rows of a window series summed together (see _window_rows)."""

    rows: np.ndarray | slice
    first: np.ndarray
    head: bool
    n: np.ndarray
    shifted: np.ndarray | None
    rel: np.ndarray
    total: np.ndarray
    log_sum: np.ndarray
    ok: np.ndarray


def _window_checks(rel, end, total, n0, padded: bool):
    """The tail and head checks of _window_rows on a block, as one mask:
    whether each row's last term is below _REL_TOL of the sum, and, given
    the first terms n0 of rows that do not all start at n = 0, whether
    each starts at n = 0 or with a first term below _REL_TOL of the sum.

    These imply that the last term is past the mode and the first before
    it, so the ratios need no test of their own. From n = 1 on the term
    ratio of both window series falls with n. A window ends past the mode
    unless _MAX_TERMS cuts it; one cut before the mode (last ratio >= 1)
    has its terms rising from n = 1 to its last, some 196 000 terms on,
    which is then its largest, and one that starts past n = 0 after the
    mode (first ratio <= 1) has its largest term first. Either term is at
    least 1 / (_MAX_TERMS + 1) of the sum and fails its test."""
    if padded:
        rel_end = rel[np.arange(end.size), end.astype(np.intp) - 1]
    else:
        rel_end = rel[:, -1]
    tol = _REL_TOL * total
    ok = rel_end < tol
    if n0 is None:
        return ok
    head_ok = 1.0 < tol
    if np.count_nonzero(n0) < n0.size:
        head_ok |= n0 == 0
    ok &= head_ok
    return ok


def _window_rows(ratios, log_head, mode):
    """Sums of positive series, one per row, each over a window of its own
    terms, in one numpy pass per block of rows.

    ratios(n, rows) returns t_{n+1} / t_n of the given rows at term
    indices n (rows.size, N), and with it c + n, if the ratios computed
    that on the way, for the derivatives of _window_sums, else None;
    log_head(n, rows) returns ln t_n at indices n (rows.size,) with n > 0
    (t_0 = 1), and mode[r] is where row r's ratio crosses 1. Around it
    ln t_n falls off like a Gaussian of variance at most mode + 1, so a
    row's window runs from _WINDOW_WIDTHS of those widths and
    _WINDOW_MARGIN terms before the mode (or from n = 0) to as far past
    it, where the terms are ~exp(-40) of the peak. Within it, the terms
    over the first one are a cumulative product of the ratios; they stay
    within ~exp(+-250), so they neither overflow nor lose their sum to
    underflow.

    Yields a _Block per block of rows (an index array, or a slice for all
    rows): first; head, whether some first is past 0; the term indices n
    at which the ratios were taken ((rows.size, size) with a head, else
    (size,)); shifted, c + n if ratios returned it, else None; rel
    (rows.size, size) holding t_{first[i] + j} / t_{first[i]} for
    j = 1 .. size in row i, 0 past the row's window end; total = 1 + the
    sum of rel over j; log_sum, the log of the row's sum; and ok,
    whether the row passes its checks. Every window series is truncated
    alike, in this one pass: a row whose last term is not past the mode
    and below _REL_TOL of the sum, or whose first term is not before the
    mode and as small, fails, and its sums are NaN. Nothing is retried:
    on the parameter ranges scanned by the tests, every row that fails has
    a window that already ends at _MAX_TERMS.
    """
    first, last = _window_bounds(mode)
    lengths = last - first
    for size, rows in _row_blocks(lengths, _WINDOW_ARRAYS):
        n0 = first[rows]
        end = lengths[rows]
        head = np.count_nonzero(n0) != 0
        j = _term_index(size)
        n = n0[:, None] + j if head else j
        r, shifted = ratios(n, rows)
        padded = np.minimum.reduce(end) < size
        if padded:
            r[j >= end[:, None]] = 0.0  # the terms past a row's end are 0
        rel = np.multiply.accumulate(r, axis=1)
        s1 = _sum_row_terms(rel)
        total = 1.0 + s1
        log_sum = np.log1p(s1)
        if head:
            log_sum += log_head(n0, rows)
        ok = _window_checks(rel, end, total, n0 if head else None, padded)
        del r  # the block's largest arrays are all that stays alive
        yield _Block(rows, n0, head, n, shifted, rel, total, log_sum, ok)


def _window_sums(blocks, c: np.ndarray) -> np.ndarray:
    """ln S, E_w[H_n] and E_w[n] of each of the R rows of c, as a (3, R)
    array, from the blocks of _window_rows, with w_n = t_n / S and
    H_n = sum_{k<n} 1 / (c[r] + k); NaN in all three in a row that fails
    its checks. c + n comes from the block where its ratios computed it.

    For a series whose log terms have the derivative -H_n, or H_n, in a
    parameter, the derivative of ln S is -E_w[H_n], or E_w[H_n]; for
    terms carrying z^n, z d ln S / dz is E_w[n].
    """
    out = np.empty((3, c.size))
    for rows, n0, head, n, shifted, rel, total, log_sum, ok in blocks:
        # H_{n+1} - H_n = 1 / (c + n), accumulated from the first term
        h = np.add.accumulate(1.0 / (c[rows, None] + n if shifted is None else shifted), axis=-1)
        mean_h = _sum_row_terms(rel * h) / total
        del h  # one block-sized temporary at a time
        mean_n = _sum_row_terms(rel * _term_index(rel.shape[1] + 1)[1:]) / total
        if head:
            # H_first = digamma(c + first) - digamma(c)
            cr = c[rows]
            mean_h += digamma(cr + n0) - digamma(cr)
        mean_n += n0
        values = np.array((log_sum, mean_h, mean_n))
        if np.count_nonzero(ok) < ok.size:
            values[:, ~ok] = np.nan
        if isinstance(rows, slice):
            return values  # the one block of every row, the common case
        out[:, rows] = values
    return out


def _confluent_mode(alpha, lam):
    """Where the confluent term ratio lam (alpha + n) / (n + 1)^2 crosses 1:
    the positive root of (n + 1)^2 = lam (alpha + n), near lam + alpha - 1
    for large lam (DLMF 13.2)."""
    b = lam - 2.0
    return np.maximum(0.0, 0.5 * (b + np.sqrt(np.maximum(0.0, b * b + 4.0 * (lam * alpha - 1.0)))))


def _confluent_rows(alpha: np.ndarray, lam: np.ndarray):
    """_window_rows of the confluent series t_n = (alpha)_n lam^n / (n!)^2 at
    rows of alpha > 0 and lam > 0; c + n of _window_sums is alpha + n."""

    def ratios(n: np.ndarray, rows):
        # lam (alpha + n) / (n + 1)^2
        shifted = alpha[rows, None] + n
        return shifted * lam[rows, None] / np.square(n + 1.0), shifted

    def log_head(n: np.ndarray, rows) -> np.ndarray:
        a = alpha[rows]
        return gammaln(a + n) - gammaln(a) + n * np.log(lam[rows]) - 2.0 * gammaln(n + 1.0)

    return _window_rows(ratios, log_head, _confluent_mode(alpha, lam))


def _confluent_weights(alpha: float, lam: float):
    """t_n / S for n = 0 .. N, of t_n = (alpha)_n lam^n / (n!)^2 and their
    sum S over n >= 0, for alpha > 0 and lam > 0; the terms before the
    window of _window_rows, below _REL_TOL of S, are 0.

    N ends a window past the term mode; its last term is past the mode and
    below _REL_TOL of the sum. Raises SeriesConvergenceError if that takes
    more than _MAX_TERMS terms after t_0.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a failing window may overflow
        (block,) = _confluent_rows(np.array([float(alpha)]), np.array([float(lam)]))
    if block.ok[0]:
        n0 = int(block.first[0])
        weights = np.zeros(n0 + 1 + block.rel.shape[1])
        weights[n0] = 1.0
        weights[n0 + 1 :] = block.rel[0]
        return weights / block.total[0]
    raise SeriesConvergenceError(
        f"could not bound the pmf tail below {_REL_TOL:g} within {_MAX_TERMS} "
        f"terms for lam={lam}, alpha={alpha}"
    )


# Calls of _log_laguerre_neg_rows with at most this many rows sum each row
# alone (_confluent_row). Per row against batched, in us of process CPU
# (alpha = 1.5, best of 5, 2 vCPUs), at lam = 3 / 100 / 2000: one row
# 12 / 15 / 34 against 40 / 47 / 71; three rows 30 / 40 / 94 against
# 43 / 51 / 105; four rows 36 / 58 / 133 against 42 / 52 / 127; six rows
# 59 / 79 / 189 against 43 / 65 / 177.
_ROWS_ALONE = 3


def _confluent_row(alpha: float, lam: float):
    """ln S, E_w[H_n] and E_w[n] of the confluent series at one row, as
    _window_sums(_confluent_rows(...)) gives them, bit for bit: the terms
    go through the same numpy operations in the same order, and the mode,
    the window bounds and the checks are Python floats and ints, with the
    same values as the batched path's arrays; (nan, nan, nan) where the
    row fails its checks."""
    b = lam - 2.0
    mode = max(0.5 * (b + math.sqrt(max(b * b + 4.0 * (lam * alpha - 1.0), 0.0))), 0.0)
    if not mode < _MAX_TERMS:
        # the window ends at _MAX_TERMS before the mode (or the mode is
        # NaN): the batched path's tail check fails such a row
        return math.nan, math.nan, math.nan
    width = _WINDOW_WIDTHS * math.sqrt(mode + 1.0)
    first = max(math.trunc(mode - width) - _WINDOW_MARGIN, 0)
    size = min(math.trunc(mode + width) + _WINDOW_MARGIN, _MAX_TERMS) - first
    j1 = _term_index(size + 1)[1:]
    n = _term_index(size)
    if first:
        n = n + first
    shifted = alpha + n
    r = shifted * lam / np.square(n + 1.0 if first else j1)
    rel = np.multiply.accumulate(r)
    s1 = np.add.accumulate(rel)[-1]
    total = 1.0 + s1
    tol = _REL_TOL * total
    if not (rel[-1] < tol and (not first or 1.0 < tol)):
        return math.nan, math.nan, math.nan
    log_sum = np.log1p(s1)
    mean_h = np.add.accumulate(rel * np.add.accumulate(1.0 / shifted))[-1] / total
    mean_n = np.add.accumulate(rel * j1)[-1] / total
    if first:
        log_sum += (
            gammaln(alpha + first)
            - gammaln(alpha)
            + first * np.log(lam)
            - 2.0 * gammaln(first + 1.0)
        )
        mean_h += digamma(alpha + first) - digamma(alpha)
        mean_n += first
    return log_sum, mean_h, mean_n


def _log_laguerre_neg_rows(alpha: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log_laguerre_neg(alpha[r], lam[r]) for rows of lam > 0, unchecked,
    d/dalpha and lam d/dlam of it, as a (3, R) array; NaN where the series
    does not converge within _MAX_TERMS terms.

    The log terms ln (alpha)_n + n ln lam - 2 ln n! have the derivative
    H_n = sum_{k<n} 1 / (alpha + k) in alpha, so _window_sums with
    c = alpha gives both derivatives. A call of at most _ROWS_ALONE rows
    sums each row alone (_confluent_row), with the same bits as the
    batched path, which serves larger calls. A failing window may
    overflow: a caller ignores that, as the fits do for their whole
    objectives.
    """
    if alpha.size > _ROWS_ALONE:
        return _window_sums(_confluent_rows(alpha, lam), alpha)
    cols = [_confluent_row(a, z) for a, z in zip(alpha.tolist(), lam.tolist())]
    return np.array(cols).reshape(-1, 3).T


def log_laguerre_neg(alpha: float, lam: float) -> float:
    """ln of the confluent sum  S = sum_n (alpha)_n lam^n / (n!)^2.

    This is the normalizer of the power density and of the integer mixing
    law; in the Laguerre-function convention used throughout the package it
    equals ln L_{-alpha}(lam) = ln 1F1(alpha; 1; lam).

    All terms are positive and follow the recurrence
    t_{n+1} = t_n * lam * (alpha + n) / (n + 1)^2, whose terms peak at the
    mode near lam + alpha - 1. The terms of a window a few sqrt(mode) wide
    around the mode are computed in one numpy pass (one cumulative product
    of the ratios from the window's first term, which comes from log-gamma
    functions), with no Python loop over the terms. The last term must be
    past the mode and below _REL_TOL of the sum, and the first one before
    it and as small; away from the mode the decay is super-geometric,
    which bounds the discarded tails at the same order. Raises
    SeriesConvergenceError when that takes more than _MAX_TERMS terms.
    """
    alpha = float(alpha)
    lam = float(lam)
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise ValueError(f"log_laguerre_neg requires alpha > 0, got {alpha}")
    if not math.isfinite(lam) or lam < 0.0:
        raise ValueError(f"log_laguerre_neg requires lam >= 0, got {lam}")
    if lam == 0.0:
        return 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # a failing window may overflow
        log_sum = float(_log_laguerre_neg_rows(np.array([alpha]), np.array([lam]))[0, 0])
    if not math.isnan(log_sum):
        return log_sum
    raise SeriesConvergenceError(
        f"Laguerre series did not converge for alpha={alpha}, lam={lam} within {_MAX_TERMS} terms"
    )


def log_laguerre_pos_arg(alpha: float, lam: float) -> float:
    """ln L_{alpha-1}(-lam), evaluated through Kummer's transformation.

    The identity L_{alpha-1}(-lam) = e^{-lam} * L_{-alpha}(lam) turns the
    sign-alternating series into one with positive terms; the alternating
    form cancels catastrophically for lam beyond ~10 and is never used.
    """
    lam = float(lam)
    return -lam + log_laguerre_neg(alpha, lam)
