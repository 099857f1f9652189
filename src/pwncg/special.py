"""Log-domain special functions underpinning the distribution family.

Every function here returns natural logarithms. The densities built on top
combine gamma, Bessel, and confluent-hypergeometric factors whose linear
values overflow or underflow long before the parameter ranges of interest
are exhausted, so the linear domain is only ever entered at call sites.

The kernels avoid Python loops over elements and over series terms: ln I0
is ln(i0e(x)) + x at every argument; ln I_nu below _IV_SERIES_CUTOFF is a
cumulative product over each row's own term count, read from a table; and
the confluent normalizer sums a window of terms around its mode in one
numpy pass. ln I_nu has one kernel, _log_bessel_i_nu_grad, and
log_bessel_i_nu is its value row.

The value-and-gradient kernels that the fits call are row-batched: they
take one parameter set per row and return one result per row. A row's
result never depends on the other rows of its call. Each row chooses its
own series term count or window length, rows padded to a longer shared
array get exact zeros there, and sums over terms add the terms in order
(_sum_terms, _sum_row_terms), whatever the shape of the array.
"""

from __future__ import annotations

import math

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
# once (rows x terms for a window, terms x rows x values for the Bessel
# series); more rows are split into several blocks. 2^14 doubles are
# 128 KiB.
_SERIES_BLOCK = 1 << 14

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


def _row_blocks(lengths: np.ndarray, rows, width: int):
    """(length, block) pairs that cover rows (an index array, or a slice
    for all rows): all of them if their padded block (longest length x
    rows x width) holds at most _SERIES_BLOCK elements, else blocks of
    consecutive rows in order of length that do, with a block of its own
    for a row too long for that."""
    lens = lengths[rows]
    longest = int(lens.max())
    if longest * lens.size * width <= _SERIES_BLOCK:
        yield longest, rows
        return
    order = np.argsort(lens, kind="stable")
    rows, lens = np.arange(lengths.size)[rows][order], lens[order]
    start = 0
    while start < rows.size:
        stop = start + 1
        while stop < rows.size and int(lens[stop]) * (stop - start + 1) * width <= _SERIES_BLOCK:
            stop += 1
        yield int(lens[stop - 1]), rows[start:stop]
        start = stop


def _sum_terms(t: np.ndarray) -> np.ndarray:
    """t[0] + t[1] + ... in that order, over the leading (term) axis.

    numpy reduces an outer axis of a C-contiguous array by adding whole
    slices, term after term, for every element alike; only when one
    element remains would it sum pairwise instead, in an order set by the
    term count, and a cumulative sum keeps that case in term order. So an
    element padded with zero terms sums to exactly what its own terms do.
    """
    if t[0].size > 1:
        return np.add.reduce(t, axis=0)
    return np.cumsum(t, axis=0)[-1]


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


def _log_i0_grad(arr: np.ndarray):
    """_log_i0_unchecked(arr) and x d/dx ln I0(x) = x I1(x) / I0(x) at arr."""
    scaled = i0e(arr)
    return np.log(scaled) + arr, i1e(arr) / scaled * arr


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


def _log_iv_series_rows(nu: np.ndarray, x: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """ln I_nu(x) by its ascending series, with d/dnu and x d/dx of it, as
    a (3, R, n) array, for orders nu (R,) and arguments x (R, n) in
    (0, _IV_SERIES_CUTOFF); row r sums counts[r] terms T_n.

    T_n carries the factor x^(2n) and d ln T_n / dnu = -H_n with
    H_n = sum_{m<=n} 1 / (m + nu), so the derivatives are moments of the
    same terms.
    """
    out = np.empty((3,) + x.shape)
    for size, rows in _row_blocks(counts, slice(None), x.shape[1]):
        xs = x[rows]
        nus = nu[rows, None]
        m = _SERIES_N[:size, None, None]
        denom = m * (m + nus)
        denom[m > counts[rows, None]] = np.inf  # terms past a row's count are 0
        t = np.cumprod(0.25 * xs * xs / denom, axis=0)
        terms = _sum_terms(t)
        total = 1.0 + terms
        log_half_x = np.log(0.5 * xs)
        h = np.cumsum(1.0 / (m + nus), axis=0)
        out[0, rows] = nus * log_half_x - gammaln(nus + 1.0) + np.log1p(terms)
        out[1, rows] = log_half_x - digamma(nus + 1.0) - _sum_terms(h * t) / total
        out[2, rows] = nus + 2.0 * _sum_terms(m * t) / total
    return out


def _iv_series_error(nu: float, x: float) -> SeriesConvergenceError:
    """The error for a log-domain I_nu series that exceeds its term budget."""
    msg = f"I_nu series did not converge for nu={nu}, x={x} within {_MAX_TERMS} terms"
    return SeriesConvergenceError(msg)


def _log_iv_series_logdomain(nu: float, x: float):
    """Fallback ascending series for ln I_nu(x) whose sum stays in log
    domain, with d/dnu and x d/dx of it, as _log_iv_series_rows.

    Used where ive under/overflows, which only happens when nu is large
    relative to x. The terms T_n = (x/2)^(2n) Gamma(nu+1) / (n! Gamma(n+nu+1))
    have the ratio (x/2)^2 / ((n+1)(n+1+nu)), which crosses 1 at the
    positive root of (n+1)(n+1+nu) = (x/2)^2; the normalizer's window
    kernel sums them.
    """
    log_half_x = math.log(0.5 * x)
    q = 0.25 * x * x

    def ratios(n: np.ndarray, rows) -> np.ndarray:
        return (q / ((n + 1.0) * (n + 1.0 + nu))).reshape(1, -1)

    def log_head(n: np.ndarray, rows) -> np.ndarray:
        return 2.0 * n * log_half_x - gammaln(n + 1.0) - gammaln(n + 1.0 + nu) + gammaln(nu + 1.0)

    mode = max(0.0, 0.5 * (math.sqrt(nu * nu + x * x) - nu) - 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a failing window may overflow
        blocks = list(_window_rows(ratios, log_head, np.array([mode])))
    for _, n0, rel, total, log_sum in blocks:
        n0 = float(n0[0])
        # H_n = sum_{m<=n} 1 / (m + nu) = digamma(n + nu + 1) - digamma(nu + 1)
        h0 = float(digamma(n0 + nu + 1.0) - digamma(nu + 1.0))
        steps = 1.0 / (n0 + nu + 1.0 + _term_index(rel.shape[1]))
        mean_h, mean_n = _window_moments(rel, n0, total, steps)
        return (
            nu * log_half_x - float(gammaln(nu + 1.0)) + float(log_sum[0]),
            log_half_x - float(digamma(nu + 1.0)) - (h0 + float(mean_h[0])),
            nu + 2.0 * float(mean_n[0]),
        )
    raise _iv_series_error(nu, x)


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


def _log_iv_large_grad(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln I_nu(x), d/dnu and x d/dx of it for x >= _IV_SERIES_CUTOFF, as
    rows of a (3, x.size) array, elementwise in 1-D arrays nu and x. The
    value is ln(ive(nu, x)) + x; x d/dx ln I_nu = x I_{nu+1} / I_nu + nu,
    and d/dnu is a central difference in nu (ln I_nu(x) is
    analytic in nu for x > 0, also below nu = -1). Where one of the ive
    values is not a finite normal number, the log-domain series gives the
    derivatives, and also the value if ive(nu, x) itself failed; where
    that series does not converge, all three are NaN. From _IVE_X_MAX on,
    where ive is NaN, the large-argument expansion gives all three, and
    the series only where the expansion does not converge."""
    scaled = ive(nu, x)
    above = ive(nu + 1.0, x)
    up = ive(nu + _NU_STEP, x)
    down = ive(nu - _NU_STEP, x)
    ok = np.isfinite(scaled) & (scaled > 0.0)
    normal = np.finfo(float).tiny
    exact = np.logical_and.reduce(
        [np.isfinite(v) & (v >= normal) for v in (scaled, above, up, down)]
    )
    out = np.empty((3, x.size))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out[0] = np.log(scaled) + x
        out[1] = (np.log(up) - np.log(down)) / (2.0 * _NU_STEP)
        out[2] = x * above / scaled + nu
    far = np.flatnonzero(x >= _IVE_X_MAX)
    if far.size:
        out[:, far] = _log_iv_asymptotic(nu[far], x[far])
        exact[far] = np.isfinite(out[0, far])
    for i in np.flatnonzero(~exact):
        try:
            vals = _log_iv_series_logdomain(float(nu[i]), float(x[i]))
        except SeriesConvergenceError:
            out[:, i] = np.nan
            continue
        out[1:, i] = vals[1:]
        if not ok[i]:
            out[0, i] = vals[0]
    return out


def _log_bessel_i_nu_grad(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln I_nu(x) at order nu[r] for each row r of x > 0 (R, n), unchecked,
    with d/dnu and x d/dx of it, as a (3, R, n) array; NaN where the
    log-domain fallback does not converge. log_bessel_i_nu is its first
    output."""
    tiny = x < _IV_TINY
    big = x >= _IV_SERIES_CUTOFF
    small = ~(tiny | big)
    if small.all():
        return _log_iv_series_rows(nu, x, _series_counts(0.25 * np.square(x.max(axis=1))))
    out = np.empty((3,) + x.shape)
    rows = np.flatnonzero(small.any(axis=1))
    if rows.size:
        # Each row's term count comes from its largest series argument;
        # its other elements get a placeholder argument and are overwritten.
        xs = np.where(small[rows], x[rows], 1.0)
        q_max = 0.25 * np.square(np.where(small[rows], xs, 0.0).max(axis=1))
        out[:, rows] = _log_iv_series_rows(nu[rows], xs, _series_counts(q_max))
    nu_at = np.broadcast_to(nu[:, None], x.shape)
    if tiny.any():
        # Only the leading series term counts here, and x / 2 would lose
        # bits to the subnormal range, so ln(x / 2) is taken as ln x - ln 2.
        nt = nu_at[tiny]
        log_half_x = np.log(x[tiny]) - math.log(2.0)
        out[0, tiny] = nt * log_half_x - gammaln(nt + 1.0)
        out[1, tiny] = log_half_x - digamma(nt + 1.0)
        out[2, tiny] = nt
    if big.any():
        out[:, big] = _log_iv_large_grad(nu_at[big], x[big])
    return out


# Row width of log_bessel_i_nu's calls of _log_bessel_i_nu_grad: one 3 x 20
# patch, rounded up. Each row takes its own series term count, and
# _row_blocks keeps the series blocks of many rows small.
_IV_ROW_WIDTH = 64


def log_bessel_i_nu(nu: float, x):
    """ln I_nu(x) for nu > -1 and x >= 0.

    For nu > -1 every series term is positive (Gamma(n+nu+1) > 0 for all
    n >= 0), so no reflection through K_nu is needed anywhere on this
    domain. The positive arguments go to _log_bessel_i_nu_grad as rows of
    _IV_ROW_WIDTH, padded with 1.0, and the value is its first output:
    the ascending series below _IV_SERIES_CUTOFF, the exponentially scaled
    scipy routine above it, and a log-domain series where that under- or
    overflows. Raises SeriesConvergenceError where that series does not
    converge.
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
        rows = -(-vals.size // _IV_ROW_WIDTH)
        padded = np.ones(rows * _IV_ROW_WIDTH)
        padded[: vals.size] = vals
        logs = _log_bessel_i_nu_grad(np.full(rows, nu), padded.reshape(rows, _IV_ROW_WIDTH))
        logs = logs[0].ravel()[: vals.size]
        failed = np.flatnonzero(np.isnan(logs))
        if failed.size:
            raise _iv_series_error(nu, float(vals[failed[0]]))
        out[positive] = logs
    return float(out[0]) if scalar else out


# n for windows of up to 16 384 terms; longer windows compute it on the fly.
_N_TABLE = np.arange(16_384.0)


def _term_index(n_end: int) -> np.ndarray:
    """0.0, 1.0, ..., n_end - 1 as floats."""
    return _N_TABLE[:n_end] if n_end <= len(_N_TABLE) else np.arange(float(n_end))


def _window_rows(ratios, log_head, mode: np.ndarray):
    """Sums of positive series, one per row, each over a window of its own
    terms, in one numpy pass per block of rows.

    ratios(n, rows) returns t_{n+1} / t_n of the given rows at term
    indices n (rows.size, N), log_head(n, rows) returns ln t_n at indices n
    (rows.size,) with n > 0 (t_0 = 1), and mode[r] is where row r's ratio
    crosses 1. Around it ln t_n falls off like a Gaussian of variance at
    most mode + 1, so a row's window runs from _WINDOW_WIDTHS of those
    widths and _WINDOW_MARGIN terms before the mode (or from n = 0) to as
    far past it, where the terms are ~exp(-40) of the peak. Within it, the
    terms over the first one are a cumulative product of the ratios; they
    stay within ~exp(+-250), so they neither overflow nor lose their sum to
    underflow.

    Yields (rows, first, rel, total, log_sum) per block of rows (an index
    array, or a slice for all rows): rel (rows.size, size) holds
    t_{first[i] + j} / t_{first[i]} for j = 1 .. size in row i, 0 past the
    row's window end, total = 1 + the sum of rel over j, and log_sum the
    log of the row's sum. Every window series is truncated alike: a row
    whose last term is not past the mode and below _REL_TOL of the sum is
    retried with its window end doubled, up to _MAX_TERMS terms, and never
    yielded if it fails there; a row whose first term is not before the
    mode and below _REL_TOL of the sum is retried with its start halved.
    """
    width = _WINDOW_WIDTHS * np.sqrt(mode + 1.0)
    # Clipped to _MAX_TERMS before the cast, which would wrap past 2**63;
    # a row whose mode lies beyond _MAX_TERMS fails either way.
    last = np.minimum(mode + width, _MAX_TERMS).astype(np.int64) + _WINDOW_MARGIN
    np.minimum(last, _MAX_TERMS, out=last)
    first = np.maximum(np.minimum(mode - width, _MAX_TERMS).astype(np.int64) - _WINDOW_MARGIN, 0)
    np.minimum(first, last - 1, out=first)
    pending = slice(None)
    while True:
        retry = []
        for size, rows in _row_blocks(last - first, pending, 1):
            n0 = first[rows]
            end = last[rows] - n0
            head = bool(n0.any())
            n = _term_index(size)
            r = ratios(n0[:, None] + n if head else n, rows)
            padded = not (end == size).all()
            if padded:
                r[n >= end[:, None]] = 0.0  # the terms past a row's end are 0
            rel = np.multiply.accumulate(r, axis=1)
            s1 = _sum_row_terms(rel)
            total = 1.0 + s1
            log_sum = np.log1p(s1)
            if head:
                log_sum += log_head(n0, rows)
            if padded:
                at = np.arange(end.size)
                r_end, rel_end = r[at, end - 1], rel[at, end - 1]
            else:
                r_end, rel_end = r[:, -1], rel[:, -1]
            ok = tail_ok = (r_end < 1.0) & (rel_end < _REL_TOL * total)
            if head:
                head_ok = (n0 == 0) | ((r[:, 0] > 1.0) & (1.0 < _REL_TOL * total))
                ok = tail_ok & head_ok
            if ok.all():
                yield rows, n0, rel, total, log_sum
                continue
            rows = np.arange(last.size)[rows]
            if ok.any():
                yield rows[ok], n0[ok], rel[ok], total[ok], log_sum[ok]
            if head:
                first[rows[~head_ok]] //= 2
            grow = ~tail_ok & (n0 + end < _MAX_TERMS)
            last[rows[grow]] = np.minimum(_MAX_TERMS, 2 * (n0 + end)[grow])
            retry.append(rows[~ok & (tail_ok | grow)])
        pending = np.concatenate(retry) if retry else np.empty(0, dtype=np.int64)
        if not pending.size:
            return


def _window_moments(rel: np.ndarray, first, total, steps: np.ndarray):
    """E_w[H_n - H_first] and E_w[n] over the window terms of _window_rows
    (rel, first, total), with w_n = t_n / sum of the window's terms and
    H_{n+1} - H_n = steps[..., n - first] for n >= first."""
    mean_h = _sum_row_terms(rel * np.add.accumulate(steps, axis=-1)) / total
    mean_n = first + _sum_row_terms(rel * _term_index(rel.shape[1] + 1)[1:]) / total
    return mean_h, mean_n


def _confluent_mode(alpha, lam):
    """Where the confluent term ratio lam (alpha + n) / (n + 1)^2 crosses 1:
    the positive root of (n + 1)^2 = lam (alpha + n), near lam + alpha - 1
    for large lam (DLMF 13.2)."""
    b = lam - 2.0
    return np.maximum(0.0, 0.5 * (b + np.sqrt(np.maximum(0.0, b * b + 4.0 * (lam * alpha - 1.0)))))


def _confluent_rows(alpha: np.ndarray, lam: np.ndarray):
    """_window_rows of the confluent series t_n = (alpha)_n lam^n / (n!)^2 at
    rows of alpha > 0 and lam > 0."""

    def ratios(n: np.ndarray, rows) -> np.ndarray:
        # lam (alpha + n) / (n + 1)^2
        return (alpha[rows, None] + n) * lam[rows, None] / np.square(n + 1.0)

    def log_head(n: np.ndarray, rows) -> np.ndarray:
        a = alpha[rows]
        return gammaln(a + n) - gammaln(a) + n * np.log(lam[rows]) - 2.0 * gammaln(n + 1.0)

    return _window_rows(ratios, log_head, _confluent_mode(alpha, lam))


def _confluent_weights(alpha: float, lam: float):
    """t_n / S for n = 0 .. N, of t_n = (alpha)_n lam^n / (n!)^2 and their
    sum S over n >= 0, for alpha > 0 and lam > 0; the terms before the
    window of _window_rows, below _REL_TOL of S, are 0.

    N ends a window past the term mode; its last term is past the mode and
    below _REL_TOL of the sum. Returns None if that takes more than
    _MAX_TERMS terms after t_0.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a failing window may overflow
        blocks = list(_confluent_rows(np.array([float(alpha)]), np.array([float(lam)])))
    for _, n0, rel, total, _ in blocks:
        weights = np.zeros(n0[0] + 1 + rel.shape[1])
        weights[n0[0]] = 1.0
        weights[n0[0] + 1 :] = rel[0]
        return weights / total[0]
    return None


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
    return float(_log_laguerre_neg_rows(np.array([alpha]), np.array([lam]))[0])


def _log_laguerre_neg_rows(alpha: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log_laguerre_neg(alpha[r], lam[r]) for rows of alpha > 0 and lam > 0,
    unchecked; raises SeriesConvergenceError if a row's series does not
    converge within _MAX_TERMS terms."""
    out = np.full(alpha.size, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):  # a failing window may overflow
        for rows, _, _, _, log_sum in _confluent_rows(alpha, lam):
            out[rows] = log_sum
    failed = np.isnan(out)
    if failed.any():
        i = int(np.flatnonzero(failed)[0])
        raise SeriesConvergenceError(
            f"Laguerre series did not converge for alpha={alpha[i]}, lam={lam[i]} "
            f"within {_MAX_TERMS} terms"
        )
    return out


def _log_laguerre_neg_grad(alpha: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """log_laguerre_neg(alpha[r], lam[r]) for rows of lam > 0, unchecked,
    with d/dalpha and lam d/dlam of it, as a (3, R) array; NaN where the
    series does not converge within _MAX_TERMS terms.

    With weights w_n = t_n / S over the same terms, d ln S / d alpha is
    E_w[H_n] with H_n = sum_{k<n} 1 / (alpha + k) (the derivative of
    ln (alpha)_n), and lam d ln S / d lam is E_w[n].
    """
    out = np.full((3, alpha.size), np.nan)
    for rows, n0, rel, total, log_sum in _confluent_rows(alpha, lam):
        a = alpha[rows, None]
        n = _term_index(rel.shape[1])
        head = n0.any()
        if head:
            n = n0[:, None] + n
        mean_h, mean_n = _window_moments(rel, n0, total, 1.0 / (a + n))
        if head:
            # H_first = digamma(alpha + first) - digamma(alpha)
            mean_h += digamma(a[:, 0] + n0) - digamma(a[:, 0])
        out[:, rows] = log_sum, mean_h, mean_n
    return out


def log_laguerre_pos_arg(alpha: float, lam: float) -> float:
    """ln L_{alpha-1}(-lam), evaluated through Kummer's transformation.

    The identity L_{alpha-1}(-lam) = e^{-lam} * L_{-alpha}(lam) turns the
    sign-alternating series into one with positive terms; the alternating
    form cancels catastrophically for lam beyond ~10 and is never used.
    """
    lam = float(lam)
    return -lam + log_laguerre_neg(alpha, lam)
