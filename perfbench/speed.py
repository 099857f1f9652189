"""Machine-speed reference for the benchmark's pass times.

On a shared machine the speed of the same code drifts by up to 2x in
phases of seconds to minutes, and process CPU time drifts with it, so
neither wall nor CPU time of a pass is steady from run to run. A
``SpeedProbe`` therefore cuts each untraced pass into chunks of about
CHUNK_S seconds and runs a short reference computation before the first
chunk and after every chunk. Each chunk's time is divided by the median
time of the reference runs within REF_WINDOW runs around it (a single
reference run varies by 10 to 20% even when the machine's speed does
not), and the pass time in reference units is the sum. The references
use only numpy and scipy, never pwncg, so a change to pwncg cannot change
them.

The reference has to slow down the way the workload does. In a probe on
the 2-vCPU machine used to set the bounds, while the speed of four-model
fits swung by 2.3x, their time over that of ``fit_reference`` (an
L-BFGS-B fit with gammaln and Bessel terms on 60 values) spread by 0.06
across 5-second windows, against 0.37 for the raw times; a loop of small
numpy calls tracked them at 0.10 to 0.14 only. The large-array calls of
``draws_and_grids`` are tracked less well by ``array_reference`` (see
perfbench/README.md).
"""

from __future__ import annotations

import functools
import time

import numpy as np
from scipy.optimize import minimize
from scipy.special import gammaln, ive

CHUNK_S = 0.5
REF_WINDOW = 2  # reference runs on each side of a chunk, besides its own two
WARM_UP = 3  # untimed reference runs before the first pass

_X = np.random.default_rng(0).gamma(1.5, 1.0, 60)
_LOG_X = np.log(_X)
_STARTS = (np.array([0.0, 0.0, -1.0]), np.array([0.5, -0.5, 0.0]), np.array([-0.5, 0.5, 1.0]))


def _objective(z) -> float:
    a, b, lam = np.exp(z)
    s = a * np.log(b) - gammaln(a) + (a - 1.0) * _LOG_X - b * _X
    s = s + np.log(ive(a - 1.0, 2.0 * np.sqrt(lam * b * _X)) + 1e-300) - lam
    return -float(s.sum())


def fit_reference() -> None:
    """Three bounded L-BFGS-B fits of a three-parameter objective on 60
    values, about 25 ms: the same mix of optimizer overhead and small
    scipy.special calls as fitting a patch."""
    for z0 in _STARTS:
        minimize(_objective, z0, method="L-BFGS-B", bounds=[(-5.0, 5.0)] * 3,
                 options={"maxiter": 30})


def array_reference() -> None:
    """Gamma and uniform draws, elementwise functions, Bessel and gammaln
    on 20 000 to 50 000 elements, and a sort: the mix of the samplers and
    density grids, about 20 ms."""
    rng = np.random.default_rng(0)
    g = rng.standard_gamma(0.7, size=50_000)
    u = rng.random(50_000)
    y = np.log1p(g) * np.exp(-u)
    ive(0.5, y[:20_000] * 10.0) + gammaln(g[:20_000] + 1.0)
    np.sort(u)


class SpeedProbe:
    """Times passes in chunks, with a reference run around every chunk."""

    def __init__(self, reference):
        self.reference = reference
        for _ in range(WARM_UP):
            reference()

    def start(self) -> None:
        self.chunks, self.refs = [], []
        self._reference()

    def boundary(self) -> None:
        """A point in the pass where a chunk may end."""
        now = time.perf_counter()
        if now - self.t0 >= CHUNK_S:
            self.chunks.append(now - self.t0)
            self._reference()

    def after(self, fn):
        """``fn`` followed by a chunk boundary."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.boundary()

        return wrapper

    def stop(self) -> tuple[float, float]:
        """The pass time without the reference runs, and the pass time in
        reference units."""
        self.chunks.append(time.perf_counter() - self.t0)
        self._reference()
        refs = self.refs
        in_refs = sum(
            chunk / float(np.median(refs[max(0, i - REF_WINDOW):i + 2 + REF_WINDOW]))
            for i, chunk in enumerate(self.chunks)
        )
        return float(sum(self.chunks)), in_refs

    def _reference(self) -> None:
        t0 = time.perf_counter()
        self.reference()
        self.t0 = time.perf_counter()
        self.refs.append(self.t0 - t0)
