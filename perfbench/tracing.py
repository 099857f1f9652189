"""Span tracer that measures pwncg's layers from outside the package.

Each traced name is replaced, for the duration of a ``patched`` block, by
a wrapper that records a span: name, start, end, parent span and item id,
plus two numeric attributes (for example lambda, or the element count and
the count of large arguments). Spans live in flat arrays so that hundreds
of thousands of kernel calls per pass stay cheap to keep in memory; they
are written out once, when the run ends.

A wrapper replaces the name the *calling* module bound, for example
``pwncg.fitting.log_laguerre_neg``, so only calls made through that
binding are seen. Each call goes through exactly one binding, so no call
is counted twice.
"""

from __future__ import annotations

import array
import contextlib
import functools
import time

import numpy as np

PENALTY = 1e300  # the value the fitting objective returns on arithmetic errors


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.item = array.array("i")
        self.a = array.array("d")
        self.b = array.array("d")
        self.extra: dict[int, tuple] = {}
        self.stack: list[int] = []
        self.current_item = -1

    def open(self, name: str, a: float = 0.0, b: float = 0.0) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.item.append(self.current_item)
        self.a.append(a)
        self.b.append(b)
        self.end.append(0.0)
        self.stack.append(idx)
        # The clock is read last so the bookkeeping above is not timed.
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, a: float = 0.0, b: float = 0.0):
        idx = self.open(name, a, b)
        try:
            yield idx
        finally:
            self.close(idx)

    def __len__(self) -> int:
        return len(self.end)

    def name_of(self, idx: int) -> str:
        return self.names[self.name[idx]]

    def write_tsv(self, path, header_lines=()) -> None:
        """Write every span, one per line, with its self time."""
        self_time = self.self_times()
        with open(path, "w") as fh:
            for line in header_lines:
                fh.write(f"# {line}\n")
            fh.write("id\tname\tstart\tend\tself\tparent\titem\ta\tb\n")
            for i in range(len(self)):
                fh.write(
                    f"{i}\t{self.name_of(i)}\t{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                    f"{self_time[i]:.9f}\t{self.parent[i]}\t{self.item[i]}\t"
                    f"{self.a[i]:g}\t{self.b[i]:g}\n"
                )

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)

    def self_times(self) -> np.ndarray:
        """Span duration minus the time covered by its children. Calls are
        sequential on one thread, so children never overlap."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child_time = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        return dur - child_time


def wrap(tracer: Tracer, fn, name, attrs=None, before=None, after=None):
    """Return ``fn`` wrapped to record one span per call.

    ``name`` is a string or a function of (args, kwargs). ``attrs`` maps
    the call's arguments to the span's (a, b) attributes; ``before`` runs
    ahead of the span; ``after`` receives (span index, result).
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        label = name if isinstance(name, str) else name(args, kwargs)
        a, b = attrs(*args, **kwargs) if attrs is not None else (0.0, 0.0)
        idx = tracer.open(label, a, b)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(idx, result)
        return result

    return traced


def wrap_minimize(tracer: Tracer, minimize):
    """Wrap scipy's ``minimize`` as bound in ``pwncg.fitting``: record the
    evaluation counts and final value of each start, and count penalty
    values the optimizer saw from the objective."""

    @functools.wraps(minimize)
    def traced(fun, x0, *args, **kwargs):
        hits = 0

        def counted(z, *fargs):
            nonlocal hits
            value = fun(z, *fargs)
            if value == PENALTY:
                hits += 1
            return value

        idx = tracer.open("fitting.minimize")
        try:
            res = minimize(counted, x0, *args, **kwargs)
        finally:
            tracer.close(idx)
        tracer.a[idx] = float(res.nfev)
        tracer.b[idx] = float(getattr(res, "njev", 0))
        tracer.extra[idx] = (float(res.fun), hits)
        return res

    return traced


@contextlib.contextmanager
def patched(replacements):
    """Set each (object, attribute, value) for the block, then restore."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in reversed(saved):
            setattr(obj, attr, value)


def _count(x) -> int:
    return 1 if x is None else int(np.prod(x))


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _large_args(pos, cutoff):
    """(element count, count of elements >= cutoff) of argument ``pos``."""

    def attrs(*args, **kwargs):
        x = np.asarray(args[pos], dtype=float)
        return float(x.size), float(np.count_nonzero(x >= cutoff))

    return attrs


def _laguerre_attrs(alpha, lam, *rest, **kwargs):
    return float(lam), 0.0


def _size_attrs(x, *rest, **kwargs):
    return float(np.size(x)), 0.0


def _power_draws(*args, **kwargs):
    method = _arg(args, kwargs, 3, "method", "trunc")
    return float(_count(_arg(args, kwargs, 2, "size"))), 1.0 if method == "mh" else 0.0


def _shaped_draws(pos):
    """Draw count of a sampler whose argument ``pos`` sets the shape when
    ``size`` is not given."""

    def attrs(*args, **kwargs):
        size = _arg(args, kwargs, 3, "size")
        return float(_count(size) if size is not None else np.size(args[pos])), 0.0

    return attrs


def trace_targets(tracer: Tracer):
    """The (object, attribute, wrapper) list for every traced binding."""
    import pwncg.cli as cli
    import pwncg.distributions as distributions
    import pwncg.fitting as fitting
    import pwncg.moments as moments
    import pwncg.sampling as sampling
    import pwncg.special as special
    import pwncg.spectral as spectral

    first_model = fitting.FIT_MODELS[0]

    def next_patch(args, kwargs):
        # run_experiment fits the models of one patch in FIT_MODELS order,
        # so the first model starts a new item.
        if args[0] == first_model:
            tracer.current_item += 1

    def fit_model_name(args, kwargs):
        return f"fitting.fit_model.{args[0]}"

    def record_fit(idx, result):
        tracer.extra[idx] = (bool(result.converged), bool(result.degenerate))

    def record_mh(idx, result):
        if isinstance(result, tuple):
            tracer.a[idx] = float(result[1].accepted)
            tracer.b[idx] = float(result[1].proposals)

    i0 = _large_args(0, special.I0_SERIES_CUTOFF)
    inu = _large_args(1, special._IV_SERIES_CUTOFF)
    lag = _laguerre_attrs
    # (module, name it bound, span name, wrap options)
    table = [
        (cli, "run_experiment", "spectral.run_experiment", {}),
        (spectral, "load_wav", "spectral.load_wav", {}),
        (spectral, "stft_power", "spectral.stft_power", {}),
        (spectral, "tile_patches", "spectral.tile_patches", {}),
        (spectral, "fit_model", fit_model_name, {"before": next_patch, "after": record_fit}),
        (spectral.ExperimentReport, "to_json", "spectral.to_json", {}),
        (fitting, "fit_model", fit_model_name, {"after": record_fit}),
        (fitting, "log_laguerre_neg", "special.log_laguerre_neg", {"attrs": lag}),
        (fitting, "_log_i0_unchecked", "special.log_bessel_i0", {"attrs": i0}),
        (fitting, "log_bessel_i_nu", "special.log_bessel_i_nu", {"attrs": inu}),
        (fitting, "log_pdf_power", "distributions.log_pdf_power", {}),
        (fitting, "log_pdf_noncentral_gamma", "distributions.log_pdf_noncentral_gamma", {}),
        (distributions, "log_bessel_i0", "special.log_bessel_i0", {"attrs": i0}),
        (distributions, "log_bessel_i_nu", "special.log_bessel_i_nu", {"attrs": inu}),
        (distributions, "log_laguerre_neg", "special.log_laguerre_neg", {"attrs": lag}),
        (distributions, "log_pdf_power", "distributions.log_pdf_power", {}),
        (distributions, "log_pdf_noncentral_gamma", "distributions.log_pdf_noncentral_gamma", {}),
        (distributions, "log_pdf_complex", "distributions.log_pdf_complex", {"attrs": _size_attrs}),
        # log_laguerre_pos_arg reaches the normalizer through special's own binding.
        (special, "log_laguerre_neg", "special.log_laguerre_neg", {"attrs": lag}),
        (moments, "log_laguerre_neg", "special.log_laguerre_neg", {"attrs": lag}),
        (moments, "mean_variance", "moments.mean_variance", {}),
        (sampling, "sample_power", "sampling.sample_power", {"attrs": _power_draws}),
        (sampling, "sample_complex", "sampling.sample_complex", {"attrs": _power_draws}),
        (sampling, "sample_gamma", "sampling.sample_gamma", {"attrs": _shaped_draws(0)}),
        (sampling, "sample_von_mises", "sampling.sample_von_mises", {"attrs": _shaped_draws(1)}),
        (sampling, "poisson_type_pmf_table", "sampling.poisson_type_pmf_table", {}),
        (
            sampling,
            "sample_poisson_type_mh",
            "sampling.sample_poisson_type_mh",
            {"after": record_mh},
        ),
    ]
    # The fit functions fit_model and the shifted-family fits call; the
    # innermost one decides which model a minimize span belongs to.
    table += [(fitting, f"fit_{m}", f"fitting.fit_{m}", {}) for m in fitting.FIT_MODELS]
    targets = [
        (obj, attr, wrap(tracer, getattr(obj, attr), name, **options))
        for obj, attr, name, options in table
    ]
    targets.append((fitting, "minimize", wrap_minimize(tracer, fitting.minimize)))
    return targets
