"""Per-layer metrics from the spans of a traced run, and the fixed-argument
kernel timings.

Counts and times are per traced pass, so they do not depend on how many
passes fit into a run. Shares and percentiles are taken over every span
of the traced passes.
"""

from __future__ import annotations

import time

import numpy as np

from pwncg import special
from pwncg.fitting import DEFAULT_OPTIMIZER, FIT_MODELS as MODELS

OPTIMIZED = ("gamma", "noncentral_gamma", "proposed")  # models fitted with minimize
MULTI_START = ("noncentral_gamma", "proposed")
STARTS = DEFAULT_OPTIMIZER.restarts


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(tr, passes: int, traced_s: float, wall_untraced: float, wall_traced: float,
                  kernels):
    """Every per-layer metric as {name: (value, unit)}."""
    ids = np.frombuffer(tr.name, dtype=np.int32)
    parent = np.frombuffer(tr.parent, dtype=np.int32)
    a = np.frombuffer(tr.a, dtype=float)
    b = np.frombuffer(tr.b, dtype=float)
    dur = tr.durations()
    self_time = tr.self_times()

    def mask(name):
        nid = tr._ids.get(name)
        return ids == nid if nid is not None else np.zeros(len(ids), dtype=bool)

    def per_pass(x) -> float:
        return float(x) / passes

    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    # cli and spectral: the stages of one fit-spectra run.
    put("cli.main.self_ms", per_pass(self_time[mask("cli.main")].sum() * 1e3), "ms")
    for stage in ("load_wav", "stft_power", "tile_patches"):
        put(f"spectral.{stage}.ms", per_pass(dur[mask(f"spectral.{stage}")].sum() * 1e3), "ms")
    run_exp = mask("spectral.run_experiment")
    put("spectral.run_experiment.self_ms", per_pass(self_time[run_exp].sum() * 1e3), "ms")
    put("spectral.to_json.ms", per_pass(dur[mask("spectral.to_json")].sum() * 1e3), "ms")
    first = mask(f"fitting.fit_model.{MODELS[0]}")
    items = int(first.sum())
    under_run = first & np.isin(parent, np.flatnonzero(run_exp))
    put("spectral.patches", per_pass(under_run.sum()), "count")

    # fitting: fit_model spans per model, and the minimize starts inside them.
    all_fits = np.zeros(len(ids), dtype=bool)
    for m in MODELS:
        fm = mask(f"fitting.fit_model.{m}")
        all_fits |= fm
        ms = dur[fm] * 1e3
        put(f"fitting.{m}.fits", per_pass(fm.sum()), "count")
        put(f"fitting.{m}.s", per_pass(dur[fm].sum()), "s")
        put(f"fitting.{m}.fit_ms_p50", _pct(ms, 50), "ms")
        put(f"fitting.{m}.fit_ms_p90", _pct(ms, 90), "ms")
    put("fitting.share_of_wall", _ratio(dur[all_fits].sum(), traced_s), "ratio")
    put("fitting.gamma_fits_per_item", _ratio(mask("fitting.fit_gamma").sum(), items), "count/item")

    fit_fn_ids = {tr._ids[f"fitting.fit_{m}"]: m for m in MODELS if f"fitting.fit_{m}" in tr._ids}
    starts = {m: [] for m in OPTIMIZED}  # (owner span, nfev, njev, fun, penalty hits)
    for idx in np.flatnonzero(mask("fitting.minimize")):
        owner = parent[idx]
        while owner >= 0 and ids[owner] not in fit_fn_ids:
            owner = parent[owner]
        if owner < 0:
            continue
        fun, hits = tr.extra[int(idx)]
        starts[fit_fn_ids[ids[owner]]].append((int(owner), a[idx], b[idx], fun, hits))
    for m in OPTIMIZED:
        fm = mask(f"fitting.fit_model.{m}")
        results = [tr.extra[int(i)] for i in np.flatnonzero(fm) if int(i) in tr.extra]
        n_fn = int(mask(f"fitting.fit_{m}").sum())
        rows = starts[m]
        put(f"fitting.{m}.starts_per_fit", _ratio(len(rows), n_fn), "count/fit")
        put(f"fitting.{m}.nfev_per_fit", _ratio(sum(r[1] for r in rows), n_fn), "count/fit")
        put(f"fitting.{m}.njev_per_fit", _ratio(sum(r[2] for r in rows), n_fn), "count/fit")
        put(f"fitting.{m}.penalty_hits", per_pass(sum(r[4] for r in rows)), "count")
        put(f"fitting.{m}.not_converged", per_pass(sum(not r[0] for r in results)), "count")
        put(f"fitting.{m}.degenerate", per_pass(sum(r[1] for r in results)), "count")
    for m in MULTI_START:
        by_owner: dict[int, list[float]] = {}
        for owner, _, _, fun, _ in starts[m]:
            by_owner.setdefault(owner, []).append(fun)
        wins = np.zeros(STARTS)
        for funs in by_owner.values():
            k = int(np.argmin(funs))  # first minimum, as the fit keeps it
            if k < STARTS:
                wins[k] += 1
        for k in range(STARTS):
            put(f"fitting.{m}.winning_start.{k}", per_pass(wins[k]), "count")

    # special: the kernels every density and objective evaluation calls.
    lag = mask("special.log_laguerre_neg")
    lam = a[lag]
    put("special.log_laguerre_neg.calls", per_pass(lag.sum()), "count")
    put("special.log_laguerre_neg.s", per_pass(dur[lag].sum()), "s")
    put("special.log_laguerre_neg.lam_p50", _pct(lam, 50), "lambda")
    put("special.log_laguerre_neg.lam_p99", _pct(lam, 99), "lambda")
    share = _ratio(np.count_nonzero(lam >= 100.0), lam.size)
    put("special.log_laguerre_neg.share_lam_ge_100", share, "ratio")
    for fn, cut in (("log_bessel_i0", 25), ("log_bessel_i_nu", 30)):
        km = mask(f"special.{fn}")
        put(f"special.{fn}.calls", per_pass(km.sum()), "count")
        put(f"special.{fn}.elements", per_pass(a[km].sum()), "count")
        put(f"special.{fn}.s", per_pass(dur[km].sum()), "s")
        put(f"special.{fn}.share_x_ge_{cut}", _ratio(b[km].sum(), a[km].sum()), "ratio")
    for name, (value, unit) in kernels.items():
        put(name, value, unit)

    # distributions: span times include the special calls inside them.
    for fn in ("log_pdf_power", "log_pdf_noncentral_gamma", "log_pdf_complex"):
        dm = mask(f"distributions.{fn}")
        put(f"distributions.{fn}.calls", per_pass(dm.sum()), "count")
        if fn == "log_pdf_complex":
            put(f"distributions.{fn}.elements", per_pass(a[dm].sum()), "count")
        put(f"distributions.{fn}.s", per_pass(dur[dm].sum()), "s")

    # sampling: draw rates of each sampler, including nested calls.
    sp = mask("sampling.sample_power")
    for method, code in (("trunc", 0.0), ("mh", 1.0)):
        sel = sp & (b == code)
        rate = _ratio(a[sel].sum(), dur[sel].sum())
        put(f"sampling.sample_power.{method}.draws_per_s", rate, "draws/s")
    for fn in ("sample_complex", "sample_gamma", "sample_von_mises"):
        sel = mask(f"sampling.{fn}")
        put(f"sampling.{fn}.draws_per_s", _ratio(a[sel].sum(), dur[sel].sum()), "draws/s")
    pmf = mask("sampling.poisson_type_pmf_table")
    put("sampling.poisson_type_pmf_table.ms", _ratio(dur[pmf].sum() * 1e3, pmf.sum()), "ms")
    mh = mask("sampling.sample_poisson_type_mh") & (b > 0)
    put("sampling.mh.accept_ratio", _ratio(a[mh].sum(), b[mh].sum()), "ratio")

    # moments
    ks = mask("moments.kurtosis_sweep")
    put("moments.kurtosis_sweep.ms", per_pass(dur[ks].sum() * 1e3), "ms")
    put("moments.kurtosis_sweep.points", per_pass(a[ks].sum()), "count")
    mv = mask("moments.mean_variance")
    put("moments.mean_variance.us", _ratio(dur[mv].sum() * 1e6, mv.sum()), "us")

    put("trace.overhead_s", wall_traced - wall_untraced, "s")
    return out


def kernel_timings(budget_s: float = 0.15, repeats: int = 7):
    """Median time per call of each kernel at fixed arguments, in us."""
    x60 = np.linspace(0.5, 50.0, 60)
    cases = {
        "kernel.log_laguerre_neg.lam3_us": lambda: special.log_laguerre_neg(1.0, 3.0),
        "kernel.log_laguerre_neg.lam1000_us": lambda: special.log_laguerre_neg(1.0, 1000.0),
        "kernel.log_bessel_i0.n60_us": lambda: special.log_bessel_i0(x60),
        "kernel.log_bessel_i_nu.n60_us": lambda: special.log_bessel_i_nu(0.5, x60),
    }
    out = {}
    for name, call in cases.items():
        t0 = time.perf_counter()
        call()
        loops = max(1, int(budget_s / repeats / max(time.perf_counter() - t0, 1e-7)))
        per_call = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                call()
            per_call.append((time.perf_counter() - t0) / loops)
        out[name] = (float(np.median(per_call)) * 1e6, "us")
    return out
