"""pwncg benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload speech_patches --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ``src/``.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs untraced passes for half the time and traced passes for the rest and
prints the per-layer metrics, and writes every span to
``perfbench/out/``. Human-readable lines come first; the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3  # timed imports before the passes, and as many after them


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def measure_setup(env, warm_up: bool) -> list[float]:
    """Wall times of a fresh interpreter importing pwncg.cli, after one
    untimed import that writes the bytecode cache if ``warm_up``."""
    cmd = [sys.executable, "-c", "import pwncg.cli"]
    times = []
    for i in range(SETUP_REPEATS + warm_up):
        t0 = time.perf_counter()
        child = subprocess.Popen(cmd, env=env, cwd=ROOT)
        # A blocking wait, not wait(timeout=...), which polls in steps of up
        # to 50 ms; the timer only guards against a hung import.
        guard = threading.Timer(60, child.kill)
        guard.start()
        try:
            returncode = child.wait()
        finally:
            guard.cancel()
        if returncode:
            raise RuntimeError(f"{' '.join(cmd)} exited with {returncode}")
        if i or not warm_up:
            times.append(time.perf_counter() - t0)
    return times


def run_passes(workload, seconds: float, min_passes: int, tracer=None, probe=None):
    """Run passes until another would end past ``seconds``; return the
    per-pass times, the per-pass times in reference units (with a
    ``SpeedProbe``) and the outcomes."""
    times, ref_times, outcomes = [], [], []
    t_start = time.perf_counter()
    while True:
        if probe is not None:
            probe.start()
        t0 = time.perf_counter()
        raw = workload.run(tracer, probe)
        if probe is None:
            times.append(time.perf_counter() - t0)
        else:
            pass_s, pass_refs = probe.stop()
            times.append(pass_s)
            ref_times.append(pass_refs)
        outcomes.append(workload.check(raw))
        elapsed = time.perf_counter() - t_start
        if len(times) >= min_passes and elapsed + statistics.median(times) > seconds:
            return times, ref_times, outcomes


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pwncg" / "__init__.py").is_file():
        print(f"error: no pwncg package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload_names = [w["name"] for w in spec["workloads"]]
    if args.workload not in workload_names:
        print(f"error: unknown workload {args.workload!r}; choose from {workload_names}",
              file=sys.stderr)
        return 2

    # Children (the set-up probe) get the caller's environment; only this
    # process is pinned to one BLAS/OpenMP thread, before numpy loads.
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy as np

    import pwncg
    from layers import MODELS, kernel_timings, layer_metrics
    from speed import SpeedProbe
    from tracing import Tracer, patched, trace_targets
    from workloads import WORKLOADS

    if Path(pwncg.__file__).resolve().parent != (SRC / "pwncg").resolve():
        print(f"error: imported pwncg from {pwncg.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    OUT.mkdir(exist_ok=True)
    # Set-up is timed before and after the passes, so that its median does
    # not rest on a single moment of the machine.
    setup = [] if args.trace else measure_setup(child_env, warm_up=True)

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload = WORKLOADS[args.workload](args.seed, Path(tmp))
        if not args.trace:
            probe = SpeedProbe(workload.REFERENCE)
            times, ref_times, outcomes = run_passes(
                workload, args.seconds, min_passes=2, probe=probe
            )
            traced_times = []
        else:
            times, _, outcomes = run_passes(workload, args.seconds / 2, min_passes=1)
            tracer = Tracer()
            with patched(trace_targets(tracer)):
                traced_times, _, traced_outcomes = run_passes(
                    workload, args.seconds / 2, min_passes=1, tracer=tracer
                )
            outcomes += traced_outcomes
    peak_rss_mb = _peak_rss_mb()
    if not args.trace:
        setup += measure_setup(child_env, warm_up=False)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    not_converged = sum(o.not_converged for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    wall = statistics.median(times)
    per_pass = attempted // len(outcomes)
    items = getattr(workload, "items", per_pass)

    print(f"passes {len(times)} untraced, {len(traced_times)} traced; "
          f"{items} {workload.item} and {per_pass} operations per pass")
    print("pass_s " + " ".join(f"{t:.4f}" for t in times + traced_times))
    print(f"fail_ratio {(failed + not_converged) / attempted:.6f} "
          f"({failed} failed + {not_converged} not converged of {attempted} attempted)")
    for p in sorted(set(problems)):
        print(f"problem {p}")

    if not args.trace:
        ll = outcomes[0].avg_ll
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_ref": (statistics.median(ref_times), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "ok_ratio": ((attempted - failed - not_converged) / attempted, "ratio"),
        }
        for m in MODELS:
            metrics[f"avg_ll.{m}"] = (ll.get(m, 0.0), "nats")
        print("pass_ref " + " ".join(f"{t:.2f}" for t in ref_times))
        print("setup_s " + " ".join(f"{t:.4f}" for t in setup))
        print(f"wall_s {wall:.4f} s (median pass time; not in BENCHMARK.json, see README)")
    else:
        kernels = kernel_timings()
        wall_traced = statistics.median(traced_times)
        metrics = layer_metrics(
            tracer, len(traced_times), sum(traced_times), wall, wall_traced, kernels
        )
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write_tsv(spans, [json.dumps(env, sort_keys=True)])
        print(f"spans {len(tracer)} written to {spans.relative_to(ROOT)}")

    names = [d["name"] for d in declared]
    if list(metrics) != names:
        raise RuntimeError(f"metrics {list(metrics)} do not match BENCHMARK.json {names}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    finite = all(np.isfinite(v) for v, _ in metrics.values())
    metrics = {k: (v if np.isfinite(v) else 0.0, u) for k, (v, u) in metrics.items()}
    correct = failed == 0 and finite
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


if __name__ == "__main__":
    sys.exit(main())
