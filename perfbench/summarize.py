"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/summarize.py --seeds 1-10 --trace 0 --out perfbench/out/summary.json

Runs every workload named in BENCHMARK.json (or those given with
--workloads) once per seed, one run at a time, and reports per metric the
median, the quartiles and their distance as a share of the median, which
is the run-to-run spread that each end-to-end bound must exceed. Each
run's result line is kept with the pass and set-up times it printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def timing_lines(lines: list[str]) -> dict:
    """The per-pass times, in seconds and in reference units, and the set-up
    timings a run printed."""
    keys = ("pass_s", "pass_ref", "setup_s")
    return {
        key: [float(x) for x in rest.split()]
        for key, _, rest in (line.partition(" ") for line in lines)
        if key in keys
    }


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for w in workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(ROOT / spec["command"][1]), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "result": result, **timing_lines(lines)})
            print(f"{w} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  flush=True)
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            metrics[name] = summarize([r["result"]["metrics"][name]["value"] for r in runs])
            metrics[name]["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            bound = bounds.get(name) if not args.trace else None
            flag = "" if bound is None or metrics[name]["spread"] <= bound / 3 else "  > bound/3"
            m = metrics[name]
            print(f"  {name:45s} median {m['median']:.6g} spread {m['spread']:.4f}{flag}")
        report[w] = {"runs": runs, "metrics": metrics}
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
