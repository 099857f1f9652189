"""Command-line interface.

Subcommands:
  sample         draw variates (complex as "re,im" lines, power as scalars)
  density-grid   export density values on a grid as CSV
  kurtosis-sweep export the excess-kurtosis comparison sweep as CSV
  fit-spectra    run the patchwise model-comparison experiment on WAV input
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .distributions import (
    AmplitudeParams,
    ComplexParams,
    PowerParams,
    complex_density_rows,
    scalar_density_rows,
)
from .fitting import FIT_MODELS, MODELS
from .moments import kurtosis_sweep
from .sampling import rng_stream, sample_complex, sample_power
from .special import SeriesConvergenceError
from .spectral import WINDOWS, StftConfig, run_experiment

MODEL_ALIASES = {a: m.name for m in MODELS.values() for a in (m.name, *m.aliases)}


def _positive_int(text: str) -> int:
    """argparse type of a size option: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of a --seed option: an integer >= 0, the entropy of
    numpy's SeedSequence."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return value


def _positive_floats(text: str) -> list[float]:
    """argparse type of a list option: comma-separated finite numbers > 0."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = [np.nan]
    if not all(0.0 < v < np.inf for v in values):
        raise argparse.ArgumentTypeError(f"expected finite numbers > 0, got {text!r}")
    return values


@contextlib.contextmanager
def _output(path):
    """The output stream: stdout for None or "-", else the file, closed on
    exit. Commands open it only once their output is computed, so that a
    parameter error leaves no file behind."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", newline="") as fh:
            yield fh


def _write_csv(path, header, rows) -> None:
    with _output(path) as out:
        writer = csv.writer(out)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_sample(args) -> int:
    rng = rng_stream(args.seed)
    if args.kind == "complex":
        p = ComplexParams(mu=complex(args.mu_re, args.mu_im), sigma2=args.sigma2, alpha=args.alpha)
        draws = sample_complex(p, rng, size=args.count, method=args.method)
        lines = (f"{z.real:.17g},{z.imag:.17g}\n" for z in draws)
    else:
        p = PowerParams(alpha=args.alpha, beta=args.beta, lam=args.lam)
        draws = sample_power(p, rng, size=args.count, method=args.method)
        lines = (f"{x:.17g}\n" for x in draws)
    with _output(args.out) as out:
        out.writelines(lines)
    return 0


def _cmd_density_grid(args) -> int:
    if args.kind == "complex":
        p = ComplexParams(mu=complex(args.mu_re, args.mu_im), sigma2=args.sigma2, alpha=args.alpha)
        header = ["re", "im", "density"]
        rows = complex_density_rows(
            p, (args.re_min, args.re_max), (args.im_min, args.im_max), args.n, args.n
        )
    else:
        header = ["x", "density"]
        if args.kind == "amplitude":
            params = AmplitudeParams(nu=args.nu, sigma2=args.sigma2, alpha=args.alpha)
        else:
            params = PowerParams(alpha=args.alpha, beta=args.beta, lam=args.lam)
        rows = scalar_density_rows(args.kind, params, args.x_min, args.x_max, args.n)
    _write_csv(args.out, header, rows)
    return 0


def _cmd_kurtosis_sweep(args) -> int:
    lambdas = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    # Computed in full before the output is opened, as in density-grid.
    rows = list(kurtosis_sweep(lambdas, args.alphas))
    _write_csv(args.out, ["lambda", "alpha", "gamma2_proposed", "gamma2_ncgamma"], rows)
    return 0


def _write_files(files: dict) -> None:
    """Write files {path: text} once every path is open, so that a path
    that cannot be opened creates no file and truncates none."""
    created = [path for path in files if not Path(path).exists()]
    with contextlib.ExitStack() as stack:
        try:  # append mode creates a missing file but keeps an existing one
            handles = [stack.enter_context(open(path, "a", newline="")) for path in files]
        except OSError:
            stack.close()
            for path in created:
                Path(path).unlink(missing_ok=True)
            raise
        for fh, text in zip(handles, files.values()):
            fh.truncate(0)
            fh.write(text)


def _collect_wavs(input_path: str) -> list[str]:
    p = Path(input_path)
    if p.is_dir():
        found = sorted(str(f) for f in p.rglob("*") if f.suffix.lower() == ".wav")
        if not found:
            raise ValueError(f"no .wav files under {p}")
        return found
    return [str(p)]


def _summary_line(report, m: str) -> str:
    """Average LL, the p-value against the proposed model, the starts
    skipped (FitResult.starts_skipped: start 1 where start 0 converged at a
    lam = 0 maximum, the later starts where start 0 or 1 converged), and
    how many of the patch fits did not converge."""
    line = f"{m:>17s}: avg LL {report.models[m]['avg_ll']:10.3f}"
    if m in report.tests:
        line += f"   p vs proposed {report.tests[m]:.3g}"
    counts = report.provenance["fit_counters"][m]
    line += f"   starts skipped {counts['starts_skipped']}"
    return line + f"   not converged {counts['not_converged']}/{counts['fits']}"


def _window_path(path: str, window) -> str:
    """path itself, or <stem>.<window><suffix> beside it for a sweep."""
    if window is None:
        return path
    p = Path(path)
    return str(p.with_name(f"{p.stem}.{window}{p.suffix}"))


def _cmd_fit_spectra(args) -> int:
    for option, path in (("--out", args.out), ("--csv", args.csv)):
        if path == "-":
            raise ValueError(f"{option} must name a file; fit-spectra does not write to stdout")
    paths = _collect_wavs(args.input)
    models = []
    for name in args.models.split(","):
        key = name.strip().lower()
        if key not in MODEL_ALIASES:
            raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_ALIASES)}")
        canonical = MODEL_ALIASES[key]
        if canonical not in models:
            models.append(canonical)
    windows = WINDOWS if args.sweep else (None,)
    if args.csv:
        same = {Path(_window_path(args.out, w)).resolve() for w in windows} & {
            Path(_window_path(args.csv, w)).resolve() for w in windows
        }
        if same:
            raise ValueError(f"--out and --csv name the same file {min(same)}")
    reports = {
        w: run_experiment(
            paths,
            StftConfig(frame_ms=args.frame_ms, hop_ms=args.hop_ms, window=w or args.window),
            models=models,
            floor_eps=args.floor_eps,
            seed=args.seed,
            patch_freq=args.patch_freq,
            patch_time=args.patch_time,
        )
        for w in windows
    }
    files = {}
    for window, report in reports.items():
        files[_window_path(args.out, window)] = report.to_json()
        if args.csv:
            table = io.StringIO()
            csv.writer(table).writerows(report.csv_rows())
            files[_window_path(args.csv, window)] = table.getvalue()
    _write_files(files)
    indent = "  " if args.sweep else ""
    for window, report in reports.items():
        if args.sweep:
            print(f"[{window}]")
        for m in models:
            print(indent + _summary_line(report, m))
        print(f"{indent}report: {_window_path(args.out, window)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pwncg",
        description="Power-weighted noncentral complex Gaussian toolbox",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("sample", help="draw variates, one per line")
    ps.add_argument("--kind", choices=["complex", "power"], default="power")
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--sigma2", type=float, default=1.0, help="complex kind only")
    ps.add_argument("--mu-re", type=float, default=0.0, help="complex kind only")
    ps.add_argument("--mu-im", type=float, default=0.0, help="complex kind only")
    ps.add_argument("--beta", type=float, default=1.0, help="power kind only")
    ps.add_argument("--lam", type=float, default=0.0, help="power kind only")
    ps.add_argument("--count", type=_positive_int, default=1)
    ps.add_argument("--seed", type=_seed, default=0)
    ps.add_argument("--method", choices=["trunc", "mh"], default="trunc")
    ps.add_argument("--out", default="-")
    ps.set_defaults(func=_cmd_sample)

    pg = sub.add_parser("density-grid", help="export density values as CSV")
    pg.add_argument("--kind", choices=["complex", "amplitude", "power"], default="complex")
    pg.add_argument("--alpha", type=float, required=True)
    pg.add_argument("--sigma2", type=float, default=1.0)
    pg.add_argument("--mu-re", type=float, default=0.0)
    pg.add_argument("--mu-im", type=float, default=0.0)
    pg.add_argument("--nu", type=float, default=0.0, help="amplitude kind only")
    pg.add_argument("--beta", type=float, default=1.0, help="power kind only")
    pg.add_argument("--lam", type=float, default=0.0, help="power kind only")
    pg.add_argument("--re-min", type=float, default=-3.0)
    pg.add_argument("--re-max", type=float, default=3.0)
    pg.add_argument("--im-min", type=float, default=-3.0)
    pg.add_argument("--im-max", type=float, default=3.0)
    pg.add_argument("--x-min", type=float, default=1e-3)
    pg.add_argument("--x-max", type=float, default=10.0)
    pg.add_argument("--n", type=_positive_int, default=201)
    pg.add_argument("--out", default="-")
    pg.set_defaults(func=_cmd_density_grid)

    pk = sub.add_parser("kurtosis-sweep", help="export the kurtosis comparison as CSV")
    pk.add_argument("--lambda-min", type=float, default=0.0)
    pk.add_argument("--lambda-max", type=float, default=10.0)
    pk.add_argument("--steps", type=_positive_int, default=101)
    pk.add_argument("--alphas", type=_positive_floats, default="0.5,1,2")
    pk.add_argument("--out", default="-")
    pk.set_defaults(func=_cmd_kurtosis_sweep)

    pf = sub.add_parser("fit-spectra", help="patchwise model comparison on WAV input")
    pf.add_argument("--input", required=True, help="WAV file or directory")
    pf.add_argument("--frame-ms", type=float, default=16.0)
    pf.add_argument("--hop-ms", type=float, default=4.0)
    pf.add_argument("--window", choices=WINDOWS, default="hann")
    pf.add_argument("--patch-freq", type=_positive_int, default=3)
    pf.add_argument("--patch-time", type=_positive_int, default=20)
    pf.add_argument("--models", default=",".join(FIT_MODELS))
    pf.add_argument("--floor-eps", type=float, default=1e-10)
    pf.add_argument("--seed", type=_seed, default=0)
    pf.add_argument("--out", default="report.json")
    pf.add_argument("--csv", default=None)
    pf.add_argument(
        "--sweep",
        action="store_true",
        help=f"run once per window ({', '.join(WINDOWS)}) and write one report each",
    )
    pf.set_defaults(func=_cmd_fit_spectra)
    return parser


def main(argv=None) -> int:
    """Run one subcommand. A ValueError from parameter validation (or from
    a fit-spectra input none of whose files could be analyzed), a
    SeriesConvergenceError from parameters beyond the series' reach, or an
    OSError from an output path that cannot be written exits 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SeriesConvergenceError, OSError) as exc:
        parser.exit(2, f"pwncg {args.command}: error: {exc}\n")


if __name__ == "__main__":
    raise SystemExit(main())
