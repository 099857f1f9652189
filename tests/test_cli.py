"""CLI surface: each subcommand produces its documented output format."""

import argparse
import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import write_wav_pcm16
from pwncg import cli
from pwncg.cli import build_parser, main
from pwncg.distributions import ComplexParams, PowerParams, log_pdf_complex, log_pdf_power
from pwncg.sampling import rng_stream, sample_complex, sample_power


SIZE = "expected an integer >= 1"
ALPHAS = "argument --alphas: expected finite numbers > 0"
USAGE_ERRORS = [
    (["sample", "--alpha", "1", "--count", "-1"], SIZE),
    (["density-grid", "--alpha", "1", "--n", "-1"], SIZE),
    (["kurtosis-sweep", "--steps", "-1"], SIZE),
    (["fit-spectra", "--input", "x.wav", "--patch-freq", "0"], SIZE),
    (["fit-spectra", "--input", "x.wav", "--patch-time", "0"], SIZE),
    (["kurtosis-sweep", "--alphas", "1,,2"], ALPHAS),
    (["kurtosis-sweep", "--alphas", "-1"], ALPHAS),
    (["kurtosis-sweep", "--alphas", "0"], ALPHAS),
    (["kurtosis-sweep", "--alphas", "nan"], ALPHAS),
    (["sample", "--alpha", "-1"], "pwncg sample: error: alpha must be positive"),
    (
        ["fit-spectra", "--input", "no-such-dir/x.wav"],
        "pwncg fit-spectra: error: all input files failed",
    ),
    (
        ["fit-spectra", "--input", str(Path(__file__).resolve().parent.parent / "src")],
        "pwncg fit-spectra: error: no .wav files under",
    ),
    (
        ["kurtosis-sweep", "--lambda-min", "-1"],
        "pwncg kurtosis-sweep: error: lam must be nonnegative",
    ),
    (
        ["fit-spectra", "--input", "x.wav", "--frame-ms", "0"],
        "pwncg fit-spectra: error: frame_ms must be positive",
    ),
    (
        ["fit-spectra", "--input", "x.wav", "--hop-ms", "50"],
        "pwncg fit-spectra: error: hop_ms must not exceed frame_ms",
    ),
    (
        ["fit-spectra", "--input", "x.wav", "--floor-eps", "nan"],
        "pwncg fit-spectra: error: floor_eps must be positive and finite",
    ),
    (
        ["density-grid", "--kind", "power", "--alpha", "1", "--x-min", "0"],
        "pwncg density-grid: error: grid must start at a positive value",
    ),
    # Parameters whose series would need more terms than their budget.
    (
        ["sample", "--kind", "power", "--alpha", "1", "--lam", "1e7"],
        "pwncg sample: error: could not bound the pmf tail",
    ),
    (
        ["sample", "--kind", "power", "--alpha", "1", "--lam", "1e20"],
        "pwncg sample: error: could not bound the pmf tail",
    ),
    (
        ["density-grid", "--kind", "complex", "--alpha", "1", "--mu-re", "1e10"],
        "pwncg density-grid: error: Laguerre series did not converge",
    ),
    # An output path that cannot be written, found once the work is done.
    (
        ["sample", "--alpha", "1", "--out", "no-such-dir/x.txt"],
        "pwncg sample: error: [Errno 2] No such file or directory",
    ),
    # Two outputs that name the same file, found before any fit.
    (
        ["fit-spectra", "--input", "x.wav", "--out", "r.csv", "--csv", "r.csv"],
        "pwncg fit-spectra: error: --out and --csv name the same file",
    ),
    (
        ["fit-spectra", "--input", "x.wav", "--sweep", "--out", "r.csv", "--csv", "./r.csv"],
        "pwncg fit-spectra: error: --out and --csv name the same file",
    ),
    # A rate 1/sigma2 or noncentrality |mu|^2/sigma2 past the float range.
    (
        ["sample", "--kind", "complex", "--alpha", "1", "--mu-re", "1e200"],
        "pwncg sample: error: mu = (1e+200+0j) and sigma2 = 1.0 give a rate 1/sigma2 or "
        "a noncentrality |mu|^2/sigma2 outside the float range",
    ),
    (
        ["density-grid", "--kind", "complex", "--alpha", "1", "--mu-re", "1e200"],
        "pwncg density-grid: error: mu = (1e+200+0j) and sigma2 = 1.0 give",
    ),
    (
        ["density-grid", "--kind", "amplitude", "--alpha", "1", "--nu", "1e200"],
        "pwncg density-grid: error: nu = 1e+200 and sigma2 = 1.0 give a rate 1/sigma2 or "
        "a noncentrality |nu|^2/sigma2 outside the float range",
    ),
    (
        ["sample", "--kind", "complex", "--alpha", "1", "--sigma2", "1e-320"],
        "pwncg sample: error: mu = 0j and sigma2 = 1e-320 give",
    ),
    (
        ["density-grid", "--kind", "amplitude", "--alpha", "1", "--sigma2", "1e-320"],
        "pwncg density-grid: error: nu = 0.0 and sigma2 = 1e-320 give",
    ),
    # A gamma draw over a subnormal rate overflows.
    (
        ["sample", "--alpha", "1", "--beta", "1e-320", "--lam", "1"],
        "pwncg sample: error: a gamma draw at rate 1e-320 overflows",
    ),
]


@pytest.mark.parametrize(
    "argv, message", USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(USAGE_ERRORS))]
)
def test_sizes_below_one_are_usage_errors(argv, message, capsys):
    """Bad sizes, alpha lists and parameters the library rejects exit with
    code 2 and a one-line error, not a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fit-spectra", "--input", "no-such-dir/x.wav"],
        ["kurtosis-sweep", "--lambda-min", "-1"],
        ["density-grid", "--kind", "power", "--alpha", "1", "--x-min", "0"],
        ["density-grid", "--alpha", "-1"],
        ["sample", "--alpha", "-1"],
        # The report is computed, but its CSV path cannot be opened.
        [
            "fit-spectra", "--input", "{tmp}/n.wav", "--models", "exp",
            "--csv", "{tmp}/no-such-dir/r.csv",
        ],
        # The CSV would overwrite the report.
        ["fit-spectra", "--input", "{tmp}/n.wav", "--models", "exp", "--csv", "{tmp}/out.csv"],
        # A rate or noncentrality past the float range, or an overflowing draw.
        ["sample", "--kind", "complex", "--alpha", "1", "--mu-re", "1e200"],
        ["density-grid", "--kind", "complex", "--alpha", "1", "--mu-re", "1e200"],
        ["density-grid", "--kind", "amplitude", "--alpha", "1", "--nu", "1e200"],
        ["sample", "--kind", "complex", "--alpha", "1", "--sigma2", "1e-320"],
        ["sample", "--alpha", "1", "--beta", "1e-320", "--lam", "1"],
    ],
)
def test_parameter_errors_leave_no_output_file(argv, tmp_path):
    noise = 0.4 * np.random.default_rng(12).standard_normal(1500)
    write_wav_pcm16(tmp_path / "n.wav", noise, 16000)
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main([*(a.format(tmp=tmp_path) for a in argv), "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--alpha", "1", "--seed", "-1"],
        ["fit-spectra", "--input", "{tmp}/n.wav", "--seed", "-1"],
    ],
)
def test_negative_seed_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # a seed is the entropy of a SeedSequence, so a negative one is
    # rejected by the parser, before the WAV is read or a variate drawn
    noise = 0.4 * np.random.default_rng(12).standard_normal(1500)
    write_wav_pcm16(tmp_path / "n.wav", noise, 16000)
    monkeypatch.setattr(cli, "rng_stream", lambda seed: pytest.fail("drew variates"))
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: pytest.fail("read the input"))
    with pytest.raises(SystemExit) as exc:
        main([a.format(tmp=tmp_path) for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --seed: expected an integer >= 0, got '-1'" in captured.err


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_fit_spectra_dash_writes_nothing(option, tmp_path, monkeypatch, capsys):
    # "-" names no file for fit-spectra: it is a usage error before any
    # fit, and no file named "-" (or a report) appears
    noise = 0.4 * np.random.default_rng(12).standard_normal(1500)
    write_wav_pcm16(tmp_path / "n.wav", noise, 16000)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fit-spectra", "--input", "n.wav", "--models", "exp", option, "-"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"pwncg fit-spectra: error: {option} must name a file" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["n.wav"]


def test_readme_names_every_option():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (subcommands,) = (
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    missing = [
        f"{name} {opt}"
        for name, sub in subcommands.choices.items()
        for action in sub._actions
        for opt in action.option_strings
        if opt.startswith("--") and opt != "--help"
        and not re.search(rf"(?<![\w-]){re.escape(opt)}(?![\w-])", readme)
    ]
    assert not missing


class TestSampleCommand:
    def test_power_draws_match_library(self, tmp_path):
        out = tmp_path / "draws.txt"
        rc = main(
            [
                "sample", "--kind", "power", "--alpha", "1.2", "--beta", "0.8",
                "--lam", "2.0", "--count", "64", "--seed", "99", "--out", str(out),
            ]
        )
        assert rc == 0
        got = np.array([float(line) for line in out.read_text().splitlines()])
        ref = sample_power(PowerParams(1.2, 0.8, 2.0), rng_stream(99), size=64)
        np.testing.assert_allclose(got, ref, rtol=1e-15)

    def test_complex_draws_format(self, tmp_path):
        out = tmp_path / "draws.txt"
        main(
            [
                "sample", "--kind", "complex", "--alpha", "2.0", "--sigma2", "1.0",
                "--mu-re", "0.3", "--mu-im", "0.4", "--count", "16", "--seed", "4",
                "--out", str(out),
            ]
        )
        lines = out.read_text().splitlines()
        assert len(lines) == 16
        got = np.array([complex(*map(float, ln.split(","))) for ln in lines])
        ref = sample_complex(ComplexParams(0.3 + 0.4j, 1.0, 2.0), rng_stream(4), size=16)
        np.testing.assert_allclose(got, ref, rtol=1e-15)

    def test_mh_method_flag(self, tmp_path):
        out = tmp_path / "d.txt"
        rc = main(
            [
                "sample", "--kind", "power", "--alpha", "1.0", "--beta", "1.0",
                "--lam", "1.0", "--count", "8", "--seed", "1", "--method", "mh",
                "--out", str(out),
            ]
        )
        assert rc == 0 and len(out.read_text().splitlines()) == 8


class TestDensityGridCommand:
    def test_complex_grid(self, tmp_path):
        out = tmp_path / "g.csv"
        main(
            [
                "density-grid", "--kind", "complex", "--alpha", "1.5",
                "--mu-re", "0.2", "--n", "11", "--out", str(out),
            ]
        )
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["re", "im", "density"]
        assert len(rows) == 1 + 121
        re, im, d = map(float, rows[5])
        p = ComplexParams(0.2 + 0.0j, 1.0, 1.5)
        assert math.isclose(d, math.exp(log_pdf_complex(complex(re, im), p)), rel_tol=1e-10)

    def test_power_grid(self, tmp_path):
        out = tmp_path / "p.csv"
        main(
            [
                "density-grid", "--kind", "power", "--alpha", "0.8", "--beta", "1.0",
                "--lam", "1.0", "--x-min", "0.05", "--x-max", "4.0", "--n", "21",
                "--out", str(out),
            ]
        )
        rows = list(csv.reader(out.read_text().splitlines()))
        x, d = map(float, rows[3])
        assert math.isclose(
            d, math.exp(log_pdf_power(x, PowerParams(0.8, 1.0, 1.0))), rel_tol=1e-10
        )

    @pytest.mark.parametrize(
        "bound",
        [
            ["--kind", "complex", "--re-max", "inf"],
            ["--kind", "complex", "--im-min=-inf"],
            ["--kind", "power", "--x-max", "inf"],
            ["--kind", "amplitude", "--x-max", "inf", "--n", "1"],
            ["--kind", "complex", "--re-min=-1e308", "--re-max", "1e308"],
        ],
    )
    def test_infinite_range_is_an_error_without_a_warning(self, bound, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SystemExit) as exc:
                main(["density-grid", "--alpha", "1.5", *bound, "--out", str(tmp_path / "g.csv")])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()


class TestKurtosisSweepCommand:
    def test_columns_and_regimes(self, tmp_path):
        out = tmp_path / "k.csv"
        main(["kurtosis-sweep", "--steps", "11", "--out", str(out)])
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["lambda", "alpha", "gamma2_proposed", "gamma2_ncgamma"]
        assert len(rows) == 1 + 33
        for lam, alpha, gp, gn in (map(float, r) for r in rows[1:]):
            if alpha == 0.5:
                assert gp >= gn - 1e-9


class TestFitSpectraCommand:
    def test_report_and_csv(self, tmp_path, capsys):
        wav = tmp_path / "n.wav"
        rng = np.random.default_rng(8)
        write_wav_pcm16(wav, 0.4 * rng.standard_normal(5000), 16000)
        report = tmp_path / "rep.json"
        table = tmp_path / "rep.csv"
        rc = main(
            [
                "fit-spectra", "--input", str(wav), "--models", "exp,gamma",
                "--seed", "3", "--out", str(report), "--csv", str(table),
            ]
        )
        assert rc == 0
        body = json.loads(report.read_text())
        assert body["config"]["models"] == ["exponential", "gamma"]
        assert body["files"][0]["n_patches"] == len(body["patches"])
        rows = list(csv.reader(table.read_text().splitlines()))
        assert len(rows) == 1 + 2 * len(body["patches"])
        lines = capsys.readouterr().out.splitlines()
        for m, line in zip(body["config"]["models"], lines):
            failed = sum(not p["fits"][m]["converged"] for p in body["patches"])
            assert line.split(":")[0].strip() == m and "avg LL" in line
            assert line.endswith(f"not converged {failed}/{len(body['patches'])}")
            skipped = body["provenance"]["fit_counters"][m]["starts_skipped"]
            assert f"   starts skipped {skipped}   " in line

    def test_model_aliases_resolve_and_deduplicate(self, tmp_path):
        wav = tmp_path / "n.wav"
        write_wav_pcm16(wav, 0.4 * np.random.default_rng(11).standard_normal(1500), 16000)
        report = tmp_path / "rep.json"
        rc = main(
            [
                "fit-spectra", "--input", str(wav), "--models", "exp,ncgamma,exponential",
                "--patch-freq", "43", "--out", str(report),
            ]
        )
        assert rc == 0
        body = json.loads(report.read_text())
        assert body["config"]["models"] == ["exponential", "noncentral_gamma"]

    def test_unknown_model_lists_aliases(self, tmp_path, capsys):
        wav = tmp_path / "n.wav"
        write_wav_pcm16(wav, np.zeros(1500), 16000)
        with pytest.raises(SystemExit) as exc:
            main(["fit-spectra", "--input", str(wav), "--models", "exp,weibull"])
        assert exc.value.code == 2
        msg = capsys.readouterr().err
        assert "pwncg fit-spectra: error: unknown model 'weibull'" in msg
        for alias in ("exp", "exponential", "gamma", "ncgamma", "noncentral_gamma", "proposed"):
            assert repr(alias) in msg

    def test_directory_input(self, tmp_path):
        rng = np.random.default_rng(9)
        for name in ("a.wav", "b.wav"):
            write_wav_pcm16(tmp_path / name, 0.4 * rng.standard_normal(4000), 16000)
        report = tmp_path / "rep.json"
        rc = main(
            [
                "fit-spectra", "--input", str(tmp_path), "--models", "exp",
                "--out", str(report),
            ]
        )
        assert rc == 0
        assert len(json.loads(report.read_text())["files"]) == 2

    def test_sweep_writes_one_report_per_window(self, tmp_path, capsys):
        wav = tmp_path / "n.wav"
        write_wav_pcm16(wav, 0.4 * np.random.default_rng(10).standard_normal(4000), 16000)
        report = tmp_path / "rep.json"
        rc = main(
            [
                "fit-spectra", "--input", str(wav), "--models", "exp", "--sweep",
                "--out", str(report),
            ]
        )
        assert rc == 0
        for w in ("hann", "hamming", "rect"):
            assert (tmp_path / f"rep.{w}.json").exists()

    def test_sweep_writes_one_csv_per_window(self, tmp_path, capsys):
        # each window's CSV and report equal those of a single run at it
        wav = tmp_path / "n.wav"
        write_wav_pcm16(wav, 0.4 * np.random.default_rng(10).standard_normal(4000), 16000)
        common = ["fit-spectra", "--input", str(wav), "--models", "exp,gamma", "--seed", "2"]
        rc = main(
            [*common, "--sweep", "--out", str(tmp_path / "rep.json"),
             "--csv", str(tmp_path / "rep.csv")]
        )
        assert rc == 0
        for w in ("hann", "hamming", "rect"):
            single = tmp_path / w
            single.mkdir()
            main(
                [*common, "--window", w, "--out", str(single / "rep.json"),
                 "--csv", str(single / "rep.csv")]
            )
            for suffix in ("json", "csv"):
                swept = (tmp_path / f"rep.{w}.{suffix}").read_text()
                assert swept == (single / f"rep.{suffix}").read_text()
