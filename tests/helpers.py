"""Shared test utilities: WAV synthesis, quadrature oracles and the golden
report.

The WAV writers are deliberately independent of the package reader (raw
struct packing) so reader tests have a synthesis oracle to check against.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import struct

import numpy as np
import scipy
from scipy.special import digamma, gammaln, i0e, i1e, ive

from pwncg import cli
from pwncg.distributions import ComplexParams, PowerParams, log_pdf_complex
from pwncg.fitting import FIT_MODELS, fit_batches
from pwncg.sampling import rng_stream, sample_power


def write_wav_pcm16(path, samples, sample_rate, channels=1):
    x = np.clip(np.asarray(samples, dtype=float), -1.0, 1.0)
    if channels > 1:
        x = np.repeat(x[:, None], channels, axis=1)
        x[:, 1:] *= 0.5  # make extra channels distinguishable
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    block = 2 * channels
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE")
        fh.write(
            b"fmt "
            + struct.pack(
                "<IHHIIHH", 16, 1, channels, sample_rate, sample_rate * block, block, 16
            )
        )
        fh.write(b"data" + struct.pack("<I", len(pcm)) + pcm)


def write_wav_float32(path, samples, sample_rate):
    raw = np.asarray(samples, dtype="<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(raw)) + b"WAVE")
        fh.write(
            b"fmt "
            + struct.pack("<IHHIIHH", 16, 3, 1, sample_rate, sample_rate * 4, 4, 32)
        )
        fh.write(b"data" + struct.pack("<I", len(raw)) + raw)


def make_speech_like(duration_s=1.1, sample_rate=16000, seed=2024):
    """Synthesized speech-like signal: voiced harmonic stretches with
    vibrato, pitch jitter, syllable-rate amplitude modulation and shimmer,
    alternating with fricative-like noise bursts and near-silence.

    The jitter and shimmer matter: without them the voiced patches are so
    stationary that their power statistics become strongly noncentral,
    which real speech patches are not.
    """
    rng = np.random.default_rng(seed)
    n = int(duration_s * sample_rate)
    t = np.arange(n) / sample_rate
    sig = np.zeros(n)

    seg = int(0.16 * sample_rate)
    pos = 0
    voiced = True
    while pos < n:
        end = min(pos + seg, n)
        tt = t[pos:end] - t[pos]
        if voiced:
            f0 = rng.uniform(95.0, 220.0)
            jitter = np.cumsum(rng.normal(0.0, 2.0, end - pos)) / sample_rate
            vibrato = 4.0 * np.sin(2 * np.pi * 5.5 * tt) / (2 * np.pi * 5.5)
            phase = 2 * np.pi * (f0 * tt + vibrato + jitter)
            frame = np.zeros(end - pos)
            for h in range(1, 12):
                frame += rng.uniform(0.2, 1.0) / h * np.sin(h * phase + rng.uniform(0, 2 * np.pi))
            am = 0.55 + 0.45 * np.sin(2 * np.pi * 9.0 * tt + rng.uniform(0, 2 * np.pi))
            shimmer = np.interp(
                np.arange(end - pos),
                np.linspace(0.0, end - pos, 20),
                1.0 + 0.35 * rng.standard_normal(20),
            )
            frame *= am * np.abs(shimmer) * rng.uniform(0.5, 1.0)
            frame += 0.15 * np.std(frame) * rng.standard_normal(end - pos)
        else:
            kind = rng.random()
            if kind < 0.4:
                frame = 0.25 * rng.standard_normal(end - pos)  # fricative-ish
                frame *= np.linspace(1.0, 0.3, len(frame))
            else:
                frame = 0.02 * rng.standard_normal(end - pos)  # near-silence
        sig[pos:end] += frame
        pos = end
        voiced = not voiced

    peak = np.max(np.abs(sig))
    return 0.8 * sig / peak if peak > 0 else sig


def complex_normalization(p: ComplexParams, n_r=800, n_t=512) -> float:
    """Integral of the complex density over a truncated disc by polar
    Gauss-Legendre (radial) x trapezoid (angular) quadrature."""
    radius = abs(p.mu) + 12.0 * math.sqrt(p.sigma2) + 3.0
    xs, ws = np.polynomial.legendre.leggauss(n_r)
    r = 0.5 * radius * (xs + 1.0)
    wr = 0.5 * radius * ws
    th = np.linspace(-np.pi, np.pi, n_t, endpoint=False)
    wt = 2.0 * np.pi / n_t
    z = r[:, None] * np.exp(1j * th[None, :])
    log_dens = log_pdf_complex(z.ravel(), p).reshape(z.shape)
    return float(np.sum(np.exp(log_dens) * (r * wr)[:, None]) * wt)


# The golden report: `pwncg fit-spectra --seed 1` on GOLDEN_CLIP_S seconds
# of make_speech_like (seed 2024, 16 kHz), written to tests/golden/ by
# tests/golden/regenerate.py and compared by tests/test_golden.py.
GOLDEN_CLIP_S = 0.3
GOLDEN_ARGV = [
    "fit-spectra", "--input", "speech.wav", "--out", "report.json", "--csv", "report.csv",
    "--seed", "1",
]


def golden_outputs(workdir):
    """The report JSON without its per-patch records, as text, and the CSV,
    as bytes (csv ends its lines with CR LF), of a fit-spectra run in
    workdir on the golden clip; its file name is relative, so the outputs
    do not depend on workdir."""
    write_wav_pcm16(
        os.path.join(workdir, "speech.wav"), make_speech_like(GOLDEN_CLIP_S, 16000, 2024), 16000
    )
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(GOLDEN_ARGV)
        with open("report.json") as fh:
            report = json.load(fh)
        with open("report.csv", "rb") as fh:
            table = fh.read()
    finally:
        os.chdir(cwd)
    del report["patches"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n", table


# Batches of 40 powers, each the sum over dof of |m + z|^2 (z standard
# complex normal) times 2^k, whose fits take math.log of a value where
# numpy's log rounds differently in the last bit, and where that bit
# reaches the reported numbers: the exponential rate (seed 86), the gamma
# and proposed rates (249), the noncentral-gamma rate (711) and lam
# (7933), and the gamma shape that starts the shifted fits (1977). On the
# speech clip alone the two logs agree at every such step (they differ on
# about 1 in 4000 arguments); these pin that the fits keep math's log.
GOLDEN_BATCHES = ((86, -11), (249, 16), (711, 0), (7933, 0), (1977, 0))


def golden_batch(seed: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    m = 8.0 * rng.uniform(0.0, 1.0) ** 2
    dof = int(rng.integers(1, 9))
    z = m + rng.standard_normal((dof, 40)) + 1j * rng.standard_normal((dof, 40))
    return np.sum(np.abs(z) ** 2, axis=0) * 2.0**k


def golden_batch_fits() -> str:
    """Every field of the four models' fits of the golden batches, as JSON
    text (floats by repr, so any changed bit shows)."""
    fits = fit_batches(FIT_MODELS, [golden_batch(*b) for b in GOLDEN_BATCHES])
    out = {m: [dataclasses.asdict(f) for f in fits[m]] for m in FIT_MODELS}
    return json.dumps(out, indent=2, sort_keys=True) + "\n"


def draws_digest(draws, dtype) -> str:
    """The first 16 hex digits of the SHA-256 of draws as a contiguous
    array of dtype, the form in which the seeded-draw pins are kept."""
    return hashlib.sha256(np.ascontiguousarray(draws, dtype=dtype).tobytes()).hexdigest()[:16]


# The noncentral_batches corpus of perfbench: six 60-value sample_power
# batches at log-spaced lam in [10, 2000], alpha cycling over 0.5, 1 and 3,
# beta = 10 (alpha + lam), drawn from the stream of seed 0, with these
# draws. Batch 5's gamma fit has its shape on the ceiling of the box.
NONCENTRAL_BATCHES_DIGEST = "fab4b5afb1b0fd06"


def noncentral_batches() -> list[np.ndarray]:
    rng = rng_stream(0)
    batches = []
    for i, lam in enumerate(np.geomspace(10.0, 2000.0, 6)):
        alpha = (0.5, 1.0, 3.0)[i % 3]
        law = PowerParams(alpha, (alpha + lam) * 10.0, float(lam))
        batches.append(sample_power(law, rng, size=60))
    return batches


def noncentral_batch_stream(i: int) -> np.random.Generator:
    """The restart stream of corpus batch i: SeedSequence(0, (i,)), the
    one run_experiment gives patch i at seed 0. The workload fits the four
    models of a batch in turn through fit_model on this one stream."""
    return np.random.default_rng(np.random.SeedSequence(0, spawn_key=(i,)))


def numeric_environment() -> dict:
    """The numpy and scipy versions, and a SHA-256 of the elementary and
    special functions the fits call, on fixed probe vectors: numpy's exp,
    log, log1p and expm1, math's exp and log, and scipy's gammaln,
    digamma, i0e, i1e and ive; and of the (3, K) @ (K, 60) products by
    which the ascending I_nu series sums its terms, which BLAS computes.
    Where two machines agree on all of it, their reports agree byte for
    byte."""
    t = np.linspace(-40.0, 40.0, 4001)
    x = np.geomspace(1e-6, 1e4, 4001)
    nu = np.repeat([-0.5, 0.0, 0.7, 3.0, 40.0, 400.0], x.size // 6 + 1)[: x.size]
    u = np.geomspace(1e-3, 1.0, 60)
    powers = u ** np.arange(1.0, 65.0)[:, None]
    coef = np.cos(np.arange(3.0 * 64.0)).reshape(3, 64) * np.geomspace(1e3, 1e-30, 64)
    values = [
        np.exp(t), np.log(x), np.log1p(x), np.expm1(t),
        np.array([math.exp(v) for v in t.tolist()]),
        np.array([math.log(v) for v in x.tolist()]),
        gammaln(x), digamma(x), i0e(x), i1e(x), ive(nu, x),
        *(np.matmul(coef[:, :k], powers[:k]) for k in (4, 15, 30, 64)),
    ]
    digest = hashlib.sha256(b"".join(np.ascontiguousarray(v).tobytes() for v in values))
    return {"numpy": np.__version__, "scipy": scipy.__version__, "probe_sha256": digest.hexdigest()}
