"""Input synthesis for the speech_patches workload.

A frozen copy of ``make_speech_like`` and ``write_wav_pcm16`` from
``tests/helpers.py``, the synthesis behind acceptance criterion 6a. The
benchmark keeps its own copy so that a later change to the test helpers
cannot silently change the benchmark's input between two commits.
"""

from __future__ import annotations

import struct

import numpy as np


def write_wav_pcm16(path, samples, sample_rate: int) -> None:
    """Mono RIFF/WAVE file with 16-bit PCM samples (clipped to [-1, 1])."""
    x = np.clip(np.asarray(samples, dtype=float), -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE")
        fh.write(
            b"fmt "
            + struct.pack("<IHHIIHH", 16, 1, 1, sample_rate, sample_rate * 2, 2, 16)
        )
        fh.write(b"data" + struct.pack("<I", len(pcm)) + pcm)


def make_speech_like(duration_s: float, sample_rate: int, seed: int) -> np.ndarray:
    """Voiced harmonic stretches with vibrato, pitch jitter, syllable-rate
    amplitude modulation and shimmer, alternating every 0.16 s with
    fricative-like noise bursts or near-silence; peak-normalized to 0.8."""
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
            if rng.random() < 0.4:
                frame = 0.25 * rng.standard_normal(end - pos)
                frame *= np.linspace(1.0, 0.3, len(frame))
            else:
                frame = 0.02 * rng.standard_normal(end - pos)
        sig[pos:end] += frame
        pos = end
        voiced = not voiced

    peak = np.max(np.abs(sig))
    return 0.8 * sig / peak if peak > 0 else sig
