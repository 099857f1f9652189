"""End-to-end speech power-spectrum fitting harness.

Pipeline: read a WAV file, compute the one-sided STFT power spectrogram,
tile it into disjoint frequency-by-time patches, floor near-zero powers,
fit each candidate power model per patch, and aggregate per-model average
log-likelihoods with paired one-sided t-tests of the proposed model
against each baseline. Reports serialize to JSON (full) and CSV (flat
per-patch rows); both are deterministic for fixed inputs, config, and
seed.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .fitting import (  # noqa: F401  (fit_model: see below)
    FIT_MODELS,
    MODELS,
    FitResult,
    fit_batches,
    fit_model,
    paired_t_test_one_sided,
)

# run_experiment fits through fit_batches. fit_model stays bound here
# because perfbench/tracing.py traces this binding.

__all__ = [
    "WavFormatError",
    "StftConfig",
    "LoadedWav",
    "PowerSpectrogram",
    "Patch",
    "ExperimentReport",
    "load_wav",
    "stft_power",
    "tile_patches",
    "run_experiment",
    "sweep_windows",
]

WINDOWS = ("hann", "hamming", "rect")


class WavFormatError(ValueError):
    """Raised for WAV content outside the supported RIFF/PCM16/float32 subset."""


# WAVE_FORMAT_EXTENSIBLE (format tag 0xFFFE) names its format by a subformat
# GUID whose first two bytes are the plain format code; the rest of a
# standard GUID is this.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


@dataclass(frozen=True)
class StftConfig:
    """Analysis configuration. sample_rate_hz is bound from the file at
    analysis time; frame and hop lengths derive from it by rounding the
    millisecond settings."""

    frame_ms: float = 16.0
    hop_ms: float = 4.0
    window: str = "hann"
    sample_rate_hz: int | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.frame_ms) and self.frame_ms > 0.0):
            raise ValueError(f"frame_ms must be positive, got {self.frame_ms}")
        if not (math.isfinite(self.hop_ms) and self.hop_ms > 0.0):
            raise ValueError(f"hop_ms must be positive, got {self.hop_ms}")
        if self.hop_ms > self.frame_ms:
            raise ValueError("hop_ms must not exceed frame_ms")
        if self.window not in WINDOWS:
            raise ValueError(f"window must be one of {WINDOWS}, got {self.window!r}")
        if self.sample_rate_hz is not None and self.sample_rate_hz < 1:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")

    def frame_length(self) -> int:
        if self.sample_rate_hz is None:
            raise ValueError("sample_rate_hz is not bound")
        n = round(self.frame_ms * self.sample_rate_hz / 1000.0)
        if n < 2:
            raise ValueError(f"frame length {n} samples is too short")
        return n

    def hop_length(self) -> int:
        if self.sample_rate_hz is None:
            raise ValueError("sample_rate_hz is not bound")
        return max(1, round(self.hop_ms * self.sample_rate_hz / 1000.0))


@dataclass(frozen=True)
class LoadedWav:
    """Decoded audio: float64 samples normalized to [-1, 1], the file's
    sample rate, and any decode warnings (e.g. extra channels dropped)."""

    samples: np.ndarray
    sample_rate_hz: int
    path: str
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class PowerSpectrogram:
    """One-sided |STFT|^2 grid indexed (frequency bin, time frame)."""

    values: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.values.shape[0]

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Patch:
    """A disjoint tile of the spectrogram: pf consecutive bins starting at
    f0 by pt consecutive frames starting at t0."""

    f0: int
    t0: int
    values: np.ndarray


def load_wav(path) -> LoadedWav:
    """Minimal RIFF/WAVE reader for PCM 16-bit and IEEE float32 content,
    plain or WAVE_FORMAT_EXTENSIBLE.

    Multichannel files keep the first channel only (bit-exact extraction,
    recorded as a warning). A 'data' chunk cut short by the end of the file
    keeps its whole frames, also with a warning; a complete one must hold a
    whole number of frames. PCM16 samples are scaled by 1/32768; a float32
    NaN or infinity in the kept channel is an error.
    """
    path = str(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) == 0:
        raise WavFormatError(f"{path}: empty file")
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavFormatError(f"{path}: missing RIFF/WAVE header")

    fmt = None
    data = None
    warnings: list[str] = []
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise WavFormatError(f"{path}: truncated 'fmt ' chunk")
            fmt = body
        elif chunk_id == b"data":
            data, data_size = body, chunk_size
        pos += 8 + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise WavFormatError(f"{path}: no 'fmt ' chunk")
    if data is None:
        raise WavFormatError(f"{path}: no 'data' chunk")
    audio_format, n_channels, sample_rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt, 0)
    if audio_format == 0xFFFE and fmt[26:40] == _SUBFORMAT_GUID_TAIL:
        (audio_format,) = struct.unpack_from("<H", fmt, 24)
    if n_channels < 1:
        raise WavFormatError(f"{path}: 'fmt ' chunk declares zero channels")

    if audio_format == 1 and bits == 16:
        dtype, scale = "<i2", 1.0 / 32768.0
    elif audio_format == 3 and bits == 32:
        dtype, scale = "<f4", 1.0
    else:
        raise WavFormatError(
            f"{path}: unsupported 'fmt ' chunk (audio format {audio_format}, "
            f"{bits} bits); only PCM16 and float32 are supported"
        )
    width = bits // 8
    frame_bytes = width * n_channels
    whole = len(data) - len(data) % frame_bytes
    if len(data) < data_size:
        warnings.append(
            f"'data' chunk declares {data_size} bytes but the file ends after "
            f"{len(data)}; kept {whole // frame_bytes} whole frames"
        )
    elif whole < len(data):
        unit = f"{width}-byte samples" if len(data) % width else f"{n_channels}-channel frames"
        raise WavFormatError(
            f"{path}: 'data' chunk of {len(data)} bytes is not a whole number of {unit}"
        )
    if whole == 0:
        raise WavFormatError(f"{path}: 'data' chunk holds no complete frames")
    frames = np.frombuffer(data, dtype=dtype, count=whole // width).reshape(-1, n_channels)
    if n_channels > 1:
        warnings.append(f"{n_channels} channels in input; kept channel 0")
    samples = frames[:, 0].astype(np.float64) * scale
    bad = int(np.count_nonzero(~np.isfinite(samples)))
    if bad:
        raise WavFormatError(f"{path}: {bad} of {samples.size} samples are NaN or infinite")
    return LoadedWav(
        samples=samples,
        sample_rate_hz=int(sample_rate),
        path=path,
        warnings=tuple(warnings),
    )


def _window_values(name: str, length: int) -> np.ndarray:
    # Periodic (DFT-even) windows, the streaming STFT convention.
    n = np.arange(length)
    if name == "hann":
        return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / length)
    if name == "hamming":
        return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / length)
    if name == "rect":
        return np.ones(length)
    raise ValueError(f"unknown window {name!r}")


def stft_power(signal, cfg: StftConfig) -> PowerSpectrogram:
    """One-sided power spectrogram |STFT|^2.

    FFT length equals the frame length (no zero padding); the frame count
    is floor((len - frame) / hop) + 1 and trailing samples are dropped.
    """
    sig = np.asarray(signal, dtype=float).ravel()
    frame = cfg.frame_length()
    hop = cfg.hop_length()
    if sig.size < frame:
        raise ValueError(
            f"signal of {sig.size} samples is shorter than one frame ({frame})"
        )
    n_frames = (sig.size - frame) // hop + 1
    idx = np.arange(frame)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = sig[idx] * _window_values(cfg.window, frame)[None, :]
    spec = np.fft.rfft(frames, axis=1)
    power = (spec.real**2 + spec.imag**2).T
    return PowerSpectrogram(values=power)


def tile_patches(spec: PowerSpectrogram, pf: int = 3, pt: int = 20) -> list[Patch]:
    """Disjoint pf-by-pt tiles anchored at bin 0 / frame 0; trailing
    remainder bins and frames are discarded."""
    if pf < 1 or pt < 1:
        raise ValueError("patch dimensions must be positive")
    if spec.n_bins < pf or spec.n_frames < pt:
        raise ValueError(
            f"spectrogram {spec.n_bins}x{spec.n_frames} is smaller than one "
            f"{pf}x{pt} patch"
        )
    patches = []
    for f0 in range(0, spec.n_bins - pf + 1, pf):
        for t0 in range(0, spec.n_frames - pt + 1, pt):
            patches.append(
                Patch(f0=f0, t0=t0, values=spec.values[f0 : f0 + pf, t0 : t0 + pt])
            )
    return patches


@dataclass
class ExperimentReport:
    """Aggregated fitting results with enough provenance to recompute any
    reported likelihood from the recorded parameters."""

    config: dict
    files: list[dict]
    models: dict[str, dict]
    patches: list[dict]
    tests: dict[str, float]
    provenance: dict

    def to_json(self) -> str:
        body = {
            "config": self.config,
            "files": self.files,
            "models": self.models,
            "patches": self.patches,
            "tests": self.tests,
            "provenance": self.provenance,
        }
        return json.dumps(body, indent=2, sort_keys=True)

    def csv_rows(self):
        """Flat per-patch rows: one line per (patch, model), with one column
        per parameter name of the model table, in order of first use."""
        param_names = list(dict.fromkeys(k for m in MODELS.values() for k in m.params))
        yield [
            "file",
            "f0",
            "t0",
            "floored",
            "model",
            "ll",
            "avg_ll",
            "converged",
            "degenerate",
            *param_names,
        ]
        for rec in self.patches:
            for model, fit in rec["fits"].items():
                yield [
                    rec["file"],
                    rec["f0"],
                    rec["t0"],
                    rec["floored"],
                    model,
                    fit["ll"],
                    fit["avg_ll"],
                    fit["converged"],
                    fit["degenerate"],
                    *(fit["params"].get(k, "") for k in param_names),
                ]


def _fit_record(fit: FitResult) -> dict:
    return {
        "ll": fit.log_likelihood,
        "avg_ll": fit.avg_log_likelihood,
        "params": dict(fit.params),
        "converged": fit.converged,
        "degenerate": fit.degenerate,
    }


def _analyze_file(path, cfg: StftConfig, pf: int, pt: int):
    wav = load_wav(path)
    bound = replace(cfg, sample_rate_hz=wav.sample_rate_hz)
    spec = stft_power(wav.samples, bound)
    patches = tile_patches(spec, pf, pt)
    info = {
        "path": wav.path,
        "sample_rate_hz": wav.sample_rate_hz,
        "n_samples": int(wav.samples.size),
        "n_bins": spec.n_bins,
        "n_frames": spec.n_frames,
        "n_patches": len(patches),
        "discarded_bins": spec.n_bins % pf,
        "discarded_frames": spec.n_frames % pt,
        "warnings": list(wav.warnings),
    }
    return spec, patches, info


def _fit_models(models, batches, rngs) -> dict[str, list[FitResult]]:
    """Fit each model, in order, to every batch in one pass, drawing batch
    i's restarts from rngs[i]. Once the gamma model is fitted, the later
    noncentral-gamma and proposed fits start from those fits instead of
    fitting the gamma again."""
    fits: dict[str, list[FitResult]] = {}
    for m in models:
        fits[m] = fit_batches(m, batches, rngs, fits.get("gamma"))
    return fits


def _fit_counters(fits: list[FitResult]) -> dict:
    """Deterministic diagnostics of one model's fits: counts of fits, of
    fits not converged and degenerate, the objective evaluations that
    returned the penalty value and all of them, L-BFGS-B iterations, and
    how often each start index was the reported one."""
    wins = [0] * (1 + max((f.start for f in fits if f.start is not None), default=-1))
    for f in fits:
        if f.start is not None:
            wins[f.start] += 1
    return {
        "fits": len(fits),
        "not_converged": sum(not f.converged for f in fits),
        "degenerate": sum(f.degenerate for f in fits),
        "penalty_evaluations": sum(f.penalties for f in fits),
        "objective_evaluations": sum(f.evaluations for f in fits),
        "iterations": sum(f.iterations for f in fits),
        "winning_start": wins,
    }


def run_experiment(
    paths,
    stft: StftConfig = StftConfig(),
    models=FIT_MODELS,
    floor_eps: float = 1e-10,
    seed: int = 0,
    patch_freq: int = 3,
    patch_time: int = 20,
    fit_scope: str = "patch",
) -> ExperimentReport:
    """Fit the requested models over every patch of every readable file.

    Power values are floored at floor_eps times the file's mean power
    before fitting (log densities are undefined at zero power). The
    average metric per model is the mean over patches of the patch-total
    log-likelihood; paired one-sided t-tests compare the proposed model
    against each baseline on the per-patch vectors. The models of a patch
    draw their optimizer restarts, in model order, from one stream seeded
    by (seed, patch index), so results do not depend on processing order.

    fit_scope='patch' fits one parameter set per patch; 'file' fits one
    parameter set per file on the pooled values and evaluates per-patch
    likelihoods at those shared parameters. With 'patch', each model is
    fitted to all of a file's patches in one pass of the lock-step
    L-BFGS-B driver (fitting.fit_batches), with every start of every patch
    as one row. A row's search never depends on the other rows, so each
    fit equals fit_model on its patch alone with the patch's stream.

    provenance["fit_counters"] holds, per model, the deterministic counts
    of _fit_counters over the fits made (one per patch, or one per file).
    """
    paths = [str(p) for p in paths]
    if not paths:
        raise ValueError("no input files given")
    models = tuple(models)
    for m in models:
        if m not in FIT_MODELS:
            raise ValueError(f"unknown model {m!r}; expected subset of {FIT_MODELS}")
    if fit_scope not in ("patch", "file"):
        raise ValueError(f"fit_scope must be 'patch' or 'file', got {fit_scope!r}")
    if not (math.isfinite(floor_eps) and floor_eps > 0.0):
        raise ValueError(f"floor_eps must be positive and finite, got {floor_eps}")

    file_infos = []
    failures = []
    patch_records = []
    patch_fits: list[dict[str, FitResult]] = []  # parallel to patch_records
    made: dict[str, list[FitResult]] = {m: [] for m in models}  # every fit made

    for path in paths:
        try:
            spec, patches, info = _analyze_file(path, stft, patch_freq, patch_time)
        except (OSError, ValueError) as exc:
            failures.append({"path": str(path), "error": str(exc)})
            continue

        floor = floor_eps * float(np.mean(spec.values))
        if floor <= 0.0:
            failures.append({"path": str(path), "error": "all-zero spectrogram"})
            continue

        first = len(patch_records)
        rngs = [
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(first + i,)))
            for i in range(len(patches))
        ]
        raw = [patch.values.ravel() for patch in patches]
        values = [np.maximum(v, floor) for v in raw]
        # One fit per patch, or one per file with its first patch's stream.
        batches = values if fit_scope == "patch" else [np.concatenate(values)]
        fitted = _fit_models(models, batches, rngs[: len(batches)])
        for m in models:
            made[m] += fitted[m]
        for i, patch in enumerate(patches):
            if fit_scope == "patch":
                fits = {m: fitted[m][i] for m in models}
            else:
                fits = {}
                for m, (fit,) in fitted.items():
                    ll = MODELS[m].log_likelihood(values[i], fit.params)
                    fits[m] = replace(fit, log_likelihood=ll, avg_log_likelihood=ll / values[i].size)
            patch_fits.append(fits)
            patch_records.append(
                {
                    "file": info["path"],
                    "f0": patch.f0,
                    "t0": patch.t0,
                    "floored": int(np.sum(raw[i] < floor)),
                    "fits": {m: _fit_record(f) for m, f in fits.items()},
                }
            )
        info["floored_values"] = sum(rec["floored"] for rec in patch_records[first:])
        file_infos.append(info)

    if not file_infos:
        detail = "; ".join(f"{f['path']}: {f['error']}" for f in failures)
        raise RuntimeError(f"all input files failed: {detail}")

    lls = {m: np.array([fits[m].log_likelihood for fits in patch_fits]) for m in models}
    model_summaries = {}
    for m in models:
        params = {k: [fits[m].params[k] for fits in patch_fits] for k in sorted(MODELS[m].params)}
        model_summaries[m] = {
            "avg_ll": float(np.mean(lls[m])),
            "params_summary": {
                k: {"mean": float(np.mean(v)), "median": float(np.median(v))}
                for k, v in params.items()
            },
        }

    tests = {}
    if "proposed" in models:
        for m in models:
            if m == "proposed" or len(lls[m]) < 2:
                continue
            tests[m] = paired_t_test_one_sided(lls["proposed"], lls[m])

    config = {
        "frame_ms": stft.frame_ms,
        "hop_ms": stft.hop_ms,
        "window": stft.window,
        "patch_freq": patch_freq,
        "patch_time": patch_time,
        "floor_eps": floor_eps,
        "models": list(models),
        "seed": seed,
        "fit_scope": fit_scope,
        "avg_mode": "patch_total",
    }
    provenance = {
        "library_version": __version__,
        "seed": seed,
        "failed_files": failures,
        "degenerate_patches": sum(
            any(f.degenerate for f in fits.values()) for fits in patch_fits
        ),
        "floored_values": sum(info["floored_values"] for info in file_infos),
        "fit_counters": {m: _fit_counters(made[m]) for m in models},
    }
    return ExperimentReport(
        config=config,
        files=file_infos,
        models=model_summaries,
        patches=patch_records,
        tests=tests,
        provenance=provenance,
    )


def sweep_windows(paths, stft: StftConfig = StftConfig(), **kwargs):
    """Run the experiment once per window of WINDOWS; returns {window: report}.

    The analysis settings the underlying corpus experiment left open
    (window above all) shift the absolute likelihood levels, so this sweep
    is the supported way to search for the closest configuration.
    """
    return {
        w: run_experiment(paths, replace(stft, window=w), **kwargs) for w in WINDOWS
    }
