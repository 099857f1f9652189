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
from .fitting import (
    FIT_MODELS,
    DEFAULT_OPTIMIZER,
    MODELS,
    FitResult,
    OptimizerConfig,
    fit_model,
    paired_t_test_one_sided,
)

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
    keeps its whole samples, also with a warning. PCM16 samples are scaled
    by 1/32768.
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
    whole = len(data) - len(data) % width
    if len(data) < data_size:
        warnings.append(
            f"'data' chunk declares {data_size} bytes but the file ends after "
            f"{len(data)}; kept {whole // width} whole samples"
        )
    elif whole < len(data):
        raise WavFormatError(
            f"{path}: 'data' chunk of {len(data)} bytes is not a whole number "
            f"of {width}-byte samples"
        )
    frames = np.frombuffer(data, dtype=dtype, count=whole // width)

    usable = (len(frames) // n_channels) * n_channels
    if usable == 0:
        raise WavFormatError(f"{path}: 'data' chunk holds no complete frames")
    frames = frames[:usable].reshape(-1, n_channels)
    if n_channels > 1:
        warnings.append(f"{n_channels} channels in input; kept channel 0")
    samples = frames[:, 0].astype(np.float64) * scale
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

    def to_json(self, indent: int | None = 2) -> str:
        body = {
            "config": self.config,
            "files": self.files,
            "models": self.models,
            "patches": self.patches,
            "tests": self.tests,
            "provenance": self.provenance,
        }
        return json.dumps(body, indent=indent, sort_keys=True)

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


def run_experiment(
    paths,
    stft: StftConfig = StftConfig(),
    models=FIT_MODELS,
    floor_eps: float = 1e-10,
    seed: int = 0,
    patch_freq: int = 3,
    patch_time: int = 20,
    optimizer: OptimizerConfig = DEFAULT_OPTIMIZER,
    fit_scope: str = "patch",
) -> ExperimentReport:
    """Fit the requested models over every patch of every readable file.

    Power values are floored at floor_eps times the file's mean power
    before fitting (log densities are undefined at zero power). The
    average metric per model is the mean over patches of the patch-total
    log-likelihood; paired one-sided t-tests compare the proposed model
    against each baseline on the per-patch vectors. Optimizer restarts
    draw from a stream seeded by (seed, patch index) so results do not
    depend on processing order.

    fit_scope='patch' fits one parameter set per patch; 'file' fits one
    parameter set per file on the pooled values and evaluates per-patch
    likelihoods at those shared parameters.
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
    if floor_eps <= 0.0:
        raise ValueError(f"floor_eps must be positive, got {floor_eps}")

    file_infos = []
    failures = []
    patch_records = []
    per_model_lls: dict[str, list[float]] = {m: [] for m in models}
    per_model_params: dict[str, dict[str, list[float]]] = {m: {} for m in models}
    degenerate_patches = 0
    floored_total = 0
    patch_index = 0

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

        file_fits = None
        if fit_scope == "file":
            pooled = np.maximum(
                np.concatenate([p.values.ravel() for p in patches]), floor
            )
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(patch_index,))
            )
            file_fits = {m: fit_model(m, pooled, optimizer, rng) for m in models}

        file_floored = 0
        for patch in patches:
            values = patch.values.ravel()
            floored = int(np.sum(values < floor))
            file_floored += floored
            values = np.maximum(values, floor)
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(patch_index,))
            )
            fits = {}
            any_degenerate = False
            for m in models:
                if fit_scope == "file":
                    ll = MODELS[m].log_likelihood(values, file_fits[m].params)
                    fit = replace(
                        file_fits[m], log_likelihood=ll, avg_log_likelihood=ll / values.size
                    )
                else:
                    fit = fit_model(m, values, optimizer, rng)
                fits[m] = fit
                per_model_lls[m].append(fit.log_likelihood)
                for k, v in fit.params.items():
                    per_model_params[m].setdefault(k, []).append(v)
                any_degenerate = any_degenerate or fit.degenerate
            degenerate_patches += int(any_degenerate)
            patch_records.append(
                {
                    "file": info["path"],
                    "f0": patch.f0,
                    "t0": patch.t0,
                    "floored": floored,
                    "fits": {m: _fit_record(f) for m, f in fits.items()},
                }
            )
            patch_index += 1

        info["floored_values"] = file_floored
        floored_total += file_floored
        file_infos.append(info)

    if not file_infos:
        detail = "; ".join(f"{f['path']}: {f['error']}" for f in failures)
        raise RuntimeError(f"all input files failed: {detail}")

    model_summaries = {}
    for m in models:
        lls = np.asarray(per_model_lls[m])
        summary = {
            "avg_ll": float(np.mean(lls)),
            "params_summary": {
                k: {
                    "mean": float(np.mean(v)),
                    "median": float(np.median(v)),
                }
                for k, v in sorted(per_model_params[m].items())
            },
        }
        model_summaries[m] = summary

    tests = {}
    if "proposed" in models:
        prop = np.asarray(per_model_lls["proposed"])
        for m in models:
            if m == "proposed" or len(per_model_lls[m]) < 2:
                continue
            tests[m] = paired_t_test_one_sided(prop, np.asarray(per_model_lls[m]))

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
        "degenerate_patches": degenerate_patches,
        "floored_values": floored_total,
    }
    return ExperimentReport(
        config=config,
        files=file_infos,
        models=model_summaries,
        patches=patch_records,
        tests=tests,
        provenance=provenance,
    )


def sweep_windows(paths, stft: StftConfig = StftConfig(), windows=WINDOWS, **kwargs):
    """Run the experiment once per window choice; returns {window: report}.

    The analysis settings the underlying corpus experiment left open
    (window above all) shift the absolute likelihood levels, so this sweep
    is the supported way to search for the closest configuration.
    """
    return {
        w: run_experiment(paths, replace(stft, window=w), **kwargs) for w in windows
    }
