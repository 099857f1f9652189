"""Harness tests: WAV decoding, STFT conventions, patch tiling, and the
end-to-end experiment report."""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_speech_like, write_wav_float32, write_wav_pcm16
from pwncg.distributions import PowerParams, log_pdf_power
from pwncg.fitting import FIT_MODELS, fit_model
from pwncg.spectral import (
    ExperimentReport,
    StftConfig,
    WavFormatError,
    load_wav,
    run_experiment,
    stft_power,
    sweep_windows,
    tile_patches,
)

SR = 16000


def riff(*chunks):
    """A RIFF/WAVE file from (chunk id, declared size, body) triples."""
    body = b"".join(cid + struct.pack("<I", size) + data for cid, size, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


PCM16_FMT = (b"fmt ", 16, struct.pack("<HHIIHH", 1, 1, SR, SR * 2, 2, 16))


class TestLoadWav:
    def test_zeros_roundtrip(self, tmp_path):
        path = tmp_path / "z.wav"
        write_wav_pcm16(path, np.zeros(SR), SR)
        wav = load_wav(path)
        assert wav.sample_rate_hz == SR
        assert wav.samples.shape == (SR,)
        assert np.all(wav.samples == 0.0)

    def test_sine_quantization(self, tmp_path):
        t = np.arange(SR) / SR
        sig = 0.5 * np.sin(2 * np.pi * 440.0 * t)
        path = tmp_path / "s.wav"
        write_wav_pcm16(path, sig, SR)
        wav = load_wav(path)
        assert np.max(np.abs(wav.samples - sig)) <= 2.0**-15

    def test_float32_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        sig = rng.uniform(-1.0, 1.0, 4000).astype(np.float32)
        path = tmp_path / "f.wav"
        write_wav_float32(path, sig, SR)
        wav = load_wav(path)
        np.testing.assert_array_equal(wav.samples, sig.astype(np.float64))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_float32_samples_name_file(self, tmp_path, value):
        sig = np.zeros(4000, dtype=np.float32)
        sig[[7, 900]] = value
        path = tmp_path / "bad.wav"
        write_wav_float32(path, sig, SR)
        with pytest.raises(WavFormatError, match=r"bad\.wav: 2 of 4000 samples are NaN or infinite"):
            load_wav(path)

    def test_stereo_takes_first_channel_with_warning(self, tmp_path):
        t = np.arange(2000) / SR
        sig = 0.3 * np.sin(2 * np.pi * 200.0 * t)
        path = tmp_path / "st.wav"
        write_wav_pcm16(path, sig, SR, channels=2)
        wav = load_wav(path)
        assert wav.warnings and "channel 0" in wav.warnings[0]
        assert np.max(np.abs(wav.samples - sig)) <= 2.0**-15

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.wav"
        path.write_bytes(b"")
        with pytest.raises(WavFormatError, match="empty"):
            load_wav(path)

    def test_not_riff(self, tmp_path):
        path = tmp_path / "n.wav"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(WavFormatError, match="RIFF/WAVE"):
            load_wav(path)

    def test_unsupported_format_names_chunk(self, tmp_path):
        import struct

        body = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SR, SR * 3, 3, 24)
        body += b"data" + struct.pack("<I", 6) + b"\x00" * 6
        path = tmp_path / "u.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(WavFormatError, match="fmt.*24 bits"):
            load_wav(path)

    def test_odd_pcm16_data_chunk_names_chunk(self, tmp_path):
        path = tmp_path / "odd.wav"
        path.write_bytes(riff(PCM16_FMT, (b"data", 201, b"\x01" * 201 + b"\x00")))
        with pytest.raises(WavFormatError, match="'data' chunk of 201 bytes"):
            load_wav(path)

    def test_data_chunk_past_eof_keeps_samples_with_warning(self, tmp_path):
        samples = np.arange(1, 101, dtype="<i2")
        path = tmp_path / "cut.wav"
        path.write_bytes(riff(PCM16_FMT, (b"data", 4000, samples.tobytes() + b"\x07")))
        wav = load_wav(path)
        np.testing.assert_array_equal(wav.samples, samples / 32768.0)
        assert len(wav.warnings) == 1 and "declares 4000 bytes" in wav.warnings[0]

    def test_wave_format_extensible(self, tmp_path):
        guid_tail = bytes.fromhex("000000001000800000aa00389b71")
        for code, bits, dtype, scale in ((1, 16, "<i2", 32768.0), (3, 32, "<f4", 1.0)):
            samples = np.array([1, -2, 3, 4096], dtype=dtype)
            block = bits // 8
            fmt = struct.pack("<HHIIHHHHI", 0xFFFE, 1, SR, SR * block, block, bits, 22, bits, 4)
            fmt += struct.pack("<H", code) + guid_tail
            path = tmp_path / f"ext{bits}.wav"
            path.write_bytes(riff((b"fmt ", 40, fmt), (b"data", 4 * block, samples.tobytes())))
            wav = load_wav(path)
            assert wav.sample_rate_hz == SR and wav.warnings == ()
            np.testing.assert_array_equal(wav.samples, samples / scale)

    def test_data_chunk_of_partial_frame_names_chunk(self, tmp_path):
        fmt = (b"fmt ", 16, struct.pack("<HHIIHH", 1, 2, SR, SR * 4, 4, 16))
        path = tmp_path / "partial.wav"
        path.write_bytes(riff(fmt, (b"data", 10, np.arange(5, dtype="<i2").tobytes())))
        with pytest.raises(WavFormatError, match="'data' chunk of 10 bytes.*2-channel frames"):
            load_wav(path)

    def test_stereo_chunk_past_eof_keeps_whole_frames(self, tmp_path):
        fmt = (b"fmt ", 16, struct.pack("<HHIIHH", 1, 2, SR, SR * 4, 4, 16))
        path = tmp_path / "cut2.wav"
        path.write_bytes(riff(fmt, (b"data", 400, np.arange(1, 6, dtype="<i2").tobytes())))
        wav = load_wav(path)
        np.testing.assert_array_equal(wav.samples, np.array([1, 3]) / 32768.0)
        assert "declares 400 bytes" in wav.warnings[0] and "kept 2 whole frames" in wav.warnings[0]
        assert "kept channel 0" in wav.warnings[1]

    def test_missing_data_chunk(self, tmp_path):
        import struct

        body = b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, SR, SR * 2, 2, 16)
        path = tmp_path / "m.wav"
        path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)
        with pytest.raises(WavFormatError, match="data"):
            load_wav(path)


class TestStftPower:
    def test_zero_signal(self):
        cfg = StftConfig(sample_rate_hz=SR)
        spec = stft_power(np.zeros(SR), cfg)
        assert spec.n_bins == 129
        assert spec.n_frames == (SR - 256) // 64 + 1
        assert np.all(spec.values == 0.0)

    def test_default_frame_and_hop(self):
        cfg = StftConfig(sample_rate_hz=SR)
        assert cfg.frame_length() == 256
        assert cfg.hop_length() == 64

    def test_bin_centered_sine_concentrates_energy(self):
        # frequency exactly on bin 32 of a 256-point frame, rect window
        k = 32
        f = k * SR / 256
        t = np.arange(SR) / SR
        sig = np.sin(2 * np.pi * f * t)
        spec = stft_power(sig, StftConfig(window="rect", sample_rate_hz=SR))
        frame0 = spec.values[:, 0]
        assert frame0[k] >= 0.99 * frame0.sum()

    def test_parseval_per_frame_rect(self):
        rng = np.random.default_rng(1)
        sig = rng.standard_normal(1000)
        spec = stft_power(sig, StftConfig(window="rect", sample_rate_hz=SR))
        frame = sig[:256]
        weights = np.full(129, 2.0)
        weights[0] = weights[-1] = 1.0  # DC and Nyquist appear once
        lhs = float(np.sum(weights * spec.values[:, 0])) / 256.0
        rhs = float(np.sum(frame**2))
        assert math.isclose(lhs, rhs, rel_tol=1e-8)

    def test_window_choices_differ(self):
        rng = np.random.default_rng(2)
        sig = rng.standard_normal(2000)
        out = {}
        for w in ("hann", "hamming", "rect"):
            out[w] = stft_power(sig, StftConfig(window=w, sample_rate_hz=SR)).values
        assert not np.allclose(out["hann"], out["rect"])
        assert not np.allclose(out["hann"], out["hamming"])

    def test_too_short_signal(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            stft_power(np.zeros(100), StftConfig(sample_rate_hz=SR))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StftConfig(hop_ms=20.0, frame_ms=16.0)
        with pytest.raises(ValueError):
            StftConfig(window="kaiser")


class TestTilePatches:
    def _spec(self, n_bins, n_frames):
        vals = np.arange(n_bins * n_frames, dtype=float).reshape(n_bins, n_frames)
        from pwncg.spectral import PowerSpectrogram

        return PowerSpectrogram(values=vals)

    def test_counts(self):
        patches = tile_patches(self._spec(129, 200), 3, 20)
        assert len(patches) == 43 * 10

    def test_exact_fit(self):
        patches = tile_patches(self._spec(3, 20), 3, 20)
        assert len(patches) == 1
        assert patches[0].values.shape == (3, 20)

    def test_remainder_discarded(self):
        patches = tile_patches(self._spec(4, 21), 3, 20)
        assert len(patches) == 1
        assert patches[0].f0 == 0 and patches[0].t0 == 0

    def test_disjoint_cover(self):
        spec = self._spec(6, 40)
        patches = tile_patches(spec, 3, 20)
        seen = np.zeros((6, 40), dtype=int)
        for p in patches:
            seen[p.f0 : p.f0 + 3, p.t0 : p.t0 + 20] += 1
        assert np.all(seen == 1)

    def test_too_small(self):
        with pytest.raises(ValueError, match="smaller than one"):
            tile_patches(self._spec(2, 30), 3, 20)


@pytest.fixture(scope="module")
def noise_wav(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "noise.wav"
    rng = np.random.default_rng(3)
    write_wav_pcm16(path, 0.4 * rng.standard_normal(int(0.35 * SR)), SR)
    return str(path)


class TestRunExperiment:
    def test_report_structure_and_additivity(self, noise_wav):
        rep = run_experiment([noise_wav], models=("exponential", "gamma"), seed=5)
        body = json.loads(rep.to_json())
        assert set(body) == {"config", "files", "models", "patches", "tests", "provenance"}
        assert body["files"][0]["n_patches"] == len(body["patches"])

        # per-patch log-likelihood must be recomputable from the recorded
        # parameters and the floored patch values
        from pwncg.spectral import StftConfig as SC, load_wav as lw, tile_patches as tp

        wav = lw(noise_wav)
        spec = stft_power(wav.samples, SC(sample_rate_hz=wav.sample_rate_hz))
        floor = body["config"]["floor_eps"] * float(np.mean(spec.values))
        patches = tp(spec, 3, 20)
        for rec, patch in zip(body["patches"], patches):
            vals = np.maximum(patch.values.ravel(), floor)
            fit = rec["fits"]["gamma"]
            from pwncg.distributions import log_pdf_gamma

            ll = float(np.sum(log_pdf_gamma(vals, fit["params"]["alpha"], fit["params"]["beta"])))
            assert abs(ll - fit["ll"]) <= 1e-9 * max(1.0, abs(fit["ll"]))

    def test_deterministic_reports(self, noise_wav):
        kw = dict(models=("exponential", "gamma", "proposed"), seed=9)
        a = run_experiment([noise_wav], **kw).to_json()
        b = run_experiment([noise_wav], **kw).to_json()
        assert a == b

    def test_remainder_counts_recorded(self, noise_wav):
        rep = run_experiment([noise_wav], models=("exponential",), seed=1)
        info = rep.files[0]
        assert info["discarded_bins"] == info["n_bins"] % 3
        assert info["discarded_frames"] == info["n_frames"] % 20

    def test_white_noise_shape_estimate_near_one(self, tmp_path):
        # white Gaussian noise has complex-Gaussian spectra, so the fitted
        # shape should sit near one across patches
        path = tmp_path / "wn.wav"
        rng = np.random.default_rng(12)
        write_wav_pcm16(path, 0.4 * rng.standard_normal(SR), SR)
        rep = run_experiment([str(path)], models=("proposed",), seed=4)
        alphas = [p["fits"]["proposed"]["params"]["alpha"] for p in rep.patches]
        assert 0.85 <= float(np.median(alphas)) <= 1.15

    def test_avg_is_mean_of_patch_totals(self, noise_wav):
        rep = run_experiment([noise_wav], models=("gamma",), seed=1)
        lls = [p["fits"]["gamma"]["ll"] for p in rep.patches]
        assert math.isclose(rep.models["gamma"]["avg_ll"], float(np.mean(lls)), rel_tol=1e-12)

    def test_proposed_tests_present_and_ordered(self, noise_wav):
        rep = run_experiment(
            [noise_wav], models=("exponential", "gamma", "proposed"), seed=2
        )
        assert set(rep.tests) == {"exponential", "gamma"}
        assert 0.0 <= rep.tests["exponential"] <= 1.0
        assert rep.models["exponential"]["avg_ll"] <= rep.models["gamma"]["avg_ll"] + 1e-6
        assert rep.models["gamma"]["avg_ll"] <= rep.models["proposed"]["avg_ll"] + 1e-6

    def test_csv_rows(self, noise_wav):
        rep = run_experiment([noise_wav], models=("exponential", "gamma"), seed=1)
        rows = list(rep.csv_rows())
        assert rows[0][0] == "file"
        assert len(rows) == 1 + 2 * len(rep.patches)

    def test_failed_file_recorded(self, noise_wav, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        rep = run_experiment([str(bad), noise_wav], models=("exponential",), seed=1)
        assert len(rep.provenance["failed_files"]) == 1
        assert len(rep.files) == 1

    def test_non_finite_file_recorded_and_others_fitted(self, noise_wav, tmp_path):
        sig = np.zeros(int(0.35 * SR), dtype=np.float32)
        sig[100] = np.nan
        bad = tmp_path / "nan.wav"
        write_wav_float32(bad, sig, SR)
        rep = run_experiment([str(bad), noise_wav], models=("exponential",), seed=1)
        assert [f["path"] for f in rep.files] == [noise_wav]
        (failure,) = rep.provenance["failed_files"]
        assert failure["path"] == str(bad)
        assert "1 of 5600 samples are NaN or infinite" in failure["error"]

    def test_all_files_failing_raises(self, tmp_path):
        bad = tmp_path / "bad.wav"
        bad.write_bytes(b"not audio")
        with pytest.raises(RuntimeError, match="all input files failed"):
            run_experiment([str(bad)], models=("exponential",))

    def test_silence_floored_not_crashing(self, tmp_path):
        # leading silence produces all-floored patches; they must be fitted
        # (flagged degenerate), not crash the run
        path = tmp_path / "sil.wav"
        sig = np.zeros(int(0.3 * SR))
        sig[2500:] = 0.4 * np.random.default_rng(4).standard_normal(len(sig) - 2500)
        write_wav_pcm16(path, sig, SR)
        rep = run_experiment([str(path)], models=("exponential", "gamma"), seed=3)
        assert rep.provenance["floored_values"] > 0
        assert rep.provenance["degenerate_patches"] > 0

    def test_fit_counters_add_up(self, tmp_path):
        # leading silence gives degenerate patches; the counters of every
        # model sum the per-patch flags and the fits' own counts
        path = tmp_path / "sil.wav"
        sig = np.zeros(int(0.06 * SR))
        sig[700:] = 0.4 * np.random.default_rng(4).standard_normal(len(sig) - 700)
        write_wav_pcm16(path, sig, SR)
        stft = StftConfig(frame_ms=2.0, hop_ms=1.0)
        rep = run_experiment([str(path)], stft, seed=3)
        counters = rep.provenance["fit_counters"]
        assert json.loads(rep.to_json())["provenance"]["fit_counters"] == counters
        assert list(counters) == list(FIT_MODELS)
        assert counters["gamma"]["degenerate"] > 0
        spec = stft_power(load_wav(path).samples, replace(stft, sample_rate_hz=SR))
        floor = rep.config["floor_eps"] * float(np.mean(spec.values))
        fits = {m: [] for m in FIT_MODELS}
        for i, patch in enumerate(tile_patches(spec)):
            stream = np.random.default_rng(np.random.SeedSequence(entropy=3, spawn_key=(i,)))
            values = np.maximum(patch.values.ravel(), floor)
            for m in FIT_MODELS:
                fits[m].append(fit_model(m, values, rng=stream))
        for m, c in counters.items():
            records = [p["fits"][m] for p in rep.patches]
            assert c["fits"] == len(records) == len(fits[m])
            assert c["not_converged"] == sum(not r["converged"] for r in records)
            assert c["degenerate"] == sum(r["degenerate"] for r in records)
            assert c["objective_evaluations"] == sum(f.evaluations for f in fits[m])
            assert c["penalty_evaluations"] == sum(f.penalties for f in fits[m])
            assert c["iterations"] == sum(f.iterations for f in fits[m])
            starts = [f.start for f in fits[m] if f.start is not None]
            assert c["winning_start"] == [starts.count(k) for k in range(len(c["winning_start"]))]
            assert sum(c["winning_start"]) == (0 if m == "exponential" else len(records))

    def test_floor_monotonicity(self, tmp_path):
        # raising the floor leaves patches without floored samples untouched
        path = tmp_path / "mix.wav"
        rng = np.random.default_rng(5)
        sig = np.concatenate([np.zeros(2000), 0.4 * rng.standard_normal(4000)])
        write_wav_pcm16(path, sig, SR)
        lo = run_experiment([str(path)], models=("gamma",), floor_eps=1e-10, seed=1)
        hi = run_experiment([str(path)], models=("gamma",), floor_eps=1e-6, seed=1)
        for a, b in zip(lo.patches, hi.patches):
            if a["floored"] == 0 and b["floored"] == 0:
                assert a["fits"]["gamma"]["ll"] == b["fits"]["gamma"]["ll"]

    def test_file_scope_shares_parameters(self, noise_wav):
        rep = run_experiment([noise_wav], models=("gamma",), seed=1, fit_scope="file")
        params = {tuple(p["fits"]["gamma"]["params"].items()) for p in rep.patches}
        assert len(params) == 1

    def test_patch_fits_share_one_restart_stream_per_patch(self, tmp_path):
        # patch i counts across files; its models draw in model order from
        # the stream seeded by (seed, i)
        stft = StftConfig(frame_ms=2.0, hop_ms=1.0)
        rng = np.random.default_rng(8)
        paths = []
        for k in range(2):
            paths.append(str(tmp_path / f"n{k}.wav"))
            write_wav_pcm16(paths[-1], 0.4 * rng.standard_normal(int(0.03 * SR)), SR)
        models = ("gamma", "noncentral_gamma")
        rep = run_experiment(paths, stft, models=models, seed=6)
        i = 0
        for path in paths:
            spec = stft_power(load_wav(path).samples, StftConfig(2.0, 1.0, sample_rate_hz=SR))
            floor = rep.config["floor_eps"] * float(np.mean(spec.values))
            for patch in tile_patches(spec):
                values = np.maximum(patch.values.ravel(), floor)
                stream = np.random.default_rng(np.random.SeedSequence(entropy=6, spawn_key=(i,)))
                for m in models:
                    fit = fit_model(m, values, rng=stream)
                    rec = rep.patches[i]["fits"][m]
                    assert (rec["ll"], rec["params"]) == (fit.log_likelihood, fit.params)
                    assert (rec["converged"], rec["degenerate"]) == (fit.converged, fit.degenerate)
                i += 1
        assert i == len(rep.patches) == 10

    def test_unknown_model_rejected(self, noise_wav):
        with pytest.raises(ValueError, match="unknown model"):
            run_experiment([noise_wav], models=("weibull",))

    @pytest.mark.parametrize("floor_eps", [math.nan, math.inf, 0.0])
    def test_floor_eps_must_be_positive_and_finite(self, noise_wav, floor_eps):
        with pytest.raises(ValueError, match="floor_eps must be positive and finite"):
            run_experiment([noise_wav], models=("exponential",), floor_eps=floor_eps)


class TestSweepWindows:
    def test_runs_each_window(self, tmp_path):
        path = tmp_path / "n.wav"
        rng = np.random.default_rng(6)
        write_wav_pcm16(path, 0.4 * rng.standard_normal(int(0.25 * SR)), SR)
        reports = sweep_windows([str(path)], models=("exponential",), seed=1)
        assert set(reports) == {"hann", "hamming", "rect"}
        for w, rep in reports.items():
            assert rep.config["window"] == w
