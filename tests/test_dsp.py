"""DSP front end: WAV decoding, resampling, STFT, mel filterbank, patching."""

import tracemalloc

import numpy as np
import pytest

from meltag import dsp
from meltag.dsp import DspConfig, MelSpectrogram, Waveform
from meltag.errors import (
    AudioTooShortError,
    ConfigInvalidError,
    CorruptHeaderError,
    DegenerateBandError,
    EmptyAudioError,
    NumericFaultError,
    UnsupportedFormatError,
)

from conftest import encode_wav, sine


class TestLoadWav:
    def test_pcm16_values_scaled_by_32768(self, wav_factory):
        codes = np.array([0, 1, -1, 16384, -32768, 32767], dtype=np.int16)
        path = wav_factory(codes / 32768.0, 8000)
        w = dsp.load_wav(path)
        assert w.sample_rate == 8000
        np.testing.assert_array_equal(w.samples, codes / 32768.0)

    def test_float32_exact(self, wav_factory):
        values = np.array([0.0, 0.25, -0.5, 1.0, -1.0], dtype=np.float32)
        w = dsp.load_wav(wav_factory(values, 4000, fmt="float32"))
        np.testing.assert_array_equal(w.samples, values.astype(np.float64))

    def test_stereo_downmix_is_channel_mean(self, wav_factory):
        left = np.array([0.5, -0.5, 0.25], dtype=np.float32)
        right = np.array([0.0, 0.5, 0.25], dtype=np.float32)
        w = dsp.load_wav(wav_factory(np.stack([left, right], axis=1), 4000, fmt="float32"))
        np.testing.assert_allclose(w.samples, (left + right) / 2.0, atol=1e-12)

    def test_unknown_chunks_are_skipped(self, wav_factory):
        # odd-length chunk exercises RIFF word alignment too
        path = wav_factory(
            [0.1, 0.2], 4000, fmt="float32", extra_chunks=[(b"LIST", b"junk!"), (b"fake", b"xyz")]
        )
        np.testing.assert_allclose(dsp.load_wav(path).samples, [0.1, 0.2], atol=1e-7)

    def test_unsupported_codec(self, tmp_path, wav_factory):
        path = wav_factory([0.1], 4000)
        raw = bytearray(path.read_bytes())
        raw[20] = 85  # format code in the fmt chunk
        bad = tmp_path / "codec.wav"
        bad.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedFormatError):
            dsp.load_wav(bad)

    def test_unsupported_bit_depth(self, tmp_path, wav_factory):
        path = wav_factory([0.1], 4000)
        raw = bytearray(path.read_bytes())
        raw[34] = 8  # bits per sample
        bad = tmp_path / "depth.wav"
        bad.write_bytes(bytes(raw))
        with pytest.raises(UnsupportedFormatError):
            dsp.load_wav(bad)

    def test_three_channels_rejected(self, tmp_path):
        bad = tmp_path / "tri.wav"
        bad.write_bytes(encode_wav(np.zeros((4, 3)), 4000, fmt="float32"))
        with pytest.raises(UnsupportedFormatError):
            dsp.load_wav(bad)

    def test_empty_data_chunk(self, tmp_path):
        bad = tmp_path / "empty.wav"
        bad.write_bytes(encode_wav(np.zeros((0,)), 4000))
        with pytest.raises(EmptyAudioError):
            dsp.load_wav(bad)

    def test_not_riff(self, tmp_path):
        bad = tmp_path / "not.wav"
        bad.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(CorruptHeaderError):
            dsp.load_wav(bad)

    def test_chunk_overruns_file(self, tmp_path, wav_factory):
        path = wav_factory(np.linspace(-0.5, 0.5, 64), 4000)
        truncated = tmp_path / "trunc.wav"
        truncated.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CorruptHeaderError):
            dsp.load_wav(truncated)

    def test_partial_frame_in_data(self, tmp_path):
        # stereo pcm16 frames are 4 bytes; declare a 15-byte data chunk
        raw = bytearray(encode_wav(np.zeros((4, 2)), 4000))
        size_offset = raw.rindex(b"data") + 4
        raw[size_offset : size_offset + 4] = (15).to_bytes(4, "little")
        riff_size = len(raw) - 1 - 8
        raw[4:8] = riff_size.to_bytes(4, "little")
        bad = tmp_path / "frame.wav"
        bad.write_bytes(bytes(raw[:-1]))
        with pytest.raises(CorruptHeaderError):
            dsp.load_wav(bad)

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("fmt", ["pcm16", "float32"])
    def test_bytes_match_the_channel_mean_reference(self, wav_factory, fmt, channels):
        # the decoder's cast + in-place add + power-of-two scale must give the
        # very bits of the float64 channel mean, extremes and subnormals included
        rng = np.random.default_rng(6)
        if fmt == "pcm16":
            edges = np.array([-32768, 32767, -32767, 0, 1, -1], dtype=np.int16)
            values = np.concatenate([edges, rng.integers(-32768, 32768, 600).astype(np.int16)])
            encoded, dtype, scale = values / 32768.0, "<i2", 32768.0
        else:
            tiny = np.finfo(np.float32).smallest_subnormal
            big = np.finfo(np.float32).max
            edges = np.array([big, -big, big, tiny, -tiny, tiny, 3 * tiny, -0.0, -0.0, 0.0], np.float32)
            values = np.concatenate([edges, rng.normal(size=600).astype(np.float32)])
            encoded, dtype, scale = values, "<f4", 1.0
        path = wav_factory(encoded.reshape(-1, channels), 22050, fmt=fmt)
        data = path.read_bytes()[-values.nbytes :]  # the data chunk comes last
        reference = np.frombuffer(data, dtype).astype(np.float64)
        if channels == 2:
            reference = reference.reshape(-1, 2).mean(axis=1)
        reference = reference / scale
        assert dsp.load_wav(path).samples.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_float_sample_names_file_and_frame(self, wav_factory, bad, channels):
        values = np.full((6, channels), 0.25)
        values[4, channels - 1] = bad
        path = wav_factory(values, 4000, fmt="float32")
        with pytest.raises(NumericFaultError) as info:
            dsp.load_wav(path)
        assert str(path) in str(info.value)
        assert f"frame 4, channel {channels - 1}" in str(info.value)

    def test_peak_memory_of_a_long_stereo_clip(self, wav_factory):
        # 60 s of 44.1 kHz stereo PCM16: a float64 copy of every interleaved
        # sample would be twice the output, so the bound leaves no room for it
        codes = np.random.default_rng(7).integers(-32768, 32768, (60 * 44100, 2)).astype(np.int16)
        path = wav_factory(codes / 32768.0, 44100)
        del codes
        tracemalloc.start()
        try:
            w = dsp.load_wav(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(w.samples) == 60 * 44100
        assert peak <= 1.5 * (path.stat().st_size + w.samples.nbytes)


class TestResample:
    def test_identity_at_same_rate(self):
        w = Waveform(samples=np.array([0.3, -0.2, 0.9]), sample_rate=4000)
        out = dsp.resample(w, 4000)
        assert out.samples is w.samples

    def test_linear_midpoints_doubling(self):
        w = Waveform(samples=np.array([0.0, 1.0, 0.0, -1.0]), sample_rate=4)
        out = dsp.resample(w, 8)
        assert len(out.samples) == 8
        np.testing.assert_allclose(
            out.samples[:7], [0.0, 0.5, 1.0, 0.5, 0.0, -0.5, -1.0], atol=1e-12
        )
        assert out.samples[7] == -1.0  # edge hold past the last input sample

    def test_output_length_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(5, 400))
            src = int(rng.integers(1000, 48000))
            dst = int(rng.integers(1000, 48000))
            if src == dst:
                continue
            w = Waveform(samples=rng.normal(size=n), sample_rate=src)
            assert len(dsp.resample(w, dst).samples) == n * dst // src

    def test_bytes_match_np_interp(self):
        rng = np.random.default_rng(8)
        rates = (7, 8, 11, 1000, 8000, 11025, 16000, 22050, 44100, 48000, 96000)
        for n in (1, 2, 3, 5, 17, 101):
            for src in rates:
                for dst in rates:
                    samples = rng.normal(size=n)
                    samples[rng.random(n) < 0.2] = -0.0  # np.interp keeps the sign at x == j
                    positions = np.arange(n * dst // src, dtype=np.float64) * (src / dst)
                    reference = np.interp(positions, np.arange(n), samples)
                    out = dsp.resample(Waveform(samples=samples, sample_rate=src), dst).samples
                    assert out.tobytes() == reference.tobytes(), (n, src, dst)

    def test_sine_survives_resampling(self):
        w = Waveform(samples=sine(440.0, 1.0, 44100), sample_rate=44100)
        out = dsp.resample(w, 16000)
        mags = dsp.stft_magnitude(out, 512, 256)
        peak_bin = int(mags.mean(axis=0).argmax())
        assert abs(peak_bin * 16000 / 512 - 440.0) <= 16000 / 512 / 2


class TestStft:
    def test_zero_in_zero_out(self):
        w = Waveform(samples=np.zeros(1000), sample_rate=8000)
        np.testing.assert_array_equal(dsp.stft_magnitude(w, 128, 64), 0.0)

    def test_bin_center_sine_peaks_at_k(self):
        k, fft, rate = 12, 256, 8000
        w = Waveform(samples=sine(k * rate / fft, 0.5, rate), sample_rate=rate)
        mags = dsp.stft_magnitude(w, fft, 128)
        assert (mags.argmax(axis=1) == k).all()

    def test_frame_count_formula(self):
        w = Waveform(samples=np.random.default_rng(1).normal(size=2048), sample_rate=8000)
        assert dsp.stft_magnitude(w, 512, 256).shape == (7, 257)

    def test_matches_naive_dft(self):
        rng = np.random.default_rng(2)
        samples = rng.normal(size=300)
        fft, hop = 64, 32
        mags = dsp.stft_magnitude(Waveform(samples=samples, sample_rate=8000), fft, hop)
        window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(fft) / fft)
        n_frames = (len(samples) - fft) // hop + 1
        assert mags.shape[0] == n_frames
        for frame in range(n_frames):
            x = samples[frame * hop : frame * hop + fft] * window
            for k in range(fft // 2 + 1):
                ref = sum(x[n] * np.exp(-2j * np.pi * k * n / fft) for n in range(fft))
                assert abs(mags[frame, k] - abs(ref)) <= 1e-6 * max(abs(ref), 1.0)

    def test_too_short(self):
        with pytest.raises(AudioTooShortError):
            dsp.stft_magnitude(Waveform(samples=np.zeros(63), sample_rate=8000), 64, 32)

    def test_nonnegative_finite(self):
        w = Waveform(samples=np.random.default_rng(3).normal(size=700), sample_rate=8000)
        mags = dsp.stft_magnitude(w, 128, 61)
        assert (mags >= 0).all() and np.isfinite(mags).all()


class TestMelFilterbank:
    def test_mel_scale_formula(self):
        freqs = np.array([0.0, 100.0, 440.0, 1000.0, 7902.13])
        np.testing.assert_allclose(
            dsp.hz_to_mel(freqs), 2595.0 * np.log10(1.0 + freqs / 700.0), rtol=1e-12
        )
        np.testing.assert_allclose(dsp.mel_to_hz(dsp.hz_to_mel(freqs)), freqs, rtol=1e-10)

    def test_centers_match_direct_evaluation(self):
        cfg = DspConfig()
        grid = 700.0 * (10.0 ** (np.linspace(0.0, 2595.0 * np.log10(1 + 8000 / 700), 98) / 2595.0) - 1.0)
        np.testing.assert_allclose(dsp.mel_center_frequencies(cfg), grid[1:-1], atol=1e-9)

    def test_rows_nonnegative_and_unimodal(self):
        bank = dsp.mel_filterbank(DspConfig())
        assert (bank >= 0).all()
        for row in bank:
            peak = row.argmax()
            assert (np.diff(row[: peak + 1]) >= 0).all()
            assert (np.diff(row[peak:]) <= 0).all()

    def test_peak_bins_strictly_increase_when_spacing_allows(self):
        cfg = DspConfig(n_mels=10)
        peaks = dsp.mel_filterbank(cfg).argmax(axis=1)
        assert (np.diff(peaks) > 0).all()

    def test_peak_value_is_one_on_wide_filters(self):
        bank = dsp.mel_filterbank(DspConfig(n_mels=10))
        np.testing.assert_allclose(bank.max(axis=1), 1.0, atol=0.05)

    def test_row_sums_positive(self):
        bank = dsp.mel_filterbank(DspConfig())
        assert (bank.sum(axis=1) > 0).all()

    def test_degenerate_band_reported(self):
        cfg = DspConfig(sample_rate=16000, fft_size=32, hop_size=16, n_mels=40)
        for _ in range(2):  # a failure is not cached
            with pytest.raises(DegenerateBandError):
                dsp.mel_filterbank(cfg)
            with pytest.raises(DegenerateBandError):
                dsp.log_mel(Waveform(samples=np.zeros(64), sample_rate=16000), cfg)

    def test_bank_is_shared_per_config_and_read_only(self):
        bank = dsp.mel_filterbank(DspConfig(n_mels=12))
        assert dsp.mel_filterbank(DspConfig(n_mels=12)) is bank
        assert dsp.mel_filterbank(DspConfig(n_mels=13)) is not bank
        with pytest.raises(ValueError):
            bank[0, 0] = 2.0


class TestLogMel:
    def test_silence_is_log_offset(self, wav_factory):
        cfg = DspConfig()
        path = wav_factory(np.zeros(20000), 16000)
        mel = dsp.log_mel(dsp.load_wav(path), cfg)
        np.testing.assert_allclose(mel.values, np.log(cfg.log_offset), atol=1e-12)

    def test_louder_never_decreases_cells(self):
        x = sine(500.0, 0.5, 16000, amplitude=0.2)
        a = dsp.log_mel(Waveform(samples=x, sample_rate=16000)).values
        b = dsp.log_mel(Waveform(samples=2 * x, sample_rate=16000)).values
        assert (b >= a - 1e-12).all()

    def test_sine_argmax_is_nearest_center(self):
        cfg = DspConfig()
        centers = dsp.mel_center_frequencies(cfg)
        for f0 in (440.0, 1000.0, 3000.0, 6500.0):
            mel = dsp.log_mel(Waveform(samples=sine(f0, 1.0, 16000), sample_rate=16000), cfg)
            nearest = int(np.argmin(np.abs(centers - f0)))
            assert (mel.values.argmax(axis=1) == nearest).all()

    def test_empty_waveform(self):
        with pytest.raises(EmptyAudioError):
            dsp.log_mel(Waveform(samples=np.zeros(0), sample_rate=16000))

    def test_deterministic(self, wav_factory):
        path = wav_factory(np.random.default_rng(4).uniform(-0.5, 0.5, 20000), 16000)
        a = dsp.log_mel(dsp.load_wav(path)).values
        b = dsp.log_mel(dsp.load_wav(path)).values
        np.testing.assert_array_equal(a, b)


def _mel_of(frames: int, cfg: DspConfig) -> MelSpectrogram:
    values = np.arange(frames * cfg.n_mels, dtype=np.float64).reshape(frames, cfg.n_mels)
    return MelSpectrogram(values=values, config=cfg)


class TestPatchify:
    def test_exact_fit_single_patch(self):
        cfg = DspConfig(patch_frames=10, patch_hop_frames=10)
        mel = _mel_of(10, cfg)
        patches = dsp.patchify(mel)
        assert len(patches) == 1
        np.testing.assert_array_equal(patches[0], mel.values)

    def test_two_patches_with_tail_dropped(self):
        cfg = DspConfig(patch_frames=187, patch_hop_frames=187)
        patches = dsp.patchify(_mel_of(500, cfg))
        assert len(patches) == 2
        np.testing.assert_array_equal(patches[0], _mel_of(500, cfg).values[:187])
        np.testing.assert_array_equal(patches[1], _mel_of(500, cfg).values[187:374])

    def test_overlapping_hop(self):
        cfg = DspConfig(patch_frames=187, patch_hop_frames=93)
        mel = _mel_of(600, cfg)
        patches = dsp.patchify(mel)
        assert len(patches) == 5
        for k, patch in enumerate(patches):
            np.testing.assert_array_equal(patch, mel.values[93 * k : 93 * k + 187])

    def test_too_few_frames(self):
        cfg = DspConfig(patch_frames=20, patch_hop_frames=20)
        with pytest.raises(AudioTooShortError):
            dsp.patchify(_mel_of(19, cfg))

    def test_count_formula_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            patch = int(rng.integers(2, 40))
            hop = int(rng.integers(1, patch + 1))
            frames = int(rng.integers(patch, 300))
            cfg = DspConfig(patch_frames=patch, patch_hop_frames=hop)
            patches = dsp.patchify(_mel_of(frames, cfg))
            assert len(patches) == (frames - patch) // hop + 1
            # the dropped tail is never touched: last window stays in bounds
            assert (len(patches) - 1) * hop + patch <= frames


class TestConfigValidation:
    def test_bad_rates(self):
        with pytest.raises(ConfigInvalidError):
            DspConfig(sample_rate=0)
        with pytest.raises(ConfigInvalidError):
            DspConfig(hop_size=1024)  # larger than fft_size
        with pytest.raises(ConfigInvalidError):
            DspConfig(fmin=5000.0, fmax=4000.0)
        with pytest.raises(ConfigInvalidError):
            DspConfig(log_offset=0.0)
