"""Taggram semantics, streamed inference, top-N ranking, listing format, and the tag CLI."""

import importlib.util
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from meltag import cli, dsp, network, store, tagger
from meltag.dsp import DspConfig
from meltag.errors import AudioTooShortError, NumericFaultError, TopNOutOfRangeError, UnknownModelError
from meltag.network import build_model
from meltag.store import save_model
from meltag.tagger import Taggram, compute_taggram, format_listing, tag_file, top_tags

from conftest import encode_wav, samples_for_frames, tiny_musicnn, tiny_vgg

_spec = importlib.util.spec_from_file_location("synth", Path(__file__).parent.parent / "bench" / "synth.py")
synth = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(synth)


@pytest.fixture
def tiny_model_path(tmp_path):
    model = build_model(tiny_musicnn(), seed=6, tags=("bright", "dark"))
    path = tmp_path / "tiny.mcn"
    save_model(model, path)
    return path


@pytest.fixture
def tiny_wav(wav_factory):
    rng = np.random.default_rng(1)
    return wav_factory(rng.uniform(-0.5, 0.5, 1024), 2000, fmt="float32")


class TestTaggram:
    def test_shape_times_and_range(self, tiny_wav):
        model = build_model(tiny_musicnn(), seed=6)
        gram = compute_taggram(tiny_wav, model)
        # 1024 samples -> 31 frames -> 3 patches of 8 frames
        assert gram.values.shape == (3, 2)
        assert gram.n_patches == 3
        assert gram.tags == model.tags
        # each patch hop is 8 frames * 32 samples / 2000 Hz
        np.testing.assert_allclose(gram.patch_times, [0.0, 0.128, 0.256])
        assert ((gram.values >= 0) & (gram.values <= 1)).all()

    def test_zero_model_scores_half_everywhere(self, tiny_wav):
        model = build_model(tiny_musicnn(), init="zeros")
        gram = compute_taggram(tiny_wav, model)
        np.testing.assert_array_equal(gram.values, 0.5)

    def test_is_deterministic(self, tiny_wav):
        model = build_model(tiny_vgg(), seed=7)
        a = compute_taggram(tiny_wav, model)
        b = compute_taggram(tiny_wav, model)
        np.testing.assert_array_equal(a.values, b.values)

    def test_rows_are_per_patch(self, wav_factory):
        """Doubling the audio appends patches whose frames replay the first
        copy, so those taggram rows must repeat the originals bit for bit."""
        model = build_model(tiny_musicnn(), seed=6)
        rng = np.random.default_rng(2)
        k = 3
        s = rng.uniform(-0.5, 0.5, 256 * k)
        single = wav_factory(s, 2000, fmt="float32")
        doubled = wav_factory(np.concatenate([s, s]), 2000, fmt="float32")
        one = compute_taggram(single, model)
        two = compute_taggram(doubled, model)
        assert two.n_patches == 2 * one.n_patches + 1
        np.testing.assert_array_equal(two.values[: one.n_patches], one.values)
        np.testing.assert_array_equal(two.values[k : k + one.n_patches], one.values)


    @pytest.mark.parametrize("family", ["musicnn", "vgg"])
    def test_long_clip_runs_in_batches_of_at_most_20(self, family, wav_factory, monkeypatch):
        """A 44-patch clip never reaches infer_batch whole, and its taggram
        and trace equal one whole-clip batch byte for byte."""
        cfg = tiny_musicnn(backend="attention") if family == "musicnn" else tiny_vgg()
        model = build_model(cfg, seed=6)
        path = wav_factory(np.random.default_rng(3).uniform(-0.5, 0.5, 256 * 45), 2000)
        _, whole, _ = network.forward_batch(dsp.patchify(dsp.log_mel(dsp.load_wav(path), model.config.dsp)), model)
        infer_batch = network.infer_batch
        sizes = []

        def spy(patches, *args, **kwargs):
            sizes.append(len(patches))
            return infer_batch(patches, *args, **kwargs)

        monkeypatch.setattr(network, "infer_batch", spy)
        gram, trace = tagger.infer_file(path, model)
        assert sum(sizes) == 44 and max(sizes) <= 20
        assert set(trace) == set(whole)
        for key, want in whole.items():
            got = trace[key]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), key
        assert gram.values.tobytes() == whole["output"].tobytes()

def _assert_streamed_equals_whole(path, model):
    """infer_file's taggram and trace equal one forward_batch of the whole clip's patches."""
    _, whole, _ = network.forward_batch(dsp.patchify(dsp.log_mel(dsp.load_wav(path), model.config.dsp)), model)
    gram, trace = tagger.infer_file(path, model)
    assert set(trace) == set(whole)
    for key, want in whole.items():
        assert (trace[key].dtype, trace[key].shape) == (want.dtype, want.shape), key
        assert trace[key].tobytes() == want.tobytes(), key
    assert gram.values.tobytes() == whole["output"].tobytes()
    return len(gram.values)


def _registry_streamed_equals_whole(name, path):
    return _assert_streamed_equals_whole(path, store.load_registry_model(name))


def _outcome(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def _malformed(tmp_path):
    """Every malformed file of tests/test_dsp.py and bench/synth.py, plus clips too short."""
    def edit(offset, value):
        raw = bytearray(encode_wav([0.1, 0.2, 0.3], 4000))
        raw[offset] = value
        return bytes(raw)

    def partial_frame():
        raw = bytearray(encode_wav(np.zeros((4, 2)), 4000))
        size_offset = raw.rindex(b"data") + 4
        raw[size_offset : size_offset + 4] = (15).to_bytes(4, "little")
        raw[4:8] = (len(raw) - 1 - 8).to_bytes(4, "little")
        return bytes(raw[:-1])

    nan = np.full((6, 2), 0.25)
    nan[4, 1] = np.nan
    bad = np.random.default_rng(5).uniform(-0.5, 0.5, 16000 * 5)
    blobs = {
        "codec": edit(20, 85),
        "depth": edit(34, 8),
        "tri": encode_wav(np.zeros((4, 3)), 4000, fmt="float32"),
        "empty": encode_wav(np.zeros((0,)), 4000),
        "not_riff": b"OggS" + b"\x00" * 40,
        "trunc": encode_wav(np.linspace(-0.5, 0.5, 64), 4000)[:-20],
        "partial_frame": partial_frame(),
        "nan": encode_wav(nan, 4000, fmt="float32"),
        "second_data": encode_wav(np.zeros(4), 16000, extra_chunks=[(b"data", struct.pack("<8h", *range(8)))]),
        "second_fmt": encode_wav(np.zeros(4), 16000, extra_chunks=[(b"fmt ", synth.fmt_chunk(1, 1, 8000, 16))]),
        "synth_truncated": synth.truncated_wav(bad, 16000),
        "synth_pcm24": synth.pcm24_wav(bad, 16000),
        "synth_no_data": synth.no_data_wav(16000),
        "shorter_than_fft": encode_wav(np.zeros(100), 16000),
        "shorter_than_patch": encode_wav(np.zeros(5000), 16000),
    }
    for name, blob in blobs.items():
        path = tmp_path / f"{name}.wav"
        path.write_bytes(blob)
        yield name, path


class TestStreamedInference:
    """infer_file streams the clip from disk in log-mel blocks; its outputs and errors must be
    those of the whole-clip path (load_wav, log_mel, patchify and one forward_batch)."""

    @pytest.mark.parametrize("n_patches", [1, 20, 21, 44])
    @pytest.mark.parametrize("frames_mod_4", [0, 1, 2, 3])
    @pytest.mark.parametrize("rate, channels, fmt", [(16000, 1, "float32"), (44100, 2, "pcm16")])
    def test_taggram_and_trace_equal_the_whole_clip(self, wav_factory, n_patches, frames_mod_4, rate, channels,
                                                    fmt):
        cfg = tiny_musicnn(backend="attention", dsp=DspConfig(patch_frames=24, patch_hop_frames=24))
        model = build_model(cfg, seed=6)
        frames = n_patches * 24 + (frames_mod_4 - n_patches * 24) % 4
        n = samples_for_frames(frames, rate, cfg.dsp)
        samples = np.random.default_rng(frames).uniform(-0.9, 0.9, (n, channels))
        path = wav_factory(samples, rate, fmt=fmt)
        assert dsp.log_mel(dsp.load_wav(path), cfg.dsp).n_frames == frames
        assert _assert_streamed_equals_whole(path, model) == n_patches

    def test_registry_model_on_a_cd_rate_stereo_clip(self, long_wav):
        """MTT_musicnn, 21 patches of 44.1 kHz stereo PCM16, on one OpenBLAS thread."""
        n = samples_for_frames(21 * 187 + 2, 44100, DspConfig())
        rng = np.random.default_rng(8)
        path = long_wav((rng.uniform(-0.8, 0.8, (min(441000, n - i), 2)) for i in range(0, n, 441000)), 44100,
                        channels=2)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        code = "import sys, test_tagger; print(test_tagger._registry_streamed_equals_whole(*sys.argv[1:]))"
        child = subprocess.run(
            [sys.executable, "-c", code, "MTT_musicnn", str(path)],
            cwd=Path(__file__).parent, env=env, capture_output=True, text=True,
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == "21"

    def test_malformed_files_raise_what_the_whole_clip_path_raises(self, tmp_path):
        model = build_model(tiny_musicnn(dsp=DspConfig()), seed=6)
        for name, path in _malformed(tmp_path):
            whole = _outcome(lambda: dsp.patchify(dsp.log_mel(dsp.load_wav(path), model.config.dsp)))
            assert whole is not None, name
            assert _outcome(lambda: tagger.infer_file(path, model)) == whole, name
        assert whole[0] is AudioTooShortError

    @pytest.mark.parametrize("hop, back", [(187, 1000), (187, 1), (600, 1000)])
    def test_a_late_non_finite_sample_names_its_frame_in_the_clip(self, long_wav, hop, back):
        """An Inf in the third batch's last block, in the final sample (past the last STFT
        frame), and in frames past the last patch (600-frame patch hops leave the clip's last
        ~350 frames out of every patch): the streamed path raises what load_wav raises."""
        model = build_model(tiny_musicnn(dsp=DspConfig(patch_hop_frames=hop)), seed=6)
        n = samples_for_frames(45 * 187, 16000, model.config.dsp)
        late = n - back

        def blocks():
            for i in range(0, n, 100000):
                block = np.full((min(100000, n - i), 2), 0.25)
                if i <= late < i + len(block):
                    block[late - i, 1] = np.inf
                yield block

        path = long_wav(blocks(), 16000, fmt="float32", channels=2)
        streamed = _outcome(lambda: tagger.infer_file(path, model))
        assert streamed == _outcome(lambda: dsp.patchify(dsp.log_mel(dsp.load_wav(path), model.config.dsp)))
        assert streamed[1] == f"{path}: non-finite sample in frame {late}, channel 1"

    def test_a_non_finite_sample_between_two_blocks_reads_raises(self, wav_factory):
        """With fft_size == hop_size at 48 kHz, input sample 147,455 lies past the resampler
        window of block 0's last frame and before block 1's first; the stream still reads it."""
        cfg = DspConfig(fft_size=256, hop_size=256, n_mels=40, patch_frames=50, patch_hop_frames=50)
        model = build_model(tiny_musicnn(dsp=cfg), seed=6)
        samples = np.full(48000 * 20, 0.25)
        samples[147455] = np.nan
        path = wav_factory(samples, 48000, fmt="float32")
        whole = _outcome(lambda: dsp.load_wav(path))
        assert whole == (NumericFaultError, f"{path}: non-finite sample in frame 147455, channel 0")
        assert _outcome(lambda: list(dsp.patch_batches(path, cfg, 20))) == whole
        assert _outcome(lambda: tagger.infer_file(path, model)) == whole

    def test_taggram_peak_with_the_front_end_does_not_grow_with_clip_length(self, long_wav):
        """ROADMAP item 5: 60 s and 600 s of 44.1 kHz stereo PCM16, file to taggram. The
        network is tiny, so the front end sets the peak (the whole-clip path: 50 and 504 MiB)."""
        model = build_model(tiny_musicnn(dsp=DspConfig()), seed=6)

        def clip(seconds):
            rng = np.random.default_rng(seconds)
            return long_wav((rng.uniform(-0.5, 0.5, (441000, 2)) for _ in range(seconds // 10)), 44100,
                            channels=2)

        peaks = []
        for path in (clip(60), clip(600)):
            tracemalloc.start()
            try:
                assert compute_taggram(path, model).n_patches in (20, 200)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], f"{peaks[0] / 2**20:.1f} -> {peaks[1] / 2**20:.1f} MiB"


class TestTopTags:
    def _gram(self, values, tags):
        values = np.asarray(values, dtype=np.float64)
        return Taggram(values=values, tags=tags, patch_times=np.arange(len(values)) * 1.0)

    def test_ranks_by_column_mean(self):
        # dyadic values so the column means are exact in floating point
        gram = self._gram([[0.25, 0.875, 0.5], [0.25, 0.875, 0.25]], ("a", "b", "c"))
        assert top_tags(gram, 3) == [("b", 0.875), ("c", 0.375), ("a", 0.25)]

    def test_ties_break_toward_earlier_vocabulary_index(self):
        gram = self._gram([[0.5, 0.5, 0.5]], ("z_last", "m_mid", "a_first"))
        assert [t for t, _ in top_tags(gram, 3)] == ["z_last", "m_mid", "a_first"]

    def test_top_n_truncates(self):
        gram = self._gram([[0.1, 0.9, 0.5]], ("a", "b", "c"))
        assert top_tags(gram, 1) == [("b", 0.9)]
        assert [t for t, _ in top_tags(gram, 2)] == ["b", "c"]

    def test_matches_a_stable_sort_oracle(self):
        rng = np.random.default_rng(3)
        tags = tuple(f"t{i:02d}" for i in range(50))
        values = rng.uniform(size=(5, 50)).round(1)  # rounding forces ties
        gram = self._gram(values, tags)
        means = values.mean(axis=0)
        oracle = sorted(range(50), key=lambda i: (-means[i], i))
        got = [t for t, _ in top_tags(gram, 50)]
        assert got == [tags[i] for i in oracle]
        scores = [s for _, s in top_tags(gram, 50)]
        np.testing.assert_allclose(scores, means[oracle])

    def test_out_of_range_top_n(self):
        gram = self._gram([[0.1, 0.2]], ("a", "b"))
        for bad in (0, -1, 3):
            with pytest.raises(TopNOutOfRangeError):
                top_tags(gram, bad)

    def test_single_patch_uses_the_row_itself(self):
        gram = self._gram([[0.3, 0.7]], ("a", "b"))
        assert top_tags(gram, 2) == [("b", 0.7), ("a", 0.3)]


class TestListing:
    def test_six_decimal_tab_separated_lines(self):
        text = format_listing([("b", 0.8), ("no vocals", 0.3)])
        assert text == "b\t0.800000\nno vocals\t0.300000\n"

    def test_empty_listing(self):
        assert format_listing([]) == ""

    def test_scores_are_rounded_not_truncated(self):
        assert format_listing([("x", 0.12345678)]) == "x\t0.123457\n"


class TestResolveAndTagFile:
    def test_path_resolution(self, tiny_model_path):
        model = tagger.resolve_model(str(tiny_model_path))
        assert model.tags == ("bright", "dark")

    def test_unknown_registry_name(self):
        with pytest.raises(UnknownModelError):
            tagger.resolve_model("definitely_not_a_model")

    def test_tag_file_end_to_end(self, tiny_wav, tiny_model_path):
        entries = tag_file(tiny_wav, str(tiny_model_path), top_n=2)
        assert len(entries) == 2
        assert {t for t, _ in entries} == {"bright", "dark"}
        assert entries[0][1] >= entries[1][1]


class TestCli:
    def test_print_shape(self, tiny_wav, tiny_model_path, capsys):
        code = tagger.cli(
            [str(tiny_wav), "--model", str(tiny_model_path), "--topN", "2", "--print"]
        )
        captured = capsys.readouterr()
        assert code == 0
        expected = format_listing(tag_file(tiny_wav, str(tiny_model_path), 2))
        assert captured.out == expected
        assert captured.err == ""

    def test_save_shape(self, tiny_wav, tiny_model_path, tmp_path, capsys):
        out = tmp_path / "tags.tsv"
        code = tagger.cli([str(tiny_wav), "-m", str(tiny_model_path), "--topN", "1", "--save", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        tag, score = lines[0].split("\t")
        assert tag in ("bright", "dark")
        float(score)

    def test_print_and_save_agree(self, tiny_wav, tiny_model_path, tmp_path, capsys):
        out = tmp_path / "tags.tsv"
        code = tagger.cli(
            [str(tiny_wav), "-m", str(tiny_model_path), "--topN", "2", "--print", "--save", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == out.read_text()

    def test_missing_audio_file_exits_one(self, tiny_model_path, capsys):
        code = tagger.cli(["/nonexistent/clip.wav", "-m", str(tiny_model_path), "--print"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_top_n_out_of_range_exits_one(self, tiny_wav, tiny_model_path, capsys):
        code = tagger.cli([str(tiny_wav), "-m", str(tiny_model_path), "--topN", "0", "--print"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_errors_exit_two(self, capsys):
        assert tagger.cli([]) == 2  # audio argument is required
        assert tagger.cli(["clip.wav", "--topN", "three"]) == 2
        capsys.readouterr()

    def test_non_finite_sample_exits_one_naming_the_file(self, tiny_model_path, wav_factory, capsys):
        values = np.random.default_rng(2).uniform(-0.5, 0.5, (1024, 2))
        values[700, 0] = np.nan
        path = wav_factory(values, 2000, fmt="float32")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from deep inside the pipeline
            code = cli.main(["tag", str(path), "-m", str(tiny_model_path), "--topN", "1", "--print"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: ")
        assert "frame 700, channel 0" in captured.err

    def test_corrupt_model_file_exits_one(self, tiny_wav, tmp_path, capsys):
        bad = tmp_path / "bad.mcn"
        bad.write_bytes(b"not a container")
        code = tagger.cli([str(tiny_wav), "-m", str(bad), "--print"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
