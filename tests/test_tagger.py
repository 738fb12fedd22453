"""Taggram semantics, top-N ranking, listing format, and the tag CLI."""

import warnings

import numpy as np
import pytest

from meltag import cli, network, tagger
from meltag.errors import TopNOutOfRangeError, UnknownModelError
from meltag.network import build_model
from meltag.store import save_model
from meltag.tagger import Taggram, compute_taggram, format_listing, tag_file, top_tags

from conftest import tiny_musicnn, tiny_vgg


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
        """A 44-patch clip never reaches forward_batch whole, and its taggram
        and trace equal one whole-clip batch byte for byte."""
        cfg = tiny_musicnn(backend="attention") if family == "musicnn" else tiny_vgg()
        model = build_model(cfg, seed=6)
        path = wav_factory(np.random.default_rng(3).uniform(-0.5, 0.5, 256 * 45), 2000)
        forward_batch = network.forward_batch
        _, whole, _ = forward_batch(tagger.audio_patches(path, model), model)
        sizes = []

        def spy(patches, *args, **kwargs):
            sizes.append(len(patches))
            return forward_batch(patches, *args, **kwargs)

        monkeypatch.setattr(network, "forward_batch", spy)
        gram, trace = tagger.infer_file(path, model)
        assert sum(sizes) == 44 and max(sizes) <= 20
        assert set(trace) == set(whole)
        for key, want in whole.items():
            got = trace[key]
            assert (got.dtype, got.shape) == (want.dtype, want.shape), key
            assert got.tobytes() == want.tobytes(), key
        assert gram.values.tobytes() == whole["output"].tobytes()

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
