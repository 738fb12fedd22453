"""Feature extraction: key sets, clip embeddings, CSV output, and the CLI."""

import numpy as np
import pytest

from meltag import cli, extractor
from meltag.errors import UnknownFeatureKeyError
from meltag.extractor import clip_embedding, default_embedding_key, extract, write_feature_csv
from meltag.network import build_model
from meltag.store import save_model

from conftest import tiny_musicnn, tiny_vgg


@pytest.fixture
def tiny_wav(wav_factory):
    rng = np.random.default_rng(4)
    return wav_factory(rng.uniform(-0.5, 0.5, 1024), 2000, fmt="float32")  # 3 patches


class TestExtract:
    def test_pooling_feature_keys(self, tiny_wav):
        model = build_model(tiny_musicnn(), seed=1)
        _, _, features = extract(tiny_wav, model, extract_features=True)
        assert set(features) == {
            "timbral",
            "temporal",
            "cnn1",
            "cnn2",
            "cnn3",
            "mean_pool",
            "max_pool",
            "penultimate",
        }

    def test_attention_feature_keys(self, tiny_wav):
        model = build_model(tiny_musicnn(backend="attention"), seed=1)
        _, _, features = extract(tiny_wav, model, extract_features=True)
        assert set(features) == {
            "timbral",
            "temporal",
            "cnn1",
            "cnn2",
            "cnn3",
            "attention_weights",
            "context",
            "penultimate",
        }

    def test_vgg_feature_keys(self, tiny_wav):
        model = build_model(tiny_vgg(), seed=1)
        _, _, features = extract(tiny_wav, model, extract_features=True)
        assert set(features) == {"pool1", "pool2", "pool3", "pool4", "pool5"}

    def test_features_lead_with_the_patch_axis(self, tiny_wav):
        model = build_model(tiny_musicnn(), seed=2)
        taggram, _, features = extract(tiny_wav, model, extract_features=True)
        assert taggram.n_patches == 3
        for key, value in features.items():
            assert value.shape[0] == 3, key
        assert features["timbral"].shape == (3, 4, 8)
        assert features["mean_pool"].shape == (3, 15)
        assert features["penultimate"].shape == (3, 4)

    def test_flag_off_returns_empty_features_and_same_taggram(self, tiny_wav):
        model = build_model(tiny_musicnn(), seed=3)
        with_flag, tags_a, features = extract(tiny_wav, model, extract_features=True)
        without, tags_b, empty = extract(tiny_wav, model, extract_features=False)
        assert empty == {}
        assert tags_a == tags_b == model.tags
        np.testing.assert_array_equal(with_flag.values, without.values)

    def test_taggram_matches_per_patch_forward(self, tiny_wav):
        from meltag import dsp, network

        model = build_model(tiny_vgg(), seed=4)
        taggram, _, _ = extract(tiny_wav, model)
        for k, patch in enumerate(dsp.patchify(dsp.log_mel(dsp.load_wav(tiny_wav), model.config.dsp))):
            np.testing.assert_array_equal(
                taggram.values[k], network.forward_batch(patch, model)[1]["output"][0]
            )


class TestClipEmbedding:
    def _features(self):
        return {"penultimate": np.array([[1.0, 3.0], [3.0, 5.0]])}

    def test_mean_reduction(self):
        np.testing.assert_array_equal(
            clip_embedding(self._features(), "penultimate"), [2.0, 4.0]
        )

    def test_multiaxis_features_are_flattened_per_patch(self):
        features = {"pool1": np.arange(12.0).reshape(2, 3, 2)}
        got = clip_embedding(features, "pool1")
        np.testing.assert_array_equal(got, np.arange(12.0).reshape(2, 6).mean(axis=0))

    def test_unknown_key(self):
        with pytest.raises(UnknownFeatureKeyError):
            clip_embedding(self._features(), "pool9")

    def test_embedding_length_from_a_real_model(self, tiny_wav):
        model = build_model(tiny_musicnn(), seed=5)
        _, _, features = extract(tiny_wav, model, extract_features=True)
        assert clip_embedding(features, "penultimate").shape == (4,)
        assert clip_embedding(features, "mean_pool").shape == (15,)

    def test_default_key_per_family(self):
        assert default_embedding_key(build_model(tiny_musicnn(), seed=0)) == "penultimate"
        assert default_embedding_key(build_model(tiny_vgg(), seed=0)) == "pool5"


class TestFeatureCsv:
    def test_exact_format(self, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(np.array([[0.5, 1.0], [0.125, 2.0]]), path)
        assert path.read_text() == "0.500000,1.000000\n0.125000,2.000000\n"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(12,), (2, 3, 2)])
    def test_edge_value_bytes(self, tmp_path, dtype, shape):
        info = np.finfo(dtype)
        values = [-0.0, -1e-9, 5e-7, -5e-7, 1e20, -1e20, info.max, info.smallest_subnormal,
                  1 / 3, -2.0000005, 2.5e-6, 0.1234565]
        big = [f"{int(dtype(v))}.000000" for v in (1e20, -1e20, info.max)]
        # float32 rounds the last four before formatting, so their sixth decimals differ
        tail = (["0.333333", "-2.000000", "0.000002", "0.123457"] if dtype is np.float32
                else ["0.333333", "-2.000001", "0.000003", "0.123456"])
        cells = ["-0.000000", "-0.000000", "0.000000", "-0.000000", *big, "0.000000", *tail]
        path = tmp_path / "f.csv"
        write_feature_csv(np.array(values, dtype=dtype).reshape(shape), path)
        rows = [cells[i : i + 12 // shape[0]] for i in range(0, 12, 12 // shape[0])]
        assert path.read_bytes() == "".join(",".join(r) + "\n" for r in rows).encode()

    def test_higher_rank_features_flatten(self, tmp_path):
        path = tmp_path / "f.csv"
        write_feature_csv(np.zeros((2, 2, 3)), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert all(len(l.split(",")) == 6 for l in lines)


class TestExtractCli:
    @pytest.fixture
    def model_path(self, tmp_path):
        path = tmp_path / "tiny.mcn"
        save_model(build_model(tiny_musicnn(), seed=6), path)
        return path

    def test_writes_the_requested_feature(self, tiny_wav, model_path, tmp_path):
        out = tmp_path / "pen.csv"
        code = cli.main(
            ["extract", str(tiny_wav), "-m", str(model_path), "--feature", "penultimate", "--out", str(out)]
        )
        assert code == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3  # one per patch
        assert all(len(r.split(",")) == 4 for r in rows)

    def test_default_feature_is_the_deepest_layer(self, tiny_wav, model_path, tmp_path):
        out_default = tmp_path / "a.csv"
        out_explicit = tmp_path / "b.csv"
        assert cli.main(["extract", str(tiny_wav), "-m", str(model_path), "--out", str(out_default)]) == 0
        assert (
            cli.main(
                ["extract", str(tiny_wav), "-m", str(model_path), "--feature", "penultimate", "--out", str(out_explicit)]
            )
            == 0
        )
        assert out_default.read_text() == out_explicit.read_text()

    def test_unknown_feature_exits_one(self, tiny_wav, model_path, tmp_path, capsys):
        code = cli.main(
            ["extract", str(tiny_wav), "-m", str(model_path), "--feature", "bogus", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_out_flag_exits_two(self, tiny_wav, model_path):
        assert cli.main(["extract", str(tiny_wav), "-m", str(model_path)]) == 2
