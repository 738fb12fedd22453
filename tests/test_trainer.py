"""Loss, optimizer, training loop, and the train CLI."""

import codecs
import hashlib
import tracemalloc

import numpy as np
import pytest

from meltag import cli, network, ops, store, trainer
from meltag.errors import ConfigInvalidError, NumericFaultError
from meltag.network import build_model, forward_batch
from meltag.rng import SplitMix64
from meltag.store import load_model
from meltag.trainer import (
    AdamState,
    TrainConfig,
    TrainLog,
    adam_step,
    bce_loss,
    fit,
    synthetic_dataset,
    toy_dsp_config,
    toy_model_config,
)

from conftest import tiny_musicnn


class TestTrainConfig:
    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.mode == "float64"

    def test_zero_learning_rate_is_allowed(self):
        assert TrainConfig(learning_rate=0.0).learning_rate == 0.0

    def test_negative_learning_rate_rejected(self):
        with pytest.raises(ConfigInvalidError):
            TrainConfig(learning_rate=-1e-3)

    def test_beta_bounds(self):
        with pytest.raises(ConfigInvalidError):
            TrainConfig(beta1=1.0)
        with pytest.raises(ConfigInvalidError):
            TrainConfig(beta2=-0.1)
        TrainConfig(beta1=0.0, beta2=0.0)  # degenerate but legal

    def test_other_field_validation(self):
        with pytest.raises(ConfigInvalidError):
            TrainConfig(epsilon=0.0)
        with pytest.raises(ConfigInvalidError):
            TrainConfig(batch_size=0)
        with pytest.raises(ConfigInvalidError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigInvalidError):
            TrainConfig(mode="float16")


class TestBceLoss:
    def test_uninformative_predictions_give_ln_two(self):
        loss, _ = bce_loss(np.full((3, 4), 0.5), np.zeros((3, 4)))
        assert loss == pytest.approx(np.log(2.0), abs=1e-12)

    def test_worked_example(self):
        loss, _ = bce_loss(np.array([0.9, 0.2]), np.array([1.0, 0.0]))
        assert loss == pytest.approx((-np.log(0.9) - np.log(0.8)) / 2.0, abs=1e-12)

    def test_near_perfect_predictions_have_near_zero_loss(self):
        eps = 1e-6
        loss, _ = bce_loss(np.array([1.0 - eps, eps]), np.array([1.0, 0.0]))
        assert 0 < loss < 1e-5

    def test_gradient_is_mean_scaled_residual(self):
        p = np.array([[0.8, 0.3], [0.6, 0.5]])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, grad = bce_loss(p, t)
        np.testing.assert_allclose(grad, (p - t) / 4.0, atol=1e-15)

    def test_gradient_matches_finite_differences_through_sigmoid(self):
        rng = np.random.default_rng(0)
        t = (rng.uniform(size=(2, 3)) < 0.5).astype(np.float64)

        def f(inputs):
            p = ops.sigmoid(inputs["z"])
            loss, grad = bce_loss(p, t)
            return loss, {"z": grad}

        report = ops.grad_check(f, {"z": rng.normal(size=(2, 3))}, tolerance=1e-6)
        assert report.passed, str(report)

    def test_non_binary_targets_rejected(self):
        with pytest.raises(ConfigInvalidError):
            bce_loss(np.array([0.5]), np.array([0.7]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigInvalidError):
            bce_loss(np.zeros((2, 2)) + 0.5, np.zeros((2, 3)))

    def test_saturated_predictions_fault(self):
        with pytest.raises(NumericFaultError):
            bce_loss(np.array([1.0, 0.5]), np.array([1.0, 0.0]))
        with pytest.raises(NumericFaultError):
            bce_loss(np.array([0.0]), np.array([0.0]))


class TestAdam:
    def test_zero_gradient_is_a_no_op(self):
        params = np.array([1.0, -2.0])
        adam_step(params, np.zeros(2), AdamState(), TrainConfig())
        np.testing.assert_array_equal(params, [1.0, -2.0])

    def test_first_step_size_approaches_the_learning_rate(self):
        config = TrainConfig(learning_rate=0.01)
        params = np.zeros(3)
        adam_step(params, np.array([5.0, -0.3, 1e4]), AdamState(), config)
        # after bias correction the first update is lr * g/(|g| + eps)
        np.testing.assert_allclose(np.abs(params), 0.01, rtol=1e-5)
        assert np.sign(params).tolist() == [-1.0, 1.0, -1.0]

    def test_minimizes_a_quadratic(self):
        config = TrainConfig(learning_rate=0.1)
        state = AdamState()
        x = np.array([1.0])
        for _ in range(100):
            adam_step(x, 2.0 * x, state, config)
        assert abs(x[0]) < 0.05
        assert state.t == 100

    def test_two_steps_differ_from_one_big_step(self):
        config = TrainConfig(learning_rate=0.5)
        state = AdamState()
        x = np.array([4.0])
        adam_step(x, np.array([1.0]), state, config)
        first = x.copy()
        adam_step(x, np.array([1.0]), state, config)
        assert x[0] < first[0] < 4.0


    def test_blocks_round_as_one_expression_over_the_buffer(self):
        """Over more than two blocks, two steps give what the whole-buffer formula gives, bit for bit."""
        config = TrainConfig(learning_rate=0.01)
        b1, b2, lr, eps = config.beta1, config.beta2, config.learning_rate, config.epsilon
        rng = np.random.default_rng(0)
        n = 2 * trainer.ADAM_BLOCK + 3
        params = rng.normal(size=n)
        want, m, v, state = params.copy(), 0.0, 0.0, AdamState()
        for t in (1, 2):
            g = rng.normal(size=n)
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            want = want - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
            given = g.copy()
            adam_step(params, g, state, config)
            assert g.tobytes() == given.tobytes()  # the gradient is left as it was
        assert params.tobytes() == want.tobytes()

class TestTrainLog:
    def test_csv_shape(self):
        log = TrainLog(epoch_losses=np.array([np.log(2.0), 0.5]))
        assert log.to_csv() == "epoch,loss\n1,0.693147\n2,0.500000\n"


def _toy_data(cfg, n, seed=0):
    return synthetic_dataset(cfg, n, seed=seed)


class TestFit:
    def test_mode_mismatch_rejected(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=0, mode="float32")
        x, y = _toy_data(cfg, 2)
        with pytest.raises(ConfigInvalidError):
            fit(model, x, y, TrainConfig(epochs=1, mode="float64"))

    def test_target_shape_mismatch_rejected(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=0, mode="float64")
        x, _ = _toy_data(cfg, 2)
        with pytest.raises(ConfigInvalidError):
            fit(model, x, np.zeros((2, 5)), TrainConfig(epochs=1))

    def test_zero_learning_rate_freezes_weights_and_loss(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=1, mode="float64")
        before = {k: v.copy() for k, v in model.tensors().items()}
        x, y = _toy_data(cfg, 4, seed=2)
        config = TrainConfig(learning_rate=0.0, batch_size=4, epochs=3)
        log = fit(model, x, y, config)
        # train-mode batch norm sums over the batch in its shuffled order, so
        # losses of different epochs may differ in the last bits; each must
        # equal a fresh forward of the untouched weights over that epoch's order
        orders = SplitMix64(config.seed)
        fresh = build_model(cfg, seed=1, mode="float64")
        for epoch_loss in log.epoch_losses:
            order = orders.shuffled(len(x))
            _, trace, _ = forward_batch(x[order], fresh, bn_mode="train")
            assert epoch_loss == bce_loss(trace["output"], y[order])[0]
        for key, t in model.tensors().items():
            if key.endswith((".bn_mean", ".bn_var")):
                continue  # running statistics move regardless of the optimizer
            np.testing.assert_array_equal(t, before[key])

    def test_float32_fit_continues_past_the_float32_sigmoid_rounding_point(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=0, mode="float32")
        model.set_tensors({"output_dense.bias": np.full(cfg.n_tags, 25.0, dtype=np.float32)})
        x, y = _toy_data(cfg, 2)
        logits, trace, _ = forward_batch(x, model, bn_mode="train")
        assert (logits > 17.0).all() and (trace["output"] == 1.0).all()
        log = fit(model, x, y, TrainConfig(batch_size=2, epochs=1, mode="float32"))
        assert np.isfinite(log.epoch_losses).all()

    def test_same_seed_reproduces_the_run_bit_for_bit(self):
        cfg = tiny_musicnn()
        x, y = _toy_data(cfg, 6, seed=3)
        config = TrainConfig(learning_rate=1e-2, batch_size=3, epochs=4, seed=11)
        a = build_model(cfg, seed=2, mode="float64")
        b = build_model(cfg, seed=2, mode="float64")
        log_a = fit(a, x, y, config)
        log_b = fit(b, x, y, config)
        np.testing.assert_array_equal(log_a.epoch_losses, log_b.epoch_losses)
        for key, t in a.tensors().items():
            np.testing.assert_array_equal(t, b.tensors()[key])

    # sha256 of every tensor after a 2-epoch fit, concatenated in tensors() order
    POST_FIT_SHA256 = {
        ("musicnn", "temporal_pooling", "float64"): "a05082c76576cd26d81212aaa6e9dac21a243b2777bb7f2d6cb001361a1f55ce",
        ("musicnn", "temporal_pooling", "float32"): "842b0940434e93e443aaedb34d226945e61f57f15f8cc5ce1209f72340b3e26a",
        ("musicnn", "attention", "float64"): "7def5623cd771c9836231516cc99595e43002f3fb174f3ac1ed84bbe1c83fa5e",
        ("musicnn", "attention", "float32"): "f187d4351d72168ca7e728e1a3491e309073e5740c195794f80df0d8dd573fdf",
        ("vgg", "temporal_pooling", "float64"): "d347e41e61bad4c71c62bcd25e831ce9dc0480150089ebc1f58431856797ce7e",
        ("vgg", "temporal_pooling", "float32"): "d2304c59d4920561a9a3a4b0b3e94dd02c8089b4ee095eb7bd8a8cf62c3a5957",
    }

    @pytest.mark.parametrize("family, backend, mode", list(POST_FIT_SHA256), ids=map("-".join, POST_FIT_SHA256))
    def test_fit_keeps_its_pinned_bits(self, family, backend, mode):
        """Pins Adam's rounding order and the bn moving averages, which no bench digest covers bit for bit."""
        cfg = toy_model_config(family, backend)
        model = build_model(cfg, seed=3, mode=mode)
        x, y = synthetic_dataset(cfg, 6, seed=4)
        fit(model, x, y, TrainConfig(batch_size=2, epochs=2, seed=5, mode=mode, learning_rate=1e-2))
        got = hashlib.sha256(b"".join(t.tobytes() for t in model.tensors().values())).hexdigest()
        assert got == self.POST_FIT_SHA256[family, backend, mode]

    def test_running_statistics_take_one_ema_step_per_batch(self):
        cfg = tiny_musicnn()
        x, y = _toy_data(cfg, 4, seed=4)
        reference = build_model(cfg, seed=3, mode="float64")
        _, _, cache = forward_batch(x, reference, bn_mode="train")
        batch_stats = network.batch_norm_statistics(cache)

        model = build_model(cfg, seed=3, mode="float64")
        fit(model, x, y, TrainConfig(learning_rate=1e-3, batch_size=4, epochs=1))
        for name, (mean, var) in batch_stats.items():
            layer = model.layer(name)
            np.testing.assert_allclose(layer.bn_mean, 0.1 * mean, atol=1e-12)
            np.testing.assert_allclose(layer.bn_var, 0.9 + 0.1 * var, atol=1e-12)

    def test_learns_to_memorize_random_labels(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=5, mode="float64")
        x, y = _toy_data(cfg, 6, seed=6)
        config = TrainConfig(learning_rate=3e-2, batch_size=6, epochs=100, seed=7)
        log = fit(model, x, y, config)
        assert log.epoch_losses[-1] < 0.1
        assert log.epoch_losses[-1] < 0.25 * log.epoch_losses[:10].mean()

    def test_infer_mode_gradients_reach_every_parameter(self):
        """After a BCE backward pass in inference mode, every tensor must
        receive a nonzero gradient somewhere -- no silently disconnected layers."""
        for family, backend in [
            ("musicnn", "temporal_pooling"),
            ("musicnn", "attention"),
            ("vgg", "temporal_pooling"),
        ]:
            cfg = toy_model_config(family, backend=backend)
            model = build_model(cfg, seed=8, mode="float64")
            x, y = _toy_data(cfg, 3, seed=9)
            logits, trace, cache = forward_batch(x, model, bn_mode="infer")
            _, grad_logits = bce_loss(trace["output"], y)
            grads = network.backward_batch(model, cache, grad_logits)
            for key, grad in grads.items():
                assert np.abs(grad).max() > 0, f"{family}/{backend}: {key}"

    def test_registry_step_peak_memory(self):
        """One MTT_musicnn fit step at batch 2 builds no full-size scratch in the
        backward: a 6-D col2im buffer of every tap plane alone was 39 MB."""
        model = store.load_registry_model("MTT_musicnn")
        x, y = synthetic_dataset(model.config, 2, seed=3)
        config = TrainConfig(batch_size=2, epochs=1, mode=model.mode)
        fit(model, x, y, config)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            fit(model, x, y, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 56 * 2**20, f"fit step peaked at {peak / 2**20:.1f} MiB"

    @pytest.mark.parametrize("name", ["MTT_musicnn", "MSD_musicnn", "MTT_vgg"])
    def test_fit_step_frees_forward_maps_as_backward_uses_them(self, name):
        """backward_batch releases each tape entry, and each block's relu map and
        bn cache, once its rule has run: a step holding them all peaked at
        44.8 / 44.6 / 38.5 MiB."""
        model = store.load_registry_model(name)
        x, y = synthetic_dataset(model.config, 2, seed=3)
        config = TrainConfig(batch_size=2, epochs=1, mode=model.mode)
        fit(model, x, y, config)  # first-call allocations out of the way
        tracemalloc.start()
        try:
            fit(model, x, y, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * 2**20, f"{name} fit step peaked at {peak / 2**20:.1f} MiB"


class TestFitRejectsBadDataUpFront:
    """A bad example anywhere in the set raises before the first batch updates
    the model, and the error names the example."""

    @pytest.mark.parametrize(
        "row, fault, error, message",
        [
            (3, "target", ConfigInvalidError, "example 3"),
            (5, "target", ConfigInvalidError, "example 5"),
            (5, "nan", NumericFaultError, "example 5"),
            (4, "inf", NumericFaultError, "example 4"),
        ],
    )
    def test_model_is_unchanged_after_a_rejected_fit(self, row, fault, error, message):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=4, mode="float64")
        before = {k: v.copy() for k, v in model.tensors().items()}
        x, y = _toy_data(cfg, 6, seed=5)
        if fault == "target":
            y[row, 1] = 0.5
        else:
            x[row, 2, 3] = np.nan if fault == "nan" else np.inf
        with pytest.raises(error) as raised:
            fit(model, x, y, TrainConfig(learning_rate=1e-2, batch_size=1, epochs=1))
        for key, t in model.tensors().items():
            assert t.tobytes() == before[key].tobytes(), key
        assert message in str(raised.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_float32_overflow_on_the_cast_is_rejected(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=4, mode="float32")
        x, y = _toy_data(cfg, 3, seed=5)
        x[2, 0, 0] = 1e300
        with pytest.raises(NumericFaultError, match="example 2"):
            fit(model, x, y, TrainConfig(batch_size=1, epochs=1, mode="float32"))


class TestModelFromName:
    @pytest.mark.parametrize(
        "name, family, backend",
        [
            ("toy_musicnn", "musicnn", "temporal_pooling"),
            ("toy_musicnn_attention", "musicnn", "attention"),
            ("toy_vgg", "vgg", "temporal_pooling"),
        ],
    )
    def test_toy_names_build_their_toy_config(self, name, family, backend):
        model = trainer._model_from_name(name, "float64")
        assert model.config == toy_model_config(family, backend)
        assert model.mode == "float64"
        want = build_model(toy_model_config(family, backend), seed=0, mode="float64")
        assert model.tags == want.tags
        for key, t in model.tensors().items():
            np.testing.assert_array_equal(t, want.tensors()[key])

    def test_registry_names_keep_their_tags(self):
        model = trainer._model_from_name("MTT_musicnn", "float32")
        cfg, tags = store.registry_get("MTT_musicnn")
        assert model.config == cfg and model.tags == tags


class TestSyntheticDataset:
    def test_shapes_and_binary_targets(self):
        cfg = toy_model_config()
        x, y = synthetic_dataset(cfg, 7, seed=1)
        assert x.shape == (7, 16, 12)
        assert y.shape == (7, 5)
        assert set(np.unique(y)) <= {0.0, 1.0}

    def test_seeded_determinism(self):
        cfg = toy_model_config()
        x1, y1 = synthetic_dataset(cfg, 5, seed=2)
        x2, y2 = synthetic_dataset(cfg, 5, seed=2)
        x3, _ = synthetic_dataset(cfg, 5, seed=3)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(y1, y2)
        assert not np.array_equal(x1, x3)


class TestToyConfigs:
    def test_dsp_dimensions(self):
        d = toy_dsp_config()
        assert (d.sample_rate, d.fft_size, d.hop_size) == (4000, 128, 64)
        assert (d.n_mels, d.patch_frames) == (12, 16)

    def test_musicnn_variants(self):
        cfg = toy_model_config()
        assert cfg.family == "musicnn" and cfg.backend == "temporal_pooling"
        assert cfg.n_tags == 5
        att = toy_model_config(backend="attention")
        assert att.backend == "attention"
        assert "attention_dense" in att.layer_shapes()

    def test_vgg_variant(self):
        cfg = toy_model_config("vgg")
        assert cfg.family == "vgg"
        assert cfg.vgg_pool_height_product == 12
        assert cfg.vgg_input_frames == 24  # 16 frames padded up

    def test_all_variants_are_trainable_sizes(self):
        for cfg in (toy_model_config(), toy_model_config(backend="attention"), toy_model_config("vgg")):
            assert sum(t.size for t in build_model(cfg, seed=1).tensors().values()) < 20000


class TestTrainCli:
    def _config_file(self, tmp_path, text, name="train.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_end_to_end(self, tmp_path, capsys):
        config = self._config_file(
            tmp_path,
            "# desk-scale smoke run\n"
            "model toy_musicnn\n"
            "dataset_size 4\n"
            "epochs 2\n"
            "batch_size 4\n"
            "learning_rate 0.005\n"
            "seed 3\n",
        )
        out = tmp_path / "trained.mcn"
        log_path = tmp_path / "log.csv"
        code = cli.main(["train", "--config", str(config), "--out", str(out), "--log", str(log_path)])
        stdout = capsys.readouterr().out
        assert code == 0
        assert stdout.splitlines()[0] == "epoch,loss"
        assert len(stdout.splitlines()) == 3
        assert log_path.read_text() == stdout
        # the trained model must reload and run
        model = load_model(out)
        x, _ = synthetic_dataset(model.config, 1, seed=0)
        logits, _, _ = forward_batch(x, model)
        assert np.isfinite(logits).all()

    def test_is_deterministic_across_runs(self, tmp_path, capsys):
        config = self._config_file(
            tmp_path, "model toy_musicnn\ndataset_size 4\nepochs 2\nbatch_size 4\n"
        )
        out_a, out_b = tmp_path / "a.mcn", tmp_path / "b.mcn"
        assert cli.main(["train", "--config", str(config), "--out", str(out_a)]) == 0
        first = capsys.readouterr().out
        assert cli.main(["train", "--config", str(config), "--out", str(out_b)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_a_byte_order_mark_is_dropped(self, tmp_path, capsys):
        """A BOM used to become part of the first key: "unknown config keys: \\ufeffmodel"."""
        config = tmp_path / "train.cfg"
        config.write_bytes(codecs.BOM_UTF8 + b"model toy_vgg\ndataset_size 2\nepochs 1\nbatch_size 2\n")
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")]) == 0
        assert load_model(tmp_path / "x.mcn").config.family == "vgg"

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        config = self._config_file(tmp_path, "model toy_musicnn\nmomentum 0.9\n")
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")])
        assert code == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_duplicate_key_exits_one(self, tmp_path, capsys):
        config = self._config_file(tmp_path, "model toy_musicnn\nepochs 1\nepochs 3\n")
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")])
        assert code == 1
        assert f"{config}:3: duplicate key 'epochs'" in capsys.readouterr().err
        assert not (tmp_path / "x.mcn").exists()

    def test_unparseable_value_exits_one(self, tmp_path, capsys):
        config = self._config_file(tmp_path, "model toy_musicnn\nepochs ten\n")
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")])
        assert code == 1
        assert "error: epochs" in capsys.readouterr().err
        assert not (tmp_path / "x.mcn").exists()

    @pytest.mark.parametrize("value", ["-2", "0", "ten", "2.5"])
    def test_bad_dataset_size_exits_one_naming_the_key(self, tmp_path, capsys, value):
        config = self._config_file(tmp_path, f"model toy_musicnn\ndataset_size {value}\n")
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")])
        assert code == 1
        assert f"error: dataset_size: want a positive integer, got '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "x.mcn").exists()

    def test_values_parse_to_the_field_types(self, tmp_path, capsys, monkeypatch):
        seen = []

        def spy(model, x, y, config):
            seen.append(config)
            return fit(model, x, y, config)

        monkeypatch.setattr(trainer, "fit", spy)
        config = self._config_file(
            tmp_path, "dataset_size 2\nepochs 1\nbatch_size 2\nlearning_rate 0.01\nmode float32\n"
        )
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")]) == 0
        capsys.readouterr()
        assert seen == [TrainConfig(learning_rate=0.01, batch_size=2, epochs=1, mode="float32")]
        assert type(seen[0].learning_rate) is float and type(seen[0].epochs) is int

    def test_key_without_value_exits_one(self, tmp_path, capsys):
        config = self._config_file(tmp_path, "epochs\n")
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")])
        assert code == 1
        assert f"{config}:1: want 'key value', separated by spaces or tabs" in capsys.readouterr().err

    def test_a_tab_separates_key_and_value(self, tmp_path, capsys):
        """A tab-separated line used to fail with "want 'key value'"."""
        config = self._config_file(tmp_path, "model\ttoy_vgg\ndataset_size \t 2\nepochs\t1\nbatch_size 2\n")
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "x.mcn")]) == 0
        capsys.readouterr()
        assert load_model(tmp_path / "x.mcn").config.family == "vgg"

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "none.cfg"), "--out", str(tmp_path / "x.mcn")])
        assert code == 1
        capsys.readouterr()

    def test_config_flag_required(self):
        assert cli.main(["train", "--out", "x.mcn"]) == 2
