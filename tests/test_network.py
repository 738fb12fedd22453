"""Architecture graphs: shape algebra, trace contracts, and exact gradients."""

import dataclasses
import hashlib
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from meltag import dsp, network, ops, store, tagger, trainer
from meltag.errors import ConfigInvalidError, NumericFaultError, ShapeMismatchError, TapeConsumedError
from meltag.network import (
    MUSICNN_ATTENTION_KEYS,
    MUSICNN_POOLING_KEYS,
    VGG_KEYS,
    ModelConfig,
    build_model,
    forward_batch,
)

from conftest import tiny_dsp, tiny_musicnn, tiny_vgg


class TestConfigAlgebra:
    def test_default_channel_arithmetic(self):
        cfg = ModelConfig()
        assert cfg.frontend_channels == 2 * 51 + 4 * 8
        assert cfg.backend_stack_channels == 134 + 3 * 64

    def test_tiny_channel_arithmetic(self):
        cfg = tiny_musicnn()
        assert cfg.frontend_channels == 2 * 2 + 2 * 1
        assert cfg.backend_stack_channels == 6 + 9

    def test_musicnn_layer_shapes(self):
        cfg = tiny_musicnn()
        shapes = cfg.layer_shapes()
        assert list(shapes) == [
            "input_bn",
            "timbral_0",
            "timbral_1",
            "temporal_0",
            "temporal_1",
            "midend_1",
            "midend_2",
            "midend_3",
            "penultimate_dense",
            "output_dense",
        ]
        # kernel widths are rounded fractions of the mel axis (8 bins here)
        assert shapes["timbral_0"]["weights"] == (2, 1, 7, 7)
        assert shapes["timbral_1"]["weights"] == (2, 1, 7, 3)
        assert shapes["temporal_0"]["weights"] == (1, 1, 5, 1)
        assert shapes["midend_1"]["weights"] == (3, 6, 7, 1)
        assert shapes["midend_2"]["weights"] == (3, 3, 7, 1)
        assert shapes["penultimate_dense"]["weights"] == (4, 30)  # mean+max doubles
        assert shapes["output_dense"]["weights"] == (2, 4)

    def test_attention_layer_shapes(self):
        shapes = tiny_musicnn(backend="attention").layer_shapes()
        assert shapes["attention_dense"]["weights"] == (1, 15)
        assert shapes["penultimate_dense"]["weights"] == (4, 15)  # context only

    def test_vgg_layer_shapes(self):
        cfg = tiny_vgg()
        shapes = cfg.layer_shapes()
        assert list(shapes) == ["block1", "block2", "block3", "block4", "block5", "output_dense"]
        assert shapes["block1"]["weights"] == (2, 1, 3, 3)
        assert shapes["block2"]["weights"] == (2, 2, 3, 3)
        assert cfg.vgg_final_extent == (1, 1)
        assert shapes["output_dense"]["weights"] == (2, 2)

    def test_vgg_frame_padding_rounds_up(self):
        cfg = ModelConfig(family="vgg")
        assert cfg.vgg_pool_height_product == 2 * 2 * 2 * 4 * 6
        assert cfg.vgg_input_frames == 192  # 187 frames padded to the next multiple
        assert cfg.vgg_final_extent == (1, 1)

    def test_parameter_count_matches_built_model(self):
        for cfg in (tiny_musicnn(), tiny_musicnn(backend="attention"), tiny_vgg()):
            model = build_model(cfg, seed=1)
            shapes = [s for tensors in cfg.layer_shapes().values() for s in tensors.values()]
            assert sum(t.size for t in model.tensors().values()) == sum(map(math.prod, shapes))

    @pytest.mark.parametrize(
        "cfg",
        [pytest.param(store.registry_get(name)[0], id=name) for name in store.MODEL_NAMES]
        + [
            pytest.param(trainer.toy_model_config(family, backend), id=f"toy_{family}_{backend}")
            for family, backend in [
                ("musicnn", "temporal_pooling"), ("musicnn", "attention"), ("vgg", "temporal_pooling")
            ]
        ],
    )
    def test_only_output_dense_has_a_bias(self, cfg):
        # a batch norm subtracts any per-channel constant and a softmax ignores a shift of its scores,
        # so a bias feeding either (every layer with bn tensors, attention_dense) could not change a logit
        shapes = cfg.layer_shapes()
        assert [name for name, tensors in shapes.items() if "bias" in tensors] == ["output_dense"]
        assert "bn_gamma" not in shapes["output_dense"]

    def test_trace_keys_per_variant(self):
        assert tiny_musicnn().trace_keys() == MUSICNN_POOLING_KEYS
        assert tiny_musicnn(backend="attention").trace_keys() == MUSICNN_ATTENTION_KEYS
        assert tiny_vgg().trace_keys() == VGG_KEYS


class TestConfigValidation:
    def test_unknown_family(self):
        with pytest.raises(ConfigInvalidError):
            ModelConfig(family="transformer")

    def test_unknown_backend(self):
        with pytest.raises(ConfigInvalidError):
            tiny_musicnn(backend="gap")

    def test_even_temporal_length(self):
        with pytest.raises(ConfigInvalidError):
            tiny_musicnn(temporal_filter_lengths=(4,))

    def test_too_few_mels_for_the_timbral_kernels(self):
        with pytest.raises(ConfigInvalidError, match="timbral"):
            tiny_musicnn(dsp=tiny_dsp(n_mels=1))

    def test_nonpositive_tags(self):
        with pytest.raises(ConfigInvalidError):
            tiny_musicnn(n_tags=0)

    def test_vgg_pool_widths_must_divide_mels(self):
        with pytest.raises(ConfigInvalidError):
            tiny_vgg(vgg_pool_shapes=((2, 3), (2, 2), (1, 1), (1, 2), (2, 1)))

    def test_vgg_needs_five_blocks(self):
        with pytest.raises(ConfigInvalidError):
            tiny_vgg(vgg_block_channels=(2, 2, 2))


class TestBuildModel:
    def test_same_seed_is_bit_identical(self):
        a = build_model(tiny_musicnn(), seed=7)
        b = build_model(tiny_musicnn(), seed=7)
        for key, t in a.tensors().items():
            np.testing.assert_array_equal(t, b.tensors()[key])

    def test_different_seeds_differ(self):
        a = build_model(tiny_musicnn(), seed=7)
        b = build_model(tiny_musicnn(), seed=8)
        assert any(not np.array_equal(t, b.tensors()[k]) for k, t in a.tensors().items())

    def test_zeros_init_and_bn_identity(self):
        model = build_model(tiny_musicnn(), init="zeros")
        layer = model.layer("timbral_0")
        assert not layer.weights.any() and not model.layer("output_dense").bias.any()
        np.testing.assert_array_equal(layer.bn_gamma, 1.0)
        np.testing.assert_array_equal(layer.bn_var, 1.0)
        assert not layer.bn_mean.any() and not layer.bn_beta.any()

    def test_random_init_keeps_bias_zero_and_bn_identity(self):
        model = build_model(tiny_vgg(), seed=3)
        layer = model.layer("block2")
        assert layer.weights.std() > 0
        assert not model.layer("output_dense").bias.any()
        np.testing.assert_array_equal(layer.bn_gamma, 1.0)

    def test_default_tags_and_dtype(self):
        model = build_model(tiny_musicnn(n_tags=3), mode="float64")
        assert model.tags == ("tag_00", "tag_01", "tag_02")
        assert all(t.dtype == np.float64 for t in model.tensors().values())

    def test_unknown_init_rejected(self):
        with pytest.raises(ConfigInvalidError):
            build_model(tiny_musicnn(), init="xavier")

    def test_tag_count_mismatch_rejected(self):
        with pytest.raises(ConfigInvalidError):
            build_model(tiny_musicnn(), tags=("just_one",))

    def test_duplicate_tags_rejected(self):
        with pytest.raises(ConfigInvalidError):
            build_model(tiny_musicnn(), tags=("same", "same"))

    @pytest.mark.parametrize("tag", ["b\rc", "b\nc", "b\r", "b\x0bc", "b\x1cc", "b\x85c", "b\u2028c"])
    def test_a_tag_with_a_line_break_is_rejected(self, tag):
        """A saved manifest holds one tag a line, so such a tag would not load back."""
        with pytest.raises(ConfigInvalidError, match=re.escape(repr(tag))):
            build_model(tiny_musicnn(), tags=("a", tag))

    def test_unknown_numeric_mode_rejected(self):
        """An unknown mode used to give a float32 model carrying that mode."""
        model = build_model(tiny_musicnn(), seed=1)
        with pytest.raises(ConfigInvalidError, match="float16"):
            build_model(tiny_musicnn(), mode="float16")
        with pytest.raises(ConfigInvalidError, match="bogus"):
            model.astype("bogus")
        with pytest.raises(ConfigInvalidError, match="float16"):
            network.Model(model.config, model.buffer, model.tags, mode="float16")

    @pytest.mark.parametrize("layer, channels", [("input_bn", 1), ("timbral_0", 2)])
    def test_a_tensor_the_config_does_not_list_is_rejected(self, layer, channels):
        """A tensor the config does not list cannot be attached after construction: the forward
        would add a stale block bias that the backward never trains, and the file would not load."""
        model = build_model(tiny_musicnn(), seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.layer(layer).bias = np.zeros(channels, np.float32)
        assert model.layer(layer).bias is None

    @pytest.mark.parametrize("field_name, shape", [("bias", (2,)), ("weights", (2, 1, 3, 3))])
    def test_a_layer_tensor_cannot_be_rebound(self, field_name, shape):
        """A rebound tensor used to reach the forward unchecked and got no gradient (vgg block1 has no
        bias); values change only by writes into the buffer's views."""
        model = build_model(tiny_vgg(), seed=1)
        before = model.buffer.copy()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model.layer("block1"), field_name, np.full(shape, 3.0, np.float32))
        assert model.layer("block1").bias is None
        assert np.shares_memory(model.layer("block1").weights, model.buffer)
        np.testing.assert_array_equal(model.buffer, before)

    def test_a_model_field_cannot_be_rebound(self):
        """A rebound buffer used to be saved while the forward still read the old views, and a rebound
        mode changed the dtype the forward cast its input to."""
        model = build_model(tiny_vgg(), seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.buffer = np.zeros_like(model.buffer)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.mode = "float64"
        assert np.shares_memory(model.layer("output_dense").weights, model.buffer) and model.mode == "float32"

    @pytest.mark.parametrize(
        "bad",
        [
            lambda n: np.zeros(n + 1, np.float32),
            lambda n: np.zeros(n, np.float64),
            lambda n: np.zeros((n, 1), np.float32),
            lambda n: np.zeros(2 * n, np.float32)[::2],
        ],
        ids=["size", "dtype", "rank", "strided"],
    )
    def test_a_buffer_that_does_not_fit_the_config_is_rejected(self, bad):
        model = build_model(tiny_musicnn(), seed=1)
        with pytest.raises(ShapeMismatchError, match="buffer"):
            network.Model(model.config, bad(model.buffer.size), model.tags)

    def test_set_tensors_checks_shapes(self):
        model = build_model(tiny_musicnn(), seed=1)
        with pytest.raises(ShapeMismatchError):
            model.set_tensors({"output_dense.bias": np.zeros(5)})

    @pytest.mark.parametrize("key", ["nope.weights", "output_dense.foo", "weights"])
    def test_set_tensors_names_an_unknown_key(self, key):
        """These used to raise KeyError, AttributeError and a ValueError from unpacking."""
        model = build_model(trainer.toy_model_config(), seed=1)
        with pytest.raises(ShapeMismatchError, match=re.escape(repr(key))):
            model.set_tensors({key: np.zeros(5)})

    def test_tensors_is_a_snapshot(self):
        """grad_check (criterion 01) perturbs its inputs through set_tensors: views would move them too."""
        cfg = trainer.toy_model_config()
        model = build_model(cfg, seed=1, mode="float64")
        snapshots = [model.tensors()]
        saved = [b"".join(t.tobytes() for t in snapshots[0].values())]
        model.set_tensors({key: t + 1e-3 for key, t in model.tensors().items()})
        snapshots.append(model.tensors())
        saved.append(b"".join(t.tobytes() for t in snapshots[1].values()))
        x, y = trainer.synthetic_dataset(cfg, 4, seed=2)
        trainer.fit(model, x, y, trainer.TrainConfig(batch_size=2, epochs=1, learning_rate=1e-2))
        for snapshot, want in zip(snapshots, saved):
            assert b"".join(t.tobytes() for t in snapshot.values()) == want
        assert b"".join(t.tobytes() for t in model.tensors().values()) not in saved

    def test_set_tensors_stores_c_order(self):
        # ops promise layout-free bits only for C-order parameters
        model = build_model(trainer.toy_model_config(), seed=1)
        patches, _ = trainer.synthetic_dataset(model.config, 3, seed=0)
        before = network.infer_batch(patches, model)[0]
        weights = model.tensors()["output_dense.weights"]
        model.set_tensors({"output_dense.weights": np.asfortranarray(weights)})
        assert model.tensors()["output_dense.weights"].flags.c_contiguous
        assert network.infer_batch(patches, model)[0].tobytes() == before.tobytes()

    def test_astype_round_trip_preserves_values(self):
        model = build_model(tiny_musicnn(), seed=2)
        widened = model.astype("float64")
        assert widened.mode == "float64"
        for key, t in model.tensors().items():
            w = widened.tensors()[key]
            assert w.dtype == np.float64
            np.testing.assert_array_equal(w.astype(np.float32), t)


def _patch(cfg, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(cfg.dsp.patch_frames, cfg.dsp.n_mels))


def _trace(patch, model) -> dict:
    """The infer-mode trace of one patch, without the batch axis."""
    return {k: v[0] for k, v in forward_batch(patch, model)[1].items()}


class TestForward:
    def test_pooling_trace_keys_and_shapes(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=1)
        trace = _trace(_patch(cfg), model)
        assert set(trace) == MUSICNN_POOLING_KEYS
        t = cfg.dsp.patch_frames
        assert trace["timbral"].shape == (4, t)
        assert trace["temporal"].shape == (2, t)
        for key in ("cnn1", "cnn2", "cnn3"):
            assert trace[key].shape == (3, t)
        assert trace["mean_pool"].shape == (15,)
        assert trace["max_pool"].shape == (15,)
        assert trace["penultimate"].shape == (4,)
        assert trace["output"].shape == (2,)

    def test_attention_trace_keys_and_shapes(self):
        cfg = tiny_musicnn(backend="attention")
        model = build_model(cfg, seed=1)
        trace = _trace(_patch(cfg), model)
        assert set(trace) == MUSICNN_ATTENTION_KEYS
        assert trace["attention_weights"].shape == (cfg.dsp.patch_frames,)
        assert trace["context"].shape == (15,)

    def test_vgg_trace_keys_and_shapes(self):
        cfg = tiny_vgg()
        model = build_model(cfg, seed=1)
        trace = _trace(_patch(cfg), model)
        assert set(trace) == VGG_KEYS
        assert trace["pool1"].shape == (2, 4, 4)
        assert trace["pool2"].shape == (2, 2, 2)
        assert trace["pool5"].shape == (2, 1, 1)

    def test_default_vgg_pads_frames_before_pooling(self):
        cfg = ModelConfig(family="vgg")
        model = build_model(cfg, seed=0)
        patch = np.random.default_rng(0).normal(size=(187, 96))
        trace = _trace(patch, model)
        assert trace["pool1"].shape == (32, 96, 48)  # 192 padded frames / 2

    def test_output_is_sigmoid_of_logits(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=4, mode="float64")
        logits, trace, _ = forward_batch(_patch(cfg), model)
        np.testing.assert_allclose(trace["output"], ops.sigmoid(logits), rtol=1e-12)
        assert ((trace["output"] > 0) & (trace["output"] < 1)).all()

    def test_pooling_backend_reduces_the_feature_stack(self):
        """mean_pool/max_pool must be exactly the time-reduction of the
        concatenated front-end + mid-end maps exposed in the same trace."""
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=5, mode="float64")
        trace = _trace(_patch(cfg), model)
        stack = np.concatenate(
            [trace["timbral"], trace["temporal"], trace["cnn1"], trace["cnn2"], trace["cnn3"]]
        )
        np.testing.assert_allclose(trace["mean_pool"], stack.mean(axis=1), rtol=1e-12)
        np.testing.assert_allclose(trace["max_pool"], stack.max(axis=1), rtol=1e-12)

    def test_attention_weights_form_a_distribution(self):
        cfg = tiny_musicnn(backend="attention")
        model = build_model(cfg, seed=6, mode="float64")
        trace = _trace(_patch(cfg), model)
        w = trace["attention_weights"]
        assert (w > 0).all()
        assert abs(w.sum() - 1.0) < 1e-12

    def test_context_is_the_attention_weighted_stack(self):
        cfg = tiny_musicnn(backend="attention")
        model = build_model(cfg, seed=6, mode="float64")
        trace = _trace(_patch(cfg), model)
        stack = np.concatenate(
            [trace["timbral"], trace["temporal"], trace["cnn1"], trace["cnn2"], trace["cnn3"]]
        )
        np.testing.assert_allclose(trace["context"], stack @ trace["attention_weights"], rtol=1e-10)

    def test_residual_connections_skip_zeroed_blocks(self):
        """With mid-end blocks 2 and 3 zeroed out, their relu(bn(0)) output is
        zero and the residual path must carry cnn1 through unchanged."""
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=7, mode="float64")
        for name in ("midend_2", "midend_3"):
            layer = model.layer(name)
            model.set_tensors(
                {
                    f"{name}.weights": np.zeros_like(layer.weights),
                    f"{name}.bn_beta": np.zeros_like(layer.bn_beta),
                    f"{name}.bn_mean": np.zeros_like(layer.bn_mean),
                }
            )
        trace = _trace(_patch(cfg), model)
        assert trace["cnn1"].any()
        np.testing.assert_array_equal(trace["cnn2"], trace["cnn1"])
        np.testing.assert_array_equal(trace["cnn3"], trace["cnn1"])

    def test_batch_rows_are_independent_in_infer_mode(self):
        cfg = tiny_musicnn(backend="attention")
        model = build_model(cfg, seed=8)
        batch = np.stack([_patch(cfg, s) for s in range(3)])
        logits, trace, _ = forward_batch(batch, model)
        for i in range(3):
            single, single_trace, _ = forward_batch(batch[i], model)
            np.testing.assert_array_equal(logits[i], single[0])
            np.testing.assert_array_equal(trace["output"][i], single_trace["output"][0])

    def test_accepted_input_ranks(self):
        cfg = tiny_vgg()
        model = build_model(cfg, seed=9)
        p = _patch(cfg)
        a, _, _ = forward_batch(p, model)  # [T, M]
        b, _, _ = forward_batch(p[None], model)  # [1, T, M]
        c, _, _ = forward_batch(p[None, None], model)  # [1, 1, T, M]
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(b, c)

    def test_wrong_patch_shape_rejected(self):
        model = build_model(tiny_musicnn(), seed=0)
        with pytest.raises(ShapeMismatchError):
            forward_batch(np.zeros((5, 8)), model)
        with pytest.raises(ShapeMismatchError):
            forward_batch(np.zeros((8, 9)), model)
        with pytest.raises(ShapeMismatchError):
            forward_batch(np.zeros((1, 1, 1, 8, 8)), model)

    def test_unknown_bn_mode_rejected(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=0)
        with pytest.raises(ConfigInvalidError):
            forward_batch(_patch(cfg), model, bn_mode="frozen")

    def test_forward_is_deterministic(self):
        cfg = tiny_vgg()
        model = build_model(cfg, seed=10)
        p = _patch(cfg)
        np.testing.assert_array_equal(_trace(p, model)["output"], _trace(p, model)["output"])


class TestNumericFaults:
    @pytest.mark.parametrize(
        "key, bn_mode, op",
        [
            ("output_dense.weights", "infer", "dense"),
            ("input_bn.bn_gamma", "infer", "batchnorm_infer"),
            ("input_bn.bn_gamma", "train", "batchnorm_train"),
        ],
    )
    def test_fault_names_its_layer(self, key, bn_mode, op):
        model = build_model(trainer.toy_model_config(), seed=1)
        bad = model.tensors()[key].copy()
        bad.flat[0] = np.nan
        model.set_tensors({key: bad})
        patches, _ = trainer.synthetic_dataset(model.config, 2, seed=0)
        layer = key.split(".")[0]
        with pytest.raises(NumericFaultError, match=rf"^{layer}: {op} produced non-finite values"):
            forward_batch(patches, model, bn_mode=bn_mode)


class TestTrainMode:
    def test_train_forward_matches_infer_when_stats_agree(self):
        """Loading the recorded batch statistics into the running-stat slots
        must make an infer-mode pass reproduce the train-mode activations."""
        cfg = tiny_musicnn(backend="attention")
        model = build_model(cfg, seed=11, mode="float64")
        batch = np.stack([_patch(cfg, s) for s in range(4)])
        train_logits, _, cache = forward_batch(batch, model, bn_mode="train")
        for name, (mean, var) in network.batch_norm_statistics(cache).items():
            model.set_tensors({f"{name}.bn_mean": mean, f"{name}.bn_var": var})
        infer_logits, _, _ = forward_batch(batch, model, bn_mode="infer")
        np.testing.assert_allclose(infer_logits, train_logits, atol=1e-10)

    def test_train_mode_statistics_cover_every_bn_layer(self):
        cfg = tiny_vgg()
        model = build_model(cfg, seed=12)
        batch = np.stack([_patch(cfg, s) for s in range(2)])
        _, _, cache = forward_batch(batch, model, bn_mode="train")
        stats = network.batch_norm_statistics(cache)
        assert set(stats) == {f"block{i}" for i in range(1, 6)}
        for mean, var in stats.values():
            assert mean.shape == (2,) and var.shape == (2,)
            assert (var >= 0).all()

    def test_musicnn_statistics_keys(self):
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=13)
        batch = np.stack([_patch(cfg, s) for s in range(2)])
        _, _, cache = forward_batch(batch, model, bn_mode="train")
        assert set(network.batch_norm_statistics(cache)) == {
            "input_bn",
            "timbral_0",
            "timbral_1",
            "temporal_0",
            "temporal_1",
            "midend_1",
            "midend_2",
            "midend_3",
            "penultimate_dense",
        }


# the parameter with a structurally zero train-mode gradient: the input
# scale is normalized away by the next layers' batch statistics
TRAIN_DEAD_KEYS = frozenset({"input_bn.bn_gamma"})


def _random_bn(model, seed):
    """Every bn layer gets random beta, mean and var and a gamma of mixed
    sign, so infer-mode pooling needs both its max and its min branch."""
    rng = np.random.default_rng(seed)
    values = {}
    for key, t in model.tensors().items():
        if key.endswith(".bn_gamma"):
            values[key] = rng.choice([-1.0, 1.0], t.shape) * rng.uniform(0.5, 1.5, t.shape)
        elif key.endswith((".bn_beta", ".bn_mean")):
            values[key] = rng.normal(scale=0.5, size=t.shape)
        elif key.endswith(".bn_var"):
            values[key] = rng.uniform(0.5, 2.0, t.shape)
    model.set_tensors(values)


def _network_grad_check(cfg, bn_mode, tolerance=1e-5, bn_seed=None):
    """Finite-difference check of backward_batch through the whole graph.

    Running statistics participate as differentiable inputs in infer mode;
    in train mode they are unused, so they are held out of the check, as is
    the structurally dead input scale, whose ~0/~0 entry would only measure
    noise against the relative-error floor. bn_seed swaps the identity bn
    tensors for _random_bn's.
    """
    model = build_model(cfg, seed=21, mode="float64")
    if bn_seed is not None:
        _random_bn(model, bn_seed)
    batch = np.stack([_patch(cfg, s) for s in range(2)])
    rng = np.random.default_rng(0)
    r = rng.normal(size=(2, cfg.n_tags))
    inputs = model.tensors()
    if bn_mode == "train":
        skip = {k for k in inputs if k.endswith((".bn_mean", ".bn_var"))}
        skip |= TRAIN_DEAD_KEYS
        inputs = {k: v for k, v in inputs.items() if k not in skip}

    def f(tensors):
        model.set_tensors(tensors)
        logits, _, cache = forward_batch(batch, model, bn_mode=bn_mode)
        grads = network.backward_batch(model, cache, r)
        return float((logits * r).sum()), grads

    return ops.grad_check(f, inputs, tolerance=tolerance)


class TestGradients:
    def test_pooling_network_gradients(self):
        report = _network_grad_check(tiny_musicnn(), "infer")
        assert report.passed, str(report)

    def test_attention_network_gradients(self):
        report = _network_grad_check(tiny_musicnn(backend="attention"), "infer")
        assert report.passed, str(report)

    def test_vgg_network_gradients(self):
        report = _network_grad_check(tiny_vgg(), "infer")
        assert report.passed, str(report)

    @pytest.mark.parametrize("cfg", [tiny_musicnn(), tiny_vgg()], ids=["musicnn", "vgg"])
    def test_infer_gradients_with_negative_gammas(self, cfg):
        # infer mode pools first and takes a min-pool where gamma < 0;
        # backward rebuilds the full relu maps to route through the pools
        report = _network_grad_check(cfg, "infer", bn_seed=5)
        assert report.passed, str(report)

    def test_train_mode_gradients(self):
        # batch statistics couple the examples, and elements gated off by
        # relu read as noise against the rel-error floor; the norm backward
        # formula itself is held to 1e-5 at op level, so 1e-3 here only has
        # to catch graph-level wiring bugs (which show up at O(1))
        report = _network_grad_check(tiny_musicnn(), "train", tolerance=1e-3)
        assert report.passed, str(report)

    def test_train_mode_dead_parameters_get_zero_gradients(self):
        """Batch statistics absorb a per-channel scale of their input, so the
        input scale must come back with an analytically zero gradient -- a
        sharp check on the backward."""
        cfg = tiny_musicnn()
        model = build_model(cfg, seed=21, mode="float64")
        batch = np.stack([_patch(cfg, s) for s in range(2)])
        logits, _, cache = forward_batch(batch, model, bn_mode="train")
        r = np.random.default_rng(0).normal(size=logits.shape)
        grads = network.backward_batch(model, cache, r)
        live_scale = max(np.abs(g).max() for g in grads.values())
        assert live_scale > 1e-2  # the check is vacuous on an all-dead graph
        for key in sorted(TRAIN_DEAD_KEYS):
            # exact zero up to the rounding left by summed canceling terms
            assert np.abs(grads[key]).max() < 1e-6 * live_scale, key

    def test_gradients_cover_every_tensor_in_infer_mode(self):
        cfg = tiny_vgg()
        model = build_model(cfg, seed=22, mode="float64")
        logits, _, cache = forward_batch(_patch(cfg), model)
        grads = network.backward_batch(model, cache, np.ones_like(logits))
        assert set(grads) == set(model.tensors())


# x shape, kernel shape, padding, pool: the timbral max over frequency and
# two vgg max-pool windows
POOLED_BLOCKS = {
    "timbral": ((3, 1, 8, 10), (5, 1, 7, 4), (3, 0), lambda z: ops.pool_max_over_axis(z, 3)),
    "vgg_2x2": ((3, 2, 12, 6), (5, 2, 3, 3), (1, 1), lambda z: ops.pool_max(z, 2, 2)),
    "vgg_6x3": ((3, 2, 12, 6), (5, 2, 3, 3), (1, 1), lambda z: ops.pool_max(z, 6, 3)),
}


class TestPoolFirst:
    @pytest.mark.parametrize("tape", ["tape", "no_tape"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("block", sorted(POOLED_BLOCKS))
    def test_infer_block_equals_conv_bn_relu_pool_bit_for_bit(self, block, dtype, tape):
        # with no tape conv2d pools each example's map. The gammas include 0
        # and values < 0, whose min-pool branch no registry model reaches
        x_shape, w_shape, pad, pool = POOLED_BLOCKS[block]
        rng = np.random.default_rng(31)
        c = w_shape[0]
        layer = ops.LayerParams(
            "block",
            weights=rng.normal(size=w_shape).astype(dtype),
            bias=rng.normal(size=c).astype(dtype),
            bn_gamma=np.array([1.3, -0.7, 0.0, 2.1, -1.9], dtype=dtype),
            bn_beta=rng.normal(size=c).astype(dtype),
            bn_mean=rng.normal(size=c).astype(dtype),
            bn_var=rng.uniform(0.2, 2.0, c).astype(dtype),
        )
        x = rng.normal(size=x_shape).astype(dtype)
        full = ops.batchnorm_infer(ops.conv2d(x, layer, *pad), layer)
        want = pool(ops.relu(full))
        got = network._conv_bn_relu_forward(x, layer, *pad, "infer", {} if tape == "tape" else None, pool)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestInferBatch:
    @pytest.mark.parametrize("mode", ["float32", "float64"])
    @pytest.mark.parametrize(
        "family, backend",
        [("musicnn", "temporal_pooling"), ("musicnn", "attention"), ("vgg", "temporal_pooling")],
    )
    def test_no_tape_forward_equals_the_recording_forward(self, family, backend, mode):
        cfg = trainer.toy_model_config(family, backend)
        model = build_model(cfg, seed=23, mode=mode)
        _random_bn(model, 6)
        patches, _ = trainer.synthetic_dataset(cfg, 4, seed=2)
        logits, trace, tape = forward_batch(patches, model)
        got_logits, got = network.infer_batch(patches, model)
        assert tape and got_logits.tobytes() == logits.tobytes()
        assert set(got) == set(trace)
        for key, want in trace.items():
            assert (got[key].dtype, got[key].shape) == (want.dtype, want.shape), key
            assert got[key].tobytes() == want.tobytes(), key


def _c_ordered_copy(value):
    """Deep copy of a forward cache with every array laid out C-contiguous."""
    if isinstance(value, np.ndarray):
        return np.array(value, order="C")
    if isinstance(value, dict):
        return {k: _c_ordered_copy(v) for k, v in value.items()}
    if isinstance(value, (tuple, list)):
        return type(value)(_c_ordered_copy(v) for v in value)
    return value


class TestCacheLayout:
    @pytest.mark.parametrize("mode", ["float32", "float64"])
    @pytest.mark.parametrize("bn_mode", ["infer", "train"])
    @pytest.mark.parametrize(
        "family, backend",
        [("musicnn", "temporal_pooling"), ("musicnn", "attention"), ("vgg", "temporal_pooling")],
    )
    def test_backward_bits_do_not_depend_on_the_cache_layout(self, family, backend, bn_mode, mode):
        # conv maps are cached as width-major views; the gradients must be
        # the ones a C-ordered cache gives, byte for byte
        cfg = trainer.toy_model_config(family, backend)
        model = build_model(cfg, seed=23, mode=mode)
        _random_bn(model, 6)
        patches, _ = trainer.synthetic_dataset(cfg, 4, seed=2)
        logits, _, cache = forward_batch(patches, model, bn_mode=bn_mode)
        copied = _c_ordered_copy(cache)
        r = np.random.default_rng(1).normal(size=logits.shape)
        want = network.backward_batch(model, copied, r)
        got = network.backward_batch(model, cache, r)
        assert set(got) == set(want)
        for key in sorted(got):
            assert got[key].dtype == want[key].dtype and got[key].shape == want[key].shape, key
            assert got[key].tobytes() == want[key].tobytes(), key


class TestTapeConsumption:
    """backward_batch consumes its tape: every entry is released, and a second
    read of the tape raises a named error instead of a TypeError on None."""

    @staticmethod
    def _recorded(family, backend, bn_mode):
        cfg = trainer.toy_model_config(family, backend)
        model = build_model(cfg, seed=23, mode="float64")
        patches, _ = trainer.synthetic_dataset(cfg, 3, seed=2)
        logits, _, tape = forward_batch(patches, model, bn_mode=bn_mode)
        return model, tape, np.random.default_rng(1).normal(size=logits.shape)

    @pytest.mark.parametrize("bn_mode", ["infer", "train"])
    @pytest.mark.parametrize(
        "family, backend",
        [("musicnn", "temporal_pooling"), ("musicnn", "attention"), ("vgg", "temporal_pooling")],
    )
    def test_backward_releases_every_entry_and_cached_map(self, family, backend, bn_mode):
        model, tape, r = self._recorded(family, backend, bn_mode)
        n = len(tape)
        caches = [saved for _, _, _, saved, _ in tape if isinstance(saved, dict)]
        network.backward_batch(model, tape, r)
        assert n and tape == [None] * n
        # each rule pops its maps as it uses them, so none outlives its own rule
        assert caches and not any({"relu_out", "bn_cache", "bn_input", "x"} & set(c) for c in caches)

    def test_a_second_backward_raises(self):
        model, tape, r = self._recorded("musicnn", "temporal_pooling", "train")
        network.backward_batch(model, tape, r)
        with pytest.raises(TapeConsumedError, match="consumed"):
            network.backward_batch(model, tape, r)

    def test_statistics_of_a_consumed_tape_raise(self):
        model, tape, r = self._recorded("vgg", "temporal_pooling", "train")
        assert network.batch_norm_statistics(tape)  # readable before backward
        network.backward_batch(model, tape, r)
        with pytest.raises(TapeConsumedError, match="consumed"):
            network.batch_norm_statistics(tape)


def _gradient_digest(model, patches, bn_mode):
    """sha256 over the logits and every backward_batch gradient, in key order."""
    logits, _, cache = forward_batch(patches, model, bn_mode=bn_mode)
    r = np.random.default_rng(1).normal(size=logits.shape)
    grads = network.backward_batch(model, cache, r)
    h = hashlib.sha256(logits.tobytes())
    for key in sorted(grads):
        h.update(key.encode())
        h.update(grads[key].tobytes())
    return h.hexdigest()


def _registry_digest(name):
    model = store.load_registry_model(name)
    patches, _ = trainer.synthetic_dataset(model.config, 2, seed=2)
    return _gradient_digest(model, patches, "train")


# Pinned on x86-64 with OpenBLAS; a BLAS with other kernels may round the
# conv and dense products differently.
TOY_GRADIENT_SHA256 = {
    ("musicnn", "temporal_pooling", "infer", "float32"): "2239412d58a502cebe7d454e91c9d9cfe7f8ad975c77b78a36908c7babd62d06",
    ("musicnn", "temporal_pooling", "infer", "float64"): "1e1e48ab7781603275f2ff18291293323d17e8e0d14c9e78bfc5132404f9890f",
    ("musicnn", "temporal_pooling", "train", "float32"): "7c32c5778cf5fd919b581f35d869652f12c4f7381e95bd7461d530c976eb83de",
    ("musicnn", "temporal_pooling", "train", "float64"): "b00d9b20fe41fd4479fd3e8d89768303f77ef2bf61cb2d1caed0871ccdeb32bc",
    ("musicnn", "attention", "infer", "float32"): "4c40123a3855fd6a01a8d83f4e8b81606f73ca6fbe2b3d23693d5f11123b02c8",
    ("musicnn", "attention", "infer", "float64"): "929dd69af9368be5b203e2567ce913dae8417db039994b08efcbe8679ebae15a",
    ("musicnn", "attention", "train", "float32"): "2a61b5117e4e69f71e766b8c0fd850671abad453b2d68179278d4bde363f39db",
    ("musicnn", "attention", "train", "float64"): "0c15e548426af4fcd7428a703ee8e66aeb90d6fd7dbdc5c7a2a8975643538658",
    ("vgg", "temporal_pooling", "infer", "float32"): "d334a9f4e1be924f853c6afcecbb8128e25436185eb5badefeaca4b7404553d7",
    ("vgg", "temporal_pooling", "infer", "float64"): "2ded9c7ebd74486fa32c31addf98def0a38abb8e5e1c2cd2defccf64845dbb54",
    ("vgg", "temporal_pooling", "train", "float32"): "2f8145194058f645156e46373711e634127cb38371b34b3eff3a28545997368f",
    ("vgg", "temporal_pooling", "train", "float64"): "754a7d892aa9b64d8a219f572b03a135c7bc4841984ec09ef51b79a8d9239215",
}
# OpenBLAS splits the registry models' products across threads in a way that
# moves their bits, so these are pinned on one thread.
REGISTRY_GRADIENT_SHA256 = {
    "MTT_musicnn": "d9348d67308d0d8672e975bf492963ab84bdacff56b3cd6a0f07f830e1cf7610",
    "MTT_vgg": "edfa90acd709b74961dbb3cf8817cf850d416b770f4451f37d663368760a4502",
}


class TestGradientBits:
    """Gradient values pinned across commits: a refactor of the backward
    must reproduce every bit, not only pass the finite-difference checks."""

    @pytest.mark.parametrize("mode", ["float32", "float64"])
    @pytest.mark.parametrize("bn_mode", ["infer", "train"])
    @pytest.mark.parametrize(
        "family, backend",
        [("musicnn", "temporal_pooling"), ("musicnn", "attention"), ("vgg", "temporal_pooling")],
    )
    def test_toy_gradients_keep_their_bits(self, family, backend, bn_mode, mode):
        cfg = trainer.toy_model_config(family, backend)
        model = build_model(cfg, seed=23, mode=mode)
        _random_bn(model, 6)
        patches, _ = trainer.synthetic_dataset(cfg, 4, seed=2)
        digest = _gradient_digest(model, patches, bn_mode)
        assert digest == TOY_GRADIENT_SHA256[(family, backend, bn_mode, mode)]

    @pytest.mark.parametrize("name", ["MTT_musicnn", "MTT_vgg"])
    def test_registry_train_gradients_keep_their_bits(self, name):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        code = "import sys, test_network; print(test_network._registry_digest(sys.argv[1]))"
        child = subprocess.run(
            [sys.executable, "-c", code, name],
            cwd=Path(__file__).parent, env=env, capture_output=True, text=True, check=True,
        )
        assert child.stdout.strip() == REGISTRY_GRADIENT_SHA256[name]


class TestInferMemory:
    @pytest.mark.parametrize("name, limit_mib", [("MTT_vgg", 160), ("MTT_musicnn", 120)])
    def test_forward_peak_of_20_patches(self, name, limit_mib):
        """Pooled blocks run bn and relu on the pooled map only, so the conv
        output is the one full-size map each of them allocates."""
        model = store.load_registry_model(name)
        cfg = model.config.dsp
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(20, 1, cfg.patch_frames, cfg.n_mels)).astype(np.float32)
        tracemalloc.start()
        try:
            forward_batch(batch, model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20, f"{name} forward peaked at {peak / 2**20:.0f} MiB"

    @pytest.mark.parametrize("name", ["MTT_musicnn", "MTT_vgg"])
    def test_taggram_peak_does_not_grow_with_clip_length(self, name, monkeypatch):
        """No tape, conv maps pooled per example and only `output` kept per
        batch: 200 patches peak within 10 % of 20 (network side only)."""
        model = store.load_registry_model(name)
        cfg = model.config.dsp
        peaks = []
        for n in (20, 200):
            patches = np.random.default_rng(0).normal(size=(n, cfg.patch_frames, cfg.n_mels))
            patches = patches.astype(np.float32)
            monkeypatch.setattr(
                dsp, "patch_batches", lambda path, cfg, size: (patches[i : i + size] for i in range(0, n, size))
            )
            tracemalloc.start()
            try:
                tagger.compute_taggram("unread.wav", model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], f"{name}: {peaks[0] / 2**20:.1f} -> {peaks[1] / 2**20:.1f} MiB"
