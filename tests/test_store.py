"""Weight container round trips, tamper detection, and the model registry."""

import hashlib
import re
import tracemalloc
from dataclasses import FrozenInstanceError, dataclass, field, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltag import store, trainer
from meltag.dsp import DspConfig
from meltag.errors import (
    BadMagicError,
    ConfigInvalidError,
    ManifestCorruptError,
    MeltagError,
    NumericFaultError,
    PayloadTruncatedError,
    ShapeMismatchError,
    UnknownModelError,
)
from meltag.network import ModelConfig, build_model, forward_batch, tensor_specs
from meltag.store import (
    MODEL_NAMES,
    field_lines,
    load_model,
    load_registry_model,
    parse_fields,
    registry_get,
    save_model,
)

from conftest import tiny_musicnn, tiny_vgg


def _save_blob(tmp_path, model, name="model.mcn"):
    path = tmp_path / name
    save_model(model, path)
    return path, path.read_bytes()


def _manifest_span(blob):
    length = int(blob[4:14])
    return 14, 14 + length


def _rewrite_lines(blob, edit):
    """Apply edit() to the manifest's line list and fix the length field."""
    start, end = _manifest_span(blob)
    lines = blob[start:end].decode("utf-8").splitlines()
    manifest = ("\n".join(edit(lines)) + "\n").encode("utf-8")
    return blob[:4] + f"{len(manifest):010d}".encode("ascii") + manifest + blob[end:]


def _tensor_offset(blob, key):
    """Byte offset of tensor `key`, summed from the manifest's shape lines."""
    start, end = _manifest_span(blob)
    offset = end
    for line in blob[start:end].decode("utf-8").splitlines():
        if line.startswith("tensor "):
            _, name, *dims = line.split()
            if name == key:
                return offset
            offset += 4 * int(np.prod([int(d) for d in dims]))
    raise KeyError(key)


def _put_float32(blob, offset, value):
    return blob[:offset] + np.array([value], dtype="<f4").tobytes() + blob[offset + 4 :]


class TestRegistry:
    def test_exactly_five_models(self):
        assert MODEL_NAMES == (
            "MTT_musicnn",
            "MSD_musicnn",
            "MSD_musicnn_big",
            "MTT_vgg",
            "MSD_vgg",
        )

    def test_families_and_backends(self):
        assert registry_get("MTT_musicnn")[0].backend == "temporal_pooling"
        assert registry_get("MSD_musicnn")[0].backend == "attention"
        assert registry_get("MSD_musicnn_big")[0].backend == "attention"
        assert registry_get("MTT_vgg")[0].family == "vgg"
        assert registry_get("MSD_vgg")[0].family == "vgg"

    def test_big_variant_widens_midend_and_penultimate(self):
        cfg = registry_get("MSD_musicnn_big")[0]
        assert cfg.midend_channels == 512
        assert cfg.penultimate_units == 500
        base = registry_get("MSD_musicnn")[0]
        assert base.midend_channels == 64
        assert base.penultimate_units == 200

    def test_vocabularies_are_fifty_distinct_tags(self):
        for name in MODEL_NAMES:
            tags = registry_get(name)[1]
            assert len(tags) == 50
            assert len(set(tags)) == 50

    def test_vocabulary_contents(self):
        mtt = registry_get("MTT_musicnn")[1]
        assert mtt[:4] == ("guitar", "classical", "slow", "techno")
        assert mtt[-1] == "choral"
        assert "harpsichord" in mtt and "no vocals" in mtt
        msd = registry_get("MSD_musicnn")[1]
        assert msd[:4] == ("rock", "pop", "alternative", "indie")
        assert msd[-1] == "happy"
        for tag in ("hip-hop", "progressive rock", "female vocalists", "house"):
            assert tag in msd

    def test_vgg_shares_the_dataset_vocabulary(self):
        assert registry_get("MTT_vgg")[1] == registry_get("MTT_musicnn")[1]
        assert registry_get("MSD_vgg")[1] == registry_get("MSD_musicnn")[1]

    def test_unknown_name(self):
        with pytest.raises(UnknownModelError):
            registry_get("MTT_resnet")

    def test_registry_weights_are_reproducible(self):
        a = load_registry_model("MTT_musicnn")
        b = load_registry_model("MTT_musicnn")
        for key, t in a.tensors().items():
            np.testing.assert_array_equal(t, b.tensors()[key])

    def test_registry_models_differ_from_each_other(self):
        a = load_registry_model("MSD_musicnn")
        b = load_registry_model("MTT_musicnn")
        # same shapes, different name-derived seeds
        assert not np.array_equal(
            a.layer("midend_1").weights, b.layer("midend_1").weights
        )

    def test_every_config_field_takes_two_values_over_the_shipped_configs(self):
        """A setting that the registry and toy configs all leave at one value is a ClassVar constant."""
        configs = [registry_get(name)[0] for name in MODEL_NAMES] + [
            trainer.toy_model_config("musicnn", "temporal_pooling"),
            trainer.toy_model_config("musicnn", "attention"),
            trainer.toy_model_config("vgg"),
        ]
        one_valued = [
            f"{cls.__name__}.{f.name}"
            for cls, part in ((ModelConfig, lambda c: c), (DspConfig, lambda c: c.dsp))
            for f in fields(cls)
            if len({getattr(part(c), f.name) for c in configs}) < 2
        ]
        assert one_valued == []


class TestRoundTrip:
    @pytest.mark.parametrize(
        "cfg_factory",
        [tiny_musicnn, lambda: tiny_musicnn(backend="attention"), tiny_vgg],
        ids=["pooling", "attention", "vgg"],
    )
    def test_tensors_survive_bit_exactly(self, tmp_path, cfg_factory):
        model = build_model(cfg_factory(), seed=3, tags=("yes", "no"))
        path, _ = _save_blob(tmp_path, model)
        loaded = load_model(path)
        assert loaded.tags == ("yes", "no")
        assert loaded.config == model.config
        for key, t in model.tensors().items():
            got = loaded.tensors()[key]
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, t)

    def test_forward_is_bit_identical_after_reload(self, tmp_path):
        cfg = tiny_musicnn(backend="attention")
        model = build_model(cfg, seed=9)
        path, _ = _save_blob(tmp_path, model)
        loaded = load_model(path)
        patch = np.random.default_rng(0).normal(size=(cfg.dsp.patch_frames, cfg.dsp.n_mels))
        np.testing.assert_array_equal(
            forward_batch(patch, model)[1]["output"], forward_batch(patch, loaded)[1]["output"]
        )

    def test_float64_models_are_stored_as_float32(self, tmp_path):
        model = build_model(tiny_musicnn(), seed=4, mode="float64")
        path, _ = _save_blob(tmp_path, model)
        loaded = load_model(path)
        assert loaded.mode == "float32"
        for key, t in model.tensors().items():
            np.testing.assert_array_equal(loaded.tensors()[key], t.astype(np.float32))

    def test_container_layout(self, tmp_path):
        model = build_model(tiny_musicnn(), seed=1)
        _, blob = _save_blob(tmp_path, model)
        assert blob[:4] == b"MCN1"
        length = blob[4:14]
        assert length.isdigit() and len(length) == 10
        start, end = _manifest_span(blob)
        manifest = blob[start:end].decode("utf-8")
        assert manifest.splitlines()[0] == "format_version 1"
        n_payload = sum(t.size for t in model.tensors().values()) * 4
        assert len(blob) == end + n_payload

    def test_a_tensor_the_config_does_not_list_is_refused_before_the_file_is_opened(self, tmp_path):
        """Such a tensor used to be written and then refused by load_model: now it cannot be attached,
        so what save_model writes loads back."""
        model = build_model(tiny_vgg(), seed=1)
        with pytest.raises(FrozenInstanceError):
            model.layer("block1").bias = np.ones(2, np.float32)
        path, _ = _save_blob(tmp_path, model)
        assert load_model(path).layer("block1").bias is None

    def test_tag_text_round_trips_verbatim(self, tmp_path):
        tags = ("no vocals", "hip-hop")
        model = build_model(tiny_musicnn(), seed=2, tags=tags)
        path, _ = _save_blob(tmp_path, model)
        assert load_model(path).tags == tags


def _checked_views(model):
    """Every tensor as its layer's view, each checked to be the C-order slice of model.buffer at its
    tensor_specs offset; returns the views keyed as tensors()."""
    base, pos, views = model.buffer.__array_interface__["data"][0], 0, {}
    for key, shape in tensor_specs(model.config):
        layer, field_name = key.rsplit(".", 1)
        t = views[key] = getattr(model.layer(layer), field_name)
        assert t.shape == shape and t.dtype == model.dtype, key
        assert t.flags.c_contiguous and t.flags.writeable and np.shares_memory(t, model.buffer), key
        assert t.__array_interface__["data"][0] == base + pos * model.buffer.itemsize, key
        pos += t.size
    assert pos == model.buffer.size
    return views


class TestLoadedBuffers:
    def test_tensors_are_writable_contiguous_float32_views_of_one_payload(self, tmp_path):
        model = build_model(tiny_musicnn(backend="attention"), seed=3)
        path, _ = _save_blob(tmp_path, model)
        loaded = load_model(path)
        assert loaded.buffer.dtype == np.float32
        views = _checked_views(loaded)
        before = {key: t.copy() for key, t in views.items()}
        first = next(iter(views))
        views[first][...] = 7.0
        for key, t in loaded.tensors().items():
            if key != first:
                np.testing.assert_array_equal(t, before[key])
        assert (loaded.tensors()[first] == 7.0).all()

    def test_load_model_makes_no_copy_of_the_payload(self, tmp_path):
        path = tmp_path / "model.mcn"
        store.save_model(store.load_registry_model("MTT_musicnn"), path)
        tracemalloc.start()
        try:
            loaded = load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.buffer.nbytes <= peak < 1.5 * loaded.buffer.nbytes, (peak, loaded.buffer.nbytes)

    @pytest.mark.parametrize("source", ["built", "built_float64", "loaded", "cast", "cast_same_mode"])
    def test_every_tensor_is_a_view_of_the_one_buffer_in_spec_order(self, tmp_path, source):
        model = build_model(tiny_vgg(), seed=2, mode="float64" if source == "built_float64" else "float32")
        if source == "loaded":
            model = load_model(_save_blob(tmp_path, model)[0])
        elif source.startswith("cast"):
            model = model.astype("float32" if source == "cast_same_mode" else "float64")
        _checked_views(model)

    @pytest.mark.parametrize("mode", ["float32", "float64"])
    def test_astype_shares_no_memory_so_training_the_copy_leaves_the_source(self, tmp_path, mode):
        """As the benchmark's train workload casts a loaded toy model to float64 and trains it."""
        cfg = trainer.toy_model_config("vgg")
        loaded = load_model(_save_blob(tmp_path, build_model(cfg, seed=2))[0])
        before = loaded.buffer.copy()
        cast = loaded.astype(mode)
        assert not np.shares_memory(cast.buffer, loaded.buffer)
        x, y = trainer.synthetic_dataset(cfg, 4, seed=1)
        trainer.fit(cast, x, y, trainer.TrainConfig(batch_size=2, epochs=1, learning_rate=1e-2, mode=mode))
        assert loaded.buffer.tobytes() == before.tobytes()
        assert cast.buffer.astype(np.float32).tobytes() != before.tobytes()

    @pytest.mark.parametrize("name", store.MODEL_NAMES)
    def test_registry_models_round_trip_to_their_pinned_bytes(self, tmp_path, name):
        from test_rng import REGISTRY_SHA256

        path = tmp_path / f"{name}.mcn"
        store.save_model(store.load_registry_model(name), path)
        tensors = load_model(path).tensors().values()
        assert hashlib.sha256(b"".join(t.tobytes() for t in tensors)).hexdigest() == REGISTRY_SHA256[name]


class TestLoadErrors:
    @pytest.fixture
    def saved(self, tmp_path):
        model = build_model(tiny_musicnn(), seed=5)
        return _save_blob(tmp_path, model)

    def _load_bytes(self, tmp_path, blob):
        path = tmp_path / "tampered.mcn"
        path.write_bytes(blob)
        return load_model(path)

    def test_wrong_magic(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(BadMagicError):
            self._load_bytes(tmp_path, b"XCN1" + blob[4:])

    def test_empty_file(self, tmp_path, saved):
        with pytest.raises(BadMagicError):
            self._load_bytes(tmp_path, b"")

    def test_nondecimal_length_field(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, blob[:4] + b"00000x0000" + blob[14:])

    def test_truncated_inside_length_field(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(PayloadTruncatedError):
            self._load_bytes(tmp_path, blob[:8])

    def test_truncated_inside_manifest(self, tmp_path, saved):
        _, blob = saved
        start, end = _manifest_span(blob)
        with pytest.raises(PayloadTruncatedError):
            self._load_bytes(tmp_path, blob[: start + 5])

    def test_truncated_inside_payload(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(PayloadTruncatedError):
            self._load_bytes(tmp_path, blob[:-4])

    def test_manifest_not_utf8(self, tmp_path, saved):
        _, blob = saved
        start, _ = _manifest_span(blob)
        mangled = blob[:start] + b"\xff" + blob[start + 1 :]
        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, mangled)

    def test_missing_config_field(self, tmp_path, saved):
        _, blob = saved
        bad = _rewrite_lines(blob, lambda ls: [l for l in ls if not l.startswith("family ")])
        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, bad)

    def test_duplicate_field(self, tmp_path, saved):
        _, blob = saved
        bad = _rewrite_lines(blob, lambda ls: ls[:3] + [ls[2]] + ls[3:])
        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, bad)

    @pytest.mark.parametrize(
        "line",
        ["midend_chanels 9", "fmin 0.0", "log_offset 1e-06", "timbral_filter_heights 0.9 0.4", "midend_kernel 7"],
    )
    def test_unknown_field(self, tmp_path, saved, line):
        """A misspelt field next to the real one must not be dropped silently, nor the lines of
        fmin, log_offset, timbral_filter_heights and midend_kernel that files saved before those
        became constants carry."""
        _, blob = saved

        def add_line(lines):
            idx = next(i for i, l in enumerate(lines) if l.startswith("midend_channels "))
            return lines[: idx + 1] + [line] + lines[idx + 1 :]

        with pytest.raises(ManifestCorruptError, match=f"unknown manifest field.*{line.split()[0]}"):
            self._load_bytes(tmp_path, _rewrite_lines(blob, add_line))

    def test_unsupported_format_version(self, tmp_path, saved):
        _, blob = saved
        bad = _rewrite_lines(blob, lambda ls: ["format_version 2"] + ls[1:])
        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, bad)

    def test_wrong_tag_count(self, tmp_path, saved):
        _, blob = saved

        def drop_one_tag(lines):
            idx = next(i for i, l in enumerate(lines) if l.startswith("tag "))
            return lines[:idx] + lines[idx + 1 :]

        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, _rewrite_lines(blob, drop_one_tag))

    def test_unreadable_tensor_shape(self, tmp_path, saved):
        _, blob = saved

        def mangle(lines):
            idx = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
            return lines[:idx] + ["tensor input_bn.bn_gamma ab"] + lines[idx + 1 :]

        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, _rewrite_lines(blob, mangle))

    def test_tampered_tensor_shape(self, tmp_path, saved):
        _, blob = saved

        def swap_dims(lines):
            idx = next(i for i, l in enumerate(lines) if l.startswith("tensor timbral_0.weights"))
            parts = lines[idx].split()
            parts[2], parts[3] = parts[3], parts[2]
            return lines[:idx] + [" ".join(parts)] + lines[idx + 1 :]

        with pytest.raises(ShapeMismatchError):
            self._load_bytes(tmp_path, _rewrite_lines(blob, swap_dims))

    def test_missing_tensor_line(self, tmp_path, saved):
        _, blob = saved

        def drop_tensor(lines):
            idx = next(i for i, l in enumerate(lines) if l.startswith("tensor "))
            return lines[:idx] + lines[idx + 1 :]

        want = "line 1 is 'tensor input_bn.bn_beta 1'; the config implies 'tensor input_bn.bn_gamma 1'"
        with pytest.raises(ShapeMismatchError, match=re.escape(want)):
            self._load_bytes(tmp_path, _rewrite_lines(blob, drop_tensor))

    def test_missing_last_tensor_line(self, tmp_path, saved):
        _, blob = saved
        want = "line 46 is the end of the list; the config implies 'tensor output_dense.bias 2'"
        with pytest.raises(ShapeMismatchError, match=re.escape(want)):
            self._load_bytes(tmp_path, _rewrite_lines(blob, lambda lines: lines[:-1]))

    @pytest.mark.parametrize(
        "cfg_factory, line, found",
        [(tiny_musicnn, 6, "timbral_0.bias 2"), (tiny_vgg, 2, "block1.bias 2")],
        ids=["musicnn", "vgg"],
    )
    def test_a_file_saved_with_the_cancelled_biases_names_the_first(self, tmp_path, cfg_factory, line, found):
        """Files saved before the biases that batch norm and softmax cancel were dropped list a bias
        after every conv and hidden dense layer's weights: the error names the first such line."""
        _, blob = _save_blob(tmp_path, build_model(cfg_factory(), seed=5))
        added = []

        def add_biases(lines):
            out = []
            for l in lines:
                out.append(l)
                parts = l.split()
                if parts[0] == "tensor" and parts[1].endswith(".weights") and parts[1] != "output_dense.weights":
                    out.append(f"tensor {parts[1].rsplit('.', 1)[0]}.bias {parts[2]}")
                    added.append(int(parts[2]))
            return out

        old = _rewrite_lines(blob, add_biases)
        old += bytes(4 * sum(added))  # the payload grows by the biases' bytes
        want = f"tensor line {line} is 'tensor {found}'; the config implies 'tensor {found.split('.')[0]}.bn_gamma 2'"
        with pytest.raises(ShapeMismatchError, match=re.escape(want)):
            self._load_bytes(tmp_path, old)

    def test_invalid_config_values(self, tmp_path, saved):
        _, blob = saved
        bad = _rewrite_lines(
            blob, lambda ls: [l if not l.startswith("n_mels") else "n_mels -3" for l in ls]
        )
        with pytest.raises(ManifestCorruptError):
            self._load_bytes(tmp_path, bad)

    def test_payload_bytes_do_not_hide_errors(self, tmp_path, saved):
        """Payload flips do not raise (there is no checksum), but the loaded
        value must reflect the flip rather than silently reusing old data."""
        path, blob = saved
        flipped = blob[:-1] + bytes([blob[-1] ^ 0x01])
        path2 = tmp_path / "flip.mcn"
        path2.write_bytes(flipped)
        a, b = load_model(path), load_model(path2)
        assert not np.array_equal(
            a.layer("output_dense").bias, b.layer("output_dense").bias
        )

    def test_trailing_bytes_after_payload(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(ManifestCorruptError, match=f"7 trailing bytes .* offset {len(blob)}"):
            self._load_bytes(tmp_path, blob + b"garbage")

    def test_length_field_overrunning_the_file(self, tmp_path, saved):
        _, blob = saved
        with pytest.raises(PayloadTruncatedError):
            self._load_bytes(tmp_path, blob[:4] + b"9999999999" + blob[14:])

    def test_tensor_shapes_overrunning_the_file(self, tmp_path, saved):
        """A consistent manifest for a 552 GB model in front of a tiny payload."""
        _, blob = saved
        huge = tiny_musicnn(timbral_channels=10**9)

        def grow(lines):
            kept = [l for l in lines if not l.startswith(("tensor ", "timbral_channels "))]
            return kept + [f"timbral_channels {10**9}"] + [
                f"tensor {layer}.{name} {' '.join(map(str, shape))}"
                for layer, tensors in huge.layer_shapes().items()
                for name, shape in tensors.items()
            ]

        with pytest.raises(PayloadTruncatedError):
            self._load_bytes(tmp_path, _rewrite_lines(blob, grow))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "key, index", [("input_bn.bn_gamma", 0), ("midend_2.weights", 5), ("output_dense.bias", 1)]
    )
    def test_non_finite_tensor(self, tmp_path, saved, key, index, value):
        _, blob = saved
        offset = _tensor_offset(blob, key)
        bad = _put_float32(blob, offset + 4 * index, value)
        with pytest.raises(NumericFaultError, match=f"{key} at byte offset {offset} .* {offset + 4 * index}$"):
            self._load_bytes(tmp_path, bad)

    def test_negative_bn_var(self, tmp_path, saved):
        _, blob = saved
        bad = _put_float32(blob, _tensor_offset(blob, "timbral_1.bn_var"), -1.0)
        with pytest.raises(ShapeMismatchError, match="timbral_1: bn_var"):
            self._load_bytes(tmp_path, bad)

    @pytest.mark.parametrize(
        "line",
        ["vgg_pool_shapes 2x2x2 2x2 2x2 4x4 6x3", "vgg_pool_shapes 2 2x2 2x2 4x4 6x3", "n_tags 2.0", "fmax zero"],
    )
    def test_unparseable_config_value(self, tmp_path, saved, line):
        _, blob = saved
        name = line.split()[0]
        bad = _rewrite_lines(blob, lambda ls: [line if l.split()[0] == name else l for l in ls])
        with pytest.raises(ManifestCorruptError, match=name):
            self._load_bytes(tmp_path, bad)


# Golden manifests (tags "yes", "no"); the writer walks the config dataclasses,
# so these pin field order and value formatting against drift.
_MUSICNN_MANIFEST = """\
    format_version 1
    family musicnn
    backend temporal_pooling
    n_tags 2
    sample_rate 2000
    fft_size 64
    hop_size 32
    n_mels 8
    fmax 1000.0
    patch_frames 8
    patch_hop_frames 8
    timbral_channels 2
    temporal_filter_lengths 5 3
    temporal_channels 1
    midend_channels 3
    penultimate_units 4
    vgg_block_channels 32 64 96 128 128
    vgg_pool_shapes 2x2 2x2 2x2 4x4 6x3
    tag yes
    tag no
    tensor input_bn.bn_gamma 1
    tensor input_bn.bn_beta 1
    tensor input_bn.bn_mean 1
    tensor input_bn.bn_var 1
    tensor timbral_0.weights 2 1 7 7
    tensor timbral_0.bn_gamma 2
    tensor timbral_0.bn_beta 2
    tensor timbral_0.bn_mean 2
    tensor timbral_0.bn_var 2
    tensor timbral_1.weights 2 1 7 3
    tensor timbral_1.bn_gamma 2
    tensor timbral_1.bn_beta 2
    tensor timbral_1.bn_mean 2
    tensor timbral_1.bn_var 2
    tensor temporal_0.weights 1 1 5 1
    tensor temporal_0.bn_gamma 1
    tensor temporal_0.bn_beta 1
    tensor temporal_0.bn_mean 1
    tensor temporal_0.bn_var 1
    tensor temporal_1.weights 1 1 3 1
    tensor temporal_1.bn_gamma 1
    tensor temporal_1.bn_beta 1
    tensor temporal_1.bn_mean 1
    tensor temporal_1.bn_var 1
    tensor midend_1.weights 3 6 7 1
    tensor midend_1.bn_gamma 3
    tensor midend_1.bn_beta 3
    tensor midend_1.bn_mean 3
    tensor midend_1.bn_var 3
    tensor midend_2.weights 3 3 7 1
    tensor midend_2.bn_gamma 3
    tensor midend_2.bn_beta 3
    tensor midend_2.bn_mean 3
    tensor midend_2.bn_var 3
    tensor midend_3.weights 3 3 7 1
    tensor midend_3.bn_gamma 3
    tensor midend_3.bn_beta 3
    tensor midend_3.bn_mean 3
    tensor midend_3.bn_var 3
    tensor penultimate_dense.weights 4 30
    tensor penultimate_dense.bn_gamma 4
    tensor penultimate_dense.bn_beta 4
    tensor penultimate_dense.bn_mean 4
    tensor penultimate_dense.bn_var 4
    tensor output_dense.weights 2 4
    tensor output_dense.bias 2
"""

_VGG_MANIFEST = """\
    format_version 1
    family vgg
    backend temporal_pooling
    n_tags 2
    sample_rate 2000
    fft_size 64
    hop_size 32
    n_mels 8
    fmax 1000.0
    patch_frames 8
    patch_hop_frames 8
    timbral_channels 51
    temporal_filter_lengths 165 129 65 33
    temporal_channels 8
    midend_channels 64
    penultimate_units 200
    vgg_block_channels 2 2 2 2 2
    vgg_pool_shapes 2x2 2x2 1x1 1x2 2x1
    tag yes
    tag no
    tensor block1.weights 2 1 3 3
    tensor block1.bn_gamma 2
    tensor block1.bn_beta 2
    tensor block1.bn_mean 2
    tensor block1.bn_var 2
    tensor block2.weights 2 2 3 3
    tensor block2.bn_gamma 2
    tensor block2.bn_beta 2
    tensor block2.bn_mean 2
    tensor block2.bn_var 2
    tensor block3.weights 2 2 3 3
    tensor block3.bn_gamma 2
    tensor block3.bn_beta 2
    tensor block3.bn_mean 2
    tensor block3.bn_var 2
    tensor block4.weights 2 2 3 3
    tensor block4.bn_gamma 2
    tensor block4.bn_beta 2
    tensor block4.bn_mean 2
    tensor block4.bn_var 2
    tensor block5.weights 2 2 3 3
    tensor block5.bn_gamma 2
    tensor block5.bn_beta 2
    tensor block5.bn_mean 2
    tensor block5.bn_var 2
    tensor output_dense.weights 2 2
    tensor output_dense.bias 2
"""


class TestManifestSchema:
    @pytest.mark.parametrize(
        "cfg_factory, golden",
        [(tiny_musicnn, _MUSICNN_MANIFEST), (tiny_vgg, _VGG_MANIFEST)],
        ids=["musicnn", "vgg"],
    )
    def test_manifest_lines_are_pinned(self, tmp_path, cfg_factory, golden):
        model = build_model(cfg_factory(), init="zeros", tags=("yes", "no"))
        _, blob = _save_blob(tmp_path, model)
        start, end = _manifest_span(blob)
        assert blob[start:end].decode("utf-8").splitlines() == [l.strip() for l in golden.splitlines()]

    def test_any_config_dataclass_round_trips(self):
        @dataclass(frozen=True)
        class Inner:
            rate: int = 1
            gain: float = 0.5

        @dataclass(frozen=True)
        class Outer:
            name: str = "a"
            inner: Inner = field(default_factory=Inner)
            sizes: tuple[int, ...] = (1, 2)
            pairs: tuple[tuple[int, int], ...] = ((1, 2),)

        value = Outer("b c", Inner(7, 1e-06), (5,), ((3, 4), (6, 1)))
        lines = field_lines(value)
        assert lines == ["name b c", "rate 7", "gain 1e-06", "sizes 5", "pairs 3x4 6x1"]
        text = dict(l.split(" ", 1) for l in lines)
        assert parse_fields(Outer, text) == value
        assert text == {}
        assert parse_fields(Outer, {"rate": "3"}, defaults=True) == Outer(inner=Inner(rate=3))
        with pytest.raises(ConfigInvalidError, match="missing field 'gain'"):
            parse_fields(Outer, {"name": "a", "rate": "1", "sizes": "1", "pairs": "1x1"})
        with pytest.raises(ConfigInvalidError, match="pairs"):
            parse_fields(Outer, {"pairs": "1x2x3"}, defaults=True)


@pytest.fixture(scope="module")
def toy_blob(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "toy.mcn"
    save_model(build_model(tiny_musicnn(), seed=5), path)
    return path.read_bytes(), path.with_name("damaged.mcn")


@settings(max_examples=300, deadline=None)
@given(edit=st.sampled_from(["overwrite", "truncate", "append"]), data=st.data())
def test_damaged_container_loads_or_raises_a_named_error(toy_blob, edit, data):
    """Any one-byte overwrite loads or raises a MeltagError; a cut or an
    appended tail never loads."""
    blob, path = toy_blob
    if edit == "overwrite":
        i = data.draw(st.integers(0, len(blob) - 1))
        path.write_bytes(blob[:i] + bytes([data.draw(st.integers(0, 255))]) + blob[i + 1 :])
        try:
            load_model(path)
        except MeltagError:
            pass
    elif edit == "truncate":
        path.write_bytes(blob[: data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises((BadMagicError, PayloadTruncatedError)):
            load_model(path)
    else:
        path.write_bytes(blob + data.draw(st.binary(min_size=1, max_size=64)))
        with pytest.raises(ManifestCorruptError, match="trailing bytes"):
            load_model(path)
