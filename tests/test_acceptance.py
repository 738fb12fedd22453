"""Release gate: ten numbered conformance criteria, one test per criterion.

Each test prints a single "criterion NN (<label>): PASS" line on success, so
a verbose run reads as a checklist. The criteria pin tolerances, runtimes,
and worked values; they are intentionally stricter and more end-to-end than
the per-module suites.
"""

import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import encode_wav
from meltag import dsp, extractor, metrics, network, ops, store, trainer, transfer


def _ok(number: int, label: str) -> None:
    print(f"criterion {number:02d} ({label}): PASS")


# --- criterion 1: gradient integrity -----------------------------------------


def _bce_graph_check(family: str, backend: str, data_seed: int) -> ops.GradCheckReport:
    """Whole-graph finite-difference check of d(BCE)/d(theta), every tensor.

    The model is moved to a generic point first: biases and bn offsets start
    at exactly zero, which parks the zero-padded region of the vgg input on
    the relu kink where central differences are invalid.
    """
    cfg = trainer.toy_model_config(family=family, backend=backend)
    model = network.build_model(cfg, seed=3, mode="float64")
    rng = np.random.default_rng(data_seed)
    moved = {}
    for key, value in model.tensors().items():
        if key.endswith((".bias", ".bn_beta")):
            moved[key] = 0.1 * rng.normal(size=value.shape)
    model.set_tensors(moved)
    x = rng.normal(size=(cfg.dsp.patch_frames, cfg.dsp.n_mels))
    targets = (rng.random((1, cfg.n_tags)) < 0.5).astype(np.float64)

    def f(tensors):
        model.set_tensors(tensors)
        logits, _, cache = network.forward_batch(x, model, bn_mode="infer")
        loss, grad_logits = trainer.bce_loss(ops.sigmoid(logits), targets)
        grads = network.backward_batch(model, cache, grad_logits)
        return loss, {key: grads[key] for key in tensors}

    return ops.grad_check(f, model.tensors(), epsilon=1e-5, tolerance=1e-4)


def test_criterion_01_gradient_integrity():
    """BCE gradients of all three toy variants pass grad_check in < 60 s."""
    started = time.perf_counter()
    # data seeds picked so no pre-activation sits within epsilon of a relu
    # kink (central differences are meaningless across a kink)
    cases = [
        ("musicnn", "temporal_pooling", 11),
        ("musicnn", "attention", 9),
        ("vgg", "temporal_pooling", 11),
    ]
    for family, backend, data_seed in cases:
        report = _bce_graph_check(family, backend, data_seed)
        assert report.passed, f"{family}/{backend}:\n{report}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f} s"
    _ok(1, "gradient integrity")


# --- criterion 2: brute-force oracle equivalence ------------------------------


def _conv_oracle(x, weights, bias, pad_h, pad_w):
    c_in, height, width = x.shape
    c_out, _, kh, kw = weights.shape
    padded = np.zeros((c_in, height + 2 * pad_h, width + 2 * pad_w))
    padded[:, pad_h : pad_h + height, pad_w : pad_w + width] = x
    out_h = height + 2 * pad_h - kh + 1
    out_w = width + 2 * pad_w - kw + 1
    out = np.zeros((c_out, out_h, out_w))
    for o in range(c_out):
        for r in range(out_h):
            for c in range(out_w):
                acc = bias[o]
                for i in range(c_in):
                    for u in range(kh):
                        for v in range(kw):
                            acc += weights[o, i, u, v] * padded[i, r + u, c + v]
                out[o, r, c] = acc
    return out


def _dense_oracle(x, weights, bias):
    out = np.zeros(weights.shape[0])
    for o in range(weights.shape[0]):
        acc = bias[o]
        for i in range(weights.shape[1]):
            acc += weights[o, i] * x[i]
        out[o] = acc
    return out


def _pool_max_oracle(x, wh, ww):
    c, h, w = x.shape
    out = np.zeros((c, h // wh, w // ww))
    for ch in range(c):
        for r in range(h // wh):
            for col in range(w // ww):
                out[ch, r, col] = x[ch, r * wh : (r + 1) * wh, col * ww : (col + 1) * ww].max()
    return out


def _softmax_oracle(x, axis):
    e = np.exp(x)
    return e / e.sum(axis=axis, keepdims=True)


def _stft_oracle(samples, fft_size, hop_size):
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(fft_size) / fft_size)
    n_frames = (len(samples) - fft_size) // hop_size + 1
    out = np.zeros((n_frames, fft_size // 2 + 1))
    for k in range(n_frames):
        frame = samples[k * hop_size : k * hop_size + fft_size] * window
        for m in range(fft_size // 2 + 1):
            phase = np.exp(-2j * np.pi * m * np.arange(fft_size) / fft_size)
            out[k, m] = abs((frame * phase).sum())
    return out


def test_criterion_02_oracle_equivalence():
    """conv/dense/pool/softmax/STFT match naive oracles on 100+ random shapes."""
    rng = np.random.default_rng(2202)
    checked = 0

    for _ in range(30):
        c_in, c_out = rng.integers(1, 4, size=2)
        kh, kw = rng.integers(1, 4, size=2)
        pad_h, pad_w = rng.integers(0, 2, size=2)
        h = int(rng.integers(kh, kh + 5))
        w = int(rng.integers(kw, kw + 5))
        x = rng.normal(size=(c_in, h, w))
        weights = rng.normal(size=(c_out, c_in, kh, kw))
        bias = rng.normal(size=c_out)
        params = ops.LayerParams(name="c", weights=weights, bias=bias)
        got = ops.conv2d(x, params, int(pad_h), int(pad_w))
        assert_allclose(got, _conv_oracle(x, weights, bias, pad_h, pad_w), rtol=1e-10, atol=1e-12)
        checked += 1

    for _ in range(30):
        n_in = int(rng.integers(1, 20))
        n_out = int(rng.integers(1, 20))
        x = rng.normal(size=n_in)
        weights = rng.normal(size=(n_out, n_in))
        bias = rng.normal(size=n_out)
        params = ops.LayerParams(name="d", weights=weights, bias=bias)
        assert_allclose(ops.dense(x, params), _dense_oracle(x, weights, bias), rtol=1e-10, atol=1e-12)
        checked += 1

    for _ in range(25):
        wh, ww = (int(v) for v in rng.integers(1, 4, size=2))
        c = int(rng.integers(1, 4))
        x = rng.normal(size=(c, wh * int(rng.integers(1, 5)), ww * int(rng.integers(1, 5))))
        assert_allclose(ops.pool_max(x, wh, ww), _pool_max_oracle(x, wh, ww), rtol=1e-10)
        checked += 1

    for _ in range(15):
        shape = (int(rng.integers(1, 6)), int(rng.integers(2, 8)))
        axis = int(rng.integers(0, 2))
        x = rng.uniform(-8.0, 8.0, size=shape)  # bounded, so the bare-exp oracle is safe
        assert_allclose(ops.softmax_over_axis(x, axis), _softmax_oracle(x, axis), rtol=1e-6)
        checked += 1

    for _ in range(10):
        fft_size = int(rng.choice((16, 32)))
        hop_size = int(rng.choice((fft_size // 4, fft_size // 2, fft_size)))
        n = fft_size + hop_size * int(rng.integers(0, 6)) + int(rng.integers(0, hop_size))
        samples = rng.uniform(-1.0, 1.0, size=n)
        got = dsp.stft_magnitude(dsp.Waveform(samples=samples, sample_rate=8000), fft_size, hop_size)
        assert_allclose(got, _stft_oracle(samples, fft_size, hop_size), rtol=1e-6, atol=1e-8)
        checked += 1

    assert checked >= 100
    _ok(2, "oracle equivalence")


# --- criterion 3: metric enumeration oracles ----------------------------------


def _roc_pairwise_oracle(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            wins += 1.0 if p > q else (0.5 if p == q else 0.0)
    return wins / (len(pos) * len(neg))


def _pr_cutwalk_oracle(scores, labels):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    precisions = []
    for rank, i in enumerate(order, start=1):
        if labels[i] == 1:
            hits += 1
            precisions.append(hits / rank)
    return sum(precisions) / hits


def test_criterion_03_metric_oracles():
    """roc_auc/pr_auc match exhaustive enumeration on 1200 tied instances."""
    # worked examples first: 3 of 4 orderable pairs, and precision 1/2 + 2/3
    assert abs(metrics.roc_auc([0.5, 0.2, 0.9, 0.7], [1, 0, 1, 0]) - 0.75) < 1e-12
    assert abs(metrics.pr_auc([0.9, 0.8, 0.7, 0.1], [0, 1, 1, 0]) - 7.0 / 12.0) < 1e-12

    rng = np.random.default_rng(303)
    checked = 0
    for _ in range(600):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 4, size=n) / 3.0  # coarse grid forces ties
        got = metrics.roc_auc(scores, labels)
        assert abs(got - _roc_pairwise_oracle(scores, labels)) < 1e-12
        checked += 1
    for _ in range(600):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.sum() == 0:
            labels[int(rng.integers(n))] = 1
        scores = rng.integers(0, 4, size=n) / 3.0
        got = metrics.pr_auc(scores, labels)
        assert abs(got - _pr_cutwalk_oracle(scores, labels)) < 1e-12
        checked += 1
    assert checked >= 1000
    _ok(3, "metric oracles")


# --- criterion 4: memorization --------------------------------------------


def test_criterion_04_memorization():
    """Toy model drives BCE under 0.05 on 10 random-labeled patches, twice."""
    started = time.perf_counter()
    cfg = trainer.toy_model_config()
    x, y = trainer.synthetic_dataset(cfg, 10, seed=3)
    config = trainer.TrainConfig(
        learning_rate=1e-2, batch_size=10, epochs=200, seed=5, mode="float64"
    )
    logs = []
    for _ in range(2):
        model = network.build_model(cfg, seed=5, mode="float64")
        logs.append(trainer.fit(model, x, y, config))
    assert logs[0].epoch_losses[-1] < 0.05
    assert np.array_equal(logs[0].epoch_losses, logs[1].epoch_losses)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"memorization took {elapsed:.1f} s"
    _ok(4, "memorization")


# --- criterion 5: attention finds the informative frame -----------------------


def test_criterion_05_attention_informative_frame():
    """Training shifts attention mass onto the frame that encodes the labels."""
    cfg = trainer.toy_model_config(backend="attention")
    model = network.build_model(cfg, seed=0, mode="float64")
    # start the scorer at exactly uniform attention: any mass that ends up on
    # frame 0 was learned from the data, not inherited from the random init
    att = model.layer("attention_dense")
    model.set_tensors({"attention_dense.weights": np.zeros_like(att.weights)})

    x, _ = trainer.synthetic_dataset(cfg, 24, seed=1)
    labels = (np.arange(24) % 2).astype(np.float64)
    x[:, 0, :] = np.where(labels[:, None] > 0, 3.0, -3.0)  # frame 0 encodes the label
    y = np.tile(labels[:, None], (1, cfg.n_tags))

    config = trainer.TrainConfig(learning_rate=1e-2, batch_size=8, epochs=150, seed=2, mode="float64")
    log = trainer.fit(model, x, y, config)
    assert log.epoch_losses[-1] < 0.05  # the task was actually solved

    _, trace, _ = network.forward_batch(x, model, bn_mode="infer")
    weights = trace["attention_weights"]
    n_frames = weights.shape[1]
    assert weights[:, 0].mean() > 1.0 / n_frames
    _ok(5, "attention informative frame")


# --- criterion 6: feature keys, registry names, vocabularies -------------------

MTT_VOCABULARY = (
    "guitar", "classical", "slow", "techno", "strings", "drums", "electronic",
    "rock", "fast", "piano", "ambient", "beat", "violin", "vocal", "synth",
    "female", "indian", "opera", "male", "singing", "vocals", "no vocals",
    "harpsichord", "loud", "quiet", "flute", "woman", "male vocal", "no vocal",
    "pop", "soft", "sitar", "solo", "man", "classic", "choir", "voice",
    "new age", "dance", "male voice", "female vocal", "beats", "harp",
    "cello", "no voice", "weird", "country", "metal", "female voice", "choral",
)

MSD_VOCABULARY = (
    "rock", "pop", "alternative", "indie", "electronic", "female vocalists",
    "dance", "00s", "alternative rock", "jazz", "beautiful", "metal",
    "chillout", "male vocalists", "classic rock", "soul", "indie rock",
    "mellow", "electronica", "80s", "folk", "90s", "chill", "instrumental",
    "punk", "oldies", "blues", "hard rock", "ambient", "acoustic",
    "experimental", "female vocalist", "guitar", "hip-hop", "70s", "party",
    "country", "easy listening", "sexy", "catchy", "funk", "electro",
    "heavy metal", "progressive rock", "60s", "rnb", "indie pop",
    "sad", "house", "happy",
)


def _toy_wav(tmp_path, name="probe.wav", seed=4):
    rng = np.random.default_rng(seed)
    path = tmp_path / name
    path.write_bytes(encode_wav(rng.uniform(-0.5, 0.5, size=2800), 4000))
    return path


def test_criterion_06_contract_conformance(tmp_path):
    """Feature key sets, the five registry names, and both vocabularies."""
    wav = _toy_wav(tmp_path)
    model = network.build_model(trainer.toy_model_config(), seed=2)
    _, _, features = extractor.extract(wav, model, extract_features=True)
    assert set(features) == {
        "timbral", "temporal", "cnn1", "cnn2", "cnn3",
        "mean_pool", "max_pool", "penultimate",
    }
    vgg_model = network.build_model(trainer.toy_model_config(family="vgg"), seed=2)
    _, _, vgg_features = extractor.extract(wav, vgg_model, extract_features=True)
    assert set(vgg_features) == {"pool1", "pool2", "pool3", "pool4", "pool5"}

    assert store.MODEL_NAMES == (
        "MTT_musicnn", "MSD_musicnn", "MSD_musicnn_big", "MTT_vgg", "MSD_vgg"
    )
    expected_vocab = {
        "MTT_musicnn": MTT_VOCABULARY,
        "MTT_vgg": MTT_VOCABULARY,
        "MSD_musicnn": MSD_VOCABULARY,
        "MSD_musicnn_big": MSD_VOCABULARY,
        "MSD_vgg": MSD_VOCABULARY,
    }
    for name in store.MODEL_NAMES:
        _, tags = store.registry_get(name)
        assert tags == expected_vocab[name], name
    _ok(6, "contract conformance")


# --- criterion 7: command-line conformance -------------------------------------


def _tagger_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "meltag.tagger", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture()
def full_rate_wav(tmp_path):
    """16 kHz mixture long enough for one full-size analysis window."""
    rng = np.random.default_rng(8)
    n = 49600  # 3.1 s
    t = np.arange(n) / 16000.0
    mix = (
        0.4 * np.sin(2 * np.pi * 440.0 * t)
        + 0.2 * np.sin(2 * np.pi * 1250.0 * t)
        + 0.05 * rng.normal(size=n)
    )
    path = tmp_path / "clip.wav"
    path.write_bytes(encode_wav(mix, 16000))
    return path


def test_criterion_07_cli_conformance(full_rate_wav, tmp_path):
    """Both invocation shapes, exit codes 0/1/2, and print == save bytes."""
    long_form = _tagger_cli(str(full_rate_wav), "--model", "MTT_musicnn", "--topN", "10", "--print")
    assert long_form.returncode == 0
    lines = long_form.stdout.splitlines()
    assert len(lines) == 10
    for line in lines:
        tag, _, score = line.partition("\t")
        assert tag and len(score) == 8 and score[1] == "."
        float(score)

    out = tmp_path / "listing.txt"
    short_form = _tagger_cli(str(full_rate_wav), "-m", "MTT_musicnn", "--topN", "5", "--save", str(out))
    assert short_form.returncode == 0
    assert short_form.stdout == ""
    printed = _tagger_cli(str(full_rate_wav), "-m", "MTT_musicnn", "--topN", "5", "--print")
    assert printed.returncode == 0
    assert out.read_text() == printed.stdout  # identical bytes either route

    missing = _tagger_cli(str(tmp_path / "nope.wav"), "--model", "MTT_musicnn", "--print")
    assert missing.returncode == 1
    assert "error:" in missing.stderr

    bad_top = _tagger_cli(str(full_rate_wav), "--topN", "0", "--print")
    assert bad_top.returncode == 1

    usage = _tagger_cli()
    assert usage.returncode == 2
    _ok(7, "cli conformance")


# --- criterion 8: container round trip -----------------------------------------


def test_criterion_08_round_trip(tmp_path):
    """Reload reproduces bit-identical outputs; damage raises the named errors."""
    cfg = trainer.toy_model_config()
    model = network.build_model(cfg, seed=9)
    rng = np.random.default_rng(12)
    patch = rng.normal(size=(cfg.dsp.patch_frames, cfg.dsp.n_mels))
    path = tmp_path / "toy.mcn"
    store.save_model(model, path)
    reloaded = store.load_model(path)
    before, _, _ = network.forward_batch(patch, model)
    after, _, _ = network.forward_batch(patch, reloaded)
    np.testing.assert_array_equal(before, after)

    blob = path.read_bytes()
    truncated = tmp_path / "truncated.mcn"
    truncated.write_bytes(blob[:-4])
    with pytest.raises(store.PayloadTruncatedError):
        store.load_model(truncated)

    manifest_end = 14 + int(blob[4:14])
    lines = blob[14:manifest_end].decode().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "tensor" and len(parts) >= 4 and parts[2] != parts[3]:
            lines[i] = " ".join([parts[0], parts[1], parts[3], parts[2]])  # swap dims
            break
    manifest = ("\n".join(lines) + "\n").encode()
    tampered = tmp_path / "tampered.mcn"
    tampered.write_bytes(blob[:4] + b"%010d" % len(manifest) + manifest + blob[manifest_end:])
    with pytest.raises(store.ShapeMismatchError):
        store.load_model(tampered)
    _ok(8, "container round trip")


# --- criterion 9: two-genre pipeline ------------------------------------------


def test_criterion_09_pipeline_end_to_end(tmp_path):
    """Tone-vs-noise transfer run is accurate and reproducible in < 2 min."""
    started = time.perf_counter()
    rng = np.random.default_rng(17)
    n = 2800  # 0.7 s at the toy rate: two analysis patches per clip

    def write_clip(name, samples):
        path = tmp_path / name
        path.write_bytes(encode_wav(samples, 4000))
        return str(path)

    rows = []
    for split, count in (("train", 10), ("test", 4)):
        for i in range(count):
            freq = float(rng.uniform(200.0, 600.0))
            t = np.arange(n) / 4000.0
            tone = 0.5 * np.sin(2 * np.pi * freq * t) + 0.01 * rng.normal(size=n)
            rows.append(
                transfer.ManifestRow(write_clip(f"tone_{split}_{i}.wav", tone), "tone", split)
            )
            noise = rng.uniform(-0.5, 0.5, size=n)
            rows.append(
                transfer.ManifestRow(write_clip(f"noise_{split}_{i}.wav", noise), "noise", split)
            )
    manifest = transfer.DatasetManifest(rows=tuple(rows), labels=("noise", "tone"))
    model = network.build_model(trainer.toy_model_config(), seed=11)

    first = transfer.run_pipeline(manifest, model, k=8, epochs=200)
    second = transfer.run_pipeline(manifest, model, k=8, epochs=200)
    assert first.test_accuracy >= 0.9
    assert first.as_text() == second.as_text()
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f} s"
    _ok(9, "pipeline end to end")


# --- criterion 10: spectrogram invariants ---------------------------------------


def test_criterion_10_dsp_invariants():
    """Silence floor, sine localization, and exact frame/patch arithmetic."""
    cfg = dsp.DspConfig()
    silence = dsp.Waveform(samples=np.zeros(48000), sample_rate=cfg.sample_rate)
    values = dsp.log_mel(silence, cfg).values
    assert (values == np.log(cfg.log_offset)).all()

    centers = dsp.mel_center_frequencies(cfg)
    for freq in (440.0, 1000.0, 3000.0, 6500.0):
        t = np.arange(48000) / cfg.sample_rate
        tone = dsp.Waveform(samples=np.sin(2 * np.pi * freq * t), sample_rate=cfg.sample_rate)
        per_frame = dsp.log_mel(tone, cfg).values.argmax(axis=1)
        assert (per_frame == np.abs(centers - freq).argmin()).all(), freq

    small = dsp.DspConfig(
        sample_rate=2000, fft_size=64, hop_size=32, n_mels=8, fmax=1000.0,
        patch_frames=8, patch_hop_frames=5,
    )
    rng = np.random.default_rng(50)
    for length in rng.integers(288, 4000, size=50):
        w = dsp.Waveform(samples=rng.normal(size=int(length)), sample_rate=2000)
        frames = (int(length) - small.fft_size) // small.hop_size + 1
        assert dsp.stft_magnitude(w, small.fft_size, small.hop_size).shape[0] == frames
        patches = (frames - small.patch_frames) // small.patch_hop_frames + 1
        assert len(dsp.patchify(dsp.log_mel(w, small))) == patches
    _ok(10, "dsp invariants")
