"""Desk-scale supervised training with binary cross-entropy and Adam.

Runs are deterministic end to end: a SplitMix64 stream seeded from the config
drives every shuffle, gradients are reduced in example-index order, and Adam
has no internal randomness. Batch norm uses current-batch statistics during
training and maintains exponential moving averages (momentum 0.9) that
inference mode then consumes.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import network, ops
from .dsp import DspConfig
from .errors import ConfigInvalidError, NumericFaultError, ShapeMismatchError
from .network import Model, ModelConfig
from .rng import SplitMix64
from .store import check_output_path, parse_fields, read_text, registry_get, save_model

EMA_MOMENTUM = 0.9
ADAM_BLOCK = 1 << 15  # 256 KiB of float64 per array


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 8
    epochs: int = 10
    seed: int = 0
    mode: str = "float64"

    def __post_init__(self):
        # learning_rate 0 is allowed on purpose: a no-op optimizer is the
        # cheapest way to pin "loss constant means updates really stopped"
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ConfigInvalidError(f"learning_rate must be finite and non-negative, got {self.learning_rate}")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigInvalidError("betas must lie in [0, 1)")
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise ConfigInvalidError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.batch_size < 1:
            raise ConfigInvalidError("batch_size must be at least 1")
        if self.epochs < 1:
            raise ConfigInvalidError("epochs must be at least 1")
        network.mode_dtype(self.mode)


def bce_loss(predictions: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean binary cross-entropy and its gradient wrt pre-sigmoid scores.

    The gradient is the fused form (p - t) / count, which is exact and never
    touches the ln() terms, so it stays finite even when p saturates.
    """
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.shape != t.shape:
        raise ConfigInvalidError(f"predictions {p.shape} vs targets {t.shape}")
    if not np.isin(t, (0.0, 1.0)).all():
        raise ConfigInvalidError("targets must be binary 0/1")
    if not ((p > 0.0) & (p < 1.0)).all():
        raise NumericFaultError("predictions must lie strictly inside (0, 1)")
    terms = np.where(t > 0.5, -np.log(p), -np.log(1.0 - p))
    loss = float(terms.mean())
    if not np.isfinite(loss):
        raise NumericFaultError("binary cross-entropy overflowed")
    return loss, (p - t) / p.size


@dataclass
class AdamState:
    m: np.ndarray | None = None  # float64 first moments, one per buffer value, from the first step
    v: np.ndarray | None = None  # float64 second moments
    t: int = 0


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, config: TrainConfig) -> None:
    """One bias-corrected Adam update of a flat buffer in place, from a flat float64 gradient, in
    cache-sized blocks. Every value rounds as m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g and
    p - lr*(m/c1) / (sqrt(v/c2) + eps) in float64 would: regrouping any of these moves bits."""
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    c1, c2 = 1.0 - b1**state.t, 1.0 - b2**state.t
    if state.m is None:  # moments start at zero
        state.m, state.v = np.zeros_like(grads), np.zeros_like(grads)
    step, denominator = np.empty((2, min(ADAM_BLOCK, grads.size)))
    for lo in range(0, grads.size, ADAM_BLOCK):
        m, v, g, p = (a[lo : lo + ADAM_BLOCK] for a in (state.m, state.v, grads, params))
        s, d = step[: g.size], denominator[: g.size]
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2
        v += np.multiply(np.multiply(g, 1.0 - b2, out=s), g, out=s)
        np.sqrt(np.divide(v, c2, out=d), out=d)
        d += config.epsilon
        np.multiply(np.divide(m, c1, out=s), config.learning_rate, out=s)
        s /= d
        p[...] = np.subtract(p, s, out=s)


@dataclass(frozen=True)
class TrainLog:
    epoch_losses: np.ndarray

    def to_csv(self) -> str:
        return "epoch,loss\n" + "".join(f"{i},{loss:.6f}\n" for i, loss in enumerate(self.epoch_losses, start=1))


def fit(model: Model, patches, targets, config: TrainConfig = TrainConfig()) -> TrainLog:
    """Train the model in place; returns the per-epoch mean loss log."""
    if model.mode != config.mode:
        raise ConfigInvalidError(
            f"model mode {model.mode} != config mode {config.mode}; cast with model.astype()"
        )
    x = np.asarray(patches, dtype=model.dtype)
    if x.ndim != 3:
        raise ShapeMismatchError(f"patches must be [examples, frames, mels], got shape {x.shape}")
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != (x.shape[0], model.config.n_tags):
        raise ConfigInvalidError(
            f"targets shape {y.shape}, want ({x.shape[0]}, {model.config.n_tags})"
        )
    if x.shape[0] == 0:
        raise ConfigInvalidError("dataset is empty")
    # every example is checked before the first update changes the model
    bad = np.flatnonzero(~np.isin(y, (0.0, 1.0)).all(axis=1))
    if len(bad):
        raise ConfigInvalidError(f"targets must be binary 0/1; example {bad[0]} is not")
    bad = np.flatnonzero(~np.isfinite(x).all(axis=(1, 2)))
    if len(bad):
        raise NumericFaultError(f"patch of example {bad[0]} holds a non-finite value")

    rng = SplitMix64(config.seed)
    state = AdamState()
    n = x.shape[0]
    losses = np.zeros(config.epochs)
    for epoch in range(config.epochs):
        order = rng.shuffled(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            logits, _, tape = network.forward_batch(x[idx], model, bn_mode="train")
            del _  # the unread trace would keep forward maps alive through backward
            # sigmoid in float64, as the loss: float32 rounds to 1.0 from logit 16.6 on
            loss, grad_logits = bce_loss(ops.sigmoid(logits.astype(np.float64)), y[idx])
            stats = network.batch_norm_statistics(tape)  # backward consumes the tape
            # flat() zero-fills the bn_mean/bn_var gradients train mode lacks: Adam leaves them (p - 0.0)
            grads = model.flat(network.backward_batch(model, tape, grad_logits))
            adam_step(model.buffer, grads, state, config)
            for name, (mean, var) in stats.items():  # one EMA step of the running statistics
                layer = model.layer(name)
                layer.bn_mean[...] = EMA_MOMENTUM * layer.bn_mean + (1 - EMA_MOMENTUM) * mean
                layer.bn_var[...] = EMA_MOMENTUM * layer.bn_var + (1 - EMA_MOMENTUM) * var
            epoch_loss += loss * len(idx) / n
        losses[epoch] = epoch_loss
    return TrainLog(epoch_losses=losses)


# --- desk-scale configurations and synthetic data -------------------------------


def toy_dsp_config() -> DspConfig:
    return DspConfig(
        sample_rate=4000,
        fft_size=128,
        hop_size=64,
        n_mels=12,
        fmax=2000.0,
        patch_frames=16,
        patch_hop_frames=16,
    )


def toy_model_config(family: str = "musicnn", backend: str = "temporal_pooling", n_tags: int = 5) -> ModelConfig:
    """Small enough to train in seconds, same graph shape as the real thing."""
    if family == "vgg":
        return ModelConfig(
            family="vgg",
            n_tags=n_tags,
            dsp=toy_dsp_config(),
            vgg_block_channels=(4, 4, 4, 4, 4),
            vgg_pool_shapes=((2, 2), (2, 2), (1, 1), (1, 1), (3, 3)),
        )
    return ModelConfig(
        family="musicnn",
        backend=backend,
        n_tags=n_tags,
        dsp=toy_dsp_config(),
        timbral_channels=4,
        temporal_filter_lengths=(9, 5),
        temporal_channels=2,
        midend_channels=8,
        penultimate_units=16,
    )


def synthetic_dataset(config: ModelConfig, n_examples: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Random standard-normal patches with random binary targets."""
    rng = SplitMix64(seed)
    d = config.dsp
    x = rng.normals(n_examples * d.patch_frames * d.n_mels).reshape(
        n_examples, d.patch_frames, d.n_mels
    )
    y = (rng.uniforms(n_examples * config.n_tags) < 0.5).astype(np.float64).reshape(
        n_examples, config.n_tags
    )
    return x, y


# --- train CLI -------------------------------------------------------------------

def _parse_train_file(path) -> dict[str, str]:
    fields = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *value = line.split(None, 1)  # at the first run of spaces or tabs
        if not value:
            raise ConfigInvalidError(f"{path}:{lineno}: want 'key value', separated by spaces or tabs")
        if key in fields:
            raise ConfigInvalidError(f"{path}:{lineno}: duplicate key {key!r}")
        fields[key] = value[0]
    return fields


_TOYS = {"toy_musicnn": ("musicnn",), "toy_musicnn_attention": ("musicnn", "attention"), "toy_vgg": ("vgg",)}


def _model_from_name(name: str, mode: str) -> Model:
    if name in _TOYS:
        cfg, tags = toy_model_config(*_TOYS[name]), None
    else:
        cfg, tags = registry_get(name)
    return network.build_model(cfg, tags=tags, mode=mode)


def _positive_int(key: str, text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise ConfigInvalidError(f"{key}: want a positive integer, got {text!r}")
    return value


def add_train_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="plain-text 'key value' training config")
    parser.add_argument("--out", required=True, metavar="PATH", help="where to save the model")
    parser.add_argument("--log", metavar="PATH", help="also write the CSV log to a file")


def run_train(args: argparse.Namespace) -> None:
    """Train on a seeded synthetic dataset described by the config file.

    Recognized keys: model (registry name or toy_musicnn / toy_musicnn_attention
    / toy_vgg), dataset_size, plus any TrainConfig field.
    """
    check_output_path(args.out, "--out")
    check_output_path(args.log, "--log")
    fields = _parse_train_file(args.config)
    model_name = fields.pop("model", "toy_musicnn")
    dataset_size = _positive_int("dataset_size", fields.pop("dataset_size", "10"))
    config = parse_fields(TrainConfig, fields, defaults=True)
    if fields:
        raise ConfigInvalidError(f"unknown config keys: {', '.join(sorted(fields))}")
    model = _model_from_name(model_name, config.mode)
    x, y = synthetic_dataset(model.config, dataset_size, seed=config.seed)
    log = fit(model, x, y, config)
    save_model(model, args.out)
    csv_text = log.to_csv()
    sys.stdout.write(csv_text)
    if args.log:
        with open(args.log, "w", newline="") as fh:
            fh.write(csv_text)
