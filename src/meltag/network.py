"""Model configuration, parameter allocation, and the two forward graphs.

Every model, built, loaded or cast, holds its parameters in one flat C-order
buffer in `tensor_specs` order (the `.mcn` payload's order too). Each tensor
is a view of it on a frozen `LayerParams`, so it can only be written into
(`Model.set_tensors`, `model.layer(name).<field>`, the trainer's in-place
updates). `Model.tensors()` is a copy.

The musicnn family stacks a musically motivated front end (tall "timbral"
kernels max-pooled over frequency, wide "temporal" kernels over an energy
envelope), a residual mid end over time, and either a temporal-pooling or an
attention back end. The vgg family is five conv/bn/relu/max-pool blocks over
the spectrogram treated as an image.

Forward passes come in one shape: `forward_batch` runs a stacked
[B, 1, T, M] batch through the graph with one batched `ops` call per layer,
in either batch-norm mode:

  - "infer": running statistics; examples stay independent, so B=1 calls
    reproduce single-patch inference exactly.
  - "train": statistics of the current batch (examples couple through them).

A block that ends in a max pool (timbral, vgg) pools the conv output before bn
and relu. Per channel these form a monotone map, also in floating point:
non-decreasing where gamma >= 0 (max-pool), non-increasing where gamma < 0
(min-pool). In train mode the batch statistics still come from the full map.

Conv outputs, and the maps built from them, are width-major views (see
`ops`). The ops that would sum them in memory order copy to C order first,
so this module never deals with layout.

forward_batch records a tape: one (rule, input_slots, layer, saved,
out_shape) entry per step -- a conv-bn-relu[-pool] block, bn, dense, relu,
concat, residual add, mean over an axis, or a back end. Slot i is entry i's
output; None is the input batch. `backward_batch` runs the tape in reverse
and returns one gradient array per parameter tensor; a value read by several
steps gets their gradients summed in recording order. The ops already sum
over the batch in example index order. Backward consumes the tape, freeing
each entry and cached map once its rule has used it, so a train step reads
`batch_norm_statistics` first (a consumed tape raises TapeConsumedError).
A pooled block keeps each window's offset of its extreme, and its rule routes
the pooled gradient there (ops.pool_extreme_backward), so no full bn or relu
map is kept or rebuilt. In inference mode the running bn statistics receive exact
gradients too, which lets the whole-network gradient check cover every stored
tensor. `infer_batch` (tag, extract, transfer) records none and pools each
conv map inside conv2d_pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import ops
from .dsp import DspConfig
from .errors import ConfigInvalidError, ShapeMismatchError, TapeConsumedError
from .ops import LayerParams
from .rng import SplitMix64, layer_seed

MUSICNN_POOLING_KEYS = frozenset(
    {"timbral", "temporal", "cnn1", "cnn2", "cnn3", "mean_pool", "max_pool", "penultimate", "output"}
)
MUSICNN_ATTENTION_KEYS = frozenset(
    {"timbral", "temporal", "cnn1", "cnn2", "cnn3", "attention_weights", "context", "penultimate", "output"}
)
VGG_KEYS = frozenset({"pool1", "pool2", "pool3", "pool4", "pool5", "output"})


def mode_dtype(mode: str) -> np.dtype:
    """The tensor dtype of a numeric mode: float32 inference, float64 verification."""
    if mode not in ("float32", "float64"):
        raise ConfigInvalidError(f"unknown numeric mode {mode!r}")
    return np.dtype(mode)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters plus the DSP front-end config. The ClassVars, musicnn kernel
    shapes that every released model shares, are constants that no manifest carries."""

    family: str = "musicnn"  # "musicnn" | "vgg"
    backend: str = "temporal_pooling"  # "temporal_pooling" | "attention"
    n_tags: int = 50
    dsp: DspConfig = field(default_factory=DspConfig)
    timbral_filter_heights: ClassVar[tuple[float, ...]] = (0.9, 0.4)
    timbral_channels: int = 51
    temporal_filter_lengths: tuple[int, ...] = (165, 129, 65, 33)
    temporal_channels: int = 8
    midend_channels: int = 64
    midend_kernel: ClassVar[int] = 7
    penultimate_units: int = 200
    vgg_block_channels: tuple[int, ...] = (32, 64, 96, 128, 128)
    vgg_pool_shapes: tuple[tuple[int, int], ...] = ((2, 2), (2, 2), (2, 2), (4, 4), (6, 3))

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.family not in ("musicnn", "vgg"):
            raise ConfigInvalidError(f"unknown family {self.family!r}")
        if self.backend not in ("temporal_pooling", "attention"):
            raise ConfigInvalidError(f"unknown backend {self.backend!r}")
        if self.n_tags < 1:
            raise ConfigInvalidError("n_tags must be at least 1")
        if self.family == "musicnn":
            self._validate_musicnn()
        else:
            self._validate_vgg()

    def _validate_musicnn(self) -> None:
        if round(min(self.timbral_filter_heights) * self.dsp.n_mels) < 1:
            raise ConfigInvalidError(f"n_mels {self.dsp.n_mels} is too few for the timbral kernels")
        if not self.temporal_filter_lengths:
            raise ConfigInvalidError("need at least one temporal filter length")
        for length in self.temporal_filter_lengths:
            if length < 1 or length % 2 == 0:
                raise ConfigInvalidError(f"temporal length {length} must be odd and positive")
        if self.timbral_channels < 1 or self.temporal_channels < 1:
            raise ConfigInvalidError("channel counts must be positive")
        if self.midend_channels < 1 or self.penultimate_units < 1:
            raise ConfigInvalidError("mid-end and penultimate sizes must be positive")

    def _validate_vgg(self) -> None:
        if len(self.vgg_block_channels) != 5 or len(self.vgg_pool_shapes) != 5:
            raise ConfigInvalidError("vgg needs exactly five blocks and five pool shapes")
        if any(c < 1 for c in self.vgg_block_channels):
            raise ConfigInvalidError("vgg block channels must be positive")
        width_product = 1
        for ph, pw in self.vgg_pool_shapes:
            if ph < 1 or pw < 1:
                raise ConfigInvalidError("pool shapes must be positive")
            width_product *= pw
        if self.dsp.n_mels % width_product != 0:
            raise ConfigInvalidError(
                f"vgg pool widths (product {width_product}) do not divide n_mels {self.dsp.n_mels}"
            )

    # --- derived config algebra ---

    @property
    def frontend_channels(self) -> int:
        return len(self.timbral_filter_heights) * self.timbral_channels + len(
            self.temporal_filter_lengths
        ) * self.temporal_channels

    @property
    def backend_stack_channels(self) -> int:
        return self.frontend_channels + 3 * self.midend_channels

    @property
    def vgg_pool_height_product(self) -> int:
        p = 1
        for ph, _ in self.vgg_pool_shapes:
            p *= ph
        return p

    @property
    def vgg_input_frames(self) -> int:
        """Patch frames zero-padded up to the next pool-height multiple."""
        hp = self.vgg_pool_height_product
        return -(-self.dsp.patch_frames // hp) * hp

    @property
    def vgg_final_extent(self) -> tuple[int, int]:
        h, w = self.vgg_input_frames, self.dsp.n_mels
        for ph, pw in self.vgg_pool_shapes:
            h //= ph
            w //= pw
        return h, w

    def layer_shapes(self) -> dict[str, dict[str, tuple[int, ...]]]:
        """Ordered mapping of layer name -> tensor field -> shape. Only output_dense has a bias: each
        other layer feeds a batch norm or (attention_dense) a softmax, either of which cancels one."""
        m = self.dsp.n_mels
        out: dict[str, dict[str, tuple[int, ...]]] = {}

        def bn(c: int) -> dict[str, tuple[int, ...]]:
            return {k: (c,) for k in ("bn_gamma", "bn_beta", "bn_mean", "bn_var")}

        if self.family == "musicnn":
            out["input_bn"] = bn(1)
            for i, frac in enumerate(self.timbral_filter_heights):
                kw = round(frac * m)
                out[f"timbral_{i}"] = {
                    "weights": (self.timbral_channels, 1, 7, kw),
                    **bn(self.timbral_channels),
                }
            for i, length in enumerate(self.temporal_filter_lengths):
                out[f"temporal_{i}"] = {
                    "weights": (self.temporal_channels, 1, length, 1),
                    **bn(self.temporal_channels),
                }
            c_in = self.frontend_channels
            for i in (1, 2, 3):
                out[f"midend_{i}"] = {
                    "weights": (self.midend_channels, c_in, self.midend_kernel, 1),
                    **bn(self.midend_channels),
                }
                c_in = self.midend_channels
            stack = self.backend_stack_channels
            if self.backend == "attention":
                out["attention_dense"] = {"weights": (1, stack)}
                pen_in = stack
            else:
                pen_in = 2 * stack
            out["penultimate_dense"] = {
                "weights": (self.penultimate_units, pen_in),
                **bn(self.penultimate_units),
            }
            out["output_dense"] = {
                "weights": (self.n_tags, self.penultimate_units),
                "bias": (self.n_tags,),
            }
        else:
            c_in = 1
            for i, c_out in enumerate(self.vgg_block_channels, start=1):
                out[f"block{i}"] = {
                    "weights": (c_out, c_in, 3, 3),
                    **bn(c_out),
                }
                c_in = c_out
            fh, fw = self.vgg_final_extent
            out["output_dense"] = {
                "weights": (self.n_tags, self.vgg_block_channels[-1] * fh * fw),
                "bias": (self.n_tags,),
            }
        return out

    def trace_keys(self) -> frozenset[str]:
        if self.family == "vgg":
            return VGG_KEYS
        if self.backend == "attention":
            return MUSICNN_ATTENTION_KEYS
        return MUSICNN_POOLING_KEYS


def tensor_specs(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(key, shape) of every parameter tensor, keyed '<layer>.<field>', in buffer and file order."""
    shapes = config.layer_shapes()
    return [(f"{name}.{f}", shape) for name in shapes for f, shape in shapes[name].items()]


def _cut(buffer: np.ndarray, config: ModelConfig) -> dict[str, np.ndarray]:
    """Key -> C-order view of a flat buffer, in tensor_specs order."""
    views, pos = {}, 0
    for key, shape in tensor_specs(config):
        views[key] = buffer[pos : pos + math.prod(shape)].reshape(shape)
        pos += views[key].size
    return views


@dataclass(frozen=True)
class Model:
    """Config, one flat parameter buffer and a tag vocabulary, frozen so that no field can come apart
    from the views: each tensor is a C-order view of `buffer`, on a frozen LayerParams (see above)."""

    config: ModelConfig
    buffer: np.ndarray  # 1-D, C order, in the mode's dtype
    tags: tuple[str, ...]
    mode: str = "float32"  # see mode_dtype

    def __post_init__(self):
        dtype = mode_dtype(self.mode)
        if len(self.tags) != self.config.n_tags:
            raise ConfigInvalidError(
                f"{len(self.tags)} tags for a {self.config.n_tags}-tag model"
            )
        if len(set(self.tags)) != len(self.tags):
            raise ConfigInvalidError("tag vocabulary has duplicates")
        for tag in self.tags:  # a line break would split the tag's line of a saved manifest
            if "".join(tag.splitlines()) != tag:
                raise ConfigInvalidError(f"tag {tag!r} holds a line break")
        b, size = self.buffer, sum(math.prod(shape) for _, shape in tensor_specs(self.config))
        if b.dtype != dtype or b.shape != (size,) or not b.flags.c_contiguous:
            raise ShapeMismatchError(f"buffer {b.dtype} {b.shape}: the config needs a C-order {dtype} ({size},)")
        views = _cut(b, self.config)
        layers = {
            name: LayerParams(name, **{f: views[f"{name}.{f}"] for f in tensors})
            for name, tensors in self.config.layer_shapes().items()
        }
        for p in layers.values():
            p.validate()
        object.__setattr__(self, "_views", views)  # set once, here: the dataclass is frozen
        object.__setattr__(self, "_by_name", layers)

    @property
    def dtype(self) -> np.dtype:
        return mode_dtype(self.mode)

    def layer(self, name: str) -> LayerParams:
        return self._by_name[name]

    def tensors(self) -> dict[str, np.ndarray]:
        """A snapshot: a copy of every tensor, keyed '<layer>.<field>', in buffer order."""
        return {key: view.copy() for key, view in self._views.items()}

    def set_tensors(self, values: dict[str, np.ndarray]) -> None:
        """Copy named tensors into their views of the buffer (shapes must match)."""
        for key, value in values.items():
            view = self._views.get(key)
            if view is None or view.shape != value.shape:
                want = "no such tensor" if view is None else f"shape {view.shape}"
                raise ShapeMismatchError(f"cannot assign {key!r} with shape {value.shape}: the model has {want}")
            view[...] = value

    def flat(self, grads: dict[str, np.ndarray]) -> np.ndarray:
        """Gradients keyed as tensors() as one float64 array in buffer order; a missing key is zero."""
        out = np.zeros(self.buffer.size)
        views = _cut(out, self.config)
        for key, g in grads.items():
            views[key][...] = g
        return out

    def astype(self, mode: str) -> "Model":
        """Copy with the buffer cast to the requested numeric mode (a copy also for the same mode)."""
        return Model(self.config, self.buffer.astype(mode_dtype(mode)), self.tags, mode)


def build_model(
    config: ModelConfig,
    init: str = "random",
    seed: int = 0,
    tags: tuple[str, ...] | None = None,
    mode: str = "float32",
) -> Model:
    """Allocate all layer parameters for a config.

    init "zeros" gives all-zero weights; "random" draws He-scaled Gaussians
    (std sqrt(2 / fan_in)) from a per-layer SplitMix64 stream keyed by the
    layer name, so the same seed always yields bit-identical parameters.
    Batch-norm starts at the identity (gamma 1, beta 0, mean 0, var 1);
    output_dense's bias, the only one, starts at zero.
    """
    if init not in ("zeros", "random"):
        raise ConfigInvalidError(f"unknown init {init!r}")
    if tags is None:
        tags = tuple(f"tag_{i:02d}" for i in range(config.n_tags))
    size = sum(math.prod(shape) for _, shape in tensor_specs(config))
    model = Model(config, np.zeros(size, mode_dtype(mode)), tuple(tags), mode)
    for layer in model._by_name.values():
        if layer.weights is not None and init == "random":
            rng = SplitMix64(layer_seed(seed, layer.name))
            values = rng.normals(layer.weights.size)
            values *= np.sqrt(2.0 / math.prod(layer.weights.shape[1:]))  # fan-in
            layer.weights[...] = values.reshape(layer.weights.shape)
            del values  # before the next layer's draw
        if layer.bn_gamma is not None:
            layer.bn_gamma[...] = 1.0
            layer.bn_var[...] = 1.0
    return model


# --- the tape: forward steps and their backward rules --------------------------


def _record(tape: list | None, rule, inputs: tuple, layer, saved, out: np.ndarray) -> tuple:
    if tape is None:  # infer_batch
        return out, None
    tape.append((rule, inputs, layer, saved, out.shape))
    return out, len(tape) - 1


def _bn_forward(xs: np.ndarray, layer: LayerParams, bn_mode: str, cache: dict, window=None) -> np.ndarray:
    """Batch norm over a stacked [B, C, ...] tensor in either mode; with a pool window, of each
    window's extreme only (the pooled map of bn's output, see ops.batchnorm_train)."""
    if bn_mode == "train":
        out, mean, var, cache["bn_cache"] = ops.batchnorm_train(xs, layer, window)
        cache["bn_stats"] = (mean, var)
        return out
    if window:
        xs, cache["at"] = ops.pool_extreme(xs, *window, layer.bn_gamma < 0)
        cache["window"] = window
    cache["bn_input"] = xs
    return ops.batchnorm_infer(xs, layer)


def _bn_rule(grad: np.ndarray, layer: LayerParams, cache: dict, grads: dict) -> tuple:
    p = layer.name + "."
    if "bn_cache" in cache:
        grad_x, grads[p + "bn_gamma"], grads[p + "bn_beta"] = ops.batchnorm_train_backward(
            layer, cache.pop("bn_cache"), grad
        )
        return (grad_x,)
    grad_x, grads[p + "bn_gamma"], grads[p + "bn_beta"], grads[p + "bn_mean"], grads[p + "bn_var"] = (
        ops.batchnorm_infer_backward(cache.pop("bn_input"), layer, grad)
    )
    if "at" in cache:  # route each window's gradient to its extreme
        grad_x = ops.pool_extreme_backward(grad_x, cache.pop("at"), *cache["window"])
    return (grad_x,)


def _bn(tape: list | None, src, xs: np.ndarray, layer: LayerParams, bn_mode: str) -> tuple:
    cache: dict = {}  # references only; dropped with no tape
    return _record(tape, _bn_rule, (src,), layer, cache, _bn_forward(xs, layer, bn_mode, cache))


def _pool_first(y: np.ndarray, pool, gamma: np.ndarray) -> np.ndarray:
    """pool(y) of a [B, C, ...] conv map ahead of infer bn, whose max comes from min(y) where gamma < 0."""
    pooled, neg = pool(y), gamma < 0
    if neg.any():
        pooled = np.where(neg.reshape((-1,) + (1,) * (pooled.ndim - 2)), -pool(-y), pooled)
    return pooled


def _conv_bn_relu_forward(
    xs: np.ndarray, layer: LayerParams, pad_h: int, pad_w: int, bn_mode: str, cache: dict | None, pool=None
) -> np.ndarray:
    """conv -> bn -> relu [-> max pool] over a stacked batch; caches what backward needs. pool is
    (forward, (window_h, window_w)): with no cache (infer only) conv2d pools each example's map
    by forward as it makes it, and a tape's block normalises each window's extreme only."""
    if cache is None:
        first = pool and (lambda y: _pool_first(y, pool[0], layer.bn_gamma))
        h = ops.batchnorm_infer(ops.conv2d_pool(xs, layer, pad_h, pad_w, first), layer)
        return ops.relu(h, out=h)
    cache.update(x=xs, pad=(pad_h, pad_w))
    h = _bn_forward(ops.conv2d(xs, layer, pad_h, pad_w), layer, bn_mode, cache, pool and pool[1])
    cache["relu_out"] = ops.relu(h, out=h)
    return h


def _block_rule(grad: np.ndarray, layer: LayerParams, cache: dict, grads: dict) -> tuple:
    # popping the (pooled) relu map and the bn cache leaves one full map, the gradient, for conv2d_backward
    (grad,) = _bn_rule(ops.relu_backward(cache.pop("relu_out"), grad), layer, cache, grads)
    grad_x, grads[layer.name + ".weights"], _ = ops.conv2d_backward(cache.pop("x"), layer, grad, *cache["pad"])
    return (grad_x,)


def _block(tape: list | None, src, xs: np.ndarray, layer: LayerParams, pad: tuple, bn_mode: str, pool=None) -> tuple:
    """One conv-bn-relu[-pool] block as a single tape entry; pool as in _conv_bn_relu_forward."""
    cache = None if tape is None else {}
    h = _conv_bn_relu_forward(xs, layer, *pad, bn_mode, cache, pool)
    return _record(tape, _block_rule, (src,), layer, cache, h)


def _dense_rule(grad: np.ndarray, layer: LayerParams, x: np.ndarray, grads: dict) -> tuple:
    p = layer.name + "."
    grad_x, grads[p + "weights"], grad_b = ops.dense_backward(x, layer, grad)
    if grad_b is not None:
        grads[p + "bias"] = grad_b
    return (grad_x,)


def _dense(tape: list | None, node: tuple, layer: LayerParams) -> tuple:
    x, src = node
    return _record(tape, _dense_rule, (src,), layer, x, ops.dense(x, layer))


def _relu_rule(grad: np.ndarray, layer, pre_relu: np.ndarray, grads: dict) -> tuple:
    return (ops.relu_backward(pre_relu, grad),)


def _add_rule(grad: np.ndarray, layer, saved, grads: dict) -> tuple:
    return (grad, grad)


def _concat_rule(grad: np.ndarray, layer, bounds: list, grads: dict) -> list:
    return [grad[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _concat(tape: list | None, nodes: list) -> tuple:
    """Concatenate (value, slot) pairs over the channel axis."""
    values, slots = zip(*nodes)
    bounds = [0]
    for value in values:
        bounds.append(bounds[-1] + value.shape[1])
    return _record(tape, _concat_rule, slots, None, bounds, np.concatenate(values, axis=1))


def _mean_rule(grad: np.ndarray, layer, saved: tuple, grads: dict) -> tuple:
    shape, axis = saved
    return (ops.pool_mean_over_axis_backward(shape, axis, grad),)


def _pooling_rule(grad: np.ndarray, layer, stack: np.ndarray, grads: dict) -> tuple:
    """The temporal-pooling back end: mean and max of the stack over time."""
    c_stack = stack.shape[1]
    grad_stack = ops.pool_mean_over_axis_backward(stack.shape, 2, grad[:, :c_stack])
    return (grad_stack + ops.pool_max_over_axis_backward(stack, 2, grad[:, c_stack:]),)


def _attention_rule(grad_ctx: np.ndarray, att: LayerParams, saved: tuple, grads: dict) -> tuple:
    stack, weights = saved
    grad_weights = np.einsum("bn,bnt->bt", grad_ctx, stack)
    grad_stack = np.einsum("bt,bn->bnt", weights, grad_ctx)
    grad_scores = ops.softmax_backward(weights, grad_weights, axis=1)
    grads[f"{att.name}.weights"] = np.einsum("bt,bnt->n", grad_scores, stack)[None, :]
    return (grad_stack + np.einsum("bt,n->bnt", grad_scores, att.weights[0]),)


# --- musicnn ---------------------------------------------------------------


def _musicnn_forward(xs: np.ndarray, model: Model, bn_mode: str, tape: list | None) -> tuple[np.ndarray, dict]:
    cfg = model.config
    x, x_slot = _bn(tape, None, xs, model.layer("input_bn"), bn_mode)

    # timbral: tall kernels, relu, then a global max over what is left of
    # the frequency axis -- detectors fire wherever their shape appears in
    # frequency, which is the pitch-invariance premise of this front end
    front_parts = []  # [B, C, T] each
    for i in range(len(cfg.timbral_filter_heights)):
        layer = model.layer(f"timbral_{i}")
        window = (1, x.shape[3] - layer.weights.shape[3] + 1)  # the whole width
        pool = (lambda z: ops.pool_max_over_axis(z, 3)[..., None], window)
        h, slot = _block(tape, x_slot, x, layer, (3, 0), bn_mode, pool)
        front_parts.append((h[..., 0], slot))

    # temporal: mean over frequency first, so the horizontal kernels see an
    # energy envelope rather than individual bands
    env, env_slot = _record(tape, _mean_rule, (x_slot,), None, (x.shape, 3), ops.pool_mean_over_axis(x, 3))
    env = env[..., None]  # [B, 1, T, 1]
    for i, length in enumerate(cfg.temporal_filter_lengths):
        h, slot = _block(tape, env_slot, env, model.layer(f"temporal_{i}"), ((length - 1) // 2, 0), bn_mode)
        front_parts.append((h[..., 0], slot))  # [B, C, T]

    front, front_slot = _concat(tape, front_parts)  # [B, C_front, T]
    c_timbral = len(cfg.timbral_filter_heights) * cfg.timbral_channels
    trace = {"timbral": front[:, :c_timbral], "temporal": front[:, c_timbral:]}

    pad = ((cfg.midend_kernel - 1) // 2, 0)
    stack_parts = [(front, front_slot)]
    mid_in, mid_slot = front[..., None], front_slot
    for i in (1, 2, 3):
        h, slot = _block(tape, mid_slot, mid_in, model.layer(f"midend_{i}"), pad, bn_mode)
        if i > 1:  # residual over the previous map
            h, slot = _record(tape, _add_rule, (slot, mid_slot), None, None, h + mid_in)
        trace[f"cnn{i}"] = h[..., 0]
        stack_parts.append((trace[f"cnn{i}"], slot))
        mid_in, mid_slot = h, slot
    stack, stack_slot = _concat(tape, stack_parts)  # [B, C_stack, T]

    if cfg.backend == "attention":
        att = model.layer("attention_dense")
        # one score per frame, shared weights across time (a bias would cancel in the softmax)
        scores = np.einsum("n,bnt->bt", att.weights[0], stack)
        weights = ops.softmax_over_axis(scores, axis=1)  # [B, T]
        context = np.einsum("bt,bnt->bn", weights, stack)
        trace["attention_weights"] = weights
        trace["context"] = context
        pooled = _record(tape, _attention_rule, (stack_slot,), att, (stack, weights), context)
    else:
        trace["mean_pool"] = ops.pool_mean_over_axis(stack, axis=2)  # [B, C_stack]
        trace["max_pool"] = ops.pool_max_over_axis(stack, axis=2)
        pooled = np.concatenate([trace["mean_pool"], trace["max_pool"]], axis=1)
        pooled = _record(tape, _pooling_rule, (stack_slot,), None, stack, pooled)

    pen_layer = model.layer("penultimate_dense")
    pen_lin, slot = _dense(tape, pooled, pen_layer)
    pen_bn, slot = _bn(tape, slot, pen_lin, pen_layer, bn_mode)
    trace["penultimate"] = ops.relu(pen_bn)
    penultimate = _record(tape, _relu_rule, (slot,), None, pen_bn, trace["penultimate"])

    logits, _ = _dense(tape, penultimate, model.layer("output_dense"))
    return logits, trace


# --- vgg ---------------------------------------------------------------------


def _vgg_forward(xs: np.ndarray, model: Model, bn_mode: str, tape: list | None) -> tuple[np.ndarray, dict]:
    cfg = model.config
    pad_frames = cfg.vgg_input_frames - cfg.dsp.patch_frames
    x, slot = np.pad(xs, ((0, 0), (0, 0), (0, pad_frames), (0, 0))), None
    trace = {}
    for i, (ph, pw) in enumerate(cfg.vgg_pool_shapes, start=1):
        pool = (lambda z: ops.pool_max(z, ph, pw), (ph, pw))
        x, slot = _block(tape, slot, x, model.layer(f"block{i}"), (1, 1), bn_mode, pool)
        trace[f"pool{i}"] = x
    logits, _ = _dense(tape, (x.reshape(x.shape[0], -1), slot), model.layer("output_dense"))
    return logits, trace


# --- public entry points ------------------------------------------------------


def _as_batch(patches: np.ndarray, model: Model) -> np.ndarray:
    cfg = model.config.dsp
    x = np.asarray(patches, dtype=model.dtype)
    if x.ndim == 2:
        x = x[None, None]
    elif x.ndim == 3:
        x = x[:, None]
    elif x.ndim != 4:
        raise ShapeMismatchError(f"patch batch has rank {x.ndim}, want 2..4")
    if x.shape[1] != 1 or x.shape[2] != cfg.patch_frames or x.shape[3] != cfg.n_mels:
        raise ShapeMismatchError(
            f"patch shape {x.shape[1:]} does not match (1, {cfg.patch_frames}, {cfg.n_mels})"
        )
    return x


def _forward(patches: np.ndarray, model: Model, bn_mode: str, tape: list | None) -> tuple[np.ndarray, dict]:
    if bn_mode not in ("infer", "train"):
        raise ConfigInvalidError(f"unknown bn_mode {bn_mode!r}")
    xs = _as_batch(patches, model)
    graph = _vgg_forward if model.config.family == "vgg" else _musicnn_forward
    logits, trace = graph(xs, model, bn_mode, tape)
    trace["output"] = ops.sigmoid(logits)
    return logits, trace


def forward_batch(
    patches: np.ndarray, model: Model, bn_mode: str = "infer"
) -> tuple[np.ndarray, dict, list]:
    """Run a [B, 1, T, M] batch; returns (logits [B, n_tags], trace, tape). Trace values are
    stacked over the batch; the tape, consumed by backward_batch, holds forward intermediates."""
    tape: list = []
    return (*_forward(patches, model, bn_mode, tape), tape)


def infer_batch(patches: np.ndarray, model: Model) -> tuple[np.ndarray, dict]:
    """forward_batch in infer mode, bit for bit, with no tape: (logits, trace).
    It keeps nothing a backward needs and pools conv maps per example."""
    return _forward(patches, model, "infer", None)


def _unconsumed(tape: list) -> list:
    if None in tape:
        raise TapeConsumedError("backward_batch consumed this tape; record a new one with forward_batch")
    return tape


def backward_batch(model: Model, tape: list, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt every parameter tensor, given the loss
    gradient at the pre-sigmoid logits. Sums over the batch in example index order.
    Consumes the tape, releasing each entry as its rule runs: read batch_norm_statistics first."""
    grads: dict[str, np.ndarray] = {}
    incoming: list[list] = [[] for _ in _unconsumed(tape)]
    incoming[-1].append(np.asarray(grad_logits, dtype=model.dtype))
    for slot in range(len(tape) - 1, -1, -1):
        rule, inputs, layer, saved, out_shape = tape[slot]
        tape[slot] = None
        parts = incoming[slot]  # newest reader first
        grad = parts.pop()
        while parts:
            grad = grad + parts.pop().reshape(grad.shape)
        if grad.shape != out_shape:
            grad = grad.reshape(out_shape)
        for src, g in zip(inputs, rule(grad, layer, saved, grads)):
            if src is not None:
                incoming[src].append(g)
    return grads


def batch_norm_statistics(tape: list) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-layer (batch_mean, batch_var) recorded by a train-mode forward,
    keyed by layer name. Read it before backward_batch consumes the tape."""
    out = {}
    for _, _, layer, saved, _ in _unconsumed(tape):
        if isinstance(saved, dict) and "bn_stats" in saved:
            out[layer.name] = saved["bn_stats"]
    return out
