"""Model configuration, parameter allocation, and the two forward graphs.

The musicnn family stacks a musically motivated front end (tall "timbral"
kernels max-pooled over frequency, wide "temporal" kernels over an energy
envelope), a residual mid end over time, and either a temporal-pooling or an
attention back end. The vgg family is five conv/bn/relu/max-pool blocks over
the spectrogram treated as an image.

Forward passes come in one shape, `forward_batch`, which runs a stacked
[B, 1, T, M] batch through the graph with one batched `ops` call per layer,
in either batch-norm mode:

  - "infer": running statistics; examples stay independent, so B=1 calls
    reproduce single-patch inference exactly.
  - "train": statistics of the current batch (examples couple through them).

In infer mode a block that ends in a max pool (timbral, vgg) pools the conv
output before bn and relu. Per channel these form a monotone map, also in
floating point: non-decreasing where gamma >= 0 (max-pool), non-increasing
where gamma < 0 (min-pool). Train-mode batch statistics need the full map.

Conv outputs, and the maps built from them, are width-major views (see
`ops`). The ops that would sum them in memory order copy to C order first,
so this module never deals with layout.

`backward_batch` mirrors it and returns one gradient array per parameter
tensor. The ops already sum each gradient over the batch in example index
order, so this module only routes gradients between layers. After an infer
forward it rebuilds the full relu maps from the cached conv outputs. In
inference mode the running bn statistics receive exact gradients too, which
lets the whole-network gradient check cover every stored tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .dsp import DspConfig
from .errors import ConfigInvalidError, ShapeMismatchError
from .ops import LayerParams
from .rng import SplitMix64, layer_seed

BN_EPSILON = 1e-5

MUSICNN_POOLING_KEYS = frozenset(
    {"timbral", "temporal", "cnn1", "cnn2", "cnn3", "mean_pool", "max_pool", "penultimate", "output"}
)
MUSICNN_ATTENTION_KEYS = frozenset(
    {"timbral", "temporal", "cnn1", "cnn2", "cnn3", "attention_weights", "context", "penultimate", "output"}
)
VGG_KEYS = frozenset({"pool1", "pool2", "pool3", "pool4", "pool5", "output"})


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters plus the DSP front-end config."""

    family: str = "musicnn"  # "musicnn" | "vgg"
    backend: str = "temporal_pooling"  # "temporal_pooling" | "attention"
    n_tags: int = 50
    dsp: DspConfig = field(default_factory=DspConfig)
    timbral_filter_heights: tuple[float, ...] = (0.9, 0.4)
    timbral_channels: int = 51
    temporal_filter_lengths: tuple[int, ...] = (165, 129, 65, 33)
    temporal_channels: int = 8
    midend_channels: int = 64
    midend_kernel: int = 7
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
        m = self.dsp.n_mels
        if not self.timbral_filter_heights:
            raise ConfigInvalidError("need at least one timbral filter height")
        for f in self.timbral_filter_heights:
            if not 0.0 < f <= 1.0:
                raise ConfigInvalidError(f"timbral height fraction {f} outside (0, 1]")
            if round(f * m) < 1:
                raise ConfigInvalidError(f"timbral fraction {f} rounds to an empty kernel")
        if not self.temporal_filter_lengths:
            raise ConfigInvalidError("need at least one temporal filter length")
        for length in self.temporal_filter_lengths:
            if length < 1 or length % 2 == 0:
                raise ConfigInvalidError(f"temporal length {length} must be odd and positive")
        if self.timbral_channels < 1 or self.temporal_channels < 1:
            raise ConfigInvalidError("channel counts must be positive")
        if self.midend_channels < 1 or self.penultimate_units < 1:
            raise ConfigInvalidError("mid-end and penultimate sizes must be positive")
        if self.midend_kernel < 1 or self.midend_kernel % 2 == 0:
            raise ConfigInvalidError("midend_kernel must be odd (symmetric padding)")

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
        """Ordered mapping of layer name -> tensor field -> shape."""
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
                    "bias": (self.timbral_channels,),
                    **bn(self.timbral_channels),
                }
            for i, length in enumerate(self.temporal_filter_lengths):
                out[f"temporal_{i}"] = {
                    "weights": (self.temporal_channels, 1, length, 1),
                    "bias": (self.temporal_channels,),
                    **bn(self.temporal_channels),
                }
            c_in = self.frontend_channels
            for i in (1, 2, 3):
                out[f"midend_{i}"] = {
                    "weights": (self.midend_channels, c_in, self.midend_kernel, 1),
                    "bias": (self.midend_channels,),
                    **bn(self.midend_channels),
                }
                c_in = self.midend_channels
            stack = self.backend_stack_channels
            if self.backend == "attention":
                out["attention_dense"] = {"weights": (1, stack), "bias": (1,)}
                pen_in = stack
            else:
                pen_in = 2 * stack
            out["penultimate_dense"] = {
                "weights": (self.penultimate_units, pen_in),
                "bias": (self.penultimate_units,),
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
                    "bias": (c_out,),
                    **bn(c_out),
                }
                c_in = c_out
            fh, fw = self.vgg_final_extent
            out["output_dense"] = {
                "weights": (self.n_tags, self.vgg_block_channels[-1] * fh * fw),
                "bias": (self.n_tags,),
            }
        return out

    def parameter_count(self) -> int:
        return sum(
            int(np.prod(shape))
            for tensors in self.layer_shapes().values()
            for shape in tensors.values()
        )

    def trace_keys(self) -> frozenset[str]:
        if self.family == "vgg":
            return VGG_KEYS
        if self.backend == "attention":
            return MUSICNN_ATTENTION_KEYS
        return MUSICNN_POOLING_KEYS


@dataclass
class Model:
    """Architecture config, ordered parameters, and a tag vocabulary."""

    config: ModelConfig
    params: list[LayerParams]
    tags: tuple[str, ...]
    mode: str = "float32"  # "float32" inference | "float64" verification

    def __post_init__(self):
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigInvalidError("duplicate layer names")
        if len(self.tags) != self.config.n_tags:
            raise ConfigInvalidError(
                f"{len(self.tags)} tags for a {self.config.n_tags}-tag model"
            )
        if len(set(self.tags)) != len(self.tags):
            raise ConfigInvalidError("tag vocabulary has duplicates")
        self._by_name = {p.name: p for p in self.params}
        self._check_shapes()

    def _check_shapes(self) -> None:
        expected = self.config.layer_shapes()
        if list(expected) != [p.name for p in self.params]:
            raise ShapeMismatchError("layer list does not match the config algebra")
        for p in self.params:
            p.validate()
            for field_name, shape in expected[p.name].items():
                t = getattr(p, field_name)
                if t is None or t.shape != shape:
                    got = None if t is None else t.shape
                    raise ShapeMismatchError(
                        f"{p.name}.{field_name}: expected shape {shape}, got {got}"
                    )

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.float64 if self.mode == "float64" else np.float32)

    def layer(self, name: str) -> LayerParams:
        return self._by_name[name]

    def tensors(self) -> dict[str, np.ndarray]:
        out = {}
        for p in self.params:
            out.update(p.tensors())
        return out

    def set_tensors(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite named parameter tensors in place (shapes must match)."""
        for key, value in values.items():
            layer_name, field_name = key.rsplit(".", 1)
            current = getattr(self._by_name[layer_name], field_name)
            if current is None or current.shape != value.shape:
                raise ShapeMismatchError(f"cannot assign {key} with shape {value.shape}")
            setattr(self._by_name[layer_name], field_name, value.astype(self.dtype))

    def astype(self, mode: str) -> "Model":
        """Copy with every tensor cast to the requested numeric mode."""
        dtype = np.float64 if mode == "float64" else np.float32
        params = [
            LayerParams(
                name=p.name,
                **{
                    f: (None if getattr(p, f) is None else getattr(p, f).astype(dtype))
                    for f in ops.layer_params_fields()
                },
            )
            for p in self.params
        ]
        return Model(config=self.config, params=params, tags=self.tags, mode=mode)

    def parameter_count(self) -> int:
        return sum(t.size for t in self.tensors().values())


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
    biases start at zero.
    """
    if init not in ("zeros", "random"):
        raise ConfigInvalidError(f"unknown init {init!r}")
    config.validate()
    dtype = np.float64 if mode == "float64" else np.float32
    params = []
    for name, tensors in config.layer_shapes().items():
        kwargs: dict[str, np.ndarray] = {}
        for field_name, shape in tensors.items():
            if field_name == "weights" and init == "random":
                rng = SplitMix64(layer_seed(seed, name))
                fan_in = int(np.prod(shape[1:]))
                values = rng.normals(int(np.prod(shape))) * np.sqrt(2.0 / fan_in)
                kwargs[field_name] = values.reshape(shape).astype(dtype)
            elif field_name in ("bn_gamma", "bn_var"):
                kwargs[field_name] = np.ones(shape, dtype=dtype)
            else:  # zero weights, biases, bn_beta, bn_mean
                kwargs[field_name] = np.zeros(shape, dtype=dtype)
        params.append(LayerParams(name=name, **kwargs))
    if tags is None:
        tags = tuple(f"tag_{i:02d}" for i in range(config.n_tags))
    return Model(config=config, params=params, tags=tuple(tags), mode=mode)


# --- forward / backward -----------------------------------------------------


def _store(grads: dict, layer: LayerParams, **values: np.ndarray | None) -> None:
    """Record a layer's batch-summed gradients under '<layer>.<field>'."""
    for field_name, value in values.items():
        if value is not None:
            grads[f"{layer.name}.{field_name}"] = value


def _bn_forward(xs: np.ndarray, layer: LayerParams, bn_mode: str, cache: dict) -> np.ndarray:
    """Batch norm over a stacked [B, C, ...] tensor in either mode."""
    if bn_mode == "train":
        out, mean, var, bn_cache = ops.batchnorm_train(xs, layer, BN_EPSILON)
        cache["bn_cache"] = bn_cache
        cache["bn_stats"] = (layer.name, mean, var)
        return out
    cache["bn_input"] = xs
    return ops.batchnorm_infer(xs, layer, BN_EPSILON)


def _bn_backward(
    layer: LayerParams, cache: dict, grad_out: np.ndarray, grads: dict
) -> np.ndarray:
    if "bn_cache" in cache:
        grad_x, g_gamma, g_beta = ops.batchnorm_train_backward(layer, cache["bn_cache"], grad_out)
        _store(grads, layer, bn_gamma=g_gamma, bn_beta=g_beta)
        return grad_x
    grad_x, gg, gb, gm, gv = ops.batchnorm_infer_backward(cache["bn_input"], layer, grad_out, BN_EPSILON)
    _store(grads, layer, bn_gamma=gg, bn_beta=gb, bn_mean=gm, bn_var=gv)
    return grad_x


def _conv_bn_relu_forward(
    xs: np.ndarray, layer: LayerParams, pad_h: int, pad_w: int, bn_mode: str, cache: dict, pool=None
) -> np.ndarray:
    """conv -> bn -> relu [-> pool] over a stacked batch; caches what backward needs."""
    y = ops.conv2d(xs, layer, pad_h, pad_w)
    cache.update(x=xs, pad=(pad_h, pad_w))
    if pool is None or bn_mode == "train":
        h = _bn_forward(y, layer, bn_mode, cache)
        cache["relu_out"] = ops.relu(h, out=h)
        return h if pool is None else pool(h)
    cache["bn_input"] = y
    pooled = pool(y)
    neg = layer.bn_gamma < 0
    if neg.any():  # bn decreases on these channels, so their max comes from min(y)
        pooled = np.where(neg.reshape((-1,) + (1,) * (pooled.ndim - 2)), -pool(-y), pooled)
    h = ops.batchnorm_infer(pooled, layer, BN_EPSILON)
    return ops.relu(h, out=h)


def _relu_out(layer: LayerParams, cache: dict) -> np.ndarray:
    """The block's full relu map, rebuilt after an infer forward pooled first."""
    if "relu_out" not in cache:
        h = cache["relu_out"] = ops.batchnorm_infer(cache["bn_input"], layer, BN_EPSILON)
        ops.relu(h, out=h)
    return cache["relu_out"]


def _conv_bn_relu_backward(
    layer: LayerParams, cache: dict, grad_out: np.ndarray, grads: dict
) -> np.ndarray:
    grad_bn = ops.relu_backward(_relu_out(layer, cache), grad_out)
    grad_conv = _bn_backward(layer, cache, grad_bn, grads)
    grad_x, gw, gb = ops.conv2d_backward(cache["x"], layer, grad_conv, *cache["pad"])
    _store(grads, layer, weights=gw, bias=gb)
    return grad_x


def _dense_backward(
    layer: LayerParams, cache: dict, grad_out: np.ndarray, grads: dict
) -> np.ndarray:
    """Backward of ops.dense over the batch whose input the forward cached."""
    grad_x, gw, gb = ops.dense_backward(cache["x"], layer, grad_out)
    _store(grads, layer, weights=gw, bias=gb)
    return grad_x


# --- musicnn ---------------------------------------------------------------


def _musicnn_forward(xs: np.ndarray, model: Model, bn_mode: str) -> tuple[np.ndarray, dict, dict]:
    cfg = model.config
    b, _, t, m = xs.shape
    cache: dict = {"input": {}}
    x = _bn_forward(xs, model.layer("input_bn"), bn_mode, cache["input"])

    # timbral: tall kernels, relu, then a global max over what is left of
    # the frequency axis -- detectors fire wherever their shape appears in
    # frequency, which is the pitch-invariance premise of this front end
    timbral_parts = []
    for i, frac in enumerate(cfg.timbral_filter_heights):
        layer = model.layer(f"timbral_{i}")
        c = cache[f"timbral_{i}"] = {}
        h = _conv_bn_relu_forward(x, layer, 3, 0, bn_mode, c, lambda z: ops.pool_max_over_axis(z, 3))
        timbral_parts.append(h)  # [B, C, T]
    timbral = np.concatenate(timbral_parts, axis=1)

    # temporal: mean over frequency first, so the horizontal kernels see an
    # energy envelope rather than individual bands
    env = ops.pool_mean_over_axis(x, axis=3)[..., None]  # [B, 1, T, 1]
    cache["env_input_shape"] = x.shape
    temporal_parts = []
    for i, length in enumerate(cfg.temporal_filter_lengths):
        layer = model.layer(f"temporal_{i}")
        c = cache[f"temporal_{i}"] = {}
        h = _conv_bn_relu_forward(env, layer, (length - 1) // 2, 0, bn_mode, c)
        temporal_parts.append(h[..., 0])  # [B, C, T]
    temporal = np.concatenate(temporal_parts, axis=1)

    front = np.concatenate([timbral, temporal], axis=1)  # [B, C_front, T]

    pad = (cfg.midend_kernel - 1) // 2
    mid_in = front[..., None]
    mids = []
    for i in (1, 2, 3):
        c = cache[f"midend_{i}"] = {}
        h = _conv_bn_relu_forward(mid_in, model.layer(f"midend_{i}"), pad, 0, bn_mode, c)
        if i > 1:
            h = h + mid_in  # residual over the previous map
        mids.append(h)
        mid_in = h
    cnn1, cnn2, cnn3 = (h[..., 0] for h in mids)

    stack = np.concatenate([front, cnn1, cnn2, cnn3], axis=1)  # [B, C_stack, T]
    trace = {
        "timbral": timbral,
        "temporal": temporal,
        "cnn1": cnn1,
        "cnn2": cnn2,
        "cnn3": cnn3,
    }
    cache["split"] = (timbral.shape[1], cfg.frontend_channels)

    if cfg.backend == "attention":
        att = model.layer("attention_dense")
        # one affine score per frame, shared weights across time
        scores = np.einsum("n,bnt->bt", att.weights[0], stack) + att.bias[0]
        weights = ops.softmax_over_axis(scores, axis=1)  # [B, T]
        context = np.einsum("bt,bnt->bn", weights, stack)
        cache["attention"] = {"stack": stack, "weights": weights}
        trace["attention_weights"] = weights
        trace["context"] = context
        pooled = context
    else:
        mean_pool = ops.pool_mean_over_axis(stack, axis=2)  # [B, C_stack]
        max_pool = ops.pool_max_over_axis(stack, axis=2)
        cache["pooling"] = {"stack": stack}
        trace["mean_pool"] = mean_pool
        trace["max_pool"] = max_pool
        pooled = np.concatenate([mean_pool, max_pool], axis=1)

    pen_layer = model.layer("penultimate_dense")
    c = cache["penultimate"] = {"x": pooled}
    pen_lin = ops.dense(pooled, pen_layer)
    pen_bn = _bn_forward(pen_lin, pen_layer, bn_mode, c)
    c["pre_relu"] = pen_bn
    penultimate = ops.relu(pen_bn)
    trace["penultimate"] = penultimate

    cache["output"] = {"x": penultimate}
    logits = ops.dense(penultimate, model.layer("output_dense"))
    return logits, trace, cache


def _musicnn_backward(model: Model, cache: dict, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    cfg = model.config
    grads: dict[str, np.ndarray] = {}
    grad_pen = _dense_backward(model.layer("output_dense"), cache["output"], grad_logits, grads)

    pen_layer = model.layer("penultimate_dense")
    c = cache["penultimate"]
    grad_bn = ops.relu_backward(c["pre_relu"], grad_pen)
    grad_lin = _bn_backward(pen_layer, c, grad_bn, grads)
    grad_pooled = _dense_backward(pen_layer, c, grad_lin, grads)

    if cfg.backend == "attention":
        att = model.layer("attention_dense")
        stack = cache["attention"]["stack"]
        weights = cache["attention"]["weights"]
        grad_ctx = grad_pooled  # [B, C_stack]
        grad_weights = np.einsum("bn,bnt->bt", grad_ctx, stack)
        grad_stack = np.einsum("bt,bn->bnt", weights, grad_ctx)
        grad_scores = ops.softmax_backward(weights, grad_weights, axis=1)
        grads[f"{att.name}.weights"] = np.einsum("bt,bnt->n", grad_scores, stack)[None, :]
        grads[f"{att.name}.bias"] = np.atleast_1d(grad_scores.sum())
        grad_stack = grad_stack + np.einsum("bt,n->bnt", grad_scores, att.weights[0])
    else:
        stack = cache["pooling"]["stack"]
        c_stack = stack.shape[1]
        grad_mean = grad_pooled[:, :c_stack]
        grad_max = grad_pooled[:, c_stack:]
        grad_stack = ops.pool_mean_over_axis_backward(stack.shape, 2, grad_mean)
        grad_stack = grad_stack + ops.pool_max_over_axis_backward(stack, 2, grad_max)

    c_front = cfg.frontend_channels
    c_mid = cfg.midend_channels
    grad_front = grad_stack[:, :c_front]
    grad_mid = [
        grad_stack[:, c_front + i * c_mid : c_front + (i + 1) * c_mid] for i in range(3)
    ]

    # residual mid end, walked backwards: cnn3 = block3(cnn2) + cnn2, etc.
    grad_h = grad_mid[2][..., None]
    grad_h2 = _conv_bn_relu_backward(model.layer("midend_3"), cache["midend_3"], grad_h, grads)
    grad_h2 = grad_h2 + grad_h + grad_mid[1][..., None]
    grad_h1 = _conv_bn_relu_backward(model.layer("midend_2"), cache["midend_2"], grad_h2, grads)
    grad_h1 = grad_h1 + grad_h2 + grad_mid[0][..., None]
    grad_front_mid = _conv_bn_relu_backward(model.layer("midend_1"), cache["midend_1"], grad_h1, grads)
    grad_front = grad_front + grad_front_mid[..., 0]

    c_timbral, _ = cache["split"]
    grad_timbral = grad_front[:, :c_timbral]
    grad_temporal = grad_front[:, c_timbral:]

    grad_x = None
    offset = 0
    for i, _ in enumerate(cfg.timbral_filter_heights):
        c = cache[f"timbral_{i}"]
        part = grad_timbral[:, offset : offset + cfg.timbral_channels]
        offset += cfg.timbral_channels
        layer = model.layer(f"timbral_{i}")
        grad_pool = ops.pool_max_over_axis_backward(_relu_out(layer, c), 3, part)
        gx = _conv_bn_relu_backward(layer, c, grad_pool, grads)
        grad_x = gx if grad_x is None else grad_x + gx

    grad_env = None
    offset = 0
    for i, _ in enumerate(cfg.temporal_filter_lengths):
        c = cache[f"temporal_{i}"]
        part = grad_temporal[:, offset : offset + cfg.temporal_channels]
        offset += cfg.temporal_channels
        ge = _conv_bn_relu_backward(model.layer(f"temporal_{i}"), c, part[..., None], grads)
        grad_env = ge if grad_env is None else grad_env + ge
    if grad_env is not None:
        grad_x = grad_x + ops.pool_mean_over_axis_backward(
            cache["env_input_shape"], 3, grad_env[..., 0]
        )

    _bn_backward(model.layer("input_bn"), cache["input"], grad_x, grads)
    return grads


# --- vgg ---------------------------------------------------------------------


def _vgg_forward(xs: np.ndarray, model: Model, bn_mode: str) -> tuple[np.ndarray, dict, dict]:
    cfg = model.config
    pad_frames = cfg.vgg_input_frames - cfg.dsp.patch_frames
    cache: dict = {}
    x = np.pad(xs, ((0, 0), (0, 0), (0, pad_frames), (0, 0)))
    trace = {}
    for i, (ph, pw) in enumerate(cfg.vgg_pool_shapes, start=1):
        layer = model.layer(f"block{i}")
        c = cache[f"block{i}"] = {"pool": (ph, pw)}
        x = _conv_bn_relu_forward(x, layer, 1, 1, bn_mode, c, lambda z: ops.pool_max(z, ph, pw))
        trace[f"pool{i}"] = x
    flat = x.reshape(x.shape[0], -1)
    cache["flat_shape"] = x.shape
    cache["output"] = {"x": flat}
    logits = ops.dense(flat, model.layer("output_dense"))
    return logits, trace, cache


def _vgg_backward(model: Model, cache: dict, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    grads: dict[str, np.ndarray] = {}
    grad_flat = _dense_backward(model.layer("output_dense"), cache["output"], grad_logits, grads)
    grad_x = grad_flat.reshape(cache["flat_shape"])
    for i in range(5, 0, -1):
        layer, c = model.layer(f"block{i}"), cache[f"block{i}"]
        grad_pool = ops.pool_max_backward(_relu_out(layer, c), *c["pool"], grad_x)
        grad_x = _conv_bn_relu_backward(layer, c, grad_pool, grads)
    return grads


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


def forward_batch(
    patches: np.ndarray, model: Model, bn_mode: str = "infer"
) -> tuple[np.ndarray, dict, dict]:
    """Run a [B, 1, T, M] batch; returns (logits [B, n_tags], trace, cache).

    Trace values are stacked over the batch. The cache is consumed by
    backward_batch and holds references to forward intermediates.
    """
    if bn_mode not in ("infer", "train"):
        raise ConfigInvalidError(f"unknown bn_mode {bn_mode!r}")
    xs = _as_batch(patches, model)
    if model.config.family == "vgg":
        logits, trace, cache = _vgg_forward(xs, model, bn_mode)
    else:
        logits, trace, cache = _musicnn_forward(xs, model, bn_mode)
    cache["family"] = model.config.family
    trace["output"] = ops.sigmoid(logits)
    return logits, trace, cache


def backward_batch(model: Model, cache: dict, grad_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss wrt every parameter tensor, given the
    loss gradient at the pre-sigmoid logits. Sums over the batch in example
    index order."""
    backward = _vgg_backward if cache["family"] == "vgg" else _musicnn_backward
    return backward(model, cache, np.asarray(grad_logits, dtype=model.dtype))


def forward(patch: np.ndarray, model: Model) -> dict[str, np.ndarray]:
    """Single-patch inference trace: every named intermediate plus 'output'."""
    _, trace, _ = forward_batch(patch, model, bn_mode="infer")
    return {k: v[0] for k, v in trace.items()}


def batch_norm_statistics(cache: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Per-layer (batch_mean, batch_var) recorded by a train-mode forward,
    keyed by layer name."""
    out = {}
    for value in cache.values():
        if isinstance(value, dict) and "bn_stats" in value:
            name, mean, var = value["bn_stats"]
            out[name] = (mean, var)
    return out
