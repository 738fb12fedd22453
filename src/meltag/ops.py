"""Dense tensor operations for the network core: forwards and hand-written
backwards.

Tensors are numpy arrays. conv2d stores its output width-major ([..., C, W,
H] in memory) and returns the transposed [..., C, H, W] view, so a max over
width (musicnn's frequency axis) combines whole rows of H instead of reducing
one short row per output; maps computed from it elementwise keep that
layout. No op's bits depend on its inputs' layout: batchnorm_train and
batchnorm_infer_backward, whose float sums would follow memory order, sum
over a C-ordered copy. Every op takes a whole batch:
convolution inputs are [..., channels, height, width], dense inputs
[..., features] and max pooling [..., height, width], with any number of
leading batch axes (none for a single example); batch normalization takes
[batch, channels, ...] in both modes. Row b of a batched call is bit for bit
the call on example b alone, and parameter gradients come back already
summed over the batch in example index order.

Every forward surfaces NaN/Inf as NumericFaultError: silent non-finite
values would otherwise poison gradient checks downstream. No op mutates its
inputs (bar relu's `out`), so read-only tensors may be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericFaultError, ShapeMismatchError

TENSOR_FIELDS = ("weights", "bias", "bn_gamma", "bn_beta", "bn_mean", "bn_var")


@dataclass
class LayerParams:
    """Named parameter bundle for one layer.

    Convolution/dense layers carry weights (+ optional bias); layers with an
    attached batch norm also carry the four bn tensors. A pure normalization
    layer carries only the bn tensors.
    """

    name: str
    weights: np.ndarray | None = None
    bias: np.ndarray | None = None
    bn_gamma: np.ndarray | None = None
    bn_beta: np.ndarray | None = None
    bn_mean: np.ndarray | None = None
    bn_var: np.ndarray | None = None

    def tensors(self) -> dict[str, np.ndarray]:
        """Present tensors keyed as '<layer>.<field>', in declaration order."""
        out = {}
        for f in TENSOR_FIELDS:
            value = getattr(self, f)
            if value is not None:
                out[f"{self.name}.{f}"] = value
        return out

    def validate(self) -> None:
        if self.bn_var is not None and np.any(self.bn_var < 0):
            raise ShapeMismatchError(f"{self.name}: bn_var has negative entries")
        bn = [self.bn_gamma, self.bn_beta, self.bn_mean, self.bn_var]
        if any(t is not None for t in bn) and not all(t is not None for t in bn):
            raise ShapeMismatchError(f"{self.name}: partial batch-norm tensor set")


def _ensure_finite(op: str, *arrays: np.ndarray) -> None:
    # NaN propagates through max, and ±inf is the max or the min: no bool array
    for a in arrays:
        if a.size and not (math.isfinite(a.max()) and math.isfinite(a.min())):
            raise NumericFaultError(f"{op} produced non-finite values")


# --- batching ------------------------------------------------------------------

def _sum_examples(g: np.ndarray, example_ndim: int) -> np.ndarray:
    """Sum per-example gradients over every leading batch axis.

    A running sum in index order, unlike numpy's pairwise `sum`, so a
    batched call returns exactly what adding up single-example calls gives.
    """
    rows = g.reshape((-1,) + g.shape[g.ndim - example_ndim :])
    if len(rows) == 1:
        return rows[0].copy()
    return np.add.accumulate(rows, axis=0)[-1].copy()


# --- convolution -----------------------------------------------------------

def _conv_windows(x: np.ndarray, k_h: int, k_w: int, pad_h: int, pad_w: int) -> np.ndarray:
    """Read-only [..., H', W', kH, kW] view of every window of x zero-padded
    on its last two axes: one buffer for the whole batch, no copy per window."""
    *lead, h, w = x.shape
    hp, wp = h + 2 * pad_h, w + 2 * pad_w
    if k_h > hp or k_w > wp:
        raise ShapeMismatchError(f"kernel {k_h}x{k_w} larger than padded input {hp}x{wp}")
    xp = np.zeros((*lead, hp, wp), dtype=x.dtype)
    xp[..., pad_h : pad_h + h, pad_w : pad_w + w] = x
    shape = (*lead, hp - k_h + 1, wp - k_w + 1, k_h, k_w)
    return as_strided(xp, shape, xp.strides + xp.strides[-2:], writeable=False)


def conv2d(x: np.ndarray, params: LayerParams, pad_h: int = 0, pad_w: int = 0) -> np.ndarray:
    """Valid cross-correlation of zero-padded [..., C_in, H, W] inputs with
    [C_out, C_in, kH, kW] kernels; per-channel bias added when present."""
    w = params.weights
    if x.ndim < 3 or w.ndim != 4 or w.shape[1] != x.shape[-3]:
        raise ShapeMismatchError(f"{params.name}: conv input {x.shape} vs weights {w.shape}")
    # windows of the transposed input give [N, C_in, W', H', kW, kH]: the output is
    # stored width-major, so a max over width (musicnn's frequency) reads whole rows
    xt = x.reshape((-1,) + x.shape[-3:]).swapaxes(-1, -2)
    win = _conv_windows(xt, w.shape[3], w.shape[2], pad_w, pad_h)
    wm = w.reshape(len(w), -1)
    y = np.empty((len(win), len(w)) + win.shape[2:4], dtype=np.result_type(w, win))
    # one GEMM per example (a batched GEMM's bits vary with B): tensordot's `dot`, into one
    # output buffer. The unnamed C_in*kH*kW x W'*H' window copy is freed before the next
    for win_b, y_b in zip(win, y.reshape(len(win), len(w), -1)):
        np.dot(wm, win_b.transpose(0, 4, 3, 1, 2).reshape(wm.shape[1], -1), out=y_b)
    if params.bias is not None:
        y += params.bias[:, None, None]
    _ensure_finite("conv2d", y)
    return y.reshape(x.shape[:-3] + y.shape[1:]).swapaxes(-1, -2)


def conv2d_backward(
    x: np.ndarray,
    params: LayerParams,
    grad_out: np.ndarray,
    pad_h: int = 0,
    pad_w: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Exact gradients of conv2d: (grad_input, grad_weights, grad_bias).
    grad_input is the transposed convolution: a GEMM over C_out, then a scatter-add."""
    w = params.weights
    if x.ndim < 3 or w.ndim != 4 or w.shape[1] != x.shape[-3]:
        raise ShapeMismatchError(f"{params.name}: conv input {x.shape} vs weights {w.shape}")
    c_in, k_h, k_w = w.shape[1:]
    xs = x.reshape((-1,) + x.shape[-3:])
    win = _conv_windows(xs, k_h, k_w, pad_h, pad_w)
    if grad_out.shape != x.shape[:-3] + (w.shape[0],) + win.shape[2:4]:
        raise ShapeMismatchError(
            f"{params.name}: grad_out {grad_out.shape} inconsistent with forward"
        )
    gs = grad_out.reshape(xs.shape[:1] + grad_out.shape[-3:])
    (h, wd), (ho, wo) = x.shape[-2:], win.shape[2:4]
    # tap (i, j) of output (p, q) adds onto padded input (p + i, q + j). That is
    # symmetric, so on each axis z gives the shorter of taps and outputs an axis
    # of its own and lays the longer along the input through a strided view
    # that maps no two elements to one; summing those axes does the scatter-add
    z = np.zeros((len(xs), c_in, min(k_h, ho), min(k_w, wo), h + 2 * pad_h, wd + 2 * pad_w),
                 dtype=np.result_type(w, gs))
    st = z.strides
    zv = as_strided(z, z.shape[:4] + (max(k_h, ho), max(k_w, wo)),
                    st[:2] + (st[2] + st[4], st[3] + st[5]) + st[4:])
    grad_w = None
    for b in range(len(xs)):
        gw = np.tensordot(gs[b], win[b], axes=([1, 2], [1, 2]))
        grad_w = gw if grad_w is None else grad_w + gw
        cols = np.tensordot(w, gs[b], axes=([0], [0]))  # [C_in, kH, kW, H', W']
        cols = cols.swapaxes(1, 3) if k_h > ho else cols
        zv[b] = cols.swapaxes(2, 4) if k_w > wo else cols
    grad_x = z.sum(axis=(2, 3))[:, :, pad_h : pad_h + h, pad_w : pad_w + wd].reshape(x.shape)
    grad_b = _sum_examples(grad_out.sum(axis=(-2, -1)), 1) if params.bias is not None else None
    _ensure_finite("conv2d_backward", grad_x, grad_w)
    return grad_x, grad_w, grad_b


# --- dense -----------------------------------------------------------------

def dense(x: np.ndarray, params: LayerParams) -> np.ndarray:
    """Affine map of [..., N] inputs: weights [M, N] @ x + bias [M]."""
    w = params.weights
    if x.ndim < 1 or w.ndim != 2 or w.shape[1] != x.shape[-1]:
        raise ShapeMismatchError(f"{params.name}: dense input {x.shape} vs weights {w.shape}")
    # one matrix-vector product per row; a single GEMM's bits vary with B
    y = np.matmul(w, x[..., None])[..., 0]
    if params.bias is not None:
        y = y + params.bias
    _ensure_finite("dense", y)
    return y


def dense_backward(
    x: np.ndarray, params: LayerParams, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    w = params.weights
    if x.ndim < 1 or w.ndim != 2 or w.shape[1] != x.shape[-1]:
        raise ShapeMismatchError(f"{params.name}: dense input {x.shape} vs weights {w.shape}")
    if grad_out.shape != x.shape[:-1] + (w.shape[0],):
        raise ShapeMismatchError(f"{params.name}: grad_out {grad_out.shape} vs weights {w.shape}")
    grad_w = _sum_examples(grad_out[..., :, None] * x[..., None, :], 2)
    grad_b = _sum_examples(grad_out, 1) if params.bias is not None else None
    grad_x = np.matmul(w.T, grad_out[..., None])[..., 0]
    return grad_x, grad_w, grad_b


# --- batch normalization ----------------------------------------------------

def _bn_shape(param: np.ndarray, ndim: int, channel_axis: int) -> np.ndarray:
    shape = [1] * ndim
    shape[channel_axis] = param.shape[0]
    return param.reshape(shape)


def batchnorm_infer(x: np.ndarray, params: LayerParams, epsilon: float = 1e-5) -> np.ndarray:
    """Normalize a [B, C, ...] batch with the stored running statistics."""
    if x.ndim < 2 or params.bn_gamma is None or params.bn_gamma.shape[0] != x.shape[1]:
        raise ShapeMismatchError(f"{params.name}: bn parameters do not match input {x.shape}")
    gamma, beta, mean, var = (
        _bn_shape(t, x.ndim, 1) for t in (params.bn_gamma, params.bn_beta, params.bn_mean, params.bn_var)
    )
    y = x - mean
    y /= np.sqrt(var + epsilon)
    y *= gamma
    y += beta
    _ensure_finite("batchnorm_infer", y)
    return y


def batchnorm_infer_backward(
    x: np.ndarray, params: LayerParams, grad_out: np.ndarray, epsilon: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm_infer wrt (x, gamma, beta, mean, var).

    Running statistics are plain parameters of the inference map, so they
    get exact gradients too; this is what lets the whole-network gradient
    check cover every stored tensor.
    """
    if x.ndim < 2 or params.bn_gamma is None or params.bn_gamma.shape[0] != x.shape[1]:
        raise ShapeMismatchError(f"{params.name}: bn parameters do not match input {x.shape}")
    if grad_out.shape != x.shape:
        raise ShapeMismatchError(f"{params.name}: grad_out {grad_out.shape} vs input {x.shape}")
    # float sums follow memory order: sum in C order whatever the inputs' layout
    x, grad_out = np.ascontiguousarray(x), np.ascontiguousarray(grad_out)
    axes = tuple(range(2, x.ndim))
    gamma = _bn_shape(params.bn_gamma, x.ndim, 1)
    mean = _bn_shape(params.bn_mean, x.ndim, 1)
    var = _bn_shape(params.bn_var, x.ndim, 1)
    inv = 1.0 / np.sqrt(var + epsilon)
    xc = x - mean
    grad_x = grad_out * gamma * inv
    grad_gamma = _sum_examples((grad_out * xc * inv).sum(axis=axes), 1)
    grad_beta = _sum_examples(grad_out.sum(axis=axes), 1)
    grad_mean = _sum_examples(-grad_x.sum(axis=axes), 1)
    grad_var = _sum_examples((grad_out * xc * gamma * (-0.5) * inv**3).sum(axis=axes), 1)
    return grad_x, grad_gamma, grad_beta, grad_mean, grad_var


def batchnorm_train(
    batch: np.ndarray, params: LayerParams, epsilon: float = 1e-5
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Normalize a [B, C, ...] batch with its own statistics.

    Returns (output, batch_mean, batch_var, cache); variance is the biased
    per-channel moment over batch and spatial axes. The cache feeds
    batchnorm_train_backward.
    """
    c = batch.shape[1]
    if params.bn_gamma is None or params.bn_gamma.shape[0] != c:
        raise ShapeMismatchError(f"{params.name}: bn parameters do not match {c} channels")
    batch = np.ascontiguousarray(batch)  # float sums follow memory order: sum in C order
    axes = (0,) + tuple(range(2, batch.ndim))
    mean = batch.mean(axis=axes)
    var = batch.var(axis=axes)
    inv = 1.0 / np.sqrt(_bn_shape(var, batch.ndim, 1) + epsilon)
    xhat = (batch - _bn_shape(mean, batch.ndim, 1)) * inv
    y = xhat * _bn_shape(params.bn_gamma, batch.ndim, 1) + _bn_shape(params.bn_beta, batch.ndim, 1)
    _ensure_finite("batchnorm_train", y)
    cache = {"xhat": xhat, "inv": inv, "axes": axes, "count": batch.size // c}
    return y, mean, var, cache


def batchnorm_train_backward(
    params: LayerParams, cache: dict, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm_train wrt (batch, gamma, beta)."""
    xhat, inv, axes, m = cache["xhat"], cache["inv"], cache["axes"], cache["count"]
    gamma = _bn_shape(params.bn_gamma, grad_out.ndim, 1)
    grad_gamma = (grad_out * xhat).sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)
    gxhat = grad_out * gamma
    sum_g = _bn_shape(gxhat.sum(axis=axes), grad_out.ndim, 1)
    sum_gx = _bn_shape((gxhat * xhat).sum(axis=axes), grad_out.ndim, 1)
    grad_x = (inv / m) * (m * gxhat - sum_g - xhat * sum_gx)
    return grad_x, grad_gamma, grad_beta


# --- activations ------------------------------------------------------------

def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(x: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out where x > 0; x may be the pre-activation or relu's output."""
    return grad_out * (x > 0)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    arr = np.asarray(x)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float64)
    scalar_input = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)
    pos = arr >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    _ensure_finite("sigmoid", out)
    return out[0] if scalar_input else out


def softmax_over_axis(x: np.ndarray, axis: int) -> np.ndarray:
    """Shift-invariant softmax along one axis."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    _ensure_finite("softmax_over_axis", y)
    return y


def softmax_backward(y: np.ndarray, grad_out: np.ndarray, axis: int) -> np.ndarray:
    inner = (grad_out * y).sum(axis=axis, keepdims=True)
    return y * (grad_out - inner)


# --- pooling ----------------------------------------------------------------

def pool_max(x: np.ndarray, window_h: int, window_w: int) -> np.ndarray:
    """Non-overlapping max pooling of [..., H, W]; windows must divide extents."""
    h, w = x.shape[-2:]
    if h % window_h != 0 or w % window_w != 0:
        raise ShapeMismatchError(
            f"pool window {window_h}x{window_w} does not divide input {h}x{w}"
        )
    # running maxima over strided slices, rows first: exact, and far faster
    # than a reduction over the window axes of a reshaped view
    rows = x[..., ::window_h, :]
    for i in range(1, window_h):
        rows = np.maximum(rows, x[..., i::window_h, :])
    y = rows[..., ::window_w]
    for j in range(1, window_w):
        y = np.maximum(y, rows[..., j::window_w])
    return y if window_h * window_w > 1 else y.copy()


def pool_max_backward(
    x: np.ndarray, window_h: int, window_w: int, grad_out: np.ndarray
) -> np.ndarray:
    """Routes each window's gradient to its first (lowest linear index) max."""
    *lead, h, w = x.shape
    ho, wo = h // window_h, w // window_w
    tiles = x.reshape(*lead, ho, window_h, wo, window_w).swapaxes(-3, -2)
    flat = tiles.reshape(*lead, ho, wo, window_h * window_w)
    idx = flat.argmax(axis=-1)
    grad_tiles = np.zeros_like(flat)
    np.put_along_axis(grad_tiles, idx[..., None], grad_out[..., None], axis=-1)
    return (
        grad_tiles.reshape(*lead, ho, wo, window_h, window_w)
        .swapaxes(-3, -2)
        .reshape(x.shape)
    )


def pool_mean_over_axis(x: np.ndarray, axis: int) -> np.ndarray:
    return x.mean(axis=axis)


def pool_mean_over_axis_backward(
    shape: tuple[int, ...], axis: int, grad_out: np.ndarray
) -> np.ndarray:
    n = shape[axis]
    return np.broadcast_to(np.expand_dims(grad_out / n, axis), shape).copy()


def pool_max_over_axis(x: np.ndarray, axis: int) -> np.ndarray:
    return x.max(axis=axis)


def pool_max_over_axis_backward(x: np.ndarray, axis: int, grad_out: np.ndarray) -> np.ndarray:
    """Gradient to the first maximal element along the axis."""
    idx = np.expand_dims(x.argmax(axis=axis), axis)
    grad = np.zeros_like(x)
    np.put_along_axis(grad, idx, np.expand_dims(grad_out, axis), axis=axis)
    return grad


# --- gradient checking -------------------------------------------------------

@dataclass
class GradCheckEntry:
    name: str
    max_relative_error: float
    passed: bool


@dataclass
class GradCheckReport:
    tolerance: float
    epsilon: float
    entries: list[GradCheckEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def worst(self) -> GradCheckEntry:
        return max(self.entries, key=lambda e: e.max_relative_error)

    def __str__(self) -> str:
        lines = [
            f"{e.name}: {e.max_relative_error:.3e} {'ok' if e.passed else 'FAIL'}"
            for e in self.entries
        ]
        lines.append(f"overall: {'ok' if self.passed else 'FAIL'} (tol {self.tolerance:g})")
        return "\n".join(lines)


def grad_check(f, inputs: dict[str, np.ndarray], epsilon: float = 1e-5,
               tolerance: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `f(tensors)` must return (loss, grads) where grads maps every key of
    `inputs` to an array of the same shape. Inputs must be float64: at lower
    precision the difference quotient noise swamps the tolerance. Relative
    error per element is |a - n| / max(|a|, |n|, 1e-8).
    """
    for name, arr in inputs.items():
        if arr.dtype != np.float64:
            raise NumericFaultError(f"grad_check needs float64 inputs, {name} is {arr.dtype}")
    _, analytic = f(inputs)
    entries = []
    for name, arr in inputs.items():
        a = np.asarray(analytic[name], dtype=np.float64)
        if a.shape != arr.shape:
            raise ShapeMismatchError(f"analytic gradient for {name} has shape {a.shape}")
        worst = 0.0
        flat = arr.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            perturbed = {k: (v if k != name else v.copy()) for k, v in inputs.items()}
            pflat = perturbed[name].reshape(-1)
            pflat[i] = orig + epsilon
            loss_plus, _ = f(perturbed)
            pflat[i] = orig - epsilon
            loss_minus, _ = f(perturbed)
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            ai = a.reshape(-1)[i]
            err = abs(ai - numeric) / max(abs(ai), abs(numeric), 1e-8)
            worst = max(worst, err)
        entries.append(GradCheckEntry(name, worst, worst < tolerance))
    return GradCheckReport(tolerance=tolerance, epsilon=epsilon, entries=entries)
