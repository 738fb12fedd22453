"""Dense tensor operations for the network core: forwards and hand-written
backwards.

Tensors are numpy arrays. conv2d stores its output width-major ([..., C, W,
H] in memory) and returns the transposed [..., C, H, W] view, so a max over
width (musicnn's frequency axis) combines whole rows of H instead of reducing
one short row per output; maps computed from it elementwise keep that
layout. conv2d_pool runs the same loop but stores a pool of each example's
map, so a forward that needs only the pooled map never builds the batch's
full maps. Every op takes a whole batch: convolution inputs are
[..., channels, height, width], dense inputs [..., features] and max pooling
[..., height, width], with any number of leading batch axes (none for a
single example); batch normalization takes [batch, channels, ...] in both
modes. Row b of a batched call is bit for bit the call on example b alone,
and parameter gradients come back already summed over the batch in example
index order. Backwards build no full-size scratch read only once:
conv2d_backward adds tap planes to the input gradient in row-major tap
order, as a sum over tap axes would; pool_max_backward selects each
window's first max; train-mode batch norm works in place. No op's bits
depend on its inputs' layout (parameters are stored in C order): what an op
sums or feeds to a matrix product is taken in C order, which copies only an
input that is not (x in dense, batchnorm_train, batchnorm_infer_backward and
pool_mean_over_axis; grad_out in dense_backward, batchnorm_train_backward
and conv2d_backward's bias sum; the summed terms of both softmax ops), and
the conv ops copy x into padded windows.

Both conv ops lower an example to one GEMM in bands of g outputs along the
width (Chellapilla, Puri & Simard, 2006): windows kW + g - 1 wide, g apart,
times band weights whose row (o, p) is kernel o shifted p taps, copying each
input value about g times fewer (the trade of Cho & Brand's MEC, ICML 2017).
g is the most outputs up to the map's width with (kW + g - 1) / kW <= 1.3: 1
(im2col) for narrow kernels, 11 and 12 for MTT_musicnn's timbral ones.

Every forward surfaces NaN/Inf as NumericFaultError naming the layer (conv2d
also names the batch row): silent non-finite values would otherwise poison
gradient checks downstream. No op mutates its inputs (bar relu's `out`), so
read-only tensors may be shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import NumericFaultError, ShapeMismatchError

TENSOR_FIELDS = ("weights", "bias", "bn_gamma", "bn_beta", "bn_mean", "bn_var")
BN_EPSILON = 1e-5  # added to the variance by batch norm in both modes


@dataclass(frozen=True)
class LayerParams:
    """Named parameter bundle for one layer.

    Convolution/dense layers carry weights (+ optional bias); layers with an
    attached batch norm also carry the four bn tensors. A pure normalization
    layer carries only the bn tensors. Frozen: a field cannot be rebound, only
    written into.
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


def _finite(a: np.ndarray) -> bool:
    # NaN propagates through max, and ±inf is the max or the min: no bool array
    return not a.size or (math.isfinite(a.max()) and math.isfinite(a.min()))


def _ensure_finite(op: str, *arrays: np.ndarray) -> None:
    if not all(map(_finite, arrays)):
        raise NumericFaultError(f"{op} produced non-finite values")


# --- batching ------------------------------------------------------------------

def _sum_examples(g: np.ndarray, example_ndim: int) -> np.ndarray:
    """Sum per-example gradients over every leading batch axis.

    A running sum in index order, unlike numpy's pairwise `sum`, so a
    batched call returns exactly what adding up single-example calls gives.
    """
    rows = g.reshape((-1,) + g.shape[g.ndim - example_ndim :])
    if not len(rows):
        return np.zeros(rows.shape[1:], rows.dtype)
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    return total


# --- convolution -----------------------------------------------------------

def _conv_windows(x: np.ndarray, k_h: int, k_w: int, pad_h: int, pad_w: int, g_h=1, g_w=1) -> np.ndarray:
    """Read-only [..., H'', W'', kH + g_h - 1, kW + g_w - 1] view of the windows of x zero-padded
    on its last two axes, g_h and g_w outputs apart: each window covers a band of g_h x g_w outputs,
    the last band's zero-padded past the input. One buffer for the whole batch, no copy per window."""
    *lead, h, w = x.shape
    hp, wp = h + 2 * pad_h, w + 2 * pad_w
    if k_h > hp or k_w > wp:
        raise ShapeMismatchError(f"kernel {k_h}x{k_w} larger than padded input {hp}x{wp}")
    nh, nw = -(-(hp - k_h + 1) // g_h), -(-(wp - k_w + 1) // g_w)
    kh, kw = k_h + g_h - 1, k_w + g_w - 1
    xp = np.zeros((*lead, (nh - 1) * g_h + kh, (nw - 1) * g_w + kw), dtype=x.dtype)
    xp[..., pad_h : pad_h + h, pad_w : pad_w + w] = x
    *s, s_h, s_w = xp.strides
    win = np.ndarray((*lead, nh, nw, kh, kw), xp.dtype, xp, 0, (*s, g_h * s_h, g_w * s_w, s_h, s_w))
    win.flags.writeable = False
    return win


def _band_weights(x: np.ndarray, params: LayerParams, pad_w: int) -> tuple[np.ndarray, int, int]:
    """(A, g, W') of a conv of x: W' outputs across the width in bands of g, the most up to W' with
    (kW + g - 1) / kW <= 1.3, and the band weights A [C_out * g, C_in * kH * (kW + g - 1)], whose
    row (o, p) is kernel o shifted p taps along the width."""
    w = params.weights
    if x.ndim < 3 or w.ndim != 4 or w.shape[1] != x.shape[-3]:
        raise ShapeMismatchError(f"{params.name}: conv input {x.shape} vs weights {w.shape}")
    (c_out, c_in, k_h, k_w), wo = w.shape, x.shape[-1] + 2 * pad_w - w.shape[3] + 1
    g = min(wo, 1 + 3 * k_w // 10)
    if g < 2:  # and W' < 1 fails in _conv_windows
        return w.reshape(c_out, -1), 1, wo
    a = np.zeros((c_out, g, c_in, k_h, k_w + g - 1), w.dtype)
    s = a.strides  # a view whose element (o, p, c, i, j) is a's (o, p, c, i, p + j)
    np.ndarray((c_out, g, c_in, k_h, k_w), a.dtype, a, 0, (s[0], s[1] + s[4]) + s[2:])[...] = w[:, None]
    return a.reshape(c_out * g, -1), g, wo


def conv2d(x: np.ndarray, params: LayerParams, pad_h: int = 0, pad_w: int = 0) -> np.ndarray:
    """Valid cross-correlation of zero-padded [..., C_in, H, W] inputs with
    [C_out, C_in, kH, kW] kernels; per-channel bias added when present."""
    return conv2d_pool(x, params, pad_h, pad_w, None)


def conv2d_pool(x: np.ndarray, params: LayerParams, pad_h: int, pad_w: int, pool) -> np.ndarray:
    """conv2d storing pool(map) of each example's map, passed as a batch of one (or the map if
    pool is None), so the batch's full maps are never built; each map is checked finite first."""
    a, g, wo = _band_weights(x, params, pad_w)
    c_out, c_in, k_h, k_w = params.weights.shape
    # windows of the transposed input give [N, C_in, bands, H', kW + g - 1, kH]: the output is
    # stored width-major, so a max over width (musicnn's frequency) reads whole rows
    win = _conv_windows(x.reshape((-1,) + x.shape[-3:]).swapaxes(-1, -2), k_w, k_h, pad_w, pad_h, g)
    bands, cols = win.shape[2:4]
    # one buffer per call (made apart, they were mapped and unmapped each time): the product, unless
    # its rows (o, p) and columns (band, t) are the map's (o, w, t); the pooled map; the windows, unless
    # the last map (made last) has room
    direct, w_size, size = g == 1 or bands == 1, a.shape[1] * bands * cols, c_out * wo * cols
    at, in_map, full = 0 if direct else len(a) * bands * cols, not direct and w_size <= size, wo // g
    buf = np.empty(at + size * bool(pool) + (0 if in_map else w_size), np.result_type(a, win))
    shape = (1 if pool else len(win), c_out, wo, cols)
    maps = buf[at : at + size].reshape(shape) if pool else np.empty(shape, buf.dtype)
    wm = maps[-1:].reshape(-1)[:w_size] if in_map else buf[len(buf) - w_size :]
    wm, wm5 = wm.reshape(-1, bands * cols), wm.reshape(c_in, k_h, -1, bands, cols)
    out = maps.swapaxes(-1, -2)
    if pool:  # stores the pools instead; their shape from an empty batch
        out = np.empty((len(win),) + pool(out[:0]).shape[1:], dtype=buf.dtype)
    for b, win_b in enumerate(win):  # one GEMM per example: a batched GEMM's bits vary with B
        m = maps[0 if pool else b]
        np.copyto(wm5, win_b.transpose(0, 4, 3, 1, 2))
        np.matmul(a, wm, out=(m if direct else buf[:at]).reshape(len(a), -1))
        if not direct:  # map row band * g + p is (p, band) of the product: the whole bands, then the rest
            prod = buf[:at].reshape(c_out, g, bands, cols)
            np.copyto(m[:, : full * g].reshape(c_out, full, g, cols), prod[:, :, :full].swapaxes(1, 2))
            np.copyto(m[:, full * g :], prod[:, : wo - full * g, -1])
        if params.bias is not None:
            m += params.bias[:, None, None]
        if pool:  # the one map buffer is reused: check each map before its pool
            _ensure_finite(f"{params.name}: conv2d (batch row {b})", m)
            out[b] = pool(maps.swapaxes(-1, -2))[0]
    if not (pool or _finite(maps)):  # every map is kept: one check, rows scanned on failure
        for b, m in enumerate(maps):
            _ensure_finite(f"{params.name}: conv2d (batch row {b})", m)
    return out.reshape(x.shape[:-3] + out.shape[1:])


def conv2d_backward(x: np.ndarray, params: LayerParams, grad_out: np.ndarray, pad_h: int = 0,
                    pad_w: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Exact gradients of conv2d through its bands: (grad_input, grad_weights, grad_bias).
    grad_input is the transposed convolution: a GEMM over C_out, then a scatter-add."""
    a, g, wo = _band_weights(x, params, pad_w)
    (c_out, c_in, k_h, k_w), (h, wd) = params.weights.shape, x.shape[-2:]
    win = _conv_windows(x.reshape((-1,) + x.shape[-3:]), k_h, k_w, pad_h, pad_w, 1, g)
    (ho, bands), kb = win.shape[2:4], win.shape[-1]  # of win [N, C_in, H', bands, kH, kW + g - 1]
    if grad_out.shape != x.shape[:-3] + (c_out, ho, wo):
        raise ShapeMismatchError(f"{params.name}: grad_out {grad_out.shape} inconsistent with forward")
    gs = grad_out.reshape((len(win),) + grad_out.shape[-3:])
    if g > 1:  # row (o, p), column (t, band) of a band GEMM is output (o, t, band * g + p), 0 past W'
        gs = np.ascontiguousarray(_conv_windows(gs, 1, 1, 0, 0, 1, g)[..., 0, :].transpose(0, 1, 4, 2, 3))
    # tap (i, j) of band output (t, band) adds onto padded input (t + i, band * g + j). On each axis
    # the loop runs over the shorter of taps and outputs (bands) and adds a plane as long as the
    # longer, planes in row-major (i, j) order
    gp = np.zeros((len(win), c_in, h + 2 * pad_h, (bands - 1) * g + kb), dtype=np.result_type(a, gs))
    wide = kb > bands  # the loop runs over bands, each plane whole, else over taps, planes g apart
    jump, step = (g, 1) if wide else (1, g)
    grad_w = None
    for b in range(len(win)):
        gb = gs[b].reshape(len(a), -1)
        gw = np.dot(gb, win[b].transpose(1, 2, 0, 3, 4).reshape(gb.shape[1], -1))
        gw = gw.reshape(c_out, g, c_in, k_h, kb)
        fold = gw[:, 0, :, :, :k_w]  # row (o, p) holds kernel o's gradient shifted p taps
        for p in range(1, g):
            fold = fold + gw[:, p, :, :, p : p + k_w]
        grad_w = fold if grad_w is None else grad_w + fold
        planes = np.dot(a.T, gb).reshape(c_in, k_h, kb, ho, bands)
        planes = planes.swapaxes(1, 3) if k_h > ho else planes
        planes = planes.swapaxes(2, 4) if wide else planes
        n, span = planes.shape[3], (planes.shape[4] - 1) * step + 1
        for i in range(planes.shape[1]):
            for j in range(planes.shape[2]):
                gp[b, :, i : i + n, j * jump : j * jump + span : step] += planes[:, i, j]
        del planes  # freed before the next example's window copy
    grad_x = gp[:, :, pad_h : pad_h + h, pad_w : pad_w + wd].reshape(x.shape)
    if grad_w is None:  # no example
        grad_w = np.zeros(params.weights.shape, gp.dtype)
    grad_b = None
    if params.bias is not None:
        grad_b = _sum_examples(np.ascontiguousarray(grad_out).sum(axis=(-2, -1)), 1)
    _ensure_finite(f"{params.name}: conv2d_backward", grad_x, grad_w)
    return grad_x, grad_w, grad_b


# --- dense -----------------------------------------------------------------

def dense(x: np.ndarray, params: LayerParams) -> np.ndarray:
    """Affine map of [..., N] inputs: weights [M, N] @ x + bias [M]."""
    w = params.weights
    if x.ndim < 1 or w.ndim != 2 or w.shape[1] != x.shape[-1]:
        raise ShapeMismatchError(f"{params.name}: dense input {x.shape} vs weights {w.shape}")
    # one matrix-vector product per row; a single GEMM's bits vary with B
    y = np.matmul(w, np.ascontiguousarray(x)[..., None])[..., 0]
    if params.bias is not None:
        y = y + params.bias
    _ensure_finite(f"{params.name}: dense", y)
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
    grad_x = np.matmul(w.T, np.ascontiguousarray(grad_out)[..., None])[..., 0]
    return grad_x, grad_w, grad_b


# --- batch normalization ----------------------------------------------------

def _bn_shape(param: np.ndarray, ndim: int) -> np.ndarray:
    """A per-channel [C] parameter as [1, C, 1, ...], broadcastable over [B, C, ...]."""
    return param.reshape((1, -1) + (1,) * (ndim - 2))


def batchnorm_infer(x: np.ndarray, params: LayerParams) -> np.ndarray:
    """Normalize a [B, C, ...] batch with the stored running statistics."""
    if x.ndim < 2 or params.bn_gamma is None or params.bn_gamma.shape[0] != x.shape[1]:
        raise ShapeMismatchError(f"{params.name}: bn parameters do not match input {x.shape}")
    gamma, beta, mean, var = (
        _bn_shape(t, x.ndim) for t in (params.bn_gamma, params.bn_beta, params.bn_mean, params.bn_var)
    )
    y = x - mean
    y /= np.sqrt(var + BN_EPSILON)
    y *= gamma
    y += beta
    _ensure_finite(f"{params.name}: batchnorm_infer", y)
    return y


def batchnorm_infer_backward(
    x: np.ndarray, params: LayerParams, grad_out: np.ndarray
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
    gamma = _bn_shape(params.bn_gamma, x.ndim)
    mean = _bn_shape(params.bn_mean, x.ndim)
    var = _bn_shape(params.bn_var, x.ndim)
    inv = 1.0 / np.sqrt(var + BN_EPSILON)
    xc = x - mean
    grad_x = grad_out * gamma * inv
    grad_gamma = _sum_examples((grad_out * xc * inv).sum(axis=axes), 1)
    grad_beta = _sum_examples(grad_out.sum(axis=axes), 1)
    grad_mean = _sum_examples(-grad_x.sum(axis=axes), 1)
    grad_var = _sum_examples((grad_out * xc * gamma * (-0.5) * inv**3).sum(axis=axes), 1)
    return grad_x, grad_gamma, grad_beta, grad_mean, grad_var


def batchnorm_train(
    batch: np.ndarray, params: LayerParams
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
    xhat = batch - _bn_shape(mean, batch.ndim)  # centred once: np.var's own arithmetic
    y = np.multiply(xhat, xhat)
    var = y.mean(axis=axes)
    inv = 1.0 / np.sqrt(_bn_shape(var, batch.ndim) + BN_EPSILON)
    xhat *= inv
    np.multiply(xhat, _bn_shape(params.bn_gamma, batch.ndim), out=y)
    y += _bn_shape(params.bn_beta, batch.ndim)
    _ensure_finite(f"{params.name}: batchnorm_train", y)
    cache = {"xhat": xhat, "inv": inv, "axes": axes, "count": batch.size // c}
    return y, mean, var, cache


def batchnorm_train_backward(
    params: LayerParams, cache: dict, grad_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of batchnorm_train wrt (batch, gamma, beta)."""
    xhat, inv, axes, m = cache["xhat"], cache["inv"], cache["axes"], cache["count"]
    grad_out = np.ascontiguousarray(grad_out)  # float sums follow memory order: sum in C order
    gamma = _bn_shape(params.bn_gamma, grad_out.ndim)
    prod = grad_out * xhat  # one product buffer, reused below
    grad_gamma = prod.sum(axis=axes)
    grad_beta = grad_out.sum(axis=axes)
    gxhat = grad_out * gamma
    sum_g = _bn_shape(gxhat.sum(axis=axes), grad_out.ndim)
    sum_gx = _bn_shape(np.multiply(gxhat, xhat, out=prod).sum(axis=axes), grad_out.ndim)
    # grad_x = (inv / m) * (m * gxhat - sum_g - xhat * sum_gx), evaluated in that order in gxhat
    gxhat *= m
    gxhat -= sum_g
    gxhat -= np.multiply(xhat, sum_gx, out=prod)
    gxhat *= inv / m
    return gxhat, grad_gamma, grad_beta


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
    y = e / np.ascontiguousarray(e).sum(axis=axis, keepdims=True)
    _ensure_finite("softmax_over_axis", y)
    return y


def softmax_backward(y: np.ndarray, grad_out: np.ndarray, axis: int) -> np.ndarray:
    inner = np.ascontiguousarray(grad_out * y).sum(axis=axis, keepdims=True)
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
    """Routes each window's gradient to its first max in row-major order, by selection:
    offsets are visited in that order and only a window's first hit copies grad_out."""
    y = pool_max(x, window_h, window_w)
    grad = np.zeros(x.shape, dtype=x.dtype)
    free = np.ones(y.shape, dtype=bool)
    for i in range(window_h):
        for j in range(window_w):
            hit = (x[..., i::window_h, j::window_w] == y) & free
            np.copyto(grad[..., i::window_h, j::window_w], grad_out, where=hit)
            free ^= hit
    return grad


def pool_mean_over_axis(x: np.ndarray, axis: int) -> np.ndarray:
    return np.ascontiguousarray(x).mean(axis=axis)


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
