"""Tensor ops against brute-force oracles plus finite-difference gradients.

Every oracle here is written the dumb way on purpose: explicit nested loops
or textbook formulas, no shared code with the implementations under test.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meltag import ops, store, trainer
from meltag.errors import NumericFaultError, ShapeMismatchError
from meltag.ops import LayerParams


def conv_oracle(x, w, b, pad_h, pad_w):
    c_in, h, wd = x.shape
    c_out, _, k_h, k_w = w.shape
    xp = np.zeros((c_in, h + 2 * pad_h, wd + 2 * pad_w))
    xp[:, pad_h : pad_h + h, pad_w : pad_w + wd] = x
    out_h = h + 2 * pad_h - k_h + 1
    out_w = wd + 2 * pad_w - k_w + 1
    y = np.zeros((c_out, out_h, out_w))
    for co in range(c_out):
        for i in range(out_h):
            for j in range(out_w):
                acc = 0.0
                for ci in range(c_in):
                    for u in range(k_h):
                        for v in range(k_w):
                            acc += w[co, ci, u, v] * xp[ci, i + u, j + v]
                y[co, i, j] = acc + (b[co] if b is not None else 0.0)
    return y


def conv_grad_x_oracle(w, grad_out, h, wd, pad_h, pad_w):
    """Scatter each output's gradient back through every kernel tap."""
    c_out, c_in, k_h, k_w = w.shape
    gxp = np.zeros((c_in, h + 2 * pad_h, wd + 2 * pad_w))
    for co in range(c_out):
        for i in range(grad_out.shape[1]):
            for j in range(grad_out.shape[2]):
                for ci in range(c_in):
                    for u in range(k_h):
                        for v in range(k_w):
                            gxp[ci, i + u, j + v] += w[co, ci, u, v] * grad_out[co, i, j]
    return gxp[:, pad_h : pad_h + h, pad_w : pad_w + wd]


def conv2d_backward_tap_axis_sum(x, params, grad_out, pad_h, pad_w):
    """conv2d_backward with a 6-D col2im: every tap plane written into one
    zeroed buffer through a strided view, then the two tap axes summed. The
    op adds the same planes in the same order, so it must match byte for byte."""
    w = params.weights
    c_in, k_h, k_w = w.shape[1:]
    xs = x.reshape((-1,) + x.shape[-3:])
    win = ops._conv_windows(xs, k_h, k_w, pad_h, pad_w)
    gs = grad_out.reshape(xs.shape[:1] + grad_out.shape[-3:])
    (h, wd), (ho, wo) = x.shape[-2:], win.shape[2:4]
    z = np.zeros((len(xs), c_in, min(k_h, ho), min(k_w, wo), h + 2 * pad_h, wd + 2 * pad_w),
                 dtype=np.result_type(w, gs))
    st = z.strides
    zv = np.lib.stride_tricks.as_strided(
        z, z.shape[:4] + (max(k_h, ho), max(k_w, wo)), st[:2] + (st[2] + st[4], st[3] + st[5]) + st[4:]
    )
    grad_w = None
    for b in range(len(xs)):
        gw = np.tensordot(gs[b], win[b], axes=([1, 2], [1, 2]))
        grad_w = gw if grad_w is None else grad_w + gw
        cols = np.tensordot(w, gs[b], axes=([0], [0]))
        cols = cols.swapaxes(1, 3) if k_h > ho else cols
        zv[b] = cols.swapaxes(2, 4) if k_w > wo else cols
    grad_x = z.sum(axis=(2, 3))[:, :, pad_h : pad_h + h, pad_w : pad_w + wd].reshape(x.shape)
    grad_b = ops._sum_examples(grad_out.sum(axis=(-2, -1)), 1) if params.bias is not None else None
    return grad_x, grad_w, grad_b


def assert_same_bits(actual, expected):
    """Same dtype, shape and bytes: -0.0 and NaN payloads count too."""
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


# c_in, c_out, h, w, k_h, k_w, pad_h, pad_w: on each axis the input-gradient
# scatter keeps the shorter of kernel and output map as an axis of its own,
# so one row per orientation
BACKWARD_SHAPES = [
    (2, 3, 5, 4, 3, 2, 1, 0),  # kernel shorter on both axes
    (2, 2, 4, 6, 5, 2, 2, 0),  # kernel taller than the output map
    (3, 2, 6, 2, 3, 4, 1, 1),  # kernel wider than the output map
    (2, 3, 2, 2, 3, 3, 1, 1),  # kernel taller and wider
]


class TestConv2d:
    def test_identity_kernel(self):
        x = np.random.default_rng(0).normal(size=(3, 5, 4))
        w = np.zeros((3, 3, 1, 1))
        for c in range(3):
            w[c, c, 0, 0] = 1.0
        y = ops.conv2d(x, LayerParams("id", weights=w))
        np.testing.assert_array_equal(y, x)

    def test_zero_input_broadcasts_bias(self):
        params = LayerParams("b", weights=np.ones((2, 1, 3, 3)), bias=np.array([1.5, -2.0]))
        y = ops.conv2d(np.zeros((1, 6, 6)), params, 1, 1)
        np.testing.assert_array_equal(y[0], 1.5)
        np.testing.assert_array_equal(y[1], -2.0)

    def test_worked_shape_against_loop_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 8, 8))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        y = ops.conv2d(x, LayerParams("c", weights=w, bias=b), 1, 1)
        np.testing.assert_allclose(y, conv_oracle(x, w, b, 1, 1), atol=1e-10, rtol=1e-10)

    def test_randomized_shapes_against_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(12):
            c_in, c_out = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h, wd = int(rng.integers(3, 9)), int(rng.integers(3, 9))
            k_h, k_w = int(rng.integers(1, h + 1)), int(rng.integers(1, wd + 1))
            pad_h, pad_w = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            x = rng.normal(size=(c_in, h, wd))
            w = rng.normal(size=(c_out, c_in, k_h, k_w))
            y = ops.conv2d(x, LayerParams("c", weights=w), pad_h, pad_w)
            np.testing.assert_allclose(y, conv_oracle(x, w, None, pad_h, pad_w), atol=1e-10)

    def test_channel_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ops.conv2d(np.zeros((2, 4, 4)), LayerParams("c", weights=np.zeros((1, 3, 2, 2))))

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(ShapeMismatchError):
            ops.conv2d(np.zeros((1, 2, 2)), LayerParams("c", weights=np.zeros((1, 1, 5, 5))))

    def test_nan_input_raises(self):
        x = np.full((1, 3, 3), np.nan)
        with pytest.raises(NumericFaultError):
            ops.conv2d(x, LayerParams("c", weights=np.ones((1, 1, 2, 2))))

    def test_fault_names_the_layer_and_batch_row(self):
        x = np.ones((3, 1, 4, 4))
        x[2, 0, 1, 2] = np.nan
        with pytest.raises(NumericFaultError, match=r"^c: conv2d \(batch row 2\)"):
            ops.conv2d(x, LayerParams("c", weights=np.ones((2, 1, 2, 2))))

    def test_unpooled_fault_names_the_first_bad_row(self):
        # the whole batch is checked once; only then are the rows scanned
        x = np.ones((3, 1, 4, 4))
        x[1, 0, 3, 3] = np.inf
        x[2, 0, 0, 0] = np.nan
        with pytest.raises(NumericFaultError, match=r"^c: conv2d \(batch row 1\)"):
            ops.conv2d(x, LayerParams("c", weights=np.ones((2, 1, 2, 2))))

    def test_pooled_fault_is_seen_before_the_pool_hides_it(self):
        # one window overflows to -inf in float32; the max over width keeps
        # the finite neighbours, so only a check before the pool sees it
        x = np.ones((2, 1, 3, 4), dtype=np.float32)
        x[1, 0, 1, 0] = 3e38
        params = LayerParams("t", weights=np.full((1, 1, 1, 1), -10.0, dtype=np.float32))
        with np.errstate(over="ignore"), pytest.raises(NumericFaultError, match=r"^t: conv2d \(batch row 1\)"):
            ops.conv2d_pool(x, params, 0, 0, lambda z: ops.pool_max_over_axis(z, 3))

    def test_backward_fault_names_the_layer(self):
        grad_out = np.ones((2, 1, 3, 3))
        grad_out[1, 0, 2, 2] = np.nan
        with pytest.raises(NumericFaultError, match=r"^c: conv2d_backward produced"):
            ops.conv2d_backward(np.ones((2, 1, 4, 4)), LayerParams("c", weights=np.ones((1, 1, 2, 2))), grad_out)

    def test_backward_zero_grad_out(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 5, 5))
        params = LayerParams("c", weights=rng.normal(size=(3, 2, 3, 3)), bias=rng.normal(size=3))
        gx, gw, gb = ops.conv2d_backward(x, params, np.zeros((3, 5, 5)), 1, 1)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_backward_identity_kernel_passes_grad_through(self):
        w = np.ones((1, 1, 1, 1))
        grad_out = np.random.default_rng(4).normal(size=(1, 4, 4))
        gx, _, _ = ops.conv2d_backward(np.zeros((1, 4, 4)), LayerParams("c", weights=w), grad_out)
        np.testing.assert_array_equal(gx, grad_out)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 5, 4))
        w = rng.normal(size=(3, 2, 3, 2))
        b = rng.normal(size=3)
        r = rng.normal(size=(3, 5, 3))  # fixed cotangent

        def f(t):
            params = LayerParams("c", weights=t["w"], bias=t["b"])
            y = ops.conv2d(t["x"], params, 1, 0)
            gx, gw, gb = ops.conv2d_backward(t["x"], params, r, 1, 0)
            return float((y * r).sum()), {"x": gx, "w": gw, "b": gb}

        report = ops.grad_check(f, {"x": x, "w": w, "b": b}, tolerance=1e-6)
        assert report.passed, str(report)

    @pytest.mark.parametrize("shape", BACKWARD_SHAPES)
    def test_backward_matches_finite_differences_in_every_orientation(self, shape):
        c_in, c_out, h, wd, k_h, k_w, pad_h, pad_w = shape
        rng = np.random.default_rng(24)
        inputs = {
            "x": rng.normal(size=(2, c_in, h, wd)),
            "w": rng.normal(size=(c_out, c_in, k_h, k_w)),
            "b": rng.normal(size=c_out),
        }
        r = rng.normal(size=(2, c_out, h + 2 * pad_h - k_h + 1, wd + 2 * pad_w - k_w + 1))

        def f(t):
            params = LayerParams("c", weights=t["w"], bias=t["b"])
            y = ops.conv2d(t["x"], params, pad_h, pad_w)
            gx, gw, gb = ops.conv2d_backward(t["x"], params, r, pad_h, pad_w)
            return float((y * r).sum()), {"x": gx, "w": gw, "b": gb}

        report = ops.grad_check(f, inputs, tolerance=1e-6)
        assert report.passed, str(report)

    def test_backward_grad_x_against_scatter_oracle(self):
        rng = np.random.default_rng(25)
        shapes = list(BACKWARD_SHAPES)
        for _ in range(8):
            h, wd = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            k_h, k_w = int(rng.integers(1, h + 3)), int(rng.integers(1, wd + 3))
            shapes.append((int(rng.integers(1, 4)), int(rng.integers(1, 4)), h, wd, k_h, k_w, 1, 1))
        for c_in, c_out, h, wd, k_h, k_w, pad_h, pad_w in shapes:
            x = rng.normal(size=(c_in, h, wd))
            w = rng.normal(size=(c_out, c_in, k_h, k_w))
            grad_out = rng.normal(size=(c_out, h + 2 * pad_h - k_h + 1, wd + 2 * pad_w - k_w + 1))
            gx, _, _ = ops.conv2d_backward(x, LayerParams("c", weights=w), grad_out, pad_h, pad_w)
            ref = conv_grad_x_oracle(w, grad_out, h, wd, pad_h, pad_w)
            np.testing.assert_allclose(gx, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("shape", BACKWARD_SHAPES)
    def test_backward_bits_equal_the_tap_axis_sum(self, shape, batch, dtype):
        c_in, c_out, h, wd, k_h, k_w, pad_h, pad_w = shape
        self._assert_backward_bits(batch, c_in, c_out, h, wd, k_h, k_w, pad_h, pad_w, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k_w", [86, 38], ids=["timbral_0", "timbral_1"])
    def test_backward_within_rounding_of_the_tap_axis_sum_at_registry_timbral_shapes(self, k_w, dtype):
        # these kernels are lowered in bands (11 and 12 outputs), which sums the same terms in another
        # order: within 2 K u sum|terms| (u = eps / 2) of the tap-axis sum, K terms to an entry
        rng = np.random.default_rng(27)
        x = rng.normal(size=(2, 1, 187, 96)).astype(dtype)
        w = rng.normal(size=(51, 1, 7, k_w)).astype(dtype)
        grad_out = rng.normal(size=(2, 51, 187, 97 - k_w)).astype(dtype)
        got = ops.conv2d_backward(x, LayerParams("c", weights=w), grad_out, 3, 0)[:2]
        want = conv2d_backward_tap_axis_sum(x, LayerParams("c", weights=w), grad_out, 3, 0)[:2]
        bound = conv2d_backward_tap_axis_sum(abs(x), LayerParams("c", weights=abs(w)), abs(grad_out), 3, 0)[:2]
        for g, v, a, k in zip(got, want, bound, (51 * 7 * k_w, 2 * 187 * (97 - k_w))):
            assert g.shape == v.shape and g.dtype == v.dtype
            assert (abs(g - v) <= k * np.finfo(dtype).eps * a).all()

    @staticmethod
    def _assert_backward_bits(batch, c_in, c_out, h, wd, k_h, k_w, pad_h, pad_w, dtype):
        rng = np.random.default_rng(27)
        x = rng.normal(size=(batch, c_in, h, wd)).astype(dtype)
        params = LayerParams(
            "c",
            weights=rng.normal(size=(c_out, c_in, k_h, k_w)).astype(dtype),
            bias=rng.normal(size=c_out).astype(dtype),
        )
        grad_out = rng.normal(size=(batch, c_out, h + 2 * pad_h - k_h + 1, wd + 2 * pad_w - k_w + 1))
        grad_out = grad_out.astype(dtype)
        expected = conv2d_backward_tap_axis_sum(x, params, grad_out, pad_h, pad_w)
        for got, want in zip(ops.conv2d_backward(x, params, grad_out, pad_h, pad_w), expected):
            assert_same_bits(got, want)

    # MTT_musicnn timbral_0: a 7 x 86 kernel over 96 mel bins leaves an output
    # map 11 bins wide, so copying every window of grad_out padded by k - 1
    # would take about 2.2 GB, nearly all of it zeros. timbral_1 at B = 2: a
    # buffer of all 7 x 38 tap planes of the padded input would take 39 MB
    @pytest.mark.parametrize(
        "name, batch, k_w, limit_mib", [("timbral_0", 1, 86, 64), ("timbral_1", 2, 38, 32)]
    )
    def test_backward_memory_at_registry_timbral_shapes(self, name, batch, k_w, limit_mib):
        rng = np.random.default_rng(26)
        x = rng.normal(size=(batch, 1, 187, 96)).astype(np.float32)
        params = LayerParams(
            name,
            weights=rng.normal(size=(51, 1, 7, k_w)).astype(np.float32),
            bias=np.zeros(51, dtype=np.float32),
        )
        grad_out = rng.normal(size=(batch, 51, 187, 97 - k_w)).astype(np.float32)
        tracemalloc.start()
        try:
            ops.conv2d_backward(x, params, grad_out, 3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2**20, f"conv2d_backward peaked at {peak / 2**20:.0f} MB"

    def test_backward_channel_mismatch(self):
        params = LayerParams("timbral_0", weights=np.zeros((1, 3, 2, 2)))
        with pytest.raises(ShapeMismatchError, match="^timbral_0:"):
            ops.conv2d_backward(np.zeros((2, 4, 4)), params, np.zeros((1, 3, 3)))


# conv2d stores its output width-major ([N, C_out, W', H'] in memory) and
# returns the transposed view. The GEMM is the one it always was, with the
# same K order (C_in, kH, kW); only its output columns moved from (H', W')
# to (W', H'). These pin that against the old column order.


def gemm_reference(x, w, b, pad_h, pad_w):
    """One GEMM per example with columns in (H', W') order, bias added."""
    k_h, k_w = w.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (pad_h, pad_h), (pad_w, pad_w)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (k_h, k_w), axis=(2, 3))
    wm = w.reshape(len(w), -1)
    y = np.stack([np.dot(wm, win_b.transpose(0, 3, 4, 1, 2).reshape(wm.shape[1], -1)) for win_b in win])
    return y.reshape((len(x), len(w)) + win.shape[2:4]) + b[:, None, None]


def pooled_conv_layers(cfg):
    """(name, [C_in, H, W] input, padding) of each conv that a max pool follows."""
    d = cfg.dsp
    if cfg.family == "musicnn":
        n = len(cfg.timbral_filter_heights)
        return [(f"timbral_{i}", (1, d.patch_frames, d.n_mels), (3, 0)) for i in range(n)]
    layers, (c, h, w) = [], (1, cfg.vgg_input_frames, d.n_mels)
    for i, (ph, pw) in enumerate(cfg.vgg_pool_shapes, start=1):
        layers.append((f"block{i}", (c, h, w), (1, 1)))
        c, h, w = cfg.vgg_block_channels[i - 1], h // ph, w // pw
    return layers


def _conv_against_reference(cfg, dtype, seed):
    """(name, conv2d output, reference, reference of |x|, |w|, |b|) per layer."""
    rng = np.random.default_rng(seed)
    shapes = cfg.layer_shapes()
    for name, in_shape, pad in pooled_conv_layers(cfg):
        w = rng.normal(size=shapes[name]["weights"]).astype(dtype)
        b = rng.normal(size=shapes[name]["weights"][0]).astype(dtype)
        x = rng.normal(size=(2,) + in_shape).astype(dtype)
        y = ops.conv2d(x, LayerParams(name, weights=w, bias=b), *pad)
        yield name, y, gemm_reference(x, w, b, *pad), gemm_reference(abs(x), abs(w), abs(b), *pad)


TOY_CONFIGS = {
    "toy_musicnn": trainer.toy_model_config("musicnn"),
    "toy_musicnn_attention": trainer.toy_model_config("musicnn", "attention"),
    "toy_vgg": trainer.toy_model_config("vgg"),
}


class TestWidthMajorConv:
    @pytest.mark.parametrize("model_name", store.MODEL_NAMES)
    def test_registry_float32_equals_the_old_column_order(self, model_name):
        # musicnn's timbral kernels are lowered in bands of 11 and 12 outputs, which add the same terms
        # in another order: those are held to the toy bound below, every im2col layer (vgg's) to its bytes
        cfg = store.registry_get(model_name)[0]
        for name, got, want, abs_sum in _conv_against_reference(cfg, np.float32, 40):
            assert got.shape == want.shape and got.dtype == want.dtype, name
            if name.startswith("timbral"):
                k = np.prod(cfg.layer_shapes()[name]["weights"][1:])
                assert (abs(got - want) <= k * np.finfo(np.float32).eps * abs_sum).all(), name
            else:
                assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("toy", sorted(TOY_CONFIGS))
    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_toy_within_rounding_of_the_old_column_order(self, toy, dtype, seed):
        # the same dot products, but OpenBLAS may send a moved column through
        # the kernel for the last few columns, which adds in another order. Two
        # orders of K terms differ by at most 2 K u sum|terms| (u = eps / 2); on
        # toy vgg blocks 3-5 (M=4, K=36, N=18) the moves reach 3 ulps of the sum
        cfg = TOY_CONFIGS[toy]
        for name, got, want, abs_sum in _conv_against_reference(cfg, dtype, seed):
            k = np.prod(cfg.layer_shapes()[name]["weights"][1:])
            assert got.shape == want.shape, name
            assert (abs(got - want) <= k * np.finfo(dtype).eps * abs_sum).all(), name

    def test_output_is_stored_width_major(self):
        x = np.zeros((2, 1, 6, 5), dtype=np.float32)
        y = ops.conv2d(x, LayerParams("c", weights=np.ones((3, 1, 3, 2), dtype=np.float32)), 1, 0)
        assert y.shape == (2, 3, 6, 4)
        assert y.swapaxes(-1, -2).flags.c_contiguous


class TestDense:
    def test_identity(self):
        x = np.arange(4.0)
        y = ops.dense(x, LayerParams("d", weights=np.eye(4), bias=np.zeros(4)))
        np.testing.assert_array_equal(y, x)

    def test_zero_weights_yield_bias(self):
        b = np.array([2.0, -1.0])
        y = ops.dense(np.ones(3), LayerParams("d", weights=np.zeros((2, 3)), bias=b))
        np.testing.assert_array_equal(y, b)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n, m = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            x, w, b = rng.normal(size=n), rng.normal(size=(m, n)), rng.normal(size=m)
            y = ops.dense(x, LayerParams("d", weights=w, bias=b))
            ref = np.array([sum(w[i, j] * x[j] for j in range(n)) + b[i] for i in range(m)])
            np.testing.assert_allclose(y, ref, atol=1e-10)

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(7)
        r = rng.normal(size=3)

        def f(t):
            params = LayerParams("d", weights=t["w"], bias=t["b"])
            y = ops.dense(t["x"], params)
            gx, gw, gb = ops.dense_backward(t["x"], params, r)
            return float(y @ r), {"x": gx, "w": gw, "b": gb}

        inputs = {"x": rng.normal(size=5), "w": rng.normal(size=(3, 5)), "b": rng.normal(size=3)}
        report = ops.grad_check(f, inputs, tolerance=1e-6)
        assert report.passed, str(report)

    def test_backward_input_width_mismatch(self):
        params = LayerParams("penultimate_dense", weights=np.zeros((3, 5)))
        with pytest.raises(ShapeMismatchError, match="^penultimate_dense:"):
            ops.dense_backward(np.zeros(4), params, np.zeros(3))


class TestBatchNorm:
    def test_identity_parameters(self):
        x = np.random.default_rng(8).normal(size=(2, 3, 4, 5))
        params = LayerParams(
            "bn", bn_gamma=np.ones(3), bn_beta=np.zeros(3), bn_mean=np.zeros(3), bn_var=np.ones(3)
        )
        np.testing.assert_allclose(ops.batchnorm_infer(x, params), x / np.sqrt(1 + ops.BN_EPSILON))

    def test_infer_matches_direct_formula(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 2))  # [B, C]
        params = LayerParams(
            "bn",
            bn_gamma=rng.normal(size=2),
            bn_beta=rng.normal(size=2),
            bn_mean=rng.normal(size=2),
            bn_var=rng.uniform(0.1, 2.0, 2),
        )
        y = ops.batchnorm_infer(x, params)
        for c in range(2):
            for i in range(3):
                ref = (x[i, c] - params.bn_mean[c]) / np.sqrt(params.bn_var[c] + ops.BN_EPSILON)
                ref = ref * params.bn_gamma[c] + params.bn_beta[c]
                assert abs(y[i, c] - ref) < 1e-12

    def test_train_normalizes_the_batch(self):
        rng = np.random.default_rng(10)
        batch = rng.normal(loc=3.0, scale=2.0, size=(8, 4, 6))
        params = LayerParams(
            "bn", bn_gamma=np.ones(4), bn_beta=np.zeros(4), bn_mean=np.zeros(4), bn_var=np.ones(4)
        )
        y, mean, var, _ = ops.batchnorm_train(batch, params)
        np.testing.assert_allclose(y.mean(axis=(0, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=(0, 2)), 1.0, atol=1e-4)
        np.testing.assert_allclose(mean, batch.mean(axis=(0, 2)), atol=1e-12)
        np.testing.assert_allclose(var, batch.var(axis=(0, 2)), atol=1e-12)

    def test_infer_backward_covers_all_five_tensors(self):
        rng = np.random.default_rng(11)
        r = rng.normal(size=(3, 2, 4))

        def f(t):
            params = LayerParams(
                "bn", bn_gamma=t["g"], bn_beta=t["be"], bn_mean=t["m"], bn_var=t["v"]
            )
            y = ops.batchnorm_infer(t["x"], params)
            gx, gg, gb, gm, gv = ops.batchnorm_infer_backward(t["x"], params, r)
            return float((y * r).sum()), {"x": gx, "g": gg, "be": gb, "m": gm, "v": gv}

        inputs = {
            "x": rng.normal(size=(3, 2, 4)),
            "g": rng.normal(size=2),
            "be": rng.normal(size=2),
            "m": rng.normal(size=2),
            "v": rng.uniform(0.5, 2.0, 2),
        }
        report = ops.grad_check(f, inputs, tolerance=1e-5)
        assert report.passed, str(report)

    def test_train_backward_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        r = rng.normal(size=(4, 2, 3))

        def f(t):
            params = LayerParams(
                "bn",
                bn_gamma=t["g"],
                bn_beta=t["be"],
                bn_mean=np.zeros(2),
                bn_var=np.ones(2),
            )
            y, _, _, cache = ops.batchnorm_train(t["x"], params)
            gx, gg, gb = ops.batchnorm_train_backward(params, cache, r)
            return float((y * r).sum()), {"x": gx, "g": gg, "be": gb}

        inputs = {"x": rng.normal(size=(4, 2, 3)), "g": rng.normal(size=2), "be": rng.normal(size=2)}
        report = ops.grad_check(f, inputs, tolerance=1e-5)
        assert report.passed, str(report)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layout_of_the_input_does_not_change_bits(self, dtype):
        # conv maps arrive as width-major views, and float sums follow memory
        # order; both ops sum over the C-ordered copy
        rng = np.random.default_rng(14)
        params = LayerParams(
            "bn",
            bn_gamma=rng.normal(size=4).astype(dtype),
            bn_beta=rng.normal(size=4).astype(dtype),
            bn_mean=rng.normal(size=4).astype(dtype),
            bn_var=rng.uniform(0.5, 2.0, 4).astype(dtype),
        )
        view = rng.normal(loc=3.0, size=(3, 4, 37, 29)).astype(dtype).swapaxes(-1, -2)
        grad = rng.normal(size=(3, 4, 37, 29)).astype(dtype).swapaxes(-1, -2)
        copy, grad_copy = np.ascontiguousarray(view), np.ascontiguousarray(grad)
        y, mean, var, cache = ops.batchnorm_train(view, params)
        y_c, mean_c, var_c, cache_c = ops.batchnorm_train(copy, params)
        got = [y, mean, var, cache["xhat"], cache["inv"]]
        want = [y_c, mean_c, var_c, cache_c["xhat"], cache_c["inv"]]
        got += ops.batchnorm_infer_backward(view, params, grad)
        want += ops.batchnorm_infer_backward(copy, params, grad_copy)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_infer_backward_channel_mismatch(self):
        params = LayerParams(
            "input_bn", bn_gamma=np.ones(2), bn_beta=np.zeros(2), bn_mean=np.zeros(2), bn_var=np.ones(2)
        )
        with pytest.raises(ShapeMismatchError, match="^input_bn:"):
            ops.batchnorm_infer_backward(np.zeros((4, 3, 5)), params, np.zeros((4, 3, 5)))
        with pytest.raises(ShapeMismatchError, match="^input_bn:"):  # would broadcast
            ops.batchnorm_infer_backward(np.zeros((4, 2, 5)), params, np.zeros((4, 2, 1)))

    def test_partial_bn_set_rejected(self):
        params = LayerParams("bn", bn_gamma=np.ones(2), bn_beta=np.zeros(2))
        with pytest.raises(ShapeMismatchError):
            params.validate()

    def test_negative_variance_rejected(self):
        params = LayerParams(
            "bn",
            bn_gamma=np.ones(1),
            bn_beta=np.zeros(1),
            bn_mean=np.zeros(1),
            bn_var=np.array([-0.1]),
        )
        with pytest.raises(ShapeMismatchError):
            params.validate()


class TestEnsureFinite:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 11, -1])
    def test_non_finite_anywhere_is_reported(self, dtype, bad, at):
        a = np.linspace(-3.0, 3.0, 24).astype(dtype).reshape(2, 3, 4)
        a.reshape(-1)[at] = bad
        with pytest.raises(NumericFaultError, match="^op produced"):
            ops._ensure_finite("op", np.zeros(3), a)

    def test_finite_and_empty_arrays_pass(self):
        big = np.finfo(np.float64).max
        ops._ensure_finite("op", np.array([-big, 0.0, big]), np.zeros((0, 3)), np.zeros((2, 0)))


class TestActivations:
    def test_relu_values(self):
        x = np.array([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(ops.relu(x), [0.0, 0.0, 2.0])
        assert ops.relu(x, out=x) is x
        np.testing.assert_array_equal(x, [0.0, 0.0, 2.0])

    def test_relu_backward_mask_from_output_is_mask_from_input(self):
        x = np.array([-2.0, -0.0, 0.0, -5e-324, 5e-324, 3.0] * 2)
        g = np.repeat([1.5, -1.5], 6)  # negative gradients make signed zeros
        from_output = ops.relu_backward(ops.relu(x), g)
        assert from_output.tobytes() == ops.relu_backward(x, g).tobytes()

    def test_sigmoid_midpoint_and_saturation(self):
        assert ops.sigmoid(np.array(0.0)) == 0.5
        big = ops.sigmoid(np.array([1000.0, -1000.0]))
        assert big[0] == 1.0 and big[1] == 0.0 and np.isfinite(big).all()

    @given(st.floats(-50, 50))
    @settings(max_examples=40, deadline=None)
    def test_sigmoid_symmetry(self, x):
        total = ops.sigmoid(np.array([x]))[0] + ops.sigmoid(np.array([-x]))[0]
        assert abs(total - 1.0) < 1e-12

    def test_softmax_of_constant_is_uniform(self):
        y = ops.softmax_over_axis(np.full(7, 3.3), axis=0)
        np.testing.assert_allclose(y, 1.0 / 7.0, atol=1e-12)

    def test_softmax_shift_invariance(self):
        x = np.random.default_rng(13).normal(size=(3, 5))
        a = ops.softmax_over_axis(x, axis=1)
        b = ops.softmax_over_axis(x + 1000.0, axis=1)
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_softmax_matches_direct_formula(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x = rng.normal(size=(int(rng.integers(1, 5)), int(rng.integers(2, 7))))
            y = ops.softmax_over_axis(x, axis=1)
            ref = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
            np.testing.assert_allclose(y, ref, rtol=1e-12)

    def test_activation_gradients(self):
        rng = np.random.default_rng(15)
        r = rng.normal(size=6)
        # relu: keep inputs away from the kink at 0
        x_relu = rng.choice([-1.0, 1.0], 6) * rng.uniform(0.5, 2.0, 6)

        def f_relu(t):
            y = ops.relu(t["x"])
            return float(y @ r), {"x": ops.relu_backward(t["x"], r)}

        assert ops.grad_check(f_relu, {"x": x_relu}, tolerance=1e-6).passed

        r2 = rng.normal(size=(2, 5))

        def f_soft(t):
            y = ops.softmax_over_axis(t["x"], axis=1)
            return float((y * r2).sum()), {"x": ops.softmax_backward(y, r2, axis=1)}

        assert ops.grad_check(f_soft, {"x": rng.normal(size=(2, 5))}, tolerance=1e-5).passed


def pool_max_oracle(x, wh, ww):
    c, h, w = x.shape
    y = np.zeros((c, h // wh, w // ww))
    for ci in range(c):
        for i in range(h // wh):
            for j in range(w // ww):
                y[ci, i, j] = x[ci, i * wh : (i + 1) * wh, j * ww : (j + 1) * ww].max()
    return y


def pool_max_backward_argmax(x, window_h, window_w, grad_out):
    """pool_max_backward by argmax over a tile copy, then put_along_axis into
    zeros. The op selects the same first max, so it must match byte for byte."""
    *lead, h, w = x.shape
    ho, wo = h // window_h, w // window_w
    flat = x.reshape(*lead, ho, window_h, wo, window_w).swapaxes(-3, -2).reshape(*lead, ho, wo, -1)
    grad_tiles = np.zeros_like(flat)
    np.put_along_axis(grad_tiles, flat.argmax(axis=-1)[..., None], grad_out[..., None], axis=-1)
    return grad_tiles.reshape(*lead, ho, wo, window_h, window_w).swapaxes(-3, -2).reshape(x.shape)


class TestPooling:
    def test_pool_max_matches_loop_oracle(self):
        rng = np.random.default_rng(16)
        for _ in range(15):
            wh, ww = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            h, w = wh * int(rng.integers(1, 5)), ww * int(rng.integers(1, 5))
            x = rng.normal(size=(int(rng.integers(1, 4)), h, w))
            np.testing.assert_array_equal(ops.pool_max(x, wh, ww), pool_max_oracle(x, wh, ww))

    def test_pool_max_needs_divisible_extents(self):
        with pytest.raises(ShapeMismatchError):
            ops.pool_max(np.zeros((1, 5, 4)), 2, 2)

    def test_pool_mean_constant(self):
        x = np.full((2, 3, 4), 1.7)
        np.testing.assert_allclose(ops.pool_mean_over_axis(x, axis=2), 1.7)

    def test_tied_max_routes_gradient_to_first(self):
        x = np.array([[[1.0, 1.0], [0.0, 1.0]]])  # three tied maxima
        grad = ops.pool_max_backward(x, 2, 2, np.array([[[5.0]]]))
        np.testing.assert_array_equal(grad, [[[5.0, 0.0], [0.0, 0.0]]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("width_major", [False, True])
    @pytest.mark.parametrize("wh, ww", [(1, 1), (2, 2), (4, 4), (6, 3)])
    def test_backward_bits_equal_the_argmax_scatter(self, wh, ww, width_major, dtype):
        rng = np.random.default_rng(18)
        x = np.maximum(rng.normal(size=(2, 3, 4 * wh, 5 * ww)), 0.0).astype(dtype)  # post-relu
        x[0, 0, :wh, :ww] = 0.0  # an all-zero window
        for c in range(3):  # a positive tie in one window per channel, planted after its max
            tile = x[1, c, wh : 2 * wh, 2 * ww : 3 * ww]
            tile.flat[-1] = tile.max() + 1.0
            tile.flat[(c * 7) % tile.size] = tile.flat[-1]
        if width_major:
            x = np.ascontiguousarray(x.swapaxes(-1, -2)).swapaxes(-1, -2)
        grad_out = rng.normal(size=(2, 3, 4, 5)).astype(dtype)
        assert_same_bits(ops.pool_max_backward(x, wh, ww, grad_out), pool_max_backward_argmax(x, wh, ww, grad_out))

    def test_axis_pool_tied_max_first_index(self):
        x = np.array([[2.0, 2.0, 1.0]])
        grad = ops.pool_max_over_axis_backward(x, 1, np.array([3.0]))
        np.testing.assert_array_equal(grad, [[3.0, 0.0, 0.0]])

    def test_pool_gradients(self):
        rng = np.random.default_rng(17)
        # distinct values with margins far beyond epsilon, so no tie flips
        x = rng.permutation(24).astype(np.float64).reshape(2, 4, 3) * 0.5
        r = rng.normal(size=(2, 2, 1))

        def f_max(t):
            y = ops.pool_max(t["x"], 2, 3)
            return float((y * r).sum()), {"x": ops.pool_max_backward(t["x"], 2, 3, r)}

        assert ops.grad_check(f_max, {"x": x}, tolerance=1e-6).passed

        r2 = rng.normal(size=(2, 4))

        def f_mean(t):
            y = ops.pool_mean_over_axis(t["x"], axis=2)
            return float((y * r2).sum()), {
                "x": ops.pool_mean_over_axis_backward(t["x"].shape, 2, r2)
            }

        assert ops.grad_check(f_mean, {"x": rng.normal(size=(2, 4, 3))}, tolerance=1e-6).passed

        def f_amax(t):
            y = ops.pool_max_over_axis(t["x"], axis=2)
            return float((y * r2).sum()), {"x": ops.pool_max_over_axis_backward(t["x"], 2, r2)}

        x2 = rng.permutation(24).astype(np.float64).reshape(2, 4, 3)
        assert ops.grad_check(f_amax, {"x": x2}, tolerance=1e-6).passed


class TestGradCheckHarness:
    def test_rejects_float32(self):
        def f(t):
            return float(t["x"].sum()), {"x": np.ones_like(t["x"])}

        with pytest.raises(NumericFaultError):
            ops.grad_check(f, {"x": np.ones(3, dtype=np.float32)})

    def test_catches_a_wrong_gradient(self):
        def f(t):
            return float((t["x"] ** 2).sum()), {"x": 3.0 * t["x"]}  # true grad is 2x

        report = ops.grad_check(f, {"x": np.array([1.0, -2.0])})
        assert not report.passed
        assert report.worst.max_relative_error > 0.1

    def test_accepts_a_right_gradient(self):
        def f(t):
            return float((t["x"] ** 2).sum()), {"x": 2.0 * t["x"]}

        assert ops.grad_check(f, {"x": np.array([1.0, -2.0, 0.5])}).passed

    def test_report_lists_every_tensor(self):
        def f(t):
            return float(t["a"].sum() + t["b"].sum()), {
                "a": np.ones_like(t["a"]),
                "b": np.ones_like(t["b"]),
            }

        report = ops.grad_check(f, {"a": np.zeros(2), "b": np.zeros(3)})
        assert {e.name for e in report.entries} == {"a", "b"}
        assert "ok" in str(report)


class TestLayerParams:
    def test_tensor_keys_in_declaration_order(self):
        params = LayerParams(
            "layer",
            weights=np.zeros((1, 1)),
            bias=np.zeros(1),
            bn_gamma=np.ones(1),
            bn_beta=np.zeros(1),
            bn_mean=np.zeros(1),
            bn_var=np.ones(1),
        )
        assert list(params.tensors()) == [
            "layer.weights",
            "layer.bias",
            "layer.bn_gamma",
            "layer.bn_beta",
            "layer.bn_mean",
            "layer.bn_var",
        ]

    def test_absent_tensors_are_skipped(self):
        params = LayerParams("d", weights=np.zeros((2, 2)))
        assert list(params.tensors()) == ["d.weights"]
        assert params.bn_gamma is None


# --- batching contract ---------------------------------------------------------
#
# Every op takes a batch. Row b of a batched call must equal the call on
# example b alone bit for bit, and parameter gradients must equal the
# per-example gradients added up in index order (a left fold, not numpy's
# pairwise sum). Cases cover B = 1, several leading batch axes, c_out = 1,
# 1x1 output maps and more than eight rows of one channel, which is where
# stacked GEMMs and reductions change bits.

DTYPES = [np.float32, np.float64]


def _index_order_sum(parts):
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return total


def _assert_rows_and_sums(batched, singles, lead):
    """batched: tuple of per-row outputs then summed gradients;
    singles: the same tuples from one call per example, in index order."""
    n_rows = int(np.prod(lead))
    rows, summed = batched
    for k, out in enumerate(rows):
        flat = out.reshape((n_rows,) + out.shape[len(lead):])
        for b in range(n_rows):
            np.testing.assert_array_equal(flat[b], singles[b][0][k], strict=True)
    for k, grad in enumerate(summed):
        np.testing.assert_array_equal(
            grad, _index_order_sum([s[1][k] for s in singles]), strict=True
        )


CONV_CASES = [
    # lead, c_in, c_out, h, w, k_h, k_w, pad_h, pad_w
    ((1,), 2, 3, 5, 4, 3, 2, 1, 0),
    ((3,), 1, 1, 9, 1, 5, 1, 2, 0),  # c_out = 1 temporal kernel
    ((2,), 3, 2, 3, 3, 3, 3, 0, 0),  # 1x1 output map
    ((4,), 2, 3, 6, 6, 3, 3, 1, 1),
    ((2,), 1, 2, 9, 8, 7, 6, 3, 0),  # tall timbral kernel
    ((2, 3), 2, 2, 4, 5, 3, 3, 1, 1),
    ((10,), 1, 1, 5, 1, 3, 1, 1, 0),  # B >= 9 rows of one channel: pairwise sums differ
    ((3,), 2, 2, 4, 6, 5, 2, 2, 0),  # kernel taller than the output map
    ((3,), 2, 3, 2, 2, 3, 3, 1, 1),  # kernel taller and wider than the output map
    ((3,), 2, 3, 3, 20, 3, 4, 1, 1),  # bands of 2 outputs, narrower than the map, the last a part band
]


class TestBatchedOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", CONV_CASES)
    def test_conv2d(self, dtype, case):
        lead, c_in, c_out, h, w, k_h, k_w, pad_h, pad_w = case
        rng = np.random.default_rng(20)
        params = LayerParams(
            "c",
            weights=rng.normal(size=(c_out, c_in, k_h, k_w)).astype(dtype),
            bias=rng.normal(size=c_out).astype(dtype),
        )
        x = rng.normal(size=lead + (c_in, h, w)).astype(dtype)
        y = ops.conv2d(x, params, pad_h, pad_w)
        grad_out = rng.normal(size=y.shape).astype(dtype)
        gx, gw, gb = ops.conv2d_backward(x, params, grad_out, pad_h, pad_w)
        xs = x.reshape((-1, c_in, h, w))
        gos = grad_out.reshape((-1,) + y.shape[len(lead):])
        singles = []
        for b in range(len(xs)):
            sgx, sgw, sgb = ops.conv2d_backward(xs[b], params, gos[b], pad_h, pad_w)
            singles.append(((ops.conv2d(xs[b], params, pad_h, pad_w), sgx), (sgw, sgb)))
        _assert_rows_and_sums(((y, gx), (gw, gb)), singles, lead)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("lead, n, m", [((1,), 5, 3), ((4,), 6, 1), ((3,), 1, 1), ((2, 3), 7, 4), ((12,), 3, 1)])
    def test_dense(self, dtype, lead, n, m):
        rng = np.random.default_rng(21)
        params = LayerParams(
            "d",
            weights=rng.normal(size=(m, n)).astype(dtype),
            bias=rng.normal(size=m).astype(dtype),
        )
        x = rng.normal(size=lead + (n,)).astype(dtype)
        grad_out = rng.normal(size=lead + (m,)).astype(dtype)
        y = ops.dense(x, params)
        gx, gw, gb = ops.dense_backward(x, params, grad_out)
        singles = []
        for xb, gb_out in zip(x.reshape(-1, n), grad_out.reshape(-1, m)):
            sgx, sgw, sgb = ops.dense_backward(xb, params, gb_out)
            singles.append(((ops.dense(xb, params), sgx), (sgw, sgb)))
        _assert_rows_and_sums(((y, gx), (gw, gb)), singles, lead)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "lead, c, h, w, wh, ww",
        [((1,), 2, 4, 6, 2, 3), ((3,), 1, 2, 2, 2, 2), ((2,), 3, 6, 4, 1, 1), ((2, 2), 2, 8, 6, 4, 3)],
    )
    def test_pool_max(self, dtype, lead, c, h, w, wh, ww):
        rng = np.random.default_rng(22)
        x = rng.normal(size=lead + (c, h, w)).astype(dtype)
        y = ops.pool_max(x, wh, ww)
        grad_out = rng.normal(size=y.shape).astype(dtype)
        gx = ops.pool_max_backward(x, wh, ww, grad_out)
        singles = [
            ((ops.pool_max(xb, wh, ww), ops.pool_max_backward(xb, wh, ww, gb)), ())
            for xb, gb in zip(x.reshape(-1, c, h, w), grad_out.reshape((-1,) + y.shape[-3:]))
        ]
        _assert_rows_and_sums(((y, gx), ()), singles, lead)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(1, 1, 4, 3), (3, 1, 4, 3), (4, 3), (2, 3, 1, 1), (5, 2, 6), (12, 1, 4)])
    def test_batchnorm_infer(self, dtype, shape):
        rng = np.random.default_rng(23)
        c = shape[1]
        params = LayerParams(
            "bn",
            bn_gamma=rng.normal(size=c).astype(dtype),
            bn_beta=rng.normal(size=c).astype(dtype),
            bn_mean=rng.normal(size=c).astype(dtype),
            bn_var=rng.uniform(0.5, 2.0, c).astype(dtype),
        )
        x = rng.normal(size=shape).astype(dtype)
        grad_out = rng.normal(size=shape).astype(dtype)
        y = ops.batchnorm_infer(x, params)
        gx, *param_grads = ops.batchnorm_infer_backward(x, params, grad_out)
        singles = []
        for b in range(shape[0]):
            sgx, *sgrads = ops.batchnorm_infer_backward(x[b : b + 1], params, grad_out[b : b + 1])
            singles.append(((ops.batchnorm_infer(x[b : b + 1], params)[0], sgx[0]), sgrads))
        _assert_rows_and_sums(((y, gx), param_grads), singles, shape[:1])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("op", ["conv2d", "conv2d_banded", "dense", "batchnorm_infer"])
    def test_an_empty_batch_has_zero_parameter_gradients(self, dtype, op):
        rng = np.random.default_rng(24)

        def normal(*shape):
            return rng.normal(size=shape).astype(dtype)

        conv = LayerParams("c", weights=normal(3, 2, 3, 7 if op == "conv2d_banded" else 3), bias=normal(3))
        fc = LayerParams("d", weights=normal(5, 4), bias=normal(5))
        bn = LayerParams("bn", bn_gamma=normal(3), bn_beta=normal(3), bn_mean=normal(3),
                         bn_var=rng.uniform(0.5, 2.0, 3).astype(dtype))
        forward, backward, x, params = {
            "conv2d": (ops.conv2d, ops.conv2d_backward, normal(0, 2, 5, 12), conv),
            "conv2d_banded": (ops.conv2d, ops.conv2d_backward, normal(0, 2, 5, 12), conv),
            "dense": (ops.dense, ops.dense_backward, normal(0, 4), fc),
            "batchnorm_infer": (ops.batchnorm_infer, ops.batchnorm_infer_backward, normal(0, 3, 4, 5), bn),
        }[op]
        y = forward(x, params)
        assert y.shape[0] == 0
        gx, *grads = backward(x, params, np.zeros(y.shape, dtype))
        assert_same_bits(gx, np.zeros(x.shape, dtype))
        tensors = [params.weights, params.bias] if params.bn_gamma is None else [
            params.bn_gamma, params.bn_beta, params.bn_mean, params.bn_var]
        assert len(grads) == len(tensors)
        for grad, tensor in zip(grads, tensors):
            assert_same_bits(grad, np.zeros_like(tensor))


# --- one layout contract for every op ------------------------------------------

def _layout_case(name, dtype):
    """(op, *args) for one op on fixed values in C order."""
    rng = np.random.default_rng(30)

    def normal(*shape):
        return rng.normal(size=shape).astype(dtype)

    conv = LayerParams("c", weights=normal(3, 2, 3, 4), bias=normal(3))
    fc = LayerParams("d", weights=normal(5, 37), bias=normal(5))
    bn = LayerParams("bn", bn_gamma=normal(3), bn_beta=normal(3), bn_mean=normal(3),
                     bn_var=rng.uniform(0.5, 2.0, 3).astype(dtype))
    x, m, g = normal(2, 2, 12, 10), normal(2, 3, 37, 29), normal(2, 3, 37, 29)
    op, _, axis = name.partition("@")
    axis = int(axis or 0)
    return {
        "conv2d": (ops.conv2d, x, conv, 1, 1),
        "conv2d_pool": (ops.conv2d_pool, x, conv, 1, 1, lambda z: ops.pool_max_over_axis(z, 3)),
        "conv2d_backward": (ops.conv2d_backward, x, conv, normal(2, 3, 12, 9), 1, 1),
        "dense": (ops.dense, normal(4, 37), fc),
        "dense_backward": (ops.dense_backward, normal(4, 37), fc, normal(4, 5)),
        "batchnorm_infer": (ops.batchnorm_infer, m, bn),
        "batchnorm_infer_backward": (ops.batchnorm_infer_backward, m, bn, g),
        "batchnorm_train": (ops.batchnorm_train, m, bn),
        "batchnorm_train_backward": (ops.batchnorm_train_backward, bn, ops.batchnorm_train(m, bn)[3], g),
        "relu": (ops.relu, m),
        "relu_backward": (ops.relu_backward, m, g),
        "sigmoid": (ops.sigmoid, m),
        "softmax_over_axis": (ops.softmax_over_axis, m, axis),
        "softmax_backward": (ops.softmax_backward, ops.softmax_over_axis(m, axis), g, axis),
        "pool_max": (ops.pool_max, normal(2, 3, 36, 28), 2, 2),
        "pool_max_backward": (ops.pool_max_backward, normal(2, 3, 36, 28), 2, 2, normal(2, 3, 18, 14)),
        "pool_mean_over_axis": (ops.pool_mean_over_axis, m, axis),
        "pool_mean_over_axis_backward": (ops.pool_mean_over_axis_backward, m.shape, axis, m.sum(axis)),
        "pool_max_over_axis": (ops.pool_max_over_axis, m, axis),
        "pool_max_over_axis_backward": (ops.pool_max_over_axis_backward, m, axis, m.sum(axis)),
    }[op]


def _width_major(a):
    """The same values with the last two axes swapped in memory."""
    return np.ascontiguousarray(a.swapaxes(-1, -2)).swapaxes(-1, -2) if a.ndim > 1 else a


def _negative_stride(a):
    return a[..., ::-1].copy()[..., ::-1]


def _relaid(value, layout):
    """Data tensors in `layout`; LayerParams stay as the model stores them, in C order."""
    if isinstance(value, np.ndarray):
        return layout(value)
    if isinstance(value, dict):  # batchnorm_train's cache
        return {k: _relaid(v, layout) for k, v in value.items()}
    return value


def _arrays(out):
    if isinstance(out, np.ndarray):
        return [out]
    if isinstance(out, dict):
        return [v for v in out.values() if isinstance(v, np.ndarray)]
    return [a for o in out if o is not None for a in _arrays(o)]


AXIS_OPS = ("softmax_over_axis", "softmax_backward", "pool_mean_over_axis",
            "pool_mean_over_axis_backward", "pool_max_over_axis", "pool_max_over_axis_backward")
LAYOUT_OPS = [
    "conv2d", "conv2d_pool", "conv2d_backward", "dense", "dense_backward", "batchnorm_infer",
    "batchnorm_infer_backward", "batchnorm_train", "batchnorm_train_backward", "relu",
    "relu_backward", "sigmoid", "pool_max", "pool_max_backward",
    *(f"{op}@{axis}" for op in AXIS_OPS for axis in (-2, -1)),
]


class TestLayoutContract:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("layout", [_width_major, _negative_stride], ids=["width_major", "negative_stride"])
    @pytest.mark.parametrize("name", LAYOUT_OPS)
    def test_bits_do_not_depend_on_the_inputs_layout(self, name, layout, dtype):
        op, *args = _layout_case(name, dtype)
        want = _arrays(op(*args))
        got = _arrays(op(*(_relaid(a, layout) for a in args)))
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_bits(g, w)


def _first_conv_calls(model_names):
    """(layer, padding, pool, input shape) of each conv layer's first forward call in these models."""
    from meltag import network

    seen, calls = set(), []
    original = ops.conv2d_pool

    def spy(x, params, pad_h, pad_w, pool):
        if params.name not in seen:
            seen.add(params.name)
            calls.append((params, (pad_h, pad_w), pool, x.shape[-3:]))
        return original(x, params, pad_h, pad_w, pool)

    ops.conv2d_pool = spy
    try:
        for name in model_names:
            seen.clear()
            if name in TOY_CONFIGS:
                model = network.build_model(TOY_CONFIGS[name], seed=5, mode="float64")
            else:
                model = store.load_registry_model(name)
            d = model.config.dsp
            network.infer_batch(np.zeros((1, d.patch_frames, d.n_mels), model.dtype), model)
    finally:
        ops.conv2d_pool = original
    return calls


@pytest.fixture(scope="module")
def musicnn_convs():
    return _first_conv_calls(("MTT_musicnn",))


@pytest.fixture(scope="module")
def registry_convs(musicnn_convs):
    return musicnn_convs + _first_conv_calls(("MTT_vgg",))


@pytest.fixture(scope="module")
def toy_convs():
    return _first_conv_calls(("toy_musicnn", "toy_vgg"))


def conv_grad_w_oracle(x, grad_out, k_h, k_w, pad_h, pad_w):
    """Each kernel tap's gradient: its input under every output, times that output's gradient."""
    c_in, h, wd = x.shape
    xp = np.zeros((c_in, h + 2 * pad_h, wd + 2 * pad_w))
    xp[:, pad_h : pad_h + h, pad_w : pad_w + wd] = x
    gw = np.zeros((len(grad_out), c_in, k_h, k_w))
    for co in range(len(grad_out)):
        for ci in range(c_in):
            for u in range(k_h):
                for v in range(k_w):
                    for i in range(grad_out.shape[1]):
                        for j in range(grad_out.shape[2]):
                            gw[co, ci, u, v] += grad_out[co, i, j] * xp[ci, i + u, j + v]
    return gw


def max_over_width(z):
    return ops.pool_max_over_axis(z, 3)


class TestBandedConv:
    """Both conv ops make one GEMM per example from windows taken g outputs apart along the width."""

    def test_band_widths(self, registry_convs, toy_convs):
        bands = {}
        for params, (_, pad_w), _, shape in registry_convs + toy_convs:
            bands[params.name] = bands.get(params.name, ()) + (ops._band_weights(np.zeros(shape), params, pad_w)[1],)
        assert bands.pop("timbral_0") == (11, 2) and bands.pop("timbral_1") == (12, 2)
        assert set(bands.values()) == {(1,), (1, 1)}

    @staticmethod
    def _assert_matches_the_loop_oracles(layer, x, pad_h, pad_w, rng):
        y = ops.conv2d(x, layer, pad_h, pad_w)
        want = conv_oracle(x, layer.weights, layer.bias, pad_h, pad_w)
        np.testing.assert_allclose(y, want, rtol=1e-10, atol=1e-10, err_msg=layer.name)
        pooled = ops.conv2d_pool(x[None], layer, pad_h, pad_w, max_over_width)
        np.testing.assert_allclose(pooled[0], want.max(axis=2), rtol=1e-10, atol=1e-10, err_msg=layer.name)
        r = rng.normal(size=y.shape)
        gx, gw, gb = ops.conv2d_backward(x, layer, r, pad_h, pad_w)
        np.testing.assert_allclose(gx, conv_grad_x_oracle(layer.weights, r, *x.shape[1:], pad_h, pad_w),
                                   rtol=1e-10, atol=1e-10, err_msg=layer.name)
        np.testing.assert_allclose(gw, conv_grad_w_oracle(x, r, *layer.weights.shape[2:], pad_h, pad_w),
                                   rtol=1e-10, atol=1e-10, err_msg=layer.name)
        np.testing.assert_allclose(gb, r.sum(axis=(1, 2)), rtol=1e-12, err_msg=layer.name)

    @pytest.mark.parametrize("source", ["registry", "toy"])
    def test_every_conv_matches_the_loop_oracles_in_float64(self, request, source):
        # two output and at most four input channels, two frames: the bands run along the width, kept whole
        rng = np.random.default_rng(50)
        for params, (pad_h, pad_w), _, (c_in, _, wd) in request.getfixturevalue(f"{source}_convs"):
            w = params.weights[:2, :4].astype(np.float64)
            b = rng.normal(size=len(w))
            layer = LayerParams(params.name, weights=rng.normal(size=w.shape) + w, bias=b)
            self._assert_matches_the_loop_oracles(layer, rng.normal(size=(w.shape[1], 2, wd)), pad_h, pad_w, rng)

    # c_in, c_out, h, w, k_h, k_w, pad_h, pad_w: bands of 2 and 3 outputs, fewer taps than bands, so
    # the input gradient adds one tap plane per band tap, its entries g apart; W' = 19 and 34 end in
    # a part band
    @pytest.mark.parametrize("shape", [(2, 3, 3, 20, 3, 4, 1, 1), (1, 2, 4, 40, 3, 7, 1, 0)])
    def test_bands_narrower_than_the_map_match_the_loop_oracles(self, shape):
        c_in, c_out, h, wd, k_h, k_w, pad_h, pad_w = shape
        rng = np.random.default_rng(52)
        layer = LayerParams("c", weights=rng.normal(size=(c_out, c_in, k_h, k_w)), bias=rng.normal(size=c_out))
        _, g, wo = ops._band_weights(np.zeros((c_in, h, wd)), layer, pad_w)
        assert g > 1 and k_w + g - 1 <= -(-wo // g) and wo % g
        self._assert_matches_the_loop_oracles(layer, rng.normal(size=(c_in, h, wd)), pad_h, pad_w, rng)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("source", ["musicnn", "toy"])  # the vgg blocks' g = 1 is TestBatchedOps' im2col
    def test_batch_rows_are_single_examples_bit_for_bit(self, request, source, dtype):
        rng = np.random.default_rng(51)
        for params, (pad_h, pad_w), _, shape in request.getfixturevalue(f"{source}_convs"):
            bias = rng.normal(size=len(params.weights)).astype(dtype)
            layer = LayerParams(params.name, params.weights.astype(dtype), bias)
            x = rng.normal(size=(3,) + shape).astype(dtype)
            y = ops.conv2d(x, layer, pad_h, pad_w)
            pooled = ops.conv2d_pool(x, layer, pad_h, pad_w, max_over_width)
            assert_same_bits(pooled, max_over_width(y))
            r = rng.normal(size=y.shape).astype(dtype)
            gx, gw, gb = ops.conv2d_backward(x, layer, r, pad_h, pad_w)
            singles = [ops.conv2d_backward(x[k], layer, r[k], pad_h, pad_w) for k in range(3)]
            for k in range(3):
                assert_same_bits(ops.conv2d(x[k], layer, pad_h, pad_w), y[k])
                assert_same_bits(ops.conv2d_pool(x[k : k + 1], layer, pad_h, pad_w, max_over_width), pooled[k : k + 1])
                assert_same_bits(singles[k][0], gx[k])
            assert_same_bits(_index_order_sum([s[1] for s in singles]), gw)
            assert_same_bits(_index_order_sum([s[2] for s in singles]), gb)

    def test_timbral_1_peak_at_batch_1(self, registry_convs):
        params, (pad_h, pad_w), pool, shape = next(c for c in registry_convs if c[0].name == "timbral_1")
        x = np.random.default_rng(0).normal(size=(1,) + shape).astype(np.float32)
        for p in (None, pool):
            tracemalloc.start()
            try:
                ops.conv2d_pool(x, params, pad_h, pad_w, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2**20, f"{peak / 2**20:.2f} MiB"  # 13.4 MiB as one im2col matrix
