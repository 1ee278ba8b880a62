"""Tensor engine tests: forward oracles and finite-difference gradient checks."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from lumiq import autodiff as ad
from lumiq.autodiff import Tensor, Tape, ShapeError


def conv_oracle(x, w, b, stride, pad):
    """Six-nested-loop cross-correlation reference."""
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - k) // stride + 1
    ow = (wd + 2 * pad - k) // stride + 1
    out = np.zeros((bs, cout, oh, ow))
    for n in range(bs):
        for o in range(cout):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(cin):
                        for u in range(k):
                            for v in range(k):
                                acc += xp[n, c, i * stride + u, j * stride + v] * w[o, c, u, v]
                    out[n, o, i, j] = acc + (b[o] if b is not None else 0.0)
    return out


def conv_backward_oracle(x, w, g, stride, pad):
    """(dx, dw) of conv2d for output gradient g, by patch scatter-adds and einsum."""
    bs, cin, h, wd = x.shape
    cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride]
    oh, ow = windows.shape[2:4]
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(bs, oh, ow, cin * k * k)
    gm = g.transpose(0, 2, 3, 1)
    dw = np.einsum("bijo,bijf->of", gm, cols).reshape(w.shape)
    patches = (gm @ w.reshape(cout, -1)).reshape(bs, oh, ow, cin, k, k)
    dxp = np.zeros(xp.shape)
    for u in range(k):
        for v in range(k):
            dxp[:, :, u : u + oh * stride : stride, v : v + ow * stride : stride] += (
                patches[:, :, :, :, u, v].transpose(0, 3, 1, 2))
    return dxp[:, :, pad : pad + h, pad : pad + wd], dw


def pool_oracle(x, window):
    bs, c, h, w = x.shape
    out = np.zeros((bs, c, h // window, w // window))
    for n in range(bs):
        for ch in range(c):
            for i in range(h // window):
                for j in range(w // window):
                    out[n, ch, i, j] = x[n, ch, i * window : (i + 1) * window, j * window : (j + 1) * window].mean()
    return out


def away_from_kinks(rng, shape, margin=0.1):
    """Random values with |x| kept clear of 0 so relu-family grads are stable."""
    x = rng.uniform(margin, 1.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


# stride-1 shapes for the shifted-GEMM path: rows wrapping across batch
# boundaries (b=3), k=1 unpadded, pad > k-1, a 1x1 output, a non-square input
SHIFTED_CASES = [
    ((3, 2, 5, 5), (4, 2, 3, 3), 1),
    ((2, 3, 5, 5), (4, 3, 1, 1), 0),
    ((2, 2, 5, 5), (3, 2, 3, 3), 3),
    ((2, 3, 3, 3), (4, 3, 3, 3), 0),
    ((2, 3, 9, 6), (4, 3, 3, 3), 1),
]

# stride-1 shapes that _correlate runs in several row blocks: 3266 output
# rows for the 3x3 kernels (a partial last block, block edges mid-row, one
# block across the batch boundary at row 1677) and 3034 for the 1x1 kernel
MULTI_BLOCK_CASES = [
    ((2, 2, 37, 41), (3, 2, 3, 3), 1),
    ((2, 2, 37, 41), (16, 2, 3, 3), 1),
    ((2, 3, 37, 41), (5, 3, 1, 1), 0),
]

# every conv the default TrainConfig runs (batch 4, crop 32), stage 1 and 2
DEFAULT_CONVS = [
    ((4, 3, 32, 32), (8, 3, 3, 3), 2, 1),
    ((4, 3, 32, 32), (16, 3, 3, 3), 2, 1),
    ((4, 8, 16, 16), (16, 8, 3, 3), 2, 1),
    ((4, 16, 8, 8), (1, 16, 3, 3), 1, 1),
    ((4, 16, 8, 8), (32, 16, 3, 3), 2, 1),
    ((4, 16, 16, 16), (16, 16, 3, 3), 1, 1),
    ((4, 16, 16, 16), (32, 16, 3, 3), 2, 1),
    ((4, 16, 32, 32), (3, 16, 3, 3), 1, 1),
    ((4, 16, 32, 32), (16, 16, 3, 3), 1, 1),
    ((4, 32, 8, 8), (32, 32, 3, 3), 1, 1),
    ((4, 32, 16, 16), (16, 32, 3, 3), 1, 1),
    ((4, 32, 16, 16), (32, 32, 3, 3), 1, 1),
    ((4, 64, 8, 8), (32, 64, 3, 3), 1, 1),
    ((4, 64, 8, 8), (64, 64, 3, 3), 1, 1),
    ((4, 16, 4, 4), (5, 16, 1, 1), 1, 0),
    ((4, 32, 4, 4), (5, 32, 1, 1), 1, 0),
    ((4, 32, 1, 1), (16, 32, 1, 1), 1, 0),
    ((4, 256, 1, 1), (32, 256, 1, 1), 1, 0),
    ((4, 1024, 1, 1), (32, 1024, 1, 1), 1, 0),
]

# 1x1 convs earlier revisions of the default TrainConfig ran, kept as oracle
# cases: LQM's batch-1 convs, and LAPM's per-patch convs from before it ran
# on the feature grid.  The parametrized lists below put the first after
# DEFAULT_CONVS and the second last, so the earlier cases keep their ids.
FORMER_LQM_CONVS = [
    ((1, 32, 1, 1), (16, 32, 1, 1), 1, 0),
    ((1, 256, 1, 1), (32, 256, 1, 1), 1, 0),
    ((1, 1024, 1, 1), (32, 1024, 1, 1), 1, 0),
]
FORMER_LAPM_CONVS = [
    ((64, 16, 1, 1), (5, 16, 1, 1), 1, 0),
    ((64, 32, 1, 1), (5, 32, 1, 1), 1, 0),
]


def stride1(convs):
    """(xshape, wshape, pad) of the stride-1 entries of a conv list."""
    return [(x, w, pad) for x, w, stride, pad in convs if stride == 1]


def correlate_rows(xshape, wshape, pad):
    """Output rows _correlate computes (wrapped ones included) for a stride-1 conv."""
    b, _, h, w = xshape
    k = wshape[2]
    hp, wp = h + 2 * pad, w + 2 * pad
    return b * hp * wp - (k - 1) * wp - (k - 1)


def correlate_per_tap(xp, wt, bias=None):
    """_correlate with one np.dot per tap: each row block of _CORRELATE_ROWS
    starts as tap (0, 0)'s product, every later tap's product is added in
    row-major tap order, then the bias."""
    b, hp, wp, c_in = xp.shape
    k, c_out = wt.shape[0], wt.shape[3]
    taps = [[t if t.itemsize in t.strides else np.ascontiguousarray(t) for t in row] for row in wt]
    flat = xp.reshape(-1, c_in)
    n = flat.shape[0] - (k - 1) * wp - (k - 1)
    acc = np.empty((b * hp * wp, c_out))
    prod = np.empty((min(n, ad._CORRELATE_ROWS), c_out))
    for s in range(0, n, ad._CORRELATE_ROWS):
        e = min(s + ad._CORRELATE_ROWS, n)
        block = acc[s:e]
        np.dot(flat[s:e], taps[0][0], out=block)
        for i in range(k):
            for j in range(k):
                if i or j:
                    np.dot(flat[s + i * wp + j : e + i * wp + j], taps[i][j], out=prod[: e - s])
                    block += prod[: e - s]
        if bias is not None:
            block += bias
    return acc.reshape(b, hp, wp, c_out)[:, : hp - k + 1, : wp - k + 1]


def weight_grad_per_tap(xp, gm, k):
    """_correlate_weight_grad with one _dot_rows reduction per tap."""
    b, hp, wp, c_in = xp.shape
    _, oh, ow, c_out = gm.shape
    grid = np.zeros((b, hp, wp, c_out))
    grid[:, :oh, :ow] = gm
    flat = xp.reshape(-1, c_in)
    n = flat.shape[0] - (k - 1) * wp - (k - 1)
    gflat = grid.reshape(-1, c_out)[:n]
    taps = [ad._dot_rows(gflat, flat[i * wp + j : i * wp + j + n]) for i in range(k) for j in range(k)]
    return np.stack(taps).reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1)


# The formulas leaky_relu, sigmoid and log_sigmoid used before they were
# rewritten without full-size temporaries, and upsample_nearest's np.repeat
# form: the ops must keep their bits (signed zeros, NaN positions) and their
# output memory layout.
def leaky_factor_oracle(x, slope):
    return np.where(x > 0.0, 1.0, slope)


def sigmoid_oracle(z):
    pos = z >= 0
    s = np.empty_like(z)
    s[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    s[~pos] = e / (1.0 + e)
    return s


def log_sigmoid_oracle(z):
    return np.where(z >= 0, -np.log1p(np.exp(-np.abs(z))), z - np.log1p(np.exp(-np.abs(z))))


def upsample_oracle(x, scale):
    return np.repeat(np.repeat(x, scale, axis=2), scale, axis=3)


SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -2.2e-308, 800.0, -800.0]


def special_inputs(seed, shape=(2, 4, 5, 6)):
    """The same values with ±0, ±inf, NaN, subnormals and exp-overflowing
    magnitudes planted, as an NCHW-contiguous array and as the channels-last
    view a conv output is."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    flat = x.reshape(-1)
    flat[rng.choice(flat.size, size=3 * len(SPECIAL_VALUES), replace=False)] = np.repeat(SPECIAL_VALUES, 3)
    return [x, np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)]


def assert_same_bits(got, want):
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_array_equal(got, want)
    finite = ~np.isnan(want)
    np.testing.assert_array_equal(np.signbit(got)[finite], np.signbit(want)[finite])


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_sum(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        w = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
        out = ad.conv2d(x, w)
        assert out.data.shape == (1, 1, 1, 1)
        assert out.data[0, 0, 0, 0] == 5.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=1, pad=1)
        np.testing.assert_allclose(out.data, conv_oracle(x, w, b, 1, 1), atol=1e-12)

    @pytest.mark.parametrize("stride,pad", [(1, 0), (2, 1), (2, 0), (1, 2)])
    def test_strides_and_pads_match_oracle(self, stride, pad):
        rng = np.random.default_rng(stride * 10 + pad)
        x = rng.normal(size=(2, 2, 7, 7))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        out = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, pad=pad)
        np.testing.assert_allclose(out.data, conv_oracle(x, w, b, stride, pad), atol=1e-12)

    @pytest.mark.parametrize("xshape,wshape,pad", SHIFTED_CASES + MULTI_BLOCK_CASES)
    def test_shifted_path_matches_oracle(self, xshape, wshape, pad):
        rng = np.random.default_rng(sum(xshape) + sum(wshape) + pad)
        x = rng.normal(size=xshape)
        w = rng.normal(size=wshape)
        b = rng.normal(size=wshape[0])
        for bias in (b, None):
            out = ad.conv2d(Tensor(x), Tensor(w), None if bias is None else Tensor(bias), pad=pad)
            np.testing.assert_allclose(out.data, conv_oracle(x, w, bias, 1, pad), atol=1e-12)

    def test_channels_last_view_input(self):
        # conv outputs are channels-last arrays viewed as (b, c, h, w)
        rng = np.random.default_rng(23)
        x = Tensor(rng.normal(size=(3, 6, 5, 2)).transpose(0, 3, 1, 2), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        b = rng.normal(size=4)
        tape = Tape()
        with tape:
            out = ad.conv2d(x, w, Tensor(b), pad=1)
            weights = Tensor(rng.normal(size=out.data.shape))
            loss = ad.sum_all(ad.mul(out, weights))
        ad.backward(loss, tape)
        np.testing.assert_allclose(out.data, conv_oracle(x.data, w.data, b, 1, 1), atol=1e-12)
        dx, dw = conv_backward_oracle(x.data, w.data, weights.data, 1, 1)
        np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-12 * np.abs(dx).max())
        np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12 * np.abs(dw).max())

    @pytest.mark.parametrize("stride", [1, 2])
    def test_output_is_compact_channels_last(self, stride):
        rng = np.random.default_rng(24)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)))
        w = Tensor(rng.normal(size=(4, 3, 3, 3)))
        for bias in (Tensor(rng.normal(size=4)), None):
            out = ad.conv2d(x, w, bias, stride=stride, pad=1)
            assert out.data.transpose(0, 2, 3, 1).flags.c_contiguous
            # the fusion and inject convs read a concat of two such outputs:
            # it is channels-last if either input is, and NCHW when both are
            nchw = Tensor(np.ascontiguousarray(out.data))
            pairs = ((out, ad.conv2d(x, w, bias, stride=stride, pad=1)), (out, nchw), (nchw, out), (nchw, nchw))
            for first, second in pairs:
                both = ad.concat_channels(first, second)
                if second is nchw and first is nchw:
                    assert both.data.flags.c_contiguous
                else:
                    assert both.data.transpose(0, 2, 3, 1).flags.c_contiguous
                np.testing.assert_array_equal(both.data, np.concatenate([first.data, second.data], axis=1))

    def test_stride1_never_builds_patch_rows(self, monkeypatch):
        def no_im2col(*args):
            raise AssertionError("stride-1 conv2d called _im2col")

        monkeypatch.setattr(ad, "_im2col", no_im2col)
        rng = np.random.default_rng(25)
        x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_all(ad.square(ad.conv2d(x, w, b, pad=1)))
        ad.backward(loss, tape)
        assert x.grad is not None and w.grad is not None and b.grad is not None

    def test_channel_mismatch_names_both_shapes(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ShapeError) as err:
            ad.conv2d(x, w)
        assert "(1, 3, 4, 4)" in str(err.value) and "(2, 4, 3, 3)" in str(err.value)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        xd = rng.normal(size=(2, 2, 5, 5))
        wd = rng.normal(size=(3, 2, 3, 3))
        bd = rng.normal(size=3)

        w = Tensor(wd)
        b = Tensor(bd)
        x = Tensor(xd)
        assert ad.check_gradients(lambda t: ad.sum_all(ad.conv2d(t, w, b, stride=2, pad=1)), x) < 1e-4
        assert ad.check_gradients(lambda t: ad.sum_all(ad.conv2d(x, t, b, stride=2, pad=1)), w) < 1e-4
        assert ad.check_gradients(lambda t: ad.sum_all(ad.conv2d(x, w, t, stride=2, pad=1)), b) < 1e-4

    def test_stride1_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.normal(size=(2, 2, 5, 5)))
        w = Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = Tensor(rng.normal(size=3))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.square(ad.conv2d(t, w, b, stride=1, pad=0))), x) < 1e-4
        assert ad.check_gradients(lambda t: ad.sum_all(ad.square(ad.conv2d(x, t, b, stride=1, pad=0))), w) < 1e-4

    @pytest.mark.parametrize("xshape,wshape,stride,pad", DEFAULT_CONVS + FORMER_LQM_CONVS + [
        # unpadded, over-padded, pad > k-1, non-square
        ((2, 3, 7, 7), (4, 3, 3, 3), 1, 0),
        ((2, 3, 7, 7), (4, 3, 3, 3), 1, 2),
        ((2, 3, 5, 5), (4, 3, 1, 1), 1, 1),
        ((2, 3, 9, 6), (4, 3, 3, 3), 1, 1),
        ((2, 3, 9, 6), (4, 3, 3, 3), 2, 1),
        # the shifted-path cases the list above does not already hold
        ((3, 2, 5, 5), (4, 2, 3, 3), 1, 1),
        ((2, 3, 5, 5), (4, 3, 1, 1), 1, 0),
        ((2, 2, 5, 5), (3, 2, 3, 3), 1, 3),
        ((2, 3, 3, 3), (4, 3, 3, 3), 1, 0),
    ] + [(x, w, 1, pad) for x, w, pad in MULTI_BLOCK_CASES] + FORMER_LAPM_CONVS)
    def test_backward_matches_scatter_oracle(self, xshape, wshape, stride, pad):
        rng = np.random.default_rng(sum(xshape) + sum(wshape) + stride + pad)
        x = Tensor(rng.normal(size=xshape), requires_grad=True)
        w = Tensor(rng.normal(size=wshape), requires_grad=True)
        tape = Tape()
        with tape:
            out = ad.conv2d(x, w, stride=stride, pad=pad)
            weights = Tensor(rng.normal(size=out.data.shape))
            loss = ad.sum_all(ad.mul(out, weights))
        ad.backward(loss, tape)
        dx, dw = conv_backward_oracle(x.data, w.data, weights.data, stride, pad)
        np.testing.assert_allclose(x.grad, dx, rtol=1e-12, atol=1e-12 * np.abs(dx).max())
        np.testing.assert_allclose(w.grad, dw, rtol=1e-12, atol=1e-12 * np.abs(dw).max())

    def test_multi_block_cases_cross_block_edges(self):
        rows = ad._CORRELATE_ROWS
        for xshape, wshape, pad in MULTI_BLOCK_CASES:
            n = correlate_rows(xshape, wshape, pad)
            wp = xshape[3] + 2 * pad
            batch_rows = (xshape[2] + 2 * pad) * wp
            assert n > rows and n % rows and rows % wp
            assert any(s < batch_rows < s + rows for s in range(rows, n, rows))

    @pytest.mark.parametrize("xshape,wshape,pad", stride1(DEFAULT_CONVS + FORMER_LQM_CONVS + FORMER_LAPM_CONVS))
    def test_row_blocks_change_no_bits_at_training_shapes(self, monkeypatch, xshape, wshape, pad):
        # forward and input gradient in blocks against one block of every row:
        # the same per-tap GEMMs in the same order, so the same bits
        rng = np.random.default_rng(sum(xshape) + sum(wshape) + pad)
        x, w = rng.normal(size=xshape), rng.normal(size=wshape)
        k = wshape[2]
        g = rng.normal(size=(xshape[0], wshape[0], xshape[2] + 2 * pad - k + 1, xshape[3] + 2 * pad - k + 1))
        runs = []
        for rows in (ad._CORRELATE_ROWS, correlate_rows(xshape, wshape, pad)):
            monkeypatch.setattr(ad, "_CORRELATE_ROWS", rows)
            xt = Tensor(x, requires_grad=True)
            tape = Tape()
            with tape:
                out = ad.conv2d(xt, Tensor(w), pad=pad)
                loss = ad.sum_all(ad.mul(out, Tensor(g)))
            ad.backward(loss, tape)
            runs.append((out.data, xt.grad))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("xshape,wshape,stride,pad", DEFAULT_CONVS + FORMER_LQM_CONVS
                             + [(x, w, 1, pad) for x, w, pad in MULTI_BLOCK_CASES] + FORMER_LAPM_CONVS)
    def test_output_bits_equal_compacted_sum_plus_bias(self, xshape, wshape, stride, pad):
        # the bias added per row block (or in place at stride 2) against adding
        # it to the whole compacted product afterwards
        rng = np.random.default_rng(sum(xshape) + sum(wshape) + 7 * stride + pad)
        x, w, b = rng.normal(size=xshape), rng.normal(size=wshape), rng.normal(size=wshape[0])
        k = wshape[2]
        if stride == 1:
            xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
            res = ad._correlate(xp, w.transpose(2, 3, 1, 0))
        else:
            res = ad._im2col(x, k, stride, pad) @ w.reshape(wshape[0], -1).T
        for bias, want in ((b, res + b), (None, np.ascontiguousarray(res))):
            out = ad.conv2d(Tensor(x), Tensor(w), None if bias is None else Tensor(bias), stride=stride, pad=pad)
            want = want.transpose(0, 3, 1, 2)
            np.testing.assert_array_equal(out.data, want)
            assert out.data.strides == want.strides

    @pytest.mark.parametrize("pad", [0, 1, 2, 7])
    def test_pad_borders_are_exact_zeros(self, pad):
        # a NaN-filled block of the padded size is freed first, so a border
        # the pad leaves unwritten shows as NaN in the reused memory
        rng = np.random.default_rng(40 + pad)
        x = np.ascontiguousarray(rng.normal(size=(2, 5, 4, 3)).transpose(0, 3, 1, 2))
        b, c, h, w = x.shape
        stale = np.full((b, h + 2 * pad, w + 2 * pad, c), np.nan)
        del stale
        xp = ad._pad_channels_last(x, pad)
        want = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (pad, pad), (pad, pad), (0, 0)))
        np.testing.assert_array_equal(xp, want)
        border = np.ones(xp.shape, dtype=bool)
        border[:, pad : pad + h, pad : pad + w] = False
        assert (xp[border] == 0.0).all() and not np.signbit(xp[border]).any()
        assert xp.flags.c_contiguous

    @pytest.mark.parametrize("xshape,wshape,pad", stride1(DEFAULT_CONVS + FORMER_LQM_CONVS) + MULTI_BLOCK_CASES
                             + stride1(FORMER_LAPM_CONVS))
    def test_untaped_and_frozen_weight_convs_keep_bits(self, xshape, wshape, pad):
        # a trainable weight under a tape keeps the padded copy; a frozen one
        # and a conv with no tape drop it, with the same output bits and
        # strides and the same input gradient
        rng = np.random.default_rng(sum(xshape) + sum(wshape) + 3 * pad)
        x, w, b = rng.normal(size=xshape), rng.normal(size=wshape), rng.normal(size=wshape[0])
        runs = []
        for weight_grad in (True, False):
            xt = Tensor(x, requires_grad=True)
            tape = Tape()
            with tape:
                out = ad.conv2d(xt, Tensor(w, requires_grad=weight_grad), Tensor(b), pad=pad)
                loss = ad.sum_all(ad.square(out))
            ad.backward(loss, tape)
            runs.append((out.data, xt.grad))
        untaped = ad.conv2d(Tensor(x), Tensor(w, requires_grad=True), Tensor(b), pad=pad).data
        for got in (runs[1][0], untaped):
            np.testing.assert_array_equal(got, runs[0][0])
            assert got.strides == runs[0][0].strides
        np.testing.assert_array_equal(runs[1][1], runs[0][1])

    @pytest.mark.parametrize("frozen_at_forward", [False, True])
    def test_freeze_toggled_between_forward_and_backward(self, frozen_at_forward):
        # the forward pass decides whether the weight gradient runs, at every
        # stride: a weight frozen afterwards gets none, and one unfrozen
        # afterwards gets none from this call either, since its padded copy
        # or patch rows are gone
        rng = np.random.default_rng(45)
        x, w = rng.normal(size=(2, 3, 9, 7)), rng.normal(size=(4, 3, 3, 3))
        for stride, out_hw in ((1, (9, 7)), (2, (5, 4))):
            xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=not frozen_at_forward)
            g = rng.normal(size=(2, 4, *out_hw))
            tape = Tape()
            with tape:
                loss = ad.sum_all(ad.mul(ad.conv2d(xt, wt, stride=stride, pad=1), Tensor(g)))
            wt.requires_grad = frozen_at_forward
            ad.backward(loss, tape)
            dx, _ = conv_backward_oracle(x, w, g, stride, 1)
            np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12 * np.abs(dx).max())
            assert wt.grad is None, f"stride {stride}"

    def test_untaped_conv_frees_padded_copy_before_compaction(self):
        # alive at the compaction: input, accumulator and output; the padded
        # input (a further 2.2 MB here) must be gone by then
        shape = (1, 16, 128, 128)
        wt = Tensor(np.random.default_rng(46).normal(size=(16, 16, 3, 3)), requires_grad=True)
        bias = Tensor(np.zeros(16), requires_grad=True)
        tracemalloc.start()
        try:
            x = Tensor(np.ones(shape))
            out = ad.conv2d(x, wt, bias, pad=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        accumulator = 8 * 130 * 130 * 16
        assert out.data.nbytes == x.data.nbytes == 8 * 16 * 128 * 128
        assert peak < x.data.nbytes + accumulator + out.data.nbytes + 512 * 1024


    @pytest.mark.parametrize("xshape,wshape,pad", stride1(DEFAULT_CONVS + FORMER_LQM_CONVS + FORMER_LAPM_CONVS)
                             + MULTI_BLOCK_CASES + [((1, 16, 128, 128), (16, 16, 3, 3), 1),
                                                    ((1, 16, 128, 128), (3, 16, 3, 3), 1)])
    def test_batched_taps_keep_per_tap_bits(self, xshape, wshape, pad):
        # forward, input gradient and weight gradient against one GEMM per tap
        rng = np.random.default_rng(sum(xshape) + sum(wshape) + 5 * pad)
        x, w, b = rng.normal(size=xshape), rng.normal(size=wshape), rng.normal(size=wshape[0])
        k = wshape[2]
        xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        tape = Tape()
        with tape:
            out = ad.conv2d(xt, wt, Tensor(b), pad=pad)
            g = rng.normal(size=out.data.shape)
            loss = ad.sum_all(ad.mul(out, Tensor(g)))
        ad.backward(loss, tape)
        xp = ad._pad_channels_last(x, pad)
        want = correlate_per_tap(xp, w.transpose(2, 3, 1, 0), b)
        wflip = w[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
        dx = correlate_per_tap(ad._pad_channels_last(g, k - 1 - pad), wflip).transpose(0, 3, 1, 2)
        np.testing.assert_array_equal(out.data, np.ascontiguousarray(want).transpose(0, 3, 1, 2))
        np.testing.assert_array_equal(xt.grad, dx)
        np.testing.assert_array_equal(wt.grad, weight_grad_per_tap(xp, g.transpose(0, 2, 3, 1), k))

    def test_tap_windows_is_a_read_only_view_in_bounds(self):
        xp = np.arange(2 * 6 * 5 * 3, dtype=float).reshape(2, 6, 5, 3)
        flat = xp.reshape(-1, 3)
        k, wp = 3, 5
        n = flat.shape[0] - (k - 1) * wp - (k - 1)
        win = ad._tap_windows(flat, k, wp, n)
        assert win.shape == (k, k, n, 3) and np.shares_memory(win, flat) and not win.flags.writeable
        for i in range(k):
            for j in range(k):
                np.testing.assert_array_equal(win[i, j], flat[i * wp + j : i * wp + j + n])
        assert win[k - 1, k - 1, n - 1].tobytes() == flat[-1].tobytes()

    def test_default_convs_are_the_default_step_convs(self, monkeypatch):
        # one stage-1 and one stage-2 step (LQM update included) at the
        # default TrainConfig run exactly the convs DEFAULT_CONVS lists
        from dataclasses import replace
        from lumiq.data import generate_pairs
        from lumiq.training import TrainConfig, pretrain_vqgan, train_enhancer

        seen = set()
        conv2d = ad.conv2d

        def recording(x, weight, bias=None, stride=1, pad=0):
            seen.add((x.data.shape, weight.data.shape, stride, pad))
            return conv2d(x, weight, bias, stride, pad)

        monkeypatch.setattr(ad, "conv2d", recording)
        pairs = generate_pairs(4, 32, seed=0)
        cfg = replace(TrainConfig(), stage1_iters=1, stage2_iters=1, lqm_warmup=0)
        stage1, _ = pretrain_vqgan([p.normal for p in pairs], cfg)
        train_enhancer(pairs, stage1, cfg)
        assert seen == set(DEFAULT_CONVS)


class TestAvgPool:
    def test_constant(self):
        out = ad.avg_pool2d(Tensor(np.full((1, 2, 4, 4), 7.0)), 2)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 7.0))

    def test_hand_mean(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ad.avg_pool2d(x, 2)
        assert out.data[0, 0, 0, 0] == 2.5

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 4, 8, 8))
        out = ad.avg_pool2d(Tensor(x), 4)
        np.testing.assert_allclose(out.data, pool_oracle(x, 4), atol=1e-12)

    def test_non_divisible_raises(self):
        with pytest.raises(ShapeError):
            ad.avg_pool2d(Tensor(np.zeros((1, 1, 5, 5))), 2)

    def test_gradients(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 2, 4, 4)))
        assert ad.check_gradients(lambda t: ad.mean_all(ad.avg_pool2d(t, 2)), x) < 1e-4


def channels(v):
    """A 1-d logit vector laid out along the channel axis of a (1, c, 1, 1) tensor."""
    return Tensor(np.asarray(v, dtype=np.float64).reshape(1, -1, 1, 1))


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax_channels(channels(np.zeros(3)))
        np.testing.assert_allclose(out.data.reshape(-1), np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_no_overflow(self):
        out = ad.softmax_channels(channels([1000.0, 0.0])).data.reshape(-1)
        assert np.all(np.isfinite(out))
        assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=5)
        ext = np.exp(logits.astype(np.longdouble))
        oracle = (ext / ext.sum()).astype(np.float64)
        out = ad.softmax_channels(channels(logits))
        np.testing.assert_allclose(out.data.reshape(-1), oracle, atol=1e-12)

    def test_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            logits = rng.normal(size=7) * 5.0
            a = ad.softmax_channels(channels(logits)).data
            b = ad.softmax_channels(channels(logits + 42.0)).data
            assert abs(a.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ad.softmax_channels(Tensor(np.zeros(0)))

    def test_gradients(self):
        rng = np.random.default_rng(12)
        x4 = Tensor(rng.normal(size=(2, 5, 3, 3)))
        coeff4 = Tensor(rng.normal(size=(2, 5, 3, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.softmax_channels(t), coeff4)), x4) < 1e-4

    def test_softmax_channels_sums_to_one(self):
        rng = np.random.default_rng(13)
        out = ad.softmax_channels(Tensor(rng.normal(size=(2, 5, 4, 4)) * 10.0))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones((2, 4, 4)), atol=1e-12)


class TestStopGradient:
    def test_forward_bit_identical(self):
        rng = np.random.default_rng(14)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        y = ad.stop_gradient(x)
        np.testing.assert_array_equal(y.data, x.data)

    def test_one_sided_product(self):
        rng = np.random.default_rng(15)
        x = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.stop_gradient(x)
            loss = ad.sum_all(ad.mul(y, x))
        ad.backward(loss, tape)
        np.testing.assert_allclose(x.grad, y.data, atol=1e-15)

    def test_fully_blocked(self):
        x = Tensor(np.arange(8.0).reshape(1, 2, 2, 2), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_all(ad.stop_gradient(x))
        ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad_array(), np.zeros_like(x.data))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.arange(12.0).reshape(1, 3, 2, 2), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_all(x)
        ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.ones_like(x.data))

    def test_quadratic(self):
        rng = np.random.default_rng(16)
        x = Tensor(rng.normal(size=(2, 1, 3, 3)), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_all(ad.mul(x, x))
        ad.backward(loss, tape)
        np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-12)

    def test_composite_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        w = Tensor(rng.normal(size=(2, 2, 3, 3)))
        b = Tensor(rng.normal(size=2))
        target = Tensor(rng.normal(size=(1, 2, 2, 2)))
        x = Tensor(away_from_kinks(rng, (1, 2, 4, 4)))

        def fn(t):
            h = ad.relu(ad.conv2d(t, w, b, stride=1, pad=1))
            p = ad.avg_pool2d(h, 2)
            return ad.mean_all(ad.absolute(ad.sub(p, target)))

        assert ad.check_gradients(fn, x, eps=1e-5) < 1e-4

    def test_non_scalar_loss_raises(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.mul(x, x)
        with pytest.raises(ValueError):
            ad.backward(y, tape)

    def test_off_path_leaf_gets_zero(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        y = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = Tape()
        with tape:
            _ = ad.mul(y, y)  # recorded but unused by the loss
            loss = ad.sum_all(x)
        ad.backward(loss, tape)
        assert y.grad is None
        np.testing.assert_array_equal(y.grad_array(), np.zeros_like(y.data))

    def test_grad_accumulates_on_reuse(self):
        x = Tensor(np.full((1, 1, 2, 2), 3.0), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_all(ad.add(x, x))
        ad.backward(loss, tape)
        np.testing.assert_array_equal(x.grad, np.full_like(x.data, 2.0))

    def test_shared_gradient_is_copied_per_input(self):
        # add hands the same output gradient to both inputs; each needs its own slot
        a = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        b = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = Tape()
        with tape:
            loss = ad.sum_all(ad.add(a, b))
        ad.backward(loss, tape)
        assert not np.shares_memory(a.grad, b.grad)
        a.grad += 1.0
        np.testing.assert_array_equal(b.grad, np.ones_like(b.data))

    def test_gradient_slot_keeps_data_layout(self):
        # conv2d outputs are transposed views; their grads must round like them
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 3, 3, 3)), requires_grad=True)
        tape = Tape()
        with tape:
            y = ad.conv2d(x, w, pad=1)
            loss = ad.sum_all(ad.square(y))
        ad.backward(loss, tape)
        assert not y.data.flags.c_contiguous
        assert y.grad.strides == y.data.strides
        np.testing.assert_allclose(y.grad, 2.0 * y.data, atol=1e-12)


class TestCheckGradients:
    def test_linear_nearly_exact(self):
        rng = np.random.default_rng(18)
        coeff = Tensor(rng.normal(size=(1, 2, 3, 3)))
        x = Tensor(rng.normal(size=(1, 2, 3, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(t, coeff)), x) < 1e-9

    def test_quadratic(self):
        rng = np.random.default_rng(19)
        x = Tensor(rng.normal(size=(1, 1, 3, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(t, t)), x) < 1e-6

    @pytest.mark.parametrize("slope", [1.5, -0.3])
    def test_leaky_relu_steep_and_negative_slopes(self, slope):
        rng = np.random.default_rng(20)
        x = Tensor(away_from_kinks(rng, (1, 2, 3, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.square(ad.leaky_relu(t, slope))), x) < 1e-4


class TestElementwiseOps:
    """Every plumbing op passes a finite-difference check."""

    @pytest.mark.parametrize("seed", range(3))
    def test_binary_ops_with_broadcasting(self, seed):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(2, 3, 4, 4)))
        b = Tensor(rng.uniform(0.5, 2.0, size=(1, 3, 1, 1)))
        for op in (ad.add, ad.sub, ad.mul, ad.div):
            assert ad.check_gradients(lambda t: ad.sum_all(op(t, b)), a) < 1e-4
            assert ad.check_gradients(lambda t: ad.sum_all(op(a, t)), b) < 1e-4

    def test_broadcast_mismatch_raises(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 2, 4, 4))))

    @pytest.mark.parametrize("seed", range(3))
    def test_unary_ops(self, seed):
        rng = np.random.default_rng(100 + seed)
        x = Tensor(away_from_kinks(rng, (2, 2, 3, 3)))
        pos = Tensor(rng.uniform(0.2, 2.0, size=(2, 2, 3, 3)))
        checks = [
            (lambda t: ad.sum_all(ad.relu(t)), x),
            (lambda t: ad.sum_all(ad.leaky_relu(t, 0.2)), x),
            (lambda t: ad.sum_all(ad.sigmoid(t)), x),
            (lambda t: ad.sum_all(ad.log_sigmoid(t)), x),
            (lambda t: ad.sum_all(ad.square(t)), x),
            (lambda t: ad.sum_all(ad.absolute(t)), x),
            (lambda t: ad.sum_all(ad.sqrt(t)), pos),
            (lambda t: ad.mean_all(t), x),
        ]
        for fn, arg in checks:
            assert ad.check_gradients(fn, arg) < 1e-4

    def test_leaky_relu_negative_branch(self):
        x = Tensor(np.array([-2.0, 3.0]).reshape(1, 1, 1, 2))
        out = ad.leaky_relu(x, 0.2)
        np.testing.assert_allclose(out.data.reshape(-1), [-0.4, 3.0], atol=1e-15)

    @pytest.mark.parametrize("slope", [np.nan, np.inf, -np.inf])
    def test_leaky_relu_rejects_non_finite_slope(self, slope):
        with pytest.raises(ValueError, match=f"slope must be finite, got {slope}"):
            ad.leaky_relu(Tensor(np.ones((1, 1, 2, 2))), slope)

    def test_concat_slice_reshape_upsample(self):
        rng = np.random.default_rng(21)
        a = Tensor(rng.normal(size=(2, 2, 3, 3)))
        b = Tensor(rng.normal(size=(2, 3, 3, 3)))
        coeff = Tensor(rng.normal(size=(2, 5, 3, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.concat_channels(t, b), coeff)), a) < 1e-4
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.concat_channels(a, t), coeff)), b) < 1e-4
        c5 = Tensor(rng.normal(size=(2, 5, 2, 2)))
        co = Tensor(rng.normal(size=(2, 2, 2, 2)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.slice_channels(t, 1, 3), co)), c5) < 1e-4
        x = Tensor(rng.normal(size=(1, 4, 2, 2)))
        cr = Tensor(rng.normal(size=(4, 4, 1, 1)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.reshape(t, (4, 4, 1, 1)), cr)), x) < 1e-4
        u = Tensor(rng.normal(size=(1, 2, 2, 2)))
        cu = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.upsample_nearest(t, 2), cu)), u) < 1e-4

    def test_upsample_forward(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2))
        out = ad.upsample_nearest(x, 2)
        expected = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], dtype=np.float64
        ).reshape(1, 1, 4, 4)
        np.testing.assert_array_equal(out.data, expected)

    def test_gram_and_mix_rows_gradients(self):
        rng = np.random.default_rng(22)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)))
        cg = Tensor(rng.normal(size=(2, 1, 3, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.gram(t), cg)), x) < 1e-4
        w = Tensor(rng.normal(size=(4, 3, 1, 1)))
        rows = Tensor(rng.normal(size=(3, 5)))
        cm = Tensor(rng.normal(size=(4, 5, 1, 1)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.mix_rows(t, rows), cm)), w) < 1e-4
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.mix_rows(w, t), cm)), rows) < 1e-4

    def test_mix_rows_grid_gradients(self):
        # weights on a 2x3 grid over a batch of 2: each cell and image gets its own row mix
        rng = np.random.default_rng(23)
        w = Tensor(rng.uniform(0.1, 1.0, size=(2, 3, 2, 3)))
        rows = Tensor(rng.normal(size=(3, 4)))
        cm = Tensor(rng.normal(size=(2, 4, 2, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.mix_rows(t, rows), cm)), w) < 1e-4
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.mix_rows(w, t), cm)), rows) < 1e-4


class TestSameBitsAsPreviousFormulas:
    """Outputs and gradients equal the previous formulas bit for bit, with the
    same strides, on inputs holding ±0, ±inf, NaN and subnormals."""

    @staticmethod
    def run_op(op, x):
        """Output array and grad_fn of one taped op on x."""
        tape = Tape()
        with tape:
            out = op(Tensor(x, requires_grad=True))
        return out.data, tape._records[-1][2]

    @pytest.mark.parametrize("slope", [0.0, 0.2, 1.0, 1.5, -0.3])
    def test_leaky_relu(self, slope):
        with np.errstate(invalid="ignore"):
            for x in special_inputs(30):
                factor = leaky_factor_oracle(x, slope)
                out, grad_fn = self.run_op(lambda t: ad.leaky_relu(t, slope), x)
                assert_same_bits(out, x * factor)
                assert out.strides == (x * factor).strides
                for g in special_inputs(31):
                    (dx,) = grad_fn(g)
                    assert_same_bits(dx, g * factor)
                    assert dx.strides == (g * factor).strides

    def test_sigmoid_and_log_sigmoid(self):
        with np.errstate(invalid="ignore", over="ignore"):
            for z in special_inputs(32):
                s = sigmoid_oracle(z)
                cases = ((ad.sigmoid, s, lambda g: g * s * (1.0 - s)),
                         (ad.log_sigmoid, log_sigmoid_oracle(z), lambda g: g * (1.0 - s)))
                for op, want, grad_oracle in cases:
                    out, grad_fn = self.run_op(op, z)
                    assert_same_bits(out, want)
                    assert out.strides == want.strides
                    for g in special_inputs(33):
                        (dz,) = grad_fn(g)
                        assert_same_bits(dz, grad_oracle(g))

    @pytest.mark.parametrize("scale", [1, 2, 3])
    def test_upsample_nearest(self, scale):
        # pins the C-ordered output: laid out channels-last, the gradient it
        # receives sums in another order and training checkpoints move
        for x in special_inputs(34):
            out = ad.upsample_nearest(Tensor(x), scale).data
            want = upsample_oracle(x, scale)
            assert_same_bits(out, want)
            assert out.strides == want.strides

    def test_slice_channels_is_a_view_with_the_copy_bits(self):
        for x in special_inputs(35):
            out = ad.slice_channels(Tensor(x), 1, 3).data
            assert_same_bits(out, x[:, 1:3].copy())
            assert np.shares_memory(out, x) and out.strides == x.strides


class TestDeterminism:
    def test_forward_ops_bit_identical(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(2, 3, 8, 8))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        r1 = ad.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=2, pad=1).data
        r2 = ad.conv2d(Tensor(x.copy()), Tensor(w.copy()), Tensor(b.copy()), stride=2, pad=1).data
        np.testing.assert_array_equal(r1, r2)

    @staticmethod
    def digests_by_blas_threads(script):
        """Stdout of script run in a subprocess at one and at two BLAS threads."""
        src = os.path.dirname(os.path.dirname(ad.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        return digests

    def test_conv_weight_grad_independent_of_blas_threads(self):
        # weight-gradient reductions of 1258 (stride 1) and 900 (stride 2) rows,
        # lengths that multi-threaded OpenBLAS blocks differently from one thread
        script = (
            "import hashlib, numpy as np\n"
            "from lumiq import autodiff as ad\n"
            "rng = np.random.default_rng(5)\n"
            "for xs, ws, stride in [((4, 32, 16, 16), (32, 32, 3, 3), 1), ((4, 8, 30, 30), (16, 8, 3, 3), 2)]:\n"
            "    x = ad.Tensor(rng.normal(size=xs))\n"
            "    w = ad.Tensor(rng.normal(size=ws), requires_grad=True)\n"
            "    tape = ad.Tape()\n"
            "    with tape:\n"
            "        loss = ad.sum_all(ad.square(ad.conv2d(x, w, stride=stride, pad=1)))\n"
            "    ad.backward(loss, tape)\n"
            "    print(hashlib.sha256(w.grad.tobytes()).hexdigest())\n"
        )
        digests = self.digests_by_blas_threads(script)
        assert digests[0] == digests[1]

    def test_conv_forward_and_input_grad_independent_of_blas_threads(self):
        # a stride-1 conv of 3266 output rows, run in several row blocks
        script = (
            "import hashlib, numpy as np\n"
            "from lumiq import autodiff as ad\n"
            "rng = np.random.default_rng(6)\n"
            "x = ad.Tensor(rng.normal(size=(2, 16, 37, 41)), requires_grad=True)\n"
            "w = ad.Tensor(rng.normal(size=(16, 16, 3, 3)))\n"
            "tape = ad.Tape()\n"
            "with tape:\n"
            "    out = ad.conv2d(x, w, pad=1)\n"
            "    loss = ad.sum_all(ad.square(out))\n"
            "ad.backward(loss, tape)\n"
            "print(hashlib.sha256(out.data.tobytes()).hexdigest())\n"
            "print(hashlib.sha256(x.grad.tobytes()).hexdigest())\n"
        )
        digests = self.digests_by_blas_threads(script)
        assert digests[0] == digests[1]

    def test_no_recording_without_tape(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        tape = Tape()
        with tape:
            ad.sum_all(x)
        n = len(tape)
        ad.sum_all(x)  # outside any tape
        assert len(tape) == n
