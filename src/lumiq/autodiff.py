"""Reverse-mode automatic differentiation on dense float64 numpy arrays.

A Tensor wraps an ndarray plus an optional gradient slot.  Operations are
plain module functions; while a Tape is active they append records that
backward() later replays in reverse.  With no active tape every call is a
pure forward evaluation, which is how inference and the numeric side of
check_gradients run.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


_TAPE_STACK: list["Tape"] = []


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def grad_array(self) -> np.ndarray:
        """Gradient as an array, zeros if nothing reached this tensor."""
        if self.grad is None:
            return np.zeros_like(self.data)
        return self.grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of executed ops for one forward pass."""

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self):
        _TAPE_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _TAPE_STACK.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._records)


def record(out: Tensor, inputs: tuple[Tensor, ...], grad_fn) -> None:
    """Append one op record to the active tape, if recording applies.

    grad_fn maps the output gradient to a tuple of per-input gradients
    (None for inputs that need none).  Exposed so sibling modules can
    define primitives with custom backward rules.
    """
    if _TAPE_STACK and out.requires_grad:
        _TAPE_STACK[-1]._records.append((out, inputs, grad_fn))


def _result(data, inputs) -> Tensor:
    needs = any(t.requires_grad for t in inputs if t is not None)
    return Tensor(data, requires_grad=needs)


def _accumulate(t: Tensor, dg: np.ndarray) -> None:
    """Add dg into t's grad, allocating it on the first write with t.data's
    memory layout (later products and reductions over it round by layout)."""
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        t.grad[...] = dg
    else:
        t.grad += dg


def backward(loss: Tensor, tape: Tape) -> None:
    """Replay the tape in reverse, accumulating gradients additively.

    A tensor gets a grad array on the first gradient written to it; one
    that no gradient reaches keeps grad None (grad_array reads it as zeros).
    """
    if loss.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    _accumulate(loss, np.ones_like(loss.data))
    for out, inputs, grad_fn in reversed(tape._records):
        if out.grad is None:
            continue
        for t, dg in zip(inputs, grad_fn(out.grad)):
            if t is not None and dg is not None and t.requires_grad:
                _accumulate(t, dg)


def zero_grads(tensors) -> None:
    for t in tensors:
        t.grad = None


# ---------------------------------------------------------------------------
# elementwise arithmetic with broadcasting


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to the given operand shape (inverse of broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    try:
        np.broadcast_shapes(a.data.shape, b.data.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} do not broadcast")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "add")
    out = _result(a.data + b.data, (a, b))
    record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "sub")
    out = _result(a.data - b.data, (a, b))
    record(out, (a, b), lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)))
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "mul")
    out = _result(a.data * b.data, (a, b))

    def grad_fn(g):
        ga = _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None
        return ga, gb

    record(out, (a, b), grad_fn)
    return out


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b, "div")
    out = _result(a.data / b.data, (a, b))

    def grad_fn(g):
        ga = _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None
        gb = _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape) if b.requires_grad else None
        return ga, gb

    record(out, (a, b), grad_fn)
    return out


# ---------------------------------------------------------------------------
# elementwise nonlinearities


def relu(x: Tensor) -> Tensor:
    out = _result(np.maximum(x.data, 0.0), (x,))
    mask = x.data > 0.0
    record(out, (x,), lambda g: (g * mask,))
    return out


def _leaky_factor(keep: np.ndarray, slope: float) -> np.ndarray:
    """where(keep, 1.0, slope), bit for bit, in keep's memory layout.

    Picks between the two float64 bit patterns with integer arithmetic:
    np.where branches per element, which an unpredictable sign pattern
    mispredicts about half the time (4x slower on random signs at
    256x256x16).
    """
    one, low = np.float64(1.0).view(np.uint64), np.float64(slope).view(np.uint64)
    bits = np.multiply(keep, one ^ low, dtype=np.uint64)
    bits ^= low
    return bits.view(np.float64)


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    if not np.isfinite(slope):
        raise ValueError(f"leaky_relu: slope must be finite, got {slope}")
    keep = x.data > 0.0
    y = _leaky_factor(keep, slope)
    y *= x.data  # the same products as x * factor, in the factor's buffer
    out = _result(y, (x,))
    # the tape keeps the 1-byte mask and rebuilds the factor from it
    record(out, (x,), lambda g: (g * _leaky_factor(keep, slope),))
    return out


def sigmoid(x: Tensor) -> Tensor:
    s = _stable_sigmoid(x.data)
    out = _result(s, (x,))
    record(out, (x,), lambda g: (g * s * (1.0 - s),))
    return out


def _stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """1/(1+exp(-z)) for z >= 0 and exp(z)/(1+exp(z)) below, never overflowing.

    The numerator exp(min(z, 0)) is exactly 1 on the upper branch, so both
    branches come out of one expression with no per-element branch.
    """
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def log_sigmoid(x: Tensor) -> Tensor:
    # log(sigmoid(z)) = -softplus(-z), computed without overflow
    z = x.data
    soft = np.log1p(np.exp(-np.abs(z)))
    val = np.where(z >= 0, -soft, z - soft)
    out = _result(val, (x,))
    s = _stable_sigmoid(z)
    record(out, (x,), lambda g: (g * (1.0 - s),))
    return out


def square(x: Tensor) -> Tensor:
    out = _result(x.data * x.data, (x,))
    record(out, (x,), lambda g: (g * 2.0 * x.data,))
    return out


def sqrt(x: Tensor) -> Tensor:
    r = np.sqrt(x.data)
    out = _result(r, (x,))
    record(out, (x,), lambda g: (g * 0.5 / r,))
    return out


def absolute(x: Tensor) -> Tensor:
    out = _result(np.abs(x.data), (x,))
    sign = np.sign(x.data)
    record(out, (x,), lambda g: (g * sign,))
    return out


# ---------------------------------------------------------------------------
# reductions and shape plumbing


def sum_all(x: Tensor) -> Tensor:
    out = _result(np.asarray(x.data.sum()), (x,))
    record(out, (x,), lambda g: (np.broadcast_to(g, x.data.shape).copy(),))
    return out


def mean_all(x: Tensor) -> Tensor:
    n = x.data.size
    out = _result(np.asarray(x.data.mean()), (x,))
    record(out, (x,), lambda g: (np.broadcast_to(g / n, x.data.shape).copy(),))
    return out


def reshape(x: Tensor, shape) -> Tensor:
    out = _result(x.data.reshape(shape), (x,))
    record(out, (x,), lambda g: (g.reshape(x.data.shape),))
    return out


def stop_gradient(x: Tensor) -> Tensor:
    """Forward identity that blocks gradient flow."""
    return Tensor(x.data.copy())


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise ShapeError(f"concat_channels needs 4-d inputs, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[0] != b.data.shape[0] or a.data.shape[2:] != b.data.shape[2:]:
        raise ShapeError(f"concat_channels: shapes {a.data.shape} and {b.data.shape} disagree off-channel")
    ca = a.data.shape[1]
    out = _result(np.concatenate([a.data, b.data], axis=1), (a, b))
    record(out, (a, b), lambda g: (g[:, :ca].copy(), g[:, ca:].copy()))
    return out


def slice_channels(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"slice_channels needs a 4-d input, got {x.data.shape}")
    if not (0 <= start < stop <= x.data.shape[1]):
        raise ValueError(f"slice_channels: bad range [{start}:{stop}] for {x.data.shape[1]} channels")
    out = _result(x.data[:, start:stop], (x,))

    def grad_fn(g):
        dx = np.zeros_like(x.data)
        dx[:, start:stop] = g
        return (dx,)

    record(out, (x,), grad_fn)
    return out


# ---------------------------------------------------------------------------
# softmax


def softmax_channels(x: Tensor) -> Tensor:
    """Softmax along the channel axis of a (b, c, h, w) tensor."""
    if x.data.ndim != 4:
        raise ShapeError(f"softmax_channels needs a 4-d input, got {x.data.shape}")
    shifted = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=1, keepdims=True)
    out = _result(s, (x,))
    record(out, (x,), lambda g: (s * (g - (g * s).sum(axis=1, keepdims=True)),))
    return out


# ---------------------------------------------------------------------------
# spatial ops


def _pad_channels_last(x: np.ndarray, pad: int) -> np.ndarray:
    """(b, c, h, w) -> (b, h+2*pad, w+2*pad, c) zero-padded copy.

    Channels-last: conv outputs already live in that memory order, so the
    copy streams instead of transposing.
    """
    b, c, h, w = x.shape
    xp = np.empty((b, h + 2 * pad, w + 2 * pad, c))
    # zero only the border: the interior is written once, by the copy
    xp[:, :pad] = 0.0
    xp[:, pad + h :] = 0.0
    xp[:, pad : pad + h, :pad] = 0.0
    xp[:, pad : pad + h, pad + w :] = 0.0
    xp[:, pad : pad + h, pad : pad + w] = x.transpose(0, 2, 3, 1)
    return xp


# Output rows _correlate runs through all k*k taps before the next block.
# A whole-image tap would stream a full-size product and the accumulator
# through memory once per tap; a block's product and accumulator stay in
# cache.  Every output element sums the same per-tap products in the same
# tap order, so only a BLAS kernel chosen by row count can move its bits
# (OpenBLAS takes another one for (M, 16) @ (16, 3) at M of about 30000).
_CORRELATE_ROWS = 512


def _correlate(xp: np.ndarray, wt: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Stride-1 cross-correlation of a padded channels-last buffer.

    xp (b, hp, wp, c_in), taps wt (k, k, c_in, c_out), bias (c_out,) or None
    -> (b, oh, ow, c_out) view.  Over the buffer's flat rows, tap (i, j) is
    one GEMM against the rows shifted by i*wp + j, run in blocks of
    _CORRELATE_ROWS output rows; the bias joins each block after its last
    tap, while the block is still in cache.  Rows that wrap past a row or
    batch end are computed and dropped.
    """
    b, hp, wp, c_in = xp.shape
    k, c_out = wt.shape[0], wt.shape[3]
    # np.dot copies a tap with no unit stride to C order on every call: copy
    # each once.  A tap with one stays as it is, since its memory order picks
    # the GEMM kernel and with it the bits.
    taps = [[t if t.itemsize in t.strides else np.ascontiguousarray(t) for t in row] for row in wt]
    flat = xp.reshape(-1, c_in)
    n = flat.shape[0] - (k - 1) * wp - (k - 1)
    acc = np.empty((b * hp * wp, c_out))
    scratch = np.empty((min(n, _CORRELATE_ROWS), c_out))
    # the bias tiled to block rows: one flat add per block, where a broadcast
    # (c_out,) add runs one short inner loop per row
    bias_rows = None if bias is None else np.tile(bias, (len(scratch), 1))
    for s in range(0, n, _CORRELATE_ROWS):
        e = min(s + _CORRELATE_ROWS, n)
        block, prod = acc[s:e], scratch[: e - s]
        np.dot(flat[s:e], taps[0][0], out=block)
        for i in range(k):
            for j in range(k):
                if i or j:
                    off = i * wp + j
                    np.dot(flat[s + off : e + off], taps[i][j], out=prod)
                    block += prod
        if bias is not None:
            block += bias_rows[: e - s]
    return acc.reshape(b, hp, wp, c_out)[:, : hp - k + 1, : wp - k + 1]


# Longest reduction one BLAS call may sum.  OpenBLAS splits a longer one
# into blocks that depend on its thread count, which would make a weight
# gradient (a sum over every output position) differ between thread counts;
# a call of at most 256 is summed in one block at any count.
_REDUCE_ROWS = 256


def _dot_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a.T @ b for a (n, p), b (n, q): blocks of _REDUCE_ROWS rows, summed in order."""
    # np.dot, not @: matmul takes a slow non-BLAS loop for a single row
    out = np.dot(a[:_REDUCE_ROWS].T, b[:_REDUCE_ROWS])
    for s in range(_REDUCE_ROWS, a.shape[0], _REDUCE_ROWS):
        out += np.dot(a[s : s + _REDUCE_ROWS].T, b[s : s + _REDUCE_ROWS])
    return out


def _correlate_weight_grad(xp: np.ndarray, gm: np.ndarray, k: int) -> np.ndarray:
    """Weight gradient (c_out, c_in, k, k) of _correlate(xp, .) for output grad gm (b, oh, ow, c_out).

    gm is laid on the zeroed padded grid so each tap is one GEMM against
    the same shifted rows as the forward pass; wrapped rows meet zeros.
    """
    b, hp, wp, c_in = xp.shape
    _, oh, ow, c_out = gm.shape
    grid = np.zeros((b, hp, wp, c_out))
    grid[:, :oh, :ow] = gm
    flat = xp.reshape(-1, c_in)
    n = flat.shape[0] - (k - 1) * wp - (k - 1)
    gflat = grid.reshape(-1, c_out)[:n]
    taps = [_dot_rows(gflat, flat[i * wp + j : i * wp + j + n]) for i in range(k) for j in range(k)]
    return np.stack(taps).reshape(k, k, c_out, c_in).transpose(2, 3, 0, 1)


def _im2col(x: np.ndarray, k: int, stride: int, pad: int) -> np.ndarray:
    """(b, c, h, w) -> (b, oh, ow, c*k*k) patch rows, zero-padded by pad."""
    windows = sliding_window_view(_pad_channels_last(x, pad), (k, k), axis=(1, 2))[:, ::stride, ::stride]
    return windows.reshape(*windows.shape[:3], x.shape[1] * k * k)


def _col2im(cols: np.ndarray, xshape, k: int, stride: int, pad: int) -> np.ndarray:
    b, c, h, w = xshape
    oh, ow = cols.shape[1], cols.shape[2]
    patches = cols.reshape(b, oh, ow, c, k, k)
    padded = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    for i in range(k):
        for j in range(k):
            padded[:, :, i : i + oh * stride : stride, j : j + ow * stride : stride] += (
                patches[:, :, :, :, i, j].transpose(0, 3, 1, 2)
            )
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, pad: int = 0) -> Tensor:
    """2-d cross-correlation with zero padding.

    x (b, c_in, h, w), weight (c_out, c_in, k, k), bias (c_out,) or None.
    Stride 1 runs k*k shifted GEMMs over one padded channels-last copy of
    x (forward, input gradient and weight gradient); larger strides use
    im2col patch rows.  The output is a channels-last array viewed as
    (b, c_out, oh, ow).  Only the weight gradient reads the padded copy: it
    is kept only if a tape is recording and the weight requires a gradient
    at forward time, so a weight unfrozen before backward gets none here.
    """
    if x.data.ndim != 4 or weight.data.ndim != 4:
        raise ShapeError(f"conv2d needs 4-d input and kernel, got {x.data.shape} and {weight.data.shape}")
    b, c_in, h, w = x.data.shape
    c_out, kc, k, k2 = weight.data.shape
    if kc != c_in:
        raise ShapeError(f"conv2d: kernel expects {kc} channels, input has {c_in} (input {x.data.shape}, kernel {weight.data.shape})")
    if k != k2:
        raise ShapeError(f"conv2d: kernel must be square, got {weight.data.shape}")
    if h + 2 * pad < k or w + 2 * pad < k:
        raise ShapeError(f"conv2d: kernel {k}x{k} exceeds padded input {h + 2 * pad}x{w + 2 * pad}")
    if stride == 1:
        xp = _pad_channels_last(x.data, pad)
        res = _correlate(xp, weight.data.transpose(2, 3, 1, 0), None if bias is None else bias.data)
        if not (_TAPE_STACK and weight.requires_grad):
            xp = None  # freed before the compaction below allocates the output
        res = np.ascontiguousarray(res)  # drops the wrapped rows
    else:
        cols = _im2col(x.data, k, stride, pad)
        wmat = weight.data.reshape(c_out, c_in * k * k)
        res = cols @ wmat.T
        if bias is not None:
            res += bias.data
    oh, ow = res.shape[1], res.shape[2]  # res: compact (b, oh, ow, c_out)
    inputs = (x, weight, bias) if bias is not None else (x, weight)
    out = _result(res.transpose(0, 3, 1, 2), inputs)

    def grad_fn(g):
        gm = g.transpose(0, 2, 3, 1)  # (b, oh, ow, c_out)
        dx = dw = db = None
        if stride == 1:
            if x.requires_grad:
                # transposed convolution: the output gradient, padded by k-1-pad
                # (cropped when pad > k-1), correlated with the flipped kernel
                edge = k - 1 - pad
                if edge < 0:
                    g, edge = g[:, :, -edge : oh + edge, -edge : ow + edge], 0
                wflip = weight.data[:, :, ::-1, ::-1].transpose(2, 3, 0, 1)
                dx = _correlate(_pad_channels_last(g, edge), wflip).transpose(0, 3, 1, 2)
            if xp is not None and weight.requires_grad:
                dw = _correlate_weight_grad(xp, gm, k)
        else:
            if x.requires_grad:
                dx = _col2im(gm @ wmat, x.data.shape, k, stride, pad)
            if weight.requires_grad:
                dw = _dot_rows(gm.reshape(-1, c_out), cols.reshape(-1, c_in * k * k)).reshape(weight.data.shape)
        if bias is not None and bias.requires_grad:
            db = gm.sum(axis=(0, 1, 2))
        return (dx, dw, db) if bias is not None else (dx, dw)

    record(out, inputs, grad_fn)
    return out


def avg_pool2d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping mean pooling; spatial dims must divide by window."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool2d needs a 4-d input, got {x.data.shape}")
    b, c, h, w = x.data.shape
    if h % window or w % window:
        raise ShapeError(f"avg_pool2d: window {window} does not divide spatial dims of {x.data.shape}")
    oh, ow = h // window, w // window
    out_data = x.data.reshape(b, c, oh, window, ow, window).mean(axis=(3, 5))
    out = _result(out_data, (x,))
    inv = 1.0 / (window * window)

    def grad_fn(g):
        dx = np.repeat(np.repeat(g * inv, window, axis=2), window, axis=3)
        return (dx,)

    record(out, (x,), grad_fn)
    return out


def upsample_nearest(x: Tensor, scale: int) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest needs a 4-d input, got {x.data.shape}")
    out = _result(np.repeat(np.repeat(x.data, scale, axis=2), scale, axis=3), (x,))
    b, c, h, w = x.data.shape

    def grad_fn(g):
        return (g.reshape(b, c, h, scale, w, scale).sum(axis=(3, 5)),)

    record(out, (x,), grad_fn)
    return out


# ---------------------------------------------------------------------------
# structured products


def gram(x: Tensor) -> Tensor:
    """Channel co-activation matrix: (b, c, h, w) -> (b, 1, c, c).

    Entry [i, j] is the dot product of channel maps i and j over all
    spatial positions.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"gram needs a 4-d input, got {x.data.shape}")
    b, c, h, w = x.data.shape
    flat = x.data.reshape(b, c, h * w)
    gmat = flat @ flat.transpose(0, 2, 1)
    out = _result(gmat[:, None, :, :], (x,))

    def grad_fn(g):
        gs = g[:, 0] + g[:, 0].transpose(0, 2, 1)
        return ((gs @ flat).reshape(b, c, h, w),)

    record(out, (x,), grad_fn)
    return out


def mix_rows(weights: Tensor, rows: Tensor) -> Tensor:
    """Per-position convex mix of a row bank.

    weights (b, n, h, w), rows (n, d) -> (b, d, h, w) where each output
    position is that position's weight vector times the row matrix.  The
    GEMM runs over the weights' channels-last rows, one per position.
    """
    if weights.data.ndim != 4:
        raise ShapeError(f"mix_rows: weights must be (b, n, h, w), got {weights.data.shape}")
    if rows.data.ndim != 2:
        raise ShapeError(f"mix_rows: rows must be 2-d, got {rows.data.shape}")
    b, n, h, w = weights.data.shape
    if n != rows.data.shape[0]:
        raise ShapeError(f"mix_rows: {n} weights vs {rows.data.shape[0]} rows")
    d = rows.data.shape[1]
    # a view when the weights are channels-last, as softmax over a conv output is
    w2 = weights.data.transpose(0, 2, 3, 1).reshape(-1, n)
    out = _result((w2 @ rows.data).reshape(b, h, w, d).transpose(0, 3, 1, 2), (weights, rows))

    def grad_fn(g):
        g2 = g.transpose(0, 2, 3, 1).reshape(-1, d)
        dw = (g2 @ rows.data.T).reshape(b, h, w, n).transpose(0, 3, 1, 2) if weights.requires_grad else None
        dr = w2.T @ g2 if rows.requires_grad else None
        return dw, dr

    record(out, (weights, rows), grad_fn)
    return out


# ---------------------------------------------------------------------------
# gradient checking


def check_gradients(fn, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between taped and central-difference gradients.

    fn must map the tensor to a scalar Tensor and be pure.  Relative
    error per element uses max(|analytic|, |numeric|, 1e-8) in the
    denominator.
    """
    prior = x.requires_grad
    x.requires_grad = True
    x.grad = None
    tape = Tape()
    with tape:
        out = fn(x)
    if out.data.size != 1:
        raise ValueError(f"check_gradients needs a scalar-valued fn, got shape {out.data.shape}")
    backward(out, tape)
    analytic = x.grad_array().copy()
    x.grad = None
    x.requires_grad = prior
    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    nflat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = float(fn(x).data)
        flat[i] = orig - eps
        fm = float(fn(x).data)
        flat[i] = orig
        nflat[i] = (fp - fm) / (2.0 * eps)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())
