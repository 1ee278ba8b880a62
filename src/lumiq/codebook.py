"""Learnable discrete codebook with nearest-neighbor matching.

Matching replaces each spatial feature vector with its closest code row.
Gradients cross the discrete selection by straight-through copy: the
decoder-facing output passes grads to the encoder unchanged, while a
separate code-connected view lets the matching loss move the codes.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

# distance scan works on slabs of this many vectors to bound memory
_CHUNK = 4096


class CorruptedIndexError(RuntimeError):
    """A stored code index lies outside the codebook range."""


class Codebook:
    """N learnable code vectors of dimension d."""

    def __init__(self, n_codes: int, dim: int, rng: np.random.Generator):
        if n_codes < 1 or dim < 1:
            raise ValueError(f"codebook needs positive sizes, got N={n_codes}, d={dim}")
        bound = 1.0 / n_codes
        self.codes = Tensor(rng.uniform(-bound, bound, size=(n_codes, dim)), requires_grad=True)
        self.n_codes = n_codes
        self.dim = dim


class QuantizeResult:
    """Outcome of one matching pass.

    quantized: decoder-facing tensor whose backward is a straight-through
        copy to the query features (codes get nothing via this view).
    lookup: same values, but backward scatter-adds into the code rows;
        feed this to codebook_matching_loss so codes can learn.
    indices: (batch, m, n) integer grid of selected code rows.
    """

    __slots__ = ("quantized", "lookup", "indices")

    def __init__(self, quantized: Tensor, lookup: Tensor, indices: np.ndarray):
        self.quantized = quantized
        self.lookup = lookup
        self.indices = indices


def quantize_nearest(Z: Tensor, codebook: Codebook) -> QuantizeResult:
    """Replace each spatial vector of Z with its nearest code.

    Nearest means minimum squared Euclidean distance, ties broken by the
    lowest code index.  Output vectors are bit-identical to code rows.

    Each slab is screened with the expansion ||x||^2 - 2 x.c + ||c||^2 as one
    GEMM.  tol bounds how far the expansion and the exact sum of squared
    differences can each lie from the true distance: a relative term in
    ||x||^2 + ||c||^2 for rounding plus an absolute term for subnormal
    underflow.  A row keeps the screen's pick only when its screened
    distances are all finite and no other code lies within both tolerances
    of the pick; the exact sum then picks the same code.  Every other row
    (near ties, duplicate codes, NaN, inf, overflow, underflow) is scored
    again with the exact sum.
    """
    if Z.data.ndim != 4:
        raise ShapeError(f"quantize_nearest needs a 4-d input, got {Z.data.shape}")
    b, d, m, n = Z.data.shape
    if d != codebook.dim:
        raise ShapeError(f"feature dim {d} (input {Z.data.shape}) does not match codebook dim {codebook.dim}")
    vecs = Z.data.transpose(0, 2, 3, 1).reshape(-1, d)
    codes = codebook.codes.data
    idx = np.empty(vecs.shape[0], dtype=np.int64)
    # either formula lies within (d + 2) * eps * (||x||^2 + ||c||^2) of the true
    # distance, by the usual dot-product error bound; the tolerance is 4x that
    rel = 8 * (d + 4) * np.finfo(np.float64).eps
    with np.errstate(all="ignore"):
        c2 = np.einsum("kd,kd->k", codes, codes)
        for lo in range(0, vecs.shape[0], _CHUNK):
            v = vecs[lo : lo + _CHUNK]
            x2 = np.einsum("pd,pd->p", v, v)
            approx = x2[:, None] - 2.0 * np.dot(v, codes.T) + c2
            sel = approx.argmin(axis=1)
            tol = rel * (x2[:, None] + c2) + 1e-300
            rows = np.arange(len(v))
            bound = approx[rows, sel] + tol[rows, sel]
            near = np.count_nonzero(approx <= bound[:, None] + tol, axis=1)
            keep = (near == 1) & np.isfinite(approx).all(axis=1)
            redo = np.flatnonzero(~keep)
            if redo.size:
                # v[redo] is a C-ordered copy, so the sum order, and the pick on
                # an exact tie, do not depend on Z's memory layout; argmin keeps
                # the first (lowest) index on ties
                diff = v[redo, None, :] - codes[None, :, :]
                sel[redo] = np.einsum("pkd,pkd->pk", diff, diff).argmin(axis=1)
            idx[lo : lo + len(v)] = sel
    gathered = codes[idx].reshape(b, m, n, d).transpose(0, 3, 1, 2)
    indices = idx.reshape(b, m, n)

    quantized = Tensor(gathered.copy(), requires_grad=Z.requires_grad)
    ad.record(quantized, (Z,), lambda g: (g,))

    lookup = Tensor(gathered.copy(), requires_grad=codebook.codes.requires_grad)

    def scatter_grad(g):
        # one weighted bincount over (code, dim) bins adds each bin's rows in
        # row order from 0.0, as np.add.at would
        bins = (idx[:, None] * d + np.arange(d)).reshape(-1)
        dc = np.bincount(bins, weights=g.transpose(0, 2, 3, 1).reshape(-1), minlength=codes.size)
        return (dc.reshape(codes.shape),)

    ad.record(lookup, (codebook.codes,), scatter_grad)
    return QuantizeResult(quantized, lookup, indices)


def codebook_matching_loss(Z: Tensor, Z_q: Tensor, sigma: float) -> Tensor:
    """Two-sided commitment loss, mean over elements.

    sigma * ||Z - sg(Z_q)||^2 pulls the encoder toward the codes;
    ||sg(Z) - Z_q||^2 pulls the codes toward the encoder.  Pass the
    lookup view as Z_q so the second term reaches the code rows.
    """
    if Z.data.shape != Z_q.data.shape:
        raise ShapeError(f"codebook_matching_loss: shapes {Z.data.shape} and {Z_q.data.shape} differ")
    encoder_term = ad.mean_all(ad.square(ad.sub(Z, ad.stop_gradient(Z_q))))
    code_term = ad.mean_all(ad.square(ad.sub(ad.stop_gradient(Z), Z_q)))
    return ad.add(ad.mul(encoder_term, ad.Tensor(sigma)), code_term)


def activation_histogram(results: list[QuantizeResult], n_codes: int) -> np.ndarray:
    """Count how many positions selected each code across the results."""
    counts = np.zeros(n_codes, dtype=np.int64)
    for res in results:
        idx = np.asarray(res.indices)
        if idx.size and (idx.min() < 0 or idx.max() >= n_codes):
            raise CorruptedIndexError(
                f"code index outside [0, {n_codes}): found {int(idx.min())}..{int(idx.max())}"
            )
        counts += np.bincount(idx.reshape(-1), minlength=n_codes)
    return counts


def histogram_distance(h1: np.ndarray, h2: np.ndarray) -> float:
    """L1 distance between normalized activation frequencies (0..2)."""
    h1 = np.asarray(h1, dtype=np.float64)
    h2 = np.asarray(h2, dtype=np.float64)
    if h1.shape != h2.shape:
        raise ValueError(f"histogram lengths differ: {h1.shape} vs {h2.shape}")
    s1, s2 = h1.sum(), h2.sum()
    if s1 <= 0 or s2 <= 0:
        raise ValueError("histogram_distance needs histograms with positive totals")
    return float(np.abs(h1 / s1 - h2 / s2).sum())


def export_histogram_csv(counts: np.ndarray, path) -> None:
    """Write counts as `index,count` rows with a header and LF endings."""
    lines = ["index,count"]
    lines += [f"{i},{int(c)}" for i, c in enumerate(counts)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
