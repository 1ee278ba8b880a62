"""Light-factor quantization: Gram-matrix statistics mapped to compact
light factors, plus the contrastive and consistency losses that train
and exploit them.

Factors are extracted per encoder tap level as one (b, d_l) matrix, a
row per batch item.  Same-lighting factor pairs are pulled inside a
cosine-distance margin, different-lighting pairs pushed outside it, all
pairs of a level scored from one masked distance matrix.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .networks import SLOPE, Conv

HIDDEN = 32  # width of the hidden layer between each Gram and its factor


class DegenerateFactorError(ValueError):
    """A light factor has zero norm, so cosine distance is undefined."""


class LqmState:
    """Per-level two-affine-layer maps from flattened Grams to factors."""

    def __init__(self, rng: np.random.Generator, channel_sizes: list[int], d_l: int):
        self.d_l = d_l
        self.layers: list[tuple[Conv, Conv]] = []
        for c in channel_sizes:
            self.layers.append((Conv(rng, c * c, HIDDEN, 1), Conv(rng, HIDDEN, d_l, 1)))

    def named_params(self, prefix: str = "lqm"):
        out = []
        for lvl, (first, second) in enumerate(self.layers):
            out += first.named_params(f"{prefix}.level{lvl}.affine1")
            out += second.named_params(f"{prefix}.level{lvl}.affine2")
        return out


def light_factors(skips: list[Tensor], lqm: LqmState) -> list[Tensor]:
    """One (b, d_l) factor matrix per tap level, a row per batch item.

    Each level's batched Gram is flattened to (b, c*c, 1, 1) and pushed
    through that level's two 1x1 convs.
    """
    if len(skips) != len(lqm.layers):
        raise ShapeError(f"light_factors: {len(skips)} tap levels, LQM maps {len(lqm.layers)}")
    out = []
    for feat, (first, second) in zip(skips, lqm.layers):
        b, c = feat.data.shape[:2]
        flat = ad.reshape(ad.gram(feat), (b, c * c, 1, 1))
        hidden = ad.leaky_relu(first(flat), SLOPE)
        out.append(ad.reshape(second(hidden), (b, lqm.d_l)))
    return out


def lqm_contrastive_loss(f_low: Tensor, f_normal: Tensor, margin: float) -> Tensor:
    """Squared-hinge pair loss over one tap level's two (b, d_l) factor matrices.

    Row i of each is scene i.  Each (low i, normal i) pair differs in
    lighting and adds relu(margin - dist)^2; each unordered pair of normal
    rows shares it and adds relu(dist - margin)^2, with dist the cosine
    distance.  Every distance comes from one Gram of the 2b stacked rows.
    Returns a scalar tensor.
    """
    if f_low.data.ndim != 2 or f_low.data.shape != f_normal.data.shape:
        raise ShapeError(f"contrastive loss needs matching (b, d_l) factors, got "
                         f"{f_low.data.shape} and {f_normal.data.shape}")
    b, d = f_low.data.shape
    for f in (f_low, f_normal):
        if not np.linalg.norm(f.data, axis=1).all():
            raise DegenerateFactorError("cosine distance undefined for a zero-norm factor")
    rows = ad.concat_channels(ad.reshape(f_low, (1, b, d, 1)), ad.reshape(f_normal, (1, b, d, 1)))
    norms = ad.sqrt(ad.reshape(ad.gram(ad.reshape(rows, (2 * b, 1, d, 1))), (2 * b, 1)))
    cos = ad.div(ad.div(ad.reshape(ad.gram(rows), (2 * b, 2 * b)), norms), ad.reshape(norms, (1, 2 * b)))
    dist = ad.sub(Tensor(1.0), cos)
    same = np.triu(np.ones((2 * b, 2 * b)), 1)
    same[:b] = 0.0  # of the pairs above the diagonal, only normal x normal share lighting
    differ = np.eye(2 * b, k=b)  # (low i, normal i)
    pull = ad.square(ad.mul(ad.relu(ad.sub(dist, Tensor(margin))), Tensor(same)))
    push = ad.square(ad.mul(ad.relu(ad.sub(Tensor(margin), dist)), Tensor(differ)))
    return ad.sum_all(ad.add(pull, push))


def light_consistency_loss(f_a: Tensor, f_b: Tensor, n_l: int) -> Tensor:
    """Scaled squared distance between paired factor rows, averaged over rows.

    For (b, d_l) matrices: (1 / b) sum_rows (1 / (4 d_l^2 n_l^2)) sum_i (f_a[i] - f_b[i])^2.
    """
    if f_a.data.ndim != 2 or f_a.data.shape != f_b.data.shape:
        raise ShapeError(f"consistency loss needs matching (b, d_l) factors, got "
                         f"{f_a.data.shape} and {f_b.data.shape}")
    b, d_l = f_a.data.shape
    scale = 1.0 / (4.0 * (d_l ** 2) * (n_l ** 2))
    return ad.div(ad.mul(ad.sum_all(ad.square(ad.sub(f_a, f_b))), Tensor(scale)), Tensor(float(b)))
