"""Light-factor quantization: Gram-matrix statistics mapped to compact
light factors, plus the contrastive and consistency losses that train
and exploit them.

Factors are extracted per encoder tap level as one (b, d_l) matrix, a
row per batch item.  Same-lighting factor pairs are pulled inside a
cosine-distance margin, different-lighting pairs pushed outside it.
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


def cosine_distance(a: Tensor, b: Tensor) -> Tensor:
    """1 - cosine similarity of two same-shaped factors."""
    na = float(np.linalg.norm(a.data))
    nb = float(np.linalg.norm(b.data))
    if na == 0.0 or nb == 0.0:
        raise DegenerateFactorError("cosine distance undefined for a zero-norm factor")
    dot = ad.sum_all(ad.mul(a, b))
    denom = ad.mul(ad.sqrt(ad.sum_all(ad.square(a))), ad.sqrt(ad.sum_all(ad.square(b))))
    return ad.sub(Tensor(1.0), ad.div(dot, denom))


def lqm_contrastive_loss(factors: list[tuple[Tensor, int]], margin: float) -> Tensor:
    """Hinged pair loss over all unordered factor pairs.

    Same-label pairs contribute relu(dist - margin)^2, different-label
    pairs relu(margin - dist)^2.  Returns a scalar tensor.  A pair whose
    hinge is exactly 0 adds nothing and is left off the sum, so backward
    never replays its zero-gradient subgraph; a NaN hinge still reaches
    the sum.
    """
    if len(factors) < 2:
        raise ValueError(f"need at least 2 factors, got {len(factors)}")
    shape = factors[0][0].data.shape
    for f, _ in factors:
        if f.data.shape != shape:
            raise ShapeError(f"factor shapes differ: {f.data.shape} vs {shape}")
    total = Tensor(0.0)
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            f_i, lab_i = factors[i]
            f_j, lab_j = factors[j]
            dist = cosine_distance(f_i, f_j)
            if lab_i == lab_j:
                hinge = ad.relu(ad.sub(dist, Tensor(margin)))
            else:
                hinge = ad.relu(ad.sub(Tensor(margin), dist))
            if hinge.data != 0.0:
                total = ad.add(total, ad.square(hinge))
    return total


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
