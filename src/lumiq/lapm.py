"""Light-aware prompts: a learnable vector bank weighted per patch by a
softmax over pooled local features, composed into a spatial map, and
injected channel-wise into decoder features.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .networks import SLOPE, Conv


@dataclass
class PromptWeights:
    weights: Tensor  # (batch * grid_h * grid_w, n_prompts, 1, 1)
    grid_h: int
    grid_w: int
    patch: int

    @property
    def n_prompts(self) -> int:
        return self.weights.data.shape[1]


class PromptBank:
    """Prompt vectors plus the shrink/compose/inject parameters for one
    injection site.  Prompt dimension equals the site's channel count."""

    def __init__(self, rng: np.random.Generator, n_prompts: int, dim: int):
        self.n_prompts = n_prompts
        self.dim = dim
        self.prompts = Tensor(rng.normal(0.0, 0.02, size=(n_prompts, dim)), requires_grad=True)
        self.shrink = Conv(rng, dim, n_prompts, 1)
        self.compose = Conv(rng, dim, dim, 3)
        self.inject1 = Conv(rng, 2 * dim, dim, 3)
        self.inject2 = Conv(rng, dim, dim, 3)

    def named_params(self, prefix: str):
        return (
            [(f"{prefix}.prompts", self.prompts)]
            + self.shrink.named_params(f"{prefix}.shrink")
            + self.compose.named_params(f"{prefix}.compose")
            + self.inject1.named_params(f"{prefix}.inject1")
            + self.inject2.named_params(f"{prefix}.inject2")
        )


def prompt_patch(side: int) -> int:
    """Pooling patch used at a site whose feature maps are side pixels high."""
    return max(side // 4, 1)


def prompt_weights(F_e: Tensor, bank: PromptBank, patch: int) -> PromptWeights:
    """Per-patch softmax weights over the bank's prompts.

    Each patch of F_e is mean-pooled to a channel vector, shrunk to
    n_prompts logits by a 1x1 conv, and softmaxed.
    """
    if F_e.data.ndim != 4:
        raise ShapeError(f"prompt_weights needs a 4-d input, got {F_e.data.shape}")
    b, c, h, w = F_e.data.shape
    if c != bank.dim:
        raise ShapeError(f"prompt_weights: {c} channels vs bank dim {bank.dim}")
    if h % patch or w % patch:
        raise ShapeError(f"prompt_weights: patch {patch} does not divide spatial dims of {F_e.data.shape}")
    patches = ad.unfold(F_e, patch)
    pooled = ad.avg_pool2d(patches, patch)  # (q, c, 1, 1)
    logits = bank.shrink(pooled)  # (q, n_prompts, 1, 1)
    return PromptWeights(ad.softmax_channels(logits), h // patch, w // patch, patch)


def compose_prompt(w: PromptWeights, bank: PromptBank) -> Tensor:
    """Weighted prompt sum per patch, tiled to the site grid, then a 3x3 conv."""
    if w.n_prompts != bank.n_prompts:
        raise ShapeError(f"compose_prompt: {w.n_prompts} weights vs {bank.n_prompts} prompts")
    mixed = ad.mix_rows(w.weights, bank.prompts)  # (q, dim, 1, 1)
    tiled = ad.upsample_nearest(mixed, w.patch)
    grid = ad.fold(tiled, w.grid_h, w.grid_w)  # (b, dim, h, w)
    return bank.compose(grid)


def inject_prompt(F: Tensor, P: Tensor, bank: PromptBank) -> Tensor:
    """Channel-concatenate the prompt map and apply a channel-reducing
    residual block: F + conv(act(conv([F, P])))."""
    if F.data.shape != P.data.shape:
        raise ShapeError(f"inject_prompt: shapes {F.data.shape} and {P.data.shape} differ")
    h = ad.leaky_relu(bank.inject1(ad.concat_channels(F, P)), SLOPE)
    return ad.add(F, bank.inject2(h))


class PromptPyramid:
    """One PromptBank per decoder stage, with the plumbing the decoder
    calls during stage-2 forward passes.

    Tracks the worst per-patch weight-sum deviation seen.
    """

    def __init__(self, rng: np.random.Generator, channel_sizes: list[int], n_prompts: int):
        self.banks = [PromptBank(rng, n_prompts, c) for c in channel_sizes]
        self.max_weight_sum_dev = 0.0

    def apply(self, level: int, F: Tensor, F_e: Tensor) -> Tensor:
        bank = self.banks[level]
        w = prompt_weights(F_e, bank, prompt_patch(F_e.data.shape[2]))
        dev = float(np.abs(w.weights.data.sum(axis=1) - 1.0).max())
        self.max_weight_sum_dev = max(self.max_weight_sum_dev, dev)
        P = compose_prompt(w, bank)
        return inject_prompt(F, P, bank)

    def named_params(self, prefix: str = "prompt"):
        out = []
        for lvl, bank in enumerate(self.banks):
            out += bank.named_params(f"{prefix}.level{lvl}")
        return out
