"""Light-aware prompts: a learnable vector bank weighted per patch cell by
a softmax over pooled local features, composed into a spatial map, and
injected channel-wise into decoder features.  Every step runs on the
site's feature grid, one weight vector per patch x patch cell.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .networks import SLOPE, Conv


class PromptBank:
    """Prompt vectors plus the shrink/compose/inject parameters for one
    injection site.  Prompt dimension equals the site's channel count."""

    def __init__(self, rng: np.random.Generator, n_prompts: int, dim: int):
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


def prompt_weights(F_e: Tensor, bank: PromptBank, patch: int) -> Tensor:
    """Softmax weights over the bank's prompts, one vector per patch cell.

    F_e (b, c, h, w) is mean-pooled over patch x patch cells, shrunk to
    n_prompts logits by a 1x1 conv, and softmaxed over channels:
    (b, n_prompts, h/patch, w/patch).
    """
    return ad.softmax_channels(bank.shrink(ad.avg_pool2d(F_e, patch)))


def compose_prompt(weights: Tensor, bank: PromptBank, patch: int) -> Tensor:
    """Weighted prompt sum per cell, upsampled by patch to the site grid, then a 3x3 conv."""
    return bank.compose(ad.upsample_nearest(ad.mix_rows(weights, bank.prompts), patch))


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

    Tracks the worst per-cell weight-sum deviation seen.
    """

    def __init__(self, rng: np.random.Generator, channel_sizes: list[int], n_prompts: int):
        self.banks = [PromptBank(rng, n_prompts, c) for c in channel_sizes]
        self.max_weight_sum_dev = 0.0

    def apply(self, level: int, F: Tensor, F_e: Tensor) -> Tensor:
        bank = self.banks[level]
        patch = prompt_patch(F_e.data.shape[2])
        w = prompt_weights(F_e, bank, patch)
        dev = float(np.abs(w.data.sum(axis=1) - 1.0).max())
        self.max_weight_sum_dev = max(self.max_weight_sum_dev, dev)
        P = compose_prompt(w, bank, patch)
        return inject_prompt(F, P, bank)

    def named_params(self, prefix: str = "prompt"):
        out = []
        for lvl, bank in enumerate(self.banks):
            out += bank.named_params(f"{prefix}.level{lvl}")
        return out
