"""Toy encoder/decoder/discriminator built from the tensor engine.

The encoder halves resolution n_down times and maps to the code
dimension.  The decoder mirrors it with nearest-neighbor upsampling,
fusing the matching encoder skip at every stage through a learned
affine (alpha * F_d + beta).  Prompt injection, when a prompt pyramid is
supplied, happens right after each fusion.  The sizes base_channels,
n_down and code_dim come from the run's TrainConfig.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor

if TYPE_CHECKING:
    from .training import TrainConfig

SLOPE = 0.2  # leaky-relu negative slope of every network in the model
IMAGE_CHANNELS = 3


def tap_channels(cfg: TrainConfig) -> list[int]:
    """Channels of the encoder's skip feature at each tap."""
    return [cfg.base_channels * 2 ** i for i in range(cfg.n_down)]


class Conv:
    """kxk conv layer padded by k // 2, with fan-in-scaled uniform init."""

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, k: int = 3, stride: int = 1):
        self.stride = stride
        self.pad = k // 2
        bound = 1.0 / np.sqrt(c_in * k * k)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(c_out, c_in, k, k)), requires_grad=True)
        self.bias = Tensor(rng.uniform(-bound, bound, size=c_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv2d(x, self.weight, self.bias, stride=self.stride, pad=self.pad)

    def named_params(self, prefix: str):
        return [(f"{prefix}.weight", self.weight), (f"{prefix}.bias", self.bias)]


class ResnetBlock:
    """F + conv(act(conv(F))) with channel-preserving 3x3 convs."""

    def __init__(self, rng: np.random.Generator, channels: int):
        self.conv1 = Conv(rng, channels, channels, 3)
        self.conv2 = Conv(rng, channels, channels, 3)

    def __call__(self, x: Tensor) -> Tensor:
        h = ad.leaky_relu(self.conv1(x), SLOPE)
        return ad.add(x, self.conv2(h))

    def named_params(self, prefix: str):
        return self.conv1.named_params(f"{prefix}.conv1") + self.conv2.named_params(f"{prefix}.conv2")


class SkipFusion:
    """Affine skip modulation: alpha, beta from one 3x3 conv over [F_d, F_e].

    The conv starts as the identity affine (alpha = 1, beta = 0) so an
    untrained fusion passes decoder features through unchanged.
    """

    def __init__(self, rng: np.random.Generator, channels: int):
        self.channels = channels
        self.conv = Conv(rng, 2 * channels, 2 * channels, 3)
        self.conv.weight.data[:] = 0.0
        self.conv.bias.data[:channels] = 1.0
        self.conv.bias.data[channels:] = 0.0

    def __call__(self, F_d: Tensor, F_e: Tensor) -> Tensor:
        if F_d.data.shape != F_e.data.shape:
            raise ShapeError(f"skip_fusion: shapes {F_d.data.shape} and {F_e.data.shape} differ")
        both = self.conv(ad.concat_channels(F_d, F_e))
        alpha = ad.slice_channels(both, 0, self.channels)
        beta = ad.slice_channels(both, self.channels, 2 * self.channels)
        return ad.add(ad.mul(alpha, F_d), beta)

    def named_params(self, prefix: str):
        return self.conv.named_params(f"{prefix}.conv")


def set_trainable(named_params, flag: bool) -> None:
    """Set requires_grad on every tensor of a (name, tensor) list; the one way to freeze."""
    for _, t in named_params:
        t.requires_grad = flag


class Encoder:
    """n_down stages of (stride-2 conv, leaky-relu, resnet block), then a
    3x3 conv to the code dimension.  Returns per-stage skip features."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        self.cfg = cfg
        self.downs: list[Conv] = []
        self.blocks: list[ResnetBlock] = []
        c_in = IMAGE_CHANNELS
        for c_out in tap_channels(cfg):
            self.downs.append(Conv(rng, c_in, c_out, 3, stride=2))
            self.blocks.append(ResnetBlock(rng, c_out))
            c_in = c_out
        self.to_code = Conv(rng, c_in, cfg.code_dim, 3)

    def forward(self, I: Tensor) -> tuple[Tensor, list[Tensor]]:
        if I.data.ndim != 4 or I.data.shape[1] != IMAGE_CHANNELS:
            raise ShapeError(f"encoder expects (b, {IMAGE_CHANNELS}, h, w), got {I.data.shape}")
        factor = 2 ** self.cfg.n_down
        if I.data.shape[2] % factor or I.data.shape[3] % factor:
            raise ShapeError(f"encoder: spatial dims of {I.data.shape} not divisible by {factor}")
        x = I
        skips = []
        for down, block in zip(self.downs, self.blocks):
            x = ad.leaky_relu(down(x), SLOPE)
            x = block(x)
            skips.append(x)
        return self.to_code(x), skips

    def named_params(self, prefix: str = "encoder"):
        out = []
        for i, (down, block) in enumerate(zip(self.downs, self.blocks)):
            out += down.named_params(f"{prefix}.down{i}")
            out += block.named_params(f"{prefix}.block{i}")
        out += self.to_code.named_params(f"{prefix}.to_code")
        return out


class Decoder:
    """Mirror of the encoder with skip fusion at every stage.

    Core parameters (from_code, blocks, upsample convs, final conv) can
    be frozen independently of the fusion convs, which keep training
    after the core is locked.
    """

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        self.cfg = cfg
        chans = tap_channels(cfg)
        self.from_code = Conv(rng, cfg.code_dim, chans[-1], 3)
        self.fusions: list[SkipFusion] = []
        self.blocks: list[ResnetBlock] = []
        self.ups: list[Conv] = []
        for j, ch in enumerate(chans):
            ch_next = chans[max(j - 1, 0)]
            self.fusions.append(SkipFusion(rng, ch))
            self.blocks.append(ResnetBlock(rng, ch))
            self.ups.append(Conv(rng, ch, ch_next, 3))
        self.final = Conv(rng, cfg.base_channels, IMAGE_CHANNELS, 3)

    def forward(self, Z_q: Tensor, skips: list[Tensor], prompts=None) -> Tensor:
        if Z_q.data.ndim != 4 or Z_q.data.shape[1] != self.cfg.code_dim:
            raise ShapeError(f"decoder expects code dim {self.cfg.code_dim}, got {Z_q.data.shape}")
        if len(skips) != self.cfg.n_down:
            raise ShapeError(f"decoder needs {self.cfg.n_down} skips, got {len(skips)}")
        x = ad.leaky_relu(self.from_code(Z_q), SLOPE)
        for j in range(self.cfg.n_down - 1, -1, -1):
            x = self.fusions[j](x, skips[j])
            if prompts is not None:
                x = prompts.apply(j, x, skips[j])
            x = self.blocks[j](x)
            x = ad.upsample_nearest(x, 2)
            x = ad.leaky_relu(self.ups[j](x), SLOPE)
        return ad.sigmoid(self.final(x))

    def core_named_params(self, prefix: str = "decoder"):
        out = self.from_code.named_params(f"{prefix}.from_code")
        for j in range(self.cfg.n_down):
            out += self.blocks[j].named_params(f"{prefix}.block{j}")
            out += self.ups[j].named_params(f"{prefix}.up{j}")
        out += self.final.named_params(f"{prefix}.final")
        return out

    def fusion_named_params(self, prefix: str = "decoder"):
        return [item for j, fusion in enumerate(self.fusions) for item in fusion.named_params(f"{prefix}.fusion{j}")]

    def named_params(self, prefix: str = "decoder"):
        return self.core_named_params(prefix) + self.fusion_named_params(prefix)


class Discriminator:
    """3-layer strided patch discriminator emitting a logit map."""

    def __init__(self, cfg: TrainConfig, rng: np.random.Generator):
        c = max(cfg.base_channels // 2, 4)
        self.conv1 = Conv(rng, IMAGE_CHANNELS, c, 3, stride=2)
        self.conv2 = Conv(rng, c, 2 * c, 3, stride=2)
        self.conv3 = Conv(rng, 2 * c, 1, 3, stride=1)

    def forward(self, I: Tensor) -> Tensor:
        h = ad.leaky_relu(self.conv1(I), SLOPE)
        h = ad.leaky_relu(self.conv2(h), SLOPE)
        return self.conv3(h)

    def named_params(self, prefix: str = "disc"):
        return (
            self.conv1.named_params(f"{prefix}.conv1")
            + self.conv2.named_params(f"{prefix}.conv2")
            + self.conv3.named_params(f"{prefix}.conv3")
        )
