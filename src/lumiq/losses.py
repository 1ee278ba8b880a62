"""Training objectives for both stages.

Stage 1 combines reconstruction, codebook matching, and an adversarial
term.  Stage 2 adds feature matching against the frozen clean-image
path, a perceptual reconstruction term, and the light consistency loss.
The perceptual term uses a seeded fixed conv pyramid instead of a
pretrained feature network.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .networks import IMAGE_CHANNELS, SLOPE, Conv, set_trainable


class DivergenceError(RuntimeError):
    """A loss component stopped being finite."""


def l1_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"l1_loss: shapes {a.data.shape} and {b.data.shape} differ")
    return ad.mean_all(ad.absolute(ad.sub(a, b)))


def discriminator_loss(real_logits: Tensor, fake_logits: Tensor, gamma: float) -> Tensor:
    """The negated discriminator objective on patch logits, to minimize:
    -(gamma * mean log sigma(real) + mean log(1 - sigma(fake)))."""
    real_term = ad.mul(ad.mean_all(ad.log_sigmoid(real_logits)), Tensor(gamma))
    fake_term = ad.mean_all(ad.log_sigmoid(ad.mul(fake_logits, Tensor(-1.0))))
    return ad.mul(ad.add(real_term, fake_term), Tensor(-1.0))


def generator_loss(fake_logits: Tensor, gamma: float) -> Tensor:
    """The weighted non-saturating generator loss: gamma * -mean log sigma(fake)."""
    return ad.mul(ad.mul(ad.mean_all(ad.log_sigmoid(fake_logits)), Tensor(-1.0)), Tensor(gamma))


def feature_matching_loss(Z_ll: Tensor, Zq_h: Tensor, sigma: float) -> Tensor:
    """Pull low-light features toward the frozen quantized clean features.

    sigma * mean (Z_ll - sg(Zq_h))^2 plus the mean squared difference of
    the two channel Gram matrices.  Only Z_ll receives gradient.
    """
    if Z_ll.data.shape != Zq_h.data.shape:
        raise ShapeError(f"feature_matching_loss: shapes {Z_ll.data.shape} and {Zq_h.data.shape} differ")
    target = ad.stop_gradient(Zq_h)
    direct = ad.mean_all(ad.square(ad.sub(Z_ll, target)))
    gram_diff = ad.mean_all(ad.square(ad.sub(ad.gram(Z_ll), ad.gram(target))))
    return ad.add(ad.mul(direct, Tensor(sigma)), gram_diff)


class PerceptualExtractor:
    """Fixed seeded 3-stage conv pyramid standing in for a pretrained
    perceptual network.  Parameters never train."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.convs = [
            Conv(rng, IMAGE_CHANNELS, 8, 3, stride=2),
            Conv(rng, 8, 16, 3, stride=2),
            Conv(rng, 16, 32, 3, stride=2),
        ]
        for conv in self.convs:
            set_trainable(conv.named_params("conv"), False)

    def features(self, I: Tensor) -> list[Tensor]:
        feats = []
        x = I
        for conv in self.convs:
            x = ad.leaky_relu(conv(x), SLOPE)
            feats.append(x)
        return feats


def reconstruction_loss(I_rec: Tensor, I_nl: Tensor, px: PerceptualExtractor) -> Tensor:
    """L1 plus summed mean squared feature differences from the fixed pyramid."""
    if I_rec.data.shape != I_nl.data.shape:
        raise ShapeError(f"reconstruction_loss: shapes {I_rec.data.shape} and {I_nl.data.shape} differ")
    loss = l1_loss(I_nl, I_rec)
    for fa, fb in zip(px.features(I_rec), px.features(I_nl)):
        loss = ad.add(loss, ad.mean_all(ad.square(ad.sub(fa, fb))))
    return loss


def _check_finite(name: str, value: Tensor) -> None:
    if not np.isfinite(value.data):
        raise DivergenceError(f"loss component {name} is not finite ({float(value.data)})")


def total_loss(l_adv: Tensor, l_fml: Tensor, l_rec: Tensor, l_lcl: Tensor,
               lambda_lcl: float) -> Tensor:
    """Stage-2 objective: l_adv + l_fml + l_rec + lambda * l_lcl."""
    for name, val in (("l_adv", l_adv), ("l_fml", l_fml), ("l_rec", l_rec), ("l_lcl", l_lcl)):
        _check_finite(name, val)
    out = ad.add(ad.add(l_adv, l_fml), l_rec)
    return ad.add(out, ad.mul(l_lcl, Tensor(lambda_lcl)))


def vq_total_loss(l_mae: Tensor, l_cma: Tensor, l_adv: Tensor) -> Tensor:
    """Stage-1 objective: l_mae + l_cma + l_adv."""
    for name, val in (("l_mae", l_mae), ("l_cma", l_cma), ("l_adv", l_adv)):
        _check_finite(name, val)
    return ad.add(ad.add(l_mae, l_cma), l_adv)


def write_loss_csv(path, fieldnames: list[str], rows: list[tuple]) -> None:
    """Plain CSV loss log with LF endings and a header row."""
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.12g}"
