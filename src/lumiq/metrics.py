"""PSNR and SSIM on [0, 1] images."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import ShapeError, Tensor

SSIM_WINDOW = 8
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def psnr(a, b, max_val: float = 1.0) -> float:
    """10 log10(max_val^2 / MSE); +inf for identical inputs."""
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise ShapeError(f"psnr: shapes {a.shape} and {b.shape} differ")
    mse = float(((a - b) ** 2).mean())
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(max_val * max_val / mse))


def _window_mean(g: np.ndarray) -> np.ndarray:
    """Mean of every SSIM_WINDOW x SSIM_WINDOW window of (n, h, w) images."""
    return sliding_window_view(g, (SSIM_WINDOW, SSIM_WINDOW), axis=(1, 2)).mean(axis=(3, 4))


def ssim(a, b) -> float:
    """Mean local SSIM over uniform 8x8 windows of the channel-mean gray image."""
    a, b = _as_array(a), _as_array(b)
    if a.shape != b.shape:
        raise ShapeError(f"ssim: shapes {a.shape} and {b.shape} differ")
    if a.ndim != 4:
        raise ShapeError(f"ssim needs (batch, channel, h, w), got {a.shape}")
    if a.shape[2] < SSIM_WINDOW or a.shape[3] < SSIM_WINDOW:
        raise ValueError(f"ssim needs at least {SSIM_WINDOW}x{SSIM_WINDOW} images, got {a.shape}")
    ga = a.mean(axis=1)
    gb = b.mean(axis=1)
    mu_a, mu_b = _window_mean(ga), _window_mean(gb)
    # window means of the pixel products, with no (n, h-7, w-7, 8, 8) window
    # product; var_a + var_b is summed as it is built and the gray images go
    # before the last maps, so fewer maps are alive at once (same bits)
    var_sum = _window_mean(ga * ga) - mu_a * mu_a + (_window_mean(gb * gb) - mu_b * mu_b) + SSIM_C2
    cov = _window_mean(ga * gb) - mu_a * mu_b
    del ga, gb
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * var_sum
    return float((num / den).mean())


def write_metrics_csv(rows: list[tuple], path) -> None:
    """`image_id,psnr,ssim` rows with a header and LF endings."""
    lines = ["image_id,psnr,ssim"]
    for image_id, p, s in rows:
        lines.append(f"{image_id},{p:.12g},{s:.12g}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
