"""Synthetic paired scenes, low-light degradation, and PPM image I/O.

Clean scenes are deterministic compositions of smooth gradients, random
shapes, and texture bands.  Low-light partners come from a gain/gamma
curve with additive noise, standing in for real capture pairs.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor


@dataclass
class DegradeParams:
    gamma: float
    gain: float
    noise_sigma: float
    seed: int = 0

    def __post_init__(self):
        # negated tests, so that NaN fails them too
        if not self.gamma >= 1.0:
            raise ValueError(f"gamma must be >= 1, got {self.gamma}")
        if not (0.0 < self.gain <= 1.0):
            raise ValueError(f"gain must be in (0, 1], got {self.gain}")
        if not self.noise_sigma >= 0.0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


@dataclass
class ImagePair:
    low: Tensor
    normal: Tensor
    scene_id: int
    params: DegradeParams | None = field(default=None)

    def __post_init__(self):
        if self.low.data.shape != self.normal.data.shape:
            raise ValueError(
                f"pair {self.scene_id}: shapes {self.low.data.shape} and {self.normal.data.shape} differ"
            )


def synth_scene(seed: int, h: int, w: int) -> Tensor:
    """Deterministic clean scene in [0, 1], shape (1, 3, h, w)."""
    if h < 1 or w < 1:
        raise ValueError(f"scene dims must be positive, got {h}x{w}")
    rng = np.random.default_rng(seed)
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ys /= max(h - 1, 1)
    xs /= max(w - 1, 1)
    gx, gy = rng.uniform(-0.25, 0.25, size=2)
    lum = 0.5 + gx * (xs - 0.5) + gy * (ys - 0.5)
    for _ in range(rng.integers(2, 5)):
        cy, cx = rng.uniform(0.1, 0.9, size=2)
        ry, rx = rng.uniform(0.05, 0.3, size=2)
        value = rng.uniform(-0.25, 0.25)
        if rng.uniform() < 0.5:
            mask = (np.abs(ys - cy) < ry) & (np.abs(xs - cx) < rx)
        else:
            mask = ((ys - cy) / ry) ** 2 + ((xs - cx) / rx) ** 2 < 1.0
        lum = lum + value * mask
    freq = rng.uniform(4.0, 12.0)
    angle = rng.uniform(0, np.pi)
    phase = rng.uniform(0, 2 * np.pi)
    lum = lum + 0.06 * np.sin(2 * np.pi * freq * (xs * np.cos(angle) + ys * np.sin(angle)) + phase)
    tint = rng.uniform(-0.08, 0.08, size=3)
    img = lum[None, :, :] + tint[:, None, None]
    return Tensor(np.clip(img, 0.0, 1.0)[None])


def degrade(I: Tensor, p: DegradeParams) -> Tensor:
    """clamp(gain * I^gamma + noise, 0, 1)."""
    rng = np.random.default_rng(p.seed)
    out = p.gain * np.power(I.data, p.gamma)
    if p.noise_sigma > 0.0:
        out = out + rng.normal(0.0, p.noise_sigma, size=out.shape)
    return Tensor(np.clip(out, 0.0, 1.0))


def generate_pairs(n: int, size: int, seed: int) -> list[ImagePair]:
    """n deterministic low/normal pairs of square scenes."""
    if n < 1:
        raise ValueError(f"need at least one pair, got n={n}")
    rng = np.random.default_rng(seed)
    pairs = []
    for scene_id in range(n):
        scene_seed = int(rng.integers(0, 2**31))
        normal = synth_scene(scene_seed, size, size)
        params = DegradeParams(
            gamma=float(rng.uniform(1.5, 3.0)),
            gain=float(rng.uniform(0.15, 0.5)),
            noise_sigma=float(rng.uniform(0.005, 0.03)),
            seed=int(rng.integers(0, 2**31)),
        )
        pairs.append(ImagePair(low=degrade(normal, params), normal=normal,
                               scene_id=scene_id, params=params))
    return pairs


# whitespace and "#" comments (each to the end of its line) that may precede a PPM header token
_HEADER_GAP = re.compile(rb"(?:\s|#[^\r\n]*)*")


class PpmParseError(ValueError):
    """Malformed PPM input; message carries the byte offset."""


def write_image(path, I: Tensor) -> None:
    """Write a (1, 3, h, w) tensor in [0, 1] as binary 8-bit PPM."""
    arr = I.data
    if arr.ndim != 4 or arr.shape[0] != 1 or arr.shape[1] != 3:
        raise ValueError(f"write_image needs shape (1, 3, h, w), got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{path}: refusing to write an image that holds NaN or inf")
    _, _, h, w = arr.shape
    quant = np.clip(np.rint(arr[0] * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(quant.transpose(1, 2, 0).tobytes())


def _read_ppm(path) -> tuple[bytes, int, int, int]:
    """(file bytes, h, w, byte offset of the pixel data) of a binary 8-bit
    PPM whose header is valid and whose pixel data is all there."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] != b"P6":
        raise PpmParseError(f"{path}: not a P6 file (byte offset 0)")
    off = start = 2

    def next_int():
        nonlocal off, start
        off = _HEADER_GAP.match(blob, off).end()
        start = off
        while off < len(blob) and blob[off : off + 1].isdigit():
            off += 1
        if off == start:
            raise PpmParseError(f"{path}: expected integer at byte offset {start}")
        return int(blob[start:off])

    w = next_int()
    if w == 0:
        raise PpmParseError(f"{path}: width 0 at byte offset {start}")
    h = next_int()
    if h == 0:
        raise PpmParseError(f"{path}: height 0 at byte offset {start}")
    maxval = next_int()
    if maxval != 255:
        raise PpmParseError(f"{path}: unsupported maxval {maxval} at byte offset {start}")
    if off >= len(blob) or not blob[off : off + 1].isspace():
        raise PpmParseError(f"{path}: expected whitespace after maxval at byte offset {off}")
    off += 1
    need = 3 * w * h
    if len(blob) - off < need:
        raise PpmParseError(
            f"{path}: pixel data truncated at byte offset {len(blob)} (need {need} bytes from {off})"
        )
    return blob, h, w, off


def check_image(path) -> None:
    """Raise the PpmParseError read_image would raise for path, without decoding it."""
    _read_ppm(path)


def read_image(path) -> Tensor:
    """Read a binary 8-bit PPM back into a (1, 3, h, w) tensor in [0, 1]."""
    blob, h, w, off = _read_ppm(path)
    raw = np.frombuffer(blob, dtype=np.uint8, count=3 * h * w, offset=off)
    img = raw.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0
    return Tensor(img[None])
