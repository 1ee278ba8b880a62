"""Two-stage training pipeline.

Stage 1 learns encoder, codebook, decoder, and discriminator on clean
images.  Stage 2 freezes the codebook and decoder core, re-trains a
copy of the encoder on low-light inputs, and alternates per batch
between a light-factor (LQM) update and an enhancer update, with the
discriminator kept adversarial throughout.
"""

from __future__ import annotations

import copy
import functools
import itertools
from dataclasses import dataclass, fields
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tape, Tensor
from .checkpoint import load_checkpoint, save_checkpoint
from .codebook import Codebook, codebook_matching_loss, quantize_nearest
from .data import ImagePair
from .lapm import PromptPyramid, prompt_patch
from .losses import (
    DivergenceError,
    PerceptualExtractor,
    discriminator_loss,
    feature_matching_loss,
    generator_loss,
    l1_loss,
    reconstruction_loss,
    total_loss,
    vq_total_loss,
    write_loss_csv,
)
from .lqm import LqmState, light_consistency_loss, light_factors, lqm_contrastive_loss
from .metrics import psnr, ssim
from .networks import Decoder, Discriminator, Encoder, set_trainable, tap_channels


class CompatibilityError(RuntimeError):
    """A checkpoint cannot rebuild a working model: a missing, mis-shaped or
    non-finite entry, or sizes the config disagrees on."""


# ---------------------------------------------------------------------------
# optimizer


ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8


class OptimizerState:
    """Adam accumulators for one named parameter group."""

    def __init__(self, named_params: list[tuple[str, Tensor]], lr: float):
        self.named_params = list(named_params)
        self.params = [p for _, p in self.named_params]
        self.lr = lr
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: OptimizerState, grads: list[np.ndarray]) -> None:
    """Bias-corrected Adam update of the state's params, in place."""
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETAS
    for i, (p, g) in enumerate(zip(state.params, grads)):
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} vs param shape {p.data.shape}")
        state.m[i] = b1 * state.m[i] + (1.0 - b1) * g
        state.v[i] = b2 * state.v[i] + (1.0 - b2) * (g * g)
        m_hat = state.m[i] / (1.0 - b1 ** t)
        v_hat = state.v[i] / (1.0 - b2 ** t)
        p.data -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _step_group(opt: OptimizerState, where: str) -> None:
    """Collect grads for a trainable group, apply Adam, clear grads.

    A non-finite gradient raises DivergenceError naming the group before
    Adam runs, so the parameters and the optimizer state stay as they were.
    """
    grads = [p.grad_array() for p in opt.params]
    for (name, _), g in zip(opt.named_params, grads):
        if not np.isfinite(g).all():
            raise DivergenceError(f"{where} group: gradient of {name} is not finite")
    adam_step(opt, grads)
    ad.zero_grads(opt.params)


def _disc_step(disc: Discriminator, real: Tensor, fake: Tensor, gamma: float,
               opt: OptimizerState, where: str) -> None:
    """One discriminator update on real images and detached fakes."""
    set_trainable(opt.named_params, True)
    tape = Tape()
    with tape:
        loss = discriminator_loss(disc.forward(real), disc.forward(ad.stop_gradient(fake)), gamma)
    if not np.isfinite(loss.data):
        raise DivergenceError(f"{where}: discriminator loss is not finite")
    ad.backward(loss, tape)
    _step_group(opt, f"{where}: discriminator")


# ---------------------------------------------------------------------------
# input shapes


def input_shape_problem(h: int, w: int, n_down: int, prompts: bool) -> str | None:
    """Why the model cannot take h x w inputs, or None when it can.

    Both sides must be multiples of 2**n_down.  With prompts, the pooling
    patch each tap level derives from its height must also divide both
    sides of that level's features.
    """
    factor = 2 ** n_down
    if h % factor or w % factor:
        return f"is not a multiple of 2**n_down={factor}"
    for level in range(n_down if prompts else 0):
        th, tw = h >> (level + 1), w >> (level + 1)
        patch = prompt_patch(th)
        if th % patch or tw % patch:
            return f"gives {th}x{tw} features at tap level {level}, not divisible by its prompt patch {patch}"
    return None


def fit_image(image: Tensor, n_down: int, prompts: bool) -> Tensor:
    """image reflect-padded at the bottom and right to the smallest shape the
    model takes: the least accepted height, then the least width accepted
    with it.  An image that already fits is returned as is, uncopied."""
    if image.data.ndim != 4:
        return image  # the encoder names the bad shape
    h, w = image.data.shape[2:]
    H = next(s for s in itertools.count(h) if input_shape_problem(s, s, n_down, prompts) is None)
    W = next(s for s in itertools.count(w) if input_shape_problem(H, s, n_down, prompts) is None)
    if (H, W) == (h, w):
        return image
    return Tensor(np.pad(image.data, ((0, 0), (0, 0), (0, H - h), (0, W - w)), mode="reflect"))


# ---------------------------------------------------------------------------
# config


@dataclass
class TrainConfig:
    """Every setting of a run.  Config files, CLI overrides and the printed
    config all follow these fields, in this order, with these types."""

    seed: int = 0
    batch_size: int = 4
    crop: int = 32
    stage1_iters: int = 2000
    stage2_iters: int = 1000
    lqm_warmup: int = 100
    margin: float = 0.1
    n_prompts: int = 5
    n_codes: int = 64
    code_dim: int = 32
    base_channels: int = 16
    n_down: int = 2
    d_l: int = 16
    lr: float = 1e-3
    use_fusion: bool = True
    use_lqm: bool = True
    use_lapm: bool = True
    sigma: float = 0.25  # codebook- and feature-matching weight
    gamma: float = 0.1  # adversarial weight
    lambda_lcl: float = 0.5  # light-consistency weight

    def __post_init__(self):
        counts = (self.batch_size, self.crop, self.stage1_iters, self.stage2_iters,
                  self.n_prompts, self.n_codes, self.code_dim, self.base_channels,
                  self.n_down, self.d_l)
        if min(counts) < 1:
            raise ValueError(f"all config counts must be positive: {self}")
        for key in _keys_of_type(float):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)!r}")
        for key in ("seed", "lqm_warmup", "margin", "sigma", "gamma", "lambda_lcl"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key} must be non-negative, got {getattr(self, key)!r}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr!r}")
        problem = input_shape_problem(self.crop, self.crop, self.n_down, self.use_lapm)
        if problem:
            raise ValueError(f"crop={self.crop} {problem}")


@functools.cache
def _config_kinds() -> dict[str, type]:
    """Each TrainConfig key's declared type, in field order; read-only."""
    return get_type_hints(TrainConfig)


def _keys_of_type(kind: type) -> list[str]:
    return [key for key, declared in _config_kinds().items() if declared is kind]


def config_lines(cfg: TrainConfig) -> list[str]:
    """One key=value line per field, in field order: a config file's lines."""
    return [f"{f.name}={format_value(getattr(cfg, f.name))}" for f in fields(cfg)]


def save_config(cfg: TrainConfig, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(config_lines(cfg)) + "\n")


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def load_config(path) -> TrainConfig:
    """Parse key=value lines; each key takes its TrainConfig field's declared type."""
    kinds = _config_kinds()
    values: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            key, val = key.strip(), val.strip()
            kind = kinds.get(key)
            if kind is None:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if kind is bool:
                if val.lower() not in ("true", "false"):
                    raise ValueError(f"{path}:{lineno}: {key} must be true or false, got {val!r}")
                values[key] = val.lower() == "true"
                continue
            try:
                values[key] = kind(val)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be {'a number' if kind is float else 'an integer'}, "
                                 f"got {val!r}") from None
    return TrainConfig(**values)


# ---------------------------------------------------------------------------
# model containers and checkpoints


@dataclass
class Stage1Model:
    encoder: Encoder
    decoder: Decoder
    codebook: Codebook
    disc: Discriminator
    cfg: TrainConfig

    @classmethod
    def build(cls, cfg: TrainConfig, rng: np.random.Generator) -> Stage1Model:
        """Fresh model; encoder, decoder, codebook and discriminator draw from rng in that order."""
        return cls(Encoder(cfg, rng), Decoder(cfg, rng), Codebook(cfg.n_codes, cfg.code_dim, rng),
                   Discriminator(cfg, rng), cfg)

    def named_params(self):
        """Every tensor a checkpoint stores, in checkpoint order."""
        return (self.encoder.named_params() + self.decoder.named_params() + self.disc.named_params()
                + [("codebook.codes", self.codebook.codes)])


@dataclass
class Stage2Model:
    encoder: Encoder  # low-light encoder (trainable copy)
    encoder_ref: Encoder  # frozen stage-1 encoder for clean targets
    decoder: Decoder  # core frozen, fusion convs trainable
    codebook: Codebook  # frozen
    disc: Discriminator
    lqm: LqmState | None
    prompts: PromptPyramid | None
    cfg: TrainConfig

    def named_params(self):
        """Every tensor a checkpoint stores, in checkpoint order."""
        out = (self.encoder.named_params("encoder2") + self.encoder_ref.named_params()
               + self.decoder.named_params() + self.disc.named_params())
        if self.lqm is not None:
            out += self.lqm.named_params()
        if self.prompts is not None:
            out += self.prompts.named_params()
        return out + [("codebook.codes", self.codebook.codes)]


def _stage2_model(stage1: Stage1Model, cfg: TrainConfig, rng: np.random.Generator) -> Stage2Model:
    """Stage-2 model around a stage-1 model's parts, with the stage-2 freezes.

    The low-light encoder starts as a copy of the stage-1 encoder; it is
    drawn from rng first so the LQM and prompt draws that follow keep
    their order.
    """
    encoder2 = Encoder(cfg, rng)
    for (_, dst), (_, src) in zip(encoder2.named_params(), stage1.encoder.named_params()):
        dst.data[:] = src.data
    channels = tap_channels(cfg)
    lqm = LqmState(rng, channels, d_l=cfg.d_l) if cfg.use_lqm else None
    prompts = PromptPyramid(rng, channels, n_prompts=cfg.n_prompts) if cfg.use_lapm else None
    model = Stage2Model(encoder2, stage1.encoder, stage1.decoder, stage1.codebook, stage1.disc,
                        lqm, prompts, cfg)
    # permanent freezes: clean-path encoder, codebook, decoder core
    set_trainable(model.encoder_ref.named_params() + [("codebook.codes", model.codebook.codes)]
                  + model.decoder.core_named_params(), False)
    set_trainable(model.decoder.fusion_named_params(), cfg.use_fusion)
    return model


# the config values every checkpoint records; stage-2 checkpoints add the use_* flags
_CONFIG_KEYS = ("seed", "n_codes", "code_dim", "base_channels", "n_down", "n_prompts", "d_l", "crop")


def model_entries(model: Stage1Model | Stage2Model) -> dict[str, np.ndarray]:
    """Checkpoint entries: architecture config, stage marker, parameters."""
    stage2 = isinstance(model, Stage2Model)
    entries = {f"config/{k}": np.asarray(float(getattr(model.cfg, k))) for k in _CONFIG_KEYS}
    entries["config/stage"] = np.asarray(2.0 if stage2 else 1.0)
    entries.update({f"config/{k}": np.asarray(float(getattr(model.cfg, k))) for k in _keys_of_type(bool) if stage2})
    for name, p in model.named_params():
        entries[name] = p.data
    return entries


def save_model(model, path) -> None:
    save_checkpoint(model_entries(model), path)


def _check_recorded_sizes(recorded: dict, entries: dict[str, np.ndarray]) -> None:
    """Raise CompatibilityError for the first recorded size its entry disagrees with.  It runs
    before a config or model is built from them, so what a load allocates grows with the file."""
    n_down = recorded["n_down"]
    found = next(i for i in itertools.count() if f"encoder.down{i}.weight" not in entries)
    if found != n_down:
        raise CompatibilityError(f"config/n_down is {n_down}, but encoder.down{min(found, n_down)}.weight is "
                                 + ("missing" if found < n_down else "present"))
    checks = [("n_codes", "codebook.codes", 0, recorded["n_codes"]),
              ("code_dim", "codebook.codes", 1, recorded["code_dim"])]
    checks += [("base_channels", f"encoder.down{i}.weight", 0, recorded["base_channels"] * 2 ** i)
               for i in range(n_down)]
    checks += [("n_prompts", "prompt.level0.prompts", 0, recorded["n_prompts"])] if recorded["use_lapm"] else []
    checks += [("d_l", "lqm.level0.affine2.weight", 0, recorded["d_l"])] if recorded["use_lqm"] else []
    for key, name, axis, want in checks:
        if name not in entries:
            raise CompatibilityError(f"checkpoint missing parameter {name}")
        shape = entries[name].shape
        if len(shape) <= axis or shape[axis] != want:
            raise CompatibilityError(f"config/{key} is {recorded[key]}, so {name} needs {want} along axis {axis}, "
                                     f"but has shape {shape}")


def load_any(path) -> Stage1Model | Stage2Model:
    """Rebuild the stage-1 or stage-2 model a checkpoint holds, under the config recorded in it."""
    entries = load_checkpoint(path)
    for name, arr in entries.items():
        if not np.isfinite(arr).all():
            raise CompatibilityError(f"{path}: entry {name} holds NaN or inf")
    stage = int(entries.get("config/stage", np.asarray(0.0)).reshape(()))
    if stage not in (1, 2):
        raise CompatibilityError(f"{path}: unknown or missing stage marker")
    for k in _CONFIG_KEYS:
        if f"config/{k}" not in entries:
            raise CompatibilityError(f"checkpoint missing config/{k}")
    # a missing use_* flag reads as on in stage 2 and as off in stage 1, which has
    # no prompts, so its crop is not held to the prompt-patch rule
    default = np.asarray(float(stage == 2))
    recorded = {k: int(entries[f"config/{k}"].reshape(())) for k in _CONFIG_KEYS}
    recorded.update({k: bool(entries.get(f"config/{k}", default).reshape(())) for k in _keys_of_type(bool)})
    _check_recorded_sizes(recorded, entries)
    cfg = TrainConfig(**recorded)
    rng = np.random.default_rng(0)
    model = Stage1Model.build(cfg, rng)
    if stage == 2:
        model = _stage2_model(model, cfg, rng)
    for name, p in model.named_params():
        if name not in entries:
            raise CompatibilityError(f"checkpoint missing parameter {name}")
        if entries[name].shape != p.data.shape:
            raise CompatibilityError(f"{name}: checkpoint shape {entries[name].shape} vs model shape {p.data.shape}")
        p.data[:] = entries[name]
    return model


def check_stage1_sizes(stage1: Stage1Model, cfg: TrainConfig) -> None:
    """Raise CompatibilityError naming each size stage1 was built with that cfg disagrees on."""
    problems = [f"{k}: stage-1 model has {getattr(stage1.cfg, k)}, config wants {getattr(cfg, k)}"
                for k in ("n_codes", "code_dim", "base_channels", "n_down") if getattr(stage1.cfg, k) != getattr(cfg, k)]
    if problems:
        raise CompatibilityError("; ".join(problems))


# ---------------------------------------------------------------------------
# batching helpers


def require_crop(shapes, crop: int, kind: str) -> None:
    """Raise ShapeError naming the first image shape with a side shorter than crop."""
    for i, shape in enumerate(shapes):
        if min(shape[2:]) < crop:
            raise ShapeError(f"{kind} {i} has shape {shape}, smaller than crop {crop}")


def _crop(rng: np.random.Generator, crop: int, *imgs: np.ndarray) -> list[np.ndarray]:
    """Crop same-sized images, none smaller than crop, at one random offset; no draw if already crop-sized."""
    _, _, h, w = imgs[0].shape
    if h == crop and w == crop:
        return list(imgs)
    i = int(rng.integers(0, h - crop + 1))
    j = int(rng.integers(0, w - crop + 1))
    return [img[:, :, i : i + crop, j : j + crop] for img in imgs]


def _batch_images(rng, images: list[Tensor], batch_size: int, crop: int) -> Tensor:
    idx = rng.integers(0, len(images), size=batch_size)
    return Tensor(np.concatenate([_crop(rng, crop, images[i].data)[0] for i in idx]))


def _batch_pairs(rng, pairs: list[ImagePair], batch_size: int, crop: int) -> tuple[Tensor, Tensor]:
    idx = rng.integers(0, len(pairs), size=batch_size)
    lows, normals = zip(*(_crop(rng, crop, pairs[i].low.data, pairs[i].normal.data) for i in idx))
    return Tensor(np.concatenate(lows)), Tensor(np.concatenate(normals))


# ---------------------------------------------------------------------------
# stage 1


def pretrain_vqgan(images: list[Tensor], cfg: TrainConfig, log_hook=None):
    """Train encoder, decoder, codebook, discriminator on clean images.

    Returns (Stage1Model, loss log rows step,l_mae,l_cma,l_adv,l_total).
    """
    if not images:
        raise ValueError("pretrain_vqgan needs a non-empty image list")
    require_crop([image.data.shape for image in images], cfg.crop, "image")
    rng = np.random.default_rng(cfg.seed)
    model = Stage1Model.build(cfg, np.random.default_rng(rng.integers(0, 2**31)))
    gen_opt = OptimizerState(model.encoder.named_params() + model.decoder.named_params()
                             + [("codebook.codes", model.codebook.codes)], lr=cfg.lr)
    disc_opt = OptimizerState(model.disc.named_params(), lr=cfg.lr)
    rows = []
    for step in range(cfg.stage1_iters):
        I_h = _batch_images(rng, images, cfg.batch_size, cfg.crop)

        set_trainable(disc_opt.named_params, False)
        tape = Tape()
        with tape:
            Z, skips = model.encoder.forward(I_h)
            res = quantize_nearest(Z, model.codebook)
            I_rec = model.decoder.forward(res.quantized, skips)
            l_mae = l1_loss(I_h, I_rec)
            l_cma = codebook_matching_loss(Z, res.lookup, cfg.sigma)
            fake_logits = model.disc.forward(I_rec)
            l_adv = generator_loss(fake_logits, cfg.gamma)
            try:
                l_total = vq_total_loss(l_mae, l_cma, l_adv)
            except DivergenceError as err:
                raise DivergenceError(f"stage 1 step {step}: {err}") from err
        ad.backward(l_total, tape)
        _step_group(gen_opt, f"stage 1 step {step}: generator")
        _disc_step(model.disc, I_h, I_rec, cfg.gamma, disc_opt, f"stage 1 step {step}")

        rows.append((step, l_mae.item(), l_cma.item(), l_adv.item(), l_total.item()))
        if log_hook is not None:
            log_hook(step, rows[-1])
    return model, rows


def reconstruct(image: Tensor, model: Stage1Model):
    """Clean-path forward pass: encode, match codes, decode.  No grads."""
    Z, skips = model.encoder.forward(image)
    res = quantize_nearest(Z, model.codebook)
    return model.decoder.forward(res.quantized, skips), res


# ---------------------------------------------------------------------------
# stage 2


def train_enhancer(pairs: list[ImagePair], stage1: Stage1Model, cfg: TrainConfig,
                   step_hook=None, log_hook=None):
    """Stage-2 alternating training of a copy of stage1; stage1 itself is left unchanged.

    Per iteration: one tracked encoder pass per input, an LQM update on
    its detached skips, an enhancer update (encoder copy +
    prompts + fusion convs) with the combined objective, then a
    discriminator update.  Codebook and decoder core stay frozen
    throughout.  step_hook(phase, step, model) fires after each
    sub-step; loss rows are (step, l_adv, l_fml, l_rec, l_lcl, l_total).
    """
    if not pairs:
        raise ValueError("train_enhancer needs a non-empty pair list")
    check_stage1_sizes(stage1, cfg)
    require_crop([pair.low.data.shape for pair in pairs], cfg.crop, "pair")
    step_hook = step_hook or (lambda phase, step, model: None)
    rng = np.random.default_rng(cfg.seed + 1)
    model = _stage2_model(copy.deepcopy(stage1), cfg, np.random.default_rng(rng.integers(0, 2**31)))
    lqm, prompts = model.lqm, model.prompts

    enh_opt = OptimizerState(model.encoder.named_params("encoder2")
                             + (model.decoder.fusion_named_params() if cfg.use_fusion else [])
                             + (prompts.named_params() if prompts is not None else []), lr=cfg.lr)
    disc_opt = OptimizerState(model.disc.named_params(), lr=cfg.lr)
    lqm_opt = OptimizerState(lqm.named_params(), lr=cfg.lr) if lqm else None

    px = PerceptualExtractor(seed=cfg.seed + 7)
    rows = []

    def lqm_update(step: int, skips_ll: list[Tensor], skips_nl: list[Tensor]) -> None:
        """One step of the factor maps alone, on the detached skips:
        same-scene (low, normal) rows differ in lighting, normal rows share it."""
        set_trainable(lqm_opt.named_params, True)
        tape = Tape()
        with tape:
            loss = Tensor(0.0)
            for f_low, f_normal in zip(light_factors([ad.stop_gradient(s) for s in skips_ll], lqm),
                                       light_factors([ad.stop_gradient(s) for s in skips_nl], lqm)):
                loss = ad.add(loss, lqm_contrastive_loss(f_low, f_normal, cfg.margin))
        if not np.isfinite(loss.data):
            raise DivergenceError(f"stage 2 step {step}: LQM loss is not finite")
        ad.backward(loss, tape)
        _step_group(lqm_opt, f"stage 2 step {step}: LQM")
        set_trainable(lqm_opt.named_params, False)
        step_hook("lqm", step, model)

    total_warmup = cfg.lqm_warmup if lqm else 0
    for w in range(total_warmup):
        I_ll, I_nl = _batch_pairs(rng, pairs, cfg.batch_size, cfg.crop)
        # no tape is active, so these encodes run untracked
        lqm_update(-total_warmup + w, model.encoder.forward(I_ll)[1], model.encoder.forward(I_nl)[1])

    for step in range(cfg.stage2_iters):
        I_ll, I_nl = _batch_pairs(rng, pairs, cfg.batch_size, cfg.crop)

        # enhancer update: encoder copy, prompts, fusion
        set_trainable(disc_opt.named_params, False)
        with_targets = model.encoder_ref.forward(I_nl)  # untracked: params frozen, inputs constant
        Zq_h = quantize_nearest(with_targets[0], model.codebook).quantized
        tape = Tape()
        with tape:
            Z_ll, skips_ll = model.encoder.forward(I_ll)
            if lqm is not None:
                _, skips_nl = model.encoder.forward(I_nl)
                lqm_update(step, skips_ll, skips_nl)
            res = quantize_nearest(Z_ll, model.codebook)
            I_rec = model.decoder.forward(res.quantized, skips_ll, prompts=prompts)
            l_adv = generator_loss(model.disc.forward(I_rec), cfg.gamma)
            l_fml = feature_matching_loss(Z_ll, Zq_h, cfg.sigma)
            l_rec = reconstruction_loss(I_rec, I_nl, px)
            l_lcl = Tensor(0.0)
            if lqm is not None:
                for f_ll, f_nl, s in zip(light_factors(skips_ll, lqm), light_factors(skips_nl, lqm), skips_ll):
                    l_lcl = ad.add(l_lcl, light_consistency_loss(f_ll, f_nl, s.data.shape[2] * s.data.shape[3]))
            try:
                l_total = total_loss(l_adv, l_fml, l_rec, l_lcl, cfg.lambda_lcl)
            except DivergenceError as err:
                raise DivergenceError(f"stage 2 step {step}: {err}") from err
        ad.backward(l_total, tape)
        _step_group(enh_opt, f"stage 2 step {step}: enhancer")
        step_hook("enhancer", step, model)

        _disc_step(model.disc, I_nl, I_rec, cfg.gamma, disc_opt, f"stage 2 step {step}")
        step_hook("disc", step, model)

        rows.append((step, l_adv.item(), l_fml.item(), l_rec.item(), l_lcl.item(), l_total.item()))
        if log_hook is not None:
            log_hook(step, rows[-1])
    return model, rows


def enhance(image: Tensor, model: Stage2Model):
    """Single deterministic forward pass of the trained enhancer.

    Any image size: the input runs through fit_image and the output is
    cropped back to it; the match result covers the padded code grid.
    """
    Z, skips = model.encoder.forward(fit_image(image, model.cfg.n_down, model.prompts is not None))
    res = quantize_nearest(Z, model.codebook)
    out = model.decoder.forward(res.quantized, skips, prompts=model.prompts)
    h, w = image.data.shape[2:]
    if out.data.shape[2:] != (h, w):
        out = Tensor(np.ascontiguousarray(out.data[:, :, :h, :w]))
    return out, res


# ---------------------------------------------------------------------------
# evaluation harnesses


def evaluate_pairs(model: Stage2Model, pairs: list[ImagePair]) -> list[tuple]:
    """Rows (scene_id, psnr, ssim): each pair's enhanced low-light image against its normal-light reference."""
    rows = []
    for pair in pairs:
        out, _ = enhance(pair.low, model)
        rows.append((pair.scene_id, psnr(out, pair.normal), ssim(out, pair.normal)))
    return rows


# the paper's ablation grid: (label, TrainConfig flags), for sweep over replace(cfg, **flags)
ABLATION_VARIANTS = [
    ("baseline", dict(use_fusion=False, use_lqm=False, use_lapm=False)),
    ("ff", dict(use_fusion=True, use_lqm=False, use_lapm=False)),
    ("ff_lqm", dict(use_fusion=True, use_lqm=True, use_lapm=False)),
    ("ff_lapm", dict(use_fusion=True, use_lqm=False, use_lapm=True)),
    ("full", dict(use_fusion=True, use_lqm=True, use_lapm=True)),
]


def sweep(stage1: Stage1Model, train_pairs, eval_pairs, variants) -> list[tuple]:
    """Rows (label, mean psnr, mean ssim), one per (label, cfg) in variants, in their order:
    an enhancer trained from stage1 under cfg, scored on eval_pairs.  stage1 is left unchanged."""
    rows = []
    for label, cfg in variants:
        model, _ = train_enhancer(train_pairs, stage1, cfg)
        _, ps, ss = zip(*evaluate_pairs(model, eval_pairs))
        rows.append((label, float(np.mean(ps)), float(np.mean(ss))))
    return rows


def write_stage1_log(rows, path) -> None:
    write_loss_csv(path, ["step", "l_mae", "l_cma", "l_adv", "l_total"], rows)


def write_stage2_log(rows, path) -> None:
    write_loss_csv(path, ["step", "l_adv", "l_fml", "l_rec", "l_lcl", "l_total"], rows)
