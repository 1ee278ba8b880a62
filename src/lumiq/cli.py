"""Command-line surface for the enhancement pipeline.

One command per process.  Exit codes: 0 success, 1 usage error,
2 runtime error (divergence, I/O, incompatible checkpoints).  Every run
prints the resolved config and seed; artifacts carry no timestamps so
identical argv and seed reproduce them byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import logging
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor, check_gradients
from .codebook import activation_histogram, export_histogram_csv, quantize_nearest
from .data import DegradeParams, ImagePair, check_image, generate_pairs, read_image, write_image
from .lapm import PromptBank, compose_prompt, inject_prompt, prompt_weights
from .losses import (
    PerceptualExtractor,
    discriminator_loss,
    feature_matching_loss,
    generator_loss,
    l1_loss,
    reconstruction_loss,
    total_loss,
)
from .lqm import LqmState, light_consistency_loss, light_factors, lqm_contrastive_loss
from .metrics import psnr, ssim, write_metrics_csv
from .training import (
    Stage1Model,
    Stage2Model,
    TrainConfig,
    check_stage1_sizes,
    config_lines,
    enhance,
    fit_image,
    format_value,
    load_any,
    load_config,
    pretrain_vqgan,
    require_crop,
    save_model,
    train_enhancer,
    write_stage1_log,
    write_stage2_log,
)

log = logging.getLogger("lumiq")

_LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
GRADCHECK_TOLERANCE = 1e-4


class UsageError(ValueError):
    """Bad invocation that argparse cannot catch itself."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lumiq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=True):
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--out", required=out_required, help="output directory")

    p = sub.add_parser("synth-data", help="write synthetic low/normal PPM pairs + manifest")
    common(p)
    p.add_argument("--n", type=int, default=16, help="number of scene pairs")
    p.add_argument("--size", type=int, default=32, help="square scene size in pixels")

    p = sub.add_parser("pretrain", help="stage-1 training on the clean images of a dataset")
    common(p)
    p.add_argument("--data", required=True, help="directory holding manifest.csv")
    p.add_argument("--iters", dest="stage1_iters", type=int, default=None, help="override stage-1 iterations")
    p.add_argument("--codebook-size", dest="n_codes", type=int, default=None, help="override codebook entry count")

    p = sub.add_parser("train", help="stage-2 enhancer training from a stage-1 checkpoint")
    common(p)
    p.add_argument("--data", required=True, help="directory holding manifest.csv")
    p.add_argument("--ckpt", required=True, help="stage-1 checkpoint path")
    p.add_argument("--iters", dest="stage2_iters", type=int, default=None, help="override stage-2 iterations")
    p.add_argument("--lambda", dest="lambda_lcl", type=float, default=None,
                   help="override the consistency-loss weight")
    p.add_argument("--prompts", dest="n_prompts", type=int, default=None, help="override the prompt count")
    p.add_argument("--margin", type=float, default=None, help="override the contrastive margin")
    p.add_argument("--codebook-size", dest="n_codes", type=int, default=None, help="override codebook entry count")

    p = sub.add_parser("enhance", help="run the trained enhancer over PPM images")
    common(p)
    p.add_argument("--ckpt", required=True, help="stage-2 checkpoint path")
    p.add_argument("--images", required=True, help="PPM file or directory of PPM files")

    p = sub.add_parser("analyze-codes", help="code-activation histogram for a set of images")
    common(p)
    p.add_argument("--ckpt", required=True, help="stage-1 or stage-2 checkpoint path")
    p.add_argument("--images", required=True, help="PPM file or directory of PPM files")

    p = sub.add_parser("gradcheck", help="finite-difference check of every differentiable op")
    common(p, out_required=False)

    p = sub.add_parser("report", help="PSNR/SSIM tables for a trained enhancer on a dataset")
    common(p)
    p.add_argument("--ckpt", required=True, help="stage-2 checkpoint path")
    p.add_argument("--data", required=True, help="directory holding manifest.csv")
    return parser


def resolve_config(args) -> TrainConfig:
    """Config file (or defaults) plus flag overrides; an invalid result is a UsageError.

    An override flag's dest is the config key it sets."""
    try:
        cfg = load_config(args.config) if args.config else TrainConfig()
        return replace(cfg, **{f.name: getattr(args, f.name) for f in fields(cfg)
                               if getattr(args, f.name, None) is not None})
    except ValueError as err:
        raise UsageError(str(err)) from err


def print_resolved(args, cfg: TrainConfig) -> None:
    print(f"command={args.command}")
    for line in config_lines(cfg):
        print(line)
    for extra in ("n", "size", "images", "data", "ckpt", "out"):
        if getattr(args, extra, None) is not None:
            print(f"{extra}={getattr(args, extra)}")
    sys.stdout.flush()


# ---------------------------------------------------------------------------
# dataset plumbing

MANIFEST_NAME = "manifest.csv"
MANIFEST_HEADER = ["scene_id", "low_path", "normal_path", "gamma", "gain", "sigma"]


def write_manifest(pairs: list[ImagePair], out_dir: str) -> None:
    rows = []
    for pair in pairs:
        low_name = f"low_{pair.scene_id:04d}.ppm"
        normal_name = f"normal_{pair.scene_id:04d}.ppm"
        write_image(os.path.join(out_dir, low_name), pair.low)
        write_image(os.path.join(out_dir, normal_name), pair.normal)
        p = pair.params
        rows.append([pair.scene_id, low_name, normal_name,
                     format_value(p.gamma), format_value(p.gain), format_value(p.noise_sigma)])
    with open(os.path.join(out_dir, MANIFEST_NAME), "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(MANIFEST_HEADER)
        writer.writerows(rows)


def read_manifest(data_dir: str) -> list[ImagePair]:
    path = os.path.join(data_dir, MANIFEST_NAME)
    pairs = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != MANIFEST_HEADER:
            raise ValueError(f"{path}: expected header {','.join(MANIFEST_HEADER)}")
        for row in reader:
            scene_id, low_path, normal_path, gamma, gain, sigma = row
            params = DegradeParams(gamma=float(gamma), gain=float(gain), noise_sigma=float(sigma))
            pairs.append(ImagePair(
                low=read_image(os.path.join(data_dir, low_path)),
                normal=read_image(os.path.join(data_dir, normal_path)),
                scene_id=int(scene_id),
                params=params,
            ))
    if not pairs:
        raise ValueError(f"{path}: no data rows")
    return pairs


def require_dataset_crop(pairs: list[ImagePair], crop: int, data_dir: str) -> None:
    """Reject a dataset with an image smaller than crop as a usage error, before --out exists."""
    try:
        require_crop([pair.low.data.shape for pair in pairs], crop, "pair")
    except ShapeError as err:
        raise UsageError(f"{os.path.join(data_dir, MANIFEST_NAME)}: {err}") from err


def list_ppm_inputs(path: str) -> list[str]:
    if os.path.isdir(path):
        names = sorted(n for n in os.listdir(path) if n.endswith(".ppm"))
        if not names:
            raise ValueError(f"{path}: no .ppm files")
        return [os.path.join(path, n) for n in names]
    return [path]


# ---------------------------------------------------------------------------
# commands


def cmd_synth_data(args, cfg: TrainConfig) -> int:
    if args.n < 1 or args.size < 1:
        raise UsageError(f"--n and --size must be positive, got {args.n}, {args.size}")
    os.makedirs(args.out, exist_ok=True)
    pairs = generate_pairs(args.n, args.size, cfg.seed)
    write_manifest(pairs, args.out)
    log.info("wrote %d pairs and %s under %s", len(pairs), MANIFEST_NAME, args.out)
    return 0


def cmd_pretrain(args, cfg: TrainConfig) -> int:
    pairs = read_manifest(args.data)
    require_dataset_crop(pairs, cfg.crop, args.data)
    images = [pair.normal for pair in pairs]
    os.makedirs(args.out, exist_ok=True)
    every = max(1, cfg.stage1_iters // 10)

    def hook(step, row):
        if step % every == 0 or step == cfg.stage1_iters - 1:
            log.info("stage1 step %d: l_mae=%.5f l_cma=%.5f l_adv=%.5f l_total=%.5f", *row)
        else:
            log.debug("stage1 step %d: l_total=%.5f", step, row[4])

    model, rows = pretrain_vqgan(images, cfg, log_hook=hook)
    save_model(model, os.path.join(args.out, "stage1.ckpt"))
    write_stage1_log(rows, os.path.join(args.out, "stage1_loss.csv"))
    log.info("wrote stage1.ckpt and stage1_loss.csv under %s", args.out)
    return 0


def cmd_train(args, cfg: TrainConfig) -> int:
    pairs = read_manifest(args.data)
    stage1 = load_any(args.ckpt)
    if not isinstance(stage1, Stage1Model):
        raise UsageError(f"{args.ckpt} is not a stage-1 checkpoint")
    check_stage1_sizes(stage1, cfg)  # before --out exists; train_enhancer repeats both for library callers
    require_dataset_crop(pairs, cfg.crop, args.data)
    os.makedirs(args.out, exist_ok=True)
    every = max(1, cfg.stage2_iters // 10)

    def hook(step, row):
        if step % every == 0 or step == cfg.stage2_iters - 1:
            log.info("stage2 step %d: l_adv=%.5f l_fml=%.5f l_rec=%.5f l_lcl=%.3e l_total=%.5f", *row)
        else:
            log.debug("stage2 step %d: l_total=%.5f", step, row[5])

    model, rows = train_enhancer(pairs, stage1, cfg, log_hook=hook)
    save_model(model, os.path.join(args.out, "stage2.ckpt"))
    write_stage2_log(rows, os.path.join(args.out, "stage2_loss.csv"))
    log.info("wrote stage2.ckpt and stage2_loss.csv under %s", args.out)
    return 0


def cmd_enhance(args, cfg: TrainConfig) -> int:
    model = load_any(args.ckpt)
    if not isinstance(model, Stage2Model):
        raise UsageError(f"{args.ckpt} is not a stage-2 checkpoint")
    paths = list_ppm_inputs(args.images)
    for path in paths:  # a malformed file fails before anything is written
        check_image(path)
    os.makedirs(args.out, exist_ok=True)
    counts = np.zeros(model.codebook.n_codes, dtype=np.int64)
    for path in paths:  # one decoded image alive at a time
        out, res = enhance(read_image(path), model)
        counts += activation_histogram([res], model.codebook.n_codes)
        dest = os.path.join(args.out, f"enhanced_{os.path.basename(path)}")
        write_image(dest, out)
        log.info("enhanced %s -> %s", path, dest)
    export_histogram_csv(counts, os.path.join(args.out, "histogram.csv"))
    log.info("wrote code-activation histogram.csv under %s", args.out)
    return 0


def cmd_analyze_codes(args, cfg: TrainConfig) -> int:
    model = load_any(args.ckpt)
    counts = np.zeros(model.codebook.n_codes, dtype=np.int64)
    positions = 0
    for path in list_ppm_inputs(args.images):
        Z, _ = model.encoder.forward(fit_image(read_image(path), model.cfg.n_down, prompts=False))
        counts += activation_histogram([quantize_nearest(Z, model.codebook)], model.codebook.n_codes)
        positions += Z.data.shape[0] * Z.data.shape[2] * Z.data.shape[3]
    os.makedirs(args.out, exist_ok=True)
    export_histogram_csv(counts, os.path.join(args.out, "histogram.csv"))
    total = int(counts.sum())
    if total != positions:
        raise RuntimeError(f"histogram counts {total} do not cover {positions} code positions")
    log.info("histogram over %d code positions written under %s", positions, args.out)
    return 0


def cmd_report(args, cfg: TrainConfig) -> int:
    model = load_any(args.ckpt)
    if not isinstance(model, Stage2Model):
        raise UsageError(f"{args.ckpt} is not a stage-2 checkpoint")
    pairs = read_manifest(args.data)
    os.makedirs(args.out, exist_ok=True)
    enhanced_rows, raw_rows = [], []
    for pair in pairs:
        out, _ = enhance(pair.low, model)
        enhanced_rows.append((pair.scene_id, psnr(out, pair.normal), ssim(out, pair.normal)))
        raw_rows.append((pair.scene_id, psnr(pair.low, pair.normal), ssim(pair.low, pair.normal)))
    write_metrics_csv(enhanced_rows, os.path.join(args.out, "metrics_enhanced.csv"))
    write_metrics_csv(raw_rows, os.path.join(args.out, "metrics_raw.csv"))
    mean_enh_p = float(np.mean([r[1] for r in enhanced_rows]))
    mean_raw_p = float(np.mean([r[1] for r in raw_rows]))
    mean_enh_s = float(np.mean([r[2] for r in enhanced_rows]))
    mean_raw_s = float(np.mean([r[2] for r in raw_rows]))
    print(f"enhanced psnr={mean_enh_p:.4f} ssim={mean_enh_s:.4f}")
    print(f"raw psnr={mean_raw_p:.4f} ssim={mean_raw_s:.4f}")
    print(f"psnr gain={mean_enh_p - mean_raw_p:.4f}")
    return 0


# ---------------------------------------------------------------------------
# gradcheck suite


def _away_from_zero(rng, shape, low=0.2, high=1.0):
    data = rng.uniform(low, high, size=shape)
    return data * np.where(rng.random(shape) < 0.5, -1.0, 1.0)


def gradcheck_cases(seed: int):
    """(name, scalar function, probe tensor) triples covering every op."""
    rng = np.random.default_rng(seed)
    cases = []

    x_img = Tensor(_away_from_zero(rng, (2, 3, 6, 6)))
    w = Tensor(rng.normal(0, 0.5, size=(4, 3, 3, 3)))
    b = Tensor(rng.normal(size=4))
    cases.append(("conv2d/input", lambda t: ad.sum_all(ad.square(ad.conv2d(t, w, b, pad=1))), x_img))
    cases.append(("conv2d/weight", lambda t: ad.sum_all(ad.square(ad.conv2d(x_img, t, b, pad=1))), w))
    cases.append(("conv2d/bias", lambda t: ad.sum_all(ad.square(ad.conv2d(x_img, w, t, pad=1))), b))
    cases.append(("conv2d/strided", lambda t: ad.sum_all(ad.square(ad.conv2d(t, w, b, stride=2, pad=1))), x_img))
    cases.append(("conv2d/weight-unpadded", lambda t: ad.sum_all(ad.square(ad.conv2d(x_img, t, b))), w))
    w_1x1 = Tensor(w.data[:, :, 1:2, 1:2])  # a slice of w, so later probes draw as before
    cases.append(("conv2d/1x1", lambda t: ad.sum_all(ad.square(ad.conv2d(t, w_1x1, b))), x_img))
    cases.append(("avg_pool2d", lambda t: ad.sum_all(ad.square(ad.avg_pool2d(t, 2))), x_img))
    cases.append(("upsample_nearest", lambda t: ad.sum_all(ad.square(ad.upsample_nearest(t, 2))), x_img))

    x_soft = Tensor(rng.normal(size=(2, 5, 2, 2)))
    cases.append(("softmax_channels",
                  lambda t: ad.sum_all(ad.square(ad.softmax_channels(t))), x_soft))

    feat = Tensor(rng.normal(size=(2, 4, 5, 5)))
    cases.append(("gram", lambda t: ad.sum_all(ad.square(ad.gram(t))), feat))

    rows = Tensor(rng.normal(size=(3, 6)))
    mix_w = Tensor(rng.uniform(0.1, 1.0, size=(4, 3, 1, 1)))
    cases.append(("mix_rows/rows", lambda t: ad.sum_all(ad.square(ad.mix_rows(mix_w, t))), rows))
    cases.append(("mix_rows/weights", lambda t: ad.sum_all(ad.square(ad.mix_rows(t, rows))), mix_w))

    x_cat = Tensor(rng.normal(size=(1, 2, 3, 3)))
    other = Tensor(rng.normal(size=(1, 3, 3, 3)))
    cases.append(("concat_slice",
                  lambda t: ad.sum_all(ad.square(
                      ad.slice_channels(ad.concat_channels(t, other), 1, 4))), x_cat))
    x_rs = Tensor(rng.normal(size=(2, 3, 2, 2)))
    cases.append(("reshape", lambda t: ad.sum_all(ad.square(ad.reshape(t, (4, 6)))), x_rs))

    x_el = Tensor(_away_from_zero(rng, (3, 4)))
    cases.append(("sigmoid", lambda t: ad.sum_all(ad.sigmoid(t)), x_el))
    cases.append(("log_sigmoid", lambda t: ad.sum_all(ad.log_sigmoid(t)), x_el))
    cases.append(("leaky_relu", lambda t: ad.sum_all(ad.square(ad.leaky_relu(t))), x_el))
    cases.append(("relu", lambda t: ad.sum_all(ad.square(ad.relu(t))), x_el))
    cases.append(("sqrt", lambda t: ad.sum_all(ad.sqrt(ad.square(t))), x_el))
    cases.append(("arith_chain",
                  lambda t: ad.mean_all(ad.div(ad.mul(t, t), ad.add(ad.square(t), Tensor(1.0)))), x_el))

    a = Tensor(rng.normal(size=(2, 3, 4, 4)))
    b_off = Tensor(a.data + _away_from_zero(rng, a.data.shape, 0.3, 0.8))
    cases.append(("l1_loss", lambda t: l1_loss(t, b_off), a))

    logits = Tensor(rng.normal(size=(2, 1, 3, 3)))
    logits2 = Tensor(rng.normal(size=(2, 1, 3, 3)))
    cases.append(("adversarial/disc_real", lambda t: discriminator_loss(t, logits2, 0.1), logits))
    cases.append(("adversarial/disc_fake", lambda t: discriminator_loss(logits, t, 0.1), logits2))
    cases.append(("adversarial/generator", lambda t: generator_loss(t, 0.1), logits))

    z_ll = Tensor(rng.normal(size=(1, 4, 3, 3)))
    z_h = Tensor(rng.normal(size=(1, 4, 3, 3)))
    cases.append(("feature_matching", lambda t: feature_matching_loss(t, z_h, 0.25), z_ll))
    cases.append(("codebook_matching/encoder-term",
                  lambda t: ad.mul(Tensor(0.25), ad.mean_all(ad.square(ad.sub(t, z_h)))), z_ll))
    cases.append(("codebook_matching/code-term",
                  lambda t: ad.mean_all(ad.square(ad.sub(z_ll, t))), z_h))

    fa = _away_from_zero(rng, 6)
    fb = _away_from_zero(rng, 6)
    cases.append(("light_consistency",
                  lambda t: light_consistency_loss(t, Tensor(fb[None]), 9), Tensor(fa[None])))

    # the probe's normal rows fa and far_same sit at cosine distance ~0.4
    # (> margin), and fa's low row near_diff is nearly parallel to it
    # (distance ~1e-4 < margin), so both hinge branches are active
    unit_a = fa / np.linalg.norm(fa)
    raw = rng.normal(size=6)
    perp = raw - raw.dot(unit_a) * unit_a
    perp /= np.linalg.norm(perp)
    scale = np.linalg.norm(fa)
    far_same = scale * (0.6 * unit_a + 0.8 * perp)
    near_diff = 1.3 * fa + 0.01 * scale * perp
    f_low = Tensor(np.stack([near_diff, -far_same]))
    cases.append(("lqm_contrastive", lambda t: lqm_contrastive_loss(f_low, t, 0.1),
                  Tensor(np.stack([fa, far_same]))))

    lqm = LqmState(rng, [4], d_l=5)
    cases.append(("light_factors",
                  lambda t: ad.sum_all(ad.square(light_factors([t], lqm)[0])),
                  Tensor(rng.normal(size=(2, 4, 3, 3)))))

    bank = PromptBank(rng, 3, 4)
    f_e = Tensor(rng.normal(size=(1, 4, 4, 4)))

    def lapm_path(t):
        wts = prompt_weights(t, bank, 2)
        return ad.sum_all(ad.square(inject_prompt(t, compose_prompt(wts, bank, 2), bank)))

    cases.append(("prompt_pipeline", lapm_path, f_e))

    px = PerceptualExtractor(seed=seed)
    i_rec = Tensor(rng.uniform(0.2, 0.8, size=(1, 3, 8, 8)))
    i_ref = Tensor(np.clip(i_rec.data + _away_from_zero(rng, i_rec.data.shape, 0.1, 0.2), 0, 1))
    cases.append(("reconstruction", lambda t: reconstruction_loss(t, i_ref, px), i_rec))

    t0 = _away_from_zero(rng, (2, 3, 4, 4), 0.5, 1.5)
    ref = Tensor(t0 - _away_from_zero(rng, t0.shape, 0.3, 0.8))

    def combined(t):
        return total_loss(ad.mean_all(ad.square(t)), ad.mean_all(ad.absolute(t)),
                          l1_loss(t, ref), ad.mean_all(ad.square(ad.sub(t, ref))), TrainConfig.lambda_lcl)

    cases.append(("total_loss", combined, Tensor(t0)))
    return cases


def run_gradcheck(seed: int) -> list[tuple[str, float]]:
    return [(name, check_gradients(fn, probe)) for name, fn, probe in gradcheck_cases(seed)]


def cmd_gradcheck(args, cfg: TrainConfig) -> int:
    results = run_gradcheck(cfg.seed)
    worst = 0.0
    for name, err in results:
        log.info("gradcheck %-32s %.3e", name, err)
        worst = max(worst, err)
    print(f"max relative error: {worst:.6e}")
    if worst >= GRADCHECK_TOLERANCE:
        raise RuntimeError(f"gradcheck max relative error {worst:.3e} >= {GRADCHECK_TOLERANCE}")
    return 0


_COMMANDS = {
    "synth-data": cmd_synth_data,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "enhance": cmd_enhance,
    "analyze-codes": cmd_analyze_codes,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def _setup_logging() -> None:
    level_name = os.environ.get("LUMIQ_LOG_LEVEL", "info")
    if level_name not in _LOG_LEVELS:
        raise UsageError(
            f"LUMIQ_LOG_LEVEL must be one of {sorted(_LOG_LEVELS)}, got {level_name!r}")
    log.handlers.clear()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    log.addHandler(handler)
    log.propagate = False
    log.setLevel(_LOG_LEVELS[level_name])


def run(argv) -> int:
    """Dispatch one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_call:
        return 0 if exit_call.code == 0 else 1
    try:
        _setup_logging()
        cfg = resolve_config(args)
        print_resolved(args, cfg)
        return _COMMANDS[args.command](args, cfg)
    except UsageError as err:
        print(f"usage error: {args.command}: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # runtime failures map to exit code 2
        print(f"error: {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
