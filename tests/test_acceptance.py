"""Acceptance gate: one test per shipping criterion, each printing a
pass/fail verdict line (also collected into the terminal summary).

The expensive artifacts (a full toy training run and a dedicated audited
stage-2 run) are session fixtures shared across criteria.  Run this
module with `-s` to stream the verdict lines live.
"""

import csv
import functools
import hashlib
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import ACCEPTANCE_RESULTS
from lumiq import autodiff as ad
from lumiq.autodiff import Tensor
from lumiq.cli import run as cli_run, run_gradcheck
from lumiq.codebook import Codebook, activation_histogram, histogram_distance, quantize_nearest, codebook_matching_loss
from lumiq.data import generate_pairs
from lumiq.losses import feature_matching_loss, total_loss
from lumiq.lqm import light_consistency_loss, lqm_contrastive_loss
from lumiq.metrics import psnr, ssim
from lumiq.training import (
    ABLATION_VARIANTS,
    TrainConfig,
    enhance,
    evaluate_pairs,
    pretrain_vqgan,
    reconstruct,
    save_config,
    sweep,
    train_enhancer,
)

GRAD_TOL = 1e-4
ALGEBRA_TOL = 1e-10


def criterion(label):
    """Record and print one acceptance verdict line per criterion."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kw):
            try:
                fn(*args, **kw)
            except BaseException:
                print(f"criterion {label}: FAIL", flush=True)
                ACCEPTANCE_RESULTS.append((label, "FAIL"))
                raise
            print(f"criterion {label}: PASS", flush=True)
            ACCEPTANCE_RESULTS.append((label, "PASS"))

        return wrapper

    return deco


@pytest.fixture(scope="session")
def toy():
    """The full toy pipeline: 64 pairs at 32x32, 8 held out, default config."""
    started = time.monotonic()
    pairs = generate_pairs(64, 32, seed=11)
    train_pairs, held_out = pairs[:56], pairs[56:]
    cfg = TrainConfig(seed=11)
    stage1, rows1 = pretrain_vqgan([p.normal for p in train_pairs], cfg)
    stage2, rows2 = train_enhancer(train_pairs, stage1, cfg)
    elapsed = time.monotonic() - started
    return dict(cfg=cfg, train_pairs=train_pairs, held_out=held_out,
                stage1=stage1, rows1=rows1, stage2=stage2, rows2=rows2,
                elapsed=elapsed)


@pytest.fixture(scope="session")
def audited_run(toy):
    """Dedicated 200-step stage-2 run with per-step freeze/alternation audits."""
    stage1 = toy["stage1"]
    codes0 = stage1.codebook.codes.data.copy()
    core0 = {name: p.data.copy() for name, p in stage1.decoder.core_named_params()}
    counts = {"lqm": 0, "enhancer": 0, "disc": 0}
    failures = []
    last = {}

    def digest(named_params):
        h = hashlib.sha256()
        for name, p in named_params:
            h.update(name.encode())
            h.update(p.data.tobytes())
        return h.hexdigest()

    def audit(phase, step, model):
        counts[phase] += 1
        if not np.array_equal(model.codebook.codes.data, codes0):
            failures.append(f"{phase} step {step}: codebook moved")
        for name, p in model.decoder.core_named_params():
            if not np.array_equal(p.data, core0[name]):
                failures.append(f"{phase} step {step}: decoder core {name} moved")
                break
        lqm_d = digest(model.lqm.named_params())
        enh_d = digest(model.encoder.named_params("encoder2")
                       + model.decoder.fusion_named_params()
                       + model.prompts.named_params())
        if last:
            if phase == "lqm" and enh_d != last["enh"]:
                failures.append(f"lqm step {step}: enhancer params changed")
            if phase == "enhancer" and lqm_d != last["lqm"]:
                failures.append(f"enhancer step {step}: LQM params changed")
            if phase == "disc" and (enh_d != last["enh"] or lqm_d != last["lqm"]):
                failures.append(f"disc step {step}: non-discriminator params changed")
        last["lqm"], last["enh"] = lqm_d, enh_d

    cfg = TrainConfig(seed=11, stage2_iters=200, lqm_warmup=20)
    train_enhancer(toy["train_pairs"], stage1, cfg, step_hook=audit)
    return dict(counts=counts, failures=failures)


@criterion("1 gradient suite: every op and loss < 1e-4 over 20 seeds")
def test_gradient_suite():
    started = time.monotonic()
    worst = 0.0
    for seed in range(20):
        for name, err in run_gradcheck(seed):
            assert err < GRAD_TOL, f"seed {seed} {name}: {err:.3e}"
            worst = max(worst, err)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"gradient suite took {elapsed:.0f}s"
    assert worst > 0.0


@criterion("2 quantizer matches exhaustive scan on 1000 instances incl. ties")
def test_quantizer_oracle():
    def exhaustive(Z, codes):
        b, _, h, w = Z.shape
        idx = np.zeros((b, h, w), dtype=np.int64)
        for bi in range(b):
            for i in range(h):
                for j in range(w):
                    z = Z[bi, :, i, j]
                    best, best_dist = 0, None
                    for k in range(codes.shape[0]):
                        dist = float(np.sum((z - codes[k]) ** 2))
                        if best_dist is None or dist < best_dist:
                            best, best_dist = k, dist
                    idx[bi, i, j] = best
        return idx

    started = time.monotonic()
    tie_instances = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 7))
        h, w = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n = int(rng.integers(2, 17))
        cb = Codebook(n, d, rng)
        if seed % 5 == 0:
            # integer grid + duplicated rows force exact distance ties
            cb.codes.data[:] = rng.integers(-2, 3, size=(n, d)).astype(np.float64)
            lo, hi = sorted(rng.choice(n, size=2, replace=False))
            cb.codes.data[hi] = cb.codes.data[lo]
            Z = rng.integers(-2, 3, size=(1, d, h, w)).astype(np.float64)
            Z[0, :, 0, 0] = cb.codes.data[lo]
            tie_instances += 1
        else:
            Z = rng.normal(size=(1, d, h, w))
        res = quantize_nearest(Tensor(Z), cb)
        expected = exhaustive(Z, cb.codes.data)
        assert np.array_equal(res.indices, expected), f"seed {seed}"
        gathered = cb.codes.data[expected].transpose(0, 3, 1, 2)
        assert np.array_equal(res.quantized.data, gathered), f"seed {seed}: rows not bit-equal"
    elapsed = time.monotonic() - started
    assert tie_instances == 200
    assert elapsed < 30.0, f"quantizer oracle took {elapsed:.1f}s"


@criterion("3 loss algebra matches direct oracles to 1e-10 with exact hinges")
def test_loss_algebra():
    rng = np.random.default_rng(42)

    for _ in range(10):
        Z = rng.normal(size=(2, 4, 3, 3))
        Zq = rng.normal(size=(2, 4, 3, 3))
        sigma = float(rng.uniform(0.1, 0.9))
        got = codebook_matching_loss(Tensor(Z), Tensor(Zq), sigma).item()
        expected = (sigma + 1.0) * np.mean((Z - Zq) ** 2)
        assert abs(got - expected) < ALGEBRA_TOL

    for _ in range(10):
        d_l, n_l = int(rng.integers(2, 9)), int(rng.integers(1, 20))
        fa, fb = rng.normal(size=d_l), rng.normal(size=d_l)
        got = light_consistency_loss(Tensor(fa[None]), Tensor(fb[None]), n_l).item()
        expected = np.sum((fa - fb) ** 2) / (4.0 * d_l**2 * n_l**2)
        assert abs(got - expected) < ALGEBRA_TOL
    f_same = rng.normal(size=(1, 5))
    zero = light_consistency_loss(Tensor(f_same), Tensor(f_same.copy()), 3).item()
    assert zero == 0.0
    nonzero = light_consistency_loss(Tensor(f_same), Tensor(f_same + 1e-8), 3).item()
    assert nonzero > 0.0

    def cosine_dist(a, b):
        return 1.0 - a.dot(b) / (np.linalg.norm(a) * np.linalg.norm(b))

    margin = 0.1
    for _ in range(10):
        b = int(rng.integers(1, 6))
        f_low, f_normal = (rng.uniform(0.2, 1.0, size=(b, 4)) * rng.choice([-1.0, 1.0], size=(b, 4))
                           for _ in range(2))
        got = lqm_contrastive_loss(Tensor(f_low), Tensor(f_normal), margin).item()
        expected = sum(max(margin - cosine_dist(f_low[i], f_normal[i]), 0.0) ** 2 for i in range(b))
        for i in range(b):
            for j in range(i + 1, b):
                expected += max(cosine_dist(f_normal[i], f_normal[j]) - margin, 0.0) ** 2
        assert abs(got - expected) < ALGEBRA_TOL
    # hinge exactness: a near-parallel same-lighting pair and an orthogonal
    # different-lighting pair both contribute exactly zero
    base = np.array([1.0, 2.0, 0.5, -0.3])
    hinge_zero = lqm_contrastive_loss(Tensor(np.stack([-base, -base])), Tensor(np.stack([base, base * 3.0])),
                                      margin).item()
    assert hinge_zero == 0.0
    ortho = lqm_contrastive_loss(Tensor(np.array([[1.0, 0.0]])), Tensor(np.array([[0.0, 1.0]])), margin).item()
    assert ortho == 0.0

    def gram_np(z):
        b, c = z.shape[0], z.shape[1]
        flat = z.reshape(b, c, -1)
        return np.einsum("bcp,bdp->bcd", flat, flat)

    for _ in range(10):
        Z_ll = rng.normal(size=(2, 3, 4, 4))
        Zq_h = rng.normal(size=(2, 3, 4, 4))
        sigma = float(rng.uniform(0.1, 0.9))
        got = feature_matching_loss(Tensor(Z_ll), Tensor(Zq_h), sigma).item()
        expected = sigma * np.mean((Z_ll - Zq_h) ** 2) \
            + np.mean((gram_np(Z_ll) - gram_np(Zq_h)) ** 2)
        assert abs(got - expected) < ALGEBRA_TOL

    for _ in range(10):
        a, f, r, l = rng.normal(size=4)
        lam = float(rng.uniform(0.001, 1.0))
        got = total_loss(Tensor(a), Tensor(f), Tensor(r), Tensor(l), lam).item()
        assert abs(got - (a + f + r + lam * l)) < ALGEBRA_TOL


@criterion("4 prompt weights sum to 1 and Grams are symmetric PSD")
def test_probability_and_normalization(toy):
    # worst per-patch softmax deviation observed over the whole toy run
    dev = toy["stage2"].prompts.max_weight_sum_dev
    assert dev < 1e-10, f"weight sums drifted by {dev:.2e}"

    rng = np.random.default_rng(0)
    features = [Tensor(rng.normal(size=(1, int(rng.integers(2, 8)), 5, 5))) for _ in range(10)]
    for pair in toy["held_out"][:3]:
        _, skips = toy["stage2"].encoder.forward(pair.low)
        features.extend(Tensor(s.data[:1]) for s in skips)
    for feat in features:
        G = ad.gram(feat).data[0, 0]
        assert np.abs(G - G.T).max() < 1e-10
        for _ in range(100):
            v = rng.normal(size=G.shape[0])
            v /= np.linalg.norm(v)
            assert v @ G @ v >= -1e-9


@criterion("5 freeze and alternation contract over a 200-step audited run")
def test_freeze_alternation(audited_run):
    assert audited_run["failures"] == []
    assert audited_run["counts"]["enhancer"] == 200
    assert audited_run["counts"]["lqm"] == 220  # 20 warmup + 200 alternating
    assert audited_run["counts"]["disc"] == 200


@criterion("6 toy run: held-out PSNR gain >= 3 dB and SSIM improves")
def test_toy_end_to_end(toy):
    assert toy["elapsed"] < 1800.0, f"toy pipeline took {toy['elapsed']:.0f}s"
    _, enh_ps, enh_ss = zip(*evaluate_pairs(toy["stage2"], toy["held_out"]))
    enh_psnr, enh_ssim = float(np.mean(enh_ps)), float(np.mean(enh_ss))
    raw_psnr = float(np.mean([psnr(p.low, p.normal) for p in toy["held_out"]]))
    raw_ssim = float(np.mean([ssim(p.low, p.normal) for p in toy["held_out"]]))
    print(f"  held-out: enhanced {enh_psnr:.2f} dB / {enh_ssim:.4f}"
          f" vs raw {raw_psnr:.2f} dB / {raw_ssim:.4f}", flush=True)
    assert enh_psnr >= raw_psnr + 3.0
    assert enh_ssim > raw_ssim


@criterion("7 ablation grid runs and full model >= baseline PSNR")
def test_ablation_ordering(toy):
    cfg = TrainConfig(seed=11, stage2_iters=400, lqm_warmup=50)
    rows = sweep(toy["stage1"], toy["train_pairs"], toy["held_out"],
                 [(name, replace(cfg, **flags)) for name, flags in ABLATION_VARIANTS])
    assert [r[0] for r in rows] == ["baseline", "ff", "ff_lqm", "ff_lapm", "full"]
    by_name = {name: p for name, p, _ in rows}
    print("  " + "  ".join(f"{name}={p:.2f}" for name, p, _ in rows), flush=True)
    assert all(np.isfinite(p) for p in by_name.values())
    assert by_name["full"] >= by_name["baseline"]


@criterion("8 enhanced low-light code histogram moves toward the clean one")
def test_code_activation_trend(toy):
    def usage(encoder, model, images):
        return sum(activation_histogram([quantize_nearest(encoder.forward(image)[0], model.codebook)],
                                        model.codebook.n_codes) for image in images)

    s1, s2 = toy["stage1"], toy["stage2"]
    held = toy["held_out"]
    h_clean = usage(s1.encoder, s1, [p.normal for p in held])
    h_low_raw = usage(s1.encoder, s1, [p.low for p in held])
    h_low_enh = usage(s2.encoder, s2, [p.low for p in held])
    d_enh = histogram_distance(h_low_enh, h_clean)
    d_raw = histogram_distance(h_low_raw, h_clean)
    print(f"  histogram distance to clean: enhanced {d_enh:.4f} vs raw {d_raw:.4f}", flush=True)
    assert d_enh < d_raw


@criterion("9 lambda and prompt-count sweeps run and emit a comparison CSV")
def test_config_sweeps(toy, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweeps")
    cfg = TrainConfig(seed=11, stage2_iters=150, lqm_warmup=30)
    lam_rows = sweep(toy["stage1"], toy["train_pairs"], toy["held_out"],
                     [(lam, replace(cfg, lambda_lcl=lam)) for lam in (1.0, 0.5, 0.001)])
    prm_rows = sweep(toy["stage1"], toy["train_pairs"], toy["held_out"],
                     [(n, replace(cfg, n_prompts=n)) for n in (3, 4, 5, 6)])
    path = out / "sweeps.csv"
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sweep", "value", "psnr", "ssim"])
        for lam, p, s in lam_rows:
            writer.writerow(["lambda", f"{lam:.12g}", f"{p:.12g}", f"{s:.12g}"])
        for n, p, s in prm_rows:
            writer.writerow(["n_prompts", n, f"{p:.12g}", f"{s:.12g}"])
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["sweep", "value", "psnr", "ssim"]
    assert len(rows) == 8
    assert all(np.isfinite(float(r[2])) and np.isfinite(float(r[3])) for r in rows[1:])
    assert [float(r[1]) for r in rows[1:4]] == [1.0, 0.5, 0.001]
    assert [int(r[1]) for r in rows[4:]] == [3, 4, 5, 6]


@criterion("10 identical command and seed reproduce artifacts byte for byte")
def test_cli_determinism(tmp_path_factory):
    import os

    def read_tree(root):
        out = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = fh.read()
        return out

    def chain(root):
        cfg = TrainConfig(seed=3, batch_size=2, crop=16, stage1_iters=25, stage2_iters=5,
                          lqm_warmup=2, n_prompts=3, n_codes=16, code_dim=8,
                          base_channels=4, n_down=2, d_l=6, lr=1e-3)
        cfg_path = root / "cfg.txt"
        save_config(cfg, cfg_path)
        data, s1, s2 = root / "data", root / "s1", root / "s2"
        steps = [
            ["synth-data", "--n", "6", "--size", "16", "--seed", "3", "--out", str(data)],
            ["pretrain", "--data", str(data), "--config", str(cfg_path), "--out", str(s1)],
            ["train", "--data", str(data), "--config", str(cfg_path),
             "--ckpt", str(s1 / "stage1.ckpt"), "--out", str(s2)],
            ["enhance", "--ckpt", str(s2 / "stage2.ckpt"),
             "--images", str(data / "low_0000.ppm"), "--out", str(root / "enh")],
            ["analyze-codes", "--ckpt", str(s2 / "stage2.ckpt"),
             "--images", str(data), "--out", str(root / "codes")],
            ["report", "--ckpt", str(s2 / "stage2.ckpt"), "--data", str(data),
             "--out", str(root / "rep")],
        ]
        for argv in steps:
            assert cli_run(argv) == 0, argv
        return read_tree(root)

    first = chain(tmp_path_factory.mktemp("det_a"))
    second = chain(tmp_path_factory.mktemp("det_b"))
    assert first == second


class TestToyRunInvariants:
    """Training-pipeline invariants that need the full toy run."""

    def test_stage1_mae_moving_average_decreases(self, toy):
        mae = np.array([row[1] for row in toy["rows1"]])
        smoothed = np.convolve(mae, np.ones(50) / 50.0, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_stage1_reconstruction_beats_mean_image(self, toy):
        mean_image = Tensor(np.mean([p.normal.data for p in toy["train_pairs"]], axis=0))
        recon_scores, mean_scores = [], []
        for pair in toy["held_out"]:
            out, _ = reconstruct(pair.normal, toy["stage1"])
            recon_scores.append(psnr(out, pair.normal))
            mean_scores.append(psnr(mean_image, pair.normal))
        assert np.mean(recon_scores) > np.mean(mean_scores)

    def test_consistency_loss_trends_down(self, toy):
        lcl = np.array([row[4] for row in toy["rows2"]])
        k = max(1, len(lcl) // 10)
        assert lcl[-k:].mean() < lcl[:k].mean()

    def test_stage2_losses_all_finite(self, toy):
        for row in toy["rows2"]:
            assert all(np.isfinite(v) for v in row[1:])

    def test_enhanced_outputs_bounded(self, toy):
        for pair in toy["held_out"][:3]:
            out, _ = enhance(pair.low, toy["stage2"])
            assert out.data.min() >= 0.0 and out.data.max() <= 1.0
