"""Run the acceptance toy pipeline at several config seeds, in a git revision and in the working tree.

    python tools/seeds.py REV [--seeds 11-18]

REV is exported with git archive into a temporary directory.  For each
seed s the toy pipeline of tests/test_acceptance.py runs once in that
checkout and once in this working tree, each in its own process with one
BLAS thread and only the public API: generate_pairs(64, 32, seed=11),
the first 56 pairs trained under TrainConfig(seed=s) with pretrain_vqgan
then train_enhancer, the last 8 held out.  At most one process per CPU
runs at once.

Per seed and tree it prints the l_lcl ratio that
test_consistency_loss_trends_down checks (the mean of the last 10% of the
stage-2 rows over that of the first 10%; below 1 passes), the held-out
PSNR gain of the enhanced images over the low-light inputs and their
SSIM (criterion 6), and the last-10% mean of each stage-2 loss column.
Then it prints each tree's median and range of every figure.  --seeds
takes a range such as 11-18, a comma list such as 11,13,17, or one seed.

One toy run takes about 90 s on a 2-vCPU VM with two running at once,
so the default eight seeds in both trees take about 12 minutes.  The
script only reports: it exits 0 whatever the figures are, and nonzero
only when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from parity import ROOT, export

COLUMNS = ("l_adv", "l_fml", "l_rec", "l_lcl", "l_total")  # stage-2 loss rows after the step index
FIGURES = ("ratio", "psnr_gain", "ssim") + COLUMNS

RUN = """
import json, sys
import numpy as np
from lumiq.data import generate_pairs
from lumiq.metrics import psnr
from lumiq.training import TrainConfig, evaluate_pairs, pretrain_vqgan, train_enhancer

pairs = generate_pairs(64, 32, seed=11)
train, held = pairs[:56], pairs[56:]
cfg = TrainConfig(seed=int(sys.argv[1]))
stage1, _ = pretrain_vqgan([p.normal for p in train], cfg)
stage2, rows = train_enhancer(train, stage1, cfg)
enh_psnr, enh_ssim = evaluate_pairs(stage2, held)
raw_psnr = float(np.mean([psnr(p.low, p.normal) for p in held]))
print(json.dumps({"rows": rows, "psnr_gain": enh_psnr - raw_psnr, "ssim": enh_ssim}))
"""


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(part) for part in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(part) for part in text.split(",")]


def run_toy(tree: Path, seed: int) -> dict[str, float]:
    """The toy pipeline at config seed in tree's src/; its figures by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUN, str(seed)], env=env, cwd=tree,
                          stdout=subprocess.PIPE, text=True, check=True)
    out = json.loads(done.stdout.splitlines()[-1])
    losses = np.array([row[1:] for row in out["rows"]], dtype=np.float64)
    k = max(1, len(losses) // 10)
    last = losses[-k:].mean(axis=0)
    figures = {"ratio": last[3] / losses[:k, 3].mean(), "psnr_gain": out["psnr_gain"], "ssim": out["ssim"]}
    figures.update(zip(COLUMNS, last))
    return figures


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("11-18"))
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {args.rev: Path(tmp) / "rev", "here": ROOT}
        export(args.rev, trees[args.rev])
        jobs = [(name, seed) for seed in args.seeds for name in trees]  # both trees of a seed side by side
        with ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0))) as pool:
            futures = {job: pool.submit(run_toy, trees[job[0]], job[1]) for job in jobs}
            results = {job: future.result() for job, future in futures.items()}
    print(f"seeds: {args.rev} vs working tree ('here'), toy pipeline at TrainConfig(seed=s); "
          f"loss columns are stage-2 last-10% means")
    print(f"{'seed':>6} {'tree':>10} " + " ".join(f"{name:>16}" for name in FIGURES))
    for name, seed in jobs:
        print(f"{seed:>6} {name:>10} " + " ".join(f"{results[name, seed][f]:>16.10g}" for f in FIGURES))
    for name in trees:
        for label, reduce in (("median", np.median), ("min", np.min), ("max", np.max)):
            values = [reduce([results[name, seed][f] for seed in args.seeds]) for f in FIGURES]
            print(f"{label:>6} {name:>10} " + " ".join(f"{v:>16.10g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
