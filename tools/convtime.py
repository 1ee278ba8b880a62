"""Time every stride-1 conv the model runs, in a git revision and in the working tree.

    python tools/convtime.py REV

REV is exported with git archive into a temporary directory.  The shapes
are recorded in this working tree: the stride-1 conv2d calls of one
stage-1 and one stage-2 step (LQM update included) at the default
TrainConfig, plus those of enhancing a 128x128 and a 256x256 image with
the model that step leaves, the image sides of the enhance_large
benchmark workload.  Each tree then times those shapes in one process of
its own with one BLAS thread, on the same seeded inputs: per shape, the
conv2d forward under a tape with a trainable weight, the input gradient
alone and the weight gradient alone.  The gradients are timed by calling
the conv's tape record directly, so no other op's backward is counted.
Each of the three calls per shape is timed once per round over all the
shapes, as a training step or an enhance interleaves them, and the
script reports its median over REPEATS (41) rounds after one warm-up round.

Per shape the script prints the three medians in both trees, and whether
the forward output, the input gradient and the weight gradient are
bit-identical between the trees; then the sums of the medians over the
step's shapes and over the enhance shapes.  It exits 1 when any of
those outputs differs, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from parity import ROOT, export

RECORD = """
import json, sys
from dataclasses import replace
from lumiq import autodiff as ad
from lumiq.data import generate_pairs
from lumiq.training import TrainConfig, enhance, pretrain_vqgan, train_enhancer

seen = {}
conv2d = ad.conv2d

def recording(x, weight, bias=None, stride=1, pad=0):
    if stride == 1:
        seen.setdefault((x.data.shape, weight.data.shape, pad), source)
    return conv2d(x, weight, bias, stride, pad)

ad.conv2d = recording
source = "step"
pairs = generate_pairs(4, 32, seed=0)
cfg = replace(TrainConfig(), stage1_iters=1, stage2_iters=1, lqm_warmup=0)
stage1, _ = pretrain_vqgan([p.normal for p in pairs], cfg)
model, _ = train_enhancer(pairs, stage1, cfg)
source = "enhance"
for side in (128, 256):
    enhance(generate_pairs(1, side, seed=side)[0].low, model)
print(json.dumps([[list(x), list(w), pad, src] for (x, w, pad), src in seen.items()]))
"""

TIME = """
import hashlib, json, statistics, sys
from time import perf_counter
import numpy as np
from lumiq import autodiff as ad

shapes, repeats = json.loads(sys.argv[1]), int(sys.argv[2])

def conv(x, w, pad, x_grad, w_grad):
    # the conv's output and its tape record's gradient function
    xt, wt = ad.Tensor(x, requires_grad=x_grad), ad.Tensor(w, requires_grad=w_grad)
    tape = ad.Tape()
    with tape:
        out = ad.conv2d(xt, wt, ad.Tensor(np.zeros(w.shape[0])), pad=pad)
    return out.data, tape._records[-1][2]

def digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()

def case(xs, ws, pad):
    # the forward, input-gradient and weight-gradient calls; their outputs' digests
    rng = np.random.default_rng(sum(xs) + sum(ws) + pad)
    x, w = rng.normal(size=xs), rng.normal(size=ws)
    out, _ = conv(x, w, pad, True, True)
    g = rng.normal(size=out.shape)
    dx_fn, dw_fn = conv(x, w, pad, True, False)[1], conv(x, w, pad, False, True)[1]
    calls = (lambda: conv(x, w, pad, True, True), lambda: dx_fn(g), lambda: dw_fn(g))
    return calls, [digest(out), digest(dx_fn(g)[0]), digest(dw_fn(g)[1])]

cases = [case(xs, ws, pad) for xs, ws, pad, _ in shapes]
# rounds over every shape, as a training step or an enhance runs them: one
# call repeated alone lets malloc return its freed heap to the kernel and
# page-fault it back on the next call, which no real run does
times = [[[] for _ in calls] for calls, _ in cases]
for r in range(repeats + 1):
    for (calls, _), slots in zip(cases, times):
        for call, slot in zip(calls, slots):
            start = perf_counter()
            call()
            if r:  # the first round warms up
                slot.append(perf_counter() - start)
print(json.dumps([{"ms": [1e3 * statistics.median(slot) for slot in slots], "digests": digests}
                  for (_, digests), slots in zip(cases, times)]))
"""

PARTS = ("forward", "input grad", "weight grad")
REPEATS = 41


def run(tree: Path, script: str, *args: str) -> list:
    """JSON printed by script run with tree's src/ and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script, *args], env=env, cwd=tree,
                          stdout=subprocess.PIPE, check=True, text=True)
    return json.loads(done.stdout)


def label(shape: list) -> str:
    xs, ws, pad, _ = shape
    return f"{tuple(xs)} * {tuple(ws)} pad {pad}"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("rev")
    args = parser.parse_args(argv)
    shapes = run(ROOT, RECORD)
    with tempfile.TemporaryDirectory() as tmp:
        rev_tree = Path(tmp) / "rev"
        export(args.rev, rev_tree)
        timed = [run(tree, TIME, json.dumps(shapes), str(REPEATS)) for tree in (rev_tree, ROOT)]
    print(f"convtime: {args.rev} vs working tree, median ms over {REPEATS} rounds, one BLAS thread")
    width = max(len(label(shape)) for shape in shapes)
    print(f"{'shape':<{width}}  " + "  ".join(f"{part + ' ms':>19}" for part in PARTS) + "  bits")
    differing = 0
    totals = {}
    for shape, rev, now in zip(shapes, *timed):
        same = [a == b for a, b in zip(rev["digests"], now["digests"])]
        differing += not all(same)
        cells = "  ".join(f"{a:8.3f} -> {b:8.3f}" for a, b in zip(rev["ms"], now["ms"]))
        verdict = "identical" if all(same) else "DIFFER: " + ", ".join(p for p, s in zip(PARTS, same) if not s)
        print(f"{label(shape):<{width}}  {cells}  {verdict}")
        total = totals.setdefault(shape[3], [[0.0, 0.0] for _ in PARTS])
        for cell, a, b in zip(total, rev["ms"], now["ms"]):
            cell[0] += a
            cell[1] += b
    for source, total in totals.items():
        print(f"{'sum over ' + source + ' shapes':<{width}}  " + "  ".join(f"{a:8.3f} -> {b:8.3f}" for a, b in total))
    if differing:
        print(f"convtime: FAILED: {differing} of {len(shapes)} shapes differ in bits")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
