"""Compare a short fixed training run between a git revision and the working tree.

    python tools/parity.py REV

REV is exported with git archive into a temporary directory.  The same run then
executes in that checkout and in this working tree, each in its own
process with one BLAS thread and only the public API:
generate_pairs(12, 32, seed=3), then pretrain_vqgan and train_enhancer
under TrainConfig(seed=0, stage1_iters=20, stage2_iters=40, lqm_warmup=3),
saving both checkpoints.  For each stage the script prints the largest
relative difference between the two runs' loss rows, how many
checkpoint tensors are bit-identical, the largest elementwise relative
difference over the tensors both checkpoints hold, and the name of each
tensor that only one of them holds.  Each tree's stage-2 checkpoint is
then loaded in a fresh process of that tree (so the training's own
high-water mark cannot hide the enhance's), which enhances one 256x256
generate_pairs image, a size whose convs run far more GEMM rows than any
training shape; the script prints whether the two float outputs are
bit-identical and their largest relative difference.  It also prints the
enhance's memory in each tree: the tracemalloc peak of the call, and how
far it raised the process's ru_maxrss above its level after the checkpoint
and the input were loaded (the resident high-water mark, which also counts
allocator slack that tracemalloc does not see).

It then runs a fixed CLI chain in both trees: synth-data, pretrain and
train using every override flag (--seed, --config, --iters,
--codebook-size, --lambda, --prompts, --margin), enhance, analyze-codes on
both checkpoints, report, an enhance over 18x18 images (off-size: they run
padded to 20x20, and revisions that predate padding exit 2 on them), and a
train whose --codebook-size disagrees with its stage-1 checkpoint.  Every
path is relative to the chain's own run directory, so output from the two
trees needs no path rewriting.  It prints the exit codes, whether stdout
and stderr match (with the differing stderr lines), and how many artifact
files are byte-identical.  Last, it prints the line count of the *.py files
under src/ in both trees.

It exits 1 when a stage's loss rows, or the tensors both of its
checkpoints hold, differ by more than TOLERANCE relative (the parity rule
for a change that reorders a sum), naming each stage that broke the rule,
and 0 otherwise.  A run that fails to finish raises.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TOLERANCE = 1e-9

RUN = """
import json, sys
from lumiq.data import generate_pairs
from lumiq.training import TrainConfig, pretrain_vqgan, save_model, train_enhancer

out = sys.argv[1]
pairs = generate_pairs(12, 32, seed=3)
cfg = TrainConfig(seed=0, stage1_iters=20, stage2_iters=40, lqm_warmup=3)
stage1, rows1 = pretrain_vqgan([p.normal for p in pairs], cfg)
save_model(stage1, out + "/stage1.ckpt")
stage2, rows2 = train_enhancer(pairs, stage1, cfg)
save_model(stage2, out + "/stage2.ckpt")
with open(out + "/rows.json", "w") as fh:
    json.dump({"stage1": rows1, "stage2": rows2}, fh)
"""

ENHANCE = """
import json, resource, sys, tracemalloc
import numpy as np
from lumiq.data import generate_pairs
from lumiq.training import enhance, load_any

out = sys.argv[1]
model = load_any(out + "/stage2.ckpt")
image = generate_pairs(1, 256, seed=4)[0].low
rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
tracemalloc.start()
enhanced, _ = enhance(image, model)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
rss_growth = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before
np.save(out + "/enhanced256.npy", enhanced.data)
with open(out + "/memory.json", "w") as fh:
    json.dump({"tracemalloc_peak_mb": peak / 1e6, "maxrss_growth_mb": rss_growth * 1024 / 1e6}, fh)
"""

CLI_CONFIG = "batch_size=2\ncrop=16\nn_codes=32\ncode_dim=8\nbase_channels=4\nd_l=6\nlqm_warmup=2\nn_prompts=5\n"
TRAIN = ["train", "--data", "data", "--config", "cfg.txt", "--ckpt", "s1/stage1.ckpt", "--iters", "6", "--seed", "2"]
CLI_CHAIN = [
    ["synth-data", "--n", "6", "--size", "16", "--seed", "3", "--out", "data"],
    ["pretrain", "--data", "data", "--config", "cfg.txt", "--iters", "8", "--seed", "1",
     "--codebook-size", "16", "--out", "s1"],
    TRAIN + ["--codebook-size", "16", "--lambda", "0.25", "--prompts", "3", "--margin", "0.2", "--out", "s2"],
    ["enhance", "--ckpt", "s2/stage2.ckpt", "--images", "data", "--out", "enhanced"],
    ["analyze-codes", "--ckpt", "s1/stage1.ckpt", "--images", "data", "--out", "codes1"],
    ["analyze-codes", "--ckpt", "s2/stage2.ckpt", "--images", "data", "--out", "codes2"],
    ["report", "--ckpt", "s2/stage2.ckpt", "--data", "data", "--out", "report"],
    ["synth-data", "--n", "2", "--size", "18", "--seed", "4", "--out", "data18"],
    ["enhance", "--ckpt", "s2/stage2.ckpt", "--images", "data18", "--out", "enhanced18"],
    TRAIN + ["--out", "mismatch"],  # config's n_codes=32 against a 16-code stage 1: exits 2
]


def export(rev: str, dest: Path) -> None:
    """Write the files of rev into dest with git archive."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             stdout=subprocess.PIPE, check=True).stdout
    with tarfile.open(fileobj=BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_tree(tree: Path, out: Path) -> tuple[dict, dict]:
    """Run the fixed training, then the 256x256 enhance in a process of its
    own, in tree's src/, writing into out; returns the loss rows and the
    enhance's memory figures."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1")
    for script in (RUN, ENHANCE):
        subprocess.run([sys.executable, "-c", script, str(out)], env=env, cwd=tree, check=True)
    with open(out / "rows.json") as fh, open(out / "memory.json") as mem:
        return json.load(fh), json.load(mem)


def run_cli(tree: Path, work: Path) -> list[tuple[int, str, str]]:
    """Run CLI_CHAIN with tree's src/ inside work; (exit code, stdout, stderr) per command."""
    work.mkdir(parents=True)
    (work / "cfg.txt").write_text(CLI_CONFIG)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", LUMIQ_LOG_LEVEL="info")
    results = []
    for argv in CLI_CHAIN:
        done = subprocess.run([sys.executable, "-m", "lumiq.cli", *argv], env=env, cwd=work,
                              capture_output=True, text=True)
        results.append((done.returncode, done.stdout, done.stderr))
    return results


def read_tree(root: Path) -> dict[str, bytes]:
    """Relative path -> bytes for every file under root."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def source_lines(tree: Path) -> int:
    """Lines in the *.py files under tree's src/."""
    return sum(len(path.read_bytes().splitlines()) for path in (tree / "src").rglob("*.py"))


def max_relative_difference(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    scale = np.maximum(np.abs(a), np.abs(b))
    diff = np.abs(a - b)
    return float(np.where(scale > 0, diff / np.where(scale > 0, scale, 1.0), 0.0).max(initial=0.0))


def compare_checkpoints(path_a: Path, path_b: Path) -> tuple[int, int, float, list[str], list[str]]:
    """(bit-identical tensors, tensors named in either checkpoint, largest
    elementwise relative difference over the shared tensors, inf if one is
    reshaped; the names only in a, and those only in b)."""
    from lumiq.checkpoint import load_checkpoint

    a, b = load_checkpoint(path_a), load_checkpoint(path_b)
    shared = a.keys() & b.keys()
    same = sum(1 for name in shared if a[name].shape == b[name].shape and a[name].tobytes() == b[name].tobytes())
    worst = max((max_relative_difference(a[name], b[name]) for name in shared), default=0.0)
    return same, len(a.keys() | b.keys()), worst, sorted(a.keys() - b.keys()), sorted(b.keys() - a.keys())


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rev_tree = tmp / "rev"
        export(rev, rev_tree)
        rows_rev, mem_rev = run_tree(rev_tree, tmp / "out_rev")
        rows_now, mem_now = run_tree(ROOT, tmp / "out_now")
        print(f"parity: {rev} vs working tree")
        broken = []
        for stage in ("stage1", "stage2"):
            diff = max_relative_difference(rows_rev[stage], rows_now[stage])
            same, total, worst, only_rev, only_now = compare_checkpoints(tmp / "out_rev" / f"{stage}.ckpt",
                                                                         tmp / "out_now" / f"{stage}.ckpt")
            print(f"{stage}: {len(rows_now[stage])} loss rows, max relative difference {diff:.3g}; "
                  f"{same} of {total} checkpoint tensors bit-identical, "
                  f"max elementwise relative difference over shared tensors {worst:.3g}"
                  + (f"; only at {rev}: {', '.join(only_rev)}" if only_rev else "")
                  + (f"; only here: {', '.join(only_now)}" if only_now else ""))
            if max(diff, worst) > TOLERANCE:
                broken.append(stage)
        enh_rev, enh_now = (np.load(tmp / out / "enhanced256.npy") for out in ("out_rev", "out_now"))
        print(f"enhance 256x256: outputs {'bit-identical' if enh_rev.tobytes() == enh_now.tobytes() else 'DIFFER'}, "
              f"max relative difference {max_relative_difference(enh_rev, enh_now):.3g}")
        print(f"enhance 256x256 memory: tracemalloc peak {mem_rev['tracemalloc_peak_mb']:.1f} MB at {rev}, "
              f"{mem_now['tracemalloc_peak_mb']:.1f} MB here; ru_maxrss growth {mem_rev['maxrss_growth_mb']:.1f} MB "
              f"at {rev}, {mem_now['maxrss_growth_mb']:.1f} MB here")

        cli_rev = run_cli(rev_tree, tmp / "cli_rev")
        cli_now = run_cli(ROOT, tmp / "cli_now")
        print(f"cli: {len(CLI_CHAIN)} commands; exit codes {[r[0] for r in cli_rev]} at {rev}, "
              f"{[r[0] for r in cli_now]} here")
        print(f"cli: stdout {'identical' if [r[1] for r in cli_rev] == [r[1] for r in cli_now] else 'DIFFERS'}")
        for argv, (_, _, err_rev), (_, _, err_now) in zip(CLI_CHAIN, cli_rev, cli_now):
            if err_rev != err_now:
                lines_rev, lines_now = err_rev.splitlines(), err_now.splitlines()
                print(f"cli: stderr differs for {' '.join(argv)}")
                for line in lines_rev:
                    if line not in lines_now:
                        print(f"  - {line}")
                for line in lines_now:
                    if line not in lines_rev:
                        print(f"  + {line}")
        files_rev, files_now = read_tree(tmp / "cli_rev"), read_tree(tmp / "cli_now")
        names = sorted(files_rev.keys() | files_now.keys())
        differing = [name for name in names if files_rev.get(name) != files_now.get(name)]
        print(f"cli: {len(names) - len(differing)} of {len(names)} artifact files byte-identical"
              + (f"; differing: {', '.join(differing)}" if differing else ""))
        print(f"src: {source_lines(rev_tree)} lines of *.py at {rev}, {source_lines(ROOT)} here")
    for stage in broken:
        print(f"parity: FAILED: {stage} differs by more than {TOLERANCE:g} relative")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
