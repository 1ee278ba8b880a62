"""lumiq benchmark: closed-loop workloads over the library's public API.

    python3 perfbench/run.py --workload pretrain --seed 0 --seconds 25 --trace 0

Run from the root of a lumiq checkout; the package is imported from ./src.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Step and image times are adjusted to a nominal
machine speed by a reference kernel timed next to every step
(workloads.speed_ref).  The line before the result records provenance, sample
counts, the correctness gate and the unadjusted figures.  `--profile N` prints the cProfile top N of one unit
of the workload instead (never during a measured or traced run).

Workloads (see BENCHMARK.json for why each exists):
  pretrain       stage-1 sessions of 50 steps, batch 4, crop 32
  train_full     stage-2 sessions of 30 iterations (+3 LQM warm-up) from a
                 stage-1 model that set-up trains for 20 steps
  enhance_large  read_image -> enhance -> write_image over 12 128x128 and
                 4 256x256 PPM files, whole passes; two off-size images
                 (126, 254) are probed outside the timed loop
"""

from __future__ import annotations

from time import perf_counter

STARTED = perf_counter()  # process start, as near as this script sees it; setup_s counts from here

import os  # noqa: E402

# one BLAS thread, pinned before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("pretrain", "train_full", "enhance_large"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", type=int, default=0, metavar="N",
                        help="print the cProfile top N of one unit instead of measuring")
    args = parser.parse_args(argv)

    if not (SRC / "lumiq" / "__init__.py").is_file():
        print(f"error: no lumiq sources under {SRC}; run from a lumiq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    if args.profile:
        harness.profile(args.workload, args.seed, args.profile)
        return 0
    result, info = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                               import_s=harness.IMPORTED - STARTED)
    for failure in info["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
