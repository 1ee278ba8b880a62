"""Schema self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced with a tiny model and a
single unit of work, and checks only the shape of what comes out: every
metric named in BENCHMARK.json is present with its unit, names use only
[A-Za-z0-9_.-], counts are integers, and the correctness gate passes.  It sets
no timing thresholds.  Exits 0 when every check holds.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(train_pairs=4, held_out=2, pretrain_steps=2, stage1_setup_steps=2, enhancer_iters=2,
             short_stage1=1, short_stage2=1, pool=(32, 64), offsize=(30,), setups=2,
             config=(("crop", 16), ("batch_size", 2), ("base_channels", 4), ("code_dim", 4),
                     ("n_codes", 8), ("d_l", 4), ("n_prompts", 2)))

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
PROVENANCE = ("git_rev", "src_sha256", "python", "numpy", "blas", "nproc", "seed")


def check_result(result: dict, info: dict, expected: dict[str, str], where: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: correctness gate failed: {info.get('check_failures')}")
    for key in ("attempted", "failed"):
        if not isinstance(result.get(key), int) or isinstance(result.get(key), bool):
            errors.append(f"{where}: {key} is not an integer: {result.get(key)!r}")
    if isinstance(result.get("attempted"), int) and result["attempted"] < 1:
        errors.append(f"{where}: attempted < 1")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{where}: missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, entry in metrics.items():
        if not NAME.match(name):
            errors.append(f"{where}: bad metric name {name!r}")
        if set(entry) != {"value", "unit"}:
            errors.append(f"{where}: {name} has keys {sorted(entry)}")
            continue
        value, unit = entry["value"], entry["unit"]
        if name in expected and unit != expected[name]:
            errors.append(f"{where}: {name} unit {unit!r}, BENCHMARK.json says {expected[name]!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r} is not a finite number")
        elif unit == "count" and not float(value).is_integer():
            errors.append(f"{where}: count {name} is not an integer: {value!r}")
    for key in PROVENANCE:
        if key not in info:
            errors.append(f"{where}: provenance lacks {key}")
    json.dumps(result)
    json.dumps(info)
    return errors


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    if end_to_end != harness.END_TO_END_UNITS:
        errors.append(f"BENCHMARK.json end_to_end {end_to_end} != harness {harness.END_TO_END_UNITS}")
    layer_units = {k: unit for k, (unit, _) in tracing.LAYER_METRICS.items()}
    if per_layer != layer_units:
        errors.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append(f"BENCHMARK.json workloads differ from {sorted(WORKLOADS)}")

    for name in WORKLOADS:
        for trace in (False, True):
            where = f"{name} trace={int(trace)}"
            result, info = harness.run(name, seed=0, seconds=0.0, trace=trace, sizes=TINY)
            errors += check_result(result, info, per_layer if trace else end_to_end, where)
            print(f"{where}: attempted {result['attempted']}, {len(result['metrics'])} metrics", flush=True)

    for error in errors:
        print(f"FAIL {error}", file=sys.stderr)
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
