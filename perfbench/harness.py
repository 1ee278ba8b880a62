"""One benchmark invocation: set-ups, closed-loop measurement, tracing,
correctness gate and provenance.  Imported by run.py once ./src is on sys.path."""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import platform
import pstats
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from lumiq.cli import GRADCHECK_TOLERANCE, run_gradcheck
from workloads import FULL, REF_MS, WORKLOADS, Recorder

IMPORTED = perf_counter()  # numpy and every lumiq module are loaded

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_state"

END_TO_END_UNITS = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p90": "ms",
    "samples_per_s": "1/s",
    "mpix_per_s": "Mpix/s",
    "peak_rss_mb": "MB",
    "psnr_db": "dB",
    "ssim": "1",
}


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_rev() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "git_rev": git_rev(),
        "src_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def check_repeat_digest(key: str, digest: str) -> str | None:
    """Compare a run digest with the one stored by an earlier run of the same
    source, workload and seed; store it if there is none.  Returns an error."""
    path = STATE / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        return None if known[key] == digest else f"digest {digest} differs from earlier run's {known[key]}"
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    return None


def measure(wl, seconds: float, first_unit: int):
    """Run whole units until `seconds` have passed; returns (recorder, units run)."""
    rec = Recorder()
    start = perf_counter()
    k = first_unit
    while k == first_unit or perf_counter() - start < seconds:
        wl.unit(k, rec)
        k += 1
    return rec, k - first_unit


def percentile_ms(rec, q: float, adjusted: bool = True) -> float:
    return float(np.percentile(rec.adjusted_ms() if adjusted else rec.raw_ms(), q))


def run(name: str, seed: int, seconds: float, trace: bool, sizes=None, import_s: float = 0.0) -> tuple[dict, dict]:
    """One benchmark invocation; returns (result line, info line).

    import_s is the time the caller spent from process start to having the
    library imported; setup_s adds it to the median of the in-process
    set-ups.  Unlike the step times, setup_s is not speed-adjusted: reference
    kernel runs around a set-up made it noisier, not steadier.
    """
    sizes = sizes or FULL
    workdir = STATE / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer() if trace else None
    try:
        wl = WORKLOADS[name](sizes, seed, workdir)
        setup_times, digests = [], []
        for _ in range(sizes.setups):
            start = perf_counter()
            with tracing.installed(tracer):
                digests.append(wl.setup())
            setup_times.append(perf_counter() - start)
        wl.checks.require(len(set(digests)) == 1, f"set-up is not deterministic: {sorted(set(digests))}")

        untraced = None
        if trace:
            untraced, _ = measure(wl, seconds / 2, 0)
            tracer.phase = "measure"
            with tracing.installed(tracer):
                rec, units = measure(wl, seconds / 2, 1)
            tracer.phase = "eval"
        else:
            rec, units = measure(wl, seconds, 0)
        with tracing.installed(tracer):
            psnr_db, ssim, run_digest = wl.evaluate()

        worst = max(err for _, err in run_gradcheck(0))
        wl.checks.require(worst < GRADCHECK_TOLERANCE, f"gradcheck worst error {worst:.3e} >= {GRADCHECK_TOLERANCE}")
        info = {"workload": name, "trace": int(trace), **provenance(seed)}
        err = check_repeat_digest(f"{info['src_sha256'][:16]}/{info['numpy']}/{name}/{seed}/{'full' if sizes == FULL else 'custom'}",
                                  f"{digests[0]}/{run_digest}")
        wl.checks.require(err is None, f"rerun of this source and seed gave different bytes: {err}")

        if trace:
            extras = dict(wl.extras())
            for phase, key in (("lqm", "lqm.update_ms"), ("enhancer", "training.enhancer_phase_ms"),
                               ("disc", "training.disc_phase_ms")):
                times = rec.phases.get(phase, [])
                extras[key] = 1e3 * sum(times) / len(times) if times else 0.0
            values = tracing.summarize(tracer, rec.windows, sizes.setups, wl.config().n_codes, extras,
                                       (percentile_ms(untraced, 50), percentile_ms(rec, 50)))
            tracer.write_csv(STATE / f"spans-{name}.csv")
            metrics = {k: {"value": v, "unit": tracing.LAYER_METRICS[k][0]} for k, v in values.items()}
        else:
            values = {
                "setup_s": import_s + statistics.median(setup_times),
                "step_ms_p50": percentile_ms(rec, 50),
                "step_ms_p90": percentile_ms(rec, 90),
                "samples_per_s": rec.rate("samples"),
                "mpix_per_s": rec.rate("pixels") / 1e6,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "psnr_db": psnr_db,
                "ssim": ssim,
            }
            metrics = {k: {"value": float(v), "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info.update({
        "units": units,
        "samples": len(rec.windows),
        "measured_s": rec.call_s,
        "import_s": import_s,
        "setup_runs_s": setup_times,
        # the direct figure: process start to the end of the first (cold) set-up
        "setup_cold_s": import_s + setup_times[0],
        # the unadjusted step figures, next to the speed scale that adjusted them
        "speed_scale_median": statistics.median(rec.scales) if rec.scales else None,
        "raw": {"step_ms_p50": percentile_ms(rec, 50, adjusted=False) if rec.windows else None,
                "step_ms_p90": percentile_ms(rec, 90, adjusted=False) if rec.windows else None,
                "samples_per_s": rec.rate("samples", adjusted=False) if rec.windows else None},
        "checks_passed": wl.checks.passed,
        "check_failures": wl.checks.failures,
        "gradcheck_worst": worst,
        "offsize_reject_frac": wl.offsize_reject_frac,
        "digest": run_digest,
    })
    runs = [rec] if untraced is None else [untraced, rec]
    result = {"correct": not wl.checks.failures, "attempted": sum(r.attempted for r in runs),
              "failed": sum(r.failed for r in runs), "metrics": metrics}
    return result, info


def profile(name: str, seed: int, top: int) -> None:
    """cProfile top-N of one unit of the workload, after one untimed set-up."""
    workdir = STATE / f"profile-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[name](FULL, seed, workdir)
        wl.setup()
        prof = cProfile.Profile()
        prof.runcall(wl.unit, 0, Recorder(ref=lambda: 1e-3 * REF_MS))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    pstats.Stats(prof, stream=sys.stdout).sort_stats("tottime").print_stats(top)
