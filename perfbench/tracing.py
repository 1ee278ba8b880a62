"""Span tracing for the traced benchmark run.

Wrappers defined here are installed at the names the library's callers look
up, record one span per call (name, phase, start, end, parent, payload), and
are removed again before any untraced measurement runs.  Spans stay in memory
and are summarised per measured step (or image) when the run ends.
"""

from __future__ import annotations

import bisect
import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from lumiq import autodiff, checkpoint, codebook, data, lapm, losses, lqm, metrics, networks, training

# Per-layer metric -> (unit, which end-to-end metric it should move, on which workload).
# Times and counts are per measured step (training) or per image (enhance_large)
# unless the entry says otherwise.
LAYER_METRICS = {
    "autodiff.conv2d_fwd_ms": ("ms", "step_ms_*, mpix_per_s, peak_rss_mb on enhance_large most; step_ms_* on pretrain, train_full"),
    "autodiff.conv2d_bwd_ms": ("ms", "step_ms_* on pretrain and train_full; 0 on enhance_large"),
    "autodiff.backward_ms": ("ms", "step_ms_* on train_full most, pretrain less"),
    "autodiff.replay_overhead_ms": ("ms", "step_ms_* on train_full most, pretrain less (backward minus closure time)"),
    "autodiff.tape_records": ("count", "step_ms_* on train_full; exact count"),
    "autodiff.conv2d_calls": ("count", "step_ms_* on all workloads; exact count"),
    "autodiff.replayed_frac": ("1", "step_ms_* on train_full (closures run / tape records)"),
    "autodiff.gram_ms": ("ms", "step_ms_* on train_full"),
    "codebook.quantize_ms": ("ms", "mpix_per_s, peak_rss_mb on enhance_large; ~2.5% of a pretrain step"),
    "codebook.quantize_vectors": ("count", "mpix_per_s on enhance_large; exact count"),
    "codebook.codes_used_frac": ("1", "psnr_db, ssim on all workloads"),
    "networks.encode_ms": ("ms", "step_ms_* on all workloads"),
    "networks.decode_ms": ("ms", "step_ms_* on all workloads"),
    "networks.disc_ms": ("ms", "step_ms_* on pretrain and train_full"),
    "networks.encode_calls": ("count", "step_ms_* on train_full only (5 per iteration today); exact count"),
    "networks.offsize_reject_frac": ("1", "share of off-size enhance_large probe images the encoder rejects; 0 once they are padded"),
    "lqm.update_ms": ("ms", "step_ms_*, samples_per_s on train_full only (step_hook lqm phase)"),
    "lqm.factor_calls": ("count", "step_ms_*, samples_per_s on train_full only; exact count"),
    "lqm.contrastive_ms": ("ms", "step_ms_*, samples_per_s on train_full only"),
    "lqm.hinge_active_frac": ("1", "psnr_db on train_full (active hinges / factor pairs)"),
    "lapm.apply_ms": ("ms", "step_ms_* on train_full and enhance_large"),
    "lapm.max_weight_sum_dev": ("1", "correctness signal read from PromptPyramid.max_weight_sum_dev"),
    "losses.reconstruction_ms": ("ms", "step_ms_* on train_full"),
    "training.enhancer_phase_ms": ("ms", "step_ms_* on train_full (step_hook enhancer phase)"),
    "training.disc_phase_ms": ("ms", "step_ms_* on train_full (step_hook disc phase)"),
    "training.adam_ms": ("ms", "step_ms_* on pretrain and train_full"),
    "checkpoint.save_ms": ("ms", "setup_s on enhance_large (per save call)"),
    "checkpoint.load_ms": ("ms", "setup_s on enhance_large (per load call)"),
    "checkpoint.bytes": ("count", "setup_s on enhance_large (bytes per saved checkpoint)"),
    "data.generate_ms": ("ms", "setup_s on all workloads (per set-up)"),
    "data.read_image_ms": ("ms", "step_ms_* on enhance_large"),
    "data.write_image_ms": ("ms", "step_ms_* on enhance_large"),
    "metrics.eval_ms": ("ms", "nothing timed: evaluation runs outside the timed loop (per image)"),
    "autodiff.self_ms": ("ms", "self time of the autodiff layer"),
    "codebook.self_ms": ("ms", "self time of the codebook layer"),
    "networks.self_ms": ("ms", "self time of the networks layer"),
    "lqm.self_ms": ("ms", "self time of the lqm layer"),
    "lapm.self_ms": ("ms", "self time of the lapm layer"),
    "losses.self_ms": ("ms", "self time of the losses layer"),
    "training.self_ms": ("ms", "self time of the training layer (Adam)"),
    "data.self_ms": ("ms", "self time of the data layer"),
    "trace.unaccounted_ms": ("ms", "step time that no traced layer accounts for"),
    "trace.overhead_ms": ("ms", "traced minus untraced (speed-adjusted) step_ms_p50 in the same process"),
    "trace.overhead_frac": ("1", "trace.overhead_ms over the untraced step_ms_p50"),
}

SELF_LAYERS = ("autodiff", "codebook", "networks", "lqm", "lapm", "losses", "training", "data")

# span name -> per-layer metric it feeds (closures share one span name apart from conv2d)
_SPAN_METRIC = {
    "autodiff.conv2d": "autodiff.conv2d_fwd_ms",
    "autodiff.conv2d_bwd": "autodiff.conv2d_bwd_ms",
    "autodiff.backward": "autodiff.backward_ms",
    "autodiff.gram": "autodiff.gram_ms",
    "codebook.quantize": "codebook.quantize_ms",
    "networks.encode": "networks.encode_ms",
    "networks.decode": "networks.decode_ms",
    "networks.disc": "networks.disc_ms",
    "lqm.contrastive": "lqm.contrastive_ms",
    "lapm.apply": "lapm.apply_ms",
    "losses.reconstruction": "losses.reconstruction_ms",
    "training.adam": "training.adam_ms",
    "data.read_image": "data.read_image_ms",
    "data.write_image": "data.write_image_ms",
}

_CONV_GRAD_QUALNAME = "conv2d.<locals>.grad_fn"

NAME, PHASE, START, END, PARENT, PAYLOAD = range(6)


class Tracer:
    """In-memory span recorder; `phase` tags every span opened while it is set."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.phase = "setup"

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.phase, perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def timed(self, name: str, fn, payload=None):
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if payload is not None:
                self.spans[idx][PAYLOAD] = payload(args, result)
            return result
        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("index,name,phase,start_s,end_s,parent\n")
            for i, (name, phase, start, end, parent, _) in enumerate(self.spans):
                fh.write(f"{i},{name},{phase},{start:.9f},{end:.9f},{'' if parent is None else parent}\n")


def _vector(factor) -> np.ndarray:
    """The light-factor vector of one contrastive-loss input, whatever wraps it."""
    for attr in ("values", "data"):
        factor = getattr(factor, attr, factor)
    return np.asarray(factor, dtype=np.float64).reshape(-1)


def _hinge_payload(args, result):
    """(active hinges, pairs) of one lqm_contrastive_loss call, from its inputs.

    Returns None when the inputs are not a list of (factor, label) pairs and a
    margin, so a reshaped LQM path reports no hinge figures instead of failing.
    """
    try:
        factors, margin = args[0], float(args[1])
        vecs = [(_vector(f), label) for f, label in factors]
    except (IndexError, TypeError, ValueError):
        return None
    active = pairs = 0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            (a, la), (b, lb) = vecs[i], vecs[j]
            dist = 1.0 - float(a @ b) / float(np.linalg.norm(a) * np.linalg.norm(b))
            active += int(dist > margin if la == lb else dist < margin)
            pairs += 1
    return active, pairs


# (owner, attribute, span name, payload) for every name a traced call goes
# through.  training.py imports several functions by value, so those are
# replaced in the training namespace as well as in their home module.  A
# target the library no longer has is skipped and its metrics read 0.
_TARGETS = [
    (autodiff, "conv2d", "autodiff.conv2d", None),
    (autodiff, "backward", "autodiff.backward", lambda a, r: len(a[1])),
    (autodiff, "gram", "autodiff.gram", None),
    (codebook, "quantize_nearest", "codebook.quantize", lambda a, r: (int(r.indices.size), np.unique(r.indices))),
    (training, "quantize_nearest", "codebook.quantize", lambda a, r: (int(r.indices.size), np.unique(r.indices))),
    (networks.Encoder, "forward", "networks.encode", None),
    (networks.Decoder, "forward", "networks.decode", None),
    (networks.Discriminator, "forward", "networks.disc", None),
    (lqm, "extract_light_factor", "lqm.factor", None),
    (training, "extract_light_factor", "lqm.factor", None),
    (lqm, "lqm_contrastive_loss", "lqm.contrastive", _hinge_payload),
    (training, "lqm_contrastive_loss", "lqm.contrastive", _hinge_payload),
    (lapm.PromptPyramid, "apply", "lapm.apply", None),
    (losses, "reconstruction_loss", "losses.reconstruction", None),
    (training, "reconstruction_loss", "losses.reconstruction", None),
    (training, "adam_step", "training.adam", None),
    (checkpoint, "save_checkpoint", "checkpoint.save", lambda a, r: os.path.getsize(a[1])),
    (training, "save_checkpoint", "checkpoint.save", lambda a, r: os.path.getsize(a[1])),
    (checkpoint, "load_checkpoint", "checkpoint.load", None),
    (training, "load_checkpoint", "checkpoint.load", None),
    (data, "generate_pairs", "data.generate", None),
    (data, "read_image", "data.read_image", None),
    (data, "write_image", "data.write_image", None),
    (metrics, "psnr", "metrics.eval", None),
    (metrics, "ssim", "metrics.eval", None),
]


def _patch_targets(tracer: Tracer):
    """(owner, attribute, original, replacement) for every target present."""
    patches = []
    orig_record = autodiff.__dict__.get("record")
    if orig_record is not None:
        def record(out, inputs, grad_fn):
            name = "autodiff.conv2d_bwd" if grad_fn.__qualname__ == _CONV_GRAD_QUALNAME else "autodiff.grad_fn"
            return orig_record(out, inputs, tracer.timed(name, grad_fn))
        patches.append((autodiff, "record", orig_record, record))
    for owner, attr, name, payload in _TARGETS:
        orig = owner.__dict__.get(attr)
        if orig is not None:
            patches.append((owner, attr, orig, tracer.timed(name, orig, payload)))
    return patches


@contextmanager
def installed(tracer: Tracer | None):
    """Install the tracing wrappers for the duration of the block; no-op for None."""
    if tracer is None:
        yield
        return
    patches = _patch_targets(tracer)
    try:
        for owner, attr, _, repl in patches:
            setattr(owner, attr, repl)
        yield
    finally:
        for owner, attr, orig, _ in reversed(patches):
            setattr(owner, attr, orig)


def summarize(tracer: Tracer, windows: list[tuple[float, float]], n_setups: int,
              n_codes: int, extras: dict, overhead: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics from the spans of the traced measure phase.

    windows are the (start, end) of each traced step or image; spans that
    start outside every window (warm-up, set-up between sessions) are left out
    of the per-step figures.
    """
    spans = tracer.spans
    windows = sorted(windows)
    starts = [w[0] for w in windows]
    n_steps = max(len(windows), 1)

    def in_window(s) -> bool:
        if s[PHASE] != "measure":
            return False
        k = bisect.bisect_right(starts, s[START]) - 1
        return k >= 0 and s[END] <= windows[k][1]

    def nested_in_same(i) -> bool:
        name, p = spans[i][NAME], spans[i][PARENT]
        while p is not None:
            if spans[p][NAME] == name:
                return True
            p = spans[p][PARENT]
        return False

    out = {name: 0.0 for name in LAYER_METRICS}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]

    root_ms = 0.0
    closures = tape_records = quantize_vectors = 0
    active = pairs = 0
    used = np.zeros(n_codes, dtype=bool)
    counts = {"autodiff.conv2d": 0, "networks.encode": 0, "lqm.factor": 0}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if name == "data.generate" and s[PHASE] == "setup" and not nested_in_same(i):
            out["data.generate_ms"] += 1e3 * dur / max(n_setups, 1)
        if not in_window(s):
            continue
        if name in _SPAN_METRIC:
            out[_SPAN_METRIC[name]] += 1e3 * dur
        if name in counts:
            counts[name] += 1
        if name in ("autodiff.grad_fn", "autodiff.conv2d_bwd"):
            closures += 1
        elif name == "autodiff.backward":
            tape_records += s[PAYLOAD]
        elif name == "codebook.quantize":
            quantize_vectors += s[PAYLOAD][0]
            used[s[PAYLOAD][1]] = True
        elif name == "lqm.contrastive" and s[PAYLOAD] is not None:
            active += s[PAYLOAD][0]
            pairs += s[PAYLOAD][1]
        layer = name.split(".")[0]
        if layer in SELF_LAYERS:
            out[f"{layer}.self_ms"] += 1e3 * (dur - child_time[i])
        if s[PARENT] is None:
            root_ms += 1e3 * dur

    for key in _SPAN_METRIC.values():
        out[key] /= n_steps
    for layer in SELF_LAYERS:
        out[f"{layer}.self_ms"] /= n_steps
    out["autodiff.replay_overhead_ms"] = out["autodiff.backward_ms"] - sum(
        1e3 * (s[END] - s[START]) for s in spans
        if s[NAME] in ("autodiff.grad_fn", "autodiff.conv2d_bwd") and in_window(s)) / n_steps
    out["autodiff.tape_records"] = tape_records / n_steps
    out["autodiff.conv2d_calls"] = counts["autodiff.conv2d"] / n_steps
    out["autodiff.replayed_frac"] = closures / tape_records if tape_records else 0.0
    out["codebook.quantize_vectors"] = quantize_vectors / n_steps
    out["codebook.codes_used_frac"] = float(used.mean())
    out["networks.encode_calls"] = counts["networks.encode"] / n_steps
    out["lqm.factor_calls"] = counts["lqm.factor"] / n_steps
    out["lqm.hinge_active_frac"] = active / pairs if pairs else 0.0

    other = [s for s in spans if s[PHASE] != "measure"]
    for name, key in (("checkpoint.save", "checkpoint.save_ms"), ("checkpoint.load", "checkpoint.load_ms")):
        durs = [s[END] - s[START] for s in other if s[NAME] == name]
        out[key] = 1e3 * sum(durs) / len(durs) if durs else 0.0
    sizes = [s[PAYLOAD] for s in other if s[NAME] == "checkpoint.save"]
    out["checkpoint.bytes"] = sum(sizes) / len(sizes) if sizes else 0.0
    evals = [s[END] - s[START] for s in other if s[NAME] == "metrics.eval" and s[PHASE] == "eval"]
    # psnr and ssim are two calls per evaluated image
    out["metrics.eval_ms"] = 2e3 * sum(evals) / len(evals) if evals else 0.0

    step_ms = 1e3 * sum(e - s for s, e in windows) / n_steps
    out["trace.unaccounted_ms"] = step_ms - root_ms / n_steps
    untraced_p50, traced_p50 = overhead
    out["trace.overhead_ms"] = traced_p50 - untraced_p50
    out["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
    out.update(extras)
    return out
