"""The three closed-loop workloads, driven through lumiq's public API.

Each workload builds its inputs from the workload seed in `setup`, runs one
closed-loop unit of work per `unit` call (a fixed-length training session, or
one pass over the image pool), and checks and scores its outputs in
`evaluate`, outside the timed region.  A unit starts only after the previous
one has finished, and inside a unit each step or image starts only after the
previous one has finished.

The workload seed makes every scene.  TrainConfig seeds are fixed (0 for the
set-up model, the unit index for sessions), so psnr_db and ssim vary with the
scenes but not with the weight initialisation, which otherwise moves ssim by
about 15% between seeds after a 50-step session.
"""

from __future__ import annotations

import copy
import hashlib
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from lumiq import codebook, data, metrics, training
from lumiq.autodiff import ShapeError
from lumiq.losses import DivergenceError


@dataclass(frozen=True)
class Sizes:
    """Work per set-up and per unit.  FULL is what the benchmark measures."""

    train_pairs: int = 64  # 32x32 scene pairs used for training
    held_out: int = 64  # further pairs scored for psnr_db / ssim
    pretrain_steps: int = 50  # stage-1 steps per pretrain session
    stage1_setup_steps: int = 20  # stage-1 steps that build train_full's starting model
    enhancer_iters: int = 30  # stage-2 iterations per train_full session, plus 10% LQM warm-up
    short_stage1: int = 10  # stage-1 steps of enhance_large's model
    short_stage2: int = 5  # stage-2 iterations of enhance_large's model
    pool: tuple = (128, 128, 128, 256) * 4  # enhance_large image sides, in this order
    offsize: tuple = (126, 254)  # probe images 2 px off a multiple of 4
    setups: int = 3  # set-ups per run; setup_s is their median
    config: tuple = ()  # TrainConfig overrides as (key, value) pairs


FULL = Sizes()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Checks:
    """Correctness gate: every failed check is kept and reported."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def require(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)

    def output(self, out, ref_shape, what: str) -> None:
        arr = out.data
        self.require(arr.shape == ref_shape, f"{what}: output shape {arr.shape} != input shape {ref_shape}")
        finite = bool(np.isfinite(arr).all())
        self.require(finite, f"{what}: output has non-finite values")
        if finite:
            self.require(arr.min() >= 0.0 and arr.max() <= 1.0,
                         f"{what}: output outside [0, 1]: [{arr.min()}, {arr.max()}]")


# Nominal time of speed_ref(), in ms: a round figure near its median on the
# 2-vCPU Xeon VM the baseline was measured on.  An adjusted time is the time a
# step would take at the machine speed where the kernel takes REF_MS.
REF_MS = 10.0
_REF_X = np.random.default_rng(0).normal(size=(1, 16, 66, 66))
_REF_W = np.random.default_rng(1).normal(size=(16, 144))


def speed_ref() -> float:
    """Seconds a fixed numpy kernel takes now.

    The kernel is the im2col copy and matmul of a 3x3, 16-channel convolution
    over a 64x64 map, three times: the same mix of copying and BLAS work as
    the workloads, but no lumiq code, so only the machine's speed moves it.
    The test VM's speed drifts by up to 25% over seconds to minutes; timing
    this kernel next to every step and dividing it out removes most of it.
    """
    start = perf_counter()
    for _ in range(3):
        cols = sliding_window_view(_REF_X, (3, 3), axis=(2, 3)).transpose(0, 2, 3, 1, 4, 5)
        np.ascontiguousarray(cols).reshape(-1, 144) @ _REF_W.T
    return perf_counter() - start


@dataclass
class Unit:
    """Totals of one unit of work."""

    samples: int = 0
    pixels: int = 0
    call_s: float = 0.0  # wall time of the library calls, reference kernel runs excluded
    ref_s: float = 0.0  # reference kernel time inside the unit
    scales: list = field(default_factory=list)  # speed scale of each step or image


class Recorder:
    """Closed-loop timings of one measure phase.

    The reference kernel runs once when a unit starts and once after every
    step or image, outside its window; each window is scaled by the mean of
    the reference runs on either side of it.  `ref` replaces the kernel, so
    that a profile shows only the workload.
    """

    def __init__(self, ref=speed_ref):
        self.ref = ref
        self.windows: list[tuple[float, float]] = []  # raw (start, end) per step or image
        self.scales: list[float] = []  # speed scale per window
        self.units: list[Unit] = []
        self.failed = 0
        self.phases: dict[str, list[float]] = defaultdict(list)
        self._ref = 0.0

    def new_unit(self) -> Unit:
        self._ref = self.ref()
        self.units.append(Unit())
        return self.units[-1]

    def step(self, start: float, end: float) -> float:
        """Record one step or image, run the reference kernel, and return when it ended."""
        ref = self.ref()
        scale = 1e-3 * REF_MS / ((self._ref + ref) / 2)
        self._ref = ref
        self.windows.append((start, end))
        self.scales.append(scale)
        self.units[-1].scales.append(scale)
        self.units[-1].ref_s += ref
        return perf_counter()

    @property
    def attempted(self) -> int:
        return len(self.windows) + self.failed

    @property
    def call_s(self) -> float:
        return sum(u.call_s for u in self.units)

    def adjusted_ms(self) -> list[float]:
        return [1e3 * (end - start) * k for (start, end), k in zip(self.windows, self.scales)]

    def raw_ms(self) -> list[float]:
        return [1e3 * (end - start) for start, end in self.windows]

    def rate(self, what: str, adjusted: bool = True) -> float:
        """Median over units of samples or pixels per second of calls."""
        return statistics.median(
            getattr(u, what) / (u.call_s * (statistics.median(u.scales) if adjusted else 1.0))
            for u in self.units if u.call_s > 0 and u.scales)


class Workload:
    name = ""

    def __init__(self, sizes: Sizes, seed: int, workdir):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        self.max_weight_sum_dev = 0.0
        self.offsize_reject_frac = 0.0

    def config(self, **kw) -> training.TrainConfig:
        return training.TrainConfig(**{**dict(self.sizes.config), **kw})

    def split_pairs(self):
        crop = self.config().crop
        pairs = data.generate_pairs(self.sizes.train_pairs + self.sizes.held_out, crop, self.seed)
        return pairs[: self.sizes.train_pairs], pairs[self.sizes.train_pairs:]

    def extras(self) -> dict[str, float]:
        return {"lapm.max_weight_sum_dev": self.max_weight_sum_dev,
                "networks.offsize_reject_frac": self.offsize_reject_frac}

    def run_digest(self, rows, model) -> str:
        """sha256 of the first session's loss rows and of its saved checkpoint."""
        path = self.workdir / "digest.ckpt"
        training.save_model(model, path)
        return sha256_arrays(np.asarray(rows, dtype=np.float64)) + ":" + sha256_file(path)


class Pretrain(Workload):
    """Stage 1 (pretrain_vqgan) with the default TrainConfig on normal-light scenes."""

    name = "pretrain"

    def setup(self) -> str:
        train, held = self.split_pairs()
        self.images = [p.normal for p in train]
        self.held = [p.normal for p in held]
        return sha256_arrays(*[im.data for im in self.images + self.held])

    def unit(self, k: int, rec: Recorder) -> None:
        cfg = self.config(seed=k, stage1_iters=self.sizes.pretrain_steps)
        totals = rec.new_unit()
        start = last = perf_counter()

        def log_hook(step, row):
            nonlocal last
            last = rec.step(last, perf_counter())

        try:
            model, rows = training.pretrain_vqgan(self.images, cfg, log_hook=log_hook)
        except DivergenceError as err:
            rec.failed += 1
            print(f"session {k} failed: {err}", file=sys.stderr)
            return
        finally:
            totals.call_s += perf_counter() - start - totals.ref_s
        totals.samples += cfg.batch_size * len(rows)
        totals.pixels += cfg.batch_size * cfg.crop * cfg.crop * len(rows)
        if k == 0:
            self.model0, self.rows0 = model, rows

    def evaluate(self) -> tuple[float, float, str]:
        ps, ss = [], []
        for i, img in enumerate(self.held):
            out, _ = training.reconstruct(img, self.model0)
            self.checks.output(out, img.data.shape, f"held-out reconstruction {i}")
            ps.append(metrics.psnr(out, img))
            ss.append(metrics.ssim(out, img))
        return float(np.mean(ps)), float(np.mean(ss)), self.run_digest(self.rows0, self.model0)


def _frozen_digest(model) -> str:
    return sha256_arrays(model.codebook.codes.data, *[p.data for _, p in model.decoder.core_named_params()])


class TrainFull(Workload):
    """Stage 2 (train_enhancer) with fusion, LQM and LAPM on, from a stage-1 model set-up builds."""

    name = "train_full"

    def setup(self) -> str:
        self.train, self.held = self.split_pairs()
        cfg = self.config(seed=0, stage1_iters=self.sizes.stage1_setup_steps)
        self.stage1, rows = training.pretrain_vqgan([p.normal for p in self.train], cfg)
        self.frozen = _frozen_digest(self.stage1)
        return sha256_arrays(np.asarray(rows, dtype=np.float64)) + ":" + self.frozen

    def unit(self, k: int, rec: Recorder) -> None:
        iters = self.sizes.enhancer_iters
        cfg = self.config(seed=k, stage2_iters=iters, lqm_warmup=max(1, iters // 10))
        stage1 = copy.deepcopy(self.stage1)
        totals = rec.new_unit()
        start = mark = step_start = perf_counter()

        def step_hook(phase, step, model):
            nonlocal mark, step_start
            now = perf_counter()
            if step >= 0:  # warm-up LQM updates (negative steps) are not timed steps
                rec.phases[phase].append(now - mark)
                if phase == "disc":
                    now = rec.step(step_start, now)
            mark = now
            if phase == "disc" or step < 0:
                step_start = now

        try:
            model, rows = training.train_enhancer(self.train, stage1, cfg, step_hook=step_hook)
        except DivergenceError as err:
            rec.failed += 1
            print(f"session {k} failed: {err}", file=sys.stderr)
            return
        finally:
            totals.call_s += perf_counter() - start - totals.ref_s
        totals.samples += cfg.batch_size * len(rows)
        totals.pixels += cfg.batch_size * cfg.crop * cfg.crop * len(rows)
        self.checks.require(_frozen_digest(model) == self.frozen,
                            f"session {k} changed the codebook or the decoder core")
        self.max_weight_sum_dev = max(self.max_weight_sum_dev, model.prompts.max_weight_sum_dev)
        if k == 0:
            self.model0, self.rows0 = model, rows

    def evaluate(self) -> tuple[float, float, str]:
        ps, ss = [], []
        for i, pair in enumerate(self.held):
            out, _ = training.enhance(pair.low, self.model0)
            self.checks.output(out, pair.low.data.shape, f"held-out enhancement {i}")
            ps.append(metrics.psnr(out, pair.normal))
            ss.append(metrics.ssim(out, pair.normal))
        return float(np.mean(ps)), float(np.mean(ss)), self.run_digest(self.rows0, self.model0)


class EnhanceLarge(Workload):
    """Forward-only enhance over PPM files of 128x128 and 256x256 scenes."""

    name = "enhance_large"

    def setup(self) -> str:
        s = self.sizes
        train, _ = self.split_pairs()
        cfg = self.config(seed=0, stage1_iters=s.short_stage1, stage2_iters=s.short_stage2, lqm_warmup=1)
        stage1, rows1 = training.pretrain_vqgan([p.normal for p in train], cfg)
        stage2, rows2 = training.train_enhancer(train, stage1, cfg)
        ckpt = self.workdir / "enhancer.ckpt"
        training.save_model(stage2, ckpt)
        self.model = training.load_any(ckpt)
        self.n_codes = self.model.cfg.n_codes

        self.jobs = []  # (input path, output path, normal reference)
        for i, side in enumerate(s.pool):
            pair = data.generate_pairs(1, side, self.seed * 1000 + i)[0]
            src = self.workdir / f"in_{i:03d}.ppm"
            data.write_image(src, pair.low)
            self.jobs.append((src, self.workdir / f"out_{i:03d}.ppm", pair.normal))
        self.offsize = []
        for side in s.offsize:
            src = self.workdir / f"off_{side}.ppm"
            data.write_image(src, data.generate_pairs(1, side, self.seed * 1000 + side)[0].low)
            self.offsize.append(src)
        self.digest = sha256_arrays(np.asarray(rows1), np.asarray(rows2)) + ":" + sha256_file(ckpt)
        return self.digest

    def unit(self, k: int, rec: Recorder) -> None:
        totals = rec.new_unit()
        for src, dst, _ in self.jobs:
            start = perf_counter()
            try:
                img = data.read_image(src)
                out, res = training.enhance(img, self.model)
                data.write_image(dst, out)
            except Exception as err:  # counted as a failed image, never dropped
                totals.call_s += perf_counter() - start
                rec.failed += 1
                print(f"{src.name} failed: {err!r}", file=sys.stderr)
                continue
            end = perf_counter()
            rec.step(start, end)
            totals.call_s += end - start
            totals.samples += 1
            totals.pixels += out.data.shape[2] * out.data.shape[3]
            self.checks.output(out, img.data.shape, f"enhanced {src.name}")
            try:
                hist = codebook.activation_histogram([res], self.n_codes)
            except codebook.CorruptedIndexError as err:  # an index outside [0, n_codes)
                self.checks.require(False, f"{src.name}: {err}")
                continue
            self.checks.require(int(hist.sum()) == res.indices.size,
                                f"{src.name}: code histogram sums to {int(hist.sum())}, not {res.indices.size}")

    def evaluate(self) -> tuple[float, float, str]:
        ps, ss = [], []
        for src, dst, ref in self.jobs:
            out = data.read_image(dst)
            self.checks.output(out, ref.data.shape, f"written {dst.name}")
            ps.append(metrics.psnr(out, ref))
            ss.append(metrics.ssim(out, ref))
        rejected = 0
        for src in self.offsize:
            img = data.read_image(src)
            try:
                out, _ = training.enhance(img, self.model)
            except ShapeError:
                rejected += 1
                continue
            self.checks.output(out, img.data.shape, f"off-size {src.name}")
        self.offsize_reject_frac = rejected / len(self.offsize)
        self.max_weight_sum_dev = self.model.prompts.max_weight_sum_dev
        return float(np.mean(ps)), float(np.mean(ss)), self.digest


WORKLOADS = {cls.name: cls for cls in (Pretrain, TrainFull, EnhanceLarge)}
