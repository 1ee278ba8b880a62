"""Optimizer, config, checkpointing, and two-stage training behavior."""

import numpy as np
import pytest

from lumiq.autodiff import ShapeError, Tensor
from lumiq.data import ImagePair, generate_pairs, synth_scene
from lumiq.losses import DivergenceError
from lumiq.networks import Encoder
from lumiq.training import (
    ADAM_BETAS,
    ADAM_EPS,
    CompatibilityError,
    OptimizerState,
    Stage1Model,
    Stage2Model,
    TrainConfig,
    _step_group,
    adam_step,
    enhance,
    evaluate_pairs,
    fit_image,
    input_shape_problem,
    load_any,
    load_config,
    model_entries,
    pretrain_vqgan,
    reconstruct,
    save_config,
    save_model,
    sweep,
    train_enhancer,
    write_stage1_log,
    write_stage2_log,
)


def adam_scalar_reference(x0, grad_fn, lr, beta1, beta2, eps, steps):
    """Plain-float Adam, written independently of the array version."""
    x, m, v = x0, 0.0, 0.0
    history = []
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        x = x - lr * m_hat / (v_hat**0.5 + eps)
        history.append(x)
    return history


def tiny_cfg(**kw):
    base = dict(seed=3, batch_size=2, crop=16, stage1_iters=40, stage2_iters=8,
                lqm_warmup=3, n_prompts=3, n_codes=16, code_dim=8, base_channels=4,
                n_down=2, d_l=6, lr=1e-3)
    base.update(kw)
    return TrainConfig(**base)


def snapshot(named_params):
    return {name: p.data.copy() for name, p in named_params}


def assert_bit_identical(before: dict, named_params):
    after = {name: p.data for name, p in named_params}
    assert before.keys() == after.keys()
    for name in before:
        assert np.array_equal(before[name], after[name]), f"{name} changed"


@pytest.fixture(scope="module")
def tiny_images():
    return [synth_scene(s, 16, 16) for s in range(8)]


@pytest.fixture(scope="module")
def tiny_pairs():
    return generate_pairs(6, 16, seed=5)


@pytest.fixture(scope="module")
def stage1_tiny(tiny_images):
    model, rows = pretrain_vqgan(tiny_images, tiny_cfg())
    return model, rows


@pytest.fixture(scope="module")
def stage2_tiny(stage1_tiny, tiny_pairs):
    return train_enhancer(tiny_pairs, stage1_tiny[0], tiny_cfg(stage2_iters=2))[0]


class TestAdam:
    def test_zero_grads_leave_params_unchanged(self):
        rng = np.random.default_rng(0)
        params = [Tensor(rng.normal(size=(3, 4)), requires_grad=True),
                  Tensor(rng.normal(size=5), requires_grad=True)]
        before = [p.data.copy() for p in params]
        state = OptimizerState([("w", params[0]), ("b", params[1])], lr=0.1)
        adam_step(state, [np.zeros((3, 4)), np.zeros(5)])
        for b, p in zip(before, params):
            assert np.array_equal(b, p.data)

    def test_first_step_closed_form(self):
        # with m_hat = g and v_hat = g*g the first update is lr*g/(|g|+eps)
        rng = np.random.default_rng(1)
        g = rng.normal(size=(2, 3))
        p = Tensor(np.ones((2, 3)), requires_grad=True)
        lr = 1e-4
        state = OptimizerState([("p", p)], lr=lr)
        adam_step(state, [g.copy()])
        expected = 1.0 - lr * g / (np.abs(g) + ADAM_EPS)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12, atol=0)

    def test_quadratic_trajectory_matches_scalar_reference(self):
        lr = 0.05
        expected = adam_scalar_reference(3.0, lambda x: 2.0 * x, lr, *ADAM_BETAS, ADAM_EPS, 10)
        p = Tensor(np.asarray(3.0), requires_grad=True)
        state = OptimizerState([("p", p)], lr=lr)
        got = []
        for _ in range(10):
            adam_step(state, [np.asarray(2.0 * p.data)])
            got.append(float(p.data))
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_convergence_on_quadratic(self):
        p = Tensor(np.asarray(3.0), requires_grad=True)
        state = OptimizerState([("p", p)], lr=0.1)
        for _ in range(500):
            adam_step(state, [np.asarray(2.0 * p.data)])
        assert abs(float(p.data)) < 1e-2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grad_raises_before_update(self, bad):
        rng = np.random.default_rng(2)
        group = [("enc.w", Tensor(rng.normal(size=(3, 4)), requires_grad=True)),
                 ("enc.b", Tensor(rng.normal(size=4), requires_grad=True))]
        for _, p in group:
            p.grad = np.ones_like(p.data)
        group[1][1].grad[2] = bad
        before = [p.data.copy() for _, p in group]
        state = OptimizerState(group, lr=0.1)
        with pytest.raises(DivergenceError, match="step 3: enhancer group: gradient of enc.b"):
            _step_group(state, "step 3: enhancer")
        for b, (_, p) in zip(before, group):
            assert np.array_equal(b, p.data)
        assert state.step_count == 0 and not state.m[0].any()

    def test_grad_shape_mismatch_raises(self):
        p = Tensor(np.zeros((2, 2)), requires_grad=True)
        state = OptimizerState([("p", p)], lr=0.1)
        with pytest.raises(ShapeError):
            adam_step(state, [np.zeros(3)])

    def test_momentum_state_accumulates(self):
        p = Tensor(np.asarray(0.0), requires_grad=True)
        state = OptimizerState([("p", p)], lr=0.1)
        g = np.asarray(1.0)
        adam_step(state, [g])
        first = float(p.data)
        adam_step(state, [g])
        second = float(p.data) - first
        assert state.step_count == 2
        # constant gradient: both bias-corrected steps move by -lr*g/(|g|+eps)
        assert np.isclose(second, first, rtol=1e-9)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.margin == 0.1
        assert cfg.n_prompts == 5
        assert (cfg.sigma, cfg.gamma, cfg.lambda_lcl) == (0.25, 0.1, 0.5)
        assert cfg.n_codes == 64 and cfg.code_dim == 32

    def test_roundtrip(self, tmp_path):
        cfg = tiny_cfg(lr=5e-4, use_lapm=False, sigma=0.3, gamma=0.2, lambda_lcl=0.9)
        path = tmp_path / "cfg.txt"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_file_is_flat_key_value(self, tmp_path):
        path = tmp_path / "cfg.txt"
        save_config(TrainConfig(), path)
        lines = path.read_text().strip().split("\n")
        assert all(line.count("=") == 1 for line in lines)
        assert "margin=0.1" in lines
        assert "n_prompts=5" in lines
        assert "use_fusion=true" in lines

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", ["lr", "margin", "sigma", "gamma", "lambda_lcl"])
    def test_rejects_non_finite_floats(self, key, value):
        with pytest.raises(ValueError, match=rf"^{key} must be finite"):
            TrainConfig(**{key: value})

    def test_rejects_nonpositive_counts(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(n_codes=-1)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    @pytest.mark.parametrize("crop", [30, 36])
    def test_rejects_crop_the_network_cannot_use(self, crop):
        # 30 is not a multiple of 2**n_down; 36 gives 18x18 and 9x9 tap
        # features, which their prompt patches (4 and 2) do not divide
        with pytest.raises(ValueError, match=f"crop={crop}"):
            TrainConfig(crop=crop)

    def test_crop_prompt_rule_applies_only_with_lapm(self):
        assert TrainConfig(crop=36, use_lapm=False).crop == 36
        with pytest.raises(ValueError, match="crop=30"):
            TrainConfig(crop=30, use_lapm=False)

    def test_unknown_key_raises(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("margin=0.1\nbogus_key=1\n")
        with pytest.raises(ValueError, match="bogus_key"):
            load_config(path)

    def test_non_boolean_value_raises(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("use_lqm=yes\n")
        with pytest.raises(ValueError, match="use_lqm.*'yes'"):
            load_config(path)

    @pytest.mark.parametrize("line, kind", [("seed=abc", "an integer"), ("seed=1.5", "an integer"),
                                            ("margin=wide", "a number"), ("gamma=", "a number")])
    def test_non_numeric_value_names_line_and_key(self, tmp_path, line, kind):
        path = tmp_path / "cfg.txt"
        path.write_text(f"# header\n{line}\n")
        key, val = line.split("=")
        with pytest.raises(ValueError) as err:
            load_config(path)
        assert str(err.value) == f"{path}:2: {key} must be {kind}, got {val!r}"

    def test_booleans_accept_any_case(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("use_lqm=FALSE\nuse_lapm=True\nuse_fusion=false\n")
        cfg = load_config(path)
        assert (cfg.use_lqm, cfg.use_lapm, cfg.use_fusion) == (False, True, False)

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("margin 0.1\n")
        with pytest.raises(ValueError, match="key=value"):
            load_config(path)

    def test_rejects_negative_seed(self, tmp_path):
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            TrainConfig(seed=-1)
        path = tmp_path / "cfg.txt"
        path.write_text("seed=-1\n")
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
            load_config(path)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# comment\n\nseed=9\n")
        assert load_config(path).seed == 9


class TestStage1:
    def test_runs_and_logs(self, stage1_tiny):
        model, rows = stage1_tiny
        assert len(rows) == 40
        for row in rows:
            assert len(row) == 5
            assert all(np.isfinite(v) for v in row[1:])
        steps = [r[0] for r in rows]
        assert steps == list(range(40))

    def test_determinism(self, tiny_images):
        cfg = tiny_cfg(stage1_iters=10)
        m1, r1 = pretrain_vqgan(tiny_images, cfg)
        m2, r2 = pretrain_vqgan(tiny_images, cfg)
        assert r1 == r2
        for (n1, p1), (n2, p2) in zip(m1.encoder.named_params() + m1.decoder.named_params(),
                                      m2.encoder.named_params() + m2.decoder.named_params()):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)
        assert np.array_equal(m1.codebook.codes.data, m2.codebook.codes.data)

    def test_reconstruction_error_trends_down(self, tiny_images):
        _, rows = pretrain_vqgan(tiny_images, tiny_cfg(stage1_iters=250))
        mae = np.array([r[1] for r in rows])
        window = 30
        smoothed = np.convolve(mae, np.ones(window) / window, mode="valid")
        assert smoothed[-1] < smoothed[0]

    def test_reconstruct_output_contract(self, stage1_tiny, tiny_images):
        model, _ = stage1_tiny
        out, res = reconstruct(tiny_images[0], model)
        assert out.data.shape == tiny_images[0].data.shape
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0
        assert res.indices.shape == (1, 4, 4)

    def test_log_writer_layout(self, stage1_tiny, tmp_path):
        _, rows = stage1_tiny
        path = tmp_path / "stage1.csv"
        write_stage1_log(rows[:2], path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,l_mae,l_cma,l_adv,l_total"
        assert len(lines) == 3

    def test_empty_image_list_raises(self):
        with pytest.raises(ValueError):
            pretrain_vqgan([], tiny_cfg())

    def test_image_smaller_than_crop_raises_before_any_step(self, tiny_images):
        fired = []
        images = tiny_images + [synth_scene(9, 8, 16)]
        with pytest.raises(ShapeError, match=r"^image 8 has shape \(1, 3, 8, 16\), smaller than crop 16$"):
            pretrain_vqgan(images, tiny_cfg(), log_hook=lambda *a: fired.append(a))
        assert fired == []


class TestCheckpointing:
    def test_stage1_roundtrip_bit_identical(self, stage1_tiny, tmp_path):
        model, _ = stage1_tiny
        path = tmp_path / "s1.ckpt"
        save_model(model, path)
        loaded = load_any(path)
        assert isinstance(loaded, Stage1Model)
        for (n1, p1), (n2, p2) in zip(
                model.encoder.named_params() + model.decoder.named_params() + model.disc.named_params(),
                loaded.encoder.named_params() + loaded.decoder.named_params() + loaded.disc.named_params()):
            assert n1 == n2 and np.array_equal(p1.data, p2.data)
        assert np.array_equal(model.codebook.codes.data, loaded.codebook.codes.data)

    def test_stage1_size_mismatch_raises(self, stage1_tiny, tiny_pairs, tmp_path):
        model, _ = stage1_tiny
        path = tmp_path / "s1.ckpt"
        save_model(model, path)
        with pytest.raises(CompatibilityError, match="n_codes"):
            train_enhancer(tiny_pairs, load_any(path), tiny_cfg(n_codes=32))

    def test_stage2_roundtrip_preserves_enhance_output(self, stage1_tiny, tiny_pairs, tmp_path):
        model, _ = stage1_tiny
        cfg = tiny_cfg(stage2_iters=4, lqm_warmup=2)
        m2, _ = train_enhancer(tiny_pairs, model, cfg)
        path = tmp_path / "s2.ckpt"
        save_model(m2, path)
        loaded = load_any(path)
        assert isinstance(loaded, Stage2Model)
        before, _ = enhance(tiny_pairs[0].low, m2)
        after, _ = enhance(tiny_pairs[0].low, loaded)
        assert np.array_equal(before.data, after.data)

    def test_stage2_roundtrip_restores_component_flags(self, stage1_tiny, tiny_pairs, tmp_path):
        model, _ = stage1_tiny
        cfg = tiny_cfg(stage2_iters=1, lqm_warmup=0, use_fusion=False, use_lqm=False)
        m2, _ = train_enhancer(tiny_pairs, model, cfg)
        path = tmp_path / "s2.ckpt"
        save_model(m2, path)
        loaded = load_any(path)
        assert (loaded.cfg.use_fusion, loaded.cfg.use_lqm, loaded.cfg.use_lapm) == (False, False, True)

    def test_load_any_accepts_crop_valid_only_without_prompts(self, tmp_path):
        # crop=36 suits the encoder but not the prompt patches; neither a
        # stage-1 checkpoint (no prompts) nor a stage-2 one trained with
        # use_lapm off may be refused on load for it
        cfg = tiny_cfg(crop=36, use_lapm=False, stage1_iters=1, stage2_iters=1, lqm_warmup=0)
        s1, _ = pretrain_vqgan([synth_scene(s, 36, 36) for s in range(2)], cfg)
        s2, _ = train_enhancer(generate_pairs(2, 36, seed=5), s1, cfg)
        for name, model in (("s1.ckpt", s1), ("s2.ckpt", s2)):
            save_model(model, tmp_path / name)
            loaded = load_any(tmp_path / name)
            assert type(loaded) is type(model)
            before, after = model_entries(model), model_entries(loaded)
            assert before.keys() == after.keys()
            for key in before:
                assert np.array_equal(before[key], after[key]), key

    @pytest.mark.parametrize("name, value, message", [
        ("config/n_codes", 17, r"config/n_codes is 17, so codebook\.codes needs 17 along axis 0"),
        ("config/code_dim", 9, r"config/code_dim is 9, so codebook\.codes needs 9 along axis 1"),
        ("config/base_channels", 5, r"config/base_channels is 5, so encoder\.down0\.weight needs 5"),
        ("config/n_down", 3, r"config/n_down is 3, but encoder\.down2\.weight is missing"),
        ("config/n_down", 1, r"config/n_down is 1, but encoder\.down1\.weight is present"),
        ("config/n_prompts", 4, r"config/n_prompts is 4, so prompt\.level0\.prompts needs 4"),
        ("config/d_l", 7, r"config/d_l is 7, so lqm\.level0\.affine2\.weight needs 7"),
        # every tap level's width is held to base_channels * 2**i, not only level 0's
        ("encoder.down1.weight", np.zeros((9, 4, 3, 3)),
         r"config/base_channels is 4, so encoder\.down1\.weight needs 8"),
    ], ids=["n_codes", "code_dim", "base_channels", "n_down_above", "n_down_below", "n_prompts", "d_l", "tap1_width"])
    def test_recorded_size_checked_before_build(self, stage2_tiny, tmp_path, monkeypatch, name, value, message):
        from lumiq.checkpoint import save_checkpoint

        entries = model_entries(stage2_tiny)
        save_checkpoint({**entries, name: np.asarray(value, dtype=np.float64)}, tmp_path / "bad.ckpt")
        monkeypatch.setattr(Stage1Model, "build", lambda *a: pytest.fail("model built before the size check"))
        with pytest.raises(CompatibilityError, match=f"^{message}"):
            load_any(tmp_path / "bad.ckpt")

    def test_missing_stage_marker_raises(self, tmp_path):
        from lumiq.checkpoint import save_checkpoint

        path = tmp_path / "bad.ckpt"
        save_checkpoint({"config/seed": np.asarray(0.0)}, path)
        with pytest.raises(CompatibilityError, match="stage"):
            load_any(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_raises(self, stage2_tiny, tmp_path, value):
        from lumiq.checkpoint import save_checkpoint

        entries = {k: v.copy() for k, v in model_entries(stage2_tiny).items()}
        entries["decoder.final.weight"].flat[0] = value
        path = tmp_path / "bad.ckpt"
        save_checkpoint(entries, path)
        with pytest.raises(CompatibilityError, match=r"entry decoder\.final\.weight holds NaN or inf"):
            load_any(path)

    def test_older_checkpoint_with_code_usage_loads(self, stage2_tiny, tiny_pairs, tmp_path):
        # checkpoints used to carry a codebook.usage entry of per-code match
        # counts; load_any ignores it, so such a file enhances as before
        from lumiq.checkpoint import save_checkpoint

        entries = model_entries(stage2_tiny)
        assert "codebook.usage" not in entries
        save_checkpoint(entries, tmp_path / "now.ckpt")
        save_checkpoint({**entries, "codebook.usage": np.arange(16.0)}, tmp_path / "old.ckpt")
        now, old = load_any(tmp_path / "now.ckpt"), load_any(tmp_path / "old.ckpt")
        assert isinstance(old, Stage2Model)
        out_now, res_now = enhance(tiny_pairs[0].low, now)
        out_old, res_old = enhance(tiny_pairs[0].low, old)
        assert np.array_equal(out_now.data, out_old.data)
        assert np.array_equal(res_now.indices, res_old.indices)


class TestStage2:
    def test_runs_and_logs(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        m2, rows = train_enhancer(tiny_pairs, model, tiny_cfg())
        assert len(rows) == 8
        for row in rows:
            assert len(row) == 6
            assert all(np.isfinite(v) for v in row[1:])

    def test_stage1_argument_is_left_unchanged(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        params = (model.encoder.named_params() + model.decoder.named_params()
                  + model.disc.named_params() + [("codebook.codes", model.codebook.codes)])
        before = {name: (p.data.copy(), p.requires_grad) for name, p in params}
        cfg = tiny_cfg(stage2_iters=4, lqm_warmup=2)
        _, r1 = train_enhancer(tiny_pairs, model, cfg)
        _, r2 = train_enhancer(tiny_pairs, model, cfg)
        assert r1 == r2
        for name, p in params:
            data, flag = before[name]
            assert np.array_equal(p.data, data), f"{name} changed"
            assert p.requires_grad == flag, f"{name} requires_grad changed"

    def test_codebook_and_decoder_core_stay_frozen(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        codes_before = model.codebook.codes.data.copy()
        core_before = snapshot(model.decoder.core_named_params())
        fusion_before = snapshot(model.decoder.fusion_named_params())
        m2, _ = train_enhancer(tiny_pairs, model, tiny_cfg())
        assert np.array_equal(codes_before, m2.codebook.codes.data)
        assert_bit_identical(core_before, m2.decoder.core_named_params())
        moved = any(not np.array_equal(fusion_before[n], p.data)
                    for n, p in m2.decoder.fusion_named_params())
        assert moved, "fusion convs should train in stage 2"

    def test_encoder_starts_as_stage1_copy(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        # with a vanishing learning rate the copy stays at its initialization
        cfg = tiny_cfg(stage2_iters=1, lqm_warmup=0, lr=1e-30)
        m2, _ = train_enhancer(tiny_pairs, model, cfg)
        assert m2.encoder is not m2.encoder_ref
        for (_, p_ref), (_, p2) in zip(m2.encoder_ref.named_params(),
                                       m2.encoder.named_params("encoder2")):
            np.testing.assert_allclose(p2.data, p_ref.data, rtol=0, atol=1e-12)

    def test_reference_encoder_untouched(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        enc_before = snapshot(model.encoder.named_params())
        m2, _ = train_enhancer(tiny_pairs, model, tiny_cfg())
        assert_bit_identical(enc_before, m2.encoder_ref.named_params())

    def test_alternation_updates_are_exclusive(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        seen = {"lqm": 0, "enhancer": 0, "disc": 0}
        state = {}

        def hook(phase, step, m):
            seen[phase] += 1
            lqm_now = snapshot(m.lqm.named_params())
            enh_now = snapshot(m.encoder.named_params("encoder2"))
            if state:
                if phase == "lqm":
                    assert_bit_identical(state["enh"], m.encoder.named_params("encoder2"))
                elif phase == "enhancer":
                    assert_bit_identical(state["lqm"], m.lqm.named_params())
            state["lqm"], state["enh"] = lqm_now, enh_now

        cfg = tiny_cfg(stage2_iters=4, lqm_warmup=2)
        train_enhancer(tiny_pairs, model, cfg, step_hook=hook)
        assert seen == {"lqm": 6, "enhancer": 4, "disc": 4}

    @pytest.mark.parametrize("use_lqm, passes", [(True, 3), (False, 2)])
    def test_encoder_passes_per_iteration(self, stage1_tiny, tiny_pairs, monkeypatch, use_lqm, passes):
        # one reference pass over I_nl, one tracked pass over I_ll, and with
        # LQM on one tracked pass over I_nl shared by the LQM update
        model, _ = stage1_tiny
        calls = []
        forward = Encoder.forward
        monkeypatch.setattr(Encoder, "forward", lambda self, I: calls.append(1) or forward(self, I))
        per_step = []

        def hook(phase, step, m):
            if phase == "disc":
                per_step.append(len(calls))
                calls.clear()

        cfg = tiny_cfg(stage2_iters=3, lqm_warmup=0, use_lqm=use_lqm)
        train_enhancer(tiny_pairs, model, cfg, step_hook=hook)
        assert per_step == [passes] * 3

    def test_compatibility_mismatch_raises(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        with pytest.raises(CompatibilityError):
            train_enhancer(tiny_pairs, model, tiny_cfg(n_codes=32))
        with pytest.raises(CompatibilityError):
            train_enhancer(tiny_pairs, model, tiny_cfg(code_dim=16))

    def test_pair_smaller_than_crop_raises_before_any_step(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        fired = []
        pairs = tiny_pairs + generate_pairs(1, 12, seed=2)
        with pytest.raises(ShapeError, match=r"^pair 6 has shape \(1, 3, 12, 12\), smaller than crop 16$"):
            train_enhancer(pairs, model, tiny_cfg(), step_hook=lambda *a: fired.append(a),
                           log_hook=lambda *a: fired.append(a))
        assert fired == []

    def test_enhance_deterministic_and_bounded(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        m2, _ = train_enhancer(tiny_pairs, model, tiny_cfg(stage2_iters=4))
        out1, res1 = enhance(tiny_pairs[0].low, m2)
        out2, res2 = enhance(tiny_pairs[0].low, m2)
        assert np.array_equal(out1.data, out2.data)
        assert np.array_equal(res1.indices, res2.indices)
        assert out1.data.shape == tiny_pairs[0].low.data.shape
        assert out1.data.min() >= 0.0 and out1.data.max() <= 1.0

    def test_baseline_variant_disables_components(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        fusion_before = snapshot(model.decoder.fusion_named_params())
        cfg = tiny_cfg(stage2_iters=4, use_fusion=False, use_lqm=False, use_lapm=False)
        m2, rows = train_enhancer(tiny_pairs, model, cfg)
        assert m2.lqm is None and m2.prompts is None
        assert_bit_identical(fusion_before, m2.decoder.fusion_named_params())
        assert all(row[4] == 0.0 for row in rows), "consistency column should be zero"

    def test_divergence_error_names_step(self, stage1_tiny):
        model, _ = stage1_tiny
        nan_low = Tensor(np.full((1, 3, 16, 16), np.nan))
        normal = synth_scene(0, 16, 16)
        bad_pair = ImagePair(low=nan_low, normal=normal, scene_id=0)
        with pytest.raises(DivergenceError, match="step"):
            train_enhancer([bad_pair], model, tiny_cfg(use_lqm=False))

    def test_determinism(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        cfg = tiny_cfg(stage2_iters=4)
        m1, r1 = train_enhancer(tiny_pairs, model, cfg)
        m2, r2 = train_enhancer(tiny_pairs, model, cfg)
        assert r1 == r2
        o1, _ = enhance(tiny_pairs[0].low, m1)
        o2, _ = enhance(tiny_pairs[0].low, m2)
        assert np.array_equal(o1.data, o2.data)

    def test_log_writer_layout(self, stage1_tiny, tiny_pairs, tmp_path):
        model, _ = stage1_tiny
        _, rows = train_enhancer(tiny_pairs, model, tiny_cfg(stage2_iters=2))
        path = tmp_path / "stage2.csv"
        write_stage2_log(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "step,l_adv,l_fml,l_rec,l_lcl,l_total"
        assert len(lines) == 3


class TestHarnesses:
    def test_evaluate_pairs(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        m2, _ = train_enhancer(tiny_pairs, model, tiny_cfg(stage2_iters=2))
        rows = evaluate_pairs(m2, tiny_pairs[:2])
        assert [r[0] for r in rows] == [p.scene_id for p in tiny_pairs[:2]]
        assert all(np.isfinite(p) and -1.0 <= s <= 1.0 for _, p, s in rows)

    def test_lambda_sweep_rows(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        lambdas = (0.5, 0.001)
        rows = sweep(model, tiny_pairs, tiny_pairs[:2],
                     [(lam, tiny_cfg(stage2_iters=2, lqm_warmup=1, lambda_lcl=lam)) for lam in lambdas])
        assert [r[0] for r in rows] == [0.5, 0.001]
        assert all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in rows)

    def test_prompt_sweep_rows(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        counts = (2, 3)
        rows = sweep(model, tiny_pairs, tiny_pairs[:2],
                     [(n, tiny_cfg(stage2_iters=2, lqm_warmup=1, n_prompts=n)) for n in counts])
        assert [r[0] for r in rows] == [2, 3]
        assert all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in rows)

    def test_sweep_rows_follow_variants(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        variants = [(0.001, tiny_cfg(stage2_iters=2, lqm_warmup=1, lambda_lcl=0.001)),
                    ("two prompts", tiny_cfg(stage2_iters=2, lqm_warmup=1, n_prompts=2)),
                    (0.5, tiny_cfg(stage2_iters=2, lqm_warmup=1, lambda_lcl=0.5))]
        rows = sweep(model, tiny_pairs, tiny_pairs[:2], variants)
        assert [r[0] for r in rows] == [0.001, "two prompts", 0.5]
        assert all(np.isfinite(r[1]) and np.isfinite(r[2]) for r in rows)
        # each row is the mean of evaluate_pairs over an enhancer trained under its config
        scores = evaluate_pairs(train_enhancer(tiny_pairs, model, variants[1][1])[0], tiny_pairs[:2])
        assert rows[1][1:] == (np.mean([r[1] for r in scores]), np.mean([r[2] for r in scores]))

    def test_sweeps_leave_source_model_pristine(self, stage1_tiny, tiny_pairs):
        model, _ = stage1_tiny
        before = snapshot(model.decoder.named_params() + model.disc.named_params())
        sweep(model, tiny_pairs, tiny_pairs[:2], [("lambda", tiny_cfg(stage2_iters=2, lqm_warmup=1, lambda_lcl=0.5))])
        assert_bit_identical(before, model.decoder.named_params() + model.disc.named_params())


class TestAnyImageSize:
    # side -> padded side at n_down=2 with prompts: 30, 126 and 254 are not
    # multiples of 4; 36, 44 and 100 are, but their prompt patches do not
    # divide a tap level (18 by 4, 22 by 5, 50 by 12)
    PADDED = {30: 32, 126: 128, 254: 256, 36: 40, 44: 48, 100: 112}

    @pytest.mark.parametrize("side", sorted(PADDED))
    def test_enhance_runs_on_the_reflect_padded_image_and_crops_back(self, stage2_tiny, side):
        image = synth_scene(side, side, side)
        out, res = enhance(image, stage2_tiny)
        pad = self.PADDED[side] - side
        padded = Tensor(np.pad(image.data, ((0, 0), (0, 0), (0, pad), (0, pad)), mode="reflect"))
        ref, ref_res = enhance(padded, stage2_tiny)
        assert out.data.shape == image.data.shape
        np.testing.assert_array_equal(out.data, ref.data[:, :, :side, :side])
        np.testing.assert_array_equal(res.indices, ref_res.indices)
        assert res.indices.shape == (1, self.PADDED[side] // 4, self.PADDED[side] // 4)

    def test_non_square_sides_pad_independently(self, stage2_tiny):
        image = synth_scene(1, 18, 30)
        assert fit_image(image, 2, prompts=True).data.shape == (1, 3, 20, 32)
        out, res = enhance(image, stage2_tiny)
        assert out.data.shape == (1, 3, 18, 30)
        assert res.indices.shape == (1, 5, 8)

    @pytest.mark.parametrize("side", [16, 32, 128, 256])
    def test_aligned_image_is_neither_padded_nor_copied(self, side):
        image = Tensor(np.zeros((1, 3, side, side)))
        assert fit_image(image, 2, prompts=True) is image

    def test_fit_is_the_smallest_accepted_shape(self):
        for prompts in (False, True):
            for h in range(1, 70):
                fitted = fit_image(Tensor(np.zeros((1, 3, h, 7))), 2, prompts).data.shape[2:]
                assert input_shape_problem(*fitted, 2, prompts) is None
                assert all(input_shape_problem(s, t, 2, prompts) is not None
                           for s in range(h, fitted[0]) for t in range(1, 3 * fitted[0]))
                assert all(input_shape_problem(fitted[0], t, 2, prompts) is not None
                           for t in range(7, fitted[1]))

    @pytest.mark.parametrize("use_lapm", [False, True])
    def test_crop_rule_is_the_input_shape_rule(self, use_lapm):
        for crop in range(1, 130):
            problem = input_shape_problem(crop, crop, 2, use_lapm)
            if problem is None:
                assert TrainConfig(crop=crop, use_lapm=use_lapm).crop == crop
            else:
                with pytest.raises(ValueError, match=f"^crop={crop} "):
                    TrainConfig(crop=crop, use_lapm=use_lapm)
