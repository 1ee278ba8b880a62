"""Prompt bank weighting, composition, and injection."""

import numpy as np
import pytest

from lumiq import autodiff as ad
from lumiq.autodiff import ShapeError, Tensor
from lumiq.lapm import (
    PromptBank,
    PromptPyramid,
    compose_prompt,
    inject_prompt,
    prompt_weights,
)


def make_bank(n_prompts=3, dim=4, seed=0):
    return PromptBank(np.random.default_rng(seed), n_prompts, dim)


def identity_compose(bank):
    bank.compose.weight.data[:] = 0.0
    for o in range(bank.compose.weight.data.shape[0]):
        bank.compose.weight.data[o, o, 1, 1] = 1.0
    bank.compose.bias.data[:] = 0.0


def one_hot_weights(b, n, k, grid_h, grid_w):
    w = np.zeros((b, n, grid_h, grid_w))
    w[:, k] = 1.0
    return Tensor(w)


def per_patch_weights(F, bank, patch):
    """Oracle: per patch cell mean-pool, 1x1 affine, stable softmax; (b, gh, gw, n)."""
    b, c, h, w = F.shape
    W = bank.shrink.weight.data[:, :, 0, 0]
    out = np.zeros((b, h // patch, w // patch, W.shape[0]))
    for n in range(b):
        for gi in range(h // patch):
            for gj in range(w // patch):
                block = F[n, :, gi * patch : (gi + 1) * patch, gj * patch : (gj + 1) * patch]
                logits = W @ block.reshape(c, -1).mean(axis=1) + bank.shrink.bias.data
                e = np.exp(logits - logits.max())
                out[n, gi, gj] = e / e.sum()
    return out


def per_patch_compose(weights, bank, patch):
    """Oracle: each cell's weighted prompt sum filled into its patch, then the compose conv."""
    b, gh, gw, _ = weights.shape
    grid = np.zeros((b, bank.prompts.data.shape[1], gh * patch, gw * patch))
    for n in range(b):
        for gi in range(gh):
            for gj in range(gw):
                mixed = weights[n, gi, gj] @ bank.prompts.data
                grid[n, :, gi * patch : (gi + 1) * patch, gj * patch : (gj + 1) * patch] = mixed[:, None, None]
    return ad.conv2d(Tensor(grid), bank.compose.weight, bank.compose.bias, 1, 1).data


class TestPromptWeights:
    def test_zero_shrink_gives_uniform(self):
        bank = make_bank(n_prompts=4, dim=3)
        bank.shrink.weight.data[:] = 0.0
        bank.shrink.bias.data[:] = 0.0
        F = Tensor(np.random.default_rng(1).normal(size=(2, 3, 8, 8)))
        w = prompt_weights(F, bank, patch=4)
        np.testing.assert_allclose(w.data, np.full((2, 4, 2, 2), 0.25), atol=1e-15)

    def test_constant_input_identical_weights(self):
        bank = make_bank(n_prompts=3, dim=2)
        F = Tensor(np.full((1, 2, 8, 8), 0.7))
        w = prompt_weights(F, bank, patch=2).data
        assert w.shape == (1, 3, 4, 4)
        np.testing.assert_allclose(w, np.broadcast_to(w[:, :, :1, :1], w.shape), atol=1e-15)

    def test_matches_pipeline_oracle(self):
        rng = np.random.default_rng(2)
        bank = make_bank(n_prompts=3, dim=4, seed=3)
        F = rng.normal(size=(2, 4, 8, 8))
        got = prompt_weights(Tensor(F), bank, 4).data
        np.testing.assert_allclose(got.transpose(0, 2, 3, 1), per_patch_weights(F, bank, 4), atol=1e-12)

    def test_batch_non_square_grid_matches_oracle(self):
        # 2 images on a 2x3 grid of cells: a cell/batch mix-up moves weights between cells
        rng = np.random.default_rng(25)
        bank = make_bank(n_prompts=3, dim=4, seed=26)
        F = rng.normal(size=(2, 4, 8, 12)) * 3.0
        got = prompt_weights(Tensor(F), bank, 4).data
        assert got.shape == (2, 3, 2, 3)
        np.testing.assert_allclose(got.transpose(0, 2, 3, 1), per_patch_weights(F, bank, 4), atol=1e-12)

    def test_probability_vector_property(self):
        rng = np.random.default_rng(4)
        bank = make_bank(n_prompts=5, dim=3, seed=5)
        for _ in range(10):
            F = Tensor(rng.normal(size=(1, 3, 8, 8)) * 5.0)
            w = prompt_weights(F, bank, 2).data
            assert w.min() >= 0.0
            np.testing.assert_allclose(w.sum(axis=1), np.ones((1, 4, 4)), atol=1e-10)

    def test_indivisible_patch_raises(self):
        bank = make_bank(dim=2)
        with pytest.raises(ShapeError):
            prompt_weights(Tensor(np.zeros((1, 2, 6, 6))), bank, patch=4)

    def test_channel_mismatch_raises(self):
        bank = make_bank(dim=2)
        with pytest.raises(ShapeError):
            prompt_weights(Tensor(np.zeros((1, 3, 8, 8))), bank, patch=4)


class TestComposePrompt:
    def test_one_hot_selection(self):
        bank = make_bank(n_prompts=3, dim=2, seed=6)
        identity_compose(bank)
        out = compose_prompt(one_hot_weights(b=1, n=3, k=1, grid_h=2, grid_w=2), bank, 3)
        assert out.data.shape == (1, 2, 6, 6)
        for ch in range(2):
            np.testing.assert_allclose(out.data[0, ch], np.full((6, 6), bank.prompts.data[1, ch]), atol=1e-12)

    def test_half_half_convexity(self):
        bank = make_bank(n_prompts=2, dim=3, seed=7)
        identity_compose(bank)
        out = compose_prompt(Tensor(np.full((1, 2, 1, 1), 0.5)), bank, 2)
        expected = (bank.prompts.data[0] + bank.prompts.data[1]) / 2.0
        for ch in range(3):
            np.testing.assert_allclose(out.data[0, ch], np.full((2, 2), expected[ch]), atol=1e-12)

    def test_matches_weighted_sum_then_conv_oracle(self):
        rng = np.random.default_rng(8)
        bank = make_bank(n_prompts=4, dim=3, seed=9)
        wdata = rng.dirichlet(np.ones(4), size=(2, 2, 2))  # batch of 2 images, 2x2 grid
        got = compose_prompt(Tensor(wdata.transpose(0, 3, 1, 2)), bank, 2)
        np.testing.assert_allclose(got.data, per_patch_compose(wdata, bank, 2), atol=1e-12)

    def test_batch_non_square_grid_matches_oracle(self):
        rng = np.random.default_rng(27)
        bank = make_bank(n_prompts=3, dim=4, seed=28)
        F = rng.normal(size=(2, 4, 8, 12)) * 3.0
        got = compose_prompt(prompt_weights(Tensor(F), bank, 4), bank, 4)
        assert got.data.shape == (2, 4, 8, 12)
        oracle = per_patch_compose(per_patch_weights(F, bank, 4), bank, 4)
        np.testing.assert_allclose(got.data, oracle, atol=1e-12)

    def test_linear_in_prompt_bank_with_zero_bias(self):
        rng = np.random.default_rng(10)
        bank = make_bank(n_prompts=3, dim=2, seed=11)
        bank.compose.bias.data[:] = 0.0
        w = Tensor(rng.dirichlet(np.ones(3), size=(1, 2, 2)).transpose(0, 3, 1, 2))
        base = compose_prompt(w, bank, 2).data.copy()
        bank.prompts.data[:] *= 3.0
        scaled = compose_prompt(w, bank, 2).data
        np.testing.assert_allclose(scaled, 3.0 * base, atol=1e-12)

    def test_single_prompt_uniform(self):
        bank = make_bank(n_prompts=1, dim=2, seed=12)
        F = Tensor(np.random.default_rng(13).normal(size=(1, 2, 4, 4)))
        w = prompt_weights(F, bank, 2)
        np.testing.assert_allclose(w.data, np.ones((1, 1, 2, 2)), atol=1e-15)
        mixed = ad.mix_rows(w, bank.prompts).data
        np.testing.assert_allclose(mixed, np.broadcast_to(mixed[:, :, :1, :1], mixed.shape))  # uniform before the conv

    def test_gradients(self):
        rng = np.random.default_rng(14)
        bank = make_bank(n_prompts=3, dim=2, seed=15)
        wdata = rng.dirichlet(np.ones(3), size=(1, 2, 2)).transpose(0, 3, 1, 2).copy()
        target = Tensor(rng.normal(size=(1, 2, 4, 4)))

        def loss_from_weights(t):
            return ad.mean_all(ad.square(ad.sub(compose_prompt(t, bank, 2), target)))

        assert ad.check_gradients(loss_from_weights, Tensor(wdata)) < 1e-4

        def loss_from_prompts(t):
            saved = bank.prompts
            bank.prompts = t
            try:
                return ad.mean_all(ad.square(ad.sub(compose_prompt(Tensor(wdata), bank, 2), target)))
            finally:
                bank.prompts = saved

        assert ad.check_gradients(loss_from_prompts, Tensor(bank.prompts.data.copy())) < 1e-4

    def test_weight_count_mismatch_raises(self):
        bank = make_bank(n_prompts=3, dim=2)
        with pytest.raises(ShapeError):
            compose_prompt(one_hot_weights(1, 2, 0, 2, 2), bank, 2)


class TestInjectPrompt:
    def test_zero_prompt_zero_params_identity(self):
        bank = make_bank(n_prompts=2, dim=3, seed=16)
        for conv in (bank.inject1, bank.inject2):
            conv.weight.data[:] = 0.0
            conv.bias.data[:] = 0.0
        F = Tensor(np.random.default_rng(17).normal(size=(2, 3, 4, 4)))
        out = inject_prompt(F, Tensor(np.zeros((2, 3, 4, 4))), bank)
        np.testing.assert_array_equal(out.data, F.data)

    def test_shape_contract(self):
        rng = np.random.default_rng(18)
        for dim, hw in [(2, 4), (3, 8)]:
            bank = make_bank(n_prompts=2, dim=dim, seed=19)
            F = Tensor(rng.normal(size=(1, dim, hw, hw)))
            P = Tensor(rng.normal(size=(1, dim, hw, hw)))
            assert inject_prompt(F, P, bank).data.shape == F.data.shape

    def test_gradients(self):
        rng = np.random.default_rng(20)
        bank = make_bank(n_prompts=2, dim=2, seed=21)
        F = Tensor(rng.normal(size=(1, 2, 4, 4)))
        P = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert ad.check_gradients(lambda t: ad.mean_all(ad.square(inject_prompt(t, P, bank))), F) < 1e-4
        assert ad.check_gradients(lambda t: ad.mean_all(ad.square(inject_prompt(F, t, bank))), P) < 1e-4

        def loss_of_inject1(t):
            saved = bank.inject1.weight
            bank.inject1.weight = t
            try:
                return ad.mean_all(ad.square(inject_prompt(F, P, bank)))
            finally:
                bank.inject1.weight = saved

        assert ad.check_gradients(loss_of_inject1, Tensor(bank.inject1.weight.data.copy())) < 1e-4

    def test_shape_mismatch_raises(self):
        bank = make_bank(dim=2)
        with pytest.raises(ShapeError):
            inject_prompt(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 8, 8))), bank)


class TestPromptPyramid:
    def test_apply_preserves_shape_and_tracks_deviation(self):
        rng = np.random.default_rng(23)
        pyramid = PromptPyramid(np.random.default_rng(24), channel_sizes=[4, 8], n_prompts=5)
        F0 = Tensor(rng.normal(size=(2, 4, 16, 16)))
        out = pyramid.apply(0, F0, Tensor(rng.normal(size=(2, 4, 16, 16))))
        assert out.data.shape == F0.data.shape
        F1 = Tensor(rng.normal(size=(2, 8, 8, 8)))
        out = pyramid.apply(1, F1, Tensor(rng.normal(size=(2, 8, 8, 8))))
        assert out.data.shape == F1.data.shape
        assert pyramid.max_weight_sum_dev < 1e-10
