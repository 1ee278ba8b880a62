"""Gram extraction, light factors, and the contrastive/consistency losses."""

import numpy as np
import pytest

from lumiq import autodiff as ad
from lumiq.autodiff import ShapeError, Tape, Tensor
from lumiq.lqm import (
    DegenerateFactorError,
    LqmState,
    light_consistency_loss,
    light_factors,
    lqm_contrastive_loss,
)
from lumiq.networks import set_trainable


def factor(vals):
    return Tensor(np.asarray(vals, dtype=np.float64))


def gram(F):
    """(c, c) Gram of one (1, c, h, w) feature map."""
    return ad.gram(Tensor(F)).data[0, 0]


class TestGramMatrix:
    def test_single_channel_sum_of_squares(self):
        np.testing.assert_array_equal(gram(np.array([1.0, 2.0, 2.0]).reshape(1, 1, 1, 3)), [[9.0]])

    def test_orthogonal_channels_give_identity(self):
        F = np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 2, 1, 2)
        np.testing.assert_array_equal(gram(F), np.eye(2))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(0)
        F = rng.normal(size=(3, 4, 5, 5))
        G = ad.gram(Tensor(F)).data
        assert G.shape == (3, 1, 4, 4)
        for n in range(3):
            flat = F[n].reshape(4, 25)
            oracle = np.zeros((4, 4))
            for i in range(4):
                for j in range(4):
                    oracle[i, j] = float(np.dot(flat[i], flat[j]))
            np.testing.assert_allclose(G[n, 0], oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetry_and_psd(self, seed):
        rng = np.random.default_rng(10 + seed)
        G = gram(rng.normal(size=(1, 6, 7, 7)))
        np.testing.assert_allclose(G, G.T, atol=1e-10)
        for _ in range(100):
            v = rng.normal(size=6)
            assert v @ G @ v >= -1e-9

    def test_gradient(self):
        rng = np.random.default_rng(20)
        F = Tensor(rng.normal(size=(2, 3, 4, 4)))
        coeff = Tensor(rng.normal(size=(2, 1, 3, 3)))
        assert ad.check_gradients(lambda t: ad.sum_all(ad.mul(ad.gram(t), coeff)), F) < 1e-4

    def test_bad_shape_raises(self):
        with pytest.raises(ShapeError):
            ad.gram(Tensor(np.zeros((3, 4, 4))))  # needs a batch axis


class TestExtractLightFactor:
    def test_zero_gram_zero_biases(self):
        lqm = LqmState(np.random.default_rng(0), channel_sizes=[4], d_l=8)
        for name, p in lqm.named_params():
            if p.data.ndim == 1:
                p.data[:] = 0.0
        (f,) = light_factors([Tensor(np.zeros((3, 4, 4, 4)))], lqm)
        np.testing.assert_array_equal(f.data, np.zeros((3, 8)))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        lqm = LqmState(np.random.default_rng(2), channel_sizes=[3, 5], d_l=6)
        skips = [Tensor(rng.normal(size=(2, 3, 4, 4))), Tensor(rng.normal(size=(2, 5, 2, 2)))]
        a = [f.data for f in light_factors(skips, lqm)]
        b = [f.data for f in light_factors(skips, lqm)]
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa, fb)
        assert [f.shape for f in a] == [(2, 6), (2, 6)]

    def test_rows_match_per_item_oracle(self):
        rng = np.random.default_rng(15)
        lqm = LqmState(np.random.default_rng(16), channel_sizes=[3], d_l=5)
        (first, second), = lqm.layers
        F = rng.normal(size=(4, 3, 2, 2))
        (got,) = light_factors([Tensor(F)], lqm)
        for n in range(4):
            flat = F[n].reshape(3, 4)
            g = (flat @ flat.T).reshape(-1)
            h = first.weight.data.reshape(first.weight.data.shape[0], -1) @ g + first.bias.data
            h = np.where(h > 0, h, 0.2 * h)
            want = second.weight.data.reshape(5, -1) @ h + second.bias.data
            np.testing.assert_allclose(got.data[n], want, rtol=0, atol=1e-10)

    def test_gradient_wrt_gram(self):
        rng = np.random.default_rng(3)
        lqm = LqmState(np.random.default_rng(4), channel_sizes=[3], d_l=5)
        coeff = Tensor(rng.normal(size=(2, 5)))

        def fn(t):
            (f,) = light_factors([t], lqm)
            return ad.sum_all(ad.mul(f, coeff))

        assert ad.check_gradients(fn, Tensor(rng.normal(size=(2, 3, 2, 2)))) < 1e-4

    def test_unknown_gram_size_raises(self):
        lqm = LqmState(np.random.default_rng(5), channel_sizes=[4], d_l=8)
        with pytest.raises(ShapeError):
            light_factors([Tensor(np.zeros((1, 6, 2, 2)))], lqm)
        with pytest.raises(ShapeError):
            light_factors([Tensor(np.zeros((1, 4, 2, 2)))] * 2, lqm)


def pair_loop_oracle(f_low, f_normal, margin):
    """The contrastive loss scored one pair at a time in numpy."""

    def dist(a, b):
        return 1.0 - a.dot(b) / (np.linalg.norm(a) * np.linalg.norm(b))

    b = len(f_low)
    total = sum(max(margin - dist(f_low[i], f_normal[i]), 0.0) ** 2 for i in range(b))
    for i in range(b):
        for j in range(i + 1, b):
            total += max(dist(f_normal[i], f_normal[j]) - margin, 0.0) ** 2
    return total


def contrastive(f_low, f_normal, margin):
    return lqm_contrastive_loss(factor(f_low), factor(f_normal), margin).item()


class TestContrastiveLoss:
    def test_identical_same_label_inactive(self):
        # two identical normal rows, each far from its low row
        row = [1.0, 2.0, 3.0]
        assert contrastive([[-3.0, 2.0, -1.0]] * 2, [row, row], margin=0.1) == 0.0

    def test_orthogonal_different_label_inactive(self):
        # cosine 0, distance 1 >= margin
        assert contrastive([[1.0, 0.0]], [[0.0, 1.0]], margin=0.1) == 0.0

    def test_same_label_half_cosine(self):
        # normal rows at cos = 0.5 so dist = 0.5; hinge (0.5 - 0.1)^2 = 0.16;
        # each low row is its normal row negated, at distance 2
        normal = np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        assert abs(contrastive(-normal, normal, margin=0.1) - 0.16) < 1e-12

    def test_matches_direct_oracle_on_mixed_set(self):
        rng = np.random.default_rng(6)
        normal = rng.normal(size=(4, 6)) + 0.5
        low = normal + rng.normal(size=(4, 6)) * np.array([[0.01], [2.0], [0.05], [3.0]])
        got = contrastive(low, normal, margin=0.1)
        want = pair_loop_oracle(low, normal, 0.1)
        assert want > 0.0 and abs(got - want) < 1e-12

    @pytest.mark.parametrize("b", range(1, 6))
    def test_matches_pair_loop_oracle(self, b):
        rng = np.random.default_rng(100 + b)
        for _ in range(20):
            normal = rng.normal(size=(b, 5)) + rng.uniform(-1.0, 1.0, size=5)
            low = normal + rng.normal(size=(b, 5)) * rng.uniform(0.0, 1.5, size=(b, 1))
            margin = float(rng.uniform(0.05, 0.6))
            want = pair_loop_oracle(low, normal, margin)
            assert abs(contrastive(low, normal, margin) - want) <= 1e-12 * max(1.0, want)

    def test_all_inactive_is_exactly_zero(self):
        # near-parallel normal rows and low rows orthogonal to their scene's
        base = np.array([1.0, 2.0, 0.5, -0.3])
        normal = np.stack([base, 3.0 * base, 0.5 * base])
        low = np.stack([[2.0, -1.0, 0.0, 0.0]] * 3)
        assert contrastive(low, normal, margin=0.1) == 0.0

    def test_equals_sum_over_every_pair(self):
        # one-scene calls score the different-lighting pairs alone; a two-scene
        # call whose low rows are the normal rows negated (distance 2, inactive)
        # scores one same-lighting pair alone
        rng = np.random.default_rng(10)
        normal = rng.normal(size=(5, 6)) + 0.5
        low = normal + rng.normal(size=(5, 6)) * 0.05
        want = sum(contrastive(low[i : i + 1], normal[i : i + 1], 0.3) for i in range(5))
        for i in range(5):
            for j in range(i + 1, 5):
                want += contrastive(-normal[[i, j]], normal[[i, j]], 0.3)
        got = contrastive(low, normal, 0.3)
        assert got > 0.0 and abs(got - want) < 1e-12

    def test_factor_with_only_inactive_pairs_gets_no_gradient(self):
        # the normal rows are near-parallel, so every same-lighting pair is
        # inactive; scene 0's low row is orthogonal to its normal row, while
        # scenes 1 and 2 have near-parallel, active different-lighting pairs
        f_low = Tensor(np.array([[0.0, 1.0, 0.0], [1.0, 0.05, 0.0], [1.0, 0.0, 0.05]]), requires_grad=True)
        f_normal = Tensor(np.array([[1.0, 0.0, 0.0], [1.0, 0.01, 0.0], [1.0, 0.0, 0.01]]), requires_grad=True)
        tape = Tape()
        with tape:
            loss = lqm_contrastive_loss(f_low, f_normal, margin=0.1)
        ad.backward(loss, tape)
        assert loss.item() > 0.0
        for f in (f_low, f_normal):
            assert not f.grad[0].any()
            assert all(np.abs(f.grad[n]).max() > 0.0 for n in (1, 2))

    def test_nan_factor_gives_non_finite_loss(self):
        assert not np.isfinite(contrastive([[np.nan, 1.0]], [[1.0, 0.0]], margin=0.1))
        # a NaN in a row whose every pair would be inactive still reaches the sum
        assert not np.isfinite(contrastive([[0.0, 1.0], [np.nan, 1.0]], [[1.0, 0.0], [1.0, 0.0]], margin=0.1))

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        normal = rng.normal(size=(4, 4)) + 1.0
        low = normal + rng.normal(size=(4, 4)) * 0.1
        a = contrastive(low, normal, margin=0.1)
        b = contrastive(low[::-1], normal[::-1], margin=0.1)
        assert a > 0.0 and abs(a - b) < 1e-12

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateFactorError):
            contrastive([[1.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [1.0, 1.0]], margin=0.1)
        with pytest.raises(DegenerateFactorError):
            contrastive([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.0]], margin=0.1)

    def test_mismatched_factors_raise(self):
        with pytest.raises(ShapeError):
            contrastive([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], margin=0.1)
        with pytest.raises(ShapeError):
            contrastive([1.0, 0.0], [0.0, 1.0], margin=0.1)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        normal = factor(rng.normal(size=(3, 4)) + 1.0)
        low = factor(normal.data + rng.normal(size=(3, 4)) * 0.05)
        assert ad.check_gradients(lambda t: lqm_contrastive_loss(t, normal, margin=0.5), low) < 1e-4
        assert ad.check_gradients(lambda t: lqm_contrastive_loss(low, t, margin=0.5), normal) < 1e-4

    def test_cosine_distance_range(self):
        # at margin 3 a one-scene loss is (3 - dist)^2 for any dist in [0, 2]
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = 3.0 - np.sqrt(contrastive(rng.normal(size=(1, 5)), rng.normal(size=(1, 5)), margin=3.0))
            assert -1e-12 <= d <= 2.0 + 1e-12


class TestConsistencyLoss:
    def test_identical_is_zero(self):
        f = np.array([[1.0, -2.0, 3.0]])
        assert light_consistency_loss(Tensor(f), Tensor(f.copy()), 4).item() == 0.0

    def test_scalar_case(self):
        loss = light_consistency_loss(Tensor(np.array([[2.0]])), Tensor(np.array([[0.0]])), 1)
        assert abs(loss.item() - 1.0) < 1e-15

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(3, 8))
        b = rng.normal(size=(3, 8))
        want = np.mean([((a[n] - b[n]) ** 2).sum() / (4.0 * 64 * 256) for n in range(3)])
        assert abs(light_consistency_loss(Tensor(a), Tensor(b), 16).item() - want) < 1e-12

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            f = Tensor(rng.normal(size=(2, 6)))
            g = Tensor(rng.normal(size=(2, 6)))
            lfg = light_consistency_loss(f, g, 4).item()
            lgf = light_consistency_loss(g, f, 4).item()
            assert abs(lfg - lgf) < 1e-15
            assert lfg >= 0.0

    def test_mismatch_raises(self):
        with pytest.raises(ShapeError):
            light_consistency_loss(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 5))), 4)
        with pytest.raises(ShapeError):
            light_consistency_loss(Tensor(np.zeros(4)), Tensor(np.zeros(4)), 4)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        g = Tensor(rng.normal(size=(2, 5)))
        assert ad.check_gradients(lambda t: light_consistency_loss(t, g, 4), Tensor(rng.normal(size=(2, 5)))) < 1e-4


class TestFreeze:
    def test_frozen_lqm_params_are_excluded_from_gradients(self):
        rng = np.random.default_rng(13)
        lqm = LqmState(np.random.default_rng(14), channel_sizes=[3], d_l=4)
        set_trainable(lqm.named_params(), False)
        F = Tensor(rng.normal(size=(2, 3, 2, 2)), requires_grad=True)
        tape = ad.Tape()
        with tape:
            (f,) = light_factors([F], lqm)
            loss = ad.sum_all(ad.square(f))
        ad.backward(loss, tape)
        for name, p in lqm.named_params():
            assert p.grad is None, name
        assert F.grad is not None  # input grads still flow
