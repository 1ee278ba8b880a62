"""Gram extraction, light factors, and the contrastive/consistency losses."""

import numpy as np
import pytest

from lumiq import autodiff as ad
from lumiq.autodiff import ShapeError, Tape, Tensor
from lumiq.lqm import (
    DegenerateFactorError,
    LqmState,
    cosine_distance,
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


class TestContrastiveLoss:
    def test_identical_same_label_inactive(self):
        f = factor([1.0, 2.0, 3.0])
        g = factor([1.0, 2.0, 3.0])
        assert lqm_contrastive_loss([(f, 0), (g, 0)], margin=0.1).item() == 0.0

    def test_orthogonal_different_label_inactive(self):
        f = factor([1.0, 0.0])
        g = factor([0.0, 1.0])  # cosine 0, distance 1 >= margin
        assert lqm_contrastive_loss([(f, 0), (g, 1)], margin=0.1).item() == 0.0

    def test_same_label_half_cosine(self):
        # cos = 0.5 so dist = 0.5; hinge (0.5 - 0.1)^2 = 0.16
        f = factor([1.0, 0.0])
        g = factor([0.5, np.sqrt(3.0) / 2.0])
        loss = lqm_contrastive_loss([(f, 1), (g, 1)], margin=0.1).item()
        assert abs(loss - 0.16) < 1e-12

    def test_matches_direct_oracle_on_mixed_set(self):
        rng = np.random.default_rng(6)
        vals = [rng.normal(size=6) + 0.5 for _ in range(5)]
        labels = [0, 1, 0, 1, 1]
        factors = [(factor(v), lab) for v, lab in zip(vals, labels)]
        got = lqm_contrastive_loss(factors, margin=0.1).item()
        want = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                cos = np.dot(vals[i], vals[j]) / (np.linalg.norm(vals[i]) * np.linalg.norm(vals[j]))
                dist = 1.0 - cos
                if labels[i] == labels[j]:
                    want += max(dist - 0.1, 0.0) ** 2
                else:
                    want += max(0.1 - dist, 0.0) ** 2
        assert abs(got - want) < 1e-12

    def test_equals_sum_over_every_pair(self):
        rng = np.random.default_rng(10)
        factors = [(factor(rng.normal(size=6) + 0.5), lab) for lab in (0, 1, 0, 1, 1, 0)]
        want = Tensor(0.0)
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                dist = cosine_distance(factors[i][0], factors[j][0])
                if factors[i][1] == factors[j][1]:
                    hinge = ad.relu(ad.sub(dist, Tensor(0.3)))
                else:
                    hinge = ad.relu(ad.sub(Tensor(0.3), dist))
                want = ad.add(want, ad.square(hinge))
        got = lqm_contrastive_loss(factors, margin=0.3)
        assert 0.0 < got.item() == want.item()

    def test_factor_with_only_inactive_pairs_gets_no_gradient(self):
        # f0's pairs are all inactive; (f1, f3) and (f2, f3) are active
        f0, f1, f2, f3 = (Tensor(np.asarray(v), requires_grad=True)
                          for v in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.1], [0.0, 0.2, 1.0]))
        tape = Tape()
        with tape:
            loss = lqm_contrastive_loss([(f0, 0), (f1, 1), (f2, 1), (f3, 1)], margin=0.1)
        ad.backward(loss, tape)
        assert loss.item() > 0.0
        assert f0.grad is None
        assert all(np.abs(f.grad).max() > 0.0 for f in (f1, f2, f3))

    def test_nan_factor_gives_non_finite_loss(self):
        loss = lqm_contrastive_loss([(factor([np.nan, 1.0]), 0), (factor([1.0, 0.0]), 0)], margin=0.1)
        assert not np.isfinite(loss.item())

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        factors = [(factor(rng.normal(size=4) + 1.0), i % 2) for i in range(4)]
        a = lqm_contrastive_loss(factors, margin=0.1).item()
        b = lqm_contrastive_loss(factors[::-1], margin=0.1).item()
        assert abs(a - b) < 1e-12

    def test_zero_norm_raises(self):
        with pytest.raises(DegenerateFactorError):
            lqm_contrastive_loss([(factor([0.0, 0.0]), 0), (factor([1.0, 0.0]), 1)], margin=0.1)

    def test_too_few_factors_raises(self):
        with pytest.raises(ValueError):
            lqm_contrastive_loss([(factor([1.0]), 0)], margin=0.1)

    def test_gradient(self):
        rng = np.random.default_rng(8)
        other = factor(rng.normal(size=4) + 1.0)
        x = Tensor(rng.normal(size=4) + 1.0)
        assert ad.check_gradients(lambda t: lqm_contrastive_loss([(t, 0), (other, 1)], margin=0.5), x) < 1e-4

    def test_cosine_distance_range(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = Tensor(rng.normal(size=5)), Tensor(rng.normal(size=5))
            d = cosine_distance(a, b).item()
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
