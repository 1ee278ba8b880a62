"""Loss algebra against direct oracles, gradient routing, and logging."""

import numpy as np
import pytest

from lumiq import autodiff as ad
from lumiq.autodiff import ShapeError, Tape, Tensor
from lumiq.losses import (
    DivergenceError,
    PerceptualExtractor,
    discriminator_loss,
    feature_matching_loss,
    generator_loss,
    l1_loss,
    reconstruction_loss,
    total_loss,
    vq_total_loss,
    write_loss_csv,
)
from lumiq.training import TrainConfig


def logsig_hp(z):
    """log sigmoid in extended precision via the stable softplus form."""
    z = np.asarray(z, dtype=np.longdouble)
    return np.where(z >= 0, -np.log1p(np.exp(-z)), z - np.log1p(np.exp(z)))


class TestL1:
    def test_equal_is_zero(self):
        a = Tensor(np.random.default_rng(0).normal(size=(1, 3, 4, 4)))
        assert l1_loss(a, Tensor(a.data.copy())).item() == 0.0

    def test_ones_vs_zeros(self):
        assert l1_loss(Tensor(np.ones((2, 3, 4, 4))), Tensor(np.zeros((2, 3, 4, 4)))).item() == 1.0

    def test_matches_direct_evaluation(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(2, 3, 5, 5)), rng.normal(size=(2, 3, 5, 5))
        assert abs(l1_loss(Tensor(a), Tensor(b)).item() - np.abs(a - b).mean()) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            l1_loss(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 4, 5))))

    def test_gradient(self):
        rng = np.random.default_rng(2)
        b = Tensor(rng.normal(size=(1, 2, 3, 3)))
        a = Tensor(b.data + rng.uniform(0.2, 1.0, size=(1, 2, 3, 3)))  # keep |a-b| off zero
        assert ad.check_gradients(lambda t: l1_loss(t, b), a) < 1e-4


class TestAdversarial:
    def test_perfect_discriminator_limit(self):
        real = Tensor(np.full((1, 1, 2, 2), 1000.0))
        fake = Tensor(np.full((1, 1, 2, 2), -1000.0))
        assert abs(discriminator_loss(real, fake, 0.1).item()) < 1e-12

    def test_zero_logits_closed_form(self):
        zeros = Tensor(np.zeros((1, 1, 3, 3)))
        assert abs(discriminator_loss(zeros, zeros, 0.1).item() + 1.1 * np.log(0.5)) < 1e-12
        assert abs(generator_loss(zeros, 0.1).item() + 0.1 * np.log(0.5)) < 1e-12

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            real = rng.normal(size=(1, 1, 4, 4)) * 3.0
            fake = rng.normal(size=(1, 1, 4, 4)) * 3.0
            gamma = float(rng.uniform(0.05, 1.0))
            got_d = discriminator_loss(Tensor(real), Tensor(fake), gamma).item()
            want_d = -float(gamma * logsig_hp(real).mean() + logsig_hp(-fake).mean())
            assert abs(got_d - want_d) < 1e-10
            got_g = generator_loss(Tensor(fake), gamma).item()
            want_g = -float(gamma * logsig_hp(fake).mean())
            assert abs(got_g - want_g) < 1e-10

    def test_generator_decreases_as_fake_improves(self):
        low = generator_loss(Tensor(np.full((1, 1, 2, 2), -2.0)), 0.1).item()
        high = generator_loss(Tensor(np.full((1, 1, 2, 2), 2.0)), 0.1).item()
        assert high < low

    def test_gradients(self):
        rng = np.random.default_rng(4)
        real = Tensor(rng.normal(size=(1, 1, 3, 3)))
        fake = Tensor(rng.normal(size=(1, 1, 3, 3)))
        assert ad.check_gradients(lambda t: discriminator_loss(t, fake, 0.1), real) < 1e-4
        assert ad.check_gradients(lambda t: discriminator_loss(real, t, 0.1), fake) < 1e-4
        assert ad.check_gradients(lambda t: generator_loss(t, 0.1), fake) < 1e-4


class TestFeatureMatching:
    def test_equal_is_zero(self):
        Z = Tensor(np.random.default_rng(5).normal(size=(2, 4, 3, 3)))
        assert feature_matching_loss(Z, Tensor(Z.data.copy()), 0.25).item() == 0.0

    def test_target_gets_no_gradient(self):
        rng = np.random.default_rng(6)
        Z = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        Zq = Tensor(rng.normal(size=(1, 3, 4, 4)), requires_grad=True)
        tape = Tape()
        with tape:
            loss = feature_matching_loss(Z, Zq, 0.25)
        ad.backward(loss, tape)
        assert np.any(Z.grad != 0.0)
        np.testing.assert_array_equal(Zq.grad_array(), np.zeros_like(Zq.data))

    def test_matches_formula_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            Z = rng.normal(size=(2, 4, 3, 3))
            Zq = rng.normal(size=(2, 4, 3, 3))
            sigma = 0.25
            got = feature_matching_loss(Tensor(Z), Tensor(Zq), sigma).item()
            direct = ((Z - Zq) ** 2).mean()
            fa = Z.reshape(2, 4, -1)
            fb = Zq.reshape(2, 4, -1)
            ga = np.einsum("bip,bjp->bij", fa, fa)
            gb = np.einsum("bip,bjp->bij", fb, fb)
            want = sigma * direct + ((ga - gb) ** 2).mean()
            assert abs(got - want) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            feature_matching_loss(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 4, 4, 4))), 0.25)

    def test_gradient_wrt_features(self):
        rng = np.random.default_rng(8)
        Zq = Tensor(rng.normal(size=(1, 3, 3, 3)))
        Z = Tensor(rng.normal(size=(1, 3, 3, 3)))
        assert ad.check_gradients(lambda t: feature_matching_loss(t, Zq, 0.25), Z) < 1e-4


class TestReconstruction:
    def test_identical_is_zero(self):
        px = PerceptualExtractor(seed=7)
        I = Tensor(np.random.default_rng(9).uniform(size=(1, 3, 16, 16)))
        assert reconstruction_loss(I, Tensor(I.data.copy()), px).item() == 0.0

    def test_perceptual_term_positive_for_shifted_copy(self):
        px = PerceptualExtractor(seed=7)
        rng = np.random.default_rng(10)
        I = rng.uniform(0.2, 0.8, size=(1, 3, 16, 16))
        shifted = np.roll(I, 3, axis=3)
        fa = px.features(Tensor(I))
        fb = px.features(Tensor(shifted))
        perceptual = sum(((a.data - b.data) ** 2).mean() for a, b in zip(fa, fb))
        assert perceptual > 0.0

    def test_matches_staged_oracle(self):
        px = PerceptualExtractor(seed=11)
        rng = np.random.default_rng(12)
        a = rng.uniform(size=(2, 3, 16, 16))
        b = rng.uniform(size=(2, 3, 16, 16))
        got = reconstruction_loss(Tensor(a), Tensor(b), px).item()
        want = np.abs(a - b).mean()
        for fa, fb in zip(px.features(Tensor(a)), px.features(Tensor(b))):
            want += ((fa.data - fb.data) ** 2).mean()
        assert abs(got - want) < 1e-10

    def test_extractor_is_seed_deterministic(self):
        a = PerceptualExtractor(seed=3)
        b = PerceptualExtractor(seed=3)
        c = PerceptualExtractor(seed=4)
        for ca, cb in zip(a.convs, b.convs):
            np.testing.assert_array_equal(ca.weight.data, cb.weight.data)
        assert any(np.any(x.weight.data != y.weight.data) for x, y in zip(a.convs, c.convs))

    def test_extractor_params_do_not_train(self):
        px = PerceptualExtractor(seed=5)
        I = Tensor(np.random.default_rng(13).uniform(size=(1, 3, 8, 8)), requires_grad=True)
        target = Tensor(np.random.default_rng(14).uniform(size=(1, 3, 8, 8)))
        tape = Tape()
        with tape:
            loss = reconstruction_loss(I, target, px)
        ad.backward(loss, tape)
        assert I.grad is not None
        for conv in px.convs:
            assert conv.weight.grad is None and conv.bias.grad is None

    def test_gradient_wrt_reconstruction(self):
        px = PerceptualExtractor(seed=15)
        rng = np.random.default_rng(16)
        target = Tensor(rng.uniform(size=(1, 3, 8, 8)))
        I = Tensor(target.data + rng.uniform(0.1, 0.3, size=(1, 3, 8, 8)))
        assert ad.check_gradients(lambda t: reconstruction_loss(t, target, px), I) < 1e-4

    def test_shape_mismatch_raises(self):
        px = PerceptualExtractor(seed=17)
        with pytest.raises(ShapeError):
            reconstruction_loss(Tensor(np.zeros((1, 3, 8, 8))), Tensor(np.zeros((1, 3, 16, 16))), px)


class TestTotals:
    def test_all_zero(self):
        z = Tensor(0.0)
        assert total_loss(z, z, z, z, 0.5).item() == 0.0
        assert vq_total_loss(z, z, z).item() == 0.0

    def test_arithmetic_example(self):
        got = total_loss(Tensor(1.0), Tensor(1.0), Tensor(1.0), Tensor(2.0), 0.5).item()
        assert got == 4.0

    def test_linear_in_each_component(self):
        rng = np.random.default_rng(18)
        w = 0.5
        base = [Tensor(float(v)) for v in rng.uniform(0.1, 1.0, size=4)]
        ref = total_loss(*base, w).item()
        for i, coef in enumerate([1.0, 1.0, 1.0, 0.5]):
            bumped = list(base)
            bumped[i] = Tensor(base[i].item() + 1.0)
            assert abs(total_loss(*bumped, w).item() - (ref + coef)) < 1e-12

    def test_vq_total_is_plain_sum(self):
        got = vq_total_loss(Tensor(0.5), Tensor(0.25), Tensor(0.125)).item()
        assert got == 0.875

    def test_nan_component_names_component(self):
        w = 0.5
        z = Tensor(0.0)
        with pytest.raises(DivergenceError, match="l_rec"):
            total_loss(z, z, Tensor(float("nan")), z, w)
        with pytest.raises(DivergenceError, match="l_cma"):
            vq_total_loss(z, Tensor(float("inf")), z)

    def test_weights_validate(self):
        with pytest.raises(ValueError):
            TrainConfig(sigma=-0.1)

    def test_lambda_sweep_values_accepted(self):
        for lam in (1.0, 0.5, 0.001):
            got = total_loss(Tensor(0.0), Tensor(0.0), Tensor(0.0), Tensor(2.0), lam).item()
            assert abs(got - lam * 2.0) < 1e-15


class TestLossCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "log.csv"
        write_loss_csv(path, ["step", "l_adv", "l_total"], [(0, 0.5, 1.25), (1, 0.25, 1.0)])
        text = path.read_text()
        assert text == "step,l_adv,l_total\n0,0.5,1.25\n1,0.25,1\n"
