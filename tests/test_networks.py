"""Encoder/decoder/discriminator shape, freeze, and gradient contracts."""

import re

import numpy as np
import pytest

from lumiq import autodiff as ad
from lumiq.autodiff import ShapeError, Tape, Tensor
from lumiq.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from lumiq.networks import (
    Decoder,
    Discriminator,
    Encoder,
    ResnetBlock,
    SkipFusion,
    set_trainable,
)
from lumiq.training import TrainConfig


def tiny_cfg(**kw):
    base = dict(base_channels=4, n_down=2, code_dim=6)
    base.update(kw)
    return TrainConfig(**base)


class TestEncoder:
    def test_shape_contract(self):
        cfg = TrainConfig(base_channels=4, n_down=3, code_dim=32)
        enc = Encoder(cfg, np.random.default_rng(0))
        Z, skips = enc.forward(Tensor(np.random.default_rng(1).uniform(size=(1, 3, 32, 32))))
        assert Z.data.shape == (1, 32, 4, 4)
        assert len(skips) == 3
        assert [s.data.shape for s in skips] == [(1, 4, 16, 16), (1, 8, 8, 8), (1, 16, 4, 4)]

    def test_zero_input_zero_biases(self):
        enc = Encoder(tiny_cfg(), np.random.default_rng(2))
        for _, p in enc.named_params():
            if p.data.ndim == 1:
                p.data[:] = 0.0
        Z, _ = enc.forward(Tensor(np.zeros((1, 3, 8, 8))))
        np.testing.assert_array_equal(Z.data, np.zeros_like(Z.data))

    def test_deterministic_replay(self):
        x = np.random.default_rng(3).uniform(size=(2, 3, 8, 8))
        outs = []
        for _ in range(2):
            enc = Encoder(tiny_cfg(), np.random.default_rng(42))
            Z, _ = enc.forward(Tensor(x.copy()))
            outs.append(Z.data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_indivisible_dims_raise(self):
        enc = Encoder(tiny_cfg(), np.random.default_rng(4))
        with pytest.raises(ShapeError):
            enc.forward(Tensor(np.zeros((1, 3, 10, 8))))

    def test_wrong_channels_raise(self):
        enc = Encoder(tiny_cfg(), np.random.default_rng(5))
        with pytest.raises(ShapeError):
            enc.forward(Tensor(np.zeros((1, 1, 8, 8))))


class TestDecoder:
    def test_shape_round_trip(self):
        rng = np.random.default_rng(6)
        cfg = tiny_cfg()
        enc = Encoder(cfg, rng)
        dec = Decoder(cfg, rng)
        I = Tensor(rng.uniform(size=(2, 3, 16, 16)))
        Z, skips = enc.forward(I)
        out = dec.forward(Z, skips)
        assert out.data.shape == I.data.shape

    def test_output_in_unit_interval(self):
        rng = np.random.default_rng(7)
        cfg = tiny_cfg()
        enc, dec = Encoder(cfg, rng), Decoder(cfg, rng)
        Z, skips = enc.forward(Tensor(rng.uniform(size=(1, 3, 8, 8))))
        out = dec.forward(Z, skips)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_deterministic_replay(self):
        x = np.random.default_rng(8).uniform(size=(1, 3, 8, 8))
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(9)
            enc, dec = Encoder(tiny_cfg(), rng), Decoder(tiny_cfg(), rng)
            Z, skips = enc.forward(Tensor(x.copy()))
            outs.append(dec.forward(Z, skips).data)
        np.testing.assert_array_equal(outs[0], outs[1])

    def test_skip_count_mismatch_raises(self):
        rng = np.random.default_rng(10)
        dec = Decoder(tiny_cfg(), rng)
        with pytest.raises(ShapeError):
            dec.forward(Tensor(np.zeros((1, 6, 2, 2))), [Tensor(np.zeros((1, 4, 4, 4)))])

    def test_freeze_blocks_gradients(self):
        rng = np.random.default_rng(11)
        cfg = tiny_cfg()
        enc, dec = Encoder(cfg, rng), Decoder(cfg, rng)
        set_trainable(dec.core_named_params(), False)
        before = [p.data.copy() for _, p in dec.core_named_params()]
        x = Tensor(rng.uniform(size=(1, 3, 8, 8)), requires_grad=True)
        tape = Tape()
        with tape:
            Z, skips = enc.forward(x)
            out = dec.forward(Z, skips)
            loss = ad.mean_all(out)
        ad.backward(loss, tape)
        for (name, p), prev in zip(dec.core_named_params(), before):
            assert p.grad is None, name
            np.testing.assert_array_equal(p.data, prev)
        assert x.grad is not None and np.any(x.grad != 0.0)  # grads still flow through

    def test_core_freeze_leaves_fusion_trainable(self):
        rng = np.random.default_rng(12)
        dec = Decoder(tiny_cfg(), rng)
        set_trainable(dec.core_named_params(), False)
        assert all(not p.requires_grad for _, p in dec.core_named_params())
        assert all(p.requires_grad for _, p in dec.fusion_named_params())


class TestSkipFusion:
    def test_identity_affine_at_init(self):
        rng = np.random.default_rng(13)
        fusion = SkipFusion(rng, 4)
        F_d = Tensor(rng.normal(size=(2, 4, 5, 5)))
        F_e = Tensor(rng.normal(size=(2, 4, 5, 5)))
        out = fusion(F_d, F_e)
        np.testing.assert_allclose(out.data, F_d.data, atol=1e-15)

    def test_pure_bias(self):
        rng = np.random.default_rng(14)
        fusion = SkipFusion(rng, 3)
        fusion.conv.weight.data[:] = 0.0
        fusion.conv.bias.data[:3] = 0.0  # alpha = 0
        fusion.conv.bias.data[3:] = 2.5  # beta = 2.5
        F_d = Tensor(rng.normal(size=(1, 3, 4, 4)))
        F_e = Tensor(rng.normal(size=(1, 3, 4, 4)))
        out = fusion(F_d, F_e)
        np.testing.assert_allclose(out.data, np.full_like(F_d.data, 2.5), atol=1e-15)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(15)
        fusion = SkipFusion(rng, 3)
        fusion.conv.weight.data[:] = rng.normal(size=fusion.conv.weight.data.shape) * 0.3
        fusion.conv.bias.data[:] = rng.normal(size=6) * 0.3
        F_d = rng.normal(size=(2, 3, 4, 4))
        F_e = rng.normal(size=(2, 3, 4, 4))
        out = fusion(Tensor(F_d), Tensor(F_e))
        cat = np.concatenate([F_d, F_e], axis=1)
        conv = ad.conv2d(Tensor(cat), fusion.conv.weight, fusion.conv.bias, stride=1, pad=1).data
        oracle = conv[:, :3] * F_d + conv[:, 3:]
        np.testing.assert_allclose(out.data, oracle, atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(16)
        fusion = SkipFusion(rng, 2)
        fusion.conv.weight.data[:] = rng.normal(size=fusion.conv.weight.data.shape) * 0.3
        F_d = Tensor(rng.normal(size=(1, 2, 4, 4)))
        F_e = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert ad.check_gradients(lambda t: ad.mean_all(ad.square(fusion(t, F_e))), F_d) < 1e-4
        assert ad.check_gradients(lambda t: ad.mean_all(ad.square(fusion(F_d, t))), F_e) < 1e-4
        assert ad.check_gradients(
            lambda t: ad.mean_all(ad.square(ad.add(ad.mul(ad.slice_channels(ad.conv2d(ad.concat_channels(F_d, F_e), t, fusion.conv.bias, 1, 1), 0, 2), F_d), ad.slice_channels(ad.conv2d(ad.concat_channels(F_d, F_e), t, fusion.conv.bias, 1, 1), 2, 4)))),
            fusion.conv.weight,
        ) < 1e-4

    def test_shape_mismatch_raises(self):
        fusion = SkipFusion(np.random.default_rng(17), 2)
        with pytest.raises(ShapeError):
            fusion(Tensor(np.zeros((1, 2, 4, 4))), Tensor(np.zeros((1, 2, 5, 5))))


class TestDiscriminator:
    def test_logit_map_shape(self):
        disc = Discriminator(tiny_cfg(), np.random.default_rng(18))
        logits = disc.forward(Tensor(np.random.default_rng(19).uniform(size=(1, 3, 32, 32))))
        assert logits.data.shape == (1, 1, 8, 8)

    def test_zero_params_zero_logits(self):
        disc = Discriminator(tiny_cfg(), np.random.default_rng(20))
        for _, p in disc.named_params():
            p.data[:] = 0.0
        logits = disc.forward(Tensor(np.random.default_rng(21).uniform(size=(1, 3, 8, 8))))
        np.testing.assert_array_equal(logits.data, np.zeros_like(logits.data))

    def test_gradient_wrt_input(self):
        rng = np.random.default_rng(22)
        disc = Discriminator(tiny_cfg(), rng)
        I = Tensor(rng.uniform(0.1, 0.9, size=(1, 3, 8, 8)))
        assert ad.check_gradients(lambda t: ad.mean_all(ad.square(disc.forward(t))), I) < 1e-4


class TestResnetBlock:
    def test_zero_params_identity(self):
        block = ResnetBlock(np.random.default_rng(23), 3)
        for _, p in block.named_params("b"):
            p.data[:] = 0.0
        F = Tensor(np.random.default_rng(24).normal(size=(1, 3, 4, 4)))
        np.testing.assert_array_equal(block(F).data, F.data)

    def test_linear_configuration_is_homogeneous(self):
        # zero biases make the block positively homogeneous (leaky-relu is,
        # at any slope), and doubling is exact, so block(2F) = 2 block(F)
        rng = np.random.default_rng(25)
        block = ResnetBlock(rng, 2)
        block.conv1.bias.data[:] = 0.0
        block.conv2.bias.data[:] = 0.0
        F = rng.normal(size=(1, 2, 4, 4))
        one = block(Tensor(F)).data
        two = block(Tensor(2.0 * F)).data
        np.testing.assert_allclose(two - 2.0 * one, np.zeros_like(one), atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(26)
        block = ResnetBlock(rng, 2)
        F = Tensor(rng.normal(size=(1, 2, 4, 4)))
        assert ad.check_gradients(lambda t: ad.mean_all(ad.square(block(t))), F) < 1e-4


class TestEncoderGradients:
    def test_parameter_gradient_check(self):
        rng = np.random.default_rng(27)
        cfg = tiny_cfg(base_channels=2, code_dim=3)
        enc = Encoder(cfg, rng)
        I = Tensor(rng.uniform(0.2, 0.8, size=(1, 3, 8, 8)))

        def loss_of_weight(t):
            saved = enc.downs[0].weight
            enc.downs[0].weight = t
            try:
                Z, _ = enc.forward(I)
                return ad.mean_all(ad.square(Z))
            finally:
                enc.downs[0].weight = saved

        assert ad.check_gradients(loss_of_weight, Tensor(enc.downs[0].weight.data.copy())) < 1e-4


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(28)
        entries = {
            "encoder.down0.weight": rng.normal(size=(4, 3, 3, 3)),
            "encoder.down0.bias": rng.normal(size=4),
            "config/seed": np.asarray(123.0),
            "codebook.codes": rng.normal(size=(16, 8)),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(entries, path)
        loaded = load_checkpoint(path)
        assert list(loaded.keys()) == list(entries.keys())
        for k in entries:
            np.testing.assert_array_equal(loaded[k], np.asarray(entries[k], dtype=np.float64))

    def test_network_params_round_trip(self, tmp_path):
        rng = np.random.default_rng(29)
        enc = Encoder(tiny_cfg(), rng)
        entries = {name: p.data for name, p in enc.named_params()}
        path = tmp_path / "enc.ckpt"
        save_checkpoint(entries, path)
        loaded = load_checkpoint(path)
        for name, p in enc.named_params():
            np.testing.assert_array_equal(loaded[name], p.data)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTLUMIQ" + b"\x00" * 16)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.ones((3, 3))}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_failed_save_keeps_existing_file(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.ones((3, 3))}, path)
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_checkpoint({"w": np.zeros((3, 3)), "bad": np.asarray(["not a number"])}, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]

    def test_trailing_bytes_raise(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"w": np.ones(2)}, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_non_utf8_entry_name_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint({"ab": np.ones(2)}, path)
        blob = path.read_bytes()
        # magic (6 bytes), entry count (4), name length (2), then the name "ab"
        assert blob[12:14] == b"ab"
        path.write_bytes(blob[:13] + b"\xff" + blob[14:])
        with pytest.raises(CheckpointError, match=rf"^{re.escape(str(path))}: entry name not valid utf-8 at byte 13$"):
            load_checkpoint(path)
