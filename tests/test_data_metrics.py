"""Synthetic scenes, degradation properties, metrics oracles, PPM I/O."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from lumiq.autodiff import ShapeError, Tensor
from lumiq.data import (
    DegradeParams,
    ImagePair,
    PpmParseError,
    degrade,
    generate_pairs,
    read_image,
    synth_scene,
    write_image,
)
from lumiq.metrics import SSIM_C1, SSIM_C2, SSIM_WINDOW, psnr, ssim, write_metrics_csv


def ssim_oracle(a, b):
    """Independent loop implementation with explicit window statistics."""
    ga = a.mean(axis=1)
    gb = b.mean(axis=1)
    vals = []
    for n in range(ga.shape[0]):
        for i in range(ga.shape[1] - SSIM_WINDOW + 1):
            for j in range(ga.shape[2] - SSIM_WINDOW + 1):
                x = ga[n, i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
                y = gb[n, i : i + SSIM_WINDOW, j : j + SSIM_WINDOW]
                mx, my = x.mean(), y.mean()
                vx = (x * x).mean() - mx * mx
                vy = (y * y).mean() - my * my
                cxy = (x * y).mean() - mx * my
                num = (2 * mx * my + SSIM_C1) * (2 * cxy + SSIM_C2)
                den = (mx * mx + my * my + SSIM_C1) * (vx + vy + SSIM_C2)
                vals.append(num / den)
    return float(np.mean(vals))


def ssim_window_product_oracle(a, b):
    """The vectorised formula ssim used before: window views multiplied
    together, a (n, h-7, w-7, 8, 8) temporary per product."""
    ga, gb = a.mean(axis=1), b.mean(axis=1)
    wa = sliding_window_view(ga, (SSIM_WINDOW, SSIM_WINDOW), axis=(1, 2))
    wb = sliding_window_view(gb, (SSIM_WINDOW, SSIM_WINDOW), axis=(1, 2))
    mu_a = wa.mean(axis=(3, 4))
    mu_b = wb.mean(axis=(3, 4))
    var_a = (wa * wa).mean(axis=(3, 4)) - mu_a * mu_a
    var_b = (wb * wb).mean(axis=(3, 4)) - mu_b * mu_b
    cov = (wa * wb).mean(axis=(3, 4)) - mu_a * mu_b
    num = (2.0 * mu_a * mu_b + SSIM_C1) * (2.0 * cov + SSIM_C2)
    den = (mu_a * mu_a + mu_b * mu_b + SSIM_C1) * (var_a + var_b + SSIM_C2)
    return float((num / den).mean())


class TestSynthScene:
    def test_deterministic(self):
        a = synth_scene(42, 32, 32).data
        b = synth_scene(42, 32, 32).data
        np.testing.assert_array_equal(a, b)
        c = synth_scene(43, 32, 32).data
        assert np.any(a != c)

    def test_range(self):
        for seed in range(10):
            img = synth_scene(seed, 16, 24).data
            assert img.shape == (1, 3, 16, 24)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_mean_brightness_band(self):
        means = [synth_scene(seed, 32, 32).data.mean() for seed in range(100)]
        avg = float(np.mean(means))
        assert 0.35 <= avg <= 0.65


class TestDegrade:
    def test_identity_parameters(self):
        I = synth_scene(0, 16, 16)
        out = degrade(I, DegradeParams(gamma=1.0, gain=1.0, noise_sigma=0.0))
        np.testing.assert_array_equal(out.data, I.data)

    def test_hand_arithmetic(self):
        I = Tensor(np.ones((1, 3, 2, 2)))
        out = degrade(I, DegradeParams(gamma=2.0, gain=0.5, noise_sigma=0.0))
        np.testing.assert_allclose(out.data, np.full_like(I.data, 0.5), atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_noise_free_darkens(self, seed):
        rng = np.random.default_rng(seed)
        I = Tensor(rng.uniform(size=(1, 3, 8, 8)))
        p = DegradeParams(gamma=float(rng.uniform(1.0, 3.0)), gain=float(rng.uniform(0.1, 1.0)),
                          noise_sigma=0.0)
        out = degrade(I, p)
        assert out.data.mean() <= I.data.mean() + 1e-15

    def test_sigma_zero_deterministic(self):
        I = synth_scene(1, 16, 16)
        p = DegradeParams(gamma=2.0, gain=0.3, noise_sigma=0.0, seed=9)
        np.testing.assert_array_equal(degrade(I, p).data, degrade(I, p).data)

    def test_monotone_in_gain(self):
        I = synth_scene(2, 16, 16)
        lo = degrade(I, DegradeParams(gamma=2.0, gain=0.2, noise_sigma=0.0)).data
        hi = degrade(I, DegradeParams(gamma=2.0, gain=0.6, noise_sigma=0.0)).data
        assert np.all(lo <= hi + 1e-15)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DegradeParams(gamma=0.5, gain=0.5, noise_sigma=0.0)
        with pytest.raises(ValueError):
            DegradeParams(gamma=2.0, gain=0.0, noise_sigma=0.0)
        with pytest.raises(ValueError):
            DegradeParams(gamma=2.0, gain=0.5, noise_sigma=-0.1)


class TestGeneratePairs:
    def test_pair_contract(self):
        pairs = generate_pairs(8, 32, seed=5)
        assert len(pairs) == 8
        for k, pair in enumerate(pairs):
            assert pair.scene_id == k
            assert pair.low.data.shape == pair.normal.data.shape == (1, 3, 32, 32)
            assert pair.low.data.mean() < pair.normal.data.mean()

    def test_deterministic(self):
        a = generate_pairs(4, 16, seed=7)
        b = generate_pairs(4, 16, seed=7)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.low.data, pb.low.data)
            np.testing.assert_array_equal(pa.normal.data, pb.normal.data)

    def test_pair_validation(self):
        I = synth_scene(0, 8, 8)
        with pytest.raises(ValueError):
            ImagePair(low=I, normal=synth_scene(1, 16, 16), scene_id=0)


class TestPsnr:
    def test_zero_db(self):
        a = Tensor(np.ones((1, 3, 4, 4)))
        b = Tensor(np.zeros((1, 3, 4, 4)))
        assert abs(psnr(a, b, max_val=1.0)) < 1e-12

    def test_identical_is_inf(self):
        a = synth_scene(3, 8, 8)
        assert psnr(a, a) == float("inf")

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            a = rng.uniform(size=(1, 3, 8, 8))
            b = rng.uniform(size=(1, 3, 8, 8))
            want = 10.0 * np.log10(1.0 / ((a - b) ** 2).mean())
            assert abs(psnr(Tensor(a), Tensor(b)) - want) < 1e-10

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            psnr(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 4, 5))))

    def test_strictly_decreasing_in_noise(self):
        rng = np.random.default_rng(7)
        I = synth_scene(8, 16, 16).data
        noise = rng.normal(size=I.shape)
        values = []
        for sigma in (0.01, 0.02, 0.05, 0.1, 0.2):
            noisy = np.clip(I + sigma * noise, 0.0, 1.0)
            values.append(psnr(Tensor(I), Tensor(noisy)))
        assert all(x > y for x, y in zip(values, values[1:]))


class TestSsim:
    def test_identical_is_one(self):
        a = synth_scene(9, 16, 16)
        assert abs(ssim(a, a) - 1.0) < 1e-12

    def test_symmetric(self):
        rng = np.random.default_rng(10)
        a = Tensor(rng.uniform(size=(1, 3, 12, 12)))
        b = Tensor(rng.uniform(size=(1, 3, 12, 12)))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_matches_windowed_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            a = rng.uniform(size=(2, 3, 12, 14))
            b = np.clip(a + rng.normal(0, 0.1, size=a.shape), 0, 1)
            assert abs(ssim(Tensor(a), Tensor(b)) - ssim_oracle(a, b)) < 1e-8

    @pytest.mark.parametrize("shape", [(1, 3, 8, 8), (1, 3, 8, 13), (1, 3, 21, 9), (3, 3, 16, 20), (2, 3, 64, 48)])
    @pytest.mark.parametrize("kind", ["noisy", "independent", "identical", "near_black"])
    def test_same_bits_as_window_product_formula(self, shape, kind):
        rng = np.random.default_rng(sum(shape))
        a = rng.uniform(size=shape)
        if kind == "noisy":
            b = np.clip(a + rng.normal(0, 0.1, size=shape), 0, 1)
        elif kind == "independent":
            b = rng.uniform(size=shape)
        elif kind == "identical":
            b = a.copy()
        else:
            a, b = a * 1e-3, rng.uniform(size=shape) * 1e-3
        assert ssim(Tensor(a), Tensor(b)) == ssim_window_product_oracle(a, b)

    def test_peak_memory_at_128(self):
        # the window-product formula's (1, 121, 121, 8, 8) temporary alone is 7.5 MB
        rng = np.random.default_rng(15)
        a, b = rng.uniform(size=(1, 3, 128, 128)), rng.uniform(size=(1, 3, 128, 128))
        tracemalloc.start()
        try:
            ssim(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_result_in_range(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = Tensor(rng.uniform(size=(1, 3, 10, 10)))
            b = Tensor(rng.uniform(size=(1, 3, 10, 10)))
            assert -1.0 - 1e-12 <= ssim(a, b) <= 1.0 + 1e-12

    def test_degraded_scores_below_clean(self):
        I = synth_scene(13, 32, 32)
        low = degrade(I, DegradeParams(gamma=2.5, gain=0.3, noise_sigma=0.02, seed=1))
        assert ssim(I, low) < ssim(I, I)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            ssim(Tensor(np.zeros((1, 3, 4, 4))), Tensor(np.zeros((1, 3, 4, 4))))


class TestPpm:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(14)
        quantized = np.rint(rng.uniform(size=(1, 3, 8, 10)) * 255.0) / 255.0
        path = tmp_path / "img.ppm"
        write_image(path, Tensor(quantized))
        back = read_image(path)
        np.testing.assert_array_equal(back.data, quantized)
        write_image(tmp_path / "img2.ppm", back)
        assert (tmp_path / "img.ppm").read_bytes() == (tmp_path / "img2.ppm").read_bytes()

    def test_header_verbatim(self, tmp_path):
        path = tmp_path / "img.ppm"
        write_image(path, Tensor(np.zeros((1, 3, 4, 6))))
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n6 4\n255\n")
        assert len(blob) == len(b"P6\n6 4\n255\n") + 3 * 4 * 6

    def test_quantization_error_bound(self, tmp_path):
        rng = np.random.default_rng(15)
        I = Tensor(rng.uniform(size=(1, 3, 8, 8)))
        path = tmp_path / "img.ppm"
        write_image(path, I)
        back = read_image(path)
        assert np.abs(back.data - I.data).max() <= 0.5 / 255.0 + 1e-12
        assert back.data.min() >= 0.0 and back.data.max() <= 1.0

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_image_refused_before_open(self, tmp_path, value):
        arr = np.full((1, 3, 4, 4), 0.5)
        arr[0, 1, 2, 3] = value
        path = tmp_path / "img.ppm"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: refusing to write an image that holds NaN or inf$"):
            write_image(path, Tensor(arr))
        assert not path.exists()

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 48)
        with pytest.raises(PpmParseError, match="byte offset 0"):
            read_image(path)

    def test_missing_dims_names_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\nabc\n")
        with pytest.raises(PpmParseError, match="byte offset 3"):
            read_image(path)

    def test_header_comments_are_skipped(self, tmp_path):
        pixels = bytes(range(12))
        path = tmp_path / "commented.ppm"
        path.write_bytes(b"P6\n# made by gimp\n2 # width\n2\n#maxval next\n255\n" + pixels)
        img = read_image(path)
        expected = np.frombuffer(pixels, dtype=np.uint8).reshape(2, 2, 3).transpose(2, 0, 1) / 255.0
        np.testing.assert_array_equal(img.data[0], expected)

    def test_comment_only_header_names_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n# no size follows\n")
        with pytest.raises(PpmParseError, match="byte offset 21"):
            read_image(path)

    def test_truncated_pixels_names_offset(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + b"\x00" * 10)
        with pytest.raises(PpmParseError, match="truncated"):
            read_image(path)

    @pytest.mark.parametrize("dims, match", [(b"0 0", "width 0 at byte offset 3"),
                                             (b"0 8", "width 0 at byte offset 3"),
                                             (b"8 0", "height 0 at byte offset 5")])
    def test_zero_size_names_offset(self, tmp_path, dims, match):
        path = tmp_path / "empty.ppm"
        path.write_bytes(b"P6\n" + dims + b"\n255\n")
        with pytest.raises(PpmParseError, match=match) as err:
            read_image(path)
        assert str(path) in str(err.value)


class TestMetricsCsv:
    def test_format(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv([(0, 21.5, 0.8125), (1, float("inf"), 1.0)], path)
        assert path.read_text() == "image_id,psnr,ssim\n0,21.5,0.8125\n1,inf,1\n"
