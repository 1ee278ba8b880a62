"""Codebook matching against brute-force oracles, plus histogram tools."""

import warnings

import numpy as np
import pytest

from lumiq import autodiff as ad
from lumiq.autodiff import ShapeError, Tape, Tensor
from lumiq.codebook import (
    _CHUNK,
    Codebook,
    CorruptedIndexError,
    QuantizeResult,
    activation_histogram,
    codebook_matching_loss,
    export_histogram_csv,
    histogram_distance,
    quantize_nearest,
)


def nearest_oracle(vecs, codes):
    """Exhaustive scan with explicit lowest-index tie-breaking."""
    out = np.zeros(len(vecs), dtype=np.int64)
    for p, v in enumerate(vecs):
        best, best_d = 0, None
        for k, c in enumerate(codes):
            dist = float(((v - c) ** 2).sum())
            if best_d is None or dist < best_d:
                best, best_d = k, dist
        out[p] = best
    return out


def difference_scan(vecs, codes):
    """The exact (P, K, D) difference-tensor scan, slab by slab, that the
    GEMM screen must agree with index for index."""
    out = np.empty(len(vecs), dtype=np.int64)
    with np.errstate(all="ignore"):
        for lo in range(0, len(vecs), _CHUNK):
            diff = vecs[lo : lo + _CHUNK, None, :] - codes[None, :, :]
            out[lo : lo + _CHUNK] = np.einsum("pkd,pkd->pk", diff, diff).argmin(axis=1)
    return out


def make_codebook(n, d, seed, codes=None):
    cb = Codebook(n, d, np.random.default_rng(seed))
    if codes is not None:
        cb.codes.data[:] = codes
    return cb


class TestQuantizeNearest:
    def test_exact_match_is_zero_error(self):
        cb = make_codebook(8, 4, 0)
        k = 5
        Z = Tensor(np.tile(cb.codes.data[k].reshape(1, 4, 1, 1), (1, 1, 2, 2)))
        res = quantize_nearest(Z, cb)
        assert np.all(res.indices == k)
        np.testing.assert_array_equal(res.quantized.data, Z.data)

    def test_hand_distance(self):
        cb = make_codebook(2, 2, 0, codes=np.array([[0.0, 0.0], [1.0, 1.0]]))
        Z = Tensor(np.array([0.4, 0.4]).reshape(1, 2, 1, 1))
        res = quantize_nearest(Z, cb)
        assert res.indices[0, 0, 0] == 0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(1)
        cb = make_codebook(16, 8, 2, codes=rng.normal(size=(16, 8)))
        Z = Tensor(rng.normal(size=(1, 8, 4, 4)))
        res = quantize_nearest(Z, cb)
        vecs = Z.data.transpose(0, 2, 3, 1).reshape(-1, 8)
        np.testing.assert_array_equal(res.indices.reshape(-1), nearest_oracle(vecs, cb.codes.data))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_with_ties(self, seed):
        rng = np.random.default_rng(100 + seed)
        codes = rng.normal(size=(12, 6))
        codes[7] = codes[2]  # deliberate exact duplicate
        cb = make_codebook(12, 6, seed, codes=codes)
        Z = rng.normal(size=(2, 6, 3, 3))
        Z[0, :, 0, 0] = codes[2]  # query landing exactly on the tied pair
        res = quantize_nearest(Tensor(Z), cb)
        vecs = Z.transpose(0, 2, 3, 1).reshape(-1, 6)
        np.testing.assert_array_equal(res.indices.reshape(-1), nearest_oracle(vecs, codes))
        assert res.indices[0, 0, 0] == 2  # duplicate tie resolves to the lower index

    def test_quantized_rows_bit_identical_to_codes(self):
        rng = np.random.default_rng(3)
        cb = make_codebook(16, 8, 4, codes=rng.normal(size=(16, 8)))
        Z = Tensor(rng.normal(size=(2, 8, 3, 3)))
        res = quantize_nearest(Z, cb)
        for b in range(2):
            for i in range(3):
                for j in range(3):
                    np.testing.assert_array_equal(
                        res.quantized.data[b, :, i, j], cb.codes.data[res.indices[b, i, j]]
                    )

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        cb = make_codebook(16, 8, 6, codes=rng.normal(size=(16, 8)))
        Z = Tensor(rng.normal(size=(1, 8, 4, 4)))
        first = quantize_nearest(Z, cb)
        second = quantize_nearest(first.quantized, cb)
        np.testing.assert_array_equal(first.indices, second.indices)
        np.testing.assert_array_equal(first.quantized.data, second.quantized.data)

    def test_chosen_code_is_optimal_everywhere(self):
        rng = np.random.default_rng(7)
        cb = make_codebook(10, 5, 8, codes=rng.normal(size=(10, 5)))
        Z = Tensor(rng.normal(size=(1, 5, 4, 4)))
        res = quantize_nearest(Z, cb)
        vecs = Z.data.transpose(0, 2, 3, 1).reshape(-1, 5)
        flat = res.indices.reshape(-1)
        for p, v in enumerate(vecs):
            chosen = ((v - cb.codes.data[flat[p]]) ** 2).sum()
            for j in range(10):
                assert chosen <= ((v - cb.codes.data[j]) ** 2).sum() + 1e-15

    def test_dim_mismatch_raises(self):
        cb = make_codebook(4, 3, 10)
        with pytest.raises(ShapeError):
            quantize_nearest(Tensor(np.zeros((1, 5, 2, 2))), cb)

    def test_straight_through_gradient(self):
        rng = np.random.default_rng(11)
        cb = make_codebook(8, 4, 12, codes=rng.normal(size=(8, 4)))
        Z = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        coeff = Tensor(rng.normal(size=(1, 4, 3, 3)))
        tape = Tape()
        with tape:
            res = quantize_nearest(Z, cb)
            loss = ad.sum_all(ad.mul(res.quantized, coeff))
        ad.backward(loss, tape)
        # downstream grad is copied to Z unchanged, codes get nothing
        np.testing.assert_allclose(Z.grad, coeff.data, atol=1e-15)
        np.testing.assert_array_equal(cb.codes.grad_array(), np.zeros_like(cb.codes.data))

    def test_lookup_gradient_scatters_into_codes(self):
        rng = np.random.default_rng(13)
        cb = make_codebook(6, 3, 14, codes=rng.normal(size=(6, 3)))
        Z = Tensor(rng.normal(size=(2, 3, 2, 2)))
        coeff = Tensor(rng.normal(size=(2, 3, 2, 2)))
        tape = Tape()
        with tape:
            res = quantize_nearest(Z, cb)
            loss = ad.sum_all(ad.mul(res.lookup, coeff))
        ad.backward(loss, tape)
        expected = np.zeros_like(cb.codes.data)
        cvecs = coeff.data.transpose(0, 2, 3, 1).reshape(-1, 3)
        for p, k in enumerate(res.indices.reshape(-1)):
            expected[k] += cvecs[p]
        np.testing.assert_allclose(cb.codes.grad, expected, atol=1e-15)

    def test_lookup_gradient_is_the_in_order_sum(self):
        rng = np.random.default_rng(16)
        cb = make_codebook(5, 3, 17, codes=rng.normal(size=(5, 3)))
        Z = Tensor(rng.normal(size=(2, 3, 24, 24)))  # 1152 rows over 5 codes
        coeff = Tensor(rng.normal(size=(2, 3, 24, 24)))
        tape = Tape()
        with tape:
            res = quantize_nearest(Z, cb)
            loss = ad.sum_all(ad.mul(res.lookup, coeff))
        ad.backward(loss, tape)
        expected = np.zeros((5, 3))
        cvecs = coeff.data.transpose(0, 2, 3, 1).reshape(-1, 3)
        for p, k in enumerate(res.indices.reshape(-1)):
            for j in range(3):
                expected[k, j] += cvecs[p, j]
        np.testing.assert_array_equal(cb.codes.grad, expected)


class TestScreenAgreesWithDifferenceScan:
    """The GEMM screen returns the exact scan's index on every row, including
    rows that fall inside its tolerance band and are scored again."""

    def check(self, vecs, codes):
        """Screen vecs as a contiguous NCHW array and as a channels-last view
        (the layout conv outputs have); both must give the scan's indices."""
        vecs, codes = np.asarray(vecs, dtype=np.float64), np.asarray(codes, dtype=np.float64)
        p, d = vecs.shape
        cb = make_codebook(*codes.shape, 0, codes=codes)
        want = difference_scan(vecs, codes)
        for Z in (np.ascontiguousarray(vecs.T).reshape(1, d, 1, p), vecs.reshape(1, 1, p, d).transpose(0, 3, 1, 2)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = quantize_nearest(Tensor(Z), cb)
            np.testing.assert_array_equal(res.indices.reshape(-1), want)
            np.testing.assert_array_equal(activation_histogram([res], len(codes)),
                                          np.bincount(want, minlength=len(codes)))
        return want

    def test_midpoints_of_two_codes(self):
        rng = np.random.default_rng(20)
        codes = rng.normal(size=(9, 5))
        vecs = [(codes[a] + codes[b]) / 2 for a in range(9) for b in range(9)]
        self.check(vecs, codes)
        got = self.check([[1.0, 1.0], [0.5, 0.5]], [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(got, [2, 1])  # [0.5, 0.5] ties codes 1 and 2: the lower wins

    def test_duplicate_code_rows(self):
        rng = np.random.default_rng(21)
        codes = rng.normal(size=(8, 4))
        codes[[3, 6]] = codes[1]
        vecs = np.concatenate([codes, codes + 1e-9, rng.normal(size=(20, 4))])
        got = self.check(vecs, codes)
        assert not np.isin(got, [3, 6]).any()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["vecs", "codes"])
    def test_non_finite_entries(self, bad, where):
        rng = np.random.default_rng(22)
        codes, vecs = rng.normal(size=(7, 4)), rng.normal(size=(12, 4))
        (vecs if where == "vecs" else codes)[2, 1] = bad
        self.check(vecs, codes)

    # squares near 1e-320 are subnormal and rounded to an absolute grid, not a
    # relative one; squares near 1e310 overflow
    @pytest.mark.parametrize("scale, d", [(1e-160, 8), (1e-161, 1), (3e-162, 2), (3e-162, 8),
                                          (1e150, 8), (1e155, 8)])
    def test_underflow_and_overflow_magnitudes(self, scale, d):
        rng = np.random.default_rng(23)
        codes = rng.normal(size=(10, d)) * scale
        self.check(rng.normal(size=(30, d)) * scale, codes)

    def test_overflowing_cross_term(self):
        # 2 x.c overflows for code 0 though ||x||^2 and ||c||^2 do not, so the
        # expansion reads -inf there; the exact sum puts code 1 at distance 0
        x = np.array([[9.434e153, 0.0]])
        far = 9.747e153 * np.array([0.999, np.sqrt(1 - 0.999**2)])
        np.testing.assert_array_equal(self.check(x, [far, x[0]]), [1])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_instances_across_scales(self, seed):
        rng = np.random.default_rng(300 + seed)
        k, d = int(rng.integers(1, 71)), int(rng.integers(1, 41))
        scale = 10.0 ** rng.uniform(-170, 160)
        codes = rng.normal(size=(k, d)) * scale
        vecs = np.concatenate([rng.normal(size=(40, d)) * scale, codes[rng.integers(k, size=5)]])
        self.check(vecs, codes)

    def test_two_slabs(self):
        rng = np.random.default_rng(24)
        codes = rng.normal(size=(16, 6))
        vecs = rng.normal(size=(_CHUNK + 300, 6))
        vecs[_CHUNK - 2 : _CHUNK + 2] = (codes[0] + codes[1]) / 2  # re-checked rows on both sides
        self.check(vecs, codes)


class TestCodebookMatchingLoss:
    def test_zero_residual(self):
        Z = Tensor(np.ones((1, 2, 2, 2)))
        assert codebook_matching_loss(Z, Tensor(np.ones((1, 2, 2, 2))), 0.25).item() == 0.0

    def test_constant_tensors(self):
        Z = Tensor(np.ones((1, 2, 3, 3)))
        Zq = Tensor(np.zeros((1, 2, 3, 3)))
        assert abs(codebook_matching_loss(Z, Zq, 0.25).item() - 1.25) < 1e-15

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            Z = rng.normal(size=(2, 4, 3, 3))
            Zq = rng.normal(size=(2, 4, 3, 3))
            sigma = rng.uniform(0.1, 1.0)
            got = codebook_matching_loss(Tensor(Z), Tensor(Zq), sigma).item()
            want = sigma * ((Z - Zq) ** 2).mean() + ((Z - Zq) ** 2).mean()
            assert abs(got - want) < 1e-12

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            codebook_matching_loss(Tensor(np.zeros((1, 2, 2, 2))), Tensor(np.zeros((1, 2, 2, 3))), 0.25)

    def test_per_term_gradient_routing(self):
        # finite differences cannot see stop_gradient (forward identity), so
        # each term is checked with the other operand held as a plain constant
        rng = np.random.default_rng(16)
        Zd = rng.normal(size=(1, 3, 2, 2))
        Zqd = rng.normal(size=(1, 3, 2, 2))
        sigma = 0.25
        err_z = ad.check_gradients(
            lambda t: ad.mul(ad.mean_all(ad.square(ad.sub(t, Tensor(Zqd)))), Tensor(sigma)),
            Tensor(Zd),
        )
        err_zq = ad.check_gradients(
            lambda t: ad.mean_all(ad.square(ad.sub(Tensor(Zd), t))), Tensor(Zqd)
        )
        assert err_z < 1e-4 and err_zq < 1e-4
        # analytic routing: encoder side sees only the sigma term
        Z = Tensor(Zd, requires_grad=True)
        Zq = Tensor(Zqd, requires_grad=True)
        tape = Tape()
        with tape:
            loss = codebook_matching_loss(Z, Zq, sigma)
        ad.backward(loss, tape)
        n = Zd.size
        np.testing.assert_allclose(Z.grad, sigma * 2.0 * (Zd - Zqd) / n, atol=1e-12)
        np.testing.assert_allclose(Zq.grad, 2.0 * (Zqd - Zd) / n, atol=1e-12)

    def test_full_path_moves_encoder_and_codes(self):
        rng = np.random.default_rng(17)
        cb = make_codebook(8, 4, 18, codes=rng.normal(size=(8, 4)))
        Z = Tensor(rng.normal(size=(1, 4, 3, 3)), requires_grad=True)
        tape = Tape()
        with tape:
            res = quantize_nearest(Z, cb)
            loss = codebook_matching_loss(Z, res.lookup, 0.25)
        ad.backward(loss, tape)
        assert np.any(Z.grad != 0.0)
        assert np.any(cb.codes.grad != 0.0)
        # encoder grad comes from the sigma term only
        n = Z.data.size
        np.testing.assert_allclose(Z.grad, 0.25 * 2.0 * (Z.data - res.quantized.data) / n, atol=1e-12)


class TestHistograms:
    def test_single_code(self):
        res = QuantizeResult(None, None, np.zeros((1, 3, 3), dtype=np.int64))
        counts = activation_histogram([res], 5)
        np.testing.assert_array_equal(counts, [9, 0, 0, 0, 0])

    def test_empty_list(self):
        np.testing.assert_array_equal(activation_histogram([], 4), np.zeros(4, dtype=np.int64))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(19)
        results = [
            QuantizeResult(None, None, rng.integers(0, 16, size=(2, 4, 4)).astype(np.int64))
            for _ in range(5)
        ]
        counts = activation_histogram(results, 16)
        oracle = np.zeros(16, dtype=np.int64)
        for r in results:
            for v in r.indices.reshape(-1):
                oracle[v] += 1
        np.testing.assert_array_equal(counts, oracle)
        assert counts.sum() == 5 * 2 * 4 * 4

    def test_out_of_range_raises(self):
        res = QuantizeResult(None, None, np.array([[[0, 7]]], dtype=np.int64))
        with pytest.raises(CorruptedIndexError):
            activation_histogram([res], 4)

    def test_distance_identical(self):
        h = np.array([3, 1, 0, 2])
        assert histogram_distance(h, h) == 0.0
        assert histogram_distance(h, h * 5) == 0.0  # proportional

    def test_distance_disjoint_supports(self):
        assert abs(histogram_distance(np.array([4, 0]), np.array([0, 9])) - 2.0) < 1e-15

    def test_distance_matches_direct_evaluation(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            h1 = rng.integers(0, 50, size=12) + 1
            h2 = rng.integers(0, 50, size=12) + 1
            want = np.abs(h1 / h1.sum() - h2 / h2.sum()).sum()
            got = histogram_distance(h1, h2)
            assert abs(got - want) < 1e-12
            assert abs(got - histogram_distance(h2, h1)) < 1e-15
            assert got <= 2.0

    def test_distance_zero_sum_raises(self):
        with pytest.raises(ValueError):
            histogram_distance(np.zeros(3), np.array([1.0, 2, 3]))

    def test_csv_export(self, tmp_path):
        path = tmp_path / "hist.csv"
        export_histogram_csv(np.array([3, 0, 7]), path)
        text = path.read_bytes().decode()
        assert text == "index,count\n0,3\n1,0\n2,7\n"
        assert "\r" not in text
