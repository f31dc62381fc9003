"""Loss-term fixed points, formula limits, and loop-oracle equivalence."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import autodiff as ad
from depthlab import losses as L
from depthlab.autodiff import Tensor
from depthlab.config import TrainConfig

from oracles import (
    fd_gradient,
    photometric_loss_loops,
    reflectance_loss_loops,
    rel_err,
    smoothness_loss_loops,
    ssim_map_loops,
)


def rand_image(rng, c=3, h=8, w=8):
    return rng.uniform(0.0, 1.0, size=(c, h, w))


class TestSSIM:
    def test_self_similarity_is_one(self):
        rng = np.random.default_rng(1)
        x = rand_image(rng)
        smap = L.ssim(Tensor(x), Tensor(x))
        np.testing.assert_allclose(smap.data, np.ones((8, 8)), atol=1e-12)

    def test_inverted_checkerboard_is_negative(self):
        u, v = np.meshgrid(np.arange(8), np.arange(8))
        board = ((u + v) % 2).astype(np.float64)[None]
        assert L.ssim(Tensor(board), Tensor(1.0 - board)).data.mean() < 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            x, y = rand_image(rng), rand_image(rng)
            m_xy = L.ssim(Tensor(x), Tensor(y)).data
            m_yx = L.ssim(Tensor(y), Tensor(x)).data
            assert np.abs(m_xy - m_yx).max() <= 1e-12

    def test_map_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        x, y = rand_image(rng), rand_image(rng)
        smap = L.ssim(Tensor(x), Tensor(y))
        np.testing.assert_allclose(smap.data, ssim_map_loops(x, y), atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            L.ssim(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((3, 5, 4))))

    @pytest.mark.parametrize("y_grad", [True, False], ids=["both", "x_only"])
    def test_map_gradient_vs_finite_differences(self, y_grad):
        # odd sizes, so the zero-padded border rows and columns are covered
        rng = np.random.default_rng(4)
        x, y = rand_image(rng, 3, 7, 9), rand_image(rng, 3, 7, 9)
        weights = rng.standard_normal((7, 9))
        tx, ty = Tensor(x, requires_grad=True), Tensor(y, requires_grad=y_grad)
        ad.tsum(L.ssim(tx, ty) * Tensor(weights)).backward()

        def f(xv, yv):
            return float(np.sum(ssim_map_loops(xv, yv) * weights))

        assert rel_err(tx.grad, fd_gradient(f, [x, y], 0)) <= 1e-6
        if y_grad:
            assert rel_err(ty.grad, fd_gradient(f, [x, y], 1)) <= 1e-6
        else:
            assert ty.grad is None

    def test_grad_enabled_map_holds_less_than_one_input(self):
        rng = np.random.default_rng(5)
        x = Tensor(rand_image(rng, 3, 32, 32), requires_grad=True)
        y = Tensor(rand_image(rng, 3, 32, 32))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            smap = L.ssim(x, y)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the closure keeps x and y by reference and recomputes the local
        # statistics in backward; no (C, H, W) intermediate outlives the call
        assert held - smap.data.nbytes < x.data.nbytes


class TestReflectanceLoss:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(4)
        r = rand_image(rng)
        assert L.reflectance_consistency_loss(Tensor(r), Tensor(r), np.ones((8, 8), dtype=bool)).item() == 0.0

    def test_constant_offset(self):
        r_t = np.full((3, 8, 8), 0.5)
        r_w = np.full((3, 8, 8), 0.25)
        got = L.reflectance_consistency_loss(Tensor(r_t), Tensor(r_w), np.ones((8, 8), dtype=bool))
        assert abs(got.item() - 0.25) <= 1e-15

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            r_t, r_w = rand_image(rng), rand_image(rng)
            validity = rng.uniform(size=(8, 8)) > 0.3
            got = L.reflectance_consistency_loss(Tensor(r_t), Tensor(r_w), validity).item()
            assert abs(got - reflectance_loss_loops(r_t, r_w, validity)) <= 1e-12

    def test_empty_validity_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="empty"):
            L.reflectance_consistency_loss(
                Tensor(rand_image(rng)), Tensor(rand_image(rng)), np.zeros((8, 8), dtype=bool)
            )

    def test_a_float_mask_is_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError, match="bool"):
            L.masked_pixel_mean(Tensor(rand_image(rng, c=1)[0]), np.ones((8, 8)))


class TestReconstructionLoss:
    def test_perfect_reconstruction_is_zero(self):
        rng = np.random.default_rng(7)
        t = rand_image(rng)
        assert abs(L.reconstruction_loss(Tensor(t), Tensor(t)).item()) <= 1e-12

    def test_alpha_zero_reduces_to_l1(self, monkeypatch):
        # photometric reads ALPHA at call time
        monkeypatch.setattr(L, "ALPHA", 0.0)
        rng = np.random.default_rng(8)
        t_hat, t = rand_image(rng), rand_image(rng)
        got = L.reconstruction_loss(Tensor(t_hat), Tensor(t)).item()
        assert abs(got - np.mean(np.abs(t_hat - t))) <= 1e-12

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            t_hat, t = rand_image(rng), rand_image(rng)
            got = L.reconstruction_loss(Tensor(t_hat), Tensor(t)).item()
            assert abs(got - photometric_loss_loops(t_hat, t, 0.85)) <= 1e-12


class TestSynthesisLoss:
    def test_equal_frames_is_zero(self):
        rng = np.random.default_rng(10)
        t = rand_image(rng)
        assert np.abs(L.synthesis_loss(Tensor(t), Tensor(t)).data).max() <= 1e-12

    def test_alpha_one_is_pure_ssim_term(self, monkeypatch):
        monkeypatch.setattr(L, "ALPHA", 1.0)
        rng = np.random.default_rng(11)
        a, b = rand_image(rng), rand_image(rng)
        got = L.synthesis_loss(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(got, (1.0 - L.ssim(Tensor(a), Tensor(b)).data) * 0.5)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a, b = rand_image(rng), rand_image(rng)
            validity = rng.uniform(size=(8, 8)) > 0.25
            got = L.masked_pixel_mean(L.synthesis_loss(Tensor(a), Tensor(b)), validity).item()
            assert abs(got - photometric_loss_loops(a, b, 0.85, validity)) <= 1e-12

    def test_per_pixel_form_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        a, b = rand_image(rng), rand_image(rng)
        got = L.photometric(Tensor(a), Tensor(b)).data
        expected = 0.85 * (1.0 - ssim_map_loops(a, b)) / 2.0 + 0.15 * np.abs(a - b).mean(axis=0)
        assert got.shape == (8, 8)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestSmoothnessLoss:
    def test_constant_depth_is_zero(self):
        rng = np.random.default_rng(13)
        img = rand_image(rng)
        labels = np.zeros((8, 8), dtype=np.int64)
        got = L.masked_smoothness_loss(Tensor(np.full((8, 8), 4.0)), Tensor(img), labels)
        assert got.item() == 0.0

    def test_piecewise_constant_per_mask_is_zero(self):
        rng = np.random.default_rng(14)
        labels = np.zeros((8, 8), dtype=np.int64)
        labels[:, 4:] = 1
        labels[5:, :] = 2
        depth = np.where(labels == 0, 3.0, np.where(labels == 1, 7.0, 11.0))
        img = rand_image(rng)
        got = L.masked_smoothness_loss(Tensor(depth), Tensor(img), labels)
        assert got.item() == 0.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            depth = rng.uniform(1.0, 9.0, size=(8, 8))
            img = rand_image(rng)
            labels = rng.integers(0, 3, size=(8, 8))
            got = L.masked_smoothness_loss(Tensor(depth), Tensor(img), labels).item()
            assert abs(got - smoothness_loss_loops(depth, img, labels)) <= 1e-12

    def test_single_mask_degenerates_to_plain_smoothness(self):
        rng = np.random.default_rng(16)
        depth = rng.uniform(1.0, 9.0, size=(8, 8))
        img = rand_image(rng)
        one_label = np.zeros((8, 8), dtype=np.int64)
        got = L.masked_smoothness_loss(Tensor(depth), Tensor(img), one_label).item()
        # plain edge-aware smoothness: every neighbor pair contributes
        assert abs(got - smoothness_loss_loops(depth, img, np.zeros((8, 8), dtype=int))) <= 1e-15

    def test_homogeneous_in_depth_scale(self):
        rng = np.random.default_rng(17)
        depth = rng.uniform(1.0, 9.0, size=(8, 8))
        img = rand_image(rng)
        labels = rng.integers(0, 2, size=(8, 8))
        base = L.masked_smoothness_loss(Tensor(depth), Tensor(img), labels).item()
        doubled = L.masked_smoothness_loss(Tensor(2.0 * depth), Tensor(img), labels).item()
        assert doubled == 2.0 * base  # exact for a power-of-two factor
        scaled = L.masked_smoothness_loss(Tensor(3.7 * depth), Tensor(img), labels).item()
        assert abs(scaled - 3.7 * base) <= 1e-12 * max(1.0, abs(base))

    def test_only_label_equality_is_read(self):
        # a raster shifted to hold negative labels marks the same neighbour
        # pairs equal, so the loss is bit-identical
        rng = np.random.default_rng(18)
        depth = rng.uniform(1.0, 9.0, size=(8, 8))
        img = rand_image(rng)
        labels = rng.integers(0, 3, size=(8, 8))
        got = L.masked_smoothness_loss(Tensor(depth), Tensor(img), labels - 1).item()
        assert got == L.masked_smoothness_loss(Tensor(depth), Tensor(img), labels).item()

    @pytest.mark.parametrize(
        "labels", [np.zeros((8, 8)), np.zeros((8, 7), dtype=np.uint8), np.zeros((1, 8, 8), dtype=np.uint8)],
        ids=["float", "misshaped", "3d"],
    )
    def test_a_float_or_misshaped_raster_is_refused(self, labels):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="labels"):
            L.masked_smoothness_loss(Tensor(np.ones((8, 8))), Tensor(rand_image(rng)), labels)


class TestTotalLoss:
    @staticmethod
    def terms(*values):
        return dict(zip(L.LOSS_TERMS, values, strict=True))

    def test_all_zero_terms(self):
        z = Tensor(0.0)
        got = L.total_loss(self.terms(z, z, z, z), TrainConfig().loss_weights())
        assert got.item() == 0.0

    def test_unit_terms_with_default_weights(self):
        one = Tensor(1.0)
        got = L.total_loss(self.terms(one, one, one, one), TrainConfig().loss_weights())
        assert abs(got.item() - 1.403) <= 1e-12

    def test_nonfinite_term_rejected_by_name(self):
        terms = self.terms(Tensor(0.0), Tensor(0.0), Tensor(np.nan), Tensor(0.0))
        with pytest.raises(ad.TrainingDiverged, match="synthesis"):
            L.total_loss(terms, TrainConfig().loss_weights())

    def test_gradients_flow_through_all_terms(self):
        rng = np.random.default_rng(18)
        d = Tensor(rng.uniform(1, 5, size=(8, 8)), requires_grad=True)
        img = Tensor(rand_image(rng))
        smooth = L.masked_smoothness_loss(d, img, np.zeros((8, 8), dtype=np.int64))
        zero = Tensor(0.0)
        total = L.total_loss(self.terms(zero, zero, zero, smooth), TrainConfig().loss_weights())
        total.backward()
        assert d.grad is not None and np.any(d.grad != 0.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError, match="nonnegative"):
            TrainConfig(w_smoothness=-0.1)


class TestDeterminismAndPositivity:
    @given(st.integers(min_value=0, max_value=2**31))
    @settings(deadline=None, max_examples=30)
    def test_losses_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rand_image(rng, h=6, w=6), rand_image(rng, h=6, w=6)
        labels = rng.integers(0, 3, size=(6, 6))
        depth = rng.uniform(0.5, 4.0, size=(6, 6))
        assert L.reflectance_consistency_loss(Tensor(a), Tensor(b), np.ones((6, 6), dtype=bool)).item() >= 0.0
        assert L.synthesis_loss(Tensor(a), Tensor(b)).data.min() >= 0.0
        assert L.masked_smoothness_loss(Tensor(depth), Tensor(a), labels).item() >= 0.0
        assert L.reconstruction_loss(Tensor(a), Tensor(b)).item() >= 0.0

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(19)
        a, b = rand_image(rng), rand_image(rng)
        v1 = L.synthesis_loss(Tensor(a), Tensor(b)).data
        v2 = L.synthesis_loss(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(v1, v2)
