"""Network building blocks: residual separable-conv attention block, toy
depth net with adapters, decomposition and pose heads."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import autodiff as ad
from depthlab.autodiff import Tensor
from depthlab.blocks import (
    ChannelAttention,
    DecompositionNet,
    PoseNet,
    SeparableResidualBlock,
    SpatialAttention,
    ToyDepthNet,
    disparity_to_depth,
    initial_disparity_logit,
    reconstruct,
)
from depthlab.config import TrainConfig
from depthlab.nn import trainable_param_count

from oracles import fd_gradient, rel_err


def rng():
    return np.random.default_rng(11)


class TestSeparableResidualBlock:
    def test_zeroed_restore_conv_is_exact_identity(self):
        block = SeparableResidualBlock(8, rng())
        block.restore.weight.assign(np.zeros_like(block.restore.weight.data))
        block.restore.bias.assign(np.zeros_like(block.restore.bias.data))
        x = np.random.default_rng(0).standard_normal((8, 6, 6))
        out = block(Tensor(x))
        np.testing.assert_array_equal(out.data, x)

    def test_preserves_shape(self):
        for c, h, w in [(8, 16, 16), (16, 8, 12), (4, 5, 7)]:
            block = SeparableResidualBlock(c, rng())
            out = block(Tensor(np.random.default_rng(1).standard_normal((c, h, w))))
            assert out.shape == (c, h, w)

    def test_branch_parameter_count_matches_counting_oracle(self):
        c, reduction, k = 8, 4, 3
        mid = c // reduction
        block = SeparableResidualBlock(c, rng())
        # counting oracle, layer by layer
        reduce_params = c * mid + mid
        depthwise_params = mid * k * k + mid
        restore_params = mid * c + c
        hidden = max(1, c // 16)
        channel_attn = (c * hidden + hidden) + (hidden * c + c)
        spatial_attn = 2 * 7 * 7 * 1 + 1
        expected = reduce_params + depthwise_params + restore_params + channel_attn + spatial_attn
        trainable, total = trainable_param_count(block)
        assert trainable == expected
        assert total == expected

    def test_depthwise_branch_cheaper_than_dense(self):
        c = 8
        block = SeparableResidualBlock(c, rng())
        depthwise_total, _ = trainable_param_count(block.depthwise)
        dense_equivalent = (c // 4) * (c // 4) * 3 * 3 + (c // 4)
        assert depthwise_total < dense_equivalent

    def test_rejects_indivisible_channels(self):
        with pytest.raises(ValueError, match="divisible"):
            SeparableResidualBlock(6, rng())

    def test_gradcheck_through_block(self):
        block = SeparableResidualBlock(4, rng())
        x0 = np.random.default_rng(3).uniform(-1, 1, (4, 5, 5))
        leaf = Tensor(x0, requires_grad=True)
        out = block(leaf)
        ad.tsum(out * out).backward()

        def f(xv):
            val = block(Tensor(np.asarray(xv)))
            return float(np.sum(val.data * val.data))

        assert rel_err(leaf.grad, fd_gradient(f, [x0], 0)) <= 1e-5


class TestAttention:
    def test_constant_input_collapses_pooling_branches(self):
        # constant input: average and max pooling agree, so the gates are
        # exactly sigmoid(2 * MLP(pooled)); channel mixing in the bottleneck
        # still makes individual gates differ
        attn = ChannelAttention(8, rng())
        const = Tensor(np.full((8, 4, 4), 0.7))
        gates = attn(const)
        pooled = Tensor(np.full(8, 0.7))
        expected = ad.sigmoid(2.0 * attn.expand(ad.relu(attn.squeeze(pooled))))
        np.testing.assert_allclose(gates.data, expected.data, atol=1e-12)

    def test_spatially_rearranged_constant_rows_keep_gates(self):
        attn = ChannelAttention(4, rng())
        base = np.tile(np.linspace(0.1, 0.9, 16).reshape(1, 4, 4), (4, 1, 1))
        shuffled = base.reshape(4, -1)[:, ::-1].reshape(4, 4, 4)  # same avg and max
        np.testing.assert_allclose(attn(Tensor(base)).data, attn(Tensor(shuffled)).data, atol=1e-12)

    def test_gates_bounded(self):
        ca = ChannelAttention(8, rng())
        sa = SpatialAttention(rng())
        x = Tensor(np.random.default_rng(5).standard_normal((8, 6, 6)) * 3)
        for gates in (ca(x).data, sa(x).data):
            assert np.all(gates > 0.0) and np.all(gates < 1.0)

    def test_gradcheck_through_attentions(self):
        ca = ChannelAttention(4, rng())
        sa = SpatialAttention(rng())
        x0 = np.random.default_rng(7).uniform(-1, 1, (4, 4, 4))
        leaf = Tensor(x0, requires_grad=True)
        c = leaf.shape[0]
        gated = leaf * ad.reshape(ca(leaf), (c, 1, 1))
        gated = gated * sa(leaf)
        ad.tsum(gated).backward()

        def f(xv):
            t = Tensor(np.asarray(xv))
            g = t * ad.reshape(ca(t), (c, 1, 1))
            g = g * sa(t)
            return float(np.sum(g.data))

        assert rel_err(leaf.grad, fd_gradient(f, [x0], 0)) <= 1e-5


class TestToyDepthNet:
    def test_four_scales_with_halving_resolutions(self):
        net = ToyDepthNet(TrainConfig(embed_dim=64, depth_blocks=2, mixer_after=(1,)), (32, 32), rng())
        disps = net(Tensor(np.random.default_rng(1).uniform(0, 1, (3, 32, 32))))
        assert [d.shape for d in disps] == [(32, 32), (16, 16), (8, 8), (4, 4)]

    def test_non_square_image_keeps_its_aspect_at_every_scale(self):
        net = ToyDepthNet(TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,)), (16, 32), rng())
        disps = net(Tensor(np.random.default_rng(1).uniform(0, 1, (3, 16, 32))))
        assert [d.shape for d in disps] == [(16, 32), (8, 16), (4, 8), (2, 4)]

    def test_outputs_strictly_inside_unit_interval(self):
        net = ToyDepthNet(TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,)), (16, 16), rng())
        disps = net(Tensor(np.random.default_rng(2).uniform(0, 1, (3, 16, 16))))
        for d in disps:
            assert np.all(d.data > 0.0) and np.all(d.data < 1.0)

    @pytest.mark.parametrize("mode", ["plain", "scaled"])
    def test_fresh_adapters_leave_output_bit_identical(self, mode):
        image = np.random.default_rng(3).uniform(0, 1, (3, 16, 16))
        kwargs = dict(embed_dim=32, depth_blocks=2, mixer_after=(1,), rank=2, seed=5)
        with_adapters = ToyDepthNet(TrainConfig(adapter=mode, **kwargs), (16, 16), np.random.default_rng(9))
        without = ToyDepthNet(TrainConfig(adapter="none", **kwargs), (16, 16), np.random.default_rng(9))
        out_a = with_adapters(Tensor(image))
        out_b = without(Tensor(image))
        for da, db in zip(out_a, out_b):
            np.testing.assert_array_equal(da.data, db.data)

    def test_end_to_end_gradcheck_small(self):
        net = ToyDepthNet(TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2), (16, 16), rng())
        image = np.random.default_rng(4).uniform(0.2, 0.8, (3, 16, 16))
        adapter = net.blocks[0].adapter1
        out = ad.tsum(net(Tensor(image))[0])
        out.backward()
        analytic = adapter.down.grad.copy()

        def f(av):
            adapter.down.assign(np.asarray(av))
            val = ad.tsum(net(Tensor(image))[0]).item()
            return val

        a0 = adapter.down.data.copy()
        numeric = fd_gradient(f, [a0], 0)
        adapter.down.assign(a0)
        assert rel_err(analytic, numeric) <= 1e-4

    def test_rejects_bad_patch_geometry(self):
        with pytest.raises(ValueError, match="divisible"):
            ToyDepthNet(TrainConfig(), (30, 30), rng())


class TestDisparityToDepth:
    def test_limits(self):
        eps = 1e-9
        near_zero = disparity_to_depth(Tensor(np.array([eps])), 0.1, 100.0)
        near_one = disparity_to_depth(Tensor(np.array([1.0 - eps])), 0.1, 100.0)
        assert abs(near_zero.item() - 100.0) < 1e-4
        assert abs(near_one.item() - 0.1) < 1e-6

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6), st.floats(min_value=1e-6, max_value=1 - 1e-6))
    @settings(deadline=None, max_examples=60)
    def test_monotone_and_bounded(self, a, b):
        da = disparity_to_depth(Tensor(np.array([a])), 0.5, 50.0).item()
        db = disparity_to_depth(Tensor(np.array([b])), 0.5, 50.0).item()
        assert 0.5 <= da <= 50.0
        if a < b:
            assert da > db

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="disparity"):
            disparity_to_depth(Tensor(np.array([1.5])), 0.1, 100.0)

    def test_initial_logit_hits_geometric_mean(self):
        logit = initial_disparity_logit(2.0, 20.0)
        disp = 1.0 / (1.0 + np.exp(-logit))
        depth = disparity_to_depth(Tensor(np.array([disp])), 2.0, 20.0).item()
        assert abs(depth - np.sqrt(40.0)) <= 1e-9


class TestDecomposition:
    def test_unit_shading_returns_reflectance(self):
        r = np.random.default_rng(5).uniform(0.1, 0.9, (3, 6, 6))
        out = reconstruct(Tensor(r), Tensor(np.ones((6, 6))))
        np.testing.assert_array_equal(out.data, r)

    def test_outputs_in_unit_interval(self):
        net = DecompositionNet(rng())
        image = np.random.default_rng(6).uniform(0, 1, (3, 16, 16))
        r, s = net(Tensor(image))
        recon = reconstruct(r, s)
        for arr in (r.data, s.data, recon.data):
            assert np.all(arr > 0.0) and np.all(arr < 1.0)

    def test_perfect_reconstruction_zeroes_the_loss(self):
        from depthlab.losses import reconstruction_loss

        image = np.random.default_rng(7).uniform(0.1, 0.9, (3, 8, 8))
        loss = reconstruction_loss(Tensor(image), Tensor(image), Tensor(image), Tensor(image), alpha=0.85)
        assert abs(loss.item()) <= 1e-12

    def test_gradcheck_through_decompose_reconstruct(self):
        net = DecompositionNet(rng())
        image0 = np.random.default_rng(8).uniform(0.2, 0.8, (3, 8, 8))
        leaf = Tensor(image0, requires_grad=True)
        r, s = net(leaf)
        ad.tsum(reconstruct(r, s)).backward()

        def f(iv):
            rr, ss = net(Tensor(np.asarray(iv)))
            h, w = ss.shape
            return float(np.sum(rr.data * ss.data[None]))

        assert rel_err(leaf.grad, fd_gradient(f, [image0], 0)) <= 1e-4


class TestPoseNet:
    def test_output_shape_and_finite(self):
        net = PoseNet(rng())
        g = np.random.default_rng(9)
        out = net(Tensor(g.uniform(0, 1, (3, 32, 32))), Tensor(g.uniform(0, 1, (3, 32, 32))))
        assert out.shape == (6,)
        assert np.all(np.isfinite(out.data))

    def test_pair_order_changes_prediction(self):
        net = PoseNet(rng())
        g = np.random.default_rng(10)
        a = g.uniform(0, 1, (3, 32, 32))
        b = np.roll(a, 2, axis=2)  # pure shift
        fwd = net(Tensor(a), Tensor(b)).data
        rev = net(Tensor(b), Tensor(a)).data
        assert not np.allclose(fwd, rev)

    def test_rejects_mismatched_frames(self):
        net = PoseNet(rng())
        with pytest.raises(ValueError, match="matching"):
            net(Tensor(np.zeros((3, 16, 16))), Tensor(np.zeros((3, 8, 8))))
