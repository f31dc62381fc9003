"""Engine tests: forward semantics, loop-oracle agreement for the
convolutions (within a dot-product error bound for conv2d, exact for
depthwise_conv2d), bit-equality of the fused layer ops with the composed
forms they replaced, and finite-difference agreement for every
differentiable op."""

import gc
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab import autodiff as ad
from depthlab.autodiff import Tensor
from depthlab.evalmetrics import lower_median
from depthlab.nn import Conv2d, DepthwiseConv2d, trainable_param_count

from oracles import (
    FD_EPS,
    attention_per_head,
    conv2d_input_grad_taps,
    conv2d_loops,
    conv_plus_bias,
    depthwise_conv2d_loops,
    fd_gradient,
    linear_composed,
    rel_err,
)


def leaf(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = ad.matmul(Tensor(np.eye(2)), Tensor(b))
        np.testing.assert_array_equal(out.data, b)

    def test_by_hand(self):
        out = ad.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.shape == (1, 1)
        assert out.item() == 11.0

    def test_shape_mismatch_reports_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 5))
        b = rng.standard_normal((5, 3))
        ta, tb = leaf(a), leaf(b)
        ad.tsum(ad.matmul(ta, tb)).backward()

        def f(av, bv):
            return float(np.sum(av @ bv))

        assert rel_err(ta.grad, fd_gradient(f, [a, b], 0)) <= 1e-6
        assert rel_err(tb.grad, fd_gradient(f, [a, b], 1)) <= 1e-6


class TestConv2d:
    def test_one_by_one_identity(self):
        x = np.arange(9.0).reshape(1, 3, 3)
        k = np.ones((1, 1, 1, 1))
        out = ad.conv2d(Tensor(x), Tensor(k))
        np.testing.assert_array_equal(out.data, x)

    def test_all_ones_center_counts_window(self):
        x = np.ones((1, 3, 3))
        k = np.ones((1, 1, 3, 3))
        out = ad.conv2d(Tensor(x), Tensor(k), padding=1)
        assert out.data[0, 1, 1] == 9.0
        assert out.data[0, 0, 0] == 4.0

    @staticmethod
    def assert_within_dot_product_bound(x, k, stride, padding):
        """Each output is a length-K dot product, K = c_in*kh*kw, summed in no
        fixed order, so it may differ from the loop oracle by at most
        K*eps*sum(|x||k|) over its window."""
        ours = ad.conv2d(Tensor(x), Tensor(k), stride=stride, padding=padding).data
        ref = conv2d_loops(x, k, stride=stride, padding=padding)
        bound = k[0].size * np.finfo(np.float64).eps * conv2d_loops(np.abs(x), np.abs(k), stride=stride, padding=padding)
        assert ours.shape == ref.shape
        assert np.all(np.abs(ours - ref) <= bound)

    def test_matches_loop_oracle_within_dot_product_bound(self):
        rng = np.random.default_rng(11)
        for stride, padding in [(1, 0), (1, 1), (2, 1)]:
            x = rng.standard_normal((3, 7, 8))
            k = rng.standard_normal((4, 3, 3, 3))
            self.assert_within_dot_product_bound(x, k, stride, padding)

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride, padding",
        [
            ((3, 7, 7), (4, 3, 3, 3), 2, 1),  # padded width 9: 5 grid columns, 4 kept
            ((12, 4, 4), (3, 12, 1, 1), 1, 0),
            ((3, 4, 4), (12, 3, 1, 1), 1, 0),
            ((2, 8, 8), (1, 2, 7, 7), 1, 3),
            ((2, 3, 3), (3, 2, 5, 5), 1, 1),
            ((18, 16, 16), (14, 18, 3, 3), 1, 1),
            ((224, 8, 8), (56, 224, 1, 1), 1, 0),
        ],
        ids=[
            "stride2_odd_width",
            "mixer_reduce",
            "mixer_restore",
            "spatial_attention",
            "kernel_fills_input",
            "decoder_conv3",
            "model_mixer_reduce",
        ],
    )
    def test_matches_loop_oracle_at_layout_edges(self, x_shape, k_shape, stride, padding):
        rng = np.random.default_rng(19)
        self.assert_within_dot_product_bound(rng.standard_normal(x_shape), rng.standard_normal(k_shape), stride, padding)

    @pytest.mark.parametrize(
        "k_shape, stride, padding",
        [((4, 3, 3, 3), 1, 1), ((4, 3, 3, 3), 2, 1), ((4, 3, 1, 1), 1, 0)],
        ids=["stride1", "stride2", "one_by_one"],
    )
    def test_forward_and_gradients_are_bit_identical_across_calls(self, k_shape, stride, padding):
        def run():
            rng = np.random.default_rng(29)
            tx, tk = leaf(rng.standard_normal((3, 9, 10))), leaf(rng.standard_normal(k_shape))
            out = ad.conv2d(tx, tk, stride=stride, padding=padding)
            ad.tsum(out * Tensor(rng.standard_normal(out.shape))).backward()
            return out.data, tx.grad, tk.grad

        for first, second in zip(run(), run()):
            np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize(
        "x_shape, k_shape, stride, padding",
        [
            ((14, 16, 16), (1, 14, 3, 3), 1, 1),
            ((8, 16, 16), (1, 8, 3, 3), 1, 1),
            ((2, 8, 8), (1, 2, 7, 7), 1, 3),
            ((3, 7, 8), (1, 3, 3, 3), 2, 1),
        ],
        ids=["disparity_head", "shading_head", "spatial_attention", "stride2"],
    )
    def test_one_output_channel_input_gradient_is_the_broadcast_product_sum(self, x_shape, k_shape, stride, padding):
        # one output channel leaves nothing to sum within a tap, so the input
        # gradient is exact per tap, added in tap order as the oracle does
        rng = np.random.default_rng(31)
        tx = leaf(rng.standard_normal(x_shape))
        k = rng.standard_normal(k_shape)
        out = ad.conv2d(tx, Tensor(k), stride=stride, padding=padding)
        g = rng.standard_normal(out.shape)
        ad.tsum(out * Tensor(g)).backward()
        np.testing.assert_array_equal(tx.grad, conv2d_input_grad_taps(g, k, x_shape, stride=stride, padding=padding))

    def test_rejects_oversized_kernel(self):
        with pytest.raises(ValueError, match="larger than"):
            ad.conv2d(Tensor(np.zeros((1, 3, 3))), Tensor(np.zeros((1, 1, 5, 5))))

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError, match="odd"):
            ad.conv2d(Tensor(np.zeros((1, 6, 6))), Tensor(np.zeros((1, 1, 2, 2))))

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 5, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        tx, tk = leaf(x), leaf(k)
        ad.tsum(ad.conv2d(tx, tk, padding=1)).backward()

        def f(xv, kv):
            return float(np.sum(conv2d_loops(xv, kv, padding=1)))

        assert rel_err(tx.grad, fd_gradient(f, [x, k], 0)) <= 1e-6
        assert rel_err(tk.grad, fd_gradient(f, [x, k], 1)) <= 1e-6

    def test_strided_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((2, 5, 8))
        k = rng.standard_normal((3, 2, 3, 3))
        weights = rng.standard_normal((3, 3, 4))
        tx, tk = leaf(x), leaf(k)
        ad.tsum(ad.conv2d(tx, tk, stride=2, padding=1) * Tensor(weights)).backward()

        def f(xv, kv):
            return float(np.sum(weights * conv2d_loops(xv, kv, stride=2, padding=1)))

        assert rel_err(tx.grad, fd_gradient(f, [x, k], 0)) <= 1e-6
        assert rel_err(tk.grad, fd_gradient(f, [x, k], 1)) <= 1e-6


class TestPitchGrid:
    """The padded buffer both convolutions read is np.pad's zero padding,
    element for element."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2, 3])
    def test_pad_matches_np_pad(self, stride, padding):
        rng = np.random.default_rng(10 * stride + padding)
        for h, w in [(5, 7), (6, 8), (5, 8), (6, 7)]:
            for k in (1, 3, 5):
                data = rng.standard_normal((3, h, w))
                grid = ad._PitchGrid(data.shape, k, k, stride, padding)
                ref = np.pad(data, ((0, 0), (padding, grid.rows - padding - h), (padding, padding)))
                buf = grid.pad(data)
                assert buf.dtype == ref.dtype and buf.shape == ref.shape == (3, grid.rows, grid.pitch)
                np.testing.assert_array_equal(buf, ref)
                np.testing.assert_array_equal(grid.unpad(buf), data)


class TestDepthwiseConv2d:
    def test_identity_kernels(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((2, 4, 4))
        k = np.zeros((2, 3, 3))
        k[:, 1, 1] = 1.0
        out = ad.depthwise_conv2d(Tensor(x), Tensor(k), padding=1)
        np.testing.assert_array_equal(out.data, x)

    def test_parameter_count_vs_dense(self):
        rng = np.random.default_rng(0)
        depthwise = DepthwiseConv2d(8, 3, rng, padding=1)
        dense = Conv2d(8, 8, 3, rng, padding=1)
        assert trainable_param_count(depthwise) == (72 + 8, 72 + 8)  # kernels plus one bias per channel
        assert trainable_param_count(dense) == (576 + 8, 576 + 8)

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6, 5))
        k = rng.standard_normal((4, 3, 3))
        ours = ad.depthwise_conv2d(Tensor(x), Tensor(k), padding=1).data
        np.testing.assert_array_equal(ours, depthwise_conv2d_loops(x, k, padding=1))

    def test_matches_loop_oracle_at_stride_two(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((3, 6, 7))
        k = rng.standard_normal((3, 3, 3))
        ours = ad.depthwise_conv2d(Tensor(x), Tensor(k), stride=2, padding=1).data
        np.testing.assert_array_equal(ours, depthwise_conv2d_loops(x, k, stride=2, padding=1))

    def test_strided_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((2, 5, 8))
        k = rng.standard_normal((2, 3, 3))
        weights = rng.standard_normal((2, 3, 4))
        tx, tk = leaf(x), leaf(k)
        ad.tsum(ad.depthwise_conv2d(tx, tk, stride=2, padding=1) * Tensor(weights)).backward()

        def f(xv, kv):
            return float(np.sum(weights * depthwise_conv2d_loops(xv, kv, stride=2, padding=1)))

        assert rel_err(tx.grad, fd_gradient(f, [x, k], 0)) <= 1e-6
        assert rel_err(tk.grad, fd_gradient(f, [x, k], 1)) <= 1e-6

    def test_rejects_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            ad.depthwise_conv2d(Tensor(np.zeros((3, 4, 4))), Tensor(np.zeros((2, 3, 3))))


class TestElementwise:
    def test_abs_value_and_subgradient(self):
        x = leaf(-3.0)
        y = ad.tabs(x)
        assert y.item() == 3.0
        y.backward()
        assert x.grad == -1.0

    def test_abs_subgradient_at_zero_is_zero(self):
        x = leaf(0.0)
        ad.tabs(x).backward()
        assert x.grad == 0.0

    def test_sigmoid_at_zero(self):
        assert ad.sigmoid(Tensor(0.0)).item() == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shapes"):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))
        with pytest.raises(ValueError, match=r"mul: shapes \(2, 3\) and \(3, 2\)"):
            ad.mul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))

    def test_scalar_broadcast_allowed(self):
        out = Tensor(np.ones((2, 2))) * 3.0
        np.testing.assert_array_equal(out.data, np.full((2, 2), 3.0))


class TestReductions:
    def test_mean(self):
        assert ad.tmean(Tensor([1.0, 2.0, 3.0, 4.0])).item() == 2.5

    def test_median_odd(self):
        assert lower_median(np.array([3.0, 1.0, 2.0])) == 2.0

    def test_median_even_lower_middle(self):
        assert lower_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0

    def test_empty_reduction_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ad.tsum(Tensor(np.zeros((0, 2))))

    def test_max_routes_gradient_to_first_maximum(self):
        x = leaf([1.0, 5.0, 5.0, 2.0])
        ad.tmax(x).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("axis, keepdims", [((1, 2), False), (0, True), ((0, 2), False)])
    def test_max_over_axes_routes_each_gradient_to_its_argmax(self, axis, keepdims):
        rng = np.random.default_rng(9)
        xv = rng.standard_normal((3, 4, 5))
        x = leaf(xv)
        out = ad.tmax(x, axis=axis, keepdims=keepdims)
        np.testing.assert_array_equal(out.data, np.max(xv, axis=axis, keepdims=keepdims))
        weight = rng.standard_normal(out.shape)
        ad.tsum(out * weight).backward()
        axes = (axis,) if isinstance(axis, int) else axis
        expected = np.zeros_like(xv)
        flat_weight = weight.reshape(-1)
        # loop reference: each output element's weight lands on the first
        # maximal input element of its reduction window
        kept = [ax for ax in range(3) if ax not in axes]
        for n, lead in enumerate(np.ndindex(*(xv.shape[ax] for ax in kept))):
            window = [slice(None)] * 3
            for ax, i in zip(kept, lead):
                window[ax] = i
            sub = xv[tuple(window)]
            hit = np.unravel_index(np.argmax(sub), sub.shape)
            at = list(window)
            for ax, i in zip(axes, hit):
                at[ax] = i
            expected[tuple(at)] = flat_weight[n]
        np.testing.assert_array_equal(x.grad, expected)

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=30))
    @settings(deadline=None, max_examples=50)
    def test_median_matches_sorted_lower_middle(self, values):
        got = lower_median(np.array(values))
        assert got == sorted(values)[(len(values) - 1) // 2]


class TestSoftmaxLayerNorm:
    def test_softmax_uniform(self):
        np.testing.assert_allclose(ad.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=0)

    def test_layernorm_constant_vector_is_zero_before_affine(self):
        out = ad.layer_norm(Tensor(np.full((4,), 3.7)))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-10)

    def test_attention_gradcheck_two_tokens(self):
        rng = np.random.default_rng(23)
        q = rng.standard_normal((2, 4))
        k = rng.standard_normal((2, 4))
        v = rng.standard_normal((2, 4))
        tq, tk, tv = leaf(q), leaf(k), leaf(v)
        scale = 1.0 / np.sqrt(4.0)

        out = ad.matmul(ad.softmax(ad.matmul(tq, tk.T) * scale), tv)
        ad.tsum(out).backward()

        def f(qv, kv, vv):
            logits = (qv @ kv.T) * scale
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            att = e / e.sum(axis=-1, keepdims=True)
            return float(np.sum(att @ vv))

        for i, t in enumerate([tq, tk, tv]):
            assert rel_err(t.grad, fd_gradient(f, [q, k, v], i)) <= 1e-5

    def test_layernorm_gradcheck(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal((3, 5))
        tx = leaf(x)
        ad.tsum(ad.tabs(ad.layer_norm(tx))).backward()

        def f(xv):
            mu = xv.mean(axis=-1, keepdims=True)
            var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
            return float(np.sum(np.abs((xv - mu) / np.sqrt(var + 1e-5))))

        assert rel_err(tx.grad, fd_gradient(f, [x], 0)) <= 1e-5


class TestErf:
    @staticmethod
    def ulps(got, x):
        ref = np.array([math.erf(v) for v in x])
        return np.abs(got - ref) / np.spacing(np.abs(ref))

    def test_within_4_ulp_of_math_erf(self):
        rng = np.random.default_rng(31)
        x = np.concatenate([np.linspace(-10.0, 10.0, 200_001), rng.standard_normal(20_000)])
        assert self.ulps(ad._erf(x), x).max() <= 4

    def test_edges_and_special_values_raise_no_warning(self):
        edges = [1.0, 6.0]
        x = np.array(
            [v for e in edges for v in (np.nextafter(e, 0.0), e, np.nextafter(e, 10.0))]
            + [5e-324, 1e-300, 1e300, np.inf]
        )
        x = np.concatenate([x, -x])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # without the clip, x*x overflows at 1e300
            got = ad._erf(x.reshape(2, -1)).ravel()
            signed_zeros = ad._erf(np.array([0.0, -0.0]))
            nan = ad._erf(np.array([np.nan]))
        assert self.ulps(got, x).max() <= 4
        np.testing.assert_array_equal(got[np.abs(x) >= 6.0], np.sign(x[np.abs(x) >= 6.0]))
        np.testing.assert_array_equal(signed_zeros, [0.0, -0.0])
        np.testing.assert_array_equal(np.signbit(signed_zeros), [False, True])
        assert np.isnan(nan[0])


class TestFusedLayers:
    """Each fused layer op gives the bits of the composed form it replaced,
    values and gradients."""

    @staticmethod
    def both(fused, composed, arrays):
        results = []
        for op in (fused, composed):
            leaves = [leaf(a) for a in arrays]
            out = op(*leaves)
            ad.tsum(_sq(out)).backward()
            results.append((out.data, [t.grad for t in leaves]))
        (value, grads), (oracle_value, oracle_grads) = results
        np.testing.assert_array_equal(value, oracle_value)
        for g, og in zip(grads, oracle_grads):
            np.testing.assert_array_equal(g, og)

    @pytest.mark.parametrize("with_branch", [False, True], ids=["plain", "branch"])
    def test_affine_matches_matmul_then_adds(self, with_branch):
        rng = np.random.default_rng(37)
        arrays = [rng.standard_normal(s) for s in [(5, 6), (3, 6), (3,)]]
        if with_branch:
            arrays.append(rng.standard_normal((5, 3)))  # nonzero, unlike a fresh adapter's
        self.both(ad.affine, linear_composed, arrays)

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_matches_per_head_loop(self, heads):
        rng = np.random.default_rng(41)
        arrays = [rng.standard_normal((6, 8)) for _ in range(3)]
        self.both(
            lambda q, k, v: ad.attention(q, k, v, heads), lambda q, k, v: attention_per_head(q, k, v, heads), arrays
        )

    @pytest.mark.parametrize(
        "conv, k_shape, stride",
        [(ad.conv2d, (3, 2, 3, 3), 1), (ad.depthwise_conv2d, (2, 3, 3), 2)],
        ids=["conv2d", "depthwise"],
    )
    def test_conv_bias_is_added_after_the_taps(self, conv, k_shape, stride):
        rng = np.random.default_rng(43)
        arrays = [rng.standard_normal((2, 6, 6)), rng.standard_normal(k_shape), rng.standard_normal(k_shape[0])]
        self.both(
            lambda x, k, b: conv(x, k, b, stride=stride, padding=1),
            lambda x, k, b: conv_plus_bias(conv, x, k, b, stride=stride, padding=1),
            arrays,
        )

    def test_shape_mismatches_are_rejected(self):
        rows, w, b = Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))), Tensor(np.ones(4))
        with pytest.raises(ValueError, match="affine needs"):
            ad.affine(rows, Tensor(np.ones((4, 2))), b)
        with pytest.raises(ValueError, match="affine needs"):
            ad.affine(rows, w, Tensor(np.ones(3)))
        with pytest.raises(ValueError, match="affine branch shape"):
            ad.affine(rows, w, b, Tensor(np.ones((2, 3))))
        with pytest.raises(ValueError, match="divide d 6"):
            ad.attention(*(Tensor(np.ones((2, 6))) for _ in range(3)), heads=4)
        with pytest.raises(ValueError, match="attention needs"):
            ad.attention(Tensor(np.ones((2, 6))), Tensor(np.ones((3, 6))), Tensor(np.ones((3, 6))), heads=2)
        with pytest.raises(ValueError, match=r"conv2d bias must have shape \(2,\)"):
            ad.conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((2, 1, 1, 1))), Tensor(np.ones(1)))
        with pytest.raises(ValueError, match=r"depthwise_conv2d bias must have shape \(1,\)"):
            ad.depthwise_conv2d(Tensor(np.ones((1, 3, 3))), Tensor(np.ones((1, 1, 1))), Tensor(np.ones(2)))


class TestBilinearSample:
    @staticmethod
    def identity_grid(h, w):
        u, v = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
        return np.stack([u, v])

    def test_identity_grid_is_identity(self):
        rng = np.random.default_rng(31)
        src = rng.standard_normal((3, 5, 6))
        out, valid = ad.bilinear_sample(Tensor(src), Tensor(self.identity_grid(5, 6)))
        np.testing.assert_array_equal(out.data, src)
        assert valid.dtype == bool and valid.shape == (5, 6) and valid.all()
        with pytest.raises(ValueError, match="read-only"):
            valid[0, 0] = False

    def test_half_pixel_shift_on_ramp(self):
        w = 6
        ramp = np.tile(np.arange(w, dtype=np.float64), (4, 1))[None]
        grid = self.identity_grid(4, w)
        grid[0] += 0.5
        out, valid = ad.bilinear_sample(Tensor(ramp), Tensor(grid))
        np.testing.assert_allclose(out.data[0][valid], (ramp[0] + 0.5)[valid], atol=1e-12)
        assert not valid[:, -1].any()  # shifted past the last column

    def test_out_of_bounds_masked_not_error(self):
        src = np.ones((1, 3, 3))
        grid = self.identity_grid(3, 3)
        grid[0] += 10.0
        out, valid = ad.bilinear_sample(Tensor(src), Tensor(grid))
        np.testing.assert_array_equal(out.data, np.zeros((1, 3, 3)))
        assert not valid.any()

    def test_nan_and_huge_coordinates_are_invalid_samples(self):
        grid = self.identity_grid(3, 3)
        grid[:, 0, 0] = np.nan
        grid[:, 1, 1] = 1e200  # far past the image: its corner weights must not overflow
        out, valid = ad.bilinear_sample(Tensor(np.ones((1, 3, 3))), Tensor(grid))
        expected = np.ones((3, 3), dtype=bool)
        expected[0, 0] = expected[1, 1] = False
        np.testing.assert_array_equal(valid, expected)
        np.testing.assert_array_equal(out.data[0], expected)

    @pytest.mark.parametrize("hw", [(1, 4), (4, 1)])
    def test_source_narrower_than_two_pixels_rejected(self, hw):
        h, w = hw
        with pytest.raises(ValueError, match="2x2"):
            ad.bilinear_sample(Tensor(np.ones((1, h, w))), Tensor(self.identity_grid(h, w)))

    def test_grid_gradient_vs_finite_differences_interior(self):
        rng = np.random.default_rng(37)
        src = rng.uniform(0.0, 1.0, size=(2, 6, 6))
        grid = self.identity_grid(6, 6)
        grid += rng.uniform(0.12, 0.38, size=grid.shape)  # interior, away from the lattice
        grid = np.clip(grid, 0.3, 4.6)
        tg = leaf(grid)
        out, _ = ad.bilinear_sample(Tensor(src), tg)
        ad.tsum(out).backward()

        def f(gv):
            total = 0.0
            for y in range(6):
                for x in range(6):
                    u, v = gv[0, y, x], gv[1, y, x]
                    x0, y0 = int(np.floor(u)), int(np.floor(v))
                    wx, wy = u - x0, v - y0
                    for c in range(2):
                        total += (
                            src[c, y0, x0] * (1 - wx) * (1 - wy)
                            + src[c, y0, x0 + 1] * wx * (1 - wy)
                            + src[c, y0 + 1, x0] * (1 - wx) * wy
                            + src[c, y0 + 1, x0 + 1] * wx * wy
                        )
            return total

        assert rel_err(tg.grad, fd_gradient(f, [grid], 0)) <= 1e-5

    def test_source_gradient_scatters(self):
        src = leaf(np.zeros((1, 4, 4)))
        grid = Tensor(self.identity_grid(4, 4))
        out, _ = ad.bilinear_sample(src, grid)
        ad.tsum(out).backward()
        np.testing.assert_array_equal(src.grad, np.ones((1, 4, 4)))

    @staticmethod
    def snapped(coord):
        rounded = np.round(coord)
        return np.where(np.abs(coord - rounded) <= 1e-9, rounded, coord)

    @classmethod
    def loop_scatter(cls, grid, upstream, h, w):
        """Source gradient of sum(upstream * sampled): each corner scatters in
        pixel order, then the corners add in order. The top-left corner is
        clamped to column w - 2 and row h - 2, so a sample on the last
        column or row gives its weight to the cell before it."""
        c, ho, wo = upstream.shape
        expected = np.zeros((c, h, w))
        for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
            part = np.zeros((c, h, w))
            for i in range(ho):
                for j in range(wo):
                    u, v = cls.snapped(grid[0, i, j]), cls.snapped(grid[1, i, j])
                    if not (0.0 <= u <= w - 1.0 and 0.0 <= v <= h - 1.0):
                        continue
                    x0, y0 = min(int(np.floor(u)), w - 2), min(int(np.floor(v)), h - 2)
                    x, y = x0 + dx, y0 + dy
                    wx, wy = u - x0, v - y0
                    weight = (wx if dx else 1.0 - wx) * (wy if dy else 1.0 - wy)
                    for ch in range(c):
                        part[ch, y, x] += upstream[ch, i, j] * weight
            expected += part
        return expected

    @classmethod
    def weighted_sample_loops(cls, src, grid, upstream):
        """sum(upstream * sampled) at the snapped grid, reading 0 beyond the
        image; equals the sampler wherever every sample is valid."""
        c, h, w = src.shape
        total = 0.0
        for i in range(grid.shape[1]):
            for j in range(grid.shape[2]):
                u, v = cls.snapped(grid[0, i, j]), cls.snapped(grid[1, i, j])
                x0, y0 = int(np.floor(u)), int(np.floor(v))
                wx, wy = u - x0, v - y0
                for dy, dx in ((0, 0), (0, 1), (1, 0), (1, 1)):
                    x, y = x0 + dx, y0 + dy
                    if x < w and y < h:
                        weight = (wx if dx else 1.0 - wx) * (wy if dy else 1.0 - wy)
                        total += weight * float(np.dot(upstream[:, i, j], src[:, y, x]))
        return total

    def test_source_gradient_matches_loop_scatter(self):
        rng = np.random.default_rng(43)
        c, h, w = 3, 5, 6
        src = leaf(rng.uniform(0.0, 1.0, size=(c, h, w)))
        grid = np.stack([rng.uniform(-1.5, w + 0.5, (4, 7)), rng.uniform(-1.5, h + 0.5, (4, 7))])
        upstream = rng.standard_normal((c, 4, 7))
        out, _ = ad.bilinear_sample(src, Tensor(grid))
        ad.tsum(out * Tensor(upstream)).backward()
        np.testing.assert_array_equal(src.grad, self.loop_scatter(grid, upstream, h, w))

    def test_both_gradients_on_the_last_row_and_column_and_the_lattice(self):
        rng = np.random.default_rng(47)
        c, h, w = 2, 5, 6
        # interior samples keep their fractional part in [0.1, 0.9]
        u = rng.integers(0, w - 1, (4, 5)) + rng.uniform(0.1, 0.9, (4, 5))
        v = rng.integers(0, h - 1, (4, 5)) + rng.uniform(0.1, 0.9, (4, 5))
        u[0] = w - 1.0  # last column: valid, its +1 column outside the image
        v[1] = h - 1.0  # last row
        # within 1e-9 of the lattice, snapped; the last one is valid only snapped
        u[2, :3] = [1.0 + 4e-10, 3.0 - 4e-10, w - 1.0 + 3e-10]
        v[3, :3] = [2.0 + 4e-10, 1.0 - 4e-10, h - 1.0 + 3e-10]
        grid = np.stack([u, v])
        src = rng.uniform(0.0, 1.0, size=(c, h, w))
        upstream = rng.standard_normal((c, 4, 5))
        ts, tg = leaf(src), leaf(grid)
        out, valid = ad.bilinear_sample(ts, tg)
        assert valid.all()
        ad.tsum(out * Tensor(upstream)).backward()

        np.testing.assert_array_equal(ts.grad, self.loop_scatter(grid, upstream, h, w))
        f0 = self.weighted_sample_loops(src, grid, upstream)
        assert abs(f0 - np.sum(out.data * upstream)) <= 1e-12
        # the sampler is linear in u and in v inside a cell, with kinks on the
        # lattice, and the gradient takes the slope of the cell at or after the
        # sample, or before it on the last column (for u) or row (for v): a
        # forward difference, or a backward one at that edge, gives it exactly,
        # up to the 4e-10 a snapped coordinate moved over 1e-4
        eps = 1e-4
        edge = np.stack([self.snapped(u) == w - 1.0, self.snapped(v) == h - 1.0])
        one_sided = np.zeros_like(grid)
        for idx in np.ndindex(grid.shape):
            step = -eps if edge[idx] else eps
            stepped = grid.copy()
            stepped[idx] += step
            one_sided[idx] = (self.weighted_sample_loops(src, stepped, upstream) - f0) / step
        assert rel_err(tg.grad, one_sided) <= 1e-5


class TestBackward:
    def test_square(self):
        x = leaf(3.0)
        (x * x).backward()
        assert x.grad == 6.0

    def test_linear_in_weights(self):
        rng = np.random.default_rng(41)
        w = rng.standard_normal((3, 4))
        x = rng.standard_normal((4, 1))
        tw = leaf(w)
        ad.tsum(ad.matmul(tw, Tensor(x))).backward()
        # d sum(Wx) / dW = 1 x^T, independent of W
        np.testing.assert_allclose(tw.grad, np.ones((3, 1)) @ x.T, atol=1e-12)

    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError, match="scalar"):
            leaf([1.0, 2.0]).backward()

    def test_repeated_backward_accumulates(self):
        x = leaf(3.0)
        y = x * x
        y.backward()
        y.backward()
        assert x.grad == 12.0

    def test_backward_is_deterministic(self):
        def run():
            rng = np.random.default_rng(43)
            x = leaf(rng.standard_normal((4, 4)))
            a = ad.sigmoid(ad.matmul(x, x.T))
            out = ad.tsum(ad.tmean(a * a, axis=0))
            out.backward()
            return x.grad.copy()

        np.testing.assert_array_equal(run(), run())

    def test_assign_only_on_leaves(self):
        x = leaf([1.0, 2.0])
        y = x * 2.0
        with pytest.raises(ValueError, match="leaf"):
            y.assign([0.0, 0.0])
        x.assign([3.0, 4.0])
        np.testing.assert_array_equal(x.data, [3.0, 4.0])


class TestNoGrad:
    def test_ops_build_no_graph_and_compute_the_same_values(self):
        rng = np.random.default_rng(44)
        xv, kv = rng.standard_normal((2, 5, 5)), rng.standard_normal((3, 2, 3, 3))

        def run():
            x, k = leaf(xv), leaf(kv)
            return ad.tsum(ad.sigmoid(ad.conv2d(x, k, padding=1))) * ad.tsum(x), x, k

        graph, _, _ = run()
        with ad.no_grad():
            plain, x, k = run()
        np.testing.assert_array_equal(plain.data, graph.data)
        assert graph.requires_grad and graph._node is not None
        assert not plain.requires_grad and plain._node is None
        assert x._node is None and k._node is None  # no leaf node either
        plain.backward()  # nothing to reach
        assert x.grad is None and k.grad is None

    def test_mode_returns_after_an_exception(self):
        x = leaf([1.0, 2.0])
        with pytest.raises(ZeroDivisionError):
            with ad.no_grad():
                assert not (x * 2.0).requires_grad
                1 / 0
        assert (x * 2.0).requires_grad

    def test_inner_block_leaves_the_outer_mode_as_it_found_it(self):
        x = leaf([1.0, 2.0])
        with ad.no_grad():
            with ad.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad


# op, then one shape per operand; every operand takes values in [0.5, 1.5],
# so divisors stay away from zero and grid coordinates inside the source
_MIXED_CASES = {
    "mul": (lambda a, b: a * b, [(2, 3), (2, 3)]),
    "mul_scalar": (lambda a, b: a * b, [(2, 3), ()]),
    "div": (lambda a, b: a / b, [(2, 3), (2, 3)]),
    "matmul": (ad.matmul, [(2, 3), (3, 4)]),
    "layer_norm": (ad.layer_norm, [(2, 4)]),
    "conv2d": (lambda x, k: ad.conv2d(x, k, padding=1), [(2, 5, 5), (3, 2, 3, 3)]),
    "depthwise": (lambda x, k: ad.depthwise_conv2d(x, k, stride=2, padding=1), [(2, 5, 5), (2, 3, 3)]),
    "bilinear": (lambda s, g: ad.bilinear_sample(s, g)[0], [(2, 4, 4), (2, 3, 3)]),
    "affine": (ad.affine, [(3, 4), (2, 4), (2,)]),
    "affine_branch": (ad.affine, [(3, 4), (2, 4), (2,), (3, 2)]),
    "attention": (lambda q, k, v: ad.attention(q, k, v, 2), [(3, 4), (3, 4), (3, 4)]),
    "conv2d_bias": (lambda x, k, b: ad.conv2d(x, k, b, padding=1), [(2, 5, 5), (3, 2, 3, 3), (3,)]),
    "depthwise_bias": (lambda x, k, b: ad.depthwise_conv2d(x, k, b, stride=2, padding=1), [(2, 5, 5), (2, 3, 3), (2,)]),
}


@pytest.mark.parametrize(
    "name, operand",
    [(name, i) for name, (_, shapes) in _MIXED_CASES.items() for i in range(len(shapes))],
)
def test_single_grad_operand_matches_all_grad(name, operand):
    """An operand that alone requires grad gets exactly the gradient it gets
    when every operand does; the constant operands' .grad stays None."""
    op, shapes = _MIXED_CASES[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    arrays = [rng.uniform(0.5, 1.5, size=shape) for shape in shapes]
    weight = None

    def run(flags):
        nonlocal weight
        tensors = [Tensor(a, requires_grad=f) for a, f in zip(arrays, flags)]
        out = op(*tensors)
        if weight is None:
            weight = rng.standard_normal(out.shape)
        ad.tsum(out * weight).backward()
        return tensors

    every = run([True] * len(shapes))
    alone = run([i == operand for i in range(len(shapes))])
    assert every[operand].grad is not None
    np.testing.assert_array_equal(alone[operand].grad, every[operand].grad)
    assert all(t.grad is None for i, t in enumerate(alone) if i != operand)


class TestRetention:
    """The graph keeps only what backward closures read."""

    def test_gradients_land_on_leaves_only(self):
        x = leaf([1.0, 2.0, 3.0])
        w = leaf([2.0, -1.0, 0.5])
        y = x * w
        z = ad.tsum(y * y)
        z.backward()
        assert y.grad is None and z.grad is None
        # d/dx sum((x w)^2) = 2 x w^2 and d/dw = 2 w x^2, exact for these values
        np.testing.assert_array_equal(x.grad, [8.0, 4.0, 1.5])
        np.testing.assert_array_equal(w.grad, [4.0, -8.0, 9.0])

    def test_permute_and_transpose_are_views(self):
        a = leaf(np.arange(24.0).reshape(2, 3, 4))
        p = ad.permute(a, (2, 0, 1))
        np.testing.assert_array_equal(p.data, np.transpose(a.data, (2, 0, 1)))
        assert np.shares_memory(p.data, a.data)
        m = leaf(np.arange(6.0).reshape(2, 3))
        assert np.shares_memory(m.T.data, m.data)

    def test_permute_backward_applies_the_inverse_permutation(self):
        a = leaf(np.arange(24.0).reshape(2, 3, 4))
        weights = np.arange(24.0).reshape(4, 2, 3) + 1.0
        ad.tsum(ad.permute(a, (2, 0, 1)) * weights).backward()
        # (2, 0, 1) is not its own inverse: the gradient goes back through (1, 2, 0)
        np.testing.assert_array_equal(a.grad, np.transpose(weights, (1, 2, 0)))

    def test_broadcast_mul_keeps_no_expanded_operand(self):
        rng = np.random.default_rng(4)
        x = leaf(rng.standard_normal((16, 32, 32)))
        gate = leaf(rng.standard_normal((16, 1, 1)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = x * gate
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # a (16, 32, 32) copy of the gate would be another 131,072 bytes;
        # 4 KiB covers the Tensor, its node and its closure
        assert held - out.data.nbytes < 4 * 1024
        ad.tsum(out).backward()
        assert gate.grad.shape == (16, 1, 1)
        np.testing.assert_array_equal(gate.grad, np.sum(x.data, axis=(1, 2), keepdims=True))

    @pytest.mark.parametrize(
        "op, k_shape", [(ad.conv2d, (2, 16, 3, 3)), (ad.depthwise_conv2d, (16, 3, 3))], ids=["conv2d", "depthwise"]
    )
    def test_conv_forward_holds_no_padded_buffer(self, op, k_shape):
        rng = np.random.default_rng(5)
        x = leaf(rng.standard_normal((16, 32, 32)))
        k = leaf(rng.standard_normal(k_shape))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = op(x, k, stride=1, padding=1)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the padded input would be (16 channels, 32 + 3 rows, 34 pitch)
        # float64 = 152,320 bytes; 16 KiB covers the Tensor and its closure
        assert held - out.data.nbytes < 16 * 1024

    def test_grid_only_bilinear_keeps_no_channel_sized_array(self):
        rng = np.random.default_rng(6)
        source = Tensor(rng.uniform(size=(8, 32, 32)))  # frozen: the grid gradient reads it
        grid = leaf(rng.uniform(0.0, 31.0, size=(2, 32, 32)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, valid = ad.bilinear_sample(source, grid)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # per output pixel the closure keeps the flat corner index, wx, wy and
        # the validity mask, 8 + 8 + 8 + 1 bytes (the returned mask is that
        # same array, so it is counted once here); it keeps the source by
        # reference and no (C, Ho, Wo) array (65,536 bytes here), recomputing
        # corner values in backward; 4 KiB covers the tensors, node and closure
        extra = held - out.data.nbytes
        assert extra < 25 * 32 * 32 + 4 * 1024
        ad.tsum(out).backward()
        assert grid.grad.shape == (2, 32, 32) and source.grad is None

    def test_source_only_bilinear_keeps_no_source_array(self):
        rng = np.random.default_rng(7)
        x = leaf(rng.uniform(size=(2, 6, 6)))
        source = x * 2.0
        grid = Tensor(rng.uniform(0.0, 5.0, size=(2, 4, 4)))  # frozen: only the grid gradient reads the source
        out, _ = ad.bilinear_sample(source, grid)
        held = weakref.ref(source.data)
        del source
        gc.collect()
        assert held() is None
        ad.tsum(out).backward()
        assert x.grad.shape == (2, 6, 6)

    def test_chained_add_frees_the_middle_array(self):
        x = leaf([1.0, 2.0, 3.0])
        y = x + 1.0
        z = y + 2.0
        middle = weakref.ref(y.data)
        del y
        gc.collect()
        assert middle() is None
        ad.tsum(z).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_frozen_matmul_keeps_no_input_rows(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        w = Tensor(np.arange(12.0).reshape(4, 3))  # frozen (out, in) weight
        rows = x * 2.0
        out = ad.matmul(rows, w.T)
        held = weakref.ref(rows.data)
        del rows
        gc.collect()
        assert held() is None
        ad.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones((2, 4)) @ w.data)

    def test_frozen_affine_keeps_no_input_rows(self):
        x = leaf(np.arange(6.0).reshape(2, 3))
        w = Tensor(np.arange(12.0).reshape(4, 3))  # frozen (out, in) weight
        b = Tensor(np.arange(4.0))  # frozen bias
        rows = x * 2.0
        out = ad.affine(rows, w, b)
        held = weakref.ref(rows.data)
        del rows
        gc.collect()
        assert held() is None
        ad.tsum(out).backward()
        np.testing.assert_array_equal(x.grad, 2.0 * np.ones((2, 4)) @ w.data)

    def test_attention_keeps_its_operands_and_the_probabilities_only(self):
        rng = np.random.default_rng(47)
        n, d, heads = 32, 64, 4
        q, k, v = (leaf(rng.standard_normal((n, d))) for _ in range(3))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.attention(q, k, v, heads)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # q, k and v are kept by reference; beyond the output the closure holds
        # the (heads, n, n) probabilities, 32,768 bytes here (per-head logits or
        # copies of q, k, v would be 16,384 bytes each more); 4 KiB covers the
        # tensor, node and closure
        assert held - out.data.nbytes < heads * n * n * 8 + 4 * 1024
        ad.tsum(out).backward()
        assert all(t.grad.shape == (n, d) for t in (q, k, v))

    def test_graph_is_freed_by_reference_counting(self):
        # a leaf's node refers back to it weakly: no cycle outlives the graph
        gc.disable()
        try:
            x = leaf(np.ones(8))
            out = ad.tsum(x * x)
            out.backward()
            np.testing.assert_array_equal(x.grad, np.full(8, 2.0))
            value = weakref.ref(x.data)
            del x, out
            assert value() is None
        finally:
            gc.enable()

    def test_leaf_gradients_unchanged_when_intermediates_are_freed(self):
        rng = np.random.default_rng(8)
        xv, wv, cv = rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), rng.standard_normal((3, 5))

        def grad(drop):
            x, w, c = leaf(xv), Tensor(wv), Tensor(cv)
            m = ad.matmul(x, w.T)
            h = m + 1.0
            out = ad.tsum(h * c)
            refs = [weakref.ref(m.data), weakref.ref(h.data)]
            if drop:
                del m, h
                gc.collect()
                assert all(r() is None for r in refs)
            out.backward()
            return x.grad

        kept = grad(drop=False)
        np.testing.assert_array_equal(grad(drop=True), kept)
        np.testing.assert_allclose(kept, cv @ wv, atol=1e-12)


def _sq(t):
    return t * t


def _random_op_cases(seed):
    """One small input set per differentiable op, values at magnitude ~1 and
    away from kinks."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, size=(2, 3))
    x = np.where(np.abs(x) < 1e-2, x + 0.05, x)  # keep clear of abs/relu corners
    pos = rng.uniform(0.5, 2.0, size=(2, 3))
    y = rng.uniform(0.4, 2.0, size=(2, 3)) * rng.choice([-1.0, 1.0], size=(2, 3))
    m = rng.standard_normal((2, 3))
    n = rng.standard_normal((3, 2))
    img = rng.uniform(-1.0, 1.0, size=(1, 4, 4))
    ker = rng.standard_normal((2, 1, 3, 3))
    dker = rng.standard_normal((1, 3, 3))
    src = rng.uniform(0.0, 1.0, size=(1, 3, 3))
    grid = np.stack(
        [rng.uniform(0.2, 1.4, size=(2, 2)), rng.uniform(0.2, 1.4, size=(2, 2))]
    )
    # operands that broadcast against (2, 3), signed and away from zero; the
    # (2, 1) one comes first, so each side's gradient is summed down
    small = {s: rng.uniform(0.4, 2.0, size=s) * rng.choice([-1.0, 1.0], size=s) for s in [(3,), (2, 1), (1, 3)]}
    pairs = {"row": [y, small[(3,)]], "col": [small[(2, 1)], y], "top": [y, small[(1, 3)]]}
    weight, wbias, branch = rng.standard_normal((4, 3)), rng.standard_normal(4), rng.standard_normal((2, 4))
    q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
    cbias, dbias = rng.standard_normal(2), rng.standard_normal(1)
    binary = {"add": ad.add, "sub": ad.sub, "mul": ad.mul, "div": ad.div}
    cases = [
        ("add", lambda: ad.tsum(leafs[0] + leafs[1]), [x, y]),
        ("sub", lambda: ad.tsum(leafs[0] - leafs[1]), [x, y]),
        ("mul", lambda: ad.tsum(leafs[0] * leafs[1]), [x, y]),
        ("div", lambda: ad.tsum(leafs[0] / leafs[1]), [x, y]),
        ("abs", lambda: ad.tsum(ad.tabs(leafs[0])), [x]),
        ("sigmoid", lambda: ad.tsum(ad.sigmoid(leafs[0])), [x]),
        ("relu", lambda: ad.tsum(ad.relu(leafs[0])), [x]),
        ("gelu", lambda: ad.tsum(ad.gelu(leafs[0])), [x]),
        ("sin", lambda: ad.tsum(ad.tsin(leafs[0])), [x]),
        ("cos", lambda: ad.tsum(ad.tcos(leafs[0])), [x]),
        ("sqrt", lambda: ad.tsum(ad.tsqrt(leafs[0])), [pos]),
        ("matmul", lambda: ad.tsum(ad.matmul(leafs[0], leafs[1])), [m, n]),
        ("sum_axis", lambda: ad.tsum(_sq(ad.tsum(leafs[0], axis=1))), [x]),
        ("mean_axis", lambda: ad.tsum(_sq(ad.tmean(leafs[0], axis=0))), [x]),
        ("sum_axes_keepdims", lambda: ad.tsum(_sq(ad.tsum(leafs[0], axis=(0, 2), keepdims=True))), [ker]),
        ("mean_axes_keepdims", lambda: ad.tsum(_sq(ad.tmean(leafs[0], axis=(0, 2), keepdims=True))), [ker]),
        ("mask_fill", lambda: ad.tsum(_sq(ad.mask_fill(leafs[0], y < 0, 0.5))), [x]),
        ("max", lambda: ad.tmax(leafs[0]), [x]),
        ("softmax", lambda: ad.tsum(_sq(ad.softmax(leafs[0]))), [x]),
        ("layernorm", lambda: ad.tsum(_sq(ad.layer_norm(leafs[0]))), [x]),
        ("conv2d", lambda: ad.tsum(ad.conv2d(leafs[0], leafs[1], padding=1)), [img, ker]),
        ("depthwise", lambda: ad.tsum(ad.depthwise_conv2d(leafs[0], leafs[1], padding=1)), [img, dker]),
        ("bilinear", lambda: ad.tsum(ad.bilinear_sample(leafs[0], leafs[1])[0]), [src, grid]),
        ("concat", lambda: ad.tsum(_sq(ad.concat([leafs[0], leafs[1]], axis=1))), [x, y]),
        ("slice", lambda: ad.tsum(ad.slice_axis(leafs[0], 1, 1, 3)), [x]),
        ("permute", lambda: ad.tsum(_sq(ad.permute(leafs[0], (1, 0)))), [x]),
        ("upsample", lambda: ad.tsum(_sq(ad.upsample_nearest2x(leafs[0]))), [img]),
        ("affine", lambda: ad.tsum(_sq(ad.affine(leafs[0], leafs[1], leafs[2]))), [m, weight, wbias]),
        (
            "affine_branch",
            lambda: ad.tsum(_sq(ad.affine(leafs[0], leafs[1], leafs[2], leafs[3]))),
            [m, weight, wbias, branch],
        ),
        ("attention", lambda: ad.tsum(_sq(ad.attention(leafs[0], leafs[1], leafs[2], 2))), [q, k, v]),
        ("conv2d_bias", lambda: ad.tsum(_sq(ad.conv2d(leafs[0], leafs[1], leafs[2], padding=1))), [img, ker, cbias]),
        (
            "depthwise_bias",
            lambda: ad.tsum(_sq(ad.depthwise_conv2d(leafs[0], leafs[1], leafs[2], padding=1))),
            [img, dker, dbias],
        ),
    ]
    # squared, so the small operand's gradient is not a plain count
    cases += [
        (f"{name}_{side}", lambda op=op: ad.tsum(_sq(op(leafs[0], leafs[1]))), operands)
        for name, op in binary.items()
        for side, operands in pairs.items()
    ]
    leafs = []
    return cases, leafs


@pytest.mark.parametrize("seed", range(100))
def test_every_op_matches_finite_differences(seed):
    """Engine-wide invariant: central differences at step 1e-6 agree with
    autodiff within 1e-5 relative error across 100 random seeds."""
    cases, leafs = _random_op_cases(seed)
    for name, build, arrays in cases:
        leafs.clear()
        leafs.extend(leaf(a) for a in arrays)
        out = build()
        out.backward()

        for i, arr in enumerate(arrays):

            def f(*vals):
                leafs_saved = [lf.data for lf in leafs]
                for lf, v in zip(leafs, vals):
                    lf.data = np.asarray(v, dtype=np.float64)
                value = build().item()
                for lf, sv in zip(leafs, leafs_saved):
                    lf.data = sv
                return value

            numeric = fd_gradient(f, arrays, i, eps=FD_EPS)
            err = rel_err(leafs[i].grad, numeric)
            assert err <= 1e-5, f"op {name}, input {i}, seed {seed}: rel err {err}"
