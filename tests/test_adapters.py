"""Adapter algebra: forward equivalences, initialization, freezing, merging."""

import hashlib

import numpy as np
import pytest

from depthlab import autodiff as ad
from depthlab.adapters import (
    FrozenLinear,
    InitScheme,
    InitVariant,
    LowRankAdapter,
    make_adapter,
    merge_weights,
)
from depthlab.autodiff import Tensor
from depthlab.nn import frozen_checksums, trainable_param_count
from depthlab.optim import Adam

from oracles import fd_gradient, rel_err


def random_setup(rng, m=6, n=5, r=3):
    layer = FrozenLinear.random(m, n, rng)
    adapter = LowRankAdapter(
        rng.standard_normal((r, n)),
        rng.standard_normal((m, r)),
        rng.standard_normal(r),
        rng.standard_normal(m),
    )
    return layer, adapter


class TestPlainForward:
    def test_zero_up_matrix_reduces_to_base(self):
        rng = np.random.default_rng(1)
        layer = FrozenLinear.random(4, 3, rng)
        adapter = LowRankAdapter(rng.standard_normal((2, 3)), np.zeros((4, 2)))
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(layer(Tensor(x), adapter).data, layer(Tensor(x)).data)

    def test_identity_factors_pass_input_through(self):
        n = 4
        layer = FrozenLinear(np.zeros((n, n)), np.zeros(n))
        adapter = LowRankAdapter(np.eye(n), np.eye(n))
        x = np.arange(1.0, n + 1.0)
        np.testing.assert_array_equal(layer(Tensor(x), adapter).data, x)

    def test_matches_dense_merge(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            layer = FrozenLinear.random(6, 5, rng)
            adapter = LowRankAdapter(rng.standard_normal((3, 5)), rng.standard_normal((6, 3)))
            x = rng.standard_normal(5)
            dense = (layer.weight.data + adapter.up.data @ adapter.down.data) @ x + layer.bias.data
            got = layer(Tensor(x), adapter).data
            assert np.max(np.abs(got - dense)) <= 1e-12


class TestScaledForward:
    def test_fresh_adapter_matches_base_bitwise(self):
        rng = np.random.default_rng(3)
        layer = FrozenLinear.random(8, 5, rng)
        adapter = make_adapter("scaled", 8, 5, 3, InitScheme(seed=11))
        x = rng.standard_normal(5)
        got = layer(Tensor(x), adapter).data
        np.testing.assert_array_equal(got, layer(Tensor(x)).data)

    def test_unit_scales_equal_plain_adapter(self):
        rng = np.random.default_rng(4)
        layer = FrozenLinear.random(6, 5, rng)
        a = rng.standard_normal((3, 5))
        b = rng.standard_normal((6, 3))
        plain = LowRankAdapter(a, b)
        scaled = LowRankAdapter(a, b, np.ones(3), np.ones(6))
        x = rng.standard_normal(5)
        np.testing.assert_allclose(
            layer(Tensor(x), scaled).data,
            layer(Tensor(x), plain).data,
            atol=1e-14,
        )

    def test_matches_dense_merge(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            layer, adapter = random_setup(rng)
            x = rng.standard_normal(5)
            dense_w = layer.weight.data + np.diag(adapter.scale_up.data) @ adapter.up.data @ np.diag(
                adapter.scale_down.data
            ) @ adapter.down.data
            dense = dense_w @ x + layer.bias.data
            got = layer(Tensor(x), adapter).data
            assert np.max(np.abs(got - dense)) <= 1e-12

    def test_batched_rows(self):
        rng = np.random.default_rng(6)
        layer, adapter = random_setup(rng)
        xs = rng.standard_normal((4, 5))
        batched = layer(Tensor(xs), adapter).data
        for i in range(4):
            single = layer(Tensor(xs[i]), adapter).data
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    def test_fresh_adapter_gradient_wrt_input_equals_base(self):
        rng = np.random.default_rng(7)
        layer = FrozenLinear.random(6, 5, rng)
        adapter = make_adapter("scaled", 6, 5, 2, InitScheme(seed=0))
        x = rng.standard_normal(5)

        tx1 = Tensor(x, requires_grad=True)
        ad.tsum(layer(tx1, adapter)).backward()
        tx2 = Tensor(x, requires_grad=True)
        ad.tsum(layer(tx2)).backward()
        np.testing.assert_array_equal(tx1.grad, tx2.grad)

    def test_gradients_reach_only_low_rank_factors(self):
        rng = np.random.default_rng(8)
        layer, adapter = random_setup(rng)
        x = rng.standard_normal(5)
        out = ad.tsum(layer(Tensor(x), adapter))
        out.backward()
        assert adapter.down.grad is not None and adapter.up.grad is not None
        assert layer.weight.grad is None and adapter.scale_down.grad is None
        assert adapter.scale_up.grad is None

    def test_factor_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        layer, adapter = random_setup(rng)
        x = rng.standard_normal(5)
        target = rng.standard_normal(6)

        def loss_arrays(a_val, b_val):
            w = layer.weight.data + np.diag(adapter.scale_up.data) @ b_val @ np.diag(adapter.scale_down.data) @ a_val
            h = w @ x + layer.bias.data
            return float(np.sum((h - target) ** 2))

        h = layer(Tensor(x), adapter)
        diff = h - Tensor(target)
        ad.tsum(diff * diff).backward()
        a0, b0 = adapter.down.data.copy(), adapter.up.data.copy()
        assert rel_err(adapter.down.grad, fd_gradient(loss_arrays, [a0, b0], 0)) <= 1e-5
        assert rel_err(adapter.up.grad, fd_gradient(loss_arrays, [a0, b0], 1)) <= 1e-5


class TestInit:
    def test_up_matrix_starts_at_zero(self):
        for seed in range(5):
            adapter = make_adapter("scaled", 7, 5, 3, InitScheme(seed=seed))
            np.testing.assert_array_equal(adapter.up.data, np.zeros((7, 3)))

    def test_same_seed_bit_identical(self):
        s = InitScheme(variant=InitVariant.KAIMING_UNIFORM, seed=123)
        a1 = make_adapter("scaled", 6, 4, 2, s)
        a2 = make_adapter("scaled", 6, 4, 2, s)
        np.testing.assert_array_equal(a1.down.data, a2.down.data)
        np.testing.assert_array_equal(a1.scale_down.data, a2.scale_down.data)
        np.testing.assert_array_equal(a1.scale_up.data, a2.scale_up.data)

    def test_kaiming_uniform_bound(self):
        adapter = make_adapter("scaled", 64, 64, 4, InitScheme(seed=77))
        assert np.max(np.abs(adapter.down.data)) <= np.sqrt(6.0 / 64.0)

    def test_variants_differ(self):
        draws = {
            v: make_adapter("scaled", 6, 6, 2, InitScheme(variant=v, seed=5)).down.data.tobytes()
            for v in InitVariant
        }
        assert len(set(draws.values())) == 3

    def test_uniform_variant_range(self):
        adapter = make_adapter("scaled", 16, 16, 4, InitScheme(variant=InitVariant.UNIFORM, seed=3))
        assert adapter.down.data.min() >= 0.0 and adapter.down.data.max() <= 1.0

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError, match="rank"):
            make_adapter("scaled", 4, 3, 5, InitScheme())

    def test_plain_draws_same_down_matrix_as_scaled(self):
        for variant in InitVariant:
            s = InitScheme(variant=variant, seed=8)
            plain = make_adapter("plain", 7, 5, 3, s)
            scaled = make_adapter("scaled", 7, 5, 3, s)
            np.testing.assert_array_equal(plain.down.data, scaled.down.data)
            np.testing.assert_array_equal(plain.up.data, np.zeros((7, 3)))
            assert [name for name, _ in plain.named_parameters()] == ["down", "up"]

    def test_modes(self):
        assert make_adapter("none", 4, 3, 5, InitScheme()) is None
        with pytest.raises(ValueError, match="adapter mode"):
            make_adapter("giant", 4, 3, 2, InitScheme())

    def test_scales_given_both_or_neither(self):
        rng = np.random.default_rng(0)
        a, b = rng.standard_normal((2, 3)), rng.standard_normal((4, 2))
        with pytest.raises(ValueError, match="both"):
            LowRankAdapter(a, b, scale_down=np.ones(2))
        with pytest.raises(ValueError, match="both"):
            LowRankAdapter(a, b, scale_up=np.ones(4))


class TestMerge:
    def test_fresh_adapter_merges_to_base(self):
        rng = np.random.default_rng(10)
        layer = FrozenLinear.random(5, 4, rng)
        adapter = make_adapter("scaled", 5, 4, 2, InitScheme(seed=1))
        merged = merge_weights(layer, adapter)
        np.testing.assert_array_equal(merged.weight.data, layer.weight.data)

    def test_merged_forward_matches_adapter_forward(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            layer, adapter = random_setup(rng)
            merged = merge_weights(layer, adapter)
            x = rng.standard_normal(5)
            a_out = layer(Tensor(x), adapter).data
            m_out = merged(Tensor(x)).data
            scale = max(1.0, np.max(np.abs(a_out)))
            assert np.max(np.abs(a_out - m_out)) / scale <= 1e-10

    def test_merge_is_idempotent_on_dense_result(self):
        rng = np.random.default_rng(12)
        layer, adapter = random_setup(rng)
        m1 = merge_weights(layer, adapter)
        m2 = merge_weights(layer, adapter)
        np.testing.assert_array_equal(m1.weight.data, m2.weight.data)


class TestParamCounts:
    def test_single_adapter_counts(self):
        layer = FrozenLinear.random(64, 64, np.random.default_rng(0))
        adapter = make_adapter("scaled", 64, 64, 4, InitScheme(seed=0))
        trainable, total = trainable_param_count(adapter)
        assert trainable == 4 * 64 + 64 * 4  # A and B
        assert total - trainable == 4 + 64  # frozen scales
        lt, lt_total = trainable_param_count(layer)
        assert lt == 0 and lt_total == 64 * 64 + 64

    def test_ratio_for_384_square(self):
        layer = FrozenLinear.random(384, 384, np.random.default_rng(0))
        adapter = make_adapter("plain", 384, 384, 4, InitScheme(seed=0))
        trainable, total = trainable_param_count(adapter)
        assert trainable == total == 3072
        _, dense = trainable_param_count(layer)
        assert dense == layer.weight.size + 384  # the frozen bias counts too
        assert abs(trainable / layer.weight.size - 0.0208) <= 1e-3


class TestFrozenIntegrity:
    def test_frozen_bytes_unchanged_across_adam_steps(self):
        rng = np.random.default_rng(13)
        layer, _ = random_setup(rng)
        adapter = make_adapter("scaled", 6, 5, 3, InitScheme(seed=2))
        xs = rng.standard_normal((8, 5))
        ys = rng.standard_normal((8, 6))

        class Holder:
            pass

        bundle = Holder()
        bundle.layer = layer
        bundle.adapter = adapter
        before = {
            "W0": layer.weight.data.tobytes(),
            "bias": layer.bias.data.tobytes(),
            "a": adapter.scale_down.data.tobytes(),
            "b": adapter.scale_up.data.tobytes(),
        }
        opt = Adam([("A", adapter.down), ("B", adapter.up)], lr=1e-2)
        for _ in range(50):
            opt.zero_grad()
            h = layer(Tensor(xs), adapter)
            diff = h - Tensor(ys)
            ad.tmean(diff * diff).backward()
            opt.step()
        assert layer.weight.data.tobytes() == before["W0"]
        assert layer.bias.data.tobytes() == before["bias"]
        assert adapter.scale_down.data.tobytes() == before["a"]
        assert adapter.scale_up.data.tobytes() == before["b"]
        # while the trainable factors really moved
        assert adapter.up.data.any()

    def test_checksum_helper_tracks_frozen_only(self):
        rng = np.random.default_rng(14)
        layer = FrozenLinear.random(4, 3, rng)
        sums = frozen_checksums(layer)
        assert set(sums) == {"weight", "bias"}
        expect = hashlib.sha256(layer.weight.data.tobytes()).hexdigest()
        assert sums["weight"] == expect


class TestAdamBasics:
    def test_zero_gradient_leaves_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.zeros(2)
        opt.step()
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    def test_first_step_magnitude(self):
        p = Tensor(0.0, requires_grad=True)
        opt = Adam([("p", p)], lr=1e-3)
        p.grad = np.asarray(1.0)
        opt.step()
        assert abs(p.data + 1e-3) <= 1e-9  # approx -lr after bias correction

    def test_quadratic_descent(self):
        p = Tensor(3.0, requires_grad=True)
        opt = Adam([("p", p)], lr=0.2)
        values = []
        for _ in range(10):
            opt.zero_grad()
            loss = p * p
            loss.backward()
            values.append(loss.item())
            opt.step()
        assert all(b < a for a, b in zip(values[1:], values[2:]))
        assert values[-1] < values[0]

    def test_nonfinite_gradient_rejected_with_name(self):
        p = Tensor(1.0, requires_grad=True)
        opt = Adam([("alpha", p)], lr=0.1)
        p.grad = np.asarray(np.nan)
        with pytest.raises(ad.TrainingDiverged, match="alpha"):
            opt.step()
        assert p.data == 1.0

    def test_frozen_parameter_refused(self):
        with pytest.raises(ValueError, match="frozen"):
            Adam([("p", Tensor(1.0, requires_grad=False))])
