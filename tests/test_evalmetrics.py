"""Evaluation protocol tests: evaluate_depth's median scaling and seven metrics, segment ATE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depthlab.evalmetrics import Trajectory, ate_5frame, evaluate_depth
from depthlab.geometry import PoseSE3

from oracles import ate_grid_search, depth_metrics_loops, lower_median_loops, median_scale_loops, rotation_expm


def random_trajectory(rng, n=9, scale=1.0):
    poses = []
    for k in range(n):
        rot = rotation_expm(rng.uniform(-0.1, 0.1, 3))
        poses.append(PoseSE3(rot, scale * rng.uniform(-2.0, 2.0, 3)))
    return Trajectory(tuple(range(n)), tuple(poses))


class TestMedianScale:
    """The scale step of evaluate_depth: f_scale = median(gt)/median(pred),
    lower-middle medians over the valid set, then the cap."""

    def test_double_prediction_halves(self):
        # the halved prediction is the ground truth, so every error reads zero
        rng = np.random.default_rng(1)
        gt = rng.uniform(1.0, 10.0, size=(8, 8))
        rep = evaluate_depth(2.0 * gt, gt)
        assert rep.f_scale == 0.5
        assert rep.abs_rel <= 1e-12
        assert rep.sq_rel <= 1e-12
        assert rep.rmse <= 1e-12
        assert rep.rmse_log <= 1e-12

    def test_identity(self):
        # the same values in another order: equal medians leave the prediction unscaled
        rng = np.random.default_rng(2)
        gt = rng.uniform(1.0, 10.0, size=(8, 8))
        rep = evaluate_depth(rng.permutation(gt.ravel()).reshape(gt.shape), gt)
        assert rep.f_scale == 1.0
        assert rep.abs_rel > 0.0

    def test_median_preserved_pre_cap(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            gt = rng.uniform(1.0, 20.0, size=(8, 8))
            pred = rng.uniform(0.1, 3.0, size=(8, 8))
            f = evaluate_depth(pred, gt).f_scale
            assert abs(lower_median_loops(pred * f) - lower_median_loops(gt)) <= 1e-12

    def test_idempotent_below_the_cap(self):
        rng = np.random.default_rng(4)
        gt = rng.uniform(1.0, 10.0, size=(8, 8))
        pred = rng.uniform(0.5, 2.0, size=(8, 8))
        scaled = pred * evaluate_depth(pred, gt).f_scale
        assert abs(evaluate_depth(scaled, gt).f_scale - 1.0) <= 1e-12

    def test_cap_applies_to_prediction(self):
        gt = np.full((4, 4), 100.0)
        pred = np.full((4, 4), 1.0)
        pred[0, 0] = 10.0  # scales to 1000, must cap at 150
        rep = evaluate_depth(pred, gt)
        assert rep.f_scale == 100.0
        assert rep.abs_rel == 0.5 / 16  # uncapped: 9.0 / 16
        assert rep.rmse == 12.5

    def test_matches_loop_oracle(self):
        # the report scores the oracle's scaled and capped prediction
        rng = np.random.default_rng(5)
        pred = rng.uniform(0.2, 5.0, size=(8, 8))
        gt = rng.uniform(1.0, 160.0, size=(8, 8))
        rep = evaluate_depth(pred, gt)
        ref_scaled, ref_f = median_scale_loops(pred, gt)
        assert abs(rep.f_scale - ref_f) <= 1e-12
        for key, want in depth_metrics_loops(ref_scaled, gt).items():
            assert abs(getattr(rep, key) - want) <= 1e-12, key

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"prediction \(2, 2\) and ground truth \(2, 3\) differ in shape"):
            evaluate_depth(np.ones((2, 2)), np.ones((2, 3)))

    def test_empty_valid_set_rejected(self):
        with pytest.raises(ValueError, match="empty valid set"):
            evaluate_depth(np.ones((2, 2)), np.zeros((2, 2)))

    def test_zero_median_rejected(self):
        gt = np.ones((2, 2))
        with pytest.raises(ValueError, match="predicted median is zero"):
            evaluate_depth(np.zeros((2, 2)), gt)


class TestDepthMetrics:
    """Hand cases pick a prediction whose lower median equals the ground
    truth's, so f_scale is 1 and the metrics read the prediction as given."""

    def test_perfect_prediction(self):
        rng = np.random.default_rng(6)
        gt = rng.uniform(1.0, 10.0, size=(8, 8))
        rep = evaluate_depth(gt, gt)
        assert (rep.abs_rel, rep.sq_rel, rep.rmse, rep.rmse_log) == (0.0, 0.0, 0.0, 0.0)
        assert (rep.delta1, rep.delta2, rep.delta3) == (1.0, 1.0, 1.0)

    def test_hand_case(self):
        pred = np.array([[1.0, 8.0]])
        gt = np.array([[1.0, 4.0]])
        rep = evaluate_depth(pred, gt)
        assert rep.f_scale == 1.0
        assert rep.abs_rel == 0.5
        assert rep.sq_rel == 2.0
        assert rep.rmse == np.sqrt(8.0)
        assert (rep.delta1, rep.delta2, rep.delta3) == (0.5, 0.5, 0.5)

    def test_matches_loop_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        capped = 0
        for _ in range(30):
            pred = rng.uniform(0.2, 5.0, size=(8, 8))
            gt = rng.uniform(1.0, 160.0, size=(8, 8))
            rep = evaluate_depth(pred, gt)
            scaled, ref_f = median_scale_loops(pred, gt)
            ref = depth_metrics_loops(scaled, gt)
            assert rep.f_scale == ref_f
            for key, want in ref.items():
                assert abs(getattr(rep, key) - want) <= 1e-12, key
            capped += bool((pred * ref_f > 150.0).any())
        assert capped > 0  # some instances reach the cap

    def test_delta_symmetric_error_metrics_not(self):
        pred = np.array([[2.0, 4.0, 6.0]])
        gt = np.array([[1.0, 4.0, 5.0]])
        fwd = evaluate_depth(pred, gt)
        rev = evaluate_depth(gt, pred)
        assert fwd.f_scale == rev.f_scale == 1.0
        assert (fwd.delta1, fwd.delta2, fwd.delta3) == (rev.delta1, rev.delta2, rev.delta3)
        assert fwd.abs_rel != rev.abs_rel
        assert fwd.sq_rel != rev.sq_rel

    def test_delta_comparison_is_strict(self):
        pred = np.array([[1.0, 1.25]])
        gt = np.array([[1.0, 1.0]])
        rep = evaluate_depth(pred, gt)
        assert rep.f_scale == 1.0
        assert rep.delta1 == 0.5  # the ratio of exactly 1.25 fails the strict <

    def test_valid_mask_default_skips_holes(self):
        # one exact and one 2x pixel around a zero and a NaN hole: every mean
        # is over the two valid pixels, and a hole counted would make it non-finite
        pred = np.array([[2.0, 5.0], [7.0, 4.0]])
        gt = np.array([[2.0, 0.0], [np.nan, 2.0]])
        rep = evaluate_depth(pred, gt)
        assert rep.f_scale == 1.0
        assert rep.abs_rel == 0.5
        assert rep.sq_rel == 1.0
        assert rep.rmse == np.sqrt(2.0)
        assert rep.delta1 == 0.5

    def test_evaluate_depth_two_x_ground_truth(self):
        rng = np.random.default_rng(8)
        gt = rng.uniform(1.0, 10.0, size=(8, 8))
        rep = evaluate_depth(2.0 * gt, gt)
        assert rep.f_scale == 0.5
        assert rep.abs_rel <= 1e-12
        assert rep.delta1 == 1.0


class TestATE:
    def test_identical_trajectories_score_zero(self):
        rng = np.random.default_rng(9)
        traj = random_trajectory(rng)
        mean, segments = ate_5frame(traj, traj)
        assert mean == 0.0
        assert all(s == 0.0 for s in segments)
        assert len(segments) == len(traj) - 4

    def test_uniform_scale_is_removed(self):
        rng = np.random.default_rng(10)
        gt = random_trajectory(rng)
        pred = Trajectory(gt.indices, tuple(PoseSE3(p.rotation, 3.0 * p.translation) for p in gt.poses))
        mean, _ = ate_5frame(pred, gt)
        assert mean <= 1e-12

    @given(st.floats(min_value=0.01, max_value=100.0))
    @settings(deadline=None, max_examples=25)
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(11)
        gt = random_trajectory(rng)
        pred = random_trajectory(rng, scale=0.7)
        base, _ = ate_5frame(pred, gt)
        scaled_pred = Trajectory(pred.indices, tuple(PoseSE3(p.rotation, c * p.translation) for p in pred.poses))
        scaled, _ = ate_5frame(scaled_pred, gt)
        assert abs(scaled - base) <= 1e-9 * max(1.0, base)

    def test_matches_grid_search_oracle(self):
        rng = np.random.default_rng(12)
        gt = random_trajectory(rng, n=8)
        pred = Trajectory(
            gt.indices,
            tuple(
                PoseSE3(p.rotation, 1.8 * p.translation + rng.uniform(-0.05, 0.05, 3)) for p in gt.poses
            ),
        )
        mean, _ = ate_5frame(pred, gt)
        ref_mean, _ = ate_grid_search(pred.positions(), gt.positions())
        assert abs(mean - ref_mean) <= 1e-6

    def test_length_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        a = random_trajectory(rng, n=6)
        b = random_trajectory(rng, n=7)
        with pytest.raises(ValueError, match="lengths"):
            ate_5frame(a, b)

    def test_misaligned_frame_indices_rejected(self):
        rng = np.random.default_rng(15)
        pred = random_trajectory(rng, n=6)
        # same positions on frames 0, 2, ..., 10: scored blindly this reads 0.0
        gt = Trajectory(tuple(2 * k for k in pred.indices), pred.poses)
        with pytest.raises(ValueError, match="indices"):
            ate_5frame(pred, gt)

    def test_short_trajectory_rejected(self):
        rng = np.random.default_rng(14)
        a = random_trajectory(rng, n=4)
        with pytest.raises(ValueError, match="at least 5"):
            ate_5frame(a, a)

    def test_indices_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            Trajectory((0, 0), (PoseSE3.identity(), PoseSE3.identity()))
