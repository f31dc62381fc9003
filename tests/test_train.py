"""The training loop end to end on a tiny scene: finite records, bit-identical
reruns down to the checkpoint bytes, the batched min-reprojection path, the
objective's exact value in every aggregation/decomposition combination on
the one full-resolution depth map evaluation scores, a batch step's
per-target backward (its gradients and its memory), the divergence path
and the frozen-weight check."""

import dataclasses
import gc
import hashlib
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from depthlab import autodiff as ad
from depthlab import cli, losses
from depthlab import train as train_module
from depthlab.autodiff import Tensor, TrainingDiverged
from depthlab.config import TrainConfig
from depthlab.evalmetrics import Trajectory
from depthlab.formats import SceneOnDisk, write_scene
from depthlab.geometry import CameraModel
from depthlab.optim import Adam
from depthlab.scene import generate_scene
from depthlab.train import ModelBundle, evaluate_scene, load_model, predicted_trajectory, save_model, step_loss, train

from oracles import lower_median_loops, photometric_loss_loops, smoothness_loss_loops

SMALL = dict(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2, epochs=2)


@pytest.fixture(scope="module")
def scene():
    cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    return generate_scene("two_spheres", 4, 0, cam)


@pytest.fixture(scope="module")
def scene8():
    """Eight frames: targets 1..6 at stride 1, enough for a batch of 6."""
    cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    return generate_scene("two_spheres", 8, 0, cam)


def _run(scene, config, checkpoint):
    _, records = train(scene, config, checkpoint_path=checkpoint)
    return records, checkpoint.read_bytes()


def _assert_finite(records):
    for r in records:
        values = (r.loss, r.reconstruction, r.reflectance, r.synthesis, r.smoothness, r.val_abs_rel)
        assert all(math.isfinite(v) for v in values), r


def test_records_finite_and_reruns_bit_identical(scene, tmp_path):
    config = TrainConfig(**SMALL)
    records, checkpoint = _run(scene, config, tmp_path / "a.npz")
    again, checkpoint_again = _run(scene, config, tmp_path / "b.npz")

    assert [(r.epoch, r.step) for r in records] == [(1, 2), (2, 4)]  # targets 1 and 2, batch 1
    assert [r.lr for r in records] == [config.lr, config.lr * config.lr_decay]  # decay_epoch: max(1, 2 // 3) = 1
    _assert_finite(records)
    assert records == again
    assert checkpoint == checkpoint_again


@pytest.fixture(scope="module")
def scene_on_disk(tmp_path_factory):
    """Six 16x16 frames of seed 3, read back from their directory as the CLI reads them."""
    scene_dir = tmp_path_factory.mktemp("pins") / "scene"
    write_scene(scene_dir, generate_scene("two_spheres", 6, 3, CameraModel(16.0, 16.0, 7.5, 7.5, 16, 16)))
    return SceneOnDisk(scene_dir)


@pytest.mark.parametrize(
    "adapter, aggregation, bypass, digest",
    [
        ("none", "mean", False, "fc48e2b60f7408edc248234765a776e3091783ec44845cea12d35cb085835d4f"),
        ("none", "mean", True, "b1d0c865891d1c4b2d0e64394e5e14e13fd7680b55754dfb4f38f7b896759953"),
        ("none", "min", False, "81edaf5209e08390a16c104e86e10951fdeccf642a58c1575c5d8ff90dac57ee"),
        ("none", "min", True, "b6e637a67b8cf3e957ca3006c93d6a562016cc87af5502355630dc38957f57ef"),
        ("plain", "mean", False, "33511e04db0aa97d6c68db21b182e546c11c576d5ba563bd7c74114425eefbb5"),
        ("plain", "mean", True, "40d88ad5feba61677b4e62d6f09cad8d979340db3cff7da49df4b0eae18c5086"),
        ("plain", "min", False, "11be9ccabc653c3c39e5eff4cb5707082af2d2365ed0251cb46ab52733adfcfb"),
        ("plain", "min", True, "ffd0cd39636f0bbb0da3b0c03ebee0ef73a2bace39f9f543705b8d5995851a4d"),
        ("scaled", "mean", False, "6f18dfae0ac4798b01fad9d7a13d820880d76144df9ed05e613040aeb1414d15"),
        ("scaled", "mean", True, "6c2be7c789d9b01255b004aecfd8c10490ee5fee5c3573c09048a5bcdd412f1a"),
        ("scaled", "min", False, "eca6be7fa502190c068e67ba4615410093d9cdf01ee5733ce74429d0cd31cf9e"),
        ("scaled", "min", True, "1d512d372521bf414826c2b598a505f38ccf580eab2e505791afed62f10a10a9"),
    ],
)
def test_trained_checkpoint_bytes_are_pinned(scene_on_disk, tmp_path, adapter, aggregation, bypass, digest):
    # the default model, two epochs at batch 2: every forward, loss, backward
    # and Adam update of a short run ends up in these bytes
    config = TrainConfig(
        adapter=adapter, source_aggregation=aggregation, bypass_decomposition=bypass, epochs=2, batch_size=2
    )
    train(scene_on_disk, config, checkpoint_path=tmp_path / "model.npz")
    assert hashlib.sha256((tmp_path / "model.npz").read_bytes()).hexdigest() == digest


def test_lr_decays_once_after_a_third_of_the_epochs(scene):
    config = TrainConfig(**{**SMALL, "epochs": 3})
    _, records = train(scene, config)
    assert [r.lr for r in records] == [config.lr] + 2 * [config.lr * config.lr_decay]


def test_log_holds_one_json_record_per_epoch(scene, tmp_path):
    log = tmp_path / "train.log"
    _, records = train(scene, TrainConfig(**SMALL), log_path=log)
    lines = log.read_text().splitlines()
    assert [json.loads(line) for line in lines] == [dataclasses.asdict(r) for r in records]


def test_non_square_model_round_trips_through_its_checkpoint(tmp_path):
    config = TrainConfig(**SMALL)
    model = ModelBundle(config, (16, 32))
    rng = np.random.default_rng(4)
    for _, p in model.named_parameters():
        p.assign(p.data + rng.standard_normal(p.shape))  # unlike any fresh model
    path = tmp_path / "wide.npz"
    save_model(path, model, config, 3)

    loaded, step = load_model(path, (16, 32))
    assert step == 3
    expected = dict(model.named_parameters())
    got = dict(loaded.named_parameters())
    assert got.keys() == expected.keys()
    for name in expected:
        np.testing.assert_array_equal(got[name].data, expected[name].data, err_msg=name)


def test_batched_min_reprojection_runs(scene, tmp_path):
    config = TrainConfig(**SMALL, batch_size=2, source_aggregation="min")
    records, _ = _run(scene, config, tmp_path / "model.npz")

    assert [(r.epoch, r.step) for r in records] == [(1, 1), (2, 2)]  # both targets in one step
    _assert_finite(records)
    # the first epoch's one step evaluates both targets before any update, so
    # its record is the mean of each target's parts at the initial weights
    initial = ModelBundle(config, (16, 16))
    parts = [step_loss(initial, scene, t, train_module._FrameCache(initial, scene, [t]))[1] for t in (1, 2)]
    for key in parts[0]:
        assert getattr(records[0], key) == (parts[0][key] + parts[1][key]) / 2, key


# step_loss parts for target 1 at the initial weights, by (source_aggregation,
# bypass_decomposition); any change to the objective's arithmetic moves them
INITIAL_PARTS = {
    ("mean", False): dict(
        reconstruction=0.6344958116974446,
        reflectance=0.001414683309707357,
        synthesis=0.34929498445002705,
        smoothness=0.012335245535355508,
        loss=0.47651408918806354,
    ),
    ("mean", True): dict(
        reconstruction=0.0,
        reflectance=0.0,
        synthesis=0.25864910534910196,
        smoothness=0.012335245535355508,
        loss=0.25868611108570805,
    ),
    ("min", False): dict(
        reconstruction=0.6344958116974446,
        reflectance=0.001414683309707357,
        synthesis=0.3460521047157263,
        smoothness=0.012335245535355508,
        loss=0.4732712094537628,
    ),
    ("min", True): dict(
        reconstruction=0.0,
        reflectance=0.0,
        synthesis=0.21610800255531576,
        smoothness=0.012335245535355508,
        loss=0.21614500829192182,
    ),
}


@pytest.mark.parametrize("aggregation, bypass", list(INITIAL_PARTS))
def test_step_loss_parts_are_pinned(scene, aggregation, bypass):
    config = TrainConfig(**SMALL, source_aggregation=aggregation, bypass_decomposition=bypass)
    model = ModelBundle(config, (16, 16))
    _, parts = step_loss(model, scene, 1, train_module._FrameCache(model, scene, [1]))
    assert parts == INITIAL_PARTS[aggregation, bypass]


@pytest.mark.parametrize("aggregation", ["mean", "min"])
def test_every_synthesis_term_goes_through_synthesis_loss(scene, monkeypatch, aggregation):
    calls = []
    original = losses.synthesis_loss

    def synthesis_loss(*args):
        calls.append(None)
        return original(*args) * 0.0

    monkeypatch.setattr(losses, "synthesis_loss", synthesis_loss)
    config = TrainConfig(**SMALL, source_aggregation=aggregation)
    model = ModelBundle(config, (16, 16))
    _, parts = step_loss(model, scene, 1, train_module._FrameCache(model, scene, [1]))
    assert len(calls) == 2  # one per source
    assert parts["synthesis"] == 0.0  # nothing but synthesis_loss's maps reaches the term


def test_reconstruction_part_scores_each_frame_once(scene):
    # the target's photometric mean plus the mean of its two sources', P_t + mean_s P_s
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    _, parts = step_loss(model, scene, 1, train_module._FrameCache(model, scene, [1]))
    with ad.no_grad():
        decomps = {k: model.decomp(Tensor(scene.frames[k])) for k in (0, 1, 2)}
    hats = {k: r.data * s.data for k, (r, s) in decomps.items()}
    p = {k: photometric_loss_loops(hat, scene.frames[k], 0.85) for k, hat in hats.items()}
    assert abs(parts["reconstruction"] - (p[1] + (p[0] + p[2]) / 2)) <= 1e-12


def test_smoothness_part_scores_the_depth_evaluation_scores(scene):
    # the objective trains the one full-resolution map model.depth returns
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    _, parts = step_loss(model, scene, 1, train_module._FrameCache(model, scene, [1]))
    with ad.no_grad():
        depth = model.depth(Tensor(scene.frames[1])).data
    assert depth.shape == (16, 16)
    assert abs(parts["smoothness"] - smoothness_loss_loops(depth, scene.frames[1], scene.labels[1])) <= 1e-12


class _SharedDecompositions:
    """The frame cache without leaf copies: targets read the decomposition
    outputs themselves, so one backward over the summed totals reaches the
    decomposition head, as a single-backward step would."""

    def __init__(self, model, scene):
        self.model, self.scene, self.outputs = model, scene, {}

    def decomp(self, k):
        if k not in self.outputs:
            self.outputs[k] = self.model.decomp(Tensor(self.scene.frames[k]))
        return self.outputs[k]


class _GradRecorder:
    """Stands in for Adam in ``_optimizer_step``: keeps the gradients the
    step hands it and moves no parameter."""

    def __init__(self, model):
        self.params = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
        self.grads = None

    def step(self):
        self.grads = {n: p.grad.copy() for n, p in self.params if p.grad is not None}

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()


@pytest.mark.parametrize("aggregation, bypass", list(INITIAL_PARTS))
@pytest.mark.parametrize(
    "stride, batch",
    # at stride 2 the decompositions are released in another order than first read
    [(1, [1]), (1, [1, 2, 3]), (2, [2, 3, 4, 5])],
    ids=["batch0", "batch1", "batch2"],
)
def test_a_batch_step_has_the_gradients_of_one_backward_over_the_mean(scene8, aggregation, bypass, stride, batch):
    config = TrainConfig(**SMALL, source_aggregation=aggregation, bypass_decomposition=bypass, triplet_stride=stride)
    model = ModelBundle(config, (16, 16))
    recorder = _GradRecorder(model)
    train_module._optimizer_step(model, scene8, batch, recorder, 0, None)

    shared = _SharedDecompositions(model, scene8)
    totals = [step_loss(model, scene8, t, cache=shared)[0] for t in batch]
    (sum(totals[1:], totals[0]) * (1.0 / len(batch))).backward()
    expected = {n: p.grad for n, p in recorder.params if p.grad is not None}

    assert recorder.grads.keys() == expected.keys()
    assert any(n.startswith("decomp.") for n in expected) != bypass
    for name, grad in expected.items():
        if len(batch) == 1:
            np.testing.assert_array_equal(recorder.grads[name], grad, err_msg=name)
        else:  # per-target backwards add into the leaves in another order
            assert np.abs(recorder.grads[name] - grad).max() <= 1e-14 * np.abs(grad).max(), name


@pytest.mark.parametrize("aggregation, bypass", list(INITIAL_PARTS))
def test_the_step_gradient_is_the_derivative_of_the_logged_loss(scene8, aggregation, bypass):
    # through the warp, the aggregation, the cache's release and the pose
    # head: the gradients a batch step hands Adam against central
    # differences of the batch's mean logged loss along fixed unit directions
    config = TrainConfig(**SMALL, adapter="scaled", source_aggregation=aggregation, bypass_decomposition=bypass)
    model = ModelBundle(config, (16, 16))
    rng = np.random.default_rng(17)
    for name, p in model.named_parameters():
        if ".adapter" in name and name.endswith(".up"):  # each adapter's B, so its path is live
            p.data[...] = rng.normal(0.0, 1e-2, p.shape)
    batch = [1, 2]
    recorder = _GradRecorder(model)
    train_module._optimizer_step(model, scene8, batch, recorder, 0, None)
    start = [p.data.copy() for _, p in recorder.params]

    def logged_loss(directions, h):
        for (_, p), p0, d in zip(recorder.params, start, directions):
            p.data[...] = p0 + h * d
        with ad.no_grad():
            return np.mean(
                [step_loss(model, scene8, t, train_module._FrameCache(model, scene8, [t]))[1]["loss"] for t in batch]
            )

    h = 1e-5
    for _ in range(3):
        directions = [rng.standard_normal(p.shape) for _, p in recorder.params]
        norm = math.sqrt(sum(np.sum(d * d) for d in directions))
        directions = [d / norm for d in directions]
        autodiff = sum(np.sum(recorder.grads.get(n, 0.0) * d) for (n, _), d in zip(recorder.params, directions))
        central = (logged_loss(directions, h) - logged_loss(directions, -h)) / (2 * h)
        assert abs(central - autodiff) <= 1e-6 * abs(autodiff)


def _step_peak(scene, config, batch):
    model = ModelBundle(config, (scene.cam.height, scene.cam.width))
    opt = Adam([(n, p) for n, p in model.named_parameters() if p.requires_grad], lr=config.lr)
    # a full collection empties the interpreter's free lists, so each peak
    # starts from the same state whatever ran before it in this process
    gc.collect()
    tracemalloc.start()
    try:
        train_module._optimizer_step(model, scene, batch, opt, 0, None)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("size", [16, 32])
def test_a_batch_step_holds_one_targets_graph_at_a_time(size):
    cam = CameraModel(fx=float(size), fy=float(size), cx=(size - 1) / 2, cy=(size - 1) / 2, width=size, height=size)
    scene = generate_scene("two_spheres", 8, 0, cam)
    config = TrainConfig(**SMALL, source_aggregation="min")
    one = _step_peak(scene, config, [1])
    six = _step_peak(scene, config, [1, 2, 3, 4, 5, 6])
    # six targets hold one target's graph plus the at most three shared
    # decompositions a later target still reads, not five more targets'
    # graphs (about 4x when all six lived together) nor all eight
    # decompositions (about 1.6x when they were backwarded after the batch)
    assert six < 1.25 * one


@pytest.fixture
def nan_synthesis_at_step_2(monkeypatch):
    """The objective's synthesis term turns NaN on its second evaluation,
    which at batch 1 is the second optimizer step."""
    calls = []

    def total_loss(terms, weights):
        calls.append(None)
        if len(calls) == 2:
            terms = {**terms, "synthesis": Tensor(np.nan)}
        return losses.total_loss(terms, weights)

    monkeypatch.setattr(train_module, "total_loss", total_loss)


def _parameters(path):
    model, step = load_model(path, (16, 16))
    return {name: p.data for name, p in model.named_parameters()}, step


@pytest.mark.parametrize("missing", ["labels", "depths"])
def test_a_scene_without_depths_or_labels_is_refused_before_anything_is_built(scene, tmp_path, monkeypatch, missing):
    lacking = dataclasses.replace(scene, **{missing: None})
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    monkeypatch.setattr(train_module, "ModelBundle", None)  # building one fails
    with pytest.raises(ValueError, match=f"scene has no {missing}: training reads depth and label rasters"):
        train(lacking, TrainConfig(**SMALL), log_path=tmp_path / "train.log", checkpoint_path=tmp_path / "model.npz")
    assert list(tmp_path.iterdir()) == []  # no log, no checkpoint
    if missing == "depths":
        with pytest.raises(ValueError, match="scene has no depths: evaluation scores against depth rasters"):
            evaluate_scene(model, lacking)


def test_a_checkpoint_path_in_a_missing_directory_is_refused_before_any_step(scene, tmp_path):
    # the checkpoint and the divergence rescue would both be written there
    log = tmp_path / "train.log"
    missing = tmp_path / "nodir"
    with pytest.raises(ValueError, match=re.escape(f"checkpoint directory {missing} does not exist")):
        train(scene, TrainConfig(**SMALL), log_path=log, checkpoint_path=missing / "model.npz")
    assert not log.exists()
    assert not missing.exists()


@pytest.mark.parametrize("suffix", ["", ".tmp", ".last_good", ".last_good.tmp"], ids=["checkpoint", "tmp", "last_good", "last_good-tmp"])
def test_a_checkpoint_path_that_is_a_directory_is_refused_before_any_step(scene, tmp_path, suffix):
    # the checkpoint, the divergence rescue, or the temporary file either is
    # written through: saving over a directory would fail only after the
    # last epoch, losing the run, or in place of reporting the divergence
    log = tmp_path / "train.log"
    checkpoint = tmp_path / "model.npz"
    directory = tmp_path / f"model.npz{suffix}"
    directory.mkdir()
    with pytest.raises(ValueError, match=re.escape(f"checkpoint path {directory} is a directory")):
        train(scene, TrainConfig(**SMALL), log_path=log, checkpoint_path=checkpoint)
    assert not log.exists()
    assert list(directory.iterdir()) == []
    assert [p.name for p in tmp_path.iterdir()] == [directory.name]


def test_divergence_leaves_the_state_after_the_last_good_step(scene, tmp_path, nan_synthesis_at_step_2):
    checkpoint = tmp_path / "model.npz"
    with pytest.raises(TrainingDiverged, match="synthesis"):
        train(scene, TrainConfig(**SMALL), checkpoint_path=checkpoint)
    assert not checkpoint.exists()
    rescued, step = _parameters(f"{checkpoint}.last_good")
    assert step == 1

    # three frames leave target 1 alone, so one epoch is exactly the first step
    first_only = dataclasses.replace(
        scene,
        trajectory=Trajectory(scene.trajectory.indices[:3], scene.trajectory.poses[:3]),
        **{name: getattr(scene, name)[:3] for name in ("frames", "depths", "labels", "reflectance", "shading")},
    )
    reference = tmp_path / "one_step.npz"
    train(first_only, TrainConfig(**{**SMALL, "epochs": 1}), checkpoint_path=reference)
    expected, _ = _parameters(reference)
    assert rescued.keys() == expected.keys()
    for name in expected:
        np.testing.assert_array_equal(rescued[name], expected[name], err_msg=name)


def test_divergence_mid_batch_leaves_the_state_before_the_step(scene8, tmp_path, nan_synthesis_at_step_2):
    # batch 3: the second target of the first step turns NaN after the first
    # target's backward has already added into the gradients
    config = TrainConfig(**SMALL, batch_size=3)
    checkpoint = tmp_path / "model.npz"
    with pytest.raises(TrainingDiverged, match="after 0 good steps"):
        train(scene8, config, checkpoint_path=checkpoint)
    rescued, step = _parameters(f"{checkpoint}.last_good")
    assert step == 0
    initial = dict(ModelBundle(config, (16, 16)).named_parameters())
    assert rescued.keys() == initial.keys()
    for name, p in initial.items():
        np.testing.assert_array_equal(rescued[name], p.data, err_msg=name)


def test_cli_reports_divergence_as_a_runtime_failure(scene, tmp_path, capsys, nan_synthesis_at_step_2):
    write_scene(tmp_path / "scene", scene)
    checkpoint = tmp_path / "model.npz"
    small = ["embed_dim=32", "depth_blocks=1", "mixer_after=1", "rank=2", "epochs=2"]  # SMALL
    argv = ["train", "--scene", str(tmp_path / "scene"), "--checkpoint", str(checkpoint)]
    argv += [arg for item in small for arg in ("--set", item)]

    assert cli.main(argv) == 1
    assert "diverged" in capsys.readouterr().err
    assert load_model(f"{checkpoint}.last_good", (16, 16))[1] == 1


def test_a_frozen_tensor_changed_during_an_epoch_is_named(scene, monkeypatch):
    original = train_module._optimizer_step

    def optimizer_step(model, *args):
        parts = original(model, *args)
        dict(model.named_parameters())["depth.embed.weight"].data += 1.0
        return parts

    monkeypatch.setattr(train_module, "_optimizer_step", optimizer_step)
    message = "frozen parameters mutated during epoch 1: ['depth.embed.weight']"
    with pytest.raises(RuntimeError, match=re.escape(message) + "$"):
        train(scene, TrainConfig(**SMALL))


def test_an_empty_validity_mask_names_the_median_depth_and_each_translation(scene, monkeypatch):
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    # a sideways move of 100 units carries every target point out of a 16-pixel view
    monkeypatch.setattr(model, "pose", lambda img_t, img_s: (Tensor(np.eye(3)), Tensor([100.0, 0.0, 0.0])))
    with ad.no_grad():
        median = lower_median_loops(model.depth(Tensor(scene.frames[1])).data.ravel())
    message = f"empty validity mask: median predicted depth {median:.4g}, source 0 |t| 100, source 2 |t| 100"
    with pytest.raises(TrainingDiverged, match=re.escape(message) + "$"):
        step_loss(model, scene, 1, train_module._FrameCache(model, scene, [1]))


@pytest.mark.parametrize(
    "bias, message",
    [
        # a NaN disparity logit makes every depth NaN: the warp marks every sample
        # invalid, and the step raises TrainingDiverged rather than a ValueError
        ("depth.decoder.head.bias", "empty validity mask: median predicted depth nan, "),
        ("pose.head.bias", "^pose head produced non-finite output$"),
    ],
    ids=["depth", "pose"],
)
def test_a_non_finite_depth_or_pose_ends_as_training_diverged(scene, bias, message):
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    param = dict(model.named_parameters())[bias]
    param.assign(np.full_like(param.data, np.nan))
    with pytest.raises(TrainingDiverged, match=message):
        step_loss(model, scene, 1, train_module._FrameCache(model, scene, [1]))


def test_inference_without_a_graph_matches_grad_mode_bit_for_bit(scene):
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    frame, other = Tensor(scene.frames[1]), Tensor(scene.frames[2])
    graph = (model.depth(frame), *model.pose(frame, other))
    with ad.no_grad():
        plain = (model.depth(frame), *model.pose(frame, other))
    assert len(graph) == len(plain) == 3  # the depth, the pose's rotation and translation
    for g, p in zip(graph, plain):
        assert g.requires_grad and g._node is not None
        assert not p.requires_grad and p._node is None
        assert np.array_equal(p.data, g.data)


def test_inference_without_a_graph_peaks_lower():
    model = ModelBundle(TrainConfig(), (64, 64))
    image = Tensor(np.random.default_rng(5).uniform(size=(3, 64, 64)))

    def peak(no_grad):
        tracemalloc.start()
        try:
            if no_grad:
                with ad.no_grad():
                    model.depth(image)
            else:
                model.depth(image)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    with_graph = peak(no_grad=False)
    without = peak(no_grad=True)
    # the graph keeps every activation a closure reads until the output goes;
    # without it the forward holds a few layers' arrays at a time
    assert without < 0.5 * with_graph


def test_evaluate_scene_leaves_every_parameter_untouched():
    cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    evaluate_scene(model, generate_scene("two_spheres", 6, 0, cam))
    for name, p in model.named_parameters():
        assert p.grad is None and p._node is None, name


def test_predicted_trajectory_carries_the_scene_frame_ids(scene):
    model = ModelBundle(TrainConfig(**SMALL), (16, 16))
    renumbered = dataclasses.replace(scene, trajectory=Trajectory((1, 2, 3, 4), scene.trajectory.poses))
    assert predicted_trajectory(model, renumbered).indices == (1, 2, 3, 4)
