"""Command-line entry point, called in-process through cli.main(argv)."""

import numpy as np
import pytest

from depthlab import cli
from depthlab.checkpoint import save_checkpoint
from depthlab.config import TrainConfig
from depthlab.formats import write_scene
from depthlab.geometry import CameraModel
from depthlab.scene import generate_scene
from depthlab.train import ModelBundle


def test_gradcheck_passes_every_case(capsys):
    assert cli.main(["gradcheck"]) == 0
    lines = capsys.readouterr().out.splitlines()
    cases = {line.split()[0]: line.split()[-1] for line in lines[:-1]}
    assert set(cases) == {
        "mul+exp",
        "matmul",
        "conv2d",
        "conv2d_stride2",
        "depthwise",
        "softmax",
        "layer_norm",
        "bilinear_sample",
        "broadcast_mul",
    }
    assert set(cases.values()) == {"ok"}
    assert lines[-1].startswith("worst: ")


def _full_model_counts(capsys, *args: str) -> tuple[int, int]:
    assert cli.main(["params", "--size", "16", *args]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("full_model")]
    fields = dict(field.split("=") for field in line.split("\t")[1:])
    return int(fields["trainable"]), int(fields["total"])


def test_params_counts_adapter_parameters(capsys):
    none, plain, scaled = (_full_model_counts(capsys, "--set", f"adapter={mode}") for mode in ("none", "plain", "scaled"))
    # 4 blocks x 2 MLP linears (896x224 and 224x896) at rank 4: r(m + n) trainable
    # per linear, plus r + m frozen scales for the scaled adapter
    assert plain[0] - none[0] == 4 * 2 * 4 * (896 + 224) == 35_840
    assert scaled[0] == plain[0]
    assert scaled[1] - plain[1] == 4 * ((4 + 896) + (4 + 224)) == 4_512


def test_params_rejects_a_repeated_mixer_position(capsys):
    assert cli.main(["params", "--size", "64", "--set", "mixer_after=2,2"]) == 2
    assert "repeat" in capsys.readouterr().err


def test_params_rejects_a_patch_the_decoder_cannot_restore(capsys):
    assert cli.main(["params", "--size", "64", "--set", "patch=4"]) == 2
    assert "2x stages" in capsys.readouterr().err


def test_params_rejects_an_infinite_d_max(capsys):
    assert cli.main(["params", "--size", "16", "--set", "d_max=inf"]) == 2
    assert "d_max" in capsys.readouterr().err


@pytest.mark.parametrize("heads", ["0", "-4"])
def test_params_rejects_heads_below_one(capsys, heads):
    assert cli.main(["params", "--size", "16", "--set", f"heads={heads}"]) == 2
    assert "heads" in capsys.readouterr().err


def _scene_dir(tmp_path):
    cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    scene_dir = tmp_path / "scene"
    write_scene(scene_dir, generate_scene("two_spheres", 6, 0, cam))
    return scene_dir


def _untrained_checkpoint(tmp_path, edit=lambda named: named):
    """A small untrained model's checkpoint; `edit` may rewrite its
    (name, tensor, frozen) list before it is saved."""
    config = TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2)
    named = [(name, p, not p.requires_grad) for name, p in ModelBundle(config, (16, 16)).named_parameters()]
    checkpoint = tmp_path / "model.npz"
    save_checkpoint(checkpoint, edit(named), config, 0)
    return checkpoint


def test_eval_pose_gt_trajectory_file_matches_scene_path(tmp_path, capsys):
    scene_dir = _scene_dir(tmp_path)
    argv = ["eval-pose", "--checkpoint", str(_untrained_checkpoint(tmp_path)), "--scene", str(scene_dir)]

    assert cli.main(argv) == 0
    from_scene = capsys.readouterr().out
    assert cli.main(argv + ["--gt-trajectory", str(scene_dir / "trajectory.txt")]) == 0
    from_file = capsys.readouterr().out
    assert from_file == from_scene
    assert from_scene.splitlines()[0] == "segment\tate" and from_scene.splitlines()[-1].startswith("mean\t")


def test_set_beats_a_config_file_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("adapter=none\nrank=2\n")
    from_file = _full_model_counts(capsys, "--config", str(config))
    assert from_file == _full_model_counts(capsys, "--set", "adapter=none", "--set", "rank=2")
    overridden = _full_model_counts(capsys, "--config", str(config), "--set", "adapter=plain")
    assert overridden == _full_model_counts(capsys, "--set", "adapter=plain", "--set", "rank=2")
    assert overridden != from_file


def test_an_environment_variable_leaves_the_config_alone(capsys, monkeypatch):
    assert cli.main(["params", "--size", "16"]) == 0
    default = capsys.readouterr().out
    monkeypatch.setenv("DEPTHLAB_ADAPTER", "none")
    assert cli.main(["params", "--size", "16"]) == 0
    assert capsys.readouterr().out == default


def test_train_rejects_an_unknown_config_key(tmp_path, capsys):
    argv = ["train", "--scene", str(tmp_path), "--checkpoint", str(tmp_path / "m.ckpt"), "--set", "no_such_key=1"]
    assert cli.main(argv) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_train_rejects_a_nan_lr_before_any_step(tmp_path, capsys):
    scene_dir = _scene_dir(tmp_path)
    argv = ["train", "--scene", str(scene_dir), "--checkpoint", str(tmp_path / "m.ckpt"), "--set", "lr=nan"]
    assert cli.main(argv) == 2
    assert "lr" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scene"]


@pytest.mark.parametrize("pair", ["lr_decay=nan", "adam_beta1=1"])
def test_train_rejects_a_bad_optimizer_setting_before_any_step(tmp_path, capsys, pair):
    scene_dir = _scene_dir(tmp_path)
    argv = ["train", "--scene", str(scene_dir), "--checkpoint", str(tmp_path / "m.ckpt"), "--set", pair]
    assert cli.main(argv) == 2
    assert pair.split("=")[0] in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["scene"]


def test_report_on_an_empty_log_is_a_validation_failure(tmp_path, capsys):
    log = tmp_path / "train.log"
    log.write_text("")
    assert cli.main(["report", "--log", str(log)]) == 2
    assert "holds no records" in capsys.readouterr().err


def test_train_log_then_report_prints_one_row_per_epoch(tmp_path, capsys):
    scene_dir = _scene_dir(tmp_path)
    log = tmp_path / "train.log"
    small = ["embed_dim=32", "depth_blocks=1", "mixer_after=1", "rank=2", "epochs=2"]
    argv = ["train", "--scene", str(scene_dir), "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(log)]
    assert cli.main(argv + [arg for item in small for arg in ("--set", item)]) == 0
    capsys.readouterr()

    assert cli.main(["report", "--log", str(log)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split("\t") == [
        "epoch", "step", "lr", "loss", "reconstruction", "reflectance", "synthesis", "smoothness", "val_abs_rel"
    ]
    assert [row.split("\t")[:2] for row in rows] == [["1", "4"], ["2", "8"]]  # 4 targets per epoch, batch 1


def test_eval_depth_prints_frames_mean_and_ate(tmp_path, capsys):
    argv = ["eval-depth", "--checkpoint", str(_untrained_checkpoint(tmp_path)), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 0
    header, *rows, mean, ate = capsys.readouterr().out.splitlines()
    assert header.split("\t")[:2] == ["frame", "abs_rel"]
    assert [row.split("\t")[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]
    assert mean.split("\t")[0] == "mean" and mean.split("\t")[-1] == "-"
    assert ate.split("\t")[0] == "ate_5frame" and float(ate.split("\t")[1]) >= 0.0


def test_eval_depth_rejects_a_checkpoint_whose_frozen_flags_disagree(tmp_path, capsys):
    checkpoint = _untrained_checkpoint(tmp_path, lambda named: [(n, p, not frozen) for n, p, frozen in named])
    argv = ["eval-depth", "--checkpoint", str(checkpoint), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 2
    assert "'depth.embed.weight' frozen flag" in capsys.readouterr().err


def test_eval_depth_rejects_a_checkpoint_tensor_the_model_lacks(tmp_path, capsys):
    checkpoint = _untrained_checkpoint(tmp_path, lambda named: named + [("depth.bogus", np.zeros(3), False)])
    argv = ["eval-depth", "--checkpoint", str(checkpoint), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 2
    assert "'depth.bogus' is not in the model" in capsys.readouterr().err


def test_eval_depth_rejects_a_non_positive_cap(tmp_path, capsys):
    argv = ["eval-depth", "--checkpoint", str(_untrained_checkpoint(tmp_path)), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv + ["--cap", "-1"]) == 2
    assert "cap" in capsys.readouterr().err


def test_report_on_a_malformed_line_is_a_validation_failure(tmp_path, capsys):
    log = tmp_path / "train.log"
    log.write_text("epoch=1 step=4\n")
    assert cli.main(["report", "--log", str(log)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
