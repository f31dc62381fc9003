"""Command-line entry point, called in-process through cli.main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import depthlab
from depthlab import cli
from depthlab.config import TrainConfig
from depthlab.formats import SceneOnDisk, write_scene
from depthlab.geometry import CameraModel
from depthlab.scene import generate_scene
from depthlab.train import ModelBundle, load_model, save_model

from oracles import _edit_checkpoint, header_edit, shift_frame_ids, with_second_entry


def test_package_and_cli_import_numpy_but_no_scipy():
    # a fresh interpreter, so no module another test imported counts
    src = str(Path(depthlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, depthlab, depthlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def _full_model_counts(capsys, *args: str) -> tuple[int, int]:
    assert cli.main(["params", *args]) == 0
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
    assert cli.main(["params", "--set", "mixer_after=2,2"]) == 2
    assert "repeat" in capsys.readouterr().err


@pytest.mark.parametrize("depth_blocks", ["0", "-3"])
def test_params_rejects_depth_blocks_below_one(capsys, depth_blocks):
    assert cli.main(["params", "--set", f"depth_blocks={depth_blocks}", "--set", "mixer_after="]) == 2
    assert f"depth_blocks must be >= 1, got {depth_blocks}" in capsys.readouterr().err


def test_params_names_embed_dim_when_the_heads_do_not_divide_it(capsys):
    assert cli.main(["params", "--set", "embed_dim=30", "--set", "mixer_after="]) == 2
    assert "embed_dim must be a multiple of 4, the head count, got 30" in capsys.readouterr().err


def test_params_names_a_rank_below_one_even_without_adapters(capsys):
    assert cli.main(["params", "--set", "rank=-1", "--set", "adapter=none"]) == 2
    assert "rank must be >= 1, got -1" in capsys.readouterr().err


def test_params_names_a_negative_seed(capsys):
    assert cli.main(["params", "--set", "seed=-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err


def test_gen_scene_writes_a_scene_directory(tmp_path, capsys):
    out = tmp_path / "scene"
    assert cli.main(["gen-scene", "--size", "16", "--frames", "3", "--out", str(out)]) == 0
    assert "wrote 3-frame two_spheres scene" in capsys.readouterr().out
    scene = SceneOnDisk(out)
    assert len(scene) == 3 and (scene.cam.fx, scene.cam.width) == (16.0, 16)


def test_gen_scene_refuses_a_directory_holding_a_frame_the_scene_lacks(tmp_path, capsys):
    out = tmp_path / "scene"
    assert cli.main(["gen-scene", "--size", "16", "--frames", "6", "--out", str(out)]) == 0
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert cli.main(["gen-scene", "--size", "16", "--frames", "6", "--out", str(out)]) == 0  # the same ids
    capsys.readouterr()

    assert cli.main(["gen-scene", "--size", "16", "--frames", "5", "--out", str(out)]) == 2
    assert "holds frame_005.ppm, a frame this scene lacks" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before  # nothing was written
    assert len(SceneOnDisk(out)) == 6


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--size", "0", "image size must be at least 1x1 pixel, got 0x0"),
        ("--size", "-8", "image size must be at least 1x1 pixel, got -8x-8"),
        ("--frames", "2", "need at least 3 frames, got 2"),
    ],
    ids=["size-0", "size-minus-8", "frames-2"],
)
def test_gen_scene_rejects_a_size_or_frame_count_below_its_minimum(tmp_path, capsys, option, value, named):
    out = tmp_path / "scene"
    assert cli.main(["gen-scene", "--size", "16", "--frames", "3", option, value, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def _scene_dir(tmp_path):
    cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    scene_dir = tmp_path / "scene"
    write_scene(scene_dir, generate_scene("two_spheres", 6, 0, cam))
    return scene_dir


def _untrained_checkpoint(tmp_path, edit=None):
    """A small untrained model's checkpoint; `edit`, if given, rewrites its
    header as `oracles._edit_checkpoint` hands it over."""
    config = TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2)
    checkpoint = tmp_path / "model.npz"
    save_model(checkpoint, ModelBundle(config, (16, 16)), config, 0)
    if edit is not None:
        _edit_checkpoint(checkpoint, checkpoint, edit)
    return checkpoint


def _small(*pairs: str) -> list[str]:
    """--set arguments for the small model `_untrained_checkpoint` builds, then `pairs`."""
    return [arg for pair in ["embed_dim=32", "depth_blocks=1", "mixer_after=1", "rank=2", *pairs] for arg in ("--set", pair)]


def test_eval_pose_rejects_a_scene_trajectory_on_other_frames(tmp_path, capsys):
    scene_dir = _scene_dir(tmp_path)
    trajectory = scene_dir / "trajectory.txt"
    lines = trajectory.read_text().splitlines()
    trajectory.write_text("".join(f"{2 * k} {line.split(maxsplit=1)[1]}\n" for k, line in enumerate(lines)))
    argv = ["eval-pose", "--checkpoint", str(_untrained_checkpoint(tmp_path)), "--scene", str(scene_dir)]

    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "indices (0, 2, 4, 6, 8, 10) differ from frame ids (0, 1, 2, 3, 4, 5)" in captured.err
    assert captured.out == ""


def test_eval_pose_reports_a_non_finite_pose_as_a_runtime_failure(tmp_path, capsys):
    config = TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2)
    model = ModelBundle(config, (16, 16))
    model.pose.head.bias.assign(np.full_like(model.pose.head.bias.data, np.nan))
    checkpoint = tmp_path / "nan_pose.npz"
    save_model(checkpoint, model, config, 0)
    assert cli.main(["eval-pose", "--checkpoint", str(checkpoint), "--scene", str(_scene_dir(tmp_path))]) == 1
    captured = capsys.readouterr()
    assert captured.err == "runtime error: pose head produced non-finite output\n"
    assert captured.out == ""


def test_a_scene_numbered_from_one_keeps_its_ids(tmp_path, capsys):
    scene_dir = _scene_dir(tmp_path)
    checkpoint = str(_untrained_checkpoint(tmp_path))
    pose = ["eval-pose", "--checkpoint", checkpoint, "--scene", str(scene_dir)]
    assert cli.main(pose) == 0
    numbered_from_zero = capsys.readouterr().out
    header, *_, mean = numbered_from_zero.splitlines()
    assert header == "segment\tate" and mean.startswith("mean\t")
    shift_frame_ids(scene_dir, 1)

    assert cli.main(pose) == 0
    assert capsys.readouterr().out == numbered_from_zero

    assert cli.main(["eval-depth", "--checkpoint", checkpoint, "--scene", str(scene_dir)]) == 0
    _, *rows, _, _ = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == ["1", "2", "3", "4", "5", "6"]

    out = tmp_path / "written_back"
    write_scene(out, SceneOnDisk(scene_dir))
    assert sorted(p.name for p in out.glob("frame_*.ppm")) == [f"frame_{k:03d}.ppm" for k in range(1, 7)]
    assert [line.split()[0] for line in (out / "trajectory.txt").read_text().splitlines()] == ["1", "2", "3", "4", "5", "6"]


# settings that were once TrainConfig fields and are now fixed in code, each
# at the one value it is fixed at: naming one is naming no field, even at that value
FORMER_KEYS = {
    "init": "kaiming_uniform",
    "patch": 8,
    "adam_beta1": 0.9,
    "adam_beta2": 0.999,
    "adam_eps": 1e-08,
    "alpha": 0.85,
    "lr_decay_epoch": 0,
    "loss_scales": 1,
    "heads": 4,
    "d_min": 0.1,
    "d_max": 100.0,
    "w_reconstruction": 0.2,
    "w_reflectance": 0.2,
    "w_synthesis": 1.0,
}


@pytest.mark.parametrize("source", ["set", "config-file", "header"])
@pytest.mark.parametrize("key", FORMER_KEYS)
def test_a_former_config_key_is_unknown_wherever_it_comes_in(tmp_path, capsys, key, source):
    unknown = f"unknown config key '{key}'"
    if source == "header":
        old = _untrained_checkpoint(tmp_path, header_edit("config", key, value=FORMER_KEYS[key]))
        with pytest.raises(ValueError, match=unknown):
            load_model(old, (16, 16))
        return
    pair = f"{key}={FORMER_KEYS[key]}"
    if source == "config-file":
        (tmp_path / "run.cfg").write_text(pair + "\n")
        args = ["--config", str(tmp_path / "run.cfg")]
    else:
        args = ["--set", pair]
    assert cli.main(["params", *args]) == 2
    captured = capsys.readouterr()
    assert unknown in captured.err and captured.out == ""


def test_set_beats_a_config_file_line(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("adapter=none\nrank=2\n")
    from_file = _full_model_counts(capsys, "--config", str(config))
    assert from_file == _full_model_counts(capsys, "--set", "adapter=none", "--set", "rank=2")
    overridden = _full_model_counts(capsys, "--config", str(config), "--set", "adapter=plain")
    assert overridden == _full_model_counts(capsys, "--set", "adapter=plain", "--set", "rank=2")
    assert overridden != from_file


def test_a_key_set_twice_on_the_command_line_is_refused(capsys):
    assert cli.main(["params", "--set", "adapter=none", "--set", "adapter=plain"]) == 2
    assert "config key 'adapter' is set on both" in capsys.readouterr().err


def test_an_environment_variable_leaves_the_config_alone(capsys, monkeypatch):
    assert cli.main(["params"]) == 0
    default = capsys.readouterr().out
    monkeypatch.setenv("DEPTHLAB_ADAPTER", "none")
    assert cli.main(["params"]) == 0
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


@pytest.mark.parametrize(
    "argv, wrong, message",
    [
        ("gen-scene --size 16 --frames 3 --out wrong", "file", "scene path wrong is not a directory"),
        ("train --scene scene --checkpoint wrong --log train.log", "directory", "checkpoint path wrong is a directory"),
        ("train --scene scene --checkpoint m.ckpt --log wrong", "directory", "Is a directory: 'wrong'"),
        ("train --scene scene --checkpoint wrong/m.ckpt --log train.log", None, "wrong does not exist"),
        ("train --scene scene --checkpoint wrong/m.ckpt --log train.log", "file", "wrong is not a directory"),
        ("eval-depth --checkpoint wrong --scene scene", "directory", "Is a directory: 'wrong'"),
        ("eval-depth --checkpoint model.npz --scene wrong", "file", "scene path wrong is not a directory"),
        ("report --log wrong", "directory", "Is a directory: 'wrong'"),
    ],
    ids=[
        "gen-scene-out", "train-checkpoint", "train-log", "train-checkpoint-nodir", "train-checkpoint-filedir",
        "eval-depth-checkpoint", "eval-depth-scene", "report-log",
    ],
)
def test_a_path_of_the_wrong_kind_is_a_validation_failure(tmp_path, monkeypatch, capsys, argv, wrong, message):
    _scene_dir(tmp_path)
    _untrained_checkpoint(tmp_path)
    monkeypatch.chdir(tmp_path)
    if wrong == "directory":
        Path("wrong").mkdir()
    elif wrong == "file":
        Path("wrong").write_text("")
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n")
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # nothing written, no log either


@pytest.mark.parametrize(
    "size, message",
    [("4", "image 4x4 is smaller than one 8x8 patch"), ("12", "image 12x12 not divisible by patch 8")],
    ids=["4x4", "12x12"],
)
def test_train_refuses_a_scene_the_patch_grid_does_not_fit(tmp_path, monkeypatch, capsys, size, message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["gen-scene", "--size", size, "--frames", "3", "--out", "scene"]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--scene", "scene", "--checkpoint", "m.ckpt", "--log", "train.log"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert [p.name for p in tmp_path.iterdir()] == ["scene"]


@pytest.mark.parametrize("suffix", [".tmp", ".last_good", ".last_good.tmp"], ids=["tmp", "last_good", "last_good-tmp"])
def test_train_refuses_a_directory_at_a_temporary_or_rescue_path(tmp_path, monkeypatch, capsys, suffix):
    # the save goes through m.ckpt.tmp and the divergence rescue through
    # m.ckpt.last_good(.tmp): a directory there is refused before any step
    _scene_dir(tmp_path)
    monkeypatch.chdir(tmp_path)
    Path(f"m.ckpt{suffix}").mkdir()
    assert cli.main(["train", "--scene", "scene", "--checkpoint", "m.ckpt", "--log", "train.log"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: checkpoint path m.ckpt{suffix} is a directory\n"
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([f"m.ckpt{suffix}", "scene"])


def test_report_on_an_empty_log_is_a_validation_failure(tmp_path, capsys):
    log = tmp_path / "train.log"
    log.write_text("")
    assert cli.main(["report", "--log", str(log)]) == 2
    assert "holds no records" in capsys.readouterr().err


def test_train_log_then_report_prints_one_row_per_epoch(tmp_path, capsys):
    scene_dir = _scene_dir(tmp_path)
    log = tmp_path / "train.log"
    argv = ["train", "--scene", str(scene_dir), "--checkpoint", str(tmp_path / "m.ckpt"), "--log", str(log)]
    assert cli.main(argv + _small("epochs=2")) == 0
    capsys.readouterr()

    assert cli.main(["report", "--log", str(log)]) == 0
    header, *rows = capsys.readouterr().out.splitlines()
    assert header.split("\t") == [
        "epoch", "step", "lr", "loss", "reconstruction", "reflectance", "synthesis", "smoothness", "val_abs_rel"
    ]
    assert [row.split("\t")[:2] for row in rows] == [["1", "4"], ["2", "8"]]  # 4 targets per epoch, batch 1


@pytest.mark.parametrize(
    "variant, steps",
    [
        (["batch_size=4", "source_aggregation=min"], 1),  # targets 1-4 in one step
        (["batch_size=2", "triplet_stride=2"], 1),  # targets 2 and 3 share no frame
        (["bypass_decomposition=True"], 4),
        (["adapter=plain"], 4),
    ],
    ids=["batch-4-min", "batch-2-stride-2", "bypass", "plain-adapter"],
)
def test_a_training_variant_trains_then_evaluates(tmp_path, capsys, variant, steps):
    scene_dir, checkpoint = str(_scene_dir(tmp_path)), str(tmp_path / "m.ckpt")
    assert cli.main(["train", "--scene", scene_dir, "--checkpoint", checkpoint, *_small("epochs=1", *variant)]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"trained {steps} steps over 1 epochs")
    assert all(f"\n{pair}\n" in out for pair in variant)  # the config used, as printed
    for command in ("eval-depth", "eval-pose"):
        assert cli.main([command, "--checkpoint", checkpoint, "--scene", scene_dir]) == 0
    assert capsys.readouterr().err == ""


def test_eval_depth_prints_frames_mean_and_ate(tmp_path, capsys):
    argv = ["eval-depth", "--checkpoint", str(_untrained_checkpoint(tmp_path)), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 0
    header, *rows, mean, ate = capsys.readouterr().out.splitlines()
    assert header.split("\t")[:2] == ["frame", "abs_rel"]
    assert [row.split("\t")[0] for row in rows] == ["0", "1", "2", "3", "4", "5"]
    assert mean.split("\t")[0] == "mean" and mean.split("\t")[-1] == "-"
    assert ate.split("\t")[0] == "ate_5frame" and float(ate.split("\t")[1]) >= 0.0


def test_a_four_frame_scene_gets_depth_rows_without_an_ate(tmp_path, capsys):
    scene_dir, checkpoint = tmp_path / "scene", str(tmp_path / "m.ckpt")
    assert cli.main(["gen-scene", "--size", "16", "--frames", "4", "--out", str(scene_dir)]) == 0
    assert cli.main(["train", "--scene", str(scene_dir), "--checkpoint", checkpoint, *_small("epochs=1")]) == 0
    capsys.readouterr()

    assert cli.main(["eval-depth", "--checkpoint", checkpoint, "--scene", str(scene_dir)]) == 0
    _, *rows, mean, ate = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in rows] == ["0", "1", "2", "3"]
    assert mean.split("\t")[0] == "mean"
    assert ate == "ate_5frame\t-"
    # a pose score needs a 5-frame window: eval-pose still refuses
    assert cli.main(["eval-pose", "--checkpoint", checkpoint, "--scene", str(scene_dir)]) == 2
    assert "need at least 5 poses, got 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, name, damage, message",
    [
        ("eval-depth", "model.npz", lambda b: b[:-8], "checkpoint truncated while reading 'decomp.shading_head.bias'"),
        ("eval-depth", "scene/labels_002.pgm", lambda b: b[:-5], "{path} truncated: expected 256 bytes, got 251"),
        ("eval-depth", "scene/depth_000.pfm", lambda b: b"Pf\n16 x" + b[8:], "{path}: invalid literal for int() with base 10: 'x'"),
        (
            "eval-pose",
            "scene/trajectory.txt",
            lambda b: b"0 0 0 0 0 0 0 0" + b[b.index(b"\n") :],
            "{path} line 1: quaternion norm 0.0 is not a positive finite number",
        ),
        (
            "eval-pose",
            "scene/trajectory.txt",
            lambda b: b"0 nan 0 0 1 0 0 0" + b[b.index(b"\n") :],
            "{path} line 1: translation must be finite, got [nan  0.  0.]",
        ),
    ],
    ids=["checkpoint-cut", "labels-cut", "depth-size-line", "zero-quaternion", "nan-translation"],
)
def test_a_malformed_scene_or_checkpoint_file_is_refused_by_name(tmp_path, capsys, command, name, damage, message):
    scene_dir, checkpoint, path = _scene_dir(tmp_path), _untrained_checkpoint(tmp_path), tmp_path / name
    path.write_bytes(damage(path.read_bytes()))
    assert cli.main([command, "--checkpoint", str(checkpoint), "--scene", str(scene_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message.format(path=path)}\n"
    assert captured.out == ""


def test_eval_depth_rejects_a_checkpoint_whose_frozen_flags_disagree(tmp_path, capsys):
    def flip(header):
        for entry in header["tensors"]:
            entry["frozen"] = not entry["frozen"]
        return b""

    checkpoint = _untrained_checkpoint(tmp_path, flip)
    argv = ["eval-depth", "--checkpoint", str(checkpoint), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 2
    assert "'depth.embed.weight' frozen flag" in capsys.readouterr().err


def test_eval_depth_rejects_a_checkpoint_tensor_the_model_lacks(tmp_path, capsys):
    def add_bogus(header):
        header["tensors"].append({"name": "depth.bogus", "shape": [3], "frozen": False})
        return np.zeros(3).tobytes()

    checkpoint = _untrained_checkpoint(tmp_path, add_bogus)
    argv = ["eval-depth", "--checkpoint", str(checkpoint), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 2
    assert "'depth.bogus' is not in the model" in capsys.readouterr().err


def test_a_checkpoint_naming_a_tensor_twice_is_refused(tmp_path, capsys):
    # a second copy, unlike the first, must not silently win
    saved = _untrained_checkpoint(tmp_path)
    checkpoint = tmp_path / "twice.npz"
    first = dict(load_model(saved, (16, 16))[0].named_parameters())["depth.embed.weight"].data
    with_second_entry(saved, checkpoint, "depth.embed.weight", first + 1.0)
    with pytest.raises(ValueError, match="checkpoint names tensor 'depth.embed.weight' twice"):
        load_model(checkpoint, (16, 16))
    argv = ["eval-depth", "--checkpoint", str(checkpoint), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 2
    assert "'depth.embed.weight' twice" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["config", "step", "tensors"])
def test_a_checkpoint_header_lacking_a_key_is_refused(tmp_path, capsys, key):
    argv = ["eval-depth", "--checkpoint", str(_untrained_checkpoint(tmp_path, header_edit(key))), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: checkpoint header lacks '{key}'\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        (header_edit("config", value=[]), "checkpoint header 'config' is not a JSON object"),
        (header_edit("step", value="0"), "checkpoint header 'step' is not a non-negative integer"),
        (header_edit("tensors", value={}), "checkpoint header 'tensors' is not a JSON list"),
        (header_edit("tensors", 0, value="depth.embed.weight"), "checkpoint tensor entry 0 is not a JSON object"),
        (header_edit("tensors", 1, "name"), "checkpoint tensor entry 1 lacks 'name'"),
        (header_edit("tensors", 1, "shape"), "checkpoint tensor entry 1 lacks 'shape'"),
        (header_edit("tensors", 1, "frozen"), "checkpoint tensor entry 1 lacks 'frozen'"),
        (header_edit("tensors", 1, "name", value=7), "checkpoint tensor entry 1 'name' is not a string"),
        (header_edit("tensors", 1, "shape", value="3"), "checkpoint tensor entry 1 'shape' is not a list of non-negative integers"),
        (header_edit("tensors", 1, "shape", value=[-1]), "checkpoint tensor entry 1 'shape' is not a list of non-negative integers"),
        (header_edit("tensors", 1, "shape", value=[True]), "checkpoint tensor entry 1 'shape' is not a list of non-negative integers"),
        (header_edit("tensors", 1, "frozen", value=0), "checkpoint tensor entry 1 'frozen' is not a boolean"),
    ],
    ids=[
        "config-list", "step-string", "tensors-object", "entry-string", "entry-lacks-name", "entry-lacks-shape",
        "entry-lacks-frozen", "name-number", "shape-string", "shape-negative", "shape-boolean", "frozen-number",
    ],
)
def test_a_checkpoint_header_value_of_a_wrong_type_is_refused(tmp_path, capsys, edit, message):
    argv = ["eval-depth", "--checkpoint", str(_untrained_checkpoint(tmp_path, edit)), "--scene", str(_scene_dir(tmp_path))]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_report_on_a_malformed_line_is_a_validation_failure(tmp_path, capsys):
    log = tmp_path / "train.log"
    # not JSON; JSON but not an object; an object, then a number: each is
    # refused, naming its line, before anything is printed
    for text, number in [("epoch=1 step=4\n", 1), ("[1, 2]\n", 1), ('{"a": 1}\n7\n', 2)]:
        log.write_text(text)
        assert cli.main(["report", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: log file {log} line {number} is not a JSON object\n"
        assert captured.out == ""


def test_report_on_a_value_that_is_not_a_real_number_is_a_validation_failure(tmp_path, capsys):
    log = tmp_path / "train.log"
    # every value is checked before anything is printed, so a bad one on a
    # later line leaves stdout empty too
    for text, number, key, value in [
        ('{"a": [1]}\n', 1, "a", "[1]"),
        ('{"a": "x"}\n', 1, "a", "'x'"),
        ('{"a": true}\n', 1, "a", "True"),
        ('{"a": 1, "b": 2}\n{"a": 1, "b": null}\n', 2, "b", "None"),
    ]:
        log.write_text(text)
        assert cli.main(["report", "--log", str(log)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: log file {log} line {number} key '{key}' is not a real number: {value}\n"
        assert captured.out == ""


def test_report_prints_every_records_keys_in_first_seen_order(tmp_path, capsys):
    log = tmp_path / "train.log"
    log.write_text('{"a": 1, "b": 2}\n{"c": 3.5, "a": 4}\n{"b": 5}\n')
    assert cli.main(["report", "--log", str(log)]) == 0
    assert capsys.readouterr().out.splitlines() == ["a\tb\tc", "1\t2\tnan", "4\tnan\t3.5", "nan\t5\tnan"]
