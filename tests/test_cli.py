"""Command-line entry point, called in-process through cli.main(argv)."""

from depthlab import cli
from depthlab.config import TrainConfig
from depthlab.formats import write_scene
from depthlab.geometry import CameraModel
from depthlab.scene import generate_scene
from depthlab.train import ModelBundle, save_model


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
    }
    assert set(cases.values()) == {"ok"}
    assert lines[-1].startswith("worst: ")


def _full_model_counts(capsys, mode: str) -> tuple[int, int]:
    assert cli.main(["params", "--set", f"adapter={mode}", "--size", "16"]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("full_model")]
    fields = dict(field.split("=") for field in line.split("\t")[1:])
    return int(fields["trainable"]), int(fields["total"])


def test_params_counts_adapter_parameters(capsys):
    none, plain, scaled = (_full_model_counts(capsys, mode) for mode in ("none", "plain", "scaled"))
    # 4 blocks x 2 MLP linears (896x224 and 224x896) at rank 4: r(m + n) trainable
    # per linear, plus r + m frozen scales for the scaled adapter
    assert plain[0] - none[0] == 4 * 2 * 4 * (896 + 224) == 35_840
    assert scaled[0] == plain[0]
    assert scaled[1] - plain[1] == 4 * ((4 + 896) + (4 + 224)) == 4_512


def test_eval_pose_gt_trajectory_file_matches_scene_path(tmp_path, capsys):
    cam = CameraModel(fx=16.0, fy=16.0, cx=7.5, cy=7.5, width=16, height=16)
    scene_dir = tmp_path / "scene"
    write_scene(scene_dir, generate_scene("two_spheres", 6, 0, cam))
    config = TrainConfig(embed_dim=32, depth_blocks=1, mixer_after=(1,), rank=2)
    checkpoint = tmp_path / "model.npz"
    save_model(checkpoint, ModelBundle(config, (16, 16)), config, 0)
    argv = ["eval-pose", "--checkpoint", str(checkpoint), "--scene", str(scene_dir)]

    assert cli.main(argv) == 0
    from_scene = capsys.readouterr().out
    assert cli.main(argv + ["--gt-trajectory", str(scene_dir / "trajectory.txt")]) == 0
    from_file = capsys.readouterr().out
    assert from_file == from_scene
    assert from_scene.splitlines()[0] == "segment\tate" and from_scene.splitlines()[-1].startswith("mean\t")
