"""Command-line interface.

Subcommands: gen-scene, train, eval-depth, eval-pose, params, report.
gen-scene renders a square scene whose camera has fx = fy = --size and its
principal point at the image centre; params prints the trainable and
total counts, which no image size changes; report prints a tab-separated
table.
Exit codes: 0 success, 2 validation failure (bad arguments, a missing
path or one of the wrong kind, a malformed config, scene or checkpoint
file, shape mismatches), 1 runtime error. A diverged training run is a
runtime error: it exits 1 and leaves the last good state in
``<checkpoint>.last_good``. The train and params configs layer the
--config file, then --set overrides: a --set beats a file line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .blocks import PATCH
from .config import TrainConfig, config_to_text, load_config, parse_config_text
from .evalmetrics import DEPTH_METRICS
from .formats import SceneOnDisk, write_scene
from .geometry import CameraModel
from .nn import trainable_param_count
from .scene import SCENE_KINDS, generate_scene
from .train import ModelBundle, evaluate_pose, evaluate_scene, load_model, train


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depthlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="render a synthetic scene to a directory")
    p.add_argument("--kind", choices=SCENE_KINDS, default="two_spheres")
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64, help="square image extent in pixels, also the focal length")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train on a scene directory")
    p.add_argument("--scene", required=True)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="config override")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--log", default=None, help="append one JSON record per epoch")

    p = sub.add_parser("eval-depth", help="depth metrics of a checkpoint on a scene")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)

    p = sub.add_parser("eval-pose", help="5-frame-segment trajectory error against the scene's trajectory")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)

    p = sub.add_parser("params", help="trainable/total parameter counts of the model, the same at every image size")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")

    p = sub.add_parser("report", help="aggregate a training log into a tab-separated table")
    p.add_argument("--log", required=True)
    return parser


def _load_cli_config(args) -> TrainConfig:
    """The --config file (or the defaults) as base, with the --set items
    parsed over it as config lines: a key set twice is refused."""
    base = load_config(args.config) if args.config else TrainConfig()
    return parse_config_text("\n".join(args.set), base)


def _cmd_gen_scene(args) -> int:
    size = args.size
    cam = CameraModel(fx=float(size), fy=float(size), cx=(size - 1) / 2.0, cy=(size - 1) / 2.0, width=size, height=size)
    scene = generate_scene(args.kind, args.frames, args.seed, cam)
    write_scene(args.out, scene)
    print(f"wrote {args.frames}-frame {args.kind} scene to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cli_config(args)
    scene = SceneOnDisk(args.scene)
    model, records = train(scene, cfg, log_path=args.log, checkpoint_path=args.checkpoint)
    last = records[-1]
    print(f"trained {last.step} steps over {last.epoch} epochs; final val abs_rel {last.val_abs_rel:.4f}")
    print(f"checkpoint: {args.checkpoint}")
    print("config used:")
    sys.stdout.write(config_to_text(cfg))
    return 0


def _cmd_eval_depth(args) -> int:
    scene = SceneOnDisk(args.scene)
    model, _ = load_model(args.checkpoint, image_hw=(scene.cam.height, scene.cam.width))
    reports, aggregate, (ate_mean, _) = evaluate_scene(model, scene)
    print("\t".join(["frame", *DEPTH_METRICS, "f_scale"]))
    for frame_id, rep in zip(scene.trajectory.indices, reports):
        row = [str(frame_id)] + [f"{getattr(rep, key):.6f}" for key in (*DEPTH_METRICS, "f_scale")]
        print("\t".join(row))
    mean_row = ["mean"] + [f"{aggregate[key]:.6f}" for key in DEPTH_METRICS] + ["-"]
    print("\t".join(mean_row))
    print("ate_5frame\t-" if ate_mean is None else f"ate_5frame\t{ate_mean:.6f}")
    return 0


def _cmd_eval_pose(args) -> int:
    scene = SceneOnDisk(args.scene)
    model, _ = load_model(args.checkpoint, image_hw=(scene.cam.height, scene.cam.width))
    mean, segments = evaluate_pose(model, scene)
    print("segment\tate")
    for i, seg in enumerate(segments):
        print(f"{i}\t{seg:.6f}")
    print(f"mean\t{mean:.6f}")
    return 0


def _cmd_params(args) -> int:
    cfg = _load_cli_config(args)
    model = ModelBundle(cfg, (PATCH, PATCH))  # no parameter depends on the image size
    for name, module in [("depth_net", model.depth), ("pose_net", model.pose), ("decomposition", model.decomp), ("full_model", model)]:
        trainable, total = trainable_param_count(module)
        ratio = trainable / total if total else 0.0
        print(f"{name}\ttrainable={trainable}\ttotal={total}\tratio={ratio:.4%}")
    return 0


def _cmd_report(args) -> int:
    rows = []
    with open(args.log, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError:
                row = None
            if not isinstance(row, dict):
                raise ValueError(f"log file {args.log} line {number} is not a JSON object")
            for key, value in row.items():
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise ValueError(f"log file {args.log} line {number} key {key!r} is not a real number: {value!r}")
            rows.append(row)
    if not rows:
        raise ValueError(f"log file {args.log} holds no records")
    keys = list(dict.fromkeys(key for row in rows for key in row))  # every record's keys, first seen first
    print("\t".join(keys))
    for row in rows:
        print("\t".join(f"{row.get(key, float('nan')):.8g}" for key in keys))
    return 0


_COMMANDS = {
    "gen-scene": _cmd_gen_scene,
    "train": _cmd_train,
    "eval-depth": _cmd_eval_depth,
    "eval-pose": _cmd_eval_pose,
    "params": _cmd_params,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
