"""Command-line interface.

Subcommands: gen-scene, train, eval-depth, eval-pose, gradcheck, params,
report. Exit codes: 0 success, 2 validation failure (bad arguments,
malformed config, shape mismatches), 1 runtime error. A diverged training
run is a runtime error: it exits 1 and leaves the last good state in
``<checkpoint>.last_good``. The train and params configs layer the
--config file, then --set overrides: a --set beats a file line.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig, config_from_pairs, config_to_text, load_config
from .evalmetrics import DEPTH_CAP, ate_5frame
from .formats import SceneOnDisk, read_trajectory, write_scene
from .geometry import CameraModel
from .nn import trainable_param_count
from .scene import SCENE_KINDS, generate_scene
from .train import (
    ModelBundle,
    anchored_trajectory,
    evaluate_scene,
    load_model,
    predicted_trajectory,
    reference_trajectory,
    save_model,
    train,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="depthlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="render a synthetic scene to a directory")
    p.add_argument("--kind", choices=SCENE_KINDS, default="two_spheres")
    p.add_argument("--frames", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64, help="square image extent in pixels")
    p.add_argument("--focal", type=float, default=None, help="focal length in pixels (default: size)")
    p.add_argument("--shading", type=float, default=0.25, help="shading field strength (0 disables)")
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
    p.add_argument("--cap", type=float, default=DEPTH_CAP)

    p = sub.add_parser("eval-pose", help="5-frame-segment trajectory error of a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--gt-trajectory", default=None, help="trajectory file (default: scene's)")

    p = sub.add_parser("gradcheck", help="finite-difference checks over the autodiff ops")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-5)

    p = sub.add_parser("params", help="trainable/total parameter counts of the model")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--size", type=int, default=64)

    p = sub.add_parser("report", help="aggregate a training log into a delimited table")
    p.add_argument("--log", required=True)
    p.add_argument("--delimiter", default="\t")
    return parser


def _load_cli_config(args) -> TrainConfig:
    cfg = load_config(args.config) if args.config else TrainConfig()
    overrides = {}
    for item in args.set:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got '{item}'")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value
    if overrides:
        cfg = config_from_pairs(overrides, cfg)
    return cfg


def _cmd_gen_scene(args) -> int:
    size = args.size
    focal = args.focal if args.focal is not None else float(size)
    cam = CameraModel(fx=focal, fy=focal, cx=(size - 1) / 2.0, cy=(size - 1) / 2.0, width=size, height=size)
    scene = generate_scene(args.kind, args.frames, args.seed, cam, shading_strength=args.shading)
    write_scene(args.out, scene)
    print(f"wrote {args.frames}-frame {args.kind} scene to {args.out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_cli_config(args)
    scene = SceneOnDisk(args.scene)
    if scene.depths is None or scene.labels is None:
        raise ValueError(f"scene directory {args.scene} is missing depth or label rasters")
    model, records = train(scene, cfg, log_path=args.log, checkpoint_path=args.checkpoint)
    last = records[-1]
    print(f"trained {last.step} steps over {last.epoch} epochs; final val abs_rel {last.val_abs_rel:.4f}")
    print(f"checkpoint: {args.checkpoint}")
    print("config used:")
    sys.stdout.write(config_to_text(cfg))
    return 0


def _cmd_eval_depth(args) -> int:
    scene = SceneOnDisk(args.scene)
    if scene.depths is None:
        raise ValueError(f"scene directory {args.scene} has no depth rasters")
    model, _ = load_model(args.checkpoint, image_hw=(scene.cam.height, scene.cam.width))
    reports, aggregate, (ate_mean, _) = evaluate_scene(model, scene, cap=args.cap)
    header = ["frame", "abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3", "f_scale"]
    print("\t".join(header))
    for k, rep in enumerate(reports):
        row = [str(k)] + [
            f"{getattr(rep, key):.6f}"
            for key in ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3", "f_scale")
        ]
        print("\t".join(row))
    mean_row = ["mean"] + [f"{aggregate[key]:.6f}" for key in header[1:-1]] + ["-"]
    print("\t".join(mean_row))
    print(f"ate_5frame\t{ate_mean:.6f}")
    return 0


def _cmd_eval_pose(args) -> int:
    scene = SceneOnDisk(args.scene)
    model, _ = load_model(args.checkpoint, image_hw=(scene.cam.height, scene.cam.width))
    pred = predicted_trajectory(model, scene)
    if args.gt_trajectory:
        gt = read_trajectory(args.gt_trajectory)  # camera-to-world poses
        gt = anchored_trajectory(gt.indices, [p.inverse() for p in gt.poses])
    else:
        gt = reference_trajectory(scene)
    mean, segments = ate_5frame(pred, gt)
    print("segment\tate")
    for i, seg in enumerate(segments):
        print(f"{i}\t{seg:.6f}")
    print(f"mean\t{mean:.6f}")
    return 0


def _cmd_gradcheck(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks = []

    x = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    y = Tensor(rng.uniform(0.5, 2.0, (3, 4)), requires_grad=True)
    checks.append(("mul+exp", lambda: ad.tsum(ad.texp(x * 0.3) * y), [x, y]))
    m = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    n = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
    checks.append(("matmul", lambda: ad.tsum(ad.matmul(m, n)), [m, n]))
    img = Tensor(rng.uniform(-1, 1, (2, 5, 5)), requires_grad=True)
    ker = Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    checks.append(("conv2d", lambda: ad.tsum(ad.conv2d(img, ker, padding=1)), [img, ker]))
    weights = Tensor(rng.standard_normal((3, 3, 3)))
    checks.append(("conv2d_stride2", lambda: ad.tsum(ad.conv2d(img, ker, stride=2, padding=1) * weights), [img, ker]))
    dker = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
    checks.append(("depthwise", lambda: ad.tsum(ad.depthwise_conv2d(img, dker, padding=1)), [img, dker]))
    sm = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
    checks.append(("softmax", lambda: ad.tsum(_sq(ad.softmax(sm))), [sm]))
    gain = Tensor(rng.uniform(0.5, 1.5, 5), requires_grad=True)
    bias = Tensor(rng.uniform(-0.5, 0.5, 5), requires_grad=True)
    checks.append(("layer_norm", lambda: ad.tsum(_sq(ad.layer_norm(sm, gain, bias))), [sm, gain, bias]))
    src = Tensor(rng.uniform(0, 1, (2, 5, 5)), requires_grad=True)
    grid = Tensor(np.stack([rng.uniform(0.2, 3.4, (4, 4)), rng.uniform(0.2, 3.4, (4, 4))]), requires_grad=True)
    checks.append(("bilinear_sample", lambda: ad.tsum(ad.bilinear_sample(src, grid)[0]), [src, grid]))
    gate = Tensor(rng.uniform(0.5, 1.5, (2, 1, 1)), requires_grad=True)
    checks.append(("broadcast_mul", lambda: ad.tsum(_sq(img * gate)), [img, gate]))

    worst_name, worst = "", 0.0
    failed = False
    for name, fn, leaves in checks:
        ok, err = ad.gradient_check(fn, leaves, tol=args.tolerance)
        status = "ok" if ok else "FAIL"
        print(f"{name:16s} max_rel_err={err:.3e}  {status}")
        if err > worst:
            worst_name, worst = name, err
        failed = failed or not ok
    print(f"worst: {worst_name} ({worst:.3e}), tolerance {args.tolerance:g}")
    if failed:
        raise RuntimeError("gradient check failed")
    return 0


def _sq(t):
    return t * t


def _cmd_params(args) -> int:
    cfg = _load_cli_config(args)
    model = ModelBundle(cfg, (args.size, args.size))
    for name, module in [("depth_net", model.depth), ("pose_net", model.pose), ("decomposition", model.decomp), ("full_model", model)]:
        trainable, total = trainable_param_count(module)
        ratio = trainable / total if total else 0.0
        print(f"{name}\ttrainable={trainable}\ttotal={total}\tratio={ratio:.4%}")
    return 0


def _cmd_report(args) -> int:
    rows = []
    with open(args.log, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    if not rows:
        raise ValueError(f"log file {args.log} holds no records")
    keys = list(rows[0].keys())
    print(args.delimiter.join(keys))
    for row in rows:
        print(args.delimiter.join(f"{row.get(key, float('nan')):.8g}" for key in keys))
    return 0


_COMMANDS = {
    "gen-scene": _cmd_gen_scene,
    "train": _cmd_train,
    "eval-depth": _cmd_eval_depth,
    "eval-pose": _cmd_eval_pose,
    "gradcheck": _cmd_gradcheck,
    "params": _cmd_params,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
