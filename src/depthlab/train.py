"""End-to-end training loop and evaluation orchestration.

For every target frame the loop predicts one full-resolution depth map,
the one evaluation scores, and poses each source frame once: the pose head
returns the (rotation, translation) pair the warp takes. It warps the
source, or with the reflectance/shading decomposition on the stack of its
reconstruction (reflectance times shading) and reflectance, into the
target view once, and one aggregation over the sources (the mean of
per-source losses or the per-pixel minimum) gives the synthesis term. It
minimizes the weighted sum of reconstruction, reflectance-consistency,
synthesis and mask-guided smoothness terms.
The graph is per target: an optimizer step backwards each target's share
of the batch mean as soon as that target's loss is built, so it holds one
target's graph at a time, and backwards each decomposition its targets
share right after the last target that reads it. Divergence raises
``TrainingDiverged`` after saving the last good state. Runs are
deterministic given the config seed, and frozen parameters are
checksum-verified every epoch.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tensor, TrainingDiverged
from .blocks import DecompositionNet, PoseNet, ToyDepthNet
from .checkpoint import load_module, save_checkpoint
from .config import TrainConfig
from .evalmetrics import DEPTH_METRICS, DepthEvalReport, Trajectory, anchored_trajectory, ate_5frame, evaluate_depth, lower_median
from .geometry import PoseSE3, warp_frame
# bench/spans.py wraps these names in this module, ssim included though unused here
from .losses import masked_smoothness_loss, reconstruction_loss, ssim, total_loss
from .nn import Module, frozen_checksums
from .optim import Adam


class ModelBundle(Module):
    """Depth network, pose head, and decomposition head under one parameter
    namespace. Base weights depend only on the seed, never on the adapter
    mode, so adapter ablations share their frozen starting point."""

    def __init__(self, config: TrainConfig, image_hw: tuple[int, int]):
        rng = np.random.default_rng(config.seed)
        self.depth = ToyDepthNet(config, image_hw, rng)
        self.pose = PoseNet(rng)
        self.decomp = DecompositionNet(rng)
        self.config = config


@dataclass
class EpochRecord:
    epoch: int
    step: int
    lr: float
    loss: float
    reconstruction: float
    reflectance: float
    synthesis: float
    smoothness: float
    val_abs_rel: float


def _mean(terms: list[Tensor]) -> Tensor:
    return sum(terms[1:], terms[0]) / len(terms)


def _triplet(t: int, stride: int) -> tuple[int, int, int]:
    """The frames target t reads: itself, then its two sources."""
    return (t, t - stride, t + stride)


class _FrameCache:
    """Per-step cache of frame decompositions. Parameters are fixed within
    one optimizer step, so a frame's decomposition is computed once and
    shared by every target of the batch that reads it (up to three).

    Targets get leaf copies of the cached outputs, the same arrays with a
    gradient of their own, so each target's backward stops at them and adds
    into their ``.grad``. Once the last target of the batch that reads a
    frame has been backwarded, ``release`` runs that frame's decomposition
    graph once, seeded with what its leaves gathered, and drops it."""

    def __init__(self, model: ModelBundle, scene, batch: list[int]):
        self.model = model
        self.scene = scene
        # frame -> (decomposition outputs, the leaf copies targets read)
        self.decomps: dict[int, tuple[tuple[Tensor, Tensor], tuple[Tensor, Tensor]]] = {}
        # frame -> the batch's last target that reads it
        stride = model.config.triplet_stride
        self.last_reader = {k: t for t in batch for k in _triplet(t, stride)}

    def decomp(self, k: int) -> tuple[Tensor, Tensor]:
        if k not in self.decomps:
            outputs = self.model.decomp(Tensor(self.scene.frames[k]))
            self.decomps[k] = (outputs, tuple(Tensor(out.data, requires_grad=True) for out in outputs))
        return self.decomps[k][1]

    def release(self, t: int) -> None:
        """Backward, in the order frames were first read, each cached
        decomposition whose last reader is target t, seeded with the
        gradients its leaves gathered; each graph is dropped as it runs."""
        for k in [k for k in self.decomps if self.last_reader[k] == t]:
            (r, s), (r_leaf, s_leaf) = self.decomps.pop(k)
            (ad.tsum(r * Tensor(r_leaf.grad)) + ad.tsum(s * Tensor(s_leaf.grad))).backward()


def step_loss(model: ModelBundle, scene, t: int, cache: _FrameCache):
    """Assemble the full objective for one target frame, weighted by the
    model config's loss weights; returns the total and its parts as floats.

    The depth is ``model.depth``'s, the map evaluation scores. Per
    source: pose it once, build what gets warped (the frame or the
    [reconstruction, reflectance] stack) plus its reconstruction term, and
    warp it once. One aggregation over the sources gives the synthesis
    term, and the reflectance term is the mean over sources;
    reconstruction scores each frame once: the target's term plus the
    sources' mean. With the decomposition bypassed the reconstruction and
    reflectance terms are 0.

    The caller owns ``cache``, a ``_FrameCache`` whose batch holds t, and
    its release: the total's graph stops at the cache's decomposition
    leaves, so a backward of it reaches the decomposition head only through
    ``cache.release(t)``.
    """
    cfg = model.config
    decompose = not cfg.bypass_decomposition
    img_t = Tensor(scene.frames[t])
    depth = model.depth(img_t)
    if decompose:
        r_t, s_t = cache.decomp(t)
        recon_t = reconstruction_loss(r_t * s_t, img_t)

    warps = []  # (warped stack, bool validity) per source
    translations = []  # (source, translation) per source
    recon_terms = []
    _, *sources = _triplet(t, cfg.triplet_stride)
    for s in sources:
        img_s = Tensor(scene.frames[s])
        pose = model.pose(img_t, img_s)
        translations.append((s, pose[1]))
        stack = img_s
        if decompose:
            r_s, s_s = cache.decomp(s)
            i_s_hat = r_s * s_s
            recon_terms.append(reconstruction_loss(i_s_hat, img_s))
            # one bilinear pass carries both the reconstructed frame (for the
            # synthesis term) and the reflectance (for the consistency term)
            stack = ad.concat([i_s_hat, r_s], axis=0)
        warps.append(warp_frame(stack, depth, pose, scene.cam))

    if not all(valid.any() for _, valid in warps):
        moves = ", ".join(f"source {s} |t| {np.linalg.norm(tr.data):.4g}" for s, tr in translations)
        raise TrainingDiverged(
            f"warp produced an empty validity mask: median predicted depth {lower_median(depth.data):.4g}, {moves}"
        )
    frames = [(ad.slice_axis(w, 0, 0, 3) if decompose else w, v) for w, v in warps]
    terms = {
        "reconstruction": recon_t + _mean(recon_terms) if decompose else Tensor(0.0),
        "reflectance": (
            _mean([losses.reflectance_consistency_loss(r_t, ad.slice_axis(w, 0, 3, 6), v) for w, v in warps])
            if decompose
            else Tensor(0.0)
        ),
        "synthesis": _synthesis(cfg.source_aggregation, frames, img_t),
        "smoothness": masked_smoothness_loss(depth, img_t, scene.labels[t]),
    }
    total = total_loss(terms, cfg.loss_weights())
    parts = {name: float(term.data) for name, term in terms.items()}
    parts["loss"] = total.item()
    return total, parts


def _synthesis(aggregation: str, frames: list[tuple[Tensor, np.ndarray]], target: Tensor) -> Tensor:
    """The synthesis term from the (warped frame, bool validity) of every
    source: the mean over sources of each map's valid-pixel mean, or (min)
    the per-pixel minimum over sources, where a source's invalid pixels
    never win, averaged over pixels valid in any source."""
    if aggregation == "mean":
        return _mean([losses.masked_pixel_mean(losses.synthesis_loss(frame, target), v) for frame, v in frames])
    maps = [ad.mask_fill(losses.synthesis_loss(frame, target), ~v, 1e6) for frame, v in frames]
    # the minimum as a max of negations: a tie goes to the earlier source
    combined = -ad.tmax(-ad.concat([ad.reshape(m, (1,) + m.shape) for m in maps], axis=0), axis=0)
    return losses.masked_pixel_mean(combined, np.logical_or.reduce([v for _, v in frames]))


def _depth_reports(model: ModelBundle, scene, frames) -> list[DepthEvalReport]:
    """Predict each frame's depth, without a graph, and score it against the
    ground truth."""
    reports = []
    with ad.no_grad():
        for k in frames:
            depth = model.depth(Tensor(scene.frames[k]))
            reports.append(evaluate_depth(depth.data, scene.depths[k]))
    return reports


def validation_abs_rel(model: ModelBundle, scene, frames=None) -> float:
    """Mean median-scaled Abs Rel over the given frames (default: all)."""
    ids = range(len(scene)) if frames is None else frames
    return float(np.mean([r.abs_rel for r in _depth_reports(model, scene, ids)]))


def _validation_frames(targets: list[int]) -> list[int]:
    """Three spread-out targets; keeps the per-epoch validation cheap."""
    if len(targets) <= 3:
        return list(targets)
    return [targets[0], targets[len(targets) // 2], targets[-1]]


def train(scene, config: TrainConfig, log_path=None, checkpoint_path=None):
    """Run the full loop; returns (model, records). The scene must carry
    depths (the per-epoch validation scores against them) and labels (the
    smoothness term reads them), and at least one target: 2 * stride + 1
    frames. Divergence aborts with the last good checkpoint written next to
    the requested path, so a path in a missing directory or under a file is
    refused before the log is opened, and so is one where the checkpoint,
    the rescue ``<checkpoint>.last_good`` or the ``.tmp`` file either is
    saved through would land on a directory. Each refusal comes before the
    model is built."""
    missing = [name for name in ("depths", "labels") if getattr(scene, name) is None]
    if missing:
        raise ValueError(f"scene has no {' or '.join(missing)}: training reads depth and label rasters")
    stride = config.triplet_stride
    targets = list(range(stride, len(scene) - stride))
    if not targets:
        raise ValueError(f"scene with {len(scene)} frames leaves no target at stride {stride}")
    if checkpoint_path:
        directory = os.path.dirname(os.path.abspath(checkpoint_path))
        if not os.path.isdir(directory):
            kind = "is not a directory" if os.path.exists(directory) else "does not exist"
            raise ValueError(f"checkpoint directory {directory} {kind}")
        for suffix in ("", ".tmp", ".last_good", ".last_good.tmp"):
            if os.path.isdir(f"{checkpoint_path}{suffix}"):
                raise ValueError(f"checkpoint path {checkpoint_path}{suffix} is a directory")
    hw = (scene.cam.height, scene.cam.width)
    model = ModelBundle(config, hw)
    trainables = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    opt = Adam(trainables, lr=config.lr)
    frozen_before = frozen_checksums(model)

    records: list[EpochRecord] = []
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None
    step = 0
    try:
        for epoch in range(1, config.epochs + 1):
            if epoch == config.decay_epoch() + 1:
                opt.lr = opt.lr * config.lr_decay
            sums: dict[str, float] = {}
            for start in range(0, len(targets), config.batch_size):
                batch = targets[start : start + config.batch_size]
                for parts in _optimizer_step(model, scene, batch, opt, step, checkpoint_path):
                    for key, value in parts.items():
                        sums[key] = sums.get(key, 0.0) + value
                step += 1
            after = frozen_checksums(model)
            if after != frozen_before:
                changed = [k for k in frozen_before if after.get(k) != frozen_before[k]]
                raise RuntimeError(f"frozen parameters mutated during epoch {epoch}: {changed}")
            record = EpochRecord(
                epoch=epoch,
                step=step,
                lr=opt.lr,
                **{key: value / len(targets) for key, value in sums.items()},
                val_abs_rel=validation_abs_rel(model, scene, frames=_validation_frames(targets)),
            )
            records.append(record)
            if log_fh:
                log_fh.write(json.dumps(asdict(record)) + "\n")
                log_fh.flush()
    finally:
        if log_fh:
            log_fh.close()
    if checkpoint_path:
        save_model(checkpoint_path, model, config, step)
    return model, records


def _optimizer_step(model, scene, batch, opt, step, checkpoint_path) -> list[dict[str, float]]:
    """One Adam step on the mean loss over the batch's targets; returns each
    target's loss parts. Each target's scaled total is backwarded as soon as
    it is built, so the step holds one target's graph at a time, plus the
    decompositions the frame cache shares; right after a target's backward
    the cache backwards and drops each decomposition that target is the last
    reader of. The gradients are those of one backward over the mean, up to
    summation order. On divergence no parameter has moved yet (Adam rejects
    a step before any update), so ``<checkpoint>.last_good`` holds the
    previous step's state."""
    cache = _FrameCache(model, scene, batch)
    batch_parts = []
    try:
        for t in batch:
            total, parts = step_loss(model, scene, t, cache=cache)
            (total * (1.0 / len(batch))).backward()
            del total  # this target's graph goes before the next one is built
            cache.release(t)
            batch_parts.append(parts)
        opt.step()
    except TrainingDiverged as exc:
        message = f"training diverged after {step} good steps: {exc}"
        if checkpoint_path:
            rescue = f"{checkpoint_path}.last_good"
            save_model(rescue, model, model.config, step)
            message += f"; last good state in {rescue}"
        raise TrainingDiverged(message) from exc
    opt.zero_grad()
    return batch_parts


def save_model(path, model: ModelBundle, config: TrainConfig, step: int) -> None:
    save_checkpoint(path, model, config, step)


def load_model(path, image_hw: tuple[int, int]) -> tuple[ModelBundle, int]:
    """Rebuild the model a checkpoint holds at the image size the caller
    passes. No parameter depends on the image size, so a checkpoint loads at
    any size the patch grid fits, whatever size it was trained at. Each
    payload is read straight into the freshly built model's own parameter
    array."""
    return load_module(path, lambda config: ModelBundle(config, image_hw))


def evaluate_scene(model: ModelBundle, scene):
    """Per-frame depth reports plus mean aggregates and the 5-frame ATE as
    (mean, segments); a scene of fewer than 5 frames has no ATE window and
    gets (None, []). The scene must carry depths."""
    if scene.depths is None:
        raise ValueError("scene has no depths: evaluation scores against depth rasters")
    reports = _depth_reports(model, scene, range(len(scene)))
    aggregate = {key: float(np.mean([getattr(r, key) for r in reports])) for key in DEPTH_METRICS}
    ate = evaluate_pose(model, scene) if len(scene) >= 5 else (None, [])
    return reports, aggregate, ate


def predicted_trajectory(model: ModelBundle, scene) -> Trajectory:
    """Chain per-pair pose estimates, made without a graph, into a
    camera-to-world trajectory anchored at the first frame and labelled by
    the scene's frame ids."""
    current = PoseSE3.identity()
    poses = [current]
    with ad.no_grad():
        for k in range(len(scene) - 1):
            rotation, translation = model.pose(Tensor(scene.frames[k]), Tensor(scene.frames[k + 1]))
            current = current.compose(PoseSE3(rotation.data, translation.data).inverse())
            poses.append(current)
    return Trajectory(scene.trajectory.indices, tuple(poses))


def evaluate_pose(model: ModelBundle, scene) -> tuple[float, list[float]]:
    """5-frame ATE of the predicted path against the scene's camera-to-world
    trajectory, both anchored at their first frame."""
    return ate_5frame(predicted_trajectory(model, scene), anchored_trajectory(scene.trajectory))
