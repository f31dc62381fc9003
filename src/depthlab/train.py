"""End-to-end training loop and evaluation orchestration.

For every target frame the loop predicts multi-scale depth and poses each
source frame once. It warps the source, or with the reflectance/shading
decomposition on the stack of its reconstruction and reflectance, into
the target view once per scale, and one aggregation over the sources (the
mean of per-source losses or the per-pixel minimum) gives the synthesis
term. It minimizes the weighted sum of reconstruction,
reflectance-consistency, synthesis and mask-guided smoothness terms.
Divergence raises ``TrainingDiverged`` after saving the last good state.
Runs are deterministic given the config seed, and frozen parameters are
checksum-verified every epoch.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import losses
from .autodiff import Tensor, TrainingDiverged
from .blocks import DecompositionNet, PoseNet, ToyDepthNet, disparity_to_depth, reconstruct
from .checkpoint import load_checkpoint, restore_module, save_checkpoint
from .config import TrainConfig
from .evalmetrics import DEPTH_CAP, DepthEvalReport, Trajectory, ate_5frame, evaluate_depth
from .geometry import PoseSE3, rotation_from_axis_angle, warp_frame
# bench/spans.py wraps these names in this module, ssim included though unused here
from .losses import SemanticMaskSet, masked_smoothness_loss, reconstruction_loss, ssim, total_loss
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

    def predict_depth(self, image: Tensor) -> Tensor:
        """Full-resolution depth from the finest disparity scale."""
        disp = self.depth(image)[0]
        return disparity_to_depth(disp, self.config.d_min, self.config.d_max)


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


def _upsampled_depths(model: ModelBundle, image: Tensor) -> list[Tensor]:
    """Depth per requested scale, each upsampled to full resolution first."""
    cfg = model.config
    disps = model.depth(image)[: cfg.loss_scales]
    depths = []
    for level, disp in enumerate(disps):
        for _ in range(level):
            disp = ad.upsample_nearest2x(disp)
        depths.append(disparity_to_depth(disp, cfg.d_min, cfg.d_max))
    return depths


class _FrameCache:
    """Per-batch cache of frame decompositions; parameters are fixed within
    one optimizer step, so sub-graphs can be shared across the batched
    targets."""

    def __init__(self, model: ModelBundle, scene):
        self.model = model
        self.scene = scene
        self.decomps: dict[int, tuple[Tensor, Tensor]] = {}

    def decomp(self, k: int) -> tuple[Tensor, Tensor]:
        if k not in self.decomps:
            self.decomps[k] = self.model.decomp(Tensor(self.scene.frames[k]))
        return self.decomps[k]


def step_loss(model: ModelBundle, scene, t: int, cache: "_FrameCache | None" = None):
    """Assemble the full objective for one target frame, weighted by the
    model config's loss weights; returns the total and its parts as floats.

    Per source: pose it once and build what gets warped, the frame or the
    [reconstruction, reflectance] stack, plus its reconstruction term. Per
    scale: warp each source once, then form one synthesis aggregation and,
    with the decomposition on, the reflectance term. Every term is a mean
    over sources, then over scales. With the decomposition bypassed the
    reconstruction and reflectance terms are 0.
    """
    cfg = model.config
    cache = cache or _FrameCache(model, scene)
    decompose = not cfg.bypass_decomposition
    img_t = Tensor(scene.frames[t])
    depths = _upsampled_depths(model, img_t)
    if decompose:
        r_t, s_t = cache.decomp(t)
        i_t_hat = reconstruct(r_t, s_t)

    sources = []  # (pose, stack to warp) per source
    recon_terms = []
    for s in (t - cfg.triplet_stride, t + cfg.triplet_stride):
        img_s = Tensor(scene.frames[s])
        pose6 = model.pose(img_t, img_s)
        rot = rotation_from_axis_angle(ad.slice_axis(pose6, 0, 0, 3))
        trans = ad.slice_axis(pose6, 0, 3, 6)
        stack = img_s
        if decompose:
            r_s, s_s = cache.decomp(s)
            i_s_hat = reconstruct(r_s, s_s)
            recon_terms.append(reconstruction_loss(i_t_hat, img_t, i_s_hat, img_s, cfg.alpha))
            # one bilinear pass carries both the reconstructed frame (for the
            # synthesis term) and the reflectance (for the consistency term)
            stack = ad.concat([i_s_hat, r_s], axis=0)
        sources.append(((rot, trans), stack))

    synth_terms = []
    refl_terms = []
    for depth in depths:
        warps = [warp_frame(stack, depth, pose, scene.cam) for pose, stack in sources]
        if any(validity.data.sum() == 0 for _, validity in warps):
            raise TrainingDiverged("warp produced an empty validity mask; pose diverged")
        frames = [(ad.slice_axis(w, 0, 0, 3) if decompose else w, v.data) for w, v in warps]
        synth_terms.append(_synthesis(cfg.source_aggregation, frames, img_t, cfg.alpha))
        if decompose:
            refl_terms.append(
                _mean([losses.reflectance_consistency_loss(r_t, ad.slice_axis(w, 0, 3, 6), v.data) for w, v in warps])
            )

    masks = SemanticMaskSet(scene.labels[t])
    smooth_terms = [masked_smoothness_loss(depth, img_t, masks) for depth in depths]
    # only a bypassed decomposition leaves a list empty
    per_term = (recon_terms, refl_terms, synth_terms, smooth_terms)
    terms = {name: _mean(ts) if ts else Tensor(0.0) for name, ts in zip(losses.LOSS_TERMS, per_term)}
    total = total_loss(terms, cfg.loss_weights())
    parts = {name: float(term.data) for name, term in terms.items()}
    parts["loss"] = total.item()
    return total, parts


def _synthesis(aggregation: str, frames: list[tuple[Tensor, np.ndarray]], target: Tensor, alpha: float) -> Tensor:
    """One scale's synthesis term from the (warped frame, validity) of every
    source: the mean of the per-source masked SSIM/L1 losses, or (min) the
    per-pixel minimum over sources, where a source's invalid pixels never
    win, averaged over pixels valid in any source."""
    if aggregation == "mean":
        return _mean([losses.synthesis_loss(frame, target, alpha=alpha, validity=v) for frame, v in frames])
    maps = [
        ad.mask_fill(losses.synthesis_loss(frame, target, alpha, per_pixel=True), v < 0.5, 1e6) for frame, v in frames
    ]
    # the minimum as a max of negations: a tie goes to the earlier source
    combined = -ad.tmax(-ad.concat([ad.reshape(m, (1,) + m.shape) for m in maps], axis=0), axis=0)
    any_valid = np.clip(np.sum([v for _, v in frames], axis=0), 0.0, 1.0)
    return ad.tsum(combined * Tensor(any_valid)) / max(1.0, any_valid.sum())


def _depth_reports(model: ModelBundle, scene, frames, cap: float) -> list[DepthEvalReport]:
    """Predict each frame's depth and score it against the ground truth."""
    reports = []
    for k in frames:
        depth = model.predict_depth(Tensor(scene.frames[k]))
        reports.append(evaluate_depth(depth.data, scene.depths[k], cap=cap))
    return reports


def validation_abs_rel(model: ModelBundle, scene, frames=None) -> float:
    """Mean median-scaled Abs Rel over the given frames (default: all)."""
    ids = range(len(scene)) if frames is None else frames
    return float(np.mean([r.abs_rel for r in _depth_reports(model, scene, ids, DEPTH_CAP)]))


def _validation_frames(targets: list[int]) -> list[int]:
    """Three spread-out targets; keeps the per-epoch validation cheap."""
    if len(targets) <= 3:
        return list(targets)
    return [targets[0], targets[len(targets) // 2], targets[-1]]


def train(scene, config: TrainConfig, log_path=None, checkpoint_path=None):
    """Run the full loop; returns (model, records). Divergence aborts with
    the last good checkpoint written next to the requested path."""
    hw = (scene.cam.height, scene.cam.width)
    model = ModelBundle(config, hw)
    trainables = [(n, p) for n, p in model.named_parameters() if p.requires_grad]
    opt = Adam(
        trainables, lr=config.lr, beta1=config.adam_beta1, beta2=config.adam_beta2, eps=config.adam_eps
    )
    frozen_before = frozen_checksums(model)

    stride = config.triplet_stride
    targets = list(range(stride, len(scene) - stride))
    if not targets:
        raise ValueError(f"scene with {len(scene)} frames leaves no target at stride {stride}")

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
    target's loss parts. The step's graph is local, so it is freed on return,
    before the next step's forward or the epoch's validation runs. On
    divergence no parameter has moved yet (Adam rejects a step before any
    update), so ``<checkpoint>.last_good`` holds the previous step's state."""
    cache = _FrameCache(model, scene)
    batch_total = None
    batch_parts = []
    try:
        for t in batch:
            total, parts = step_loss(model, scene, t, cache=cache)
            batch_total = total if batch_total is None else batch_total + total
            batch_parts.append(parts)
        (batch_total * (1.0 / len(batch))).backward()
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
    named = [(name, p, not p.requires_grad) for name, p in model.named_parameters()]
    save_checkpoint(path, named, config, step)


def load_model(path, image_hw: tuple[int, int]) -> tuple[ModelBundle, int]:
    """Rebuild the model a checkpoint holds; the checkpoint does not record
    the image size, so the caller passes it."""
    ck = load_checkpoint(path)
    model = ModelBundle(ck.config, image_hw)
    restore_module(model, ck)
    return model, ck.step


def evaluate_scene(model: ModelBundle, scene, cap: float = DEPTH_CAP):
    """Per-frame depth reports plus mean aggregates and the 5-frame ATE."""
    reports = _depth_reports(model, scene, range(len(scene)), cap)
    aggregate = {
        key: float(np.mean([getattr(r, key) for r in reports]))
        for key in ("abs_rel", "sq_rel", "rmse", "rmse_log", "delta1", "delta2", "delta3")
    }
    ate_mean, segments = evaluate_pose(model, scene)
    return reports, aggregate, (ate_mean, segments)


def predicted_trajectory(model: ModelBundle, scene) -> Trajectory:
    """Chain per-pair pose estimates into a frame-0-anchored trajectory."""
    current = PoseSE3.identity()
    poses = [current]
    for k in range(len(scene) - 1):
        pose6 = model.pose(Tensor(scene.frames[k]), Tensor(scene.frames[k + 1]))
        vec = pose6.data
        t_to_s = PoseSE3.from_axis_angle(vec[:3], vec[3:])
        current = current.compose(t_to_s.inverse())
        poses.append(current)
    return Trajectory(tuple(range(len(scene))), tuple(poses))


def anchored_trajectory(indices, world_to_camera) -> Trajectory:
    """Camera path re-expressed in the first frame's camera coordinates."""
    base = world_to_camera[0]
    return Trajectory(tuple(indices), tuple(base.compose(p.inverse()) for p in world_to_camera))


def reference_trajectory(scene) -> Trajectory:
    """Ground-truth camera path re-expressed in frame-0 camera coordinates."""
    return anchored_trajectory(range(len(scene)), scene.poses)


def evaluate_pose(model: ModelBundle, scene) -> tuple[float, list[float]]:
    return ate_5frame(predicted_trajectory(model, scene), reference_trajectory(scene))
