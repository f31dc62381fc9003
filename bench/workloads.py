"""The depthlab workloads and how one run measures them.

Every workload renders a `two_spheres` scene from the run's seed, writes it
with `write_scene` and reads it back through `SceneOnDisk`, the path the
command-line tool takes; the program sees only that scene.

- train_b1: `train()` with the default config (batch 1, mean aggregation).
  Conv forward, backward and the decomposition head carry the step; the
  per-batch frame cache is bypassed (3 decompositions per target).
- train_b6_min: the same scene at batch 6 with min-reprojection. The frame
  cache cuts decompositions to 8 per 6 targets, the graph held until
  backward is six times larger, and the per-pixel minimum path runs.
- eval_seq: a seed-initialised model saved and loaded through a
  checkpoint, then `evaluate_scene` on 24 frames. Forward only: warp,
  losses, decomposition, backward and Adam do no work here, so a change
  to training alone should leave it unchanged.
"""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import spans
from depthlab import formats, train
from depthlab import scene as scenes
from depthlab.config import TrainConfig
from depthlab.evalmetrics import DEPTH_CAP
from depthlab.geometry import CameraModel

SIZE = 64
TINY_SIZE = 16
# train() and evaluate_scene() raise these on divergence, on mutated frozen
# weights and on invalid values; a run counts them as failed operations
RUN_ERRORS = (RuntimeError, ValueError)


@dataclass(frozen=True)
class Workload:
    name: str
    frames: int
    tiny_frames: int
    # TrainConfig overrides; None marks the evaluation workload. One epoch
    # per train() call keeps a call near 3 s, so a run holds about ten
    # calls; every other field keeps its default.
    train: dict | None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train_b1", 8, 4, {"epochs": 1}),
        Workload("train_b6_min", 8, 4, {"epochs": 1, "batch_size": 6, "source_aggregation": "min"}),
        Workload("eval_seq", 24, 6, None),
    )
}

# name -> (unit, better); the end-to-end metrics of an untraced run
END_TO_END = {
    "frames_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_ratio": ("ratio", "higher"),
    "abs_rel_vs_const": ("ratio", "lower"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every metric a traced run reports."""
    metrics = {}
    for layer, _, count in spans.layer_targets():
        metrics[f"{layer}.s"] = ("s", "lower")
        metrics[f"{layer}.self_s"] = ("s", "lower")
        metrics[f"{layer}.calls"] = ("count", "lower")
        if count is not None:
            metrics[count[0]] = ("count", "lower")
    metrics["blocks.decomp.calls_per_sample"] = ("calls/sample", "lower")
    metrics["trace.overhead_ratio"] = ("ratio", "lower")
    return metrics


@dataclass
class State:
    scene: formats.SceneOnDisk
    workdir: Path
    config: TrainConfig | None = None
    model: train.ModelBundle | None = None


@dataclass
class Outcome:
    """One timed call: operations attempted and failed (an operation is an
    optimizer step or an evaluated frame), its wall time, a summary that
    must repeat bit-identically across calls, and the trained model."""

    attempted: int
    failed: int
    seconds: float
    summary: object = None
    model: train.ModelBundle | None = None


def setup(wl: Workload, seed: int, workdir: Path, tiny: bool = False) -> State:
    """Render, write and read back the scene; for eval_seq also build,
    save and load the model. Module attributes are looked up at call time
    so that a traced run sees these calls."""
    size = TINY_SIZE if tiny else SIZE
    cam = CameraModel(fx=float(size), fy=float(size), cx=(size - 1) / 2.0, cy=(size - 1) / 2.0, width=size, height=size)
    rendered = scenes.generate_scene("two_spheres", wl.tiny_frames if tiny else wl.frames, seed, cam)
    scene_dir = workdir / "scene"
    formats.write_scene(scene_dir, rendered)
    scene = formats.SceneOnDisk(scene_dir)
    if wl.train is not None:
        return State(scene, workdir, config=TrainConfig(**wl.train))
    built = train.ModelBundle(TrainConfig(seed=seed), (size, size))
    path = workdir / "model.ckpt"
    train.save_model(path, built, built.config, 0)
    model, _ = train.load_model(path, image_hw=(size, size))
    return State(scene, workdir, model=model)


def samples_per_call(state: State) -> int:
    """Target frames one train() call visits, or frames one evaluation scores."""
    if state.config is None:
        return len(state.scene)
    return state.config.epochs * (len(state.scene) - 2 * state.config.triplet_stride)


def call(state: State) -> Outcome:
    return _call_train(state) if state.config is not None else _call_eval(state)


def _call_train(state: State) -> Outcome:
    cfg = state.config
    per_epoch = math.ceil((len(state.scene) - 2 * cfg.triplet_stride) / cfg.batch_size)
    steps = cfg.epochs * per_epoch
    checkpoint = state.workdir / "train.ckpt"
    checkpoint.unlink(missing_ok=True)
    start = perf_counter()
    try:
        model, records = train.train(state.scene, cfg, checkpoint_path=checkpoint)
    except RUN_ERRORS:
        return Outcome(steps, steps, perf_counter() - start)
    seconds = perf_counter() - start
    if len(records) != cfg.epochs or not checkpoint.is_file():
        failed = steps
    else:
        bad_epochs = [r for r in records if not (math.isfinite(r.loss) and 0.0 <= r.val_abs_rel < math.inf)]
        failed = per_epoch * len(bad_epochs)
    return Outcome(steps, failed, seconds, records, model)


def _report_ok(report) -> bool:
    return 0.0 <= report.abs_rel < math.inf and 0.0 <= report.delta1 <= report.delta2 <= report.delta3 <= 1.0


def _call_eval(state: State) -> Outcome:
    frames = len(state.scene)
    start = perf_counter()
    try:
        reports, aggregate, (ate, segments) = train.evaluate_scene(state.model, state.scene)
    except RUN_ERRORS:
        return Outcome(frames, frames, perf_counter() - start)
    seconds = perf_counter() - start
    if len(reports) != frames or len(segments) != frames - 4 or not 0.0 <= ate < math.inf:
        failed = frames
    else:
        failed = sum(not _report_ok(r) for r in reports)
    return Outcome(frames, failed, seconds, (aggregate, ate))


def failures(outcomes: list[Outcome]) -> int:
    """Failed operations, counting a call whose summary differs from the
    first completed call's as wholly failed: reruns must be bit-identical."""
    reference = next((o.summary for o in outcomes if o.summary is not None), None)
    return sum(o.attempted if o.summary is not None and o.summary != reference else o.failed for o in outcomes)


def constant_abs_rel(depths) -> float:
    """Mean Abs Rel of a constant-depth prediction under the protocol's
    median scaling: the scaled prediction is the lower median of the valid
    ground truth (capped), so no depthlab code enters the baseline."""
    scores = []
    for gt in depths:
        valid = np.sort(gt[np.isfinite(gt) & (gt > 0)])
        pred = min(valid[(valid.size - 1) // 2], DEPTH_CAP)
        scores.append(np.mean(np.abs(pred - valid) / valid))
    return float(np.mean(scores))


def quality(state: State, outcome: Outcome) -> dict[str, float]:
    """Depth quality of one completed call, against a constant predictor on
    the same frames; eval_seq adds the 5-frame ATE."""
    if state.config is not None:
        abs_rel = train.validation_abs_rel(outcome.model, state.scene)
        extra = {"val_abs_rel": outcome.summary[-1].val_abs_rel}
    else:
        aggregate, ate = outcome.summary
        abs_rel = aggregate["abs_rel"]
        extra = {"ate_5frame": ate, "delta1": aggregate["delta1"]}
    baseline = constant_abs_rel(state.scene.depths)
    return {"abs_rel": abs_rel, "constant_abs_rel": baseline, "abs_rel_vs_const": abs_rel / baseline, **extra}


def measure(name: str, seed: int, seconds: float, workdir: Path, tiny: bool = False):
    """Untraced run: returns (result, record)."""
    wl = WORKLOADS[name]
    setup_s: list[float] = []
    outcomes: list[Outcome] = []
    start = perf_counter()
    while not outcomes or perf_counter() - start < seconds:
        # a fresh set-up before every call spreads the set-up samples over
        # the whole run, as the call samples are
        began = perf_counter()
        state = setup(wl, seed, workdir, tiny)
        setup_s.append(perf_counter() - began)
        outcomes.append(call(state))
        if len(outcomes) == 1:
            # set-up plus one call, so that it does not grow with the
            # number of calls that fit in the run
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    samples = samples_per_call(state)
    completed = [o for o in outcomes if o.summary is not None]
    attempted = sum(o.attempted for o in outcomes)
    failed = failures(outcomes)
    scores = quality(state, completed[0]) if completed else {"abs_rel_vs_const": math.nan}
    metrics = {
        "frames_per_s": samples * len(completed) / sum(o.seconds for o in completed) if completed else 0.0,
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
        "abs_rel_vs_const": scores["abs_rel_vs_const"],
    }
    correct = failed == 0 and math.isfinite(scores["abs_rel_vs_const"])
    record = {
        "samples_per_call": samples,
        "call_s": [o.seconds for o in outcomes],
        "setup_s": setup_s,
        "quality": scores,
    }
    return _result(correct, attempted, failed, metrics, END_TO_END), record


def measure_traced(name: str, seed: int, seconds: float, workdir: Path, tiny: bool = False):
    """Traced run: alternates an untraced call with a traced set-up plus
    call. Returns (result, record, spans of each traced iteration)."""
    wl = WORKLOADS[name]
    state = setup(wl, seed, workdir, tiny)
    tracer = spans.Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    iterations: list[tuple[list, dict]] = []

    def pair():
        plain.append(call(state))
        with spans.installed(tracer):
            traced.append(call(setup(wl, seed, workdir, tiny)))
        iterations.append(tracer.take())

    start = perf_counter()
    pair()
    while perf_counter() - start < seconds:
        pair()

    samples = samples_per_call(state)
    per_iteration = [layer_values(s, counts, samples) for s, counts in iterations]
    metrics = {key: statistics.median(v[key] for v in per_iteration) for key in per_iteration[0]}
    metrics["trace.overhead_ratio"] = statistics.median(o.seconds for o in traced) / statistics.median(
        o.seconds for o in plain
    )
    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes)
    failed = failures(outcomes)
    record = {
        "samples_per_call": samples,
        "call_s": [o.seconds for o in plain],
        "traced_call_s": [o.seconds for o in traced],
        "roadmap_view": roadmap_view(iterations, [o.seconds for o in traced], samples) if wl.train is not None else None,
    }
    result = _result(failed == 0, attempted, failed, metrics, per_layer_metrics())
    return result, record, [s for s, _ in iterations]


def layer_values(span_list: list, counts: dict, samples: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration; layers never called read 0."""
    totals = spans.layer_totals(span_list)
    values = {}
    for layer, _, count in spans.layer_targets():
        entry = totals.get(layer, {"s": 0.0, "self_s": 0.0, "calls": 0})
        values[f"{layer}.s"] = entry["s"]
        values[f"{layer}.self_s"] = entry["self_s"]
        values[f"{layer}.calls"] = entry["calls"]
        if count is not None:
            values[count[0]] = counts.get(count[0], 0)
    values["blocks.decomp.calls_per_sample"] = values["blocks.decomp.calls"] / samples
    return values


def roadmap_view(iterations: list[tuple[list, dict]], call_s: list[float], samples: int) -> dict[str, float]:
    """The quantities the ROADMAP baselines quote, per optimizer step or per
    call of a head, as medians over the traced iterations."""
    views = []
    for (span_list, _), seconds in zip(iterations, call_s):
        totals = spans.layer_totals(span_list)
        steps = totals["optim.adam"]["calls"]
        forward = totals["train.step_loss"]["s"]
        backward = totals["autodiff.backward"]["s"]
        depth_net = sum(
            spans.time_within(span_list, block, "train.step_loss")
            for block in ("blocks.encoder", "blocks.mixer", "blocks.decoder")
        )
        views.append(
            {
                "step_s": (forward + backward + totals["optim.adam"]["s"]) / steps,
                "forward_s": forward / steps,
                "backward_s": backward / steps,
                "conv2d_share_of_forward": spans.time_within(span_list, "autodiff.conv2d", "train.step_loss") / forward,
                "depth_net_forward_s": depth_net / samples,
                "decomp_per_frame_s": totals["blocks.decomp"]["s"] / totals["blocks.decomp"]["calls"],
                "pose_per_pair_s": totals["blocks.pose"]["s"] / totals["blocks.pose"]["calls"],
                "validate_share_of_call": totals["train.validate"]["s"] / seconds,
            }
        )
    return {key: statistics.median(v[key] for v in views) for key in views[0]}


def _result(correct: bool, attempted: int, failed: int, metrics: dict, catalogue: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, (unit, _) in catalogue.items()},
    }
