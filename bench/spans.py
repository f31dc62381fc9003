"""Span tracing around depthlab's public callables, from outside the package.

A `Tracer` records one span per wrapped call (name, start, end, parent
span) and keeps them in memory. `installed(tracer)` swaps every callable
in `layer_targets()` for a timing wrapper in the namespace its caller
reads it from, and restores the originals on exit, so the same process
can alternate traced and untraced calls.
"""

from __future__ import annotations

import contextlib
import math
from time import perf_counter


class Tracer:
    """In-memory span list. A span is [name, start, end, parent index];
    parent is -1 for a span opened with no span open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return fn wrapped in a span named `name`. `count`, when given, is
        (counter name, f) and each call adds f(args, result) to that counter."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = perf_counter()
            if count is not None:
                key, measure = count
                self.counts[key] = self.counts.get(key, 0) + measure(args, result)
            return result

        return traced

    def take(self) -> tuple[list[list], dict[str, float]]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], {}
        return spans, counts


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: `s` (inclusive seconds; a span inside another of the
    same name is not counted twice), `self_s` (seconds minus the time the
    span's direct children cover) and `calls`."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[i]
        if not _inside(spans, parent, name):
            entry["s"] += end - start
    return totals


def time_within(spans: list[list], name: str, ancestor: str) -> float:
    """Inclusive seconds of `name` spans that run inside an `ancestor` span."""
    return sum(
        end - start
        for span_name, start, end, parent in spans
        if span_name == name and _inside(spans, parent, ancestor)
    )


def _inside(spans: list[list], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][0] == name:
            return True
        index = spans[index][3]
    return False


def _conv2d_macs(args, result) -> int:
    """Multiply-accumulates of one conv2d forward, from the kernel and output shapes."""
    kernel = args[1]
    c_out, c_in, kh, kw = kernel.shape
    return c_out * c_in * kh * kw * math.prod(result.shape[1:])


def layer_targets():
    """(layer name, [(owner, attribute), ...], counter or None) for every
    traced layer. An owner is the module or class whose attribute the
    calling code looks up at call time."""
    from depthlab import autodiff, blocks, formats, losses, optim, scene, train

    return [
        ("autodiff.conv2d", [(autodiff, "conv2d")], ("autodiff.conv2d.macs", _conv2d_macs)),
        ("autodiff.depthwise_conv2d", [(autodiff, "depthwise_conv2d")], None),
        ("autodiff.bilinear_sample", [(autodiff, "bilinear_sample")], None),
        ("autodiff.matmul", [(autodiff, "matmul")], None),
        ("autodiff.backward", [(autodiff.Tensor, "backward")], None),
        ("blocks.encoder", [(blocks.TransformerBlock, "__call__")], None),
        ("blocks.mixer", [(blocks.SeparableResidualBlock, "__call__")], None),
        ("blocks.decoder", [(blocks.DepthDecoder, "__call__")], None),
        ("blocks.pose", [(blocks.PoseNet, "__call__")], None),
        ("blocks.decomp", [(blocks.DecompositionNet, "__call__")], None),
        ("geometry.warp_frame", [(train, "warp_frame")], None),
        ("losses.ssim", [(losses, "ssim"), (train, "ssim")], None),
        ("losses.synthesis", [(losses, "synthesis_loss")], None),
        ("losses.reconstruction", [(train, "reconstruction_loss")], None),
        ("losses.reflectance", [(losses, "reflectance_consistency_loss")], None),
        ("losses.smoothness", [(train, "masked_smoothness_loss")], None),
        ("optim.adam", [(optim.Adam, "step")], None),
        ("nn.frozen_checksums", [(train, "frozen_checksums")], None),
        ("train.step_loss", [(train, "step_loss")], None),
        ("train.validate", [(train, "validation_abs_rel")], None),
        ("evalmetrics.evaluate_depth", [(train, "evaluate_depth")], None),
        ("evalmetrics.ate_5frame", [(train, "ate_5frame")], None),
        ("checkpoint.save", [(train, "save_model")], None),
        ("checkpoint.load", [(train, "load_model")], None),
        ("scene.generate", [(scene, "generate_scene")], None),
        ("formats.write_scene", [(formats, "write_scene")], None),
        ("formats.read_scene", [(formats, "SceneOnDisk")], None),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route every layer target through `tracer` until the block exits."""
    originals = []
    try:
        for name, places, count in layer_targets():
            for owner, attr in places:
                original = vars(owner)[attr]
                originals.append((owner, attr, original))
                setattr(owner, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
