"""Toy networks: a frozen transformer encoder adapted through low-rank
adapters, residual separable-convolution blocks with channel/spatial
attention, a depth decoder emitting one full-resolution depth map on
[D_MIN, D_MAX], a pose head, and a reflectance/shading decomposition head.

The encoder stands in for a large pretrained backbone: its patch
embedding, attention projections and MLP weights are all frozen; learning
reaches it only through the adapters on the two MLP linears of each block
(plus the inserted residual mixer blocks and the decoder, which are
trainable like a depth head). Its layer norms have no affine and its
sinusoidal position table is a read-only constant, so neither is a
parameter.
The decoder sees no pixels: depth reaches it only through the encoder's
token grid. Depth spans the fixed range 0.1..100 (D_MIN..D_MAX).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .adapters import make_adapter
from .autodiff import Tensor
from .config import TrainConfig
from .geometry import rotation_from_axis_angle
from .nn import Conv2d, DepthwiseConv2d, Linear, Module

PATCH = 8  # token side in pixels: the depth decoder's three 2x stages upsample by 8
HEADS = 4  # attention heads per encoder block: embed_dim must be a multiple of it
D_MIN, D_MAX = 0.1, 100.0  # the depth range a sigmoid disparity in [0, 1] maps onto


def sinusoidal_positions(n_tokens: int, dim: int) -> np.ndarray:
    pos = np.arange(n_tokens, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10_000.0, (2.0 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


class ChannelAttention(Module):
    """Per-channel gates in (0, 1): sigmoid of a shared bottleneck MLP applied
    to the global average- and max-pooled descriptors."""

    def __init__(self, channels: int, rng: np.random.Generator):
        hidden = max(1, channels // 16)
        self.squeeze = Linear(channels, hidden, rng)
        self.expand = Linear(hidden, channels, rng)

    def __call__(self, x: Tensor) -> Tensor:
        avg = ad.tmean(x, axis=(1, 2))
        mx = ad.tmax(x, axis=(1, 2))
        gates = self.expand(ad.relu(self.squeeze(avg))) + self.expand(ad.relu(self.squeeze(mx)))
        return ad.sigmoid(gates)


class SpatialAttention(Module):
    """Per-pixel gates in (0, 1) from a 7x7 conv over channel-pooled maps."""

    def __init__(self, rng: np.random.Generator):
        self.conv = Conv2d(2, 1, 7, rng, padding=3)

    def __call__(self, x: Tensor) -> Tensor:
        stats = ad.concat([ad.tmean(x, axis=0, keepdims=True), ad.tmax(x, axis=0, keepdims=True)], axis=0)
        return ad.sigmoid(self.conv(stats))


class SeparableResidualBlock(Module):
    """Residual block: 1x1 reduce, 3x3 depthwise, 1x1 restore, then channel
    and spatial attention gates on the branch before the residual add.

    ReLU follows the reduce and depthwise stages only, so zeroing the
    restore conv collapses the branch to an exact identity.
    """

    def __init__(self, channels: int, rng: np.random.Generator):
        if channels % 4 != 0:
            raise ValueError(f"channels {channels} not divisible by reduction 4")
        mid = channels // 4
        self.reduce = Conv2d(channels, mid, 1, rng)
        self.depthwise = DepthwiseConv2d(mid, 3, rng, padding=1)
        self.restore = Conv2d(mid, channels, 1, rng)
        self.channel_attention = ChannelAttention(channels, rng)
        self.spatial_attention = SpatialAttention(rng)

    def __call__(self, x: Tensor) -> Tensor:
        c = x.shape[0]
        branch = ad.relu(self.reduce(x))
        branch = ad.relu(self.depthwise(branch))
        branch = self.restore(branch)
        gates_c = self.channel_attention(branch)
        branch = branch * ad.reshape(gates_c, (c, 1, 1))
        gates_s = self.spatial_attention(branch)
        branch = branch * gates_s
        return x + branch


class TransformerBlock(Module):
    """Pre-norm block with frozen attention and a frozen MLP whose two
    linears carry the (optional) adapters, drawn from seed and seed + 1."""

    def __init__(self, dim: int, rng: np.random.Generator, adapter_mode: str, rank: int, seed: int):
        self.wq = Linear(dim, dim, rng, frozen=True)
        self.wk = Linear(dim, dim, rng, frozen=True)
        self.wv = Linear(dim, dim, rng, frozen=True)
        self.wo = Linear(dim, dim, rng, frozen=True)
        hidden = 4 * dim
        self.fc1 = Linear(dim, hidden, rng, frozen=True)
        self.fc2 = Linear(hidden, dim, rng, frozen=True)
        self.adapter1 = make_adapter(adapter_mode, hidden, dim, rank, seed)
        self.adapter2 = make_adapter(adapter_mode, dim, hidden, rank, seed + 1)

    def __call__(self, x: Tensor) -> Tensor:
        a = ad.layer_norm(x)
        x = x + self.wo(ad.attention(self.wq(a), self.wk(a), self.wv(a), HEADS))
        h = self.fc1(ad.layer_norm(x), self.adapter1)
        h = ad.gelu(h)
        h = self.fc2(h, self.adapter2)
        return x + h


def _avgpool_image(image: np.ndarray, factor: int) -> np.ndarray:
    c, h, w = image.shape
    return image.reshape(c, h // factor, factor, w // factor, factor).mean(axis=(2, 4))


class DepthDecoder(Module):
    """Upsampling conv decoder emitting one depth map on [D_MIN, D_MAX] at
    full image resolution.

    It reads only the encoder's token grid: a 1x1 projection, then three
    stages of nearest 2x upsampling and a 3x3 conv, then one 3x3 disparity
    head whose sigmoid ``disparity_to_depth`` maps onto the fixed depth
    range 0.1..100 (D_MIN..D_MAX). The head's bias starts at
    initial_disparity_logit so the initial prediction sits near the
    geometric middle of that range, not at the harmonic extreme that a
    zero-logit sigmoid would give."""

    def __init__(self, in_dim: int, rng: np.random.Generator):
        w0, w1, w2, w3 = 28, 22, 18, 14
        self.proj = Conv2d(in_dim, w0, 1, rng)
        self.conv1 = Conv2d(w0, w1, 3, rng, padding=1)
        self.conv2 = Conv2d(w1, w2, 3, rng, padding=1)
        self.conv3 = Conv2d(w2, w3, 3, rng, padding=1)
        self.head = Conv2d(w3, 1, 3, rng, padding=1)
        self.head.bias.assign(self.head.bias.data + initial_disparity_logit())

    def __call__(self, feat: Tensor) -> Tensor:
        # feat is the 1/PATCH-resolution token grid
        x = ad.relu(self.proj(feat))
        for conv in (self.conv1, self.conv2, self.conv3):
            x = ad.relu(conv(ad.upsample_nearest2x(x)))
        disp = ad.sigmoid(self.head(x))
        return disparity_to_depth(ad.reshape(disp, disp.shape[1:]))


class ToyDepthNet(Module):
    """Patch-embedding transformer encoder with inserted residual mixer
    blocks, plus the depth decoder. The output is one (H, W) depth map on
    [D_MIN, D_MAX] at the image's resolution."""

    def __init__(self, config: TrainConfig, image_hw: tuple[int, int], rng: np.random.Generator):
        h, w = image_hw
        dim, n_blocks, mixer_after = config.embed_dim, config.depth_blocks, config.mixer_after
        if h < PATCH or w < PATCH:
            raise ValueError(f"image {h}x{w} is smaller than one {PATCH}x{PATCH} patch")
        if h % PATCH or w % PATCH:
            raise ValueError(f"image {h}x{w} not divisible by patch {PATCH}")
        if dim % HEADS:
            raise ValueError(f"embed_dim must be a multiple of {HEADS}, the head count, got {dim}")
        if any(i < 1 or i > n_blocks for i in mixer_after):
            raise ValueError(f"mixer positions {mixer_after} outside 1..{n_blocks}")
        if len(set(mixer_after)) != len(mixer_after):
            raise ValueError(f"mixer positions {mixer_after} repeat a position")
        self.grid_hw = (h // PATCH, w // PATCH)
        self.embed_dim = dim
        n_tokens = self.grid_hw[0] * self.grid_hw[1]
        self.embed = Linear(3 * PATCH * PATCH, dim, rng, frozen=True)
        self.positions = sinusoidal_positions(n_tokens, dim)  # a constant of the grid, not a parameter
        self.positions.flags.writeable = False  # guards it as a frozen checksum guards a weight
        self.blocks = [
            TransformerBlock(dim, rng, config.adapter, config.rank, config.seed + 10 * i)
            for i in range(1, n_blocks + 1)
        ]
        self.mixer_after = tuple(sorted(mixer_after))
        self.mixers = [SeparableResidualBlock(dim, rng) for _ in self.mixer_after]
        self.decoder = DepthDecoder(dim, rng)

    def _tokens(self, image: Tensor) -> Tensor:
        c, h, w = image.shape
        gh, gw = self.grid_hw
        x = ad.reshape(image, (c, gh, PATCH, gw, PATCH))
        x = ad.permute(x, (1, 3, 0, 2, 4))
        return ad.reshape(x, (gh * gw, c * PATCH * PATCH))

    def _to_grid(self, tokens: Tensor) -> Tensor:
        gh, gw = self.grid_hw
        return ad.reshape(ad.permute(tokens, (1, 0)), (self.embed_dim, gh, gw))

    def _to_tokens(self, grid: Tensor) -> Tensor:
        gh, gw = self.grid_hw
        return ad.permute(ad.reshape(grid, (self.embed_dim, gh * gw)), (1, 0))

    def __call__(self, image: Tensor) -> Tensor:
        if image.ndim != 3 or image.shape[0] != 3:
            raise ValueError(f"expected a (3, H, W) image, got {image.shape}")
        x = self.embed(self._tokens(image)) + self.positions
        mixer_iter = iter(self.mixers)
        for i, block in enumerate(self.blocks, start=1):
            x = block(x)
            if i in self.mixer_after:
                x = self._to_tokens(next(mixer_iter)(self._to_grid(x)))
        return self.decoder(self._to_grid(x))


def initial_disparity_logit() -> float:
    """Logit of the disparity whose depth is the geometric mean of the range;
    used to bias the disparity head so training starts mid-scene with a live
    sigmoid gradient."""
    mid = float(np.sqrt(D_MIN * D_MAX))
    disp = (1.0 / mid - 1.0 / D_MAX) / (1.0 / D_MIN - 1.0 / D_MAX)
    return float(np.log(disp / (1.0 - disp)))


def disparity_to_depth(disp: Tensor) -> Tensor:
    """Monotone map from sigmoid disparity in [0, 1] to depth in [D_MIN, D_MAX]:
    depth = 1 / (1/D_MAX + (1/D_MIN - 1/D_MAX) * disp), so 0 gives D_MAX and
    1 gives D_MIN."""
    return 1.0 / (1.0 / D_MAX + (1.0 / D_MIN - 1.0 / D_MAX) * disp)


class PoseNet(Module):
    """Relative-pose head over a frame pair.

    Global pooling after rectified convs wipes out motion direction, so the
    input carries explicit normal-flow statistics: the temporal difference
    correlated with the spatial image gradients (the Lucas-Kanade normal
    equations' data terms). Their means give the head a linear readout of
    the translation direction; the conv stack refines the rest. Frames
    enter as values (the pose path differentiates only its own weights).
    A call returns the target-to-source (rotation, translation) pair the
    warp takes, (3, 3) and (3,): the head's 6-vector is decoded here alone,
    an axis-angle through ``rotation_from_axis_angle`` and a translation.
    """

    N_STATS = 13
    output_scale = 0.1

    def __init__(self, rng: np.random.Generator):
        self.conv1 = Conv2d(11, 8, 3, rng, stride=2, padding=1)
        self.conv2 = Conv2d(8, 10, 3, rng, stride=2, padding=1)
        self.conv3 = Conv2d(10, 12, 3, rng, stride=2, padding=1)
        self.head = Linear(12 + self.N_STATS, 6, rng)

    @staticmethod
    def _gradients(gray: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Central-difference image gradients (gx, gy), zero on the border."""
        gx = np.zeros_like(gray)
        gy = np.zeros_like(gray)
        gx[:, 1:-1] = 0.5 * (gray[:, 2:] - gray[:, :-2])
        gy[1:-1, :] = 0.5 * (gray[2:, :] - gray[:-2, :])
        return gx, gy

    @classmethod
    def _solved_flow(cls, gray_t: np.ndarray, gray_s: np.ndarray):
        """Least-squares mean flow (u, v) plus a radial expansion term."""
        h, w = gray_t.shape
        gx, gy = cls._gradients(gray_t)
        dm = gray_t - gray_s
        gxx = float((gx * gx).mean())
        gyy = float((gy * gy).mean())
        gxy = float((gx * gy).mean())
        cxm = float((gx * dm).mean())
        cym = float((gy * dm).mean())
        det = gxx * gyy - gxy * gxy + 1e-12
        u_flow = (gyy * cxm - gxy * cym) / det
        v_flow = (gxx * cym - gxy * cxm) / det
        ys, xs = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
        radial = ((xs - w / 2.0) / w) * gx + ((ys - h / 2.0) / h) * gy
        rr = float((radial * radial).mean()) + 1e-12
        z_flow = float((radial * dm).mean()) / rr
        return u_flow, v_flow, z_flow, gxx, gyy, gxy

    @classmethod
    def _pair_features(cls, target: np.ndarray, source: np.ndarray):
        diff = target - source
        gray_t = target.mean(axis=0)
        gray_s = source.mean(axis=0)
        dm = diff.mean(axis=0)
        gx, gy = cls._gradients(gray_t)
        feats = np.concatenate([target, source, diff, (gx * dm)[None], (gy * dm)[None]], axis=0)

        # pyramid of least-squares flows: coarse levels keep multi-pixel
        # shifts inside the linear regime, so the head gets a readout of the
        # motion direction that is already approximately proportional to it
        stats = []
        t_level, s_level = gray_t, gray_s
        scale = 1.0
        gxx = gyy = gxy = 0.0
        for _ in range(3):
            u, v, z, gxx, gyy, gxy = cls._solved_flow(t_level, s_level)
            stats.extend([u * scale, v * scale, z * scale])
            if min(t_level.shape) >= 16:
                t_level, s_level = _avgpool_image(t_level[None], 2)[0], _avgpool_image(s_level[None], 2)[0]
                scale *= 2.0
        stats.extend([gxx, gyy, gxy, float(dm.mean())])
        return feats, np.array(stats)

    def __call__(self, target: Tensor, source: Tensor) -> tuple[Tensor, Tensor]:
        if target.shape != source.shape or target.ndim != 3:
            raise ValueError(f"expected matching (3, H, W) frames, got {target.shape} and {source.shape}")
        feats, stats = self._pair_features(target.data, source.data)
        x = ad.relu(self.conv1(Tensor(feats)))
        x = ad.relu(self.conv2(x))
        x = ad.relu(self.conv3(x))
        pooled = ad.concat([ad.tmean(x, axis=(1, 2)), Tensor(stats)], axis=0)
        out = self.head(pooled) * self.output_scale
        if not np.all(np.isfinite(out.data)):
            raise ad.TrainingDiverged("pose head produced non-finite output")
        return rotation_from_axis_angle(ad.slice_axis(out, 0, 0, 3)), ad.slice_axis(out, 0, 3, 6)


class DecompositionNet(Module):
    """Reflectance/shading decomposition: a small conv trunk predicts the
    3-channel reflectance; its shallow features, concatenated with the
    input image, feed the single-channel shading head. A call returns
    reflectance (3, H, W) and shading (1, H, W), so the reconstructed
    image is the broadcast product ``reflectance * shading``."""

    def __init__(self, rng: np.random.Generator):
        width = 8
        self.trunk1 = Conv2d(3, width, 3, rng, padding=1)
        self.trunk2 = Conv2d(width, width, 3, rng, padding=1)
        self.reflectance_head = Conv2d(width, 3, 3, rng, padding=1)
        self.shading1 = Conv2d(3 + width, width, 3, rng, padding=1)
        self.shading_head = Conv2d(width, 1, 3, rng, padding=1)

    def __call__(self, image: Tensor) -> tuple[Tensor, Tensor]:
        shallow = ad.relu(self.trunk1(image))
        feat = ad.relu(self.trunk2(shallow))
        reflectance = ad.sigmoid(self.reflectance_head(feat))
        s_in = ad.concat([image, shallow], axis=0)
        shading = ad.sigmoid(self.shading_head(ad.relu(self.shading1(s_in))))
        return reflectance, shading
