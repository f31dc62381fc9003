"""Toy networks: a frozen transformer encoder adapted through low-rank
adapters, residual separable-convolution blocks with channel/spatial
attention, a multi-scale disparity decoder, a pose head, and a
reflectance/shading decomposition head.

The encoder stands in for a large pretrained backbone: its patch
embedding, attention projections, MLP weights, layer norms, and sinusoidal
position table are all frozen; learning reaches it only through the
adapters on the two MLP linears of each block (plus the inserted residual
mixer blocks and the decoder, which are trainable like a depth head).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .adapters import FrozenLinear, InitScheme, InitVariant, make_adapter
from .autodiff import Tensor
from .config import TrainConfig
from .nn import Conv2d, DepthwiseConv2d, LayerNorm, Linear, Module


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
        if x.ndim != 3 or x.shape[0] != self.reduce.weight.shape[1]:
            raise ValueError(f"expected ({self.reduce.weight.shape[1]}, H, W) input, got {x.shape}")
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
    linears carry the (optional) adapters."""

    def __init__(self, dim: int, heads: int, rng: np.random.Generator, adapter_mode: str, rank: int, scheme: InitScheme):
        if heads < 1 or dim % heads != 0:
            raise ValueError(f"heads must be >= 1 and divide dim {dim}, got {heads}")
        self.heads = heads
        self.norm1 = LayerNorm(dim)
        self.wq = FrozenLinear.random(dim, dim, rng)
        self.wk = FrozenLinear.random(dim, dim, rng)
        self.wv = FrozenLinear.random(dim, dim, rng)
        self.wo = FrozenLinear.random(dim, dim, rng)
        self.norm2 = LayerNorm(dim)
        hidden = 4 * dim
        self.fc1 = FrozenLinear.random(hidden, dim, rng)
        self.fc2 = FrozenLinear.random(dim, hidden, rng)
        self.adapter1 = make_adapter(adapter_mode, hidden, dim, rank, scheme)
        self.adapter2 = make_adapter(
            adapter_mode, dim, hidden, rank, InitScheme(scheme.variant, scheme.seed + 1)
        )

    def _attention(self, x: Tensor) -> Tensor:
        dh = x.shape[1] // self.heads
        scale = 1.0 / np.sqrt(dh)
        q, k, v = self.wq(x), self.wk(x), self.wv(x)
        outs = []
        for i in range(self.heads):  # head i owns columns i*dh:(i+1)*dh
            qi, ki, vi = (ad.slice_axis(p, 1, i * dh, (i + 1) * dh) for p in (q, k, v))
            att = ad.softmax(ad.matmul(qi, ki.T) * scale)
            outs.append(ad.matmul(att, vi))
        return self.wo(ad.concat(outs, axis=1))

    def __call__(self, x: Tensor) -> Tensor:
        x = x + self._attention(self.norm1(x))
        h = self.fc1(self.norm2(x), self.adapter1)
        h = ad.gelu(h)
        h = self.fc2(h, self.adapter2)
        return x + h


def _avgpool_image(image: np.ndarray, factor: int) -> np.ndarray:
    c, h, w = image.shape
    return image.reshape(c, h // factor, factor, w // factor, factor).mean(axis=(2, 4))


class DepthDecoder(Module):
    """Upsampling conv decoder emitting sigmoid disparity at four scales
    (native token-grid resolution up to full image resolution).

    Each upsampling stage concatenates a shallow conv feature of the
    average-pooled input image at its resolution, so fine disparity
    structure can lock onto image content rather than the token grid alone.
    Disparity-head biases start at initial_disparity_logit so the initial
    prediction sits near the geometric middle of the depth range instead of
    the harmonic extreme that a zero-logit sigmoid would give."""

    def __init__(self, in_dim: int, rng: np.random.Generator, d_min: float, d_max: float):
        w0, w1, w2, w3 = 28, 22, 18, 14
        skip = 7
        self.proj = Conv2d(in_dim, w0, 1, rng)
        self.skip2 = Conv2d(3, skip, 3, rng, padding=1)
        self.skip1 = Conv2d(3, skip, 3, rng, padding=1)
        self.skip0 = Conv2d(3, skip, 3, rng, padding=1)
        self.conv1 = Conv2d(w0 + skip, w1, 3, rng, padding=1)
        self.conv2 = Conv2d(w1 + skip, w2, 3, rng, padding=1)
        self.conv3 = Conv2d(w2 + skip, w3, 3, rng, padding=1)
        self.head3 = Conv2d(w0, 1, 3, rng, padding=1)
        self.head2 = Conv2d(w1, 1, 3, rng, padding=1)
        self.head1 = Conv2d(w2, 1, 3, rng, padding=1)
        self.head0 = Conv2d(w3, 1, 3, rng, padding=1)
        head_bias = initial_disparity_logit(d_min, d_max)
        for head in (self.head0, self.head1, self.head2, self.head3):
            head.bias.assign(head.bias.data + head_bias)

    @staticmethod
    def _disparity(logits: Tensor) -> Tensor:
        # sigmoid saturates to exactly 0.0/1.0 in float64 around |x|~37 where
        # its gradient is already exactly zero; nudge those values back inside
        # the open interval the decoder promises.
        disp = ad.sigmoid(logits)
        disp = ad.mask_fill(disp, disp.data <= 0.0, 1e-12)
        disp = ad.mask_fill(disp, disp.data >= 1.0, 1.0 - 1e-12)
        return disp

    def __call__(self, feat: Tensor, image: Tensor) -> list[Tensor]:
        # feat is the 1/8-resolution token grid (patch 8)
        pool2 = Tensor(_avgpool_image(image.data, 4))
        pool1 = Tensor(_avgpool_image(image.data, 2))
        f3 = ad.relu(self.proj(feat))
        f2 = ad.relu(self.conv1(ad.concat([ad.upsample_nearest2x(f3), ad.relu(self.skip2(pool2))], axis=0)))
        f1 = ad.relu(self.conv2(ad.concat([ad.upsample_nearest2x(f2), ad.relu(self.skip1(pool1))], axis=0)))
        f0 = ad.relu(self.conv3(ad.concat([ad.upsample_nearest2x(f1), ad.relu(self.skip0(image))], axis=0)))
        disps = [
            self._disparity(self.head0(f0)),
            self._disparity(self.head1(f1)),
            self._disparity(self.head2(f2)),
            self._disparity(self.head3(f3)),
        ]
        return [ad.reshape(d, d.shape[1:]) for d in disps]  # finest first


class ToyDepthNet(Module):
    """Patch-embedding transformer encoder with inserted residual mixer
    blocks, plus the disparity decoder. Output disparities are in (0, 1) at
    four scales with halving resolutions, finest first."""

    def __init__(self, config: TrainConfig, image_hw: tuple[int, int], rng: np.random.Generator):
        h, w = image_hw
        patch, dim, n_blocks, mixer_after = config.patch, config.embed_dim, config.depth_blocks, config.mixer_after
        if patch != 8:
            raise ValueError(f"patch must be 8, got {patch}: the decoder's three 2x stages upsample by 8")
        if h % patch or w % patch:
            raise ValueError(f"image {h}x{w} not divisible by patch {patch}")
        if any(i < 1 or i > n_blocks for i in mixer_after):
            raise ValueError(f"mixer positions {mixer_after} outside 1..{n_blocks}")
        if len(set(mixer_after)) != len(mixer_after):
            raise ValueError(f"mixer positions {mixer_after} repeat a position")
        self.patch = patch
        self.grid_hw = (h // patch, w // patch)
        self.embed_dim = dim
        n_tokens = self.grid_hw[0] * self.grid_hw[1]
        self.embed = FrozenLinear.random(dim, 3 * patch * patch, rng)
        self.positions = Tensor(sinusoidal_positions(n_tokens, dim))
        variant = InitVariant(config.init)
        self.blocks = [
            TransformerBlock(dim, config.heads, rng, config.adapter, config.rank, InitScheme(variant, config.seed + 10 * i))
            for i in range(1, n_blocks + 1)
        ]
        self.mixer_after = tuple(sorted(mixer_after))
        self.mixers = [SeparableResidualBlock(dim, rng) for _ in self.mixer_after]
        self.decoder = DepthDecoder(dim, rng, config.d_min, config.d_max)

    def _tokens(self, image: Tensor) -> Tensor:
        c, h, w = image.shape
        p = self.patch
        gh, gw = self.grid_hw
        x = ad.reshape(image, (c, gh, p, gw, p))
        x = ad.permute(x, (1, 3, 0, 2, 4))
        return ad.reshape(x, (gh * gw, c * p * p))

    def _to_grid(self, tokens: Tensor) -> Tensor:
        gh, gw = self.grid_hw
        return ad.reshape(ad.permute(tokens, (1, 0)), (self.embed_dim, gh, gw))

    def _to_tokens(self, grid: Tensor) -> Tensor:
        gh, gw = self.grid_hw
        return ad.permute(ad.reshape(grid, (self.embed_dim, gh * gw)), (1, 0))

    def __call__(self, image: Tensor) -> list[Tensor]:
        if image.ndim != 3 or image.shape[0] != 3:
            raise ValueError(f"expected a (3, H, W) image, got {image.shape}")
        x = self.embed(self._tokens(image)) + self.positions
        mixer_iter = iter(self.mixers)
        for i, block in enumerate(self.blocks, start=1):
            x = block(x)
            if i in self.mixer_after:
                x = self._to_tokens(next(mixer_iter)(self._to_grid(x)))
        return self.decoder(self._to_grid(x), image)


def initial_disparity_logit(d_min: float, d_max: float) -> float:
    """Logit of the disparity whose depth is the geometric mean of the range;
    used to bias disparity heads so training starts mid-scene with a live
    sigmoid gradient."""
    mid = float(np.sqrt(d_min * d_max))
    disp = (1.0 / mid - 1.0 / d_max) / (1.0 / d_min - 1.0 / d_max)
    return float(np.log(disp / (1.0 - disp)))


def disparity_to_depth(disp: Tensor, d_min: float, d_max: float) -> Tensor:
    """Monotone map from sigmoid disparity in (0, 1) to depth in [d_min, d_max]:
    depth = 1 / (1/d_max + (1/d_min - 1/d_max) * disp)."""
    disp = ad.as_tensor(disp)
    if np.any(disp.data <= 0.0) or np.any(disp.data >= 1.0):
        raise ValueError("disparity must lie strictly inside (0, 1)")
    if not (0 < d_min < d_max):
        raise ValueError(f"need 0 < d_min < d_max, got {d_min}, {d_max}")
    return 1.0 / (1.0 / d_max + (1.0 / d_min - 1.0 / d_max) * disp)


class PoseNet(Module):
    """Relative-pose head over a frame pair.

    Global pooling after rectified convs wipes out motion direction, so the
    input carries explicit normal-flow statistics: the temporal difference
    correlated with the spatial image gradients (the Lucas-Kanade normal
    equations' data terms). Their means give the head a linear readout of
    the translation direction; the conv stack refines the rest. Frames
    enter as values (the pose path differentiates only its own weights).
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

    def __call__(self, target: Tensor, source: Tensor) -> Tensor:
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
        return out


class DecompositionNet(Module):
    """Reflectance/shading decomposition: a small conv trunk predicts the
    3-channel reflectance; its shallow features, concatenated with the
    input image, feed the single-channel shading head."""

    def __init__(self, rng: np.random.Generator):
        width = 8
        self.trunk1 = Conv2d(3, width, 3, rng, padding=1)
        self.trunk2 = Conv2d(width, width, 3, rng, padding=1)
        self.reflectance_head = Conv2d(width, 3, 3, rng, padding=1)
        self.shading1 = Conv2d(3 + width, width, 3, rng, padding=1)
        self.shading_head = Conv2d(width, 1, 3, rng, padding=1)

    def __call__(self, image: Tensor) -> tuple[Tensor, Tensor]:
        if image.ndim != 3 or image.shape[0] != 3:
            raise ValueError(f"expected a (3, H, W) image, got {image.shape}")
        shallow = ad.relu(self.trunk1(image))
        feat = ad.relu(self.trunk2(shallow))
        reflectance = ad.sigmoid(self.reflectance_head(feat))
        s_in = ad.concat([image, shallow], axis=0)
        shading = ad.sigmoid(self.shading_head(ad.relu(self.shading1(s_in))))
        return reflectance, ad.reshape(shading, shading.shape[1:])


def reconstruct(reflectance: Tensor, shading: Tensor) -> Tensor:
    """Compose an image from reflectance (3, H, W) and shading (H, W)."""
    reflectance = ad.as_tensor(reflectance)
    shading = ad.as_tensor(shading)
    if shading.ndim != 2 or reflectance.shape[1:] != shading.shape:
        raise ValueError(f"reflectance {reflectance.shape} and shading {shading.shape} do not align")
    h, w = shading.shape
    return reflectance * ad.reshape(shading, (1, h, w))
