"""Independent reference implementations used as test oracles.

Everything here is written as plain scalar loops over numpy arrays (or
direct closed forms, or scipy: a rotation is the matrix exponential of its
axis-angle's skew matrix), deliberately sharing no code with the package
under test, except two groups. The composed layers are the forms the
package's fused layer ops replaced, built from its smaller autodiff ops,
so a test can require the fused op to give the same bits, values and
gradients. The helpers at the end are test-only drivers of package code:
a checkpoint header edit, a scene directory's frame
renumbering, the ground-truth relative pose of a frame pair and a
ground-truth co-visibility raster. Finite differences are central, step
1e-6 unless stated.
"""

import functools
import json
import operator
from pathlib import Path

import numpy as np
import scipy.linalg

from depthlab import autodiff as ad

FD_EPS = 1e-6


def fd_gradient(func, arrays, wrt, eps=FD_EPS):
    """Central finite differences of func(*arrays) w.r.t. arrays[wrt].

    func consumes plain numpy arrays and returns a python float.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    base = arrays[wrt]
    grad = np.zeros_like(base)
    it = np.nditer(base, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = base[idx]
        base[idx] = orig + eps
        up = func(*arrays)
        base[idx] = orig - eps
        down = func(*arrays)
        base[idx] = orig
        grad[idx] = (up - down) / (2.0 * eps)
        it.iternext()
    return grad


def rel_err(a, b):
    """Infinity-norm difference scaled by the larger magnitude, floored at 1."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


# -- convolution loop oracles ------------------------------------------------------


def conv2d_loops(x, kernel, stride=1, padding=0):
    """Direct 6-nested-loop cross-correlation, accumulating per output pixel
    in (input channel, kernel row, kernel column) order."""
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    c_out, c_in, kh, kw = kernel.shape
    sh = sw = int(stride)
    ph = pw = int(padding)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho = (xp.shape[1] - kh) // sh + 1
    wo = (xp.shape[2] - kw) // sw + 1
    out = np.zeros((c_out, ho, wo))
    for co in range(c_out):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for ci in range(c_in):
                    for i in range(kh):
                        for j in range(kw):
                            acc += kernel[co, ci, i, j] * xp[ci, oy * sh + i, ox * sw + j]
                out[co, oy, ox] = acc
    return out


def conv2d_input_grad_taps(g, kernel, x_shape, stride=1, padding=0):
    """Input gradient of a one-output-channel convolution, tap by tap in
    (kernel-row, kernel-column) order from zero: each tap adds the broadcast
    product of its (C_in,) kernel column and the (ho, wo) output gradient
    into the padded input positions it read."""
    g = np.asarray(g, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    _, _, kh, kw = kernel.shape
    c_in, h, w = x_shape
    _, ho, wo = g.shape
    s, p = int(stride), int(padding)
    gp = np.zeros((c_in, h + 2 * p, w + 2 * p))
    for i in range(kh):
        for j in range(kw):
            gp[:, i : i + (ho - 1) * s + 1 : s, j : j + (wo - 1) * s + 1 : s] += kernel[0, :, i, j][:, None, None] * g[0]
    return gp[:, p : p + h, p : p + w]


def depthwise_conv2d_loops(x, kernel, stride=1, padding=0):
    x = np.asarray(x, dtype=np.float64)
    kernel = np.asarray(kernel, dtype=np.float64)
    c, kh, kw = kernel.shape
    sh = sw = int(stride)
    ph = pw = int(padding)
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw)))
    ho = (xp.shape[1] - kh) // sh + 1
    wo = (xp.shape[2] - kw) // sw + 1
    out = np.zeros((c, ho, wo))
    for ch in range(c):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for i in range(kh):
                    for j in range(kw):
                        acc += kernel[ch, i, j] * xp[ch, oy * sh + i, ox * sw + j]
                out[ch, oy, ox] = acc
    return out


# -- composed layers ------------------------------------------------------------------


def linear_composed(rows, weight, bias, branch=None):
    """(rows @ weight.T + branch) + bias as a matmul over the transposed
    weight and two adds."""
    y = ad.matmul(rows, weight.T)
    if branch is not None:
        y = y + branch
    return y + bias


def attention_per_head(q, k, v, heads):
    """One head at a time: head i owns columns i*dh:(i+1)*dh and gives
    softmax(q_i k_i^T / sqrt(dh)) v_i; the heads' outputs are concatenated."""
    dh = q.shape[1] // heads
    scale = 1.0 / np.sqrt(dh)
    outs = []
    for i in range(heads):
        qi, ki, vi = (ad.slice_axis(p, 1, i * dh, (i + 1) * dh) for p in (q, k, v))
        att = ad.softmax(ad.matmul(qi, ki.T) * scale)
        outs.append(ad.matmul(att, vi))
    return ad.concat(outs, axis=1)


def conv_plus_bias(conv, x, kernel, bias, **kwargs):
    """An unbiased conv2d or depthwise_conv2d, then the bias added per channel."""
    return conv(x, kernel, **kwargs) + ad.reshape(bias, (-1, 1, 1))


# -- SSIM and loss loop oracles ------------------------------------------------------


def _box3_loops(img):
    """3x3 zero-padded mean pooling of an (H, W) array, per pixel."""
    h, w = img.shape
    out = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    yy, xx = y + dy, x + dx
                    if 0 <= yy < h and 0 <= xx < w:
                        acc += img[yy, xx]
            out[y, x] = acc / 9.0
    return out


def ssim_map_loops(x, y, c1=0.01**2, c2=0.03**2):
    """Per-pixel SSIM map, channels averaged, matching 3x3 zero-pad pooling."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
        y = y[None]
    maps = []
    for c in range(x.shape[0]):
        mx = _box3_loops(x[c])
        my = _box3_loops(y[c])
        xx = _box3_loops(x[c] * x[c])
        yy = _box3_loops(y[c] * y[c])
        xy = _box3_loops(x[c] * y[c])
        vx = xx - mx * mx
        vy = yy - my * my
        cov = xy - mx * my
        maps.append(((2 * mx * my + c1) * (2 * cov + c2)) / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return np.mean(maps, axis=0)


def reflectance_loss_loops(r_t, r_w, validity=None):
    r_t = np.asarray(r_t, dtype=np.float64)
    r_w = np.asarray(r_w, dtype=np.float64)
    c, h, w = r_t.shape
    if validity is None:
        validity = np.ones((h, w))
    total = 0.0
    count = 0.0
    for y in range(h):
        for x in range(w):
            if validity[y, x] > 0:
                acc = 0.0
                for ch in range(c):
                    acc += abs(r_t[ch, y, x] - r_w[ch, y, x])
                total += acc / c
                count += 1
    return total / count


def photometric_loss_loops(a, b, alpha, validity=None):
    """alpha * (1 - SSIM)/2 + (1 - alpha) * L1, means over valid pixels."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    smap = ssim_map_loops(a, b)
    c, h, w = a.shape
    if validity is None:
        validity = np.ones((h, w))
    s_total = l_total = count = 0.0
    for y in range(h):
        for x in range(w):
            if validity[y, x] > 0:
                s_total += smap[y, x]
                acc = 0.0
                for ch in range(c):
                    acc += abs(a[ch, y, x] - b[ch, y, x])
                l_total += acc / c
                count += 1
    return alpha * (1.0 - s_total / count) / 2.0 + (1.0 - alpha) * (l_total / count)


def smoothness_loss_loops(depth, image, labels):
    depth = np.asarray(depth, dtype=np.float64)
    image = np.asarray(image, dtype=np.float64)
    labels = np.asarray(labels)
    c, h, w = image.shape
    total = 0.0
    count = 0
    for y in range(h):
        for x in range(w - 1):
            if labels[y, x] == labels[y, x + 1]:
                gi = 0.0
                for ch in range(c):
                    gi += abs(image[ch, y, x + 1] - image[ch, y, x])
                total += abs(depth[y, x + 1] - depth[y, x]) * np.exp(-gi / c)
                count += 1
    for y in range(h - 1):
        for x in range(w):
            if labels[y, x] == labels[y + 1, x]:
                gi = 0.0
                for ch in range(c):
                    gi += abs(image[ch, y + 1, x] - image[ch, y, x])
                total += abs(depth[y + 1, x] - depth[y, x]) * np.exp(-gi / c)
                count += 1
    return total / count if count else 0.0


# -- pose oracles ----------------------------------------------------------------------


def rotation_expm(axis_angle):
    """Rotation of an axis-angle 3-vector: expm of its skew matrix."""
    x, y, z = np.asarray(axis_angle, dtype=np.float64)
    return scipy.linalg.expm(np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]))


def apply_pose(pose, points):
    """R x + t for (3, ...) points and a pose's rotation R and translation t."""
    flat = points.reshape(3, -1)
    return (pose.rotation @ flat + pose.translation[:, None]).reshape(points.shape)


# -- metric loop oracles ---------------------------------------------------------------


def lower_median_loops(values):
    ordered = sorted(float(v) for v in np.asarray(values).ravel())
    return ordered[(len(ordered) - 1) // 2]


def depth_metrics_loops(pred, gt, mask=None):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if mask is None:
        mask = np.isfinite(gt) & (gt > 0)
    d = [float(v) for v in pred[mask]]
    g = [float(v) for v in gt[mask]]
    n = len(d)
    abs_rel = sum(abs(a - b) / b for a, b in zip(d, g)) / n
    sq_rel = sum((a - b) ** 2 / b for a, b in zip(d, g)) / n
    rmse = (sum((a - b) ** 2 for a, b in zip(d, g)) / n) ** 0.5
    rmse_log = (sum((np.log(a) - np.log(b)) ** 2 for a, b in zip(d, g)) / n) ** 0.5
    deltas = []
    for t in (1.25, 1.25**2, 1.25**3):
        deltas.append(sum(1.0 for a, b in zip(d, g) if max(a / b, b / a) < t) / n)
    return {
        "abs_rel": abs_rel,
        "sq_rel": sq_rel,
        "rmse": rmse,
        "rmse_log": rmse_log,
        "delta1": deltas[0],
        "delta2": deltas[1],
        "delta3": deltas[2],
    }


def median_scale_loops(pred, gt, mask=None, cap=150.0):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if mask is None:
        mask = np.isfinite(gt) & (gt > 0)
    f = lower_median_loops(gt[mask]) / lower_median_loops(pred[mask])
    return np.minimum(pred * f, cap), f


def ate_grid_search(pred_positions, gt_positions):
    """Per 5-frame window: brute-force the alignment scale over a coarse grid,
    refine around the winner down to step 1e-8, report the best residual
    RMSE; mean over windows."""
    p = np.asarray(pred_positions, dtype=np.float64)
    g = np.asarray(gt_positions, dtype=np.float64)

    def window_score(pw, gw, s):
        res = gw - s * pw
        return float(np.sqrt(np.mean(np.sum(res**2, axis=1))))

    segments = []
    for start in range(len(p) - 4):
        pw = p[start : start + 5] - p[start]
        gw = g[start : start + 5] - g[start]
        lo, hi = -10.0, 10.0
        best_s = 0.0
        step = (hi - lo) / 4000.0
        while step > 1e-8:
            grid = np.arange(lo, hi + step / 2, step)
            scores = [window_score(pw, gw, s) for s in grid]
            best_s = float(grid[int(np.argmin(scores))])
            lo, hi = best_s - 2 * step, best_s + 2 * step
            step /= 100.0
        segments.append(window_score(pw, gw, best_s))
    return float(np.mean(segments)), segments


def _edit_checkpoint(path_in, path_out, edit) -> None:
    """Copy a checkpoint with its parsed header handed to `edit(header)`,
    which changes it in place and returns bytes to append to the payload,
    in the file's own layout (8-byte magic, u32 version, u64 header length,
    sorted compact JSON header, payload)."""
    with open(path_in, "rb") as fh:
        blob = fh.read()
    start = 8 + 4 + 8
    length = int.from_bytes(blob[12:start], "little")
    header = json.loads(blob[start : start + length])
    extra = edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path_out, "wb") as fh:
        fh.write(blob[:12] + len(text).to_bytes(8, "little") + text + blob[start + length :] + extra)


_DELETE = object()


def header_edit(*keys, value=_DELETE):
    """An edit for `_edit_checkpoint` that sets the header value at the path
    `keys` (object keys and list indices) to `value`, or deletes it when no
    value is given: a file no writer of this format leaves."""

    def edit(header):
        *path, last = keys
        target = functools.reduce(operator.getitem, path, header)
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
        return b""

    return edit


def with_second_entry(path_in, path_out, name: str, value) -> None:
    """Copy a checkpoint with a second entry for tensor `name` (its frozen
    flag, `value`'s shape) appended to the header and `value` to the
    payload: a file that names one tensor twice, which no module's
    parameters produce."""

    def edit(header):
        (frozen,) = [entry["frozen"] for entry in header["tensors"] if entry["name"] == name]
        value_f8 = np.ascontiguousarray(value, dtype="<f8")
        header["tensors"].append({"name": name, "shape": list(value_f8.shape), "frozen": frozen})
        return value_f8.tobytes()

    _edit_checkpoint(path_in, path_out, edit)


def shift_frame_ids(directory, shift: int) -> None:
    """Add `shift` (> 0) to every frame id of a scene directory, as a
    sequence recorded with other frame numbers would be laid out: rename
    its rasters, highest id first so none is overwritten, and rewrite
    trajectory.txt's indices."""
    trajectory = Path(directory) / "trajectory.txt"
    lines = trajectory.read_text().splitlines()
    ids = [int(line.split(maxsplit=1)[0]) for line in lines]
    for k in reversed(ids):
        for stem, ext in (("frame", "ppm"), ("depth", "pfm"), ("labels", "pgm")):
            Path(directory, f"{stem}_{k:03d}.{ext}").rename(Path(directory, f"{stem}_{k + shift:03d}.{ext}"))
    trajectory.write_text("".join(f"{k + shift} {line.split(maxsplit=1)[1]}\n" for k, line in zip(ids, lines)))


def relative_pose(scene, t, s):
    """Ground-truth transform taking frame-t camera points to frame s: into
    the world by t's camera-to-world pose, then out by s's inverse."""
    poses = scene.trajectory.poses
    return poses[s].inverse().compose(poses[t])


def covisibility_mask(scene, t, s, tol=0.05):
    """Pixels of frame t whose surface point is visible in frame s.

    A target point is co-visible when its reprojection lands inside frame s
    and the source depth there matches the transformed point's depth within
    a relative tolerance (occlusion test)."""
    cam = scene.cam
    pose = relative_pose(scene, t, s)
    pts = cam.pixel_rays() * scene.depths[t]
    moved = apply_pose(pose, pts)
    z = moved[2]
    with np.errstate(divide="ignore", invalid="ignore"):
        u = cam.fx * moved[0] / z + cam.cx
        v = cam.fy * moved[1] / z + cam.cy
    inside = (z > 1e-6) & (u >= 0) & (u <= cam.width - 1) & (v >= 0) & (v <= cam.height - 1)
    ui = np.clip(np.round(u).astype(int), 0, cam.width - 1)
    vi = np.clip(np.round(v).astype(int), 0, cam.height - 1)
    source_z = scene.depths[s][vi, ui]
    consistent = np.abs(source_z - z) <= tol * np.abs(z)
    return inside & consistent
