"""Dense float64 tensors with reverse-mode automatic differentiation.

A small eager engine. Each grad-enabled tensor owns one graph node,
separate from its value: an op output's node holds the nodes of its
parents (None for a parent that needs no gradient) and a closure mapping
the upstream adjoint to parent adjoints; a grad-enabled leaf (a tensor no
op produced) gets a node on first use that points back to the leaf weakly,
so the graph holds no reference cycle and keeps no leaf alive.
``backward()`` on a scalar output walks the nodes in reverse topological
order and accumulates gradients into the ``.grad`` of every leaf reachable
from the output. An intermediate tensor's adjoint is dropped once its
closure has run, so its ``.grad`` stays None. Repeated backward calls
accumulate on the leaves; use ``zero_grad`` between steps.

Because nodes hold nodes, not tensors, the graph keeps an array alive only
where a closure reads it. A closure captures the arrays, shapes and flags
its backward reads and never a ``Tensor``; an operand's array is captured
only when the other operand's gradient needs it. An intermediate's array is
therefore freed once no code and no closure refers to it, even while the
graph lives.

Values are immutable once created: an op's output may be a view of its
input (``permute``, ``reshape``), and closures keep arrays by reference,
so writing into a ``.data`` array in place would corrupt other tensors
and later gradients. ``Tensor.assign`` replaces a leaf's array instead.
A graph instance belongs to a single thread.
Reductions use a fixed summation order, so reruns are bit-identical.
"""

from __future__ import annotations

import builtins
import math
import weakref

import numpy as np
from scipy.special import erf as _erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


class TrainingDiverged(RuntimeError):
    """A non-finite loss, pose or gradient, or a warp with no valid pixel:
    the step cannot be taken and the parameters hold their last good state."""


class _Node:
    """Graph record of one grad-enabled tensor. An op node has parent nodes
    and a closure; a leaf node has neither and a weak reference to its leaf."""

    __slots__ = ("parents", "bw", "leaf")

    def __init__(self, parents: tuple["_Node | None", ...] = (), bw=None, leaf: "weakref.ref | None" = None):
        self.parents = parents
        self.bw = bw
        self.leaf = leaf


class Tensor:
    """Dense row-major float64 array plus an optional gradient record.

    ``data`` is the value. ``_node`` is the graph record: set by the op that
    produced a grad-enabled tensor, made on first use for a grad-enabled
    leaf, None otherwise. The graph refers to nodes, never to tensors, so
    dropping an intermediate tensor frees its array unless a closure reads
    it."""

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    # -- construction helpers -------------------------------------------------

    def _graph_node(self) -> _Node | None:
        """This tensor's node, made here for a grad-enabled leaf; None when
        no gradient flows to it."""
        if not self.requires_grad:
            return None
        if self._node is None:
            self._node = _Node(leaf=weakref.ref(self))
        return self._node

    @staticmethod
    def _from_op(data: np.ndarray, parents: tuple["Tensor", ...], bw) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._node = _Node(tuple(p._graph_node() for p in parents), bw)
        return out

    # -- basic introspection ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() needs a single element, shape is {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- leaf mutation (optimizer use only) -------------------------------------

    def assign(self, new_data) -> None:
        """Replace the value of a leaf tensor (between graph builds)."""
        if self._node is not None and self._node.leaf is None:
            raise ValueError("assign is only valid on leaf tensors")
        arr = np.asarray(new_data, dtype=np.float64)
        if arr.shape != self.data.shape:
            raise ValueError(f"assign shape {arr.shape} != tensor shape {self.data.shape}")
        self.data = arr

    def zero_grad(self) -> None:
        self.grad = None

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    @property
    def T(self):
        if self.ndim != 2:
            raise ValueError(f".T needs a 2-d tensor, shape is {self.shape}")
        return permute(self, (1, 0))

    # -- backward ------------------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad of every grad-enabled leaf
        reachable from this scalar; repeated calls add to the leaves' .grad.
        Tensors computed by ops keep .grad None: each adjoint is freed once
        its node's closure has run."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar output, shape is {self.shape}")
        root = self._graph_node()
        if root is None:
            return
        order = _topological_order(root)
        adjoint: dict[int, np.ndarray] = {id(root): np.ones_like(self.data)}
        for node in reversed(order):
            g = adjoint.pop(id(node), None)
            if g is None:
                continue
            if node.bw is None:
                leaf = node.leaf()
                if leaf is not None:  # a dropped leaf has no .grad to set
                    leaf.grad = g if leaf.grad is None else leaf.grad + g
                continue
            for parent, pg in zip(node.parents, node.bw(g)):
                if pg is None or parent is None:
                    continue
                key = id(parent)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + pg
                else:
                    adjoint[key] = pg


def _topological_order(root: _Node) -> list[_Node]:
    """Post-order of the node DAG below root; independent of construction
    interleaving."""
    order: list[_Node] = []
    seen: set[int] = set()
    stack: list[tuple[_Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if parent is not None and id(parent) not in seen:
                stack.append((parent, False))
    return order


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


# -- elementwise binary ops ------------------------------------------------------
# Broadcast rule: numpy's. Shapes align from the right and each axis pair is
# equal or has a 1. An operand's gradient is summed, in one keepdims sum, over
# the axes broadcasting added or stretched; the graph keeps no expanded copy
# of a small operand.


def _check_binary_shapes(a: Tensor, b: Tensor, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    expanded = (1,) * (g.ndim - len(shape)) + shape
    axes = tuple(i for i, (src, dst) in enumerate(zip(expanded, g.shape)) if src == 1 and dst != 1)
    return np.sum(g, axis=axes, keepdims=True).reshape(shape)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "add")
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape))

    return Tensor._from_op(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "sub")
    a_shape, b_shape = a.shape, b.shape

    def bw(g):
        return (_unbroadcast(g, a_shape), _unbroadcast(-g, b_shape))

    return Tensor._from_op(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "mul")
    a_shape, b_shape = a.shape, b.shape
    # each operand's gradient reads the other operand only
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bw(g):
        ga = None if bd is None else _unbroadcast(g * bd, a_shape)
        gb = None if ad is None else _unbroadcast(g * ad, b_shape)
        return (ga, gb)

    return Tensor._from_op(a.data * b.data, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_binary_shapes(a, b, "div")
    a_shape, b_shape = a.shape, b.shape
    a_grad = a.requires_grad
    bd = b.data
    ad = a.data if b.requires_grad else None  # only the divisor's gradient reads a

    def bw(g):
        ga = _unbroadcast(g / bd, a_shape) if a_grad else None
        gb = None if ad is None else _unbroadcast(-g * ad / (bd * bd), b_shape)
        return (ga, gb)

    return Tensor._from_op(a.data / bd, (a, b), bw)


# -- elementwise unary ops ---------------------------------------------------------


def _unary(a, fwd, dfn, of_output: bool = False) -> Tensor:
    """Elementwise op whose local derivative dfn reads one array: the input,
    or the output when of_output. The closure keeps only that array."""
    a = as_tensor(a)
    out_data = fwd(a.data)
    kept = out_data if of_output else a.data

    def bw(g):
        return (g * dfn(kept),)

    return Tensor._from_op(out_data, (a,), bw)


def texp(a) -> Tensor:
    return _unary(a, np.exp, lambda y: y, of_output=True)


def tlog(a) -> Tensor:
    return _unary(a, np.log, lambda x: 1.0 / x)


def tabs(a) -> Tensor:
    # subgradient at 0 is 0 (np.sign(0) == 0)
    return _unary(a, np.abs, np.sign)


def sigmoid(a) -> Tensor:
    def fwd(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    return _unary(a, fwd, lambda y: y * (1.0 - y), of_output=True)


def relu(a) -> Tensor:
    # derivative at 0 defined as 0; y > 0 exactly where x > 0
    return _unary(a, lambda x: np.maximum(x, 0.0), lambda y: (y > 0).astype(np.float64), of_output=True)


def gelu(a) -> Tensor:
    def fwd(x):
        return 0.5 * x * (1.0 + _erf(x * _INV_SQRT2))

    def dfn(x):
        return 0.5 * (1.0 + _erf(x * _INV_SQRT2)) + x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI

    return _unary(a, fwd, dfn)


def tsin(a) -> Tensor:
    return _unary(a, np.sin, np.cos)


def tcos(a) -> Tensor:
    return _unary(a, np.cos, lambda x: -np.sin(x))


def tsqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda y: 0.5 / y, of_output=True)


# -- matmul ---------------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"matmul needs 2-d operands, got shapes {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    # each operand's gradient reads the other operand only
    bd = b.data if a.requires_grad else None
    ad = a.data if b.requires_grad else None

    def bw(g):
        ga = None if bd is None else g @ bd.T
        gb = None if ad is None else ad.T @ g
        return (ga, gb)

    return Tensor._from_op(a.data @ b.data, (a, b), bw)


# -- reductions --------------------------------------------------------------------------


def _normalize_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = tuple(a % ndim for a in axis)
    if len(set(axes)) != len(axes):
        raise ValueError(f"duplicate reduction axes {axis}")
    return axes


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...], keepdims: bool) -> np.ndarray:
    if not keepdims:
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape)


def _check_nonempty(t: Tensor, axes: tuple[int, ...], opname: str) -> None:
    n = 1
    for a in axes:
        n *= t.shape[a]
    if n == 0:
        raise ValueError(f"{opname}: empty reduction over axes {axes} of shape {t.shape}")


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    _check_nonempty(a, axes, "sum")
    out_data = np.sum(a.data, axis=axes, keepdims=keepdims)
    a_shape = a.shape

    def bw(g):
        return (_expand_reduced(np.asarray(g), a_shape, axes, keepdims).copy(),)

    return Tensor._from_op(out_data, (a,), bw)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    _check_nonempty(a, axes, "mean")
    count = 1
    for ax in axes:
        count *= a.shape[ax]
    out_data = np.sum(a.data, axis=axes, keepdims=keepdims) / count
    a_shape = a.shape

    def bw(g):
        return (_expand_reduced(np.asarray(g) / count, a_shape, axes, keepdims).copy(),)

    return Tensor._from_op(out_data, (a,), bw)


def tmax(a, axis=None, keepdims: bool = False) -> Tensor:
    """Max reduction; gradient routes to the first maximal element in scan order."""
    a = as_tensor(a)
    axes = _normalize_axes(axis, a.ndim)
    _check_nonempty(a, axes, "max")
    tail = range(a.ndim - len(axes), a.ndim)
    moved = np.moveaxis(a.data, axes, tail)
    lead_shape = moved.shape[: a.ndim - len(axes)]
    reduced_shape = moved.shape[a.ndim - len(axes) :]
    flat = moved.reshape(lead_shape + (-1,))
    idx = np.argmax(flat, axis=-1)
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    if keepdims:
        for ax in sorted(axes):
            out_data = np.expand_dims(out_data, ax)
    a_shape = a.shape

    def bw(g):
        gval = np.asarray(g)
        if keepdims:
            gval = gval.reshape(lead_shape)
        full = np.zeros(a_shape)
        at = np.indices(lead_shape, sparse=True) + np.unravel_index(idx, reduced_shape)
        np.moveaxis(full, axes, tail)[at] = gval
        return (full,)

    return Tensor._from_op(out_data, (a,), bw)


def lower_median(values: np.ndarray) -> float:
    """Median of a flat array under the lower-middle rule for even counts."""
    flat = np.sort(np.asarray(values, dtype=np.float64).ravel())
    if flat.size == 0:
        raise ValueError("median of an empty array")
    return float(flat[(flat.size - 1) // 2])


# -- softmax / layer norm ----------------------------------------------------------------


def softmax(a) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    a = as_tensor(a)
    shifted = a.data - np.max(a.data, axis=-1, keepdims=True)
    e = np.exp(shifted)
    out_data = e / np.sum(e, axis=-1, keepdims=True)

    def bw(g):
        dot = np.sum(g * out_data, axis=-1, keepdims=True)
        return (out_data * (g - dot),)

    return Tensor._from_op(out_data, (a,), bw)


def layer_norm(x, gain, bias) -> Tensor:
    """Normalize over the last axis (variance plus 1e-5), then scale and
    shift.

    gain and bias are 1-d with the size of the last axis.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(f"layer_norm gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}")
    mu = np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean((x.data - mu) ** 2, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * inv_std
    out_data = xhat * gain.data + bias.data
    gain_grad, bias_grad = gain.requires_grad, bias.requires_grad
    gd = gain.data if x.requires_grad else None  # only the input's gradient reads the gain

    def bw(g):
        lead_axes = tuple(range(g.ndim - 1))
        ggain = np.sum(g * xhat, axis=lead_axes) if gain_grad else None
        gbias = np.sum(g, axis=lead_axes) if bias_grad else None
        gx = None
        if gd is not None:
            gxhat = g * gd
            m1 = np.mean(gxhat, axis=-1, keepdims=True)
            m2 = np.mean(gxhat * xhat, axis=-1, keepdims=True)
            gx = inv_std * (gxhat - m1 - xhat * m2)
        return (gx, ggain, gbias)

    return Tensor._from_op(out_data, (x, gain, bias), bw)


# -- structural ops --------------------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    shape = tuple(shape)
    out_data = a.data.reshape(shape)
    a_shape = a.shape

    def bw(g):
        return (g.reshape(a_shape),)

    return Tensor._from_op(out_data, (a,), bw)


def permute(a, axes) -> Tensor:
    a = as_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))

    def bw(g):
        return (np.transpose(g, inverse),)

    return Tensor._from_op(np.transpose(a.data, axes), (a,), bw)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [as_tensor(t) for t in tensors]
    if not tensors:
        raise ValueError("concat of an empty list")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    needs_grad = [t.requires_grad for t in tensors]

    def bw(g):
        grads = []
        for needed, start, stop in zip(needs_grad, offsets[:-1], offsets[1:]):
            if needed:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(int(start), int(stop))
                grads.append(np.ascontiguousarray(g[tuple(sl)]))
            else:
                grads.append(None)
        return tuple(grads)

    return Tensor._from_op(out_data, tuple(tensors), bw)


def slice_axis(a, axis: int, start: int, stop: int) -> Tensor:
    a = as_tensor(a)
    axis = axis % a.ndim
    sl = [slice(None)] * a.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    a_shape = a.shape

    def bw(g):
        full = np.zeros(a_shape)
        full[sl] = g
        return (full,)

    return Tensor._from_op(np.ascontiguousarray(a.data[sl]), (a,), bw)


def mask_fill(a, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True by a constant; their gradient is cut."""
    a = as_tensor(a)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != a.shape:
        raise ValueError(f"mask shape {mask.shape} != tensor shape {a.shape}")
    out_data = np.where(mask, value, a.data)
    keep = ~mask

    def bw(g):
        return (g * keep,)

    return Tensor._from_op(out_data, (a,), bw)


def upsample_nearest2x(a) -> Tensor:
    """Nearest-neighbor 2x upsampling of the trailing two axes."""
    a = as_tensor(a)
    out_data = np.repeat(np.repeat(a.data, 2, axis=-2), 2, axis=-1)

    def bw(g):
        lead = g.shape[:-2]
        h2, w2 = g.shape[-2], g.shape[-1]
        return (g.reshape(lead + (h2 // 2, 2, w2 // 2, 2)).sum(axis=(-3, -1)),)

    return Tensor._from_op(out_data, (a,), bw)


# -- convolutions -------------------------------------------------------------------------------
# Both convolutions read their input through one padded-pitch layout
# (_PitchGrid). The input is padded once into a zero buffer with spare zero
# rows below it, and each channel's rows are read as one flat run whose row
# pitch is the padded width. At stride s, output pixel (oy, ox) of tap
# (i, j) reads run element (oy*s + i)*pitch + ox*s + j, so the window of a
# tap over every output row is a (C, ho, cols) view, cols = ceil(pitch/s):
# at stride 1 one contiguous run per channel, and no per-tap copy is made.
#
# conv2d forward computes on that (ho, cols) grid, then crops the columns at
# or past wo, which read right-hand padding or wrap into the next row. It
# adds one BLAS product per tap, (C_out, C_in) @ (C_in, ho*cols), so a 1x1
# conv is a single GEMM. Each output element is a length-K dot product,
# K = C_in*kh*kw, summed in whatever order BLAS picks: there is no order
# contract, and it differs from a per-pixel loop by at most
# K*eps*sum(|x||k|) over its window. Reruns at a fixed BLAS build are
# bit-identical; OpenBLAS threads split a product over output blocks, not
# over K, so one and two threads give the same bits. depthwise_conv2d has
# no channel sum to hand to BLAS; it adds one tap at a time in
# (kernel-row, kernel-column) order from zero, and stays bit-identical to a
# plain loop.
#
# Backward has no order contract either. It zero-pads the output gradient to
# the grid, so the discarded columns contribute exact zeros, and contracts
# whole channel blocks per tap on the same views. The closure keeps no padded
# buffer. It keeps the input array only when the kernel needs a gradient,
# and re-pads it there; it keeps the kernel array only when the input needs
# one. A frozen convolution over a grad-enabled input so holds only its
# kernel between forward and backward.


def _conv_geometry(hp: int, wp: int, kh: int, kw: int, stride: int) -> tuple[int, int]:
    if kh > hp or kw > wp:
        raise ValueError(f"kernel ({kh}x{kw}) larger than padded input ({hp}x{wp})")
    return (hp - kh) // stride + 1, (wp - kw) // stride + 1


class _PitchGrid:
    """Padded-pitch geometry of one convolution over a (C, H, W) input."""

    def __init__(self, x_shape, kh: int, kw: int, stride: int, padding: int):
        _, self.h, self.w = x_shape
        self.stride, self.padding = stride, padding
        hp, self.pitch = self.h + 2 * padding, self.w + 2 * padding
        self.ho, self.wo = _conv_geometry(hp, self.pitch, kh, kw, stride)
        self.cols = -(-self.pitch // stride)
        # spare rows below the padded input: the last tap's run starts at
        # (kh-1)*pitch + kw-1 and spans ho*stride rows
        self.rows = self.ho * stride + kh

    def pad(self, data: np.ndarray) -> np.ndarray:
        """Zero buffer (C, rows, pitch) holding data at the padding offset."""
        p = self.padding
        return np.pad(data, ((0, 0), (p, self.rows - p - self.h), (p, p)))

    def unpad(self, buf: np.ndarray) -> np.ndarray:
        p = self.padding
        return np.ascontiguousarray(buf[:, p : p + self.h, p : p + self.w])

    def window(self, buf: np.ndarray, i: int, j: int) -> np.ndarray:
        """View (C, ho, cols) of the buffer elements tap (i, j) reads."""
        c = buf.shape[0]
        start = i * self.pitch + j
        run = buf.reshape(c, -1)[:, start : start + self.ho * self.stride * self.pitch]
        return run.reshape(c, self.ho, self.stride * self.pitch)[:, :, : self.pitch : self.stride]

    def crop(self, out: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(out[:, :, : self.wo])

    def widen(self, g: np.ndarray) -> np.ndarray:
        """Output gradient zero-padded from (C, ho, wo) to the grid."""
        gq = np.zeros(g.shape[:2] + (self.cols,))
        gq[:, :, : self.wo] = g
        return gq


def conv2d(x, kernel, stride=1, padding=0) -> Tensor:
    """Cross-correlation of a (C_in, H, W) input with a (C_out, C_in, kh, kw) kernel."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ValueError(f"conv2d needs (C,H,W) input and (Co,Ci,kh,kw) kernel, got {x.shape} and {kernel.shape}")
    c_out, c_in, kh, kw = kernel.shape
    if x.shape[0] != c_in:
        raise ValueError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv2d kernel extents must be odd, got {kh}x{kw}")
    grid = _PitchGrid(x.shape, kh, kw, stride, padding)
    xb = grid.pad(x.data)
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    out = np.zeros((c_out, grid.ho * grid.cols))
    for i, j in taps:
        out += kernel.data[:, :, i, j] @ grid.window(xb, i, j).reshape(c_in, -1)
    kd = kernel.data if x.requires_grad else None
    xd = x.data if kernel.requires_grad else None
    k_shape = kernel.shape

    def bw(g):
        gq = grid.widen(g).reshape(c_out, -1)
        gx = None
        gk = None
        if kd is not None:
            gb = np.zeros((c_in, grid.rows, grid.pitch))
            for i, j in taps:
                win = grid.window(gb, i, j)
                win += (kd[:, :, i, j].T @ gq).reshape(win.shape)
            gx = grid.unpad(gb)
        if xd is not None:
            xb = grid.pad(xd)
            gk = np.empty(k_shape)
            for i, j in taps:
                gk[:, :, i, j] = gq @ grid.window(xb, i, j).reshape(c_in, -1).T
        return (gx, gk)

    return Tensor._from_op(grid.crop(out.reshape(c_out, grid.ho, grid.cols)), (x, kernel), bw)


def depthwise_conv2d(x, kernel, stride=1, padding=0) -> Tensor:
    """Per-channel spatial convolution: (C, H, W) input, (C, kh, kw) kernel."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise ValueError(f"depthwise_conv2d needs (C,H,W) input and (C,kh,kw) kernel, got {x.shape} and {kernel.shape}")
    c, kh, kw = kernel.shape
    if x.shape[0] != c:
        raise ValueError(f"depthwise_conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"depthwise_conv2d kernel extents must be odd, got {kh}x{kw}")
    grid = _PitchGrid(x.shape, kh, kw, stride, padding)
    xb = grid.pad(x.data)
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    out = np.zeros((c, grid.ho, grid.cols))
    for i, j in taps:
        out += kernel.data[:, i, j][:, None, None] * grid.window(xb, i, j)
    kd = kernel.data if x.requires_grad else None
    xd = x.data if kernel.requires_grad else None
    k_shape = kernel.shape

    def bw(g):
        gq = grid.widen(g)
        gx = None
        gk = None
        if kd is not None:
            gb = np.zeros((c, grid.rows, grid.pitch))
            for i, j in taps:
                win = grid.window(gb, i, j)
                win += kd[:, i, j][:, None, None] * gq
            gx = grid.unpad(gb)
        if xd is not None:
            xb = grid.pad(xd)
            gk = np.empty(k_shape)
            for i, j in taps:
                gk[:, i, j] = np.einsum("chw,chw->c", gq, grid.window(xb, i, j))
        return (gx, gk)

    return Tensor._from_op(grid.crop(out), (x, kernel), bw)


# -- bilinear sampling --------------------------------------------------------------------------


def bilinear_sample(source, grid) -> tuple[Tensor, Tensor]:
    """Sample a (C, H, W) source at continuous pixel coordinates.

    grid is (2, Ho, Wo): grid[0] holds x (column) and grid[1] y (row)
    coordinates in source pixel units, integer coordinates addressing pixel
    centers. Samples outside [0, W-1] x [0, H-1] produce value 0 and
    validity 0. Gradients flow to both the source values and the grid.
    Returns (sampled (C, Ho, Wo), validity (Ho, Wo)).

    Coordinates within 1e-9 px of the integer lattice snap to it before
    interpolation, so algebraically-identity warps survive float rounding
    bit-exactly; the band is far below any finite-difference step.
    """
    source, grid = as_tensor(source), as_tensor(grid)
    if source.ndim != 3 or grid.ndim != 3 or grid.shape[0] != 2:
        raise ValueError(f"bilinear_sample needs (C,H,W) source and (2,Ho,Wo) grid, got {source.shape} and {grid.shape}")
    c, h, w = source.shape
    u = grid.data[0]
    v = grid.data[1]
    u_round = np.round(u)
    v_round = np.round(v)
    u = np.where(np.abs(u - u_round) <= 1e-9, u_round, u)
    v = np.where(np.abs(v - v_round) <= 1e-9, v_round, v)
    valid = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)

    x0 = np.floor(u).astype(np.int64)
    y0 = np.floor(v).astype(np.int64)
    x1 = x0 + 1
    y1 = y0 + 1
    wx = u - x0
    wy = v - y0

    def inb(yy, xx):
        return (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h)

    corners = []
    for yy, xx, wgt in (
        (y0, x0, (1.0 - wx) * (1.0 - wy)),
        (y0, x1, wx * (1.0 - wy)),
        (y1, x0, (1.0 - wx) * wy),
        (y1, x1, wx * wy),
    ):
        ok = inb(yy, xx) & valid
        yc = np.clip(yy, 0, h - 1)
        xc = np.clip(xx, 0, w - 1)
        corners.append((yc, xc, wgt * ok, ok))

    sd = source.data
    out = np.zeros((c,) + u.shape)
    vals = []
    for yc, xc, wgt, ok in corners:
        val = sd[:, yc, xc] * ok[None, :, :]
        vals.append(val)
        out += wgt[None, :, :] * val

    # the source gradient reads the corners, the grid gradient the slopes
    # of the sampled values along u and v
    if not source.requires_grad:
        corners = None
    du = dv = None
    if grid.requires_grad:
        v00, v01, v10, v11 = vals
        du = (1.0 - wy)[None] * (v01 - v00) + wy[None] * (v11 - v10)
        dv = (1.0 - wx)[None] * (v10 - v00) + wx[None] * (v11 - v01)

    def bw(g):
        gsrc = None
        ggrid = None
        if corners is not None:
            # bincount over flattened indices is much faster than np.add.at;
            # channel ch's pixels are offset by ch*h*w, so one call per
            # corner fills every channel and each bin still sums in pixel order
            offsets = np.arange(c)[:, None] * (h * w)
            acc = np.zeros(c * h * w)
            for yc, xc, wgt, ok in corners:
                idx = (offsets + (yc * w + xc).ravel()).ravel()
                acc += np.bincount(idx, weights=(g * wgt[None, :, :]).ravel(), minlength=c * h * w)
            gsrc = acc.reshape(c, h, w)
        if du is not None:
            gu = np.sum(g * du, axis=0) * valid
            gv = np.sum(g * dv, axis=0) * valid
            ggrid = np.stack([gu, gv], axis=0)
        return (gsrc, ggrid)

    sampled = Tensor._from_op(out, (source, grid), bw)
    return sampled, Tensor(valid.astype(np.float64))


# -- gradient checking (used by the CLI; tests carry their own oracle) -----------------------------


def max_relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Infinity-norm difference normalized by the larger magnitude (floored at 1)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = builtins.max(1.0, float(np.max(np.abs(a))) if a.size else 0.0, float(np.max(np.abs(b))) if b.size else 0.0)
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    return diff / scale


def numeric_gradient(f, leaf: Tensor, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of the scalar f() w.r.t. every element of leaf."""
    base = leaf.data.copy()
    g = np.zeros_like(base)
    flat = base.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        leaf.assign(flat.reshape(base.shape))
        up = f().item()
        flat[i] = orig - eps
        leaf.assign(flat.reshape(base.shape))
        down = f().item()
        flat[i] = orig
        gf[i] = (up - down) / (2.0 * eps)
    leaf.assign(base)
    return g


def gradient_check(f, leaves, eps: float = 1e-6, tol: float = 1e-5) -> tuple[bool, float]:
    """Compare autodiff and finite-difference gradients of the scalar f().

    Returns (all-within-tol, worst relative error).
    """
    for leaf in leaves:
        leaf.zero_grad()
    out = f()
    out.backward()
    worst = 0.0
    for leaf in leaves:
        numeric = numeric_gradient(f, leaf, eps=eps)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        worst = builtins.max(worst, max_relative_error(analytic, numeric))
    return worst <= tol, worst
