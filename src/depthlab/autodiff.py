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

Each layer of the frozen encoder is one fused op with a hand-written
closure, in place of a chain of small ops and their temporaries:
``affine`` is a dense layer rows @ W.T, plus an adapter's branch, plus the
bias; ``attention`` runs every head of scaled dot-product attention as one
stacked matmul, softmax and matmul; ``conv2d`` and ``depthwise_conv2d``
add their bias; ``layer_norm`` and ``gelu`` are single ops. A fused op may
also recompute intermediates from its inputs in backward rather than hold
them until then, trading a second pass of cheap arithmetic for memory:
``bilinear_sample`` recomputes its corner weights and values,
``losses.ssim`` its local statistics, and ``gelu``'s derivative its erf.

``gelu`` is exact, x * Phi(x). Its erf is ``_erf``, numpy only: Cephes'
two rational approximations (x T(x^2)/U(x^2) on |x| <= 1, and
1 - exp(-x^2) P(|x|)/Q(|x|) above), within 4 ulp of ``math.erf`` (3 ulp on
a dense grid over [-10, 10]), the accuracy of scipy's erf on those points.

Values are immutable once created: an op's output may be a view of its
input (``permute``, ``reshape``), and closures keep arrays by reference,
so writing into a ``.data`` array in place would corrupt other tensors
and later gradients. ``Tensor.assign`` replaces a leaf's array instead.
A graph instance belongs to a single thread.
Reductions use a fixed summation order, so reruns are bit-identical.

Grad mode: inside a ``with no_grad():`` block ops compute the same values
but give their outputs no node, so no graph is built and every output has
``requires_grad`` False. The inference entry points of ``train``
(per-frame depth reports, which cover validation and ``evaluate_scene``,
and the predicted trajectory) run in it. The mode is one process-wide
flag, not per thread, so it shares the graph's single-thread rule; the
block restores the previous mode on exit, also on an exception and when
nested.
"""

from __future__ import annotations

import contextlib
import math
import weakref

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c rational pieces: erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 < x < 8; coefficients highest power
# first, U and Q with their implicit leading 1 written out
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2,
)


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Run the block without building a graph; the previous mode returns on
    exit."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


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
        if _grad_enabled and any(p.requires_grad for p in parents):
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
    if a.shape == b.shape:
        return
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
    """Exact GELU, x * Phi(x), through _erf in forward and derivative."""

    def fwd(x):
        out = _erf(x * _INV_SQRT2)
        out += 1.0
        out *= 0.5 * x
        return out

    def dfn(x):
        # Phi(x) + x * phi(x)
        out = _erf(x * _INV_SQRT2)
        out += 1.0
        out *= 0.5
        out += x * np.exp(-0.5 * x * x) * _INV_SQRT_2PI
        return out

    return _unary(a, fwd, dfn)


def tsin(a) -> Tensor:
    return _unary(a, np.sin, np.cos)


def tcos(a) -> Tensor:
    return _unary(a, np.cos, lambda x: -np.sin(x))


def tsqrt(a) -> Tensor:
    return _unary(a, np.sqrt, lambda y: 0.5 / y, of_output=True)


def _horner(coeffs: tuple[float, ...], x: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """Elementwise erf, within 4 ulp of ``math.erf`` (Cephes' rational
    approximations). Inputs are clipped to +-6 first, where erf is +-1 in
    float64, so x*x cannot overflow; nan stays nan and the sign of zero is
    kept."""
    x = np.clip(x, -6.0, 6.0)
    z = x * x
    out = _horner(_ERF_T, z)
    out *= x
    out /= _horner(_ERF_U, z)
    tail = np.flatnonzero(np.abs(x) > 1.0)
    if tail.size:
        xt = x.ravel()[tail]
        at = np.abs(xt)
        erfc = np.exp(-(at * at))
        erfc *= _horner(_ERFC_P, at)
        erfc /= _horner(_ERFC_Q, at)
        out.ravel()[tail] = np.copysign(1.0 - erfc, xt)
    return out


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


def affine(rows, weight, bias, branch=None) -> Tensor:
    """Dense layer rows @ weight.T (+ branch) + bias as one op.

    rows is (n, in), weight (out, in) and bias (out,). branch, when given,
    is an (n, out) tensor (a low-rank adapter's term) added before the
    bias: (rows @ weight.T + branch) + bias. The closure keeps the weight
    only when the rows need a gradient, and the rows only when the weight
    does.
    """
    rows, weight, bias = as_tensor(rows), as_tensor(weight), as_tensor(bias)
    if rows.ndim != 2 or weight.ndim != 2 or rows.shape[1] != weight.shape[1] or bias.shape != weight.shape[:1]:
        raise ValueError(
            f"affine needs (n, in) rows, (out, in) weight and (out,) bias, got {rows.shape}, {weight.shape} and {bias.shape}"
        )
    parents = (rows, weight, bias)
    out = rows.data @ weight.data.T
    if branch is not None:
        branch = as_tensor(branch)
        if branch.shape != out.shape:
            raise ValueError(f"affine branch shape {branch.shape} != output shape {out.shape}")
        parents += (branch,)
        out += branch.data
    out += bias.data
    wd = weight.data if rows.requires_grad else None
    rd = rows.data if weight.requires_grad else None
    bias_grad, n_parents = bias.requires_grad, len(parents)

    def bw(g):
        grows = None if wd is None else g @ wd
        gweight = None if rd is None else (rd.T @ g).T
        gbias = np.sum(g, axis=0) if bias_grad else None
        return (grows, gweight, gbias, g)[:n_parents]

    return Tensor._from_op(out, parents, bw)


def attention(q, k, v, heads: int) -> Tensor:
    """Multi-head scaled dot-product attention over (n, d) queries, keys and
    values as one op: head h owns columns h*dh:(h+1)*dh, dh = d // heads, and
    its output is softmax(q_h k_h^T / sqrt(dh)) v_h in those columns. All
    heads run as one stacked matmul, softmax and matmul. The closure keeps
    q, k and v by reference, as their gradients need them, and the (heads,
    n, n) probabilities."""
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if q.ndim != 2 or q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"attention needs equal (n, d) q, k, v, got {q.shape}, {k.shape} and {v.shape}")
    n, d = q.shape
    if heads < 1 or d % heads:
        raise ValueError(f"heads must be >= 1 and divide d {d}, got {heads}")
    dh = d // heads
    scale = 1.0 / np.sqrt(dh)

    def split(a):  # (n, d) -> (heads, n, dh) view
        return a.reshape(n, heads, dh).transpose(1, 0, 2)

    probs = split(q.data) @ split(k.data).transpose(0, 2, 1)
    probs *= scale
    probs -= np.max(probs, axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.sum(probs, axis=-1, keepdims=True)
    out = (probs @ split(v.data)).transpose(1, 0, 2).reshape(n, d)
    # each operand's gradient reads the probabilities and at most one other operand
    kh = split(k.data) if q.requires_grad else None
    qh = split(q.data) if k.requires_grad else None
    vh = split(v.data) if q.requires_grad or k.requires_grad else None
    v_grad = v.requires_grad

    def bw(g):
        gh = split(g)
        gq = gk = gv = None
        if v_grad:
            gv = (probs.transpose(0, 2, 1) @ gh).transpose(1, 0, 2).reshape(n, d)
        if vh is not None:
            gp = gh @ vh.transpose(0, 2, 1)
            gl = probs * (gp - np.sum(gp * probs, axis=-1, keepdims=True))
            gl *= scale
            if kh is not None:
                gq = (gl @ kh).transpose(1, 0, 2).reshape(n, d)
            if qh is not None:
                gk = (qh.transpose(0, 2, 1) @ gl).transpose(2, 0, 1).reshape(n, d)
        return (gq, gk, gv)

    return Tensor._from_op(out, (q, k, v), bw)


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
    count = math.prod(a.shape[ax] for ax in _normalize_axes(axis, a.ndim))
    return tsum(a, axis, keepdims) / count


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


def layer_norm(x) -> Tensor:
    """Normalize over the last axis: subtract the mean and divide by the
    square root of the variance plus 1e-5. There is no gain or bias: a
    pretrained pair would fold into the linears that read the output."""
    x = as_tensor(x)
    xhat = x.data - np.mean(x.data, axis=-1, keepdims=True)
    var = np.mean(np.square(xhat), axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + 1e-5)
    xhat *= inv_std

    def bw(g):
        m1 = np.mean(g, axis=-1, keepdims=True)
        m2 = np.mean(g * xhat, axis=-1, keepdims=True)
        return (inv_std * (g - m1 - xhat * m2),)

    return Tensor._from_op(xhat, (x,), bw)


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

    def bw(g):
        return (np.transpose(g, np.argsort(axes)),)

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
# Both convolutions run one tap loop (_tap_conv) over one padded-pitch
# layout (_PitchGrid); each op supplies only its per-tap products. The
# input is padded once into a zero buffer with spare zero rows below it,
# and each channel's rows are read as one flat run whose row pitch is the
# padded width. At stride s, output pixel (oy, ox) of tap
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


class _PitchGrid:
    """Padded-pitch geometry of one convolution over a (C, H, W) input."""

    def __init__(self, x_shape, kh: int, kw: int, stride: int, padding: int):
        _, self.h, self.w = x_shape
        self.stride, self.padding = stride, padding
        hp, self.pitch = self.h + 2 * padding, self.w + 2 * padding
        if kh > hp or kw > self.pitch:
            raise ValueError(f"kernel ({kh}x{kw}) larger than padded input ({hp}x{self.pitch})")
        self.ho, self.wo = (hp - kh) // stride + 1, (self.pitch - kw) // stride + 1
        self.cols = -(-self.pitch // stride)
        # spare rows below the padded input: the last tap's run starts at
        # (kh-1)*pitch + kw-1 and spans ho*stride rows
        self.rows = self.ho * stride + kh

    def pad(self, data: np.ndarray) -> np.ndarray:
        """Zero buffer (C, rows, pitch) holding data at the padding offset."""
        p = self.padding
        buf = np.zeros((data.shape[0], self.rows, self.pitch))
        buf[:, p : p + self.h, p : p + self.w] = data
        return buf

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


def _tap_conv(
    x: Tensor, kernel: Tensor, bias, stride: int, padding: int, opname: str, forward, input_grad, kernel_grad
) -> Tensor:
    """The tap loop both convolutions share, over a (C_out, ..., kh, kw) kernel.

    Per tap (i, j) the op supplies three products on k = kernel[..., i, j]:
    forward(k, window) and input_grad(k, output-gradient grid) are added to
    the output grid and the input-gradient window, and kernel_grad(output-
    gradient grid, window) is the tap's kernel gradient. A (C_out,) bias,
    when given, is added to the taps' sum in place, after them, and its
    gradient is the output gradient summed over each channel.
    """
    kh, kw = kernel.shape[-2:]
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"{opname} kernel extents must be odd, got {kh}x{kw}")
    grid = _PitchGrid(x.shape, kh, kw, stride, padding)
    xb = grid.pad(x.data)
    taps = [(i, j) for i in range(kh) for j in range(kw)]
    out = np.zeros((kernel.shape[0], grid.ho, grid.cols))
    for i, j in taps:
        out += forward(kernel.data[..., i, j], grid.window(xb, i, j)).reshape(out.shape)
    out = grid.crop(out)
    parents = (x, kernel)
    if bias is not None:
        bias = as_tensor(bias)
        if bias.shape != out.shape[:1]:
            raise ValueError(f"{opname} bias must have shape ({out.shape[0]},), got {bias.shape}")
        out += bias.data[:, None, None]
        parents += (bias,)
    bias_grad = None if bias is None else bias.requires_grad
    kd = kernel.data if x.requires_grad else None
    xd = x.data if kernel.requires_grad else None
    k_shape, c_in = kernel.shape, x.shape[0]

    def bw(g):
        gq = grid.widen(g)
        gx = None
        gk = None
        if kd is not None:
            gb = np.zeros((c_in, grid.rows, grid.pitch))
            for i, j in taps:
                win = grid.window(gb, i, j)
                win += input_grad(kd[..., i, j], gq).reshape(win.shape)
            gx = grid.unpad(gb)
        if xd is not None:
            xb = grid.pad(xd)
            gk = np.empty(k_shape)
            for i, j in taps:
                gk[..., i, j] = kernel_grad(gq, grid.window(xb, i, j))
        if bias_grad is None:
            return (gx, gk)
        return (gx, gk, np.sum(g, axis=(1, 2)) if bias_grad else None)

    return Tensor._from_op(out, parents, bw)


def conv2d(x, kernel, bias=None, stride=1, padding=0) -> Tensor:
    """Cross-correlation of a (C_in, H, W) input with a (C_out, C_in, kh, kw)
    kernel, plus a (C_out,) bias per output channel when given."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 4:
        raise ValueError(f"conv2d needs (C,H,W) input and (Co,Ci,kh,kw) kernel, got {x.shape} and {kernel.shape}")
    c_out, c_in = kernel.shape[:2]
    if x.shape[0] != c_in:
        raise ValueError(f"conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    return _tap_conv(
        x,
        kernel,
        bias,
        stride,
        padding,
        "conv2d",
        lambda k, win: k @ win.reshape(c_in, -1),
        _column_times_row if c_out == 1 else lambda k, gq: k.T @ gq.reshape(c_out, -1),
        lambda gq, win: gq.reshape(c_out, -1) @ win.reshape(c_in, -1).T,
    )


def _column_times_row(k: np.ndarray, gq: np.ndarray) -> np.ndarray:
    """``k.T @ gq`` for a one-output-channel tap: each element is one
    product with nothing to sum, so a broadcast multiply gives the same
    bits, and avoids the slow unit-inner-extent matrix product."""
    return k.reshape(-1, 1) * gq.reshape(1, -1)


def _depthwise_tap(k: np.ndarray, a: np.ndarray) -> np.ndarray:
    return k[:, None, None] * a


def depthwise_conv2d(x, kernel, bias=None, stride=1, padding=0) -> Tensor:
    """Per-channel spatial convolution: (C, H, W) input, (C, kh, kw) kernel,
    plus a (C,) bias when given."""
    x, kernel = as_tensor(x), as_tensor(kernel)
    if x.ndim != 3 or kernel.ndim != 3:
        raise ValueError(f"depthwise_conv2d needs (C,H,W) input and (C,kh,kw) kernel, got {x.shape} and {kernel.shape}")
    if x.shape[0] != kernel.shape[0]:
        raise ValueError(f"depthwise_conv2d channel mismatch: input {x.shape} vs kernel {kernel.shape}")
    return _tap_conv(
        x,
        kernel,
        bias,
        stride,
        padding,
        "depthwise_conv2d",
        _depthwise_tap,
        _depthwise_tap,
        lambda gq, win: np.einsum("chw,chw->c", gq, win),
    )


# -- bilinear sampling --------------------------------------------------------------------------


def bilinear_sample(source, grid) -> tuple[Tensor, np.ndarray]:
    """Sample a (C, H, W) source at continuous pixel coordinates.

    grid is (2, Ho, Wo): grid[0] holds x (column) and grid[1] y (row)
    coordinates in source pixel units, integer coordinates addressing pixel
    centers. Samples outside [0, W-1] x [0, H-1] produce value 0 and are
    invalid. Gradients flow to both the source values and the grid.
    Returns (sampled (C, Ho, Wo), validity), validity a read-only bool
    (Ho, Wo) array, True where the sample lies inside. The source needs
    H >= 2 and W >= 2.

    Coordinates within 1e-9 px of the integer lattice snap to it before
    interpolation, so algebraically-identity warps survive float rounding
    bit-exactly; the band is far below any finite-difference step.

    Validity is the one mask. A valid sample's top-left corner is clamped
    to column W-2 and row H-2, so all four corners lie in the source, and
    a sample on the last column or row interpolates with weight 1 on the
    cell's far side: it takes that cell's slope, the one-sided slope from
    the inside. An invalid sample reads pixel 0 with weight 0.

    The closure keeps per output pixel the flat index of the top-left
    corner, the fractions wx and wy and the validity mask, plus the source
    array when the grid needs a gradient. Backward recomputes the corner
    weights, and for the grid gradient the corner values, from them.
    """
    source, grid = as_tensor(source), as_tensor(grid)
    if source.ndim != 3 or grid.ndim != 3 or grid.shape[0] != 2:
        raise ValueError(f"bilinear_sample needs (C,H,W) source and (2,Ho,Wo) grid, got {source.shape} and {grid.shape}")
    c, h, w = source.shape
    if h < 2 or w < 2:
        raise ValueError(f"bilinear_sample needs a source of at least 2x2 pixels, got {h}x{w}")
    u = grid.data[0]
    v = grid.data[1]
    u_round = np.round(u)
    v_round = np.round(v)
    u = np.where(np.abs(u - u_round) <= 1e-9, u_round, u)
    v = np.where(np.abs(v - v_round) <= 1e-9, v_round, v)
    valid = (u >= 0.0) & (u <= w - 1.0) & (v >= 0.0) & (v <= h - 1.0)
    u = np.where(valid, u, 0.0)
    v = np.where(valid, v, 0.0)

    x0 = np.minimum(np.floor(u), w - 2.0).astype(np.int64)
    y0 = np.minimum(np.floor(v), h - 2.0).astype(np.int64)
    wx = u - x0
    wy = v - y0
    base = y0 * w + x0
    corner_steps = np.array([0, 1, w, w + 1])[:, None, None]  # flat index steps to the four corners

    sd = source.data
    out = np.zeros((c,) + u.shape)
    for wgt, val in zip(_corner_weights(wx, wy, valid), _corner_values(sd, base + corner_steps)):
        out += wgt[None, :, :] * val

    src_grad = source.requires_grad
    kept = sd if grid.requires_grad else None  # only the grid gradient reads the source

    def bw(g):
        index = base + corner_steps
        gsrc = None
        ggrid = None
        if src_grad:
            # bincount over flattened indices is much faster than np.add.at;
            # channel ch's pixels are offset by ch*h*w, so one call per
            # corner fills every channel and each bin still sums in pixel
            # order; an invalid sample adds zeros at pixel 0
            offsets = np.arange(c)[:, None] * (h * w)
            acc = np.zeros(c * h * w)
            for k, wgt in enumerate(_corner_weights(wx, wy, valid)):
                idx = (offsets + index[k].ravel()).ravel()
                acc += np.bincount(idx, weights=(g * wgt[None, :, :]).ravel(), minlength=c * h * w)
            gsrc = acc.reshape(c, h, w)
        if kept is not None:
            # slopes of the sampled values along u and v
            v00, v01, v10, v11 = _corner_values(kept, index)
            du = (1.0 - wy)[None] * (v01 - v00) + wy[None] * (v11 - v10)
            dv = (1.0 - wx)[None] * (v10 - v00) + wx[None] * (v11 - v01)
            gu = np.sum(g * du, axis=0) * valid
            gv = np.sum(g * dv, axis=0) * valid
            ggrid = np.stack([gu, gv], axis=0)
        return (gsrc, ggrid)

    valid.flags.writeable = False  # the closure reads the array callers get
    return Tensor._from_op(out, (source, grid), bw), valid


def _corner_weights(wx, wy, valid) -> list[np.ndarray]:
    """Bilinear weight of the (y0, x0), (y0, x1), (y1, x0) and (y1, x1)
    corners, zero for an invalid sample."""
    weights = ((1.0 - wx) * (1.0 - wy), wx * (1.0 - wy), (1.0 - wx) * wy, wx * wy)
    return [wgt * valid for wgt in weights]


def _corner_values(sd: np.ndarray, index: np.ndarray) -> np.ndarray:
    """(4, C, Ho, Wo) source values at the flat corner indices (4, Ho, Wo)
    from one gather."""
    return np.take(sd.reshape(sd.shape[0], -1), index, axis=1).transpose(1, 0, 2, 3)
