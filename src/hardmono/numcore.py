"""Reverse-mode automatic differentiation over dense float64 arrays.

A computation builds a tape of Node objects (sequence lengths vary, so the
graph is dynamic). backward() walks the tape once in reverse topological
order. Every op builds its node through ``_op`` from its value and its
local gradient rule, which maps the gradient of the result to one gradient
per parent. Gradients are float64 throughout.

Ops work on vectors and, where a loss needs row-wise work, on matrices
with one time step per row. The teacher-forced training losses of both
models are built from such whole-sequence ops: ``lstm_seq`` runs an LSTM
over all rows with a hand-written backward pass through time, and each
model's output head runs on all rows at once.

Greedy decoding steps the same ops one vector at a time, with
``lstm_step`` as one op per LSTM step, inside ``no_grad``: there every op
builds a node with no parents and no backward rule, so no tape is kept
and each value is freed as soon as the decoder drops it. Decoding a list
in lockstep runs them on one row per input, and ``lstm_step`` then steps
every row with one matrix product.
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Callable, Sequence

import numpy as np

_NO_GRAD = False


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: op results have no parents and no
    backward rule. Leaves made by ``param`` keep ``requires_grad``."""
    global _NO_GRAD
    prev = _NO_GRAD
    _NO_GRAD = True
    try:
        yield
    finally:
        _NO_GRAD = prev


class GradError(RuntimeError):
    """Misuse of the tape (double backward, non-scalar loss, ...)."""


class Node:
    """One tape entry: a value, its parents, and the local backward rule."""

    __slots__ = ("value", "_grad", "_parents", "_backprop", "requires_grad", "name", "_ran")

    def __init__(
        self,
        value,
        parents: tuple["Node", ...] = (),
        requires_grad: bool = False,
        name: str = "",
    ):
        self.value = np.asarray(value, dtype=np.float64)
        self._grad: np.ndarray | None = None
        self._parents = parents
        self._backprop: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._ran = False        # set once a backward has walked the node

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros for nodes backward() never reached."""
        if self._grad is None:
            return np.zeros_like(self.value)
        return self._grad

    def accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self._grad is not None:
            self._grad += g
        elif g.shape == self.value.shape:
            self._grad = np.array(g, dtype=np.float64)  # a copy spares zero-filling
        else:
            raise GradError(f"gradient of shape {g.shape} for {self!r}")

    def zero_grad(self) -> None:
        self._grad = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        tag = self.name or "node"
        return f"Node({tag}, shape={self.value.shape}, requires_grad={self.requires_grad})"


def param(value, name: str = "") -> Node:
    """Trainable leaf."""
    return Node(np.array(value, dtype=np.float64), requires_grad=True, name=name)


def constant(value) -> Node:
    """Non-trainable leaf; backward never propagates into it."""
    return Node(value)


def _op(name: str, value, parents: tuple[Node, ...],
        grads: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Node:
    """The node of one op with result ``value``. ``grads(g)`` maps the
    gradient of the result to one gradient per parent, None where none
    flows. Inside ``no_grad``, or when no parent requires a gradient, the
    node records nothing; otherwise it keeps ``grads`` as its backward rule,
    which ``backward`` accumulates into the parents in order. The rule
    never references the node, so a tape that is dropped without a
    backward walk is freed by reference counting alone."""
    if not _NO_GRAD:
        for p in parents:            # a plain loop: cheaper than any() on a generator
            if p.requires_grad:
                out = Node(value, parents, requires_grad=True, name=name)
                out._backprop = grads
                return out
    return Node(value, name=name)


def _shape_error(op: str, *nodes: Node):
    shapes = " vs ".join(str(n.value.shape) for n in nodes)
    raise ValueError(f"{op}: incompatible shapes {shapes}")


def add(a: Node, b: Node) -> Node:
    """Sum of same-shaped tensors; a vector ``b`` also adds to every row of
    a matrix ``a`` (a bias)."""
    rows = a.value.ndim == 2 and b.value.shape == a.value.shape[1:]
    if a.value.shape != b.value.shape and not rows:
        _shape_error("add", a, b)
    return _op("add", a.value + b.value, (a, b),
               lambda g: (g, g.sum(axis=0) if rows else g))


def neg(a: Node) -> Node:
    return _op("neg", -a.value, (a,), lambda g: (-g,))


def sub(a: Node, b: Node) -> Node:
    return add(a, neg(b))


def scale(s: Node, v: Node) -> Node:
    """Scalar node times tensor node; a vector ``s`` scales each row of a
    matrix ``v`` by its own entry, as ``add`` adds a bias to every row."""
    rows = s.value.ndim == 1 and v.value.ndim == 2 and s.value.shape[0] == v.value.shape[0]
    if s.value.shape != () and not rows:
        _shape_error("scale (a scalar, or one per row of a matrix)", s, v)
    k = s.value[:, None] if rows else s.value

    def grads(g):
        gv = g * v.value
        return gv.sum(axis=1) if rows else np.sum(gv), g * k
    return _op("scale", k * v.value, (s, v), grads)


def matvec(w: Node, x: Node) -> Node:
    """``w @ x`` for a vector x; a matrix x holds one input per row and
    maps to one output per row."""
    if w.value.ndim != 2 or x.value.ndim not in (1, 2) or w.value.shape[1] != x.value.shape[-1]:
        _shape_error("matvec", w, x)
    vector = x.value.ndim == 1
    return _op("matvec", w.value @ x.value if vector else x.value @ w.value.T, (w, x),
               lambda g: (np.outer(g, x.value) if vector else g.T @ x.value, g @ w.value))


def dot(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape or a.value.ndim != 1:
        _shape_error("dot", a, b)
    return _op("dot", a.value @ b.value, (a, b), lambda g: (g * b.value, g * a.value))


def concat(parts: Sequence[Node]) -> Node:
    """Join vectors, or matrices with equal row counts, along the last axis."""
    if not parts:
        raise ValueError("concat of nothing")
    lead = parts[0].value.shape[:-1]
    for p in parts:
        if p.value.ndim not in (1, 2) or p.value.shape[:-1] != lead:
            _shape_error("concat (vectors, or matrices with equal rows)", parts[0], p)

    def grads(g):
        offsets = np.cumsum([0] + [p.value.shape[-1] for p in parts])
        return [g[..., lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])]
    return _op("concat", np.concatenate([p.value for p in parts], axis=-1), tuple(parts), grads)


def vstack(parts: Sequence[Node]) -> Node:
    """Rows stacked top to bottom, as numpy's vstack: a vector is one row,
    a matrix adds all of its rows."""
    if not parts:
        raise ValueError("vstack of nothing")
    width = parts[0].value.shape[-1:]
    for p in parts:
        if p.value.ndim not in (1, 2) or p.value.shape[-1:] != width:
            _shape_error("vstack", parts[0], p)

    def grads(g):
        offsets = np.cumsum([0] + [p.value.shape[0] if p.value.ndim == 2 else 1 for p in parts])
        return [g[lo:hi] if p.value.ndim == 2 else g[lo]
                for p, lo, hi in zip(parts, offsets[:-1], offsets[1:])]
    return _op("vstack", np.vstack([p.value for p in parts]), tuple(parts), grads)


def row(m: Node, index: int | np.ndarray) -> Node:
    """Row of a 2-D table (embedding lookup). An index array gathers one
    row per entry into a matrix; backward scatter-adds into the rows used.
    A bad index is an error."""
    if m.value.ndim != 2:
        _shape_error("row (2-D table)", m)
    if type(index) is int or isinstance(index, np.integer):  # the common case, checked cheaply
        bad = not 0 <= index < m.value.shape[0]
    else:
        index = np.asarray(index)
        if index.ndim > 1 or not np.issubdtype(index.dtype, np.integer):
            raise IndexError(f"row index must be an integer or a 1-D integer array, got {index!r}")
        bad = index.size and not (0 <= index.min() and index.max() < m.value.shape[0])
    if bad:
        raise IndexError(f"row {index} out of range for table {m.value.shape}")

    def grads(g):
        gm = np.zeros_like(m.value)
        if np.ndim(index):
            np.add.at(gm, index, g)
        else:
            gm[index] = g
        return (gm,)
    return _op("row", m.value[index].copy(), (m,), grads)


def pick(a: Node, index: int | np.ndarray) -> Node:
    """Scalar entry of a vector; for a matrix, ``index`` holds one column
    per row and the result is the vector of those entries."""
    if a.value.ndim == 2:
        index = np.asarray(index)
        if index.shape != a.value.shape[:1] or not np.issubdtype(index.dtype, np.integer):
            raise IndexError(f"pick needs one column per row of {a.value.shape}, got {index!r}")
        if index.size and not (0 <= index.min() and index.max() < a.value.shape[1]):
            raise IndexError(f"pick {index} out of range for matrix {a.value.shape}")
        where = (np.arange(index.shape[0]), index)
    elif a.value.ndim != 1:
        _shape_error("pick (vector or matrix)", a)
    elif not 0 <= index < a.value.shape[0]:
        raise IndexError(f"pick {index} out of range for vector {a.value.shape}")
    else:
        where = index

    def grads(g):
        ga = np.zeros_like(a.value)
        ga[where] = g
        return (ga,)
    return _op("pick", a.value[where], (a,), grads)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp(-|v|) never overflows; it is exp(-v) for v >= 0 and exp(v) below
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a: Node) -> Node:
    s = _sigmoid(a.value)
    return _op("sigmoid", s, (a,), lambda g: (g * s * (1.0 - s),))


def relu(a: Node) -> Node:
    mask = a.value > 0
    return _op("relu", np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


def log(a: Node) -> Node:
    if np.any(a.value <= 0):
        raise FloatingPointError(f"log of non-positive value (min {a.value.min():g})")
    return _op("log", np.log(a.value), (a,), lambda g: (g / a.value,))


def softmax(a: Node, valid: np.ndarray | None = None) -> Node:
    """Distribution over a vector, or over each row of a matrix;
    max-subtracted for stability. With a boolean mask ``valid`` of the
    same shape, only its True positions share the mass: the rest of the
    output is exactly 0.0 and receives no gradient. A vector and a one-row
    matrix give bitwise the same distribution: the masked entries enter
    each sum as exact zeros."""
    z = a.value
    if valid is not None:
        if z.ndim not in (1, 2) or valid.shape != z.shape:
            raise ValueError(f"softmax: logits {z.shape} vs mask {valid.shape}")
        if not valid.any(axis=-1).all():
            raise ValueError("softmax: no valid positions")
        z = np.where(valid, z, -np.inf)
    elif z.ndim not in (1, 2):
        _shape_error("softmax (vector or matrix)", a)
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    return _op("softmax", p, (a,), lambda g: (p * (g - (g * p).sum(axis=-1, keepdims=True)),))


def _lstm_row(w: np.ndarray, b: np.ndarray, xh: np.ndarray, c: np.ndarray,
              gates: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One LSTM step on arrays, the kernel of ``lstm_seq``, ``lstm_step``
    and the tape-free batch encoder (gate layout input, forget, output,
    candidate along 4H). ``xh`` and
    ``c`` are one row, or B rows stepped by one matrix product. Fills
    ``gates`` with the gates after their nonlinearities and returns the new
    cell state, its tanh and the new hidden state."""
    hs = c.shape[-1]
    z = w @ xh + b if xh.ndim == 1 else xh @ w.T + b
    gates[..., :3 * hs] = _sigmoid(z[..., :3 * hs])
    gates[..., 3 * hs:] = np.tanh(z[..., 3 * hs:])
    i, f, o, g = (gates[..., :hs], gates[..., hs:2 * hs], gates[..., 2 * hs:3 * hs],
                  gates[..., 3 * hs:])
    c = f * c + i * g
    tanh_c = np.tanh(c)
    return c, tanh_c, o * tanh_c


def _lstm_local(gates: np.ndarray, c_prev: np.ndarray,
                tanh_c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row of cached LSTM steps: ``local``, which turns the
    gradients (dc, dh) into dz = local * [dc; dc; dh; dc] along the four
    gates; dc/dh through the output gate; and the forget gate, which
    carries dc to the previous cell state."""
    i, f, o, g = gates.reshape(-1, 4, c_prev.shape[-1]).transpose(1, 0, 2)
    local = np.stack([g * i * (1.0 - i), c_prev * f * (1.0 - f),
                      tanh_c * o * (1.0 - o), i * (1.0 - g * g)], axis=1)
    return local, o * (1.0 - tanh_c * tanh_c), f


def lstm_seq(x: Node, w: Node, b: Node, h0: Node, c0: Node) -> Node:
    """Hidden states h_1 .. h_T of an LSTM over the T rows of ``x``,
    started from (h0, c0), as one op.

    Every row runs the kernel shared with ``lstm_step``, so the outputs
    are bitwise equal to chained steps. The gates are cached, and backward
    runs the recurrence through time by hand, with one dZᵀ·[X; H_prev]
    matmul for the weight gradient.
    """
    hs = h0.value.shape[0] if h0.value.ndim == 1 else -1
    if (x.value.ndim != 2 or x.value.shape[0] == 0 or hs < 1 or c0.value.shape != (hs,)
            or w.value.shape != (4 * hs, x.value.shape[1] + hs) or b.value.shape != (4 * hs,)):
        _shape_error("lstm_seq (x, w, b, h0, c0)", x, w, b, h0, c0)
    steps, width = x.value.shape
    xh = np.empty((steps, width + hs))         # [x_t; h_{t-1}] per row
    gates = np.empty((steps, 4 * hs))          # i, f, o, g after their nonlinearities
    cells = np.empty((steps + 1, hs))          # c_0 .. c_T
    tanh_c = np.empty((steps, hs))
    out_value = np.empty((steps, hs))
    xh[:, :width] = x.value
    h, c = h0.value, c0.value
    cells[0] = c
    for t in range(steps):
        xh[t, width:] = h
        c, tanh_c[t], h = _lstm_row(w.value, b.value, xh[t], c, gates[t])
        cells[t + 1] = c
        out_value[t] = h

    def grads(g):
        local, dc_dh, f = _lstm_local(gates, cells[:-1], tanh_c)
        w_h = w.value[:, width:].copy()     # contiguous, for the per-step product
        dz = np.empty((steps, 4 * hs))
        dz4 = dz.reshape(steps, 4, hs)
        dh_next, dc_next = np.zeros(hs), np.zeros(hs)
        for t in range(steps - 1, -1, -1):
            dh = g[t] + dh_next
            dc = dh * dc_dh[t] + dc_next
            np.multiply(local[t], dc, out=dz4[t])
            np.multiply(local[t, 2], dh, out=dz4[t, 2])
            dc_next = dc * f[t]
            dh_next = dz[t] @ w_h
        dx = (dz @ w.value)[:, :width] if x.requires_grad else None
        return dx, dz.T @ xh, dz.sum(axis=0), dh_next, dc_next
    return _op("lstm_seq", out_value, (x, w, b, h0, c0), grads)


def lstm_step(x: Node, w: Node, b: Node, h: Node, c: Node) -> tuple[Node, Node]:
    """The hidden and cell states after one LSTM step from (h, c) on the
    vector ``x``, as one op running the row kernel of ``lstm_seq``.

    With B rows of ``x``, ``h`` and ``c``, it steps B independent states
    that share the weights with one matrix product: row r of each result
    is the vector step of row r, to rounding. The op's node holds the new
    hidden states above the new cell states. Backward steps every row at
    once, a vector being one row, from the gradients into both states."""
    hs = h.value.shape[-1] if h.value.ndim in (1, 2) else -1
    if (x.value.ndim != h.value.ndim or x.value.shape[:-1] != h.value.shape[:-1]
            or h.value.shape[:-1] == (0,) or hs < 1 or c.value.shape != h.value.shape
            or w.value.shape != (4 * hs, x.value.shape[-1] + hs) or b.value.shape != (4 * hs,)):
        _shape_error("lstm_step (x, w, b, h, c)", x, w, b, h, c)
    xh = np.concatenate([x.value, h.value], axis=-1)
    gates = np.empty(h.value.shape[:-1] + (4 * hs,))
    c_new, tanh_c, h_new = _lstm_row(w.value, b.value, xh, c.value, gates)

    def grads(g):
        local, dc_dh, f = _lstm_local(gates, c.value, tanh_c)
        dh, dc_out = g.reshape(2, -1, hs)       # per row: into the new h, into the new c
        dc = dh * dc_dh + dc_out
        dz4 = local * dc[:, None]
        dz4[:, 2] = local[:, 2] * dh
        dz = dz4.reshape(len(dc), -1)
        dxh = dz @ w.value
        width = x.value.shape[-1]
        return (dxh[:, :width].reshape(x.value.shape) if x.requires_grad else None,
                dz.T @ xh.reshape(len(dc), -1), dz.sum(axis=0),
                dxh[:, width:].reshape(h.value.shape), (dc * f).reshape(c.value.shape))
    out = _op("lstm_step", np.array([h_new, c_new]).reshape(-1, hs), (x, w, b, h, c), grads)
    index = 0 if h.value.ndim == 1 else np.arange(len(h_new))
    return row(out, index), row(out, index + len(out.value) // 2)


def dropout(a: Node, rate: float, rng: np.random.Generator) -> Node:
    """Inverted dropout: scales kept entries by 1/(1-rate) so expected
    activation is unchanged; rate 0 is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = (rng.random(a.value.shape) >= rate) / (1.0 - rate)
    return _op("dropout", a.value * keep, (a,), lambda g: (g * keep,))


def _topo_order(root: Node) -> list[Node]:
    """Parents-before-children order, iterative (tapes outgrow the
    recursion limit on long action sequences)."""
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Node) -> None:
    """Populate gradients of every requires_grad node reachable from loss.

    The walk consumes the tape: afterwards every interior node has dropped
    its backward rule and the arrays the rule cached. A later backward that
    reaches a consumed node raises GradError."""
    if loss.value.shape != ():
        raise GradError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if loss._ran:
        raise GradError("backward called twice on the same tape")
    loss._ran = True
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    for node in order:
        if node._ran and node._parents and node is not loss:
            raise GradError(f"backward reached {node!r}, consumed by an earlier backward")
    loss.accum(np.array(1.0))
    for node in reversed(order):
        if node._backprop is not None and node._grad is not None:
            for p, g in zip(node._parents, node._backprop(node._grad)):
                if g is not None:
                    p.accum(g)
    for node in order:
        if node._parents:
            node._backprop = None
            node._ran = True


_FD_STEP = 1e-5      # central-difference step of grad_check
_EXACT_ATOL = 1e-8   # grad_check's absolute agreement that counts as exact


def grad_check(
    f: Callable[[], Node],
    params: Sequence[Node],
    samples_per_param: int | None = None,
    rng: random.Random | None = None,
) -> float:
    """Max relative error between backward() and central differences.

    ``f`` rebuilds the loss from scratch on every call (it must be
    deterministic). ``samples_per_param`` limits how many coordinates per
    tensor are probed; default probes all of them.

    Coordinates where analytic and numeric agree within ``_EXACT_ATOL``
    count as exact: the finite-difference noise floor sits near 1e-10 for
    losses of order 10, so a relative metric on gradients that small
    measures noise, not backprop correctness. A genuinely wrong gradient
    misses by the gradient's own scale and sails past the gate.
    """
    for p in params:
        p.zero_grad()
    backward(f())
    analytic = [p.grad.copy() for p in params]
    for p in params:
        p.zero_grad()

    rng = rng or random.Random(0)
    worst = 0.0
    for p, grads in zip(params, analytic):
        flat_v = p.value.reshape(-1)
        flat_g = grads.reshape(-1)
        coords = range(flat_v.size)
        if samples_per_param is not None and flat_v.size > samples_per_param:
            coords = rng.sample(range(flat_v.size), samples_per_param)
        for k in coords:
            orig = flat_v[k]
            flat_v[k] = orig + _FD_STEP
            up = float(f().value)
            flat_v[k] = orig - _FD_STEP
            down = float(f().value)
            flat_v[k] = orig
            numeric = (up - down) / (2.0 * _FD_STEP)
            gap = abs(flat_g[k] - numeric)
            if gap <= _EXACT_ATOL:
                continue
            worst = max(worst, gap / max(abs(flat_g[k]), abs(numeric), 1e-8))
    return worst
