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
model's output head runs on all rows at once. ``lstm_seq``, the one LSTM
op, also runs packed sequences: one LSTM step of B rows, or many inputs.
It also takes inputs already projected through their weights, so that a
decoder whose inputs come from small tables multiplies only W_h·h per
step; ``matvec`` on a column block of w builds such tables. HACM's copy
head ``mixture`` applies its gate's sigmoid itself. Both losses end in
``nll``, the summed negative log-likelihood of the oracle's actions.

Of the 12 public ops, every one has a caller in the models but ``dot``:
the tests keep it to reduce a vector to the scalar that ``backward`` and
``grad_check`` need.

Greedy decoding steps the same ops one vector at a time inside
``no_grad``: there every op builds a node with no parents and no backward
rule, so no tape is kept and each value is freed as soon as the decoder
drops it. Decoding a list in lockstep runs them on one row per input, and
an LSTM step then steps every row with one matrix product.
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


def matvec(w: Node, x: Node, cols: slice | None = None) -> Node:
    """``w @ x`` for a vector x; a matrix x holds one input per row and
    maps to one output per row. With ``cols``, a ``slice(lo, hi)``, only
    that column block of w multiplies x (a view, never a copy); its
    gradient lands in those columns of a zero-filled one, as ``row``'s
    lands in its rows."""
    if w.value.ndim != 2 or x.value.ndim not in (1, 2):
        _shape_error("matvec", w, x)
    if cols is not None and _bad_slice(cols, w.value.shape[1]):
        raise IndexError(f"matvec columns {cols} out of range for {w.value.shape}")
    wv = w.value if cols is None else w.value[:, cols]
    if wv.shape[1] != x.value.shape[-1]:
        _shape_error("matvec" if cols is None else f"matvec (columns {cols})", w, x)
    vector = x.value.ndim == 1

    def grads(g):
        gw = np.outer(g, x.value) if vector else g.T @ x.value
        if cols is not None:
            block, gw = gw, np.zeros_like(w.value)
            gw[:, cols] = block
        return gw, g @ wv
    return _op("matvec", wv @ x.value if vector else x.value @ wv.T, (w, x), grads)


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


def _bad_slice(s: slice, n: int) -> bool:
    """Whether ``s`` is not ``slice(lo, hi)`` with 0 <= lo <= hi <= n."""
    return s.indices(n) != (s.start, s.stop, 1) or s.start > s.stop


def row(m: Node, index: int | slice | np.ndarray) -> Node:
    """Row of a 2-D table (embedding lookup). A slice ``slice(lo, hi)``
    takes rows lo .. hi-1, and an index array gathers one row per entry;
    either gives a matrix. Backward writes into the rows used, and
    scatter-adds for an index array. A bad index is an error."""
    if m.value.ndim != 2:
        _shape_error("row (2-D table)", m)
    n = m.value.shape[0]
    if type(index) is int or isinstance(index, np.integer):  # the common case, checked cheaply
        bad = not 0 <= index < n
    elif isinstance(index, slice):
        bad = _bad_slice(index, n)
    else:
        index = np.asarray(index)
        if index.ndim > 1 or not np.issubdtype(index.dtype, np.integer):
            raise IndexError(f"row index must be an integer or a 1-D integer array, got {index!r}")
        bad = index.size and not (0 <= index.min() and index.max() < n)
    if bad:
        raise IndexError(f"row {index} out of range for table {m.value.shape}")
    gather = isinstance(index, np.ndarray)

    def grads(g):
        gm = np.zeros_like(m.value)
        if gather:
            np.add.at(gm, index, g)
        else:
            gm[index] = g
        return (gm,)
    # a gather already copies; a basic index is a view of the table
    return _op("row", m.value[index] if gather else m.value[index].copy(), (m,), grads)


def _entries(op: str, a: Node, index: int | np.ndarray):
    """Where ``index`` picks an entry of the vector ``a``, or one column per
    row of the matrix ``a``, as an index into its value; a bad index is an
    error."""
    if a.value.ndim == 2:
        index = np.asarray(index)
        if index.shape != a.value.shape[:1] or not np.issubdtype(index.dtype, np.integer):
            raise IndexError(f"{op} needs one column per row of {a.value.shape}, got {index!r}")
        if index.size and not (0 <= index.min() and index.max() < a.value.shape[1]):
            raise IndexError(f"{op} {index} out of range for matrix {a.value.shape}")
        return np.arange(index.shape[0]), index
    if a.value.ndim != 1:
        _shape_error(f"{op} (vector or matrix)", a)
    if not 0 <= index < a.value.shape[0]:
        raise IndexError(f"{op} {index} out of range for vector {a.value.shape}")
    return index


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp(-|v|) never overflows; it is exp(-v) for v >= 0 and exp(v) below
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def relu(a: Node) -> Node:
    mask = a.value > 0
    return _op("relu", np.where(mask, a.value, 0.0), (a,), lambda g: (g * mask,))


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


def mixture(gate: Node, p: Node, index: int | np.ndarray) -> Node:
    """``w * p + (1 - w) * onehot(index)``, w the sigmoid of the one-unit
    logit ``gate`` of shape ``p.shape[:-1] + (1,)``: for a matrix p, gate
    and ``index`` hold one entry per row. Only the entry at ``index`` gets
    1 - w added; every other is ``w * p`` exactly."""
    where = _entries("mixture", p, index)
    if gate.value.shape != p.value.shape[:-1] + (1,):
        _shape_error("mixture (gate, p)", gate, p)
    w = _sigmoid(gate.value[..., 0])
    k = w[..., None]
    out = k * p.value
    out[where] += 1.0 - w

    def grads(g):
        gw = (g * p.value).sum(axis=-1) - g[where]
        return (gw * w * (1.0 - w))[..., None], g * k
    return _op("mixture", out, (gate, p), grads)


def nll(p: Node, targets: int | np.ndarray) -> Node:
    """The summed negative log-likelihood of ``targets`` under ``p``: one
    entry of a vector, or one column per row of a matrix. Only the target
    entries are read, so a masked entry's exact 0 elsewhere is no error; a
    target probability that is not positive (an underflow) raises
    FloatingPointError. The sum over rows is a product with ones (np.sum
    rounds differently), and the gradient -g/p lands in the target entries
    of a zero-filled array."""
    where = _entries("nll", p, targets)
    picked = p.value[where]
    if np.any(picked <= 0):
        raise FloatingPointError(f"nll of a non-positive target probability (min {picked.min():g})")
    logs = np.log(picked)

    def grads(g):
        gp = np.zeros_like(p.value)
        gp[where] = -g / picked
        return (gp,)
    return _op("nll", -(np.ones(len(logs)) @ logs) if logs.ndim else -logs, (p,), grads)


def _lstm_row(w: np.ndarray, add: np.ndarray, xh: np.ndarray, c: np.ndarray,
              gates: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One LSTM step of B rows with one matrix product, the kernel of
    ``lstm_seq`` (gates input, forget, output, candidate along 4H). The
    pre-activations are the rows ``xh`` times as many of w's last columns,
    plus ``add``: rows [x; h] times all of w, plus the bias; or rows h
    times the recurrent block, plus each row's input projection. The three
    sigmoid gates are 0.5·tanh(0.5·z) + 0.5, so one tanh covers all 4H.
    Fills ``gates`` after the nonlinearities and ``h`` with the new hidden
    state; returns the new c and its tanh."""
    hs = c.shape[1]
    z = xh @ w[:, w.shape[1] - xh.shape[1]:].T     # `@` reads a column block in place
    z += add
    z[:, :3 * hs] *= 0.5
    np.tanh(z, out=gates)
    sig = gates[:, :3 * hs]
    sig *= 0.5
    sig += 0.5
    i, f, o, g = gates[:, :hs], gates[:, hs:2 * hs], gates[:, 2 * hs:3 * hs], gates[:, 3 * hs:]
    c = f * c + i * g
    tanh_c = np.tanh(c)
    np.multiply(o, tanh_c, out=h)
    return c, tanh_c


def lstm_seq(x: Node, w: Node, b: Node | None, h0: Node, c0: Node,
             sizes: Sequence[int] | None = None) -> Node:
    """An LSTM over the rows of ``x`` (a vector is one row) as one op.

    Without ``sizes`` the rows are one sequence and the result is its hidden
    states. With ``sizes`` they are packed sequences, longest first and
    time-major: step t reads the next sizes[t] rows, one per sequence still
    running, and the result holds each row's h, then each sequence's last c.
    The sequences start from the vectors (h0, c0) or from one row each.

    With ``b`` None, each row of x is already its input's projection
    W_x·x + b (4H wide), and only the recurrent block of w, its last H
    columns, multiplies h; the input columns get a zero gradient.

    Each step is one kernel call on its rows, so a sequence stepped alone
    gives the bits of chained vector steps. On the tape every row's gates
    and cell states are kept; backward runs the recurrence through time by
    hand, with one dZᵀ·[X; H_prev] matmul for the weight gradient.
    """
    xv, hv, cv = x.value, h0.value, c0.value
    rows = xv.shape[0] if xv.ndim == 2 else 1
    packed = sizes is not None
    sizes = sizes if packed else (1,) * rows
    hs = hv.shape[-1] if hv.ndim in (1, 2) else -1
    projected = b is None
    parents = (x, w, h0, c0) if projected else (x, w, b, h0, c0)
    width = w.value.shape[1] - hs if w.value.ndim == 2 else -1    # w's input columns
    if (xv.ndim not in (1, 2) or not sizes or sizes[-1] < 1 or sum(sizes) != rows or hs < 1
            or cv.shape != hv.shape or hv.shape not in ((hs,), (sizes[0], hs))
            or list(sizes) != sorted(sizes, reverse=True)
            or width < 0 or w.value.shape[0] != 4 * hs
            or xv.shape[-1] != (4 * hs if projected else width)
            or not projected and b.value.shape != (4 * hs,)):
        _shape_error(f"lstm_seq (x, w, b, h0, c0; sizes {sizes})", *parents)
    seqs, lead = sizes[0], 0 if projected else width     # lead: the x columns of xh
    record = not _NO_GRAD and any(p.requires_grad for p in parents)
    xh = np.empty((rows, lead + hs))           # [x_t; h_{t-1}] per row, or h_{t-1} alone
    if not projected:
        xh[:, :lead] = xv
    add = xv.reshape(rows, 4 * hs) if projected else b.value
    gates = np.empty((rows if record else seqs, 4 * hs))   # i, f, o, g after their nonlinearities
    out = np.empty((rows + seqs if packed else rows, hs))  # each row's h, then each last c
    c_in, tanh_c = [], []                                  # per step
    c, h, at = cv.reshape(-1, hs), hv.reshape(-1, hs), 0
    for k in sizes:
        xh[at:at + k, lead:] = h[:k]           # a shared start fills every row
        if k < len(c):                         # sequences k.. have ended
            out[rows + k:rows + len(c)] = c[k:]
            c = c[:k]
        c_in.append(c)
        h = out[at:at + k]
        c, tc = _lstm_row(w.value, add[at:at + k] if projected else add, xh[at:at + k], c,
                          gates[at:at + k] if record else gates[:k], h)
        tanh_c.append(tc)
        at += k
    if packed:
        out[rows:rows + len(c)] = c

    def grads(g):
        c_prev = np.concatenate([np.broadcast_to(c_in[0], tanh_c[0].shape), *c_in[1:]])
        tanh_rows = np.concatenate(tanh_c)
        # per row, dz = local * [dc; dc; dh; dc] along the four gates
        i, f, o, cand = gates.reshape(rows, 4, hs).transpose(1, 0, 2)
        local = np.stack([cand * i * (1.0 - i), c_prev * f * (1.0 - f),
                          tanh_rows * o * (1.0 - o), i * (1.0 - cand * cand)], axis=1)
        dc_dh = o * (1.0 - tanh_rows * tanh_rows)
        w_h = w.value[:, width:].copy()     # contiguous, for the per-step product
        dz4 = np.empty((rows, 4, hs))
        dz = dz4.reshape(rows, 4 * hs)
        dh_next = np.zeros((seqs, hs))
        dc_next = g[rows:].copy() if packed else np.zeros((seqs, hs))
        at = rows
        for k in reversed(sizes):
            step = slice(at - k, at)
            dh = g[step] + dh_next[:k]
            dc = dh * dc_dh[step] + dc_next[:k]
            np.multiply(local[step], dc[:, None], out=dz4[step])
            np.multiply(local[step, 2], dh, out=dz4[step, 2])
            dc_next[:k] = dc * f[step]
            dh_next[:k] = dz[step] @ w_h
            at -= k
        if hv.ndim == 1 and seqs > 1:          # a shared start: the sum over sequences
            dh_next, dc_next = dh_next.sum(axis=0), dc_next.sum(axis=0)
        dh0, dc0 = dh_next.reshape(hv.shape), dc_next.reshape(cv.shape)
        if projected:
            dw = np.zeros_like(w.value)
            dw[:, width:] = dz.T @ xh
            return dz.reshape(xv.shape), dw, dh0, dc0
        dx = (dz @ w.value[:, :width]).reshape(xv.shape) if x.requires_grad else None
        return dx, dz.T @ xh, dz.sum(axis=0), dh0, dc0
    return _op("lstm_seq", out, parents, grads)


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
