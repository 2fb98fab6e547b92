"""Reverse-mode automatic differentiation over dense float64 arrays.

A computation builds a fresh tape of Node objects per sample (sequence
lengths vary, so the graph is dynamic). backward() walks the tape once in
reverse topological order; each op carries a closure that routes the
incoming gradient to its parents. Gradients are float64 throughout.
"""

from __future__ import annotations

import contextlib
import random
from collections.abc import Callable, Sequence

import numpy as np

_FINITE_CHECKS = False


@contextlib.contextmanager
def finite_checks(enabled: bool = True):
    """NaN/Inf detection on every op result inside the block (off by default;
    the check costs about as much as the op itself on small tensors)."""
    global _FINITE_CHECKS
    prev = _FINITE_CHECKS
    _FINITE_CHECKS = enabled
    try:
        yield
    finally:
        _FINITE_CHECKS = prev


class GradError(RuntimeError):
    """Misuse of the tape (double backward, non-scalar loss, ...)."""


class Node:
    """One tape entry: a value, its parents, and the local backward rule."""

    __slots__ = ("value", "_grad", "_parents", "_backprop", "requires_grad", "name", "_ran")

    def __init__(
        self,
        value,
        parents: tuple["Node", ...] = (),
        backprop: Callable[[], None] | None = None,
        requires_grad: bool = False,
        name: str = "",
    ):
        self.value = np.asarray(value, dtype=np.float64)
        if _FINITE_CHECKS and not np.all(np.isfinite(self.value)):
            raise FloatingPointError(f"non-finite value in node {name or '(anonymous)'}")
        self._grad: np.ndarray | None = None
        self._parents = parents
        self._backprop = backprop
        self.requires_grad = requires_grad
        self.name = name
        self._ran = False

    @property
    def grad(self) -> np.ndarray:
        """Accumulated gradient; zeros for nodes backward() never reached."""
        if self._grad is None:
            return np.zeros_like(self.value)
        return self._grad

    def accum(self, g: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self._grad is None:
            self._grad = np.zeros_like(self.value)
        self._grad += g

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


def constant(value, name: str = "") -> Node:
    """Non-trainable leaf; backward never propagates into it."""
    return Node(value, requires_grad=False, name=name)


def _shape_error(op: str, *nodes: Node):
    shapes = " vs ".join(str(n.value.shape) for n in nodes)
    raise ValueError(f"{op}: incompatible shapes {shapes}")


def _unary(op: str, a: Node, out_value: np.ndarray, dfn: Callable[[np.ndarray], np.ndarray]) -> Node:
    out = Node(out_value, (a,), None, a.requires_grad, op)
    if out.requires_grad:
        def backprop():
            a.accum(dfn(out._grad))
        out._backprop = backprop
    return out


def add(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape:
        _shape_error("add", a, b)
    out = Node(a.value + b.value, (a, b), None, a.requires_grad or b.requires_grad, "add")
    if out.requires_grad:
        def backprop():
            a.accum(out._grad)
            b.accum(out._grad)
        out._backprop = backprop
    return out


def addn(nodes: Sequence[Node]) -> Node:
    """Sum of same-shaped nodes (loss accumulation over time steps)."""
    if not nodes:
        raise ValueError("addn of nothing")
    shape = nodes[0].value.shape
    for n in nodes[1:]:
        if n.value.shape != shape:
            _shape_error("addn", nodes[0], n)
    total = nodes[0].value.copy()
    for n in nodes[1:]:
        total += n.value
    out = Node(total, tuple(nodes), None, any(n.requires_grad for n in nodes), "addn")
    if out.requires_grad:
        def backprop():
            for n in nodes:
                n.accum(out._grad)
        out._backprop = backprop
    return out


def neg(a: Node) -> Node:
    return _unary("neg", a, -a.value, lambda g: -g)


def sub(a: Node, b: Node) -> Node:
    return add(a, neg(b))


def mul(a: Node, b: Node) -> Node:
    """Elementwise product of same-shaped tensors."""
    if a.value.shape != b.value.shape:
        _shape_error("mul", a, b)
    out = Node(a.value * b.value, (a, b), None, a.requires_grad or b.requires_grad, "mul")
    if out.requires_grad:
        def backprop():
            a.accum(out._grad * b.value)
            b.accum(out._grad * a.value)
        out._backprop = backprop
    return out


def smul(c: float, a: Node) -> Node:
    """Product with a python constant."""
    return _unary("smul", a, c * a.value, lambda g: c * g)


def scale(s: Node, v: Node) -> Node:
    """Scalar node times tensor node."""
    if s.value.shape != ():
        _shape_error("scale(scalar, tensor): first operand", s)
    out = Node(s.value * v.value, (s, v), None, s.requires_grad or v.requires_grad, "scale")
    if out.requires_grad:
        def backprop():
            s.accum(np.sum(out._grad * v.value))
            v.accum(out._grad * s.value)
        out._backprop = backprop
    return out


def matvec(w: Node, x: Node) -> Node:
    if w.value.ndim != 2 or x.value.ndim != 1 or w.value.shape[1] != x.value.shape[0]:
        _shape_error("matvec", w, x)
    out = Node(w.value @ x.value, (w, x), None, w.requires_grad or x.requires_grad, "matvec")
    if out.requires_grad:
        def backprop():
            w.accum(np.outer(out._grad, x.value))
            x.accum(w.value.T @ out._grad)
        out._backprop = backprop
    return out


def dot(a: Node, b: Node) -> Node:
    if a.value.shape != b.value.shape or a.value.ndim != 1:
        _shape_error("dot", a, b)
    out = Node(a.value @ b.value, (a, b), None, a.requires_grad or b.requires_grad, "dot")
    if out.requires_grad:
        def backprop():
            a.accum(out._grad * b.value)
            b.accum(out._grad * a.value)
        out._backprop = backprop
    return out


def concat(parts: Sequence[Node]) -> Node:
    if not parts:
        raise ValueError("concat of nothing")
    for p in parts:
        if p.value.ndim != 1:
            _shape_error("concat (1-D only)", p)
    out_value = np.concatenate([p.value for p in parts])
    out = Node(out_value, tuple(parts), None, any(p.requires_grad for p in parts), "concat")
    if out.requires_grad:
        offsets = np.cumsum([0] + [p.value.shape[0] for p in parts])
        def backprop():
            for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
                p.accum(out._grad[lo:hi])
        out._backprop = backprop
    return out


def vslice(a: Node, start: int, stop: int) -> Node:
    if a.value.ndim != 1 or not (0 <= start <= stop <= a.value.shape[0]):
        raise ValueError(f"vslice: bad range [{start}:{stop}] for shape {a.value.shape}")
    out = Node(a.value[start:stop].copy(), (a,), None, a.requires_grad, "vslice")
    if out.requires_grad:
        def backprop():
            g = np.zeros_like(a.value)
            g[start:stop] = out._grad
            a.accum(g)
        out._backprop = backprop
    return out


def row(m: Node, index: int) -> Node:
    """Row of a 2-D table (embedding lookup); bad index is an error."""
    if m.value.ndim != 2:
        _shape_error("row (2-D table)", m)
    if not 0 <= index < m.value.shape[0]:
        raise IndexError(f"row {index} out of range for table {m.value.shape}")
    out = Node(m.value[index].copy(), (m,), None, m.requires_grad, "row")
    if out.requires_grad:
        def backprop():
            g = np.zeros_like(m.value)
            g[index] = out._grad
            m.accum(g)
        out._backprop = backprop
    return out


def pick(a: Node, index: int) -> Node:
    """Scalar entry of a vector."""
    if a.value.ndim != 1:
        _shape_error("pick (1-D only)", a)
    if not 0 <= index < a.value.shape[0]:
        raise IndexError(f"pick {index} out of range for vector {a.value.shape}")
    out = Node(a.value[index], (a,), None, a.requires_grad, "pick")
    if out.requires_grad:
        def backprop():
            g = np.zeros_like(a.value)
            g[index] = out._grad
            a.accum(g)
        out._backprop = backprop
    return out


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)
    return _unary("tanh", a, t, lambda g: g * (1.0 - t * t))


def sigmoid(a: Node) -> Node:
    # Split by sign so exp never overflows.
    v = a.value
    s = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.clip(v, 0, None))),
                 np.exp(np.clip(v, None, 0)) / (1.0 + np.exp(np.clip(v, None, 0))))
    return _unary("sigmoid", a, s, lambda g: g * s * (1.0 - s))


def relu(a: Node) -> Node:
    mask = a.value > 0
    return _unary("relu", a, np.where(mask, a.value, 0.0), lambda g: g * mask)


def log(a: Node) -> Node:
    if np.any(a.value <= 0):
        raise FloatingPointError(f"log of non-positive value (min {a.value.min():g})")
    return _unary("log", a, np.log(a.value), lambda g: g / a.value)


def softmax(a: Node) -> Node:
    """Distribution over a 1-D vector, max-subtracted for stability."""
    if a.value.ndim != 1:
        _shape_error("softmax (1-D only)", a)
    z = a.value - a.value.max()
    e = np.exp(z)
    p = e / e.sum()
    out = Node(p, (a,), None, a.requires_grad, "softmax")
    if out.requires_grad:
        def backprop():
            g = out._grad
            a.accum(p * (g - np.dot(g, p)))
        out._backprop = backprop
    return out


def masked_softmax(a: Node, valid: np.ndarray) -> Node:
    """Softmax over the positions where ``valid`` is True; the rest of the
    output is exactly 0.0 and receives no gradient."""
    if a.value.ndim != 1 or valid.shape != a.value.shape:
        raise ValueError(f"masked_softmax: logits {a.value.shape} vs mask {valid.shape}")
    if not valid.any():
        raise ValueError("masked_softmax: no valid positions")
    z = a.value[valid]
    z = z - z.max()
    e = np.exp(z)
    pv = e / e.sum()
    p = np.zeros_like(a.value)
    p[valid] = pv
    out = Node(p, (a,), None, a.requires_grad, "masked_softmax")
    if out.requires_grad:
        def backprop():
            gv = out._grad[valid]
            ga = np.zeros_like(a.value)
            ga[valid] = pv * (gv - np.dot(gv, pv))
            a.accum(ga)
        out._backprop = backprop
    return out


def dropout(a: Node, rate: float, rng: np.random.Generator) -> Node:
    """Inverted dropout: scales kept entries by 1/(1-rate) so expected
    activation is unchanged; rate 0 is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return a
    keep = (rng.random(a.value.shape) >= rate) / (1.0 - rate)
    return _unary("dropout", a, a.value * keep, lambda g: g * keep)


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
    """Populate gradients of every requires_grad node reachable from loss."""
    if loss.value.shape != ():
        raise GradError(f"backward needs a scalar loss, got shape {loss.value.shape}")
    if loss._ran:
        raise GradError("backward called twice on the same tape")
    loss._ran = True
    if not loss.requires_grad:
        return
    loss.accum(np.array(1.0))
    for node in reversed(_topo_order(loss)):
        if node._backprop is not None and node._grad is not None:
            node._backprop()


def grad_check(
    f: Callable[[], Node],
    params: Sequence[Node],
    h: float = 1e-5,
    samples_per_param: int | None = None,
    rng: random.Random | None = None,
    atol: float = 1e-8,
) -> float:
    """Max relative error between backward() and central differences.

    ``f`` rebuilds the loss from scratch on every call (it must be
    deterministic). ``samples_per_param`` limits how many coordinates per
    tensor are probed; default probes all of them.

    Coordinates where analytic and numeric agree within ``atol`` count as
    exact: the finite-difference noise floor sits near 1e-10 for losses of
    order 10, so a relative metric on gradients that small measures noise,
    not backprop correctness. A genuinely wrong gradient misses by the
    gradient's own scale and sails past the gate.
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
            flat_v[k] = orig + h
            up = float(f().value)
            flat_v[k] = orig - h
            down = float(f().value)
            flat_v[k] = orig
            numeric = (up - down) / (2.0 * h)
            gap = abs(flat_g[k] - numeric)
            if gap <= atol:
                continue
            worst = max(worst, gap / max(abs(flat_g[k]), abs(numeric), 1e-8))
    return worst
