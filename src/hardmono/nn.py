"""Neural layers: parameter registry, embeddings, linear maps, LSTM cells,
and a bidirectional encoder.

Layers take one input vector (a decoding step) or a matrix with one input
per row (a training loss over a whole sequence, or one decoding step of
many inputs at once). The encoder has one call for both, a matrix of
inputs in and a matrix of positions out.

All weights initialize uniform(-0.1, 0.1) from the caller's generator;
biases start at zero except the LSTM forget gate, which starts at +1 so
early training doesn't wash out the cell state.
"""

from __future__ import annotations

import numpy as np

from hardmono import numcore as nc
from hardmono.numcore import Node

INIT_SCALE = 0.1


class ParamSet:
    """Ordered name -> parameter registry for one model.

    The ordering is creation order and is part of the checkpoint contract:
    state dicts serialize and load by name, and the optimizer walks
    parameters in this order.
    """

    def __init__(self) -> None:
        self._params: dict[str, Node] = {}

    def _add(self, name: str, value: np.ndarray) -> Node:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        node = nc.param(value, name=name)
        self._params[name] = node
        return node

    def uniform(self, name: str, shape: tuple[int, ...], rng: np.random.Generator) -> Node:
        return self._add(name, rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Node:
        return self._add(name, np.zeros(shape))

    def __getitem__(self, name: str) -> Node:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def nodes(self) -> list[Node]:
        return list(self._params.values())

    def zero_grads(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.value.copy() for name, p in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        missing = set(self._params) - set(state)
        extra = set(state) - set(self._params)
        if missing or extra:
            raise ValueError(f"state dict mismatch: missing {sorted(missing)}, extra {sorted(extra)}")
        for name, p in self._params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != p.value.shape:
                raise ValueError(
                    f"parameter {name!r}: checkpoint shape {value.shape} vs model {p.value.shape}"
                )
            p.value = value.copy()
            p.zero_grad()


class EmbeddingTable:
    """One learned vector per symbol id; ids must already be in range."""

    def __init__(self, params: ParamSet, name: str, num_symbols: int, dim: int,
                 rng: np.random.Generator):
        if num_symbols < 1 or dim < 1:
            raise ValueError(f"embedding table {name!r} needs positive sizes")
        self.table = params.uniform(name, (num_symbols, dim), rng)

    def __call__(self, symbol_id: int | np.ndarray) -> Node:
        return nc.row(self.table, symbol_id)


class Linear:
    def __init__(self, params: ParamSet, name: str, in_size: int, out_size: int,
                 rng: np.random.Generator):
        self.in_size = in_size
        self.w = params.uniform(f"{name}.w", (out_size, in_size), rng)
        self.b = params.zeros(f"{name}.b", (out_size,))

    def __call__(self, x: Node) -> Node:
        return nc.add(nc.matvec(self.w, x), self.b)


class LstmCell:
    """Single-layer LSTM with one fused weight matrix.

    Gate layout along the 4H axis is input, forget, output, candidate.
    The initial hidden and cell states are learned parameters.
    """

    def __init__(self, params: ParamSet, name: str, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        self.input_size = input_size
        h = hidden_size
        self.w = params.uniform(f"{name}.w", (4 * h, input_size + h), rng)
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0
        self.b = params._add(f"{name}.b", bias)
        self.h0 = params.uniform(f"{name}.h0", (h,), rng)
        self.c0 = params.uniform(f"{name}.c0", (h,), rng)

    def step(self, x: Node, state: tuple[Node, Node]) -> tuple[Node, Node]:
        """The next (h, c) pair; start from (h0, c0). With one input per row
        of ``x`` and one state per row of h and c, every row steps at once."""
        if x.value.ndim not in (1, 2) or x.value.shape[-1] != self.input_size:
            raise ValueError(f"lstm step: input shape {x.value.shape} vs expected "
                             f"({self.input_size},) or (rows, {self.input_size})")
        return nc.lstm_step(x, self.w, self.b, *state)

    def sequence(self, x: Node) -> Node:
        """Outputs for the rows of ``x`` (one input per row), starting from
        the learned state, as one op."""
        return nc.lstm_seq(x, self.w, self.b, self.h0, self.c0)


class BiEncoder:
    """Bidirectional single-layer LSTM; position i sees the whole input and
    yields [forward_i; backward_i] of dimension 2H."""

    def __init__(self, params: ParamSet, name: str, input_size: int, hidden_size: int,
                 rng: np.random.Generator):
        self.fwd = LstmCell(params, f"{name}.fwd", input_size, hidden_size, rng)
        self.bwd = LstmCell(params, f"{name}.bwd", input_size, hidden_size, rng)

    def __call__(self, x: Node) -> Node:
        """Row i is [forward_i; backward_i] for the rows of ``x``."""
        if x.value.shape[0] == 0:
            raise ValueError("encoder needs a nonempty input sequence")
        back = np.arange(x.value.shape[0])[::-1]
        bwd = nc.row(self.bwd.sequence(nc.row(x, back)), back)
        return nc.concat([self.fwd.sequence(x), bwd])
