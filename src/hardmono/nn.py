"""Neural layers: parameter registry, embeddings, linear maps, LSTM cells,
and a bidirectional encoder.

Layers take one input vector (a decoding step) or a matrix with one input
per row (a training loss over a whole sequence, or one decoding step of
many inputs at once). Each LSTM call is one ``numcore.lstm_seq`` op: a
cell's step or whole sequence, and the encoder's tape-free call that
encodes a list of inputs together for decoding. A cell step can read its
input already projected, summed from ``LstmCell.project`` blocks.

A model's weights come from its generator or from a checkpoint's tensors
(``ParamSet``). Drawn weights are uniform(-0.1, 0.1); biases start at zero
except the LSTM forget gate, which starts at +1 so early training doesn't
wash out the cell state.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from hardmono import numcore as nc
from hardmono.numcore import Node

INIT_SCALE = 0.1


class ParamSet:
    """Ordered name -> parameter registry for one model.

    The ordering is creation order and is part of the checkpoint contract:
    state dicts serialize and load by name, and the optimizer walks
    parameters in this order. Each parameter's first value comes from
    ``source``: drawn from it in this order when it is a generator, or,
    when it is a checkpoint's tensors, the tensor of its name itself, once
    that has the shape its layer asks for.
    """

    def __init__(self, source: np.random.Generator | dict[str, np.ndarray]) -> None:
        self._params: dict[str, Node] = {}
        self._source = source

    def _add(self, name: str, shape: tuple[int, ...],
             init: Callable[[np.random.Generator], np.ndarray]) -> Node:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        if isinstance(self._source, dict):
            value = _tensor(self._source, name, shape)
        else:
            value = init(self._source)
        node = Node(value, requires_grad=True, name=name)
        self._params[name] = node
        return node

    def uniform(self, name: str, shape: tuple[int, ...]) -> Node:
        return self._add(name, shape, lambda rng: rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Node:
        return self._add(name, shape, lambda rng: np.zeros(shape))

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

    def check_names(self, state: dict[str, np.ndarray]) -> None:
        """Raise if ``state`` holds a tensor that is no parameter here."""
        extra = set(state) - set(self._params)
        if extra:
            raise ValueError(f"tensor {min(extra)!r} is not a parameter of the model")

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        self.check_names(state)
        for name, p in self._params.items():
            p.value = np.array(_tensor(state, name, p.value.shape), dtype=np.float64)
            p.zero_grad()


def _tensor(state: dict[str, np.ndarray], name: str, shape: tuple[int, ...]) -> np.ndarray:
    """``state[name]``, once it is there and has ``shape``."""
    if name not in state:
        raise ValueError(f"tensor {name!r} is missing")
    if state[name].shape != shape:
        raise ValueError(f"tensor {name!r} has shape {state[name].shape}, "
                         f"the model needs {shape}")
    return state[name]


class EmbeddingTable:
    """One learned vector per symbol id; ids must already be in range."""

    def __init__(self, params: ParamSet, name: str, num_symbols: int, dim: int):
        if num_symbols < 1 or dim < 1:
            raise ValueError(f"embedding table {name!r} needs positive sizes")
        self.table = params.uniform(name, (num_symbols, dim))

    def __call__(self, symbol_id: int | np.ndarray) -> Node:
        return nc.row(self.table, symbol_id)


class Linear:
    def __init__(self, params: ParamSet, name: str, in_size: int, out_size: int):
        self.in_size = in_size
        self.w = params.uniform(f"{name}.w", (out_size, in_size))
        self.b = params.zeros(f"{name}.b", (out_size,))

    def __call__(self, x: Node) -> Node:
        return nc.add(nc.matvec(self.w, x), self.b)


class LstmCell:
    """Single-layer LSTM with one fused weight matrix.

    Gate layout along the 4H axis is input, forget, output, candidate.
    The initial hidden and cell states are learned parameters.
    """

    def __init__(self, params: ParamSet, name: str, input_size: int, hidden_size: int):
        self.input_size = input_size
        h = hidden_size
        self.w = params.uniform(f"{name}.w", (4 * h, input_size + h))
        self.b = params._add(f"{name}.b", (4 * h,),
                             lambda rng: np.repeat([0.0, 1.0, 0.0, 0.0], h))
        self.h0 = params.uniform(f"{name}.h0", (h,))
        self.c0 = params.uniform(f"{name}.c0", (h,))

    def step(self, x: Node, state: tuple[Node, Node], projected: bool = False
             ) -> tuple[Node, Node]:
        """The next (h, c) pair; start from (h0, c0). With one input per row
        of ``x`` and one state per row of h and c, every row steps at once,
        each row a sequence of one step; a vector is one row. When
        ``projected``, x holds each input's projection W_x·x + b instead,
        summed from ``project`` blocks, and only W_h·h is left to compute."""
        rows = x.value.shape[0] if x.value.ndim == 2 else 1
        out = nc.lstm_seq(x, self.w, None if projected else self.b, *state, (rows,))
        if x.value.ndim == 1:
            return nc.row(out, 0), nc.row(out, 1)
        return nc.row(out, slice(0, rows)), nc.row(out, slice(rows, 2 * rows))

    def project(self, x: Node, at: int) -> Node:
        """The product of ``x`` (a vector, or one per row) with the input
        columns of w from ``at`` on, as many as x is wide: what an input
        part at offset ``at`` adds to the input projection. A part that
        takes few values can be projected once, as a table."""
        end = at + x.value.shape[-1]
        if not 0 <= at <= end <= self.input_size:
            raise ValueError(f"input columns {at}..{end} outside the {self.input_size} of the cell")
        return nc.matvec(self.w, x, slice(at, end))

    def sequence(self, x: Node) -> Node:
        """Outputs for the rows of ``x`` (one input per row), starting from
        the learned state, as one op."""
        return nc.lstm_seq(x, self.w, self.b, self.h0, self.c0)

    def _start_rows(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``n`` rows of the learned start state (h0, c0), each a copy."""
        return np.tile(self.h0.value, (n, 1)), np.tile(self.c0.value, (n, 1))


class BiEncoder:
    """Bidirectional single-layer LSTM; position i sees the whole input and
    yields [forward_i; backward_i] of dimension 2H."""

    def __init__(self, params: ParamSet, name: str, input_size: int, hidden_size: int):
        self.fwd = LstmCell(params, f"{name}.fwd", input_size, hidden_size)
        self.bwd = LstmCell(params, f"{name}.bwd", input_size, hidden_size)

    def __call__(self, x: Node) -> Node:
        """Row i is [forward_i; backward_i] for the rows of ``x``."""
        if x.value.shape[0] == 0:
            raise ValueError("encoder needs a nonempty input sequence")
        back = np.arange(x.value.shape[0])[::-1]
        bwd = nc.row(self.bwd.sequence(nc.row(x, back)), back)
        return nc.concat([self.fwd.sequence(x), bwd])

    def encode_all(self, xs: Sequence[np.ndarray],
                   tail: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """What this encoder makes of every input in ``xs``, to rounding,
        in one table without a tape: input k's rows start at row first[k],
        followed by the row ``tail`` when it is given. Returns the table and
        first.

        The inputs run longest first and time-major, so the ones still
        running at step t are a prefix of the batch, and each direction
        steps them with one product. The backward direction reads every
        input from its own last row, so no input steps on padding."""
        lengths = np.array([len(x) for x in xs])
        if not lengths.size or not lengths.all():
            raise ValueError("encoder needs nonempty input sequences")
        order = np.argsort(-lengths, kind="stable")
        sizes = (lengths[:, None] > np.arange(lengths.max())).sum(axis=0).tolist()
        # stepped row j is input who[j] at step when[j]; the forward direction
        # reads its position when[j] there, the backward one position back[j]
        who = np.concatenate([order[:k] for k in sizes])
        when = np.repeat(np.arange(len(sizes)), sizes)
        back = lengths[who] - 1 - when
        x = np.concatenate(xs)
        start = np.cumsum(lengths) - lengths         # of each input in x
        width = lengths + (tail is not None)         # of each input in the table
        first = np.cumsum(width) - width

        def run(cell: LstmCell, at: np.ndarray) -> np.ndarray:   # h of every stepped row
            with nc.no_grad():
                return nc.lstm_seq(nc.constant(x[start[who] + at]), cell.w, cell.b,
                                   cell.h0, cell.c0, sizes).value[:len(who)]
        hs = self.fwd.h0.value.shape[0]
        out = np.empty((width.sum(), 2 * hs))
        out[first[who] + when, :hs] = run(self.fwd, when)
        out[first[who] + back, hs:] = run(self.bwd, back)
        if tail is not None:
            out[first + lengths] = tail
        return out, first
