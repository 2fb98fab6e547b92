"""Neural state-transition system over edit actions (HAEM).

A bidirectional encoder reads the bare lemma; at each step the model
scores COPY / DELETE / WRITE_c / STOP from

    s_t = ReLU(W . [y; h_i; f] + b)          (basic)
    s_t = ReLU(W . [y; h_i; f; a; d] + b)    (extended, default)

where y tracks the emitted output prefix (an LSTM over written and copied
characters), a the action history, and d the run of characters deleted
since the last WRITE (that LSTM resets to its learned initial state on
every WRITE). COPY and DELETE advance the attention index i over
positions 1..n+1 and are masked to probability zero at i = n+1, where a
learned end-of-lemma vector stands in for h_i.

COPY appends the attended lemma character verbatim, so characters unseen
in training pass through untouched; their embedding feeds are the UNK row.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from hardmono import numcore as nc
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.hacm import ModelConfig
from hardmono.nn import BiEncoder, Linear, LstmCell, ParamSet
from hardmono.numcore import Node
from hardmono.oracle import HAEM, Action, ActionCodec, HaemExecutor, OracleSequence

RESTART = object()    # the feed that returns a tracking LSTM to its learned state


@dataclass(frozen=True)
class HaemState:
    encoded: Node = field(repr=False)   # rows h_1 .. h_n over the bare lemma, then the end vector
    feat_vec: Node = field(repr=False)  # multi-hot indicator, constant
    ex: HaemExecutor                    # owns the lemma, attention index, output, and done
    lstms: tuple[tuple[Node, Node], ...]  # (h, c) of each tracking LSTM, in track order

    @property
    def i(self) -> int:
        return self.ex.i

    @property
    def out(self) -> str:
        return self.ex.out

    @property
    def done(self) -> bool:
        return self.ex.done


class HaemModel:
    arch = HAEM

    COPY_ID, DELETE_ID, STOP_ID = 0, 1, 2

    def __init__(self, vocab: CharVocabulary, feats: FeatureAlphabet,
                 config: ModelConfig, source: np.random.Generator | dict[str, np.ndarray]):
        self.vocab = vocab
        self.feats = feats
        self.config = config
        self.extended = config.variant == "extended"
        h, e = config.hidden, config.embed

        ps = ParamSet(source)
        self.char_emb = ps.uniform("char_emb", (len(vocab), e))
        # after char_emb, whose shape check bounds a checkpoint's vocabulary
        self.codec = ActionCodec(HAEM, vocab.chars)
        self.encoder = BiEncoder(ps, "enc", e, h)
        self.end_vec = ps.uniform("end_of_lemma", (2 * h,))
        # the tracking LSTMs, each with the table that embeds its feeds: y,
        # then a and d in the extended variant
        self.tracks = [(LstmCell(ps, "y", e, h), self.char_emb)]
        if self.extended:
            act_emb = ps.uniform("act_emb", (self.codec.size, e))
            self.tracks += [(LstmCell(ps, "a", e, h), act_emb),
                            (LstmCell(ps, "d", e, h), self.char_emb)]
        state_in = len(self.tracks) * h + 2 * h + feats.num_slots
        self.state_proj = Linear(ps, "state", state_in, h)
        self.act_out = Linear(ps, "act", h, self.codec.size)
        self.params = ps

    # --- per-sample setup ---

    def feature_indicator(self, features: tuple[str, ...]) -> Node:
        """Multi-hot vector over the alphabet slots (UNK slot included)."""
        vec = np.zeros(self.feats.num_slots)
        for slot in self.feats.slots_of(features):
            vec[slot] = 1.0
        return nc.constant(vec)

    def _frame_ids(self, lemma: str) -> np.ndarray:
        """The symbols the encoder reads: the bare lemma."""
        if not lemma:
            raise ValueError("empty lemma")
        return np.array([self.vocab.id_of(c) for c in lemma])

    def _frame(self, lemma: str) -> Node:
        """Rows h_1 .. h_n over the bare lemma, then the learned
        end-of-lemma vector as row n, which stands in for h_{n+1}."""
        return nc.vstack([self.encoder(nc.row(self.char_emb, self._frame_ids(lemma))),
                          self.end_vec])

    def _frames(self, lemmas: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """``_frame`` of every lemma, to rounding and without a tape, in
        one table, and the row where each starts."""
        table = self.char_emb.value
        return self.encoder.encode_all([table[self._frame_ids(lemma)] for lemma in lemmas],
                                       tail=self.end_vec.value)

    def start(self, lemma: str, features: tuple[str, ...]) -> HaemState:
        return HaemState(self._frame(lemma), self.feature_indicator(features),
                         HaemExecutor(lemma), tuple((cell.h0, cell.c0) for cell, _ in self.tracks))

    def lockstep(self, inputs: Sequence[tuple[str, tuple[str, ...]]]
                 ) -> tuple[list[HaemExecutor], Callable]:
        """``start`` of every (lemma, features) input at once, without a
        tape: one executor per input, and ``step(rows, actions)``, which
        applies each row's last action (None before its first step) and
        returns the rows' next distributions, one per row. Row r of each
        tracking LSTM's (h, c) is input r's state for the whole decode, so
        a step reads and writes only the rows it is given."""
        frames, first = self._frames([lemma for lemma, _ in inputs])
        feats = nc.vstack([self.feature_indicator(features) for _, features in inputs])
        lstms = [cell._start_rows(len(inputs)) for cell, _ in self.tracks]
        exs = [HaemExecutor(lemma) for lemma, _ in inputs]

        def step(rows: list[int], actions: list[Action | None]) -> np.ndarray:
            moved = [(r, action) for r, action in zip(rows, actions) if action is not None]
            feeds = [self._feeds(exs[r], action) for r, action in moved]
            for r, action in moved:
                exs[r] = exs[r].apply(action)
            for t, (track, lstm) in enumerate(zip(self.tracks, lstms)):
                _advance(track, lstm, [r for r, _ in moved], [f[t] for f in feeds])
            attended = nc.constant(frames[first[rows] + np.array([exs[r].i - 1 for r in rows])])
            x = self._input([nc.constant(h[rows]) for h, _ in lstms], attended,
                            nc.row(feats, rows))
            return self._scores(x, np.array([self._valid(exs[r]) for r in rows])).value

        return exs, step

    # --- scoring ---

    def valid_mask(self, state: HaemState) -> np.ndarray:
        """WRITE and STOP are always available; COPY and DELETE only while
        the attention index is still on the lemma."""
        return self._valid(state.ex)

    def _valid(self, ex: HaemExecutor) -> np.ndarray:
        valid = np.ones(self.codec.size, dtype=bool)
        valid[[self.COPY_ID, self.DELETE_ID]] = ex.can_advance()
        return valid

    def distribution(self, state: HaemState) -> Node:
        if state.done:
            raise ValueError("distribution after STOP")
        x = self._input([h for h, _ in state.lstms], nc.row(state.encoded, state.i - 1),
                        state.feat_vec)
        return self._scores(x, self.valid_mask(state))

    @staticmethod
    def _input(hs: list[Node], attended: Node, feats: Node) -> Node:
        """The state input [y; h_i; f; a; d] from the hidden states ``hs`` of
        the tracks, for one step or for one per row."""
        return nc.concat([hs[0], attended, feats, *hs[1:]])

    def _scores(self, x: Node, valid: np.ndarray) -> Node:
        """The output head on one state input ``x`` or on one per row,
        masked to the valid actions."""
        return nc.softmax(self.act_out(nc.relu(self.state_proj(x))), valid)

    # --- transitions ---

    def _feeds(self, ex: HaemExecutor, action: Action) -> tuple[object, ...]:
        """How ``action``, run from ``ex``, feeds each tracking LSTM: the id
        it steps on, None where it keeps its state, or RESTART. y steps on
        the copied or written character, a on every action, and d on the
        deleted character; d restarts on every WRITE."""
        y = d = None
        if action.tag == "COPY":
            y = self.vocab.id_of(ex.attended_char())
        elif action.tag == "DELETE":
            d = self.vocab.id_of(ex.attended_char())
        elif action.tag == "WRITE":
            y, d = self.vocab.id_of(action.char), RESTART
        return (y, self.codec.id_of(action), d) if self.extended else (y,)

    def apply(self, state: HaemState, action: Action) -> HaemState:
        """Execute one action. The executor updates output, attention index,
        and done, and rejects invalid actions (COPY/DELETE past the lemma,
        anything after STOP); callers decode against valid_mask. The tracking
        LSTMs then consume the action."""
        ex = state.ex.apply(action)
        lstms = []
        for (cell, emb), lstm, feed in zip(self.tracks, state.lstms, self._feeds(state.ex, action)):
            if feed is RESTART:
                lstm = (cell.h0, cell.c0)
            elif feed is not None:
                lstm = cell.step(nc.row(emb, feed), lstm)
            lstms.append(lstm)
        return replace(state, ex=ex, lstms=tuple(lstms))

    # --- training objective ---

    def sample_loss(self, lemma: str, features: tuple[str, ...],
                    oracle: OracleSequence, rng: np.random.Generator | None = None,
                    training: bool = True) -> Node:
        """Teacher-forced negative log-likelihood over every oracle action,
        with the validity mask applied at each step.

        One replay through the executor fixes every step's inputs, so each
        tracking LSTM runs as one sequence op (the deleted-run LSTM once
        per run between WRITEs, since every WRITE resets it) and step t
        reads one row of its stacked states; ``nc.nll`` sums the T gold
        actions' negative log-probabilities. Training-mode dropout draws one
        (T, D) block, the same stream as one draw per step; a gold
        probability that underflows to 0 raises FloatingPointError."""
        actions = oracle.actions
        if oracle.inventory != HAEM or not actions or actions[-1].tag != "STOP":
            raise ValueError("oracle must be a STOP-terminated edit sequence")
        if training and rng is None:
            raise ValueError("training mode needs a dropout generator")
        encoded = self._frame(lemma)
        # replay: per step, the state before its action (h_i as a row of
        # encoded) and how the action feeds each tracking LSTM
        targets = [self.codec.id_of(action) for action in actions]
        positions, valid, feeds = [], [], []
        ex = HaemExecutor(lemma)
        for action in actions:
            if ex.done:
                raise ValueError("distribution after STOP")
            positions.append(ex.i - 1)
            valid.append(self._valid(ex))
            feeds.append(self._feeds(ex, action))
            ex = ex.apply(action)
        steps = len(targets)

        # nothing reads the states after STOP, so its feeds go unused
        hs = [self._states(track, [f[k] for f in feeds[:-1]])
              for k, track in enumerate(self.tracks)]
        x = self._input(hs, nc.row(encoded, np.array(positions)),
                        nc.constant(np.tile(self.feature_indicator(features).value, (steps, 1))))
        if training:
            x = nc.dropout(x, self.config.dropout, rng)
        return nc.nll(self._scores(x, np.array(valid)), np.array(targets))

    @staticmethod
    def _states(track: tuple[LstmCell, Node], feeds: list) -> Node:
        """One tracking LSTM's hidden state before each step, given its feed
        after every step but the last: one sequence op per run of ids
        between restarts, each run stacked after its learned h0. A track fed
        on every step reads the stacked rows in order, with no gather."""
        cell, emb = track
        runs, reads = [[]], [0]
        for feed in feeds:
            if feed is RESTART:
                runs.append([])
            elif feed is not None:
                runs[-1].append(feed)
            reads.append(reads[-1] + (feed is not None))
        blocks = []
        for ids in runs:
            blocks.append(cell.h0)
            if ids:
                blocks.append(cell.sequence(nc.row(emb, np.array(ids))))
        states = nc.vstack(blocks)
        return states if states.shape[0] == len(reads) else nc.row(states, np.array(reads))


def _advance(track: tuple[LstmCell, Node], state: tuple[np.ndarray, np.ndarray],
             rows: list[int], feeds: list) -> None:
    """One tracking LSTM's (h, c) rows after one action, in place: row
    ``rows[j]`` steps on ``feeds[j]``, restarts from the learned state on
    RESTART, or keeps its state on None."""
    cell, emb = track
    h, c = state
    steps = [(r, feed) for r, feed in zip(rows, feeds) if feed is not None and feed is not RESTART]
    if steps:
        at = [r for r, _ in steps]
        new = cell.step(nc.row(emb, np.array([feed for _, feed in steps])),
                        (nc.constant(h[at]), nc.constant(c[at])))
        h[at], c[at] = new[0].value, new[1].value
    restart = [r for r, feed in zip(rows, feeds) if feed is RESTART]
    h[restart], c[restart] = cell.h0.value, cell.c0.value
