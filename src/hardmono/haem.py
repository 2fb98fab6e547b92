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

from dataclasses import dataclass, field, replace

import numpy as np

from hardmono import numcore as nc
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.hacm import ModelConfig
from hardmono.nn import BiEncoder, EmbeddingTable, Linear, LstmCell, ParamSet
from hardmono.numcore import Node
from hardmono.oracle import HAEM, Action, ActionCodec, HaemExecutor, OracleSequence


@dataclass(frozen=True)
class HaemState:
    encoded: Node = field(repr=False)   # rows h_1 .. h_n over the bare lemma, then the end vector
    feat_vec: Node = field(repr=False)  # multi-hot indicator, constant
    ex: HaemExecutor                    # owns the lemma, attention index, output, and done
    y: tuple[Node, Node]                # (h, c) of the LSTM over emitted chars
    a: tuple[Node, Node] | None         # action-history LSTM (extended)
    d: tuple[Node, Node] | None         # deleted-run LSTM (extended)

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
                 config: ModelConfig, rng: np.random.Generator):
        self.vocab = vocab
        self.feats = feats
        self.config = config
        self.codec = ActionCodec(HAEM, vocab.chars)
        self.extended = config.variant == "extended"
        h, e = config.hidden, config.embed

        ps = ParamSet()
        self.char_emb = EmbeddingTable(ps, "char_emb", len(vocab), e, rng)
        self.encoder = BiEncoder(ps, "enc", e, h, rng)
        self.end_vec = ps.uniform("end_of_lemma", (2 * h,), rng)
        self.lstm_y = LstmCell(ps, "y", e, h, rng)
        if self.extended:
            self.act_emb = EmbeddingTable(ps, "act_emb", self.codec.size, e, rng)
            self.lstm_a = LstmCell(ps, "a", e, h, rng)
            self.lstm_d = LstmCell(ps, "d", e, h, rng)
        state_in = h + 2 * h + feats.num_slots + (2 * h if self.extended else 0)
        self.state_proj = Linear(ps, "state", state_in, h, rng)
        self.act_out = Linear(ps, "act", h, self.codec.size, rng)
        self.params = ps

    # --- per-sample setup ---

    def feature_indicator(self, features: tuple[str, ...]) -> Node:
        """Multi-hot vector over the alphabet slots (UNK slot included)."""
        vec = np.zeros(self.feats.num_slots)
        for slot in self.feats.slots_of(features):
            vec[slot] = 1.0
        return nc.constant(vec)

    def _encode(self, lemma: str) -> Node:
        """Rows h_1 .. h_n over the bare lemma, then the learned
        end-of-lemma vector as row n, which stands in for h_{n+1}."""
        if not lemma:
            raise ValueError("empty lemma")
        ids = np.array([self.vocab.id_of(c) for c in lemma])
        return nc.vstack([self.encoder(self.char_emb(ids)), self.end_vec])

    def start(self, lemma: str, features: tuple[str, ...]) -> HaemState:
        a0 = (self.lstm_a.h0, self.lstm_a.c0) if self.extended else None
        d0 = (self.lstm_d.h0, self.lstm_d.c0) if self.extended else None
        return HaemState(self._encode(lemma), self.feature_indicator(features),
                         HaemExecutor(lemma), (self.lstm_y.h0, self.lstm_y.c0), a0, d0)

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
        parts = [state.y[0], nc.row(state.encoded, state.i - 1), state.feat_vec]
        if self.extended:
            parts += [state.a[0], state.d[0]]
        return self._scores(nc.concat(parts), self.valid_mask(state))

    def _scores(self, x: Node, valid: np.ndarray) -> Node:
        """The output head on one state input ``x`` or on one per row,
        masked to the valid actions."""
        return nc.masked_softmax(self.act_out(nc.relu(self.state_proj(x))), valid)

    # --- transitions ---

    def _feeds(self, ex: HaemExecutor, action: Action) -> tuple[int | None, int | None, bool]:
        """How ``action``, run from ``ex``, feeds the tracking LSTMs: the
        character id the output LSTM y steps on (the copied or written
        character), the id the deleted-run LSTM d steps on (the deleted
        one), None where an LSTM does not step, and whether d restarts (on
        every WRITE). The action-history LSTM a steps on every action."""
        if action.tag == "COPY":
            return self.vocab.id_of(ex.attended_char()), None, False
        if action.tag == "DELETE":
            return None, self.vocab.id_of(ex.attended_char()), False
        if action.tag == "WRITE":
            return self.vocab.id_of(action.char), None, True
        return None, None, False

    def apply(self, state: HaemState, action: Action) -> HaemState:
        """Execute one action. The executor updates output, attention index,
        and done, and rejects invalid actions (COPY/DELETE past the lemma,
        anything after STOP); callers decode against valid_mask. The tracking
        LSTMs then consume the action."""
        ex = state.ex.apply(action)
        y_id, d_id, restart = self._feeds(state.ex, action)
        y, a, d = state.y, state.a, state.d
        if y_id is not None:
            y = self.lstm_y.step(self.char_emb(y_id), y)
        if self.extended:
            if d_id is not None:
                d = self.lstm_d.step(self.char_emb(d_id), d)
            elif restart:
                d = (self.lstm_d.h0, self.lstm_d.c0)
            a = self.lstm_a.step(self.act_emb(self.codec.id_of(action)), a)
        return replace(state, ex=ex, y=y, a=a, d=d)

    # --- training objective ---

    def sample_loss(self, lemma: str, features: tuple[str, ...],
                    oracle: OracleSequence, rng: np.random.Generator | None = None,
                    training: bool = True) -> Node:
        """Teacher-forced negative log-likelihood over every oracle action,
        with the validity mask applied at each step.

        One replay through the executor fixes every step's inputs, so each
        tracking LSTM runs as one sequence op (the deleted-run LSTM once
        per run between WRITEs, since every WRITE resets it) and step t
        reads row t of the stacked states. Training-mode dropout draws one
        (T, D) block, the same stream as one draw per step."""
        actions = oracle.actions
        if oracle.inventory != HAEM or not actions or actions[-1].tag != "STOP":
            raise ValueError("oracle must be a STOP-terminated edit sequence")
        encoded = self._encode(lemma)
        if training and rng is None:
            raise ValueError("training mode needs a dropout generator")
        # replay: per step, the state before its action (y and d as rows of
        # the stacked states below, h_i as a row of encoded)
        targets, positions, valid, y_rows, d_rows = [], [], [], [], []
        y_ids: list[int] = []
        d_runs: list[list[int]] = [[]]
        d_start = 0
        ex = HaemExecutor(lemma)
        for action in actions:
            targets.append(self.codec.id_of(action))
            if ex.done:
                raise ValueError("distribution after STOP")
            positions.append(ex.i - 1)
            valid.append(self._valid(ex))
            y_rows.append(len(y_ids))
            d_rows.append(d_start + len(d_runs[-1]))
            y_id, d_id, restart = self._feeds(ex, action)
            ex = ex.apply(action)
            if y_id is not None:
                y_ids.append(y_id)
            if d_id is not None:
                d_runs[-1].append(d_id)
            elif restart:
                d_start += len(d_runs[-1]) + 1
                d_runs.append([])
        steps = len(targets)

        parts = [nc.row(self._states(self.lstm_y, self.char_emb, [y_ids]), np.array(y_rows)),
                 nc.row(encoded, np.array(positions)),
                 nc.constant(np.tile(self.feature_indicator(features).value, (steps, 1)))]
        if self.extended:
            # the action history before step t is exactly row t
            parts += [self._states(self.lstm_a, self.act_emb, [targets[:-1]]),
                      nc.row(self._states(self.lstm_d, self.char_emb, d_runs), np.array(d_rows))]
        x = nc.concat(parts)
        if training and self.config.dropout > 0:
            x = nc.dropout(x, self.config.dropout, rng)
        p = nc.pick(self._scores(x, np.array(valid)), np.array(targets))
        return nc.neg(nc.dot(nc.constant(np.ones(steps)), nc.log(p)))

    @staticmethod
    def _states(cell: LstmCell, emb: EmbeddingTable, runs: list[list[int]]) -> Node:
        """Stacked outputs of ``cell`` over each run of embedded ids; every
        run starts from the learned state, whose h0 is the run's first
        row."""
        blocks = []
        for ids in runs:
            blocks.append(cell.h0)
            if ids:
                blocks.append(cell.sequence(emb(np.array(ids))))
        return nc.vstack(blocks)
