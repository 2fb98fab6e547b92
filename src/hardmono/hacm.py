"""Hard monotonic attention model with a copy mechanism (HACM).

A bidirectional encoder reads the BOS + lemma + EOS frame; a decoder LSTM
consumes [E(prev action); h_i; f] and emits a distribution over
WRITE_c / STEP / BOS / EOS that mixes a generation softmax with a point
mass on copying the attended symbol:

    P_t(a) = w * P_gen(a) + (1 - w) * 1{a = attended symbol}

with w a sigmoid gate of [h_i; f; E(prev); s_t]. STEP moves the attention
index; WRITE emits without moving it. An attended character unseen in
training has no WRITE id, so decoding copies it outright with probability
one and then treats STEP as the previous action.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from hardmono import numcore as nc
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.nn import BiEncoder, EmbeddingTable, Linear, LstmCell, ParamSet
from hardmono.numcore import Node
from hardmono.oracle import HACM, Action, ActionCodec, HacmExecutor, OracleSequence


@dataclass(frozen=True)
class ModelConfig:
    """Sizes shared by both architectures; the variant flag only affects
    the edit-action model."""

    hidden: int = 100        # H: LSTM hidden size (encoder outputs are 2H)
    embed: int = 100         # E: character and action embedding size
    feat_embed: int = 20     # F: per-feature embedding size (mixture model)
    variant: str = "extended"  # edit-action state input: basic | extended
    dropout: float = 0.3     # decoder-input dropout rate during training

    def __post_init__(self) -> None:
        if min(self.hidden, self.embed, self.feat_embed) < 1:
            raise ValueError("model sizes must be positive")
        if self.variant not in ("basic", "extended"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout {self.dropout} outside [0, 1)")


@dataclass(frozen=True)
class HacmState:
    """Decoder state after consuming the previous action."""

    frame: Node = field(repr=False)      # rows h_0 .. h_{n+1} over BOS + lemma + EOS
    feat_vec: Node = field(repr=False)
    ex: HacmExecutor                     # owns the lemma and the attention index
    lstm: tuple[Node, Node]              # (s_t, c_t)
    prev_emb: Node | None = None
    attended: Node | None = None         # frame row h_i; None before the first step

    @property
    def i(self) -> int:
        return self.ex.i


class HacmModel:
    arch = HACM

    def __init__(self, vocab: CharVocabulary, feats: FeatureAlphabet,
                 config: ModelConfig, rng: np.random.Generator):
        self.vocab = vocab
        self.feats = feats
        self.config = config
        self.codec = ActionCodec(HACM, vocab.chars)
        h, e, f = config.hidden, config.embed, config.feat_embed
        self.feat_width = f * feats.num_slots

        ps = ParamSet()
        self.char_emb = EmbeddingTable(ps, "char_emb", len(vocab), e, rng)
        self.act_emb = EmbeddingTable(ps, "act_emb", self.codec.size, e, rng)
        self.feat_emb = EmbeddingTable(ps, "feat_emb", feats.num_slots, f, rng)
        self.encoder = BiEncoder(ps, "enc", e, h, rng)
        self.decoder = LstmCell(ps, "dec", e + 2 * h + self.feat_width, h, rng)
        self.gen = Linear(ps, "gen", h, self.codec.size, rng)
        self.gate = Linear(ps, "gate", 2 * h + self.feat_width + e + h, 1, rng)
        self.params = ps

    # --- per-sample setup ---

    def feature_vector(self, features: tuple[str, ...]) -> Node:
        """Concatenation of one F-dim slot per alphabet entry (UNK slot
        included): the embedding row when the feature is present, zeros
        when absent."""
        present = set(self.feats.slots_of(features))
        zero = nc.constant(np.zeros(self.config.feat_embed))
        parts = [self.feat_emb(s) if s in present else zero
                 for s in range(self.feats.num_slots)]
        return nc.concat(parts)

    def _frame_ids(self, lemma: str) -> np.ndarray:
        """The symbols the encoder reads: BOS + lemma + EOS."""
        if not lemma:
            raise ValueError("empty lemma")
        return np.array([self.vocab.BOS_ID] + [self.vocab.id_of(c) for c in lemma]
                        + [self.vocab.EOS_ID])

    def _frame(self, lemma: str) -> Node:
        """The encoded BOS + lemma + EOS frame, one row per position."""
        return self.encoder(self.char_emb(self._frame_ids(lemma)))

    def _frames(self, lemmas: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """``_frame`` of every lemma, to rounding and without a tape, in one
        table, and the row where each starts."""
        table = self.char_emb.table.value
        return self.encoder.encode_all([table[self._frame_ids(lemma)] for lemma in lemmas])

    def start(self, lemma: str, features: tuple[str, ...]) -> HacmState:
        return HacmState(self._frame(lemma), self.feature_vector(features),
                         HacmExecutor(lemma), (self.decoder.h0, self.decoder.c0))

    def lockstep(self, inputs: Sequence[tuple[str, tuple[str, ...]]]
                 ) -> tuple[list[HacmExecutor], Callable]:
        """``start`` of every (lemma, features) input at once, without a
        tape: one executor per input, and ``step(rows, actions)``, which
        ``step``s each row on its last action (BOS first) and returns the
        rows' next distributions, one per row, None for a row whose
        attended character is out of vocabulary. Row r of the decoder's
        (h, c) is input r's state for the whole decode, so a step reads and
        writes only the rows it is given."""
        frames, first = self._frames([lemma for lemma, _ in inputs])
        feats = nc.vstack([self.feature_vector(features) for _, features in inputs])
        h, c = self.decoder._start_rows(len(inputs))
        exs = [HacmExecutor(lemma) for lemma, _ in inputs]

        def step(rows: list[int], actions: list[Action]) -> list[np.ndarray | None]:
            for r, action in zip(rows, actions):
                exs[r] = exs[r].apply(action)
            emb = self.act_emb(np.array([self.codec.ids[a] for a in actions]))
            attended = nc.constant(frames[first[rows] + np.array([exs[r].i for r in rows])])
            feat = nc.row(feats, rows)
            lstm = self.decoder.step(nc.concat([emb, attended, feat]),
                                     (nc.constant(h[rows]), nc.constant(c[rows])))
            h[rows], c[rows] = lstm[0].value, lstm[1].value
            copy_ids = [self.codec.ids.get(exs[r].frame_symbol()) for r in rows]
            # the head runs on every row; one attending an out-of-vocabulary
            # character does so on a placeholder copy id and gets no distribution
            mixture = self._mixture(attended, feat, emb, lstm[0],
                                    np.array([0 if cid is None else cid for cid in copy_ids]))
            return [None if cid is None else dist for cid, dist in zip(copy_ids, mixture.value)]

        return exs, step

    # --- one transition ---

    def step(self, state: HacmState, action_id: int) -> HacmState:
        """Consume the action emitted at the previous time step: move the
        attention index if it was STEP, then advance the decoder LSTM."""
        ex = state.ex.apply(self.codec.action_of(action_id))
        emb = self.act_emb(action_id)
        attended = nc.row(state.frame, ex.i)
        lstm = self.decoder.step(nc.concat([emb, attended, state.feat_vec]), state.lstm)
        return replace(state, ex=ex, lstm=lstm, prev_emb=emb, attended=attended)

    def copy_action_id(self, state: HacmState) -> int | None:
        """Action id equivalent to copying the attended frame symbol; None
        when the attended lemma character was never seen in training."""
        return self.codec.ids.get(state.ex.frame_symbol())

    def attended_oov(self, state: HacmState) -> str | None:
        """The attended character when it is out of vocabulary, else None."""
        return state.ex.frame_symbol().char if self.copy_action_id(state) is None else None

    def distribution(self, state: HacmState) -> Node:
        """Copy mixture over the action inventory. The attended symbol must
        be in vocabulary; decoding handles the out-of-vocabulary branch by
        copying outright, without consulting a distribution."""
        if state.attended is None:
            raise ValueError("distribution before the first decoder step")
        copy_id = self.copy_action_id(state)
        if copy_id is None:
            raise ValueError(f"attended character {self.attended_oov(state)!r} has no action id")
        return self._mixture(state.attended, state.feat_vec, state.prev_emb,
                             state.lstm[0], copy_id)

    def _mixture(self, attended: Node, feats: Node, prev_emb: Node, s: Node,
                 copy_ids: int | np.ndarray) -> Node:
        """The output head, w * P_gen + (1 - w) * onehot(copy), on one
        decoder step (vectors and one copy id) or on T steps (T-row
        matrices and T copy ids, one distribution per row)."""
        p_gen = nc.softmax(self.gen(s))
        gate = self.gate(nc.concat([attended, feats, prev_emb, s]))
        w = nc.sigmoid(nc.pick(gate, np.zeros(s.shape[:-1], dtype=int)))
        point = np.arange(self.codec.size) == np.asarray(copy_ids)[..., None]
        return nc.add(nc.scale(w, p_gen),
                      nc.scale(nc.sub(nc.constant(np.ones(w.shape)), w),
                               nc.constant(point.astype(float))))

    # --- training objective ---

    def sample_loss(self, lemma: str, features: tuple[str, ...],
                    oracle: OracleSequence, rng: np.random.Generator | None = None,
                    training: bool = True) -> Node:
        """Teacher-forced negative log-likelihood, summed over the predicted
        actions (everything after the initial BOS).

        The oracle fixes every action and, through the executor, the
        attended position at every step, so all T decoder inputs are known
        before the forward pass: the loss runs the decoder as one sequence
        op and the output heads on all T rows at once. Training-mode
        dropout draws one (T, D) block, the same stream as one draw per
        step."""
        actions = oracle.actions
        if oracle.inventory != HACM or len(actions) < 2 or actions[0].tag != "BOS":
            raise ValueError("oracle must be a BOS-led write/step sequence")
        frame = self._frame(lemma)
        if training and rng is None:
            raise ValueError("training mode needs a dropout generator")
        # replay: step t consumes action t-1 and predicts action t
        positions, targets, copies = [], [], []
        ex = HacmExecutor(lemma)
        for prev, action in zip(actions, actions[1:]):
            ex = ex.apply(prev)
            targets.append(self.codec.id_of(action))
            copies.append(self.codec.ids.get(ex.frame_symbol()))
            if copies[-1] is None:
                raise ValueError(f"attended character {ex.frame_symbol().char!r} has no action id")
            positions.append(ex.i)
        prev_ids = [self.codec.id_of(actions[0])] + targets[:-1]
        steps = len(targets)

        attended = nc.row(frame, np.array(positions))
        feats = nc.vstack([self.feature_vector(features)] * steps)
        prev_emb = self.act_emb(np.array(prev_ids))
        x = nc.concat([prev_emb, attended, feats])
        if training and self.config.dropout > 0:
            x = nc.dropout(x, self.config.dropout, rng)
        s = self.decoder.sequence(x)
        p = nc.pick(self._mixture(attended, feats, prev_emb, s, np.array(copies)),
                    np.array(targets))
        return nc.neg(nc.dot(nc.constant(np.ones(steps)), nc.log(p)))
