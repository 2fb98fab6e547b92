"""Greedy decoding for both architectures, plus the runaway-output filter.

Decoding picks the argmax action at every step (ties break toward the
lowest action id), stops on the end action, and is hard-capped so that
adversarial weights cannot loop: at most lemma length + 50 emitted
characters, and a bounded total action count. Cap hits are marked
LENGTH_CAP and the post filter replaces such predictions (and any
prediction containing a character repeated 10+ times in a row) with the
lemma itself.

``greedy_decode`` runs one input through the model's per-step API.
``greedy_decode_all`` decodes a list in lockstep. The encoder reads every
input at once, longest first, with one product per direction per step
over the inputs still running, and writes all frames into one table.
Then all unfinished inputs advance together, so each LSTM step is one
matrix product over their rows and each output head runs once per step.
Every input keeps its own executor and its own row of each LSTM state for
the whole decode; a step reads the rows of the inputs still on the active
list and writes its results back into them, and an input that finishes
only leaves the list. Both loops apply the same decode rules (``_Row``,
``_hacm_next``, ``_haem_action``). A product over many rows rounds
differently from one over a vector, so the batch's frames and
distributions match the per-input ones to rounding (the tests allow
1e-12), and the predictions are the same unless two actions tie that
closely.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from hardmono import numcore as nc
from hardmono.hacm import HacmModel
from hardmono.haem import RESTART, HaemModel
from hardmono.nn import EmbeddingTable, LstmCell
from hardmono.oracle import HACM, Action, HacmExecutor, HaemExecutor, OracleSequence, write

END_ACTION = "END_ACTION"
LENGTH_CAP = "LENGTH_CAP"

MAX_EXTRA_CHARS = 50       # emitted-length cap is lemma length plus this
MAX_RUN_LENGTH = 10        # repeats at or past this count the output as runaway


@dataclass(frozen=True)
class DecodeResult:
    prediction: str
    trace: OracleSequence
    terminated_by: str       # END_ACTION | LENGTH_CAP
    filtered: bool = False


def _total_cap(n: int) -> int:
    # any legal program fits in n+1 moves + n+50 writes + BOS/EOS slack
    return 2 * n + 64


class _Row:
    """One input's decode so far, and the two caps that can end it."""

    def __init__(self, lemma: str, trace: list[Action]):
        self.write_cap = len(lemma) + MAX_EXTRA_CHARS
        self.steps_left = _total_cap(len(lemma))
        self.out = ""          # HACM's output; HAEM's executor keeps its own
        self.trace = trace
        self.ended: str | None = None

    def fits(self, out: str) -> bool:
        """Whether one more character fits after ``out``; a full output
        ends the decode at the cap."""
        if len(out) < self.write_cap:
            return True
        self.ended = LENGTH_CAP
        return False

    def end_step(self, finished: bool) -> bool:
        """Close one step. The decode ends by its end action when
        ``finished``, and at the cap once the total step count is spent.
        True while it goes on."""
        if finished:
            self.ended = END_ACTION
        else:
            self.steps_left -= 1
            if not self.steps_left:
                self.ended = LENGTH_CAP
        return self.ended is None

    def result(self, out: str, arch: str) -> DecodeResult:
        return DecodeResult(out, OracleSequence(tuple(self.trace), arch), self.ended)


def greedy_decode(model: HacmModel | HaemModel, lemma: str,
                  features: tuple[str, ...]) -> DecodeResult:
    """Decode without a tape: nothing differentiates the result."""
    if not lemma:
        raise ValueError("empty lemma")
    with nc.no_grad():
        if model.arch == HACM:
            return _decode_hacm(model, lemma, features)
        return _decode_haem(model, lemma, features)


def greedy_decode_all(model: HacmModel | HaemModel,
                      inputs: Sequence[tuple[str, tuple[str, ...]]]) -> list[DecodeResult]:
    """``greedy_decode`` of every (lemma, features) input, in lockstep."""
    if any(not lemma for lemma, _ in inputs):
        raise ValueError("empty lemma")
    if not inputs:
        return []
    with nc.no_grad():
        frames, first = model._frames([lemma for lemma, _ in inputs])
        if model.arch == HACM:
            return _decode_all_hacm(model, inputs, frames, first)
        return _decode_all_haem(model, inputs, frames, first)


# --- the copy-mixture model ---


def _hacm_next(model: HacmModel, ex: HacmExecutor, dist: np.ndarray | None,
               row: _Row) -> int | None:
    """HACM's rules after a decoder step that left the pointer at ``ex``.
    ``dist`` is the step's distribution, None when the attended character
    is out of vocabulary. Returns the action id the next step consumes, or
    None once the decode has ended."""
    codec = model.codec
    if dist is None:
        # attended character unseen in training: copy it outright and let
        # STEP stand in as the previous action
        if not row.fits(row.out):
            return None
        char = ex.frame_symbol().char
        row.out += char
        row.trace += [write(char), codec.specials[0]]
        return codec.id_of(codec.specials[0]) if row.end_step(False) else None
    action_id = int(np.argmax(dist))
    action = codec.action_of(action_id)
    if action.tag == "STEP" and ex.i == ex.n + 1:
        # the pointer cannot leave the frame; an argmax STEP here can only
        # mean the model is done
        action = codec.specials[2]
        action_id = codec.id_of(action)
    if action.tag == "WRITE":
        if not row.fits(row.out):
            return None
        row.out += action.char
    row.trace.append(action)
    return action_id if row.end_step(action.tag == "EOS") else None


def _decode_hacm(model: HacmModel, lemma: str, features: tuple[str, ...]) -> DecodeResult:
    bos = model.codec.specials[1]
    row = _Row(lemma, [bos])
    state = model.start(lemma, features)
    prev = model.codec.id_of(bos)
    while prev is not None:
        state = model.step(state, prev)
        oov = model.attended_oov(state) is not None
        prev = _hacm_next(model, state.ex, None if oov else model.distribution(state).value, row)
    return row.result(row.out, HACM)


def _decode_all_hacm(model: HacmModel, inputs: Sequence[tuple[str, tuple[str, ...]]],
                     frames: np.ndarray, first: np.ndarray) -> list[DecodeResult]:
    codec = model.codec
    bos = codec.specials[1]
    rows = [_Row(lemma, [bos]) for lemma, _ in inputs]
    exs = [HacmExecutor(lemma) for lemma, _ in inputs]
    prev = [codec.id_of(bos)] * len(inputs)
    feats = nc.vstack([model.feature_vector(features) for _, features in inputs])
    # row r of h and c is input r's decoder state for the whole decode
    h, c = model.decoder._start_rows(len(inputs))
    active = list(range(len(inputs)))
    while active:
        for r in active:
            exs[r] = exs[r].apply(codec.action_of(prev[r]))
        emb = model.act_emb(np.array([prev[r] for r in active]))
        attended = nc.constant(frames[first[active] + np.array([exs[r].i for r in active])])
        feat = nc.row(feats, active)
        lstm = model.decoder.step(nc.concat([emb, attended, feat]),
                                  (nc.constant(h[active]), nc.constant(c[active])))
        h[active], c[active] = lstm[0].value, lstm[1].value
        copy_ids = [model._copy_id(exs[r]) for r in active]
        # rows attending an out-of-vocabulary character skip the head
        head = np.array([k for k, cid in enumerate(copy_ids) if cid is not None], dtype=int)
        dists = [None] * len(active)
        if head.size:
            mixture = model._mixture(nc.row(attended, head), nc.row(feat, head),
                                     nc.row(emb, head), nc.row(lstm[0], head),
                                     np.array([copy_ids[k] for k in head]))
            for k, dist in zip(head, mixture.value):
                dists[k] = dist
        for r, dist in zip(active, dists):
            prev[r] = _hacm_next(model, exs[r], dist, rows[r])
        active = [r for r in active if prev[r] is not None]
    return [row.result(row.out, HACM) for row in rows]


# --- the edit-action model ---


def _haem_action(model: HaemModel, out: str, dist: np.ndarray, row: _Row) -> Action | None:
    """HAEM's argmax action for a decode whose output so far is ``out``,
    recorded in the trace; None once the decode has ended at the write
    cap."""
    action = model.codec.action_of(int(np.argmax(dist)))
    if action.tag in ("WRITE", "COPY") and not row.fits(out):
        return None
    row.trace.append(action)
    return action


def _decode_haem(model: HaemModel, lemma: str, features: tuple[str, ...]) -> DecodeResult:
    row = _Row(lemma, [])
    state = model.start(lemma, features)
    while True:
        action = _haem_action(model, state.out, model.distribution(state).value, row)
        if action is None:
            break
        state = model.apply(state, action)
        if not row.end_step(state.done):
            break
    return row.result(state.out, model.arch)


def _decode_all_haem(model: HaemModel, inputs: Sequence[tuple[str, tuple[str, ...]]],
                     frames: np.ndarray, first: np.ndarray) -> list[DecodeResult]:
    rows = [_Row(lemma, []) for lemma, _ in inputs]
    exs = [HaemExecutor(lemma) for lemma, _ in inputs]
    feats = nc.vstack([model.feature_indicator(features) for _, features in inputs])
    # per tracking LSTM, (h, c) with row r input r's state for the whole decode
    lstms = [cell._start_rows(len(inputs)) for cell, _ in model.tracks]
    active = list(range(len(inputs)))
    while active:
        attended = nc.constant(frames[first[active] + np.array([exs[r].i - 1 for r in active])])
        x = model._input([nc.constant(h[active]) for h, _ in lstms], attended,
                         nc.row(feats, active))
        valid = np.array([model._valid(exs[r]) for r in active])
        going, feeds = [], []         # the inputs that go on, and each one's feed per track
        for r, dist in zip(active, model._scores(x, valid).value):
            ex = exs[r]
            action = _haem_action(model, ex.out, dist, rows[r])
            if action is None:
                continue
            exs[r] = ex.apply(action)
            if rows[r].end_step(exs[r].done):
                going.append(r)
                feeds.append(model._feeds(ex, action))
        active = going
        for t, (track, lstm) in enumerate(zip(model.tracks, lstms)):
            _advance(track, lstm, active, [f[t] for f in feeds])
    return [row.result(ex.out, model.arch) for row, ex in zip(rows, exs)]


# --- batch bookkeeping ---


def _advance(track: tuple[LstmCell, EmbeddingTable], state: tuple[np.ndarray, np.ndarray],
             rows: list[int], feeds: list) -> None:
    """One tracking LSTM's (h, c) rows after one action, in place: row
    ``rows[j]`` steps on ``feeds[j]``, restarts from the learned state on
    RESTART, or keeps its state on None."""
    cell, emb = track
    h, c = state
    steps = [(r, feed) for r, feed in zip(rows, feeds) if feed is not None and feed is not RESTART]
    if steps:
        at = [r for r, _ in steps]
        new = cell.step(emb(np.array([feed for _, feed in steps])),
                        (nc.constant(h[at]), nc.constant(c[at])))
        h[at], c[at] = new[0].value, new[1].value
    restart = [r for r, feed in zip(rows, feeds) if feed is RESTART]
    h[restart], c[restart] = cell.h0.value, cell.c0.value


def has_runaway_repeat(text: str, threshold: int = MAX_RUN_LENGTH) -> bool:
    run_char, run_len = "", 0
    for ch in text:
        run_len = run_len + 1 if ch == run_char else 1
        run_char = ch
        if run_len >= threshold:
            return True
    return False


def post_filter(result: DecodeResult, lemma: str) -> DecodeResult:
    """Replace runaway predictions (cap hits or 10+ repeats of one
    character) with the lemma; everything else passes through unchanged."""
    if result.terminated_by == LENGTH_CAP or has_runaway_repeat(result.prediction):
        return replace(result, prediction=lemma, filtered=True)
    return result
