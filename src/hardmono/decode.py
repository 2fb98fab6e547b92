"""Greedy decoding for both architectures, plus the runaway-output filter.

Decoding picks the argmax action at every step (ties break toward the
lowest action id), stops on the end action, and is hard-capped so that
adversarial weights cannot loop: at most lemma length + 50 emitted
characters, and a bounded total action count. Cap hits are marked
LENGTH_CAP and the post filter replaces such predictions (and any
prediction containing a character repeated 10+ times in a row) with the
lemma itself.

``greedy_decode`` runs one input through the model's per-step API.
``greedy_decode_all`` decodes a list in lockstep through the model's
``lockstep`` transition, which encodes every input at once and then
advances all the rows it is given with one product per LSTM and one
output-head call per step. Both loops apply the same decode rules
(``_Row``, ``_hacm_next``, ``_haem_action``); a row leaves the batch when
its rule ends it, so a finished row steps no LSTM again. A batch of one
computes exactly what ``greedy_decode`` computes: each step runs the same
formulas on one row as on a vector (an LSTM step is one ``lstm_seq`` call
either way, and HACM's decoder reads input tables of the same products),
bit for bit. A larger batch matches only to rounding (the tests allow
1e-12), because BLAS blocks a product by its row count, so the
predictions are the same unless two actions tie that closely.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from hardmono import numcore as nc
from hardmono.hacm import HacmModel
from hardmono.haem import HaemModel
from hardmono.oracle import (BOS, EOS, HACM, STEP, Action, HacmExecutor, HaemExecutor,
                             OracleSequence, write)

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

    def __init__(self, lemma: str, first: Action | None):
        self.write_cap = len(lemma) + MAX_EXTRA_CHARS
        self.steps_left = _total_cap(len(lemma))
        self.out = ""
        self.trace = [] if first is None else [first]
        self.ended: str | None = None

    def fits(self) -> bool:
        """Whether one more character fits in the output; a full output
        ends the decode at the cap."""
        if len(self.out) < self.write_cap:
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

    def result(self, arch: str) -> DecodeResult:
        return DecodeResult(self.out, OracleSequence(tuple(self.trace), arch), self.ended)


def greedy_decode(model: HacmModel | HaemModel, lemma: str,
                  features: tuple[str, ...]) -> DecodeResult:
    """Decode without a tape: nothing differentiates the result."""
    with nc.no_grad():
        if model.arch == HACM:
            return _decode_hacm(model, lemma, features)
        return _decode_haem(model, lemma, features)


def greedy_decode_all(model: HacmModel | HaemModel,
                      inputs: Sequence[tuple[str, tuple[str, ...]]]) -> list[DecodeResult]:
    """``greedy_decode`` of every (lemma, features) input, in lockstep."""
    if not inputs:
        return []
    rule = _hacm_next if model.arch == HACM else _haem_action
    # HACM's decoder consumes BOS on its first step; HAEM's starts with no action
    first = BOS if model.arch == HACM else None
    rows = [_Row(lemma, first) for lemma, _ in inputs]
    last = [first] * len(inputs)
    with nc.no_grad():
        exs, step = model.lockstep(inputs)
        active = list(range(len(inputs)))
        while active:
            for r, dist in zip(active, step(active, [last[r] for r in active])):
                last[r] = rule(model, exs[r], dist, rows[r])
            active = [r for r in active if last[r] is not None]
    return [row.result(model.arch) for row in rows]


# --- the copy-mixture model ---


def _hacm_next(model: HacmModel, ex: HacmExecutor, dist: np.ndarray | None,
               row: _Row) -> Action | None:
    """HACM's rules after a decoder step that left the pointer at ``ex``.
    ``dist`` is the step's distribution, None when the attended character
    is out of vocabulary. Returns the action the next step consumes, or
    None once the decode has ended."""
    if dist is None:
        # attended character unseen in training: copy it outright and let
        # STEP stand in as the previous action
        if not row.fits():
            return None
        char = ex.frame_symbol().char
        row.out += char
        row.trace += [write(char), STEP]
        return STEP if row.end_step(False) else None
    action = model.codec.action_of(int(np.argmax(dist)))
    if action.tag == "STEP" and ex.i == ex.n + 1:
        # the pointer cannot leave the frame; an argmax STEP here can only
        # mean the model is done
        action = EOS
    if action.tag == "WRITE":
        if not row.fits():
            return None
        row.out += action.char
    row.trace.append(action)
    return action if row.end_step(action.tag == "EOS") else None


def _decode_hacm(model: HacmModel, lemma: str, features: tuple[str, ...]) -> DecodeResult:
    row = _Row(lemma, BOS)
    state = model.start(lemma, features)
    action = BOS
    while action is not None:
        state = model.step(state, model.codec.id_of(action))
        oov = model.attended_oov(state) is not None
        action = _hacm_next(model, state.ex, None if oov else model.distribution(state).value, row)
    return row.result(HACM)


# --- the edit-action model ---


def _haem_action(model: HaemModel, ex: HaemExecutor, dist: np.ndarray,
                 row: _Row) -> Action | None:
    """HAEM's argmax action from ``ex``, recorded in the trace with the
    output it leaves. Returns the action for the tracking LSTMs to consume,
    or None once the decode has ended: by STOP, or at a cap."""
    action = model.codec.action_of(int(np.argmax(dist)))
    if action.tag in ("WRITE", "COPY") and not row.fits():
        return None
    row.trace.append(action)
    after = ex.apply(action)
    row.out = after.out
    return action if row.end_step(after.done) else None


def _decode_haem(model: HaemModel, lemma: str, features: tuple[str, ...]) -> DecodeResult:
    row = _Row(lemma, None)
    state = model.start(lemma, features)
    action = _haem_action(model, state.ex, model.distribution(state).value, row)
    while action is not None:
        state = model.apply(state, action)
        action = _haem_action(model, state.ex, model.distribution(state).value, row)
    return row.result(model.arch)


def has_runaway_repeat(text: str) -> bool:
    run_char, run_len = "", 0
    for ch in text:
        run_len = run_len + 1 if ch == run_char else 1
        run_char = ch
        if run_len >= MAX_RUN_LENGTH:
            return True
    return False


def post_filter(result: DecodeResult, lemma: str) -> DecodeResult:
    """Replace runaway predictions (cap hits or 10+ repeats of one
    character) with the lemma; everything else passes through unchanged."""
    if result.terminated_by == LENGTH_CAP or has_runaway_repeat(result.prediction):
        return replace(result, prediction=lemma, filtered=True)
    return result
