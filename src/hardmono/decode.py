"""Greedy decoding for both architectures, plus the runaway-output filter.

Decoding picks the argmax action at every step (ties break toward the
lowest action id), stops on the end action, and is hard-capped so that
adversarial weights cannot loop: at most lemma length + 50 emitted
characters, and a bounded total action count. Cap hits are marked
LENGTH_CAP and the post filter replaces such predictions (and any
prediction containing a character repeated 10+ times in a row) with the
lemma itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hardmono import numcore as nc
from hardmono.hacm import HacmModel
from hardmono.haem import HaemModel
from hardmono.oracle import HACM, OracleSequence, write

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


def greedy_decode(model: HacmModel | HaemModel, lemma: str,
                  features: tuple[str, ...]) -> DecodeResult:
    """Decode without a tape: nothing differentiates the result."""
    if not lemma:
        raise ValueError("empty lemma")
    with nc.no_grad():
        if model.arch == HACM:
            return _decode_hacm(model, lemma, features)
        return _decode_haem(model, lemma, features)


def _decode_hacm(model: HacmModel, lemma: str, features: tuple[str, ...]) -> DecodeResult:
    codec = model.codec
    step_id = codec.id_of(codec.specials[0])
    bos, eos = codec.specials[1], codec.specials[2]
    write_cap = len(lemma) + MAX_EXTRA_CHARS

    state = model.start(lemma, features)
    out = ""
    trace = [bos]
    prev = codec.id_of(bos)
    terminated = LENGTH_CAP
    for _ in range(_total_cap(len(lemma))):
        state = model.step(state, prev)
        oov = model.attended_oov(state)
        if oov is not None:
            # attended character unseen in training: copy it outright and
            # let STEP stand in as the previous action
            if len(out) == write_cap:
                break
            out += oov
            trace.append(write(oov))
            trace.append(codec.specials[0])
            prev = step_id
            continue
        dist = model.distribution(state).value
        action_id = int(np.argmax(dist))
        action = codec.action_of(action_id)
        if action.tag == "STEP" and state.i == state.ex.n + 1:
            # the pointer cannot leave the frame; an argmax STEP here can
            # only mean the model is done
            action, action_id = eos, codec.id_of(eos)
        if action.tag == "WRITE":
            if len(out) == write_cap:
                break
            out += action.char
        trace.append(action)
        if action.tag == "EOS":
            terminated = END_ACTION
            break
        prev = action_id
    return DecodeResult(out, OracleSequence(tuple(trace), HACM), terminated)


def _decode_haem(model: HaemModel, lemma: str, features: tuple[str, ...]) -> DecodeResult:
    codec = model.codec
    write_cap = len(lemma) + MAX_EXTRA_CHARS

    state = model.start(lemma, features)
    trace = []
    terminated = LENGTH_CAP
    for _ in range(_total_cap(len(lemma))):
        dist = model.distribution(state).value
        action = codec.action_of(int(np.argmax(dist)))
        if action.tag in ("WRITE", "COPY") and len(state.out) == write_cap:
            break
        trace.append(action)
        state = model.apply(state, action)
        if state.done:
            terminated = END_ACTION
            break
    return DecodeResult(state.out, OracleSequence(tuple(trace), model.arch), terminated)


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
