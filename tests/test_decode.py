import random

import numpy as np
import pytest

from hardmono.align import ALIGNERS
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.decode import (
    END_ACTION,
    LENGTH_CAP,
    MAX_EXTRA_CHARS,
    DecodeResult,
    greedy_decode,
    has_runaway_repeat,
    post_filter,
)
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.haem import HaemModel
from hardmono.oracle import (
    COPY,
    STOP,
    HaemExecutor,
    OracleSequence,
    hacm_oracle,
    haem_oracle,
    replay,
    replay_with_trace,
)


CFG = ModelConfig(hidden=5, embed=4, feat_embed=2, dropout=0.0)


def build(arch, chars="abfgilnoe", seed=0):
    vocab = CharVocabulary(tuple(sorted(set(chars))))
    feats = FeatureAlphabet(("PST", "V"))
    cls = HacmModel if arch == "HACM" else HaemModel
    return cls(vocab, feats, CFG, np.random.default_rng(seed))


def zero_params(model):
    for node in model.params.nodes():
        node.value[:] = 0.0


# --- models and executors agree ---


@pytest.mark.parametrize("aligner", sorted(ALIGNERS))
def test_teacher_forced_models_follow_the_executors(aligner):
    """Fed an oracle sequence, HACM's pointer visits exactly the replay trace
    and HAEM reaches the executor's (i, out, done) after every action."""
    rng = random.Random(13)
    align = ALIGNERS[aligner]
    hacm, haem = build("HACM"), build("HAEM")
    for _ in range(40):
        lemma, form = ("".join(rng.choice("abfgilnoe") for _ in range(rng.randint(1, 8)))
                       for _ in range(2))
        seq = hacm_oracle(align(lemma, form))
        _, trace = replay_with_trace(lemma, seq)
        state = hacm.start(lemma, ("V",))
        visited = []
        for action in seq.actions[:-1]:   # the final EOS is predicted, never fed
            state = hacm.step(state, hacm.codec.id_of(action))
            visited.append(state.i)
        assert visited == trace[1:]

        state, ex = haem.start(lemma, ("V",)), HaemExecutor(lemma)
        for action in haem_oracle(align(lemma, form)).actions:
            state, ex = haem.apply(state, action), ex.apply(action)
            assert (state.i, state.out, state.done) == (ex.i, ex.out, ex.done)
        assert state.out == form


# --- edit-action model decoding ---


def test_haem_zero_weights_decode_identity():
    """Uniform distributions argmax to the lowest id: COPY while on the
    lemma, then STOP. That is the identity transduction, and it also pins
    the tie-break rule."""
    m = build("HAEM", seed=1)
    zero_params(m)
    r = greedy_decode(m, "fliegen", ("V",))
    assert r.prediction == "fliegen"
    assert r.terminated_by == END_ACTION
    assert r.trace.actions == (COPY,) * 7 + (STOP,)
    assert replay("fliegen", r.trace) == r.prediction


def test_haem_copies_oov_characters_verbatim():
    m = build("HAEM", chars="ab", seed=2)
    zero_params(m)
    r = greedy_decode(m, "aXbY", ("V",))
    assert r.prediction == "aXbY"
    assert r.terminated_by == END_ACTION


def test_haem_trace_always_valid():
    m = build("HAEM", seed=3)
    r = greedy_decode(m, "fliegen", ("V", "PST"))
    state = m.start("fliegen", ("V", "PST"))
    for action in r.trace.actions:
        assert m.valid_mask(state)[m.codec.id_of(action)]
        state = m.apply(state, action)


def test_haem_write_loop_hits_cap():
    m = build("HAEM", seed=4)
    zero_params(m)
    m.act_out.b.value[m.codec.write_id("a")] = 50.0  # always argmax WRITE(a)
    r = greedy_decode(m, "fog", ("V",))
    assert r.terminated_by == LENGTH_CAP
    assert len(r.prediction) == len("fog") + MAX_EXTRA_CHARS
    assert set(r.prediction) == {"a"}


# --- copy-mixture model decoding ---


def test_hacm_step_only_weights_decode_empty():
    """Weights that always argmax STEP walk the pointer across the frame;
    at the frame end the forced coercion emits EOS."""
    m = build("HACM", seed=5)
    zero_params(m)
    m.gate.b.value[:] = 40.0  # w -> 1: pure generation
    m.gen.b.value[0] = 50.0   # STEP has id 0
    r = greedy_decode(m, "fog", ("V",))
    assert r.prediction == ""
    assert r.terminated_by == END_ACTION
    names = [a.tag for a in r.trace.actions]
    assert names == ["BOS"] + ["STEP"] * 4 + ["EOS"]
    assert replay("fog", r.trace) == ""


def test_hacm_oov_characters_copied_verbatim():
    m = build("HACM", chars="ab", seed=6)
    zero_params(m)
    m.gate.b.value[:] = 40.0
    m.gen.b.value[0] = 50.0  # STEP everywhere; forced copy intercepts OOV
    r = greedy_decode(m, "aXbY", ("V",))
    assert r.prediction == "XY"
    assert r.terminated_by == END_ACTION
    assert replay("aXbY", r.trace) == "XY"


def test_hacm_write_loop_hits_cap_and_filter_restores_lemma():
    m = build("HACM", seed=7)
    zero_params(m)
    m.gate.b.value[:] = 40.0
    m.gen.b.value[m.codec.write_id("o")] = 50.0
    r = greedy_decode(m, "fog", ("V",))
    assert r.terminated_by == LENGTH_CAP
    assert len(r.prediction) == len("fog") + MAX_EXTRA_CHARS
    filtered = post_filter(r, "fog")
    assert filtered.filtered and filtered.prediction == "fog"


def test_hacm_bos_loop_terminates_by_cap():
    m = build("HACM", seed=8)
    zero_params(m)
    m.gate.b.value[:] = 40.0
    m.gen.b.value[1] = 50.0  # BOS forever: a no-op action loop
    r = greedy_decode(m, "fog", ("V",))
    assert r.terminated_by == LENGTH_CAP
    assert post_filter(r, "fog").prediction == "fog"


def test_untrained_models_always_terminate():
    for arch in ("HACM", "HAEM"):
        for seed in range(4):
            m = build(arch, seed=seed)
            r = greedy_decode(m, "fliegen", ("V", "PST"))
            assert r.terminated_by in (END_ACTION, LENGTH_CAP)
            if r.terminated_by == END_ACTION:
                assert replay("fliegen", r.trace) == r.prediction
            assert len(r.prediction) <= len("fliegen") + MAX_EXTRA_CHARS


def test_empty_lemma_rejected():
    with pytest.raises(ValueError, match="empty"):
        greedy_decode(build("HAEM"), "", ("V",))


# --- the runaway filter ---


def test_runaway_repeat_detection():
    assert not has_runaway_repeat("aaab")
    assert not has_runaway_repeat("a" * 9)
    assert has_runaway_repeat("a" * 10)
    assert has_runaway_repeat("fl" + "o" * 11 + "g")
    assert not has_runaway_repeat("")
    assert not has_runaway_repeat("ababababababababababab")


def unfiltered_result(prediction, terminated_by=END_ACTION):
    return DecodeResult(prediction, OracleSequence((STOP,), "HAEM"), terminated_by)


def test_post_filter_rules():
    ok = post_filter(unfiltered_result("flog"), "fliegen")
    assert ok.prediction == "flog" and not ok.filtered

    capped = post_filter(unfiltered_result("flo", LENGTH_CAP), "fliegen")
    assert capped.prediction == "fliegen" and capped.filtered

    repeats = post_filter(unfiltered_result("fl" + "o" * 12), "fliegen")
    assert repeats.prediction == "fliegen" and repeats.filtered

    short_run = post_filter(unfiltered_result("flooog"), "fliegen")
    assert short_run.prediction == "flooog" and not short_run.filtered
