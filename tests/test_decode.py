import contextlib
import gc
import random

import numpy as np
import pytest

from hardmono import numcore as nc
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
from hardmono.synth import SynthConfig, generate
from hardmono.train import TrainConfig, train_model


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


# --- decoding without a tape ---

VARIANTS = {"HACM": ("HACM", "extended"), "HAEM": ("HAEM", "extended"),
            "HAEM-basic": ("HAEM", "basic")}


@pytest.fixture(scope="module")
def trained():
    train, dev, test = generate(SynthConfig(train=24, dev=8, test=8, seed=5))
    models = {}
    for name, (arch, variant) in VARIANTS.items():
        sizes = ModelConfig(hidden=8, embed=6, feat_embed=3, variant=variant)
        config = TrainConfig(epochs=3, patience=3, lr=0.01, dropout=0.0, seed=1)
        models[name] = train_model(arch, "smart", train, dev, sizes, config).model
    queries = [(s.lemma, s.features) for s in dev + test]
    return models, queries


def random_model(name, seed, loop=False):
    """Random weights; with ``loop``, one large WRITE bias makes decoding
    run to LENGTH_CAP."""
    arch, variant = VARIANTS[name]
    cls = HacmModel if arch == "HACM" else HaemModel
    m = cls(CharVocabulary(tuple("abfgilnoe")), FeatureAlphabet(("PST", "V")),
            ModelConfig(hidden=5, embed=4, feat_embed=2, variant=variant),
            np.random.default_rng(seed))
    if loop and arch == "HACM":
        m.gate.b.value[:] = 40.0
        m.gen.b.value[m.codec.write_id("o")] = 50.0
    elif loop:
        m.act_out.b.value[m.codec.write_id("o")] = 50.0
    return m


def decode_recording(model, lemma, features):
    """greedy_decode plus every distribution it consulted."""
    seen = []
    inner = model.distribution

    def distribution(state):
        dist = inner(state)
        seen.append(dist)
        return dist

    model.distribution = distribution
    try:
        return greedy_decode(model, lemma, features), seen
    finally:
        del model.distribution


def assert_same_with_and_without_tape(model, queries, monkeypatch):
    """Results and every step's distribution are bitwise equal when
    greedy_decode runs on the tape instead of under no_grad."""
    without = [decode_recording(model, *q) for q in queries]
    with monkeypatch.context() as patch:
        patch.setattr(nc, "no_grad", contextlib.nullcontext)
        taped = [decode_recording(model, *q) for q in queries]
    for (r1, d1), (r2, d2) in zip(without, taped):
        assert r1 == r2
        assert len(d1) == len(d2)
        assert not any(a.requires_grad for a in d1) and all(b.requires_grad for b in d2)
        assert all(np.array_equal(a.value, b.value) for a, b in zip(d1, d2))
    return [r for r, _ in without]


OOV_QUERIES = [("zQuaXe", ("V", "PST")), ("Ärger", ("V",)), ("aXbY", ("N", "V"))]


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_trained_decode_is_identical_without_a_tape(trained, name, monkeypatch):
    models, queries = trained
    results = assert_same_with_and_without_tape(models[name], queries + OOV_QUERIES,
                                                monkeypatch)
    assert any(r.terminated_by == END_ACTION for r in results)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_random_weight_decode_is_identical_without_a_tape(name, monkeypatch):
    queries = [("fliegen", ("V", "PST")), ("fog", ("V",))] + OOV_QUERIES
    for seed in range(3):
        assert_same_with_and_without_tape(random_model(name, seed), queries, monkeypatch)
        capped = assert_same_with_and_without_tape(random_model(name, seed, loop=True),
                                                   queries, monkeypatch)
        assert all(r.terminated_by == LENGTH_CAP for r in capped)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_decoding_leaves_no_cyclic_garbage(trained, name):
    model = trained[0][name]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for lemma, features in trained[1][:4] + OOV_QUERIES:
            greedy_decode(model, lemma, features)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
