import contextlib
import gc
import hashlib
import itertools
import random

import numpy as np
import pytest

from hardmono import decode, haem
from hardmono import numcore as nc
from hardmono.align import ALIGNERS
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.decode import (
    END_ACTION,
    LENGTH_CAP,
    MAX_EXTRA_CHARS,
    DecodeResult,
    greedy_decode,
    greedy_decode_all,
    has_runaway_repeat,
    post_filter,
)
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.haem import RESTART, HaemModel
from hardmono.oracle import (
    BOS,
    COPY,
    STOP,
    HacmExecutor,
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


def test_hacm_oov_copy_at_a_full_output_ends_at_the_cap():
    """An out-of-vocabulary character that no longer fits in the output
    ends the decode at LENGTH_CAP and is not copied."""
    m = build("HACM", chars="ab")
    ex = HacmExecutor("aXb", i=2)
    assert ex.frame_symbol().char not in m.vocab.chars
    row = decode._Row("aXb", BOS)
    row.out = "a" * row.write_cap
    assert decode._hacm_next(m, ex, None, row) is None
    assert row.result(m.arch) == DecodeResult("a" * row.write_cap,
                                              OracleSequence((BOS,), m.arch), LENGTH_CAP)


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


@pytest.mark.parametrize("arch", ["HACM", "HAEM"])
def test_empty_lemma_rejected(arch):
    with pytest.raises(ValueError, match="empty"):
        greedy_decode(build(arch), "", ("V",))


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


# --- lockstep decoding ---

LONG_QUERIES = [("fliegenbalogonifelagil", ("V", "PST")), ("gaflinobelagonifel" * 2, ("V",))]


def stop_on_pst(name, seed):
    """``random_model(loop=True)``, whose WRITE bias runs decoding to
    LENGTH_CAP, plus weights through which the PST feature makes the end
    action win: inputs with PST end by END_ACTION within a few steps, the
    rest at their own length caps."""
    m = random_model(name, seed, loop=True)
    slot = m.feats.slot_of("PST")
    if m.arch == "HACM":
        # decoder unit 0 saturates to h = +tanh(1) with PST and -tanh(1)
        # without, and the end action reads it
        hs, e, f = m.config.hidden, m.config.embed, m.config.feat_embed
        m.feat_emb.value[slot] = 1.0
        for gate, bias in enumerate((25.0, -25.0, 25.0, -25.0)):   # i, f, o, g
            m.decoder.b.value[gate * hs] = bias
        col = e + 2 * hs + slot * f
        m.decoder.w.value[3 * hs, col:col + f] = 50.0 / f
        m.gen.w.value[m.codec.id_of(m.codec.specials[2]), 0] = 100.0
    else:
        width = 3 * m.config.hidden
        m.state_proj.w.value[0, width + slot] = 100.0
        m.act_out.w.value[m.STOP_ID, 0] = 10.0
    return m


# BLAS blocks a product by its row count, so a row of a product over many
# rows can differ in its last bits from the same row alone; each lockstep
# distribution must be within this of the per-sample one
LOCKSTEP_ATOL = 1e-12


@pytest.fixture
def rule_inputs(monkeypatch):
    """Every distribution the decode rules read, per decode in call order."""
    seen = {}
    for name in ("_hacm_next", "_haem_action"):
        def wrapped(model, where, dist, row, inner=getattr(decode, name)):
            seen.setdefault(id(row), (row, []))[1].append(dist)   # keeps the row alive
            return inner(model, where, dist, row)
        monkeypatch.setattr(decode, name, wrapped)
    return seen


def assert_lockstep_matches(model, queries, seen):
    """greedy_decode_all gives greedy_decode's results in batches of 1, 7
    and all, from distributions within LOCKSTEP_ATOL of its own."""
    seen.clear()
    single = [greedy_decode(model, *q) for q in queries]
    want = [dists for _, dists in seen.values()]
    for size in (1, 7, len(queries)):
        seen.clear()
        batched = [r for i in range(0, len(queries), size)
                   for r in greedy_decode_all(model, queries[i:i + size])]
        assert batched == single, size
        got = [dists for _, dists in seen.values()]
        assert [len(d) for d in got] == [len(d) for d in want]
        for a, b in zip(itertools.chain(*got), itertools.chain(*want)):
            assert (a is None) == (b is None)
            assert a is None or np.allclose(a, b, rtol=0, atol=LOCKSTEP_ATOL)
    return single


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_lockstep_decode_matches_single_decodes(trained, name, rule_inputs):
    models, queries = trained
    results = assert_lockstep_matches(models[name], queries + OOV_QUERIES + LONG_QUERIES,
                                      rule_inputs)
    assert any(r.terminated_by == END_ACTION for r in results)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_a_batch_of_one_is_bitwise_a_single_decode(trained, name, rule_inputs):
    """greedy_decode_all of one input computes exactly what greedy_decode
    computes: the same result from bitwise the same distributions. The
    models are the trained one, a random one, and one that runs to
    LENGTH_CAP; for HAEM it first deletes the whole lemma, so every write
    step reads a masked distribution."""
    models, queries = trained
    capped = random_model(name, 1, loop=True)
    if capped.arch == "HAEM":
        capped.act_out.b.value[capped.DELETE_ID] = 60.0
    for model in (models[name], random_model(name, 0), capped):
        for query in queries + OOV_QUERIES + LONG_QUERIES:
            rule_inputs.clear()
            single = greedy_decode(model, *query)
            want = [dist for _, dists in rule_inputs.values() for dist in dists]
            rule_inputs.clear()
            assert greedy_decode_all(model, [query]) == [single], query
            got = [dist for _, dists in rule_inputs.values() for dist in dists]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert (a is None) == (b is None)
                assert a is None or np.array_equal(a, b), query
    assert single.terminated_by == LENGTH_CAP


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_lockstep_rows_finish_at_their_own_steps(name, rule_inputs):
    queries = [("fliegen", ("V", "PST")), ("fog", ("V",)), ("a", ("PST",)),
               ("gaflinobelagonifel", ("V",))] + OOV_QUERIES + LONG_QUERIES
    for seed in range(2):
        results = assert_lockstep_matches(stop_on_pst(name, seed), queries, rule_inputs)
        ends = [(r.terminated_by, len(r.trace.actions)) for r in results]
        assert {end for end, _ in ends} == {END_ACTION, LENGTH_CAP}
        assert len({steps for end, steps in ends if end == LENGTH_CAP}) > 2
        assert [end == END_ACTION for end, _ in ends] == ["PST" in q[1] for q in queries]


def test_lockstep_resets_the_deleted_run_on_write(rule_inputs):
    """Biases that delete the lemma and then write: the deleted-run LSTM
    steps on every DELETE and restarts on the first WRITE, and every later
    distribution reads it."""
    queries = [("fliegen", ("V", "PST")), ("fog", ("V",))] + OOV_QUERIES + LONG_QUERIES
    for seed in range(2):
        m = random_model("HAEM", seed)
        m.act_out.b.value[m.DELETE_ID] = 20.0
        m.act_out.b.value[m.codec.write_id("o")] = 10.0
        for r in assert_lockstep_matches(m, queries, rule_inputs):
            tags = [a.tag for a in r.trace.actions]
            assert tags[:tags.index("WRITE")] == ["DELETE"] * tags.index("WRITE")


def test_lockstep_advances_kept_stepped_and_restarted_rows_together(rule_inputs, monkeypatch):
    """Weights that tie the action to the input's feature: V copies, PST
    deletes and an unseen tag writes, so on one step the deleted-run LSTM
    keeps one row, steps another and restarts a third."""
    m = random_model("HAEM", 0)
    hs = m.config.hidden
    for unit, (slot, action_id) in enumerate([
            (m.feats.slot_of("V"), m.COPY_ID), (m.feats.slot_of("PST"), m.DELETE_ID),
            (m.feats.slot_of("N"), m.codec.write_id("o"))]):
        m.state_proj.w.value[unit, 3 * hs + slot] = 100.0
        m.act_out.w.value[action_id, unit] = 10.0
    mixes = []

    def advance(track, state, rows, feeds, inner=haem._advance):
        if track is m.tracks[2]:
            mixes.append({"keep" if f is None else "restart" if f is RESTART else "step"
                          for f in feeds})
        return inner(track, state, rows, feeds)

    monkeypatch.setattr(haem, "_advance", advance)
    queries = [("fliegen", ("V",)), ("gelingen", ("PST",)), ("fog", ("N",)),
               ("abgab", ("PST",)), ("lob", ("V",)), ("fliegenbalogonifelagil", ("N",))]
    results = assert_lockstep_matches(m, queries, rule_inputs)
    firsts = [r.trace.actions[0].tag for r in results]
    assert firsts == ["COPY", "DELETE", "WRITE", "DELETE", "COPY", "WRITE"]
    assert {"keep", "step", "restart"} in mixes


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_lockstep_steps_each_lstm_as_many_rows_as_single_decodes(trained, name, monkeypatch):
    """Over the same inputs, greedy_decode_all steps every decoder or
    tracking LSTM on exactly as many rows as the greedy_decode calls do: one
    row per action a decode consumes, and none for a decode that has ended."""
    models, queries = trained
    queries = queries + OOV_QUERIES + LONG_QUERIES
    for model in (models[name], stop_on_pst(name, 0)):
        cells = [model.decoder] if model.arch == "HACM" else [cell for cell, _ in model.tracks]
        stepped = [0] * len(cells)

        def kernel(w, add, xh, c, gates, h, inner=nc._lstm_row):
            for k, cell in enumerate(cells):
                if w is cell.w.value:
                    stepped[k] += len(xh)
            return inner(w, add, xh, c, gates, h)

        monkeypatch.setattr(nc, "_lstm_row", kernel)
        single = [greedy_decode(model, *q) for q in queries]
        want, stepped[:] = list(stepped), [0] * len(cells)
        assert want[0] > 0
        for size in (1, 7, len(queries)):
            for i in range(0, len(queries), size):
                greedy_decode_all(model, queries[i:i + size])
            assert stepped == want, size
            stepped[:] = [0] * len(cells)
    assert {r.terminated_by for r in single} == {END_ACTION, LENGTH_CAP}


def _digest(arrays):
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(array.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_lockstep_decode_writes_into_no_parameter_or_start_state(trained, name):
    """The lockstep loops write each step's states into rows of their own;
    none may alias a learned initial state, as a batch of one could. The
    weights are checked after every call: a decode that forgets its
    initial state could overwrite it with what an earlier call wrote."""
    model = trained[0][name]
    queries = trained[1] + OOV_QUERIES + LONG_QUERIES

    def start_states():
        states = [model.start(*q) for q in queries]
        return [part.value for s in states
                for pair in (s.lstms if model.arch == "HAEM" else [s.lstm]) for part in pair]

    weights, starts = _digest(model.params.state_dict().values()), _digest(start_states())
    for size in (1, len(queries)):
        for i in range(0, len(queries), size):
            greedy_decode_all(model, queries[i:i + size])
            assert _digest(model.params.state_dict().values()) == weights, (size, i)
        assert _digest(start_states()) == starts, size


@pytest.mark.parametrize("arch", ["HACM", "HAEM"])
def test_lockstep_decode_of_nothing_and_of_an_empty_lemma(arch):
    model = build(arch)
    assert greedy_decode_all(model, []) == []
    with pytest.raises(ValueError, match="empty"):
        greedy_decode_all(model, [("fog", ("V",)), ("", ("V",))])


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_batch_encoder_matches_each_start_in_any_order(name, monkeypatch):
    """The frames lockstep decoding encodes together are within
    LOCKSTEP_ATOL of each input's own ``start``, for inputs of 1 to 30
    letters given in file order or shuffled, and the encoder steps exactly
    one row per input position in each direction: none on padding."""
    model = random_model(name, 0)
    rng = random.Random(7)
    lemmas = ["".join(rng.choice("abfgilnoe") for _ in range(n))
              for n in [*range(1, 31), 1, 5, 5, 30]]

    def own(lemma):
        state = model.start(lemma, ("V",))
        return (state.frame if model.arch == "HACM" else state.encoded).value

    stepped = []

    def kernel(w, add, xh, c, gates, h, inner=nc._lstm_row):
        stepped.append(len(xh))
        return inner(w, add, xh, c, gates, h)

    frames = {}
    for order in (list(range(len(lemmas))), rng.sample(range(len(lemmas)), len(lemmas))):
        stepped.clear()
        with monkeypatch.context() as patch:
            patch.setattr(nc, "_lstm_row", kernel)
            table, first = model._frames([lemmas[k] for k in order])
        sizes = [len(model._frame_ids(lemmas[k])) for k in order]
        assert sum(stepped) == 2 * sum(sizes)
        assert len(table) == sum(len(own(lemma)) for lemma in lemmas)
        for k, start in zip(order, first):
            want = own(lemmas[k])
            got = table[start:start + len(want)]
            assert np.allclose(got, want, rtol=0, atol=LOCKSTEP_ATOL), (name, len(lemmas[k]))
            frames.setdefault(k, []).append(got)
    assert all(np.allclose(a, b, rtol=0, atol=LOCKSTEP_ATOL) for a, b in frames.values())
    for bad in ([], [np.zeros((2, 4)), np.zeros((0, 4))]):
        with pytest.raises(ValueError, match="nonempty"):
            model.encoder.encode_all(bad)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_lockstep_batch_of_short_oov_and_overlong_lemmas(trained, name, rule_inputs):
    """One batch mixing a 1-letter lemma, an out-of-vocabulary lemma and a
    lemma longer than any seen in training decodes as greedy_decode does,
    in batches of 1, 7 and all."""
    models, queries = trained
    train, _, _ = generate(SynthConfig(train=24, dev=8, test=8, seed=5))
    longest = max(len(s.lemma) for s in train)
    overlong = (train[0].lemma * 3)[:longest + 5]
    model = models[name]
    assert any(c not in model.vocab.chars for c in OOV_QUERIES[0][0])
    batch = [*queries[:4], (train[1].lemma[0], ("V",)), *queries[4:8], OOV_QUERIES[0],
             *queries[8:11], (overlong, train[0].features), *queries[11:13]]
    results = assert_lockstep_matches(model, batch, rule_inputs)
    assert len(results) == len(batch) > 14
