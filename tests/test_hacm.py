import random
import tracemalloc

import numpy as np
import pytest

from hardmono import numcore as nc
from hardmono import hacm as hacm_module
from hardmono.align import naive_align, smart_align
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.hacm import HacmModel, ModelConfig
from hardmono.oracle import BOS, STEP, hacm_oracle, write


CFG = ModelConfig(hidden=6, embed=5, feat_embed=3, dropout=0.0)


def build(chars="abfgilnoe", feats=("2", "PST", "SG", "V"), seed=0, cfg=CFG):
    vocab = CharVocabulary(tuple(sorted(set(chars))))
    alphabet = FeatureAlphabet(tuple(sorted(feats)))
    return HacmModel(vocab, alphabet, cfg, np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(hidden=0)
    with pytest.raises(ValueError):
        ModelConfig(variant="huge")
    with pytest.raises(ValueError):
        ModelConfig(dropout=1.0)


def test_feature_vector_layout():
    m = build()
    f = m.feature_vector(()).value
    assert np.array_equal(f, np.zeros(m.feat_width))

    full = m.feature_vector(("2", "PST", "SG", "V")).value
    fe = m.config.feat_embed
    for slot in range(4):
        assert np.array_equal(full[slot * fe:(slot + 1) * fe], m.feat_emb(slot).value)
    assert np.array_equal(full[4 * fe:], np.zeros(fe))  # unk slot absent

    two = m.feature_vector(("V", "PST")).value
    nonzero_slots = [s for s in range(m.feats.num_slots)
                     if np.any(two[s * fe:(s + 1) * fe] != 0)]
    assert nonzero_slots == [m.feats.slot_of("PST"), m.feats.slot_of("V")]


def test_unseen_feature_maps_to_unk_slot():
    m = build()
    fe = m.config.feat_embed
    vec = m.feature_vector(("NONSUCH",)).value
    unk = m.feats.unk_slot
    assert np.array_equal(vec[unk * fe:], m.feat_emb(unk).value)


def test_decoder_input_dimension_law():
    m = build()
    cfg = m.config
    expected = cfg.embed + 2 * cfg.hidden + cfg.feat_embed * m.feats.num_slots
    assert m.decoder.input_size == expected


def test_first_step_attends_frame_start():
    m = build()
    state = m.start("fog", ("V",))
    assert state.i == 0 and state.attended is None
    bos_id = m.codec.id_of(m.codec.specials[1])
    state = m.step(state, bos_id)
    assert state.i == 0  # BOS consumed, pointer still on the frame start
    step_id = m.codec.id_of(m.codec.specials[0])
    state = m.step(state, step_id)
    assert state.i == 1  # STEP moved the pointer before attending


def test_step_past_frame_end_is_error():
    m = build()
    state = m.start("a", ("V",))
    step_id = m.codec.id_of(m.codec.specials[0])
    state = m.step(state, m.codec.id_of(m.codec.specials[1]))
    state = m.step(state, step_id)
    state = m.step(state, step_id)  # i = n+1 = 2
    with pytest.raises(ValueError, match="past frame end"):
        m.step(state, step_id)


def random_reachable_state(m, rng, lemma="fliegen"):
    state = m.start(lemma, ("V", "PST"))
    state = m.step(state, m.codec.id_of(m.codec.specials[1]))
    step_id = m.codec.id_of(m.codec.specials[0])
    for _ in range(rng.randint(0, len(lemma))):
        if rng.random() < 0.5:
            state = m.step(state, step_id)
        else:
            cid = m.codec.write_id(rng.choice("fgile"))
            state = m.step(state, cid)
    return state


def test_mixture_sums_to_one_everywhere():
    m = build(seed=3)
    rng = random.Random(3)
    for _ in range(200):
        p = m.distribution(random_reachable_state(m, rng)).value
        assert p.min() >= 0
        assert abs(p.sum() - 1.0) < 1e-6


def test_mixture_endpoints():
    m = build(seed=4)
    state = m.start("fog", ("V",))
    state = m.step(state, m.codec.id_of(m.codec.specials[1]))
    state = m.step(state, m.codec.id_of(m.codec.specials[0]))  # attend 'f'

    m.gate.w.value[:] = 0.0
    m.gate.b.value[:] = 40.0  # w -> 1: pure generation
    p = m.distribution(state).value
    p_gen = nc.softmax(m.gen(state.lstm[0])).value
    assert np.allclose(p, p_gen, atol=1e-12)

    m.gate.b.value[:] = -40.0  # w -> 0: pure copy of the attended 'f'
    p = m.distribution(state).value
    copy_id = m.codec.write_id("f")
    assert p[copy_id] > 1 - 1e-12
    assert p.sum() == pytest.approx(1.0, abs=1e-9)


def test_copy_mass_lower_bound():
    m = build(seed=5)
    rng = random.Random(5)
    for _ in range(100):
        state = random_reachable_state(m, rng)
        copy_id = m.copy_action_id(state)
        gate_in = nc.concat([nc.row(state.frame, state.i), state.feat_vec,
                             state.prev_emb, state.lstm[0]])
        w = float(nc._sigmoid(m.gate(gate_in).value[0]))
        p = m.distribution(state).value
        assert p[copy_id] >= (1 - w) - 1e-12


def test_step_reads_the_attended_frame_row_once(monkeypatch):
    m = build(seed=9)
    state = m.step(m.start("fog", ("V",)), m.codec.id_of(m.codec.specials[1]))
    frame_reads = []
    row = hacm_module.nc.row

    def counted(table, index):
        if table is state.frame:
            frame_reads.append(index)
        return row(table, index)

    monkeypatch.setattr(hacm_module.nc, "row", counted)
    state = m.step(state, m.codec.id_of(m.codec.specials[0]))
    assert m.attended_oov(state) is None
    m.distribution(state)
    assert frame_reads == [1]


def test_attended_is_the_frame_row_at_the_pointer():
    m = build(seed=10)
    rng = random.Random(10)
    for _ in range(100):
        state = random_reachable_state(m, rng)
        assert np.array_equal(state.attended.value, nc.row(state.frame, state.i).value)


def test_sentinel_positions_copy_sentinel_actions():
    m = build(seed=6)
    state = m.start("ab", ("V",))
    state = m.step(state, m.codec.id_of(m.codec.specials[1]))
    assert m.copy_action_id(state) == 1  # attending frame BOS
    step_id = m.codec.id_of(m.codec.specials[0])
    for _ in range(3):
        state = m.step(state, step_id)
    assert state.i == 3 == state.ex.n + 1
    assert m.copy_action_id(state) == 2  # attending frame EOS


def test_oov_attended_character():
    m = build(chars="ab", seed=7)
    state = m.start("aXb", ("V",))
    state = m.step(state, m.codec.id_of(m.codec.specials[1]))
    step_id = m.codec.id_of(m.codec.specials[0])
    state = m.step(state, step_id)
    assert m.attended_oov(state) is None  # 'a' is in vocabulary
    state = m.step(state, step_id)
    assert m.attended_oov(state) == "X"
    with pytest.raises(ValueError, match="no action id"):
        m.distribution(state)


def test_uniform_generation_loss_closed_form():
    m = build(seed=8)
    m.gen.w.value[:] = 0.0
    m.gen.b.value[:] = 0.0
    m.gate.w.value[:] = 0.0
    m.gate.b.value[:] = 40.0  # w -> 1, so the mixture is the uniform softmax
    oracle = hacm_oracle(smart_align("fliegen", "flog"))
    loss = float(m.sample_loss("fliegen", ("V", "PST"), oracle, training=False).value)
    predicted_steps = len(oracle) - 1  # everything after the initial BOS
    assert loss == pytest.approx(predicted_steps * np.log(m.codec.size), rel=1e-9)


def test_loss_positive_finite_and_grad_checks():
    cfg = ModelConfig(hidden=4, embed=3, feat_embed=2, dropout=0.0)
    m = build(chars="ab", feats=("V",), seed=9, cfg=cfg)
    oracle = hacm_oracle(naive_align("ab", "ab"))
    loss = m.sample_loss("ab", ("V",), oracle, training=False)
    assert np.isfinite(loss.value) and float(loss.value) > 0
    err = nc.grad_check(
        lambda: m.sample_loss("ab", ("V",), oracle, training=False),
        m.params.nodes(), samples_per_param=8, rng=random.Random(0))
    assert err < 1e-4


def test_loss_rejects_oov_oracle_write():
    m = build(chars="ab", seed=10)
    oracle = hacm_oracle(naive_align("ab", "aZ"))
    with pytest.raises(ValueError, match="outside the trained inventory"):
        m.sample_loss("ab", ("V",), oracle, training=False)


def test_loss_rejects_wrong_inventory():
    from hardmono.oracle import haem_oracle
    m = build(seed=11)
    with pytest.raises(ValueError, match="BOS-led"):
        m.sample_loss("ab", ("V",), haem_oracle(naive_align("ab", "ab")), training=False)


def test_distribution_before_the_first_step_is_an_error():
    m = build()
    with pytest.raises(ValueError, match="^distribution before the first decoder step$"):
        m.distribution(m.start("fog", ("V",)))


def test_dropout_needs_generator_and_changes_loss(monkeypatch):
    cfg = ModelConfig(hidden=4, embed=3, feat_embed=2, dropout=0.5)
    m = build(chars="ab", feats=("V",), seed=12, cfg=cfg)
    oracle = hacm_oracle(naive_align("ab", "ab"))
    with monkeypatch.context() as patch, pytest.raises(ValueError, match="generator"):
        # the usage error comes before the encoder runs
        patch.setattr(m, "_frame", lambda lemma: pytest.fail("encoded before the usage check"))
        m.sample_loss("ab", ("V",), oracle, training=True)
    l1 = float(m.sample_loss("ab", ("V",), oracle, rng=np.random.default_rng(1)).value)
    l2 = float(m.sample_loss("ab", ("V",), oracle, rng=np.random.default_rng(2)).value)
    l_eval = float(m.sample_loss("ab", ("V",), oracle, training=False).value)
    assert l1 != l2 != l_eval


def test_seeded_construction_is_deterministic():
    a = build(seed=21)
    b = build(seed=21)
    for name in a.params.names():
        assert np.array_equal(a.params[name].value, b.params[name].value)


# --- the decoder's input tables ---


def concat_step(m, lstm, action_ids, attended, feats):
    """The decoder step on its whole input [E(prev); h_i; f]: the reference
    for steps read from the input tables."""
    return m.decoder.step(nc.concat([m.act_emb(action_ids), attended, feats]), lstm)


@pytest.mark.parametrize("lemma", ["fliegen", "aXbY"], ids=["in-vocabulary", "oov"])
def test_a_vector_step_from_the_tables_matches_the_concatenated_input(lemma):
    """Vector steps that sweep the pointer over the whole frame, with a
    WRITE between moves, reach the states of steps on [E(prev); h_i; f] to
    1e-12; in the oov case some steps attend a character out of
    vocabulary."""
    m = build(seed=13)
    state = m.start(lemma, ("V", "PST"))
    actions, oov = [BOS], 0
    while len(actions) < 2 * len(lemma) + 3:
        actions += [write("a"), STEP]
    for action in actions:
        action_id = m.codec.id_of(action)
        new = m.step(state, action_id)
        want = concat_step(m, state.lstm, action_id, nc.row(state.frame, new.i), state.feat_vec)
        for got, ref in zip(new.lstm, want):
            assert np.allclose(got.value, ref.value, rtol=0, atol=1e-12)
        oov += m.attended_oov(new) is not None
        state = new
    # each unseen character is attended twice: after its STEP and its WRITE
    assert state.i == len(lemma) + 1 and oov == (4 if lemma == "aXbY" else 0)


def test_seven_lockstep_rows_from_the_tables_match_the_concatenated_inputs(monkeypatch):
    """The rows a lockstep step gives the decoder, read from the batch's
    tables, step as the rows [E(prev); h_i; f] do, to 1e-12; the third row
    attends a character out of vocabulary."""
    m = build(seed=14)
    inputs = [("fliegen", ("V",)), ("fog", ("PST", "V")), ("Xab", ("2",)), ("a", ()),
              ("gole", ("SG",)), ("bafel", ("V", "SG")), ("lieb", ("PST", "NEW"))]
    steps = []
    inner = m.decoder.step

    def recorded(x, state, projected=False):
        out = inner(x, state, projected)
        steps.append((state, out))
        return out

    monkeypatch.setattr(m.decoder, "step", recorded)
    exs, step = m.lockstep(inputs)
    rows, unseen = list(range(len(inputs))), []
    for action in (BOS, STEP, write("o"), STEP):
        dists = step(rows, [action] * len(rows))
        unseen.append([r for r, dist in zip(rows, dists) if dist is None])
        state, out = steps[-1]
        starts = [m.start(lemma, features) for lemma, features in inputs]
        attended = nc.vstack([nc.row(s.frame, ex.i) for s, ex in zip(starts, exs)])
        feats = nc.vstack([s.feat_vec for s in starts])
        ids = np.full(len(rows), m.codec.id_of(action))
        for got, ref in zip(out, concat_step(m, state, ids, attended, feats)):
            assert got.shape == (7, m.config.hidden)
            assert np.allclose(got.value, ref.value, rtol=0, atol=1e-12)
    assert unseen == [[], [2], [2], []]


def test_a_vector_decoder_step_copies_no_weight_block():
    """A vector step multiplies the recurrent block of dec.w in place: at
    hidden 100 it allocates less than that 400 x 100 block (320 KB), which
    any copy of the block would take."""
    m = build(cfg=ModelConfig())
    hidden = m.config.hidden
    with nc.no_grad():
        state = m.step(m.start("fliegen", ("V", "PST")), m.codec.id_of(BOS))
        step_id = m.codec.id_of(STEP)
        m.step(state, step_id)
        tracemalloc.start()
        try:
            m.step(state, step_id)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert hidden == 100 and peak < 4 * hidden * hidden * 8


def test_per_step_loss_and_gradients_match_sample_loss():
    """Teacher-forced through the per-step API, an oracle's negative
    log-likelihood and its gradients equal those of ``sample_loss`` with
    dropout off, to rounding: the tables built at ``start`` carry the
    gradients of the decoder's input. They also grad-check."""
    cfg = ModelConfig(hidden=4, embed=3, feat_embed=2, dropout=0.0)
    m = build(chars="ab", feats=("V",), seed=15, cfg=cfg)
    lemma, oracle = "abba", hacm_oracle(smart_align("abba", "aab"))

    def per_step():
        state, total = m.start(lemma, ("V",)), nc.constant(0.0)
        for prev, action in zip(oracle.actions, oracle.actions[1:]):
            state = m.step(state, m.codec.id_of(prev))
            total = nc.add(total, nc.nll(m.distribution(state), m.codec.id_of(action)))
        return total

    want = m.sample_loss(lemma, ("V",), oracle, training=False)
    got = per_step()
    assert abs(float(got.value) - float(want.value)) < 1e-12
    nc.backward(want)
    ref = [p.grad.copy() for p in m.params.nodes()]
    m.params.zero_grads()
    nc.backward(got)
    for p, g in zip(m.params.nodes(), ref):
        assert np.allclose(p.grad, g, rtol=0, atol=1e-9), p.name
    m.params.zero_grads()
    assert nc.grad_check(per_step, m.params.nodes(), samples_per_param=6,
                         rng=random.Random(2)) < 1e-4
