import itertools
import random

import numpy as np
import pytest

from hardmono import numcore as nc
from hardmono.align import naive_align, smart_align
from hardmono.corpus import CharVocabulary, FeatureAlphabet
from hardmono.hacm import ModelConfig
from hardmono.haem import HaemModel
from hardmono.oracle import COPY, DELETE, STOP, haem_oracle, write


CFG = ModelConfig(hidden=6, embed=5, feat_embed=3, dropout=0.0)


def build(chars="abfgilnoe", feats=("2", "PST", "SG", "V"), seed=0, cfg=CFG):
    vocab = CharVocabulary(tuple(sorted(set(chars))))
    alphabet = FeatureAlphabet(tuple(sorted(feats)))
    return HaemModel(vocab, alphabet, cfg, np.random.default_rng(seed))


def test_feature_indicator():
    m = build()
    assert np.array_equal(m.feature_indicator(()).value, np.zeros(5))
    assert np.array_equal(m.feature_indicator(("2", "PST", "SG", "V")).value,
                          np.array([1.0, 1, 1, 1, 0]))
    pst = np.zeros(5)
    pst[m.feats.slot_of("PST")] = 1.0
    assert np.array_equal(m.feature_indicator(("PST",)).value, pst)
    unk = m.feature_indicator(("NONSUCH",)).value
    assert unk[m.feats.unk_slot] == 1.0


def test_state_input_dimension_law():
    ext = build()
    h, slots = ext.config.hidden, ext.feats.num_slots
    assert ext.state_proj.in_size == h + 2 * h + slots + 2 * h
    basic = build(cfg=ModelConfig(hidden=6, embed=5, feat_embed=3,
                                  variant="basic", dropout=0.0))
    assert basic.state_proj.in_size == h + 2 * h + slots
    assert len(basic.tracks) == 1
    assert "act_emb" not in basic.params.names()


def test_mask_at_lemma_end():
    m = build(seed=1)
    state = m.start("ab", ("V",))
    assert m.valid_mask(state).all()
    state = m.apply(m.apply(state, COPY), DELETE)
    assert state.i == 3 == state.ex.n + 1
    mask = m.valid_mask(state)
    assert not mask[m.COPY_ID] and not mask[m.DELETE_ID]
    assert mask[m.STOP_ID] and mask[3:].all()
    p = m.distribution(state).value
    assert p[m.COPY_ID] == 0.0 and p[m.DELETE_ID] == 0.0
    assert abs(p.sum() - 1.0) < 1e-6


def test_zero_weights_uniform_over_valid():
    m = build(seed=2)
    for node in m.params.nodes():
        node.value[:] = 0.0
    state = m.start("ab", ("V",))
    p = m.distribution(state).value
    assert np.allclose(p, np.full(m.codec.size, 1.0 / m.codec.size))
    state = m.apply(m.apply(state, COPY), COPY)
    p = m.distribution(state).value
    k = m.codec.size - 2
    expected = np.full(m.codec.size, 1.0 / k)
    expected[m.COPY_ID] = expected[m.DELETE_ID] = 0.0
    assert np.allclose(p, expected)


def test_apply_golden_trace_reaches_frame_end():
    m = build(seed=3)
    state = m.start("fliegen", ("V", "PST"))
    for action in haem_oracle(smart_align("fliegen", "flog")).actions:
        state = m.apply(state, action)
    assert state.out == "flog"
    assert state.i == 8 == state.ex.n + 1
    assert state.done


def test_copy_appends_raw_oov_character():
    m = build(chars="ab", seed=4)
    state = m.start("aXb", ("V",))
    state = m.apply(m.apply(m.apply(state, COPY), COPY), COPY)
    assert state.out == "aXb"


def test_write_resets_deletion_lstm():
    m = build(seed=5)
    d_cell = m.tracks[2][0]
    state = m.start("abf", ("V",))
    assert state.lstms[2][0] is d_cell.h0
    state = m.apply(m.apply(state, DELETE), DELETE)
    assert state.lstms[2][0] is not d_cell.h0
    state = m.apply(state, write("g"))
    assert state.lstms[2][0] is d_cell.h0
    assert state.out == "g"


def test_invalid_actions_error():
    m = build(seed=6)
    state = m.apply(m.start("a", ("V",)), COPY)
    with pytest.raises(ValueError, match="past lemma end"):
        m.apply(state, COPY)
    with pytest.raises(ValueError, match="past lemma end"):
        m.apply(state, DELETE)
    done = m.apply(state, STOP)
    with pytest.raises(ValueError, match="after STOP"):
        m.apply(done, STOP)
    with pytest.raises(ValueError, match="after STOP"):
        m.distribution(done)


def all_valid_sequences(n, alphabet, max_writes):
    """Every terminating action sequence over a length-n lemma with at most
    max_writes WRITE actions."""
    def extend(i, writes_left):
        yield (STOP,)
        if i <= n:
            for rest in extend(i + 1, writes_left):
                yield (COPY,) + rest
                yield (DELETE,) + rest
        if writes_left:
            for c in alphabet:
                for rest in extend(i, writes_left - 1):
                    yield (write(c),) + rest
    return extend(1, max_writes)


def test_state_machine_safety_exhaustive():
    m = build(chars="ab", feats=("V",), seed=7,
              cfg=ModelConfig(hidden=3, embed=2, feat_embed=2, dropout=0.0))
    for lemma in ("a", "ab", "aba"):
        n = len(lemma)
        count = 0
        for seq in all_valid_sequences(n, "b", max_writes=1):
            state = m.start(lemma, ("V",))
            last_i = state.i
            for action in seq:
                state = m.apply(state, action)
                assert state.i >= last_i
                assert state.i <= n + 1
                if action.tag in ("COPY", "DELETE"):
                    assert state.i == last_i + 1
                else:
                    assert state.i == last_i
                last_i = state.i
            assert state.done
            count += 1
        assert count == sum(2 ** k * (k + 2) for k in range(n + 1))


def test_oracle_replay_through_apply_reproduces_form():
    m = build(seed=8)
    rng = random.Random(8)
    for _ in range(60):
        lemma = "".join(rng.choice("fgile") for _ in range(rng.randint(1, 6)))
        form = "".join(rng.choice("fgile") for _ in range(rng.randint(1, 6)))
        for align in (naive_align, smart_align):
            state = m.start(lemma, ("V",))
            for action in haem_oracle(align(lemma, form)).actions:
                state = m.apply(state, action)
            assert state.out == form


def test_uniform_loss_closed_form():
    m = build(seed=9)
    for node in m.params.nodes():
        node.value[:] = 0.0
    oracle = haem_oracle(smart_align("fliegen", "flog"))
    loss = float(m.sample_loss("fliegen", ("V", "PST"), oracle, training=False).value)
    # replay to count valid actions at each step
    state = m.start("fliegen", ("V", "PST"))
    expected = 0.0
    for action in oracle.actions:
        expected += np.log(m.valid_mask(state).sum())
        state = m.apply(state, action)
    assert loss == pytest.approx(expected, rel=1e-9)


def test_loss_grad_checks_both_variants():
    for variant in ("extended", "basic"):
        cfg = ModelConfig(hidden=4, embed=3, feat_embed=2, variant=variant, dropout=0.0)
        m = build(chars="abg", feats=("V",), seed=10, cfg=cfg)
        oracle = haem_oracle(smart_align("ab", "ag"))
        err = nc.grad_check(
            lambda: m.sample_loss("ab", ("V",), oracle, training=False),
            m.params.nodes(), samples_per_param=8, rng=random.Random(1))
        assert err < 1e-4


def test_loss_rejects_wrong_inventory():
    from hardmono.oracle import hacm_oracle
    m = build(seed=11)
    with pytest.raises(ValueError, match="STOP-terminated"):
        m.sample_loss("ab", ("V",), hacm_oracle(naive_align("ab", "ab")), training=False)


def test_loss_rejects_oov_write():
    m = build(chars="ab", seed=12)
    oracle = haem_oracle(naive_align("ab", "aZ"))
    with pytest.raises(ValueError, match="outside the trained inventory"):
        m.sample_loss("ab", ("V",), oracle, training=False)


def test_training_loss_needs_a_dropout_generator(monkeypatch):
    """The usage error comes before the encoder runs."""
    m = build(seed=13)
    monkeypatch.setattr(m, "_frame", lambda lemma: pytest.fail("encoded before the usage check"))
    with pytest.raises(ValueError, match="^training mode needs a dropout generator$"):
        m.sample_loss("ab", ("V",), haem_oracle(smart_align("ab", "ag")))


def test_a_gold_probability_of_zero_raises_floating_point_error():
    """The underflow that ``train_model`` reports as a non-finite loss: an
    output bias that drives the first gold action's probability to exactly 0."""
    m = build(seed=16)
    oracle = haem_oracle(smart_align("ab", "ag"))
    assert np.isfinite(m.sample_loss("ab", ("V",), oracle, training=False).value)
    m.params["act.b"].value[m.codec.id_of(oracle.actions[0])] = -1e4
    with pytest.raises(FloatingPointError, match="nll"):
        m.sample_loss("ab", ("V",), oracle, training=False)
