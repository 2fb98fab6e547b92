import random

import pytest

from hardmono.align import naive_align, smart_align
from hardmono.oracle import (
    BOS,
    COPY,
    DELETE,
    EOS,
    STEP,
    STOP,
    HACM,
    HAEM,
    Action,
    ActionCodec,
    HacmExecutor,
    HaemExecutor,
    OracleSequence,
    ReplayError,
    display_trace,
    hacm_oracle,
    haem_oracle,
    normalize,
    replay,
    replay_with_trace,
    write,
)


def random_word(rng, alphabet="abcd", lo=1, hi=9):
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(lo, hi)))


# --- golden write/step program ---


def test_hacm_golden_smart_ablaut():
    seq = hacm_oracle(smart_align("fliegen", "flog"))
    assert seq.actions == (
        BOS, STEP, write("f"), STEP, write("l"), STEP, write("o"),
        STEP, STEP, write("g"), STEP, STEP, STEP, EOS,
    )
    out, trace = replay_with_trace("fliegen", seq)
    assert out == "flog"
    assert trace == [0, 0, 1, 1, 2, 2, 3, 3, 4, 5, 5, 6, 7, 8]


def test_hacm_golden_naive_suffix():
    seq = hacm_oracle(naive_align("go", "goes"))
    assert seq.actions == (
        BOS, STEP, write("g"), STEP, write("o"), write("e"), write("s"), STEP, EOS,
    )
    assert replay("go", seq) == "goes"


def test_hacm_step_count_covers_frame():
    rng = random.Random(11)
    for _ in range(300):
        lemma, form = random_word(rng), random_word(rng)
        for align in (naive_align, smart_align):
            seq = hacm_oracle(align(lemma, form))
            steps = sum(a is STEP for a in seq.actions)
            assert steps == len(lemma) + 1
            assert seq.actions[0] is BOS and seq.actions[-1] is EOS


# --- golden edit-action program ---


def test_haem_golden_smart_ablaut():
    seq = haem_oracle(smart_align("fliegen", "flog"))
    assert seq.actions == (
        COPY, COPY, DELETE, DELETE, write("o"), COPY, DELETE, DELETE, STOP,
    )
    assert replay("fliegen", seq) == "flog"
    assert display_trace("fliegen", seq) == [1, 2, 3, 4, 5, 5, 6, 7, 7]


def test_haem_unclamped_trace_reaches_past_end():
    seq = haem_oracle(smart_align("fliegen", "flog"))
    _, trace = replay_with_trace("fliegen", seq)
    assert trace == [1, 2, 3, 4, 5, 5, 6, 7, 8]


def test_haem_naive_ablaut_normalized():
    seq = haem_oracle(naive_align("fliegen", "flog"))
    assert seq.actions == (
        COPY, COPY, DELETE, DELETE, DELETE, DELETE, DELETE, write("o"), write("g"), STOP,
    )
    assert replay("fliegen", seq) == "flog"


# --- normalization laws ---


def random_haem_sequence(rng):
    actions = []
    for _ in range(rng.randint(0, 14)):
        r = rng.random()
        if r < 0.35:
            actions.append(COPY)
        elif r < 0.6:
            actions.append(DELETE)
        else:
            actions.append(write(rng.choice("abcd")))
    actions.append(STOP)
    return OracleSequence(tuple(actions), "HAEM")


def test_normalize_idempotent_and_preserves_content():
    rng = random.Random(13)
    for _ in range(2000):
        seq = random_haem_sequence(rng)
        norm = normalize(seq)
        assert normalize(norm) == norm
        assert sorted(a.tag for a in seq.actions) == sorted(a.tag for a in norm.actions)
        assert [a.char for a in seq.actions if a.tag == "WRITE"] == [
            a.char for a in norm.actions if a.tag == "WRITE"
        ]


def test_normalize_preserves_replay_output():
    rng = random.Random(14)
    checked = 0
    for _ in range(4000):
        lemma = random_word(rng)
        seq = random_haem_sequence(rng)
        try:
            out = replay(lemma, seq)
        except ReplayError:
            continue
        assert replay(lemma, normalize(seq)) == out
        checked += 1
    assert checked > 500


def test_normalize_rejects_write_step_inventory():
    with pytest.raises(ValueError):
        normalize(OracleSequence((BOS, EOS), "HACM"))


# --- round trips ---


def test_oracle_round_trip_both_architectures_both_aligners():
    rng = random.Random(17)
    for _ in range(500):
        lemma, form = random_word(rng), random_word(rng)
        for align in (naive_align, smart_align):
            a = align(lemma, form)
            assert replay(lemma, hacm_oracle(a)) == form
            assert replay(lemma, haem_oracle(a)) == form


def test_round_trip_unicode():
    for lemma, form in [("über", "übert"), ("ge​hen", "ge​ht"), ("ψυχή", "ψυχές")]:
        for align in (naive_align, smart_align):
            a = align(lemma, form)
            assert replay(lemma, hacm_oracle(a)) == form
            assert replay(lemma, haem_oracle(a)) == form


# --- executor contracts ---


def test_action_validation():
    with pytest.raises(ValueError):
        Action("WRITE")
    with pytest.raises(ValueError):
        Action("STEP", "x")
    with pytest.raises(ValueError):
        write("ab")


def test_inventory_validation():
    with pytest.raises(ValueError):
        OracleSequence((COPY,), "HACM")
    with pytest.raises(ValueError):
        OracleSequence((STEP,), "HAEM")


def test_an_unknown_inventory_is_rejected():
    """An inventory outside the two is neither: a sequence is not taken
    for HAEM, as a codec is not."""
    with pytest.raises(ValueError, match="unknown inventory 'FOO'"):
        OracleSequence((COPY, STOP), "FOO")
    with pytest.raises(ValueError, match="unknown inventory 'FOO'"):
        ActionCodec("FOO", ("a",))


@pytest.mark.parametrize("inventory, foreign", [
    (HACM, (COPY, DELETE, STOP)), (HAEM, (STEP, BOS, EOS))])
def test_each_structural_action_of_the_other_inventory_is_rejected(inventory, foreign):
    for action in foreign:
        with pytest.raises(ValueError, match=f"^{action.tag} is not a {inventory} action$"):
            OracleSequence((action,), inventory)


def test_step_past_frame_end_fails():
    seq = OracleSequence((BOS, STEP, STEP, STEP, EOS), "HACM")
    with pytest.raises(ReplayError, match="past end"):
        replay("a", seq)


def test_copy_past_lemma_end_fails():
    seq = OracleSequence((COPY, COPY, STOP), "HAEM")
    with pytest.raises(ReplayError, match="past lemma end"):
        replay("a", seq)


def test_missing_terminal_fails():
    with pytest.raises(ReplayError, match="^sequence ended without EOS$"):
        replay("a", OracleSequence((BOS, STEP), "HACM"))
    with pytest.raises(ReplayError, match="^sequence ended without STOP$"):
        replay("a", OracleSequence((COPY,), "HAEM"))


def test_action_after_terminal_fails():
    with pytest.raises(ReplayError, match="after"):
        replay("a", OracleSequence((BOS, EOS, STEP), "HACM"))


def test_hacm_frame_symbol():
    ex = HacmExecutor("ab")
    assert ex.frame_symbol() is BOS
    ex = ex.apply(STEP)
    assert ex.frame_symbol() == write("a")
    ex = ex.apply(STEP).apply(STEP)
    assert ex.frame_symbol() is EOS


def test_haem_attended_char_and_validity():
    ex = HaemExecutor("ab")
    assert ex.attended_char() == "a" and ex.can_advance()
    ex = ex.apply(COPY).apply(DELETE)
    assert ex.attended_char() is None and not ex.can_advance()
    assert ex.out == "a"


def test_render_round_trip_text():
    seq = hacm_oracle(smart_align("fliegen", "flog"))
    assert seq.render() == "BOS STEP f STEP l STEP o STEP STEP g STEP STEP STEP EOS"
    seq = haem_oracle(smart_align("fliegen", "flog"))
    assert seq.render() == "COPY COPY DELETE DELETE o COPY DELETE DELETE STOP"


@pytest.mark.parametrize("inventory", [HACM, HAEM])
def test_action_codec_is_one_table(inventory):
    """Every id names one action and every action its id; the codec hands
    out the same WRITE object for an id each time instead of building one."""
    codec = ActionCodec(inventory, ("a", "b"))
    assert codec.size == len(codec.actions) == 5
    assert codec.actions[:3] == codec.specials
    for k in range(codec.size):
        assert codec.id_of(codec.action_of(k)) == k
    assert codec.action_of(3) is codec.action_of(3) == write("a")
    assert codec.write_id("b") == 4 and codec.write_id("z") is None
    with pytest.raises(ValueError, match=r"WRITE\(z\) is outside the trained inventory"):
        codec.id_of(write("z"))
    other = STEP if inventory == HAEM else COPY
    with pytest.raises(ValueError, match=f"{other.tag} is not a {inventory} action"):
        codec.id_of(other)
    for bad in (-1, 5):
        with pytest.raises(IndexError, match=f"action id {bad} out of range for size 5"):
            codec.action_of(bad)
