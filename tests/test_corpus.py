import logging

import pytest

from hardmono.corpus import (
    CharVocabulary,
    DataError,
    FeatureAlphabet,
    Sample,
    build_vocab,
    parse_dataset,
    write_dataset,
)


def test_parse_labeled(tmp_path):
    p = tmp_path / "train.tsv"
    p.write_text("fliegen\tflogt\tV;IND;PST;2;PL\ngehen\tging\tV;PST\n")
    samples = parse_dataset(p)
    assert samples[0] == Sample("fliegen", ("V", "IND", "PST", "2", "PL"), "flogt")
    assert samples[1].form == "ging"


def test_parse_unlabeled(tmp_path):
    p = tmp_path / "test.tsv"
    p.write_text("fliegen\tV;PST\n")
    (sample,) = parse_dataset(p, has_form=False)
    assert sample.form is None


def test_parse_errors_carry_location(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("good\tgood\tV\nonly-one-column\n")
    with pytest.raises(DataError, match=r"bad\.tsv:2"):
        parse_dataset(p)
    p.write_text("good\tgood\tV\nfog\t\tV;PST\n")
    with pytest.raises(DataError, match=r"bad\.tsv:2: empty form$"):
        parse_dataset(p)
    p.write_text("good\tgood\tV\n\tfog\tV\n")
    with pytest.raises(DataError, match=r"bad\.tsv:2: empty lemma$"):
        parse_dataset(p)
    p.write_text("good\tgood\tV\nfog\tfogs\t;\n")
    with pytest.raises(DataError, match=r"bad\.tsv:2: empty feature set$"):
        parse_dataset(p)


def test_parse_rejects_wrong_arity(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\tV\textra\n")
    with pytest.raises(DataError, match=r"bad\.tsv:1"):
        parse_dataset(p, has_form=False)


def test_empty_lines_skipped(tmp_path):
    p = tmp_path / "train.tsv"
    p.write_text("a\tb\tV\n\n\nc\td\tN\n")
    assert len(parse_dataset(p)) == 2


def test_roundtrip(tmp_path):
    samples = [Sample("ab", ("V", "PST"), "ba"), Sample("x", ("N",), "xs")]
    p = tmp_path / "out.tsv"
    write_dataset(p, samples)
    assert parse_dataset(p) == samples


def test_sample_validation():
    with pytest.raises(ValueError):
        Sample("", ("V",), "x")
    with pytest.raises(ValueError):
        Sample("a", (), "x")
    with pytest.raises(ValueError):
        Sample("a", ("V",), "")


def test_char_vocabulary_layout():
    v = CharVocabulary(("a", "b", "c"))
    assert (v.BOS_ID, v.EOS_ID, v.UNK_ID) == (0, 1, 2)
    assert [v.id_of(c) for c in "abc"] == [3, 4, 5]
    assert len(v) == 6


@pytest.mark.parametrize("chars", [("a", "zz"), ("",), ("a", "<s>")],
                         ids=["two-letters", "empty", "sentinel"])
def test_char_vocabulary_rejects_an_entry_that_is_not_one_character(chars):
    with pytest.raises(ValueError, match="not one character"):
        CharVocabulary(chars)


def test_char_vocabulary_oov_maps_to_unk():
    v = CharVocabulary(("a",))
    assert v.id_of("z") == v.UNK_ID


def test_feature_alphabet_slots():
    f = FeatureAlphabet(("2", "PL", "PST", "V"))
    assert f.num_slots == 5
    assert f.slot_of("2") == 0 and f.slot_of("V") == 3
    assert f.unk_slot == 4


def test_feature_alphabet_unseen_logs_once(caplog):
    f = FeatureAlphabet(("V",))
    with caplog.at_level(logging.WARNING):
        assert f.slot_of("NEW") == f.unk_slot
        assert f.slot_of("NEW") == f.unk_slot
    assert sum("NEW" in r.message for r in caplog.records) == 1


def test_slots_of_sorted_unique():
    f = FeatureAlphabet(("A", "B", "C"))
    assert f.slots_of(("C", "A", "C")) == (0, 2)


def test_build_vocab_sorted_union():
    samples = [Sample("ba", ("V",), "ab"), Sample("cd", ("N", "PL"), "dc")]
    vocab, feats = build_vocab(samples)
    assert vocab.chars == ("a", "b", "c", "d")
    assert feats.features == ("N", "PL", "V")


def test_build_vocab_includes_form_chars():
    vocab, _ = build_vocab([Sample("a", ("V",), "az")])
    assert "z" in vocab.chars


def test_a_leading_byte_order_mark_is_dropped(tmp_path):
    rows = "abc\tabd\tV;PST\nfog\tfogs\tV\n"
    plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
    plain.write_text(rows, encoding="utf-8")
    marked.write_text("\ufeff" + rows, encoding="utf-8")
    samples = parse_dataset(str(marked))
    assert samples == parse_dataset(str(plain))
    assert samples[0].lemma == "abc"
    assert "\ufeff" not in build_vocab(samples)[0].chars
