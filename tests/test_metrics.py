"""Edit distance, accuracy, and macro-averaged reports."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hardmono.metrics import (
    EvalReport,
    LanguageResult,
    accuracy,
    levenshtein,
    macro_report,
    mean_levenshtein,
    render_table,
    render_tsv,
    score,
)


def test_levenshtein_examples():
    assert levenshtein("fliegen", "flog") == 4
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "") == 0


def test_levenshtein_metric_properties():
    rng = random.Random(4)
    words = ["".join(rng.choice("abcd") for _ in range(rng.randrange(8)))
             for _ in range(40)]
    for a in words:
        assert levenshtein(a, a) == 0
        for b in words:
            assert levenshtein(a, b) == levenshtein(b, a)
            assert (levenshtein(a, b) == 0) == (a == b)
    for _ in range(300):
        a, b, c = rng.choice(words), rng.choice(words), rng.choice(words)
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def _dp_levenshtein(a, b):
    """Reference: the full (len(a)+1) x (len(b)+1) dynamic program."""
    table = [[i + j if i == 0 or j == 0 else 0 for j in range(len(b) + 1)]
             for i in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return table[len(a)][len(b)]


# a small alphabet makes matches common; the long draws cross 64 characters,
# one machine word of the bit vectors
WORDS = st.one_of(st.text("abcd", max_size=12), st.text("abcdé", min_size=60, max_size=90))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(WORDS, WORDS)
@example("", "")
@example("", "abc")
@example("a" * 70, "")
@example("ab" * 40, "ba" * 40)
@example("x" * 65, "x" * 64)
def test_levenshtein_matches_dynamic_program(a, b):
    assert levenshtein(a, b) == _dp_levenshtein(a, b)


def test_accuracy_fractions():
    assert accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert accuracy(["flog"], ["flug"]) == 0.0
    assert accuracy(["a", "x", "c", "y"], ["a", "b", "c", "d"]) == 0.5


def test_accuracy_errors():
    with pytest.raises(ValueError):
        accuracy(["a"], ["a", "b"])
    with pytest.raises(ValueError):
        accuracy([], [])


def test_mean_levenshtein():
    assert mean_levenshtein(["ab", "cd"], ["ab", "c"]) == 0.5
    with pytest.raises(ValueError):
        mean_levenshtein(["a"], [])


def test_exact_match_implies_zero_distance():
    words = ["one", "two", "three"]
    assert accuracy(words, list(words)) == 1.0
    assert mean_levenshtein(words, list(words)) == 0.0


def test_macro_average_is_unweighted():
    a = LanguageResult("big", 1.0, 0.0, 1000)
    b = LanguageResult("small", 0.0, 2.0, 10)
    rep = macro_report([a, b])
    assert rep.macro_accuracy == 0.5
    assert rep.macro_levenshtein == 1.0


def test_single_language_report_is_its_own_numbers():
    r = score("only", ["ab", "cd"], ["ab", "ce"])
    rep = macro_report([r])
    assert rep.macro_accuracy == r.accuracy == 0.5
    assert rep.macro_levenshtein == r.mean_levenshtein == 0.5
    assert r.count == 2


def test_empty_report_rejected():
    with pytest.raises(ValueError):
        EvalReport(())


def test_render_tsv_layout():
    rep = macro_report([score("aa", ["x"], ["x"]), score("bb", ["x"], ["y"])])
    lines = render_tsv(rep).splitlines()
    assert lines[0] == "aa\t1.0000\t0.0000\t1"
    assert lines[1] == "bb\t0.0000\t1.0000\t1"
    assert lines[2] == "macro-avg\t0.5000\t0.5000\t2"


def test_render_table_layout():
    rep = macro_report([score("german", ["flog"], ["flog"])])
    text = render_table(rep)
    assert "german" in text and "macro-avg" in text
    assert "100.0" in text
    assert text.endswith("\n")
