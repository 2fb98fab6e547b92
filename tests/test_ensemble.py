"""Voting, MAX selection, ENSEMBLE_n, and the seven numbered runs.

Models are stubbed: each "model" is a lemma -> prediction table, and the
module's decode hook is monkeypatched to read it, so these tests exercise
combination logic only.
"""

import pytest

import hardmono.ensemble as ens
from hardmono.corpus import Sample
from hardmono.ensemble import (
    EnsembleError,
    Member,
    PoolEntry,
    System,
    ensemble_n,
    max_strategy,
    run_strategy,
    vote,
)

DEV = [Sample(f"l{i}", ("V",), f"d{i}") for i in range(4)]
TEST = [Sample(f"t{i}", ("V",), f"g{i}") for i in range(3)]


class Stub:
    """Looks enough like a model for the pool: has .arch, maps lemmas
    (an empty table raises KeyError if anything is decoded)."""

    def __init__(self, arch, table):
        self.arch = arch
        self.table = table


@pytest.fixture(autouse=True)
def stub_decoding(monkeypatch):
    monkeypatch.setattr(ens, "predict", lambda model, s: model.table[s.lemma])


def stub(arch, dev_rows, test_rows):
    table = {s.lemma: p for s, p in zip(DEV, dev_rows)}
    table.update({s.lemma: p for s, p in zip(TEST, test_rows)})
    return Stub(arch, table)


def perfect(arch, test_rows):
    return stub(arch, [s.form for s in DEV], test_rows)


def member(name, acc, order, dev_rows, test_rows):
    return Member(name, acc, order, tuple(dev_rows), tuple(test_rows))


# --- vote ---------------------------------------------------------------


def test_vote_majority_wins():
    assert vote([("a", 0.1, 0), ("b", 0.9, 1), ("a", 0.2, 2)]) == "a"


def test_vote_tie_goes_to_strongest_supporter():
    assert vote([("a", 0.3, 0), ("b", 0.8, 1)]) == "b"
    assert vote([("a", 0.3, 0), ("b", 0.2, 1), ("a", 0.25, 2), ("b", 0.8, 3)]) == "b"


def test_vote_double_tie_goes_to_earliest_registration():
    assert vote([("b", 0.5, 1), ("a", 0.5, 0)]) == "a"


def test_vote_rejects_empty():
    with pytest.raises(EnsembleError):
        vote([])


# --- pool ---------------------------------------------------------------


def test_pool_registration_and_cells():
    # a 2-2 vote between members of equal dev accuracy: the list index is
    # the registration order that breaks it, and swapping two entries flips it
    cm_n = PoolEntry("cm_n", perfect("HACM", ["p", "x", "x"]), "naive", 0.5)
    cm_s = PoolEntry("cm_s", perfect("HACM", ["p", "x", "x"]), "smart", 0.5)
    em_n = PoolEntry("em_n", perfect("HAEM", ["q", "x", "x"]), "naive", 0.5)
    em_s = PoolEntry("em_s", perfect("HAEM", ["q", "x", "x"]), "smart", 0.5)
    assert run_strategy(6, [cm_n, cm_s, em_n, em_s], DEV, TEST).predictions[0] == "p"
    assert run_strategy(6, [em_n, cm_s, cm_n, em_s], DEV, TEST).predictions[0] == "q"
    # cells come from model.arch and the aligner, not from list position
    result = run_strategy(4, [em_n, cm_s, cm_n, em_s], DEV, TEST)
    assert result.system == "ENSEMBLE_7(HAEM)"
    assert result.predictions[0] == "q"


def test_pool_rejects_duplicates_and_bad_aligner():
    # both are rejected before any decode: the empty stubs would raise KeyError
    dup = [PoolEntry("m", Stub("HACM", {}), "smart", 0.5),
           PoolEntry("m", Stub("HACM", {}), "naive", 0.5)]
    with pytest.raises(EnsembleError, match="duplicate"):
        run_strategy(6, dup, DEV, TEST)
    bad = [PoolEntry("m", Stub("HACM", {}), "smart", 0.5),
           PoolEntry("m2", Stub("HACM", {}), "crp", 0.5)]
    with pytest.raises(EnsembleError, match="aligner"):
        run_strategy(6, bad, DEV, TEST)


# --- systems --------------------------------------------------------------


def test_system_votes_per_row():
    system = System("s", (
        member("a", 0.5, 0, "wxyz", ["p", "q", "r"]),
        member("b", 0.6, 1, "wxyz", ["p", "u", "v"]),
        member("c", 0.4, 2, "wxyz", ["o", "u", "r"]),
    ))
    assert system.test_predictions() == ["p", "u", "r"]


def test_system_dev_accuracy_votes_on_dev():
    gold = [s.form for s in DEV]
    system = System("s", (
        member("a", 0.5, 0, gold, ["x"] * 3),
        member("b", 0.4, 1, ["no"] * 4, ["x"] * 3),
        member("c", 0.3, 2, gold, ["x"] * 3),
    ))
    assert system.dev_accuracy(gold) == 1.0


def test_single_external_member_uses_supplied_accuracy():
    system = System("ext", (Member("ext", 0.66, 0, None, ("a", "b", "c")),))
    assert system.dev_accuracy(["x", "y", "z", "w"]) == 0.66


def test_system_requires_members_and_aligned_rows():
    with pytest.raises(EnsembleError, match="no members"):
        System("empty", ())
    system = System("s", (member("a", 0.5, 0, "wxyz", ["p"]),
                          member("b", 0.6, 1, "wxyz", ["p", "q"])))
    with pytest.raises(EnsembleError, match="test size"):
        system.test_predictions()


# --- ensemble_n and max -----------------------------------------------------


def test_ensemble_n_picks_exactly_n_best():
    members = [member(f"m{i}", acc, i, "wxyz", ["p"] * 3)
               for i, acc in enumerate([0.2, 0.9, 0.5, 0.7, 0.1])]
    chosen = ensemble_n(members, 3, "top3")
    assert [m.name for m in chosen.members] == ["m1", "m3", "m2"]


def test_ensemble_n_ties_keep_registration_order():
    members = [member(f"m{i}", 0.5, i, "wxyz", ["p"] * 3) for i in range(4)]
    chosen = ensemble_n(members, 2, "top2")
    assert [m.name for m in chosen.members] == ["m0", "m1"]


def test_ensemble_n_caps_at_pool_size():
    members = [member("only", 0.5, 0, "wxyz", ["p"] * 3)]
    assert len(ensemble_n(members, 15, "all").members) == 1
    with pytest.raises(EnsembleError):
        ensemble_n(members, 0, "none")


def test_max_picks_argmax_and_breaks_ties_late():
    gold = [s.form for s in DEV]
    good = System("good", (member("g", 0.1, 0, gold, ["x"] * 3),))
    bad = System("bad", (member("b", 0.9, 1, ["no"] * 4, ["y"] * 3),))
    assert max_strategy([good, bad], gold) is good
    assert max_strategy([bad, good], gold) is good
    twin = System("twin", (member("t", 0.1, 2, gold, ["z"] * 3),))
    assert max_strategy([good, twin], gold) is twin
    with pytest.raises(EnsembleError):
        max_strategy([], gold)


# --- runs -------------------------------------------------------------------


def full_pool():
    return [
        PoolEntry("cm_n", perfect("HACM", ["n1", "x", "x"]), "naive", 0.4),
        PoolEntry("cm_s", perfect("HACM", ["s1", "x", "x"]), "smart", 0.4),
        PoolEntry("em_n", stub("HAEM", ["d0", "no", "no", "no"], ["n2", "y", "y"]), "naive", 0.3),
        PoolEntry("em_s", stub("HAEM", ["d0", "d1", "no", "no"], ["s2", "y", "y"]), "smart", 0.2),
    ]


def test_run1_max_over_hacm_cells_tie_prefers_smart():
    result = run_strategy(1, full_pool(), DEV, TEST)
    assert result.system == "E(HACM/smart)"
    assert result.predictions[0] == "s1"
    assert result.dev_accuracy == 1.0


def test_run3_max_over_haem_cells():
    result = run_strategy(3, full_pool(), DEV, TEST)
    assert result.system == "E(HAEM/smart)"
    assert result.dev_accuracy == 0.5


def test_runs_2_4_6_vote_over_their_pools():
    result = run_strategy(2, full_pool(), DEV, TEST)
    assert result.system == "ENSEMBLE_7(HACM)"
    assert result.predictions[1] == "x"
    result = run_strategy(4, full_pool(), DEV, TEST)
    assert result.system == "ENSEMBLE_7(HAEM)"
    assert result.predictions[1] == "y"
    result = run_strategy(6, full_pool(), DEV, TEST)
    assert result.system == "ENSEMBLE_15"
    # 2-2 vote; the HACM side holds the higher registered dev accuracy
    assert result.predictions[1] == "x"


def test_run5_spans_all_cells_and_run7_takes_the_better():
    run5 = run_strategy(5, full_pool(), DEV, TEST)
    assert run5.system == "E(HACM/smart)"
    run6 = run_strategy(6, full_pool(), DEV, TEST)
    run7 = run_strategy(7, full_pool(), DEV, TEST)
    assert run7.dev_accuracy >= max(run5.dev_accuracy, run6.dev_accuracy)
    assert run7.predictions in (run5.predictions, run6.predictions)


def test_max_output_matches_chosen_candidate_exactly():
    pool = full_pool()
    run1 = run_strategy(1, pool, DEV, TEST)
    direct = System("direct", tuple(
        Member(e.name, e.dev_accuracy, order, tuple(ens.predict(e.model, s) for s in DEV),
               tuple(ens.predict(e.model, s) for s in TEST))
        for order, e in enumerate(pool) if (e.model.arch, e.aligner) == ("HACM", "smart")))
    assert list(run1.predictions) == direct.test_predictions()


def test_missing_cell_is_named():
    pool = [PoolEntry("cm_s", perfect("HACM", ["a", "b", "c"]), "smart", 0.5)]
    with pytest.raises(EnsembleError, match="HACM/naive"):
        run_strategy(1, pool, DEV, TEST)
    with pytest.raises(EnsembleError, match="HAEM/naive"):
        run_strategy(3, pool, DEV, TEST)


def test_unknown_run_rejected():
    with pytest.raises(EnsembleError, match="run"):
        run_strategy(8, full_pool(), DEV, TEST)


def test_external_joins_run5_as_candidate():
    ext = Member("nem", 0.95, 4, tuple(s.form for s in DEV), ("e1", "e2", "e3"))
    result = run_strategy(5, full_pool(), DEV, TEST, external=ext)
    assert result.system == "nem"
    assert result.predictions == ("e1", "e2", "e3")


def test_external_joins_run6_as_voter():
    # three externals would dominate; one only changes close votes
    ext = Member("nem", 0.95, 4, None, ("x", "y", "y"))
    result = run_strategy(6, full_pool(), DEV, TEST, external=ext)
    assert result.system == "ENSEMBLE_15"
    assert result.predictions[2] == "y"


def test_external_restricted_to_late_runs():
    ext = Member("nem", 0.9, 4, None, ("a", "b", "c"))
    with pytest.raises(EnsembleError, match="runs 5-7"):
        run_strategy(2, full_pool(), DEV, TEST, external=ext)


def test_external_row_counts_validated():
    with pytest.raises(EnsembleError, match="rows"):
        run_strategy(6, full_pool(), DEV, TEST,
                     external=Member("nem", 0.9, 4, None, ("a",)))
    with pytest.raises(EnsembleError, match="dev"):
        run_strategy(6, full_pool(), DEV, TEST,
                     external=Member("nem", 0.9, 4, ("d",), ("a", "b", "c")))


def test_dev_set_must_be_labeled():
    with pytest.raises(EnsembleError, match="unlabeled"):
        run_strategy(1, full_pool(), [Sample("x", ("V",))], TEST)
    with pytest.raises(EnsembleError, match="empty"):
        run_strategy(1, full_pool(), [], TEST)
