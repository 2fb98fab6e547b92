"""Prediction combination over a pool of trained models.

Two combinators, composed into seven numbered runs:

* majority vote: each member predicts a string per sample; the most common
  string wins, and a tied vote goes to the candidate backed by the member
  with the highest dev accuracy (then by earliest registration).
* MAX: pick whichever candidate system has the higher dev accuracy and use
  its predictions verbatim; equal accuracies go to the later candidate in
  the declared order (so a naive/smart tie resolves to smart).

ENSEMBLE_n votes over the n pool members with the best dev accuracy
(ties kept in registration order; n is capped at the pool size).

Runs over the four (architecture, aligner) cells:

    1  MAX  { E(HACM/naive), E(HACM/smart) }
    2  ENSEMBLE_7 over both HACM cells
    3  MAX  { E(HAEM/naive), E(HAEM/smart) }
    4  ENSEMBLE_7 over both HAEM cells
    5  MAX over the four per-cell ensembles
    6  ENSEMBLE_15 over all four cells
    7  MAX { run 5, run 6 }

where E(cell) is the majority vote over every model in the cell.
``RUN_CELLS`` holds the cells each run votes over; a run fails when one of
them is empty, and decodes only their members.  The pool is a
registration-ordered list of ``PoolEntry``s.  An external line-aligned
predictions file may join runs 5-7 as a ready-made ``Member`` with a
caller-supplied dev accuracy: one more MAX candidate in run 5, one more
voter in run 6.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass

from hardmono.align import ALIGNERS
from hardmono.corpus import Sample
from hardmono.metrics import accuracy
from hardmono.oracle import HACM, HAEM
from hardmono.train import predict

HACM_CELLS = ((HACM, "naive"), (HACM, "smart"))
HAEM_CELLS = ((HAEM, "naive"), (HAEM, "smart"))
CELLS = HACM_CELLS + HAEM_CELLS
# the cells each run votes over, in the order in which MAX breaks ties
RUN_CELLS = {1: HACM_CELLS, 2: HACM_CELLS, 3: HAEM_CELLS, 4: HAEM_CELLS,
             5: CELLS, 6: CELLS, 7: CELLS}


class EnsembleError(ValueError):
    """Malformed pool or request (missing cell, misaligned predictions, ...)."""


@dataclass(frozen=True)
class PoolEntry:
    """A trained model as the pool registers it; its list index is its
    registration order."""
    name: str
    model: object
    aligner: str
    dev_accuracy: float


@dataclass(frozen=True)
class Member:
    """One voter: its predictions on each dataset plus tie-break metadata."""
    name: str
    dev_accuracy: float
    order: int
    dev: tuple[str, ...] | None   # None for an external file without dev rows
    test: tuple[str, ...]
    cell: tuple[str, str] | None = None   # (arch, aligner); None for an external file


def vote(ballots: list[tuple[str, float, int]]) -> str:
    """Majority over (prediction, member dev accuracy, member order) ballots.
    Ties go to the candidate whose strongest supporter has the highest dev
    accuracy, then to the one with the earliest-registered supporter."""
    if not ballots:
        raise EnsembleError("vote over zero ballots")
    counts = Counter(p for p, _, _ in ballots)
    top = max(counts.values())
    tied = [p for p, c in counts.items() if c == top]
    if len(tied) == 1:
        return tied[0]

    def strength(candidate: str) -> tuple[float, int]:
        supporters = [(a, o) for p, a, o in ballots if p == candidate]
        return (max(a for a, _ in supporters), -min(o for _, o in supporters))

    return max(tied, key=strength)


@dataclass(frozen=True)
class System:
    """A named voting committee; a single member makes it a passthrough."""
    name: str
    members: tuple[Member, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise EnsembleError(f"system {self.name!r} has no members")

    def test_predictions(self) -> list[str]:
        rows = len(self.members[0].test)
        if any(len(m.test) != rows for m in self.members):
            raise EnsembleError(f"system {self.name!r} members disagree on test size")
        return [vote([(m.test[i], m.dev_accuracy, m.order) for m in self.members])
                for i in range(rows)]

    def dev_accuracy(self, dev_forms: list[str]) -> float:
        voters = [m for m in self.members if m.dev is not None]
        if not voters:
            if len(self.members) == 1:
                return self.members[0].dev_accuracy
            raise EnsembleError(f"system {self.name!r} has no dev predictions")
        rows = [vote([(m.dev[i], m.dev_accuracy, m.order) for m in voters])
                for i in range(len(dev_forms))]
        return accuracy(rows, dev_forms)


def ensemble_n(members: list[Member], n: int, name: str) -> System:
    """Vote of the n members with the best dev accuracy (all of them when
    the pool is smaller); dev-accuracy ties keep registration order."""
    if n < 1:
        raise EnsembleError(f"ensemble size {n} must be positive")
    ranked = sorted(members, key=lambda m: (-m.dev_accuracy, m.order))
    return System(name, tuple(ranked[:min(n, len(ranked))]))


def max_strategy(candidates: list[System], dev_forms: list[str]) -> System:
    """The candidate with the highest dev accuracy; equal accuracies pick
    the later candidate in the given order."""
    if not candidates:
        raise EnsembleError("MAX over zero candidates")
    best = candidates[0]
    best_acc = best.dev_accuracy(dev_forms)
    for candidate in candidates[1:]:
        acc = candidate.dev_accuracy(dev_forms)
        if acc >= best_acc:
            best, best_acc = candidate, acc
    return best


@dataclass(frozen=True)
class RunResult:
    run: int
    system: str                  # name of the system that produced the output
    dev_accuracy: float
    predictions: tuple[str, ...]  # one per test sample


def _gold_forms(dev: list[Sample]) -> list[str]:
    if not dev:
        raise EnsembleError("empty dev set")
    if any(s.form is None for s in dev):
        raise EnsembleError("dev set has unlabeled samples")
    return [s.form for s in dev]


def require_run_cells(run: int, counts: Mapping[tuple[str, str], int]) -> None:
    """Reject ``run`` when a cell it votes over has no models; ``counts``
    maps (arch, aligner) cells to model counts."""
    if run not in RUN_CELLS:
        raise EnsembleError(f"unknown run {run} (valid: 1-7)")
    for arch, aligner in RUN_CELLS[run]:
        if not counts.get((arch, aligner)):
            raise EnsembleError(f"pool has no {arch}/{aligner} models")


def _members(run: int, pool: list[PoolEntry], dev: list[Sample],
             test: list[Sample]) -> list[Member]:
    """The members of the cells ``run`` votes over, decoded; the pool is
    checked before anything is decoded."""
    names = set()
    for e in pool:
        if e.name in names:
            raise EnsembleError(f"duplicate pool entry name {e.name!r}")
        if e.aligner not in ALIGNERS:
            raise EnsembleError(f"unknown aligner {e.aligner!r}")
        names.add(e.name)
    require_run_cells(run, Counter((e.model.arch, e.aligner) for e in pool))
    return [Member(e.name, e.dev_accuracy, order,
                   tuple(predict(e.model, s) for s in dev),
                   tuple(predict(e.model, s) for s in test), (e.model.arch, e.aligner))
            for order, e in enumerate(pool) if (e.model.arch, e.aligner) in RUN_CELLS[run]]


def run_strategy(run: int, pool: list[PoolEntry], dev: list[Sample], test: list[Sample],
                 external: Member | None = None) -> RunResult:
    """Execute one numbered run against the pool and return its test
    predictions along with the dev accuracy that selected them."""
    if run not in RUN_CELLS:
        raise EnsembleError(f"unknown run {run} (valid: 1-7)")
    if external is not None:
        if run not in (5, 6, 7):
            raise EnsembleError("external predictions only join runs 5-7")
        if len(external.test) != len(test):
            raise EnsembleError(f"external predictions have {len(external.test)} rows "
                                f"for {len(test)} test samples")
        if external.dev is not None and len(external.dev) != len(dev):
            raise EnsembleError(f"external dev predictions have {len(external.dev)} rows "
                                f"for {len(dev)} dev samples")
    gold = _gold_forms(dev)
    members = _members(run, pool, dev, test)

    cell_votes = [System(f"E({arch}/{aligner})",
                         tuple(m for m in members if m.cell == (arch, aligner)))
                  for arch, aligner in RUN_CELLS[run]]

    if run in (1, 3):
        chosen = max_strategy(cell_votes, gold)
    elif run in (2, 4):
        arch = RUN_CELLS[run][0][0]
        chosen = ensemble_n(members, 7, f"ENSEMBLE_7({arch})")
    else:
        candidates, voters = cell_votes, members
        if external is not None:
            candidates.append(System(external.name, (external,)))
            voters = members + [external]
        run5 = max_strategy(candidates, gold)
        run6 = ensemble_n(voters, 15, "ENSEMBLE_15")
        if run == 5:
            chosen = run5
        elif run == 6:
            chosen = run6
        else:
            chosen = max_strategy([run5, run6], gold)

    return RunResult(run, chosen.name, chosen.dev_accuracy(gold),
                     tuple(chosen.test_predictions()))
