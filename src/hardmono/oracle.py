"""Oracle action derivation, normalization, and action replay.

Two action inventories over a lemma:

* HACM: WRITE_c / STEP / BOS / EOS over an attention frame of
  BOS + lemma + EOS (index 0..n+1). STEP advances the attention pointer,
  WRITE emits a character without moving it.
* HAEM: COPY / DELETE / WRITE_c / STOP over the bare lemma (index 1..n+1).
  COPY emits the attended character and advances, DELETE only advances.

The executors below are the single source of truth for action semantics;
oracle derivation, replay verification, and model decoding all drive them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from hardmono.align import Alignment

HACM = "HACM"
HAEM = "HAEM"


class ReplayError(ValueError):
    """Action sequence cannot be executed over the given lemma."""


@dataclass(frozen=True)
class Action:
    tag: str  # WRITE | STEP | BOS | EOS | COPY | DELETE | STOP
    char: str | None = None

    def __post_init__(self) -> None:
        if (self.tag == "WRITE") != (self.char is not None):
            raise ValueError("WRITE carries exactly one character, other actions none")
        if self.char is not None and len(self.char) != 1:
            raise ValueError("WRITE character must be a single character")

    def render(self) -> str:
        return self.char if self.tag == "WRITE" else self.tag

    def __repr__(self) -> str:  # keeps test output readable
        return f"WRITE({self.char})" if self.tag == "WRITE" else self.tag


STEP = Action("STEP")
BOS = Action("BOS")
EOS = Action("EOS")
COPY = Action("COPY")
DELETE = Action("DELETE")
STOP = Action("STOP")


def write(char: str) -> Action:
    return Action("WRITE", char)


# each inventory's structural actions in id order; the last ends a program
SPECIALS = {HACM: (STEP, BOS, EOS), HAEM: (COPY, DELETE, STOP)}


@dataclass(frozen=True)
class OracleSequence:
    actions: tuple[Action, ...]
    inventory: str  # HACM | HAEM

    def __post_init__(self) -> None:
        if self.inventory not in SPECIALS:
            raise ValueError(f"unknown inventory {self.inventory!r}")
        for a in self.actions:
            if a.tag != "WRITE" and a not in SPECIALS[self.inventory]:
                raise ValueError(f"{a.tag} is not a {self.inventory} action")

    def __len__(self) -> int:
        return len(self.actions)

    def render(self) -> str:
        return " ".join(a.render() for a in self.actions)


@dataclass(frozen=True)
class HacmExecutor:
    """Attention/output state over the BOS + lemma + EOS frame."""

    lemma: str
    i: int = 0
    out: str = ""
    done: bool = False

    @property
    def n(self) -> int:
        return len(self.lemma)

    def frame_symbol(self) -> Action:
        """The attended symbol as the action that copies it (WRITE_c for a
        lemma character, BOS/EOS for the sentinel positions)."""
        if self.i == 0:
            return BOS
        if self.i == self.n + 1:
            return EOS
        return write(self.lemma[self.i - 1])

    def apply(self, action: Action) -> "HacmExecutor":
        if self.done:
            raise ReplayError(f"action {action!r} after EOS")
        if action.tag == "BOS":
            return self
        if action.tag == "STEP":
            if self.i >= self.n + 1:
                raise ReplayError(f"STEP past frame end at i={self.i} (n={self.n}): "
                                  "the pointer cannot move past end of the frame")
            return replace(self, i=self.i + 1)
        if action.tag == "WRITE":
            return replace(self, out=self.out + action.char)
        return replace(self, done=True)  # EOS


@dataclass(frozen=True)
class HaemExecutor:
    """Attention/output state over the bare lemma, index 1..n+1."""

    lemma: str
    i: int = 1
    out: str = ""
    done: bool = False

    @property
    def n(self) -> int:
        return len(self.lemma)

    def can_advance(self) -> bool:
        return self.i <= self.n

    def attended_char(self) -> str | None:
        return self.lemma[self.i - 1] if self.can_advance() else None

    def apply(self, action: Action) -> "HaemExecutor":
        if self.done:
            raise ReplayError(f"action {action!r} after STOP")
        if action.tag in ("COPY", "DELETE"):
            if not self.can_advance():
                raise ReplayError(f"{action.tag} at i={self.i} past lemma end (n={self.n})")
            out = self.out + self.lemma[self.i - 1] if action.tag == "COPY" else self.out
            return replace(self, i=self.i + 1, out=out)
        if action.tag == "WRITE":
            return replace(self, out=self.out + action.char)
        return replace(self, done=True)  # STOP


EXECUTORS = {HACM: HacmExecutor, HAEM: HaemExecutor}


def hacm_oracle(alignment: Alignment) -> OracleSequence:
    """Write/step program reproducing the form, attention sweeping the whole
    frame left to right exactly once.

    Writes anchored to a lemma position are preceded by the STEPs that move
    the pointer onto that position; insertion writes (0-to-1 pairs) step
    nowhere; deletions only buffer STEPs, flushed before the next anchored
    write or before EOS.
    """
    n = sum(1 for p in alignment.pairs if p.lemma_char)
    actions = [BOS]
    i = 0
    lemma_pos = 0
    for pair in alignment.pairs:
        if pair.lemma_char:
            lemma_pos += 1
        if pair.form_char:
            if pair.lemma_char:
                while i < lemma_pos:
                    actions.append(STEP)
                    i += 1
            actions.append(write(pair.form_char))
    while i < n + 1:
        actions.append(STEP)
        i += 1
    actions.append(EOS)
    return OracleSequence(tuple(actions), HACM)


def haem_oracle(alignment: Alignment) -> OracleSequence:
    """Edit-action program: COPY matches, DELETE removals, DELETE+WRITE
    substitutions, WRITE insertions, then STOP; delete/write runs are
    normalized so deletions come first."""
    actions: list[Action] = []
    for pair in alignment.pairs:
        if not pair.lemma_char:
            actions.append(write(pair.form_char))
        elif not pair.form_char:
            actions.append(DELETE)
        elif pair.lemma_char == pair.form_char:
            actions.append(COPY)
        else:
            actions.append(DELETE)
            actions.append(write(pair.form_char))
    actions.append(STOP)
    return normalize(OracleSequence(tuple(actions), HAEM))


ORACLES = {HACM: hacm_oracle, HAEM: haem_oracle}


def normalize(seq: OracleSequence) -> OracleSequence:
    """Within each maximal run of only DELETE/WRITE actions, move all
    DELETEs before all WRITEs, keeping the WRITEs' relative order."""
    if seq.inventory != HAEM:
        raise ValueError("normalize applies to the edit-action inventory only")
    out: list[Action] = []
    deletes: list[Action] = []
    writes: list[Action] = []
    for a in seq.actions:
        if a.tag == "DELETE":
            deletes.append(a)
        elif a.tag == "WRITE":
            writes.append(a)
        else:
            out += deletes + writes
            deletes, writes = [], []
            out.append(a)
    out += deletes + writes
    return OracleSequence(tuple(out), seq.inventory)


def replay(lemma: str, seq: OracleSequence) -> str:
    """Execute the actions over the lemma and return the produced string."""
    return replay_with_trace(lemma, seq)[0]


def replay_with_trace(lemma: str, seq: OracleSequence) -> tuple[str, list[int]]:
    """Like replay, also returning the attention index at each action."""
    ex = EXECUTORS[seq.inventory](lemma)
    trace = []
    for t, action in enumerate(seq.actions):
        trace.append(ex.i)
        try:
            ex = ex.apply(action)
        except ReplayError as e:
            raise ReplayError(f"step {t + 1}: {e}") from None
    if not ex.done:
        raise ReplayError(f"sequence ended without {SPECIALS[seq.inventory][-1].tag}")
    return ex.out, trace


class ActionCodec:
    """Dense integer ids for one inventory over a character vocabulary:
    ``actions`` holds every action by id, the three structural actions
    first, then WRITE_c per character, and ``ids`` each action's id.

    WRITE of a character outside the vocabulary has no id; ``write_id``
    returns None for it and ``id_of`` raises.
    """

    def __init__(self, inventory: str, chars: tuple[str, ...]):
        if inventory not in SPECIALS:
            raise ValueError(f"unknown inventory {inventory!r}")
        self.inventory = inventory
        self.chars = chars
        self.specials = SPECIALS[inventory]
        self.actions = self.specials + tuple(write(c) for c in chars)
        self.ids = {a: i for i, a in enumerate(self.actions)}

    @property
    def size(self) -> int:
        return len(self.actions)

    def write_id(self, char: str) -> int | None:
        return self.ids.get(write(char))

    def id_of(self, action: Action) -> int:
        aid = self.ids.get(action)
        if aid is None:
            raise ValueError(f"WRITE({action.char}) is outside the trained inventory"
                             if action.tag == "WRITE" else
                             f"{action.tag} is not a {self.inventory} action")
        return aid

    def action_of(self, action_id: int) -> Action:
        if not 0 <= action_id < self.size:
            raise IndexError(f"action id {action_id} out of range for size {self.size}")
        return self.actions[action_id]


def display_trace(lemma: str, seq: OracleSequence) -> list[int]:
    """Attention trace with the edit-inventory indices clamped to the lemma
    length, the way worked examples print a pointer that has run off the
    final character."""
    _, trace = replay_with_trace(lemma, seq)
    if seq.inventory == HAEM:
        return [min(i, len(lemma)) for i in trace]
    return trace
