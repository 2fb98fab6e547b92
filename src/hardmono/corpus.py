"""Dataset parsing and alphabet construction.

Data files are UTF-8 text, one sample per line, tab-separated:
``lemma<TAB>form<TAB>feat1;feat2;...`` for train/dev and
``lemma<TAB>feat1;feat2;...`` for unlabeled test input.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass, field
from functools import cached_property

log = logging.getLogger(__name__)


class DataError(ValueError):
    """Malformed input data (bad column count, empty lemma, ...)."""


@dataclass(frozen=True)
class Sample:
    """One lemma / feature-set / inflected-form triple.

    ``features`` keeps the file order; consumers that need set semantics
    treat it as one. ``form`` is None for unlabeled test lines.
    """

    lemma: str
    features: tuple[str, ...]
    form: str | None = None

    def __post_init__(self) -> None:
        if not self.lemma:
            raise DataError("empty lemma")
        if not self.features:
            raise DataError("empty feature set")
        if self.form == "":   # an unlabeled sample has form None
            raise DataError("empty form")


def open_text(path: str) -> io.TextIOWrapper:
    """The file as UTF-8 text, read like ``open(path, encoding="utf-8")``
    but without a leading byte-order mark, which would otherwise join the
    first lemma; bytes that are not UTF-8 raise DataError naming the file
    and line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({e.reason})") from None
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")


def parse_dataset(path: str, has_form: bool = True) -> list[Sample]:
    """Read one Sample per line; raises DataError with the line number."""
    samples = []
    expected = 3 if has_form else 2
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            cols = line.split("\t")
            if len(cols) != expected:
                raise DataError(
                    f"{path}:{lineno}: expected {expected} tab-separated columns, got {len(cols)}"
                )
            try:
                samples.append(Sample(lemma=cols[0],
                                      features=tuple(t for t in cols[-1].split(";") if t),
                                      form=cols[1] if has_form else None))
            except DataError as e:
                raise DataError(f"{path}:{lineno}: {e}") from None
    return samples


def write_dataset(path: str, samples: list[Sample], has_form: bool = True) -> None:
    """Inverse of parse_dataset (same column layout, LF endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for s in samples:
            feats = ";".join(s.features)
            if has_form:
                f.write(f"{s.lemma}\t{s.form}\t{feats}\n")
            else:
                f.write(f"{s.lemma}\t{feats}\n")


@dataclass(frozen=True)
class CharVocabulary:
    """Training character inventory with BOS/EOS/UNK sentinels.

    Ids are dense: 0=BOS, 1=EOS, 2=UNK, then ``chars`` in order. The char
    order is sorted at build time and preserved verbatim through
    serialization, so ids are stable across a save/load round trip.
    """

    chars: tuple[str, ...]

    BOS_ID = 0
    EOS_ID = 1
    UNK_ID = 2
    NUM_SPECIALS = 3

    def __post_init__(self) -> None:
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("duplicate characters in vocabulary")
        for char in self.chars:
            if len(char) != 1:
                raise ValueError(f"vocabulary entry {char!r} is not one character")

    def __len__(self) -> int:
        return self.NUM_SPECIALS + len(self.chars)

    def __contains__(self, char: str) -> bool:
        return char in self._index

    @cached_property
    def _index(self) -> dict[str, int]:
        return {c: self.NUM_SPECIALS + i for i, c in enumerate(self.chars)}

    def id_of(self, char: str) -> int:
        """Id for a character; OOV maps to UNK_ID, not an error."""
        return self._index.get(char, self.UNK_ID)


@dataclass(frozen=True)
class FeatureAlphabet:
    """Sorted feature-tag inventory plus one reserved UNK slot.

    Slot layout is ``features`` in order followed by the UNK slot, so
    vectors built over the alphabet have ``num_slots`` entries. Unseen
    test tags map to the UNK slot and are logged once per tag.
    """

    features: tuple[str, ...]
    _warned: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        if list(self.features) != sorted(set(self.features)):
            raise ValueError("feature alphabet must be sorted and duplicate-free")

    @property
    def num_slots(self) -> int:
        return len(self.features) + 1

    @property
    def unk_slot(self) -> int:
        return len(self.features)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {f: i for i, f in enumerate(self.features)}

    def slot_of(self, feature: str) -> int:
        slot = self._index.get(feature)
        if slot is None:
            if feature not in self._warned:
                self._warned.add(feature)
                log.warning("unseen feature tag %r mapped to UNK slot", feature)
            return self.unk_slot
        return slot

    def slots_of(self, features: tuple[str, ...]) -> tuple[int, ...]:
        return tuple(sorted({self.slot_of(f) for f in features}))


def build_vocab(train: list[Sample]) -> tuple[CharVocabulary, FeatureAlphabet]:
    """Union of characters (lemmas and forms) and of feature tags, sorted."""
    if not train:
        raise ValueError("empty training set")
    chars: set[str] = set()
    feats: set[str] = set()
    for s in train:
        chars.update(s.lemma)
        if s.form is not None:
            chars.update(s.form)
        feats.update(s.features)
    return CharVocabulary(tuple(sorted(chars))), FeatureAlphabet(tuple(sorted(feats)))
