"""Synthetic inflection languages for tests and end-to-end runs.

A language is a stem pattern plus a list of rules.  Stems are drawn from the
pattern (``C`` = random consonant, ``V`` = random vowel, anything else is a
literal character); each rule deterministically maps a stem to an inflected
form for one feature bundle:

    V;PRS=suffix:en       form = stem + "en"
    V;PST=ablaut:i>o      form = stem with every "i" replaced by "o"
    N;DEF=prefix:ge       form = "ge" + stem

Each generated stem contributes one sample per rule, and the train/dev/test
splits never share a stem.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from hardmono.corpus import Sample, write_dataset

CONSONANTS = "bdfgklmnprst"
VOWELS = "aeiou"

RULE_KINDS = ("suffix", "prefix", "ablaut")


class SynthError(ValueError):
    """Unparsable rule or an unsatisfiable generation request."""


@dataclass(frozen=True)
class Rule:
    features: tuple[str, ...]
    kind: str
    arg: str

    def __post_init__(self) -> None:
        if not self.features or any(not f for f in self.features):
            raise SynthError("rule needs non-empty feature tags")
        if self.kind not in RULE_KINDS:
            raise SynthError(f"unknown rule kind {self.kind!r} (have {RULE_KINDS})")
        if self.kind == "ablaut":
            parts = self.arg.split(">")
            if len(parts) != 2 or not parts[0]:
                raise SynthError(f"ablaut argument {self.arg!r} must look like 'i>o'")
        elif not self.arg:
            raise SynthError(f"{self.kind} rule needs a non-empty affix")

    def apply(self, stem: str) -> str:
        if self.kind == "suffix":
            return stem + self.arg
        if self.kind == "prefix":
            return self.arg + stem
        old, new = self.arg.split(">")
        return stem.replace(old, new)


def parse_rule(text: str) -> Rule:
    """Parse ``FEAT;FEAT=kind:arg`` (e.g. ``V;PST=ablaut:i>o``)."""
    head, sep, body = text.partition("=")
    if not sep:
        raise SynthError(f"rule {text!r} is missing '='")
    kind, sep, arg = body.partition(":")
    if not sep:
        raise SynthError(f"rule {text!r} is missing ':' after the kind")
    return Rule(tuple(head.split(";")), kind, arg)


DEFAULT_PATTERN = "CViCen"
DEFAULT_RULES = (
    parse_rule("V;PRS=suffix:t"),
    parse_rule("V;PST=ablaut:i>o"),
)


@dataclass(frozen=True)
class SynthConfig:
    pattern: str = DEFAULT_PATTERN
    rules: tuple[Rule, ...] = DEFAULT_RULES
    train: int = 100
    dev: int = 50
    test: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.rules:
            raise SynthError("need at least one rule")
        if not self.pattern:
            raise SynthError("empty stem pattern")
        if min(self.train, self.dev, self.test) < 0:
            raise SynthError("split sizes must be non-negative")


def _stem(pattern: str, rng: random.Random) -> str:
    return "".join(rng.choice(CONSONANTS) if c == "C"
                   else rng.choice(VOWELS) if c == "V"
                   else c for c in pattern)


def generate(config: SynthConfig) -> tuple[list[Sample], list[Sample], list[Sample]]:
    """Three sample lists with the requested sizes and disjoint stems."""
    rng = random.Random(config.seed)
    seen: set[str] = set()

    def fresh_stem() -> str:
        for _ in range(10000):
            stem = _stem(config.pattern, rng)
            if stem not in seen:
                seen.add(stem)
                return stem
        raise SynthError(
            f"pattern {config.pattern!r} cannot supply enough distinct stems")

    def split(size: int) -> list[Sample]:
        samples: list[Sample] = []
        while len(samples) < size:
            stem = fresh_stem()
            for rule in config.rules:
                if len(samples) == size:
                    break
                form = rule.apply(stem)
                if not form:
                    text = f"{';'.join(rule.features)}={rule.kind}:{rule.arg}"
                    raise SynthError(f"rule {text!r} leaves nothing of stem {stem!r}")
                samples.append(Sample(stem, rule.features, form))
        return samples

    return split(config.train), split(config.dev), split(config.test)


def write_language(directory: str, config: SynthConfig) -> dict[str, str]:
    """Generate and write train/dev/test files; returns name -> path. All
    three splits are generated before the directory is made, so a request
    the pattern cannot satisfy leaves nothing behind."""
    splits = generate(config)
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, samples in zip(("train", "dev", "test"), splits):
        path = os.path.join(directory, f"{name}.tsv")
        write_dataset(path, samples)
        paths[name] = path
    return paths
