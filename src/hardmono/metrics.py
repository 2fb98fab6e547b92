"""Evaluation metrics: exact-match accuracy, edit distance, and
macro-averaged multi-language reports."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance: Myers' bit-parallel algorithm (J. ACM 46(3),
    1999) in Hyyrö's form for the global distance, on Python ints.

    Bit i of each vector is row i+1 of one column of the dynamic program
    over the longer string; ``pv``/``mv`` mark vertical deltas of +1/-1 and
    ``dist`` follows the last row. One loop pass per character of the
    shorter string. Python ints behave as infinite two's complement and
    carries only move up, so bits above the last row never reach it and
    the vectors need no mask."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}   # character -> bitmask of its positions in a
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | 1 << i
    last = 1 << (len(a) - 1)
    pv, mv, dist = -1, 0, len(a)
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ph << 1 | 1   # row 0 grows by one per column
        pv = mh << 1 | ~(xv | ph)
        mv = ph & xv
    return dist


def accuracy(predictions: Sequence[str], references: Sequence[str]) -> float:
    """Fraction of exact string matches; empty input is an error."""
    if len(predictions) != len(references):
        raise ValueError(f"{len(predictions)} predictions vs {len(references)} references")
    if not references:
        raise ValueError("cannot score an empty set")
    return sum(p == r for p, r in zip(predictions, references)) / len(references)


def mean_levenshtein(predictions: Sequence[str], references: Sequence[str]) -> float:
    if len(predictions) != len(references):
        raise ValueError(f"{len(predictions)} predictions vs {len(references)} references")
    if not references:
        raise ValueError("cannot score an empty set")
    return sum(levenshtein(p, r) for p, r in zip(predictions, references)) / len(references)


@dataclass(frozen=True)
class LanguageResult:
    language: str
    accuracy: float
    mean_levenshtein: float
    count: int


@dataclass(frozen=True)
class EvalReport:
    """Per-language scores plus their unweighted (macro) averages."""
    languages: tuple[LanguageResult, ...]

    def __post_init__(self) -> None:
        if not self.languages:
            raise ValueError("report needs at least one language")

    @property
    def macro_accuracy(self) -> float:
        return sum(r.accuracy for r in self.languages) / len(self.languages)

    @property
    def macro_levenshtein(self) -> float:
        return sum(r.mean_levenshtein for r in self.languages) / len(self.languages)


def score(language: str, predictions: Sequence[str], references: Sequence[str]) -> LanguageResult:
    return LanguageResult(language, accuracy(predictions, references),
                          mean_levenshtein(predictions, references), len(references))


def macro_report(results: Sequence[LanguageResult]) -> EvalReport:
    return EvalReport(tuple(results))


def render_tsv(rep: EvalReport) -> str:
    """One tab-separated row per language plus a macro-average row."""
    lines = [f"{r.language}\t{r.accuracy:.4f}\t{r.mean_levenshtein:.4f}\t{r.count}"
             for r in rep.languages]
    lines.append(f"macro-avg\t{rep.macro_accuracy:.4f}\t{rep.macro_levenshtein:.4f}\t"
                 f"{sum(r.count for r in rep.languages)}")
    return "\n".join(lines) + "\n"


def render_table(rep: EvalReport) -> str:
    """Aligned-column layout: accuracy as a percentage, mean edit distance."""
    width = max(len("macro-avg"), *(len(r.language) for r in rep.languages))
    header = f"{'language':<{width}}  {'acc%':>6}  {'lev':>5}"
    rule = "-" * len(header)
    rows = [f"{r.language:<{width}}  {100 * r.accuracy:>6.1f}  {r.mean_levenshtein:>5.2f}"
            for r in rep.languages]
    macro = (f"{'macro-avg':<{width}}  {100 * rep.macro_accuracy:>6.1f}  "
             f"{rep.macro_levenshtein:>5.2f}")
    return "\n".join([header, rule, *rows, rule, macro]) + "\n"
