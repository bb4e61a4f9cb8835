"""FKGL computation and the complexity-level scheme algebra.

Levels live in one of four schemes: CEFR6 (A1..C2), CEFR3 (A/B/C),
NEWSELA (0..4, larger = simpler), and FKGL (real, 2-decimal precision).
Cross-scheme comparison is an error, never a silent coercion.
"""
from __future__ import annotations

import sys
from decimal import ROUND_HALF_UP, Context, Decimal
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .textcore import SetOnce, sentence_stats

__all__ = [
    "Scheme",
    "ComplexityLevel",
    "SchemeMismatchError",
    "fkgl",
    "fkgl_from_counts",
    "corpus_fkgl",
    "level_of",
    "cefr6_to_cefr3",
    "level_delta",
    "round2",
]

# Kincaid (1975) grade-level constants.
_WORDS_PER_SENT_WEIGHT = 0.39
_SYLLABLES_PER_WORD_WEIGHT = 11.8
_FKGL_OFFSET = 15.59


class Scheme(str, Enum):
    CEFR6 = "cefr6"
    CEFR3 = "cefr3"
    NEWSELA = "newsela"
    FKGL = "fkgl"


class SchemeMismatchError(ValueError):
    """Raised when levels from different schemes are compared."""


# Level labels per scheme, in index order; FKGL has no labels (a real value).
_LABELS = {
    Scheme.CEFR6: ("A1", "A2", "B1", "B2", "C1", "C2"),
    Scheme.CEFR3: ("A", "B", "C"),
    Scheme.NEWSELA: ("0", "1", "2", "3", "4"),
}

_CENT = Decimal("0.01")
_FLOAT_MAX = sys.float_info.max
# Digits enough to quantize any finite float to 2 decimals; the default 28 fail from 1e26 up.
_ROUND2 = Context(prec=400, rounding=ROUND_HALF_UP)


def round2(value: float) -> float:
    """Round half-up to 2 decimals (labeling-time convention)."""
    return float(Decimal(repr(value)).quantize(_CENT, context=_ROUND2))


class ComplexityLevel(SetOnce):
    """A level of one scheme, set once. Levels are equal and hash alike over
    (scheme, value), and have no order: ``<`` raises TypeError."""

    __slots__ = ("scheme", "value")

    def __init__(self, scheme: Scheme, value: float) -> None:
        """The one check of a level: FKGL takes a number finite as a float, rounded
        to 2 decimals; any other scheme an int index of its labels. A bool is neither."""
        if not isinstance(scheme, Scheme):
            raise ValueError(f"unknown level scheme {scheme!r}")
        if scheme is Scheme.FKGL:
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= _FLOAT_MAX:
                raise ValueError(f"FKGL level must be a finite number, got {value!r}")
            value = round2(float(value)) + 0.0  # -0.0 would print as -0.00
        elif isinstance(value, bool) or not isinstance(value, int) or value not in range(len(_LABELS[scheme])):
            raise ValueError(f"{scheme.name} index out of range, got {value!r}")
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.scheme, self.value) == (other.scheme, other.value)

    def __hash__(self) -> int:
        return hash((self.scheme, self.value))

    def __reduce__(self) -> tuple:
        # Slotted and set once, so copy and pickle rebuild a level through __init__, not setattr.
        return self.__class__, (self.scheme, self.value)

    def __repr__(self) -> str:
        return f"ComplexityLevel(scheme={self.scheme!r}, value={self.value!r})"

    @classmethod
    def parse(cls, scheme: Scheme, raw: object) -> "ComplexityLevel":
        """The one label -> level conversion: a label of the scheme, any case
        (Newsela 3 is "3"), or a finite number for FKGL; else ValueError."""
        try:
            if scheme is not Scheme.FKGL:
                return cls(scheme, _LABELS[scheme].index(str(raw).upper()))
            # A number goes to the constructor as it is, so that it alone judges numbers.
            return cls(scheme, raw if isinstance(raw, (int, float)) else float(raw))
        except (TypeError, ValueError):
            raise ValueError(f"bad {scheme.value} level {raw!r}") from None

    @property
    def label(self) -> str:
        if self.scheme is Scheme.FKGL:
            return f"{self.value:.2f}"
        return _LABELS[self.scheme][int(self.value)]

    @property
    def complexity_rank(self) -> float:
        """Value on a shared axis where larger always means more complex.

        Newsela is inverted relative to its raw level numbers: level 0 is
        the complex original and 4 the simplest rewrite.
        """
        if self.scheme is Scheme.NEWSELA:
            return -self.value
        return self.value


def fkgl_from_counts(word_count: int, sentence_count: int, syllable_count: int) -> float:
    """0.39 * words/sentences + 11.8 * syllables/words - 15.59."""
    if word_count < 1 or sentence_count < 1:
        raise ValueError(
            f"FKGL undefined for word_count={word_count}, sentence_count={sentence_count}"
        )
    return (
        _WORDS_PER_SENT_WEIGHT * word_count / sentence_count
        + _SYLLABLES_PER_WORD_WEIGHT * syllable_count / word_count
        - _FKGL_OFFSET
    )


def fkgl(text: str) -> float:
    """FKGL of one text."""
    stats = sentence_stats(text)
    return fkgl_from_counts(stats.word_count, stats.sentence_count, stats.syllable_count)


def corpus_fkgl(texts: Iterable[str]) -> float:
    """FKGL over pooled counts: sum words/sentences/syllables, then score.

    Pooling (not averaging per text) is the corpus-level convention; the
    choice is recorded in score reports.
    """
    words = sentences = syllables = 0
    for text in texts:
        stats = sentence_stats(text)
        words += stats.word_count
        sentences += stats.sentence_count
        syllables += stats.syllable_count
    return fkgl_from_counts(words, sentences, syllables)


def level_of(text: str) -> ComplexityLevel:
    """The FKGL level of raw text. FKGL is the only computed scheme; CEFR and
    Newsela levels come from ingested predictions."""
    return _fkgl_level(fkgl(text))


# Keyed by the raw value: a rounded key would pay round2's Decimal on every hit.
@lru_cache(maxsize=1 << 16)
def _fkgl_level(value: float) -> ComplexityLevel:
    """The one level per raw FKGL value; ComplexityLevel rounds it to 2 decimals."""
    return ComplexityLevel(Scheme.FKGL, value)


def cefr6_to_cefr3(level: ComplexityLevel) -> ComplexityLevel:
    """Collapse A1,A2 -> A; B1,B2 -> B; C1,C2 -> C."""
    if level.scheme is not Scheme.CEFR6:
        raise SchemeMismatchError(f"expected CEFR6 level, got {level.scheme.value}")
    return ComplexityLevel(Scheme.CEFR3, int(level.value) // 2)


def level_delta(a: ComplexityLevel, b: ComplexityLevel) -> float:
    """Signed difference a - b on the shared complexity axis, not rounded again for FKGL.

    Positive means ``a`` is more complex than ``b`` in every scheme,
    including Newsela where raw level numbers run the other way.
    """
    if a.scheme is not b.scheme:
        raise SchemeMismatchError(
            f"cannot compare levels across schemes: {a.scheme.value} vs {b.scheme.value}"
        )
    return a.complexity_rank - b.complexity_rank
