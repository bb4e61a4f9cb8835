"""Deterministic text primitives: tokenization, sentence splitting, syllables, n-grams.

Everything here is a pure function over immutable inputs. All downstream
metrics and filters build on these, so their behavior is pinned by fixtures
rather than left to an external NLP stack.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Sentence",
    "tokenize",
    "split_sentences",
    "count_syllables",
    "ngrams",
    "windows",
    "distinct_ratio",
    "sentence_stats",
    "word_tokens",
]

# Words keep internal hyphens/apostrophes ("state-of-the-art", "don't");
# every other punctuation character becomes its own token.
_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)*|\w+(?:[-'’]\w+)*|[^\w\s]", re.UNICODE)

_SENT_END_RE = re.compile(r"[.!?]+[\"'”’)\]]*")
_TRAILING_WORD_RE = re.compile(r"[\w.]+$")

# Trailing-period abbreviations that do not end a sentence.
_ABBREVIATIONS = frozenset(
    {
        "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
        "e.g", "i.e", "cf", "fig", "al", "inc", "ltd", "co", "dept",
        "approx", "no", "vol", "pp",
    }
)

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")
_NON_ALPHA_RE = re.compile(r"[^a-z]")


@dataclass(frozen=True)
class Sentence:
    """Per-text counts feeding readability formulas.

    ``tokens`` holds word tokens only (tokens containing at least one
    alphanumeric character); punctuation tokens are excluded, so
    ``word_count == len(tokens)``.
    """

    raw: str
    tokens: tuple[str, ...]
    sentence_count: int
    word_count: int
    syllable_count: int


def normalize(text: str) -> str:
    """NFC-normalize input so identical content hashes identically."""
    # ASCII is NFC by construction; skip the unicodedata call for it.
    if text.isascii():
        return text
    return unicodedata.normalize("NFC", text)


def tokenize(text: str) -> list[str]:
    """Split text into word and punctuation tokens.

    Deterministic and case-preserving; metrics lowercase downstream.
    Empty input yields an empty list.
    """
    if not text:
        return []
    return _TOKEN_RE.findall(normalize(text))


def word_tokens(tokens: Iterable[str]) -> list[str]:
    """Tokens that count as words (contain an alphanumeric character)."""
    # First-char check catches nearly every word token; the any() scan only
    # runs for the rare token that starts with punctuation.
    return [
        t for t in tokens if t and (t[0].isalnum() or any(c.isalnum() for c in t))
    ]


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Return (start, end) spans of sentences in ``text``.

    A run of terminal punctuation ends a sentence unless it belongs to a
    known abbreviation or sits inside a number. Spans cover all
    non-whitespace content; text without a terminal forms one span.
    """
    text = normalize(text)
    boundaries: list[int] = []
    for m in _SENT_END_RE.finditer(text):
        end = m.end()
        # Mid-token punctuation ("3.5", "e.g.x") is not a boundary.
        if end < len(text) and not text[end].isspace():
            continue
        if "." in m.group():
            word_m = _TRAILING_WORD_RE.search(text, 0, m.start())
            if word_m:
                word = word_m.group().lower().rstrip(".")
                if word in _ABBREVIATIONS:
                    continue
        boundaries.append(end)

    spans: list[tuple[int, int]] = []
    cursor = 0
    for b in boundaries:
        chunk = text[cursor:b]
        stripped = chunk.strip()
        if stripped:
            start = cursor + chunk.index(stripped[0])
            spans.append((start, start + len(stripped)))
        cursor = b
    tail = text[cursor:]
    stripped = tail.strip()
    if stripped:
        start = cursor + tail.index(stripped[0])
        spans.append((start, start + len(stripped)))
    return spans


@lru_cache(maxsize=1 << 16)
def count_syllables(word: str) -> int:
    """Heuristic syllable count: vowel groups with silent-suffix fixes.

    Consecutive vowels (incl. y) form one group. A trailing silent 'e' is
    dropped unless the word ends in consonant+"le"; silent "-ed"/"-es"
    endings after most consonants are dropped too. Non-alphabetic input
    falls back to 1. Always >= 1.
    """
    w = _NON_ALPHA_RE.sub("", word.lower())
    if not w:
        return 1
    count = len(_VOWEL_GROUP_RE.findall(w))
    if count > 1:
        if w.endswith("e") and not (
            len(w) >= 3 and w.endswith("le") and w[-3] not in "aeiouy"
        ):
            count -= 1
        elif len(w) > 2 and w.endswith("ed") and w[-3] not in "aeiouytd":
            count -= 1
        elif len(w) > 2 and w.endswith("es") and w[-3] not in "aeiouysxzhl":
            count -= 1
    return max(1, min(count, len(w)))


def windows(tokens: Sequence[str], n: int) -> Iterator[tuple[str, ...]]:
    """Contiguous n-token windows of ``tokens`` as tuples, in order.

    The one place n-grams are cut. Tokens are used as given (no case
    folding), so a caller that folds once can window many orders.
    """
    return zip(*[tokens[i:] for i in range(n)])


def ngrams(tokens: Iterable[str], n: int) -> Counter:
    """Multiset of contiguous case-folded n-grams as a Counter of tuples."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Counter(windows([t.lower() for t in tokens], n))


def distinct_ratio(tokens: Iterable[str], max_n: int = 4, min_n: int = 1) -> float:
    """Distinct / total n-grams pooled over orders min_n..max_n; 1.0 when none."""
    toks = list(tokens)
    total = 0
    distinct = 0
    for n in range(min_n, max_n + 1):
        grams = ngrams(toks, n)
        total += sum(grams.values())
        distinct += len(grams)
    if total == 0:
        return 1.0
    return distinct / total


def sentence_stats(text: str) -> Sentence:
    """Aggregate token/sentence/syllable counts for one text."""
    text = normalize(text)
    words = tuple(word_tokens(tokenize(text)))
    syllables = sum(map(count_syllables, words))
    n_sentences = len(split_sentences(text))
    if text.strip() and n_sentences == 0:
        n_sentences = 1
    return Sentence(
        raw=text,
        tokens=words,
        sentence_count=n_sentences,
        word_count=len(words),
        syllable_count=syllables,
    )
