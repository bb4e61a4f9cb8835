"""Deterministic text primitives: tokenization, sentence splitting, syllables, n-grams.

Everything here is a pure function over immutable inputs. All downstream
metrics and filters build on these, so their behavior is pinned by fixtures
rather than left to an external NLP stack.
"""
from __future__ import annotations

import re
import unicodedata
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Sequence

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
    "words_of",
    "total",
    "SetOnce",
]

# Words keep internal hyphens/apostrophes ("state-of-the-art", "don't");
# every other punctuation character becomes its own token.
_TOKEN_RE = re.compile(r"\d+(?:[.,]\d+)*|\w+(?:[-'’]\w+)*|[^\w\s]", re.UNICODE)

_SENT_END_RE = re.compile(r"[.!?]+[\"'”’)\]]*")
_NON_SPACE_RE = re.compile(r"\S")

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


class SetOnce:
    """A record whose ``__init__`` sets each field once, with ``object.__setattr__``; assignment raises."""

    # Not ``vars(self).update``: that gives each instance a dict object, over twice a two-field record's memory.
    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")


class Sentence(NamedTuple):
    """Per-text counts feeding readability formulas.

    Words are word tokens only (tokens containing at least one alphanumeric
    character); punctuation tokens are not counted.
    """

    sentence_count: int
    word_count: int
    syllable_count: int


def normalize(text: str) -> str:
    """NFC-normalize input so identical content hashes identically."""
    return unicodedata.normalize("NFC", text)


def tokenize(text: str) -> list[str]:
    """Split text into word and punctuation tokens.

    Deterministic and case-preserving; metrics lowercase downstream.
    Empty input yields an empty list.
    """
    # Same tokens as _TOKEN_RE over the whole text: no token holds
    # whitespace, `\s` is exactly str.isspace, and an all-letter chunk is one
    # `\w+` match, so only the other chunks need the regex.
    tokens: list[str] = []
    for chunk in normalize(text).split():
        if chunk.isalpha():
            tokens.append(chunk)
        else:
            tokens += _TOKEN_RE.findall(chunk)
    return tokens


def word_tokens(tokens: Iterable[str]) -> list[str]:
    """Tokens that count as words (contain an alphanumeric character)."""
    # First-char check catches nearly every word token; the any() scan only
    # runs for a longer token that starts with punctuation.
    return [
        t for t in tokens
        if t[:1].isalnum() or (len(t) > 1 and any(c.isalnum() for c in t))
    ]


@lru_cache(maxsize=2)
def words_of(text: str) -> tuple[str, ...]:
    """``word_tokens(tokenize(text))`` as a tuple, memoized for the last two texts.

    The filter and the FKGL labeler both need a pair's word tokens, one
    right after the other, so two entries let a kept pair's sides be
    tokenized once. A tuple, because every caller shares the value.
    """
    return tuple(word_tokens(tokenize(text)))


def _trailing_word(text: str, end: int) -> str:
    """The run of word characters and periods that ends at ``end``, or "".

    One newline right before ``end`` is skipped first, as a regex ``$``
    would. Scanning backward over the run alone keeps the splitter linear
    in the text.
    """
    if end and text[end - 1] == "\n":
        end -= 1
    start = end
    while start and (text[start - 1].isalnum() or text[start - 1] in "_."):
        start -= 1
    return text[start:end]


def split_sentences(text: str) -> list[tuple[int, int]]:
    """Return (start, end) spans of sentences in ``text``.

    A run of terminal punctuation ends a sentence unless it belongs to a
    known abbreviation or sits inside a number. Spans cover all
    non-whitespace content; text without a terminal forms one span.
    """
    text = normalize(text)
    spans: list[tuple[int, int]] = []
    cursor = 0  # just past the last accepted boundary
    for m in _SENT_END_RE.finditer(text):
        end = m.end()
        # Mid-token punctuation ("3.5", "e.g.x") is not a boundary.
        if end < len(text) and not text[end].isspace():
            continue
        if "." in m.group():
            word = _trailing_word(text, m.start()).lower().rstrip(".")
            if word in _ABBREVIATIONS:
                continue
        # The boundary's own punctuation is non-space, so the search stops before ``end``.
        spans.append((_NON_SPACE_RE.search(text, cursor).start(), end))
        cursor = end
    tail = _NON_SPACE_RE.search(text, cursor)
    if tail:
        spans.append((tail.start(), len(text.rstrip())))
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
    total = distinct = 0
    # Order n has len(toks) - n + 1 n-grams, and none past the text's length.
    for n in range(min_n, min(max_n, len(toks)) + 1):
        total += len(toks) - n + 1
        distinct += len(ngrams(toks, n))
    return distinct / total if total else 1.0


def total(values: Iterable[float]) -> float:
    """Floats added left to right from 0.0: ``sum()``'s bits before Python 3.12, on every version."""
    result = 0.0
    for value in values:
        result += value
    return result


def sentence_stats(text: str) -> Sentence:
    """Aggregate token/sentence/syllable counts for one text."""
    # The text as given is the memo key the filter used for the same side.
    words = words_of(text)
    syllables = sum(map(count_syllables, words))
    return Sentence(
        sentence_count=len(split_sentences(text)),
        word_count=len(words),
        syllable_count=syllables,
    )
