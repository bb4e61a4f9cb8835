import re
import sys
import time
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelforge.corpus import FilterConfig, ParaphrasePair, filter_pair
from levelforge.textcore import (
    _TOKEN_RE,
    count_syllables,
    distinct_ratio,
    ngrams,
    normalize,
    sentence_stats,
    split_sentences,
    tokenize,
    word_tokens,
    words_of,
)
from oracles import textcore_ref

words_st = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=10),
    min_size=0,
    max_size=30,
)


class TestTokenize:
    def test_separates_punctuation(self):
        assert tokenize("The cat sat.") == ["The", "cat", "sat", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphenated_word_stays_whole(self):
        assert tokenize("state-of-the-art") == ["state-of-the-art"]

    def test_apostrophes(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_mixed_punctuation(self):
        assert tokenize('He said, "go!"') == ["He", "said", ",", '"', "go", "!", '"']

    def test_numbers(self):
        assert tokenize("3.5 percent") == ["3.5", "percent"]

    @given(st.text())
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)

    @given(words_st, words_st)
    def test_word_count_additive_over_space_join(self, a, b):
        joined = " ".join(a) + " " + " ".join(b)
        n_a = len(word_tokens(tokenize(" ".join(a))))
        n_b = len(word_tokens(tokenize(" ".join(b))))
        assert len(word_tokens(tokenize(joined))) == n_a + n_b

    def test_chunking_facts_over_every_code_point(self):
        # tokenize runs _TOKEN_RE only on the str.split() chunks that are
        # not all letters. That gives the whole-text tokens because of three
        # facts about every code point:
        chars = "".join(map(chr, range(sys.maxunicode + 1)))
        spaces = "".join(filter(str.isspace, chars))
        letters = "".join(filter(str.isalpha, chars))
        # 1. no token holds whitespace;
        assert re.findall(r"[\w\d.,\-'’]", spaces) == []
        assert _TOKEN_RE.findall(spaces) == []
        # 2. str.split() cuts exactly where \s matches;
        assert "".join(re.findall(r"\s", chars)) == spaces
        assert "x".join(spaces).split() == ["x"] * (len(spaces) - 1)
        # 3. a letter is \w and never \d, so an all-letter chunk is one token.
        assert re.fullmatch(r"\w*", letters)
        assert re.search(r"\d", letters) is None


class TestSplitSentences:
    def test_two_terminals(self):
        assert len(split_sentences("A. B!")) == 2

    def test_no_terminal(self):
        assert len(split_sentences("Hello")) == 1

    def test_abbreviation_does_not_split(self):
        assert len(split_sentences("Dr. Smith arrived late.")) == 1

    def test_decimal_does_not_split(self):
        assert len(split_sentences("It rose 3.5 percent today.")) == 1

    def test_question_and_exclamation(self):
        spans = split_sentences("Really? Yes! Fine.")
        assert len(spans) == 3

    def test_spans_cover_non_whitespace(self):
        text = "One sentence here. Another one!"
        spans = split_sentences(text)
        covered = "".join(text[a:b] for a, b in spans)
        assert covered.replace(" ", "") == text.replace(" ", "")

    def test_empty(self):
        assert split_sentences("") == []

    def test_trailing_quote(self):
        assert len(split_sentences('"Stop!" she said.')) == 2


class TestSyllables:
    @pytest.mark.parametrize(
        "word,expected",
        [("cat", 1), ("banana", 3), ("cake", 1), ("table", 2), ("walked", 1)],
    )
    def test_known_words(self, word, expected):
        assert count_syllables(word) == expected

    def test_non_alphabetic_fallback(self):
        assert count_syllables("1234") == 1
        assert count_syllables("?!") == 1

    def test_lexicon_agreement(self, syllable_lexicon):
        hits = sum(1 for w, c in syllable_lexicon if count_syllables(w) == c)
        assert hits / len(syllable_lexicon) >= 0.97

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_bounds(self, word):
        n = count_syllables(word)
        assert 1 <= n <= len(word)


class TestNgrams:
    def test_bigrams(self):
        assert ngrams(["a", "b", "c"], 2) == Counter(
            {("a", "b"): 1, ("b", "c"): 1}
        )

    def test_repetition_multiplicity(self):
        grams = ngrams(["a", "a", "a"], 1)
        assert grams == Counter({("a",): 3})
        assert len(grams) == 1

    def test_n_longer_than_tokens(self):
        assert ngrams(["a", "b"], 3) == Counter()

    def test_case_folded(self):
        assert ngrams(["The", "THE"], 1) == Counter({("the",): 2})

    @given(words_st, st.integers(min_value=1, max_value=4))
    def test_total_multiplicity(self, tokens, n):
        total = sum(ngrams(tokens, n).values())
        assert total == max(0, len(tokens) - n + 1)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            ngrams(["a"], 0)


class TestSentenceStats:
    def test_counts(self):
        stats = sentence_stats("The cat sat on the mat.")
        assert stats.word_count == 6
        assert stats.sentence_count == 1
        assert stats.syllable_count == 6

    def test_empty(self):
        stats = sentence_stats("")
        assert stats.word_count == 0
        assert stats.sentence_count == 0

    @given(st.text(max_size=200))
    def test_invariants(self, text):
        stats = sentence_stats(text)
        if stats.word_count > 0:
            assert stats.syllable_count >= stats.word_count
        if text.strip():
            assert stats.sentence_count >= 1


class TestArbitraryUnicode:
    # Any code point (surrogates aside), mixed with the characters the
    # sentence splitter and tokenizer treat specially.
    text_st = st.text(
        st.one_of(st.characters(), st.sampled_from(".!?\"')]”’ \t\n\u00a0\u2028-'")),
        max_size=200,
    )

    @settings(max_examples=500)
    @given(text_st)
    def test_primitives_never_raise(self, text):
        tokenize(text)
        spans = split_sentences(text)
        stats = sentence_stats(text)
        # A non-blank text has at least one sentence, so FKGL is defined
        # whenever it has a word.
        assert bool(spans) == bool(normalize(text).strip())
        assert stats.sentence_count == len(spans)


text_st = TestArbitraryUnicode.text_st
case_st = st.sampled_from([str, str.lower, str.upper, str.swapcase, str.title])


class TestAgainstFrozenReference:
    """The linear text layer equals the frozen quadratic one on any text."""

    @settings(max_examples=500)
    @given(text_st)
    @example("a\x1cb\x1dc\x1ed\x1fe\x85f\xa0g\u2028h\u3000i")
    @example("e\u0301te\u0301 caf\u00e9.")
    @example("3abc \u0663.\u0665x 1,200th")
    @example("_ a_b _-_ __init__")
    @example("word- \u2019tis x--y don't- -a")
    @example("q\u0301 a\u203fb \u0915\u093f")
    def test_tokenize(self, text):
        assert tokenize(text) == textcore_ref.tokenize(text)

    @settings(max_examples=500)
    @given(text_st)
    @example("He met Dr\n. Smith today.")
    @example("Go to st\n\n. now.")
    @example("Mr. Smith met Dr. Jones. It cost 3.5 dollars, e.g. lunch. Done!")
    @example("Dr.\n. Next. A_b. etc.\n. end")
    @example("ΟΔΟΣ ΚΑΙ. İstanbul is big. ﬁne words here.")
    def test_split_sentences(self, text):
        assert split_sentences(text) == textcore_ref.split_sentences(text)

    @settings(max_examples=500)
    @given(text_st)
    @example("ΟΔΟΣ ΚΑΙ")
    @example("İstanbul is big")
    @example("ﬁne words here")
    @example("don't -- _ __ a_b state-of-the-art 3.5 …")
    def test_words_of(self, text):
        expected = tuple(textcore_ref.word_tokens(textcore_ref.tokenize(text)))
        assert words_of(text) == expected
        assert word_tokens(tokenize(text)) == list(expected)

    @settings(max_examples=500)
    @given(
        st.one_of(
            st.tuples(text_st, text_st),
            # One side cut from the middle of the other, recased: the
            # containment rule decides these.
            st.tuples(text_st, text_st, text_st, case_st).map(
                lambda t: (f"{t[0]} {t[1]} {t[2]}", t[3](t[1]))
            ),
        ).filter(lambda pair: pair[0] and pair[1]),
        st.integers(0, 3),
    )
    @example(("ΟΔΟΣ ΚΑΙ", "οδος και αλλο"), 1)
    @example(("Σ ΟΔΟΣ ΚΑΙ ΑΛΛΟ", "σ οδοσ και"), 1)
    @example(("İstanbul is big", "we know i̇stanbul is big now"), 1)
    @example(("İstanbul is big", "we know istanbul is big now"), 1)
    @example(("ﬁne words here", "such FINE WORDS HERE"), 1)
    @example(("ﬁne words here", "such ﬁne words here"), 1)
    @example(("!!!", "a b c"), 0)
    def test_filter_pair_reason(self, sides, min_words):
        source, target = sides
        pair = ParaphrasePair(id="p", source=source, target=target)
        cfg = FilterConfig(min_words=min_words, require_similarity=False)
        _, reason = filter_pair(pair, cfg)
        expected = textcore_ref.length_or_containment(source, target, min_words)
        assert (reason.value if reason else None) == expected


@pytest.mark.timing
class TestLinearTime:
    def test_split_sentences_10k_sentences(self):
        sentence = "Dr. Smith paid 3.5 dollars, e.g. to Mr. Jones of St.\nMark's, etc. on time."
        text = " ".join([sentence] * 10_000)
        start = time.perf_counter()
        spans = split_sentences(text)
        elapsed = time.perf_counter() - start
        assert len(spans) == 10_000
        assert elapsed < 1.0

    def test_split_sentences_long_whitespace_runs(self):
        # Each span's start is searched forward from the last boundary, and
        # the tail's from the last one: every whitespace run is walked once.
        text = ("Done." + " \n" * 50) * 10_000 + " " * 1_000_000
        start = time.perf_counter()
        spans = split_sentences(text)
        elapsed = time.perf_counter() - start
        assert len(spans) == 10_000
        assert spans[-1] == (len(text) - 1_000_000 - 105, len(text) - 1_000_100)
        assert elapsed < 1.0

    def test_filter_pair_64k_word_sides(self):
        # A repetitive long side is the worst case for a search that
        # restarts at every offset.
        source = " ".join(["word"] * 64_000 + ["end."])
        target = " ".join(["Word"] * 63_999 + ["other."])
        pair = ParaphrasePair(id="p", source=source, target=target, similarity=0.7)
        start = time.perf_counter()
        _, reason = filter_pair(pair, FilterConfig())
        elapsed = time.perf_counter() - start
        assert reason is None
        assert elapsed < 1.0


class TestDistinctRatio:
    def test_all_distinct(self):
        assert distinct_ratio(["a", "b", "c", "d", "e"], 4) == 1.0

    def test_empty(self):
        assert distinct_ratio([], 4) == 1.0

    def test_repeated(self):
        assert distinct_ratio(["a", "a"], 1) == 0.5

    @pytest.mark.timing
    def test_orders_past_the_text_are_free(self):
        tokens = "the cat sat on the mat and the dog sat on the cat by the mat".split() * 2
        start = time.perf_counter()
        ratio = distinct_ratio(tokens, 5_000)
        elapsed = time.perf_counter() - start
        assert ratio == distinct_ratio(tokens, len(tokens))
        assert elapsed < 0.5
