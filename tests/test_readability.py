import copy
import math
import operator
import pickle
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation

import pytest
from hypothesis import given
from hypothesis import strategies as st

from levelforge import readability
from levelforge.readability import (
    ComplexityLevel,
    Scheme,
    SchemeMismatchError,
    cefr6_to_cefr3,
    corpus_fkgl,
    fkgl,
    fkgl_from_counts,
    level_delta,
    level_of,
    round2,
)


class TestFkglFromCounts:
    def test_floor(self):
        assert math.isclose(fkgl_from_counts(1, 1, 1), -3.40, abs_tol=1e-9)

    def test_direct_substitution(self):
        # 0.39*10 + 11.8*1 - 15.59 = 0.11
        assert math.isclose(fkgl_from_counts(10, 1, 10), 0.11, abs_tol=1e-9)

    def test_zero_words_rejected(self):
        with pytest.raises(ValueError):
            fkgl_from_counts(0, 1, 0)

    def test_zero_sentences_rejected(self):
        with pytest.raises(ValueError):
            fkgl_from_counts(5, 0, 5)

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=20),
    )
    def test_monotone_in_syllables(self, words, sents):
        lo = fkgl_from_counts(words, sents, words)
        hi = fkgl_from_counts(words, sents, 2 * words)
        assert hi > lo


class TestFkglText:
    def test_fixture_suite(self, fkgl_fixture):
        for row in fkgl_fixture:
            assert math.isclose(fkgl(row["text"]), row["fkgl"], abs_tol=1e-6), row["text"]

    def test_simple_sentence(self):
        # "I am here.": 3 words, 1 sentence, 3 syllables -> -2.62
        assert round2(fkgl("I am here.")) == -2.62

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fkgl("")


class TestCorpusFkgl:
    def test_pooled_not_averaged(self):
        texts = ["I am here.", "Photosynthesis converts sunlight into chemical energy."]
        pooled = corpus_fkgl(texts)
        mean_of = (fkgl(texts[0]) + fkgl(texts[1])) / 2
        assert pooled != pytest.approx(mean_of)

    def test_single_text_matches_fkgl(self):
        text = "The cat sat on the mat."
        assert corpus_fkgl([text]) == pytest.approx(fkgl(text))

    def test_concat_invariance(self):
        # Pooling two texts equals scoring them as one document when
        # sentence boundaries are preserved.
        a, b = "The cat sat on the mat.", "Dogs bark loudly at night."
        assert corpus_fkgl([a, b]) == pytest.approx(fkgl(a + " " + b))

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="FKGL undefined for word_count=0, sentence_count=0"):
            corpus_fkgl([])


class TestComplexityLevel:
    def test_cefr6_labels_roundtrip(self):
        for label in ("A1", "A2", "B1", "B2", "C1", "C2"):
            assert ComplexityLevel.parse(Scheme.CEFR6, label).label == label

    def test_cefr6_rank_order(self):
        labels = ("A1", "A2", "B1", "B2", "C1", "C2")
        ranks = [ComplexityLevel.parse(Scheme.CEFR6, l).complexity_rank for l in labels]
        assert ranks == sorted(ranks)

    def test_newsela_rank_inverted(self):
        # Newsela 0 is the complex original, 4 the simplest rewrite.
        assert (
            ComplexityLevel(Scheme.NEWSELA, 0).complexity_rank
            > ComplexityLevel(Scheme.NEWSELA, 4).complexity_rank
        )

    def test_fkgl_value_rounded(self):
        assert ComplexityLevel(Scheme.FKGL, 3.14159).value == 3.14
        assert ComplexityLevel(Scheme.FKGL, 2.675).value == 2.68
        assert repr(ComplexityLevel(Scheme.FKGL, 7.254)) == "ComplexityLevel(scheme=<Scheme.FKGL: 'fkgl'>, value=7.25)"

    def test_slotted(self):
        level = ComplexityLevel(Scheme.FKGL, 1.5)
        assert not hasattr(level, "__dict__")
        with pytest.raises(AttributeError):
            level.value = 2.0

    @pytest.mark.parametrize("level", [ComplexityLevel(Scheme.FKGL, -0.001), ComplexityLevel(Scheme.NEWSELA, 4)])
    def test_copy_and_pickle(self, level):
        for twin in (copy.copy(level), copy.deepcopy(level), pickle.loads(pickle.dumps(level))):
            assert twin == level and twin.label == level.label

    def test_invalid_cefr6(self):
        with pytest.raises(ValueError):
            ComplexityLevel(Scheme.CEFR6, 6)

    def test_invalid_newsela(self):
        with pytest.raises(ValueError):
            ComplexityLevel(Scheme.NEWSELA, 5)

    @pytest.mark.parametrize(
        "scheme, value",
        [
            (Scheme.FKGL, math.nan),
            (Scheme.FKGL, math.inf),
            (Scheme.FKGL, -math.inf),
            (Scheme.FKGL, True),      # a bool is not a number
            (Scheme.FKGL, "7.25"),    # a label: ComplexityLevel.parse converts it
            pytest.param(Scheme.FKGL, 10**400, id="fkgl-int-past-the-float-range"),
            (Scheme.CEFR6, True),     # not A2
            (Scheme.CEFR6, 1.0),      # an index is an int
            (Scheme.CEFR6, "A1"),
            (Scheme.NEWSELA, -1),
            pytest.param("fkgl", 7.5, id="scheme-a-str-fkgl"),    # not a Scheme member
            pytest.param("cefr6", 2, id="scheme-a-str-cefr6"),
        ],
    )
    def test_constructor_rejects(self, scheme, value):
        with pytest.raises(ValueError):
            ComplexityLevel(scheme, value)

    def test_parse(self):
        assert ComplexityLevel.parse(Scheme.CEFR6, "b2").label == "B2"
        assert ComplexityLevel.parse(Scheme.NEWSELA, "3").value == 3
        assert ComplexityLevel.parse(Scheme.FKGL, "7.125").value == 7.13
        assert ComplexityLevel.parse(Scheme.NEWSELA, 3) == ComplexityLevel(Scheme.NEWSELA, 3)
        assert ComplexityLevel.parse(Scheme.CEFR3, "c").label == "C"

    @pytest.mark.parametrize(
        "scheme, raw",
        [
            (Scheme.CEFR6, "Z9"),   # unknown label
            (Scheme.CEFR6, None),   # wrong type
            (Scheme.CEFR3, "A1"),   # a label of another scheme
            (Scheme.NEWSELA, 5),    # out of range
            (Scheme.NEWSELA, 2.5),  # not a label
            (Scheme.FKGL, "x"),     # not a number
            (Scheme.FKGL, "nan"),   # not finite
            (Scheme.FKGL, True),    # a bool is not a number
            (Scheme.FKGL, [7]),     # wrong type
            pytest.param(Scheme.FKGL, 10**400, id="fkgl-int-past-the-float-range"),
        ],
    )
    def test_parse_rejects(self, scheme, raw):
        with pytest.raises(ValueError) as info:
            ComplexityLevel.parse(scheme, raw)
        assert str(info.value) == f"bad {scheme.value} level {raw!r}"

    @pytest.mark.parametrize(
        "scheme, labels",
        [(Scheme.CEFR6, "A1 A2 B1 B2 C1 C2"), (Scheme.CEFR3, "A B C"), (Scheme.NEWSELA, "0 1 2 3 4")],
    )
    def test_labels_round_trip(self, scheme, labels):
        for index, label in enumerate(labels.split()):
            level = ComplexityLevel.parse(scheme, label)
            assert (level.value, level.label) == (index, label)
        with pytest.raises(ValueError):
            ComplexityLevel(scheme, index + 1)

    @pytest.mark.parametrize("a, b", [
        (ComplexityLevel(Scheme.FKGL, 7.125), ComplexityLevel(Scheme.FKGL, 7.13)),  # equal once rounded
        (ComplexityLevel(Scheme.CEFR6, 3), ComplexityLevel.parse(Scheme.CEFR6, "b2")),
        (ComplexityLevel(Scheme.NEWSELA, 0), ComplexityLevel.parse(Scheme.NEWSELA, "0")),
    ])
    def test_equal_levels_are_equal_and_hash_alike(self, a, b):
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: "x"}[b] == "x"

    @pytest.mark.parametrize("a, b", [
        (ComplexityLevel(Scheme.CEFR6, 3), ComplexityLevel(Scheme.CEFR6, 2)),
        (ComplexityLevel(Scheme.CEFR3, 1), ComplexityLevel(Scheme.CEFR6, 1)),  # same index, other scheme
    ])
    def test_other_levels_differ(self, a, b):
        assert a != b and not a == b

    @pytest.mark.parametrize("level", [ComplexityLevel(Scheme.FKGL, 7.5), ComplexityLevel(Scheme.CEFR6, 2)])
    def test_a_level_is_not_its_tuple(self, level):
        assert level != (level.scheme, level.value)
        assert (level.scheme, level.value) != level

    @pytest.mark.parametrize("compare", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_levels_have_no_order(self, compare):
        with pytest.raises(TypeError):
            compare(ComplexityLevel(Scheme.CEFR6, 1), ComplexityLevel(Scheme.CEFR6, 2))


class TestLevelOf:
    def test_fkgl_computed(self):
        level = level_of("I am here.")
        assert level.scheme is Scheme.FKGL
        assert level.value == -2.62

    def test_same_counts_share_one_level(self):
        # Same words, sentences and syllables, so the same raw FKGL value and one level object.
        assert level_of("The cat sat.") is level_of("A dog ran.")

    @pytest.mark.parametrize("order", [("neg", "zero"), ("zero", "neg")])
    def test_raw_values_keep_their_labels(self, monkeypatch, order):
        # -0.004 rounds to -0.0, which equals 0.0: one level, so one label, whichever value comes first.
        raw = {"neg": -0.004, "zero": 0.0}
        monkeypatch.setattr(readability, "fkgl", raw.__getitem__)
        readability._fkgl_level.cache_clear()
        labels = {text: level_of(text).label for text in order}
        assert labels == {"neg": "0.00", "zero": "0.00"}
        assert ComplexityLevel.parse(Scheme.FKGL, "-0.00").label == "0.00"

    def test_table_is_bounded(self):
        maxsize = readability._fkgl_level.cache_info().maxsize
        assert maxsize is not None and maxsize <= 1 << 16

    def test_parse_and_other_schemes_skip_the_table(self):
        before = readability._fkgl_level.cache_info()
        levels = [ComplexityLevel.parse(Scheme.FKGL, "2.675"), ComplexityLevel.parse(Scheme.CEFR6, "b2"),
                  ComplexityLevel.parse(Scheme.NEWSELA, 3), cefr6_to_cefr3(ComplexityLevel(Scheme.CEFR6, 3))]
        assert [level.label for level in levels] == ["2.68", "B2", "3", "B"]
        assert ComplexityLevel.parse(Scheme.FKGL, "2.675") is not levels[0]
        assert readability._fkgl_level.cache_info() == before


class TestCefr6ToCefr3:
    def test_collapse(self):
        assert cefr6_to_cefr3(ComplexityLevel.parse(Scheme.CEFR6, "A1")).label == "A"
        assert cefr6_to_cefr3(ComplexityLevel.parse(Scheme.CEFR6, "A2")).label == "A"
        assert cefr6_to_cefr3(ComplexityLevel.parse(Scheme.CEFR6, "B1")).label == "B"
        assert cefr6_to_cefr3(ComplexityLevel.parse(Scheme.CEFR6, "B2")).label == "B"
        assert cefr6_to_cefr3(ComplexityLevel.parse(Scheme.CEFR6, "C1")).label == "C"
        assert cefr6_to_cefr3(ComplexityLevel.parse(Scheme.CEFR6, "C2")).label == "C"

    def test_wrong_scheme(self):
        with pytest.raises(SchemeMismatchError):
            cefr6_to_cefr3(ComplexityLevel.parse(Scheme.CEFR3, "A"))

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    def test_order_preserving(self, i, j):
        a = cefr6_to_cefr3(ComplexityLevel(Scheme.CEFR6, i))
        b = cefr6_to_cefr3(ComplexityLevel(Scheme.CEFR6, j))
        if i <= j:
            assert a.value <= b.value


class TestLevelDelta:
    def test_cefr6_example(self):
        # A1 vs B1: two levels apart, A1 simpler.
        a1, b1 = ComplexityLevel.parse(Scheme.CEFR6, "A1"), ComplexityLevel.parse(Scheme.CEFR6, "B1")
        assert level_delta(a1, b1) == -2

    def test_newsela_direction(self):
        # Newsela 0 is more complex than Newsela 4.
        assert level_delta(ComplexityLevel(Scheme.NEWSELA, 0), ComplexityLevel(Scheme.NEWSELA, 4)) == 4

    def test_fkgl(self):
        d = level_delta(ComplexityLevel(Scheme.FKGL, 8.50), ComplexityLevel(Scheme.FKGL, 3.25))
        assert d == 5.25

    def test_fkgl_difference_past_the_float_range(self):
        top, bottom = ComplexityLevel(Scheme.FKGL, 1e308), ComplexityLevel(Scheme.FKGL, -1e308)
        assert level_delta(top, bottom) == math.inf
        assert level_delta(bottom, top) == -math.inf

    def test_scheme_mismatch(self):
        with pytest.raises(SchemeMismatchError):
            level_delta(ComplexityLevel.parse(Scheme.CEFR6, "A1"), ComplexityLevel.parse(Scheme.CEFR3, "A"))

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    def test_antisymmetry(self, i, j):
        a = ComplexityLevel(Scheme.CEFR6, i)
        b = ComplexityLevel(Scheme.CEFR6, j)
        assert level_delta(a, b) == -level_delta(b, a)


class TestRound2:
    def test_half_up(self):
        assert round2(2.675) == 2.68
        assert round2(2.665) == 2.67
        assert round2(-2.675) == -2.68

    def test_already_rounded(self):
        assert round2(1.5) == 1.5

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_float(self, value):
        # Decimal's default context has 28 digits, so it fails from 1e26 up;
        # wherever it succeeds, round2 agrees with it.
        try:
            expected = float(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))
        except InvalidOperation:
            expected = None
        got = round2(value)
        assert got == expected or (expected is None and abs(value) >= 1e26 and got == value)
