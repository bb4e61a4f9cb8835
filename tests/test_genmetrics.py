import copy
import gc
import math
import pickle
import tracemalloc
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge.genmetrics import (
    EvalInstance,
    _folded_tokens,
    copy_rate,
    corpus_sari,
    is_copy,
    repetition_score,
    sari,
    sari_r,
    score_report,
)
from levelforge.textcore import distinct_ratio
from oracles.sari_ref import SARIsent

DEGENERATE = "the capital of the state is the capital of the state of the state of"

words_st = st.lists(
    st.sampled_from(["the", "cat", "sat", "on", "mat", "dog", "ran", "big"]),
    min_size=1,
    max_size=12,
)


# Few word forms, so n-grams repeat within and across texts; mixed case
# exercises case folding.
oracle_words_st = st.lists(
    st.sampled_from(["the", "The", "cat", "sat", "on", "mat", "a", "A", "big"]),
    min_size=1,
    max_size=14,
)


def instance(source, output, refs):
    return EvalInstance(source=source, output=output, references=tuple(refs))


# Case variants, and pieces whose lowercasing is not one ASCII letter per letter: dotted capital I,
# sharp s, final and medial sigma, composed and decomposed accents; and punctuation alone.
folding_text_st = st.tuples(
    st.lists(st.sampled_from(["the", "The", "THE", "İ", "i\u0307", "I", "ß", "SS", "ss", "ΟΔΟΣ", "οδος",
                              "Σ", "σ", "ς", "é", "e\u0301", "É", "E\u0301", ".", "!?", "...", ",", "—"]),
             max_size=8),
    st.sampled_from([" ", ""]),
).map(lambda parts: parts[1].join(parts[0]))


@st.composite
def source_and_output(draw):
    """A source and an output that is often a case or normal-form variant of it, or empty."""
    source = draw(folding_text_st)
    variant = draw(st.sampled_from([
        str.upper, str.lower, str.swapcase, str.title, str.casefold,
        lambda s: unicodedata.normalize("NFD", s), lambda s: unicodedata.normalize("NFC", s),
        lambda s: "", None,
    ]))
    return source, draw(folding_text_st) if variant is None else variant(source)


class TestEvalInstance:
    def test_requires_reference(self):
        with pytest.raises(ValueError):
            EvalInstance(source="a b c", output="a b", references=())

    @pytest.mark.parametrize("source, output, references, message", [
        (5, "a", ("r",), '"source" must be a string, got int'),
        ("a", None, ("r",), '"output" must be a string, got NoneType'),
        ("a b", "a", "abc", '"references" must be a non-empty list of strings'),  # not three references
        ("a b", "a", [], '"references" must be a non-empty list of strings'),
        ("a b", "a", ["r", 5], '"references" must be a non-empty list of strings'),
    ])
    def test_rejects(self, source, output, references, message):
        with pytest.raises(ValueError) as info:
            EvalInstance(source, output, references)
        assert str(info.value) == message

    def test_list_references_become_a_tuple(self):
        assert EvalInstance("a b", "a", ["a", "b"]).references == ("a", "b")

    def test_scoring_sets_no_field(self):
        # Every field, derived ones too, is set in __init__: the report and the per-instance rows only read.
        insts = [instance("The cat sat on the mat.", "The cat sat.", ["The cat sat.", "A cat sat."]),
                 instance("He went home.", "He went home.", ["He left."])]
        built = [dict(vars(inst)) for inst in insts]
        score_report(insts)
        for inst in insts:
            sari(inst), sari_r(inst), sari_r(inst, 2), is_copy(inst)
        assert [vars(inst) for inst in insts] == built

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda inst: pickle.loads(pickle.dumps(inst))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copy_keeps_its_sari(self, clone):
        inst = instance("The cat sat on the mat.", "The cat sat.", ["The cat sat."])
        twin = clone(inst)
        assert vars(twin) == vars(inst)
        assert sari(twin) == sari(inst) and sari_r(twin) == sari_r(inst)

    def test_keeps_no_token_list(self):
        # An instance keeps its fields, its SARI breakdown, its copy flag and a tuple of its output's
        # tokens, interned, so the token strings are shared: ~400 B here. A list of the source's or
        # the output's tokens kept besides, or tokens not interned, take it past 650 B.
        words = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "away", "big", "red"]
        n = 300
        texts = [(f"The {words[i % 12]} cat sat on the {words[i * 5 % 12]} mat.",
                  f"The {words[i * 7 % 12]} cat sat.",
                  (f"A {words[i * 3 % 12]} cat sat.", "The cat sat on a mat."))
                 for i in range(n)]
        EvalInstance(" ".join(words) + " .", " ".join(words) + " .", ("x",))  # interns every token
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            insts = [EvalInstance(*text) for text in texts]
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(insts) == n
        assert retained <= 500 * n

    @given(source_and_output(), st.lists(folding_text_st, min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_copy_flag_and_sari_r_follow_the_folded_tokens(self, texts, refs):
        source, output = texts
        inst = EvalInstance(source, output, refs)
        assert is_copy(inst) == (_folded_tokens(output) == _folded_tokens(source))
        for n in range(1, 7):
            assert sari_r(inst, n) == sari(inst).sari * distinct_ratio(_folded_tokens(output), n, min_n=n)


class TestSari:
    def test_fixture_suite(self, sari_fixture):
        for row in sari_fixture:
            got = sari(instance(row["source"], row["output"], row["references"])).sari
            assert math.isclose(got, row["sari"], abs_tol=1e-6), row["output"]

    def test_breakdown_mean_of_components(self):
        b = sari(instance("The cat sat on the mat.", "The cat sat.", ["The cat sat."]))
        assert b.sari == pytest.approx((b.add_score + b.keep_score + b.del_score) / 3)

    def test_good_deletion_beats_bad_deletion(self):
        src = "The cat sat on the mat."
        refs = ["The cat sat."]
        good = sari(instance(src, "The cat sat.", refs)).sari
        bad = sari(instance(src, "On the mat.", refs)).sari
        assert good > bad

    @given(words_st, words_st, words_st)
    @settings(max_examples=50, deadline=None)
    def test_range(self, src, out, ref):
        s = sari(instance(" ".join(src), " ".join(out), [" ".join(ref)])).sari
        assert 0.0 <= s <= 100.0

    @given(oracle_words_st, oracle_words_st, st.lists(oracle_words_st, min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, src, out, refs):
        src, out, refs = " ".join(src), " ".join(out), [" ".join(r) for r in refs]
        got = sari(instance(src, out, refs)).sari
        assert got == pytest.approx(SARIsent(src, out, refs), abs=1e-9)

    def test_reference_order_irrelevant(self):
        src = "The old bridge crosses a narrow river."
        out = "The bridge crosses a river."
        refs = ["The bridge crosses a river.", "A bridge crosses the river."]
        assert sari(instance(src, out, refs)).sari == pytest.approx(
            sari(instance(src, out, list(reversed(refs)))).sari
        )


class TestCorpusSari:
    def test_mean_of_instances(self):
        a = instance("The cat sat on the mat.", "The cat sat.", ["The cat sat."])
        b = instance("He went home.", "He went home quickly.", ["He went home quickly."])
        expected = (sari(a).sari + sari(b).sari) / 2
        assert corpus_sari([a, b]) == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_sari([])


class TestCopyRate:
    def test_mixed(self):
        insts = [
            instance("The cat sat.", "The cat sat.", ["A cat sat."]),
            instance("The cat sat.", "the CAT sat .", ["A cat sat."]),
            instance("The cat sat.", "A cat sat.", ["A cat sat."]),
            instance("He went home.", "He walked home.", ["He walked home."]),
        ]
        # Copy detection is on case-folded tokens, so the first two count.
        assert copy_rate(insts) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            copy_rate([])


class TestRepetitionScore:
    def test_degenerate_example_flagged(self):
        assert repetition_score(DEGENERATE, n=4) > 0.4

    def test_clean_text_scores_low(self):
        clean = "She bought fresh bread at the market yesterday morning."
        assert repetition_score(clean, n=4) < repetition_score(DEGENERATE, n=4)

    def test_all_distinct_tokens(self):
        assert repetition_score("one two three four five six", n=4) == 0.0

    def test_empty_and_single_token(self):
        assert repetition_score("", n=4) == 0.0
        assert repetition_score("word", n=4) == 0.0

    def test_pure_loop_near_one(self):
        looped = " ".join(["again"] * 40)
        assert repetition_score(looped, n=4) > 0.9

    @given(st.text(max_size=120))
    @settings(max_examples=50, deadline=None)
    def test_range(self, text):
        assert 0.0 <= repetition_score(text, n=4) <= 1.0


class TestSariR:
    def test_penalizes_degenerate_output(self):
        inst = instance(
            "The state capital is Aracaju.",
            DEGENERATE,
            ["The state capital is Aracaju.", "Aracaju is the state capital."],
        )
        assert sari_r(inst) < sari(inst).sari

    def test_equals_sari_when_repetition_free(self):
        inst = instance(
            "The cat sat on the mat.",
            "The cat sat.",
            ["The cat sat.", "A cat sat."],
        )
        assert sari_r(inst) == pytest.approx(sari(inst).sari)

    def test_equals_sari_on_short_output(self):
        # Fewer than n tokens: no n-grams to repeat, multiplier is neutral.
        inst = instance("The cat sat on the mat.", "Cat sat.", ["The cat sat."])
        assert sari_r(inst) == pytest.approx(sari(inst).sari)

    @given(words_st, words_st, words_st)
    @settings(max_examples=50, deadline=None)
    def test_never_exceeds_sari(self, src, out, ref):
        inst = instance(" ".join(src), " ".join(out), [" ".join(ref)])
        assert sari_r(inst) <= sari(inst).sari + 1e-12


class TestScoreReport:
    def test_keys_and_consistency(self):
        insts = [
            instance("The cat sat on the mat.", "The cat sat.", ["The cat sat."]),
            instance("He went home.", "He went home quickly.", ["He went home quickly."]),
        ]
        report = score_report(insts)
        assert report["instances"] == 2
        assert report["sari"] == pytest.approx(corpus_sari(insts))
        assert report["sari_r"] <= report["sari"] + 1e-12
        assert report["copy_rate"] == 0.0
        assert report["fkgl"] is not None
        assert report["fkgl_convention"] == "corpus-pooled counts"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            score_report([])
