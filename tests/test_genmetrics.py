import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge import genmetrics
from levelforge.genmetrics import (
    EvalInstance,
    copy_rate,
    corpus_sari,
    repetition_score,
    sari,
    sari_r,
    score_report,
)
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


# Few forms, so grams repeat; "The"/"the" fold together, and NFD marks, a
# precomposed twin and "İ" (which lowercases to two code points) test folding.
FROZEN_VOCAB = (
    "the", "The", "cat", "sat", "on", "mat", "a", "big", "dog", "ran", ".", ",",
    "Cafe\u0301", "café", "İstanbul", "re\u0301sume\u0301",
)


def frozen_sari_instances(count=300, seed=2023):
    """Seeded instances: copies, empty, one-token and looped outputs, 1-8 references."""
    rng = random.Random(seed)

    def text(low, high):
        return " ".join(rng.choice(FROZEN_VOCAB) for _ in range(rng.randint(low, high)))

    instances = []
    for k in range(count):
        source = text(1, 20)
        kind = k % 8
        if kind == 0:
            output = source
        elif kind == 1:
            output = ""
        elif kind == 2:
            output = rng.choice(FROZEN_VOCAB)
        elif kind == 3:
            output = " ".join([text(1, 4)] * rng.randint(2, 6))
        else:
            output = text(0, 20)
        refs = [source if rng.random() < 0.1 else text(0, 20) for _ in range(rng.randint(1, 8))]
        instances.append(instance(source, output, refs))
    return instances


class TestFrozenSari:
    # SHA-256 of every breakdown and sari_r value of frozen_sari_instances():
    # a changed bit of any float changes it. Only a declared change of SARI's
    # values may update it.
    DIGEST = "b1ced35c1437b4d5286e9e305384ffff97aefa6111b8bcc03a7eb34bc4074ef6"

    def test_bits_are_frozen(self):
        digest = hashlib.sha256()
        for inst in frozen_sari_instances():
            digest.update(f"{sari(inst)!r} {sari_r(inst)!r}\n".encode("utf-8"))
        assert digest.hexdigest() == self.DIGEST

    def test_bits_do_not_follow_sum(self, monkeypatch):
        # From Python 3.12 on, sum() of floats compensates its rounding error;
        # math.fsum, which rounds once, stands in for it on any version.
        monkeypatch.setattr(genmetrics, "sum", math.fsum, raising=False)
        self.test_bits_are_frozen()


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
