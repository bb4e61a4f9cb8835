import hashlib
import json
import math
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelforge import textcore
from levelforge.cli import main
from levelforge.corpus import (
    DropReason,
    FilterConfig,
    ParaphrasePair,
    TaskLabel,
    attach_levels,
    bucket,
    build_datasets,
    filter_pair,
    lexical_similarity,
    pair_key,
    split_dataset,
    text_sha256,
)
from levelforge.readability import ComplexityLevel, Scheme, round2
from oracles import textcore_ref


def make_pair(i, source="The cat sat on the mat.", target="A cat was sitting there.", sim=0.7):
    return ParaphrasePair(id=f"p{i:05d}", source=source, target=target, similarity=sim)


def leveled(i, src_level, tgt_level, **kw):
    p = make_pair(i, **kw)
    p.source_level = src_level
    p.target_level = tgt_level
    return p


class TestParaphrasePair:
    def test_empty_side_rejected(self):
        with pytest.raises(ValueError):
            ParaphrasePair(id="x", source="", target="hello there friend")

    def test_similarity_out_of_range(self):
        with pytest.raises(ValueError):
            make_pair(1, sim=1.5)

    def test_mixed_level_schemes_rejected(self):
        with pytest.raises(ValueError):
            ParaphrasePair(
                id="x",
                source="a b c",
                target="d e f",
                source_level=ComplexityLevel.parse(Scheme.CEFR6, "A1"),
                target_level=ComplexityLevel(Scheme.FKGL, 3.0),
            )

    def test_swapped(self):
        p = leveled(1, ComplexityLevel.parse(Scheme.CEFR6, "C1"), ComplexityLevel.parse(Scheme.CEFR6, "A1"))
        s = p.swapped()
        assert (s.source, s.target) == (p.target, p.source)
        assert s.source_level == p.target_level
        assert s.target_level == p.source_level
        assert s.id == p.id
        fields = {name: getattr(p, name)
                  for name in ("id", "source", "target", "similarity", "source_level", "target_level")}
        assert s.swapped() == p and p != fields  # equal only to a pair

    def test_slotted(self):
        # No per-pair dict: a kept pair holds its six fields and nothing else.
        p = make_pair(1)
        assert not hasattr(p, "__dict__")
        with pytest.raises(AttributeError):
            p.note = "x"

    @pytest.mark.parametrize("field, value", [("similarity", 0.71), ("target_level", ComplexityLevel(Scheme.FKGL, 3.1))])
    def test_one_field_apart_is_unequal(self, field, value):
        p, q = (leveled(1, ComplexityLevel(Scheme.FKGL, 5.0), ComplexityLevel(Scheme.FKGL, 3.0)) for _ in range(2))
        assert p == q
        setattr(q, field, value)
        assert p != q and q != p


class TestPairKey:
    def test_stable_and_distinct(self):
        assert pair_key("a", "b") == pair_key("a", "b")
        assert pair_key("a", "b") != pair_key("b", "a")

    def test_nfc_normalized(self):
        # Precomposed vs combining accent must hash identically.
        assert pair_key("café", "x") == pair_key("café", "x")

    def test_separator_prevents_ambiguity(self):
        assert pair_key("ab", "c") != pair_key("a", "bc")

    # Letters, combining marks, Hangul syllables and jamo (which compose across
    # characters), NUL, and any other character.
    COMPOSING = st.one_of(
        st.sampled_from("aeoAE\u00e9\u0300\u0301\u0308\u0327\u0323\u0345"
                        "\u1100\u1161\u11a8\uac00\uac01\x00"),
        st.characters(exclude_categories=("Cs",)),
    )

    @settings(max_examples=500, deadline=None)
    @given(st.text(COMPOSING), st.text(COMPOSING))
    def test_key_is_the_hash_of_each_side_normalized_alone(self, source, target):
        def nfc(text):
            return unicodedata.normalize("NFC", text)

        payload = (nfc(source) + "\x00" + nfc(target)).encode("utf-8")
        assert pair_key(source, target) == hashlib.sha256(payload).hexdigest()

    def test_text_sha256_normalized(self):
        assert text_sha256("café") == text_sha256("café")


class TestFilterPair:
    CFG = FilterConfig()

    def test_kept(self):
        assert filter_pair(make_pair(1), self.CFG) == (True, None)

    def test_too_short(self):
        p = make_pair(1, source="Hello there.", target="Hi there friend of mine.")
        assert filter_pair(p, self.CFG) == (False, DropReason.TOO_SHORT)

    def test_containment(self):
        p = make_pair(
            1,
            source="The cat sat on the mat.",
            target="Yesterday the cat sat on the mat again.",
        )
        assert filter_pair(p, self.CFG) == (False, DropReason.CONTAINMENT)

    def test_containment_ignores_case_and_punct(self):
        p = make_pair(1, source="the CAT sat, on the mat", target="The cat sat on the mat today!")
        assert filter_pair(p, self.CFG) == (False, DropReason.CONTAINMENT)

    def test_similarity_band_inclusive(self):
        assert filter_pair(make_pair(1, sim=0.60), self.CFG)[0]
        assert filter_pair(make_pair(1, sim=0.80), self.CFG)[0]
        assert filter_pair(make_pair(1, sim=0.5999), self.CFG) == (False, DropReason.SIM_LOW)
        assert filter_pair(make_pair(1, sim=0.8001), self.CFG) == (False, DropReason.SIM_HIGH)

    def test_similarity_missing(self):
        p = make_pair(1, sim=None)
        assert filter_pair(p, self.CFG) == (False, DropReason.SIM_MISSING)
        relaxed = FilterConfig(require_similarity=False)
        assert filter_pair(p, relaxed) == (True, None)

    def test_first_failing_rule_wins(self):
        # The similarity rules come first: too short and out of band is SIM_LOW.
        short = {"source": "Hi there.", "target": "Hello my good friend over there."}
        assert filter_pair(make_pair(1, sim=0.1, **short), self.CFG) == (False, DropReason.SIM_LOW)
        # In band, the word rules decide.
        assert filter_pair(make_pair(1, **short), self.CFG) == (False, DropReason.TOO_SHORT)
        contained = {"source": "The cat sat on the mat.",
                     "target": "Yesterday the cat sat on the mat again."}
        assert filter_pair(make_pair(1, **contained), self.CFG) == (False, DropReason.CONTAINMENT)
        # No similarity, none required: the word rules still run.
        relaxed = FilterConfig(require_similarity=False)
        assert filter_pair(make_pair(1, sim=None, **short), relaxed) == (False, DropReason.TOO_SHORT)

    def test_config_validate(self):
        with pytest.raises(ValueError):
            FilterConfig(sim_low=0.9, sim_high=0.5).validate()
        with pytest.raises(ValueError):
            FilterConfig(min_words=0).validate()

    @pytest.mark.parametrize("setting", [{"sim_low": math.nan}, {"sim_high": math.inf},
                                         {"min_words": -math.inf}])
    def test_config_must_be_finite(self, setting):
        # A NaN bound compares false both ways, so it would keep every pair.
        with pytest.raises(TypeError, match="must be a number"):
            FilterConfig(**setting).validate()


# Two vocabularies that share a few words, so that two independent sides
# overlap without one often holding the other.
SOURCE_TEXT, TARGET_TEXT = (
    st.lists(st.sampled_from(words), min_size=1, max_size=6).map(" ".join)
    for words in (["the", "Cat", "sat", "on", "a", "mat", "far", "home"],
                  ["far", "home", "the", "DOG", "ran", "big", "red", "cat"])
)


def failing_rules(pair, cfg):
    """Every filter rule the pair fails, each tested on its own."""
    src, tgt = ([t.lower() for t in textcore_ref.word_tokens(textcore_ref.tokenize(text))]
                for text in (pair.source, pair.target))
    sim = pair.similarity
    checks = {
        DropReason.SIM_MISSING: sim is None and cfg.require_similarity,
        DropReason.SIM_LOW: sim is not None and sim < cfg.sim_low,
        DropReason.SIM_HIGH: sim is not None and sim > cfg.sim_high,
        DropReason.TOO_SHORT: min(len(src), len(tgt)) < cfg.min_words,
        DropReason.CONTAINMENT: textcore_ref.is_token_sublist(src, tgt)
        or textcore_ref.is_token_sublist(tgt, src),
    }
    return {reason for reason, failed in checks.items() if failed}


class TestFilterOrder:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.one_of(
            st.tuples(SOURCE_TEXT, TARGET_TEXT),
            # One side inside the other, with its own case and punctuation: contained.
            st.tuples(SOURCE_TEXT, TARGET_TEXT, SOURCE_TEXT).map(
                lambda t: (f"{t[0]} {t[1]} {t[2]}!", f"{t[1].upper()}.")
            ),
        ),
        st.one_of(st.none(), st.sampled_from([0.6, 0.8, 0.5999, 0.8001]),
                  st.floats(0, 1)),
        st.booleans(),
        st.integers(1, 4),
    )
    def test_kept_set_does_not_depend_on_the_order(self, sides, sim, required, min_words):
        pair = ParaphrasePair(id="p", source=sides[0], target=sides[1], similarity=sim)
        cfg = FilterConfig(min_words=min_words, require_similarity=required)
        keep, reason = filter_pair(pair, cfg)
        failing = failing_rules(pair, cfg)
        assert keep == (not failing)
        if not keep:
            assert reason in failing
        sim_rules = {DropReason.SIM_MISSING, DropReason.SIM_LOW, DropReason.SIM_HIGH}
        if failing & sim_rules:
            assert reason in sim_rules

    def test_out_of_band_pair_is_never_tokenized(self, monkeypatch):
        tokenized = []
        tokenize = textcore.tokenize
        monkeypatch.setattr(textcore, "tokenize",
                            lambda text: tokenized.append(text) or tokenize(text))
        textcore.words_of.cache_clear()
        for sim, reason in ((0.1, DropReason.SIM_LOW), (0.95, DropReason.SIM_HIGH),
                            (None, DropReason.SIM_MISSING)):
            assert filter_pair(make_pair(1, sim=sim), FilterConfig()) == (False, reason)
        assert tokenized == []
        kept = make_pair(2)
        assert filter_pair(kept, FilterConfig()) == (True, None)
        assert tokenized == [kept.source, kept.target]


class TestEachSideTokenizedOnce:
    def test_labeling_reuses_the_filters_words(self, monkeypatch):
        tokenized = []
        tokenize = textcore.tokenize
        monkeypatch.setattr(textcore, "tokenize",
                            lambda text: tokenized.append(text) or tokenize(text))
        textcore.words_of.cache_clear()
        pairs = [make_pair(1), make_pair(2, source="The dog ran far.", target="A dog went away.")]
        # A stream, as in the pipeline: each kept pair is labeled before the
        # next one is filtered.
        kept = (p for p in pairs if filter_pair(p, FilterConfig())[0])
        leveled = [p for p, _ in attach_levels(kept, Scheme.FKGL)]
        assert [p.id for p in leveled] == ["p00001", "p00002"]
        assert tokenized == [pairs[0].source, pairs[0].target, pairs[1].source, pairs[1].target]

    def test_pipeline_labels_each_pair_right_after_filtering_it(self, tmp_path, monkeypatch, capsys):
        tokenized = []
        tokenize = textcore.tokenize
        monkeypatch.setattr(textcore, "tokenize",
                            lambda text: tokenized.append(text) or tokenize(text))
        textcore.words_of.cache_clear()
        # Every third pair is out of band, so the filter drops it before tokenizing.
        pairs = [make_pair(i, source=f"The cat number {i} sat on the mat.",
                           target=f"A cat called {i} was sitting there.", sim=0.9 if i % 3 == 0 else 0.7)
                 for i in range(9)]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": p.id, "source": p.source, "target": p.target,
                                              "similarity": p.similarity}) + "\n" for p in pairs))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output_dir": str(tmp_path / "out")}))
        assert main(["pipeline", "--config", str(config)]) == 0
        assert tokenized == [side for p in pairs if p.similarity == 0.7 for side in (p.source, p.target)]

    def test_shared_words_cannot_be_mutated(self):
        assert isinstance(textcore.words_of("The cat sat."), tuple)


class TestAttachLevels:
    def test_fkgl_computed(self):
        pair, reason = next(iter(attach_levels([make_pair(1)], Scheme.FKGL)))
        assert reason is None
        assert pair.source_level.scheme is Scheme.FKGL
        assert pair.target_level.scheme is Scheme.FKGL

    def test_predictions_by_hash(self):
        p = make_pair(1)
        preds = {
            text_sha256(p.source): ComplexityLevel.parse(Scheme.CEFR6, "B2"),
            text_sha256(p.target): ComplexityLevel.parse(Scheme.CEFR6, "A2"),
        }
        pair, reason = next(iter(attach_levels([p], Scheme.CEFR6, preds)))
        assert reason is None
        assert pair.source_level.label == "B2"
        assert pair.target_level.label == "A2"

    def test_predictions_by_id_fallback(self):
        p = make_pair(1)
        preds = {
            f"{p.id}:source": ComplexityLevel.parse(Scheme.CEFR6, "C1"),
            f"{p.id}:target": ComplexityLevel.parse(Scheme.CEFR6, "A1"),
        }
        pair, reason = next(iter(attach_levels([p], Scheme.CEFR6, preds)))
        assert reason is None
        assert pair.source_level.label == "C1"

    def test_missing_prediction_flagged(self):
        p = make_pair(1)
        preds = {text_sha256(p.source): ComplexityLevel.parse(Scheme.CEFR6, "B2")}
        pair, reason = next(iter(attach_levels([p], Scheme.CEFR6, preds)))
        assert reason is DropReason.LEVEL_MISSING

    def test_fkgl_side_without_words_is_level_missing(self):
        p = make_pair(1, source="... !!!")
        pair, reason = next(iter(attach_levels([p], Scheme.FKGL)))
        assert reason is DropReason.LEVEL_MISSING
        assert pair.source_level is None and pair.target_level is None

    def test_predictions_required_for_cefr(self):
        with pytest.raises(ValueError):
            list(attach_levels([make_pair(1)], Scheme.CEFR6))


class TestBucket:
    def test_cefr_gap_two_is_different_level(self):
        p = leveled(1, ComplexityLevel.parse(Scheme.CEFR6, "B1"), ComplexityLevel.parse(Scheme.CEFR6, "A1"))
        assert bucket(p, Scheme.CEFR6) == (TaskLabel.DOWN, None)

    def test_cefr_gap_one_rejected(self):
        p = leveled(1, ComplexityLevel.parse(Scheme.CEFR6, "B1"), ComplexityLevel.parse(Scheme.CEFR6, "A2"))
        assert bucket(p, Scheme.CEFR6) == (None, DropReason.NEAR_LEVEL)

    def test_cefr_same(self):
        p = leveled(1, ComplexityLevel.parse(Scheme.CEFR6, "B1"), ComplexityLevel.parse(Scheme.CEFR6, "B1"))
        assert bucket(p, Scheme.CEFR6) == (TaskLabel.SAME, None)

    def test_fkgl_any_difference_counts(self):
        p = leveled(1, ComplexityLevel(Scheme.FKGL, 5.01), ComplexityLevel(Scheme.FKGL, 5.02))
        assert bucket(p, Scheme.FKGL) == (TaskLabel.UP, None)

    def test_fkgl_exact_tie_is_same(self):
        p = leveled(1, ComplexityLevel(Scheme.FKGL, 5.01), ComplexityLevel(Scheme.FKGL, 5.01))
        assert bucket(p, Scheme.FKGL) == (TaskLabel.SAME, None)

    def test_newsela_direction(self):
        # Newsela 0 is the complex original; 0 -> 3 is a simplification.
        p = leveled(1, ComplexityLevel(Scheme.NEWSELA, 0), ComplexityLevel(Scheme.NEWSELA, 3))
        assert bucket(p, Scheme.NEWSELA) == (TaskLabel.DOWN, None)

    def test_levels_required(self):
        with pytest.raises(ValueError):
            bucket(make_pair(1), Scheme.FKGL)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False))
    @example(2.675, 1.005)
    @example(2.675, 2.665)
    @example(1.005, -0.125)
    @example(-0.125, -0.125)
    @example(1e308, -1e308)
    @example(-1e308, 1e308)
    @example(5e-324, 0.0)
    @example(5e-324, -5e-324)
    def test_fkgl_task_as_if_the_difference_were_rounded(self, a, b):
        # The reference rounds the difference of the two rounded levels half-up
        # to 2 decimals when it is finite; bucket reads it unrounded.
        source, target = ComplexityLevel(Scheme.FKGL, a), ComplexityLevel(Scheme.FKGL, b)
        delta = source.value - target.value
        if math.isfinite(delta):
            delta = round2(delta)
        task = TaskLabel.SAME if delta == 0 else TaskLabel.DOWN if delta > 0 else TaskLabel.UP
        assert bucket(leveled(1, source, target), Scheme.FKGL) == (task, None)


def synthetic_pool(n_diff=40, n_same=30):
    pairs = []
    for i in range(n_diff):
        c1, a1 = ComplexityLevel.parse(Scheme.CEFR6, "C1"), ComplexityLevel.parse(Scheme.CEFR6, "A1")
        src, tgt = (c1, a1) if i % 2 == 0 else (a1, c1)
        pairs.append(leveled(i, src, tgt))
    for i in range(n_same):
        lvl = ComplexityLevel.parse(Scheme.CEFR6, "B1")
        pairs.append(leveled(1000 + i, lvl, lvl))
    return pairs


def bucketed(pairs):
    """The bucket stage's kept items: each pair with its CEFR6 task label."""
    return [(p, label) for p in pairs if (label := bucket(p, Scheme.CEFR6)[0]) is not None]


class TestBuildDatasets:
    def test_shapes_and_orientation(self):
        datasets, stats = build_datasets(bucketed(synthetic_pool()), seed=7)
        size = stats["task_size"]
        assert size == 20
        assert all(len(datasets[t]) == size for t in TaskLabel)
        for p in datasets[TaskLabel.DOWN]:
            assert p.source_level.complexity_rank > p.target_level.complexity_rank
        for p in datasets[TaskLabel.UP]:
            assert p.source_level.complexity_rank < p.target_level.complexity_rank
        for p in datasets[TaskLabel.SAME]:
            assert p.source_level == p.target_level

    def test_down_and_up_are_disjoint(self):
        datasets, _ = build_datasets(bucketed(synthetic_pool()), seed=7)
        down_ids = {p.id for p in datasets[TaskLabel.DOWN]}
        up_ids = {p.id for p in datasets[TaskLabel.UP]}
        assert not down_ids & up_ids

    def test_deterministic_and_seed_sensitive(self):
        a, _ = build_datasets(bucketed(synthetic_pool()), seed=7)
        b, _ = build_datasets(bucketed(synthetic_pool()), seed=7)
        c, _ = build_datasets(bucketed(synthetic_pool()), seed=8)
        ids = lambda d: [[p.id for p in d[t]] for t in TaskLabel]
        assert ids(a) == ids(b)
        assert ids(a) != ids(c)

    def test_input_order_irrelevant(self):
        pool = synthetic_pool()
        a, _ = build_datasets(bucketed(pool), seed=7)
        b, _ = build_datasets(bucketed(reversed(pool)), seed=7)
        assert [[p.id for p in a[t]] for t in TaskLabel] == [
            [p.id for p in b[t]] for t in TaskLabel
        ]

    def test_explicit_task_size_too_big(self):
        with pytest.raises(ValueError):
            build_datasets(bucketed(synthetic_pool(n_diff=4, n_same=10)), seed=1, task_size=3)

    def test_explicit_task_size_exceeds_same_pool(self):
        with pytest.raises(ValueError) as exc:
            build_datasets(bucketed(synthetic_pool(n_diff=10, n_same=2)), seed=1, task_size=3)
        assert str(exc.value) == "need 3 same-level pairs, have 2"


class TestSplitDataset:
    def test_ratios_and_coverage(self):
        data = [make_pair(i) for i in range(100)]
        splits = split_dataset(data, seed=3)
        assert len(splits["train"]) == 80
        assert len(splits["valid"]) == 10
        assert len(splits["test"]) == 10
        all_ids = sorted(p.id for part in splits.values() for p in part)
        assert all_ids == sorted(p.id for p in data)

    def test_remainder_goes_to_train(self):
        data = [make_pair(i) for i in range(7)]
        splits = split_dataset(data, seed=3)
        # floor(0.7) = 0 for both non-train splits.
        assert (len(splits["train"]), len(splits["valid"]), len(splits["test"])) == (7, 0, 0)

    def test_bad_ratios(self):
        with pytest.raises(ValueError):
            split_dataset([make_pair(1)], ratios=(0.5, 0.3, 0.3))
        with pytest.raises(ValueError):
            split_dataset([make_pair(1)], ratios=(1.2, -0.1, -0.1))

    def test_floor_of_the_decimal_share(self):
        # 100 * 0.29 is 28.999999999999996 in floats; the share as written is 29.
        splits = split_dataset([make_pair(i) for i in range(100)], ratios=(0.42, 0.29, 0.29))
        assert {k: len(v) for k, v in splits.items()} == {"train": 42, "valid": 29, "test": 29}

    @given(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=1000),
           st.integers(min_value=0, max_value=300))
    @settings(max_examples=200, deadline=None)
    @example(290, 290, 100)
    def test_floor_of_decimal_shares_property(self, valid, test, n):
        # Ratios with at most 3 decimal places: each non-train split holds
        # exactly floor(n * share) items.
        test = min(test, 1000 - valid)
        ratios = ((1000 - valid - test) / 1000, valid / 1000, test / 1000)
        splits = split_dataset([make_pair(i) for i in range(n)], ratios=ratios)
        assert len(splits["valid"]) == n * valid // 1000
        assert len(splits["test"]) == n * test // 1000
        assert sum(map(len, splits.values())) == n

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=50, deadline=None)
    def test_disjoint_cover_property(self, n, seed):
        data = [make_pair(i) for i in range(n)]
        splits = split_dataset(data, seed=seed)
        ids = [p.id for part in ("train", "valid", "test") for p in splits[part]]
        assert sorted(ids) == sorted(p.id for p in data)
        assert len(set(ids)) == len(ids)


class TestLexicalSimilarity:
    def test_identical_is_one(self):
        assert lexical_similarity("the cat sat", "the cat sat") == pytest.approx(1.0)

    def test_disjoint_is_zero(self):
        assert lexical_similarity("aaaa", "zzzz") == 0.0

    def test_symmetric(self):
        a, b = "the cat sat on the mat", "a cat was sitting there"
        assert lexical_similarity(a, b) == pytest.approx(lexical_similarity(b, a))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lexical_similarity("", "abc")

    @given(
        st.text(alphabet="abcdefg ", min_size=1, max_size=40),
        st.text(alphabet="abcdefg ", min_size=1, max_size=40),
    )
    @settings(max_examples=50, deadline=None)
    def test_range(self, a, b):
        assert 0.0 <= lexical_similarity(a, b) <= 1.0
