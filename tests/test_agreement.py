import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge.agreement import (
    UNRESOLVED,
    LabeledPrediction,
    RatingMatrix,
    UndefinedAlphaError,
    adjacent_accuracy,
    format_likert_table,
    krippendorff_alpha,
    likert_report,
    mae,
    majority_gold,
    weighted_f1,
)
from levelforge.readability import ComplexityLevel, Scheme

from oracles.alpha_ref import alpha as alpha_ref


def pred(gold, predicted):
    return LabeledPrediction(
        gold=ComplexityLevel.parse(Scheme.CEFR6, gold),
        predicted=ComplexityLevel.parse(Scheme.CEFR6, predicted),
    )


def matrix_from(rows):
    m = RatingMatrix()
    for rater, item, value in rows:
        m.add(rater, item, value)
    return m


class TestRejectedInputs:
    def test_prediction_needs_cefr6_levels(self):
        with pytest.raises(ValueError) as exc:
            LabeledPrediction(gold=ComplexityLevel.parse(Scheme.CEFR6, "A1"),
                              predicted=ComplexityLevel.parse(Scheme.CEFR3, "A"))
        assert str(exc.value) == "LabeledPrediction requires CEFR6 levels on both sides"

    @pytest.mark.parametrize("metric, name", [(adjacent_accuracy, "adjacent_accuracy"),
                                              (mae, "mae")])
    def test_no_predictions(self, metric, name):
        with pytest.raises(ValueError) as exc:
            metric([])
        assert str(exc.value) == f"{name} needs at least one prediction"

    def test_alpha_needs_two_raters(self):
        m = matrix_from([("r1", 1, "a"), ("r1", 2, "b")])
        with pytest.raises(ValueError) as exc:
            krippendorff_alpha(m)
        assert str(exc.value) == "RatingMatrix needs at least 2 raters"

    def test_likert_group_without_ratings(self):
        with pytest.raises(ValueError) as exc:
            likert_report({"g": RatingMatrix()})
        assert str(exc.value) == "group 'g' has no ratings"


class TestWeightedF1:
    def test_perfect(self):
        preds = [pred(l, l) for l in ("A1", "B2", "C1", "C2")]
        assert weighted_f1(preds) == pytest.approx(100.0)

    def test_imbalanced_hand_value(self):
        # Gold: 9x A1, 1x C2; predict everything A1.
        # F1(A1) = 2*(9/10)*1 / (9/10 + 1) = 18/19; F1(C2) = 0.
        # Weighted: 0.9 * 18/19 * 100.
        preds = [pred("A1", "A1")] * 9 + [pred("C2", "A1")]
        assert weighted_f1(preds) == pytest.approx(100 * 0.9 * 18 / 19)

    def test_collapse_3_merges_sublevels(self):
        # A1 predicted as A2 is wrong at 6 levels but right at 3.
        preds = [pred("A1", "A2"), pred("B1", "B2"), pred("C1", "C2")]
        assert weighted_f1(preds, collapse=6) == pytest.approx(0.0)
        assert weighted_f1(preds, collapse=3) == pytest.approx(100.0)

    def test_sklearn_agreement(self):
        sklearn = pytest.importorskip("sklearn.metrics")
        preds = [
            pred("A1", "A1"), pred("A1", "A2"), pred("A2", "A2"), pred("B1", "A2"),
            pred("B1", "B1"), pred("B2", "B2"), pred("B2", "C1"), pred("C1", "C1"),
            pred("C2", "C1"), pred("C2", "C2"),
        ]
        gold = [int(p.gold.value) for p in preds]
        hyp = [int(p.predicted.value) for p in preds]
        expected = 100 * sklearn.f1_score(gold, hyp, average="weighted")
        assert weighted_f1(preds) == pytest.approx(expected, abs=1e-9)

    def test_invalid_collapse(self):
        with pytest.raises(ValueError):
            weighted_f1([pred("A1", "A1")], collapse=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_f1([])


class TestAdjacentAccuracy:
    def test_a2_for_a1_counts(self):
        assert adjacent_accuracy([pred("A1", "A2")]) == 1.0

    def test_a2_adjacent_window(self):
        # Prediction A2 is accurate for gold A1, A2, or B1 only.
        for gold, ok in (("A1", True), ("A2", True), ("B1", True), ("B2", False)):
            assert adjacent_accuracy([pred(gold, "A2")]) == (1.0 if ok else 0.0)

    def test_mixed(self):
        preds = [pred("A1", "A2"), pred("A1", "C2")]
        assert adjacent_accuracy(preds) == 0.5


class TestMae:
    def test_footnote_cases(self):
        # A1 predicted for gold A2 deviates by 1; A2 for gold C2 by 4.
        assert mae([pred("A2", "A1")]) == 1.0
        assert mae([pred("C2", "A2")]) == 4.0

    def test_average(self):
        assert mae([pred("A2", "A1"), pred("C2", "A2"), pred("B1", "B1")]) == pytest.approx(5 / 3)

    def test_bounds(self):
        assert mae([pred("A1", "C2")]) == 5.0
        assert mae([pred("B2", "B2")]) == 0.0


class TestRatingMatrix:
    def test_second_rating_of_a_cell_is_refused(self):
        m = matrix_from([("r1", 1, "a")])
        with pytest.raises(ValueError, match="item 1 is rated twice by rater 'r1'"):
            m.add("r1", 1, "a")  # even with the same value: a rating is an observation


class TestKrippendorffAlpha:
    def test_perfect_agreement(self):
        m = matrix_from([("r1", i, "yes") for i in range(5)] + [("r2", i, "yes") for i in range(5)])
        assert krippendorff_alpha(m, "nominal") == 1.0
        assert krippendorff_alpha(m, "ordinal") == 1.0

    def test_two_rater_all_disagree_binary(self):
        # Systematic binary disagreement on 4 items gives alpha below zero.
        m = matrix_from(
            [("r1", i, 0) for i in range(4)] + [("r2", i, 1) for i in range(4)]
        )
        got = krippendorff_alpha(m, "nominal")
        # D_o = 1, D_e = (n/(n-1)) * 1/2 with n = 8 pooled values.
        assert got == pytest.approx(-0.75)
        assert got < 0

    def test_oracle_nominal_with_missing_cells(self):
        rows = [
            ("r1", 1, "a"), ("r1", 2, "a"), ("r1", 3, "b"), ("r1", 4, "b"),
            ("r2", 1, "a"), ("r2", 2, "b"), ("r2", 3, "b"),
            ("r3", 2, "a"), ("r3", 3, "b"), ("r3", 4, "c"),
        ]
        m = matrix_from(rows)
        expected = alpha_ref(
            {i: [v for r, it, v in rows if it == i] for i in (1, 2, 3, 4)}, "nominal"
        )
        assert krippendorff_alpha(m, "nominal") == pytest.approx(expected, abs=1e-12)

    def test_oracle_ordinal(self):
        rows = [
            ("r1", 1, 1), ("r1", 2, 2), ("r1", 3, 3), ("r1", 4, 3), ("r1", 5, 2),
            ("r2", 1, 1), ("r2", 2, 2), ("r2", 3, 4), ("r2", 4, 3), ("r2", 5, 2),
            ("r3", 1, 2), ("r3", 2, 2), ("r3", 3, 3), ("r3", 4, 4), ("r3", 5, 1),
        ]
        m = matrix_from(rows)
        expected = alpha_ref(
            {i: [v for r, it, v in rows if it == i] for i in range(1, 6)}, "ordinal"
        )
        assert krippendorff_alpha(m, "ordinal") == pytest.approx(expected, abs=1e-12)

    @pytest.mark.timing
    def test_ordinal_is_quadratic_in_distinct_values(self):
        # 800 distinct ratings: rater r2 is half a step above r1 on each of 400 items.
        m = matrix_from([("r1", i, float(i)) for i in range(400)] + [("r2", i, i + 0.5) for i in range(400)])
        start = time.perf_counter()
        alpha = krippendorff_alpha(m, "ordinal")
        elapsed = time.perf_counter() - start
        assert 0.99 < alpha < 1.0
        assert elapsed < 5.0

    def test_single_rating_items_excluded(self):
        base = [("r1", 1, "a"), ("r2", 1, "a"), ("r1", 2, "b"), ("r2", 2, "b")]
        with_orphan = base + [("r1", 3, "c")]
        assert krippendorff_alpha(matrix_from(base)) == pytest.approx(
            krippendorff_alpha(matrix_from(with_orphan))
        )

    def test_unpairable_raises(self):
        m = matrix_from([("r1", 1, "a"), ("r2", 2, "b")])
        with pytest.raises(UndefinedAlphaError):
            krippendorff_alpha(m)

    def test_invalid_metric(self):
        m = matrix_from([("r1", 1, "a"), ("r2", 1, "a")])
        with pytest.raises(ValueError):
            krippendorff_alpha(m, "interval")

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["r1", "r2", "r3"]),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=4,
            max_size=21,
            unique_by=lambda row: row[:2],  # one rating per (rater, item) cell
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_oracle_on_random_matrices(self, rows):
        m = matrix_from(rows)
        by_item = m.by_item()
        if not any(len(v) >= 2 for v in by_item.values()):
            return
        pairable = {i: v for i, v in by_item.items() if len(v) >= 2}
        for metric in ("nominal", "ordinal"):
            assert krippendorff_alpha(m, metric) == pytest.approx(
                alpha_ref(pairable, metric), abs=1e-9
            )


class TestMajorityGold:
    def test_threshold_3_of_4(self):
        rows = []
        for rater, votes in zip(
            ("r1", "r2", "r3", "r4"),
            [("x", "x", "x"), ("x", "x", "y"), ("x", "y", "z"), ("y", "y", "y")],
        ):
            for item, value in enumerate(votes):
                rows.append((rater, item, value))
        resolved = majority_gold(matrix_from(rows), threshold=3)
        assert resolved == {0: "x", 1: UNRESOLVED, 2: UNRESOLVED}

    def test_threshold_must_exceed_half(self):
        m = matrix_from([("r1", 1, "a"), ("r2", 1, "a"), ("r3", 1, "b"), ("r4", 1, "b")])
        with pytest.raises(ValueError):
            majority_gold(m, threshold=2)

    def test_threshold_above_rater_count(self):
        m = matrix_from([("r1", 1, "a"), ("r2", 1, "a")])
        with pytest.raises(ValueError):
            majority_gold(m, threshold=3)


class TestLikertReport:
    def test_mean_and_ci(self):
        m = matrix_from([
            ("r1", "s1", 4), ("r2", "s1", 5), ("r3", "s1", 3),
            ("r1", "s2", 2), ("r2", "s2", 3), ("r3", "s2", 4),
        ])
        report = likert_report({"model-a/fluency": m})
        row = report["model-a/fluency"]
        assert row["items"] == 2
        assert row["mean"] == pytest.approx((4 + 3) / 2)
        # CI = 1.96 * sample-std / sqrt(items) over item means (4, 3).
        expected_ci = 1.96 * math.sqrt(0.5) / math.sqrt(2)
        assert row["ci95"] == pytest.approx(expected_ci)
        assert row["alpha_ordinal"] is not None

    def test_single_item_has_no_ci(self):
        m = matrix_from([("r1", "s1", 4), ("r2", "s1", 5)])
        row = likert_report({"g": m})["g"]
        assert row["ci95"] is None

    def test_format_table(self):
        m = matrix_from([("r1", "s1", 4), ("r2", "s1", 5), ("r1", "s2", 3), ("r2", "s2", 3)])
        text = format_likert_table(likert_report({"g": m}))
        assert "g" in text and "mean" in text
        assert len(text.splitlines()) == 2
