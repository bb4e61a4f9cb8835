"""Classifier-evaluation metrics and annotation-study tooling.

Covers the level-classifier suite (weighted F1 at 6 and 3 levels, adjacent
accuracy, MAE), Krippendorff's alpha (nominal and ordinal) over raters x
items matrices with missing cells, rater-majority gold filtering, and
Likert aggregation with 95% confidence intervals.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Hashable, Mapping, Sequence

from .readability import ComplexityLevel, Scheme, cefr6_to_cefr3

__all__ = [
    "LabeledPrediction",
    "RatingMatrix",
    "UndefinedAlphaError",
    "weighted_f1",
    "adjacent_accuracy",
    "mae",
    "krippendorff_alpha",
    "majority_gold",
    "likert_report",
    "UNRESOLVED",
]

UNRESOLVED = "UNRESOLVED"
Z95 = 1.96  # the normal quantile of a two-sided 95% interval, as the report key ci95 says


class UndefinedAlphaError(ValueError):
    """No pairable values: alpha has no defined value."""


@dataclass(frozen=True)
class LabeledPrediction:
    gold: ComplexityLevel
    predicted: ComplexityLevel

    def __post_init__(self) -> None:
        if self.gold.scheme is not Scheme.CEFR6 or self.predicted.scheme is not Scheme.CEFR6:
            raise ValueError("LabeledPrediction requires CEFR6 levels on both sides")


@dataclass
class RatingMatrix:
    """Raters x items ratings with missing cells allowed.

    ``cells`` maps (rater_id, item_id) -> value. Values are hashable;
    ordinal alpha additionally requires them to be orderable.
    """

    cells: dict[tuple[Hashable, Hashable], Hashable] = field(default_factory=dict)

    def add(self, rater: Hashable, item: Hashable, value: Hashable) -> None:
        """Record one rating; a second rating of a cell, even of the same value, is a ValueError."""
        if (rater, item) in self.cells:
            raise ValueError(f"item {item!r} is rated twice by rater {rater!r}")
        self.cells[(rater, item)] = value

    @property
    def raters(self) -> list:
        return sorted({r for r, _ in self.cells}, key=str)

    def by_item(self) -> dict[Hashable, list]:
        grouped: dict[Hashable, list] = defaultdict(list)
        for (rater, item), value in sorted(self.cells.items(), key=lambda kv: (str(kv[0][1]), str(kv[0][0]))):
            grouped[item].append(value)
        return grouped


def _per_class_f1(confusion: Mapping[tuple, int], labels: Sequence) -> dict:
    scores = {}
    for label in labels:
        tp = confusion.get((label, label), 0)
        fp = sum(c for (g, p), c in confusion.items() if p == label and g != label)
        fn = sum(c for (g, p), c in confusion.items() if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        scores[label] = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
    return scores


def weighted_f1(preds: Sequence[LabeledPrediction], collapse: int = 6) -> float:
    """Support-weighted per-class F1 in [0, 100].

    collapse=3 maps both sides through the CEFR6 -> A/B/C collapse first.
    """
    if not preds:
        raise ValueError("weighted_f1 needs at least one prediction")
    if collapse not in (3, 6):
        raise ValueError(f"collapse must be 3 or 6, got {collapse}")
    pairs = []
    for p in preds:
        gold, pred = p.gold, p.predicted
        if collapse == 3:
            gold, pred = cefr6_to_cefr3(gold), cefr6_to_cefr3(pred)
        pairs.append((int(gold.value), int(pred.value)))
    confusion = Counter(pairs)
    support = Counter(g for g, _ in pairs)
    labels = sorted(support)
    f1s = _per_class_f1(confusion, labels)
    total = sum(support.values())
    return 100.0 * sum(support[l] / total * f1s[l] for l in labels)


def adjacent_accuracy(preds: Sequence[LabeledPrediction]) -> float:
    """Fraction of predictions within one ordinal step of the gold level."""
    if not preds:
        raise ValueError("adjacent_accuracy needs at least one prediction")
    hits = sum(1 for p in preds if abs(p.gold.value - p.predicted.value) <= 1)
    return hits / len(preds)


def mae(preds: Sequence[LabeledPrediction]) -> float:
    """Mean absolute deviation of predicted from gold ordinal index."""
    if not preds:
        raise ValueError("mae needs at least one prediction")
    return sum(abs(p.gold.value - p.predicted.value) for p in preds) / len(preds)


def krippendorff_alpha(matrix: RatingMatrix, metric: str = "nominal") -> float:
    """alpha = 1 - D_o/D_e via the coincidence-matrix formulation.

    metric: "nominal" (delta = [a != b]) or "ordinal" (squared
    marginal-cumulative distances). Items with fewer than two ratings are
    excluded from pairing.
    """
    if metric not in ("nominal", "ordinal"):
        raise ValueError(f"metric must be nominal or ordinal, got {metric!r}")
    if len(matrix.raters) < 2:
        raise ValueError("RatingMatrix needs at least 2 raters")
    pairable = [values for values in matrix.by_item().values() if len(values) >= 2]
    if not pairable:
        raise UndefinedAlphaError("alpha undefined: no item carries two or more ratings")

    coincidence: Counter = Counter()
    for values in pairable:
        m = len(values)
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                if i != j:
                    coincidence[(a, b)] += 1.0 / (m - 1)

    marginals: dict = defaultdict(float)
    for (a, _), c in coincidence.items():
        marginals[a] += c
    values = sorted(marginals)
    n_total = sum(marginals.values())
    if len(values) == 1:
        # A single observed value: no expected disagreement, perfect agreement.
        return 1.0

    if metric == "nominal":
        delta2 = {(a, b): 0.0 if a == b else 1.0 for a in values for b in values}
    else:
        delta2 = {}
        for i, a in enumerate(values):
            # The marginals from a up to b, grown by one as b moves up.
            span = 0.0
            for b in values[i:]:
                span += marginals[b]
                d = span - (marginals[a] + marginals[b]) / 2.0
                delta2[(a, b)] = delta2[(b, a)] = d * d

    d_o = sum(c * delta2[pair] for pair, c in coincidence.items()) / n_total
    d_e = sum(
        marginals[a] * marginals[b] * delta2[(a, b)]
        for a in values
        for b in values
    ) / (n_total * (n_total - 1))
    return 1.0 - d_o / d_e


def majority_gold(matrix: RatingMatrix, threshold: int) -> dict:
    """Per-item gold label chosen by >= threshold raters, else UNRESOLVED.

    threshold must exceed half the rater count so two values can never
    reach it simultaneously.
    """
    n_raters = len(matrix.raters)
    if threshold > n_raters:
        raise ValueError(f"threshold {threshold} exceeds rater count {n_raters}")
    if threshold <= n_raters / 2:
        raise ValueError(f"threshold {threshold} must exceed half of {n_raters} raters")
    resolved: dict = {}
    for item, values in matrix.by_item().items():
        counts = Counter(values)
        value, count = counts.most_common(1)[0]
        resolved[item] = value if count >= threshold else UNRESOLVED
    return resolved


def likert_report(groups: Mapping[str, RatingMatrix]) -> dict:
    """Per-group Likert summary: mean of per-item rater means, 95% CI, alpha.

    The CI is a normal approximation (mean +/- z * SE) over item means; the
    alpha is ordinal, computed on the raw unaveraged matrix.
    """
    report = {}
    for name, matrix in sorted(groups.items()):
        item_means = [
            sum(float(v) for v in values) / len(values)
            for values in matrix.by_item().values()
        ]
        if not item_means:
            raise ValueError(f"group {name!r} has no ratings")
        mean = sum(item_means) / len(item_means)
        if len(item_means) > 1:
            try:
                var = sum((x - mean) ** 2 for x in item_means) / (len(item_means) - 1)
            except OverflowError:  # a square past the float range
                var = math.inf
            ci = Z95 * math.sqrt(var / len(item_means))
        else:
            ci = None
        try:
            alpha = krippendorff_alpha(matrix, metric="ordinal")
        except (UndefinedAlphaError, ValueError):
            alpha = None
        report[name] = {
            "mean": mean,
            "ci95": ci,
            "ci_method": "normal approximation over per-item means",
            "alpha_ordinal": alpha,
            "items": len(item_means),
        }
    return report


def format_likert_table(report: Mapping[str, dict]) -> str:
    """Aligned-column text view of a likert_report result."""
    lines = [f"{'group':<32} {'mean':>6} {'ci95':>7} {'alpha':>7} {'items':>6}"]
    for name, row in report.items():
        ci = f"{row['ci95']:.2f}" if row["ci95"] is not None else "--"
        alpha = f"{row['alpha_ordinal']:.2f}" if row["alpha_ordinal"] is not None else "--"
        lines.append(
            f"{name:<32} {row['mean']:>6.2f} {ci:>7} {alpha:>7} {row['items']:>6}"
        )
    return "\n".join(lines)

