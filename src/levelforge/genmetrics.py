"""System-output scoring: SARI, corpus FKGL, copy-rate, repetition diagnostics.

The SARI implementation follows the reference convention used by the
standard simplification toolchain: n-grams for n=1..4, keep and add scored
as F1, delete scored as precision, reference counts pooled with
multiplicity scaling by the number of references. Conformance is pinned by
a committed fixture of oracle outputs.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
from typing import Iterable, Sequence

from .readability import corpus_fkgl
from .textcore import distinct_ratio, tokenize, windows

__all__ = [
    "EvalInstance",
    "SariBreakdown",
    "sari",
    "corpus_sari",
    "copy_rate",
    "is_copy",
    "repetition_score",
    "sari_r",
    "score_report",
]

# SARI averages n-gram orders 1..4, per the reference convention.
_SARI_MAX_N = 4


@dataclass(frozen=True)
class EvalInstance:
    source: str
    output: str
    references: tuple[str, ...]

    def __post_init__(self) -> None:
        """The one check of an instance: str texts, and a non-empty list or tuple of str references."""
        for name in ("source", "output"):
            text = getattr(self, name)
            if not isinstance(text, str):
                raise ValueError(f'"{name}" must be a string, got {type(text).__name__}')
        refs = self.references
        if not isinstance(refs, (list, tuple)) or not refs or not all(isinstance(r, str) for r in refs):
            raise ValueError('"references" must be a non-empty list of strings')
        object.__setattr__(self, "references", tuple(refs))

    # Kept on the instance so every metric of one scoring run reuses one
    # tokenization per text and one SARI pass; the fields they derive from
    # are frozen.
    @cached_property
    def _source_tokens(self) -> list[str]:
        return _folded_tokens(self.source)

    @cached_property
    def _output_tokens(self) -> list[str]:
        return _folded_tokens(self.output)

    @cached_property
    def _sari(self) -> "SariBreakdown":
        return _sari_kernel(self)


@dataclass(frozen=True)
class SariBreakdown:
    add_score: float
    keep_score: float
    del_score: float
    sari: float


def _folded_tokens(text: str) -> list[str]:
    """Case-folded tokens: the form SARI and the copy check compare."""
    return list(map(str.lower, tokenize(text)))


def _component_scores(
    src: Counter, out: Counter, ref_pool: Counter, numref: int
) -> tuple[float, float, float]:
    """(keep, delete, add) for one n-gram order, each in [0, 1].

    ``ref_pool`` counts the order's n-grams over all references together.
    """
    # Keep and delete in one pass over the source grams. Counts are scaled
    # by numref; terms are added in source order, as the Counter algebra
    # of the reference implementation visits them, into running floats and
    # not through sum(), whose rounding changed in Python 3.12.
    keep_p = keep_r = delete = 0.0
    n_keep_cand = n_keep_all = n_del_cand = 0
    out_get, ref_get = out.get, ref_pool.get
    for g, count in src.items():
        s = count * numref
        o = out_get(g, 0) * numref
        r = ref_get(g, 0)
        keep_all = s if s < r else r
        if keep_all:
            n_keep_all += 1
        keep_cand = s if s < o else o
        if keep_cand:
            n_keep_cand += 1
            keep_good = keep_cand if keep_cand < r else r
            if keep_good:
                keep_p += keep_good / keep_cand
                keep_r += keep_good / keep_all
        del_cand = s - o
        if del_cand > 0:
            n_del_cand += 1
            del_good = del_cand - r
            if del_good > 0:
                delete += del_good / del_cand

    # Keep: F1 over grams retained from the source.
    keep_p = keep_p / n_keep_cand if n_keep_cand else 0.0
    keep_r = keep_r / n_keep_all if n_keep_all else 0.0
    keep = 2 * keep_p * keep_r / (keep_p + keep_r) if keep_p + keep_r > 0 else 0.0

    # Delete: precision only, per the reference convention.
    delete = delete / n_del_cand if n_del_cand else 0.0

    # Add: F1 over distinct new grams.
    add_cand = out.keys() - src.keys()
    add_good = len(add_cand & ref_pool.keys())
    add_all = len(ref_pool) - len(ref_pool.keys() & src.keys())
    add_p = add_good / len(add_cand) if add_cand else 0.0
    add_r = add_good / add_all if add_all else 0.0
    add = 2 * add_p * add_r / (add_p + add_r) if add_p + add_r > 0 else 0.0

    return keep, delete, add


def sari(instance: EvalInstance) -> SariBreakdown:
    """SARI breakdown in [0, 100] for one (source, output, references) triple.

    Computed on the first call and kept on the instance; later calls return
    the same breakdown.
    """
    return instance._sari


def _sari_kernel(instance: EvalInstance) -> SariBreakdown:
    src_tokens = instance._source_tokens
    out_tokens = instance._output_tokens
    ref_tokens = [_folded_tokens(r) for r in instance.references]
    numref = len(ref_tokens)

    keep = delete = add = 0.0
    for n in range(1, _SARI_MAX_N + 1):
        # Order-1 grams are the tokens themselves: str keys, not 1-tuples.
        cut = iter if n == 1 else partial(windows, n=n)
        k, d, a = _component_scores(
            Counter(cut(src_tokens)),
            Counter(cut(out_tokens)),
            Counter(chain.from_iterable(map(cut, ref_tokens))),
            numref,
        )
        keep, delete, add = keep + k, delete + d, add + a
    keep = 100.0 * keep / _SARI_MAX_N
    delete = 100.0 * delete / _SARI_MAX_N
    add = 100.0 * add / _SARI_MAX_N
    return SariBreakdown(
        add_score=add,
        keep_score=keep,
        del_score=delete,
        sari=(add + keep + delete) / 3.0,
    )


def corpus_sari(instances: Iterable[EvalInstance]) -> float:
    """Mean per-instance SARI (corpus convention pinned by fixture)."""
    scores = [sari(inst).sari for inst in instances]
    if not scores:
        raise ValueError("corpus_sari needs at least one instance")
    return sum(scores) / len(scores)


def is_copy(instance: EvalInstance) -> bool:
    """True when the output's case-folded tokenization equals the source's."""
    return instance._output_tokens == instance._source_tokens


def copy_rate(instances: Iterable[EvalInstance]) -> float:
    """Fraction of instances whose output copies the source (see ``is_copy``)."""
    total = copies = 0
    for inst in instances:
        total += 1
        copies += is_copy(inst)
    if total == 0:
        raise ValueError("copy_rate needs at least one instance")
    return copies / total


def repetition_score(text: str, n: int = 4) -> float:
    """Degenerate-repetition diagnostic in [0, 1].

    1 - distinct/total over n-grams pooled across orders 1..n, so looped
    phrases show up both as repeated long spans and as inflated low-order
    counts. 0 when the text has at most one token.
    """
    return 1.0 - distinct_ratio(tokenize(text), n)


def sari_r(instance: EvalInstance, n: int = 4) -> float:
    """Repetition-penalized SARI: sari * (distinct / total output n-grams).

    Equals plain SARI exactly when the output's n-grams are all distinct;
    a fully degenerate output collapses toward sari / total.
    """
    return sari(instance).sari * distinct_ratio(instance._output_tokens, n, min_n=n)


def score_report(instances: Sequence[EvalInstance], repetition_n: int = 4) -> dict:
    """Corpus-level metrics dict for a scored system."""
    if not instances:
        raise ValueError("score_report needs at least one instance")
    try:
        fkgl_value = corpus_fkgl(inst.output for inst in instances)
    except ValueError:
        fkgl_value = None
    return {
        "sari": corpus_sari(instances),
        "sari_r": sum(sari_r(inst, repetition_n) for inst in instances) / len(instances),
        "fkgl": fkgl_value,
        "fkgl_convention": "corpus-pooled counts",
        "copy_rate": copy_rate(instances),
        "mean_repetition": sum(repetition_score(inst.output, repetition_n) for inst in instances) / len(instances),
        "instances": len(instances),
    }
