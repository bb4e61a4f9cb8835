"""Dataset factory: filter paraphrase pairs, attach levels, bucket by task,
assemble simplification / complexification / same-level datasets, split.

Every stage is deterministic: per-pair work is order-independent, and all
sampling flows from one seed over canonically sorted pair ids, so a rerun
with identical inputs and config reproduces identical bytes.
"""
from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .readability import ComplexityLevel, Scheme, level_delta, level_of
from .textcore import normalize, total, words_of

T = TypeVar("T")

__all__ = [
    "ParaphrasePair",
    "TaskLabel",
    "DropReason",
    "FilterConfig",
    "filter_pair",
    "attach_levels",
    "bucket",
    "build_datasets",
    "split_dataset",
    "check_similarity",
    "check_split_ratios",
    "SPLIT_RATIOS",
    "lexical_similarity",
    "pair_key",
    "text_sha256",
]


class TaskLabel(str, Enum):
    DOWN = "down"  # simplification
    UP = "up"      # complexification
    SAME = "same"


class DropReason(str, Enum):
    # filter_pair's rules in the order it tests them, then label's, bucket's and dedup's reasons.
    SIM_MISSING = "SIM_MISSING"
    SIM_LOW = "SIM_LOW"
    SIM_HIGH = "SIM_HIGH"
    TOO_SHORT = "TOO_SHORT"
    CONTAINMENT = "CONTAINMENT"
    LEVEL_MISSING = "LEVEL_MISSING"
    NEAR_LEVEL = "NEAR_LEVEL"
    DUPLICATE = "DUPLICATE"


def check_similarity(value: object) -> float:
    """A similarity score: a number in [0, 1]. A bool is not a number here."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"similarity must be a number, got {value!r}")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"similarity {value} outside [0, 1]")
    return value


class ParaphrasePair:
    __slots__ = ("id", "source", "target", "similarity", "source_level", "target_level")

    def __init__(
        self,
        id: str,
        source: str,
        target: str,
        similarity: Optional[float] = None,
        source_level: Optional[ComplexityLevel] = None,
        target_level: Optional[ComplexityLevel] = None,
    ) -> None:
        if not isinstance(source, str) or not isinstance(target, str):
            raise ValueError(f"pair {id}: source and target must be strings")
        if not source or not target:
            raise ValueError(f"pair {id}: source and target must be non-empty")
        if similarity is not None:
            check_similarity(similarity)
        if source_level is not None and target_level is not None and source_level.scheme is not target_level.scheme:
            raise ValueError(f"pair {id}: source/target level schemes differ")
        self.id = id
        self.source = source
        self.target = target
        self.similarity = similarity
        self.source_level = source_level
        self.target_level = target_level

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def swapped(self) -> "ParaphrasePair":
        return ParaphrasePair(
            id=self.id,
            source=self.target,
            target=self.source,
            similarity=self.similarity,
            source_level=self.target_level,
            target_level=self.source_level,
        )


class FilterConfig:
    # The defaults, also read from the class by the CLI's options and PipelineConfig.
    min_words = 3
    sim_low = 0.60
    sim_high = 0.80
    require_similarity = True

    def __init__(
        self,
        min_words: int = min_words,
        sim_low: float = sim_low,
        sim_high: float = sim_high,
        require_similarity: bool = require_similarity,
    ) -> None:
        self.min_words = min_words
        self.sim_low = sim_low
        self.sim_high = sim_high
        self.require_similarity = require_similarity

    def validate(self) -> None:
        for name in ("min_words", "sim_low", "sim_high"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not -math.inf < value < math.inf:
                raise TypeError(f"{name} must be a number, got {value!r}")
        if type(self.min_words) is not int:
            raise TypeError(f"min_words must be an int, got {self.min_words!r}")
        if self.sim_low > self.sim_high:
            raise ValueError(
                f"sim_low {self.sim_low} must not exceed sim_high {self.sim_high}"
            )
        if self.min_words < 1:
            raise ValueError(f"min_words must be >= 1, got {self.min_words}")


def text_sha256(text: str) -> str:
    import hashlib  # here, not at the top: it loads OpenSSL, which only hashing commands need
    return hashlib.sha256(normalize(text).encode("utf-8")).hexdigest()


def pair_key(source: str, target: str) -> str:
    """Stable pair identity: hash of NFC source, NUL, NFC target (NFC never crosses a NUL)."""
    return text_sha256(f"{source}\x00{target}")


def filter_pair(
    pair: ParaphrasePair, cfg: FilterConfig
) -> tuple[bool, Optional[DropReason]]:
    """(keep, reason): reason names the first failing rule, None when kept.

    The similarity rules run first, so a pair out of band is never tokenized;
    the kept set does not depend on the order. Containment is on lowercase
    word tokens, so case and punctuation variants count; the band is inclusive.
    """
    if pair.similarity is None:
        if cfg.require_similarity:
            return False, DropReason.SIM_MISSING
    elif pair.similarity < cfg.sim_low:
        return False, DropReason.SIM_LOW
    elif pair.similarity > cfg.sim_high:
        return False, DropReason.SIM_HIGH
    src_words = words_of(pair.source)
    tgt_words = words_of(pair.target)
    if len(src_words) < cfg.min_words or len(tgt_words) < cfg.min_words:
        return False, DropReason.TOO_SHORT
    # Tokens hold no whitespace and lowercasing adds none, so one side's
    # words are a contiguous run of the other's exactly when its
    # space-delimited string is a substring (no words: " ", in every string).
    src = " ".join(("", *src_words, "")).lower()
    tgt = " ".join(("", *tgt_words, "")).lower()
    if src in tgt or tgt in src:
        return False, DropReason.CONTAINMENT
    return True, None


def attach_levels(
    pairs: Iterable[ParaphrasePair],
    scheme: Scheme,
    predictions: Optional[Mapping[str, ComplexityLevel]] = None,
) -> Iterator[tuple[ParaphrasePair, Optional[DropReason]]]:
    """Attach per-side levels; FKGL is computed, other schemes are ingested.

    ``predictions`` maps sentence keys to levels, looked up by text hash
    first, then by "<pair_id>:source"/":target". A pair with a side of no
    level (under FKGL, no words) comes back unleveled with LEVEL_MISSING.
    """
    if scheme is not Scheme.FKGL and predictions is None:
        raise ValueError(f"{scheme.value} labeling requires a prediction file")
    for pair in pairs:
        resolved = []
        for text, role in ((pair.source, "source"), (pair.target, "target")):
            if scheme is Scheme.FKGL:
                try:
                    level = level_of(text)
                except ValueError:  # a side without words has no FKGL
                    level = None
            else:
                level = predictions.get(text_sha256(text)) or predictions.get(f"{pair.id}:{role}")
            resolved.append(level)
        if resolved[0] is None or resolved[1] is None:
            yield pair, DropReason.LEVEL_MISSING
            continue
        pair.source_level, pair.target_level = resolved
        yield pair, None


def bucket(pair: ParaphrasePair, scheme: Scheme) -> tuple[Optional[TaskLabel], Optional[DropReason]]:
    """Assign a task label from the pair's levels, or reject.

    CEFR schemes need a level gap of two or more to count as
    different-level; a gap of exactly one is rejected (NEAR_LEVEL). FKGL
    and Newsela treat any difference of the (2-dp rounded) values as
    different-level. DOWN means the source is the more complex side.
    """
    if pair.source_level is None or pair.target_level is None:
        raise ValueError(f"pair {pair.id}: bucket requires both levels")
    delta = level_delta(pair.source_level, pair.target_level)
    if delta == 0:
        return TaskLabel.SAME, None
    if scheme in (Scheme.CEFR6, Scheme.CEFR3) and abs(delta) < 2:
        return None, DropReason.NEAR_LEVEL
    return (TaskLabel.DOWN if delta > 0 else TaskLabel.UP), None


def build_datasets(
    bucketed: Iterable[tuple[ParaphrasePair, TaskLabel]],
    seed: int,
    task_size: Optional[int] = None,
) -> tuple[dict[TaskLabel, list[ParaphrasePair]], dict]:
    """Assemble equal-sized task datasets from the bucket stage's kept items,
    each a pair with the task label ``bucket`` gave it.

    Different-level pairs are normalized to simplification orientation,
    shuffled with the seed over canonically sorted ids, and halved: the
    first half becomes the simplification set, the second half is reversed
    into the complexification set (disjoint pairs). Same-level pairs are
    sampled uniformly without replacement to the same size.
    """
    down_pool: list[ParaphrasePair] = []
    same_pool: list[ParaphrasePair] = []
    bucket_counts = {label: 0 for label in TaskLabel}
    for pair, label in bucketed:
        bucket_counts[label] += 1
        if label is TaskLabel.SAME:
            same_pool.append(pair)
        elif label is TaskLabel.DOWN:
            down_pool.append(pair)
        else:
            down_pool.append(pair.swapped())

    down_pool.sort(key=lambda p: p.id)
    same_pool.sort(key=lambda p: p.id)

    if task_size is None:
        size = min(len(down_pool) // 2, len(same_pool))
    else:
        size = task_size
        if 2 * size > len(down_pool):
            raise ValueError(
                f"need {2 * size} different-level pairs for task size {size}, "
                f"have {len(down_pool)}"
            )
        if size > len(same_pool):
            raise ValueError(
                f"need {size} same-level pairs, have {len(same_pool)}"
            )

    rng = Random(seed)
    rng.shuffle(down_pool)
    simplification = down_pool[:size]
    complexification = [p.swapped() for p in down_pool[size : 2 * size]]
    same = rng.sample(same_pool, size)

    datasets = {
        TaskLabel.DOWN: simplification,
        TaskLabel.UP: complexification,
        TaskLabel.SAME: same,
    }
    stats = {
        "bucket_counts": {k.value: v for k, v in bucket_counts.items()},
        "task_size": size,
    }
    return datasets, stats


# The default train, valid and test shares.
SPLIT_RATIOS = (0.8, 0.1, 0.1)


def check_split_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    """The split-ratio rule: three numbers, each >= 0, summing to 1."""
    values = tuple(ratios) if isinstance(ratios, (list, tuple)) else (ratios,)
    # type() rather than isinstance(): a JSON true is not a ratio; NaN fails >= 0.
    if (
        len(values) != 3
        or not all(type(r) in (int, float) and r >= 0 for r in values)
        or abs(total(values) - 1.0) > 1e-9
    ):
        raise ValueError(
            f"split ratios must be 3 non-negative numbers summing to 1, got {values}"
        )
    return values


def split_dataset(
    dataset: list[T],
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    seed: int = 0,
    key: Callable[[T], str] = lambda p: p.id,
) -> dict[str, list[T]]:
    """Seeded shuffle over items sorted by ``key``, then 80-10-10 style split.

    Non-train splits get the floor of their decimal share (0.29 of 100 is 29,
    not 28); the remainder goes to train. Membership is disjoint and covers the dataset.
    """
    from fractions import Fraction  # here, not at the top: only the commands that split need it

    ratios = check_split_ratios(ratios)
    items = sorted(dataset, key=key)
    Random(seed).shuffle(items)
    n = len(items)
    n_valid = int(n * Fraction(repr(ratios[1])))
    n_test = int(n * Fraction(repr(ratios[2])))
    n_train = n - n_valid - n_test
    return {
        "train": items[:n_train],
        "valid": items[n_train : n_train + n_valid],
        "test": items[n_train + n_valid :],
    }


def _char_trigrams(text: str) -> Counter:
    s = normalize(text).lower()
    if len(s) < 3:
        return Counter([s])
    return Counter(s[i : i + 3] for i in range(len(s) - 2))


def lexical_similarity(a: str, b: str) -> float:
    """Cosine over character-trigram count vectors, in [0, 1].

    Built-in fallback when no embedding-similarity file is available; a
    rough lexical approximation, clearly weaker than sentence embeddings.
    """
    if not a or not b:
        raise ValueError("lexical_similarity requires non-empty texts")
    va, vb = _char_trigrams(a), _char_trigrams(b)
    dot = sum(va[g] * vb[g] for g in va.keys() & vb.keys())
    norm_a = math.sqrt(sum(c * c for c in va.values()))
    norm_b = math.sqrt(sum(c * c for c in vb.values()))
    if dot == 0:
        return 0.0
    return min(1.0, dot / (norm_a * norm_b))
