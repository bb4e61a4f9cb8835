"""Dataset factory: filter paraphrase pairs, attach levels, bucket by task,
assemble simplification / complexification / same-level datasets, split.

Every stage is deterministic: per-pair work is order-independent, and all
sampling flows from one seed over canonically sorted pair ids, so a rerun
with identical inputs and config reproduces identical bytes.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field, asdict
from enum import Enum
from random import Random
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .readability import ComplexityLevel, Scheme, level_delta, level_of
from .textcore import normalize, tokenize, word_tokens

T = TypeVar("T")

__all__ = [
    "ParaphrasePair",
    "TaskLabel",
    "DropReason",
    "FilterConfig",
    "DatasetManifest",
    "filter_pair",
    "attach_levels",
    "bucket",
    "build_datasets",
    "split_dataset",
    "check_similarity",
    "check_split_ratios",
    "lexical_similarity",
    "pair_key",
    "text_sha256",
]


class TaskLabel(str, Enum):
    DOWN = "down"  # simplification
    UP = "up"      # complexification
    SAME = "same"


class DropReason(str, Enum):
    # First-failing-rule order, cheapest test first.
    TOO_SHORT = "TOO_SHORT"
    CONTAINMENT = "CONTAINMENT"
    SIM_MISSING = "SIM_MISSING"
    SIM_LOW = "SIM_LOW"
    SIM_HIGH = "SIM_HIGH"
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


@dataclass
class ParaphrasePair:
    id: str
    source: str
    target: str
    similarity: Optional[float] = None
    source_level: Optional[ComplexityLevel] = None
    target_level: Optional[ComplexityLevel] = None

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ValueError(f"pair {self.id}: source and target must be non-empty")
        if self.similarity is not None:
            check_similarity(self.similarity)
        if (
            self.source_level is not None
            and self.target_level is not None
            and self.source_level.scheme is not self.target_level.scheme
        ):
            raise ValueError(f"pair {self.id}: source/target level schemes differ")

    def swapped(self) -> "ParaphrasePair":
        return ParaphrasePair(
            id=self.id,
            source=self.target,
            target=self.source,
            similarity=self.similarity,
            source_level=self.target_level,
            target_level=self.source_level,
        )


@dataclass
class FilterConfig:
    min_words: int = 3
    sim_low: float = 0.60
    sim_high: float = 0.80
    require_similarity: bool = True

    def validate(self) -> None:
        if self.sim_low > self.sim_high:
            raise ValueError(
                f"sim_low {self.sim_low} must not exceed sim_high {self.sim_high}"
            )
        if self.min_words < 1:
            raise ValueError(f"min_words must be >= 1, got {self.min_words}")


@dataclass
class DatasetManifest:
    scheme: str
    seed: int
    filter_settings: dict
    task_counts: dict = field(default_factory=dict)
    split_counts: dict = field(default_factory=dict)
    drop_reasons: dict = field(default_factory=dict)
    input_digests: dict = field(default_factory=dict)
    conventions: dict = field(default_factory=dict)
    tool_version: str = ""
    config_hash: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def text_sha256(text: str) -> str:
    return hashlib.sha256(normalize(text).encode("utf-8")).hexdigest()


def pair_key(source: str, target: str) -> str:
    """Stable pair identity: hash of NFC-normalized source and target."""
    payload = normalize(source) + "\x00" + normalize(target)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _is_token_sublist(needle: list[str], haystack: list[str]) -> bool:
    if len(needle) > len(haystack):
        return False
    span = len(needle)
    return any(haystack[i : i + span] == needle for i in range(len(haystack) - span + 1))


def filter_pair(
    pair: ParaphrasePair, cfg: FilterConfig
) -> tuple[bool, Optional[DropReason]]:
    """(keep, reason): reason names the first failing rule, None when kept.

    Containment is tested on lowercase word tokens, not raw substrings, so
    casing and punctuation variants still count as contained. The
    similarity band [sim_low, sim_high] is inclusive on both ends.
    """
    src_words = [t.lower() for t in word_tokens(tokenize(pair.source))]
    tgt_words = [t.lower() for t in word_tokens(tokenize(pair.target))]
    if len(src_words) < cfg.min_words or len(tgt_words) < cfg.min_words:
        return False, DropReason.TOO_SHORT
    if _is_token_sublist(src_words, tgt_words) or _is_token_sublist(tgt_words, src_words):
        return False, DropReason.CONTAINMENT
    if pair.similarity is None:
        if cfg.require_similarity:
            return False, DropReason.SIM_MISSING
        return True, None
    if pair.similarity < cfg.sim_low:
        return False, DropReason.SIM_LOW
    if pair.similarity > cfg.sim_high:
        return False, DropReason.SIM_HIGH
    return True, None


def attach_levels(
    pairs: Iterable[ParaphrasePair],
    scheme: Scheme,
    predictions: Optional[Mapping[str, ComplexityLevel]] = None,
) -> Iterator[tuple[ParaphrasePair, Optional[DropReason]]]:
    """Attach per-side levels; FKGL is computed, other schemes are ingested.

    ``predictions`` maps sentence keys to levels; a sentence is looked up
    by its text hash first, then by "<pair_id>:source"/":target". Pairs
    with an unresolvable side come back with reason LEVEL_MISSING.
    """
    for pair in pairs:
        if scheme is Scheme.FKGL:
            pair.source_level = level_of(pair.source)
            pair.target_level = level_of(pair.target)
            yield pair, None
            continue
        if predictions is None:
            raise ValueError(f"{scheme.value} labeling requires a prediction file")
        resolved = []
        for text, role in ((pair.source, "source"), (pair.target, "target")):
            level = predictions.get(text_sha256(text)) or predictions.get(
                f"{pair.id}:{role}"
            )
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
    pairs: Iterable[ParaphrasePair],
    scheme: Scheme,
    seed: int,
    task_size: Optional[int] = None,
) -> tuple[dict[TaskLabel, list[ParaphrasePair]], dict]:
    """Assemble equal-sized task datasets from bucketed pairs.

    Different-level pairs are normalized to simplification orientation,
    shuffled with the seed over canonically sorted ids, and halved: the
    first half becomes the simplification set, the second half is reversed
    into the complexification set (disjoint pairs). Same-level pairs are
    sampled uniformly without replacement to the same size.
    """
    down_pool: list[ParaphrasePair] = []
    same_pool: list[ParaphrasePair] = []
    bucket_counts = {label: 0 for label in TaskLabel}
    rejects = 0
    for pair in pairs:
        label, reason = bucket(pair, scheme)
        if label is None:
            rejects += 1
            continue
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
    for name, pool, needed in (
        ("different-level", down_pool, 2 * size),
        ("same-level", same_pool, size),
    ):
        if needed > 0 and not pool:
            raise ValueError(f"{name} bucket is empty")

    rng = Random(seed)
    rng.shuffle(down_pool)
    simplification = down_pool[:size]
    complexification = [p.swapped() for p in down_pool[size : 2 * size]]
    same = rng.sample(same_pool, size) if size <= len(same_pool) else list(same_pool)

    datasets = {
        TaskLabel.DOWN: simplification,
        TaskLabel.UP: complexification,
        TaskLabel.SAME: same,
    }
    stats = {
        "bucket_counts": {k.value: v for k, v in bucket_counts.items()},
        "near_level_rejects": rejects,
        "task_size": size,
    }
    return datasets, stats


def check_split_ratios(ratios: Sequence[float]) -> tuple[float, float, float]:
    """The split-ratio rule: three numbers, each >= 0, summing to 1."""
    values = tuple(ratios) if isinstance(ratios, (list, tuple)) else (ratios,)
    # type() rather than isinstance(): a JSON true is not a ratio; NaN fails >= 0.
    if (
        len(values) != 3
        or not all(type(r) in (int, float) and r >= 0 for r in values)
        or abs(sum(values) - 1.0) > 1e-9
    ):
        raise ValueError(
            f"split ratios must be 3 non-negative numbers summing to 1, got {values}"
        )
    return values


def split_dataset(
    dataset: list[T],
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    key: Callable[[T], str] = lambda p: p.id,
) -> dict[str, list[T]]:
    """Seeded shuffle over items sorted by ``key``, then 80-10-10 style split.

    Non-train splits get the floor of their share; the remainder goes to
    train. Membership is disjoint and covers the dataset.
    """
    ratios = check_split_ratios(ratios)
    items = sorted(dataset, key=key)
    Random(seed).shuffle(items)
    n = len(items)
    n_valid = int(n * ratios[1])
    n_test = int(n * ratios[2])
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
