"""Dataset factory: filter paraphrase pairs, attach levels, bucket by task,
assemble simplification / complexification / same-level datasets, split.

Every stage is deterministic: per-pair work is order-independent, and every
seeded order is ``rank`` of the seed and an item's own written id, so an item's
place depends on nothing else and a rerun reproduces identical bytes.
"""
from __future__ import annotations

import math
from collections import Counter
from enum import Enum
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

from .readability import ComplexityLevel, Scheme, level_delta, level_of
from .textcore import normalize, total, words_of

T = TypeVar("T")

__all__ = [
    "ParaphrasePair",
    "TaskLabel",
    "DropReason",
    "ConfigError",
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
    "rank",
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
        id: str | bytes,  # a file's id, or a pipeline pair's pair_key until it is written
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

    def id_text(self) -> str:
        """The id as it is written and shown: a pair_key digest in hex."""
        return self.id if isinstance(self.id, str) else self.id.hex()

    def swapped(self) -> "ParaphrasePair":
        return ParaphrasePair(
            id=self.id,
            source=self.target,
            target=self.source,
            similarity=self.similarity,
            source_level=self.target_level,
            target_level=self.source_level,
        )


class ConfigError(ValueError):
    """A setting that no run may start with, caught before any work. The CLI exits 2 on it."""


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
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not -math.inf < value < math.inf:
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if type(self.min_words) is not int:
            raise ConfigError(f"min_words must be an int, got {self.min_words!r}")
        if self.sim_low > self.sim_high:
            raise ConfigError(
                f"sim_low {self.sim_low} must not exceed sim_high {self.sim_high}"
            )
        if self.min_words < 1:
            raise ConfigError(f"min_words must be >= 1, got {self.min_words}")


@lru_cache(maxsize=None)
def hash_functions() -> tuple[Callable, Callable]:
    """(sha256, blake2b) from CPython's built-in hash modules, looked up once, at the first hash.

    Not from hashlib: it maps OpenSSL's libcrypto, about 3.5 MB of a process's peak RSS,
    for these same two functions. The built-in SHA-256 costs about 3.5 ms more CPU per MB hashed.
    hashlib.blake2b is _blake2.blake2b; hashlib.sha256 serves only a build with neither module.
    """
    try:
        from _sha2 import sha256  # Python 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    from _blake2 import blake2b
    return sha256, blake2b


def _sha256(text: str):
    """The one hashing rule: sha256 of the UTF-8 bytes of NFC ``text``."""
    return hash_functions()[0](normalize(text).encode("utf-8"))


def text_sha256(text: str) -> str:
    return _sha256(text).hexdigest()


def pair_key(source: str, target: str) -> bytes:
    """Stable pair identity: the 32-byte hash of NFC source, NUL, NFC target (NFC never
    crosses a NUL). Raw bytes, 65 B as an object against 113 B in hex, since dedup holds
    one per unique pair; ``ParaphrasePair.id_text`` makes the hex that is written."""
    return _sha256(f"{source}\x00{target}").digest()


def rank(seed: int, key: str) -> bytes:
    """The one seeded order: the 8-byte blake2b digest of ``f"{seed}:{key}"`` in UTF-8, compared as bytes."""
    return hash_functions()[1](f"{seed}:{key}".encode("utf-8"), digest_size=8).digest()


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
                level = predictions.get(text_sha256(text)) or predictions.get(f"{pair.id_text()}:{role}")
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
        raise ValueError(f"pair {pair.id_text()}: bucket requires both levels")
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

    Different-level pairs are turned to simplification orientation and
    ordered by the ``rank`` of their written id: the lowest ``size`` are the
    simplification set, the next ``size`` reversed the complexification set.
    Same-level is the lowest ``size`` of its pool. So a pair added to a pool
    changes a set only when it ranks inside it.
    """
    down_pool: list[ParaphrasePair] = []
    same_pool: list[ParaphrasePair] = []
    bucket_counts = {label: 0 for label in TaskLabel}
    for pair, label in bucketed:
        bucket_counts[label] += 1
        if label is TaskLabel.SAME:
            same_pool.append(pair)
        else:
            down_pool.append(pair if label is TaskLabel.DOWN else pair.swapped())

    if task_size is None:
        size = min(len(down_pool) // 2, len(same_pool))
    else:
        size = task_size
        if 2 * size > len(down_pool):
            raise ValueError(f"need {2 * size} different-level pairs for task size {size}, have {len(down_pool)}")
        if size > len(same_pool):
            raise ValueError(f"need {size} same-level pairs, have {len(same_pool)}")

    for pool in (down_pool, same_pool):
        pool.sort(key=lambda p: rank(seed, p.id_text()))
    datasets = {
        TaskLabel.DOWN: down_pool[:size],
        TaskLabel.UP: [p.swapped() for p in down_pool[size : 2 * size]],
        TaskLabel.SAME: same_pool[:size],
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


def split_dataset(dataset: list[T], ratios: tuple[float, float, float] = SPLIT_RATIOS) -> dict[str, list[T]]:
    """An 80-10-10 style split of ``dataset`` as it is ordered: train, valid, test, in turn.

    The caller orders it, by ``rank``. Non-train splits get the floor of their decimal share
    (0.29 of 100 is 29, not 28); the remainder goes to train. The splits are disjoint and cover it.
    """
    from fractions import Fraction  # here, not at the top: only the commands that split need it

    ratios = check_split_ratios(ratios)
    n = len(dataset)
    n_valid = int(n * Fraction(repr(ratios[1])))
    n_test = int(n * Fraction(repr(ratios[2])))
    n_train = n - n_valid - n_test
    return {
        "train": dataset[:n_train],
        "valid": dataset[n_train : n_train + n_valid],
        "test": dataset[n_train + n_valid :],
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
