# Independent sampling rules: the seeded rank, the task datasets built from
# the bucket stage's records, the floor split and the split command's keys,
# restated plainly over JSON-style records ({"id", "source", "target", levels,
# "task"}) to check corpus.build_datasets, corpus.split_dataset and the files
# pipeline and split write. Standard library only; nothing here imports levelforge.
import hashlib
import json
import unicodedata
from decimal import Decimal


def rank(seed, key):
    """The seeded rank as a number: the 8-byte blake2b digest of "<seed>:<key>", read big-endian.

    Numbers compare as their big-endian bytes do, so this orders keys as comparing the digests does.
    """
    digest = hashlib.blake2b(("%d:%s" % (seed, key)).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def pair_id(source, target):
    """A pipeline pair's written id: the SHA-256 in hex of NFC source, NUL, NFC target."""
    nfc = [unicodedata.normalize("NFC", side) for side in (source, target)]
    return hashlib.sha256("\x00".join(nfc).encode("utf-8")).hexdigest()


def swapped(record):
    """The record read the other way round: sides and their levels trade places; the id stays."""
    out = dict(record, source=record["target"], target=record["source"])
    for a, b in (("source_level", "target_level"), ("target_level", "source_level")):
        if b in record:
            out[a] = record[b]
    return out


def datasets(records, seed, task_size=None):
    """{"down", "up", "same"}: each task's records, each with its "task" set.

    ``records`` carry the bucket stage's "task". A "down" or "up" record
    joins the different-level pool in down orientation, an "up" one swapped.
    Each pool is ordered by the rank of the id. Simplification is the first
    ``size`` of the different-level pool, complexification the next
    ``size`` swapped back, same-level the first ``size`` of its pool.
    ``size`` is ``task_size``, or when it is None the most both pools allow.
    """
    different = [swapped(r) if r["task"] == "up" else r for r in records if r["task"] != "same"]
    same = [r for r in records if r["task"] == "same"]
    if task_size is None:
        size = min(len(different) // 2, len(same))
    elif len(different) < 2 * task_size:
        raise ValueError(f"need {2 * task_size} different-level pairs for task size {task_size}, "
                         f"have {len(different)}")
    elif len(same) < task_size:
        raise ValueError(f"need {task_size} same-level pairs, have {len(same)}")
    else:
        size = task_size
    different.sort(key=lambda r: rank(seed, r["id"]))
    same.sort(key=lambda r: rank(seed, r["id"]))
    return {
        "down": [dict(r, task="down") for r in different[:size]],
        "up": [dict(swapped(r), task="up") for r in different[size:2 * size]],
        "same": [dict(r, task="same") for r in same[:size]],
    }


def split(items, ratios, seed, key):
    """{"train", "valid", "test"}: ``items`` ordered by the rank of ``key(item)``, cut in that order.

    valid and test get the floor of their share as written in decimal
    (0.29 of 100 is 29); train gets the rest.
    """
    ordered = sorted(items, key=lambda item: rank(seed, key(item)))
    n = len(ordered)
    n_valid, n_test = (int(n * Decimal(repr(ratio))) for ratio in ratios[1:])
    n_train = n - n_valid - n_test
    return {"train": ordered[:n_train], "valid": ordered[n_train:n_train + n_valid],
            "test": ordered[n_train + n_valid:]}


def split_command(records, ratios, seed):
    """What the split command writes: ``split`` of the records, each keyed by its id if no other record has it.

    An id is a string, or an integer read as its digits. A record without one,
    with one of another type, or with one that another record also has, is
    keyed by its JSONL line. Records of one key keep their input order.
    """
    ids = [str(r["id"]) if type(r.get("id")) in (str, int) else None for r in records]
    lines = [json.dumps(r, ensure_ascii=False, sort_keys=True) for r in records]
    keys = [i if i is not None and ids.count(i) == 1 else line for i, line in zip(ids, lines)]
    parts = split(range(len(records)), ratios, seed, key=lambda n: keys[n])
    return {name: [records[n] for n in part] for name, part in parts.items()}


def jsonl_bytes(records):
    """The bytes of a JSONL file of ``records`` as levelforge writes one."""
    return "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records).encode("utf-8")
