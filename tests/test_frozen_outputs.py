"""Frozen SHA-256 digests of every file that ``pipeline`` and ``score --per-instance`` write.

The inputs are built here from a seeded generator. Every command runs from
one directory with relative paths, so the manifests' config hashes and
input keys do not depend on where the test runs. A changed output byte
fails the test; a declared output change updates ``DIGESTS`` in the same
change. The ``score`` report on stdout is left out: its means go through
``sum()``, which rounds differently from Python 3.12 on.
"""
import hashlib
import json
import random
import unicodedata

from levelforge.cli import main
from levelforge.corpus import text_sha256

CEFR6 = ("A1", "A2", "B1", "B2", "C1", "C2")
SIMPLE = ("the", "cat", "sat", "on", "a", "mat", "dog", "ran", "home", "big", "red", "sun", "we", "go")
HARD = ("committee", "deliberately", "considerable", "ambiguity", "regarding", "unprecedented",
        "evaluation", "café", "résumé", "İstanbul", "Dr.", "3.5", "etc.", "e.g.", "approximately")


def sentence(rng, words, low, high):
    text = " ".join(rng.choice(words) for _ in range(rng.randint(low, high)))
    return text[0].upper() + text[1:] + rng.choice((".", ".", "!", "?"))


def corpus(rng, count=300):
    """Pair records of every kind ``pipeline`` meets, one kind per ``k % 10``."""
    records = []
    for k in range(count):
        kind, sim = k % 10, rng.choice((0.6, 0.65, 0.7, 0.75, 0.8))  # the band is inclusive
        if kind == 9:
            kind = k // 10 % 3  # one more of each task
        source = " ".join(sentence(rng, HARD + SIMPLE, 8, 16) for _ in range(rng.randint(1, 2)))
        target = sentence(rng, SIMPLE, 4, 8)
        if kind == 1:  # a reordering: the same counts, so the same FKGL level
            words = [rng.choice(SIMPLE + HARD[:6]) for _ in range(rng.randint(5, 12))]
            source = " ".join(words).capitalize() + "."
            target = " ".join(rng.sample(words, len(words))).capitalize() + "."
        elif kind == 2:
            source, target = target, source
        elif kind == 3:
            sim = rng.choice((0.3, 0.59, None))
        elif kind == 4:
            sim = rng.choice((0.81, 0.97))
        elif kind in (5, 6) and records:
            earlier = rng.choice(records)
            source, target, sim = earlier["source"], earlier["target"], earlier["similarity"]
            if kind == 6:  # equal to an earlier pair only after NFC
                source, target = (unicodedata.normalize("NFD", t) for t in (source, target))
        elif kind == 7:
            target = rng.choice(("Go home.", "Yes!", "... ?"))
        elif kind == 8:
            target = " ".join(source.split()[: rng.randint(3, 6)]).upper()
        records.append({"id": f"p{k:03d}", "source": source, "target": target, "similarity": sim})
    return records


def eval_inputs(rng, count=50):
    """(outputs, refs) lines: copies, empty, looped and edited outputs, 1-4 references."""
    outputs, refs = [], []
    for k in range(count):
        source = sentence(rng, HARD + SIMPLE, 6, 14)
        references = [sentence(rng, SIMPLE, 3, 10) for _ in range(rng.randint(1, 4))]
        output = (source, "", " ".join([sentence(rng, SIMPLE, 1, 3)] * 4), references[0],
                  sentence(rng, SIMPLE, 3, 10))[k % 5]
        outputs.append(output)
        refs.append({"source": source, "references": references})
    return outputs, refs


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


# SHA-256 of each written file, by its path under the run directory.
DIGESTS = {
    "out-cefr6/complexification.test.jsonl": "46605114853b54bccee4836b8898718e0257f8d7887ce4263d00bc68ebedbbce",
    "out-cefr6/complexification.train.jsonl": "05e2b4dea1bcec2ff571d30b7325911d0af4611bda58239fa2468766a53cb0ad",
    "out-cefr6/complexification.valid.jsonl": "0a7659d9aaac082175cdfb52087fd8af48bfe008ccdc212992932703283072d5",
    "out-cefr6/manifest.json": "26c74dbec8965d9a34630060b324bb6f1a009632efb0ad562dd7d58d9ad78686",
    "out-cefr6/same_level.test.jsonl": "51a1b6c49fb30d81b23d42853d66b95fde720d1b4be57c6a28f280996fd028b7",
    "out-cefr6/same_level.train.jsonl": "4f00a8ccda533e76a59bb35f4c84b49aea95539696204f846a0743c31a769650",
    "out-cefr6/same_level.valid.jsonl": "4e4d70a553b2a33cd031761b4b79e201bfa20230eb1ad8651f0ce2a980cbc6a1",
    "out-cefr6/simplification.test.jsonl": "0a8cdda0552858a5db7568d4f85d0430982b5bedde3f9095edbe08411196f650",
    "out-cefr6/simplification.train.jsonl": "eb96b4878ba7025d40ccb6222b728a2b0a99d6de415c61c864e7b2fcddb9039e",
    "out-cefr6/simplification.valid.jsonl": "866da0fc257825228b656e22d91a4b7884d09bfb4fa98003fd0acbea23905e4b",
    "out-fkgl/complexification.test.jsonl": "a39c1542a33613f276274fca6154164bac5e3ce7c17d1aa610297eef331ba5fb",
    "out-fkgl/complexification.train.jsonl": "5082d8d71bd98a7fea42d49e98f1bde15bb8c5a3cd2531b93ee458bcabb6c5c5",
    "out-fkgl/complexification.valid.jsonl": "8b6ce1f25f1b455c607cdcb77777cd368cae745ef2894ec4adbb265d8a3c6aba",
    "out-fkgl/manifest.json": "d11fd1f940061fe450674bbd23aac4539ee763d4668ba005292b84c3e23563a2",
    "out-fkgl/same_level.test.jsonl": "366c81de7b8d4411a5be4ba9ce23f60638e1b2512b1df66d8c37e9eace0cfe13",
    "out-fkgl/same_level.train.jsonl": "960aea906933306a73f1f03706a948969bf38b8398659c4195be1623dd61977f",
    "out-fkgl/same_level.valid.jsonl": "20e5a7a1a260dcea86d2fc0bcc381f7c5ca7c08197d23cdf40d03c8fea91523a",
    "out-fkgl/simplification.test.jsonl": "17218180dedb1b3f45646c4ea83cebd424b84090f73c6aa34fa14023ef4cf722",
    "out-fkgl/simplification.train.jsonl": "c942ccedbccf021d5f9f1e71b2dfd89e459d41e30b9e342b50bed6e764d9da1e",
    "out-fkgl/simplification.valid.jsonl": "c91c649447b8ee5a0d4bd7116bd803de4c5499c4fd86ffe95a031b9de0e014da",
    "per_instance.tsv": "201ed83618282ad9558691a34520610f181435775ce9a1d0c55be24a6efe2aaf",
}


def test_written_files_are_frozen(tmp_path, monkeypatch):
    rng = random.Random(404)
    records = corpus(rng)
    write_jsonl(tmp_path / "corpus.jsonl", records)
    texts = sorted({text_sha256(r[side]) for r in records for side in ("source", "target")})
    write_jsonl(tmp_path / "preds.jsonl", [{"scheme": "cefr6"}] + [
        {"text_sha256": key, "level": CEFR6[int(key[:8], 16) % 6]}
        for key in texts if int(key[8:16], 16) % 9  # every ninth text has none: LEVEL_MISSING
    ])
    outputs, refs = eval_inputs(rng)
    (tmp_path / "outputs.txt").write_text("".join(o + "\n" for o in outputs), encoding="utf-8")
    write_jsonl(tmp_path / "refs.jsonl", refs)
    configs = {
        "fkgl": {"input": "corpus.jsonl", "output_dir": "out-fkgl", "seed": 5},
        "cefr6": {"input": "corpus.jsonl", "output_dir": "out-cefr6", "seed": 5,
                  "scheme": "cefr6", "predictions": "preds.jsonl"},
    }
    for name, config in configs.items():
        (tmp_path / f"config-{name}.json").write_text(json.dumps(config))
    inputs = {p.name for p in tmp_path.iterdir()}
    monkeypatch.chdir(tmp_path)
    for name in configs:
        assert main(["pipeline", "--config", f"config-{name}.json"]) == 0
    assert main(["score", "--outputs", "outputs.txt", "--refs", "refs.jsonl",
                 "--per-instance", "per_instance.tsv"]) == 0
    written = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p.relative_to(tmp_path).parts[0] not in inputs
    }
    assert written == DIGESTS
