"""The command matrix: every levelforge command whose output bytes are pinned, declared once.

``CASES`` maps each case to a function of a base input directory (for ``pipeline``, a
``config.json`` naming a pairs JSONL file and a seed, and that file; for ``eval``,
``outputs.txt``, ``refs.jsonl`` and ``ratings.tsv``). It derives every auxiliary file the
case's commands read into that directory and returns the commands, levelforge argv lists
in the order they run; together they run all 11 subcommands. ``small_inputs`` writes small
seeded base inputs, which ``scripts/output_digest.py`` runs the matrix on;
``scripts/same_outputs.py`` runs it on the benchmark workloads' inputs. Standard library
only; nothing here imports levelforge.
"""
from __future__ import annotations

import hashlib
import json
import random
import unicodedata
from pathlib import Path

CEFR6 = ("A1", "A2", "B1", "B2", "C1", "C2")
UTF8_LEVELS = ("Ä1", "Öß2", "水平", "\U0001f642")  # none ASCII; the last is outside the BMP
REFERENCE_CUTS = (1, 3)  # references per instance, cut to the first 1 and the first 3

SPLITTER_EDGES = (
    # abbreviations, one before a period that follows a newline as a regex ``$`` would skip
    "Dr. Smith met Mr. Jones, e.g. at St. Mark's etc. on time.",
    "He met Dr\n. Smith today.",
    "Go to st\n\n. now.",
    "See fig. 3, vol. 2 and pp. 4-5. Then i.e. this.",
    "It ends with etc.",
    "Mr.\nSmith left. A.B.C. went home.",
    # closers after the terminal punctuation
    '"Stop!" she said.',
    "He said (yes.) Then left. 'Why?!' Because.\u201d Right.\u2019",
    "Wait... what?! Really.",
    # a terminal inside a token
    "It costs 3.5 dollars.",
    "Use e.g.x here. Fine.",
    "3.5",
    "e.g.x",
    # whitespace that is not ASCII
    "One\u00a0word. Next\u00a0one.\u00a0",
    "Line\u2028break. After.\u2029Then.",
    "Sep\x1carated. Text.\x1f",
    "He left.\u3000Next. Last.\x85",
    # not in NFC
    "Cafe\u0301 is open. Re\u0301sume\u0301 here.",
    "A\u030angstro\u0308m. Done",
    # leading and trailing whitespace, no terminal, punctuation only
    "   Start here. End",
    "Done.  \n\n  ",
    "no terminal here",
    "...",
    "?! .",
    # whitespace-only and empty texts, which analyze skips
    " \n\t ",
    "\u00a0\u2028\x1c",
    "",
)

# ------------------------------------------------------------ small inputs

SIMPLE = ("the", "cat", "sat", "on", "a", "mat", "dog", "ran", "home", "big", "red", "sun", "we", "go")
HARD = ("committee", "deliberately", "considerable", "ambiguity", "regarding", "unprecedented",
        "evaluation", "café", "résumé", "İstanbul", "Dr.", "3.5", "etc.", "e.g.", "approximately")

# Few forms, so grams repeat; "The"/"the" fold together, and NFD marks, a
# precomposed twin and "İ" (which lowercases to two code points) test folding.
FROZEN_VOCAB = (
    "the", "The", "cat", "sat", "on", "mat", "a", "big", "dog", "ran", ".", ",",
    "Cafe\u0301", "café", "İstanbul", "re\u0301sume\u0301",
)


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


def ratings(rng, groups=("system-a", "system-b", "system-c"), items=25):
    """Ratings TSV text: each group's items rated 1-5 by two to four of five raters, one item by one."""
    lines = ["item_id\trater_id\tgroup\tvalue"]
    for group in groups:
        for k in range(items):
            raters = rng.sample(range(5), 1 if k == 0 else rng.randint(2, 4))
            lines += [f"{group}-{k}\tr{r}\t{group}\t{rng.randint(1, 5)}" for r in raters]
    return "".join(line + "\n" for line in lines)


def frozen_sari_instances(count=300, seed=2023):
    """Seeded (source, output, references) triples: copies, empty, one-token and looped outputs, 1-8 references."""
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
        instances.append((source, output, refs))
    return instances


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


def _write_rows(path, rows):
    """Tab-separated rows; no value holds a tab or line break."""
    path.write_text("".join("\t".join(map(str, row)) + "\n" for row in rows), encoding="utf-8")


def small_inputs(root: Path) -> None:
    """The base inputs of each case under ``root/<case>``: a seeded ~300-pair corpus, and
    50 eval instances with three groups' ratings."""
    pipeline, evald = root / "pipeline", root / "eval"
    for case in (pipeline, evald):
        case.mkdir(parents=True)
    _write_jsonl(pipeline / "corpus.jsonl", corpus(random.Random(404)))
    (pipeline / "config.json").write_text(json.dumps({"input": "corpus.jsonl", "output_dir": "out-fkgl", "seed": 5}))
    rng = random.Random(405)
    outputs, refs = eval_inputs(rng)
    (evald / "outputs.txt").write_text("".join(o + "\n" for o in outputs), encoding="utf-8")
    _write_jsonl(evald / "refs.jsonl", refs)
    (evald / "ratings.tsv").write_text(ratings(rng), encoding="utf-8")


# -------------------------------------------------------------------- cases

def _hashed(text: str) -> int:
    """A number from the first 48 bits of the SHA-256 of ``text``."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16)


def pipeline_case(workdir: Path) -> list[list[str]]:
    """The pipeline case's commands, its auxiliary files written into ``workdir``.

    ``sims.jsonl`` keys a similarity unlike the column's by the pairs' own
    ids, leaving every seventh id to fall back to the column; ``preds.jsonl``
    keys a CEFR6 level by each text's ``text_sha256``, leaving every ninth
    text without one; ``levels.jsonl`` holds a CEFR label, an integer or a
    decimal per input line; ``mixed-ids.jsonl`` is the pairs with every fifth
    id dropped and, of the rest, every seventh set to one shared id. Each
    value comes from a hash of its key.
    """
    base = json.loads((workdir / "config.json").read_text())
    pairs_file, seed = base["input"], str(base["seed"])
    pairs = [json.loads(line) for line in (workdir / pairs_file).read_text(encoding="utf-8").splitlines()]
    _write_jsonl(workdir / "sims.jsonl", ({"id": pair["id"], "similarity": _hashed(pair["id"]) % 1001 / 1000}
                                          for pair in pairs if _hashed(pair["id"]) % 7))
    keys = sorted({hashlib.sha256(unicodedata.normalize("NFC", text).encode("utf-8")).hexdigest()
                   for pair in pairs for text in (pair["source"], pair["target"])})
    _write_jsonl(workdir / "preds.jsonl", [{"scheme": "cefr6"}] + [
        {"text_sha256": key, "level": CEFR6[int(key[:8], 16) % 6]} for key in keys if int(key[8:16], 16) % 9
    ])
    kinds = (_hashed(f"level {lineno}") for lineno in range(1, len(pairs) + 1))  # a label per line of kept.jsonl
    _write_jsonl(workdir / "levels.jsonl", ({"level": (CEFR6[k % 6], k % 13, k % 130 / 10)[k // 6 % 3]} for k in kinds))
    rows = ((pair["source"], pair["target"], pair["similarity"]) for pair in pairs)  # a TSV row may omit the similarity
    _write_rows(workdir / "pairs.tsv", (row if row[2] is not None else row[:2] for row in rows))
    _write_jsonl(workdir / "splitter-edges.jsonl", ({"text": text} for text in SPLITTER_EDGES))
    _write_jsonl(workdir / "mixed-ids.jsonl", ({k: v for k, v in pair.items() if k != "id"} if n % 5 == 0
                                               else {**pair, "id": "shared"} if n % 7 == 0 else pair
                                               for n, pair in enumerate(pairs)))
    variants = {
        "file": {"similarity_source": "file", "similarity_file": "sims.jsonl"},
        "lexical": {"similarity_source": "builtin-lexical"},
        "none": {"similarity_source": "none"},
        "cefr6": {"scheme": "cefr6", "predictions": "preds.jsonl"},
    }
    for name, settings in variants.items():
        (workdir / f"config-{name}.json").write_text(json.dumps({**base, "output_dir": f"out-{name}", **settings}))
    prompt = ["prompt", "splits/train.jsonl", "--scheme", "fkgl", "--strategy"]
    return [
        ["pipeline", "--config", "config.json"],
        *(["pipeline", "--config", f"config-{name}.json"] for name in variants),
        ["filter", pairs_file, "-o", "kept.jsonl"],
        ["label", "kept.jsonl", "--scheme", "fkgl", "-o", "leveled.jsonl"],
        ["bucket", "leveled.jsonl", "--scheme", "fkgl", "-o", "tasks.jsonl"],
        ["split", "tasks.jsonl", "--seed", seed, "-o", "splits"],
        ["split", "mixed-ids.jsonl", "--seed", seed, "-o", "splits-mixed"],
        [*prompt, "rel", "-o", "prompted.jsonl"],
        [*prompt, "rel", "--format", "tsv", "-o", "prompted.tsv"],
        *([*prompt, strategy, "-o", f"prompted-{strategy}.jsonl"] for strategy in ("llm-rel", "llm-abs", "baseline")),
        ["bucket", "leveled.jsonl", "--scheme", "fkgl"],
        ["prompt", "splits/valid.jsonl", "--strategy", "abs", "--scheme", "fkgl"],
        ["bucket", "leveled.jsonl", "--scheme", "fkgl", "-o", "-"],
        ["label", "kept.jsonl", "--scheme", "cefr6", "--predictions", "preds.jsonl", "-o", "leveled-cefr6.jsonl"],
        ["bucket", "leveled-cefr6.jsonl", "--scheme", "cefr6", "-o", "tasks-cefr6.jsonl"],
        *(["prompt", "tasks-cefr6.jsonl", "--strategy", strategy, "--scheme", "cefr6",
           "-o", f"prompted-cefr6-{strategy}.jsonl"] for strategy in ("llm-abs", "abs")),
        ["analyze", "kept.jsonl", "-o", "analyzed.jsonl"],
        ["analyze", "kept.jsonl", "--levels", "levels.jsonl", "-o", "analyzed-levels.jsonl"],
        ["analyze", "splitter-edges.jsonl", "-o", "splitter-edges-analyzed.jsonl"],
        ["filter", "pairs.tsv", "-o", "kept-tsv.jsonl"],
        ["label", "kept-tsv.jsonl", "--scheme", "fkgl", "-o", "leveled-tsv.jsonl"],
    ]


def study_files(workdir: Path) -> None:
    """From ``ratings.tsv``, every rating with its item id qualified by its group, so that
    ``agree``, which pools every group, keeps the groups' items apart: study.tsv; study-single.tsv,
    the same with every seventh item rated once; study-decimal.tsv, the same with each value
    moved up by a hashed 0-0.29; and gold.jsonl and pred.jsonl, raters r0 and r1 as CEFR6 levels."""
    rows = [line.split("\t") for line in (workdir / "ratings.tsv").read_text(encoding="utf-8").splitlines()[1:]]
    rows = [(f"{group}/{item}", rater, group, int(value)) for item, rater, group, value in rows]
    order = {item: k for k, item in enumerate(dict.fromkeys(item for item, *_ in rows))}
    single, rated = [], set()
    for row in rows:
        if order[row[0]] % 7 or row[0] not in rated:
            single.append(row)
            rated.add(row[0])
    _write_rows(workdir / "study.tsv", rows)
    _write_rows(workdir / "study-single.tsv", single)
    moved = ((item, rater, group, value + _hashed(f"{item} {rater}") % 30 / 100) for item, rater, group, value in rows)
    _write_rows(workdir / "study-decimal.tsv", ((*row[:3], f"{row[3]:.2f}") for row in moved))
    levels = {(rater, item): CEFR6[value - 1] for item, rater, _, value in rows}
    items = sorted(item for rater, item in levels if rater == "r0" and ("r1", item) in levels)
    for name, rater in (("gold.jsonl", "r0"), ("pred.jsonl", "r1")):
        _write_jsonl(workdir / name, ({"id": item, "level": levels[rater, item]} for item in items))


def eval_case(workdir: Path) -> list[list[str]]:
    """The eval case's commands, its auxiliary files written into ``workdir``: the study files,
    ``refs-<n>.jsonl``, each instance's references cut to the first n, and ``levels-utf8.jsonl``,
    a hashed label of ``UTF8_LEVELS`` per line of ``outputs.txt``."""
    study_files(workdir)
    lines = len((workdir / "outputs.txt").read_text(encoding="utf-8").splitlines())
    labels = (UTF8_LEVELS[_hashed(f"utf8 level {lineno}") % len(UTF8_LEVELS)] for lineno in range(1, lines + 1))
    _write_jsonl(workdir / "levels-utf8.jsonl", ({"level": label} for label in labels))
    for keep in REFERENCE_CUTS:
        _write_jsonl(workdir / f"refs-{keep}.jsonl", (
            {**record, "references": record["references"][:keep]}
            for record in map(json.loads, (workdir / "refs.jsonl").read_text(encoding="utf-8").splitlines())))
    score = ["score", "--outputs", "outputs.txt", "--refs"]
    return [
        [*score, "refs.jsonl", "--per-instance", "per_instance.tsv"],
        ["report", "ratings.tsv"],
        *([*score, f"refs-{keep}.jsonl", "--per-instance", f"per_instance-{keep}.tsv"] for keep in REFERENCE_CUTS),
        [*score, "refs.jsonl", "--per-instance", "per_instance-rep100.tsv", "--repetition-n", "100"],
        ["analyze", "outputs.txt"],
        ["analyze", "outputs.txt", "--levels", "levels-utf8.jsonl"],
        ["agree", "study.tsv", "--metric", "ordinal"],
        ["agree", "study.tsv", "--metric", "ordinal", "--threshold", "3", "--gold-out", "gold_out.jsonl"],
        ["agree", "study-single.tsv", "--metric", "ordinal"],
        ["classifier-eval", "--gold", "gold.jsonl", "--pred", "pred.jsonl"],
        ["report", "ratings.tsv", "--format", "text"],
        ["report", "study-decimal.tsv"],
        ["agree", "study-decimal.tsv", "--metric", "ordinal"],
    ]


CASES = {"pipeline": pipeline_case, "eval": eval_case}
