"""Seeded input generators for the benchmark workloads.

Each generator writes the files one operation reads into a work directory
and returns a ``Prepared`` describing how to run the CLI on them. Only the
generated files reach the program; the seed picks the content, while the
sizes and the mix of pair types are fixed counts, so two seeds differ in
text but not in how much work of each kind they hold.

Nothing here imports levelforge: the expected facts used by the output
checks are derived from the generator's own construction.
"""
from __future__ import annotations

import functools
import json
import unicodedata
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from random import Random

MIXED_PAIRS = 20_000
EVAL_INSTANCES = 500
EVAL_REFERENCES = 8
STUDY_SYSTEMS = 4
STUDY_ITEMS = 300
STUDY_RATERS = 5

PROBE_FIFO = "probe.fifo"


@dataclass
class Prepared:
    """Inputs of one workload and the CLI calls that make one operation."""

    items: int
    commands: list[list[str]]  # levelforge argv lists, run in order
    probe: list[str]  # argv whose first input open marks the end of set-up
    props: dict  # workload properties recorded with every result
    expect: dict = field(default_factory=dict)  # facts the output checks use


# ------------------------------------------------------------- vocabulary

_FUNCTION_WORDS = (
    "the of and to a in is was for on that with by as it at from this be are "
    "were which or an has had not but they their its his her we our can will "
    "one all been more also into than some other new may only"
).split()
_ONSETS = ("", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r",
           "s", "t", "v", "w", "z", "br", "cl", "dr", "fl", "gr", "pl", "pr",
           "sh", "st", "str", "th", "tr", "ch", "sp", "bl")
_NUCLEI = ("a", "e", "i", "o", "u", "ai", "ea", "ee", "oo", "ou", "io", "y")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ck", "ng", "rt", "d")
_NON_ASCII = (
    "café", "naïve", "Zürich", "São", "façade", "déjà", "crème", "über",
    "piñata", "Ångström", "résumé", "Bogotá", "Dvořák", "smörgåsbord",
    "coöperate", "Île", "Málaga", "Kraków", "東京", "λόγος", "Москва",
    "straße", "señor", "über-fast",
)
_NUMERALS = ("42", "1,200", "3.5", "2019", "7", "0.25", "150", "12.75", "1990", "38")
_SHORT_REPLIES = ("Yes.", "Not really.", "Indeed!", "Why?", "Sure thing.", "No.")


class Vocabulary:
    """Zipfian word forms: a fixed lexicon, sampled with the run's RNG.

    The lexicon itself comes from a constant seed so every run sees the
    same distribution of word lengths and syllable counts; frequent ranks
    hold the short words, as in natural text.
    """

    def __init__(self, size: int = 4000, exponent: float = 1.07) -> None:
        rng = Random(20230804)
        forms = list(_FUNCTION_WORDS)
        seen = set(forms)
        while len(forms) < size:
            # Later ranks get longer words on average.
            rank_frac = len(forms) / size
            k = 1 + min(4, int(rng.expovariate(1.0 / (0.6 + 2.2 * rank_frac))))
            word = "".join(rng.choice(_ONSETS) + rng.choice(_NUCLEI) for _ in range(k))
            word += rng.choice(_CODAS)
            if word not in seen and len(word) > 1:
                seen.add(word)
                forms.append(word)
        self.forms = forms
        self.cum = list(accumulate(1.0 / (r + 1) ** exponent for r in range(size)))
        self.simple = forms[:300]

    def words(self, rng: Random, k: int) -> list[str]:
        return rng.choices(self.forms, cum_weights=self.cum, k=k)


@functools.cache
def vocabulary() -> Vocabulary:
    return Vocabulary()


def _sentence(rng: Random, n_words: int) -> str:
    words = vocabulary().words(rng, n_words)
    for i in range(len(words)):
        if rng.random() < 0.03:
            words[i] = rng.choice(_NUMERALS)
    if rng.random() < 0.2:
        words[rng.randint(0, len(words) - 2)] += ","
    text = " ".join(words)
    end = rng.choices((".", "?", "!"), weights=(8, 1, 1))[0]
    return text[0].upper() + text[1:] + end


def _simplify(rng: Random, sentence: str, p_swap: float, p_drop: float) -> str:
    """An edit of ``sentence``: frequent short words swapped in, some dropped.

    At least one word changes, so the result never equals the input.
    """
    simple = vocabulary().simple
    body, end = sentence[:-1], sentence[-1]
    words = body.split(" ")
    out = []
    changed = False
    for w in words:
        r = rng.random()
        if r < p_drop and len(words) > 4:
            changed = True
            continue
        if r < p_drop + p_swap and w.isalpha():
            repl = rng.choice(simple)
            if repl != w.lower():
                out.append(repl)
                changed = True
                continue
        out.append(w)
    if not changed or len(out) < 3:
        out = list(words)
        i = rng.randrange(len(out))
        out[i] = "plain" if out[i].lower() != "plain" else "simple"
    text = " ".join(out)
    return text[0].upper() + text[1:] + end


def _add_non_ascii(rng: Random, text: str) -> str:
    words = text.split(" ")
    form = rng.choice(_NON_ASCII)
    if rng.random() < 0.3:
        form = unicodedata.normalize("NFD", form)
    words.insert(rng.randint(1, len(words) - 1) if len(words) > 1 else 1, form)
    return " ".join(words)


def _stratified(rng: Random, n: int, lo: float, hi: float) -> list[float]:
    """n values spread evenly over [lo, hi), jittered, in random order."""
    values = [round(lo + (hi - lo) * (i + rng.random()) / n, 4) for i in range(n)]
    rng.shuffle(values)
    return values


def _cycle(rng: Random, n: int, choices: range | tuple) -> list:
    """n values cycling through ``choices`` equally often, in random order."""
    values = [choices[i % len(choices)] for i in range(n)]
    rng.shuffle(values)
    return values


def _write_pairs(path: Path, pairs: list[tuple[str, str, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (src, tgt, sim) in enumerate(pairs):
            fh.write(json.dumps({"id": f"p{i:07d}", "source": src, "target": tgt,
                                 "similarity": sim}, ensure_ascii=False))
            fh.write("\n")


# -------------------------------------------------------------- workloads


def pipeline_mixed(seed: int, workdir: Path) -> Prepared:
    """Noisy sentence-level corpus where most pairs are dropped."""
    rng = Random(seed)
    n = MIXED_PAIRS
    n_dup, n_contain, n_short, n_reorder = n // 20, n // 10, n // 20, n // 5
    kinds = (["contain"] * n_contain + ["short"] * n_short + ["reorder"] * n_reorder)
    kinds += ["para"] * (n - n_dup - len(kinds))
    rng.shuffle(kinds)
    non_ascii = set(rng.sample(range(len(kinds)), len(kinds) // 10))
    # Similarities spread evenly within each pair type (and the duplicates),
    # so the share of each type that survives the filter is fixed.
    sims = {k: _stratified(rng, kinds.count(k), 0.35, 1.0)
            for k in ("contain", "short", "reorder", "para")}
    sims["dup"] = _stratified(rng, n_dup, 0.35, 1.0)
    src_counts = _cycle(rng, len(kinds), (1, 2, 3))
    pairs: list[tuple[str, str, float]] = []
    sentences: list[int] = []
    for i, kind in enumerate(kinds):
        n_src = src_counts[i] if kind != "reorder" else 2 + src_counts[i] % 2
        src_sents = [_sentence(rng, rng.randint(4, 20)) for _ in range(n_src)]
        if i in non_ascii:
            k = rng.randrange(n_src)
            src_sents[k] = _add_non_ascii(rng, src_sents[k])
        if kind == "reorder":
            # Same-level: identical sentences in another order.
            k = rng.randrange(1, n_src)
            tgt_sents = src_sents[k:] + src_sents[:k]
        elif kind == "para":
            tgt_sents = [_simplify(rng, s, 0.3, 0.1) for s in src_sents]
            if len(tgt_sents) > 1 and rng.random() < 0.3:
                tgt_sents = [tgt_sents[0][:-1] + " and " + tgt_sents[1][0].lower()
                             + tgt_sents[1][1:]] + tgt_sents[2:]
        elif kind == "contain":
            words = " ".join(src_sents).split(" ")
            span = rng.randint(3, max(3, len(words) - 1))
            start = rng.randint(0, len(words) - span)
            tgt_sents = [" ".join(words[start:start + span]).rstrip(".?!,") + "."]
        else:
            tgt_sents = [rng.choice(_SHORT_REPLIES)]
        pairs.append((" ".join(src_sents), " ".join(tgt_sents), sims[kind].pop()))
        sentences += [len(src_sents), len(tgt_sents)]
    for sim in sims["dup"]:
        src, tgt, _sim = pairs[rng.randrange(len(pairs))]
        pairs.insert(rng.randrange(len(pairs) + 1), (src, tgt, sim))
    _write_pairs(workdir / "input.jsonl", pairs)
    for name, inp, out in (("config.json", "input.jsonl", "out"),
                           ("probe.json", PROBE_FIFO, "probe_out")):
        (workdir / name).write_text(json.dumps(
            {"input": inp, "output_dir": out, "scheme": "fkgl", "seed": seed}))
    # Exact duplicates as the pipeline's dedup sees them: same NFC text.
    duplicates = len(pairs) - len({(unicodedata.normalize("NFC", s),
                                    unicodedata.normalize("NFC", t)) for s, t, _ in pairs})
    non_ascii = sum(1 for s, t, _ in pairs if not (s.isascii() and t.isascii()))
    return Prepared(
        items=n,
        commands=[["pipeline", "--config", "config.json"]],
        probe=["pipeline", "--config", "probe.json"],
        props={
            "pairs": n,
            "duplicate_share": duplicates / n,
            "non_ascii_share": non_ascii / n,
            "mean_sentences_per_side": sum(sentences) / len(sentences),
            "similarity_in_band_share": sum(1 for *_, x in pairs if 0.6 <= x <= 0.8) / n,
        },
        expect={"duplicates": duplicates},
    )


def _repeat_output(rng: Random, source: str) -> str:
    words = source.rstrip(".?!").split(" ")
    span = rng.randint(3, 5)
    start = rng.randint(0, len(words) - span)
    phrase = words[start:start + span]
    return " ".join(phrase * rng.randint(6, 10)) + "."


def evaluation(seed: int, workdir: Path) -> Prepared:
    """System outputs with references, plus a Likert rating study."""
    rng = Random(seed)
    n = EVAL_INSTANCES
    n_copy, n_repeat = n * 15 // 100, n * 5 // 100
    kinds = ["copy"] * n_copy + ["repeat"] * n_repeat + ["edit"] * (n - n_copy - n_repeat)
    rng.shuffle(kinds)
    non_ascii = set(rng.sample(range(n), n // 10))
    src_counts = _cycle(rng, n, (1, 2))
    outputs, refs = [], []
    for i, kind in enumerate(kinds):
        source = " ".join(_sentence(rng, rng.randint(8, 16)) for _ in range(src_counts[i]))
        if i in non_ascii:
            source = _add_non_ascii(rng, source)
        sents = _split_generated(source)
        references = [" ".join(_simplify(rng, s, 0.25, 0.15) for s in sents)
                      for _ in range(EVAL_REFERENCES)]
        if kind == "copy":
            # Half verbatim, half differing only in case: both count as copies.
            output = source if rng.random() < 0.5 else source[0].lower() + source[1:]
        elif kind == "repeat":
            output = _repeat_output(rng, source)
        else:
            output = " ".join(_simplify(rng, s, 0.2, 0.1) for s in sents)
        outputs.append(output)
        refs.append({"source": source, "references": references})
    (workdir / "outputs.txt").write_text("".join(o + "\n" for o in outputs), encoding="utf-8")
    with open(workdir / "refs.jsonl", "w", encoding="utf-8") as fh:
        for r in refs:
            fh.write(json.dumps(r, ensure_ascii=False) + "\n")
    ratings = _likert_study(rng)
    with open(workdir / "ratings.tsv", "w", encoding="utf-8") as fh:
        fh.write("item_id\trater_id\tgroup\tvalue\n")
        for row in ratings:
            fh.write("\t".join(map(str, row)) + "\n")
    return Prepared(
        items=n,
        commands=[
            ["score", "--outputs", "outputs.txt", "--refs", "refs.jsonl",
             "--per-instance", "per_instance.tsv"],
            ["report", "ratings.tsv"],
        ],
        probe=["score", "--outputs", PROBE_FIFO, "--refs", "refs.jsonl",
               "--per-instance", "probe.tsv"],
        props={
            "instances": n,
            "references_per_instance": EVAL_REFERENCES,
            "copy_outputs": n_copy,
            "repeat_outputs": n_repeat,
            "non_ascii_share": len(non_ascii) / n,
            "mean_sentences_per_source": sum(src_counts) / n,
            "ratings": len(ratings),
        },
        expect={"copies": n_copy, "ratings": ratings},
    )


def _split_generated(text: str) -> list[str]:
    """Sentences of generator-built text without abbreviations.

    Each sentence ends in . ? or ! followed by a space or the end; the point
    of a decimal is followed by a digit, so it never ends one.
    """
    out, start = [], 0
    for i, ch in enumerate(text):
        if ch in ".?!" and (i + 1 == len(text) or text[i + 1] == " ") and i > start:
            out.append(text[start:i + 1])
            start = i + 2
    return out or [text]


def _likert_study(rng: Random) -> list[tuple[str, str, str, int]]:
    """Systems x items x raters on a 1-5 scale, ~5% cells missing."""
    rows = []
    for s in range(STUDY_SYSTEMS):
        group = f"system-{s}"
        for i in range(STUDY_ITEMS):
            quality = rng.gauss(2.6 + 0.4 * s, 0.9)
            for r in range(STUDY_RATERS):
                if rng.random() < 0.05:
                    continue
                value = round(quality + rng.gauss(0.15 * (r - 2), 0.7))
                rows.append((f"i{i:04d}", f"r{r}", group, min(5, max(1, value))))
    return rows


WORKLOADS = {
    "pipeline-mixed": pipeline_mixed,
    "eval": evaluation,
}
