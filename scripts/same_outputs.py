"""Compare what two levelforge source trees do on the same valid inputs.

    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``levelforge`` package (a
checkout's ``src/``). For seeds 1-3 the script builds the inputs of the
``pipeline-mixed`` and ``eval`` benchmark workloads with
``perfbench/workloads.py`` and runs, under each tree, in a directory of its
own:

- each workload's own commands;
- ``pipeline`` on the ``pipeline-mixed`` input with each other similarity
  source (``file``, ``builtin-lexical``, ``none``), and under ``cefr6``
  with a predictions file;
- a filter -> label -> bucket -> split -> prompt chain on the pipeline
  input, some of its steps writing to stdout: without ``-o`` and with
  ``-o -``, ``-o /dev/stdout`` and ``-o /dev/stderr``, which under the
  captured streams are pipes; its label and bucket steps run again under
  ``cefr6`` with the predictions file, and its prompt step under every
  strategy and as TSV, and under ``cefr6`` as ``abs`` and ``llm-abs``;
- ``analyze`` on the kept pairs, bare and with a ``--levels`` file that
  mixes CEFR labels, integers and decimals;
- ``filter`` and then ``label`` on a TSV copy of the pipeline input;
- ``score --per-instance`` again on copies of the eval references cut to
  the first 1 and the first 3 of each instance's references, so SARI's
  scaling by the number of references is compared at more than one count,
  and with ``--repetition-n 100``, an order past every eval output;
- ``analyze``, ``classifier-eval``, ``report --format text``, and
  ``agree`` on one study system's ratings (``agree`` pools every group, and
  the systems share item ids), and ``agree`` again with every seventh item
  rated once, so that alpha's choice of pairable items is compared;
- ``report`` and ``agree --metric ordinal`` on that system's ratings moved
  off the integers by up to 0.29, about 150 distinct values, so ordinal
  alpha is compared over many more values than the five Likert points;
- ``analyze`` on ``SPLITTER_EDGES``, texts at the edges of the sentence
  splitter and the tokenizer, so their sentence, word and syllable counts
  are compared too.

It prints every stdout, stderr, exit code and written file that differs
between the two trees, and any command that does not exit 0, and exits 1
if there is one. For each difference it lists every key path whose value
differs when both sides parse as JSON (manifests, stderr summaries,
reports), else every differing line, up to ``LINE_CAP`` of them.
Standard library only; the trees are run as subprocesses.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unicodedata
from itertools import zip_longest
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import evaluation, pipeline_mixed  # noqa: E402

SEEDS = (1, 2, 3)
CEFR6 = ("A1", "A2", "B1", "B2", "C1", "C2")
LINE_CAP = 20
REFERENCE_CUTS = (1, 3)  # eval's references per instance, cut to the first 1 and the first 3
ABSENT = object()  # a key or list item one side does not have

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


def study_files(ratings: list, workdir: Path) -> None:
    """From one study system's ratings: ratings-system-0.tsv; ratings-single.tsv, the
    same with every seventh item rated once; ratings-decimal.tsv, the same with each
    value moved up by a hashed 0-0.29; and gold.jsonl and pred.jsonl, raters r0 and r1
    as CEFR6 levels."""
    by_rater: dict[str, dict[str, str]] = {"r0": {}, "r1": {}}
    rows = [row for row in ratings if row[2] == "system-0"]
    order = {item: k for k, item in enumerate(dict.fromkeys(item for item, *_ in rows))}
    rated: set[str] = set()
    with open(workdir / "ratings-system-0.tsv", "w", encoding="utf-8") as fh, \
            open(workdir / "ratings-single.tsv", "w", encoding="utf-8") as single, \
            open(workdir / "ratings-decimal.tsv", "w", encoding="utf-8") as decimal:
        for item, rater, group, value in rows:
            fh.write(f"{item}\t{rater}\t{group}\t{value}\n")
            decimal.write(f"{item}\t{rater}\t{group}\t{value + _hashed(f'{item} {rater}') % 30 / 100:.2f}\n")
            if order[item] % 7 or item not in rated:
                single.write(f"{item}\t{rater}\t{group}\t{value}\n")
                rated.add(item)
            if rater in by_rater:
                by_rater[rater][item] = CEFR6[value - 1]
    items = sorted(by_rater["r0"].keys() & by_rater["r1"].keys())
    for name, rater in (("gold.jsonl", "r0"), ("pred.jsonl", "r1")):
        with open(workdir / name, "w", encoding="utf-8") as fh:
            for item in items:
                fh.write(json.dumps({"id": item, "level": by_rater[rater][item]}) + "\n")


def _hashed(text: str) -> int:
    """A number from the first 48 bits of the SHA-256 of ``text``."""
    return int(hashlib.sha256(text.encode("utf-8")).hexdigest()[:12], 16)


def pipeline_variants(workdir: Path) -> list[list[str]]:
    """Configs that run the workload's ``pipeline`` through every other front-end branch.

    ``sims.jsonl`` keys a similarity unlike the column's by the input's own
    ids, leaving every seventh id to fall back to the column; ``preds.jsonl``
    keys a CEFR6 level by each text's ``text_sha256``, leaving every tenth
    text without one. Both values come from a hash of the key.
    """
    base = json.loads((workdir / "config.json").read_text())
    pairs = [json.loads(line) for line in (workdir / "input.jsonl").read_text(encoding="utf-8").splitlines()]
    with open(workdir / "sims.jsonl", "w", encoding="utf-8") as fh:
        for pair in pairs:
            if _hashed(pair["id"]) % 7:
                similarity = _hashed(pair["id"]) % 1001 / 1000
                fh.write(json.dumps({"id": pair["id"], "similarity": similarity}) + "\n")
    keys = sorted({hashlib.sha256(unicodedata.normalize("NFC", text).encode("utf-8")).hexdigest()
                   for pair in pairs for text in (pair["source"], pair["target"])})
    with open(workdir / "preds.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"scheme": "cefr6"}) + "\n")
        for key in keys:
            if int(key[:12], 16) % 10:
                fh.write(json.dumps({"text_sha256": key, "level": CEFR6[int(key[12:24], 16) % 6]}) + "\n")
    variants = {
        "file": {"similarity_source": "file", "similarity_file": "sims.jsonl"},
        "lexical": {"similarity_source": "builtin-lexical"},
        "none": {"similarity_source": "none"},
        "cefr6": {"scheme": "cefr6", "predictions": "preds.jsonl"},
    }
    commands = []
    for name, settings in variants.items():
        config = {**base, "output_dir": f"out-{name}", **settings}
        (workdir / f"config-{name}.json").write_text(json.dumps(config))
        commands.append(["pipeline", "--config", f"config-{name}.json"])
    return commands


def cases(seed: int, inputs: Path) -> dict[str, list[list[str]]]:
    """Per case name, the levelforge argv lists it runs in order, its inputs made under ``inputs``."""
    mixed, evald = inputs / "pipeline-mixed", inputs / "eval"
    mixed.mkdir(parents=True)
    evald.mkdir(parents=True)
    prepared = pipeline_mixed(seed, mixed)
    scored = evaluation(seed, evald)
    study_files(scored.expect["ratings"], evald)
    for keep in REFERENCE_CUTS:
        with open(evald / f"refs-{keep}.jsonl", "w", encoding="utf-8") as fh:
            for line in (evald / "refs.jsonl").read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                fh.write(json.dumps({**record, "references": record["references"][:keep]}) + "\n")
    with open(mixed / "splitter-edges.jsonl", "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps({"text": text}) + "\n" for text in SPLITTER_EDGES)
    with open(mixed / "levels.jsonl", "w", encoding="utf-8") as fh:  # a label per line of kept.jsonl
        for lineno in range(1, prepared.items + 1):
            kind = _hashed(f"level {lineno}")
            label = (CEFR6[kind % 6], kind % 13, kind % 130 / 10)[kind // 6 % 3]
            fh.write(json.dumps({"level": label}) + "\n")
    with open(mixed / "input.tsv", "w", encoding="utf-8") as fh:  # no text holds a tab or line break
        for line in (mixed / "input.jsonl").read_text(encoding="utf-8").splitlines():
            pair = json.loads(line)
            fh.write(f"{pair['source']}\t{pair['target']}\t{pair['similarity']!r}\n")
    chain = [
        ["filter", "input.jsonl", "-o", "kept.jsonl"],
        ["label", "kept.jsonl", "--scheme", "fkgl", "-o", "leveled.jsonl"],
        ["bucket", "leveled.jsonl", "--scheme", "fkgl", "-o", "tasks.jsonl"],
        ["split", "tasks.jsonl", "--seed", str(seed), "-o", "splits"],
        ["prompt", "splits/train.jsonl", "--strategy", "rel", "--scheme", "fkgl", "-o", "prompted.jsonl"],
        ["prompt", "splits/train.jsonl", "--strategy", "rel", "--scheme", "fkgl", "--format", "tsv",
         "-o", "prompted.tsv"],
        *(["prompt", "splits/train.jsonl", "--strategy", strategy, "--scheme", "fkgl",
           "-o", f"prompted-{strategy}.jsonl"] for strategy in ("llm-rel", "llm-abs", "baseline")),
        ["bucket", "leveled.jsonl", "--scheme", "fkgl"],
        ["prompt", "splits/valid.jsonl", "--strategy", "abs", "--scheme", "fkgl"],
        ["bucket", "leveled.jsonl", "--scheme", "fkgl", "-o", "-"],
        ["prompt", "splits/valid.jsonl", "--strategy", "abs", "--scheme", "fkgl", "-o", "/dev/stdout"],
        ["label", "kept.jsonl", "--scheme", "fkgl", "-o", "/dev/stderr"],
        ["label", "kept.jsonl", "--scheme", "cefr6", "--predictions", "preds.jsonl",
         "-o", "leveled-cefr6.jsonl"],
        ["bucket", "leveled-cefr6.jsonl", "--scheme", "cefr6", "-o", "tasks-cefr6.jsonl"],
        *(["prompt", "tasks-cefr6.jsonl", "--strategy", strategy, "--scheme", "cefr6",
           "-o", f"prompted-cefr6-{strategy}.jsonl"] for strategy in ("llm-abs", "abs")),
        ["analyze", "kept.jsonl", "-o", "analyzed.jsonl"],
        ["analyze", "kept.jsonl", "--levels", "levels.jsonl", "-o", "analyzed-levels.jsonl"],
        ["analyze", "splitter-edges.jsonl", "-o", "splitter-edges-analyzed.jsonl"],
        ["filter", "input.tsv", "-o", "kept-tsv.jsonl"],
        ["label", "kept-tsv.jsonl", "--scheme", "fkgl", "-o", "leveled-tsv.jsonl"],
    ]
    reports = [
        *(["score", "--outputs", "outputs.txt", "--refs", f"refs-{keep}.jsonl",
           "--per-instance", f"per_instance-{keep}.tsv"] for keep in REFERENCE_CUTS),
        ["score", "--outputs", "outputs.txt", "--refs", "refs.jsonl", "--per-instance", "per_instance-rep100.tsv",
         "--repetition-n", "100"],
        ["analyze", "outputs.txt"],
        ["agree", "ratings-system-0.tsv", "--metric", "ordinal", "--threshold", "3", "--gold-out", "gold_out.jsonl"],
        ["agree", "ratings-single.tsv", "--metric", "ordinal"],
        ["classifier-eval", "--gold", "gold.jsonl", "--pred", "pred.jsonl"],
        ["report", "ratings-system-0.tsv", "--format", "text"],
        ["report", "ratings-decimal.tsv"],
        ["agree", "ratings-decimal.tsv", "--metric", "ordinal"],
    ]
    return {
        "pipeline-mixed": prepared.commands + pipeline_variants(mixed) + chain,
        "eval": scored.commands + reports,
    }


def run_tree(src: Path, inputs: Path, workdir: Path, commands: list[list[str]]) -> tuple[list, dict]:
    """Run ``commands`` under the tree at ``src`` in a copy of ``inputs``:
    (argv, exit code, stdout, stderr) per command, and every file left, by relative path."""
    shutil.copytree(inputs, workdir)
    env = {**os.environ, "PYTHONPATH": str(src)}
    results = []
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "levelforge.cli", *argv], cwd=workdir,
                              env=env, capture_output=True, timeout=600)
        results.append((argv, proc.returncode, proc.stdout, proc.stderr))
    files = {str(p.relative_to(workdir)): p.read_bytes() for p in sorted(workdir.rglob("*")) if p.is_file()}
    return results, files


def _shown(value: object) -> str:
    return "<none>" if value is ABSENT else repr(value)[:300]


def json_differences(a: object, b: object, path: str = "$") -> Iterator[str]:
    """Each key path under ``path`` whose value differs between JSON values ``a`` and ``b``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            yield from json_differences(a.get(key, ABSENT), b.get(key, ABSENT), f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list):
        for i in range(max(len(a), len(b))):
            yield from json_differences(a[i] if i < len(a) else ABSENT,
                                        b[i] if i < len(b) else ABSENT, f"{path}[{i}]")
    elif repr(a) != repr(b):  # repr, so 1 and 1.0 differ and NaN equals NaN
        yield f"{path}: parent {_shown(a)}, change {_shown(b)}"


def differences(a: bytes, b: bytes) -> str:
    """Every difference between ``a`` and ``b``, one indented line each: the key paths whose
    values differ when both parse as JSON, else the lines that differ, at most ``LINE_CAP``."""
    try:
        found = list(json_differences(json.loads(a), json.loads(b))) or ["same values, other formatting"]
    except ValueError:  # not JSON, or not UTF-8
        pairs = zip_longest(a.splitlines(), b.splitlines(), fillvalue=b"<none>")
        found = [f"line {i + 1}: parent {left[:300]!r}, change {right[:300]!r}"
                 for i, (left, right) in enumerate(pairs) if left != right]
        found = found or ["same lines, other line endings"]
        if len(found) > LINE_CAP:
            found[LINE_CAP:] = [f"and {len(found) - LINE_CAP} more lines"]
    return "".join(f"\n    {line}" for line in found)


def compare(label: str, parent: tuple[list, dict], change: tuple[list, dict]) -> list[str]:
    """Every difference between two runs of one case, and every command that did not exit 0."""
    problems = []
    for (argv, code_p, out_p, err_p), (_, code_c, out_c, err_c) in zip(parent[0], change[0]):
        command = f"{label}: levelforge {' '.join(argv)}"
        if code_p != code_c:
            problems.append(f"{command}: exit code {code_p} -> {code_c}")
        elif code_p != 0:
            problems.append(f"{command}: exit code {code_p} in both trees")
        for stream, a, b in (("stdout", out_p, out_c), ("stderr", err_p, err_c)):
            if a != b:
                problems.append(f"{command}: {stream} differs:{differences(a, b)}")
    files_p, files_c = parent[1], change[1]
    for name in sorted(files_p.keys() | files_c.keys()):
        if name not in files_c or name not in files_p:
            problems.append(f"{label}: {name} written only by the {'parent' if name in files_p else 'change'}")
        elif files_p[name] != files_c[name]:
            problems.append(f"{label}: {name} differs:{differences(files_p[name], files_c[name])}")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all((Path(a) / "levelforge").is_dir() for a in argv):
        print(__doc__, file=sys.stderr)
        return 2
    parent_src, change_src = (Path(a).resolve() for a in argv)
    problems = []
    with tempfile.TemporaryDirectory(prefix="same_outputs.") as tmp:
        for seed in SEEDS:
            inputs = Path(tmp, f"seed{seed}", "inputs")
            for name, commands in cases(seed, inputs).items():
                label = f"seed {seed} {name}"
                runs = [run_tree(src, inputs / name, Path(tmp, f"seed{seed}", side, name), commands)
                        for side, src in (("parent", parent_src), ("change", change_src))]
                found = compare(label, *runs)
                print(f"{label}: {len(commands)} commands, {len(runs[0][1])} files, "
                      f"{len(found)} differences", flush=True)
                problems += found
    for line in problems:
        print(line)
    print(f"{len(problems)} differences" if problems else "no differences")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
