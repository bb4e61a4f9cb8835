"""Every subcommand on inputs mutated from valid ones: an exit code, never a traceback.

Each example writes 1-5 lines per input file, each line valid or mutated:
wrong JSON types, lines that are not objects, NaN and infinities, empty
strings, half surrogate pairs, blank lines, bytes that are not UTF-8, and
TSV rows with the wrong number of columns. Whatever the input, the run must
exit 0, 1 or 2; a run that fails must leave stdout empty and write no
output, and on exit 1 name one of its input files; and every JSON it prints
or writes must parse with NaN and Infinity refused. A dataset command that
succeeds prints one summary whose counts add up: every record read is either
written out or dropped. A deterministic sweep holds the same invariants on
one-line inputs that give each key of a JSONL command's first record each
odd value, NaN and the infinities.
"""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge.cli import main

PAIRS = [
    {"id": "p1", "source": "The committee reviewed the complicated proposal very carefully today.",
     "target": "The group read the plan today.", "similarity": 0.7},
    {"id": "p2", "source": "The brave fox jumped over the lazy dog.",
     "target": "Over the lazy dog the brave fox jumped.", "similarity": 0.75},
    {"id": "p3", "source": "She walked home slowly after the long meeting.",
     "target": "After the long meeting she walked home.", "similarity": 0.65},
]
LEVELED = [dict(p, source_level=s, target_level=t)
           for p, (s, t) in zip(PAIRS, [("C1", "A2"), ("B1", "B1"), ("A2", "C1")])]
TASKED = [dict(p, task=t) for p, t in zip(LEVELED, ["down", "same", "up"])]
# FKGL levels are any finite numbers, and 1e30 is past the 28 digits of Decimal's default context.
FKGL_TASKED = [dict(p, source_level=s, target_level=t, task=task) for p, (s, t, task)
               in zip(PAIRS, [("11.50", "1e30", "up"), ("7.25", "7.25", "same"), ("11.50", "3.25", "down")])]
LEVELS = [{"id": f"s{i}", "level": level} for i, level in enumerate(["A1", "B2", "C1"])]
PREDICTIONS = [{"id": f"{p['id']}:{role}", "level": level}
               for p in PAIRS for role, level in (("source", "C1"), ("target", "A2"))]
RATINGS = [[f"s{i}", f"r{r}", "g", str((i + r) % 5 + 1)] for i in range(2) for r in range(3)]


def jsonl(records, header=()):
    return ("jsonl", list(header), records)


def tsv(rows, header=()):
    return ("tsv", list(header), rows)


def text(lines):
    return ("text", [], lines)


# Per command: its input files as (kind, header lines, valid lines), and its
# arguments. "{name}" is an input file, "@name" an output; outputs live in a
# directory of their own, which a failed run must leave empty.
COMMANDS = {
    "analyze": ({"texts.jsonl": jsonl([{"text": p["source"]} for p in PAIRS]),
                 "levels.jsonl": jsonl(LEVELS)},
                ["analyze", "{texts.jsonl}", "--levels", "{levels.jsonl}", "-o", "@rows.jsonl"]),
    "analyze-text": ({"texts.txt": text([p["target"] for p in PAIRS])},
                     ["analyze", "{texts.txt}", "-o", "@rows.jsonl"]),
    "pipeline": ({"corpus.jsonl": jsonl(PAIRS),
                  "sims.jsonl": jsonl([{"id": p["id"], "similarity": 0.7} for p in PAIRS]),
                  "config.json": jsonl([{"input": "{corpus.jsonl}", "output_dir": "@run",
                                         "similarity_source": "file", "seed": 5, "sim_low": 0.6,
                                         "similarity_file": "{sims.jsonl}"}])},
                 ["pipeline", "--config", "{config.json}"]),
    "filter": ({"pairs.jsonl": jsonl(PAIRS)},
               ["filter", "{pairs.jsonl}", "-o", "@kept.jsonl"]),
    "filter-tsv": ({"pairs.tsv": tsv([[p["source"], p["target"], "0.7"] for p in PAIRS])},
                   ["filter", "{pairs.tsv}", "-o", "@kept.jsonl"]),
    "label": ({"pairs.jsonl": jsonl(PAIRS),
               "preds.jsonl": jsonl(PREDICTIONS, header=[{"scheme": "cefr6"}])},
              ["label", "{pairs.jsonl}", "--scheme", "cefr6", "--predictions", "{preds.jsonl}",
               "-o", "@labeled.jsonl"]),
    "label-fkgl": ({"pairs.jsonl": jsonl(PAIRS)},
                   ["label", "{pairs.jsonl}", "--scheme", "fkgl", "-o", "@labeled.jsonl"]),
    "bucket": ({"leveled.jsonl": jsonl(LEVELED)},
               ["bucket", "{leveled.jsonl}", "--scheme", "cefr6", "-o", "@tasks.jsonl"]),
    "bucket-fkgl": ({"leveled.jsonl": jsonl(FKGL_TASKED)},
                    ["bucket", "{leveled.jsonl}", "--scheme", "fkgl", "-o", "@tasks.jsonl"]),
    "split": ({"tasks.jsonl": jsonl(TASKED)},
              ["split", "{tasks.jsonl}", "--seed", "3", "-o", "@splits"]),
    "prompt-abs": ({"tasks.jsonl": jsonl(TASKED)},
                   ["prompt", "{tasks.jsonl}", "--strategy", "abs", "--scheme", "cefr6",
                    "-o", "@prompted.jsonl"]),
    "prompt-abs-fkgl": ({"tasks.jsonl": jsonl(FKGL_TASKED)},
                        ["prompt", "{tasks.jsonl}", "--strategy", "abs", "--scheme", "fkgl",
                         "-o", "@prompted.jsonl"]),
    "prompt-rel": ({"tasks.jsonl": jsonl(TASKED)},
                   ["prompt", "{tasks.jsonl}", "--strategy", "rel", "--scheme", "cefr6",
                    "-o", "@prompted.jsonl"]),
    "score": ({"outputs.txt": text([p["target"] for p in PAIRS]),
               "refs.jsonl": jsonl([{"source": p["source"], "references": [p["target"], "A b."]}
                                    for p in PAIRS])},
              ["score", "--outputs", "{outputs.txt}", "--refs", "{refs.jsonl}",
               "--per-instance", "@per_instance.tsv"]),
    "classifier-eval": ({"gold.jsonl": jsonl(LEVELS),
                         "pred.jsonl": jsonl([dict(g, level="B1") for g in LEVELS])},
                        ["classifier-eval", "--gold", "{gold.jsonl}", "--pred", "{pred.jsonl}"]),
    "agree": ({"ratings.tsv": tsv(RATINGS, header=[["item_id", "rater_id", "group", "value"]])},
              ["agree", "{ratings.tsv}", "--metric", "ordinal", "--threshold", "2",
               "--gold-out", "@gold.jsonl"]),
    "report": ({"ratings.tsv": tsv(RATINGS)}, ["report", "{ratings.tsv}"]),
    "report-text": ({"ratings.tsv": tsv(RATINGS)}, ["report", "{ratings.tsv}", "--format", "text"]),
}
# The record commands again, writing their records to stdout.
for name in ("analyze", "filter", "label", "bucket", "prompt-abs"):
    files, template = COMMANDS[name]
    COMMANDS[f"{name}-stdout"] = (files, template[:template.index("-o")])
# The dataset commands: each prints a summary that counts the records of its first input file.
STAGES = ("filter", "label", "bucket", "split", "pipeline")

MUTATIONS = ["type", "not-object", "non-finite", "empty", "blank", "bytes", "columns", "surrogate"]
ODD_VALUES = [0, -1, 1.5, True, None, [], {}, ["a"], "x", 1e308]
NON_FINITE = ["nan", "inf", "-inf", "1e308", "-1e308", "NaN", "Infinity"]


def resolved(record, paths):
    """``record`` with each value that names a "{file}" or "@output" replaced by its path."""
    return {k: paths.get(v, v) if isinstance(v, str) else v for k, v in record.items()}


@st.composite
def mutated_line(draw, kind, valid, paths):
    """One line of ``kind`` as bytes: ``valid``, or (one time in four) a mutation of it."""
    mutation = draw(st.sampled_from([None] * 3 * len(MUTATIONS) + MUTATIONS))
    if kind == "jsonl":
        obj = resolved(valid, paths)
        key = draw(st.sampled_from(sorted(obj)))
        if mutation == "type":
            obj[key] = draw(st.sampled_from(ODD_VALUES))
        elif mutation == "non-finite":
            obj[key] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        elif mutation == "empty":
            obj[key] = ""
        elif mutation == "surrogate":
            obj[key] = f"{obj[key]}\ud800"
        elif mutation == "columns":
            del obj[key]
        line = json.dumps(obj)
        if mutation == "not-object":
            line = json.dumps(draw(st.sampled_from([[1, 2], 5, "text", None, True, [obj]])))
    else:
        cols = list(valid) if kind == "tsv" else [valid]
        i = draw(st.integers(0, len(cols) - 1))
        if mutation == "type":
            cols[i] = draw(st.sampled_from(["x", "[]", '{"a": 1}', "1,5"]))
        elif mutation == "non-finite":
            cols[i] = draw(st.sampled_from(NON_FINITE))
        elif mutation == "empty":
            cols[i] = ""
        elif mutation == "columns":
            if len(cols) > 1 and draw(st.booleans()):
                del cols[i]
            else:
                cols.insert(i, draw(st.sampled_from(["", "extra", "3"])))
        line = "\t".join(cols)
        if mutation == "not-object":
            line = draw(st.sampled_from(["[1, 2]", "5", "null", '"text"']))
    data = line.encode("utf-8")
    if mutation == "blank":
        data = draw(st.sampled_from([b"", b"   ", b"\t"]))
    elif mutation == "bytes":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x82", b"\x80"])) + data[at:]
    return data


@st.composite
def input_files(draw, files, paths):
    """{name: bytes}: per file its header lines and the same 1-5 body lines
    (one for a .json config), each maybe mutated."""
    n = draw(st.integers(1, 5))
    out = {}
    for name, (kind, header, valid) in files.items():
        lines = header + [valid[i % len(valid)] for i in range(1 if name.endswith(".json") else n)]
        out[name] = b"".join(draw(mutated_line(kind, line, paths)) + b"\n" for line in lines)
    return out


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text):
    return json.loads(text, parse_constant=_refuse)


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def check_run(command, inputs_of):
    """Run ``command`` on the input files ``inputs_of(paths)`` gives as {name: bytes}, ``paths``
    mapping each "{name}" and "@name" of its template to a file, and hold every invariant."""
    files, template = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        indir, outdir = Path(tmp, "in"), Path(tmp, "out")
        indir.mkdir()
        outdir.mkdir()
        paths = {f"{{{name}}}": str(indir / name) for name in files}
        paths.update({arg: str(outdir / arg[1:]) for arg in template if arg.startswith("@")})
        paths["@run"] = str(outdir / "run")
        inputs = inputs_of(paths)
        for name, content in inputs.items():
            (indir / name).write_bytes(content)

        code, stdout, stderr = _run([paths.get(arg, arg) for arg in template])

        assert code in (0, 1, 2)
        assert "Traceback" not in stderr
        if code != 0:
            assert stdout == ""
            assert stderr.startswith("error: ")
            assert list(outdir.iterdir()) == []
            if code == 1:
                assert any(paths[f"{{{name}}}"] in stderr for name in files)
            return
        if command.endswith("-stdout"):
            for line in stdout.splitlines():
                strict_json(line)
        elif stdout and command != "report-text":
            strict_json(stdout)
        for line in stderr.splitlines():
            strict_json(line)
        if template[0] in STAGES:
            summary = strict_json(stderr)
            records = inputs[next(iter(files))].splitlines()
            assert summary["in"] == sum(1 for line in records if line.strip())
            assert summary["in"] == summary["out"] + sum(summary["drops"].values())
            if command == "pipeline":
                manifest = strict_json((outdir / "run" / "manifest.json").read_text(encoding="utf-8"))
                assert summary["drops"] == manifest["drop_reasons"]
        for path in outdir.rglob("*.jsonl"):
            for line in path.read_text(encoding="utf-8").splitlines():
                strict_json(line)
        for path in outdir.rglob("*.json"):
            strict_json(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_inputs(command, data):
    files = COMMANDS[command][0]
    check_run(command, lambda paths: data.draw(input_files(files, paths)))


# Random mutations give one key one odd value about once per thousand lines; this
# sweep gives each key of a JSONL command's first record each odd value once.
@pytest.mark.parametrize("command", sorted(c for c, (files, _) in COMMANDS.items()
                                           if all(kind == "jsonl" for kind, _, _ in files.values())))
def test_each_key_takes_each_odd_value(command):
    files = COMMANDS[command][0]
    first, (_, _, valid) = next(iter(files.items()))

    def one_line_each(key, value):
        """Each file as its header lines and its first valid line, that of ``first`` with
        ``key`` set to ``value``."""
        def inputs_of(paths):
            lines = {name: [*header, body[0]] for name, (_, header, body) in files.items()}
            lines[first][-1] = {**valid[0], key: value}
            return {name: b"".join(json.dumps(resolved(line, paths)).encode() + b"\n" for line in rows)
                    for name, rows in lines.items()}
        return inputs_of

    for key in sorted(valid[0]):
        for value in [*ODD_VALUES, float("nan"), float("inf"), float("-inf")]:
            check_run(command, one_line_each(key, value))
