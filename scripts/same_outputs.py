"""Compare what two levelforge source trees do on the same valid inputs.

    python scripts/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``levelforge`` package (a checkout's
``src/``). For seeds 1-3 the script builds the inputs of the ``pipeline-mixed`` and
``eval`` benchmark workloads with ``perfbench/workloads.py`` and runs every command of
the command matrix (``tests/matrix.py``) on them under each tree, in a directory of its
own, and ``STREAMS`` too, which need the real pipes that a child's captured streams are.
It prints every stdout, stderr, exit code and written file that differs between the two
trees, and any command that does not exit 0, and exits 1 if there is one. For each
difference it lists every key path whose value differs when both sides parse as JSON
(manifests, stderr summaries, reports), else every differing line, up to ``LINE_CAP``.
Standard library only; the trees are run as subprocesses.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

import matrix  # noqa: E402
from workloads import evaluation, pipeline_mixed  # noqa: E402

SEEDS = (1, 2, 3)
LINE_CAP = 20
ABSENT = object()  # a key or list item one side does not have
STREAMS = [
    ["prompt", "splits/valid.jsonl", "--strategy", "abs", "--scheme", "fkgl", "-o", "/dev/stdout"],
    ["label", "kept.jsonl", "--scheme", "fkgl", "-o", "/dev/stderr"],
]


def cases(seed: int, inputs: Path) -> dict[str, list[list[str]]]:
    """Per case name, the levelforge argv lists it runs in order, its inputs made under ``inputs``."""
    for case, workload in (("pipeline", pipeline_mixed), ("eval", evaluation)):
        (inputs / case).mkdir(parents=True)
        workload(seed, inputs / case)
    return {"pipeline": matrix.pipeline_case(inputs / "pipeline") + STREAMS,
            "eval": matrix.eval_case(inputs / "eval")}


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
