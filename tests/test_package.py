"""The package's surface: what an import loads, how the records behave, and the README's library example."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from levelforge.agreement import LabeledPrediction, RatingMatrix
from levelforge.corpus import FilterConfig, ParaphrasePair
from levelforge.genmetrics import EvalInstance, SariBreakdown
from levelforge.prompts import PromptSpec, Strategy
from levelforge.readability import ComplexityLevel, Scheme
from levelforge.textcore import Sentence

ROOT = Path(__file__).resolve().parent.parent


def test_a_module_import_loads_only_its_dependencies():
    code = ("import sys, levelforge.genmetrics; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'levelforge'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "levelforge", "levelforge.genmetrics", "levelforge.readability", "levelforge.textcore"]


def test_the_cli_loads_no_dataclasses_inspect_or_fractions():
    # Each costs every CLI process start-up time and memory that no command needs.
    code = ("import sys, levelforge.cli; "
            "print(*sorted({'dataclasses', 'inspect', 'fractions'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_the_cli_loads_no_hashlib():
    # hashlib maps OpenSSL's libcrypto, ~3 MB of peak RSS; only a command that hashes imports it.
    code = "import sys, levelforge.cli; print(*sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


B1 = ComplexityLevel(Scheme.CEFR6, 2)


@pytest.mark.parametrize("record, field", [
    (B1, "value"),
    (EvalInstance("a b", "a", ["a"]), "references"),
    (SariBreakdown(1.0, 2.0, 3.0, 2.0), "sari"),
    (Sentence(1, 2, 3), "word_count"),
    (LabeledPrediction(gold=B1, predicted=B1), "predicted"),
    (PromptSpec(Strategy.ABSOLUTE, target_level=B1), "target_level"),
], ids=["ComplexityLevel", "EvalInstance", "SariBreakdown", "Sentence", "LabeledPrediction", "PromptSpec"])
def test_set_once_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert getattr(record, field) is before


@pytest.mark.parametrize("make, fields", [
    (lambda: ParaphrasePair(id="p1", source="a b", target="c d"),
     {"id": "p1", "source": "a b", "target": "c d", "similarity": None, "source_level": None, "target_level": None}),
    (FilterConfig, {"min_words": 3, "sim_low": 0.60, "sim_high": 0.80, "require_similarity": True}),
    (RatingMatrix, {"cells": {}}),
], ids=["ParaphrasePair", "FilterConfig", "RatingMatrix"])
def test_records_keep_their_keyword_defaults(make, fields):
    record = make()
    assert {name: getattr(record, name) for name in fields} == fields


def test_each_rating_matrix_has_its_own_cells():
    assert RatingMatrix().cells is not RatingMatrix().cells


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.DOTALL | re.MULTILINE)
    exec(compile(block, "README.md", "exec"), {})
