import json
import sys
from pathlib import Path

import pytest

TESTS_DIR = Path(__file__).resolve().parent
FIXTURES = TESTS_DIR / "fixtures"

sys.path.insert(0, str(TESTS_DIR))


# One line per acceptance criterion, printed after the test summary so the
# PASS/FAIL verdicts survive pytest's output capture.
ACCEPTANCE_LINES = []


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "timing: asserts a wall-time bound; scripts/linecov.py runs it untraced"
    )


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def load_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.fixture(scope="session")
def fkgl_fixture():
    return load_jsonl(FIXTURES / "fkgl_sentences.jsonl")


@pytest.fixture(scope="session")
def sari_fixture():
    return load_jsonl(FIXTURES / "sari_triples.jsonl")


@pytest.fixture(scope="session")
def syllable_lexicon():
    rows = []
    with open(FIXTURES / "syllable_lexicon.tsv", encoding="utf-8") as fh:
        for line in fh:
            word, count = line.strip().split("\t")
            rows.append((word, int(count)))
    return rows
