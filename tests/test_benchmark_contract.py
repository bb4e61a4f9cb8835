"""The names the benchmark's tracer wraps must exist in levelforge.

``perfbench/tracer.py`` rebinds the functions in its ``TARGETS`` and fails a
run when a function in ``USES`` records no calls. Renaming or inlining one
of them would otherwise show up only when the benchmark runs.
"""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(dotted):
    module_name, name = dotted.split(".")
    return getattr(importlib.import_module(f"levelforge.{module_name}"), name, None)


def test_every_target_is_callable(tracer):
    missing = [f"{mod}.{name}" for mod, names in tracer.TARGETS.items() for name in names
               if not callable(resolve(f"{mod}.{name}"))]
    assert missing == []


def test_generator_targets_stay_generators(tracer):
    # The tracer counts these functions' yields, one span per next().
    for dotted in ("dataio.read_pairs", "corpus.attach_levels", "cli.parallel_map"):
        assert inspect.isgeneratorfunction(resolve(dotted)), dotted


def test_every_used_name_exists(tracer):
    missing = [dotted for names in tracer.USES.values() for dotted in names
               if not callable(resolve(dotted))]
    assert missing == []
