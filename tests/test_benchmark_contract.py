"""The names the benchmark's tracer wraps must exist in levelforge.

``perfbench/tracer.py`` rebinds the functions in its ``TARGETS`` and fails a
run when a function in ``USES`` records no calls. Renaming or inlining one
of them, or no longer calling it on a workload's path, would otherwise show
up only when the benchmark runs.
"""
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


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


def traced_run(tmp_path, name, argv):
    """Run the CLI under the tracer in ``tmp_path``; the span file's path."""
    spans = tmp_path / f"{name}.spans.json"
    proc = subprocess.run(
        [sys.executable, str(TRACER_PATH), str(spans), "--", *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return str(spans)


def small_corpus(n=100):
    """Pairs of every kind the pipeline-mixed workload holds, a few of each."""
    for i in range(n):
        long = (f"The regional committee number {i} reviewed the complicated "
                f"infrastructure proposal extraordinarily carefully.")
        kind = i % 6
        if kind in (0, 1):  # different level
            yield long, f"The group {i} read the plan.", 0.7
        elif kind == 2:  # same level
            yield f"The fox {i} ran. The dog sat.", f"The dog sat. The fox {i} ran.", 0.7
        elif kind == 3:
            yield long, f"Committee number {i} reviewed the complicated", 0.7
        elif kind == 4:
            yield long, "Yes.", 0.7
        else:
            yield long, f"The group {i} read the plan.", 0.95 if i % 12 == 5 else 0.3


def test_tracer_sees_every_layer_of_pipeline_mixed(tracer, tmp_path):
    with open(tmp_path / "input.jsonl", "w", encoding="utf-8") as fh:
        for i, (src, tgt, sim) in enumerate(small_corpus()):
            fh.write(json.dumps({"id": f"p{i}", "source": src, "target": tgt,
                                 "similarity": sim}) + "\n")
    (tmp_path / "config.json").write_text(json.dumps(
        {"input": "input.jsonl", "output_dir": "out", "scheme": "fkgl", "seed": 1}))
    spans = traced_run(tmp_path, "pipeline", ["pipeline", "--config", "config.json"])
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert len(manifest["task_counts"]) == 3 and all(manifest["task_counts"].values())
    assert set(manifest["drop_reasons"]) == {"CONTAINMENT", "TOO_SHORT", "SIM_LOW", "SIM_HIGH"}
    m = tracer.operation_metrics([spans], 100, "pipeline-mixed")
    # Each side is tokenized once: by the filter, and labeling reuses it.
    assert m["textcore.tokenize.calls"] <= 2 * m["corpus.filter_pair.calls"]


def test_tracer_sees_every_layer_of_eval(tracer, tmp_path):
    sources = [f"The committee {i} reviewed the long proposal carefully. It was late."
               for i in range(10)]
    (tmp_path / "outputs.txt").write_text(
        "".join(f"The group {i} read the plan.\n" for i in range(10)))
    with open(tmp_path / "refs.jsonl", "w", encoding="utf-8") as fh:
        for i, src in enumerate(sources):
            refs = [f"The group {i} read the plan. It was late.", f"Committee {i} read it."]
            fh.write(json.dumps({"source": src, "references": refs}) + "\n")
    with open(tmp_path / "ratings.tsv", "w", encoding="utf-8") as fh:
        fh.write("item_id\trater_id\tgroup\tvalue\n")
        for group in ("sys1", "sys2"):
            for item in range(5):
                for rater in range(3):
                    fh.write(f"{group}-{item}\tr{rater}\t{group}\t{1 + (item + rater) % 5}\n")
    spans = [
        traced_run(tmp_path, "score", ["score", "--outputs", "outputs.txt", "--refs",
                                       "refs.jsonl", "--per-instance", "per_instance.tsv"]),
        traced_run(tmp_path, "report", ["report", "ratings.tsv"]),
    ]
    tracer.operation_metrics(spans, 10, "eval")
