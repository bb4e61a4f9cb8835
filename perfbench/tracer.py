"""Traced levelforge CLI run, and the per-layer metrics computed from it.

Run as a script, this wraps the public functions of each levelforge module
listed in ``TARGETS`` with span recorders, runs the CLI on the remaining
arguments and writes the spans it kept in memory to a JSON file:

    python3 perfbench/tracer.py SPANS.json -- pipeline --config config.json

Each wrapper is bound in place of the original under every name that
refers to it in any loaded levelforge module, so calls through an import
(``cli`` calling ``filter_pair``, ``corpus`` calling ``level_of``) are
traced as well as calls inside the defining module. A generator function
gets one span per ``next()``. A span's parent is the span open in the same
thread when it starts; a layer's self time is its span minus its children.

``operation_metrics`` turns the span files of one traced operation into
the per-layer metrics named in BENCHMARK.json; ``layer_metrics`` takes
their medians over a run's traced operations.
"""
from __future__ import annotations

import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time

TARGETS = {
    "textcore": ("tokenize", "word_tokens", "split_sentences", "sentence_stats", "ngrams"),
    "readability": ("level_of", "fkgl", "round2", "corpus_fkgl"),
    "corpus": ("pair_key", "filter_pair", "attach_levels", "bucket", "build_datasets",
               "split_dataset"),
    "dataio": ("read_pairs", "read_jsonl", "write_jsonl", "pair_to_record", "file_sha256"),
    "genmetrics": ("sari", "sari_r", "copy_rate", "repetition_score", "score_report"),
    "agreement": ("likert_report", "krippendorff_alpha"),
    "cli": ("parallel_map", "cmd_pipeline", "cmd_score"),
}
# `prompts` is left out on purpose: it only prepends fixed prefixes and no
# workload spends measurable time there.

# Counters read from return values; each maps a result to the amount added.
OBSERVERS = {
    "corpus.filter_pair": lambda r: int(bool(r[0])),  # pairs kept
    "corpus.build_datasets": lambda r: sum(len(d) for d in r[0].values()),  # pairs emitted
    "dataio.write_jsonl": lambda r: r,  # records written
}

# Functions each workload calls: a zero count for any of them means a name
# was not rebound (or the program stopped using it), and the run fails
# rather than report 0 s for that layer.
USES = {
    "pipeline-mixed": (
        "textcore.tokenize", "textcore.word_tokens", "textcore.split_sentences",
        "textcore.sentence_stats", "textcore.count_syllables",
        "readability.level_of", "readability.fkgl", "readability.round2",
        "readability.ComplexityLevel",
        "corpus.pair_key", "corpus.filter_pair", "corpus.attach_levels", "corpus.bucket",
        "corpus.build_datasets", "corpus.split_dataset",
        "dataio.read_pairs", "dataio.read_jsonl", "dataio.write_jsonl",
        "dataio.pair_to_record", "dataio.file_sha256",
        "cli.parallel_map", "cli.cmd_pipeline",
    ),
    "eval": (
        "textcore.tokenize", "textcore.word_tokens", "textcore.split_sentences",
        "textcore.sentence_stats", "textcore.ngrams", "textcore.count_syllables",
        "readability.corpus_fkgl", "dataio.read_jsonl",
        "genmetrics.sari", "genmetrics.sari_r", "genmetrics.copy_rate",
        "genmetrics.repetition_score", "genmetrics.score_report",
        "agreement.likert_report", "agreement.krippendorff_alpha", "cli.cmd_score",
    ),
}


class TraceError(RuntimeError):
    """The traced run cannot produce trustworthy per-layer numbers."""


class Tracer:
    """Spans per thread, kept in memory until ``dump``.

    A span is ``[name_index, start, end, parent_index]``; the parent index
    points into the same thread's list, -1 for a root span.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._threads: list[tuple[list, dict]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.constructions = itertools.count()

    def _state(self) -> tuple[list, list, dict]:
        try:
            return self._local.state
        except AttributeError:
            spans: list = []
            counters: dict = {}
            with self._lock:
                self._threads.append((spans, counters))
            self._local.state = (spans, [], counters)
            return self._local.state

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, name: str, fn):
        nid = self._name(name)
        observe = OBSERVERS.get(name)
        clock = time.perf_counter
        state = self._state

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        spans, stack, counters = state()
                        idx = len(spans)
                        spans.append([nid, clock(), 0.0, stack[-1] if stack else -1])
                        stack.append(idx)
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            spans[idx][2] = clock()
                            stack.pop()
                        counters[nid] = counters.get(nid, 0) + 1
                        yield item
                finally:
                    inner.close()

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack, counters = state()
            idx = len(spans)
            spans.append([nid, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if observe is not None:
                counters[nid] = counters.get(nid, 0) + observe(result)
            return result

        return wrapper

    def install(self) -> None:
        """Import levelforge and rebind every target name to its wrapper."""
        import levelforge.cli  # noqa: F401  (loads every module the CLI uses)
        from levelforge import readability

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "levelforge" or n.startswith("levelforge."))]
        for mod_name, names in TARGETS.items():
            module = sys.modules.get(f"levelforge.{mod_name}")
            if module is None:
                raise TraceError(f"levelforge.{mod_name} is not loaded by the CLI")
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    raise TraceError(f"levelforge.{mod_name}.{name} not found")
                wrapped = self.wrap(f"{mod_name}.{name}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

        init = readability.ComplexityLevel.__init__
        counter = self.constructions

        @functools.wraps(init)
        def counting_init(obj, *args, **kwargs):
            next(counter)
            init(obj, *args, **kwargs)

        readability.ComplexityLevel.__init__ = counting_init

    def dump(self, path: str) -> None:
        from levelforge import textcore

        info = textcore.count_syllables.cache_info()
        counters: dict[str, int] = {}
        for _spans, thread_counters in self._threads:
            for nid, value in thread_counters.items():
                counters[self.names[nid]] = counters.get(self.names[nid], 0) + value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "threads": [spans for spans, _ in self._threads],
                "counters": counters,
                "constructions": next(self.constructions),
                "syllable_cache": {"hits": info.hits, "misses": info.misses},
            }, fh)


def _self_times(doc: dict) -> dict[str, list[float]]:
    """name -> [spans, self seconds] over all threads."""
    out: dict[str, list[float]] = {}
    names = doc["names"]
    for spans in doc["threads"]:
        child = [0.0] * len(spans)
        for _nid, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (nid, start, end, _parent), inner in zip(spans, child):
            row = out.setdefault(names[nid], [0, 0.0])
            row[0] += 1
            row[1] += end - start - inner
    return out


def operation_metrics(span_files: list[str], items: int, workload: str) -> dict[str, float]:
    """Per-layer metrics of one traced operation (one or more CLI calls)."""
    calls: dict[str, float] = {}
    self_s: dict[str, float] = {}
    counters: dict[str, int] = {}
    constructions = hits = misses = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        for name, (n, own) in _self_times(doc).items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0) + value
        constructions += doc["constructions"]
        hits += doc["syllable_cache"]["hits"]
        misses += doc["syllable_cache"]["misses"]

    # A generator has one span per next() call; its counter holds the yields.
    yields = {n: counters.get(n, 0) for n in
              ("dataio.read_pairs", "corpus.attach_levels", "cli.parallel_map")}
    counts = dict(calls)
    counts["readability.ComplexityLevel"] = constructions
    counts["textcore.count_syllables"] = hits + misses
    missing = [n for n in USES[workload] if not counts.get(n)]
    if missing:
        raise TraceError(f"{workload}: traced functions recorded zero calls: {missing}")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {f"{name}.self_s": self_s.get(name, 0.0)
         for mod, names in TARGETS.items() for name in (f"{mod}.{n}" for n in names)}
    for name in ("textcore.tokenize", "textcore.split_sentences", "textcore.sentence_stats",
                 "textcore.ngrams", "readability.level_of", "corpus.pair_key",
                 "corpus.filter_pair", "corpus.bucket", "genmetrics.sari",
                 "agreement.krippendorff_alpha"):
        m[f"{name}.calls"] = calls.get(name, 0)
    m["textcore.tokenize.calls_per_item"] = calls.get("textcore.tokenize", 0) / items
    m["textcore.count_syllables.calls"] = hits + misses
    m["textcore.count_syllables.cache_hit_ratio"] = ratio(hits, hits + misses)
    m["readability.ComplexityLevel.constructions"] = constructions
    m["corpus.filter_pair.kept_ratio"] = ratio(
        counters.get("corpus.filter_pair", 0), calls.get("corpus.filter_pair", 0))
    m["corpus.build_datasets.used_ratio"] = ratio(
        counters.get("corpus.build_datasets", 0), yields["corpus.attach_levels"])
    m["dataio.read_pairs.items"] = yields["dataio.read_pairs"]
    m["dataio.write_jsonl.records"] = counters.get("dataio.write_jsonl", 0)
    m["genmetrics.sari.calls_per_instance"] = calls.get("genmetrics.sari", 0) / items
    m["cli.parallel_map.items"] = yields["cli.parallel_map"]
    # The consumer's time inside parallel_map's next() not covered by a
    # child span in its own thread: blocked on workers (or pool overhead).
    m["cli.parallel_map.wait_s"] = self_s.get("cli.parallel_map", 0.0)
    return m


def layer_metrics(operations: list[dict[str, float]]) -> dict[str, float]:
    """Median of each per-layer metric over traced operations."""
    return {k: statistics.median(op[k] for op in operations) for k in operations[0]}


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <levelforge arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    from levelforge.cli import main as cli_main

    code = cli_main(argv[2:])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
