#!/usr/bin/env python3
"""levelforge benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload pipeline-mixed --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the package is taken from ``src/``.
The run generates the workload's inputs from the seed, then runs the real
CLI as a subprocess (started through ``spawn.py``), one operation after
another, until ``--seconds`` have passed, timing the CLI's set-up before
each operation, and checks every operation's outputs. It prints one line per metric (median, quartiles,
sample count) and, as the last line, a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run alternates untraced and traced operations, so it also reports
the tracing overhead. The full result is kept under ``.bench_out/results``
for ``compare.py``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402
from workloads import PROBE_FIFO, WORKLOADS, Prepared  # noqa: E402

# The same entry point as the installed `levelforge` console script.
CLI_SHIM = "import sys; from levelforge.cli import main; sys.exit(main())"
MIN_SETUP_PROBES = 7
CALL_TIMEOUT_S = 60.0
PROBE_TIMEOUT_S = 20.0
RUN_LIMIT_S = 150.0  # stop starting operations after this, whatever --seconds says


def machine() -> dict:
    """What a result is only comparable on: interpreter, CPUs, platform."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "arch": platform.machine(),
    }


@dataclass
class Call:
    argv: list[str]
    code: int | None  # None: timed out
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Operation:
    traced: bool
    calls: list[Call]
    problems: list[str] = field(default_factory=list)
    digest: str = ""
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.calls)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def completed(self) -> bool:
        """Every CLI call exited 0, so the costs are measured (checks aside)."""
        return all(c.code == 0 for c in self.calls)


class Runner:
    """Runs the CLI on one workload's inputs inside ``workdir``."""

    def __init__(self, workload: str, seed: int, workdir: Path, prepared: Prepared) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.prepared = prepared
        # One worker thread: the default users get.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LEVELFORGE_THREADS="1")
        self.checked: dict[str, list[str]] = {}

    def warm_up(self) -> None:
        """Import the package once (compiling bytecode) and confirm its origin."""
        out = subprocess.run(
            [sys.executable, "-c", "import levelforge; print(levelforge.__file__)"],
            cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=60,
            check=True)
        origin = Path(out.stdout.strip()).resolve()
        if ROOT / "src" not in origin.parents:
            raise RuntimeError(f"levelforge imported from {origin}, not from this checkout")

    def _spawn(self, *args: str) -> dict:
        out = subprocess.run([sys.executable, str(HERE / "spawn.py"), *args],
                             cwd=self.workdir, env=self.env, capture_output=True, text=True,
                             timeout=CALL_TIMEOUT_S + 30, check=True)
        return json.loads(out.stdout)

    def _call(self, argv: list[str], spans: Path | None) -> Call:
        if spans is None:
            cmd = [sys.executable, "-c", CLI_SHIM, *argv]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), "--", *argv]
        stem = self.workdir / argv[0]
        r = self._spawn("run", str(CALL_TIMEOUT_S), f"{stem}.stdout", f"{stem}.stderr",
                        "--", *cmd)
        return Call(argv, r["code"], r["wall_s"], r["cpu_s"], r["rss_mb"])

    def probe(self) -> float | None:
        """Seconds from spawning the CLI until it opens its input, or None."""
        fifo = self.workdir / PROBE_FIFO
        if not fifo.exists():
            os.mkfifo(fifo)
        r = self._spawn("probe", str(PROBE_TIMEOUT_S), str(fifo),
                        "--", sys.executable, "-c", CLI_SHIM, *self.prepared.probe)
        return r["setup_s"]

    def operation(self, traced: bool) -> Operation:
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        spans = [self.workdir / f"spans-{i}.json" for i in range(len(self.prepared.commands))]
        calls = []
        for argv, span_file in zip(self.prepared.commands, spans):
            calls.append(self._call(argv, span_file if traced else None))
            if calls[-1].code != 0:
                break
        op = Operation(traced, calls)
        if calls[-1].code != 0:
            status = "timed out" if calls[-1].code is None else f"exited {calls[-1].code}"
            op.problems.append(f"{' '.join(calls[-1].argv)} {status}")
            return op
        try:
            op.problems += self._check_outputs(op)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            op.problems.append(f"malformed output: {type(exc).__name__}: {exc}")
        if traced:
            op.layers = tracer.operation_metrics(
                [str(s) for s in spans], self.prepared.items, self.workload)
        return op

    def _check_outputs(self, op: Operation) -> list[str]:
        w = self.workdir
        if self.prepared.commands[0][0] == "pipeline":
            paths = sorted((w / "out").iterdir())
            op.digest = checks.digest(paths)
            manifest = json.loads((w / "out" / "manifest.json").read_text(encoding="utf-8"))
            self.prepared.props["kept_ratio"] = checks.kept_ratio(manifest, self.prepared.items)
            problems = checks.pipeline_counts(
                w / "out", manifest, self.prepared.items, self.prepared.expect["duplicates"])
            if op.digest not in self.checked:
                self.checked[op.digest] = checks.pipeline_records(w / "out", self.seed)
        else:
            op.digest = checks.digest(
                [w / "score.stdout", w / "per_instance.tsv", w / "report.stdout"])
            problems = []
            if op.digest not in self.checked:
                self.checked[op.digest] = checks.eval_outputs(
                    w, self.prepared.items, self.prepared.expect["copies"],
                    self.prepared.expect["ratings"])
        return problems + self.checked[op.digest]


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(ops: list[Operation], setup: list[float], items: int) -> dict[str, dict]:
    good = [op for op in ops if op.completed and not op.traced]
    per_op = {
        "items_per_s": [items / op.wall_s for op in good],
        "peak_rss_mb": [max(c.rss_mb for c in op.calls) for op in good],
        "cpu_s_per_kitem": [sum(c.cpu_s for c in op.calls) * 1000 / items for op in good],
        "setup_s": setup,
    }
    return {name: summarize(v) for name, v in per_op.items() if v}


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (ROOT / "src" / "levelforge" / "cli.py").is_file():
        print(f"error: no levelforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

    workdir = ROOT / ".bench_out" / "work" / f"{workload}-s{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        prepared = WORKLOADS[workload](seed, workdir)
        runner = Runner(workload, seed, workdir, prepared)
        runner.warm_up()
        started = time.perf_counter()
        probes: list[float | None] = []
        ops: list[Operation] = []
        pattern = (False, True) if trace else (False,)
        # Probes go between operations so that, like the operations, they
        # sample the whole run rather than one moment of it.
        while True:
            probes.append(runner.probe())
            ops.append(runner.operation(traced=pattern[len(ops) % len(pattern)]))
            elapsed = time.perf_counter() - started
            if (elapsed >= seconds and len(ops) >= len(pattern)) or elapsed >= RUN_LIMIT_S:
                break
        while len(probes) < MIN_SETUP_PROBES:
            probes.append(runner.probe())
        setup = [p for p in probes if p is not None]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = end_to_end(ops, setup, prepared.items)
    traced_ops = [op for op in ops if op.traced and op.completed]
    if trace and traced_ops and "items_per_s" in summary:
        layers = tracer.layer_metrics([op.layers for op in traced_ops])
        untraced = statistics.median(op.wall_s for op in ops if op.completed and not op.traced)
        traced = statistics.median(op.wall_s for op in traced_ops)
        layers["trace.overhead_ratio"] = traced / untraced
        values = layers
    else:
        values = {name: s["median"] for name, s in summary.items()}
    missing = [m["name"] for m in metric_specs if m["name"] not in values]
    failed = sum(not op.ok for op in ops) + (len(probes) - len(setup))
    attempted = len(ops) + len(probes)
    problems = sorted({p for op in ops for p in op.problems})
    if len(setup) < len(probes):
        problems.append(f"{len(probes) - len(setup)} set-up probes never opened their input")

    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"operations {len(ops)}  probes {len(probes)}  failed {failed}")
    print(f"machine {json.dumps(machine(), sort_keys=True)}")
    print(f"workload properties {json.dumps(prepared.props, sort_keys=True)}")
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, s in summary.items():
        print(f"  {name:<16} {s['median']:>12.6g} {e2e_units[name]:<8} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
    print(f"  {'fail_ratio':<16} {failed / attempted:>12.4f} {'':<8} "
          f"{failed} of {attempted} operations and set-up probes")
    for p in problems[:20]:
        print(f"  problem: {p}")
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in metric_specs}
    if trace:
        for name, unit in units.items():
            print(f"  {name:<44} {values[name]:>12.6g} {unit}")
    result = {
        "correct": not failed and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    _save(workload, seed, trace, {
        "machine": machine(),
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "props": prepared.props,
        "end_to_end": summary,
        "output_digests": sorted({op.digest for op in ops if op.digest}),
        "operations": [{"traced": op.traced, "wall_s": op.wall_s, "ok": op.ok,
                        "calls": [c.__dict__ for c in op.calls]} for op in ops],
        "setup_s": setup,
        "problems": problems,
        "result": result,
    })
    print(json.dumps(result))
    return 0


def _save(workload: str, seed: int, trace: bool, record: dict) -> None:
    results = ROOT / ".bench_out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{workload}-s{seed}-t{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except tracer.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
