"""Output checks for one benchmark operation.

Each check returns a list of problems; an empty list means the outputs are
correct. The level labels are recomputed with the package's own
``level_of`` in this process, not with ``tests/oracles/readability_ref.py``:
that oracle has no abbreviation rule and ASCII-only words, so it disagrees
with the package by design on these inputs. SARI and Krippendorff's alpha
are checked against the independent oracles under ``tests/oracles``.
"""
from __future__ import annotations

import hashlib
import json
import statistics
import unicodedata
from pathlib import Path
from random import Random

# acceptance 03 tolerance, plus half a unit in the 4th decimal the
# per-instance TSV rounds to.
SARI_TOLERANCE = 1e-6 + 0.5e-4
# acceptance 08 tolerance.
ALPHA_TOLERANCE = 1e-9
LEVEL_SAMPLE = 200


def digest(paths: list[Path]) -> str:
    """One SHA-256 over the names and bytes of ``paths``, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def kept_ratio(manifest: dict, items: int) -> float:
    """Pairs that passed the filter / pairs it saw (after dedup)."""
    stats = manifest["conventions"]["bucket_stats"]
    kept = sum(stats["bucket_counts"].values()) + stats["near_level_rejects"]
    return kept / (items - manifest["drop_reasons"].get("DUPLICATE", 0))


def pipeline_counts(outdir: Path, manifest: dict, items: int, duplicates: int) -> list[str]:
    """Manifest counts agree with the written files and with the input."""
    problems = []
    task_counts, split_counts = manifest["task_counts"], manifest["split_counts"]
    if set(task_counts) != {"simplification", "complexification", "same_level"}:
        problems.append(f"unexpected tasks {sorted(task_counts)}")
    for task, count in task_counts.items():
        splits = split_counts.get(task, {})
        if sum(splits.values()) != count:
            problems.append(f"{task}: split counts {splits} do not sum to {count}")
        for split, n in splits.items():
            lines = _count_lines(outdir / f"{task}.{split}.jsonl")
            if lines != n:
                problems.append(f"{task}.{split}.jsonl has {lines} lines, manifest says {n}")
    if len(set(task_counts.values())) != 1 or not all(task_counts.values()):
        problems.append(f"task sizes differ or are empty: {task_counts}")
    stats = manifest["conventions"]["bucket_stats"]
    accounted = (sum(manifest["drop_reasons"].values())
                 + sum(stats["bucket_counts"].values()) + stats["near_level_rejects"])
    if accounted != items:
        problems.append(f"drops + bucketed = {accounted}, input has {items} pairs")
    if manifest["drop_reasons"].get("DUPLICATE", 0) != duplicates:
        problems.append(f"DUPLICATE drops {manifest['drop_reasons'].get('DUPLICATE', 0)}, "
                        f"input holds {duplicates} exact duplicates")
    return problems


def pipeline_records(outdir: Path, seed: int) -> list[str]:
    """A seeded sample of records: ids, level labels and task direction."""
    from levelforge.readability import level_of

    records = []
    for path in sorted(outdir.glob("*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            records += [json.loads(line) for line in fh]
    problems = []
    for rec in Random(seed).sample(records, min(LEVEL_SAMPLE, len(records))):
        # Different-level pairs are reoriented (swapped) while keeping the
        # id of the input orientation, which may be either one.
        keys = {hashlib.sha256((_nfc(a) + "\x00" + _nfc(b)).encode()).hexdigest()
                for a, b in ((rec["source"], rec["target"]), (rec["target"], rec["source"]))}
        if rec["id"] not in keys:
            problems.append(f"record {rec['id'][:12]}: id is not the pair's sha256")
        for side in ("source", "target"):
            want = level_of(rec[side]).label
            if rec[f"{side}_level"] != want:
                problems.append(f"record {rec['id'][:12]}: {side}_level "
                                f"{rec[f'{side}_level']} != level_of {want}")
        src, tgt = float(rec["source_level"]), float(rec["target_level"])
        direction = {"down": src > tgt, "up": src < tgt, "same": src == tgt}
        if not direction.get(rec["task"], False):
            problems.append(f"record {rec['id'][:12]}: task {rec['task']} "
                            f"disagrees with levels {src} -> {tgt}")
    return problems


def eval_outputs(workdir: Path, items: int, copies: int, ratings: list) -> list[str]:
    """Score report, per-instance SARI against the oracle, Likert report."""
    from levelforge.textcore import tokenize
    from oracles import alpha_ref, sari_ref

    def tok(text: str) -> str:
        return " ".join(t.lower() for t in tokenize(text))

    problems = []
    report = json.loads((workdir / "score.stdout").read_text(encoding="utf-8"))
    if report["instances"] != items:
        problems.append(f"score reports {report['instances']} instances, expected {items}")
    if report["copy_rate"] != copies / items:
        problems.append(f"copy_rate {report['copy_rate']} != {copies}/{items}")

    outputs = (workdir / "outputs.txt").read_text(encoding="utf-8").splitlines()
    with open(workdir / "refs.jsonl", encoding="utf-8") as fh:
        refs = [json.loads(line) for line in fh]
    rows = (workdir / "per_instance.tsv").read_text(encoding="utf-8").splitlines()
    if rows[:1] != ["sari\tsari_r\tcopy"] or len(rows) != items + 1:
        problems.append(f"per-instance TSV: header {rows[:1]}, {len(rows) - 1} rows")
        return problems
    copy_flags = 0
    worst = 0.0
    for row, out, ref in zip(rows[1:], outputs, refs):
        sari_col, _sari_r, copied = row.split("\t")
        copy_flags += int(copied)
        want = sari_ref.SARIsent(tok(ref["source"]), tok(out),
                                 [tok(r) for r in ref["references"]])
        worst = max(worst, abs(float(sari_col) - want))
    if worst > SARI_TOLERANCE:
        problems.append(f"per-instance SARI off the oracle by {worst:.2e}")
    if copy_flags != copies:
        problems.append(f"{copy_flags} rows flagged as copies, expected {copies}")

    likert = json.loads((workdir / "report.stdout").read_text(encoding="utf-8"))
    groups: dict[str, dict[str, list[float]]] = {}
    for item, _rater, group, value in ratings:
        groups.setdefault(group, {}).setdefault(item, []).append(float(value))
    if sorted(likert) != sorted(groups):
        problems.append(f"report groups {sorted(likert)} != {sorted(groups)}")
        return problems
    for group, items_of in groups.items():
        row = likert[group]
        mean = statistics.fmean(statistics.fmean(v) for v in items_of.values())
        if row["items"] != len(items_of) or abs(row["mean"] - mean) > 1e-9:
            problems.append(f"{group}: items/mean {row['items']}/{row['mean']} "
                            f"!= {len(items_of)}/{mean}")
        alpha = alpha_ref.alpha(items_of, metric="ordinal")
        if row["alpha_ordinal"] is None or abs(row["alpha_ordinal"] - alpha) > ALPHA_TOLERANCE:
            problems.append(f"{group}: alpha {row['alpha_ordinal']} != oracle {alpha}")
    return problems
