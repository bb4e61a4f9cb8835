"""Acceptance gate: one test (and one printed PASS/FAIL line) per criterion.

Tolerances are pinned per criterion; oracle expectations come from the
committed fixtures and the independent reference implementations under
tests/oracles. Criteria 4 and 11 are informative: 4 skips without the
ASSET dataset, 11 reports throughput without gating on it.
"""
import hashlib
import json
import math
import sys
import time
from pathlib import Path
from random import Random

import pytest

from levelforge.cli import main
from levelforge.corpus import (
    DropReason,
    FilterConfig,
    ParaphrasePair,
    TaskLabel,
    attach_levels,
    bucket,
    build_datasets,
    filter_pair,
)
from levelforge.genmetrics import EvalInstance, corpus_sari, repetition_score, sari, sari_r
from levelforge.agreement import (
    LabeledPrediction,
    RatingMatrix,
    adjacent_accuracy,
    krippendorff_alpha,
    mae,
    weighted_f1,
)
from levelforge.prompts import PromptSpec, Strategy, render, strip_prompt
from levelforge.readability import ComplexityLevel, Scheme, corpus_fkgl, fkgl, fkgl_from_counts

from oracles.alpha_ref import alpha as alpha_ref

TESTS_DIR = Path(__file__).resolve().parent
ASSET_DIR = TESTS_DIR / "data" / "asset"

DEGENERATE = "the capital of the state is the capital of the state of the state of"


def report(criterion: int, ok: bool, detail: str = "") -> None:
    import conftest

    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion:02d}: {status}"
    if detail:
        line += f" — {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stderr__)
    assert ok, line


def test_criterion_01_fkgl_floor():
    value = fkgl_from_counts(1, 1, 1)
    ok = abs(value - (-3.40)) <= 1e-9
    report(1, ok, f"fkgl(1w/1syl/1sent) = {value!r}, tolerance 1e-9")


def test_criterion_02_fkgl_oracle(fkgl_fixture):
    worst = max(abs(fkgl(row["text"]) - row["fkgl"]) for row in fkgl_fixture)
    ok = len(fkgl_fixture) == 100 and worst <= 1e-6
    report(2, ok, f"{len(fkgl_fixture)} texts, max |err| = {worst:.2e}, tolerance 1e-6")


def test_criterion_03_sari_oracle(sari_fixture):
    worst = max(
        abs(sari(EvalInstance(r["source"], r["output"], tuple(r["references"]))).sari - r["sari"])
        for r in sari_fixture
    )
    ok = len(sari_fixture) == 20 and worst <= 1e-6
    report(3, ok, f"{len(sari_fixture)} triples, max |err| = {worst:.2e}, tolerance 1e-6")


def test_criterion_04_asset_reproduction():
    import conftest

    if not ASSET_DIR.exists():
        conftest.ACCEPTANCE_LINES.append(
            "ACCEPTANCE 04: SKIP — ASSET dataset not present "
            f"(expected under {ASSET_DIR}); informative criterion"
        )
        pytest.skip("ASSET dataset not downloaded")
    # Leave-one-out reference scoring: each of the 10 reference files takes
    # a turn as the "system", scored against the other 9.
    src_lines = (ASSET_DIR / "asset.test.orig").read_text().splitlines()
    ref_sets = [
        (ASSET_DIR / f"asset.test.simp.{i}").read_text().splitlines() for i in range(10)
    ]
    sari_scores = []
    for held_out in range(10):
        instances = [
            EvalInstance(
                source=src_lines[i],
                output=ref_sets[held_out][i],
                references=tuple(ref_sets[j][i] for j in range(10) if j != held_out),
            )
            for i in range(len(src_lines))
        ]
        sari_scores.append(corpus_sari(instances))
    mean_sari = sum(sari_scores) / len(sari_scores)
    ref_fkgl = corpus_fkgl(line for refs in ref_sets for line in refs)
    sari_ok = abs(mean_sari - 44.89) <= 0.3
    fkgl_ok = abs(ref_fkgl - 6.49) <= 0.05
    conftest.ACCEPTANCE_LINES.append(
        f"ACCEPTANCE 04: {'PASS' if sari_ok and fkgl_ok else 'INFO'} — "
        f"reference SARI {mean_sari:.2f} (target 44.89±0.3), "
        f"reference FKGL {ref_fkgl:.2f} (target 6.49±0.05); "
        "conventions: leave-one-out mean per-instance SARI, corpus-pooled FKGL"
    )


def _random_text(rng: Random, n_words: int) -> str:
    vocab = [
        "river", "mountain", "teacher", "story", "window", "garden", "music",
        "doctor", "student", "morning", "holiday", "energy", "history", "company",
    ]
    return " ".join(rng.choice(vocab) for _ in range(n_words)).capitalize() + "."


def test_criterion_05_pipeline_properties():
    rng = Random(42)
    cfg = FilterConfig()
    total = 10_000
    kept_pairs = []
    drop_counts = {}

    for i in range(total):
        sim = rng.choice([None, round(rng.uniform(0.0, 1.0), 4), 0.60, 0.80, 0.5999, 0.8001])
        n_src = rng.randint(1, 12)
        if rng.random() < 0.1:
            src = _random_text(rng, n_src)
            tgt = src[:-1] + " today."  # source words contained in target
        else:
            src = _random_text(rng, n_src)
            tgt = _random_text(rng, rng.randint(1, 12))
        pair = ParaphrasePair(id=f"s{i:06d}", source=src, target=tgt, similarity=sim)
        keep, reason = filter_pair(pair, cfg)
        assert keep == (reason is None), "keep flag and drop reason must agree"
        if keep:
            kept_pairs.append(pair)
        else:
            drop_counts[reason] = drop_counts.get(reason, 0) + 1

    # Drop reasons partition the drops.
    assert len(kept_pairs) + sum(drop_counts.values()) == total

    # Boundary similarities on an otherwise clean pair.
    def probe(sim):
        return filter_pair(
            ParaphrasePair(
                id="probe",
                source="The river crossed the silent valley.",
                target="A stream ran through the quiet dale.",
                similarity=sim,
            ),
            cfg,
        )

    boundary_ok = (
        probe(0.60) == (True, None)
        and probe(0.80) == (True, None)
        and probe(0.5999) == (False, DropReason.SIM_LOW)
        and probe(0.8001) == (False, DropReason.SIM_HIGH)
    )

    # Randomized CEFR levels; bucket and build, then check orientation of
    # every emitted pair.
    labels = ("A1", "A2", "B1", "B2", "C1", "C2")
    for pair in kept_pairs:
        pair.source_level = ComplexityLevel.cefr6(rng.choice(labels))
        pair.target_level = ComplexityLevel.cefr6(rng.choice(labels))
    datasets, _stats = build_datasets(kept_pairs, Scheme.CEFR6, seed=11)
    orientation_ok = (
        all(
            p.source_level.complexity_rank - p.target_level.complexity_rank >= 2
            for p in datasets[TaskLabel.DOWN]
        )
        and all(
            p.target_level.complexity_rank - p.source_level.complexity_rank >= 2
            for p in datasets[TaskLabel.UP]
        )
        and all(
            p.source_level.complexity_rank == p.target_level.complexity_rank
            for p in datasets[TaskLabel.SAME]
        )
    )

    # FKGL orientation mirror on computed levels.
    fkgl_pairs = [p for p, r in attach_levels(kept_pairs[:500], Scheme.FKGL) if r is None]
    fkgl_ok = all(
        (bucket(p, Scheme.FKGL)[0] is TaskLabel.SAME)
        == (p.source_level.value == p.target_level.value)
        for p in fkgl_pairs
    )

    ok = boundary_ok and orientation_ok and fkgl_ok
    report(
        5,
        ok,
        f"{total} synthetic pairs, {len(kept_pairs)} kept, "
        f"drops {sorted((r.value, c) for r, c in drop_counts.items())}, "
        "boundaries 0.60/0.80 kept and 0.5999/0.8001 dropped",
    )


def _write_synthetic_corpus(path: Path, n: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            if i % 2 == 0:
                src = f"The committee number {i} reviewed the complicated proposal very carefully today."
                tgt = f"The group number {i} read the plan today."
            else:
                src = f"The brave fox number {i} jumped over the lazy dog."
                tgt = f"Over the lazy dog the brave fox number {i} jumped."
            fh.write(
                json.dumps({"id": f"p{i:06d}", "source": src, "target": tgt, "similarity": 0.7})
                + "\n"
            )


def _run_and_digest(config_path: Path, outdir: Path) -> dict:
    assert main(["pipeline", "--config", str(config_path)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(outdir.iterdir())
    }


def test_criterion_06_pipeline_determinism(tmp_path, monkeypatch, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _write_synthetic_corpus(corpus, 100_000)
    outdir = tmp_path / "out"
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps(
            {"input": str(corpus), "output_dir": str(outdir), "scheme": "fkgl", "seed": 13}
        )
    )
    start = time.perf_counter()
    monkeypatch.setenv("LEVELFORGE_THREADS", "1")
    first = _run_and_digest(config_path, outdir)
    second = _run_and_digest(config_path, outdir)
    monkeypatch.setenv("LEVELFORGE_THREADS", "8")
    threaded = _run_and_digest(config_path, outdir)
    elapsed = time.perf_counter() - start
    ok = first == second == threaded and len(first) == 10
    report(
        6,
        ok,
        f"100k-pair corpus, SHA-256 equal across rerun and 1-vs-8 threads, "
        f"{len(first)} files, {elapsed:.1f}s for 3 runs",
    )


def test_criterion_07_classifier_metric_oracle():
    def p(gold, pred):
        return LabeledPrediction(
            gold=ComplexityLevel.cefr6(gold), predicted=ComplexityLevel.cefr6(pred)
        )

    # 10 items, confusion fully specified: gold A1 x9 predicted A1, gold C2
    # x1 predicted A1. Hand values: F1(A1) = 18/19, F1(C2) = 0, weighted by
    # support 9/10 and 1/10.
    skew = [p("A1", "A1")] * 9 + [p("C2", "A1")]
    f1_6_ok = math.isclose(weighted_f1(skew, 6), 100 * 0.9 * 18 / 19, abs_tol=1e-9)
    # Collapsed: gold A x9 / C x1, all predicted A; same structure.
    f1_3_ok = math.isclose(weighted_f1(skew, 3), 100 * 0.9 * 18 / 19, abs_tol=1e-9)
    adj_ok = adjacent_accuracy(skew) == 0.9
    mae_ok = mae(skew) == pytest.approx(5 / 10)

    footnotes_ok = (
        adjacent_accuracy([p("A1", "A2")]) == 1.0
        and adjacent_accuracy([p("A2", "A2")]) == 1.0
        and adjacent_accuracy([p("B1", "A2")]) == 1.0
        and adjacent_accuracy([p("B2", "A2")]) == 0.0
        and mae([p("A2", "A1")]) == 1.0
        and mae([p("C2", "A2")]) == 4.0
    )

    sklearn_detail = "sklearn cross-check unavailable"
    sklearn_ok = True
    try:
        from sklearn.metrics import f1_score

        mixed = [
            p("A1", "A1"), p("A1", "A2"), p("A2", "A2"), p("B1", "A2"), p("B1", "B1"),
            p("B2", "B2"), p("B2", "C1"), p("C1", "C1"), p("C2", "C1"), p("C2", "C2"),
        ]
        expected = 100 * f1_score(
            [int(x.gold.value) for x in mixed],
            [int(x.predicted.value) for x in mixed],
            average="weighted",
        )
        sklearn_ok = math.isclose(weighted_f1(mixed, 6), expected, abs_tol=1e-9)
        sklearn_detail = f"sklearn weighted-F1 cross-check |err| <= 1e-9: {sklearn_ok}"
    except ImportError:
        pass

    ok = f1_6_ok and f1_3_ok and adj_ok and mae_ok and footnotes_ok and sklearn_ok
    report(7, ok, f"hand-computed 6-F1/3-F1/Adj-Acc/MAE and footnote cases hold; {sklearn_detail}")


def test_criterion_08_krippendorff_oracle():
    def matrix(rows):
        m = RatingMatrix()
        for rater, item, value in rows:
            m.add(rater, item, value)
        return m

    def items_of(rows):
        out = {}
        for _, item, value in rows:
            out.setdefault(item, []).append(value)
        return {i: v for i, v in out.items() if len(v) >= 2}

    committed = [
        # Classic example matrix with missing cells.
        [
            ("a", 1, 1), ("a", 2, 2), ("a", 3, 3), ("a", 4, 3), ("a", 5, 2),
            ("a", 6, 1), ("a", 7, 4), ("a", 8, 1),
            ("b", 1, 1), ("b", 2, 2), ("b", 3, 3), ("b", 4, 3), ("b", 5, 2),
            ("b", 6, 2), ("b", 7, 4), ("b", 8, 1),
            ("c", 2, 3), ("c", 3, 3), ("c", 4, 3), ("c", 5, 2), ("c", 6, 3),
            ("c", 7, 4), ("c", 8, 2),
        ],
        # 3 raters, nominal labels, moderate agreement.
        [
            ("r1", i, v)
            for i, v in enumerate(["x", "x", "y", "y", "z", "x"])
        ] + [
            ("r2", i, v)
            for i, v in enumerate(["x", "y", "y", "y", "z", "z"])
        ] + [
            ("r3", i, v)
            for i, v in enumerate(["x", "x", "y", "z", "z", "x"])
        ],
        # 2 raters, ordinal 1-5 Likert values.
        [
            ("r1", i, v) for i, v in enumerate([1, 2, 3, 4, 5, 2, 3, 1])
        ] + [
            ("r2", i, v) for i, v in enumerate([1, 3, 3, 4, 4, 2, 2, 2])
        ],
    ]
    worst = 0.0
    for rows in committed:
        m, by_item = matrix(rows), items_of(rows)
        for metric in ("nominal", "ordinal"):
            got = krippendorff_alpha(m, metric)
            expected = alpha_ref(by_item, metric)
            worst = max(worst, abs(got - expected))
    oracle_ok = worst <= 1e-9

    perfect = matrix([("r1", i, "v") for i in range(4)] + [("r2", i, "v") for i in range(4)])
    perfect_ok = krippendorff_alpha(perfect, "nominal") == 1.0
    disagree = matrix([("r1", i, 0) for i in range(4)] + [("r2", i, 1) for i in range(4)])
    negative_ok = krippendorff_alpha(disagree, "nominal") < 0

    ok = oracle_ok and perfect_ok and negative_ok
    report(
        8,
        ok,
        f"3 matrices x 2 metrics vs reference, max |err| = {worst:.2e} (tol 1e-9); "
        "perfect -> 1.0; all-disagree -> negative",
    )


def test_criterion_09_prompt_byte_exactness():
    cefr_b2 = ComplexityLevel.cefr6("B2")
    expected = {
        PromptSpec(Strategy.RELATIVE, task=TaskLabel.DOWN): "level down: ",
        PromptSpec(Strategy.RELATIVE, task=TaskLabel.UP): "level up: ",
        PromptSpec(Strategy.RELATIVE, task=TaskLabel.SAME): "same level: ",
        PromptSpec(Strategy.ABSOLUTE, target_level=cefr_b2): "change to level B: ",
        PromptSpec(Strategy.BASELINE): "paraphrase: ",
    }
    bytes_ok = all(spec.prefix == text for spec, text in expected.items())

    rng = Random(99)
    alphabet = "abcdefghijklmnop qrstuvwxyz.,!?'-0123456789éü"
    specs = list(expected)
    round_trip_ok = True
    for _ in range(1000):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        spec = rng.choice(specs)
        if strip_prompt(render(spec, line), spec) != line:
            round_trip_ok = False
            break

    ok = bytes_ok and round_trip_ok
    report(9, ok, "prompt prefixes byte-exact incl. trailing space; 1000-line round trip")


def test_criterion_10_repetition_diagnostics():
    rep = repetition_score(DEGENERATE, n=4)
    rep_ok = rep > 0.4

    degenerate_inst = EvalInstance(
        source="The state capital is Aracaju.",
        output=DEGENERATE,
        references=("The state capital is Aracaju.", "Aracaju is the state capital."),
    )
    penalized_ok = sari_r(degenerate_inst) < sari(degenerate_inst).sari

    clean_inst = EvalInstance(
        source="The cat sat on the mat.",
        output="A cat was sitting there.",
        references=("A cat was sitting there.",),
    )
    clean_ok = sari_r(clean_inst) == pytest.approx(sari(clean_inst).sari, abs=1e-12)

    ok = rep_ok and penalized_ok and clean_ok
    report(
        10,
        ok,
        f"degenerate repetition_score = {rep:.3f} (> 0.4), sari_r < sari on it, "
        "sari_r == sari when repetition-free",
    )


def test_criterion_11_throughput_informative(tmp_path):
    n = 50_000
    fcfg = FilterConfig()
    pairs = []
    for i in range(n):
        if i % 2 == 0:
            src = f"The committee number {i} reviewed the complicated proposal very carefully today."
            tgt = f"The group number {i} read the plan today."
        else:
            src = f"The brave fox number {i} jumped over the lazy dog."
            tgt = f"Over the lazy dog the brave fox number {i} jumped."
        pairs.append(ParaphrasePair(id=f"p{i:06d}", source=src, target=tgt, similarity=0.7))

    start = time.perf_counter()
    kept = (p for p in pairs if filter_pair(p, fcfg)[0])
    bucketed = 0
    for pair, reason in attach_levels(kept, Scheme.FKGL):
        if reason is None and bucket(pair, Scheme.FKGL)[0] is not None:
            bucketed += 1
    elapsed = time.perf_counter() - start
    rate = n / elapsed
    import conftest

    status = "meets" if rate >= 50_000 else "below"
    conftest.ACCEPTANCE_LINES.append(
        f"ACCEPTANCE 11: INFO — filter+label+bucket {rate:,.0f} pairs/s/core "
        f"({status} the informative 50k pairs/s target; {bucketed} bucketed; "
        "not a pass/fail gate; see perfbench/run.py for the end-to-end benchmark)"
    )
    assert bucketed > 0
