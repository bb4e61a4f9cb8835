import errno
import functools
import hashlib
import io
import itertools
import json
import os
import random
import resource
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from collections import Counter
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from pathlib import Path

import matrix
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge import cli, genmetrics
from levelforge.cli import PipelineConfig, main, parallel_map
from levelforge.corpus import pair_key, text_sha256
from levelforge.genmetrics import EvalInstance, is_copy, sari, sari_r
from oracles import sampling_ref


ENOSPC = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"


def jsonl(*records):
    """The JSONL text of ``records``, one line each."""
    return "".join(json.dumps(r) + "\n" for r in records)


def write_jsonl_file(path, records):
    Path(path).write_text(jsonl(*records), encoding="utf-8")


# A record for split: non-ASCII text, ints past 2**64, floats from the largest to the least subnormal,
# -0.0, and an id that repeats or is missing.
SPLIT_VALUE = st.one_of(
    st.text(st.characters(exclude_categories=("Cs",)), max_size=8), st.integers(-2**80, 2**80),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([1.7976931348623157e308, 5e-324, -0.0, 2**64]),
    st.booleans(), st.none())
SPLIT_RECORD = st.builds(
    lambda fields, id_: {**fields, **id_},
    st.dictionaries(st.text(st.characters(exclude_categories=("Cs",)), max_size=4), st.one_of(
        SPLIT_VALUE, st.lists(SPLIT_VALUE, max_size=3)), max_size=3),
    st.one_of(st.just({}), st.builds(lambda v: {"id": v}, st.sampled_from(["a", "ä", 1, 2**70]))))


def corpus_records(n=60):
    """Synthetic FKGL corpus: odd ids are reorderings (same level), even ids
    pair a long sentence with a short one (different level)."""
    records = []
    for i in range(n):
        if i % 2 == 0:
            src = f"The committee number {i} reviewed the complicated proposal very carefully today."
            tgt = f"The group number {i} read the plan today."
        else:
            src = f"The brave fox number {i} jumped over the lazy dog."
            tgt = f"Over the lazy dog the brave fox number {i} jumped."
        records.append({"id": f"p{i:04d}", "source": src, "target": tgt, "similarity": 0.7})
    return records


def make_corpus(path, n=60):
    records = corpus_records(n)
    write_jsonl_file(path, records)
    return records


def run_pipeline(tmp_path, name, seed=7, corpus=None, n=60):
    corpus_path = tmp_path / "corpus.jsonl"
    if corpus is None and not corpus_path.exists():
        make_corpus(corpus_path, n=n)
    outdir = tmp_path / name
    config = {
        "input": str(corpus_path),
        "output_dir": str(outdir),
        "scheme": "fkgl",
        "seed": seed,
    }
    config_path = tmp_path / f"{name}.config.json"
    config_path.write_text(json.dumps(config))
    assert main(["pipeline", "--config", str(config_path)]) == 0
    return outdir


def digest_dir(outdir):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(outdir).glob("*.jsonl"))
    }


def digest_tree(root):
    """{path under ``root``: the SHA-256 of its bytes, or None for a directory} of everything under ``root``."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def cli_child(argv, cwd=None, env=(), **kwargs):
    """``levelforge argv`` in a child of this interpreter, from this checkout, stdout buffered as users run it;
    ``env`` adds to or, with None values, removes from this process's environment."""
    env = {k: v for k, v in {**os.environ, **dict(env)}.items() if k != "PYTHONUNBUFFERED" and v is not None}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "levelforge.cli", *argv], cwd=cwd, env=env, timeout=60, **kwargs)


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(
            pairs,
            [{"id": "p1", "source": "The cat sat on the mat.",
              "target": "A cat was sitting there.", "similarity": 0.7}],
        )
        assert main(["filter", str(pairs), "-o", str(tmp_path / "out.jsonl")]) == 0


class TestFilterCommand:
    def test_drop_reasons_reported(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(pairs, [
            {"id": "p1", "source": "The cat sat on the mat.",
             "target": "A cat was sitting there.", "similarity": 0.7},
            {"id": "p2", "source": "Hi there.", "target": "Hello my friend over there.",
             "similarity": 0.7},
            {"id": "p3", "source": "The cat sat on the mat.",
             "target": "A cat was sitting there.", "similarity": 0.2},
        ])
        out = tmp_path / "kept.jsonl"
        assert main(["filter", str(pairs), "-o", str(out)]) == 0
        summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert summary == {"command": "filter", "in": 3, "out": 1,
                           "drops": {"TOO_SHORT": 1, "SIM_LOW": 1}}
        assert len(out.read_text().splitlines()) == 1

    def test_its_own_output_keeps_every_pair(self, tmp_path, capsys):
        # A kept pair is written with its similarity, so a second filter reads the score the first kept on.
        pair = {"id": "p1", "source": "The cat sat on the mat.", "target": "A cat was sitting there.",
                "similarity": 0.7}
        write_jsonl_file(tmp_path / "pairs.jsonl", [pair])
        assert main(["filter", str(tmp_path / "pairs.jsonl"), "-o", str(tmp_path / "kept.jsonl")]) == 0
        assert main(["filter", str(tmp_path / "kept.jsonl"), "-o", str(tmp_path / "again.jsonl")]) == 0
        summaries = [json.loads(line) for line in capsys.readouterr().err.strip().splitlines()]
        assert [(s["in"], s["out"]) for s in summaries] == [(1, 1), (1, 1)]
        assert json.loads((tmp_path / "again.jsonl").read_text()) == pair


class TestLabelAndBucketCommands:
    def test_fkgl_label_then_bucket(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(pairs, [
            {"id": "p1",
             "source": "The committee reviewed the complicated proposal very carefully.",
             "target": "The group read the plan."},
        ])
        labeled = tmp_path / "labeled.jsonl"
        assert main(["label", str(pairs), "--scheme", "fkgl", "-o", str(labeled)]) == 0
        rec = json.loads(labeled.read_text())
        assert "source_level" in rec and "target_level" in rec

        bucketed = tmp_path / "bucketed.jsonl"
        assert main(["bucket", str(labeled), "--scheme", "fkgl", "-o", str(bucketed)]) == 0
        assert json.loads(bucketed.read_text())["task"] == "down"

    def test_fkgl_level_past_decimal_default_precision(self, tmp_path, capsys):
        # 1e30 is a finite FKGL level; rounding it needs more than Decimal's default 28 digits.
        leveled = tmp_path / "leveled.jsonl"
        write_jsonl_file(leveled, [{"id": "p1", "source": "a b c", "target": "d e f",
                                    "source_level": 1e30, "target_level": "3.25"}])
        assert main(["bucket", str(leveled), "--scheme", "fkgl"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert (rec["source_level"], rec["task"]) == (f"{1e30:.2f}", "down")

    def test_cefr_label_with_predictions(self, tmp_path, capsys):
        src, tgt = "The committee reviewed the proposal.", "The group read the plan."
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(pairs, [{"id": "p1", "source": src, "target": tgt}])
        preds = tmp_path / "preds.jsonl"
        write_jsonl_file(preds, [
            {"scheme": "cefr6"},
            {"text_sha256": text_sha256(src), "level": "C1"},
            {"text_sha256": text_sha256(tgt), "level": "A2"},
        ])
        labeled = tmp_path / "labeled.jsonl"
        code = main([
            "label", str(pairs), "--scheme", "cefr6",
            "--predictions", str(preds), "-o", str(labeled),
        ])
        assert code == 0
        rec = json.loads(labeled.read_text())
        assert (rec["source_level"], rec["target_level"]) == ("C1", "A2")


class TestSplitCommand:
    def test_counts(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [{"id": f"p{i}", "v": i} for i in range(50)])
        outdir = tmp_path / "splits"
        assert main(["split", str(data), "-o", str(outdir), "--seed", "3"]) == 0
        counts = {
            name: len((outdir / f"{name}.jsonl").read_text().splitlines())
            for name in ("train", "valid", "test")
        }
        assert counts == {"train": 40, "valid": 5, "test": 5}

    def test_line_order_and_repeated_or_missing_ids_change_nothing(self, tmp_path, capsys):
        # Records that share an id, or have none, are ranked by their line as written, so they keep their places.
        records = [{"id": f"p{i % 7}", "v": i} if i % 3 else {"v": i} for i in range(40)] + [{"v": 0}]
        shuffled = list(records)
        random.Random(1).shuffle(shuffled)
        written = []
        for name, rows in (("a", records), ("b", shuffled)):
            write_jsonl_file(tmp_path / f"{name}.jsonl", rows)
            assert main(["split", str(tmp_path / f"{name}.jsonl"), "-o", str(tmp_path / name), "--seed", "3"]) == 0
            written.append({split: (tmp_path / name / f"{split}.jsonl").read_bytes()
                            for split in ("train", "valid", "test")})
        assert written[0] == written[1]
        assert sorted(b"".join(written[0].values()).splitlines()) == sorted(jsonl(*records).encode().splitlines())

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(SPLIT_RECORD, max_size=30), seed=st.integers(-10**20, 10**20),
           ratios=st.sampled_from([("0.8", "0.1", "0.1"), ("0.5", "0.25", "0.25"), ("1", "0", "0"), ("0", "0.5", "0.5")]))
    def test_split_of_its_own_files_rewrites_them(self, records, seed, ratios):
        # The rank key is the line split writes, so its files, read back with their lines reversed, rank as they did.
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()):
            tmp = Path(tmp)
            write_jsonl_file(tmp / "data.jsonl", records)

            def split(data, name):
                assert main(["split", str(data), "-o", str(tmp / name), f"--seed={seed}", "--ratios", *ratios]) == 0
                return [(tmp / name / f"{part}.jsonl").read_bytes() for part in ("train", "valid", "test")]

            first = split(tmp / "data.jsonl", "a")
            (tmp / "all.jsonl").write_bytes(b"".join(line + b"\n" for line in b"".join(first).splitlines()[::-1]))
            assert split(tmp / "all.jsonl", "b") == first
            assert len(b"".join(first).splitlines()) == len(records)

    @settings(max_examples=40, deadline=None)
    @given(records=st.lists(SPLIT_RECORD, max_size=30), seed=st.integers(-10**20, 10**20),
           ratios=st.sampled_from([(0.8, 0.1, 0.1), (0.5, 0.25, 0.25), (1.0, 0.0, 0.0), (0.0, 0.5, 0.5)]))
    def test_split_files_equal_the_sampling_oracle(self, records, seed, ratios):
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()):
            write_jsonl_file(Path(tmp, "data.jsonl"), records)
            assert main(["split", str(Path(tmp, "data.jsonl")), "-o", tmp, f"--seed={seed}",
                         "--ratios", *map(str, ratios)]) == 0
            written = {part: Path(tmp, f"{part}.jsonl").read_bytes() for part in ("train", "valid", "test")}
        want = sampling_ref.split_command(records, ratios, seed)
        assert written == {part: sampling_ref.jsonl_bytes(rows) for part, rows in want.items()}

    @pytest.mark.parametrize("odd_id", [None, "shared"], ids=["missing", "shared"])
    def test_records_without_a_unique_id_spread_over_the_splits(self, tmp_path, capsys, odd_id):
        # Each is ranked by its own line, not as one block, so each split holds about its share of them.
        odd = [{"odd": True, "v": i} | ({"id": f"s{i % 5}"} if odd_id else {}) for i in range(100)]
        write_jsonl_file(tmp_path / "data.jsonl", [{"id": f"p{i}", "v": i} for i in range(1000)] + odd)
        for seed in range(1, 9):
            outdir = tmp_path / str(seed)
            assert main(["split", str(tmp_path / "data.jsonl"), "-o", str(outdir), "--seed", str(seed)]) == 0
            held = {part: sum("odd" in json.loads(line) for line in (outdir / f"{part}.jsonl").open())
                    for part in ("train", "valid", "test")}
            assert all(abs(held[part] - share) <= 15 for part, share in zip(held, (80, 10, 10))), (seed, held)

    def test_a_field_besides_the_id_moves_no_record(self, tmp_path, capsys):
        records = [{"id": f"p{i}", "v": i} for i in range(60)] + [{"id": 7, "v": 60}]
        placed = []
        for name, rows in (("a", records), ("b", [{**r, "v": -r["v"], "similarity": 0.7} for r in records])):
            write_jsonl_file(tmp_path / f"{name}.jsonl", rows)
            assert main(["split", str(tmp_path / f"{name}.jsonl"), "-o", str(tmp_path / name), "--seed", "3"]) == 0
            placed.append({part: [json.loads(line)["id"] for line in (tmp_path / name / f"{part}.jsonl").open()]
                           for part in ("train", "valid", "test")})
        assert placed[0] == placed[1]
        assert sorted(map(len, placed[0].values())) == [6, 6, 49]

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(-10**20, 10**20),
           ratios=st.sampled_from([[0.8, 0.1, 0.1], [0.5, 0.25, 0.25], [0.34, 0.33, 0.33]]))
    def test_split_of_a_pipeline_task_rewrites_its_files(self, seed, ratios):
        # pipeline ranks a task's pairs by id, and so does split, so split undoes the concatenation of a task's files.
        with tempfile.TemporaryDirectory() as tmp, redirect_stderr(io.StringIO()):
            tmp = Path(tmp)
            write_jsonl_file(tmp / "corpus.jsonl", corpus_records(80))
            (tmp / "config.json").write_text(json.dumps({"input": str(tmp / "corpus.jsonl"), "output_dir": str(tmp / "out"),
                                                         "seed": seed, "split_ratios": ratios}))
            assert main(["pipeline", "--config", str(tmp / "config.json")]) == 0
            for task in ("simplification", "complexification", "same_level"):
                files = [(tmp / "out" / f"{task}.{part}.jsonl").read_bytes() for part in ("train", "valid", "test")]
                (tmp / f"{task}.jsonl").write_bytes(b"".join(files))
                assert main(["split", str(tmp / f"{task}.jsonl"), "-o", str(tmp / task), f"--seed={seed}",
                             "--ratios", *map(str, ratios)]) == 0
                assert [(tmp / task / f"{part}.jsonl").read_bytes() for part in ("train", "valid", "test")] == files
                assert all(files)


class TestPromptCommand:
    def test_rel_and_strip_round_trip(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [
            {"source": "A hard sentence.", "target": "An easy one.", "task": "down"},
        ])
        out = tmp_path / "prompted.jsonl"
        code = main([
            "prompt", str(data), "--strategy", "rel", "--scheme", "fkgl", "-o", str(out),
        ])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["input_prompted"] == "level down: A hard sentence."

    def test_abs_fixed_level_tsv(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [{"source": "A hard sentence.", "target": "An easy one."}])
        out = tmp_path / "prompted.tsv"
        code = main([
            "prompt", str(data), "--strategy", "abs", "--scheme", "cefr6",
            "--fixed-level", "B", "--format", "tsv", "-o", str(out),
        ])
        assert code == 0
        assert out.read_text() == "change to level B: A hard sentence.\tAn easy one.\n"

    def test_abs_fixed_fkgl_level_past_decimal_default_precision(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [{"source": "A hard sentence.", "target": "An easy one."}])
        argv = ["prompt", str(data), "--strategy", "abs", "--scheme", "fkgl",
                "--fixed-level", "1e30", "--format", "tsv"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"change to level {1e30:.2f}: A hard sentence.\tAn easy one.\n"


class TestScoreCommand:
    def test_report_fields(self, tmp_path, capsys):
        refs = tmp_path / "refs.jsonl"
        write_jsonl_file(refs, [
            {"source": "The cat sat on the mat.", "references": ["The cat sat."]},
            {"source": "He went home.", "references": ["He went home quickly."]},
        ])
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("The cat sat.\nHe went home.\n")
        assert main(["score", "--outputs", str(outputs), "--refs", str(refs)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["instances"] == 2
        assert report["copy_rate"] == 0.5
        assert 0 <= report["sari_r"] <= report["sari"] <= 100

    SCORED = [
        ("The cat sat on the mat.", "The cat sat.", ["The cat sat.", "A cat sat."]),
        ("He went home.", "he went HOME.", ["He went home quickly."]),
        ("The big dog ran far away.", "The dog ran the dog ran.", ["The dog ran away."]),
    ]

    def _score_files(self, tmp_path):
        refs = tmp_path / "refs.jsonl"
        write_jsonl_file(refs, [{"source": s, "references": r} for s, _, r in self.SCORED])
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("".join(o + "\n" for _, o, _ in self.SCORED))
        return outputs, refs

    def test_per_instance_rows(self, tmp_path, capsys):
        outputs, refs = self._score_files(tmp_path)
        tsv = tmp_path / "per_instance.tsv"
        argv = ["score", "--outputs", str(outputs), "--refs", str(refs), "--per-instance", str(tsv)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        insts = [EvalInstance(s, o, tuple(r)) for s, o, r in self.SCORED]
        rows = tsv.read_text().splitlines()
        assert rows[0] == "sari\tsari_r\tcopy"
        assert rows[1:] == [
            f"{sari(i).sari:.4f}\t{sari_r(i):.4f}\t{int(is_copy(i))}" for i in insts
        ]
        assert [row.split("\t")[2] for row in rows[1:]] == ["0", "1", "0"]
        assert report["sari"] == sum(sari(i).sari for i in insts) / len(insts)

    def test_one_sari_pass_per_instance(self, tmp_path, capsys, monkeypatch):
        calls = []
        kernel = genmetrics._sari_kernel

        def counting(src_tokens, out_tokens, references):
            calls.append(references)
            return kernel(src_tokens, out_tokens, references)

        monkeypatch.setattr(genmetrics, "_sari_kernel", counting)
        outputs, refs = self._score_files(tmp_path)
        tsv = tmp_path / "per_instance.tsv"
        argv = ["score", "--outputs", str(outputs), "--refs", str(refs), "--per-instance", str(tsv)]
        assert main(argv) == 0
        assert calls == [tuple(refs) for _, _, refs in self.SCORED]


class TestClassifierEvalCommand:
    def test_metrics(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl_file(gold, [{"id": f"s{i}", "level": l} for i, l in
                                enumerate(["A1", "A2", "B1", "C2"])])
        write_jsonl_file(pred, [{"id": f"s{i}", "level": l} for i, l in
                                enumerate(["A1", "A2", "B2", "A1"])])
        assert main(["classifier-eval", "--gold", str(gold), "--pred", str(pred)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["items"] == 4
        assert report["adj_acc"] == 0.75
        assert report["mae"] == pytest.approx((0 + 0 + 1 + 5) / 4)


class TestAgreeCommand:
    def test_alpha_and_majority(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        rows = ["item_id\trater_id\tgroup\tvalue"]
        for item in range(6):
            for rater in ("r1", "r2", "r3", "r4"):
                value = 1.0 if rater != "r4" else 2.0
                rows.append(f"s{item}\t{rater}\tg\t{value}")
        ratings.write_text("\n".join(rows) + "\n")
        gold_out = tmp_path / "gold.jsonl"
        code = main([
            "agree", str(ratings), "--metric", "nominal",
            "--threshold", "3", "--gold-out", str(gold_out),
        ])
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["resolved"] == 6
        assert -1.0 <= result["alpha"] <= 1.0
        assert len(gold_out.read_text().splitlines()) == 6

    def test_groups_with_disjoint_items_pool(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("s1\tr1\tg1\t1\ns1\tr2\tg1\t1\ns2\tr1\tg2\t2\ns2\tr2\tg2\t1\n")
        assert main(["agree", str(ratings), "--threshold", "2"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert (result["items"], result["resolved"]) == (2, 1)


class TestReportCommand:
    def test_json_report(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text(
            "s1\tr1\tmodel-a/fluency\t4\n"
            "s1\tr2\tmodel-a/fluency\t5\n"
            "s2\tr1\tmodel-a/fluency\t3\n"
            "s2\tr2\tmodel-a/fluency\t4\n"
        )
        assert main(["report", str(ratings)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["model-a/fluency"]["items"] == 2
        assert report["model-a/fluency"]["mean"] == pytest.approx(4.0)

    def test_grouping(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("s1\tr1\tfluency\t4\ns1\tr2\tfluency\t5\ns1\tr1\tadequacy\t3\n")
        assert main(["report", str(ratings)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"fluency", "adequacy"}
        assert (report["fluency"]["mean"], report["adequacy"]["mean"]) == (4.5, 3.0)


class TestPipelineCommand:
    def test_outputs_and_manifest(self, tmp_path, capsys):
        outdir = run_pipeline(tmp_path, "run1")
        names = sorted(p.name for p in outdir.iterdir())
        expected = sorted(
            f"{task}.{split}.jsonl"
            for task in ("simplification", "complexification", "same_level")
            for split in ("train", "valid", "test")
        ) + ["manifest.json"]
        assert sorted(expected) == names

        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["scheme"] == "fkgl"
        assert manifest["seed"] == 7
        assert manifest["config_hash"]
        counts = manifest["task_counts"]
        assert len(set(counts.values())) == 1 and counts["simplification"] > 0

    def test_task_orientation(self, tmp_path, capsys):
        from levelforge.readability import level_of

        outdir = run_pipeline(tmp_path, "run1")
        for split in ("train", "valid", "test"):
            for line in (outdir / f"simplification.{split}.jsonl").read_text().splitlines():
                rec = json.loads(line)
                assert level_of(rec["source"]).value > level_of(rec["target"]).value
            for line in (outdir / f"complexification.{split}.jsonl").read_text().splitlines():
                rec = json.loads(line)
                assert level_of(rec["source"]).value < level_of(rec["target"]).value

    def test_deterministic_across_runs(self, tmp_path, capsys):
        a = run_pipeline(tmp_path, "run_a")
        b = run_pipeline(tmp_path, "run_b")
        assert digest_dir(a) == digest_dir(b)

    def test_duplicates_removed(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = make_corpus(corpus)
        write_jsonl_file(corpus, records + records[:5])
        outdir = run_pipeline(tmp_path, "run_dup")
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["drop_reasons"].get("DUPLICATE") == 5

    @pytest.mark.parametrize("settings, read", [
        ({}, ["corpus.jsonl"]),
        ({"scheme": "cefr6", "predictions": "preds.jsonl"}, ["corpus.jsonl", "preds.jsonl"]),
        ({"similarity_source": "file", "similarity_file": "sims.jsonl"}, ["corpus.jsonl", "sims.jsonl"]),
        ({"predictions": "preds.jsonl", "similarity_file": "sims.jsonl"}, ["corpus.jsonl"]),  # neither is read
    ], ids=["fkgl", "cefr6", "file", "unread"])
    def test_input_digests_name_every_file_read(self, tmp_path, capsys, monkeypatch, settings, read):
        # A changed prediction or similarity changes the task files, so the manifest digests the file it came from.
        monkeypatch.chdir(tmp_path)
        records = make_corpus(tmp_path / "corpus.jsonl")
        write_jsonl_file("preds.jsonl", [{"scheme": "cefr6"}] + [
            {"text_sha256": text_sha256(r[side]), "level": level} for i, r in enumerate(records)
            for side, level in zip(("source", "target"), ("C1", "A1") if i % 2 else ("B1", "B1"))])
        write_jsonl_file("sims.jsonl", [{"id": r["id"], "similarity": 0.75} for r in records])
        Path("config.json").write_text(json.dumps({"input": "corpus.jsonl", "output_dir": "out", **settings}))
        assert main(["pipeline", "--config", "config.json"]) == 0
        manifest = json.loads(Path("out", "manifest.json").read_text())
        assert manifest["input_digests"] == {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in read}

    def test_input_digests_are_of_the_input_as_read(self, tmp_path, capsys, monkeypatch):
        # An input in the output directory is replaced by the run's own task file; the digest is of what was read.
        monkeypatch.chdir(tmp_path)
        make_corpus(tmp_path / "corpus.jsonl")
        Path("config.json").write_text(json.dumps({"input": "corpus.jsonl", "output_dir": "out"}))
        assert main(["pipeline", "--config", "config.json"]) == 0
        read = Path("out", "simplification.train.jsonl").read_bytes()
        Path("again.json").write_text(json.dumps({"input": "out/simplification.train.jsonl", "output_dir": "out"}))
        assert main(["pipeline", "--config", "again.json"]) == 0
        assert Path("out", "simplification.train.jsonl").read_bytes() != read
        manifest = json.loads(Path("out", "manifest.json").read_text())
        assert manifest["input_digests"] == {"out/simplification.train.jsonl": hashlib.sha256(read).hexdigest()}


class TestThreads:
    def test_parallel_map_preserves_order(self, monkeypatch):
        items = list(range(5000))
        monkeypatch.setenv("LEVELFORGE_THREADS", "8")
        assert list(parallel_map(lambda x: x * x, items)) == [
            x * x for x in items
        ]

    def test_pipeline_identical_across_thread_counts(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LEVELFORGE_THREADS", "1")
        a = run_pipeline(tmp_path, "threads1")
        monkeypatch.setenv("LEVELFORGE_THREADS", "8")
        b = run_pipeline(tmp_path, "threads8")
        assert digest_dir(a) == digest_dir(b)


class TestPipelineConfig:
    def test_unknown_key_rejected(self, tmp_path):
        from levelforge.cli import ConfigError

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input": "x", "output_dir": "y", "bogus": 1, "Seed": 2}))
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_file(str(path))
        assert str(err.value) == "unknown config keys: ['Seed', 'bogus']"

    def test_missing_keys_named(self, tmp_path):
        from levelforge.cli import ConfigError

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1}))
        with pytest.raises(ConfigError) as err:
            PipelineConfig.from_file(str(path))
        assert str(err.value) == "missing config keys: ['input', 'output_dir']"

    def test_minimal_document_takes_every_default(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("c.jsonl").write_text("")
        Path("cfg.json").write_text(json.dumps({"input": "c.jsonl", "output_dir": "o"}))
        cfg = PipelineConfig.from_file("cfg.json")
        # What config_hash hashes, and so what the manifest's config_hash pins.
        assert vars(cfg) == {
            "input": "c.jsonl", "output_dir": "o", "scheme": "fkgl", "seed": 0,
            "min_words": 3, "sim_low": 0.6, "sim_high": 0.8,
            "similarity_source": "column", "similarity_file": None, "predictions": None,
            "task_size": None, "split_ratios": (0.8, 0.1, 0.1),
        }
        assert cfg.config_hash() == "1c1b79a69551e91dd9fa404ae6ba39969aa39e3fcc91f1e35622ba38503079be"

    def test_bad_scheme_rejected(self, tmp_path):
        from levelforge.cli import ConfigError

        corpus = tmp_path / "c.jsonl"
        corpus.write_text("")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "input": str(corpus), "output_dir": str(tmp_path / "o"), "scheme": "grade",
        }))
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(str(path))

    def test_config_hash_stable(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("")
        cfg = {"input": str(corpus), "output_dir": str(tmp_path / "o")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        a = PipelineConfig.from_file(str(path))
        b = PipelineConfig.from_file(str(path))
        assert a.config_hash() == b.config_hash()

    @pytest.mark.parametrize("output_dir", ["out", "cafe\u0301 out"])  # the second is not NFC
    def test_manifest_config_hash_is_sha256_of_sorted_json(self, tmp_path, capsys, output_dir):
        make_corpus(tmp_path / "corpus.jsonl", n=20)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"input": str(tmp_path / "corpus.jsonl"),
                                    "output_dir": str(tmp_path / output_dir), "seed": 5}))
        payload = json.dumps(vars(PipelineConfig.from_file(str(path))), sort_keys=True, default=str)
        assert main(["pipeline", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / output_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == hashlib.sha256(payload.encode("utf-8")).hexdigest()


class TestAnalyzeCommand:
    def test_jsonl_rows(self, tmp_path, capsys):
        data = tmp_path / "texts.jsonl"
        write_jsonl_file(data, [{"text": "The cat sat on the mat."}, {"source": "A dog ran."}])
        out = tmp_path / "stats.jsonl"
        assert main(["analyze", str(data), "-o", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["word_count"] for r in rows] == [6, 3]

    def test_jsonl_suffix_in_any_case(self, tmp_path, capsys):
        rows = {}
        for name in ("t.jsonl", "t.JSONL", "u.Jsonl"):
            write_jsonl_file(tmp_path / name, [{"text": "The cat sat on the mat. It was happy."}])
            assert main(["analyze", str(tmp_path / name)]) == 0
            rows[name] = json.loads(capsys.readouterr().out)
        assert rows["t.jsonl"]["word_count"] == 9
        assert rows["t.JSONL"] == rows["u.Jsonl"] == rows["t.jsonl"]

    def test_non_ascii_level_is_written_as_utf8(self, tmp_path, capsys):
        # Like every JSONL output: the label's own characters, not \u escapes.
        (tmp_path / "texts.txt").write_text("The cat sat on the mat.\n", encoding="utf-8")
        write_jsonl_file(tmp_path / "levels.jsonl", [{"level": "Ä1"}])
        assert main(["analyze", str(tmp_path / "texts.txt"), "--levels", str(tmp_path / "levels.jsonl")]) == 0
        row, per_level = capsys.readouterr().out.splitlines()
        assert row.endswith(', "level": "Ä1", "sentence_count": 1, "syllable_count": 6, "word_count": 6}')
        assert per_level.startswith('{"per_level": {"Ä1": {"mean_fkgl": ')


class TestSharedDropCounting:
    def test_label_counts_missing_levels(self, tmp_path, capsys):
        src, tgt = "The committee reviewed the proposal.", "The group read the plan."
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(pairs, [{"id": "p1", "source": src, "target": tgt},
                                 {"id": "p2", "source": src, "target": "An unknown text."}])
        preds = tmp_path / "preds.jsonl"
        write_jsonl_file(preds, [
            {"scheme": "cefr6"},
            {"text_sha256": text_sha256(src), "level": "C1"},
            {"text_sha256": text_sha256(tgt), "level": "A2"},
        ])
        argv = ["label", str(pairs), "--scheme", "cefr6", "--predictions", str(preds),
                "-o", str(tmp_path / "labeled.jsonl")]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().err) == {
            "command": "label", "in": 2, "out": 1, "drops": {"LEVEL_MISSING": 1}}

    def test_filter_and_pipeline_report_the_same_drops(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = make_corpus(corpus)
        write_jsonl_file(corpus, records + [
            {"id": "short", "source": "Hi there.", "target": "Hello my friend over there.",
             "similarity": 0.7},
            {"id": "contained", "source": "The cat sat on the mat today.",
             "target": "The cat sat on the mat.", "similarity": 0.7},
            {"id": "low", "source": "The cat sat on the mat.",
             "target": "A cat was sitting there.", "similarity": 0.2},
            {"id": "high", "source": "The dog sat on the rug.",
             "target": "A dog was sitting there.", "similarity": 0.95},
        ])
        assert main(["filter", str(corpus), "-o", str(tmp_path / "kept.jsonl")]) == 0
        filtered = json.loads(capsys.readouterr().err)
        manifest = json.loads((run_pipeline(tmp_path, "run") / "manifest.json").read_text())
        piped = json.loads(capsys.readouterr().err)
        assert filtered["drops"] == piped["drops"] == manifest["drop_reasons"] == {
            "CONTAINMENT": 1, "SIM_HIGH": 1, "SIM_LOW": 1, "TOO_SHORT": 1,
        }
        assert filtered["in"] == piped["in"] == len(records) + 4

    def test_similarity_rules_are_attributed_first(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = make_corpus(corpus)
        write_jsonl_file(corpus, records + [
            {"id": "short-and-low", "source": "Hi there.",
             "target": "Hello my friend over there.", "similarity": 0.2},
        ])
        assert main(["filter", str(corpus), "-o", str(tmp_path / "kept.jsonl")]) == 0
        filtered = json.loads(capsys.readouterr().err)
        manifest = json.loads((run_pipeline(tmp_path, "run") / "manifest.json").read_text())
        piped = json.loads(capsys.readouterr().err)
        assert filtered["drops"] == piped["drops"] == manifest["drop_reasons"] == {"SIM_LOW": 1}
        assert manifest["conventions"]["filter_order"] == (
            "SIM_MISSING, SIM_LOW, SIM_HIGH, TOO_SHORT, CONTAINMENT: first failing rule")


class TestOneFunnel:
    @staticmethod
    def write_corpus(corpus):
        """Write the funnel's corpus to ``corpus``; return its cefr6 prediction rows, header first."""
        records = make_corpus(corpus)
        write_jsonl_file(corpus, records + [
            {"id": "short", "source": "Hi there.", "target": "Hello my friend over there.",
             "similarity": 0.7},
            {"id": "low", "source": "The cat sat on the mat.",
             "target": "A cat was sitting there.", "similarity": 0.2},
        ])
        # Keyed by text only, as pipeline replaces ids with pair keys. By i % 5 a
        # pair has an unleveled side, a one-level gap, or is same, down or up.
        levels = [("B1", None), ("B1", "B2"), ("B1", "B1"), ("C1", "A1"), ("A1", "C1")]
        return [{"scheme": "cefr6"}] + [
            {"text_sha256": text_sha256(r[side]), "level": level}
            for i, r in enumerate(records)
            for side, level in zip(("source", "target"), levels[i % 5]) if level
        ]

    @pytest.mark.parametrize("scheme", ["fkgl", "cefr6"])
    def test_stage_commands_and_pipeline_agree(self, tmp_path, capsys, scheme):
        corpus = tmp_path / "corpus.jsonl"
        preds = tmp_path / "preds.jsonl"
        write_jsonl_file(preds, self.write_corpus(corpus))
        predicted = ["--predictions", str(preds)] if scheme == "cefr6" else []
        summaries = []
        for argv in (
            ["filter", str(corpus), "-o", str(tmp_path / "kept.jsonl")],
            ["label", str(tmp_path / "kept.jsonl"), "--scheme", scheme, *predicted,
             "-o", str(tmp_path / "leveled.jsonl")],
            ["bucket", str(tmp_path / "leveled.jsonl"), "--scheme", scheme,
             "-o", str(tmp_path / "tasks.jsonl")],
        ):
            assert main(argv) == 0
            summaries.append(json.loads(capsys.readouterr().err))
        config = {"input": str(corpus), "output_dir": str(tmp_path / "out"), "scheme": scheme}
        if scheme == "cefr6":
            config["predictions"] = str(preds)
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(tmp_path / "config.json")]) == 0
        piped = json.loads(capsys.readouterr().err)
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        stats = manifest["conventions"]["bucket_stats"]

        filtered, labeled, bucketed = summaries
        # NEAR_LEVEL is counted in bucket_stats, not in pipeline's drops.
        near_level = bucketed["drops"].pop("NEAR_LEVEL", 0)
        stage_drops = Counter(filtered["drops"]) + Counter(labeled["drops"]) + Counter(bucketed["drops"])
        assert piped["drops"] == dict(stage_drops)
        assert stats["near_level_rejects"] == near_level
        if scheme == "cefr6":
            assert stage_drops["LEVEL_MISSING"] == near_level == 12
        tasks = [json.loads(line) for line in (tmp_path / "tasks.jsonl").read_text().splitlines()]
        assert stats["bucket_counts"] == {t: sum(r["task"] == t for r in tasks)
                                          for t in ("down", "up", "same")}
        assert piped["out"] == bucketed["in"]

        by_text = {(r["source"], r["target"]): (r["source_level"], r["target_level"], r["task"])
                   for r in tasks}
        opposite = {"down": "up", "up": "down"}
        written = [json.loads(line) for path in sorted((tmp_path / "out").glob("*.jsonl"))
                   for line in path.read_text().splitlines()]
        assert len(written) == sum(manifest["task_counts"].values()) > 0
        for r in written:
            if (r["source"], r["target"]) in by_text:
                assert by_text[r["source"], r["target"]] == (r["source_level"], r["target_level"], r["task"])
            else:  # build_datasets swapped the pair
                assert by_text[r["target"], r["source"]] == (
                    r["target_level"], r["source_level"], opposite[r["task"]])

    def test_predictions_for_absent_texts_change_nothing(self, tmp_path, capsys, monkeypatch):
        # Rows for texts and ids the input does not hold, among the rows it uses, are never looked up.
        rows = self.write_corpus(tmp_path / "corpus.jsonl")
        absent = [row for i in range(500) for row in (
            {"text_sha256": text_sha256(f"A text number {i} that the corpus does not hold."), "level": CEFR6[i % 6]},
            {"id": f"{pair_key(f'Absent source {i}.', 'Absent target.').hex()}:source", "level": CEFR6[-1 - i % 6]})]
        written = []
        for name, preds in (("a", rows), ("b", [rows[0], *absent[::2], *rows[1:], *absent[1::2]])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            shutil.copy(tmp_path / "corpus.jsonl", "corpus.jsonl")
            write_jsonl_file("preds.jsonl", preds)
            Path("config.json").write_text(json.dumps(
                {"input": "corpus.jsonl", "output_dir": "out", "scheme": "cefr6", "predictions": "preds.jsonl"}))
            assert main(["pipeline", "--config", "config.json"]) == 0
            written.append({path.name: path.read_bytes() for path in Path("out").iterdir()})
        # The manifest digests the predictions file it read, which differs; nothing else does.
        manifests = [json.loads(files.pop("manifest.json")) for files in written]
        assert [m["input_digests"].pop("preds.jsonl") for m in manifests] == [
            hashlib.sha256(Path(tmp_path, name, "preds.jsonl").read_bytes()).hexdigest() for name in "ab"]
        assert manifests[0] == manifests[1] and manifests[0]["task_counts"]["simplification"] > 0
        assert written[0] == written[1] and len(written[0]) == 9

    @pytest.mark.parametrize("seed, task_size", [(7, None), (-3, 5)])
    def test_pipeline_files_equal_the_sampling_oracle(self, tmp_path, capsys, monkeypatch, seed, task_size):
        # The oracle's pool is the bucket command's output, each id recomputed from the texts as pipeline keys it.
        monkeypatch.chdir(tmp_path)
        write_jsonl_file("corpus.jsonl", corpus_records() + [  # no duplicates; two sides not in NFC
            {"id": f"nfc{i}", "source": f"Cafe\u0301 owners number {i} reviewed the complicated proposal very carefully.",
             "target": f"The cafe\u0301 owners {i} read it.", "similarity": 0.7} for i in range(2)])
        for argv in (["filter", "corpus.jsonl", "-o", "kept.jsonl"],
                     ["label", "kept.jsonl", "--scheme", "fkgl", "-o", "leveled.jsonl"],
                     ["bucket", "leveled.jsonl", "--scheme", "fkgl", "-o", "tasks.jsonl"]):
            assert main(argv) == 0
        pool = [dict(r, id=sampling_ref.pair_id(r["source"], r["target"]))
                for r in map(json.loads, Path("tasks.jsonl").read_text(encoding="utf-8").splitlines())]
        names = {"down": "simplification", "up": "complexification", "same": "same_level"}
        want = {f"{names[task]}.{split}.jsonl": sampling_ref.jsonl_bytes(part)
                for task, dataset in sampling_ref.datasets(pool, seed, task_size).items()
                for split, part in sampling_ref.split(dataset, (0.8, 0.1, 0.1), seed, lambda r: r["id"]).items()}

        Path("config.json").write_text(json.dumps(
            {"input": "corpus.jsonl", "output_dir": "out", "seed": seed, "task_size": task_size}))
        assert main(["pipeline", "--config", "config.json"]) == 0
        assert {name: Path("out", name).read_bytes() for name in want} == want
        assert len(want) == 9 and all(want[f"{name}.train.jsonl"] for name in names.values())


class TestLocatedDataErrors:
    def test_label_side_without_words(self, tmp_path, capsys):
        # Not a data error: like a CEFR side without a prediction, it is a LEVEL_MISSING drop.
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(pairs, [
            {"id": "p1", "source": "The cat sat on the mat.", "target": "A cat sat there."},
            {"id": "p2", "source": "... !!!", "target": "The cat sat on the mat."},
        ])
        labeled = tmp_path / "labeled.jsonl"
        assert main(["label", str(pairs), "--scheme", "fkgl", "-o", str(labeled)]) == 0
        assert capsys.readouterr().err == (
            '{"command": "label", "drops": {"LEVEL_MISSING": 1}, "in": 2, "out": 1}\n'
        )
        assert [json.loads(line)["id"] for line in labeled.read_text().splitlines()] == ["p1"]


CEFR6 = ("A1", "A2", "B1", "B2", "C1", "C2")


class TestWeakClassifierPipeline:
    """The cefr6 pipeline: levels come from a predictions file, not from FKGL."""

    # Per-pair (source, target) labels by id mod 8: down, near-level, up, same.
    LEVELS = {0: ("C1", "A2"), 2: ("B2", "B1"), 4: ("A1", "C2"), 6: ("B2", "B1")}

    def test_levels_gaps_drops_and_rerun(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        records = make_corpus(corpus)
        rows = []
        for i, rec in enumerate(records):
            if i % 10 == 9:
                continue  # no prediction for either side: LEVEL_MISSING
            src, tgt = self.LEVELS.get(i % 8, ("B1", "B1"))
            rows += [{"text_sha256": text_sha256(rec["source"]), "level": src},
                     {"text_sha256": text_sha256(rec["target"]), "level": tgt}]
        preds = tmp_path / "preds.jsonl"
        write_jsonl_file(preds, [{"scheme": "cefr6"}, *rows])
        outdir = tmp_path / "out"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output_dir": str(outdir),
                                      "scheme": "cefr6", "predictions": str(preds), "seed": 3}))

        assert main(["pipeline", "--config", str(config)]) == 0
        first = {p.name: p.read_bytes() for p in outdir.iterdir()}
        manifest = json.loads(first["manifest.json"])
        assert manifest["scheme"] == "cefr6"
        assert manifest["drop_reasons"]["LEVEL_MISSING"] == 6
        assert manifest["task_counts"]["simplification"] > 0
        gaps = {"down": [], "up": [], "same": []}
        for name, data in first.items():
            for line in data.decode().splitlines() if name.endswith(".jsonl") else []:
                rec = json.loads(line)
                gap = CEFR6.index(rec["source_level"]) - CEFR6.index(rec["target_level"])
                gaps[rec["task"]].append(gap)
        assert gaps["down"] and min(gaps["down"]) >= 2
        assert gaps["up"] and max(gaps["up"]) <= -2
        assert gaps["same"] and set(gaps["same"]) == {0}

        assert main(["pipeline", "--config", str(config)]) == 0
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == first

    def test_levels_keyed_by_pair_key_hex(self, tmp_path, capsys):
        # No text_sha256 rows: each side is found by "<pair key in hex>:source" or ":target" alone.
        corpus = tmp_path / "corpus.jsonl"
        records = make_corpus(corpus)
        rows = []
        for i, rec in enumerate(records):
            payload = f"{rec['source']}\x00{rec['target']}".encode("utf-8")  # ASCII: NFC leaves it
            key = hashlib.sha256(payload).hexdigest()
            for role, level in zip(("source", "target"), self.LEVELS.get(i % 8, ("B1", "B1"))):
                rows.append({"id": f"{key}:{role}", "level": level})
        write_jsonl_file(tmp_path / "preds.jsonl", [{"scheme": "cefr6"}, *rows])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output_dir": str(tmp_path / "out"),
                                      "scheme": "cefr6", "predictions": str(tmp_path / "preds.jsonl")}))
        assert main(["pipeline", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["drop_reasons"] == {}
        stats = manifest["conventions"]["bucket_stats"]
        assert sum(stats["bucket_counts"].values()) + stats["near_level_rejects"] == len(records)


class TestSimilaritySources:
    @pytest.mark.parametrize("source", ["none", "builtin-lexical", "file"])
    def test_success_path(self, tmp_path, capsys, source):
        from levelforge.corpus import lexical_similarity

        corpus = tmp_path / "corpus.jsonl"
        records = make_corpus(corpus)
        records[0]["similarity"] = 0.2  # below the band in the column
        del records[1]["similarity"]
        write_jsonl_file(corpus, records)
        config = {"input": str(corpus), "output_dir": str(tmp_path / "out"),
                  "similarity_source": source}
        if source == "file":
            # The file overrides the column by id: p0000 and p0001 enter the
            # band, p0002 leaves it; every other pair keeps its column value.
            sims = tmp_path / "sims.jsonl"
            write_jsonl_file(sims, [{"id": "p0000", "similarity": 0.7},
                                    {"id": "p0001", "similarity": 0.7},
                                    {"id": "p0002", "similarity": 0.95}])
            config["similarity_file"] = str(sims)
            expected = {"SIM_HIGH": 1}
        elif source == "builtin-lexical":
            lexical = [lexical_similarity(r["source"], r["target"]) for r in records]
            counts = {"SIM_LOW": sum(s < 0.6 for s in lexical),
                      "SIM_HIGH": sum(s > 0.8 for s in lexical)}
            expected = {k: v for k, v in counts.items() if v}
        else:
            expected = {}  # no similarity is read, so no SIM_* drop
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["pipeline", "--config", str(path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["filter_settings"]["similarity_source"] == source
        assert manifest["drop_reasons"] == expected
        stats = manifest["conventions"]["bucket_stats"]
        bucketed = sum(stats["bucket_counts"].values()) + stats["near_level_rejects"]
        assert bucketed == len(records) - sum(expected.values())

    def test_lexical_similarity_only_for_unique_pairs(self, tmp_path, capsys, monkeypatch):
        # Dedup comes first, so a dropped duplicate costs no trigram cosine.
        corpus = tmp_path / "corpus.jsonl"
        records = make_corpus(corpus)
        write_jsonl_file(corpus, records + records[:5])
        calls = []
        lexical = cli.lexical_similarity

        def counting(a, b):
            calls.append((a, b))
            return lexical(a, b)

        monkeypatch.setattr(cli, "lexical_similarity", counting)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output_dir": str(tmp_path / "out"),
                                      "similarity_source": "builtin-lexical"}))
        assert main(["pipeline", "--config", str(config)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["drop_reasons"]["DUPLICATE"] == 5
        assert sorted(calls) == sorted((r["source"], r["target"]) for r in records)

    def test_first_occurrence_id_picks_the_file_similarity(self, tmp_path, capsys):
        # Two ids for one pair: the file maps them to values on either side of
        # the band, and the column value (below it) is never used.
        records = make_corpus(tmp_path / "unused.jsonl", n=40)
        in_band = {**records[0], "id": "in-band", "similarity": 0.2}
        too_high = {**records[0], "id": "too-high", "similarity": 0.2}
        sims = tmp_path / "sims.jsonl"
        write_jsonl_file(sims, [{"id": "in-band", "similarity": 0.7},
                                {"id": "too-high", "similarity": 0.95}])
        drops = []
        for name, order in (("a", [in_band, *records[1:], too_high]),
                            ("b", [too_high, *records[1:], in_band])):
            write_jsonl_file(tmp_path / f"{name}.jsonl", order)
            config = tmp_path / f"{name}.json"
            config.write_text(json.dumps({
                "input": str(tmp_path / f"{name}.jsonl"), "output_dir": str(tmp_path / name),
                "similarity_source": "file", "similarity_file": str(sims)}))
            assert main(["pipeline", "--config", str(config)]) == 0
            drops.append(json.loads((tmp_path / name / "manifest.json").read_text())["drop_reasons"])
        assert drops == [{"DUPLICATE": 1}, {"DUPLICATE": 1, "SIM_HIGH": 1}]


class TestAnalyzeLevelsAndTextReport:
    def test_analyze_per_level_line(self, tmp_path, capsys):
        data = tmp_path / "texts.txt"
        data.write_text("The cat sat on the mat.\nA dog ran.\nThe committee reviewed it.\n")
        levels = tmp_path / "levels.jsonl"
        write_jsonl_file(levels, [{"level": "A1"}, {"level": "A1"}, {"level": "B2"}])
        out = tmp_path / "stats.jsonl"
        assert main(["analyze", str(data), "--levels", str(levels), "-o", str(out)]) == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r.get("level") for r in rows[:3]] == ["A1", "A1", "B2"]
        per_level = rows[3]["per_level"]
        assert {k: v["texts"] for k, v in per_level.items()} == {"A1": 2, "B2": 1}
        a1_mean = (rows[0]["fkgl"] + rows[1]["fkgl"]) / 2
        assert per_level["A1"]["mean_fkgl"] == pytest.approx(a1_mean)
        assert per_level["B2"]["mean_fkgl"] == rows[2]["fkgl"]

    def test_report_text_format(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text(
            "s1\tr1\tmodel-a/fluency\t4\n"
            "s1\tr2\tmodel-a/fluency\t5\n"
            "s2\tr1\tmodel-a/fluency\t3\n"
            "s2\tr2\tmodel-a/fluency\t4\n"
        )
        assert main(["report", str(ratings), "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["group", "mean", "ci95", "alpha", "items"]
        assert len(lines) == 2
        cells = lines[1].split()
        assert (cells[0], cells[1], cells[-1]) == ("model-a/fluency", "4.00", "2")


class TestRarePaths:
    def test_analyze_skips_blank_lines(self, tmp_path, capsys):
        data = tmp_path / "texts.txt"
        data.write_text("The cat sat.\n\n   \nA dog ran fast.\n")
        assert main(["analyze", str(data)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["word_count"] for r in rows] == [3, 4]

    def test_report_single_rater_has_no_alpha(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("s1\tr1\tg\t4\ns2\tr1\tg\t2\n")
        assert main(["report", str(ratings)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["g"]["alpha_ordinal"] is None
        assert report["g"]["mean"] == 3.0

    def test_score_outputs_without_words(self, tmp_path, capsys):
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("...\n")
        refs = tmp_path / "refs.jsonl"
        write_jsonl_file(refs, [{"source": "The cat sat.", "references": ["A cat sat."]}])
        assert main(["score", "--outputs", str(outputs), "--refs", str(refs)]) == 0
        assert json.loads(capsys.readouterr().out)["fkgl"] is None

    def test_module_entry_point(self):
        from levelforge import __version__

        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "levelforge.cli", "--version"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{__version__}\n", "")


class TestOutputsAreAllOrNothing:
    GOOD = {"source": "A hard sentence.", "target": "An easy one.", "task": "down"}
    PAIR = {"id": "a", "source": "The committee reviewed the long proposal.",
            "target": "The group read the plan.", "similarity": 0.7}

    def prompt_bad_at_line_3(self, tmp_path):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [self.GOOD, self.GOOD, {"target": "x", "task": "down"}])
        return data, ["prompt", str(data), "--strategy", "rel", "--scheme", "fkgl"], 3

    def filter_bad_at_line_2(self, tmp_path):
        data = tmp_path / "pairs.jsonl"
        data.write_text(json.dumps(self.PAIR) + "\n{not json\n")
        return data, ["filter", str(data)], 2

    @pytest.mark.parametrize("make", ["prompt_bad_at_line_3", "filter_bad_at_line_2"])
    @pytest.mark.parametrize("existing", [None, "old contents\n"])
    def test_failed_command_leaves_target_as_it_was(self, tmp_path, capsys, make, existing):
        data, argv, lineno = getattr(self, make)(tmp_path)
        out = tmp_path / "out.jsonl"
        if existing is not None:
            out.write_text(existing)
        before = sorted(p.name for p in tmp_path.iterdir())
        assert main([*argv, "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {data}:{lineno}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (out.read_text() if out.exists() else None) == existing

    @pytest.mark.parametrize("make", ["prompt_bad_at_line_3", "filter_bad_at_line_2"])
    @pytest.mark.parametrize("to_stdout", [[], ["-o", "-"]])
    def test_failed_command_prints_nothing(self, tmp_path, capsys, make, to_stdout):
        # The records before the bad line must not reach stdout either.
        data, argv, lineno = getattr(self, make)(tmp_path)
        assert main([*argv, *to_stdout]) == 1
        out, err = capsys.readouterr()
        assert (out, err.startswith(f"error: {data}:{lineno}: ")) == ("", True)

    def test_failed_command_writes_nothing_to_a_pipe(self, tmp_path, capsys):
        data, argv, lineno = self.filter_bad_at_line_2(tmp_path)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main([*argv, "-o", str(fifo)]) == 1
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [""]

    def test_success_replaces_target_and_keeps_its_mode(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [self.GOOD])
        out = tmp_path / "out.jsonl"
        out.write_text("old contents\n")
        out.chmod(0o640)
        argv = ["prompt", str(data), "--strategy", "rel", "--scheme", "fkgl", "-o", str(out)]
        assert main(argv) == 0
        assert json.loads(out.read_text())["output"] == "An easy one."
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "out.jsonl"]

    def test_pipe_target_is_written_in_place(self, tmp_path, capsys):
        # As for `-o >(gzip > out.gz)`: nothing may be renamed onto a pipe.
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [self.GOOD])
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        argv = ["prompt", str(data), "--strategy", "rel", "--scheme", "fkgl", "-o", str(fifo)]
        assert main(argv) == 0
        reader.join(timeout=10)
        assert [json.loads(text)["output"] for text in received] == ["An easy one."]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_stdout_pipe_target_is_written_in_place(self, tmp_path):
        # /dev/stdout is a link through /proc/self/fd to a pipe with no path of its own.
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [self.GOOD])
        argv = ["prompt", str(data), "--strategy", "rel", "--scheme", "fkgl", "-o", "/dev/stdout"]
        proc = cli_child(argv, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert [json.loads(line)["output"] for line in proc.stdout.splitlines()] == ["An easy one."]

    def test_stdout_file_target_is_appended_to(self, tmp_path):
        # `filter ok.jsonl -o /dev/stdout >> log`: /dev/stdout is the log file
        # itself, which must be appended to through stdout, not replaced.
        data = tmp_path / "pairs.jsonl"
        write_jsonl_file(data, [self.PAIR])
        log = tmp_path / "log.txt"
        log.write_text("old\n")
        with open(log, "a", encoding="utf-8") as stdout:
            proc = cli_child(["filter", str(data), "-o", "/dev/stdout"], stdout=stdout, stderr=subprocess.PIPE)
        assert proc.returncode == 0, proc.stderr
        old, record = log.read_text().splitlines()
        assert (old, json.loads(record)["target"]) == ("old", self.PAIR["target"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.txt", "pairs.jsonl"]

    def test_stderr_file_target_is_appended_to(self, tmp_path):
        # `filter ok.jsonl -o /dev/stderr 2>> log`: the records go through
        # stderr into the log, before the summary, and the log keeps its start.
        data = tmp_path / "pairs.jsonl"
        write_jsonl_file(data, [self.PAIR])
        log = tmp_path / "log.txt"
        log.write_text("old\n")
        with open(log, "a", encoding="utf-8") as stderr:
            proc = cli_child(["filter", str(data), "-o", "/dev/stderr"], stdout=subprocess.PIPE, stderr=stderr)
        assert (proc.returncode, proc.stdout) == (0, b"")
        old, record, summary = log.read_text().splitlines()
        assert (old, json.loads(record)["target"]) == ("old", self.PAIR["target"])
        assert json.loads(summary) == {"command": "filter", "in": 1, "out": 1, "drops": {}}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["log.txt", "pairs.jsonl"]

    def test_file_a_standard_stream_has_open_is_written_through_it(self, tmp_path, monkeypatch):
        # In process, so that stdout is capture's stream without a descriptor.
        data = tmp_path / "pairs.jsonl"
        write_jsonl_file(data, [self.PAIR])
        log = tmp_path / "log.txt"
        log.write_text("old\n")
        with open(log, "a", encoding="utf-8") as stderr, monkeypatch.context() as m:
            m.setattr(sys, "stderr", stderr)
            assert main(["filter", str(data), "-o", str(log)]) == 0
        old, record, summary = log.read_text().splitlines()
        assert (old, json.loads(record)["target"]) == ("old", self.PAIR["target"])
        assert json.loads(summary)["out"] == 1

    def test_summary_comes_after_the_records_in_a_shared_file(self, tmp_path):
        # `filter pairs.jsonl > log 2>&1` with stdout buffered: the records,
        # more than a buffer's worth, all reach the log before the summary.
        data = tmp_path / "pairs.jsonl"
        write_jsonl_file(data, [{**self.PAIR, "id": str(i)} for i in range(1000)])
        log = tmp_path / "log.txt"
        with open(log, "w", encoding="utf-8") as shared:
            proc = cli_child(["filter", str(data)], stdout=shared, stderr=subprocess.STDOUT)
        assert proc.returncode == 0
        *records, summary = log.read_text().splitlines()
        assert [json.loads(line)["target"] for line in records] == [self.PAIR["target"]] * 1000
        assert json.loads(summary)["out"] == 1000

    def test_read_only_target_is_refused(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [self.GOOD])
        out = tmp_path / "out.jsonl"
        out.write_text("old contents\n")
        out.chmod(0o444)
        if os.geteuid() == 0:  # root may write any file: check as a user who may not
            monkeypatch.setattr(os, "access", lambda path, mode: False)
        argv = ["prompt", str(data), "--strategy", "rel", "--scheme", "fkgl", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 13] Permission denied: '{out}'\n"
        assert out.read_text() == "old contents\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.jsonl", "out.jsonl"]

    def test_directory_target_is_refused_before_any_work(self, tmp_path, capsys):
        # Opened as a stream before the input is read, whose bad line 2 would be exit 1.
        data, argv, _ = self.filter_bad_at_line_2(tmp_path)
        assert main([*argv, "-o", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{tmp_path}'\n")

    def test_missing_directory_names_the_target(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [self.GOOD])
        out = tmp_path / "nowhere" / "out.jsonl"
        argv = ["prompt", str(data), "--strategy", "rel", "--scheme", "fkgl", "-o", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"

    @staticmethod
    def fail_write_jsonl_call(monkeypatch, k):
        """Make the k-th ``cli.write_jsonl`` call fail as a full disk would."""
        calls = []
        write_jsonl = cli.write_jsonl

        def failing(records, out):
            calls.append(out)
            if len(calls) == k:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return write_jsonl(records, out)

        monkeypatch.setattr(cli, "write_jsonl", failing)

    @staticmethod
    def pipeline(tmp_path, corpus, seed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"input": str(corpus), "output_dir": str(tmp_path / "out"), "seed": seed}))
        return main(["pipeline", "--config", str(config)])

    def test_pipeline_failing_while_writing_leaves_no_manifest(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus.jsonl"
        make_corpus(corpus)
        assert self.pipeline(tmp_path, corpus, seed=1) == 0
        self.fail_write_jsonl_call(monkeypatch, 5)
        capsys.readouterr()
        assert self.pipeline(tmp_path, corpus, seed=2) == 2
        fifth = tmp_path / "out" / "complexification.valid.jsonl"
        assert capsys.readouterr().err == f"error: {ENOSPC}: '{fifth}'\n"
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert ("manifest.json" in names, len(names), [n for n in names if n.endswith(".tmp")]) == (False, 9, [])

    def test_pipeline_removes_the_temporary_files_of_killed_runs(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        make_corpus(corpus)
        out = tmp_path / "out"
        out.mkdir()
        stale = ["manifest.json.99999.tmp", "simplification.train.jsonl.1.tmp", "same_level.test.jsonl.42.tmp"]
        kept = ["notes.txt.7.tmp", "manifest.json.tmp", "other.jsonl.3.tmp"]
        for name in stale + kept:
            (out / name).write_text("partial")
        assert self.pipeline(tmp_path, corpus, seed=1) == 0
        assert sorted(p.name for p in out.glob("*.tmp")) == sorted(kept)

    # Arguments run in tmp_path, and the files they write into out/.
    WRITES = {
        "filter": (["filter", "pairs.jsonl", "-o", "out/kept.jsonl"], ["kept.jsonl"]),
        "split": (["split", "pairs.jsonl", "-o", "out"], ["train.jsonl", "valid.jsonl", "test.jsonl"]),
        "score": (["score", "--outputs", "outputs.txt", "--refs", "refs.jsonl", "--per-instance", "out/scores.tsv"],
                  ["scores.tsv"]),
    }

    @pytest.mark.parametrize("linked", [False, True], ids=["file", "symlink"])
    @pytest.mark.parametrize("command", WRITES)
    def test_writes_remove_the_temporary_files_of_killed_runs(self, tmp_path, capsys, monkeypatch, command, linked):
        # Only <target>.<digits>.tmp goes, beside the real target: for a symlink, the file it points to.
        write_jsonl_file(tmp_path / "pairs.jsonl", [{**self.PAIR, "id": str(i)} for i in range(10)])
        (tmp_path / "outputs.txt").write_text(self.PAIR["target"] + "\n")
        write_jsonl_file(tmp_path / "refs.jsonl", [{"source": self.PAIR["source"], "references": [self.PAIR["target"]]}])
        argv, outputs = self.WRITES[command]
        out, beside = tmp_path / "out", tmp_path / ("real" if linked else "out")
        out.mkdir()
        beside.mkdir(exist_ok=True)
        stale, kept = [], [beside / "notes.txt.7.tmp"]
        for name in outputs:
            if linked:
                (beside / name).write_text("old\n")
                (out / name).symlink_to(beside / name)
                kept.append(out / f"{name}.5.tmp")  # beside the link, not beside the file it points to
            stale += [beside / f"{name}.1.tmp", beside / f"{name}.99999.tmp"]
            kept += [beside / f"{name}.tmp", beside / f"{name}.x1.tmp"]
        for path in stale + kept:
            path.write_text("partial")
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 0
        assert sorted(tmp_path.rglob("*.tmp")) == sorted(kept)
        assert [(out / name).is_symlink() for name in outputs] == [linked] * len(outputs)

    def test_pipeline_failing_before_writing_leaves_the_last_run(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        make_corpus(corpus)
        assert self.pipeline(tmp_path, corpus, seed=1) == 0
        out = tmp_path / "out"
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert "manifest.json" in before
        corpus.write_text(corpus.read_text() + "{not json\n")
        capsys.readouterr()
        assert self.pipeline(tmp_path, corpus, seed=2) == 1
        assert capsys.readouterr().err.startswith(f"error: {corpus}:61: ")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_split_failing_on_the_second_file_keeps_the_rest(self, tmp_path, capsys, monkeypatch):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [{"id": f"p{i}"} for i in range(20)])
        outdir = tmp_path / "splits"
        assert main(["split", str(data), "-o", str(outdir), "--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        self.fail_write_jsonl_call(monkeypatch, 2)
        capsys.readouterr()
        assert main(["split", str(data), "-o", str(outdir), "--seed", "2"]) == 2
        assert capsys.readouterr().err == f"error: {ENOSPC}: '{outdir / 'valid.jsonl'}'\n"
        after = {p.name: p.read_bytes() for p in outdir.iterdir()}
        assert sorted(after) == ["test.jsonl", "train.jsonl", "valid.jsonl"]
        assert after["train.jsonl"] != before["train.jsonl"]  # the one file that was written
        assert [after[n] for n in ("valid.jsonl", "test.jsonl")] == [
            before[n] for n in ("valid.jsonl", "test.jsonl")]


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    """The failure table's rows, {name: (directory, argv)}: for each subcommand, its matrix command
    with the most arguments, then the declared extras. Every matrix command has run once in these
    directories, so each row finds the inputs it reads."""
    root = tmp_path_factory.mktemp("table")
    matrix.small_inputs(root)
    rows = {}
    utf8 = functools.partial(io.TextIOWrapper, encoding="utf-8")  # as stdout is: bytes under the text
    with pytest.MonkeyPatch.context() as m, redirect_stdout(utf8(io.BytesIO())), redirect_stderr(utf8(io.BytesIO())):
        for case, commands in matrix.CASES.items():
            m.chdir(root / case)
            for argv in commands(root / case):
                assert main(argv) == 0, argv
                rows[argv[0]] = max(rows.get(argv[0], (root, [])), (root / case, argv), key=lambda row: len(row[1]))
    shutil.copy(root / "pipeline" / "corpus.jsonl", root / "eval" / "pairs.jsonl")
    return {**rows, **{name: (root / "eval", argv) for name, argv in TestFailedWrites.EXTRAS.items()}}


@pytest.fixture(scope="module")
def evaldir(table):
    return table["report"][0]


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
class TestFailedWrites:
    """The failure table: each row runs in process under each way a standard stream can fail, and
    its clean run decides the outcome by one rule. If the clean run wrote to that stream, the run
    exits 2 (a failed one keeps its code), a failed stdout leaving just one ``error:`` line naming
    ``<stdout>``; else exit code and bytes are the clean run's. Files are always the clean run's.
    Declared exceptions: --help and --version exit 0, printing nothing; a line into a missing
    stderr is lost and changes nothing. ``main`` leaves the streams and descriptors as they were, and
    closes what it opens: a file left to the garbage collector warns, and the warning fails the row."""

    MODES = [f"{kind}-{stream}" for stream in ("stdout", "stderr") for kind in ("closed", "full", "missing")]
    ERRNO = {"closed": errno.EPIPE, "full": errno.ENOSPC, "missing": errno.EBADF}
    EXTRAS = {"usage-error": ["bogus"], "data-error": ["report", "refs.jsonl"], "--help": ["--help"],
              "--version": ["--version"]}
    # One row per mode, run again in a child with real descriptors and stdout buffered as users run it.
    REAL = {"closed-stdout": "report", "full-stdout": "--version", "missing-stdout": "--help",
            "closed-stderr": "filter", "full-stderr": "data-error", "missing-stderr": "usage-error"}
    # Hand-picked rows that write to stdout, in the eval directory.
    ARGV = {"filter": ["filter", "pairs.jsonl"], "score": ["score", "--outputs", "outputs.txt", "--refs", "refs.jsonl"],
            "report": ["report", "ratings.tsv"]}

    @staticmethod
    def in_process(workdir, argv, stdout, stderr):
        """The exit code of ``main(argv)`` run in ``workdir`` with these standard streams, which it
        must leave in place, with no more or fewer descriptors open than before."""
        fds = os.listdir("/dev/fd")
        with pytest.MonkeyPatch.context() as m:
            m.chdir(workdir)
            m.setattr(sys, "stdout", stdout)
            m.setattr(sys, "stderr", stderr)
            try:
                code = main(argv)
            except SystemExit as exc:  # from argparse
                code = exc.code
            assert (sys.stdout is stdout, sys.stderr is stderr) == (True, True)
        assert os.listdir("/dev/fd") == fds
        return code

    @classmethod
    def run(cls, workdir, argv, mode="", child=False):
        """(exit code, stdout, stderr, files) of ``argv`` in ``workdir`` under ``mode``; None for the failed stream."""
        kind, _, failing = mode.partition("-")
        if kind == "full" and not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with ExitStack() as stack:
            fd = os.open("/dev/full", os.O_WRONLY) if kind == "full" else None
            if kind == "closed":  # a pipe whose read end is closed, as `| head`'s is once it has read enough
                read, fd = os.pipe()
                os.close(read)
            if fd is not None:
                stack.callback(os.close, fd)
            captured = {name: stack.enter_context(tempfile.TemporaryFile("w+", encoding="utf-8"))
                        for name in ("stdout", "stderr")}
            streams = dict(captured)
            if failing:  # in process, a writer on the descriptor or None; a child gets the descriptor, or closes it
                streams[failing] = fd if child or fd is None else stack.enter_context(
                    open(fd, "w", encoding="utf-8", closefd=False))
            if child:
                closed = {"stdout": 1, "stderr": 2}[failing] if kind == "missing" else None
                code = cli_child(argv, workdir, preexec_fn=closed and (lambda: os.close(closed)), **streams).returncode
            else:
                code = cls.in_process(workdir, argv, **streams)
            texts = [None if name == failing else stream.seek(0) or stream.read() for name, stream in captured.items()]
        return code, *texts, digest_tree(workdir)

    @classmethod
    @functools.lru_cache(maxsize=None)
    def clean(cls, workdir, *argv):
        return cls.run(workdir, list(argv))

    @classmethod
    def expected(cls, workdir, argv, mode):
        """What ``mode`` gives ``argv``: the table's one rule, applied to its clean run."""
        code, out, err, files = cls.clean(workdir, *argv)
        kind, failing = mode.split("-")
        if failing == "stderr":  # a line it cannot take fails the run; declared: a missing stderr changes nothing
            return (code or 2) if err and kind != "missing" else code, out, None, files
        if not out:
            return code, None, err, files
        if argv[-1] in ("--help", "--version"):  # declared: exit 0, printing nothing
            return 0, None, "", files
        return code or 2, None, f"error: [Errno {cls.ERRNO[kind]}] {os.strerror(cls.ERRNO[kind])}: '<stdout>'\n", files

    def check(self, workdir, argv, mode):
        """The outcome of ``argv`` under ``mode``, which must be what the rule gives."""
        outcome = self.run(workdir, argv, mode)
        assert outcome == self.expected(workdir, argv, mode)
        return outcome

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("row", [*cli.COMMANDS, *EXTRAS])
    def test_table(self, table, row, mode):
        self.check(*table[row], mode)

    @pytest.mark.parametrize("mode, row", REAL.items())
    def test_real_descriptors(self, table, mode, row):
        workdir, argv = table[row]
        assert self.run(workdir, argv, mode, child=True) == self.run(workdir, argv, mode)

    @pytest.mark.parametrize("command", ARGV)
    def test_closed_stdout_pipe(self, evaldir, command):
        assert self.check(evaldir, self.ARGV[command], "closed-stdout")[0] == 2

    def test_full_stdout(self, evaldir):
        assert self.check(evaldir, self.ARGV["report"], "full-stdout")[0] == 2

    @pytest.mark.parametrize("argv", [["filter", "pairs.jsonl"], ["filter", "pairs.jsonl", "-o", "-"], ARGV["score"],
                                      ARGV["report"]], ids=" ".join)
    def test_missing_stdout(self, evaldir, argv):
        # `>&-`: the process starts without descriptor 1.
        assert self.check(evaldir, argv, "missing-stdout")[0] == 2

    def test_missing_stderr(self, evaldir):
        # `2>&-`: the summary has nowhere to go, and must not join the records on stdout.
        code, out, _, _ = self.check(evaldir, self.ARGV["filter"], "missing-stderr")
        assert (code, out) == (0, self.clean(evaldir, *self.ARGV["filter"])[1])

    def test_missing_stdout_in_process(self, evaldir):
        # `>&-` with `-o -`, pinned by hand rather than by the rule: one EBADF line, and no file named "-".
        with tempfile.TemporaryFile("w+", encoding="utf-8") as stderr:
            assert self.in_process(evaldir, ["filter", "pairs.jsonl", "-o", "-"], None, stderr) == 2
            stderr.seek(0)
            assert stderr.read() == f"error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}: '<stdout>'\n"
        assert not (evaldir / "-").exists()

    def test_failed_summary_in_process(self, evaldir):
        # A summary that stderr cannot take turns exit 0 into 2, pinned by hand rather than by the rule.
        argv = ["filter", "pairs.jsonl", "-o", os.devnull]
        assert self.clean(evaldir, *argv)[0] == 0
        read, fd = os.pipe()
        os.close(read)
        try:
            with open(fd, "w", encoding="utf-8", closefd=False) as stderr, \
                    tempfile.TemporaryFile("w+", encoding="utf-8") as stdout:
                assert self.in_process(evaldir, argv, stdout, stderr) == 2
        finally:
            os.close(fd)

    @pytest.mark.parametrize("kind", ["full", "closed"])
    @pytest.mark.parametrize("argv", [
        ["filter", "pairs.jsonl", "-o", "/dev/null"], ["report", "nope.tsv"], ["bogus"],
    ], ids=["summary-line", "error-line", "usage-error"])
    def test_failed_stderr(self, evaldir, kind, argv):
        assert self.check(evaldir, argv, f"{kind}-stderr")[:2] == (2, "")

    @pytest.mark.parametrize("kind", ["full", "closed"])
    @pytest.mark.parametrize("argv", [["--help"], ["score", "--help"], ["--version"]], ids=" ".join)
    def test_unwritable_help_exits_0(self, evaldir, kind, argv):
        assert self.check(evaldir, argv, f"{kind}-stdout")[:3] == (0, None, "")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command, option", [("filter", "-o"), ("score", "--per-instance")])
    def test_full_target(self, evaldir, command, option):
        outcome = self.run(evaldir, [*self.ARGV[command], option, "/dev/full"])
        assert outcome == (2, "", f"error: {ENOSPC}: '/dev/full'\n", self.clean(evaldir, *self.ARGV[command])[3])


class TestKilledPipeline:
    """A ``pipeline`` child killed with SIGKILL never leaves a manifest that its files disagree with."""

    @staticmethod
    def manifest_agrees(outdir):
        """False when a manifest's ``split_counts`` miss a task file's line count; True otherwise.

        A directory without ``manifest.json`` agrees: it claims nothing. The
        ``*.tmp`` files a kill leaves behind are listed in no manifest, and
        are ignored.
        """
        manifest = outdir / "manifest.json"
        if not manifest.exists():
            return True
        expected = {f"{task}.{split}.jsonl": n
                    for task, splits in json.loads(manifest.read_text())["split_counts"].items()
                    for split, n in splits.items()}
        found = {p.name: p.read_bytes().count(b"\n") for p in outdir.glob("*.jsonl")}
        return found == expected

    def test_killed_runs_leave_no_disagreeing_manifest(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        make_corpus(corpus, n=2000)
        outdir = tmp_path / "out"
        for seed in (1, 2):
            (tmp_path / f"config-{seed}.json").write_text(json.dumps(
                {"input": str(corpus), "output_dir": str(outdir), "seed": seed}))
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

        def start(seed):
            return subprocess.Popen(
                [sys.executable, "-m", "levelforge.cli", "pipeline", "--config", str(tmp_path / f"config-{seed}.json")],
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)

        began = time.perf_counter()
        assert start(1).wait(timeout=60) == 0
        run_s = time.perf_counter() - began
        assert (outdir / "manifest.json").exists() and self.manifest_agrees(outdir)
        rng = random.Random(24)
        for k in range(10):
            # Three kills anywhere in a run; seven near its end, where the files are written.
            delay = run_s * (rng.uniform(0.0, 1.0) if k < 3 else rng.uniform(0.75, 1.05))
            proc = start(2)
            time.sleep(delay)
            proc.kill()
            proc.wait(timeout=60)
            assert self.manifest_agrees(outdir), f"kill {k} at {delay:.3f}s of a {run_s:.3f}s run"
        # A complete run removes what the killed ones left.
        assert start(2).wait(timeout=60) == 0
        assert self.manifest_agrees(outdir) and not list(outdir.glob("*.tmp"))


class TestWriteLimits:
    """The table's file mode, in a child: a row that writes files may not grow one past a limit
    below the largest (RLIMIT_FSIZE, SIGXFSZ ignored). It exits 2 with one error line naming one of
    them, or ``<stdout>``, whose spool is a file too; an empty stdout; no ``*.tmp``; no manifest
    that disagrees with its files. A clean run then gets the clean run's bytes again."""

    TOO_LARGE = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"

    @pytest.mark.parametrize("row", [
        "pipeline", "filter", "label", "bucket", "split", "prompt", "analyze", "score", "agree"])
    def test_limited_runs_fail_cleanly(self, table, row):
        workdir, argv = table[row]
        inodes = {p: p.stat().st_ino for p in workdir.rglob("*") if p.is_file()}
        clean = TestFailedWrites.run(workdir, argv)  # each file it writes replaces the old one, so it has a new inode
        written = [str(p.relative_to(workdir)) for p in workdir.rglob("*")
                   if p.is_file() and inodes.get(p) != p.stat().st_ino]
        limit = random.Random(f"limit-{row}").randrange(max((workdir / name).stat().st_size for name in written))

        def limited():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (limit, limit))
        proc = cli_child(argv, workdir, capture_output=True, text=True, preexec_fn=limited)
        named = [f"error: {self.TOO_LARGE}: '{name}'\n" for name in [*written, "<stdout>"]]
        assert (proc.returncode, proc.stdout, proc.stderr in named) == (2, "", True), (limit, proc.stderr)
        assert all(TestKilledPipeline.manifest_agrees(path.parent) for path in workdir.rglob("manifest.json"))
        assert not list(workdir.rglob("*.tmp"))
        assert TestFailedWrites.run(workdir, argv) == clean


class TestPromptTsvRows:
    def test_jsonl_output_keeps_them(self, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [{"source": "A b\tc.\nNew line.", "target": "D e f."}])
        argv = ["prompt", str(data), "--strategy", "baseline", "--scheme", "fkgl"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["input_prompted"].endswith("A b\tc.\nNew line.")


class TestHelp:
    def test_top_level_help_names_every_subcommand(self):
        # Exactly the command table's names, in its order: in the choices and one row each.
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-m", "levelforge.cli", "--help"],
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert (proc.returncode, proc.stderr) == (0, "")
        choices, *rows = proc.stdout.split("positional arguments:\n")[1].split("\n\n")[0].splitlines()
        assert choices.strip() == "{" + ",".join(cli.COMMANDS) + "}"
        assert [row.split()[0] for row in rows if row[4] != " "] == list(cli.COMMANDS)

    def test_every_command_is_pinned_and_fuzzed(self, tmp_path):
        import matrix
        import test_cli_fuzz
        matrix.small_inputs(tmp_path)
        pinned = {argv[0] for case, commands in matrix.CASES.items() for argv in commands(tmp_path / case)}
        fuzzed = {template[0] for _, template in test_cli_fuzz.COMMANDS.values()}
        assert (set(cli.COMMANDS) - pinned, set(cli.COMMANDS) - fuzzed) == (set(), set())

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_subcommand_help(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: levelforge {command} ")


class TestInputOrder:
    """Per-pair work and sampling by each id's own rank make the input order moot."""

    TASK_FILES = [f"{task}.{split}.jsonl"
                  for task in ("simplification", "complexification", "same_level")
                  for split in ("train", "valid", "test")]

    def _run(self, workdir, records, monkeypatch):
        # Same relative input and output names in every directory, so the
        # config (and its hash) is the same for every run.
        workdir.mkdir()
        write_jsonl_file(workdir / "corpus.jsonl", records)
        (workdir / "config.json").write_text(json.dumps(
            {"input": "corpus.jsonl", "output_dir": "out", "scheme": "fkgl", "seed": 3}))
        monkeypatch.chdir(workdir)
        assert main(["pipeline", "--config", "config.json"]) == 0
        out = workdir / "out"
        manifest = json.loads((out / "manifest.json").read_text())
        return {name: (out / name).read_bytes() for name in self.TASK_FILES}, manifest

    def test_shuffled_lines_give_the_same_outputs(self, tmp_path, capsys, monkeypatch):
        records = make_corpus(tmp_path / "unused.jsonl", n=90)
        for i, record in enumerate(records):
            record["similarity"] = (0.5, 0.65, 0.7, 0.75, 0.9)[i % 5]
        shuffled = list(records)
        random.Random(0).shuffle(shuffled)
        assert shuffled != records
        files_a, manifest_a = self._run(tmp_path / "a", records, monkeypatch)
        files_b, manifest_b = self._run(tmp_path / "b", shuffled, monkeypatch)
        assert files_a == files_b
        assert any(files_a.values())
        assert manifest_a.pop("input_digests") != manifest_b.pop("input_digests")
        assert manifest_a == manifest_b
        assert set(manifest_a["drop_reasons"]) == {"SIM_HIGH", "SIM_LOW"}

    def test_first_duplicate_decides_the_filter(self, tmp_path, capsys, monkeypatch):
        records = make_corpus(tmp_path / "unused.jsonl", n=40)
        in_band = {**records[0], "id": "first", "similarity": 0.7}
        too_high = {**records[0], "id": "second", "similarity": 0.95}
        _, kept_first = self._run(tmp_path / "a", [in_band, *records[1:], too_high], monkeypatch)
        _, dropped_first = self._run(tmp_path / "b", [too_high, *records[1:], in_band], monkeypatch)
        assert kept_first["drop_reasons"] == {"DUPLICATE": 1}
        assert dropped_first["drop_reasons"] == {"DUPLICATE": 1, "SIM_HIGH": 1}


class TestNoCommandLoadsOpenSSL:
    # hashlib maps OpenSSL's libcrypto (~3.5 MB of a process's peak RSS). Every hash a command takes,
    # sha256 and blake2b, comes from CPython's own hash modules instead, so no command imports hashlib.
    SCRIPT = (
        "import json, sys\n"
        "from levelforge.cli import main\n"
        "seen = [(main(argv), sorted({'hashlib', '_hashlib'} & set(sys.modules))) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps(seen))\n"
    )

    def test_no_command_loads_openssl(self, tmp_path):
        records = make_corpus(tmp_path / "corpus.jsonl", n=40)
        levels = [("C1", "A2"), ("A1", "C2"), ("B1", "B1"), ("B2", "B2")]  # down, up, same, same
        write_jsonl_file(tmp_path / "preds.jsonl", [{"scheme": "cefr6"}] + [
            {"text_sha256": text_sha256(r[side]), "level": level}
            for i, r in enumerate(records) for side, level in zip(("source", "target"), levels[i % 4])])
        write_jsonl_file(tmp_path / "refs.jsonl", [{"source": "The cat sat on the mat.",
                                                     "references": ["The cat sat."]}])
        (tmp_path / "outputs.txt").write_text("The cat sat.\n")
        (tmp_path / "ratings.tsv").write_text("s1\tr1\tg\t4\ns1\tr2\tg\t5\ns2\tr1\tg\t2\ns2\tr2\tg\t2\n")
        write_jsonl_file(tmp_path / "gold.jsonl", [{"id": "s1", "level": "A1"}, {"id": "s2", "level": "B2"}])
        write_jsonl_file(tmp_path / "pred.jsonl", [{"id": "s1", "level": "A2"}, {"id": "s2", "level": "B2"}])
        (tmp_path / "cfg.json").write_text(json.dumps({"input": "corpus.jsonl", "output_dir": "out"}))
        (tmp_path / "cfg-cefr6.json").write_text(json.dumps(
            {"input": "corpus.jsonl", "output_dir": "out-cefr6", "scheme": "cefr6", "predictions": "preds.jsonl"}))
        commands = [
            ["score", "--outputs", "outputs.txt", "--refs", "refs.jsonl", "--per-instance", "rows.tsv"],
            ["report", "ratings.tsv"],
            ["agree", "ratings.tsv", "--metric", "ordinal"],
            ["classifier-eval", "--gold", "gold.jsonl", "--pred", "pred.jsonl"],
            ["analyze", "corpus.jsonl", "-o", "analyzed.jsonl"],
            ["filter", "corpus.jsonl", "-o", "kept.jsonl"],
            ["label", "kept.jsonl", "--scheme", "cefr6", "--predictions", "preds.jsonl", "-o", "leveled.jsonl"],
            ["split", "corpus.jsonl", "-o", "splits"],  # ranks by blake2b
            ["pipeline", "--config", "cfg.json"],  # keys by sha256, ranks by blake2b, digests its input
            ["pipeline", "--config", "cfg-cefr6.json"],
            ["prompt", "out/simplification.train.jsonl", "--strategy", "rel", "--scheme", "fkgl", "-o", "p.jsonl"],
        ]
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, json.dumps(commands)],
                              cwd=tmp_path, capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout.splitlines()[-1])
        assert seen == [[0, []]] * len(commands)
        assert json.loads((tmp_path / "out-cefr6" / "manifest.json").read_text())["task_counts"]["simplification"] > 0


class TestStdoutIsUtf8:
    """stdout gets the UTF-8 bytes that ``-o`` writes to a file, whatever the locale's encoding."""

    ENVIRONMENTS = {"ascii": {"PYTHONIOENCODING": "ascii"}, "latin-1": {"PYTHONIOENCODING": "latin-1"},
                    "C": {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}}
    RECORD = {"id": "ç1", "source": "Ça coûte très cher aujourd'hui, 水平 🙂.", "target": "Le prix est élevé ici, dit-elle.",
              "similarity": 0.7, "task": "down"}
    COMMANDS = {"filter": ["filter", "in.jsonl"], "prompt": ["prompt", "in.jsonl", "--strategy", "rel", "--scheme", "fkgl"]}

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("environment", ENVIRONMENTS)
    def test_stdout_is_the_file_bytes(self, tmp_path, environment, command):
        write_jsonl_file(tmp_path / "in.jsonl", [self.RECORD])
        env = {"PYTHONIOENCODING": None, "PYTHONUTF8": None, "LC_ALL": None, "LC_CTYPE": None, "LANG": None,
               **self.ENVIRONMENTS[environment]}
        argv = self.COMMANDS[command]
        piped = cli_child(argv, tmp_path, env, capture_output=True)
        assert (piped.returncode, cli_child([*argv, "-o", "out.jsonl"], tmp_path, env).returncode) == (0, 0)
        assert piped.stdout == (tmp_path / "out.jsonl").read_bytes()
        assert "🙂".encode() in piped.stdout


class TestDedupMemory:
    def test_each_unique_pair_holds_a_32_byte_digest(self, tmp_path):
        # The dedup set grows with every unique input pair, kept or not. Each entry is the
        # pair's raw sha256 digest (65 B as a bytes object), not its 64-digit hex (113 B).
        n = 2000
        write_jsonl_file(tmp_path / "corpus.jsonl", [
            {"id": f"p{i}", "source": f"The cat number {i} sat.", "target": "A cat sat.", "similarity": 0.1}
            for i in range(n)])
        (tmp_path / "config.json").write_text(json.dumps(
            {"input": str(tmp_path / "corpus.jsonl"), "output_dir": str(tmp_path / "out")}))
        cfg = PipelineConfig.from_file(str(tmp_path / "config.json"))
        pair_key("a", "b")  # the hash modules' import is no part of the set
        tracemalloc.start()
        try:
            unique = cli._unique_pairs(cfg)
            reasons = [reason for _, reason in itertools.islice(unique, n)]
            # The generator waits at its last pair, so its set of n keys is alive.
            in_corpus_py = tracemalloc.Filter(True, pair_key.__code__.co_filename)
            held = tracemalloc.take_snapshot().filter_traces([in_corpus_py])
            unique.close()
        finally:
            tracemalloc.stop()
        assert reasons == [None] * n
        assert sum(stat.size for stat in held.statistics("filename")) <= 70 * n


# The error table: every usage and data error of the 11 commands is a row, {id: (files, argv, code, message)},
# keyed by its test id, ``Class::test_name`` or ``Class::test_name[case]``. ``files``, each a str or bytes (for
# text that is not UTF-8), are written into a fresh working directory, where ``main(argv)`` runs in process.
# The one rule: the run exits ``code``, 2 for a usage error and 1 for a data error; it prints nothing on
# stdout and exactly ``error: {message}`` on stderr; and every file and directory is left as it was, so
# no output, no ``*.tmp`` file and no change to an existing target. Every row meets it. What it must not
# hold is declared as data, in ``ACCEPTED``, never as a branch of the runner for one row.
PAIR = {"id": "p1", "source": "The committee reviewed the long proposal.", "target": "The group read it."}
CAT = {"id": "p1", "source": "The cat sat on the mat.", "target": "A cat sat there.", "similarity": 0.7}
LEVELED = {**CAT, "source_level": "B1", "target_level": "A2", "task": "down"}
HARD = {"source": "A hard sentence.", "target": "An easy one."}
CORPUS = {"corpus.jsonl": jsonl(*corpus_records())}
REFS = {"refs.jsonl": jsonl({"source": "A b c.", "references": ["A b."]}), "outputs.txt": "A b.\n"}
SCORE = ["score", "--outputs", "outputs.txt", "--refs", "refs.jsonl"]
PIPELINE = ["pipeline", "--config", "config.json"]
EVAL = ["classifier-eval", "--gold", "gold.jsonl", "--pred", "pred.jsonl"]
PREDICTIONS = ["--scheme", "cefr6", "--predictions", "preds.jsonl"]
NON_FINITE = "the report holds a NaN or infinity, which JSON cannot hold"
# The first line of each input; its second line repeats it, or is not UTF-8.
FIRST_LINES = {
    "pairs.jsonl": json.dumps(LEVELED), "pairs.tsv": "The cat sat on the mat.\tA cat sat there.\t0.7",
    "texts.txt": "The cat sat on the mat.", "outputs.txt": "A cat sat.",
    "refs.jsonl": json.dumps({"source": "The cat sat on the mat.", "references": ["A cat sat."]}),
    "ratings.tsv": "item_id\trater_id\tgroup\tvalue", "levels.jsonl": json.dumps({"id": "s1", "level": "A1"}),
    "sims.jsonl": json.dumps({"id": "p0000", "similarity": 0.7}), "preds.jsonl": json.dumps({"scheme": "cefr6"}),
}


def config(**settings):
    """A ``config.json`` file that has the pipeline read corpus.jsonl into out/, with ``settings``."""
    return {"config.json": json.dumps({"input": "corpus.jsonl", "output_dir": "out", **settings})}


SIMS_FILE = config(similarity_source="file", similarity_file="sims.jsonl")

ERRORS = {
    "TestExitCodes::test_missing_config_is_usage_error": (
        {}, ["pipeline", "--config", "nope.json"], 2,
        "cannot read config nope.json: [Errno 2] No such file or directory: 'nope.json'"),
    "TestExitCodes::test_bad_data_is_data_error": (
        {"bad.jsonl": "not json\n"}, ["filter", "bad.jsonl", "-o", "out.jsonl"], 1,
        "bad.jsonl:1: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    **{f"TestFilterCommand::test_non_numeric_similarity_is_data_error[{value}-{value!r}]": (
        {"pairs.jsonl": jsonl({**CAT, "similarity": value})}, ["filter", "pairs.jsonl", "-o", "kept.jsonl"], 1,
        f"pairs.jsonl:1: bad pair record: similarity must be a number, got {value!r}") for value in (True, "x")},
    "TestLabelAndBucketCommands::test_cefr_without_predictions_is_usage_error": (
        {"pairs.jsonl": jsonl(CAT)}, ["label", "pairs.jsonl", "--scheme", "cefr6"], 2,
        "scheme cefr6 requires --predictions"),
    **{f"TestSplitCommand::test_bad_ratios_are_usage_errors[ratios{i}-{shown}]": (
        {"data.jsonl": jsonl(*({"id": f"p{k}"} for k in range(10)))},
        ["split", "data.jsonl", "-o", "splits", "--ratios", *shown[1:-1].split(", ")], 2,
        f"--ratios: split ratios must be 3 non-negative numbers summing to 1, got {shown}")
       for i, shown in enumerate(["(1.2, -0.1, -0.1)", "(0.5, 0.3, 0.3)"])},
    # Refused before the input is read: its bad line would be a data error (exit 1).
    **{f"TestPromptCommand::test_fixed_level_needs_an_absolute_strategy[{strategy}]": (
        {"data.jsonl": "{not json\n"},
        ["prompt", "data.jsonl", "--strategy", strategy, "--scheme", "cefr6", "--fixed-level", "B",
         "-o", "prompted.jsonl"], 2,
        f"--fixed-level needs strategy abs or llm-abs, not {strategy}") for strategy in ("rel", "llm-rel", "baseline")},
    **{f"TestPromptCommand::test_llm_abs_names_no_newsela_level[fixed{i}]": (
        {"data.jsonl": "{not json\n"}, ["prompt", "data.jsonl", "--strategy", "llm-abs", "--scheme", "newsela", *fixed],
        2, "--strategy llm-abs names an FKGL or CEFR level, not a newsela one")
       for i, fixed in enumerate([[], ["--fixed-level", "3"]])},
    "TestScoreCommand::test_length_mismatch_is_data_error": (
        {**REFS, "refs.jsonl": jsonl(*[{"source": "A b c.", "references": ["A b."]}] * 2)}, SCORE, 1,
        "line-count mismatch: 1 lines in outputs.txt, 2 in refs.jsonl"),
    "TestScoreCommand::test_unwritable_per_instance_prints_no_report": (
        REFS, [*SCORE, "--per-instance", "nowhere/x.tsv"], 2, "[Errno 2] No such file or directory: 'nowhere/x.tsv'"),
    # The inputs do not exist: the option is checked before any is read.
    **{f"TestScoreCommand::test_repetition_n_below_one_is_usage_error[{n}]": (
        {}, [*SCORE, "--repetition-n", n], 2, f"--repetition-n must be >= 1, got {n}") for n in ("0", "-1")},
    **{f"TestScoreCommand::test_bad_eval_line_is_data_error[record{i}-{message}]": (
        {"refs.jsonl": jsonl({"source": "a b c.", "references": ["a b."]}, record), "outputs.txt": "a b.\na b.\n"},
        SCORE, 1, f"refs.jsonl:2: {message}") for i, (record, message) in enumerate([
            ({"source": "a b c.", "references": "a b c."}, '"references" must be a non-empty list of strings'),
            ({"source": "a b c.", "references": [None]}, '"references" must be a non-empty list of strings'),
            ({"source": "a b c.", "references": []}, '"references" must be a non-empty list of strings'),
            ({"source": 5, "references": ["a b."]}, '"source" must be a string, got int'),
            (["a b c.", ["a b."]], "expected a JSON object, got list"),
            ({"source": "a b c."}, 'need "source" and "references"')])},
    "TestClassifierEvalCommand::test_gold_with_two_levels_for_one_id": (
        {"gold.jsonl": jsonl({"id": "x", "level": "A1"}, {"id": "x", "level": "C2"}),
         "pred.jsonl": jsonl({"id": "x", "level": "C2"})}, EVAL, 1, "gold.jsonl:2: 'x' repeats with another level"),
    "TestClassifierEvalCommand::test_id_mismatch_is_data_error": (
        {"gold.jsonl": jsonl({"id": "s1", "level": "A1"}),
         "pred.jsonl": jsonl({"id": "s1", "level": "A1"}, {"id": "s2", "level": "B1"})}, EVAL, 1,
        "ids differ between gold.jsonl and pred.jsonl, e.g. ['s2']"),
    "TestAgreeCommand::test_gold_out_needs_threshold": (
        {"ratings.tsv": "s1\tr1\tg\t1\ns1\tr2\tg\t1\n"}, ["agree", "ratings.tsv", "--gold-out", "gold.jsonl"], 2,
        "--gold-out needs --threshold"),
    # The ratings do not exist: the option is checked before they are read.
    **{f"TestAgreeCommand::test_threshold_below_one_is_usage_error[{threshold}]": (
        {}, ["agree", "ratings.tsv", "--threshold", threshold], 2, f"--threshold must be >= 1, got {threshold}")
       for threshold in ("0", "-1")},
    "TestAgreeCommand::test_unpairable_is_data_error": (
        {"ratings.tsv": "s1\tr1\tg\t1\ns2\tr2\tg\t2\ns3\tr3\tg\t3\n"}, ["agree", "ratings.tsv"], 1,
        "ratings.tsv: alpha undefined: no item carries two or more ratings"),
    # agree pools every group: s1 rated by r1 in both would keep only one rating.
    "TestAgreeCommand::test_groups_sharing_an_item_are_a_data_error": (
        {"ratings.tsv": "s1\tr1\tg1\t1\ns1\tr2\tg1\t1\ns1\tr1\tg2\t2\ns1\tr2\tg2\t2\n"},
        ["agree", "ratings.tsv", "--threshold", "2", "--gold-out", "gold.jsonl"], 1,
        "ratings.tsv:3: item 's1' is rated twice by rater 'r1'"),
    "TestReportCommand::test_cell_rated_twice_in_a_group_is_a_data_error": (
        {"ratings.tsv": "s1\tr1\tg\t4\ns1\tr2\tg\t5\ns1\tr1\tg\t4\n"}, ["report", "ratings.tsv"], 1,
        "ratings.tsv:3: item 's1' is rated twice by rater 'r1'"),
    # Each rating is finite; their mean is not.
    "TestReportCommand::test_non_finite_report_is_data_error": (
        {"ratings.tsv": "s1\tr1\tg\t1e308\ns1\tr2\tg\t1e308\n"}, ["report", "ratings.tsv"], 1,
        f"ratings.tsv: {NON_FINITE}"),
    "TestReportCommand::test_non_finite_text_report_is_the_same_data_error[mean]": (
        {"ratings.tsv": "s1\tr1\tg\t1e308\ns1\tr2\tg\t1e308\n"}, ["report", "ratings.tsv", "--format", "text"], 1,
        f"ratings.tsv: {NON_FINITE}"),
    # Item means further apart than the square root of the largest float: the CI's variance overflows.
    "TestReportCommand::test_non_finite_text_report_is_the_same_data_error[variance]": (
        {"ratings.tsv": "s1\tr1\tg\t1\ns2\tr1\tg\t1e308\n"}, ["report", "ratings.tsv", "--format", "text"], 1,
        f"ratings.tsv: {NON_FINITE}"),
    "TestPipelineCommand::test_bad_split_ratios_stop_before_work": (
        {**CORPUS, **config(split_ratios=[1.2, -0.1, -0.1])}, PIPELINE, 2,
        "split_ratios: split ratios must be 3 non-negative numbers summing to 1, got (1.2, -0.1, -0.1)"),
    **{f"TestPipelineCommand::test_bad_file_similarity_is_data_error[{value}-{message}]": (
        {**CORPUS, **SIMS_FILE,
         "sims.jsonl": jsonl({"id": "p0000", "similarity": 0.7}, {"id": "p0001", "similarity": value})},
        PIPELINE, 1, f"sims.jsonl:2: {message}") for value, message in [
            (True, "similarity must be a number, got True"), ("x", "similarity must be a number, got 'x'"),
            (1.5, "similarity 1.5 outside [0, 1]")]},
    "TestNonObjectJsonlLines::test_non_object_line_is_data_error[split-[1, 2]-2-list]": (
        {"bad.jsonl": jsonl(LEVELED) + "[1, 2]\n"}, ["split", "bad.jsonl", "-o", "splits"], 1,
        "bad.jsonl:2: expected a JSON object, got list"),
    "TestNonObjectJsonlLines::test_non_object_line_is_data_error[prompt-[1]-2-list]": (
        {"bad.jsonl": jsonl(LEVELED) + "[1]\n"}, ["prompt", "bad.jsonl", "--strategy", "rel", "--scheme", "cefr6"], 1,
        "bad.jsonl:2: expected a JSON object, got list"),
    "TestNonObjectJsonlLines::test_non_object_line_is_data_error[label-5-1-int]": (
        {"data.jsonl": jsonl(LEVELED), "bad.jsonl": "5\n"},
        ["label", "data.jsonl", "--scheme", "cefr6", "--predictions", "bad.jsonl"], 1,
        "bad.jsonl:1: expected a JSON object, got int"),
    # Python reads a number past the float range as infinity, which no JSON writer may write back.
    "TestSplitCommand::test_number_past_the_float_range_is_data_error": (
        {"r.jsonl": '{"id": "a", "v": 1e400}\n'}, ["split", "r.jsonl", "-o", "s"], 1,
        "r.jsonl:1: invalid JSON: 1e400 is out of the float range"),
    "TestAnalyzeCommand::test_level_past_the_float_range_is_data_error": (
        {"texts.txt": "The cat sat.\n", "levels.jsonl": '{"level": 1e400}\n'},
        ["analyze", "texts.txt", "--levels", "levels.jsonl", "-o", "o.jsonl"], 1,
        "levels.jsonl:1: invalid JSON: 1e400 is out of the float range"),
    "TestAnalyzeCommand::test_bad_json_line_names_path_and_line": (
        {"texts.jsonl": '{"text": "The cat sat."}\nnot json\n'}, ["analyze", "texts.jsonl", "-o", "stats.jsonl"], 1,
        "texts.jsonl:2: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    # A null label is a missing one; a label is a string or a number.
    **{f"TestAnalyzeCommand::test_level_line_without_level_is_data_error[line{i}-{message}]": (
        {"texts.txt": "The cat sat.\nA dog ran.\n", "levels.jsonl": jsonl({"level": "A1"}, line)},
        ["analyze", "texts.txt", "--levels", "levels.jsonl", "-o", "o.jsonl"], 1, f"levels.jsonl:2: {message}")
       for i, (line, message) in enumerate([
           ({"lvl": "B1"}, 'need "level"'), ({"level": None}, 'need "level"'),
           ({"level": [1]}, '"level" must be a string or a number, got list'),
           ({"level": {"a": 1}}, '"level" must be a string or a number, got dict'),
           ({"level": True}, '"level" must be a string or a number, got bool')])},
    "TestBadSettingsAreUsageErrors::test_config_not_an_object": (
        {"config.json": "[1, 2]"}, PIPELINE, 2, "config config.json must be a JSON object, got list"),
    "TestBadSettingsAreUsageErrors::test_config_without_input": (
        {"config.json": json.dumps({"output_dir": "out"})}, PIPELINE, 2, "missing config keys: ['input']"),
    **{f"TestBadSettingsAreUsageErrors::test_bad_filter_setting_in_config[setting{i}-{message}]": (
        {**CORPUS, **config(**setting)}, PIPELINE, 2, message) for i, (setting, message) in enumerate([
            ({"min_words": 0}, "min_words must be >= 1, got 0"),
            ({"sim_low": "a"}, "sim_low must be a number, got 'a'"),
            ({"min_words": 2.5}, "min_words must be an int, got 2.5")])},
    # Python's json reads NaN; a NaN bound would keep every pair and write NaN, which is not JSON, into the manifest.
    "TestBadSettingsAreUsageErrors::test_non_finite_filter_setting": (
        {**CORPUS, **config(sim_low=float("nan"))}, PIPELINE, 2, "sim_low must be finite, got nan"),
    "TestBadSettingsAreUsageErrors::test_non_finite_filter_option": (
        CORPUS, ["filter", "corpus.jsonl", "--sim-high", "inf"], 2, "sim_high must be finite, got inf"),
    "TestBadSettingsAreUsageErrors::test_filter_min_words_zero": (
        CORPUS, ["filter", "corpus.jsonl", "--min-words", "0", "-o", "kept.jsonl"], 2, "min_words must be >= 1, got 0"),
    **{f"TestDataErrorsNameTheirFile::test_exit_1_names_the_file[{case}]": (files, argv, 1, message)
       for case, (files, argv, message) in {
        "score-line-count": ({**REFS, "out.txt": "a\nb\n"}, ["score", "--outputs", "out.txt", "--refs", "refs.jsonl"],
                             "line-count mismatch: 2 lines in out.txt, 1 in refs.jsonl"),
        "score-empty": ({"out.txt": "", "refs.jsonl": ""}, ["score", "--outputs", "out.txt", "--refs", "refs.jsonl"],
                        "out.txt: score_report needs at least one instance"),
        "classifier-eval-ids": ({"gold.jsonl": jsonl({"id": "a", "level": "A1"}),
                                 "pred.jsonl": jsonl({"id": "b", "level": "A1"})},
                                EVAL, "ids differ between gold.jsonl and pred.jsonl, e.g. ['a', 'b']"),
        "classifier-eval-empty": ({"gold.jsonl": "", "pred.jsonl": ""}, EVAL,
                                  "gold.jsonl: weighted_f1 needs at least one prediction"),
        "agree-undefined": ({"ratings.tsv": "s1\tr1\tg\t1\ns2\tr2\tg\t2\n"}, ["agree", "ratings.tsv"],
                            "ratings.tsv: alpha undefined: no item carries two or more ratings"),
        "agree-threshold": ({"ratings.tsv": "s1\tr1\tg\t1\ns1\tr2\tg\t1\n"},
                            ["agree", "ratings.tsv", "--threshold", "1"],
                            "ratings.tsv: threshold 1 must exceed half of 2 raters"),
        "pipeline-task-size": ({"corpus.jsonl": jsonl(PAIR), **config(task_size=3)}, PIPELINE,
                               "corpus.jsonl: need 6 different-level pairs for task size 3, have 0"),
        # An id is a JSON string or an integer, in every file that keys by one.
        **{f"filter-{name}-id": ({"pairs.jsonl": jsonl({**PAIR, "id": value})}, ["filter", "pairs.jsonl"],
                                 f"pairs.jsonl:1: bad pair record: an id must be a string or an integer, got {shown}")
           for name, value, shown in [("null", None, "NoneType"), ("list", [1], "list"), ("bool", True, "bool")]},
        "pipeline-similarity-id": ({"corpus.jsonl": jsonl(PAIR), "sims.jsonl": jsonl({"id": None, "similarity": 0.7}),
                                    **SIMS_FILE}, PIPELINE,
                                   "sims.jsonl:1: an id must be a string or an integer, got NoneType"),
        "classifier-eval-id": ({"gold.jsonl": jsonl({"id": True, "level": "A1"}), "pred.jsonl": ""}, EVAL,
                               "gold.jsonl:1: an id must be a string or an integer, got bool"),
        "label-predictions-key": ({"corpus.jsonl": jsonl(PAIR),
                                   "preds.jsonl": jsonl({"scheme": "cefr6"}, {"text_sha256": [1], "level": "B1"})},
                                  ["label", "corpus.jsonl", *PREDICTIONS],
                                  "preds.jsonl:2: an id must be a string or an integer, got list"),
        # A text_sha256 is what text_sha256 writes, 64 lowercase hex digits; any other would never match.
        **{f"label-predictions-sha256-{name}": (
            {"corpus.jsonl": jsonl(PAIR), "preds.jsonl": jsonl({"scheme": "cefr6"}, {"text_sha256": value, "level": "B1"})},
            ["label", "corpus.jsonl", *PREDICTIONS],
            f'preds.jsonl:2: "text_sha256" must be 64 lowercase hex digits, got {value!r}')
           for name, value in [("not-hex", "not-a-hash"), ("integer", 12)]},
    }.items()},
    # Every level label is read by ComplexityLevel.parse; a bad one names its place.
    "TestLevelLabels::test_bad_bucket_level": (
        {"labeled.jsonl": jsonl({**LEVELED, "target_level": "Q9"})}, ["bucket", "labeled.jsonl", "--scheme", "cefr6"],
        1, "labeled.jsonl:1: bad pair record: bad cefr6 level 'Q9'"),
    "TestLevelLabels::test_bad_predictions_level": (
        {"pairs.jsonl": jsonl(CAT), "preds.jsonl": jsonl({"scheme": "cefr6"}, {"id": "p1:source", "level": "Z9"})},
        ["label", "pairs.jsonl", *PREDICTIONS], 1, "preds.jsonl:2: bad cefr6 level 'Z9'"),
    "TestLevelLabels::test_bad_classifier_eval_level": (
        {"gold.jsonl": jsonl({"id": "s1", "level": "A1"}),
         "pred.jsonl": jsonl({"id": "s0", "level": "B2"}, {"id": "s1", "level": "Z9"})},
        EVAL, 1, "pred.jsonl:2: bad cefr6 level 'Z9'"),
    **{f"TestLevelLabels::test_bad_fixed_level_is_usage_error[{scheme}-{level}-{message}]": (
        {"data.jsonl": jsonl(HARD)},
        ["prompt", "data.jsonl", "--strategy", "abs", "--scheme", scheme, "--fixed-level", level,
         "-o", "prompted.jsonl"], 2, f"--fixed-level: {message}") for scheme, level, message in [
            ("fkgl", "x", "bad fkgl level 'x'"), ("cefr6", "Q", "bad cefr3 level 'Q'"),
            ("newsela", "7", "bad newsela level '7'")]},
    "TestLevelLabels::test_bad_target_level_in_prompt_data": (
        {"data.jsonl": jsonl({**HARD, "target_level": "A2"}, {**HARD, "target_level": "Q"})},
        ["prompt", "data.jsonl", "--strategy", "abs", "--scheme", "cefr6", "-o", "prompted.jsonl"], 1,
        "data.jsonl:2: bad cefr6 level 'Q'"),
    "TestLevelLabels::test_label_without_predictions": (
        {"pairs.jsonl": jsonl(CAT)}, ["label", "pairs.jsonl", "--scheme", "newsela", "-o", "labeled.jsonl"], 2,
        "scheme newsela requires --predictions"),
    "TestLevelLabels::test_pipeline_without_predictions": (
        {**CORPUS, **config(scheme="cefr6")}, PIPELINE, 2, 'scheme cefr6 requires "predictions"'),
    **{f"TestLevelLabels::test_scheme_mismatch[{command}]": (
        {**CORPUS, "preds.jsonl": jsonl({"scheme": "cefr3"}, {"id": "p0000:source", "level": "A"}),
         **config(scheme="cefr6", predictions="preds.jsonl")}, argv, 1,
        "preds.jsonl:1: declares scheme cefr3, expected cefr6") for command, argv in [
            ("label", ["label", "corpus.jsonl", *PREDICTIONS, "-o", "out"]), ("pipeline", PIPELINE)]},
    **{f"TestConfigFieldTypes::test_mistyped_field_is_usage_error[setting{i}-{message}]": (
        {**CORPUS, **config(**setting)}, PIPELINE, 2, message) for i, (setting, message) in enumerate([
            ({"input": 5}, "input must be a string, got 5"),
            ({"output_dir": 5}, "output_dir must be a string, got 5"),
            ({"seed": "x"}, "seed must be an int, got 'x'"),
            ({"seed": True}, "seed must be an int, got True"),
            ({"task_size": "3"}, "task_size must be null or an int >= 1, got '3'"),
            ({"task_size": -1}, "task_size must be null or an int >= 1, got -1"),
            ({"task_size": 0}, "task_size must be null or an int >= 1, got 0"),
            ({"predictions": 5}, "predictions must be null or a string, got 5"),
            ({"similarity_source": "file", "similarity_file": 5}, "similarity_file must be null or a string, got 5"),
            ({"similarity_source": "magic"}, "unknown similarity_source 'magic'"),
            ({"similarity_source": "file"}, "similarity_source=file requires similarity_file"),
            ({"input": "no/such.jsonl"}, "input path does not exist: no/such.jsonl"),
            ({"predictions": "no/such.jsonl"}, "predictions path does not exist: no/such.jsonl")])},
    # Every path setting that is set must exist, whether the run would read it or not.
    **{f"TestConfigFieldTypes::test_mistyped_field_is_usage_error[similarity_file-{source}]": (
        {**CORPUS, **config(similarity_source=source, similarity_file="no/such.jsonl")}, PIPELINE, 2,
        "similarity_file path does not exist: no/such.jsonl") for source in ("file", "column")},
    # "text" falls back to "source" only when it is null or "", so no other value is skipped.
    **{f"TestLocatedDataErrors::test_analyze_non_string_text[{case}]": (
        {"texts.jsonl": jsonl({"text": text, "source": "A dog ran."})},
        ["analyze", "texts.jsonl", "-o", "stats.jsonl"], 1,
        f'texts.jsonl:1: "text" must be a string, got {type(text).__name__}')
       for case, text in [("int", 5), ("list", []), ("zero", 0), ("false", False), ("dict", {})]},
    # Every input file is read by dataio.read_lines, so a line that is not UTF-8 is reported at its path and line.
    **{f"TestInputLines::test_non_utf8_line_is_located[{bad}-argv{i}]": (
        {"corpus.jsonl": jsonl(PAIR), **SIMS_FILE, **{name: f"{line}\n{line}\n" for name, line in FIRST_LINES.items()},
         bad: f"{FIRST_LINES[bad]}\n".encode() + b"caf\xff\n"},
        argv, 1, f"{bad}:2: not valid UTF-8") for i, (bad, argv) in enumerate([
            ("pairs.jsonl", ["filter", "pairs.jsonl"]),
            ("pairs.tsv", ["filter", "pairs.tsv"]),
            ("texts.txt", ["analyze", "texts.txt"]),
            ("pairs.jsonl", ["analyze", "pairs.jsonl"]),
            ("outputs.txt", SCORE),
            ("refs.jsonl", SCORE),
            ("ratings.tsv", ["agree", "ratings.tsv"]),
            ("ratings.tsv", ["report", "ratings.tsv"]),
            ("levels.jsonl", ["classifier-eval", "--gold", "levels.jsonl", "--pred", "levels.jsonl"]),
            ("sims.jsonl", PIPELINE),
            ("preds.jsonl", ["label", "pairs.jsonl", *PREDICTIONS]),
            ("pairs.jsonl", ["bucket", "pairs.jsonl", "--scheme", "cefr6"]),
            ("pairs.jsonl", ["split", "pairs.jsonl", "-o", "splits"]),
            ("pairs.jsonl", ["prompt", "pairs.jsonl", "--strategy", "rel", "--scheme", "cefr6"])])},
    **{f"TestPromptRecordErrors::test_bad_record_at_its_file_line[{strategy}-record{i}-{message}]": (
        {"data.jsonl": json.dumps({**HARD, "task": "down", "target_level": "A2"}) + "\n\n\n" + jsonl(record)},
        ["prompt", "data.jsonl", "--strategy", strategy, "--scheme", "cefr6", "-o", "prompted.jsonl"], 1,
        f"data.jsonl:4: {message}") for i, (strategy, record, message) in enumerate([
            ("rel", {"target": "An easy one.", "task": "down"}, 'need string "source" and "target"'),
            ("baseline", {"source": "A hard one.", "target": 5}, 'need string "source" and "target"'),
            ("rel", {"source": "A hard one.", "target": "An easy one.", "task": "sideways"},
             "'sideways' is not a valid TaskLabel"),
            ("rel", {"source": "A hard one.", "target": "An easy one."}, "relative prompting needs a task field"),
            ("abs", {"source": "A hard one.", "target": "An easy one."},
             "absolute prompting needs a target_level field"),
            ("abs", {"source": "A hard one.", "target": "An easy one.", "target_level": "Q"}, "bad cefr6 level 'Q'")])},
    "TestRejectedAtTheSource::test_non_string_pair_side": (
        {"pairs.jsonl": jsonl({"id": "a", "source": 5, "target": "x y z w", "similarity": 0.7})},
        ["filter", "pairs.jsonl"], 1, "pairs.jsonl:1: bad pair record: pair a: source and target must be strings"),
    **{f"TestRejectedAtTheSource::test_non_finite_rating[{command}-{value}]": (
        {"ratings.tsv": f"s1\tr1\tg\t4\ns1\tr2\tg\t{value}\n"}, [command, "ratings.tsv"], 1,
        f"ratings.tsv:2: bad rating value '{value}'")
       for command, value in [("agree", "nan"), ("report", "nan"), ("report", "inf"), ("agree", "-inf")]},
    "TestRejectedAtTheSource::test_non_utf8_config_is_usage_error": (
        {"config.json": b'{"input": "caf\xff"}'}, PIPELINE, 2,
        "cannot read config config.json: 'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
    "TestRejectedAtTheSource::test_half_surrogate_pair_in_config_is_usage_error": (
        {"config.json": '{"input": "c.jsonl", "output_dir": "out\\ud800"}'}, PIPELINE, 2,
        "cannot read config config.json:1: a \\u escape is half a surrogate pair"),
    "TestRejectedAtTheSource::test_half_surrogate_pair_names_its_config_line": (
        {"config.json": '{"input": "c.jsonl", "predictions": "\\ud83d\\ude00",\n "output_dir": "out\\ud800"}'},
        PIPELINE, 2, "cannot read config config.json:2: a \\u escape is half a surrogate pair"),
    **{f"TestRarePaths::test_keyed_line_without_value[{name}-{value}-argv{i}]": (
        {**CORPUS, "keyed.jsonl": jsonl({"id": "p0000", name: value}, {"id": "p0001"}),
         **config(similarity_source="file", similarity_file="keyed.jsonl")}, argv, 1,
        f'keyed.jsonl:2: need "id" and "{name}"') for i, (name, value, argv) in enumerate([
            ("similarity", 0.7, PIPELINE),
            ("level", "A1", ["classifier-eval", "--gold", "keyed.jsonl", "--pred", "keyed.jsonl"])])},
    "TestRarePaths::test_label_passes_parse_errors_through": (
        {"pairs.jsonl": jsonl(CAT) + "not json\n"}, ["label", "pairs.jsonl", "--scheme", "fkgl"], 1,
        "pairs.jsonl:2: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "TestRarePaths::test_report_without_ratings": (
        {"ratings.tsv": "item_id\trater_id\tgroup\tvalue\n"}, ["report", "ratings.tsv"], 1,
        "no ratings found in ratings.tsv"),
    **{f"TestPromptTsvRows::test_tab_or_line_break_is_data_error[record{i}]": (
        {"data.jsonl": jsonl({"source": "A b c.", "target": "D e f."}, record)},
        ["prompt", "data.jsonl", "--strategy", "baseline", "--scheme", "fkgl", "--format", "tsv",
         "-o", "prompted.tsv"], 1,
        "data.jsonl:2: a tab or line break in source or target cannot go in a TSV row") for i, record in enumerate([
            {"source": "A b\tc.", "target": "D e f."}, {"source": "A b c.\nNew line.", "target": "D e f."},
            {"source": "A b c.", "target": "D e\r f."}])},
}

# The least accepted values of checked settings, held by the same runner to exit 0: {id: (files, argv)}.
ACCEPTED = {
    "TestScoreCommand::test_repetition_n_below_one_is_usage_error[1]": (REFS, [*SCORE, "--repetition-n", "1"]),
    "TestBadSettingsAreUsageErrors::test_bad_filter_setting_in_config[setting3-None]": (
        {**CORPUS, **config(min_words=1)}, PIPELINE),
    "TestBadSettingsAreUsageErrors::test_bad_filter_setting_in_config[setting4-None]": (
        {**CORPUS, **config(sim_low=0.7, sim_high=0.7)}, PIPELINE),
    "TestBadSettingsAreUsageErrors::test_filter_min_words_one": (
        CORPUS, ["filter", "corpus.jsonl", "--min-words", "1", "-o", "kept.jsonl"]),
    "TestConfigFieldTypes::test_mistyped_field_is_usage_error[setting13-None]": (
        {**CORPUS, **config(task_size=1)}, PIPELINE),
}
ROWS = {**ERRORS, **{case: (files, argv, 0, None) for case, (files, argv) in ACCEPTED.items()}}


@pytest.fixture
def case(request):
    """The row of a test whose id has no brackets: its id is the row's key."""
    return request.node.nodeid.partition("::")[2]


def row_test(test):
    """The one runner, as the test ``test`` (``Class::name``) of the rows whose keys start with it."""
    def run(self, tmp_path, capsys, monkeypatch, case):
        files, argv, code, message = ROWS[case]
        monkeypatch.chdir(tmp_path)
        for name, data in files.items():
            (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        before = digest_tree(tmp_path)
        assert main(argv) == code
        if code:
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert digest_tree(tmp_path) == before
    cases = [case for case in ROWS if case.partition("[")[0] == test]
    if cases == [test]:
        return run
    return pytest.mark.parametrize("case", cases, ids=lambda case: case.partition("[")[2][:-1])(run)


# Each row runs under its key, as a test of the class it names, made here when the module has none.
for _test in dict.fromkeys(case.partition("[")[0] for case in ROWS):
    _class, _name = _test.split("::")
    setattr(globals().setdefault(_class, type(_class, (), {})), _name, row_test(_test))
