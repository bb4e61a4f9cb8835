import hashlib
import json
from pathlib import Path

import pytest

from levelforge import genmetrics
from levelforge.cli import PipelineConfig, main, parallel_map
from levelforge.corpus import text_sha256
from levelforge.genmetrics import EvalInstance, is_copy, sari, sari_r


def write_jsonl_file(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


def make_corpus(path, n=60):
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


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert main(["pipeline", "--config", str(tmp_path / "nope.json")]) == 2

    def test_bad_data_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["filter", str(bad), "-o", str(tmp_path / "out.jsonl")]) == 1

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
        assert summary["kept"] == 1
        assert summary["drop_reasons"] == {"TOO_SHORT": 1, "SIM_LOW": 1}
        assert len(out.read_text().splitlines()) == 1

    @pytest.mark.parametrize("value, shown", [(True, "True"), ("x", "'x'")])
    def test_non_numeric_similarity_is_data_error(self, tmp_path, capsys, value, shown):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(pairs, [{"id": "p1", "source": "The cat sat on the mat.",
                                  "target": "A cat was sitting there.", "similarity": value}])
        assert main(["filter", str(pairs), "-o", str(tmp_path / "kept.jsonl")]) == 1
        assert capsys.readouterr().err == (
            f"error: {pairs}:1: bad pair record: similarity must be a number, got {shown}\n"
        )


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

    def test_cefr_without_predictions_is_usage_error(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        write_jsonl_file(pairs, [{"id": "p1", "source": "a b c", "target": "d e f"}])
        assert main(["label", str(pairs), "--scheme", "cefr6"]) == 2


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

    @pytest.mark.parametrize(
        "ratios, shown",
        [(["1.2", "-0.1", "-0.1"], "(1.2, -0.1, -0.1)"), (["0.5", "0.3", "0.3"], "(0.5, 0.3, 0.3)")],
    )
    def test_bad_ratios_are_usage_errors(self, tmp_path, capsys, ratios, shown):
        data = tmp_path / "data.jsonl"
        write_jsonl_file(data, [{"id": f"p{i}"} for i in range(10)])
        outdir = tmp_path / "splits"
        assert main(["split", str(data), "-o", str(outdir), "--ratios", *ratios]) == 2
        assert capsys.readouterr().err == (
            "error: --ratios: split ratios must be 3 non-negative numbers summing to 1, "
            f"got {shown}\n"
        )
        assert not outdir.exists()


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

    def test_length_mismatch_is_data_error(self, tmp_path, capsys):
        refs = tmp_path / "refs.jsonl"
        write_jsonl_file(refs, [{"source": "a b c.", "references": ["a b."]}])
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("a b.\nextra line\n")
        assert main(["score", "--outputs", str(outputs), "--refs", str(refs)]) == 1

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

        def counting(inst):
            calls.append(inst)
            return kernel(inst)

        monkeypatch.setattr(genmetrics, "_sari_kernel", counting)
        outputs, refs = self._score_files(tmp_path)
        tsv = tmp_path / "per_instance.tsv"
        argv = ["score", "--outputs", str(outputs), "--refs", str(refs), "--per-instance", str(tsv)]
        assert main(argv) == 0
        assert len(calls) == len(self.SCORED)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"source": "a b c.", "references": "a b c."},
             '"references" must be a non-empty list of strings'),
            ({"source": "a b c.", "references": [None]},
             '"references" must be a non-empty list of strings'),
            ({"source": "a b c.", "references": []},
             '"references" must be a non-empty list of strings'),
            ({"source": 5, "references": ["a b."]}, '"source" must be a string, got int'),
            (["a b c.", ["a b."]], 'need "source" and "references"'),
        ],
    )
    def test_bad_eval_line_is_data_error(self, tmp_path, capsys, record, message):
        refs = tmp_path / "refs.jsonl"
        write_jsonl_file(refs, [{"source": "a b c.", "references": ["a b."]}, record])
        outputs = tmp_path / "outputs.txt"
        outputs.write_text("a b.\na b.\n")
        assert main(["score", "--outputs", str(outputs), "--refs", str(refs)]) == 1
        assert capsys.readouterr().err == f"error: {refs}:2: {message}\n"


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

    def test_id_mismatch_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.jsonl"
        pred = tmp_path / "pred.jsonl"
        write_jsonl_file(gold, [{"id": "s1", "level": "A1"}])
        write_jsonl_file(pred, [{"id": "s2", "level": "A1"}])
        assert main(["classifier-eval", "--gold", str(gold), "--pred", str(pred)]) == 1


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

    def test_unpairable_is_data_error(self, tmp_path, capsys):
        ratings = tmp_path / "ratings.tsv"
        ratings.write_text("s1\tr1\tg\t1\ns2\tr2\tg\t2\n")
        assert main(["agree", str(ratings)]) == 1


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

    def _config(self, tmp_path, **extra):
        corpus = tmp_path / "corpus.jsonl"
        make_corpus(corpus)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"input": str(corpus), "output_dir": str(tmp_path / "out"), **extra}
        ))
        return config

    def test_bad_split_ratios_stop_before_work(self, tmp_path, capsys):
        config = self._config(tmp_path, split_ratios=[1.2, -0.1, -0.1])
        assert main(["pipeline", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "error: split_ratios: split ratios must be 3 non-negative numbers summing "
            "to 1, got (1.2, -0.1, -0.1)\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "similarity must be a number, got True"),
            ("x", "similarity must be a number, got 'x'"),
            (1.5, "similarity 1.5 outside [0, 1]"),
        ],
    )
    def test_bad_file_similarity_is_data_error(self, tmp_path, capsys, value, message):
        sims = tmp_path / "sims.jsonl"
        write_jsonl_file(sims, [{"id": "p0000", "similarity": 0.7},
                                {"id": "p0001", "similarity": value}])
        config = self._config(tmp_path, similarity_source="file", similarity_file=str(sims))
        assert main(["pipeline", "--config", str(config)]) == 1
        assert capsys.readouterr().err == f"error: {sims}:2: {message}\n"


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
        path.write_text(json.dumps({"input": "x", "output_dir": "y", "bogus": 1}))
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(str(path))

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
