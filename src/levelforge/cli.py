"""Operator-facing command surface.

Subcommands mirror the pipeline stages: analyze, pipeline, filter, label,
bucket, split, prompt, score, classifier-eval, agree, report. Exit codes:
0 success, 1 data error, 2 usage/config error. All randomness flows from
the single --seed / config seed. Per-pair work runs in one thread, in input
order; LEVELFORGE_THREADS is accepted and ignored (a no-op).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence, TypeVar

from . import __version__
from .agreement import (
    LabeledPrediction,
    RatingMatrix,
    UndefinedAlphaError,
    adjacent_accuracy,
    format_likert_table,
    krippendorff_alpha,
    likert_report,
    majority_gold,
    mae,
    ratings_to_matrices,
    weighted_f1,
)
from .corpus import (
    DatasetManifest,
    DropReason,
    FilterConfig,
    ParaphrasePair,
    TaskLabel,
    attach_levels,
    bucket,
    build_datasets,
    check_similarity,
    check_split_ratios,
    filter_pair,
    lexical_similarity,
    pair_key,
    split_dataset,
)
from .dataio import (
    ParseError,
    file_sha256,
    pair_to_record,
    read_jsonl,
    read_pairs,
    read_predictions,
    read_ratings_tsv,
    write_jsonl,
)
from .genmetrics import EvalInstance, is_copy, sari, sari_r, score_report
from .prompts import Strategy, render_dataset
from .readability import ComplexityLevel, Scheme, fkgl, level_of
from .textcore import sentence_stats

T = TypeVar("T")
U = TypeVar("U")

EXIT_OK = 0
EXIT_DATA = 1
EXIT_USAGE = 2


class DataError(Exception):
    """User-data problem: bad contents, mismatched files. Exit code 1."""


class ConfigError(Exception):
    """Configuration problem caught before processing. Exit code 2."""


def parallel_map(fn: Callable[[T], U], items: Iterable[T]) -> Iterator[U]:
    """Apply ``fn`` to each item in input order, one item at a time.

    Per-pair work is GIL-bound pure Python, and a thread pool here was
    measured slower than this loop. The name and the generator form stay
    because ``perfbench/tracer.py`` wraps ``cli.parallel_map`` and counts its
    yields; inlining it waits for a change to that benchmark.
    """
    for item in items:
        yield fn(item)


@dataclass
class PipelineConfig:
    input: str
    output_dir: str
    scheme: str = "fkgl"
    seed: int = 0
    min_words: int = 3
    sim_low: float = 0.60
    sim_high: float = 0.80
    similarity_source: str = "column"  # column | file | builtin-lexical | none
    similarity_file: Optional[str] = None
    predictions: Optional[str] = None
    task_size: Optional[int] = None
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        try:
            Scheme(self.scheme)
        except ValueError:
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        if self.sim_low > self.sim_high:
            raise ConfigError(
                f"sim_low {self.sim_low} must not exceed sim_high {self.sim_high}"
            )
        if self.similarity_source not in ("column", "file", "builtin-lexical", "none"):
            raise ConfigError(f"unknown similarity_source {self.similarity_source!r}")
        if self.similarity_source == "file" and not self.similarity_file:
            raise ConfigError("similarity_source=file requires similarity_file")
        if not Path(self.input).exists():
            raise ConfigError(f"input path does not exist: {self.input}")
        if self.predictions and not Path(self.predictions).exists():
            raise ConfigError(f"predictions path does not exist: {self.predictions}")
        self.split_ratios = _split_ratios(self.split_ratios, "split_ratios")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            min_words=self.min_words,
            sim_low=self.sim_low,
            sim_high=self.sim_high,
            require_similarity=self.similarity_source != "none",
        )

    def config_hash(self) -> str:
        payload = json.dumps(self.__dict__, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _split_ratios(ratios: Sequence[float], name: str) -> tuple[float, float, float]:
    """``check_split_ratios`` as a usage error, checked before any work starts."""
    try:
        return check_split_ratios(ratios)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from None


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout
    return open(path, "w", encoding="utf-8")


def _load_similarities(path: str) -> dict[str, float]:
    sims = {}
    for lineno, obj in read_jsonl(path):
        if "id" not in obj or "similarity" not in obj:
            raise ParseError(path, lineno, 'need "id" and "similarity"')
        try:
            sims[str(obj["id"])] = float(check_similarity(obj["similarity"]))
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
    return sims


def _apply_similarity(pairs: Iterable[ParaphrasePair], cfg: PipelineConfig) -> Iterator[ParaphrasePair]:
    if cfg.similarity_source == "column":
        yield from pairs
    elif cfg.similarity_source == "none":
        for p in pairs:
            p.similarity = None
            yield p
    elif cfg.similarity_source == "builtin-lexical":
        def attach(p: ParaphrasePair) -> ParaphrasePair:
            p.similarity = lexical_similarity(p.source, p.target)
            return p

        yield from parallel_map(attach, pairs)
    else:
        sims = _load_similarities(cfg.similarity_file)
        for p in pairs:
            p.similarity = sims.get(p.id, p.similarity)
            yield p


# ---------------------------------------------------------------- commands


def cmd_analyze(args: argparse.Namespace) -> int:
    levels: dict[int, str] = {}
    if args.levels:
        for lineno, obj in read_jsonl(args.levels):
            levels[lineno] = str(obj["level"])
    per_level: dict[str, list[float]] = {}
    out = _open_out(args.output)
    try:
        with open(args.input, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                text = _extract_text(line, args.input)
                if text is None or not text.strip():
                    continue
                stats = sentence_stats(text)
                row = {
                    "word_count": stats.word_count,
                    "syllable_count": stats.syllable_count,
                    "sentence_count": stats.sentence_count,
                    "fkgl": fkgl(stats) if stats.word_count else None,
                }
                if lineno in levels:
                    row["level"] = levels[lineno]
                    if row["fkgl"] is not None:
                        per_level.setdefault(levels[lineno], []).append(row["fkgl"])
                out.write(json.dumps(row, sort_keys=True) + "\n")
        if per_level:
            aggregates = {
                level: {
                    "mean_fkgl": sum(v) / len(v),
                    "texts": len(v),
                }
                for level, v in sorted(per_level.items())
            }
            out.write(json.dumps({"per_level": aggregates}, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _extract_text(line: str, path: str) -> Optional[str]:
    line = line.rstrip("\n")
    if not line:
        return None
    if str(path).endswith(".jsonl"):
        obj = json.loads(line)
        return obj.get("text") or obj.get("source")
    if "\t" in line:
        return line.split("\t", 1)[0]
    return line


def _run_filter(pairs: Iterable[ParaphrasePair], fcfg: FilterConfig):
    """Yield kept pairs; collect drop-reason counts into the returned dict."""
    drops: dict[str, int] = {}

    def gen():
        checked = parallel_map(lambda p: (p, filter_pair(p, fcfg)), pairs)
        for pair, (keep, reason) in checked:
            if keep:
                yield pair
            else:
                drops[reason.value] = drops.get(reason.value, 0) + 1

    return gen(), drops


def cmd_filter(args: argparse.Namespace) -> int:
    fcfg = FilterConfig(
        min_words=args.min_words,
        sim_low=args.sim_low,
        sim_high=args.sim_high,
        require_similarity=not args.allow_missing_similarity,
    )
    fcfg.validate()
    kept, drops = _run_filter(read_pairs(args.input), fcfg)
    out = _open_out(args.output)
    try:
        n = write_jsonl((pair_to_record(p) for p in kept), out)
    finally:
        if out is not sys.stdout:
            out.close()
    print(json.dumps({"kept": n, "drop_reasons": drops}, sort_keys=True), file=sys.stderr)
    return EXIT_OK


def cmd_label(args: argparse.Namespace) -> int:
    scheme = Scheme(args.scheme)
    predictions = None
    if scheme is not Scheme.FKGL:
        if not args.predictions:
            raise ConfigError(f"--predictions is required for scheme {scheme.value}")
        pred_scheme, predictions = read_predictions(args.predictions)
        if pred_scheme is not scheme:
            raise DataError(
                f"prediction file declares scheme {pred_scheme.value}, expected {scheme.value}"
            )
    dropped = 0
    out = _open_out(args.output)
    try:
        def records():
            nonlocal dropped
            for pair, reason in attach_levels(read_pairs(args.input), scheme, predictions):
                if reason is not None:
                    dropped += 1
                    continue
                yield pair_to_record(pair)

        n = write_jsonl(records(), out)
    finally:
        if out is not sys.stdout:
            out.close()
    print(json.dumps({"labeled": n, "level_missing": dropped}), file=sys.stderr)
    return EXIT_OK


def _read_leveled_pairs(path: str, scheme: Scheme) -> Iterator[ParaphrasePair]:
    for lineno, obj in read_jsonl(path):
        try:
            yield ParaphrasePair(
                id=str(obj["id"]),
                source=obj["source"],
                target=obj["target"],
                similarity=obj.get("similarity"),
                source_level=ComplexityLevel.parse(scheme, obj["source_level"]),
                target_level=ComplexityLevel.parse(scheme, obj["target_level"]),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(path, lineno, f"bad leveled pair: {exc}") from exc


def cmd_bucket(args: argparse.Namespace) -> int:
    scheme = Scheme(args.scheme)
    rejected = 0
    out = _open_out(args.output)
    try:
        def records():
            nonlocal rejected
            for pair in _read_leveled_pairs(args.input, scheme):
                label, reason = bucket(pair, scheme)
                if label is None:
                    rejected += 1
                    continue
                yield pair_to_record(pair, task=label.value)

        n = write_jsonl(records(), out)
    finally:
        if out is not sys.stdout:
            out.close()
    print(json.dumps({"bucketed": n, "near_level_rejects": rejected}), file=sys.stderr)
    return EXIT_OK


def cmd_split(args: argparse.Namespace) -> int:
    ratios = _split_ratios(args.ratios, "--ratios")
    records = [obj for _, obj in read_jsonl(args.input)]
    chunks = split_dataset(records, ratios, args.seed, key=lambda r: str(r.get("id", "")))
    outdir = Path(args.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, chunk in chunks.items():
        with open(outdir / f"{name}.jsonl", "w", encoding="utf-8") as fh:
            write_jsonl(chunk, fh)
    print(json.dumps({k: len(v) for k, v in chunks.items()}), file=sys.stderr)
    return EXIT_OK


def cmd_prompt(args: argparse.Namespace) -> int:
    strategy = Strategy(args.strategy)
    scheme = Scheme(args.scheme)
    fixed = None
    if args.fixed_level is not None:
        if scheme is Scheme.CEFR6:
            # Inference prompts use the collapsed A/B/C alphabet directly.
            fixed = ComplexityLevel.parse(
                Scheme.CEFR3 if len(args.fixed_level) == 1 else scheme, args.fixed_level
            )
        else:
            fixed = ComplexityLevel.parse(scheme, args.fixed_level)
    lines = (obj for _, obj in read_jsonl(args.input))
    rendered = render_dataset(lines, strategy, scheme, fixed_level=fixed)
    out = _open_out(args.output)
    try:
        if args.format == "tsv":
            for rec in rendered:
                out.write(f"{rec['input_prompted']}\t{rec['output']}\n")
        else:
            write_jsonl(rendered, out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def _eval_fields(obj: object, path: str, lineno: int) -> tuple[str, tuple[str, ...]]:
    """(source, references) of one eval line, or ParseError at path:line."""
    if not isinstance(obj, dict) or "source" not in obj or "references" not in obj:
        raise ParseError(path, lineno, 'need "source" and "references"')
    source, references = obj["source"], obj["references"]
    if not isinstance(source, str):
        raise ParseError(path, lineno, f'"source" must be a string, got {type(source).__name__}')
    if (
        not isinstance(references, list)
        or not references
        or not all(isinstance(r, str) for r in references)
    ):
        raise ParseError(path, lineno, '"references" must be a non-empty list of strings')
    return source, tuple(references)


def cmd_score(args: argparse.Namespace) -> int:
    with open(args.outputs, encoding="utf-8") as fh:
        outputs = [line.rstrip("\n") for line in fh]
    refs = list(read_jsonl(args.refs))
    if len(outputs) != len(refs):
        raise DataError(
            f"line-count mismatch: {len(outputs)} outputs vs {len(refs)} eval lines"
        )
    instances = []
    for out_text, (lineno, obj) in zip(outputs, refs):
        source, references = _eval_fields(obj, args.refs, lineno)
        instances.append(EvalInstance(source=source, output=out_text, references=references))
    report = score_report(instances, repetition_n=args.repetition_n)
    print(json.dumps(report, sort_keys=True, indent=2))
    if args.per_instance:
        with open(args.per_instance, "w", encoding="utf-8") as fh:
            fh.write("sari\tsari_r\tcopy\n")
            for inst in instances:
                s = sari(inst).sari
                sr = sari_r(inst, args.repetition_n)
                fh.write(f"{s:.4f}\t{sr:.4f}\t{int(is_copy(inst))}\n")
    return EXIT_OK


def _read_level_file(path: str) -> dict[str, ComplexityLevel]:
    levels = {}
    for lineno, obj in read_jsonl(path):
        if "id" not in obj or "level" not in obj:
            raise ParseError(path, lineno, 'need "id" and "level"')
        levels[str(obj["id"])] = ComplexityLevel.cefr6(str(obj["level"]))
    return levels


def cmd_classifier_eval(args: argparse.Namespace) -> int:
    gold = _read_level_file(args.gold)
    pred = _read_level_file(args.pred)
    if set(gold) != set(pred):
        missing = sorted(set(gold) ^ set(pred))[:5]
        raise DataError(f"gold/pred id mismatch, e.g. {missing}")
    preds = [
        LabeledPrediction(gold=gold[k], predicted=pred[k]) for k in sorted(gold)
    ]
    report = {
        "f1_6": weighted_f1(preds, collapse=6),
        "f1_3": weighted_f1(preds, collapse=3),
        "adj_acc": adjacent_accuracy(preds),
        "mae": mae(preds),
        "items": len(preds),
    }
    print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_agree(args: argparse.Namespace) -> int:
    matrix = RatingMatrix()
    for item_id, rater_id, _group, value in read_ratings_tsv(args.input):
        matrix.add(rater_id, item_id, value)
    try:
        alpha = krippendorff_alpha(matrix, metric=args.metric)
    except UndefinedAlphaError as exc:
        raise DataError(f"alpha undefined: {exc}") from exc
    result = {"alpha": alpha, "metric": args.metric}
    if args.threshold is not None:
        resolved = majority_gold(matrix, args.threshold)
        gold = {k: v for k, v in resolved.items() if v != "UNRESOLVED"}
        result["resolved"] = len(gold)
        result["items"] = len(resolved)
        if args.gold_out:
            with open(args.gold_out, "w", encoding="utf-8") as fh:
                write_jsonl(
                    ({"item": str(k), "label": v} for k, v in sorted(gold.items(), key=lambda kv: str(kv[0]))),
                    fh,
                )
    print(json.dumps(result, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    groups = ratings_to_matrices(read_ratings_tsv(args.input))
    if not groups:
        raise DataError(f"no ratings found in {args.input}")
    report = likert_report(groups)
    if args.format == "text":
        print(format_likert_table(report))
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.from_file(args.config)
    scheme = Scheme(cfg.scheme)
    fcfg = cfg.filter_config()

    predictions = None
    if scheme is not Scheme.FKGL:
        if not cfg.predictions:
            raise ConfigError(f"scheme {scheme.value} requires a predictions file")
        pred_scheme, predictions = read_predictions(cfg.predictions)
        if pred_scheme is not scheme:
            raise DataError(
                f"prediction scheme {pred_scheme.value} does not match config {scheme.value}"
            )

    # Dedup first (stable pair key), then filter, label, bucket.
    drop_counts: dict[str, int] = {}

    def deduped() -> Iterator[ParaphrasePair]:
        seen = set()
        for pair in _apply_similarity(read_pairs(cfg.input), cfg):
            key = pair_key(pair.source, pair.target)
            if key in seen:
                drop_counts[DropReason.DUPLICATE.value] = (
                    drop_counts.get(DropReason.DUPLICATE.value, 0) + 1
                )
                continue
            seen.add(key)
            pair.id = key
            yield pair

    kept, filter_drops = _run_filter(deduped(), fcfg)

    def leveled() -> Iterator[ParaphrasePair]:
        for pair, reason in attach_levels(kept, scheme, predictions):
            if reason is not None:
                drop_counts[reason.value] = drop_counts.get(reason.value, 0) + 1
                continue
            yield pair

    try:
        datasets, stats = build_datasets(leveled(), scheme, cfg.seed, cfg.task_size)
    except ValueError as exc:
        raise DataError(str(exc)) from exc
    drop_counts.update(filter_drops)

    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    task_names = {TaskLabel.DOWN: "simplification", TaskLabel.UP: "complexification", TaskLabel.SAME: "same_level"}
    split_counts: dict[str, dict[str, int]] = {}
    task_counts: dict[str, int] = {}
    for label, dataset in datasets.items():
        name = task_names[label]
        task_counts[name] = len(dataset)
        splits = split_dataset(dataset, cfg.split_ratios, cfg.seed)
        split_counts[name] = {}
        for split_name, pairs in splits.items():
            path = outdir / f"{name}.{split_name}.jsonl"
            with open(path, "w", encoding="utf-8") as fh:
                write_jsonl((pair_to_record(p, task=label.value) for p in pairs), fh)
            split_counts[name][split_name] = len(pairs)

    manifest = DatasetManifest(
        scheme=scheme.value,
        seed=cfg.seed,
        filter_settings={
            "min_words": fcfg.min_words,
            "sim_low": fcfg.sim_low,
            "sim_high": fcfg.sim_high,
            "require_similarity": fcfg.require_similarity,
            "similarity_source": cfg.similarity_source,
        },
        task_counts=task_counts,
        split_counts=split_counts,
        drop_reasons=dict(sorted(drop_counts.items())),
        input_digests={cfg.input: file_sha256(cfg.input)},
        conventions={
            "dedup": "before filtering, by sha256 of NFC(source, target)",
            "pair_id": "sha256 of NFC(source, target)",
            "bucket_stats": stats,
            "split_rule": "floor non-train splits, remainder to train",
        },
        tool_version=__version__,
        config_hash=cfg.config_hash(),
    )
    with open(outdir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps({"tasks": task_counts, "splits": split_counts}, sort_keys=True), file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelforge",
        description="Complexity-directed paraphrase dataset construction and evaluation",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="per-line word/syllable/sentence/FKGL stats")
    p.add_argument("input")
    p.add_argument("--levels", help="JSONL level file aligned by line number")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("pipeline", help="full filter/label/bucket/build/split run")
    p.add_argument("--config", required=True, help="JSON PipelineConfig document")
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("filter", help="apply pair filters, report drop reasons")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.add_argument("--min-words", type=int, default=3)
    p.add_argument("--sim-low", type=float, default=0.60)
    p.add_argument("--sim-high", type=float, default=0.80)
    p.add_argument("--allow-missing-similarity", action="store_true")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("label", help="attach complexity levels to pairs")
    p.add_argument("input")
    p.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    p.add_argument("--predictions", help="prediction JSONL (non-FKGL schemes)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("bucket", help="assign up/down/same task labels")
    p.add_argument("input")
    p.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bucket)

    p = sub.add_parser("split", help="seeded train/valid/test split")
    p.add_argument("input")
    p.add_argument("--ratios", type=float, nargs=3, default=[0.8, 0.1, 0.1])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output-dir", required=True)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("prompt", help="render prompted training/inference files")
    p.add_argument("input")
    p.add_argument("--strategy", required=True, choices=[s.value for s in Strategy])
    p.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    p.add_argument("--fixed-level", help="one X for every line (inference mode)")
    p.add_argument("--format", choices=["jsonl", "tsv"], default="jsonl")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_prompt)

    p = sub.add_parser("score", help="SARI/FKGL/copy-rate/repetition report")
    p.add_argument("--outputs", required=True, help="system outputs, one per line")
    p.add_argument("--refs", required=True, help='JSONL {"source","references"}')
    p.add_argument("--repetition-n", type=int, default=4)
    p.add_argument("--per-instance", help="write per-instance TSV here")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("classifier-eval", help="6-F1 / 3-F1 / Adj-Acc / MAE")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.set_defaults(func=cmd_classifier_eval)

    p = sub.add_parser("agree", help="Krippendorff alpha and majority gold")
    p.add_argument("input", help="ratings TSV: item_id, rater_id, group, value")
    p.add_argument("--metric", choices=["nominal", "ordinal"], default="nominal")
    p.add_argument("--threshold", type=int)
    p.add_argument("--gold-out")
    p.set_defaults(func=cmd_agree)

    p = sub.add_parser("report", help="Likert means, 95% CIs, ordinal alpha per group")
    p.add_argument("input", help="ratings TSV: item_id, rater_id, group, value")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
