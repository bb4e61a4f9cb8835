"""Operator-facing command surface.

Subcommands mirror the pipeline stages: analyze, pipeline, filter, label,
bucket, split, prompt, score, classifier-eval, agree, report. Exit codes:
0 success, 1 data error, 2 usage/config error. All randomness flows from
the single --seed / config seed. Per-pair work runs in one thread, in input
order; LEVELFORGE_THREADS is accepted and ignored (a no-op).
"""
from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import stat
import sys
import tempfile
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence, TextIO, TypeVar

from . import __version__
from .agreement import (
    UNRESOLVED,
    LabeledPrediction,
    RatingMatrix,
    adjacent_accuracy,
    format_likert_table,
    krippendorff_alpha,
    likert_report,
    majority_gold,
    mae,
    weighted_f1,
)
from .corpus import (
    SPLIT_RATIOS,
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
    text_sha256,
)
from .dataio import (
    ParseError,
    file_sha256,
    pair_to_record,
    read_jsonl,
    read_keyed,
    read_lines,
    read_pairs,
    read_predictions,
    read_ratings_tsv,
    write_jsonl,
)
from .genmetrics import EvalInstance, is_copy, sari, sari_r, score_report
from .prompts import LLM_ABS_METRICS, Strategy, render_record
from .readability import ComplexityLevel, Scheme, fkgl_from_counts
from .textcore import sentence_stats, total

T = TypeVar("T")
U = TypeVar("U")
# A stage's stream: each item with the reason the stage drops it, None when kept.
Checked = Iterable[tuple[T, Optional[DropReason]]]

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


class PipelineConfig:
    """A pipeline run's settings, one attribute per key of its JSON document; built by ``from_file``."""

    # The config's keys: these must be given, and the others default to these values.
    REQUIRED = ("input", "output_dir")
    DEFAULTS = {
        "scheme": "fkgl",
        "seed": 0,
        "min_words": FilterConfig.min_words,
        "sim_low": FilterConfig.sim_low,
        "sim_high": FilterConfig.sim_high,
        "similarity_source": "column",  # column | file | builtin-lexical | none
        "similarity_file": None,
        "predictions": None,
        "task_size": None,
        "split_ratios": SPLIT_RATIOS,
    }

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
            json.dumps(raw, ensure_ascii=False).encode("utf-8")  # a \u escape of half a surrogate pair
        except (OSError, UnicodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path} must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - set(cls.REQUIRED) - set(cls.DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [k for k in cls.REQUIRED if k not in raw]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        cfg = cls()
        vars(cfg).update(cls.DEFAULTS, **raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        # The fields no other rule checks. type(), so a JSON true is not an int.
        for name, types, want in (
            ("input", (str,), "a string"),
            ("output_dir", (str,), "a string"),
            ("seed", (int,), "an int"),
            ("task_size", (int, type(None)), "null or an int >= 1"),
            ("predictions", (str, type(None)), "null or a string"),
            ("similarity_file", (str, type(None)), "null or a string"),
        ):
            value = getattr(self, name)
            if type(value) not in types or (
                name == "task_size" and value is not None and value < 1
            ):
                raise ConfigError(f"{name} must be {want}, got {value!r}")
        try:
            Scheme(self.scheme)
        except ValueError:
            raise ConfigError(f"unknown scheme {self.scheme!r}") from None
        _filter_settings(self.filter_config())
        if self.similarity_source not in ("column", "file", "builtin-lexical", "none"):
            raise ConfigError(f"unknown similarity_source {self.similarity_source!r}")
        if self.similarity_source == "file" and not self.similarity_file:
            raise ConfigError("similarity_source=file requires similarity_file")
        if not Path(self.input).exists():
            raise ConfigError(f"input path does not exist: {self.input}")
        if self.predictions and not Path(self.predictions).exists():
            raise ConfigError(f"predictions path does not exist: {self.predictions}")
        with _blaming("split_ratios", ConfigError):
            self.split_ratios = check_split_ratios(self.split_ratios)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            min_words=self.min_words,
            sim_low=self.sim_low,
            sim_high=self.sim_high,
            require_similarity=self.similarity_source != "none",
        )

    def config_hash(self) -> str:
        # json.dumps escapes non-ASCII by default, so NFC leaves the payload as it is.
        return text_sha256(json.dumps(self.__dict__, sort_keys=True, default=str))


def _filter_settings(fcfg: FilterConfig) -> FilterConfig:
    """``FilterConfig.validate`` as a usage error, checked before any work starts."""
    try:
        fcfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    return fcfg


def _std_stream(st: Optional[os.stat_result]) -> Optional[TextIO]:
    """stdout or stderr, whichever already has the file ``st`` open; None if neither has."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if st is not None and os.path.samestat(st, os.fstat(stream.fileno())):
                return stream
        except (AttributeError, OSError, ValueError):  # no stream, or one without a descriptor
            pass
    return None


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """A file for one output, landed on ``path`` only if the block ends without an exception.

    A regular or new file is written beside itself and renamed into place,
    keeping its permission bits; an existing one must be writable. Any other
    target is a stream given a spooled copy: stdout for None or "-", stdout or
    stderr when it has the target open (``-o /dev/stderr 2>> log`` appends),
    else the target itself (a pipe, a device), opened before any work.
    """
    try:
        st: Optional[os.stat_result] = None if path in (None, "-") else os.stat(path)
    except FileNotFoundError:
        st = None
    stream = sys.stdout if path in (None, "-") else _std_stream(st)
    if stream or (st is not None and not stat.S_ISREG(st.st_mode)):
        with nullcontext(stream) if stream else open(path, "w", encoding="utf-8") as stream, \
                tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            yield spool
            spool.seek(0)
            stream.writelines(spool)
            stream.flush()
        return
    if st is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    target = os.path.realpath(path)
    tmp = f"{target}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "w", encoding="utf-8")
    except OSError as exc:  # reported as the open of ``path`` would be
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        if st is not None:
            os.chmod(tmp, stat.S_IMODE(st.st_mode))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_splits(outdir: Path, prefix: str, chunks: Mapping[str, Iterable[dict]]) -> dict[str, int]:
    """Each split's records to ``<outdir>/<prefix><split>.jsonl``; the record count per split."""
    outdir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for split, records in chunks.items():
        with _output(str(outdir / f"{prefix}{split}.jsonl")) as fh:
            counts[split] = write_jsonl(records, fh)
    return counts


def _print_report(report: dict, source: str, render: Optional[Callable[[dict], str]] = None) -> None:
    """The one print of a result to stdout, after every file: ``report`` as JSON, or as
    ``render`` shows it; a NaN or infinity in it is a DataError naming ``source``."""
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise DataError(f"{source}: the report holds a NaN or infinity, which JSON cannot hold") from None
    print(render(report) if render else text)


@contextmanager
def _blaming(culprit: str, error: type[Exception] = DataError) -> Iterator[None]:
    """A ValueError in the block becomes ``error`` naming ``culprit``, a file or a setting;
    a ParseError already names its line."""
    try:
        yield
    except ParseError:
        raise
    except ValueError as exc:
        raise error(f"{culprit}: {exc}") from None


def _summary(command: str, entered: int, out: int, drops: Mapping[str, int], **extra: object) -> None:
    """The one stderr line of a dataset command: items in and out, and the drops by reason."""
    line = {"command": command, "in": entered, "out": out, "drops": drops, **extra}
    print(json.dumps(line, sort_keys=True), file=sys.stderr)


def _kept(checked: Checked[T], drops: Counter) -> Iterator[T]:
    """The kept items of a stage's stream; each drop is added, by reason, to ``drops``.

    Items in are never counted: they are the items out plus ``drops.total()``.
    """
    for item, reason in checked:
        if reason is None:
            yield item
        else:
            drops[reason.value] += 1


def _run_stage(
    args: argparse.Namespace, checked: Checked[T], record: Callable[[T], dict] = pair_to_record
) -> int:
    """Run a stage command: write to ``args.output`` the records of what ``checked``, a stream
    over the pairs of ``args.input``, keeps; then print the summary."""
    drops: Counter = Counter()
    with _output(args.output) as out:
        n = write_jsonl(map(record, _kept(checked, drops)), out)
    _summary(args.command, n + drops.total(), n, drops)
    return EXIT_OK


def _unique_pairs(cfg: PipelineConfig) -> Checked[ParaphrasePair]:
    """Each pair of ``cfg.input``: DUPLICATE for a pair key seen before; otherwise the
    pair with its similarity from ``cfg.similarity_source`` and its id set to its key."""
    sims: dict[str, float] = {}
    if cfg.similarity_source == "file":
        sims = read_keyed(cfg.similarity_file, "similarity", lambda v: float(check_similarity(v)))
    seen = set()
    for pair in read_pairs(cfg.input):
        key = pair_key(pair.source, pair.target)
        if key in seen:
            yield pair, DropReason.DUPLICATE
            continue
        seen.add(key)
        if cfg.similarity_source == "none":
            pair.similarity = None
        elif cfg.similarity_source == "builtin-lexical":
            pair.similarity = lexical_similarity(pair.source, pair.target)
        else:  # "column", or "file": the file's value by the input's own id, else the column's
            pair.similarity = sims.get(pair.id, pair.similarity)
        pair.id = key
        yield pair, None


def _filtered(pairs: Iterable[ParaphrasePair], fcfg: FilterConfig) -> Checked[ParaphrasePair]:
    """Each pair with the first ``filter_pair`` rule it fails; None when it passes them all."""
    return parallel_map(lambda p: (p, filter_pair(p, fcfg)[1]), pairs)


def _bucketed(
    pairs: Iterable[ParaphrasePair], scheme: Scheme
) -> Checked[tuple[ParaphrasePair, Optional[TaskLabel]]]:
    """Each leveled pair with its task label, or with the reason ``bucket`` rejects it."""
    for pair in pairs:
        label, reason = bucket(pair, scheme)
        yield (pair, label), reason


def _rate(path: str, matrix_of: Callable[[str], RatingMatrix]) -> None:
    """Add each row of the ratings TSV at ``path`` to the matrix ``matrix_of(group)``;
    a cell that matrix already holds is a ParseError naming the row's line."""
    for lineno, item_id, rater_id, group, value in read_ratings_tsv(path):
        try:
            matrix_of(group).add(rater_id, item_id, value)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None


# ---------------------------------------------------------------- commands


def cmd_analyze(args: argparse.Namespace) -> int:
    levels: dict[int, str] = {}
    if args.levels:
        for lineno, obj in read_jsonl(args.levels):
            label = obj.get("level")
            if label is None:
                raise ParseError(args.levels, lineno, 'need "level"')
            if type(label) not in (str, int, float):
                msg = f'"level" must be a string or a number, got {type(label).__name__}'
                raise ParseError(args.levels, lineno, msg)
            levels[lineno] = str(label)
    per_level: dict[str, list[float]] = {}
    with _output(args.output) as out:
        for lineno, text in _texts(args.input):
            if text is None or not text.strip():
                continue
            row = sentence_stats(text)._asdict()
            row["fkgl"] = fkgl_from_counts(**row) if row["word_count"] else None
            if lineno in levels:
                row["level"] = levels[lineno]
                if row["fkgl"] is not None:
                    per_level.setdefault(levels[lineno], []).append(row["fkgl"])
            out.write(json.dumps(row, sort_keys=True) + "\n")
        if per_level:
            aggregates = {
                level: {
                    "mean_fkgl": total(v) / len(v),
                    "texts": len(v),
                }
                for level, v in sorted(per_level.items())
            }
            out.write(json.dumps({"per_level": aggregates}, sort_keys=True) + "\n")
    return EXIT_OK


def _texts(path: str) -> Iterator[tuple[int, Optional[str]]]:
    """(lineno, text) per line: JSONL "text" ("source" if it is absent, null or ""), else TSV column 1."""
    if Path(path).suffix.lower() == ".jsonl":
        for lineno, obj in read_jsonl(path):
            name = "text" if obj.get("text") not in (None, "") else "source"
            text = obj.get(name)
            if type(text) not in (str, type(None)):
                raise ParseError(path, lineno, f'"{name}" must be a string, got {type(text).__name__}')
            yield lineno, text
        return
    for lineno, line in read_lines(path):
        yield lineno, line.split("\t", 1)[0]


def cmd_filter(args: argparse.Namespace) -> int:
    fcfg = _filter_settings(FilterConfig(
        min_words=args.min_words,
        sim_low=args.sim_low,
        sim_high=args.sim_high,
        require_similarity=not args.allow_missing_similarity,
    ))
    return _run_stage(args, _filtered(read_pairs(args.input), fcfg))


def _predictions(scheme: Scheme, path: Optional[str], name: str) -> Optional[dict]:
    """The level predictions ``scheme`` needs, read from ``path`` (the option
    ``name``); None for FKGL, the one computed scheme."""
    if scheme is Scheme.FKGL:
        return None
    if not path:
        raise ConfigError(f"scheme {scheme.value} requires {name}")
    return read_predictions(path, scheme)


def cmd_label(args: argparse.Namespace) -> int:
    scheme = Scheme(args.scheme)
    predictions = _predictions(scheme, args.predictions, "--predictions")
    return _run_stage(args, attach_levels(read_pairs(args.input), scheme, predictions))


def cmd_bucket(args: argparse.Namespace) -> int:
    scheme = Scheme(args.scheme)
    tasks = _bucketed(read_pairs(args.input, scheme), scheme)
    return _run_stage(args, tasks, lambda kept: pair_to_record(kept[0], task=kept[1].value))


def cmd_split(args: argparse.Namespace) -> int:
    with _blaming("--ratios", ConfigError):
        ratios = check_split_ratios(args.ratios)
    records = [obj for _, obj in read_jsonl(args.input)]
    chunks = split_dataset(records, ratios, args.seed, key=lambda r: str(r.get("id", "")))
    counts = _write_splits(Path(args.output_dir), "", chunks)
    _summary("split", len(records), sum(counts.values()), {}, splits=counts)
    return EXIT_OK


def cmd_prompt(args: argparse.Namespace) -> int:
    strategy = Strategy(args.strategy)
    scheme = Scheme(args.scheme)
    if strategy is Strategy.LLM_ABSOLUTE and scheme not in LLM_ABS_METRICS:
        raise ConfigError("--strategy llm-abs names an FKGL or CEFR level, not a newsela one")
    fixed = None
    if args.fixed_level is not None:
        if strategy not in (Strategy.ABSOLUTE, Strategy.LLM_ABSOLUTE):
            raise ConfigError(f"--fixed-level needs strategy abs or llm-abs, not {strategy.value}")
        # Under cefr6, inference prompts may use the collapsed A/B/C alphabet.
        collapsed = scheme is Scheme.CEFR6 and len(args.fixed_level) == 1
        with _blaming("--fixed-level", ConfigError):
            fixed = ComplexityLevel.parse(Scheme.CEFR3 if collapsed else scheme, args.fixed_level)
    with _output(args.output) as out:
        for lineno, record in read_jsonl(args.input):
            with _blaming(f"{args.input}:{lineno}"):
                rec = render_record(record, strategy, scheme, fixed_level=fixed)
            if args.format == "tsv":
                row = (rec["input_prompted"], rec["output"])
                if any(c in value for value in row for c in "\t\n\r"):
                    msg = "a tab or line break in source or target cannot go in a TSV row"
                    raise ParseError(args.input, lineno, msg)
                out.write("\t".join(row) + "\n")
            else:
                write_jsonl([rec], out)
    return EXIT_OK


def cmd_score(args: argparse.Namespace) -> int:
    if args.repetition_n < 1:
        raise ConfigError(f"--repetition-n must be >= 1, got {args.repetition_n}")
    outputs = [line for _, line in read_lines(args.outputs)]
    refs = list(read_jsonl(args.refs))
    if len(outputs) != len(refs):
        raise DataError(
            f"line-count mismatch: {len(outputs)} lines in {args.outputs}, {len(refs)} in {args.refs}"
        )
    instances = []
    for out_text, (lineno, obj) in zip(outputs, refs):
        if "source" not in obj or "references" not in obj:
            raise ParseError(args.refs, lineno, 'need "source" and "references"')
        with _blaming(f"{args.refs}:{lineno}"):
            instances.append(EvalInstance(obj["source"], out_text, obj["references"]))
    with _blaming(args.outputs):  # no instances
        report = score_report(instances, repetition_n=args.repetition_n)
    if args.per_instance:
        with _output(args.per_instance) as fh:
            fh.write("sari\tsari_r\tcopy\n")
            for inst in instances:
                s = sari(inst).sari
                sr = sari_r(inst, args.repetition_n)
                fh.write(f"{s:.4f}\t{sr:.4f}\t{int(is_copy(inst))}\n")
    _print_report(report, args.outputs)
    return EXIT_OK


def cmd_classifier_eval(args: argparse.Namespace) -> int:
    level = functools.partial(ComplexityLevel.parse, Scheme.CEFR6)
    gold = read_keyed(args.gold, "level", level)
    pred = read_keyed(args.pred, "level", level)
    if set(gold) != set(pred):
        missing = sorted(set(gold) ^ set(pred))[:5]
        raise DataError(f"ids differ between {args.gold} and {args.pred}, e.g. {missing}")
    preds = [
        LabeledPrediction(gold=gold[k], predicted=pred[k]) for k in sorted(gold)
    ]
    with _blaming(args.gold):  # no items
        report = {
            "f1_6": weighted_f1(preds, collapse=6),
            "f1_3": weighted_f1(preds, collapse=3),
            "adj_acc": adjacent_accuracy(preds),
            "mae": mae(preds),
            "items": len(preds),
        }
    _print_report(report, args.pred)
    return EXIT_OK


def cmd_agree(args: argparse.Namespace) -> int:
    if args.gold_out and args.threshold is None:
        raise ConfigError("--gold-out needs --threshold")
    if args.threshold is not None and args.threshold < 1:
        raise ConfigError(f"--threshold must be >= 1, got {args.threshold}")
    matrix = RatingMatrix()
    _rate(args.input, lambda _group: matrix)  # pools every group
    with _blaming(args.input):  # alpha undefined, or a threshold out of reach
        result = {"alpha": krippendorff_alpha(matrix, metric=args.metric), "metric": args.metric}
        resolved = None if args.threshold is None else majority_gold(matrix, args.threshold)
    if resolved is not None:
        gold = {k: v for k, v in resolved.items() if v != UNRESOLVED}
        result["resolved"] = len(gold)
        result["items"] = len(resolved)
        if args.gold_out:
            with _output(args.gold_out) as fh:
                items = sorted(gold.items(), key=lambda kv: str(kv[0]))
                write_jsonl(({"item": str(k), "label": v} for k, v in items), fh)
    _print_report(result, args.input)
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    groups: defaultdict[str, RatingMatrix] = defaultdict(RatingMatrix)
    _rate(args.input, groups.__getitem__)
    if not groups:
        raise DataError(f"no ratings found in {args.input}")
    render = format_likert_table if args.format == "text" else None
    _print_report(likert_report(groups), args.input, render)
    return EXIT_OK


def cmd_pipeline(args: argparse.Namespace) -> int:
    cfg = PipelineConfig.from_file(args.config)
    scheme = Scheme(cfg.scheme)
    fcfg = cfg.filter_config()

    predictions = _predictions(scheme, cfg.predictions, '"predictions"')
    # Dedup first (stable pair key), then similarity, filter, label, bucket.
    drops: Counter = Counter()
    # NEAR_LEVEL goes in bucket_stats, not drop_reasons: perfbench/checks.py adds the two.
    near_level: Counter = Counter()
    unique = _kept(_unique_pairs(cfg), drops)
    kept = _kept(_filtered(unique, fcfg), drops)
    leveled = _kept(attach_levels(kept, scheme, predictions), drops)
    bucketed = _kept(_bucketed(leveled, scheme), near_level)
    with _blaming(cfg.input):  # too few pairs for the task size
        datasets, stats = build_datasets(bucketed, cfg.seed, cfg.task_size)
    stats["near_level_rejects"] = near_level[DropReason.NEAR_LEVEL.value]
    reached_bucket = sum(stats["bucket_counts"].values()) + stats["near_level_rejects"]

    # The old manifest goes before the first write and the new one comes last,
    # so a directory with a manifest is complete. The `<output>.<pid>.tmp`
    # files that killed runs left behind (see _output) go with it.
    outdir = Path(cfg.output_dir)
    (outdir / "manifest.json").unlink(missing_ok=True)
    task_names = {TaskLabel.DOWN: "simplification", TaskLabel.UP: "complexification", TaskLabel.SAME: "same_level"}
    outputs = {"manifest.json"} | {
        f"{name}.{split}.jsonl" for name in task_names.values() for split in ("train", "valid", "test")
    }
    for tmp in outdir.glob("*.tmp"):
        output, _, pid = tmp.name[: -len(".tmp")].rpartition(".")
        if output in outputs and pid.isdigit():
            tmp.unlink(missing_ok=True)
    split_counts: dict[str, dict[str, int]] = {}
    task_counts: dict[str, int] = {}
    for label, dataset in datasets.items():
        name = task_names[label]
        task_counts[name] = len(dataset)
        split_counts[name] = _write_splits(outdir, f"{name}.", {
            split: (pair_to_record(p, task=label.value) for p in pairs)
            for split, pairs in split_dataset(dataset, cfg.split_ratios, cfg.seed).items()
        })

    manifest = {
        "scheme": scheme.value,
        "seed": cfg.seed,
        "filter_settings": {**vars(fcfg), "similarity_source": cfg.similarity_source},
        "task_counts": task_counts,
        "split_counts": split_counts,
        "drop_reasons": dict(sorted(drops.items())),
        "input_digests": {cfg.input: file_sha256(cfg.input)},
        "conventions": {
            "dedup": "before filtering, by sha256 of NFC(source, target)",
            "pair_id": "sha256 of NFC(source, target)",
            "bucket_stats": stats,
            "split_rule": "floor non-train splits, remainder to train",
            "filter_order": "SIM_MISSING, SIM_LOW, SIM_HIGH, TOO_SHORT, CONTAINMENT: first failing rule",
        },
        "tool_version": __version__,
        "config_hash": cfg.config_hash(),
    }
    with _output(str(outdir / "manifest.json")) as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _summary("pipeline", reached_bucket + drops.total(), reached_bucket, drops,
             tasks=task_counts, splits=split_counts)
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
    p.add_argument("--min-words", type=int, default=FilterConfig.min_words)
    p.add_argument("--sim-low", type=float, default=FilterConfig.sim_low)
    p.add_argument("--sim-high", type=float, default=FilterConfig.sim_high)
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
    p.add_argument("--ratios", type=float, nargs=3, default=SPLIT_RATIOS)
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

    p = sub.add_parser("report", help="Likert means, 95%% CIs, ordinal alpha per group")
    p.add_argument("input", help="ratings TSV: item_id, rater_id, group, value")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
