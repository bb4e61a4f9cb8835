"""Operator-facing command surface.

Each subcommand is declared once, by ``_command`` on its runner, which returns
its summary or None. ``_output`` alone writes stdout; ``main`` alone writes
stderr and sets the exit code: 0 success, 1 data error, 2 usage or config error.
A run that writes to a stream or file that fails (full, closed, or missing from
the start) exits 2, or keeps its 1, with one ``error:`` line naming it; a run
that does not write there runs as it would. --help or --version that cannot be
written exits 0; without stderr, a lost line leaves the exit code as it was.
Every seeded order is ``corpus.rank`` of the --seed or config seed. Per-pair
work runs in one thread, in input order; LEVELFORGE_THREADS is accepted and ignored.
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
    ConfigError,
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
    rank,
    split_dataset,
    text_sha256,
)
from .dataio import (
    ParseError,
    check_surrogates,
    file_sha256,
    pair_to_record,
    read_jsonl,
    read_keyed,
    read_lines,
    read_pairs,
    read_predictions,
    read_ratings_tsv,
    record_id,
    record_line,
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
                text = fh.read()
            raw = json.loads(text)
            check_surrogates(path, text)
        except ParseError as exc:
            raise ConfigError(f"cannot read config {exc}") from None
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
        self.filter_config().validate()
        if self.similarity_source not in ("column", "file", "builtin-lexical", "none"):
            raise ConfigError(f"unknown similarity_source {self.similarity_source!r}")
        if self.similarity_source == "file" and not self.similarity_file:
            raise ConfigError("similarity_source=file requires similarity_file")
        for name in ("input", "predictions", "similarity_file"):
            path = getattr(self, name)
            if path and not Path(path).exists():
                raise ConfigError(f"{name} path does not exist: {path}")
        with _blaming("split_ratios", ConfigError):
            self.split_ratios = check_split_ratios(self.split_ratios)

    def filter_config(self) -> FilterConfig:
        return FilterConfig(min_words=self.min_words, sim_low=self.sim_low, sim_high=self.sim_high,
                            require_similarity=self.similarity_source != "none")

    def config_hash(self) -> str:
        # json.dumps escapes non-ASCII by default, so NFC leaves the payload as it is.
        return text_sha256(json.dumps(self.__dict__, sort_keys=True, default=str))


def _std_stream(st: Optional[os.stat_result]) -> Optional[TextIO]:
    """stdout or stderr, whichever already has the file ``st`` open; None if neither has."""
    for stream in (sys.stdout, sys.stderr):
        try:
            if st is not None and os.path.samestat(st, os.fstat(stream.fileno())):
                return stream
        except (OSError, ValueError):  # a stream without a descriptor
            pass
    return None


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """A file for one output, landed on ``path`` only if the block ends without an exception.

    A regular or new file is written beside itself and renamed into place,
    keeping its permission bits; an existing one must be writable. Any other
    target is a stream given a spooled copy in UTF-8, as a file is: stdout for
    None or "-", stdout or stderr when it has the target open (``-o /dev/stderr
    2>> log`` appends), else the target itself (a pipe, a device), opened before
    any work. A file first removes the ``<real path>.<digits>.tmp`` files killed
    runs left. A failed write or rename names ``path``, or "<stdout>" (see ``_naming``).
    """
    to_stdout = path in (None, "-")
    try:
        st: Optional[os.stat_result] = None if to_stdout else os.stat(path)
    except FileNotFoundError:
        st = None
    stream = sys.stdout if to_stdout else _std_stream(st)
    if stream or (st is not None and not stat.S_ISREG(st.st_mode)):
        with _naming("<stdout>" if to_stdout else path), \
                nullcontext(stream.buffer) if stream else open(path, "wb") as sink, \
                tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spool:
            yield spool
            spool.seek(0)
            sink.writelines(spool.buffer)
            sink.flush()
        return
    if st is not None and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
    target = os.path.realpath(path)
    folder, name = os.path.split(target)
    tmp = f"{target}.{os.getpid()}.tmp"
    with _naming(path, tmp, folder):  # the temporary file and the listed folder are reported as ``path``
        for stale in os.listdir(folder):
            if stale.startswith(f"{name}.") and stale.endswith(".tmp") and stale[len(name) + 1 : -4].isdigit():
                Path(folder, stale).unlink(missing_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                yield fh
            if st is not None:
                os.chmod(tmp, stat.S_IMODE(st.st_mode))
            os.replace(tmp, target)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)  # not there if open failed or a later writer removed it
            raise


@contextmanager
def _naming(target: str, *stand_ins: str) -> Iterator[None]:
    """An OSError in the block that names no file, or one of ``stand_ins``, names ``target``."""
    try:
        yield
    except OSError as exc:
        if exc.filename is not None and exc.filename not in stand_ins:
            raise
        raise OSError(exc.errno, exc.strerror, target) from None


def _write_splits(outdir: Path, prefix: str, chunks: Mapping[str, Iterable[dict]]) -> dict[str, int]:
    """Each split's records to ``<outdir>/<prefix><split>.jsonl``; the record count per split."""
    outdir.mkdir(parents=True, exist_ok=True)
    counts = {}
    for split, records in chunks.items():
        with _output(str(outdir / f"{prefix}{split}.jsonl")) as fh:
            counts[split] = write_jsonl(records, fh)
    return counts


def _print_report(report: dict, source: str, render: Optional[Callable[[dict], str]] = None,
                  path: Optional[str] = None) -> None:
    """``report`` as JSON, or as ``render`` shows it, to ``path``, or to stdout for None (a command's result,
    after every file); a NaN or infinity in it is a ValueError naming ``source``."""
    try:
        text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ValueError(f"{source}: the report holds a NaN or infinity, which JSON cannot hold") from None
    with _output(path) as out:
        out.write((render(report) if render else text) + "\n")


@contextmanager
def _blaming(culprit: str, error: type[Exception] = ValueError) -> Iterator[None]:
    """A ValueError in the block becomes ``error`` naming ``culprit``, a file or a setting; a
    ParseError already names its line. Blocks never nest: a ValueError would be named twice."""
    try:
        yield
    except ParseError:
        raise
    except ValueError as exc:
        raise error(f"{culprit}: {exc}") from None


def _summary(command: str, out: int, drops: Mapping[str, int], **extra: object) -> dict:
    """A dataset command's summary, which ``main`` prints: items out, drops by reason, and in, their sum."""
    return {"command": command, "in": out + sum(drops.values()), "out": out, "drops": drops, **extra}


def _kept(checked: Checked[T], drops: Counter) -> Iterator[T]:
    """The kept items of a stage's stream; each drop is added, by reason, to ``drops``."""
    for item, reason in checked:
        if reason is None:
            yield item
        else:
            drops[reason.value] += 1


def _run_stage(args: argparse.Namespace, checked: Checked[T], record: Callable[[T], dict] = pair_to_record) -> dict:
    """Run a stage command: write to ``args.output`` the records of what ``checked``, a stream
    over the pairs of ``args.input``, keeps; return the summary."""
    drops: Counter = Counter()
    with _output(args.output) as out:
        n = write_jsonl(map(record, _kept(checked, drops)), out)
    return _summary(args.command, n, drops)


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

Option = tuple[tuple[str, ...], dict]  # the arguments of one add_argument call
# Each subcommand, in --help order: its runner's name, help line and options; filled by _command.
COMMANDS: dict[str, tuple[str, str, tuple[Option, ...]]] = {}
Runner = TypeVar("Runner", bound=Callable[[argparse.Namespace], Optional[dict]])  # returns its summary


def _arg(*names: str, **kw: object) -> Option:
    return names, kw


def _command(name: str, help_line: str, *options: Option) -> Callable[[Runner], Runner]:
    """Declare the decorated runner as the subcommand ``name``, with its help line and options."""
    def declare(runner: Runner) -> Runner:
        COMMANDS[name] = (runner.__name__, help_line, options)
        return runner
    return declare


INPUT = _arg("input")
OUTPUT = _arg("-o", "--output")
SCHEME = _arg("--scheme", required=True, choices=[s.value for s in Scheme])
RATINGS = _arg("input", help="ratings TSV: item_id, rater_id, group, value")


@_command("analyze", "per-line word/syllable/sentence/FKGL stats",
          INPUT, _arg("--levels", help="JSONL level file aligned by line number"), OUTPUT)
def cmd_analyze(args: argparse.Namespace) -> None:
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
            write_jsonl([row], out)
        if per_level:  # write_jsonl's sort_keys orders the levels
            aggregates = {level: {"mean_fkgl": total(v) / len(v), "texts": len(v)} for level, v in per_level.items()}
            write_jsonl([{"per_level": aggregates}], out)


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


@_command("pipeline", "full filter/label/bucket/build/split run",
          _arg("--config", required=True, help="JSON PipelineConfig document"))
def cmd_pipeline(args: argparse.Namespace) -> dict:
    cfg = PipelineConfig.from_file(args.config)
    scheme = Scheme(cfg.scheme)
    fcfg = cfg.filter_config()

    predictions = _predictions(scheme, cfg.predictions, '"predictions"')
    read = [cfg.input]  # every file the run reads, for the manifest's input_digests
    if predictions is not None:
        read.append(cfg.predictions)
    if cfg.similarity_source == "file":
        read.append(cfg.similarity_file)
    # Dedup first (stable pair key), then similarity, filter, label, bucket.
    drops: Counter = Counter()
    unique = _kept(_unique_pairs(cfg), drops)
    kept = _kept(_filtered(unique, fcfg), drops)
    leveled = _kept(attach_levels(kept, scheme, predictions), drops)
    bucketed = _kept(_bucketed(leveled, scheme), drops)
    with _blaming(cfg.input):  # too few pairs for the task size
        datasets, stats = build_datasets(bucketed, cfg.seed, cfg.task_size)
    input_digests = {path: file_sha256(path) for path in read}  # before a write can replace an input
    # NEAR_LEVEL goes in bucket_stats, not drop_reasons: perfbench/checks.py adds the two.
    stats["near_level_rejects"] = drops.pop(DropReason.NEAR_LEVEL.value, 0)
    reached_bucket = sum(stats["bucket_counts"].values()) + stats["near_level_rejects"]

    # The old manifest goes before the first write and the new one comes last,
    # so a directory with a manifest is complete.
    outdir = Path(cfg.output_dir)
    (outdir / "manifest.json").unlink(missing_ok=True)
    task_names = {TaskLabel.DOWN: "simplification", TaskLabel.UP: "complexification", TaskLabel.SAME: "same_level"}
    split_counts: dict[str, dict[str, int]] = {}
    task_counts: dict[str, int] = {}
    for label, dataset in datasets.items():
        name = task_names[label]
        task_counts[name] = len(dataset)
        split_counts[name] = _write_splits(outdir, f"{name}.", {
            split: (pair_to_record(p, task=label.value) for p in pairs)
            for split, pairs in split_dataset(dataset, cfg.split_ratios).items()
        })

    manifest = {
        "scheme": scheme.value,
        "seed": cfg.seed,
        "filter_settings": {**vars(fcfg), "similarity_source": cfg.similarity_source},
        "task_counts": task_counts,
        "split_counts": split_counts,
        "drop_reasons": dict(sorted(drops.items())),
        "input_digests": input_digests,
        "conventions": {
            "dedup": "before filtering, by sha256 of NFC(source, target)",
            "pair_id": "sha256 of NFC(source, target)",
            "bucket_stats": stats,
            "sampling": "by rank, the 8-byte blake2b digest of '<seed>:<id>', lowest first: simplification "
                        "and same_level the first task_size of each pool, complexification the next, swapped back",
            "split_rule": "each task by rank: train, valid, test; floor non-train splits, remainder to train",
            "filter_order": "SIM_MISSING, SIM_LOW, SIM_HIGH, TOO_SHORT, CONTAINMENT: first failing rule",
        },
        "tool_version": __version__,
        "config_hash": cfg.config_hash(),
    }
    _print_report(manifest, args.config, path=str(outdir / "manifest.json"))
    return _summary("pipeline", reached_bucket, drops, tasks=task_counts, splits=split_counts)


@_command("filter", "apply pair filters, report drop reasons", INPUT, OUTPUT,
          _arg("--min-words", type=int, default=FilterConfig.min_words),
          _arg("--sim-low", type=float, default=FilterConfig.sim_low),
          _arg("--sim-high", type=float, default=FilterConfig.sim_high),
          _arg("--allow-missing-similarity", action="store_true"))
def cmd_filter(args: argparse.Namespace) -> dict:
    fcfg = FilterConfig(
        min_words=args.min_words,
        sim_low=args.sim_low,
        sim_high=args.sim_high,
        require_similarity=not args.allow_missing_similarity,
    )
    fcfg.validate()
    return _run_stage(args, _filtered(read_pairs(args.input), fcfg))


def _predictions(scheme: Scheme, path: Optional[str], name: str) -> Optional[dict]:
    """The level predictions ``scheme`` needs, read from ``path`` (the option
    ``name``); None for FKGL, the one computed scheme."""
    if scheme is Scheme.FKGL:
        return None
    if not path:
        raise ConfigError(f"scheme {scheme.value} requires {name}")
    return read_predictions(path, scheme)


@_command("label", "attach complexity levels to pairs",
          INPUT, SCHEME, _arg("--predictions", help="prediction JSONL (non-FKGL schemes)"), OUTPUT)
def cmd_label(args: argparse.Namespace) -> dict:
    scheme = Scheme(args.scheme)
    predictions = _predictions(scheme, args.predictions, "--predictions")
    return _run_stage(args, attach_levels(read_pairs(args.input), scheme, predictions))


@_command("bucket", "assign up/down/same task labels", INPUT, SCHEME, OUTPUT)
def cmd_bucket(args: argparse.Namespace) -> dict:
    scheme = Scheme(args.scheme)
    tasks = _bucketed(read_pairs(args.input, scheme), scheme)
    return _run_stage(args, tasks, lambda kept: pair_to_record(kept[0], task=kept[1].value))


@_command("split", "seeded train/valid/test split", INPUT,
          _arg("--ratios", type=float, nargs=3, default=SPLIT_RATIOS),
          _arg("--seed", type=int, default=0), _arg("-o", "--output-dir", required=True))
def cmd_split(args: argparse.Namespace) -> dict:
    with _blaming("--ratios", ConfigError):
        ratios = check_split_ratios(args.ratios)
    records = [obj for _, obj in read_jsonl(args.input)]
    count = Counter(map(record_id, records))

    def key(record: dict) -> str:
        """Its id, as pipeline ranks its pairs, if a string or an integer no other record has; else its line."""
        found = record_id(record)
        return found if found is not None and count[found] == 1 else record_line(record)

    records.sort(key=lambda record: rank(args.seed, key(record)))
    counts = _write_splits(Path(args.output_dir), "", split_dataset(records, ratios))
    return _summary("split", sum(counts.values()), {}, splits=counts)


@_command("prompt", "render prompted training/inference files",
          INPUT, _arg("--strategy", required=True, choices=[s.value for s in Strategy]), SCHEME,
          _arg("--fixed-level", help="one X for every line (inference mode)"),
          _arg("--format", choices=["jsonl", "tsv"], default="jsonl"), OUTPUT)
def cmd_prompt(args: argparse.Namespace) -> None:
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


@_command("score", "SARI/FKGL/copy-rate/repetition report",
          _arg("--outputs", required=True, help="system outputs, one per line"),
          _arg("--refs", required=True, help='JSONL {"source","references"}'),
          _arg("--repetition-n", type=int, default=4), _arg("--per-instance", help="write per-instance TSV here"))
def cmd_score(args: argparse.Namespace) -> None:
    if args.repetition_n < 1:
        raise ConfigError(f"--repetition-n must be >= 1, got {args.repetition_n}")
    outputs = [line for _, line in read_lines(args.outputs)]
    refs = list(read_jsonl(args.refs))
    if len(outputs) != len(refs):
        raise ValueError(f"line-count mismatch: {len(outputs)} lines in {args.outputs}, {len(refs)} in {args.refs}")
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


@_command("classifier-eval", "6-F1 / 3-F1 / Adj-Acc / MAE",
          _arg("--gold", required=True), _arg("--pred", required=True))
def cmd_classifier_eval(args: argparse.Namespace) -> None:
    level = functools.partial(ComplexityLevel.parse, Scheme.CEFR6)
    gold = read_keyed(args.gold, "level", level)
    pred = read_keyed(args.pred, "level", level)
    if set(gold) != set(pred):
        missing = sorted(set(gold) ^ set(pred))[:5]
        raise ValueError(f"ids differ between {args.gold} and {args.pred}, e.g. {missing}")
    preds = [LabeledPrediction(gold=gold[k], predicted=pred[k]) for k in sorted(gold)]
    with _blaming(args.gold):  # no items
        report = {
            "f1_6": weighted_f1(preds, collapse=6),
            "f1_3": weighted_f1(preds, collapse=3),
            "adj_acc": adjacent_accuracy(preds),
            "mae": mae(preds),
            "items": len(preds),
        }
    _print_report(report, args.pred)


@_command("agree", "Krippendorff alpha and majority gold", RATINGS,
          _arg("--metric", choices=["nominal", "ordinal"], default="nominal"),
          _arg("--threshold", type=int), _arg("--gold-out"))
def cmd_agree(args: argparse.Namespace) -> None:
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


@_command("report", "Likert means, 95%% CIs, ordinal alpha per group",
          RATINGS, _arg("--format", choices=["json", "text"], default="json"))
def cmd_report(args: argparse.Namespace) -> None:
    groups: defaultdict[str, RatingMatrix] = defaultdict(RatingMatrix)
    _rate(args.input, groups.__getitem__)
    if not groups:
        raise ValueError(f"no ratings found in {args.input}")
    render = format_likert_table if args.format == "text" else None
    _print_report(likert_report(groups), args.input, render)


def build_parser() -> argparse.ArgumentParser:
    description = "Complexity-directed paraphrase dataset construction and evaluation"
    parser = argparse.ArgumentParser(prog="levelforge", description=description)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (runner, help_line, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for names, kw in options:
            p.add_argument(*names, **kw)
        # Looked up now, not held since import: perfbench/tracer.py rebinds cli.cmd_pipeline and cli.cmd_score.
        p.set_defaults(func=globals()[runner])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, line = EXIT_OK, None
    # A stream the process started without (None) gets a stand-in, so argparse cannot fall back to the
    # other: for stdout a pipe's read end, where every write fails with EBADF; for stderr os.devnull.
    started = sys.stdout, sys.stderr
    if sys.stdout is None:
        read, write = os.pipe()
        os.close(write)
        sys.stdout = open(read, "w", encoding="utf-8", errors="backslashreplace")
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w", encoding="utf-8", errors="backslashreplace")
    try:
        args = build_parser().parse_args(argv)
        if summary := args.func(args):
            line = json.dumps(summary, sort_keys=True)
    except (ConfigError, OSError) as exc:
        code, line = EXIT_USAGE, f"error: {exc}"
    except ValueError as exc:  # ParseError is a ValueError
        code, line = EXIT_DATA, f"error: {exc}"
    finally:  # also on SystemExit, from --help, --version or a usage error
        for stream in (sys.stderr, sys.stdout):
            try:
                if stream is sys.stderr and line is not None:
                    print(line, file=sys.stderr)
                stream.flush()
            except OSError:  # closed or full: a failed run keeps its code, and the flush at exit has nothing to retry
                code = code or EXIT_USAGE
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, stream.fileno())
                os.close(devnull)
        for stream in {sys.stdout, sys.stderr} - set(started):  # the stand-ins
            stream.close()
        sys.stdout, sys.stderr = started
    return code


if __name__ == "__main__":
    sys.exit(main())
