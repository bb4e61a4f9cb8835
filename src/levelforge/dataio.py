"""Streaming readers and writers for the JSONL/TSV interchange formats."""
from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, TypeVar

from .corpus import ParaphrasePair, hash_functions
from .readability import ComplexityLevel, Scheme

T = TypeVar("T")

__all__ = [
    "read_lines",
    "read_jsonl",
    "read_keyed",
    "write_jsonl",
    "record_line",
    "record_id",
    "read_pairs",
    "read_predictions",
    "read_ratings_tsv",
    "pair_to_record",
    "file_sha256",
    "check_surrogates",
    "ParseError",
]


class ParseError(ValueError):
    """Malformed input line; carries the path and 1-based line number."""

    def __init__(self, path: str | Path, lineno: int, message: str) -> None:
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield (lineno, line) per line of a text file, newline removed (CRLF reads as LF).

    The one place an input file is read: a line that is not UTF-8 is a ParseError.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError(path, lineno, "not valid UTF-8") from None
            yield lineno, line


def _not_json(constant: str) -> float:
    raise ValueError(f"{constant} is not a JSON number")


def _finite(text: str) -> float:
    if math.isinf(value := float(text)):
        raise ValueError(f"{text} is out of the float range")
    return value


# Python's json reads NaN and Infinity, and reads 1e400 as infinity, which no JSON writer may write back.
_DECODER = json.JSONDecoder(parse_constant=_not_json, parse_float=_finite)


# A JSON string literal. Valid JSON has no quote or backslash outside one, and no literal spans lines.
_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')


def check_surrogates(path: str | Path, text: str, first_line: int = 1) -> None:
    """Raise a ParseError naming the line of the first string in valid JSON ``text``
    (read from ``path`` from ``first_line`` on) that holds half a surrogate pair."""
    for match in _JSON_STRING.finditer(text):
        try:
            json.loads(match.group()).encode("utf-8")
        except UnicodeEncodeError:
            lineno = first_line + text.count("\n", 0, match.start())
            raise ParseError(path, lineno, "a \\u escape is half a surrogate pair") from None


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, object) for each non-empty line; any other JSON value is a ParseError."""
    for lineno, line in read_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = _DECODER.decode(line)
        except ValueError as exc:
            raise ParseError(path, lineno, f"invalid JSON: {exc}") from exc
        if "\\ud" in line or "\\uD" in line:  # an escape that may be half a surrogate pair
            check_surrogates(path, line, lineno)
        if not isinstance(obj, dict):
            raise ParseError(path, lineno, f"expected a JSON object, got {type(obj).__name__}")
        yield lineno, obj


def _id(value: object) -> str:
    """A record's id: a JSON string, or an integer read as its digits."""
    if type(value) not in (str, int):  # not bool, a subclass of int
        raise ValueError(f"an id must be a string or an integer, got {type(value).__name__}")
    return str(value)


def record_id(record: dict) -> Optional[str]:
    """``record``'s "id" as the readers take it; None when it has none, or one of another type."""
    try:
        return _id(record["id"])
    except (KeyError, ValueError):
        return None


def _put(values: dict[str, T], key: str, value: T, path: str | Path, lineno: int, name: str) -> None:
    """``values[key] = value``; a key that already maps to another value is a ParseError."""
    if values.setdefault(key, value) != value:
        raise ParseError(path, lineno, f"{key!r} repeats with another {name}")


def read_keyed(path: str | Path, name: str, convert: Callable[[object], T]) -> dict[str, T]:
    """Map each JSONL line's "id" to ``convert`` of its ``name`` field.

    A line without both, whose id ``_id`` or value ``convert`` rejects, or
    that repeats an id with another value, is a ParseError.
    """
    values: dict[str, T] = {}
    for lineno, obj in read_jsonl(path):
        if "id" not in obj or name not in obj:
            raise ParseError(path, lineno, f'need "id" and "{name}"')
        try:
            key, value = _id(obj["id"]), convert(obj[name])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        _put(values, key, value, path, lineno, name)
    return values


# A record's JSONL line, without its newline: keys sorted, non-ASCII written as is. ``split`` ranks by it.
record_line = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode


def write_jsonl(records: Iterable[dict], out: TextIO) -> int:
    """Write each record as its ``record_line``."""
    n = 0
    for record in records:
        out.write(record_line(record))
        out.write("\n")
        n += 1
    return n


def read_pairs(path: str | Path, scheme: Optional[Scheme] = None) -> Iterator[ParaphrasePair]:
    """Read paraphrase pairs from JSONL or TSV.

    JSONL objects carry {"id", "source", "target", "similarity"?}. A TSV
    row source<TAB>target[<TAB>similarity] reads as such an object, its id
    the line number; a record no pair can be built from is a "bad pair
    record" ParseError. With a ``scheme`` the pairs are leveled: the file
    is read as JSONL whatever its suffix, and each object also carries
    "source_level" and "target_level" labels of that scheme.
    """
    path = Path(path)
    tsv = scheme is None and path.suffix.lower() == ".tsv"
    for lineno, obj in _tsv_rows(path) if tsv else read_jsonl(path):
        try:
            pair = ParaphrasePair(
                id=_id(obj["id"]),
                source=obj["source"],
                target=obj["target"],
                similarity=obj.get("similarity"),
            )
            if scheme is not None:
                pair.source_level = ComplexityLevel.parse(scheme, obj["source_level"])
                pair.target_level = ComplexityLevel.parse(scheme, obj["target_level"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(path, lineno, f"bad pair record: {exc}") from exc
        yield pair


def _tsv_rows(path: Path) -> Iterator[tuple[int, dict]]:
    """(lineno, pair record) per non-empty TSV row, its id the line number."""
    for lineno, line in read_lines(path):
        if not line:
            continue
        cols = line.split("\t")
        if len(cols) < 2:
            raise ParseError(path, lineno, "expected source<TAB>target")
        record = {"id": lineno, "source": cols[0], "target": cols[1]}
        if len(cols) >= 3 and cols[2]:
            try:
                record["similarity"] = float(cols[2])
            except ValueError as exc:
                raise ParseError(path, lineno, f"bad similarity: {cols[2]!r}") from exc
        yield lineno, record


def read_predictions(path: str | Path, scheme: Scheme) -> dict[str, ComplexityLevel]:
    """Read a level-prediction file of ``scheme``.

    The first line is a header object declaring the scheme: another scheme
    than ``scheme`` is a ParseError at the header's line. Each following
    line is {"id" or "text_sha256" (64 lowercase hex digits), "level"}. A key may
    repeat with the same level (one line per occurrence of a text), not with another.
    """
    rows = read_jsonl(path)
    try:
        lineno, header = next(rows)
    except StopIteration:
        raise ParseError(path, 1, "empty prediction file") from None
    if "scheme" not in header:
        raise ParseError(path, lineno, 'missing {"scheme": ...} header line')
    try:
        declared = Scheme(header["scheme"])
    except ValueError as exc:
        raise ParseError(path, lineno, f"unknown scheme {header['scheme']!r}") from exc
    if declared is not scheme:
        raise ParseError(path, lineno, f"declares scheme {declared.value}, expected {scheme.value}")
    predictions: dict[str, ComplexityLevel] = {}
    for lineno, obj in rows:
        sha = obj.get("text_sha256")
        key = obj.get("id") if sha is None else sha
        if key is None or "level" not in obj:
            raise ParseError(path, lineno, 'need "id" or "text_sha256" plus "level"')
        try:
            key, level = _id(key), ComplexityLevel.parse(scheme, obj["level"])
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        if sha is not None and not re.fullmatch("[0-9a-f]{64}", key):  # what text_sha256 writes
            raise ParseError(path, lineno, f'"text_sha256" must be 64 lowercase hex digits, got {sha!r}')
        _put(predictions, key, level, path, lineno, "level")
    return predictions


def read_ratings_tsv(path: str | Path) -> Iterator[tuple[int, str, str, str, float]]:
    """Yield (lineno, item_id, rater_id, group, value) rows; values are finite.

    The first non-empty row is skipped when it is a header, its first column "item" or "item_id".
    """
    rows = ((lineno, line.split("\t")) for lineno, line in read_lines(path) if line)
    for k, (lineno, cols) in enumerate(rows):
        if len(cols) != 4:
            raise ParseError(path, lineno, "expected item_id, rater_id, group, value")
        if k == 0 and cols[0].lower() in ("item", "item_id"):
            continue
        try:
            value = float(cols[3])
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(path, lineno, f"bad rating value {cols[3]!r}")
        yield lineno, cols[0], cols[1], cols[2], value


def pair_to_record(pair: ParaphrasePair, task: Optional[str] = None) -> dict:
    record = {
        "id": pair.id_text(),
        "source": pair.source,
        "target": pair.target,
    }
    if pair.similarity is not None:  # so that ``filter`` keeps it when it reads the file again
        record["similarity"] = pair.similarity
    if pair.source_level is not None:
        record["source_level"] = pair.source_level.label
    if pair.target_level is not None:
        record["target_level"] = pair.target_level.label
    if task is not None:
        record["task"] = task
    return record


def file_sha256(path: str | Path) -> str:
    digest = hash_functions()[0]()
    # 64 KiB, not 1 MiB: each 1 MiB chunk is an mmap of its own, and two are alive at once.
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
