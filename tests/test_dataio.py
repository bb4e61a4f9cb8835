import ast
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import levelforge
from levelforge.corpus import ParaphrasePair
from levelforge.dataio import (
    ParseError,
    file_sha256,
    pair_to_record,
    read_jsonl,
    read_keyed,
    read_lines,
    read_pairs,
    read_predictions,
    read_ratings_tsv,
    record_line,
    write_jsonl,
)
from levelforge.readability import ComplexityLevel, Scheme

# A TSV field: any text without a tab, a line break or a lone surrogate, which
# no UTF-8 file can hold (TestReadLines covers a file that is not UTF-8).
TSV_FIELD = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), max_size=12)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = [{"b": 2, "a": 1}, {"x": "y"}]
        path = tmp_path / "data.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            assert write_jsonl(records, fh) == 2
        read_back = [obj for _, obj in read_jsonl(path)]
        assert read_back == records

    def test_sorted_keys_compact(self):
        buf = io.StringIO()
        write_jsonl([{"b": 2, "a": 1}], buf)
        assert buf.getvalue() == '{"a": 1, "b": 2}\n' == record_line({"b": 2, "a": 1}) + "\n"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2}\n')
        assert [lineno for lineno, _ in read_jsonl(path)] == [1, 3]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\nnot json\n')
        with pytest.raises(ParseError) as exc:
            list(read_jsonl(path))
        assert exc.value.lineno == 2

    @pytest.mark.parametrize("line, shown", [("[1, 2]", "list"), ("5", "int"), ('"a"', "str"),
                                             ("null", "NoneType")])
    def test_non_object_line_reports_line(self, tmp_path, line, shown):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n' + line + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_jsonl(path))
        assert str(exc.value) == f"{path}:2: expected a JSON object, got {shown}"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_reports_line(self, tmp_path, constant):
        # Python's json reads these, but no JSON writer may write them back.
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n{"a": ' + constant + "}\n")
        with pytest.raises(ParseError) as exc:
            list(read_jsonl(path))
        assert str(exc.value) == f"{path}:2: invalid JSON: {constant} is not a JSON number"

    @pytest.mark.parametrize("number", ["1e400", "-1e400", "1.8e308", "1E+309"])
    def test_number_past_the_float_range_reports_line(self, tmp_path, number):
        # Python's float reads these as infinity, which write_jsonl would write back as Infinity.
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": 1}\n{"a": [' + number + "]}\n")
        with pytest.raises(ParseError) as exc:
            list(read_jsonl(path))
        assert str(exc.value) == f"{path}:2: invalid JSON: {number} is out of the float range"

    def test_floats_at_the_range_edges_read_back(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"a": [1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -0.0, 1e-400, 1e2]}\n')
        [(_, obj)] = read_jsonl(path)
        assert record_line(obj) == '{"a": [1.7976931348623157e+308, -1.7976931348623157e+308, 5e-324, -0.0, 0.0, 100.0]}'

    @pytest.mark.parametrize("escaped", [r"\ud800", r"\uDC00 b", r"\ude00\ud83d", r'{"\ud83d": 1}',
                                         r'{"b": "\ud800", "b": "x"}'])
    def test_half_surrogate_pair_reports_line(self, tmp_path, escaped):
        # json reads these into a str that no UTF-8 writer can write back; the line is refused
        # even where a later duplicate key drops the string.
        path = tmp_path / "data.jsonl"
        value = escaped if escaped.startswith("{") else f'"{escaped}"'
        path.write_text('{"a": "\\ud83d\\ude00"}\n{"a": [' + value + "]}\n")
        with pytest.raises(ParseError) as exc:
            list(read_jsonl(path))
        assert str(exc.value) == f"{path}:2: a \\u escape is half a surrogate pair"

    def test_escaped_backslash_is_no_surrogate(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(r'{"a\"\\ud800": "\\\ud83d\ude00\\udc00"}' + "\n")
        assert list(read_jsonl(path)) == [(1, {'a"\\ud800': "\\\U0001f600\\udc00"})]


class TestReadPairs:
    def test_jsonl(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(
            json.dumps({"id": "p1", "source": "a b c", "target": "d e f", "similarity": 0.7})
            + "\n"
        )
        pairs = list(read_pairs(path))
        assert pairs[0].id == "p1"
        assert pairs[0].similarity == 0.7

    def test_tsv_with_line_number_ids(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a b c\td e f\t0.65\ng h i\tj k l\n")
        pairs = list(read_pairs(path))
        assert [p.id for p in pairs] == ["1", "2"]
        assert pairs[0].similarity == 0.65
        assert pairs[1].similarity is None

    def test_missing_field_reports_line(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"id": "p1", "source": "a b c"}) + "\n")
        with pytest.raises(ParseError):
            list(read_pairs(path))

    def test_id_neither_string_nor_integer_rejected(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        path.write_text(json.dumps({"id": None, "source": "a b c", "target": "d e f"}) + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_pairs(path))
        assert str(exc.value) == f"{path}:1: bad pair record: an id must be a string or an integer, got NoneType"

    def test_tsv_single_column_rejected(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("only one column\n")
        with pytest.raises(ParseError):
            list(read_pairs(path))

    # Sides may be empty and similarities out of [0, 1]: the two files then fail alike.
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(TSV_FIELD, TSV_FIELD, st.none() | st.floats(-0.5, 1.5)),
                    min_size=1, max_size=4))
    def test_tsv_reads_as_the_jsonl_of_its_rows(self, rows):
        def read(path):
            try:
                return list(read_pairs(path))
            except ParseError as exc:
                return str(exc)[len(str(path)):]

        with tempfile.TemporaryDirectory() as tmp:
            tsv, jsonl = Path(tmp, "pairs.tsv"), Path(tmp, "pairs.jsonl")
            with open(tsv, "w", encoding="utf-8") as fh:
                for source, target, similarity in rows:
                    cols = [source, target] + ([] if similarity is None else [repr(similarity)])
                    fh.write("\t".join(cols) + "\n")
            with open(jsonl, "w", encoding="utf-8") as fh:
                write_jsonl(({"id": i, "source": source, "target": target, "similarity": similarity}
                             for i, (source, target, similarity) in enumerate(rows, start=1)), fh)
            assert read(tsv) == read(jsonl)


SHA = "0123456789abcdef" * 4  # a key as text_sha256 writes one: 64 lowercase hex digits


class TestReadPredictions:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"scheme": "cefr6"}\n'
            '{"id": "s1", "level": "B2"}\n'
            f'{{"text_sha256": "{SHA}", "level": "A1"}}\n'
        )
        preds = read_predictions(path, Scheme.CEFR6)
        assert preds["s1"] == ComplexityLevel.parse(Scheme.CEFR6, "B2")
        assert preds[SHA].label == "A1"

    def test_missing_header(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"id": "s1", "level": "B2"}\n')
        with pytest.raises(ParseError):
            read_predictions(path, Scheme.CEFR6)

    def test_unknown_scheme(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"scheme": "grade"}\n')
        with pytest.raises(ParseError):
            read_predictions(path, Scheme.CEFR6)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("")
        with pytest.raises(ParseError):
            read_predictions(path, Scheme.CEFR6)

    def test_repeated_key_must_keep_its_level(self, tmp_path):
        # One line per occurrence of a text is fine; two levels for one text is not.
        path = tmp_path / "preds.jsonl"
        path.write_text(f'{{"scheme": "cefr6"}}\n{{"text_sha256": "{SHA}", "level": "B2"}}\n'
                        f'{{"text_sha256": "{SHA}", "level": "b2"}}\n')
        assert read_predictions(path, Scheme.CEFR6) == {SHA: ComplexityLevel.parse(Scheme.CEFR6, "B2")}
        with open(path, "a") as fh:
            fh.write(f'{{"text_sha256": "{SHA}", "level": "C1"}}\n')
        with pytest.raises(ParseError) as exc:
            read_predictions(path, Scheme.CEFR6)
        assert str(exc.value) == f"{path}:4: '{SHA}' repeats with another level"

    @pytest.mark.parametrize("key, kind", [("[1]", "list"), ("[]", "list"), ("{}", "dict"), ("false", "bool")],
                             ids=["list", "empty-list", "empty-object", "false"])
    def test_chosen_key_must_be_string_or_integer(self, tmp_path, key, kind):
        # A text_sha256 that is not null is chosen over a valid id, even when
        # it is falsy, and only the chosen key is checked.
        path = tmp_path / "preds.jsonl"
        path.write_text('{"scheme": "cefr6"}\n{"id": 7, "level": "B2"}\n'
                        f'{{"text_sha256": {key}, "id": "s1", "level": "B2"}}\n')
        with pytest.raises(ParseError) as exc:
            read_predictions(path, Scheme.CEFR6)
        assert str(exc.value) == f"{path}:3: an id must be a string or an integer, got {kind}"

    def test_null_key_falls_back_to_id_and_zero_is_a_key(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"scheme": "cefr6"}\n{"text_sha256": null, "id": "s1", "level": "B2"}\n'
                        '{"text_sha256": 0, "id": "s2", "level": "C1"}\n')
        # 0 is chosen over the id "s2" as the key, and, not being a text_sha256, fails at its line.
        with pytest.raises(ParseError) as exc:
            read_predictions(path, Scheme.CEFR6)
        assert str(exc.value) == f'{path}:3: "text_sha256" must be 64 lowercase hex digits, got 0'
        path.write_text('{"scheme": "cefr6"}\n{"text_sha256": null, "id": "s1", "level": "B2"}\n')
        assert read_predictions(path, Scheme.CEFR6) == {"s1": ComplexityLevel.parse(Scheme.CEFR6, "B2")}

    def test_other_scheme_fails_at_the_header(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('\n{"scheme": "cefr3"}\n{"id": "s1", "level": "A"}\n')
        with pytest.raises(ParseError) as exc:
            read_predictions(path, Scheme.CEFR6)
        assert str(exc.value) == f"{path}:2: declares scheme cefr3, expected cefr6"


class TestReadRatingsTsv:
    def test_rows_and_header_skip(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text(
            "item_id\trater_id\tgroup\tvalue\n"
            "s1\tr1\tfluency\t4\n"
            "s1\tr2\tfluency\t5\n"
        )
        rows = list(read_ratings_tsv(path))
        assert rows == [(2, "s1", "r1", "fluency", 4.0), (3, "s1", "r2", "fluency", 5.0)]

    def test_header_after_blank_lines_is_skipped(self, tmp_path):
        # The header is the first non-empty row, wherever it sits; a later one is a bad value.
        path = tmp_path / "ratings.tsv"
        path.write_text("\n\nitem_id\trater_id\tgroup\tvalue\ns1\tr1\tfluency\t4\n")
        assert list(read_ratings_tsv(path)) == [(4, "s1", "r1", "fluency", 4.0)]
        path.write_text("s1\tr1\tfluency\t4\nitem_id\trater_id\tgroup\tvalue\n")
        with pytest.raises(ParseError) as exc:
            list(read_ratings_tsv(path))
        assert str(exc.value) == f"{path}:2: bad rating value 'value'"

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("s1\tr1\t4\n")
        with pytest.raises(ParseError):
            list(read_ratings_tsv(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("s1\tr1\tfluency\thigh\n")
        with pytest.raises(ParseError):
            list(read_ratings_tsv(path))


class TestPairToRecord:
    def test_levels_and_task_serialized(self):
        pair = ParaphrasePair(
            id="p1",
            source="a b c",
            target="d e f",
            source_level=ComplexityLevel.parse(Scheme.CEFR6, "B2"),
            target_level=ComplexityLevel.parse(Scheme.CEFR6, "A2"),
        )
        record = pair_to_record(pair, task="down")
        assert record == {
            "id": "p1",
            "source": "a b c",
            "target": "d e f",
            "source_level": "B2",
            "target_level": "A2",
            "task": "down",
        }

    def test_optional_fields_omitted(self):
        pair = ParaphrasePair(id="p1", source="a b c", target="d e f")
        assert set(pair_to_record(pair)) == {"id", "source", "target"}


class TestFileSha256:
    def test_matches_hashlib(self, tmp_path):
        import hashlib

        path = tmp_path / "blob"
        path.write_bytes(b"levelforge test blob")
        assert file_sha256(path) == hashlib.sha256(b"levelforge test blob").hexdigest()

    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537])
    def test_matches_hashlib_at_the_chunk_edges(self, tmp_path, size):
        import hashlib

        data = bytes(range(251)) * (size // 251 + 1)
        (tmp_path / "blob").write_bytes(data[:size])
        assert file_sha256(tmp_path / "blob") == hashlib.sha256(data[:size]).hexdigest()

    def test_reads_in_small_chunks(self, tmp_path):
        # The manifest hashes the whole input; the hash must not lift the pipeline's peak memory.
        import hashlib
        import tracemalloc

        data = bytes(range(256)) * (4 << 12)  # 4 MiB
        path = tmp_path / "blob"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = file_sha256(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 << 10
        assert digest == hashlib.sha256(data).hexdigest()


class TestReadLines:
    def test_lines_without_newlines(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes(b"a\r\nb\n\nc")
        assert list(read_lines(path)) == [(1, "a"), (2, "b"), (3, ""), (4, "c")]

    def test_non_utf8_line_located(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_bytes("café\n".encode() + b"caf\xe9\n")
        rows = read_lines(path)
        assert next(rows) == (1, "café")
        with pytest.raises(ParseError) as exc:
            next(rows)
        assert str(exc.value) == f"{path}:2: not valid UTF-8"


class TestReadKeyed:
    def test_values_by_id(self, tmp_path):
        path = tmp_path / "keyed.jsonl"
        path.write_text('{"id": 1, "level": "A1"}\n\n{"id": "s2", "level": "B2"}\n')
        assert read_keyed(path, "level", str.lower) == {"1": "a1", "s2": "b2"}

    @pytest.mark.parametrize("line, message", [
        ('{"id": "s2"}', 'need "id" and "level"'),
        ('{"id": "s2", "level": "x"}', "bad x"),
        # An id is a string or an integer: no other JSON value reads as one.
        ('{"id": null, "level": "B1"}', "an id must be a string or an integer, got NoneType"),
        ('{"id": [1], "level": "B1"}', "an id must be a string or an integer, got list"),
        ('{"id": {"a": 1}, "level": "B1"}', "an id must be a string or an integer, got dict"),
        ('{"id": true, "level": "B1"}', "an id must be a string or an integer, got bool"),
        ('{"id": 2.0, "level": "B1"}', "an id must be a string or an integer, got float"),
    ])
    def test_bad_line_located(self, tmp_path, line, message):
        def convert(value):
            if value == "x":
                raise ValueError("bad x")
            return value

        path = tmp_path / "keyed.jsonl"
        path.write_text('{"id": "s1", "level": "A1"}\n' + line + "\n")
        with pytest.raises(ParseError) as exc:
            read_keyed(path, "level", convert)
        assert str(exc.value) == f"{path}:2: {message}"

    def test_repeated_id_must_keep_its_value(self, tmp_path):
        path = tmp_path / "keyed.jsonl"
        path.write_text('{"id": "x", "level": "A1"}\n{"id": "x", "level": "a1"}\n')
        assert read_keyed(path, "level", str.upper) == {"x": "A1"}
        with open(path, "a") as fh:
            fh.write('{"id": "x", "level": "C2"}\n')
        with pytest.raises(ParseError) as exc:
            read_keyed(path, "level", str.upper)
        assert str(exc.value) == f"{path}:3: 'x' repeats with another level"


class TestRareLines:
    def test_tsv_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a b c\td e f\n\ng h i\tj k l\n")
        assert [p.id for p in read_pairs(path)] == ["1", "3"]

    @pytest.mark.parametrize("line, message", [
        ("a b c\td e f\thigh", "bad similarity: 'high'"),
        ("\td e f", "bad pair record: pair 1: source and target must be non-empty"),
    ])
    def test_bad_tsv_pair(self, tmp_path, line, message):
        path = tmp_path / "pairs.tsv"
        path.write_text(line + "\n")
        with pytest.raises(ParseError) as exc:
            list(read_pairs(path))
        assert str(exc.value) == f"{path}:1: {message}"

    def test_prediction_without_level(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"scheme": "cefr6"}\n{"id": "s1"}\n')
        with pytest.raises(ParseError) as exc:
            read_predictions(path, Scheme.CEFR6)
        assert str(exc.value) == f'{path}:2: need "id" or "text_sha256" plus "level"'

    def test_ratings_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "ratings.tsv"
        path.write_text("s1\tr1\tg\t4\n\ns1\tr2\tg\t5\n")
        assert list(read_ratings_tsv(path)) == [(1, "s1", "r1", "g", 4.0), (3, "s1", "r2", "g", 5.0)]


class TestOneInputDoor:
    # A read-mode open() outside these bypasses read_lines, and with it the
    # path:line rule for bad lines. A write-mode open() outside _output
    # bypasses its replace-only-on-success rule; main's opens are the
    # stand-ins for a standard stream the process started without, which
    # land no output. A print to stdout bypasses
    # _output, which lands stdout after the command's files, and only if it
    # succeeds. A print to stderr outside main is a summary or an error that
    # main does not see, so its exit code cannot follow a failed write.
    DOORS = {("dataio", "read_lines"), ("dataio", "file_sha256"),
             ("cli", "PipelineConfig.from_file")}
    WRITE_DOORS = {("cli", "_output"), ("cli", "main")}
    PRINT_DOORS = set()
    STDERR_DOORS = {("cli", "main")}
    STREAM_DOORS = {("cli", "_output"), ("cli", "_std_stream"), ("cli", "main")}

    @classmethod
    def _nodes(cls, node, wanted, scope=""):
        """(dotted def/class scope, node) of each node under ``node`` that ``wanted`` accepts."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from cls._nodes(child, wanted, f"{scope}.{child.name}".lstrip("."))
                continue
            if wanted(child):
                yield scope, child
            yield from cls._nodes(child, wanted, scope)

    @classmethod
    def _package_nodes(cls, wanted):
        """(module, scope, node) of each node in the levelforge package that ``wanted`` accepts."""
        package = Path(levelforge.__file__).parent
        for path in sorted(package.glob("*.py")):
            for scope, node in cls._nodes(ast.parse(path.read_text(encoding="utf-8")), wanted):
                yield path.stem, scope, node

    @classmethod
    def _package_calls(cls, name):
        """(module, scope, call) of each ``name(...)`` call in the levelforge package."""
        return cls._package_nodes(lambda node: isinstance(node, ast.Call)
                                  and isinstance(node.func, ast.Name) and node.func.id == name)

    def test_read_opens_only_at_the_doors(self):
        found = set()
        for mod, scope, call in self._package_calls("open"):
            mode = call.args[1] if len(call.args) > 1 else next(
                (kw.value for kw in call.keywords if kw.arg == "mode"), None)
            found.add((mod, scope, isinstance(mode, ast.Constant) and bool(set(mode.value) & set("wax+"))))
        assert {(mod, scope) for mod, scope, write in found if not write} == self.DOORS
        assert {(mod, scope) for mod, scope, write in found if write} == self.WRITE_DOORS

    def test_stdout_prints_only_at_the_door(self):
        to_stdout = {
            (mod, scope) for mod, scope, call in self._package_calls("print")
            if not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                       for kw in call.keywords)
        }
        assert to_stdout == self.PRINT_DOORS

    def test_stderr_prints_only_at_the_doors(self):
        to_stderr = {
            (mod, scope) for mod, scope, call in self._package_calls("print")
            if any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                   for kw in call.keywords)
        }
        assert to_stderr == self.STDERR_DOORS

    def test_standard_streams_are_named_only_at_the_doors(self):
        named = {
            (mod, scope) for mod, scope, node in self._package_nodes(
                lambda node: isinstance(node, ast.Attribute) and ast.unparse(node) in ("sys.stdout", "sys.stderr"))
        }
        assert named == self.STREAM_DOORS
