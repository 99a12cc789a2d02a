"""Schema validation, table parsing, and splitting."""

import functools
import json
import math
import pickle
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from diffnb import dataset
from diffnb.dataset import (
    AttributeSpec,
    DataFiles,
    Dataset,
    ParseError,
    ParseOptions,
    Schema,
    SchemaError,
    json_data_files,
    load_schema,
    parse_table,
    split_dataset,
    split_fields,
)

from conftest import rows_of, xor_schema


def two_class(*attrs):
    return Schema(tuple(attrs), ("c0", "c1"))


# each parse path under test and how to select it: the compiled block parse
# where the library loaded, and the Python encoder
PARSERS = {"compiled": nullcontext} if dataset._PARSE_BLOCK is not None else {}
PARSERS["python"] = functools.partial(mock.patch.object, dataset, "_PARSE_BLOCK", None)


def parse_on_every_path(path, schema, options=ParseOptions()):
    """``parse_table``'s dataset, after asserting every path in PARSERS gives the same one or the same error.

    The paths must agree on the values' bits, the labels and the drop
    count, or on the error's type and message, which is then raised.
    """
    outcomes = {}
    for name, select in PARSERS.items():
        with select():
            try:
                data = parse_table(path, schema, options)
            except ValueError as err:
                error = err
                outcomes[name] = type(err), str(err)
            else:
                error = None
                outcomes[name] = data.value_matrix().view(np.int64).tobytes(), data.labels().tobytes(), data.n_dropped
    assert len(set(outcomes.values())) == 1, outcomes
    if error is not None:
        raise error
    return data


class TestAttributeSpec:
    def test_kinds_validated(self):
        with pytest.raises(SchemaError, match="unknown kind"):
            AttributeSpec("x", "ordinal")

    def test_continuous_declares_no_values(self):
        with pytest.raises(SchemaError, match="declare no values"):
            AttributeSpec("x", "continuous", ("a", "b"))

    def test_binary_needs_exactly_two(self):
        with pytest.raises(SchemaError, match="exactly 2"):
            AttributeSpec("x", "binary", ("0", "1", "2"))
        with pytest.raises(SchemaError, match="exactly 2"):
            AttributeSpec("x", "binary", None)

    def test_categorical_needs_two_plus(self):
        with pytest.raises(SchemaError, match=">= 2"):
            AttributeSpec("x", "categorical", ("only",))

    def test_duplicate_values_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            AttributeSpec("x", "categorical", ("a", "a"))

    def test_discrete_flag(self):
        assert AttributeSpec("x", "binary", ("0", "1")).is_discrete
        assert not AttributeSpec("x", "continuous").is_discrete


class TestSchema:
    def test_needs_attributes_and_two_classes(self):
        with pytest.raises(SchemaError, match="at least one attribute"):
            Schema((), ("c0", "c1"))
        with pytest.raises(SchemaError, match="at least two classes"):
            Schema((AttributeSpec("x", "continuous"),), ("only",))

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate attribute"):
            two_class(AttributeSpec("x", "continuous"), AttributeSpec("x", "continuous"))
        with pytest.raises(SchemaError, match="duplicate class"):
            Schema((AttributeSpec("x", "continuous"),), ("c", "c"))

    def test_tokens_default_to_labels(self):
        schema = two_class(AttributeSpec("x", "continuous"))
        assert schema.class_tokens == ("c0", "c1")
        explicit = Schema(schema.attributes, schema.classes, ("c0", "c1"))
        assert schema == explicit

    def test_token_length_and_uniqueness(self):
        attrs = (AttributeSpec("x", "continuous"),)
        with pytest.raises(SchemaError, match="length"):
            Schema(attrs, ("c0", "c1"), ("t",))
        with pytest.raises(SchemaError, match="duplicate class tokens"):
            Schema(attrs, ("c0", "c1"), ("t", "t"))

    def test_class_index_accepts_token_or_label(self):
        schema = Schema(
            (AttributeSpec("x", "continuous"),), ("benign", "malignant"), ("2", "4")
        )
        assert schema.class_index("2") == 0
        assert schema.class_index("malignant") == 1
        with pytest.raises(SchemaError, match="unknown class"):
            schema.class_index("3")

    def test_encode_value(self):
        schema = two_class(
            AttributeSpec("size", "continuous"),
            AttributeSpec("color", "categorical", ("r", "g", "b")),
        )
        assert schema.encode_value(0, "2.5") == 2.5
        assert schema.encode_value(1, "g") == 1.0
        with pytest.raises(ParseError, match="not a number"):
            schema.encode_value(0, "abc")
        with pytest.raises(SchemaError, match="unknown value"):
            schema.encode_value(1, "purple")

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_values_rejected(self, token):
        schema = two_class(AttributeSpec("x", "continuous"))
        with pytest.raises(ParseError, match=f"attribute 'x': not a finite number: '{token}'"):
            schema.encode_value(0, token)


class TestDataset:
    def test_arity_checked(self):
        with pytest.raises(SchemaError, match="values"):
            Dataset.build(xor_schema(), [((1.0,), 0)])

    def test_label_range_checked(self):
        with pytest.raises(SchemaError, match="out of range"):
            Dataset.build(xor_schema(), [((0.0, 0.0), 2)])

    def test_matrix_and_labels(self):
        data = Dataset.build(xor_schema(), [((0.0, 1.0), 0), ((2.0, 3.0), 1)])
        matrix = data.value_matrix()
        assert matrix.shape == (2, 2) and matrix.dtype == np.float64
        assert matrix.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert data.labels().tolist() == [0, 1]
        assert len(data) == 2

    def test_matrix_and_labels_are_built_once_and_read_only(self):
        data = Dataset.build(xor_schema(), [((0.0, 1.0), 0), ((2.0, 3.0), 1)])
        for get in (data.value_matrix, data.labels):
            first = get()
            assert get() is first
            assert not first.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                first[0] = 5
        assert data.value_matrix().tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert data.labels().tolist() == [0, 1]

    def test_pickled_dataset_keeps_read_only_arrays(self):
        # a copy that crossed a process boundary is as frozen as the original
        data = Dataset(xor_schema(), np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1]), n_dropped=3)
        copy = pickle.loads(pickle.dumps(data))
        assert copy.schema == data.schema and copy.n_dropped == 3
        assert copy.value_matrix().tobytes() == data.value_matrix().tobytes()
        assert copy.labels().tobytes() == data.labels().tobytes()
        for array in (copy.value_matrix(), copy.labels()):
            assert not array.flags.writeable

    def test_arrays_are_taken_as_given_and_frozen(self):
        values = np.array([[0.0, 1.0]])
        labels = np.array([1])
        data = Dataset(xor_schema(), values, labels)
        assert data.value_matrix() is values and not values.flags.writeable
        assert data.labels() is labels and not labels.flags.writeable

    def test_equality_is_identity(self):
        rows = [((0.0, 1.0), 0)]
        data = Dataset.build(xor_schema(), rows)
        assert data == data and hash(data) == hash(data)
        assert data != Dataset.build(xor_schema(), rows)

    def test_empty_dataset(self):
        data = Dataset.build(xor_schema(), [])
        assert len(data) == 0 and data.value_matrix().shape == (0, 2) and data.labels().shape == (0,)


class TestLoadSchema:
    def test_plain_and_tokened_classes(self, tmp_path):
        doc = {
            "classes": ["negative", {"label": "positive", "token": "1"}],
            "attributes": [
                {"name": "size", "kind": "continuous"},
                {"name": "flag", "kind": "binary", "values": ["0", "1"]},
            ],
        }
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(doc))
        schema = load_schema(path)
        assert schema.classes == ("negative", "positive")
        assert schema.class_tokens == ("negative", "1")
        assert schema.attributes[1].values == ("0", "1")


class TestParseTable:
    def write(self, tmp_path, text):
        path = tmp_path / "rows.data"
        path.write_text(text)
        return path

    def test_whitespace_default_and_blank_lines(self, tmp_path):
        path = self.write(tmp_path, "0 1 c1\n\n1 0 c1\n")
        data = parse_on_every_path(path, xor_schema())
        assert len(data) == 2
        assert rows_of(data)[0] == ((0.0, 1.0), 1)

    def test_label_col_and_ignored_cols(self, tmp_path):
        path = self.write(tmp_path, "c0,999,0.5,1.5\n")
        options = ParseOptions(delimiter=",", label_col=0, ignore_cols=(1,))
        data = parse_on_every_path(path, xor_schema(), options)
        assert rows_of(data) == [((0.5, 1.5), 0)]

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = self.write(tmp_path, "1 1 c0\n? 1 c0\n1 ? c1\n0 0 c1\n")
        data = parse_on_every_path(path, xor_schema())
        assert len(data) == 2
        assert data.n_dropped == 2

    def test_wrong_field_count_names_line(self, tmp_path):
        path = self.write(tmp_path, "1 1 c0\n1 c0\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_on_every_path(path, xor_schema())

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        path = self.write(tmp_path, f"1 1 c0\n0 {token} c1\n")
        with pytest.raises(ParseError, match="line 2: attribute 'b': not a finite number"):
            parse_on_every_path(path, xor_schema())

    def test_unknown_class_names_line(self, tmp_path):
        path = self.write(tmp_path, "1 1 c9\n")
        with pytest.raises(SchemaError, match="line 1"):
            parse_on_every_path(path, xor_schema())

    def test_label_col_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "1 1 c0\n")
        with pytest.raises(ParseError, match="label column"):
            parse_on_every_path(path, xor_schema(), ParseOptions(label_col=7))

    def test_empty_input_rejected(self, tmp_path):
        path = self.write(tmp_path, "\n\n")
        with pytest.raises(ParseError, match="no examples"):
            parse_on_every_path(path, xor_schema())

    @pytest.mark.parametrize(
        "second, filler_rows, error, message",
        [
            ("1.0 abc c1", 3000, ParseError, "line 2: attribute 'b': not a number: 'abc'"),
            ("1.0 1 c1", 3000, UnicodeDecodeError, "'utf-8' codec can't decode byte 0xff"),
            ("1.0 abc c1", 1, ParseError, "line 2: attribute 'b': not a number: 'abc'"),
        ],
        ids=["bad-line-first", "bad-byte-only", "same-chunk"],
    )
    def test_bad_line_ahead_of_a_bad_byte_raises_first(self, tmp_path, second, filler_rows, error, message):
        # a line by line parse meets the bad line first. With 3000 filler
        # rows the byte sits past offset 20000, a block after line 2; with
        # one it is on line 4 of a 4-line file, in the first 8 KiB, which
        # text-mode reading decodes as one chunk
        filler = "".join(f"{i % 2} {i % 3} c{i % 2}\n" for i in range(filler_rows))
        path = tmp_path / "rows.data"
        path.write_bytes(f"0 0 c0\n{second}\n{filler}".encode() + b"0 \xff c1\n" + filler.encode())
        assert (path.read_bytes().index(b"\xff") > 20000) == (filler_rows == 3000)
        with pytest.raises(error, match=message):
            parse_on_every_path(path, xor_schema())

    def test_parse_is_deterministic(self, tmp_path):
        path = self.write(tmp_path, "0 1 c1\n1 0 c1\n0 0 c0\n")
        first, second = parse_on_every_path(path, xor_schema()), parse_on_every_path(path, xor_schema())
        assert first.value_matrix().tobytes() == second.value_matrix().tobytes()
        assert first.labels().tobytes() == second.labels().tobytes()
        assert first.n_dropped == second.n_dropped


def reference_parse_table(path, schema, options=ParseOptions()):
    """The per-line parse that ``parse_table`` replaced: ((values, label) rows, n_dropped).

    Kept as the reference the column-wise parse must match value for
    value, and error for error.
    """
    m = schema.n_attributes
    examples = []
    n_dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = split_fields(line, options.delimiter)
            n_fields = len(fields)
            label_idx = options.label_col if options.label_col >= 0 else n_fields + options.label_col
            ignored = {c if c >= 0 else n_fields + c for c in options.ignore_cols}
            if not 0 <= label_idx < n_fields:
                raise ParseError(
                    f"line {line_no}: label column {options.label_col} out of range for {n_fields} fields"
                )
            if label_idx in ignored:
                raise ParseError(f"line {line_no}: label column {options.label_col} is also ignored")
            value_fields = [f for i, f in enumerate(fields) if i != label_idx and i not in ignored]
            if len(value_fields) != m:
                raise ParseError(
                    f"line {line_no}: expected {m} value fields + 1 label, got {len(value_fields)} values"
                )
            if options.missing_token in value_fields or fields[label_idx] == options.missing_token:
                n_dropped += 1
                continue
            try:
                label = schema.class_index(fields[label_idx])
                values = tuple(schema.encode_value(i, tok) for i, tok in enumerate(value_fields))
            except (ParseError, SchemaError) as err:
                raise type(err)(f"line {line_no}: {err}") from None
            examples.append((values, label))
    if not examples:
        raise ParseError(f"{path}: no examples")
    return tuple(examples), n_dropped


def value_layout(n_fields, options, m):
    """(label field, value fields) of an ``n_fields``-field line, or None when such a line is refused."""
    label = options.label_col if options.label_col >= 0 else n_fields + options.label_col
    ignored = {c if c >= 0 else n_fields + c for c in options.ignore_cols}
    values = [i for i in range(n_fields) if i != label and i not in ignored]
    if not 0 <= label < n_fields or label in ignored or len(values) != m:
        return None
    return label, values


DISCRETE_TOKENS = ("a", "b", "c", "d", "e")
# labels and class tokens share a pool, so a token can spell another class's label
CLASS_WORDS = ("x", "y", "z", "1", "2")
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", "+1.5", ".5", "5.", "1E-3", "1_000", "0.1"]),
)
BAD_NUMBERS = ("abc", "1.2.3", "nan", "NaN", "inf", "-inf", "1e999", "0x10")


@st.composite
def table_files(draw):
    """(schema, options, rows, separator, newline): a file every line of which parses."""
    kinds = draw(st.lists(st.sampled_from(("continuous", "binary", "categorical")), min_size=1, max_size=4))
    attrs = []
    for j, kind in enumerate(kinds):
        if kind == "continuous":
            attrs.append(AttributeSpec(f"a{j}", kind))
        else:
            count = 2 if kind == "binary" else draw(st.integers(2, len(DISCRETE_TOKENS)))
            attrs.append(AttributeSpec(f"a{j}", kind, tuple(draw(st.permutations(DISCRETE_TOKENS))[:count])))
    k = draw(st.integers(2, 3))
    classes = tuple(draw(st.permutations(CLASS_WORDS))[:k])
    tokens = draw(st.none() | st.permutations(CLASS_WORDS).map(lambda p: tuple(p[:k])))
    schema = Schema(tuple(attrs), classes, tokens)
    m = len(attrs)
    options = ParseOptions(
        delimiter=draw(st.sampled_from([None, ",", ";", "\t"])),
        label_col=draw(st.sampled_from([0, 1, -1, -2])),
        ignore_cols=tuple(draw(st.lists(st.integers(-3, m + 3), max_size=3))),
    )
    counts = [n for n in range(m + 1, m + 5) if value_layout(n, options, m) is not None]
    assume(counts)
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 9)) == 0:
            rows.append(None)  # a blank line
            continue
        n_fields = draw(st.sampled_from(counts))
        label, values = value_layout(n_fields, options, m)
        fields = [draw(st.sampled_from(["ig", "?", "9.5", "zz"])) for _ in range(n_fields)]
        fields[label] = draw(st.sampled_from(schema.class_tokens + schema.classes))
        for i, attr in zip(values, attrs):
            fields[i] = draw(st.sampled_from(attr.values) if attr.is_discrete else NUMBERS)
        if draw(st.integers(0, 7)) == 0:
            fields[draw(st.sampled_from(values + [label]))] = "?"
        rows.append(fields)
    separator = draw(st.sampled_from([" ", "  ", "\t", " \t"]) if options.delimiter is None
                     else st.sampled_from(["", " ", "  "]))
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return schema, options, rows, separator, newline


def file_text(options, rows, separator, newline, blank="  "):
    """The text of ``rows``: padded fields, blank lines of ``blank``."""
    lines = []
    for fields in rows:
        if fields is None:
            lines.append(blank)
        elif options.delimiter is None:
            lines.append(separator + separator.join(fields) + separator)
        else:
            lines.append(options.delimiter.join(separator + f + separator for f in fields))
    return newline.join(lines) + newline


def parse_outcome(parse, path, schema, options):
    """What ``parse`` gives: ("ok", result) or ("error", type, message)."""
    try:
        return "ok", parse(path, schema, options)
    except (ParseError, SchemaError) as err:
        return "error", type(err), str(err)


class TestColumnWiseParseMatchesPerLine:
    """``parse_table`` against :func:`reference_parse_table`, block sizes small enough to split files."""

    def check(self, tmp_path, schema, options, text, block_chars):
        """The reference's outcome, after asserting that ``parse_table`` has the same one on every path."""
        path = tmp_path / "rows.data"
        path.write_bytes(text.encode("utf-8"))
        expected = parse_outcome(reference_parse_table, path, schema, options)
        for name, select in PARSERS.items():
            with select(), mock.patch.object(dataset, "_BLOCK_CHARS", block_chars):
                got = parse_outcome(parse_table, path, schema, options)
            if expected[0] == "ok" and got[0] == "ok":
                # equal rows hold equal floats; the bits also tell -0.0 from 0.0
                examples, n_dropped = expected[1]
                reference = np.array([values for values, _ in examples]).reshape(-1, schema.n_attributes)
                labels = np.array([label for _, label in examples], dtype=np.int64)
                data = got[1]
                assert data.value_matrix().view(np.int64).tobytes() == reference.view(np.int64).tobytes(), name
                assert data.labels().tobytes() == labels.tobytes(), name
                got = "ok", (tuple(rows_of(data)), data.n_dropped)
            assert got == expected, name
        return expected

    @given(table_files(), st.sampled_from([1, 40, 300, 1 << 16]))
    def test_clean_files(self, tmp_path, table, block_chars):
        schema, options, rows, separator, newline = table
        text = file_text(options, rows, separator, newline)
        outcome = self.check(tmp_path, schema, options, text, block_chars)
        assert outcome[0] == "ok" or outcome[2].endswith(": no examples")

    @given(table_files(), st.sampled_from([1, 40, 300, 1 << 16]), st.data())
    def test_corrupted_files(self, tmp_path, table, block_chars, data):
        schema, options, rows, separator, newline = table
        lines = [i for i, fields in enumerate(rows) if fields is not None]
        assume(lines)
        m = schema.n_attributes
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.sampled_from(lines))
            fields = list(rows[i])
            label, values = value_layout(len(fields), options, m) or (None, [])
            fault = data.draw(st.sampled_from(["value", "class", "extra", "short", "single"]))
            if fault == "value" and values:
                j = data.draw(st.integers(0, m - 1))
                fields[values[j]] = "q" if schema.attributes[j].is_discrete else data.draw(st.sampled_from(BAD_NUMBERS))
            elif fault == "class" and label is not None:
                fields[label] = "w"
            elif fault == "extra":
                fields.insert(data.draw(st.integers(0, len(fields))), "1")
            elif fault == "short":
                del fields[data.draw(st.integers(0, len(fields) - 1))]
            else:
                fields = ["1"]
            rows[i] = fields
        self.check(tmp_path, schema, options, file_text(options, rows, separator, newline), block_chars)

    @pytest.mark.parametrize("delimiter", [None, ","])
    def test_whole_blocks_of_rows(self, tmp_path, delimiter):
        # the default block size: the file spans several blocks, a missing
        # token and a padded field sit in the later ones
        schema = two_class(
            AttributeSpec("x", "continuous"), AttributeSpec("color", "categorical", ("r", "g", "b"))
        )
        sep = " " if delimiter is None else " , "
        rows = [sep.join([f"{i * 0.37:.5f}", "rgb"[i % 3], f"c{i % 2}"]) for i in range(12000)]
        rows[9000] = sep.join(["?", "r", "c0"])
        options = ParseOptions(delimiter=delimiter)
        text = "\n".join(rows) + "\n"
        assert len(text) > 2 * dataset._BLOCK_CHARS
        assert self.check(tmp_path, schema, options, text, dataset._BLOCK_CHARS)[1][1] == 1
        rows[10000] = sep.join(["1", "purple", "c0"])
        rows[10001] = "1"
        expected = self.check(tmp_path, schema, options, "\n".join(rows) + "\n", dataset._BLOCK_CHARS)
        assert expected[1:] == (SchemaError, "line 10001: attribute 'color': unknown value 'purple'")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("1 1 c0\n0 abc c1\n1 c0\n", ParseError, "line 2: attribute 'b': not a number: 'abc'"),
            ("1 1 c0\n1 c0\n0 abc c1\n", ParseError, "line 2: expected 2 value fields + 1 label, got 1 values"),
            ("1 1 c0\n1 1 c7\n1 1 1 1 c0\n", SchemaError, "line 2: unknown class label 'c7'"),
            ("1 1 c0\n1 inf c1\n", ParseError, "line 2: attribute 'b': not a finite number: 'inf'"),
            ("1 ? c0\n1 1 ?\n", ParseError, "rows.data: no examples"),
        ],
        ids=["bad-value-then-short-line", "short-line-then-bad-value", "unknown-class",
             "non-finite", "all-missing"],
    )
    def test_first_bad_line_of_a_block_raises(self, tmp_path, text, error, message):
        outcome = self.check(tmp_path, xor_schema(), ParseOptions(), text, 1 << 16)
        assert outcome[1] is error and outcome[2].endswith(message)


def refused(text, schema, options=ParseOptions()):
    """Whether the compiled block parse refuses ``text`` as one block."""
    value_codes, class_codes = dataset.token_codes(schema)
    layout = functools.partial(dataset._layout_fields, options=options, m=schema.n_attributes)
    return dataset.compiled_block(dataset._text_lines(text), options, value_codes, class_codes, layout) is None


# a number token, and whether the compiled parse takes it; float() gives
# the value or refuses it
EDGE_TOKENS = {
    "15-digits": ("123456789012345", False),
    "16-digits": ("1234567890123456", False),
    "17-digits": ("12345678901234567", False),
    "2**53+1": ("9007199254740993", False),
    # past the fast path's reach, where a second rounding would show
    "2**53+1-significand": ("90071992547409.93", False),
    "3e23": ("3e23", False),
    "1e-23": ("1e-23", False),
    "23-digits": ("0.12345678901234567890123", False),
    "1e22": ("1e22", False),
    "1e23": ("1e23", False),
    "least-subnormal": ("4.9e-324", False),
    "least-normal": ("2.2250738585072014e-308", False),
    "negative-zero": ("-0", False),
    "plus-point-five": ("+.5", False),
    "trailing-point": ("5.", False),
    "leading-zeros": ("00012", False),
    "underscore": ("1_0", True),
    "overflow": ("1e999", True),
    "nan": ("nan", True),
    "inf": ("inf", True),
}


# the number tokens the compiled parse converts; ASCII digits only, as it refuses other bytes
NUMBER_GRAMMAR = r"[+-]?([0-9]{1,25}(\.[0-9]{0,25})?|\.[0-9]{1,25})([eE][+-]?[0-9]{1,3})?"


@pytest.mark.skipif(dataset._PARSE_BLOCK is None, reason="the compiled library is not loaded")
class TestCompiledBlockParse:
    """The blocks the compiled parse takes, and those it leaves to the Python encoder."""

    @pytest.mark.parametrize("token, refuses", EDGE_TOKENS.values(), ids=EDGE_TOKENS.keys())
    def test_edge_tokens(self, tmp_path, token, refuses):
        text = f"1 1 c0\n{token} 2 c1\n"
        path = tmp_path / "rows.data"
        path.write_text(text)
        assert refused(text, xor_schema()) == refuses
        try:
            value = float(token)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            with pytest.raises(ParseError, match=f"line 2: attribute 'a': not a finite number: '{token}'"):
                parse_on_every_path(path, xor_schema())
            return
        data = parse_on_every_path(path, xor_schema())
        assert data.value_matrix()[1, 0].tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize(
        "text, options, message",
        [
            ("1,1,c0\n1,2\t5,c1\n", ParseOptions(delimiter=","), r"line 2: attribute 'b': not a number: '2\t5'"),
            ("1 1 c0\n1\x1c2 c1\n", ParseOptions(), None),
            ("1 1 c0\n1 2\u00a0c1\n", ParseOptions(), None),
            ("1 1 c0\nx 1 2 c1\n", ParseOptions(ignore_cols=(-4,)), None),
            ("1 1 c0\n1 2 c1 3\n", ParseOptions(), "line 2: expected 2 value fields + 1 label, got 3 values"),
            ("1  1  c0\n1  2  c1\n", ParseOptions(delimiter="  "), None),
            ("1\u00a01\u00a0c0\n1\u00a02\u00a0c1\n", ParseOptions(delimiter="\u00a0"), None),
        ],
        ids=["tab-in-a-comma-field", "separator-0x1c", "non-ascii", "two-field-counts", "a-second-field-count",
             "two-character-delimiter", "non-ascii-delimiter"],
    )
    def test_refused_blocks(self, tmp_path, text, options, message):
        """The Python encoder takes each of these, and names the first fault as it did."""
        path = tmp_path / "rows.data"
        path.write_text(text)
        assert refused(text, xor_schema(), options)
        if message is None:
            parse_on_every_path(path, xor_schema(), options)
        else:
            with pytest.raises(ParseError) as err:
                parse_on_every_path(path, xor_schema(), options)
            assert str(err.value) == message

    @pytest.mark.parametrize("delimiter", [None, ",", " ", "\t"])
    def test_taken_blocks(self, tmp_path, delimiter):
        # padded fields, blank lines, an ignored column holding anything,
        # a dropped row with a bad token and a categorical attribute
        schema = two_class(AttributeSpec("x", "continuous"), AttributeSpec("c", "categorical", ("r", "g")))
        options = ParseOptions(delimiter=delimiter, label_col=0, ignore_cols=(2,))
        sep = " " if delimiter is None else f" {delimiter} " if delimiter == "," else delimiter
        empty = "" if delimiter else "-"
        rows = [["c1", "1.5", "any", "r"], ["c0", "-2", "?", "g"], ["c0", "abc", "z", "?"], ["?", "3", empty, "r"]]
        text = "\n\n".join(sep.join(fields) for fields in rows) + "\n"
        path = tmp_path / "rows.data"
        path.write_text(text)
        assert not refused(text, schema, options)
        data = parse_on_every_path(path, schema, options)
        assert rows_of(data) == [((1.5, 0.0), 1), ((-2.0, 1.0), 0)] and data.n_dropped == 2

    @given(st.lists(st.from_regex(NUMBER_GRAMMAR, fullmatch=True)
                    | st.floats(allow_nan=False, allow_infinity=False).map(repr), min_size=1, max_size=50))
    def test_numbers_have_float_s_bits(self, tokens):
        """Every token of the grammar is float()'s value, or refused where that is not finite."""
        lines = [f"{token} c0\n" for token in tokens]
        values, labels = np.empty((len(lines), 1)), np.empty(len(lines), dtype=np.int64)
        parsed = dataset._PARSE_BLOCK(lines, None, 2, (0, 1), (None, {"c0": 0}), "?", values, labels)
        expected = np.array([float(token) for token in tokens])
        if not np.isfinite(expected).all():
            assert parsed is None
        else:
            assert parsed == (len(lines), 0)
            assert values.view(np.int64).ravel().tolist() == expected.view(np.int64).tolist()


def test_split_fields_strips():
    assert split_fields(" a , b ,c", ",") == ["a", "b", "c"]
    assert split_fields("a\t b  c", None) == ["a", "b", "c"]


class TestSplitDataset:
    def build(self, n):
        rows = [((float(i), float(-i)), i % 2) for i in range(n)]
        return Dataset.build(xor_schema(), rows)

    def test_file_order_default(self):
        data = self.build(6)
        train, test = split_dataset(data, 4)
        assert rows_of(train) == rows_of(data)[:4]
        assert rows_of(test) == rows_of(data)[4:]

    @given(st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_partition_property(self, train_count, seed):
        data = self.build(10)
        train, test = split_dataset(data, train_count, seed)
        assert len(train) == train_count and len(test) == 10 - train_count
        assert sorted(rows_of(train) + rows_of(test)) == sorted(rows_of(data))

    @given(st.lists(st.tuples(st.floats(allow_nan=False), st.integers(0, 1)), min_size=2, max_size=30), st.data())
    def test_matches_the_per_example_split(self, rows, data):
        full = Dataset.build(xor_schema(), [((v, -v), c) for v, c in rows])
        n = len(rows)
        train_count = data.draw(st.integers(1, n - 1))
        seed = data.draw(st.none() | st.integers(0, 2**32 - 1))
        order = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)
        full_rows = rows_of(full)
        picked = [full_rows[i] for i in order]
        train, test = split_dataset(full, train_count, seed)
        for part, examples in ((train, picked[:train_count]), (test, picked[train_count:])):
            assert part.value_matrix().tobytes() == np.array([values for values, _ in examples]).tobytes()
            assert part.labels().tobytes() == np.array([label for _, label in examples], dtype=np.int64).tobytes()
            assert not part.value_matrix().flags.writeable and not part.labels().flags.writeable

    def test_seed_reproducible(self):
        data = self.build(10)
        first = split_dataset(data, 5, shuffle_seed=42)
        second = split_dataset(data, 5, shuffle_seed=42)
        assert rows_of(first[0]) == rows_of(second[0])
        assert rows_of(first[1]) == rows_of(second[1])

    def test_bounds_checked(self):
        data = self.build(4)
        for bad in (0, 4, 5):
            with pytest.raises(ValueError, match="train_count"):
                split_dataset(data, bad)


# how each document names its files: (doc, held key, where the split keys sit)
SEARCH = ("search spec", "validation", None)
SUITE = ('suite entry "x"', "test", "split")


def split_keys(form, **keys) -> dict:
    """``keys`` where ``form`` puts the split keys: at the top, or in its "split" object."""
    return keys if form[2] is None else {"split": keys}


class TestDataFiles:
    @pytest.mark.parametrize(
        "files",
        [
            dict(),
            dict(data="a"),
            dict(data="a", train_count=3, train="b"),
            dict(data="a", train_count=3, held="c"),
            dict(train="b"),
            dict(held="c"),
            dict(train="b", held="c", train_count=3),
            dict(train="b", held="c", seed=4),
        ],
        ids=[
            "neither", "split-without-count", "split-and-train", "split-and-held", "train-alone",
            "held-alone", "pair-and-count", "pair-and-seed",
        ],
    )
    def test_a_mix_of_forms_is_refused(self, files):
        with pytest.raises(ValueError, match="give data with train_count, or train with a held-out file"):
            DataFiles(**files)

    def test_paths_in_reading_order(self, tmp_path):
        assert DataFiles(data="a", train_count=3, seed=1).paths(tmp_path) == [tmp_path / "a"]
        assert DataFiles(train="b", held="c").paths(tmp_path) == [tmp_path / "b", tmp_path / "c"]

    def test_load_parses_a_pair_or_splits_one_file(self, tmp_path):
        schema = xor_schema()
        (tmp_path / "a").write_text("".join(f"{i} {-i} c{i % 2}\n" for i in range(10)))
        (tmp_path / "b").write_text("0 0 c0\n1 1 c0\n")
        full = parse_table(tmp_path / "a", schema)
        for seed in (None, 5):
            train, held = DataFiles(data="a", train_count=6, seed=seed).load(tmp_path, schema, ParseOptions())
            want = split_dataset(full, 6, seed)
            assert (rows_of(train), rows_of(held)) == (rows_of(want[0]), rows_of(want[1]))
        train, held = DataFiles(train="a", held="b").load(tmp_path, schema, ParseOptions())
        assert rows_of(train) == rows_of(full)
        assert rows_of(held) == [((0.0, 0.0), 0), ((1.0, 1.0), 0)]


class TestJsonDataFiles:
    @pytest.mark.parametrize("form", [SEARCH, SUITE], ids=["search", "suite"])
    def test_both_forms_read(self, form):
        doc, held, split = form
        raw = {"data": "a", **split_keys(form, train_count=3, seed=4)}
        assert json_data_files(doc, raw, held, split) == DataFiles(data="a", train_count=3, seed=4)
        raw = {"data": "a", **split_keys(form, train_count=3)}
        assert json_data_files(doc, raw, held, split) == DataFiles(data="a", train_count=3)
        raw = {"train": "b", held: "c"}
        assert json_data_files(doc, raw, held, split) == DataFiles(train="b", held="c")

    @pytest.mark.parametrize("form", [SEARCH, SUITE], ids=["search", "suite"])
    @pytest.mark.parametrize("stray", ["train", "held"])
    def test_a_file_beside_data_is_refused(self, form, stray):
        # a suite entry once took "data" beside one file of the pair as
        # the split form, and ignored that file
        doc, held, split = form
        key = held if stray == "held" else "train"
        raw = {"data": "a", **split_keys(form, train_count=3), key: "b"}
        with pytest.raises(ValueError) as err:
            json_data_files(doc, raw, held, split)
        assert str(err.value) == f'{doc} gives "{key}" with "data", which is split into train and {held}'

    @pytest.mark.parametrize("form", [SEARCH, SUITE], ids=["search", "suite"])
    @pytest.mark.parametrize("keys", [dict(train_count=3), dict(seed=4), dict(train_count=3, seed=4)],
                             ids=["count", "seed", "both"])
    def test_a_split_without_data_is_refused(self, form, keys):
        # the split keys of a pair were once ignored in a suite entry
        doc, held, split = form
        raw = {"train": "b", held: "c", **split_keys(form, **keys)}
        stray = split if split is not None else next(iter(keys))
        with pytest.raises(ValueError) as err:
            json_data_files(doc, raw, held, split)
        assert str(err.value) == f'{doc} gives "{stray}" without "data", the file it splits'

    @pytest.mark.parametrize(
        "form, raw, message",
        [
            (SUITE, {"data": "a", "split": 3}, 'suite entry "x" "split" must be a JSON object'),
            (
                SEARCH, {"data": "a", "train_count": 3, "seed": "4"}, 'search spec "seed" must be an integer or null'
            ),
            (SUITE, {"test": "c"}, 'suite entry "x" is missing "train"'),
            (SUITE, {"train": "b", "test": 3}, 'suite entry "x" "test" must be a string'),
        ],
        ids=["split-not-object", "seed-kind", "no-train", "test-kind"],
    )
    def test_malformed_entries_are_named(self, form, raw, message):
        with pytest.raises(ValueError) as err:
            json_data_files(form[0], raw, form[1], form[2])
        assert str(err.value) == message
