"""Schema validation, table parsing, and splitting."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffnb.dataset import (
    AttributeSpec,
    Dataset,
    Example,
    ParseError,
    ParseOptions,
    Schema,
    SchemaError,
    load_schema,
    parse_table,
    split_dataset,
    split_fields,
)

from conftest import xor_schema


def two_class(*attrs):
    return Schema(tuple(attrs), ("c0", "c1"))


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
            Dataset(xor_schema(), (Example((1.0,), 0),))

    def test_label_range_checked(self):
        with pytest.raises(SchemaError, match="out of range"):
            Dataset(xor_schema(), (Example((0.0, 0.0), 2),))

    def test_matrix_and_labels(self):
        data = Dataset.build(xor_schema(), [((0.0, 1.0), 0), ((2.0, 3.0), 1)])
        matrix = data.value_matrix()
        assert matrix.shape == (2, 2) and matrix.dtype == np.float64
        assert matrix.tolist() == [[0.0, 1.0], [2.0, 3.0]]
        assert data.labels().tolist() == [0, 1]
        assert len(data) == 2


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
        data = parse_table(path, xor_schema())
        assert len(data) == 2
        assert data.examples[0] == Example((0.0, 1.0), 1)

    def test_label_col_and_ignored_cols(self, tmp_path):
        path = self.write(tmp_path, "c0,999,0.5,1.5\n")
        options = ParseOptions(delimiter=",", label_col=0, ignore_cols=(1,))
        data = parse_table(path, xor_schema(), options)
        assert data.examples[0] == Example((0.5, 1.5), 0)

    def test_missing_rows_dropped_and_counted(self, tmp_path):
        path = self.write(tmp_path, "1 1 c0\n? 1 c0\n1 ? c1\n0 0 c1\n")
        data = parse_table(path, xor_schema())
        assert len(data) == 2
        assert data.provenance.n_dropped == 2

    def test_wrong_field_count_names_line(self, tmp_path):
        path = self.write(tmp_path, "1 1 c0\n1 c0\n")
        with pytest.raises(ParseError, match="line 2"):
            parse_table(path, xor_schema())

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_value_names_line(self, tmp_path, token):
        path = self.write(tmp_path, f"1 1 c0\n0 {token} c1\n")
        with pytest.raises(ParseError, match="line 2: attribute 'b': not a finite number"):
            parse_table(path, xor_schema())

    def test_unknown_class_names_line(self, tmp_path):
        path = self.write(tmp_path, "1 1 c9\n")
        with pytest.raises(SchemaError, match="line 1"):
            parse_table(path, xor_schema())

    def test_label_col_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "1 1 c0\n")
        with pytest.raises(ParseError, match="label column"):
            parse_table(path, xor_schema(), ParseOptions(label_col=7))

    def test_empty_input_rejected(self, tmp_path):
        path = self.write(tmp_path, "\n\n")
        with pytest.raises(ParseError, match="no examples"):
            parse_table(path, xor_schema())

    def test_parse_is_deterministic(self, tmp_path):
        path = self.write(tmp_path, "0 1 c1\n1 0 c1\n0 0 c0\n")
        assert parse_table(path, xor_schema()) == parse_table(path, xor_schema())


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
        assert train.examples == data.examples[:4]
        assert test.examples == data.examples[4:]

    @given(st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_partition_property(self, train_count, seed):
        data = self.build(10)
        train, test = split_dataset(data, train_count, seed)
        assert len(train) == train_count and len(test) == 10 - train_count
        merged = sorted(train.examples + test.examples, key=lambda e: e.values)
        assert merged == sorted(data.examples, key=lambda e: e.values)

    def test_seed_reproducible(self):
        data = self.build(10)
        first = split_dataset(data, 5, shuffle_seed=42)
        second = split_dataset(data, 5, shuffle_seed=42)
        assert first[0].examples == second[0].examples
        assert first[1].examples == second[1].examples

    def test_bounds_checked(self):
        data = self.build(4)
        for bad in (0, 4, 5):
            with pytest.raises(ValueError, match="train_count"):
                split_dataset(data, bad)
