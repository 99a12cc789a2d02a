"""Schema declarations, delimited-text ingestion, and train/test splitting.

Everything here is a pure function over immutable inputs; datasets can be
shared freely across threads.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

KINDS = ("continuous", "binary", "categorical")


class ParseError(ValueError):
    """Raised for structurally malformed input rows (wrong field count, bad numbers)."""


class SchemaError(ValueError):
    """Raised when input data contradicts the declared schema, or the schema itself is invalid."""


@dataclass(frozen=True)
class AttributeSpec:
    """One input variable: a name, a kind, and (for discrete kinds) the admissible tokens."""

    name: str
    kind: str
    values: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "continuous":
            if self.values is not None:
                raise SchemaError(f"attribute {self.name!r}: continuous attributes declare no values")
        else:
            n = 0 if self.values is None else len(self.values)
            if self.kind == "binary" and n != 2:
                raise SchemaError(f"attribute {self.name!r}: binary attributes need exactly 2 values, got {n}")
            if self.kind == "categorical" and n < 2:
                raise SchemaError(f"attribute {self.name!r}: categorical attributes need >= 2 values, got {n}")
            if len(set(self.values)) != n:
                raise SchemaError(f"attribute {self.name!r}: duplicate declared values")

    @property
    def is_discrete(self) -> bool:
        return self.kind != "continuous"


@dataclass(frozen=True)
class Schema:
    """Ordered attribute declarations plus the ordered class labels.

    Class labels are the canonical names used in reports and predictions.
    ``class_tokens`` holds the on-disk spelling of each label when data
    files encode classes differently (e.g. numeric codes); it defaults to
    the labels themselves.
    """

    attributes: tuple[AttributeSpec, ...]
    classes: tuple[str, ...]
    class_tokens: tuple[str, ...] | None = None

    def __post_init__(self):
        if len(self.attributes) < 1:
            raise SchemaError("schema needs at least one attribute")
        if len(self.classes) < 2:
            raise SchemaError("schema needs at least two classes")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate attribute names")
        if len(set(self.classes)) != len(self.classes):
            raise SchemaError("duplicate class labels")
        if self.class_tokens is None:
            object.__setattr__(self, "class_tokens", tuple(self.classes))
        if len(self.class_tokens) != len(self.classes):
            raise SchemaError("class_tokens length must match classes")
        if len(set(self.class_tokens)) != len(self.class_tokens):
            raise SchemaError("duplicate class tokens")

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    def class_index(self, token: str) -> int:
        """Map an on-disk class token (or a label) to its class index."""
        if token in self.class_tokens:
            return self.class_tokens.index(token)
        if token in self.classes:
            return self.classes.index(token)
        raise SchemaError(f"unknown class label {token!r}")

    def encode_value(self, attr_index: int, token: str) -> float:
        """Encode one attribute token as the numeric value used internally.

        Continuous attributes parse as finite floats; discrete attributes
        map to the index of the token in their declared value list.
        """
        spec = self.attributes[attr_index]
        if spec.is_discrete:
            try:
                return float(spec.values.index(token))
            except ValueError:
                raise SchemaError(
                    f"attribute {spec.name!r}: unknown value {token!r}"
                ) from None
        try:
            value = float(token)
        except ValueError:
            raise ParseError(f"attribute {spec.name!r}: not a number: {token!r}") from None
        if not math.isfinite(value):
            # a nan or infinity has no bin
            raise ParseError(f"attribute {spec.name!r}: not a finite number: {token!r}")
        return value


@dataclass(frozen=True)
class Example:
    """One labeled row: encoded numeric values plus a class index."""

    values: tuple[float, ...]
    label: int


@dataclass(frozen=True)
class Provenance:
    source: str
    split: str | None = None
    n_dropped: int = 0


@dataclass(frozen=True)
class Dataset:
    schema: Schema
    examples: tuple[Example, ...]
    provenance: Provenance = field(default=Provenance("memory"))

    def __post_init__(self):
        m = self.schema.n_attributes
        k = self.schema.n_classes
        for ex in self.examples:
            if len(ex.values) != m:
                raise SchemaError(f"example has {len(ex.values)} values, schema declares {m}")
            if not 0 <= ex.label < k:
                raise SchemaError(f"example label index {ex.label} out of range [0, {k})")

    def __len__(self) -> int:
        return len(self.examples)

    def value_matrix(self) -> np.ndarray:
        """All example values as an (n, M) float64 matrix."""
        return np.array([ex.values for ex in self.examples], dtype=np.float64).reshape(
            len(self.examples), self.schema.n_attributes
        )

    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)

    @staticmethod
    def build(schema: Schema, rows: Iterable[tuple[Sequence[float], int]], source: str = "memory") -> "Dataset":
        examples = tuple(Example(tuple(float(v) for v in values), int(label)) for values, label in rows)
        return Dataset(schema, examples, Provenance(source))


@dataclass(frozen=True)
class ParseOptions:
    """How to slice raw rows into attribute fields and a label.

    ``label_col`` and ``ignore_cols`` index the raw fields of each line
    (negative indices count from the end). ``delimiter=None`` splits on
    any whitespace run.
    """

    delimiter: str | None = None
    missing_token: str = "?"
    label_col: int = -1
    ignore_cols: tuple[int, ...] = ()


def load_schema(path: str | Path) -> Schema:
    """Load a schema declaration from a JSON file.

    Expected shape::

        {"classes": ["benign", {"label": "malignant", "token": "4"}],
         "attributes": [{"name": "size", "kind": "continuous"},
                        {"name": "color", "kind": "categorical", "values": ["r", "g"]}]}
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    labels, tokens = [], []
    for entry in raw.get("classes", []):
        if isinstance(entry, str):
            labels.append(entry)
            tokens.append(entry)
        else:
            labels.append(str(entry["label"]))
            tokens.append(str(entry.get("token", entry["label"])))
    attrs = []
    for a in raw.get("attributes", []):
        values = a.get("values")
        attrs.append(
            AttributeSpec(
                name=str(a["name"]),
                kind=str(a["kind"]),
                values=None if values is None else tuple(str(v) for v in values),
            )
        )
    return Schema(tuple(attrs), tuple(labels), tuple(tokens))


def split_fields(line: str, delimiter: str | None) -> list[str]:
    fields = line.split(delimiter)
    return [f.strip() for f in fields]


def _row_layout(n_fields: int, options: ParseOptions, line_no: int) -> tuple[int, set[int]]:
    label = options.label_col if options.label_col >= 0 else n_fields + options.label_col
    ignored = {c if c >= 0 else n_fields + c for c in options.ignore_cols}
    if not 0 <= label < n_fields:
        raise ParseError(f"line {line_no}: label column {options.label_col} out of range for {n_fields} fields")
    if label in ignored:
        raise ParseError(f"line {line_no}: label column {options.label_col} is also ignored")
    return label, ignored


def parse_table(path: str | Path, schema: Schema, options: ParseOptions = ParseOptions()) -> Dataset:
    """Parse a delimited text file of labeled rows against ``schema``.

    Rows containing the missing-value token are dropped; the count of
    dropped rows is recorded on the returned dataset's provenance.
    Structural problems raise :class:`ParseError` with the 1-based line
    number; tokens that contradict the schema raise :class:`SchemaError`.
    """
    m = schema.n_attributes
    examples: list[Example] = []
    n_dropped = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = split_fields(line, options.delimiter)
            label_idx, ignored = _row_layout(len(fields), options, line_no)
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
            examples.append(Example(values, label))
    if not examples:
        raise ParseError(f"{path}: no examples")
    return Dataset(schema, tuple(examples), Provenance(str(path), n_dropped=n_dropped))


def split_dataset(
    data: Dataset, train_count: int, shuffle_seed: int | None = None
) -> tuple[Dataset, Dataset]:
    """Split into (train, test) of sizes (train_count, n - train_count).

    Without a seed the split follows file order; with a seed the rows are
    permuted by a seeded generator first, so the same seed always yields
    the same two subsets.
    """
    n = len(data)
    if not 0 < train_count < n:
        raise ValueError(f"train_count must be in (0, {n}), got {train_count}")
    if shuffle_seed is None:
        order = np.arange(n)
        tag = "order=file"
    else:
        order = np.random.default_rng(shuffle_seed).permutation(n)
        tag = f"order=shuffled(seed={shuffle_seed})"
    picked = [data.examples[i] for i in order]
    src = data.provenance.source
    train = Dataset(data.schema, tuple(picked[:train_count]), Provenance(src, f"train[{train_count}] {tag}"))
    test = Dataset(data.schema, tuple(picked[train_count:]), Provenance(src, f"test[{n - train_count}] {tag}"))
    return train, test
