"""Schema declarations, delimited-text ingestion, and train/test splitting.

The ``json_*`` readers are the one check of a JSON document's shape: the
JSON kind of each entry, the keys it must hold and the keys it may hold.
Schemas, search specs, benchmark suites and model files are all read
through them, so a malformed file is a ValueError naming the entry rather
than a traceback.

A dataset is its schema plus two read-only arrays, the (n, M) float64
value matrix and the (n,) int64 class indices. ``parse_table`` fills
those arrays column by column, a block of lines at a time, and walks a
block line by line only to report the first bad line in it. Its blocks
come from :func:`line_blocks`, the one reader of delimited text, which
``diffnb predict`` reads its rows through as well.

An experiment reads one file split by a row count, or a train file and a
held-out one, never both: :class:`DataFiles`, read from a search spec or a
benchmark suite entry by :func:`json_data_files`, holds that rule.

Everything here is a pure function over immutable inputs; datasets can be
shared freely across threads.
"""

import io
import json
import math
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Labeled rows: an (n, M) float64 value matrix and (n,) int64 class indices.

    The two arrays are the dataset's only row data. The constructor
    converts them to those dtypes and marks them read-only; an array
    passed in with the right dtype is taken as it is, not copied, so the
    caller hands it over. Equality is identity: two datasets are never
    compared row by row. ``n_dropped`` counts the rows a parse dropped
    for holding the missing-value token.
    """

    schema: Schema
    values: np.ndarray
    label_indices: np.ndarray
    n_dropped: int = 0

    def __post_init__(self):
        m = self.schema.n_attributes
        k = self.schema.n_classes
        values = np.asarray(self.values, dtype=np.float64)
        labels = np.asarray(self.label_indices, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != m:
            raise SchemaError(f"value matrix has shape {values.shape}, schema declares {m} values per example")
        if labels.shape != (len(values),):
            raise SchemaError(f"{len(values)} examples but label array has shape {labels.shape}")
        out_of_range = (labels < 0) | (labels >= k)
        if out_of_range.any():
            label = labels[out_of_range.argmax()]
            raise SchemaError(f"example label index {label} out of range [0, {k})")
        values.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "label_indices", labels)

    def __len__(self) -> int:
        return len(self.label_indices)

    def __reduce__(self):
        # unpickling goes through the constructor, which marks the
        # arrays read-only again
        return Dataset, (self.schema, self.values, self.label_indices, self.n_dropped)

    def value_matrix(self) -> np.ndarray:
        """All example values as an (n, M) float64 matrix; read-only."""
        return self.values

    def labels(self) -> np.ndarray:
        """Every example's class index as an (n,) int64 array; read-only."""
        return self.label_indices

    @staticmethod
    def build(schema: Schema, rows: Iterable[tuple[Sequence[float], int]]) -> "Dataset":
        """A dataset of ``(values, label)`` pairs, in order."""
        rows = list(rows)
        values = np.array([v for v, _ in rows], dtype=np.float64)
        if not rows:
            values = values.reshape(0, schema.n_attributes)
        labels = np.array([int(label) for _, label in rows], dtype=np.int64)
        return Dataset(schema, values, labels)


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


_REQUIRED = object()
# JSON kinds by the name an error gives them; true/false load as bool,
# which Python also counts as an int
_JSON_KINDS = {
    "a string": str,
    "an integer": int,
    "a number": (int, float),
    "true or false": bool,
    "a JSON list": list,
    "a JSON object": dict,
    "null": type(None),
}


def _is_kind(value, kind: str) -> bool:
    if isinstance(value, bool) and kind in ("an integer", "a number"):
        return False
    return isinstance(value, _JSON_KINDS[kind])


def json_value(doc: str, value, *kinds: str):
    """``value`` if it is one of the JSON ``kinds``, else a ValueError.

    ``doc`` names the value in the message: the document (``search spec``,
    ``schema``), an entry of it (``suite entry "monks-1"``), or a key
    within one (``search spec "parse"``).
    """
    if not any(_is_kind(value, kind) for kind in kinds):
        raise ValueError(f"{doc} must be {' or '.join(kinds)}")
    return value


def json_entry(doc: str, raw: dict, key: str, *kinds: str, default=_REQUIRED):
    """``raw[key]`` if it is one of the JSON ``kinds``.

    A missing entry without a ``default``, or one of another kind, is a
    ValueError naming it within ``doc``, not a traceback. Only the kind is
    checked here; the code that uses a value checks its range.
    """
    if key not in raw:
        if default is _REQUIRED:
            raise ValueError(f'{doc} is missing "{key}"')
        return default
    return json_value(f'{doc} "{key}"', raw[key], *kinds)


def json_list(doc: str, raw: dict, key: str, kind: str, default=_REQUIRED):
    """``raw[key]`` if it is a JSON list whose every item is of ``kind``."""
    items = json_entry(doc, raw, key, "a JSON list", default=default)
    if key in raw and not all(_is_kind(item, kind) for item in items):
        # "an integer" -> "integers"
        raise ValueError(f'{doc} "{key}" must be a JSON list of {kind.split(" ", 1)[1]}s')
    return items


def json_keys(doc: str, raw: dict, known: Iterable[str]) -> None:
    """A ValueError naming the first key of ``raw`` that is not ``known``.

    Readers call it once they have read an object's keys, so a missing
    key is reported before a misspelled one: a ``"max_round"`` is refused
    rather than silently leaving ``max_rounds`` at its default.
    """
    for key in raw:
        if key not in known:
            raise ValueError(f'{doc} has unknown key "{key}"')


def json_parse_options(doc: str, raw: dict) -> ParseOptions:
    """The ParseOptions of ``raw``'s optional ``"parse"`` object."""
    parse_raw = json_entry(doc, raw, "parse", "a JSON object", default={})
    doc = f'{doc} "parse"'
    options = ParseOptions(
        delimiter=json_entry(doc, parse_raw, "delimiter", "a string", "null", default=ParseOptions.delimiter),
        missing_token=json_entry(
            doc, parse_raw, "missing_token", "a string", default=ParseOptions.missing_token
        ),
        label_col=json_entry(doc, parse_raw, "label_col", "an integer", default=ParseOptions.label_col),
        ignore_cols=tuple(
            json_list(doc, parse_raw, "ignore_cols", "an integer", default=ParseOptions.ignore_cols)
        ),
    )
    json_keys(doc, parse_raw, ("delimiter", "missing_token", "label_col", "ignore_cols"))
    return options


def load_schema(path: str | Path) -> Schema:
    """Load a schema declaration from a JSON file; see :func:`schema_from_json`."""
    with open(path, "r", encoding="utf-8") as fh:
        return schema_from_json(json.load(fh))


def schema_from_json(raw, doc: str = "schema") -> Schema:
    """Read a schema declaration from its parsed JSON object.

    Expected shape::

        {"classes": ["benign", {"label": "malignant", "token": "4"}],
         "attributes": [{"name": "size", "kind": "continuous"},
                        {"name": "color", "kind": "categorical", "values": ["r", "g"]}]}

    ``classes`` and ``attributes`` are required; a class is a label string
    or an object with a ``label`` and an optional on-disk ``token``. Every
    name, kind, label, token and value is a JSON string. A wrong JSON kind,
    a missing key or an unknown one is a ValueError naming it (``schema
    attribute 2 is missing "kind"``); a contradictory declaration is a
    SchemaError. ``doc`` names the schema in messages, as a model file
    names the schema it holds.
    """
    json_value(doc, raw, "a JSON object")
    labels, tokens = [], []
    for i, entry in enumerate(json_entry(doc, raw, "classes", "a JSON list"), start=1):
        entry_doc = f"{doc} class {i}"
        if isinstance(json_value(entry_doc, entry, "a string", "a JSON object"), str):
            labels.append(entry)
            tokens.append(entry)
        else:
            label = json_entry(entry_doc, entry, "label", "a string")
            labels.append(label)
            tokens.append(json_entry(entry_doc, entry, "token", "a string", default=label))
            json_keys(entry_doc, entry, ("label", "token"))
    attrs = []
    for i, entry in enumerate(json_entry(doc, raw, "attributes", "a JSON list"), start=1):
        entry_doc = f"{doc} attribute {i}"
        json_value(entry_doc, entry, "a JSON object")
        values = json_list(entry_doc, entry, "values", "a string", default=None)
        attrs.append(
            AttributeSpec(
                name=json_entry(entry_doc, entry, "name", "a string"),
                kind=json_entry(entry_doc, entry, "kind", "a string"),
                values=None if values is None else tuple(values),
            )
        )
        json_keys(entry_doc, entry, ("name", "kind", "values"))
    json_keys(doc, raw, ("classes", "attributes"))
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


# bytes of whole lines read per block: the tokens of one block, not of
# the whole input, are held at once. On a 10k x 20 table 2**14 parses as
# fast as 2**16, and on a 1000 x 6 one it keeps `diffnb evaluate`'s peak
# RSS 0.5 MB lower
_BLOCK_CHARS = 1 << 14


def _text_lines(text: str) -> list[str]:
    """``text``'s lines as a text-mode file reads them: LF, CRLF and a lone CR each end one as LF."""
    return io.StringIO(text, newline=None).readlines()


def line_blocks(stream: BinaryIO) -> Iterator[tuple[int, list[str]]]:
    """(count of lines before the block, lines) for each block of a binary ``stream``.

    A block is the whole lines of about ``_BLOCK_CHARS`` bytes, decoded
    as UTF-8 at once, a byte-order mark at the start of the stream
    dropped, and split as :func:`_text_lines` splits text; a CRLF never
    straddles two blocks. A byte that is not UTF-8 first yields the whole
    lines of its block before it, then raises its UnicodeDecodeError, so
    a reader meets those lines, and any bad one among them, first.
    """
    n_before = 0
    encoding = "utf-8-sig"
    while raw := stream.readlines(_BLOCK_CHARS):
        try:
            lines = _text_lines(b"".join(raw).decode(encoding))
        except UnicodeDecodeError as err:
            # the error's offsets are past a dropped byte-order mark
            head = _text_lines(err.object[: err.start].decode("utf-8"))
            if head and not head[-1].endswith("\n"):
                head.pop()  # the start of the line that holds the byte
            yield n_before, head
            raise
        yield n_before, lines
        n_before += len(lines)
        encoding = "utf-8"


class _BadBlock(Exception):
    """A block held a line the column-wise encoding cannot take."""


def parse_table(path: str | Path, schema: Schema, options: ParseOptions = ParseOptions()) -> Dataset:
    """Parse a delimited text file of labeled rows against ``schema``.

    Rows containing the missing-value token are dropped; the returned
    dataset's ``n_dropped`` counts them. Structural problems raise
    :class:`ParseError` with the 1-based line number; tokens that
    contradict the schema raise :class:`SchemaError`.

    The file is read through :func:`line_blocks`. Each block is split into
    fields and encoded column by column, straight into its part of the
    value matrix. A block that fails anywhere is walked again line by line
    through :meth:`Schema.encode_value` and :meth:`Schema.class_index`, so
    the first bad line in file order raises, with the message a line by
    line parse gives. A byte that is not UTF-8 raises its
    UnicodeDecodeError once the lines before it have parsed.
    """
    encoders = [
        {tok: float(i) for i, tok in enumerate(a.values)}.__getitem__ if a.is_discrete else float
        for a in schema.attributes
    ]
    # a token names its class before a label does, as in Schema.class_index
    class_codes = {label: i for i, label in enumerate(schema.classes)}
    class_codes.update((tok, i) for i, tok in enumerate(schema.class_tokens))
    layouts: dict[int, tuple[int, ...] | None] = {}
    value_blocks, label_blocks = [], []
    n_dropped = 0
    with open(path, "rb") as fh:
        for line_no, lines in line_blocks(fh):
            try:
                values, labels, dropped = _encode_block(lines, schema, options, encoders, class_codes, layouts)
            except (_BadBlock, ValueError, KeyError):
                _raise_first_fault(lines, line_no, schema, options)
                raise
            value_blocks.append(values)
            label_blocks.append(labels)
            n_dropped += dropped
    values = np.concatenate(value_blocks) if value_blocks else np.empty((0, schema.n_attributes))
    if not len(values):
        raise ParseError(f"{path}: no examples")
    labels = np.concatenate(label_blocks)
    return Dataset(schema, values, labels, n_dropped)


def _layout_fields(n_fields: int, options: ParseOptions, m: int) -> tuple[int, ...] | None:
    """The value fields then the label field of an ``n_fields``-field line; None if it has no valid layout."""
    try:
        label, ignored = _row_layout(n_fields, options, 0)
    except ParseError:
        return None
    picked = tuple(i for i in range(n_fields) if i != label and i not in ignored)
    return picked + (label,) if len(picked) == m else None


def _encode_block(lines, schema, options, encoders, class_codes, layouts):
    """(values, labels, n_dropped) of one block of lines; raises if any line is bad.

    ``layouts`` caches the field layout of each field count seen. The
    error raised says only that the block is bad, not where.
    """
    m = schema.n_attributes
    if options.delimiter is None:
        rows = list(filter(None, map(str.split, lines)))
    else:
        rows = list(map(methodcaller("split", options.delimiter), filter(None, map(str.strip, lines))))
    if not rows:
        return np.empty((0, m)), np.empty(0, dtype=np.int64), 0
    counts = set(map(len, rows))
    for n_fields in counts - layouts.keys():
        layouts[n_fields] = _layout_fields(n_fields, options, m)
    picks = {n_fields: layouts[n_fields] for n_fields in counts}
    if None in picks.values():
        raise _BadBlock
    if len(picks) == 1:
        fields = list(zip(*rows))
        columns = [fields[i] for i in picks.popitem()[1]]
    else:
        getters = {n_fields: itemgetter(*pick) for n_fields, pick in picks.items()}
        columns = list(zip(*[getters[len(row)](row) for row in rows]))
    if options.delimiter is not None:
        columns = [tuple(map(str.strip, col)) for col in columns]
    dropped = np.zeros(len(rows), dtype=bool)
    for col in columns:
        if options.missing_token in col:
            dropped[[i for i, tok in enumerate(col) if tok == options.missing_token]] = True
    if dropped.any():
        keep = (~dropped).tolist()
        columns = [tuple(compress(col, keep)) for col in columns]
    n = len(columns[-1])
    values = np.empty((n, m))
    for j, (encode, col) in enumerate(zip(encoders, columns)):
        values[:, j] = np.fromiter(map(encode, col), np.float64, n)
    if not np.isfinite(values).all():
        raise _BadBlock
    labels = np.fromiter(map(class_codes.__getitem__, columns[-1]), np.int64, n)
    return values, labels, int(dropped.sum())


def _raise_first_fault(lines: Iterable[str], line_no: int, schema: Schema, options: ParseOptions) -> None:
    """Raise the error of the first bad line of a block whose first line is ``line_no + 1``.

    The checks run line by line in file order, as a per-line parse makes
    them: the label and ignored columns, the field count, the missing
    token (a line holding it is skipped), the class token, then each value.
    """
    m = schema.n_attributes
    for line_no, line in enumerate(lines, start=line_no + 1):
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
            continue
        try:
            schema.class_index(fields[label_idx])
            for i, tok in enumerate(value_fields):
                schema.encode_value(i, tok)
        except (ParseError, SchemaError) as err:
            raise type(err)(f"line {line_no}: {err}") from None


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
    else:
        order = np.random.default_rng(shuffle_seed).permutation(n)

    def subset(rows: np.ndarray) -> Dataset:
        # fancy indexing copies, so neither part shares a buffer
        return Dataset(data.schema, data.values[rows], data.label_indices[rows])

    return subset(order[:train_count]), subset(order[train_count:])


@dataclass(frozen=True)
class DataFiles:
    """``data`` to split by ``train_count`` (and an optional ``seed``), or ``train`` and ``held``.

    The constructor refuses any other mix. Names are relative to the root
    given to :meth:`paths` and :meth:`load`.
    """

    data: str | None = None
    train_count: int | None = None
    seed: int | None = None
    train: str | None = None
    held: str | None = None

    def __post_init__(self):
        split = self.data is not None
        form = (self.data, self.train_count) if split else (self.train, self.held)
        other = (self.train, self.held) if split else (self.train_count, self.seed)
        if None in form or other != (None, None):
            raise ValueError("data files: give data with train_count, or train with a held-out file, not both")

    def paths(self, root: str | Path) -> list[Path]:
        """The files under ``root``, in the order they are read."""
        return [Path(root) / name for name in (self.data, self.train, self.held) if name is not None]

    def load(self, root: str | Path, schema: Schema, options: ParseOptions) -> tuple[Dataset, Dataset]:
        """(train, held-out) datasets: the two files parsed, or the one file parsed and split."""
        tables = [parse_table(path, schema, options) for path in self.paths(root)]
        return tuple(tables) if self.data is None else split_dataset(tables[0], self.train_count, self.seed)


def json_data_files(doc: str, raw: dict, held: str, split: str | None = None) -> DataFiles:
    """The DataFiles of ``raw``: ``"data"`` and its split keys, or ``"train"`` and ``held``.

    The split keys ``"train_count"`` and ``"seed"`` sit in ``raw`` when
    ``split`` is None (a search spec), else in its ``split`` object (a
    suite entry). A key of the other form is refused by name.
    """
    if "data" not in raw:
        for key in ("train_count", "seed") if split is None else (split,):
            if key in raw:
                raise ValueError(f'{doc} gives "{key}" without "data", the file it splits')
        train = json_entry(doc, raw, "train", "a string")
        return DataFiles(train=train, held=json_entry(doc, raw, held, "a string"))
    data = json_entry(doc, raw, "data", "a string")
    split_doc, split_raw = doc, raw
    if split is not None:
        split_doc, split_raw = f'{doc} "{split}"', json_entry(doc, raw, split, "a JSON object")
        # a misspelled "train_count" is named, not reported as a missing one
        json_keys(split_doc, split_raw, ("train_count", "seed"))
    train_count = json_entry(split_doc, split_raw, "train_count", "an integer")
    seed = json_entry(split_doc, split_raw, "seed", "an integer", "null", default=None)
    for key in ("train", held):
        if key in raw:
            raise ValueError(f'{doc} gives "{key}" with "data", which is split into train and {held}')
    return DataFiles(data=data, train_count=train_count, seed=seed)
