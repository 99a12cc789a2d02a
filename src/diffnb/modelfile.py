"""Trained-model persistence: a versioned, self-describing JSON document.

Counts are stored as integers and floats in their shortest exact decimal
form, so a load reproduces the in-memory model bit for bit and two model
files diff cleanly. Per-attribute arrays are stored ragged (each
attribute lists exactly its own bins); padding to the rectangular
in-memory layout happens on load.
"""

import itertools
import json
import os
from pathlib import Path

import numpy as np

from .boosting import Model, TrainConfig, TrainTrace
from .dataset import Schema, json_entry, json_list, json_value, schema_from_json
from .density import BinSpec, DensityModel

FORMAT_NAME = "diffnb-model"
FORMAT_VERSION = 1


def _schema_to_json(schema: Schema) -> dict:
    tokens = schema.class_tokens or schema.classes
    attributes = []
    for a in schema.attributes:
        entry = {"name": a.name, "kind": a.kind}
        if a.values is not None:
            entry["values"] = list(a.values)
        attributes.append(entry)
    return {
        "classes": [{"label": c, "token": t} for c, t in zip(schema.classes, tokens)],
        "attributes": attributes,
    }


def _array(items: list[str], depth: int) -> str:
    """A JSON array of written items, laid out as ``json.dumps(..., indent=1)`` lays one ``depth`` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _cells_text(cells: list, depth: int) -> str:
    """Per-class, per-attribute lists of ints or floats, written as json.dumps writes them."""
    text = _array([_array([_array(list(map(repr, row)), depth + 2) for row in per_class], depth + 1)
                   for per_class in cells], depth)
    return _finite_names(text)


def _finite_names(text: str) -> str:
    """``text`` of numbers, null and layout, with ``repr``'s inf and nan written as JSON's Infinity and NaN."""
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def _tags_text(model: Model, depth: int) -> str:
    """Each cell's windows, null for an empty cell (count 0), written as json.dumps writes them.

    Bounds are written with ``float.__repr__``, then infinite ones as
    JSON's ``Infinity`` and ``-Infinity``, as json writes them.
    """
    density = model.density
    lo, hi, counts = density.window_lo.tolist(), density.window_hi.tolist(), density.counts.tolist()
    pad = "\n" + " " * (depth + 5)
    end = "\n" + " " * (depth + 4) + "]"
    classes = []
    for k in range(model.schema.n_classes):
        attributes = []
        for m, count in enumerate(model.topology):
            cells = []
            for b in range(count):
                if counts[k][m][b] <= 0:
                    cells.append("null")
                    continue
                # each [lo, hi] pair as _array lays it out depth + 4 levels deep
                pairs = [f"[{pad}{a!r},{pad}{z!r}{end}" for a, z in zip(lo[k][m][b], hi[k][m][b])]
                pairs[m] = "null"
                cells.append(_array(pairs, depth + 3))
            attributes.append(_array(cells, depth + 2))
        classes.append(_array(attributes, depth + 1))
    return _finite_names(_array(classes, depth))


def model_to_json(model: Model) -> str:
    """The model file's text: the document ``json.dumps(doc, indent=1)`` writes, and its exact bytes.

    Any indent selects json's pure-Python encoder, which took 35 ms for a
    10k x 20 model with 8 bins (38 490 lines) on a 2-vCPU Xeon. The counts,
    windows and weights, nearly all of those lines, are written here with
    ``str.join`` and ``repr`` (9 ms), and json writes the rest.
    """
    density = model.density
    counts = [[list(map(int, row[:b])) for row, b in zip(per_class, model.topology)]
              for per_class in density.counts.tolist()]
    weights = [[row[:b] for row, b in zip(per_class, model.topology)] for per_class in model.weights.tolist()]
    head = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "schema": _schema_to_json(model.schema),
        "topology": list(model.topology),
        "n_train": density.n_train,
        "bin_specs": [{"lo": s.lo, "hi": s.hi, "count": s.count} for s in density.bin_specs],
    }
    tail = {
        "config": {
            "alpha": model.config.alpha,
            "max_rounds": model.config.max_rounds,
            "tag_gain": model.config.tag_gain,
            "epsilon_floor": model.config.epsilon_floor,
        },
        "trace": {"miss_counts": list(model.trace.miss_counts)},
    }
    # json.dumps(value, indent=1) one level deeper: every line after the first indented once more
    entries = [(key, json.dumps(value, indent=1).replace("\n", "\n ")) for key, value in head.items()]
    entries += [
        ("counts", _cells_text(counts, 1)),
        ("tags", _tags_text(model, 1)),
        ("weights", _cells_text(weights, 1)),
    ]
    entries += [(key, json.dumps(value, indent=1).replace("\n", "\n ")) for key, value in tail.items()]
    return "{\n" + ",\n".join(f" {json.dumps(key)}: {text}" for key, text in entries) + "\n}"


# the Python types a list of cells may load as (JSON true loads as a bool)
_CELL_KINDS = {"counts": ({int}, "integers"), "weights": ({int, float}, "numbers")}


def _cell_list(name: str, key: str, cells, attribute: int, count: int) -> list:
    """``cells``, an attribute's list under ``key``, if it holds ``count`` cells of the key's kinds.

    The types are checked in one pass over the list: a count of 17.5,
    ``"7"`` or ``true`` is refused, not cast.
    """
    if len(cells) != count:
        raise ValueError(
            f'{name} "{key}" lists {len(cells)} cells for attribute {attribute + 1}, '
            f'but "topology" gives {count} bins'
        )
    kinds, what = _CELL_KINDS[key]
    if not set(map(type, cells)) <= kinds:
        bad = next(cell for cell in cells if type(cell) not in kinds)
        raise ValueError(f'{name} "{key}" must hold {what}, got {json.dumps(bad)}')
    return cells


def _tag_pairs(name: str, raw_tags: list, topology: tuple[int, ...], k_n: int) -> tuple[list, list]:
    """The nonempty cells of ``raw_tags`` as ``(k, m, b)`` and their bounds, in cell order.

    Each attribute lists one entry per bin: null for an empty cell, else
    one item per attribute, null at the cell's own attribute and a
    ``[lo, hi]`` pair of numbers at every other. The pairs are checked in
    one pass over all of them, so a bound of ``"0.5"`` or ``true`` is
    refused, not cast.
    """
    m_n = len(topology)
    owners, windows = [], []
    for k in range(k_n):
        for m in range(m_n):
            b = -1
            for b, entry in enumerate(raw_tags[k][m]):
                if entry is None:
                    continue
                if len(entry) != m_n or entry[m] is not None:
                    raise ValueError(
                        f'{name} "tags" cell {b + 1} of attribute {m + 1} in class {k + 1} must list '
                        f"{m_n} windows, null at its own attribute"
                    )
                owners.append((k, m, b))
                windows += entry[:m]
                windows += entry[m + 1:]
            if b + 1 != topology[m]:
                raise ValueError(
                    f'{name} "tags" lists {b + 1} cells for attribute {m + 1}, but "topology" gives {topology[m]} bins'
                )
    numbers = {int, float}
    if set(map(type, windows)) <= {list} and set(map(len, windows)) <= {2}:
        pairs = list(itertools.chain.from_iterable(windows))
        if set(map(type, pairs)) <= numbers:
            return owners, pairs
    bad = next(w for w in windows if not (type(w) is list and len(w) == 2 and set(map(type, w)) <= numbers))
    raise ValueError(f'{name} "tags" bounds must be [lo, hi] pairs of numbers, got {json.dumps(bad)}')


def _no_extra_lists(name: str, key: str, raw: list, k_n: int, m_n: int) -> None:
    """Refuse lists under ``key`` beyond the schema's classes and attributes; shorter ones failed on reading."""
    if len(raw) != k_n:
        raise ValueError(f'{name} "{key}" lists {len(raw)} classes, but the schema gives {k_n}')
    for k, per_class in enumerate(raw):
        if len(per_class) != m_n:
            raise ValueError(
                f'{name} "{key}" lists {len(per_class)} attributes for class {k + 1}, but the schema gives {m_n}'
            )


def model_from_json(text: str) -> Model:
    """Read a model document.

    The document's kind and its top-level keys, the schema, the config,
    the trace and each bin grid are checked with the shared JSON checker,
    so a malformed file is a ValueError naming the entry. A bin grid must
    be one :class:`BinSpec` accepts (finite bounds and span, ``lo <= hi``)
    and its count must equal its attribute's topology entry; ``n_train``
    must be positive, each attribute's counts, weights and tags must list
    one cell per bin, and no class or attribute list beyond the schema's;
    every count is an integer >= 0, every weight a finite number > 0, and
    every window bound a number, not NaN, in a ``[lo, hi]`` pair.
    """
    name = "model file"
    doc = json_value(name, json.loads(text), "a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"not a {FORMAT_NAME} file")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {doc.get('version')!r}")
    schema = schema_from_json(json_entry(name, doc, "schema", "a JSON object"), "model schema")
    topology = tuple(int(b) for b in json_list(name, doc, "topology", "an integer"))
    k_n, m_n = schema.n_classes, schema.n_attributes
    if len(topology) != m_n:
        raise ValueError(f'{name} "topology" has {len(topology)} bin counts for {m_n} attributes')
    b_max = max(topology)
    n_train = int(json_entry(name, doc, "n_train", "an integer"))
    if n_train < 1:
        raise ValueError(f'{name} "n_train" must be >= 1, got {n_train}')
    raw_counts = json_entry(name, doc, "counts", "a JSON list")
    raw_tags = json_entry(name, doc, "tags", "a JSON list")
    raw_weights = json_entry(name, doc, "weights", "a JSON list")
    raw_config = json_entry(name, doc, "config", "a JSON object")
    raw_trace = json_entry(name, doc, "trace", "a JSON object")

    raw_specs = json_entry(name, doc, "bin_specs", "a JSON list")
    if len(raw_specs) != m_n:
        raise ValueError(f'{name} "bin_specs" has {len(raw_specs)} bin specs for {m_n} attributes')
    specs = []
    for m, s in enumerate(raw_specs):
        spec_doc = f"{name} bin spec {m + 1}"
        json_value(spec_doc, s, "a JSON object")
        count = int(json_entry(spec_doc, s, "count", "an integer"))
        if count != topology[m]:
            raise ValueError(f'{spec_doc} "count" is {count}, but "topology" gives {topology[m]} bins')
        bounds = [float(json_entry(spec_doc, s, key, "a number")) for key in ("lo", "hi")]
        try:
            specs.append(BinSpec(m, *bounds, count))
        except ValueError as err:
            raise ValueError(f"{spec_doc}: {err}") from None
    specs = tuple(specs)
    counts = np.zeros((k_n, m_n, b_max), dtype=np.int64)
    weights = np.ones((k_n, m_n, b_max))
    lo = np.full((k_n, m_n, b_max, m_n), -np.inf)
    hi = np.full((k_n, m_n, b_max, m_n), np.inf)
    # each list of cells is checked whole, which keeps loads fast; a nesting
    # that does not match the schema and topology fails as a whole
    try:
        for k in range(k_n):
            for m in range(m_n):
                counts[k, m, : topology[m]] = _cell_list(name, "counts", raw_counts[k][m], m, topology[m])
                weights[k, m, : topology[m]] = _cell_list(name, "weights", raw_weights[k][m], m, topology[m])
        owners, pairs = _tag_pairs(name, raw_tags, topology, k_n)
        for key, raw in (("counts", raw_counts), ("weights", raw_weights), ("tags", raw_tags)):
            _no_extra_lists(name, key, raw, k_n, m_n)
        bounds = np.array(pairs, dtype=np.float64).reshape(len(owners), m_n - 1, 2)
    except (IndexError, KeyError, TypeError) as err:
        raise ValueError(
            f'{name} "counts", "weights" or "tags" do not match its schema and topology: {err}'
        ) from None
    except OverflowError:
        # an integer beyond int64 or beyond the largest float
        raise ValueError(f'{name} "counts", "weights" or "tags" hold a number too large to store') from None
    if owners:
        # each cell's bounds fill its row of the (K, M, B_max, M) windows but
        # its own attribute's entry, in attribute order
        k_of, m_of, b_of = np.array(owners).T
        others = ~np.eye(m_n, dtype=bool)[m_of]
        for window, side in ((lo, 0), (hi, 1)):
            rows = window[k_of, m_of, b_of]
            rows[others] = bounds[:, :, side].ravel()
            window[k_of, m_of, b_of] = rows
    # one check of every cell, padding included (count 0, weight 1)
    bad_counts = counts[counts < 0]
    if bad_counts.size:
        raise ValueError(f'{name} "counts" must be >= 0, got {bad_counts[0]}')
    bad_weights = weights[~(np.isfinite(weights) & (weights > 0))]
    if bad_weights.size:
        raise ValueError(f'{name} "weights" must be finite and > 0, got {bad_weights[0]}')
    # a NaN bound would turn its window's gate off
    if np.isnan(lo).any() or np.isnan(hi).any():
        raise ValueError(f'{name} "tags" must not hold a NaN bound')
    density = DensityModel(schema, topology, specs, counts, n_train, lo, hi)
    config_doc = f'{name} "config"'
    config = TrainConfig(
        alpha=json_entry(config_doc, raw_config, "alpha", "a number"),
        max_rounds=json_entry(config_doc, raw_config, "max_rounds", "an integer"),
        tag_gain=json_entry(config_doc, raw_config, "tag_gain", "a number"),
        epsilon_floor=json_entry(config_doc, raw_config, "epsilon_floor", "a number"),
        topology=topology,
    )
    miss_counts = json_list(f'{name} "trace"', raw_trace, "miss_counts", "an integer")
    trace = TrainTrace(tuple(int(c) for c in miss_counts))
    return Model(density, weights, config, trace)


def save_model(model: Model, path: str | Path) -> None:
    """Write ``model`` to ``path`` whole, or leave what was there.

    The document is written to a temporary file beside ``path``, named
    for this process, and then renamed over ``path``; a write that fails
    or is interrupted removes the temporary file and leaves an existing
    model file as it was. A symbolic link is followed, so the file it
    points to is replaced and the link kept.
    """
    path = Path(os.path.realpath(path))
    text = model_to_json(model) + "\n"
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_model(path: str | Path) -> Model:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
