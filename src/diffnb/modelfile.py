"""Trained-model persistence: a versioned, self-describing JSON document.

Counts are stored as integers and floats in their shortest exact decimal
form, so a load reproduces the in-memory model bit for bit and two model
files diff cleanly. Per-attribute arrays are stored ragged (each
attribute lists exactly its own bins); padding to the rectangular
in-memory layout happens on load.
"""

import json
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


def _tags_to_json(model: Model) -> list:
    """Each cell's windows, None for an empty cell (count 0)."""
    density = model.density
    lo, hi = density.window_lo, density.window_hi
    k_n, m_n = model.schema.n_classes, model.schema.n_attributes
    out = []
    for k in range(k_n):
        per_class = []
        for m in range(m_n):
            per_attr = []
            for b in range(model.topology[m]):
                if density.counts[k, m, b] <= 0:
                    per_attr.append(None)
                    continue
                entry = []
                for j in range(m_n):
                    if j == m:
                        entry.append(None)
                    else:
                        entry.append([float(lo[k, m, b, j]), float(hi[k, m, b, j])])
                per_attr.append(entry)
            per_class.append(per_attr)
        out.append(per_class)
    return out


def model_to_json(model: Model) -> str:
    k_n, m_n = model.schema.n_classes, model.schema.n_attributes
    counts = [
        [[int(c) for c in model.density.counts[k, m, : model.topology[m]]] for m in range(m_n)]
        for k in range(k_n)
    ]
    weights = [
        [[float(w) for w in model.weights[k, m, : model.topology[m]]] for m in range(m_n)]
        for k in range(k_n)
    ]
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "schema": _schema_to_json(model.schema),
        "topology": list(model.topology),
        "n_train": model.density.n_train,
        "bin_specs": [
            {"lo": s.lo, "hi": s.hi, "count": s.count} for s in model.density.bin_specs
        ],
        "counts": counts,
        "tags": _tags_to_json(model),
        "weights": weights,
        "config": {
            "alpha": model.config.alpha,
            "max_rounds": model.config.max_rounds,
            "tag_gain": model.config.tag_gain,
            "epsilon_floor": model.config.epsilon_floor,
        },
        "trace": {"miss_counts": list(model.trace.miss_counts)},
    }
    return json.dumps(doc, indent=1)


def model_from_json(text: str) -> Model:
    """Read a model document.

    The document's kind and its top-level keys, the schema, the config,
    the trace and each bin grid are checked with the shared JSON checker,
    so a malformed file is a ValueError naming the entry. A bin grid must
    be one :class:`BinSpec` accepts (finite bounds and span, ``lo <= hi``)
    and its count must equal its attribute's topology entry; ``n_train``
    must be positive, every weight finite and positive and every count
    non-negative; the windows are read as they are.
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
    # the cells are not checked one by one, which would slow every load; a
    # nesting that does not match the schema and topology fails as a whole
    try:
        for k in range(k_n):
            for m in range(m_n):
                counts[k, m, : topology[m]] = raw_counts[k][m]
                weights[k, m, : topology[m]] = raw_weights[k][m]
        for k in range(k_n):
            for m in range(m_n):
                for b, entry in enumerate(raw_tags[k][m]):
                    if entry is None:
                        continue
                    for j, bounds in enumerate(entry):
                        if bounds is not None:
                            lo[k, m, b, j], hi[k, m, b, j] = bounds
    except (IndexError, TypeError) as err:
        raise ValueError(
            f'{name} "counts", "weights" or "tags" do not match its schema and topology: {err}'
        ) from None
    # one check of every cell, padding included (count 0, weight 1)
    bad_counts = counts[counts < 0]
    if bad_counts.size:
        raise ValueError(f'{name} "counts" must be >= 0, got {bad_counts[0]}')
    bad_weights = weights[~(np.isfinite(weights) & (weights > 0))]
    if bad_weights.size:
        raise ValueError(f'{name} "weights" must be finite and > 0, got {bad_weights[0]}')
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
    Path(path).write_text(model_to_json(model) + "\n", encoding="utf-8")


def load_model(path: str | Path) -> Model:
    return model_from_json(Path(path).read_text(encoding="utf-8"))
