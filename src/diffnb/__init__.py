"""Difference-boosted naive Bayes: binned joint likelihoods with per-bin
attribute windows, plus per-cell weights grown on training misses."""

import importlib

# public name -> the submodule defining it; a name's module is imported on
# first access (PEP 562), so importing the package or one of its modules
# loads only what that code uses
_EXPORTS = {
    **dict.fromkeys(("Model", "TrainConfig", "TrainTrace", "run_epoch", "train"), "boosting"),
    **dict.fromkeys(
        (
            "AttributeSpec", "Dataset", "ParseError", "ParseOptions", "Schema", "SchemaError",
            "load_schema", "parse_table", "split_dataset",
        ),
        "dataset",
    ),
    **dict.fromkeys(
        ("BinSpec", "DensityModel", "fit_density", "make_bin_spec", "resolve_topology"), "density"
    ),
    **dict.fromkeys(("Report", "evaluate", "load_suite", "run_benchmark"), "evaluation"),
    **dict.fromkeys(("Posterior", "posterior", "predict"), "inference"),
    **dict.fromkeys(("load_model", "model_from_json", "model_to_json", "save_model"), "modelfile"),
    **dict.fromkeys(("SearchResult", "SearchSpec", "Trial", "coordinate_search"), "topology"),
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)
