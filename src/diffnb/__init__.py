"""Difference-boosted naive Bayes: binned joint likelihoods with per-bin
attribute windows, plus per-cell weights grown on training misses."""

from .boosting import (
    Model,
    TrainConfig,
    TrainTrace,
    boost_example,
    run_epoch,
    train,
)
from .dataset import (
    AttributeSpec,
    Dataset,
    ParseError,
    ParseOptions,
    Schema,
    SchemaError,
    load_schema,
    parse_table,
    split_dataset,
)
from .density import (
    BinSpec,
    DensityModel,
    bin_index,
    fit_density,
    make_bin_spec,
    resolve_topology,
    tagged_likelihood,
)
from .evaluation import Report, evaluate, load_suite, run_benchmark
from .inference import Posterior, class_scores, posterior, predict
from .modelfile import load_model, model_from_json, model_to_json, save_model
from .topology import SearchResult, SearchSpec, Trial, coordinate_search

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec",
    "BinSpec",
    "Dataset",
    "DensityModel",
    "Model",
    "ParseError",
    "ParseOptions",
    "Posterior",
    "Report",
    "Schema",
    "SchemaError",
    "SearchResult",
    "SearchSpec",
    "TrainConfig",
    "TrainTrace",
    "Trial",
    "bin_index",
    "boost_example",
    "class_scores",
    "coordinate_search",
    "evaluate",
    "fit_density",
    "load_model",
    "load_schema",
    "load_suite",
    "make_bin_spec",
    "model_from_json",
    "model_to_json",
    "parse_table",
    "posterior",
    "predict",
    "resolve_topology",
    "run_benchmark",
    "run_epoch",
    "save_model",
    "split_dataset",
    "tagged_likelihood",
    "train",
]
