"""Posteriors and predictions from a trained model.

The per-class score of an example is the product over attributes of the
window-gated likelihood times the cell weight; posteriors normalize the
scores to sum to 1. A constant class prior would scale every score
equally and cancel in the normalization, so none is stored.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boosting import Model, scores_from_logs, weighted_log_scores, winner_of, winners_of
from .dataset import Example, SchemaError
from .density import likelihood_logs


@dataclass(frozen=True)
class Posterior:
    """Normalized class probabilities for one example."""

    probabilities: tuple[float, ...]
    winner: int
    tie: bool


def _as_rows(model: Model, example) -> np.ndarray:
    values = example.values if isinstance(example, Example) else example
    m = model.schema.n_attributes
    if len(values) != m:
        raise SchemaError(f"example has {len(values)} values, model expects {m}")
    return np.asarray(values, dtype=np.float64).reshape(1, m)


def batch_log_scores(model: Model, values: np.ndarray) -> np.ndarray:
    """Per-class log scores for an (n, M) value matrix.

    Winners and ties are always decided on these, the same quantities
    the training sweep ranks, so a converged model evaluates clean on
    its own training set.
    """
    bins, parts = likelihood_logs(
        model.density, values, model.config.tag_gain, model.config.epsilon_floor
    )
    return weighted_log_scores(np.log(model.weights.weights), bins, parts.sum(axis=2))


def batch_scores(model: Model, values: np.ndarray) -> np.ndarray:
    """Unnormalized per-class scores for an (n, M) value matrix."""
    return scores_from_logs(batch_log_scores(model, values))


def class_scores(model: Model, example) -> np.ndarray:
    """Unnormalized per-class scores of one example (or bare value sequence).

    Equals the direct product of gated likelihoods and weights whenever
    that product is representable; extreme rows are rescaled against
    their max log, which the normalized posterior cancels out.
    """
    return batch_scores(model, _as_rows(model, example))[0]


def posterior(model: Model, example) -> Posterior:
    """Normalized posterior over classes; ties go to the lowest class index."""
    logs = batch_log_scores(model, _as_rows(model, example))[0]
    scores = scores_from_logs(logs)
    probs = scores / scores.sum()
    winner, tie = winner_of(logs)
    return Posterior(tuple(float(p) for p in probs), winner, tie)


def predict(model: Model, example) -> str:
    """Class label of the posterior winner."""
    return model.schema.classes[posterior(model, example).winner]


def predict_batch(model: Model, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winner indices and tie flags for an (n, M) value matrix.

    Row-for-row identical to calling :func:`posterior` per example; the
    batch exists so evaluation over large datasets stays cheap.
    """
    return winners_of(batch_log_scores(model, np.asarray(values, dtype=np.float64)))
