"""Posteriors and predictions from a trained model.

The per-class score of an example is the product over attributes of the
window-gated likelihood times the cell weight; posteriors normalize the
scores to sum to 1. A constant class prior would scale every score
equally and cancel in the normalization, so none is stored.

Nothing a model's tables determine is recomputed per call: the likelihood
logs come from the density's scoring tables and the log-weights from
``Model.log_weights``, each built on first use and handed on together as
``Model.scoring_arrays``, so a single-row call spends its time on that
row alone.

Where :mod:`diffnb.native`'s library loads, :func:`batch_log_scores` is
one compiled call (``diffnb_log_scores``): each row's bins, cells and
window check, each class's sum of its parts, and the log-weights of its
cells. It returns the numpy chain's bytes, ``likelihood_logs``,
``parts.sum(axis=2)`` and ``weighted_log_scores``, which runs where the
library does not load and for any batch holding a NaN, so that
:meth:`~diffnb.density.BinGrid.bins` refuses the value by name. The
parts are summed in numpy's pairwise order, as ``pairwise_sum`` in
``_native.c`` writes it down; the tests compare both paths on widths
that reach each of its branches.

:func:`posterior` is one compiled call too (``diffnb_posterior``): the
row's log scores as above, then the max and the 690 shift, ``exp``, the
``_TINY`` floor, the sum in a 1-D ``sum``'s order, the division, the
winner and the tie. Its ``exp`` is numpy's own float64 loop, which the
library calls by pointer (see :mod:`diffnb.native`), so the
probabilities are the numpy chain's bits. A NaN value and a row with a
log score that is not finite go through the numpy chain, which keeps
its message and its warnings, as does every row where the library does
not load. Only the numpy chain follows ``np.errstate``: the compiled
pass never warns or raises on an underflowing ``exp``.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import native
from .boosting import Model, scores_from_logs, weighted_log_scores, winner_of, winners_of
from .dataset import SchemaError
from .density import likelihood_logs

# the compiled scoring and posterior passes, or None where the library cannot be built or loaded
_LOG_SCORES = None if native.load() is None else native.load().diffnb_log_scores
_POSTERIOR = None if native.load() is None else native.load().diffnb_posterior


@dataclass(frozen=True)
class Posterior:
    """Normalized class probabilities for one example."""

    probabilities: tuple[float, ...]
    winner: int
    tie: bool


def _as_rows(model: Model, values: Sequence[float]) -> np.ndarray:
    m = model.schema.n_attributes
    if len(values) != m:
        raise SchemaError(f"example has {len(values)} values, model expects {m}")
    return np.ascontiguousarray(values, dtype=np.float64).reshape(1, m)


def batch_log_scores(model: Model, values: np.ndarray) -> np.ndarray:
    """Per-class log scores for an (n, M) value matrix.

    Winners and ties are always decided on these, the same quantities
    the training sweep ranks, so a converged model evaluates clean on
    its own training set.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    config = model.config
    if _LOG_SCORES is not None:
        n, m = values.shape
        k = model.schema.n_classes
        scores = np.empty((n, k))
        if _LOG_SCORES((values, *model.scoring_arrays, scores), k, m) == 0:
            return scores
        # a NaN value: the numpy chain refuses it, with BinGrid.bins's message
    cells, parts = likelihood_logs(model.density, values, config.tag_gain, config.epsilon_floor)
    return weighted_log_scores(model.log_weights, cells, parts.sum(axis=2))


def posterior(model: Model, values: Sequence[float]) -> Posterior:
    """Normalized posterior over classes; ties go to the lowest class index.

    The row is scored as :func:`batch_log_scores` scores a batch of one,
    so a posterior agrees with :func:`predict_batch` bit for bit; the
    first call on a model builds its scoring tables, later calls only
    read them.
    """
    rows = _as_rows(model, values)
    if _POSTERIOR is not None:
        done = _POSTERIOR((rows, *model.scoring_arrays), model.schema.n_classes, rows.shape[1])
        if done is not None:
            return Posterior(*done)
    # the numpy chain: no library, a NaN value or a log score that is not finite
    logs = batch_log_scores(model, rows)[0]
    scores = scores_from_logs(logs)
    probs = scores / scores.sum()
    winner, tie = winner_of(logs)
    return Posterior(tuple(probs.tolist()), winner, tie)


def posterior_batch(model: Model, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalized posteriors (n, K) and winner indices (n,) of an (n, M) value matrix.

    Row for row equal to :func:`posterior` bit for bit: the scores are
    exponentiated as :func:`~diffnb.boosting.scores_from_logs` does a
    single row, and each row's sum runs over its K contiguous scores in
    the order a 1-D sum does.
    """
    logs = batch_log_scores(model, np.asarray(values, dtype=np.float64))
    scores = scores_from_logs(logs)
    winners, _ = winners_of(logs)
    return scores / scores.sum(axis=1, keepdims=True), winners


def predict(model: Model, values: Sequence[float]) -> str:
    """Class label of the posterior winner."""
    return model.schema.classes[posterior(model, values).winner]


def predict_batch(model: Model, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winner indices and tie flags for an (n, M) value matrix.

    Row-for-row identical to calling :func:`posterior` per example; the
    batch exists so evaluation over large datasets stays cheap.
    """
    return winners_of(batch_log_scores(model, np.asarray(values, dtype=np.float64)))
