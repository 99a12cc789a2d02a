"""Weight boosting: the training loop that grows per-cell weights on misses.

Every likelihood cell (class, attribute, bin) carries a multiplicative
weight, initially 1. Training sweeps the dataset in order; each example
is scored under the weights as they exist at that moment, and a
misclassified example adds

    delta = alpha * (1 - score_true / score_winner)

to the weights of the true class's cells touched by the example. Epochs
repeat until an epoch misclassifies nothing or ``max_rounds`` is hit.

The sweep keeps a running table of log scores, patched after each boost,
and no record of winners: it finds the next row to boost on demand, as
the first row ahead whose argmax misses its label. A boost only raises
the true class's scores, so a row's argmax is exactly the winner a
per-boost flip check would keep, down to ties: argmax takes the lowest
index, which is how a raised class that ties the held winner takes the
row from a higher-indexed one.

On small tables a miss is mostly call overhead, so its path is a fixed
handful of numpy calls: one short argmax window, one ``np.exp`` on the
row's K log scores, the winner and step as Python floats, one gather and
scatter each of ``weights`` and ``logw`` through the touched cells' flat
indices around one ``np.log``, and the per-row patch. The scalar steps
change no bit: ``np.exp`` still runs on the same row, a max, shift,
division, subtraction or product is one IEEE operation whether its
operands are Python floats or numpy scalars, and the first of equal
maxima wins as with ``argmax``.

Scoring here is the single authority shared with inference and
evaluation: log-likelihood parts plus log-weights, exponentiated
per row against the row's max log only when the magnitudes demand it,
so moderate scores equal the plain probability products.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset, Schema
from .density import DEFAULT_TAG_GAIN, DensityModel, fit_density, likelihood_logs

# exp() of logs beyond this magnitude risks overflow/underflow; such rows
# are shifted by their max log before exponentiation.
_SAFE_LOG = 690.0
_TINY = float(np.finfo(np.float64).tiny)
# rows the training sweep's next-miss scan reads first; later windows double
_FIRST_WINDOW = 16


@dataclass(frozen=True)
class WeightTable:
    """One positive weight per (class, attribute, bin) likelihood cell.

    ``weights`` is (K, M, B_max) float64; cells beyond an attribute's own
    bin count are dead and stay at 1. Weights start at 1 and only grow.
    """

    weights: np.ndarray


@dataclass(frozen=True)
class TrainConfig:
    """Knobs of the training loop.

    ``epsilon_floor`` of None means one tenth of a single training count,
    1/(10 n); ``topology`` of None means 5 bins per continuous attribute.
    Both are resolved to concrete values when training starts.
    """

    alpha: float = 2.0
    max_rounds: int = 500
    tag_gain: float = DEFAULT_TAG_GAIN
    epsilon_floor: float | None = None
    topology: object = None

    def __post_init__(self):
        # an infinite step or floor turns scores into inf - inf = nan
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if isinstance(self.max_rounds, bool) or not isinstance(self.max_rounds, (int, np.integer)):
            raise ValueError(f"max_rounds must be an integer, got {self.max_rounds!r}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if not 0.0 < self.tag_gain <= 1.0:
            raise ValueError(f"tag_gain must be in (0, 1], got {self.tag_gain}")
        if self.epsilon_floor is not None and not (
            self.epsilon_floor > 0 and math.isfinite(self.epsilon_floor)
        ):
            raise ValueError(f"epsilon_floor must be finite and > 0, got {self.epsilon_floor}")


@dataclass(frozen=True)
class TrainTrace:
    """Per-epoch misclassification counts on the training set."""

    miss_counts: tuple[int, ...]

    @property
    def epochs(self) -> int:
        return len(self.miss_counts)

    @property
    def converged(self) -> bool:
        return bool(self.miss_counts) and self.miss_counts[-1] == 0

    @property
    def converged_epoch(self) -> int | None:
        """1-based epoch whose sweep first misclassified nothing, if any."""
        return self.epochs if self.converged else None


@dataclass(frozen=True)
class Model:
    """A trained classifier: fitted density tables plus boosted weights."""

    schema: Schema
    topology: tuple[int, ...]
    density: DensityModel
    weights: WeightTable
    config: TrainConfig
    trace: TrainTrace


def weighted_log_scores(logw: np.ndarray, bins: np.ndarray, loglik: np.ndarray) -> np.ndarray:
    """Per-class log scores for a batch: loglik plus the touched cells' log-weights.

    ``logw`` is (K, M, B_max), ``bins`` (n, M) int64, ``loglik`` (n, K).
    Returns (n, K). The gather-and-sum here is the one reduction every
    fresh scoring path uses, so scores never depend on which path
    computed them. Winners and ties are decided on these log scores;
    exponentiation is presentation.
    """
    n, m = bins.shape
    cols = np.arange(m)[None, :]
    picked = logw[:, cols, bins]  # (K, n, M)
    return loglik + picked.sum(axis=2).T


def scores_from_logs(log_scores: np.ndarray) -> np.ndarray:
    """Exponentiate per-class log scores, one row per example.

    Rows whose max log is representable are exponentiated directly, so
    the result equals the plain product of likelihoods and weights; rows
    that would over- or underflow are shifted by their max log first.
    Results are floored at the smallest positive normal float, keeping
    every score finite and strictly positive.

    A single row, as the training sweep scores each miss, takes its max
    and shift as Python floats around one ``np.exp``: the same IEEE
    operations on the same values as the batch form, so both forms agree
    bit for bit.
    """
    logs = np.asarray(log_scores, dtype=np.float64)
    if logs.ndim == 1:
        top = max(logs.tolist())
        return np.maximum(np.exp(logs if abs(top) < _SAFE_LOG else logs - top), _TINY)
    rowmax = logs.max(axis=1, keepdims=True)
    shift = np.where(np.abs(rowmax) < _SAFE_LOG, 0.0, rowmax)
    return np.maximum(np.exp(logs - shift), _TINY)


def winner_of(log_scores: np.ndarray) -> tuple[int, bool]:
    """Winning class of one log-score row: argmax, lowest index on exact ties."""
    winner = int(np.argmax(log_scores))
    tie = bool(np.count_nonzero(log_scores == log_scores[winner]) > 1)
    return winner, tie


def winners_of(log_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winner indices and tie flags of (n, K) log scores, row by row as :func:`winner_of`."""
    winners = np.argmax(log_scores, axis=1)
    best = log_scores[np.arange(len(log_scores)), winners]
    ties = np.count_nonzero(log_scores == best[:, None], axis=1) > 1
    return winners.astype(np.int64), ties


def boost_example(
    weights: np.ndarray, bins: np.ndarray, label: int, scores: np.ndarray, alpha: float
) -> float:
    """Apply one boosting update for a misclassified example; returns the step.

    ``bins`` is the example's (M,) bin row, each bin below B_max, and
    ``scores`` its per-class unnormalized scores. Adds delta = alpha * (1 - scores[label]/scores[winner])
    to the true class's M touched weight cells, in place. An exact score
    tie broken against the true class is still a miss but yields delta 0
    and changes nothing. Calling this on a correctly classified example
    (the true label wins the argmax) is a caller bug and raises.

    The winner (the first of equal maxima, as ``argmax`` picks) and the
    step are Python floats: the same IEEE division, subtraction and
    product as on numpy scalars.
    """
    row = scores.tolist()
    winner = row.index(max(row))
    if winner == label:
        raise ValueError("boost_example called on a correctly classified example")
    delta = alpha * (1.0 - row[label] / row[winner])
    if delta > 0.0:
        _, m, b = weights.shape
        weights[label].flat[_cell_offsets(m, b) + bins] += delta
    return float(delta)


@functools.cache
def _cell_offsets(n_attributes: int, n_bins: int) -> np.ndarray:
    """Flat index of each attribute's bin 0 within one class's (M, B) cells; read-only."""
    offsets = np.arange(n_attributes) * n_bins
    offsets.flags.writeable = False
    return offsets


@dataclass
class TrainState:
    """Mutable state of one training run; only weights, logw, and scores move.

    ``bins``, ``loglik``, ``rows_by_cell`` and its (M, B_max) table of
    group sizes ``cell_sizes``, and ``cells``, each row's flat cell index
    ``m * B_max + bin`` per attribute, are precomputed over the training
    set once, since the density tables do not change during boosting.
    ``scores`` carries the per-example log scores forward across updates
    and epochs: a boost touches M cells of one class, so only rows sharing
    one of those cells need a score patch. Winners are not stored; the
    sweep reads them from ``scores`` when it reaches a row.
    """

    density: DensityModel
    config: TrainConfig
    weights: np.ndarray
    logw: np.ndarray
    bins: np.ndarray
    loglik: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    rows_by_cell: tuple[tuple[np.ndarray, ...], ...]
    cell_sizes: np.ndarray
    cells: np.ndarray

    @classmethod
    def build(cls, data: Dataset, config: TrainConfig) -> "TrainState":
        density = fit_density(data, config.topology)
        config = dataclasses.replace(
            config,
            topology=density.topology,
            epsilon_floor=(
                density.epsilon_floor if config.epsilon_floor is None else config.epsilon_floor
            ),
        )
        bins, parts = likelihood_logs(
            density, data.value_matrix(), config.tag_gain, config.epsilon_floor
        )
        loglik = parts.sum(axis=2)
        k = data.schema.n_classes
        m = data.schema.n_attributes
        shape = (k, m, max(density.topology))
        rows_by_cell = tuple(
            tuple(np.nonzero(bins[:, col] == b)[0] for b in range(density.topology[col]))
            for col in range(m)
        )
        cell_sizes = np.zeros((m, max(density.topology)), dtype=np.int64)
        for col, groups in enumerate(rows_by_cell):
            cell_sizes[col, : len(groups)] = [len(g) for g in groups]
        return cls(
            density=density,
            config=config,
            weights=np.ones(shape),
            logw=np.zeros(shape),
            bins=bins,
            loglik=loglik,
            labels=data.labels(),
            scores=loglik.copy(),  # all log-weights start at 0
            rows_by_cell=rows_by_cell,
            cell_sizes=cell_sizes,
            cells=bins + _cell_offsets(m, shape[2]),
        )

    def _apply_update(self, i: int) -> None:
        """Propagate example ``i``'s boost into logw and the running scores.

        Each row sharing a boosted cell gets its log-weight increments
        summed in attribute order, then the sum added to its score for
        the true class; every other score is left as it is. The boosted
        class's weights and log-weights are read and written as flat
        views (``build`` allocates both C-contiguous) through the row's
        ``cells``, with one ``np.log`` over the M new weights.
        """
        label = int(self.labels[i])
        cells = self.cells[i]
        weights = self.weights[label].reshape(-1)
        logw = self.logw[label].reshape(-1)
        new = np.log(weights[cells])
        amount = new - logw[cells]
        logw[cells] = new

        groups = [rows[b] for rows, b in zip(self.rows_by_cell, self.bins[i].tolist())]
        amounts = amount.repeat(self.cell_sizes.reshape(-1)[cells])
        patch = np.bincount(np.concatenate(groups), weights=amounts, minlength=len(self.labels))
        self.scores[:, label] += patch

    def _next_miss(self, start: int) -> int:
        """First row at or after ``start`` whose running argmax misses its label.

        Reads ``_FIRST_WINDOW`` rows, then windows twice as long each
        time, so a nearby miss costs one short argmax and a long clean
        stretch a logarithmic number of them. Returns n when no row misses.
        """
        n = len(self.labels)
        width = _FIRST_WINDOW
        while start < n:
            stop = start + width
            wins = self.scores[start:stop].argmax(axis=1)
            missed = (wins != self.labels[start:stop]).nonzero()[0]
            if missed.size:
                return start + int(missed[0])
            start = stop
            width *= 2
        return n

    def _scan(self) -> int:
        """One sequential pass, boosting each row that misses when visited.

        A row's winner is the argmax of its running scores at the moment
        the sweep reaches it, found on demand by ``_next_miss``, so every
        earlier boost of the pass is already patched in. A miss is scored
        and boosted by ``scores_from_logs`` and ``boost_example``, the
        functions inference and callers use, on the row's single score
        row.
        """
        labels = self.labels
        alpha = self.config.alpha
        n = len(labels)
        misses = 0
        i = self._next_miss(0)
        while i < n:
            misses += 1
            label = int(labels[i])
            row_scores = scores_from_logs(self.scores[i])
            # a rounding collapse in exp() can hand a log-domain miss
            # the argmax; that is a zero step, not a boost
            if row_scores.argmax() != label:
                if boost_example(self.weights, self.bins[i], label, row_scores, alpha) > 0.0:
                    self._apply_update(i)
            i = self._next_miss(i + 1)
        return misses


def run_epoch(state: TrainState) -> int:
    """One in-order sweep over the training set; returns the miss count.

    Each example is scored under the weights as of its visit; an update
    only disturbs the scores of rows sharing a boosted cell, so the
    sweep patches those incrementally and reads each row's winner off
    the patched scores when it gets there. Incremental patching can drift
    from fresh summation by rounding ulps, so a clean pass is certified:
    scores are rebuilt from scratch and the sweep repeated once. A
    returned 0 therefore agrees exactly with fresh evaluation.
    """
    misses = state._scan()
    if misses == 0:
        state.scores = weighted_log_scores(state.logw, state.bins, state.loglik)
        misses = state._scan()
    return misses


def train(trainset: Dataset, config: TrainConfig = TrainConfig()) -> tuple[Model, TrainTrace]:
    """Fit density tables once, then boost until clean or out of rounds.

    Returns the model and its per-epoch miss trace; :func:`train_with_scores`
    also returns the training set's final log scores.
    """
    model, trace, _ = train_with_scores(trainset, config)
    return model, trace


def train_with_scores(
    trainset: Dataset, config: TrainConfig = TrainConfig()
) -> tuple[Model, TrainTrace, np.ndarray]:
    """:func:`train`, plus the trained model's (n, K) log scores of ``trainset``.

    The scores are one fresh :func:`weighted_log_scores` over the state
    training ends in, not the running table: they are exactly what
    scoring ``trainset`` with the returned model computes, since ``logw``
    holds ``np.log`` of every weight cell and the likelihood parts come
    from the same density, rows and config. A caller gets the training
    set's verdict from them without scoring its rows again.
    """
    if len(trainset) == 0:
        raise ValueError("training set is empty")
    state = TrainState.build(trainset, config)
    miss_counts = []
    for _ in range(state.config.max_rounds):
        miss_counts.append(run_epoch(state))
        if miss_counts[-1] == 0:
            break
    trace = TrainTrace(tuple(miss_counts))
    model = Model(
        schema=trainset.schema,
        topology=state.density.topology,
        density=state.density,
        weights=WeightTable(state.weights),
        config=state.config,
        trace=trace,
    )
    return model, trace, weighted_log_scores(state.logw, state.bins, state.loglik)
