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

The pass runs as one compiled loop, in ``_native.c``, wherever
:mod:`diffnb.native` can build and load it, and as the numpy pass
(``TrainState._scan_numpy``) on any host where it cannot. Both give the
same bytes. The loop's ``exp`` and ``log`` are numpy's own float64 inner
loops, the ones ``np.exp`` and ``np.log`` dispatch to on this CPU, which
:mod:`diffnb.native` binds once and the loop calls by pointer, with no
Python call. It runs them on contiguous arrays of the row's K scores and
the boosted class's M weights, the lengths and unit strides the numpy
pass hands the ufuncs, so every transcendental bit is the numpy pass's.
A diffnb-owned ``exp`` and ``log`` would replace exactly those two
pointers, and the numpy pass's two ufunc calls. Every other step is one
IEEE operation in the same order, compiled with ``-ffp-contract=off`` so
that no multiply-add is fused: the next-miss test, numpy's argmax with
the first of equal maxima winning; the row's max, the 690 shift and the
``_TINY`` floor; the step; the weight add; the log-weight subtraction;
and the patch, which sums each row's increments from 0.0 in attribute
order, as ``np.bincount`` adds its weights, then adds the sum to every
row of the boosted class's column.

In the numpy pass a miss is one pass over its row with a fixed handful
of numpy calls: one short argmax window finds it; its K log scores are
read once as Python floats around one ``np.exp``; the winner and step
are Python floats; the boosted class's M weights are gathered once
through the row's flat cell indices, raised and scattered back;
``np.log`` of that same array replaces the M log-weights in one gather,
subtraction and scatter; and the per-row patch is one
``np.concatenate``, ``repeat``, ``np.bincount`` and column add. A max,
shift, floor, division, subtraction or product is one IEEE operation
whether its operands are Python floats, numpy scalars or C doubles.

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

from . import native
from .dataset import Dataset, Schema
from .density import DEFAULT_TAG_GAIN, DensityModel, fit_density, likelihood_logs, read_only

# exp() of logs beyond this magnitude risks overflow/underflow; such rows
# are shifted by their max log before exponentiation.
_SAFE_LOG = 690.0
_TINY = float(np.finfo(np.float64).tiny)
# rows the training sweep's next-miss scan reads first; later windows double
_FIRST_WINDOW = 16
# the compiled in-order pass, or None where it cannot be built or loaded
_SWEEP = None if native.load() is None else native.load().diffnb_scan


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


@dataclass(frozen=True)
class Model:
    """A trained classifier: fitted density tables plus boosted weights.

    ``weights`` holds one positive weight per (class, attribute, bin)
    likelihood cell, (K, M, B_max) float64 like ``density.counts``; cells
    beyond an attribute's own bin count are dead and stay at 1. Weights
    start at 1 and only grow. They are a trained model's final weights,
    so the array is made read-only on construction; training grows its
    own. The schema and topology are the density's.
    """

    density: DensityModel
    weights: np.ndarray
    config: TrainConfig
    trace: TrainTrace

    def __post_init__(self):
        read_only(self.weights)

    @property
    def schema(self) -> Schema:
        return self.density.schema

    @property
    def topology(self) -> tuple[int, ...]:
        return self.density.topology

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        """``np.log`` of every weight cell, (K, M, B_max), taken once; read-only.

        The array is a view of a cell-major (M * B_max, K) table, one row
        of K classes per cell: the rows :func:`weighted_log_scores`
        gathers, so a scoring call does not copy the table first.
        """
        k, m, b = self.weights.shape
        cell_major = np.ascontiguousarray(np.log(self.weights).reshape(k, m * b).T)
        return read_only(cell_major).T.reshape(k, m, b)

    @functools.cached_property
    def scoring_arrays(self) -> tuple[np.ndarray, ...]:
        """The tables that score a row, in the order the compiled scoring pass reads them; built once.

        The density's grid arrays (``lo``, ``hi``, ``width``, ``top``), flat
        cell ``offsets``, flat windows and log-likelihood tables for this
        model's tag gain and epsilon, then the cell-major (M * B_max, K)
        log-weights. See :func:`~diffnb.inference.batch_log_scores`.
        """
        tables = self.density.scoring_tables
        grid = tables.grid
        log_base, log_gated = tables.log_likelihoods(self.config.tag_gain, self.config.epsilon_floor)
        cell_major = self.log_weights.reshape(len(self.weights), -1).T
        return (grid.lo, grid.hi, grid.width, grid.top, tables.offsets,
                tables.window_lo, tables.window_hi, log_base, log_gated, cell_major)


def weighted_log_scores(logw: np.ndarray, cells: np.ndarray, loglik: np.ndarray) -> np.ndarray:
    """Per-class log scores for a batch: loglik plus the touched cells' log-weights.

    ``logw`` is (K, M, B_max), ``cells`` the rows' (n, M) int64 flat cell
    indices as :func:`~diffnb.density.likelihood_logs` returns them, and
    ``loglik`` (n, K). Returns (n, K). The gather-and-sum here is the one
    reduction every fresh scoring path uses, so scores never depend on
    which path computed them. Winners and ties are decided on these log
    scores; exponentiation is presentation.

    The gather is one ``take`` of rows of the cell-major (M * B_max, K)
    view of ``logw`` through ``cells``, into (n, M, K): each row's M
    log-weights are then summed one attribute after another, the order of
    a two-array fancy index. ``take`` copies a table that is not already
    cell-major, as a training state's is. The compiled scoring pass of
    :func:`~diffnb.inference.batch_log_scores` adds them in this order.
    """
    picked = logw.reshape(len(logw), -1).T.take(cells, axis=0)  # (n, M, K)
    return loglik + picked.sum(axis=1)


def _row_scores(logs: np.ndarray) -> list[float]:
    """One row of K log scores exponentiated and floored, as Python floats.

    The row's max and shift are Python floats around one ``np.exp`` on the
    row, and the ``_TINY`` floor is Python's ``max``: the same IEEE
    operations on the same values as the batch form of
    :func:`scores_from_logs`, so both agree bit for bit.
    """
    top = max(logs.tolist())
    return [max(s, _TINY) for s in np.exp(logs if abs(top) < _SAFE_LOG else logs - top).tolist()]


def _row_step(scores: list[float], label: int, alpha: float) -> tuple[int, float]:
    """Winner of one row of scores and the step a miss of ``label`` takes.

    The winner is the first of equal maxima, as ``argmax`` picks; the step
    is alpha * (1 - scores[label] / scores[winner]), 0 when ``label`` holds
    the maximum. Python floats make the same IEEE division, subtraction and
    product as numpy scalars.
    """
    winner = scores.index(max(scores))
    return winner, alpha * (1.0 - scores[label] / scores[winner])


def scores_from_logs(log_scores: np.ndarray) -> np.ndarray:
    """Exponentiate per-class log scores, one row per example.

    Rows whose max log is representable are exponentiated directly, so
    the result equals the plain product of likelihoods and weights; rows
    that would over- or underflow are shifted by their max log first.
    Results are floored at the smallest positive normal float, keeping
    every score finite and strictly positive. A single row is scored by
    the training sweep's own row helper, which agrees with the batch form
    bit for bit.
    """
    logs = np.asarray(log_scores, dtype=np.float64)
    if logs.ndim == 1:
        return np.array(_row_scores(logs))
    rowmax = logs.max(axis=1, keepdims=True)
    shift = np.where(np.abs(rowmax) < _SAFE_LOG, 0.0, rowmax)
    return np.maximum(np.exp(logs - shift), _TINY)


def winner_of(log_scores: np.ndarray) -> tuple[int, bool]:
    """Winning class of one log-score row: argmax, lowest index on exact ties.

    The row is read once as Python floats, which compare as numpy's do:
    the winner is the first of equal maxima, and it ties if another score
    equals it. Only a NaN parts ``max`` from ``argmax``, which takes the
    first NaN, so a row whose sum is NaN is decided in numpy.
    """
    row = log_scores.tolist()
    if math.isnan(sum(row)):
        winner = int(np.argmax(log_scores))
        return winner, bool(np.count_nonzero(log_scores == log_scores[winner]) > 1)
    top = max(row)
    return row.index(top), row.count(top) > 1


def winners_of(log_scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winner indices and tie flags of (n, K) log scores, row by row as :func:`winner_of`."""
    winners = np.argmax(log_scores, axis=1)
    best = log_scores[np.arange(len(log_scores)), winners]
    ties = np.count_nonzero(log_scores == best[:, None], axis=1) > 1
    return winners.astype(np.int64), ties


def resolved_config(config: TrainConfig, density: DensityModel) -> TrainConfig:
    """``config`` with the topology and epsilon floor that training ``density`` uses."""
    return dataclasses.replace(
        config,
        topology=density.topology,
        epsilon_floor=density.epsilon_floor if config.epsilon_floor is None else config.epsilon_floor,
    )


@dataclass
class TrainState:
    """Mutable state of one training run; only weights, logw, and scores move.

    ``cells``, each row's flat cell indices as
    :func:`~diffnb.density.likelihood_logs` returns them, and ``loglik``
    are precomputed over the training set once, since the density tables
    do not change during boosting. :meth:`start`, and nothing else,
    derives from ``cells`` which rows each cell holds, as the index both
    passes read: the ascending rows of cell c are
    ``members[starts[c]:starts[c + 1]]``, and ``row_sizes`` (n, M) counts
    the rows of each of a row's cells.
    ``scores`` carries the per-example log scores forward across updates
    and epochs: a boost touches M cells of one class, so only rows sharing
    one of those cells need a score patch. Winners are not stored; the
    sweep reads them from ``scores`` when it reaches a row.
    """

    density: DensityModel
    config: TrainConfig
    weights: np.ndarray
    logw: np.ndarray
    cells: np.ndarray
    loglik: np.ndarray
    labels: np.ndarray
    scores: np.ndarray
    starts: np.ndarray
    members: np.ndarray
    row_sizes: np.ndarray

    def __post_init__(self):
        # each class's cells as one flat view of weights and of logw, which
        # build allocates C-contiguous and training grows in place
        self._class_weights = list(self.weights.reshape(len(self.weights), -1))
        self._class_logw = list(self.logw.reshape(len(self.logw), -1))

    @classmethod
    def build(cls, data: Dataset, config: TrainConfig) -> "TrainState":
        """Fit the density of ``config.topology`` to ``data`` and score its rows once."""
        density = fit_density(data, config.topology)
        config = resolved_config(config, density)
        cells, parts = likelihood_logs(
            density, data.value_matrix(), config.tag_gain, config.epsilon_floor
        )
        return cls.start(density, config, data.labels(), cells, parts.sum(axis=2))

    @classmethod
    def start(
        cls,
        density: DensityModel,
        config: TrainConfig,
        labels: np.ndarray,
        cells: np.ndarray,
        loglik: np.ndarray,
    ) -> "TrainState":
        """The untrained state over precomputed rows: unit weights, scores equal to ``loglik``.

        ``config`` is resolved against ``density`` (:func:`resolved_config`)
        and ``cells`` and ``loglik`` are what :meth:`build` computes for the
        training rows; a search trial assembles them from per-attribute
        columns instead. The rows of each cell are derived here: a stable
        argsort of each column's bins (``cells`` less the density's
        ``offsets``), as the narrowest unsigned type that holds them, which
        numpy radix-sorts, lists them cell by cell in flat cell order.
        """
        k, m, b_max = density.counts.shape
        keys = (cells - density.scoring_tables.offsets).T.astype(np.min_scalar_type(b_max - 1), order="C")
        members = np.argsort(keys, axis=1, kind="stable").astype(np.int64, copy=False).ravel()
        starts = np.zeros(m * b_max + 1, dtype=np.int64)
        np.cumsum(np.bincount(cells.ravel(), minlength=m * b_max), out=starts[1:])
        return cls(
            density=density,
            config=config,
            weights=np.ones((k, m, b_max)),
            logw=np.zeros((k, m, b_max)),
            cells=cells,
            loglik=loglik,
            labels=labels,
            scores=loglik.copy(),  # all log-weights start at 0
            starts=starts,
            members=members,
            row_sizes=np.diff(starts)[cells],
        )

    def _boost(self, i: int, label: int, delta: float) -> None:
        """Add ``delta`` to class ``label``'s weights in row ``i``'s cells; patch logw and scores.

        ``label`` is row ``i``'s own class. Its M weights are gathered once
        through the row's ``cells`` from the class's flat view, raised by
        the step and scattered back; ``np.log`` of that same array replaces
        the M log-weights. Each row sharing a boosted cell then gets its
        log-weight increments summed in attribute order, and the sum added
        to its score for the boosted class; every other score is left as
        it is.
        """
        cells = self.cells[i]
        weights = self._class_weights[label]
        logw = self._class_logw[label]
        boosted = weights[cells] + delta
        weights[cells] = boosted
        new = np.log(boosted)
        amount = new - logw[cells]
        logw[cells] = new

        starts, members = self.starts, self.members
        groups = [members[starts[c] : starts[c + 1]] for c in cells.tolist()]
        amounts = amount.repeat(self.row_sizes[i])
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
        """One sequential pass, boosting each row that misses when visited; returns the miss count.

        Runs the compiled loop where it loaded, else the numpy pass; both
        leave the same weights, log-weights and scores, byte for byte.
        """
        if _SWEEP is None:
            return self._scan_numpy()
        return self._scan_compiled()

    @functools.cached_property
    def _sweep_arrays(self) -> tuple[np.ndarray, ...]:
        """What the compiled loop reads besides scores, weights and logw, built for the first pass.

        Labels and cells as C-contiguous int64; the state's ``starts`` and
        ``members``; and a zeroed length-n patch. The loop indexes with
        labels, cells and members unchecked, so they are checked here.
        """
        n = len(self.cells)
        k = len(self.weights)
        labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        cells = np.ascontiguousarray(self.cells, dtype=np.int64)
        bounds = (("label", labels, k), ("cell", cells, self.weights[0].size), ("row", self.members, n))
        for name, indices, bound in bounds:
            if indices.size and not (indices.min() >= 0 and indices.max() < bound):
                raise ValueError(f"training state: a {name} index lies outside [0, {bound})")
        return labels, cells, self.starts, self.members, np.zeros(n)

    def _scan_compiled(self) -> int:
        """The in-order pass as one compiled loop, with numpy's own exp and log loops.

        A signal handler's exception between two misses (Ctrl-C's
        KeyboardInterrupt) stops the pass and propagates.
        """
        k, m = len(self.weights), self.cells.shape[1]
        return _SWEEP(self.scores, self.weights, self.logw, *self._sweep_arrays, k, m, self.config.alpha)

    def _scan_numpy(self) -> int:
        """The in-order pass in numpy, for hosts without the compiled loop.

        A row's winner is the argmax of its running scores at the moment
        the sweep reaches it, found on demand by ``_next_miss``, so every
        earlier boost of the pass is already patched in. A miss is one
        pass over its row: its K log scores become Python floats around
        one ``np.exp`` (``_row_scores``, as :func:`scores_from_logs` does a
        single row), the winner and the step alpha * (1 - score_true /
        score_winner) come from ``_row_step``, and ``_boost`` adds the step
        to the true class's M touched weights and patches log-weights and
        scores. ``tests/test_boosting.py`` keeps an array form of this
        step as its oracle.
        """
        labels = self.labels.tolist()
        alpha = self.config.alpha
        n = len(labels)
        misses = 0
        i = self._next_miss(0)
        while i < n:
            misses += 1
            label = labels[i]
            _, delta = _row_step(_row_scores(self.scores[i]), label, alpha)
            # a rounding collapse in exp() can hand a log-domain miss the
            # argmax; its ratio is then 1, a zero step, not a boost
            if delta > 0.0:
                self._boost(i, label, delta)
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
        state.scores = weighted_log_scores(state.logw, state.cells, state.loglik)
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
    return train_from(TrainState.build(trainset, config))


def train_from(state: TrainState) -> tuple[Model, TrainTrace, np.ndarray]:
    """Boost an untrained ``state`` until clean or out of rounds, as :func:`train_with_scores` does."""
    miss_counts = []
    for _ in range(state.config.max_rounds):
        miss_counts.append(run_epoch(state))
        if miss_counts[-1] == 0:
            break
    trace = TrainTrace(tuple(miss_counts))
    model = Model(density=state.density, weights=state.weights, config=state.config, trace=trace)
    return model, trace, weighted_log_scores(state.logw, state.cells, state.loglik)
