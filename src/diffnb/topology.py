"""Coordinate search over per-attribute bin counts.

Bin counts that help individually tend to help together, so the search
sweeps one attribute at a time from a uniform baseline, keeps each
attribute's best count, then trains the combination of winners to verify
it. Every candidate training is an independent pure function of
(train, validation, topology), which is what makes parallel sweeps safe
and serial/parallel results identical. No sweep depends on another's
result, or on the baseline's, so the baseline and every sweep go to the
runner as one work queue; only the verification trial waits for them.

A trial is one training and one scoring of the validation set: training
hands back its final training-set scores, so the training-set accuracy
costs no second scoring pass.

A trial is assembled from per-(attribute, bin count) columns. Attribute
j's grid, bins, counts and windows depend only on column j's values, its
count and the other attributes' raw values over its cells, and so do its
gated likelihood parts for the training and validation rows (a window
bounds raw values, not bins). So the search builds the baseline's M
columns once, before its first batch starts a worker thread, and every
thread only reads them. A sweep trial, which differs from the baseline in
one attribute, fits that one column and scores that one attribute,
through the same ``fit_column`` and ``likelihood_logs`` a fresh training
uses, and copies the rest into place. The search holds the M shared
columns plus each running trial's own, which a trial drops when it ends,
however many trials or candidates the search has.
The assembled density, cells and likelihood sums equal
``TrainState.build``'s byte for byte: copying moves no bit, bins become
cells through the density's offsets, and the parts are summed from the
(K, n, M) layout ``likelihood_logs`` returns, so every row adds its parts
in the same order; the state derives each cell's rows as a fresh one does.

With ``parallelism > 1``, a batch of more than one new topology trains on
``parallelism`` worker threads started for that batch (fewer when the
batch is smaller). A trial's two long passes, the training sweep and the
window check, are compiled loops that run without the interpreter lock
(see :mod:`diffnb.native`), so threads train at once. Every worker claims
the next unclaimed index of the batch under a lock and puts its trial in
a list the threads share. The searching thread trains nothing: it waits
for each trial in list order and records it. Where the compiled sweep did
not load, every batch trains serially, with the same results: the numpy
sweep holds the lock, and two threads ran slower than one.
"""

import dataclasses
import threading
from dataclasses import dataclass
from itertools import product
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import boosting
from .boosting import (
    TrainConfig,
    TrainState,
    resolved_config,
    train_from,
    weighted_log_scores,
)
from .dataset import Dataset
from .density import (
    DensityColumn,
    DensityModel,
    assemble_density,
    fit_column,
    likelihood_logs,
    make_bin_spec,
    resolve_topology,
)
from .evaluation import check_scorable, scores_report

@dataclass(frozen=True)
class SearchSpec:
    """Search space and budget.

    ``ranges`` holds one nonempty candidate tuple per attribute; use a
    singleton to pin an attribute (discrete attributes must stay pinned
    to their value count). ``budget`` caps the number of trainings.
    ``parallelism`` is the number of trainings run at once: above 1,
    worker threads each train one (where the compiled sweep loaded;
    elsewhere batches train serially). The three counts are integers,
    numpy's included, and not bools; ``exhaustive`` is a bool.
    """

    ranges: tuple[tuple[int, ...], ...]
    budget: int = 64
    parallelism: int = 1
    baseline_bins: int = 5
    exhaustive: bool = False

    def __post_init__(self):
        if not self.ranges or any(len(r) == 0 for r in self.ranges):
            raise ValueError("every attribute needs a nonempty candidate range")
        for name in ("budget", "parallelism", "baseline_bins"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.exhaustive, (bool, np.bool_)):
            raise ValueError(f"exhaustive must be a bool, got {self.exhaustive!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {self.parallelism}")


@dataclass(frozen=True)
class Trial:
    topology: tuple[int, ...]
    train_accuracy: float
    val_accuracy: float


@dataclass(frozen=True)
class SearchResult:
    best_topology: tuple[int, ...]
    best_accuracy: float
    trials: tuple[Trial, ...]
    truncated: bool


class _Column(NamedTuple):
    """One attribute at one bin count, over a search's training and validation rows.

    ``fit`` holds the grid, the training bins, the counts and the windows;
    ``train_parts`` (K, n) and ``val_parts`` (K, n_val) the rows' gated
    likelihood parts, and ``val_bins`` the validation rows' bins. None of
    it depends on another attribute's bin count, so any trial with this
    count here can use it, mapping bins to cells through its ``offsets``.
    """

    fit: DensityColumn
    train_parts: np.ndarray
    val_bins: np.ndarray
    val_parts: np.ndarray


def _summed(parts: Sequence[np.ndarray]) -> np.ndarray:
    """(n, K) sums over the attributes of their (K, n) likelihood parts.

    The parts are laid out as :func:`~diffnb.density.likelihood_logs` lays
    them out, one (K, n, M) C-order buffer viewed as (n, K, M), so the sum
    adds the same values in the same order as its ``parts.sum(axis=2)``;
    this matters from M = 8 on, where numpy sums a contiguous axis in
    pairs. The result is class-major, as that sum's is.
    """
    k, n = parts[0].shape
    buffer = np.empty((k, n, len(parts)))
    for j, part in enumerate(parts):
        buffer[:, :, j] = part
    return buffer.transpose(1, 0, 2).sum(axis=2)


class _Columns:
    """A search's datasets, and the density columns its trials share.

    ``shared`` holds one :class:`_Column` per attribute, those of the
    topology given to :meth:`share`; a trial builds only the columns whose
    count differs from it, and drops them when it ends. So a search holds
    the M shared columns plus each running trial's M, however many trials
    or candidates it has. The search shares before its first batch starts
    a worker thread; no trial writes the shared columns, so the threads
    read them without a lock. A trial's cells come from
    ``ScoringTables.offsets``, and the rows of each cell from
    ``TrainState.start``, as a fresh training's.
    """

    def __init__(self, trainset: Dataset, validation: Dataset, base_config: TrainConfig):
        self.trainset = trainset
        self.validation = validation
        self.base_config = base_config
        self.shared: tuple[_Column, ...] = ()

    def share(self, topology: tuple[int, ...]) -> None:
        """Build every column of ``topology`` and keep them for the trials that follow."""
        _, _, self.shared = self._assemble(topology)

    def _assemble(self, topology: tuple[int, ...]) -> tuple[DensityModel, TrainConfig, tuple[_Column, ...]]:
        """``topology``'s density, resolved config and columns: shared ones where the count matches.

        A column not shared is fitted with :func:`fit_column`, and its
        likelihood parts come from :func:`likelihood_logs` on the trial's
        assembled density, restricted to the new attributes.
        """
        trainset, validation = self.trainset, self.validation
        schema = trainset.schema
        if len(trainset) == 0:
            raise ValueError("training set is empty")
        counts = resolve_topology(schema, topology)
        values, labels = trainset.value_matrix(), trainset.labels()
        shared = self.shared
        fits, new = [], []
        for j, count in enumerate(counts):
            if shared and shared[j].fit.spec.count == count:
                fits.append(shared[j].fit)
            else:
                spec = make_bin_spec(values[:, j], count, attribute=j)
                fits.append(fit_column(values, labels, schema.n_classes, spec))
                new.append(j)
        density = assemble_density(schema, fits, len(values))
        config = resolved_config(dataclasses.replace(self.base_config, topology=topology), density)
        columns = list(shared) if shared else [None] * len(counts)
        if new:
            check_scorable(schema, validation)
            attributes = None if len(new) == len(counts) else new
            _, train_parts = likelihood_logs(density, values, config.tag_gain, config.epsilon_floor, attributes)
            val_cells, val_parts = likelihood_logs(
                density, validation.value_matrix(), config.tag_gain, config.epsilon_floor, attributes
            )
            train_parts, val_parts = train_parts.transpose(1, 0, 2), val_parts.transpose(1, 0, 2)
            val_bins = val_cells - density.scoring_tables.offsets[new]
            for i, j in enumerate(new):
                columns[j] = _Column(fits[j], train_parts[:, :, i], val_bins[:, i], val_parts[:, :, i])
        return density, config, tuple(columns)

    def start(self, topology: tuple[int, ...]) -> tuple[TrainState, np.ndarray, np.ndarray]:
        """``topology``'s untrained state, and the validation rows' (n, M) cells and (n, K) likelihood sums.

        The density, cells, likelihood sums and rows per cell are what
        :meth:`TrainState.build <diffnb.boosting.TrainState.build>` and
        :func:`~diffnb.inference.batch_log_scores` compute, byte for byte:
        each column's bins become cells through the density's ``offsets``,
        as ``likelihood_logs`` makes them, and the parts are summed in its
        layout; the state derives the rows of each cell from the cells.
        """
        density, config, columns = self._assemble(topology)
        offsets = density.scoring_tables.offsets
        cells = np.column_stack([column.fit.bins for column in columns]) + offsets
        state = TrainState.start(
            density, config, self.trainset.labels(), cells, _summed([column.train_parts for column in columns])
        )
        val_cells = np.column_stack([column.val_bins for column in columns]) + offsets
        return state, val_cells, _summed([column.val_parts for column in columns])

    def train(self, topology: tuple[int, ...]) -> Trial:
        """Train one candidate topology from its columns and score it on both sets.

        Training hands back its final scores of the training rows, so the
        training accuracy costs no second pass; the validation rows are
        scored from their columns as :func:`~diffnb.evaluation.evaluate`
        scores them.
        """
        state, val_cells, val_loglik = self.start(topology)
        model, _, train_logs = train_from(state)
        val_logs = weighted_log_scores(model.log_weights, val_cells, val_loglik)
        return Trial(
            topology,
            scores_report(model, self.trainset, train_logs).accuracy,
            scores_report(model, self.validation, val_logs).accuracy,
        )


class _Batch:
    """One parallel batch: its topologies, claimed in list order by worker threads, and their trials by index.

    A failed trial or :meth:`stop` ends the claims; topologies claimed before it still finish.
    """

    def __init__(self, columns: _Columns, fresh: list[tuple[int, ...]]):
        self.columns = columns
        self.fresh = fresh
        # each topology's trial, or the error its training raised, once in
        self.done: list[Trial | BaseException | None] = [None] * len(fresh)
        self._unclaimed = 0  # the first unclaimed index; len(fresh) once none is left or the batch stopped
        self._changed = threading.Condition()

    def train(self) -> None:
        """Train the next unclaimed topology until none is left or the batch stops; a worker thread's whole run."""
        while True:
            with self._changed:
                i = self._unclaimed
                if i == len(self.fresh):
                    return
                self._unclaimed += 1
            try:
                item = self.columns.train(self.fresh[i])
            except BaseException as err:  # raised in its turn by the searching thread
                item = err
                self.stop()
            with self._changed:
                self.done[i] = item
                self._changed.notify()

    def stop(self) -> None:
        with self._changed:
            self._unclaimed = len(self.fresh)

    def trial(self, i: int) -> Trial:
        """Trial ``i`` once it is in; the error its training raised is raised as itself."""
        with self._changed:
            self._changed.wait_for(lambda: self.done[i] is not None)
        if isinstance(self.done[i], BaseException):
            raise self.done[i]
        return self.done[i]


class _Runner:
    """Budgeted, cached trial execution; repeats of a topology are free."""

    def __init__(self, trainset, validation, base_config, spec, on_trial):
        self.columns = _Columns(trainset, validation, base_config)
        self.spec = spec
        self.on_trial = on_trial
        self.cache: dict[tuple[int, ...], Trial] = {}
        self.log: list[Trial] = []
        self.spent = 0
        self.truncated = False

    def _record(self, trial: Trial) -> None:
        self.cache[trial.topology] = trial
        self.log.append(trial)
        if self.on_trial is not None:
            self.on_trial(trial)

    def _run_threaded(self, fresh: list[tuple[int, ...]]) -> None:
        """Train ``fresh`` on worker threads and record each trial here, in list order, once it is in."""
        batch = _Batch(self.columns, fresh)
        workers = []
        try:
            for _ in range(min(self.spec.parallelism, len(fresh))):
                worker = threading.Thread(target=batch.train)
                worker.start()
                workers.append(worker)
            for i in range(len(fresh)):
                self._record(batch.trial(i))
        finally:
            batch.stop()
            for worker in workers:
                worker.join()

    def run_batch(self, topologies: Sequence[tuple[int, ...]]) -> None:
        """Run the uncached topologies, charging budget in list order.

        Candidates beyond the remaining budget are dropped and flag the
        result truncated. With ``parallelism > 1``, where the compiled
        sweep loaded, a batch of more than one new topology trains on
        ``min(parallelism, batch size)`` worker threads started for it,
        each claiming the next untrained topology as it finishes one; this
        thread trains none of them. Results are recorded, and passed to
        ``on_trial``, on this thread only, in list order as soon as they
        and every earlier one are in, so parallel and serial runs match
        and progress flows while the batch runs. A failed trial's error is
        raised as itself once every earlier trial is recorded, as in a
        serial run. A failure, or an exception from ``on_trial`` such as a
        closed stdout's or Ctrl-C's, stops further claims, and every worker
        is joined before this returns or raises.
        """
        fresh: list[tuple[int, ...]] = []
        seen = set()
        for topo in topologies:
            if topo in self.cache or topo in seen:
                continue
            if self.spent + len(fresh) >= self.spec.budget:
                self.truncated = True
                break
            seen.add(topo)
            fresh.append(topo)
        if not fresh:
            return
        self.spent += len(fresh)
        if boosting._SWEEP is not None and self.spec.parallelism > 1 and len(fresh) > 1:
            self._run_threaded(fresh)
        else:
            for topo in fresh:
                self._record(self.columns.train(topo))

    def result(self) -> SearchResult:
        best = max(self.log, key=lambda t: t.val_accuracy)  # first max wins ties
        return SearchResult(best.topology, best.val_accuracy, tuple(self.log), self.truncated)


def coordinate_search(
    trainset: Dataset,
    validation: Dataset,
    spec: SearchSpec,
    base_config: TrainConfig = TrainConfig(),
    on_trial: Callable[[Trial], None] | None = None,
) -> SearchResult:
    """Sweep each attribute's bin count, then verify the combined winners.

    Baseline first, then per-attribute sweeps holding the rest at
    baseline, then one verification run of the per-attribute winners.
    The baseline and the sweeps are one batch, in that order, so budget
    is charged, and trials are logged and reported, as if each ran as
    its own batch; with ``parallelism > 1`` no thread waits for a
    sweep to finish before starting the next. Each attribute's winner is
    read from the cache once the batch is done. The best topology is the
    best validation accuracy seen anywhere in the trial log (earliest
    trial wins exact ties). A space of all singleton ranges skips
    straight to its single verification trial.
    """
    m = trainset.schema.n_attributes
    if len(spec.ranges) != m:
        raise ValueError(f"got {len(spec.ranges)} ranges for {m} attributes")
    runner = _Runner(trainset, validation, base_config, spec, on_trial)
    if all(len(r) == 1 for r in spec.ranges) or spec.exhaustive:
        topologies = [tuple(topo) for topo in product(*spec.ranges)]
        runner.columns.share(topologies[0])
        runner.run_batch(topologies)
        return runner.result()

    baseline = resolve_topology(trainset.schema, spec.baseline_bins)
    sweeps = [
        [baseline[:attr] + (count,) + baseline[attr + 1 :] for count in spec.ranges[attr]]
        for attr in range(m)
    ]
    runner.columns.share(baseline)
    runner.run_batch([baseline, *(topo for candidates in sweeps for topo in candidates)])

    winners = list(baseline)
    for attr, candidates in enumerate(sweeps):
        scored = [(runner.cache[c].val_accuracy, i) for i, c in enumerate(candidates) if c in runner.cache]
        if scored:
            best_acc = max(acc for acc, _ in scored)
            best_i = next(i for acc, i in scored if acc == best_acc)
            winners[attr] = spec.ranges[attr][best_i]

    runner.run_batch([tuple(winners)])
    return runner.result()
