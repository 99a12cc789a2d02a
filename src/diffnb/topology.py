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
columns once, in the searching process, before the first batch forks;
helpers inherit them and only read them. A sweep trial, which differs from
the baseline in one attribute, fits that one column and scores that one
attribute, through the same ``fit_column`` and ``likelihood_logs`` a
fresh training uses, and copies the rest into place. Each process holds
at most the M shared columns plus the current trial's own, which it drops
when the trial ends, however many trials or candidates the search has.
The assembled density, cells, likelihood sums and rows per cell equal
``TrainState.build``'s byte for byte: copying moves no bit, and the parts
are summed from the (K, n, M) layout ``likelihood_logs`` returns, so
every row adds its parts in the same order.

With ``parallelism > 1`` on Linux, a batch of more than one new topology
trains on the searching process and on ``parallelism - 1`` helpers forked
for that batch (fewer when the batch is smaller), not on threads: a
training is thousands of small numpy calls that each hold the interpreter
lock, so two threads ran slower than one. Every process claims the next
unclaimed index of the batch through a pipe that holds only that index,
and each helper sends its trials back over a pipe of its own, which the
searching process reads between its own trials. A helper inherits the
datasets, base config and shared columns at the fork, so nothing is
pickled on the way out. Other platforms train every batch serially, with
the same results: Windows has no fork, and macOS spawns by default
because forking once system libraries have started threads is unsafe.
"""

import dataclasses
import os
import pickle
import select
import signal
import struct
import sys
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, NamedTuple, NoReturn, Sequence

import numpy as np

from .boosting import (
    TrainConfig,
    TrainState,
    resolved_config,
    rows_in_bins,
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

# whether a parallel batch forks helpers (see the module docstring)
_FORKS = sys.platform.startswith("linux")

# a batch index in the claim pipe, and the length that heads each result sent back
_U32 = struct.Struct("=I")


@dataclass(frozen=True)
class SearchSpec:
    """Search space and budget.

    ``ranges`` holds one nonempty candidate tuple per attribute; use a
    singleton to pin an attribute (discrete attributes must stay pinned
    to their value count). ``budget`` caps the number of trainings.
    ``parallelism`` is the number of trainings run at once: above 1, the
    searching process and forked helpers each train one (on Linux only;
    elsewhere batches train serially).
    """

    ranges: tuple[tuple[int, ...], ...]
    budget: int = 64
    parallelism: int = 1
    baseline_bins: int = 5
    exhaustive: bool = False

    def __post_init__(self):
        if not self.ranges or any(len(r) == 0 for r in self.ranges):
            raise ValueError("every attribute needs a nonempty candidate range")
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
    ``rows`` the ascending training rows in each bin; ``train_parts`` (K, n)
    and ``val_parts`` (K, n_val) the rows' gated likelihood parts, and
    ``val_bins`` the validation rows' bins. None of it depends on another
    attribute's bin count, so any trial with this count here can use it.
    """

    fit: DensityColumn
    rows: tuple[np.ndarray, ...]
    train_parts: np.ndarray
    val_bins: np.ndarray
    val_parts: np.ndarray


def _flat_cells(bins: Sequence[np.ndarray], b_max: int) -> np.ndarray:
    """(n, M) flat cell indices ``j * b_max + bin`` from each attribute's (n,) bins."""
    cells = np.empty((len(bins[0]), len(bins)), dtype=np.int64)
    for j, column in enumerate(bins):
        np.add(column, j * b_max, out=cells[:, j])
    return cells


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
    count differs from it, and drops them when it ends. So a process holds
    at most the M shared columns plus one trial's M, however many trials
    or candidates the search has. The searching process shares before the
    first batch forks, so helpers inherit the shared columns, which no
    trial writes.
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
            b_max = max(counts)
            attributes = None if len(new) == len(counts) else new
            _, train_parts = likelihood_logs(density, values, config.tag_gain, config.epsilon_floor, attributes)
            val_cells, val_parts = likelihood_logs(
                density, validation.value_matrix(), config.tag_gain, config.epsilon_floor, attributes
            )
            train_parts, val_parts = train_parts.transpose(1, 0, 2), val_parts.transpose(1, 0, 2)
            for i, j in enumerate(new):
                fit = fits[j]
                columns[j] = _Column(
                    fit,
                    rows_in_bins(fit.bins, range(fit.spec.count)),
                    train_parts[:, :, i],
                    val_cells[:, i] - j * b_max,
                    val_parts[:, :, i],
                )
        return density, config, tuple(columns)

    def start(self, topology: tuple[int, ...]) -> tuple[TrainState, np.ndarray, np.ndarray]:
        """``topology``'s untrained state, and the validation rows' (n, M) cells and (n, K) likelihood sums.

        The density, cells, likelihood sums and rows per cell are what
        :meth:`TrainState.build <diffnb.boosting.TrainState.build>` and
        :func:`~diffnb.inference.batch_log_scores` compute, byte for byte:
        each column is copied into place, its dead bins padded, and the
        parts summed in likelihood_logs' layout.
        """
        density, config, columns = self._assemble(topology)
        b_max = max(density.topology)
        empty = np.empty(0, dtype=np.int64)
        rows_by_cell = tuple(
            rows
            for column in columns
            for rows in column.rows + (empty,) * (b_max - column.fit.spec.count)
        )
        state = TrainState.start(
            density,
            config,
            self.trainset.labels(),
            _flat_cells([column.fit.bins for column in columns], b_max),
            _summed([column.train_parts for column in columns]),
            rows_by_cell,
        )
        val_cells = _flat_cells([column.val_bins for column in columns], b_max)
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


def _train_one(columns: _Columns, topology: tuple[int, ...]) -> Trial:
    """Train one candidate topology and score it on both sets; the runner's one call per trial."""
    return columns.train(topology)


class _Failure(NamedTuple):
    """A trial that raised: its error, and a helper's formatted traceback (None for the searching process)."""

    error: Exception
    traceback: str | None


class _HelperTraceback(Exception):
    """A forked helper's formatted traceback, set as the cause of the error its trial raised."""


def _claims(claim_r: int, claim_w: int, n: int) -> Iterator[int]:
    """Indices of an ``n``-topology batch that this process claims, until none is left.

    The claim pipe holds one index, the next unclaimed one: a claimer
    reads it and writes back its successor, so the pipe never holds more
    than 4 bytes, and pipe reads and writes that small are atomic.
    """
    while True:
        (i,) = _U32.unpack(os.read(claim_r, _U32.size))
        os.write(claim_w, _U32.pack(min(i + 1, n)))
        if i >= n:
            return
        yield i


def _send(fd: int, message: tuple) -> None:
    data = pickle.dumps(message)
    view = memoryview(_U32.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view) :]


class _Results:
    """One forked batch's trials by index, from this process and from the helpers' pipes."""

    def __init__(self, n: int):
        self.done: list[Trial | _Failure | None] = [None] * n
        self.failed = False
        self._unread: dict[int, bytearray] = {}  # each open result pipe's bytes not yet parsed
        self._poll = select.poll()

    def put(self, i: int, item: Trial | _Failure) -> None:
        self.done[i] = item
        self.failed = self.failed or isinstance(item, _Failure)

    def listen(self, fd: int) -> None:
        self._unread[fd] = bytearray()
        self._poll.register(fd, select.POLLIN)

    def receive(self, block: bool) -> None:
        """Take in what the helpers have sent; with ``block``, wait until one sends or exits."""
        if block and not self._unread:
            raise RuntimeError("a search helper exited without sending every trial it claimed")
        for fd, _ in self._poll.poll(None if block else 0):
            chunk = os.read(fd, 1 << 16)
            if not chunk:  # the helper has exited
                self._poll.unregister(fd)
                os.close(fd)
                del self._unread[fd]
                continue
            unread = self._unread[fd]
            unread += chunk
            while len(unread) >= _U32.size:
                end = _U32.size + _U32.unpack_from(unread)[0]
                if len(unread) < end:
                    break
                self.put(*pickle.loads(unread[_U32.size : end]))
                del unread[:end]

    def close(self) -> None:
        for fd in self._unread:
            os.close(fd)


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

    def _train(self, topology: tuple[int, ...]) -> Trial:
        return _train_one(self.columns, topology)

    def _record(self, trial: Trial) -> None:
        self.cache[trial.topology] = trial
        self.log.append(trial)
        if self.on_trial is not None:
            self.on_trial(trial)

    def _record_ready(self, done: list, recorded: int) -> int:
        """Record the trials after the first ``recorded`` whose predecessors are all in.

        Returns the new count; a failed trial's error is raised in its turn.
        """
        while recorded < len(done) and done[recorded] is not None:
            item = done[recorded]
            if isinstance(item, _Failure):
                if item.traceback is None:
                    raise item.error
                raise item.error from _HelperTraceback(item.traceback)
            self._record(item)
            recorded += 1
        return recorded

    def _help(self, fresh: list[tuple[int, ...]], claim_r: int, claim_w: int, result_w: int) -> NoReturn:
        """A forked helper: train claimed topologies and send each back, stopping at a failure.

        It leaves through ``os._exit`` whatever happens, so it never runs
        the searching process's code, clean-up or output flush.
        """
        code = 1
        try:
            for i in _claims(claim_r, claim_w, len(fresh)):
                try:
                    item = self._train(fresh[i])
                except Exception as err:
                    import traceback

                    item = _Failure(err, traceback.format_exc())
                _send(result_w, (i, item))
                if isinstance(item, _Failure):
                    break
            code = 0
        finally:
            os._exit(code)

    def _run_forked(self, fresh: list[tuple[int, ...]]) -> None:
        """Train ``fresh`` here and on forked helpers, recording trials in list order.

        This process claims and trains topologies as the helpers do, and
        between its own trials takes in theirs and records every trial
        whose predecessors are all in. A failed trial ends this process's
        claims, and its error is raised once every earlier trial is
        recorded, as in a serial run. However the batch ends, the helpers
        are killed and reaped before this returns.
        """
        n = len(fresh)
        results = _Results(n)
        # as multiprocessing does: a helper must not inherit output it could write again
        sys.stdout.flush()
        sys.stderr.flush()
        claim_r, claim_w = os.pipe()
        os.write(claim_w, _U32.pack(0))
        pids = []
        try:
            for _ in range(min(self.spec.parallelism, n) - 1):
                result_r, result_w = os.pipe()
                results.listen(result_r)
                try:
                    pid = os.fork()
                    if pid == 0:
                        self._help(fresh, claim_r, claim_w, result_w)
                finally:
                    os.close(result_w)
                pids.append(pid)
            recorded = 0
            for i in _claims(claim_r, claim_w, n):
                try:
                    results.put(i, self._train(fresh[i]))
                except Exception as err:
                    results.put(i, _Failure(err, None))
                results.receive(block=False)
                recorded = self._record_ready(results.done, recorded)
                if results.failed:
                    break
            while recorded < n:
                results.receive(block=True)
                recorded = self._record_ready(results.done, recorded)
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            results.close()
            os.close(claim_r)
            os.close(claim_w)

    def run_batch(self, topologies: Sequence[tuple[int, ...]]) -> None:
        """Run the uncached topologies, charging budget in list order.

        Candidates beyond the remaining budget are dropped and flag the
        result truncated. With ``parallelism > 1`` on Linux, a batch of
        more than one new topology trains on this process and on helpers
        forked for it, each claiming the next untrained topology as it
        finishes one. Results are recorded, and passed to ``on_trial``, in
        list order as soon as they and every earlier one are in, so
        parallel and serial runs match and progress flows while the batch
        runs; a helper's trial is taken in after this process's current
        trial ends, so its progress line can wait that long.
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
        if _FORKS and self.spec.parallelism > 1 and len(fresh) > 1:
            self._run_forked(fresh)
        else:
            for topo in fresh:
                self._record(self._train(topo))

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
    its own batch; with ``parallelism > 1`` no process waits for a
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
