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

With ``parallelism > 1`` on Linux, a batch of more than one new topology
trains on the searching process and on ``parallelism - 1`` helpers forked
for that batch (fewer when the batch is smaller), not on threads: a
training is thousands of small numpy calls that each hold the interpreter
lock, so two threads ran slower than one. Every process claims the next
unclaimed index of the batch through a pipe that holds only that index,
and each helper sends its trials back over a pipe of its own, which the
searching process reads between its own trials. A helper inherits the
datasets and base config at the fork, so nothing is pickled on the way
out. Other platforms train every batch serially, with the same results:
Windows has no fork, and macOS spawns by default because forking once
system libraries have started threads is unsafe.
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

from .boosting import TrainConfig, train_with_scores
from .dataset import Dataset
from .density import resolve_topology
from .evaluation import evaluate, training_report

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


def _train_one(
    trainset: Dataset, validation: Dataset, base_config: TrainConfig, topology: tuple[int, ...]
) -> Trial:
    """Train one candidate topology and score it on both sets."""
    config = dataclasses.replace(base_config, topology=topology)
    model, _, train_logs = train_with_scores(trainset, config)
    return Trial(
        topology,
        training_report(model, trainset, train_logs).accuracy,
        evaluate(model, validation).accuracy,
    )


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
        self.trainset = trainset
        self.validation = validation
        self.base_config = base_config
        self.spec = spec
        self.on_trial = on_trial
        self.cache: dict[tuple[int, ...], Trial] = {}
        self.log: list[Trial] = []
        self.spent = 0
        self.truncated = False

    def _train(self, topology: tuple[int, ...]) -> Trial:
        return _train_one(self.trainset, self.validation, self.base_config, topology)

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
    if all(len(r) == 1 for r in spec.ranges):
        runner.run_batch([tuple(r[0] for r in spec.ranges)])
        return runner.result()

    if spec.exhaustive:
        runner.run_batch([tuple(topo) for topo in product(*spec.ranges)])
        return runner.result()

    baseline = resolve_topology(trainset.schema, spec.baseline_bins)
    sweeps = [
        [baseline[:attr] + (count,) + baseline[attr + 1 :] for count in spec.ranges[attr]]
        for attr in range(m)
    ]
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
