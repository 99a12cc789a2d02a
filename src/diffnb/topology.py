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

With ``parallelism > 1`` the trainings of a batch run in worker
processes, not threads: a training is thousands of small numpy calls that
each hold the interpreter lock, so two threads ran slower than one (on two
cores a 44-trial search took 3.7 s serially, 6.2 s on two threads, 2.6 s
on two processes). Each worker receives the datasets and base config
once, through the pool initializer, so the platform's default start
method works, spawn included; a task carries only a topology.
"""

import dataclasses
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator, Sequence

from .boosting import TrainConfig, train_with_scores
from .dataset import Dataset
from .density import resolve_topology
from .evaluation import evaluate, training_report


@dataclass(frozen=True)
class SearchSpec:
    """Search space and budget.

    ``ranges`` holds one nonempty candidate tuple per attribute; use a
    singleton to pin an attribute (discrete attributes must stay pinned
    to their value count). ``budget`` caps the number of trainings.
    ``parallelism`` is the number of trainings run at once, each in a
    worker process when above 1.
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


# set once per worker process by _init_worker; never set in the parent
_worker_args: tuple[Dataset, Dataset, TrainConfig] | None = None


def _init_worker(trainset: Dataset, validation: Dataset, base_config: TrainConfig) -> None:
    global _worker_args
    _worker_args = (trainset, validation, base_config)


def _train_in_worker(topology: tuple[int, ...]) -> Trial:
    return _train_one(*_worker_args, topology)


class _Runner:
    """Budgeted, cached trial execution; repeats of a topology are free.

    Owns the worker pool of a parallel search, opened by the first batch
    with more than one new topology; leaving the ``with`` block shuts it
    down.
    """

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
        self._pool = None

    def __enter__(self) -> "_Runner":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def _train_parallel(self, topologies: list[tuple[int, ...]]) -> Iterator[Trial]:
        if self._pool is None:
            # imported here: multiprocessing would add to every CLI command's start-up
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(
                max_workers=self.spec.parallelism,
                initializer=_init_worker,
                initargs=(self.trainset, self.validation, self.base_config),
            )
        return self._pool.map(_train_in_worker, topologies)

    def run_batch(self, topologies: Sequence[tuple[int, ...]]) -> None:
        """Run the uncached topologies, charging budget in list order.

        Candidates beyond the remaining budget are dropped and flag the
        result truncated. With ``parallelism > 1`` a batch of more than one
        new topology is queued to the worker processes at once, and the
        workers take the next queued topology as each finishes one.
        Results are recorded, and passed to ``on_trial``, in list order as
        soon as they and every earlier one are in, so parallel and serial
        runs match and progress flows while the batch runs.
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
        if self.spec.parallelism > 1 and len(fresh) > 1:
            trials = self._train_parallel(fresh)
        else:
            trials = (_train_one(self.trainset, self.validation, self.base_config, topo) for topo in fresh)
        self.spent += len(fresh)
        for trial in trials:
            self.cache[trial.topology] = trial
            self.log.append(trial)
            if self.on_trial is not None:
                self.on_trial(trial)

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
    its own batch; with ``parallelism > 1`` the workers never wait for a
    sweep to finish before starting the next. Each attribute's winner is
    read from the cache once the batch is done. The best topology is the
    best validation accuracy seen anywhere in the trial log (earliest
    trial wins exact ties). A space of all singleton ranges skips
    straight to its single verification trial.
    """
    m = trainset.schema.n_attributes
    if len(spec.ranges) != m:
        raise ValueError(f"got {len(spec.ranges)} ranges for {m} attributes")
    with _Runner(trainset, validation, base_config, spec, on_trial) as runner:
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
