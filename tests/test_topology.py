"""Coordinate search over bin counts."""

import dataclasses
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnb.boosting import TrainConfig, TrainState, train, train_with_scores
from diffnb.dataset import AttributeSpec, Dataset, Schema, SchemaError
from diffnb import topology
from diffnb.density import likelihood_logs, resolve_topology
from diffnb.evaluation import evaluate, scores_report
from diffnb.topology import SearchResult, SearchSpec, Trial, _Runner, coordinate_search

from conftest import lattice_values, xor_dataset


def three_attribute_dataset() -> Dataset:
    """60 seeded rows, 3 continuous attributes, 3 classes, some labels noisy."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=(60, 3))
    labels = np.argmax(values @ np.array([[1.0, -1.0, 0.0], [0.5, 1.0, -1.0], [0.0, 0.5, 1.0]]), axis=1)
    labels[::9] = (labels[::9] + 1) % 3
    schema = Schema(tuple(AttributeSpec(f"x{i}", "continuous") for i in range(3)), ("c0", "c1", "c2"))
    return Dataset.build(schema, zip(values.tolist(), labels.tolist()))


def seeded_dataset(seed: int, n: int = 40, m: int = 3, k: int = 3) -> Dataset:
    """``n`` seeded rows of ``m`` continuous attributes, labels from a noisy linear map."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, m))
    labels = np.argmax(values @ rng.normal(size=(m, k)), axis=1)
    labels[:: 5 + seed] = (labels[:: 5 + seed] + 1) % k
    schema = Schema(tuple(AttributeSpec(f"x{i}", "continuous") for i in range(m)), tuple(f"c{j}" for j in range(k)))
    return Dataset.build(schema, zip(values.tolist(), labels.tolist()))


forking = pytest.mark.skipif(not topology._FORKS, reason="parallel batches fork helpers on Linux only")


@pytest.fixture()
def forked(monkeypatch):
    """The pids of the helpers forked while the test runs."""
    pids = []
    fork = os.fork

    def recording_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return pids


def time_out(signum, frame):
    raise TimeoutError("the batch did not finish in time")


def wait_for(path: Path, seconds: float = 10.0) -> None:
    """Return once ``path`` exists, or after ``seconds``."""
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.002)


def reference_coordinate_search(trainset, validation, spec, base_config=TrainConfig(), on_trial=None):
    """The per-sweep coordinate search: the baseline and each sweep as separate batches.

    ``coordinate_search`` sends the baseline and every sweep as one batch;
    charged, logged and reported in list order, that must give exactly
    this loop's trial log, callbacks, truncation and best topology.
    """
    runner = _Runner(trainset, validation, base_config, spec, on_trial)
    baseline = resolve_topology(trainset.schema, spec.baseline_bins)
    runner.run_batch([baseline])
    winners = list(baseline)
    for attr in range(trainset.schema.n_attributes):
        candidates = [baseline[:attr] + (count,) + baseline[attr + 1 :] for count in spec.ranges[attr]]
        runner.run_batch(candidates)
        scored = [(runner.cache[c].val_accuracy, i) for i, c in enumerate(candidates) if c in runner.cache]
        if scored:
            best_acc = max(acc for acc, _ in scored)
            best_i = next(i for acc, i in scored if acc == best_acc)
            winners[attr] = spec.ranges[attr][best_i]
    runner.run_batch([tuple(winners)])
    return runner.result()


# (seed, ranges, baseline_bins): repeats of the baseline count, a pinned
# attribute, and sweeps of uneven length
ONE_QUEUE_PROBLEMS = [
    (0, ((2, 3, 4), (1, 2, 3), (2, 5)), 3),
    (1, ((1, 2, 5), (3,), (4, 3, 2, 6)), 3),
    (2, ((2, 6), (2, 4, 6), (1, 3, 6)), 2),
]


class TestOneQueue:
    """The single batch of baseline and sweeps against the per-sweep reference."""

    @staticmethod
    def fresh_trials(seed, ranges, baseline_bins) -> int:
        """Trainings an unbounded search runs: baseline, sweeps and verification."""
        data = seeded_dataset(seed)
        spec = SearchSpec(ranges, budget=1000, baseline_bins=baseline_bins)
        return len(coordinate_search(data, seeded_dataset(seed + 10), spec, TrainConfig(max_rounds=3)).trials)

    @pytest.mark.parametrize("parallelism", [1, 2])
    @pytest.mark.parametrize("problem", range(len(ONE_QUEUE_PROBLEMS)))
    def test_matches_the_per_sweep_search_at_every_budget(self, problem, parallelism):
        seed, ranges, baseline_bins = ONE_QUEUE_PROBLEMS[problem]
        trainset, validation = seeded_dataset(seed), seeded_dataset(seed + 10)
        config = TrainConfig(max_rounds=3)
        total = self.fresh_trials(seed, ranges, baseline_bins)
        # every budget from the baseline alone, through a cut inside each
        # sweep and at the verification trial, to one beyond the search
        budgets = range(1, total + 2) if parallelism == 1 else (1, 2, total - 2, total - 1, total, total + 1)
        truncated = set()
        for budget in budgets:
            spec = SearchSpec(ranges, budget=budget, parallelism=parallelism, baseline_bins=baseline_bins)
            seen, want_seen = [], []
            got = coordinate_search(trainset, validation, spec, config, on_trial=seen.append)
            want = reference_coordinate_search(
                trainset, validation, dataclasses.replace(spec, parallelism=1), config, on_trial=want_seen.append
            )
            assert got == want, budget
            assert seen == want_seen == list(want.trials), budget
            assert len(got.trials) == min(budget, total), budget
            truncated.add(got.truncated)
        assert truncated == {True, False}

    def test_winners_come_from_each_sweep(self):
        # the verification trial combines every sweep's own winner
        seed, ranges, baseline_bins = ONE_QUEUE_PROBLEMS[0]
        trainset, validation = seeded_dataset(seed), seeded_dataset(seed + 10)
        result = coordinate_search(trainset, validation, SearchSpec(ranges, baseline_bins=baseline_bins))
        baseline = (baseline_bins,) * 3
        winners = []
        for attr, counts in enumerate(ranges):
            accuracy = {t.topology: t.val_accuracy for t in result.trials}
            scored = [(accuracy[baseline[:attr] + (c,) + baseline[attr + 1 :]], c) for c in counts]
            best = max(acc for acc, _ in scored)
            winners.append(next(c for acc, c in scored if acc == best))
        assert result.trials[-1].topology == tuple(winners)

    def test_serial_trials_are_reported_as_each_finishes(self, monkeypatch):
        trained = []
        original = topology._train_one

        def counting(columns, topo):
            trained.append(topo)
            return original(columns, topo)

        monkeypatch.setattr(topology, "_train_one", counting)
        reported = []
        spec = SearchSpec(((1, 2, 3), (1, 2, 4)), baseline_bins=2)
        coordinate_search(xor_dataset(), xor_dataset(), spec, on_trial=lambda t: reported.append(len(trained)))
        assert reported == list(range(1, len(trained) + 1))

    @forking
    def test_parallel_trials_are_reported_before_the_batch_ends(self, monkeypatch, tmp_path):
        # the batch's last trial sleeps in a helper; the first trial must
        # be reported while it sleeps, not after the whole batch is in
        original = topology._train_one
        spec = SearchSpec(((1, 2, 3), (1, 2, 4)), baseline_bins=2, parallelism=2)
        last = (2, 4)
        started, done = tmp_path / "last-trial-started", tmp_path / "last-trial-finished"
        searcher = os.getpid()

        def slow_last(columns, topo):
            trial = original(columns, topo)
            if topo == last:
                started.touch()
                time.sleep(0.5)
                done.write_text(repr(time.time()))
            elif os.getpid() == searcher:
                # the searching process holds its first trial until the
                # helper has the last one, so it never claims that one itself
                wait_for(started)
            return trial

        monkeypatch.setattr(topology, "_train_one", slow_last)
        reported = []
        result = coordinate_search(xor_dataset(), xor_dataset(), spec, on_trial=lambda t: reported.append(time.time()))
        assert [t.topology for t in result.trials][-2] == last  # the last of the one batch
        assert reported[0] < float(done.read_text())


class TestSearchSpec:
    def test_defaults(self):
        spec = SearchSpec(ranges=((2, 3), (2,)))
        assert spec.budget == 64 and spec.parallelism == 1 and not spec.exhaustive

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            SearchSpec(ranges=((2, 3), ()))
        with pytest.raises(ValueError, match="nonempty"):
            SearchSpec(ranges=())

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            SearchSpec(ranges=((2,),), budget=0)

    def test_bad_parallelism_rejected(self):
        with pytest.raises(ValueError, match="parallelism"):
            SearchSpec(ranges=((2,),), parallelism=0)


class TestCoordinateSearch:
    def test_range_count_must_match_attributes(self):
        with pytest.raises(ValueError, match="2 attributes"):
            coordinate_search(xor_dataset(), xor_dataset(), SearchSpec(ranges=((2,),)))

    def test_all_singletons_is_one_trial(self):
        result = coordinate_search(
            xor_dataset(), xor_dataset(), SearchSpec(ranges=((2,), (2,)))
        )
        assert len(result.trials) == 1
        assert result.best_topology == (2, 2)
        assert result.best_accuracy == 100.0
        assert not result.truncated

    def test_budget_one_stops_after_baseline(self):
        spec = SearchSpec(ranges=((2, 3), (2, 3)), budget=1, baseline_bins=2)
        result = coordinate_search(xor_dataset(), xor_dataset(), spec)
        assert len(result.trials) == 1
        assert result.trials[0].topology == (2, 2)
        assert result.truncated

    def test_exhaustive_walks_the_product_in_order(self):
        spec = SearchSpec(ranges=((2, 3), (2, 4)), exhaustive=True)
        result = coordinate_search(xor_dataset(), xor_dataset(), spec)
        assert [t.topology for t in result.trials] == [(2, 2), (2, 4), (3, 2), (3, 4)]
        assert not result.truncated

    def test_sweep_finds_the_winning_counts(self):
        # 1 bin on both attributes erases the structure; splitting either
        # one recovers it, because the split cells carry min/max windows
        # over the other attribute
        spec = SearchSpec(ranges=((1, 2), (1, 2)), baseline_bins=1)
        result = coordinate_search(
            xor_dataset(), xor_dataset(), spec, TrainConfig(max_rounds=4)
        )
        assert [t.topology for t in result.trials] == [(1, 1), (2, 1), (1, 2), (2, 2)]
        assert result.best_topology == (2, 1)  # earliest of the 100 % ties
        assert result.best_accuracy == 100.0

    def test_trials_never_exceed_budget(self):
        for budget in (1, 2, 3, 5, 8):
            spec = SearchSpec(ranges=((1, 2, 3), (1, 2, 4)), budget=budget, baseline_bins=2)
            result = coordinate_search(xor_dataset(), xor_dataset(), spec)
            assert len(result.trials) <= budget

    def test_parallel_equals_serial(self):
        three = three_attribute_dataset()
        cases = {
            "xor": (xor_dataset(), dict(ranges=((1, 2, 3), (1, 2, 4)), baseline_bins=2)),
            "three attributes": (three, dict(ranges=((2, 3, 4), (1, 2, 3), (2, 5)), baseline_bins=3)),
            "budget-truncated": (three, dict(ranges=((2, 3, 4), (1, 2, 3), (2, 5)), baseline_bins=3, budget=5)),
            "exhaustive": (three, dict(ranges=((2, 3), (1, 3), (2, 5)), exhaustive=True)),
        }
        for name, (data, base) in cases.items():
            seen = {1: [], 2: []}
            results = {
                parallelism: coordinate_search(
                    data, data, SearchSpec(parallelism=parallelism, **base),
                    TrainConfig(max_rounds=3), on_trial=seen[parallelism].append,
                )
                for parallelism in (1, 2)
            }
            assert results[1] == results[2], name
            assert seen[1] == seen[2] == list(results[1].trials), name
            assert results[1].truncated == ("budget" in base), name

    @forking
    def test_one_pool_per_search(self, forked):
        # the baseline and four sweep candidates are one batch, which forks
        # one helper at parallelism 2; the verification trial is one topology
        spec = SearchSpec(ranges=((1, 2, 3), (1, 2, 4)), baseline_bins=2, parallelism=2)
        result = coordinate_search(xor_dataset(), xor_dataset(), spec)
        assert len(forked) == 1
        assert result == coordinate_search(xor_dataset(), xor_dataset(), dataclasses.replace(spec, parallelism=1))
        # every batch holds one new topology: nothing to run side by side
        coordinate_search(xor_dataset(), xor_dataset(), SearchSpec(ranges=((2,), (2,)), parallelism=2))
        assert len(forked) == 1

    @forking
    def test_pool_never_has_more_workers_than_the_batch_has_topologies(self, forked):
        # the searching process trains too, so a batch forks one helper
        # fewer than min(parallelism, batch size)
        spec = SearchSpec(ranges=((1, 2, 3), (1, 2, 4)), parallelism=5000)
        runner = _Runner(xor_dataset(), xor_dataset(), TrainConfig(), spec, None)
        runner.run_batch([(2, 2), (1, 2), (3, 2), (2, 1), (2, 4)])
        assert len(forked) == 4
        # one new topology in the batch: (2, 2) is cached
        runner.run_batch([(2, 2), (3, 3)])
        assert len(forked) == 4
        spec = SearchSpec(ranges=((1, 2, 3), (2,)), exhaustive=True, parallelism=2)
        coordinate_search(xor_dataset(), xor_dataset(), spec)
        assert len(forked) == 5

    @forking
    def test_worker_failure_is_raised_and_leaks_no_worker(self, monkeypatch, tmp_path, forked):
        # the helper trains with bin count 0, which passes the spec but fails inside the training
        original = topology._train_one
        searcher = os.getpid()
        started = tmp_path / "helper-started"

        def failing_in_helper(columns, topo):
            if os.getpid() != searcher:
                started.touch()
                topo = (0,) + topo[1:]
            else:
                wait_for(started)  # so the helper claims a topology before the batch runs out
            return original(columns, topo)

        monkeypatch.setattr(topology, "_train_one", failing_in_helper)
        spec = SearchSpec(ranges=((2, 1, 3), (2,)), exhaustive=True, parallelism=2)
        seen = []
        with pytest.raises(SchemaError, match="bin count must be >= 1") as excinfo:
            coordinate_search(xor_dataset(), xor_dataset(), spec, on_trial=seen.append)
        # the helper's traceback is the cause, and the trials before the failed one are reported
        cause = str(excinfo.value.__cause__)
        assert "in _help" in cause and "in failing_in_helper" in cause
        assert [t.topology for t in seen] == [(2, 2), (1, 2), (3, 2)][: len(seen)]
        assert len(seen) < 3
        assert len(forked) == 1
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @forking
    def test_own_failure_waits_for_earlier_trials(self, monkeypatch, tmp_path, forked):
        # as in a serial run, every trial before the failed one is reported,
        # the helper's too, before the error is raised
        original = topology._train_one
        searcher = os.getpid()
        started = tmp_path / "helper-started"

        def failing_here(columns, topo):
            if os.getpid() != searcher:
                started.touch()
                time.sleep(0.2)  # still training when the searching process fails
            elif topo == (3, 2):
                topo = (0, 2)
            else:
                wait_for(started)  # the helper claims one of the first two topologies
            return original(columns, topo)

        monkeypatch.setattr(topology, "_train_one", failing_here)
        spec = SearchSpec(ranges=((2, 1, 3), (2,)), exhaustive=True, parallelism=2)
        seen = []
        with pytest.raises(SchemaError, match="bin count must be >= 1") as excinfo:
            coordinate_search(xor_dataset(), xor_dataset(), spec, on_trial=seen.append)
        assert excinfo.value.__cause__ is None
        assert [t.topology for t in seen] == [(2, 2), (1, 2)]
        assert len(forked) == 1
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    @forking
    def test_a_batch_larger_than_a_pipe_buffer_completes(self, monkeypatch, tmp_path, forked):
        # 20 000 claims and their results, more than a pipe holds of either,
        # shared by more processes than cores; every process appends what it
        # trains to one file, so a topology claimed twice or never shows
        trained = os.open(tmp_path / "trained", os.O_WRONLY | os.O_APPEND | os.O_CREAT)

        def quick(columns, topo):
            os.write(trained, b"%d\n" % topo[0])
            return Trial(topo, topo[0] % 101, 50.0)

        monkeypatch.setattr(topology, "_train_one", quick)
        topologies = [(i,) for i in range(20_000)]
        seen = []
        spec = SearchSpec(((1,),), budget=len(topologies), parallelism=(os.cpu_count() or 1) + 4)
        runner = _Runner(None, None, TrainConfig(), spec, seen.append)
        previous = signal.signal(signal.SIGALRM, time_out)
        signal.alarm(30)
        try:
            runner.run_batch(topologies)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            os.close(trained)
        assert [t.topology for t in runner.log] == topologies
        assert seen == runner.log
        assert sorted(map(int, (tmp_path / "trained").read_text().split())) == list(range(len(topologies)))
        assert len(forked) == spec.parallelism - 1

    def test_best_is_reproducible_by_retraining(self):
        spec = SearchSpec(ranges=((1, 2), (1, 2)), baseline_bins=1)
        result = coordinate_search(xor_dataset(), xor_dataset(), spec)
        model, _ = train(xor_dataset(), TrainConfig(topology=result.best_topology))
        assert evaluate(model, xor_dataset()).accuracy == result.best_accuracy

    def test_trial_callback_sees_every_trial(self):
        seen: list[Trial] = []
        spec = SearchSpec(ranges=((1, 2), (1, 2)), baseline_bins=1)
        result = coordinate_search(xor_dataset(), xor_dataset(), spec, on_trial=seen.append)
        assert tuple(seen) == result.trials

    @settings(max_examples=20)
    @given(st.integers(1, 6), st.booleans())
    def test_search_is_deterministic(self, budget, exhaustive):
        spec = SearchSpec(
            ranges=((1, 2, 3), (1, 2)), budget=budget, baseline_bins=2, exhaustive=exhaustive
        )
        first = coordinate_search(xor_dataset(), xor_dataset(), spec)
        second = coordinate_search(xor_dataset(), xor_dataset(), spec)
        assert first == second
        assert isinstance(first, SearchResult)


def reference_trial(trainset, validation, base_config, topo) -> Trial:
    """A trial as training and scoring from scratch give it: fit, train, then evaluate both sets."""
    model, _, train_logs = train_with_scores(trainset, dataclasses.replace(base_config, topology=topo))
    return Trial(topo, scores_report(model, trainset, train_logs).accuracy, evaluate(model, validation).accuracy)


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_assembled_as_built(columns, topo, chosen):
    """``columns``' state for ``topo`` against ``TrainState.build``, byte for byte.

    Also checks the validation rows' cells and sums against
    ``likelihood_logs``, and the subset form of ``likelihood_logs`` for the
    attributes ``chosen`` against the matching columns of the full result.
    """
    state, val_cells, val_loglik = columns.start(topo)
    want = TrainState.build(columns.trainset, dataclasses.replace(columns.base_config, topology=topo))
    got_d, want_d = state.density, want.density
    assert (got_d.topology, got_d.bin_specs, got_d.n_train) == (want_d.topology, want_d.bin_specs, want_d.n_train)
    for name in ("counts", "window_lo", "window_hi"):
        assert same_bytes(getattr(got_d, name), getattr(want_d, name)), name
    assert state.config == want.config
    for name in ("cells", "loglik", "scores", "row_sizes", "weights", "logw", "labels"):
        assert same_bytes(getattr(state, name), getattr(want, name)), name
    assert len(state.rows_by_cell) == len(want.rows_by_cell)
    assert all(same_bytes(g, w) for g, w in zip(state.rows_by_cell, want.rows_by_cell))

    config = want.config
    values = columns.validation.value_matrix()
    cells, parts = likelihood_logs(want_d, values, config.tag_gain, config.epsilon_floor)
    assert same_bytes(val_cells, cells)
    assert same_bytes(val_loglik, parts.sum(axis=2))
    sub_cells, sub_parts = likelihood_logs(want_d, values, config.tag_gain, config.epsilon_floor, chosen)
    assert same_bytes(sub_cells, np.ascontiguousarray(cells[:, chosen]))
    assert same_bytes(sub_parts, np.ascontiguousarray(parts[:, :, chosen]))


def check_search_columns(trainset, validation, ranges, baseline_bins, config, chosen):
    """Every trial of a coordinate and an exhaustive search, assembled from columns, against fresh builds."""
    original = topology._train_one
    checked = []

    def checking(columns, topo):
        assert_assembled_as_built(columns, topo, chosen)
        trial = original(columns, topo)
        assert trial == reference_trial(trainset, validation, config, topo)
        checked.append(topo)
        return trial

    exhaustive = tuple(r[:2] if j < 3 else r[:1] for j, r in enumerate(ranges))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topology, "_train_one", checking)
        for spec in (
            SearchSpec(ranges, budget=1000, baseline_bins=baseline_bins),
            SearchSpec(exhaustive, budget=1000, exhaustive=True),
        ):
            result = coordinate_search(trainset, validation, spec, config)
            assert [t.topology for t in result.trials] == checked
            checked.clear()


@st.composite
def search_problems(draw):
    """Small train and validation tables of continuous and discrete attributes, with search ranges."""
    m = draw(st.integers(1, 9))
    k = draw(st.integers(2, 3))
    sizes = draw(st.lists(st.sampled_from([None, 2, 3]), min_size=m, max_size=m))  # None: continuous
    schema = Schema(
        tuple(
            AttributeSpec(f"x{j}", "continuous") if size is None
            else AttributeSpec(f"x{j}", "categorical", tuple(f"v{t}" for t in range(size)))
            for j, size in enumerate(sizes)
        ),
        tuple(f"c{i}" for i in range(k)),
    )
    value = {None: lattice_values, 2: st.integers(0, 1).map(float), 3: st.integers(0, 2).map(float)}
    row = st.tuples(st.tuples(*(value[size] for size in sizes)), st.integers(0, k - 1))

    def table(max_rows):
        return Dataset.build(schema, draw(st.lists(row, min_size=1, max_size=max_rows)))

    trainset, validation = table(24), table(12)
    counts = st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(tuple)
    ranges = tuple(draw(counts) if size is None else (size,) for size in sizes)
    chosen = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))
    return trainset, validation, ranges, draw(st.integers(1, 5)), chosen


class TestColumns:
    """Trials assembled from per-attribute columns, and when the columns are built."""

    @settings(max_examples=40)
    @given(search_problems(), st.integers(1, 3))
    def test_every_trial_is_assembled_as_a_fresh_build(self, problem, max_rounds):
        trainset, validation, ranges, baseline_bins, chosen = problem
        check_search_columns(trainset, validation, ranges, baseline_bins, TrainConfig(max_rounds=max_rounds), chosen)

    @pytest.mark.parametrize("m", [8, 9])
    def test_wide_tables_sum_as_likelihood_logs_does(self, m):
        # from M = 8 numpy sums each row's parts in pairs, so the layout decides the last bit
        trainset, validation = seeded_dataset(3, n=300, m=m), seeded_dataset(4, n=200, m=m)
        ranges = tuple((2, 4, 7) if j % 3 == 0 else (4,) for j in range(m))
        check_search_columns(trainset, validation, ranges, 4, TrainConfig(max_rounds=3), [m - 1, 0, 2])

    @staticmethod
    def record_builds(monkeypatch, log: Path) -> None:
        """Append ``<pid> <attribute> <count>`` per column fit, and ``<pid> fork`` per fork, to ``log``."""
        fit = topology.fit_column
        fork = os.fork

        def write(line: str) -> None:
            fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
            os.write(fd, f"{os.getpid()} {line}\n".encode())
            os.close(fd)

        def recording_fit(values, labels, n_classes, spec, bins=None):
            write(f"{spec.attribute} {spec.count}")
            return fit(values, labels, n_classes, spec, bins)

        def recording_fork():
            write("fork")
            return fork()

        monkeypatch.setattr(topology, "fit_column", recording_fit)
        monkeypatch.setattr(os, "fork", recording_fork)

    @forking
    def test_baseline_columns_are_built_once_before_the_fork(self, monkeypatch, tmp_path):
        log = tmp_path / "builds"
        self.record_builds(monkeypatch, log)
        data = three_attribute_dataset()
        spec = SearchSpec(((2, 3, 4), (1, 2, 3), (2, 5)), baseline_bins=3, parallelism=2)
        result = coordinate_search(data, seeded_dataset(5), spec, TrainConfig(max_rounds=3))
        events = [line.split(" ", 1) for line in log.read_text().splitlines()]
        first_fork = next(i for i, (_, what) in enumerate(events) if what == "fork")
        searcher = str(os.getpid())
        baseline = [f"{j} 3" for j in range(3)]
        assert events[:first_fork] == [[searcher, build] for build in baseline]
        after = [what for _, what in events[first_fork:] if what != "fork"]
        assert not set(after) & set(baseline)  # no process builds a baseline column again
        # every trial after the baseline builds one column per attribute it changes
        changed = sum(count != 3 for trial in result.trials[1:] for count in trial.topology)
        assert len(after) == changed

    def test_a_sweep_trial_builds_exactly_one_column(self, monkeypatch, tmp_path):
        log = tmp_path / "builds"
        self.record_builds(monkeypatch, log)
        original = topology._train_one
        built = {}

        def counting(columns, topo):
            before = len(log.read_text().splitlines()) if log.exists() else 0
            trial = original(columns, topo)
            built[topo] = [line.split(" ", 1)[1] for line in log.read_text().splitlines()[before:]]
            return trial

        monkeypatch.setattr(topology, "_train_one", counting)
        spec = SearchSpec(((2, 3, 4), (1, 2, 3), (2, 5)), baseline_bins=3)
        result = coordinate_search(three_attribute_dataset(), seeded_dataset(5), spec, TrainConfig(max_rounds=3))
        baseline, *sweeps, verification = [t.topology for t in result.trials]
        assert built[baseline] == []  # built by the search before its first batch
        for topo in sweeps:
            (attribute,) = [j for j in range(3) if topo[j] != baseline[j]]
            assert built[topo] == [f"{attribute} {topo[attribute]}"]
        assert len(built[verification]) == sum(a != b for a, b in zip(verification, baseline))
