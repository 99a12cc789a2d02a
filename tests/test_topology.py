"""Coordinate search over bin counts."""

import concurrent.futures
import dataclasses
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diffnb
from diffnb.boosting import TrainConfig, train
from diffnb.dataset import AttributeSpec, Dataset, Schema, SchemaError
from diffnb import topology
from diffnb.density import resolve_topology
from diffnb.evaluation import evaluate
from diffnb.topology import SearchResult, SearchSpec, Trial, _Runner, coordinate_search

from conftest import xor_dataset


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


def reference_coordinate_search(trainset, validation, spec, base_config=TrainConfig(), on_trial=None):
    """The per-sweep coordinate search: the baseline and each sweep as separate batches.

    ``coordinate_search`` sends the baseline and every sweep as one batch;
    charged, logged and reported in list order, that must give exactly
    this loop's trial log, callbacks, truncation and best topology.
    """
    with _Runner(trainset, validation, base_config, spec, on_trial) as runner:
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

        def counting(trainset, validation, config, topo):
            trained.append(topo)
            return original(trainset, validation, config, topo)

        monkeypatch.setattr(topology, "_train_one", counting)
        reported = []
        spec = SearchSpec(((1, 2, 3), (1, 2, 4)), baseline_bins=2)
        coordinate_search(xor_dataset(), xor_dataset(), spec, on_trial=lambda t: reported.append(len(trained)))
        assert reported == list(range(1, len(trained) + 1))

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork", reason="workers inherit the slowed trial only when forked"
    )
    def test_parallel_trials_are_reported_before_the_batch_ends(self, monkeypatch, tmp_path):
        # the batch's last trial sleeps in its worker; the first trial must
        # be reported while it sleeps, not after the whole batch is in
        original = topology._train_one
        spec = SearchSpec(((1, 2, 3), (1, 2, 4)), baseline_bins=2, parallelism=2)
        last = (2, 4)
        done = tmp_path / "last-trial-finished"

        def slow_last(trainset, validation, config, topo):
            trial = original(trainset, validation, config, topo)
            if topo == last:
                time.sleep(0.5)
                done.write_text(repr(time.time()))
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

    def test_one_pool_per_search(self, monkeypatch):
        opened = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        # two sweeps of two new topologies each, after the baseline
        spec = SearchSpec(ranges=((1, 2, 3), (1, 2, 4)), baseline_bins=2, parallelism=2)
        coordinate_search(xor_dataset(), xor_dataset(), spec)
        assert len(opened) == 1
        # every batch holds one new topology: nothing to run side by side
        spec = SearchSpec(ranges=((2,), (2,)), parallelism=2)
        coordinate_search(xor_dataset(), xor_dataset(), spec)
        assert len(opened) == 1

    def test_worker_failure_is_raised_and_leaks_no_worker(self):
        # bin count 0 passes the spec but fails inside the training
        spec = SearchSpec(ranges=((2, 0, 3), (2,)), exhaustive=True, parallelism=2)
        with pytest.raises(SchemaError, match="bin count must be >= 1") as excinfo:
            coordinate_search(xor_dataset(), xor_dataset(), spec)
        # the pool attaches the worker's traceback as the cause
        assert "_train_in_worker" in str(excinfo.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_spawned_workers_match_serial(self):
        # spawned workers (the default on macOS; forkserver on Linux from
        # Python 3.14) start from a fresh import and get their data only
        # through the pickled pool initializer arguments
        spec = dict(ranges=((1, 2, 3), (1, 2, 4)), baseline_bins=2)
        rows = [(ex.values, ex.label) for ex in xor_dataset().examples]
        serial = coordinate_search(xor_dataset(), xor_dataset(), SearchSpec(parallelism=1, **spec))
        script = textwrap.dedent(
            f"""
            import multiprocessing

            from diffnb.dataset import AttributeSpec, Dataset, Schema
            from diffnb.topology import SearchSpec, coordinate_search

            if __name__ == "__main__":
                multiprocessing.set_start_method("spawn")
                schema = Schema(
                    (AttributeSpec("a", "continuous"), AttributeSpec("b", "continuous")),
                    ("c0", "c1"),
                )
                data = Dataset.build(schema, {rows!r})
                print(repr(coordinate_search(data, data, SearchSpec(parallelism=2, **{spec!r}))))
            """
        )
        package_root = Path(diffnb.__file__).resolve().parent.parent
        path = [str(package_root), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        child = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert child.returncode == 0, child.stderr
        assert child.stdout == repr(serial) + "\n"

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
