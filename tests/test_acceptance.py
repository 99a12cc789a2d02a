"""The release gate: benchmark reproductions and the invariant suite.

Each criterion is marked; the terminal summary prints one verdict line
per criterion. Benchmarks against datasets that must be downloaded skip
with fetch instructions when the files are absent.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from diffnb.boosting import (
    TrainConfig,
    TrainState,
    _row_scores,
    _row_step,
    run_epoch,
    train,
    weighted_log_scores,
)
from diffnb.dataset import ParseOptions, load_schema, parse_table, split_dataset
from diffnb.density import BinGrid, BinSpec, fit_density
from diffnb.evaluation import evaluate
from diffnb.inference import batch_log_scores, posterior
from diffnb.modelfile import model_from_json, model_to_json
from diffnb.monks import MONKS_BINS, generate_monks

from conftest import query_rows, small_problems, xor_dataset

ROOT = Path(__file__).parent.parent
DATA = ROOT / "data"
SCHEMAS = ROOT / "benchmarks" / "schemas"

S1000 = settings(max_examples=1000, deadline=None)

criterion = pytest.mark.criterion


def require_data(fetch_name: str, *filenames: str) -> None:
    missing = [f for f in filenames if not (DATA / f).exists()]
    if missing:
        pytest.skip(
            f"data not fetched ({', '.join(missing)});"
            f" run: python3 scripts/fetch_uci.py {fetch_name}"
        )


def timed_train(trainset, config):
    started = time.perf_counter()
    model, trace = train(trainset, config)
    return model, trace, time.perf_counter() - started


@criterion(1, "breast cancer: accuracy, convergence, speed")
class TestBreastCancer:
    def test_benchmark(self):
        require_data("breast-cancer", "breast-cancer-wisconsin.data")
        schema = load_schema(SCHEMAS / "breast-cancer.schema.json")
        options = ParseOptions(delimiter=",", ignore_cols=(0,))
        full = parse_table(DATA / "breast-cancer-wisconsin.data", schema, options)
        assert len(full) == 683  # 699 rows, 16 dropped for missing values
        trainset, testset = split_dataset(full, 341)
        model, trace, seconds = timed_train(trainset, TrainConfig(topology=7))
        test_accuracy = evaluate(model, testset).accuracy
        assert test_accuracy >= 96.5
        assert trace.converged and trace.epochs <= 200
        assert seconds < 10.0


@criterion(2, "thyroid: train band, test floor, speed")
class TestThyroid:
    def test_benchmark(self):
        require_data("thyroid", "ann-train.data", "ann-test.data")
        schema = load_schema(SCHEMAS / "thyroid.schema.json")
        trainset = parse_table(DATA / "ann-train.data", schema, ParseOptions())
        testset = parse_table(DATA / "ann-test.data", schema, ParseOptions())
        assert len(trainset) == 3772 and len(testset) == 3428
        bins = (9,) + (2,) * 15 + (9,) * 5
        model, _, seconds = timed_train(trainset, TrainConfig(topology=bins))
        train_accuracy = evaluate(model, trainset).accuracy
        test_accuracy = evaluate(model, testset).accuracy
        assert 98.56 <= train_accuracy <= 99.56
        assert test_accuracy >= 98.0
        assert seconds < 60.0


@pytest.fixture(scope="module")
def pima_splits():
    require_data("pima", "pima-indians-diabetes.data")
    schema = load_schema(SCHEMAS / "pima.schema.json")
    options = ParseOptions(delimiter=",")
    full = parse_table(DATA / "pima-indians-diabetes.data", schema, options)
    assert len(full) == 768
    return split_dataset(full, 512)


@criterion(3, "pima: accuracy band and bin additivity")
class TestPima:
    def test_benchmark(self, pima_splits):
        trainset, testset = pima_splits
        model, _, _ = timed_train(trainset, TrainConfig(topology=(8, 5, 5, 5, 14, 30, 5, 6)))
        test_accuracy = evaluate(model, testset).accuracy
        assert 74.95 <= test_accuracy <= 78.95

    def test_good_bin_counts_help_jointly(self, pima_splits):
        trainset, testset = pima_splits

        def test_accuracy(topology):
            model, _ = train(trainset, TrainConfig(topology=topology))
            return evaluate(model, testset).accuracy

        combined = test_accuracy((5, 5, 5, 5, 14, 30, 5, 5))
        fifth_only = test_accuracy((5, 5, 5, 5, 14, 5, 5, 5))
        sixth_only = test_accuracy((5, 5, 5, 5, 5, 30, 5, 5))
        assert combined > fifth_only
        assert combined > sixth_only


@criterion(4, "monk's problems: easy sets high, set 2 stuck")
class TestMonks:
    def run_problem(self, problem):
        trainset, testset = generate_monks(problem)
        model, _ = train(trainset, TrainConfig(topology=MONKS_BINS))
        return evaluate(model, testset).accuracy

    def test_set_1(self):
        assert self.run_problem(1) >= 95.0

    def test_set_3(self):
        assert self.run_problem(3) >= 92.0

    def test_set_2_stays_in_the_failure_band(self):
        assert 60.0 <= self.run_problem(2) <= 75.0


@criterion(5, "xor: even ties ungated, perfect when gated")
class TestXor:
    def test_ungated_posteriors_all_tie_even(self):
        model, _ = train(xor_dataset(), TrainConfig(topology=2, tag_gain=1.0, max_rounds=5))
        for values in xor_dataset().value_matrix():
            post = posterior(model, values)
            assert post.tie
            for p in post.probabilities:
                assert abs(p - 0.5) <= 1e-9

    def test_gated_training_is_perfect(self):
        model, trace = train(xor_dataset(), TrainConfig(topology=2))
        assert trace.converged
        assert evaluate(model, xor_dataset()).accuracy == 100.0


def oracle_density(data, topology):
    """Scalar, dict-based refit of the count/window tables."""
    rows = data.value_matrix().tolist()
    labels = data.labels().tolist()
    m_n = data.schema.n_attributes
    k_n = data.schema.n_classes
    edges = []
    for m in range(m_n):
        column = [row[m] for row in rows]
        lo, hi = min(column), max(column)
        edges.append((lo, hi, (hi - lo) / topology[m]))

    def which_bin(m, value):
        lo, _, width = edges[m]
        if width == 0.0:
            return 0
        return min(max(math.floor((value - lo) / width), 0), topology[m] - 1)

    counts = [[[0] * topology[m] for m in range(m_n)] for _ in range(k_n)]
    members: dict[tuple[int, int, int], list[int]] = {}
    for i, (row, label) in enumerate(zip(rows, labels)):
        for m in range(m_n):
            b = which_bin(m, row[m])
            counts[label][m][b] += 1
            members.setdefault((label, m, b), []).append(i)
    return edges, counts, members


@criterion(6, "small-data refit matches a brute-force oracle exactly")
class TestOracleEquivalence:
    @S1000
    @given(small_problems(max_n=20))
    def test_counts_probabilities_and_windows(self, problem):
        data, topology = problem
        density = fit_density(data, topology)
        edges, counts, members = oracle_density(data, topology)
        rows = data.value_matrix().tolist()
        n = len(data)
        m_n = data.schema.n_attributes
        k_n = data.schema.n_classes

        assert density.epsilon_floor == 1.0 / (10.0 * n)
        assert density.n_train == n
        probabilities = density.counts / float(density.n_train)
        for m in range(m_n):
            spec = density.bin_specs[m]
            assert (spec.lo, spec.hi) == edges[m][:2]
            assert spec.count == topology[m]
        for k in range(k_n):
            for m in range(m_n):
                for b in range(topology[m]):
                    want = counts[k][m][b]
                    assert int(density.counts[k, m, b]) == want
                    assert probabilities[k, m, b] == want / n
                    group = members.get((k, m, b))
                    for j in range(m_n):
                        lo = density.window_lo[k, m, b, j]
                        hi = density.window_hi[k, m, b, j]
                        if group is None or j == m:
                            assert lo == -math.inf and hi == math.inf
                        else:
                            assert lo == min(rows[i][j] for i in group)
                            assert hi == max(rows[i][j] for i in group)
                # bins past this attribute's own count stay untouched
                assert not density.counts[k, m, topology[m] :].any()


_INVARIANT_SECONDS: list[float] = []


@pytest.fixture()
def invariant_clock():
    started = time.perf_counter()
    yield
    _INVARIANT_SECONDS.append(time.perf_counter() - started)


@criterion(7, "invariant suite: seven properties, 1000 cases each")
class TestInvariants:
    @S1000
    @given(small_problems(), st.data())
    def test_posteriors_normalize(self, invariant_clock, problem, extra):
        data, topology = problem
        model, _ = train(data, TrainConfig(max_rounds=2, topology=topology))
        row = extra.draw(query_rows(data.schema.n_attributes))
        post = posterior(model, row)
        assert abs(sum(post.probabilities) - 1.0) <= 1e-9
        assert all(0.0 <= p <= 1.0 for p in post.probabilities)

    @S1000
    @given(small_problems())
    def test_counts_conserve_examples(self, invariant_clock, problem):
        data, topology = problem
        density = fit_density(data, topology)
        labels = data.labels()
        n_k = np.bincount(labels, minlength=data.schema.n_classes)
        for m in range(data.schema.n_attributes):
            per_class = density.counts[:, m, :].sum(axis=1)
            assert np.array_equal(per_class, n_k)
        assert density.n_train == len(data)

    @S1000
    @given(small_problems(), st.integers(1, 3))
    def test_weights_start_at_one_and_never_shrink(self, invariant_clock, problem, rounds):
        data, topology = problem
        config = TrainConfig(max_rounds=rounds, topology=topology)
        state = TrainState.build(data, config)
        assert np.all(state.weights == 1.0)
        for _ in range(rounds):
            previous = state.weights.copy()
            run_epoch(state)
            assert np.all(state.weights >= previous)
        assert np.all(state.weights >= 1.0)

    @S1000
    @given(small_problems())
    def test_boosting_a_miss_improves_its_score_ratio(self, invariant_clock, problem):
        data, topology = problem
        # the first miss of the first sweep, boosted by the sweep's own step
        state = TrainState.build(data, TrainConfig(topology=topology))
        i = state._next_miss(0)
        assume(i < len(data))
        label = int(state.labels[i])
        wrong, delta = _row_step(_row_scores(state.scores[i]), label, state.config.alpha)
        assume(delta > 1e-9)
        before = state.scores[i].copy()
        state._boost(i, label, delta)
        after = weighted_log_scores(np.log(state.weights), state.cells, state.loglik)[i]
        assert after[wrong] == before[wrong]
        assert after[label] - after[wrong] > before[label] - before[wrong]

    @S1000
    @given(
        st.integers(-(10**6), 10**6),
        st.integers(1, 1000),
        st.integers(1, 64),
        st.data(),
    )
    def test_binning_picks_the_nearest_center(self, invariant_clock, lo, width, count, extra):
        # integer edges and half-integer probes keep every compare exact
        spec = BinSpec(0, float(lo), float(lo + count * width), count)
        half_steps = extra.draw(st.integers(-2 * count * width, 4 * count * width))
        value = lo + half_steps / 2.0
        centers = [lo + (b + 0.5) * width for b in range(count)]
        best = max(range(count), key=lambda b: (-abs(value - centers[b]), b))
        assert BinGrid.of([spec]).bins(np.array([[value]]))[0, 0] == best

    @S1000
    @given(small_problems())
    def test_models_survive_the_file_format(self, invariant_clock, problem):
        data, topology = problem
        model, _ = train(data, TrainConfig(max_rounds=2, topology=topology))
        loaded = model_from_json(model_to_json(model))
        assert loaded.schema == model.schema
        assert loaded.config == model.config
        assert loaded.trace == model.trace
        assert loaded.density.bin_specs == model.density.bin_specs
        assert np.array_equal(loaded.density.counts, model.density.counts)
        assert np.array_equal(loaded.density.window_lo, model.density.window_lo)
        assert np.array_equal(loaded.density.window_hi, model.density.window_hi)
        assert np.array_equal(loaded.weights, model.weights)
        values = data.value_matrix()
        assert np.array_equal(batch_log_scores(loaded, values), batch_log_scores(model, values))

    @S1000
    @given(small_problems(), st.integers(1, 3))
    def test_training_is_deterministic(self, invariant_clock, problem, rounds):
        data, topology = problem
        config = TrainConfig(max_rounds=rounds, topology=topology)
        first, first_trace = train(data, config)
        second, second_trace = train(data, config)
        assert first_trace == second_trace
        assert np.array_equal(first.weights, second.weights)
        values = data.value_matrix()
        assert np.array_equal(batch_log_scores(first, values), batch_log_scores(second, values))

    def test_the_whole_suite_fits_the_time_budget(self, record_property):
        total = sum(_INVARIANT_SECONDS)
        # shown on the criterion's summary line whether or not it passes
        record_property(
            "criterion_detail",
            f"{len(_INVARIANT_SECONDS)} invariant tests took {total:.1f} s of the 120 s budget",
        )
        assert total < 120.0
