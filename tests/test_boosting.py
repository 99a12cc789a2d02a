"""Weight updates, epoch semantics, and the training loop."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diffnb.boosting import (
    _FIRST_WINDOW,
    TrainConfig,
    TrainState,
    TrainTrace,
    _row_scores,
    _row_step,
    run_epoch,
    scores_from_logs,
    train,
    weighted_log_scores,
    winner_of,
)
from diffnb.dataset import AttributeSpec, Dataset, Schema
from diffnb.evaluation import evaluate
from diffnb.monks import MONKS_BINS, generate_monks

from conftest import small_problems, xor_dataset


def cells_of(bins, b_max):
    """Flat cell indices of bin rows on a (M, b_max) grid: attribute m's bin b is m * b_max + b."""
    bins = np.asarray(bins)
    return bins + np.arange(bins.shape[-1]) * b_max


def one_attr_dataset(values_and_labels):
    schema = Schema((AttributeSpec("x", "continuous"),), ("c0", "c1"))
    return Dataset.build(schema, [((float(v),), int(c)) for v, c in values_and_labels])


def grid_state(bins, label, k=2, b=4, alpha=2.0):
    """A training state whose row 0, of class ``label``, lies in ``bins`` on grids of b bins.

    A value is its bin: rows 1 and 2, at 0 and b - 1, pin every grid to
    [0, b - 1], so value v falls in bin v.
    """
    m = len(bins)
    schema = Schema(
        tuple(AttributeSpec(f"x{j}", "continuous") for j in range(m)), tuple(f"c{c}" for c in range(k))
    )
    rows = [(tuple(map(float, bins)), label), ((0.0,) * m, 0), ((b - 1.0,) * m, 0)]
    state = TrainState.build(Dataset.build(schema, rows), TrainConfig(alpha=alpha, topology=b))
    assert state.cells[0].tolist() == cells_of(bins, b).tolist()
    return state


def miss_step(state, scores):
    """The sweep's step on row 0 under ``scores``: its winner and step, then the boost if positive."""
    label = int(state.labels[0])
    winner, delta = _row_step(list(scores), label, state.config.alpha)
    if delta > 0.0:
        state._boost(0, label, delta)
    return winner, delta


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=0.0)
        with pytest.raises(ValueError, match="max_rounds"):
            TrainConfig(max_rounds=0)
        with pytest.raises(ValueError, match="tag_gain"):
            TrainConfig(tag_gain=0.0)
        with pytest.raises(ValueError, match="tag_gain"):
            TrainConfig(tag_gain=1.5)
        with pytest.raises(ValueError, match="epsilon_floor"):
            TrainConfig(epsilon_floor=0.0)

    @pytest.mark.parametrize("knob", ["alpha", "epsilon_floor"])
    def test_infinite_values_refused(self, knob):
        # an infinite step or floor makes inf - inf = nan of the scores
        with pytest.raises(ValueError, match=f"{knob} must be finite"):
            TrainConfig(**{knob: float("inf")})

    @pytest.mark.parametrize("rounds", [2.5, True, "3"], ids=["fraction", "boolean", "string"])
    def test_non_integer_max_rounds_refused(self, rounds):
        with pytest.raises(ValueError, match="max_rounds must be an integer"):
            TrainConfig(max_rounds=rounds)

    def test_numpy_integer_max_rounds_accepted(self):
        assert TrainConfig(max_rounds=np.int64(3)).max_rounds == 3

    def test_defaults(self):
        config = TrainConfig()
        assert (config.alpha, config.max_rounds, config.tag_gain) == (2.0, 500, 0.25)


class TestTrainTrace:
    def test_convergence_accessors(self):
        done = TrainTrace((5, 2, 0))
        assert done.epochs == 3 and done.converged
        stuck = TrainTrace((5, 2, 1))
        assert stuck.epochs == 3 and not stuck.converged


class TestBoostExample:
    """The sweep's miss step, ``_row_step`` then ``TrainState._boost``, on hand-set scores."""

    def test_half_ratio_gives_unit_step(self):
        state = grid_state([0, 2, 1], 0)
        assert miss_step(state, [0.3, 0.6]) == (1, 1.0)
        weights = state.weights
        assert weights[0, 0, 0] == 2.0 and weights[0, 1, 2] == 2.0 and weights[0, 2, 1] == 2.0

    def test_vanishing_true_score_gives_max_step(self):
        state = grid_state([0, 0, 0], 0)
        _, delta = miss_step(state, [1e-300, 0.5])
        assert delta == pytest.approx(2.0)
        assert np.all(state.weights[0, :, 0] == 1.0 + delta)

    def test_touches_exactly_true_class_cells(self):
        state = grid_state([1, 1, 3], 1)
        miss_step(state, [0.8, 0.2])
        touched = [(1, 0, 1), (1, 1, 1), (1, 2, 3)]
        assert [tuple(c) for c in np.argwhere(state.weights != 1.0)] == touched
        assert [tuple(c) for c in np.argwhere(state.logw != 0.0)] == touched

    def test_tie_against_true_class_is_a_zero_step(self):
        state = grid_state([0, 0, 0], 1)
        before = state.scores.copy()
        assert miss_step(state, [0.5, 0.5]) == (0, 0.0)
        assert np.all(state.weights == 1.0) and np.all(state.logw == 0.0)
        assert state.scores.tobytes() == before.tobytes()


class TestScoring:
    def test_weighted_log_scores_is_the_product_in_logs(self):
        logw = np.log(np.array([[[2.0, 1.0]], [[1.0, 4.0]]]))  # (K=2, M=1, B=2)
        cells = np.array([[0], [1]])  # M=1: a cell is its bin
        loglik = np.log(np.array([[0.5, 0.25], [0.5, 0.25]]))
        scores = np.exp(weighted_log_scores(logw, cells, loglik))
        np.testing.assert_allclose(scores, [[1.0, 0.25], [0.5, 1.0]], rtol=1e-12)

    @pytest.mark.parametrize("k, m, b, n", [(2, 1, 1, 1), (2, 6, 4, 1), (3, 20, 8, 50), (5, 33, 3, 7)])
    def test_gather_matches_fancy_indexing(self, k, m, b, n):
        # the reference sums each row's M log-weights in attribute order;
        # with M >= 8 a sum along a contiguous axis would pair them up
        rng = np.random.default_rng(k * 1000 + m)
        logw = np.log1p(rng.random((k, m, b)) * 1e3)
        bins = rng.integers(0, b, size=(n, m))
        loglik = rng.standard_normal((n, k)) * 50
        reference = loglik + logw[:, np.arange(m)[None, :], bins].sum(axis=2).T
        assert weighted_log_scores(logw, cells_of(bins, b), loglik).tobytes() == reference.tobytes()

    def test_model_log_weights_are_cell_major(self):
        # the gather reads rows of the (M * B_max, K) view; a model's table
        # is laid out so that view needs no copy
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        k, m, b = model.log_weights.shape
        assert model.log_weights.reshape(k, m * b).T.flags.c_contiguous
        assert model.log_weights.tobytes() == np.log(model.weights).tobytes()

    def test_moderate_rows_exponentiate_directly(self):
        logs = np.log(np.array([[0.3, 0.6], [0.1, 0.05]]))
        assert np.all(scores_from_logs(logs) == np.exp(logs))

    def test_extreme_rows_shift_by_their_max(self):
        logs = np.array([[-800.0, -802.0], [900.0, 890.0]])
        scores = scores_from_logs(logs)
        assert scores[0, 0] == 1.0 and scores[0, 1] == pytest.approx(np.exp(-2.0))
        assert scores[1, 0] == 1.0 and scores[1, 1] == pytest.approx(np.exp(-10.0))

    def test_floor_keeps_scores_positive(self):
        scores = scores_from_logs(np.array([0.0, -5000.0]))
        assert scores[1] > 0.0

    def test_single_row_squeeze(self):
        assert scores_from_logs(np.array([0.0, -1.0])).shape == (2,)

    def test_winner_of_breaks_ties_low(self):
        assert winner_of(np.array([-1.0, -1.0, -3.0])) == (0, True)
        assert winner_of(np.array([-2.0, -1.0])) == (1, False)


class TestReadOnlyModels:
    def test_trained_weights_refuse_writes(self):
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        with pytest.raises(ValueError, match="read-only"):
            model.weights[0, 0, 0] = 5.0
        with pytest.raises(ValueError, match="read-only"):
            model.weights[1].flat[cells_of([0, 0], 2)] += 1.0
        with pytest.raises(ValueError, match="read-only"):
            model.log_weights[0, 0, 0] = 0.0

    def test_train_state_keeps_its_own_weights_writable(self):
        state = TrainState.build(xor_dataset(), TrainConfig(topology=2))
        cell = (0, *np.divmod(state.cells[0, 0], state.weights.shape[2]))
        _, delta = _row_step([0.2, 0.8], 0, 2.0)
        assert delta == 1.5
        before = state.scores[0, 0]
        state._boost(0, 0, delta)
        assert state.weights[cell] == 2.5
        assert state.logw[cell] == np.log(2.5)
        # row 0 holds both boosted cells: their increments are summed, then added
        assert state.scores[0, 0] == before + (np.log(2.5) + np.log(2.5))
        run_epoch(state)
        model, trace = train(xor_dataset(), TrainConfig(topology=2))
        assert trace.converged and not model.weights.flags.writeable


class TestEpochs:
    def test_clean_dataset_returns_zero_and_keeps_weights(self):
        data = one_attr_dataset([(0, 0), (1, 1)])
        state = TrainState.build(data, TrainConfig(topology=(2,)))
        assert run_epoch(state) == 0
        assert np.all(state.weights == 1.0)

    def test_contradictory_rows_never_converge(self):
        data = one_attr_dataset([(0, 0), (0, 1)])
        model, trace = train(data, TrainConfig(max_rounds=7, topology=(1,)))
        assert trace.epochs == 7
        assert not trace.converged
        assert all(count >= 1 for count in trace.miss_counts)

    def test_sequential_updates_with_hand_trace(self):
        # Bin 0 holds rows (c0, c1, c1) with P(c0)=1/4 and P(c1)=1/2; the
        # fourth row sits alone in bin 1 and stays correct throughout.
        # Row 0 misses with ratio 1/2, so its boost is 2(1 - 1/2) = 1,
        # doubling W[c0] and lifting c0 into an exact tie (all quantities
        # dyadic) that row 0 then wins by index. Rows 1 and 2 now miss at
        # ratio 1, a zero step, so every later epoch repeats exactly two
        # zero-step misses with frozen weights.
        data = one_attr_dataset([(5, 0), (5, 1), (5, 1), (9, 1)])
        model, trace = train(data, TrainConfig(max_rounds=4, topology=(2,)))
        assert trace.miss_counts == (3, 2, 2, 2)
        weights = model.weights
        assert weights[0, 0, 0] == 2.0
        assert weights[0, 0, 1] == 1.0
        assert np.all(weights[1] == 1.0)

    def test_empty_training_set_rejected(self):
        schema = Schema((AttributeSpec("x", "continuous"),), ("c0", "c1"))
        with pytest.raises(ValueError, match="empty"):
            train(Dataset.build(schema, []))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "infinite"])
    def test_unbinnable_value_rejected(self, value):
        # a NaN or an infinite value leaves the grid fitted to it no finite bounds
        data = one_attr_dataset([(0, 0), (value, 1), (1, 1)])
        with pytest.raises(ValueError, match="attribute 0: cannot bin"):
            train(data)

    def test_xor_with_windows_converges_immediately(self):
        model, trace = train(xor_dataset(), TrainConfig(topology=2))
        assert trace.miss_counts == (0,)
        assert trace.converged and trace.epochs == 1
        assert np.all(model.weights == 1.0)

    def test_xor_without_windows_never_converges(self):
        model, trace = train(xor_dataset(), TrainConfig(topology=2, tag_gain=1.0, max_rounds=6))
        assert not trace.converged
        assert trace.miss_counts == (2,) * 6  # the two c1 rows lose every tie

    @given(small_problems(max_n=12, max_attrs=3))
    def test_convergence_certificate(self, problem):
        # a converged trace must mean a perfectly clean fresh evaluation
        data, topology = problem
        model, trace = train(data, TrainConfig(max_rounds=8, topology=topology))
        if trace.converged:
            assert evaluate(model, data).accuracy == 100.0

    @given(small_problems(max_n=12, max_attrs=3))
    def test_weights_only_grow(self, problem):
        data, topology = problem
        state = TrainState.build(data, TrainConfig(max_rounds=8, topology=topology))
        previous = state.weights.copy()
        assert np.all(previous == 1.0)
        for _ in range(4):
            run_epoch(state)
            assert np.all(state.weights >= previous)
            previous = state.weights.copy()


# -- references: the flip-check sweep, scoring and boosting in array form ----

_SAFE_LOG = 690.0
_TINY = float(np.finfo(np.float64).tiny)


def reference_scores_from_logs(log_scores):
    """The array form of ``scores_from_logs``, as it read before the sweep's scalar path."""
    logs = np.asarray(log_scores, dtype=np.float64)
    squeeze = logs.ndim == 1
    if squeeze:
        logs = logs[None, :]
    rowmax = logs.max(axis=1, keepdims=True)
    shift = np.where(np.abs(rowmax) < _SAFE_LOG, 0.0, rowmax)
    scores = np.maximum(np.exp(logs - shift), _TINY)
    return scores[0] if squeeze else scores


def reference_boost_example(weights, cells, label, scores, alpha):
    """The miss step in array form; returns the step.

    Adds alpha * (1 - scores[label] / scores[winner]) in place to class
    ``label``'s weights in ``cells``. A row its label wins is no miss and raises.
    """
    winner = int(np.argmax(scores))
    if winner == label:
        raise ValueError("the label wins: not a miss")
    delta = alpha * (1.0 - scores[label] / scores[winner])
    if delta > 0.0:
        cols, bins = np.divmod(cells, weights.shape[2])
        weights[label, cols, bins] += delta
    return float(delta)


def reference_update(state, i, wins, missing, counts):
    """Patch logw and scores as the sweep does, then update kept winners."""
    label = int(state.labels[i])
    cells = state.cells[i]
    touched = (label, *np.divmod(cells, state.weights.shape[2]))
    old = state.logw[touched]
    new = np.log(state.weights[touched])
    state.logw[touched] = new

    groups = [state.rows_by_cell[c] for c in cells]
    amount = np.repeat(new - old, [len(rows) for rows in groups])
    patch = np.bincount(np.concatenate(groups), weights=amount, minlength=len(state.labels))
    state.scores[:, label] += patch

    # only the boosted class rose, so a later row keeps its winner or
    # passes to that class, which also takes exact ties it outranks
    ahead = slice(i + 1, None)
    rows = np.flatnonzero((patch[ahead] > 0.0) & (wins[ahead] != label)) + (i + 1)
    held = state.scores[rows, wins[rows]]
    came = state.scores[rows, label]
    tied = (came == held) & (label < wins[rows])
    flipped = rows[(came > held) | tied]
    wins[flipped] = label
    missing[flipped] = state.labels[flipped] != label
    counts["flips"] += len(flipped)
    counts["tie_flips"] += int(np.count_nonzero(tied))


def reference_scan(state, counts):
    """One pass that keeps every row's winner and jumps to the next kept miss."""
    labels = state.labels
    n = len(labels)
    wins = np.argmax(state.scores, axis=1)
    missing = wins != labels
    top = np.sort(state.scores, axis=1)
    counts["tied_rows"] += int(np.count_nonzero(top[:, -1] == top[:, -2]))
    misses = 0
    start = 0
    while start < n:
        ahead = int(np.argmax(missing[start:]))
        if not missing[start + ahead]:
            break
        i = start + ahead
        misses += 1
        start = i + 1
        counts["shifted"] += int(abs(state.scores[i].max()) >= _SAFE_LOG)
        row_scores = reference_scores_from_logs(state.scores[i])
        label = int(labels[i])
        if int(np.argmax(row_scores)) == label:
            counts["collapses"] += 1
            continue
        delta = reference_boost_example(
            state.weights, state.cells[i], label, row_scores, state.config.alpha
        )
        if delta > 0.0:
            reference_update(state, i, wins, missing, counts)
    return misses


def reference_epoch(state, counts):
    misses = reference_scan(state, counts)
    if misses == 0:
        state.scores = weighted_log_scores(state.logw, state.cells, state.loglik)
        misses = reference_scan(state, counts)
    return misses


def compare_sweeps(data, config, epochs, scores=None):
    """Run both sweeps side by side; every epoch must agree bit for bit.

    ``scores``, if given, replaces both states' starting log scores.
    """
    new = TrainState.build(data, config)
    ref = TrainState.build(data, config)
    if scores is not None:
        new.scores = np.array(scores, dtype=np.float64)
        ref.scores = np.array(scores, dtype=np.float64)
    counts = {"flips": 0, "tie_flips": 0, "tied_rows": 0, "shifted": 0, "collapses": 0}
    miss_counts = []
    for _ in range(epochs):
        misses = run_epoch(new)
        assert misses == reference_epoch(ref, counts)
        assert new.weights.tobytes() == ref.weights.tobytes()
        assert new.logw.tobytes() == ref.logw.tobytes()
        assert new.scores.tobytes() == ref.scores.tobytes()
        miss_counts.append(misses)
        if misses == 0:
            break
    return miss_counts, counts


def seeded_problem(seed):
    """K = 2..4 classes; few-valued discrete attributes give exact ties."""
    rng = np.random.default_rng(seed)
    k = 2 + seed % 3
    n = int(rng.integers(30, 120))
    n_discrete = int(rng.integers(1, 4))
    n_continuous = int(rng.integers(0, 3))
    attributes = tuple(
        AttributeSpec(f"d{j}", "categorical", tuple("abcd"[: int(rng.integers(2, 5))]))
        for j in range(n_discrete)
    ) + tuple(AttributeSpec(f"x{j}", "continuous") for j in range(n_continuous))
    schema = Schema(attributes, tuple(f"c{c}" for c in range(k)))
    rows = []
    for _ in range(n):
        values = [float(rng.integers(len(a.values))) for a in attributes[:n_discrete]]
        values += [float(rng.integers(0, 8)) / 2.0 for _ in range(n_continuous)]
        rows.append((tuple(values), int(rng.integers(k))))
    return Dataset.build(schema, rows)


SEEDS = range(12)


def train_heavy_shaped_problem(n=2000, m=20, k=3, flip=0.05, seed=0):
    """Gaussian rows labelled by a linear argmax, a share of them flipped to another class.

    With 20 attributes of 8 bins each, a row shares 3 or more of its cells
    with many other rows, so a boost's patch sums several increments per
    row, and misses lie far enough apart that the next-miss scan doubles
    its window.
    """
    rng = np.random.default_rng(seed)
    values = np.round(rng.standard_normal((n, m)), 5)
    labels = np.argmax(values @ rng.standard_normal((m, k)), axis=1)
    flipped = rng.random(n) < flip
    labels = np.where(flipped, (labels + rng.integers(1, k, size=n)) % k, labels)
    schema = Schema(
        tuple(AttributeSpec(f"x{j}", "continuous") for j in range(m)), tuple(f"c{c}" for c in range(k))
    )
    return Dataset.build(schema, list(zip(map(tuple, values.tolist()), labels.tolist())))


class TestOnDemandScanMatchesFlipCheck:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_problems(self, seed):
        compare_sweeps(seeded_problem(seed), TrainConfig(topology=3), epochs=6)

    def test_seeded_problems_cover_flips_and_ties(self):
        # the comparisons above mean something only if boosts flip later
        # rows, some of them through an exact tie
        total = {"flips": 0, "tie_flips": 0, "tied_rows": 0, "shifted": 0, "collapses": 0}
        for seed in SEEDS:
            _, counts = compare_sweeps(seeded_problem(seed), TrainConfig(topology=3), epochs=6)
            for key, value in counts.items():
                total[key] += value
        assert total["flips"] > 0
        assert total["tie_flips"] > 0
        assert total["tied_rows"] > 0

    @given(small_problems(max_n=12, max_attrs=3, max_classes=4))
    def test_small_problems(self, problem):
        data, topology = problem
        compare_sweeps(data, TrainConfig(topology=topology), epochs=5)

    def test_train_heavy_shape(self):
        # many rows share 3 or more of the first missed row's cells, and
        # misses lie more than two windows apart
        data = train_heavy_shaped_problem()
        state = TrainState.build(data, TrainConfig(topology=8))
        missed = np.flatnonzero(state.scores.argmax(axis=1) != state.labels)
        shared = np.bincount(np.concatenate([state.rows_by_cell[c] for c in state.cells[missed[0]]]))
        assert np.count_nonzero(shared >= 3) > 100
        assert np.diff(missed).max() > 2 * _FIRST_WINDOW
        miss_counts, counts = compare_sweeps(data, TrainConfig(topology=8), epochs=2)
        assert len(miss_counts) == 2 and counts["flips"] > 0

    def test_no_misses(self):
        data = one_attr_dataset([(0, 0), (1, 1)] * 40)
        assert compare_sweeps(data, TrainConfig(topology=(2,)), epochs=3) == (
            [0],
            {"flips": 0, "tie_flips": 0, "tied_rows": 0, "shifted": 0, "collapses": 0},
        )

    @pytest.mark.parametrize(
        "position", [3 * _FIRST_WINDOW + 5, 6 * _FIRST_WINDOW], ids=["third-window", "last-row"]
    )
    def test_lone_miss_beyond_the_first_window(self, position):
        # a contradictory row among clean ones is the first epoch's only miss
        rows = [(0, 0), (1, 1)] * (_FIRST_WINDOW * 3)
        rows.insert(position, (0, 1))
        miss_counts, _ = compare_sweeps(
            one_attr_dataset(rows), TrainConfig(topology=(2,)), epochs=3
        )
        assert miss_counts[0] == 1


def wide_repeated_problem():
    """Random rows on a wide table, each listed twice under one class and once under the other.

    A log score sums hundreds of log-likelihood parts, so the first
    epoch's scores lie far below -690 and its misses are exponentiated
    through the shift branch; later boosts lift scores back into range.
    """
    rng = np.random.default_rng(0)
    m = 300
    schema = Schema(tuple(AttributeSpec(f"x{j}", "continuous") for j in range(m)), ("c0", "c1"))
    rows = []
    for values in rng.normal(size=(30, m)):
        label = int(rng.integers(2))
        rows += [(tuple(values), label)] * 2 + [(tuple(values), 1 - label)]
    return Dataset.build(schema, rows)


class TestScalarSweepMatchesArrayForm:
    """The sweep against the reference sweep on the arithmetic's edge cases."""

    def test_rows_shifted_for_their_magnitude(self):
        config = TrainConfig(alpha=0.1, topology=8, epsilon_floor=1e-300)
        _, counts = compare_sweeps(wide_repeated_problem(), config, epochs=4)
        assert counts["shifted"] > 0
        assert counts["flips"] > 0

    def test_exp_collapse_is_a_zero_step(self):
        # row 0 (c0) trails c1 by less than exp() resolves near 0, so the
        # scores tie after exp() and the lower index, its own class, wins
        data = one_attr_dataset([(0, 0), (1, 1), (0, 0), (1, 1)])
        scores = [[-1e-17, 0.0], [-5.0, 0.0], [0.0, -5.0], [-5.0, 0.0]]
        miss_counts, counts = compare_sweeps(
            data, TrainConfig(topology=(2,)), epochs=3, scores=scores
        )
        assert miss_counts == [1, 1, 1]
        assert counts["collapses"] == 3

    def test_monks2_first_50_epochs(self):
        train_set, _ = generate_monks(2)
        miss_counts, _ = compare_sweeps(train_set, TrainConfig(topology=MONKS_BINS), epochs=50)
        assert len(miss_counts) == 50


# log scores that make exact ties, TINY floors (exp(-800) underflows) and
# both sides of the shift threshold likely
_LOG_POOL = [0.0, -1e-17, 1e-17, -1.0, -3.5, -689.9, 689.9, -690.0, 690.0, -745.5, -800.0, -5000.0]


@st.composite
def log_rows(draw, k):
    """A K-vector of log scores drawn from a few values, so exact ties are common."""
    pool = draw(
        st.lists(
            st.one_of(
                st.sampled_from(_LOG_POOL), st.floats(-3.0, 3.0), st.floats(-1000.0, 1000.0)
            ),
            min_size=1,
            max_size=k,
        )
    )
    return draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k))


@st.composite
def log_batches(draw):
    k = draw(st.integers(2, 5))
    return np.array(draw(st.lists(log_rows(k), min_size=1, max_size=6)))


class TestScalarRowMatchesArrayForm:
    """``scores_from_logs``, the sweep's row step and its miss step against their array forms."""

    @given(log_batches())
    @example(np.array([[-800.0, 0.0], [-800.0, -750.0], [0.0, 0.0], [-1e-17, 0.0]]))
    def test_scores_from_logs(self, logs):
        expected = reference_scores_from_logs(logs)
        assert scores_from_logs(logs).tobytes() == expected.tobytes()
        for row, want in zip(logs, expected):
            assert scores_from_logs(row).tobytes() == want.tobytes()
            assert scores_from_logs(list(row)).tobytes() == want.tobytes()

    @given(
        log_batches(),
        st.lists(st.integers(0, 4), min_size=6, max_size=6),
        # a dyadic alpha scales exactly and would hide the step's rounding
        st.one_of(st.just(2.0), st.floats(0.01, 10.0)),
        st.integers(0, 2**32 - 1),
    )
    @example(np.array([[0.0, 0.0]]), [1] * 6, 2.0, 0).via("tie against the label")
    @example(np.array([[-800.0, 0.0, -800.0]]), [2] * 6, 2.0, 0).via("TINY-floored label")
    @example(np.array([[0.0, -1.0]]), [0] * 6, 2.0, 0).via("label wins")
    def test_boost_example(self, logs, labels, alpha, seed):
        # row scores, winner, step and weight update as the sweep takes them
        k = logs.shape[1]
        m, b = 3, 4
        rng = np.random.default_rng(seed)
        start = rng.uniform(1.0, 5.0, size=(k, m, b))
        for row, scores, label in zip(logs, reference_scores_from_logs(logs), labels):
            label %= k
            bins = rng.integers(0, b, size=m)
            state = grid_state(bins, label, k=k, b=b, alpha=alpha)
            # in place: the state boosts through views of its own arrays
            state.weights[...] = start
            state.logw[...] = np.log(start)
            ref = start.copy()
            try:
                expected = reference_boost_example(ref, cells_of(bins, b), label, scores, alpha)
            except ValueError:
                expected = 0.0  # the label wins: the sweep's step is 0
            _, delta = miss_step(state, _row_scores(row))
            assert type(delta) is float
            assert np.float64(delta).tobytes() == np.float64(expected).tobytes()
            assert state.weights.tobytes() == ref.tobytes()

    @given(
        log_batches(),
        st.lists(st.integers(0, 4), min_size=6, max_size=6),
        st.one_of(st.just(2.0), st.floats(0.01, 10.0)),
    )
    @example(np.array([[0.0, 0.0]]), [1] * 6, 2.0).via("tie against the label")
    @example(np.array([[-800.0, 0.0, -800.0]]), [2] * 6, 2.0).via("TINY-floored label")
    @example(np.array([[-800.0, -750.0]]), [0] * 6, 2.0).via("shifted row")
    @example(np.array([[0.0, -1.0]]), [0] * 6, 2.0).via("label wins")
    def test_row_step(self, logs, labels, alpha):
        # the sweep's scores, winner and step, with no weights in between
        for row, label in zip(logs, labels):
            label %= len(row)
            expected = reference_scores_from_logs(row)
            scores = _row_scores(row)
            assert all(type(s) is float for s in scores)
            assert np.array(scores).tobytes() == expected.tobytes()
            winner, delta = _row_step(scores, label, alpha)
            assert winner == int(np.argmax(expected))
            try:
                want = reference_boost_example(np.ones((len(row), 1, 1)), [0], label, expected, alpha)
            except ValueError:
                assert winner == label and delta == 0.0
            else:
                assert np.float64(delta).tobytes() == np.float64(want).tobytes()


class TestNextMiss:
    """The window scan against a row-by-row search on hand-set scores."""

    N = 10 * _FIRST_WINDOW

    def state_with_misses(self, missed):
        labels = [r % 3 for r in range(self.N)]
        state = TrainState.build(
            Dataset.build(
                Schema((AttributeSpec("x", "continuous"),), ("c0", "c1", "c2")),
                [((float(r),), label) for r, label in enumerate(labels)],
            ),
            TrainConfig(topology=(1,)),
        )
        scores = np.zeros((self.N, 3))
        scores[np.arange(self.N), labels] = 1.0
        for r in missed:
            scores[r, (labels[r] + 1) % 3] = 2.0
        state.scores = scores
        return state

    @pytest.mark.parametrize(
        "missed",
        [
            [],
            [N - 1],
            [_FIRST_WINDOW],
            [3 * _FIRST_WINDOW + 2],
            [0, _FIRST_WINDOW - 1, 3 * _FIRST_WINDOW - 1, 3 * _FIRST_WINDOW, 7 * _FIRST_WINDOW, N - 1],
        ],
        ids=["none", "last-row", "second-window", "third-window", "spread"],
    )
    def test_matches_row_by_row_search(self, missed):
        state = self.state_with_misses(missed)
        for start in range(self.N + 1):
            expected = next((r for r in sorted(missed) if r >= start), self.N)
            assert state._next_miss(start) == expected

    def test_exact_ties_go_to_the_lower_class(self):
        state = self.state_with_misses([])
        state.scores[4, 0] = 1.0  # row 4 is c1, tied with c0: a miss
        state.scores[6, 2] = 1.0  # row 6 is c0, tied with c2: no miss
        assert state._next_miss(0) == 4
        assert state._next_miss(5) == self.N
