"""Posteriors, predictions, and scoring fidelity."""

import dataclasses
import types
from contextlib import contextmanager, nullcontext
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from diffnb import density as density_module
from diffnb import inference
from diffnb.boosting import (
    Model,
    TrainConfig,
    TrainTrace,
    resolved_config,
    scores_from_logs,
    train,
    weighted_log_scores,
    winner_of,
)
from diffnb.dataset import AttributeSpec, Dataset, Schema, SchemaError
from diffnb.density import BinGrid, BinSpec, _gated_parts_numpy, read_only
from diffnb.inference import (
    batch_log_scores,
    posterior,
    posterior_batch,
    predict,
    predict_batch,
)
from diffnb.modelfile import model_from_json, model_to_json

from conftest import (
    WIDE_SHAPES,
    edge_case,
    query_rows,
    reference_bin,
    reference_tagged_likelihood,
    small_problems,
    xor_dataset,
)


@contextmanager
def numpy_scoring():
    """Score as a host without the compiled library does: the numpy chain and its numpy window check."""
    with mock.patch.multiple(inference, _LOG_SCORES=None, _POSTERIOR=None), \
            mock.patch.object(density_module, "_SCORE", None):
        yield


# each scoring path under test and how to select it: the compiled pass
# where the library loaded, and the numpy chain
PATHS = {"compiled": nullcontext} if inference._LOG_SCORES is not None else {}
PATHS["numpy"] = numpy_scoring


def edge_model(seed, m, k):
    """A model on :func:`conftest.edge_case`'s density, with weights of many magnitudes, and its queries."""
    density, queries, _ = edge_case(seed, m, k)
    rng = np.random.default_rng([seed, m, k])
    shape = density.counts.shape
    weights = 1.0 + rng.exponential(size=shape) * 10.0 ** rng.integers(-6, 4, size=shape)
    # bins past an attribute's own count are dead and keep weight 1
    weights[:, np.arange(shape[2]) >= np.array(density.topology)[:, None]] = 1.0
    return Model(density, weights, resolved_config(TrainConfig(), density), TrainTrace(())), queries


def row_scores(model, row):
    """Unnormalized class scores of one row, as :func:`posterior` exponentiates them."""
    return scores_from_logs(batch_log_scores(model, np.array([row], dtype=np.float64)))[0]


@pytest.fixture(scope="module")
def xor_model():
    model, trace = train(xor_dataset(), TrainConfig(topology=2))
    assert trace.converged
    return model


class TestXorValues:
    def test_class_scores_are_the_hand_products(self, xor_model):
        scores = row_scores(xor_model, (0.0, 0.0))
        # c0: (1/4)(1/4); c1: both windows violated, (1/16)(1/16); the
        # log-domain round trip may wobble the last bit
        assert scores[0] == pytest.approx(0.0625, rel=1e-14)
        assert scores[1] == pytest.approx(0.00390625, rel=1e-14)

    def test_posterior_normalizes_the_products(self, xor_model):
        post = posterior(xor_model, (0.0, 0.0))
        assert post.probabilities[0] == pytest.approx(16 / 17, abs=1e-12)
        assert post.winner == 0 and not post.tie
        assert sum(post.probabilities) == pytest.approx(1.0, abs=1e-12)

    def test_predict_returns_the_label(self, xor_model):
        assert predict(xor_model, (0.0, 0.0)) == "c0"
        assert predict(xor_model, (0.0, 1.0)) == "c1"
        assert predict(xor_model, xor_dataset().value_matrix()[3]) == "c1"  # the row (1, 0)

    def test_all_four_rows_learned(self, xor_model):
        winners, ties = predict_batch(xor_model, xor_dataset().value_matrix())
        assert winners.tolist() == [0, 0, 1, 1]
        assert not ties.any()

    def test_without_windows_everything_ties_even(self):
        model, _ = train(xor_dataset(), TrainConfig(topology=2, tag_gain=1.0, max_rounds=3))
        for values, _label in ((0.0, 0.0), 0), ((1.0, 0.0), 1):
            post = posterior(model, values)
            assert post.probabilities == (0.5, 0.5)
            assert post.tie and post.winner == 0

    def test_arity_mismatch_rejected(self, xor_model):
        with pytest.raises(SchemaError, match="expects 2"):
            posterior(xor_model, (0.0, 0.0, 0.0))

    def test_nan_value_is_refused(self, xor_model):
        with pytest.raises(ValueError, match="attribute 1: cannot bin a NaN value"):
            posterior(xor_model, (0.0, float("nan")))

    def test_nan_row_is_refused_in_a_batch(self, xor_model):
        values = np.array([[0.0, 0.0], [1.0, 0.0], [float("nan"), 1.0]])
        with pytest.raises(ValueError, match="attribute 0: cannot bin a NaN value"):
            predict_batch(xor_model, values)

    def test_a_query_far_below_a_grid_near_the_float_limit(self):
        # the query is clamped into the grid before lo is subtracted, so
        # -1e308 - 1e308 is never computed and numpy warns of no overflow
        # (pytest turns a RuntimeWarning into an error)
        schema = Schema((AttributeSpec("x", "continuous"),), ("c0", "c1"))
        data = Dataset.build(schema, [((1e308,), 0), ((1.7e308,), 1)])
        model, _ = train(data, TrainConfig(topology=2))
        assert posterior(model, (-1e308,)) == posterior(model, (1e308,))
        assert posterior(model, (-np.inf,)) == posterior(model, (1e308,))


def trained_small(problem, max_rounds=4):
    data, topology = problem
    model, _ = train(data, TrainConfig(max_rounds=max_rounds, topology=topology))
    return data, model


class TestFidelity:
    @given(small_problems(max_n=10, max_attrs=4), st.data())
    def test_scores_match_direct_products(self, problem, extra):
        # moderate magnitudes: the log path must agree with plain products
        data, model = trained_small(problem)
        m = data.schema.n_attributes
        row = extra.draw(query_rows(m))
        scores = row_scores(model, row)
        for k in range(data.schema.n_classes):
            direct = 1.0
            for m_i in range(m):
                b = reference_bin(model.density.bin_specs[m_i], row[m_i])
                direct *= reference_tagged_likelihood(
                    model.density, row, k, m_i, model.config.tag_gain, model.config.epsilon_floor
                )
                direct *= model.weights[k, m_i, b]
            assert scores[k] == pytest.approx(direct, rel=1e-12)

    @given(small_problems(max_n=10, max_attrs=4), st.data())
    def test_posterior_normalization(self, problem, extra):
        data, model = trained_small(problem)
        row = extra.draw(query_rows(data.schema.n_attributes))
        post = posterior(model, row)
        assert sum(post.probabilities) == pytest.approx(1.0, abs=1e-9)
        assert all(0.0 <= p <= 1.0 for p in post.probabilities)

    def test_extreme_products_agree_with_exact_arithmetic(self):
        # scores far below double range: normalize against an exact product
        from diffnb.dataset import AttributeSpec, Dataset, Schema

        m = 21
        rows = [(tuple(float(v) for v in np.arange(m) * 0.5 + i), i % 3) for i in range(9)]
        schema = Schema(
            tuple(AttributeSpec(f"x{i}", "continuous") for i in range(m)),
            ("c0", "c1", "c2"),
        )
        data = Dataset.build(schema, rows)
        model, _ = train(data, TrainConfig(max_rounds=3, topology=2, epsilon_floor=1e-40))
        query = rows[4][0]
        post = posterior(model, query)
        with mpmath.workdps(80):
            exact = []
            for k in range(3):
                product = mpmath.mpf(1)
                for m_i in range(m):
                    b = reference_bin(model.density.bin_specs[m_i], query[m_i])
                    lik = reference_tagged_likelihood(
                        model.density, query, k, m_i, model.config.tag_gain, model.config.epsilon_floor
                    )
                    product *= mpmath.mpf(lik) * mpmath.mpf(model.weights[k, m_i, b])
                exact.append(product)
            total = mpmath.fsum(exact)
            for k in range(3):
                assert post.probabilities[k] == pytest.approx(float(exact[k] / total), abs=1e-9)
        # the batch path shifts such rows exactly as the single-row path does
        batch, _ = posterior_batch(model, data.value_matrix())
        for i, (values, _label) in enumerate(rows):
            assert tuple(batch[i].tolist()) == posterior(model, values).probabilities

    @given(
        st.lists(st.integers(-600, 600).map(float), min_size=2, max_size=5),
        st.integers(-200, 200).map(float),
    )
    def test_argmax_invariant_under_score_scaling(self, logs, shift):
        # adding a constant in logs is scaling every score by a positive
        # factor; integer logs keep the addition exact, so the winner
        # must be identical and the normalized scores nearly so
        logs = np.array(logs)
        base = scores_from_logs(logs)
        scaled = scores_from_logs(logs + shift)
        assert winner_of(logs + shift) == winner_of(logs)
        assert scaled / scaled.sum() == pytest.approx(base / base.sum(), rel=1e-9)

    @given(small_problems(max_n=10, max_attrs=3), st.data())
    def test_monotone_response_to_a_weight_bump(self, problem, extra):
        data, model = trained_small(problem)
        row = extra.draw(query_rows(data.schema.n_attributes))
        k = extra.draw(st.integers(0, data.schema.n_classes - 1))
        m_i = extra.draw(st.integers(0, data.schema.n_attributes - 1))
        before = posterior(model, row)
        assume(before.probabilities[k] < 1.0 - 1e-9)
        bumped = model.weights.copy()
        b = reference_bin(model.density.bin_specs[m_i], row[m_i])
        bumped[k, m_i, b] *= 2.0
        after = posterior(dataclasses.replace(model, weights=bumped), row)
        assert after.probabilities[k] > before.probabilities[k]


class TestBatch:
    @given(small_problems(max_n=8, max_attrs=3), st.data())
    def test_batch_matches_per_row_posteriors(self, problem, extra):
        data, model = trained_small(problem)
        m = data.schema.n_attributes
        queries = np.array(
            [extra.draw(query_rows(m)) for _ in range(extra.draw(st.integers(1, 5)))]
        ).reshape(-1, m)
        winners, ties = predict_batch(model, queries)
        scores = scores_from_logs(batch_log_scores(model, queries))
        for i, row in enumerate(queries):
            post = posterior(model, row)
            assert winners[i] == post.winner
            assert ties[i] == post.tie
            assert post.probabilities == pytest.approx(
                tuple(scores[i] / scores[i].sum()), rel=1e-12
            )

    @given(small_problems(max_n=8, max_attrs=3, max_classes=9), st.data())
    def test_posterior_batch_equals_posterior_bit_for_bit(self, problem, extra):
        # predict prints these probabilities, so a block of rows must
        # normalize exactly as one row at a time does, for any class count
        data, model = trained_small(problem)
        m = data.schema.n_attributes
        queries = np.array(
            [extra.draw(query_rows(m)) for _ in range(extra.draw(st.integers(1, 6)))]
        ).reshape(-1, m)
        probabilities, winners = posterior_batch(model, queries)
        assert probabilities.shape == (len(queries), data.schema.n_classes)
        for i, row in enumerate(queries):
            post = posterior(model, row)
            assert tuple(probabilities[i].tolist()) == post.probabilities
            assert winners[i] == post.winner


    @pytest.mark.parametrize("m, k", WIDE_SHAPES)
    def test_posterior_batch_equals_posterior_bit_for_bit_on_wide_tables(self, m, k):
        # M and K past numpy's pairwise-sum branches, on both scoring paths,
        # with queries off the grid, infinities, flat grids and empty and dead cells
        for seed in range(2):
            model, queries = edge_model(seed, m, k)
            results = {}
            for path, select in PATHS.items():
                with select():
                    logs = batch_log_scores(model, queries)
                    probabilities, winners = posterior_batch(model, queries)
                    for i, row in enumerate(queries):
                        post = posterior(model, row)
                        assert tuple(probabilities[i].tolist()) == post.probabilities
                        assert winners[i] == post.winner
                results[path] = logs.tobytes(), probabilities.tobytes(), winners.tobytes()
            assert len(set(results.values())) == 1


def crafted_tables(seed, m, k, n=6, b=3):
    """Arbitrary tables in the compiled pass's argument order, less the values and scores, and rows for them.

    Attribute j's grid is [0, b] in b bins, so value v + 0.5 falls in bin
    v. The log tables and log-weights hold values of either sign over
    sixteen decades, so a sum in any other order rounds differently; a
    third of the cells have a window that every row violates.
    """
    rng = np.random.default_rng([seed, m, k])
    c = m * b
    grid = BinGrid.of([BinSpec(j, 0.0, float(b), b) for j in range(m)])

    def spread(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)

    lo = np.full((k, c, m), -np.inf)
    lo[rng.random((k, c)) < 1 / 3, 0] = np.inf
    hi = np.full((k, c, m), np.inf)
    offsets = read_only(np.arange(m) * b)
    arrays = (grid.lo, grid.hi, grid.width, grid.top, offsets, lo, hi, spread(k, c), spread(k, c), spread(c, k))
    return arrays, rng.integers(0, b, size=(n, m)) + 0.5


def numpy_chain(arrays, values):
    """The numpy chain's log scores on crafted tables: bins, window check, parts' sum, weighted sum."""
    grid = BinGrid(*arrays[:4], tuple(range(len(arrays[0]))))
    offsets, lo, hi, log_base, log_gated, logw = arrays[4:]
    cells = grid.bins(values) + offsets
    tables = types.SimpleNamespace(window_lo=lo, window_hi=hi)
    parts = _gated_parts_numpy(values, cells, tables, log_base, log_gated).transpose(1, 0, 2)
    k, m = len(log_base), len(offsets)
    return weighted_log_scores(logw.T.reshape(k, m, -1), cells, parts.sum(axis=2)), parts


@pytest.mark.skipif(inference._LOG_SCORES is None, reason="the compiled library is not loaded")
class TestCompiledScores:
    """The compiled scoring pass on crafted tables, and the arguments it refuses."""

    @pytest.mark.parametrize("k", [2, 3, 9])
    def test_every_branch_of_the_pairwise_sum(self, k):
        # every M to 140 runs the plain sum and every remainder after the
        # eight running sums; past 128 the halving splits once or more
        reordered = set()
        for m in [*range(1, 141), 255, 256, 257, 300, 1000]:
            arrays, values = crafted_tables(m, m, k)
            want, parts = numpy_chain(arrays, values)
            scores = np.empty_like(want)
            assert inference._LOG_SCORES((values, *arrays, scores), k, m) == 0
            assert scores.tobytes() == want.tobytes(), m
            # the order matters on these tables: one running sum differs
            running = np.zeros(parts.shape[:2])
            for j in range(m):
                running += parts[:, :, j]
            if running.tobytes() != parts.sum(axis=2).tobytes():
                reordered.add(m)
        assert set(range(8, 141)) | {255, 256, 257, 300, 1000} <= reordered

    def test_arguments_of_another_type_or_length_are_refused(self):
        arrays, values = crafted_tables(0, 3, 2)
        args = dict(zip(
            ["values", "lo", "hi", "width", "top", "offsets", "window_lo", "window_hi",
             "log_base", "log_gated", "logw", "scores"],
            [values, *arrays, np.empty((len(values), 2))],
        ))

        def score(k=2, m=3, **changes):
            return inference._LOG_SCORES(tuple(dict(args, **changes).values()), k, m)

        assert score() == 0
        with pytest.raises(TypeError, match="values must hold float64"):
            score(values=values.astype(np.float32))
        with pytest.raises(TypeError, match="offsets must hold int64"):
            score(offsets=args["offsets"].astype(np.int32))
        with pytest.raises(TypeError, match="scores must hold float64"):
            score(scores=np.empty((len(values), 2), dtype=np.int64))
        with pytest.raises(TypeError):
            score(values=values.tolist())
        with pytest.raises(TypeError, match="a tuple of 12 arrays"):
            inference._LOG_SCORES(list(args.values()), 2, 3)
        with pytest.raises(TypeError, match="a tuple of 12 arrays"):
            inference._LOG_SCORES(tuple(args.values())[:-1], 2, 3)
        with pytest.raises(ValueError, match="not C-contiguous"):
            score(values=np.asfortranarray(values))
        with pytest.raises(ValueError, match="not C-contiguous"):
            score(logw=args["logw"].T)
        with pytest.raises(ValueError, match="read-only"):
            score(scores=read_only(np.empty((len(values), 2))))
        for changes in (
            dict(scores=np.empty((len(values), 3))),
            dict(values=values[:, :2].copy()),
            dict(top=args["top"][:2].copy()),
            dict(offsets=args["offsets"][:2].copy()),
            dict(window_lo=args["window_lo"][:1].copy()),
            dict(log_gated=np.ascontiguousarray(args["log_gated"][:, :-1])),
            dict(logw=args["logw"][:-1].copy()),
            dict(k=3),
            dict(m=2),
        ):
            with pytest.raises(ValueError, match="lengths disagree"):
                score(**changes)
        for changes in (dict(k=0), dict(m=0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                score(**changes)
        for offset in (-3, 9):
            with pytest.raises(ValueError, match="cell index lies outside"):
                score(offsets=np.full(3, offset, dtype=np.int64))


@pytest.mark.skipif(inference._POSTERIOR is None, reason="the compiled library is not loaded")
class TestCompiledPosterior:
    """The compiled posterior pass: rows it leaves to the numpy chain, and the arguments it refuses."""

    def model_with_weight(self, weight):
        """The xor model with class 0's weight of the cell of value 0.0 in attribute 0 set to ``weight``."""
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        weights = model.weights.copy()
        weights[0, 0, 0] = weight
        model = dataclasses.replace(model, weights=weights)
        with np.errstate(divide="ignore"):
            model.log_weights
        return model

    def test_a_log_score_that_is_not_finite_takes_the_numpy_chain(self):
        # a zero weight gives class 0 a log score of -inf, which exp takes
        # to 0 and the floor to _TINY; an infinite one gives +inf, and the
        # shift inf - inf warns as numpy's subtraction does
        row = (0.0, 0.0)
        zero = self.model_with_weight(0.0)
        arrays = (inference._as_rows(zero, row), *zero.scoring_arrays)
        assert inference._POSTERIOR(arrays, 2, 2) is None
        results = {}
        for path, select in PATHS.items():
            with select():
                results[path] = repr(posterior(zero, row))
        assert len(set(results.values())) == 1
        assert posterior(zero, row).winner == 1
        infinite = self.model_with_weight(np.inf)
        for select in PATHS.values():
            with select(), pytest.warns(RuntimeWarning, match="invalid value"):
                posterior(infinite, row)

    def test_only_the_numpy_chain_follows_numpy_s_error_state(self):
        # two subnormal weights put class 0's shifted log score below -708,
        # where exp underflows
        model, _ = train(xor_dataset(), TrainConfig(topology=2))
        weights = model.weights.copy()
        weights[0, :, 0] = 5e-324
        model = dataclasses.replace(model, weights=weights)
        row = (0.0, 0.0)
        expected = repr(posterior(model, row))
        assert posterior(model, row).probabilities[0] < 1e-300
        with np.errstate(under="raise"):
            if "compiled" in PATHS:
                assert repr(posterior(model, row)) == expected
            with numpy_scoring(), pytest.raises(FloatingPointError, match="underflow"):
                posterior(model, row)

    @pytest.mark.parametrize("path", list(PATHS))
    def test_a_row_that_is_not_contiguous_gives_its_copy_s_posterior(self, path):
        # a row of a Fortran-ordered matrix and a strided slice are float64
        # views with gaps between their values
        model, queries = edge_model(3, 9, 3)
        wide = np.repeat(queries, 2, axis=1)
        with PATHS[path]():
            for i, row in enumerate(queries):
                expected = repr(posterior(model, row.copy()))
                assert repr(posterior(model, np.asfortranarray(queries)[i])) == expected
                assert repr(posterior(model, wide[i, ::2])) == expected
                assert repr(posterior(model, tuple(row.tolist()))) == expected

    def test_arguments_of_another_type_or_length_are_refused(self, xor_model):
        arrays = xor_model.scoring_arrays
        one = np.zeros((1, 2))
        assert inference._POSTERIOR((one, *arrays), 2, 2) == dataclasses.astuple(posterior(xor_model, (0.0, 0.0)))
        with pytest.raises(TypeError, match="a tuple of 11 arrays"):
            inference._POSTERIOR((one, *arrays, np.empty((1, 2))), 2, 2)
        with pytest.raises(TypeError, match="values must hold float64"):
            inference._POSTERIOR((one.astype(np.float32), *arrays), 2, 2)
        with pytest.raises(ValueError, match="one row"):
            inference._POSTERIOR((np.zeros((2, 2)), *arrays), 2, 2)
        with pytest.raises(ValueError, match="lengths disagree"):
            inference._POSTERIOR((one, *arrays), 3, 2)
        with pytest.raises(ValueError, match="must be >= 1"):
            inference._POSTERIOR((one, *arrays), 2, 0)


class TestNanIsRefused:
    """A NaN anywhere in a batch is refused with BinGrid.bins's message, on every scoring path."""

    @pytest.mark.parametrize("path", list(PATHS))
    def test_the_lowest_attribute_holding_a_nan_is_named(self, path):
        model, _ = edge_model(0, 9, 3)
        queries = np.zeros((4, 9))
        queries[0, 7] = queries[2, 6] = queries[2, 4] = queries[3, 8] = np.nan
        with PATHS[path]():
            for values, lowest in ((queries, 4), (queries[:2], 7), (queries[3:], 8)):
                for call in (batch_log_scores, posterior_batch, predict_batch):
                    with pytest.raises(ValueError, match=f"^attribute {lowest}: cannot bin a NaN value$"):
                        call(model, values)
            with pytest.raises(ValueError, match="^attribute 4: cannot bin a NaN value$"):
                posterior(model, queries[2])


class TestScoringTables:
    def test_a_second_posterior_call_builds_no_table(self, xor_model, monkeypatch):
        # a loaded model has built nothing yet; its first posterior builds
        # the density's tables, both log tables and the log-weights, and a
        # second one reads every log from them
        model = model_from_json(model_to_json(xor_model))
        built, logs = [], []
        build_tables, log = density_module.ScoringTables, np.log
        monkeypatch.setattr(
            density_module, "ScoringTables", lambda d: built.append(d) or build_tables(d)
        )
        monkeypatch.setattr(np, "log", lambda *a, **kw: logs.append(a) or log(*a, **kw))
        first = posterior(model, (0.0, 0.0))
        assert (len(built), len(logs)) == (1, 3)
        second = posterior(model, (0.0, 0.0))
        assert (len(built), len(logs)) == (1, 3)
        assert first == second == posterior(xor_model, (0.0, 0.0))
