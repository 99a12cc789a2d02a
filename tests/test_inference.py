"""Posteriors, predictions, and scoring fidelity."""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from diffnb import density as density_module
from diffnb.boosting import TrainConfig, scores_from_logs, train, winner_of
from diffnb.dataset import SchemaError
from diffnb.inference import (
    batch_log_scores,
    posterior,
    posterior_batch,
    predict,
    predict_batch,
)
from diffnb.modelfile import model_from_json, model_to_json

from conftest import (
    query_rows,
    reference_bin,
    reference_tagged_likelihood,
    small_problems,
    xor_dataset,
)


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
