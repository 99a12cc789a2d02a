"""Bin grids, joint tables, and window gating."""

import math
import shutil
import sys
from contextlib import nullcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffnb import density as density_module
from diffnb.dataset import AttributeSpec, Dataset, Schema, SchemaError
from diffnb.density import (
    _CHECK_BUDGET,
    DEFAULT_TAG_GAIN,
    BinGrid,
    BinSpec,
    fit_density,
    likelihood_logs,
    make_bin_spec,
    read_only,
    resolve_topology,
)

from conftest import (
    WIDE_SHAPES,
    edge_case,
    lattice_values,
    numeric_dataset,
    query_rows,
    reference_bin,
    reference_tagged_likelihood,
    small_problems,
    xor_dataset,
)


def bin_of(spec, value):
    """The package's bin of one value on one grid."""
    return int(BinGrid.of((spec,)).bins(np.array([[value]], dtype=np.float64))[0, 0])


def gated_likelihoods(density, values, **knobs):
    """One row's (K, M) window-gated likelihoods, from :func:`likelihood_logs`."""
    _, parts = likelihood_logs(density, np.array([values], dtype=np.float64), **knobs)
    return np.exp(parts[0])


class TestBinSpec:
    def test_fit_to_observed_range(self):
        spec = make_bin_spec([1.0, 4.0, 10.0, 2.0], 7)
        assert (spec.lo, spec.hi, spec.count) == (1.0, 10.0, 7)
        assert spec.width == pytest.approx(9 / 7)

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            make_bin_spec([], 3)

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            BinSpec(0, 0.0, 1.0, 0)

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="hi"):
            BinSpec(0, 2.0, 1.0, 3)

    @pytest.mark.parametrize(
        "lo, hi",
        [(math.nan, 1.0), (0.0, math.inf), (-math.inf, -math.inf), (-1e308, 1e308)],
        ids=["nan", "infinite", "both-infinite", "span-overflows"],
    )
    def test_non_finite_range_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="^attribute 0: cannot bin between lo"):
            BinSpec(0, lo, hi, 3)


class TestBinIndex:
    """``BinGrid.bins`` on hand-picked values, and against the scalar rule."""

    def test_interior_point(self):
        assert bin_of(BinSpec(0, 1.0, 10.0, 7), 5.5) == 3

    def test_endpoints(self):
        spec = BinSpec(0, 1.0, 10.0, 7)
        assert bin_of(spec, 1.0) == 0
        assert bin_of(spec, 10.0) == 6

    def test_out_of_range_clamps(self):
        spec = BinSpec(0, 1.0, 10.0, 7)
        assert bin_of(spec, 12.0) == 6
        assert bin_of(spec, -3.0) == 0
        assert bin_of(spec, math.inf) == 6
        assert bin_of(spec, -math.inf) == 0

    def test_degenerate_grid(self):
        assert bin_of(BinSpec(0, 5.0, 5.0, 3), 99.0) == 0
        assert bin_of(BinSpec(0, 5.0, 5.0, 3), math.inf) == 0

    def test_two_point_binary(self):
        spec = make_bin_spec([0.0, 1.0], 2)
        assert spec.width == 0.5
        assert bin_of(spec, 0.0) == 0
        assert bin_of(spec, 1.0) == 1

    def test_boundary_goes_up(self):
        # an exact edge is equidistant from both centers; the higher bin takes it
        assert bin_of(BinSpec(0, 0.0, 4.0, 4), 1.0) == 1

    @pytest.mark.parametrize(
        "spec", [BinSpec(0, 1.0, 10.0, 7), BinSpec(0, 5.0, 5.0, 3)], ids=["grid", "flat"]
    )
    def test_nan_is_refused(self, spec):
        with pytest.raises(ValueError, match="attribute 0: cannot bin a NaN value"):
            bin_of(spec, math.nan)

    def test_far_outside_a_grid_near_the_float_limit(self):
        # clamped into [lo, hi] first: neither -1e308 - lo nor the quotient overflows
        spec = make_bin_spec([1e308, 1.7e308], 3)
        assert bin_of(spec, -1e308) == 0
        assert bin_of(spec, -math.inf) == 0
        assert bin_of(spec, 1.7e308) == 2
        assert bin_of(spec, 1.5e308) == reference_bin(spec, 1.5e308)

    @given(lattice_values, lattice_values, st.integers(1, 8))
    def test_vector_matches_scalar(self, a, b, count):
        spec = BinSpec(0, min(a, b), max(a, b), count)
        probes = np.linspace(spec.lo - 2.0, spec.hi + 2.0, 23)
        expected = [reference_bin(spec, v) for v in probes]
        assert BinGrid.of((spec,)).bins(probes[:, None])[:, 0].tolist() == expected

    @given(st.integers(-50, 50), st.integers(1, 9), st.integers(1, 40))
    def test_monotone_in_value(self, lo, count, span):
        spec = BinSpec(0, float(lo), float(lo + span), count)
        probes = np.sort(np.linspace(spec.lo - 3.0, spec.hi + 3.0, 50))
        bins = BinGrid.of((spec,)).bins(probes[:, None])[:, 0]
        assert np.all(np.diff(bins) >= 0)


class TestResolveTopology:
    def schema(self):
        return Schema(
            (
                AttributeSpec("age", "continuous"),
                AttributeSpec("sex", "binary", ("m", "f")),
                AttributeSpec("color", "categorical", ("r", "g", "b")),
            ),
            ("c0", "c1"),
        )

    def test_default_and_int_broadcast(self):
        assert resolve_topology(self.schema(), None) == (5, 2, 3)
        assert resolve_topology(self.schema(), 9) == (9, 2, 3)

    def test_sequence_and_mapping(self):
        assert resolve_topology(self.schema(), [7, 2, 3]) == (7, 2, 3)
        assert resolve_topology(self.schema(), {"age": 11}) == (11, 2, 3)

    def test_length_mismatch(self):
        with pytest.raises(SchemaError, match="bin counts"):
            resolve_topology(self.schema(), [7, 2])

    def test_unknown_name(self):
        with pytest.raises(SchemaError, match="unknown attributes"):
            resolve_topology(self.schema(), {"height": 4})

    def test_discrete_conflict(self):
        with pytest.raises(SchemaError, match="declares 2 values"):
            resolve_topology(self.schema(), {"sex": 5})

    def test_positive_counts_required(self):
        with pytest.raises(SchemaError, match=">= 1"):
            resolve_topology(self.schema(), {"age": 0})

    def test_numpy_integers_are_counts(self):
        assert resolve_topology(self.schema(), np.int64(9)) == (9, 2, 3)
        assert resolve_topology(self.schema(), np.array([7, 2, 3])) == (7, 2, 3)
        assert resolve_topology(self.schema(), {"age": np.int32(11)}) == (11, 2, 3)

    @pytest.mark.parametrize(
        "bins, message",
        [
            ({"age": 2.5}, "attribute 'age': bin count must be an integer, got 2.5"),
            ({"age": 4.0}, "attribute 'age': bin count must be an integer, got 4.0"),
            ({"age": True}, "attribute 'age': bin count must be an integer, got True"),
            ({"age": None}, "attribute 'age': bin count must be an integer, got None"),
            ([2.7, 2, 3], "attribute 'age': bin count must be an integer, got 2.7"),
            ([7, True, 3], "attribute 'sex': bin count must be an integer, got True"),
            (np.array([7.0, 2.0, 3.0]), "attribute 'age': bin count must be an integer"),
            (2.5, "bin count must be an integer, got 2.5"),
            (True, "bin count must be an integer, got True"),
            (np.float64(4.0), "bin count must be an integer"),
            ("4", "bin count must be an integer, got '4'"),
        ],
        ids=[
            "mapping-fraction", "mapping-whole-float", "mapping-boolean", "mapping-null",
            "sequence-fraction", "sequence-boolean", "sequence-float-array",
            "scalar-fraction", "scalar-boolean", "scalar-numpy-float", "scalar-string",
        ],
    )
    def test_non_integer_counts_refused(self, bins, message):
        # truncating would train 2 bins for 2.5 and broadcast True as 1
        with pytest.raises(SchemaError) as caught:
            resolve_topology(self.schema(), bins)
        assert str(caught.value).startswith(message)


class TestFitDensity:
    def test_xor_counts_and_tags(self):
        density = fit_density(xor_dataset(), 2)
        assert density.topology == (2, 2)
        # every (class, attribute, bin) cell holds exactly one of the 4 rows
        assert density.counts.tolist() == [[[1, 1], [1, 1]], [[1, 1], [1, 1]]]
        assert density.n_train == 4
        lo, hi = density.window_lo, density.window_hi
        # class c1 rows are (0,1) and (1,0): bin 0 of attribute a saw only b=1
        assert lo[1, 0, 0, 1] == 1.0 and hi[1, 0, 0, 1] == 1.0
        assert lo[0, 0, 1, 1] == 1.0 and hi[0, 0, 1, 1] == 1.0
        assert lo[1, 0, 1, 1] == 0.0 and hi[1, 0, 1, 1] == 0.0
        # own-attribute entries never constrain
        assert np.all(np.isinf(lo[:, 0, :, 0])) and np.all(np.isinf(hi[:, 0, :, 0]))

    def test_single_class_leaves_other_plane_empty(self):
        data = Dataset.build(xor_dataset().schema, [((0.0, 1.0), 0), ((1.0, 0.0), 0)])
        density = fit_density(data, 2)
        assert np.all(density.counts[1] == 0)
        assert np.all(density.window_lo[1] == -np.inf)
        assert np.all(density.window_hi[1] == np.inf)

    def test_epsilon_floor_is_tenth_of_a_count(self):
        density = fit_density(xor_dataset(), 2)
        assert density.epsilon_floor == 1.0 / 40.0

    @given(small_problems())
    def test_count_conservation(self, problem):
        data, topology = problem
        density = fit_density(data, topology)
        per_attribute = density.counts.sum(axis=(0, 2))
        assert np.all(per_attribute == len(data))

    @given(small_problems())
    def test_tag_soundness_rescan(self, problem):
        # brute-force re-scan of every cell reproduces its count and windows
        data, topology = problem
        density = fit_density(data, topology)
        values = data.value_matrix()
        labels = data.labels()
        k_n, m_n = data.schema.n_classes, data.schema.n_attributes
        for k in range(k_n):
            for m in range(m_n):
                for b in range(topology[m]):
                    members = [
                        i
                        for i in range(len(data))
                        if labels[i] == k and reference_bin(density.bin_specs[m], values[i, m]) == b
                    ]
                    assert density.counts[k, m, b] == len(members)
                    if not members:
                        continue
                    for j in range(m_n):
                        if j == m:
                            continue
                        column = [values[i, j] for i in members]
                        assert density.window_lo[k, m, b, j] == min(column)
                        assert density.window_hi[k, m, b, j] == max(column)


class TestTaggedLikelihood:
    """``likelihood_logs`` on hand-worked cells, and against the scalar rule.

    A hand-worked likelihood is compared after ``np.exp`` of its log, which
    may move the last bit.
    """

    def test_xor_violation_scales_once(self):
        density = fit_density(xor_dataset(), 2)
        # example (0,0) under class c1, attribute a: raw 1/4, window wants b=1
        likelihoods = gated_likelihoods(density, (0.0, 0.0))
        assert likelihoods[1, 0] == pytest.approx(0.0625, rel=1e-14)
        assert likelihoods[0, 0] == pytest.approx(0.25, rel=1e-14)

    def test_full_span_windows_change_nothing(self):
        schema = xor_dataset().schema
        data = Dataset.build(
            schema, [((0.0, 0.0), 0), ((1.0, 1.0), 0), ((0.0, 0.0), 1), ((1.0, 1.0), 1)]
        )
        density = fit_density(data, 1)
        # one bin per attribute: windows span the whole observed range
        assert gated_likelihoods(density, (0.3, 0.8)) == pytest.approx(np.full((2, 2), 0.5), rel=1e-14)

    def test_empty_cell_floors_at_epsilon(self):
        data = Dataset.build(xor_dataset().schema, [((0.0, 0.0), 0), ((1.0, 1.0), 1)])
        density = fit_density(data, 2)
        # class c0 never hit bin 1 of attribute a; the window is infinite, so no gate
        assert density.counts[0, 0, 1] == 0
        floored = gated_likelihoods(density, (1.0, 1.0))[0, 0]
        assert floored == pytest.approx(density.epsilon_floor, rel=1e-14)
        floored = gated_likelihoods(density, (1.0, 1.0), epsilon=0.007)[0, 0]
        assert floored == pytest.approx(0.007, rel=1e-14)

    def test_gating_neutral_when_rows_repeat(self):
        # duplicated identical rows per class: windows are points the rows satisfy
        schema = xor_dataset().schema
        rows = [((0.0, 2.0), 0), ((0.0, 2.0), 0), ((4.0, 6.0), 1), ((4.0, 6.0), 1)]
        data = Dataset.build(schema, rows)
        density = fit_density(data, 3)
        labels = data.labels()
        cells, parts = likelihood_logs(density, data.value_matrix())
        # each row under its own class: count / n_train of its cells, ungated
        raw = density.counts.reshape(2, -1)[labels[:, None], cells] / 4.0
        assert np.exp(parts[np.arange(4), labels]) == pytest.approx(raw, rel=1e-14)

    @given(small_problems(max_n=12, max_attrs=3), st.data())
    def test_batch_matches_scalar(self, problem, extra):
        data, topology = problem
        density = fit_density(data, topology)
        m = data.schema.n_attributes
        queries = np.array(
            extra.draw(
                st.lists(
                    st.lists(lattice_values, min_size=m, max_size=m),
                    min_size=1,
                    max_size=5,
                )
            )
        ).reshape(-1, m)
        cells, parts = likelihood_logs(density, queries)
        b_max = density.counts.shape[2]
        for i, row in enumerate(queries):
            for m_i in range(m):
                assert cells[i, m_i] == m_i * b_max + reference_bin(density.bin_specs[m_i], row[m_i])
                for k in range(data.schema.n_classes):
                    expected = math.log(reference_tagged_likelihood(density, row, k, m_i))
                    assert parts[i, k, m_i] == pytest.approx(expected, rel=1e-14, abs=0.0)


# -- loop references for the vectorized window fit and check ------------------


def reference_fit(data, topology):
    """Counts and windows by element-wise ``ufunc.at`` scatters, row by row.

    Returns (counts, lo, hi) as :func:`fit_density` lays them out.
    """
    values = data.value_matrix()
    labels = data.labels()
    n, m = values.shape
    k = data.schema.n_classes
    topology = resolve_topology(data.schema, topology)
    b_max = max(topology)
    specs = [make_bin_spec(values[:, j], topology[j], attribute=j) for j in range(m)]
    binned = np.array([[reference_bin(specs[j], v) for j, v in enumerate(row)] for row in values])

    counts = np.zeros((k, m, b_max), dtype=np.int64)
    attr_idx = np.broadcast_to(np.arange(m), (n, m))
    label_idx = np.broadcast_to(labels[:, None], (n, m))
    np.add.at(counts, (label_idx, attr_idx, binned), 1)

    lo = np.full((k, m, b_max, m), np.inf)
    hi = np.full((k, m, b_max, m), -np.inf)
    for j in range(m):
        cell = (labels, np.full(n, j), binned[:, j])
        np.minimum.at(lo, cell, values)
        np.maximum.at(hi, cell, values)
    empty = counts == 0
    lo[empty] = -np.inf
    hi[empty] = np.inf
    diag = np.arange(m)
    lo[:, diag, :, diag] = -np.inf
    hi[:, diag, :, diag] = np.inf
    return counts, lo, hi


def reference_likelihood_logs(density, values, tag_gain=DEFAULT_TAG_GAIN):
    """Flat cells and log parts with the window check run one attribute at a time."""
    epsilon = density.epsilon_floor
    n, m = values.shape
    k = density.schema.n_classes
    binned = np.array(
        [[reference_bin(density.bin_specs[j], v) for j, v in enumerate(row)] for row in values],
        dtype=np.int64,
    ).reshape(n, m)
    rows = np.arange(n)[:, None]
    attrs = np.arange(m)[None, :]
    counts = density.counts[:, attrs, binned[rows, attrs]]
    base = np.where(counts > 0, counts / float(density.n_train), epsilon)
    violated = np.zeros((k, n, m), dtype=bool)
    for j in range(m):
        lo_j = density.window_lo[:, :, :, j][:, attrs, binned[rows, attrs]]
        hi_j = density.window_hi[:, :, :, j][:, attrs, binned[rows, attrs]]
        v_j = values[:, j][None, :, None]
        violated |= (v_j < lo_j) | (v_j > hi_j)
    gated = np.where(violated, base * tag_gain, base)
    cells = binned + np.arange(m) * density.counts.shape[2]
    return cells, np.log(gated).transpose(1, 0, 2)


def assert_identical(got, want):
    """Equal arrays, down to the sign of every zero."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    if got.dtype.kind == "f":
        assert np.array_equal(np.signbit(got), np.signbit(want))


def numpy_check():
    """Score through the numpy window check, as a host without the compiled library does."""
    return mock.patch.object(density_module, "_SCORE", None)


# each window check under test and how to select it: the compiled check
# where the library loaded (a test below requires it wherever a compiler
# exists), and the numpy check
PATHS = {"compiled": nullcontext} if density_module._SCORE is not None else {}
PATHS["numpy"] = numpy_check


def scored_on_each_path(density, queries, *args, **knobs):
    """``likelihood_logs`` of ``queries`` through each window check, by path name."""
    results = {}
    for path, select in PATHS.items():
        with select():
            results[path] = likelihood_logs(density, queries, *args, **knobs)
    return results


def assert_matches_references(data, topology, queries):
    density = fit_density(data, topology)
    counts, lo, hi = reference_fit(data, topology)
    assert_identical(density.counts, counts)
    assert_identical(density.window_lo, lo)
    assert_identical(density.window_hi, hi)
    ref_cells, ref_parts = reference_likelihood_logs(density, queries)
    for cells, parts in scored_on_each_path(density, queries).values():
        assert_identical(cells, ref_cells)
        assert_identical(parts, ref_parts)


# signed zeros among values that often tie, so windows close on zeros of
# either sign
zero_heavy_values = st.one_of(st.sampled_from([0.0, -0.0]), lattice_values)


class TestVectorizedMatchesLoops:
    """Each window check, compiled and numpy, against the loop references."""

    @given(small_problems(values=zero_heavy_values), st.data())
    def test_small_problems(self, problem, extra):
        data, topology = problem
        m = data.schema.n_attributes
        fresh = extra.draw(st.lists(st.lists(zero_heavy_values, min_size=m, max_size=m), max_size=6))
        queries = np.array(data.value_matrix().tolist() + fresh).reshape(-1, m)
        assert_matches_references(data, topology, queries)

    @given(small_problems(values=zero_heavy_values, max_n=1))
    def test_single_row(self, problem):
        data, topology = problem
        assert_matches_references(data, topology, data.value_matrix())

    def test_zero_bounds_take_the_sign_of_the_last_zero(self):
        schema = xor_dataset().schema
        rows = [((0.0, -0.0), 0), ((0.0, 0.0), 0), ((0.0, -0.0), 0), ((0.0, 3.0), 1)]
        data = Dataset.build(schema, rows)
        density = fit_density(data, 1)
        assert np.signbit(density.window_lo[0, 0, 0, 1]) and np.signbit(density.window_hi[0, 0, 0, 1])
        assert_matches_references(data, 1, np.zeros((1, 2)))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(2, 5), bins=st.integers(1, 2))
    def test_long_runs_of_signed_zeros(self, seed, m, bins):
        # numpy's reductions pair equal values in their own order once a
        # cell holds a few dozen rows; windows closing on a zero of either
        # sign (the min of a column of zeros and ones, the max of zeros and
        # minus ones) must still come out as the row-order sweep's
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 200))
        values = rng.choice([0.0, -0.0, 1.0], size=(n, m)) * rng.choice([1.0, -1.0], size=m)
        data = numeric_dataset(values, rng.integers(0, 2, size=n), 2)
        assert_matches_references(data, bins, values[:10])

    @settings(max_examples=15)
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @given(seed=st.integers(0, 2**32 - 1))
    def test_row_blocks_of_a_wide_problem(self, offset, seed):
        # K=4, M=40: the check gathers windows a few dozen rows at a time, so
        # a step-1, step, or step+1 row batch ends inside, on, or past a block
        k, m = 4, 40
        step = max(1, _CHECK_BUDGET // (k * m * m))
        rng = np.random.default_rng(seed)
        values = rng.integers(-3, 4, size=(60, m)) * rng.choice([1.0, -1.0], size=(60, m))
        data = numeric_dataset(values, rng.integers(0, k, size=60), k)
        fresh = rng.integers(-3, 4, size=(step + 1, m)).astype(np.float64)
        queries = np.concatenate([values[: (step + 1) // 2], fresh])[: step + offset]
        assert_matches_references(data, 3, queries)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or shutil.which("cc") is None,
    reason="the compiled library is built on Linux, with a C compiler",
)
def test_the_compiled_check_is_among_the_paths():
    assert list(PATHS) == ["compiled", "numpy"]


def scalar_parts(density, values, cells, tag_gain=DEFAULT_TAG_GAIN):
    """The (n, K, S) parts by the scalar rule, on the package's cells and log tables.

    Part (i, c, t) is the gated log of the row's cell t if any of the row's
    values lies outside that cell's window under class c, else the plain log.
    """
    tables = density.scoring_tables
    log_base, log_gated = tables.log_likelihoods(tag_gain, density.epsilon_floor)
    n, s = cells.shape
    k = density.schema.n_classes
    parts = np.empty((n, k, s))
    for i, row in enumerate(values.tolist()):
        for t in range(s):
            cell = int(cells[i, t])
            for c in range(k):
                lo = tables.window_lo[c, cell].tolist()
                hi = tables.window_hi[c, cell].tolist()
                outside = any(v < a or v > b for v, a, b in zip(row, lo, hi))
                parts[i, c, t] = (log_gated if outside else log_base)[c, cell]
    return parts


def assert_edge_case_matches(density, queries, chosen, scalar=True):
    """Both window checks give the same cells and parts, all and chosen attributes, and the scalar rule's."""
    for attributes in (None, chosen):
        results = scored_on_each_path(density, queries, attributes=attributes)
        (cells, parts), (numpy_cells, numpy_parts) = results["compiled"], results["numpy"]
        assert cells.tobytes() == numpy_cells.tobytes()
        assert parts.shape == numpy_parts.shape and parts.tobytes() == numpy_parts.tobytes()
        if scalar:
            assert parts.tobytes() == scalar_parts(density, queries, cells).tobytes()


@pytest.mark.skipif(density_module._SCORE is None, reason="the compiled library is not loaded")
class TestCompiledCheck:
    """The compiled window check on generated edge cases, and the arguments it refuses."""

    @pytest.mark.parametrize("seed", range(60))
    def test_edge_cases_match_the_numpy_check_and_the_scalar_rule(self, seed):
        assert_edge_case_matches(*edge_case(seed))

    @pytest.mark.parametrize("m, k", WIDE_SHAPES)
    def test_wide_edge_cases_match_the_numpy_check(self, m, k):
        # the scalar rule loops in Python over every value of every cell, so
        # it checks the narrower of these tables only
        for seed in range(2):
            assert_edge_case_matches(*edge_case(seed, m, k), scalar=m <= 16)

    def test_edge_cases_cover_the_bounds_and_gate_both_ways(self):
        # across the seeds the queries touch a bound, pass one ulp beside
        # it, hold infinities and signed zeros, and gate some cells but not all
        gated = plain = 0
        seen = set()
        for seed in range(60):
            density, queries, _ = edge_case(seed)
            tables = density.scoring_tables
            log_base, log_gated = tables.log_likelihoods(DEFAULT_TAG_GAIN, density.epsilon_floor)
            cells, parts = likelihood_logs(density, queries)
            # each table's entry of every part's cell, laid out (n, K, M) as the parts
            gated += np.count_nonzero(parts == log_gated.T[cells].transpose(0, 2, 1))
            plain += np.count_nonzero(parts == log_base.T[cells].transpose(0, 2, 1))
            bounds = np.concatenate([tables.window_lo.ravel(), tables.window_hi.ravel()])
            bounds = bounds[np.isfinite(bounds)]
            seen.update(
                name for name, hit in (
                    ("at a bound", np.isin(queries, bounds).any()),
                    ("an ulp above", np.isin(queries, np.nextafter(bounds, np.inf)).any()),
                    ("an ulp below", np.isin(queries, np.nextafter(bounds, -np.inf)).any()),
                    ("+inf", np.isposinf(queries).any()),
                    ("-inf", np.isneginf(queries).any()),
                    ("-0.0", ((queries == 0.0) & np.signbit(queries)).any()),
                    ("n = 1", len(queries) == 1),
                    ("M = 1", queries.shape[1] == 1),
                    ("K = 5", density.schema.n_classes == 5),
                    ("a dead bin", len(set(density.topology)) > 1),
                    ("an empty cell", (density.counts[:, :, 0] == 0).any()),
                    ("a flat grid", any(spec.lo == spec.hi for spec in density.bin_specs)),
                    ("off the grid", (np.abs(queries) == 1e308).any()),
                ) if hit
            )
        assert gated > 0 and plain > 0
        assert len(seen) == 13, seen

    def test_arguments_of_another_type_or_length_are_refused(self):
        density = fit_density(xor_dataset(), 2)
        tables = density.scoring_tables
        log_base, log_gated = tables.log_likelihoods(DEFAULT_TAG_GAIN, density.epsilon_floor)
        values = np.zeros((3, 2))
        cells = np.zeros((3, 2), dtype=np.int64)
        args = dict(
            values=values, cells=cells, lo=tables.window_lo, hi=tables.window_hi,
            log_base=log_base, log_gated=log_gated, parts=np.empty((2, 3, 2)), k=2, m=2,
        )

        def score(**changes):
            return density_module._SCORE(*dict(args, **changes).values())

        assert score() == 0
        with pytest.raises(TypeError, match="values must hold float64"):
            score(values=values.astype(np.float32))
        with pytest.raises(TypeError, match="cells must hold int64"):
            score(cells=cells.astype(np.int32))
        with pytest.raises(TypeError, match="parts must hold float64"):
            score(parts=np.empty((2, 3, 2), dtype=np.int64))
        with pytest.raises(TypeError):
            score(values=values.tolist())
        with pytest.raises(ValueError, match="not C-contiguous"):
            score(values=np.asfortranarray(values))
        with pytest.raises(ValueError, match="read-only"):
            score(parts=read_only(np.empty((2, 3, 2))))
        for changes in (
            dict(parts=np.empty((2, 3, 3))),
            dict(cells=np.zeros((3, 3), dtype=np.int64)),
            dict(values=np.zeros((3, 3))),
            dict(log_base=np.ascontiguousarray(log_base[:, :-1])),
            dict(lo=tables.window_lo[:1]),
            dict(k=3),
            dict(m=3),
        ):
            with pytest.raises(ValueError, match="lengths disagree"):
                score(**changes)
        for changes in (dict(k=0), dict(m=0)):
            with pytest.raises(ValueError, match="must be >= 1"):
                score(**changes)
        for cell in (-1, log_base.shape[1]):
            with pytest.raises(ValueError, match="cell index lies outside"):
                score(cells=np.full((3, 2), cell, dtype=np.int64))


# -- reference for the scoring tables -----------------------------------------


def reference_likelihood_logs_inline(density, values, tag_gain=DEFAULT_TAG_GAIN, epsilon=None):
    """:func:`likelihood_logs` as it was before scoring tables, returning its flat cells.

    Every call derives the grid arrays from the bin specs, gathers counts,
    divides them into base probabilities and takes ``np.log`` of the gated
    cells it gathered.
    """
    if epsilon is None:
        epsilon = density.epsilon_floor
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    k = density.schema.n_classes

    specs = density.bin_specs
    lo = np.array([s.lo for s in specs])
    width = np.array([s.width for s in specs])
    top = np.array([s.count - 1 for s in specs], dtype=np.float64)
    flat = width == 0.0
    raw = np.floor((values - lo) / np.where(flat, 1.0, width))
    raw[:, flat] = 0.0
    binned = np.clip(raw, 0.0, top).astype(np.int64)

    counts = density.counts[:, np.arange(m), binned]  # (K, n, M)
    base = np.where(counts > 0, counts / float(density.n_train), epsilon)

    b_max = density.counts.shape[2]
    cells = np.arange(m) * b_max + binned
    lo = density.window_lo.reshape(k, m * b_max, m)
    hi = density.window_hi.reshape(k, m * b_max, m)
    step = max(1, _CHECK_BUDGET // (k * m * m))
    violated = np.empty((k, n, m), dtype=bool)
    for start in range(0, n, step):
        block = slice(start, start + step)
        v = values[block][None, :, None, :]
        outside = (v < lo.take(cells[block], axis=1)) | (v > hi.take(cells[block], axis=1))
        violated[:, block] = outside.any(axis=3)

    gated = np.where(violated, base * tag_gain, base)
    return cells, np.log(gated).transpose(1, 0, 2)


def assert_same_bytes(density, queries, tag_gain=DEFAULT_TAG_GAIN, epsilon=None):
    ref_cells, ref_parts = reference_likelihood_logs_inline(density, queries, tag_gain, epsilon)
    for cells, parts in scored_on_each_path(density, queries, tag_gain, epsilon).values():
        assert cells.shape == ref_cells.shape and parts.shape == ref_parts.shape
        assert cells.tobytes() == ref_cells.tobytes()
        assert parts.tobytes() == ref_parts.tobytes()


# flat grids (one distinct value) and empty cells alongside ordinary ones
table_values = st.one_of(st.sampled_from([0.0, -0.0, 1e300]), lattice_values)


class TestScoringTablesMatchInline:
    # up to three training rows, so many grids are flat and queries land
    # beside them
    @given(small_problems(values=table_values, max_n=3), st.data())
    def test_single_rows(self, problem, extra):
        data, topology = problem
        density = fit_density(data, topology)
        m = data.schema.n_attributes
        rows = data.value_matrix()[:3].tolist()
        rows += extra.draw(st.lists(query_rows(m, table_values), min_size=1, max_size=4))
        for row in rows:
            assert_same_bytes(density, np.array([row]))

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), extra=st.integers(1, 40))
    def test_batches_longer_than_one_check_block(self, seed, extra):
        # K=4, M=40: one check block is a few dozen rows, so the batch spans
        # two full blocks and a partial third
        k, m = 4, 40
        step = max(1, _CHECK_BUDGET // (k * m * m))
        rng = np.random.default_rng(seed)
        values = rng.integers(-3, 4, size=(60, m)) * rng.choice([1.0, -1.0], size=(60, m))
        density = fit_density(numeric_dataset(values, rng.integers(0, k, size=60), k), 3)
        queries = rng.integers(-4, 5, size=(2 * step + extra, m)).astype(np.float64)
        assert_same_bytes(density, queries)

    @given(small_problems(values=table_values), st.data())
    def test_two_gain_epsilon_pairs_keep_their_own_tables(self, problem, extra):
        data, topology = problem
        density = fit_density(data, topology)
        m = data.schema.n_attributes
        queries = np.array(extra.draw(st.lists(query_rows(m, table_values), min_size=1, max_size=6)))
        # the pairs differ in one half of the key each: neither half alone
        # may pick the tables
        pairs = [(DEFAULT_TAG_GAIN, density.epsilon_floor), (0.5, density.epsilon_floor)]
        pairs.append((DEFAULT_TAG_GAIN, 1e-3))
        for tag_gain, epsilon in pairs + pairs[:1]:
            assert_same_bytes(density, queries, tag_gain, epsilon)
        tables = density.scoring_tables
        logs = [tables.log_likelihoods(*pair) for pair in pairs]
        assert logs[0] is tables.log_likelihoods(*pairs[0])
        for one, other in [(0, 1), (0, 2), (1, 2)]:
            assert all(a is not b for a in logs[one] for b in logs[other])
        assert not np.array_equal(logs[0][1], logs[1][1])


class TestFittedArraysAreReadOnly:
    @pytest.mark.parametrize(
        "array",
        [
            lambda d: d.counts,
            lambda d: d.window_lo,
            lambda d: d.window_hi,
        ],
        ids=["counts", "lo", "hi"],
    )
    def test_in_place_writes_raise(self, array):
        target = array(fit_density(xor_dataset(), 2))
        with pytest.raises(ValueError, match="read-only"):
            target[0] = target[1]
