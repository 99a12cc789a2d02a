"""Generated Monk's problems: rules, sampling, and file layout."""

from collections import Counter

import pytest

from diffnb.boosting import TrainConfig, train
from diffnb.dataset import ParseOptions, load_schema, parse_table
from diffnb.monks import (
    MONKS_BINS,
    MONKS_VALUES,
    full_grid,
    generate_monks,
    monks_label,
    monks_schema,
    write_monks_files,
)

from conftest import rows_of

# Per-epoch training misses at 4 bins, the counts the benchmark's
# perfbench/expected.json also checks. Near-ties on monks-2 and monks-3 are
# decided by the sweep's incrementally patched scores, so a change to their
# rounding order (rescoring rows afresh, say) moves these counts.
MONKS2_FIRST_40_MISSES = (
    73, 77, 76, 75, 76, 75, 76, 77, 79, 83, 85, 87, 89, 92, 91, 91, 88, 83, 78, 80,
    77, 78, 77, 77, 75, 76, 77, 80, 82, 84, 89, 91, 91, 88, 79, 78, 81, 79, 81, 81,
)
MONKS3_MISSES = (
    6, 6, 7, 7, 7, 7, 7, 7, 7, 8, 8, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
    8, 8, 8, 8, 8, 8, 8, 8, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7,
    7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 8, 8, 8, 8, 7, 8, 7, 8,
    7, 8, 8, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8, 8, 7, 8, 7, 8, 7, 8, 7, 8, 8, 9, 8, 9, 9,
    9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9,
    9, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 8,
    9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9,
    8, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8,
    9, 9, 9, 8, 9, 8, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 9, 9,
    8, 9, 9, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8, 9, 9,
    9, 8, 9, 8, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9,
    9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 8, 9, 8,
    9, 9, 9, 8, 9, 9, 9, 8, 9, 9, 9, 8, 9, 8,
)


class TestRules:
    def test_grid_shape_and_order(self):
        grid = full_grid()
        assert len(grid) == 432
        assert grid[0] == (1, 1, 1, 1, 1, 1)
        assert grid[1] == (1, 1, 1, 1, 1, 2)  # last attribute fastest
        assert grid[2] == (1, 1, 1, 1, 2, 1)
        assert grid[-1] == (3, 3, 2, 3, 4, 2)
        assert len(set(grid)) == 432

    def test_class_totals_over_the_grid(self):
        grid = full_grid()
        totals = {p: sum(monks_label(p, row) for row in grid) for p in (1, 2, 3)}
        assert totals == {1: 216, 2: 142, 3: 228}

    def test_rule_spot_checks(self):
        assert monks_label(1, (2, 2, 1, 1, 3, 1)) == 1  # a1 == a2
        assert monks_label(1, (1, 2, 1, 1, 1, 1)) == 1  # a5 == 1
        assert monks_label(1, (1, 2, 1, 1, 3, 1)) == 0
        assert monks_label(2, (1, 1, 2, 2, 2, 2)) == 1  # exactly two ones
        assert monks_label(2, (1, 1, 1, 2, 2, 2)) == 0
        assert monks_label(3, (1, 1, 1, 1, 3, 1)) == 1  # a5 == 3 and a4 == 1
        assert monks_label(3, (1, 3, 1, 2, 4, 1)) == 0

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError, match="no such problem"):
            monks_label(4, (1, 1, 1, 1, 1, 1))
        with pytest.raises(ValueError, match="no such problem"):
            generate_monks(0)

    def test_constants(self):
        assert MONKS_VALUES == (3, 3, 2, 3, 4, 2)
        assert MONKS_BINS == (4,) * 6


class TestGeneration:
    @pytest.mark.parametrize(
        "problem,makeup", [(1, (62, 62)), (2, (105, 64)), (3, (60, 62))]
    )
    def test_train_sizes_and_makeup(self, problem, makeup):
        train, test = generate_monks(problem)
        assert len(test) == 432
        assert len(train) == sum(makeup)
        if problem != 3:
            counts = Counter(train.labels().tolist())
            assert (counts[0], counts[1]) == makeup

    def test_test_set_is_the_labeled_grid(self):
        for problem in (1, 2, 3):
            _, test = generate_monks(problem)
            for (values, label), row in zip(rows_of(test), full_grid()):
                assert values == tuple(float(v) for v in row)
                assert label == monks_label(problem, row)

    def test_problem3_flips_exactly_six(self):
        train, _ = generate_monks(3)
        flipped = sum(
            label != monks_label(3, tuple(int(v) for v in values))
            for values, label in rows_of(train)
        )
        assert flipped == 6

    def test_training_rows_keep_grid_order_without_repeats(self):
        grid_pos = {row: i for i, row in enumerate(full_grid())}
        for problem in (1, 2, 3):
            train, _ = generate_monks(problem)
            positions = [grid_pos[tuple(int(v) for v in values)] for values, _ in rows_of(train)]
            assert positions == sorted(positions)
            assert len(set(positions)) == len(positions)

    def test_generation_is_deterministic(self):
        first = generate_monks(2)
        second = generate_monks(2)
        assert rows_of(first[0]) == rows_of(second[0])
        assert rows_of(first[1]) == rows_of(second[1])


class TestFiles:
    def test_written_files_parse_back_to_the_generated_data(self, tmp_path):
        written = write_monks_files(tmp_path)
        assert len(written) == 6
        schema = monks_schema()
        options = ParseOptions(label_col=0, ignore_cols=(7,))
        for problem in (1, 2, 3):
            train, test = generate_monks(problem)
            for split, data in (("train", train), ("test", test)):
                parsed = parse_table(tmp_path / f"monks-{problem}.{split}", schema, options)
                assert rows_of(parsed) == rows_of(data)

    def test_row_layout(self, tmp_path):
        write_monks_files(tmp_path)
        first = (tmp_path / "monks-1.test").read_text().splitlines()[0]
        label, *values, row_id = first.split()
        assert label in ("0", "1")
        assert [int(v) for v in values] == [1, 1, 1, 1, 1, 1]
        assert row_id == "data_1"

    def test_schema_matches_the_benchmark_schema_file(self):
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks" / "schemas" / "monks.schema.json"
        assert load_schema(path) == monks_schema()


class TestTrainingTrace:
    def test_monks2_first_40_epochs(self):
        train_set, _ = generate_monks(2)
        _, trace = train(train_set, TrainConfig(topology=MONKS_BINS, max_rounds=40))
        assert trace.miss_counts == MONKS2_FIRST_40_MISSES

    def test_monks3_full_500_epochs(self):
        train_set, _ = generate_monks(3)
        _, trace = train(train_set, TrainConfig(topology=MONKS_BINS))
        assert trace.miss_counts == MONKS3_MISSES
