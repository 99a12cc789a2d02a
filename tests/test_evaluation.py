"""Accuracy reports, metric checks, and benchmark suites."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from diffnb.boosting import TrainConfig, train, train_with_scores
from diffnb.dataset import DataFiles, Dataset, ParseOptions, SchemaError, json_data_files
from diffnb.evaluation import (
    METRICS,
    EntryResult,
    ExperimentSpec,
    MetricCheck,
    Report,
    Suite,
    correct_line,
    evaluate,
    format_percent,
    load_suite,
    render_report_machine,
    render_report_text,
    render_suite_machine,
    render_suite_text,
    resolve_data_dir,
    run_benchmark,
    run_experiment,
    training_report,
)
from diffnb.inference import batch_log_scores
from diffnb.monks import MONKS_BINS, generate_monks

from conftest import small_problems, xor_dataset, xor_schema

SUITE = Path(__file__).parent.parent / "benchmarks" / "suite.json"


@pytest.fixture(scope="module")
def xor_model():
    model, _ = train(xor_dataset(), TrainConfig(topology=2))
    return model


class TestEvaluate:
    def test_perfect_fit(self, xor_model):
        report = evaluate(xor_model, xor_dataset())
        assert report.accuracy == 100.0
        assert report.n_correct == report.n_examples == 4
        assert report.confusion.tolist() == [[2, 0], [0, 2]]
        assert report.per_class_correct == (2, 2)
        assert report.tie_count == 0
        assert report.class_labels == ("c0", "c1")

    def test_one_flipped_label(self, xor_model):
        rows = [((0.0, 0.0), 0), ((1.0, 1.0), 1), ((0.0, 1.0), 1), ((1.0, 0.0), 1)]
        report = evaluate(xor_model, Dataset.build(xor_schema(), rows))
        assert report.n_correct == 3
        assert report.accuracy == 75.0
        # the (1,1) row is truly labeled c1 here but the model says c0
        assert report.confusion.tolist() == [[1, 0], [1, 2]]

    def test_empty_dataset_rejected(self, xor_model):
        empty = Dataset.build(xor_schema(), [])
        with pytest.raises(ValueError, match="empty"):
            evaluate(xor_model, empty)

    def test_mismatched_schema_rejected(self, xor_model):
        from diffnb.dataset import AttributeSpec, Schema

        other = Schema((AttributeSpec("a", "continuous"),), ("c0", "c1"))
        data = Dataset.build(other, [((0.0,), 0)])
        with pytest.raises(SchemaError, match="expects 2 attributes"):
            evaluate(xor_model, data)

    @given(small_problems(max_n=12, max_attrs=3))
    def test_confusion_conserves_examples(self, problem):
        data, topology = problem
        model, _ = train(data, TrainConfig(max_rounds=3, topology=topology))
        report = evaluate(model, data)
        assert int(report.confusion.sum()) == report.n_examples
        assert int(np.trace(report.confusion)) == report.n_correct
        per_class = tuple(int(v) for v in np.diag(report.confusion))
        assert per_class == report.per_class_correct

    @given(small_problems(max_n=12, max_attrs=3))
    def test_converged_training_scores_100_on_train(self, problem):
        data, topology = problem
        model, trace = train(data, TrainConfig(topology=topology))
        if trace.converged:
            assert evaluate(model, data).accuracy == 100.0


def assert_reports_equal(got: Report, want: Report) -> None:
    for f in dataclasses.fields(Report):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), f.name
        else:
            assert type(a) is type(b) and a == b, f.name


class TestTrainingReport:
    """The training-set verdict from training's own scores equals evaluate's."""

    def test_converged_run(self):
        data = xor_dataset()
        model, trace, logs = train_with_scores(data, TrainConfig(topology=2))
        assert trace.converged
        report = training_report(model, data, logs)
        assert_reports_equal(report, evaluate(model, data))
        assert report.accuracy == 100.0

    def test_run_stopped_at_max_rounds(self):
        # monks-2 never converges; the verdict scores every row under the
        # final weights, so it is not 169 rows minus the last epoch's misses
        trainset, _ = generate_monks(2)
        model, trace, logs = train_with_scores(trainset, TrainConfig(topology=MONKS_BINS))
        assert not trace.converged and trace.epochs == 500 and trace.miss_counts[-1] == 83
        report = training_report(model, trainset, logs)
        assert_reports_equal(report, evaluate(model, trainset))
        assert (report.n_correct, report.n_examples) == (109, 169)

    def test_exact_ties(self):
        # without windows every xor row ties; ties go to the lower class
        data = xor_dataset()
        model, _, logs = train_with_scores(data, TrainConfig(topology=2, tag_gain=1.0, max_rounds=5))
        report = training_report(model, data, logs)
        assert (report.tie_count, report.n_correct) == (4, 2)
        assert_reports_equal(report, evaluate(model, data))

    @given(small_problems(max_n=12, max_attrs=3), st.integers(1, 4))
    def test_scores_are_the_models_scores(self, problem, rounds):
        data, topology = problem
        model, trace, logs = train_with_scores(data, TrainConfig(max_rounds=rounds, topology=topology))
        assert np.array_equal(logs, batch_log_scores(model, data.value_matrix()))
        assert_reports_equal(training_report(model, data, logs), evaluate(model, data))
        # train is train_with_scores without the scores
        again, again_trace = train(data, TrainConfig(max_rounds=rounds, topology=topology))
        assert again_trace == trace and np.array_equal(again.weights, model.weights)


class TestRendering:
    def test_format_percent_trims_zeros(self):
        assert format_percent(96.99) == "96.99"
        assert format_percent(100.0) == "100"
        assert format_percent(97.5) == "97.5"
        assert format_percent(0.0) == "0"

    def test_correct_line(self):
        report = Report(
            n_examples=124,
            n_correct=124,
            accuracy=100.0,
            confusion=np.array([[62, 0], [0, 62]]),
            per_class_correct=(62, 62),
            tie_count=0,
            class_labels=("0", "1"),
        )
        assert correct_line(report) == "62, 62 : 100 %"

    def test_machine_report_is_stable(self):
        report = Report(
            n_examples=4,
            n_correct=3,
            accuracy=75.0,
            confusion=np.array([[1, 0], [1, 2]]),
            per_class_correct=(1, 2),
            tie_count=1,
            class_labels=("c0", "c1"),
        )
        text = render_report_machine(report)
        assert text.splitlines() == [
            "n=4",
            "correct=3",
            "accuracy=75.00",
            "tie_count=1",
            "per_class_correct=1,2",
            "confusion=1,0;1,2",
        ]

    def test_text_report_names_classes(self, xor_model):
        text = render_report_text(evaluate(xor_model, xor_dataset()))
        assert "c0" in text and "c1" in text
        assert "100" in text

    @given(
        st.lists(st.text("ab01", min_size=1, max_size=6), min_size=2, max_size=4, unique=True),
        st.data(),
    )
    def test_confusion_rows_split_back_into_label_and_counts(self, labels, data):
        # a count wider than every label, as monks-1's 213 beside labels "0"
        # and "1", must not run into its neighbour
        k = len(labels)
        counts = data.draw(st.lists(st.integers(0, 10**6), min_size=k * k, max_size=k * k))
        confusion = np.array(counts, dtype=np.int64).reshape(k, k)
        report = Report(int(confusion.sum()), int(np.trace(confusion)), 50.0, confusion,
                        tuple(int(c) for c in np.diag(confusion)), 0, tuple(labels))
        lines = render_report_text(report).splitlines()
        header = lines.index("confusion (rows true, columns predicted):") + 1
        assert lines[header].split() == labels
        rows = lines[header + 1 :]
        assert [row.split() for row in rows] == [
            [label, *map(str, confusion[i])] for i, label in enumerate(labels)
        ]
        assert len({len(line) for line in lines[header:]}) == 1


class TestMetricCheck:
    def test_bounds_are_inclusive(self):
        check = MetricCheck("test_accuracy", min=60.0, max=75.0)
        assert check.passes(60.0) and check.passes(75.0) and check.passes(66.0)
        assert not check.passes(59.999) and not check.passes(75.001)

    def test_one_sided(self):
        assert MetricCheck("epochs", max=200).passes(1)
        assert not MetricCheck("train_seconds", max=10.0).passes(11.0)
        assert MetricCheck("test_accuracy", min=96.5).passes(96.5)

    def test_describe_mentions_the_metric(self):
        described = MetricCheck("test_accuracy", min=74.95, max=78.95).describe()
        assert "test_accuracy" in described


def entry_files(**entry) -> DataFiles:
    """The data files of a suite entry named "x", read as load_suite reads them."""
    return json_data_files('suite entry "x"', entry, "test", split="split")


class TestExperimentSpec:
    def test_split_form(self):
        files = entry_files(data="x.data", split={"train_count": 341})
        spec = ExperimentSpec(name="x", schema="s.json", files=files, bins=7)
        assert spec.files == DataFiles(data="x.data", train_count=341)
        assert spec.files.train is None

    def test_pair_form(self):
        spec = ExperimentSpec(name="x", schema="s.json", files=entry_files(train="x.train", test="x.test"))
        assert spec.files == DataFiles(train="x.train", held="x.test")
        assert spec.files.data is None

    def test_both_forms_rejected(self):
        with pytest.raises(ValueError, match='^suite entry "x" gives "train" with "data"'):
            entry_files(data="a", split={"train_count": 3}, train="b", test="c")

    def test_neither_form_rejected(self):
        with pytest.raises(ValueError, match='^suite entry "x" is missing "train"$'):
            entry_files()

    def test_split_needs_count(self):
        with pytest.raises(ValueError, match='^suite entry "x" is missing "split"$'):
            entry_files(data="a")
        with pytest.raises(ValueError, match='^suite entry "x" "split" is missing "train_count"$'):
            entry_files(data="a", split={"seed": 4})


def write_xor_files(tmp_path):
    schema = {
        "attributes": [
            {"name": "a", "kind": "continuous"},
            {"name": "b", "kind": "continuous"},
        ],
        "classes": ["c0", "c1"],
    }
    (tmp_path / "xor.schema.json").write_text(json.dumps(schema))
    rows = ["0 0 c0", "1 1 c0", "0 1 c1", "1 0 c1"]
    (tmp_path / "xor.train").write_text("\n".join(rows) + "\n")
    (tmp_path / "xor.test").write_text("\n".join(rows) + "\n")


def xor_experiment(**overrides):
    base = dict(
        name="xor",
        schema="xor.schema.json",
        files=DataFiles(train="xor.train", held="xor.test"),
        bins=2,
        checks=(MetricCheck("test_accuracy", min=100.0),),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestRunExperiment:
    def test_passing_entry(self, tmp_path):
        write_xor_files(tmp_path)
        entry = run_experiment(xor_experiment(), tmp_path, tmp_path)
        assert entry.status == "pass" and entry.ok
        assert entry.metrics["test_accuracy"] == 100.0
        assert entry.metrics["train_accuracy"] == 100.0
        assert entry.metrics["n_train"] == 4 and entry.metrics["n_test"] == 4
        assert entry.metrics["converged"] == 1
        assert entry.metrics["train_seconds"] >= 0.0

    def test_failing_check(self, tmp_path):
        write_xor_files(tmp_path)
        spec = xor_experiment(checks=(MetricCheck("epochs", max=0),))
        entry = run_experiment(spec, tmp_path, tmp_path)
        assert entry.status == "fail" and not entry.ok

    def test_missing_data_reports_hint(self, tmp_path):
        write_xor_files(tmp_path)
        files = DataFiles(train="absent.train", held="xor.test")
        spec = xor_experiment(files=files, fetch_hint="run the fetch script")
        entry = run_experiment(spec, tmp_path, tmp_path)
        assert entry.status == "missing_data" and not entry.ok
        assert "absent.train" in entry.message
        assert "run the fetch script" in entry.message

    def test_corrupt_data_becomes_error_entry(self, tmp_path):
        write_xor_files(tmp_path)
        (tmp_path / "xor.train").write_text("0 not_a_number c0\n")
        entry = run_experiment(xor_experiment(), tmp_path, tmp_path)
        assert entry.status == "error" and not entry.ok
        assert "ParseError" in entry.message

    def test_split_form_runs(self, tmp_path):
        write_xor_files(tmp_path)
        spec = xor_experiment(files=DataFiles(data="xor.train", train_count=4))
        # a 4-of-4 split leaves no test rows and must surface as an error entry
        entry = run_experiment(spec, tmp_path, tmp_path)
        assert entry.status == "error"
        assert "ValueError" in entry.message


class TestSuite:
    def test_load_suite(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DIFFNB_DATA", raising=False)
        write_xor_files(tmp_path)
        suite_json = {
            "data_dir": ".",
            "experiments": [
                {
                    "name": "xor",
                    "schema": "xor.schema.json",
                    "train": "xor.train",
                    "test": "xor.test",
                    "bins": 2,
                    "checks": [{"metric": "test_accuracy", "min": 100.0}],
                }
            ],
        }
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(suite_json))
        suite = load_suite(path)
        assert len(suite.experiments) == 1
        assert suite.experiments[0].checks[0].metric == "test_accuracy"
        report = run_benchmark(suite)
        assert report.ok
        assert report.entries[0].status == "pass"

    def test_data_dir_precedence(self, tmp_path, monkeypatch):
        suite = Suite(experiments=(), base_dir=tmp_path, data_dir="rel")
        monkeypatch.delenv("DIFFNB_DATA", raising=False)
        assert resolve_data_dir(suite, None) == tmp_path / "rel"
        monkeypatch.setenv("DIFFNB_DATA", str(tmp_path / "env"))
        assert resolve_data_dir(suite, None) == tmp_path / "env"
        assert resolve_data_dir(suite, tmp_path / "given") == tmp_path / "given"

    def test_shipped_suite(self, monkeypatch):
        # the checker must accept the suite that pins the paper's results
        monkeypatch.delenv("DIFFNB_DATA", raising=False)
        suite = load_suite(SUITE)
        assert suite.base_dir == SUITE.parent and suite.data_dir == "../data"
        by_name = {spec.name: spec for spec in suite.experiments}
        assert list(by_name) == ["breast-cancer", "thyroid", "pima", "monks-1", "monks-2", "monks-3"]
        assert by_name["breast-cancer"].parse == ParseOptions(delimiter=",", ignore_cols=(0,))
        assert by_name["breast-cancer"].files == DataFiles(data="breast-cancer-wisconsin.data", train_count=341)
        assert by_name["breast-cancer"].bins == 7
        assert by_name["breast-cancer"].checks == (
            MetricCheck("test_accuracy", min=96.5),
            MetricCheck("epochs", max=200),
            MetricCheck("train_seconds", max=10),
        )
        assert by_name["thyroid"].parse == ParseOptions()
        assert by_name["thyroid"].files == DataFiles(train="ann-train.data", held="ann-test.data")
        assert by_name["thyroid"].bins == [9] + [2] * 15 + [9] * 5
        assert by_name["thyroid"].checks[0] == MetricCheck("train_accuracy", min=98.56, max=99.56)
        assert by_name["pima"].parse == ParseOptions(delimiter=",")
        assert by_name["pima"].bins == [8, 5, 5, 5, 14, 30, 5, 6]
        assert by_name["pima"].checks == (MetricCheck("test_accuracy", min=74.95, max=78.95),)
        for p in (1, 2, 3):
            spec = by_name[f"monks-{p}"]
            assert spec.parse == ParseOptions(label_col=0, ignore_cols=(7,))
            assert spec.files == DataFiles(train=f"monks-{p}.train", held=f"monks-{p}.test")
            assert spec.bins == [4] * 6
            assert (spec.alpha, spec.max_rounds) == (2.0, 500)
        assert by_name["monks-2"].checks == (MetricCheck("test_accuracy", min=60.0, max=75.0),)
        entry = run_experiment(by_name["monks-1"], resolve_data_dir(suite), suite.base_dir)
        assert entry.status == "pass"
        assert sorted(entry.metrics) == sorted(METRICS)

    def test_empty_suite_is_vacuously_ok(self, tmp_path):
        suite = Suite(experiments=(), base_dir=tmp_path)
        report = run_benchmark(suite)
        assert report.ok
        assert "0/0" in render_suite_text(report)

    def test_suite_renderings(self):
        entry = EntryResult(
            name="toy",
            status="pass",
            metrics={
                "train_accuracy": 100.0,
                "test_accuracy": 98.123,
                "epochs": 4,
                "converged": 1,
                "train_seconds": 0.25,
                "n_train": 10,
                "n_test": 10,
            },
            checks=(),
            message="",
        )
        from diffnb.evaluation import SuiteReport

        report = SuiteReport(entries=(entry,))
        text = render_suite_text(report)
        assert "toy: PASS (train 100 %, test 98.12 %, 4 epochs, 0.25 s) checks 0/0" in text
        assert "suite: 1/1 passed" in text
        machine = render_suite_machine(report)
        assert "toy.status=pass" in machine.splitlines()
        assert "toy.epochs=4" in machine.splitlines()
        assert "toy.test_accuracy=98.12" in machine
        assert "suite.ok=1" in machine
