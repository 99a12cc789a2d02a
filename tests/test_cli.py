"""End-to-end runs of the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffnb
from diffnb.cli import main
from diffnb.evaluation import evaluate, render_report_machine
from diffnb.modelfile import load_model

from conftest import xor_dataset


def write_xor_files(tmp_path):
    schema = {
        "attributes": [
            {"name": "a", "kind": "continuous"},
            {"name": "b", "kind": "continuous"},
        ],
        "classes": ["c0", "c1"],
    }
    (tmp_path / "xor.schema.json").write_text(json.dumps(schema))
    (tmp_path / "xor.data").write_text("0 0 c0\n1 1 c0\n0 1 c1\n1 0 c1\n")
    (tmp_path / "xor.rows").write_text("0 0\n1 0\n")


@pytest.fixture()
def workdir(tmp_path):
    write_xor_files(tmp_path)
    return tmp_path


def train_xor(workdir, *extra):
    model_path = workdir / "xor.model.json"
    code = main(
        [
            "train",
            "--data", str(workdir / "xor.data"),
            "--schema", str(workdir / "xor.schema.json"),
            "--bins", "2",
            "--out", str(model_path),
            *extra,
        ]
    )
    return code, model_path


class TestTrain:
    def test_train_writes_a_loadable_model(self, workdir, capsys):
        code, model_path = train_xor(workdir)
        out = capsys.readouterr().out
        assert code == 0
        assert "epoch 1: 0 misses" in out
        assert "converged after 1 epochs" in out
        assert "train accuracy: 100 % (4/4)" in out
        assert f"model written to {model_path}" in out
        assert load_model(model_path).topology == (2, 2)

    def test_train_with_holdout(self, workdir, capsys):
        code, _ = train_xor(workdir, "--train-count", "3")
        out = capsys.readouterr().out
        assert code == 0
        assert "train accuracy: 100 % (3/3)" in out
        assert "holdout accuracy:" in out

    def test_named_bins(self, workdir):
        code = main(
            [
                "train",
                "--data", str(workdir / "xor.data"),
                "--schema", str(workdir / "xor.schema.json"),
                "--bins", "a=2,b=3",
                "--out", str(workdir / "named.model.json"),
            ]
        )
        assert code == 0
        assert load_model(workdir / "named.model.json").topology == (2, 3)

    def test_missing_schema_is_a_usage_error(self, workdir, capsys):
        code = main(
            [
                "train",
                "--data", str(workdir / "xor.data"),
                "--schema", str(workdir / "absent.json"),
                "--out", str(workdir / "m.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "no such file" in captured.err
        assert not (workdir / "m.json").exists()

    def test_non_finite_value_is_a_runtime_error(self, workdir, capsys):
        (workdir / "xor.data").write_text("0 0 c0\n1 1 c0\nnan 1 c1\n1 0 c1\n")
        code, model_path = train_xor(workdir)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: line 3: attribute 'a': not a finite number: 'nan'\n"
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "flag, knob", [("--alpha", "alpha"), ("--epsilon", "epsilon_floor")], ids=["alpha", "epsilon"]
    )
    def test_infinite_knob_is_a_runtime_error(self, workdir, capsys, flag, knob):
        code, model_path = train_xor(workdir, flag, "inf")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {knob} must be finite and > 0, got inf\n"
        assert not model_path.exists()

    @pytest.mark.parametrize(
        "schema, message",
        [
            ([{"name": "a", "kind": "continuous"}], "schema must be a JSON object"),
            ({"classes": "c0 c1"}, 'schema "classes" must be a JSON list'),
            ({"classes": ["c0", 1]}, "schema class 2 must be a string or a JSON object"),
            ({"classes": ["c0", {"token": "1"}]}, 'schema class 2 is missing "label"'),
            ({"attributes": [{"kind": "continuous"}]}, 'schema attribute 1 is missing "name"'),
            (
                {"attributes": [{"name": "a", "kind": "continuous"}, {"name": "b"}]},
                'schema attribute 2 is missing "kind"',
            ),
            (
                {"attributes": [{"name": "a", "kind": "binary", "values": [0, 1]}]},
                'schema attribute 1 "values" must be a JSON list of strings',
            ),
        ],
        ids=["list", "classes", "class", "label", "name", "kind", "values"],
    )
    def test_malformed_schema_is_a_runtime_error(self, workdir, capsys, schema, message):
        if isinstance(schema, dict):
            schema = {
                "attributes": [{"name": "a", "kind": "continuous"}, {"name": "b", "kind": "continuous"}],
                "classes": ["c0", "c1"],
                **schema,
            }
        (workdir / "xor.schema.json").write_text(json.dumps(schema))
        code, _ = train_xor(workdir)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "schema, message",
        [
            ({"comment": "xor"}, 'schema has unknown key "comment"'),
            ({"classes": ["c0", {"label": "c1", "tokens": "1"}]}, 'schema class 2 has unknown key "tokens"'),
            (
                {"attributes": [{"name": "a", "kind": "continuous"}, {"name": "b", "kind": "continuous", "vals": []}]},
                'schema attribute 2 has unknown key "vals"',
            ),
        ],
        ids=["schema", "class", "attribute"],
    )
    def test_unknown_schema_key_is_a_runtime_error(self, workdir, capsys, schema, message):
        schema = {
            "attributes": [{"name": "a", "kind": "continuous"}, {"name": "b", "kind": "continuous"}],
            "classes": ["c0", "c1"],
            **schema,
        }
        (workdir / "xor.schema.json").write_text(json.dumps(schema))
        code, model_path = train_xor(workdir)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not model_path.exists()

    def test_wrong_bins_arity_is_a_runtime_error(self, workdir, capsys):
        code = main(
            [
                "train",
                "--data", str(workdir / "xor.data"),
                "--schema", str(workdir / "xor.schema.json"),
                "--bins", "2,3,4",
                "--out", str(workdir / "m.json"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:")


class TestEvaluate:
    def test_machine_format_is_reproducible_and_faithful(self, workdir, capsys):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        argv = [
            "evaluate",
            "--model", str(model_path),
            "--data", str(workdir / "xor.data"),
            "--format", "machine",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        expected = render_report_machine(evaluate(load_model(model_path), xor_dataset()))
        assert first == expected + "\n"

    def test_text_format_shows_the_confusion_matrix(self, workdir, capsys):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        code = main(
            ["evaluate", "--model", str(model_path), "--data", str(workdir / "xor.data")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "confusion (rows true, columns predicted):" in out
        assert "correct: 4 (100 %)" in out


    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1], "model file must be a JSON object"),
            ({"format": "diffnb-model", "version": 1}, 'model file is missing "schema"'),
            ({"format": "other"}, "not a diffnb-model file"),
        ],
        ids=["list", "header-only", "other-format"],
    )
    def test_malformed_model_file_is_a_runtime_error(self, workdir, capsys, doc, message):
        path = workdir / "bad.model.json"
        path.write_text(json.dumps(doc))
        code = main(["evaluate", "--model", str(path), "--data", str(workdir / "xor.data")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc["schema"]["attributes"][1].pop("kind"), 'model schema attribute 2 is missing "kind"'),
            (lambda doc: doc.update(topology=[2, "2"]), 'model file "topology" must be a JSON list of integers'),
            (lambda doc: doc.update(topology=[2]), 'model file "topology" has 1 bin counts for 2 attributes'),
            (lambda doc: doc["bin_specs"][0].update(lo=None), 'model file bin spec 1 "lo" must be a number'),
            (lambda doc: doc["config"].pop("alpha"), 'model file "config" is missing "alpha"'),
            (lambda doc: doc.update(trace=[]), 'model file "trace" must be a JSON object'),
            (
                lambda doc: doc.update(counts=doc["counts"][:1]),
                'model file "counts", "weights" or "tags" do not match its schema and topology:'
                " list index out of range",
            ),
            (
                lambda doc: doc["tags"][0].__setitem__(0, 5),
                'model file "counts", "weights" or "tags" do not match its schema and topology:'
                " 'int' object is not iterable",
            ),
        ],
        ids=["schema", "topology", "topology-length", "bin-spec", "config", "trace", "counts", "tags"],
    )
    def test_damaged_model_file_names_the_entry(self, workdir, capsys, edit, message):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        doc = json.loads(model_path.read_text())
        edit(doc)
        model_path.write_text(json.dumps(doc))
        code = main(["evaluate", "--model", str(model_path), "--data", str(workdir / "xor.data")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"


class TestPredict:
    def test_labels_with_probabilities(self, workdir, capsys):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        code = main(
            ["predict", "--model", str(model_path), "--data", str(workdir / "xor.rows")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == [
            "c0 p=[0.941176,0.058824]",
            "c1 p=[0.058824,0.941176]",
        ]

    def test_bad_rows_are_reported_and_fail_the_run(self, workdir, capsys):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        (workdir / "bad.rows").write_text("0 0\nnot_a_number 1\n0\n")
        code = main(
            ["predict", "--model", str(model_path), "--data", str(workdir / "bad.rows")]
        )
        captured = capsys.readouterr()
        assert code == 1
        lines = captured.out.splitlines()
        assert lines[0].startswith("c0 ")
        assert lines[1].startswith("ERROR: line 2:")
        assert lines[2] == "ERROR: line 3: expected 2 values, got 1"
        assert "2 rows failed" in captured.err

    def test_non_finite_rows_are_reported(self, workdir, capsys):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        (workdir / "bad.rows").write_text("0 inf\n")
        code = main(
            ["predict", "--model", str(model_path), "--data", str(workdir / "bad.rows")]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "ERROR: line 1: attribute 'b': not a finite number: 'inf'\n"

    def test_reads_stdin_when_no_data_given(self, workdir, capsys, monkeypatch):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n\n"))
        code = main(["predict", "--model", str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["c1 p=[0.058824,0.941176]"]


class TestSearch:
    def test_sweep_reports_and_logs_trials(self, workdir, capsys):
        # validation == train here; the search needs a second split only
        # when one is available
        spec = {
            "schema": "xor.schema.json",
            "train": "xor.data",
            "validation": "xor.data",
            "ranges": [[1, 2], [1, 2]],
            "baseline_bins": 1,
            "max_rounds": 4,
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        log_path = workdir / "trials.json"
        code = main(
            ["search", "--spec", str(workdir / "search.json"), "--out", str(log_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines()[0] == "trial 1-1: train 50 % validation 50 %"
        assert "trial 2-1: train 100 % validation 100 %" in out
        assert "best topology: 2-1" in out
        assert "best validation accuracy: 100 %" in out
        assert "trials: 4" in out
        log = json.loads(log_path.read_text())
        assert log["best_topology"] == [2, 1]
        assert log["truncated"] is False
        assert len(log["trials"]) == 4

    def test_ranges_by_attribute_name(self, workdir, capsys):
        spec = {
            "schema": "xor.schema.json",
            "train": "xor.data",
            "validation": "xor.data",
            "ranges": {"a": [1, 2]},
            "baseline_bins": 2,
            "max_rounds": 4,
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "best topology: 2-2" in out

    def test_split_spec_holds_out_validation_rows(self, workdir, capsys):
        spec = {
            "schema": "xor.schema.json",
            "data": "xor.data",
            "train_count": 3,
            "ranges": [[2], [2]],
            "max_rounds": 4,
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        out = capsys.readouterr().out
        assert code == 0
        assert "best topology: 2-2" in out
        assert "trials: 1" in out

    def test_unknown_attribute_name_fails(self, workdir, capsys):
        spec = {
            "schema": "xor.schema.json",
            "train": "xor.data",
            "validation": "xor.data",
            "ranges": {"zz": [1, 2]},
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error: ranges for unknown attributes" in captured.err

    @pytest.mark.parametrize("key", ["schema", "ranges", "validation", "train_count"])
    def test_missing_spec_key_is_reported(self, workdir, capsys, key):
        if key == "train_count":
            # a "data" file to split needs the count of training rows
            spec = {"schema": "xor.schema.json", "data": "xor.data", "ranges": [[2], [2]]}
        else:
            spec = {
                "schema": "xor.schema.json",
                "train": "xor.data",
                "validation": "xor.data",
                "ranges": [[2], [2]],
            }
            del spec[key]
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f'error: search spec is missing "{key}"\n'

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([1, 2], "search spec must be a JSON object"),
            (
                {
                    "schema": "xor.schema.json",
                    "train": "xor.data",
                    "validation": "xor.data",
                    "parse": [0],
                    "ranges": [[2], [2]],
                },
                'search spec "parse" must be a JSON object',
            ),
        ],
        ids=["spec", "parse"],
    )
    def test_non_object_spec_is_reported(self, workdir, capsys, spec, message):
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"ranges": 5}, '"ranges" must be a JSON list or a JSON object'),
            ({"ranges": [5, [2]]}, '"ranges" must hold a JSON list of bin counts per attribute'),
            ({"ranges": {"a": 2}}, '"ranges" must hold a JSON list of bin counts per attribute'),
            ({"parse": {"ignore_cols": 5}}, '"parse" "ignore_cols" must be a JSON list'),
            ({"parse": {"ignore_cols": ["2"]}}, '"parse" "ignore_cols" must be a JSON list of integers'),
            ({"parse": {"label_col": "2"}}, '"parse" "label_col" must be an integer'),
            ({"parse": {"delimiter": 0}}, '"parse" "delimiter" must be a string or null'),
            ({"schema": 5}, '"schema" must be a string'),
            ({"train": 5}, '"train" must be a string'),
            ({"validation": ["xor.data"]}, '"validation" must be a string'),
            ({"data": 5, "train_count": 3}, '"data" must be a string'),
            ({"data": "xor.data", "train_count": "3"}, '"train_count" must be an integer'),
            ({"budget": [64]}, '"budget" must be an integer'),
            ({"baseline_bins": 2.5}, '"baseline_bins" must be an integer'),
            ({"parallelism": True}, '"parallelism" must be an integer'),
            ({"exhaustive": 1}, '"exhaustive" must be true or false'),
            ({"alpha": "2"}, '"alpha" must be a number'),
            ({"max_rounds": None}, '"max_rounds" must be an integer'),
        ],
        ids=[
            "ranges", "ranges-entry", "ranges-entry-by-name", "ignore_cols", "ignore_cols-entry",
            "label_col", "delimiter", "schema", "train", "validation", "data", "train_count",
            "budget", "baseline_bins", "parallelism", "exhaustive", "alpha", "max_rounds",
        ],
    )
    def test_wrong_entry_type_is_reported(self, workdir, capsys, entry, message):
        spec = {
            "schema": "xor.schema.json",
            "train": "xor.data",
            "validation": "xor.data",
            "ranges": [[2], [2]],
            **entry,
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: search spec {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"max_round": 4}, 'search spec has unknown key "max_round"'),
            ({"parse": {"delimter": ","}}, 'search spec "parse" has unknown key "delimter"'),
        ],
        ids=["spec", "parse"],
    )
    def test_unknown_spec_key_fails_before_any_trial(self, workdir, capsys, entry, message):
        spec = {
            "schema": "xor.schema.json",
            "train": "xor.data",
            "validation": "xor.data",
            "ranges": [[2], [2]],
            **entry,
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "ranges, message",
        [
            ({"a": [0, 3]}, "attribute 'a': bin count must be >= 1, got 0"),
            ([[2], [2, -1]], "attribute 'b': bin count must be >= 1, got -1"),
            ({"b": [2, 2.5]}, "attribute 'b': bin count must be an integer, got 2.5"),
            ({"a": [True]}, "attribute 'a': bin count must be an integer, got True"),
            ({"a": ["3"]}, "attribute 'a': bin count must be an integer, got '3'"),
        ],
        ids=["zero", "negative", "fraction", "boolean", "string"],
    )
    def test_bad_bin_count_fails_before_any_trial(self, workdir, capsys, ranges, message):
        spec = {
            "schema": "xor.schema.json",
            "train": "xor.data",
            "validation": "xor.data",
            "ranges": ranges,
            "baseline_bins": 2,
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""  # no trial was trained or printed
        assert captured.err == f"error: {message}\n"

    def test_infinite_alpha_fails_before_any_trial(self, workdir, capsys):
        # json.load reads the non-standard token Infinity as a float
        (workdir / "search.json").write_text(
            '{"schema": "xor.schema.json", "train": "xor.data", "validation": "xor.data",'
            ' "ranges": [[2], [2]], "alpha": Infinity}'
        )
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: alpha must be finite and > 0, got inf\n"

    def test_count_a_discrete_attribute_refuses_fails_before_any_trial(self, workdir, capsys):
        schema = {
            "attributes": [
                {"name": "a", "kind": "continuous"},
                {"name": "b", "kind": "binary", "values": ["0", "1"]},
            ],
            "classes": ["c0", "c1"],
        }
        (workdir / "mixed.schema.json").write_text(json.dumps(schema))
        spec = {
            "schema": "mixed.schema.json",
            "train": "xor.data",
            "validation": "xor.data",
            "ranges": {"a": [2, 3], "b": [2, 3]},
        }
        (workdir / "search.json").write_text(json.dumps(spec))
        code = main(["search", "--spec", str(workdir / "search.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: attribute 'b': 3 bins requested but the binary attribute declares 2 values\n"
        )


# an entry override that removes the key
DROP = object()


def write_suite(workdir, checks, **entry):
    xor = {
        "name": "xor",
        "schema": "xor.schema.json",
        "train": "xor.data",
        "test": "xor.data",
        "bins": 2,
        "checks": checks,
        "fetch_hint": "regenerate xor.data by hand",
        **entry,
    }
    suite = {
        "data_dir": ".",
        "experiments": [{key: value for key, value in xor.items() if value is not DROP}],
    }
    path = workdir / "suite.json"
    path.write_text(json.dumps(suite))
    return path


class TestBenchmark:
    def test_passing_suite(self, workdir, capsys):
        path = write_suite(workdir, [{"metric": "test_accuracy", "min": 100.0}])
        code = main(["benchmark", "--suite", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "xor: PASS" in out
        assert "suite: 1/1 passed" in out

    def test_failed_check_fails_the_suite(self, workdir, capsys):
        path = write_suite(workdir, [{"metric": "epochs", "max": 0}])
        code = main(["benchmark", "--suite", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "xor: FAIL" in out
        assert "failed: epochs in" in out

    def test_missing_data_mentions_the_fetch_hint(self, workdir, capsys):
        path = write_suite(workdir, [])
        (workdir / "xor.data").unlink()
        code = main(["benchmark", "--suite", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "xor: MISSING_DATA" in out
        assert "regenerate xor.data by hand" in out

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"bins": 2.5}, "SchemaError: bin count must be an integer, got 2.5"),
            ({"bins": [2, True]}, "SchemaError: attribute 'b': bin count must be an integer, got True"),
            ({"alpha": float("inf")}, "ValueError: alpha must be finite and > 0, got inf"),
        ],
        ids=["fractional-bins", "boolean-bins", "infinite-alpha"],
    )
    def test_bad_entry_is_an_error(self, workdir, capsys, entry, message):
        path = write_suite(workdir, [], **entry)
        code = main(["benchmark", "--suite", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert f"xor: ERROR {message}\n" in out
        code = main(["benchmark", "--suite", str(path), "--format", "machine"])
        out = capsys.readouterr().out
        assert code == 1
        assert out == f"xor.status=error\nxor.message={message}\nsuite.ok=0\n"

    @pytest.mark.parametrize(
        "suite, message",
        [
            ([{"name": "xor"}], "suite must be a JSON object"),
            ({"data_dir": "."}, 'suite is missing "experiments"'),
            ({"experiment": []}, 'suite is missing "experiments"'),
            ({"experiments": {"name": "xor"}}, 'suite "experiments" must be a JSON list'),
            ({"experiments": ["xor"]}, "suite entry 1 must be a JSON object"),
        ],
        ids=["list", "missing", "misspelled", "experiments", "entry"],
    )
    def test_malformed_suite_is_reported(self, workdir, capsys, suite, message):
        path = workdir / "suite.json"
        path.write_text(json.dumps(suite))
        code = main(["benchmark", "--suite", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": DROP}, 'suite entry 2 is missing "name"'),
            ({"name": 5}, 'suite entry 2 "name" must be a string'),
            ({"schema": DROP}, 'suite entry "xor" is missing "schema"'),
            ({"max_rounds": 2.5}, 'suite entry "xor" "max_rounds" must be an integer'),
            ({"max_rounds": True}, 'suite entry "xor" "max_rounds" must be an integer'),
            ({"alpha": "2"}, 'suite entry "xor" "alpha" must be a number'),
            ({"bins": "2"}, 'suite entry "xor" "bins" must be a number or a JSON list or a JSON object or null'),
            ({"parse": {"ignore_cols": 5}}, 'suite entry "xor" "parse" "ignore_cols" must be a JSON list'),
            (
                {"train": DROP, "test": DROP, "data": "xor.data", "split": {"train_count": "3"}},
                'suite entry "xor" "split" "train_count" must be an integer',
            ),
            ({"checks": {"metric": "epochs"}}, 'suite entry "xor" "checks" must be a JSON list'),
            (
                {"checks": [{"metric": "test_accuracy", "min": "90"}]},
                'suite entry "xor" check 1 "min" must be a number or null',
            ),
            ({"checks": [{"max": 90}]}, 'suite entry "xor" check 1 is missing "metric"'),
            (
                {"checks": [{"metric": "epochs"}, {"metric": "accuracy", "min": 90}]},
                "experiment 'xor': no metric 'accuracy' to check",
            ),
        ],
        ids=[
            "no-name", "name", "no-schema", "fractional-max_rounds", "boolean-max_rounds", "alpha", "bins",
            "ignore_cols", "train_count", "checks", "check-min", "check-metric", "unknown-metric",
        ],
    )
    def test_malformed_entry_fails_before_any_entry_runs(self, workdir, capsys, entry, message):
        entry = dict(entry)
        path = write_suite(workdir, entry.pop("checks", []), **entry)
        suite = json.loads(path.read_text())
        # the malformed entry comes second, after one that would run
        suite["experiments"].insert(0, {"name": "good", "schema": "xor.schema.json",
                                        "train": "xor.data", "test": "xor.data", "bins": 2})
        path.write_text(json.dumps(suite))
        code = main(["benchmark", "--suite", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"name": "monks-2", "max_round": 200}, 'suite entry "monks-2" has unknown key "max_round"'),
            (
                {"train": DROP, "test": DROP, "data": "xor.data", "split": {"train_cont": 3}},
                'suite entry "xor" "split" has unknown key "train_cont"',
            ),
            ({"checks": [{"metric": "epochs", "maximum": 3}]}, 'suite entry "xor" check 1 has unknown key "maximum"'),
            ({"parse": {"label": 2}}, 'suite entry "xor" "parse" has unknown key "label"'),
            ({"suite": {"datadir": "."}}, 'suite has unknown key "datadir"'),
        ],
        ids=["entry", "split", "check", "parse", "suite"],
    )
    def test_unknown_key_fails_before_any_entry_runs(self, workdir, capsys, entry, message):
        entry = dict(entry)
        extra = entry.pop("suite", {})
        path = write_suite(workdir, entry.pop("checks", []), **entry)
        suite = json.loads(path.read_text())
        suite["experiments"].insert(0, {"name": "good", "schema": "xor.schema.json",
                                        "train": "xor.data", "test": "xor.data", "bins": 2})
        path.write_text(json.dumps({**suite, **extra}))
        code = main(["benchmark", "--suite", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_machine_format_and_out_file(self, workdir, capsys):
        path = write_suite(workdir, [{"metric": "test_accuracy", "min": 100.0}])
        out_path = workdir / "bench.txt"
        code = main(
            ["benchmark", "--suite", str(path), "--format", "machine", "--out", str(out_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "xor.status=pass" in out
        assert "suite.ok=1" in out
        assert out_path.read_text() == out


class TestInspect:
    def test_summary_fields(self, workdir, capsys):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        code = main(["inspect", "--model", str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "classes: c0, c1" in out
        assert "attributes: a(continuous), b(continuous)" in out
        assert "topology: 2-2" in out
        assert "trained on: 4 examples" in out
        assert "epochs: 1 (converged)" in out
        assert "epsilon_floor=0.025" in out


def test_import_loads_no_pool_machinery():
    # every command pays for what importing the CLI loads; only a
    # parallel search needs worker processes, and it imports them itself
    script = (
        "import sys, diffnb.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    package_root = Path(diffnb.__file__).resolve().parent.parent
    path = [str(package_root), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"
