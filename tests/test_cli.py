"""End-to-end runs of the command-line interface."""

import io
import json
import os
import select
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import diffnb
from diffnb import dataset
from diffnb.cli import main
from diffnb.evaluation import evaluate, render_report_machine
from diffnb.inference import posterior
from diffnb.modelfile import load_model

from conftest import child_env, rows_of, xor_dataset

ROOT = Path(__file__).resolve().parent.parent


def monks_search_spec(problem: int, **entries) -> dict:
    """A search spec on a shipped Monk's problem, its absolute paths readable from any directory."""
    return {
        "schema": str(ROOT / "benchmarks" / "schemas" / "monks.schema.json"),
        "train": str(ROOT / "data" / f"monks-{problem}.train"),
        "validation": str(ROOT / "data" / f"monks-{problem}.test"),
        "parse": {"label_col": 0, "ignore_cols": [7]},
        **entries,
    }


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

    def test_seed_without_train_count_is_a_usage_error(self, workdir, capsys):
        # the seed shuffles the rows before the --train-count split; alone
        # it once trained on every row and exited 0
        with pytest.raises(SystemExit) as exit_info:
            train_xor(workdir, "--seed", "7")
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("diffnb train: error: --seed needs --train-count\n")
        assert not (workdir / "xor.model.json").exists()

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

    @pytest.mark.parametrize("text", ["a1=3,4", "2.5", "a=x", "2,,3"])
    def test_malformed_bins_name_the_accepted_forms(self, workdir, capsys, text):
        code, model_path = train_xor(workdir, "--bins", text)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: --bins {text!r}: expected N, N,N,... or name=N,...\n"
        assert not model_path.exists()

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

    def test_undecodable_byte_is_a_runtime_error(self, workdir, capsys):
        (workdir / "xor.data").write_bytes(b"0 0 c0\n1 1 c0\n0 \xff c1\n1 0 c1\n")
        code, model_path = train_xor(workdir)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")
        assert not model_path.exists()

    def test_bad_line_ahead_of_an_undecodable_byte_is_reported_first(self, workdir, capsys):
        # both in the file's first 8 KiB, which a text-mode reader decodes as
        # one chunk, so that reader meets the byte before the bad line
        (workdir / "xor.data").write_bytes(b"0 0 c0\n1 x c0\n0 1 c1\n1 \xff c1\n")
        code, model_path = train_xor(workdir)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: line 2: attribute 'b': not a number: 'x'\n"
        assert not model_path.exists()

    def test_non_finite_value_is_a_runtime_error(self, workdir, capsys):
        (workdir / "xor.data").write_text("0 0 c0\n1 1 c0\nnan 1 c1\n1 0 c1\n")
        code, model_path = train_xor(workdir)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: line 3: attribute 'a': not a finite number: 'nan'\n"
        assert not model_path.exists()

    def test_byte_order_mark_is_skipped(self, workdir, capsys):
        # label first, as in the Monk's files: the mark used to land in the class token
        (workdir / "xor.data").write_text("\ufeffc0 0 0\nc0 1 1\nc1 0 1\nc1 1 0\n", encoding="utf-8")
        code, _ = train_xor(workdir, "--label-col", "0")
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "train accuracy: 100 % (4/4)" in captured.out

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
            (lambda doc: doc["bin_specs"].pop(), 'model file "bin_specs" has 1 bin specs for 2 attributes'),
            (
                lambda doc: doc["bin_specs"].append(doc["bin_specs"][0]),
                'model file "bin_specs" has 3 bin specs for 2 attributes',
            ),
            (
                lambda doc: doc["bin_specs"][0].update(count=9),
                'model file bin spec 1 "count" is 9, but "topology" gives 2 bins',
            ),
            (
                lambda doc: doc["bin_specs"][1].update(count=9),
                'model file bin spec 2 "count" is 9, but "topology" gives 2 bins',
            ),
            (lambda doc: doc.update(n_train=0), 'model file "n_train" must be >= 1, got 0'),
            (lambda doc: doc.update(n_train=-4), 'model file "n_train" must be >= 1, got -4'),
            (
                lambda doc: doc["weights"][1][0].__setitem__(1, -1),
                'model file "weights" must be finite and > 0, got -1.0',
            ),
            (
                lambda doc: doc["weights"][0][1].__setitem__(0, 0),
                'model file "weights" must be finite and > 0, got 0.0',
            ),
            (
                lambda doc: doc["weights"][0][0].__setitem__(1, float("inf")),
                'model file "weights" must be finite and > 0, got inf',
            ),
            (
                lambda doc: doc["weights"][1][1].__setitem__(0, float("nan")),
                'model file "weights" must be finite and > 0, got nan',
            ),
            (lambda doc: doc["counts"][0][1].__setitem__(1, -5), 'model file "counts" must be >= 0, got -5'),
            (
                lambda doc: doc["bin_specs"][0].update(lo=float("nan")),
                "model file bin spec 1: attribute 0: cannot bin between lo nan and hi 1.0",
            ),
            (
                lambda doc: doc["bin_specs"][1].update(hi=float("inf")),
                "model file bin spec 2: attribute 1: cannot bin between lo 0.0 and hi inf",
            ),
            (lambda doc: doc["counts"][0][0].__setitem__(0, 17.5), 'model file "counts" must hold integers, got 17.5'),
            (lambda doc: doc["counts"][1][0].__setitem__(1, "7"), 'model file "counts" must hold integers, got "7"'),
            (lambda doc: doc["counts"][0][1].__setitem__(0, True), 'model file "counts" must hold integers, got true'),
            (
                lambda doc: doc["weights"][1][1].__setitem__(1, "2.0"),
                'model file "weights" must hold numbers, got "2.0"',
            ),
            (
                lambda doc: doc["tags"][0][0][0][1].__setitem__(0, float("nan")),
                'model file "tags" must not hold a NaN bound',
            ),
            (
                lambda doc: doc["counts"][0][1].append(3),
                'model file "counts" lists 3 cells for attribute 2, but "topology" gives 2 bins',
            ),
            (
                lambda doc: doc["tags"][0][0][0][1].__setitem__(0, "0.5"),
                'model file "tags" bounds must be [lo, hi] pairs of numbers, got ["0.5", 0.0]',
            ),
            (
                lambda doc: doc["tags"][1][0][1][1].__setitem__(1, True),
                'model file "tags" bounds must be [lo, hi] pairs of numbers, got [0.0, true]',
            ),
            (
                lambda doc: doc["tags"][0][1][0][0].append(1.0),
                'model file "tags" bounds must be [lo, hi] pairs of numbers, got [0.0, 0.0, 1.0]',
            ),
            (
                lambda doc: doc["tags"][1][1][1].__setitem__(0, [0.0]),
                'model file "tags" bounds must be [lo, hi] pairs of numbers, got [0.0]',
            ),
            (
                lambda doc: doc["tags"][0][0][0].__setitem__(0, [0.0, 1.0]),
                'model file "tags" cell 1 of attribute 1 in class 1 must list 2 windows, null at its own attribute',
            ),
            (
                lambda doc: doc["tags"][1][1].pop(),
                'model file "tags" lists 1 cells for attribute 2, but "topology" gives 2 bins',
            ),
            (
                lambda doc: doc["counts"].append(doc["counts"][0]),
                'model file "counts" lists 3 classes, but the schema gives 2',
            ),
            (
                lambda doc: doc["weights"][1].append(doc["weights"][1][0]),
                'model file "weights" lists 3 attributes for class 2, but the schema gives 2',
            ),
            (
                lambda doc: doc["tags"].append(doc["tags"][0]),
                'model file "tags" lists 3 classes, but the schema gives 2',
            ),
            (
                lambda doc: doc["counts"][0][0].__setitem__(0, 10**30),
                'model file "counts", "weights" or "tags" hold a number too large to store',
            ),
            (
                lambda doc: doc["tags"][0][0][0][1].__setitem__(0, 10**400),
                'model file "counts", "weights" or "tags" hold a number too large to store',
            ),
        ],
        ids=[
            "schema", "topology", "topology-length", "bin-spec", "config", "trace", "counts", "tags",
            "bin-specs-short", "bin-specs-long", "bin-count-first", "bin-count-last", "n-train-zero",
            "n-train-negative", "weight-negative", "weight-zero", "weight-infinite", "weight-nan",
            "count-negative", "bin-lo-nan", "bin-hi-infinite", "count-fraction", "count-string",
            "count-boolean", "weight-string", "tag-nan", "count-extra", "tag-string", "tag-boolean",
            "tag-triple", "tag-single", "tag-own-attribute", "tags-short", "counts-extra-class",
            "weights-extra-attribute", "tags-extra-class", "count-too-large", "tag-too-large",
        ],
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

    def test_byte_order_mark_is_skipped(self, workdir, capsys):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        (workdir / "bom.rows").write_text("\ufeff0 0\n1 0\n", encoding="utf-8")
        code = main(["predict", "--model", str(model_path), "--data", str(workdir / "bom.rows")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["c0 p=[0.941176,0.058824]", "c1 p=[0.058824,0.941176]"]

    def test_label_col_is_a_usage_error(self, workdir, capsys):
        # predict's rows carry no label; the flag used to be accepted and
        # ignored, so every labeled row then failed on its value count
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["predict", "--model", str(model_path), "--data", str(workdir / "xor.rows"),
                  "--label-col", "0"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --label-col 0" in capsys.readouterr().err

    def test_reads_stdin_when_no_data_given(self, workdir, capsys, monkeypatch):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"0 1\n\n")))
        code = main(["predict", "--model", str(model_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.splitlines() == ["c1 p=[0.058824,0.941176]"]

    def test_stdin_byte_order_mark_is_skipped(self, workdir, capsys, monkeypatch):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xef\xbb\xbf0 0\n1 0\n")))
        code = main(["predict", "--model", str(model_path)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.splitlines() == ["c0 p=[0.941176,0.058824]", "c1 p=[0.058824,0.941176]"]

    def test_stdin_undecodable_byte_is_a_runtime_error(self, workdir, capsys, monkeypatch):
        # as from a --data file: one codec error line, not a per-row value
        # error; a POSIX-locale stdin decodes with surrogateescape, so its
        # text layer would hand the byte on as a token
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        stdin = io.TextIOWrapper(io.BytesIO(b"0 \xff\n"), errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["predict", "--model", str(model_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")


# every input line is this many characters with its newline, blank and bad
# lines too, so the lines that close a block follow from the block size
LINE_CHARS = 36
BAD_PREDICT_ROWS = (
    ("0", "expected 2 values, got 1"),
    ("? 1", "missing value"),
    ("1 inf", "attribute 'b': not a finite number: 'inf'"),
)


def predict_input(n_lines: int, bad: set[int], blank: set[int]) -> tuple[str, list]:
    """Fixed-width rows for the xor model, and per non-blank line its values or its ERROR line.

    Line indexes in ``bad`` hold a malformed row, those in ``blank`` only spaces.
    """
    rng = np.random.default_rng(0)
    lines, expected = [], []
    for i in range(n_lines):
        if i in blank:
            line = ""
        elif i in bad:
            line, message = BAD_PREDICT_ROWS[i % len(BAD_PREDICT_ROWS)]
            expected.append(f"ERROR: line {i + 1}: {message}")
        else:
            line = " ".join(f"{v:.15f}" for v in rng.random(2))
            expected.append(tuple(float(tok) for tok in line.split()))
        lines.append(line.ljust(LINE_CHARS - 1) + "\n")
    return "".join(lines), expected


def per_row_output(model, expected: list) -> list[str]:
    """predict's lines for ``expected``, each row labeled by its own posterior() call."""
    out = []
    for item in expected:
        if isinstance(item, str):
            out.append(item)
        else:
            post = posterior(model, item)
            probs = ",".join(f"{p:.6f}" for p in post.probabilities)
            out.append(f"{model.schema.classes[post.winner]} p=[{probs}]")
    return out


def run_predict(workdir, monkeypatch, source: str, data: bytes) -> int:
    """predict on ``data``, from a --data file or from stdin; returns the exit code."""
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
        return main(["predict", "--model", str(workdir / "xor.model.json")])
    (workdir / "many.rows").write_bytes(data)
    return main(["predict", "--model", str(workdir / "xor.model.json"), "--data", str(workdir / "many.rows")])


class TestPredictBlocks:
    """predict labels a block of rows at a time; its output is that of one posterior() per row."""

    @pytest.mark.parametrize("source", ["data", "stdin"])
    @pytest.mark.parametrize("block_chars", [1, 100, None], ids=["one-line", "three-lines", "default"])
    def test_output_equals_per_row_posteriors(self, workdir, capsys, monkeypatch, source, block_chars):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        if block_chars is not None:
            monkeypatch.setattr(dataset, "_BLOCK_CHARS", block_chars)
        per_block = -(-dataset._BLOCK_CHARS // LINE_CHARS)
        n = max(2 * per_block + per_block // 2, 40)
        # the first and last rows, and the last row of the first block with
        # the first of the second
        bad = {0, per_block - 1, per_block, n - 1}
        blank = {i for i in range(n) if i % 7 == 5} - bad
        text, expected = predict_input(n, bad, blank)
        code = run_predict(workdir, monkeypatch, source, text.encode())
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.splitlines() == per_row_output(load_model(model_path), expected)
        assert captured.err == f"{len(bad)} rows failed\n"

    @pytest.mark.parametrize("source", ["data", "stdin"])
    @pytest.mark.parametrize("block_chars", [None, 1 << 30], ids=["default", "one-block"])
    def test_rows_before_an_undecodable_byte_are_printed(
        self, workdir, capsys, monkeypatch, source, block_chars
    ):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        if block_chars is not None:
            monkeypatch.setattr(dataset, "_BLOCK_CHARS", block_chars)
        text, expected = predict_input(3000, set(), set())
        code = run_predict(workdir, monkeypatch, source, text.encode() + b"0 \xff\n")
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")
        assert captured.err.count("\n") == 1
        assert captured.out.splitlines() == per_row_output(load_model(model_path), expected)

    @pytest.mark.parametrize("source", ["data", "stdin"])
    def test_rows_before_an_undecodable_byte_in_the_first_8_kib_are_printed(
        self, workdir, capsys, monkeypatch, source
    ):
        # a text-mode reader decodes the first 8 KiB as one chunk, so it
        # meets the byte before any row
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        n = 8192 // LINE_CHARS - 1
        text, expected = predict_input(n, {n // 2}, {n // 3})
        data = text.encode() + b"0 \xff\n"
        assert len(data) < 8192
        code = run_predict(workdir, monkeypatch, source, data)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")
        assert captured.err.count("\n") == 1
        assert captured.out.splitlines() == per_row_output(load_model(model_path), expected)


class TestIgnoreCols:
    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    @pytest.mark.parametrize("text", ["x", "1,a", "0.5"])
    def test_malformed_value_names_the_flag_and_its_form(self, workdir, capsys, command, text):
        _, model_path = train_xor(workdir)
        capsys.readouterr()
        data = str(workdir / ("xor.rows" if command == "predict" else "xor.data"))
        out = workdir / "ignored.model.json"
        argv = {
            "train": ["train", "--data", data, "--schema", str(workdir / "xor.schema.json"), "--out", str(out)],
            "evaluate": ["evaluate", "--model", str(model_path), "--data", data],
            "predict": ["predict", "--model", str(model_path), "--data", data],
        }[command]
        code = main([*argv, "--ignore-cols", text])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: --ignore-cols {text!r}: expected comma-separated integers\n"
        assert captured.out == ""
        assert not out.exists()


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

    def test_forked_helpers_never_repeat_output(self, tmp_path):
        # stdout is a file, so block-buffered, and already holds a line when
        # the search forks; a helper that inherited that buffer and flushed
        # it on the way out would write the line a second time. The
        # searching process's trials are slowed, so the helper runs out of
        # topologies and leaves while the search goes on.
        script = textwrap.dedent(
            """
            import os, sys, time
            from diffnb import topology
            from diffnb.cli import main

            train, searcher = topology._train_one, os.getpid()

            def slowed_here(*args):
                if os.getpid() == searcher:
                    time.sleep(0.1)
                return train(*args)

            topology._train_one = slowed_here
            print("before the search")
            sys.exit(main(sys.argv[1:]))
            """
        )
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        outputs = {}
        for parallelism in (1, 2):
            spec = tmp_path / f"search-{parallelism}.json"
            spec.write_text(json.dumps(monks_search_spec(
                1, ranges={"a1": [2, 3, 4], "a5": [2, 3, 4]}, baseline_bins=4, max_rounds=20, parallelism=parallelism
            )))
            out = tmp_path / f"out-{parallelism}.txt"
            with open(out, "wb") as stdout:
                child = subprocess.run(
                    [sys.executable, "-c", script, "search", "--spec", str(spec)],
                    stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
                )
            assert (child.returncode, child.stderr) == (0, b"")
            outputs[parallelism] = out.read_bytes()
        assert outputs[2] == outputs[1]
        assert outputs[1].count(b"before the search") == 1
        assert outputs[1].count(b"\ntrial ") == 6

    def test_parallel_flag_is_a_usage_error(self, workdir, capsys):
        # the spec's "parallelism" is the one way to set the worker count
        (workdir / "search.json").write_text(json.dumps(SEARCH_SPEC))
        with pytest.raises(SystemExit) as exit_info:
            main(["search", "--spec", str(workdir / "search.json"), "--parallel", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --parallel 2" in capsys.readouterr().err

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
        "spec, message",
        [
            (
                {"data": "xor.data", "train_count": 3, "train": "xor.data", "validation": "xor.data"},
                'search spec gives "train" with "data", which is split into train and validation',
            ),
            (
                {"data": "xor.data", "train_count": 3, "validation": "xor.data"},
                'search spec gives "validation" with "data", which is split into train and validation',
            ),
            (
                {"train": "xor.data", "validation": "xor.data", "train_count": 3},
                'search spec gives "train_count" without "data", the file it splits',
            ),
            (
                {"train": "xor.data", "validation": "xor.data", "seed": 7},
                'search spec gives "seed" without "data", the file it splits',
            ),
        ],
        ids=["data-and-train", "data-and-validation", "train_count-alone", "seed-alone"],
    )
    def test_split_keys_out_of_place_fail_before_any_trial(self, workdir, capsys, spec, message):
        # such a spec names files, or a split, that the search would not use
        spec = {"schema": "xor.schema.json", "ranges": [[2], [2]], **spec}
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
            # one file to split or a train and a test file, never a mix
            (
                {"test": DROP, "data": "xor.data", "split": {"train_count": 3}},
                'suite entry "xor" gives "train" with "data", which is split into train and test',
            ),
            (
                {"train": DROP, "data": "xor.data", "split": {"train_count": 3}},
                'suite entry "xor" gives "test" with "data", which is split into train and test',
            ),
            (
                {"split": {"train_count": 3, "seed": 4}},
                'suite entry "xor" gives "split" without "data", the file it splits',
            ),
            ({"train": DROP, "test": DROP, "data": "xor.data"}, 'suite entry "xor" is missing "split"'),
        ],
        ids=[
            "no-name", "name", "no-schema", "fractional-max_rounds", "boolean-max_rounds", "alpha", "bins",
            "ignore_cols", "train_count", "checks", "check-min", "check-metric", "unknown-metric",
            "data-and-train", "data-and-test", "split-with-pair", "data-without-split",
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
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out.splitlines() == [
            "classes: c0, c1",
            "attributes: a(continuous), b(continuous)",
            "topology: 2-2",
            "trained on: 4 examples",
            "config: alpha=2.0 max_rounds=500 tag_gain=0.25 epsilon_floor=0.025",
            "epochs: 1 (converged)",
            "boosted cells: 0 of 8 (max weight 1)",
            "populated bins: 8",
        ]

    def test_boosted_and_empty_cells_are_counted(self, workdir, capsys):
        # three bins over {5, 9} leave the middle bins empty; c0 wins
        # nothing, so its cells are boosted every epoch
        (workdir / "xor.data").write_text("5 0 c0\n5 0 c1\n5 0 c1\n9 0 c1\n")
        model_path = workdir / "xor.model.json"
        main(["train", "--data", str(workdir / "xor.data"), "--schema", str(workdir / "xor.schema.json"),
              "--bins", "3", "--max-rounds", "4", "--out", str(model_path)])
        capsys.readouterr()
        assert main(["inspect", "--model", str(model_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-3:] == [
            "epochs: 4 (not converged)",
            "boosted cells: 4 of 12 (max weight 3.50057)",
            "populated bins: 5",
        ]


class TestClosedStdout:
    """A reader that stops early, as ``| head`` does, ends the command without a message.

    Each case runs with stdout block-buffered, as it is by default, and
    unbuffered (``PYTHONUNBUFFERED``), so the closed pipe is met both in the
    final flush and in the command's own writes.
    """

    def run_closed(self, argv, unbuffered, read_first_line):
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        child = subprocess.Popen(
            [sys.executable, "-m", "diffnb.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            first = child.stdout.readline() if read_first_line else None
            child.stdout.close()
            code = child.wait(timeout=60)
            # stderr reaches its end once every process holding it is gone,
            # so a forked helper left running would hold it open
            assert select.select([child.stderr], [], [], 1.0)[0], "stderr is still open after the command exited"
            return first, code, child.stderr.read()
        finally:
            child.kill()
            child.wait()
            child.stderr.close()

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_predict_piped_into_head(self, workdir, unbuffered):
        _, model_path = train_xor(workdir)
        rows = workdir / "many.rows"
        rows.write_text("0 0\n1 0\n" * 20000)  # about 1 MB of labels: more than a pipe holds
        first, code, err = self.run_closed(
            ["predict", "--model", str(model_path), "--data", str(rows)], unbuffered, read_first_line=True
        )
        assert first == b"c0 p=[0.941176,0.058824]\n"
        assert (code, err) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_inspect_into_a_closed_pipe(self, workdir, unbuffered):
        # closed before the child has imported anything, so its first write fails
        _, model_path = train_xor(workdir)
        _, code, err = self.run_closed(
            ["inspect", "--model", str(model_path)], unbuffered, read_first_line=False
        )
        assert (code, err) == (1, b"")

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_parallel_search_into_a_closed_pipe(self, tmp_path, unbuffered):
        # unbuffered, the first progress line fails while the batch is
        # still training, with monks-2 trials of about half a second; a
        # helper outliving the command would hold stderr open for seconds.
        # Buffered, the search ends before the final flush fails.
        spec = tmp_path / "search.json"
        spec.write_text(json.dumps(monks_search_spec(
            2, ranges=[[2, 3, 4, 5]] * 6, baseline_bins=4, parallelism=2, budget=25 if unbuffered else 3
        )))
        _, code, err = self.run_closed(["search", "--spec", str(spec)], unbuffered, read_first_line=False)
        assert (code, err) == (1, b"")


SEARCH_SPEC = {"schema": "xor.schema.json", "train": "xor.data", "validation": "xor.data", "ranges": [[2], [2]]}


class TestMissingInputFile:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--data", "absent", "--schema", "xor.schema.json", "--out", "out.json"],
            ["train", "--data", "xor.data", "--schema", "absent", "--out", "out.json"],
            ["evaluate", "--model", "absent", "--data", "xor.data"],
            ["evaluate", "--model", "xor.model.json", "--data", "absent"],
            ["predict", "--model", "absent", "--data", "xor.rows"],
            ["predict", "--model", "xor.model.json", "--data", "absent"],
            ["search", "--spec", "absent", "--out", "out.json"],
            ["search", "--spec", {"schema": "absent"}, "--out", "out.json"],
            ["search", "--spec", {"data": "absent", "train_count": 3}, "--out", "out.json"],
            ["search", "--spec", {"train": "absent"}, "--out", "out.json"],
            ["search", "--spec", {"validation": "absent"}, "--out", "out.json"],
            ["benchmark", "--suite", "absent", "--out", "out.json"],
            ["inspect", "--model", "absent"],
        ],
        ids=[
            "train-data", "train-schema", "evaluate-model", "evaluate-data", "predict-model",
            "predict-data", "search-spec", "spec-schema", "spec-data", "spec-train",
            "spec-validation", "benchmark-suite", "inspect-model",
        ],
    )
    def test_is_a_usage_error(self, workdir, capsys, monkeypatch, argv):
        # paths are relative to the work directory, and so are a spec's
        monkeypatch.chdir(workdir)
        train_xor(workdir)  # the model the other commands read
        capsys.readouterr()
        argv = list(argv)
        for i, arg in enumerate(argv):
            if isinstance(arg, dict):
                spec = {**SEARCH_SPEC, **arg}
                if "data" in arg:  # the file to split stands in for the pair
                    del spec["train"], spec["validation"]
                Path("search.json").write_text(json.dumps(spec))
                argv[i] = "search.json"
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "no such file: absent\n"
        assert captured.out == ""
        assert not Path("out.json").exists()


def test_import_loads_no_pool_machinery():
    # every command pays for what importing the CLI loads, and only the
    # commands that evaluate or search import those modules; a parallel
    # search forks its helpers itself, with no executor or multiprocessing
    script = textwrap.dedent(
        f"""
        import sys, diffnb.cli

        def loaded(names):
            return sorted(m for m in sys.modules if m.split(".")[0] in ("concurrent", "multiprocessing") or m in names)

        print(loaded(("diffnb.evaluation", "diffnb.topology")))
        from diffnb.dataset import AttributeSpec, Dataset, Schema
        from diffnb.topology import SearchSpec, coordinate_search

        data = Dataset.build({xor_dataset().schema!r}, {rows_of(xor_dataset())!r})
        spec = SearchSpec(((1, 2, 3), (1, 2, 4)), baseline_bins=2, parallelism=2)
        coordinate_search(data, data, spec)
        print(loaded(()))
        """
    )
    child = subprocess.run([sys.executable, "-c", script], env=child_env(), capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n[]\n"


def test_package_exports_resolve_on_first_use():
    for name in diffnb.__all__:
        value = getattr(diffnb, name)
        assert getattr(value, "__name__", name) == name
    assert set(diffnb.__all__) <= set(dir(diffnb))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        diffnb.no_such_name
