"""Smoke test of scripts/output_digest.py on the smoke check's tiny search workload."""

import importlib.util
import re
from pathlib import Path

from diffnb import dataset

ROOT = Path(__file__).resolve().parent.parent


def load_script():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "scripts" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_name_every_output_and_ignore_the_work_directory():
    script = load_script()
    first = script.workload_digests(ROOT, "search", 0, tiny=True)
    outputs = [line.rsplit(" ", 2)[0] for line in first]
    assert outputs == [
        "search seed=0 search train",
        "search seed=0 search model",
        "search seed=0 search evaluate",
        "search seed=0 search predict",
        "search seed=0 search inspect",
        "search seed=0 search holdout",
        "search seed=0 search stdout",
        "search seed=0 search log",
    ]
    assert all(re.fullmatch(r".* [0-9a-f]{64} exit=0", line) for line in first)
    # a second run writes to another temporary directory, which train's
    # "model written to" line names; the digests must not see it
    assert script.workload_digests(ROOT, "search", 0, tiny=True) == first


def test_malformed_tables_fail_with_the_first_bad_line():
    script = load_script()
    runs = script.error_runs(ROOT)
    assert [label for label, _, _ in runs] == [
        f"errors {case} {kind}" for case in script.BAD_ROWS for kind in ("train", "evaluate")
    ]
    bad_line = script.GOOD_ROWS.count("\n") + 1
    for label, err, code in runs:
        assert code == 1
        assert err.decode().startswith(f"error: line {bad_line}: "), label
    messages = {label: err.decode() for label, err, _ in runs}
    # the wrong-length line after the bad value is not the one reported
    assert messages["errors bad-value-then-short-line train"] == messages["errors bad-number train"]


def test_predict_on_bad_rows_reads_a_file_and_stdin_alike():
    script = load_script()
    runs = script.predict_runs(ROOT)
    assert [label for label, _, _ in runs] == [
        f"predict bad-rows {source} {stream}" for source in ("data", "stdin") for stream in ("stdout", "stderr")
    ]
    assert all(code == 1 for _, _, code in runs)
    outputs = {label: data.decode() for label, data, _ in runs}
    assert outputs["predict bad-rows data stdout"] == outputs["predict bad-rows stdin stdout"]
    assert outputs["predict bad-rows data stderr"] == outputs["predict bad-rows stdin stderr"]
    lines = outputs["predict bad-rows data stdout"].splitlines()
    n_bad = sum(1 for line in lines if line.startswith("ERROR: line "))
    # one line per non-blank input line, and more than one block of input
    assert len(lines) == sum(1 for line in script.PREDICT_ROWS.splitlines() if line)
    assert 0 < n_bad < len(lines)
    assert outputs["predict bad-rows data stderr"] == f"{n_bad} rows failed\n"
    assert len(script.PREDICT_ROWS) > 2 * dataset._BLOCK_CHARS


def test_newline_copies_of_monks_1_read_as_the_shipped_files():
    script = load_script()
    runs = script.newline_runs(ROOT)
    assert [label for label, _, _ in runs] == [
        f"newlines {case} {kind}" for case in script.NEWLINE_COPIES for kind in ("train", "model", "evaluate", "predict")
    ]
    assert all(code == 0 for _, _, code in runs)
    outputs = {label: data for label, data, _ in runs}
    # the line ends and the mark change nothing a command prints or writes
    for kind in ("train", "model", "evaluate", "predict"):
        assert outputs[f"newlines crlf-bom {kind}"] == outputs[f"newlines cr {kind}"]
    assert "train accuracy: 100 % (124/124)" in outputs["newlines cr train"].decode()
    assert len(outputs["newlines cr predict"].decode().splitlines()) == 432


def test_both_data_file_forms_of_monks_1_are_digested():
    script = load_script()
    runs = script.data_form_runs(ROOT)
    assert [label for label, _, _ in runs] == [
        "forms search-split stdout", "forms search-split log", "forms benchmark machine"
    ]
    assert all(code == 0 for _, _, code in runs)
    outputs = {label: data.decode() for label, data, _ in runs}
    assert outputs["forms search-split stdout"].endswith("trials: 5\n")
    machine = outputs["forms benchmark machine"].splitlines()
    # the split entry trains on 84 of monks-1's 124 training rows; the
    # pair entry on all of them, tested on the 432-point grid
    for line in ("monks-1-split.n_train=84", "monks-1-split.n_test=40", "monks-1.n_train=124",
                 "monks-1.n_test=432", "suite.ok=1"):
        assert line in machine
    assert not any("train_seconds" in line for line in machine)


def test_monks_search_is_digested_serially_and_forked():
    script = load_script()
    runs = script.parallelism_runs(ROOT, tiny=True)
    searches = ("monks", "monks exhaustive")
    assert [label for label, _, _ in runs] == [
        f"parallelism {p} {search} search {output}"
        for search in searches for p in (1, 2) for output in ("stdout", "log")
    ]
    assert all(code == 0 for _, _, code in runs)
    outputs = {label: data for label, data, _ in runs}
    for search in searches:
        for output in ("stdout", "log"):
            serial, forked = (outputs[f"parallelism {p} {search} search {output}"] for p in (1, 2))
            assert serial == forked
        assert b"best topology: " in outputs[f"parallelism 2 {search} search stdout"]
    # the monks spec sweeps four counts of each of three attributes: 4**3 topologies
    assert outputs["parallelism 1 monks exhaustive search stdout"].endswith(b"trials: 64\n")
