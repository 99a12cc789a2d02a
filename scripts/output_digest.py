"""One SHA-256 per diffnb output on the benchmark's workloads, to diff two checkouts.

    python3 scripts/output_digest.py [CHECKOUT] > digests.txt

Generates the three workloads of ``perfbench/workloads.py`` (imported
read-only) into a temporary directory: ``monks`` once, as it reads the
shipped files whatever the seed, and ``train-heavy`` and ``search`` for
seeds 0-2. On each it runs CHECKOUT's ``diffnb`` (``CHECKOUT/src`` on the
path; by default the checkout holding this script) as a user would:
``train``, ``evaluate``, ``predict`` and ``inspect`` for every job, ``train
--train-count N --seed S`` (the holdout split), then ``search --out``. It
also runs ``benchmark --format machine`` on CHECKOUT's shipped suite,
dropping the ``train_seconds`` lines, which are wall times, and ``train``
and ``evaluate`` on malformed tables, where the digest covers stderr: the
error message a bad line gives. Then ``predict`` labels rows with bad and
blank lines among them, more than one block of them, from a ``--data``
file and from stdin; both stdout and stderr are digested. Last, ``train``,
``evaluate`` and ``predict`` run on three copies of the monks-1 files, one
with CRLF line ends and a byte-order mark, one with lone CR line ends,
and one comma-delimited (``--delimiter ,``) with spaces around its
fields, and ``search --out`` and ``benchmark --format machine`` read the monks-1
files in both data-file forms: a spec that splits ``monks-1.train`` by a
seeded row count, and a suite with one such split entry and one entry
naming the train and test pair. Then ``search --out`` runs the monks
workload's spec at ``"parallelism"`` 1 and 2, so both the serial and the
two-thread search are digested on any host, and then the same spec with
``"exhaustive": true`` at both, whose trials differ from the first in
several attributes at once; the script exits 1 if a search's outputs
differ between the two.

Each output prints as one line, ``<workload> <job> <output> <sha256>
exit=<code>``. The temporary directory and CHECKOUT's path are replaced
by placeholders before hashing, so two checkouts whose outputs are byte
for byte the same print the same lines:

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py ../parent-checkout > old.txt
    diff old.txt new.txt
"""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import workloads  # noqa: E402  (perfbench is not a package)

SEEDS = (0, 1, 2)
# the holdout run shuffles with this seed before splitting a job's training file in half
HOLDOUT_SEED = 7

# malformed tables: each appends its rows to GOOD_ROWS, and train and
# evaluate on it must fail with the message of the first bad line
ERROR_SCHEMA = {
    "classes": ["c0", "c1"],
    "attributes": [
        {"name": "x", "kind": "continuous"},
        {"name": "color", "kind": "categorical", "values": ["r", "g", "b"]},
    ],
}
GOOD_ROWS = "".join(f"{i * 0.5} {'rgb'[i % 3]} c{i % 2}\n" for i in range(12))
BAD_ROWS = {
    "bad-number": "abc r c0\n",
    "unknown-value": "1.5 purple c0\n",
    "unknown-class": "1.5 r c9\n",
    "field-count": "1.5 c0\n",
    "non-finite": "inf r c1\n",
    "bad-value-then-short-line": "abc r c0\n1.5 c0\n",
    # tokens the compiled parse leaves to the Python encoder: float() takes
    # 1_0 as 10.0, and the line fails on its colour; 1e999 overflows
    "underscore-then-unknown-value": "1_0 purple c0\n",
    "overflow": "1e999 r c1\n",
}

# unlabeled rows for predict on the model trained on GOOD_ROWS: every
# seventh line is bad or blank, and the rows span several of predict's
# blocks of input
BAD_PREDICT_LINES = ("abc r", "1.5 purple", "1.5", "inf r", "? g", "")
PREDICT_ROWS = "".join(
    BAD_PREDICT_LINES[i // 7 % len(BAD_PREDICT_LINES)] + "\n" if i % 7 == 3
    else f"{i % 113 * 0.05:.2f} {'rgb'[i % 3]}\n"
    for i in range(6000)
)


def run_cli(root: Path, argv: list[str], stdin: bytes | None = None) -> tuple[bytes, bytes, int]:
    """stdout, stderr and exit code of ``diffnb`` from ``root``'s sources, ``stdin`` as its input."""
    env = {k: v for k, v in os.environ.items() if k != "DIFFNB_DATA"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "diffnb.cli", *argv], env=env, input=stdin, capture_output=True, timeout=600
    )
    return proc.stdout, proc.stderr, proc.returncode


def digest_line(label: str, data: bytes, code: int, paths: dict[Path, str]) -> str:
    for path, placeholder in paths.items():
        data = data.replace(str(path).encode(), placeholder.encode())
    return f"{label} {hashlib.sha256(data).hexdigest()} exit={code}"


def workload_digests(root: Path, name: str, seed: int, tiny: bool = False) -> list[str]:
    """Digest lines of every output of workload ``name`` generated from ``seed``.

    ``tiny`` takes the shrunken shapes perfbench's smoke check runs.
    """
    label = name if name == "monks" else f"{name} seed={seed}"
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / name
        paths = {work: "<work>"}
        w = workloads.setup(name, root, work, seed, tiny)
        for job in w.jobs:
            for kind, argv in (
                ("train", job.train_argv()),
                ("evaluate", job.evaluate_argv()),
                ("predict", job.predict_argv()),
                ("inspect", ["inspect", "--model", str(job.model)]),
            ):
                out, _, code = run_cli(root, argv)
                lines.append(digest_line(f"{label} {job.name} {kind}", out, code, paths))
                if kind == "train":
                    lines.append(digest_line(f"{label} {job.name} model", job.model.read_bytes(), code, paths))
            out, _, code = run_cli(root, holdout_argv(job))
            lines.append(digest_line(f"{label} {job.name} holdout", out, code, paths))
        log = work / "search.log.json"
        out, _, code = run_cli(root, ["search", "--spec", str(w.search_spec), "--out", str(log)])
        lines.append(digest_line(f"{label} search stdout", out, code, paths))
        lines.append(digest_line(f"{label} search log", log.read_bytes(), code, paths))
    return lines


def holdout_argv(job) -> list[str]:
    """``job``'s train command on a seeded split of its training file, half of it held out."""
    n_lines = sum(1 for line in job.train.read_text(encoding="utf-8").splitlines() if line.strip())
    out = job.model.with_name("holdout.model.json")
    argv = [str(out) if arg == str(job.model) else arg for arg in job.train_argv()]
    return argv + ["--train-count", str(n_lines // 2), "--seed", str(HOLDOUT_SEED)]


def train_good_model(root: Path, work: Path) -> tuple[Path, Path]:
    """(schema, model) paths in ``work``, the model trained on GOOD_ROWS alone."""
    schema = work / "schema.json"
    schema.write_text(json.dumps(ERROR_SCHEMA), encoding="utf-8")
    good, model = work / "good.data", work / "model.json"
    good.write_text(GOOD_ROWS, encoding="utf-8")
    _, err, code = run_cli(root, ["train", "--data", str(good), "--schema", str(schema), "--bins", "2",
                                  "--out", str(model)])
    if code != 0:
        raise RuntimeError(f"training on the well-formed table failed: {err.decode()}")
    return schema, model


def error_runs(root: Path) -> list[tuple[str, bytes, int]]:
    """(output name, stderr, exit code) of ``train`` and ``evaluate`` on each malformed table.

    The model evaluated is trained on GOOD_ROWS alone first.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        schema, model = train_good_model(root, work)
        for case, rows in BAD_ROWS.items():
            data = work / f"{case}.data"
            data.write_text(GOOD_ROWS + rows, encoding="utf-8")
            for kind, argv in (
                ("train", ["train", "--data", str(data), "--schema", str(schema), "--out", str(work / "bad.json")]),
                ("evaluate", ["evaluate", "--model", str(model), "--data", str(data)]),
            ):
                _, err, code = run_cli(root, argv)
                runs.append((f"errors {case} {kind}", err, code))
    return runs


def predict_runs(root: Path) -> list[tuple[str, bytes, int]]:
    """(output name, bytes, exit code) of stdout and stderr of ``predict`` on PREDICT_ROWS.

    The rows are read from a ``--data`` file, then from stdin.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _, model = train_good_model(root, work)
        rows = work / "predict.rows"
        rows.write_text(PREDICT_ROWS, encoding="utf-8")
        for source, argv, stdin in (
            ("data", ["--data", str(rows)], None),
            ("stdin", [], PREDICT_ROWS.encode()),
        ):
            out, err, code = run_cli(root, ["predict", "--model", str(model), *argv], stdin)
            runs.append((f"predict bad-rows {source} stdout", out, code))
            runs.append((f"predict bad-rows {source} stderr", err, code))
    return runs


# the monks-1 copies: a file's lines joined by each line end, its leading
# bytes, and the delimiter its fields are rewritten around, padded with
# spaces (None keeps the shipped whitespace)
MONKS_COPIES = {
    "newlines crlf-bom": ("\r\n", "\ufeff", None),
    "newlines cr": ("\r", "", None),
    "delimited comma": ("\n", "", ","),
}


def monks_copy_runs(root: Path) -> list[tuple[str, bytes, int]]:
    """(output name, stdout, exit code) of ``train``, ``evaluate`` and ``predict`` on each MONKS_COPIES copy.

    The model file ``train`` writes is digested too; the temporary
    directory is left out of every output.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        schema = work / "monks.schema.json"
        shutil.copyfile(root / "benchmarks" / "schemas" / "monks.schema.json", schema)
        for case, (newline, head, delimiter) in MONKS_COPIES.items():
            paths = {}
            for split in ("train", "test"):
                lines = (root / "data" / f"monks-1.{split}").read_text(encoding="utf-8").splitlines()
                if delimiter is not None:
                    lines = [f" {delimiter} ".join(line.split()) for line in lines]
                paths[split] = work / f"{case.split()[1]}.{split}"
                paths[split].write_text(head + newline.join(lines) + newline, encoding="utf-8", newline="")
            job = workloads.Job(
                name=case, schema=schema, train=paths["train"], test=paths["test"], rows=paths["test"],
                model=work / "model.json", row_values=[], bins=4, max_rounds=500,
                label_col=0, ignore_cols=(7,), predict_ignore=(0, 7),
            )
            parse = [] if delimiter is None else ["--delimiter", delimiter]
            for kind, argv in (
                ("train", job.train_argv()), ("evaluate", job.evaluate_argv()), ("predict", job.predict_argv())
            ):
                out, _, code = run_cli(root, argv + parse)
                runs.append((f"{case} {kind}", out.replace(str(work).encode(), b"<work>"), code))
                if kind == "train":
                    runs.append((f"{case} model", job.model.read_bytes(), code))
    return runs


MONKS_PARSE = {"label_col": 0, "ignore_cols": [7]}
# monks-1's 124 training rows, shuffled, then split 84/40
MONKS_SPLIT = {"data": "monks-1.train", "train_count": 84, "seed": HOLDOUT_SEED}


def data_form_runs(root: Path) -> list[tuple[str, bytes, int]]:
    """(output name, bytes, exit code) of ``search`` and ``benchmark`` on monks-1 in both data-file forms.

    ``search --out`` runs a spec that splits one file (stdout and the
    trial log are digested); ``benchmark --format machine`` runs a suite
    of one split entry and one pair entry, its ``train_seconds`` lines
    dropped.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        shutil.copyfile(root / "benchmarks" / "schemas" / "monks.schema.json", work / "monks.schema.json")
        for split in ("train", "test"):
            shutil.copyfile(root / "data" / f"monks-1.{split}", work / f"monks-1.{split}")
        spec, log = work / "search.json", work / "search.log.json"
        spec.write_text(json.dumps({
            "schema": "monks.schema.json", **MONKS_SPLIT, "parse": MONKS_PARSE,
            "ranges": {"a1": [2, 3, 4], "a5": [2, 3, 4]}, "baseline_bins": 4, "max_rounds": 20,
        }), encoding="utf-8")
        out, _, code = run_cli(root, ["search", "--spec", str(spec), "--out", str(log)])
        runs.append(("forms search-split stdout", out, code))
        runs.append(("forms search-split log", log.read_bytes(), code))
        entry = {"schema": "monks.schema.json", "parse": MONKS_PARSE, "bins": 4,
                 "checks": [{"metric": "test_accuracy", "min": 50.0}]}
        split = {key: value for key, value in MONKS_SPLIT.items() if key != "data"}
        suite = work / "suite.json"
        suite.write_text(json.dumps({"data_dir": ".", "experiments": [
            {"name": "monks-1-split", "data": MONKS_SPLIT["data"], "split": split, **entry},
            {"name": "monks-1", "train": "monks-1.train", "test": "monks-1.test", **entry},
        ]}), encoding="utf-8")
        out, _, code = run_cli(root, ["benchmark", "--suite", str(suite), "--format", "machine"])
        out = re.sub(rb"(?m)^[^\n]*\.train_seconds=[^\n]*\n", b"", out)
        runs.append(("forms benchmark machine", out.replace(str(work).encode(), b"<work>"), code))
    return runs


# the serial search, and the one that starts worker threads for each batch of more than one topology
PARALLELISM = (1, 2)
# the monks workload's coordinate search, and the whole product of its ranges, whose
# trials differ from the first in several attributes at once
SEARCHES = {"": False, " exhaustive": True}


def parallelism_runs(root: Path, tiny: bool = False) -> list[tuple[str, bytes, int]]:
    """(output name, bytes, exit code) of ``search --out`` on the monks workload's spec at each PARALLELISM.

    Each of SEARCHES runs at every PARALLELISM, the coordinate search first.
    The workloads' own searches run at ``min(2, os.cpu_count())``, so a
    one-CPU host never starts a worker thread there; these take both paths
    on any host where the compiled sweep loads. Stdout and the trial log
    are digested.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp) / "monks"
        raw = json.loads(workloads.setup("monks", root, work, SEEDS[0], tiny).search_spec.read_text(encoding="utf-8"))
        for name, exhaustive in SEARCHES.items():
            for parallelism in PARALLELISM:
                stem = f"search{name.replace(' ', '-')}-{parallelism}"
                spec, log = work / f"{stem}.json", work / f"{stem}.log.json"
                doc = {**raw, "parallelism": parallelism, **({"exhaustive": True} if exhaustive else {})}
                spec.write_text(json.dumps(doc), encoding="utf-8")
                out, _, code = run_cli(root, ["search", "--spec", str(spec), "--out", str(log)])
                runs.append((f"parallelism {parallelism} monks{name} search stdout", out, code))
                runs.append((f"parallelism {parallelism} monks{name} search log", log.read_bytes(), code))
    return runs


def benchmark_digest(root: Path) -> str:
    out, _, code = run_cli(root, ["benchmark", "--suite", str(root / "benchmarks" / "suite.json"), "--format", "machine"])
    out = re.sub(rb"(?m)^[^\n]*\.train_seconds=[^\n]*\n", b"", out)
    return digest_line("suite benchmark machine", out, code, {root: "<checkout>"})


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve() if argv else HERE
    for name in workloads.NAMES:
        for seed in SEEDS[:1] if name == "monks" else SEEDS:
            for line in workload_digests(root, name, seed):
                print(line, flush=True)
    print(benchmark_digest(root))
    for label, data, code in error_runs(root) + predict_runs(root) + monks_copy_runs(root) + data_form_runs(root):
        print(digest_line(label, data, code, {}))
    by_parallelism = parallelism_runs(root)
    for label, data, code in by_parallelism:
        print(digest_line(label, data, code, {}))
    # a search prints and logs the same bytes at any parallelism
    differ = 0
    for i, name in enumerate(SEARCHES):
        serial, parallel = (by_parallelism[j : j + 2] for j in (4 * i, 4 * i + 2))
        if [(data, code) for _, data, code in serial] != [(data, code) for _, data, code in parallel]:
            print(f"monks{name} search outputs differ between parallelism {PARALLELISM[0]} and {PARALLELISM[1]}",
                  file=sys.stderr)
            differ = 1
    return differ


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
