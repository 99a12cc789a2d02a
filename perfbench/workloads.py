"""The benchmark's three workloads: the files each one writes and its CLI jobs.

Every workload runs the same user jobs (train, evaluate, predict, search,
and a stream of single-row posteriors); they differ in the data shape,
which decides the layer that dominates:

- ``monks``: the shipped Monk's files as in the README quick start.
  Start-up, parsing and model-file I/O dominate; monks-2 and monks-3 run
  500 epochs that never converge, exposing the sweep's cost per miss.
- ``train-heavy``: many rows with flipped labels and an epoch cap, so the
  training sweep (O(n) work per miss today) dominates ``train``.
- ``search``: a coordinate search over bin counts with ``parallelism``
  set in the spec file, the one workload where ``topology`` dominates.
"""

import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import synth

MONKS_ACCURACY = {1: "98.84", 2: "67.13", 3: "94.91"}
MONKS_EPOCHS = {1: 4, 2: 500, 3: 500}

# n_* are row counts; epochs is the train job's --max-rounds cap.
SHAPES = {
    "train-heavy": dict(
        m=20, k=3, bins=8, flip=0.05, n_train=10000, n_test=10000, n_rows=400, epochs=3,
        # one swept attribute: its winner is always a trial already run, so
        # every seed runs the same 5 trials (two swept attributes ran 5 or 6)
        search=dict(n_train=1000, n_val=500, ranges={"a0": [4, 6, 8, 10, 12]}, epochs=3),
    ),
    "search": dict(
        m=6, k=3, bins=5, flip=0.05, n_train=1500, n_test=1000, n_rows=400, epochs=2,
        search=dict(ranges={f"a{j}": list(range(3, 11)) for j in range(6)}, epochs=2),
    ),
}
MONKS_SEARCH = dict(ranges={"a1": [2, 3, 4, 5], "a2": [2, 3, 4, 5], "a5": [2, 3, 4, 5]}, epochs=20)


@dataclass
class Job:
    """One train -> evaluate -> predict chain, as a user would type it."""

    name: str
    schema: Path
    train: Path
    test: Path
    rows: Path  # unlabeled rows for predict
    model: Path
    row_values: list  # the predicted rows, as value tuples
    bins: int
    max_rounds: int
    label_col: int = -1
    ignore_cols: tuple[int, ...] = ()
    predict_ignore: tuple[int, ...] = ()
    expect_epochs: int | None = None
    expect_accuracy: str | None = None

    def parse_flags(self) -> list[str]:
        flags = ["--label-col", str(self.label_col)]
        if self.ignore_cols:
            flags += ["--ignore-cols", ",".join(map(str, self.ignore_cols))]
        return flags

    def train_argv(self) -> list[str]:
        return ["train", "--data", str(self.train), "--schema", str(self.schema),
                "--bins", str(self.bins), "--max-rounds", str(self.max_rounds),
                "--out", str(self.model), *self.parse_flags()]

    def evaluate_argv(self) -> list[str]:
        return ["evaluate", "--model", str(self.model), "--data", str(self.test),
                "--format", "machine", *self.parse_flags()]

    def predict_argv(self) -> list[str]:
        argv = ["predict", "--model", str(self.model), "--data", str(self.rows)]
        if self.predict_ignore:
            argv += ["--ignore-cols", ",".join(map(str, self.predict_ignore))]
        return argv


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    search_spec: Path
    shape: dict


def shrink(shape: dict) -> dict:
    """A tenth of the rows and at most two epochs: the smoke check's shape."""
    small = {key: (max(60, value // 10) if key.startswith("n_") else value) for key, value in shape.items()}
    small["epochs"] = min(2, shape["epochs"])
    if "search" in shape:
        search = shrink(shape["search"])
        search["ranges"] = {name: r[:2] for name, r in list(search["ranges"].items())[:2]}
        small["search"] = search
    return small


def search_doc(schema: str, train: str, validation: str, search: dict, baseline: int, parse: dict) -> dict:
    return {
        "schema": schema,
        "train": train,
        "validation": validation,
        "parse": parse,
        "ranges": search["ranges"],
        "baseline_bins": baseline,
        "max_rounds": search["epochs"],
        "budget": 64,
        # set here, not through --parallel, so the flag stays free to change
        "parallelism": min(2, os.cpu_count() or 1),
    }


def setup_monks(root: Path, work: Path, tiny: bool) -> Workload:
    """Copy the shipped Monk's files; no seed changes them."""
    schema = work / "monks.schema.json"
    shutil.copyfile(root / "benchmarks" / "schemas" / "monks.schema.json", schema)
    jobs = []
    for p in (1, 2, 3):
        train, test = work / f"monks-{p}.train", work / f"monks-{p}.test"
        shutil.copyfile(root / "data" / train.name, train)
        shutil.copyfile(root / "data" / test.name, test)
        rows = [tuple(float(v) for v in line.split()[1:7]) for line in test.read_text().splitlines() if line.strip()]
        jobs.append(Job(
            name=f"monks-{p}", schema=schema, train=train, test=test, rows=test,
            model=work / f"monks-{p}.model.json", row_values=rows, bins=4, max_rounds=500,
            label_col=0, ignore_cols=(7,), predict_ignore=(0, 7),
            expect_epochs=MONKS_EPOCHS[p], expect_accuracy=MONKS_ACCURACY[p],
        ))
    search = dict(MONKS_SEARCH, epochs=2) if tiny else MONKS_SEARCH
    spec = work / "search.json"
    synth.write_json(spec, search_doc(schema.name, "monks-1.train", "monks-1.test", search, 4,
                                      {"label_col": 0, "ignore_cols": [7]}))
    shape = dict(problems=[1, 2, 3], m=6, k=2, bins=4, n_train=[124, 169, 122], n_test=432, search=search)
    return Workload("monks", jobs, spec, shape)


def setup_synthetic(name: str, work: Path, seed: int, tiny: bool) -> Workload:
    """Write the workload's tables from ``seed``; streams keep tables apart."""
    shape = shrink(SHAPES[name]) if tiny else SHAPES[name]
    m, k, flip, search = shape["m"], shape["k"], shape["flip"], shape["search"]
    schema = work / "schema.json"
    synth.write_json(schema, synth.schema_doc(m, k))
    train_v, train_l = synth.make_table(seed, 1, shape["n_train"], m, k, flip)
    test_v, test_l = synth.make_table(seed, 2, shape["n_test"], m, k, flip)
    rows_text = synth.table_text(test_v[: shape["n_rows"]], None)
    job = Job(
        name=name, schema=schema, train=work / "train.data", test=work / "test.data",
        rows=work / "rows.data", model=work / "model.json",
        row_values=[tuple(float(v) for v in line.split()) for line in rows_text.splitlines()],
        bins=shape["bins"], max_rounds=shape["epochs"],
    )
    synth.write_table(job.train, train_v, train_l)
    synth.write_table(job.test, test_v, test_l)
    job.rows.write_text(rows_text, encoding="utf-8")
    if "n_train" in search:
        synth.write_table(work / "search.train", *synth.make_table(seed, 3, search["n_train"], m, k, flip))
        synth.write_table(work / "search.val", *synth.make_table(seed, 4, search["n_val"], m, k, flip))
        files = ("search.train", "search.val")
    else:
        files = (job.train.name, job.test.name)
    spec = work / "search.json"
    synth.write_json(spec, search_doc(schema.name, *files, search, shape["bins"], {}))
    return Workload(name, [job], spec, shape)


NAMES = ("monks", "train-heavy", "search")


def setup(name: str, root: Path, work: Path, seed: int, tiny: bool) -> Workload:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    if name == "monks":
        return setup_monks(root, work, tiny)
    return setup_synthetic(name, work, seed, tiny)
