"""Model scoring reports and the reproducibility benchmark harness.

``evaluate`` turns a model plus a labeled dataset into a Report: counts,
accuracy, confusion matrix, per-class correct counts, tie count.
``training_report`` builds the same Report for the training set from the
scores training ended with, through the same winner and tally steps. The
benchmark harness runs a suite of train-and-evaluate experiments
described in a JSON file and checks each metric against declared bounds,
so published results stay pinned by executable checks.
"""

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boosting import Model, TrainConfig, train_with_scores, winners_of
from .dataset import (
    DataFiles,
    Dataset,
    ParseOptions,
    Schema,
    SchemaError,
    json_data_files,
    json_entry,
    json_keys,
    json_parse_options,
    json_value,
    load_schema,
)
from .inference import predict_batch


@dataclass(frozen=True)
class Report:
    """Outcome of scoring one dataset: counts, accuracy, confusion matrix.

    ``confusion[i, j]`` counts examples of true class i predicted as class
    j; rows are true classes. ``per_class_correct`` is its diagonal.
    """

    n_examples: int
    n_correct: int
    accuracy: float
    confusion: np.ndarray
    per_class_correct: tuple[int, ...]
    tie_count: int
    class_labels: tuple[str, ...]


def _check_schemas(model: Model, data: Dataset) -> None:
    if data.schema == model.schema:
        return
    a, b = model.schema, data.schema
    if a.n_attributes != b.n_attributes:
        raise SchemaError(
            f"model expects {a.n_attributes} attributes, data has {b.n_attributes}"
        )
    for mine, theirs in zip(a.attributes, b.attributes):
        if mine != theirs:
            raise SchemaError(f"attribute {mine.name!r} differs between model and data")
    raise SchemaError(f"classes differ between model {a.classes} and data {b.classes}")


def _tally(schema: Schema, labels: np.ndarray, winners: np.ndarray, ties: np.ndarray) -> Report:
    """The Report of predicted ``winners`` and tie flags against true ``labels``."""
    k = schema.n_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, winners), 1)
    n = len(labels)
    n_correct = int(np.trace(confusion))
    return Report(
        n_examples=n,
        n_correct=n_correct,
        accuracy=100.0 * n_correct / n,
        confusion=confusion,
        per_class_correct=tuple(int(c) for c in np.diag(confusion)),
        tie_count=int(np.count_nonzero(ties)),
        class_labels=schema.classes,
    )


def evaluate(model: Model, data: Dataset) -> Report:
    """Score every example and tally the outcome."""
    if len(data) == 0:
        raise ValueError("dataset is empty")
    _check_schemas(model, data)
    return _tally(model.schema, data.labels(), *predict_batch(model, data.value_matrix()))


def training_report(model: Model, trainset: Dataset, log_scores: np.ndarray) -> Report:
    """The Report of ``trainset`` from the log scores training ended with.

    ``log_scores`` are the third item of :func:`train_with_scores`. They
    are the scores :func:`evaluate` computes for the same model and rows,
    and pass through the same winner and tally steps, so the report equals
    ``evaluate(model, trainset)`` without scoring the rows again.
    """
    return _tally(model.schema, trainset.labels(), *winners_of(log_scores))


def format_percent(value: float) -> str:
    """Two decimals with trailing zeros trimmed: 96.99 stays, 100.00 -> 100."""
    return f"{value:.2f}".rstrip("0").rstrip(".")


def correct_line(report: Report) -> str:
    """Per-class correct counts and accuracy, e.g. ``214, 205 : 96.99 %``."""
    counts = ", ".join(str(c) for c in report.per_class_correct)
    return f"{counts} : {format_percent(report.accuracy)} %"


def render_report_text(report: Report) -> str:
    # wide enough for the longest label or count, so no two columns touch
    width = max(len(text) for text in (*report.class_labels, *map(str, report.confusion.flat))) + 2
    lines = [
        f"examples: {report.n_examples}",
        f"correct: {report.n_correct} ({format_percent(report.accuracy)} %)",
        f"per-class correct: {correct_line(report)}",
        f"ties: {report.tie_count}",
        "confusion (rows true, columns predicted):",
        " " * width + "".join(f"{label:>{width}}" for label in report.class_labels),
    ]
    for i, label in enumerate(report.class_labels):
        row = "".join(f"{int(c):>{width}}" for c in report.confusion[i])
        lines.append(f"{label:<{width}}" + row)
    return "\n".join(lines)


def render_report_machine(report: Report) -> str:
    confusion = ";".join(",".join(str(int(c)) for c in row) for row in report.confusion)
    lines = [
        f"n={report.n_examples}",
        f"correct={report.n_correct}",
        f"accuracy={report.accuracy:.2f}",
        f"tie_count={report.tie_count}",
        "per_class_correct=" + ",".join(str(c) for c in report.per_class_correct),
        f"confusion={confusion}",
    ]
    return "\n".join(lines)


# the metrics run_experiment reports for an entry that ran
METRICS = ("train_accuracy", "test_accuracy", "epochs", "converged", "train_seconds", "n_train", "n_test")


@dataclass(frozen=True)
class MetricCheck:
    """Closed bound on one numeric metric; either side may be open."""

    metric: str
    min: float | None = None
    max: float | None = None

    def passes(self, value: float) -> bool:
        if self.min is not None and value < self.min:
            return False
        if self.max is not None and value > self.max:
            return False
        return True

    def describe(self) -> str:
        lo = "-inf" if self.min is None else format_percent(self.min)
        hi = "+inf" if self.max is None else format_percent(self.max)
        return f"{self.metric} in [{lo}, {hi}]"


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark entry: data files + parse layout + training knobs + checks.

    ``files`` is one file to split or a train and a test file. Every check names one of ``METRICS``.
    """

    name: str
    schema: str
    files: DataFiles
    bins: object = None
    alpha: float = 2.0
    max_rounds: int = 500
    parse: ParseOptions = field(default_factory=ParseOptions)
    checks: tuple[MetricCheck, ...] = ()
    fetch_hint: str | None = None

    def __post_init__(self):
        for check in self.checks:
            if check.metric not in METRICS:
                raise ValueError(f"experiment {self.name!r}: no metric {check.metric!r} to check")


@dataclass(frozen=True)
class Suite:
    experiments: tuple[ExperimentSpec, ...]
    base_dir: Path
    data_dir: str = "."


@dataclass(frozen=True)
class EntryResult:
    name: str
    status: str  # pass | fail | missing_data | error
    metrics: dict
    checks: tuple[tuple[MetricCheck, bool], ...]
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "pass"


@dataclass(frozen=True)
class SuiteReport:
    entries: tuple[EntryResult, ...]

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)


_ENTRY_KEYS = (
    "name", "schema", "bins", "alpha", "max_rounds", "data", "split", "train", "test",
    "parse", "checks", "fetch_hint",
)


def load_suite(path: str | Path) -> Suite:
    """Load a benchmark suite description from JSON.

    The suite is an object whose ``"experiments"`` list holds one object
    per entry; each entry needs a ``"name"`` and a ``"schema"``, and every
    key it gives must be one it knows, of its JSON kind (README
    "Benchmarks"). A wrong kind, a missing key or an unknown one is a
    ValueError naming the entry, raised before any entry runs. Values are
    checked where they are used, when the entry runs, so a ``"bins": 2.5``
    or an ``"alpha": Infinity`` is that entry's error.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        raw = json_value("suite", json.load(fh), "a JSON object")
    entries = json_entry("suite", raw, "experiments", "a JSON list")
    data_dir = json_entry("suite", raw, "data_dir", "a string", default=".")
    json_keys("suite", raw, ("experiments", "data_dir"))
    experiments = []
    for i, entry in enumerate(entries, start=1):
        json_value(f"suite entry {i}", entry, "a JSON object")
        name = json_entry(f"suite entry {i}", entry, "name", "a string")
        doc = f'suite entry "{name}"'
        checks = []
        for j, check in enumerate(json_entry(doc, entry, "checks", "a JSON list", default=[]), start=1):
            check_doc = f"{doc} check {j}"
            json_value(check_doc, check, "a JSON object")
            checks.append(
                MetricCheck(
                    json_entry(check_doc, check, "metric", "a string"),
                    json_entry(check_doc, check, "min", "a number", "null", default=None),
                    json_entry(check_doc, check, "max", "a number", "null", default=None),
                )
            )
            json_keys(check_doc, check, ("metric", "min", "max"))
        spec = dict(
            name=name,
            schema=json_entry(doc, entry, "schema", "a string"),
            files=json_data_files(doc, entry, "test", split="split"),
            # any number: resolve_topology refuses a fractional count
            bins=json_entry(doc, entry, "bins", "a number", "a JSON list", "a JSON object", "null", default=None),
            alpha=json_entry(doc, entry, "alpha", "a number", default=2.0),
            max_rounds=json_entry(doc, entry, "max_rounds", "an integer", default=500),
            parse=json_parse_options(doc, entry),
            checks=tuple(checks),
            fetch_hint=json_entry(doc, entry, "fetch_hint", "a string", "null", default=None),
        )
        json_keys(doc, entry, _ENTRY_KEYS)
        experiments.append(ExperimentSpec(**spec))
    return Suite(tuple(experiments), path.parent, data_dir)


def resolve_data_dir(suite: Suite, override: str | None = None) -> Path:
    """Data root: explicit override, then DIFFNB_DATA, then the suite's own."""
    if override:
        return Path(override)
    env = os.environ.get("DIFFNB_DATA")
    if env:
        return Path(env)
    return suite.base_dir / suite.data_dir


def run_experiment(spec: ExperimentSpec, data_root: Path, schema_root: Path) -> EntryResult:
    """Train and evaluate one benchmark entry against its checks."""
    try:
        schema_path = schema_root / spec.schema
        missing = [str(p) for p in (schema_path, *spec.files.paths(data_root)) if not p.exists()]
        if missing:
            hint = f" ({spec.fetch_hint})" if spec.fetch_hint else ""
            return EntryResult(spec.name, "missing_data", {}, (), f"missing: {', '.join(missing)}{hint}")
        trainset, testset = spec.files.load(data_root, load_schema(schema_path), spec.parse)
        config = TrainConfig(alpha=spec.alpha, max_rounds=spec.max_rounds, topology=spec.bins)
        started = time.perf_counter()
        model, trace, train_logs = train_with_scores(trainset, config)
        train_seconds = time.perf_counter() - started
        train_report = training_report(model, trainset, train_logs)
        test_report = evaluate(model, testset)
        metrics = {
            "train_accuracy": train_report.accuracy,
            "test_accuracy": test_report.accuracy,
            "epochs": trace.epochs,
            "converged": int(trace.converged),
            "train_seconds": train_seconds,
            "n_train": len(trainset),
            "n_test": len(testset),
        }
        outcomes = tuple((c, c.passes(metrics[c.metric])) for c in spec.checks)
        status = "pass" if all(ok for _, ok in outcomes) else "fail"
        return EntryResult(spec.name, status, metrics, outcomes)
    except Exception as err:  # entry failures must not kill the suite
        return EntryResult(spec.name, "error", {}, (), f"{type(err).__name__}: {err}")


def run_benchmark(suite: Suite, data_dir: str | None = None) -> SuiteReport:
    """Run every experiment in the suite, in suite order, one at a time.

    Entries are independent: missing data files or crashes mark their
    entry failed and the suite carries on. Entries run in this process;
    threads would only take turns on the interpreter lock.
    """
    data_root = resolve_data_dir(suite, data_dir)
    return SuiteReport(tuple(run_experiment(spec, data_root, suite.base_dir) for spec in suite.experiments))


def render_entry_text(entry: EntryResult) -> str:
    if entry.status in ("missing_data", "error"):
        return f"{entry.name}: {entry.status.upper()} {entry.message}"
    parts = [
        f"train {format_percent(entry.metrics['train_accuracy'])} %",
        f"test {format_percent(entry.metrics['test_accuracy'])} %",
        f"{entry.metrics['epochs']} epochs",
        f"{entry.metrics['train_seconds']:.2f} s",
    ]
    n_pass = sum(1 for _, ok in entry.checks if ok)
    line = f"{entry.name}: {entry.status.upper()} ({', '.join(parts)}) checks {n_pass}/{len(entry.checks)}"
    failed = [c.describe() + f" got {format_percent(float(entry.metrics[c.metric]))}"
              for c, ok in entry.checks if not ok]
    if failed:
        line += "\n  failed: " + "; ".join(failed)
    return line


def render_suite_text(report: SuiteReport) -> str:
    lines = [render_entry_text(e) for e in report.entries]
    n_ok = sum(1 for e in report.entries if e.ok)
    lines.append(f"suite: {n_ok}/{len(report.entries)} passed")
    return "\n".join(lines)


def render_suite_machine(report: SuiteReport) -> str:
    lines = []
    for e in report.entries:
        lines.append(f"{e.name}.status={e.status}")
        if e.message:
            lines.append(f"{e.name}.message={e.message}")
        for key in sorted(e.metrics):
            value = e.metrics[key]
            text = f"{value:.2f}" if isinstance(value, float) else str(value)
            lines.append(f"{e.name}.{key}={text}")
    lines.append(f"suite.ok={int(report.ok)}")
    return "\n".join(lines)
