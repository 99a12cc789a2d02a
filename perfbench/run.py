"""Benchmark of diffnb: the CLI jobs end to end, and each layer traced.

Run from the root of a diffnb checkout:

    python3 perfbench/run.py --workload monks --seed 0 --seconds 40 --trace 0

``--trace 0`` runs the workload's jobs as ``python -m diffnb.cli``
subprocesses (``src`` on the path) in a closed loop, one command at a
time, until ``--seconds`` is spent, plus a stream of in-process
single-row ``posterior`` calls, and reports the end-to-end metrics, each
as a ratio to fixed yardstick work run next to it (see run_end_to_end).
``--trace 1`` runs the jobs once through the CLI for the cross-checks,
then calls each layer's public functions in this process, untraced and
traced in turn, and reports per-layer self times, counts and memory.

Every output is checked; an operation fails on a non-zero exit or a
failed check. The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Everything is
written under ``.bench_work/`` in the checkout, including the spans of
the traced run and a result file that records the environment.
"""

import argparse
import itertools
import json
import math
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer

ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
EXPECTED = Path(__file__).resolve().parent / "expected.json"
SETUP_BLOCK_S = 0.2  # a timed set-up repeats for at least this long
SETUP_EVERY_S = 4.0
MIN_RUNS = 4  # rounds of every command in order before the least-time-first steps
# Fixed work outside diffnb that times are scaled by (see run_end_to_end).
# The yardstick process starts Python and imports numpy, as every CLI
# command does, then times a pure-Python loop (a spin) and prints its
# seconds; the in-process spin is a shorter loop. The *_S values are their
# wall times on a quiet host: the reference the metrics are scaled to.
YARDSTICK = (
    "import time, numpy; t = time.perf_counter(); sum(i * i for i in range(300000)); print(time.perf_counter() - t)"
)
YARDSTICK_START_S = 0.15
YARDSTICK_SPIN_S = 0.02
SPIN_N = 20000
SPIN_S = 0.0015
STARTUP_REPEATS = 5
POSTERIOR_WARMUP = 100
POSTERIOR_BLOCK = 20  # calls timed together
POSTERIOR_BLOCKS_PER_STEP = 3
POSTERIOR_CALLS = 1000  # per job in a traced pass (its p99 has 10 calls beyond it)

END_TO_END = {
    "setup_s": "s",
    "cli_train_s": "s",
    "cli_evaluate_s": "s",
    "cli_predict_s": "s",
    "search_s": "s",
    "posterior_us": "us",
    "peak_rss_mb": "MB",
}
METRIC_OF = {"train": "cli_train_s", "evaluate": "cli_evaluate_s", "predict": "cli_predict_s", "search": "search_s"}
PER_LAYER = {
    "cli.startup_s": "s",
    "dataset.parse_table_s": "s",
    "dataset.parse_rows_per_s": "1/s",
    "dataset.value_matrix_s": "s",
    "density.fit_s": "s",
    "density.likelihood_logs_s": "s",
    "density.likelihood_rows_per_s": "1/s",
    "boosting.build_s": "s",
    "boosting.epoch_s": "s",
    "boosting.epochs": "count",
    "boosting.misses": "count",
    "boosting.us_per_miss": "us",
    "inference.predict_batch_s": "s",
    "inference.predict_batch_rows_per_s": "1/s",
    "inference.rss_growth_mb": "MB",
    "inference.posterior_us": "us",
    "inference.posterior_p50_us": "us",
    "inference.posterior_p99_us": "us",
    "evaluation.evaluate_self_s": "s",
    "modelfile.save_s": "s",
    "modelfile.load_s": "s",
    "modelfile.bytes": "bytes",
    "topology.trials": "count",
    "topology.trial_s": "s",
    "topology.parallel_speedup": "ratio",
    "trace.overhead_s": "s",
}

CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p),
)


def missing_inputs() -> list[str]:
    needed = [ROOT / "src" / "diffnb" / "cli.py", ROOT / "benchmarks" / "schemas" / "monks.schema.json"]
    needed += [ROOT / "data" / f"monks-{p}.{part}" for p in (1, 2, 3) for part in ("train", "test")]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


@dataclass
class CliRun:
    seconds: float
    rss_mb: float
    code: int
    out: str


def run_cli(argv: list[str], log: Path) -> CliRun:
    """One Python child process: its wall time, its own peak RSS, its output."""
    out_path, err_path = log.with_name(log.name + ".out"), log.with_name(log.name + ".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(seconds, usage.ru_maxrss / 1024.0, proc.returncode, out_path.read_text())


def diffnb(argv: list[str], log: Path) -> CliRun:
    return run_cli(["-m", "diffnb.cli", *argv], log)


@dataclass
class Yardstick:
    start_s: float  # the process's wall time without its spin: start-up, numpy's import, exit
    spin_s: float


def yardstick(logs: Path) -> Yardstick:
    run = run_cli(["-c", YARDSTICK], logs / "yardstick")
    if run.code != 0:
        raise RuntimeError(f"the yardstick exited with code {run.code}")
    spin_s = float(run.out)
    return Yardstick(run.seconds - spin_s, spin_s)


def spin() -> float:
    """Wall time of the in-process yardstick."""
    start = time.perf_counter()
    sum(i * i for i in range(SPIN_N))
    return time.perf_counter() - start


class Checks:
    """Tally of operations attempted and failed; failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)


def miss_counts(text: str) -> list[int]:
    return [int(c) for c in re.findall(r"^epoch \d+: (\d+) misses$", text, re.M)]


def field_of(text: str, pattern: str) -> str | None:
    found = re.search(pattern, text, re.M)
    return found.group(1) if found else None


def search_outcome(text: str) -> dict:
    trials = field_of(text, r"^trials: (\d+)")
    return {"trials": None if trials is None else int(trials), "best": field_of(text, r"^best topology: (\S+)$")}


def compare(problems: list[str], what: str, got, want) -> None:
    if want is not None and got != want:
        problems.append(f"{what} {got!r}, expected {want!r}")


class PosteriorStream:
    """Single-row ``posterior`` calls in this process on one job's predicted rows."""

    def __init__(self, job: workloads.Job):
        from diffnb.inference import posterior
        from diffnb.modelfile import load_model

        self.job = job
        self.posterior = posterior
        self.model = load_model(job.model)
        self.calls = 0
        self.winners: dict[int, int] = {}  # row index -> winner, for the check against predict
        for i in range(POSTERIOR_WARMUP):
            posterior(self.model, job.row_values[i % len(job.row_values)])

    def run(self, blocks: int) -> list[float]:
        """Blocks of POSTERIOR_BLOCK calls on the next rows, with a spin between each two.

        Returns, per block, its wall time over the mean of the spins on
        either side of it, a few milliseconds away.
        """
        rows = self.job.row_values
        ratios = []
        before = spin()
        for _ in range(blocks):
            start = time.perf_counter()
            for _ in range(POSTERIOR_BLOCK):
                i = self.calls % len(rows)
                self.winners[i] = self.posterior(self.model, rows[i]).winner
                self.calls += 1
            seconds = time.perf_counter() - start
            after = spin()
            ratios.append(seconds / ((before + after) / 2))
            before = after
        return ratios

    def problems(self, predicted: list[str]) -> list[str]:
        classes = self.model.schema.classes
        wrong = [i for i, w in self.winners.items() if i >= len(predicted) or classes[w] != predicted[i]]
        return [f"posterior winners differ from predict on {len(wrong)} rows"] if wrong else []


class Bench:
    """The workload's CLI commands; each run is timed and its output checked."""

    def __init__(self, w: workloads.Workload, expected: dict):
        self.w = w
        self.expected = expected
        self.checks = Checks()
        self.first: dict = {}  # (command, job) -> what its first run's output said; later runs must equal it
        self.seconds = defaultdict(list)  # (command, job) -> wall seconds of each run
        self.rss_mb = defaultdict(list)
        self.logs = WORK / w.name / "logs"
        self.logs.mkdir(exist_ok=True)
        self.commands = [(kind, job.name) for job in w.jobs for kind in ("train", "evaluate", "predict")]
        self.commands.append(("search", "search"))
        self._jobs = {job.name: job for job in w.jobs}

    def observed(self) -> dict:
        """What the first runs' outputs said, in expected.json's layout."""
        return {
            "miss_counts": {job.name: self.first[("train", job.name)] for job in self.w.jobs},
            "accuracy": {
                job.name: field_of(self.first[("evaluate", job.name)], r"^accuracy=(\S+)$") for job in self.w.jobs
            },
            "search": self.first[("search", "search")],
        }

    def run(self, command: tuple[str, str]) -> None:
        kind, name = command
        argv = (["search", "--spec", str(self.w.search_spec)] if kind == "search"
                else getattr(self._jobs[name], f"{kind}_argv")())
        cli = diffnb(argv, self.logs / f"{name}.{kind}")
        self.seconds[command].append(cli.seconds)
        self.rss_mb[command].append(cli.rss_mb)
        problems = [] if cli.code == 0 else [f"exit code {cli.code}"]
        outcome = getattr(self, f"_{kind}")(cli.out, self._jobs.get(name), problems)
        if command in self.first:
            compare(problems, f"{kind} output", outcome, self.first[command])
        else:
            self.first[command] = outcome
        self.checks.op(f"{kind} {name}", problems)

    def round(self) -> None:
        """Every command once, in order: a job's train writes the model its evaluate and predict read."""
        for command in self.commands:
            self.run(command)

    def _train(self, out: str, job: workloads.Job, problems: list[str]) -> list[int]:
        counts = miss_counts(out)
        if job.expect_epochs is not None:
            compare(problems, "epochs", len(counts), job.expect_epochs)
        compare(problems, "miss counts", counts, self.expected.get("miss_counts", {}).get(job.name))
        return counts

    def _evaluate(self, out: str, job: workloads.Job, problems: list[str]) -> str:
        accuracy = field_of(out, r"^accuracy=(\S+)$")
        compare(problems, "accuracy", accuracy, job.expect_accuracy)
        compare(problems, "accuracy", accuracy, self.expected.get("accuracy", {}).get(job.name))
        return out

    def _predict(self, out: str, job: workloads.Job, problems: list[str]) -> list[str]:
        labels = [line.split()[0] for line in out.splitlines() if line.strip()]
        compare(problems, "predicted rows", len(labels), len(job.row_values))
        if any(label.startswith("ERROR") for label in labels):
            problems.append("rows failed")
        if ("predict", job.name) not in self.first:
            # the labels must be the winners evaluate's batch scoring picks
            from diffnb.inference import predict_batch
            from diffnb.modelfile import load_model

            model = load_model(job.model)
            winners, _ = predict_batch(model, np.asarray(job.row_values, dtype=np.float64))
            compare(problems, "labels", labels, [model.schema.classes[i] for i in winners])
        return labels

    def _search(self, out: str, _job: None, problems: list[str]) -> dict:
        outcome = search_outcome(out)
        compare(problems, "search", outcome, self.expected.get("search"))
        return outcome


def run_end_to_end(bench: Bench, seconds: float, timed_setup) -> tuple[dict, dict]:
    """Runs the commands in a closed loop until ``seconds`` are spent.

    The first MIN_RUNS rounds run every command in order. After them each
    step runs the command with the least wall time spent so far, so the
    short commands get many more runs than the long ones. Every step is
    one command, then blocks of posterior calls and, every SETUP_EVERY_S,
    a timed set-up; a yardstick process runs between each two steps.

    Every time is scaled to a quiet host by yardsticks measured in the
    same run, and a metric is the median of the scaled times. The host is
    shared: through stretches of a minute or more, processes on it run up
    to 2x slower, so raw wall times, even the best of a run, moved by more
    than the bounds from run to run. Those stretches slow a process's
    start-up (2x) much more than its computing, so a command is split in
    two. Its start-up, taken as the start-up of the yardstick processes on
    either side of its step, is replaced by YARDSTICK_START_S. The rest is
    scaled by YARDSTICK_SPIN_S over the run's mean spin: a spin is tens of
    milliseconds, in one of the host's sub-second fast or slow spells, so
    only the mean over the run matches a command of seconds. Set-ups are
    scaled by the mean spin alike, and a posterior block by the in-process
    spins on either side of it, a few milliseconds away.
    """
    start = time.perf_counter()
    deadline = start + seconds
    work = defaultdict(list)  # (metric, job) -> wall seconds minus the adjacent yardsticks' start-up
    setups = []
    posterior = []  # block time / adjacent spin time
    last_setup = -math.inf
    stream = None
    steps = []  # the command each step ran; step i ran between yardsticks i and i + 1
    yardsticks = [yardstick(bench.logs)]
    in_order = MIN_RUNS * len(bench.commands)
    for step in itertools.count():
        if step < in_order:
            command = bench.commands[step % len(bench.commands)]
        else:
            command = min(bench.commands, key=lambda c: sum(bench.seconds[c]))
        # after the first round, start a command only if it should end before the deadline
        if step >= len(bench.commands) and time.perf_counter() + statistics.fmean(bench.seconds[command]) > deadline:
            break
        bench.run(command)
        if stream is None:  # the first command trained the model the stream loads
            stream = PosteriorStream(bench.w.jobs[0])
        posterior += stream.run(POSTERIOR_BLOCKS_PER_STEP)
        if time.perf_counter() - last_setup >= SETUP_EVERY_S:
            setups.append(timed_setup())
            last_setup = time.perf_counter()
        steps.append(f"{command[0]} {command[1]}")
        yardsticks.append(yardstick(bench.logs))
        start_s = (yardsticks[-2].start_s + yardsticks[-1].start_s) / 2
        work[(METRIC_OF[command[0]], command[1])].append(bench.seconds[command][-1] - start_s)
    bench.checks.op("posterior stream", stream.problems(bench.first[("predict", stream.job.name)]))

    speed = YARDSTICK_SPIN_S / statistics.fmean(y.spin_s for y in yardsticks)  # < 1 while the host is slow
    metrics = defaultdict(float)  # a monks metric adds up the three problems' medians
    for (name, _), values in work.items():
        metrics[name] += YARDSTICK_START_S + statistics.median(values) * speed
    metrics["setup_s"] = statistics.median(setups) * speed
    metrics["posterior_us"] = statistics.median(posterior) * SPIN_S / POSTERIOR_BLOCK * 1e6
    metrics["peak_rss_mb"] = max(statistics.median(bench.rss_mb[c]) for c in bench.commands)
    samples = {
        "wall_s": round(time.perf_counter() - start, 2),
        "runs": sum(len(bench.seconds[c]) for c in bench.commands),
        "posterior_calls": stream.calls,
        "yardstick_start_s": [round(y.start_s, 4) for y in yardsticks],
        "yardstick_spin_s": [round(y.spin_s, 4) for y in yardsticks],
        "steps": steps,
        "setup_s": [round(x, 5) for x in setups],
        "seconds": {f"{kind} {job}": [round(x, 4) for x in bench.seconds[(kind, job)]]
                    for kind, job in bench.commands},
        "posterior_ratios": [round(x, 3) for x in posterior],
    }
    return metrics, samples


# ---- traced run -------------------------------------------------------------


def _rows(args, result):
    return {"rows": len(result)}


def _input_rows(args, result):
    return {"rows": len(args[1])}


def _misses(args, result):
    return {"misses": int(result)}


def layer_pass(w: workloads.Workload, tracer: Tracer | None) -> dict:
    """The workload's jobs through each layer's public functions, in process.

    With a tracer, spans wrap each call made here, and the layer functions
    that ``train``, ``evaluate`` and ``posterior`` call are instrumented so
    they appear as child spans. Returns what the jobs produced.
    """
    import dataclasses

    from diffnb import boosting, evaluation, inference
    from diffnb.boosting import TrainConfig, train
    from diffnb.dataset import Dataset, ParseOptions, load_schema, parse_table
    from diffnb.evaluation import evaluate
    from diffnb.modelfile import load_model, save_model
    from diffnb.topology import SearchSpec, coordinate_search

    def call(name, fn, *args, note=None):
        if tracer is None:
            return fn(*args)
        return tracer.record(name, fn, *args, note=note)

    if tracer is not None:
        tracer.instrument(Dataset, "value_matrix", "dataset.value_matrix")
        tracer.instrument(boosting, "fit_density", "density.fit_density")
        tracer.instrument(boosting, "likelihood_logs", "density.likelihood_logs", note=_input_rows)
        tracer.instrument(inference, "likelihood_logs", "density.likelihood_logs", note=_input_rows)
        tracer.instrument(boosting.TrainState, "build", "boosting.build")
        tracer.instrument(boosting, "run_epoch", "boosting.run_epoch", note=_misses)
        tracer.instrument(evaluation, "predict_batch", "inference.predict_batch", note=_input_rows,
                          measure_memory=True)
    summary = {"miss_counts": {}, "accuracy": {}, "model_bytes": 0}
    try:
        for job in w.jobs:
            if tracer is not None:
                tracer.request = job.name
            schema = load_schema(job.schema)
            options = ParseOptions(label_col=job.label_col, ignore_cols=job.ignore_cols)
            trainset = call("dataset.parse_table", parse_table, job.train, schema, options, note=_rows)
            config = TrainConfig(max_rounds=job.max_rounds, topology=job.bins)
            model, trace = call("boosting.train", train, trainset, config)
            call("evaluation.evaluate", evaluate, model, trainset)
            path = job.model.with_name(job.model.name + ".inprocess")
            call("modelfile.save_model", save_model, model, path)
            summary["model_bytes"] += path.stat().st_size
            model = call("modelfile.load_model", load_model, path)
            testset = call("dataset.parse_table", parse_table, job.test, schema, options, note=_rows)
            report = call("evaluation.evaluate", evaluate, model, testset)
            for i in range(POSTERIOR_CALLS):
                call("inference.posterior", inference.posterior, model, job.row_values[i % len(job.row_values)])
            summary["miss_counts"][job.name] = list(trace.miss_counts)
            summary["accuracy"][job.name] = f"{report.accuracy:.2f}"

        if tracer is not None:
            tracer.request = "search"
        raw = json.loads(w.search_spec.read_text())
        base = w.search_spec.parent
        schema = load_schema(base / raw["schema"])
        parse = raw["parse"]
        options = ParseOptions(label_col=parse.get("label_col", -1), ignore_cols=tuple(parse.get("ignore_cols", ())))
        trainset = call("dataset.parse_table", parse_table, base / raw["train"], schema, options, note=_rows)
        validation = call("dataset.parse_table", parse_table, base / raw["validation"], schema, options, note=_rows)
        ranges = tuple(
            tuple(raw["ranges"].get(a.name, [raw["baseline_bins"]])) for a in schema.attributes
        )
        spec = SearchSpec(ranges, budget=raw["budget"], parallelism=1, baseline_bins=raw["baseline_bins"])
        config = TrainConfig(max_rounds=raw["max_rounds"])
        for label, parallelism in (("serial", 1), ("parallel", raw["parallelism"])):
            if tracer is not None:
                tracer.muted = True  # the trials' inner layers are not the workload's top-level work
            start = time.perf_counter()
            try:
                result = call("topology.coordinate_search", coordinate_search, trainset, validation,
                              dataclasses.replace(spec, parallelism=parallelism), config)
            finally:
                if tracer is not None:
                    tracer.muted = False
            summary[label] = {
                "seconds": time.perf_counter() - start,
                "trials": len(result.trials),
                "best": "-".join(map(str, result.best_topology)),
            }
    finally:
        if tracer is not None:
            tracer.restore()
    return summary


def layer_metrics(tracer: Tracer, summary: dict) -> dict:
    self_s = tracer.self_seconds()
    spans = defaultdict(list)
    for span in tracer.spans:
        spans[span.name].append(span)

    def total(name):
        return sum(s.seconds for s in spans[name])

    def own(name):
        return sum(self_s[s.id] for s in spans[name])

    def notes(name, key):
        return [s.notes[key] for s in spans[name] if key in s.notes]

    def ratio(a, b):
        return a / b if b else 0.0

    epochs = spans["boosting.run_epoch"]
    misses = sum(notes("boosting.run_epoch", "misses"))
    posterior_cuts = statistics.quantiles(
        [s.seconds * 1e6 for s in spans["inference.posterior"]], n=100, method="inclusive"
    )
    serial, parallel = summary["serial"], summary["parallel"]
    return {
        "dataset.parse_table_s": own("dataset.parse_table"),
        "dataset.parse_rows_per_s": ratio(sum(notes("dataset.parse_table", "rows")), total("dataset.parse_table")),
        "dataset.value_matrix_s": own("dataset.value_matrix"),
        "density.fit_s": own("density.fit_density"),
        "density.likelihood_logs_s": own("density.likelihood_logs"),
        "density.likelihood_rows_per_s": ratio(
            sum(notes("density.likelihood_logs", "rows")), total("density.likelihood_logs")
        ),
        "boosting.build_s": own("boosting.build"),
        "boosting.epoch_s": statistics.median(s.seconds for s in epochs) if epochs else 0.0,
        "boosting.epochs": len(epochs),
        "boosting.misses": misses,
        "boosting.us_per_miss": ratio(total("boosting.run_epoch") * 1e6, misses),
        "inference.predict_batch_s": own("inference.predict_batch"),
        "inference.predict_batch_rows_per_s": ratio(
            sum(notes("inference.predict_batch", "rows")), total("inference.predict_batch")
        ),
        "inference.rss_growth_mb": max(notes("inference.predict_batch", "alloc_peak_bytes"), default=0) / 2**20,
        "inference.posterior_us": ratio(total("inference.posterior") * 1e6, len(spans["inference.posterior"])),
        "inference.posterior_p50_us": posterior_cuts[49],
        "inference.posterior_p99_us": posterior_cuts[98],
        "evaluation.evaluate_self_s": own("evaluation.evaluate"),
        "modelfile.save_s": total("modelfile.save_model"),
        "modelfile.load_s": total("modelfile.load_model"),
        "modelfile.bytes": summary["model_bytes"],
        "topology.trials": serial["trials"],
        "topology.trial_s": ratio(serial["seconds"], serial["trials"]),
        "topology.parallel_speedup": ratio(serial["seconds"], parallel["seconds"]),
    }


def run_traced(bench: Bench, seconds: float) -> tuple[dict, dict]:
    deadline = time.perf_counter() + seconds
    bench.round()
    startup = [
        run_cli(["-c", "import diffnb.cli"], bench.logs / "startup").seconds for _ in range(STARTUP_REPEATS)
    ]
    # a first untraced pass takes the first-use costs (imports, heap growth),
    # so the traced and untraced passes compared below both run warm
    layer_pass(bench.w, None)
    passes = []  # (untraced wall, traced wall, tracer, summary)
    while True:
        tracer = Tracer(bench.w.name)
        start = time.perf_counter()
        summary = layer_pass(bench.w, tracer)
        traced = time.perf_counter() - start
        start = time.perf_counter()
        layer_pass(bench.w, None)
        untraced = time.perf_counter() - start
        passes.append((untraced, traced, tracer, summary))
        if time.perf_counter() + untraced + traced > deadline:
            break

    for untraced, traced, tracer, summary in passes:
        problems = []
        for job in bench.w.jobs:
            compare(problems, f"{job.name} in-process miss counts", summary["miss_counts"][job.name],
                    bench.first[("train", job.name)])
            compare(problems, f"{job.name} in-process accuracy", summary["accuracy"][job.name],
                    field_of(bench.first[("evaluate", job.name)], r"^accuracy=(\S+)$"))
        serial = {key: summary["serial"][key] for key in ("trials", "best")}
        parallel = {key: summary["parallel"][key] for key in ("trials", "best")}
        compare(problems, "parallel in-process search", parallel, serial)
        compare(problems, "CLI search", bench.first[("search", "search")], serial)
        bench.checks.op("traced pass", problems)

    per_pass = [layer_metrics(tracer, summary) for _, _, tracer, summary in passes]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_s"] = statistics.median(traced - untraced for untraced, traced, _, _ in passes)
    trace_file = WORK / bench.w.name / "trace.json"
    trace_file.write_text(
        json.dumps([{"workload": t.workload, "spans": t.spans_json()} for _, _, t, _ in passes]) + "\n"
    )
    samples = {"passes": len(passes), "spans": sum(len(t.spans) for _, _, t, _ in passes),
               "trace_file": str(trace_file.relative_to(ROOT))}
    return metrics, samples


# ---- entry point ------------------------------------------------------------


def environment(w: workloads.Workload, seed: int) -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        cpu = field_of(cpuinfo.read_text(), r"^model name\s*:\s*(.+)$") or cpu
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "workload": w.name,
        "shape": w.shape,
        "seed": seed,
    }


def setup_seconds(name: str, seed: int, tiny: bool) -> float:
    """Mean wall time of one set-up, repeated into a side directory for at least SETUP_BLOCK_S."""
    probe = WORK / name / "setup-probe"
    count, start = 0, time.perf_counter()
    while count == 0 or time.perf_counter() - start < SETUP_BLOCK_S:
        workloads.setup(name, ROOT, probe, seed, tiny)
        count += 1
    return (time.perf_counter() - start) / count


def main(argv=None) -> int:
    recorded = json.loads(EXPECTED.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=recorded["seed"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a tenth of the rows: the smoke check's shape")
    args = parser.parse_args(argv)

    missing = missing_inputs()
    if missing:
        print(f"error: run from the root of a diffnb checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    work = WORK / args.workload
    w = workloads.setup(args.workload, ROOT, work, args.seed, args.tiny)
    expected = recorded["workloads"][w.name] if args.seed == recorded["seed"] and not args.tiny else {}
    bench = Bench(w, expected)
    diffnb(["--help"], bench.logs / "warmup")  # byte-compiles the package and warms the file cache

    if args.trace:
        metrics, samples = run_traced(bench, args.seconds)
        units = PER_LAYER
    else:
        metrics, samples = run_end_to_end(bench, args.seconds, lambda: setup_seconds(w.name, args.seed, args.tiny))
        units = END_TO_END

    env = environment(w, args.seed)
    result = {
        "correct": bench.checks.failed == 0,
        "attempted": bench.checks.attempted,
        "failed": bench.checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / f"result-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "samples": samples, "observed": bench.observed(), **result}, indent=1) + "\n"
    )
    print("env: " + json.dumps(env))
    print("samples: " + json.dumps({key: value for key, value in samples.items() if not isinstance(value, list)}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
