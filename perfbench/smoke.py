"""Smoke check of the benchmark itself, on tiny inputs; run from a checkout root:

    python3 perfbench/smoke.py

For every workload and both trace modes it runs ``run.py --tiny`` and
checks that the result line names exactly the metrics BENCHMARK.json
declares, each with its declared unit, and that no operation failed. It
also checks that the generator is byte-for-byte repeatable and that the
benchmark refuses to run without the package's sources. Exits 1 on any
failure.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import synth
import workloads

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
SCRATCH = ROOT / ".bench_work" / "smoke"


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_metrics(declared: list[dict], workload: str, trace: int) -> list[str]:
    proc = run_bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}: {proc.stderr.strip()}")
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        problems.append(f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{label}: {name} is not a number")
    return problems


def check_generator() -> list[str]:
    first = synth.table_text(*synth.make_table(7, 1, 50, 4, 3, 0.1))
    again = synth.table_text(*synth.make_table(7, 1, 50, 4, 3, 0.1))
    other = synth.table_text(*synth.make_table(8, 1, 50, 4, 3, 0.1))
    problems = []
    if first != again:
        problems.append("generator: the same seed gave different bytes")
    if first == other:
        problems.append("generator: different seeds gave the same bytes")
    values, labels = synth.make_table(7, 1, 2000, 4, 3, 0.0)
    if not np.array_equal(labels, np.argmax(values @ synth.labelling_map(4, 3), axis=1)):
        problems.append("generator: unflipped labels are not the linear argmax")
    return problems


def check_refuses_bare_directory() -> list[str]:
    """In a directory holding only BENCHMARK.json and this directory, exit non-zero, print no result."""
    bare = SCRATCH / "bare"
    if bare.exists():
        shutil.rmtree(bare)
    bare.mkdir(parents=True)
    shutil.copyfile(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, "--workload", "monks", "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit code {proc.returncode}, stdout {proc.stdout.strip()!r}"]
    return []


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_generator() + check_refuses_bare_directory()
    for workload in workloads.NAMES:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems += check_metrics(declared[key], workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
