"""One SHA-256 per diffnb output on the benchmark's workloads, to diff two checkouts.

    python3 scripts/output_digest.py [CHECKOUT] > digests.txt

Generates the three workloads of ``perfbench/workloads.py`` (imported
read-only) into a temporary directory: ``monks`` once, as it reads the
shipped files whatever the seed, and ``train-heavy`` and ``search`` for
seeds 0-2. On each it runs CHECKOUT's ``diffnb`` (``CHECKOUT/src`` on the
path; by default the checkout holding this script) as a user would:
``train``, ``evaluate`` and ``predict`` for every job, then ``search
--out``. It also runs ``benchmark --format machine`` on CHECKOUT's shipped
suite, dropping the ``train_seconds`` lines, which are wall times.

Each output prints as one line, ``<workload> <job> <output> <sha256>
exit=<code>``. The temporary directory and CHECKOUT's path are replaced
by placeholders before hashing, so two checkouts whose outputs are byte
for byte the same print the same lines:

    python3 scripts/output_digest.py > new.txt
    python3 scripts/output_digest.py ../parent-checkout > old.txt
    diff old.txt new.txt
"""

import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))

import workloads  # noqa: E402  (perfbench is not a package)

SEEDS = (0, 1, 2)


def run_cli(root: Path, argv: list[str]) -> tuple[bytes, int]:
    """stdout and exit code of ``diffnb`` from ``root``'s sources."""
    env = {k: v for k, v in os.environ.items() if k != "DIFFNB_DATA"}
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "diffnb.cli", *argv], env=env, capture_output=True, timeout=600
    )
    return proc.stdout, proc.returncode


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
            ):
                out, code = run_cli(root, argv)
                lines.append(digest_line(f"{label} {job.name} {kind}", out, code, paths))
                if kind == "train":
                    lines.append(digest_line(f"{label} {job.name} model", job.model.read_bytes(), code, paths))
        log = work / "search.log.json"
        out, code = run_cli(root, ["search", "--spec", str(w.search_spec), "--out", str(log)])
        lines.append(digest_line(f"{label} search stdout", out, code, paths))
        lines.append(digest_line(f"{label} search log", log.read_bytes(), code, paths))
    return lines


def benchmark_digest(root: Path) -> str:
    out, code = run_cli(root, ["benchmark", "--suite", str(root / "benchmarks" / "suite.json"), "--format", "machine"])
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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
