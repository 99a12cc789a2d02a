"""Smoke test of scripts/output_digest.py on the smoke check's tiny search workload."""

import importlib.util
import re
from pathlib import Path

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
        "search seed=0 search stdout",
        "search seed=0 search log",
    ]
    assert all(re.fullmatch(r".* [0-9a-f]{64} exit=0", line) for line in first)
    # a second run writes to another temporary directory, which train's
    # "model written to" line names; the digests must not see it
    assert script.workload_digests(ROOT, "search", 0, tiny=True) == first
