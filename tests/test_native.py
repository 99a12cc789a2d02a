"""Building, caching and loading the compiled library, and training and scoring without it."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from diffnb import native

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the compiled library is built on Linux only"
)

# prints which loops the child loaded, then runs each diffnb command of its
# argument and prints its exit code
CLI_SCRIPT = textwrap.dedent(
    """
    import json
    import sys
    from diffnb import boosting, density, inference
    from diffnb.cli import main
    loaded = {boosting._SWEEP is not None, density._SCORE is not None, inference._LOG_SCORES is not None}
    print({frozenset([True]): "compiled", frozenset([False]): "numpy"}.get(frozenset(loaded), "mixed"), flush=True)
    for argv in json.loads(sys.argv[1]):
        print("exit", main(argv), flush=True)
    """
)

# counts the processes started while diffnb.boosting is imported
RECORD_SCRIPT = textwrap.dedent(
    """
    import subprocess

    started = []

    class Recording(subprocess.Popen):
        def __init__(self, args, *rest, **options):
            started.append(args)
            super().__init__(args, *rest, **options)

    subprocess.Popen = Recording
    from diffnb import boosting
    print(boosting._SWEEP is not None, len(started))
    """
)


def monks2_commands() -> list[list[str]]:
    """Train, evaluate and predict monks-2 as the README does, into ``monks-2.model.json``."""
    parse = ["--label-col", "0", "--ignore-cols", "7"]
    schema = str(ROOT / "benchmarks/schemas/monks.schema.json")
    return [
        ["train", "--data", str(ROOT / "data/monks-2.train"), "--schema", schema, "--bins", "4",
         "--out", "monks-2.model.json", *parse],
        ["evaluate", "--model", "monks-2.model.json", "--data", str(ROOT / "data/monks-2.test"), *parse],
        ["predict", "--model", "monks-2.model.json", "--data", str(ROOT / "data/monks-2.test"),
         "--ignore-cols", "0,7"],
    ]


def wide_commands(work: Path) -> list[list[str]]:
    """Train, evaluate and predict a generated table of 12 attributes and 3 classes, into ``wide.model.json``.

    Scoring sums each class's M likelihood parts in numpy's pairwise order,
    which runs eight running sums from M = 8: monks' 6 attributes never
    reach it. The table is written into ``work``, the same every time.
    """
    m, k = 12, 3
    rng = np.random.default_rng(12)
    values = rng.normal(size=(500, m)) * 10.0 ** rng.integers(-2, 3, size=m)
    labels = np.argmax(values @ rng.normal(size=(m, k)) + rng.normal(size=(500, k)), axis=1)
    schema = {"classes": [f"c{c}" for c in range(k)],
              "attributes": [{"name": f"x{j}", "kind": "continuous"} for j in range(m)]}
    (work / "wide.schema.json").write_text(json.dumps(schema))
    for name, rows in (("wide.train", slice(0, 300)), ("wide.test", slice(300, 500))):
        lines = [" ".join(map(repr, row)) + f" c{c}" for row, c in zip(values[rows].tolist(), labels[rows])]
        (work / name).write_text("\n".join(lines) + "\n")
    return [
        ["train", "--data", "wide.train", "--schema", "wide.schema.json", "--bins", "5",
         "--max-rounds", "20", "--out", "wide.model.json"],
        ["evaluate", "--model", "wide.model.json", "--data", "wide.test"],
        ["predict", "--model", "wide.model.json", "--data", "wide.test", "--ignore-cols", str(m)],
    ]


def table_commands(work: Path, **env) -> tuple[str, str, dict[str, bytes]]:
    """monks-2's and the wide table's commands in one child in ``work``.

    Returns the loops it loaded, the rest of its stdout and each model file.
    """
    commands = monks2_commands() + wide_commands(work)
    child = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, json.dumps(commands)],
        env=dict(child_env(), **env), cwd=work, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    loops, rest = child.stdout.split("\n", 1)
    assert rest.count("exit 0\n") == len(commands)
    models = {name: (work / f"{name}.model.json").read_bytes() for name in ("monks-2", "wide")}
    return loops, rest, models


@pytest.fixture(scope="module")
def compiled_run(tmp_path_factory):
    """monks-2's and the wide table's commands through the compiled loops, built into a fresh cache."""
    work = tmp_path_factory.mktemp("compiled")
    loops, stdout, models = table_commands(work, XDG_CACHE_HOME=str(work / "cache"))
    assert loops == "compiled"
    return stdout, models


class TestFallback:
    @pytest.mark.parametrize("broken", ["no-compiler", "unwritable-cache"])
    def test_training_falls_back_silently_to_the_same_bytes(self, tmp_path, compiled_run, broken):
        """Training, then evaluating and predicting with the model, through numpy: the same stdout and model files."""
        if broken == "no-compiler":
            (tmp_path / "empty").mkdir()
            env = {"PATH": str(tmp_path / "empty"), "XDG_CACHE_HOME": str(tmp_path / "cache")}
        else:
            # a cache under a regular file cannot be made, even by root
            (tmp_path / "cache").write_text("")
            env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
        loops, stdout, models = table_commands(tmp_path, **env)
        assert loops == "numpy"
        assert (stdout, models) == compiled_run
        assert not (tmp_path / "cache").is_dir()


class TestCache:
    def test_a_warm_cache_starts_no_compiler(self, tmp_path):
        env = dict(child_env(), XDG_CACHE_HOME=str(tmp_path))
        outputs = []
        for _ in range(2):
            child = subprocess.run(
                [sys.executable, "-c", RECORD_SCRIPT], env=env, capture_output=True, text=True, timeout=120
            )
            assert child.returncode == 0, child.stderr
            outputs.append(child.stdout)
        assert outputs == ["True 1\n", "True 0\n"]
        # the library alone: the build's temporary file was renamed into place
        assert [p.name for p in (tmp_path / "diffnb").iterdir()] == [native.library_path(native.SOURCE.read_bytes()).name]

    def test_the_key_follows_the_source(self):
        source = native.SOURCE.read_bytes()
        assert native.library_path(source) != native.library_path(source + b"\n")
        assert native.library_path(source).name.endswith(native._EXT_SUFFIX)

    def test_cache_dir(self, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", "/var/cache/someone")
        assert native.cache_dir() == Path("/var/cache/someone/diffnb")
        for unset in ("", "relative/path"):
            monkeypatch.setenv("XDG_CACHE_HOME", unset)
            assert native.cache_dir() == Path.home() / ".cache" / "diffnb"


def library_names(cache: Path) -> set[str]:
    return {p.name for p in cache.iterdir()}


def age(path: Path, seconds: float) -> None:
    """Set ``path``'s access and modification times ``seconds`` into the past."""
    then = time.time() - seconds
    os.utime(path, (then, then))


@pytest.mark.skipif(shutil.which("cc") is None, reason="builds the library with a C compiler")
class TestPrune:
    """A build deletes this interpreter's libraries that no process loaded for STALE_AFTER, and no other."""

    @pytest.fixture()
    def cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        native.cache_dir().mkdir()
        return native.cache_dir()

    def test_a_build_deletes_only_stale_libraries_of_this_interpreter(self, cache):
        suffix = native._EXT_SUFFIX
        stale = [cache / f"native-00000001{suffix}", cache / f"sweep-00000002{suffix}"]
        kept = [
            cache / f"native-00000003{suffix}",  # loaded a day inside the limit
            cache / "native-00000004.cpython-0-other.so",  # another interpreter's
            cache / f".native-00000005{suffix}.tmp",  # a build's temporary file
        ]
        for path in stale + kept:
            path.write_bytes(b"")
            age(path, native.STALE_AFTER + 60)
        age(kept[0], native.STALE_AFTER - 24 * 3600)
        built = native.library_path(native.SOURCE.read_bytes())
        native.build(built)
        assert library_names(cache) == {built.name, *(p.name for p in kept)}

    def test_the_library_kept_is_never_deleted(self, cache):
        path = native.library_path(native.SOURCE.read_bytes())
        path.write_bytes(b"")
        age(path, 2 * native.STALE_AFTER)
        native.prune(path)
        assert library_names(cache) == {path.name}

    def test_two_versions_used_in_turn_keep_each_other(self, cache):
        # a base and a head checkout, each built once, then loaded in turn
        source = native.SOURCE.read_bytes()
        base, head = native.library_path(source), native.library_path(source + b"\n")
        native.build(base)
        native.build(head)
        assert library_names(cache) == {base.name, head.name}
        for _ in range(2):
            for path in (base, head):
                age(path, native.STALE_AFTER + 60)
                native.open_library(path)
                assert time.time() - path.stat().st_mtime < 3600
        # a third version's build keeps both while they are loaded
        third = native.library_path(source + b"\n\n")
        native.build(third)
        assert library_names(cache) == {base.name, head.name, third.name}
        # once the base is not loaded for STALE_AFTER, the next build deletes it
        age(base, native.STALE_AFTER + 60)
        native.build(native.library_path(source + b"\n\n\n"))
        assert base.name not in library_names(cache) and head.name in library_names(cache)
