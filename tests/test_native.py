"""Building, caching and loading the compiled training sweep, and training without it."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from diffnb import native

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="the compiled loop is built on Linux only"
)

# prints which sweep the child loaded, then runs the diffnb command
TRAIN_SCRIPT = textwrap.dedent(
    """
    import sys
    from diffnb import boosting
    from diffnb.cli import main
    print("compiled" if boosting._SWEEP is not None else "numpy", flush=True)
    sys.exit(main(sys.argv[1:]))
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


def train_monks2(work: Path, **env) -> tuple[str, str, bytes]:
    """Train monks-2 as the README does, in a child in ``work``; its sweep, the rest of stdout, the model file."""
    argv = [
        "train", "--data", str(ROOT / "data/monks-2.train"),
        "--schema", str(ROOT / "benchmarks/schemas/monks.schema.json"),
        "--label-col", "0", "--ignore-cols", "7", "--bins", "4", "--out", "model.json",
    ]
    child = subprocess.run(
        [sys.executable, "-c", TRAIN_SCRIPT, *argv],
        env=dict(child_env(), **env), cwd=work, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    sweep, rest = child.stdout.split("\n", 1)
    return sweep, rest, (work / "model.json").read_bytes()


@pytest.fixture(scope="module")
def compiled_run(tmp_path_factory):
    """monks-2 trained through the compiled loop, built into a fresh cache."""
    work = tmp_path_factory.mktemp("compiled")
    sweep, stdout, model = train_monks2(work, XDG_CACHE_HOME=str(work / "cache"))
    assert sweep == "compiled"
    return stdout, model


class TestFallback:
    @pytest.mark.parametrize("broken", ["no-compiler", "unwritable-cache"])
    def test_training_falls_back_silently_to_the_same_bytes(self, tmp_path, compiled_run, broken):
        if broken == "no-compiler":
            (tmp_path / "empty").mkdir()
            env = {"PATH": str(tmp_path / "empty"), "XDG_CACHE_HOME": str(tmp_path / "cache")}
        else:
            # a cache under a regular file cannot be made, even by root
            (tmp_path / "cache").write_text("")
            env = {"XDG_CACHE_HOME": str(tmp_path / "cache")}
        sweep, stdout, model = train_monks2(tmp_path, **env)
        assert sweep == "numpy"
        assert (stdout, model) == compiled_run
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
