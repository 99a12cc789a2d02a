"""Building, caching and loading the compiled library, and training and scoring without it."""

import json
import os
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

from unittest import mock

import numpy as np
import pytest

from diffnb import boosting, density, inference, native
from diffnb.boosting import TrainConfig, train
from diffnb.dataset import AttributeSpec, Dataset, Schema
from diffnb.monks import MONKS_BINS, generate_monks

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
    from diffnb import boosting, dataset, density, inference
    from diffnb.cli import main
    loaded = {boosting._SWEEP is not None, density._SCORE is not None, inference._LOG_SCORES is not None,
              inference._POSTERIOR is not None, dataset._PARSE_BLOCK is not None}
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


WIDE_M, WIDE_K = 12, 3


def wide_table() -> tuple[np.ndarray, np.ndarray]:
    """A generated table of 12 attributes and 3 classes: 500 rows of values and their labels, the same every time.

    Scoring sums each class's M likelihood parts in numpy's pairwise order,
    which runs eight running sums from M = 8: monks' 6 attributes never
    reach it.
    """
    rng = np.random.default_rng(12)
    values = rng.normal(size=(500, WIDE_M)) * 10.0 ** rng.integers(-2, 3, size=WIDE_M)
    labels = np.argmax(values @ rng.normal(size=(WIDE_M, WIDE_K)) + rng.normal(size=(500, WIDE_K)), axis=1)
    return values, labels


def wide_commands(work: Path) -> list[list[str]]:
    """Train, evaluate and predict :func:`wide_table`, into ``wide.model.json``; its files are written into ``work``."""
    values, labels = wide_table()
    schema = {"classes": [f"c{c}" for c in range(WIDE_K)],
              "attributes": [{"name": f"x{j}", "kind": "continuous"} for j in range(WIDE_M)]}
    (work / "wide.schema.json").write_text(json.dumps(schema))
    for name, rows in (("wide.train", slice(0, 300)), ("wide.test", slice(300, 500))):
        lines = [" ".join(map(repr, row)) + f" c{c}" for row, c in zip(values[rows].tolist(), labels[rows])]
        (work / name).write_text("\n".join(lines) + "\n")
    return [
        ["train", "--data", "wide.train", "--schema", "wide.schema.json", "--bins", "5",
         "--max-rounds", "20", "--out", "wide.model.json"],
        ["evaluate", "--model", "wide.model.json", "--data", "wide.test"],
        ["predict", "--model", "wide.model.json", "--data", "wide.test", "--ignore-cols", str(WIDE_M)],
    ]


def comma_commands(work: Path) -> list[list[str]]:
    """Train, evaluate and predict :func:`wide_table` comma-delimited, into ``comma.model.json``.

    Each line starts with a row number, which every command ignores, and
    its fields are padded with spaces. The files are written into ``work``.
    """
    values, labels = wide_table()
    for name, rows in (("comma.train", range(0, 300)), ("comma.test", range(300, 500))):
        lines = [" , ".join([str(i), *map(repr, values[i].tolist()), f"c{labels[i]}"]) for i in rows]
        (work / name).write_text("\n".join(lines) + "\n")
    parse = ["--delimiter", ",", "--ignore-cols", "0"]
    return [
        ["train", "--data", "comma.train", "--schema", "wide.schema.json", "--bins", "5",
         "--max-rounds", "20", "--out", "comma.model.json", *parse],
        ["evaluate", "--model", "comma.model.json", "--data", "comma.test", *parse],
        ["predict", "--model", "comma.model.json", "--data", "comma.test", "--delimiter", ",",
         "--ignore-cols", f"0,{WIDE_M + 1}"],
    ]


def table_commands(work: Path, **env) -> tuple[str, str, dict[str, bytes]]:
    """monks-2's, the wide table's and the comma-delimited table's commands in one child in ``work``.

    Returns the loops it loaded, the rest of its stdout and each model file.
    """
    commands = monks2_commands() + wide_commands(work) + comma_commands(work)
    child = subprocess.run(
        [sys.executable, "-c", CLI_SCRIPT, json.dumps(commands)],
        env=dict(child_env(), **env), cwd=work, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""
    loops, rest = child.stdout.split("\n", 1)
    assert rest.count("exit 0\n") == len(commands)
    models = {name: (work / f"{name}.model.json").read_bytes() for name in ("monks-2", "wide", "comma")}
    return loops, rest, models


@pytest.fixture(scope="module")
def compiled_run(tmp_path_factory):
    """monks-2's, the wide table's and the comma-delimited table's commands through the compiled loops, built into a fresh cache."""
    work = tmp_path_factory.mktemp("compiled")
    loops, stdout, models = table_commands(work, XDG_CACHE_HOME=str(work / "cache"))
    assert loops == "compiled"
    return stdout, models


class TestFallback:
    @pytest.mark.parametrize("broken", ["no-compiler", "unwritable-cache"])
    def test_training_falls_back_silently_to_the_same_bytes(self, tmp_path, compiled_run, broken):
        """Parsing, training, then evaluating and predicting with the model, without the library: the same stdout and model files."""
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

    def test_the_key_follows_numpy(self, monkeypatch):
        # the library reads numpy's structs and binds its loops: another
        # numpy, or the same version's headers elsewhere, builds its own copy
        source = native.SOURCE.read_bytes()
        names = {native.library_path(source).name}
        monkeypatch.setattr(np, "__version__", "0.0.0")
        names.add(native.library_path(source).name)
        include = np.get_include()
        monkeypatch.setattr(np, "get_include", lambda: include + "/elsewhere")
        names.add(native.library_path(source).name)
        assert len(names) == 3

    def test_missing_numpy_headers_start_no_compiler_and_print_nothing(self, tmp_path, monkeypatch, capfd):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(np, "get_include", lambda: str(tmp_path / "no-headers"))
        started = []
        monkeypatch.setattr(subprocess, "run", lambda *a, **kw: started.append(a))
        with pytest.raises(OSError, match="numpy's C headers are missing"):
            native.build(native.library_path(native.SOURCE.read_bytes()))
        assert native.load.__wrapped__() is None
        assert started == []
        assert capfd.readouterr() == ("", "")

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


def trained_tables():
    """monks-2 and the wide table, each trained as its CLI commands train it, with its test rows."""
    monks_train, monks_test = generate_monks(2)
    monks, _ = train(monks_train, TrainConfig(topology=MONKS_BINS, max_rounds=500))
    values, labels = wide_table()
    schema = Schema(tuple(AttributeSpec(f"x{j}", "continuous") for j in range(WIDE_M)),
                    tuple(f"c{c}" for c in range(WIDE_K)))
    rows = list(zip(map(tuple, values[:300].tolist()), labels[:300].tolist()))
    wide, _ = train(Dataset.build(schema, rows), TrainConfig(topology=5, max_rounds=20))
    return {"monks-2": (monks, monks_test.value_matrix()), "wide": (wide, values[300:])}


def posterior_reprs(model, rows: np.ndarray) -> list[str]:
    """The repr of every probability, winner and tie of each row's posterior, then of the batch's."""
    out = [repr(inference.posterior(model, row)) for row in rows.tolist()]
    probabilities, winners = inference.posterior_batch(model, rows)
    out += [repr(p) for p in probabilities.ravel().tolist()] + [repr(w) for w in winners.tolist()]
    return out


# a pool of inputs for exp and log: signed zeros, subnormals, the 690 shift
# threshold and one ulp either side, values exp takes below _TINY (from
# -708.4) and to 0 (past -745.2), and values of many magnitudes
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1e-310, 1.0, -1.0]
for edge in (690.0, -690.0, 708.0, -708.0, -708.4, -708.5, -709.0, -720.0, -745.1, -745.2, -746.0, 709.78):
    EDGES += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
POOL = np.array(EDGES + (np.random.default_rng(5).normal(size=300) * 10.0 ** np.repeat(np.arange(-6, 4), 30)).tolist())


@pytest.mark.skipif(inference._POSTERIOR is None, reason="the compiled library is not loaded")
class TestNumpyLoops:
    """The passes' exp and log are numpy's: the same bits as np.exp, np.log and the numpy chain."""

    def test_the_direct_loops_equal_numpy_on_every_length_to_64(self):
        library = native.load()
        # log's pool keeps the signed zeros and makes every other value positive
        for name, ufunc, pool in ((b"exp", np.exp, POOL), (b"log", np.log, np.where(POOL == 0.0, POOL, np.abs(POOL)))):
            for n in range(1, 65):
                for start in range(0, len(pool) - n, 7):
                    values = pool[start:start + n].copy()
                    got = np.empty(n)
                    assert library.diffnb_apply(name, values, got) == 0
                    with np.errstate(all="ignore"):
                        want = ufunc(values)
                    assert got.tobytes() == want.tobytes(), (name, n, start)
        # the pool reaches the edges named
        with np.errstate(all="ignore"):
            below = np.exp(POOL)
        assert np.any((below > 0.0) & (below < boosting._TINY)) and np.any(below == 0.0)
        assert np.count_nonzero(POOL == 0.0) == 2 and np.any(np.abs(POOL) == 690.0)

    def test_refused_arguments(self):
        library = native.load()
        with pytest.raises(ValueError, match="no loop named"):
            library.diffnb_apply(b"sin", np.zeros(2), np.empty(2))
        with pytest.raises(ValueError, match="lengths disagree"):
            library.diffnb_apply(b"exp", np.zeros(2), np.empty(3))
        with pytest.raises(TypeError, match="result must hold float64"):
            library.diffnb_apply(b"exp", np.zeros(2), np.empty(2, dtype=np.float32))

    def test_posteriors_equal_the_numpy_chain_on_both_tables(self):
        for name, (model, rows) in trained_tables().items():
            compiled = posterior_reprs(model, rows)
            with mock.patch.multiple(inference, _LOG_SCORES=None, _POSTERIOR=None), \
                    mock.patch.object(density, "_SCORE", None):
                chain = posterior_reprs(model, rows)
            assert compiled == chain, name
            assert len(compiled) == len(rows) * (model.schema.n_classes + 2)

    def test_each_pass_names_the_loop_it_bound(self):
        library = native.load()
        for name in (b"exp", b"log"):
            where = library.diffnb_bound_loop(name)
            assert "_multiarray_umath" in where, where
        assert library.diffnb_bound_loop(b"sin") is None


@pytest.mark.skipif(inference._POSTERIOR is None, reason="the compiled library is not loaded")
@pytest.mark.skipif(
    not np._core._multiarray_umath.__cpu_features__.get("AVX512F", False) if hasattr(np, "_core") else True,
    reason="the reduced dispatch differs from the default only where the CPU has AVX512F",
)
def test_numpy_loops_under_reduced_dispatch():
    """TestNumpyLoops again in a child whose numpy dispatches as a CPU without AVX-512 would."""
    env = dict(child_env(), NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    # the float64 exp loop numpy dispatches to, by target name: X86_V4 by default here
    probe = "import numpy._core._multiarray_umath as u; print(u.__cpu_targets_info__['exp']['dd']['current'])"
    targets = []
    for environment in (child_env(), env):
        child = subprocess.run([sys.executable, "-c", probe], env=environment, capture_output=True, text=True, timeout=60)
        targets.append(child.stdout.strip())
    if len(set(targets)) == 1:
        pytest.skip(f"NPY_DISABLE_CPU_FEATURES did not change exp's loop: {targets}")
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"{__file__}::TestNumpyLoops"],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert "4 passed" in child.stdout, child.stdout
