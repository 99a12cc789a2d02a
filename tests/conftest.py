"""Shared fixtures, hypothesis strategies, scalar oracles, and the acceptance summary hook."""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

import diffnb
from diffnb.dataset import AttributeSpec, Dataset, Schema
from diffnb.density import DEFAULT_TAG_GAIN, fit_density

settings.register_profile(
    "default",
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=(
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.function_scoped_fixture,
    ),
)
settings.load_profile("default")


# -- shared data fixtures ----------------------------------------------------


def xor_schema() -> Schema:
    return Schema(
        (AttributeSpec("a", "continuous"), AttributeSpec("b", "continuous")),
        ("c0", "c1"),
    )


def xor_dataset() -> Dataset:
    """Four rows; equal classes agree on the diagonal: the window-gating fixture."""
    rows = [((0.0, 0.0), 0), ((1.0, 1.0), 0), ((0.0, 1.0), 1), ((1.0, 0.0), 1)]
    return Dataset.build(xor_schema(), rows)


@pytest.fixture
def xor_data() -> Dataset:
    return xor_dataset()


def child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's diffnb."""
    package_root = Path(diffnb.__file__).resolve().parent.parent
    path = [str(package_root), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def rows_of(data: Dataset) -> list[tuple[tuple[float, ...], int]]:
    """Every row of ``data`` as a ``(values, label)`` pair of Python floats and an int."""
    return list(zip(map(tuple, data.value_matrix().tolist()), data.labels().tolist()))


def numeric_dataset(values, labels, k):
    """A dataset of continuous attributes ``x0``, ``x1``, ... from a value matrix and class indices."""
    schema = Schema(
        tuple(AttributeSpec(f"x{j}", "continuous") for j in range(values.shape[1])),
        tuple(f"c{c}" for c in range(k)),
    )
    return Dataset.build(schema, [(tuple(r), int(c)) for r, c in zip(values, labels)])


# (M, K) of the wide edge cases: numpy's pairwise sum of M terms runs one
# running sum below 8, eight from 8 to 128, and splits in halves above 128
WIDE_SHAPES = [(m, k) for m in (1, 7, 8, 9, 16, 129, 300) for k in (2, 3, 9)]


def edge_case(seed, m=None, k=None):
    """A density with empty cells, dead bins and flat grids, queries on, beside and off its grid, and a selection.

    Training values come from a small lattice with zeros of both signs,
    and about a quarter of the columns are constant, so their grids are
    flat; queries mix every finite window bound with its neighbours one
    ulp either side, zeros of both signs, infinities of both signs, values
    near the float limit and lattice values. n and M may be 1, and K runs
    up to 5, unless ``m`` and ``k`` are given.
    """
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6)) if k is None else k
    m = int(rng.integers(1, 5)) if m is None else m
    n = int(rng.integers(1, 25))
    lattice = np.array([0.0, -0.0, 0.5, -1.0, 1.5, 2.0, -2.5])
    values = rng.choice(lattice, size=(n, m))
    values[:, rng.random(m) < 0.25] = 0.5
    labels = rng.integers(0, k, size=n)
    topology = tuple(int(b) for b in rng.integers(1, 5, size=m))
    density = fit_density(numeric_dataset(values, labels, k), topology)
    bounds = np.concatenate([density.window_lo.ravel(), density.window_hi.ravel()])
    bounds = np.unique(bounds[np.isfinite(bounds)])
    pool = np.concatenate([
        bounds, np.nextafter(bounds, np.inf), np.nextafter(bounds, -np.inf),
        [0.0, -0.0, np.inf, -np.inf, 1e308, -1e308], lattice,
    ])
    queries = rng.choice(pool, size=(int(rng.integers(1, 9)), m))
    chosen = sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False).tolist())
    return density, queries, chosen


# -- scalar oracles ----------------------------------------------------------
#
# The package bins and gates whole blocks of rows at once; these are the
# rules for one value and one cell, as plainly as they can be written.


def reference_bin(spec, value: float) -> int:
    """Bin of one value on a grid: floor((v - lo) / width), clamped to [0, count - 1].

    Values outside [lo, hi] land in the nearest edge bin, and a flat grid
    (lo == hi) puts every value in bin 0. The clamped floor picks the bin
    whose center is nearest; on an exact boundary the higher bin wins.
    """
    if spec.width == 0.0:
        return 0
    raw = math.floor((value - spec.lo) / spec.width)
    return min(max(raw, 0), spec.count - 1)


def reference_tagged_likelihood(
    density, values, class_index, attr_index, tag_gain=DEFAULT_TAG_GAIN, epsilon=None
):
    """Window-gated likelihood of one attribute of ``values`` under one class.

    The base is the joint probability of the attribute's bin with the
    class, ``count / n_train``, with an empty cell floored at ``epsilon``
    (default: the density's tenth-of-a-count floor). If any other
    attribute of ``values`` falls outside the cell's window, the base is
    scaled by ``tag_gain`` once, however many attributes violate it.
    """
    if epsilon is None:
        epsilon = density.epsilon_floor
    b = reference_bin(density.bin_specs[attr_index], values[attr_index])
    count = density.counts[class_index, attr_index, b]
    base = count / float(density.n_train) if count > 0 else epsilon
    lo = density.window_lo[class_index, attr_index, b]
    hi = density.window_hi[class_index, attr_index, b]
    arr = np.asarray(values, dtype=np.float64)
    violated = bool(np.any((arr < lo) | (arr > hi)))
    return base * tag_gain if violated else base


# -- shared strategies -------------------------------------------------------

finite_values = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

# half-integer lattice: bin boundaries and member extremes stay exact floats
lattice_values = st.integers(min_value=-60, max_value=60).map(lambda q: q / 2.0)


@st.composite
def small_problems(draw, values=finite_values, max_n=20, max_attrs=4, max_classes=3, max_bins=5):
    """A tiny dataset plus a bin topology for it."""
    m = draw(st.integers(1, max_attrs))
    k = draw(st.integers(2, max_classes))
    n = draw(st.integers(1, max_n))
    row = st.tuples(
        st.lists(values, min_size=m, max_size=m).map(tuple),
        st.integers(0, k - 1),
    )
    rows = draw(st.lists(row, min_size=n, max_size=n))
    schema = Schema(
        tuple(AttributeSpec(f"x{i}", "continuous") for i in range(m)),
        tuple(f"c{j}" for j in range(k)),
    )
    topology = tuple(draw(st.integers(1, max_bins)) for _ in range(m))
    return Dataset.build(schema, rows), topology


@st.composite
def query_rows(draw, m: int, values=finite_values):
    return tuple(draw(st.lists(values, min_size=m, max_size=m)))


# -- acceptance criterion summary ---------------------------------------------
#
# Tests marked @pytest.mark.criterion(n, "title") are tallied per criterion;
# the terminal summary prints exactly one PASS/FAIL/SKIP line for each, so
# the gate's verdict survives output capture. A test's "criterion_detail"
# property (``record_property``) is printed on its criterion's line, pass
# or fail.

_WORST = {"PASS": 0, "SKIP": 1, "FAIL": 2}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(num, title): one numbered acceptance criterion"
    )
    config._criteria = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or report.when not in ("setup", "call"):
        return
    if report.when == "setup" and report.passed:
        return
    num, title = marker.args
    entry = item.config._criteria.setdefault(
        num, {"title": title, "verdict": "PASS", "notes": [], "details": []}
    )
    entry["details"] += [value for name, value in report.user_properties if name == "criterion_detail"]
    if report.skipped:
        verdict = "SKIP"
        reason = report.longrepr[2] if isinstance(report.longrepr, tuple) else str(report.longrepr)
        reason = reason.removeprefix("Skipped: ")
        if reason not in entry["notes"]:
            entry["notes"].append(reason)
    elif report.failed:
        verdict = "FAIL"
        entry["notes"].append(item.name)
    else:
        verdict = "PASS"
    if _WORST[verdict] > _WORST[entry["verdict"]]:
        entry["verdict"] = verdict


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    criteria = getattr(config, "_criteria", {})
    if not criteria:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(criteria):
        entry = criteria[num]
        line = f"criterion {num} ({entry['title']}): {entry['verdict']}"
        notes = entry["details"] + (entry["notes"] if entry["verdict"] != "PASS" else [])
        if notes:
            line += f" -- {'; '.join(notes)}"
        terminalreporter.write_line(line)
