"""Binned joint-probability tables with per-bin attribute windows.

For every class the value range of each attribute is cut into equal-width
bins. A cell (class k, attribute m, bin b) stores the count of training
examples of class k whose attribute m falls in bin b; dividing by the
training-set size gives the joint probability of the bin and the class.

Each nonempty cell also remembers, for every *other* attribute, the min
and max that attribute took over the cell's member examples. At scoring
time a cell whose window excludes the query (any other attribute outside
its remembered range) has its probability scaled down by a fixed gain:
the bin stops vouching for combinations it never saw.

Fitting and checking the windows is exact arithmetic: a bound is the min
or max of training values and the check is a pair of comparisons, so no
rounding enters. Both routines here are vectorized over whole cells and
blocks of rows, and return bit for bit what a loop over rows and
attributes returns.

A fitted :class:`DensityModel` holds these as plain arrays: ``counts``
(K, M, B_max) beside ``n_train``, and the windows ``window_lo`` and
``window_hi`` (K, M, B_max, M). A cell is empty where its count is 0;
nothing else records it.

An attribute's grid, counts and windows depend on its own values and bin
count, and on the other attributes' raw values over its cells, but not on
their bin counts. So a fit is one :class:`DensityColumn` per attribute
(:func:`fit_column`), assembled into the model (:func:`assemble_density`),
and an attribute's likelihood parts can be scored alone
(``likelihood_logs(..., attributes=...)``): a topology search reuses the
columns its trials share.

A fitted model's arrays are read-only, and what scoring reads from them
(the grid arrays, flat windows, and the logs of every cell's plain and
gated likelihood) is derived once per model, on first use, as its
:class:`ScoringTables`; each scored row then only looks cells up.
"""

import functools
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import Dataset, Schema, SchemaError

DEFAULT_TAG_GAIN = 0.25

# window entries gathered per block of rows in likelihood_logs: each
# gathered block is 2 MB however wide the table, small enough to stay in
# cache while it is compared (on a 2-vCPU Intel Xeon, 10k rows at K=3,
# M=20 took 70 ms at 2**18 and 86 ms at 2**20)
_CHECK_BUDGET = 2**18


@dataclass(frozen=True)
class BinSpec:
    """Equal-width bin grid for one attribute: ``count`` bins spanning [lo, hi].

    Both bounds, and the span between them, must be finite: a grid
    fitted to an infinite value or to values further apart than the
    largest float, or read from a model file with an infinite or NaN
    bound, has no width to bin by.
    """

    attribute: int
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"attribute {self.attribute}: bin count must be >= 1, got {self.count}")
        # NaN for a NaN bound or inf - inf, inf for an infinite bound or an overflow
        if not math.isfinite(self.hi - self.lo):
            raise ValueError(f"attribute {self.attribute}: cannot bin between lo {self.lo} and hi {self.hi}")
        if self.hi < self.lo:
            raise ValueError(f"attribute {self.attribute}: hi {self.hi} < lo {self.lo}")

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.count


def make_bin_spec(values: Sequence[float], count: int, attribute: int = 0) -> BinSpec:
    """Fit a grid of ``count`` bins to the observed range of ``values``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"attribute {attribute}: no values to fit bins to")
    return BinSpec(attribute, float(arr.min()), float(arr.max()), count)


def read_only(array: np.ndarray) -> np.ndarray:
    """``array`` itself, marked read-only: an in-place write now raises."""
    array.flags.writeable = False
    return array


class BinGrid(NamedTuple):
    """The bin arithmetic of a sequence of grids, one array entry per grid.

    ``width`` holds 1.0 for a flat grid (lo == hi), so dividing by it is
    safe; ``top`` is each grid's highest bin as a float, the clamp's upper
    bound; ``attributes`` names each grid's attribute, for messages.
    """

    lo: np.ndarray
    hi: np.ndarray
    width: np.ndarray
    top: np.ndarray
    attributes: tuple[int, ...]

    @classmethod
    def of(cls, specs: Sequence[BinSpec]) -> "BinGrid":
        width = np.array([s.width for s in specs])
        arrays = (
            np.array([s.lo for s in specs]),
            np.array([s.hi for s in specs]),
            np.where(width == 0.0, 1.0, width),
            np.array([s.count - 1 for s in specs], dtype=np.float64),
        )
        return cls(*map(read_only, arrays), tuple(s.attribute for s in specs))

    def bins(self, values: np.ndarray) -> np.ndarray:
        """Bins of an (n, M) value matrix, column j on grid j.

        A value's bin is floor((v - lo) / width) clamped to [0, count - 1]:
        the bin whose center is nearest, the higher one on an exact
        boundary between two. Values outside [lo, hi], infinities included,
        land in the nearest edge bin, and a flat grid puts every value in
        bin 0. A NaN value has no bin and is refused with a ValueError.

        Values are clamped into [lo, hi] before the subtraction, so no
        finite query overflows however far outside the grid it lies, and a
        flat grid's (lo - lo) / 1.0 is bin 0; a value inside the grid keeps
        its bits. The quotient is then at least 0 and at most about
        ``count``: the clamp against ``top`` catches the one at ``hi`` and
        any rounding, and the cast to int64, which truncates, takes the
        floor of a quotient that is not negative.
        """
        raw = (values.clip(self.lo, self.hi) - self.lo) / self.width
        np.minimum(raw, self.top, out=raw)
        # the clamps pass NaN on and bound all else, so only NaN makes the sum NaN;
        # the ufunc's own reduce skips the Python frame ndarray.sum goes through
        if math.isnan(np.add.reduce(raw, axis=None)):
            j = np.isnan(raw).any(axis=0).argmax()
            raise ValueError(f"attribute {self.attributes[j]}: cannot bin a NaN value")
        return raw.astype(np.int64)


def _bin_count(count, attribute: str | None = None) -> int:
    """A requested bin count as an int: floats and booleans are refused, not truncated."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)):
        where = "" if attribute is None else f"attribute {attribute!r}: "
        raise SchemaError(f"{where}bin count must be an integer, got {count!r}")
    return int(count)


def resolve_topology(schema: Schema, bins: int | Sequence[int] | Mapping[str, int] | None) -> tuple[int, ...]:
    """Normalize a bin-count request into one count per attribute.

    ``bins`` may be a single count applied to every continuous attribute,
    a full per-attribute sequence, a name -> count mapping, or None
    (default of 5 per continuous attribute). Discrete attributes always
    get exactly one bin per declared value; a conflicting explicit count
    is an error. Counts must be Python or numpy integers: a float or a
    boolean is an error, not a count.
    """
    m = schema.n_attributes
    names = [a.name for a in schema.attributes]
    counts: list[int | None]
    if bins is None:
        counts = [None] * m
    elif isinstance(bins, Mapping):
        unknown = set(bins) - set(names)
        if unknown:
            raise SchemaError(f"bin counts for unknown attributes: {sorted(unknown)}")
        counts = [_bin_count(bins[name], name) if name in bins else None for name in names]
    elif isinstance(bins, (Sequence, np.ndarray)) and not isinstance(bins, str):
        if len(bins) != m:
            raise SchemaError(f"got {len(bins)} bin counts for {m} attributes")
        counts = [_bin_count(count, name) for name, count in zip(names, bins)]
    else:
        # a broadcast count only applies where the count is free to choose
        count = _bin_count(bins)
        counts = [None if a.is_discrete else count for a in schema.attributes]

    resolved = []
    for spec, count in zip(schema.attributes, counts):
        if spec.is_discrete:
            want = len(spec.values)
            if count is not None and count != want:
                raise SchemaError(
                    f"attribute {spec.name!r}: {count} bins requested but the {spec.kind} "
                    f"attribute declares {want} values"
                )
            resolved.append(want)
        else:
            resolved.append(5 if count is None else count)
    for spec, count in zip(schema.attributes, resolved):
        if count < 1:
            raise SchemaError(f"attribute {spec.name!r}: bin count must be >= 1, got {count}")
    return tuple(resolved)


@dataclass(frozen=True)
class DensityModel:
    """Frozen result of fitting grids, counts, and windows to a training set.

    ``counts[k, m, b]`` is the number of the ``n_train`` training examples
    of class k whose attribute m falls in bin b of the attribute's grid;
    bins beyond an attribute's own count are dead and stay zero. Dividing
    a count by ``n_train`` gives the joint probability of (bin, class).

    ``window_lo[k, m, b, j]`` / ``window_hi[k, m, b, j]`` bound attribute j
    (j != m) over the member examples of a nonempty cell (k, m, b), one
    with a positive count. Empty cells and the j == m diagonal hold
    (-inf, +inf), which no value can violate. The three arrays are made
    read-only on construction, since scoring tables derive from them.
    """

    schema: Schema
    topology: tuple[int, ...]
    bin_specs: tuple[BinSpec, ...]
    counts: np.ndarray
    n_train: int
    window_lo: np.ndarray
    window_hi: np.ndarray

    def __post_init__(self):
        for array in (self.counts, self.window_lo, self.window_hi):
            read_only(array)

    @property
    def epsilon_floor(self) -> float:
        """Probability substituted for empty cells: one tenth of one count."""
        return 1.0 / (10.0 * self.n_train)

    @functools.cached_property
    def scoring_tables(self) -> "ScoringTables":
        """The tables :func:`likelihood_logs` reads, built on first use."""
        return ScoringTables(self)


class ScoringTables:
    """What scoring reads from one fitted density, derived from it once.

    The flat cell index is written down here and nowhere else: cell
    (attribute m, bin b) of a class is ``offsets[m] + b = m * B_max + b``
    on the flat ``M * B_max`` axis of one class's (M, B_max) cells.
    :func:`likelihood_logs` hands each row's index to its callers, which
    gather and scatter weights through it as given.

    Holds the density's :class:`BinGrid`, the ``offsets``, the windows as
    ``(K, M * B_max, M)`` views, and per ``(tag_gain, epsilon)`` pair the
    log-likelihood tables of :meth:`log_likelihoods`. The density's arrays
    are read-only, so no table can go stale.
    """

    def __init__(self, density: DensityModel):
        k, m, b_max = density.counts.shape
        self.grid = BinGrid.of(density.bin_specs)
        self.offsets = read_only(np.arange(m) * b_max)
        self.window_lo = density.window_lo.reshape(k, m * b_max, m)
        self.window_hi = density.window_hi.reshape(k, m * b_max, m)
        self._counts = density.counts.reshape(k, m * b_max)
        self._n_train = density.n_train
        self._logs: dict[tuple[float, float], tuple[np.ndarray, np.ndarray]] = {}

    def log_likelihoods(self, tag_gain: float, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
        """``(log(base), log(base * tag_gain))`` per flat cell, each (K, M * B_max).

        ``base`` is the cell's joint probability, ``count / n_train``, or
        ``epsilon`` for an empty cell. Built on the first call for a pair
        and kept, read-only, for every later call with it.
        """
        key = (tag_gain, epsilon)
        logs = self._logs.get(key)
        if logs is None:
            counts = self._counts
            base = np.where(counts > 0, counts / float(self._n_train), epsilon)
            logs = self._logs[key] = (read_only(np.log(base)), read_only(np.log(base * tag_gain)))
        return logs


def _cell_extremes(extreme: np.ufunc, members: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Column-wise min or max of each run of ``members`` rows beginning at ``starts``.

    Min and max are exact; only the sign of a zero result depends on the
    order in which a reduction pairs equal values. The rule fixed here is
    that a zero bound takes the sign of the run's last zero in row order,
    which is what a sequential ``extreme`` sweep over the rows yields, so
    the windows do not vary with numpy's reduction order.
    """
    out = extreme.reduceat(members, starts, axis=0)
    zero = out == 0.0
    if zero.any():
        row = np.arange(len(members))[:, None]
        last = np.maximum.reduceat(np.where(members == 0.0, row, -1), starts, axis=0)
        out[zero] = members[last[zero], np.nonzero(zero)[1]]
    return out


class DensityColumn(NamedTuple):
    """One attribute's share of a fitted density, for one bin count.

    ``spec`` is the attribute's grid, ``bins`` the (n,) int64 bin of each
    training row, ``counts`` (K, count) the cells' counts and ``window_lo``
    / ``window_hi`` (K, count, M) their windows, with (-inf, +inf) for an
    empty cell and for the attribute's own column. Nothing here depends on
    another attribute's bin count: a window bounds the other attributes'
    raw values over the rows of one (class, attribute, bin) cell.
    """

    spec: BinSpec
    bins: np.ndarray
    counts: np.ndarray
    window_lo: np.ndarray
    window_hi: np.ndarray


def fit_column(
    values: np.ndarray, labels: np.ndarray, n_classes: int, spec: BinSpec, bins: np.ndarray | None = None
) -> DensityColumn:
    """Fit attribute ``spec.attribute``'s counts and windows on grid ``spec``.

    ``values`` is the (n, M) training matrix and ``labels`` its class
    indices; ``bins`` are the attribute's training bins on ``spec``, binned
    here when not given. The rows are stably sorted by their (class, bin)
    cell; run lengths give the counts, and one min and one max reduction
    over each run give the cell's windows.
    """
    j, count = spec.attribute, spec.count
    if bins is None:
        bins = BinGrid.of((spec,)).bins(values[:, j, None])[:, 0]
    n, m = values.shape
    cell = labels * count + bins
    order = np.argsort(cell, kind="stable")
    sorted_cells = cell[order]
    starts = np.flatnonzero(np.diff(sorted_cells, prepend=-1))
    members = values[order]
    cell_k, cell_b = np.divmod(sorted_cells[starts], count)
    counts = np.zeros((n_classes, count), dtype=np.int64)
    lo = np.full((n_classes, count, m), -np.inf)
    hi = np.full((n_classes, count, m), np.inf)
    counts[cell_k, cell_b] = np.diff(starts, append=n)
    lo[cell_k, cell_b] = _cell_extremes(np.minimum, members, starts)
    hi[cell_k, cell_b] = _cell_extremes(np.maximum, members, starts)
    lo[:, :, j] = -np.inf
    hi[:, :, j] = np.inf
    return DensityColumn(spec, bins, counts, lo, hi)


def assemble_density(schema: Schema, columns: Sequence[DensityColumn], n_train: int) -> DensityModel:
    """The density whose attribute j is ``columns[j]``, each padded to the widest count.

    Bins beyond an attribute's own count are dead: count 0 and windows
    (-inf, +inf), as an empty cell's. Copying a column into place moves no
    bit, so a density assembled from columns fitted one at a time equals
    :func:`fit_density`'s for the same topology, array for array.
    """
    topology = tuple(column.spec.count for column in columns)
    k, m, b_max = schema.n_classes, len(columns), max(topology)
    counts = np.zeros((k, m, b_max), dtype=np.int64)
    lo = np.full((k, m, b_max, m), -np.inf)
    hi = np.full((k, m, b_max, m), np.inf)
    for j, column in enumerate(columns):
        count = column.spec.count
        counts[:, j, :count] = column.counts
        lo[:, j, :count] = column.window_lo
        hi[:, j, :count] = column.window_hi
    return DensityModel(schema, topology, tuple(column.spec for column in columns), counts, n_train, lo, hi)


def fit_density(
    data: Dataset, bins: int | Sequence[int] | Mapping[str, int] | None = None
) -> DensityModel:
    """Fit bin grids, joint counts, and per-cell windows to a training set.

    Grids use each attribute's observed range over the whole training
    set, so every class shares one grid per attribute. Each attribute's
    column is fitted on its own (:func:`fit_column`), after one binning of
    every attribute, and the columns are assembled into one model. The
    returned model is immutable; scoring never modifies it.
    """
    schema = data.schema
    topology = resolve_topology(schema, bins)
    values = data.value_matrix()
    labels = data.labels()
    specs = tuple(make_bin_spec(values[:, j], count, attribute=j) for j, count in enumerate(topology))
    binned = BinGrid.of(specs).bins(values)
    columns = [fit_column(values, labels, schema.n_classes, spec, binned[:, spec.attribute]) for spec in specs]
    return assemble_density(schema, columns, len(values))


def likelihood_logs(
    density: DensityModel,
    values: np.ndarray,
    tag_gain: float = DEFAULT_TAG_GAIN,
    epsilon: float | None = None,
    attributes: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Flat cell indices and per-class log-likelihood parts for a batch of rows.

    Returns ``(cells, log_parts)`` where ``cells`` is (n, M) int64, each
    row's flat cell index per attribute (see :class:`ScoringTables`), and
    ``log_parts`` is (n, K, M): the log of each attribute's window-gated
    likelihood under each class: the log of the joint probability of the
    attribute's bin with the class, ``count / n_train`` or ``epsilon`` for
    an empty cell, times ``tag_gain`` once if any other attribute of the
    row falls outside the cell's window. ``tests/conftest.py`` keeps this
    rule for one entry as a scalar oracle.

    Everything that does not depend on the rows comes from the density's
    :class:`ScoringTables`, built on first use: the grid, the cell
    offsets, the flat windows and both log tables. A row costs its bins
    and cells, the window check, and one choice between two table
    gathers: ``log(base * tag_gain)`` where a window is violated,
    ``log(base)`` elsewhere. Gathering a log from a table gives the bits
    that taking ``np.log`` after the gather gives, as it is the same
    ``np.log`` of the same float64.

    The window check takes, for a block of rows at a time, the window row
    of every cell the rows touch in one gather and compares it with the
    rows' values. Blocks hold ``_CHECK_BUDGET`` window entries at most,
    so the temporaries stay small however many rows or attributes.

    ``attributes``, a selection of S attribute indices, limits the result
    to those attributes: (n, S) cells and (n, K, S) parts, equal to the
    full result's matching columns, since each attribute's part reads only
    its own grid, cells and windows (and every value of the row). A search
    trial scores its new attributes this way.
    """
    if epsilon is None:
        epsilon = density.epsilon_floor
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    k = density.schema.n_classes
    tables = density.scoring_tables
    log_base, log_gated = tables.log_likelihoods(tag_gain, epsilon)

    if attributes is None:
        cells = tables.grid.bins(values) + tables.offsets
    else:
        chosen = list(attributes)
        grid = BinGrid.of([density.bin_specs[j] for j in chosen])
        cells = grid.bins(values[:, chosen]) + tables.offsets[chosen]
    s = cells.shape[1]
    lo, hi = tables.window_lo, tables.window_hi
    step = max(1, _CHECK_BUDGET // (k * s * m))
    violated = np.empty((k, n, s), dtype=bool)
    for start in range(0, n, step):
        block = slice(start, start + step)
        v = values[block][None, :, None, :]
        # one gathered block at a time: the lo block is freed before hi's
        outside = (v < lo.take(cells[block], axis=1)) | (v > hi.take(cells[block], axis=1))
        violated[:, block] = np.logical_or.reduce(outside, axis=3)

    parts = np.where(violated, log_gated.take(cells, axis=1), log_base.take(cells, axis=1))
    return cells, parts.transpose(1, 0, 2)
