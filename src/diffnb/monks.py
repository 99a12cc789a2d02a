"""The three Monk's classification problems, generated from their rules.

Each problem labels the same 432-point grid of six discrete attributes
(value counts 3, 3, 2, 3, 4, 2, encoded as integers 1..v):

    problem 1: a1 == a2 or a5 == 1
    problem 2: exactly two of the six attributes equal 1
    problem 3: (a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3),
               with 5% label noise on the training set

The test set of every problem is the full grid. Training sets are
fixed-seed stratified samples matching the published sizes and class
makeups (124 = 62+62, 169 = 105+64, 122 = 60+62 before noise), written
here because the original sample files are not redistributable through
this package. Attributes are treated as plain integers and binned like
any continuous value; 4 bins per attribute is the benchmark setting.
"""

from pathlib import Path

import numpy as np

from .dataset import AttributeSpec, Dataset, Schema

MONKS_VALUES = (3, 3, 2, 3, 4, 2)
MONKS_BINS = (4, 4, 4, 4, 4, 4)

# (class-0 draw, class-1 draw) per problem; problem 3 flips 6 labels after.
_TRAIN_MAKEUP = {1: (62, 62), 2: (105, 64), 3: (60, 62)}
_SAMPLE_SEEDS = {1: 1101, 2: 2261, 3: 3303}
_NOISE_SEED = 3939
_NOISE_FLIPS = 6


def monks_schema() -> Schema:
    attrs = tuple(AttributeSpec(f"a{i + 1}", "continuous") for i in range(6))
    return Schema(attrs, ("0", "1"))


def monks_label(problem: int, row: tuple[int, ...]) -> int:
    a1, a2, a3, a4, a5, a6 = row
    if problem == 1:
        return int(a1 == a2 or a5 == 1)
    if problem == 2:
        return int(sum(v == 1 for v in row) == 2)
    if problem == 3:
        return int((a5 == 3 and a4 == 1) or (a5 != 4 and a2 != 3))
    raise ValueError(f"no such problem: {problem}")


def full_grid() -> list[tuple[int, ...]]:
    """All 432 attribute combinations, last attribute varying fastest."""
    grid = [()]
    for count in MONKS_VALUES:
        grid = [row + (v,) for row in grid for v in range(1, count + 1)]
    return grid


def generate_monks(problem: int) -> tuple[Dataset, Dataset]:
    """Build the (train, test) pair of one problem.

    Deterministic: the stratified training sample and problem 3's noise
    flips come from fixed seeds. Training rows keep grid order.
    """
    if problem not in _TRAIN_MAKEUP:
        raise ValueError(f"no such problem: {problem}")
    schema = monks_schema()
    grid = full_grid()
    labels = [monks_label(problem, row) for row in grid]

    values = np.array(grid, dtype=np.float64)
    test = Dataset(schema, values, labels)

    rng = np.random.default_rng(_SAMPLE_SEEDS[problem])
    chosen: list[int] = []
    for cls, want in enumerate(_TRAIN_MAKEUP[problem]):
        members = np.array([i for i, lab in enumerate(labels) if lab == cls])
        chosen.extend(rng.choice(members, size=want, replace=False))
    chosen.sort()

    train_labels = {i: labels[i] for i in chosen}
    if problem == 3:
        noise = np.random.default_rng(_NOISE_SEED)
        for i in noise.choice(len(chosen), size=_NOISE_FLIPS, replace=False):
            pos = chosen[int(i)]
            train_labels[pos] = 1 - train_labels[pos]

    train = Dataset(schema, values[chosen], [train_labels[i] for i in chosen])
    return train, test


def write_monks_files(directory: str | Path) -> list[Path]:
    """Write all six train/test files in the classic layout.

    Rows look like ``1 2 1 1 2 4 1 data_37``: label first, six attribute
    values, then a row id. Returns the written paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for problem in (1, 2, 3):
        train, test = generate_monks(problem)
        for split, data in (("train", train), ("test", test)):
            path = directory / f"monks-{problem}.{split}"
            lines = [
                " ".join([str(label)] + [str(int(v)) for v in values] + [f"data_{row + 1}"])
                for row, (values, label) in enumerate(zip(data.value_matrix().tolist(), data.labels().tolist()))
            ]
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written
