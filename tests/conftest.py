from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
settings.load_profile("deterministic")

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def golden_dir() -> Path:
    return GOLDEN


def naive_pattern(rows, cols):
    """Plain set-based intersection grid, independent of the bit-packed path."""
    return [
        [1 if set(r) & set(c) else 0 for c in cols]
        for r in rows
    ]


def elements_of(fp):
    """Row and column element tuples of a family, for naive cross-checks."""
    return [s.elements() for s in fp.rows], [s.elements() for s in fp.cols]


def naive_boolean_rank(grid):
    """Fewest all-ones rectangles whose union is the ones of a 0/1 grid.

    Every nonempty row subset gives a maximal rectangle: its common columns
    and every row holding all of them.  Covers are then tried by size over
    all combinations of those rectangles.
    """
    rows, cols = range(len(grid)), range(len(grid[0]))
    ones = {(i, j) for i in rows for j in cols if grid[i][j]}
    rects = set()
    for size in rows:
        for subset in combinations(rows, size + 1):
            common = [j for j in cols if all(grid[i][j] for i in subset)]
            if common:
                holders = [i for i in rows if all(grid[i][j] for j in common)]
                rects.add(frozenset((i, j) for i in holders for j in common))
    return next(
        r
        for r in range(len(rects) + 1)
        if any(set().union(*cover) == ones for cover in combinations(rects, r))
    )
