import json
import random
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from isoset import BoolMatrix

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


def reference_family_json(fp):
    """The family document as json.dumps writes it, the reference layout."""
    doc = {
        "schema_version": 1,
        "meta": fp.meta,
        "universe": fp.universe,
        "row_size": fp.row_size,
        "col_size": fp.col_size,
        "rows": [list(s.elements()) for s in fp.rows],
        "cols": [list(s.elements()) for s in fp.cols],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def naive_neighbours(k, t, c, identity):
    """The pairs adjacent to rep_c with |x & y| >= c, by filtering every pair.

    rep_c = ({0..t-1}, {0..c-1} + {t..2t-c-1}) in 0-based elements.  Every
    (x, y) of t-subsets is tested against it with Python sets: x != rx,
    y != ry, and the cross intersections x & ry, rx & y are both empty
    (identity) or not both nonempty (isolation).  Pairs come as sorted
    element tuples, column subset outer, both in colex order.
    """
    subsets = sorted(combinations(range(k), t), key=lambda s: s[::-1])
    rx, ry = set(range(t)), set(range(c)) | set(range(t, 2 * t - c))
    out = []
    for y in subsets:
        for x in subsets:
            if set(x) == rx or set(y) == ry or len(set(x) & set(y)) < c:
                continue
            meets = (bool(set(x) & ry), bool(rx & set(y)))
            if meets == (False, False) or (not identity and meets != (True, True)):
                out.append((x, y))
    return out


def naive_compat_graph(k, t, identity):
    """The full isolation (or identity) compatibility graph, with Python sets.

    Vertices are the pairs (x, y) of intersecting t-subsets of 0-based
    elements, as frozensets, column subset outer, both in colex order.  Two
    vertices are adjacent when x1 != x2, y1 != y2, and the cross
    intersections x1 & y2, x2 & y1 are both empty (identity) or not both
    nonempty (isolation).  Returns the vertices and each one's neighbour set.
    """
    subsets = [frozenset(s) for s in sorted(combinations(range(k), t), key=lambda s: s[::-1])]
    vertices = [(x, y) for y in subsets for x in subsets if x & y]
    neighbours = [set() for _ in vertices]
    for u, v in combinations(range(len(vertices)), 2):
        (x1, y1), (x2, y2) = vertices[u], vertices[v]
        cross = (bool(x1 & y2), bool(x2 & y1))
        fits = not any(cross) if identity else not all(cross)
        if x1 != x2 and y1 != y2 and fits:
            neighbours[u].add(v)
            neighbours[v].add(u)
    return vertices, neighbours


def naive_star_cover_holds(k, t):
    """Whether the k element stars cover the ones of A(k, t), with Python sets.

    Star e holds every (x, y) of t-subsets with e in both.  Each star must
    be all ones (x meets y) and their union every intersecting pair; then
    the Boolean rank of A(k, t), and so the size of any isolation set, is
    at most k.
    """
    subsets = [frozenset(s) for s in combinations(range(k), t)]
    ones = {(x, y) for x in subsets for y in subsets if x & y}
    stars = [{(x, y) for x in subsets if e in x for y in subsets if e in y} for e in range(k)]
    return all(star <= ones for star in stars) and set().union(*stars) == ones


def naive_triangular(a, b, k):
    """Most pairs (A_i, B_i) of a- and b-subsets of [k] with A_i meeting B_j exactly when i >= j.

    The next pair's A must meet every earlier B and its own B, and its B
    must miss every earlier A, so how far a sequence extends depends only
    on the union of its As and the set of its Bs, on which the search is
    memoised.  Every subset is tried at every step, with Python sets.
    """
    a_sets = [frozenset(s) for s in combinations(range(1, k + 1), a)]
    b_sets = [frozenset(s) for s in combinations(range(1, k + 1), b)]

    @cache
    def longest(union_a, bs):
        return max(
            (
                1 + longest(union_a | x, bs | {y})
                for x in a_sets
                if all(x & y_old for y_old in bs)
                for y in b_sets
                if x & y and not y & union_a
            ),
            default=0,
        )

    return longest(frozenset(), frozenset())


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


def closure_maximal_rectangles(grid):
    """Every maximal all-ones rectangle of a 0/1 grid, as (row set, col set).

    A rectangle is maximal exactly when its row set is closed: it is every
    row holding all of its common columns.  The closed row sets with a
    nonempty column set are the closures of the single rows and of the
    unions of two closed sets, so they are grown from the single rows until
    no union gives a new one.
    """
    rows, cols = range(len(grid)), range(len(grid[0]))

    def common(row_set):
        return frozenset(j for j in cols if all(grid[i][j] for i in row_set))

    def closure(row_set):
        shared = common(row_set)
        return frozenset(i for i in rows if all(grid[i][j] for j in shared)), shared

    found = {}
    todo = [closure({i}) for i in rows if any(grid[i])]
    while todo:
        row_set, shared = todo.pop()
        if not shared or row_set in found:
            continue
        found[row_set] = shared
        todo.extend(closure(row_set | other) for other in list(found))
    return list(found.items())


def ilp_boolean_rank(grid):
    """Boolean rank of a 0/1 grid as a set-cover integer program.

    One binary variable per maximal rectangle (closure_maximal_rectangles),
    one constraint per one: the rectangles holding it sum to at least 1.
    The fewest rectangles is solved by scipy's HiGHS MILP solver, which
    shares no code with the library's rank engine.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    ones = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v]
    if not ones:
        return 0
    rects = closure_maximal_rectangles(grid)
    holds = np.array(
        [[i in row_set and j in col_set for row_set, col_set in rects] for i, j in ones],
        dtype=float,
    )
    n = len(rects)
    result = milp(
        np.ones(n),
        constraints=LinearConstraint(holds, lb=1),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
    )
    assert result.status == 0, result.message
    return round(result.fun)


def naive_greedy_cover(rect_masks, full):
    """Greedy cover of the bits of full by rect_masks, as indices.

    Every round rescans every mask and takes the first one holding the most
    uncovered bits.
    """
    uncovered, picks = full, []
    while uncovered:
        gains = [(mask & uncovered).bit_count() for mask in rect_masks]
        pick = gains.index(max(gains))
        picks.append(pick)
        uncovered &= ~rect_masks[pick]
    return picks


def permute(m, seed):
    """The rows and the columns of m, each in a seeded random order.

    Permuting rows and columns changes neither the Boolean rank nor the
    largest fooling set, but it does change row-major greedy choices.
    """
    rng = random.Random(seed)
    row_order = rng.sample(range(m.n_rows), m.n_rows)
    col_order = rng.sample(range(m.n_cols), m.n_cols)
    return BoolMatrix.from_rows(
        [[m.rows[i] >> j & 1 for j in col_order] for i in row_order]
    )


def naive_max_fooling_set(grid):
    """Most ones of a 0/1 grid of which no two lie in one all-ones rectangle.

    Ones (i, j) and (i2, j2) clash when grid[i][j2] and grid[i2][j] are both
    1, which covers a shared row or column.  Subsets of the ones are tried
    by size; every subset of a fooling set is one, so the first size with
    none ends the search.
    """
    ones = [(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v]

    def fooling(cells):
        return all(
            not (grid[i][j2] and grid[i2][j])
            for (i, j), (i2, j2) in combinations(cells, 2)
        )

    size = 0
    while any(fooling(cells) for cells in combinations(ones, size + 1)):
        size += 1
    return size
