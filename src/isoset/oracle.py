"""Brute-force ground truth on small instances.

Exact maximum isolation set, maximum identity submatrix, and maximum
triangular family of the full t-subset intersection matrix, plus the exact
Boolean rank (minimum biclique cover) of a 0/1 matrix.  Searches are
single-threaded and deterministic: budgets are counted in search nodes, so
identical inputs yield identical results including node counts.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb

from .core import (
    BoolMatrix,
    FamilyPair,
    RangeError,
    SearchResult,
    Subset,
    _element_index,
    check_cap,
    enumerate_t_subsets,
    iter_bits,
)


@dataclass(frozen=True)
class RankBudget:
    """Node and enumeration caps for the brute-force searches."""

    max_nodes: int = 10_000_000
    max_bicliques: int = 50_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.max_bicliques < 1:
            raise ValueError("budget caps must be positive")


@dataclass(frozen=True)
class CompatGraph:
    """Compatibility graph over the 1-entries of the intersection matrix.

    Vertices are the intersecting (row subset, col subset) pairs in fixed
    colexicographic pair order (column subset is the outer key, both in
    colex subset order); cliques are exactly the families realizing the
    target pattern.
    """

    vertices: tuple[tuple[Subset, Subset], ...]
    adjacency: tuple[int, ...]


class _BudgetExhausted(Exception):
    pass


def _intersecting_pairs(k: int, t: int, max_dim: int | None = None) -> list[tuple[int, int]]:
    """The 1-entries (x, y) of A(k, t) as bit masks, in colex pair order.

    The column subset is the outer key; both run in colex subset order.
    Raises ResourceLimitError when C(k, t) exceeds the dimension cap.
    """
    check_cap(comb(k, t), f"rows of A_({k},{t})", max_dim)
    masks = [s.bits for s in enumerate_t_subsets(k, t)]
    return [(x, y) for y in masks for x in masks if x & y]


def _compatible(
    pairs: list[tuple[int, int]], probes: list[tuple[int, int]], identity: bool
) -> list[int]:
    """For each probe (x1, y1), the mask of the pairs (x2, y2) adjacent to it.

    The adjacency rule of both compatibility graphs: x1 != x2, y1 != y2,
    and the cross intersections x1 & y2, x2 & y1 are not both nonempty
    (isolation) or are both empty (identity).  Bit i of a mask is pairs[i].
    """
    same_x: dict[int, int] = {}
    same_y: dict[int, int] = {}
    for i, (x, y) in enumerate(pairs):
        same_x[x] = same_x.get(x, 0) | 1 << i
        same_y[y] = same_y.get(y, 0) | 1 << i
    x_has = _element_index(same_x.items())  # element -> pairs whose row subset holds it
    y_has = _element_index(same_y.items())
    full = (1 << len(pairs)) - 1
    out = []
    for x, y in probes:
        x_meets = 0  # pairs whose row subset meets y
        for e in iter_bits(y):
            x_meets |= x_has.get(e, 0)
        y_meets = 0  # pairs whose column subset meets x
        for e in iter_bits(x):
            y_meets |= y_has.get(e, 0)
        clash = x_meets | y_meets if identity else x_meets & y_meets
        out.append(full & ~(clash | same_x.get(x, 0) | same_y.get(y, 0)))
    return out


def compat_graph(k: int, t: int, identity: bool = False, max_dim: int | None = None) -> CompatGraph:
    """Build the isolation (or, with identity=True, identity) compatibility graph.

    Two vertices (x1, y1), (x2, y2) are adjacent when x1 != x2, y1 != y2 and
    the cross intersections x1 & y2, x2 & y1 are not both nonempty; the
    identity graph requires both to be empty.
    """
    pairs = _intersecting_pairs(k, t, max_dim)
    vertices = tuple((Subset(k, x), Subset(k, y)) for x, y in pairs)
    return CompatGraph(vertices, tuple(_compatible(pairs, pairs, identity)))


def _max_clique(adj: Sequence[int], max_nodes: int, floor: int) -> tuple[list[int], int, bool]:
    """Branch-and-bound maximum clique with greedy-coloring bounds.

    Only cliques with more than ``floor`` vertices are sought: a caller that
    already holds a clique of that size passes it as the floor, and every
    branch that cannot beat it is pruned.  The adjacency arrives in search
    order: the caller numbers vertices by non-increasing degree, ties by
    pair order, and a greedy clique taken in that order seeds the incumbent
    when it beats the floor.  At every node the candidates are sorted by
    degree within the candidate set, colored greedily in that order, and
    branched in reverse color order; a vertex of color c cannot extend the
    clique by more than c.  All orderings are index-tiebroken, so node
    counts are reproducible.  Returns (best clique above the floor as
    sorted vertex ids, or [] if none was found, nodes, complete).
    """
    n = len(adj)
    if n == 0:
        return [], 0, True

    cand = (1 << n) - 1
    greedy: list[int] = []
    while cand:
        v = (cand & -cand).bit_length() - 1
        greedy.append(v)
        cand &= adj[v]
    best: list[int] = greedy if len(greedy) > floor else []
    target = max(floor, len(best))  # size a new clique must exceed

    nodes = 0
    clique: list[int] = []

    def expand(cand: int) -> None:
        nonlocal nodes, best, target
        nodes += 1
        if nodes > max_nodes:
            raise _BudgetExhausted
        vs = list(iter_bits(cand))
        vs.sort(key=lambda v: (-(adj[v] & cand).bit_count(), v))
        color_of = {}
        classes: list[int] = []
        for v in vs:
            for i, cls in enumerate(classes):
                if not adj[v] & cls:
                    classes[i] |= 1 << v
                    color_of[v] = i + 1
                    break
            else:
                classes.append(1 << v)
                color_of[v] = len(classes)
        vs.sort(key=lambda v: (color_of[v], v))
        p = cand
        for v in reversed(vs):
            if len(clique) + color_of[v] <= target:
                return
            child = p & adj[v]
            clique.append(v)
            if child:
                expand(child)
            elif len(clique) > target:
                best = clique.copy()
                target = len(best)
            clique.pop()
            p ^= 1 << v
            if len(clique) + p.bit_count() <= target:
                return

    complete = True
    try:
        expand((1 << n) - 1)
    except _BudgetExhausted:
        complete = False
    del expand  # break the closure's reference to itself
    return sorted(best), nodes, complete


def _orbit_clique_search(k: int, t: int, identity: bool, max_nodes: int) -> SearchResult:
    """Maximum clique of a compatibility graph, one orbit representative at a time.

    S_k acts on the 1-entries (x, y) of A(k, t) and preserves both graphs;
    its orbits are the values c = |x & y| = 1..t.  A maximum clique can be
    moved onto one holding the representative rep_c = ({1..t}, {1..c} +
    {t+1..2t-c}) of the smallest c among its vertices, so for each c in
    turn (orbits with 2t - c > k are empty) the search runs on the
    neighbours of rep_c with |x & y| >= c: earlier orbits are dropped, as
    every clique meeting them was covered there.  The full graph is never
    built.  The best clique so far is carried across as the floor of the
    next subproblem, and all subproblems draw on one node budget.
    """
    pairs = _intersecting_pairs(k, t)
    best: list[tuple[int, int]] = []
    nodes = 0
    complete = True
    orbits = [c for c in range(1, t + 1) if 2 * t - c <= k]
    reps = [((1 << t) - 1, ((1 << c) - 1) | (((1 << (t - c)) - 1) << t)) for c in orbits]
    for c, rep, near in zip(orbits, reps, _compatible(pairs, reps, identity)):
        sub = [pairs[i] for i in iter_bits(near) if (pairs[i][0] & pairs[i][1]).bit_count() >= c]
        degree = [a.bit_count() for a in _compatible(sub, sub, identity)]
        sub = [sub[v] for v in sorted(range(len(sub)), key=lambda v: -degree[v])]  # stable
        clique, used, complete = _max_clique(
            _compatible(sub, sub, identity), max_nodes - nodes, len(best) - 1
        )
        nodes += used
        if len(clique) + 1 > len(best):
            best = [rep] + [sub[v] for v in clique]
        if not complete:
            break
    best.sort(key=lambda p: (p[1], p[0]))  # colex pair order, as in compat_graph
    rows = tuple(Subset(k, x) for x, _ in best)
    cols = tuple(Subset(k, y) for _, y in best)
    kind = "identity" if identity else "isolation"
    witness = FamilyPair(k, t, t, rows, cols, {"search": kind, "k": k, "t": t})
    return SearchResult(len(best), witness, nodes, complete)


def max_isolation_bruteforce(k: int, t: int, budget: RankBudget | None = None) -> SearchResult:
    """Exact maximum isolation set of the full intersection matrix.

    Maximum clique in the isolation compatibility graph, searched in the
    neighbourhood of each S_k orbit representative in turn with earlier
    orbits dropped and the incumbent carried over; on an exhausted node
    budget the best clique found so far is returned (complete=False).
    """
    budget = budget or RankBudget()
    return _orbit_clique_search(k, t, False, budget.max_nodes)


def max_identity_bruteforce(k: int, t: int, budget: RankBudget | None = None) -> SearchResult:
    """Exact maximum identity submatrix of the full intersection matrix.

    Same orbit-representative clique search on the stricter graph requiring
    both cross intersections of every vertex pair to be empty.
    """
    budget = budget or RankBudget()
    return _orbit_clique_search(k, t, True, budget.max_nodes)


def max_triangular_bruteforce(a: int, b: int, k: int, budget: RankBudget | None = None) -> SearchResult:
    """Exact maximum triangular family over [k] with row size a, col size b.

    Depth-first extension of pair sequences (A_i, B_i) where A_i must meet
    every earlier B_j and B_i must avoid every earlier A_j.  Completeness-
    preserving reductions under universe relabeling: the first pair is
    canonical per overlap size (A_1 = {1..a}, B_1 = {1..c} + {a+1..a+b-c}),
    and later pairs introduce fresh elements only as the next consecutive
    integers.  Explored states, keyed by (union of rows, set of columns),
    are memoized and never re-expanded.
    """
    if a < 1 or b < 1:
        raise RangeError(f"need a >= 1 and b >= 1, got a={a}, b={b}")
    if max(a, b) > k:
        raise RangeError(f"need k >= max(a, b) = {max(a, b)}, got k={k}")
    check_cap(comb(k, a) * comb(k, b), "candidate pairs")
    budget = budget or RankBudget()

    # canonical first pairs, one per overlap c; c = min(a, b) fits as max(a, b) <= k
    firsts = [
        ((1 << a) - 1, ((1 << c) - 1) | (((1 << (b - c)) - 1) << a), a + b - c)
        for c in range(1, min(a, b) + 1)
        if a + b - c <= k
    ]
    nodes = 0
    best: tuple = (firsts[0][:2],)  # a single meeting pair is already triangular
    path: list[tuple[int, int]] = []
    visited: set = set()

    def candidates(union_a: int, bs: tuple[int, ...], u: int) -> list[tuple[int, int, int]]:
        out = []
        for fa in range(a + 1):
            if u + fa > k:
                break
            if a - fa > u:
                continue
            fresh_a = ((1 << fa) - 1) << u
            ua = u + fa
            pool = list(iter_bits(~union_a & ((1 << ua) - 1)))
            for old_a in combinations(range(u), a - fa):
                amask = fresh_a
                for e in old_a:
                    amask |= 1 << e
                if any(not amask & bm for bm in bs):
                    continue
                for fb in range(b + 1):
                    if ua + fb > k:
                        break
                    if b - fb > len(pool):
                        continue
                    fresh_b = ((1 << fb) - 1) << ua
                    for old_b in combinations(pool, b - fb):
                        bmask = fresh_b
                        for e in old_b:
                            bmask |= 1 << e
                        if bmask & amask:
                            out.append((amask, bmask, ua + fb))
        return out

    def extend(union_a: int, bs: tuple[int, ...], u: int) -> None:
        nonlocal nodes, best
        nodes += 1
        if nodes > budget.max_nodes:
            raise _BudgetExhausted
        if len(path) > len(best):
            best = tuple(path)
        key = (union_a, frozenset(bs))
        if key in visited:
            return
        visited.add(key)
        cands = firsts if not path else candidates(union_a, bs, u)
        for amask, bmask, u2 in cands:
            path.append((amask, bmask))
            extend(union_a | amask, bs + (bmask,), u2)
            path.pop()

    complete = True
    try:
        extend(0, (), 0)
    except _BudgetExhausted:
        complete = False
    del extend  # break the closure's reference to itself

    rows = tuple(Subset(k, amask) for amask, _ in best)
    cols = tuple(Subset(k, bmask) for _, bmask in best)
    witness = FamilyPair(k, a, b, rows, cols, {"search": "triangular", "a": a, "b": b, "k": k})
    return SearchResult(len(best), witness, nodes, complete)


def fooling_lower_bound(m: BoolMatrix) -> int:
    """Size of a greedily built isolation set of entries of m.

    Scans 1-entries in row-major order and keeps an entry whenever it
    shares no row or column with the entries kept so far and closes no
    all-ones 2x2 submatrix with any of them.  Always a lower bound on the
    Boolean rank.
    """
    chosen: list[tuple[int, int]] = []
    for i, row in enumerate(m.rows):
        for j in iter_bits(row):
            if all(
                p != i and q != j and not (row >> q & 1 and m.rows[p] >> j & 1)
                for p, q in chosen
            ):
                chosen.append((i, j))
    return len(chosen)


def _maximal_bicliques(m: BoolMatrix, cap: int) -> tuple[list[tuple[int, int]], bool]:
    """All maximal all-ones submatrices as (row mask, col mask) pairs.

    Column sets of maximal rectangles are exactly the nonempty intersections
    of row supports; the closure is expanded breadth-first and deduplicated
    by row-set key.  Returns (rectangles sorted by masks, complete flag);
    hitting the cap yields a partial list with complete=False.
    """
    supports = sorted({mask for mask in m.rows if mask})
    closed = set(supports)
    queue = list(supports)
    complete = len(closed) <= cap
    qi = 0
    while qi < len(queue) and complete:
        c = queue[qi]
        qi += 1
        for s in supports:
            x = c & s
            if x and x not in closed:
                if len(closed) >= cap:
                    complete = False
                    break
                closed.add(x)
                queue.append(x)
    rects = {}
    for cmask in sorted(closed):
        rmask = 0
        for i, row in enumerate(m.rows):
            if cmask & ~row == 0:
                rmask |= 1 << i
        rects[rmask] = cmask
    return sorted(rects.items()), complete


def boolean_rank_exact(m: BoolMatrix, budget: RankBudget | None = None) -> SearchResult:
    """Exact minimum number of all-ones rectangles covering the ones of m.

    Enumerates maximal rectangles, then runs branch-and-bound set cover
    over the 1-entries, branching on the uncovered entry contained in the
    fewest rectangles and pruning with a greedy isolation-set lower bound.
    Entry (i, j), 0-based, is bit i * n_cols + j when at least half the
    cells of m are ones, else bit k for the k-th one; both run row-major, so
    results agree and the root bound is fooling_lower_bound's greedy.  The
    witness is a tuple of rectangles (row indices, col indices), 1-based.
    Incomplete runs (rectangle cap or node budget) report the best cover
    found as ``optimum`` and that root bound in ``lower_bound``.
    """
    budget = budget or RankBudget()
    total_ones = m.count_ones()
    check_cap(total_ones, "one-entries")
    if total_ones == 0:
        return SearchResult(0, (), 0, True, 0)

    rects, enum_complete = _maximal_bicliques(m, budget.max_bicliques)
    # the entry set of the ones of row i in cols, a subset of row i
    w = m.n_cols
    dense = m.n_rows * w <= 2 * total_ones
    starts = list(accumulate((row.bit_count() for row in m.rows), initial=0))

    def place(i: int, cols: int) -> int:
        if dense:
            return cols << i * w
        before = ((m.rows[i] & (1 << j) - 1).bit_count() for j in iter_bits(cols))
        return sum(1 << starts[i] + b for b in before)

    full = sum(place(i, row) for i, row in enumerate(m.rows))
    rect_masks = [sum(place(i, cmask) for i in iter_bits(rmask)) for rmask, cmask in rects]
    entry_rects: list[list[int]] = [[] for _ in range(full.bit_length())]
    for ri, rm in enumerate(rect_masks):
        for x in iter_bits(rm):
            entry_rects[x].append(ri)

    # ones (i, j) and (i2, j2) are compatible unless m[i][j2] and m[i2][j],
    # which also holds when they share a row or a column
    cols = m.transpose().rows
    compat = [0] * full.bit_length()
    for i, row in enumerate(m.rows):
        for j in iter_bits(row):
            clash = sum(place(i2, row & m.rows[i2]) for i2 in iter_bits(cols[j]))
            compat[place(i, 1 << j).bit_length() - 1] = full & ~clash

    def isolation_bound(uncovered: int) -> int:
        count = 0
        allowed = uncovered
        while allowed:
            low = allowed & -allowed
            count += 1
            allowed &= compat[low.bit_length() - 1]
        return count

    # incumbent: one rectangle per nonzero row is always a valid cover
    best_cover: list[tuple[int, int]] = [
        (1 << i, m.rows[i]) for i in range(m.n_rows) if m.rows[i]
    ]
    covered_by_rects = 0
    for rm in rect_masks:
        covered_by_rects |= rm
    if covered_by_rects == full:
        uncovered = full
        greedy: list[int] = []
        while uncovered:
            gain, pick = 0, -1
            for ri, rm in enumerate(rect_masks):
                g = (rm & uncovered).bit_count()
                if g > gain:
                    gain, pick = g, ri
            greedy.append(pick)
            uncovered &= ~rect_masks[pick]
        if len(greedy) < len(best_cover):
            best_cover = [rects[ri] for ri in greedy]

    nodes = 0
    chosen: list[int] = []

    def dfs(covered: int) -> None:
        nonlocal nodes, best_cover
        nodes += 1
        if nodes > budget.max_nodes:
            raise _BudgetExhausted
        if covered == full:
            if len(chosen) < len(best_cover):
                best_cover = [rects[ri] for ri in chosen]
            return
        uncovered = full & ~covered
        if len(chosen) + isolation_bound(uncovered) >= len(best_cover):
            return
        branch = min(iter_bits(uncovered), key=lambda x: len(entry_rects[x]))
        if not entry_rects[branch]:
            return  # entry not covered by any enumerated rectangle
        for ri in entry_rects[branch]:
            chosen.append(ri)
            dfs(covered | rect_masks[ri])
            chosen.pop()

    search_complete = True
    try:
        dfs(0)
    except _BudgetExhausted:
        search_complete = False
    del dfs  # break the closure's reference to itself

    complete = enum_complete and search_complete
    optimum = len(best_cover)
    witness = tuple(
        (Subset(m.n_rows, rmask).elements(), Subset(m.n_cols, cmask).elements())
        for rmask, cmask in best_cover
    )
    lower = optimum if complete else isolation_bound(full)
    return SearchResult(optimum, witness, nodes, complete, lower)


def cover_to_factors(
    cover: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    n_rows: int,
    n_cols: int,
) -> tuple[BoolMatrix, BoolMatrix]:
    """Express a rectangle cover as Boolean factors X (n x r) and Y (r x n).

    Column i of X is the indicator of the i-th rectangle's rows and row i of
    Y the indicator of its columns, so the Boolean product X*Y is the union
    of the rectangles.
    """
    r = len(cover)
    if r == 0:
        raise ValueError("cannot factor an empty cover")
    x_rows = [0] * n_rows
    y_rows = []
    for idx, (rect_rows, rect_cols) in enumerate(cover):
        for i in rect_rows:
            x_rows[i - 1] |= 1 << idx
        ymask = 0
        for j in rect_cols:
            ymask |= 1 << (j - 1)
        y_rows.append(ymask)
    return BoolMatrix(n_rows, r, tuple(x_rows)), BoolMatrix(r, n_cols, tuple(y_rows))
