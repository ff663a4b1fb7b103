"""Brute-force ground truth on small instances.

Exact maximum isolation set, maximum identity submatrix, and maximum
triangular family of the full t-subset intersection matrix, plus the exact
Boolean rank (minimum biclique cover) of a 0/1 matrix.  Searches are
single-threaded and deterministic: budgets are counted in search nodes, so
identical inputs yield identical results including node counts.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import accumulate, combinations, pairwise
from math import comb

from .core import (
    BoolMatrix,
    FamilyPair,
    RangeError,
    SearchResult,
    Subset,
    _element_index,
    _meeting,
    _transpose,
    check_cap,
    enumerate_t_subsets,
    iter_bits,
)


# the rank solver enumerates at most this many maximal all-ones rectangles
MAX_RECTANGLES = 50_000


@dataclass(frozen=True)
class RankBudget:
    """Node cap for the brute-force searches."""

    max_nodes: int = 10_000_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")


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


class _Nodes:
    """The node budget of one search call, shared by all of its stages.

    A search counts each node with ``tick``, which raises _BudgetExhausted
    at the first node past ``max_nodes``; ``run`` turns that into a flag.
    The count stops at that node, and a stage skipped on a spent budget
    counts it too, so an exhausted call reports max_nodes + 1 nodes.
    """

    def __init__(self, max_nodes: int) -> None:
        self.max_nodes = max_nodes
        self.count = 0

    def left(self) -> bool:
        """Whether a node is left; if not, count the node a stage would stop on."""
        if self.count < self.max_nodes:
            return True
        self.count = self.max_nodes + 1
        return False

    def tick(self) -> None:
        if not self.left():
            raise _BudgetExhausted
        self.count += 1

    def run(self, search: Callable[..., object], *args: object) -> bool:
        """Call search(*args); False when the budget ran out inside it."""
        try:
            search(*args)
        except _BudgetExhausted:
            return False
        return True


def _compatible(pairs: list[tuple[int, int]], identity: bool) -> list[int]:
    """For each pair (x1, y1), the mask of the pairs (x2, y2) adjacent to it.

    The adjacency rule of both compatibility graphs: x1 != x2, y1 != y2,
    and the cross intersections x1 & y2, x2 & y1 are not both nonempty
    (isolation) or are both empty (identity).  Bit i of a mask is pairs[i].
    Every pair must be a one (x & y nonempty).  Then the clash set of
    (x, y) already holds each (x, y2) and (x2, y), as x meets y, y2 meets x
    and x2 meets y, so the first two conditions need no mask of their own.
    Pairs may repeat an x or a y.  Callers: compat_graph and
    _orbit_clique_search on t-subset pairs, and boolean_rank_exact on the
    ones (i, j) of a matrix as (row i's support, {j}), for fooling sets.
    """
    same_x: dict[int, int] = {}
    same_y: dict[int, int] = {}
    for i, (x, y) in enumerate(pairs):
        same_x[x] = same_x.get(x, 0) | 1 << i
        same_y[y] = same_y.get(y, 0) | 1 << i
    x_has = _element_index(same_x.items())  # element -> pairs whose row subset holds it
    y_has = _element_index(same_y.items())
    x_meets = {y: _meeting(x_has, y) for y in same_y}  # pairs whose row subset meets y
    y_meets = {x: _meeting(y_has, x) for x in same_x}  # pairs whose column subset meets x
    full = (1 << len(pairs)) - 1
    out = []
    for x, y in pairs:
        clash = x_meets[y] | y_meets[x] if identity else x_meets[y] & y_meets[x]
        out.append(full ^ clash)
    return out


def compat_graph(k: int, t: int, identity: bool = False) -> CompatGraph:
    """Build the isolation (or, with identity=True, identity) compatibility graph.

    Two vertices (x1, y1), (x2, y2) are adjacent when x1 != x2, y1 != y2 and
    the cross intersections x1 & y2, x2 & y1 are not both nonempty; the
    identity graph requires both to be empty.  Raises ResourceLimitError
    when C(k, t) exceeds the dimension cap.
    """
    masks = [s.bits for s in enumerate_t_subsets(k, t)]
    pairs = [(x, y) for y in masks for x in masks if x & y]  # colex pair order
    vertices = tuple((Subset(k, x), Subset(k, y)) for x, y in pairs)
    return CompatGraph(vertices, tuple(_compatible(pairs, identity)))


def _neighbours(
    masks: Sequence[int], rep: tuple[int, int], c: int, identity: bool
) -> list[tuple[int, int]]:
    """The pairs (x, y) with |x & y| >= c adjacent to rep, in colex pair order.

    ``masks`` are the t-subsets in colex order.  By the rule of _compatible,
    with rep = (rx, ry): x != rx, y != ry, and x & ry, rx & y are both empty
    (identity) or not both nonempty (isolation).  So in the identity graph
    y misses rx and x misses ry; in the isolation graph x misses ry only
    where y meets rx.
    """
    rx, ry = rep
    miss_ry = [x for x in masks if not x & ry]
    out = []
    for y in masks:
        if y == ry:
            continue
        if y & rx:
            if identity:
                continue
            xs = miss_ry
        else:
            xs = miss_ry if identity else masks
        out.extend((x, y) for x in xs if x != rx and (x & y).bit_count() >= c)
    return out


def _first_pairs(a: int, b: int, k: int) -> list[tuple[int, int]]:
    """The S_k orbit representatives of the meeting (a-subset, b-subset) pairs of [k].

    One per overlap c = |A & B|, c ascending: ({1..a}, {1..c} + {a+1..a+b-c}).
    """
    return [
        ((1 << a) - 1, ((1 << c) - 1) | (((1 << (b - c)) - 1) << a))
        for c in range(1, min(a, b) + 1)
        if a + b - c <= k
    ]


def _greedy_clique(adj: Sequence[int], vertices: int, order: list[int]) -> list[int]:
    """The clique taken greedily in ``order`` from the set bits of ``vertices``."""
    cand = vertices
    greedy: list[int] = []
    for v in order:  # cand only shrinks, so one pass meets its lowest-rank vertex first
        if cand >> v & 1:
            greedy.append(v)
            cand &= adj[v]
    return greedy


def _max_clique(
    adj: Sequence[int], vertices: int, nodes: _Nodes, floor: int, ceiling: int
) -> tuple[list[int], bool]:
    """Branch-and-bound maximum clique with bit-parallel colouring bounds.

    The graph is ``adj`` restricted to the set bits of ``vertices``.  Only
    cliques with more than ``floor`` vertices are sought: a caller that
    already holds a clique of that size passes it as the floor, and every
    branch that cannot beat it is pruned.  ``ceiling`` is a proven upper
    bound on the clique number: a clique of that size, the greedy seed
    included, ends the search as complete.  The vertices are ranked once
    by non-increasing degree, ties by index, and a greedy clique taken in
    rank order seeds the incumbent when it beats the floor.  At every node
    the candidates are coloured in index order (San Segundo, Rodriguez-
    Losada & Jimenez, Comput. Oper. Res. 2011): each colour class is peeled
    off the uncoloured mask, lowest index first, by dropping the neighbours
    of every vertex it takes.  A vertex of colour c cannot extend the
    clique by more than c, so only the vertices whose colour can still beat
    the target are listed, and they are branched in reverse colour order.
    Peeling follows the index order, so a caller that numbers its vertices
    by non-increasing degree gets tighter colourings.  Returns (best clique
    above the floor as sorted vertex ids, at most ``ceiling`` of them, or
    [] if none was found, complete).
    """
    order = sorted(iter_bits(vertices), key=lambda v: -(adj[v] & vertices).bit_count())
    greedy = _greedy_clique(adj, vertices, order)
    best: list[int] = greedy[:ceiling] if len(greedy) > floor else []
    target = max(floor, len(best))  # size a new clique must exceed
    if not vertices or target >= ceiling:
        return sorted(best), True

    clique: list[int] = []

    def expand(cand: int) -> bool:
        """Search below the current clique; True once it reaches the ceiling."""
        nonlocal best, target
        nodes.tick()
        least = target - len(clique)  # a listed vertex needs a colour above this
        listed: list[tuple[int, int]] = []  # (colour, vertex), colours non-decreasing
        colour = 0
        uncoloured = cand
        while uncoloured:
            colour += 1
            q = uncoloured
            while q:
                low = q & -q
                v = low.bit_length() - 1
                q ^= q & adj[v] | low
                uncoloured ^= low
                if colour > least:
                    listed.append((colour, v))
        p = cand
        for colour, v in reversed(listed):
            if len(clique) + colour <= target:
                return False
            clique.append(v)
            if len(clique) == ceiling:
                best = clique.copy()
                return True
            child = p & adj[v]
            if child:
                if expand(child):
                    return True
            elif len(clique) > target:
                best = clique.copy()
                target = len(best)
            clique.pop()
            p ^= 1 << v
        return False

    complete = nodes.run(expand, vertices)
    del expand  # break the closure's reference to itself
    return sorted(best), complete


def _orbit_clique_search(
    k: int, t: int, identity: bool, max_nodes: int, ceiling: int
) -> SearchResult:
    """Maximum clique of a compatibility graph, one orbit representative at a time.

    S_k acts on the 1-entries (x, y) of A(k, t) and preserves both graphs;
    its orbits are the values c = |x & y| = 1..t.  A maximum clique can be
    moved onto one holding the representative rep_c (_first_pairs) of the
    smallest c among its vertices, so for each c in turn the search runs on
    the neighbours of rep_c with |x & y| >= c: earlier orbits are dropped,
    as every clique meeting them was covered there.  The full graph is never
    built, nor is the pair list outside each neighbourhood: _neighbours
    lists it straight from the t-subsets.  _max_clique colours in index
    order, so each subgraph is numbered by non-increasing degree (a stable
    sort, ties in colex pair order): the degrees come from a first
    _compatible build and the search runs on a second build in that order.
    The greedy clique in that order is the search's own seed, so it is
    taken on the first build; when it meets the ceiling the second build
    and the search are skipped.
    The best clique so far is carried across as the floor of the next
    subproblem, and all subproblems draw on one node budget.  ``ceiling``
    is a proven upper bound on the clique size: each subproblem gets
    ceiling - 1, as rep_c is one more entry, and once a clique of
    ``ceiling`` entries is held the remaining orbits are skipped.
    """
    masks = [s.bits for s in enumerate_t_subsets(k, t)]
    best: list[tuple[int, int]] = []
    nodes = _Nodes(max_nodes)
    complete = True
    for rep in _first_pairs(t, t, k):
        if len(best) >= ceiling:
            break
        sub = _neighbours(masks, rep, (rep[0] & rep[1]).bit_count(), identity)
        adj = _compatible(sub, identity)
        order = sorted(range(len(sub)), key=lambda v: -adj[v].bit_count())
        everyone = (1 << len(sub)) - 1
        # _max_clique would take this same greedy clique first, so when it
        # already meets the ceiling the renumbered build is not needed
        clique = _greedy_clique(adj, everyone, order)
        if len(clique) >= ceiling - 1:
            clique = clique[: ceiling - 1]
        else:
            del adj  # released before the second build, so the two never coexist
            sub = [sub[v] for v in order]
            clique, complete = _max_clique(
                _compatible(sub, identity), everyone, nodes, len(best) - 1, ceiling - 1
            )
        if len(clique) + 1 > len(best):
            best = [rep] + [sub[v] for v in clique]
        if not complete:
            break
    best.sort(key=lambda p: (p[1], p[0]))  # colex pair order, as in compat_graph
    meta = {"search": "identity" if identity else "isolation", "k": k, "t": t}
    witness = FamilyPair.from_masks(k, t, t, [x for x, _ in best], [y for _, y in best], meta)
    return SearchResult(len(best), witness, nodes.count, complete)


def max_isolation_bruteforce(k: int, t: int, budget: RankBudget | None = None) -> SearchResult:
    """Exact maximum isolation set of the full intersection matrix.

    Maximum clique in the isolation compatibility graph, searched in the
    neighbourhood of each S_k orbit representative in turn with earlier
    orbits dropped and the incumbent carried over; on an exhausted node
    budget the best clique found so far is returned (complete=False).
    The k element stars {x : e in x} x {y : e in y} are all-ones rectangles
    covering A(k, t), so its Boolean rank, and with it the size of any
    isolation set, is at most k: a clique of k entries ends the search as
    complete.
    """
    budget = budget or RankBudget()
    return _orbit_clique_search(k, t, False, budget.max_nodes, k)


def max_identity_bruteforce(k: int, t: int, budget: RankBudget | None = None) -> SearchResult:
    """Exact maximum identity submatrix of the full intersection matrix.

    Same orbit-representative clique search on the stricter graph requiring
    both cross intersections of every vertex pair to be empty.  An identity
    submatrix is an isolation set, so the ceiling k holds here too, but the
    optimum k - 2t + 2 never reaches it.
    """
    budget = budget or RankBudget()
    return _orbit_clique_search(k, t, True, budget.max_nodes, k)


def max_triangular_bruteforce(a: int, b: int, k: int, budget: RankBudget | None = None) -> SearchResult:
    """Exact maximum triangular family over [k] with row size a, col size b.

    Depth-first extension of pair sequences (A_i, B_i) where A_i must meet
    every earlier B_j and B_i must avoid every earlier A_j.  Completeness-
    preserving reductions under universe relabeling: the first pair is
    canonical per overlap size (the representatives of _first_pairs),
    and later pairs introduce fresh elements only as the next consecutive
    integers.  Explored states, keyed by (union of rows, set of columns),
    are memoized and never re-expanded.  No triangular family has more than
    C(a+b, a) - 1 pairs (a bound that follows from Frankl's theorem on skew
    set pairs), so a family of that size ends the search as complete.
    """
    if a < 1 or b < 1:
        raise RangeError(f"need a >= 1 and b >= 1, got a={a}, b={b}")
    if max(a, b) > k:
        raise RangeError(f"need k >= max(a, b) = {max(a, b)}, got k={k}")
    check_cap(comb(k, a) * comb(k, b), "candidate pairs")
    budget = budget or RankBudget()

    # c = min(a, b) fits as max(a, b) <= k, so there is at least one first pair
    firsts = [(x, y, (x | y).bit_length()) for x, y in _first_pairs(a, b, k)]
    ceiling = comb(a + b, a) - 1
    nodes = _Nodes(budget.max_nodes)
    best: tuple = (firsts[0][:2],)  # a single meeting pair is already triangular
    path: list[tuple[int, int]] = []
    visited: set = set()

    def candidates(union_a: int, bs: tuple[int, ...], u: int) -> list[tuple[int, int, int]]:
        out = []
        for fa in range(a + 1):
            if u + fa > k:
                break
            fresh_a = ((1 << fa) - 1) << u
            ua = u + fa
            pool = iter_bits(~union_a & ((1 << ua) - 1))
            for old_a in combinations(range(u), a - fa):
                amask = fresh_a
                for e in old_a:
                    amask |= 1 << e
                if any(not amask & bm for bm in bs):
                    continue
                for fb in range(b + 1):
                    if ua + fb > k:
                        break
                    fresh_b = ((1 << fb) - 1) << ua
                    for old_b in combinations(pool, b - fb):
                        bmask = fresh_b
                        for e in old_b:
                            bmask |= 1 << e
                        if bmask & amask:
                            out.append((amask, bmask, ua + fb))
        return out

    def extend(union_a: int, bs: tuple[int, ...], u: int) -> bool:
        """Extend the path; True once best reaches the ceiling."""
        nonlocal best
        nodes.tick()
        if len(path) > len(best):
            best = tuple(path)
            if len(best) == ceiling:
                return True
        key = (union_a, frozenset(bs))
        if key in visited:
            return False
        visited.add(key)
        cands = firsts if not path else candidates(union_a, bs, u)
        for amask, bmask, u2 in cands:
            path.append((amask, bmask))
            if extend(union_a | amask, bs + (bmask,), u2):
                return True
            path.pop()
        return False

    complete = len(best) == ceiling or nodes.run(extend, 0, (), 0)
    del extend  # break the closure's reference to itself

    meta = {"search": "triangular", "a": a, "b": b, "k": k}
    witness = FamilyPair.from_masks(k, a, b, [x for x, _ in best], [y for _, y in best], meta)
    return SearchResult(len(best), witness, nodes.count, complete)


def fooling_lower_bound(m: BoolMatrix) -> int:
    """Size of a greedily built isolation set of entries of m.

    Scans 1-entries in row-major order and keeps an entry whenever it
    closes no all-ones 2x2 submatrix with the entries kept so far.  Two
    ones in one row or one column always close one, so a row keeps at most
    one entry: the lowest one (i, j) with m[p][j] = 0 for every kept (p, q)
    with m[i][q] = 1.  Always a lower bound on the Boolean rank.
    """
    kept: list[tuple[int, int]] = []  # (row p, bit q) of each kept one (p, q)
    for row in m.rows:
        free = row
        for row_p, q in kept:
            if row & q:
                free &= ~row_p
        if free:
            kept.append((row, free & -free))
    return len(kept)


def _maximal_bicliques(m: BoolMatrix, cap: int) -> tuple[list[tuple[int, int]], bool]:
    """All maximal all-ones submatrices as (row mask, col mask) pairs.

    Column sets of maximal rectangles are exactly the nonempty intersections
    of row supports; the closure is expanded breadth-first.  A closed column
    set is the common support of the rows holding it, which are the rows
    with no 0 in it, so each one gives its own rectangle.  Returns
    (rectangles sorted by masks, complete flag); hitting the cap yields a
    partial list with complete=False.
    """
    supports = sorted({mask for mask in m.rows if mask})
    closed = set(supports)
    queue = list(supports)
    complete = len(closed) <= cap
    for c in queue:
        if not complete:
            break
        for s in supports:
            x = c & s
            if x and x not in closed:
                if len(closed) >= cap:
                    complete = False
                    break
                closed.add(x)
                queue.append(x)
    width = (1 << m.n_cols) - 1
    zeros = _element_index((width & ~row, 1 << i) for i, row in enumerate(m.rows))
    everyone = (1 << m.n_rows) - 1
    return sorted((everyone & ~_meeting(zeros, c), c) for c in closed), complete


def _widest_weight_class(masks: Sequence[int]) -> int:
    """The most distinct nonzero masks that share one weight."""
    widths = Counter(mask.bit_count() for mask in set(masks) if mask)
    return max(widths.values(), default=0)


def _antichain_bound(masks: Sequence[int]) -> int:
    """Least r with C(r, r // 2) at least the most distinct nonzero masks of one weight.

    In a factorization through [r], X_i inside X_i' forces row i inside row
    i'.  Distinct rows of equal weight are pairwise incomparable, so their
    sets form an antichain of subsets of [r], which by Sperner's theorem has
    at most C(r, r // 2) members.  The columns bound the rank the same way.
    """
    most = _widest_weight_class(masks)
    r = 0
    while comb(r, r // 2) < most:
        r += 1
    return r


def _down_set(u: int) -> int:
    """The subsets of u as one mask: bit s is set exactly when s is inside u."""
    mask = 1
    for b in iter_bits(u):
        mask |= mask << (1 << b)
    return mask


def _factor_search(
    m: BoolMatrix, r: int, nodes: _Nodes
) -> tuple[list[tuple[int, int]] | None, bool]:
    """A cover of m by r rectangles, searched as row sets X_i of inner indices [r].

    rank(m) <= r iff rows and columns get subsets of [r] whose intersection
    pattern is m.  Given the row sets, column j does best with [r] minus
    U_j, the union of X_i over the rows with a 0 in column j, so a one
    (i, j) is realized iff X_i is not inside U_j.  Distinct nonzero rows get
    their sets in row order; a zero row gets the empty set and a repeated
    row its first copy's set.  The unions only grow, so every partial
    assignment is checked.  A node gathers its forbidden candidates in one
    mask over the 2^r subsets: the down-set of U_j for each one (i, j) of
    the row, and for each zero (i, j) the up-set of X_i' - U_j for every
    placed row i' with a one in column j, which adding X_i to U_j would
    swallow.  Unused inner indices are interchangeable, so a set takes new
    ones only as the next unused in order.  Candidates are tried a layer
    (a set size) at a time, each layer by value.  The largest class of
    distinct rows of one weight, ``most`` rows, needs pairwise incomparable
    sets, so the layers run by distance from p0, the least p with
    C(r, p) >= most, ties to the smaller p: the search starts where that
    antichain first fits (the t-sets of the element stars for A(k, t)).

    Returns (rectangle l = (rows whose set holds l, their common columns)
    for l = 0..r-1, or None; complete).  None with complete=True refutes
    rank <= r.
    """
    rows = list(dict.fromkeys(mask for mask in m.rows if mask))
    live = 0  # the columns holding a one
    for row in rows:
        live |= row
    # col_rows[j]: the distinct rows with a one in column j
    col_rows = _transpose(rows, m.n_cols)
    inner = (1 << r) - 1
    layers = [1]  # layers[p]: the p-subsets of the inner indices added so far
    for b in range(r):
        layers = [low | high << (1 << b) for low, high in zip(layers + [0], [0] + layers)]
    # no layer holds ``most`` sets only when r is below the rows' antichain
    # bound, which boolean_rank_exact never asks; any order refutes there
    most = _widest_weight_class(rows)
    p0 = next((p for p in range(r + 1) if comb(r, p) >= most), 0)
    groups = [layers[p] for p in sorted(range(r + 1), key=lambda p: (abs(p - p0), p))]
    # fresh[u]: the sets whose indices >= u are u, u+1, ..., u+f-1 for some f
    # (the sets for different f are disjoint, so the sum is their union)
    fresh = [
        sum(((1 << (1 << u)) - 1) << (((1 << f) - 1) << u) for f in range(r - u + 1))
        for u in range(r + 1)
    ]

    xs: list[int] = []
    unions = [0] * m.n_cols

    def assign(used: int) -> bool:
        nodes.tick()
        i = len(xs)
        if i == len(rows):
            return True
        row = rows[i]
        zeros = iter_bits(live & ~row)
        forbidden = 0
        for u in {unions[j] for j in iter_bits(row)}:
            forbidden |= _down_set(u)
        placed = (1 << i) - 1
        for d in {xs[p] & ~unions[j] for j in zeros for p in iter_bits(col_rows[j] & placed)}:
            forbidden |= _down_set(inner & ~d) << d
        allowed = fresh[used] & ~forbidden
        before = [unions[j] for j in zeros]
        for group in groups:
            for s in iter_bits(allowed & group):
                xs.append(s)
                for j in zeros:
                    unions[j] |= s
                if assign(max(used, s.bit_length())):
                    return True
                xs.pop()
                for j, u in zip(zeros, before):
                    unions[j] = u
        return False

    complete = nodes.run(assign, 0)
    del assign  # break the closure's reference to itself
    # a finished search that failed popped every set it placed
    if not complete or len(xs) < len(rows):
        return None, complete
    # the rectangles are the transposes of the factors: row i gets its row's
    # set, and live column j gets every inner index outside U_j
    x_of = dict(zip(rows, xs))
    x = _transpose((x_of.get(row, 0) for row in m.rows), r)
    y = _transpose((inner & ~u if live >> j & 1 else 0 for j, u in enumerate(unions)), r)
    return list(zip(x, y)), True


def _greedy_cover(rect_masks: Sequence[int], full: int) -> list[int]:
    """A greedy cover of the entry set ``full`` by ``rect_masks``, as indices.

    Each round takes the rectangle holding the most uncovered entries, ties
    to the lowest index.  Gains only fall as entries get covered, so a heap
    of stale keys (-gain, index) holds a lower bound on every rectangle's
    fresh key: the top is recounted and taken when its fresh key is still
    no larger than the next stale one, and pushed back otherwise.  The
    rectangles must cover ``full``.
    """
    heap = [(-rm.bit_count(), ri) for ri, rm in enumerate(rect_masks)]
    heapify(heap)
    uncovered = full
    picks = []
    while uncovered:
        _, ri = heappop(heap)
        key = (-(rect_masks[ri] & uncovered).bit_count(), ri)
        if heap and key > heap[0]:
            heappush(heap, key)
        else:
            picks.append(ri)
            uncovered &= ~rect_masks[ri]
    return picks


def _cover_search(
    rect_masks: list[int], full: int, compat: list[int], best: int, floor: int, nodes: _Nodes
) -> tuple[list[int] | None, bool]:
    """Branch-and-bound set cover of the entry set ``full`` by ``rect_masks``.

    Seeks covers by fewer than ``best`` rectangles and prunes with a greedy
    isolation set of the uncovered entries (compat[x] holds the entries
    that may join entry x in one).  The entries are grouped once into one
    mask per rectangle count, and the greedy set takes them count class by
    count class, fewest rectangles first, lowest entry bit within a class:
    entries held by few rectangles clash with few others, so the set tends
    to grow larger than in plain bit order.  Its first pick, the uncovered
    entry in the fewest rectangles, is also the branch entry, so one pass
    gives both.  Each entry's rectangles are tried largest first, ties to the
    lowest index, so good covers come early and the incumbent prunes
    sooner.  Siblings exclude each other: once a child returns unfinished,
    its rectangle is banned from the later siblings and their subtrees,
    since every cover that holds it and a later sibling's rectangle was
    already searched in its own subtree; this holds for any sibling order.
    A cover by ``floor`` rectangles, a proven lower bound, ends the search.
    Returns (the best cover found as rectangle indices, or None; whether
    the search finished).
    """
    entry_rects: list[list[int]] = [[] for _ in range(full.bit_length())]
    for ri in sorted(range(len(rect_masks)), key=lambda ri: -rect_masks[ri].bit_count()):
        for x in iter_bits(rect_masks[ri]):
            entry_rects[x].append(ri)
    by_count: dict[int, int] = {}
    for x in iter_bits(full):
        count = len(entry_rects[x])
        by_count[count] = by_count.get(count, 0) | 1 << x
    classes = [by_count[count] for count in sorted(by_count)]

    def bound_and_branch(uncovered: int, need: int) -> tuple[int, int]:
        """(size of the class-ordered greedy isolation set, its first entry).

        The count stops at ``need``, the size that already prunes the node.
        """
        count = 0
        first = -1
        allowed = uncovered
        for cls in classes:
            pick = allowed & cls
            while pick:
                x = (pick & -pick).bit_length() - 1
                if not count:
                    first = x
                count += 1
                if count >= need:
                    return count, first
                allowed &= compat[x]
                pick &= allowed
        return count, first

    chosen: list[int] = []
    cover: list[int] | None = None

    def dfs(covered: int, banned: int) -> bool:
        nonlocal best, cover
        nodes.tick()
        if covered == full:
            if len(chosen) < best:
                best, cover = len(chosen), chosen.copy()
            return best <= floor
        bound, branch = bound_and_branch(full & ~covered, best - len(chosen))
        if len(chosen) + bound >= best:
            return False
        for ri in entry_rects[branch]:  # empty when no enumerated rectangle holds it
            if banned >> ri & 1:
                continue
            chosen.append(ri)
            done = dfs(covered | rect_masks[ri], banned)
            chosen.pop()
            if done:
                return True
            banned |= 1 << ri
        return False

    finished = nodes.run(dfs, 0, 0)
    del dfs  # break the closure's reference to itself
    return cover, finished


def boolean_rank_exact(m: BoolMatrix, budget: RankBudget | None = None) -> SearchResult:
    """Exact minimum number of all-ones rectangles covering the ones of m.

    The cheap certificates run first and the rectangle machinery only when
    they leave the bracket open.  Stage 1, the root bounds: from above, one
    rectangle per nonzero row; from below, lb, the larger of the greedy
    isolation set of fooling_lower_bound and the antichain bound of the
    rows and of the columns (the least r with C(r, r // 2) at least the
    most distinct nonzero rows of one weight).  Stage 2: when the antichain
    bound is the larger and below that cover, a row-set factor search runs
    once at r = lb (see _factor_search for its layer order): a find
    certifies rank lb, a refutation raises lb by one.  Stage 3, only for a
    bracket still open, alone builds tables with one entry per one, so it
    alone raises ResourceLimitError when the ones exceed max_dimension().
    The maximal rectangles are enumerated (up to MAX_RECTANGLES), and a
    greedy cover by them may lower the upper bound.
    The greedy isolation set depends on the order of rows and columns, so
    a larger fooling set is sought next: a maximum clique of the ones, two
    ones adjacent when no all-ones rectangle holds both.  Any clique above
    lb raises it, even when the clique search runs out of budget.  Its
    ceiling is the best cover, which no fooling set exceeds.  A bracket
    open after that goes to branch-and-bound set cover over the 1-entries
    by the maximal rectangles, branching on the uncovered entry contained
    in the fewest rectangles, trying its rectangles largest first and
    skipping those an earlier sibling already tried, pruning with a greedy
    isolation set taken fewest-rectangle entries first (see _cover_search),
    and stopping at a cover of lb rectangles.  All three searches tick one
    node counter of max_nodes; a stage that finds no node left counts the
    node it would stop on, so an exhausted run reports max_nodes + 1 nodes.
    The clique stage runs even then, as its greedy seed costs no node; the
    cover search is skipped.
    The witness is a tuple of rectangles (row indices, col indices),
    1-based.  Incomplete runs (rectangle cap or node budget) report the
    best cover found as ``optimum`` and lb in ``lower_bound``.
    """
    budget = budget or RankBudget()
    total_ones = m.count_ones()
    if total_ones == 0:
        return SearchResult(0, (), 0, True, 0)

    # incumbent: one rectangle per nonzero row is always a valid cover
    best_cover: list[tuple[int, int]] = [
        (1 << i, m.rows[i]) for i in range(m.n_rows) if m.rows[i]
    ]
    fooling = fooling_lower_bound(m)
    lower = max(fooling, _antichain_bound(m.rows), _antichain_bound(m.transpose().rows))
    nodes = _Nodes(budget.max_nodes)
    if fooling < lower < len(best_cover):
        found, refuted = _factor_search(m, lower, nodes)
        if found is not None:
            best_cover = found
        elif refuted:
            lower += 1
    if len(best_cover) == lower:
        return _rank_result(m, best_cover, nodes.count, True, lower)

    check_cap(total_ones, "one-entries")
    rects, enum_complete = _maximal_bicliques(m, MAX_RECTANGLES)
    # entry e is the e-th one (i, j) row-major, as the pair (row i's support,
    # {j}); the entries of row i are one run of bits
    ones = [(row, 1 << j) for row in m.rows for j in iter_bits(row)]
    full = (1 << total_ones) - 1
    starts = list(accumulate((row.bit_count() for row in m.rows), initial=0))
    in_row = [(1 << end) - (1 << start) for start, end in pairwise(starts)]
    in_col = _element_index((y, 1 << e) for e, (_, y) in enumerate(ones))
    col_meets = [_meeting(in_col, row) for row in m.rows]
    # C is the common support of R: (R, C) holds R's ones in every R row's columns
    rect_masks = []
    for rmask, _ in rects:
        held, within = 0, full
        for i in iter_bits(rmask):
            held |= in_row[i]
            within &= col_meets[i]
        rect_masks.append(held & within)

    # every distinct row support is enumerated before the cap applies, and
    # its rectangle holds that whole row, so the greedy cover always ends
    greedy = _greedy_cover(rect_masks, full)
    if len(greedy) < len(best_cover):
        best_cover = [rects[ri] for ri in greedy]
    complete = len(best_cover) == lower

    if not complete:
        # as pairs, ones (i, j) and (i2, j2) meet across iff m[i][j2] and m[i2][j],
        # so their isolation graph joins two ones no all-ones rectangle holds
        compat = _compatible(ones, False)
        # a clique of pairwise compatible ones is a fooling set, so any clique
        # found bounds the rank, even when the search runs out of budget; on a
        # spent budget the search still takes its greedy seed, at no node
        clique, _ = _max_clique(compat, full, nodes, lower, len(best_cover))
        lower = max(lower, len(clique))
        complete = len(best_cover) == lower
    if not complete and nodes.left():
        chosen, finished = _cover_search(rect_masks, full, compat, len(best_cover), lower, nodes)
        if chosen is not None:
            best_cover = [rects[ri] for ri in chosen]
        complete = len(best_cover) == lower or (finished and enum_complete)
    return _rank_result(m, best_cover, nodes.count, complete, lower)


def _rank_result(
    m: BoolMatrix, cover: list[tuple[int, int]], nodes: int, complete: bool, lower: int
) -> SearchResult:
    """The SearchResult of a rank run: the cover as 1-based (rows, cols) pairs."""
    optimum = len(cover)
    witness = tuple(
        (Subset(m.n_rows, rmask).elements(), Subset(m.n_cols, cmask).elements())
        for rmask, cmask in cover
    )
    return SearchResult(optimum, witness, nodes, complete, optimum if complete else lower)


def cover_to_factors(
    cover: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...],
    n_rows: int,
    n_cols: int,
) -> tuple[BoolMatrix, BoolMatrix]:
    """Express a rectangle cover as Boolean factors X (n x r) and Y (r x n).

    Column i of X is the indicator of the i-th rectangle's rows and row i of
    Y the indicator of its columns, so the Boolean product X*Y is the union
    of the rectangles.  Raises ValueError for an empty cover and for a row
    index outside [1, n_rows] or a column index outside [1, n_cols].
    """
    r = len(cover)
    if r == 0:
        raise ValueError("cannot factor an empty cover")
    x_cols = [Subset.of(rect_rows, n_rows).bits for rect_rows, _ in cover]
    y_rows = [Subset.of(rect_cols, n_cols).bits for _, rect_cols in cover]
    return BoolMatrix(n_rows, r, _transpose(x_cols, n_rows)), BoolMatrix(r, n_cols, y_rows)
