"""Brute-force oracles: clique searches, triangular search, Boolean rank."""

import gc
import random
import tracemalloc
from itertools import combinations
from functools import reduce
from math import comb
from operator import or_
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isoset import (
    BoolMatrix,
    RangeError,
    RankBudget,
    ResourceLimitError,
    boolean_rank_exact,
    build_A,
    circulant_isolation,
    compat_graph,
    cover_to_factors,
    family_to_matrix,
    fooling_lower_bound,
    isolation_construct,
    max_identity_bruteforce,
    max_isolation_bruteforce,
    max_triangular_bruteforce,
    triangular_family,
    verify_identity,
    verify_identity_decomposition,
    verify_isolation,
    verify_matrix_isolation,
    verify_triangular,
)

from isoset import oracle
from isoset.core import iter_bits
from isoset.oracle import (
    _antichain_bound,
    _compatible,
    _cover_search,
    _factor_search,
    _first_pairs,
    _greedy_cover,
    _max_clique,
    _maximal_bicliques,
    _neighbours,
    _Nodes,
    _orbit_clique_search,
)

from conftest import (
    closure_maximal_rectangles,
    ilp_boolean_rank,
    naive_boolean_rank,
    naive_compat_graph,
    naive_greedy_cover,
    naive_max_fooling_set,
    naive_neighbours,
    naive_star_cover_holds,
    naive_triangular,
    permute,
)


# 0/1 grids of 1..6 rows by 1..6 columns
SMALL_GRIDS = st.integers(1, 6).flatmap(
    lambda n_cols: st.lists(
        st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols), min_size=1, max_size=6
    )
)


class TestCompatGraph:
    def test_vertex_count_4_2(self):
        # independent count of intersecting ordered pairs
        subsets = list(combinations(range(1, 5), 2))
        expected = sum(1 for x in subsets for y in subsets if set(x) & set(y))
        graph = compat_graph(4, 2)
        assert len(graph.vertices) == expected == 30

    def test_adjacency_symmetric_no_loops(self):
        graph = compat_graph(5, 2)
        n = len(graph.vertices)
        for u in range(n):
            assert not graph.adjacency[u] >> u & 1
            rest = graph.adjacency[u]
            while rest:
                low = rest & -rest
                v = low.bit_length() - 1
                rest ^= low
                assert graph.adjacency[v] >> u & 1

    def test_identity_graph_is_subgraph(self):
        loose = compat_graph(5, 2)
        strict = compat_graph(5, 2, identity=True)
        for u in range(len(loose.vertices)):
            assert strict.adjacency[u] & ~loose.adjacency[u] == 0

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("ISOSET_MAX_DIM", "10")
        with pytest.raises(ResourceLimitError):
            compat_graph(6, 3)

    @pytest.mark.parametrize("k,t", [(5, 2), (6, 3)])
    @pytest.mark.parametrize("identity", [False, True])
    def test_adjacency_matches_set_rule(self, k, t, identity):
        graph = compat_graph(k, t, identity=identity)
        vertices, neighbours = naive_compat_graph(k, t, identity)
        assert [(set(x.elements()), set(y.elements())) for x, y in graph.vertices] == [
            ({e + 1 for e in x}, {e + 1 for e in y}) for x, y in vertices
        ]
        assert [set(iter_bits(mask)) for mask in graph.adjacency] == neighbours

    @pytest.mark.parametrize("seed", range(12))
    def test_matrix_ones_follow_the_fooling_rule(self, seed):
        # the rank solver feeds each one (i, j) as (row i's support, {j}); with
        # a zero row, a duplicate row and a duplicate column, pairs repeat
        rng = random.Random(seed)
        n, w = rng.randint(3, 9), rng.randint(2, 9)
        rows = [rng.getrandbits(w) for _ in range(n)]
        rows[0] |= 1
        rows[1], rows[2] = rows[0], 0
        rows = [row & ~2 | (row & 1) << 1 for row in rows]  # column 1 copies column 0
        rng.shuffle(rows)
        ones = [(i, j) for i, row in enumerate(rows) for j in iter_bits(row)]
        pairs = [(rows[i], 1 << j) for i, j in ones]
        assert len(set(pairs)) < len(pairs)
        adjacency = _compatible(pairs, False)
        for u, (i, j) in enumerate(ones):
            for v, (i2, j2) in enumerate(ones):
                expected = not (rows[i] >> j2 & 1 and rows[i2] >> j & 1)
                assert bool(adjacency[u] >> v & 1) == expected, (u, v)


class TestMaxIsolation:
    @pytest.mark.parametrize(
        "k,t,expected",
        [(4, 2, 3), (5, 2, 5), (6, 2, 6), (7, 2, 7), (6, 3, 3), (9, 4, 5)],
    )
    def test_exact_values(self, k, t, expected):
        result = max_isolation_bruteforce(k, t)
        assert result.complete
        assert result.optimum == expected
        assert verify_isolation(result.witness).ok

    def test_never_below_construction(self):
        for k, t in [(4, 2), (5, 2), (6, 2), (7, 2), (6, 3)]:
            result = max_isolation_bruteforce(k, t)
            assert result.optimum >= isolation_construct(k, t).size

    def test_budget_exhaustion(self):
        # (7, 3) needs 79 nodes; (6, 2) reaches its ceiling k = 6 in 0
        result = max_isolation_bruteforce(7, 3, RankBudget(max_nodes=5))
        assert not result.complete
        assert result.optimum >= 1
        assert verify_isolation(result.witness).ok

    def test_deterministic_node_counts(self):
        a = max_isolation_bruteforce(5, 2)
        b = max_isolation_bruteforce(5, 2)
        assert a == b

    def test_k7_t3_long(self):
        result = max_isolation_bruteforce(7, 3, RankBudget(max_nodes=200_000_000))
        assert result.complete
        assert result.optimum == 5
        assert result.nodes_explored == 79
        assert verify_isolation(result.witness).ok

    def test_k8_t3_long(self):
        # k = 8 is the one mid-range value at t = 3 between the 2r+3 regime
        # boundaries; exhaustive search pins the maximum at exactly 2r+3 = 7
        # over the orbit representatives.
        result = max_isolation_bruteforce(8, 3, RankBudget(max_nodes=5_000_000))
        assert result.complete
        assert result.optimum == 7
        assert result.nodes_explored == 12_293
        assert verify_isolation(result.witness).ok

    @pytest.mark.parametrize(
        "k, t", [(k, t) for k in range(1, 10) for t in range(1, min(k, 4) + 1)]
    )
    def test_element_stars_cover_A(self, k, t):
        # the certificate of the search's ceiling k, checked with Python sets
        assert naive_star_cover_holds(k, t)

    @pytest.mark.parametrize(
        "k, nodes", [(9, 8), (10, 9), (11, 10), (12, 11)], ids=["k9", "k10", "k11", "k12"]
    )
    def test_star_cover_ceiling_ends_the_search(self, k, nodes):
        # k >= 4t - 3: the paper's isolation set of size k meets the ceiling
        # k of the element stars, so no larger clique has to be refuted
        result = max_isolation_bruteforce(k, 3)
        assert result.complete
        assert result.optimum == k
        assert result.nodes_explored == nodes
        assert verify_isolation(result.witness).ok

    @pytest.mark.slow
    def test_k9_t3_long(self):
        # k = 9 = 4t - 3 is where the 2r+3 and k regimes meet; the optimum
        # is k = 9.  The ceiling k + 1 is never reached, so the search
        # proves that no 10 exists by exhaustion, independent of the star
        # cover (about 4 minutes)
        result = _orbit_clique_search(9, 3, False, 20_000_000, 10)
        assert result.complete
        assert result.optimum == 9
        assert result.nodes_explored == 8_412_155
        assert verify_isolation(result.witness).ok

    @pytest.mark.slow
    def test_k10_t4_long(self):
        # middle regime at t = 4: the 2r+3 construction (size 7) is optimal
        # (about 10 s)
        result = max_isolation_bruteforce(10, 4, RankBudget(max_nodes=5_000_000))
        assert result.complete
        assert result.optimum == 7
        assert result.nodes_explored == 151_970
        assert verify_isolation(result.witness).ok

    @pytest.mark.parametrize(
        "k, t, optimum, nodes, calls",
        [(8, 3, 7, 12_293, 6), (7, 2, 7, 0, 1), (6, 2, 6, 0, 1)],
        ids=["8-3", "7-2", "6-2"],
    )
    def test_orbit_subgraph_builds(self, k, t, optimum, nodes, calls):
        # an orbit subgraph is built once for the degrees and the greedy seed,
        # and once more in degree order only when it is searched; the
        # neighbours of each representative come from the t-subsets without
        # an adjacency mask.  (8, 3) searches all three orbits; at (7, 2) and
        # (6, 2) the seed of the first orbit reaches k, so nothing else is built
        with mock.patch("isoset.oracle._compatible", wraps=oracle._compatible) as spy:
            result = max_isolation_bruteforce(k, t)
        assert result.complete
        assert result.optimum == optimum
        assert result.nodes_explored == nodes
        assert spy.call_count == calls

    def test_one_orbit_adjacency_alive_at_a_time(self):
        # the c = 1 subgraph of (11, 4) has n = 19,587 vertices and each of
        # its two builds holds about n^2 / 8 bytes of adjacency masks; the
        # colex-order build is released before the degree-order one is made
        masks = sorted(sum(1 << e for e in s) for s in combinations(range(11), 4))
        n = len(_neighbours(masks, (0b1111, 0b1110001), 1, False))
        tracemalloc.start()
        try:
            result = max_isolation_bruteforce(11, 4, RankBudget(max_nodes=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (n, result.optimum, result.nodes_explored) == (19_587, 8, 2)
        assert peak < 1.5 * n * n / 8

    @pytest.mark.parametrize("identity", [False, True], ids=["isolation", "identity"])
    @pytest.mark.parametrize("k", range(1, 10))
    def test_neighbours_match_filtered_pairs(self, k, identity):
        for t in range(1, min(k, 4) + 1):
            masks = sorted(sum(1 << e for e in s) for s in combinations(range(k), t))
            for c in range(max(1, 2 * t - k), t + 1):
                rep = ((1 << t) - 1, (1 << c) - 1 | ((1 << (t - c)) - 1) << t)
                got = [
                    tuple(tuple(e for e in range(k) if m >> e & 1) for m in pair)
                    for pair in _neighbours(masks, rep, c, identity)
                ]
                assert got == naive_neighbours(k, t, c, identity), (t, c)

    @pytest.mark.parametrize("search", [max_isolation_bruteforce, max_identity_bruteforce])
    def test_dimension_cap(self, search, monkeypatch):
        monkeypatch.setenv("ISOSET_MAX_DIM", "10")
        with pytest.raises(ResourceLimitError):
            search(6, 3)


class TestMaxIdentity:
    @pytest.mark.parametrize(
        "k,t", [(4, 2), (5, 2), (6, 2), (7, 2), (8, 2), (6, 3), (7, 3)]
    )
    def test_expected_values(self, k, t):
        result = max_identity_bruteforce(k, t)
        assert result.complete
        assert result.optimum == k - 2 * t + 2
        assert verify_identity(result.witness).ok

    def test_deterministic(self):
        assert max_identity_bruteforce(6, 2) == max_identity_bruteforce(6, 2)

    @pytest.mark.parametrize(
        "k, t, nodes",
        [(10, 3, 3), (11, 3, 3), (12, 3, 3), (10, 4, 4), (11, 4, 4), (12, 4, 4), (13, 4, 4)],
    )
    def test_first_theorem_beyond_the_bench(self, k, t, nodes):
        # A(13, 4) has 715 rows, so 511,225 (row, column) pairs; listing only
        # each representative's neighbourhood keeps every case under a second
        result = max_identity_bruteforce(k, t)
        assert result.complete
        assert result.optimum == k - 2 * t + 2
        assert result.nodes_explored == nodes
        assert verify_identity(result.witness).ok


def _cross_check_cases():
    for k in range(1, 8):
        for t in range(1, k + 1):
            for identity in (False, True):
                # networkx needs about 5 minutes on the (7, 2) isolation graph
                marks = [pytest.mark.slow] if (k, t, identity) == (7, 2, False) else []
                kind = "identity" if identity else "isolation"
                yield pytest.param(k, t, identity, marks=marks, id=f"{k}-{t}-{kind}")


class TestNetworkxCrossCheck:
    """The symmetry-broken search against an unbroken max clique on the full graph."""

    @pytest.mark.parametrize("k,t,identity", _cross_check_cases())
    def test_optimum_matches_networkx(self, k, t, identity):
        nx = pytest.importorskip("networkx")
        vertices, neighbours = naive_compat_graph(k, t, identity)
        g = nx.Graph()
        g.add_nodes_from(range(len(vertices)))
        g.add_edges_from((u, v) for u, near in enumerate(neighbours) for v in near if u < v)
        _, clique_number = nx.max_weight_clique(g, weight=None)
        if identity:
            result, verify = max_identity_bruteforce(k, t), verify_identity
        else:
            result, verify = max_isolation_bruteforce(k, t), verify_isolation
        assert result.complete
        assert result.optimum == clique_number
        assert verify(result.witness).ok


class TestMaxTriangular:
    def test_t2_value(self):
        result = max_triangular_bruteforce(2, 2, 8)
        assert result.complete
        assert result.optimum == 5
        assert verify_triangular(result.witness).ok

    @pytest.mark.parametrize("a,b,k,expected", [(2, 1, 4, 2), (1, 3, 6, 3), (3, 1, 7, 3)])
    def test_base_cases(self, a, b, k, expected):
        result = max_triangular_bruteforce(a, b, k)
        assert result.complete and result.optimum == expected
        assert verify_triangular(result.witness).ok

    def test_budget_exhaustion_keeps_valid_witness(self):
        result = max_triangular_bruteforce(2, 2, 8, RankBudget(max_nodes=3))
        assert not result.complete
        assert 1 <= result.optimum <= 5
        assert verify_triangular(result.witness).ok

    def test_one_node_budget_returns_seed_pair(self):
        # the canonical first pair is the incumbent before any node is expanded
        result = max_triangular_bruteforce(2, 2, 4, RankBudget(max_nodes=1))
        assert not result.complete
        assert result.optimum == 1 == result.witness.size
        assert verify_triangular(result.witness).ok

    @pytest.mark.parametrize(
        "a, b, k, optimum, nodes",
        [
            pytest.param(2, 2, 7, 5, 17, id="2-2-7"),
            pytest.param(2, 2, 8, 5, 17, id="2-2-8"),
            pytest.param(2, 3, 7, 4, 914, id="2-3-7"),
            pytest.param(2, 3, 8, 5, 5_804, id="2-3-8"),
            pytest.param(2, 3, 9, 6, 25_190, id="2-3-9"),
            pytest.param(2, 3, 10, 7, 72_973, id="2-3-10"),
        ],
    )
    def test_frankl_bound_ends_the_search(self, a, b, k, optimum, nodes):
        # C(4, 2) - 1 = 5 is reached for (2, 2), so the search stops there;
        # C(5, 2) - 1 = 9 is out of reach for (2, 3) at k <= 10, so those
        # searches run to the end
        result = max_triangular_bruteforce(a, b, k)
        assert result.complete
        assert (result.optimum, result.nodes_explored) == (optimum, nodes)
        assert verify_triangular(result.witness).ok

    def test_universe_too_small(self):
        with pytest.raises(RangeError):
            max_triangular_bruteforce(3, 2, 2)

    def test_pair_cap(self):
        with pytest.raises(ResourceLimitError):
            max_triangular_bruteforce(4, 4, 30)

    def test_deterministic(self):
        assert max_triangular_bruteforce(2, 2, 7) == max_triangular_bruteforce(2, 2, 7)

    @pytest.mark.parametrize(
        "a, b, k",
        [(2, 1, 4), (1, 3, 6), (3, 1, 7), (2, 2, 5), (2, 2, 6), (2, 2, 7), (2, 3, 6), (3, 2, 6)]
        + [pytest.param(2, 3, 7, marks=pytest.mark.slow)],  # 30 s for the naive search
    )
    def test_optimum_matches_naive_search(self, a, b, k):
        # the naive search uses neither the canonical first pairs nor the
        # fresh-element rule
        result = max_triangular_bruteforce(a, b, k)
        assert result.complete and result.optimum == naive_triangular(a, b, k)


class TestFirstPairs:
    @pytest.mark.parametrize("a, b", [(a, b) for a in range(1, 5) for b in range(1, 5)])
    def test_one_pair_per_overlap_found_among_all_pairs(self, a, b):
        for k in range(1, 9):
            pairs = _first_pairs(a, b, k)
            sets = [(set(iter_bits(x << 1)), set(iter_bits(y << 1))) for x, y in pairs]
            for x, y in sets:
                assert len(x) == a and len(y) == b and x | y <= set(range(1, k + 1))
            overlaps = [len(x & y) for x, y in sets]
            found = {
                len(set(x) & set(y))
                for x in combinations(range(1, k + 1), a)
                for y in combinations(range(1, k + 1), b)
                if set(x) & set(y)
            }
            assert overlaps == sorted(found)


def j_minus_i(n: int) -> BoolMatrix:
    return BoolMatrix.from_rows([[int(i != j) for j in range(n)] for i in range(n)])


CIRCULANT_6_4 = circulant_isolation(6, 4, allow_small_q=True)


def grid_of(m: BoolMatrix) -> list[list[int]]:
    """The 0/1 grid of m, row by row."""
    return [[row >> j & 1 for j in range(m.n_cols)] for row in m.rows]


def cover_covers_exactly(m: BoolMatrix, cover) -> bool:
    """Independent check: rectangles are all-ones and their union is the ones of m."""
    covered = set()
    for rect_rows, rect_cols in cover:
        for i in rect_rows:
            for j in rect_cols:
                if not m.entry(i, j):
                    return False
                covered.add((i, j))
    return covered == set(m.ones())


class TestBooleanRank:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity(self, n):
        result = boolean_rank_exact(BoolMatrix.identity(n))
        assert result.complete and result.optimum == n
        assert cover_covers_exactly(BoolMatrix.identity(n), result.witness)

    def test_A42(self):
        m = build_A(4, 2)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == 4
        assert cover_covers_exactly(m, result.witness)

    def test_A52(self):
        m = build_A(5, 2)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == 5
        assert cover_covers_exactly(m, result.witness)

    def test_A62(self):
        m = build_A(6, 2)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == 6
        assert cover_covers_exactly(m, result.witness)

    def test_circulant(self):
        m = circulant_isolation(5, 4)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == 9
        assert cover_covers_exactly(m, result.witness)

    def test_all_zero(self):
        result = boolean_rank_exact(BoolMatrix.zeros(3, 3))
        assert result.complete and result.optimum == 0 and result.witness == ()

    def test_isolation_matrices_have_full_rank(self):
        # rank equals the matrix size whenever the diagonal is an isolation set
        for p, q in [(1, 1), (2, 1), (2, 2), (3, 2), (4, 4)]:
            m = circulant_isolation(p, q)
            assert verify_matrix_isolation(m).ok
            assert boolean_rank_exact(m).optimum == p + q
        for k, t in [(6, 3), (8, 3), (9, 3), (6, 2)]:
            m = family_to_matrix(isolation_construct(k, t))
            assert boolean_rank_exact(m).optimum == m.n_rows

    def test_realized_triangular_families_have_full_rank(self):
        for a, b in [(2, 2), (3, 2), (2, 3)]:
            m = family_to_matrix(triangular_family(a, b))
            result = boolean_rank_exact(m)
            assert result.complete and result.optimum == m.n_rows

    def test_sparse_matrix_memory_follows_its_ones(self):
        # 25 ones spread over a 1000 x 1000 grid: entry sets must not span
        # every cell (that alone would take a million entry lists)
        m = BoolMatrix(1000, 1000, tuple(1 << i if i % 40 == 0 else 0 for i in range(1000)))
        tracemalloc.start()
        try:
            result = boolean_rank_exact(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.complete and result.optimum == 25
        assert peak < 1 << 20

    def test_spread_matrix_memory_follows_its_ones_in_the_searches(self):
        # the diagonal above closes at the root bounds; circulant(6, 4, small_q)
        # needs the fooling-set clique and the cover DFS, and with its rows and
        # columns spread to 100 * i the matrix spans a million cells
        small = circulant_isolation(6, 4, allow_small_q=True)
        rows = [0] * 1000
        for i, row in enumerate(small.rows):
            rows[100 * i] = sum(1 << 100 * j for j in iter_bits(row))
        m = BoolMatrix(1000, 1000, tuple(rows))
        tracemalloc.start()
        try:
            result = boolean_rank_exact(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.complete and result.optimum == 8
        assert result.nodes_explored == 782
        assert peak < 1 << 20

    def test_entries_are_the_ones_in_row_major_order(self, monkeypatch):
        # 60 ones in 100 cells: entry e is the e-th one however dense m is
        seen = []
        search = oracle._cover_search

        def spy(rect_masks, full, *rest):
            seen.append((rect_masks, full))
            return search(rect_masks, full, *rest)

        monkeypatch.setattr(oracle, "_cover_search", spy)
        result = boolean_rank_exact(CIRCULANT_6_4)
        [(rect_masks, full)] = seen
        assert full == (1 << 60) - 1
        assert all(mask < 1 << 60 for mask in rect_masks)
        assert result.complete and result.optimum == 8
        assert result.nodes_explored == 782

    def test_ones_cap(self, monkeypatch):
        # 60 ones: fooling 7 and antichain 5 leave the bracket open, and
        # stage 3 builds its per-one tables
        monkeypatch.setenv("ISOSET_MAX_DIM", "50")
        with pytest.raises(ResourceLimitError):
            boolean_rank_exact(circulant_isolation(6, 4, allow_small_q=True))

    def test_ones_cap_spares_the_root_bounds(self, monkeypatch):
        # the greedy fooling set meets the row cover, so no per-one table is built
        monkeypatch.setenv("ISOSET_MAX_DIM", "5")
        result = boolean_rank_exact(BoolMatrix.identity(6))
        assert result.complete and result.optimum == 6 and result.nodes_explored == 0

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complement_of_identity(self, n):
        # de Caen, Gregory & Pullman (1981): rank(J_n - I_n) = min{r : C(r, r // 2) >= n}
        m = j_minus_i(n)
        result = boolean_rank_exact(m)
        assert result.complete
        assert result.optimum == min(r for r in range(1, n + 1) if comb(r, r // 2) >= n)
        assert cover_covers_exactly(m, result.witness)

    def test_incomplete_lower_bound_is_root_bound(self):
        # fooling 7 is above the antichain bound 5, so no factor search runs;
        # the clique finds no fooling set above 7, and the cover search needs
        # 782 nodes in all, so a budget of 500 leaves the bracket open
        m = circulant_isolation(6, 4, allow_small_q=True)
        result = boolean_rank_exact(m, RankBudget(max_nodes=500))
        assert not result.complete
        assert result.lower_bound == fooling_lower_bound(m)
        assert result.lower_bound <= 8 <= result.optimum

    def test_budget_exhaustion_interval(self):
        m = build_A(4, 2)
        result = boolean_rank_exact(m, RankBudget(max_nodes=1))
        assert not result.complete
        assert result.lower_bound <= 4 <= result.optimum
        assert cover_covers_exactly(m, result.witness)

    def test_biclique_cap_interval(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_RECTANGLES", 3)
        m = circulant_isolation(6, 4, allow_small_q=True)
        result = boolean_rank_exact(m)
        assert not result.complete
        assert result.lower_bound <= 8
        assert cover_covers_exactly(m, result.witness)

    def test_deterministic(self):
        m = build_A(4, 2)
        assert boolean_rank_exact(m) == boolean_rank_exact(m)

    def test_optimal_identity_covers_decompose(self):
        for n in range(1, 7):
            result = boolean_rank_exact(BoolMatrix.identity(n))
            x, y = cover_to_factors(result.witness, n, n)
            cert = verify_identity_decomposition(x, y)
            assert cert.ok, cert.notes

    @pytest.mark.parametrize(
        "rect, n", [(((0,), (1,)), 3), (((4,), (1,)), 3), (((1,), (0,)), 4), (((1,), (5,)), 4)]
    )
    def test_factor_indices_out_of_range_refused(self, rect, n):
        # a 3 x 4 matrix: index 0 and index n + 1 on the row side and on the column side
        with pytest.raises(ValueError, match=rf"outside \[1, {n}\]"):
            cover_to_factors((((1,), (1,)), rect), 3, 4)

    @pytest.mark.parametrize("rect", [((1, 1), (1,)), ((1,), (2, 2))])
    def test_factor_indices_repeated_refused(self, rect):
        with pytest.raises(ValueError, match="repeated"):
            cover_to_factors((((1,), (1,)), rect), 3, 4)


class TestAntichainBound:
    @pytest.mark.parametrize("n", range(2, 21))
    def test_complement_of_identity_is_de_caen(self, n):
        # de Caen, Gregory & Pullman (1981): rank(J_n - I_n) = min{r : C(r, r // 2) >= n}
        assert _antichain_bound(j_minus_i(n).rows) == min(
            r for r in range(1, n + 1) if comb(r, r // 2) >= n
        )

    @pytest.mark.parametrize("n, nodes", [(8, 9), (9, 10)])
    def test_complement_of_identity_node_counts(self, n, nodes):
        # the greedy fooling set has 2 entries; the antichain bound 5 is the rank
        m = j_minus_i(n)
        assert fooling_lower_bound(m) == 2
        result = boolean_rank_exact(m, RankBudget(max_nodes=1000))
        assert result.complete and result.optimum == result.lower_bound == 5
        assert result.nodes_explored == nodes
        assert cover_covers_exactly(m, result.witness)


class TestRankOfA:
    # the C(k, t) rows are distinct and of one weight.  Where C(k, t) > C(k - 1, (k - 1) // 2),
    # all but A(8..10, 2) here, the antichain bound is k and the factor search finds the k
    # element stars with no per-one table, so A(11, 4) and A(12, 4) pass although their
    # ones exceed the default cap.  A(8..10, 2) close in stage 3 at no node: the clique's
    # greedy seed of k meets its ceiling, the greedy cover by the k stars
    @pytest.mark.parametrize(
        "k, t, nodes",
        [
            (5, 2, 11),
            (6, 2, 16),
            (7, 2, 22),
            (8, 2, 0),
            (9, 2, 0),
            (10, 2, 0),
            (6, 3, 21),
            (7, 3, 36),
            (8, 3, 57),
            (8, 4, 71),
            (9, 3, 85),
            (9, 4, 127),
            (10, 4, 211),
            (11, 4, 331),
            pytest.param(12, 4, 496, marks=pytest.mark.slow),
        ],
    )
    def test_rank_is_k(self, k, t, nodes):
        m = build_A(k, t)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == k
        assert result.nodes_explored == nodes
        assert cover_covers_exactly(m, result.witness)

    # C(8, 2) > 8 distinct rows of one weight cannot all get singletons, so
    # the layers run from p0 = 2, the element stars' layer; middle layer first
    # takes more than 200,000 nodes.  boolean_rank_exact(build_A(8, 2)) never
    # calls the factor search (its greedy fooling set and antichain bound are
    # both 7), so this calls it directly; test_rank_is_k pins A(5..7, 2), where
    # middle first needs 37,406 nodes at k = 6
    def test_factor_search_starts_at_the_star_layer(self):
        nodes = _Nodes(10**6)
        cover, complete = _factor_search(build_A(8, 2), 8, nodes)
        assert complete and len(cover) == 8 and nodes.count == 29

    @pytest.mark.parametrize("m", [build_A(6, 3), j_minus_i(9)], ids=["A(6,3)", "J9-I9"])
    def test_certified_without_enumerating_rectangles(self, m):
        with mock.patch("isoset.oracle._maximal_bicliques") as enumerate_rectangles:
            result = boolean_rank_exact(m)
        assert result.complete and result.optimum == result.lower_bound
        enumerate_rectangles.assert_not_called()


class TestFactorSearch:
    """Inputs whose antichain bound is above the greedy fooling bound."""

    @staticmethod
    def grid(n):
        return [[int(i != j) for j in range(n)] for i in range(n)]

    def test_zero_row_and_zero_column(self):
        grid = [row[:2] + [0] + row[2:] for row in self.grid(8)]
        grid.insert(3, [0] * 9)
        m = BoolMatrix.from_rows(grid)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == 5
        assert result.nodes_explored == 9
        assert cover_covers_exactly(m, result.witness)

    def test_duplicate_rows(self):
        grid = self.grid(8)
        m = BoolMatrix.from_rows(grid[:5] + grid[2:])
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == 5
        assert result.nodes_explored == 9
        assert cover_covers_exactly(m, result.witness)

    def test_non_square(self):
        m = BoolMatrix.from_rows(self.grid(8) + [[1] * 8, [1] * 8])
        for matrix in (m, m.transpose()):
            result = boolean_rank_exact(matrix)
            assert result.complete and result.optimum == 5
            assert cover_covers_exactly(matrix, result.witness)

    def test_refutation_then_budget_exhaustion(self):
        # fooling 3, antichain 4, rank 5: r = 4 is refuted in 204 nodes
        grid = [
            [1, 0, 1, 1, 1, 1],
            [1, 1, 1, 0, 1, 1],
            [0, 1, 1, 1, 1, 0],
            [1, 0, 0, 1, 1, 1],
            [1, 1, 1, 0, 0, 1],
            [0, 1, 1, 1, 0, 1],
        ]
        m = BoolMatrix.from_rows(grid)
        assert fooling_lower_bound(m) == 3 and naive_boolean_rank(grid) == 5
        # 204: the refutation spends the budget exactly, and the skipped clique
        # stage counts the node it would stop on; 209: the clique likewise ends
        # on the budget, and the skipped cover search counts one more node;
        # 222: the cover search stops one node short of its end
        for max_nodes, lower in ((100, 4), (204, 5), (209, 5), (222, 5)):
            result = boolean_rank_exact(m, RankBudget(max_nodes=max_nodes))
            assert not result.complete
            assert result.nodes_explored == max_nodes + 1
            assert result.lower_bound == lower <= 5 <= result.optimum
            assert cover_covers_exactly(m, result.witness)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == 5
        assert result.nodes_explored == 223

    def test_spent_budget_still_takes_the_clique_seed(self):
        # fooling 3, antichain 4: r = 4 is refuted in exactly 58 nodes, and
        # the greedy clique seed, a fooling set of 6, costs no node; it meets
        # the clique's ceiling, the greedy cover of 6, so no budget adds a node
        grid = ["11100101", "01111110", "01001000", "00001011", "01110000", "01101000"]
        m = BoolMatrix.from_rows(grid)
        assert naive_boolean_rank([list(map(int, row)) for row in grid]) == 6
        for max_nodes, nodes in ((57, 58), (58, 58), (59, 58)):
            result = boolean_rank_exact(m, RankBudget(max_nodes=max_nodes))
            assert result.complete and result.optimum == result.lower_bound == 6
            assert result.nodes_explored == nodes

    @given(
        st.integers(1, 5).flatmap(
            lambda n_cols: st.lists(
                st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_finds_at_rank_and_refutes_below(self, rows):
        m = BoolMatrix.from_rows(rows)
        rank = naive_boolean_rank(rows)
        cover, complete = _factor_search(m, rank, _Nodes(10**6))
        assert complete and len(cover) == rank
        cells = {(i, j) for rmask, cmask in cover for i in range(m.n_rows) if rmask >> i & 1
                 for j in range(m.n_cols) if cmask >> j & 1}
        assert cells == {(i - 1, j - 1) for i, j in m.ones()}
        if rank:
            assert _factor_search(m, rank - 1, _Nodes(10**6)) == (None, True)


class TestCoverSearch:
    """The rectangle-cover DFS, which closes brackets no fooling set can.

    The largest fooling set of circulant(6, q, small_q) is below its rank
    for q = 3, 4, so the DFS must prove the rank itself.
    """

    @pytest.mark.parametrize(
        "q, rank, seed, nodes",
        [
            pytest.param(3, 7, 0, 5_301, id="3-7-0"),
            pytest.param(3, 7, 1, 3_688, id="3-7-1"),
            pytest.param(3, 7, 2, 23_908, id="3-7-2"),
            pytest.param(3, 7, 3, 3_479, id="3-7-3"),
            pytest.param(4, 8, 0, 782, id="4-8-0"),
            pytest.param(4, 8, 1, 3_404, id="4-8-1"),
            pytest.param(4, 8, 2, 8_360, id="4-8-2"),
            pytest.param(4, 8, 3, 2_849, id="4-8-3"),
        ],
    )
    def test_circulant_small_q_node_counts(self, q, rank, seed, nodes):
        m = circulant_isolation(6, q, allow_small_q=True)
        if seed:
            m = permute(m, seed)
        result = boolean_rank_exact(m, RankBudget(max_nodes=100_000))
        assert result.complete and result.optimum == result.lower_bound == rank
        assert result.nodes_explored == nodes
        assert cover_covers_exactly(m, result.witness)

    @settings(max_examples=200)
    @given(SMALL_GRIDS)
    def test_sibling_exclusion_keeps_the_optimum(self, rows):
        # floor 0: no lower bound ends the search, so it must prove optimality
        m = BoolMatrix.from_rows(rows)
        w = m.n_cols
        ones = [(i - 1, j - 1) for i, j in m.ones()]
        full = sum(1 << i * w + j for i, j in ones)
        compat = [0] * (m.n_rows * w)
        for i, j in ones:
            compat[i * w + j] = sum(
                1 << i2 * w + j2 for i2, j2 in ones if not (rows[i][j2] and rows[i2][j])
            )
        rects, complete = _maximal_bicliques(m, 10**6)
        assert complete
        rect_masks = [sum(cmask << i * w for i in iter_bits(rmask)) for rmask, cmask in rects]

        def witness(cover):
            return [
                ([i + 1 for i in iter_bits(rects[ri][0])], [j + 1 for j in iter_bits(rects[ri][1])])
                for ri in cover
            ]

        cover, finished = _cover_search(
            rect_masks, full, compat, len(rects) + 1, 0, _Nodes(10**7)
        )
        assert finished and len(cover) == naive_boolean_rank(rows)
        assert cover_covers_exactly(m, witness(cover))
        for max_nodes in (1, 5, 50):
            cover, _ = _cover_search(
                rect_masks, full, compat, len(rects) + 1, 0, _Nodes(max_nodes)
            )
            assert cover is None or cover_covers_exactly(m, witness(cover))


class TestIlpRankReference:
    """boolean_rank_exact against a set-cover integer program (scipy, tests only).

    The program's rectangles come from a closure of row sets in Python sets,
    and HiGHS solves it, so no step shares code with the rank engine.
    """

    @pytest.mark.parametrize("q, rank", [(3, 7), (4, 8)])
    @pytest.mark.parametrize("seed", range(4))
    def test_circulant_small_q(self, q, rank, seed):
        pytest.importorskip("scipy.optimize")
        m = circulant_isolation(6, q, allow_small_q=True)
        if seed:
            m = permute(m, seed)
        result = boolean_rank_exact(m)
        assert result.complete
        assert result.optimum == ilp_boolean_rank(grid_of(m)) == rank

    @settings(max_examples=200)
    @given(
        st.integers(1, 9).flatmap(
            lambda n_cols: st.lists(
                st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
                min_size=1,
                max_size=9,
            )
        )
    )
    def test_random_matrices(self, rows):
        pytest.importorskip("scipy.optimize")
        m = BoolMatrix.from_rows(rows)
        result = boolean_rank_exact(m)
        assert result.complete and result.optimum == ilp_boolean_rank(rows)

    @given(
        st.integers(1, 7).flatmap(
            lambda n_cols: st.lists(
                st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
                min_size=1,
                max_size=7,
            )
        )
    )
    def test_closure_finds_the_enumerated_rectangles(self, rows):
        m = BoolMatrix.from_rows(rows)
        rects, complete = _maximal_bicliques(m, 10**6)
        assert complete
        enumerated = {(frozenset(iter_bits(r)), frozenset(iter_bits(c))) for r, c in rects}
        assert enumerated == set(closure_maximal_rectangles(rows))


class TestGreedyCover:
    @settings(max_examples=300)
    @given(
        st.lists(st.integers(0, (1 << 12) - 1), min_size=1, max_size=30),
        st.integers(0, (1 << 12) - 1),
    )
    def test_picks_match_full_rescan(self, rect_masks, keep):
        # 12-bit masks tie often, so the tie rule is exercised
        full = reduce(or_, rect_masks) & keep
        assert _greedy_cover(rect_masks, full) == naive_greedy_cover(rect_masks, full)

    @pytest.mark.slow
    def test_A_10_3_capped(self):
        # the factor search exhausts its 2,000 nodes at r = 9 and the 50,000
        # enumerated rectangles reach no star, so the greedy cover's 117 stands
        # (the call takes about 3 s, the full-rescan reference about 10 s)
        m = build_A(10, 3)
        result = boolean_rank_exact(m, RankBudget(max_nodes=2_000))
        assert not result.complete
        assert (result.lower_bound, result.optimum, result.nodes_explored) == (9, 117, 2_001)
        rects, _ = _maximal_bicliques(m, oracle.MAX_RECTANGLES)
        w = m.n_cols
        rect_masks = [sum(cmask << i * w for i in iter_bits(rmask)) for rmask, cmask in rects]
        full = sum(row << i * w for i, row in enumerate(m.rows))
        picks = naive_greedy_cover(rect_masks, full)
        assert result.witness == tuple(
            (tuple(i + 1 for i in iter_bits(rects[ri][0])),
             tuple(j + 1 for j in iter_bits(rects[ri][1])))
            for ri in picks
        )


class TestMaximalBicliques:
    @settings(max_examples=200)
    @given(SMALL_GRIDS)
    def test_capped_rectangles_cover_every_one(self, rows):
        # every distinct row support is kept before the cap applies, and its
        # rectangle holds that whole row
        m = BoolMatrix.from_rows(rows)
        for cap in (1, 2, 3):
            rects, _ = _maximal_bicliques(m, cap)
            cells = {(i + 1, j + 1) for rmask, cmask in rects for i in range(m.n_rows)
                     if rmask >> i & 1 for j in range(m.n_cols) if cmask >> j & 1}
            assert cells == set(m.ones())

    @settings(max_examples=200)
    @given(SMALL_GRIDS)
    def test_capped_rectangles_are_maximal(self, rows):
        # under any cap, each rectangle has every row holding its columns,
        # and its columns are all those its rows have in common
        supports = [{j for j, v in enumerate(row) if v} for row in rows]
        m = BoolMatrix.from_rows(rows)
        for cap in (1, 2, 3):
            rects, _ = _maximal_bicliques(m, cap)
            for rmask, cmask in rects:
                held, cols = set(iter_bits(rmask)), set(iter_bits(cmask))
                assert cols and held == {i for i, s in enumerate(supports) if cols <= s}
                assert cols == set.intersection(*(supports[i] for i in held))


class TestRankUnderPermutation:
    """Shuffling rows and columns moves the greedy fooling bound, not the rank.

    The largest fooling set, found as a maximum clique of compatible ones,
    does not depend on the order, so these certify without a long cover DFS.
    """

    MATRICES = {
        "circulant(7,6)": (lambda: circulant_isolation(7, 6), 13),
        "circulant(6,5)": (lambda: circulant_isolation(6, 5), 11),
        "isolation_construct(12,4)": (
            lambda: family_to_matrix(isolation_construct(12, 4)), 11),
        "triangular_family(3,3)": (lambda: family_to_matrix(triangular_family(3, 3)), 19),
    }

    @pytest.mark.parametrize(
        "name, seed, nodes",
        [
            pytest.param("circulant(7,6)", 1, 0, id="circulant(7,6)-1"),
            pytest.param("circulant(7,6)", 2, 0, id="circulant(7,6)-2"),
            pytest.param("circulant(7,6)", 3, 0, id="circulant(7,6)-3"),
            pytest.param("circulant(6,5)", 1, 0, id="circulant(6,5)-1"),
            pytest.param("circulant(6,5)", 2, 2_470, id="circulant(6,5)-2"),
            pytest.param("circulant(6,5)", 3, 12_704, id="circulant(6,5)-3"),
            pytest.param("isolation_construct(12,4)", 1, 25, id="isolation_construct(12,4)-1"),
            pytest.param("isolation_construct(12,4)", 2, 11, id="isolation_construct(12,4)-2"),
            pytest.param("isolation_construct(12,4)", 3, 20, id="isolation_construct(12,4)-3"),
            pytest.param("triangular_family(3,3)", 1, 0, id="triangular_family(3,3)-1"),
            pytest.param("triangular_family(3,3)", 2, 0, id="triangular_family(3,3)-2"),
            pytest.param("triangular_family(3,3)", 3, 0, id="triangular_family(3,3)-3"),
        ],
    )
    def test_certified_at_known_rank(self, name, seed, nodes):
        build, rank = self.MATRICES[name]
        m = permute(build(), seed)
        assert fooling_lower_bound(m) < rank  # the greedy bound alone is not enough
        result = boolean_rank_exact(m, RankBudget(max_nodes=100_000))
        assert result.complete and result.optimum == result.lower_bound == rank
        assert result.nodes_explored == nodes
        assert cover_covers_exactly(m, result.witness)


@st.composite
def graphs(draw):
    """A random graph on at most 16 vertices, numbered in an arbitrary order.

    Returns (adjacency masks, the mask of the vertices searched); the
    vertices outside that mask keep their edges, which the search must
    ignore.
    """
    n = draw(st.integers(1, 16))
    edges = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    adj = [0] * n
    for (u, v), edge in zip(combinations(range(n), 2), edges):
        if edge:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    vertices = draw(st.integers(0, (1 << n) - 1))
    return adj, vertices


class TestMaxClique:
    """_max_clique against networkx's exact search on random graphs."""

    @staticmethod
    def clique_number(adj, vertices):
        nx = pytest.importorskip("networkx")
        g = nx.Graph()
        g.add_nodes_from(iter_bits(vertices))
        g.add_edges_from((u, v) for u in iter_bits(vertices) for v in iter_bits(adj[u] & vertices))
        return nx.max_weight_clique(g, weight=None)[1] if vertices else 0

    @staticmethod
    def assert_clique(adj, vertices, clique):
        assert all(vertices >> v & 1 for v in clique)
        assert all(adj[u] >> v & 1 for u, v in combinations(clique, 2))

    @settings(max_examples=300)
    @given(graphs(), st.integers(-1, 17))
    def test_complete_run_finds_the_clique_number(self, graph, floor):
        adj, vertices = graph
        omega = self.clique_number(adj, vertices)
        clique, complete = _max_clique(adj, vertices, _Nodes(10**6), floor, 17)
        self.assert_clique(adj, vertices, clique)
        assert complete
        assert max(floor, len(clique)) == max(floor, omega)
        assert not clique or len(clique) > floor

    @settings(max_examples=300)
    @given(graphs(), st.data())
    def test_reachable_ceiling_returns_exactly_that_many(self, graph, data):
        adj, vertices = graph
        omega = self.clique_number(adj, vertices)
        assume(omega > 0)
        ceiling = data.draw(st.integers(1, omega))
        floor = data.draw(st.integers(-1, ceiling - 1))
        clique, complete = _max_clique(adj, vertices, _Nodes(10**6), floor, ceiling)
        self.assert_clique(adj, vertices, clique)
        assert complete and len(clique) == ceiling


class TestMaxFoolingSet:
    """The clique step of boolean_rank_exact against a set-based search."""

    @settings(max_examples=300)
    @given(
        st.integers(1, 5).flatmap(
            lambda n_cols: st.lists(
                st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
                min_size=1,
                max_size=5,
            )
        )
    )
    def test_clique_bound_against_naive(self, rows):
        m = BoolMatrix.from_rows(rows)
        calls = []

        def spy(adj, vertices, nodes, floor, ceiling):
            found = _max_clique(adj, vertices, nodes, floor, ceiling)
            calls.append((adj, vertices, floor, ceiling, found))
            return found

        with mock.patch("isoset.oracle._max_clique", spy):
            boolean_rank_exact(m)
        fooling, largest, rank = (
            fooling_lower_bound(m), naive_max_fooling_set(rows), naive_boolean_rank(rows)
        )
        for adj, vertices, floor, ceiling, (clique, complete) in calls:
            bound = max(floor, len(clique))
            assert fooling <= bound <= rank
            assert largest <= ceiling  # the ceiling is a proven bound
            if complete:
                assert bound == max(floor, largest)
            unreachable = vertices.bit_count() + 1
            assert len(_max_clique(adj, vertices, _Nodes(10**6), 0, unreachable)[0]) == largest
        for max_nodes in (1, 2, 5, 20):
            result = boolean_rank_exact(m, RankBudget(max_nodes=max_nodes))
            if not result.complete:
                assert fooling <= result.lower_bound <= rank <= result.optimum


def naive_greedy_fooling(grid):
    """The greedy fooling set one 1-entry at a time, row-major, with Python sets.

    An entry is kept when it shares no row or column with a kept entry and
    closes no all-ones 2x2 with any of them.
    """
    ones = {(i, j) for i, row in enumerate(grid) for j, v in enumerate(row) if v}
    kept = []
    for i, j in sorted(ones):
        if all(p != i and q != j and not {(i, q), (p, j)} <= ones for p, q in kept):
            kept.append((i, j))
    return len(kept)


@st.composite
def grids_with_repeated_rows(draw):
    """0/1 grids of up to 9 rows drawn from a few rows and a zero row, so rows repeat."""
    n_cols = draw(st.integers(1, 7))
    row = st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols)
    pool = draw(st.lists(row, min_size=1, max_size=4)) + [[0] * n_cols]
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=9))


class TestFoolingLowerBound:
    @settings(max_examples=300)
    @given(SMALL_GRIDS | grids_with_repeated_rows())
    def test_matches_one_by_one_scan(self, grid):
        assert fooling_lower_bound(BoolMatrix.from_rows(grid)) == naive_greedy_fooling(grid)

    def test_all_ones(self):
        assert fooling_lower_bound(BoolMatrix.all_ones(3, 3)) == 1

    @pytest.mark.parametrize("n", [1, 4, 6])
    def test_identity(self, n):
        assert fooling_lower_bound(BoolMatrix.identity(n)) == n

    def test_A42_within_bounds(self):
        m = build_A(4, 2)
        value = fooling_lower_bound(m)
        assert 3 <= value <= 4  # recorded range; only <= rank is asserted below

    @pytest.mark.parametrize(
        "matrix",
        [
            BoolMatrix.identity(5),
            BoolMatrix.all_ones(4, 4),
            circulant_isolation(3, 3),
            build_A(4, 2),
            build_A(5, 2),
        ],
    )
    def test_never_exceeds_exact_rank(self, matrix):
        result = boolean_rank_exact(matrix)
        assert result.complete
        assert fooling_lower_bound(matrix) <= result.optimum

    def test_zero_matrix(self):
        assert fooling_lower_bound(BoolMatrix.zeros(2, 5)) == 0

    @given(
        st.integers(2, 5).flatmap(
            lambda n_cols: st.lists(
                st.lists(st.integers(0, 1), min_size=n_cols, max_size=n_cols),
                min_size=2,
                max_size=5,
            )
        )
    )
    def test_rank_bracketed_on_random_matrices(self, rows):
        m = BoolMatrix.from_rows(rows)
        result = boolean_rank_exact(m)
        assert result.complete
        nonzero_rows = sum(1 for mask in m.rows if mask)
        nonzero_cols = sum(1 for mask in m.transpose().rows if mask)
        assert fooling_lower_bound(m) <= result.optimum <= min(nonzero_rows, nonzero_cols)
        assert cover_covers_exactly(m, result.witness)
        assert result.optimum == naive_boolean_rank(rows)
        assert max(_antichain_bound(m.rows), _antichain_bound(m.transpose().rows)) <= result.optimum


class TestBudget:
    def test_positive_caps_required(self):
        with pytest.raises(ValueError):
            RankBudget(max_nodes=0)

    # the rank's fooling clique ends at node 67, and its cover search at 782
    @pytest.mark.parametrize(
        "search, check, nodes, budgets",
        [
            (
                lambda budget: max_isolation_bruteforce(7, 3, budget),
                lambda result: verify_isolation(result.witness).ok,
                79,
                range(1, 83),
            ),
            (
                lambda budget: max_triangular_bruteforce(2, 2, 6, budget),
                lambda result: verify_triangular(result.witness).ok,
                49,
                range(1, 52),
            ),
            (
                lambda budget: boolean_rank_exact(CIRCULANT_6_4, budget),
                lambda result: cover_covers_exactly(CIRCULANT_6_4, result.witness),
                782,
                [*range(1, 70), *range(70, 781, 20), 781, 782, 783],
            ),
        ],
        ids=["isolation(7,3)", "triangular(2,2,6)", "rank(circulant(6,4))"],
    )
    def test_exhausted_runs_count_one_node_past_the_budget(self, search, check, nodes, budgets):
        unbounded = search(None)
        assert unbounded.complete and unbounded.nodes_explored == nodes
        for max_nodes in budgets:
            result = search(RankBudget(max_nodes=max_nodes))
            assert check(result), max_nodes
            if result.complete:
                assert result.nodes_explored <= max_nodes
                assert result.optimum == unbounded.optimum
            else:
                assert result.nodes_explored == max_nodes + 1, max_nodes
        assert not search(RankBudget(max_nodes=nodes - 1)).complete
        assert search(RankBudget(max_nodes=nodes)).complete


class TestNoReferenceCycles:
    def test_searches_leave_no_cyclic_garbage(self):
        # a recursive closure that outlives its search keeps everything it
        # captured alive until the next cyclic collection
        calls = [
            lambda: boolean_rank_exact(build_A(5, 2)),
            lambda: boolean_rank_exact(j_minus_i(8)),
            lambda: boolean_rank_exact(build_A(6, 3)),
            lambda: boolean_rank_exact(CIRCULANT_6_4),  # reaches the clique and the cover search
            lambda: max_isolation_bruteforce(6, 3),
            lambda: max_triangular_bruteforce(2, 2, 4),
            # budget-exhausted runs: the exception unwinds through the counter
            lambda: max_isolation_bruteforce(7, 3, RankBudget(max_nodes=30)),
            lambda: max_triangular_bruteforce(2, 2, 6, RankBudget(max_nodes=20)),
            lambda: boolean_rank_exact(CIRCULANT_6_4, RankBudget(max_nodes=30)),
            lambda: boolean_rank_exact(CIRCULANT_6_4, RankBudget(max_nodes=100)),
        ]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()
