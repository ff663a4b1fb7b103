"""Brute-force oracles: clique searches, triangular search, Boolean rank."""

import gc
import tracemalloc
from itertools import combinations
from math import comb

import pytest
from hypothesis import given
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
    verify_identity,
    verify_identity_decomposition,
    verify_isolation,
    verify_matrix_isolation,
    verify_triangular,
)

from conftest import naive_boolean_rank


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

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            compat_graph(6, 3, max_dim=10)

    @pytest.mark.parametrize("k,t", [(5, 2), (6, 3)])
    @pytest.mark.parametrize("identity", [False, True])
    def test_adjacency_matches_set_rule(self, k, t, identity):
        graph = compat_graph(k, t, identity=identity)
        pairs = [(set(x.elements()), set(y.elements())) for x, y in graph.vertices]
        for u, (x1, y1) in enumerate(pairs):
            for v, (x2, y2) in enumerate(pairs):
                cross = [bool(x1 & y2), bool(x2 & y1)]
                fits = not any(cross) if identity else not all(cross)
                expected = x1 != x2 and y1 != y2 and fits
                assert bool(graph.adjacency[u] >> v & 1) == expected, (u, v)


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
        # (7, 3) needs 76 nodes; (6, 2) now completes in 2
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
        assert result.nodes_explored == 76
        assert verify_isolation(result.witness).ok

    def test_k8_t3_long(self):
        # k = 8 is the one mid-range value at t = 3 between the 2r+3 regime
        # boundaries; exhaustive search pins the maximum at exactly 2r+3 = 7
        # over the orbit representatives.
        result = max_isolation_bruteforce(8, 3, RankBudget(max_nodes=5_000_000))
        assert result.complete
        assert result.optimum == 7
        assert result.nodes_explored == 7_185
        assert verify_isolation(result.witness).ok

    @pytest.mark.slow
    def test_k9_t3_long(self):
        # k = 9 = 4t - 3 is where the 2r+3 and k regimes meet; the optimum
        # is k = 9 (about 4 minutes)
        result = max_isolation_bruteforce(9, 3, RankBudget(max_nodes=5_000_000))
        assert result.complete
        assert result.optimum == 9
        assert result.nodes_explored == 1_143_888
        assert verify_isolation(result.witness).ok

    @pytest.mark.slow
    def test_k10_t4_long(self):
        # middle regime at t = 4: the 2r+3 construction (size 7) is optimal
        # (about 30 s)
        result = max_isolation_bruteforce(10, 4, RankBudget(max_nodes=5_000_000))
        assert result.complete
        assert result.optimum == 7
        assert result.nodes_explored == 114_866
        assert verify_isolation(result.witness).ok

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
        graph = compat_graph(k, t, identity=identity)
        g = nx.Graph()
        g.add_nodes_from(range(len(graph.vertices)))
        for u, mask in enumerate(graph.adjacency):
            g.add_edges_from((u, v) for v in range(u + 1, len(graph.vertices)) if mask >> v & 1)
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

    def test_universe_too_small(self):
        with pytest.raises(RangeError):
            max_triangular_bruteforce(3, 2, 2)

    def test_pair_cap(self):
        with pytest.raises(ResourceLimitError):
            max_triangular_bruteforce(4, 4, 30)

    def test_deterministic(self):
        assert max_triangular_bruteforce(2, 2, 7) == max_triangular_bruteforce(2, 2, 7)


def j_minus_i(n: int) -> BoolMatrix:
    return BoolMatrix.from_rows([[int(i != j) for j in range(n)] for i in range(n)])


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
        from isoset import triangular_family

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

    def test_ones_cap(self, monkeypatch):
        monkeypatch.setenv("ISOSET_MAX_DIM", "5")
        with pytest.raises(ResourceLimitError):
            boolean_rank_exact(BoolMatrix.identity(6))

    @pytest.mark.parametrize("n", range(2, 8))
    def test_complement_of_identity(self, n):
        # de Caen, Gregory & Pullman (1981): rank(J_n - I_n) = min{r : C(r, r // 2) >= n}
        m = j_minus_i(n)
        result = boolean_rank_exact(m)
        assert result.complete
        assert result.optimum == min(r for r in range(1, n + 1) if comb(r, r // 2) >= n)
        assert cover_covers_exactly(m, result.witness)

    def test_incomplete_lower_bound_is_fooling_bound(self):
        m = j_minus_i(8)
        result = boolean_rank_exact(m, RankBudget(max_nodes=1000))
        assert not result.complete
        assert result.lower_bound == fooling_lower_bound(m)
        assert result.lower_bound <= 5 <= result.optimum

    def test_budget_exhaustion_interval(self):
        m = build_A(4, 2)
        result = boolean_rank_exact(m, RankBudget(max_nodes=1))
        assert not result.complete
        assert result.lower_bound <= 4 <= result.optimum
        assert cover_covers_exactly(m, result.witness)

    def test_biclique_cap_interval(self):
        m = build_A(4, 2)
        result = boolean_rank_exact(m, RankBudget(max_bicliques=3))
        assert not result.complete
        assert result.lower_bound <= 4
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


class TestFoolingLowerBound:
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


class TestBudget:
    def test_positive_caps_required(self):
        with pytest.raises(ValueError):
            RankBudget(max_nodes=0)
        with pytest.raises(ValueError):
            RankBudget(max_bicliques=-1)


class TestNoReferenceCycles:
    def test_searches_leave_no_cyclic_garbage(self):
        # a recursive closure that outlives its search keeps everything it
        # captured alive until the next cyclic collection
        calls = [
            lambda: boolean_rank_exact(build_A(5, 2)),
            lambda: max_isolation_bruteforce(6, 3),
            lambda: max_triangular_bruteforce(2, 2, 4),
        ]
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()
