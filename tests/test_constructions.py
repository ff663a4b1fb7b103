"""Constructions: identity, circulant, isolation regimes, triangular."""

from math import comb

import pytest

from isoset import (
    BoolMatrix,
    RangeError,
    ResourceLimitError,
    circulant_isolation,
    family_to_matrix,
    identity_family,
    isolation_3t2,
    isolation_big_k,
    isolation_construct,
    isolation_maximal,
    isolation_regime,
    isolation_size,
    isolation_small_k,
    triangular_family,
    verify_identity,
    verify_isolation,
    verify_triangular,
)
from isoset.serialize import family_to_json

from conftest import elements_of, naive_pattern


def family_elements(fp):
    return [s.elements() for s in fp.rows], [s.elements() for s in fp.cols]


def assert_isolation_naive(fp):
    """Independent isolation check via plain set operations."""
    rows, cols = elements_of(fp)
    n = len(rows)
    for i in range(n):
        assert set(rows[i]) & set(cols[i]), f"empty diagonal at {i + 1}"
    for i in range(n):
        for j in range(n):
            if i != j and set(rows[i]) & set(cols[j]) and set(rows[j]) & set(cols[i]):
                raise AssertionError(f"2x2 all-ones block at ({i + 1}, {j + 1})")


class TestIdentityFamily:
    def test_k6_t2_exact(self):
        fp = identity_family(6, 2)
        rows, cols = family_elements(fp)
        assert rows == [(1, 3), (1, 4), (1, 5), (1, 6)]
        assert cols == [(2, 3), (2, 4), (2, 5), (2, 6)]
        assert fp.size == 4

    @pytest.mark.parametrize("t", [2, 3, 5])
    def test_k_equals_2t_size_two(self, t):
        assert identity_family(2 * t, t).size == 2

    def test_k9_t3_pattern_by_enumeration(self):
        fp = identity_family(9, 3)
        assert fp.size == 5
        rows, cols = elements_of(fp)
        assert naive_pattern(rows, cols) == [
            [1 if i == j else 0 for j in range(5)] for i in range(5)
        ]

    def test_below_range(self):
        with pytest.raises(RangeError):
            identity_family(5, 3)

    def test_t1_singleton_degeneration(self):
        fp = identity_family(4, 1)
        rows, cols = family_elements(fp)
        assert rows == cols == [(1,), (2,), (3,), (4,)]

    def test_size_sweep(self):
        for t in range(1, 7):
            for k in range(2 * t, 2 * t + 15):
                fp = identity_family(k, t)
                assert fp.size == k - 2 * t + 2
                assert verify_identity(fp).ok, (k, t)


class TestCirculant:
    def test_reference_grid(self, golden_dir):
        want = (golden_dir / "circulant_5_4.txt").read_text().splitlines()[1:]
        m = circulant_isolation(5, 4)
        assert [m.row_string(i) for i in range(1, 10)] == want

    def test_p1_q1_identity(self):
        assert circulant_isolation(1, 1) == BoolMatrix.identity(2)

    def test_p2_q1(self):
        m = circulant_isolation(2, 1)
        assert [m.row_string(i) for i in range(1, 4)] == ["101", "110", "011"]
        # q = p-1: complement is the transpose with an empty diagonal
        for i in range(1, 4):
            for j in range(1, 4):
                if i != j:
                    assert m.entry(i, j) == 1 - m.entry(j, i)

    def test_column_counts(self):
        for p in range(1, 9):
            for q in range(p - 1, p + 9):
                m = circulant_isolation(p, q)
                t = m.transpose()
                assert all(t.rows[j].bit_count() == p for j in range(p + q))

    def test_small_q_needs_flag(self):
        with pytest.raises(RangeError):
            circulant_isolation(3, 1)
        m = circulant_isolation(3, 1, allow_small_q=True)
        assert m.n_rows == 4


class TestIsolation3t2:
    def test_k4_t2_exact(self):
        fp = isolation_3t2(4, 2)
        rows, cols = family_elements(fp)
        assert rows == [(1, 4), (2, 4), (3, 4)]
        assert cols == [(1, 2), (2, 3), (1, 3)]
        assert family_to_matrix(fp) == circulant_isolation(2, 1)

    def test_k7_t3(self):
        fp = isolation_3t2(7, 3)
        assert fp.size == 5
        assert family_to_matrix(fp) == circulant_isolation(3, 2)

    @pytest.mark.parametrize("t", [2, 3, 4, 6])
    def test_boundary_size(self, t):
        assert isolation_3t2(3 * t - 2, t).size == 2 * t - 1

    def test_matches_circulant_sweep(self):
        for t in range(2, 7):
            for k in range(3 * t - 2, 3 * t + 7):
                fp = isolation_3t2(k, t)
                assert family_to_matrix(fp) == circulant_isolation(t, k - 2 * t + 1), (k, t)

    def test_below_range(self):
        with pytest.raises(RangeError):
            isolation_3t2(6, 3)


class TestIsolationSmallK:
    @pytest.mark.parametrize("t", range(3, 9))
    def test_pads_the_3t2_block(self, t):
        # k = 2t+r is isolation_3t2(3r+4, r+2), rows padded by the next t-r-2
        # elements and columns by the t-r-2 above those
        for r in range(t - 2):
            k, inner_k, pad = 2 * t + r, 3 * r + 4, t - r - 2
            fp = isolation_small_k(k, t)
            assert fp.size == 2 * r + 3
            rows, cols = family_elements(fp)
            inner_rows, inner_cols = family_elements(isolation_3t2(inner_k, r + 2))
            row_pad = tuple(range(inner_k + 1, inner_k + pad + 1))
            col_pad = tuple(range(inner_k + pad + 1, k + 1))
            assert rows == [row + row_pad for row in inner_rows]
            assert cols == [col + col_pad for col in inner_cols]
            assert_isolation_naive(fp)

    def test_t4_k8_padding(self):
        fp = isolation_small_k(8, 4)
        assert fp.size == 3
        rows, cols = family_elements(fp)
        # two padding elements per side on top of the inner (4, 2) family
        assert all({5, 6} <= set(r) for r in rows)
        assert all({7, 8} <= set(c) for c in cols)
        assert_isolation_naive(fp)

    def test_t5_k12_size(self):
        fp = isolation_small_k(12, 5)
        assert fp.size == 7
        assert_isolation_naive(fp)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            isolation_small_k(9, 3)  # r = 3 > t-3
        with pytest.raises(RangeError):
            isolation_small_k(7, 4)  # k < 2t


class TestIsolationBigK:
    def test_reference_family_exact(self, golden_dir):
        fp = isolation_big_k(12, 4)
        assert fp.size == 11
        rows, cols = family_elements(fp)
        assert rows == [
            (1, 8, 9, 10), (2, 8, 9, 10), (3, 8, 9, 10), (4, 8, 9, 10),
            (5, 8, 9, 10), (6, 8, 9, 10), (7, 8, 9, 10),
            (8, 9, 10, 11), (8, 10, 11, 12), (7, 8, 11, 12), (7, 8, 9, 12),
        ]
        assert cols == [
            (1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7),
            (1, 5, 6, 7), (1, 2, 6, 7), (1, 2, 3, 7),
            (1, 2, 3, 9), (1, 2, 3, 10), (1, 2, 3, 11), (1, 2, 3, 12),
        ]
        want = (golden_dir / "isolation_k12_t4.txt").read_text().splitlines()[1:]
        m = family_to_matrix(fp)
        assert [m.row_string(i) for i in range(1, 12)] == want

    def test_boundary_delegates(self):
        assert isolation_big_k(7, 3) == isolation_3t2(7, 3)

    @pytest.mark.parametrize("t", range(2, 9))
    def test_first_block_is_3t2(self, t):
        block_rows, block_cols = family_elements(isolation_3t2(3 * t - 2, t))
        for k in range(3 * t - 2, 4 * t - 2):
            rows, cols = family_elements(isolation_big_k(k, t))
            assert rows[: 2 * t - 1] == block_rows
            assert cols[: 2 * t - 1] == block_cols

    def test_k9_t3_second_block_rows(self):
        fp = isolation_big_k(9, 3)
        assert fp.size == 9
        rows, _ = family_elements(fp)
        assert rows[5:] == [(6, 7, 8), (7, 8, 9), (5, 8, 9), (5, 6, 9)]
        assert_isolation_naive(fp)

    def test_range_errors(self):
        with pytest.raises(RangeError):
            isolation_big_k(6, 3)
        with pytest.raises(RangeError):
            isolation_big_k(10, 3)


class TestIsolationMaximal:
    def test_reference_family_exact(self, golden_dir):
        fp = isolation_maximal(11, 3)
        assert fp.size == 11
        rows, cols = family_elements(fp)
        assert rows == [
            (1, 6, 7), (2, 6, 7), (3, 6, 7), (4, 6, 7), (5, 6, 7),
            (6, 7, 8), (7, 8, 9), (5, 8, 9), (5, 6, 9), (5, 6, 10), (5, 6, 11),
        ]
        assert cols == [
            (1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 4, 5), (1, 2, 5),
            (1, 2, 6), (1, 2, 7), (1, 2, 8), (1, 2, 9), (1, 2, 10), (1, 2, 11),
        ]
        want = (golden_dir / "isolation_k11_t3.txt").read_text().splitlines()[1:]
        m = family_to_matrix(fp)
        assert [m.row_string(i) for i in range(1, 12)] == want

    def test_boundary_equals_big_k(self):
        fp = isolation_maximal(9, 3)
        inner = isolation_big_k(9, 3)
        assert fp.rows == inner.rows and fp.cols == inner.cols

    @pytest.mark.parametrize("t", range(2, 9))
    def test_extends_big_k(self, t):
        inner_rows, inner_cols = family_elements(isolation_big_k(4 * t - 3, t))
        for k in range(4 * t - 3, 4 * t + 3):
            rows, cols = family_elements(isolation_maximal(k, t))
            assert rows[: 4 * t - 3] == inner_rows
            assert cols[: 4 * t - 3] == inner_cols

    def test_k13_t3_extension(self):
        fp = isolation_maximal(13, 3)
        assert fp.size == 13
        rows, cols = family_elements(fp)
        assert rows[11:] == [(5, 6, 12), (5, 6, 13)]
        assert cols[11:] == [(1, 2, 12), (1, 2, 13)]
        assert_isolation_naive(fp)

    def test_below_range(self):
        with pytest.raises(RangeError):
            isolation_maximal(8, 3)


class TestIsolationConstruct:
    @pytest.mark.parametrize(
        "k,t,size", [(4, 2, 3), (12, 4, 11), (11, 3, 11)]
    )
    def test_reference_sizes(self, k, t, size):
        assert isolation_construct(k, t).size == size

    def test_sweep_sizes_and_pattern(self):
        for t in range(2, 9):
            for k in range(2 * t, 4 * t + 11):
                fp = isolation_construct(k, t)
                want = 2 * (k - 2 * t) + 3 if k <= 4 * t - 3 else k
                assert fp.size == want == isolation_size(k, t), (k, t)
                assert verify_isolation(fp).ok, (k, t)

    def test_t1_singletons(self):
        fp = isolation_construct(5, 1)
        rows, cols = family_elements(fp)
        assert rows == cols == [(i,) for i in range(1, 6)]
        assert isolation_regime(5, 1) == "singletons"

    def test_below_2t_single_pair(self):
        fp = isolation_construct(3, 2)
        assert fp.size == 1
        assert verify_isolation(fp).ok
        assert isolation_regime(3, 2) == "single-pair"

    def test_regimes(self):
        assert isolation_regime(6, 3) == "small-k"
        assert isolation_regime(8, 3) == "big-k"
        assert isolation_regime(9, 3) == "maximal"
        assert isolation_regime(4, 2) == "big-k"

    def test_t_bigger_than_k(self):
        with pytest.raises(RangeError):
            isolation_construct(2, 3)

    def test_deterministic_serialization(self):
        for k, t in [(12, 4), (11, 3), (6, 3), (3, 2)]:
            assert family_to_json(isolation_construct(k, t)) == family_to_json(
                isolation_construct(k, t)
            )


class TestTriangular:
    def test_a2_b1_exact(self):
        fp = triangular_family(2, 1)
        rows, cols = family_elements(fp)
        assert rows == [(1, 3), (1, 2)]
        assert cols == [(1,), (2,)]

    def test_a2_b2_size(self):
        fp = triangular_family(2, 2)
        assert fp.size == 5 == comb(4, 2) - 1
        assert verify_triangular(fp).ok

    def test_a3_b3_full_enumeration(self):
        fp = triangular_family(3, 3)
        assert fp.size == 19 == comb(6, 3) - 1
        rows, cols = elements_of(fp)
        grid = naive_pattern(rows, cols)
        for i in range(19):
            for j in range(19):
                assert grid[i][j] == (1 if i >= j else 0), (i + 1, j + 1)

    @pytest.mark.parametrize("a,b", [(a, b) for a in range(1, 5) for b in range(1, 5)] + [(5, 1), (1, 5)])
    def test_size_formula(self, a, b):
        fp = triangular_family(a, b)
        assert fp.size == comb(a + b, a) - 1
        assert fp.row_size == a and fp.col_size == b
        assert verify_triangular(fp).ok
        # fresh elements are numbered consecutively: exactly 1..universe are used
        used = {e for s in fp.rows + fp.cols for e in s.elements()}
        assert used == set(range(1, fp.universe + 1))
        assert fp.meta["universe_allocated"] == fp.universe

    @pytest.mark.parametrize("a", [1, 2, 4])
    def test_base_sizes(self, a):
        assert triangular_family(a, 1).size == a
        assert triangular_family(1, a).size == a

    def test_meta_records_allocation(self):
        fp = triangular_family(2, 2)
        assert fp.meta["universe_allocated"] == fp.universe  # recursion wastes nothing

    def test_large_instance_universe(self):
        # the recursion consumes hundreds of fresh elements
        fp = triangular_family(5, 5)
        assert fp.size == comb(10, 5) - 1 == 251
        assert fp.universe < 1024
        assert verify_triangular(fp).ok

    def test_size_cap(self, monkeypatch):
        # 92,377 pairs exceed the default cap of 2**16 before anything is built
        with pytest.raises(ResourceLimitError):
            triangular_family(9, 10)
        monkeypatch.setenv("ISOSET_MAX_DIM", "100")
        assert triangular_family(4, 4).size == 69
        with pytest.raises(ResourceLimitError):
            triangular_family(5, 4)  # 125 pairs

    def test_deterministic(self):
        assert family_to_json(triangular_family(3, 2)) == family_to_json(triangular_family(3, 2))

    def test_range_error(self):
        with pytest.raises(RangeError):
            triangular_family(0, 2)

