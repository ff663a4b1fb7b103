"""Core types: subsets, families, matrices, enumeration, realization."""

import dataclasses
import pickle
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isoset import (
    BoolMatrix,
    FamilyPair,
    RangeError,
    ResourceLimitError,
    Subset,
    build_A,
    compat_graph,
    enumerate_t_subsets,
    family_to_json,
    family_to_matrix,
    identity_family,
    intersects,
    max_dimension,
    triangular_family,
    verify_isolation,
)
from isoset.core import _transpose, iter_bits, realize

from conftest import elements_of, naive_pattern


def S(elems, universe):
    return Subset.of(elems, universe)


def naive_bits(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


class TestIterBits:
    @pytest.mark.parametrize(
        "mask",
        [
            0,
            1,
            sum(1 << e for e in (0, 1, 700, 2105, 4208, 4209)),  # 4,210 bits, sparse
            build_A(16, 4).rows[0],  # a row of 1,820 columns, 1,325 set
            (1 << 1820) - 1,
        ],
        ids=["zero", "one", "sparse-4210", "dense-1820", "full-1820"],
    )
    def test_fixed_masks(self, mask):
        assert iter_bits(mask) == naive_bits(mask)

    @given(st.integers(0, 1 << 300))
    def test_matches_naive(self, mask):
        assert iter_bits(mask) == naive_bits(mask)


class TestSubset:
    def test_elements_roundtrip(self):
        s = S([3, 1, 7], 8)
        assert s.elements() == (1, 3, 7)
        assert s.cardinality() == 3
        assert 3 in s and 2 not in s

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            S([5], 4)
        with pytest.raises(ValueError):
            S([0], 4)

    def test_rejects_bits_beyond_universe(self):
        with pytest.raises(ValueError):
            Subset(universe=3, bits=1 << 3)

    def test_rejects_repeated_element(self):
        # [1, 1, 2] once read as the 2-subset {1, 2}
        with pytest.raises(ValueError, match="element 1 repeated"):
            S([1, 1, 2], 4)
        with pytest.raises(ValueError, match="element 3 repeated"):
            FamilyPair.from_elements([[1, 3, 3]], [[1, 2]], 4)


class TestIntersects:
    def test_shared_element(self):
        assert intersects(S([1, 2], 4), S([2, 3], 4))

    def test_disjoint(self):
        assert not intersects(S([1, 2], 4), S([3, 4], 4))

    def test_large_indices(self):
        # entry (row 1, col 8) of the size-11 isolation family at k=12, t=4
        assert intersects(S([8, 9, 10, 1], 12), S([3, 2, 1, 9], 12))

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            intersects(S([1], 3), S([1], 4))


class TestEnumerateTSubsets:
    def test_counts(self):
        assert len(enumerate_t_subsets(4, 2)) == 6
        assert len(enumerate_t_subsets(7, 3)) == 35

    def test_full_set(self):
        (only,) = enumerate_t_subsets(5, 5)
        assert only.elements() == (1, 2, 3, 4, 5)

    def test_colex_order_k4_t2(self):
        got = [s.elements() for s in enumerate_t_subsets(4, 2)]
        assert got == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    @pytest.mark.parametrize("k,t", [(6, 2), (6, 3), (7, 4)])
    def test_colex_order_and_uniqueness(self, k, t):
        got = [s.elements() for s in enumerate_t_subsets(k, t)]
        assert len(set(got)) == len(got) == len(list(combinations(range(k), t)))
        keys = [tuple(reversed(e)) for e in got]
        assert keys == sorted(keys)

    def test_t_larger_than_k(self):
        with pytest.raises(ValueError):
            enumerate_t_subsets(3, 4)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("ISOSET_MAX_DIM", "10")
        assert len(enumerate_t_subsets(5, 2)) == len(enumerate_t_subsets(5, 3)) == 10
        with pytest.raises(ResourceLimitError, match="20 rows of A_\\(6,3\\)"):
            enumerate_t_subsets(6, 3)
        monkeypatch.delenv("ISOSET_MAX_DIM")
        with pytest.raises(ResourceLimitError):
            enumerate_t_subsets(20, 10)  # C(20, 10) = 184,756 over the default 2**16

    @pytest.mark.parametrize("k,t", [(3, 4), (0, 1), (5, 0), (5, -1)])
    def test_range_checked_before_the_cap(self, monkeypatch, k, t):
        monkeypatch.setenv("ISOSET_MAX_DIM", "1")
        with pytest.raises(RangeError):
            enumerate_t_subsets(k, t)


class TestBuildA:
    def test_all_ones_below_2t(self):
        # every two t-subsets of [k] intersect when k < 2t
        for k, t in [(3, 2), (5, 3)]:
            m = build_A(k, t)
            assert m == BoolMatrix.all_ones(m.n_rows, m.n_cols)

    def test_zero_count_4_2(self):
        # independent oracle: enumerate disjoint unordered pairs directly
        subsets = list(combinations(range(1, 5), 2))
        disjoint = sum(
            1
            for i, x in enumerate(subsets)
            for y in subsets[i + 1 :]
            if not set(x) & set(y)
        )
        assert disjoint == 3
        m = build_A(4, 2)
        zeros_above = sum(
            1
            for i in range(1, 7)
            for j in range(i + 1, 7)
            if m.entry(i, j) == 0
        )
        assert zeros_above == disjoint

    def test_zero_count_5_2(self):
        subsets = list(combinations(range(1, 6), 2))
        disjoint_ordered = sum(
            1 for x in subsets for y in subsets if x != y and not set(x) & set(y)
        )
        assert disjoint_ordered == 30
        m = build_A(5, 2)
        zeros = sum(
            1
            for i in range(1, 11)
            for j in range(1, 11)
            if m.entry(i, j) == 0
        )
        assert zeros == disjoint_ordered

    @pytest.mark.parametrize("k,t", [(4, 2), (5, 2), (6, 3)])
    def test_symmetric_with_unit_diagonal(self, k, t):
        m = build_A(k, t)
        assert m.n_rows == m.n_cols
        for i in range(1, m.n_rows + 1):
            assert m.entry(i, i) == 1
            for j in range(1, m.n_cols + 1):
                assert m.entry(i, j) == m.entry(j, i)

    def test_equals_realized_enumeration(self):
        subsets = enumerate_t_subsets(5, 2)
        assert build_A(5, 2) == realize(subsets, subsets)

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("ISOSET_MAX_DIM", "10")
        with pytest.raises(ResourceLimitError):
            build_A(6, 3)

    @pytest.mark.parametrize("build", [build_A, compat_graph])
    def test_negative_t_is_a_range_error(self, build):
        # the range is checked before C(k, t), which math.comb refuses for t < 0
        with pytest.raises(RangeError):
            build(5, -1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("ISOSET_MAX_DIM", "5")
        assert max_dimension() == 5
        with pytest.raises(ResourceLimitError):
            build_A(4, 2)
        monkeypatch.setenv("ISOSET_MAX_DIM", "6")
        assert build_A(4, 2).n_rows == 6


class TestFamilyPair:
    def test_square_required(self):
        with pytest.raises(ValueError):
            FamilyPair(3, 1, 1, (S([1], 3),), (S([1], 3), S([2], 3)))

    def test_cardinality_checked(self):
        with pytest.raises(ValueError):
            FamilyPair(4, 2, 2, (S([1], 4),), (S([2, 3], 4),))

    def test_universe_checked(self):
        with pytest.raises(ValueError):
            FamilyPair(4, 1, 1, (S([1], 5),), (S([2], 4),))

    def test_zero_pairs_rejected_by_both_constructors(self):
        with pytest.raises(ValueError, match="at least one pair"):
            FamilyPair(4, 2, 2, (), ())
        with pytest.raises(ValueError, match="at least one pair"):
            FamilyPair.from_elements([], [], 4)


class TestFamilyToMatrix:
    def test_singletons_give_identity(self):
        fp = FamilyPair.from_elements([[1], [2], [3]], [[1], [2], [3]], 3)
        assert family_to_matrix(fp) == BoolMatrix.identity(3)

    def test_disjoint_pair_gives_zero(self):
        fp = FamilyPair.from_elements([[1, 2]], [[3, 4]], 4)
        assert family_to_matrix(fp) == BoolMatrix.zeros(1, 1)

    def test_matches_naive_oracle(self):
        fp = FamilyPair.from_elements(
            [[1, 2], [2, 3], [4, 5]], [[2, 5], [1, 4], [3, 5]], 5
        )
        rows, cols = elements_of(fp)
        expected = naive_pattern(rows, cols)
        m = family_to_matrix(fp)
        got = [[m.entry(i, j) for j in range(1, 4)] for i in range(1, 4)]
        assert got == expected

    @given(
        st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=3), min_size=1, max_size=5),
        st.lists(st.sets(st.integers(1, 8), min_size=1, max_size=3), min_size=1, max_size=5),
    )
    def test_transposed_views_agree(self, rows, cols):
        rs = [Subset.of(r, 8) for r in rows]
        cs = [Subset.of(c, 8) for c in cols]
        m = realize(rs, cs)
        mt = realize(cs, rs)
        for i in range(1, len(rs) + 1):
            for j in range(1, len(cs) + 1):
                assert m.entry(i, j) == mt.entry(j, i)


class TestRealizedOnce:
    def test_every_call_returns_the_same_matrix(self):
        fp = triangular_family(3, 3)
        m = family_to_matrix(fp)
        assert family_to_matrix(fp) is m
        assert m == realize(fp.rows, fp.cols)

    def test_realized_once_across_callers(self):
        fp = identity_family(7, 2)
        with mock.patch("isoset.core.realize", wraps=realize) as spy:
            family_to_matrix(fp)
            verify_isolation(fp)
            family_to_matrix(fp)
        assert spy.call_count == 1

    def test_replace_gets_its_own_matrix(self):
        fp = identity_family(6, 2)
        m = family_to_matrix(fp)
        relabelled = dataclasses.replace(fp, meta={})
        assert family_to_matrix(relabelled) is not m
        assert family_to_matrix(relabelled) == m
        swapped = dataclasses.replace(fp, cols=fp.rows)
        assert family_to_matrix(swapped) == realize(fp.rows, fp.rows) != m

    def test_equality_pickle_and_json_ignore_the_matrix(self):
        fp, fresh = triangular_family(3, 2), triangular_family(3, 2)
        family_to_matrix(fp)
        assert fp == fresh
        assert pickle.dumps(fp) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(fp))
        assert back == fp
        assert family_to_matrix(back) == family_to_matrix(fp)
        assert family_to_json(fp) == family_to_json(fresh)


class TestBoolMatrix:
    def test_entry_and_row_string(self):
        m = BoolMatrix.from_rows(["101", "010"])
        assert m.entry(1, 1) == 1 and m.entry(1, 2) == 0 and m.entry(2, 2) == 1
        assert m.row_string(1) == "101"

    def test_ones_row_major(self):
        m = BoolMatrix.from_rows(["01", "11"])
        assert m.ones() == [(1, 2), (2, 1), (2, 2)]
        assert m.count_ones() == 3

    def test_transpose(self):
        m = BoolMatrix.from_rows(["110", "001"])
        assert m.transpose() == BoolMatrix.from_rows(["10", "10", "01"])

    @given(
        st.integers(0, 6).flatmap(
            lambda width: st.lists(
                st.lists(st.integers(0, 1), min_size=width, max_size=width), max_size=6
            ).map(lambda cells: (width, cells))
        )
    )
    def test_transpose_matches_cells(self, grid):
        # grids may have no rows or no columns, and all-zero rows and columns
        width, cells = grid
        masks = [sum(v << j for j, v in enumerate(row)) for row in cells]
        naive = [sum(row[j] << i for i, row in enumerate(cells)) for j in range(width)]
        assert _transpose(masks, width) == naive
        assert _transpose(naive, len(cells)) == masks

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            BoolMatrix.from_rows(["10", "1"])

    def test_bad_entry_rejected(self):
        with pytest.raises(ValueError):
            BoolMatrix.from_rows([[0, 2]])
