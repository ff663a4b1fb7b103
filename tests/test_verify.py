"""Pattern certificates and the identity-decomposition checker."""

import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoset import (
    BoolMatrix,
    FamilyPair,
    family_to_matrix,
    identity_family,
    isolation_big_k,
    isolation_maximal,
    triangular_family,
    verify_identity,
    verify_identity_decomposition,
    verify_isolation,
    verify_matrix_identity,
    verify_matrix_isolation,
    verify_matrix_triangular,
    verify_triangular,
)
from isoset.core import VIOLATION_CAP

from conftest import elements_of, naive_pattern


def family(rows, cols, universe):
    return FamilyPair.from_elements(rows, cols, universe)


# a small pool of arbitrary square families for property checks
def family_strategy(max_universe=10, max_size=6):
    @st.composite
    def build(draw):
        universe = draw(st.integers(2, max_universe))
        a = draw(st.integers(1, min(3, universe)))
        b = draw(st.integers(1, min(3, universe)))
        n = draw(st.integers(1, max_size))
        subset = lambda size: st.frozensets(
            st.integers(1, universe), min_size=size, max_size=size
        )
        rows = [draw(subset(a)) for _ in range(n)]
        cols = [draw(subset(b)) for _ in range(n)]
        return family(rows, cols, universe)

    return build()


class TestVerifyIsolation:
    def test_maximal_family_ok(self):
        assert verify_isolation(isolation_maximal(11, 3)).ok

    def test_shared_element_everywhere(self):
        cert = verify_isolation(family([[1, 2], [1, 3]], [[1, 2], [1, 3]], 3))
        assert not cert.ok
        assert (1, 2, 1, 0) in cert.violations

    def test_swapped_rows_break_diagonal(self):
        fp = isolation_big_k(12, 4)
        rows = (fp.rows[1], fp.rows[0]) + fp.rows[2:]
        swapped = FamilyPair(fp.universe, fp.row_size, fp.col_size, rows, fp.cols)
        assert not verify_isolation(swapped).ok

    def test_empty_diagonal_reported(self):
        cert = verify_isolation(family([[1], [2]], [[2], [1]], 2))
        assert not cert.ok
        assert (1, 1, 0, 1) in cert.violations and (2, 2, 0, 1) in cert.violations


class TestVerifyMatrixIsolation:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_identity_ok(self, n):
        assert verify_matrix_isolation(BoolMatrix.identity(n)).ok

    def test_circulant_ok(self):
        from isoset import circulant_isolation

        assert verify_matrix_isolation(circulant_isolation(5, 4)).ok

    def test_all_ones_2x2(self):
        cert = verify_matrix_isolation(BoolMatrix.all_ones(2, 2))
        assert not cert.ok
        assert (1, 2, 1, 0) in cert.violations

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            verify_matrix_isolation(BoolMatrix.all_ones(2, 3))


class TestVerifyIdentity:
    def test_construction_ok(self):
        assert verify_identity(identity_family(6, 2)).ok

    def test_off_diagonal_intersection(self):
        assert not verify_identity(family([[1, 2], [2, 3]], [[1, 2], [2, 3]], 3)).ok

    def test_isolation_family_not_identity(self):
        assert not verify_identity(isolation_maximal(11, 3)).ok


class TestVerifyTriangular:
    def test_base_ok(self):
        assert verify_triangular(triangular_family(2, 1)).ok

    def test_recursive_ok(self):
        fp = triangular_family(2, 2)
        assert fp.size == 5
        assert verify_triangular(fp).ok

    def test_identity_family_not_triangular(self):
        cert = verify_triangular(identity_family(8, 2))
        assert not cert.ok
        # zeros below the diagonal are the reported violations
        assert (2, 1, 0, 1) in cert.violations


class TestMatrixPatternChecks:
    def test_identity_matrix(self):
        assert verify_matrix_identity(BoolMatrix.identity(4)).ok
        assert not verify_matrix_identity(BoolMatrix.all_ones(2, 2)).ok

    def test_triangular_matrix(self):
        m = BoolMatrix.from_rows(["100", "110", "111"])
        assert verify_matrix_triangular(m).ok
        assert not verify_matrix_triangular(BoolMatrix.identity(3)).ok


def naive_violations(fp):
    """Violation lists of the three patterns, from the set-based grid alone."""
    grid = naive_pattern(*elements_of(fp))
    n = len(grid)
    cells = [(i, j) for i in range(n) for j in range(n)]

    def mismatches(want):
        return [(i + 1, j + 1, grid[i][j], want(i, j)) for i, j in cells if grid[i][j] != want(i, j)]

    return {
        "identity": mismatches(lambda i, j: int(i == j)),
        "triangular": mismatches(lambda i, j: int(i >= j)),
        "isolation": [(i + 1, i + 1, 0, 1) for i in range(n) if not grid[i][i]]
        + [(i + 1, j + 1, 1, 0) for i, j in cells if i < j and grid[i][j] and grid[j][i]],
    }


def large_universe_families():
    """Families over [1500] whose elements sit near the top of the universe."""
    rng = random.Random(7)
    pool = range(1490, 1501)
    out = []
    for n in (1, 4, 9):
        rows = [rng.sample(pool, 3) for _ in range(n)]
        cols = [rng.sample(pool, 2) for _ in range(n)]
        out.append(family(rows, cols, 1500))
    return out


class TestCrossViewAgreement:
    @staticmethod
    def assert_matches_naive(fp):
        naive = naive_violations(fp)
        m = family_to_matrix(fp)
        for pattern, family_check, matrix_check in [
            ("identity", verify_identity, verify_matrix_identity),
            ("triangular", verify_triangular, verify_matrix_triangular),
            ("isolation", verify_isolation, verify_matrix_isolation),
        ]:
            cert = family_check(fp)
            assert cert.pattern == pattern
            assert cert.violations == tuple(naive[pattern])
            assert cert.ok == (not naive[pattern])
            assert matrix_check(m) == cert

    @settings(max_examples=200)
    @given(family_strategy())
    def test_family_and_matrix_views_agree(self, fp):
        self.assert_matches_naive(fp)

    @pytest.mark.parametrize("fp", large_universe_families(), ids=lambda fp: f"n{fp.size}")
    def test_large_universe_matches_naive(self, fp):
        assert fp.universe > 1000
        self.assert_matches_naive(fp)

    @given(family_strategy())
    def test_identity_implies_isolation(self, fp):
        if verify_identity(fp).ok:
            assert verify_isolation(fp).ok

    @given(family_strategy())
    def test_triangular_implies_isolation(self, fp):
        if verify_triangular(fp).ok:
            assert verify_isolation(fp).ok

    def test_implications_on_constructions(self):
        for fp in [identity_family(8, 2), identity_family(9, 3)]:
            assert verify_isolation(fp).ok
        for ab in [(2, 2), (3, 2), (3, 3)]:
            assert verify_isolation(triangular_family(*ab)).ok


class TestViolationCap:
    def test_certificate_truncated(self):
        n = 150  # all diagonal pairs collide: n*(n-1)/2 > VIOLATION_CAP
        ones = [[1]] * n
        cert = verify_isolation(family(ones, ones, 1))
        assert not cert.ok
        assert len(cert.violations) == VIOLATION_CAP

    def test_violations_past_the_cap_are_never_built(self):
        n = 600  # n * (n - 1) = 359,400 off-diagonal violations
        m = BoolMatrix.all_ones(n, n)
        tracemalloc.start()
        try:
            cert = verify_matrix_identity(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        expected = ((i, j, 1, 0) for i in range(1, n + 1) for j in range(1, n + 1) if i != j)
        assert not cert.ok
        assert cert.violations == tuple(islice(expected, VIOLATION_CAP))
        assert peak < 4 * 2**20


class TestIdentityDecomposition:
    def test_trivial(self):
        cert = verify_identity_decomposition(BoolMatrix.identity(3), BoolMatrix.identity(3))
        assert cert.ok

    def test_padded_decomposition(self):
        # X columns e_1, e_2, zeros; Y rows e_1, e_2, all-ones
        x = BoolMatrix.from_rows(["100", "010"])
        y = BoolMatrix.from_rows(["10", "01", "11"])
        # independent product check first
        product = [
            [
                1 if any(x.entry(i, m) and y.entry(m, j) for m in range(1, 4)) else 0
                for j in range(1, 3)
            ]
            for i in range(1, 3)
        ]
        assert product == [[1, 0], [0, 1]]
        assert x.count_ones() + y.count_ones() == 6 <= 2 * 2 + (3 - 2) * 2
        cert = verify_identity_decomposition(x, y)
        assert cert.ok

    def test_product_precondition(self):
        x = BoolMatrix.from_rows(["11", "01"])
        y = BoolMatrix.identity(2)
        with pytest.raises(ValueError, match=r"\(1, 2\)"):
            verify_identity_decomposition(x, y)

    def test_shape_precondition(self):
        with pytest.raises(ValueError):
            verify_identity_decomposition(BoolMatrix.identity(2), BoolMatrix.identity(3))

    def test_ones_bound_violation_reported(self):
        # duplicated basis pairs on I_1 exceed the stated bound 2n + (r-n)n
        x = BoolMatrix.from_rows(["11"])
        y = BoolMatrix.from_rows(["1", "1"])
        cert = verify_identity_decomposition(x, y)
        assert not cert.ok
        assert (0, 0, 4, 3) in cert.violations
