"""Pattern certificates for families, matrices, and identity decompositions.

Identity, triangular and isolation sets are properties of the realized 0/1
matrix, so each family verifier checks family_to_matrix(fp) with its matrix
counterpart.  Violations come from row-mask differences: the set bits of
row ^ expected_row for identity and triangular, and for isolation first the
missing diagonal entries, then the above-diagonal bits of row & transposed
row.  Every violation is an (i, j, observed, expected) quadruple with
1-based indices, listed in row-major order within each kind, so
property-test shrinking stays informative.  Violations are generated
lazily, and a certificate stops drawing them at VIOLATION_CAP.
"""

from __future__ import annotations

from itertools import chain

from .core import BoolMatrix, FamilyPair, PatternCertificate, family_to_matrix, iter_bits


def verify_isolation(fp: FamilyPair) -> PatternCertificate:
    """Check that the family's diagonal is an isolation set.

    Requires rows[i] to meet cols[i] for every i, and for every i != j at
    least one of the cross intersections rows[i] & cols[j], rows[j] & cols[i]
    to be empty.  A failing diagonal entry is reported as (i, i, 0, 1); a
    failing pair as (i, j, 1, 0) with i < j.
    """
    return verify_matrix_isolation(family_to_matrix(fp))


def verify_matrix_isolation(m: BoolMatrix) -> PatternCertificate:
    """Check that the main diagonal of a square matrix is an isolation set."""
    _require_square(m)
    diagonal = ((i + 1, i + 1, 0, 1) for i, row in enumerate(m.rows) if not row >> i & 1)
    pairs = (
        (i + 1, j + 1, 1, 0)
        for i, (row, col) in enumerate(zip(m.rows, m.transpose().rows))
        for j in iter_bits(row & col & ~((2 << i) - 1))
    )
    return PatternCertificate.from_violations("isolation", chain(diagonal, pairs))


def verify_identity(fp: FamilyPair) -> PatternCertificate:
    """Check rows[i] meets cols[j] exactly when i == j."""
    return verify_matrix_identity(family_to_matrix(fp))


def verify_triangular(fp: FamilyPair) -> PatternCertificate:
    """Check rows[i] meets cols[j] exactly when i >= j (ones on and below the diagonal)."""
    return verify_matrix_triangular(family_to_matrix(fp))


def verify_matrix_identity(m: BoolMatrix) -> PatternCertificate:
    """Check a square matrix equals the identity pattern entry for entry."""
    return _verify_rows(m, "identity", lambda i: 1 << i)


def verify_matrix_triangular(m: BoolMatrix) -> PatternCertificate:
    """Check a square matrix has ones exactly on and below the diagonal."""
    return _verify_rows(m, "triangular", lambda i: (2 << i) - 1)


def _verify_rows(m: BoolMatrix, pattern: str, expected_row) -> PatternCertificate:
    _require_square(m)
    # j is a bit where row differs from the expected row, so expected is its flip
    violations = (
        (i + 1, j + 1, row >> j & 1, (row >> j & 1) ^ 1)
        for i, row in enumerate(m.rows)
        for j in iter_bits(row ^ expected_row(i))
    )
    return PatternCertificate.from_violations(pattern, violations)


def _require_square(m: BoolMatrix) -> None:
    if m.n_rows != m.n_cols:
        raise ValueError(f"matrix must be square, got {m.n_rows}x{m.n_cols}")


def verify_identity_decomposition(x: BoolMatrix, y: BoolMatrix) -> PatternCertificate:
    """Certify the structure of a Boolean decomposition X*Y = I_n.

    Preconditions (raise ValueError): X is n x r, Y is r x n, and the
    Boolean product X*Y equals I_n; a failing product reports its first
    wrong entry in row-major order.

    The certificate then checks, as labeled sub-results:
      * pair condition - for each inner index i, column i of X and row i of
        Y are the same standard basis vector, or one of them is all zeros;
        a violation is reported as (i, 0, 1, 0);
      * basis coverage - every basis vector e_j appears as such a pair;
        a missing j is reported as (0, j, 0, 1);
      * ones bound - the total number of ones in X and Y is at most
        2n + (r-n)*n; an excess is reported as (0, 0, total, bound).
    """
    n, r = x.n_rows, x.n_cols
    if y.n_rows != r or y.n_cols != n:
        raise ValueError(
            f"shape mismatch: X is {n}x{r} so Y must be {r}x{n}, got {y.n_rows}x{y.n_cols}"
        )
    for i in range(n):
        produced = 0
        for inner in iter_bits(x.rows[i]):
            produced |= y.rows[inner]
        expected = 1 << i
        if produced != expected:
            j = next(iter_bits(produced ^ expected)) + 1
            raise ValueError(
                f"X*Y is not the identity: first wrong entry at ({i + 1}, {j})"
            )

    x_cols = x.transpose().rows
    violations = []
    pair_failures = 0
    covered = [False] * n
    for i in range(r):
        xi, yi = x_cols[i], y.rows[i]
        if xi == 0 or yi == 0:
            continue
        if xi == yi and xi.bit_count() == 1:
            covered[xi.bit_length() - 1] = True
            continue
        pair_failures += 1
        violations.append((i + 1, 0, 1, 0))
    missing = [j + 1 for j in range(n) if not covered[j]]
    for j in missing:
        violations.append((0, j, 0, 1))
    total_ones = x.count_ones() + y.count_ones()
    bound = 2 * n + (r - n) * n
    if total_ones > bound:
        violations.append((0, 0, total_ones, bound))

    notes = (
        f"pair-condition: {'ok' if pair_failures == 0 else f'{pair_failures} bad inner indices'}",
        f"basis-coverage: {'ok' if not missing else 'missing ' + ','.join(map(str, missing))}",
        f"ones-count: {total_ones} {'<=' if total_ones <= bound else '>'} {bound}",
    )
    return PatternCertificate.from_violations("identity-decomposition", violations, notes)
