"""Walkthrough: Boolean rank, rectangle covers, and its two lower bounds.

The Boolean rank of a 0/1 matrix is the least number of all-ones rectangles
(row set x column set) covering its ones; any isolation set gives a lower
bound since no rectangle can contain two of its entries.  So does the
antichain bound: distinct rows of equal weight need pairwise incomparable
sets of rectangles.  The exact solver runs its cheap certificate first: a
row-set factor search at the antichain bound.  Only where that leaves the
bracket open does it enumerate maximal rectangles for a greedy cover,
search for the largest isolation set, and run branch-and-bound set cover.
"""

import random
from math import comb

from isoset import (
    BoolMatrix,
    boolean_rank_exact,
    build_A,
    circulant_isolation,
    cover_to_factors,
    fooling_lower_bound,
    verify_identity_decomposition,
)

# ---------------------------------------------------------------------------
# The full matrix at k=5, t=2 has Boolean rank 5: one "star" rectangle per
# element of the ground set (all subsets containing it) covers everything,
# and no four rectangles suffice.  Its 10 rows are distinct and of one
# weight, and C(4, 2) = 6 < 10, so the antichain bound is 5.  Ten rows
# cannot all get single rectangles, so the factor search tries 2-sets of
# the 5 rectangles first, the sets the stars give, and finds them at once.
m = build_A(5, 2)
result = boolean_rank_exact(m)
print(f"rank of A(5,2) = {result.optimum} (complete={result.complete},"
      f" {result.nodes_explored} nodes)")
for idx, (rows, cols) in enumerate(result.witness, 1):
    print(f"  rectangle {idx}: rows {rows} cols {cols}")
print()

# The same search certifies the paper's rank A(k, t) = k well beyond the
# reach of rectangle enumeration: A(8, 3) has 56 rows of one weight.
result = boolean_rank_exact(build_A(8, 3))
print(f"rank of A(8,3) = {result.optimum} (complete={result.complete},"
      f" {result.nodes_explored} nodes)")
print()

# ---------------------------------------------------------------------------
# Isolation matrices have full rank: the diagonal is a fooling set of the
# matrix size, and one rectangle per row matches it from above.  In the
# natural order the greedy fooling bound, which scans the ones row-major,
# finds the whole diagonal.  Shuffle the rows and columns and it stops
# short; the solver then searches for the largest fooling set as a maximum
# clique and still certifies rank 9.
f = circulant_isolation(5, 4)
print("F(5,4): fooling lower bound =", fooling_lower_bound(f),
      " exact rank =", boolean_rank_exact(f).optimum)
rng = random.Random(1)
row_order = rng.sample(range(f.n_rows), f.n_rows)
col_order = rng.sample(range(f.n_cols), f.n_cols)
shuffled = BoolMatrix.from_rows([[f.rows[i] >> j & 1 for j in col_order] for i in row_order])
result = boolean_rank_exact(shuffled)
print("F(5,4) shuffled: fooling lower bound =", fooling_lower_bound(shuffled),
      " exact rank =", result.optimum,
      f"(complete={result.complete}, {result.nodes_explored} nodes)")
print()

# ---------------------------------------------------------------------------
# On J_8 - I_8 (all ones but the diagonal) the greedy isolation set stops at
# two entries, far below the rank.  Its 8 rows are distinct with weight 7,
# so their rectangle sets form an antichain, and Sperner's theorem needs
# C(r, r // 2) >= 8, i.e. r >= 5.  The factor search finds 5 rectangles at
# once (de Caen, Gregory & Pullman 1981 proved this rank in closed form).
n = 8
j = BoolMatrix(n, n, tuple(((1 << n) - 1) & ~(1 << i) for i in range(n)))
antichain = min(r for r in range(n + 1) if comb(r, r // 2) >= n)
result = boolean_rank_exact(j)
print(f"J_{n} - I_{n}: fooling bound {fooling_lower_bound(j)}, antichain bound {antichain},"
      f" rank {result.optimum} (complete={result.complete}, {result.nodes_explored} nodes)")
print()

# ---------------------------------------------------------------------------
# Optimal covers of the identity are forced: every rectangle is a single
# diagonal cell, which the decomposition certificate checks structurally,
# including the total-ones bound 2n + (r-n)n.
n = 5
result = boolean_rank_exact(BoolMatrix.identity(n))
x, y = cover_to_factors(result.witness, n, n)
cert = verify_identity_decomposition(x, y)
print(f"I_{n}: rank {result.optimum}, decomposition ok={cert.ok}")
for note in cert.notes:
    print("  " + note)
