"""Explicit constructions of extremal submatrix families.

Each construction returns a FamilyPair of t-subsets of [k] (or a raw
BoolMatrix for the circulant template) realizing a target intersection
pattern: identity families, circulant isolation matrices, the four
isolation regimes with their dispatcher, and the recursive triangular
families.  All constructions are deterministic.
"""

from __future__ import annotations

from dataclasses import replace
from math import comb

from .core import (
    BoolMatrix,
    FamilyPair,
    RangeError,
    check_cap,
)


def _run(count: int, low: int) -> int:
    """The mask of ``count`` consecutive bits from bit ``low`` up."""
    return ((1 << count) - 1) << low


def _window(n: int, w: int, start: int) -> int:
    """The w cyclically consecutive residues of [n] from bit ``start`` on, as a mask."""
    run = _run(w, start)
    return (run | run >> n) & _run(n, 0)


def _windows(n: int, t: int) -> tuple[list[int], list[int]]:
    """The cyclic-window block of size n, as (row masks, col masks).

    Row i is {i} plus the tail {n+1..n+t-1}; column j is the t residues of
    [n] that follow j cyclically, j included.  Row i meets column j iff
    (i - j) mod n < t.
    """
    tail = _run(t - 1, n)
    return [1 << i | tail for i in range(n)], [_window(n, t, j) for j in range(n)]


def identity_family(k: int, t: int) -> FamilyPair:
    """Family of size s = k-2t+2 whose realized matrix is the identity I_s.

    Row i' is {1..t-1} + {i} and column i' is {t..2t-2} + {i} for
    i = 2t-1..k, so two indices meet exactly when they share the varying
    element.  For t = 1 this degenerates to matching singletons.
    """
    if t < 1:
        raise RangeError(f"need t >= 1, got t={t}")
    if k < 2 * t:
        raise RangeError(f"identity family needs k >= 2t, got k={k} < {2 * t}")
    varying = range(2 * t - 2, k)
    rows = [_run(t - 1, 0) | 1 << e for e in varying]
    cols = [_run(t - 1, t - 1) | 1 << e for e in varying]
    meta = {"construction": "identity", "k": k, "t": t, "s": k - 2 * t + 2}
    return FamilyPair.from_masks(k, t, t, rows, cols, meta)


def circulant_isolation(p: int, q: int, allow_small_q: bool = False) -> BoolMatrix:
    """Circulant (p+q)x(p+q) matrix with first column (1^p, 0^q).

    Entry (i, j) is 1 iff (i - j) mod (p+q) < p, i.e. column j is the first
    column cyclically shifted down by j-1.  Every column has exactly p ones
    and q zeros.  For q >= p-1 the diagonal is an isolation set (when
    q = p-1 the complement is skew-symmetric); smaller q is admitted only
    with allow_small_q=True, for experimentation.
    """
    if p < 1:
        raise RangeError(f"need p >= 1, got p={p}")
    if q < 0:
        raise RangeError(f"need q >= 0, got q={q}")
    if q < p - 1 and not allow_small_q:
        raise RangeError(
            f"isolation guarantee needs q >= p-1, got p={p}, q={q} "
            "(pass allow_small_q=True to build it anyway)"
        )
    n = p + q
    # row i holds the p columns that end cyclically at column i
    return BoolMatrix(n, n, tuple(_window(n, p, (i - p + 1) % n) for i in range(n)))


def isolation_3t2(k: int, t: int) -> FamilyPair:
    """Isolation family of size k-t+1 for k >= 3t-2.

    The cyclic-window block with n = k-t+1: row i is {i} plus the tail
    {k-t+2..k}; column j is a window of t cyclically consecutive residues
    of [k-t+1] starting at j.  The realized matrix equals
    circulant_isolation(t, k-2t+1) bit for bit.
    """
    if t < 2:
        raise RangeError(f"need t >= 2, got t={t}")
    if k < 3 * t - 2:
        raise RangeError(f"need k >= 3t-2 = {3 * t - 2}, got k={k}")
    meta = {"construction": "isolation_3t2", "k": k, "t": t, "p": t, "q": k - 2 * t + 1}
    return FamilyPair.from_masks(k, t, t, *_windows(k - t + 1, t), meta)


def isolation_small_k(k: int, t: int) -> FamilyPair:
    """Isolation family of size 2r+3 for k = 2t+r with 0 <= r <= t-3.

    The cyclic-window block of isolation_3t2(k', r+2) over k' = 3r+4
    elements, with every row index padded by {k'+1..k'+(t-r-2)} and every
    column index by the remaining t-r-2 elements up to k.  The padding
    halves are disjoint, so the realized matrix is unchanged.
    """
    if t < 3:
        raise RangeError(f"need t >= 3, got t={t}")
    r = k - 2 * t
    if r < 0 or r > t - 3:
        raise RangeError(
            f"need k = 2t+r with 0 <= r <= t-3, i.e. {2 * t} <= k <= {3 * t - 3}, got k={k}"
        )
    rows, cols = _windows(2 * r + 3, r + 2)  # over k' = 3r+4 elements
    pad = t - r - 2
    row_pad = _run(pad, 3 * r + 4)  # elements k'+1..k'+pad
    col_pad = row_pad << pad  # elements k'+pad+1..k, as k - k' = 2 * pad
    meta = {"construction": "isolation_small_k", "k": k, "t": t, "r": r}
    rows = [m | row_pad for m in rows]
    cols = [m | col_pad for m in cols]
    return FamilyPair.from_masks(k, t, t, rows, cols, meta)


def _stacked_blocks(k: int, t: int) -> tuple[list[int], list[int]]:
    """Row and column masks of isolation_big_k(k, t) for 3t-2 < k <= 4t-3."""
    rp = k - 3 * t + 2
    rows, cols = _windows(2 * t - 1, t)  # on elements {1..3t-2}
    low = k - 2 * rp  # bit of the second block's first element
    cols += [1 << (low + i) | _run(t - 1, 0) for i in range(2 * rp)]
    # second-block rows: runs of rp+1 consecutive bits from low + i on plus a
    # shared tail, empty exactly when r = 2t-3; row i of the second half is
    # the last run with its lowest i+1 bits swapped for element 2t-1 and the
    # bits low..low+i-1
    tail = _run(t - rp - 1, 2 * t - 1)
    rows += [_run(rp + 1, low + i) | tail for i in range(rp)]
    rows += [
        _run(i, low) | 1 << (2 * t - 2) | _run(rp - i, low + rp + i) | tail for i in range(rp)
    ]
    return rows, cols


def isolation_big_k(k: int, t: int) -> FamilyPair:
    """Isolation family of size 2r+3 for k = 2t+r with t-2 <= r <= 2t-3.

    At k = 3t-2 this is isolation_3t2.  Beyond that the family stacks two
    blocks: the cyclic-window block of size 2t-1 on elements {1..3t-2}, and
    a block of size 2r' (r' = r-t+2) whose column indices are
    {k-2r'+1+i} + {1..t-1} and whose row indices slide a run of r'+1
    consecutive elements through {k-2r'+1..k}, swapping one element per row
    in the second half so no two diagonal ones share a 2x2 all-ones block.
    """
    if t < 2:
        raise RangeError(f"need t >= 2, got t={t}")
    r = k - 2 * t
    if r < t - 2 or r > 2 * t - 3:
        raise RangeError(
            f"need k = 2t+r with t-2 <= r <= 2t-3, i.e. {3 * t - 2} <= k <= {4 * t - 3}, got k={k}"
        )
    if k == 3 * t - 2:
        return isolation_3t2(k, t)
    meta = {"construction": "isolation_big_k", "k": k, "t": t, "r": r}
    return FamilyPair.from_masks(k, t, t, *_stacked_blocks(k, t), meta)


def isolation_maximal(k: int, t: int) -> FamilyPair:
    """Isolation family of the maximal size k, for k >= 4t-3.

    Extends the size-(4t-3) family over [4t-3] by one row {k'+i, 2t-1,
    2t..3t-3} and one column {k'+i, 1..t-1} per extra element k'+i.
    """
    if t < 2:
        raise RangeError(f"need t >= 2, got t={t}")
    kp = 4 * t - 3
    if k < kp:
        raise RangeError(f"need k >= 4t-3 = {kp}, got k={k}")
    rows, cols = _stacked_blocks(kp, t)
    extra = range(kp, k)
    rows += [1 << e | _run(t - 1, 2 * t - 2) for e in extra]
    cols += [1 << e | _run(t - 1, 0) for e in extra]
    meta = {"construction": "isolation_maximal", "k": k, "t": t}
    return FamilyPair.from_masks(k, t, t, rows, cols, meta)


def isolation_regime(k: int, t: int) -> str:
    """Which construction the dispatcher picks for (k, t)."""
    if t < 1 or k < 1:
        raise RangeError(f"need k >= 1 and t >= 1, got k={k}, t={t}")
    if t > k:
        raise RangeError(f"no {t}-subsets of [{k}]")
    if t == 1:
        return "singletons"
    if k < 2 * t:
        return "single-pair"
    if k <= 3 * t - 3:
        return "small-k"
    if k <= 4 * t - 4:
        return "big-k"
    return "maximal"


def isolation_size(k: int, t: int) -> int:
    """Size of the isolation family isolation_construct(k, t) returns."""
    regime = isolation_regime(k, t)
    if regime == "singletons":
        return k
    if regime == "single-pair":
        return 1
    if regime == "maximal":
        return k
    return 2 * (k - 2 * t) + 3


def isolation_construct(k: int, t: int) -> FamilyPair:
    """Largest known isolation family for (k, t): dispatch by regime.

    t = 1 gives matching singletons of size k; k < 2t gives a single
    intersecting pair; 2t <= k <= 4t-3 gives size 2(k-2t)+3; k >= 4t-3
    gives the maximal size k.  The boundary k = 4t-3 (where both formulas
    agree) uses the maximal construction.
    """
    regime = isolation_regime(k, t)
    if regime == "singletons":
        singles = [1 << e for e in range(k)]
        meta = {"construction": "singletons", "k": k, "t": t}
        fp = FamilyPair.from_masks(k, t, t, singles, singles, meta)
    elif regime == "single-pair":
        block = [_run(t, 0)]
        meta = {"construction": "single_pair", "k": k, "t": t}
        fp = FamilyPair.from_masks(k, t, t, block, block, meta)
    elif regime == "small-k":
        fp = isolation_small_k(k, t)
    elif regime == "big-k":
        fp = isolation_big_k(k, t)
    else:
        fp = isolation_maximal(k, t)
    meta = dict(fp.meta)
    meta["regime"] = regime
    return replace(fp, meta=meta)


def triangular_family(a: int, b: int) -> FamilyPair:
    """Triangular family of size (a+b choose a) - 1: ones on and below the diagonal.

    Rows have cardinality a, columns cardinality b.  Built recursively:
    a block for (a, b-1) and a block for (a-1, b) on disjoint supports are
    glued with one shared fresh element x (added to the first block's
    columns and the second block's rows) plus one bridging row {x}+S and
    column {x}+T of fresh elements, giving size f(a,b-1) + f(a-1,b) + 1.
    The (a, b-1) block is always expanded first, and fresh elements are
    numbered 1, 2, ... in the order they are taken, so output is
    reproducible and the recursion uses exactly the universe {1..u};
    meta['universe_allocated'] records u.  The family size is checked
    against the dimension cap before anything is built.
    """
    if a < 1 or b < 1:
        raise RangeError(f"need a >= 1 and b >= 1, got a={a}, b={b}")
    check_cap(comb(a + b, a) - 1, f"pairs of triangular({a},{b})")
    rows, cols, universe = _triangular_blocks(a, b, 0)
    meta = {
        "construction": "triangular",
        "a": a,
        "b": b,
        "size": len(rows),
        "universe_allocated": universe,
    }
    return FamilyPair.from_masks(universe, a, b, rows, cols, meta)


def _triangular_blocks(a: int, b: int, low: int) -> tuple[list[int], list[int], int]:
    """Recursive core: (row masks, col masks, next fresh bit).

    Fresh elements are taken from bit ``low`` up, bit e - 1 standing for
    element e.  The elements one step takes are consecutive bits, so the
    base blocks and the bridge are built as shifted runs of ones.
    """
    if b == 1:
        # of the 2a - 1 fresh elements, row i takes those numbered 0..i-1 and a..2a-i-1
        rows = [_run(i, low) | _run(a - i, low + a) for i in range(1, a + 1)]
        cols = [1 << (low + j) for j in range(a)]
        return rows, cols, low + 2 * a - 1
    if a == 1:
        rows = [1 << (low + i) for i in range(b)]
        cols = [_run(b, low + j) for j in range(b)]  # b elements from the j-th
        return rows, cols, low + 2 * b - 1
    r1, c1, low = _triangular_blocks(a, b - 1, low)
    r2, c2, low = _triangular_blocks(a - 1, b, low)
    x = 1 << low
    bridge_row = _run(a, low)  # x and the next a - 1 fresh elements
    bridge_col = x | _run(b - 1, low + a)  # x and the b - 1 after those
    rows = r1 + [bridge_row] + [row | x for row in r2]
    cols = [col | x for col in c1] + [bridge_col] + c2
    return rows, cols, low + a + b - 1
