"""Explicit constructions of extremal submatrix families.

Each construction returns a FamilyPair of t-subsets of [k] (or a raw
BoolMatrix for the circulant template) realizing a target intersection
pattern: identity families, circulant isolation matrices, the four
isolation regimes with their dispatcher, and the recursive triangular
families.  All constructions are deterministic.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import replace
from itertools import count, islice
from math import comb

from .core import (
    BoolMatrix,
    FamilyPair,
    RangeError,
    Subset,
    check_cap,
)

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
    row_stem = list(range(1, t))
    col_stem = list(range(t, 2 * t - 1))
    rows = [Subset.of(row_stem + [i], k) for i in range(2 * t - 1, k + 1)]
    cols = [Subset.of(col_stem + [i], k) for i in range(2 * t - 1, k + 1)]
    meta = {"construction": "identity", "k": k, "t": t, "s": k - 2 * t + 2}
    return FamilyPair(k, t, t, tuple(rows), tuple(cols), meta)


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
    masks = []
    for i in range(1, n + 1):
        mask = 0
        for j in range(1, n + 1):
            if (i - j) % n < p:
                mask |= 1 << (j - 1)
        masks.append(mask)
    return BoolMatrix(n, n, tuple(masks))


def isolation_3t2(k: int, t: int) -> FamilyPair:
    """Isolation family of size k-t+1 for k >= 3t-2.

    Row i is {i} plus the tail {k-t+2..k}; column j is a window of t
    cyclically consecutive residues of [k-t+1] starting at j.  The realized
    matrix equals circulant_isolation(t, k-2t+1) bit for bit.
    """
    if t < 2:
        raise RangeError(f"need t >= 2, got t={t}")
    if k < 3 * t - 2:
        raise RangeError(f"need k >= 3t-2 = {3 * t - 2}, got k={k}")
    p, q = t, k - 2 * t + 1
    n = p + q  # == k - t + 1
    tail = list(range(k - t + 2, k + 1))
    rows = [Subset.of([i] + tail, k) for i in range(1, n + 1)]
    cols = [
        Subset.of([(j - 1 + m) % n + 1 for m in range(p)], k) for j in range(1, n + 1)
    ]
    meta = {"construction": "isolation_3t2", "k": k, "t": t, "p": p, "q": q}
    return FamilyPair(k, t, t, tuple(rows), tuple(cols), meta)


def isolation_small_k(k: int, t: int) -> FamilyPair:
    """Isolation family of size 2r+3 for k = 2t+r with 0 <= r <= t-3.

    Builds the size-(2r+3) family over k' = 3r+4 elements with subsets of
    size r+2, then pads every row index with {k'+1..k'+(t-r-2)} and every
    column index with the remaining t-r-2 elements up to k.  The padding
    halves are disjoint, so the realized matrix is unchanged.
    """
    if t < 3:
        raise RangeError(f"need t >= 3, got t={t}")
    r = k - 2 * t
    if r < 0 or r > t - 3:
        raise RangeError(
            f"need k = 2t+r with 0 <= r <= t-3, i.e. {2 * t} <= k <= {3 * t - 3}, got k={k}"
        )
    t_inner = r + 2
    k_inner = 3 * r + 4  # == 3*t_inner - 2
    inner = isolation_3t2(k_inner, t_inner)
    pad = t - r - 2
    row_pad = ((1 << pad) - 1) << k_inner  # elements k'+1..k'+pad
    col_pad = row_pad << pad  # elements k'+pad+1..k, as k - k' = 2 * pad
    rows = [Subset(k, s.bits | row_pad) for s in inner.rows]
    cols = [Subset(k, s.bits | col_pad) for s in inner.cols]
    meta = {"construction": "isolation_small_k", "k": k, "t": t, "r": r}
    return FamilyPair(k, t, t, tuple(rows), tuple(cols), meta)


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

    rp = r - t + 2
    n1 = 2 * t - 1
    upper = list(range(2 * t, 3 * t - 1))  # shared row tail {2t..3t-2}
    rows = [[i] + upper for i in range(1, n1 + 1)]
    cols = [[(i + m) % n1 + 1 for m in range(t)] for i in range(n1)]

    stem = list(range(1, t))  # shared column stem {1..t-1}
    base = k - 2 * rp + 1
    for i in range(2 * rp):
        cols.append([base + i] + stem)

    # second-block rows: runs of rp+1 consecutive high elements plus a
    # shared tail, empty exactly when r = 2t-3
    tail = list(range(2 * t, 4 * t - r - 3))
    for i in range(rp):
        rows.append(list(range(base + i, base + rp + 1 + i)) + tail)
    prev = set(rows[n1 + rp - 1])
    rows.append(sorted((prev - {k - rp}) | {2 * t - 1}))
    for i in range(1, rp):
        prev = set(rows[-1])
        rows.append(sorted((prev - {k - rp + i}) | {base + i - 1}))

    meta = {"construction": "isolation_big_k", "k": k, "t": t, "r": r}
    return FamilyPair(
        k,
        t,
        t,
        tuple(Subset.of(row, k) for row in rows),
        tuple(Subset.of(col, k) for col in cols),
        meta,
    )


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
    inner = isolation_big_k(kp, t)
    rows = [Subset(k, s.bits) for s in inner.rows]
    cols = [Subset(k, s.bits) for s in inner.cols]
    row_tail = [2 * t - 1] + list(range(2 * t, 3 * t - 2))
    col_tail = list(range(1, t))
    for i in range(1, k - kp + 1):
        rows.append(Subset.of([kp + i] + row_tail, k))
        cols.append(Subset.of([kp + i] + col_tail, k))
    meta = {"construction": "isolation_maximal", "k": k, "t": t}
    return FamilyPair(k, t, t, tuple(rows), tuple(cols), meta)


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
        singles = tuple(Subset.of([i], k) for i in range(1, k + 1))
        fp = FamilyPair(k, 1, 1, singles, singles, {"construction": "singletons", "k": k, "t": t})
    elif regime == "single-pair":
        block = Subset.of(range(1, t + 1), k)
        fp = FamilyPair(k, t, t, (block,), (block,), {"construction": "single_pair", "k": k, "t": t})
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
    fresh = count(1)
    rows, cols = _triangular_blocks(a, b, fresh)
    universe = next(fresh) - 1
    meta = {
        "construction": "triangular",
        "a": a,
        "b": b,
        "size": len(rows),
        "universe_allocated": universe,
    }
    return FamilyPair.from_elements(rows, cols, universe, meta)


def _triangular_blocks(a: int, b: int, fresh: Iterator[int]) -> tuple[list, list]:
    """Recursive core; returns (row element lists, col element lists)."""
    if b == 1:
        e = list(islice(fresh, 2 * a - 1))
        rows = [[e[x] for x in range(i)] + [e[x] for x in range(a, 2 * a - i)] for i in range(1, a + 1)]
        cols = [[e[j]] for j in range(a)]
        return rows, cols
    if a == 1:
        e = list(islice(fresh, 2 * b - 1))
        rows = [[e[i]] for i in range(b)]
        cols = [[e[x] for x in range(j, b)] + [e[x] for x in range(b, b + j)] for j in range(b)]
        return rows, cols
    r1, c1 = _triangular_blocks(a, b - 1, fresh)
    r2, c2 = _triangular_blocks(a - 1, b, fresh)
    x = next(fresh)
    bridge_row = [x] + list(islice(fresh, a - 1))
    bridge_col = [x] + list(islice(fresh, b - 1))
    rows = r1 + [bridge_row] + [row + [x] for row in r2]
    cols = [col + [x] for col in c1] + [bridge_col] + c2
    return rows, cols


def compact_universe(fp: FamilyPair) -> FamilyPair:
    """Relabel elements to {1..u}, preserving order; the realized matrix is unchanged.

    Already-compact families are returned as-is.  Otherwise the original
    universe size is recorded under meta['universe_before_compaction'].
    """
    used: set[int] = set()
    for s in fp.rows + fp.cols:
        used.update(s.elements())
    ordered = sorted(used)
    if ordered == list(range(1, fp.universe + 1)):
        return fp
    relabel = {e: i + 1 for i, e in enumerate(ordered)}
    u = len(ordered)
    rows = tuple(Subset.of([relabel[e] for e in s.elements()], u) for s in fp.rows)
    cols = tuple(Subset.of([relabel[e] for e in s.elements()], u) for s in fp.cols)
    meta = dict(fp.meta)
    meta["universe_before_compaction"] = fp.universe
    return FamilyPair(u, fp.row_size, fp.col_size, rows, cols, meta)
