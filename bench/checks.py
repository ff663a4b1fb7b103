"""Known answers and set-based checkers that share no code with ``isoset``.

Every checker works on the serialized output (family JSON, matrix text) and
plain Python sets, and returns a list of problems; an empty list means the
output is correct.
"""

from __future__ import annotations

import json
from itertools import combinations
from math import comb


def de_caen_rank(n: int) -> int:
    """Boolean rank of J_n - I_n: the least r with C(r, floor(r/2)) >= n."""
    r = 1
    while comb(r, r // 2) < n:
        r += 1
    return r


def isolation_closed_form(k: int, t: int) -> int:
    """Size of the constructed isolation family: 2(k-2t)+3 up to 4t-3, then k."""
    if t == 1:
        return k
    if k < 2 * t:
        return 1
    if k < 4 * t - 3:
        return 2 * (k - 2 * t) + 3
    return k


def identity_closed_form(k: int, t: int) -> int:
    return k - 2 * t + 2


def triangular_closed_form(a: int, b: int) -> int:
    return comb(a + b, a) - 1


def bracket(known: int, lower: int, upper: int) -> list[str]:
    if lower <= known <= upper:
        return []
    return [f"proved interval [{lower}, {upper}] misses the known value {known}"]


def _pattern_row(pattern: str, i: int, n: int) -> str | None:
    if pattern == "identity":
        return "0" * i + "1" + "0" * (n - i - 1)
    if pattern == "triangular":
        return "1" * (i + 1) + "0" * (n - i - 1)
    return None


def check_family_doc(text: str, pattern: str, size: int, universe: int | None = None,
                     row_size: int | None = None, col_size: int | None = None,
                     grid: str | None = None) -> list[str]:
    """Check a family document against its pattern with Python sets.

    When ``grid`` is given it must be the matrix document of the same family,
    and every one of its cells must equal the set-based intersection.
    """
    doc = json.loads(text)
    rows = [frozenset(r) for r in doc["rows"]]
    cols = [frozenset(c) for c in doc["cols"]]
    n = len(rows)
    problems = []
    if n != size or len(cols) != size:
        problems.append(f"family has {n} rows and {len(cols)} cols, expected {size}")
        return problems
    u = doc["universe"] if universe is None else universe
    if doc["universe"] != u:
        problems.append(f"universe {doc['universe']} != {u}")
    allowed = frozenset(range(1, u + 1))
    for label, family, want in (("row", rows, row_size), ("col", cols, col_size)):
        want = doc[f"{label}_size"] if want is None else want
        for s in family:
            if len(s) != want or not s <= allowed:
                problems.append(f"{label} {sorted(s)} is not a {want}-subset of [{u}]")
                return problems
    lines = grid.split("\n") if grid is not None else None
    if lines is not None and lines[0] != f"{n} {n}":
        problems.append(f"grid header {lines[0]!r} != '{n} {n}'")
        return problems
    cells = []
    for i, r in enumerate(rows):
        line = "".join("0" if r.isdisjoint(c) else "1" for c in cols)
        if lines is not None and lines[i + 1] != line:
            problems.append(f"grid row {i + 1} differs from the set intersections")
            return problems
        want = _pattern_row(pattern, i, n)
        if want is not None and line != want:
            problems.append(f"row {i + 1} breaks the {pattern} pattern")
            return problems
        cells.append(line)
    if pattern == "isolation":
        for i in range(n):
            if cells[i][i] != "1":
                problems.append(f"diagonal entry {i + 1} is 0")
                return problems
            for j in range(i + 1, n):
                if cells[i][j] == "1" and cells[j][i] == "1":
                    problems.append(f"entries {i + 1} and {j + 1} lie in an all-ones 2x2")
                    return problems
    return problems


def colex_subsets(k: int, t: int) -> list[frozenset]:
    return [frozenset(c) for c in sorted(combinations(range(1, k + 1), t), key=lambda c: c[::-1])]


def check_A_text(text: str, k: int, t: int) -> list[str]:
    """The matrix document must be A(k, t): 1 exactly where two t-subsets meet."""
    subsets = colex_subsets(k, t)
    lines = text.split("\n")
    n = len(subsets)
    if lines[0] != f"{n} {n}":
        return [f"A({k},{t}) header {lines[0]!r} != '{n} {n}'"]
    for i, x in enumerate(subsets):
        if lines[i + 1] != "".join("0" if x.isdisjoint(y) else "1" for y in subsets):
            return [f"A({k},{t}) row {i + 1} is wrong"]
    return []


def parse_grid(text: str) -> list[str]:
    """Rows of a matrix document as '0'/'1' strings, after checking the header."""
    lines = text.split("\n")
    n_rows, n_cols = (int(v) for v in lines[0].split())
    body = lines[1:1 + n_rows]
    if len(body) != n_rows or any(len(r) != n_cols or set(r) - {"0", "1"} for r in body):
        raise ValueError("malformed matrix document")
    return body


def check_cover(factor_text: str, matrix: list[str], claimed: int) -> list[str]:
    """Check a rank witness given as the documents of X (n x r) and Y (r x m).

    Rectangle q has the rows i with X[i][q] = 1 and the columns j with
    Y[q][j] = 1.  Each rectangle must be all ones in ``matrix`` and their
    union must be exactly its set of ones.
    """
    x_text, y_text = factor_text.split("\n\n")
    x, y = parse_grid(x_text + "\n"), parse_grid(y_text + "\n")
    r = len(y)
    if r != claimed:
        return [f"witness has {r} rectangles, claimed {claimed}"]
    ones = {(i, j) for i, row in enumerate(matrix) for j, v in enumerate(row) if v == "1"}
    covered = set()
    for q in range(r):
        rect = {(i, j) for i, xr in enumerate(x) if xr[q] == "1"
                for j, v in enumerate(y[q]) if v == "1"}
        if not rect or not rect <= ones:
            return [f"rectangle {q + 1} is empty or covers a zero"]
        covered |= rect
    if covered != ones:
        return [f"rectangles leave {len(ones - covered)} ones uncovered"]
    return []
