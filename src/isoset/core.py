"""Core value types for intersection-pattern computations.

Subsets of a 1-based universe [k] are stored as bit vectors (Python ints,
bit e-1 set iff element e is in the subset), families of subsets as ordered
row/column sequences, and 0/1 matrices with one bit-packed int per row.
All types are immutable values; operations are pure and deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, islice
from math import comb
from typing import Iterable, Sequence

DEFAULT_MAX_DIM = 1 << 16
MAX_DIM_ENV = "ISOSET_MAX_DIM"

VIOLATION_CAP = 10_000


class RangeError(ValueError):
    """A parameter lies outside the admissible range of a construction."""


class ResourceLimitError(RuntimeError):
    """An instance exceeds a configured size cap."""


class ParseError(ValueError):
    """A serialized family or matrix document is malformed."""


def iter_bits(mask: int) -> list[int]:
    """Indices of the set bits of mask, ascending, as a new list."""
    # top-down: clearing the highest bit costs one shift and one xor, where
    # isolating the lowest (mask & -mask) costs a negation more on wide ints
    bits = []
    while mask:
        b = mask.bit_length() - 1
        bits.append(b)
        mask ^= 1 << b
    bits.reverse()
    return bits


def _transpose(masks: Iterable[int], width: int) -> list[int]:
    """The transpose of a list of masks of ``width`` bits: bit i of out[j] is bit j of masks[i]."""
    out = [0] * width
    for i, mask in enumerate(masks):
        for j in iter_bits(mask):
            out[j] |= 1 << i
    return out


def max_dimension() -> int:
    """The one size cap: rows of A(k, t), triangular pairs, ones tabulated by a rank run.

    Defaults to 2**16; the ISOSET_MAX_DIM environment variable overrides it.
    """
    raw = os.environ.get(MAX_DIM_ENV)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_DIM_ENV} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError(f"{MAX_DIM_ENV} must be positive, got {value}")
    return value


def check_cap(size: int, what: str) -> None:
    """Raise ResourceLimitError when size exceeds the cap max_dimension()."""
    cap = max_dimension()
    if size > cap:
        raise ResourceLimitError(f"{size} {what} exceed the cap {cap}")


@dataclass(frozen=True)
class Subset:
    """A subset of the universe {1, ..., universe}, elements 1-based."""

    universe: int
    bits: int

    def __post_init__(self) -> None:
        if self.universe < 1:
            raise ValueError(f"universe must be positive, got {self.universe}")
        if self.bits < 0 or self.bits >> self.universe:
            raise ValueError("subset has a set bit outside [1, universe]")

    @classmethod
    def of(cls, elements: Iterable[int], universe: int) -> "Subset":
        """The subset of ``elements``; ValueError for one outside [1, universe] or repeated."""
        bits = 0
        for e in elements:
            if not 1 <= e <= universe:
                raise ValueError(f"element {e} outside [1, {universe}]")
            bit = 1 << (e - 1)
            if bits & bit:
                raise ValueError(f"element {e} repeated")
            bits |= bit
        return cls(universe, bits)

    def elements(self) -> tuple[int, ...]:
        """Members in ascending order."""
        return tuple(e + 1 for e in iter_bits(self.bits))

    def cardinality(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.universe and bool(self.bits >> (element - 1) & 1)

    def __repr__(self) -> str:
        return f"Subset({{{', '.join(map(str, self.elements()))}}}, universe={self.universe})"


def intersects(a: Subset, b: Subset) -> bool:
    """True iff the two subsets share at least one element.

    Raises ValueError if the subsets live in different universes.
    """
    if a.universe != b.universe:
        raise ValueError(f"universe mismatch: {a.universe} != {b.universe}")
    return bool(a.bits & b.bits)


@dataclass(frozen=True)
class FamilyPair:
    """An ordered pair of subset families (row indices, column indices).

    Always square and nonempty: rows and cols have equal, positive length.
    Every row subset has cardinality ``row_size`` and every column subset
    ``col_size``.  ``meta`` records the construction name and its parameters.
    The realized matrix is computed on first use and kept; it is not a
    field, so equality, ``dataclasses.replace`` and pickling ignore it.
    """

    universe: int
    row_size: int
    col_size: int
    rows: tuple[Subset, ...]
    cols: tuple[Subset, ...]
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        object.__setattr__(self, "cols", tuple(self.cols))
        if len(self.rows) != len(self.cols):
            raise ValueError(
                f"family must be square: {len(self.rows)} rows vs {len(self.cols)} cols"
            )
        if not self.rows:
            raise ValueError("family must contain at least one pair")
        for label, seq, want in (("row", self.rows, self.row_size), ("col", self.cols, self.col_size)):
            for i, s in enumerate(seq):
                if s.universe != self.universe:
                    raise ValueError(f"{label} {i + 1} universe {s.universe} != {self.universe}")
                if s.cardinality() != want:
                    raise ValueError(
                        f"{label} {i + 1} has cardinality {s.cardinality()}, expected {want}"
                    )

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def matrix(self) -> "BoolMatrix":
        """The intersection matrix: 1 at (i, j) iff rows[i] meets cols[j]."""
        return realize(self.rows, self.cols)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("matrix", None)
        return state

    @classmethod
    def from_elements(
        cls,
        rows: Sequence[Iterable[int]],
        cols: Sequence[Iterable[int]],
        universe: int,
        meta: dict | None = None,
    ) -> "FamilyPair":
        """Build a family from element lists, inferring row/col sizes."""
        row_sets = tuple(Subset.of(r, universe) for r in rows)
        col_sets = tuple(Subset.of(c, universe) for c in cols)
        return cls(
            universe=universe,
            row_size=row_sets[0].cardinality() if row_sets else 0,
            col_size=col_sets[0].cardinality() if col_sets else 0,
            rows=row_sets,
            cols=col_sets,
            meta=dict(meta or {}),
        )

    @classmethod
    def from_masks(
        cls,
        universe: int,
        row_size: int,
        col_size: int,
        rows: Iterable[int],
        cols: Iterable[int],
        meta: dict,
    ) -> "FamilyPair":
        """Build a family from row and column bit masks over [universe]."""
        subsets = [tuple(Subset(universe, mask) for mask in masks) for masks in (rows, cols)]
        return cls(universe, row_size, col_size, *subsets, meta)


@dataclass(frozen=True)
class BoolMatrix:
    """Dense 0/1 matrix; row i is a bit mask with bit j-1 for column j."""

    n_rows: int
    n_cols: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(self.rows) != self.n_rows:
            raise ValueError(f"expected {self.n_rows} row masks, got {len(self.rows)}")
        for i, mask in enumerate(self.rows):
            if mask < 0 or mask >> self.n_cols:
                raise ValueError(f"row {i + 1} mask has bits outside {self.n_cols} columns")

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.n_rows and 1 <= j <= self.n_cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.n_rows}x{self.n_cols}")
        return self.rows[i - 1] >> (j - 1) & 1

    def row_string(self, i: int) -> str:
        """Row i (1-based) as a string of '0'/'1' characters, column 1 first."""
        return format(self.rows[i - 1], f"0{self.n_cols}b")[::-1]

    def ones(self) -> list[tuple[int, int]]:
        """All 1-entries as 1-based (i, j) pairs in row-major order."""
        return [(i + 1, j + 1) for i, mask in enumerate(self.rows) for j in iter_bits(mask)]

    def count_ones(self) -> int:
        return sum(mask.bit_count() for mask in self.rows)

    def transpose(self) -> "BoolMatrix":
        return BoolMatrix(self.n_cols, self.n_rows, _transpose(self.rows, self.n_cols))

    @classmethod
    def identity(cls, n: int) -> "BoolMatrix":
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "BoolMatrix":
        return cls(n_rows, n_cols, (0,) * n_rows)

    @classmethod
    def all_ones(cls, n_rows: int, n_cols: int) -> "BoolMatrix":
        full = (1 << n_cols) - 1
        return cls(n_rows, n_cols, (full,) * n_rows)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int] | str]) -> "BoolMatrix":
        """Build from row sequences of 0/1 ints or '0'/'1' strings."""
        if not rows:
            raise ValueError("matrix must have at least one row")
        masks = []
        width = len(rows[0])
        for r, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {r + 1} has length {len(row)}, expected {width}")
            mask = 0
            for j, v in enumerate(row):
                bit = int(v)
                if bit not in (0, 1):
                    raise ValueError(f"entry ({r + 1}, {j + 1}) is {v!r}, expected 0 or 1")
                mask |= bit << j
            masks.append(mask)
        return cls(len(rows), width, tuple(masks))


@dataclass(frozen=True)
class PatternCertificate:
    """Outcome of checking a family or matrix against a target pattern.

    ``violations`` holds (i, j, observed, expected) quadruples with 1-based
    indices, truncated at VIOLATION_CAP entries.  ``notes`` carries labeled
    sub-results for compound checks.
    """

    pattern: str
    ok: bool
    violations: tuple[tuple[int, int, int, int], ...]
    notes: tuple[str, ...] = ()

    @classmethod
    def from_violations(
        cls,
        pattern: str,
        violations: Iterable[tuple[int, int, int, int]],
        notes: Sequence[str] = (),
    ) -> "PatternCertificate":
        """Keep the first VIOLATION_CAP violations; the rest are never drawn."""
        kept = tuple(islice(violations, VIOLATION_CAP))
        return cls(pattern=pattern, ok=not kept, violations=kept, notes=tuple(notes))


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a brute-force search.

    For maximization searches an incomplete run (complete=False, node budget
    exhausted) reports ``optimum`` as the best value found, i.e. a lower
    bound; for the minimum-cover search it is the best cover found, i.e. an
    upper bound, with ``lower_bound`` carrying the other end of the interval.
    The witness always satisfies the target pattern.
    """

    optimum: int
    witness: object
    nodes_explored: int
    complete: bool
    lower_bound: int | None = None


def enumerate_t_subsets(k: int, t: int) -> tuple[Subset, ...]:
    """All t-subsets of [k] in colexicographic order.

    Colex order compares largest elements first, so the output starts with
    the subsets of [t], then those whose maximum is t+1, and so on.  The
    order is the fixed row/column order of generated intersection matrices.
    Raises RangeError unless 1 <= t <= k, and then ResourceLimitError when
    C(k, t) exceeds max_dimension() (the ISOSET_MAX_DIM cap).
    """
    if k < 1 or t < 1:
        raise RangeError(f"need k >= 1 and t >= 1, got k={k}, t={t}")
    if t > k:
        raise RangeError(f"cannot choose {t}-subsets from [{k}]")
    check_cap(comb(k, t), f"rows of A_({k},{t})")
    combos = sorted(combinations(range(1, k + 1), t), key=lambda c: c[::-1])
    return tuple(Subset.of(c, k) for c in combos)


def _element_index(groups: Iterable[tuple[int, int]]) -> dict[int, int]:
    """Map each 0-based element to the positions of the subsets holding it.

    ``groups`` yields (subset bits, position mask) pairs; an element's
    entry is the OR of the position masks of every subset containing it.
    """
    index: dict[int, int] = {}
    for bits, positions in groups:
        for e in iter_bits(bits):
            index[e] = index.get(e, 0) | positions
    return index


def _meeting(index: dict[int, int], bits: int) -> int:
    """The OR of index[e] over e in bits: with _element_index, the subsets meeting bits."""
    out = 0
    for e in iter_bits(bits):
        out |= index.get(e, 0)
    return out


def realize(rows: Sequence[Subset], cols: Sequence[Subset]) -> BoolMatrix:
    """Realize the intersection pattern: entry (i, j) = 1 iff rows[i] meets cols[j]."""
    cols_with = _element_index((y.bits, 1 << j) for j, y in enumerate(cols))
    masks = tuple(_meeting(cols_with, x.bits) for x in rows)
    return BoolMatrix(len(rows), len(cols), masks)


def family_to_matrix(fp: FamilyPair) -> BoolMatrix:
    """Intersection matrix of a family pair: 1 at (i, j) iff rows[i] meets cols[j].

    Realized once per family and shared by every later call, the family
    verifiers' included.
    """
    return fp.matrix


def build_A(k: int, t: int) -> BoolMatrix:
    """Full intersection matrix of all t-subsets of [k].

    Rows and columns are indexed by enumerate_t_subsets(k, t); the matrix is
    symmetric with an all-ones diagonal.  Raises ResourceLimitError when its
    dimension C(k, t) exceeds max_dimension() (the ISOSET_MAX_DIM cap).
    """
    subsets = enumerate_t_subsets(k, t)
    return realize(subsets, subsets)
