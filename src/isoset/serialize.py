"""Stable on-disk formats: family documents (JSON) and matrix documents (text).

A family document is a single JSON object with schema_version, meta,
universe, row_size, col_size and the row/col element arrays (sorted
ascending, 1-based); it round-trips losslessly.  It is laid out as
json.dumps(doc, indent=2, sort_keys=True) lays it out, one array element
per line, and that layout is stable.  A matrix document is a
header line "n_rows n_cols" followed by n_rows lines of '0'/'1' characters,
row 1 first; its reader also takes whitespace around a line, blank lines,
CRLF line ends and a missing final newline.
"""

from __future__ import annotations

import json
from itertools import chain

from .core import BoolMatrix, FamilyPair, ParseError, Subset, iter_bits

SCHEMA_VERSION = 1


def family_to_json(fp: FamilyPair) -> str:
    """The family document: json.dumps(doc, indent=2, sort_keys=True) plus a newline.

    Written field by field, because json's C encoder is not used when an
    indent is set, and the pure-Python one dominates on large families.
    """
    meta = json.dumps(fp.meta, indent=2, sort_keys=True).replace("\n", "\n  ")
    return (
        "{\n"
        f'  "col_size": {json.dumps(fp.col_size)},\n'
        f'  "cols": {_subsets_to_json(fp.cols)},\n'
        f'  "meta": {meta},\n'
        f'  "row_size": {json.dumps(fp.row_size)},\n'
        f'  "rows": {_subsets_to_json(fp.rows)},\n'
        f'  "schema_version": {SCHEMA_VERSION},\n'
        f'  "universe": {json.dumps(fp.universe)}\n'
        "}\n"
    )


def _subsets_to_json(subsets: tuple[Subset, ...]) -> str:
    """The element arrays of a nonempty subsets tuple, as a value of the document.

    str() of the element lists, "[[1, 2], [3]]", already holds every number
    and bracket in order, so only the separators are rewritten: every ", "
    opens an element line, then the "], [" between two arrays and the outer
    brackets get their own lines.  An empty array comes out as a bracket
    pair around an empty line, which is folded back to "[]".
    """
    # bit e - 1 holds element e, so the set bits of bits << 1 are the elements
    text = str([iter_bits(s.bits << 1) for s in subsets]).replace(", ", ",\n      ")
    text = text.replace("],\n      [", "\n    ],\n    [\n      ")
    text = "[\n    [\n      " + text[2:-2] + "\n    ]\n  ]"
    return text.replace("[\n      \n    ]", "[]")


def family_from_json(text: str) -> FamilyPair:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("family document must be a JSON object")
    try:
        version = _integer(doc["schema_version"], "schema_version")
        if version != SCHEMA_VERSION:
            raise ParseError(f"unsupported schema_version {version}")
        universe = _integer(doc["universe"], "universe")
        meta = doc.get("meta", {})
        if not isinstance(meta, dict):
            raise ParseError(f"meta must be an object, got {json.dumps(meta)}")
        fp = FamilyPair(
            universe=universe,
            row_size=_integer(doc["row_size"], "row_size"),
            col_size=_integer(doc["col_size"], "col_size"),
            rows=_subsets(doc["rows"], universe, "rows"),
            cols=_subsets(doc["cols"], universe, "cols"),
            meta=meta,
        )
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed family document: {exc}") from exc
    return fp


def _integer(value: object, field: str) -> int:
    """value if it is a JSON integer; true and 1.0 equal 1 in Python but are refused."""
    if type(value) is not int:
        raise ParseError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def _subsets(arrays: list[list[int]], universe: int, field: str) -> tuple[Subset, ...]:
    """The element arrays of one field, every element a JSON integer."""
    if not set(map(type, chain.from_iterable(arrays))) <= {int}:
        raise ParseError(f"{field} elements must be integers")
    return tuple(Subset.of(a, universe) for a in arrays)


def matrix_to_text(m: BoolMatrix) -> str:
    spec = f"0{m.n_cols}b"
    # the trailing "" gives the final newline within the one join
    return "\n".join([f"{m.n_rows} {m.n_cols}", *(format(mask, spec)[::-1] for mask in m.rows), ""])


def matrix_from_text(text: str) -> BoolMatrix:
    lines = text.splitlines()
    for at, head in enumerate(lines):
        header = head.split()
        if header:
            break
    else:
        raise ParseError("empty matrix document")
    if len(header) != 2:
        raise ParseError(f"matrix header must be 'n_rows n_cols', got {head!r}")
    try:
        n_rows, n_cols = int(header[0]), int(header[1])
    except ValueError as exc:
        raise ParseError(f"matrix header must be two integers, got {head!r}") from exc
    body = [row for row in map(str.strip, lines[at + 1:]) if row]
    if len(body) != n_rows:
        raise ParseError(f"expected {n_rows} matrix rows, got {len(body)}")
    masks = []
    for i, row in enumerate(body):
        if len(row) != n_cols:
            raise ParseError(f"row {i + 1} has length {len(row)}, expected {n_cols}")
        # int(row, 2) also takes "_", a sign and non-ASCII digits, so the row
        # must be left empty by deleting its ASCII 0s and 1s; a lone surrogate
        # encodes as "?"
        if row.encode(errors="replace").translate(None, b"01"):
            raise ParseError(f"row {i + 1} contains characters other than 0/1")
        masks.append(int(row[::-1], 2))
    try:
        return BoolMatrix(n_rows, n_cols, tuple(masks))
    except ValueError as exc:
        raise ParseError(f"malformed matrix document: {exc}") from exc


def load_document(text: str) -> FamilyPair | BoolMatrix:
    """Parse text as a family document if it looks like JSON, else a matrix."""
    if text.lstrip().startswith("{"):
        return family_from_json(text)
    return matrix_from_text(text)
