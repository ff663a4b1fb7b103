"""Family JSON and matrix text document formats."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from isoset import (
    BoolMatrix,
    FamilyPair,
    ParseError,
    Subset,
    circulant_isolation,
    family_from_json,
    family_to_json,
    identity_family,
    isolation_construct,
    load_document,
    matrix_from_text,
    matrix_to_text,
    max_isolation_bruteforce,
    triangular_family,
)

from conftest import reference_family_json

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def families(draw):
    """Families over a small universe, empty subsets and empty meta included."""
    universe = draw(st.integers(1, 9))
    n = draw(st.integers(1, 5))
    sizes = st.integers(0, universe)
    row_size, col_size = draw(sizes), draw(sizes)

    def subsets(size):
        picks = st.permutations(range(1, universe + 1)).map(lambda p: p[:size])
        return draw(st.lists(picks, min_size=n, max_size=n))

    meta = draw(st.dictionaries(st.text(), json_values, max_size=4))
    return FamilyPair.from_elements(subsets(row_size), subsets(col_size), universe, meta)


class TestFamilyDocument:
    @pytest.mark.parametrize(
        "fp",
        [
            identity_family(6, 2),
            isolation_construct(12, 4),
            isolation_construct(3, 2),
            triangular_family(2, 2),
        ],
        ids=["identity", "isolation", "single-pair", "triangular"],
    )
    def test_roundtrip(self, fp):
        assert family_from_json(family_to_json(fp)) == fp

    def test_schema_fields(self):
        doc = json.loads(family_to_json(identity_family(6, 2)))
        assert doc["schema_version"] == 1
        assert doc["universe"] == 6
        assert doc["row_size"] == doc["col_size"] == 2
        assert doc["rows"] == [[1, 3], [1, 4], [1, 5], [1, 6]]
        assert all(r == sorted(r) for r in doc["rows"] + doc["cols"])

    def test_rejects_bad_json(self):
        with pytest.raises(ParseError):
            family_from_json("{not json")

    def test_rejects_wrong_schema(self):
        doc = json.loads(family_to_json(identity_family(6, 2)))
        doc["schema_version"] = 99
        with pytest.raises(ParseError):
            family_from_json(json.dumps(doc))

    def test_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            family_from_json('{"schema_version": 1}')

    def test_rejects_inconsistent_sizes(self):
        doc = json.loads(family_to_json(identity_family(6, 2)))
        doc["rows"][0] = [1]
        with pytest.raises(ParseError):
            family_from_json(json.dumps(doc))

    def test_rejects_non_object(self):
        with pytest.raises(ParseError):
            family_from_json("[1, 2]")

    @pytest.mark.parametrize("meta", [[[1, 2]], 0, "", False, [], None])
    def test_rejects_meta_that_is_not_an_object(self, meta):
        # [[1, 2]] once became {1: 2}, was written back as {"1": 2}, and
        # re-read as another family; the falsy values became {}
        doc = json.loads(family_to_json(identity_family(6, 2)))
        doc["meta"] = meta
        with pytest.raises(ParseError, match="meta must be an object"):
            family_from_json(json.dumps(doc))

    def test_missing_meta_is_empty(self):
        doc = json.loads(family_to_json(identity_family(6, 2)))
        del doc["meta"]
        assert family_from_json(json.dumps(doc)).meta == {}

    def test_rejects_repeated_elements(self):
        # [1, 1, 2] once read as the 2-subset {1, 2} and was written back as [1, 2]
        doc = {
            "schema_version": 1, "universe": 3, "row_size": 2, "col_size": 2,
            "rows": [[1, 1, 2]], "cols": [[1, 3]],
        }
        with pytest.raises(ParseError, match="element 1 repeated"):
            family_from_json(json.dumps(doc))

    def test_rejects_true_and_float_for_integers(self):
        # True == 1 and 1.0 == 1 pass FamilyPair's checks, so without a type
        # check this parsed and wrote "universe": true back out
        doc = {
            "schema_version": 1, "universe": True, "row_size": 1.0, "col_size": True,
            "rows": [[1]], "cols": [[True]],
        }
        with pytest.raises(ParseError, match="universe must be an integer, got true"):
            family_from_json(json.dumps(doc))

    @pytest.mark.parametrize("value", [True, 1.0])
    @pytest.mark.parametrize(
        "field", ["schema_version", "universe", "row_size", "col_size", "rows", "cols"]
    )
    def test_rejects_non_integer_fields(self, field, value):
        doc = {
            "schema_version": 1, "universe": 1, "row_size": 1, "col_size": 1,
            "rows": [[1]], "cols": [[1]],
        }
        assert family_from_json(json.dumps(doc)).universe == 1
        doc[field] = [[value]] if field in ("rows", "cols") else value
        with pytest.raises(ParseError, match=rf"^{field}( elements)? must be (an integer|integers)"):
            family_from_json(json.dumps(doc))

    @given(families())
    def test_layout_matches_json_dumps(self, fp):
        assert family_to_json(fp) == reference_family_json(fp)

    @pytest.mark.parametrize(
        "fp",
        [isolation_construct(k, t) for k, t in [(12, 4), (11, 3), (6, 3), (4, 2), (3, 2)]]
        + [triangular_family(3, 3), triangular_family(7, 6), identity_family(8, 2)]
        + [max_isolation_bruteforce(k, 2).witness for k in (4, 5, 6)],
    )
    def test_constructions_match_json_dumps(self, fp):
        assert family_to_json(fp) == reference_family_json(fp)

    def test_boolean_sizes_stay_json(self):
        # a caller may build a FamilyPair with a size given as true, which
        # equals 1; the writer keeps it JSON, and the reader refuses it
        one = Subset.of([1], 2)
        fp = FamilyPair(universe=2, row_size=True, col_size=True, rows=(one,), cols=(one,))
        assert family_to_json(fp) == reference_family_json(fp)
        with pytest.raises(ParseError, match="row_size must be an integer, got true"):
            family_from_json(family_to_json(fp))

    def test_roundtrip_construction_grid(self):
        for t in range(2, 7):
            for k in range(2 * t, 4 * t + 3):
                fp = isolation_construct(k, t)
                assert family_from_json(family_to_json(fp)) == fp, (k, t)


@st.composite
def matrices(draw):
    """Matrices of any shape up to 130 columns, so some rows span several machine words."""
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 130))
    masks = st.integers(0, (1 << n_cols) - 1)
    return BoolMatrix(n_rows, n_cols, tuple(draw(st.lists(masks, min_size=n_rows, max_size=n_rows))))


def grid_text(m):
    """The matrix document, entry by entry."""
    rows = (
        "".join(str(m.entry(i, j)) for j in range(1, m.n_cols + 1))
        for i in range(1, m.n_rows + 1)
    )
    return f"{m.n_rows} {m.n_cols}\n" + "".join(row + "\n" for row in rows)


class TestMatrixDocument:
    def test_format(self):
        text = matrix_to_text(BoolMatrix.from_rows(["10", "01", "11"]))
        assert text == "3 2\n10\n01\n11\n"

    @given(matrices())
    def test_roundtrip_any_shape(self, m):
        text = matrix_to_text(m)
        assert text == grid_text(m)
        assert matrix_from_text(text) == m

    @pytest.mark.parametrize(
        "text",
        [
            "2 3\n  101  \n\t011\n",
            "  2   3 \n101\n011\n",
            "\n\n2 3\n\n101\n   \n011\n\n \n",
            "2 3\r\n101\r\n011\r\n",
            "2 3\n101\n011",
            " 2 3 \r\n\r\n 101\r\n011 ",
        ],
        ids=["padded-rows", "padded-header", "blank-lines", "crlf", "no-final-newline", "all"],
    )
    def test_accepts_loose_layout(self, text):
        # whitespace around a line, blank lines, CRLF and a missing final newline
        assert matrix_from_text(text) == BoolMatrix.from_rows(["101", "011"])

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty matrix document"),
            ("  \n \n\r\n", "empty matrix document"),
            ("3\n111\n", "matrix header must be 'n_rows n_cols', got '3'"),
            # the header line is quoted as written, surrounding whitespace included
            ("\n  3 \t\n111\n", "matrix header must be 'n_rows n_cols', got '  3 \\t'"),
            ("1 2 3\n111\n", "matrix header must be 'n_rows n_cols', got '1 2 3'"),
            (" x 3 \r\n111\r\n", "matrix header must be two integers, got ' x 3 '"),
            ("1 3.0\n111\n", "matrix header must be two integers, got '1 3.0'"),
            ("3 3\n111\n111\n", "expected 3 matrix rows, got 2"),
            ("1 3\n111\n111\n", "expected 1 matrix rows, got 2"),
            ("-1 3\n", "expected -1 matrix rows, got 0"),
            ("1 3\n11\n", "row 1 has length 2, expected 3"),
            ("2 3\n111\n 1111 \n", "row 2 has length 4, expected 3"),
            ("1 0\n1\n", "row 1 has length 1, expected 0"),
            ("1 3\n1x1\n", "row 1 contains characters other than 0/1"),
            ("2 3\n111\n1\u00a01\n", "row 2 contains characters other than 0/1"),
            ("1 3\n\uff11\uff11\uff11\n", "row 1 contains characters other than 0/1"),
            ("1 3\n1\ud8001\n", "row 1 contains characters other than 0/1"),
            ("0 3\n", "malformed matrix document: matrix dimensions must be positive"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(ParseError) as exc:
            matrix_from_text(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "m",
        [BoolMatrix.identity(4), circulant_isolation(5, 4), BoolMatrix.zeros(2, 3)],
    )
    def test_roundtrip(self, m):
        assert matrix_from_text(matrix_to_text(m)) == m

    def test_rejects_truncated(self):
        with pytest.raises(ParseError):
            matrix_from_text("3 3\n111\n111\n")

    def test_rejects_bad_header(self):
        with pytest.raises(ParseError):
            matrix_from_text("3\n111\n")

    def test_rejects_bad_characters(self):
        with pytest.raises(ParseError):
            matrix_from_text("1 3\n1x1\n")

    @pytest.mark.parametrize(
        "row", ["1_1", "+11", "-11", "1 1", "0b1", "1b0", "１１１"]
    )
    def test_rejects_what_int_parses(self, row):
        # int(s, 2) reads "_", a sign, a "0b" prefix and non-ASCII digits, so
        # the 0/1 check, not the parse, must refuse these rows
        with pytest.raises(ParseError, match="characters other than 0/1"):
            matrix_from_text(f"1 3\n{row}\n")

    def test_rejects_ragged_rows(self):
        with pytest.raises(ParseError):
            matrix_from_text("2 3\n111\n11\n")

    def test_rejects_empty(self):
        with pytest.raises(ParseError):
            matrix_from_text("  \n ")


class TestSniffing:
    def test_family(self):
        fp = identity_family(6, 2)
        assert load_document(family_to_json(fp)) == fp

    def test_matrix(self):
        m = BoolMatrix.identity(3)
        assert load_document(matrix_to_text(m)) == m
