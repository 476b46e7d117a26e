import pytest

from sparsedioph import IntMatrix, ParseError
from sparsedioph.fileio import (
    format_matrix,
    parse_inline_matrix,
    parse_inline_vector,
    parse_matrix_text,
    parse_vector_text,
)


def test_matrix_roundtrip():
    A = IntMatrix.from_rows([[6, 0, 3, 2, 0], [0, 2, 0, 0, 1]])
    assert parse_matrix_text(format_matrix(A)).entries == A.entries


def test_matrix_header_required():
    with pytest.raises(ParseError) as err:
        parse_matrix_text("")
    assert err.value.line == 1

    with pytest.raises(ParseError) as err:
        parse_matrix_text("2\n1 2\n3 4\n")
    assert err.value.line == 1


def test_bad_token_position():
    with pytest.raises(ParseError) as err:
        parse_matrix_text("1 3\n6 x 15\n", source="A.txt")
    assert err.value.line == 2
    assert err.value.column == 3
    assert err.value.source == "A.txt"
    assert "A.txt:2:3" in str(err.value)


def test_short_row_reported():
    with pytest.raises(ParseError) as err:
        parse_matrix_text("2 3\n1 2 3\n4 5\n")
    assert err.value.line == 3


def test_missing_rows_reported():
    with pytest.raises(ParseError):
        parse_matrix_text("2 2\n1 2\n")


def test_vector_single_line():
    assert parse_vector_text("4 -6 0\n") == (4, -6, 0)
    with pytest.raises(ParseError):
        parse_vector_text("1 2\n3 4\n")
    with pytest.raises(ParseError):
        parse_vector_text("\n")


def test_inline_forms():
    assert parse_inline_vector("3 5 7") == (3, 5, 7)
    A = parse_inline_matrix("1 0 -1; 0 1 -1")
    assert A.to_rows() == [[1, 0, -1], [0, 1, -1]]
    with pytest.raises(ParseError):
        parse_inline_matrix("1 2; 3")
    with pytest.raises(ParseError):
        parse_inline_matrix("1 2;; 3 4")


def test_any_unicode_whitespace_separates_tokens():
    # Tokens split on every character for which str.isspace() holds, and
    # columns count code points from 1.
    assert parse_inline_vector("\t1\x0b-2\xa03  4\u3000") == (1, -2, 3, 4)
    with pytest.raises(ParseError) as err:
        parse_inline_vector("1 5\xa0x7")
    assert err.value.column == 5
    assert err.value.message == "expected an integer, got 'x7'"
