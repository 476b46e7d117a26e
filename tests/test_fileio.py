import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsedioph import IntMatrix, ParseError, fileio
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


@pytest.mark.parametrize("text, line, column", [
    ("\n\n1 x 3\n", 3, 3),
    ("1 2\n\n\n3 4\n", 4, 1),
    ("  \n7 8\n \t\n9\n", 4, 1),
])
def test_vector_errors_name_the_file_line(text, line, column):
    # Blank lines count: the position is the file's own line.
    with pytest.raises(ParseError) as err:
        parse_vector_text(text, source="b.txt")
    assert (err.value.line, err.value.column) == (line, column)
    assert f"b.txt:{line}:{column}" in str(err.value)


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


def _outcome(call, *args):
    try:
        return call(*args)
    except ParseError as err:
        return ("ParseError", err.line, err.column, err.source, err.message)


def _tokens(line, lineno, source):
    return [v for v, _ in fileio._tokenize_line(line, lineno, source)]


_LINE_CHARS = "0123456789-+_ x\t\x1c\x1f\xa0　١٢３"


@given(st.text(alphabet=_LINE_CHARS, max_size=30))
def test_split_and_tokenizer_agree(line):
    # The fast str.split path returns what the tokenizer returns, and on a
    # bad token raises the tokenizer's error: same line, column and text.
    assert _outcome(fileio._ints, line, 4, "f") == _outcome(_tokens, line, 4, "f")


@pytest.mark.parametrize(
    "line",
    [
        "6 x 15",  # bad token mid-row
        "1 2 3-",
        "\x1c1\x1c-2\x1d3\x1e",  # separators that str.isspace() accepts
        "١٢ -３",  # non-ASCII digits: 12 and -3
        "1_000 +7",
        "",
    ],
)
def test_split_and_tokenizer_agree_on_named_lines(line):
    assert _outcome(fileio._ints, line, 2, "A.txt") == _outcome(_tokens, line, 2, "A.txt")


def test_row_errors_name_their_position():
    assert _outcome(parse_matrix_text, "1 3\n6 x 15\n", "A.txt") == (
        "ParseError", 2, 3, "A.txt", "expected an integer, got 'x'")
    assert _outcome(parse_matrix_text, "2 3\n1 2 3\n4  5\n", "A.txt") == (
        "ParseError", 3, 4, "A.txt", "row 2 has 2 entries, expected 3")
    assert _outcome(parse_vector_text, "4 -6 0y\n", "b.txt") == (
        "ParseError", 1, 6, "b.txt", "expected an integer, got '0y'")
    assert parse_matrix_text("1 2\n١٢\x1f-３\n").to_rows() == [[12, -3]]
