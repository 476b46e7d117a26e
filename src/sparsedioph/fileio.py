"""Parsing and formatting of the plain-text matrix and vector formats.

Matrix files: first line `m n`, then m lines of n base-10 integers
separated by whitespace. Vector files: one line of integers. An integer is
an optional sign and ASCII digits, in these formats and in every integer
option of the CLI. Parse errors carry 1-based line and column positions.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .intlinalg import IntMatrix, IntVector


def _int(text: str) -> int:
    """The integer `text` spells, or ValueError; int() alone also takes
    underscores, non-ASCII digits and surrounding whitespace."""
    digits = text[1:] if text[:1] in "+-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid int value: {text!r}")
    return int(text)


def _tokenize_line(line: str, lineno: int, source: str):
    """(value, 1-based column) of each whitespace-separated integer;
    raises ParseError naming the first token that is not one."""
    out = []
    for match in re.finditer(r"\S+", line):
        token, column = match.group(), match.start() + 1
        try:
            out.append((_int(token), column))
        except ValueError:
            raise ParseError(f"expected an integer, got {token!r}", lineno, column, source)
    return out


def _ints(line: str, lineno: int, source: str) -> list[int]:
    """The integers of one line. On an ASCII line without underscores,
    int() takes just what `_int` takes, and `str.split` cuts where
    `_tokenize_line` does; other lines and bad tokens go through
    `_tokenize_line`, which names the bad token in its ParseError."""
    if line.isascii() and "_" not in line:
        try:
            return [int(t, 10) for t in line.split()]
        except ValueError:
            pass
    return [v for v, _ in _tokenize_line(line, lineno, source)]


def parse_matrix_text(text: str, source: str = "<input>") -> IntMatrix:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing `m n` header line", 1, 1, source)
    header = _tokenize_line(lines[0], 1, source)
    if len(header) != 2:
        raise ParseError("header must contain exactly two integers", 1, 1, source)
    m, n = header[0][0], header[1][0]
    if m < 1 or n < 1:
        raise ParseError("dimensions must be positive", 1, header[0][1], source)
    rows = []
    lineno = 1
    for i in range(m):
        lineno += 1
        while lineno <= len(lines) and not lines[lineno - 1].strip():
            lineno += 1
        if lineno > len(lines):
            raise ParseError(f"expected {m} rows, found {i}", lineno, 1, source)
        row = _ints(lines[lineno - 1], lineno, source)
        if len(row) != n:
            tokens = _tokenize_line(lines[lineno - 1], lineno, source)
            column = tokens[-1][1] if tokens else 1
            raise ParseError(
                f"row {i + 1} has {len(row)} entries, expected {n}",
                lineno,
                column,
                source,
            )
        rows.append(row)
    return IntMatrix.from_rows(rows)


def parse_vector_text(text: str, source: str = "<input>") -> IntVector:
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise ParseError("empty vector", 1, 1, source)
    if len(lines) > 1:
        raise ParseError("vector files hold a single line", lines[1][0], 1, source)
    lineno, line = lines[0]
    return tuple(_ints(line, lineno, source))


def parse_inline_vector(text: str, source: str = "<arg>") -> IntVector:
    return tuple(_ints(text, 1, source))


def parse_inline_matrix(text: str, source: str = "<arg>") -> IntMatrix:
    """Inline matrix: rows separated by `;`, entries by whitespace."""
    rows = []
    for lineno, part in enumerate(text.split(";"), start=1):
        row = _ints(part, lineno, source)
        if not row:
            raise ParseError("empty matrix row", lineno, 1, source)
        rows.append(row)
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("rows have unequal lengths", 1, 1, source)
    return IntMatrix.from_rows(rows)


def format_matrix(A: IntMatrix) -> str:
    lines = [f"{A.rows} {A.cols}"]
    lines.extend(" ".join(str(v) for v in A.row(i)) for i in range(A.rows))
    return "\n".join(lines) + "\n"
