"""Parsing and formatting of the plain-text matrix and vector formats.

Matrix files: first line `m n`, then m lines of n base-10 integers
separated by whitespace. Vector files: one line of integers. Parse errors
carry 1-based line and column positions.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .intlinalg import IntMatrix, IntVector


def _tokenize_line(line: str, lineno: int, source: str):
    out = []
    for match in re.finditer(r"\S+", line):
        token, column = match.group(), match.start() + 1
        try:
            out.append((int(token, 10), column))
        except ValueError:
            raise ParseError(f"expected an integer, got {token!r}", lineno, column, source)
    return out


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
        tokens = _tokenize_line(lines[lineno - 1], lineno, source)
        if len(tokens) != n:
            column = tokens[-1][1] if tokens else 1
            raise ParseError(
                f"row {i + 1} has {len(tokens)} entries, expected {n}",
                lineno,
                column,
                source,
            )
        rows.append([v for v, _ in tokens])
    return IntMatrix.from_rows(rows)


def parse_vector_text(text: str, source: str = "<input>") -> IntVector:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty vector", 1, 1, source)
    if len(lines) > 1:
        raise ParseError("vector files hold a single line", 2, 1, source)
    return tuple(v for v, _ in _tokenize_line(lines[0], 1, source))


def parse_inline_vector(text: str, source: str = "<arg>") -> IntVector:
    return tuple(v for v, _ in _tokenize_line(text, 1, source))


def parse_inline_matrix(text: str, source: str = "<arg>") -> IntMatrix:
    """Inline matrix: rows separated by `;`, entries by whitespace."""
    rows = []
    for lineno, part in enumerate(text.split(";"), start=1):
        tokens = _tokenize_line(part, lineno, source)
        if not tokens:
            raise ParseError("empty matrix row", lineno, 1, source)
        rows.append([v for v, _ in tokens])
    if any(len(r) != len(rows[0]) for r in rows):
        raise ParseError("rows have unequal lengths", 1, 1, source)
    return IntMatrix.from_rows(rows)


def format_matrix(A: IntMatrix) -> str:
    lines = [f"{A.rows} {A.cols}"]
    lines.extend(" ".join(str(v) for v in A.row(i)) for i in range(A.rows))
    return "\n".join(lines) + "\n"
