"""Exact linear algebra over the integers.

Everything here works on arbitrary-precision Python ints; there is no
floating point and no overflow. The central objects are dense row-major
matrices (`IntMatrix`) and column-style Hermite normal forms. Canonical
bases grow one column at a time (`_hnf_insert`, after Micciancio and
Warinschi, ISSAC 2001): `hnf_basis` folds it over a column list, and its
bases give rank and minor gcd; equal bases mean equal lattices. Once a
basis is that of Z^m (the identity), every insert returns it at O(m)
cost. One forward substitution, `_reduce`, takes a vector to its
canonical residual modulo such a basis: zero iff the vector lies in the
lattice.
`lattice_member` solves A x = b with the same two steps on the lattice
{(A y, y)}, so its x is the canonical one of x + ker A. A lattice's
determinant is the diagonal product of its canonical basis
(`_lattice_det`); other determinants come from Bareiss elimination,
which needs no gcds.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import DimensionMismatch

IntVector = tuple[int, ...]


def as_vector(values: Iterable[int]) -> IntVector:
    """Normalize an iterable of integers to an IntVector (tuple of ints)."""
    return tuple(int(v) for v in values)


@dataclass(frozen=True)
class IntMatrix:
    """Dense matrix of arbitrary-precision integers, stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionMismatch("matrix dimensions must be nonnegative")
        normalized = tuple(map(int, self.entries))
        if len(normalized) != self.rows * self.cols:
            raise DimensionMismatch(
                f"expected {self.rows * self.cols} entries, got {len(normalized)}"
            )
        object.__setattr__(self, "entries", normalized)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        m = len(rows)
        n = len(rows[0]) if rows else 0
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("rows have unequal lengths")
        return cls(m, n, tuple(v for r in rows for v in r))

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "IntMatrix":
        cols = [list(c) for c in columns]
        n = len(cols)
        m = len(cols[0]) if cols else 0
        if any(len(c) != m for c in cols):
            raise DimensionMismatch("columns have unequal lengths")
        return cls(m, n, tuple(cols[j][i] for i in range(m) for j in range(n)))

    @classmethod
    def row_vector(cls, values: Sequence[int]) -> "IntMatrix":
        vals = as_vector(values)
        return cls(1, len(vals), vals)

    def row(self, i: int) -> IntVector:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> IntVector:
        return self.entries[j :: self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_columns(self) -> list[list[int]]:
        return [list(self.column(j)) for j in range(self.cols)]

    def take_columns(self, indices: Sequence[int]) -> "IntMatrix":
        """Submatrix with the given 0-based columns, in the given order."""
        for j in indices:
            if not 0 <= j < self.cols:
                raise DimensionMismatch(f"column index {j} out of range")
        if not indices:
            return IntMatrix(self.rows, 0, ())
        return IntMatrix.from_columns([list(self.column(j)) for j in indices])

    def mat_vec(self, v: Sequence[int]) -> IntVector:
        vec = as_vector(v)
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length differs from column count")
        return tuple(sum(map(operator.mul, self.row(i), vec)) for i in range(self.rows))


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def det_exact(M: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    All intermediate divisions are exact, so entry growth stays polynomial
    and the result is the true integer determinant.
    """
    if M.rows != M.cols:
        raise DimensionMismatch("determinant needs a square matrix")
    n = M.rows
    if n == 0:
        return 1
    a = M.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot_row is None:
                return 0
            a[k], a[pivot_row] = a[pivot_row], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _hnf_insert(basis: Sequence[IntVector], v: Sequence[int]) -> list[IntVector]:
    """Canonical basis of the lattice of `basis` (canonical, of any rank,
    left unmodified) and column v. Row by row, v loses a multiple of the column
    pivoting there, or is xgcd-combined with it when that pivot does not
    divide v's entry; a v nonzero where no column pivots joins the basis.
    Then only the pivot rows from the first changed column on are reduced.
    A full-rank basis with unit diagonal, the canonical basis of Z^m,
    holds every v and is returned as is."""
    m = len(v)
    if len(basis) == m and all(col[i] == 1 for i, col in enumerate(basis)):
        return basis
    basis, v = list(basis), list(v)
    k, low = 0, len(basis)
    for i in range(m):
        if k < len(basis) and basis[k][i]:
            # Columns before k pivot above row i and columns after it below.
            a = v[i]
            if a:
                col = basis[k]
                q, r = divmod(a, col[i])
                if r:
                    g, s, t = _xgcd(col[i], a)
                    # [[s, -a//g], [t, pivot//g]] has determinant 1.
                    u, w = -(a // g), col[i] // g
                    basis[k] = tuple([s * y + t * x for y, x in zip(col, v)])
                    v = [u * y + w * x for y, x in zip(col, v)]
                    low = min(low, k)
                else:
                    v = [x - q * y for x, y in zip(v, col)]
            k += 1
        elif v[i]:
            basis.insert(k, tuple(v) if v[i] > 0 else tuple([-x for x in v]))
            low = min(low, k)
            break
    # Column c pivots in row p >= c, below the pivot of column c - 1.
    p = low
    for c in range(low, len(basis)):
        col = basis[c]
        while not col[p]:
            p += 1
        pivot = col[p]
        for j in range(c):
            x = basis[j][p]
            if not 0 <= x < pivot:
                q = x // pivot
                basis[j] = tuple([y - q * z for y, z in zip(basis[j], col)])
        p += 1
    return basis


def hnf_basis(columns: Iterable[Sequence[int]], m: int) -> list[IntVector]:
    """Canonical basis of the lattice spanned by `columns` (each of length
    m): the nonzero columns of their column HNF, without a transform.

    Its length is the rank; at full rank it is lower triangular with the
    lattice determinant as diagonal product. Equal bases mean equal lattices.
    """
    return functools.reduce(_hnf_insert, columns, [])


def _lattice_det(basis: Sequence[IntVector]) -> int:
    """Determinant of the lattice of a full-rank canonical basis: the
    product of its diagonal."""
    return math.prod(col[i] for i, col in enumerate(basis))


def _reduce(basis: Sequence[IntVector], v: Sequence[int]) -> list[int]:
    """Residual of v after forward substitution on the canonical `basis`
    (of any rank): row by row, in the row where a column pivots, v loses
    the floor quotient of its entry by the pivot times that column, which
    leaves the entry in [0, pivot). The residual differs from v by a
    lattice vector, is the same for all of v + L, and is zero iff v lies
    in the lattice L.
    """
    v, k = list(v), 0
    for i in range(len(v)):
        if k < len(basis) and basis[k][i]:
            col = basis[k]
            q = v[i] // col[i]
            if q:
                v = [x - q * y for x, y in zip(v, col)]
            k += 1
    return v


def _rhs_vector(b: Iterable[int], m: int) -> IntVector:
    """b as a vector; raises DimensionMismatch unless it has m entries."""
    vec = as_vector(b)
    if len(vec) != m:
        raise DimensionMismatch("right-hand side length differs from row count")
    return vec


def lattice_member(A: IntMatrix, b: Sequence[int]) -> Optional[IntVector]:
    """Solve A x = b over the integers, or return None when b is not in
    the lattice spanned by A's columns.

    The columns (a_j; e_j) span the lattice {(A y, y)} of Z^(m+n). The
    residual of (-b; 0) against its canonical basis is (-b - A y; -y) for
    some y; b is in L(A) iff its top m entries vanish, and then x = -y is
    its bottom n entries. So x is the canonical representative of
    x + ker A: each entry at a pivot row of the kernel part lies in
    [0, pivot).
    """
    m, n = A.rows, A.cols
    vec = _rhs_vector(b, m)
    columns = (A.column(j) + (0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n))
    residual = _reduce(hnf_basis(columns, m + n), [-v for v in vec] + [0] * n)
    if any(residual[:m]):
        return None
    return tuple(residual[m:])
