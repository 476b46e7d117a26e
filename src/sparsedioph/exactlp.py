"""Exact rational LP feasibility via phase-I simplex with Bland's rule.

The only question asked here is whether {x : A x = b, x >= 0} is nonempty,
and if so, for a basic feasible point of it. All arithmetic is done in
`fractions.Fraction`, so answers are exact; Bland's smallest-index pivot
rule guarantees termination even on degenerate instances. Instances are
small (a handful of rows), so a dense tableau is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def basic_feasible_point(
    rows: Sequence[Sequence], rhs: Sequence
) -> Optional[list[Fraction]]:
    """Find a basic feasible solution of {x : A x = b, x >= 0}.

    Returns a list of n Fractions with at most rank(A) nonzero entries, or
    None when the system is infeasible. Redundant equality rows are
    tolerated and dropped internally.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return []
    # Tableau columns: n structural + m artificial + rhs. Rows are scaled
    # so the rhs is nonnegative, which lets the artificials start basic.
    tableau: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(v) for v in rows[i]]
        if len(row) != n:
            raise ValueError("ragged constraint matrix")
        b = Fraction(rhs[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        row.extend(Fraction(1 if k == i else 0) for k in range(m))
        row.append(b)
        tableau.append(row)
    basis = [n + i for i in range(m)]
    width = n + m

    # Phase-I objective: minimize the sum of artificials. The reduced-cost
    # row starts as c_j - sum of the artificial rows' coefficients.
    cost = [Fraction(0)] * (width + 1)
    for j in range(width):
        cost[j] = (Fraction(1) if j >= n else Fraction(0)) - sum(
            tableau[i][j] for i in range(m)
        )
    cost[width] = -sum(tableau[i][width] for i in range(m))

    def pivot(row: int, col: int):
        piv = tableau[row][col]
        tableau[row] = [v / piv for v in tableau[row]]
        for i in range(m):
            if i != row and tableau[i][col] != 0:
                f = tableau[i][col]
                tableau[i] = [v - f * w for v, w in zip(tableau[i], tableau[row])]
        if cost[col] != 0:
            f = cost[col]
            for j in range(width + 1):
                cost[j] -= f * tableau[row][j]
        basis[row] = col

    while True:
        entering = next((j for j in range(width) if cost[j] < 0), None)
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][width] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            # Phase-I objective is bounded below by zero; unreachable.
            raise AssertionError("phase-I simplex reported unbounded")
        pivot(leaving, entering)

    if -cost[width] != 0:
        return None

    # Drive leftover artificials out of the basis; rows that cannot pivot
    # on a structural column are redundant equalities.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(i, col)

    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][width]
    return x
