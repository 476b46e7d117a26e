"""Exact LP feasibility via phase-I simplex with Bland's rule.

The only question asked here is whether {x : A x = b, x >= 0} is nonempty
for an integer system, and if so, for a basic feasible point of it. The
simplex runs fraction-free (Edmonds' integer-preserving elimination, as in
`intlinalg.det_exact`): the tableau is an integer matrix T over one positive
common denominator d, and each pivot updates T with exact integer divisions
by d. The pivots are those of the same simplex run over the rationals, and
the point comes back as integer numerators over d. Bland's smallest-index
pivot rule guarantees termination even on degenerate instances. Instances
are small (a handful of rows), so a dense tableau is plenty.
"""

from __future__ import annotations

from typing import Optional, Sequence


def basic_feasible_point(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> Optional[tuple[list[int], int]]:
    """Find a basic feasible solution of {x : A x = b, x >= 0}.

    Entries are ints. Returns (x, d): n integers with at most rank(A)
    nonzero entries and a denominator d > 0, the point being x_j / d; or
    None when the system is infeasible. Redundant equality rows are
    tolerated and dropped internally.
    """
    m = len(rows)
    if m == 0:
        return [], 1
    n = len(rows[0])
    if any(len(row) != n for row in rows):
        raise ValueError("ragged constraint matrix")
    # Tableau columns: n structural + m artificial + rhs; rows are negated
    # where needed so the rhs is nonnegative and the artificials start
    # basic. The last row holds the phase-I reduced costs (minimize the sum
    # of artificials: c_j minus the column sum of the constraint rows).
    width = n + m
    tableau: list[list[int]] = []
    for i in range(m):
        row = [-v for v in rows[i]] if rhs[i] < 0 else list(rows[i])
        row.extend(1 if k == i else 0 for k in range(m))
        row.append(abs(rhs[i]))
        tableau.append(row)
    cost = [-sum(col) for col in zip(*tableau)]
    for j in range(n, width):
        cost[j] += 1
    tableau.append(cost)
    basis = [n + i for i in range(m)]
    denom = 1  # the current tableau is tableau / denom

    def pivot(r: int, c: int):
        nonlocal denom
        prow = tableau[r]
        p = prow[c]
        if p < 0:
            # Only when an artificial at level zero is driven out. Negating
            # the pivot row keeps denom positive, so the signs of T stay
            # those of the tableau.
            prow = tableau[r] = [-v for v in prow]
            p = -p
        for i, row in enumerate(tableau):
            if i == r:
                continue
            f = row[c]
            if f:
                tableau[i] = [(v * p - f * w) // denom for v, w in zip(row, prow)]
            elif p != denom:
                tableau[i] = [v * p // denom for v in row]
        denom = p
        basis[r] = c

    while True:
        cost = tableau[m]
        entering = next((j for j in range(width) if cost[j] < 0), None)
        if entering is None:
            break
        # Ratio test by cross-multiplication (denom cancels): row i
        # replaces the current choice on a smaller rhs / coeff, and on a
        # tie when its basic index is smaller.
        leaving = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = tableau[i][width] * tableau[leaving][entering]
                rhs_best = tableau[leaving][width] * coeff
                if lhs < rhs_best or (lhs == rhs_best and basis[i] < basis[leaving]):
                    leaving = i
        if leaving is None:
            # Phase-I objective is bounded below by zero; unreachable.
            raise AssertionError("phase-I simplex reported unbounded")
        pivot(leaving, entering)

    if tableau[m][width] != 0:
        return None

    # Drive leftover artificials out of the basis; rows that cannot pivot
    # on a structural column are redundant equalities.
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is not None:
                pivot(i, col)

    x = [0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i][width]
    return x, denom
