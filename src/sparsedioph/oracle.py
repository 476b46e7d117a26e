"""Exact ground truth for small instances.

`min_support_exact` finds the true minimum number of nonzeros over all
nonnegative integer solutions of A x = b, for any number of rows. It
tries the supports S by size. S needs b in the lattice of its columns;
columns on which some y >= 0 with A_S y = 0 is positive then take any
lattice solution, shifted by a multiple of y; the other columns are
bounded, and are fixed depth first, each to the values that keep the
rest in the lattice of the later columns while the phase-I LP allows
them, the last one solved for. A None answer proves infeasibility; a
search cut by k_max or by its node cap raises CapExceeded.

`icr_scan` takes the worst case of the minimum support over all
right-hand sides up to a limit, which lower-bounds the integer
Caratheodory rank of a positive row. It decides membership in each
subset's semigroup with `semigroup._add_coin`, on the bitset closures
that `solve_knapsack_positive` also walks back through.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .errors import CapExceeded, DimensionMismatch, NonPositive
from .exactlp import basic_feasible_point
from .intlinalg import IntMatrix, _reduce, _rhs_vector, as_vector, hnf_basis
from .semigroup import _add_coin

# Cap on bitset lengths, less one bit: icr_scan keeps one closure per
# depth of its subset walk and one union per subset size, each of
# b_max/gcd + 1 bits.
ICR_SCAN_CAP = 10**7
# Work caps, so that a search too large to finish ends with CapExceeded
# after a few seconds: bits over all subset closures of icr_scan, and
# values tried by min_support_exact's enumeration of bounded columns.
ICR_SCAN_WORK_CAP = 10**9
MIN_SUPPORT_NODE_CAP = 10**5


def _support_feasible(cols: list, b: Sequence[int], nodes: list[int]) -> bool:
    """Whether some x with every x_j >= 1 has sum_j x_j cols[j] = b.

    Columns on which some y >= 0 with cols y = 0 is positive (one phase-I
    LP each) are free: the sum of those points is positive on all of
    them, so a multiple of it makes any lattice solution on them
    positive. The others are bounded, and are fixed depth first. Column
    a takes the values v >= 1 that leave the rest in the lattice of the
    later columns, v0 + p Z by the canonical basis of
    {(A_later y + a t, t)}, or v0 alone when p = 0 (always so for the
    last one), while the LP with x_a >= v allows them. nodes[0] counts
    the values tried, across calls, up to MIN_SUPPORT_NODE_CAP.
    """
    m, k = len(b), len(cols)
    if any(_reduce(hnf_basis(cols, m), b)):
        return False
    rows = [list(row) for row in zip(*cols)]
    free: set[int] = set()
    for j in range(k):
        if j not in free:
            unit = [int(i == j) for i in range(k)]
            point = basic_feasible_point(rows + [unit], [0] * m + [1])
            if point is not None:
                free.update(i for i, v in enumerate(point[0]) if v)
    # Columns with large entries take few values; the last bounded column,
    # solved for, has the smallest.
    order = sorted((cols[j] for j in range(k) if j not in free), key=lambda c: -max(map(abs, c)))
    order += [cols[j] for j in range(k) if j in free]
    bounded = k - len(free)
    lifts = [hnf_basis([c + (0,) for c in order[i + 1:]] + [order[i] + (1,)], m + 1)
             for i in range(bounded)]

    def descend(i: int, residual: list[int]) -> bool:
        if i == bounded:
            return True
        top = _reduce(lifts[i], [-r for r in residual] + [0])
        if any(top[:m]):
            return False
        # A column of the basis with zero top is (0, p): p a lies in the
        # lattice of the later columns.
        p = next((c[m] for c in lifts[i] if not any(c[:m])), 0)
        v0, reach = top[m] or p, 0
        values = itertools.count(v0, p) if p else [v0] if v0 >= 1 else []
        for v in values:
            if p and v > reach:
                # x_a >= v and the later columns >= 1, as z >= 0.
                lower = [r - sum(c[row] for c in order[i:]) - (v - 1) * order[i][row]
                         for row, r in enumerate(residual)]
                point = basic_feasible_point([[c[row] for c in order[i:]] for row in range(m)], lower)
                if point is None:
                    return False
                reach = v + point[0][0] // point[1]
            nodes[0] += 1
            if nodes[0] > MIN_SUPPORT_NODE_CAP:
                raise CapExceeded(f"search nodes exceed cap {MIN_SUPPORT_NODE_CAP}")
            if descend(i + 1, [r - v * c for r, c in zip(residual, order[i])]):
                return True
        return False

    return descend(0, list(b))


def min_support_exact(A: IntMatrix, b: Sequence[int], k_max: Optional[int] = None) -> Optional[int]:
    """Minimum support over nonnegative integer solutions of A x = b, or
    None when none exists.

    None is a proof: b lies outside the lattice of A, which is checked
    first, or the search over every support found none. A search that
    ends without either raises CapExceeded with its reason: k_max < n
    cut it, or it tried more than MIN_SUPPORT_NODE_CAP values of bounded
    columns. Raises DimensionMismatch unless b has m entries, then
    NonPositive for k_max < 0.
    """
    b = _rhs_vector(b, A.rows)
    k_max = A.cols if k_max is None else k_max
    if k_max < 0:
        raise NonPositive(f"k_max must be nonnegative, got {k_max}")
    if not any(b):
        return 0
    columns = [A.column(j) for j in range(A.cols)]
    if any(_reduce(hnf_basis(columns, A.rows), b)):
        return None
    nodes = [0]
    for k in range(1, min(A.cols, k_max) + 1):
        for subset in itertools.combinations(columns, k):
            if _support_feasible(list(subset), b, nodes):
                return k
    if k_max < A.cols:
        raise CapExceeded(f"no solution with support <= {k_max}")
    return None


def icr_scan(a: Sequence[int], b_max: int) -> int:
    """Worst minimum support over all semigroup members up to b_max.

    This is a lower bound for the integer Caratheodory rank of the row a:
    the scan cannot rule out worse right-hand sides beyond b_max. Exact
    per-value answers come from the bitset closure of each weight subset,
    grown from its prefix's closure by one weight, depth first, and
    joined into one union per subset size. A weight/gcd of 1 reaches
    every value alone, so the scan then takes the singletons only.
    Raises CapExceeded when b_max/gcd(a) exceeds ICR_SCAN_CAP, and when
    the subset closures to compute have more than ICR_SCAN_WORK_CAP bits
    in total.
    """
    a = as_vector(a)
    if not a:
        raise DimensionMismatch("at least one entry is required")
    if any(v <= 0 for v in a):
        raise NonPositive("entries must be positive")
    if b_max < 0:
        raise NonPositive("b_max must be nonnegative")
    g = math.gcd(*a)
    weights = [v // g for v in a]
    limit = b_max // g
    if limit > ICR_SCAN_CAP:
        raise CapExceeded(f"b_max/gcd = {limit} exceeds cap {ICR_SCAN_CAP}")
    if not limit:
        return 0
    n = len(weights)
    subsets = n if 1 in weights else 2**n - 1
    if subsets * (limit + 1) > ICR_SCAN_WORK_CAP:
        raise CapExceeded(f"subset closures x (b_max/gcd + 1) bits exceed cap {ICR_SCAN_WORK_CAP}")
    if 1 in weights:
        return 1
    mask = (1 << (limit + 1)) - 1
    unions = [1] + [0] * n

    def walk(start: int, prefix: int, size: int) -> None:
        for j in range(start, n):
            closure = _add_coin(prefix, weights[j], mask)
            unions[size] |= closure
            walk(j + 1, closure, size + 1)

    walk(0, 1, 1)
    # A closure holds those of the subset's subsets, so the unions grow
    # with the size; a value is new in the union of its minimum support.
    return max((k for k in range(1, n + 1) if unions[k] != unions[k - 1]), default=0)
