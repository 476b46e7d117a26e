"""Brute-force ground truth for small instances.

`min_support_exact` finds the true minimum number of nonzeros over all
nonnegative integer solutions of A x = b. For one row this is a complete
search over support subsets; for two or more rows it is a bounded
enumeration, honest about its caps: a None answer proves infeasibility,
and a search that finds nothing within its regime raises CapExceeded.

`icr_scan` takes the worst case of the minimum support over all
right-hand sides up to a limit, which lower-bounds the integer
Caratheodory rank of a positive row.

Both decide membership in a semigroup with `semigroup._closure_bitset`,
which `solve_knapsack_positive` also walks back through.
"""

from __future__ import annotations

import collections
import itertools
import math
from typing import Optional, Sequence

from .errors import CapExceeded, DimensionMismatch, NonPositive
from .intlinalg import IntMatrix, _rhs_vector, as_vector, lattice_member
from .semigroup import _add_coin, _closure_bitset

DEFAULT_COORD_CAP = 50
# Cap on bitset lengths, less one bit: icr_scan keeps bitsets of
# b_max/gcd + 1 bits, up to two levels of subsets, and the one-row
# min_support_exact builds one of |b - sum of the support's weights|/gcd
# + 1 bits per support it tries.
ICR_SCAN_CAP = 10**7
# Work caps, so that a search too large to finish ends with CapExceeded
# after a few seconds: bits over all subset closures of icr_scan, and
# points enumerated by the multi-row min_support_exact.
ICR_SCAN_WORK_CAP = 10**9
MIN_SUPPORT_POINT_CAP = 10**6


def _reachable(value: int, coins: Sequence[int]) -> bool:
    """Whether value is a sum of nonnegative multiples of the positive
    coins, on the bitset closure of the coins over their gcd; raises
    CapExceeded when value/gcd exceeds ICR_SCAN_CAP."""
    if value <= 0 or not coins:
        return value == 0
    g = math.gcd(*coins)
    if value % g:
        return False
    value //= g
    if value > ICR_SCAN_CAP:
        raise CapExceeded(f"|b - sum of weights|/gcd = {value} exceeds cap {ICR_SCAN_CAP}")
    return bool(_closure_bitset([c // g for c in coins], value) >> value & 1)


def _single_row_support_feasible(weights: Sequence[int], b: int) -> bool:
    """Whether sum(w_i * x_i) = b admits x with every x_i >= 1."""
    residual = b - sum(weights)
    positives = [w for w in weights if w > 0]
    negatives = [-w for w in weights if w < 0]
    if positives and negatives:
        return residual % math.gcd(*(abs(w) for w in weights)) == 0
    if positives:
        return residual >= 0 and _reachable(residual, positives)
    return residual <= 0 and _reachable(-residual, negatives)


def _min_support_single_row(row: Sequence[int], b: int, k_max: int) -> Optional[int]:
    n = len(row)
    for k in range(1, min(n, k_max) + 1):
        for subset in itertools.combinations(range(n), k):
            if _single_row_support_feasible([row[j] for j in subset], b):
                return k
    if k_max < n:
        raise CapExceeded(f"no solution with support <= {k_max}")
    return None


def _search_support(
    columns: Sequence[Sequence[int]], b: Sequence[int], coord_cap: int, points: list[int]
) -> bool:
    """Whether columns * x = b has an integer solution with 1 <= x_i <= cap,
    by depth-first enumeration with the last coordinate solved directly.
    points[0] counts the points enumerated, across calls; CapExceeded is
    raised once it passes MIN_SUPPORT_POINT_CAP."""
    last = len(columns) - 1

    def solve_last(residual: list[int]) -> bool:
        points[0] += 1
        if points[0] > MIN_SUPPORT_POINT_CAP:
            raise CapExceeded(f"enumerated points exceed cap {MIN_SUPPORT_POINT_CAP}")
        col = columns[last]
        anchor = next((i for i, v in enumerate(col) if v != 0), None)
        if anchor is None:
            return not any(residual)
        q, r = divmod(residual[anchor], col[anchor])
        if r != 0 or not 1 <= q <= coord_cap:
            return False
        return all(residual[i] == q * col[i] for i in range(len(col)))

    def descend(idx: int, residual: list[int]) -> bool:
        if idx == last:
            return solve_last(residual)
        col = columns[idx]
        current = [r - c for r, c in zip(residual, col)]
        for _ in range(coord_cap):
            if descend(idx + 1, current):
                return True
            current = [r - c for r, c in zip(current, col)]
        return False

    return descend(0, list(b))


def min_support_exact(
    A: IntMatrix,
    b: Sequence[int],
    k_max: Optional[int] = None,
    coord_cap: int = DEFAULT_COORD_CAP,
) -> Optional[int]:
    """Minimum support over nonnegative integer solutions of A x = b, or
    None when none exists.

    None is always a proof: b lies outside the lattice of A, which is
    checked first, or the complete one-row search found no support. A
    search that ends without either raises CapExceeded with its reason:
    a one-row search cut by k_max < n, a support of one-signed weights
    that needs a bitset of more than ICR_SCAN_CAP + 1 bits, and for
    m >= 2 an enumeration of supports of size up to k_max with
    coordinates capped at coord_cap that finds nothing or passes
    MIN_SUPPORT_POINT_CAP points. Raises DimensionMismatch unless b has
    m entries, then NonPositive for k_max < 0 or coord_cap < 1.
    """
    b = _rhs_vector(b, A.rows)
    if k_max is None:
        k_max = A.cols
    if k_max < 0:
        raise NonPositive(f"k_max must be nonnegative, got {k_max}")
    if coord_cap < 1:
        raise NonPositive(f"coord_cap must be positive, got {coord_cap}")
    if not any(b):
        return 0
    if lattice_member(A, b) is None:
        return None
    if A.rows == 1:
        return _min_support_single_row(A.row(0), b[0], k_max)
    points = [0]
    k_top = min(A.cols, k_max)
    for k in range(1, k_top + 1):
        for subset in itertools.combinations(range(A.cols), k):
            if _search_support([A.column(j) for j in subset], b, coord_cap, points):
                return k
    raise CapExceeded(f"no solution with support <= {k_top} and entries <= {coord_cap}")


def icr_scan(a: Sequence[int], b_max: int) -> int:
    """Worst minimum support over all semigroup members up to b_max.

    This is a lower bound for the integer Caratheodory rank of the row a:
    the scan cannot rule out worse right-hand sides beyond b_max. Exact
    per-value answers come from the bitset closure of each weight subset,
    grown from its prefix's closure by one weight, level by level.
    Raises CapExceeded when b_max/gcd(a) exceeds ICR_SCAN_CAP, and once
    the subset closures computed reach more than ICR_SCAN_WORK_CAP bits
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
    unassigned = (1 << (limit + 1)) - 2  # value 0 has support 0 already
    mask = unassigned | 1
    worst = work = 0
    # (last index, closure) of the subsets one level down that a later
    # weight extends, in the order of itertools.combinations.
    level = collections.deque([(-1, 1)])
    for k in range(1, len(weights) + 1):
        if not unassigned:
            break
        for _ in range(len(level)):
            last, prefix = level.popleft()
            for j in range(last + 1, len(weights)):
                work += limit + 1
                if work > ICR_SCAN_WORK_CAP:
                    raise CapExceeded(
                        f"subset closures x (b_max/gcd + 1) bits exceed cap {ICR_SCAN_WORK_CAP}"
                    )
                closure = _add_coin(prefix, weights[j], mask)
                hits = closure & unassigned
                if hits:
                    worst = k
                    unassigned &= ~hits
                if j + 1 < len(weights):
                    level.append((j, closure))
    return worst
