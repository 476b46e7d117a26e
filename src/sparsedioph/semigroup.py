"""Sparse nonnegative solutions of integer programs and knapsacks.

Three solving regimes live here, in decreasing generality:

* `solve_semigroup_posspan` handles A x = b, x >= 0 when the columns of A
  positively span R^m; the semigroup then coincides with the lattice, and
  a sparse lattice solution on gamma is pushed into the nonnegative
  orthant by one integer kernel vector, positive on gamma and nonzero on
  at most m more columns, taken from a single phase-I LP. That vector
  exists iff the columns positively span, so its LP is also the spanning
  test, and it runs only when the lattice solution has a negative entry.
* `solve_knapsack_mixed` is the single-row case with both signs present;
  it lifts from every singleton basis and keeps the sparsest result. On
  one row every step has a closed form: gamma comes from suffix gcds, the
  solution on it from gamma's chain of gcds, and the kernel vector is the
  point that phase-I reaches in one pivot.
* `solve_knapsack_positive` is the all-positive single-row case: the
  bitset closure of the weights decides reachability, a walk back from b
  through it rebuilds one solution, and `reduce_knapsack_support`
  shrinks its support by kernel vectors, free on the smallest weight and
  in {-1, 0, 1} elsewhere, each from a pigeonhole collision of subset
  sums.

`sparsity_bounds` evaluates every support bound that applies to a given
instance, exactly, for reporting and comparison.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .diophsolve import (
    BOUND_MIXED_KNAPSACK,
    BOUND_POSITIVE_KNAPSACK,
    BOUND_POSITIVE_SPAN,
    SolutionReport,
    _gamma_solution,
    support_size,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    InfeasibleInput,
    NoSignMix,
    NonPositive,
    NotPositivelySpanning,
    RankDeficient,
)
from .exactlp import basic_feasible_point
from .intlinalg import (
    IntMatrix,
    IntVector,
    _hnf_insert,
    _lattice_det,
    as_vector,
    det_exact,
)
from .numtheory import _omega_upper, omega_truncated_upper
from .sparsify import IndexSet, _basis_indices, _diagonal_quotients, _tau_basis

DEFAULT_B_CAP = 10**7


@dataclass(frozen=True)
class BoundsReport:
    """Every sparsity bound that applies to one instance, evaluated exactly.

    `pointed_cone_bound` and `knapsack_bound` are None when their
    hypotheses fail. The pointed-cone value is reported as a diagnostic
    only; no algorithm here attains it. `thm1_semigroup_bound` is a
    certified upper bound, exact iff `thm1_bound_exact`. `tau` is the
    column basis that bound was taken for.
    """

    tau: IndexSet
    adno_bound: int
    thm1_semigroup_bound: int
    pointed_cone_bound: Optional[int]
    knapsack_bound: Optional[int]
    gcd_A: int
    thm1_bound_exact: bool = True


def _floor_log2(v: int) -> int:
    # floor(log2(v)) for v >= 1.
    return v.bit_length() - 1


def _floor_log2_sqrt(v: int) -> int:
    # floor(log2(sqrt(v))) for v >= 1; exact because the floor only
    # depends on floor(log2(v)).
    return (v.bit_length() - 1) // 2


def _closure_bitset(coins: Sequence[int], limit: int) -> int:
    """Bitset of all sums of nonnegative multiples of `coins` up to `limit`."""
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for c in coins:
        bits = _add_coin(bits, c, mask)
    return bits


def _add_coin(bits: int, coin: int, mask: int) -> int:
    """The bitset `bits` closed under adding `coin`, cut to `mask`."""
    shift = coin
    while shift < mask.bit_length():
        grown = (bits | (bits << shift)) & mask
        if grown == bits:
            break
        bits = grown
        shift *= 2
    return bits


def _positive_kernel(A: IntMatrix, ones: Sequence[int]) -> Optional[list[int]]:
    """Primitive integer y >= 0 with A y = 0, positive on the nonempty
    1-based columns `ones` and on at most m others, or None if none exists.

    y is 1_ones plus a basic feasible point z / d of
    {z >= 0 : A z = -A 1_ones}, which has at most rank(A) nonzeros; the
    integer vector d * y = z + d * 1_ones is divided by its content. When
    `ones` holds a column basis, y exists iff the columns positively span
    R^m: y puts minus each basis column in the cone of the others, and
    conversely the cone is all of R^m, so it holds -A 1_ones.
    """
    rows = A.to_rows()
    point = basic_feasible_point(rows, [-sum(row[j - 1] for j in ones) for row in rows])
    if point is None:
        return None
    y, d = point
    for j in ones:
        y[j - 1] += d
    content = math.gcd(*y)
    return [v // content for v in y]


def solve_semigroup_posspan(
    A: IntMatrix, b: Sequence[int], tau=None
) -> Optional[SolutionReport]:
    """Sparse nonnegative integer solution of A x = b, or None when b is
    not in the lattice of A.

    Takes the sparse lattice solution x* supported on gamma and, when it
    has negative entries, adds the smallest multiple of one integer kernel
    vector that is positive on gamma and nonzero on at most m further
    columns, from one phase-I LP. The support stays within
    |gamma| + m <= 2m + omega_truncated(delta, m). A b outside the
    lattice of A ends on A's canonical basis, before sparsify's forward
    pass, its bound and the solve on gamma.

    Positive spanning is tested only where the lift needs it: the kernel
    vector exists iff the columns positively span R^m, and
    NotPositivelySpanning is raised when it does not. A b outside the
    lattice is outside the semigroup, and an x* with no negative entry is
    a solution, whether or not the columns span, so neither needs the
    test.

    `tau` defaults to `first_nonsingular_basis(A)`, and the report names
    the tau it used. Errors on tau come first, as in `sparsify`, then
    DimensionMismatch when b does not have m entries, then
    NotPositivelySpanning.
    """
    tau, basis = _tau_basis(A, tau)
    found = _gamma_solution(A, b, tau, basis)
    if found is None:
        return None
    cert, x = found
    if any(v < 0 for v in x):
        kernel = _positive_kernel(A, cert.gamma)
        if kernel is None:
            raise NotPositivelySpanning("columns do not positively span R^m")
        lifted = _add_kernel(
            A.to_rows(), as_vector(b), dict(enumerate(x)), dict(enumerate(kernel))
        )
        x = _dense(lifted, A.cols)
    return SolutionReport(
        x=x,
        support_size=support_size(x),
        bound=A.rows + cert.bound,
        bound_name=BOUND_POSITIVE_SPAN,
        bound_exact=cert.bound_exact,
        tau=tau,
    )


def _add_kernel(
    rows: Sequence[Sequence[int]], b: IntVector, x: dict[int, int], kernel: dict[int, int]
) -> dict[int, int]:
    """x plus the smallest multiple of `kernel` that is nonnegative, both
    given as {0-based column: value} on the columns of `kernel`, which
    holds the support of x and is positive there; the sum is rechecked
    against `rows` x = b on those columns."""
    # ceil(-v / k) = -(v // k).
    scale = max(-(v // kernel[j]) for j, v in x.items() if v < 0)
    x = {j: x.get(j, 0) + scale * k for j, k in kernel.items()}
    if any(v < 0 for v in x.values()) or tuple(
        sum(row[j] * v for j, v in x.items()) for row in rows
    ) != b:
        raise AssertionError("kernel lift failed to produce a valid solution")
    return x


def _suffix_gcds(a: Sequence[int]) -> list[int]:
    """after[j] = gcd(a[j:]) for j = 0..len(a), so after[len(a)] = 0."""
    after = [0] * (len(a) + 1)
    for j in range(len(a) - 1, -1, -1):
        after[j] = math.gcd(a[j], after[j + 1])
    return after


def _row_chain(a: Sequence[int]) -> tuple[list[int], int, int, int]:
    """What every singleton lift on the row a, which has both signs,
    shares: its suffix gcds `after` (`_suffix_gcds`), the tail start t,
    which is the first 0-based index j with after[j + 1] != gcd(a), and
    the first positive and first negative index.

    after[j] divides after[j + 1], so after[j + 1] = gcd(a) exactly for
    j < t: there every later column alone spans the lattice of a.
    """
    after = _suffix_gcds(a)
    tail = next(j for j in range(len(a)) if after[j + 1] != after[0])
    first_pos = next(j for j, v in enumerate(a) if v > 0)
    first_neg = next(j for j, v in enumerate(a) if v < 0)
    return after, tail, first_pos, first_neg


def _row_member(c: Sequence[int], b: int) -> Optional[IntVector]:
    """lattice_member(c as one row, (b,)) for nonzero entries c, in
    closed form: no basis is built.

    With s_j = gcd(c_j, ..., c_k) and s_(k+1) = 0, the kernel of c has its
    canonical pivots p_j = s_(j+1) / s_j in rows j < k, so lattice_member's
    x is the one solution with 0 <= x_j < p_j there, and exists iff s_1
    divides b. The chain of gcds gives it: while the rest r of b is a
    multiple of s_j, x_j solves c_j x_j = r modulo s_(j+1), which is
    (r / s_j) times the inverse of c_j / s_j modulo p_j (0 when p_j = 1);
    then x_k = r / c_k.
    """
    s = _suffix_gcds(c)
    if b % s[0]:
        return None
    x = []
    r = b
    for j in range(len(c) - 1):
        p = s[j + 1] // s[j]
        v = r // s[j] * pow(c[j] // s[j], -1, p) % p
        x.append(v)
        r -= c[j] * v
    x.append(r // c[-1])
    return tuple(x)


def _lift_sparse(a: IntVector, b: int, i: int, chain) -> tuple[dict[int, int], int, bool]:
    """`solve_semigroup_posspan` on the row a, which has both signs and no
    zero entry, from the singleton basis of 0-based column i, in closed
    form, for a b that gcd(a) divides: x as {0-based column: value} on
    gamma and the entering column, then omega_truncated_upper(|a_i| /
    gcd(a), 1).

    `chain` is `_row_chain(a)`. The lattice of any columns is their gcd
    times Z, so `sparsify`'s drop rule with tau = {i} reads: keep j iff
    the gcd of a_i, the columns kept before j and all columns after j
    exceeds g = gcd(a). Before the tail start that gcd of later columns is
    g itself, which divides the kept gcd, so the walk keeps i there and
    starts at the tail. The solve on gamma is `_row_member`, lattice_member's
    x read off gamma's own gcd chain. Phase-I Bland on {z >= 0 : a.z = -S},
    S the sum of a over gamma, enters the first column e with a_e * S < 0
    and stops after that one pivot at z = |S| e_e over d = |a_e|, so the
    kernel vector is |a_e| 1_gamma + |S| e_e over its content, and x, the
    kernel and the step stay on gamma and e. S is never 0: the last column
    kept would then be minus the sum of the others, and so in their
    lattice. The row has both signs, so e exists.
    """
    after, tail, first_pos, first_neg = chain
    g = after[0]
    kept = abs(a[i])
    gamma = [i] if i < tail else []
    for j in range(tail, len(a)):
        if j == i or math.gcd(kept, after[j + 1]) != g:
            kept = math.gcd(kept, a[j])
            gamma.append(j)
    omega_1, exact = omega_truncated_upper(abs(a[i]) // g, 1)
    if len(gamma) > 1 + omega_1:
        raise AssertionError("non-redundant set exceeded the sparsity bound")
    if kept != g:
        raise AssertionError("kept columns changed the lattice")
    x = dict(zip(gamma, _row_member([a[j] for j in gamma], b)))
    if any(v < 0 for v in x.values()):
        S = sum(a[j] for j in gamma)
        e = first_neg if S > 0 else first_pos
        kernel = dict.fromkeys(gamma, abs(a[e]))
        kernel[e] = kernel.get(e, 0) + abs(S)
        content = math.gcd(*kernel.values())
        x = _add_kernel((a,), (b,), x, {j: k // content for j, k in kernel.items()})
    return x, omega_1, exact


def _dense(x: dict[int, int], n: int) -> IntVector:
    """The n-vector with the entries of x, a {0-based column: value} map."""
    dense = [0] * n
    for j, v in x.items():
        dense[j] = v
    return tuple(dense)


def solve_knapsack_mixed(a: Sequence[int], b: int) -> Optional[SolutionReport]:
    """Sparse nonnegative solution of a.x = b when a has entries of both
    signs (and none zero); None iff gcd(a) does not divide b.

    A nonzero row with both signs positively spans R, so the
    positively-spanning lift runs once per singleton basis {i}, with no
    spanning test, no lattice basis and no LP: on one row its gamma comes
    from the row's suffix gcds, computed once for all n lifts with the
    tail start and the first index of each sign, its x from gamma's own
    chain of gcds, and its kernel vector from a single Bland pivot. Each
    lift works on gamma and one more column only, and just the sparsest
    outcome is written out as an n-vector; ties prefer the column whose
    omega(|a_i|/gcd) is smallest, then the smallest index. The bound
    2 + min omega(|a_i|/gcd) and the tie-break use certified upper bounds
    on omega, which need no full factorization; `bound_exact` is False
    when any of them may exceed the true value.
    """
    a = as_vector(a)
    if any(v == 0 for v in a):
        raise NoSignMix("entries must be nonzero")
    if not (any(v > 0 for v in a) and any(v < 0 for v in a)):
        raise NoSignMix("entries of both signs are required")
    chain = _row_chain(a)
    if b % chain[0][0] != 0:
        return None
    # The lift on basis {i} reports bound 2 + omega_truncated_upper(|a_i|/g, 1),
    # a certified upper bound on 2 + omega(|a_i|/g), with its exactness.
    lifts = [_lift_sparse(a, b, i, chain) for i in range(len(a))]
    keys = [(support_size(x.values()), 2 + omega_1) for x, omega_1, _ in lifts]
    # min keeps the first of equal keys, so ties go to the smallest index.
    best = min(range(len(a)), key=keys.__getitem__)
    return SolutionReport(
        x=_dense(lifts[best][0], len(a)),
        support_size=keys[best][0],
        bound=min(bound for _, bound in keys),
        bound_name=BOUND_MIXED_KNAPSACK,
        bound_exact=all(exact for _, _, exact in lifts),
    )


def reduce_knapsack_support(a: Sequence[int], x0: Sequence[int]) -> SolutionReport:
    """Shrink the support of a nonnegative knapsack solution below the
    1 + floor(log2(min(a)/gcd(a))) bound.

    Designates the smallest entry of a (smallest index on ties) and, while
    too many other coordinates are nonzero, cancels at least one of them
    by adding a multiple of a kernel vector that is free on the designated
    column and in {-1, 0, 1} on the others. With weights w = a/gcd(a) and
    t the designated weight: while 2^k > t for the k other nonzero
    columns, the first t + 1 of their subsets cannot all have distinct
    weight sums modulo t, so two collide (the pigeonhole of Eisenbrand
    and Shmonin), and their difference y balances exactly against
    -(w.y)/t times the designated column. The knapsack value is invariant
    and nonnegativity is preserved at every step.
    """
    a = as_vector(a)
    if not a:
        raise DimensionMismatch("knapsack needs at least one weight")
    if any(v <= 0 for v in a):
        raise NonPositive("knapsack weights must be positive")
    x = [int(v) for v in x0]
    if len(x) != len(a):
        raise DimensionMismatch("solution length differs from weight count")
    if any(v < 0 for v in x):
        raise InfeasibleInput("starting point has negative entries")
    g = math.gcd(*a)
    weights = [v // g for v in a]
    target = min(weights)
    i_min = weights.index(target)
    while True:
        others = [j for j in range(len(x)) if j != i_min and x[j] != 0]
        # Stop once the count is within log2 of the smallest weight:
        # 2^count <= target means count <= floor(log2(target)).
        if 2 ** len(others) <= target:
            break
        # Bit k of a code picks others[k]; the first code whose weight sum
        # repeats an earlier residue modulo target ends the search.
        seen: dict[int, int] = {}
        for code in range(target + 1):
            residue = sum(weights[j] for k, j in enumerate(others) if code >> k & 1) % target
            if residue in seen:
                break
            seen[residue] = code
        else:
            raise AssertionError("pigeonhole collision must occur within target + 1 codes")
        y = [(code >> k & 1) - (seen[residue] >> k & 1) for k in range(len(others))]
        total = sum(v * weights[j] for v, j in zip(y, others))
        head = -total // target
        if head * target != -total:
            raise AssertionError("collision residues disagree")
        if head < 0:
            head, y = -head, [-v for v in y]
        step = min(x[j] for v, j in zip(y, others) if v == -1)
        x[i_min] += step * head
        for v, j in zip(y, others):
            x[j] += step * v
    bound = 1 + _floor_log2(target)
    return SolutionReport(
        x=tuple(x),
        support_size=support_size(x),
        bound=bound,
        bound_name=BOUND_POSITIVE_KNAPSACK,
    )


def solve_knapsack_positive(
    a: Sequence[int], b: int, b_cap: int = DEFAULT_B_CAP
) -> Optional[SolutionReport]:
    """Sparse nonnegative solution of a.x = b for positive a, or None when
    b is not in the semigroup generated by a.

    The bitset closure of the weights over values up to b/gcd(a), which
    must stay within `b_cap`, decides feasibility. A walk down from
    b/gcd(a) takes at each step the first weight, in input order, that
    leaves a reachable value; that solution is then support-reduced.
    Raises NonPositive on a negative cap and CapExceeded above the cap.
    """
    a = as_vector(a)
    if not a:
        raise DimensionMismatch("knapsack needs at least one weight")
    if any(v <= 0 for v in a):
        raise NonPositive("knapsack weights must be positive")
    if b_cap < 0:
        raise NonPositive(f"b cap must be nonnegative, got {b_cap}")
    if b < 0:
        return None
    g = math.gcd(*a)
    if b % g != 0:
        return None
    value = b // g
    if value > b_cap:
        raise CapExceeded(f"b/gcd = {value} exceeds cap {b_cap}")
    weights = [v // g for v in a]
    # Bit v of the closure is bit v % 8 of byte v // 8; a byte lookup
    # costs O(1) where a shift of the closure costs O(b/g).
    reach = _closure_bitset(weights, value).to_bytes(value // 8 + 1, "little")
    if not reach[value >> 3] >> (value & 7) & 1:
        return None
    x0 = [0] * len(weights)
    v = value
    while v:
        # v is reachable and positive, so some weight steps back to a
        # reachable value.
        for idx, w in enumerate(weights):
            rest = v - w
            if rest >= 0 and reach[rest >> 3] >> (rest & 7) & 1:
                break
        x0[idx] += 1
        v = rest
    return reduce_knapsack_support(a, x0)


def _is_pointed_cone(A: IntMatrix) -> bool:
    """Whether the cone of A's columns is pointed: no nonzero y >= 0 has
    A y = 0.

    A row whose entries are all positive, or all negative, settles it
    with no LP: its product with y >= 0 is zero only at y = 0. Otherwise
    exact phase-I simplex decides whether {y >= 0 : A y = 0, sum y = 1}
    is empty.
    """
    rows = A.to_rows()
    if any(min(row) > 0 or max(row) < 0 for row in rows):
        return True
    return basic_feasible_point(rows + [[1] * A.cols], [0] * A.rows + [1]) is None


def _is_extreme_ray(A: IntMatrix, index: int) -> bool:
    """Whether the 1-based column `index` spans an extreme ray of the cone
    of all columns (assumed pointed)."""
    col = A.column(index - 1)
    p = next((i for i, v in enumerate(col) if v != 0), None)
    if p is None:
        return False
    # Every column but the positive multiples t * col (col included):
    # t > 0 exists iff col[p] * other == other[p] * col and
    # col[p] * other[p] > 0, with p the first nonzero row of col.
    others = [
        j for j, other in enumerate(A.to_columns())
        if col[p] * other[p] <= 0
        or any(col[p] * o != other[p] * c for c, o in zip(col, other))
    ]
    if not others:
        return True
    sub = A.take_columns(others)
    return basic_feasible_point(sub.to_rows(), list(col)) is None


def sparsity_bounds(
    A: IntMatrix, tau=None, extreme_ray_index: Optional[int] = None
) -> BoundsReport:
    """Evaluate every applicable sparsity bound for A x = b, x >= 0.

    `tau` defaults to the lexicographically first nonsingular column
    basis, and the report names the tau it used. The pointed-cone bound
    is computed only when the cone of columns is full-dimensional and
    pointed, no column is zero, and the designated column (default: first
    that passes the test) spans an extreme ray. Raises, in this order,
    DimensionMismatch when `extreme_ray_index` is not a column index in
    1..n, RankDeficient when A lacks full row rank, DimensionMismatch
    when tau is not a set of m column indices, and SingularBasis when the
    columns of tau are dependent.

    A A^T is formed once, from row dot products, and the pointed-cone
    bound's B B^T is read off it; a row of one sign shows the cone
    pointed with no LP (`_is_pointed_cone`).
    """
    m, n = A.rows, A.cols
    if extreme_ray_index is not None and not 1 <= extreme_ray_index <= n:
        raise DimensionMismatch(f"extreme ray index {extreme_ray_index} is outside 1..{n}")
    # The scan tests the rank before tau is looked at, and its basis
    # serves tau when tau is the default.
    try:
        first, basis = _tau_basis(A)
    except RankDeficient:
        raise RankDeficient("bounds need a full-row-rank matrix") from None
    tau = first if tau is None else _basis_indices(A, tau)
    if tau != first:
        basis = _tau_basis(A, tau)[1]
    # The canonical basis of all columns, grown from tau's: g is its
    # determinant, and delta the product of the diagonal quotients.
    full = functools.reduce(
        _hnf_insert, (A.column(j) for j in range(n) if j + 1 not in tau), basis
    )
    g = _lattice_det(full)
    rows = A.to_rows()
    gram = [[sum(map(operator.mul, r, t)) for t in rows] for r in rows]
    gram_det = det_exact(IntMatrix(m, m, tuple(v for r in gram for v in r)))
    adno = m + _floor_log2_sqrt(gram_det // (g * g))
    omega_m, thm1_exact = _omega_upper(_diagonal_quotients(basis, full), m)

    knapsack = None
    row = A.row(0) if m == 1 else ()
    if m == 1 and all(v != 0 for v in row) and (
        all(v > 0 for v in row) or all(v < 0 for v in row)
    ):
        knapsack = 1 + _floor_log2(min(abs(v) for v in row) // g)

    pointed = None
    if all(any(v != 0 for v in A.column(j)) for j in range(n)) and _is_pointed_cone(A):
        if extreme_ray_index is not None:
            designated = extreme_ray_index if _is_extreme_ray(A, extreme_ray_index) else None
        else:
            designated = next(
                (j for j in range(1, n + 1) if _is_extreme_ray(A, j)), None
            )
        if designated is not None:
            # Cauchy-Binet: det(A A^T) sums the squares of all maximal
            # minors, det(B B^T) those of the minors avoiding the column;
            # B is A without column c, so B B^T = A A^T - c c^T.
            c = A.column(designated - 1)
            avoiding = tuple(gram[i][k] - c[i] * c[k] for i in range(m) for k in range(m))
            q_squared = gram_det - det_exact(IntMatrix(m, m, avoiding))
            if q_squared > 0:
                pointed = m + _floor_log2_sqrt(q_squared // (g * g))
    return BoundsReport(
        tau=tau,
        adno_bound=adno,
        thm1_semigroup_bound=2 * m + omega_m,
        pointed_cone_bound=pointed,
        knapsack_bound=knapsack,
        gcd_A=g,
        thm1_bound_exact=thm1_exact,
    )
