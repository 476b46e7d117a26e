"""Independent brute-force oracles used only by the tests.

Everything here deliberately avoids the code paths under test: the
determinant is a permutation expansion, factorization is plain trial
division, and knapsack minima come from depth-first enumeration. The
superseded trial-first factorization (trial division up to 10^6 before
any primality test or rho) is kept as a reference for the splitter that
replaced it. The full elimination `hnf_transform`, which lets identity
rows ride along to record the unimodular transform, and the solve through
that transform, `lattice_member_transform`, are kept as references for
the package's incremental `_hnf_insert` bases and for `lattice_member`,
which solves by forward substitution with no transform. The superseded
sparsify (one membership solve per column) and basis
choice (a C(n, m) subset scan) are kept here as references for the
package's passes over transform-free `hnf_basis` bases. The number of
primary cyclic summands of Z^n / L(M), which the paper bounds by the
truncated omega of |det M|, is counted from ranks mod p, with no Smith
normal form. The phase-I simplex
that did every step in `fractions.Fraction` is kept as the reference for
the fraction-free one in `exactlp`: same pivot rule, so the two must
return the same point. The positive knapsack's forward dynamic program,
which stored a parent weight per value, is kept as the reference for the
walk back through the bitset closure that replaced it: both pick the
same weight at every value, so the two must return the same report.
The support reduction that asked a separate helper for each pigeonhole
kernel vector, `reduce_knapsack_support_by_kernels`, is kept as the
reference for the loop that finds its own collisions: the same kernel
vectors, so the two must return the same x.
The `icr_scan` that built every subset's closure from scratch is kept as
the reference for the one that adds one weight to a closure one level
down: both must return the same value or stop at the same work cap.
The mixed-sign knapsack taken through the general positively-spanning
lift (sparsify, a lattice solve and the phase-I LP) on every singleton
basis, `solve_knapsack_mixed_by_lifts`, is kept as the reference for the
closed-form sparse lifts that replaced it: same lifts, same choice.
Positive spanning, `positively_spans`, is decided from its definition
(a nonzero maximal minor and a y >= 1 with A y = 0 from the Fraction
simplex); the package no longer tests it up front, only in its lift.
The exact prime counts `omega_truncated` and `omega`, `lattice_equal` and
the exhaustive tightness check `verify_tightness` serve only the tests'
bound and lattice checks, so they live here; the package itself only
needs the certified upper bound `omega_truncated_upper`.
"""

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence

from sparsedioph import (
    CapExceeded,
    DimensionMismatch,
    Error,
    IntMatrix,
    RankDeficient,
    SingularBasis,
    SolutionReport,
    SparsifyCertificate,
    as_vector,
    det_exact,
    factorize,
    hnf_basis,
    reduce_knapsack_support,
    solve_semigroup_posspan,
)
from sparsedioph.diophsolve import BOUND_MIXED_KNAPSACK
from sparsedioph.errors import NonPositive
from sparsedioph.intlinalg import _xgcd
from sparsedioph.numtheory import (
    DEFAULT_RHO_ITERATION_CAP,
    TRIAL_DIVISION_LIMIT,
    Factorization,
    _pollard_rho,
    is_probable_prime,
)
from sparsedioph.semigroup import DEFAULT_B_CAP, _closure_bitset
from sparsedioph.sparsify import check_index_set


def perm_det(rows) -> int:
    """Determinant by signed permutation expansion (n <= 5 or so)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total


def minors_gcd(A: IntMatrix) -> int:
    """gcd of all m x m minors, straight from the definition."""
    m = A.rows
    g = 0
    rows = A.to_rows()
    for combo in itertools.combinations(range(A.cols), m):
        sub = [[rows[i][j] for j in combo] for i in range(m)]
        g = math.gcd(g, perm_det(sub))
    return g


def positively_spans(A: IntMatrix) -> bool:
    """Whether the columns of A positively span R^m: some m x m minor is
    nonzero (`minors_gcd`), and y = 1 + z with z >= 0 solves A y = 0,
    which the Fraction simplex decides."""
    if minors_gcd(A) == 0:
        return False
    rows = A.to_rows()
    return basic_feasible_point_fraction(rows, [-sum(row) for row in rows]) is not None


def omega_truncated(z: int, m: int) -> int:
    """Number of prime factors of z with multiplicities capped at m."""
    if m < 1:
        raise NonPositive(f"threshold must be >= 1, got {m}")
    return sum(min(s, m) for _, s in factorize(z).factors)


def omega(z: int) -> int:
    """Number of distinct prime factors of z."""
    return len(factorize(z).factors)


def lattice_equal(A: IntMatrix, B: IntMatrix) -> bool:
    """True iff A's and B's columns span the same lattice (same canonical
    HNF basis)."""
    if A.rows != B.rows:
        raise DimensionMismatch("row counts differ")
    return hnf_basis(A.to_columns(), A.rows) == hnf_basis(B.to_columns(), B.rows)


def hnf_transform(cols: list[list[int]], m: int) -> list[int]:
    """Bring `cols` to column Hermite normal form in place, taking pivots
    in the first m entries; returns the pivot rows. Entries below row m
    ride along with every column operation.

    Afterwards the first len(pivots) columns are the canonical lattice
    basis and the rest are zero in their first m entries. Each pivot (the
    first nonzero entry of its column, scanning top-down) is positive,
    pivot rows strictly increase with the column index, and in a pivot's
    row every entry of an earlier column lies in [0, pivot).
    """
    n = len(cols)
    pivots: list[int] = []
    for i in range(m):
        c = len(pivots)
        if c >= n:
            break
        pivot_col = next((j for j in range(c, n) if cols[j][i] != 0), None)
        if pivot_col is None:
            continue
        if pivot_col != c:
            cols[c], cols[pivot_col] = cols[pivot_col], cols[c]
        for j in range(c + 1, n):
            if cols[j][i] == 0:
                continue
            a, b = cols[c][i], cols[j][i]
            g, s, t = _xgcd(a, b)
            # [[s, -b//g], [t, a//g]] has determinant 1.
            u, v = -(b // g), a // g
            hc, hj = cols[c], cols[j]
            cols[c] = [s * x + t * y for x, y in zip(hc, hj)]
            cols[j] = [u * x + v * y for x, y in zip(hc, hj)]
        if cols[c][i] < 0:
            cols[c] = [-x for x in cols[c]]
        pivot = cols[c][i]
        for k in range(c):
            q = cols[k][i] // pivot
            if q:
                cols[k] = [x - q * y for x, y in zip(cols[k], cols[c])]
        pivots.append(i)
    return pivots


def lattice_member_transform(A: IntMatrix, b) -> Optional[tuple]:
    """Solve A x = b over the integers, or None when b is not in the
    lattice of A's columns, by triangular substitution on the column HNF
    H = A U from `hnf_transform`: H z = b determines z at the pivot rows
    (with exact divisibility required), the remaining rows are consistency
    checks, and x = U z.
    """
    vec = as_vector(b)
    if len(vec) != A.rows:
        raise DimensionMismatch("right-hand side length differs from row count")
    # Column j of A with e_j appended: afterwards the rows below A.rows hold U.
    n = A.cols
    cols = [list(A.column(j)) + [1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivots = hnf_transform(cols, A.rows)
    # Subtracting z_j times each whole column leaves b - H z on top and -U z below.
    residual = list(vec) + [0] * n
    for col, p in zip(cols, pivots):
        z, r = divmod(residual[p], col[p])
        if r:
            return None
        if z:
            residual = [v - z * c for v, c in zip(residual, col)]
    if any(residual[: A.rows]):
        return None
    return tuple(-v for v in residual[A.rows :])


def basis_det(A: IntMatrix, tau):
    """Validated basis tau of m column indices and det(A_tau), never 0, by
    Bareiss elimination on the columns of tau.

    Raises DimensionMismatch unless tau is a strictly increasing set of m
    indices in 1..n, and SingularBasis when its columns are dependent.
    """
    tau = check_index_set(tau, A.cols)
    if len(tau) != A.rows:
        raise DimensionMismatch(f"basis needs {A.rows} indices, got {len(tau)}")
    det_tau = det_exact(A.take_columns([i - 1 for i in tau]))
    if det_tau == 0:
        raise SingularBasis(f"columns {tau} are linearly dependent")
    return tau, det_tau


EXHAUSTIVE_COLUMN_CAP = 14


class TooLargeForExhaustive(Error):
    """Instance exceeds the cap for exhaustive subset search."""


def verify_tightness(A: IntMatrix, tau, max_columns: int = EXHAUSTIVE_COLUMN_CAP) -> bool:
    """Exhaustively check that the sparsification bound is met with equality.

    Enumerates every superset of tau in increasing size and returns True
    iff the smallest one spanning the full lattice has exactly the size
    promised by the bound. Refuses instances wider than `max_columns`.
    """
    m, n = A.rows, A.cols
    if n > max_columns:
        raise TooLargeForExhaustive(f"{n} columns > cap {max_columns}")
    tau, det_tau = basis_det(A, tau)
    tau0 = [i - 1 for i in tau]
    g = minors_gcd(A)
    bound = m + omega_truncated(abs(det_tau) // g, m)
    rest = [j for j in range(n) if j not in tau0]
    for size in range(len(rest) + 1):
        for subset in itertools.combinations(rest, size):
            candidate = sorted(tau0 + list(subset))
            if lattice_equal(A, A.take_columns(candidate)):
                return m + size == bound
    raise AssertionError("the full column set always spans the lattice")


def trial_factorize(z: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= z:
        if z % d == 0:
            s = 0
            while z % d == 0:
                z //= d
                s += 1
            out.append((d, s))
        d += 1
    if z > 1:
        out.append((z, 1))
    return out


def factorize_trial_first(z: int, rho_iteration_cap: int = DEFAULT_RHO_ITERATION_CAP) -> Factorization:
    """Prime factorization of a positive integer; z = 1 gives no factors."""
    if z <= 0:
        raise NonPositive(f"cannot factorize {z}")
    counts: dict[int, int] = {}
    remaining = z
    for d in (2, 3):
        while remaining % d == 0:
            counts[d] = counts.get(d, 0) + 1
            remaining //= d
    d = 5
    while d <= TRIAL_DIVISION_LIMIT and d * d <= remaining:
        for cand in (d, d + 2):
            while remaining % cand == 0:
                counts[cand] = counts.get(cand, 0) + 1
                remaining //= cand
        d += 6
    stack = [remaining] if remaining > 1 else []
    while stack:
        v = stack.pop()
        if v == 1:
            continue
        if is_probable_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        f = _pollard_rho(v, rho_iteration_cap)
        stack.append(f)
        stack.append(v // f)
    return Factorization(tuple(sorted(counts.items())))


def rank_mod_p(rows, p: int) -> int:
    """Rank of an integer matrix over GF(p), by Gaussian elimination."""
    a = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        pivot = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [v * inv % p for v in a[rank]]
        for i in range(len(a)):
            if i != rank and a[i][col]:
                f = a[i][col]
                a[i] = [(v - f * w) % p for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def primary_summands(M: IntMatrix) -> int:
    """Number of primary cyclic summands of Z^n / L(M) for a nonsingular
    n x n matrix M (n <= 5 or so).

    Z^n / L(M) is the direct sum of Z/d_i over the invariant factors d_i
    of M, and Z/d_i has one primary summand per prime of d_i. A prime p
    divides n - rank(M mod p) of the d_i, since unimodular row and column
    operations keep the rank mod p, so the count is the sum of that over
    the primes p of |det M|. Raises NonPositive for a singular M, whose
    quotient has an infinite cyclic summand.
    """
    rows = M.to_rows()
    d = abs(perm_det(rows))
    if d == 0:
        raise NonPositive("a singular matrix has an infinite cyclic summand")
    return sum(M.rows - rank_mod_p(rows, p) for p, _ in trial_factorize(d))


def identity(n: int) -> IntMatrix:
    return IntMatrix(n, n, tuple(int(i == j) for i in range(n) for j in range(n)))


def random_matrix(rng, m: int, n: int, lo: int, hi: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]
    )


def random_full_row_rank(rng, m: int, n: int, lo: int, hi: int) -> IntMatrix:
    while True:
        A = random_matrix(rng, m, n, lo, hi)
        if len(hnf_basis(A.to_columns(), m)) == m:
            return A


def random_nonsingular_tau(rng, A: IntMatrix):
    """A random m-subset of columns with nonzero determinant (1-based)."""
    m, n = A.rows, A.cols
    for _ in range(200):
        combo = sorted(rng.sample(range(n), m))
        if det_exact(A.take_columns(combo)) != 0:
            return tuple(j + 1 for j in combo)
    for combo in itertools.combinations(range(n), m):
        if det_exact(A.take_columns(combo)) != 0:
            return tuple(j + 1 for j in combo)
    raise AssertionError("full-row-rank matrix must have a nonsingular basis")


def knapsack_min_support_dfs(weights, b: int):
    """Exact minimum support for positive weights by support enumeration
    plus bounded depth-first search; complete because weights are positive."""
    n = len(weights)
    if b == 0:
        return 0

    def representable(sub, target):
        if not sub:
            return target == 0
        w, rest = sub[0], sub[1:]
        x = 1
        while w * x <= target:
            remaining = target - w * x
            if rest:
                if representable(rest, remaining):
                    return True
            elif remaining == 0:
                return True
            x += 1
        return False

    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if representable([weights[j] for j in combo], b):
                return k
    return None


def solve_knapsack_positive_dp(a, b: int, b_cap: int = DEFAULT_B_CAP):
    """The superseded `solve_knapsack_positive`: a forward dynamic program
    over values up to b/gcd(a) stores, for each value, the first weight in
    input order that reaches it from a reached value; walking those
    parents down from b/gcd(a) gives x0, which is then support-reduced."""
    a = as_vector(a)
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
    # parent[v] = 1 + index of the weight that first reaches v; 0 = unreached.
    parent = bytearray(value + 1) if len(weights) < 255 else [0] * (value + 1)
    parent[0] = 255  # sentinel; value 0 is always reachable
    for v in range(1, value + 1):
        for idx, w in enumerate(weights):
            if w <= v and parent[v - w]:
                parent[v] = idx + 1
                break
    if not parent[value]:
        return None
    x0 = [0] * len(weights)
    v = value
    while v:
        idx = parent[v] - 1
        x0[idx] += 1
        v -= weights[idx]
    return reduce_knapsack_support(a, x0)


def _kernel_vector_pigeonhole(a) -> tuple:
    """Nonzero integer y with a.y = 0, y[0] >= 0 and all later entries in
    {-1, 0, 1}, for positive a with len(a) > 1 + log2(a[0]): the subset
    sums of a[1:] over {0,1} encodings of 0..a[0] collide modulo a[0],
    and the difference of a colliding pair is the tail of y; the head
    balances the sum exactly."""
    t = len(a)
    assert 2 ** (t - 1) > a[0]
    seen: dict[int, list[int]] = {}
    for code in range(a[0] + 1):
        eps = [(code >> i) & 1 for i in range(t - 1)]
        residue = sum(e * v for e, v in zip(eps, a[1:])) % a[0]
        if residue in seen:
            prev = seen[residue]
            tail = [e1 - e2 for e1, e2 in zip(eps, prev)]
            total = sum(y * v for y, v in zip(tail, a[1:]))
            head = -total // a[0]
            if head * a[0] != -total:
                raise AssertionError("collision residues disagree")
            y = [head] + tail
            if head < 0:
                y = [-v for v in y]
            return tuple(y)
        seen[residue] = eps
    raise AssertionError("pigeonhole collision must occur within a[0]+1 codes")


def reduce_knapsack_support_by_kernels(a, x0) -> tuple[tuple, int]:
    """The superseded `reduce_knapsack_support` for valid input, x and the
    number of passes: each pass asks a separate helper for the pigeonhole
    kernel vector of the designated weight and the other nonzero columns."""
    x = list(x0)
    g = math.gcd(*a)
    weights = [v // g for v in a]
    target = min(weights)
    i_min = weights.index(target)
    passes = 0
    while True:
        others = [j for j in range(len(x)) if j != i_min and x[j] != 0]
        if 2 ** len(others) <= target:
            break
        passes += 1
        sub = (weights[i_min],) + tuple(weights[j] for j in others)
        kernel = _kernel_vector_pigeonhole(sub)
        step = min(x[others[k]] for k in range(len(others)) if kernel[k + 1] == -1)
        x[i_min] += step * kernel[0]
        for k, j in enumerate(others):
            x[j] += step * kernel[k + 1]
    return tuple(x), passes


def icr_scan_from_scratch(a, b_max: int, work_cap: int) -> int:
    """`oracle.icr_scan` for valid input, with each subset's closure bitset
    computed from scratch and CapExceeded once their bits exceed work_cap."""
    g = math.gcd(*a)
    weights = [v // g for v in a]
    limit = b_max // g
    unassigned = (1 << (limit + 1)) - 2
    worst = work = 0
    for k in range(1, len(weights) + 1):
        if not unassigned:
            break
        for subset in itertools.combinations(weights, k):
            work += limit + 1
            if work > work_cap:
                raise CapExceeded(f"subset closures x (b_max/gcd + 1) bits exceed cap {work_cap}")
            hits = _closure_bitset(subset, limit) & unassigned
            if hits:
                worst = k
                unassigned &= ~hits
    return worst


def first_nonsingular_basis_lex(A: IntMatrix):
    """Lexicographically first m-subset of columns with nonzero determinant,
    by scanning all C(n, m) subsets in order (1-based)."""
    m = A.rows
    for combo in itertools.combinations(range(A.cols), m):
        if det_exact(A.take_columns(combo)) != 0:
            return tuple(j + 1 for j in combo)
    raise RankDeficient("no nonsingular column basis exists")


def _reduce_to_unit_gcd(A: IntMatrix) -> IntMatrix:
    """Rewrite A in the basis of its own lattice so the minor gcd becomes 1.

    The basis matrix M is the canonical HNF basis; M is lower triangular,
    so M^{-1} A is computed by exact forward substitution. The result is
    integral because every column of A lies in the lattice of M.
    """
    m = A.rows
    basis = hnf_basis(A.to_columns(), m)
    if len(basis) < m:
        raise RankDeficient(f"rank {len(basis)} < row count {m}")
    M = IntMatrix.from_columns(basis).to_rows()
    new_cols = []
    for j in range(A.cols):
        col = list(A.column(j))
        out = [0] * m
        for i in range(m):
            acc = col[i] - sum(M[i][k] * out[k] for k in range(i))
            q, r = divmod(acc, M[i][i])
            if r != 0:
                raise AssertionError("lattice basis does not divide its own column")
            out[i] = q
        new_cols.append(out)
    return IntMatrix.from_columns(new_cols)


def sparsify_membership_greedy(A: IntMatrix, tau):
    """Sparsify by one lattice-membership solve per column outside tau.

    After rewriting A so its minor gcd is 1, every column outside tau is
    tested once, in increasing index order, for membership in the lattice
    of the remaining kept columns; redundant columns are dropped on the
    spot.
    """
    m, n = A.rows, A.cols
    tau = check_index_set(tau, n)
    if len(tau) != m:
        raise DimensionMismatch(f"basis needs {m} indices, got {len(tau)}")
    tau0 = [i - 1 for i in tau]
    det_tau = det_exact(A.take_columns(tau0))
    if det_tau == 0:
        raise SingularBasis(f"columns {tau} are linearly dependent")
    reduced = _reduce_to_unit_gcd(A)  # raises RankDeficient if rank < m
    delta = abs(det_exact(reduced.take_columns(tau0)))
    kept = [j for j in range(n) if j not in tau0]
    for j in list(kept):
        others = sorted(set(kept) - {j} | set(tau0))
        if lattice_member_transform(reduced.take_columns(others), reduced.column(j)) is not None:
            kept.remove(j)
    gamma = tuple(sorted(j + 1 for j in set(kept) | set(tau0)))
    bound = m + omega_truncated(delta, m)
    if len(gamma) > bound:
        raise AssertionError("non-redundant set exceeded the sparsity bound")
    if not lattice_equal(A, A.take_columns([i - 1 for i in gamma])):
        raise AssertionError("kept columns changed the lattice")
    return SparsifyCertificate(tau=tau, gamma=gamma, bound=bound, delta=delta)


def solve_knapsack_mixed_by_lifts(a, b: int) -> Optional[SolutionReport]:
    """solve_knapsack_mixed as the minimum over i of the general lift
    `solve_semigroup_posspan` on the basis {i}: the sparsest report, then the
    smallest bound, then the smallest i; the bound is the least over all
    lifts and exact iff every lift's is."""
    A = IntMatrix.row_vector(a)
    if b % math.gcd(*a):
        return None
    reports = [solve_semigroup_posspan(A, (b,), (i,)) for i in range(1, len(a) + 1)]
    best = min(reports, key=lambda r: (r.support_size, r.bound))
    return SolutionReport(
        x=best.x,
        support_size=best.support_size,
        bound=min(r.bound for r in reports),
        bound_name=BOUND_MIXED_KNAPSACK,
        bound_exact=all(r.bound_exact for r in reports),
    )


def pointed_cone_bound_enumerated(A: IntMatrix, designated: int, g: int):
    """m + floor(log2(sqrt(q^2 / g^2))), where q^2 sums the squared m x m
    minors containing the 1-based column `designated`, enumerated one
    subset at a time; None when q^2 = 0."""
    m, n = A.rows, A.cols
    rows = A.to_rows()
    q_squared = 0
    rest = [j for j in range(n) if j != designated - 1]
    for combo in itertools.combinations(rest, m - 1):
        subset = sorted((designated - 1,) + combo)
        q_squared += perm_det([[row[j] for j in subset] for row in rows]) ** 2
    if q_squared == 0:
        return None
    return m + math.isqrt(q_squared // (g * g)).bit_length() - 1


def basic_feasible_point_fraction(
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
