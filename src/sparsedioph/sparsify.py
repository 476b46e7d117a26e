"""Lattice sparsification: keep a small column subset spanning the same lattice.

Given a full-row-rank A and a nonsingular column basis tau, `sparsify`
returns gamma with tau as a subset such that the columns indexed by gamma
span the same lattice as all of A, with

    |gamma| <= m + omega_truncated(|det(A_tau)| / gcd(A), m),

i.e. m plus the number of prime factors of the basis determinant (divided
by the minor gcd), multiplicities capped at m. The reported bound is the
certified upper bound of `omega_truncated_upper`, taken over the m
diagonal quotients of tau's and A's canonical bases, whose product is
delta; it equals the right-hand side unless a factor of one quotient
resists a short search, and the certificate says which. The companion
`worst_case_instance` builds matrices on which that inequality is tight.

Column indices in the public API are 1-based throughout.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import CapExceeded, DimensionMismatch, InvalidDelta, RankDeficient, SingularBasis
from .intlinalg import IntMatrix, IntVector, _hnf_insert, hnf_basis
from .numtheory import _omega_upper, factorize

IndexSet = tuple[int, ...]

# `worst_case_instance` builds no matrix with more entries than this.
WORST_CASE_ENTRY_CAP = 10**6


def check_index_set(indices, n: int) -> IndexSet:
    """Validate a strictly increasing 1-based index set within [1, n]."""
    idx = tuple(int(i) for i in indices)
    if any(not 1 <= i <= n for i in idx):
        raise DimensionMismatch(f"indices {idx} out of range [1, {n}]")
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise DimensionMismatch(f"indices {idx} must be strictly increasing")
    return idx


@dataclass(frozen=True)
class SparsifyCertificate:
    """Verifiable result of a sparsification run.

    `delta` is |det(A_tau)| / gcd(A); `bound` is an upper bound on
    m + omega_truncated(delta, m), equal to it iff `bound_exact`. The
    columns of `gamma` span the same lattice as all of A: `sparsify`
    raises otherwise.
    """

    tau: IndexSet
    gamma: IndexSet
    bound: int
    delta: int
    bound_exact: bool = True


def _basis_indices(A: IntMatrix, tau) -> IndexSet:
    """tau validated as a strictly increasing set of m indices in 1..n;
    raises DimensionMismatch otherwise."""
    tau = check_index_set(tau, A.cols)
    if len(tau) != A.rows:
        raise DimensionMismatch(f"basis needs {A.rows} indices, got {len(tau)}")
    return tau


def _tau_basis(A: IntMatrix, tau=None) -> tuple[IndexSet, list[IntVector]]:
    """Validated basis tau and the canonical basis of its columns. A tau
    of None means `first_nonsingular_basis`, whose scan builds that basis
    on the way.

    Raises RankDeficient when the default tau does not exist,
    DimensionMismatch as `_basis_indices` does, and SingularBasis when the
    columns of a given tau are dependent.
    """
    if tau is not None:
        tau = _basis_indices(A, tau)
        basis = hnf_basis((A.column(i - 1) for i in tau), A.rows)
        if len(basis) < A.rows:
            raise SingularBasis(f"columns {tau} are linearly dependent")
        return tau, basis
    kept: list[int] = []
    basis = []
    for j in range(A.cols):
        if len(basis) == A.rows:
            break
        grown = _hnf_insert(basis, A.column(j))
        if len(grown) > len(basis):
            kept.append(j + 1)
            basis = grown
    if len(basis) < A.rows:
        raise RankDeficient("no nonsingular column basis exists")
    return tuple(kept), basis


def first_nonsingular_basis(A: IntMatrix) -> IndexSet:
    """Lexicographically first m-subset of columns with nonzero determinant.

    Linearly independent column sets form a matroid, whose
    lexicographically first basis is the greedy one: scan the columns in
    index order and keep each column that raises the rank of the columns
    kept before it. Raises RankDeficient when A has no such subset.
    """
    return _tau_basis(A)[0]


def sparsify(A: IntMatrix, tau=None) -> SparsifyCertificate:
    """Find gamma containing tau with the columns of A_gamma spanning the
    same lattice as A, within the truncated-omega cardinality bound.

    Every column outside tau is considered once, in increasing index
    order, and dropped iff the columns kept before it, tau and all later
    columns still span the lattice of A; the surviving set is therefore
    non-redundant. Those columns lie in the lattice of A, so the test is
    whether their canonical HNF basis equals that of A. A backward pass
    grows the canonical basis of tau's columns by each suffix of the other
    columns and stores every step; its last step is the basis of A, which
    gives gcd(A). A forward pass merges each stored basis with the columns
    kept so far. Every stored basis spans a lattice containing that of
    A_tau, so its entries stay below |det(A_tau)|.

    |det(A_tau)| is the product of the diagonal of tau's canonical basis,
    which is lower triangular with positive pivots, and gcd(A) that of
    A's; no determinant is computed separately. delta is the product of
    the m diagonal quotients, and the bound is taken over them, one
    cofactor search per quotient.

    `tau` defaults to `first_nonsingular_basis(A)`, whose scan also
    builds tau's basis; the certificate names the tau it used. Raises
    RankDeficient when that default does not exist, DimensionMismatch
    unless a given tau is a strictly increasing set of m indices in 1..n,
    and SingularBasis when its columns are dependent.
    """
    tau, basis = _tau_basis(A, tau)
    return _sparsify(A, tau, _suffix_chain(A, tau, basis))


def _suffix_chain(A: IntMatrix, tau: IndexSet, basis: list[IntVector]) -> list[list[IntVector]]:
    """The backward pass of `sparsify` for a validated tau whose columns
    have the canonical basis `basis`: chain[k] is the canonical basis of
    tau's columns and of the columns outside tau from the k-th on. So
    chain[-1] is `basis` and chain[0] is the canonical basis of A, on
    which b lies in the lattice of A iff its `_reduce` residual is zero.
    """
    chain = [basis]
    for j in reversed(range(A.cols)):
        if j + 1 not in tau:
            chain.append(_hnf_insert(chain[-1], A.column(j)))
    chain.reverse()
    return chain


def _sparsify(A: IntMatrix, tau: IndexSet, chain: list[list[IntVector]]) -> SparsifyCertificate:
    # sparsify for a validated tau, after its backward pass `chain`
    # (`_suffix_chain`).
    m = A.rows
    rest = [j for j in range(A.cols) if j + 1 not in tau]
    full = chain[0]
    parts = _diagonal_quotients(chain[-1], full)
    delta = math.prod(parts)
    kept: list[int] = []
    for k, j in enumerate(rest):
        if functools.reduce(_hnf_insert, (A.column(i) for i in kept), chain[k + 1]) != full:
            kept.append(j)
    gamma = tuple(sorted([j + 1 for j in kept] + list(tau)))
    omega_m, exact = _omega_upper(parts, m)
    bound = m + omega_m
    if len(gamma) > bound:
        raise AssertionError("non-redundant set exceeded the sparsity bound")
    if functools.reduce(_hnf_insert, (A.column(j) for j in kept), chain[-1]) != full:
        raise AssertionError("kept columns changed the lattice")
    return SparsifyCertificate(
        tau=tau, gamma=gamma, bound=bound, delta=delta, bound_exact=exact
    )


def _diagonal_quotients(basis: list[IntVector], full: list[IntVector]) -> list[int]:
    """basis[i][i] / full[i][i] for the full-rank canonical bases of tau's
    columns and of all of A's; their product is delta.

    Both bases are lower triangular and the lattice of `basis` lies in
    that of `full`, so basis = full * U with U integral and lower
    triangular, and each diagonal entry of `basis` is that of `full` times
    one of U's.
    """
    return [col[i] // top[i] for i, (col, top) in enumerate(zip(basis, full))]


def worst_case_instance(m: int, delta: int) -> IntMatrix:
    """Matrix on which the sparsification bound is tight.

    The first m columns form a diagonal matrix B with det(B) = delta,
    built by spreading the prime powers of delta across the diagonal; the
    remaining omega_truncated(delta, m) columns generate the primary
    cyclic summands of Z^m modulo the lattice of B, one column per
    summand. Every gamma containing [m] that spans Z^m must keep all of
    them. Raises CapExceeded, before anything of size m is built, when the
    matrix would have more than WORST_CASE_ENTRY_CAP entries.
    """
    if m < 1:
        raise DimensionMismatch(f"need m >= 1, got {m}")
    if delta < 2:
        raise InvalidDelta(f"need delta >= 2, got {delta}")
    factors = factorize(delta).factors
    n = m + sum(min(mult, m) for _, mult in factors)
    if m * n > WORST_CASE_ENTRY_CAP:
        raise CapExceeded(
            f"a {m} x {n} matrix exceeds the cap of {WORST_CASE_ENTRY_CAP} entries"
        )
    # The prime powers of each diagonal entry, primes increasing.
    powers: list[list[int]] = [[] for _ in range(m)]
    for p, mult in factors:
        exponents = [1] * mult if mult < m else [mult - m + 1] + [1] * (m - 1)
        for i, e in enumerate(exponents):
            powers[i].append(p**e)
    diag = [math.prod(q) for q in powers]
    columns = [[diag[i] if k == i else 0 for k in range(m)] for i in range(m)]
    for i in range(m):
        for q in powers[i]:
            columns.append([diag[i] // q if k == i else 0 for k in range(m)])
    return IntMatrix.from_columns(columns)
