"""Sparse integer solutions of A x = b.

The solver restricts the system to the sparsified column set gamma and
solves there, so any solution it returns automatically satisfies the
support bound m + omega_truncated(|det(A_tau)| / gcd(A), m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .intlinalg import IntMatrix, IntVector, _reduce, _rhs_vector, lattice_member
from .sparsify import IndexSet, SparsifyCertificate, _sparsify, _suffix_chain, _tau_basis

BOUND_LATTICE = "lattice"
BOUND_POSITIVE_SPAN = "positive-span"
BOUND_MIXED_KNAPSACK = "mixed-knapsack"
BOUND_POSITIVE_KNAPSACK = "positive-knapsack"


@dataclass(frozen=True)
class SolutionReport:
    """A solution vector together with the sparsity bound it satisfies.

    `bound_exact` is False when `bound` is a certified upper bound on the
    named bound rather than its exact value. `tau` is the column basis
    the bound was taken for; the knapsack solvers, which have none, leave
    it None.
    """

    x: IntVector
    support_size: int
    bound: int
    bound_name: str
    bound_exact: bool = True
    tau: Optional[IndexSet] = None


def support_size(x: Sequence[int]) -> int:
    return sum(1 for v in x if v != 0)


def solve_sparse_lattice(
    A: IntMatrix, b: Sequence[int], tau=None
) -> Optional[SolutionReport]:
    """Sparse integer solution of A x = b, or None when b is outside the
    lattice spanned by A's columns.

    The support of the returned solution is contained in the sparsified
    set gamma for the basis tau, hence bounded by
    m + omega_truncated(delta, m). gamma's columns span the lattice of A,
    so b is outside it iff it leaves a nonzero residual on A's canonical
    basis, the first step of sparsify's backward pass; that verdict is
    reached before the forward pass, the bound and the solve on gamma.
    `tau` defaults to `first_nonsingular_basis(A)`, and the report names
    the tau it used. Errors on tau come first, as in `sparsify`, then
    DimensionMismatch when b does not have m entries.
    """
    tau, basis = _tau_basis(A, tau)
    found = _gamma_solution(A, b, tau, basis)
    if found is None:
        return None
    cert, x = found
    return SolutionReport(
        x=x,
        support_size=support_size(x),
        bound=cert.bound,
        bound_name=BOUND_LATTICE,
        bound_exact=cert.bound_exact,
        tau=tau,
    )


def _gamma_solution(
    A: IntMatrix, b: Sequence[int], tau: IndexSet, basis: list[IntVector]
) -> Optional[tuple[SparsifyCertificate, IntVector]]:
    """sparsify's certificate for tau and a solution of A x = b supported
    on its gamma, or None when b is outside the lattice of A.

    `basis` is the canonical basis of tau's (validated) columns. The rhs
    length is checked first, with lattice_member's error; then b is
    reduced on the canonical basis of A that ends sparsify's backward
    pass, and only a b in that lattice goes on to gamma.
    """
    b = _rhs_vector(b, A.rows)
    chain = _suffix_chain(A, tau, basis)
    if any(_reduce(chain[0], b)):
        return None
    cert = _sparsify(A, tau, chain)
    partial = lattice_member(A.take_columns([j - 1 for j in cert.gamma]), b)
    if partial is None:
        raise AssertionError("b left the lattice on gamma")
    x = [0] * A.cols
    for value, j in zip(partial, cert.gamma):
        x[j - 1] = value
    return cert, tuple(x)
