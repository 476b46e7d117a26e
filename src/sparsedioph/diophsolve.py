"""Sparse integer solutions of A x = b.

The solver restricts the system to the sparsified column set gamma and
solves there, so any solution it returns automatically satisfies the
support bound m + omega_truncated(|det(A_tau)| / gcd(A), m).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .intlinalg import IntMatrix, IntVector, as_vector, lattice_member
from .sparsify import SparsifyCertificate, sparsify

BOUND_LATTICE = "lattice"
BOUND_POSITIVE_SPAN = "positive-span"
BOUND_MIXED_KNAPSACK = "mixed-knapsack"
BOUND_POSITIVE_KNAPSACK = "positive-knapsack"


@dataclass(frozen=True)
class SolutionReport:
    """A solution vector together with the sparsity bound it satisfies.

    `bound_exact` is False when `bound` is a certified upper bound on the
    named bound rather than its exact value.
    """

    x: IntVector
    support_size: int
    bound: int
    bound_name: str
    bound_exact: bool = True


def support_size(x: Sequence[int]) -> int:
    return sum(1 for v in x if v != 0)


def solve_on_columns(A: IntMatrix, b: Sequence[int], columns: Sequence[int]) -> Optional[IntVector]:
    """Solve A x = b with support restricted to the given 1-based columns."""
    sub = A.take_columns([j - 1 for j in columns])
    partial = lattice_member(sub, b)
    if partial is None:
        return None
    x = [0] * A.cols
    for value, j in zip(partial, columns):
        x[j - 1] = value
    return tuple(x)


def solve_sparse_lattice(
    A: IntMatrix, b: Sequence[int], tau
) -> Optional[SolutionReport]:
    """Sparse integer solution of A x = b, or None when b is outside the
    lattice spanned by A's columns.

    The support of the returned solution is contained in the sparsified
    set gamma for the basis tau, hence bounded by
    m + omega_truncated(delta, m).
    """
    return _lattice_report(A, b, sparsify(A, tau))


def _lattice_report(
    A: IntMatrix, b: Sequence[int], cert: SparsifyCertificate
) -> Optional[SolutionReport]:
    # solve_sparse_lattice after its sparsify step.
    x = solve_on_columns(A, as_vector(b), cert.gamma)
    if x is None:
        return None
    return SolutionReport(
        x=x,
        support_size=support_size(x),
        bound=cert.bound,
        bound_name=BOUND_LATTICE,
        bound_exact=cert.bound_exact,
    )
