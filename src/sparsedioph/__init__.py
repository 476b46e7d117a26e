"""Exact-arithmetic toolkit for sparse solutions of linear Diophantine
systems and integer-programming feasibility problems.

Everything computes over arbitrary-precision integers, the simplex
included; there is no floating point anywhere, so every reported solution
and bound is exact.
"""

__version__ = "0.1.0"

from .diophsolve import SolutionReport, solve_sparse_lattice
from .errors import (
    CapExceeded,
    DimensionMismatch,
    Error,
    FactorizationTimeout,
    InfeasibleInput,
    InvalidDelta,
    NoSignMix,
    NonPositive,
    NotPositivelySpanning,
    ParseError,
    RankDeficient,
    SingularBasis,
)
from .intlinalg import (
    IntMatrix,
    IntVector,
    as_vector,
    det_exact,
    hnf_basis,
    lattice_member,
)
from .numtheory import (
    Factorization,
    factorize,
    is_probable_prime,
    omega_truncated_upper,
)
from .oracle import icr_scan, min_support_exact
from .semigroup import (
    BoundsReport,
    reduce_knapsack_support,
    solve_knapsack_mixed,
    solve_knapsack_positive,
    solve_semigroup_posspan,
    sparsity_bounds,
)
from .sparsify import (
    IndexSet,
    SparsifyCertificate,
    first_nonsingular_basis,
    sparsify,
    worst_case_instance,
)

__all__ = [
    "BoundsReport",
    "CapExceeded",
    "DimensionMismatch",
    "Error",
    "Factorization",
    "FactorizationTimeout",
    "IndexSet",
    "InfeasibleInput",
    "IntMatrix",
    "IntVector",
    "InvalidDelta",
    "NoSignMix",
    "NonPositive",
    "NotPositivelySpanning",
    "ParseError",
    "RankDeficient",
    "SingularBasis",
    "SolutionReport",
    "SparsifyCertificate",
    "as_vector",
    "det_exact",
    "factorize",
    "first_nonsingular_basis",
    "hnf_basis",
    "icr_scan",
    "is_probable_prime",
    "lattice_member",
    "min_support_exact",
    "omega_truncated_upper",
    "reduce_knapsack_support",
    "solve_knapsack_mixed",
    "solve_knapsack_positive",
    "solve_semigroup_posspan",
    "solve_sparse_lattice",
    "sparsify",
    "sparsity_bounds",
    "worst_case_instance",
]
