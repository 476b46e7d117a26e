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
    HypothesisViolated,
    InfeasibleInput,
    InvalidDelta,
    NoSignMix,
    NonPositive,
    NotPositivelySpanning,
    ParseError,
    RankDeficient,
    SingularBasis,
    SingularMatrix,
    TooLargeForExhaustive,
)
from .intlinalg import (
    HnfResult,
    IntMatrix,
    IntVector,
    SnfResult,
    as_vector,
    det_exact,
    gcd_maximal_minors,
    hnf_basis,
    hnf_columns,
    lattice_equal,
    lattice_member,
    snf,
)
from .numtheory import (
    Factorization,
    big_omega,
    factorize,
    is_probable_prime,
    kappa_from_cyclic_orders,
    omega,
    omega_truncated,
    omega_truncated_upper,
)
from .oracle import icr_scan, min_support_exact
from .semigroup import (
    BoundsReport,
    kernel_vector_pigeonhole,
    positively_spans,
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
    verify_tightness,
    worst_case_instance,
)

__all__ = [
    "BoundsReport",
    "CapExceeded",
    "DimensionMismatch",
    "Error",
    "Factorization",
    "FactorizationTimeout",
    "HnfResult",
    "HypothesisViolated",
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
    "SingularMatrix",
    "SnfResult",
    "SolutionReport",
    "SparsifyCertificate",
    "TooLargeForExhaustive",
    "as_vector",
    "big_omega",
    "det_exact",
    "factorize",
    "first_nonsingular_basis",
    "gcd_maximal_minors",
    "hnf_basis",
    "hnf_columns",
    "icr_scan",
    "is_probable_prime",
    "kappa_from_cyclic_orders",
    "kernel_vector_pigeonhole",
    "lattice_equal",
    "lattice_member",
    "min_support_exact",
    "omega",
    "omega_truncated",
    "omega_truncated_upper",
    "positively_spans",
    "reduce_knapsack_support",
    "snf",
    "solve_knapsack_mixed",
    "solve_knapsack_positive",
    "solve_semigroup_posspan",
    "solve_sparse_lattice",
    "sparsify",
    "sparsity_bounds",
    "verify_tightness",
    "worst_case_instance",
]
