import itertools
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsedioph import (
    IntMatrix,
    first_nonsingular_basis,
    lattice_member,
    solve_sparse_lattice,
    sparsify,
)
from oracles import (
    identity,
    lattice_member_transform,
    minors_gcd,
    perm_det,
    random_full_row_rank,
    random_nonsingular_tau,
    sparsify_membership_greedy,
)


@st.composite
def instances(draw):
    """Desk-scale A with a nonsingular 1-based basis tau, and b drawn
    either inside the lattice of A or anywhere."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    bases = [c for c in itertools.combinations(range(n), m)
             if perm_det([[row[j] for j in c] for row in rows])]
    assume(bases)
    tau = tuple(j + 1 for j in draw(st.sampled_from(bases)))
    A = IntMatrix.from_rows(rows)
    if draw(st.booleans()):
        b = A.mat_vec(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    else:
        b = tuple(draw(st.lists(st.integers(-30, 30), min_size=m, max_size=m)))
    return A, tau, b


@settings(max_examples=200, deadline=None)
@given(instances())
def test_matches_the_reference_membership_and_sparsify(instance):
    A, tau, b = instance
    report = solve_sparse_lattice(A, b, tau)
    assert (report is None) == (lattice_member_transform(A, b) is None)
    if report is None:
        return
    assert all(isinstance(v, int) for v in report.x)
    assert A.mat_vec(report.x) == b
    gamma = sparsify_membership_greedy(A, tau).gamma
    assert {j + 1 for j, v in enumerate(report.x) if v} <= set(gamma)
    assert report.support_size <= report.bound


@settings(max_examples=150, deadline=None)
@given(instances())
def test_default_tau_is_the_first_nonsingular_basis(instance):
    A, _, b = instance
    tau = first_nonsingular_basis(A)
    report = solve_sparse_lattice(A, b)
    assert report == solve_sparse_lattice(A, b, tau)
    assert report is None or report.tau == tau


def test_x_bits_stay_near_delta_and_b():
    # A regression pin, not a theorem: on these seeded instances the
    # canonical x has at most bits(delta) + bits(max |b|) bits, where an
    # unreduced transform solve gave thousands more. Small instances with
    # delta = 1 can exceed it.
    for m, n in ((4, 12), (6, 40), (10, 100)):
        for seed in range(5):
            rng = random.Random(1000 * m + seed)
            A = random_full_row_rank(rng, m, n, -10**6, 10**6)
            b = A.mat_vec([rng.randint(-10, 10) for _ in range(n)])
            tau = first_nonsingular_basis(A)
            report = solve_sparse_lattice(A, b, tau)
            assert A.mat_vec(report.x) == b
            bits = max(abs(v) for v in report.x).bit_length()
            delta = sparsify(A, tau).delta
            assert bits <= delta.bit_length() + max(abs(v) for v in b).bit_length()


def test_single_equation_full_support():
    A = IntMatrix.from_rows([[6, 10, 15]])
    report = solve_sparse_lattice(A, (1,), (1,))
    assert A.mat_vec(report.x) == (1,)
    assert report.support_size <= report.bound == 3
    assert report.bound_name == "lattice"


def test_single_equation_sparse_support():
    A = IntMatrix.from_rows([[4, 6, 9, 15]])
    report = solve_sparse_lattice(A, (1,), (1,))
    assert A.mat_vec(report.x) == (1,)
    assert report.support_size <= report.bound == 2


def test_identity_zero_rhs():
    A = identity(3)
    report = solve_sparse_lattice(A, (0, 0, 0), (1, 2, 3))
    assert report.x == (0, 0, 0)
    assert report.support_size == 0


def test_infeasible_returns_none():
    A = IntMatrix.from_rows([[4, 6]])
    assert solve_sparse_lattice(A, (3,), (1,)) is None


def test_random_instances_respect_bounds():
    rng = random.Random(77)
    solved = 0
    for _ in range(120):
        m = rng.randint(1, 3)
        n = rng.randint(m, 8)
        A = random_full_row_rank(rng, m, n, -15, 15)
        tau = random_nonsingular_tau(rng, A)
        b = tuple(rng.randint(-30, 30) for _ in range(m))
        report = solve_sparse_lattice(A, b, tau)
        member = lattice_member(A, b)
        if report is None:
            assert member is None
            continue
        solved += 1
        assert member is not None
        assert A.mat_vec(report.x) == b
        assert report.support_size <= report.bound
        # The truncated-omega bound is never worse than the log2 bound.
        from sparsedioph import det_exact

        delta = abs(det_exact(A.take_columns([i - 1 for i in tau])))
        delta //= minors_gcd(A)
        log_bound = m + (delta.bit_length() - 1)
        assert report.support_size <= log_bound
    assert solved > 20
