import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsedioph import (
    DimensionMismatch,
    IntMatrix,
    RankDeficient,
    det_exact,
    hnf_basis,
    lattice_member,
    sparsity_bounds,
)
from sparsedioph import intlinalg
from oracles import (
    hnf_transform,
    identity,
    lattice_equal,
    lattice_member_transform,
    minors_gcd,
    perm_det,
    random_full_row_rank,
    random_matrix,
)


class TestIntMatrix:
    def test_entries_are_normalized_to_int(self):
        for A in (
            IntMatrix.from_rows([[True, 2], [3, False]]),
            IntMatrix.from_columns([[True, 3], [2, False]]),
            IntMatrix(2, 2, (True, 2, 3, False)),
        ):
            assert A.entries == (1, 2, 3, 0)
            assert all(type(v) is int for v in A.entries)


class TestDet:
    def test_1x1(self):
        assert det_exact(IntMatrix.from_rows([[6]])) == 6

    def test_identity(self):
        assert det_exact(identity(3)) == 1

    def test_upper_triangular(self):
        assert det_exact(IntMatrix.from_rows([[6, 10], [0, 2]])) == 12

    def test_requires_square(self):
        with pytest.raises(DimensionMismatch):
            det_exact(IntMatrix.from_rows([[1, 2, 3]]))

    def test_matches_permutation_expansion(self):
        rng = random.Random(101)
        for _ in range(150):
            n = rng.randint(1, 4)
            M = random_matrix(rng, n, n, -9, 9)
            assert det_exact(M) == perm_det(M.to_rows())

    def test_singular_with_zero_pivot_column(self):
        M = IntMatrix.from_rows([[0, 0], [0, 5]])
        assert det_exact(M) == 0


def assert_hnf_shape(basis):
    pivot_rows = []
    for j, col in enumerate(basis):
        p = next(i for i, v in enumerate(col) if v != 0)
        assert col[p] > 0
        pivot_rows.append(p)
        for k in range(j):
            assert 0 <= basis[k][p] < col[p]
    assert all(p2 > p1 for p1, p2 in zip(pivot_rows, pivot_rows[1:]))


class TestHnf:
    def test_identity(self):
        assert hnf_basis(identity(2).to_columns(), 2) == [(1, 0), (0, 1)]

    def test_single_row_gcd(self):
        assert hnf_basis([[6], [10], [15]], 1) == [(1,)]

    def test_two_rows(self):
        A = IntMatrix.from_rows([[2, 0, 4], [0, 2, 2]])
        basis = hnf_basis(A.to_columns(), 2)
        assert len(basis) == 2
        assert abs(det_exact(IntMatrix.from_columns(basis))) == 4

    def test_zero_matrix(self):
        assert hnf_basis(IntMatrix(2, 3, (0,) * 6).to_columns(), 2) == []

    def test_invariants_random(self):
        rng = random.Random(202)
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(1, 7)
            A = random_matrix(rng, m, n, -9, 9)
            basis = hnf_basis(A.to_columns(), m)
            assert_hnf_shape(basis)
            B = IntMatrix.from_columns(basis) if basis else IntMatrix(m, 0, ())
            assert all(lattice_member(A, col) is not None for col in basis)
            assert all(lattice_member(B, A.column(j)) is not None for j in range(n))

    def test_basis_is_the_nonzero_part_of_the_transform_version(self):
        # The reference elimination: identity rows ride along below A and
        # record the unimodular U with A U = H.
        rng = random.Random(204)
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(0, 7)
            A = random_matrix(rng, m, n, -9, 9)
            cols = [list(A.column(j)) + [int(i == j) for i in range(n)] for j in range(n)]
            rank = len(hnf_transform(cols, m))
            basis = hnf_basis(A.to_columns(), m)
            assert basis == [tuple(c[:m]) for c in cols[:rank]]
            assert all(not any(c[:m]) for c in cols[rank:])
            if n:
                U = IntMatrix.from_columns([c[m:] for c in cols])
                assert [list(A.mat_vec(c[m:])) for c in cols] == [c[:m] for c in cols]
                assert abs(det_exact(U)) == 1


@st.composite
def column_lists(draw):
    """Columns of length m = 1..6 with entries up to 2^40, among them zero
    columns, repeats and integer combinations of earlier columns."""
    m = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40))
    cols = []
    for kind in draw(st.lists(st.sampled_from(("new", "new", "zero", "repeat", "combine")),
                              max_size=9)):
        if kind == "new" or not cols:
            cols.append(draw(st.lists(entry, min_size=m, max_size=m)))
        elif kind == "zero":
            cols.append([0] * m)
        elif kind == "repeat":
            cols.append(list(draw(st.sampled_from(cols))))
        else:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
            cols.append([s * x + t * y for x, y in zip(a, b)])
    return m, cols


class TestHnfInsert:
    @settings(max_examples=300, deadline=None)
    @given(column_lists())
    def test_fold_of_inserts_is_the_hnf_from_scratch(self, case):
        m, cols = case
        scratch = [list(c) for c in cols]
        rank = len(hnf_transform(scratch, m))
        expected = [tuple(c) for c in scratch[:rank]]
        basis = []
        for col in cols:
            previous, snapshot = basis, list(basis)
            basis = intlinalg._hnf_insert(previous, col)
            assert previous == snapshot
            assert_hnf_shape(basis)
        assert basis == expected
        assert hnf_basis(cols, m) == expected

    def test_rank_deficient_basis_takes_a_new_pivot_between_old_ones(self):
        basis = hnf_basis([[2, 5, 7], [0, 0, 3]], 3)
        assert basis == [(2, 5, 1), (0, 0, 3)]
        assert intlinalg._hnf_insert(basis, [0, 4, 1]) == [(2, 1, 0), (0, 4, 1), (0, 0, 3)]
        assert intlinalg._hnf_insert(basis, [4, 10, 2]) == basis

    def test_the_basis_of_z_m_comes_back_as_is(self):
        unit = hnf_basis([[2, 3], [1, 1]], 2)
        assert unit == [(1, 0), (0, 1)]
        assert intlinalg._hnf_insert(unit, [7, -5]) is unit
        # 2Z x Z: full rank, but not Z^2.
        basis = hnf_basis([[2, 0], [0, 1]], 2)
        grown = intlinalg._hnf_insert(basis, [1, 0])
        assert grown == unit and grown is not basis


class TestInLattice:
    @settings(max_examples=300, deadline=None)
    @given(column_lists(), st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_agrees_with_an_insert_that_leaves_the_basis(self, case, coeffs):
        # v is an integer combination of the columns or an arbitrary
        # vector; it lies in the lattice iff inserting it changes nothing.
        m, cols = case
        assume(cols)
        basis = hnf_basis(cols[:-1], m)
        for v in (cols[-1], [sum(c * col[i] for c, col in zip(coeffs, cols)) for i in range(m)]):
            in_lattice = not any(intlinalg._reduce(basis, v))
            assert in_lattice == (intlinalg._hnf_insert(basis, v) == basis)

    @settings(max_examples=300, deadline=None)
    @given(column_lists(), st.lists(st.integers(-(2**20), 2**20), min_size=6, max_size=6),
           st.lists(st.integers(-5, 5), min_size=9, max_size=9))
    def test_residual_is_canonical_modulo_the_lattice(self, case, v, coeffs):
        # Shifting v by a lattice vector leaves the residual unchanged, and
        # in each pivot row the residual lies in [0, pivot).
        m, cols = case
        basis = hnf_basis(cols, m)
        v = v[:m]
        shifted = [x + sum(c * col[i] for c, col in zip(coeffs, cols)) for i, x in enumerate(v)]
        residual = intlinalg._reduce(basis, v)
        assert residual == intlinalg._reduce(basis, shifted)
        assert intlinalg._hnf_insert(basis, [x - r for x, r in zip(v, residual)]) == basis
        for col in basis:
            p = next(i for i, x in enumerate(col) if x)
            assert 0 <= residual[p] < col[p]

    def test_examples(self):
        basis = hnf_basis([[2, 5, 7], [0, 0, 3]], 3)
        assert intlinalg._reduce(basis, [4, 10, 17]) == [0, 0, 0]
        assert intlinalg._reduce(basis, [4, 10, 16]) == [0, 0, 2]
        assert intlinalg._reduce(basis, [0, 4, 1]) == [0, 4, 1]
        assert intlinalg._reduce(basis, [-1, 0, -2]) == [1, 5, 2]
        assert intlinalg._reduce([], [0, 0]) == [0, 0]
        assert intlinalg._reduce([], [0, 1]) == [0, 1]


class TestGcdMaximalMinors:
    # The minor gcd is the determinant of the canonical basis of A's
    # lattice, which `sparsity_bounds` reports.
    def test_examples(self):
        assert sparsity_bounds(IntMatrix.from_rows([[2, 0, 4], [0, 2, 2]])).gcd_A == 4
        assert sparsity_bounds(IntMatrix.from_rows([[6, 10, 15]])).gcd_A == 1
        assert sparsity_bounds(identity(3)).gcd_A == 1

    def test_rank_deficient_is_an_error(self):
        with pytest.raises(RankDeficient):
            sparsity_bounds(IntMatrix.from_rows([[1, 2], [2, 4]]))

    def test_matches_enumerated_minors(self):
        rng = random.Random(303)
        for _ in range(150):
            m = rng.randint(1, 3)
            n = rng.randint(m, 7)
            A = random_full_row_rank(rng, m, n, -9, 9)
            assert sparsity_bounds(A).gcd_A == minors_gcd(A)


class TestLatticeMember:
    def test_single_equation(self):
        A = IntMatrix.from_rows([[6, 10, 15]])
        x = lattice_member(A, (1,))
        assert x is not None
        assert A.mat_vec(x) == (1,)

    def test_parity_obstruction(self):
        assert lattice_member(IntMatrix.from_rows([[4, 6]]), (3,)) is None

    def test_identity(self):
        A = identity(3)
        assert lattice_member(A, (5, -2, 7)) == (5, -2, 7)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lattice_member(identity(2), (1, 2, 3))

    def test_membership_of_constructed_points(self):
        rng = random.Random(606)
        for _ in range(100):
            m = rng.randint(1, 3)
            n = rng.randint(1, 6)
            A = random_matrix(rng, m, n, -9, 9)
            x = [rng.randint(-4, 4) for _ in range(n)]
            b = A.mat_vec(x)
            y = lattice_member(A, b)
            assert y is not None
            assert A.mat_vec(y) == b

    def test_none_means_no_small_solution_exists(self):
        # Cross-check absence against exhaustive search in a small box.
        rng = random.Random(707)
        for _ in range(40):
            m = rng.randint(1, 2)
            n = rng.randint(1, 3)
            A = random_matrix(rng, m, n, -3, 3)
            b = tuple(rng.randint(-4, 4) for _ in range(m))
            if lattice_member(A, b) is not None:
                continue
            import itertools

            for x in itertools.product(range(-6, 7), repeat=n):
                assert A.mat_vec(x) != b


@st.composite
def systems(draw):
    """A x = b with m = 1..4, n = 0..7, entries up to 2^30 among small
    ones, and b either A y for a small y or arbitrary."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(0, 7))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**30), 2**30))
    A = IntMatrix(m, n, draw(st.lists(entry, min_size=m * n, max_size=m * n)))
    if draw(st.booleans()):
        b = A.mat_vec(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    else:
        b = tuple(draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m)))
    return A, b


class TestLatticeMemberAgainstTransform:
    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_none_iff_the_reference_finds_none(self, system):
        A, b = system
        x = lattice_member(A, b)
        assert (x is None) == (lattice_member_transform(A, b) is None)
        if x is not None:
            assert A.mat_vec(x) == b

    @settings(max_examples=300, deadline=None)
    @given(systems())
    def test_x_is_canonical_modulo_the_kernel(self, system):
        # The reference's last n - rank transform columns span ker A; in
        # each pivot row of that kernel's canonical basis, x lies in
        # [0, pivot), which fixes x within x + ker A.
        A, b = system
        x = lattice_member(A, b)
        assume(x is not None)
        m, n = A.rows, A.cols
        cols = [list(A.column(j)) + [int(i == j) for i in range(n)] for j in range(n)]
        rank = len(hnf_transform(cols, m))
        for col in hnf_basis([c[m:] for c in cols[rank:]], n):
            p = next(i for i, v in enumerate(col) if v)
            assert 0 <= x[p] < col[p]


class TestLatticeEqual:
    def test_redundant_column(self):
        A = IntMatrix.from_rows([[6, 10, 15]])
        B = IntMatrix.from_rows([[6, 10, 15, 30]])
        assert lattice_equal(A, B)

    def test_proper_sublattice(self):
        assert not lattice_equal(
            IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[4]])
        )

    def test_reflexive(self):
        A = IntMatrix.from_rows([[3, 1], [0, 2]])
        assert lattice_equal(A, A)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lattice_equal(identity(2), identity(3))

    def test_agrees_with_mutual_membership(self):
        rng = random.Random(808)
        for _ in range(80):
            m = rng.randint(1, 3)
            A = random_matrix(rng, m, rng.randint(1, 5), -6, 6)
            B = random_matrix(rng, m, rng.randint(1, 5), -6, 6)
            mutual = all(
                lattice_member(B, A.column(j)) is not None for j in range(A.cols)
            ) and all(
                lattice_member(A, B.column(j)) is not None for j in range(B.cols)
            )
            assert lattice_equal(A, B) == mutual
