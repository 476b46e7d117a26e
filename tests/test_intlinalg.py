import math
import random

import pytest

from sparsedioph import (
    DimensionMismatch,
    IntMatrix,
    RankDeficient,
    SingularMatrix,
    det_exact,
    gcd_maximal_minors,
    hnf_basis,
    hnf_columns,
    lattice_equal,
    lattice_member,
    snf,
)
from oracles import minors_gcd, perm_det, random_full_row_rank, random_matrix


class TestIntMatrix:
    def test_transpose(self):
        A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert A.transpose() == IntMatrix.from_rows([[1, 4], [2, 5], [3, 6]])

    def test_transpose_keeps_empty_dimensions(self):
        assert IntMatrix(2, 0, ()).transpose() == IntMatrix(0, 2, ())
        assert IntMatrix(0, 3, ()).transpose() == IntMatrix(3, 0, ())

    def test_gram_of_empty_matrix_is_zero(self):
        B = IntMatrix(3, 0, ())
        assert B.matmul(B.transpose()) == IntMatrix(3, 3, (0,) * 9)


class TestDet:
    def test_1x1(self):
        assert det_exact(IntMatrix.from_rows([[6]])) == 6

    def test_identity(self):
        assert det_exact(IntMatrix.identity(3)) == 1

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


def assert_hnf_shape(A: IntMatrix, result):
    H, U, rank = result.H, result.U, result.rank
    assert A.matmul(U).entries == H.entries
    assert abs(det_exact(U)) == 1
    pivot_rows = []
    for j in range(rank):
        col = H.column(j)
        p = next(i for i, v in enumerate(col) if v != 0)
        assert col[p] > 0
        pivot_rows.append(p)
        for k in range(j):
            assert 0 <= H.at(p, k) < col[p]
    assert pivot_rows == sorted(pivot_rows)
    assert all(p2 > p1 for p1, p2 in zip(pivot_rows, pivot_rows[1:]))
    for j in range(rank, A.cols):
        assert all(v == 0 for v in H.column(j))


class TestHnf:
    def test_identity(self):
        result = hnf_columns(IntMatrix.identity(2))
        assert result.H.entries == IntMatrix.identity(2).entries
        assert result.U.entries == IntMatrix.identity(2).entries
        assert result.rank == 2

    def test_single_row_gcd(self):
        result = hnf_columns(IntMatrix.from_rows([[6, 10, 15]]))
        assert result.H.to_rows() == [[1, 0, 0]]
        assert result.rank == 1

    def test_two_rows(self):
        A = IntMatrix.from_rows([[2, 0, 4], [0, 2, 2]])
        result = hnf_columns(A)
        assert result.rank == 2
        block = result.H.take_columns([0, 1])
        assert abs(det_exact(block)) == 4

    def test_zero_matrix(self):
        result = hnf_columns(IntMatrix(2, 3, (0,) * 6))
        assert result.rank == 0
        assert all(v == 0 for v in result.H.entries)

    def test_invariants_random(self):
        rng = random.Random(202)
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(1, 7)
            A = random_matrix(rng, m, n, -9, 9)
            assert_hnf_shape(A, hnf_columns(A))

    def test_basis_is_the_nonzero_part_of_the_transform_version(self):
        rng = random.Random(204)
        for _ in range(120):
            m = rng.randint(1, 4)
            n = rng.randint(0, 7)
            A = random_matrix(rng, m, n, -9, 9)
            result = hnf_columns(A)
            basis = hnf_basis(A.to_columns(), m)
            assert basis == [result.H.column(j) for j in range(result.rank)]


class TestGcdMaximalMinors:
    def test_examples(self):
        assert gcd_maximal_minors(IntMatrix.from_rows([[2, 0, 4], [0, 2, 2]])) == 4
        assert gcd_maximal_minors(IntMatrix.from_rows([[6, 10, 15]])) == 1
        assert gcd_maximal_minors(IntMatrix.identity(3)) == 1

    def test_rank_deficient_is_an_error(self):
        with pytest.raises(RankDeficient):
            gcd_maximal_minors(IntMatrix.from_rows([[1, 2], [2, 4]]))

    def test_matches_enumerated_minors(self):
        rng = random.Random(303)
        for _ in range(150):
            m = rng.randint(1, 3)
            n = rng.randint(m, 7)
            A = random_full_row_rank(rng, m, n, -9, 9)
            assert gcd_maximal_minors(A) == minors_gcd(A)


class TestSnf:
    def test_coprime_diagonal(self):
        result = snf(IntMatrix.diagonal([2, 3]))
        assert result.D.entries == IntMatrix.diagonal([1, 6]).entries

    def test_identity(self):
        result = snf(IntMatrix.identity(3))
        assert result.D.entries == IntMatrix.identity(3).entries

    def test_divisibility_normalization(self):
        result = snf(IntMatrix.diagonal([6, 2]))
        assert result.D.entries == IntMatrix.diagonal([2, 6]).entries

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            snf(IntMatrix.from_rows([[1, 2], [2, 4]]))

    def test_invariants_random(self):
        rng = random.Random(404)
        checked = 0
        while checked < 100:
            n = rng.randint(1, 4)
            M = random_matrix(rng, n, n, -9, 9)
            d = det_exact(M)
            if d == 0:
                continue
            checked += 1
            result = snf(M)
            assert result.U.matmul(M).matmul(result.V).entries == result.D.entries
            assert abs(det_exact(result.U)) == 1
            assert abs(det_exact(result.V)) == 1
            diag = [result.D.at(i, i) for i in range(n)]
            assert all(v > 0 for v in diag)
            assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
            assert math.prod(diag) == abs(d)
            off = [
                result.D.at(i, j)
                for i in range(n)
                for j in range(n)
                if i != j
            ]
            assert all(v == 0 for v in off)

    def test_matches_determinantal_divisors(self):
        # d_1 * ... * d_k equals the gcd of all k x k minors.
        rng = random.Random(505)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 3)
            M = random_matrix(rng, n, n, -9, 9)
            if det_exact(M) == 0:
                continue
            checked += 1
            diag = [snf(M).D.at(i, i) for i in range(n)]
            rows = M.to_rows()
            import itertools

            for k in range(1, n + 1):
                g = 0
                for rsel in itertools.combinations(range(n), k):
                    for csel in itertools.combinations(range(n), k):
                        sub = [[rows[i][j] for j in csel] for i in rsel]
                        g = math.gcd(g, perm_det(sub))
                assert math.prod(diag[:k]) == g


class TestLatticeMember:
    def test_single_equation(self):
        A = IntMatrix.from_rows([[6, 10, 15]])
        x = lattice_member(A, (1,))
        assert x is not None
        assert A.mat_vec(x) == (1,)

    def test_parity_obstruction(self):
        assert lattice_member(IntMatrix.from_rows([[4, 6]]), (3,)) is None

    def test_identity(self):
        A = IntMatrix.identity(3)
        assert lattice_member(A, (5, -2, 7)) == (5, -2, 7)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            lattice_member(IntMatrix.identity(2), (1, 2, 3))

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
            lattice_equal(IntMatrix.identity(2), IntMatrix.identity(3))

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
