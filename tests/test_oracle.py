import math
import random

import pytest

from sparsedioph import (
    CapExceeded,
    DimensionMismatch,
    IntMatrix,
    NonPositive,
    icr_scan,
    min_support_exact,
    solve_sparse_lattice,
)
from sparsedioph import oracle
from oracles import (
    icr_scan_from_scratch,
    identity,
    knapsack_min_support_dfs,
    random_full_row_rank,
    random_nonsingular_tau,
)


class TestMinSupportExact:
    def test_single_multiple(self):
        assert min_support_exact(IntMatrix.from_rows([[6, 10, 15]]), (30,)) == 1

    def test_needs_two(self):
        assert min_support_exact(IntMatrix.from_rows([[2, 3]]), (5,)) == 2

    def test_zero_rhs(self):
        assert min_support_exact(identity(3), (0, 0, 0)) == 0

    def test_infeasible_single_row(self):
        assert min_support_exact(IntMatrix.from_rows([[2, 4]]), (3,)) is None

    def test_k_max_restricts_the_search(self):
        # 5 needs both weights: a search cut at support 1 proves nothing,
        # and says so; an infeasible b stays proven under any cut.
        A = IntMatrix.from_rows([[2, 3]])
        with pytest.raises(CapExceeded, match=r"^no solution with support <= 1$"):
            min_support_exact(A, (5,), k_max=1)
        assert min_support_exact(A, (5,), k_max=2) == 2
        assert min_support_exact(IntMatrix.from_rows([[2, 4]]), (3,), k_max=1) is None

    def test_mixed_sign_single_row(self):
        A = IntMatrix.from_rows([[3, -5]])
        assert min_support_exact(A, (1,)) == 2
        assert min_support_exact(A, (3,)) == 1

    def test_multirow_small(self):
        A = IntMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
        assert min_support_exact(A, (2, 3)) == 1
        assert min_support_exact(A, (1, 1)) == 2
        # (-1, 0) is in the lattice but has no nonnegative solution, which
        # the bounded search cannot prove.
        with pytest.raises(CapExceeded,
                           match=r"^no solution with support <= 3 and entries <= 50$"):
            min_support_exact(A, (-1, 0))
        with pytest.raises(CapExceeded,
                           match=r"^no solution with support <= 2 and entries <= 7$"):
            min_support_exact(A, (-1, 0), k_max=2, coord_cap=7)

    def test_double_oracle_agreement_single_row(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = tuple(rng.randint(1, 20) for _ in range(n))
            if math.gcd(*a) != 1:
                continue
            for b in range(0, 61, 7):
                A = IntMatrix.row_vector(a)
                assert min_support_exact(A, (b,)) == knapsack_min_support_dfs(a, b)

    def test_rhs_length_must_match_the_rows(self):
        with pytest.raises(DimensionMismatch, match="right-hand side length differs"):
            min_support_exact(IntMatrix.from_rows([[1, 2]]), (1, 2))

    def test_caps_must_be_in_range(self):
        one_row, two_rows = IntMatrix.from_rows([[1, 2]]), identity(2)
        with pytest.raises(NonPositive, match="k_max must be nonnegative, got -1"):
            min_support_exact(one_row, (5,), k_max=-1)
        with pytest.raises(NonPositive, match="coord_cap must be positive, got 0"):
            min_support_exact(two_rows, (5, 6), coord_cap=0)
        with pytest.raises(NonPositive, match="coord_cap must be positive, got -1"):
            min_support_exact(two_rows, (0, 0), coord_cap=-1)
        # The smallest caps in range still search.
        with pytest.raises(CapExceeded, match=r"^no solution with support <= 0$"):
            min_support_exact(one_row, (5,), k_max=0)
        assert min_support_exact(two_rows, (1, 1), coord_cap=1) == 2

    def test_point_cap(self, monkeypatch):
        # (1, 1) takes the three single columns, then x = (1, 1, 0): 4 points.
        A = IntMatrix.from_rows([[1, 0, 2], [0, 1, 3]])
        monkeypatch.setattr(oracle, "MIN_SUPPORT_POINT_CAP", 4)
        assert min_support_exact(A, (1, 1)) == 2
        monkeypatch.setattr(oracle, "MIN_SUPPORT_POINT_CAP", 3)
        with pytest.raises(CapExceeded, match="enumerated points exceed cap 3"):
            min_support_exact(A, (1, 1))
        # Single-row instances are a complete search and take no points.
        monkeypatch.setattr(oracle, "MIN_SUPPORT_POINT_CAP", 0)
        assert min_support_exact(IntMatrix.from_rows([[2, 3]]), (5,)) == 2

    def test_b_outside_the_lattice_takes_no_points(self, monkeypatch):
        # Every column sums to 6 and 7 + 9 = 16 is no multiple of 6; a b in
        # the lattice still enumerates.
        A = IntMatrix.from_rows([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        monkeypatch.setattr(oracle, "MIN_SUPPORT_POINT_CAP", 0)
        assert min_support_exact(A, (7, 9)) is None
        with pytest.raises(CapExceeded):
            min_support_exact(A, (7, 11))

    def test_one_row_bitset_cap(self, monkeypatch):
        # The bitset for one support has |b - sum of its weights|/gcd + 1
        # bits; above ICR_SCAN_CAP the search is undetermined.
        with pytest.raises(CapExceeded, match=r"/gcd = 19999999999999 exceeds cap 10000000$"):
            min_support_exact(IntMatrix.from_rows([[3, 5]]), (10**14,))
        monkeypatch.setattr(oracle, "ICR_SCAN_CAP", 20)
        row = IntMatrix.from_rows([[5, 3]])
        # Support {5}: (105 - 5)/5 = 20 is at the cap.
        assert min_support_exact(row, (105,)) == 1
        with pytest.raises(CapExceeded, match="/gcd = 21 exceeds cap 20$"):
            min_support_exact(row, (110,))
        # Neither weight alone divides what is left of 1001, so only the
        # support {5, 3} needs a bitset.
        with pytest.raises(CapExceeded, match="/gcd = 993 exceeds cap 20$"):
            min_support_exact(row, (1001,))

    def test_never_exceeds_solver_support(self):
        rng = random.Random(19)
        for _ in range(60):
            m = rng.randint(1, 2)
            n = rng.randint(m, 6)
            A = random_full_row_rank(rng, m, n, -9, 9)
            tau = random_nonsingular_tau(rng, A)
            witness = [rng.randint(0, 3) for _ in range(n)]
            b = A.mat_vec(witness)
            report = solve_sparse_lattice(A, b, tau)
            assert report is not None
            # b = A witness with witness >= 0, so a search cut at the
            # solver's support finds one or gives up; it never proves
            # infeasibility.
            try:
                best = min_support_exact(A, b, k_max=report.support_size)
            except CapExceeded as exc:
                assert str(exc).startswith("no solution with support <= ")
            else:
                assert best is not None and best <= report.support_size


class TestIcrScan:
    def test_pair(self):
        assert icr_scan((2, 3), 40) == 2

    def test_unit(self):
        assert icr_scan((1,), 17) == 1

    def test_three_weights(self):
        assert icr_scan((6, 10, 15), 60) == 3

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "ICR_SCAN_CAP", 40)
        assert icr_scan((2, 3), 40) == 2
        # The cap applies to b_max / gcd(a).
        assert icr_scan((4, 6), 81) == 2
        with pytest.raises(CapExceeded, match="b_max/gcd = 41 exceeds cap 40"):
            icr_scan((2, 3), 41)

    def test_work_cap(self, monkeypatch):
        # Value 1 is never representable, so all three closures of 41 bits run.
        monkeypatch.setattr(oracle, "ICR_SCAN_WORK_CAP", 3 * 41)
        assert icr_scan((2, 3), 40) == 2
        # (1) covers every value, so the scan stops after the two singletons.
        monkeypatch.setattr(oracle, "ICR_SCAN_WORK_CAP", 2 * 11)
        assert icr_scan((1, 2), 10) == 1
        monkeypatch.setattr(oracle, "ICR_SCAN_WORK_CAP", 3 * 41 - 1)
        with pytest.raises(CapExceeded, match=r"bits exceed cap 122"):
            icr_scan((2, 3), 40)

    def test_matches_closures_from_scratch(self, monkeypatch):
        # Up to 6 weights, so that closures grow through five levels, and
        # work caps that stop the scan at every level.
        rng = random.Random(31)
        for _ in range(150):
            a = tuple(rng.randint(1, 40) * rng.choice((1, 1, 2, 3)) for _ in range(rng.randint(1, 6)))
            b_max = rng.randint(0, 400)
            subsets = 2 ** len(a) - 1
            cap = (b_max // math.gcd(*a) + 1) * rng.randint(1, subsets + 1)
            monkeypatch.setattr(oracle, "ICR_SCAN_WORK_CAP", cap)
            try:
                expected = icr_scan_from_scratch(a, b_max, cap)
            except CapExceeded as exc:
                with pytest.raises(CapExceeded) as got:
                    icr_scan(a, b_max)
                assert str(got.value) == str(exc)
            else:
                assert icr_scan(a, b_max) == expected

    def test_validation(self):
        with pytest.raises(NonPositive):
            icr_scan((2, -3), 10)
        with pytest.raises(NonPositive):
            icr_scan((2, 3), -1)
        with pytest.raises(DimensionMismatch):
            icr_scan((), 5)

    def test_monotone_in_b_max(self):
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randint(1, 3)
            a = tuple(rng.randint(1, 15) for _ in range(n))
            previous = 0
            for b_max in (5, 10, 20, 40, 80):
                value = icr_scan(a, b_max)
                assert value >= previous
                previous = value

    def test_agrees_with_per_value_oracle(self):
        rng = random.Random(27)
        for _ in range(15):
            n = rng.randint(1, 3)
            a = tuple(rng.randint(1, 12) for _ in range(n))
            b_max = 30
            g = math.gcd(*a)
            expected = 0
            for b in range(0, b_max + 1):
                if b % g:
                    continue
                best = knapsack_min_support_dfs([v // g for v in a], b // g)
                if best is not None:
                    expected = max(expected, best)
            assert icr_scan(a, b_max) == expected
