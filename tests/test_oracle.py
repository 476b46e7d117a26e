import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    min_support_bounded,
    min_support_one_row,
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
        # (-1, 0) is in the lattice but has no nonnegative solution: the
        # search over every support proves it, one cut by k_max does not.
        assert min_support_exact(A, (-1, 0)) is None
        with pytest.raises(CapExceeded, match=r"^no solution with support <= 2$"):
            min_support_exact(A, (-1, 0), k_max=2)
        # x = (100, 0) has entries above any fixed coordinate cap, and the
        # second support needs a column that is free in the kernel.
        assert min_support_exact(IntMatrix.from_rows([[1, 2], [0, 1]]), (100, 0)) == 1
        A = IntMatrix.from_rows([[2, 3, 5, 7], [1, 1, 1, 1]])
        assert min_support_exact(A, (17, 5)) == 2

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
        with pytest.raises(NonPositive, match="k_max must be nonnegative, got -1"):
            min_support_exact(two_rows, (0, 0), k_max=-1)
        # The smallest cut in range still searches; coordinates have no cap.
        with pytest.raises(CapExceeded, match=r"^no solution with support <= 0$"):
            min_support_exact(one_row, (5,), k_max=0)
        assert min_support_exact(two_rows, (1, 1), k_max=2) == 2
        with pytest.raises(TypeError):
            min_support_exact(two_rows, (1, 1), coord_cap=1)

    def test_node_cap(self, monkeypatch):
        # No y >= 0 with A y = 0 is nonzero, so all three columns are
        # bounded; the supports tried take 6 values in all, the last of them
        # in x = (11, 2, 2).
        A = IntMatrix.from_rows([[-1, 4, -3], [1, -1, 4]])
        monkeypatch.setattr(oracle, "MIN_SUPPORT_NODE_CAP", 6)
        assert min_support_exact(A, (-9, 17)) == 3
        monkeypatch.setattr(oracle, "MIN_SUPPORT_NODE_CAP", 5)
        with pytest.raises(CapExceeded, match="^search nodes exceed cap 5$"):
            min_support_exact(A, (-9, 17))
        # Columns free in the kernel take a lattice solution and no node.
        monkeypatch.setattr(oracle, "MIN_SUPPORT_NODE_CAP", 0)
        assert min_support_exact(IntMatrix.from_rows([[3, -5]]), (1,)) == 2

    def test_b_outside_the_lattice_takes_no_points(self, monkeypatch):
        # Every column sums to 6 and 7 + 9 = 16 is no multiple of 6; a b in
        # the lattice still enumerates.
        A = IntMatrix.from_rows([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        monkeypatch.setattr(oracle, "MIN_SUPPORT_NODE_CAP", 0)
        assert min_support_exact(A, (7, 9)) is None
        with pytest.raises(CapExceeded):
            min_support_exact(A, (7, 11))

    def test_one_row_large_rhs(self):
        # No bitset of b/gcd bits: a few values of one bounded column each.
        assert min_support_exact(IntMatrix.from_rows([[3, 5]]), (10**14,)) == 1
        assert min_support_exact(IntMatrix.from_rows([[3, 5]]), (10**14 + 1,)) == 2
        # An odd b prime to 15 needs all three weights.
        assert min_support_exact(IntMatrix.from_rows([[6, 10, 15]]), (10**15 + 1,)) == 3
        assert min_support_exact(IntMatrix.from_rows([[-6, -10, -15]]), (-(10**15 + 1),)) == 3

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


    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_never_above_the_bounded_enumeration(self, data):
        m, n = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 4))
        entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        A = IntMatrix.from_rows(data.draw(st.lists(entries, min_size=m, max_size=m)))
        if data.draw(st.booleans()):
            b = A.mat_vec(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)))
        else:
            b = tuple(data.draw(st.lists(st.integers(-12, 12), min_size=m, max_size=m)))
        bounded = min_support_bounded(A, b, coord_cap=6)
        if bounded is not None:
            best = min_support_exact(A, b)
            assert best is not None and best <= bounded

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-30, 30), min_size=1, max_size=5), st.integers(-200, 600))
    def test_one_row_equals_the_bitset_search(self, row, b):
        assert min_support_exact(IntMatrix.row_vector(row), (b,)) == min_support_one_row(row, b)


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
