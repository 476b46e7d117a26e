import importlib
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sparsedioph import (
    CapExceeded,
    DimensionMismatch,
    InfeasibleInput,
    IntMatrix,
    NoSignMix,
    NonPositive,
    NotPositivelySpanning,
    RankDeficient,
    SingularBasis,
    first_nonsingular_basis,
    min_support_exact,
    reduce_knapsack_support,
    solve_knapsack_mixed,
    solve_knapsack_positive,
    solve_semigroup_posspan,
    solve_sparse_lattice,
    sparsify,
    sparsity_bounds,
)
from sparsedioph.oracle import _reachable
from oracles import (
    basic_feasible_point_fraction,
    identity,
    knapsack_min_support_dfs,
    lattice_member_transform,
    minors_gcd,
    omega,
    omega_truncated,
    perm_det,
    pointed_cone_bound_enumerated,
    positively_spans,
    reduce_knapsack_support_by_kernels,
    solve_knapsack_mixed_by_lifts,
    solve_knapsack_positive_dp,
)

exactlp = importlib.import_module("sparsedioph.exactlp")
semigroup = importlib.import_module("sparsedioph.semigroup")
intlinalg = importlib.import_module("sparsedioph.intlinalg")
sparsify_module = importlib.import_module("sparsedioph.sparsify")


@pytest.fixture
def lp_calls(monkeypatch):
    """Counts calls of the phase-I LP made inside the semigroup module."""
    calls = [0]
    true_lp = semigroup.basic_feasible_point

    def counting(rows, rhs):
        calls[0] += 1
        return true_lp(rows, rhs)

    monkeypatch.setattr(semigroup, "basic_feasible_point", counting)
    return calls


@st.composite
def spanning_instances(draw):
    """Positively spanning A with small entries and b = A c for integer c.

    A drawn matrix that does not span gets its last column replaced by
    minus the sum of the others; the all-ones vector is then in the
    kernel, so it spans iff it has full row rank.
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 6))
    column = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
    cols = draw(st.lists(column, min_size=n, max_size=n))
    A = IntMatrix.from_columns(cols)
    if not positively_spans(A):
        cols[-1] = [-sum(c[i] for c in cols[:-1]) for i in range(m)]
        A = IntMatrix.from_columns(cols)
        assume(positively_spans(A))
    c = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    return A, A.mat_vec(c)


class TestPositiveKernel:
    def test_is_the_primitive_multiple_of_the_lp_point(self):
        # y is proportional to 1_ones + z for the LP point z of the
        # Fraction simplex, lies in the kernel and has content 1.
        rng = random.Random(13)
        hits = 0
        for _ in range(300):
            m = rng.randint(1, 3)
            n = rng.randint(1, 6)
            A = IntMatrix.from_rows(
                [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            )
            ones = sorted(rng.sample(range(1, n + 1), rng.randint(1, n)))
            y = semigroup._positive_kernel(A, ones)
            rows = A.to_rows()
            z = basic_feasible_point_fraction(
                rows, [-sum(row[j - 1] for j in ones) for row in rows]
            )
            assert (y is None) == (z is None)
            if y is None:
                continue
            hits += 1
            for j in ones:
                z[j - 1] += 1
            scale = y[ones[0] - 1] / z[ones[0] - 1]
            assert scale > 0
            assert [scale * v for v in z] == y
            assert all(type(v) is int for v in y)
            assert math.gcd(*y) == 1
            assert A.mat_vec(y) == (0,) * m
            assert sum(1 for v in y if v) <= len(ones) + m
        assert hits > 30


class TestSolveSemigroupPosspan:
    def test_plane_with_negative_corner(self):
        A = IntMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
        report = solve_semigroup_posspan(A, (-2, -2), (1, 2))
        assert A.mat_vec(report.x) == (-2, -2)
        assert all(v >= 0 for v in report.x)
        assert report.support_size <= report.bound == 4

    def test_mixed_pair(self):
        A = IntMatrix.from_rows([[3, -5]])
        report = solve_semigroup_posspan(A, (1,), (1,))
        assert report.x == (2, 1)
        assert report.support_size <= report.bound == 3

    def test_zero_rhs(self):
        A = IntMatrix.from_rows([[1, 0, -1], [0, 1, -1]])
        report = solve_semigroup_posspan(A, (0, 0), (1, 2))
        assert report.x == (0, 0, 0)
        assert report.support_size == 0

    def test_not_positively_spanning(self):
        # x* = (-1, 1) needs a lift, and the identity's cone is pointed.
        with pytest.raises(NotPositivelySpanning):
            solve_semigroup_posspan(identity(2), (-1, 1), (1, 2))
        with pytest.raises(NotPositivelySpanning):
            solve_semigroup_posspan(IntMatrix.from_rows([[2, 3, 7]]), (-1,), (1,))
        # A b that needs no lift is answered without the spanning test.
        assert solve_semigroup_posspan(identity(2), (1, 1), (1, 2)).x == (1, 1)
        assert solve_semigroup_posspan(IntMatrix.from_rows([[2, 0], [0, 2]]), (1, 1)) is None

    def test_tau_and_rhs_errors_come_before_the_spanning_test(self):
        with pytest.raises(SingularBasis):
            solve_semigroup_posspan(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), (-1, 1), (1, 3))
        with pytest.raises(SingularBasis):
            solve_semigroup_posspan(IntMatrix.from_rows([[0, 0]]), (-1,), (1,))
        with pytest.raises(RankDeficient):
            solve_semigroup_posspan(IntMatrix.from_rows([[0, 0]]), (-1,))
        with pytest.raises(DimensionMismatch):
            solve_semigroup_posspan(identity(2), (-1,))
        with pytest.raises(DimensionMismatch):
            solve_semigroup_posspan(IntMatrix.from_rows([[2, 3]]), (-1, 1), (1,))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_answers_agree_with_the_oracles_spanning_or_not(self, data):
        # None iff b is outside the lattice, NotPositivelySpanning only
        # when no y >= 1 has A y = 0, and every report is a sparse
        # nonnegative solution.
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m, 6))
        entries = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
        A = IntMatrix.from_rows(data.draw(st.lists(entries, min_size=m, max_size=m)))
        if data.draw(st.booleans()):
            b = A.mat_vec(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
        else:
            b = tuple(data.draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m)))
        try:
            report = solve_semigroup_posspan(A, b)
        except RankDeficient:
            assert minors_gcd(A) == 0
            return
        except NotPositivelySpanning:
            rows = A.to_rows()
            assert basic_feasible_point_fraction(rows, [-sum(row) for row in rows]) is None
            assert lattice_member_transform(A, b) is not None
            return
        assert (report is None) == (lattice_member_transform(A, b) is None)
        if report is not None:
            assert all(v >= 0 for v in report.x)
            assert A.mat_vec(report.x) == b
            assert sum(1 for v in report.x if v) == report.support_size <= report.bound

    @settings(max_examples=100, deadline=None)
    @given(spanning_instances())
    def test_default_tau_is_the_first_nonsingular_basis(self, instance):
        A, b = instance
        tau = first_nonsingular_basis(A)
        report = solve_semigroup_posspan(A, b)
        assert report == solve_semigroup_posspan(A, b, tau)
        assert report.tau == tau

    def test_infeasible_rhs(self):
        A = IntMatrix.from_rows([[2, -4]])
        assert solve_semigroup_posspan(A, (1,), (1,)) is None

    def test_random_spanning_instances(self):
        rng = random.Random(29)
        solved = 0
        while solved < 60:
            m = rng.randint(1, 3)
            n = rng.randint(m + 1, 7)
            A = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            if not positively_spans(A):
                continue
            tau = None
            from sparsedioph import first_nonsingular_basis

            tau = first_nonsingular_basis(A)
            b = tuple(rng.randint(-20, 20) for _ in range(m))
            report = solve_semigroup_posspan(A, b, tau)
            if report is None:
                continue
            solved += 1
            assert A.mat_vec(report.x) == b
            assert all(v >= 0 for v in report.x)
            assert report.support_size <= report.bound

    def test_at_most_one_lp_per_solve(self, lp_calls):
        # The lift's LP is the only one, and it runs iff the lattice
        # solution x* on gamma has a negative entry, on any number of rows:
        # never when b is outside the lattice.
        rng = random.Random(37)
        seen = {"infeasible": 0, "nonnegative": 0, "lifted": 0, "not spanning": 0}
        for _ in range(200):
            m = rng.randint(1, 3)
            n = rng.randint(m, 7)
            A = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
            )
            if minors_gcd(A) == 0:
                continue
            b = A.mat_vec([rng.randint(-4, 4) for _ in range(n)])
            if rng.random() < 0.3:
                b = tuple(v + rng.randint(-1, 1) for v in b)
            lattice = solve_sparse_lattice(A, b)
            lp_calls[0] = 0
            try:
                solve_semigroup_posspan(A, b)
            except NotPositivelySpanning:
                seen["not spanning"] += 1
            if lattice is None:
                expected = 0
                seen["infeasible"] += 1
            else:
                expected = int(min(lattice.x) < 0)
                seen["lifted" if expected else "nonnegative"] += 1
            assert lp_calls[0] == expected
        assert min(seen.values()) > 0

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_row_lift_equals_the_general_lift(self, data):
        # The mixed knapsack's closed form against sparsify plus the
        # phase-I LP, on every singleton basis of a row with nonzero
        # entries of both signs: x, bound and exactness agree.
        entry = st.one_of(st.integers(1, 30), st.integers(1, 10**12))
        a = [data.draw(st.sampled_from((-1, 1))) * v
             for v in data.draw(st.lists(entry, min_size=2, max_size=8))]
        assume(min(a) < 0 < max(a))
        A = IntMatrix.row_vector(a)
        b = math.gcd(*a) * data.draw(st.integers(-10**6, 10**6))
        chain = semigroup._row_chain(a)
        for i in range(len(a)):
            x, omega_1, exact = semigroup._lift_sparse(a, b, i, chain)
            report = solve_semigroup_posspan(A, (b,), (i + 1,))
            assert (semigroup._dense(x, len(a)), 2 + omega_1, exact) == (
                report.x, report.bound, report.bound_exact)

    @settings(max_examples=150, deadline=None)
    @given(spanning_instances())
    def test_lift_is_exact_nonnegative_and_sparse(self, instance):
        A, b = instance
        m = A.rows
        tau = first_nonsingular_basis(A)
        report = solve_semigroup_posspan(A, b, tau)
        assert report is not None
        assert A.mat_vec(report.x) == b
        assert all(v >= 0 for v in report.x)
        gamma = sparsify(A, tau).gamma
        assert report.support_size <= len(gamma) + m <= report.bound
        cap = max(report.x)
        if m <= 2 and A.cols <= 5 and cap <= 8:
            # x itself lies in the oracle's search regime, so the oracle
            # must find a support no larger than x's.
            best = min_support_exact(A, b, coord_cap=max(cap, 1))
            assert best is not None and best <= report.support_size


class TestReduceKnapsackSupport:
    def test_collapses_to_single_column(self):
        report = reduce_knapsack_support((3, 5, 7), (1, 1, 1))
        assert report.x == (5, 0, 0)
        assert report.support_size == 1
        assert report.bound == 2

    def test_already_within_bound(self):
        report = reduce_knapsack_support((4, 6, 7), (1, 1, 1))
        assert report.x == (1, 1, 1)
        assert report.bound == 3

    def test_unit_weight_absorbs_everything(self):
        report = reduce_knapsack_support((1, 9, 9), (0, 1, 1))
        assert report.x == (18, 0, 0)
        assert report.support_size == 1
        assert report.bound == 1

    def test_input_validation(self):
        with pytest.raises(InfeasibleInput):
            reduce_knapsack_support((3, 5), (1, -1))
        with pytest.raises(NonPositive):
            reduce_knapsack_support((3, 0), (1, 1))
        with pytest.raises(DimensionMismatch):
            reduce_knapsack_support((), ())

    def test_each_pass_cancels_a_coordinate(self):
        # The loop finds the collisions the separate helper found, so x is
        # the reference's, and each of the reference's passes cancels at
        # least one of the n - 1 columns besides the designated one. Small
        # weights make the loop run on over half of the inputs.
        rng = random.Random(47)
        for _ in range(2000):
            n = rng.randint(1, 8)
            a = tuple(rng.randint(1, rng.choice((8, 60))) * rng.choice((1, 1, 2, 3))
                      for _ in range(n))
            x0 = tuple(rng.choice((0, rng.randint(1, 9), rng.randint(1, 9))) for _ in range(n))
            x, passes = reduce_knapsack_support_by_kernels(a, x0)
            assert reduce_knapsack_support(a, x0).x == x
            assert passes < n

    def test_value_preserved_and_bound_met_random(self):
        rng = random.Random(41)
        for _ in range(150):
            n = rng.randint(1, 6)
            a = tuple(rng.randint(1, 60) for _ in range(n))
            x0 = tuple(rng.randint(0, 6) for _ in range(n))
            b = sum(u * v for u, v in zip(a, x0))
            report = reduce_knapsack_support(a, x0)
            assert sum(u * v for u, v in zip(a, report.x)) == b
            assert all(v >= 0 for v in report.x)
            g = math.gcd(*a)
            assert report.bound == 1 + (min(a) // g).bit_length() - 1
            assert report.support_size <= report.bound


class TestSolveKnapsackPositive:
    def test_examples(self):
        report = solve_knapsack_positive((3, 5, 7), 15)
        assert report.support_size <= 2
        assert sum(u * v for u, v in zip((3, 5, 7), report.x)) == 15
        assert solve_knapsack_positive((2, 3), 1) is None
        assert solve_knapsack_positive((2, 3), 0).x == (0, 0)

    def test_negative_rhs_is_infeasible(self):
        assert solve_knapsack_positive((2, 3), -5) is None

    def test_empty_weights_are_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_knapsack_positive((), 3)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            solve_knapsack_positive((2, 3), 10**9, b_cap=10**6)
        # gcd normalization happens before the cap check
        report = solve_knapsack_positive((10**6, 2 * 10**6), 10 * 10**6, b_cap=100)
        assert report is not None

    def test_negative_cap_is_rejected(self):
        # Whatever b is; a cap of 0 still admits b = 0.
        for b in (-1, 0, 5, 7):
            with pytest.raises(NonPositive, match="cap must be nonnegative, got -1"):
                solve_knapsack_positive((2, 3), b, b_cap=-1)
        assert solve_knapsack_positive((2, 3), 0, b_cap=0).x == (0, 0)

    def test_cap_is_inclusive(self):
        # b/gcd = 50 with gcd 2: at the cap it solves, one above it does not.
        report = solve_knapsack_positive((4, 6), 100, b_cap=50)
        assert report == solve_knapsack_positive_dp((4, 6), 100, b_cap=50)
        assert sum(u * v for u, v in zip((4, 6), report.x)) == 100
        with pytest.raises(CapExceeded, match="b/gcd = 51 exceeds cap 50"):
            solve_knapsack_positive((4, 6), 102, b_cap=50)

    def test_weight_equal_to_the_gcd_listed_first(self):
        # Every step of the walk takes the first weight, gcd 6 itself.
        a = (6, 12, 18, 30)
        for b in (0, 6, 42, 600):
            report = solve_knapsack_positive(a, b)
            assert report == solve_knapsack_positive_dp(a, b)
            assert report.x == (b // 6, 0, 0, 0)
        assert solve_knapsack_positive(a, 45) is None

    def test_three_hundred_weights(self):
        # 255 or more weights took the dynamic program's `list` table; the
        # only weight below 500 comes last, at index 299.
        rng = random.Random(71)
        a = tuple(rng.randint(500, 3000) for _ in range(299)) + (17,)
        for b in (17 * 29, 17 * 29 + 1, 4000, 4001, 6789):
            report = solve_knapsack_positive(a, b)
            assert report == solve_knapsack_positive_dp(a, b)
            if report is not None:
                assert sum(u * v for u, v in zip(a, report.x)) == b
        assert solve_knapsack_positive(a, 17 * 29).x[299] == 29

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_report_equals_the_dynamic_program(self, data):
        # Drawing from a small pool repeats weights; the factor makes a
        # common gcd.
        factor = data.draw(st.sampled_from([1, 2, 3, 6]))
        pool = data.draw(st.lists(st.integers(1, 300 // factor), min_size=1, max_size=6))
        picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        a = [factor * w for w in picks]
        b = data.draw(st.integers(-3, 5000))
        g = math.gcd(*a)
        cap = data.draw(st.sampled_from([semigroup.DEFAULT_B_CAP, b // g, b // g - 1]))

        def outcome(solve):
            try:
                return solve(a, b, b_cap=cap)
            except (CapExceeded, NonPositive) as exc:
                return repr(exc)

        assert outcome(solve_knapsack_positive) == outcome(solve_knapsack_positive_dp)

    def test_oracle_never_beats_the_bound(self):
        rng = random.Random(53)
        for _ in range(80):
            n = rng.randint(1, 5)
            a = tuple(rng.randint(1, 40) for _ in range(n))
            b = sum(rng.randint(0, 5) * v for v in a)
            report = solve_knapsack_positive(a, b)
            assert report is not None
            best = knapsack_min_support_dfs(a, b)
            assert best is not None
            assert best <= report.support_size <= report.bound

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(1, 40), min_size=1, max_size=5),
        st.integers(0, 2000),
    )
    def test_none_iff_unreachable_and_support_between_oracle_and_bound(self, a, b):
        report = solve_knapsack_positive(a, b)
        if not _reachable(b, a):
            assert report is None
            return
        assert report is not None
        assert sum(u * v for u, v in zip(a, report.x)) == b
        assert all(v >= 0 for v in report.x)
        best = min_support_exact(IntMatrix.row_vector(a), (b,))
        assert best <= report.support_size <= report.bound


class TestRowMember:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_equals_lattice_member(self, data):
        # The gcd chain's x is lattice_member's canonical x, and None
        # exactly when gcd(c) does not divide b.
        entry = st.one_of(st.integers(1, 40), st.integers(1, 10**20), st.integers(1, 2**200))
        c = [data.draw(st.sampled_from((-1, 1))) * v
             for v in data.draw(st.lists(entry, min_size=1, max_size=8))]
        scale = data.draw(st.sampled_from((1, math.gcd(*c))))
        b = scale * data.draw(st.integers(-10**30, 10**30)) + data.draw(st.integers(-2, 2))
        expected = intlinalg.lattice_member(IntMatrix.row_vector(c), (b,))
        assert semigroup._row_member(c, b) == expected

    def test_examples(self):
        assert semigroup._row_member((6, 10, 15), 1) == (1, 1, -1)
        assert semigroup._row_member((4, -6), 3) is None
        assert semigroup._row_member((-7,), 14) == (-2,)


class TestSolveKnapsackMixed:
    def test_examples(self):
        a = (4, 9, -15)
        report = solve_knapsack_mixed(a, 2)
        assert sum(u * v for u, v in zip(a, report.x)) == 2
        assert all(v >= 0 for v in report.x)
        assert report.support_size <= report.bound == 3
        assert solve_knapsack_mixed((3, -5), 0).x == (0, 0)
        report = solve_knapsack_mixed((6, 10, -15), 1)
        assert report.support_size <= report.bound == 4

    def test_sign_mix_required(self):
        with pytest.raises(NoSignMix):
            solve_knapsack_mixed((2, 3), 1)
        with pytest.raises(NoSignMix):
            solve_knapsack_mixed((2, 0, -3), 1)

    def test_absent_iff_gcd_fails(self):
        assert solve_knapsack_mixed((4, -6), 3) is None
        assert solve_knapsack_mixed((4, -6), 2) is not None

    def test_random_bound_holds(self):
        rng = random.Random(61)
        done = 0
        while done < 80:
            n = rng.randint(2, 6)
            a = tuple(
                rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(n)
            )
            if not (any(v > 0 for v in a) and any(v < 0 for v in a)):
                continue
            g = math.gcd(*a)
            b = g * rng.randint(-40, 40)
            report = solve_knapsack_mixed(a, b)
            assert report is not None
            done += 1
            assert sum(u * v for u, v in zip(a, report.x)) == b
            assert all(v >= 0 for v in report.x)
            assert report.bound == 2 + min(omega(abs(v) // g) for v in a)
            assert report.bound_exact
            assert report.support_size <= report.bound

    def test_unsplit_entry_gives_a_certified_bound(self):
        # 1329227995784916015866073631529372603 is a product of two primes
        # above 2^60; the bound comes from omega(3) = 1 without factoring it.
        a = (1329227995784916015866073631529372603, -3)
        report = solve_knapsack_mixed(a, 1)
        assert sum(u * v for u, v in zip(a, report.x)) == 1
        assert all(v >= 0 for v in report.x)
        assert report.support_size <= report.bound == 3
        assert report.bound_exact is False

    def test_at_most_one_lp_per_singleton_basis(self, lp_calls):
        # Each lift's kernel vector is the LP's point in closed form, so
        # no LP runs at all.
        rng = random.Random(67)
        for _ in range(40):
            n = rng.randint(2, 8)
            a = [rng.randint(1, 40) for _ in range(n)]
            a[0] = -a[0]
            rng.shuffle(a)
            lp_calls[0] = 0
            solve_knapsack_mixed(a, math.gcd(*a) * rng.randint(-60, 60))
            assert lp_calls[0] == 0

    def test_no_hnf_insert(self, monkeypatch):
        # gamma comes from suffix gcds and x from gamma's chain of gcds:
        # no canonical basis is built and lattice_member never runs.
        calls = {"_hnf_insert": 0, "lattice_member": 0}
        for name in calls:
            true_fn = getattr(intlinalg, name)

            def counting(*args, _name=name, _fn=true_fn):
                calls[_name] += 1
                return _fn(*args)

            for module in (intlinalg, sparsify_module, semigroup,
                           importlib.import_module("sparsedioph.diophsolve")):
                if getattr(module, name, None) is true_fn:
                    monkeypatch.setattr(module, name, counting)
        rng = random.Random(71)
        for _ in range(40):
            n = rng.randint(2, 12)
            a = [rng.choice([-1, 1]) * rng.randint(1, 10**6) for _ in range(n)]
            a[0], a[-1] = -abs(a[0]), abs(a[-1])
            assert solve_knapsack_mixed(a, math.gcd(*a) * rng.randint(-60, 60)) is not None
        assert calls == {"_hnf_insert": 0, "lattice_member": 0}

    def test_one_omega_bound_per_singleton_basis(self, monkeypatch):
        # The bound and the tie-break come from the n lifts' own reports.
        calls = []
        true_bound, true_parts = semigroup.omega_truncated_upper, semigroup._omega_upper
        monkeypatch.setattr(semigroup, "omega_truncated_upper",
                            lambda z, m: calls.append(z) or true_bound(z, m))
        for module in (semigroup, sparsify_module):
            monkeypatch.setattr(module, "_omega_upper",
                                lambda parts, m: calls.append(math.prod(parts)) or true_parts(parts, m))
        a = (12, -45, 35, 8)
        report = solve_knapsack_mixed(a, 7)
        assert sorted(calls) == [8, 12, 35, 45]
        assert report.bound == 2 + min(omega(v) for v in (12, 45, 35, 8)) == 3


    def test_no_dense_product(self, monkeypatch):
        # Each lift checks a.x = b over gamma and the entering column; no
        # n-vector product runs.
        calls = []
        true_mat_vec = IntMatrix.mat_vec
        monkeypatch.setattr(IntMatrix, "mat_vec",
                            lambda self, v: calls.append(v) or true_mat_vec(self, v))
        rng = random.Random(73)
        lifted = 0
        for _ in range(40):
            n = rng.randint(2, 12)
            a = [rng.choice([-1, 1]) * rng.randint(1, 10**4) for _ in range(n)]
            a[0], a[-1] = -abs(a[0]), abs(a[-1])
            report = solve_knapsack_mixed(a, math.gcd(*a) * rng.randint(-60, 60))
            lifted += report.support_size > 1
        assert lifted > 0
        assert calls == []

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_general_lifts(self, data):
        # The sparse closed-form lifts against sparsify plus the phase-I LP
        # on every singleton basis: all five report fields agree.
        entry = st.one_of(st.integers(1, 30), st.integers(1, 10**12))
        n = data.draw(st.integers(2, 8))
        a = [data.draw(entry) * data.draw(st.sampled_from((-1, 1))) for _ in range(n)]
        assume(min(a) < 0 < max(a))
        g = math.gcd(*a)
        b = data.draw(st.one_of(st.integers(-10**6, 10**6).map(lambda k: g * k),
                                st.integers(-10**6, 10**6)))
        assert solve_knapsack_mixed(a, b) == solve_knapsack_mixed_by_lifts(a, b)


class TestSparsityBounds:
    def test_positive_row(self):
        report = sparsity_bounds(IntMatrix.from_rows([[3, 5, 7]]))
        assert report.adno_bound == 4
        assert report.knapsack_bound == 2
        assert report.pointed_cone_bound == 2
        assert report.gcd_A == 1

    def test_identity(self):
        for m in (1, 2, 3):
            report = sparsity_bounds(identity(m))
            assert report.adno_bound == m
            assert report.thm1_semigroup_bound == 2 * m

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_default_tau_is_the_first_nonsingular_basis(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m, 5))
        rows = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        A = IntMatrix.from_rows(rows)
        try:
            tau = first_nonsingular_basis(A)
        except RankDeficient:
            assume(False)
        report = sparsity_bounds(A)
        assert report == sparsity_bounds(A, tau)
        assert report.tau == tau

    def test_composite_row(self):
        report = sparsity_bounds(IntMatrix.from_rows([[6, 10, 15]]))
        assert report.adno_bound == 5
        assert report.knapsack_bound == 3

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient, match="^bounds need a full-row-rank matrix$"):
            sparsity_bounds(IntMatrix.from_rows([[1, 2], [2, 4]]))

    def test_mixed_row_has_no_knapsack_bound(self):
        report = sparsity_bounds(IntMatrix.from_rows([[3, -5]]))
        assert report.knapsack_bound is None
        # cone(3, -5) is all of R, hence not pointed
        assert report.pointed_cone_bound is None

    def test_pointed_le_adno_random(self):
        rng = random.Random(71)
        seen = 0
        while seen < 60:
            m = rng.randint(1, 3)
            n = rng.randint(m, 6)
            A = IntMatrix.from_rows(
                [[rng.randint(1, 9) for _ in range(n)] for _ in range(m)]
            )
            try:
                report = sparsity_bounds(A)
            except RankDeficient:
                continue
            if report.pointed_cone_bound is None:
                continue
            seen += 1
            assert report.pointed_cone_bound <= report.adno_bound

    def test_scaled_gcd(self):
        report = sparsity_bounds(IntMatrix.from_rows([[6, 10]]))
        assert report.gcd_A == 2
        assert report.knapsack_bound == 1 + (6 // 2).bit_length() - 1

    def test_extreme_ray_index_out_of_range(self):
        A = IntMatrix.from_rows([[1, 2, 3], [4, 5, 7]])
        for index in (0, -1, 4):
            with pytest.raises(DimensionMismatch, match=f"^extreme ray index {index} "):
                sparsity_bounds(A, extreme_ray_index=index)
        assert sparsity_bounds(A, extreme_ray_index=3).pointed_cone_bound is not None

    def test_tau_is_validated_like_sparsify(self):
        A = IntMatrix.from_rows([[1, 2, 3], [2, 4, 5]])
        with pytest.raises(SingularBasis, match=r"^columns \(1, 2\) are linearly dependent$"):
            sparsity_bounds(A, tau=(1, 2))
        with pytest.raises(DimensionMismatch, match="^basis needs 2 indices, got 1$"):
            sparsity_bounds(A, tau=(1,))
        with pytest.raises(DimensionMismatch, match="^basis needs 2 indices, got 1$"):
            sparsify(A, (1,))
        assert sparsity_bounds(A, tau=(1, 3)).thm1_semigroup_bound == 4

    def test_one_signed_row_needs_no_pointedness_lp(self, lp_calls):
        # A y = 0 with y >= 0 forces y = 0 through a row of one sign.
        for rows in ([[-3, -5, -7], [2, 0, 1]], [[0, 4, -1], [1, 2, 3]], [[2, 9]]):
            assert semigroup._is_pointed_cone(IntMatrix.from_rows(rows))
        assert lp_calls[0] == 0
        assert not semigroup._is_pointed_cone(IntMatrix.from_rows([[1, -1, 0], [0, 0, 1]]))
        assert lp_calls[0] == 1

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_pointedness_equals_the_lp(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(1, 5))
        entries = st.one_of(st.just(0), st.integers(-4, 4), st.integers(1, 4))
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        lp = exactlp.basic_feasible_point(rows + [[1] * n], [0] * m + [1])
        assert semigroup._is_pointed_cone(IntMatrix.from_rows(rows)) == (lp is None)

    def test_no_matrix_product(self, monkeypatch):
        # A A^T comes from row dot products, and B B^T = A A^T - c c^T for
        # B = A without the designated column c: one determinant of each,
        # and no product of matrices.
        dets = []
        true_det = semigroup.det_exact
        monkeypatch.setattr(semigroup, "det_exact", lambda M: dets.append(M) or true_det(M))
        for rows in ([[1, 2, 3], [4, 5, 7]], [[-3, -5, -7], [2, 0, 1]], [[3, 5, 7]],
                     [[2, 0, 4], [0, 2, 2]], [[1, 3, 2, 4], [2, 1, 5, 1], [1, 1, 1, 3]]):
            A = IntMatrix.from_rows(rows)
            g = minors_gcd(A)
            for j in range(1, A.cols + 1):
                dets.clear()
                bound = sparsity_bounds(A, extreme_ray_index=j).pointed_cone_bound
                assert len(dets) <= 2
                assert all(M.rows == M.cols == A.rows for M in dets)
                if bound is not None:
                    assert bound == pointed_cone_bound_enumerated(A, j, g)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bounds_match_the_enumeration(self, data):
        # Adno: m + floor(log2 sqrt(sum of squared maximal minors / g^2));
        # the pointed-cone bound through each extreme ray; Theorem 1 from
        # the permutation-expansion determinant of the basis.
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m, 5))
        entries = st.integers(0, 9) if data.draw(st.booleans()) else st.integers(-9, 9)
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=m, max_size=m))
        minors = [perm_det([[row[j] for j in c] for row in rows])
                  for c in itertools.combinations(range(n), m)]
        assume(any(minors))
        A = IntMatrix.from_rows(rows)
        g = minors_gcd(A)
        report = sparsity_bounds(A)
        assert report.gcd_A == g
        q_squared = sum(d * d for d in minors) // (g * g)
        assert report.adno_bound == m + math.isqrt(q_squared).bit_length() - 1
        tau = first_nonsingular_basis(A)
        delta = abs(perm_det([[row[j - 1] for j in tau] for row in rows])) // g
        assert report.thm1_bound_exact
        assert report.thm1_semigroup_bound == 2 * m + omega_truncated(delta, m)
        for j in range(1, n + 1):
            bound = sparsity_bounds(A, extreme_ray_index=j).pointed_cone_bound
            if bound is not None:
                assert bound == pointed_cone_bound_enumerated(A, j, g)

    def test_pointed_cone_bound_matches_enumeration(self):
        # Rows of nonnegative entries, each negated at random: the cone
        # stays pointed. Every extreme ray is compared with the enumerated
        # sum of squared minors through it; n = m and n = 1 are included,
        # and so is each instance with its first column duplicated and
        # with its last column scaled by 2 appended.
        def check_every_ray(A):
            default = sparsity_bounds(A).pointed_cone_bound
            g = minors_gcd(A)
            extreme = []
            for j in range(1, A.cols + 1):
                bound = sparsity_bounds(A, extreme_ray_index=j).pointed_cone_bound
                if bound is not None:
                    assert bound == pointed_cone_bound_enumerated(A, j, g)
                    extreme.append(bound)
            assert extreme and default == extreme[0]

        rng = random.Random(72)
        instances = 0
        while instances < 120:
            m = rng.randint(1, 4)
            n = rng.choice((1 if m == 1 else m, m, rng.randint(m, m + 4)))
            rows = [[rng.randint(0, 6) for _ in range(n)] for _ in range(m)]
            rows = [[-v for v in row] if rng.random() < 0.3 else row for row in rows]
            A = IntMatrix.from_rows(rows)
            if any(not any(A.column(j)) for j in range(n)):
                continue
            try:
                check_every_ray(A)
            except RankDeficient:
                continue
            cols = A.to_columns()
            check_every_ray(IntMatrix.from_columns([cols[0]] + cols))
            check_every_ray(IntMatrix.from_columns(cols + [[2 * v for v in cols[-1]]]))
            instances += 1
