"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check is exact (zero tolerance); random suites use fixed
seeds so reruns are identical.
"""

import math
import random
import time

from sparsedioph import (
    IntMatrix,
    RankDeficient,
    det_exact,
    icr_scan,
    min_support_exact,
    reduce_knapsack_support,
    solve_knapsack_mixed,
    solve_knapsack_positive,
    sparsify,
    sparsity_bounds,
    worst_case_instance,
)
from oracles import (
    knapsack_min_support_dfs,
    lattice_equal,
    minors_gcd,
    omega,
    omega_truncated,
    primary_summands,
    random_full_row_rank,
    random_matrix,
    random_nonsingular_tau,
    verify_tightness,
)


def test_criterion_1_sparsify_bound_suite():
    rng = random.Random(20240<< 1)
    started = time.monotonic()
    for _ in range(500):
        m = rng.randint(1, 4)
        n = rng.randint(m, 10)
        A = random_full_row_rank(rng, m, n, -20, 20)
        tau = random_nonsingular_tau(rng, A)
        cert = sparsify(A, tau)
        assert set(tau) <= set(cert.gamma)
        assert lattice_equal(A, A.take_columns([i - 1 for i in cert.gamma]))
        delta = abs(det_exact(A.take_columns([i - 1 for i in tau])))
        delta //= minors_gcd(A)
        assert len(cert.gamma) <= m + omega_truncated(delta, m)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"PASS criterion 1: 500 sparsifications within bound ({elapsed:.1f}s)")


def test_criterion_2_worst_case_tightness_suite():
    for m in (1, 2, 3):
        for delta in range(2, 201):
            A = worst_case_instance(m, delta)
            assert verify_tightness(A, tuple(range(1, m + 1)))
    print("PASS criterion 2: bound tight on all worst-case instances, delta in [2,200], m in {1,2,3}")


def test_criterion_3_gcd_oracle_equivalence():
    rng = random.Random(33)
    for _ in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(m, 7)
        A = random_full_row_rank(rng, m, n, -9, 9)
        assert sparsity_bounds(A).gcd_A == minors_gcd(A)
    print("PASS criterion 3: HNF gcd equals enumerated minor gcd on 200 instances")


def test_criterion_4_positive_knapsack_suite():
    rng = random.Random(44)
    for _ in range(300):
        n = rng.randint(1, 6)
        a = tuple(rng.randint(1, 60) for _ in range(n))
        while True:
            b = sum(rng.randint(0, 4) * v for v in a)
            if b <= 5000:
                break
        report = solve_knapsack_positive(a, b)
        assert report is not None
        assert sum(u * v for u, v in zip(a, report.x)) == b
        assert all(v >= 0 for v in report.x)
        g = math.gcd(*a)
        assert report.support_size <= 1 + ((min(a) // g).bit_length() - 1)
        oracle_min = min_support_exact(IntMatrix.row_vector(a), (b,))
        assert oracle_min is not None
        assert oracle_min <= report.support_size
    print("PASS criterion 4: 300 positive knapsacks within bound and above oracle minimum")


def test_criterion_5_mixed_sign_knapsack_suite():
    rng = random.Random(55)
    done = 0
    while done < 300:
        n = rng.randint(2, 6)
        a = tuple(rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(n))
        if not (any(v > 0 for v in a) and any(v < 0 for v in a)):
            continue
        g = math.gcd(*a)
        b = g * rng.randint(-60, 60)
        report = solve_knapsack_mixed(a, b)
        assert report is not None
        done += 1
        assert sum(u * v for u, v in zip(a, report.x)) == b
        assert all(v >= 0 for v in report.x)
        assert report.support_size <= 2 + min(omega(abs(v) // g) for v in a)
    print("PASS criterion 5: 300 mixed-sign knapsacks within bound, solutions exact")


def test_criterion_6_kappa_bound_suite():
    rng = random.Random(66)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        M = random_matrix(rng, n, n, -9, 9)
        d = det_exact(M)
        if d == 0:
            continue
        checked += 1
        assert primary_summands(M) <= omega_truncated(abs(d), n)
    print("PASS criterion 6: kappa(Z^m / L(M)) <= Omega_m(|det|) on 200 matrices")


def test_criterion_7_bound_ordering():
    rng = random.Random(77)
    pointed_seen = 0
    while pointed_seen < 100:
        m = rng.randint(1, 3)
        n = rng.randint(m, 7)
        A = IntMatrix.from_rows(
            [[rng.randint(1, 9) for _ in range(n)] for _ in range(m)]
        )
        try:
            report = sparsity_bounds(A)
        except RankDeficient:
            continue
        if report.pointed_cone_bound is None:
            continue
        pointed_seen += 1
        assert report.pointed_cone_bound <= report.adno_bound
    for _ in range(100):
        n = rng.randint(1, 7)
        a = tuple(rng.randint(1, 50) for _ in range(n))
        report = sparsity_bounds(IntMatrix.row_vector(a))
        # At m = 1 the determinant bound is exactly the l2-norm bound.
        g = report.gcd_A
        l2_sq = sum(v * v for v in a) // (g * g)
        assert report.adno_bound == 1 + (l2_sq.bit_length() - 1) // 2
        assert report.knapsack_bound is not None
        assert report.knapsack_bound <= report.adno_bound
    print("PASS criterion 7: pointed-cone <= determinant bound (100x), knapsack <= l2 bound (100x)")


def test_criterion_8_worked_numeric_anchors():
    # Each anchor is reproduced by an independent brute-force path before
    # the frozen value is asserted against the module under test.

    # (a) worst minimum support of (2,3) up to 40 by direct enumeration.
    brute = 0
    for b in range(0, 41):
        best = knapsack_min_support_dfs((2, 3), b)
        if best is not None:
            brute = max(brute, best)
    assert brute == 2
    assert icr_scan((2, 3), 40) == 2

    # (b) no proper superset of {1} with fewer than 3 columns spans the
    # lattice of (6 10 15): checked by exhaustive subset enumeration.
    A = IntMatrix.from_rows([[6, 10, 15]])
    import itertools

    spanning_sizes = [
        1 + len(extra)
        for extra in itertools.chain.from_iterable(
            itertools.combinations((2, 3), k) for k in range(3)
        )
        if lattice_equal(A, A.take_columns([0] + [j - 1 for j in extra]))
    ]
    assert min(spanning_sizes) == 3
    assert len(sparsify(A, (1,)).gamma) == 3

    # (c) the minimum support for 3x+5y+7z = 15 is 1 (15 = 5*3).
    assert knapsack_min_support_dfs((3, 5, 7), 15) == 1
    report = reduce_knapsack_support((3, 5, 7), (1, 1, 1))
    assert report.support_size == 1
    assert sum(u * v for u, v in zip((3, 5, 7), report.x)) == 15
    print("PASS criterion 8: worked anchors reproduced independently and frozen")
