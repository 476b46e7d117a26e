import importlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

sparsify_module = importlib.import_module("sparsedioph.sparsify")
numtheory = importlib.import_module("sparsedioph.numtheory")
from sparsedioph import (
    CapExceeded,
    DimensionMismatch,
    IntMatrix,
    InvalidDelta,
    RankDeficient,
    SingularBasis,
    det_exact,
    first_nonsingular_basis,
    sparsify,
    worst_case_instance,
)
from oracles import (
    TooLargeForExhaustive,
    first_nonsingular_basis_lex,
    identity,
    lattice_equal,
    minors_gcd,
    omega_truncated,
    random_full_row_rank,
    random_nonsingular_tau,
    sparsify_membership_greedy,
    verify_tightness,
)


# Two primes above 2^45: the short rho search behind the bounds cannot
# split their product.
P45, Q45 = 35184372088891, 35184372088907


class TestSparsify:
    def test_no_proper_subset_works(self):
        # gcd(6,10)=2, gcd(6,15)=3, gcd(10,15)=5: all three columns stay.
        cert = sparsify(IntMatrix.from_rows([[6, 10, 15]]), (1,))
        assert cert.gamma == (1, 2, 3)
        assert cert.bound == 3
        assert cert.delta == 6

    def test_greedy_drop_in_index_order(self):
        # Scanning j=2,3,4 drops 2 (6 in L(9,15,4)) and 3 (9 in L(15,4)),
        # keeping {1,4}; size 2 meets the bound 1 + omega(4).
        cert = sparsify(IntMatrix.from_rows([[4, 6, 9, 15]]), (1,))
        assert cert.gamma == (1, 4)
        assert cert.bound == 2
        assert cert.delta == 4

    def test_identity_needs_nothing(self):
        cert = sparsify(identity(3), (1, 2, 3))
        assert cert.gamma == (1, 2, 3)
        assert cert.bound == 3
        assert cert.delta == 1

    def test_singular_basis_rejected(self):
        with pytest.raises(SingularBasis):
            sparsify(IntMatrix.from_rows([[1, 2], [2, 4]]), (1, 2))

    def test_rank_deficient_has_no_valid_basis(self):
        # Rank < m makes every m-subset singular, so the basis check fires.
        A = IntMatrix.from_rows([[1, 2, 3], [2, 4, 6]])
        with pytest.raises(SingularBasis):
            sparsify(A, (1, 2))
        with pytest.raises(RankDeficient):
            first_nonsingular_basis(A)

    def test_bad_tau_rejected(self):
        A = identity(2)
        with pytest.raises(DimensionMismatch):
            sparsify(A, (1,))
        with pytest.raises(DimensionMismatch):
            sparsify(A, (2, 1))
        with pytest.raises(DimensionMismatch):
            sparsify(A, (1, 3))

    def test_certificate_contract_random(self):
        rng = random.Random(42)
        for _ in range(100):
            m = rng.randint(1, 4)
            n = rng.randint(m, 10)
            A = random_full_row_rank(rng, m, n, -20, 20)
            tau = random_nonsingular_tau(rng, A)
            cert = sparsify(A, tau)
            assert set(tau) <= set(cert.gamma)
            delta = abs(det_exact(A.take_columns([i - 1 for i in tau])))
            delta //= minors_gcd(A)
            assert cert.delta == delta
            assert cert.bound == m + omega_truncated(delta, m)
            assert len(cert.gamma) <= cert.bound
            assert lattice_equal(A, A.take_columns([i - 1 for i in cert.gamma]))

    def test_kernel_calls_per_sparsify(self, monkeypatch):
        # One backward and one forward pass plus the final lattice check:
        # at most 2(n - m) + 2 HNF bases, none on more than |gamma| + 1
        # columns.
        sizes = []
        true_basis = sparsify_module.hnf_basis

        def counting(columns, m):
            columns = list(columns)
            sizes.append(len(columns))
            return true_basis(columns, m)

        monkeypatch.setattr(sparsify_module, "hnf_basis", counting)
        rng = random.Random(43)
        for _ in range(20):
            m = rng.randint(1, 3)
            n = rng.randint(m, 8)
            A = random_full_row_rank(rng, m, n, -9, 9)
            tau = random_nonsingular_tau(rng, A)
            sizes.clear()
            cert = sparsify(A, tau)
            assert len(sizes) <= 2 * (n - m) + 2
            assert max(sizes) <= len(cert.gamma) + 1

    def test_large_primes_in_separate_blocks_need_no_rho(self, monkeypatch):
        # delta = P45 * Q45, and each prime sits on its own diagonal entry
        # of tau's canonical basis; the bound takes one entry at a time.
        calls = []
        true_rho = numtheory._pollard_rho

        def counting(n, cap):
            calls.append(n)
            return true_rho(n, cap)

        monkeypatch.setattr(numtheory, "_pollard_rho", counting)
        A = IntMatrix.from_rows([
            [P45, 3, 1, 2, 0, 0, 0, 0],
            [0, 1, 1, 3, 0, 0, 0, 0],
            [0, 0, 0, 0, Q45, 3, 1, 2],
            [0, 0, 0, 0, 0, 1, 1, 3],
        ])
        cert = sparsify(A, (1, 2, 5, 6))
        assert (cert.delta, cert.bound, cert.bound_exact) == (P45 * Q45, 6, True)
        assert calls == []

    def test_inserts_into_the_basis_of_z_m_do_no_work(self, monkeypatch):
        # The scan inserts the columns up to tau's last, and the suffix
        # chain reaches Z^2 at its first step; from then on every insert
        # returns its basis as is, and only the final check inserts into
        # tau's basis again.
        rng = random.Random(61)
        A = IntMatrix.from_rows([[rng.randint(-50, 50) for _ in range(60)] for _ in range(2)])
        assert minors_gcd(A) == 1
        tau = first_nonsingular_basis(A)
        expected = sparsify(A, tau)
        working = []
        true_insert = sparsify_module._hnf_insert

        def counting(known, v):
            grown = true_insert(known, v)
            if grown is not known:
                working.append(v)
            return grown

        monkeypatch.setattr(sparsify_module, "_hnf_insert", counting)
        assert sparsify(A) == expected
        assert len(working) <= tau[-1] + 4


@st.composite
def small_matrices(draw):
    """Small matrices with duplicated, scaled and zero columns, some of
    them rank-deficient."""
    m = draw(st.integers(1, 3))
    column = st.lists(st.integers(-6, 6), min_size=m, max_size=m)
    cols = draw(st.lists(column, min_size=1, max_size=5))
    for kind in draw(st.lists(st.sampled_from(("duplicate", "scale", "zero")), max_size=3)):
        source = cols[draw(st.integers(0, len(cols) - 1))]
        if kind == "duplicate":
            new = list(source)
        elif kind == "scale":
            new = [draw(st.sampled_from((-3, -2, 2, 3))) * v for v in source]
        else:
            new = [0] * m
        cols.insert(draw(st.integers(0, len(cols))), new)
    if m > 1 and draw(st.booleans()):
        factor = draw(st.integers(-2, 2))
        cols = [c[:-1] + [factor * c[0]] for c in cols]
    return IntMatrix.from_columns(cols)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (RankDeficient, SingularBasis) as exc:
        return type(exc), str(exc)


class TestAgainstReferences:
    """The greedy basis scan and the two-pass sparsify against the C(n, m)
    subset scan and the one-membership-solve-per-column sparsify."""

    @settings(max_examples=150, deadline=None)
    @given(small_matrices())
    def test_default_basis_and_sparsify(self, A):
        tau = _outcome(first_nonsingular_basis_lex, A)
        assert _outcome(first_nonsingular_basis, A) == tau
        if tau[0] is not RankDeficient:
            cert = sparsify(A, tau)
            assert cert == sparsify_membership_greedy(A, tau)
            # The default tau starts from the scan's basis, which is that
            # of tau's columns, so it gives the same certificate.
            assert sparsify(A) == cert
            assert cert.tau == tau

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparsify_on_any_basis(self, data):
        A = data.draw(small_matrices())
        assume(A.cols >= A.rows)
        tau = sorted(data.draw(st.permutations(range(1, A.cols + 1)))[: A.rows])
        expected = _outcome(sparsify_membership_greedy, A, tau)
        assert _outcome(sparsify, A, tau) == expected


class TestWorstCaseInstance:
    def test_m1_delta6(self):
        assert worst_case_instance(1, 6).to_rows() == [[6, 3, 2]]

    def test_m2_delta12(self):
        assert worst_case_instance(2, 12).to_rows() == [
            [6, 0, 3, 2, 0],
            [0, 2, 0, 0, 1],
        ]

    def test_m1_delta2(self):
        assert worst_case_instance(1, 2).to_rows() == [[2, 1]]

    def test_invalid_delta(self):
        with pytest.raises(InvalidDelta):
            worst_case_instance(2, 1)
        with pytest.raises(DimensionMismatch):
            worst_case_instance(0, 6)

    def test_factors_delta_once(self, monkeypatch):
        calls = []
        true_factorize = sparsify_module.factorize

        def counting(z):
            calls.append(z)
            return true_factorize(z)

        monkeypatch.setattr(sparsify_module, "factorize", counting)
        for m in (1, 2, 3, 5):
            for delta in (2, 12, 36, 360, 1024, 2 * 3 * 5 * 7 * 11 * 13):
                calls.clear()
                worst_case_instance(m, delta)
                assert calls == [delta]

    def test_entry_cap(self, monkeypatch):
        # m (m + omega_truncated(delta, m)) entries: at the cap the matrix
        # is built, above it CapExceeded comes before any list of size m.
        assert sparsify_module.WORST_CASE_ENTRY_CAP == 10**6
        message = "^a 1000 x 1001 matrix exceeds the cap of 1000000 entries$"
        with pytest.raises(CapExceeded, match=message):
            worst_case_instance(1000, 2)
        with pytest.raises(CapExceeded):
            worst_case_instance(10**12, 6)
        monkeypatch.setattr(sparsify_module, "WORST_CASE_ENTRY_CAP", 10)
        assert worst_case_instance(2, 12).cols == 5
        with pytest.raises(CapExceeded):
            worst_case_instance(2, 60)

    def test_generates_full_lattice_with_unit_gcd(self):
        for m in (1, 2, 3):
            for delta in (2, 12, 36, 60, 128, 180):
                A = worst_case_instance(m, delta)
                assert A.cols == m + omega_truncated(delta, m)
                assert minors_gcd(A) == 1
                assert lattice_equal(A, identity(m))
                block = A.take_columns(range(m))
                assert abs(det_exact(block)) == delta


class TestVerifyTightness:
    def test_worst_case_is_tight(self):
        assert verify_tightness(worst_case_instance(2, 12), (1, 2))

    def test_small_knapsack_row(self):
        # bound = 1 + omega(4) = 2 and no single column spans, so equality.
        assert verify_tightness(IntMatrix.from_rows([[4, 6, 9, 15]]), (1,))

    def test_identity(self):
        assert verify_tightness(identity(2), (1, 2))

    def test_not_tight_when_bound_is_slack(self):
        # delta = 6 gives bound 1 + omega(6) = 3, but {1, 2} already spans.
        A = IntMatrix.from_rows([[6, 1, 10]])
        assert not verify_tightness(A, (1,))

    def test_cap(self):
        A = IntMatrix.from_rows([list(range(1, 16))])
        with pytest.raises(TooLargeForExhaustive):
            verify_tightness(A, (1,))
        assert verify_tightness(A, (1,), max_columns=15) in (True, False)


class TestFirstNonsingularBasis:
    def test_scans_in_lex_order(self):
        # (1,2) and (1,3) are singular, so the scan settles on (2,3).
        A = IntMatrix.from_rows([[0, 2, 1], [0, 0, 3]])
        assert first_nonsingular_basis(A) == (2, 3)

    def test_no_basis(self):
        with pytest.raises(RankDeficient):
            first_nonsingular_basis(IntMatrix.from_rows([[1, 2], [2, 4]]))

    def test_matches_the_subset_scan_on_dependent_columns(self):
        # Columns from a rank-r span mixed with a few free columns, so
        # that the scan must skip dependent columns and the matrix may
        # lack full rank.
        rng = random.Random(77)
        for _ in range(150):
            m = rng.randint(2, 5)
            r = rng.randint(1, m)
            span = [[rng.randint(-20, 20) for _ in range(m)] for _ in range(r)]
            cols = []
            for _ in range(rng.randint(1, 5)):
                coef = [rng.randint(-3, 3) for _ in range(r)]
                cols.append([sum(c * v[i] for c, v in zip(coef, span)) for i in range(m)])
            cols += [[rng.randint(-20, 20) for _ in range(m)] for _ in range(rng.randint(0, 4))]
            rng.shuffle(cols)
            A = IntMatrix.from_columns(cols)
            expected = _outcome(first_nonsingular_basis_lex, A)
            assert _outcome(first_nonsingular_basis, A) == expected
