import math
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedioph import (
    FactorizationTimeout,
    IntMatrix,
    NonPositive,
    det_exact,
    factorize,
    is_probable_prime,
    numtheory,
    omega_truncated_upper,
)
from oracles import (
    factorize_trial_first,
    identity,
    omega,
    omega_truncated,
    primary_summands,
    random_matrix,
    trial_factorize,
)


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


# Rho needs millions of iterations to split a product of two primes
# above 2^45, far beyond the budget of omega_truncated_upper.
P45 = next_prime(2**45)
Q45 = next_prime(P45 + 1)

# Primes below 10^3 (trial division), 10^3 to 10^6 (trial division before,
# rho now) and 2^20 to 2^40 (Miller-Rabin once the rest is split off; at
# most one, so that rho never has to find one); a few primes slightly
# overshoot their range.
small_primes = st.one_of(st.integers(2, 996), st.integers(10**3, 10**6)).map(next_prime)
large_primes = st.integers(2**20, 2**40).map(next_prime)
prime_products = st.tuples(
    st.lists(st.tuples(small_primes, st.integers(1, 3)), max_size=3),
    st.one_of(st.just(1), large_primes),
).map(lambda t: t[1] * math.prod(p**s for p, s in t[0]))


class TestFactorize:
    def test_one_has_empty_factorization(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_360(self):
        assert factorize(360).factors == ((2, 3), (3, 2), (5, 1))

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositive):
            factorize(0)
        with pytest.raises(NonPositive):
            factorize(-6)

    def test_roundtrip_and_trial_division_agreement(self):
        rng = random.Random(11)
        for _ in range(200):
            z = rng.randint(1, 10**6)
            fact = factorize(z)
            assert math.prod(p**s for p, s in fact.factors) == z
            assert list(fact.factors) == trial_factorize(z)
            primes = [p for p, _ in fact.factors]
            assert primes == sorted(primes)
            assert all(is_probable_prime(p) for p in primes)

    def test_large_semiprime(self):
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    def test_rho_iteration_cap(self):
        with pytest.raises(FactorizationTimeout):
            factorize(1_000_003 * 1_000_033, rho_iteration_cap=1)
        with pytest.raises(FactorizationTimeout):
            factorize(12 * P45 * Q45, rho_iteration_cap=10**4)

    @settings(max_examples=40, deadline=None)
    @given(prime_products)
    def test_matches_trial_first_factorization(self, z):
        assert factorize(z) == factorize_trial_first(z)


class TestPrimality:
    def test_small_numbers_against_trial_division(self):
        for n in range(-2, 2000):
            naive = n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
            assert is_probable_prime(n) == naive

    def test_known_large_values(self):
        assert is_probable_prime(2**61 - 1)
        assert not is_probable_prime(2**67 - 1)  # 193707721 * 761838257287
        assert is_probable_prime(10**18 + 9)


class TestOmega:
    def test_truncation_examples(self):
        assert omega_truncated(12, 1) == 2
        assert omega_truncated(12, 2) == 3
        assert omega_truncated(1, 3) == 0
        assert omega_truncated(360, 2) == 5

    def test_shorthands(self):
        assert omega(12) == 2
        assert omega(1) == 0

    def test_requires_positive_arguments(self):
        with pytest.raises(NonPositive):
            omega_truncated(0, 1)
        with pytest.raises(NonPositive):
            omega_truncated(12, 0)

    def test_monotone_chain_small_range(self):
        # omega <= Omega_m <= Omega_m' <= Omega <= log2(z), exhaustively on
        # a prefix and sampled beyond it.
        rng = random.Random(23)
        values = list(range(1, 20001)) + [rng.randint(1, 10**6) for _ in range(500)]
        for z in values:
            w = omega(z)
            big = sum(s for _, s in trial_factorize(z))
            assert w == omega_truncated(z, 1)
            prev = w
            for m in (2, 3, 5, 64):
                cur = omega_truncated(z, m)
                assert prev <= cur
                prev = cur
            assert prev == big
            if z >= 2:
                assert big <= math.floor(math.log2(z))


class TestOmegaTruncatedUpper:
    @settings(max_examples=40, deadline=None)
    @given(prime_products, st.integers(1, 4))
    def test_exact_or_above(self, z, m):
        value, exact = omega_truncated_upper(z, m)
        truth = omega_truncated(z, m)
        assert value == truth if exact else value >= truth

    def test_unsplit_semiprime(self):
        # floor(log_{10^6} c) for the unsplit cofactor c, plus the rest;
        # the exact values are 2, 4 and 3.
        assert omega_truncated_upper(P45 * Q45, 2) == (4, False)
        assert omega_truncated_upper(12 * P45 * Q45, 1) == (6, False)
        assert omega_truncated_upper(P45**2 * Q45, 3) == (6, False)

    def test_trial_division_finishes_what_rho_leaves(self):
        with mock.patch.object(numtheory, "_BOUND_RHO_ITERATION_CAP", 0):
            assert omega_truncated_upper(1009 * 1009 * 999983, 1) == (2, True)
            assert omega_truncated_upper(1009 * 1013 * 999983, 3) == (3, True)
            assert omega_truncated_upper(1009 * P45, 3) == (2, True)
            assert omega_truncated_upper(1009 * P45 * Q45, 3) == (5, False)

    def test_requires_positive_arguments(self):
        with pytest.raises(NonPositive):
            omega_truncated_upper(0, 1)
        with pytest.raises(NonPositive):
            omega_truncated_upper(12, 0)


class TestOmegaUpperOfParts:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 10**5),
                st.sampled_from((1, 2, 1009, 999983)),
                st.sampled_from((1, P45, Q45, P45 * Q45)),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(1, 4),
    )
    def test_certified_and_no_worse_than_the_product(self, draws, m):
        # The truth comes from trial factorization of each part's small
        # factor, plus the two large primes, which are known.
        counts = {}
        for small, shared, big in draws:
            found = trial_factorize(small * shared) + [(p, 1) for p in (P45, Q45) if big % p == 0]
            for p, s in found:
                counts[p] = counts.get(p, 0) + s
        truth = sum(min(s, m) for s in counts.values())
        parts = [small * shared * big for small, shared, big in draws]
        value, exact = numtheory._omega_upper(parts, m)
        assert value >= truth
        if exact:
            assert value == truth
        whole, whole_exact = omega_truncated_upper(math.prod(parts), m)
        if whole_exact:
            assert (value, exact) == (whole, True)

    def test_primes_in_separate_parts_are_found_without_rho(self):
        with mock.patch.object(numtheory, "_pollard_rho", side_effect=AssertionError):
            assert numtheory._omega_upper((P45, 1, Q45), 2) == (2, True)
            assert numtheory._omega_upper((6 * P45, 4 * P45), 2) == (5, True)


class TestSplit:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from((2, 3, 5, 7, 11, 997)), max_size=6),
        st.sampled_from((1, 1009, 10007, 999983, 1001989)),
    )
    def test_cofactors_below_the_trial_square_need_no_primality_test(self, small, big):
        # 1001989 is the largest prime below 1001^2. Trial division leaves
        # 1 or the one prime above 1000, which is counted directly.
        z = math.prod(small) * big
        with mock.patch.object(numtheory, "is_probable_prime", side_effect=AssertionError), \
                mock.patch.object(numtheory, "_pollard_rho", side_effect=AssertionError):
            counts, stuck = numtheory._split((z,), 1)
        assert stuck == []
        assert counts == dict(trial_factorize(z))

    def test_cofactors_from_the_trial_square_on_are_tested(self):
        calls = []
        true_test = numtheory.is_probable_prime
        with mock.patch.object(numtheory, "is_probable_prime",
                               side_effect=lambda n: calls.append(n) or true_test(n)):
            counts, stuck = numtheory._split((1009 * 1013, 1002017), 10**4)
        assert (counts, stuck) == ({1009: 1, 1013: 1, 1002017: 1}, [])
        assert sorted(calls) == sorted([1009, 1013, 1009 * 1013, 1002017])


def previous_prime(n: int) -> int:
    while not is_probable_prime(n):
        n -= 1
    return n


P60 = next_prime(2**59 + 12345)
Q62 = next_prime(2**61 + 6789)


class TestPrimeBlocks:
    def test_blocks_hold_the_primes_up_to_the_limit_in_order(self):
        blocks = numtheory._prime_blocks()
        assert blocks[0][0] == 1007 and next_prime(1001) == 1009
        assert blocks[-1][1] == 999984 and previous_prime(10**6) == 999983
        for (_, end, _), (start, _, _) in zip(blocks, blocks[1:]):
            # No prime falls between blocks, and each start has the form 6k - 1.
            assert start % 6 == 5 and next_prime(end) - start in (0, 2)
        assert blocks[0][2] % 1009 == 0 and blocks[-1][2] % 999983 == 0

    def test_block_path_equals_the_trial_division(self):
        blocks = numtheory._prime_blocks()
        # The last prime of a block and the first of the next.
        edges = []
        for k in (0, 1, 150, len(blocks) - 2):
            last = previous_prime(blocks[k][1] - 1)
            edges += [last, next_prime(last + 1)]
        cofactors = [1009, 1013, 1009 * 1013, 1009**2 * 1013**3, 1000003, 1009 * 1000003]
        cofactors += [p**e for p in (999979, 999983) for e in (1, 2, 3)]
        cofactors += [999979 * 999983, 1013 * 999983**2 * 1000003]
        cofactors += edges + [p * q for p, q in zip(edges, edges[1:])] + [p**2 for p in edges]
        cofactors += [P60 * Q62, 1009 * P60 * Q62, edges[3] * P60, 999983**2 * P60 * Q62]
        for v in cofactors:
            trial, blocked = {}, {}
            expected = numtheory._trial_divide(v, 1001, 10**6 + 1, trial)
            assert (numtheory._trial_divide_blocks(v, blocked), blocked) == (expected, trial), v

    def test_built_on_first_use_not_at_import(self):
        code = (
            "from sparsedioph import cli, numtheory\n"
            "cli.run(['factor', '360'])\n"
            "print(numtheory._prime_blocks.cache_info().currsize)\n"
            "numtheory._trial_divide_blocks(1009 * 1013, {})\n"
            "print(numtheory._prime_blocks.cache_info().currsize)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["0", "1"]


class TestKappa:
    # kappa counts the primary cyclic summands of Z^n / L(M).
    def test_examples(self):
        assert primary_summands(identity(2)) == 0
        assert primary_summands(IntMatrix.from_rows([[6, 0], [0, 2]])) == 3  # Z/2 + Z/3 + Z/2
        assert primary_summands(IntMatrix.from_rows([[12]])) == 2  # Z/4 + Z/3
        # Invariant factors 2 and 6, not visible on the diagonal.
        assert primary_summands(IntMatrix.from_rows([[2, 4], [4, 2]])) == 3

    def test_rejects_nonpositive_orders(self):
        # det 0: Z^n / L(M) has an infinite cyclic summand.
        with pytest.raises(NonPositive):
            primary_summands(IntMatrix.from_rows([[3, 0], [6, 0]]))

    def test_bounded_by_truncated_omega_of_group_order(self):
        # kappa(Z^m / lattice) <= Omega_m(det).
        rng = random.Random(37)
        checked = 0
        while checked < 60:
            n = rng.randint(1, 4)
            M = random_matrix(rng, n, n, -9, 9)
            d = det_exact(M)
            if d == 0:
                continue
            checked += 1
            assert primary_summands(M) <= omega_truncated(abs(d), n)
