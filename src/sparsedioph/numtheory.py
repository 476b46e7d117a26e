"""Integer factorization and the prime counts the bounds are stated with.

The lattice and semigroup bounds count prime factors with multiplicities
capped at m (omega_truncated(z, m)); the mixed-knapsack bound counts
distinct primes, which is the same count with m = 1.

One private splitter serves every caller. It strips 2 and 3 and
trial-divides below 1000; a cofactor left below 1001^2 is then prime. It
works through a stack of the larger cofactors: each one is tested with
Miller-Rabin first and only a composite goes to Pollard's rho (Brent's
variant) under an iteration budget. Primality is deterministic
below 3.3e24, which covers every 64-bit input; larger numbers get 40
extra pseudo-random rounds seeded from the input so results stay
reproducible.

`factorize` gives rho a large budget and raises FactorizationTimeout when
a cofactor resists it. `omega_truncated_upper` serves the sparsity bounds,
which need a number rather than a factorization: it gives rho a small
budget, trial-divides a resisting cofactor c up to TRIAL_DIVISION_LIMIT = L
(only in the blocks of primes whose product, built once per process, shares
a factor with c), and, if c is still composite, counts it as floor(log_L c)
prime factors, which is an upper bound because each of them exceeds L.
Sparsify and the bounds report know delta as a product of m diagonal
quotients of two canonical bases and pass the quotients to the private
`_omega_upper`, so all of this runs per quotient: two large primes on
different diagonal entries never meet in one cofactor.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .errors import FactorizationTimeout, NonPositive

TRIAL_DIVISION_LIMIT = 10**6
DEFAULT_RHO_ITERATION_CAP = 10**7
# Every input is trial-divided by the primes below this number.
_SMALL_TRIAL_LIMIT = 1001
# Rho budget for the certified bounds. Rho spends about sqrt(p) iterations
# to find a prime factor p, so this splits off factors below about 2^26
# almost always, at a cost of tens of milliseconds on 110-240 bit
# cofactors.
_BOUND_RHO_ITERATION_CAP = 3 * 10**4

# Witness set proving primality for all n < 3_317_044_064_679_887_385_961_981.
_DETERMINISTIC_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
_PROBABILISTIC_ROUNDS = 40


@dataclass(frozen=True)
class Factorization:
    """Prime factorization as (prime, multiplicity) pairs, primes increasing."""

    factors: tuple[tuple[int, int], ...]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test; deterministic below 3.3e24."""
    if n < 2:
        return False
    for p in _DETERMINISTIC_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witnesses():
        yield from _DETERMINISTIC_BASES
        if n >= _DETERMINISTIC_LIMIT:
            rng = random.Random(n)
            for _ in range(_PROBABILISTIC_ROUNDS):
                yield rng.randrange(2, n - 1)

    for a in witnesses():
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int, iteration_cap: int) -> int:
    """Find a nontrivial factor of composite odd n (Brent's cycle method)."""
    spent = 0

    def tick(steps: int):
        nonlocal spent
        spent += steps
        if spent > iteration_cap:
            raise FactorizationTimeout(f"rho exceeded {iteration_cap} iterations on {n}")

    for c in range(1, 64):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            tick(r)
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(128, r - k)
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                tick(block)
                g = math.gcd(q, n)
                k += block
            r *= 2
        if g == n:
            # The batched gcd overshot; retrace one step at a time.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                tick(1)
        if 1 < g < n:
            return g
    raise FactorizationTimeout(f"rho failed to split {n}")


def _trial_divide(v: int, start: int, limit: int, counts: dict[int, int]) -> int:
    """Divide v by d and d + 2 for d = start, start + 6, ... below limit,
    as often as they go, counting each divisor in `counts`. start has the
    form 6k - 1 and v has no prime factor below it, so only primes divide.
    Returns the cofactor, which is 1 or a prime when the loop stops on
    d * d > v."""
    d = start
    while d < limit and d * d <= v:
        for cand in (d, d + 2):
            while v % cand == 0:
                counts[cand] = counts.get(cand, 0) + 1
                v //= cand
        d += 6
    return v


@functools.cache
def _prime_blocks() -> tuple[tuple[int, int, int], ...]:
    """(start, end, product) for each of the 306 blocks of 256 consecutive
    primes in [_SMALL_TRIAL_LIMIT, L], sieved once per process on first use;
    _trial_divide(v, start, end, ...) tries every prime of its block."""
    limit = TRIAL_DIVISION_LIMIT + 1
    odd_prime = bytearray([1]) * (limit // 2)  # index i stands for 2i + 1
    for p in range(3, math.isqrt(limit) + 1, 2):
        if odd_prime[p // 2]:
            odd_prime[p * p // 2 :: p] = bytes(len(range(p * p // 2, limit // 2, p)))
    primes = itertools.compress(range(_SMALL_TRIAL_LIMIT, limit, 2), odd_prime[_SMALL_TRIAL_LIMIT // 2 :])
    blocks = []
    while chunk := list(itertools.islice(primes, 256)):
        # _trial_divide starts at a number of the form 6k - 1.
        start = chunk[0] - 2 if chunk[0] % 6 == 1 else chunk[0]
        blocks.append((start, chunk[-1] + 1, math.prod(chunk)))
    return tuple(blocks)


def _trial_divide_blocks(v: int, counts: dict[int, int]) -> int:
    """_trial_divide(v, _SMALL_TRIAL_LIMIT, L + 1, counts), run only on the
    prime blocks that share a factor with v."""
    for start, end, product in _prime_blocks():
        if start * start > v:
            break
        if math.gcd(product, v) > 1:
            v = _trial_divide(v, start, end, counts)
    return v


def _split(parts, rho_cap: int) -> tuple[dict[int, int], list[int]]:
    """Prime multiplicities of the product of the positive `parts`, and
    the cofactors rho could not split.

    Each part is trial-divided below _SMALL_TRIAL_LIMIT on its own. A
    cofactor left below _SMALL_TRIAL_LIMIT squared is 1 or a prime, as
    `_trial_divide` states, and is counted with no primality test. Larger
    cofactors go onto one stack, where each is tested with Miller-Rabin
    before rho. The counts of a prime found in several parts add up. The
    product of the primes (with multiplicity) and the stuck cofactors is
    the product of the parts; every stuck cofactor is composite with no
    prime factor below _SMALL_TRIAL_LIMIT.
    """
    counts: dict[int, int] = {}
    stack: list[int] = []
    for z in parts:
        if z <= 0:
            raise NonPositive(f"cannot factorize {z}")
        for d in (2, 3):
            while z % d == 0:
                counts[d] = counts.get(d, 0) + 1
                z //= d
        z = _trial_divide(z, 5, _SMALL_TRIAL_LIMIT, counts)
        if z >= _SMALL_TRIAL_LIMIT * _SMALL_TRIAL_LIMIT:
            stack.append(z)
        elif z > 1:
            counts[z] = counts.get(z, 0) + 1
    stuck: list[int] = []
    while stack:
        v = stack.pop()
        if is_probable_prime(v):
            counts[v] = counts.get(v, 0) + 1
            continue
        try:
            f = _pollard_rho(v, rho_cap)
        except FactorizationTimeout:
            stuck.append(v)
            continue
        stack.append(f)
        stack.append(v // f)
    return counts, stuck


def factorize(z: int, rho_iteration_cap: int = DEFAULT_RHO_ITERATION_CAP) -> Factorization:
    """Prime factorization of a positive integer; z = 1 gives no factors.

    Raises FactorizationTimeout when Pollard's rho cannot split a cofactor
    within `rho_iteration_cap` iterations.
    """
    counts, stuck = _split((z,), rho_iteration_cap)
    if stuck:
        raise FactorizationTimeout(
            f"rho exceeded {rho_iteration_cap} iterations on {stuck[0]}"
        )
    return Factorization(tuple(sorted(counts.items())))


def omega_truncated_upper(z: int, m: int) -> tuple[int, bool]:
    """Certified upper bound on omega_truncated(z, m), and whether it is exact.

    Needs no full factorization. A cofactor c that rho cannot split within
    a small budget is trial-divided up to L = TRIAL_DIVISION_LIMIT; a
    prime left over counts once, and a composite one adds floor(log_L c),
    since all its prime factors exceed L. Counting it apart from primes
    found elsewhere keeps the bound, as min(a + b, m) <= min(a, m) + b.
    The bound is exact iff no composite is left over.
    """
    return _omega_upper((z,), m)


def _omega_upper(parts, m: int) -> tuple[int, bool]:
    """omega_truncated_upper of the product of the positive `parts`.

    The parts are split apart, so two large primes in different parts
    never meet in one cofactor that rho has to split; the prime counts
    are merged over all parts before each is capped at m.
    """
    if m < 1:
        raise NonPositive(f"threshold must be >= 1, got {m}")
    counts, stuck = _split(parts, _BOUND_RHO_ITERATION_CAP)
    unsplit = 0
    for c in stuck:
        c = _trial_divide_blocks(c, counts)
        if is_probable_prime(c):
            counts[c] = counts.get(c, 0) + 1
            continue
        power = TRIAL_DIVISION_LIMIT
        while power <= c:
            power *= TRIAL_DIVISION_LIMIT
            unsplit += 1
    value = sum(min(s, m) for s in counts.values()) + unsplit
    return value, unsplit == 0
